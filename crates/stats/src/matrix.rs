//! Small dense-matrix linear algebra used across the workspace.
//!
//! The matrices involved in causal discovery and effect estimation are small
//! (at most a few hundred rows/columns: correlation submatrices, design
//! matrices of polynomial regressions), so a straightforward row-major dense
//! implementation with LU and Cholesky factorizations is both sufficient and
//! dependency-free.

use crate::StatsError;

/// A dense, row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A single row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A single column, copied out.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in matmul");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch in matvec");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Extracts the square submatrix over the given (row == column) indices.
    pub fn principal_submatrix(&self, idx: &[usize]) -> Matrix {
        let k = idx.len();
        let mut out = Matrix::zeros(k, k);
        for (i, &ri) in idx.iter().enumerate() {
            for (j, &cj) in idx.iter().enumerate() {
                out[(i, j)] = self[(ri, cj)];
            }
        }
        out
    }

    /// Cholesky factorization `A = L·Lᵀ` for a symmetric positive-definite
    /// matrix; returns the lower-triangular factor.
    pub fn cholesky(&self) -> Result<Matrix, StatsError> {
        if self.rows != self.cols {
            return Err(StatsError::NotSquare);
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(StatsError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solves `A x = b` via LU decomposition with partial pivoting.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, StatsError> {
        let lu = Lu::decompose(self)?;
        Ok(lu.solve(b))
    }

    /// Matrix inverse via LU decomposition with partial pivoting.
    pub fn inverse(&self) -> Result<Matrix, StatsError> {
        let lu = Lu::decompose(self)?;
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let x = lu.solve(&e);
            for r in 0..n {
                inv[(r, c)] = x[r];
            }
            e[c] = 0.0;
        }
        Ok(inv)
    }

    /// The three precision entries `(A⁻¹₀₀, A⁻¹₁₁, A⁻¹₀₁)` a partial
    /// correlation reads, via the same LU-with-partial-pivoting
    /// factorization as [`Matrix::inverse`] but solving only unit columns
    /// 0 and 1. Each inverse column is an independent triangular solve of
    /// the shared factorization, so the returned entries are **bit
    /// identical** to the full inverse's — at 2/n of the solve work and
    /// without materializing the n×n result. Fails exactly when
    /// [`Matrix::inverse`] fails (a singular factorization).
    pub fn precision_corner(&self) -> Result<(f64, f64, f64), StatsError> {
        let lu = Lu::decompose(self)?;
        let n = self.rows;
        debug_assert!(n >= 2);
        let mut e = vec![0.0; n];
        e[0] = 1.0;
        let x0 = lu.solve(&e);
        e[0] = 0.0;
        e[1] = 1.0;
        let x1 = lu.solve(&e);
        Ok((x0[0], x1[1], x1[0]))
    }

    /// [`Matrix::precision_corner`] with the same ridge fallback as
    /// [`Matrix::inverse_ridge`]: identical attempt sequence, so the
    /// returned entries carry the bits the full ridge inverse would.
    pub fn precision_corner_ridge(&self) -> Result<(f64, f64, f64), StatsError> {
        if let Ok(p) = self.precision_corner() {
            return Ok(p);
        }
        let n = self.rows;
        let mut lambda = 1e-8;
        for _ in 0..12 {
            let mut a = self.clone();
            for i in 0..n {
                a[(i, i)] += lambda;
            }
            if let Ok(p) = a.precision_corner() {
                return Ok(p);
            }
            lambda *= 10.0;
        }
        Err(StatsError::Singular)
    }

    /// Inverse with a ridge fallback: if `A` is singular, retries on
    /// `A + λI` with escalating `λ`. Correlation submatrices encountered
    /// during constraint-based search are occasionally numerically singular;
    /// the ridge keeps the search going with a conservative estimate.
    pub fn inverse_ridge(&self) -> Result<Matrix, StatsError> {
        if let Ok(inv) = self.inverse() {
            return Ok(inv);
        }
        let n = self.rows;
        let mut lambda = 1e-8;
        for _ in 0..12 {
            let mut a = self.clone();
            for i in 0..n {
                a[(i, i)] += lambda;
            }
            if let Ok(inv) = a.inverse() {
                return Ok(inv);
            }
            lambda *= 10.0;
        }
        Err(StatsError::Singular)
    }

    /// Frobenius norm of `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn frobenius_distance(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// LU decomposition with partial pivoting (Doolittle, in-place storage).
struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
}

impl Lu {
    fn decompose(a: &Matrix) -> Result<Self, StatsError> {
        if a.rows != a.cols {
            return Err(StatsError::NotSquare);
        }
        let n = a.rows;
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below row k.
            let mut pivot = k;
            let mut max = lu[(k, k)].abs();
            for r in k + 1..n {
                if lu[(r, k)].abs() > max {
                    max = lu[(r, k)].abs();
                    pivot = r;
                }
            }
            if max < 1e-300 {
                return Err(StatsError::Singular);
            }
            if pivot != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(pivot, c)];
                    lu[(pivot, c)] = tmp;
                }
                perm.swap(k, pivot);
            }
            for r in k + 1..n {
                let f = lu[(r, k)] / lu[(k, k)];
                lu[(r, k)] = f;
                for c in k + 1..n {
                    lu[(r, c)] -= f * lu[(k, c)];
                }
            }
        }
        Ok(Self { lu, perm })
    }

    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows;
        // Apply permutation, then forward- and back-substitute.
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for r in 1..n {
            for c in 0..r {
                y[r] -= self.lu[(r, c)] * y[c];
            }
        }
        for r in (0..n).rev() {
            for c in r + 1..n {
                y[r] -= self.lu[(r, c)] * y[c];
            }
            y[r] /= self.lu[(r, r)];
        }
        y
    }
}

/// Ordinary least squares: solves `min ‖Xβ − y‖²` via the normal equations
/// with a tiny ridge for numerical robustness. Returns the coefficient
/// vector β (length = number of columns of `X`).
pub fn ols(x: &Matrix, y: &[f64]) -> Result<Vec<f64>, StatsError> {
    if x.rows() != y.len() {
        return Err(StatsError::DimensionMismatch);
    }
    let xt = x.transpose();
    let mut xtx = xt.matmul(x);
    let n = xtx.rows();
    for i in 0..n {
        xtx[(i, i)] += 1e-10;
    }
    let xty = xt.matvec(y);
    xtx.solve(&xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn identity_is_neutral_for_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_close(prod[(i, j)], expect, 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ]);
        let l = a.cholesky().unwrap();
        let back = l.matmul(&l.transpose());
        assert!(a.frobenius_distance(&back) < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(a.cholesky(), Err(StatsError::NotPositiveDefinite)));
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.inverse().is_err());
        // ... but the ridge fallback still produces something usable.
        assert!(a.inverse_ridge().is_ok());
    }

    #[test]
    fn ols_recovers_exact_linear_model() {
        // y = 2 + 3 x1 - x2 with no noise.
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![1.0, 1.0, 0.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 2.0, 1.0],
            vec![1.0, 1.0, 3.0],
        ]);
        let y: Vec<f64> = (0..5).map(|r| 2.0 + 3.0 * x[(r, 1)] - x[(r, 2)]).collect();
        let beta = ols(&x, &y).unwrap();
        assert_close(beta[0], 2.0, 1e-6);
        assert_close(beta[1], 3.0, 1e-6);
        assert_close(beta[2], -1.0, 1e-6);
    }

    #[test]
    fn principal_submatrix_selects() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let s = a.principal_submatrix(&[0, 2]);
        assert_eq!(s, Matrix::from_rows(&[vec![1.0, 3.0], vec![7.0, 9.0]]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = vec![5.0, 6.0];
        assert_eq!(a.matvec(&v), vec![17.0, 39.0]);
    }
}
