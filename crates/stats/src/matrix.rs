//! Small dense-matrix linear algebra used across the workspace.
//!
//! The matrices involved in causal discovery and effect estimation are small
//! (at most a few hundred rows/columns: correlation submatrices, design
//! matrices of polynomial regressions), so a straightforward row-major dense
//! implementation with an LU factorization is both sufficient and
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
    #[cfg(test)]
    fn from_rows(rows: &[Vec<f64>]) -> Self {
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

    /// Solves `A x = b` via LU decomposition with partial pivoting.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, StatsError> {
        let lu = Lu::decompose(self)?;
        Ok(lu.solve(b))
    }

    /// The three precision entries `(A⁻¹₀₀, A⁻¹₁₁, A⁻¹₀₁)` a partial
    /// correlation reads, via LU decomposition with partial pivoting,
    /// solving only unit columns 0 and 1. Each inverse column is an
    /// independent triangular solve of the shared factorization, so this
    /// costs 2/n of a full inverse's solve work and never materializes the
    /// n×n result. Fails when the factorization is singular.
    fn precision_corner(&self) -> Result<(f64, f64, f64), StatsError> {
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

    /// The precision corner with a ridge fallback: if `A` is singular,
    /// retries on `A + λI` with escalating `λ`. Correlation submatrices
    /// encountered during constraint-based search are occasionally
    /// numerically singular; the ridge keeps the search going with a
    /// conservative estimate.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_err());
        assert!(a.precision_corner().is_err());
        // ... but the ridge fallback still produces something usable.
        assert!(a.precision_corner_ridge().is_ok());
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
}
