//! Polynomial regression with stepwise term selection.
//!
//! This powers two things: (i) the *performance-influence models* the paper
//! uses as the incumbent industry approach (§2, Figs 4/5/21/22 — non-linear
//! regression with forward and backward elimination, stepwise training); and
//! (ii) the functional nodes of fitted causal performance models (§3 —
//! "we characterize the functional nodes with polynomial models").

use crate::descriptive::{mape, r_squared};
use crate::matrix::Matrix;
use crate::StatsError;

/// A polynomial term: a multiset of variable indices.
///
/// `[]` is the intercept, `[3]` is `x₃`, `[3, 3]` is `x₃²`, `[1, 4]` is the
/// interaction `x₁·x₄`. Indices are kept sorted so equal terms compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Term(pub Vec<usize>);

impl Term {
    /// The intercept term.
    pub fn intercept() -> Self {
        Term(Vec::new())
    }

    /// A single-variable linear term.
    pub fn linear(i: usize) -> Self {
        Term(vec![i])
    }

    /// An interaction (or power) term over the given indices.
    pub fn interaction(mut idx: Vec<usize>) -> Self {
        idx.sort_unstable();
        Term(idx)
    }

    /// Degree of the term (0 for the intercept).
    pub fn degree(&self) -> usize {
        self.0.len()
    }

    /// Distinct variables appearing in the term.
    pub fn variables(&self) -> Vec<usize> {
        let mut v = self.0.clone();
        v.dedup();
        v
    }

    /// Evaluates the term on one row of predictor values.
    pub fn eval(&self, row: &dyn Fn(usize) -> f64) -> f64 {
        self.0.iter().map(|&i| row(i)).product()
    }

    /// Human-readable rendering with variable names, e.g.
    /// `"CPU Frequency ⊗ Bitrate"` (matching the paper's Fig 5 notation).
    pub fn render(&self, names: &dyn Fn(usize) -> String) -> String {
        if self.0.is_empty() {
            return "1".to_string();
        }
        self.0
            .iter()
            .map(|&i| names(i))
            .collect::<Vec<_>>()
            .join(" ⊗ ")
    }
}

/// A fitted linear-in-parameters polynomial model `y = Σ βᵢ·termᵢ`.
#[derive(Debug, Clone)]
pub struct PolyModel {
    /// Selected terms, first is always the intercept.
    pub terms: Vec<Term>,
    /// Coefficients aligned with `terms`.
    pub coefficients: Vec<f64>,
    /// Training residual variance (biased MLE denominator, for BIC).
    pub sigma2: f64,
    /// Training R².
    pub r2: f64,
}

impl PolyModel {
    /// Predicts one sample given a column-value accessor.
    pub fn predict_row(&self, row: &dyn Fn(usize) -> f64) -> f64 {
        self.terms
            .iter()
            .zip(&self.coefficients)
            .map(|(t, &b)| b * t.eval(row))
            .sum()
    }

    /// Predicts all rows of column-major data. Accumulates term by term
    /// with direct column indexing — the same addition order as
    /// [`Self::predict_row`] per row (both fold terms in order from 0.0),
    /// so results are bit-identical, just without the per-value virtual
    /// dispatch. Degree ≤ 2 terms (everything the SCM's functional nodes
    /// use) take unrolled inner loops.
    pub fn predict(&self, columns: &[Vec<f64>]) -> Vec<f64> {
        let n = columns.first().map_or(0, Vec::len);
        let mut out = vec![0.0; n];
        for (term, &b) in self.terms.iter().zip(&self.coefficients) {
            match term.0.as_slice() {
                [] => out.iter_mut().for_each(|o| *o += b),
                [i] => {
                    let c = &columns[*i];
                    out.iter_mut().zip(c).for_each(|(o, &v)| *o += b * v);
                }
                [i, j] => {
                    let (ci, cj) = (&columns[*i], &columns[*j]);
                    for ((o, &vi), &vj) in out.iter_mut().zip(ci).zip(cj) {
                        *o += b * (vi * vj);
                    }
                }
                idx => {
                    for (r, o) in out.iter_mut().enumerate() {
                        *o += b * idx.iter().map(|&i| columns[i][r]).product::<f64>();
                    }
                }
            }
        }
        out
    }

    /// Coefficient of a specific term, if present.
    pub fn coefficient(&self, term: &Term) -> Option<f64> {
        self.terms
            .iter()
            .position(|t| t == term)
            .map(|i| self.coefficients[i])
    }

    /// Mean absolute percentage error on a dataset.
    pub fn mape_on(&self, columns: &[Vec<f64>], y: &[f64]) -> f64 {
        mape(y, &self.predict(columns))
    }

    /// Non-intercept terms (the "predictors" in the paper's Fig 4 sense).
    pub fn predictors(&self) -> Vec<&Term> {
        self.terms.iter().filter(|t| t.degree() > 0).collect()
    }
}

/// The normal equations `XᵀX` / `Xᵀy` of a term set, accumulated over a
/// run of rows — the mergeable sufficient statistic of an OLS fit.
///
/// Like the moment layer in [`crate::descriptive`], Grams are defined
/// *canonically* over fixed [`MOMENT_CHUNK`]-row chunks summed in row
/// order: [`fit_terms`] folds per-chunk Grams exactly as an incremental
/// consumer folds cached per-segment Grams, so a warm-started refit over
/// shared segments is bit-identical to a cold fit.
#[derive(Debug, Clone)]
pub struct TermGram {
    /// Rows folded in.
    pub n: usize,
    /// `XᵀX`, `t × t`.
    pub xtx: Matrix,
    /// `Xᵀy`, length `t`.
    pub xty: Vec<f64>,
}

use crate::descriptive::MOMENT_CHUNK;

impl TermGram {
    /// The all-zero Gram (identity of [`TermGram::add`]).
    pub fn zeros(t: usize) -> Self {
        Self {
            n: 0,
            xtx: Matrix::zeros(t, t),
            xty: vec![0.0; t],
        }
    }

    /// Gram of one chunk of rows. `cols[i]` is column `i` restricted to
    /// the chunk (chunk-local row indexing); `y` is the chunk's response.
    ///
    /// Evaluates the chunk's design block term-major, then fills each
    /// normal-equation entry as one ordered dot product over the chunk's
    /// rows — the same per-entry row-order sum a row-major accumulation
    /// produces, so the result is independent of this loop structure.
    pub fn of_chunk(terms: &[Term], cols: &[&[f64]], y: &[f64]) -> Self {
        let t = terms.len();
        let n = y.len();
        let mut g = Self::zeros(t);
        g.n = n;
        let mut block = vec![0.0; t * n];
        for (c, term) in terms.iter().enumerate() {
            let row = &mut block[c * n..(c + 1) * n];
            match term.0.as_slice() {
                [] => row.fill(1.0),
                [i] => row.copy_from_slice(&cols[*i][..n]),
                [i, j] => {
                    let (ci, cj) = (&cols[*i][..n], &cols[*j][..n]);
                    for ((o, &vi), &vj) in row.iter_mut().zip(ci).zip(cj) {
                        *o = vi * vj;
                    }
                }
                idx => {
                    for (r, o) in row.iter_mut().enumerate() {
                        *o = idx.iter().map(|&i| cols[i][r]).product();
                    }
                }
            }
        }
        for a in 0..t {
            let ra = &block[a * n..(a + 1) * n];
            for b in a..t {
                let rb = &block[b * n..(b + 1) * n];
                g.xtx[(a, b)] = ra.iter().zip(rb).map(|(&u, &v)| u * v).sum();
            }
            g.xty[a] = ra.iter().zip(y).map(|(&u, &v)| u * v).sum();
        }
        g
    }

    /// Element-wise merge (row-run concatenation); callers must fold
    /// chunks in row order.
    pub fn add(&mut self, other: &TermGram) {
        debug_assert_eq!(self.xty.len(), other.xty.len(), "gram size mismatch");
        self.n += other.n;
        let t = self.xty.len();
        for a in 0..t {
            for b in a..t {
                self.xtx[(a, b)] += other.xtx[(a, b)];
            }
            self.xty[a] += other.xty[a];
        }
    }

    /// Solves the (ridge-stabilized, mirrored) normal equations for the
    /// coefficient vector.
    pub fn solve(&self) -> Result<Vec<f64>, StatsError> {
        let t = self.xty.len();
        let mut xtx = self.xtx.clone();
        for a in 0..t {
            for b in (a + 1)..t {
                xtx[(b, a)] = xtx[(a, b)];
            }
            xtx[(a, a)] += 1e-10;
        }
        xtx.solve(&self.xty)
    }
}

/// The canonical chunked Gram of a full column-major dataset.
pub fn gram_of_columns(columns: &[Vec<f64>], y: &[f64], terms: &[Term]) -> TermGram {
    let n = y.len();
    let mut gram = TermGram::zeros(terms.len());
    let mut start = 0;
    while start < n {
        let end = (start + MOMENT_CHUNK).min(n);
        let cols: Vec<&[f64]> = columns.iter().map(|c| &c[start..end]).collect();
        let chunk = TermGram::of_chunk(terms, &cols, &y[start..end]);
        gram.add(&chunk);
        start = end;
    }
    gram
}

/// Finishes a fit from accumulated normal equations: solve, then score the
/// model on the full data (predictions are recomputed from the
/// coefficients, so callers fitting from merged Grams and callers fitting
/// cold share one code path).
pub fn fit_gram(
    gram: &TermGram,
    columns: &[Vec<f64>],
    y: &[f64],
    terms: &[Term],
) -> Result<PolyModel, StatsError> {
    let beta = gram.solve()?;
    let mut model = PolyModel {
        terms: terms.to_vec(),
        coefficients: beta,
        sigma2: 0.0,
        r2: 0.0,
    };
    let pred = model.predict(columns);
    let n = y.len() as f64;
    let sse: f64 = y.iter().zip(&pred).map(|(a, p)| (a - p) * (a - p)).sum();
    model.sigma2 = (sse / n).max(1e-300);
    model.r2 = r_squared(y, &pred);
    Ok(model)
}

/// Fits OLS coefficients for a fixed term set (canonical chunked normal
/// equations; see [`TermGram`]).
pub fn fit_terms(columns: &[Vec<f64>], y: &[f64], terms: &[Term]) -> Result<PolyModel, StatsError> {
    fit_gram(&gram_of_columns(columns, y, terms), columns, y, terms)
}

/// Bayesian information criterion of a fitted model (lower is better).
pub fn bic(model: &PolyModel, n: usize) -> f64 {
    let k = model.terms.len() as f64;
    let n = n as f64;
    n * model.sigma2.ln() + k * n.ln()
}

/// Options for stepwise selection.
#[derive(Debug, Clone)]
pub struct StepwiseOptions {
    /// Maximum interaction degree of candidate terms (2 ⇒ pairwise, 3 ⇒
    /// also three-way interactions, as in the paper's Fig 5).
    pub max_degree: usize,
    /// Hard cap on selected non-intercept terms.
    pub max_terms: usize,
    /// Minimum BIC improvement required to add a term.
    pub min_improvement: f64,
    /// Whether to run backward elimination after forward selection.
    pub backward: bool,
}

impl Default for StepwiseOptions {
    fn default() -> Self {
        Self {
            max_degree: 3,
            max_terms: 40,
            min_improvement: 1e-6,
            backward: true,
        }
    }
}

/// Stepwise (forward + backward) selection of polynomial terms, the
/// construction used for performance-influence models in the systems
/// literature (Siegmund et al., FSE'15) and reproduced by the paper in §2.
///
/// Candidate pool: all linear terms and squares; pairwise interactions among
/// variables already found relevant; three-way interactions among relevant
/// pairs when `max_degree ≥ 3`. Growing the pool hierarchically keeps the
/// search polynomial in the number of options.
pub fn stepwise_fit(
    columns: &[Vec<f64>],
    y: &[f64],
    opts: &StepwiseOptions,
) -> Result<PolyModel, StatsError> {
    let p = columns.len();
    let n = y.len();
    let mut selected = vec![Term::intercept()];
    let mut model = fit_terms(columns, y, &selected)?;
    let mut best_bic = bic(&model, n);

    // Candidate generation: all linear terms and squares, plus pairwise
    // interactions pre-screened by |corr(xᵢ·xⱼ, y)| so that interactions
    // without main effects (weak heredity violations) are still reachable
    // while the pool stays tractable for large option counts.
    let mut pool: Vec<Term> = (0..p).map(Term::linear).collect();
    pool.extend((0..p).map(|i| Term::interaction(vec![i, i])));
    let mut pair_scores: Vec<(f64, Term)> = Vec::new();
    for i in 0..p {
        for j in i + 1..p {
            let prod: Vec<f64> = (0..n).map(|r| columns[i][r] * columns[j][r]).collect();
            let score = crate::correlation::pearson(&prod, y).abs();
            pair_scores.push((score, Term::interaction(vec![i, j])));
        }
    }
    pair_scores.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN pair score"));
    let keep = (3 * opts.max_terms).max(60);
    pool.extend(pair_scores.into_iter().take(keep).map(|(_, t)| t));

    let mut added_vars: Vec<usize> = Vec::new();
    loop {
        if selected.len() > opts.max_terms {
            break;
        }
        // Forward step: try every pool candidate not yet selected.
        let mut best: Option<(f64, Term)> = None;
        for cand in &pool {
            if selected.contains(cand) {
                continue;
            }
            let mut trial = selected.clone();
            trial.push(cand.clone());
            if let Ok(m) = fit_terms(columns, y, &trial) {
                let b = bic(&m, n);
                if b < best_bic - opts.min_improvement
                    && best.as_ref().is_none_or(|(bb, _)| b < *bb)
                {
                    best = Some((b, cand.clone()));
                }
            }
        }
        let Some((b, term)) = best else { break };
        best_bic = b;
        for v in term.variables() {
            if !added_vars.contains(&v) {
                added_vars.push(v);
                // New variable joined the model: extend the pool with its
                // pairwise interactions against other relevant variables.
                for &u in &added_vars {
                    if u != v {
                        let t = Term::interaction(vec![u, v]);
                        if !pool.contains(&t) {
                            pool.push(t);
                        }
                    }
                }
            }
        }
        if opts.max_degree >= 3 {
            // Extend with three-way interactions among the term's variables
            // and previously selected variables.
            for &u in &added_vars {
                let mut idx = term.0.clone();
                if idx.len() == 2 && !idx.contains(&u) {
                    idx.push(u);
                    let t = Term::interaction(idx);
                    if !pool.contains(&t) {
                        pool.push(t);
                    }
                }
            }
        }
        selected.push(term);
        model = fit_terms(columns, y, &selected)?;
    }

    // Backward elimination: drop terms whose removal improves BIC.
    if opts.backward {
        loop {
            let mut best: Option<(f64, usize)> = None;
            for i in 1..selected.len() {
                let mut trial = selected.clone();
                trial.remove(i);
                if let Ok(m) = fit_terms(columns, y, &trial) {
                    let b = bic(&m, n);
                    if b < best_bic && best.as_ref().is_none_or(|(bb, _)| b < *bb) {
                        best = Some((b, i));
                    }
                }
            }
            let Some((b, i)) = best else { break };
            best_bic = b;
            selected.remove(i);
        }
        model = fit_terms(columns, y, &selected)?;
    }
    Ok(model)
}

/// Convenience re-export of the residuals of a fit.
pub fn residuals(model: &PolyModel, columns: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
    model
        .predict(columns)
        .into_iter()
        .zip(y)
        .map(|(p, &a)| a - p)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    #[test]
    fn term_ordering_and_render() {
        let t = Term::interaction(vec![4, 1]);
        assert_eq!(t, Term(vec![1, 4]));
        assert_eq!(t.render(&|i| format!("x{i}")), "x1 ⊗ x4");
        assert_eq!(Term::intercept().render(&|_| unreachable!()), "1");
    }

    #[test]
    fn fit_exact_polynomial() {
        // y = 1 + 2 x0 + 3 x0 x1.
        let mut s = 3u64;
        let n = 200;
        let x0: Vec<f64> = (0..n).map(|_| lcg(&mut s) * 2.0).collect();
        let x1: Vec<f64> = (0..n).map(|_| lcg(&mut s) * 2.0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 1.0 + 2.0 * x0[i] + 3.0 * x0[i] * x1[i])
            .collect();
        let terms = vec![
            Term::intercept(),
            Term::linear(0),
            Term::interaction(vec![0, 1]),
        ];
        let m = fit_terms(&[x0, x1], &y, &terms).unwrap();
        assert!((m.coefficients[0] - 1.0).abs() < 1e-6);
        assert!((m.coefficients[1] - 2.0).abs() < 1e-6);
        assert!((m.coefficients[2] - 3.0).abs() < 1e-6);
        assert!(m.r2 > 0.999_999);
    }

    #[test]
    fn stepwise_recovers_true_terms() {
        // y = 5 + 4 x1 - 2 x0 x2 + noise; x3 is irrelevant.
        let mut s = 11u64;
        let n = 400;
        let cols: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..n).map(|_| lcg(&mut s) * 2.0).collect())
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 5.0 + 4.0 * cols[1][i] - 2.0 * cols[0][i] * cols[2][i] + 0.05 * lcg(&mut s))
            .collect();
        let m = stepwise_fit(&cols, &y, &StepwiseOptions::default()).unwrap();
        let preds: Vec<&Term> = m.predictors();
        assert!(
            preds.contains(&&Term::linear(1)),
            "missing linear term: {preds:?}"
        );
        assert!(
            preds.contains(&&Term::interaction(vec![0, 2])),
            "missing interaction: {preds:?}"
        );
        // The irrelevant variable should not appear.
        assert!(
            !preds.iter().any(|t| t.variables().contains(&3)),
            "spurious x3 term: {preds:?}"
        );
        assert!(m.r2 > 0.99);
    }

    #[test]
    fn bic_penalizes_complexity() {
        let mut s = 17u64;
        let n = 100;
        let x: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 0.01 * lcg(&mut s)).collect();
        let small = fit_terms(
            std::slice::from_ref(&x),
            &y,
            &[Term::intercept(), Term::linear(0)],
        )
        .unwrap();
        let big = fit_terms(
            &[x],
            &y,
            &[
                Term::intercept(),
                Term::linear(0),
                Term::interaction(vec![0, 0]),
                Term::interaction(vec![0, 0, 0]),
            ],
        )
        .unwrap();
        assert!(bic(&small, n) < bic(&big, n));
    }

    #[test]
    fn predict_matches_training_fit() {
        let cols = vec![vec![0.0, 1.0, 2.0, 3.0]];
        let y = vec![1.0, 3.0, 5.0, 7.0];
        let m = fit_terms(&cols, &y, &[Term::intercept(), Term::linear(0)]).unwrap();
        let pred = m.predict(&cols);
        for (p, a) in pred.iter().zip(&y) {
            assert!((p - a).abs() < 1e-8);
        }
        assert!(m.mape_on(&cols, &y) < 1e-6);
    }
}
