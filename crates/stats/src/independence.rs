//! Conditional-independence tests driving constraint-based causal discovery
//! (§4 Stage II of the paper: "mutual info for discrete variables and Fisher
//! z-test for continuous").
//!
//! Each test has two backends: an *owned* one (precomputed correlation
//! matrix / code columns, the original behavior) and a [`DataView`]-backed
//! one that reads the view's cached sufficient statistics and memoizes
//! outcomes in the view's CI cache. Both backends canonicalize their
//! arguments (ordered `(x, y)`, sorted `z` — every supported test is
//! symmetric in both) and then run the identical arithmetic, so cached
//! results are bit-identical to direct computation for *any* argument
//! order, not just the first one queried (asserted by
//! `tests/dataview_equivalence.rs`).

use crate::correlation::{correlation_matrix, partial_correlation};
use crate::dataview::{CiKey, DataView};
use crate::dist::{chi2_sf, normal_two_sided_p};
use crate::entropy::{
    conditional_mutual_information_bounded, joint_code_counted, mutual_information_bounded,
};
use crate::matrix::Matrix;
use crate::smallset::SmallIdSet;

/// CI-cache tag for Fisher-Z outcomes.
const KIND_FISHER: u32 = 0;
/// CI-cache tag for G-test outcomes: the discretization parameters get
/// 12 bits each (far above any sane value), so differently-parameterized
/// tests over one view can never share cache entries.
fn kind_gtest(bins: usize, max_levels: usize) -> u32 {
    assert!(
        bins < (1 << 12) && max_levels < (1 << 12),
        "kind tag overflow"
    );
    1 | ((bins as u32) << 8) | ((max_levels as u32) << 20)
}

/// Canonical argument order shared by both backends: ordered pair plus a
/// sorted conditioning set. Both supported tests are symmetric in `x`/`y`
/// and in the order of `z`, so this changes nothing mathematically while
/// making the float rounding — and therefore the cached bits — a function
/// of the *set* queried rather than of the caller's argument order. The
/// skeleton sweep always passes already-sorted sets, so the common path
/// borrows instead of allocating.
fn canonical<'a>(
    x: usize,
    y: usize,
    z: &'a [usize],
) -> (usize, usize, std::borrow::Cow<'a, [usize]>) {
    let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
    if z.is_sorted() {
        (lo, hi, std::borrow::Cow::Borrowed(z))
    } else {
        let mut zs = z.to_vec();
        zs.sort_unstable();
        (lo, hi, std::borrow::Cow::Owned(zs))
    }
}

/// Cache key for already-canonical arguments (avoids the re-sort that
/// [`crate::dataview::ci_key`] performs for arbitrary callers). The
/// conditioning set lands in an inline [`SmallIdSet`], so keys for sets of
/// at most 8 variables are allocation-free.
fn key_of(kind: u32, x: usize, y: usize, z: &[usize]) -> CiKey {
    debug_assert!(x <= y && z.is_sorted());
    (kind, x as u32, y as u32, SmallIdSet::from_indices(z))
}

/// Outcome of a conditional-independence test.
#[derive(Debug, Clone, Copy)]
pub struct CiOutcome {
    /// The raw test statistic (Fisher-z or G).
    pub statistic: f64,
    /// The p-value; large values ⇒ fail to reject independence.
    pub p_value: f64,
}

impl CiOutcome {
    /// Whether the test fails to reject independence at level `alpha`.
    pub fn independent(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// A conditional-independence oracle over a fixed dataset: is column `x`
/// independent of column `y` given the columns in `z`?
///
/// `Sync` is a supertrait so oracles can be shared across the parallel
/// skeleton sweep's worker threads.
pub trait CiTest: Sync {
    /// Runs the test; `z` lists conditioning column indices.
    fn test(&self, x: usize, y: usize, z: &[usize]) -> CiOutcome;
    /// Number of variables (columns).
    fn n_vars(&self) -> usize;
}

/// The Fisher-z arithmetic shared by both backends.
fn fisher_outcome(corr: &Matrix, n: usize, x: usize, y: usize, z: &[usize]) -> (f64, f64) {
    let r = match partial_correlation(corr, x, y, z) {
        Ok(r) => r,
        // Singular conditioning sets: treat as uninformative
        // (independent) rather than aborting the search.
        Err(_) => return (0.0, 1.0),
    };
    let df = n as f64 - z.len() as f64 - 3.0;
    if df <= 0.0 {
        return (0.0, 1.0);
    }
    // atanh with clamping to avoid ±∞ on |r| = 1.
    let r = r.clamp(-0.999_999, 0.999_999);
    let zstat = df.sqrt() * 0.5 * ((1.0 + r) / (1.0 - r)).ln();
    (zstat, normal_two_sided_p(zstat))
}

enum FisherBackend {
    Owned { corr: Matrix, n: usize },
    View(DataView),
}

/// Fisher-z test on partial correlations, the standard CI test for
/// (approximately) Gaussian continuous data.
///
/// The statistic is `√(n − |z| − 3) · atanh(ρ̂)`, compared against a
/// standard normal.
pub struct FisherZ {
    backend: FisherBackend,
}

impl FisherZ {
    /// Builds the test from column-major data (the correlation matrix is
    /// precomputed once — the discovery loop runs thousands of tests).
    pub fn new(columns: &[Vec<f64>]) -> Self {
        let n = columns.first().map_or(0, Vec::len);
        Self {
            backend: FisherBackend::Owned {
                corr: correlation_matrix(columns),
                n,
            },
        }
    }

    /// Builds the test over a shared [`DataView`]: the correlation matrix
    /// comes from the view's cache and every outcome is memoized there.
    pub fn from_view(view: &DataView) -> Self {
        Self {
            backend: FisherBackend::View(view.clone()),
        }
    }
}

impl CiTest for FisherZ {
    fn test(&self, x: usize, y: usize, z: &[usize]) -> CiOutcome {
        let (x, y, z) = canonical(x, y, z);
        let (statistic, p_value) = match &self.backend {
            FisherBackend::Owned { corr, n } => fisher_outcome(corr, *n, x, y, &z),
            FisherBackend::View(view) => view.ci_outcome(key_of(KIND_FISHER, x, y, &z), || {
                fisher_outcome(view.correlation(), view.n_rows(), x, y, &z)
            }),
        };
        CiOutcome { statistic, p_value }
    }

    fn n_vars(&self) -> usize {
        match &self.backend {
            FisherBackend::Owned { corr, .. } => corr.rows(),
            FisherBackend::View(view) => view.n_cols(),
        }
    }
}

/// The G-test arithmetic on code slices shared by both backends. The
/// arities double as code bounds for the dense contingency kernels
/// (every code is `< arity` by the discretizer's contract), so the MI
/// estimators skip their per-call `max`-scans over the code columns; a
/// conditioning set passes `(codes, distinct stratum count, df strata)`.
fn g_outcome(
    x_codes: &[usize],
    y_codes: &[usize],
    x_arity: usize,
    y_arity: usize,
    zcode: Option<(&[usize], usize, f64)>,
    n: usize,
) -> (f64, f64) {
    let nf = n as f64;
    let (mi, df) = match zcode {
        None => {
            let mi = mutual_information_bounded(x_codes, y_codes, x_arity, y_arity);
            let df = (x_arity.max(2) - 1) * (y_arity.max(2) - 1);
            (mi, df as f64)
        }
        Some((zc, z_arity, strata)) => {
            let mi = conditional_mutual_information_bounded(
                x_codes, y_codes, zc, x_arity, y_arity, z_arity,
            );
            let df = (x_arity.max(2) - 1) as f64 * (y_arity.max(2) - 1) as f64 * strata;
            (mi, df)
        }
    };
    // MI is in bits; G uses natural log.
    let g = 2.0 * nf * mi * std::f64::consts::LN_2;
    (g, chi2_sf(g, df.max(1.0)))
}

enum GBackend {
    Owned {
        codes: Vec<Vec<usize>>,
        arities: Vec<usize>,
        n: usize,
    },
    View {
        view: DataView,
        bins: usize,
        max_levels: usize,
    },
}

/// G-test (likelihood-ratio form of the χ² test) on integer-coded data;
/// `G = 2n · ln2 · I(X; Y | Z)` with degrees of freedom
/// `(|X|−1)(|Y|−1)·Π|Zᵢ|`.
pub struct GTest {
    backend: GBackend,
}

impl GTest {
    /// Builds the test from pre-discretized columns and their arities.
    /// Every code must satisfy `codes[c][i] < arities[c]` — the arities
    /// are used as dense-kernel code bounds, not just degrees of freedom.
    pub fn new(codes: Vec<Vec<usize>>, arities: Vec<usize>) -> Self {
        let n = codes.first().map_or(0, Vec::len);
        Self {
            backend: GBackend::Owned { codes, arities, n },
        }
    }

    /// Builds the test over a shared [`DataView`]: per-column
    /// discretizations and joint conditioning codes come from the view's
    /// caches (`bins`/`max_levels` as in
    /// [`crate::discretize::Discretizer::fit`]), and outcomes are memoized.
    pub fn from_view(view: &DataView, bins: usize, max_levels: usize) -> Self {
        Self {
            backend: GBackend::View {
                view: view.clone(),
                bins,
                max_levels,
            },
        }
    }
}

impl CiTest for GTest {
    fn test(&self, x: usize, y: usize, z: &[usize]) -> CiOutcome {
        let (x, y, z) = canonical(x, y, z);
        let z: &[usize] = &z;
        let (statistic, p_value) = match &self.backend {
            GBackend::Owned { codes, arities, n } => {
                if z.is_empty() {
                    g_outcome(&codes[x], &codes[y], arities[x], arities[y], None, *n)
                } else {
                    let zcols: Vec<&[usize]> = z.iter().map(|&i| codes[i].as_slice()).collect();
                    let (zcode, z_arity) = joint_code_counted(&zcols, *n);
                    let strata: f64 = z.iter().map(|&i| arities[i].max(1) as f64).product();
                    g_outcome(
                        &codes[x],
                        &codes[y],
                        arities[x],
                        arities[y],
                        Some((&zcode, z_arity, strata)),
                        *n,
                    )
                }
            }
            GBackend::View {
                view,
                bins,
                max_levels,
            } => {
                let kind = kind_gtest(*bins, *max_levels);
                view.ci_outcome(key_of(kind, x, y, z), || {
                    // Arguments are already canonical here, so the cached
                    // bits match direct computation for any query order.
                    let cx = view.codes(x, *bins, *max_levels);
                    let cy = view.codes(y, *bins, *max_levels);
                    if z.is_empty() {
                        g_outcome(
                            &cx.codes,
                            &cy.codes,
                            cx.arity,
                            cy.arity,
                            None,
                            view.n_rows(),
                        )
                    } else {
                        let jz = view.joint_codes(z, *bins, *max_levels);
                        g_outcome(
                            &cx.codes,
                            &cy.codes,
                            cx.arity,
                            cy.arity,
                            Some((&jz.codes, jz.distinct(), jz.strata)),
                            view.n_rows(),
                        )
                    }
                })
            }
        };
        CiOutcome { statistic, p_value }
    }

    fn n_vars(&self) -> usize {
        match &self.backend {
            GBackend::Owned { codes, .. } => codes.len(),
            GBackend::View { view, .. } => view.n_cols(),
        }
    }
}

/// Mixed-data test used across the system stack (binary kernel switches,
/// categorical policies, continuous frequencies and event counts): runs the
/// Fisher-z test on the continuous representation. Discrete options with few
/// levels are ordinal across the whole configuration space we model (see
/// appendix Tables 5–9), for which the Gaussian approximation on ranks is
/// the standard pragmatic choice; a `GTest` can be substituted for purely
/// discrete datasets.
pub struct MixedTest {
    fisher: FisherZ,
}

impl MixedTest {
    /// Builds the mixed test from raw column-major data.
    pub fn new(columns: &[Vec<f64>]) -> Self {
        Self {
            fisher: FisherZ::new(columns),
        }
    }

    /// Builds the mixed test over a shared [`DataView`] (cached correlation
    /// matrix + memoized outcomes).
    pub fn from_view(view: &DataView) -> Self {
        Self {
            fisher: FisherZ::from_view(view),
        }
    }
}

impl CiTest for MixedTest {
    fn test(&self, x: usize, y: usize, z: &[usize]) -> CiOutcome {
        self.fisher.test(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.fisher.n_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-uniform noise in (−0.5, 0.5).
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    fn chain_data(n: usize) -> Vec<Vec<f64>> {
        // X → Y → Z chain: X ⊥ Z | Y but X ⊮ Z.
        let mut s = 7u64;
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        for _ in 0..n {
            let xi = lcg(&mut s) * 4.0;
            let yi = 2.0 * xi + lcg(&mut s);
            let zi = -1.5 * yi + lcg(&mut s);
            x.push(xi);
            y.push(yi);
            z.push(zi);
        }
        vec![x, y, z]
    }

    #[test]
    fn fisher_z_detects_chain_structure() {
        let cols = chain_data(800);
        let t = FisherZ::new(&cols);
        // Marginal dependence along the chain.
        assert!(!t.test(0, 2, &[]).independent(0.05));
        // Conditional independence given the middle node.
        assert!(t.test(0, 2, &[1]).independent(0.05));
    }

    #[test]
    fn fisher_z_small_sample_degrades_gracefully() {
        let cols = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![1.0, 0.0]];
        let t = FisherZ::new(&cols);
        // df ≤ 0 → inconclusive, reported as independent with p = 1.
        let out = t.test(0, 1, &[2]);
        assert_eq!(out.p_value, 1.0);
    }

    #[test]
    fn fisher_z_view_backend_is_bit_identical() {
        let cols = chain_data(400);
        let view = DataView::from_columns(&cols);
        let direct = FisherZ::new(&cols);
        let cached = FisherZ::from_view(&view);
        for (x, y, z) in [
            (0, 1, vec![]),
            (0, 2, vec![]),
            (0, 2, vec![1]),
            (1, 2, vec![0]),
        ] {
            let a = direct.test(x, y, &z);
            let b = cached.test(x, y, &z);
            let c = cached.test(x, y, &z); // cache hit
            assert_eq!(a.statistic.to_bits(), b.statistic.to_bits());
            assert_eq!(a.p_value.to_bits(), b.p_value.to_bits());
            assert_eq!(b.statistic.to_bits(), c.statistic.to_bits());
        }
        assert!(
            view.ci_cache_hits() >= 4,
            "repeat queries must hit the cache"
        );
    }

    #[test]
    fn g_test_detects_dependence_and_conditional_independence() {
        // Y = X (strong dependence); W independent coin.
        let n = 400;
        let mut s = 99u64;
        let x: Vec<usize> = (0..n).map(|_| (lcg(&mut s) > 0.0) as usize).collect();
        let y = x.clone();
        let w: Vec<usize> = (0..n).map(|_| (lcg(&mut s) > 0.0) as usize).collect();
        let t = GTest::new(vec![x, y, w], vec![2, 2, 2]);
        assert!(!t.test(0, 1, &[]).independent(0.01));
        assert!(t.test(0, 2, &[]).independent(0.01));
        // X ⊥ W even conditioned on Y.
        assert!(t.test(0, 2, &[1]).independent(0.01));
    }

    #[test]
    fn g_test_confounder_screening() {
        // Z fair coin; X = Z noisy copy; Y = Z noisy copy.
        let n = 2000;
        let mut s = 5u64;
        let z: Vec<usize> = (0..n).map(|_| (lcg(&mut s) > 0.0) as usize).collect();
        let flip = |v: usize, s: &mut u64| {
            if lcg(s).abs() < 0.05 {
                1 - v
            } else {
                v
            }
        };
        let x: Vec<usize> = z.iter().map(|&v| flip(v, &mut s)).collect();
        let y: Vec<usize> = z.iter().map(|&v| flip(v, &mut s)).collect();
        let t = GTest::new(vec![x, y, z], vec![2, 2, 2]);
        assert!(!t.test(0, 1, &[]).independent(0.01));
        assert!(t.test(0, 1, &[2]).independent(0.01));
    }

    #[test]
    fn g_test_view_backend_matches_owned() {
        // Integer-valued columns so the view's categorical discretization
        // reproduces the hand-coded codes exactly.
        let n = 600;
        let mut s = 13u64;
        let z: Vec<usize> = (0..n).map(|_| (lcg(&mut s) > 0.0) as usize).collect();
        let x: Vec<usize> = z
            .iter()
            .map(|&v| if lcg(&mut s).abs() < 0.1 { 1 - v } else { v })
            .collect();
        let y: Vec<usize> = z
            .iter()
            .map(|&v| if lcg(&mut s).abs() < 0.1 { 1 - v } else { v })
            .collect();
        let owned = GTest::new(vec![x.clone(), y.clone(), z.clone()], vec![2, 2, 2]);
        let cols: Vec<Vec<f64>> = [&x, &y, &z]
            .iter()
            .map(|c| c.iter().map(|&v| v as f64).collect())
            .collect();
        let view = DataView::from_columns(&cols);
        let cached = GTest::from_view(&view, 5, 8);
        for (a, b, zc) in [(0, 1, vec![]), (0, 1, vec![2]), (0, 2, vec![1])] {
            let o = owned.test(a, b, &zc);
            let v = cached.test(a, b, &zc);
            assert_eq!(o.statistic.to_bits(), v.statistic.to_bits());
            assert_eq!(o.p_value.to_bits(), v.p_value.to_bits());
        }
    }
}
