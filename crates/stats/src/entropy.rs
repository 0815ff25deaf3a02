//! Plug-in entropy and mutual-information estimators over discrete
//! (integer-coded) data.
//!
//! All entropies are in **bits** (log base 2), matching the entropic causal
//! inference literature the paper builds on (Kocaoglu et al., AAAI'17).
//!
//! # Dense contingency kernels
//!
//! [`mutual_information`] and [`conditional_mutual_information`] — the
//! G-test hot path of Stage II discovery — accumulate their contingency
//! tables as flat structure-of-arrays count vectors indexed by the
//! precomputed integer codes (`counts[x·|Y| + y] += 1`), not as per-row
//! tree/hash probes. A dense table iterated in **ascending code order**
//! visits exactly the key sequence a `BTreeMap` fold visits (absent keys
//! are zero-count cells, skipped on both paths), so every entropy term and
//! every stratum fold is performed in the identical order with identical
//! operands — the dense kernels are bit-identical to the sparse reference
//! folds ([`mutual_information_sparse`],
//! [`conditional_mutual_information_sparse`]), which remain the fallback
//! for degenerate code spaces (huge sparse code values) and the pin for
//! the equivalence proptests.

use std::collections::{BTreeMap, HashMap};

/// Exclusive upper bound of a code column (`max + 1`); 0 when empty.
fn code_bound(xs: &[usize]) -> usize {
    xs.iter().max().map_or(0, |&m| m + 1)
}

/// Whether a dense table of `cells` count cells is worth allocating for
/// `n` rows: bounded both absolutely (memory) and relative to the row
/// count (a table much larger than the sample would spend longer zeroing
/// and scanning cells than the sparse fold spends probing).
fn dense_feasible(cells: Option<usize>, n: usize) -> bool {
    const DENSE_CELL_BUDGET: usize = 1 << 22;
    match cells {
        Some(c) => c <= DENSE_CELL_BUDGET && c <= 16 * n.max(256),
        None => false,
    }
}

/// Entropy of a dense count vector in ascending code order: the exact
/// term sequence of [`entropy`]'s BTreeMap fold (zero cells are skipped,
/// as absent keys are).
fn entropy_from_counts(counts: &[u32], n: f64) -> f64 {
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Shannon entropy of a probability vector (entries may include zeros;
/// they contribute nothing).
pub fn entropy_of_dist(p: &[f64]) -> f64 {
    p.iter()
        .filter(|&&pi| pi > 0.0)
        .map(|&pi| -pi * pi.log2())
        .sum()
}

/// Plug-in entropy of an integer-coded sample.
pub fn entropy(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for &x in xs {
        *counts.entry(x).or_insert(0) += 1;
    }
    let n = xs.len() as f64;
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Joint entropy H(X, Y) of two integer-coded samples.
pub fn joint_entropy(xs: &[usize], ys: &[usize]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    if xs.is_empty() {
        return 0.0;
    }
    let mut counts: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (&x, &y) in xs.iter().zip(ys) {
        *counts.entry((x, y)).or_insert(0) += 1;
    }
    let n = xs.len() as f64;
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Mutual information I(X; Y) = H(X) + H(Y) − H(X, Y); clamped at 0 to
/// absorb floating-point negatives.
///
/// Uses the dense contingency kernel (see the module docs) when the code
/// space is small enough, the sparse fold otherwise — both produce
/// identical bits.
pub fn mutual_information(xs: &[usize], ys: &[usize]) -> f64 {
    if xs.is_empty() {
        assert_eq!(xs.len(), ys.len(), "length mismatch");
        return 0.0;
    }
    mutual_information_bounded(xs, ys, code_bound(xs), code_bound(ys))
}

/// [`mutual_information`] with caller-supplied code bounds (`x < nx` and
/// `y < ny` for every row), skipping the per-call `max`-scans over the
/// code columns. Callers holding cached discretization arities (the
/// G-test CI backends) pass them straight through. Any valid upper bound
/// produces identical bits: oversized bounds only add zero-count cells,
/// which both the dense ascending-code folds and the sparse BTreeMap
/// folds skip — at worst the dense/sparse dispatch flips, and those two
/// paths are bit-identical by construction (module docs).
pub fn mutual_information_bounded(xs: &[usize], ys: &[usize], nx: usize, ny: usize) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    if xs.is_empty() {
        return 0.0;
    }
    debug_assert!(xs.iter().all(|&x| x < nx), "x code out of bound");
    debug_assert!(ys.iter().all(|&y| y < ny), "y code out of bound");
    if !dense_feasible(nx.checked_mul(ny), xs.len()) {
        return mutual_information_sparse(xs, ys);
    }
    let mut joint = vec![0u32; nx * ny];
    for (&x, &y) in xs.iter().zip(ys) {
        joint[x * ny + y] += 1;
    }
    // Marginals from integer row/column sums (counts are exact, so the
    // summation order is immaterial here — only the float folds below
    // must stay ordered).
    let mut cx = vec![0u32; nx];
    let mut cy = vec![0u32; ny];
    for x in 0..nx {
        let row = &joint[x * ny..(x + 1) * ny];
        for (cyk, &c) in cy.iter_mut().zip(row) {
            cx[x] += c;
            *cyk += c;
        }
    }
    let n = xs.len() as f64;
    let hx = entropy_from_counts(&cx, n);
    let hy = entropy_from_counts(&cy, n);
    // Ascending joint index = lexicographic (x, y) = the BTreeMap tuple
    // key order of `joint_entropy`.
    let hxy = entropy_from_counts(&joint, n);
    (hx + hy - hxy).max(0.0)
}

/// The sparse (BTreeMap-fold) reference of [`mutual_information`]: the
/// original definition, kept as the fallback for degenerate code spaces
/// and as the pin the dense kernel's equivalence proptests compare
/// against.
pub fn mutual_information_sparse(xs: &[usize], ys: &[usize]) -> f64 {
    (entropy(xs) + entropy(ys) - joint_entropy(xs, ys)).max(0.0)
}

/// Conditional mutual information I(X; Y | Z) for an integer-coded
/// conditioning column: `Σ_z p(z) · I(X; Y | Z = z)`.
///
/// Uses one dense `|Z| × |X| × |Y|` count array filled in a single pass
/// over the precomputed code lanes when the code space is small enough
/// (see the module docs), the per-stratum sparse fold otherwise — both
/// produce identical bits: strata are visited in ascending z order, and
/// each stratum's marginal/joint entropy terms fold in ascending code
/// order, exactly as the BTreeMap path does.
pub fn conditional_mutual_information(xs: &[usize], ys: &[usize], zs: &[usize]) -> f64 {
    if xs.is_empty() {
        assert!(
            xs.len() == ys.len() && ys.len() == zs.len(),
            "length mismatch"
        );
        return 0.0;
    }
    conditional_mutual_information_bounded(
        xs,
        ys,
        zs,
        code_bound(xs),
        code_bound(ys),
        code_bound(zs),
    )
}

/// [`conditional_mutual_information`] with caller-supplied code bounds
/// (`x < nx`, `y < ny`, `z < nz` for every row), skipping the per-call
/// `max`-scans. Same bit-identity contract as
/// [`mutual_information_bounded`]: any valid upper bound yields the same
/// bits, since zero-count cells and empty strata are skipped on every
/// path.
pub fn conditional_mutual_information_bounded(
    xs: &[usize],
    ys: &[usize],
    zs: &[usize],
    nx: usize,
    ny: usize,
    nz: usize,
) -> f64 {
    assert!(
        xs.len() == ys.len() && ys.len() == zs.len(),
        "length mismatch"
    );
    if xs.is_empty() {
        return 0.0;
    }
    debug_assert!(xs.iter().all(|&x| x < nx), "x code out of bound");
    debug_assert!(ys.iter().all(|&y| y < ny), "y code out of bound");
    debug_assert!(zs.iter().all(|&z| z < nz), "z code out of bound");
    let cells = nx.checked_mul(ny).and_then(|c| c.checked_mul(nz));
    if !dense_feasible(cells, xs.len()) {
        return conditional_mutual_information_sparse(xs, ys, zs);
    }
    let stride = nx * ny;
    let mut counts = vec![0u32; nz * stride];
    for i in 0..xs.len() {
        counts[zs[i] * stride + xs[i] * ny + ys[i]] += 1;
    }
    let n = xs.len() as f64;
    let mut cx = vec![0u32; nx];
    let mut cy = vec![0u32; ny];
    let mut total = 0.0;
    for z in 0..nz {
        let stratum = &counts[z * stride..(z + 1) * stride];
        cx.fill(0);
        cy.fill(0);
        let mut rows: u64 = 0;
        for x in 0..nx {
            let row = &stratum[x * ny..(x + 1) * ny];
            for (cyk, &c) in cy.iter_mut().zip(row) {
                cx[x] += c;
                *cyk += c;
                rows += c as u64;
            }
        }
        if rows == 0 {
            // An empty stratum has no key in the sparse fold either.
            continue;
        }
        let nzf = rows as f64;
        let hx = entropy_from_counts(&cx, nzf);
        let hy = entropy_from_counts(&cy, nzf);
        let hxy = entropy_from_counts(stratum, nzf);
        total += (nzf / n) * (hx + hy - hxy).max(0.0);
    }
    total
}

/// The sparse (stratified BTreeMap) reference of
/// [`conditional_mutual_information`]: the original definition, kept as
/// the fallback for degenerate code spaces and as the equivalence-proptest
/// pin.
pub fn conditional_mutual_information_sparse(xs: &[usize], ys: &[usize], zs: &[usize]) -> f64 {
    assert!(
        xs.len() == ys.len() && ys.len() == zs.len(),
        "length mismatch"
    );
    if xs.is_empty() {
        return 0.0;
    }
    let mut strata: BTreeMap<usize, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for i in 0..xs.len() {
        let entry = strata.entry(zs[i]).or_default();
        entry.0.push(xs[i]);
        entry.1.push(ys[i]);
    }
    let n = xs.len() as f64;
    strata
        .values()
        .map(|(sx, sy)| (sx.len() as f64 / n) * mutual_information_sparse(sx, sy))
        .sum()
}

/// Combines several integer-coded columns into a single stratum code, for
/// use as a joint conditioning variable. Codes are assigned in first-seen
/// order, so the result is deterministic for a given row order.
pub fn joint_code(columns: &[&[usize]], n: usize) -> Vec<usize> {
    joint_code_counted(columns, n).0
}

/// [`joint_code`] returning the distinct stratum count alongside the
/// codes. First-seen codes are contiguous from 0, so the count is also
/// the exclusive code bound — callers can feed it straight to
/// [`conditional_mutual_information_bounded`] without rescanning.
pub fn joint_code_counted(columns: &[&[usize]], n: usize) -> (Vec<usize>, usize) {
    let mut codes: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let key: Vec<usize> = columns.iter().map(|c| c[i]).collect();
        let next = codes.len();
        out.push(*codes.entry(key).or_insert(next));
    }
    let distinct = codes.len();
    (out, distinct)
}

/// Empirical conditional distributions p(Y | X = x) as a map from x-code to
/// a probability vector over y-codes `0..y_arity`.
pub fn conditionals(xs: &[usize], ys: &[usize], y_arity: usize) -> BTreeMap<usize, Vec<f64>> {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    let mut counts: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (&x, &y) in xs.iter().zip(ys) {
        let row = counts.entry(x).or_insert_with(|| vec![0.0; y_arity]);
        row[y.min(y_arity - 1)] += 1.0;
    }
    for row in counts.values_mut() {
        let total: f64 = row.iter().sum();
        if total > 0.0 {
            for v in row.iter_mut() {
                *v /= total;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_uniform_and_degenerate() {
        assert!((entropy(&[0, 1, 0, 1]) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(&[7, 7, 7]), 0.0);
        let h4 = entropy(&[0, 1, 2, 3]);
        assert!((h4 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mi_of_identical_is_entropy() {
        let xs = [0, 1, 2, 0, 1, 2];
        let mi = mutual_information(&xs, &xs);
        assert!((mi - entropy(&xs)).abs() < 1e-12);
    }

    #[test]
    fn mi_of_independent_is_zero() {
        // Fully crossed design: X and Y independent.
        let xs = [0, 0, 1, 1];
        let ys = [0, 1, 0, 1];
        assert!(mutual_information(&xs, &ys).abs() < 1e-12);
    }

    #[test]
    fn cmi_detects_conditional_independence() {
        // X and Y both copies of Z: dependent marginally, independent
        // given Z.
        let zs = [0, 0, 1, 1, 0, 1, 0, 1];
        let xs = zs;
        let ys = zs;
        assert!(mutual_information(&xs, &ys) > 0.9);
        assert!(conditional_mutual_information(&xs, &ys, &zs).abs() < 1e-12);
    }

    #[test]
    fn bounded_variants_match_scanned_bounds_bitwise() {
        let xs = [0usize, 2, 1, 2, 0, 1, 2, 0];
        let ys = [1usize, 0, 1, 2, 2, 0, 1, 2];
        let zs = [0usize, 1, 0, 1, 1, 0, 0, 1];
        let mi = mutual_information(&xs, &ys);
        // Exact and oversized bounds both reproduce the scanned result
        // bit for bit (extra cells are zero-count and skipped).
        assert_eq!(
            mi.to_bits(),
            mutual_information_bounded(&xs, &ys, 3, 3).to_bits()
        );
        assert_eq!(
            mi.to_bits(),
            mutual_information_bounded(&xs, &ys, 7, 5).to_bits()
        );
        let cmi = conditional_mutual_information(&xs, &ys, &zs);
        assert_eq!(
            cmi.to_bits(),
            conditional_mutual_information_bounded(&xs, &ys, &zs, 3, 3, 2).to_bits()
        );
        assert_eq!(
            cmi.to_bits(),
            conditional_mutual_information_bounded(&xs, &ys, &zs, 6, 4, 3).to_bits()
        );
    }

    #[test]
    fn joint_code_distinguishes_combinations() {
        let a = [0usize, 0, 1, 1];
        let b = [0usize, 1, 0, 1];
        let code = joint_code(&[&a, &b], 4);
        // Four distinct combinations → four distinct codes.
        let unique: std::collections::BTreeSet<_> = code.iter().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn conditionals_are_normalized() {
        let xs = [0, 0, 0, 1, 1];
        let ys = [0, 0, 1, 1, 1];
        let c = conditionals(&xs, &ys, 2);
        for row in c.values() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        assert!((c[&0][0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c[&1][1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_dist_matches_sample_entropy() {
        let h = entropy_of_dist(&[0.5, 0.25, 0.25]);
        assert!((h - 1.5).abs() < 1e-12);
    }
}
