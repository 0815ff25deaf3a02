//! Entropic pairwise causal direction (Kocaoglu et al., AAAI'17), used by
//! the paper to resolve edges FCI leaves partially oriented (§4, "if such a
//! latent variable does not exist, then pick the direction which has the
//! lowest entropy").
//!
//! The principle: if `X → Y`, then `Y = f(X, E)` for an exogenous `E ⊥ X`,
//! and the "simplest" explanation is the one whose exogenous variable has
//! minimal Shannon entropy. The minimal `H(E)` consistent with the observed
//! conditionals `{p(Y | X = x)}ₓ` is the minimum-entropy coupling of those
//! conditionals, which the greedy algorithm below 2-approximates.

use std::collections::BTreeMap;

use unicorn_stats::entropy::{conditionals, entropy_of_dist};

/// Direction decision for a pair of variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// First variable causes the second.
    Forward,
    /// Second variable causes the first.
    Backward,
}

/// [`min_entropy_coupling_owned`] over borrowed rows.
#[cfg(test)]
fn min_entropy_coupling(rows: &[Vec<f64>]) -> f64 {
    min_entropy_coupling_owned(rows.to_vec())
}

/// Greedy minimum-entropy coupling: given the rows `p₁, …, pₘ` (each a
/// distribution over the same support), constructs a random variable `E`
/// such that each `pᵢ` can be produced as a deterministic function of `E`,
/// greedily assigning the largest remaining masses together. Takes
/// ownership of its working rows, so hot callers (which already hold
/// freshly-built conditionals) skip the copy.
///
/// Returns `H(E)` in bits.
fn min_entropy_coupling_owned(rows: Vec<Vec<f64>>) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let mut work: Vec<Vec<f64>> = rows;
    let mut atoms: Vec<f64> = Vec::new();
    let mut remaining = 1.0;
    // Each iteration peels `r = minᵢ maxⱼ workᵢⱼ` off the largest entry of
    // every row; the peeled mass forms one atom of E.
    while remaining > 1e-9 {
        let mut r = f64::INFINITY;
        let mut arg: Vec<usize> = Vec::with_capacity(work.len());
        for row in &work {
            let (j, &m) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN mass"))
                .expect("empty row");
            arg.push(j);
            r = r.min(m);
        }
        if r <= 1e-12 {
            break;
        }
        for (row, &j) in work.iter_mut().zip(&arg) {
            row[j] -= r;
        }
        atoms.push(r);
        remaining -= r;
    }
    // Normalize (guards against accumulated float error).
    let total: f64 = atoms.iter().sum();
    if total > 0.0 {
        for a in &mut atoms {
            *a /= total;
        }
    }
    entropy_of_dist(&atoms)
}

/// Estimated `H(E)` for the hypothesis `X → Y`: the minimum-entropy
/// coupling of the empirical conditionals `p(Y | X = x)`, with each row
/// weighted equally (the greedy coupling operates on the set of rows).
fn exogenous_entropy(x_codes: &[usize], y_codes: &[usize], y_arity: usize) -> f64 {
    let cond: BTreeMap<usize, Vec<f64>> = conditionals(x_codes, y_codes, y_arity);
    let rows: Vec<Vec<f64>> = cond.into_values().collect();
    min_entropy_coupling_owned(rows)
}

/// Picks the causal direction between two discretized variables by
/// comparing exogenous entropies: the direction with the lower `H(E)` is
/// the simpler generative story. Ties (within `tol` bits) default to
/// `Forward`, which callers break with structural information.
pub fn entropic_direction(
    x_codes: &[usize],
    y_codes: &[usize],
    x_arity: usize,
    y_arity: usize,
    tol: f64,
) -> (Direction, f64) {
    let h_fwd = exogenous_entropy(x_codes, y_codes, y_arity);
    let h_bwd = exogenous_entropy(y_codes, x_codes, x_arity);
    let gap = (h_fwd - h_bwd).abs();
    if h_fwd <= h_bwd + tol {
        (Direction::Forward, gap)
    } else {
        (Direction::Backward, gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupling_of_identical_rows_is_row_entropy() {
        // All conditionals equal ⇒ E can simply be that distribution.
        let rows = vec![vec![0.5, 0.5], vec![0.5, 0.5]];
        let h = min_entropy_coupling(&rows);
        assert!((h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coupling_of_deterministic_rows_is_zero() {
        // Each conditional is a point mass ⇒ Y = f(X), H(E) = 0.
        let rows = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let h = min_entropy_coupling(&rows);
        assert!(h < 1e-9, "H(E) = {h}");
    }

    #[test]
    fn coupling_upper_bounded_by_sum_of_entropies() {
        let rows = vec![vec![0.7, 0.3], vec![0.2, 0.8], vec![0.5, 0.5]];
        let h = min_entropy_coupling(&rows);
        let max_h: f64 = rows.iter().map(|r| entropy_of_dist(r)).sum();
        assert!(h >= 0.0 && h <= max_h + 1e-9);
        // And at least as large as the largest row entropy (coupling must
        // reproduce every row).
        let row_max = rows
            .iter()
            .map(|r| entropy_of_dist(r))
            .fold(0.0_f64, f64::max);
        assert!(h >= row_max - 1e-9);
    }

    #[test]
    fn direction_prefers_deterministic_function() {
        // Y = X mod 2 with X uniform over {0..3}: X → Y has H(E) = 0 while
        // Y → X needs a full bit of exogenous randomness.
        let x: Vec<usize> = (0..400).map(|i| i % 4).collect();
        let y: Vec<usize> = x.iter().map(|&v| v % 2).collect();
        let (dir, gap) = entropic_direction(&x, &y, 4, 2, 0.0);
        assert_eq!(dir, Direction::Forward);
        assert!(gap > 0.5, "gap = {gap}");
        let (rev, _) = entropic_direction(&y, &x, 2, 4, 0.0);
        assert_eq!(rev, Direction::Backward);
    }

    #[test]
    fn noisy_function_still_detected() {
        // Y = X with 10% uniform flips over 4 levels; X uniform. The
        // forward conditionals are near-deterministic, the backward ones
        // too (symmetric here), so use an asymmetric map: Y = floor(X/2).
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut state = 77u64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..2000 {
            let xi = i % 4;
            let yi = if lcg() < 0.05 { (xi + 1) % 2 } else { xi / 2 };
            x.push(xi);
            y.push(yi);
        }
        let (dir, _) = entropic_direction(&x, &y, 4, 2, 0.0);
        assert_eq!(dir, Direction::Forward);
    }
}
