//! Rank transforms and set-similarity measures used by the evaluation
//! metrics (§6 of the paper).

use std::collections::BTreeSet;

/// Tie-averaged ranks (1-based), as used by Spearman correlation.
pub fn ranks_with_ties(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in ranks"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Weighted Jaccard similarity, the paper's accuracy metric (§6):
/// `Σ w(A∩B) / Σ w(A∪B)` where `w` maps each element to its weight (the
/// ground-truth average causal effect of the option on the objective).
/// Elements missing from `weight` contribute a small floor so that
/// recommending an option with zero ground-truth effect still dilutes the
/// union.
pub fn weighted_jaccard(
    a: &BTreeSet<usize>,
    b: &BTreeSet<usize>,
    weight: &dyn Fn(usize) -> f64,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    const FLOOR: f64 = 1e-9;
    let inter: f64 = a.intersection(b).map(|&e| weight(e).max(FLOOR)).sum();
    let union: f64 = a.union(b).map(|&e| weight(e).max(FLOOR)).sum();
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Precision of predicted set `pred` against truth `truth`:
/// |pred ∩ truth| / |pred| (in percent-friendly 0–1).
pub fn precision(pred: &BTreeSet<usize>, truth: &BTreeSet<usize>) -> f64 {
    if pred.is_empty() {
        return 0.0;
    }
    pred.intersection(truth).count() as f64 / pred.len() as f64
}

/// Recall of predicted set `pred` against truth `truth`:
/// |pred ∩ truth| / |truth|.
pub fn recall(pred: &BTreeSet<usize>, truth: &BTreeSet<usize>) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    pred.intersection(truth).count() as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(xs: &[usize]) -> BTreeSet<usize> {
        xs.iter().copied().collect()
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks_with_ties(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn weighted_jaccard_weights_dominate() {
        // Heavy overlap element dominates a light disjoint one.
        let w = |e: usize| if e == 1 { 10.0 } else { 0.1 };
        let sim = weighted_jaccard(&set(&[1, 2]), &set(&[1, 3]), &w);
        // inter = 10, union = 10 + 0.1 + 0.1.
        assert!((sim - 10.0 / 10.2).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_basic() {
        let p = set(&[1, 2, 3, 4]);
        let t = set(&[3, 4, 5]);
        assert!((precision(&p, &t) - 0.5).abs() < 1e-12);
        assert!((recall(&p, &t) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(precision(&set(&[]), &t), 0.0);
        assert_eq!(recall(&p, &set(&[])), 1.0);
    }
}
