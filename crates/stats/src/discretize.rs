//! Discretization of continuous columns into integer codes, needed by the
//! discrete independence tests and by entropic causal discovery.

/// A fitted discretizer for one column.
#[derive(Debug, Clone)]
pub enum Discretizer {
    /// The column already had few distinct values; each distinct value maps
    /// to its own code (sorted order).
    Categorical { values: Vec<f64> },
    /// Equal-frequency bins described by their internal cut points.
    Quantile { cuts: Vec<f64> },
}

impl Discretizer {
    /// Fits a discretizer: if the column has at most `max_levels` distinct
    /// values it is treated as categorical, otherwise equal-frequency
    /// binning into `bins` buckets is used.
    pub fn fit(xs: &[f64], bins: usize, max_levels: usize) -> Self {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in discretize"));
        Self::fit_sorted(&sorted, bins, max_levels)
    }

    /// [`Discretizer::fit`] over an already ascending-sorted column. The
    /// fit depends only on the value multiset, so this produces exactly
    /// the discretizer `fit` would — callers holding sorted runs (the
    /// segmented `DataView`) skip the O(n log n) re-sort.
    pub fn fit_sorted(sorted: &[f64], bins: usize, max_levels: usize) -> Self {
        assert!(bins >= 2, "need at least two bins");
        debug_assert!(sorted.is_sorted_by(|a, b| a <= b), "input not sorted");
        let mut distinct: Vec<f64> = sorted.to_vec();
        distinct.dedup();
        if distinct.len() <= max_levels {
            return Discretizer::Categorical { values: distinct };
        }
        let n = sorted.len();
        let mut cuts = Vec::with_capacity(bins - 1);
        for b in 1..bins {
            let pos = b * n / bins;
            let cut = sorted[pos.min(n - 1)];
            // Skip duplicate cut points arising from heavy ties.
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
        Discretizer::Quantile { cuts }
    }

    /// [`Discretizer::fit`] over per-segment ascending sorted **runs**
    /// without ever materializing the merged column. The categorical
    /// check gallops across the runs collecting distinct values and bails
    /// out as soon as more than `max_levels` are seen; each quantile cut
    /// is extracted as a multi-run order statistic
    /// (`kth_of_runs`) — O(bins · runs · log² run) selection instead of
    /// the O(n log runs) merge-then-index rescan. The fit depends only on
    /// the value multiset, so the result is identical to
    /// [`Discretizer::fit_sorted`] on the merged column (asserted by
    /// `fit_runs_matches_rescan`).
    pub fn fit_runs(runs: &[&[f64]], bins: usize, max_levels: usize) -> Self {
        assert!(bins >= 2, "need at least two bins");
        debug_assert!(
            runs.iter().all(|r| r.is_sorted_by(|a, b| a <= b)),
            "run not sorted"
        );
        let n: usize = runs.iter().map(|r| r.len()).sum();
        if let Some(values) = distinct_of_runs(runs, max_levels) {
            return Discretizer::Categorical { values };
        }
        let mut cuts = Vec::with_capacity(bins - 1);
        for b in 1..bins {
            let pos = b * n / bins;
            let cut = kth_of_runs(runs, pos.min(n - 1));
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
        Discretizer::Quantile { cuts }
    }

    /// Number of output codes.
    pub fn arity(&self) -> usize {
        match self {
            Discretizer::Categorical { values } => values.len().max(1),
            Discretizer::Quantile { cuts } => cuts.len() + 1,
        }
    }

    /// Maps one value to its code.
    pub fn code(&self, x: f64) -> usize {
        match self {
            Discretizer::Categorical { values } => values
                .iter()
                .position(|&v| (v - x).abs() < 1e-12 || v >= x)
                .unwrap_or(values.len().saturating_sub(1)),
            Discretizer::Quantile { cuts } => cuts.iter().take_while(|&&c| x > c).count(),
        }
    }

    /// Maps a whole column.
    pub fn transform(&self, xs: &[f64]) -> Vec<usize> {
        xs.iter().map(|&x| self.code(x)).collect()
    }
}

/// The sorted distinct values of the union of ascending runs, or `None`
/// once more than `max_levels` distinct values are seen. Galloping: after
/// emitting a value, every run's cursor jumps past its copies with a
/// binary search, so the cost is O(max_levels · runs · log run) — never a
/// full merge.
fn distinct_of_runs(runs: &[&[f64]], max_levels: usize) -> Option<Vec<f64>> {
    let mut cursors = vec![0usize; runs.len()];
    let mut distinct = Vec::new();
    loop {
        let mut cur: Option<f64> = None;
        for (r, &c) in runs.iter().zip(&cursors) {
            if c < r.len() && cur.is_none_or(|m| r[c] < m) {
                cur = Some(r[c]);
            }
        }
        let Some(cur) = cur else {
            return Some(distinct);
        };
        if distinct.len() >= max_levels {
            return None;
        }
        distinct.push(cur);
        for (r, c) in runs.iter().zip(&mut cursors) {
            *c += r[*c..].partition_point(|&x| x <= cur);
        }
    }
}

/// The `k`-th (0-based) order statistic of the union of ascending sorted
/// runs — the value `merged_sorted[k]` would hold — found by pivoted rank
/// counting instead of merging. Each round picks the middle element of the
/// largest surviving candidate range as the pivot, counts the union's
/// `< pivot` / `≤ pivot` ranks with per-run binary searches, and either
/// answers (the rank interval straddles `k`) or discards one side of the
/// pivot run's range. The pivot range at least halves per round, so the
/// whole selection is O(runs · log² max_run); every copy of the answer
/// value survives narrowing, so a pivot eventually lands on it.
///
/// # Panics
///
/// Panics if `k` is out of range of the union's length.
fn kth_of_runs(runs: &[&[f64]], k: usize) -> f64 {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert!(k < total, "order statistic {k} out of range {total}");
    // Surviving candidate range per run (the answer always lies inside).
    let mut lo = vec![0usize; runs.len()];
    let mut hi: Vec<usize> = runs.iter().map(|r| r.len()).collect();
    loop {
        let (ri, span) = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| h - l)
            .enumerate()
            .max_by_key(|&(_, s)| s)
            .expect("at least one run");
        debug_assert!(span > 0, "candidate set exhausted before rank {k}");
        let pivot = runs[ri][(lo[ri] + hi[ri]) / 2];
        let mut lt = 0usize;
        let mut le = 0usize;
        for r in runs {
            lt += r.partition_point(|&x| x < pivot);
            le += r.partition_point(|&x| x <= pivot);
        }
        if k < lt {
            // Answer < pivot: drop candidates ≥ pivot.
            for ((r, l), h) in runs.iter().zip(&lo).zip(&mut hi) {
                *h = (*h).min(r.partition_point(|&x| x < pivot)).max(*l);
            }
        } else if k < le {
            return pivot;
        } else {
            // Answer > pivot: drop candidates ≤ pivot.
            for ((r, l), &h) in runs.iter().zip(&mut lo).zip(&hi) {
                *l = (*l).max(r.partition_point(|&x| x <= pivot)).min(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_passthrough() {
        let xs = [1.0, 3.0, 1.0, 3.0, 2.0];
        let d = Discretizer::fit(&xs, 4, 8);
        assert_eq!(d.arity(), 3);
        assert_eq!(d.transform(&xs), vec![0, 2, 0, 2, 1]);
    }

    #[test]
    fn quantile_bins_roughly_balanced() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = Discretizer::fit(&xs, 4, 8);
        assert_eq!(d.arity(), 4);
        let codes = d.transform(&xs);
        let mut counts = [0usize; 4];
        for c in codes {
            counts[c] += 1;
        }
        for c in counts {
            assert!((20..=30).contains(&c), "unbalanced bin: {c}");
        }
    }

    #[test]
    fn heavy_ties_collapse_cuts() {
        // 90% of mass at a single value: fewer effective bins, no panic.
        let mut xs = vec![5.0; 90];
        xs.extend((0..10).map(|i| i as f64));
        let d = Discretizer::fit(&xs, 5, 4);
        assert!(d.arity() >= 2);
        let codes = d.transform(&xs);
        assert!(codes.iter().all(|&c| c < d.arity()));
    }

    /// Splits a column into sorted runs the way the segmented view does
    /// (fixed-size chunks, each sorted), without depending on `dataview`.
    fn runs_of(xs: &[f64], chunk: usize) -> Vec<Vec<f64>> {
        xs.chunks(chunk)
            .map(|c| {
                let mut r = c.to_vec();
                r.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
                r
            })
            .collect()
    }

    #[test]
    fn fit_runs_matches_rescan() {
        // Shapes covering both discretizer variants, heavy ties, tiny and
        // chunk-straddling columns.
        let mut s = 77u64;
        let columns: Vec<Vec<f64>> = vec![
            (0..257).map(|i| (i % 3) as f64).collect(),
            (0..100).map(|i| (i as f64).sin() * 10.0).collect(),
            {
                let mut xs = vec![5.0; 90];
                xs.extend((0..10).map(|i| i as f64));
                xs
            },
            (0..200)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0
                })
                .collect(),
            vec![1.0, 2.0],
        ];
        for xs in &columns {
            for chunk in [7usize, 64, 1000] {
                for (bins, max_levels) in [(4usize, 8usize), (5, 4), (2, 2), (8, 16)] {
                    let runs = runs_of(xs, chunk);
                    let run_refs: Vec<&[f64]> = runs.iter().map(Vec::as_slice).collect();
                    let from_runs = Discretizer::fit_runs(&run_refs, bins, max_levels);
                    let rescan = Discretizer::fit(xs, bins, max_levels);
                    match (&from_runs, &rescan) {
                        (
                            Discretizer::Categorical { values: a },
                            Discretizer::Categorical { values: b },
                        ) => {
                            let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                            let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(ab, bb, "categorical values diverged");
                        }
                        (Discretizer::Quantile { cuts: a }, Discretizer::Quantile { cuts: b }) => {
                            let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                            let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(ab, bb, "cuts diverged (chunk {chunk}, bins {bins})");
                        }
                        other => panic!("variant diverged: {other:?}"),
                    }
                    assert_eq!(from_runs.transform(xs), rescan.transform(xs));
                }
            }
        }
    }

    #[test]
    fn kth_of_runs_selects_merged_order_statistics() {
        let xs: Vec<f64> = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]
            .into_iter()
            .cycle()
            .take(97)
            .collect();
        let runs = runs_of(&xs, 13);
        let run_refs: Vec<&[f64]> = runs.iter().map(Vec::as_slice).collect();
        let mut merged = xs.clone();
        merged.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (k, &expected) in merged.iter().enumerate() {
            assert_eq!(
                kth_of_runs(&run_refs, k).to_bits(),
                expected.to_bits(),
                "order statistic {k}"
            );
        }
    }

    #[test]
    fn codes_are_monotone_in_value() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let d = Discretizer::fit(&xs, 5, 4);
        let mut pairs: Vec<(f64, usize)> = xs.iter().map(|&x| (x, d.code(x))).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}
