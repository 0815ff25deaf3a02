//! Immutable column segments — the storage unit of the chunked
//! [`crate::dataview::DataView`].
//!
//! A segment holds up to [`MOMENT_CHUNK`] rows of every column, plus a
//! lazily computed, `Arc`-shared summary of the canonical per-column and
//! cross-column moments defined in [`crate::descriptive`]. Segmentation is
//! *canonical in the row count*: segment `k` always covers rows
//! `[k·MOMENT_CHUNK, (k+1)·MOMENT_CHUNK)`, regardless of the append
//! schedule that produced the view. Appends therefore share every sealed
//! (full) segment by `Arc` bump and rebuild only the trailing partial
//! segment — O(new rows) — while any two views over the same rows agree on
//! segment boundaries, which is what makes incrementally merged statistics
//! bit-identical to a cold recomputation.

use std::sync::{Arc, OnceLock};

use crate::descriptive::{chunk_comoment_lanes, ColMoments, MOMENT_CHUNK};

/// Index of the pair `(i, j)` with `i < j` in a packed upper triangle over
/// `p` columns (row-major: all pairs of row 0 first).
pub fn pair_index(i: usize, j: usize, p: usize) -> usize {
    debug_assert!(i < j && j < p);
    i * p - i * (i + 1) / 2 + (j - i - 1)
}

/// Number of packed pairs over `p` columns (0 for `p` of 0 or 1).
pub fn n_pairs(p: usize) -> usize {
    p * p.saturating_sub(1) / 2
}

/// Fills the packed upper-triangle cross comoments of one chunk: for every
/// pair `(i, j)`, `cross[pair_index(i, j, p)] = Σ (xᵢ − mᵢ)(xⱼ − mⱼ)` over
/// the chunk's rows. Walks the triangle anchor-by-anchor — pairs `(i, ·)`
/// are contiguous in the packed layout — handing each anchor's partner
/// block to the lane-blocked kernel, so every pair's accumulation stays
/// bit-identical to [`crate::descriptive::chunk_comoment`] while up to
/// eight pairs advance per row. Shared by
/// [`Segment::stats`] (the cached path) and
/// [`crate::correlation::correlation_matrix`] (the direct path), so the
/// two stay bit-identical by construction.
pub fn chunk_cross_comoments(cols: &[&[f64]], means: &[f64], cross: &mut [f64]) {
    let p = cols.len();
    debug_assert_eq!(means.len(), p);
    debug_assert_eq!(cross.len(), n_pairs(p));
    for i in 0..p.saturating_sub(1) {
        let lo = pair_index(i, i + 1, p);
        let hi = lo + (p - 1 - i);
        chunk_comoment_lanes(
            cols[i],
            means[i],
            &cols[i + 1..],
            &means[i + 1..],
            &mut cross[lo..hi],
        );
    }
}

/// Per-segment sufficient statistics: one [`ColMoments`] per column and the
/// packed upper triangle of cross-column comoments
/// `C2(i, j) = Σ (xᵢ − meanᵢ)(xⱼ − meanⱼ)` over the segment's rows.
#[derive(Debug, Clone)]
pub struct SegmentStats {
    /// Per-column chunk moments.
    pub cols: Vec<ColMoments>,
    /// Packed `C2` upper triangle (see [`pair_index`]).
    pub cross: Vec<f64>,
}

/// One immutable chunk of rows across all columns.
#[derive(Debug)]
pub struct Segment {
    cols: Vec<Vec<f64>>,
    rows: usize,
    stats: OnceLock<SegmentStats>,
    /// Per-column sorted runs, computed lazily (the quantile-discretizer
    /// substrate: a grown view merges cached runs instead of re-sorting
    /// the full column).
    sorted: Vec<OnceLock<Arc<Vec<f64>>>>,
}

impl Segment {
    /// Builds a segment from column-major data (`cols[column][row]`); all
    /// columns must share one length of at most [`MOMENT_CHUNK`] rows.
    pub fn new(cols: Vec<Vec<f64>>) -> Self {
        let rows = cols.first().map_or(0, Vec::len);
        debug_assert!(rows <= MOMENT_CHUNK, "segment over capacity");
        debug_assert!(cols.iter().all(|c| c.len() == rows), "ragged segment");
        let sorted = (0..cols.len()).map(|_| OnceLock::new()).collect();
        Self {
            cols,
            rows,
            stats: OnceLock::new(),
            sorted,
        }
    }

    /// Rows stored in this segment.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the segment holds a full [`MOMENT_CHUNK`] of rows.
    pub fn is_sealed(&self) -> bool {
        self.rows == MOMENT_CHUNK
    }

    /// One column of this segment.
    pub fn col(&self, i: usize) -> &[f64] {
        &self.cols[i]
    }

    /// The column-major data (used when rebuilding the partial tail).
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.cols
    }

    /// Column `i`'s values in ascending order, computed once and shared by
    /// every view holding this segment.
    ///
    /// # Panics
    ///
    /// Panics if the column contains NaN.
    pub fn sorted_col(&self, i: usize) -> &Arc<Vec<f64>> {
        self.sorted[i].get_or_init(|| {
            let mut v = self.cols[i].clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sorted column"));
            Arc::new(v)
        })
    }

    /// Approximate resident bytes of this segment: raw column data plus
    /// whatever lazy state has materialized (sorted runs, the moment
    /// summary). Cheap introspection for memory-budget accounting — the
    /// raw-data term is exact, the lazy terms count payloads only.
    pub fn approx_bytes(&self) -> usize {
        let f64s = std::mem::size_of::<f64>();
        let mut bytes = self.cols.len() * self.rows * f64s;
        bytes += self.sorted.iter().filter(|s| s.get().is_some()).count() * self.rows * f64s;
        if let Some(st) = self.stats.get() {
            bytes += st.cols.len() * std::mem::size_of::<ColMoments>() + st.cross.len() * f64s;
        }
        bytes
    }

    /// The segment's moment summary, computed once and shared by every view
    /// holding this segment.
    pub fn stats(&self) -> &SegmentStats {
        self.stats.get_or_init(|| {
            let p = self.cols.len();
            let cols: Vec<ColMoments> = self.cols.iter().map(|c| ColMoments::of_chunk(c)).collect();
            let slices: Vec<&[f64]> = self.cols.iter().map(Vec::as_slice).collect();
            let means: Vec<f64> = cols.iter().map(|m| m.mean).collect();
            let mut cross = vec![0.0; n_pairs(p)];
            chunk_cross_comoments(&slices, &means, &mut cross);
            SegmentStats { cols, cross }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{column_moments, merge_col_moments};

    #[test]
    fn pair_index_is_a_bijection() {
        let p = 7;
        let mut seen = vec![false; n_pairs(p)];
        for i in 0..p {
            for j in (i + 1)..p {
                let k = pair_index(i, j, p);
                assert!(!seen[k], "collision at ({i},{j})");
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn segment_stats_match_canonical_moments() {
        let n = MOMENT_CHUNK - 5;
        let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let ys: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let seg = Segment::new(vec![xs.clone(), ys]);
        let st = seg.stats();
        // A single chunk's segment moments equal the canonical column fold.
        assert_eq!(st.cols[0], column_moments(&xs));
        assert_eq!(st.cols.len(), 2);
        assert_eq!(st.cross.len(), 1);
    }

    #[test]
    fn approx_bytes_grows_with_lazy_state() {
        let n = 64;
        let seg = Segment::new(vec![
            (0..n).map(|i| i as f64).collect(),
            (0..n).map(|i| (i as f64).cos()).collect(),
        ]);
        let raw = seg.approx_bytes();
        assert_eq!(raw, 2 * n * std::mem::size_of::<f64>());
        let _ = seg.sorted_col(0);
        let with_sorted = seg.approx_bytes();
        assert_eq!(with_sorted, raw + n * std::mem::size_of::<f64>());
        let _ = seg.stats();
        assert!(seg.approx_bytes() > with_sorted);
    }

    #[test]
    fn sealed_segment_merge_reproduces_full_column() {
        // Two sealed segments merged in order equal the canonical moments
        // of the concatenated column, bit for bit.
        let full: Vec<f64> = (0..2 * MOMENT_CHUNK)
            .map(|i| (i as f64) * 0.7 - 3.0)
            .collect();
        let a = Segment::new(vec![full[..MOMENT_CHUNK].to_vec()]);
        let b = Segment::new(vec![full[MOMENT_CHUNK..].to_vec()]);
        let merged = merge_col_moments(a.stats().cols[0], b.stats().cols[0]);
        let direct = column_moments(&full);
        assert_eq!(merged.n, direct.n);
        assert_eq!(merged.mean.to_bits(), direct.mean.to_bits());
        assert_eq!(merged.m2.to_bits(), direct.m2.to_bits());
    }
}
