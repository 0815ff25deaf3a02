//! The columnar data layer: an immutable, `Arc`-shared table of `f64`
//! columns carrying lazily-computed, cached sufficient statistics.
//!
//! Every layer of the pipeline (CI tests, skeleton search, entropic
//! resolution, SCM fitting, the active-learning loop) reads the same
//! observational sample thousands of times. A [`DataView`] computes each
//! statistic at most once per data epoch and shares it across clones:
//!
//! * per-column means / variances / standard deviations,
//! * the full Pearson correlation matrix (the Fisher-Z substrate),
//! * per-column discretizations keyed by `(bins, max_levels)`,
//! * an LRU of joint conditioning-set codes (the G-test contingency
//!   substrate) keyed by `(vars, bins, max_levels)`,
//! * an LRU of conditional-independence outcomes keyed by
//!   `(test kind, x, y, conditioning set)`.
//!
//! # Segmented storage
//!
//! Columns are stored as a sequence of immutable [`Segment`]s of
//! [`MOMENT_CHUNK`] rows each. Segmentation is canonical in the row count
//! (segment `k` always covers rows `[k·CHUNK, (k+1)·CHUNK)`), so
//! [`DataView::append_rows`] shares every sealed segment by `Arc` bump and
//! rebuilds only the trailing partial one — O(new rows), not O(all rows).
//! Column moments and the correlation matrix are Chan-merged from
//! per-segment summaries in segment order, the exact arithmetic of
//! [`crate::descriptive`] / [`crate::correlation::pearson`]; sealed-segment
//! summaries are computed once ever and shared by every descendant view.
//!
//! # Epochs, lineage & invalidation
//!
//! A `DataView` is immutable; cloning is an `Arc` bump. Every view carries
//! a globally unique *data epoch* and a *lineage* id. [`DataView::append_rows`]
//! produces a child with a fresh epoch; the first append from a view also
//! passes the discretization / joint-code / CI-outcome LRUs along (a second
//! append from the same parent — a fork — starts fresh caches and a new
//! lineage, so divergent branches can never contaminate each other).
//! Cached entries are epoch-tagged: a lookup hits only when the entry was
//! computed at the reader's epoch, otherwise the value is recomputed from
//! the reader's own data and overwritten in place. Appends therefore
//! *retain* the cache structure (capacity, hot keys) while every served
//! value remains a pure function of the reader's data — cached reads stay
//! bit-identical to direct recomputation (`tests/dataview_equivalence.rs`),
//! and outstanding clones of older views stay valid.
//!
//! Within a lineage, data is append-only, which enables two true
//! incremental upgrades: a categorical discretization whose value set
//! already covers the appended rows is extended in O(new rows) instead of
//! refit, and a joint conditioning-set encoding whose member fits all
//! survived in their prefix lineages extends its first-seen stratum codes
//! by the appended rows only. Both extensions are provably identical to a
//! cold rebuild.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::cache::{EpochLru, FxBuild};
use crate::correlation::pearson_from_moments;
use crate::descriptive::{
    merge_col_moments, merge_comoment, variance_of, ColMoments, MOMENT_CHUNK,
};
use crate::discretize::Discretizer;
use crate::matrix::Matrix;
use crate::segment::{n_pairs, pair_index, Segment};
use crate::smallset::SmallIdSet;

/// Per-column first and second moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Sample mean.
    pub mean: f64,
    /// Sample variance (n−1 denominator).
    pub variance: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
}

/// A fitted discretization of one column: integer codes plus their arity.
#[derive(Debug, Clone)]
pub struct ColumnCodes {
    /// Integer code per row.
    pub codes: Vec<usize>,
    /// Number of distinct codes.
    pub arity: usize,
    /// The fitted discretizer (kept for incremental extension).
    disc: Discretizer,
    /// Rows covered when the fit was made.
    n_rows: usize,
    /// Identity of the append-only code prefix this fit belongs to: a cold
    /// fit mints a fresh id, an incremental extension inherits its base's.
    /// Two fits sharing a `prefix_lineage` therefore agree code-for-code on
    /// their common row prefix — the invariant the joint-code extension
    /// relies on.
    prefix_lineage: u64,
}

/// A joint encoding of a conditioning set: one stratum code per row.
/// Stratum codes are assigned in **first-seen row order**, so within a
/// member-code prefix lineage they are prefix-stable under appends — the
/// cached first-seen map lets [`DataView::joint_codes`] extend a stale
/// encoding by the appended rows only instead of re-coding every row.
#[derive(Debug, Clone)]
pub struct JointCodes {
    /// Stratum code per row.
    pub codes: Vec<usize>,
    /// Product of member arities (contingency-table stratum count).
    pub strata: f64,
    /// First-seen map from member-code tuples to stratum codes (kept for
    /// incremental extension).
    map: HashMap<Vec<usize>, usize, FxBuild>,
    /// `prefix_lineage` of each member fit this encoding was built from.
    member_lineages: Vec<u64>,
    /// Rows covered when the encoding was built.
    n_rows: usize,
}

impl ColumnCodes {
    /// Approximate resident bytes of this fit (codes payload plus fixed
    /// struct overhead; the discretizer's cut/value vector is counted).
    pub fn approx_bytes(&self) -> usize {
        let disc_values = match &self.disc {
            Discretizer::Categorical { values } => values.len(),
            Discretizer::Quantile { cuts } => cuts.len(),
        };
        std::mem::size_of::<Self>()
            + self.codes.len() * std::mem::size_of::<usize>()
            + disc_values * std::mem::size_of::<f64>()
    }
}

impl JointCodes {
    /// Distinct stratum count. First-seen codes are contiguous from 0, so
    /// this is also the exclusive code bound — the `nz` the dense CMI
    /// kernel needs without a `max`-scan.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Approximate resident bytes of this encoding: the per-row codes, the
    /// first-seen map's key tuples, and fixed struct overhead.
    pub fn approx_bytes(&self) -> usize {
        let usizes = std::mem::size_of::<usize>();
        std::mem::size_of::<Self>()
            + self.codes.len() * usizes
            + self
                .map
                .keys()
                .map(|k| (k.len() + 1) * usizes)
                .sum::<usize>()
            + self.member_lineages.len() * std::mem::size_of::<u64>()
    }
}

/// Appends first-seen-order stratum codes for rows `from..to` of the member
/// code columns — the exact assignment rule of
/// [`crate::entropy::joint_code`], factored so both the cold build
/// (`from = 0` on empty state) and the incremental extension share it.
fn extend_joint_codes(
    cols: &[Arc<ColumnCodes>],
    codes: &mut Vec<usize>,
    map: &mut HashMap<Vec<usize>, usize, FxBuild>,
    from: usize,
    to: usize,
) {
    for i in from..to {
        let key: Vec<usize> = cols.iter().map(|c| c.codes[i]).collect();
        let next = map.len();
        codes.push(*map.entry(key).or_insert(next));
    }
}

/// Key of a cached CI outcome: `(kind, x, y, conditioning set)` with
/// `x < y` (both supported tests are symmetric in their arguments). The
/// kind tag carries the test family plus any parameters that change its
/// arithmetic (e.g. G-test discretization settings). The conditioning set
/// is an inline [`SmallIdSet`], so probes for sets of at most 8 variables
/// never touch the allocator.
pub type CiKey = (u32, u32, u32, SmallIdSet);

const CI_CACHE_CAPACITY: usize = 65_536;
const JOINT_CACHE_CAPACITY: usize = 4_096;
const CODE_CACHE_CAPACITY: usize = 4_096;

/// Globally unique ids for data epochs and lineages.
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The epoch-tagged caches shared along a lineage of appended views.
struct Caches {
    // (col, bins, max_levels) → fitted codes.
    codes: EpochLru<(u32, u32, u32), Arc<ColumnCodes>>,
    // (vars, bins, max_levels) → joint stratum codes.
    joint: EpochLru<(SmallIdSet, u32, u32), Arc<JointCodes>>,
    // CI-test memo: (kind, x, y, z) → (statistic, p_value).
    ci: EpochLru<CiKey, (f64, f64)>,
    /// Joint encodings extended incrementally (vs re-coded cold) —
    /// observability so tests can prove the O(new rows) path actually
    /// fires (extension and cold rebuild are otherwise indistinguishable:
    /// first-seen codes are prefix-stable either way).
    joint_extensions: AtomicU64,
}

impl Caches {
    fn fresh() -> Arc<Caches> {
        Arc::new(Caches {
            codes: EpochLru::new(CODE_CACHE_CAPACITY),
            joint: EpochLru::new(JOINT_CACHE_CAPACITY),
            ci: EpochLru::new(CI_CACHE_CAPACITY),
            joint_extensions: AtomicU64::new(0),
        })
    }

    /// Approximate resident bytes of the three epoch-LRUs (the CI cache's
    /// values are inline in its entries, so only the per-entry overhead
    /// counts there).
    fn approx_bytes(&self) -> usize {
        self.codes.approx_bytes(|c| c.approx_bytes())
            + self.joint.approx_bytes(|j| j.approx_bytes())
            + self.ci.approx_bytes(|_| 0)
    }
}

struct Inner {
    segments: Vec<Arc<Segment>>,
    n_rows: usize,
    n_cols: usize,
    epoch: u64,
    lineage: u64,
    /// Set once this view has handed its caches to a child append; a
    /// second append (a fork) gets fresh caches and a new lineage.
    appended: AtomicBool,
    caches: Arc<Caches>,
    /// Lazily materialized contiguous columns (the seam with slice-based
    /// consumers: regression, discretizer fitting, legacy call sites).
    materialized: OnceLock<Vec<Vec<f64>>>,
    col_stats: OnceLock<Vec<ColumnStats>>,
    correlation: OnceLock<Matrix>,
}

/// An immutable, `Arc`-shared columnar table with cached sufficient
/// statistics. See the module docs for the segment/epoch/invalidation
/// rules.
#[derive(Clone)]
pub struct DataView {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for DataView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataView")
            .field("n_cols", &self.n_cols())
            .field("n_rows", &self.n_rows())
            .field("epoch", &self.inner.epoch)
            .field("lineage", &self.inner.lineage)
            .field("segments", &self.inner.segments.len())
            .field("ci_cache", &self.inner.caches.ci)
            .finish()
    }
}

/// Splits contiguous columns into canonical segments.
fn segment_columns(columns: &[Vec<f64>], n_rows: usize) -> Vec<Arc<Segment>> {
    let mut segments = Vec::with_capacity(n_rows.div_ceil(MOMENT_CHUNK));
    let mut start = 0;
    while start < n_rows {
        let end = (start + MOMENT_CHUNK).min(n_rows);
        segments.push(Arc::new(Segment::new(
            columns.iter().map(|c| c[start..end].to_vec()).collect(),
        )));
        start = end;
    }
    segments
}

impl DataView {
    /// Builds a view over owned columns. All columns must share one length.
    pub fn new(columns: Vec<Vec<f64>>) -> Self {
        let n_rows = columns.first().map_or(0, Vec::len);
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), n_rows, "column {i} has ragged length");
        }
        let n_cols = columns.len();
        let segments = segment_columns(&columns, n_rows);
        let materialized = OnceLock::new();
        // The caller's columns double as the materialized form (moved, not
        // copied).
        let _ = materialized.set(columns);
        Self {
            inner: Arc::new(Inner {
                segments,
                n_rows,
                n_cols,
                epoch: next_id(),
                lineage: next_id(),
                appended: AtomicBool::new(false),
                caches: Caches::fresh(),
                materialized,
                col_stats: OnceLock::new(),
                correlation: OnceLock::new(),
            }),
        }
    }

    /// Builds a view by cloning borrowed columns (the seam with legacy
    /// `&[Vec<f64>]` call sites).
    pub fn from_columns(columns: &[Vec<f64>]) -> Self {
        Self::new(columns.to_vec())
    }

    /// Number of rows (samples).
    pub fn n_rows(&self) -> usize {
        self.inner.n_rows
    }

    /// Number of columns (variables).
    pub fn n_cols(&self) -> usize {
        self.inner.n_cols
    }

    /// The globally unique id of this view's data version. Two views share
    /// an epoch only when they share the identical rows; every append
    /// produces a fresh epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The id of the append chain this view belongs to. Within one lineage
    /// data is append-only: any member's rows are a prefix of any later
    /// member's rows.
    pub fn lineage(&self) -> u64 {
        self.inner.lineage
    }

    /// One column as a contiguous slice (materializes on first use).
    pub fn column(&self, i: usize) -> &[f64] {
        &self.columns()[i]
    }

    /// All columns, contiguous (interop with column-major call sites;
    /// materialized from the segments on first use, then cached).
    pub fn columns(&self) -> &[Vec<f64>] {
        self.inner.materialized.get_or_init(|| {
            let mut cols: Vec<Vec<f64>> = (0..self.inner.n_cols)
                .map(|_| Vec::with_capacity(self.inner.n_rows))
                .collect();
            for seg in &self.inner.segments {
                for (out, part) in cols.iter_mut().zip(seg.columns()) {
                    out.extend_from_slice(part);
                }
            }
            cols
        })
    }

    /// One full row, materialized (read straight from its segment).
    pub fn row(&self, r: usize) -> Vec<f64> {
        assert!(r < self.inner.n_rows, "row {r} out of bounds");
        let seg = &self.inner.segments[r / MOMENT_CHUNK];
        let off = r % MOMENT_CHUNK;
        (0..self.inner.n_cols).map(|c| seg.col(c)[off]).collect()
    }

    /// Calls `f` for every value of column `col` in rows `from..n_rows`
    /// without materializing the column (the incremental-extension walk).
    fn for_column_tail(&self, col: usize, from: usize, mut f: impl FnMut(f64)) {
        let mut seg_idx = from / MOMENT_CHUNK;
        let mut off = from % MOMENT_CHUNK;
        while seg_idx < self.inner.segments.len() {
            for &v in &self.inner.segments[seg_idx].col(col)[off..] {
                f(v);
            }
            off = 0;
            seg_idx += 1;
        }
    }

    /// A new view over this view's rows extended by `rows` — the epoch
    /// bump of the active-learning loop. Sealed segments are shared by
    /// `Arc`; only the trailing partial segment is rebuilt, so the cost is
    /// O(new rows), not O(all rows). The first append from a view passes
    /// the epoch-tagged caches along (see the module docs); the old view
    /// and its statistics remain valid.
    pub fn append_rows(&self, rows: &[Vec<f64>]) -> DataView {
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), self.inner.n_cols, "row {r} width mismatch");
        }
        self.append_cells(rows.len(), |c, r| rows[r][c])
    }

    /// [`DataView::append_rows`] for a single borrowed row (no
    /// intermediate copy — the row lands directly in the new segment).
    pub fn append_row(&self, row: &[f64]) -> DataView {
        assert_eq!(row.len(), self.inner.n_cols, "row width mismatch");
        self.append_cells(1, |c, _| row[c])
    }

    /// Columnar counterpart of [`DataView::append_rows`]: appends
    /// `columns[c][r]` for every new row `r` straight from borrowed
    /// columns — no per-row `Vec` materialization. Dataset concatenation
    /// (a transfer update, a suite-scale merge) lands on the same
    /// segmented path: sealed segments shared by `Arc`, only the partial
    /// tail rebuilt, O(new rows).
    pub fn append_columns(&self, columns: &[Vec<f64>]) -> DataView {
        assert_eq!(columns.len(), self.inner.n_cols, "column-count mismatch");
        let n_new = columns.first().map_or(0, Vec::len);
        for (c, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), n_new, "column {c} length mismatch");
        }
        self.append_cells(n_new, |c, r| columns[c][r])
    }

    /// The one segmented append body: `cell(col, row)` supplies the new
    /// values; callers adapt row- or column-major inputs.
    fn append_cells(&self, n_new: usize, cell: impl Fn(usize, usize) -> f64) -> DataView {
        // Appending nothing must not bump the epoch (the data is
        // identical) nor consume this view's one cache-inheriting append.
        if n_new == 0 {
            return self.clone();
        }
        let p = self.inner.n_cols;
        if p == 0 {
            return DataView::new(Vec::new());
        }
        let mut segments = self.inner.segments.clone();
        // Reopen the trailing partial segment (copy ≤ one chunk of rows).
        let mut builder: Vec<Vec<f64>> = match segments.last() {
            Some(s) if !s.is_sealed() => {
                let s = segments.pop().expect("just matched");
                s.columns()
                    .iter()
                    .map(|c| {
                        let mut v = Vec::with_capacity(MOMENT_CHUNK.min(c.len() + n_new));
                        v.extend_from_slice(c);
                        v
                    })
                    .collect()
            }
            _ => (0..p)
                .map(|_| Vec::with_capacity(MOMENT_CHUNK.min(n_new)))
                .collect(),
        };
        let mut n_rows = self.inner.n_rows;
        for r in 0..n_new {
            for (c, col) in builder.iter_mut().enumerate() {
                col.push(cell(c, r));
            }
            n_rows += 1;
            if builder[0].len() == MOMENT_CHUNK {
                let sealed = std::mem::replace(
                    &mut builder,
                    (0..p).map(|_| Vec::with_capacity(MOMENT_CHUNK)).collect(),
                );
                segments.push(Arc::new(Segment::new(sealed)));
            }
        }
        if !builder[0].is_empty() {
            segments.push(Arc::new(Segment::new(builder)));
        }
        // First append inherits the caches; a fork starts fresh ones so
        // divergent branches can never observe each other's data.
        let (caches, lineage) = if self.inner.appended.swap(true, Ordering::AcqRel) {
            (Caches::fresh(), next_id())
        } else {
            (Arc::clone(&self.inner.caches), self.inner.lineage)
        };
        DataView {
            inner: Arc::new(Inner {
                segments,
                n_rows,
                n_cols: p,
                epoch: next_id(),
                lineage,
                appended: AtomicBool::new(false),
                caches,
                materialized: OnceLock::new(),
                col_stats: OnceLock::new(),
                correlation: OnceLock::new(),
            }),
        }
    }

    /// Per-column moments, Chan-merged from the per-segment summaries in
    /// segment order — bit-identical to `mean`/`variance` on the contiguous
    /// column, and O(new rows) after an append (sealed-segment summaries
    /// are shared).
    pub fn column_stats(&self) -> &[ColumnStats] {
        self.inner.col_stats.get_or_init(|| {
            let p = self.inner.n_cols;
            let mut acc = vec![ColMoments::EMPTY; p];
            for seg in &self.inner.segments {
                let st = seg.stats();
                for (a, &b) in acc.iter_mut().zip(&st.cols) {
                    *a = merge_col_moments(*a, b);
                }
            }
            acc.into_iter()
                .map(|m| {
                    let v = variance_of(m);
                    ColumnStats {
                        mean: m.mean,
                        variance: v,
                        std_dev: v.sqrt(),
                    }
                })
                .collect()
        })
    }

    /// The full Pearson correlation matrix, Chan-merged from per-segment
    /// moments and comoments in segment order. The merge is the exact
    /// arithmetic of [`crate::correlation::pearson`] over canonical
    /// [`MOMENT_CHUNK`] chunks, so the result is bit-identical to
    /// [`crate::correlation::correlation_matrix`] on the contiguous
    /// columns while costing only O(p² · (new rows + segments)) after an
    /// append.
    pub fn correlation(&self) -> &Matrix {
        self.inner.correlation.get_or_init(|| {
            let p = self.inner.n_cols;
            let mut acc_cols = vec![ColMoments::EMPTY; p];
            let mut acc_cross = vec![0.0; n_pairs(p)];
            for seg in &self.inner.segments {
                let st = seg.stats();
                // Cross moments merge against the pre-merge column moments.
                for i in 0..p {
                    for j in (i + 1)..p {
                        let k = pair_index(i, j, p);
                        acc_cross[k] = merge_comoment(
                            acc_cross[k],
                            acc_cols[i],
                            acc_cols[j],
                            st.cross[k],
                            st.cols[i],
                            st.cols[j],
                        );
                    }
                }
                for (a, &b) in acc_cols.iter_mut().zip(&st.cols) {
                    *a = merge_col_moments(*a, b);
                }
            }
            let mut m = Matrix::identity(p);
            for i in 0..p {
                for j in (i + 1)..p {
                    let r = pearson_from_moments(
                        acc_cols[i],
                        acc_cols[j],
                        acc_cross[pair_index(i, j, p)],
                    );
                    m[(i, j)] = r;
                    m[(j, i)] = r;
                }
            }
            m
        })
    }

    /// The cached discretization of column `col` under `(bins, max_levels)`
    /// (see [`Discretizer::fit`]). After an append, a stale categorical fit
    /// whose value set still covers the new rows is extended in O(new
    /// rows); anything else is refit from the full column. Both paths are
    /// provably identical to a cold fit.
    pub fn codes(&self, col: usize, bins: usize, max_levels: usize) -> Arc<ColumnCodes> {
        let key = (col as u32, bins as u32, max_levels as u32);
        let epoch = self.inner.epoch;
        self.inner.caches.codes.get_or_insert_with(key, epoch, || {
            if let Some((_, stale)) = self.inner.caches.codes.stale(&key) {
                if let Some(extended) = self.try_extend_codes(&stale, col) {
                    return extended;
                }
            }
            // Cold fit straight off the cached per-segment sorted runs:
            // the categorical probe gallops (bailing at max_levels + 1
            // distinct values) and each quantile cut is a multi-run order
            // statistic — O(bins · log n) selection per epoch, never a
            // merged-column rescan. Identical to the rescan path
            // (`tests/dataview_equivalence.rs::quantile_cuts_match_rescan`).
            let runs: Vec<&[f64]> = self
                .inner
                .segments
                .iter()
                .map(|seg| seg.sorted_col(col).as_slice())
                .collect();
            let d = Discretizer::fit_runs(&runs, bins, max_levels);
            let column = &self.columns()[col];
            Arc::new(ColumnCodes {
                codes: d.transform(column),
                arity: d.arity(),
                disc: d,
                n_rows: self.inner.n_rows,
                prefix_lineage: next_id(),
            })
        })
    }

    /// Upgrades a same-lineage stale fit covering a prefix of this view's
    /// rows: valid as-is when the row counts match (lineages are
    /// append-only, so equal counts ⇒ identical data), extended row-by-row
    /// when the fit is categorical and every appended value is already in
    /// its value set (then a cold refit would produce the same sorted
    /// distinct values, hence the same codes).
    fn try_extend_codes(&self, stale: &Arc<ColumnCodes>, col: usize) -> Option<Arc<ColumnCodes>> {
        let n = self.inner.n_rows;
        if stale.n_rows > n {
            return None;
        }
        if stale.n_rows == n {
            return Some(Arc::clone(stale));
        }
        let Discretizer::Categorical { values } = &stale.disc else {
            return None;
        };
        let mut codes = Vec::with_capacity(n);
        codes.extend_from_slice(&stale.codes);
        let mut covered = true;
        self.for_column_tail(col, stale.n_rows, |v| {
            if covered {
                match values.binary_search_by(|probe| {
                    probe.partial_cmp(&v).expect("NaN in discretized column")
                }) {
                    Ok(_) => codes.push(stale.disc.code(v)),
                    Err(_) => covered = false,
                }
            }
        });
        if !covered {
            return None;
        }
        Some(Arc::new(ColumnCodes {
            codes,
            arity: stale.arity,
            disc: stale.disc.clone(),
            n_rows: n,
            // The extension appends to the stale fit's codes verbatim, so
            // it stays in the same append-only prefix lineage.
            prefix_lineage: stale.prefix_lineage,
        }))
    }

    /// Column `col` in ascending order, merged from the per-segment sorted
    /// runs (which are cached in the shared segments, so after an append
    /// only the rebuilt tail re-sorts; the tournament merge below is
    /// O(n log segments)). Sorting is a pure function of the value
    /// multiset, so the result is identical to sorting the contiguous
    /// column.
    pub fn sorted_column(&self, col: usize) -> Vec<f64> {
        fn merge(a: &[f64], b: &[f64]) -> Vec<f64> {
            let mut out = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i] <= b[j] {
                    out.push(a[i]);
                    i += 1;
                } else {
                    out.push(b[j]);
                    j += 1;
                }
            }
            out.extend_from_slice(&a[i..]);
            out.extend_from_slice(&b[j..]);
            out
        }
        // Tournament (pairwise-doubling) merge of the runs.
        let mut runs: Vec<Vec<f64>> = self
            .inner
            .segments
            .iter()
            .map(|seg| seg.sorted_col(col).as_ref().clone())
            .collect();
        while runs.len() > 1 {
            let mut next = Vec::with_capacity(runs.len().div_ceil(2));
            let mut it = runs.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(merge(&a, &b)),
                    None => next.push(a),
                }
            }
            runs = next;
        }
        runs.pop().unwrap_or_default()
    }

    /// The cached joint stratum encoding of the conditioning set `z` under
    /// `(bins, max_levels)` — the row-wise contingency-table coordinate
    /// shared by every G-test conditioning on `z`.
    ///
    /// After an append, a stale encoding whose member fits all survived in
    /// the same prefix lineage (categorical extensions, or unchanged fits)
    /// is **extended by the appended rows only**: first-seen-order stratum
    /// codes are prefix-stable whenever every member's code column is,
    /// so re-coding starts from the cached first-seen map instead of row
    /// zero — mirroring the categorical-discretization O(new rows) path.
    /// Any member that was refit cold (a quantile fit, or a novel
    /// categorical value) breaks the lineage and forces a cold re-code.
    /// Both paths are provably identical to [`crate::entropy::joint_code`]
    /// over the full member columns.
    pub fn joint_codes(&self, z: &[usize], bins: usize, max_levels: usize) -> Arc<JointCodes> {
        let key = (SmallIdSet::from_indices(z), bins as u32, max_levels as u32);
        let epoch = self.inner.epoch;
        let stale_key = key.clone();
        self.inner.caches.joint.get_or_insert_with(key, epoch, || {
            let n = self.inner.n_rows;
            let cols: Vec<Arc<ColumnCodes>> =
                z.iter().map(|&i| self.codes(i, bins, max_levels)).collect();
            let strata: f64 = cols.iter().map(|c| c.arity.max(1) as f64).product();
            let member_lineages: Vec<u64> = cols.iter().map(|c| c.prefix_lineage).collect();
            if let Some((_, stale)) = self.inner.caches.joint.stale(&stale_key) {
                // Every member still in its recorded prefix lineage ⇒ the
                // stale encoding is exactly what rows 0..stale.n_rows of
                // the current member columns produce; extend it.
                if stale.n_rows <= n && stale.member_lineages == member_lineages {
                    self.inner
                        .caches
                        .joint_extensions
                        .fetch_add(1, Ordering::Relaxed);
                    let mut codes = Vec::with_capacity(n);
                    codes.extend_from_slice(&stale.codes);
                    let mut map = stale.map.clone();
                    extend_joint_codes(&cols, &mut codes, &mut map, stale.n_rows, n);
                    return Arc::new(JointCodes {
                        codes,
                        strata,
                        map,
                        member_lineages,
                        n_rows: n,
                    });
                }
            }
            let mut codes = Vec::with_capacity(n);
            let mut map = HashMap::default();
            extend_joint_codes(&cols, &mut codes, &mut map, 0, n);
            Arc::new(JointCodes {
                codes,
                strata,
                map,
                member_lineages,
                n_rows: n,
            })
        })
    }

    /// Memoized CI outcome: returns the cached `(statistic, p_value)` for
    /// `key` at this view's data epoch, or computes and caches it.
    /// `compute` must be a pure function of the view data and the key. An
    /// entry computed at another epoch is never served — it is refreshed in
    /// place (this per-test epoch check is the "dirty edge" predicate of
    /// the incremental skeleton: after an append every outcome is stale
    /// exactly once, while repeat relearns on unchanged data hit every
    /// entry).
    pub fn ci_outcome(&self, key: CiKey, compute: impl FnOnce() -> (f64, f64)) -> (f64, f64) {
        self.inner
            .caches
            .ci
            .get_or_insert_with(key, self.inner.epoch, compute)
    }

    /// Hit count of the CI-outcome cache (observability for tests/benches).
    /// Counters are shared along an append lineage.
    pub fn ci_cache_hits(&self) -> u64 {
        self.inner.caches.ci.stats().hits()
    }

    /// Miss count of the CI-outcome cache.
    #[cfg(test)]
    fn ci_cache_misses(&self) -> u64 {
        self.inner.caches.ci.stats().misses()
    }

    /// How many joint encodings were extended incrementally (rather than
    /// re-coded cold) along this view's lineage — observability for the
    /// O(new rows) joint-code guarantee.
    #[cfg(test)]
    fn joint_code_extensions(&self) -> u64 {
        self.inner.caches.joint_extensions.load(Ordering::Relaxed)
    }

    /// True when `other` shares this view's allocation (Arc identity).
    pub fn same_table(&self, other: &DataView) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The canonical storage segments (consumers that maintain their own
    /// per-segment summaries — e.g. the SCM's cached regression Grams —
    /// key them by these `Arc` identities).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.inner.segments
    }

    /// Number of storage segments (observability for tests).
    #[cfg(test)]
    fn n_segments(&self) -> usize {
        self.inner.segments.len()
    }

    /// Approximate resident bytes of the raw segment data (including any
    /// materialized sorted runs and moment summaries).
    fn segment_bytes(&self) -> usize {
        self.inner.segments.iter().map(|s| s.approx_bytes()).sum()
    }

    /// Approximate resident bytes of the epoch-tagged statistic caches
    /// (discretizations, joint encodings, CI outcomes). Caches are shared
    /// along a lineage (`Arc`), so two views of one lineage report the
    /// same pool — deduplicate by [`Self::lineage`] when accounting many
    /// views.
    pub fn cache_bytes(&self) -> usize {
        self.inner.caches.approx_bytes()
    }

    /// Raw segment bytes (sorted runs and moment summaries included) plus
    /// [`Self::cache_bytes`]: the whole approximate footprint of this view.
    /// It double-counts nothing within one view; when accounting many
    /// views, deduplicate segments by [`Self::segments`] `Arc` identity and
    /// caches by [`Self::lineage`].
    pub fn approx_bytes(&self) -> usize {
        self.segment_bytes() + self.cache_bytes()
    }

    /// Drops every entry of the statistic caches shared along this view's
    /// lineage — the memory-budget eviction hook. Raw data (segments) and
    /// per-view lazy state are untouched, and everything evicted is a pure
    /// function of the data, so subsequent reads recompute bit-identical
    /// values; only the next probe of each key pays a recomputation.
    pub fn evict_statistic_caches(&self) {
        self.inner.caches.codes.clear();
        self.inner.caches.joint.clear();
        self.inner.caches.ci.clear();
    }

    /// Number of segments shared (by `Arc` identity) with `other` —
    /// observability for the O(new rows) append guarantee.
    pub fn shared_segments_with(&self, other: &DataView) -> usize {
        self.inner
            .segments
            .iter()
            .zip(&other.inner.segments)
            .take_while(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

/// Canonicalizes a CI-cache key: orders `(x, y)` and keeps `z` sorted, so
/// symmetric queries share one entry.
#[cfg(test)]
fn ci_key(kind: u32, x: usize, y: usize, z: &[usize]) -> CiKey {
    let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
    let mut zs = SmallIdSet::from_indices(z);
    zs.sort();
    (kind, lo as u32, hi as u32, zs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::correlation_matrix;
    use crate::descriptive::{mean, variance};

    fn view() -> DataView {
        DataView::new(vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 4.0, 6.0, 8.0],
            vec![1.0, 1.0, 2.0, 2.0],
        ])
    }

    #[test]
    fn shape_and_access() {
        let v = view();
        assert_eq!(v.n_rows(), 4);
        assert_eq!(v.n_cols(), 3);
        assert_eq!(v.column(1), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(v.row(2), vec![3.0, 6.0, 2.0]);
    }

    #[test]
    fn stats_match_direct_computation() {
        let v = view();
        let s = v.column_stats();
        assert_eq!(s[0].mean, mean(v.column(0)));
        assert_eq!(s[1].variance, variance(v.column(1)));
        // Cached correlation is the exact same function output.
        assert_eq!(*v.correlation(), correlation_matrix(v.columns()));
    }

    #[test]
    fn clone_shares_caches() {
        let v = view();
        let w = v.clone();
        assert!(v.same_table(&w));
        let c1 = v.correlation() as *const Matrix;
        let c2 = w.correlation() as *const Matrix;
        assert_eq!(c1, c2, "clones must share the cached matrix");
    }

    #[test]
    fn append_rows_invalidates_by_construction() {
        let v = view();
        let _ = v.correlation();
        let w = v.append_rows(&[vec![5.0, 10.0, 3.0], vec![6.0, 12.0, 3.0]]);
        assert!(!v.same_table(&w));
        assert_ne!(v.epoch(), w.epoch());
        assert_eq!(v.lineage(), w.lineage(), "first append keeps the lineage");
        assert_eq!(w.n_rows(), 6);
        assert_eq!(v.n_rows(), 4, "old view untouched");
        // The new view's correlation reflects the new rows.
        assert_eq!(*w.correlation(), correlation_matrix(w.columns()));
    }

    #[test]
    fn append_columns_matches_append_rows_bit_for_bit() {
        let n = MOMENT_CHUNK + 7; // crosses a segment boundary
        let new_cols: Vec<Vec<f64>> = (0..3)
            .map(|c| (0..n).map(|r| (r * 3 + c) as f64 * 0.5).collect())
            .collect();
        let new_rows: Vec<Vec<f64>> = (0..n)
            .map(|r| new_cols.iter().map(|c| c[r]).collect())
            .collect();
        let by_cols = view().append_columns(&new_cols);
        let by_rows = view().append_rows(&new_rows);
        assert_eq!(by_cols.n_rows(), by_rows.n_rows());
        assert_eq!(by_cols.columns(), by_rows.columns());
        assert_eq!(*by_cols.correlation(), *by_rows.correlation());
        assert_eq!(by_cols.column_stats(), by_rows.column_stats());
        // Sealed segments of the base view are shared, as for row appends.
        let v = view();
        let w = v.append_columns(&new_cols);
        assert_eq!(v.lineage(), w.lineage(), "first append keeps the lineage");
        // Appending zero rows is the no-op contract of append_rows.
        let empty: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let same = v.append_columns(&empty);
        assert!(v.same_table(&same));
    }

    #[test]
    fn appends_share_sealed_segments() {
        let n = 3 * MOMENT_CHUNK + 10;
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|c| (0..n).map(|i| (i * (c + 1)) as f64).collect())
            .collect();
        let v = DataView::new(cols.clone());
        assert_eq!(v.n_segments(), 4);
        let w = v.append_row(&[1.0, 2.0]);
        // The three sealed segments are shared; only the partial tail is
        // rebuilt.
        assert_eq!(w.shared_segments_with(&v), 3);
        assert_eq!(w.n_rows(), n + 1);
        // Grown-view statistics equal a cold rebuild, bit for bit.
        let mut full = cols;
        full[0].push(1.0);
        full[1].push(2.0);
        let cold = DataView::new(full);
        assert_eq!(*w.correlation(), *cold.correlation());
        assert_eq!(w.column_stats(), cold.column_stats());
        assert_eq!(w.columns(), cold.columns());
    }

    #[test]
    fn empty_append_is_identity() {
        let v = view();
        let w = v.append_rows(&[]);
        assert!(v.same_table(&w), "empty append must not mint a new view");
        // The real first append afterwards still inherits the caches.
        let a = v.append_row(&[0.0, 0.0, 1.0]);
        assert_eq!(a.lineage(), v.lineage());
    }

    #[test]
    fn second_append_forks_lineage() {
        let v = view();
        let a = v.append_row(&[0.0, 0.0, 0.0]);
        let b = v.append_row(&[9.0, 9.0, 9.0]);
        assert_eq!(a.lineage(), v.lineage());
        assert_ne!(b.lineage(), v.lineage(), "fork must isolate its caches");
        // Both branches still compute correct (their own) statistics.
        assert_eq!(*a.correlation(), correlation_matrix(a.columns()));
        assert_eq!(*b.correlation(), correlation_matrix(b.columns()));
    }

    #[test]
    fn codes_cached_and_equal_to_direct() {
        let v = view();
        let a = v.codes(2, 5, 8);
        let d = Discretizer::fit(v.column(2), 5, 8);
        assert_eq!(a.codes, d.transform(v.column(2)));
        assert_eq!(a.arity, d.arity());
        let b = v.codes(2, 5, 8);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
    }

    #[test]
    fn codes_extend_incrementally_across_appends() {
        // Column 2 is categorical with values {1, 2}; appending covered
        // values must extend the stale fit rather than refit.
        let v = view();
        let before = v.codes(2, 5, 8);
        let w = v.append_row(&[5.0, 10.0, 1.0]);
        let after = w.codes(2, 5, 8);
        let d = Discretizer::fit(w.column(2), 5, 8);
        assert_eq!(after.codes, d.transform(w.column(2)));
        assert_eq!(after.arity, before.arity);
        assert_eq!(after.codes[..4], before.codes[..]);
        // A novel value forces a refit — still identical to direct.
        let u = w.append_row(&[0.0, 0.0, 7.5]);
        let refit = u.codes(2, 5, 8);
        let d2 = Discretizer::fit(u.column(2), 5, 8);
        assert_eq!(refit.codes, d2.transform(u.column(2)));
        assert_eq!(refit.arity, d2.arity());
    }

    #[test]
    fn joint_codes_strata_product() {
        let v = view();
        let j = v.joint_codes(&[0, 2], 5, 8);
        let a0 = v.codes(0, 5, 8).arity;
        let a2 = v.codes(2, 5, 8).arity;
        assert_eq!(j.strata, (a0 * a2) as f64);
        assert_eq!(j.codes.len(), v.n_rows());
    }

    /// The cold joint encoding must reproduce `entropy::joint_code` on the
    /// member code columns, bit for bit (same first-seen assignment rule).
    #[test]
    fn joint_codes_match_entropy_joint_code() {
        let v = view();
        let j = v.joint_codes(&[0, 2], 5, 8);
        let c0 = v.codes(0, 5, 8);
        let c2 = v.codes(2, 5, 8);
        let direct = crate::entropy::joint_code(&[&c0.codes, &c2.codes], v.n_rows());
        assert_eq!(j.codes, direct);
    }

    /// Appending rows whose member values are already covered extends the
    /// cached joint encoding along the lineage; every step must equal a
    /// cold re-code of the grown member columns.
    #[test]
    fn joint_codes_extend_incrementally_across_appends() {
        // Two categorical columns (values {1,2} and {0,1}).
        let mut v = DataView::new(vec![
            vec![1.0, 2.0, 1.0, 2.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1.0, 2.0, 2.0, 1.0],
        ]);
        let first = v.joint_codes(&[0, 1], 5, 8);
        assert_eq!(first.n_rows, 4);
        for step in 0..3 {
            let row = [
                vec![1.0, 1.0, 2.0],
                vec![2.0, 0.0, 1.0],
                vec![2.0, 1.0, 1.0],
            ][step]
                .clone();
            v = v.append_row(&row);
            let j = v.joint_codes(&[0, 1], 5, 8);
            let c0 = v.codes(0, 5, 8);
            let c1 = v.codes(1, 5, 8);
            let cold = crate::entropy::joint_code(&[&c0.codes, &c1.codes], v.n_rows());
            assert_eq!(j.codes, cold, "step {step} diverged from cold re-code");
            assert_eq!(j.n_rows, v.n_rows());
            // The O(new rows) path must actually have fired (equality
            // alone cannot distinguish it from a cold fallback).
            assert_eq!(
                v.joint_code_extensions(),
                step as u64 + 1,
                "step {step} fell back to a cold re-code"
            );
            // The member fits survived in their prefix lineages, so the
            // encoding extended instead of restarting: the prefix is the
            // previous encoding verbatim.
            assert_eq!(&j.codes[..j.codes.len() - 1], {
                let prev = v.n_rows() - 1;
                &crate::entropy::joint_code(&[&c0.codes[..prev], &c1.codes[..prev]], prev)[..]
            });
        }
    }

    /// A novel categorical value refits the member cold (new prefix
    /// lineage), which must force a cold joint re-code — still identical
    /// to direct computation.
    #[test]
    fn joint_codes_fall_back_cold_on_lineage_break() {
        let mut v = DataView::new(vec![vec![1.0, 2.0, 1.0, 2.0], vec![0.0, 1.0, 0.0, 1.0]]);
        let _ = v.joint_codes(&[0, 1], 5, 8);
        // 9.0 is a novel value for column 0: its fit restarts.
        v = v.append_row(&[9.0, 0.0]);
        let j = v.joint_codes(&[0, 1], 5, 8);
        let c0 = v.codes(0, 5, 8);
        let c1 = v.codes(1, 5, 8);
        let cold = crate::entropy::joint_code(&[&c0.codes, &c1.codes], v.n_rows());
        assert_eq!(j.codes, cold);
        assert_eq!(
            v.joint_code_extensions(),
            0,
            "a broken member lineage must force the cold path"
        );
    }

    #[test]
    fn approx_bytes_and_eviction_roundtrip() {
        let v = view();
        let raw = v.segment_bytes();
        assert!(raw >= 3 * 4 * std::mem::size_of::<f64>());
        assert_eq!(v.cache_bytes(), 0, "no statistics cached yet");

        // Populate all three caches.
        let codes_before = v.codes(2, 5, 8);
        let joint_before = v.joint_codes(&[0, 2], 5, 8);
        let ci_before = v.ci_outcome(ci_key(0, 0, 1, &[]), || (1.5, 0.25));
        let warm = v.cache_bytes();
        assert!(warm > 0, "cached statistics must be visible");
        assert_eq!(v.approx_bytes(), v.segment_bytes() + warm);

        // Warming the codes cache materialized sorted runs inside the
        // segments; those are data-side state and counted there.
        let raw_warm = v.segment_bytes();
        assert!(raw_warm >= raw);

        // Eviction clears only the caches, never the data…
        v.evict_statistic_caches();
        assert_eq!(v.cache_bytes(), 0);
        assert_eq!(v.segment_bytes(), raw_warm);
        assert_eq!(v.n_rows(), 4);

        // …and re-derivation is bit-identical.
        let codes_after = v.codes(2, 5, 8);
        assert_eq!(codes_after.codes, codes_before.codes);
        assert_eq!(codes_after.arity, codes_before.arity);
        let joint_after = v.joint_codes(&[0, 2], 5, 8);
        assert_eq!(joint_after.codes, joint_before.codes);
        assert_eq!(joint_after.strata.to_bits(), joint_before.strata.to_bits());
        let ci_after = v.ci_outcome(ci_key(0, 0, 1, &[]), || (1.5, 0.25));
        assert_eq!(ci_after.0.to_bits(), ci_before.0.to_bits());
        assert_eq!(ci_after.1.to_bits(), ci_before.1.to_bits());
    }

    #[test]
    fn ci_outcome_memoizes() {
        let v = view();
        let k = ci_key(0, 2, 0, &[1]);
        assert_eq!(k, ci_key(0, 0, 2, &[1]), "key must be symmetric in x,y");
        let first = v.ci_outcome(k.clone(), || (1.5, 0.25));
        let second = v.ci_outcome(k, || panic!("must not recompute"));
        assert_eq!(first, second);
        assert_eq!(v.ci_cache_hits(), 1);
        assert_eq!(v.ci_cache_misses(), 1);
    }

    #[test]
    fn ci_cache_survives_appends_but_never_serves_stale_values() {
        let v = view();
        let k = ci_key(0, 0, 1, &[]);
        let old = v.ci_outcome(k.clone(), || (1.0, 0.5));
        assert_eq!(old, (1.0, 0.5));
        let w = v.append_row(&[7.0, 7.0, 1.0]);
        // Same key, new epoch: the stale entry must be refreshed.
        let new = w.ci_outcome(k.clone(), || (2.0, 0.25));
        assert_eq!(new, (2.0, 0.25));
        // And the refreshed entry now hits at the new epoch.
        let hit = w.ci_outcome(k, || panic!("must hit refreshed entry"));
        assert_eq!(hit, (2.0, 0.25));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        DataView::new(vec![vec![1.0, 2.0], vec![1.0]]);
    }
}
