//! Descriptive statistics over `f64` slices and column-major datasets.
//!
//! # Canonical chunked moments
//!
//! Means, variances, and (co)moments are defined *canonically* as a Chan-
//! style merge over fixed-size chunks of [`MOMENT_CHUNK`] rows, folded in
//! row order: each chunk contributes a two-pass `(n, mean, M2[, C2])`
//! summary, and summaries combine with the numerically stable parallel
//! update (Chan, Golub & LeVeque 1983). Because the chunk boundaries are a
//! pure function of the row count — never of how the data was assembled —
//! a statistic computed incrementally from per-chunk summaries (the
//! segmented `DataView`) is **bit-identical** to direct computation over
//! the contiguous column. For inputs of at most one chunk the result is
//! bit-identical to the classic two-pass formulas these functions used
//! previously.
//!
//! # The blocked-kernel contract
//!
//! The hot-path kernels here are *blocked*: [`chunk_comoment_lanes`]
//! advances up to eight (`COMOMENT_LANES`) independent pair accumulators
//! per row so the compiler can keep several FMA chains in flight (and
//! vectorize them). Blocking is only ever applied **across independent
//! reductions** — never within one. Any future kernel must keep two invariants or the
//! house bit-exactness guarantee (cached == cold, incremental == direct,
//! the golden quickstart transcript) breaks:
//!
//! 1. **f64 only, no reassociation.** Each single statistic's fold
//!    (`Σ` over a chunk's rows, the chunk-order Chan merge) performs the
//!    exact operation sequence of the scalar definition. Lanes may only
//!    add *independent* accumulators side by side.
//! 2. **Fixed fold order.** Rows fold in row order within a chunk; chunks
//!    fold in chunk order. Lane width is free to change (it does not
//!    affect any bit), but fold order is not.

/// Rows per moment chunk. This is also the segment size of the chunked
/// `DataView` columns — the two must agree for cached statistics to be
/// bit-identical to direct recomputation. Sized so that rebuilding the
/// partial tail segment on append (and recomputing its per-segment
/// moment/Gram summaries) stays cheap relative to a relearn, while the
/// per-segment merge overhead stays negligible.
pub const MOMENT_CHUNK: usize = 64;

/// First and second central moments of one column: count, mean, and
/// `M2 = Σ (x − mean)²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColMoments {
    /// Number of observations folded in.
    pub n: usize,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations from the running mean.
    pub m2: f64,
}

impl ColMoments {
    /// The empty summary (identity of [`merge_col_moments`]).
    pub const EMPTY: ColMoments = ColMoments {
        n: 0,
        mean: 0.0,
        m2: 0.0,
    };

    /// Two-pass summary of one chunk (at most [`MOMENT_CHUNK`] rows).
    pub fn of_chunk(xs: &[f64]) -> ColMoments {
        if xs.is_empty() {
            return ColMoments::EMPTY;
        }
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let m2 = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
        ColMoments {
            n: xs.len(),
            mean: m,
            m2,
        }
    }
}

/// Chan merge of two column summaries. Exact identity when either side is
/// empty, so folds may start from [`ColMoments::EMPTY`].
pub fn merge_col_moments(a: ColMoments, b: ColMoments) -> ColMoments {
    if a.n == 0 {
        return b;
    }
    if b.n == 0 {
        return a;
    }
    let (na, nb) = (a.n as f64, b.n as f64);
    let n = na + nb;
    let delta = b.mean - a.mean;
    ColMoments {
        n: a.n + b.n,
        mean: a.mean + delta * nb / n,
        m2: a.m2 + b.m2 + delta * delta * na * nb / n,
    }
}

/// Chan merge of a cross-column comoment `C2 = Σ (x − mean_x)(y − mean_y)`.
/// `ax`/`ay` and `bx`/`by` are the per-column summaries of the two sides
/// *before* merging.
pub fn merge_comoment(
    ac2: f64,
    ax: ColMoments,
    ay: ColMoments,
    bc2: f64,
    bx: ColMoments,
    by: ColMoments,
) -> f64 {
    debug_assert_eq!(ax.n, ay.n);
    debug_assert_eq!(bx.n, by.n);
    if ax.n == 0 {
        return bc2;
    }
    if bx.n == 0 {
        return ac2;
    }
    let (na, nb) = (ax.n as f64, bx.n as f64);
    let n = na + nb;
    let dx = bx.mean - ax.mean;
    let dy = by.mean - ay.mean;
    ac2 + bc2 + dx * dy * na * nb / n
}

/// Comoment of one chunk given the chunk's own column means.
pub fn chunk_comoment(xs: &[f64], ys: &[f64], mx: f64, my: f64) -> f64 {
    xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum()
}

/// Lane width of the blocked cross-moment kernel: how many independent
/// pair accumulators [`chunk_comoment_lanes`] advances per row. Eight f64
/// lanes fill one AVX-512 register (two AVX2 registers) and leave the
/// scalar fallback loop short. Changing the width never changes any bit —
/// lanes are independent reductions — only the blocking shape.
const COMOMENT_LANES: usize = 8;

/// Blocked comoment kernel: the comoments of one anchor column `xs`
/// against every partner column in `ys`, walking the chunk's rows once
/// with eight accumulators in flight.
///
/// Each lane performs exactly the operation sequence of
/// [`chunk_comoment`]`(xs, ys[k], mx, my[k])` — row-order adds from 0.0 —
/// so every output is bit-identical to the scalar kernel; the blocking
/// only interleaves *independent* accumulators so they autovectorize.
pub fn chunk_comoment_lanes(xs: &[f64], mx: f64, ys: &[&[f64]], my: &[f64], out: &mut [f64]) {
    debug_assert_eq!(ys.len(), my.len());
    debug_assert_eq!(ys.len(), out.len());
    /// One fixed-width block: `L` independent row-order accumulators.
    fn block<const L: usize>(xs: &[f64], mx: f64, ys: &[&[f64]], my: &[f64], out: &mut [f64]) {
        let n = xs.len();
        let mut acc = [0.0f64; L];
        for y in &ys[..L] {
            debug_assert_eq!(y.len(), n);
        }
        for (r, &x) in xs.iter().enumerate() {
            let d = x - mx;
            for k in 0..L {
                acc[k] += d * (ys[k][r] - my[k]);
            }
        }
        out[..L].copy_from_slice(&acc);
    }
    let mut at = 0;
    while ys.len() - at >= COMOMENT_LANES {
        block::<COMOMENT_LANES>(xs, mx, &ys[at..], &my[at..], &mut out[at..]);
        at += COMOMENT_LANES;
    }
    match ys.len() - at {
        0 => {}
        1 => block::<1>(xs, mx, &ys[at..], &my[at..], &mut out[at..]),
        2 => block::<2>(xs, mx, &ys[at..], &my[at..], &mut out[at..]),
        3 => block::<3>(xs, mx, &ys[at..], &my[at..], &mut out[at..]),
        4 => block::<4>(xs, mx, &ys[at..], &my[at..], &mut out[at..]),
        5 => block::<5>(xs, mx, &ys[at..], &my[at..], &mut out[at..]),
        6 => block::<6>(xs, mx, &ys[at..], &my[at..], &mut out[at..]),
        _ => block::<7>(xs, mx, &ys[at..], &my[at..], &mut out[at..]),
    }
}

/// Canonical moments of a full column: fold [`MOMENT_CHUNK`]-sized chunk
/// summaries in row order.
pub fn column_moments(xs: &[f64]) -> ColMoments {
    xs.chunks(MOMENT_CHUNK)
        .map(ColMoments::of_chunk)
        .fold(ColMoments::EMPTY, merge_col_moments)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    column_moments(xs).mean
}

/// Unbiased sample variance (n−1 denominator); 0 for fewer than 2 points.
pub fn variance(xs: &[f64]) -> f64 {
    variance_of(column_moments(xs))
}

/// Sample variance from a moment summary (shared by the cached and the
/// direct computation paths so their bits agree).
pub fn variance_of(m: ColMoments) -> f64 {
    if m.n < 2 {
        return 0.0;
    }
    m.m2 / (m.n - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median (average of the two central order statistics for even n).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (type-7, the numpy default).
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Minimum; `None` if empty or any NaN.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .try_fold(f64::INFINITY, |acc, x| {
            if x.is_nan() {
                None
            } else {
                Some(acc.min(x))
            }
        })
        .filter(|_| !xs.is_empty())
}

/// Maximum; `None` if empty or any NaN.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .try_fold(f64::NEG_INFINITY, |acc, x| {
            if x.is_nan() {
                None
            } else {
                Some(acc.max(x))
            }
        })
        .filter(|_| !xs.is_empty())
}

/// Mean absolute percentage error, skipping reference values within
/// `1e-9` of zero (matching the common implementation used in the
/// performance-modeling literature the paper builds on).
pub fn mape(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "length mismatch");
    let mut total = 0.0;
    let mut n = 0usize;
    for (a, p) in actual.iter().zip(predicted) {
        if a.abs() > 1e-9 {
            total += ((a - p) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * total / n as f64
    }
}

/// Coefficient of determination R².
pub fn r_squared(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "length mismatch");
    let m = mean(actual);
    let ss_tot: f64 = actual.iter().map(|a| (a - m) * (a - m)).sum();
    let ss_res: f64 = actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p) * (a - p))
        .sum();
    if ss_tot < 1e-12 {
        return if ss_res < 1e-12 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance of this classic example is 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!((quantile(&xs, 0.0) - 10.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 40.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_reference() {
        let m = mape(&[0.0, 10.0], &[5.0, 9.0]);
        assert!((m - 10.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_perfect_fit() {
        let xs = [1.0, 2.0, 3.0];
        assert!((r_squared(&xs, &xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_handle_empty() {
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(min(&[2.0, 1.0, 3.0]), Some(1.0));
        assert_eq!(max(&[2.0, 1.0, 3.0]), Some(3.0));
    }
}
