//! Pareto fronts and the hypervolume indicator, used by the multi-objective
//! evaluation (§7, Fig 15) following Zitzler et al.'s hypervolume-error
//! methodology. All objectives are **minimized**.

/// Returns true iff `a` Pareto-dominates `b` (no worse everywhere, strictly
/// better somewhere), minimizing each coordinate.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Extracts the Pareto-optimal subset (indices into `points`).
pub fn pareto_front_indices(points: &[Vec<f64>]) -> Vec<usize> {
    let mut front = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i != j && (dominates(q, p) || (q == p && j < i)) {
                continue 'outer;
            }
        }
        front.push(i);
    }
    front
}

/// Extracts the Pareto-optimal points themselves.
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    pareto_front_indices(points)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}

/// Staircase sweep over `(x, y)` pairs sorted ascending in `x`: the area of
/// the union of rectangles `[x, r0] × [y, r1]`. Dominated pairs contribute
/// nothing, so callers need not pre-extract a Pareto front.
fn hv2d_sweep(pts: &mut [(f64, f64)], r: &[f64; 2]) -> f64 {
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in hypervolume"));
    let mut hv = 0.0;
    let mut best_y = r[1];
    for &(x, y) in pts.iter() {
        if y < best_y {
            hv += (r[0] - x) * (best_y - y);
            best_y = y;
        }
    }
    hv
}

/// 2-D hypervolume dominated by `front` with respect to reference point
/// `r` (both objectives minimized; points beyond the reference contribute
/// nothing). Sweep over the first objective.
pub fn hypervolume_2d(front: &[Vec<f64>], r: &[f64; 2]) -> f64 {
    let mut pts: Vec<(f64, f64)> = front
        .iter()
        .filter(|p| p[0] < r[0] && p[1] < r[1])
        .map(|p| (p[0], p[1]))
        .collect();
    hv2d_sweep(&mut pts, r)
}

/// Hypervolume error of an approximation front against a reference front:
/// `(HV(reference) − HV(approx)) / HV(reference)`, clamped at 0
/// (Zitzler et al. 2007, as used in the paper's Fig 15c).
pub fn hypervolume_error(approx: &[Vec<f64>], reference: &[Vec<f64>], ref_point: &[f64; 2]) -> f64 {
    let hv_ref = hypervolume_2d(reference, ref_point);
    if hv_ref <= 0.0 {
        return 0.0;
    }
    let hv_apx = hypervolume_2d(approx, ref_point);
    ((hv_ref - hv_apx) / hv_ref).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basic() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
    }

    #[test]
    fn front_extraction() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![3.0, 3.0], // dominated by (2,2)
            vec![2.0, 2.0], // duplicate — only one copy kept
        ];
        let front = pareto_front_indices(&pts);
        assert_eq!(front, vec![0, 1, 2]);
    }

    #[test]
    fn hypervolume_single_point() {
        let hv = hypervolume_2d(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_staircase() {
        let front = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        // Union of rectangles wrt (4,4): 3 + 2 + 1 + ... compute directly:
        // sweep: (1,3): (4-1)*(4-3)=3; (2,2): (4-2)*(3-2)=2; (3,1): (4-3)*(2-1)=1.
        let hv = hypervolume_2d(&front, &[4.0, 4.0]);
        assert!((hv - 6.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_monotone_in_points() {
        let f1 = vec![vec![2.0, 2.0]];
        let f2 = vec![vec![2.0, 2.0], vec![1.0, 3.0]];
        let r = [4.0, 4.0];
        assert!(hypervolume_2d(&f2, &r) >= hypervolume_2d(&f1, &r));
    }

    #[test]
    fn hypervolume_error_zero_for_same_front() {
        let f = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        assert_eq!(hypervolume_error(&f, &f, &[5.0, 5.0]), 0.0);
        let worse = vec![vec![3.0, 3.0]];
        assert!(hypervolume_error(&worse, &f, &[5.0, 5.0]) > 0.0);
    }

    #[test]
    fn points_beyond_reference_ignored() {
        let hv = hypervolume_2d(&[vec![5.0, 5.0]], &[3.0, 3.0]);
        assert_eq!(hv, 0.0);
    }
}
