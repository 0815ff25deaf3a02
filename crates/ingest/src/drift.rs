//! Change detection over normalized SCM prediction residuals.
//!
//! A well-fitted model's residuals on in-distribution rows hover around
//! zero at roughly unit scale (they are normalized by the training
//! residual RMS). An environment shift — new hardware, a workload-scale
//! flip — moves the residual mean away from zero, and a sequential
//! change detector notices: Page-Hinkley, a pure fold over the
//! residual stream (no clocks, no randomness), so the trigger row is a
//! deterministic function of the rows alone. It tracks the cumulative
//! deviation of each sample from the running mean, minus a drift
//! allowance `delta`, and triggers when the cumulation departs more than
//! `lambda` from its running extremum (two-sided).
//!
//! [`DriftBank`] runs one detector per objective and reports the first
//! objective that trips (lowest index wins on ties — a fixed scan
//! order, so multi-objective triggering is deterministic too).

/// Deterministic drift-detection thresholds. All magnitudes are in units
/// of the training residual RMS (the ingest pipeline normalizes residuals
/// before they reach a detector).
#[derive(Debug, Clone, Copy)]
pub struct DriftOptions {
    /// Drift allowance / slack per sample (RMS units): deviations smaller
    /// than this accumulate nothing, making the detectors robust to the
    /// fitted model's ordinary noise floor.
    pub delta: f64,
    /// Trigger threshold on the accumulated deviation (RMS units).
    pub lambda: f64,
    /// Samples a detector must see before it may trigger — guards the
    /// running mean against cold-start transients.
    pub min_rows: usize,
    /// Staleness fallback: relearn after this many ingested rows even
    /// without a trigger, so a drift too slow for the detector still gets
    /// folded in on a bounded cadence.
    pub max_staleness_rows: usize,
}

impl Default for DriftOptions {
    fn default() -> Self {
        Self {
            delta: 0.1,
            lambda: 8.0,
            min_rows: 12,
            max_staleness_rows: 256,
        }
    }
}

/// Page-Hinkley test state for one objective: the classic pair of
/// cumulative-deviation sums (one biased `−delta` for increase
/// detection, one biased `+delta` for decrease detection), each tested
/// against its running extremum. A single shared sum would drift by
/// `delta` per sample and false-trigger the opposite side on pure noise.
#[derive(Debug, Clone)]
struct PageHinkley {
    delta: f64,
    lambda: f64,
    min_rows: usize,
    n: u64,
    mean: f64,
    m_inc: f64,
    min_inc: f64,
    m_dec: f64,
    max_dec: f64,
}

impl PageHinkley {
    /// Fresh detector state with the given thresholds.
    fn new(delta: f64, lambda: f64, min_rows: usize) -> Self {
        Self {
            delta,
            lambda,
            min_rows,
            n: 0,
            mean: 0.0,
            m_inc: 0.0,
            min_inc: 0.0,
            m_dec: 0.0,
            max_dec: 0.0,
        }
    }

    /// Folds one normalized residual; true when either side trips.
    fn update(&mut self, x: f64) -> bool {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        let dev = x - self.mean;
        self.m_inc += dev - self.delta;
        self.min_inc = self.min_inc.min(self.m_inc);
        self.m_dec += dev + self.delta;
        self.max_dec = self.max_dec.max(self.m_dec);
        self.n as usize >= self.min_rows
            && (self.m_inc - self.min_inc > self.lambda || self.max_dec - self.m_dec > self.lambda)
    }

    /// Back to the fresh state (after a relearn re-baselines residuals).
    fn reset(&mut self) {
        *self = Self::new(self.delta, self.lambda, self.min_rows);
    }
}

/// One detector per objective, observed in lockstep per row.
#[derive(Debug, Clone)]
pub struct DriftBank {
    detectors: Vec<PageHinkley>,
}

impl DriftBank {
    /// A bank of `n_objectives` fresh detectors.
    pub fn new(n_objectives: usize, opts: &DriftOptions) -> Self {
        let detector = PageHinkley::new(opts.delta, opts.lambda, opts.min_rows);
        Self {
            detectors: vec![detector; n_objectives],
        }
    }

    /// Folds one row's normalized residuals (one per objective, in
    /// objective order) into every detector, returning the index of the
    /// first objective that trips — lowest index wins on ties. Every
    /// detector is updated even when an earlier one trips, so the fold
    /// is the same whether or not the caller acts on the trigger.
    ///
    /// # Panics
    ///
    /// Panics when `residuals` does not have one entry per objective.
    pub fn observe(&mut self, residuals: &[f64]) -> Option<usize> {
        assert_eq!(
            residuals.len(),
            self.detectors.len(),
            "one residual per objective"
        );
        let mut hit = None;
        for (i, (d, &x)) in self.detectors.iter_mut().zip(residuals).enumerate() {
            if d.update(x) && hit.is_none() {
                hit = Some(i);
            }
        }
        hit
    }

    /// Resets every detector to fresh state (after a relearn publishes a
    /// new model and the residual baseline moves).
    pub fn reset(&mut self) {
        for d in &mut self.detectors {
            d.reset();
        }
    }

    /// Number of objectives (detectors) in the bank.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// True when the bank watches no objectives.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trigger_row(opts: &DriftOptions, stream: &[f64]) -> Option<usize> {
        let mut bank = DriftBank::new(1, opts);
        for (i, &x) in stream.iter().enumerate() {
            if bank.observe(&[x]).is_some() {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn page_hinkley_ignores_noise_and_catches_a_mean_shift() {
        let opts = DriftOptions::default();
        // Zero-mean alternating noise at the RMS scale: no trigger.
        let noise: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 0.9 } else { -0.9 })
            .collect();
        assert_eq!(trigger_row(&opts, &noise), None);
        // The same noise, then a +3·RMS mean shift: triggers, and after
        // the shift point.
        let mut shifted = noise.clone();
        shifted.extend((0..100).map(|i| 3.0 + if i % 2 == 0 { 0.9 } else { -0.9 }));
        let row = trigger_row(&opts, &shifted).expect("shift must trigger");
        assert!(row >= 200, "trigger {row} before the planted shift");
    }

    #[test]
    fn detectors_are_two_sided() {
        let opts = DriftOptions::default();
        // A settled zero baseline, then a −3·RMS shift.
        let mut down: Vec<f64> = vec![0.0; 20];
        down.extend(std::iter::repeat_n(-3.0, 50));
        let row = trigger_row(&opts, &down).expect("must catch a downward shift");
        assert!(row >= 20, "triggered at {row}, before the shift");
    }

    #[test]
    fn min_rows_gates_cold_start() {
        let opts = DriftOptions::default();
        // A zero baseline followed by huge deviations: the accumulated
        // evidence crosses lambda almost immediately, but the gate holds
        // the trigger until min_rows samples have been seen.
        let mut bank = DriftBank::new(1, &opts);
        let mut trigger = None;
        for i in 0..opts.min_rows + 5 {
            let x = if i < 5 { 0.0 } else { 100.0 };
            if bank.observe(&[x]).is_some() {
                trigger = Some(i);
                break;
            }
        }
        assert_eq!(
            trigger,
            Some(opts.min_rows - 1),
            "trigger must land exactly when the cold-start gate lifts"
        );
    }

    #[test]
    fn first_objective_wins_ties_and_reset_rearms() {
        let opts = DriftOptions::default();
        let mut bank = DriftBank::new(3, &opts);
        // A settled baseline, then an identical shift on every
        // objective: all three detectors trip on the same row.
        let mut hit = None;
        for i in 0..200 {
            let x = if i < 20 { 0.0 } else { 5.0 };
            hit = bank.observe(&[x, x, x]);
            if hit.is_some() {
                break;
            }
        }
        assert_eq!(hit, Some(0), "fixed scan order: lowest index wins");
        bank.reset();
        assert_eq!(bank.observe(&[5.0, 5.0, 5.0]), None, "reset re-arms");
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
    }
}
