//! Shared machinery for the debugging baselines: pass/fail sampling, the
//! fix-probing loop, and the common outcome type.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unicorn_systems::{Config, Fault, FaultCatalog, Simulator};

/// Measurement budget of a baseline debugging run.
#[derive(Debug, Clone)]
pub struct DebugBudget {
    /// Observational samples the method may label pass/fail.
    pub n_samples: usize,
    /// Candidate fixes the method may measure.
    pub n_probes: usize,
}

impl Default for DebugBudget {
    fn default() -> Self {
        Self {
            n_samples: 60,
            n_probes: 10,
        }
    }
}

/// Outcome of a baseline debugging run.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Best configuration found.
    pub best_config: Config,
    /// Its measured objectives.
    pub best_objectives: Vec<f64>,
    /// Diagnosed root-cause options.
    pub diagnosed_options: Vec<usize>,
    /// Whether the QoS goal was met.
    pub fixed: bool,
    /// Total measurements (samples + probes).
    pub n_measurements: usize,
    /// Wall-clock seconds.
    pub wall_time_s: f64,
}

/// A debugging baseline.
pub trait Debugger {
    /// Method name for reports.
    fn name(&self) -> &'static str;
    /// Diagnoses and repairs `fault`.
    fn debug(
        &self,
        sim: &Simulator,
        fault: &Fault,
        catalog: &FaultCatalog,
        budget: &DebugBudget,
        seed: u64,
    ) -> BaselineOutcome;
}

/// A labeled observational sample set.
pub struct LabeledSamples {
    /// Configurations.
    pub configs: Vec<Config>,
    /// Failure labels aligned with `configs` (true = faulty).
    pub failing: Vec<bool>,
    /// Measured objective vectors.
    pub objectives: Vec<Vec<f64>>,
}

/// Draws and labels `n` random configurations: a sample fails when any of
/// the fault's violated objectives exceeds the catalog threshold. The
/// fault itself is appended as a guaranteed failing example.
pub fn sample_labeled(
    sim: &Simulator,
    fault: &Fault,
    catalog: &FaultCatalog,
    n: usize,
    seed: u64,
) -> LabeledSamples {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut configs: Vec<Config> = (0..n.saturating_sub(1))
        .map(|_| sim.model.space.random_config(&mut rng))
        .collect();
    configs.push(fault.config.clone());
    let mut failing = Vec::with_capacity(configs.len());
    let mut objectives = Vec::with_capacity(configs.len());
    for c in &configs {
        let s = sim.measure(c);
        let fail = fault
            .objectives
            .iter()
            .any(|&o| s.objectives[o] > catalog.thresholds[o]);
        failing.push(fail);
        objectives.push(s.objectives);
    }
    LabeledSamples {
        configs,
        failing,
        objectives,
    }
}

/// QoS check for a repair: all violated objectives at or below the
/// catalog repair targets (same goal Unicorn uses).
pub fn meets_goal(fault: &Fault, catalog: &FaultCatalog, objectives: &[f64]) -> bool {
    fault
        .objectives
        .iter()
        .all(|&o| objectives[o] <= catalog.targets[o])
}

/// Probes candidate fixes in order, tracking the best configuration on the
/// violated objectives; stops at the first fix meeting the goal or when
/// the probe budget is exhausted.
#[allow(clippy::too_many_arguments)]
pub fn probe_fixes(
    sim: &Simulator,
    fault: &Fault,
    catalog: &FaultCatalog,
    candidates: &[Config],
    max_probes: usize,
    prior_measurements: usize,
    diagnosed_options: Vec<usize>,
    start: Instant,
) -> BaselineOutcome {
    let fault_sample = sim.measure(&fault.config);
    let mut best_config = fault.config.clone();
    let mut best_objectives = fault_sample.objectives;
    let mut n = prior_measurements + 1;
    let mut fixed = false;
    for c in candidates.iter().take(max_probes) {
        let s = sim.measure(c);
        n += 1;
        let better = fault
            .objectives
            .iter()
            .all(|&o| s.objectives[o] <= best_objectives[o]);
        if better {
            best_config = c.clone();
            best_objectives = s.objectives.clone();
        }
        if meets_goal(fault, catalog, &s.objectives) {
            best_config = c.clone();
            best_objectives = s.objectives;
            fixed = true;
            break;
        }
    }
    // The diagnosis reported is the changed-option set of the best config.
    let diagnosed = if best_config == fault.config {
        diagnosed_options
    } else {
        sim.model.space.changed_options(&fault.config, &best_config)
    };
    BaselineOutcome {
        best_config,
        best_objectives,
        diagnosed_options: diagnosed,
        fixed,
        n_measurements: n,
        wall_time_s: start.elapsed().as_secs_f64(),
    }
}

/// Feature matrix (row-major, raw option values) of a config list.
pub fn feature_rows(configs: &[Config]) -> Vec<Vec<f64>> {
    configs.iter().map(|c| c.values.clone()).collect()
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use unicorn_systems::{
        discover_faults, Environment, FaultDiscoveryOptions, Hardware, SubjectSystem,
    };

    /// A small shared fixture: x264 on TX2 with its fault catalog.
    pub fn x264_fixture() -> (Simulator, FaultCatalog) {
        let sim = Simulator::new(
            SubjectSystem::X264.build(),
            Environment::on(Hardware::Tx2),
            13,
        );
        let catalog = discover_faults(
            &sim,
            &FaultDiscoveryOptions {
                n_samples: 500,
                ace_bases: 4,
                ..Default::default()
            },
        );
        (sim, catalog)
    }

    /// A latency fault from the fixture.
    pub fn latency_fault(catalog: &FaultCatalog) -> &Fault {
        catalog
            .faults
            .iter()
            .find(|f| f.objectives.contains(&0))
            .unwrap_or(&catalog.faults[0])
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;

    #[test]
    fn labeling_marks_the_fault_failing() {
        let (sim, catalog) = x264_fixture();
        let fault = latency_fault(&catalog);
        let s = sample_labeled(&sim, fault, &catalog, 20, 3);
        assert_eq!(s.configs.len(), 20);
        assert!(
            *s.failing.last().unwrap(),
            "fault row must be labeled failing"
        );
        // Most random configs pass (faults are 1% tails).
        let fails = s.failing.iter().filter(|&&f| f).count();
        assert!(fails <= 6, "too many failures: {fails}");
    }

    #[test]
    fn probing_tracks_best_and_counts_measurements() {
        let (sim, catalog) = x264_fixture();
        let fault = latency_fault(&catalog);
        let candidates = vec![sim.model.space.default_config()];
        let out = probe_fixes(
            &sim,
            fault,
            &catalog,
            &candidates,
            5,
            7,
            vec![],
            Instant::now(),
        );
        assert!(out.n_measurements >= 8); // 7 prior + fault + ≥0 probes
        assert!(out.best_objectives[0] > 0.0);
    }
}
