//! The Jetson-Faults ground truth: non-functional faults and their root
//! causes.
//!
//! Following §6 — "non-functional faults are located in the tail of
//! performance distributions; we therefore selected and labeled
//! configurations that are worse than the 99th percentile as faulty" —
//! faults are tail configurations of a large ground-truth sample. Because
//! the simulator exposes the true mechanisms, each fault can be labeled
//! with exact root causes: the options whose (single-option) correction
//! recovers a substantial share of the excess objective value. The paper
//! curated the equivalent labels manually.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unicorn_stats::quantile;

use crate::config::Config;
use crate::measurement::Simulator;

/// A labeled non-functional fault.
#[derive(Debug, Clone)]
pub struct Fault {
    /// The faulty configuration.
    pub config: Config,
    /// Objective indices violated (99th-percentile exceedances).
    pub objectives: Vec<usize>,
    /// Ground-truth (noiseless) objective values at the fault.
    pub true_objectives: Vec<f64>,
    /// Ground-truth root causes: option indices.
    pub root_causes: BTreeSet<usize>,
}

impl Fault {
    /// True if the fault violates more than one objective.
    pub fn is_multi_objective(&self) -> bool {
        self.objectives.len() > 1
    }
}

/// The fault catalog for one system × environment.
#[derive(Debug, Clone)]
pub struct FaultCatalog {
    /// The faults.
    pub faults: Vec<Fault>,
    /// Per-objective fault thresholds (99th percentile of the sample).
    pub thresholds: Vec<f64>,
    /// Per-objective median of the sample.
    pub medians: Vec<f64>,
    /// Per-objective repair target: the 10th percentile — a repair counts
    /// as a full fix when it lands among the best decile (the paper's
    /// repairs reach 70–90% gains, i.e. near-optimal performance, not
    /// merely typical performance).
    pub targets: Vec<f64>,
    /// Ground-truth per-option ACE weights per objective
    /// (`ace_weights[obj][option]`) — the weight vector of the accuracy
    /// metric (§6).
    pub ace_weights: Vec<Vec<f64>>,
}

/// Options for fault discovery.
#[derive(Debug, Clone)]
pub struct FaultDiscoveryOptions {
    /// Sample size for the performance distribution.
    pub n_samples: usize,
    /// Fault percentile (paper: 0.99).
    pub percentile: f64,
    /// An option is a root cause if fixing it alone recovers at least this
    /// fraction of the fault's gap to the median (the distance a real
    /// repair must cover).
    pub root_cause_share: f64,
    /// Base configurations for the true-ACE estimates.
    pub ace_bases: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FaultDiscoveryOptions {
    fn default() -> Self {
        Self {
            n_samples: 2000,
            percentile: 0.99,
            root_cause_share: 0.30,
            ace_bases: 24,
            seed: 0xFA017,
        }
    }
}

/// Ground-truth improvement achievable by re-tuning a single option of a
/// faulty configuration (noiseless evaluation over the option's grid).
fn single_option_recovery(sim: &Simulator, fault: &Config, option: usize, objective: usize) -> f64 {
    let baseline = sim.true_objectives(fault)[objective];
    let mut best = baseline;
    for &v in &sim.model.space.option(option).values {
        if (v - fault.values[option]).abs() < 1e-12 {
            continue;
        }
        let mut c = fault.clone();
        c.values[option] = v;
        let obj = sim.true_objectives(&c)[objective];
        if obj < best {
            best = obj;
        }
    }
    baseline - best
}

/// Ground-truth per-option ACE on an objective: mean absolute change of
/// the noiseless objective when sweeping the option's grid, averaged over
/// random base configurations.
fn true_option_ace(
    sim: &Simulator,
    option: usize,
    objective: usize,
    bases: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ (option as u64) << 8);
    let mut total = 0.0;
    for _ in 0..bases {
        let base = sim.model.space.random_config(&mut rng);
        let grid = &sim.model.space.option(option).values;
        let mut objs = Vec::with_capacity(grid.len());
        for &v in grid {
            let mut c = base.clone();
            c.values[option] = v;
            objs.push(sim.true_objectives(&c)[objective]);
        }
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..objs.len() {
            for j in i + 1..objs.len() {
                sum += (objs[j] - objs[i]).abs();
                pairs += 1;
            }
        }
        if pairs > 0 {
            total += sum / pairs as f64;
        }
    }
    total / bases.max(1) as f64
}

/// Discovers and labels faults for a simulator.
pub fn discover_faults(sim: &Simulator, opts: &FaultDiscoveryOptions) -> FaultCatalog {
    let n_obj = sim.model.n_objectives();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // Sample the performance distribution (noiseless ground truth:
    // the paper's repeated-measurement medians play the same role).
    let configs: Vec<Config> = (0..opts.n_samples)
        .map(|_| sim.model.space.random_config(&mut rng))
        .collect();
    let objectives: Vec<Vec<f64>> = configs.iter().map(|c| sim.true_objectives(c)).collect();

    let mut thresholds = Vec::with_capacity(n_obj);
    let mut medians = Vec::with_capacity(n_obj);
    let mut targets = Vec::with_capacity(n_obj);
    for o in 0..n_obj {
        let col: Vec<f64> = objectives.iter().map(|v| v[o]).collect();
        thresholds.push(quantile(&col, opts.percentile));
        medians.push(quantile(&col, 0.5));
        targets.push(quantile(&col, 0.10));
    }

    let mut faults = Vec::new();
    for (c, obj) in configs.iter().zip(&objectives) {
        let violated: Vec<usize> = (0..n_obj).filter(|&o| obj[o] > thresholds[o]).collect();
        if violated.is_empty() {
            continue;
        }
        // Root causes: options that individually recover a share of the
        // fault-to-median gap on any violated objective. (Measuring the
        // share against the tiny fault-to-threshold excess would label
        // nearly every option a cause for faults sitting just past the
        // 99th percentile.)
        let mut causes = BTreeSet::new();
        for &o in &violated {
            let excess = obj[o] - medians[o];
            if excess <= 0.0 {
                continue;
            }
            for opt_idx in 0..sim.model.n_options() {
                let rec = single_option_recovery(sim, c, opt_idx, o);
                if rec >= opts.root_cause_share * excess {
                    causes.insert(opt_idx);
                }
            }
        }
        if causes.is_empty() {
            // Purely emergent fault (no single-option fix): attribute to
            // the single best recovering option so every fault has ≥1
            // labeled cause, as in the paper's curated set.
            let mut best = (0usize, f64::NEG_INFINITY);
            for opt_idx in 0..sim.model.n_options() {
                let rec = single_option_recovery(sim, c, opt_idx, violated[0]);
                if rec > best.1 {
                    best = (opt_idx, rec);
                }
            }
            causes.insert(best.0);
        }
        faults.push(Fault {
            config: c.clone(),
            objectives: violated,
            true_objectives: obj.clone(),
            root_causes: causes,
        });
    }

    // Ground-truth ACE weights per objective.
    let mut ace_weights = Vec::with_capacity(n_obj);
    for o in 0..n_obj {
        let w: Vec<f64> = (0..sim.model.n_options())
            .map(|i| true_option_ace(sim, i, o, opts.ace_bases, opts.seed))
            .collect();
        ace_weights.push(w);
    }

    FaultCatalog {
        faults,
        thresholds,
        medians,
        targets,
        ace_weights,
    }
}

impl FaultCatalog {
    /// Faults violating exactly the given objective (single-objective).
    pub fn single_objective(&self, objective: usize) -> Vec<&Fault> {
        self.faults
            .iter()
            .filter(|f| f.objectives == vec![objective])
            .collect()
    }

    /// Faults violating at least the given set of objectives.
    pub fn multi_objective(&self, objectives: &[usize]) -> Vec<&Fault> {
        self.faults
            .iter()
            .filter(|f| objectives.iter().all(|o| f.objectives.contains(o)))
            .filter(|f| f.objectives.len() > 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::{Environment, Hardware};
    use crate::systems::SubjectSystem;

    fn catalog() -> (Simulator, FaultCatalog) {
        let sim = Simulator::new(
            SubjectSystem::X264.build(),
            Environment::on(Hardware::Tx2),
            5,
        );
        let opts = FaultDiscoveryOptions {
            n_samples: 600,
            ace_bases: 6,
            ..Default::default()
        };
        let cat = discover_faults(&sim, &opts);
        (sim, cat)
    }

    #[test]
    fn tail_definition_yields_about_one_percent() {
        let (_, cat) = catalog();
        // 600 samples × 3 objectives × 1% ≈ 18 violations; faults can
        // overlap objectives so allow a broad band.
        assert!(
            (4..=40).contains(&cat.faults.len()),
            "found {} faults",
            cat.faults.len()
        );
    }

    #[test]
    fn faults_exceed_thresholds() {
        let (_, cat) = catalog();
        for f in &cat.faults {
            for &o in &f.objectives {
                assert!(f.true_objectives[o] > cat.thresholds[o]);
            }
        }
    }

    #[test]
    fn every_fault_has_root_causes() {
        let (_, cat) = catalog();
        for f in &cat.faults {
            assert!(!f.root_causes.is_empty());
        }
    }

    #[test]
    fn root_causes_actually_recover() {
        let (sim, cat) = catalog();
        let f = &cat.faults[0];
        let o = f.objectives[0];
        let baseline = f.true_objectives[o];
        // Fixing all labeled root causes jointly (each to its best value)
        // must improve the objective substantially.
        let mut fixed = f.config.clone();
        for &rc in &f.root_causes {
            let mut best_v = fixed.values[rc];
            let mut best = sim.true_objectives(&fixed)[o];
            for &v in &sim.model.space.option(rc).values {
                let mut c = fixed.clone();
                c.values[rc] = v;
                let val = sim.true_objectives(&c)[o];
                if val < best {
                    best = val;
                    best_v = v;
                }
            }
            fixed.values[rc] = best_v;
        }
        let after = sim.true_objectives(&fixed)[o];
        assert!(
            after < baseline,
            "repairing root causes did not help: {after} vs {baseline}"
        );
    }

    #[test]
    fn ace_weights_are_nonnegative_and_informative() {
        let (sim, cat) = catalog();
        for w in &cat.ace_weights {
            assert_eq!(w.len(), sim.model.n_options());
            assert!(w.iter().all(|&x| x >= 0.0));
            assert!(w.iter().any(|&x| x > 0.0));
        }
    }
}
