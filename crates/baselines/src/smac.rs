//! SMAC (Hutter et al., LION'11): sequential model-based algorithm
//! configuration — a random-forest surrogate over configurations, expected
//! improvement acquisition over a local + random candidate pool, and
//! interleaved random picks for theoretical convergence.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unicorn_systems::{Config, Fault, FaultCatalog, Simulator};

use crate::common::{meets_goal, BaselineOutcome, DebugBudget};
use crate::forest::{expected_improvement, ForestOptions, RandomForest};

/// SMAC hyperparameters.
#[derive(Debug, Clone)]
pub struct SmacOptions {
    /// Initial random design size.
    pub n_init: usize,
    /// Total measurement budget (including the initial design).
    pub budget: usize,
    /// Candidates scored per iteration.
    pub n_candidates: usize,
    /// Every k-th pick is uniformly random (SMAC's interleaving).
    pub random_interleave: usize,
    /// Forest settings.
    pub forest: ForestOptions,
    /// Seed.
    pub seed: u64,
}

impl Default for SmacOptions {
    fn default() -> Self {
        Self {
            n_init: 15,
            budget: 60,
            n_candidates: 40,
            random_interleave: 9,
            forest: ForestOptions {
                n_trees: 16,
                ..Default::default()
            },
            seed: 0x5AC,
        }
    }
}

/// Outcome of a SMAC run.
#[derive(Debug, Clone)]
pub struct SmacOutcome {
    /// Best configuration.
    pub best_config: Config,
    /// Best measured objective.
    pub best_value: f64,
    /// Best-so-far after every measurement.
    pub history: Vec<f64>,
    /// Wall-clock seconds.
    pub wall_time_s: f64,
}

/// Minimizes `objective_idx` of the simulator.
pub fn smac_optimize(sim: &Simulator, objective_idx: usize, opts: &SmacOptions) -> SmacOutcome {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut configs: Vec<Config> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut history = Vec::new();

    let measure =
        |c: &Config, xs: &mut Vec<Vec<f64>>, configs: &mut Vec<Config>, ys: &mut Vec<f64>| {
            let s = sim.measure(c);
            xs.push(c.values.clone());
            configs.push(c.clone());
            ys.push(s.objectives[objective_idx]);
        };

    for _ in 0..opts.n_init.min(opts.budget) {
        let c = sim.model.space.random_config(&mut rng);
        measure(&c, &mut xs, &mut configs, &mut ys);
        history.push(best(&ys));
    }

    let mut iter = 0usize;
    while ys.len() < opts.budget {
        iter += 1;
        let incumbent_idx = argmin(&ys);
        let incumbent = configs[incumbent_idx].clone();
        let next = if opts.random_interleave > 0 && iter.is_multiple_of(opts.random_interleave) {
            sim.model.space.random_config(&mut rng)
        } else {
            let forest = RandomForest::fit(
                &xs,
                &ys,
                &ForestOptions {
                    seed: opts.seed ^ iter as u64,
                    ..opts.forest.clone()
                },
            );
            // Candidate pool: local neighbours of the incumbent + random.
            let mut pool: Vec<Config> = sim.model.space.neighbors(&incumbent);
            while pool.len() < opts.n_candidates {
                pool.push(sim.model.space.random_config(&mut rng));
            }
            let best_y = ys[incumbent_idx];
            pool.into_iter()
                .max_by(|a, b| {
                    let (ma, va) = forest.predict_with_uncertainty(&a.values);
                    let (mb, vb) = forest.predict_with_uncertainty(&b.values);
                    expected_improvement(ma, va, best_y)
                        .partial_cmp(&expected_improvement(mb, vb, best_y))
                        .expect("NaN EI")
                })
                .expect("non-empty pool")
        };
        measure(&next, &mut xs, &mut configs, &mut ys);
        history.push(best(&ys));
    }

    let i = argmin(&ys);
    SmacOutcome {
        best_config: configs[i].clone(),
        best_value: ys[i],
        history,
        wall_time_s: start.elapsed().as_secs_f64(),
    }
}

/// SMAC used as a debugger (the §5 case study and Tables 2a/2b baselines):
/// optimize the violated objective, report the changed options as the
/// diagnosis.
pub fn smac_debug(
    sim: &Simulator,
    fault: &Fault,
    catalog: &FaultCatalog,
    budget: &DebugBudget,
    seed: u64,
) -> BaselineOutcome {
    let start = Instant::now();
    let objective = fault.objectives[0];
    let out = smac_optimize(
        sim,
        objective,
        &SmacOptions {
            n_init: (budget.n_samples / 4).max(5),
            budget: budget.n_samples + budget.n_probes,
            seed,
            ..Default::default()
        },
    );
    let s = sim.measure(&out.best_config);
    let fixed = meets_goal(fault, catalog, &s.objectives);
    BaselineOutcome {
        diagnosed_options: sim
            .model
            .space
            .changed_options(&fault.config, &out.best_config),
        best_config: out.best_config,
        best_objectives: s.objectives,
        fixed,
        n_measurements: budget.n_samples + budget.n_probes + 1,
        wall_time_s: start.elapsed().as_secs_f64(),
    }
}

fn best(ys: &[f64]) -> f64 {
    ys.iter().copied().fold(f64::INFINITY, f64::min)
}

fn argmin(ys: &[f64]) -> usize {
    ys.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN objective"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_systems::{Environment, Hardware, SubjectSystem};

    #[test]
    fn smac_beats_its_own_random_initialization() {
        let sim = Simulator::new(
            SubjectSystem::Xception.build(),
            Environment::on(Hardware::Tx2),
            31,
        );
        let out = smac_optimize(
            &sim,
            0,
            &SmacOptions {
                n_init: 10,
                budget: 30,
                ..Default::default()
            },
        );
        assert_eq!(out.history.len(), 30);
        // Best-so-far is monotone and the final value beats (or equals)
        // the initial design's best.
        for w in out.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(out.best_value <= out.history[9]);
    }

    #[test]
    fn smac_debug_reports_changes() {
        let (sim, catalog) = crate::common::fixtures::x264_fixture();
        let fault = crate::common::fixtures::latency_fault(&catalog);
        let out = smac_debug(
            &sim,
            fault,
            &catalog,
            &DebugBudget {
                n_samples: 25,
                n_probes: 5,
            },
            3,
        );
        let o = fault.objectives[0];
        assert!(sim.true_objectives(&out.best_config)[o] <= fault.true_objectives[o]);
        // SMAC changes many options relative to the fault (the paper's
        // criticism: it flips unrelated options).
        assert!(!out.diagnosed_options.is_empty());
    }
}
