//! Performance debugging with Unicorn (§4, evaluated in §7):
//! given an observed non-functional fault, iterate counterfactual repairs
//! until the objective returns within QoS or the budget runs out.

use std::time::Instant;

use unicorn_inference::QosGoal;
use unicorn_systems::{Config, Fault, FaultCatalog, Simulator};

use crate::unicorn::{UnicornOptions, UnicornState};

/// One iteration record of a debugging run (drives Fig 11 b–d).
#[derive(Debug, Clone)]
pub struct DebugIteration {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// The configuration measured this iteration.
    pub config: Config,
    /// Measured objective values.
    pub objectives: Vec<f64>,
    /// Options changed relative to the fault.
    pub changed_options: Vec<usize>,
}

/// Outcome of a debugging run.
#[derive(Debug, Clone)]
pub struct DebugOutcome {
    /// Best configuration found.
    pub best_config: Config,
    /// Its measured objectives.
    pub best_objectives: Vec<f64>,
    /// Options changed in the best configuration vs the fault — the
    /// diagnosis handed to the evaluation metrics.
    pub diagnosed_options: Vec<usize>,
    /// Whether QoS was met within budget.
    pub fixed: bool,
    /// Measurements spent (excluding the initial sample set).
    pub n_measurements: usize,
    /// Wall-clock seconds.
    pub wall_time_s: f64,
    /// Per-iteration trajectory.
    pub trajectory: Vec<DebugIteration>,
}

/// The QoS goal for a fault: every violated objective must reach the
/// catalog's repair target (best decile) — the paper's repairs restore
/// near-optimal, not merely typical, performance (§6 gains of 70–90%).
fn fault_goal(fault: &Fault, catalog: &FaultCatalog, data_objective_base: usize) -> QosGoal {
    QosGoal {
        thresholds: fault
            .objectives
            .iter()
            .map(|&o| (data_objective_base + o, catalog.targets[o]))
            .collect(),
    }
}

/// Runs Unicorn debugging on one fault.
pub fn debug_fault(
    sim: &Simulator,
    fault: &Fault,
    catalog: &FaultCatalog,
    opts: &UnicornOptions,
) -> DebugOutcome {
    let start = Instant::now();
    let mut state = UnicornState::bootstrap(sim, opts);
    debug_fault_with_state(sim, fault, catalog, opts, &mut state, start)
}

/// Debugging with a caller-provided state — the entry point reused by the
/// transfer experiments (the state may carry a model learned elsewhere).
pub fn debug_fault_with_state(
    sim: &Simulator,
    fault: &Fault,
    catalog: &FaultCatalog,
    opts: &UnicornOptions,
    state: &mut UnicornState,
    start: Instant,
) -> DebugOutcome {
    let obj_base = state.data.n_options + state.data.n_events;
    let goal = fault_goal(fault, catalog, obj_base);

    // Record the fault itself as an observation (Stage I: the observed
    // performance issue is part of the evidence).
    let fault_sample = sim.measure(&fault.config);
    state.record_sample(&fault_sample);
    let fault_row = state.data.n_rows() - 1;

    let mut best_config = fault.config.clone();
    let mut best_objectives = fault_sample.objectives.clone();
    // Repairs are generated relative to the best (still-faulty) measured
    // configuration: "in case our repairs do not fix the faults, we update
    // the observational data with this new configuration and repeat the
    // process" — multi-option fixes compose across iterations.
    let mut base_row = fault_row;
    let mut base_config = fault.config.clone();
    let mut trajectory = Vec::new();
    let mut tried: Vec<Config> = vec![fault.config.clone()];
    let mut stagnation = 0usize;
    let mut fixed = false;

    for iteration in 1..=opts.budget {
        let engine = state.engine(sim, opts);
        // Stage V: counterfactual repairs ranked by ICE.
        let repairs = engine.recommend_repairs(&goal, base_row);
        // Stage III: next configuration = best untried repair; when the
        // repair set is exhausted, relearn the structure from all data
        // (Stage IV) and fall back to ACE-guided exploration.
        let mut next: Option<Config> = None;
        for r in &repairs {
            // Skip repairs the counterfactual predicts to be useless or
            // harmful — measuring them teaches the model nothing a
            // cheaper exploration sample would not.
            if r.ice <= -1.0 + 1e-9 && r.improvement <= 0.0 {
                continue;
            }
            let mut c = base_config.clone();
            for &(o, v) in &r.assignments {
                c.values[o] = v;
            }
            if !tried.contains(&c) {
                next = Some(c);
                break;
            }
        }
        let next = match next {
            Some(c) => {
                stagnation = 0;
                c
            }
            None => {
                stagnation += 1;
                if stagnation >= opts.stagnation_limit {
                    break;
                }
                state.relearn(sim, opts);
                let objective = goal.thresholds[0].0;
                // Keep the already-working part of the fix pinned and
                // retry a few times for an unvisited configuration.
                let pinned = sim.model.space.changed_options(&best_config, &fault.config);
                let mut cand = None;
                for _ in 0..6 {
                    let c = state.ace_weighted_explore_excluding(
                        sim,
                        &engine,
                        objective,
                        &best_config,
                        2,
                        &pinned,
                    );
                    if !tried.contains(&c) {
                        cand = Some(c);
                        break;
                    }
                }
                match cand {
                    Some(c) => c,
                    None => continue,
                }
            }
        };
        tried.push(next.clone());

        // Stage IV: measure and update.
        let sample = state.measure_and_update(sim, opts, &next);
        trajectory.push(DebugIteration {
            iteration,
            config: next.clone(),
            objectives: sample.objectives.clone(),
            changed_options: sim.model.space.changed_options(&next, &fault.config),
        });

        // Track the best configuration by the violated objectives.
        let better = fault
            .objectives
            .iter()
            .all(|&o| sample.objectives[o] <= best_objectives[o]);
        if better {
            best_config = next.clone();
            best_objectives = sample.objectives.clone();
            base_row = state.data.n_rows() - 1;
            base_config = next.clone();
        }
        // Termination: QoS restored.
        let row = sample.row();
        if goal.satisfied(&row) {
            best_config = next;
            best_objectives = sample.objectives;
            fixed = true;
            break;
        }
    }

    let diagnosed_options = sim.model.space.changed_options(&best_config, &fault.config);

    DebugOutcome {
        best_config,
        best_objectives,
        diagnosed_options,
        fixed,
        // Total measurement cost including the bootstrap samples: the
        // cross-method comparisons charge every measurement equally.
        n_measurements: state.data.n_rows(),
        wall_time_s: start.elapsed().as_secs_f64(),
        trajectory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_systems::{
        discover_faults, Environment, FaultDiscoveryOptions, Hardware, SubjectSystem,
    };

    #[test]
    fn debugging_improves_a_latency_fault() {
        let sim = Simulator::new(
            SubjectSystem::X264.build(),
            Environment::on(Hardware::Tx2),
            11,
        );
        let catalog = discover_faults(
            &sim,
            &FaultDiscoveryOptions {
                n_samples: 500,
                ace_bases: 4,
                ..Default::default()
            },
        );
        let fault = catalog
            .faults
            .iter()
            .find(|f| f.objectives.contains(&0))
            .expect("a latency fault exists");
        let opts = UnicornOptions {
            initial_samples: 60,
            budget: 10,
            relearn_every: 4,
            ..Default::default()
        };
        let out = debug_fault(&sim, fault, &catalog, &opts);
        // The recommended fix must improve the faulty objective.
        let o = fault.objectives[0];
        let true_before = fault.true_objectives[o];
        let true_after = sim.true_objectives(&out.best_config)[o];
        assert!(
            true_after < true_before,
            "no improvement: {true_after} vs {true_before}"
        );
        assert!(!out.diagnosed_options.is_empty() || out.fixed);
        // Total cost = bootstrap + fault + at most `budget` probes.
        assert!(out.n_measurements <= opts.initial_samples + 1 + opts.budget);
        assert_eq!(out.trajectory.len().min(opts.budget), out.trajectory.len());
    }
}
