//! DD — delta debugging (Zeller's `ddmin`, per Artho 2011): minimizes the
//! set of option differences between the faulty configuration and a known
//! good one until a 1-minimal failure-inducing change set remains. The
//! repair reverts exactly that change set.

use std::time::Instant;

use unicorn_systems::{Config, Fault, FaultCatalog, Simulator};

use crate::common::{meets_goal, BaselineOutcome, DebugBudget, Debugger};

/// The delta-debugging baseline.
#[derive(Debug, Clone, Default)]
pub struct DeltaDebugging;

/// Measurement-counting oracle: does applying `delta` (option indices,
/// values taken from the fault) onto `base` reproduce the fault?
struct Oracle<'a> {
    sim: &'a Simulator,
    fault: &'a Fault,
    catalog: &'a FaultCatalog,
    base: Config,
    calls: usize,
    budget: usize,
}

impl Oracle<'_> {
    fn apply(&self, delta: &[usize]) -> Config {
        let mut c = self.base.clone();
        for &o in delta {
            c.values[o] = self.fault.config.values[o];
        }
        c
    }

    fn fails(&mut self, delta: &[usize]) -> Option<bool> {
        if self.calls >= self.budget {
            return None;
        }
        self.calls += 1;
        let s = self.sim.measure(&self.apply(delta));
        Some(
            self.fault
                .objectives
                .iter()
                .any(|&o| s.objectives[o] > self.catalog.thresholds[o]),
        )
    }
}

/// `ddmin`: splits the failing change set into `n` chunks, tries each chunk
/// and each complement, recursing on any failing reduction; stops at
/// 1-minimality or budget exhaustion.
fn ddmin(oracle: &mut Oracle<'_>, mut delta: Vec<usize>) -> Vec<usize> {
    let mut n = 2usize;
    while delta.len() >= 2 {
        let chunk = delta.len().div_ceil(n);
        let chunks: Vec<Vec<usize>> = delta.chunks(chunk).map(<[usize]>::to_vec).collect();
        let mut reduced = false;
        // Try each chunk alone.
        for c in &chunks {
            match oracle.fails(c) {
                None => return delta,
                Some(true) => {
                    delta = c.clone();
                    n = 2;
                    reduced = true;
                    break;
                }
                Some(false) => {}
            }
        }
        if reduced {
            continue;
        }
        // Try complements.
        if n > 2 || chunks.len() > 2 {
            for (i, _) in chunks.iter().enumerate() {
                let complement: Vec<usize> = chunks
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .flat_map(|(_, c)| c.iter().copied())
                    .collect();
                if complement.is_empty() {
                    continue;
                }
                match oracle.fails(&complement) {
                    None => return delta,
                    Some(true) => {
                        delta = complement;
                        n = (n - 1).max(2);
                        reduced = true;
                        break;
                    }
                    Some(false) => {}
                }
            }
        }
        if reduced {
            continue;
        }
        // Increase granularity.
        if n >= delta.len() {
            break;
        }
        n = (2 * n).min(delta.len());
    }
    delta
}

impl Debugger for DeltaDebugging {
    fn name(&self) -> &'static str {
        "DD"
    }

    fn debug(
        &self,
        sim: &Simulator,
        fault: &Fault,
        catalog: &FaultCatalog,
        budget: &DebugBudget,
        seed: u64,
    ) -> BaselineOutcome {
        let start = Instant::now();
        let _ = seed; // DD is deterministic given the base configuration.
                      // Known-good base: the shipped defaults (measured once); if even
                      // the defaults fail, DD degrades to reporting all differences.
        let base = sim.model.space.default_config();
        let base_sample = sim.measure(&base);
        let mut measurements = 1usize;
        let base_fails = fault
            .objectives
            .iter()
            .any(|&o| base_sample.objectives[o] > catalog.thresholds[o]);

        let all_deltas = sim.model.space.changed_options(&base, &fault.config);
        let minimal = if base_fails || all_deltas.is_empty() {
            all_deltas.clone()
        } else {
            let mut oracle = Oracle {
                sim,
                fault,
                catalog,
                base: base.clone(),
                calls: 0,
                budget: budget.n_samples + budget.n_probes - 1,
            };
            let m = ddmin(&mut oracle, all_deltas);
            measurements += oracle.calls;
            m
        };

        // Repair: revert the minimal failure-inducing options to the base
        // values.
        let mut fix = fault.config.clone();
        for &o in &minimal {
            fix.values[o] = base.values[o];
        }
        let fix_sample = sim.measure(&fix);
        measurements += 1;
        let fixed = meets_goal(fault, catalog, &fix_sample.objectives);
        let improved = fault
            .objectives
            .iter()
            .all(|&o| fix_sample.objectives[o] <= fault.true_objectives[o]);
        let (best_config, best_objectives) = if improved || fixed {
            (fix, fix_sample.objectives)
        } else {
            (fault.config.clone(), fault.true_objectives.clone())
        };
        BaselineOutcome {
            diagnosed_options: minimal,
            best_config,
            best_objectives,
            fixed,
            n_measurements: measurements,
            wall_time_s: start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::fixtures::{latency_fault, x264_fixture};

    #[test]
    fn ddmin_minimizes_a_synthetic_cause() {
        // Synthetic oracle via a planted single-option cause: build a
        // fault whose only failure-inducing delta is one option.
        let (sim, catalog) = x264_fixture();
        let real = latency_fault(&catalog);
        let out = DeltaDebugging.debug(
            &sim,
            real,
            &catalog,
            &DebugBudget {
                n_samples: 40,
                n_probes: 10,
            },
            0,
        );
        // The diagnosis must be a subset of the fault's deltas vs default.
        let base = sim.model.space.default_config();
        let all = sim.model.space.changed_options(&base, &real.config);
        for d in &out.diagnosed_options {
            assert!(all.contains(d));
        }
        assert!(out.n_measurements <= 40 + 10 + 2);
    }

    #[test]
    fn dd_repair_improves_or_keeps() {
        let (sim, catalog) = x264_fixture();
        let fault = latency_fault(&catalog);
        let out = DeltaDebugging.debug(&sim, fault, &catalog, &DebugBudget::default(), 0);
        let o = fault.objectives[0];
        let after = sim.true_objectives(&out.best_config)[o];
        assert!(after <= fault.true_objectives[o] * 1.05);
    }
}
