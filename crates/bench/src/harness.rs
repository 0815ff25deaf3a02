//! Shared experiment harness: standard simulators/catalogs, the method
//! roster, and the debugging-comparison runner used by Tables 2a/2b/14 and
//! Figs 14/16.

use unicorn_baselines::{smac_debug, BugDoc, Cbi, DebugBudget, Debugger, DeltaDebugging, Encore};
use unicorn_core::{debug_fault, score_debugging, DebugScores, UnicornOptions};
use unicorn_systems::{
    discover_faults, Environment, Fault, FaultCatalog, FaultDiscoveryOptions, Hardware, Simulator,
    SubjectSystem,
};

/// Experiment scale, selected via the `UNICORN_SCALE` environment variable
/// (`quick` default, `full` for paper-sized runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale runs: fewer faults, smaller budgets.
    Quick,
    /// Paper-scale runs.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        match std::env::var("UNICORN_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Faults evaluated per (system × method) cell.
    pub fn faults_per_cell(&self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Full => 10,
        }
    }

    /// Observational samples granted to every method.
    pub fn n_samples(&self) -> usize {
        match self {
            Scale::Quick => 50,
            Scale::Full => 150,
        }
    }

    /// Fix probes granted to every method.
    pub fn n_probes(&self) -> usize {
        match self {
            Scale::Quick => 12,
            Scale::Full => 25,
        }
    }

    /// Fault-catalog sample size.
    pub fn catalog_samples(&self) -> usize {
        match self {
            Scale::Quick => 700,
            Scale::Full => 2000,
        }
    }
}

/// Builds the standard simulator for a system on a platform.
pub fn simulator(system: SubjectSystem, hw: Hardware) -> Simulator {
    Simulator::new(system.build(), Environment::on(hw), 0xBE2C)
}

/// Builds the fault catalog for a simulator at the given scale.
pub fn catalog(sim: &Simulator, scale: Scale) -> FaultCatalog {
    discover_faults(
        sim,
        &FaultDiscoveryOptions {
            n_samples: scale.catalog_samples(),
            ace_bases: 8,
            ..Default::default()
        },
    )
}

/// The debugging-method roster of Tables 2a/2b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DebugMethod {
    /// Unicorn (this paper).
    Unicorn,
    /// Statistical debugging.
    Cbi,
    /// Delta debugging.
    Dd,
    /// EnCore.
    Encore,
    /// BugDoc.
    BugDoc,
    /// SMAC-as-debugger (used in Fig 12).
    Smac,
}

impl DebugMethod {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DebugMethod::Unicorn => "Unicorn",
            DebugMethod::Cbi => "CBI",
            DebugMethod::Dd => "DD",
            DebugMethod::Encore => "EnCore",
            DebugMethod::BugDoc => "BugDoc",
            DebugMethod::Smac => "SMAC",
        }
    }

    /// The single-objective roster of Table 2a.
    pub fn table2a() -> [DebugMethod; 5] {
        [
            DebugMethod::Unicorn,
            DebugMethod::Cbi,
            DebugMethod::Dd,
            DebugMethod::Encore,
            DebugMethod::BugDoc,
        ]
    }

    /// The multi-objective roster of Table 2b (DD minimizes a single
    /// pass/fail delta, so the paper drops it here too).
    pub fn table2b() -> [DebugMethod; 4] {
        [
            DebugMethod::Unicorn,
            DebugMethod::Cbi,
            DebugMethod::Encore,
            DebugMethod::BugDoc,
        ]
    }
}

/// Unicorn loop options matched to a comparison budget: the initial sample
/// set plays the role of the baselines' observational samples and the loop
/// budget the role of their probes.
fn unicorn_options(scale: Scale, seed: u64) -> UnicornOptions {
    UnicornOptions {
        initial_samples: scale.n_samples(),
        budget: scale.n_probes(),
        relearn_every: 6,
        stagnation_limit: 5,
        seed,
        ..Default::default()
    }
}

/// Runs one method on one fault and scores it against the ground truth.
pub fn run_method(
    method: DebugMethod,
    sim: &Simulator,
    fault: &Fault,
    cat: &FaultCatalog,
    scale: Scale,
    seed: u64,
) -> DebugScores {
    let budget = DebugBudget {
        n_samples: scale.n_samples(),
        n_probes: scale.n_probes(),
    };
    let (diagnosed, best_config, time_s, n_meas) = match method {
        DebugMethod::Unicorn => {
            let out = debug_fault(sim, fault, cat, &unicorn_options(scale, seed));
            (
                out.diagnosed_options,
                out.best_config,
                out.wall_time_s,
                out.n_measurements,
            )
        }
        DebugMethod::Cbi => {
            let out = Cbi::new().debug(sim, fault, cat, &budget, seed);
            (
                out.diagnosed_options,
                out.best_config,
                out.wall_time_s,
                out.n_measurements,
            )
        }
        DebugMethod::Dd => {
            let out = DeltaDebugging.debug(sim, fault, cat, &budget, seed);
            (
                out.diagnosed_options,
                out.best_config,
                out.wall_time_s,
                out.n_measurements,
            )
        }
        DebugMethod::Encore => {
            let out = Encore::default().debug(sim, fault, cat, &budget, seed);
            (
                out.diagnosed_options,
                out.best_config,
                out.wall_time_s,
                out.n_measurements,
            )
        }
        DebugMethod::BugDoc => {
            let out = BugDoc::default().debug(sim, fault, cat, &budget, seed);
            (
                out.diagnosed_options,
                out.best_config,
                out.wall_time_s,
                out.n_measurements,
            )
        }
        DebugMethod::Smac => {
            let out = smac_debug(sim, fault, cat, &budget, seed);
            (
                out.diagnosed_options,
                out.best_config,
                out.wall_time_s,
                out.n_measurements,
            )
        }
    };
    let fixed_true = sim.true_objectives(&best_config);
    score_debugging(fault, cat, &diagnosed, &fixed_true, time_s, n_meas)
}

/// Runs a method over up to `n_faults` faults of the requested kind and
/// returns the mean scores. `objective` filters single-objective faults;
/// pass `None` with `multi = true` for multi-objective ones.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    method: DebugMethod,
    sim: &Simulator,
    cat: &FaultCatalog,
    objective: Option<usize>,
    multi: bool,
    n_faults: usize,
    scale: Scale,
    seed: u64,
) -> DebugScores {
    let faults: Vec<&Fault> = if multi {
        cat.faults
            .iter()
            .filter(|f| f.is_multi_objective())
            .collect()
    } else if let Some(o) = objective {
        cat.single_objective(o)
    } else {
        cat.faults.iter().collect()
    };
    let scores: Vec<DebugScores> = faults
        .iter()
        .take(n_faults.max(1))
        .enumerate()
        .map(|(i, f)| run_method(method, sim, f, cat, scale, seed ^ (i as u64) << 3))
        .collect();
    unicorn_core::mean_scores(&scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_quick() {
        std::env::remove_var("UNICORN_SCALE");
        assert_eq!(Scale::from_env(), Scale::Quick);
    }

    #[test]
    fn roster_names() {
        assert_eq!(DebugMethod::table2a().len(), 5);
        assert_eq!(DebugMethod::table2b().len(), 4);
        assert_eq!(DebugMethod::Unicorn.name(), "Unicorn");
    }

    #[test]
    fn run_cell_produces_scores() {
        let sim = simulator(SubjectSystem::X264, Hardware::Tx2);
        let cat = catalog(&sim, Scale::Quick);
        let scores = run_cell(
            DebugMethod::Cbi,
            &sim,
            &cat,
            Some(0),
            false,
            1,
            Scale::Quick,
            3,
        );
        assert!(scores.accuracy >= 0.0 && scores.accuracy <= 100.0);
        assert!(!scores.gains.is_empty());
    }
}
