//! The full-pipeline suite harness: every [`ScenarioRegistry`] entry is
//! driven through all five Unicorn stages — observational sampling,
//! causal discovery, SCM fitting, debugging (with its relearn loop),
//! optimization, and, where the scenario defines an environment shift,
//! transfer — recording per-scenario wall clock, CI-test counts, SHD
//! against the planted ground-truth graph, and query latencies.
//!
//! The `suite` bench target (`cargo bench -p unicorn-bench --bench
//! suite`) runs [`run_suite`] over [`ScenarioRegistry::standard`] and
//! writes one machine-readable `BENCH_suite.json` (path overridable via
//! `UNICORN_BENCH_JSON`): the shared `benchmarks` report rows
//! (one wall-clock entry per scenario × stage, consumable by the
//! `bench-gate` regression gate) plus a `scenarios` array with the
//! quality metrics. `UNICORN_SUITE_FILTER=<substring>` restricts the run
//! to matching scenario names.

use std::sync::Arc;
use std::time::Instant;

use unicorn_core::{
    debug_fault, gain_percent, learn_source_state, optimize_single, transfer_debug, TransferMode,
    UnicornOptions,
};
use unicorn_discovery::{learn_causal_model_on, DiscoveryOptions};
use unicorn_graph::{skeleton_distance, structural_hamming_distance};
use unicorn_inference::{CausalEngine, FittedScm, QosGoal};
use unicorn_json::report::{render_report, rounded, BenchRow};
use unicorn_json::Json;
use unicorn_systems::{
    discover_faults, generate, FaultDiscoveryOptions, Scenario, ScenarioRegistry,
};

/// Suite-scale loop budgets (kept small: the suite's job is covering the
/// scenario matrix end to end, not paper-scale evaluation).
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Base RNG seed.
    pub seed: u64,
    /// Initial samples granted to the debug/optimize/transfer loops.
    pub loop_samples: usize,
    /// Debug-loop measurement budget.
    pub debug_budget: usize,
    /// Optimization measurement budget.
    pub optimize_budget: usize,
    /// Fault-catalog sample size.
    pub catalog_samples: usize,
    /// Target samples folded in by the transfer `Update` regime.
    pub transfer_update: usize,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        Self {
            seed: 0x5017E,
            loop_samples: 60,
            debug_budget: 3,
            optimize_budget: 3,
            catalog_samples: 300,
            transfer_update: 10,
        }
    }
}

/// The discovery profile suite-scale harnesses use, scaled to the
/// variable count: multiple-testing control (a stricter alpha and
/// shallower conditioning) keeps the big variants sparse — the Table 3
/// regime — while the standard systems run the loop defaults.
fn discovery_profile(n_nodes: usize) -> DiscoveryOptions {
    if n_nodes > 150 {
        DiscoveryOptions {
            alpha: 1e-4,
            max_depth: 1,
            pds_depth: 0,
            ..Default::default()
        }
    } else {
        DiscoveryOptions {
            alpha: 0.01,
            max_depth: 2,
            pds_depth: 1,
            ..Default::default()
        }
    }
}

/// Everything the suite records about one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Registry name.
    pub name: String,
    /// Option count.
    pub n_options: usize,
    /// Event count.
    pub n_events: usize,
    /// Objective count.
    pub n_objectives: usize,
    /// Observational samples drawn for discovery.
    pub n_samples: usize,
    /// Stage II wall clock (ms).
    pub discovery_ms: f64,
    /// CI tests executed by discovery.
    pub ci_tests: usize,
    /// Structural hamming distance of the learned ADMG vs the planted
    /// ground truth (adjacency + endpoint marks).
    pub shd: usize,
    /// Adjacency-only distance vs the planted skeleton.
    pub skeleton_shd: usize,
    /// SCM fit wall clock (ms).
    pub scm_fit_ms: f64,
    /// Stage V query latency (ms): the full option-ACE table plus a
    /// root-cause ranking, each as one compiled plan batch.
    pub query_ms: f64,
    /// Debug-task wall clock (ms): catalog fault → full repair loop.
    pub debug_ms: f64,
    /// Ground-truth gain of the debug repair (percent).
    pub debug_gain_pct: f64,
    /// Optimization-task wall clock (ms).
    pub optimize_ms: f64,
    /// Transfer-task wall clock (ms); `None` when the scenario defines no
    /// environment shift.
    pub transfer_ms: Option<f64>,
    /// End-to-end wall clock (ms).
    pub total_ms: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Drives one scenario through the full five-stage pipeline.
fn run_scenario(sc: &Scenario, opts: &SuiteOptions) -> ScenarioReport {
    let t_total = Instant::now();
    let sim = sc.simulator(opts.seed);
    let truth = sim.model.true_admg();
    let tiers = sim.model.tiers();
    let disc = discovery_profile(sim.model.n_nodes());

    // Stage I: observational sample.
    let ds = generate(&sim, sc.suite_samples, opts.seed ^ 0xDA7A);
    let view = ds.view();

    // Stage II: causal discovery, scored against the planted graph.
    let t = Instant::now();
    let model = learn_causal_model_on(&view, &ds.names, &tiers, &disc);
    let discovery_ms = ms(t);
    let learned = model.admg.to_mixed();
    let planted = truth.to_mixed();
    let shd = structural_hamming_distance(&learned, &planted);
    let skeleton_shd = skeleton_distance(&learned, &planted);

    // SCM fit over the same shared view.
    let t = Instant::now();
    let scm = FittedScm::fit_view(model.admg.clone(), &view).expect("SCM fit");
    let scm_fit_ms = ms(t);

    // Stage V: the query surface as compiled plan batches.
    let engine = CausalEngine::new(scm, tiers.clone(), Arc::new(ds.domains(&sim)));
    let objective = ds.objective_node(0);
    let goal = QosGoal::single(
        objective,
        unicorn_stats::quantile(ds.objective_column(0), 0.5),
    );
    let t = Instant::now();
    let aces = engine.option_effects(objective);
    let ranked = engine.rank_root_causes(&goal);
    let query_ms = ms(t);
    assert_eq!(aces.len(), sim.model.n_options());
    drop(ranked);

    // Stages III/IV: the debugging loop on a catalog fault.
    let loop_opts = UnicornOptions {
        initial_samples: opts.loop_samples,
        budget: opts.debug_budget,
        relearn_every: 2,
        discovery: disc.clone(),
        seed: opts.seed,
        ..Default::default()
    };
    let cat = discover_faults(
        &sim,
        &FaultDiscoveryOptions {
            n_samples: opts.catalog_samples,
            ace_bases: 2,
            ..Default::default()
        },
    );
    let (debug_ms, debug_gain_pct) = match cat.faults.first() {
        Some(fault) => {
            let t = Instant::now();
            let out = debug_fault(&sim, fault, &cat, &loop_opts);
            let elapsed = ms(t);
            let o = fault.objectives[0];
            let after = sim.true_objectives(&out.best_config)[o];
            (elapsed, gain_percent(fault.true_objectives[o], after))
        }
        None => (0.0, 0.0),
    };

    // Optimization.
    let t = Instant::now();
    let opt = optimize_single(
        &sim,
        0,
        &UnicornOptions {
            budget: opts.optimize_budget,
            ..loop_opts.clone()
        },
    );
    let optimize_ms = ms(t);
    assert!(opt.best_value.is_finite());

    // Transfer (only when the scenario defines a shift).
    let transfer_ms = sc.target_simulator(opts.seed ^ 0x7A26E7).map(|target| {
        let t = Instant::now();
        let src_state = learn_source_state(&sim, &loop_opts);
        let tcat = discover_faults(
            &target,
            &FaultDiscoveryOptions {
                n_samples: opts.catalog_samples.min(200),
                ace_bases: 2,
                ..Default::default()
            },
        );
        if let Some(fault) = tcat.faults.first() {
            let _ = transfer_debug(
                &src_state,
                &target,
                fault,
                &tcat,
                &loop_opts,
                TransferMode::Update(opts.transfer_update),
            );
        }
        ms(t)
    });

    ScenarioReport {
        name: sc.name.clone(),
        n_options: sim.model.n_options(),
        n_events: sim.model.n_events(),
        n_objectives: sim.model.n_objectives(),
        n_samples: sc.suite_samples,
        discovery_ms,
        ci_tests: model.n_ci_tests,
        shd,
        skeleton_shd,
        scm_fit_ms,
        query_ms,
        debug_ms,
        debug_gain_pct,
        optimize_ms,
        transfer_ms,
        total_ms: ms(t_total),
    }
}

/// Runs every registry entry (optionally filtered by
/// `UNICORN_SUITE_FILTER`) through all five pipeline stages.
pub fn run_suite(reg: &ScenarioRegistry, opts: &SuiteOptions) -> Vec<ScenarioReport> {
    let filter = std::env::var("UNICORN_SUITE_FILTER").unwrap_or_default();
    let mut reports = Vec::new();
    for sc in reg.iter() {
        if !filter.is_empty() && !sc.name.contains(&filter) {
            continue;
        }
        let r = run_scenario(sc, opts);
        println!(
            "{:<26} discovery {:>8.1} ms ({} CI tests, SHD {}, skel {})  \
             fit {:>6.1} ms  queries {:>6.1} ms  debug {:>8.1} ms ({:.0}% gain)  \
             optimize {:>8.1} ms  transfer {:>8}  total {:>9.1} ms",
            r.name,
            r.discovery_ms,
            r.ci_tests,
            r.shd,
            r.skeleton_shd,
            r.scm_fit_ms,
            r.query_ms,
            r.debug_ms,
            r.debug_gain_pct,
            r.optimize_ms,
            r.transfer_ms
                .map_or("—".to_string(), |t| format!("{t:.1} ms")),
            r.total_ms,
        );
        reports.push(r);
    }
    reports
}

/// The per-stage wall-clock entries (name, milliseconds) of one suite
/// pass, in canonical stage order — the `benchmarks` rows of the report.
fn stage_benches(reports: &[ScenarioReport]) -> Vec<(String, f64)> {
    let mut benches: Vec<(String, f64)> = Vec::new();
    for r in reports {
        benches.push((format!("suite/{}/discovery", r.name), r.discovery_ms));
        benches.push((format!("suite/{}/scm_fit", r.name), r.scm_fit_ms));
        benches.push((format!("suite/{}/queries", r.name), r.query_ms));
        benches.push((format!("suite/{}/debug", r.name), r.debug_ms));
        benches.push((format!("suite/{}/optimize", r.name), r.optimize_ms));
        if let Some(t) = r.transfer_ms {
            benches.push((format!("suite/{}/transfer", r.name), t));
        }
        benches.push((format!("suite/{}/total", r.name), r.total_ms));
    }
    benches
}

/// Renders a suite report over one or more passes: `runs` holds one
/// full suite pass per sample (the bench target runs
/// `UNICORN_BENCH_SAMPLES` passes), and each scenario × stage row
/// summarizes the wall clock across passes, so the suite bench-gate can
/// run a tight tolerance on mean timings instead of absorbing single-run
/// jitter. The `scenarios` section carries the quality metrics of the
/// first pass (they are a deterministic function of the seed, identical
/// in every pass).
///
/// # Panics
///
/// Panics when `runs` is empty or the passes cover different scenarios.
pub fn render_runs(runs: &[Vec<ScenarioReport>]) -> String {
    let ns = |ms: f64| (ms * 1e6).round() as u64;
    let first = runs.first().expect("at least one suite pass");
    let mut entries: Vec<(String, Vec<u64>)> = stage_benches(first)
        .into_iter()
        .map(|(name, v)| (name, vec![ns(v)]))
        .collect();
    for run in &runs[1..] {
        let pass = stage_benches(run);
        assert_eq!(pass.len(), entries.len(), "suite passes diverged");
        for (entry, (name, v)) in entries.iter_mut().zip(pass) {
            assert_eq!(entry.0, name, "suite passes diverged");
            entry.1.push(ns(v));
        }
    }
    let rows: Vec<BenchRow> = entries
        .iter()
        .map(|(name, samples)| BenchRow::from_samples(name.as_str(), samples))
        .collect();
    let scenarios = first
        .iter()
        .map(|r| {
            let num = |x: usize| Json::Num(x as f64);
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.clone())),
                ("n_options".into(), num(r.n_options)),
                ("n_events".into(), num(r.n_events)),
                ("n_objectives".into(), num(r.n_objectives)),
                ("n_samples".into(), num(r.n_samples)),
                ("ci_tests".into(), num(r.ci_tests)),
                ("shd".into(), num(r.shd)),
                ("skeleton_shd".into(), num(r.skeleton_shd)),
                ("debug_gain_pct".into(), rounded(r.debug_gain_pct, 2)),
                ("discovery_ms".into(), rounded(r.discovery_ms, 3)),
                ("scm_fit_ms".into(), rounded(r.scm_fit_ms, 3)),
                ("query_ms".into(), rounded(r.query_ms, 3)),
                ("debug_ms".into(), rounded(r.debug_ms, 3)),
                ("optimize_ms".into(), rounded(r.optimize_ms, 3)),
                (
                    "transfer_ms".into(),
                    r.transfer_ms.map_or(Json::Null, |t| rounded(t, 3)),
                ),
                ("total_ms".into(), rounded(r.total_ms, 3)),
            ])
        })
        .collect();
    render_report(&rows, &[("scenarios", Json::Arr(scenarios))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_systems::{Interaction, Scenario, ScenarioSpec};

    #[test]
    fn discovery_profile_scales_with_variable_count() {
        let small = discovery_profile(60);
        assert_eq!(small.max_depth, 2);
        let big = discovery_profile(500);
        assert_eq!(big.max_depth, 1);
        assert!(big.alpha < small.alpha);
    }

    #[test]
    fn one_synthetic_scenario_runs_end_to_end() {
        let sc = Scenario::synthetic(ScenarioSpec::family(10, Interaction::Sparse, 1, 0))
            .with_samples(80);
        let opts = SuiteOptions {
            loop_samples: 40,
            debug_budget: 1,
            optimize_budget: 1,
            catalog_samples: 120,
            ..Default::default()
        };
        let r = run_scenario(&sc, &opts);
        assert_eq!(r.n_options, 10);
        assert!(r.discovery_ms > 0.0 && r.total_ms >= r.discovery_ms);
        assert!(r.ci_tests > 0);
        assert!(r.transfer_ms.is_none(), "no shift on this spec");
        // The report renders as JSON with both sections.
        let json = render_runs(&[vec![r]]);
        assert!(json.contains("\"benchmarks\""));
        assert!(json.contains("\"scenarios\""));
        assert!(json.contains("suite/synth-opt10-sparse-1obj/total"));
    }

    #[test]
    fn multi_sample_report_aggregates_across_passes() {
        let base = ScenarioReport {
            name: "demo".to_string(),
            n_options: 1,
            n_events: 0,
            n_objectives: 1,
            n_samples: 10,
            discovery_ms: 2.0,
            ci_tests: 5,
            shd: 0,
            skeleton_shd: 0,
            scm_fit_ms: 1.0,
            query_ms: 3.0,
            debug_ms: 4.0,
            debug_gain_pct: 0.0,
            optimize_ms: 5.0,
            transfer_ms: None,
            total_ms: 15.0,
        };
        let mut slow = base.clone();
        slow.discovery_ms = 6.0;
        let json = render_runs(&[vec![base], vec![slow]]);
        // discovery: min 2 ms, mean 4 ms, max 6 ms over 2 samples.
        assert!(json.contains(
            "{\"name\":\"suite/demo/discovery\",\"min_ns\":2000000,\
             \"mean_ns\":4000000,\"max_ns\":6000000,\"samples\":2}"
        ));
        // Quality metrics come from the first pass only.
        assert!(json.contains("\"ci_tests\":5"));
    }
}
