//! The determinism contract of the batched query planner: every engine
//! answer — the option-ACE table, causal-path ranking, root-cause
//! ranking, repair list (ICE and improvement bits), and the scalar
//! performance queries — must be **bit-identical** between the legacy
//! serial path (one interventional sweep per estimate, the free functions
//! in `ace`/`repair`) and the planned path (`FittedScm::evaluate_plan`),
//! for pools of 1, 2, and 8 workers, and stable across repeated
//! submissions to a reused pool.

use std::sync::Arc;

use proptest::prelude::*;

use unicorn::exec::Executor;
use unicorn::graph::{Admg, TierConstraints, VarKind};
use unicorn::inference::{
    ace, generate_repairs, option_aces, quantile_values, rank_causal_paths, rank_repairs,
    root_cause_candidates, CausalEngine, ExplicitDomain, FittedScm, PerformanceQuery, QosGoal,
    QueryAnswer, RankedPath, Repair, RepairOptions,
};

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// Three options → two events → one objective, with enough edge overlap
/// that causal paths share links (exercising the planner's dedup).
fn fixture(n: usize, seed: u64) -> (Admg, Vec<Vec<f64>>, TierConstraints, ExplicitDomain) {
    let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(777);
    let mut cols: Vec<Vec<f64>> = (0..6).map(|_| Vec::with_capacity(n)).collect();
    for i in 0..n {
        let o0 = (i % 3) as f64;
        let o1 = (i % 2) as f64;
        let o2 = ((i / 3) % 4) as f64;
        let e0 = 2.0 * o0 + 0.7 * o1 + 0.3 * lcg(&mut s);
        let e1 = 1.2 * o2 - 0.8 * e0 + 0.3 * lcg(&mut s);
        let obj = 1.5 * e0 - e1 + 0.2 * lcg(&mut s);
        for (c, v) in cols.iter_mut().zip([o0, o1, o2, e0, e1, obj]) {
            c.push(v);
        }
    }
    let mut g = Admg::new(
        ["o0", "o1", "o2", "e0", "e1", "obj"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    g.add_directed(0, 3);
    g.add_directed(1, 3);
    g.add_directed(2, 4);
    g.add_directed(3, 4);
    g.add_directed(3, 5);
    g.add_directed(4, 5);
    let tiers = TierConstraints::new(vec![
        VarKind::ConfigOption,
        VarKind::ConfigOption,
        VarKind::ConfigOption,
        VarKind::SystemEvent,
        VarKind::SystemEvent,
        VarKind::Objective,
    ]);
    let domain = ExplicitDomain {
        values: vec![
            vec![0.0, 1.0, 2.0],
            vec![0.0, 1.0],
            vec![0.0, 1.0, 2.0, 3.0],
            quantile_values(&cols[3]),
            quantile_values(&cols[4]),
            vec![],
        ],
    };
    (g, cols, tiers, domain)
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn path_fingerprint(paths: &[RankedPath]) -> Vec<(Vec<usize>, u64)> {
    paths
        .iter()
        .map(|p| (p.path.nodes.clone(), bits(p.score)))
        .collect()
}

/// `(assignment bits, ICE bits, improvement bits)` of one ranked repair.
type RepairBits = (Vec<(usize, u64)>, u64, u64);

fn repair_fingerprint(repairs: &[Repair]) -> Vec<RepairBits> {
    repairs
        .iter()
        .map(|r| {
            (
                r.assignments.iter().map(|&(o, v)| (o, bits(v))).collect(),
                bits(r.ice),
                bits(r.improvement),
            )
        })
        .collect()
}

/// The pre-planner engine code, reconstructed from the legacy serial free
/// functions — the oracle every planned answer is pinned against.
struct LegacyAnswers {
    aces: Vec<(usize, u64)>,
    paths: Vec<(Vec<usize>, u64)>,
    root_causes: Vec<(usize, u64)>,
    repairs: Vec<RepairBits>,
    expectation: u64,
    probability: u64,
    effect: u64,
}

#[allow(clippy::too_many_arguments)]
fn legacy_answers(
    scm: &FittedScm,
    tiers: &TierConstraints,
    domain: &ExplicitDomain,
    opts: &RepairOptions,
    goal: &QosGoal,
    fault_row: usize,
    objective: usize,
    threshold: f64,
) -> LegacyAnswers {
    let options = tiers.of_kind(VarKind::ConfigOption);
    let aces = option_aces(scm, objective, &options, domain)
        .into_iter()
        .map(|(o, a)| (o, bits(a)))
        .collect();
    let paths = path_fingerprint(&rank_causal_paths(
        scm,
        objective,
        domain,
        opts.top_k_paths,
        opts.path_cap,
    ));
    // Legacy rank_root_causes: per-candidate, per-objective serial ACE.
    let candidates = root_cause_candidates(scm, goal, tiers, domain, opts);
    let mut scores: Vec<(usize, f64)> = candidates
        .iter()
        .map(|&o| {
            let total: f64 = goal
                .thresholds
                .iter()
                .map(|&(obj, _)| option_aces(scm, obj, &[o], domain)[0].1)
                .sum();
            (o, total)
        })
        .collect();
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN ACE"));
    let root_causes = scores.into_iter().map(|(o, a)| (o, bits(a))).collect();
    // Legacy recommend_repairs: serial ICE sweep + counterfactual each.
    let fault: Vec<f64> = (0..scm.n_vars())
        .map(|v| scm.data()[v][fault_row])
        .collect();
    let generated = generate_repairs(&fault, &candidates, domain, opts);
    let repairs = repair_fingerprint(&rank_repairs(scm, goal, fault_row, generated, opts));
    // Legacy scalar queries.
    let ivs = vec![(0usize, 1.0)];
    let expectation = bits(scm.interventional_expectation(objective, &ivs));
    let probability =
        bits(scm.interventional_probability(objective, &ivs, 0, 0.0, &|y| y <= threshold));
    let effect = bits(ace(scm, objective, 1, &domain.values[1]));
    LegacyAnswers {
        aces,
        paths,
        root_causes,
        repairs,
        expectation,
        probability,
        effect,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Legacy serial answers vs planned answers, across pools of 1/2/8
    /// workers, twice per reused pool.
    #[test]
    fn engine_answers_bit_identical_to_serial_path(
        seed in 0u64..1_000_000,
        n in 80usize..160,
    ) {
        let (g, cols, tiers, domain) = fixture(n, seed);
        let opts = RepairOptions {
            max_pairs: 6,
            ..RepairOptions::default()
        };
        let objective = 5usize;
        // Fault: the worst observed objective value; QoS: its median.
        let obj_col = &cols[objective];
        let fault_row = obj_col
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let threshold = unicorn::stats::quantile(obj_col, 0.5);
        let goal = QosGoal::single(objective, threshold);

        // The oracle: legacy serial loops on a single-worker pool.
        let serial_pool = Executor::new(1);
        let scm_ref =
            FittedScm::fit_view_on(g.clone(), &unicorn::stats::dataview::DataView::from_columns(&cols), serial_pool)
                .expect("fit");
        let legacy = legacy_answers(
            &scm_ref, &tiers, &domain, &opts, &goal, fault_row, objective, threshold,
        );

        for &threads in &[1usize, 2, 8] {
            let pool = Executor::new(threads);
            let scm = FittedScm::fit_view_on(
                g.clone(),
                &unicorn::stats::dataview::DataView::from_columns(&cols),
                Arc::clone(&pool),
            )
            .expect("fit");
            let engine = CausalEngine::new(scm, tiers.clone(), Arc::new(domain.clone()))
                .with_repair_options(opts.clone());
            // Twice per pool: plans must be stable across reused workers.
            for round in 0..2 {
                let ctx = format!("threads {threads} round {round}");

                let aces: Vec<(usize, u64)> = engine
                    .option_effects(objective)
                    .into_iter()
                    .map(|(o, a)| (o, bits(a)))
                    .collect();
                prop_assert_eq!(&aces, &legacy.aces, "ACE table diverged ({})", &ctx);

                let paths = path_fingerprint(&engine.top_paths(objective, opts.top_k_paths));
                prop_assert_eq!(&paths, &legacy.paths, "path ranking diverged ({})", &ctx);

                let rc: Vec<(usize, u64)> = engine
                    .rank_root_causes(&goal)
                    .into_iter()
                    .map(|(o, a)| (o, bits(a)))
                    .collect();
                prop_assert_eq!(&rc, &legacy.root_causes, "root causes diverged ({})", &ctx);

                let repairs = repair_fingerprint(&engine.recommend_repairs(&goal, fault_row));
                prop_assert_eq!(&repairs, &legacy.repairs, "repairs diverged ({})", &ctx);

                // Every query kind in one merged estimate_all batch, a
                // repeated query included: rounds of different kinds
                // coalesce, and each answer still matches the oracle.
                let effect = PerformanceQuery::CausalEffect {
                    option: 1,
                    objective,
                };
                let answers = engine.estimate_all(&[
                    PerformanceQuery::ExpectedObjective {
                        interventions: vec![(0, 1.0)],
                        objective,
                    },
                    PerformanceQuery::ProbabilityOfQos {
                        interventions: vec![(0, 1.0)],
                        objective,
                        threshold,
                    },
                    effect.clone(),
                    PerformanceQuery::RootCauses { goal: goal.clone() },
                    PerformanceQuery::Repairs {
                        goal: goal.clone(),
                        fault_row,
                    },
                    effect,
                ]);
                match answers.as_slice() {
                    [
                        QueryAnswer::Expectation(e),
                        QueryAnswer::Probability(p),
                        QueryAnswer::Effect(a),
                        QueryAnswer::RootCauses(rc),
                        QueryAnswer::Repairs(repairs),
                        QueryAnswer::Effect(a2),
                    ] => {
                        prop_assert_eq!(bits(*e), legacy.expectation, "E diverged ({})", &ctx);
                        prop_assert_eq!(bits(*p), legacy.probability, "P diverged ({})", &ctx);
                        prop_assert_eq!(bits(*a), legacy.effect, "ACE query diverged ({})", &ctx);
                        let rc: Vec<(usize, u64)> =
                            rc.iter().map(|&(o, a)| (o, bits(a))).collect();
                        prop_assert_eq!(
                            &rc,
                            &legacy.root_causes,
                            "batched root causes diverged ({})",
                            &ctx
                        );
                        prop_assert_eq!(
                            &repair_fingerprint(repairs),
                            &legacy.repairs,
                            "batched repairs diverged ({})",
                            &ctx
                        );
                        prop_assert_eq!(
                            bits(*a2),
                            legacy.effect,
                            "repeated ACE query diverged ({})",
                            &ctx
                        );
                    }
                    other => prop_assert!(false, "unexpected answers {:?} ({})", other, &ctx),
                }
            }
            prop_assert!(pool.workers_spawned() <= threads.saturating_sub(1));
        }
    }
}

/// ICE plan items must reproduce the legacy serial `ice` sweep bit for
/// bit, including the empty-assignment (factual) sweep.
#[test]
fn planned_ice_matches_serial_ice() {
    let (g, cols, _tiers, _domain) = fixture(120, 42);
    let scm = FittedScm::fit(g, &cols).expect("fit");
    let goal = QosGoal::single(5, 0.5);
    let mut plan = unicorn::inference::QueryPlan::new();
    let cases: Vec<Vec<(usize, f64)>> = vec![
        vec![],
        vec![(0, 0.0)],
        vec![(0, 2.0), (1, 1.0)],
        vec![(2, 3.0)],
    ];
    let handles: Vec<_> = cases
        .iter()
        .map(|assignments| plan.ice(&goal, 7, assignments, 0.5))
        .collect();
    let results = scm.evaluate_plan(&plan);
    for (assignments, &h) in cases.iter().zip(&handles) {
        let serial = unicorn::inference::ice(&scm, &goal, 7, assignments, 0.5);
        assert_eq!(
            results.scalar(h).to_bits(),
            serial.to_bits(),
            "ICE diverged for {assignments:?}"
        );
    }
}
