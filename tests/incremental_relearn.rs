//! The hard guarantee of the incremental relearn engine: for an
//! **arbitrary schedule of appends and relearns**, the warm-started path
//! ([`learn_causal_model_incremental`] over one growing segmented
//! `DataView`) produces a graph, sepsets, and CI-test-count trace
//! **bit-identical** to a cold recomputation
//! ([`learn_causal_model_on`] over a fresh view) at every step — and the
//! whole trace is independent of the worker-thread count (pools of 1, 2
//! and 8 workers supplied through `DiscoveryOptions::exec`).

use proptest::prelude::*;

use unicorn::discovery::{
    learn_causal_model_incremental, learn_causal_model_on, DiscoveryOptions, LearnedModel,
    RelearnSession,
};
use unicorn::exec::Executor;
use unicorn::graph::{TierConstraints, VarKind};
use unicorn::stats::dataview::DataView;

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

/// A five-variable synthetic stack (two options, two events, one
/// objective) with enough structure that relearns actually move: option 0
/// drives event 0, both events drive the objective, option 1 drives
/// event 1.
fn stack_stream(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037);
    let mut cols: Vec<Vec<f64>> = (0..5).map(|_| Vec::with_capacity(n)).collect();
    for i in 0..n {
        let o0 = (i % 4) as f64;
        let o1 = ((i / 2) % 2) as f64;
        let e0 = 2.0 * o0 + 0.4 * lcg(&mut s);
        let e1 = 1.5 * o1 - 0.5 * e0 + 0.4 * lcg(&mut s);
        let obj = -e0 + 0.5 * e1 + 0.3 * lcg(&mut s);
        for (c, v) in cols.iter_mut().zip([o0, o1, e0, e1, obj]) {
            c.push(v);
        }
    }
    cols
}

fn stack_names_tiers() -> (Vec<String>, TierConstraints) {
    let names = ["opt0", "opt1", "ev0", "ev1", "obj"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let tiers = TierConstraints::new(vec![
        VarKind::ConfigOption,
        VarKind::ConfigOption,
        VarKind::SystemEvent,
        VarKind::SystemEvent,
        VarKind::Objective,
    ]);
    (names, tiers)
}

/// The comparable fingerprint of one relearn step.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    directed: Vec<(usize, usize)>,
    bidirected: Vec<(usize, usize)>,
    n_ci_tests: usize,
    sepsets: Vec<(usize, usize, Option<Vec<usize>>)>,
    pag_adjacent: Vec<bool>,
}

fn trace_of(m: &LearnedModel, n_vars: usize) -> Trace {
    let mut sepsets = Vec::new();
    let mut pag_adjacent = Vec::new();
    for x in 0..n_vars {
        for y in (x + 1)..n_vars {
            sepsets.push((x, y, m.sepsets.get(x, y).map(<[usize]>::to_vec)));
            pag_adjacent.push(m.pag.adjacent(x, y));
        }
    }
    Trace {
        directed: m.admg.directed_edges().to_vec(),
        bidirected: m.admg.bidirected_edges().to_vec(),
        n_ci_tests: m.n_ci_tests,
        sepsets,
        pag_adjacent,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary append schedule, every relearn compared against cold.
    #[test]
    fn incremental_relearn_bit_identical_to_cold(
        seed in 0u64..1_000_000,
        batches in prop::collection::vec(1usize..4, 3..7),
    ) {
        let (names, tiers) = stack_names_tiers();
        let n0 = 40usize;
        let total: usize = n0 + batches.iter().sum::<usize>();
        let stream = stack_stream(total, seed);
        let initial: Vec<Vec<f64>> = stream.iter().map(|c| c[..n0].to_vec()).collect();

        // The per-relearn traces for each thread count must all agree.
        let mut traces_by_threads: Vec<Vec<Trace>> = Vec::new();
        for &threads in &[1usize, 2, 8] {
            let opts = DiscoveryOptions {
                alpha: 0.01,
                max_depth: 2,
                pds_depth: 1,
                objective_completion: 2,
                exec: Some(Executor::new(threads)),
                ..DiscoveryOptions::default()
            };
            let mut session = RelearnSession::default();
            let mut view = DataView::from_columns(&initial);
            let mut cold_columns = initial.clone();
            let mut cursor = n0;
            let mut traces = Vec::new();
            for &batch in &batches {
                // Stage `batch` new rows, fold them in as one epoch bump.
                let rows: Vec<Vec<f64>> = (cursor..cursor + batch)
                    .map(|r| stream.iter().map(|c| c[r]).collect())
                    .collect();
                cursor += batch;
                view = view.append_rows(&rows);
                for (col, row) in cold_columns.iter_mut().zip(
                    (0..5).map(|c| rows.iter().map(move |r| r[c])),
                ) {
                    col.extend(row);
                }

                let warm =
                    learn_causal_model_incremental(&view, &names, &tiers, &opts, &mut session);
                let cold = learn_causal_model_on(
                    &DataView::from_columns(&cold_columns),
                    &names,
                    &tiers,
                    &opts,
                );
                let warm_trace = trace_of(&warm, 5);
                prop_assert_eq!(&warm_trace, &trace_of(&cold, 5));
                // Relearn on unchanged data must reproduce the model
                // without divergence (the zero-dirty-edges fast path).
                let again =
                    learn_causal_model_incremental(&view, &names, &tiers, &opts, &mut session);
                prop_assert_eq!(&warm_trace, &trace_of(&again, 5));
                traces.push(warm_trace);
            }
            traces_by_threads.push(traces);
        }
        prop_assert_eq!(&traces_by_threads[0], &traces_by_threads[1]);
        prop_assert_eq!(&traces_by_threads[0], &traces_by_threads[2]);
    }
}

/// Single-row appends (the `measure_and_update` cadence) through the
/// `append_row` fast path must match batched appends and cold runs.
#[test]
fn single_row_appends_match_batched_and_cold() {
    let (names, tiers) = stack_names_tiers();
    let stream = stack_stream(60, 7);
    let initial: Vec<Vec<f64>> = stream.iter().map(|c| c[..50].to_vec()).collect();
    let opts = DiscoveryOptions {
        alpha: 0.01,
        max_depth: 2,
        pds_depth: 1,
        exec: Some(Executor::new(2)),
        ..DiscoveryOptions::default()
    };

    let mut session = RelearnSession::default();
    let mut view = DataView::from_columns(&initial);
    for r in 50..60 {
        let row: Vec<f64> = stream.iter().map(|c| c[r]).collect();
        view = view.append_row(&row);
    }
    let warm = learn_causal_model_incremental(&view, &names, &tiers, &opts, &mut session);
    let cold = learn_causal_model_on(&DataView::from_columns(&stream), &names, &tiers, &opts);
    assert_eq!(trace_of(&warm, 5), trace_of(&cold, 5));
    assert_eq!(view.n_rows(), 60);
}
