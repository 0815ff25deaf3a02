//! The one query path: every [`PerformanceQuery`] unrolled into
//! resumable *rounds* of interventional work, so a caller merges the
//! rounds of all queries in flight into a single [`PlanBatch`] and pays
//! for overlapping sweeps once.
//!
//! Scalar queries (probability, expectation, causal effect) take one
//! round. Root causes and repairs — the counterfactual debugging queries
//! — take several: they mine causal paths per goal objective, collect
//! candidates, and only then compile their ACE-grid or repair-ranking
//! plan, with each round's compilation depending on the previous round's
//! answers. [`CoalescedQuery`] gives every query that explicit round
//! structure:
//!
//! 1. [`CoalescedQuery::compile`] returns the current round's
//!    [`QueryPlan`] (or `None` once the answer is ready);
//! 2. the caller merges the round plans of *all* in-flight requests into
//!    one [`PlanBatch`], evaluates the merged plan once, and
//! 3. feeds each request its demuxed results via
//!    [`CoalescedQuery::advance`].
//!
//! [`answer_coalesced`] is that loop, and the only code in this crate
//! that turns a [`PerformanceQuery`] into plans:
//! [`CausalEngine::estimate_all`] calls it, [`CausalEngine::estimate`] is
//! its one-query case, `CausalEngine::{rank_root_causes,
//! recommend_repairs}` unwrap `estimate`, and `unicornd` serves every
//! admission batch through it. Requests at different stages interleave
//! freely — a repair query's path-mining round coalesces with another
//! client's ACE round — and every answer is bit-identical to the serial
//! reference loops (`tests/query_plan_determinism.rs`) and to answering
//! the request alone (`tests/serve_coalescing.rs`).
//!
//! A new query kind is written once, here: a `State` for each of its
//! rounds, its plan items registered in `compile`, its answer read back
//! in `advance`. Its oracle is a serial reference built from the free
//! functions in `ace`/`repair`, in `tests/query_plan_determinism.rs`.
//!
//! The [`DomainCache`] is threaded through every `compile` call of an
//! admission batch, so each node's sweep grid is one
//! [`crate::quantile_values`]-style domain probe per batch, not per
//! request.

use std::sync::Arc;

use unicorn_graph::NodeId;

use crate::ace::{
    ace_of_handles, compile_path_rank, finish_path_rank, plan_ace, PathRankCompilation,
};
use crate::engine::CausalEngine;
use crate::identify::identifiable;
use crate::plan::{DomainCache, PlanBatch, PlanHandle, PlanResults, QueryPlan};
use crate::queries::{PerformanceQuery, QueryAnswer};
use crate::repair::{
    collect_candidates, compile_repair_rank, finish_repair_rank, generate_repairs_cached, QosGoal,
    Repair, RepairRankCompilation,
};

/// A performance query unrolled into compile/advance rounds (module
/// docs). Holds a cheap clone of its engine (`Arc` bumps), so jobs
/// outlive the admission batch that created them.
pub struct CoalescedQuery {
    engine: CausalEngine,
    state: State,
}

/// One scalar query kind awaiting its single round.
enum ScalarKind {
    Probability {
        interventions: Vec<(NodeId, f64)>,
        objective: NodeId,
        threshold: f64,
    },
    Expectation {
        interventions: Vec<(NodeId, f64)>,
        objective: NodeId,
    },
    Effect {
        option: NodeId,
        objective: NodeId,
    },
}

/// A compiled scalar round's read-back handles.
enum ScalarPending {
    Probability(PlanHandle),
    Expectation(PlanHandle),
    Effect(Vec<PlanHandle>),
}

/// Per root-cause candidate, per goal objective: the ACE handles.
type GridHandles = Vec<Vec<Option<Vec<PlanHandle>>>>;

enum State {
    /// Answer ready.
    Done(QueryAnswer),
    /// Scalar query, round not yet compiled.
    Scalar(ScalarKind),
    /// Scalar round compiled, awaiting results.
    ScalarPending(ScalarPending),
    /// Path-mining phase shared by root-cause and repair queries: one
    /// goal objective ranked per round, its candidates collected by the
    /// serial path's rule (`collect_candidates`).
    Mining {
        goal: QosGoal,
        /// `Some(row)` makes this a repair query, `None` a root-cause one.
        fault_row: Option<usize>,
        /// Next goal-objective index to rank.
        obj_idx: usize,
        /// Candidates collected so far.
        found: Vec<NodeId>,
        /// The in-flight ranking round, if compiled.
        pending: Option<PathRankCompilation>,
    },
    /// Root-cause final round: the candidates × objectives ACE grid.
    Grid {
        candidates: Vec<NodeId>,
        handles: GridHandles,
    },
    /// Repair final round: ICE + counterfactual ranking.
    RankRepairs {
        goal: QosGoal,
        repairs: Vec<Repair>,
        comp: RepairRankCompilation,
    },
    /// Transient placeholder while a transition is in flight.
    Poisoned,
}

/// The unidentifiability screen: the first `(cause, effect)` pair that
/// is not identifiable short-circuits the whole query.
fn screen(
    engine: &CausalEngine,
    causes: impl IntoIterator<Item = NodeId>,
    effect: NodeId,
) -> Option<QueryAnswer> {
    causes
        .into_iter()
        .find(|&cause| !identifiable(engine.scm().admg(), cause, effect))
        .map(|cause| QueryAnswer::Unidentifiable { cause, effect })
}

/// Registers the root-cause grid: per candidate, per goal objective, the
/// ACE handles, in the serial path's registration order.
fn compile_root_cause_grid(
    plan: &mut QueryPlan,
    candidates: &[NodeId],
    goal: &QosGoal,
    cache: &mut DomainCache<'_>,
) -> GridHandles {
    candidates
        .iter()
        .map(|&o| {
            goal.thresholds
                .iter()
                .map(|&(obj, _)| plan_ace(plan, obj, o, &cache.values(o)))
                .collect()
        })
        .collect()
}

/// Resolves a [`compile_root_cause_grid`] registration: per-objective
/// ACEs summed per candidate (so multi-objective faults weigh both),
/// sorted descending.
fn finish_root_cause_grid(
    candidates: &[NodeId],
    handles: &[Vec<Option<Vec<PlanHandle>>>],
    results: &PlanResults,
) -> Vec<(NodeId, f64)> {
    let mut scores: Vec<(NodeId, f64)> = candidates
        .iter()
        .zip(handles)
        .map(|(&o, per_obj)| {
            let total: f64 = per_obj.iter().map(|hs| ace_of_handles(results, hs)).sum();
            (o, total)
        })
        .collect();
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN ACE"));
    scores
}

impl CoalescedQuery {
    /// Starts a resumable job for `query` against `engine`.
    /// Unidentifiable queries complete immediately.
    pub fn new(engine: &CausalEngine, query: &PerformanceQuery) -> Self {
        let engine = engine.clone();
        let mining = |goal: &QosGoal, fault_row| State::Mining {
            goal: goal.clone(),
            fault_row,
            obj_idx: 0,
            found: Vec::new(),
            pending: None,
        };
        let state = match query {
            PerformanceQuery::RootCauses { goal } => mining(goal, None),
            PerformanceQuery::Repairs { goal, fault_row } => mining(goal, Some(*fault_row)),
            PerformanceQuery::ProbabilityOfQos {
                interventions,
                objective,
                threshold,
            } => match screen(&engine, interventions.iter().map(|&(x, _)| x), *objective) {
                Some(a) => State::Done(a),
                None => State::Scalar(ScalarKind::Probability {
                    interventions: interventions.clone(),
                    objective: *objective,
                    threshold: *threshold,
                }),
            },
            PerformanceQuery::ExpectedObjective {
                interventions,
                objective,
            } => match screen(&engine, interventions.iter().map(|&(x, _)| x), *objective) {
                Some(a) => State::Done(a),
                None => State::Scalar(ScalarKind::Expectation {
                    interventions: interventions.clone(),
                    objective: *objective,
                }),
            },
            PerformanceQuery::CausalEffect { option, objective } => {
                match screen(&engine, [*option], *objective) {
                    Some(a) => State::Done(a),
                    None => State::Scalar(ScalarKind::Effect {
                        option: *option,
                        objective: *objective,
                    }),
                }
            }
        };
        Self { engine, state }
    }

    /// Compiles the next round of interventional work, or `None` when the
    /// query is complete. The caller evaluates the returned plan (alone
    /// or merged into a [`PlanBatch`]) and feeds the request's results
    /// back through [`Self::advance`].
    ///
    /// # Panics
    ///
    /// Panics when the previous round was compiled but never advanced.
    pub fn compile(&mut self, cache: &mut DomainCache<'_>) -> Option<QueryPlan> {
        match std::mem::replace(&mut self.state, State::Poisoned) {
            done @ State::Done(_) => {
                self.state = done;
                None
            }
            State::Scalar(kind) => {
                let mut plan = QueryPlan::new();
                match kind {
                    ScalarKind::Probability {
                        interventions,
                        objective,
                        threshold,
                    } => {
                        let t = threshold;
                        let h = plan.probability(
                            objective,
                            &interventions,
                            0,
                            0.0,
                            Arc::new(move |y| y <= t),
                        );
                        self.state = State::ScalarPending(ScalarPending::Probability(h));
                        Some(plan)
                    }
                    ScalarKind::Expectation {
                        interventions,
                        objective,
                    } => {
                        let h = plan.expectation(objective, &interventions);
                        self.state = State::ScalarPending(ScalarPending::Expectation(h));
                        Some(plan)
                    }
                    ScalarKind::Effect { option, objective } => {
                        match plan_ace(&mut plan, objective, option, &cache.values(option)) {
                            // Fewer than two permissible values: the
                            // legacy 0.0 short-circuit, no round needed.
                            None => {
                                self.state = State::Done(QueryAnswer::Effect(0.0));
                                None
                            }
                            Some(hs) => {
                                self.state = State::ScalarPending(ScalarPending::Effect(hs));
                                Some(plan)
                            }
                        }
                    }
                }
            }
            State::Mining {
                goal,
                fault_row,
                obj_idx,
                found,
                pending,
            } => {
                assert!(pending.is_none(), "compile called before advance");
                let mut plan = QueryPlan::new();
                if obj_idx < goal.thresholds.len() {
                    // Rank the next goal objective's causal paths.
                    let comp = compile_path_rank(
                        &mut plan,
                        self.engine.scm(),
                        goal.thresholds[obj_idx].0,
                        cache,
                        self.engine.repair_options().path_cap,
                    );
                    self.state = State::Mining {
                        goal,
                        fault_row,
                        obj_idx,
                        found,
                        pending: Some(comp),
                    };
                } else if let Some(row) = fault_row {
                    // Candidates complete: generate and rank the repairs.
                    let scm = self.engine.scm();
                    let fault: Vec<f64> = (0..scm.n_vars()).map(|v| scm.data()[v][row]).collect();
                    let opts = self.engine.repair_options().clone();
                    let repairs = generate_repairs_cached(&fault, &found, cache, &opts);
                    let comp = compile_repair_rank(&mut plan, &goal, row, &repairs, &opts);
                    self.state = State::RankRepairs {
                        goal,
                        repairs,
                        comp,
                    };
                } else {
                    // Candidates complete: the candidates × objectives grid.
                    let handles = compile_root_cause_grid(&mut plan, &found, &goal, cache);
                    self.state = State::Grid {
                        candidates: found,
                        handles,
                    };
                }
                Some(plan)
            }
            State::ScalarPending(_) | State::Grid { .. } | State::RankRepairs { .. } => {
                panic!("compile called before advance")
            }
            State::Poisoned => unreachable!("poisoned coalesced query"),
        }
    }

    /// Feeds the (demuxed) results of the round compiled by the previous
    /// [`Self::compile`] call and moves the job forward.
    ///
    /// # Panics
    ///
    /// Panics when no round is awaiting results.
    pub fn advance(&mut self, results: &PlanResults) {
        match std::mem::replace(&mut self.state, State::Poisoned) {
            State::ScalarPending(p) => {
                self.state = State::Done(match p {
                    ScalarPending::Probability(h) => QueryAnswer::Probability(results.scalar(h)),
                    ScalarPending::Expectation(h) => QueryAnswer::Expectation(results.scalar(h)),
                    ScalarPending::Effect(hs) => {
                        QueryAnswer::Effect(ace_of_handles(results, &Some(hs)))
                    }
                });
            }
            State::Mining {
                goal,
                fault_row,
                obj_idx,
                mut found,
                pending: Some(comp),
            } => {
                let ranked =
                    finish_path_rank(comp, results, self.engine.repair_options().top_k_paths);
                collect_candidates(&mut found, &ranked, self.engine.tiers());
                self.state = State::Mining {
                    goal,
                    fault_row,
                    obj_idx: obj_idx + 1,
                    found,
                    pending: None,
                };
            }
            State::Grid {
                candidates,
                handles,
            } => {
                self.state = State::Done(QueryAnswer::RootCauses(finish_root_cause_grid(
                    &candidates,
                    &handles,
                    results,
                )));
            }
            State::RankRepairs {
                goal,
                repairs,
                comp,
            } => {
                self.state = State::Done(QueryAnswer::Repairs(finish_repair_rank(
                    comp, &goal, repairs, results,
                )));
            }
            State::Done(_) | State::Scalar(_) | State::Mining { pending: None, .. } => {
                panic!("advance without a compiled round")
            }
            State::Poisoned => unreachable!("poisoned coalesced query"),
        }
    }

    /// The finished answer.
    ///
    /// # Panics
    ///
    /// Panics when the query still has rounds to run.
    pub fn answer(self) -> QueryAnswer {
        match self.state {
            State::Done(a) => a,
            _ => panic!("coalesced query not complete"),
        }
    }
}

/// Drives a set of queries to completion against one engine, coalescing
/// every round across all in-flight requests: per round, each active
/// job's plan merges into one [`PlanBatch`], one
/// [`crate::FittedScm::evaluate_plan`] answers the merged plan, and each
/// job advances on its demuxed slice. Answers come back in query order,
/// bit-identical to answering each query alone.
pub fn answer_coalesced(engine: &CausalEngine, queries: &[PerformanceQuery]) -> Vec<QueryAnswer> {
    let mut jobs: Vec<CoalescedQuery> = queries
        .iter()
        .map(|q| CoalescedQuery::new(engine, q))
        .collect();
    // One domain probe per (node, grid) per *epoch* — the cache is backed
    // by the engine's persistent store, so later windows served from the
    // same snapshot reuse this window's probes.
    let mut cache = engine.domain_cache();
    loop {
        let mut batch = PlanBatch::new();
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for (i, job) in jobs.iter_mut().enumerate() {
            if let Some(plan) = job.compile(&mut cache) {
                slots.push((i, batch.add(&plan)));
            }
        }
        if slots.is_empty() {
            break;
        }
        let results = engine.scm().evaluate_plan(batch.merged());
        for &(i, slot) in &slots {
            jobs[i].advance(&batch.demux(&results, slot));
        }
    }
    jobs.into_iter().map(|j| j.answer()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ace::ExplicitDomain;
    use crate::scm::FittedScm;
    use unicorn_graph::{Admg, TierConstraints, VarKind};

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    fn engine() -> CausalEngine {
        let mut s = 77u64;
        let n = 300;
        let mut o0 = Vec::new();
        let mut o1 = Vec::new();
        let mut ev = Vec::new();
        let mut lat = Vec::new();
        for i in 0..n {
            let a = ((i % 4) == 0) as usize as f64;
            let b = (i % 3) as f64;
            let e = 3.0 * a + 0.4 * b + 0.05 * lcg(&mut s);
            let l = 2.0 * e + 0.05 * lcg(&mut s);
            o0.push(a);
            o1.push(b);
            ev.push(e);
            lat.push(l);
        }
        let mut g = Admg::new(vec!["o0".into(), "o1".into(), "ev".into(), "lat".into()]);
        g.add_directed(0, 2);
        g.add_directed(1, 2);
        g.add_directed(2, 3);
        let scm = FittedScm::fit(g, &[o0, o1, ev, lat]).unwrap();
        let tiers = TierConstraints::new(vec![
            VarKind::ConfigOption,
            VarKind::ConfigOption,
            VarKind::SystemEvent,
            VarKind::Objective,
        ]);
        let domain = ExplicitDomain {
            values: vec![vec![0.0, 1.0], vec![0.0, 1.0, 2.0], vec![], vec![]],
        };
        CausalEngine::new(scm, tiers, Arc::new(domain))
    }

    /// Exact-equality check between an answer pair (the house bit-identity
    /// contract, not approximate closeness).
    fn assert_bit_identical(a: &QueryAnswer, b: &QueryAnswer) {
        match (a, b) {
            (QueryAnswer::Probability(x), QueryAnswer::Probability(y))
            | (QueryAnswer::Expectation(x), QueryAnswer::Expectation(y))
            | (QueryAnswer::Effect(x), QueryAnswer::Effect(y)) => {
                assert_eq!(x.to_bits(), y.to_bits())
            }
            (QueryAnswer::RootCauses(x), QueryAnswer::RootCauses(y)) => {
                assert_eq!(x.len(), y.len());
                for ((nx, sx), (ny, sy)) in x.iter().zip(y) {
                    assert_eq!(nx, ny);
                    assert_eq!(sx.to_bits(), sy.to_bits());
                }
            }
            (QueryAnswer::Repairs(x), QueryAnswer::Repairs(y)) => {
                assert_eq!(x.len(), y.len());
                for (rx, ry) in x.iter().zip(y) {
                    assert_eq!(rx.assignments, ry.assignments);
                    assert_eq!(rx.ice.to_bits(), ry.ice.to_bits());
                    assert_eq!(rx.improvement.to_bits(), ry.improvement.to_bits());
                }
            }
            (
                QueryAnswer::Unidentifiable {
                    cause: cx,
                    effect: ex,
                },
                QueryAnswer::Unidentifiable {
                    cause: cy,
                    effect: ey,
                },
            ) => {
                assert_eq!((cx, ex), (cy, ey));
            }
            other => panic!("answer kinds diverged: {other:?}"),
        }
    }

    #[test]
    fn coalesced_answers_match_standalone_estimates() {
        let e = engine();
        let goal = QosGoal::single(3, 2.0);
        let queries = vec![
            PerformanceQuery::CausalEffect {
                option: 0,
                objective: 3,
            },
            PerformanceQuery::RootCauses { goal: goal.clone() },
            PerformanceQuery::ExpectedObjective {
                interventions: vec![(0, 1.0)],
                objective: 3,
            },
            PerformanceQuery::Repairs {
                goal: goal.clone(),
                fault_row: 4,
            },
            PerformanceQuery::ProbabilityOfQos {
                interventions: vec![(0, 0.0)],
                objective: 3,
                threshold: 2.0,
            },
            // A duplicate of the first request: coalesces to zero extra
            // sweeps, answers must still come back per-slot.
            PerformanceQuery::CausalEffect {
                option: 0,
                objective: 3,
            },
        ];
        let coalesced = answer_coalesced(&e, &queries);
        for (q, c) in queries.iter().zip(&coalesced) {
            assert_bit_identical(c, &e.estimate(q));
        }
    }

    #[test]
    fn batch_dedups_identical_requests() {
        let e = engine();
        let mut cache = DomainCache::new(e.domain());
        let mut a = CoalescedQuery::new(
            &e,
            &PerformanceQuery::CausalEffect {
                option: 1,
                objective: 3,
            },
        );
        let mut b = CoalescedQuery::new(
            &e,
            &PerformanceQuery::CausalEffect {
                option: 1,
                objective: 3,
            },
        );
        let pa = a.compile(&mut cache).unwrap();
        let pb = b.compile(&mut cache).unwrap();
        let mut batch = PlanBatch::new();
        let sa = batch.add(&pa);
        let sb = batch.add(&pb);
        // Identical requests collapse to one set of sweeps and consumers.
        assert_eq!(batch.merged().n_sweeps(), pa.n_sweeps());
        assert_eq!(batch.merged().n_items(), pa.n_items());
        let results = e.scm().evaluate_plan(batch.merged());
        a.advance(&batch.demux(&results, sa));
        b.advance(&batch.demux(&results, sb));
        match (a.answer(), b.answer()) {
            (QueryAnswer::Effect(x), QueryAnswer::Effect(y)) => {
                assert_eq!(x.to_bits(), y.to_bits());
                assert!(x > 0.0);
            }
            other => panic!("unexpected answers {other:?}"),
        }
    }
}
