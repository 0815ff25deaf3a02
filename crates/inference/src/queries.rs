//! The performance-query interface (Stages I and V of the paper).
//!
//! Users phrase performance tasks as queries ("what caused the fault?",
//! "what is the probability of satisfying QoS if Buffer Size is set to
//! 6k?"); the engine translates them into causal queries (do-expressions,
//! counterfactuals) over the learned causal performance model and answers
//! them, or reports them unidentifiable. This module holds the query and
//! answer types and the engine's `estimate` entry points; how each query
//! kind compiles into plans lives in one place, `coalesce`.

use unicorn_graph::NodeId;

use crate::coalesce::answer_coalesced;
use crate::engine::CausalEngine;
use crate::repair::{QosGoal, Repair};

/// A user-facing performance query.
#[derive(Debug, Clone)]
pub enum PerformanceQuery {
    /// "What configuration options caused the performance fault?"
    RootCauses {
        /// QoS definition of the fault.
        goal: QosGoal,
    },
    /// "How do I fix the misconfiguration?" — counterfactual repairs for a
    /// specific observed fault (identified by its training row).
    Repairs {
        /// QoS to restore.
        goal: QosGoal,
        /// Row index of the faulty measurement.
        fault_row: usize,
    },
    /// "P(objective ≤ threshold | do(option = value))" — e.g. the paper's
    /// `P(Th > 40/s | do(BufferSize = 6k))` with the inequality flipped to
    /// our minimization convention.
    ProbabilityOfQos {
        /// The intervention.
        interventions: Vec<(NodeId, f64)>,
        /// Target objective.
        objective: NodeId,
        /// QoS threshold (satisfied when ≤).
        threshold: f64,
    },
    /// "E[objective | do(interventions)]".
    ExpectedObjective {
        /// The intervention.
        interventions: Vec<(NodeId, f64)>,
        /// Target objective.
        objective: NodeId,
    },
    /// "What is the causal effect of this option on this objective?"
    CausalEffect {
        /// The option.
        option: NodeId,
        /// Target objective.
        objective: NodeId,
    },
}

/// Answers returned by the inference engine.
#[derive(Debug, Clone)]
pub enum QueryAnswer {
    /// Options ranked by average causal effect.
    RootCauses(Vec<(NodeId, f64)>),
    /// Repairs ranked by individual causal effect.
    Repairs(Vec<Repair>),
    /// A probability in `[0, 1]`.
    Probability(f64),
    /// An expectation.
    Expectation(f64),
    /// An average causal effect.
    Effect(f64),
    /// The query involves an unidentifiable effect; the payload names the
    /// offending `(cause, effect)` pair so the user can add assumptions or
    /// measurements (§4 Stage V).
    Unidentifiable {
        /// The intervened node.
        cause: NodeId,
        /// The target node.
        effect: NodeId,
    },
}

impl CausalEngine {
    /// Estimates one performance query: the one-query case of
    /// [`Self::estimate_all`].
    pub fn estimate(&self, query: &PerformanceQuery) -> QueryAnswer {
        self.estimate_all(std::slice::from_ref(query))
            .pop()
            .expect("one answer per query")
    }

    /// Estimates a set of performance queries through the one query
    /// path ([`answer_coalesced`]): every round of every query merges
    /// into one plan batch, so repeated interventional sweeps across the
    /// queries (the same `do(·)` asked about different objectives,
    /// overlapping ACE grids) are simulated once. Answers come back in
    /// query order, bit-identical to estimating each query alone.
    pub fn estimate_all(&self, queries: &[PerformanceQuery]) -> Vec<QueryAnswer> {
        answer_coalesced(self, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ace::ExplicitDomain;
    use crate::engine::CausalEngine;
    use crate::scm::FittedScm;
    use unicorn_graph::{Admg, TierConstraints, VarKind};

    fn engine() -> CausalEngine {
        // opt ∈ {0,1,2} → event → objective (objective = 3·opt ± noise-free).
        let n = 300;
        let opt: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let ev: Vec<f64> = opt.iter().map(|o| 1.5 * o).collect();
        let obj: Vec<f64> = ev.iter().map(|e| 2.0 * e).collect();
        let mut g = Admg::new(vec!["opt".into(), "ev".into(), "obj".into()]);
        g.add_directed(0, 1);
        g.add_directed(1, 2);
        let scm = FittedScm::fit(g, &[opt, ev, obj]).unwrap();
        let tiers = TierConstraints::new(vec![
            VarKind::ConfigOption,
            VarKind::SystemEvent,
            VarKind::Objective,
        ]);
        let domain = ExplicitDomain {
            values: vec![vec![0.0, 1.0, 2.0], vec![], vec![]],
        };
        CausalEngine::new(scm, tiers, std::sync::Arc::new(domain))
    }

    #[test]
    fn probability_query() {
        let e = engine();
        // do(opt = 0) ⇒ obj = 0 ≤ 1 always.
        let ans = e.estimate(&PerformanceQuery::ProbabilityOfQos {
            interventions: vec![(0, 0.0)],
            objective: 2,
            threshold: 1.0,
        });
        match ans {
            QueryAnswer::Probability(p) => assert!(p > 0.95, "p = {p}"),
            other => panic!("unexpected answer {other:?}"),
        }
        // do(opt = 2) ⇒ obj = 6 > 1 always.
        let ans = e.estimate(&PerformanceQuery::ProbabilityOfQos {
            interventions: vec![(0, 2.0)],
            objective: 2,
            threshold: 1.0,
        });
        match ans {
            QueryAnswer::Probability(p) => assert!(p < 0.05, "p = {p}"),
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn expectation_query() {
        let e = engine();
        let ans = e.estimate(&PerformanceQuery::ExpectedObjective {
            interventions: vec![(0, 1.0)],
            objective: 2,
        });
        match ans {
            QueryAnswer::Expectation(v) => {
                assert!((v - 3.0).abs() < 0.2, "E = {v}")
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn causal_effect_query() {
        let e = engine();
        let ans = e.estimate(&PerformanceQuery::CausalEffect {
            option: 0,
            objective: 2,
        });
        match ans {
            QueryAnswer::Effect(a) => assert!(a > 2.0, "ACE = {a}"),
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn root_cause_query_ranks_option() {
        let e = engine();
        let ans = e.estimate(&PerformanceQuery::RootCauses {
            goal: QosGoal::single(2, 1.0),
        });
        match ans {
            QueryAnswer::RootCauses(rc) => {
                assert_eq!(rc[0].0, 0);
                assert!(rc[0].1 > 0.0);
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn unidentifiable_query_reported() {
        // Build an engine whose only option has a bow to the objective.
        let n = 100;
        let opt: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let obj: Vec<f64> = opt.iter().map(|o| 2.0 * o).collect();
        let mut g = Admg::new(vec!["opt".into(), "obj".into()]);
        g.add_directed(0, 1);
        g.add_bidirected(0, 1);
        let scm = FittedScm::fit(g, &[opt, obj]).unwrap();
        let tiers = TierConstraints::new(vec![
            VarKind::SystemEvent, // deliberately not an option so the bow
            VarKind::Objective,   // is structurally allowed
        ]);
        let domain = ExplicitDomain {
            values: vec![vec![0.0, 1.0], vec![]],
        };
        let e = CausalEngine::new(scm, tiers, std::sync::Arc::new(domain));
        let ans = e.estimate(&PerformanceQuery::CausalEffect {
            option: 0,
            objective: 1,
        });
        assert!(matches!(
            ans,
            QueryAnswer::Unidentifiable {
                cause: 0,
                effect: 1
            }
        ));
    }
}
