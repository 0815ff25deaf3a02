//! # unicorn-inference
//!
//! The causal inference engine of the Unicorn (EuroSys '22) reproduction —
//! the role played by `ananke`, `causality` and `semopy` in the original
//! toolchain, reimplemented as one coherent Rust engine:
//!
//! * [`scm::FittedScm`] — polynomial structural causal model fitted over a
//!   learned ADMG, with an empirical-g-formula do-operator, deterministic
//!   counterfactuals (abduction–action–prediction) and conditional
//!   prediction for unmeasured configurations.
//! * [`ace`] — average causal effects, path ACE (appendix Eq 1) and causal
//!   path ranking.
//! * [`repair`] — counterfactual repair sets and ICE scoring (Eqs 2–5).
//! * [`identify`] — bow-arc identifiability screening and backdoor-set
//!   search.
//! * [`plan`] — the batched causal query planner: work compiles into a
//!   deduplicated [`QueryPlan`] which [`FittedScm::evaluate_plan`]
//!   executes as one pool-parallel, ancestor-sharing batch — answers
//!   bit-identical to the legacy serial loops at any thread count. See
//!   the `plan` module docs for how a query expresses itself as plan
//!   items plus a canonical merge.
//! * [`queries`] — the user-facing performance-query interface
//!   (Stages I and V).
//! * [`coalesce`] — the one query path: every performance query
//!   unrolled into resumable compile/advance rounds, the rounds of all
//!   queries in flight merged into one [`plan::PlanBatch`] each.
//!   [`CausalEngine::estimate`] and `unicornd`'s admission batches both
//!   run through it.
//! * [`dsl`] — a textual query language over it (the §11 future-work
//!   direction), e.g. `P(Latency <= 30 | do(CPU Frequency = 2.0))`.

pub mod ace;
pub mod coalesce;
pub mod dsl;
pub mod engine;
pub mod identify;
pub mod plan;
pub mod queries;
pub mod repair;
pub mod scm;
pub mod sweep_cache;

pub use ace::{
    ace, ace_signed, option_aces, option_aces_planned, path_ace, quantile_values,
    rank_causal_paths, rank_causal_paths_planned, ExplicitDomain, RankedPath, ValueDomain,
};
pub use coalesce::{answer_coalesced, CoalescedQuery};
pub use dsl::{parse_query, ParseError};
pub use engine::CausalEngine;
pub use identify::{find_backdoor_set, identifiable, satisfies_backdoor};
pub use plan::{
    DomainCache, DomainStore, Intervention, PlanBatch, PlanHandle, PlanResults, QueryPlan,
};
pub use queries::{PerformanceQuery, QueryAnswer};
pub use repair::{
    generate_repairs, generate_repairs_cached, ice, rank_repairs, root_cause_candidates, QosGoal,
    Repair, RepairOptions,
};
pub use scm::{FittedScm, ResidualMode, SIM_LANES};
pub use sweep_cache::{sweep_cache_enabled, SweepCache, DEFAULT_SWEEP_CACHE_CAPACITY};
