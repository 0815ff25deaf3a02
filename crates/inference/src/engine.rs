//! The causal inference engine facade: a fitted SCM plus tier knowledge
//! and value domains, exposing the operations the Unicorn loop needs
//! (root-cause ranking, repair recommendation, path ranking).
//!
//! Root-cause ranking and repair recommendation are
//! [`crate::PerformanceQuery`] kinds: they unwrap
//! [`CausalEngine::estimate`], whose one round loop
//! ([`crate::answer_coalesced`]) runs each query's rounds. Path ranking
//! and the option-ACE table are not query kinds and compile into one
//! [`crate::plan::QueryPlan`] each. Either way a whole round of work is
//! one [`FittedScm::evaluate_plan`] batch — never one intervention at a
//! time. The SCM and value domain are `Arc`-shared, so the engine (and
//! the plans built from it) clone cheaply across worker threads and
//! relearn iterations.

use std::sync::Arc;

use unicorn_graph::{NodeId, TierConstraints, VarKind};

use crate::ace::{option_aces_planned, rank_causal_paths_planned, RankedPath, ValueDomain};
use crate::plan::{DomainCache, DomainStore};
use crate::queries::{PerformanceQuery, QueryAnswer};
use crate::repair::{QosGoal, Repair, RepairOptions};
use crate::scm::FittedScm;
use crate::sweep_cache::SweepCache;

/// The engine bundling model, constraints and domains. Cloning is a
/// handful of `Arc` bumps — the fit, its caches, and the domain are
/// shared, never copied.
#[derive(Clone)]
pub struct CausalEngine {
    scm: Arc<FittedScm>,
    tiers: TierConstraints,
    domain: Arc<dyn ValueDomain>,
    repair_opts: RepairOptions,
    /// Per-epoch domain-grid memo shared by every plan this engine
    /// compiles: the engine lives exactly as long as one fitted epoch, so
    /// a grid probed in one admission batch serves every later one.
    domain_store: Arc<DomainStore>,
}

impl CausalEngine {
    /// Builds an engine with default repair options.
    pub fn new(scm: FittedScm, tiers: TierConstraints, domain: Arc<dyn ValueDomain>) -> Self {
        Self {
            scm: Arc::new(scm),
            tiers,
            domain,
            repair_opts: RepairOptions::default(),
            domain_store: Arc::new(DomainStore::new()),
        }
    }

    /// Overrides the repair-generation options.
    pub fn with_repair_options(mut self, opts: RepairOptions) -> Self {
        self.repair_opts = opts;
        self
    }

    /// Attaches a [`SweepCache`] to the underlying fit: every plan this
    /// engine (or clones of it) evaluates will probe/populate it at the
    /// fit's data epoch.
    pub fn with_sweep_cache(mut self, cache: Arc<SweepCache>) -> Self {
        self.scm = Arc::new(self.scm.as_ref().clone().with_sweep_cache(cache));
        self
    }

    /// A clone of this engine that bypasses the sweep cache — the
    /// reference arm for bit-identity assertions in benches and tests.
    pub fn without_sweep_cache(&self) -> Self {
        let mut e = self.clone();
        e.scm = Arc::new(e.scm.without_sweep_cache());
        e
    }

    /// The attached sweep cache, if any.
    pub fn sweep_cache(&self) -> Option<&Arc<SweepCache>> {
        self.scm.sweep_cache()
    }

    /// The engine-lifetime domain-grid store (one fitted epoch's probes).
    pub fn domain_store(&self) -> &Arc<DomainStore> {
        &self.domain_store
    }

    /// A plan-scoped domain cache backed by the engine's per-epoch store.
    pub fn domain_cache(&self) -> DomainCache<'_> {
        DomainCache::shared(self.domain.as_ref(), Arc::clone(&self.domain_store))
    }

    /// The fitted SCM.
    pub fn scm(&self) -> &FittedScm {
        &self.scm
    }

    /// The tier constraints.
    pub fn tiers(&self) -> &TierConstraints {
        &self.tiers
    }

    /// The value domains.
    pub fn domain(&self) -> &dyn ValueDomain {
        self.domain.as_ref()
    }

    /// The repair options in effect.
    pub fn repair_options(&self) -> &RepairOptions {
        &self.repair_opts
    }

    /// All configuration-option nodes.
    pub fn options(&self) -> Vec<NodeId> {
        self.tiers.of_kind(VarKind::ConfigOption)
    }

    /// Top-K causal paths into an objective, ranked by path ACE — all
    /// link sweeps of all paths compiled into one deduplicated plan.
    pub fn top_paths(&self, objective: NodeId, k: usize) -> Vec<RankedPath> {
        let mut cache = self.domain_cache();
        rank_causal_paths_planned(
            &self.scm,
            objective,
            &mut cache,
            k,
            self.repair_opts.path_cap,
        )
    }

    /// Ranks configuration options by their ACE on the goal objectives,
    /// restricted to options appearing on top-ranked causal paths — the
    /// root-cause list (descending): the answer of a
    /// [`PerformanceQuery::RootCauses`] query.
    pub fn rank_root_causes(&self, goal: &QosGoal) -> Vec<(NodeId, f64)> {
        let query = PerformanceQuery::RootCauses { goal: goal.clone() };
        match self.estimate(&query) {
            QueryAnswer::RootCauses(ranked) => ranked,
            other => unreachable!("root-cause query answered {other:?}"),
        }
    }

    /// Recommends counterfactual repairs for the fault observed at
    /// `fault_row`, best first: the answer of a
    /// [`PerformanceQuery::Repairs`] query.
    pub fn recommend_repairs(&self, goal: &QosGoal, fault_row: usize) -> Vec<Repair> {
        let query = PerformanceQuery::Repairs {
            goal: goal.clone(),
            fault_row,
        };
        match self.estimate(&query) {
            QueryAnswer::Repairs(repairs) => repairs,
            other => unreachable!("repair query answered {other:?}"),
        }
    }

    /// ACE of every option on `objective`, descending — the weight vector
    /// used by the paper's accuracy metric and by Stage III sampling. The
    /// whole options × values grid is one planned batch.
    pub fn option_effects(&self, objective: NodeId) -> Vec<(NodeId, f64)> {
        let mut cache = self.domain_cache();
        option_aces_planned(&self.scm, objective, &self.options(), &mut cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ace::ExplicitDomain;
    use unicorn_graph::Admg;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    fn engine() -> (CausalEngine, usize) {
        let mut s = 31u64;
        let n = 400;
        let mut bad = Vec::new();
        let mut weak = Vec::new();
        let mut ev = Vec::new();
        let mut lat = Vec::new();
        for i in 0..n {
            let a = ((i % 7) == 0) as usize as f64;
            let b = (i % 2) as f64;
            let e = 4.0 * a + 0.3 * b + 0.05 * lcg(&mut s);
            let l = 2.5 * e + 0.05 * lcg(&mut s);
            bad.push(a);
            weak.push(b);
            ev.push(e);
            lat.push(l);
        }
        let mut g = Admg::new(vec!["bad".into(), "weak".into(), "ev".into(), "lat".into()]);
        g.add_directed(0, 2);
        g.add_directed(1, 2);
        g.add_directed(2, 3);
        let scm = FittedScm::fit(g, &[bad, weak, ev, lat]).unwrap();
        let tiers = TierConstraints::new(vec![
            VarKind::ConfigOption,
            VarKind::ConfigOption,
            VarKind::SystemEvent,
            VarKind::Objective,
        ]);
        let domain = ExplicitDomain {
            values: vec![vec![0.0, 1.0], vec![0.0, 1.0], vec![], vec![]],
        };
        (CausalEngine::new(scm, tiers, Arc::new(domain)), 7)
    }

    #[test]
    fn top_paths_cover_both_options() {
        let (e, _) = engine();
        let paths = e.top_paths(3, 5);
        assert_eq!(paths.len(), 2);
        let sources: Vec<usize> = paths.iter().map(|p| p.path.source()).collect();
        assert!(sources.contains(&0) && sources.contains(&1));
        // Strong option ranks first.
        assert_eq!(paths[0].path.source(), 0);
    }

    #[test]
    fn root_cause_ranking_orders_by_effect() {
        let (e, _) = engine();
        let rc = e.rank_root_causes(&QosGoal::single(3, 1.0));
        assert_eq!(rc[0].0, 0);
        assert!(rc[0].1 > rc[1].1);
    }

    #[test]
    fn repairs_fix_the_observed_fault() {
        let (e, fault_row) = engine();
        let repairs = e.recommend_repairs(&QosGoal::single(3, 2.0), fault_row);
        assert!(!repairs.is_empty());
        let best = &repairs[0];
        assert!(best.assignments.iter().any(|&(o, v)| o == 0 && v == 0.0));
        assert!(best.ice > 0.0);
    }

    #[test]
    fn option_effects_listing() {
        let (e, _) = engine();
        let fx = e.option_effects(3);
        assert_eq!(fx.len(), 2);
        assert_eq!(fx[0].0, 0);
        assert!(fx[0].1 > 5.0 * fx[1].1);
    }
}
