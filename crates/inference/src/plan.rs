//! The batched causal query planner.
//!
//! Stage III (ACE-weighted exploration) and Stage V (debugging, repair,
//! transfer) answer a performance query by issuing *many* independent
//! interventional estimates — per-option ACE sweeps, per-repair ICE
//! sweeps, per-path link effects. Instead of calling the SCM one
//! intervention at a time, every engine entry point **compiles** its work
//! into a [`QueryPlan`]: a deduplicated set of [`Intervention`] sweeps
//! plus the reductions that consume them. One call to
//! [`crate::FittedScm::evaluate_plan`] then executes the whole set:
//!
//! * **Deduplicated** — two consumers asking about the same
//!   `do(·)`-assignment sweep (e.g. `E[latency | do(x = v)]` and
//!   `E[energy | do(x = v)]`, or the same causal-path link appearing on
//!   several ranked paths) share one set of simulations.
//! * **Ancestor-sharing** — per swept row, the SCM is simulated once with
//!   no interventions (the *baseline* topological sweep); each
//!   intervention then recomputes only the intervened nodes and their
//!   descendants, copying every unaffected node's value from the
//!   baseline. A node outside the affected set has bit-identical inputs
//!   in both sweeps, so the shortcut is exact, not approximate.
//! * **Pool-parallel** — independent `(row, sweep-chunk)` work items fan
//!   out over the SCM's shared `Arc<Executor>` via `par_map`.
//! * **Canonically merged** — per-consumer reductions fold their ordered
//!   per-row contributions exactly as the legacy serial loops did
//!   (row-order sums, hit counts, ICE tallies), so every answer is
//!   bit-identical to the pre-planner code at any thread count
//!   (`tests/query_plan_determinism.rs`).
//!
//! # Expressing a new query type
//!
//! 1. Compile the query into plan items: one builder call per needed
//!    estimate ([`QueryPlan::expectation`], [`QueryPlan::probability`],
//!    [`QueryPlan::ice`], [`QueryPlan::counterfactual`]), keeping the
//!    returned [`PlanHandle`]s in the query's own canonical order.
//! 2. Evaluate once ([`crate::FittedScm::evaluate_plan`]).
//! 3. Merge: read the handles back in that same canonical order and apply
//!    the query's scalar arithmetic (sorting, averaging, thresholding) on
//!    the caller's thread. Determinism then holds by construction: plan
//!    items are pure functions of the fit, and the merge never depends on
//!    completion order.
//!
//! A [`crate::PerformanceQuery`] kind writes steps 1 and 3 once, as the
//! rounds of a [`crate::CoalescedQuery`], and [`crate::answer_coalesced`]
//! does step 2 for every query in flight.

use std::collections::HashMap;
use std::sync::Arc;

use unicorn_graph::NodeId;

use crate::ace::ValueDomain;
use crate::repair::QosGoal;

/// A predicate over a simulated target value (probability reductions).
pub type ValuePred = Arc<dyn Fn(f64) -> bool + Send + Sync>;

/// One deduplicated `do(·)`-assignment sweep of a plan: the canonical
/// assignment set plus the target nodes its consumers read (informational;
/// an empty list means consumers read entire simulated vectors).
#[derive(Debug, Clone, PartialEq)]
pub struct Intervention {
    /// `(node, value)` pairs, deduplicated by node (first occurrence wins,
    /// matching the simulator's first-match rule) and sorted by node id.
    pub assignments: Vec<(NodeId, f64)>,
    /// Distinct nodes the attached reductions read, ascending.
    pub targets: Vec<NodeId>,
}

/// How a sweep draws its rows and residuals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SweepMode {
    /// Empirical g-formula: every strided training row `r`, residuals
    /// abducted from `r` itself (`ResidualMode::FromRow(r)`).
    GFormula,
    /// Stochastic abduction against a fault row: every strided training
    /// row, residuals blended `w·abduct + (1−w)·sweep` (Eq 5).
    Abduct {
        /// The abducted (fault) row.
        abduct_row: usize,
        /// Blend weight toward the abducted residuals.
        weight: f64,
    },
    /// One deterministic counterfactual row
    /// (abduction–action–prediction on that row's residuals).
    Row(usize),
}

/// Hashable identity of a sweep — the dedup key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SweepKey {
    /// `(node, value bits)` of the canonical assignments.
    assignments: Vec<(NodeId, u64)>,
    mode: ModeKey,
}

/// Hashable identity of a [`SweepMode`] (`f64` weights by bits) — the
/// sweep-dedup key here and the sweep-grouping key in
/// [`crate::FittedScm::evaluate_plan`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ModeKey {
    GFormula,
    Abduct(usize, u64),
    Row(usize),
}

impl SweepMode {
    pub(crate) fn key(&self) -> ModeKey {
        match *self {
            SweepMode::GFormula => ModeKey::GFormula,
            SweepMode::Abduct { abduct_row, weight } => {
                ModeKey::Abduct(abduct_row, weight.to_bits())
            }
            SweepMode::Row(r) => ModeKey::Row(r),
        }
    }
}

/// One sweep of the plan.
#[derive(Debug, Clone)]
pub(crate) struct Sweep {
    pub(crate) intervention: Intervention,
    pub(crate) mode: SweepMode,
}

/// One registered reduction over a sweep's simulations.
#[derive(Clone)]
pub(crate) enum Reduction {
    /// Row-order mean of the target — `E[target | do(·)]`.
    Mean {
        /// Sweep index.
        sweep: usize,
        /// Node whose simulated value is averaged.
        target: NodeId,
    },
    /// Fraction of swept rows whose target satisfies the predicate.
    Probability {
        sweep: usize,
        target: NodeId,
        pred: ValuePred,
    },
    /// `(fixed − still_bad) / count` over the goal (Eq 5's ICE).
    Ice { sweep: usize, goal: QosGoal },
    /// The full simulated value vector of a single-row sweep.
    Values { sweep: usize },
}

impl Reduction {
    pub(crate) fn sweep(&self) -> usize {
        match *self {
            Reduction::Mean { sweep, .. }
            | Reduction::Probability { sweep, .. }
            | Reduction::Ice { sweep, .. }
            | Reduction::Values { sweep } => sweep,
        }
    }
}

impl std::fmt::Debug for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reduction::Mean { sweep, target } => f
                .debug_struct("Mean")
                .field("sweep", sweep)
                .field("target", target)
                .finish(),
            Reduction::Probability { sweep, target, .. } => f
                .debug_struct("Probability")
                .field("sweep", sweep)
                .field("target", target)
                .finish(),
            Reduction::Ice { sweep, goal } => f
                .debug_struct("Ice")
                .field("sweep", sweep)
                .field("goal", goal)
                .finish(),
            Reduction::Values { sweep } => f.debug_struct("Values").field("sweep", sweep).finish(),
        }
    }
}

/// Handle to one registered plan item; index into [`PlanResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanHandle(pub(crate) usize);

/// Dedup key of a scalar consumer: `(sweep, kind discriminant, payload
/// bits — the target node or the goal thresholds)`.
type ConsumerKey = (usize, u8, Vec<(NodeId, u64)>);

/// A compiled batch of interventional-evaluation work: deduplicated
/// sweeps plus the reductions reading them. Build with the registration
/// methods, execute with [`crate::FittedScm::evaluate_plan`].
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    pub(crate) sweeps: Vec<Sweep>,
    sweep_index: HashMap<SweepKey, usize>,
    pub(crate) consumers: Vec<Reduction>,
    /// Dedup of scalar consumers.
    consumer_index: HashMap<ConsumerKey, usize>,
}

/// Canonicalizes a `do(·)` assignment list: first occurrence per node wins
/// (the simulator's first-match rule), then sorted by node id.
fn canonical_assignments(assignments: &[(NodeId, f64)]) -> Vec<(NodeId, f64)> {
    let mut out: Vec<(NodeId, f64)> = Vec::with_capacity(assignments.len());
    for &(n, v) in assignments {
        if !out.iter().any(|&(m, _)| m == n) {
            out.push((n, v));
        }
    }
    out.sort_by_key(|&(n, _)| n);
    out
}

impl QueryPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered plan items (reductions).
    pub fn n_items(&self) -> usize {
        self.consumers.len()
    }

    /// Number of deduplicated sweeps the items compiled into.
    pub fn n_sweeps(&self) -> usize {
        self.sweeps.len()
    }

    /// The deduplicated interventions, in registration order.
    pub fn interventions(&self) -> impl Iterator<Item = &Intervention> {
        self.sweeps.iter().map(|s| &s.intervention)
    }

    /// Registers (or finds) the sweep for `(assignments, mode)` and folds
    /// `targets` into its read set.
    fn sweep_of(
        &mut self,
        assignments: &[(NodeId, f64)],
        mode: SweepMode,
        targets: &[NodeId],
    ) -> usize {
        let canonical = canonical_assignments(assignments);
        let key = SweepKey {
            assignments: canonical.iter().map(|&(n, v)| (n, v.to_bits())).collect(),
            mode: mode.key(),
        };
        let idx = *self.sweep_index.entry(key).or_insert_with(|| {
            self.sweeps.push(Sweep {
                intervention: Intervention {
                    assignments: canonical,
                    targets: Vec::new(),
                },
                mode,
            });
            self.sweeps.len() - 1
        });
        let read = &mut self.sweeps[idx].intervention.targets;
        for &t in targets {
            if let Err(at) = read.binary_search(&t) {
                read.insert(at, t);
            }
        }
        idx
    }

    /// Registers a deduplicated scalar consumer.
    fn scalar_consumer(
        &mut self,
        key: ConsumerKey,
        make: impl FnOnce() -> Reduction,
    ) -> PlanHandle {
        if let Some(&idx) = self.consumer_index.get(&key) {
            return PlanHandle(idx);
        }
        self.consumers.push(make());
        let idx = self.consumers.len() - 1;
        self.consumer_index.insert(key, idx);
        PlanHandle(idx)
    }

    /// Plan item: `E[target | do(assignments)]` by the empirical g-formula
    /// (the arithmetic of
    /// [`crate::FittedScm::interventional_expectation`]). Items with equal
    /// assignments and target collapse to one.
    pub fn expectation(&mut self, target: NodeId, assignments: &[(NodeId, f64)]) -> PlanHandle {
        let sweep = self.sweep_of(assignments, SweepMode::GFormula, &[target]);
        self.scalar_consumer((sweep, 0, vec![(target, 0)]), || Reduction::Mean {
            sweep,
            target,
        })
    }

    /// Plan item: `P(pred(target) | do(assignments))` under stochastic
    /// abduction against `abduct_row` (the arithmetic of
    /// [`crate::FittedScm::interventional_probability`]). Predicates are
    /// opaque, so probability items are never deduplicated against each
    /// other — but they still share their sweep's simulations.
    pub fn probability(
        &mut self,
        target: NodeId,
        assignments: &[(NodeId, f64)],
        abduct_row: usize,
        weight: f64,
        pred: ValuePred,
    ) -> PlanHandle {
        let sweep = self.sweep_of(
            assignments,
            SweepMode::Abduct { abduct_row, weight },
            &[target],
        );
        self.consumers.push(Reduction::Probability {
            sweep,
            target,
            pred,
        });
        PlanHandle(self.consumers.len() - 1)
    }

    /// Plan item: the individual causal effect of a repair (Eq 5; the
    /// arithmetic of [`crate::repair::ice`]). Items with equal
    /// assignments, fault row, weight, and goal collapse to one.
    pub fn ice(
        &mut self,
        goal: &QosGoal,
        fault_row: usize,
        assignments: &[(NodeId, f64)],
        abduct_weight: f64,
    ) -> PlanHandle {
        let goal_nodes: Vec<NodeId> = goal.thresholds.iter().map(|&(o, _)| o).collect();
        let sweep = self.sweep_of(
            assignments,
            SweepMode::Abduct {
                abduct_row: fault_row,
                weight: abduct_weight,
            },
            &goal_nodes,
        );
        let key_payload: Vec<(NodeId, u64)> = goal
            .thresholds
            .iter()
            .map(|&(o, t)| (o, t.to_bits()))
            .collect();
        let goal = goal.clone();
        self.scalar_consumer((sweep, 1, key_payload), || Reduction::Ice { sweep, goal })
    }

    /// Plan item: the deterministic counterfactual value vector of `row`
    /// under `assignments` (the arithmetic of
    /// [`crate::FittedScm::counterfactual`]). Items with equal row and
    /// assignments collapse to one.
    pub fn counterfactual(&mut self, row: usize, assignments: &[(NodeId, f64)]) -> PlanHandle {
        let sweep = self.sweep_of(assignments, SweepMode::Row(row), &[]);
        self.scalar_consumer((sweep, 2, Vec::new()), || Reduction::Values { sweep })
    }
}

/// A merge of several independently compiled [`QueryPlan`]s into one —
/// the admission-batching primitive behind `unicornd`'s query coalescing.
///
/// [`PlanBatch::add`] replays a request's sweeps and reductions into the
/// shared merged plan, deduplicating sweeps (and scalar consumers)
/// *across* requests exactly as [`QueryPlan`] deduplicates them within
/// one: two concurrent clients probing the same `do(x = v)` grid share
/// one set of simulations, and every merged plan shares the single
/// no-intervention baseline sweep per (row, mode). One
/// [`crate::FittedScm::evaluate_plan`] call answers the whole batch;
/// [`PlanBatch::demux`] then projects the merged results back into each
/// request's own handle order.
///
/// **Bit-identity:** a reduction reads only its own sweep's simulations,
/// which are pure functions of `(fit, canonical assignments, mode)`, and
/// `evaluate_plan` folds each consumer's per-row contributions in
/// ascending row order regardless of what else is in the plan — so
/// every demuxed answer is bit-identical to evaluating that request's
/// plan alone (`tests/serve_coalescing.rs`).
#[derive(Debug, Clone, Default)]
pub struct PlanBatch {
    merged: QueryPlan,
    /// Per admitted request, its consumers' handles into the merged plan,
    /// in the request plan's own registration order.
    requests: Vec<Vec<PlanHandle>>,
}

impl PlanBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges a compiled request plan into the batch, returning its slot
    /// (pass it back to [`PlanBatch::demux`]).
    pub fn add(&mut self, plan: &QueryPlan) -> usize {
        if self.requests.is_empty() {
            // Replaying an already-deduplicated plan into an empty batch
            // rebuilds it exactly, so the first plan is taken as-is.
            self.merged = plan.clone();
            self.requests
                .push((0..plan.consumers.len()).map(PlanHandle).collect());
            return 0;
        }
        // Replay sweeps in the request's registration order (assignments
        // are already canonical; re-canonicalizing is idempotent).
        let sweep_map: Vec<usize> = plan
            .sweeps
            .iter()
            .map(|sw| {
                self.merged.sweep_of(
                    &sw.intervention.assignments,
                    sw.mode,
                    &sw.intervention.targets,
                )
            })
            .collect();
        // Replay consumers: scalar kinds dedup across requests through the
        // merged plan's consumer index; probability predicates are opaque
        // and never dedup (matching `QueryPlan::probability`).
        let handles: Vec<PlanHandle> = plan
            .consumers
            .iter()
            .map(|c| match c {
                Reduction::Mean { sweep, target } => {
                    let (sweep, target) = (sweep_map[*sweep], *target);
                    self.merged
                        .scalar_consumer((sweep, 0, vec![(target, 0)]), || Reduction::Mean {
                            sweep,
                            target,
                        })
                }
                Reduction::Probability {
                    sweep,
                    target,
                    pred,
                } => {
                    self.merged.consumers.push(Reduction::Probability {
                        sweep: sweep_map[*sweep],
                        target: *target,
                        pred: Arc::clone(pred),
                    });
                    PlanHandle(self.merged.consumers.len() - 1)
                }
                Reduction::Ice { sweep, goal } => {
                    let sweep = sweep_map[*sweep];
                    let key_payload: Vec<(NodeId, u64)> = goal
                        .thresholds
                        .iter()
                        .map(|&(o, t)| (o, t.to_bits()))
                        .collect();
                    let goal = goal.clone();
                    self.merged
                        .scalar_consumer((sweep, 1, key_payload), || Reduction::Ice { sweep, goal })
                }
                Reduction::Values { sweep } => {
                    let sweep = sweep_map[*sweep];
                    self.merged
                        .scalar_consumer((sweep, 2, Vec::new()), || Reduction::Values { sweep })
                }
            })
            .collect();
        self.requests.push(handles);
        self.requests.len() - 1
    }

    /// The merged plan, ready for [`crate::FittedScm::evaluate_plan`].
    pub fn merged(&self) -> &QueryPlan {
        &self.merged
    }

    /// Projects the merged results back into request `slot`'s own
    /// [`PlanResults`]: the request's original [`PlanHandle`]s index it
    /// exactly as if the request had been evaluated alone.
    pub fn demux(&self, results: &PlanResults, slot: usize) -> PlanResults {
        PlanResults {
            outputs: self.requests[slot]
                .iter()
                .map(|h| results.outputs[h.0].clone())
                .collect(),
        }
    }
}

/// One evaluated plan item.
#[derive(Debug, Clone)]
pub(crate) enum PlanOutput {
    Scalar(f64),
    Values(Vec<f64>),
}

/// The evaluated results of a [`QueryPlan`], indexed by [`PlanHandle`] —
/// every value is bit-identical to the corresponding legacy serial call.
#[derive(Debug, Clone)]
pub struct PlanResults {
    pub(crate) outputs: Vec<PlanOutput>,
}

impl PlanResults {
    /// The scalar value of an expectation / probability / ICE item.
    ///
    /// # Panics
    ///
    /// Panics when the handle names a counterfactual (vector) item.
    pub fn scalar(&self, h: PlanHandle) -> f64 {
        match &self.outputs[h.0] {
            PlanOutput::Scalar(v) => *v,
            PlanOutput::Values(_) => panic!("plan item {} is a value vector", h.0),
        }
    }

    /// The simulated node values of a counterfactual item.
    ///
    /// # Panics
    ///
    /// Panics when the handle names a scalar item.
    pub fn values(&self, h: PlanHandle) -> &[f64] {
        match &self.outputs[h.0] {
            PlanOutput::Values(v) => v.as_slice(),
            PlanOutput::Scalar(_) => panic!("plan item {} is a scalar", h.0),
        }
    }
}

/// A thread-safe, engine-lifetime memo of domain grids: each node's
/// permissible-value sweep is a pure function of `(node, fit)`, so an
/// engine (which lives exactly as long as one fitted epoch) computes it
/// once and every later plan — every admission batch served from the
/// same snapshot — reuses it. Attach to a [`DomainCache`] via
/// [`DomainCache::shared`]; a refit builds a fresh engine and with it a
/// fresh store, so cross-epoch reuse is impossible by construction.
#[derive(Default)]
pub struct DomainStore {
    values: std::sync::Mutex<HashMap<NodeId, Arc<[f64]>>>,
}

impl DomainStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The grid for `node`, computing (under the lock, so exactly once)
    /// on first probe.
    pub fn get_or_insert_with(
        &self,
        node: NodeId,
        compute: impl FnOnce() -> Arc<[f64]>,
    ) -> Arc<[f64]> {
        let mut guard = self.values.lock().expect("domain store poisoned");
        Arc::clone(guard.entry(node).or_insert_with(compute))
    }

    /// Number of memoized node grids.
    pub fn len(&self) -> usize {
        self.values.lock().expect("domain store poisoned").len()
    }

    /// True when no grid has been probed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the memoized grids.
    pub fn approx_bytes(&self) -> usize {
        let guard = self.values.lock().expect("domain store poisoned");
        guard
            .values()
            .map(|v| std::mem::size_of::<(NodeId, Arc<[f64]>)>() + v.len() * 8)
            .sum()
    }
}

/// A per-plan memo of [`ValueDomain::values`] lookups: planners probe the
/// same node's permissible values many times (every causal-path link,
/// every repair candidate), and domains backed by empirical quantiles
/// recompute them per call. The cache makes each node's sweep grid a
/// single domain call per plan, shared across `ace.rs` and `repair.rs`.
/// Backed by a [`DomainStore`] ([`Self::shared`]), the memo additionally
/// persists for the engine's whole epoch, so repeated admission batches
/// stop re-deriving quantile grids; probes are pure per `(node, fit)`,
/// so both backings answer bit-identically.
pub struct DomainCache<'d> {
    domain: &'d dyn ValueDomain,
    values: HashMap<NodeId, Arc<[f64]>>,
    store: Option<Arc<DomainStore>>,
}

impl<'d> DomainCache<'d> {
    /// Wraps a domain in a fresh per-plan cache.
    pub fn new(domain: &'d dyn ValueDomain) -> Self {
        Self {
            domain,
            values: HashMap::new(),
            store: None,
        }
    }

    /// Wraps a domain in a cache backed by a persistent per-epoch store:
    /// grids already in `store` are reused, new probes are published to
    /// it. The local map still short-circuits repeat probes within one
    /// plan without touching the store's lock.
    pub fn shared(domain: &'d dyn ValueDomain, store: Arc<DomainStore>) -> Self {
        Self {
            domain,
            values: HashMap::new(),
            store: Some(store),
        }
    }

    /// The permissible values of `node`, computed at most once per plan
    /// (at most once per epoch when store-backed).
    pub fn values(&mut self, node: NodeId) -> Arc<[f64]> {
        if let Some(v) = self.values.get(&node) {
            return Arc::clone(v);
        }
        let v = match &self.store {
            Some(store) => store.get_or_insert_with(node, || Arc::from(self.domain.values(node))),
            None => Arc::from(self.domain.values(node)),
        };
        self.values.insert(node, Arc::clone(&v));
        v
    }

    /// The wrapped domain.
    pub fn domain(&self) -> &'d dyn ValueDomain {
        self.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_deduplicated_across_consumers() {
        let mut plan = QueryPlan::new();
        let a = plan.expectation(3, &[(0, 1.0)]);
        let b = plan.expectation(2, &[(0, 1.0)]); // same sweep, other target
        let c = plan.expectation(3, &[(0, 2.0)]); // different sweep
        let a2 = plan.expectation(3, &[(0, 1.0)]); // identical item
        assert_eq!(plan.n_sweeps(), 2);
        assert_eq!(plan.n_items(), 3);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let targets: Vec<Vec<NodeId>> = plan.interventions().map(|i| i.targets.clone()).collect();
        assert_eq!(targets[0], vec![2, 3]);
    }

    #[test]
    fn assignments_are_canonicalized() {
        let mut plan = QueryPlan::new();
        let a = plan.expectation(5, &[(2, 1.0), (0, 3.0)]);
        let b = plan.expectation(5, &[(0, 3.0), (2, 1.0)]);
        assert_eq!(a, b);
        assert_eq!(plan.n_sweeps(), 1);
        assert_eq!(
            plan.interventions().next().unwrap().assignments,
            vec![(0, 3.0), (2, 1.0)]
        );
        // Duplicate node: first occurrence wins (the simulator's rule).
        let mut p2 = QueryPlan::new();
        p2.expectation(5, &[(1, 9.0), (1, 7.0)]);
        assert_eq!(
            p2.interventions().next().unwrap().assignments,
            vec![(1, 9.0)]
        );
    }

    #[test]
    fn ice_and_counterfactual_items_deduplicate() {
        let goal = QosGoal::single(3, 2.0);
        let mut plan = QueryPlan::new();
        let i1 = plan.ice(&goal, 7, &[(0, 1.0)], 0.5);
        let i2 = plan.ice(&goal, 7, &[(0, 1.0)], 0.5);
        let i3 = plan.ice(&QosGoal::single(3, 4.0), 7, &[(0, 1.0)], 0.5);
        assert_eq!(i1, i2);
        assert_ne!(i1, i3);
        let c1 = plan.counterfactual(7, &[(0, 1.0)]);
        let c2 = plan.counterfactual(7, &[(0, 1.0)]);
        let c3 = plan.counterfactual(8, &[(0, 1.0)]);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        // Both goals read the one abduction sweep; the counterfactuals use
        // single-row modes, hence one sweep per distinct row.
        assert_eq!(plan.n_sweeps(), 3);
        assert_eq!(plan.n_items(), 4);
    }

    #[test]
    fn domain_cache_memoizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(AtomicUsize);
        impl ValueDomain for Counting {
            fn values(&self, _node: NodeId) -> Vec<f64> {
                self.0.fetch_add(1, Ordering::Relaxed);
                vec![0.0, 1.0]
            }
        }
        let d = Counting(AtomicUsize::new(0));
        let mut cache = DomainCache::new(&d);
        assert_eq!(cache.values(3).as_ref(), &[0.0, 1.0]);
        assert_eq!(cache.values(3).as_ref(), &[0.0, 1.0]);
        assert_eq!(cache.values(4).as_ref(), &[0.0, 1.0]);
        assert_eq!(d.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn domain_store_persists_across_plan_caches() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(AtomicUsize);
        impl ValueDomain for Counting {
            fn values(&self, _node: NodeId) -> Vec<f64> {
                self.0.fetch_add(1, Ordering::Relaxed);
                vec![0.5, 1.5]
            }
        }
        let d = Counting(AtomicUsize::new(0));
        let store = Arc::new(DomainStore::new());
        let mut first = DomainCache::shared(&d, Arc::clone(&store));
        assert_eq!(first.values(2).as_ref(), &[0.5, 1.5]);
        assert_eq!(first.values(2).as_ref(), &[0.5, 1.5]);
        drop(first);
        // A later plan's cache (the next admission batch) reuses the
        // store instead of re-probing the domain.
        let mut second = DomainCache::shared(&d, Arc::clone(&store));
        assert_eq!(second.values(2).as_ref(), &[0.5, 1.5]);
        assert_eq!(d.0.load(Ordering::Relaxed), 1);
        assert_eq!(store.len(), 1);
        assert!(store.approx_bytes() >= 16);
    }
}
