//! Fleet multiplexing: thousands of tenant Unicorn loops in one process,
//! under one worker pool and one memory budget.
//!
//! One [`crate::UnicornState`] per configurable system is the interactive
//! shape; a service hosts *many* — every tenant of a SaaS fleet runs the
//! same five-stage loop over its own measurements. The [`Fleet`] is that
//! registry, built on three economies:
//!
//! * **One pool.** Every tenant's discovery sweeps, SCM fits, and query
//!   plan batches fan out over the single shared [`Executor`] — workers
//!   are spawned at most once for the whole fleet, never per tenant.
//! * **A cache economy under a global budget.** Raw measurement segments
//!   are small and `Arc`-shared; the epoch-LRU statistic caches (codes,
//!   joint codes, CI outcomes) are what grow. The fleet accounts both —
//!   segments deduplicated by `Arc` identity, cache footprints by lineage
//!   — and when the total exceeds the configured budget it evicts the
//!   *coldest tenants' caches* (never raw data). Evicted statistics are
//!   memoized pure functions of the data, so a later query re-derives
//!   them bit-identically; eviction trades latency, never answers.
//! * **Cross-tenant warm starts.** Fleets are full of near-replicas
//!   (the same software on the same platform). [`Fleet::admit`] finds the
//!   nearest registered tenant by [`ScenarioSpec::distance`] and seeds
//!   the newcomer's relearn session with that neighbor's model; the seed
//!   is adopted only if the newcomer's bootstrap sample is bit-identical
//!   to the donor's (see [`unicorn_discovery::RelearnSession::seed`]),
//!   so a warm admission is provably the model a cold discovery run would
//!   have produced — and a mismatch silently falls back to cold.
//!
//! # The admit / budget / evict recipe
//!
//! ```no_run
//! use unicorn_core::fleet::{Fleet, FleetOptions};
//! use unicorn_inference::PerformanceQuery;
//! use unicorn_systems::ScenarioRegistry;
//!
//! let mut fleet = Fleet::new(FleetOptions {
//!     memory_budget: Some(64 << 20), // 64 MiB across all tenants
//!     ..FleetOptions::default()
//! });
//! for i in 0..100 {
//!     let spec = ScenarioRegistry::synthetic_on_demand(i);
//!     fleet.admit(&format!("tenant-{i}"), spec, 42);
//! }
//! let q = PerformanceQuery::CausalEffect { option: 0, objective: 8 };
//! let _a = fleet.query("tenant-7", &q);
//! fleet.append("tenant-7", 8, 1); // new measurements arrive
//! fleet.relearn("tenant-7"); //       … structure relearned incrementally
//! fleet.publish("tenant-7"); //       … snapshot published for serving
//! fleet.maintain(); // account + evict back under budget
//! assert!(fleet.stats().accounted_bytes <= 64 << 20);
//! ```
//!
//! Every mutating operation ([`Fleet::admit`], [`Fleet::append`],
//! [`Fleet::relearn`], [`Fleet::publish`]) runs the maintain pass itself;
//! [`Fleet::maintain`] is for callers that issue long read-only query
//! bursts (queries warm caches too, they just don't pay the accounting
//! sweep per call).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use unicorn_discovery::RelearnSession;
use unicorn_exec::Executor;
use unicorn_inference::{PerformanceQuery, QueryAnswer};
use unicorn_systems::{Scenario, ScenarioSpec, Simulator};

use crate::snapshot::{SnapshotCell, SnapshotRouter};
use crate::unicorn::{UnicornOptions, UnicornState};

/// Tunables of the fleet layer.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Global accounted-bytes budget across all tenants (segments counted
    /// once per `Arc`, cache lineages once each). `None` disables
    /// eviction — the unbounded arm of the determinism proofs. The budget
    /// bounds *cache* growth: raw data is never evicted, so a fleet whose
    /// raw segments alone exceed the budget simply runs cache-cold.
    pub memory_budget: Option<usize>,
    /// Maximum [`ScenarioSpec::distance`] at which a registered tenant may
    /// donate its model to a new admission. `0.0` (the default) seeds only
    /// from structurally identical specs — the replica-group case where
    /// adoption actually fires; larger values merely offer seeds that the
    /// bit-identity gate then rejects.
    pub warm_start_max_distance: f64,
    /// Per-tenant loop tunables. `discovery.exec` is overridden with the
    /// fleet's shared pool; `seed` with each admission's sample seed.
    pub unicorn: UnicornOptions,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            memory_budget: None,
            warm_start_max_distance: 0.0,
            unicorn: UnicornOptions::default(),
        }
    }
}

/// Fleet observability counters (see [`Fleet::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStats {
    /// Registered tenants.
    pub tenants: usize,
    /// Current accounted bytes (deduplicated segments + cache lineages).
    pub accounted_bytes: usize,
    /// Peak accounted bytes observed at the end of any maintain pass —
    /// i.e. *after* eviction, so a budgeted fleet's peak respects the
    /// budget whenever eviction can (cache bytes were the excess).
    pub peak_bytes: usize,
    /// Cache-lineage evictions performed so far.
    pub evictions: u64,
    /// Admissions whose seeded neighbor model was adopted (skipping cold
    /// discovery with a provably bit-identical result).
    pub warm_admissions: u64,
    /// Interventional sweep-cache hits summed over all tenants (0 when
    /// `UNICORN_SWEEP_CACHE` disables caching).
    pub sweep_hits: u64,
    /// Interventional sweep-cache misses summed over all tenants.
    pub sweep_misses: u64,
}

/// One registered tenant: its scenario point, private simulator and loop
/// state, and its serving cell once published.
struct Tenant {
    spec: ScenarioSpec,
    sim: Simulator,
    opts: UnicornOptions,
    state: UnicornState,
    cell: Option<Arc<SnapshotCell>>,
    /// Logical last-touch tick (monotone fleet clock) — the LRU key for
    /// cache eviction.
    last_touch: u64,
    /// Cached `(segment bytes, cache bytes)` of this tenant's views,
    /// recomputed lazily when `dirty` — so an accounting sweep over a
    /// thousand-tenant fleet re-walks only the tenants actually touched
    /// since the last sweep.
    acct: (usize, usize),
    dirty: bool,
}

impl Tenant {
    fn touch(&mut self, now: u64) {
        self.last_touch = now;
        self.dirty = true;
    }

    /// This tenant's `(segment bytes, cache bytes)`: the live view plus
    /// the published snapshot view, segments deduplicated by `Arc`
    /// identity and cache lineages counted once (a snapshot taken since
    /// the last append shares the live view's lineage). The cache term
    /// also charges the tenant's interventional sweep cache — state and
    /// published snapshot share one `Arc`, deduplicated by identity like
    /// the segments.
    fn bytes(&mut self) -> (usize, usize) {
        let mut seen_segments: HashSet<usize> = HashSet::new();
        let mut seen_lineages: HashSet<u64> = HashSet::new();
        let mut segments = 0usize;
        let mut caches = 0usize;
        {
            let mut account = |view: &unicorn_stats::dataview::DataView| {
                for seg in view.segments() {
                    if seen_segments.insert(Arc::as_ptr(seg) as usize) {
                        segments += seg.approx_bytes();
                    }
                }
                if seen_lineages.insert(view.lineage()) {
                    caches += view.cache_bytes();
                }
            };
            account(self.state.view());
            if let Some(cell) = &self.cell {
                account(&cell.load().view);
            }
        }
        let mut seen_sweeps: HashSet<usize> = HashSet::new();
        let mut sweep = |c: Option<&Arc<unicorn_inference::SweepCache>>| {
            if let Some(c) = c {
                if seen_sweeps.insert(Arc::as_ptr(c) as usize) {
                    caches += c.approx_bytes();
                }
            }
        };
        sweep(self.state.sweep_cache());
        if let Some(cell) = &self.cell {
            sweep(cell.load().engine.sweep_cache());
        }
        (segments, caches)
    }

    /// Clears the statistic caches of every view this tenant pins, plus
    /// its interventional sweep cache — all memoized pure functions of
    /// the data, so every evicted entry re-derives bit-identically.
    fn evict_caches(&mut self) {
        self.state.view().evict_statistic_caches();
        if let Some(c) = self.state.sweep_cache() {
            c.clear();
        }
        if let Some(cell) = &self.cell {
            let snap = cell.load();
            snap.view.evict_statistic_caches();
            if let Some(c) = snap.engine.sweep_cache() {
                c.clear();
            }
        }
        self.dirty = true;
    }
}

/// A registry of many tenant [`UnicornState`]s sharing one worker pool,
/// one snapshot router, and one memory budget. See the module docs for
/// the admit/budget/evict recipe.
pub struct Fleet {
    opts: FleetOptions,
    exec: Arc<Executor>,
    /// Tenants in name order — a `BTreeMap` so neighbor search and
    /// eviction scans are deterministic regardless of admission hashing.
    tenants: BTreeMap<String, Tenant>,
    router: Arc<SnapshotRouter>,
    clock: u64,
    accounted: usize,
    peak_bytes: usize,
    evictions: u64,
    warm_admissions: u64,
}

impl Fleet {
    /// An empty fleet. The shared pool comes from
    /// `opts.unicorn.discovery` (the caller's, if the options carry one,
    /// otherwise the pipeline default) — every tenant admitted later
    /// inherits it.
    pub fn new(opts: FleetOptions) -> Self {
        let exec = opts.unicorn.discovery.executor();
        Self {
            opts,
            exec,
            tenants: BTreeMap::new(),
            router: Arc::new(SnapshotRouter::new()),
            clock: 0,
            accounted: 0,
            peak_bytes: 0,
            evictions: 0,
            warm_admissions: 0,
        }
    }

    /// The fleet's shared worker pool.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// The serving router: one [`SnapshotCell`] per published tenant.
    /// Hand this to `unicorn_serve::Server::start` to serve the
    /// fleet over `/v1/tenants/:id/query`.
    pub fn router(&self) -> &Arc<SnapshotRouter> {
        &self.router
    }

    /// Registered tenant names, sorted.
    #[cfg(test)]
    fn tenant_names(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Admits a new tenant at `spec`: draws its bootstrap sample (seeded
    /// by `sample_seed`), learns its first model — warm-started from the
    /// nearest registered neighbor within
    /// [`FleetOptions::warm_start_max_distance`], cold otherwise — and
    /// registers the state under `name`. Returns whether the admission
    /// adopted the neighbor's model.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate tenant name.
    pub fn admit(&mut self, name: &str, spec: ScenarioSpec, sample_seed: u64) -> bool {
        assert!(
            !self.tenants.contains_key(name),
            "duplicate tenant {name:?}"
        );
        let sim = Scenario::synthetic(spec.clone()).simulator(sample_seed);
        let mut opts = self.opts.unicorn.clone();
        opts.seed = sample_seed;
        opts.discovery.exec = Some(Arc::clone(&self.exec));

        // Nearest registered neighbor by spec distance (ties broken by
        // name order — the BTreeMap scan is deterministic).
        let mut session = RelearnSession::default();
        let neighbor = self
            .tenants
            .iter()
            .map(|(n, t)| (spec.distance(&t.spec), n.clone()))
            .min_by(|a, b| a.partial_cmp(b).expect("NaN spec distance"));
        if let Some((dist, donor_name)) = neighbor {
            if dist <= self.opts.warm_start_max_distance {
                let donor = self.tenants.get_mut(&donor_name).expect("donor exists");
                session.seed(
                    donor.state.view().clone(),
                    donor.state.data.names.clone(),
                    donor.sim.model.tiers(),
                    &opts.discovery,
                    donor.state.model.clone(),
                );
            }
        }
        let state = UnicornState::bootstrap_with_session(&sim, &opts, session);
        let warmed = state.session().warm_adoptions() > 0;
        if warmed {
            self.warm_admissions += 1;
        }
        let last_touch = self.tick();
        self.tenants.insert(
            name.to_string(),
            Tenant {
                spec,
                sim,
                opts,
                state,
                cell: None,
                last_touch,
                acct: (0, 0),
                dirty: true,
            },
        );
        self.maintain();
        warmed
    }

    fn tenant_mut(&mut self, name: &str) -> &mut Tenant {
        self.tenants
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown tenant {name:?}"))
    }

    /// Answers one performance query against `name`'s current engine
    /// (the same cached-SCM path as the interactive loop — bit-identical
    /// to a standalone [`UnicornState`] over the same data). Touches the
    /// tenant for LRU purposes but does not run the accounting sweep;
    /// callers issuing long query bursts should [`Self::maintain`]
    /// periodically.
    pub fn query(&mut self, name: &str, query: &PerformanceQuery) -> QueryAnswer {
        let now = self.tick();
        let t = self
            .tenants
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown tenant {name:?}"));
        t.touch(now);
        let engine = t.state.engine(&t.sim, &t.opts);
        engine.estimate(query)
    }

    /// Appends `n` freshly measured samples (seeded by `seed`) to
    /// `name`'s data along the O(new rows) segmented path.
    pub fn append(&mut self, name: &str, n: usize, seed: u64) {
        let now = self.tick();
        let t = self.tenant_mut(name);
        t.touch(now);
        let fresh = unicorn_systems::generate(&t.sim, n, seed);
        t.state.extend_data(&fresh);
        self.maintain();
    }

    /// Relearns `name`'s causal structure from all accumulated data along
    /// the incremental path (bit-identical to a cold relearn).
    pub fn relearn(&mut self, name: &str) {
        let now = self.tick();
        let t = self.tenant_mut(name);
        t.touch(now);
        let (sim, opts) = (t.sim.clone(), t.opts.clone());
        t.state.relearn(&sim, &opts);
        self.maintain();
    }

    /// Publishes `name`'s current state as an immutable serving snapshot:
    /// first publish registers a [`SnapshotCell`] with the router, later
    /// ones flip the epoch inside the existing cell.
    pub fn publish(&mut self, name: &str) {
        let now = self.tick();
        let t = self
            .tenants
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown tenant {name:?}"));
        t.touch(now);
        let snap = t.state.publish_snapshot(&t.sim.clone(), &t.opts.clone());
        match &t.cell {
            Some(cell) => {
                cell.publish(snap);
            }
            None => {
                let cell = Arc::new(SnapshotCell::new(snap));
                t.cell = Some(Arc::clone(&cell));
                self.router.insert(name, cell);
            }
        }
        self.maintain();
    }

    /// The sum of [`Self::accounted_breakdown`].
    fn accounted_bytes(&mut self) -> usize {
        let (segments, caches) = self.accounted_breakdown();
        segments + caches
    }

    /// Current accounted bytes, split into `(segment bytes, cache
    /// bytes)`: every live segment once per `Arc` identity (appends and
    /// snapshots share sealed segments), every cache lineage once (a view
    /// clone shares its lineage's caches). Published snapshot views are
    /// included — they pin segments and caches just like tenant views.
    /// The segment term is the eviction floor — raw data (plus its
    /// materialized sorted runs and moment summaries) is never evicted,
    /// so a budget below it just runs the fleet cache-cold.
    ///
    /// The sweep is incremental: per-tenant byte counts are cached and
    /// re-walked only for tenants touched (queried, appended, relearned,
    /// published, or evicted) since the last sweep, so a maintain pass
    /// over a thousand-tenant fleet costs O(touched) cache walks plus an
    /// O(tenants) sum. Tenant datasets are private, so `Arc` dedup is
    /// per tenant (live view vs its published snapshot) — exactly where
    /// sharing occurs.
    pub fn accounted_breakdown(&mut self) -> (usize, usize) {
        let mut segments = 0usize;
        let mut caches = 0usize;
        for t in self.tenants.values_mut() {
            if t.dirty {
                t.acct = t.bytes();
                t.dirty = false;
            }
            segments += t.acct.0;
            caches += t.acct.1;
        }
        (segments, caches)
    }

    /// Runs the accounting sweep and, when a budget is configured and
    /// exceeded, evicts the statistic caches of the coldest tenants
    /// (oldest `last_touch`, ties by name) until back under budget or out
    /// of evictable cache bytes. Raw segments are never evicted; evicted
    /// statistics re-derive bit-identically on the next touch. Updates
    /// the peak-bytes watermark from the post-eviction total.
    pub fn maintain(&mut self) {
        let (segments, mut caches) = self.accounted_breakdown();
        let mut total = segments + caches;
        if let Some(budget) = self.opts.memory_budget {
            if total > budget {
                // Coldest-first eviction order, decided up front: the
                // accounting total is global, so re-sorting per round
                // buys nothing.
                let mut order: Vec<(u64, String)> = self
                    .tenants
                    .iter()
                    .filter(|(_, t)| t.acct.1 > 0)
                    .map(|(n, t)| (t.last_touch, n.clone()))
                    .collect();
                order.sort();
                for (_, name) in order {
                    if total <= budget || caches == 0 {
                        break;
                    }
                    let t = self.tenants.get_mut(&name).expect("tenant exists");
                    let freed = t.acct.1;
                    t.evict_caches();
                    t.acct.1 = 0;
                    t.dirty = false;
                    self.evictions += 1;
                    caches -= freed.min(caches);
                    total -= freed.min(total);
                }
            }
        }
        self.accounted = total;
        self.peak_bytes = self.peak_bytes.max(total);
    }

    /// Current fleet counters. Runs the accounting sweep (so the reported
    /// bytes are exact at the call).
    pub fn stats(&mut self) -> FleetStats {
        let accounted_bytes = self.accounted_bytes();
        self.accounted = accounted_bytes;
        self.peak_bytes = self.peak_bytes.max(accounted_bytes);
        let (sweep_hits, sweep_misses) = self
            .tenants
            .values()
            .filter_map(|t| t.state.sweep_cache())
            .fold((0u64, 0u64), |(h, m), c| {
                (h + c.stats().hits(), m + c.stats().misses())
            });
        FleetStats {
            tenants: self.tenants.len(),
            accounted_bytes,
            peak_bytes: self.peak_bytes,
            evictions: self.evictions,
            warm_admissions: self.warm_admissions,
            sweep_hits,
            sweep_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_graph::VarKind;
    use unicorn_systems::ScenarioRegistry;

    fn small_fleet_opts() -> FleetOptions {
        FleetOptions {
            unicorn: UnicornOptions {
                initial_samples: 30,
                relearn_every: 3,
                ..UnicornOptions::default()
            },
            ..FleetOptions::default()
        }
    }

    fn effect_query(fleet: &mut Fleet, name: &str) -> PerformanceQuery {
        let t = fleet.tenants.get(name).expect("tenant");
        let tiers = t.sim.model.tiers();
        PerformanceQuery::CausalEffect {
            option: tiers.of_kind(VarKind::ConfigOption)[0],
            objective: tiers.of_kind(VarKind::Objective)[0],
        }
    }

    fn bits(a: &QueryAnswer) -> String {
        format!("{a:?}")
    }

    #[test]
    fn replica_admission_adopts_the_neighbor_model() {
        let mut fleet = Fleet::new(small_fleet_opts());
        let spec = ScenarioRegistry::synthetic_on_demand(0);
        assert!(!fleet.admit("t0", spec.clone(), 7), "first is cold");
        // Same spec, same sample seed → bit-identical bootstrap data →
        // the seeded model is adopted.
        assert!(fleet.admit("t1", spec.clone(), 7), "replica warms");
        // Same spec, different sample seed → different data → cold.
        assert!(!fleet.admit("t2", spec, 8), "different sample is cold");
        assert_eq!(fleet.stats().warm_admissions, 1);

        // The adopted model answers exactly like its donor.
        let q = effect_query(&mut fleet, "t0");
        let a = fleet.query("t0", &q);
        let b = fleet.query("t1", &q);
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn distant_specs_stay_cold() {
        let mut fleet = Fleet::new(small_fleet_opts());
        fleet.admit("a", ScenarioRegistry::synthetic_on_demand(0), 7);
        // A different replica group is beyond the 0.0 default threshold.
        let far = ScenarioRegistry::synthetic_on_demand(ScenarioRegistry::ON_DEMAND_REPLICAS);
        assert!(!fleet.admit("b", far, 7));
        assert_eq!(fleet.stats().warm_admissions, 0);
    }

    #[test]
    fn budgeted_fleet_evicts_and_rederives_bit_identically() {
        let spec = ScenarioRegistry::synthetic_on_demand(0);
        let mut unbounded = Fleet::new(small_fleet_opts());
        unbounded.admit("t", spec.clone(), 3);
        let q = effect_query(&mut unbounded, "t");
        let reference = unbounded.query("t", &q);

        // Budget at the raw floor: every maintain pass must evict.
        let mut tight = Fleet::new(FleetOptions {
            memory_budget: Some(1),
            ..small_fleet_opts()
        });
        tight.admit("t", spec, 3);
        let first = tight.query("t", &q);
        tight.maintain(); // caches warmed by the query are evicted here
        let rederived = tight.query("t", &q);
        let stats = tight.stats();
        assert!(stats.evictions > 0, "tight budget must evict");
        assert_eq!(bits(&reference), bits(&first));
        assert_eq!(bits(&reference), bits(&rederived));
    }

    #[test]
    fn budget_bounds_cache_bytes_at_the_raw_floor() {
        let spec = ScenarioRegistry::synthetic_on_demand(0);
        // Measure the raw floor (segments only) with an unbounded twin.
        let mut probe = Fleet::new(small_fleet_opts());
        probe.admit("t", spec.clone(), 3);
        let q = effect_query(&mut probe, "t");
        let _ = probe.query("t", &q);
        probe
            .tenants
            .get_mut("t")
            .expect("tenant")
            .state
            .view()
            .evict_statistic_caches();
        let floor = probe.accounted_bytes();

        let budget = floor + floor / 2;
        let mut fleet = Fleet::new(FleetOptions {
            memory_budget: Some(budget),
            ..small_fleet_opts()
        });
        fleet.admit("t", spec, 3);
        let _ = fleet.query("t", &q);
        fleet.maintain();
        let stats = fleet.stats();
        assert!(
            stats.accounted_bytes <= budget,
            "accounted {} exceeds budget {budget}",
            stats.accounted_bytes
        );
        assert!(stats.peak_bytes <= budget.max(stats.peak_bytes));
    }

    #[test]
    fn fleet_shares_one_pool_and_publishes_through_the_router() {
        let pool = Executor::new(2);
        let mut opts = small_fleet_opts();
        opts.unicorn.discovery.exec = Some(Arc::clone(&pool));
        let mut fleet = Fleet::new(opts);
        fleet.admit("a", ScenarioRegistry::synthetic_on_demand(0), 1);
        fleet.admit("b", ScenarioRegistry::synthetic_on_demand(4), 2);
        assert!(Arc::ptr_eq(fleet.executor(), &pool));
        for t in fleet.tenants.values() {
            assert!(Arc::ptr_eq(t.state.executor(), &pool));
        }
        assert!(pool.workers_spawned() <= 1);

        assert!(fleet.router().is_empty());
        fleet.publish("a");
        fleet.publish("a"); // second publish flips, not re-registers
        fleet.publish("b");
        assert_eq!(fleet.router().names(), vec!["a".to_string(), "b".into()]);
        let cell = fleet.router().get("a").expect("registered");
        assert_eq!(cell.flips(), 1);
        assert_eq!(fleet.tenant_names(), vec!["a".to_string(), "b".into()]);
        assert_eq!(fleet.len(), 2);
    }
}
