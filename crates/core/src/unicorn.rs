//! The Unicorn loop (Fig 7): specify query → learn causal performance
//! model → determine next configuration → measure & update → estimate.
//!
//! This module owns the shared machinery: model learning over accumulated
//! measurements, engine construction, and ACE-guided exploration. The
//! debugging and optimization tasks build their Stage III policies on top.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use unicorn_discovery::{
    learn_causal_model_incremental, DiscoveryOptions, LearnedModel, RelearnSession,
};
use unicorn_exec::Executor;
use unicorn_graph::NodeId;
use unicorn_inference::{sweep_cache_enabled, CausalEngine, FittedScm, RepairOptions, SweepCache};
use unicorn_stats::dataview::DataView;
use unicorn_systems::{Config, Dataset, Simulator};

/// Tunables of the Unicorn loop.
#[derive(Debug, Clone)]
pub struct UnicornOptions {
    /// Initial random samples before the first model (paper: 25,
    /// "10% of the total sampling budget").
    pub initial_samples: usize,
    /// Maximum additional measurements the loop may spend.
    pub budget: usize,
    /// Structure-learning configuration.
    pub discovery: DiscoveryOptions,
    /// Repair/path configuration.
    pub repair: RepairOptions,
    /// Relearn the causal structure every this many measurements
    /// (the SCM is refitted on every new sample regardless).
    pub relearn_every: usize,
    /// Terminate after this many consecutive repetitions of the same
    /// chosen configuration (§4: "the same configuration has been selected
    /// a certain number of times consecutively").
    pub stagnation_limit: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UnicornOptions {
    fn default() -> Self {
        Self {
            initial_samples: 25,
            budget: 25,
            discovery: DiscoveryOptions {
                // Bounded conditioning keeps the loop interactive at the
                // 50-plus-variable scale of the subject systems; the
                // paper's depth=-1 remains available via `max_depth`. The
                // stricter alpha keeps true edges alive under the heavy
                // collinearity of perf counters (L1 loads ≈ instructions),
                // where a looser test prunes real mechanism links.
                alpha: 0.01,
                max_depth: 2,
                pds_depth: 1,
                ..DiscoveryOptions::default()
            },
            repair: RepairOptions::default(),
            relearn_every: 5,
            stagnation_limit: 3,
            seed: 0x17171717,
        }
    }
}

/// The evolving Unicorn state: data so far, current structure, current
/// engine.
pub struct UnicornState {
    /// Accumulated measurements.
    pub data: Dataset,
    /// Shared columnar view over `data`, threaded through all five stages
    /// of the loop: structure learning, SCM fitting, and ACE queries all
    /// read this view's cached sufficient statistics. New measurements are
    /// staged in `pending` and folded in lazily (one
    /// [`DataView::append_rows`] per engine build / relearn, not one
    /// column copy per sample). Folding bumps the data epoch: the
    /// epoch-tagged caches survive along the lineage, but an entry
    /// computed on the old sample is never served for the extended one
    /// (see the `dataview` module docs for the invalidation rules).
    view: DataView,
    /// Measured rows not yet folded into `view`.
    pending: Vec<Vec<f64>>,
    /// Current learned structure.
    pub model: LearnedModel,
    /// Measurements since the last structure relearn.
    pub since_relearn: usize,
    /// Total measurements taken by the loop (excluding initial samples).
    pub measurements: usize,
    /// Warm-start state for the incremental relearn path (previous
    /// skeleton + model, keyed by data version and parameters).
    session: RelearnSession,
    /// The most recently fitted SCM, reused by [`Self::engine`]: returned
    /// as-is while the data and structure are unchanged, warm-refit
    /// (structure reused, regressions redone) when only the data grew.
    scm: Option<FittedScm>,
    /// The one worker pool of this state's lifetime: every relearn
    /// (skeleton sweep, PDS rounds, entropic resolution, completion scan)
    /// and every SCM fit/refit fans out over it, so workers are spawned at
    /// most once and reused across the whole active-learning loop.
    exec: Arc<Executor>,
    /// The one interventional sweep cache of this state's lifetime
    /// (`None` when `UNICORN_SWEEP_CACHE` disables caching): attached to
    /// every engine built from this state, so memoized sweep buffers
    /// survive engine rebuilds, snapshot publications, and epoch bumps
    /// along the lineage. Entries are epoch-tagged, so a relearn never
    /// serves stale bits — and the fleet's budget sweep may clear it at
    /// any time without changing an answer.
    sweep_cache: Option<Arc<SweepCache>>,
    rng: StdRng,
}

impl UnicornState {
    /// Bootstraps the loop: draws the initial sample set and learns the
    /// first causal performance model.
    pub fn bootstrap(sim: &Simulator, opts: &UnicornOptions) -> Self {
        Self::bootstrap_with_session(sim, opts, RelearnSession::default())
    }

    /// [`Self::bootstrap`] starting from a caller-provided relearn session
    /// — the fleet warm-start entry point: a session seeded with a near
    /// neighbor's model (see [`RelearnSession::seed`]) lets the first
    /// learn adopt it outright when the bootstrap sample is bit-identical,
    /// and falls back to cold discovery otherwise. With a default session
    /// this *is* `bootstrap`.
    pub fn bootstrap_with_session(
        sim: &Simulator,
        opts: &UnicornOptions,
        mut session: RelearnSession,
    ) -> Self {
        let data = unicorn_systems::generate(sim, opts.initial_samples, opts.seed);
        let view = data.view();
        // The state's one pool: the caller's, if the options carry one,
        // otherwise the pipeline default.
        let exec = opts.discovery.executor();
        let model = learn_causal_model_incremental(
            &view,
            &data.names,
            &sim.model.tiers(),
            &Self::discovery_opts(&opts.discovery, &exec),
            &mut session,
        );
        Self {
            data,
            view,
            pending: Vec::new(),
            model,
            since_relearn: 0,
            measurements: 0,
            session,
            scm: None,
            exec,
            sweep_cache: sweep_cache_enabled().then(|| Arc::new(SweepCache::default())),
            rng: StdRng::seed_from_u64(opts.seed ^ 0x5EED),
        }
    }

    /// The caller's discovery options pinned to this state's pool.
    fn discovery_opts(base: &DiscoveryOptions, exec: &Arc<Executor>) -> DiscoveryOptions {
        DiscoveryOptions {
            exec: Some(Arc::clone(exec)),
            ..base.clone()
        }
    }

    /// This state's worker pool (shared by forks; observability for the
    /// spawn-at-most-once guarantee).
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// The warm-start relearn session (observability: the fleet reads
    /// [`RelearnSession::warm_adoptions`] to count cross-tenant hits).
    pub fn session(&self) -> &RelearnSession {
        &self.session
    }

    /// Folds staged measurements into the shared view.
    fn sync_view(&mut self) {
        if !self.pending.is_empty() {
            self.view = self.view.append_rows(&self.pending);
            self.pending.clear();
        }
        // Catch external mutation of the (public) dataset that bypassed
        // record_sample/extend_data — fitting on a stale view would
        // otherwise be silent.
        assert_eq!(
            self.view.n_rows(),
            self.data.n_rows(),
            "UnicornState view desynchronized from data; mutate through \
             record_sample/measure_and_update/extend_data"
        );
    }

    /// The current view over all accumulated measurements (staged samples
    /// are folded in first).
    pub fn view(&mut self) -> &DataView {
        self.sync_view();
        &self.view
    }

    /// Builds the causal engine over the current structure and data. The
    /// SCM is cached across builds: unchanged data + structure is an `Arc`
    /// bump, a grown sample with an unchanged ADMG takes the warm-refit
    /// path ([`FittedScm::refit_view`]), and only a structure change pays a
    /// cold fit — all three produce identical fits. The engine `Arc`-shares
    /// the SCM and value domain, so it clones cheaply across worker
    /// threads and relearn iterations, and every query it answers is one
    /// compiled, pool-parallel plan batch.
    pub fn engine(&mut self, sim: &Simulator, opts: &UnicornOptions) -> CausalEngine {
        self.sync_view();
        let scm = match self.scm.take() {
            Some(prev) if prev.admg() == &self.model.admg => {
                prev.refit_view(&self.view).expect("SCM refit failed")
            }
            _ => {
                FittedScm::fit_view_on(self.model.admg.clone(), &self.view, Arc::clone(&self.exec))
                    .expect("SCM fit failed")
            }
        };
        // (Re)attach this state's sweep cache: the refit path already
        // inherits it along the lineage, but a cold fit starts bare and a
        // forked state must use its own cache, not its parent's.
        let scm = match &self.sweep_cache {
            Some(c) => scm.with_sweep_cache(Arc::clone(c)),
            None => scm,
        };
        self.scm = Some(scm.clone());
        CausalEngine::new(scm, sim.model.tiers(), Arc::new(self.data.domains(sim)))
            .with_repair_options(opts.repair.clone())
    }

    /// This state's sweep cache (`None` when disabled by
    /// `UNICORN_SWEEP_CACHE`) — fleet accounting reads its resident bytes,
    /// the budget sweep clears it.
    pub fn sweep_cache(&self) -> Option<&Arc<SweepCache>> {
        self.sweep_cache.as_ref()
    }

    /// Records an already-measured sample into both the dataset and the
    /// shared view (keeping their row indices aligned) without counting it
    /// against the loop budget or relearn cadence.
    pub fn record_sample(&mut self, sample: &unicorn_systems::Sample) {
        self.data.push(sample);
        self.pending.push(sample.row());
    }

    /// Records one already-measured raw data row (node order: options,
    /// events, objectives) — the streaming-ingestion fold hook. Rows enter
    /// the dataset and the staged pending set exactly like
    /// [`Self::record_sample`], so the next [`Self::relearn`] /
    /// [`Self::engine`] folds them through the segmented append path in a
    /// single epoch bump.
    ///
    /// # Panics
    ///
    /// Panics when the row width does not match the dataset.
    pub fn record_row(&mut self, row: &[f64]) {
        self.data.push_row(row);
        self.pending.push(row.to_vec());
    }

    /// Replaces the accumulated dataset wholesale and rebuilds the view
    /// over it, dropping warm-start state that referred to the replaced
    /// sample — the cold reference `extend_data` is checked against.
    #[cfg(test)]
    fn replace_data(&mut self, data: Dataset) {
        self.pending.clear();
        self.view = data.view();
        self.data = data;
        self.session.clear();
        self.scm = None;
        // Epochs are globally unique, so the replaced lineage's sweep
        // buffers could never be served again — free them eagerly.
        if let Some(c) = &self.sweep_cache {
            c.clear();
        }
    }

    /// Appends a whole dataset (e.g. fresh target-environment samples in a
    /// transfer update) to the accumulated data: columns extend in place
    /// and the shared view grows through the segmented columnar append —
    /// O(new rows), sealed segments shared, epoch-tagged caches carried
    /// along — instead of a full view rebuild. The warm-start relearn
    /// state survives, and the incremental relearn contract keeps the next
    /// structure bit-identical to a cold one.
    pub fn extend_data(&mut self, other: &Dataset) {
        self.sync_view();
        self.data.extend_from(other);
        self.view = self.view.append_columns(&other.columns);
    }

    /// Measures a configuration, appends the sample, and relearns the
    /// structure on the configured cadence. Returns the measured sample.
    pub fn measure_and_update(
        &mut self,
        sim: &Simulator,
        opts: &UnicornOptions,
        config: &Config,
    ) -> unicorn_systems::Sample {
        let sample = sim.measure(config);
        self.record_sample(&sample);
        self.measurements += 1;
        self.since_relearn += 1;
        if self.since_relearn >= opts.relearn_every {
            self.relearn(sim, opts);
        }
        sample
    }

    /// Forces a structure relearn from all accumulated data (Stage IV):
    /// staged rows are folded in as one epoch bump, then the incremental
    /// path (merged sufficient statistics, surviving epoch-tagged caches,
    /// skeleton warm start) relearns the structure — bit-identical to a
    /// cold relearn on the same sample.
    pub fn relearn(&mut self, sim: &Simulator, opts: &UnicornOptions) {
        self.sync_view();
        self.model = learn_causal_model_incremental(
            &self.view,
            &self.data.names,
            &sim.model.tiers(),
            &Self::discovery_opts(&opts.discovery, &self.exec),
            &mut self.session,
        );
        self.since_relearn = 0;
    }

    /// ACE-guided exploration (Stage III fallback): picks options with
    /// probability proportional to their causal effect on `objective` and
    /// assigns them random permissible values; unselected options keep the
    /// values of `base`. "Changes in the options [with higher effects] are
    /// more likely to have a larger effect on performance objectives, and
    /// therefore we can learn more about the performance behavior."
    ///
    /// The whole option-effect table is obtained as **one** submitted
    /// query plan (`CausalEngine::option_effects` compiles the full
    /// options × values sweep grid), not one interventional call per
    /// option — the Stage III fan-out batches over the state's pool.
    pub fn ace_weighted_explore(
        &mut self,
        sim: &Simulator,
        engine: &CausalEngine,
        objective: NodeId,
        base: &Config,
        n_changes: usize,
    ) -> Config {
        self.ace_weighted_explore_excluding(sim, engine, objective, base, n_changes, &[])
    }

    /// [`Self::ace_weighted_explore`] with an exclusion list: options a
    /// partially successful repair already fixed should not be perturbed
    /// while hunting for the remaining causes.
    pub fn ace_weighted_explore_excluding(
        &mut self,
        sim: &Simulator,
        engine: &CausalEngine,
        objective: NodeId,
        base: &Config,
        n_changes: usize,
        exclude: &[NodeId],
    ) -> Config {
        let mut effects = engine.option_effects(objective);
        effects.retain(|&(o, _)| !exclude.contains(&o));
        if effects.is_empty() {
            return base.clone();
        }
        let total: f64 = effects.iter().map(|&(_, e)| e.max(1e-9)).sum();
        let mut config = base.clone();
        for _ in 0..n_changes.max(1) {
            // Mostly roulette-wheel selection over ACEs, with a uniform
            // share so options the current model has not (yet) connected
            // to the objective still get visited — otherwise a missing
            // edge could never be discovered by the loop's own samples.
            let chosen = if self.rng.gen::<f64>() < 0.3 {
                effects[self.rng.gen_range(0..effects.len())].0
            } else {
                let mut ball = self.rng.gen::<f64>() * total;
                let mut pick = effects[0].0;
                for &(o, e) in &effects {
                    ball -= e.max(1e-9);
                    if ball <= 0.0 {
                        pick = o;
                        break;
                    }
                }
                pick
            };
            let grid = &sim.model.space.option(chosen).values;
            if grid.len() < 2 {
                continue;
            }
            // Pick a value different from the current one so every
            // exploration step actually moves.
            let cur = sim
                .model
                .space
                .option(chosen)
                .nearest_index(config.values[chosen]);
            let mut j = self.rng.gen_range(0..grid.len());
            if j == cur {
                j = (j + 1) % grid.len();
            }
            config.values[chosen] = grid[j];
        }
        config
    }

    /// Mutable access to the loop RNG (shared by task policies).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Deep copy with a fresh RNG and reset counters — used by the
    /// transfer experiments so reuse runs do not mutate the cached source
    /// state.
    pub fn fork(&self, seed: u64) -> UnicornState {
        UnicornState {
            data: self.data.clone(),
            // Arc bump: the fork shares the parent's view (and its warm
            // caches) until its first own fold — which, as a second append
            // from the shared view, starts a fresh cache lineage so the
            // branches cannot contaminate each other.
            view: self.view.clone(),
            pending: self.pending.clone(),
            model: self.model.clone(),
            since_relearn: 0,
            measurements: 0,
            session: self.session.clone(),
            scm: self.scm.clone(),
            // Forks share the parent's pool (an Arc bump): workers are
            // still spawned at most once across the whole family.
            exec: Arc::clone(&self.exec),
            // A fork gets its own sweep cache so per-tenant byte
            // accounting and budget eviction stay independent; the first
            // `engine()` call swaps it in over the inherited one.
            sweep_cache: sweep_cache_enabled().then(|| Arc::new(SweepCache::default())),
            rng: StdRng::seed_from_u64(seed ^ 0x7272),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_systems::{Environment, Hardware, SubjectSystem};

    fn sim() -> Simulator {
        Simulator::new(
            SubjectSystem::X264.build(),
            Environment::on(Hardware::Tx2),
            3,
        )
    }

    fn small_opts() -> UnicornOptions {
        UnicornOptions {
            initial_samples: 40,
            budget: 5,
            relearn_every: 3,
            ..Default::default()
        }
    }

    #[test]
    fn bootstrap_learns_a_structure() {
        let s = sim();
        let opts = small_opts();
        let st = UnicornState::bootstrap(&s, &opts);
        assert_eq!(st.data.n_rows(), 40);
        assert!(st.model.admg.directed_edges().len() > 3);
        // The objective must have at least one cause in the learned model.
        let obj = st.data.objective_node(0);
        assert!(
            !st.model.admg.parents(obj).is_empty(),
            "objective has no parents"
        );
    }

    #[test]
    fn measure_and_update_accumulates_and_relearns() {
        let s = sim();
        let opts = small_opts();
        let mut st = UnicornState::bootstrap(&s, &opts);
        let c = s.model.space.default_config();
        st.measure_and_update(&s, &opts, &c);
        st.measure_and_update(&s, &opts, &c);
        assert_eq!(st.since_relearn, 2);
        st.measure_and_update(&s, &opts, &c); // triggers relearn (every 3)
        assert_eq!(st.since_relearn, 0);
        assert_eq!(st.data.n_rows(), 43);
        assert_eq!(st.measurements, 3);
    }

    #[test]
    fn state_pool_spawns_workers_at_most_once() {
        let s = sim();
        let pool = Executor::new(2);
        let mut opts = small_opts();
        opts.discovery.exec = Some(Arc::clone(&pool));
        let mut st = UnicornState::bootstrap(&s, &opts);
        assert!(
            Arc::ptr_eq(st.executor(), &pool),
            "state must adopt the pool"
        );
        let spawned_after_bootstrap = pool.workers_spawned();
        let c = s.model.space.default_config();
        for _ in 0..7 {
            st.measure_and_update(&s, &opts, &c); // relearns every 3
            let _ = st.engine(&s, &opts); // SCM fit/refit on the same pool
        }
        assert_eq!(
            pool.workers_spawned(),
            spawned_after_bootstrap,
            "the pool must reuse its workers across the whole relearn loop"
        );
        assert!(pool.workers_spawned() <= 1);
        // Forks share the pool rather than spawning their own.
        let fork = st.fork(1);
        assert!(Arc::ptr_eq(fork.executor(), &pool));
    }

    #[test]
    fn extend_data_matches_replace_data_bit_for_bit() {
        let s = sim();
        let opts = small_opts();
        let st = UnicornState::bootstrap(&s, &opts);
        let fresh = unicorn_systems::generate(&s, 12, 99);
        // Segmented columnar extension (warm caches survive) …
        let mut a = st.fork(1);
        a.extend_data(&fresh);
        a.relearn(&s, &opts);
        // … against the wholesale replacement (cold view, cold session).
        let mut b = st.fork(1);
        let ext = b.data.extended_with(&fresh);
        b.replace_data(ext);
        b.relearn(&s, &opts);
        assert_eq!(a.data.n_rows(), b.data.n_rows());
        assert_eq!(a.view().columns(), b.view().columns());
        assert_eq!(a.model.admg.directed_edges(), b.model.admg.directed_edges());
        assert_eq!(
            a.model.admg.bidirected_edges(),
            b.model.admg.bidirected_edges()
        );
    }

    #[test]
    fn exploration_changes_only_grid_values() {
        let s = sim();
        let opts = small_opts();
        let mut st = UnicornState::bootstrap(&s, &opts);
        let engine = st.engine(&s, &opts);
        let base = s.model.space.default_config();
        let obj = st.data.objective_node(0);
        let c = st.ace_weighted_explore(&s, &engine, obj, &base, 3);
        for (i, v) in c.values.iter().enumerate() {
            assert!(s.model.space.option(i).values.contains(v));
        }
        assert!(s.model.space.config_distance(&base, &c) <= 3);
    }
}
