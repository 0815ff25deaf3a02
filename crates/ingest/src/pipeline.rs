//! The per-tenant ingest pipeline and its worker thread: score, fold,
//! detect, relearn, publish.
//!
//! [`IngestPipeline`] owns the tenant's [`UnicornState`] for the
//! daemon's lifetime — the background relearn thread is the *only*
//! mutator, connection threads read immutable [`EngineSnapshot`]s from
//! the shared [`SnapshotCell`]. Rows are processed strictly one at a
//! time against the **pinned** SCM of the last published epoch, which is
//! what makes the trigger row a pure function of the row stream: a
//! mid-batch trigger relearns and re-pins immediately, so the remaining
//! rows of the flush score against the new model exactly as they would
//! have had the flush boundary fallen anywhere else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use unicorn_core::{EngineSnapshot, SnapshotCell, TenantMap, UnicornOptions, UnicornState};
use unicorn_graph::NodeId;
use unicorn_inference::FittedScm;
use unicorn_systems::Simulator;

use crate::drift::{DriftBank, DriftOptions};
use crate::queue::IngestQueue;

/// Why a relearn fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelearnReason {
    /// A drift detector tripped on this objective (index into the
    /// snapshot's objective order).
    Drift { objective: usize },
    /// The max-staleness fallback cadence elapsed without a trigger.
    Staleness,
}

/// One background relearn, as observed by the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct RelearnEvent {
    /// 1-based index, in the pipeline's lifetime row stream, of the row
    /// whose processing fired the relearn.
    pub stream_row: u64,
    /// What pulled the trigger.
    pub reason: RelearnReason,
    /// Epoch of the snapshot the relearn published.
    pub epoch: u64,
    /// Wall-clock cost of relearn + snapshot build + publish.
    pub wall: Duration,
}

/// Shared drift observability counters (rendered by `/v1/tenants/:id/stats`).
#[derive(Debug, Default)]
pub struct DriftStats {
    triggers: AtomicU64,
    last_trigger_epoch: AtomicU64,
    staleness_relearns: AtomicU64,
}

impl DriftStats {
    /// Drift-triggered relearns so far.
    pub fn triggers(&self) -> u64 {
        self.triggers.load(Ordering::Relaxed)
    }

    /// Epoch published by the most recent drift-triggered relearn
    /// (zero when none has fired yet).
    pub fn last_trigger_epoch(&self) -> u64 {
        self.last_trigger_epoch.load(Ordering::Relaxed)
    }

    /// Staleness-fallback relearns so far (not drift-triggered).
    #[cfg(test)]
    fn staleness_relearns(&self) -> u64 {
        self.staleness_relearns.load(Ordering::Relaxed)
    }
}

/// The streaming *score → fold → detect → relearn → publish* loop for
/// one tenant.
pub struct IngestPipeline {
    state: UnicornState,
    sim: Simulator,
    opts: UnicornOptions,
    cell: Arc<SnapshotCell>,
    drift: DriftOptions,
    bank: DriftBank,
    objectives: Vec<NodeId>,
    /// The model rows are scored against: pinned at the last publish,
    /// never a half-updated state.
    scm: FittedScm,
    /// Per-objective training-residual RMS of the pinned model — the
    /// normalization that makes `DriftOptions` thresholds unit-free.
    scales: Vec<f64>,
    rows_seen: u64,
    rows_since_relearn: usize,
    stats: Arc<DriftStats>,
}

impl IngestPipeline {
    /// Builds the pipeline around a bootstrapped tenant.
    ///
    /// `cell` must currently hold a snapshot published from `state` (the
    /// daemon boots exactly this way: bootstrap, `publish_snapshot`,
    /// wrap in a cell, hand both here) — the pipeline pins that
    /// snapshot's SCM as the initial residual baseline.
    pub fn new(
        state: UnicornState,
        sim: Simulator,
        opts: UnicornOptions,
        cell: Arc<SnapshotCell>,
        drift: DriftOptions,
        stats: Arc<DriftStats>,
    ) -> Self {
        let snap = cell.load();
        let objectives = snap.objective_nodes();
        let (scm, scales) = Self::pin(&snap, &objectives);
        let bank = DriftBank::new(objectives.len(), &drift);
        Self {
            state,
            sim,
            opts,
            cell,
            drift,
            bank,
            objectives,
            scm,
            scales,
            rows_seen: 0,
            rows_since_relearn: 0,
            stats,
        }
    }

    fn pin(snap: &EngineSnapshot, objectives: &[NodeId]) -> (FittedScm, Vec<f64>) {
        let scm = snap.engine.scm().clone();
        let scales = objectives.iter().map(|&o| scm.residual_rms(o)).collect();
        (scm, scales)
    }

    /// Processes a flushed batch row by row: score against the pinned
    /// SCM, fold into the state, update the detectors, and relearn on a
    /// trigger or on the staleness fallback. Returns the relearns that
    /// fired, in order.
    pub fn ingest_rows(&mut self, rows: &[Vec<f64>]) -> Vec<RelearnEvent> {
        let mut events = Vec::new();
        for row in rows {
            let residuals = self.scm.residuals_against(row, &self.objectives);
            self.state.record_row(row);
            self.rows_seen += 1;
            self.rows_since_relearn += 1;
            let normalized: Vec<f64> = residuals
                .iter()
                .zip(&self.scales)
                .map(|(r, s)| r / s)
                .collect();
            if let Some(objective) = self.bank.observe(&normalized) {
                events.push(self.relearn_now(RelearnReason::Drift { objective }));
            } else if self.rows_since_relearn >= self.drift.max_staleness_rows {
                events.push(self.relearn_now(RelearnReason::Staleness));
            }
        }
        events
    }

    /// Relearns over everything folded so far, publishes the next epoch
    /// into the cell (a pointer flip — in-flight queries finish on the
    /// old one), and re-pins the residual baseline.
    fn relearn_now(&mut self, reason: RelearnReason) -> RelearnEvent {
        let t0 = Instant::now();
        self.state.relearn(&self.sim, &self.opts);
        let snap = self.state.publish_snapshot(&self.sim, &self.opts);
        self.cell.publish(Arc::clone(&snap));
        let (scm, scales) = Self::pin(&snap, &self.objectives);
        self.scm = scm;
        self.scales = scales;
        self.bank.reset();
        self.rows_since_relearn = 0;
        match reason {
            RelearnReason::Drift { .. } => {
                self.stats.triggers.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .last_trigger_epoch
                    .store(snap.epoch, Ordering::Relaxed);
            }
            RelearnReason::Staleness => {
                self.stats
                    .staleness_relearns
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        RelearnEvent {
            stream_row: self.rows_seen,
            reason,
            epoch: snap.epoch,
            wall: t0.elapsed(),
        }
    }

    /// Total rows ingested over the pipeline's lifetime.
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// Read access to the owned state (bit-identity assertions).
    pub fn state(&self) -> &UnicornState {
        &self.state
    }

    /// Tears the pipeline down into its state (end-of-life inspection).
    pub fn into_state(self) -> UnicornState {
        self.state
    }
}

/// The background relearn thread: drains the tenant's [`IngestQueue`]
/// flush by flush and drives the pipeline until the queue closes.
pub struct IngestWorker {
    handle: thread::JoinHandle<IngestPipeline>,
}

impl IngestWorker {
    /// Spawns the worker. It exits (returning the pipeline) when the
    /// queue is closed and drained.
    pub fn spawn(mut pipeline: IngestPipeline, queue: Arc<IngestQueue>) -> Self {
        let handle = thread::Builder::new()
            .name("unicorn-ingest".into())
            .spawn(move || {
                while let Some(rows) = queue.take_flush(Duration::ZERO) {
                    pipeline.ingest_rows(&rows);
                }
                pipeline
            })
            .expect("spawn ingest worker");
        Self { handle }
    }

    /// Joins the worker, recovering the pipeline. Call after closing the
    /// queue, or this blocks until someone does.
    pub fn join(self) -> IngestPipeline {
        self.handle.join().expect("ingest worker panicked")
    }
}

/// A tenant's wire-facing ingest surface: where `POST .../ingest` pushes
/// rows, and the drift counters the stats route renders. Cloning shares both.
#[derive(Clone)]
pub struct IngestEndpoint {
    /// The bounded row buffer the tenant's worker drains.
    pub queue: Arc<IngestQueue>,
    /// The tenant's drift counters.
    pub drift: Arc<DriftStats>,
}

/// Tenant-keyed, insert-only directory of ingest endpoints (tenants
/// without one simply have no ingest).
pub type IngestRouter = TenantMap<IngestEndpoint>;

#[cfg(test)]
mod tests {
    use super::*;
    use unicorn_systems::{Environment, Hardware, SubjectSystem};

    /// A pipeline over a 40-row x264 boot, with its simulator, cell and
    /// drift counters.
    fn booted(
        drift: DriftOptions,
    ) -> (
        Simulator,
        Arc<SnapshotCell>,
        Arc<DriftStats>,
        IngestPipeline,
    ) {
        let sim = Simulator::new(
            SubjectSystem::X264.build(),
            Environment::on(Hardware::Tx2),
            7,
        );
        let opts = UnicornOptions {
            initial_samples: 40,
            ..UnicornOptions::default()
        };
        let mut state = UnicornState::bootstrap(&sim, &opts);
        let cell = Arc::new(SnapshotCell::new(state.publish_snapshot(&sim, &opts)));
        let stats = Arc::new(DriftStats::default());
        let (c, s) = (Arc::clone(&cell), Arc::clone(&stats));
        let pipeline = IngestPipeline::new(state, sim.clone(), opts, c, drift, s);
        (sim, cell, stats, pipeline)
    }

    fn rows_of(data: &unicorn_systems::Dataset) -> Vec<Vec<f64>> {
        (0..data.n_rows())
            .map(|r| data.columns.iter().map(|c| c[r]).collect())
            .collect()
    }

    #[test]
    fn staleness_fallback_relearns_and_publishes() {
        // A threshold no in-distribution stream reaches, plus a tight
        // staleness cadence: only the fallback path may fire.
        let (sim, cell, stats, mut pipeline) = booted(DriftOptions {
            lambda: 1e12,
            max_staleness_rows: 8,
            ..DriftOptions::default()
        });
        let epoch0 = cell.load().epoch;
        let extra = unicorn_systems::generate(&sim, 12, 0xFEED);
        let events = pipeline.ingest_rows(&rows_of(&extra));
        assert_eq!(events.len(), 1, "one staleness relearn over 12 rows");
        assert_eq!(events[0].reason, RelearnReason::Staleness);
        assert_eq!(events[0].stream_row, 8);
        assert_eq!(stats.staleness_relearns(), 1);
        assert_eq!(stats.triggers(), 0);
        let snap = cell.load();
        assert!(snap.epoch > epoch0, "fallback must publish a new epoch");
        assert_eq!(snap.n_rows, 40 + 8, "published mid-stream at row 8");
        assert_eq!(pipeline.rows_seen(), 12);
        assert_eq!(cell.flips(), 1);
    }

    #[test]
    fn worker_drains_queue_and_returns_pipeline() {
        let (sim, _, _, pipeline) = booted(DriftOptions {
            lambda: 1e12,
            max_staleness_rows: usize::MAX,
            ..DriftOptions::default()
        });
        let queue = IngestQueue::new(64);
        let worker = IngestWorker::spawn(pipeline, Arc::clone(&queue));
        let extra = unicorn_systems::generate(&sim, 6, 0xBEEF);
        let ack = queue.push_rows(rows_of(&extra));
        assert_eq!(ack.accepted, 6);
        queue.close();
        let pipeline = worker.join();
        assert_eq!(pipeline.rows_seen(), 6);
        assert!(queue.flushes() >= 1);
        assert_eq!(pipeline.state().data.n_rows(), 40 + 6);
    }

    #[test]
    #[should_panic(expected = "duplicate tenant")]
    fn ingest_router_rejects_duplicates() {
        let router = IngestRouter::new();
        let ep = IngestEndpoint {
            queue: IngestQueue::new(4),
            drift: Arc::new(DriftStats::default()),
        };
        router.insert("t", ep.clone());
        router.insert("t", ep);
    }
}
