//! Streaming telemetry ingestion with drift-triggered relearn.
//!
//! The paper's Stage V loop ("measure, update, relearn every *k*") is a
//! batch schedule; this crate turns it into a *source → transform →
//! learn* streaming loop that decides **when** to relearn from the data
//! itself. Live measurement rows enter per tenant, fold through the
//! segmented append path, and a change detector over the fitted SCM's
//! prediction residuals pulls the relearn trigger:
//!
//! ```text
//!   clients ──POST /v1/tenants/:id/ingest──▶ IngestQueue (bounded, backpressure)
//!                                                │ take_flush: all buffered rows
//!                                                ▼
//!                                          IngestWorker thread
//!                                                │ per row
//!                                                ▼
//!          ┌─────────────────────── IngestPipeline ───────────────────────┐
//!          │ residuals vs pinned SCM ─▶ DriftBank (Page-Hinkley)          │
//!          │ record_row (staged fold) ─▶ on trigger or max staleness:     │
//!          │   relearn ▶ publish_snapshot ▶ SnapshotCell.publish (flip)   │
//!          └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! The worker **batches while busy** (the queue is a
//! [`unicorn_exec::BatchQueue`]): rows that land during a fold or a
//! relearn form the next flush, and no row waits on a timer. Connection
//! threads keep answering from the old epoch while the worker builds the
//! next one; the publish is a pointer flip. The whole loop
//! inherits the house invariant: a streamed-then-relearned state is
//! **bit-identical** to a cold learn over the concatenated rows, and the
//! trigger decision is a pure function of the row stream — independent of
//! flush-chunk boundaries, worker-pool width, and interleaved query load.
//!
//! Determinism is engineered in three places:
//!
//! * residuals are computed against the *pinned* SCM of the last
//!   published epoch (never a half-updated model), one row at a time;
//! * residuals are normalized by each objective's training-residual RMS
//!   ([`unicorn_inference::FittedScm::residual_rms`]), so thresholds are
//!   dimensionless and survive objective rescaling;
//! * a mid-batch trigger relearns *immediately* — the remaining rows of
//!   the flush are scored against the freshly published model, so the
//!   trigger row never depends on where a flush boundary fell.
//!
//! # The detector
//!
//! [`DriftBank`] runs one Page-Hinkley detector per objective: a plain
//! state machine, `Clone` and free of dynamic dispatch in the per-row hot
//! path. [`DriftBank::observe`] folds one row's normalized residuals into
//! it, a pure fold over the residual stream — no clocks, no randomness,
//! no allocation-order dependence. A change to the detector must keep that
//! fold pure; `drift_fold_is_chunk_invariant` in
//! `tests/ingest_drift_determinism.rs` then asserts that no flush
//! boundary or pool width moves a trigger row, and
//! `fixed_chunkings_and_pools_reproduce_the_reference_fold` pins the
//! fold to one reference run. Its thresholds live in [`DriftOptions`]
//! (`delta`/`lambda` in RMS units).
//!
//! The serving integration (`unicorn_serve`) needs no change: it stores a
//! [`DriftOptions`] in its `ServeConfig` and everything downstream is
//! data-driven.

pub mod drift;
pub mod pipeline;
pub mod queue;

pub use drift::{DriftBank, DriftOptions};
pub use pipeline::{
    DriftStats, IngestEndpoint, IngestPipeline, IngestRouter, IngestWorker, RelearnEvent,
    RelearnReason,
};
pub use queue::{IngestAck, IngestQueue};
