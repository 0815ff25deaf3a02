//! # unicorn-serve — `unicornd`
//!
//! A resident serving daemon over the Unicorn engine: long-lived process,
//! epoch-snapshotted model state, many concurrent clients, one coalesced
//! plan batch per admission round.
//!
//! ## Architecture
//!
//! ```text
//!  clients ══HTTP keep-alive══▶ conn threads ──submit(tenant, q)──▶ AdmissionQueue
//!              │                                   │  take(): all queued, across tenants
//!              │ POST /v1/tenants/:id/ingest  batcher thread
//!              ▼                                   │  group by tenant, then per group:
//!        IngestQueue (bounded)                     │  load() ── SnapshotRouter[tenant] ◀─┐
//!              │ take(): all buffered          answer_coalesced                 publish()│
//!              ▼                  (one merged PlanBatch per (tenant, round))             │
//!        ingest worker ── residuals ─▶ drift detect ─▶ relearn ───────────────────────▶─┘
//! ```
//!
//! * **Snapshots** ([`unicorn_core::snapshot`]): queries never touch
//!   mutable state. The daemon resolves the request's tenant through a
//!   [`unicorn_core::SnapshotRouter`] and reads that tenant's
//!   `Arc<EngineSnapshot>` from its [`unicorn_core::SnapshotCell`]; a
//!   background relearn builds the next epoch and publishes it with a
//!   pointer flip. In-flight batches finish against the epoch they
//!   loaded. A single-tenant daemon is the one-entry router
//!   ([`unicorn_core::SnapshotRouter::single`]); a fleet hands its
//!   router ([`unicorn_core::fleet::Fleet::router`]) to [`Server::start`]
//!   and is served on `/v1/tenants/:id/query`.
//! * **Admission batching** ([`admission`]): the batcher *batches while
//!   busy*, taking every queued request the moment it is free, so load
//!   does the coalescing and no request waits on a timer. Each tenant's
//!   share of a batch compiles into one merged `PlanBatch` (sweeps
//!   deduplicated, the baseline shared), and answers are
//!   **bit-identical** to evaluating each request alone. Admission and
//!   ingest queue through one primitive, [`unicorn_exec::BatchQueue`].
//! * **Protocol** ([`protocol`], over the workspace's one JSON codec,
//!   `unicorn_json`): a deterministic JSON dialect over a minimal
//!   `std::net` HTTP/1.1 subset ([`server`]) — no registry access, so no
//!   tokio; the persistent `unicorn_exec` executor inside the engine is
//!   the scheduler that matters. Connections are persistent (HTTP/1.1
//!   keep-alive semantics, honored from the request's version token and
//!   `Connection:` header, with an idle timeout); [`http_request_many`]
//!   is the matching client. The wire surface is `/v1/` only, plus
//!   `GET /health`:
//!
//!   | Route | Body / reply |
//!   |-------|--------------|
//!   | `POST /v1/tenants/:id/query` | a query → `{"epoch":N,"answer":{...}}` |
//!   | `POST /v1/tenants/:id/ingest` | `{"rows":[[...],...]}` → `{"accepted":N,"dropped":M}` |
//!   | `GET /v1/tenants/:id/stats` | the tenant's counters |
//!   | `GET /v1/stats` | the default tenant's counters |
//!   | `GET /health` | `{"ok":true,"epoch":N}` |
//!
//!   Every route goes through one typed pair ([`WireRequest`] /
//!   [`WireResponse`]), and every failure answers the single error shape
//!   `{"error":{"code","message"}}`.
//! * **Ingest & drift** (`unicorn_ingest`, wired by `unicornd`): live
//!   measurement rows enter a bounded per-tenant `IngestQueue` via
//!   `POST /v1/tenants/:id/ingest` (explicit backpressure when full); a
//!   background worker folds flushes into the tenant's `UnicornState`,
//!   watches Page-Hinkley detectors over SCM prediction residuals,
//!   and on a trigger (or the max-staleness fallback) relearns off-thread
//!   and publishes the next epoch with a pointer flip. The tenant's
//!   `/v1/` stats carry the ingest/drift counters.
//! * **Config** ([`config`]): every env knob is parsed once at daemon
//!   boot into a typed [`ServeConfig`] (precedence: default < env var <
//!   CLI flag) instead of raw `std::env::var` calls sprinkled through
//!   the stack.
//!
//! ## Adding a new query endpoint
//!
//! The daemon answers whatever [`unicorn_inference::PerformanceQuery`]
//! can express; a new query kind threads through four small seams:
//!
//! 1. **Inference**: add the variant to `PerformanceQuery` /
//!    `QueryAnswer`, and write it once, in `unicorn_inference::coalesce`
//!    — either a one-round scalar (emit plan items in
//!    `CoalescedQuery::compile`, harvest them in `advance`) or a
//!    multi-round state if it needs intermediate results.
//!    `CausalEngine::estimate` runs the same rounds, so it answers the
//!    new kind too. Its oracle is a serial reference built from the
//!    `ace`/`repair` free functions in `tests/query_plan_determinism.rs`.
//! 2. **Protocol parse**: add a `"type"` arm in
//!    [`protocol::parse_request`] mapping request JSON (nodes by name)
//!    to the new variant.
//! 3. **Protocol render**: add the answer arm in
//!    [`protocol::render_reply`]. Keep field order fixed — replies are
//!    byte-diffed in CI.
//! 4. **Tests**: extend `tests/serve_coalescing.rs` with the new query
//!    in the mixed workload — the proptest then proves its merged-batch
//!    answer is bit-identical to `engine.estimate` of the query alone,
//!    interleaved with an epoch flip.
//!
//! No server/admission changes are needed: routing is uniform over
//! `PerformanceQuery`.

pub mod admission;
pub mod config;
pub mod protocol;
pub mod server;

pub use admission::{run_batcher, AdmissionQueue, ServedAnswer};
pub use config::ServeConfig;
pub use protocol::{
    parse_ingest, parse_request, parse_v1, render_reply, render_v1_error, render_v1_ok, ErrorCode,
    WireError, WireRequest, WireResponse,
};
pub use server::{http_request, http_request_many, Server};
pub use unicorn_json::{parse as parse_json, Json};

/// The daemon's default boot (x264, 60 samples, seed 42) published into a
/// snapshot cell, for the unit tests.
#[cfg(test)]
fn x264_cell() -> std::sync::Arc<unicorn_core::SnapshotCell> {
    use unicorn_core::{SnapshotCell, UnicornOptions, UnicornState};
    use unicorn_systems::{Environment, Hardware, Simulator, SubjectSystem};
    let sim = Simulator::new(
        SubjectSystem::X264.build(),
        Environment::on(Hardware::Tx2),
        42,
    );
    let opts = UnicornOptions {
        initial_samples: 60,
        ..UnicornOptions::default()
    };
    let mut state = UnicornState::bootstrap(&sim, &opts);
    std::sync::Arc::new(SnapshotCell::new(state.publish_snapshot(&sim, &opts)))
}
