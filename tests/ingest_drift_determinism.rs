//! The streaming-ingestion contract: drift-triggered relearning is a
//! deterministic fold over the row stream, and the `/v1/` wire surface
//! in front of it is byte-stable.
//!
//! * **Chunk/pool invariance** — the trigger rows, the relearn reasons,
//!   and the relearned SCM's exact bits are a pure
//!   function of the row sequence: identical whether rows arrive one at
//!   a time, in arbitrary flush-sized chunks, or as one slab, at worker
//!   pools of 1, 2, and 8 — with read-only query load interleaved
//!   between flushes.
//! * **Streamed ≡ cold** — a pipeline that streamed rows (relearning
//!   mid-stream whenever the detector fired) ends bit-identical to a
//!   cold state that bootstrapped once, recorded the same rows, and
//!   relearned once.
//! * **Wire round-trip** — `POST /v1/tenants/:id/ingest` acks, sheds
//!   with an explicit `backpressure` error when the bounded buffer is
//!   full, rejects malformed rows, and feeds the background worker whose
//!   progress `/v1/.../stats` reports; the retired pre-`/v1` paths
//!   answer `unknown_endpoint`.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use unicorn::core::{EngineSnapshot, SnapshotCell, SnapshotRouter, UnicornOptions, UnicornState};
use unicorn::exec::Executor;
use unicorn::graph::VarKind;
use unicorn::inference::PerformanceQuery;
use unicorn::ingest::{
    DriftOptions, DriftStats, IngestEndpoint, IngestPipeline, IngestQueue, IngestRouter,
    IngestWorker,
};
use unicorn::serve::{http_request, parse_json, Json, Server};
use unicorn::systems::{Dataset, ScenarioRegistry, Simulator};

/// The cross-run comparable part of a fold: the event log ("row N
/// Reason" lines — epochs are process-global ids, excluded on purpose)
/// and the published SCM's coefficient bits.
type FoldResult = (Vec<String>, Vec<Option<Vec<u64>>>);

const POOLS: [usize; 3] = [1, 2, 8];
const SAMPLES: usize = 40;
const PRE_ROWS: usize = 24;
const POST_ROWS: usize = 40;

/// The soak scenario's pair: x264 on TX2, and the same system under the
/// 2.5× workload surge whose rows must trip the detector.
fn sims() -> (Simulator, Simulator) {
    let reg = ScenarioRegistry::drift_soak();
    let sc = reg.get("x264-drift-soak").expect("soak scenario");
    (
        sc.simulator(42),
        sc.target_simulator(42).expect("shift set"),
    )
}

fn opts_on(pool: usize) -> UnicornOptions {
    let mut opts = UnicornOptions {
        initial_samples: SAMPLES,
        ..UnicornOptions::default()
    };
    opts.discovery.exec = Some(Executor::new(pool));
    opts
}

/// Thresholds sized like the soak bench's: above the stream's
/// out-of-sample noise, with the staleness fallback out of reach so
/// every event is detector-attributed.
fn drift_opts() -> DriftOptions {
    DriftOptions {
        delta: 1.0,
        lambda: 25.0,
        max_staleness_rows: usize::MAX,
        ..DriftOptions::default()
    }
}

fn rows_of(data: &Dataset) -> Vec<Vec<f64>> {
    (0..data.n_rows())
        .map(|r| data.columns.iter().map(|c| c[r]).collect())
        .collect()
}

/// The row stream every test folds: in-distribution rows, then the
/// surge. Built once — determinism claims are about one fixed stream.
fn stream_rows() -> &'static Vec<Vec<f64>> {
    static ROWS: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let (sim, target) = sims();
        let mut rows = rows_of(&unicorn::systems::generate(&sim, PRE_ROWS, 42 ^ 0x11));
        rows.extend(rows_of(&unicorn::systems::generate(
            &target,
            POST_ROWS,
            42 ^ 0x22,
        )));
        rows
    })
}

/// Every fitted coefficient vector of a snapshot's SCM, as exact bits.
fn scm_bits(snap: &EngineSnapshot) -> Vec<Option<Vec<u64>>> {
    let scm = snap.engine.scm();
    (0..scm.n_vars())
        .map(|v| {
            scm.coefficients_of(v)
                .map(|c| c.iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

/// One full streamed run: chunk boundaries from cycling `chunks`,
/// optional read-only query between flushes. Returns everything the
/// determinism claim quantifies over: the event log (trigger rows and
/// reasons — epochs are globally unique ids, so they only support
/// in-run ordering assertions, not cross-run comparison) and the final
/// SCM bits.
fn run_stream(pool: usize, chunks: &[usize], query_between: bool) -> FoldResult {
    let (sim, _) = sims();
    let opts = opts_on(pool);
    let mut state = UnicornState::bootstrap(&sim, &opts);
    let cell = Arc::new(SnapshotCell::new(state.publish_snapshot(&sim, &opts)));
    let epoch0 = cell.load().epoch;
    let mut pipeline = IngestPipeline::new(
        state,
        sim.clone(),
        opts,
        Arc::clone(&cell),
        drift_opts(),
        Arc::new(DriftStats::default()),
    );

    let tiers = sim.model.tiers();
    let probe = PerformanceQuery::CausalEffect {
        option: tiers.of_kind(VarKind::ConfigOption)[0],
        objective: tiers.of_kind(VarKind::Objective)[0],
    };

    let rows = stream_rows();
    let mut events = Vec::new();
    let mut at = 0usize;
    let mut i = 0usize;
    while at < rows.len() {
        let take = chunks[i % chunks.len()].min(rows.len() - at);
        i += 1;
        events.extend(pipeline.ingest_rows(&rows[at..at + take]));
        at += take;
        if query_between {
            // Serving load between flushes: reads the published snapshot
            // the way connection threads do. Must not perturb the fold.
            let snap = cell.load();
            let answer = snap.engine.estimate(&probe);
            assert!(format!("{answer:?}").contains("Effect"), "probe answered");
        }
    }
    // Every relearn published a fresh, newer epoch, and the cell holds
    // the last one.
    let mut prev = epoch0;
    for e in &events {
        assert!(e.epoch > prev, "epochs must advance: {events:?}");
        prev = e.epoch;
    }
    let snap = cell.load();
    assert_eq!(snap.epoch, prev, "cell must hold the last published epoch");
    let log = events
        .iter()
        .map(|e| format!("row {} {:?}", e.stream_row, e.reason))
        .collect();
    (log, scm_bits(&snap))
}

/// The reference fold: serial pool, the whole stream as one slab.
fn reference() -> &'static FoldResult {
    static REF: OnceLock<FoldResult> = OnceLock::new();
    REF.get_or_init(|| {
        let out = run_stream(1, &[usize::MAX], false);
        assert!(
            !out.0.is_empty(),
            "the workload surge must trip the detector"
        );
        assert!(
            out.0.iter().all(|e| e.contains("Drift")),
            "staleness is out of reach in this stream: {:?}",
            out.0
        );
        out
    })
}

#[test]
fn fixed_chunkings_and_pools_reproduce_the_reference_fold() {
    let expect = reference();
    for pool in POOLS {
        let got = run_stream(pool, &[16], pool == 2);
        assert_eq!(&got, expect, "pool {pool} chunk 16 diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Arbitrary flush boundaries (chunk sizes cycled from a random
    /// pattern) with interleaved query load never move a trigger row
    /// or a bit of the relearned SCM.
    #[test]
    fn drift_fold_is_chunk_invariant(
        chunks in prop::collection::vec(1usize..9, 1..5),
        pool_idx in 0usize..POOLS.len(),
    ) {
        let got = run_stream(POOLS[pool_idx], &chunks, true);
        prop_assert_eq!(&got, reference());
    }
}

#[test]
fn streamed_then_relearned_equals_cold_learn() {
    let expect = reference();
    let (sim, _) = sims();

    // Fold the stream through a pipeline, then force one final relearn
    // over everything it accumulated.
    let opts = opts_on(2);
    let mut state = UnicornState::bootstrap(&sim, &opts);
    let cell = Arc::new(SnapshotCell::new(state.publish_snapshot(&sim, &opts)));
    let mut pipeline = IngestPipeline::new(
        state,
        sim.clone(),
        opts.clone(),
        Arc::clone(&cell),
        drift_opts(),
        Arc::new(DriftStats::default()),
    );
    for chunk in stream_rows().chunks(7) {
        pipeline.ingest_rows(chunk);
    }
    let mut streamed = pipeline.into_state();
    streamed.relearn(&sim, &opts);
    let streamed_engine = streamed.engine(&sim, &opts);

    // The published snapshot (built at the last trigger) must already
    // match the reference fold's.
    assert_eq!(&scm_bits(&cell.load()), &expect.1);

    // A cold state over the identical rows, relearned once, must land on
    // the same bits as the streamed state's final relearn.
    let mut cold = UnicornState::bootstrap(&sim, &opts);
    for row in stream_rows() {
        cold.record_row(row);
    }
    cold.relearn(&sim, &opts);
    let cold_engine = cold.engine(&sim, &opts);
    let bits = |scm: &unicorn::inference::FittedScm| -> Vec<Option<Vec<u64>>> {
        (0..scm.n_vars())
            .map(|v| {
                scm.coefficients_of(v)
                    .map(|c| c.iter().map(|x| x.to_bits()).collect())
            })
            .collect()
    };
    assert_eq!(
        bits(streamed_engine.scm()),
        bits(cold_engine.scm()),
        "streamed-then-relearned SCM diverged from the cold learn"
    );
}

#[test]
fn v1_ingest_round_trip_acks_sheds_and_feeds_the_worker() {
    let (sim, _) = sims();
    let opts = opts_on(2);
    let mut state = UnicornState::bootstrap(&sim, &opts);
    let cell = Arc::new(SnapshotCell::new(state.publish_snapshot(&sim, &opts)));
    let width = cell.load().names.len();

    // A deliberately tiny buffer so backpressure is reachable; the
    // worker is spawned only *after* the shedding assertions, so the
    // buffer's fill level is deterministic until then.
    let queue = IngestQueue::new(8);
    let drift_stats = Arc::new(DriftStats::default());
    let pipeline = IngestPipeline::new(
        state,
        sim.clone(),
        opts,
        Arc::clone(&cell),
        DriftOptions::default(),
        Arc::clone(&drift_stats),
    );
    let ingest = Arc::new(IngestRouter::new());
    ingest.insert(
        "default",
        IngestEndpoint {
            queue: Arc::clone(&queue),
            drift: drift_stats,
        },
    );
    let server = Server::start(
        SnapshotRouter::single(Arc::clone(&cell)),
        ingest,
        "127.0.0.1:0",
    )
    .expect("server start");

    // Queries answer on the versioned surface only; the retired
    // pre-`/v1` paths are unknown endpoints like any other.
    let names = cell.load().names.clone();
    let tiers = sim.model.tiers();
    let q = format!(
        r#"{{"type":"causal_effect","option":"{}","objective":"{}"}}"#,
        names[tiers.of_kind(VarKind::ConfigOption)[0]],
        names[tiers.of_kind(VarKind::Objective)[0]],
    );
    let (status, v1) = http_request(server.addr(), "POST", "/v1/tenants/default/query", Some(&q))
        .expect("v1 query");
    assert_eq!(status, 200, "{v1}");
    for (method, path) in [
        ("POST", "/query"),
        ("GET", "/stats"),
        ("POST", "/tenant/default/query"),
        ("GET", "/tenant/default/stats"),
    ] {
        let (status, err) = http_request(server.addr(), method, path, Some(&q)).expect("old path");
        assert_eq!(
            (status, err.as_str()),
            (
                404,
                r#"{"error":{"code":"unknown_endpoint","message":"no such endpoint"}}"#
            ),
            "{method} {path}"
        );
    }

    // Idle counters: zeros, fixed key order, straight off the wire.
    let (status, body) =
        http_request(server.addr(), "GET", "/v1/tenants/default/stats", None).expect("v1 stats");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.ends_with(
            "\"ingest\":{\"rows\":0,\"flushes\":0,\"dropped\":0},\
             \"drift\":{\"triggers\":0,\"last_trigger_epoch\":0,\"staleness_relearns\":0}}"
        ),
        "unexpected stats tail: {body}"
    );

    let body_of = |rows: &[Vec<f64>]| {
        Json::Obj(vec![(
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| Json::Arr(r.iter().map(|&x| Json::Num(x)).collect()))
                    .collect(),
            ),
        )])
        .to_string()
    };
    let rows = rows_of(&unicorn::systems::generate(&sim, 10, 0xFEED));

    // Fill the 8-row buffer: the first post admits all 8; the overflow
    // post sheds both rows and answers an explicit backpressure error.
    let (status, ack) = http_request(
        server.addr(),
        "POST",
        "/v1/tenants/default/ingest",
        Some(&body_of(&rows[..8])),
    )
    .expect("ingest");
    assert_eq!(
        (status, ack.as_str()),
        (200, r#"{"accepted":8,"dropped":0}"#)
    );
    let (status, shed) = http_request(
        server.addr(),
        "POST",
        "/v1/tenants/default/ingest",
        Some(&body_of(&rows[8..])),
    )
    .expect("ingest overflow");
    assert_eq!(
        (status, shed.as_str()),
        (
            503,
            r#"{"error":{"code":"backpressure","message":"ingest buffer full"}}"#
        )
    );

    // Malformed bodies and unknown routes: the single v1 error shape.
    let bad = body_of(&[vec![1.0, 2.0]]);
    let (status, err) = http_request(
        server.addr(),
        "POST",
        "/v1/tenants/default/ingest",
        Some(&bad),
    )
    .expect("bad ingest");
    assert_eq!(status, 400, "{err}");
    let doc = parse_json(&err).expect("error JSON");
    assert_eq!(
        doc.get("error").and_then(|e| e.get("code")),
        Some(&Json::Str("bad_request".into())),
        "{err}"
    );
    assert!(
        err.contains(&format!("snapshot has {width} columns")),
        "{err}"
    );
    let (status, err) = http_request(
        server.addr(),
        "POST",
        "/v1/tenants/absent/ingest",
        Some(&body_of(&rows[..1])),
    )
    .expect("unknown tenant");
    assert_eq!(
        (status, err.as_str()),
        (
            404,
            r#"{"error":{"code":"unknown_tenant","message":"no such tenant"}}"#
        )
    );
    let (status, err) = http_request(server.addr(), "GET", "/v1/bogus", None).expect("bad route");
    assert_eq!(
        (status, err.as_str()),
        (
            404,
            r#"{"error":{"code":"unknown_endpoint","message":"no such endpoint"}}"#
        )
    );

    // Now attach the background worker: it drains the 8 buffered rows,
    // and the stats counters report the flush and the earlier shed.
    let worker = IngestWorker::spawn(pipeline, Arc::clone(&queue));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http_request(server.addr(), "GET", "/v1/tenants/default/stats", None)
            .expect("v1 stats");
        assert_eq!(status, 200, "{body}");
        let doc = parse_json(&body).expect("stats JSON");
        let ingest_counters = doc.get("ingest").expect("ingest block").clone();
        if ingest_counters.get("flushes").and_then(Json::as_num) >= Some(1.0) {
            assert_eq!(ingest_counters.get("rows"), Some(&Json::Num(8.0)), "{body}");
            assert_eq!(
                ingest_counters.get("dropped"),
                Some(&Json::Num(2.0)),
                "{body}"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker never flushed: {body}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    server.shutdown();
    queue.close();
    let pipeline = worker.join();
    assert_eq!(pipeline.rows_seen(), 8, "worker folded the admitted rows");
}
