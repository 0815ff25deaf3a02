//! `unicornd` — the resident Unicorn serving daemon.
//!
//! Boots a simulated subject system, learns the causal performance model
//! once, publishes it as epoch 1's snapshot, and serves causal queries
//! over HTTP/JSON until killed. Configuration is parsed once at boot
//! into a typed [`ServeConfig`] (see `unicorn_serve::config` for the
//! variable table); explicit CLI flags outrank environment variables.
//!
//! The daemon also runs the streaming-ingestion loop for the default
//! tenant: rows POSTed to `/v1/tenants/default/ingest` land in a bounded
//! buffer, and a background worker folds flushes into the model, watches
//! drift detectors over SCM prediction residuals, and on a trigger (or
//! the max-staleness fallback) relearns off-thread and publishes the
//! next epoch while connection threads keep answering from the old one.
//!
//! With `--smoke` it instead binds an OS-assigned loopback port, drives
//! the `/v1/` surface against itself over **one persistent TCP
//! connection** (exercising keep-alive) — one ACE query, one root-cause
//! query, a deterministic ingest ack, and the two fixed error bodies —
//! prints the five reply bodies to stdout, and exits. CI byte-diffs that
//! output against `tests/golden/serve_smoke_v1.txt`.
//!
//! ```sh
//! unicornd [--addr 127.0.0.1:7077] [--samples 60] [--seed 42] [--smoke]
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use unicorn_core::{SnapshotCell, SnapshotRouter, UnicornOptions, UnicornState, DEFAULT_TENANT};
use unicorn_ingest::{
    DriftStats, IngestEndpoint, IngestPipeline, IngestQueue, IngestRouter, IngestWorker,
};
use unicorn_serve::{http_request_many, Json, ServeConfig, Server};
use unicorn_systems::{Environment, Hardware, Simulator, SubjectSystem};

struct Args {
    addr: Option<String>,
    samples: usize,
    seed: u64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        samples: 60,
        seed: 42,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--samples" => {
                args.samples = value("--samples")?
                    .parse()
                    .map_err(|_| "--samples must be an integer".to_string())?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("unicornd: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Config precedence: built-in default < env var < explicit CLI flag.
    let mut config = match ServeConfig::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("unicornd: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = &args.addr {
        config.addr = addr.clone();
    }
    if args.smoke {
        config.addr = "127.0.0.1:0".into();
    }

    // Boot: learn the model once, publish it as the serving snapshot.
    let sim = Simulator::new(
        SubjectSystem::X264.build(),
        Environment::on(Hardware::Tx2),
        args.seed,
    );
    let opts = UnicornOptions {
        initial_samples: args.samples,
        ..UnicornOptions::default()
    };
    let mut state = UnicornState::bootstrap(&sim, &opts);
    let cell = Arc::new(SnapshotCell::new(state.publish_snapshot(&sim, &opts)));
    let router = SnapshotRouter::single(Arc::clone(&cell));

    // The default tenant's ingest plumbing: a bounded buffer the server
    // pushes into, and the background relearn worker that owns the
    // state from here on (connection threads only read snapshots).
    let queue = IngestQueue::new(config.ingest_buffer);
    let drift_stats = Arc::new(DriftStats::default());
    let pipeline = IngestPipeline::new(
        state,
        sim.clone(),
        opts,
        Arc::clone(&cell),
        config.drift,
        Arc::clone(&drift_stats),
    );
    let worker = IngestWorker::spawn(pipeline, Arc::clone(&queue));
    let ingest = Arc::new(IngestRouter::new());
    ingest.insert(
        DEFAULT_TENANT,
        IngestEndpoint {
            queue: Arc::clone(&queue),
            drift: drift_stats,
        },
    );

    let server = match Server::start(router, ingest, &config.addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("unicornd: bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };

    if args.smoke {
        let code = smoke(&server, &sim);
        server.shutdown();
        queue.close();
        worker.join();
        return code;
    }

    eprintln!(
        "unicornd: serving on {} (threads {}, sweep_cache {}, ingest buffer {} rows)",
        server.addr(),
        config.threads,
        config.sweep_cache,
        config.ingest_buffer,
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Self-driving smoke through the real TCP path, all on one persistent
/// connection: the two queries, a deterministic two-row ingest ack, and
/// the two fixed error bodies — unknown tenant and unknown endpoint. Each
/// reply body goes to stdout (the CI golden); any unexpected status
/// fails the run.
fn smoke(server: &Server, sim: &Simulator) -> ExitCode {
    // Two deterministic measurement rows for the ingest ack (the worker
    // folds them after the ack; with default thresholds two
    // in-distribution rows never trigger a relearn).
    let data = unicorn_systems::generate(sim, 2, 0xD1F7);
    let rows = Json::Arr(
        (0..data.n_rows())
            .map(|r| Json::Arr(data.columns.iter().map(|c| Json::Num(c[r])).collect()))
            .collect(),
    );
    let ingest_body = Json::Obj(vec![("rows".into(), rows)]).to_string();
    let requests = [
        (
            "POST",
            "/v1/tenants/default/query",
            Some(r#"{"type":"causal_effect","option":"Buffer Size","objective":"Latency"}"#),
        ),
        (
            "POST",
            "/v1/tenants/default/query",
            Some(r#"{"type":"root_causes","goal":[["Latency",30]]}"#),
        ),
        (
            "POST",
            "/v1/tenants/default/ingest",
            Some(ingest_body.as_str()),
        ),
        (
            "POST",
            "/v1/tenants/nope/query",
            Some(r#"{"type":"root_causes","goal":[["Latency",30]]}"#),
        ),
        ("GET", "/v1/bogus", None),
    ];
    let expect = [200, 200, 200, 404, 404];
    match http_request_many(server.addr(), &requests) {
        Ok(replies) => {
            for ((status, reply), want) in replies.iter().zip(expect) {
                if *status != want {
                    eprintln!("unicornd: smoke query failed: HTTP {status} (want {want}): {reply}");
                    return ExitCode::FAILURE;
                }
                println!("{reply}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("unicornd: smoke query failed: {e}");
            ExitCode::FAILURE
        }
    }
}
