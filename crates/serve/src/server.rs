//! The HTTP front of `unicornd`: `std::net` TCP, one thread per
//! connection, a single batcher thread behind the admission queue.
//!
//! The daemon deliberately speaks a minimal HTTP/1.1 subset (no chunked
//! bodies): the workspace has no registry access, and the persistent
//! `unicorn_exec::Executor` inside the engine is the scheduler that
//! matters — connection threads only parse, enqueue, and block on their
//! reply channel. Connections are persistent per HTTP/1.1 semantics:
//! requests loop on one socket until the client sends `Connection:
//! close` (or speaks HTTP/1.0 without `keep-alive`), closes its end, or
//! goes idle past the read timeout.
//!
//! The routes are the crate-level table (`/v1/*` plus `GET /health`; see
//! [`crate::protocol`] for the typed request/response pair and the error
//! shape). Any other path answers 404 `unknown_endpoint`, an ingest whose
//! rows are all shed 503 `backpressure`, and `GET /health` on a fleet
//! router without a default tenant `{"ok":true,"tenants":N}`.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use unicorn_core::{SnapshotCell, SnapshotRouter, DEFAULT_TENANT};
use unicorn_ingest::IngestRouter;

use crate::admission::{run_batcher, AdmissionQueue};
use crate::protocol::{
    parse_ingest, parse_request, parse_v1, render_v1_error, render_v1_ok, ErrorCode, WireError,
    WireRequest, WireResponse,
};
use unicorn_json::Json;

/// The largest request body read. A full 1024-row x264 ingest batch is
/// about 0.5 MB; a head declaring more than this gets one 400 and a close.
const MAX_BODY_BYTES: usize = 4 << 20;

/// A running daemon: accept loop + batcher, both joined on shutdown.
pub struct Server {
    addr: SocketAddr,
    queue: Arc<AdmissionQueue>,
    router: Arc<SnapshotRouter>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 for an OS-assigned port), spawns the batcher
    /// and the accept loop, and returns. Tenants registered with `router`
    /// — before or after start — are served on the query/stats routes,
    /// the [`DEFAULT_TENANT`] also on `GET /v1/stats` and `GET /health`.
    /// Tenants registered with `ingest` also accept rows, which the
    /// daemon's relearn worker drains; the server itself only buffers.
    pub fn start(
        router: Arc<SnapshotRouter>,
        ingest: Arc<IngestRouter>,
        addr: &str,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let queue = AdmissionQueue::new();
        let stop = Arc::new(AtomicBool::new(false));

        let batcher_thread = {
            let queue = Arc::clone(&queue);
            let router = Arc::clone(&router);
            std::thread::Builder::new()
                .name("unicornd-batcher".into())
                .spawn(move || run_batcher(&queue, &router, Duration::ZERO))?
        };

        let accept_thread = {
            let queue = Arc::clone(&queue);
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("unicornd-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let queue = Arc::clone(&queue);
                        let router = Arc::clone(&router);
                        let ingest = Arc::clone(&ingest);
                        // One thread per connection: parse, enqueue,
                        // block on the reply channel, write, loop until
                        // the client closes or goes idle.
                        let spawned = std::thread::Builder::new()
                            .name("unicornd-conn".into())
                            .spawn(move || handle_connection(stream, &queue, &router, &ingest));
                        drop(spawned);
                    }
                })?
        };

        Ok(Self {
            addr,
            queue,
            router,
            stop,
            accept_thread: Some(accept_thread),
            batcher_thread: Some(batcher_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The default tenant's snapshot cell, if one is registered (the
    /// single-tenant daemon's publication point).
    pub fn snapshots(&self) -> Option<Arc<SnapshotCell>> {
        self.router.get(DEFAULT_TENANT)
    }

    /// Stops accepting, drains the batcher, joins both threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.queue.close();
        if let Some(t) = self.batcher_thread.take() {
            let _ = t.join();
        }
    }
}

/// How long a persistent connection may sit idle between requests before
/// the server closes it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Serves one connection: read a request, route it, write the response,
/// and loop while the client keeps the connection alive. A clean close or
/// idle timeout between requests ends the loop silently; a malformed
/// request gets one 400 `bad_request` and a close.
fn handle_connection(
    mut stream: TcpStream,
    queue: &AdmissionQueue,
    router: &SnapshotRouter,
    ingest: &IngestRouter,
) {
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    loop {
        let req = match read_request(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) => return, // client closed / idle between requests
            Err(_) => {
                let err = WireError::bad_request("malformed HTTP request");
                let _ = write_response(&mut stream, 400, &render_v1_error(&err), true);
                return;
            }
        };
        let close = !req.keep_alive;
        let (status, body) = route(&req, queue, router, ingest);
        if write_response(&mut stream, status, &body, close).is_err() || close {
            return;
        }
    }
}

/// One parsed request off the wire.
struct Request {
    method: String,
    path: String,
    body: String,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default, overridden by a `Connection:` header either way).
    keep_alive: bool,
}

/// Routes one request to `(status, reply body)`: `GET /health`, or a
/// `/v1/` request through the typed [`dispatch`]. Every other path
/// answers 404 `unknown_endpoint`.
fn route(
    req: &Request,
    queue: &AdmissionQueue,
    router: &SnapshotRouter,
    ingest: &IngestRouter,
) -> (u16, String) {
    if req.method == "GET" && req.path == "/health" {
        let (key, n) = match router.get(DEFAULT_TENANT) {
            Some(cell) => ("epoch", cell.load().epoch),
            None => ("tenants", router.len() as u64),
        };
        let body = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            (key.into(), Json::Num(n as f64)),
        ]);
        return (200, body.to_string());
    }
    match parse_v1(&req.method, &req.path, &req.body)
        .and_then(|wire| dispatch(wire, queue, router, ingest))
    {
        Ok(resp) => (200, render_v1_ok(&resp)),
        Err(e) => (e.code.http_status(), render_v1_error(&e)),
    }
}

/// Executes one typed request against the routers — the single handler
/// set behind every `/v1/` route.
fn dispatch(
    wire: WireRequest,
    queue: &AdmissionQueue,
    router: &SnapshotRouter,
    ingest: &IngestRouter,
) -> Result<WireResponse, WireError> {
    match wire {
        WireRequest::Query { tenant, body } => do_query(&tenant, &body, queue, router),
        WireRequest::Ingest { tenant, body } => do_ingest(&tenant, &body, router, ingest),
        WireRequest::TenantStats { tenant } => do_stats(&tenant, queue, router, ingest),
    }
}

/// Builds `tenant`'s observability snapshot as deterministic JSON
/// (fixed key order, integer counters): the snapshot epoch, the
/// interventional sweep-cache counters (`enabled:false` zeros when
/// `UNICORN_SWEEP_CACHE` disables caching), its accounted resident
/// bytes, the admission queue's coalescing counters, and the tenant's
/// `ingest{rows,flushes,dropped}` and
/// `drift{triggers,last_trigger_epoch,staleness_relearns}` counters
/// (zeros when the tenant has no ingest endpoint). Counter values are
/// monotone but timing-dependent — the smoke golden therefore pins the
/// shape via the query path, not this endpoint's body.
fn do_stats(
    tenant: &str,
    queue: &AdmissionQueue,
    router: &SnapshotRouter,
    ingest: &IngestRouter,
) -> Result<WireResponse, WireError> {
    let Some(cell) = router.get(tenant) else {
        return Err(WireError::unknown_tenant());
    };
    let snap = cell.load();
    let cache = snap.engine.sweep_cache();
    let counters = cache.map_or([0; 5], |c| {
        let (hits, misses) = (c.stats().hits(), c.stats().misses());
        [
            hits,
            misses,
            c.evictions(),
            c.len() as u64,
            c.approx_bytes() as u64,
        ]
    });
    let keys = ["hits", "misses", "evictions", "entries", "approx_bytes"];
    let sweep = Json::Obj(
        std::iter::once(("enabled".into(), Json::Bool(cache.is_some())))
            .chain(
                keys.iter()
                    .zip(counters)
                    .map(|(k, v)| (k.to_string(), Json::Num(v as f64))),
            )
            .collect(),
    );
    let endpoint = ingest.get(tenant);
    let (rows, flushes, dropped) = endpoint.as_ref().map_or((0, 0, 0), |e| {
        (e.queue.rows(), e.queue.flushes(), e.queue.dropped())
    });
    let (triggers, last_trigger_epoch, staleness_relearns) =
        endpoint.as_ref().map_or((0, 0, 0), |e| {
            (
                e.drift.triggers(),
                e.drift.last_trigger_epoch(),
                e.drift.staleness_relearns(),
            )
        });
    let body = Json::Obj(vec![
        ("tenant".into(), Json::Str(tenant.into())),
        ("epoch".into(), Json::Num(snap.epoch as f64)),
        ("sweep_cache".into(), sweep),
        (
            "admission".into(),
            Json::Obj(vec![
                ("submitted".into(), Json::Num(queue.submitted() as f64)),
                ("batches".into(), Json::Num(queue.batches() as f64)),
            ]),
        ),
        (
            "ingest".into(),
            Json::Obj(vec![
                ("rows".into(), Json::Num(rows as f64)),
                ("flushes".into(), Json::Num(flushes as f64)),
                ("dropped".into(), Json::Num(dropped as f64)),
            ]),
        ),
        (
            "drift".into(),
            Json::Obj(vec![
                ("triggers".into(), Json::Num(triggers as f64)),
                (
                    "last_trigger_epoch".into(),
                    Json::Num(last_trigger_epoch as f64),
                ),
                (
                    "staleness_relearns".into(),
                    Json::Num(staleness_relearns as f64),
                ),
            ]),
        ),
    ]);
    Ok(WireResponse::Stats(body))
}

/// Parses and submits one query against `tenant`, blocking on the
/// batcher's reply.
fn do_query(
    tenant: &str,
    body: &str,
    queue: &AdmissionQueue,
    router: &SnapshotRouter,
) -> Result<WireResponse, WireError> {
    // Names are stable across epochs of one tenant; the batch's snapshot
    // decides the answering epoch. The lookup also rejects unknown
    // tenants before their job would be dropped on the batcher floor.
    let Some(cell) = router.get(tenant) else {
        return Err(WireError::unknown_tenant());
    };
    let names = cell.load().names.clone();
    let query = parse_request(body, &names).map_err(WireError::bad_request)?;
    let served = queue
        .submit(tenant, query)
        .recv()
        .map_err(|_| WireError::shutting_down())?;
    Ok(WireResponse::Answer {
        epoch: served.epoch,
        answer: served.answer,
        names,
    })
}

/// Validates one ingest submission against `tenant`'s snapshot width and
/// offers it to the tenant's bounded buffer. The ack is decided entirely
/// at buffer admission — deterministic given the buffer's occupancy — and
/// a fully shed submission is explicit backpressure, not silence.
fn do_ingest(
    tenant: &str,
    body: &str,
    router: &SnapshotRouter,
    ingest: &IngestRouter,
) -> Result<WireResponse, WireError> {
    let Some(cell) = router.get(tenant) else {
        return Err(WireError::unknown_tenant());
    };
    let width = cell.load().names.len();
    let Some(endpoint) = ingest.get(tenant) else {
        return Err(WireError::new(
            ErrorCode::UnknownEndpoint,
            "ingest not enabled for this tenant",
        ));
    };
    let rows = parse_ingest(body, width).map_err(WireError::bad_request)?;
    let ack = endpoint.queue.push_rows(rows);
    if ack.accepted == 0 && ack.dropped > 0 {
        return Err(WireError::new(
            ErrorCode::Backpressure,
            "ingest buffer full",
        ));
    }
    Ok(WireResponse::Ingested {
        accepted: ack.accepted,
        dropped: ack.dropped,
    })
}

/// Parses the request line + headers + Content-Length body of one
/// HTTP/1.1 request. `Ok(None)` means the connection ended cleanly (EOF
/// or idle timeout) before any request bytes arrived — the persistent
/// connection's normal end of life.
fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut buf = Vec::with_capacity(1024);
    let Some(head_len) = read_head(stream, &mut buf)? else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..head_len]).into_owned();
    buf.drain(..head_len + 4);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");

    let mut keep_alive = !version.eq_ignore_ascii_case("HTTP/1.0");
    for (k, v) in headers(&head) {
        if k.eq_ignore_ascii_case("connection") {
            if v.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if v.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let len = content_length(&head)?;
    if len > MAX_BODY_BYTES {
        return Err(io::Error::new(ErrorKind::InvalidData, "body too large"));
    }
    let body = read_body(stream, &mut buf, len)?;
    Ok(Some(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
        keep_alive,
    }))
}

/// Reads into `buf` until it holds a whole message head (through the
/// blank line) and returns the head's length, or `None` when the stream
/// ends — EOF or read timeout — before a byte of it arrived.
fn read_head(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Option<usize>> {
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            return Ok(Some(at));
        }
        if buf.len() > 1 << 20 {
            return Err(io::Error::new(ErrorKind::InvalidData, "headers too large"));
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e)
                if buf.is_empty()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// The `name: value` header lines of a message head, trimmed.
fn headers(head: &str) -> impl Iterator<Item = (&str, &str)> {
    head.split("\r\n")
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim(), v.trim()))
}

/// The head's `Content-Length` (0 when absent). An unreadable length is
/// an error, never 0: the body bytes would then be read as the next
/// message.
fn content_length(head: &str) -> io::Result<usize> {
    headers(head)
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map_or(Ok(0), |(_, v)| {
            v.parse()
                .map_err(|_| io::Error::new(ErrorKind::InvalidData, "bad Content-Length"))
        })
}

/// Takes the next `len` body bytes off the front of `buf`, reading more
/// from `stream` as needed; bytes past the body stay in `buf`.
fn read_body(stream: &mut TcpStream, buf: &mut Vec<u8>, len: usize) -> io::Result<Vec<u8>> {
    let mut chunk = [0u8; 1024];
    while buf.len() < len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(buf.drain(..len).collect())
}

fn write_response(stream: &mut TcpStream, status: u16, body: &str, close: bool) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Service Unavailable",
    };
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A one-shot HTTP client for tests: sends `body` to `POST path` (or a
/// bodiless `GET path`) and returns `(status, body)`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut replies = http_request_many(addr, &[(method, path, body)])?;
    Ok(replies.remove(0))
}

/// A keep-alive HTTP client: sends every `(method, path, body)` request
/// over **one** persistent connection, reading each response by its
/// `Content-Length` before issuing the next, and returns the
/// `(status, body)` pairs in order. Exercises the server's connection
/// reuse — the smoke path and tests assert multiple round-trips without
/// reconnecting.
pub fn http_request_many(
    addr: SocketAddr,
    requests: &[(&str, &str, Option<&str>)],
) -> io::Result<Vec<(u16, String)>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut replies = Vec::with_capacity(requests.len());
    let mut pending: Vec<u8> = Vec::new();
    for (method, path, body) in requests {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: unicornd\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;

        let head_len = read_head(&mut stream, &mut pending)?.ok_or(ErrorKind::UnexpectedEof)?;
        let head = String::from_utf8_lossy(&pending[..head_len]).into_owned();
        pending.drain(..head_len + 4);
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "no status"))?;
        let body = read_body(&mut stream, &mut pending, content_length(&head)?)?;
        replies.push((status, String::from_utf8_lossy(&body).into_owned()));
    }
    Ok(replies)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUERY: &str = r#"{"type":"causal_effect","option":"Buffer Size","objective":"Latency"}"#;

    fn x264_server() -> Server {
        let router = SnapshotRouter::single(crate::x264_cell());
        Server::start(router, Arc::new(IngestRouter::new()), "127.0.0.1:0").expect("server start")
    }

    /// Sends `request` raw on a fresh connection and reads until the
    /// server closes it (a server that keeps it open fails the read after
    /// 5 s); the reply must be exactly one 400.
    fn one_400_then_close(server: &Server, request: &str) -> String {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let timeout = Some(Duration::from_secs(5));
        stream.set_read_timeout(timeout).expect("timeout");
        stream.write_all(request.as_bytes()).expect("send");
        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .expect("one reply, then EOF");
        assert!(raw.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{raw}");
        assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "one response: {raw}");
        raw
    }

    #[test]
    fn oversized_content_length_gets_one_400_then_close() {
        let server = x264_server();
        // The body is never sent: the head alone must be refused.
        let head =
            "POST /v1/tenants/default/ingest HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\n";
        one_400_then_close(&server, head);
        server.shutdown();
    }

    #[test]
    fn deeply_nested_body_is_a_bad_request_not_a_crash() {
        let server = x264_server();
        let path = "/v1/tenants/default/query";
        let bomb = "[".repeat(1 << 20);
        let (status, body) = http_request(server.addr(), "POST", path, Some(&bomb)).expect("bomb");
        assert_eq!(status, 400, "{body}");
        assert!(
            body.starts_with(r#"{"error":{"code":"bad_request","message":"nesting deeper than"#),
            "{body}"
        );
        // The daemon survived and still answers.
        let (status, body) = http_request(server.addr(), "POST", path, Some(QUERY)).expect("query");
        assert_eq!(status, 200, "{body}");
        let (status, body) = http_request(server.addr(), "GET", "/health", None).expect("health");
        assert_eq!(status, 200);
        assert!(body.starts_with(r#"{"ok":true,"epoch":"#), "{body}");
        server.shutdown();
    }

    #[test]
    fn unparsable_content_length_gets_one_400_then_close() {
        let server = x264_server();
        // The body is itself a complete request: were the bad length
        // read as 0, it would be served as a second request.
        let request = "POST /v1/tenants/default/query HTTP/1.1\r\nContent-Length: abc\r\n\r\n\
                       GET /health HTTP/1.1\r\n\r\n";
        let raw = one_400_then_close(&server, request);
        assert!(
            raw.ends_with(r#"{"error":{"code":"bad_request","message":"malformed HTTP request"}}"#),
            "{raw}"
        );
        server.shutdown();
    }
}
