//! The HTTP server: accept loop, routing, admission control, and
//! backpressure.
//!
//! Thread-per-connection on [`std::net::TcpListener`], in the same
//! spirit as the slot-indexed worker pool in `squ::par`: plain OS
//! threads, shared state behind atomics, no async runtime (the vendored
//! offline stack has none). Three layers keep an overloaded or hostile
//! client from taking the process down:
//!
//! 1. **Connection cap** — beyond [`ServerConfig::max_connections`]
//!    concurrent connections, new sockets get an immediate 503 and
//!    close; no thread is spawned for them.
//! 2. **Admission control** — `/eval` and `/suite` take a permit from a
//!    bounded in-flight gate; when the gate is saturated the request is
//!    a 429 with `Retry-After`. Per-client token buckets (keyed on the
//!    `x-squ-client` header) throttle chatty clients before they reach
//!    the gate. `/healthz` and `/statz` bypass both, so the server stays
//!    observable under load.
//! 3. **Write-side backpressure** — `/suite` streams through a bounded
//!    queue; a reader that stops draining blocks the writer into the
//!    socket's write timeout, the connection drops, and the producer
//!    unblocks when the queue closes. Memory stays bounded end to end.
//!
//! Handler panics are caught per request (`catch_unwind`) and converted
//! to structured 500s — the soak tests assert the count stays zero, but
//! a bug must cost one response, not the process.

use crate::http::{
    read_request, write_response, ChunkedWriter, Limits, ReadError, Reject, Request, Response,
};
use crate::service::{CacheStatus, EvalKey, EvalService, EvalSpec, SuiteSpec};
use crate::stats::{InFlight, ServerStats};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root directory of the shared artifact store.
    pub store_root: std::path::PathBuf,
    /// Concurrent `/eval` + `/suite` requests admitted at once.
    pub max_in_flight: usize,
    /// Concurrent connections before new sockets get an immediate 503.
    pub max_connections: usize,
    /// Token-bucket burst capacity per client.
    pub bucket_capacity: f64,
    /// Token-bucket refill rate per client, tokens per second.
    pub bucket_refill_per_s: f64,
    /// Distinct clients tracked before the stalest bucket is evicted.
    pub max_clients: usize,
    /// Request parsing bounds.
    pub limits: Limits,
    /// Socket read timeout (also the keep-alive idle timeout), ms.
    pub read_timeout_ms: u64,
    /// Socket write timeout — how long a slow reader may stall a write
    /// before the connection is dropped, ms.
    pub write_timeout_ms: u64,
    /// Bounded `/suite` result queue depth (producer blocks beyond it).
    pub suite_queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            store_root: std::path::PathBuf::from("target/repro/store"),
            max_in_flight: 8,
            max_connections: 64,
            bucket_capacity: 64.0,
            bucket_refill_per_s: 32.0,
            max_clients: 1024,
            limits: Limits::default(),
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            suite_queue_depth: 16,
        }
    }
}

/// Bounded in-flight permit gate.
pub struct AdmissionGate {
    in_use: AtomicUsize,
    cap: usize,
}

impl AdmissionGate {
    /// A gate admitting up to `cap` concurrent holders.
    pub fn new(cap: usize) -> AdmissionGate {
        AdmissionGate {
            in_use: AtomicUsize::new(0),
            cap,
        }
    }

    /// Try to take a permit; `None` when saturated.
    pub fn try_acquire(&self) -> Option<Permit<'_>> {
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            if cur >= self.cap {
                return None;
            }
            match self.in_use.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Permit(self)),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// RAII admission permit.
pub struct Permit<'a>(&'a AdmissionGate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.in_use.fetch_sub(1, Ordering::AcqRel);
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-client token buckets with a bounded client map.
pub struct ClientBuckets {
    map: Mutex<std::collections::BTreeMap<String, Bucket>>,
    capacity: f64,
    refill_per_s: f64,
    max_clients: usize,
}

impl ClientBuckets {
    /// Buckets of `capacity` tokens refilling at `refill_per_s`.
    pub fn new(capacity: f64, refill_per_s: f64, max_clients: usize) -> ClientBuckets {
        ClientBuckets {
            map: Mutex::new(std::collections::BTreeMap::new()),
            capacity,
            refill_per_s,
            max_clients: max_clients.max(1),
        }
    }

    /// Spend one token for `client` at time `now`; on refusal returns
    /// the suggested `Retry-After` in whole seconds.
    pub fn admit(&self, client: &str, now: Instant) -> Result<(), u64> {
        let mut map = self.map.lock().expect("bucket map lock"); // lint:allow: poisoned only if a handler already panicked
        if !map.contains_key(client) && map.len() >= self.max_clients {
            // bound the map: evict the client that was seen longest ago
            let stalest = map
                .iter()
                .min_by_key(|(_, b)| b.last)
                .map(|(k, _)| k.clone());
            if let Some(k) = stalest {
                map.remove(&k);
            }
        }
        let bucket = map.entry(client.to_string()).or_insert(Bucket {
            tokens: self.capacity,
            last: now,
        });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.refill_per_s).min(self.capacity);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let wait = if self.refill_per_s > 0.0 {
                ((1.0 - bucket.tokens) / self.refill_per_s).min(3600.0)
            } else {
                3600.0
            };
            Err((wait.ceil() as u64).max(1))
        }
    }
}

struct Shared {
    service: EvalService,
    stats: ServerStats,
    config: ServerConfig,
    gate: AdmissionGate,
    buckets: ClientBuckets,
    connections: AtomicUsize,
}

/// The bound server. [`Server::run`] consumes it and serves until the
/// listener fails (tests and the smoke harness kill the process).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            service: EvalService::new(config.store_root.clone()),
            stats: ServerStats::default(),
            gate: AdmissionGate::new(config.max_in_flight),
            buckets: ClientBuckets::new(
                config.bucket_capacity,
                config.bucket_refill_per_s,
                config.max_clients,
            ),
            config,
            connections: AtomicUsize::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Server telemetry (shared with every connection thread).
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Serve until the listener errors. Each accepted connection gets
    /// its own thread; connections beyond the cap get an immediate 503.
    pub fn run(self) -> std::io::Result<()> {
        for conn in self.listener.incoming() {
            let stream = match conn {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => return Err(e),
            };
            let shared = Arc::clone(&self.shared);
            shared.stats.connections.fetch_add(1, Ordering::Relaxed);
            if shared.connections.load(Ordering::Relaxed) >= shared.config.max_connections {
                shared.stats.throttled.fetch_add(1, Ordering::Relaxed);
                let mut stream = stream;
                let _ = stream.set_write_timeout(Some(Duration::from_millis(1000)));
                let _ = write_response(
                    &mut stream,
                    &Response::reject(&Reject::new(503, "connection limit reached")),
                    true,
                );
                continue;
            }
            shared.connections.fetch_add(1, Ordering::AcqRel);
            std::thread::spawn(move || {
                handle_connection(&shared, stream);
                shared.connections.fetch_sub(1, Ordering::AcqRel);
            });
        }
        Ok(())
    }

    /// Bind and serve on a background thread; returns the bound address.
    /// Convenience for tests and the smoke harness.
    pub fn spawn(addr: &str, config: ServerConfig) -> std::io::Result<SocketAddr> {
        let server = Server::bind(addr, config)?;
        let bound = server.local_addr()?;
        std::thread::spawn(move || {
            let _ = server.run();
        });
        Ok(bound)
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let cfg = &shared.config;
    // one write per message is not enough on its own: without NODELAY a
    // message can still wait for the peer's delayed ACK of the one before
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms)));
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, &cfg.limits) {
            Ok(req) => {
                if dispatch(shared, &req, &mut writer) {
                    break;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::TimedOut) | Err(ReadError::Io(_)) => break,
            Err(ReadError::Bad(reject)) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                shared.stats.endpoint("/").record(reject.status, 0);
                let _ = write_response(&mut writer, &Response::reject(&reject), true);
                break;
            }
        }
    }
}

/// Route one request and write its response; returns whether the
/// connection must close afterwards.
fn dispatch(shared: &Shared, req: &Request, writer: &mut TcpStream) -> bool {
    let start = Instant::now();
    let _gauge = InFlight::enter(&shared.stats);
    let path = req.path().to_string();
    let wants_close = req.wants_close();
    let (status, close) = match (req.method.as_str(), path.as_str()) {
        ("GET", "/healthz") => {
            let resp = Response::json(200, "{\"ok\":true}".to_string());
            write_and_status(writer, &resp, wants_close)
        }
        ("GET", "/statz") => {
            let body = shared.stats.statz_json(shared.service.store_stats_json());
            write_and_status(writer, &Response::json(200, body), wants_close)
        }
        ("POST", "/eval") => match admit(shared, req) {
            Err(resp) => write_and_status(writer, &resp, wants_close),
            Ok(_permit) => {
                let resp = eval_response(shared, req);
                write_and_status(writer, &resp, wants_close)
            }
        },
        ("POST", "/suite") => match admit(shared, req) {
            Err(resp) => write_and_status(writer, &resp, wants_close),
            Ok(_permit) => (stream_suite(shared, req, writer), true),
        },
        (_, "/healthz" | "/statz" | "/eval" | "/suite") => write_and_status(
            writer,
            &Response::reject(&Reject::new(
                405,
                format!("method {} not allowed on {path}", req.method),
            )),
            wants_close,
        ),
        _ => write_and_status(
            writer,
            &Response::reject(&Reject::new(404, format!("no route for {path}"))),
            wants_close,
        ),
    };
    let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    shared.stats.endpoint(&path).record(status, us);
    close
}

/// Write a complete response whose `Connection` header announces
/// `close`; returns `(status, close)`, with close also set by a write
/// failure (a dead peer means the connection is done regardless of
/// keep-alive).
fn write_and_status(writer: &mut TcpStream, resp: &Response, close: bool) -> (u16, bool) {
    let failed = write_response(writer, resp, close).is_err();
    (resp.status, close || failed)
}

/// Admission control for the evaluation endpoints: per-client token
/// bucket first, then the bounded in-flight gate.
fn admit<'a>(shared: &'a Shared, req: &Request) -> Result<Permit<'a>, Response> {
    let client = req.header("x-squ-client").unwrap_or("anon");
    if let Err(retry_after) = shared.buckets.admit(client, Instant::now()) {
        shared.stats.throttled.fetch_add(1, Ordering::Relaxed);
        let mut resp = Response::reject(&Reject::new(
            429,
            format!("client {client:?} exceeded its request budget"),
        ));
        resp.extra_headers.retain(|(k, _)| k != "Retry-After");
        resp.extra_headers
            .push(("Retry-After".to_string(), retry_after.to_string()));
        return Err(resp);
    }
    match shared.gate.try_acquire() {
        Some(permit) => Ok(permit),
        None => {
            shared.stats.throttled.fetch_add(1, Ordering::Relaxed);
            Err(Response::reject(&Reject::new(
                429,
                "server is at its in-flight request limit",
            )))
        }
    }
}

fn parse_body<T: serde::Deserialize>(req: &Request) -> Result<T, Reject> {
    let text = std::str::from_utf8(&req.body).map_err(|_| Reject::new(400, "body is not UTF-8"))?;
    serde_json::from_str::<T>(text)
        .map_err(|e| Reject::new(400, format!("malformed request body: {e}")))
}

/// `POST /eval`: resolve, evaluate (panic-safe), tag cache status.
fn eval_response(shared: &Shared, req: &Request) -> Response {
    let key = match parse_body::<EvalSpec>(req).and_then(|spec| shared.service.resolve(&spec)) {
        Ok(key) => key,
        Err(reject) => return Response::reject(&reject),
    };
    match eval_guarded(shared, &key) {
        Ok((body, cache)) => {
            Response::json(200, body).with_header("X-Squ-Cache", cache.header_value().to_string())
        }
        Err(resp) => resp,
    }
}

/// Run one evaluation with panics converted to a structured 500.
fn eval_guarded(shared: &Shared, key: &EvalKey) -> Result<(String, CacheStatus), Response> {
    match catch_unwind(AssertUnwindSafe(|| shared.service.eval(key))) {
        Ok(out) => Ok(out),
        Err(_) => {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            Err(Response::reject(&Reject::new(
                500,
                "evaluation panicked; see server logs",
            )))
        }
    }
}

/// `POST /suite`: expand the spec and stream one NDJSON line per
/// evaluation through a bounded queue. The producer thread blocks when
/// the queue is full; a reader that stops draining trips the socket
/// write timeout, the writer drops the receiver, and the producer's next
/// send fails — bounded memory with no watchdog. Returns the status to
/// account (200 once the stream began).
fn stream_suite(shared: &Shared, req: &Request, writer: &mut TcpStream) -> u16 {
    let keys =
        match parse_body::<SuiteSpec>(req).and_then(|spec| shared.service.expand_suite(&spec)) {
            Ok(keys) => keys,
            Err(reject) => {
                let resp = Response::reject(&reject);
                let _ = write_response(writer, &resp, true);
                return resp.status;
            }
        };
    let (tx, rx) = mpsc::sync_channel::<String>(shared.config.suite_queue_depth.max(1));
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for key in &keys {
                let line = match eval_guarded(shared, key) {
                    Ok((body, _)) => body,
                    Err(resp) => String::from_utf8_lossy(&resp.body).into_owned(),
                };
                if tx.send(line).is_err() {
                    break; // writer hung up (slow reader disconnected)
                }
            }
        });
        let mut cw = match ChunkedWriter::begin(writer, 200, "application/x-ndjson") {
            Ok(cw) => cw,
            Err(_) => return 200,
        };
        for line in rx {
            let mut chunk = line.into_bytes();
            chunk.push(b'\n');
            if cw.chunk(&chunk).is_err() {
                return 200; // drops rx; producer unblocks and exits
            }
        }
        let _ = cw.finish();
        200
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_gate_is_bounded_and_releases_on_drop() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_acquire().expect("permit 1");
        let _b = gate.try_acquire().expect("permit 2");
        assert!(gate.try_acquire().is_none(), "gate saturated at cap");
        drop(a);
        assert!(gate.try_acquire().is_some(), "released permit readmits");
        assert!(AdmissionGate::new(0).try_acquire().is_none());
    }

    #[test]
    fn token_bucket_throttles_and_refills() {
        let buckets = ClientBuckets::new(2.0, 1.0, 8);
        let t0 = Instant::now();
        assert!(buckets.admit("a", t0).is_ok());
        assert!(buckets.admit("a", t0).is_ok());
        let retry = buckets.admit("a", t0).expect_err("budget spent");
        assert!(retry >= 1);
        // a different client has its own bucket
        assert!(buckets.admit("b", t0).is_ok());
        // one refill-second later the client gets one token back
        assert!(buckets.admit("a", t0 + Duration::from_secs(1)).is_ok());
        assert!(buckets.admit("a", t0 + Duration::from_secs(1)).is_err());
    }

    #[test]
    fn zero_refill_buckets_suggest_a_bounded_retry() {
        let buckets = ClientBuckets::new(1.0, 0.0, 8);
        let t0 = Instant::now();
        assert!(buckets.admit("a", t0).is_ok());
        let retry = buckets.admit("a", t0).expect_err("no refill");
        assert!(retry <= 3600, "retry-after stays bounded, got {retry}");
    }

    #[test]
    fn bucket_map_stays_bounded_by_evicting_the_stalest_client() {
        let buckets = ClientBuckets::new(8.0, 1.0, 2);
        let t0 = Instant::now();
        assert!(buckets.admit("old", t0).is_ok());
        assert!(buckets.admit("mid", t0 + Duration::from_millis(10)).is_ok());
        assert!(buckets.admit("new", t0 + Duration::from_millis(20)).is_ok());
        let map = buckets.map.lock().expect("bucket map");
        assert_eq!(map.len(), 2);
        assert!(!map.contains_key("old"), "stalest client evicted");
        assert!(map.contains_key("new"));
    }
}
