//! `serve`: an in-process `squ_serve::Server` over a fresh, empty store,
//! driven by a closed loop of keep-alive connections (callers that wait
//! for each reply, like CI jobs). Most requests repeat a coordinate and
//! are store reads; some are first-seen models or fault profiles over an
//! already-built dataset and run the model pipeline; two build a dataset.
//! It is the only workload for the serve and store layers.
//!
//! The server writes a response's head and body in two writes on a socket
//! without `TCP_NODELAY`, so a keep-alive client waits for its own delayed
//! ACK (about 40 ms) on every exchange. The load generator sends each request in
//! one write; the stall that remains is the server's, and the latencies
//! report it as a caller sees it.
//!
//! Every dataset belongs to one connection, so each coordinate's requests
//! run in order on one connection: hit and miss counts do not depend on
//! how the two connections interleave.

use crate::{layers, trace, Clock, Config, Outcome, Rng};
use squ::synth::peak_rss_kb;
use squ::PAPER_SEED;
use squ_llm::{FaultProfile, ModelId, SimulatedModel, Transport};
use squ_serve::{CacheStatus, EvalService, EvalSpec, Server, ServerConfig};
use squ_tasks::TaskId;
use squ_workload::Workload;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed requests per iteration and how many of them are first-seen.
const REQUESTS: usize = 240;
const DISTINCT: usize = 24;
const REQUESTS_SMALL: usize = 40;
const DISTINCT_SMALL: usize = 6;
/// Consecutive requests sent under one client id: far below the
/// per-client token bucket's burst, so the throttle never answers.
const PER_CLIENT: usize = 16;
const TIMEOUT: Duration = Duration::from_secs(60);
/// The datasets requests run over: one per task family, built by the
/// warm-up in set-up, and two more of the cheaper families that are first
/// requested (so built) in the timed phase.
const WARM: [(TaskId, Workload); 6] = [
    (TaskId::Syntax, Workload::Sdss),
    (TaskId::MissToken, Workload::JoinOrder),
    (TaskId::Equiv, Workload::Sdss),
    (TaskId::Perf, Workload::Sdss),
    (TaskId::Explain, Workload::Spider),
    (TaskId::Translate, Workload::SqlShare),
];
const COLD: [(TaskId, Workload); 2] = [
    (TaskId::Syntax, Workload::SqlShare),
    (TaskId::MissToken, Workload::Sdss),
];
const FAULT_SEEDS: u64 = 3;

/// One evaluation coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Coord {
    task: TaskId,
    workload: Workload,
    model: ModelId,
    profile: &'static str,
    fault_seed: u64,
}

/// A coordinate as an ordered map key.
type Key = (&'static str, &'static str, &'static str, &'static str, u64);

impl Coord {
    fn key(&self) -> Key {
        (
            self.task.short(),
            self.workload.name(),
            self.model.name(),
            self.profile,
            self.fault_seed,
        )
    }

    /// The `/eval` body; datasets are the paper's, built from its seed.
    fn body(&self) -> String {
        format!(
            r#"{{"task":"{}","workload":"{}","model":"{}","profile":"{}","fault_seed":{},"seed":{PAPER_SEED}}}"#,
            self.task.short(),
            self.workload.name(),
            self.model.name(),
            self.profile,
            self.fault_seed
        )
    }
}

/// The requests of one connection: warm-up coordinates (sent in set-up)
/// and the timed sequence.
#[derive(Debug, Default)]
struct Plan {
    warmup: Vec<Coord>,
    timed: Vec<Coord>,
}

/// The seeded request stream, split by connection.
fn plan(seed: u64, conns: usize, requests: usize, distinct: usize) -> Vec<Plan> {
    let mut rng = Rng(seed ^ 0x5E7E);
    let mut plans: Vec<Plan> = (0..conns).map(|_| Plan::default()).collect();
    let sets: Vec<(TaskId, Workload)> = WARM.iter().chain(&COLD).copied().collect();
    let owner = |i: usize| i % conns;
    let mut fresh: Vec<Vec<Coord>> = vec![Vec::new(); conns];
    for (i, &(task, workload)) in sets.iter().enumerate() {
        let cold = COLD.contains(&(task, workload));
        let mut coords: Vec<Coord> = ModelId::ALL
            .iter()
            .flat_map(|&model| {
                FaultProfile::NAMES.iter().flat_map(move |&profile| {
                    (0..FAULT_SEEDS).map(move |fault_seed| Coord {
                        task,
                        workload,
                        model,
                        profile,
                        fault_seed,
                    })
                })
            })
            .collect();
        rng.shuffle(&mut coords);
        if !cold {
            plans[owner(i)].warmup.push(coords.remove(0));
        }
        fresh[owner(i)].extend(coords);
    }
    for (c, pool) in fresh.iter_mut().enumerate() {
        rng.shuffle(pool);
        // one coordinate of each cold dataset leads, so that dataset is
        // first requested (and built) inside the timed phase
        for cold in COLD {
            if let Some(at) = pool.iter().position(|k| (k.task, k.workload) == cold) {
                let k = pool.remove(at);
                pool.insert(0, k);
            }
        }
        let per_conn = requests / conns + usize::from(c < requests % conns);
        let new_here = distinct / conns + usize::from(c < distinct % conns);
        let mut is_new: Vec<bool> = (0..per_conn).map(|i| i < new_here).collect();
        rng.shuffle(&mut is_new);
        let mut seen = plans[c].warmup.clone();
        let mut unseen = pool.iter().copied();
        for new in is_new {
            let coord = match new.then(|| unseen.next()).flatten() {
                Some(k) => {
                    seen.push(k);
                    k
                }
                None => seen[rng.below(seen.len())],
            };
            plans[c].timed.push(coord);
        }
    }
    plans
}

/// A keep-alive HTTP/1.1 client that sends each request in one write with
/// `TCP_NODELAY`, so a round trip measures the server rather than the
/// client's own packet coalescing.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Status, `X-Squ-Cache` value and body of one response.
type Response = (u16, Option<String>, Vec<u8>);

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn post(&mut self, client_id: &str, body: &str) -> std::io::Result<Response> {
        let req = format!(
            "POST /eval HTTP/1.1\r\nHost: squ-serve\r\nx-squ-client: {client_id}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let (mut len, mut cache) = (0usize, None);
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.parse().map_err(|_| bad("content-length"))?;
                } else if name.eq_ignore_ascii_case("x-squ-cache") {
                    cache = Some(value.to_string());
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, cache, body))
    }
}

/// One timed exchange as the client saw it.
struct Exchange {
    coord: Coord,
    expect_hit: bool,
    status: Option<u16>,
    cache: Option<CacheStatus>,
    body: Vec<u8>,
    ms: f64,
}

/// Send one request, reconnecting once if the connection broke; a
/// transport error leaves the status empty.
fn send(conn: &mut Option<Client>, addr: SocketAddr, client: &str, coord: Coord) -> Exchange {
    let body = coord.body();
    let start = Instant::now();
    let mut result = None;
    for _ in 0..2 {
        if conn.is_none() {
            *conn = Client::connect(addr).ok();
        }
        let Some(c) = conn.as_mut() else { continue };
        match c.post(client, &body) {
            Ok(resp) => {
                result = Some(resp);
                break;
            }
            Err(_) => *conn = None,
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (status, cache, body) = match result {
        Some((status, cache, body)) => (Some(status), cache, body),
        None => (None, None, Vec::new()),
    };
    Exchange {
        coord,
        expect_hit: false,
        status,
        cache: cache.and_then(|v| match v.as_str() {
            "hit" => Some(CacheStatus::Hit),
            "miss" => Some(CacheStatus::Miss),
            _ => None,
        }),
        body,
        ms,
    }
}

/// Run one connection's requests in order; the first exchange of each
/// coordinate is its miss.
fn drive(
    addr: SocketAddr,
    conn_id: usize,
    coords: &[Coord],
    warm: &[Coord],
    base_request: u64,
) -> Vec<Exchange> {
    let mut conn = None;
    let mut seen: Vec<Coord> = warm.to_vec();
    coords
        .iter()
        .enumerate()
        .map(|(i, coord)| {
            let client = format!("perfbench-{conn_id}-{}", i / PER_CLIENT);
            let _g = trace::span_request("serve.request", base_request + i as u64);
            let mut ex = send(&mut conn, addr, &client, *coord);
            ex.expect_hit = seen.contains(coord);
            if !ex.expect_hit {
                seen.push(*coord);
            }
            ex
        })
        .collect()
}

fn statz(addr: SocketAddr) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Ok(resp) = squ_serve::once(addr, "GET", "/statz", &[], b"", TIMEOUT) else {
        return out;
    };
    let Ok(doc) = serde_json::from_str::<serde_json::Value>(&resp.text()) else {
        return out;
    };
    if let Some(serde_json::Value::Object(stages)) = doc.get("store") {
        for (_, s) in stages {
            for key in ["hits", "misses", "bytes_written"] {
                *out.entry(key.to_string()).or_insert(0) +=
                    s.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
            }
        }
    }
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

pub(crate) fn run(cfg: &Config, mut clock: Clock) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let conns = cfg.jobs.max(1);
    let (requests, distinct) = if cfg.small {
        (REQUESTS_SMALL, DISTINCT_SMALL)
    } else {
        (REQUESTS, DISTINCT)
    };
    let plans = plan(cfg.seed, conns, requests, distinct);
    let store = cfg
        .work_dir
        .join(format!("serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            store_root: store.clone(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
    // the accept loop never returns; it ends with the process
    std::thread::spawn(move || server.run());

    // deliberate warm-up: build every dataset but the cold ones
    let warm: Vec<Vec<Exchange>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, p)| s.spawn(move || drive(addr, c, &p.warmup, &[], 0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up connection"))
            .collect()
    });
    let before = statz(addr);
    clock.begin_timed();
    out.setup_s = clock.setup_s();
    if cfg.setup_only {
        let _ = std::fs::remove_dir_all(&store);
        return Ok(out);
    }
    let exchanges: Vec<Vec<Exchange>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, p)| {
                let base = (c * requests) as u64 + 1;
                s.spawn(move || drive(addr, c, &p.timed, &p.warmup, base))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection"))
            .collect()
    });
    out.wall_s = clock.timed_s();
    out.peak_rss_kb = peak_rss_kb();
    let after = statz(addr);

    // checks: 2xx, the expected cache status, and every hit body equal to
    // the miss body of its coordinate
    let mut bodies: BTreeMap<Key, Vec<u8>> = BTreeMap::new();
    for ex in warm.iter().flatten() {
        bodies.insert(ex.coord.key(), ex.body.clone());
    }
    let (mut hits, mut misses, mut rejected) = (0u64, 0u64, 0u64);
    let mut hit_ms = Vec::new();
    let mut parts = Vec::new();
    for ex in exchanges.iter().flatten() {
        let ok_status = ex.status.is_some_and(|s| (200..300).contains(&s));
        if matches!(ex.status, Some(429 | 503)) {
            rejected += 1;
        }
        let first = bodies
            .entry(ex.coord.key())
            .or_insert_with(|| ex.body.clone());
        let same_body = *first == ex.body;
        let want = if ex.expect_hit {
            CacheStatus::Hit
        } else {
            CacheStatus::Miss
        };
        match ex.cache {
            Some(CacheStatus::Hit) => {
                hits += 1;
                hit_ms.push(ex.ms);
            }
            Some(CacheStatus::Miss) => misses += 1,
            None => {}
        }
        let ok = ok_status && same_body && ex.cache == Some(want);
        out.latencies_ms.push(ok.then_some(ex.ms));
        out.check(ok, || {
            format!(
                "{:?}: status {:?}, cache {:?} (want {want:?}), body equal {same_body}",
                ex.coord, ex.status, ex.cache
            )
        });
        parts.push(String::from_utf8_lossy(&ex.body).into_owned());
    }
    out.digest = crate::digest("perfbench-serve", parts.iter().map(String::as_str));
    let total = (hits + misses).max(1) as f64;
    out.facts.insert("hit_share".into(), hits as f64 / total);
    out.facts.insert("requests".into(), out.attempted as f64);
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    trace::count("serve.hits", hits);
    trace::count("serve.misses", misses);
    trace::count("serve.rejected", rejected);
    for k in ["hits", "misses", "bytes_written"] {
        trace::count(&format!("core.store.{k}"), delta(k));
    }

    if trace::enabled() {
        let (service_hit_us, service_miss_ms) = replay(cfg, &plans);
        out.layers
            .insert("serve.eval.hit_us".into(), service_hit_us);
        out.layers
            .insert("serve.eval.miss_ms".into(), service_miss_ms);
        out.layers.insert(
            "serve.http.overhead_us".into(),
            median(hit_ms) * 1e3 - service_hit_us,
        );
    }
    let _ = std::fs::remove_dir_all(&store);
    Ok(out)
}

/// The same request sequence straight through a fresh `EvalService`
/// (no HTTP), timing `eval` by cache status; then each first-seen
/// coordinate's model pipeline through a timing client. Returns the
/// median service time of a hit (µs) and of a miss (ms).
fn replay(cfg: &Config, plans: &[Plan]) -> (f64, f64) {
    let _g = trace::span("replay.serve");
    let root: PathBuf = cfg
        .work_dir
        .join(format!("serve-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let service = EvalService::new(&root);
    let (mut hit_us, mut miss_ms) = (Vec::new(), Vec::new());
    let mut first_seen: Vec<Coord> = Vec::new();
    for p in plans {
        for (i, coord) in p.warmup.iter().chain(&p.timed).enumerate() {
            // the very body the HTTP request carried
            let spec: EvalSpec =
                serde_json::from_str(&coord.body()).expect("a request body parses");
            let key = service
                .resolve(&spec)
                .expect("the server accepted this request");
            let start = Instant::now();
            let (_, status) = trace::time("serve.eval", || service.eval(&key));
            let s = start.elapsed().as_secs_f64();
            match status {
                CacheStatus::Hit => hit_us.push(s * 1e6),
                // the timed phase's misses; the warm-up's are set-up work
                CacheStatus::Miss if i >= p.warmup.len() => {
                    miss_ms.push(s * 1e3);
                    first_seen.push(*coord);
                }
                CacheStatus::Miss => {}
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    // a miss's model pipeline, replayed through a timing client
    let mut sets: BTreeMap<(&str, &str), squ::registry::ExampleSet> = BTreeMap::new();
    for coord in first_seen {
        let set = sets
            .entry((coord.task.short(), coord.workload.name()))
            .or_insert_with(|| {
                let task = squ::registry::task(coord.task);
                let ds = squ_workload::build(coord.workload, PAPER_SEED);
                task.build(&ds, PAPER_SEED)
            });
        let profile = FaultProfile::by_name(coord.profile).unwrap_or_else(FaultProfile::none);
        let client = Transport::new(SimulatedModel::new(coord.model), profile, coord.fault_seed);
        layers::replay_set(coord.task, set, &client, coord.workload.into());
    }
    (median(hit_us), median(miss_ms))
}
