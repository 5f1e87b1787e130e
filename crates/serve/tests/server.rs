//! End-to-end tests against a live server on an ephemeral port: protocol
//! behavior, cache semantics, admission control, and a heavy-fault soak.

use serde_json::Value;
use squ_llm::FaultProfile;
use squ_serve::{once, Conn, Server, ServerConfig, WireFaultClient, WireOutcome, WireReport};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

/// Per-test scratch store root under the system temp dir.
fn scratch_store(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("squ-serve-it-{}-{tag}-{n}", std::process::id()))
}

fn boot(tag: &str, tune: impl FnOnce(&mut ServerConfig)) -> SocketAddr {
    let mut config = ServerConfig {
        store_root: scratch_store(tag),
        ..ServerConfig::default()
    };
    tune(&mut config);
    Server::spawn("127.0.0.1:0", config).expect("server binds an ephemeral port")
}

const EVAL_BODY: &str =
    r#"{"task":"syntax","workload":"joinorder","model":"GPT4","profile":"none","seed":5}"#;

fn post_eval(addr: SocketAddr, body: &str) -> squ_serve::HttpResponse {
    once(addr, "POST", "/eval", &[], body.as_bytes(), TIMEOUT).expect("eval exchange")
}

#[test]
fn healthz_and_statz_respond() {
    let addr = boot("health", |_| {});
    let health = once(addr, "GET", "/healthz", &[], b"", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "{\"ok\":true}");

    let statz = once(addr, "GET", "/statz", &[], b"", TIMEOUT).expect("statz");
    assert_eq!(statz.status, 200);
    let doc: Value = serde_json::from_str(&statz.text()).expect("statz is JSON");
    assert_eq!(doc["panics"], 0u64);
}

#[test]
fn keep_alive_carries_multiple_exchanges_on_one_connection() {
    let addr = boot("keepalive", |_| {});
    let mut conn = Conn::connect(addr, TIMEOUT).expect("connect");
    let first = conn
        .request("GET", "/healthz", &[], b"")
        .expect("exchange 1");
    assert_eq!(first.status, 200);
    let second = conn
        .request("POST", "/eval", &[], EVAL_BODY.as_bytes())
        .expect("exchange 2 on the same socket");
    assert_eq!(second.status, 200);
    let third = conn
        .request("GET", "/healthz", &[], b"")
        .expect("exchange 3 on the same socket");
    assert_eq!(third.status, 200);

    // A message that waits for the peer's delayed ACK of the one before
    // it (at least 40 ms on Linux) stalls every keep-alive exchange, as a
    // fresh connection never does; the median exchange must stay clear
    // of that.
    let mut median_ms = |method: &str, path: &str, body: &[u8], cache: Option<&str>| {
        let mut ms: Vec<f64> = (0..30)
            .map(|i| {
                let start = Instant::now();
                let resp = conn
                    .request(method, path, &[], body)
                    .unwrap_or_else(|e| panic!("{method} {path} #{i}: {e}"));
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(resp.status, 200);
                assert_eq!(resp.header("x-squ-cache"), cache);
                elapsed
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    let health = median_ms("GET", "/healthz", b"", None);
    let warm = median_ms("POST", "/eval", EVAL_BODY.as_bytes(), Some("hit"));
    for (what, ms) in [("GET /healthz", health), ("warm POST /eval", warm)] {
        assert!(
            ms < 20.0,
            "median keep-alive {what} took {ms:.2} ms: a delayed-ACK stall"
        );
    }
}

#[test]
fn connection_header_says_whether_the_server_closes() {
    use std::io::{BufRead, BufReader, Read};
    let addr = boot("connection", |_| {});
    for (request, want) in [
        ("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", "keep-alive"),
        (
            "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            "close",
        ),
        ("GET /healthz HTTP/1.0\r\n\r\n", "close"),
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");
        stream.write_all(request.as_bytes()).expect("send request");
        let mut reader = BufReader::new(stream);
        let mut head = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read head");
            if line == "\r\n" || line.is_empty() {
                break;
            }
            head.push(line.trim_end().to_string());
        }
        assert!(
            head.contains(&format!("Connection: {want}")),
            "{request:?} got {head:?}"
        );
        if want == "close" {
            // the server does what it announced: the body, then EOF
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).expect("server closes");
            assert_eq!(rest, b"{\"ok\":true}");
        }
    }
}

#[test]
fn warm_eval_repeats_are_byte_identical_store_hits() {
    let addr = boot("cache", |_| {});
    let cold = post_eval(addr, EVAL_BODY);
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-squ-cache"), Some("miss"));

    let warm = post_eval(addr, EVAL_BODY);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-squ-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "cached body must be byte-identical");

    let doc: Value = serde_json::from_str(&warm.text()).expect("result is JSON");
    assert_eq!(doc["task"], "syntax_error");
    assert_eq!(doc["workload"], "Join-Order");
    assert!(doc["examples"].as_u64().expect("examples") > 0);
}

#[test]
fn suite_streams_one_ndjson_line_per_evaluation() {
    let addr = boot("suite", |_| {});
    let spec =
        r#"{"tasks":["syntax"],"workloads":["joinorder"],"models":["GPT4","Gemini"],"seed":5}"#;
    let resp = once(addr, "POST", "/suite", &[], spec.as_bytes(), TIMEOUT).expect("suite");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    let text = resp.text();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 2, "syntax × joinorder × 2 models");
    for line in lines {
        let doc: Value = serde_json::from_str(line).expect("each line is JSON");
        assert_eq!(doc["task"], "syntax_error");
    }

    // a spec that selects nothing is a 400, not an empty stream
    let empty = once(
        addr,
        "POST",
        "/suite",
        &[],
        br#"{"tasks":["perf"],"workloads":["spider"]}"#,
        TIMEOUT,
    )
    .expect("empty suite exchange");
    assert_eq!(empty.status, 400);
}

#[test]
fn malformed_oversized_and_truncated_requests_reject_without_panic() {
    let addr = boot("malformed", |_| {});

    // malformed JSON body
    let bad_json = post_eval(addr, "{not json");
    assert_eq!(bad_json.status, 400);
    // unknown fields resolved: bad task
    let bad_task = post_eval(addr, r#"{"task":"nope","workload":"sdss","model":"GPT4"}"#);
    assert_eq!(bad_task.status, 400);
    // inadmissible combination
    let bad_combo = post_eval(
        addr,
        r#"{"task":"perf","workload":"spider","model":"GPT4"}"#,
    );
    assert_eq!(bad_combo.status, 400);
    // wrong method / unknown route
    let method = once(addr, "GET", "/eval", &[], b"", TIMEOUT).expect("405 exchange");
    assert_eq!(method.status, 405);
    let route = once(addr, "GET", "/nope", &[], b"", TIMEOUT).expect("404 exchange");
    assert_eq!(route.status, 404);

    // oversized body: Content-Length over the limit → 413 before any read
    let huge = format!(
        "POST /eval HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(huge.as_bytes())
        .expect("send oversized head");
    let resp = read_raw_status(stream);
    assert_eq!(resp, Some(413));

    // truncated request: half a head, then close — server must shrug
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"POST /eval HTT").expect("send fragment");
    drop(stream);

    // raw garbage
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"\x00\x01\x02 garbage\r\n\r\n")
        .expect("send garbage");
    let resp = read_raw_status(stream);
    assert_eq!(resp, Some(400));

    // after all of that the server is still healthy and panic-free
    let statz = once(addr, "GET", "/statz", &[], b"", TIMEOUT).expect("statz");
    let doc: Value = serde_json::from_str(&statz.text()).expect("statz is JSON");
    assert_eq!(doc["panics"], 0u64, "no handler panicked");
    assert!(doc["protocol_errors"].as_u64().expect("protocol_errors") >= 2);
}

/// Read just the status code of a raw response, if the server sent one.
fn read_raw_status(stream: TcpStream) -> Option<u16> {
    use std::io::{BufRead, BufReader};
    let _ = stream.set_read_timeout(Some(TIMEOUT));
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    line.split(' ').nth(1)?.parse().ok()
}

#[test]
fn saturated_admission_gate_returns_429_with_retry_after() {
    // zero permits: the gate is saturated by construction, so every
    // evaluation request is turned away deterministically
    let addr = boot("saturated", |c| c.max_in_flight = 0);
    let resp = post_eval(addr, EVAL_BODY);
    assert_eq!(resp.status, 429);
    assert!(resp.header("retry-after").is_some());
    // control endpoints bypass admission and stay observable
    let health = once(addr, "GET", "/healthz", &[], b"", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
}

#[test]
fn exhausted_client_budget_returns_429_with_computed_retry_after() {
    let addr = boot("budget", |c| {
        c.bucket_capacity = 2.0;
        c.bucket_refill_per_s = 0.01;
    });
    let h = [("x-squ-client", "greedy")];
    for _ in 0..2 {
        let ok =
            once(addr, "POST", "/eval", &h, EVAL_BODY.as_bytes(), TIMEOUT).expect("budgeted eval");
        assert_eq!(ok.status, 200);
    }
    let throttled =
        once(addr, "POST", "/eval", &h, EVAL_BODY.as_bytes(), TIMEOUT).expect("throttled eval");
    assert_eq!(throttled.status, 429);
    let retry: u64 = throttled
        .header("retry-after")
        .expect("retry-after present")
        .parse()
        .expect("retry-after is seconds");
    assert!(retry >= 1);
    // an unrelated client is not throttled
    let other = once(
        addr,
        "POST",
        "/eval",
        &[("x-squ-client", "patient")],
        EVAL_BODY.as_bytes(),
        TIMEOUT,
    )
    .expect("other client eval");
    assert_eq!(other.status, 200);
}

#[test]
fn heavy_fault_soak_never_yields_5xx_or_panics() {
    let addr = boot("soak", |_| {});
    // prime the cache so most faulted exchanges are store hits
    assert_eq!(post_eval(addr, EVAL_BODY).status, 200);

    let client = WireFaultClient::new(FaultProfile::heavy(), 2023).with_timeout(TIMEOUT);
    let mut report = WireReport::default();
    for i in 0..60 {
        let (fault, outcome) = client.fire(addr, i, "/eval", EVAL_BODY.as_bytes());
        assert!(
            !matches!(&outcome, WireOutcome::Responses(s) if s.iter().any(|c| *c >= 500)),
            "exchange {i} (fault {fault:?}) produced a 5xx"
        );
        report.observe(fault, &outcome);
    }
    assert!(report.faulted > 10, "heavy profile should fault often");
    assert!(report.ok > 0, "clean exchanges still succeed mid-soak");
    assert_eq!(report.server_errors, 0);

    // the server survived: healthy, zero panics, and the in-flight gauge
    // drains back to just the probing request itself (poll briefly —
    // the last soak exchange's guard may still be dropping)
    let mut gauge = u64::MAX;
    for _ in 0..100 {
        let statz = once(addr, "GET", "/statz", &[], b"", TIMEOUT).expect("statz after soak");
        let doc: Value = serde_json::from_str(&statz.text()).expect("statz is JSON");
        assert_eq!(doc["panics"], 0u64, "soak must not panic any handler");
        gauge = doc["in_flight"].as_u64().expect("in_flight gauge");
        if gauge <= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        gauge <= 1,
        "in-flight gauge must drain after the soak, got {gauge}"
    );
}
