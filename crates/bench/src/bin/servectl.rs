//! Client-side control and load generation for the `squ-serve` server.
//!
//! ```text
//! servectl ADDR health                 # GET /healthz, exit 0 iff 200
//! servectl ADDR statz                  # GET /statz, print the snapshot
//! servectl ADDR eval JSON [DIALECT]    # POST /eval; line 1: "HTTP <status> cache=<hit|miss>",
//!                                      # then the raw response body. DIALECT is
//!                                      # injected into the body as "dialect"
//!                                      # (overriding any value already there);
//!                                      # the server validates it (unknown → 400)
//! servectl ADDR suite JSON             # POST /suite; stream the NDJSON lines
//! servectl ADDR load N PROFILE SEED    # seeded mixed workload: N exchanges cycling
//!                                      # tasks × workloads × models with PROFILE's
//!                                      # wire faults injected; prints a report and
//!                                      # exits 1 on any 5xx
//! ```
//!
//! Exchanges time out after 60 s; any transport failure exits 1 with the
//! error on stderr. `load` is the soak driver of the live-server check in
//! `xtask smoke`: its request schedule is a pure function of
//! `(N, PROFILE, SEED)`.

use squ_llm::FaultProfile;
use squ_serve::{once, WireFaultClient, WireOutcome, WireReport};
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr_raw, cmd, rest) = match args.split_first() {
        Some((addr, rest)) => match rest.split_first() {
            Some((cmd, rest)) => (addr.clone(), cmd.clone(), rest.to_vec()),
            None => die("usage: servectl ADDR <health|statz|eval|suite|load> [...]"),
        },
        None => die("usage: servectl ADDR <health|statz|eval|suite|load> [...]"),
    };
    let addr = resolve(&addr_raw);

    match cmd.as_str() {
        "health" => {
            let resp = exchange(addr, "GET", "/healthz", b"");
            println!("{}", resp.text());
            if resp.status != 200 {
                std::process::exit(1);
            }
        }
        "statz" => {
            let resp = exchange(addr, "GET", "/statz", b"");
            println!("{}", resp.text());
            if resp.status != 200 {
                std::process::exit(1);
            }
        }
        "eval" => {
            let body = match rest.as_slice() {
                [body] => body.clone(),
                [body, dialect] => {
                    with_dialect(body, dialect).unwrap_or_else(|e| die(&format!("eval: {e}")))
                }
                _ => die("usage: servectl ADDR eval JSON [DIALECT]"),
            };
            let resp = exchange(addr, "POST", "/eval", body.as_bytes());
            let cache = resp.header("x-squ-cache").unwrap_or("-");
            println!("HTTP {} cache={cache}", resp.status);
            println!("{}", resp.text());
            if resp.status >= 400 {
                std::process::exit(1);
            }
        }
        "suite" => {
            let body = rest
                .first()
                .unwrap_or_else(|| die("suite needs a JSON body argument"));
            let resp = exchange(addr, "POST", "/suite", body.as_bytes());
            print!("{}", resp.text());
            if resp.status >= 400 {
                std::process::exit(1);
            }
        }
        "load" => {
            let (n, profile, seed) = match rest.as_slice() {
                [n, profile, seed] => (
                    n.parse::<u64>()
                        .unwrap_or_else(|_| die("load: N must be an integer")),
                    FaultProfile::by_name(profile).unwrap_or_else(|| {
                        die(&format!(
                            "load: unknown profile {profile:?} (one of {})",
                            FaultProfile::NAMES.join(", ")
                        ))
                    }),
                    seed.parse::<u64>()
                        .unwrap_or_else(|_| die("load: SEED must be an integer")),
                ),
                _ => die("usage: servectl ADDR load N PROFILE SEED"),
            };
            let report = run_load(addr, n, profile, seed);
            println!(
                "load: {} exchanges, {} faulted, {} ok, {} rejected (4xx), {} server errors (5xx), {} silent",
                report.requests,
                report.faulted,
                report.ok,
                report.rejected,
                report.server_errors,
                report.silent
            );
            for (kind, count) in &report.by_kind {
                println!("  fault {kind:<14} {count}");
            }
            if report.server_errors > 0 {
                eprintln!(
                    "error: server produced {} 5xx responses",
                    report.server_errors
                );
                std::process::exit(1);
            }
        }
        other => die(&format!("unknown command {other:?}")),
    }
}

/// A deterministic mixed workload: exchange `i` evaluates coordinate
/// `i` of the (task, workload, model) cycle, with wire faults drawn from
/// `profile` at the same index.
fn run_load(addr: SocketAddr, n: u64, profile: FaultProfile, seed: u64) -> WireReport {
    // cheap, valid coordinates only — the soak exercises the wire and the
    // admission path, not the expensive equivalence pipeline
    let coords = [
        ("syntax", "joinorder", "GPT4"),
        ("syntax", "joinorder", "Gemini"),
        ("syntax", "sqlshare", "GPT3.5"),
        ("tokens", "joinorder", "Llama3"),
        ("syntax", "joinorder", "MistralAI"),
    ];
    let client = WireFaultClient::new(profile, seed).with_timeout(TIMEOUT);
    let mut report = WireReport::default();
    for i in 0..n {
        let (task, workload, model) = coords[(i % coords.len() as u64) as usize];
        let body = format!(
            r#"{{"task":"{task}","workload":"{workload}","model":"{model}","profile":"none","seed":5}}"#
        );
        let (fault, outcome) = client.fire(addr, i, "/eval", body.as_bytes());
        if let WireOutcome::Responses(statuses) = &outcome {
            if let Some(s) = statuses.iter().find(|s| **s >= 500) {
                eprintln!("exchange {i} (fault {fault:?}): server answered {s}");
            }
        }
        report.observe(fault, &outcome);
    }
    report
}

/// Inject (or override) the `"dialect"` key in a JSON `/eval` body.
/// Validation of the name itself is the server's job — forwarding an
/// unknown dialect verbatim lets the 400 (with the valid list) surface.
fn with_dialect(body: &str, dialect: &str) -> Result<String, String> {
    let mut doc: serde_json::Value =
        serde_json::from_str(body).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let serde_json::Value::Object(fields) = &mut doc else {
        return Err("body must be a JSON object".to_string());
    };
    fields.retain(|(k, _)| k != "dialect");
    fields.push((
        "dialect".to_string(),
        serde_json::Value::Str(dialect.to_string()),
    ));
    serde_json::to_string(&doc).map_err(|e| format!("re-encoding body failed: {e}"))
}

fn resolve(raw: &str) -> SocketAddr {
    raw.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| die(&format!("cannot resolve address {raw:?}")))
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> squ_serve::HttpResponse {
    once(
        addr,
        method,
        path,
        &[("x-squ-client", "servectl")],
        body,
        TIMEOUT,
    )
    .unwrap_or_else(|e| die(&format!("{method} {path} failed: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::with_dialect;

    #[test]
    fn dialect_is_injected_into_the_body() {
        let out = with_dialect(
            r#"{"task":"syntax","workload":"sdss","model":"GPT4"}"#,
            "tsql",
        )
        .expect("injects");
        let doc: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(doc["dialect"], "tsql");
        assert_eq!(doc["task"], "syntax");
    }

    #[test]
    fn dialect_argument_overrides_an_existing_key() {
        let out =
            with_dialect(r#"{"task":"syntax","dialect":"mysql"}"#, "postgres").expect("overrides");
        let doc: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(doc["dialect"], "postgres");
    }

    #[test]
    fn unknown_names_are_forwarded_not_rejected_locally() {
        // client-side leniency: the server owns the valid list and its 400
        let out = with_dialect(r#"{"task":"syntax"}"#, "oracle").expect("forwards");
        assert!(out.contains(r#""dialect":"oracle""#) || out.contains(r#""dialect": "oracle""#));
    }

    #[test]
    fn malformed_bodies_error_before_the_wire() {
        assert!(with_dialect("not json", "tsql").is_err());
        assert!(with_dialect("[1,2]", "tsql").is_err());
    }
}
