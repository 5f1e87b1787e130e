//! Lightweight wall-clock phase timing.
//!
//! Spans and counters accumulate in a [`TimingSession`]: any layer can
//! wrap work in [`TimingSession::time`] (or [`TimingSession::record`] a
//! measured duration), and the owner decides at the end whether to
//! [`TimingSession::drain`] the spans into a human-readable report
//! ([`report`]) and machine-readable JSON ([`to_json`]).
//!
//! The module-level [`record`] / [`time`] / [`count`] /
//! [`count_fields`] / [`drain`] functions delegate to one process-global
//! **default session** — the CLI path, where exactly one run owns the
//! process and drains once at exit. Concurrent owners (the evaluation
//! server, tests running in parallel) must *not* share that default:
//! `drain` is destructive, so one request's drain would steal another's
//! spans. Each owner holds its own `TimingSession` instead and drains
//! only what it recorded.
//!
//! Span names are dotted paths (`suite.task.equiv.sdss`) so reports group
//! naturally when sorted.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One timed phase.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Dotted phase name, e.g. `suite.workload.sdss`.
    pub name: String,
    /// Wall-clock milliseconds.
    pub ms: f64,
}

/// One named integer counter (e.g. engine rows scanned). Unlike spans,
/// counters are deterministic for a given run configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Counter {
    /// Dotted counter name, e.g. `fuzz.engine.rows_scanned`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// A scoped span/counter registry.
///
/// Each concurrent owner — a server request, a test, a background job —
/// holds its own session, so recording and draining never interleave
/// across owners. The CLI path uses the process-global default session
/// through the module-level free functions, which keeps its single-run
/// `timings.json` byte-identical to the pre-session format.
#[derive(Debug, Default)]
pub struct TimingSession {
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, u64>>,
}

impl TimingSession {
    /// An empty session.
    pub fn new() -> TimingSession {
        TimingSession::default()
    }

    /// Record an already-measured duration under `name`.
    pub fn record(&self, name: &str, elapsed: Duration) {
        let mut spans = self.spans.lock().expect("timing registry lock"); // lint:allow: poisoned only if a worker already panicked
        spans.push(Span {
            name: name.to_string(),
            ms: elapsed.as_secs_f64() * 1e3,
        });
    }

    /// Run `f`, recording its wall-clock time under `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Add `value` to the counter named `name` (created at zero on first
    /// use). Counters live in a `BTreeMap`, so accumulation is O(log n)
    /// in the number of distinct counters and draining is already sorted.
    pub fn count(&self, name: &str, value: u64) {
        let mut counters = self.counters.lock().expect("timing counter lock"); // lint:allow: poisoned only if a worker already panicked
        match counters.get_mut(name) {
            Some(v) => *v += value,
            None => {
                counters.insert(name.to_string(), value);
            }
        }
    }

    /// Add each unsigned-integer field of `stats`, a struct that
    /// serializes to a JSON object, as the counter `{prefix}.{field}`.
    /// Other fields are skipped.
    pub fn count_fields(&self, prefix: &str, stats: &impl Serialize) {
        if let Ok(serde_json::Value::Object(fields)) = serde_json::to_value(stats) {
            for (field, value) in fields {
                if let serde_json::Value::U64(v) = value {
                    self.count(&format!("{prefix}.{field}"), v);
                }
            }
        }
    }

    /// Take all recorded counters, sorted by name.
    pub fn drain_counters(&self) -> Vec<Counter> {
        let counters = std::mem::take(&mut *self.counters.lock().expect("timing counter lock")); // lint:allow: poisoned only if a worker already panicked
        counters
            .into_iter()
            .map(|(name, value)| Counter { name, value })
            .collect()
    }

    /// Take all recorded spans, sorted by name (ties keep record order).
    /// Sorting makes the report stable however threads interleaved.
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("timing registry lock")); // lint:allow: poisoned only if a worker already panicked
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        spans
    }
}

/// The process-global default session behind the module-level functions.
/// Exactly one logical run (the CLI) should drain it; concurrent owners
/// create their own [`TimingSession`].
pub fn default_session() -> &'static TimingSession {
    static DEFAULT: OnceLock<TimingSession> = OnceLock::new();
    DEFAULT.get_or_init(TimingSession::new)
}

/// Record an already-measured duration under `name` (default session).
pub fn record(name: &str, elapsed: Duration) {
    default_session().record(name, elapsed);
}

/// Run `f`, recording its wall-clock time under `name` (default session).
pub fn time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    default_session().time(name, f)
}

/// Add `value` to the counter named `name` (default session).
pub fn count(name: &str, value: u64) {
    default_session().count(name, value);
}

/// Add each unsigned-integer field of `stats` as the counter
/// `{prefix}.{field}` (default session).
pub fn count_fields(prefix: &str, stats: &impl Serialize) {
    default_session().count_fields(prefix, stats);
}

/// Take the default session's counters, sorted by name.
pub fn drain_counters() -> Vec<Counter> {
    default_session().drain_counters()
}

/// Take the default session's spans, sorted by name.
pub fn drain() -> Vec<Span> {
    default_session().drain()
}

/// Render spans as an aligned plain-text table.
pub fn report(spans: &[Span]) -> String {
    let width = spans.iter().map(|s| s.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for span in spans {
        out.push_str(&format!(
            "{:<width$}  {:>10.1} ms\n",
            span.name,
            span.ms,
            width = width
        ));
    }
    out
}

/// Render spans, counters, and run metadata as a JSON document:
/// `{"jobs": N, "total_ms": T, "spans": […], "counters": […]}`.
pub fn to_json(spans: &[Span], counters: &[Counter], jobs: usize, total: Duration) -> String {
    let doc = TimingsDoc {
        jobs,
        total_ms: total.as_secs_f64() * 1e3,
        spans: spans.to_vec(),
        counters: counters.to_vec(),
    };
    serde_json::to_string_pretty(&doc).expect("timings serialize") // lint:allow: plain data structs always serialize
}

#[derive(Serialize)]
struct TimingsDoc {
    jobs: usize,
    total_ms: f64,
    spans: Vec<Span>,
    counters: Vec<Counter>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_drains_sorted() {
        time("test.timing.z", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        time("test.timing.a", || ());
        record("test.timing.m", Duration::from_millis(5));
        // other tests share the process-global registry; judge only ours
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.name.starts_with("test.timing."))
            .collect();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["test.timing.a", "test.timing.m", "test.timing.z"]
        );
        assert!(spans[1].ms >= 5.0);
    }

    #[test]
    fn report_and_json_render() {
        let spans = vec![
            Span {
                name: "suite.total".into(),
                ms: 1234.5,
            },
            Span {
                name: "x".into(),
                ms: 0.25,
            },
        ];
        let text = report(&spans);
        assert!(text.contains("suite.total") && text.contains("1234.5 ms"));
        let counters = vec![Counter {
            name: "fuzz.engine.rows_scanned".into(),
            value: 42,
        }];
        let json = to_json(&spans, &counters, 8, Duration::from_millis(1500));
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(doc["jobs"], 8u64);
        assert_eq!(doc["spans"][0]["name"], "suite.total");
        assert!(doc["total_ms"].as_f64().unwrap() >= 1500.0);
        assert_eq!(doc["counters"][0]["name"], "fuzz.engine.rows_scanned");
        assert_eq!(doc["counters"][0]["value"], 42u64);
    }

    #[test]
    fn sessions_are_isolated_from_each_other_and_the_default() {
        let a = TimingSession::new();
        let b = TimingSession::new();
        a.record("session.a", Duration::from_millis(1));
        a.count("session.a.counter", 2);
        b.record("session.b", Duration::from_millis(1));
        time("session.global", || ());
        // draining one session never steals another's spans
        let a_spans = a.drain();
        assert_eq!(a_spans.len(), 1);
        assert_eq!(a_spans[0].name, "session.a");
        assert_eq!(a.drain_counters().len(), 1);
        let b_spans = b.drain();
        assert_eq!(b_spans.len(), 1);
        assert_eq!(b_spans[0].name, "session.b");
        // ... and the default session still holds the global span
        let global: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.name.starts_with("session."))
            .collect();
        assert_eq!(global.len(), 1);
        assert_eq!(global[0].name, "session.global");
        // a drained session is empty, not poisoned
        assert!(a.drain().is_empty());
        assert!(a.drain_counters().is_empty());
    }

    #[test]
    fn count_fields_adds_each_unsigned_field() {
        #[derive(Serialize)]
        struct Stats {
            rows: u64,
            pairs: usize,
            rate: f64,
            delta: i64,
            label: String,
        }
        let session = TimingSession::new();
        let stats = |rows| Stats {
            rows,
            pairs: 4,
            rate: 0.5,
            delta: 2,
            label: "x".into(),
        };
        session.count_fields("t", &stats(3));
        session.count_fields("t", &stats(0));
        let counters: Vec<(String, u64)> = session
            .drain_counters()
            .into_iter()
            .map(|c| (c.name, c.value))
            .collect();
        assert_eq!(
            counters,
            vec![("t.pairs".to_string(), 8), ("t.rows".to_string(), 3)]
        );
    }

    #[test]
    fn concurrent_session_drains_do_not_interleave() {
        // two owners record + drain in parallel; each must get exactly
        // its own spans back — the bug class the global drain had
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|owner| {
                    scope.spawn(move || {
                        let session = TimingSession::new();
                        for i in 0..50 {
                            session.record(&format!("owner{owner}.span{i}"), Duration::ZERO);
                            session.count(&format!("owner{owner}.counter"), 1);
                        }
                        let spans = session.drain();
                        let counters = session.drain_counters();
                        (owner, spans, counters)
                    })
                })
                .collect();
            for h in handles {
                let (owner, spans, counters) = h.join().expect("session thread");
                assert_eq!(spans.len(), 50);
                let prefix = format!("owner{owner}.");
                assert!(spans.iter().all(|s| s.name.starts_with(&prefix)));
                assert_eq!(counters.len(), 1);
                assert_eq!(counters[0].value, 50);
            }
        });
    }

    #[test]
    fn counters_accumulate_and_drain_sorted() {
        count("test.counter.b", 3);
        count("test.counter.a", 1);
        count("test.counter.b", 4);
        let counters: Vec<Counter> = drain_counters()
            .into_iter()
            .filter(|c| c.name.starts_with("test.counter."))
            .collect();
        let pairs: Vec<(&str, u64)> = counters
            .iter()
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        assert_eq!(pairs, vec![("test.counter.a", 1), ("test.counter.b", 7)]);
    }
}
