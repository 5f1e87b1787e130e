//! One iteration of one workload in this process; prints one JSON line.
//!
//! ```text
//! perfbench <workload> --seed N --jobs J [--trace] [--small] [--setup-only]
//!           [--started UNIX_SECONDS] [--work-dir DIR] [--trace-out FILE]
//! ```
//!
//! `run.py` spawns this binary once per iteration, so every measured run
//! starts cold: no process-global cache survives from an earlier one.

use serde_json::Value;
use squ_perfbench::{layers, trace, unix_now, Clock, Config};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench <paper|audit|synth|serve> --seed N --jobs J [--trace] [--small] \
         [--setup-only] [--started UNIX_SECONDS] [--work-dir DIR] [--trace-out FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| usage("missing workload"));
    let mut cfg = Config {
        seed: 0,
        jobs: 1,
        small: false,
        setup_only: false,
        work_dir: PathBuf::from(".bench_build/perfbench/work"),
    };
    let mut traced = false;
    let mut started = None;
    let mut trace_out: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--seed" => {
                cfg.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--jobs" => {
                cfg.jobs = value("--jobs")
                    .parse()
                    .ok()
                    .filter(|j| *j > 0)
                    .unwrap_or_else(|| usage("bad --jobs"))
            }
            "--started" => {
                started = Some(
                    value("--started")
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --started")),
                )
            }
            "--work-dir" => cfg.work_dir = PathBuf::from(value("--work-dir")),
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--trace" => traced = true,
            "--small" => cfg.small = true,
            "--setup-only" => cfg.setup_only = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        usage(&format!("cannot create {}: {e}", cfg.work_dir.display()));
    }
    if traced {
        trace::enable();
    }
    let clock = Clock::new(started.unwrap_or_else(unix_now));
    let outcome = match squ_perfbench::run(&workload, &cfg, clock) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut fields = vec![
        ("workload".to_string(), Value::Str(workload.clone())),
        ("seed".to_string(), Value::U64(cfg.seed)),
        ("setup_s".to_string(), Value::F64(outcome.setup_s)),
        ("wall_s".to_string(), Value::F64(outcome.wall_s)),
        ("peak_rss_kb".to_string(), Value::U64(outcome.peak_rss_kb)),
        ("attempted".to_string(), Value::U64(outcome.attempted)),
        ("failed".to_string(), Value::U64(outcome.failed)),
        (
            "failures".to_string(),
            Value::Array(outcome.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("digest".to_string(), Value::Str(outcome.digest.clone())),
        (
            "latencies_ms".to_string(),
            Value::Array(
                outcome
                    .latencies_ms
                    .iter()
                    .map(|l| l.map_or(Value::Null, Value::F64))
                    .collect(),
            ),
        ),
        (
            "facts".to_string(),
            Value::Object(
                outcome
                    .facts
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::F64(*v)))
                    .collect(),
            ),
        ),
    ];
    if traced {
        let t = trace::finish();
        let metrics = layers::metrics(&t, &outcome.layers);
        fields.push((
            "layers".to_string(),
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Value::F64(v)))
                    .collect(),
            ),
        ));
        // the counts that must repeat exactly: every count except times
        // and memory, and how often each span ran
        let mut counts: Vec<(String, Value)> = t
            .counts
            .iter()
            .filter(|(k, _)| !k.starts_with("time.") && !k.ends_with("peak_rss_kb"))
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect();
        counts.extend(
            trace::by_name(&t.spans)
                .into_iter()
                .map(|(name, (_, n))| (format!("spans.{name}"), Value::U64(n))),
        );
        fields.push(("counts".to_string(), Value::Object(counts)));
        // where each replay's time went, layer by layer
        let replays = trace::by_replay(&t.spans)
            .into_iter()
            .filter(|(k, _)| !k.ends_with(" replay.translate.example"))
            .map(|(k, (ns, n))| {
                let entry = vec![
                    ("ms".to_string(), Value::F64(ns as f64 / 1e6)),
                    ("calls".to_string(), Value::U64(n)),
                ];
                (k, Value::Object(entry))
            })
            .collect();
        fields.push(("replays".to_string(), Value::Object(replays)));
        if let Some(path) = trace_out {
            if let Err(e) = write_trace(&path, &t) {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(fields)).expect("result serializes")
    );
}

/// The spans as JSON lines: name, start and end (ns), parent, request.
fn write_trace(path: &std::path::Path, t: &trace::Trace) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &t.spans {
        writeln!(
            f,
            r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{},"request":{}}}"#,
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    f.flush()
}
