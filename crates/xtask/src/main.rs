//! Repo-level developer tasks, invoked as `cargo run -p xtask -- <task>`.
//!
//! `lint` — forbid `.unwrap()`, `.expect(` and `panic!` in library code,
//! and per-task `match` dispatch in the core crate.
//!
//! `fuzz-smoke` — run the `squ-fuzz` oracles on a small fixed-seed budget
//! (the CI smoke configuration): builds the `repro` binary in release mode
//! and exits non-zero on any oracle violation, including any compiled
//! engine result — subject query or transform output — that disagrees
//! with the reference interpreter.
//!
//! `sema-smoke` — exercise the `squ-sema` semantic analyzer end to end:
//! `repro --audit` (the static equivalence certifier must convict its
//! non-equivalence floor with zero label contradictions) followed by a
//! seeded fuzz run whose sema oracle cross-checks every analyzer claim
//! against execution. Both reports land in `target/repro/` for CI's
//! artifact upload; any violation exits non-zero.
//!
//! `serve-smoke` — boot the `squ-serve` evaluation server on an ephemeral
//! port over a scratch store and drive it with `servectl`: a cold/warm
//! /eval pair (the warm reply must be a store hit with a byte-identical
//! body), the seeded 50-exchange mixed workload under the heavy
//! wire-fault profile (any 5xx fails), a /statz snapshot written to
//! `target/repro/serve-smoke/statz.json` (any recorded panic fails), a
//! torn-store-entry scan, and a second zero-permit server that must
//! answer a deterministic 429 while /healthz stays reachable.
//!
//! `dialect-smoke` — exercise the multi-dialect frontend end to end:
//! `repro --audit` first (the dialect-translate task's gold translations
//! are differentially verified row-for-row alongside every other
//! family), then a seeded 150-case fuzz run per concrete dialect
//! (sqlite / postgres / mysql / tsql) whose dialect oracle holds every
//! emitted corpus entry to the dialect round-trip law. Each corpus is
//! run twice (`--jobs 2` then `--jobs 1`) and the two reports must be
//! byte-identical; per-dialect reports land in
//! `target/repro/dialect-smoke/` for CI's artifact upload.
//!
//! `synth-smoke` — exercise the streaming synthesis subsystem end to
//! end: a 5 000-query synthesis on 3 shards × 2 jobs whose report must
//! be byte-identical to the 1-shard × 1-job build, an embedded
//! sketch-vs-exact spot check that must pass, and a 4×-larger run whose
//! recorded peak RSS must stay well under 4× the small run's (memory is
//! bounded by the round budget, not by `N`). `synth.json` and the
//! large-run `timings.json` land in `target/repro/synth-smoke/` for
//! CI's artifact upload.
//!
//! The benchmark's library crates must not abort on malformed input: the
//! whole point of the analyzer stack is to turn bad SQL into diagnostics.
//! This pass scans every `crates/*/src` library file (binaries, `main.rs`,
//! and `#[cfg(test)]` modules are exempt) with a comment/string-stripping
//! token matcher — no `syn`, no dependencies — and reports each banned
//! call site. A site that is genuinely infallible can be waived with a
//! `lint:allow` comment on the same line, which doubles as documentation
//! of *why* the panic cannot fire.
//!
//! The second rule guards the task-registry refactor: a `match` in
//! `crates/core/src` whose arms enumerate most of the six task families
//! (syntax / tokens / equivalence / performance / explanation /
//! translation) reintroduces
//! the duplicated per-task drivers the `squ::DynTask` registry replaced. Only
//! `crates/core/src/registry.rs` — the one designated enumeration point —
//! is exempt.
//!
//! The third rule keeps the diagnostic-code documentation in sync: every
//! `SQUxxx` code registered in `crates/lint/src/rules.rs::REGISTRY` must
//! have a row in DESIGN.md's diagnostic-code table, and every code the
//! table documents must exist in the registry. A code added on one side
//! only fails `lint` (and therefore CI).
//!
//! The fourth rule guards the dialect matrix the same way the second
//! guards the task registry: a library file outside `crates/dialect`
//! whose non-test code names most of the concrete `Dialect::` variants
//! (Sqlite / Postgres / Mysql / Tsql) is hand-rolling per-dialect
//! dispatch that belongs in the matrix. Consumers are expected to go
//! through the matrix queries (`supports_top()`, `canonical_quote()`,
//! `translate_function()`, …) or iterate `Dialect::CONCRETE`, never to
//! enumerate variants.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Marker comment that waives a banned call on its line.
const WAIVER: &str = "lint:allow";

/// Patterns banned in library code, matched against comment- and
/// string-stripped text. `Option::expect`/`Result::expect` always take a
/// string-literal message in this codebase, so after stripping they read
/// `.expect()` — which cleanly excludes same-named inherent methods with
/// non-string arguments (e.g. the parser's `self.expect(&TokenKind, …)`).
const BANNED: &[&str] = &[".unwrap()", ".expect()", "panic!"];

/// Marker substrings identifying each task family. A `match` block in the
/// core crate that mentions at least [`TASK_MATCH_THRESHOLD`] distinct
/// families is flagged as per-task dispatch that belongs in the registry.
const TASK_FAMILIES: &[(&str, &[&str])] = &[
    (
        "syntax",
        &[
            "TaskId::Syntax",
            "Task::Syntax",
            "SyntaxTask",
            "run_syntax",
            "\"syntax_error\"",
        ],
    ),
    (
        "tokens",
        &[
            "TaskId::MissToken",
            "Task::MissToken",
            "TokenTask",
            "run_token",
            "\"miss_token\"",
        ],
    ),
    (
        "equiv",
        &[
            "TaskId::Equiv",
            "Task::Equiv",
            "EquivTask",
            "run_equiv",
            "\"query_equiv\"",
        ],
    ),
    (
        "perf",
        &[
            "TaskId::Perf",
            "Task::Perf",
            "PerfTask",
            "run_perf",
            "\"performance_pred\"",
        ],
    ),
    (
        "explain",
        &[
            "TaskId::Explain",
            "Task::Explain",
            "ExplainTask",
            "run_explain",
            "\"query_exp\"",
        ],
    ),
    (
        "translate",
        &[
            "TaskId::Translate",
            "Task::Translate",
            "TranslateTask",
            "run_translate",
            "\"dialect_translate\"",
        ],
    ),
];

/// Concrete dialect variants whose joint appearance in one non-test
/// library file outside `crates/dialect` marks hand-rolled per-dialect
/// dispatch that belongs in the dialect matrix.
const DIALECT_VARIANTS: &[&str] = &[
    "Dialect::Sqlite",
    "Dialect::Postgres",
    "Dialect::Mysql",
    "Dialect::Tsql",
];

/// Distinct concrete `Dialect::` variants one file may name before it
/// counts as per-dialect dispatch (near-complete coverage of the four
/// concrete dialects, mirroring [`TASK_MATCH_THRESHOLD`]'s logic).
const DIALECT_DISPATCH_THRESHOLD: usize = 3;

/// Distinct task families one `match` may mention before it counts as a
/// banned five-armed per-task dispatch (arms plus a catch-all `_` arm is
/// how the pre-registry drivers spelled it, so near-complete coverage is
/// already a violation).
const TASK_MATCH_THRESHOLD: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = repo_root();
            let mut findings = lint_repo(&root);
            findings.extend(doc_sync(&root));
            if findings.is_empty() {
                println!("xtask lint: clean");
            } else {
                for f in &findings {
                    println!("{f}");
                }
                eprintln!(
                    "xtask lint: {} banned call site(s); add a `// {WAIVER}: why` \
                     comment only when the panic is provably unreachable",
                    findings.len()
                );
                std::process::exit(1);
            }
        }
        Some("fuzz-smoke") => {
            let status = fuzz_smoke(&repo_root());
            std::process::exit(status);
        }
        Some("sema-smoke") => {
            let status = sema_smoke(&repo_root());
            std::process::exit(status);
        }
        Some("serve-smoke") => {
            let status = serve_smoke(&repo_root());
            std::process::exit(status);
        }
        Some("dialect-smoke") => {
            let status = dialect_smoke(&repo_root());
            std::process::exit(status);
        }
        Some("synth-smoke") => {
            let status = synth_smoke(&repo_root());
            std::process::exit(status);
        }
        Some(other) => {
            eprintln!(
                "unknown task {other:?} (available: lint, fuzz-smoke, sema-smoke, serve-smoke, \
                 dialect-smoke, synth-smoke)"
            );
            std::process::exit(2);
        }
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- \
                 <lint|fuzz-smoke|sema-smoke|serve-smoke|dialect-smoke|synth-smoke>"
            );
            std::process::exit(2);
        }
    }
}

/// Fixed-seed, fixed-budget fuzz run for CI: small enough to finish well
/// inside a minute, deterministic so a red run is immediately
/// reproducible with the same command line.
const FUZZ_SMOKE_CASES: &str = "150";
/// Seed for the smoke run (matches the documented acceptance seed).
const FUZZ_SMOKE_SEED: &str = "7";

/// Run `repro --fuzz` with the smoke budget; returns the exit code.
fn fuzz_smoke(root: &Path) -> i32 {
    run_repro_fuzz(root, "fuzz-smoke", FUZZ_SMOKE_CASES, &[])
}

/// Fuzz-case budget for the sema smoke: every case runs the sema oracle
/// (emptiness / redundancy / bound claims re-checked by execution,
/// certificates checked against the metamorphic verdict).
const SEMA_SMOKE_CASES: &str = "200";

/// Exercise the semantic analyzer end to end: the audit's static
/// certifier first (`repro --audit` exits non-zero on any label
/// contradiction), then a seeded fuzz run with the sema oracle active.
fn sema_smoke(root: &Path) -> i32 {
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-p",
            "squ-bench",
            "--bin",
            "repro",
            "--",
            "--audit",
        ])
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => return s.code().unwrap_or(1), // lint:allow: cli tool
        Err(e) => {
            eprintln!("sema-smoke: failed to launch cargo: {e}");
            return 1;
        }
    }
    run_repro_fuzz(root, "sema-smoke", SEMA_SMOKE_CASES, &["--timings"])
}

/// Soak budget for the serve smoke: enough exchanges to cycle every
/// load coordinate several times and draw every wire-fault kind from the
/// heavy profile, small enough to finish in seconds against a warm store.
const SERVE_SMOKE_LOAD: &str = "50";
/// Wire-fault profile injected during the soak.
const SERVE_SMOKE_PROFILE: &str = "heavy";
/// Seed for the soak's deterministic fault schedule (the paper seed, so a
/// red run is reproducible with `servectl ADDR load 50 heavy 2023`).
const SERVE_SMOKE_SEED: &str = "2023";

/// The /eval request the cold/warm byte-equality diff replays. Matches
/// one coordinate of the `servectl load` cycle so the soak also replays
/// it as a store hit.
const SERVE_SMOKE_EVAL: &str =
    r#"{"task":"syntax","workload":"joinorder","model":"GPT4","profile":"none","seed":5}"#;

/// End-to-end smoke of the evaluation server over a real socket:
///
/// 1. boot `repro --serve 127.0.0.1:0` on a scratch store and parse the
///    bound address off its stdout;
/// 2. replay one /eval cold then warm — the warm reply must be a store
///    hit with a byte-identical body;
/// 3. drive the seeded 50-exchange mixed workload through the heavy
///    wire-fault profile (`servectl load`, which exits non-zero on any
///    5xx);
/// 4. snapshot /statz to `target/repro/serve-smoke/statz.json` and fail
///    on any recorded panic, then scan the store for torn entries
///    (leftover `.tmp` files from interrupted atomic writes);
/// 5. boot a second server with `--serve-inflight 0` and require the
///    deterministic 429 + Retry-After rejection.
fn serve_smoke(root: &Path) -> i32 {
    // build the server and client binaries once up front so the spawns
    // below run fixed artifacts instead of racing `cargo run` locks
    let build = std::process::Command::new(env!("CARGO"))
        .current_dir(root)
        .args(["build", "--release", "-p", "squ-bench", "--bins"])
        .status();
    match build {
        Ok(s) if s.success() => {}
        Ok(s) => return s.code().unwrap_or(1), // lint:allow: cli tool
        Err(e) => {
            eprintln!("serve-smoke: failed to launch cargo: {e}");
            return 1;
        }
    }

    let out_dir = root.join("target").join("repro").join("serve-smoke");
    let store = out_dir.join("store");
    let _ = std::fs::remove_dir_all(&out_dir);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("serve-smoke: cannot create {}: {e}", out_dir.display());
        return 1;
    }

    let mut server = match spawn_server(root, &store, &[]) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("serve-smoke: {msg}");
            return 1;
        }
    };
    let verdict = drive_serve_smoke(root, &server.addr, &out_dir, &store);
    server.shutdown();
    if let Err(msg) = verdict {
        eprintln!("serve-smoke: {msg}");
        return 1;
    }

    // saturation: a server with zero in-flight permits must turn every
    // evaluation away with a deterministic 429, never an error or a hang
    let sat_store = out_dir.join("sat-store");
    let mut server = match spawn_server(root, &sat_store, &["--serve-inflight", "0"]) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("serve-smoke: {msg}");
            return 1;
        }
    };
    let verdict = expect_saturated_429(root, &server.addr);
    server.shutdown();
    match verdict {
        Ok(()) => {
            println!("serve-smoke: ok");
            0
        }
        Err(msg) => {
            eprintln!("serve-smoke: {msg}");
            1
        }
    }
}

/// A spawned `repro --serve` child plus the address it bound.
struct ServeChild {
    child: std::process::Child,
    addr: String,
}

impl ServeChild {
    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boot `repro --serve 127.0.0.1:0 --serve-store <store> [extra…]` and
/// parse the `serving on ADDR` banner off its stdout.
fn spawn_server(root: &Path, store: &Path, extra: &[&str]) -> Result<ServeChild, String> {
    use std::io::BufRead;
    let repro = root.join("target").join("release").join("repro");
    let mut child = std::process::Command::new(&repro)
        .current_dir(root)
        .args(["--serve", "127.0.0.1:0", "--serve-store"])
        .arg(store)
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", repro.display()))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| "server child has no stdout".to_string())?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.map_err(|e| format!("reading server stdout: {e}"))?;
        if let Some(addr) = line.strip_prefix("serving on ") {
            return Ok(ServeChild {
                child,
                addr: addr.trim().to_string(),
            });
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    Err("server exited before printing its bound address".to_string())
}

/// Run one `servectl` subcommand, capturing stdout (stderr is inherited
/// so failures surface in the CI log). Returns `(exit_code, stdout)`.
fn run_servectl(root: &Path, addr: &str, args: &[&str]) -> Result<(i32, String), String> {
    let ctl = root.join("target").join("release").join("servectl");
    let out = std::process::Command::new(&ctl)
        .current_dir(root)
        .arg(addr)
        .args(args)
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", ctl.display()))?;
    let code = out.status.code().unwrap_or(1); // lint:allow: cli tool
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    Ok((code, stdout))
}

/// Steps 2–4 of the smoke against the primary server.
fn drive_serve_smoke(root: &Path, addr: &str, out_dir: &Path, store: &Path) -> Result<(), String> {
    let (code, _) = run_servectl(root, addr, &["health"])?;
    if code != 0 {
        return Err(format!("healthz failed with exit code {code}"));
    }

    // cold, then warm: the second reply must come out of the store with a
    // byte-identical body
    let (code, cold) = run_servectl(root, addr, &["eval", SERVE_SMOKE_EVAL])?;
    if code != 0 || !cold.starts_with("HTTP 200 cache=miss") {
        return Err(format!("cold eval: exit {code}, output:\n{cold}"));
    }
    let (code, warm) = run_servectl(root, addr, &["eval", SERVE_SMOKE_EVAL])?;
    if code != 0 || !warm.starts_with("HTTP 200 cache=hit") {
        return Err(format!(
            "warm eval was not a store hit: exit {code}, output:\n{warm}"
        ));
    }
    let body = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
    if body(&cold) != body(&warm) {
        return Err(format!(
            "warm body differs from cold body\ncold:\n{cold}\nwarm:\n{warm}"
        ));
    }
    println!("serve-smoke: cold/warm /eval bodies byte-identical (miss → hit)");

    // seeded mixed workload under wire faults; servectl exits non-zero
    // if the server ever answers 5xx
    let (code, load) = run_servectl(
        root,
        addr,
        &[
            "load",
            SERVE_SMOKE_LOAD,
            SERVE_SMOKE_PROFILE,
            SERVE_SMOKE_SEED,
        ],
    )?;
    print!("{load}");
    if code != 0 {
        return Err(format!("fault-injected load failed with exit code {code}"));
    }

    // statz snapshot is the CI artifact; a panicking handler fails the run
    let (code, statz) = run_servectl(root, addr, &["statz"])?;
    if code != 0 {
        return Err(format!("statz failed with exit code {code}"));
    }
    let snapshot = out_dir.join("statz.json");
    std::fs::write(&snapshot, &statz)
        .map_err(|e| format!("writing {}: {e}", snapshot.display()))?;
    println!("serve-smoke: /statz snapshot at {}", snapshot.display());
    if !statz.contains("\"panics\": 0") {
        return Err(format!("statz reports handler panics:\n{statz}"));
    }

    // a torn store entry would strand a `.tmp` file next to the target
    let torn = torn_entries(store)?;
    if !torn.is_empty() {
        return Err(format!("torn store entries after soak: {torn:?}"));
    }
    Ok(())
}

/// Recursively list leftover atomic-write tempfiles under `dir`.
fn torn_entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut torn = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("reading {}: {e}", d.display()))?;
        for entry in entries {
            let path = entry
                .map_err(|e| format!("reading {}: {e}", d.display()))?
                .path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "tmp") {
                torn.push(path);
            }
        }
    }
    Ok(torn)
}

/// Against a zero-permit server, /eval must be a deterministic 429 while
/// /healthz stays reachable.
fn expect_saturated_429(root: &Path, addr: &str) -> Result<(), String> {
    let (code, out) = run_servectl(root, addr, &["eval", SERVE_SMOKE_EVAL])?;
    if code != 1 || !out.starts_with("HTTP 429") {
        return Err(format!(
            "saturated server should answer 429 (servectl exit 1), got exit {code}:\n{out}"
        ));
    }
    let (code, _) = run_servectl(root, addr, &["health"])?;
    if code != 0 {
        return Err("healthz must stay reachable on a saturated server".to_string());
    }
    println!("serve-smoke: saturated server rejects /eval with 429, /healthz still up");
    Ok(())
}

/// Case budget per concrete dialect for the dialect smoke: the same
/// budget as `fuzz-smoke`, run once per corpus.
const DIALECT_SMOKE_CASES: &str = "150";

/// The concrete corpora the dialect smoke fuzzes (canonical names as
/// `repro --dialect` accepts them).
const DIALECT_SMOKE_DIALECTS: &[&str] = &["sqlite", "postgres", "mysql", "tsql"];

/// End-to-end smoke of the multi-dialect frontend:
///
/// 1. build the `repro` binary once in release mode;
/// 2. `repro --audit` — the dialect-translate task's gold translations
///    are differentially verified row-for-row against cached witness
///    databases (alongside every other family's certificates);
/// 3. per concrete dialect, a seeded 150-case fuzz run whose dialect
///    oracle holds every corpus entry to the round-trip law, executed
///    with `--jobs 2` and again with `--jobs 1` — the two reports must
///    be byte-identical, and each lands in `target/repro/dialect-smoke/`
///    for CI's artifact upload.
fn dialect_smoke(root: &Path) -> i32 {
    let build = std::process::Command::new(env!("CARGO"))
        .current_dir(root)
        .args(["build", "--release", "-p", "squ-bench", "--bins"])
        .status();
    match build {
        Ok(s) if s.success() => {}
        Ok(s) => return s.code().unwrap_or(1), // lint:allow: cli tool
        Err(e) => {
            eprintln!("dialect-smoke: failed to launch cargo: {e}");
            return 1;
        }
    }

    let repro = root.join("target").join("release").join("repro");
    let audit = std::process::Command::new(&repro)
        .current_dir(root)
        .arg("--audit")
        .status();
    match audit {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("dialect-smoke: audit failed");
            return s.code().unwrap_or(1); // lint:allow: cli tool
        }
        Err(e) => {
            eprintln!("dialect-smoke: cannot spawn {}: {e}", repro.display());
            return 1;
        }
    }

    let out_dir = root.join("target").join("repro").join("dialect-smoke");
    let _ = std::fs::remove_dir_all(&out_dir);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("dialect-smoke: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let report_path = root.join("target").join("repro").join("fuzz.json");

    for dialect in DIALECT_SMOKE_DIALECTS {
        let mut first: Option<String> = None;
        for jobs in ["2", "1"] {
            let status = std::process::Command::new(&repro)
                .current_dir(root)
                .args([
                    "--fuzz",
                    DIALECT_SMOKE_CASES,
                    "--fuzz-seed",
                    FUZZ_SMOKE_SEED,
                    "--dialect",
                    dialect,
                    "--jobs",
                    jobs,
                ])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("dialect-smoke: {dialect} corpus failed (--jobs {jobs})");
                    return s.code().unwrap_or(1); // lint:allow: cli tool
                }
                Err(e) => {
                    eprintln!("dialect-smoke: cannot spawn {}: {e}", repro.display());
                    return 1;
                }
            }
            let report = match std::fs::read_to_string(&report_path) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("dialect-smoke: reading {}: {e}", report_path.display());
                    return 1;
                }
            };
            match &first {
                None => {
                    let saved = out_dir.join(format!("fuzz-{dialect}.json"));
                    if let Err(e) = std::fs::write(&saved, &report) {
                        eprintln!("dialect-smoke: writing {}: {e}", saved.display());
                        return 1;
                    }
                    first = Some(report);
                }
                Some(baseline) if *baseline == report => {}
                Some(_) => {
                    eprintln!(
                        "dialect-smoke: {dialect} report differs between --jobs 2 and --jobs 1"
                    );
                    return 1;
                }
            }
        }
        println!("dialect-smoke: {dialect} corpus clean, byte-identical across --jobs");
    }
    println!(
        "dialect-smoke: ok ({} dialects × {DIALECT_SMOKE_CASES} cases, reports in {})",
        DIALECT_SMOKE_DIALECTS.len(),
        out_dir.display()
    );
    0
}

/// Small-run query budget for the synth smoke.
const SYNTH_SMOKE_SMALL: &str = "5000";
/// Large-run query budget (4× the small run) for the peak-RSS guard.
const SYNTH_SMOKE_LARGE: &str = "20000";

/// End-to-end smoke of the streaming synthesis subsystem:
///
/// 1. build the `repro` binary once in release mode;
/// 2. `repro --synth 5000 --shards 3 --jobs 2 --timings` — the report
///    must embed a passing sketch-vs-exact spot check (small runs retain
///    exact values precisely so CI can hold the sketch to its documented
///    error bound);
/// 3. the same synthesis on 1 shard × 1 job — `synth.json` must be
///    byte-identical (sharding and parallelism are pure optimizations);
/// 4. `repro --synth 20000` (4× the queries, same shards/jobs) — its
///    recorded peak RSS must stay under 3× the small run's, catching any
///    accidental `O(N)` materialization in the streaming path.
///
/// The small-run `synth.json` and large-run `timings.json` land in
/// `target/repro/synth-smoke/` for CI's artifact upload.
fn synth_smoke(root: &Path) -> i32 {
    let build = std::process::Command::new(env!("CARGO"))
        .current_dir(root)
        .args(["build", "--release", "-p", "squ-bench", "--bins"])
        .status();
    match build {
        Ok(s) if s.success() => {}
        Ok(s) => return s.code().unwrap_or(1), // lint:allow: cli tool
        Err(e) => {
            eprintln!("synth-smoke: failed to launch cargo: {e}");
            return 1;
        }
    }

    let out_dir = root.join("target").join("repro").join("synth-smoke");
    let _ = std::fs::remove_dir_all(&out_dir);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("synth-smoke: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let repro = root.join("target").join("release").join("repro");
    let report_path = root.join("target").join("repro").join("synth.json");
    let timings_path = root.join("target").join("repro").join("timings.json");

    let run = |n: &str, shards: &str, jobs: &str| -> i32 {
        let status = std::process::Command::new(&repro)
            .current_dir(root)
            .args([
                "--synth",
                n,
                "--shards",
                shards,
                "--jobs",
                jobs,
                "--timings",
            ])
            .status();
        match status {
            Ok(s) if s.success() => 0,
            Ok(s) => {
                eprintln!("synth-smoke: --synth {n} --shards {shards} --jobs {jobs} failed");
                s.code().unwrap_or(1) // lint:allow: cli tool
            }
            Err(e) => {
                eprintln!("synth-smoke: cannot spawn {}: {e}", repro.display());
                1
            }
        }
    };

    // 1) sharded small run: sketch check must be present and passing
    let code = run(SYNTH_SMOKE_SMALL, "3", "2");
    if code != 0 {
        return code;
    }
    let sharded = match std::fs::read_to_string(&report_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("synth-smoke: reading {}: {e}", report_path.display());
            return 1;
        }
    };
    if !sharded.contains("\"sketch_check\"") || !sharded.contains("\"pass\": true") {
        eprintln!("synth-smoke: report lacks a passing sketch-vs-exact spot check");
        return 1;
    }
    if let Err(e) = std::fs::write(out_dir.join("synth.json"), &sharded) {
        eprintln!("synth-smoke: writing artifact: {e}");
        return 1;
    }
    let small_rss = read_counter(&timings_path, "synth.peak_rss_kb");
    println!("synth-smoke: {SYNTH_SMOKE_SMALL}-query sharded run clean (sketch check passed)");

    // 2) unsharded, sequential run: must be byte-identical
    let code = run(SYNTH_SMOKE_SMALL, "1", "1");
    if code != 0 {
        return code;
    }
    match std::fs::read_to_string(&report_path) {
        Ok(unsharded) if unsharded == sharded => {
            println!("synth-smoke: report byte-identical across shard and job counts");
        }
        Ok(_) => {
            eprintln!("synth-smoke: report differs between 3 shards × 2 jobs and 1 shard × 1 job");
            return 1;
        }
        Err(e) => {
            eprintln!("synth-smoke: reading {}: {e}", report_path.display());
            return 1;
        }
    }

    // 3) 4×-larger run: peak RSS must stay flat (round-budget bounded)
    let code = run(SYNTH_SMOKE_LARGE, "3", "2");
    if code != 0 {
        return code;
    }
    let large_rss = read_counter(&timings_path, "synth.peak_rss_kb");
    if let Ok(t) = std::fs::read_to_string(&timings_path) {
        let _ = std::fs::write(out_dir.join("timings-large.json"), t);
    }
    match (small_rss, large_rss) {
        (Some(small), Some(large)) if small > 0 && large > 0 => {
            if large > small * 3 {
                eprintln!(
                    "synth-smoke: peak RSS grew {small} kB -> {large} kB over a 4x run \
                     (streaming must keep memory independent of N)"
                );
                return 1;
            }
            println!(
                "synth-smoke: peak RSS flat over a 4x run ({small} kB -> {large} kB, bound 3x)"
            );
        }
        _ => println!("synth-smoke: peak RSS unavailable on this platform, guard skipped"),
    }

    println!("synth-smoke: ok (artifacts in {})", out_dir.display());
    0
}

/// Extract the integer `value` of one named counter from `timings.json`
/// without a JSON parser: finds `"name": "<counter>"` and reads the
/// number after the following `"value":`.
fn read_counter(timings: &Path, counter: &str) -> Option<u64> {
    let text = std::fs::read_to_string(timings).ok()?;
    let at = text.find(&format!("\"{counter}\""))?;
    let rest = &text[at..];
    let val = rest.find("\"value\":")?;
    let digits: String = rest[val + 8..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Launch `repro --fuzz <cases> --fuzz-seed 7 [extra…]`; returns the exit
/// code.
fn run_repro_fuzz(root: &Path, label: &str, cases: &str, extra: &[&str]) -> i32 {
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-p",
            "squ-bench",
            "--bin",
            "repro",
            "--",
            "--fuzz",
            cases,
            "--fuzz-seed",
            FUZZ_SMOKE_SEED,
        ])
        .args(extra)
        .status();
    match status {
        Ok(s) => s.code().unwrap_or(1), // lint:allow: cli tool
        Err(e) => {
            eprintln!("{label}: failed to launch cargo: {e}");
            1
        }
    }
}

/// The workspace root: two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives at <root>/crates/xtask") // lint:allow: layout is fixed by the workspace
        .to_path_buf()
}

/// Lint every library source file under `crates/*/src`; returns one
/// rendered finding per banned call site.
fn lint_repo(root: &Path) -> Vec<String> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir).expect("read crates/"); // lint:allow: cli tool
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "xtask"))
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_library_sources(&dir.join("src"), &mut files);
    }
    files.sort();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read source file"); // lint:allow: cli tool
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        for (line_no, pattern, line) in scan_source(&text) {
            let mut f = String::new();
            let _ = write!(f, "{rel}:{line_no}: banned `{pattern}` — {}", line.trim());
            findings.push(f);
        }
        // per-task dispatch belongs in the registry module, nowhere else
        // in the core crate
        if rel.starts_with("crates/core/src") && !rel.ends_with("registry.rs") {
            for (line_no, families) in scan_task_matches(&text) {
                let mut f = String::new();
                let _ = write!(
                    f,
                    "{rel}:{line_no}: per-task `match` spanning {} task families ({}) — \
                     iterate the registry (crates/core/src/registry.rs) instead",
                    families.len(),
                    families.join(", ")
                );
                findings.push(f);
            }
        }
        // per-dialect dispatch belongs in the dialect matrix, nowhere else
        if !rel.starts_with("crates/dialect/src") {
            if let Some((line_no, variants)) = scan_dialect_dispatch(&text) {
                let mut f = String::new();
                let _ = write!(
                    f,
                    "{rel}:{line_no}: per-dialect dispatch naming {} concrete `Dialect::` \
                     variants ({}) — extend the dialect matrix (crates/dialect) instead",
                    variants.len(),
                    variants.join(", ")
                );
                findings.push(f);
            }
        }
    }
    findings
}

/// Diagnostic-code documentation sync: the `SQUxxx` codes registered in
/// `crates/lint/src/rules.rs::REGISTRY` and the rows of DESIGN.md's
/// diagnostic-code table must list exactly the same codes, in both
/// directions. Returns one rendered finding per out-of-sync code.
fn doc_sync(root: &Path) -> Vec<String> {
    let rules_path = root.join("crates/lint/src/rules.rs");
    let design_path = root.join("DESIGN.md");
    let rules = std::fs::read_to_string(&rules_path).expect("read rules.rs"); // lint:allow: cli tool
    let design = std::fs::read_to_string(&design_path).expect("read DESIGN.md"); // lint:allow: cli tool
    let registry = registry_codes(&rules);
    let documented = design_codes(&design);
    let mut findings = Vec::new();
    for code in &registry {
        if !documented.contains(code) {
            findings.push(format!(
                "DESIGN.md: code `{code}` is in crates/lint/src/rules.rs::REGISTRY \
                 but missing from the diagnostic-code table"
            ));
        }
    }
    for code in &documented {
        if !registry.contains(code) {
            findings.push(format!(
                "DESIGN.md: code `{code}` is documented in the diagnostic-code table \
                 but not registered in crates/lint/src/rules.rs::REGISTRY"
            ));
        }
    }
    findings
}

/// Extract the `SQUxxx` codes of every `RuleInfo` in the registry source:
/// `code: "SQUxxx"` fields between the `REGISTRY` declaration and its
/// closing `];`.
fn registry_codes(rules_src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_registry = false;
    for line in rules_src.lines() {
        if line.contains("REGISTRY") && line.contains("&[RuleInfo]") {
            in_registry = true;
            continue;
        }
        if !in_registry {
            continue;
        }
        if line.trim_start().starts_with("];") {
            break;
        }
        if let Some(rest) = line.trim_start().strip_prefix("code: \"") {
            if let Some(code) = rest.split('"').next() {
                out.push(code.to_string());
            }
        }
    }
    out
}

/// Extract the codes documented in DESIGN.md's diagnostic-code table:
/// rows of the form `` | `SQUxxx` | … `` anywhere in the document.
fn design_codes(design_src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in design_src.lines() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("| `SQU") {
            if let Some(digits) = rest.split('`').next() {
                out.push(format!("SQU{digits}"));
            }
        }
    }
    out
}

/// Scan one core-crate source text for `match` blocks whose raw text
/// mentions at least [`TASK_MATCH_THRESHOLD`] distinct task families.
/// Yields `(1-based line of the match, family names)` per violation.
/// A `lint:allow` comment on the `match` line waives it.
fn scan_task_matches(text: &str) -> Vec<(usize, Vec<&'static str>)> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    // (start line, brace depth, waived, per-family seen flags)
    let mut block: Option<(usize, i64, bool, [bool; 6])> = None;
    for (idx, raw) in text.lines().enumerate() {
        let code = strip_noncode(raw, &mut in_block_comment);
        if let Some((start, depth, waived, seen)) = &mut block {
            if !code.trim().is_empty() {
                mark_families(raw, seen);
            }
            *depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if *depth <= 0 {
                let families: Vec<&'static str> = TASK_FAMILIES
                    .iter()
                    .zip(seen.iter())
                    .filter(|(_, hit)| **hit)
                    .map(|((name, _), _)| *name)
                    .collect();
                if families.len() >= TASK_MATCH_THRESHOLD && !*waived {
                    out.push((*start, families));
                }
                block = None;
            }
            continue;
        }
        if let Some(at) = find_match_keyword(&code) {
            let after = &code[at..];
            let opens = after.matches('{').count() as i64;
            let closes = after.matches('}').count() as i64;
            let mut seen = [false; 6];
            if !code.trim().is_empty() {
                mark_families(raw, &mut seen);
            }
            if opens > closes {
                block = Some((idx + 1, opens - closes, raw.contains(WAIVER), seen));
            }
        }
    }
    out
}

/// Set the seen-flag of every task family whose marker appears in `line`.
fn mark_families(line: &str, seen: &mut [bool; 6]) {
    for (i, (_, markers)) in TASK_FAMILIES.iter().enumerate() {
        if markers.iter().any(|m| line.contains(m)) {
            seen[i] = true;
        }
    }
}

/// Byte offset of a `match` keyword in comment/string-stripped code, if
/// present as a standalone token.
fn find_match_keyword(code: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find("match") {
        let at = from + rel;
        let before_ok = at == 0
            || !code.as_bytes()[at - 1].is_ascii_alphanumeric()
                && code.as_bytes()[at - 1] != b'_'
                && code.as_bytes()[at - 1] != b'.';
        let after = code.as_bytes().get(at + 5);
        let after_ok = !after.is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 5;
    }
    None
}

/// Recursively collect `.rs` files under `src`, skipping `bin/` trees and
/// `main.rs` (binaries may abort; libraries must not).
fn collect_library_sources(src: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(src) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_library_sources(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs")
            && p.file_name().is_some_and(|n| n != "main.rs")
        {
            out.push(p);
        }
    }
}

/// Comment/string-stripped code lines of one source text with
/// `#[cfg(test)]` regions removed: `(1-based line, stripped code, raw
/// line)` per surviving line.
fn library_code_lines(text: &str) -> Vec<(usize, String, &str)> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    // Depth of the `#[cfg(test)]`-gated item we are inside, if any:
    // `None` outside, `Some(depth)` counts unclosed braces of the region.
    let mut test_region: Option<i64> = None;
    let mut pending_cfg_test = false;
    for (idx, raw) in text.lines().enumerate() {
        let code = strip_noncode(raw, &mut in_block_comment);
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        if let Some(depth) = &mut test_region {
            *depth += opens - closes;
            if *depth <= 0 {
                test_region = None;
            }
            continue;
        }
        if code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            // the attribute's item starts here; its region lasts until the
            // braces it opens are closed again
            if opens > closes {
                test_region = Some(opens - closes);
            } else if !code.trim().is_empty() && opens == 0 {
                // single-line gated item (e.g. `mod tests;`)
                pending_cfg_test = false;
            }
            if test_region.is_some() {
                pending_cfg_test = false;
            }
            continue;
        }
        out.push((idx + 1, code, raw));
    }
    out
}

/// Scan one source text; yields `(1-based line, pattern, line text)` for
/// every banned call outside comments, strings, and `#[cfg(test)]` regions.
fn scan_source(text: &str) -> Vec<(usize, &'static str, String)> {
    let mut out = Vec::new();
    for (line_no, code, raw) in library_code_lines(text) {
        if raw.contains(WAIVER) {
            continue;
        }
        for pattern in BANNED {
            if code.contains(pattern) {
                out.push((line_no, *pattern, raw.to_string()));
            }
        }
    }
    out
}

/// Scan one non-dialect library source for per-dialect dispatch: when at
/// least [`DIALECT_DISPATCH_THRESHOLD`] distinct concrete `Dialect::`
/// variants appear in its non-test code, returns the first offending line
/// and the variants seen. A `lint:allow` comment exempts its line.
fn scan_dialect_dispatch(text: &str) -> Option<(usize, Vec<&'static str>)> {
    let mut seen: Vec<(&'static str, usize)> = Vec::new();
    for (line_no, code, raw) in library_code_lines(text) {
        if raw.contains(WAIVER) {
            continue;
        }
        for v in DIALECT_VARIANTS {
            if code.contains(v) && !seen.iter().any(|(s, _)| s == v) {
                seen.push((v, line_no));
            }
        }
    }
    (seen.len() >= DIALECT_DISPATCH_THRESHOLD).then(|| {
        let first = seen.iter().map(|(_, l)| *l).min().unwrap_or(1);
        (first, seen.iter().map(|(v, _)| *v).collect())
    })
}

/// Remove comments and string/char-literal contents from one line,
/// carrying block-comment state across lines. The goal is token-accurate
/// matching of the banned patterns, not full Rust lexing: string contents
/// are blanked so `"panic!"` in a message never matches.
fn strip_noncode(line: &str, in_block_comment: &mut bool) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if *in_block_comment {
            if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => break, // line comment
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                *in_block_comment = true;
                i += 2;
            }
            b'r' if bytes.get(i + 1) == Some(&b'"') || bytes.get(i + 1) == Some(&b'#') => {
                // raw string: r"…" or r#"…"# (single hash level is enough
                // for this codebase)
                let hashes = if bytes.get(i + 1) == Some(&b'#') {
                    1
                } else {
                    0
                };
                let open = i + 1 + hashes;
                if bytes.get(open) == Some(&b'"') {
                    let close: &[u8] = if hashes == 1 { b"\"#" } else { b"\"" };
                    let rest = &bytes[open + 1..];
                    let end = rest
                        .windows(close.len())
                        .position(|w| w == close)
                        .map(|p| open + 1 + p + close.len())
                        .unwrap_or(bytes.len());
                    i = end;
                } else {
                    out.push('r');
                    i += 1;
                }
            }
            b'"' => {
                // ordinary string with escapes
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'\'' => {
                // char literal `'x'` / `'\n'`; anything else (lifetime)
                // passes through
                let is_char = match bytes.get(i + 1) {
                    Some(b'\\') => true,
                    Some(_) => bytes.get(i + 2) == Some(&b'\''),
                    None => false,
                };
                if is_char {
                    i += if bytes[i + 1] == b'\\' { 4 } else { 3 };
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> Vec<(usize, &'static str)> {
        scan_source(text)
            .into_iter()
            .map(|(l, p, _)| (l, p))
            .collect()
    }

    #[test]
    fn flags_banned_calls() {
        let found =
            scan("fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!(\"no\");\n}\n");
        assert_eq!(
            found,
            vec![(2, ".unwrap()"), (3, ".expect()"), (4, "panic!")]
        );
    }

    #[test]
    fn error_returning_expect_methods_are_not_flagged() {
        // an inherent `expect` taking a non-string argument is the
        // parser's fallible helper, not Option::expect
        let text = "fn f() { self.expect(&TokenKind::LParen, \"msg\")?; }\n";
        assert!(scan(text).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_match() {
        let text = "fn f() {\n    // x.unwrap() in a comment\n    let s = \"panic! .unwrap()\";\n    /* .expect( */\n}\n";
        assert!(scan(text).is_empty());
    }

    #[test]
    fn block_comment_state_spans_lines() {
        let text = "/*\n x.unwrap()\n*/\nfn g() { h.unwrap(); }\n";
        assert_eq!(scan(text), vec![(4, ".unwrap()")]);
    }

    #[test]
    fn waiver_comment_exempts_the_line() {
        let text =
            "fn f() {\n    x.unwrap(); // lint:allow: index checked above\n    y.unwrap();\n}\n";
        assert_eq!(scan(text), vec![(3, ".unwrap()")]);
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn after() { y.unwrap(); }\n";
        assert_eq!(scan(text), vec![(7, ".unwrap()")]);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let text = "fn f() { let s = r\"panic!\"; let t = r#\".unwrap()\"#; }\n";
        assert!(scan(text).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_survive() {
        let text = "fn f<'a>(c: char) -> bool { c == '\"' }\nfn g() { x.unwrap(); }\n";
        assert_eq!(scan(text), vec![(2, ".unwrap()")]);
    }

    #[test]
    fn five_armed_task_match_is_flagged() {
        let text = "fn dispatch(id: TaskId) {\n    match id {\n        TaskId::Syntax => run_syntax(),\n        TaskId::MissToken => run_token(),\n        TaskId::Equiv => run_equiv(),\n        TaskId::Perf => run_perf(),\n        TaskId::Explain => run_explain(),\n    }\n}\n";
        let found = scan_task_matches(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 2);
        assert_eq!(found[0].1.len(), 5);
    }

    #[test]
    fn four_armed_match_with_catch_all_is_flagged() {
        // how the pre-registry fault driver spelled it: string slugs plus
        // a `_` arm standing in for the fifth family
        let text = "fn go(task: &str) {\n    match task {\n        \"syntax_error\" => a(),\n        \"miss_token\" => b(),\n        \"query_equiv\" => c(),\n        _ => run_perf(),\n    }\n}\n";
        let found = scan_task_matches(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, vec!["syntax", "tokens", "equiv", "perf"]);
    }

    #[test]
    fn narrow_task_matches_are_allowed() {
        // a two-family oracle (e.g. the parser ablation) is fine
        let text = "fn respond(t: Task) {\n    match t {\n        Task::Syntax => parse(),\n        Task::MissToken => probe(),\n        _ => other(),\n    }\n}\n";
        assert!(scan_task_matches(text).is_empty());
        // families spread across *separate* matches are fine too
        let text = "fn a(t: Task) { match t { Task::Syntax => s(), _ => n() } }\nfn b(t: Task) { match t { Task::Equiv => e(), _ => n() } }\nfn c(t: Task) { match t { Task::Perf => p(), _ => n() } }\nfn d(t: Task) { match t { Task::Explain => x(), _ => n() } }\n";
        assert!(scan_task_matches(text).is_empty());
    }

    #[test]
    fn task_match_waiver_on_match_line() {
        let text = "fn dispatch(id: TaskId) {\n    match id { // lint:allow: registry seam\n        TaskId::Syntax => a(),\n        TaskId::MissToken => b(),\n        TaskId::Equiv => c(),\n        TaskId::Perf => d(),\n        TaskId::Explain => e(),\n    }\n}\n";
        assert!(scan_task_matches(text).is_empty());
    }

    #[test]
    fn match_keyword_is_token_matched() {
        // `.matches(` and identifiers containing "match" never open a block
        let text = "fn f(s: &str) { let n = s.matches('x').count(); let rematch = 1; }\n";
        assert!(scan_task_matches(text).is_empty());
    }

    #[test]
    fn full_dialect_dispatch_is_flagged() {
        let text = "fn quote(d: Dialect) -> char {\n    match d {\n        Dialect::Sqlite => '\"',\n        Dialect::Postgres => '\"',\n        Dialect::Mysql => '`',\n        Dialect::Tsql => '[',\n        _ => '\"',\n    }\n}\n";
        let (line, variants) = scan_dialect_dispatch(text).expect("flagged");
        assert_eq!(line, 3);
        assert_eq!(variants.len(), 4);
    }

    #[test]
    fn narrow_dialect_mentions_are_allowed() {
        // naming one or two variants (e.g. a mysql-only special case) is
        // fine; so is iterating Dialect::CONCRETE without naming any
        let text = "fn f(d: Dialect) -> bool { d == Dialect::Mysql || d == Dialect::Tsql }\nfn g() { for d in Dialect::CONCRETE { run(d); } }\n";
        assert!(scan_dialect_dispatch(text).is_none());
    }

    #[test]
    fn dialect_dispatch_in_test_modules_is_exempt() {
        // round-trip tests legitimately enumerate every dialect
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        for d in [Dialect::Sqlite, Dialect::Postgres, Dialect::Mysql, Dialect::Tsql] {\n            check(d);\n        }\n    }\n}\n";
        assert!(scan_dialect_dispatch(text).is_none());
    }

    #[test]
    fn dialect_dispatch_waiver_exempts_its_line() {
        let text = "const ALL: [Dialect; 4] = [Dialect::Sqlite, Dialect::Postgres, Dialect::Mysql, Dialect::Tsql]; // lint:allow: the one enumeration\n";
        assert!(scan_dialect_dispatch(text).is_none());
    }

    /// The dialect-dispatch rule holds across the repo right now: no
    /// library file outside `crates/dialect` enumerates the concrete
    /// variants. Same check `xtask lint` (and therefore CI) enforces.
    #[test]
    fn no_dialect_dispatch_outside_the_dialect_crate() {
        let root = repo_root();
        let mut files = Vec::new();
        let entries = std::fs::read_dir(root.join("crates")).expect("read crates/");
        for dir in entries.filter_map(|e| e.ok().map(|e| e.path())) {
            if dir.is_dir()
                && dir
                    .file_name()
                    .is_some_and(|n| n != "xtask" && n != "dialect")
            {
                collect_library_sources(&dir.join("src"), &mut files);
            }
        }
        assert!(!files.is_empty());
        for file in files {
            let text = std::fs::read_to_string(&file).expect("source file readable");
            assert!(
                scan_dialect_dispatch(&text).is_none(),
                "per-dialect dispatch in {}",
                file.display()
            );
        }
    }

    #[test]
    fn registry_codes_extract_only_registry_fields() {
        let src = "pub const REGISTRY: &[RuleInfo] = &[\n    RuleInfo {\n        code: \"SQU001\",\n    },\n    RuleInfo {\n        code: \"SQU110\",\n    },\n];\n// elsewhere: code: \"SQU999\" must not count\n";
        assert_eq!(registry_codes(src), vec!["SQU001", "SQU110"]);
    }

    #[test]
    fn design_codes_extract_table_rows() {
        let src = "| Code | Severity |\n|---|---|\n| `SQU001` | error |\n| `SQU110` | warning |\nprose mentioning `SQU555` is not a row\n";
        assert_eq!(design_codes(src), vec!["SQU001", "SQU110"]);
    }

    /// The registry and DESIGN.md's code table are in sync right now —
    /// the same check `cargo run -p xtask -- lint` (and therefore CI)
    /// enforces.
    #[test]
    fn doc_sync_holds_in_this_repo() {
        let findings = doc_sync(&repo_root());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    /// Regression pin for the panic ban's coverage: the fuzz, lint, and
    /// sema library crates are scanned (non-empty file sets) and are
    /// currently clean. Un-waived `.unwrap()` creeping into any of them
    /// fails here and in `xtask lint`.
    #[test]
    fn ban_covers_fuzz_lint_and_sema_library_code() {
        let root = repo_root();
        for krate in ["fuzz", "lint", "sema"] {
            let mut files = Vec::new();
            collect_library_sources(&root.join("crates").join(krate).join("src"), &mut files);
            assert!(
                !files.is_empty(),
                "no library sources collected under crates/{krate}/src"
            );
            for file in files {
                let text = std::fs::read_to_string(&file).expect("source file readable");
                let hits = scan_source(&text);
                assert!(
                    hits.is_empty(),
                    "banned call in {}: {hits:?}",
                    file.display()
                );
            }
        }
    }
}
