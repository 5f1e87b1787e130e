//! Repo-level developer tasks, invoked as `cargo run -p xtask -- <task>`.
//!
//! `lint` — forbid `.unwrap()`, `.expect(` and `panic!` in library code,
//! and per-task `match` dispatch in the core crate.
//!
//! `smoke` — the CI smoke runs: builds the `squ-bench` binaries once,
//! then runs the table [`SMOKES`]. Each entry is a list of `repro` runs
//! that must all exit 0; an entry may name one output under
//! `target/repro/`, which must be byte-identical after each of its runs.
//! The table covers the label audit at `--jobs 1` and `--jobs 2`, the
//! fuzz oracles at `--jobs 1` and `--jobs 8`, each concrete dialect's
//! corpus at `--jobs 2` and `--jobs 1`, and synthesis on 1 shard × 1 job
//! and 3 shards × 2 jobs,
//! untargeted with its sketch check and peak-RSS guard, and steered toward
//! the committed `synth_target.json`. Last, [`serve_smoke`] checks
//! a live server's cold/warm /eval byte equality, a fault-injected soak,
//! a torn-entry scan and a zero-permit 429. Every kept output lands in
//! `target/repro/smoke/` for CI's artifact upload.
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
use std::process::Command;

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
        Some("smoke") => {
            if let Err(msg) = smoke(&repo_root()) {
                eprintln!("xtask smoke: {msg}");
                std::process::exit(1);
            }
        }
        Some(other) => {
            eprintln!("unknown task {other:?} (available: lint, smoke)");
            std::process::exit(2);
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- <lint|smoke>");
            std::process::exit(2);
        }
    }
}

/// One entry of the smoke table: `repro` command lines (arguments split
/// on whitespace), run in order, each of which must exit 0. An entry may
/// name one output under `target/repro/`; every run must leave it,
/// byte-identical to the first run's, and it is kept as
/// `target/repro/smoke/<name>.json`. `then` runs after the entry's runs,
/// for checks the table cannot express.
struct Smoke {
    name: &'static str,
    runs: &'static [&'static str],
    output: Option<&'static str>,
    then: Option<Check>,
}

/// A check run after an entry's runs, given the runner and the directory
/// that keeps reports.
type Check = fn(&Runner, &Path) -> Result<(), String>;

/// The smoke table, at fixed seeds so a red run reproduces from its
/// command line. The serve driver ([`serve_smoke`]) runs after it.
const SMOKES: &[Smoke] = &[
    // every ground-truth label re-proved, the static certifier convicting
    // its non-equivalence floor, and the dialect-translate gold
    // translations verified row for row; the report is the same on one
    // thread as on two
    Smoke {
        name: "audit",
        runs: &["--audit --jobs 1", "--audit --jobs 2"],
        output: Some("audit.json"),
        then: None,
    },
    // the round-trip, differential, metamorphic and sema oracles; a
    // transform output the reference interpreter disagrees with fails
    Smoke {
        name: "fuzz",
        runs: &[
            "--fuzz 200 --fuzz-seed 7 --jobs 1 --timings",
            "--fuzz 200 --fuzz-seed 7 --jobs 8",
        ],
        output: Some("fuzz.json"),
        then: None,
    },
    // each concrete dialect's corpus held to the dialect round-trip law
    Smoke {
        name: "fuzz-sqlite",
        runs: &[
            "--fuzz 150 --fuzz-seed 7 --dialect sqlite --jobs 2",
            "--fuzz 150 --fuzz-seed 7 --dialect sqlite --jobs 1",
        ],
        output: Some("fuzz.json"),
        then: None,
    },
    Smoke {
        name: "fuzz-postgres",
        runs: &[
            "--fuzz 150 --fuzz-seed 7 --dialect postgres --jobs 2",
            "--fuzz 150 --fuzz-seed 7 --dialect postgres --jobs 1",
        ],
        output: Some("fuzz.json"),
        then: None,
    },
    Smoke {
        name: "fuzz-mysql",
        runs: &[
            "--fuzz 150 --fuzz-seed 7 --dialect mysql --jobs 2",
            "--fuzz 150 --fuzz-seed 7 --dialect mysql --jobs 1",
        ],
        output: Some("fuzz.json"),
        then: None,
    },
    Smoke {
        name: "fuzz-tsql",
        runs: &[
            "--fuzz 150 --fuzz-seed 7 --dialect tsql --jobs 2",
            "--fuzz 150 --fuzz-seed 7 --dialect tsql --jobs 1",
        ],
        output: Some("fuzz.json"),
        then: None,
    },
    // sharding and parallelism change no byte of the synthesis report; the
    // sharded run goes last so its peak RSS is the guard's baseline
    Smoke {
        name: "synth",
        runs: &[
            "--synth 5000 --shards 1 --jobs 1 --timings",
            "--synth 5000 --shards 3 --jobs 2 --timings",
        ],
        output: Some("synth.json"),
        then: Some(synth_guards),
    },
    // the steering path: one AST axis, decided on the statement alone, and
    // the cost model's runtime axis, which costs every candidate
    Smoke {
        name: "synth-target",
        runs: &[
            "--synth 5000 --target crates/xtask/synth_target.json --shards 1 --jobs 1",
            "--synth 5000 --target crates/xtask/synth_target.json --shards 3 --jobs 2",
        ],
        output: Some("synth.json"),
        then: None,
    },
];

/// Build the `squ-bench` binaries once, run every entry of [`SMOKES`]
/// against `target/release/repro`, then the serve driver.
fn smoke(root: &Path) -> Result<(), String> {
    let build = Command::new(env!("CARGO"))
        .current_dir(root)
        .args(["build", "--release", "-p", "squ-bench", "--bins"])
        .status()
        .map_err(|e| format!("cannot launch cargo: {e}"))?;
    if !build.success() {
        return Err(format!("building the squ-bench binaries failed ({build})"));
    }
    let keep = root.join("target").join("repro").join("smoke");
    let _ = std::fs::remove_dir_all(&keep);
    std::fs::create_dir_all(&keep).map_err(|e| format!("creating {}: {e}", keep.display()))?;
    let runner = Runner {
        program: root.join("target").join("release").join("repro"),
        root: root.to_path_buf(),
    };
    for entry in SMOKES {
        runner
            .entry(entry, &keep)
            .map_err(|e| format!("{}: {e}", entry.name))?;
        println!("smoke: {} ok ({} run(s))", entry.name, entry.runs.len());
    }
    serve_smoke(root, &keep).map_err(|e| format!("serve: {e}"))?;
    println!("smoke: ok (reports in {})", keep.display());
    Ok(())
}

/// Runs the smoke table: `program` (`repro`, or a stand-in in tests) in
/// `root`, whose `target/repro/` holds the outputs.
struct Runner {
    program: PathBuf,
    root: PathBuf,
}

impl Runner {
    /// An output file under `target/repro/`.
    fn out(&self, file: &str) -> PathBuf {
        self.root.join("target").join("repro").join(file)
    }

    /// Run the program once on a command line; any exit other than 0 is an
    /// error.
    fn run(&self, line: &str) -> Result<(), String> {
        let status = Command::new(&self.program)
            .current_dir(&self.root)
            .args(line.split_whitespace())
            .status()
            .map_err(|e| format!("cannot spawn {}: {e}", self.program.display()))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("`repro {line}` failed ({status})"))
        }
    }

    /// Run one table entry and keep its output in `keep`. The output is
    /// removed before each run, so a run that writes none cannot pass on
    /// a stale file.
    fn entry(&self, entry: &Smoke, keep: &Path) -> Result<(), String> {
        let mut first: Option<Vec<u8>> = None;
        for line in entry.runs {
            let output = entry.output.map(|file| self.out(file));
            if let Some(path) = &output {
                let _ = std::fs::remove_file(path);
            }
            self.run(line)?;
            let Some(path) = output else { continue };
            let bytes = std::fs::read(&path)
                .map_err(|e| format!("`repro {line}` left no {}: {e}", path.display()))?;
            match &first {
                None => first = Some(bytes),
                Some(earlier) if *earlier == bytes => {}
                Some(_) => {
                    return Err(format!(
                        "{} after `repro {line}` differs from the entry's first run",
                        path.display()
                    ))
                }
            }
        }
        if let Some(bytes) = first {
            let kept = keep.join(format!("{}.json", entry.name));
            std::fs::write(&kept, bytes).map_err(|e| format!("writing {}: {e}", kept.display()))?;
        }
        match entry.then {
            Some(then) => then(self, keep),
            None => Ok(()),
        }
    }
}

/// The synth entry's own checks, after its runs: the report embeds a
/// passing sketch-vs-exact spot check (small runs keep exact values so the
/// sketch can be held to its error bound), and a 20,000-query run on the
/// same 3 shards × 2 jobs peaks at no more than 3× the 5,000-query run's
/// RSS, catching any `O(N)` materialization in the streaming path. The
/// large run's `timings.json` is kept as `synth-timings-large.json`.
fn synth_guards(runner: &Runner, keep: &Path) -> Result<(), String> {
    let report = runner.out("synth.json");
    let report = std::fs::read_to_string(&report)
        .map_err(|e| format!("reading {}: {e}", report.display()))?;
    if !report.contains("\"sketch_check\"") || !report.contains("\"pass\": true") {
        return Err("synth.json lacks a passing sketch-vs-exact spot check".to_string());
    }
    let timings = runner.out("timings.json");
    let small = read_counter(&timings, "synth.peak_rss_kb");
    runner.run("--synth 20000 --shards 3 --jobs 2 --timings")?;
    let large = read_counter(&timings, "synth.peak_rss_kb");
    let _ = std::fs::copy(&timings, keep.join("synth-timings-large.json"));
    match (small, large) {
        (Some(small), Some(large)) if small > 0 && large > 0 => {
            if large > small * 3 {
                return Err(format!(
                    "peak RSS grew {small} kB -> {large} kB over a 4x run \
                     (streaming must keep memory independent of N)"
                ));
            }
            println!(
                "smoke: synth peak RSS flat over a 4x run ({small} kB -> {large} kB, bound 3x)"
            );
        }
        _ => println!("smoke: synth peak RSS unavailable on this platform, guard skipped"),
    }
    Ok(())
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

/// End-to-end smoke of the evaluation server over a real socket, the one
/// smoke the table cannot express:
///
/// 1. boot `repro --serve 127.0.0.1:0` on a scratch store under
///    `target/repro/serve/` and parse the bound address off its stdout;
/// 2. replay one /eval cold then warm — the warm reply must be a store
///    hit with a byte-identical body;
/// 3. drive the seeded 50-exchange mixed workload through the heavy
///    wire-fault profile (`servectl load`, which exits non-zero on any
///    5xx);
/// 4. snapshot /statz to `keep/statz.json` and fail on any recorded
///    panic, then scan the store for torn entries (leftover `.tmp` files
///    from interrupted atomic writes);
/// 5. boot a second server with `--serve-inflight 0` and require the
///    deterministic 429 + Retry-After rejection.
fn serve_smoke(root: &Path, keep: &Path) -> Result<(), String> {
    let scratch = root.join("target").join("repro").join("serve");
    let _ = std::fs::remove_dir_all(&scratch);
    let store = scratch.join("store");
    let mut server = spawn_server(root, &store, &[])?;
    let verdict = drive_serve_smoke(root, &server.addr, keep, &store);
    server.shutdown();
    verdict?;

    // saturation: a server with zero in-flight permits must turn every
    // evaluation away with a deterministic 429, never an error or a hang
    let mut server = spawn_server(root, &scratch.join("sat-store"), &["--serve-inflight", "0"])?;
    let verdict = expect_saturated_429(root, &server.addr);
    server.shutdown();
    verdict
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
    let mut child = Command::new(&repro)
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
    let out = Command::new(&ctl)
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
    println!("smoke: serve cold/warm /eval bodies byte-identical (miss → hit)");

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
    println!("smoke: serve /statz snapshot at {}", snapshot.display());
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
    println!("smoke: serve saturated server rejects /eval with 429, /healthz still up");
    Ok(())
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

    /// Stand-in for `repro` in the smoke-runner tests, run as
    /// `sh stand-in.sh ACTION [TEXT]`: `write TEXT` writes the output,
    /// `fail` exits 3, `none` writes nothing.
    const STAND_IN: &str = "mkdir -p target/repro
case \"$1\" in
  write) echo \"$2\" > target/repro/out.json ;;
  fail) exit 3 ;;
esac
";

    /// Run one smoke entry through the stand-in in a fresh temporary
    /// directory; returns the verdict and the kept output, if any.
    fn run_stand_in(test: &str, entry: &Smoke) -> (Result<(), String>, Option<String>) {
        let root = std::env::temp_dir().join(format!("xtask-smoke-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let keep = root.join("keep");
        std::fs::create_dir_all(&keep).expect("create temporary directory");
        std::fs::write(root.join("stand-in.sh"), STAND_IN).expect("write stand-in");
        let runner = Runner {
            program: PathBuf::from("sh"),
            root: root.clone(),
        };
        let verdict = runner.entry(entry, &keep);
        let kept = std::fs::read_to_string(keep.join(format!("{}.json", entry.name))).ok();
        let _ = std::fs::remove_dir_all(&root);
        (verdict, kept)
    }

    fn entry(runs: &'static [&'static str]) -> Smoke {
        Smoke {
            name: "t",
            runs,
            output: Some("out.json"),
            then: None,
        }
    }

    #[test]
    fn smoke_runner_keeps_an_output_every_run_repeats() {
        let (verdict, kept) = run_stand_in(
            "same",
            &entry(&["stand-in.sh write a", "stand-in.sh write a"]),
        );
        assert_eq!(verdict, Ok(()));
        assert_eq!(kept.as_deref(), Some("a\n"));
    }

    #[test]
    fn smoke_runner_fails_when_a_run_exits_non_zero() {
        let (verdict, kept) =
            run_stand_in("exit", &entry(&["stand-in.sh write a", "stand-in.sh fail"]));
        let err = verdict.unwrap_err();
        assert!(err.contains("`repro stand-in.sh fail` failed"), "{err}");
        assert_eq!(kept, None);
    }

    #[test]
    fn smoke_runner_fails_when_the_output_differs_between_runs() {
        let (verdict, kept) = run_stand_in(
            "differs",
            &entry(&["stand-in.sh write a", "stand-in.sh write b"]),
        );
        let err = verdict.unwrap_err();
        assert!(err.contains("differs from the entry's first run"), "{err}");
        assert_eq!(kept, None);
    }

    #[test]
    fn smoke_runner_fails_when_a_run_leaves_no_output() {
        // the first run's output is removed before the second, so the
        // second cannot pass on it
        let (verdict, kept) =
            run_stand_in("none", &entry(&["stand-in.sh write a", "stand-in.sh none"]));
        let err = verdict.unwrap_err();
        assert!(err.contains("`repro stand-in.sh none` left no"), "{err}");
        assert_eq!(kept, None);
    }
}
