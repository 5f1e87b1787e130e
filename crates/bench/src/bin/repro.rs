//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro                    # run all 20 paper artifacts
//! repro --only table3      # run one artifact (also accepts ablation slugs)
//! repro --ablations        # run the ablation / extension studies
//! repro --export [DIR]     # export every labeled dataset as JSONL
//! repro --audit            # statically audit every ground-truth label
//! repro --faults heavy     # run the benchmark through a fault-injecting transport
//! repro --faults none --fault-gate 0.02   # CI gate on the needs_review rate
//! repro --fault-seed 7     # reseed the fault injector (default 0)
//! repro --fuzz 500         # run 500 differential/metamorphic fuzz cases
//! repro --fuzz 500 --fuzz-seed 7          # reseed the fuzz generator (default 0)
//! repro --fuzz 500 --dialect tsql         # per-dialect corpus (sqlite/postgres/mysql/tsql)
//! repro --synth 1000000    # stream-synthesize 1M queries, write synth.json
//! repro --synth 1000000 --shards 8        # build each round as 8 shard partitions (at most 131072)
//! repro --synth 50000 --target spec.json  # steer toward a distribution target
//! repro --serve 127.0.0.1:0               # serve /eval /suite /healthz /statz
//! repro --serve ADDR --serve-store DIR    # serve over an explicit store root
//! repro --serve ADDR --serve-inflight 4   # cap concurrent evaluations
//! repro --seed 7           # different master seed
//! repro --jobs 4           # worker threads (default: all cores, 1 = sequential)
//! repro --resume           # reuse fingerprint-matched stages from target/repro/store
//! repro --store-stats      # print per-stage store hit/miss/byte counters
//! repro --timings          # print a per-phase wall-clock report
//! repro --list             # list artifact slugs
//! ```
//!
//! Output goes to stdout and to `target/repro/<slug>.txt` (+ `.csv` for
//! tabular artifacts). Suite construction and artifact execution fan out
//! over `--jobs` threads; output order and content are identical for
//! every job count. Each run also writes machine-readable span timings to
//! `target/repro/timings.json`; `--faults` writes `target/repro/faults.json`,
//! byte-identical for any `--jobs` count.
//!
//! `--resume` routes every stage — sampled workloads, derived task
//! datasets, paper artifacts, audit, fault, and fuzz reports — through the
//! content-addressed store under `target/repro/store/`: stages whose
//! fingerprint (seed + builder versions + upstream fingerprints) already
//! has a verified entry are loaded instead of rebuilt, byte-identically.
//! A warm resume performs no suite-build or model-call work at all.
//!
//! `--synth N` also skips the suite: it streams N accepted queries in the
//! character of the SDSS workload (seeded by `--seed`) through the
//! sharded synthesis pipeline and writes `target/repro/synth.json` —
//! sketch summaries, histograms, chunk fingerprints, acceptance rates —
//! byte-identical for any `--jobs` *and any `--shards`* value. Peak
//! memory is bounded by the round budget (2^17 candidates), not N, and
//! `--shards` above that budget exits 2. With `--target` the run
//! additionally steers the accepted distribution toward the spec and
//! exits 1 if it cannot converge; a failed sketch spot-check or an
//! exhausted round budget also exits 1.
//!
//! `--fuzz N` skips the suite entirely and instead runs N cases of the
//! `squ-fuzz` subsystem (grammar-generated queries through the round-trip,
//! differential, metamorphic, and sema oracles), writing
//! `target/repro/fuzz.json` — byte-identical for any `--jobs` count — and
//! exiting 1 on any oracle violation. The differential oracle compares
//! the compiled engine with the reference interpreter on the subject
//! query and on both outputs of every applied transform; the engine
//! counters land in `timings.json` as `fuzz.engine.*`.

use squ::llm::FaultProfile;
use squ::store::{fp_artifact, fp_audit, fp_faults};
use squ::{
    run_ablation, run_experiment, AblationId, Artifact, AuditReport, ExperimentId, FaultReport,
    Store, Suite, PAPER_SEED,
};
use squ_parser::Dialect;
use std::fs;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Opts {
    list: bool,
    ablations: bool,
    audit: bool,
    timings: bool,
    export: Option<String>,
    only: Option<String>,
    /// Fault-injection profile name (`none`, `light`, `heavy`, `flaky`).
    faults: Option<String>,
    /// Seed for the fault injector (independent of the suite seed).
    fault_seed: u64,
    /// Fail (exit 1) if the needs_review rate exceeds this bound.
    fault_gate: Option<f64>,
    /// Fuzz-case budget; `Some` switches the binary into fuzz mode.
    fuzz: Option<u64>,
    /// Seed for the fuzz generator (independent of the suite seed).
    fuzz_seed: u64,
    /// Corpus dialect for fuzz mode (`squ`, `sqlite`, `postgres`,
    /// `mysql`, `tsql`); `None` means the default `squ` corpus.
    dialect: Option<String>,
    /// Accepted-query budget; `Some` switches into synthesis mode.
    synth: Option<u64>,
    /// Shard count for synthesis mode (default 1).
    shards: Option<usize>,
    /// Path of a distribution-target spec for synthesis mode.
    target: Option<String>,
    /// Bind address for server mode (`--serve`); port 0 is ephemeral.
    serve: Option<String>,
    /// Store root for server mode (default `target/repro/store`).
    serve_store: Option<String>,
    /// In-flight evaluation cap for server mode (default 8).
    serve_inflight: Option<usize>,
    seed: u64,
    /// Worker threads; `None` means all available cores.
    jobs: Option<usize>,
    /// Reuse fingerprint-matched stages from the artifact store.
    resume: bool,
    /// Print per-stage store counters (implies using the store).
    store_stats: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            list: false,
            ablations: false,
            audit: false,
            timings: false,
            export: None,
            only: None,
            faults: None,
            fault_seed: 0,
            fault_gate: None,
            fuzz: None,
            fuzz_seed: 0,
            dialect: None,
            synth: None,
            shards: None,
            target: None,
            serve: None,
            serve_store: None,
            serve_inflight: None,
            seed: PAPER_SEED,
            jobs: None,
            resume: false,
            store_stats: false,
        }
    }
}

/// One flag of the command line: its name, what its value must be as the
/// flag's errors word it (`None` for a switch, which takes no value), and
/// the mode flag it requires.
struct Flag(&'static str, Option<&'static str>, Option<&'static str>);

/// Every flag, each mode followed by the flags that require it. A value is
/// the next argument unless that is itself a flag; only `--export`'s may
/// be left out.
const FLAGS: &[Flag] = &[
    Flag("--list", None, None),
    Flag("--ablations", None, None),
    Flag("--audit", None, None),
    Flag("--export", Some("a directory"), None),
    Flag("--only", Some("a slug"), None),
    Flag("--faults", Some("a profile name"), None),
    Flag("--fault-seed", Some("an integer"), Some("--faults")),
    Flag("--fault-gate", Some("a rate in [0,1]"), Some("--faults")),
    Flag("--fuzz", Some("a case count"), None),
    Flag("--fuzz-seed", Some("an integer"), Some("--fuzz")),
    Flag("--dialect", Some("a dialect name"), Some("--fuzz")),
    Flag("--serve", Some("a bind address (host:port)"), None),
    Flag("--serve-store", Some("a directory"), Some("--serve")),
    Flag("--serve-inflight", Some("an integer"), Some("--serve")),
    Flag("--synth", Some("a query count"), None),
    Flag("--shards", Some("a positive integer"), Some("--synth")),
    Flag("--target", Some("a spec file path"), Some("--synth")),
    Flag("--seed", Some("an integer"), None),
    Flag("--jobs", Some("a positive integer"), None),
    Flag("--timings", None, None),
    Flag("--resume", None, None),
    Flag("--store-stats", None, None),
];

/// The mode-selecting flags, in the order a conflict names them.
const MODES: &[&str] = &[
    "--list",
    "--ablations",
    "--audit",
    "--export",
    "--faults",
    "--fuzz",
    "--synth",
    "--only",
    "--serve",
];

/// Parse arguments (everything after the binary name).
///
/// Every flag may appear at most once, and the flags of [`MODES`] are
/// mutually exclusive — a repeated or conflicting flag is a hard error,
/// never silently last-one-wins. A flag with a parent in [`FLAGS`]
/// requires that mode, in any argument order.
fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut given = Given(Vec::new());
    let mut args = args.iter().map(String::as_str).peekable();
    while let Some(arg) = args.next() {
        let flag = FLAGS
            .iter()
            .find(|f| f.0 == arg)
            .ok_or_else(|| format!("unknown argument {arg:?} (try --list)"))?;
        if given.has(arg) {
            return Err(format!("duplicate flag {arg}"));
        }
        let value = flag.1.and_then(|_| args.next_if(|a| !a.starts_with("--")));
        given.0.push((flag, value));
    }

    let d = Opts::default();
    let opts = Opts {
        list: given.has("--list"),
        ablations: given.has("--ablations"),
        audit: given.has("--audit"),
        timings: given.has("--timings"),
        export: given
            .find("--export")
            .map(|(_, dir)| dir.unwrap_or("target/benchmark-export").to_string()),
        only: given.text("--only")?,
        faults: given.choice("--faults", &FaultProfile::NAMES, "fault profile", |n| {
            FaultProfile::by_name(n).is_some()
        })?,
        fault_seed: given.int("--fault-seed")?.unwrap_or(d.fault_seed),
        fault_gate: given.rate("--fault-gate")?,
        fuzz: given.count("--fuzz")?,
        fuzz_seed: given.int("--fuzz-seed")?.unwrap_or(d.fuzz_seed),
        dialect: given.choice("--dialect", &Dialect::NAMES, "dialect", |n| {
            Dialect::by_name(n).is_some()
        })?,
        synth: given.count("--synth")?,
        shards: given.count("--shards")?,
        target: given.text("--target")?,
        serve: given.text("--serve")?,
        serve_store: given.text("--serve-store")?,
        serve_inflight: given.int("--serve-inflight")?,
        seed: given.int("--seed")?.unwrap_or(d.seed),
        jobs: given.count("--jobs")?,
        resume: given.has("--resume"),
        store_stats: given.has("--store-stats"),
    };

    // Mode and parent rules run after every value is read, so a bad value
    // is reported ahead of a conflict or a missing parent in any order.
    let modes: Vec<&str> = MODES.iter().copied().filter(|m| given.has(m)).collect();
    if modes.len() > 1 {
        return Err(format!(
            "conflicting flags: {} select different modes; pick one",
            modes.join(" and ")
        ));
    }
    for Flag(name, _, parent) in FLAGS {
        if let Some(parent) = parent {
            if given.has(name) && !given.has(parent) {
                return Err(format!("{name} requires {parent}"));
            }
        }
    }

    Ok(opts)
}

/// The flags of one command line, each with the value it took (`None`
/// for a switch, or for a valued flag whose value is missing).
struct Given<'a>(Vec<(&'static Flag, Option<&'a str>)>);

impl<'a> Given<'a> {
    fn find(&self, name: &str) -> Option<(&'static Flag, Option<&'a str>)> {
        self.0.iter().find(|(f, _)| f.0 == name).copied()
    }

    fn has(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// The value of a given flag with the wording its errors use; a flag
    /// given without its value is an error.
    fn value(&self, name: &str) -> Result<Option<(&'a str, &'static str)>, String> {
        let Some((Flag(_, wants, _), value)) = self.find(name) else {
            return Ok(None);
        };
        let wants = wants.unwrap_or_default();
        match value {
            Some(v) => Ok(Some((v, wants))),
            None => Err(format!("{name} needs {wants}")),
        }
    }

    fn text(&self, name: &str) -> Result<Option<String>, String> {
        Ok(self.value(name)?.map(|(v, _)| v.to_string()))
    }

    fn int<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|(v, wants)| {
                v.parse()
                    .map_err(|_| format!("{name} needs {wants}, got {v:?}"))
            })
            .transpose()
    }

    /// A positive integer; zero is rejected with "positive" made explicit
    /// (`--fuzz needs a positive case count, got 0`).
    fn count<T: FromStr + Default + PartialEq>(&self, name: &str) -> Result<Option<T>, String> {
        let n = self.int(name)?;
        if n != Some(T::default()) {
            return Ok(n);
        }
        let (_, wants) = self.value(name)?.unwrap_or_default();
        let positive = if wants.contains("positive") {
            wants.to_string()
        } else {
            wants.replacen("a ", "a positive ", 1)
        };
        Err(format!("{name} needs {positive}, got 0"))
    }

    fn rate(&self, name: &str) -> Result<Option<f64>, String> {
        self.value(name)?
            .map(|(v, wants)| {
                v.parse()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| format!("{name} needs {wants}, got {v:?}"))
            })
            .transpose()
    }

    /// One of a fixed set of names, which `known` recognizes; both errors
    /// list `names`.
    fn choice(
        &self,
        name: &str,
        names: &[&str],
        what: &str,
        known: fn(&str) -> bool,
    ) -> Result<Option<String>, String> {
        let list = names.join(", ");
        match self.value(name) {
            Err(missing) => Err(format!("{missing} (one of {list})")),
            Ok(Some((v, _))) if !known(v) => Err(format!("unknown {what} {v:?} (one of {list})")),
            Ok(v) => Ok(v.map(|(v, _)| v.to_string())),
        }
    }
}

#[derive(Clone, Copy)]
enum Job {
    Paper(ExperimentId),
    Ablation(AblationId),
}

impl Job {
    /// `(store stage, entry name, is_ablation)` for the artifact store.
    fn store_key(&self) -> (&'static str, &'static str, bool) {
        match self {
            Job::Paper(id) => ("artifact", id.slug(), false),
            Job::Ablation(id) => ("ablation", id.slug(), true),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| die(&e));

    if opts.list {
        for id in ExperimentId::ALL {
            println!("{}", id.slug());
        }
        for id in AblationId::ALL {
            println!("{}", id.slug());
        }
        return;
    }

    // Server mode: stand up the evaluation service and never return.
    // The bound address is printed to stdout (and flushed) first, so a
    // harness binding port 0 can discover the real port.
    if let Some(addr) = &opts.serve {
        use std::io::Write as _;
        let config = squ_serve::ServerConfig {
            store_root: opts
                .serve_store
                .clone()
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("target/repro/store")),
            max_in_flight: opts
                .serve_inflight
                .unwrap_or(squ_serve::ServerConfig::default().max_in_flight),
            ..squ_serve::ServerConfig::default()
        };
        let server = squ_serve::Server::bind(addr, config)
            .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
        let bound = server
            .local_addr()
            .unwrap_or_else(|e| die(&format!("cannot read bound address: {e}")));
        println!("serving on {bound}");
        std::io::stdout().flush().expect("flush bound address");
        if let Err(e) = server.run() {
            die(&format!("server failed: {e}"));
        }
        return;
    }

    let jobs_n = opts.jobs.unwrap_or_else(squ::par::available_jobs);
    let run_start = std::time::Instant::now();

    let queue: Vec<Job> = match &opts.only {
        Some(slug) => match ExperimentId::from_slug(slug) {
            Some(id) => vec![Job::Paper(id)],
            None => vec![Job::Ablation(AblationId::from_slug(slug).unwrap_or_else(
                || die(&format!("unknown artifact {slug:?} (try --list)")),
            ))],
        },
        None if opts.ablations => AblationId::ALL.iter().map(|a| Job::Ablation(*a)).collect(),
        None => ExperimentId::ALL.iter().map(|e| Job::Paper(*e)).collect(),
    };

    let out_dir = PathBuf::from("target/repro");
    fs::create_dir_all(&out_dir).expect("create target/repro");
    let mut store: Option<Store> =
        (opts.resume || opts.store_stats).then(|| Store::open(out_dir.join("store")));

    // Synthesis mode needs no suite either: the stream is its own
    // substrate. Base workload is fixed to SDSS (the paper's primary
    // log-derived workload); the stream seed is --seed.
    if let Some(n) = opts.synth {
        let shards = opts.shards.unwrap_or(1);
        let target_json = opts.target.as_ref().map(|path| {
            fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read --target {path}: {e}")))
        });
        let cfg = squ::SynthConfig {
            base: squ::workload::Workload::Sdss,
            seed: opts.seed,
            n,
            shards,
            jobs: jobs_n,
            target_json,
        };
        eprintln!(
            "synthesizing {n} quer{} (seed {}, {shards} shard(s), {jobs_n} jobs{})…",
            if n == 1 { "y" } else { "ies" },
            opts.seed,
            if cfg.target_json.is_some() {
                ", targeted"
            } else {
                ""
            }
        );
        let report = squ::timing::time("synth.total", || {
            squ::run_synth(&cfg, store.as_mut()).unwrap_or_else(|e| die(&e))
        });
        let path = out_dir.join("synth.json");
        fs::write(&path, report.to_json()).expect("write synth.json");
        println!(
            "synthesized {} of {} requested ({} candidates, {} rounds, acceptance {:.1}%), \
             fingerprint {} over {} chunk(s)",
            report.accepted_considered.min(report.requested),
            report.requested,
            report.candidates,
            report.rounds,
            100.0 * report.acceptance_rate,
            report.fingerprint,
            report.chunks.len(),
        );
        for axis in &report.axes {
            println!(
                "  axis {:<16} deviation {:.4} (tolerance {:.4})",
                axis.property,
                axis.deviation,
                report.target.as_ref().map(|t| t.tolerance).unwrap_or(0.0)
            );
        }
        if let Some(check) = &report.sketch_check {
            println!(
                "  sketch check: max rel err {:.5} (bound {:.5}) — {}",
                check.max_rel_err,
                check.bound,
                if check.pass { "pass" } else { "FAIL" }
            );
        }
        println!("synth report written to {}", path.display());
        finish_store(&opts, store.as_ref());
        finish_timings(&opts, &out_dir, jobs_n, run_start);
        let mut failed = false;
        if report.exhausted {
            eprintln!(
                "error: round budget exhausted after {} rounds with {} of {} accepted",
                report.rounds, report.accepted_considered, report.requested
            );
            failed = true;
        }
        if report.sketch_check.as_ref().is_some_and(|c| !c.pass) {
            eprintln!("error: sketch spot-check exceeded its error bound");
            failed = true;
        }
        if report.target.is_some() && !report.converged {
            eprintln!("error: accepted distribution did not reach the target tolerance");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    // Fuzz mode needs no suite: cases are self-contained (generated
    // schemas + witness databases), so it runs before suite construction.
    if let Some(cases) = opts.fuzz {
        // parse_args validated the name, so the lookup cannot fail here
        let dialect = opts
            .dialect
            .as_deref()
            .and_then(Dialect::by_name)
            .unwrap_or(Dialect::Squ);
        eprintln!(
            "fuzzing {cases} case(s) (fuzz seed {}, {} corpus, {jobs_n} jobs)…",
            opts.fuzz_seed,
            dialect.name()
        );
        let report = squ::timing::time("fuzz.total", || {
            squ::run_fuzz_dialect(cases, opts.fuzz_seed, jobs_n, store.as_mut(), dialect)
        });
        let path = out_dir.join("fuzz.json");
        fs::write(&path, report.to_json()).expect("write fuzz.json");
        println!("{}", report.summary_line());
        for f in &report.failures {
            println!(
                "  case {} [{}{}]: {}\n    sql: {}\n    minimized ({} tokens): {}",
                f.case,
                f.oracle,
                f.transform
                    .as_deref()
                    .map(|t| format!(" / {t}"))
                    .unwrap_or_default(),
                f.detail,
                f.sql,
                f.minimized_tokens,
                f.minimized
            );
        }
        println!("fuzz report written to {}", path.display());

        // surface the run's deterministic engine and sema-oracle counters
        // in timings.json
        squ::timing::count_fields("fuzz.engine", &report.engine);
        squ::timing::count_fields("fuzz.sema", &report.sema);

        finish_store(&opts, store.as_ref());
        finish_timings(&opts, &out_dir, jobs_n, run_start);
        if !report.is_clean() {
            std::process::exit(1);
        }
        return;
    }

    eprintln!(
        "building benchmark suite (seed {}, {} jobs)…",
        opts.seed, jobs_n
    );
    let t0 = std::time::Instant::now();
    let suite = match store.as_mut() {
        Some(store) => Suite::load_or_build(opts.seed, jobs_n, store),
        None => Suite::new_with_jobs(opts.seed, jobs_n),
    };
    eprintln!("suite ready in {:.1?}", t0.elapsed());

    if opts.audit {
        let fp = fp_audit(opts.seed);
        let cached = store
            .as_mut()
            .and_then(|s| s.load_value::<AuditReport>("audit", "audit", fp));
        let report = cached.unwrap_or_else(|| {
            let report = squ::timing::time("audit.total", || squ::audit_suite(&suite, jobs_n));
            if let Some(s) = store.as_mut() {
                s.save_value("audit", "audit", fp, &report);
            }
            report
        });
        let path = out_dir.join("audit.json");
        fs::write(&path, report.to_json()).expect("write audit.json");
        println!(
            "audited {} artifacts: {} rule hits across {} rules, {} violations",
            report.checked,
            report.rule_hits.values().sum::<usize>(),
            report.rule_hits.len(),
            report.violations.len()
        );
        let c = &report.certs;
        println!(
            "sema certifier: {} pairs ({} equivalent / {} inequivalent / {} unknown), \
             statically convicted {}/{} non-equivalence labels ({:.1}%) without execution",
            c.pairs,
            c.certified_equivalent,
            c.certified_inequivalent,
            c.certified_unknown,
            c.noneq_convicted,
            c.noneq_pairs,
            c.conviction_rate(),
        );
        squ::timing::count_fields("audit.sema", c);
        for v in &report.violations {
            println!(
                "  {} {} {}: {}",
                v.dataset, v.query_id, v.invariant, v.detail
            );
        }
        println!("audit report written to {}", path.display());
        finish_store(&opts, store.as_ref());
        finish_timings(&opts, &out_dir, jobs_n, run_start);
        if !report.is_clean() {
            std::process::exit(1);
        }
        return;
    }

    if let Some(name) = &opts.faults {
        let profile = FaultProfile::by_name(name)
            .unwrap_or_else(|| die(&format!("unknown fault profile {name:?}")));
        let fp = fp_faults(opts.seed, name, opts.fault_seed);
        let cached = store
            .as_mut()
            .and_then(|s| s.load_value::<FaultReport>("faults", name, fp));
        let report = cached.unwrap_or_else(|| {
            let report = squ::timing::time("faults.total", || {
                squ::run_fault_report(&suite, profile, opts.fault_seed, jobs_n)
            });
            if let Some(s) = store.as_mut() {
                s.save_value("faults", name, fp, &report);
            }
            report
        });
        let path = out_dir.join("faults.json");
        fs::write(&path, report.to_json()).expect("write faults.json");
        println!(
            "fault profile {:?} (fault seed {}): {} calls, {} attempts, {} exhausted, {} needs_review ({:.2}%)",
            report.profile,
            report.fault_seed,
            report.calls,
            report.attempts,
            report.exhausted,
            report.needs_review,
            100.0 * report.needs_review_rate
        );
        for stats in &report.by_fault {
            if stats.calls > 0 {
                println!(
                    "  {:<14} {:>5} calls, {:>5} survived extraction ({:.1}%)",
                    stats.kind,
                    stats.calls,
                    stats.survived,
                    100.0 * stats.survival_rate
                );
            }
        }
        println!("fault report written to {}", path.display());
        finish_store(&opts, store.as_ref());
        finish_timings(&opts, &out_dir, jobs_n, run_start);
        if let Some(gate) = opts.fault_gate {
            if report.needs_review_rate > gate {
                eprintln!(
                    "error: needs_review rate {:.4} exceeds --fault-gate {gate}",
                    report.needs_review_rate
                );
                std::process::exit(1);
            }
            println!(
                "gate ok: needs_review rate {:.4} <= {gate}",
                report.needs_review_rate
            );
        }
        return;
    }

    if let Some(dir) = &opts.export {
        let dir = PathBuf::from(dir);
        let manifest =
            squ::export_suite(&suite, &dir).unwrap_or_else(|e| die(&format!("export failed: {e}")));
        println!(
            "exported {} files / {} records to {}",
            manifest.files.len(),
            manifest.files.iter().map(|f| f.records).sum::<usize>(),
            dir.display()
        );
        finish_store(&opts, store.as_ref());
        finish_timings(&opts, &out_dir, jobs_n, run_start);
        return;
    }

    // run artifacts on the worker pool; results come back in queue order,
    // so stdout is identical whatever the job count. With a store, cached
    // artifacts fill their queue slot up front and only misses hit the pool.
    let mut slots: Vec<Option<(Artifact, std::time::Duration)>> =
        queue.iter().map(|_| None).collect();
    let mut misses: Vec<(usize, Job)> = Vec::new();
    for (i, job) in queue.iter().enumerate() {
        let (stage, slug, ablation) = job.store_key();
        let t = std::time::Instant::now();
        let cached = store.as_mut().and_then(|s| {
            s.load_value::<Artifact>(stage, slug, fp_artifact(opts.seed, slug, ablation))
        });
        match cached {
            Some(artifact) => slots[i] = Some((artifact, t.elapsed())),
            None => misses.push((i, *job)),
        }
    }
    let computed = squ::par::map(jobs_n, misses, |(i, job)| {
        let t = std::time::Instant::now();
        let artifact = match job {
            Job::Paper(id) => squ::timing::time(&format!("artifact.{}", id.slug()), || {
                run_experiment(&suite, id)
            }),
            Job::Ablation(id) => squ::timing::time(&format!("artifact.{}", id.slug()), || {
                run_ablation(&suite, id)
            }),
        };
        (i, job, artifact, t.elapsed())
    });
    for (i, job, artifact, elapsed) in computed {
        if let Some(s) = store.as_mut() {
            let (stage, slug, ablation) = job.store_key();
            s.save_value(
                stage,
                slug,
                fp_artifact(opts.seed, slug, ablation),
                &artifact,
            );
        }
        slots[i] = Some((artifact, elapsed));
    }
    let artifacts: Vec<(Artifact, std::time::Duration)> = slots
        .into_iter()
        .map(|s| s.expect("every artifact slot is filled"))
        .collect();

    for (artifact, elapsed) in &artifacts {
        println!("\n================================================================");
        println!("{}  ({:.1?})", artifact.title, elapsed);
        println!("================================================================");
        println!("{}", artifact.body);
        fs::write(
            out_dir.join(format!("{}.txt", artifact.id)),
            format!("{}\n\n{}", artifact.title, artifact.body),
        )
        .expect("write artifact text");
        if let Some(csv) = &artifact.csv {
            fs::write(out_dir.join(format!("{}.csv", artifact.id)), csv)
                .expect("write artifact csv");
        }
    }
    eprintln!("\nartifacts written to {}", out_dir.display());
    finish_store(&opts, store.as_ref());
    finish_timings(&opts, &out_dir, jobs_n, run_start);
}

/// Print the artifact-store counters when `--store-stats` was given.
fn finish_store(opts: &Opts, store: Option<&Store>) {
    let Some(store) = store else { return };
    if opts.store_stats {
        println!("\n{}", store.render_stats());
    }
}

/// Drain the span registry: always persist `timings.json`, and print the
/// plain-text report when `--timings` was given.
fn finish_timings(opts: &Opts, out_dir: &Path, jobs_n: usize, run_start: std::time::Instant) {
    let spans = squ::timing::drain();
    let counters = squ::timing::drain_counters();
    let json = squ::timing::to_json(&spans, &counters, jobs_n, run_start.elapsed());
    let path = out_dir.join("timings.json");
    fs::write(&path, &json).expect("write timings.json");
    if opts.timings {
        eprintln!("\nphase timings ({jobs_n} jobs):");
        eprint!("{}", squ::timing::report(&spans));
        eprintln!("timings written to {}", path.display());
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let opts = parse_args(&[]).unwrap();
        assert_eq!(opts, Opts::default());
        assert_eq!(opts.seed, PAPER_SEED);
    }

    #[test]
    fn export_with_and_without_directory() {
        // bare --export falls back to the default directory
        let opts = parse_args(&argv(&["--export"])).unwrap();
        assert_eq!(opts.export.as_deref(), Some("target/benchmark-export"));
        // --export DIR consumes the directory
        let opts = parse_args(&argv(&["--export", "out/data"])).unwrap();
        assert_eq!(opts.export.as_deref(), Some("out/data"));
        // a following flag is not swallowed as the directory
        let opts = parse_args(&argv(&["--export", "--timings"])).unwrap();
        assert_eq!(opts.export.as_deref(), Some("target/benchmark-export"));
        assert!(opts.timings);
    }

    #[test]
    fn only_seed_jobs() {
        let opts = parse_args(&argv(&[
            "--only",
            "table3",
            "--seed",
            "7",
            "--jobs",
            "4",
            "--timings",
        ]))
        .unwrap();
        assert_eq!(opts.only.as_deref(), Some("table3"));
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.jobs, Some(4));
        assert!(opts.timings);
    }

    #[test]
    fn flag_values_are_validated() {
        assert!(parse_args(&argv(&["--only"])).is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
        assert!(parse_args(&argv(&["--seed", "abc"])).is_err());
        assert!(parse_args(&argv(&["--jobs"])).is_err());
        assert!(parse_args(&argv(&["--jobs", "0"])).is_err());
        assert!(parse_args(&argv(&["--jobs", "-2"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
        // flags as values are rejected, not consumed
        assert!(parse_args(&argv(&["--seed", "--jobs"])).is_err());
    }

    #[test]
    fn audit_flag() {
        let opts = parse_args(&argv(&["--audit"])).unwrap();
        assert!(opts.audit);
        // composes with seed/jobs like the other standalone modes
        let opts = parse_args(&argv(&["--audit", "--jobs", "2", "--seed", "9"])).unwrap();
        assert!(opts.audit);
        assert_eq!(opts.jobs, Some(2));
        assert_eq!(opts.seed, 9);
    }

    #[test]
    fn faults_flags() {
        let opts = parse_args(&argv(&["--faults", "heavy"])).unwrap();
        assert_eq!(opts.faults.as_deref(), Some("heavy"));
        assert_eq!(opts.fault_seed, 0);
        assert_eq!(opts.fault_gate, None);
        // composes with the fault seed, gate, and the shared seed/jobs flags
        let opts = parse_args(&argv(&[
            "--faults",
            "none",
            "--fault-seed",
            "9",
            "--fault-gate",
            "0.02",
            "--jobs",
            "4",
        ]))
        .unwrap();
        assert_eq!(opts.faults.as_deref(), Some("none"));
        assert_eq!(opts.fault_seed, 9);
        assert_eq!(opts.fault_gate, Some(0.02));
        assert_eq!(opts.jobs, Some(4));
        // every profile name parses; anything else is rejected up front
        for name in FaultProfile::NAMES {
            assert!(parse_args(&argv(&["--faults", name])).is_ok());
        }
        assert!(parse_args(&argv(&["--faults"])).is_err());
        assert!(parse_args(&argv(&["--faults", "catastrophic"])).is_err());
        assert!(parse_args(&argv(&["--fault-seed"])).is_err());
        assert!(parse_args(&argv(&["--fault-seed", "abc"])).is_err());
        assert!(parse_args(&argv(&["--fault-gate"])).is_err());
        assert!(parse_args(&argv(&["--fault-gate", "1.5"])).is_err());
        assert!(parse_args(&argv(&["--fault-gate", "-0.1"])).is_err());
    }

    #[test]
    fn resume_and_store_stats_flags() {
        let opts = parse_args(&argv(&["--resume"])).unwrap();
        assert!(opts.resume);
        assert!(!opts.store_stats);
        let opts = parse_args(&argv(&["--store-stats"])).unwrap();
        assert!(opts.store_stats);
        assert!(!opts.resume);
        // compose with each other and with the standalone modes
        let opts = parse_args(&argv(&[
            "--resume",
            "--store-stats",
            "--audit",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert!(opts.resume && opts.store_stats && opts.audit);
        assert_eq!(opts.jobs, Some(2));
        let opts = parse_args(&argv(&["--faults", "none", "--resume"])).unwrap();
        assert!(opts.resume);
        assert_eq!(opts.faults.as_deref(), Some("none"));
    }

    #[test]
    fn list_and_ablations_flags() {
        let opts = parse_args(&argv(&["--list"])).unwrap();
        assert!(opts.list);
        let opts = parse_args(&argv(&["--ablations", "--jobs", "2"])).unwrap();
        assert!(opts.ablations);
        assert_eq!(opts.jobs, Some(2));
    }

    #[test]
    fn fuzz_flags() {
        let opts = parse_args(&argv(&["--fuzz", "500"])).unwrap();
        assert_eq!(opts.fuzz, Some(500));
        assert_eq!(opts.fuzz_seed, 0);
        let opts = parse_args(&argv(&["--fuzz", "500", "--fuzz-seed", "7"])).unwrap();
        assert_eq!(opts.fuzz, Some(500));
        assert_eq!(opts.fuzz_seed, 7);
        // order-independent: the dependent flag may come first
        let opts = parse_args(&argv(&["--fuzz-seed", "7", "--fuzz", "500"])).unwrap();
        assert_eq!(opts.fuzz_seed, 7);
        // composes with the shared execution flags
        let opts = parse_args(&argv(&[
            "--fuzz",
            "100",
            "--jobs",
            "8",
            "--resume",
            "--store-stats",
            "--timings",
        ]))
        .unwrap();
        assert_eq!(opts.fuzz, Some(100));
        assert_eq!(opts.jobs, Some(8));
        assert!(opts.resume && opts.store_stats && opts.timings);
        // value validation
        assert!(parse_args(&argv(&["--fuzz"])).is_err());
        assert!(parse_args(&argv(&["--fuzz", "0"])).is_err());
        assert!(parse_args(&argv(&["--fuzz", "abc"])).is_err());
        assert!(parse_args(&argv(&["--fuzz-seed", "7"])).is_err());
    }

    #[test]
    fn dialect_flag() {
        let opts = parse_args(&argv(&["--fuzz", "100"])).unwrap();
        assert_eq!(opts.dialect, None);
        // every dialect name parses, in any argument order
        for name in Dialect::NAMES {
            let opts = parse_args(&argv(&["--fuzz", "100", "--dialect", name])).unwrap();
            assert_eq!(opts.dialect.as_deref(), Some(name));
            let opts = parse_args(&argv(&["--dialect", name, "--fuzz", "100"])).unwrap();
            assert_eq!(opts.dialect.as_deref(), Some(name));
        }
        // unknown values and a missing value are rejected with the list
        let err = parse_args(&argv(&["--fuzz", "100", "--dialect", "oracle"])).unwrap_err();
        assert!(
            err.contains("unknown dialect") && err.contains("tsql"),
            "{err}"
        );
        let err = parse_args(&argv(&["--fuzz", "100", "--dialect"])).unwrap_err();
        assert!(err.contains("--dialect needs a dialect name"), "{err}");
        // the dependent flag demands its parent mode
        let err = parse_args(&argv(&["--dialect", "tsql"])).unwrap_err();
        assert!(err.contains("--dialect requires --fuzz"), "{err}");
        let err = parse_args(&argv(&["--audit", "--dialect", "tsql"])).unwrap_err();
        assert!(err.contains("--dialect requires --fuzz"), "{err}");
    }

    #[test]
    fn synth_flags() {
        let opts = parse_args(&argv(&["--synth", "1000000"])).unwrap();
        assert_eq!(opts.synth, Some(1_000_000));
        assert_eq!(opts.shards, None);
        assert_eq!(opts.target, None);
        let opts = parse_args(&argv(&[
            "--synth",
            "50000",
            "--shards",
            "8",
            "--target",
            "spec.json",
        ]))
        .unwrap();
        assert_eq!(opts.synth, Some(50_000));
        assert_eq!(opts.shards, Some(8));
        assert_eq!(opts.target.as_deref(), Some("spec.json"));
        // order-independent: dependents may come first
        let opts = parse_args(&argv(&["--shards", "3", "--synth", "5000"])).unwrap();
        assert_eq!(opts.shards, Some(3));
        // composes with the shared execution flags
        let opts = parse_args(&argv(&[
            "--synth",
            "5000",
            "--jobs",
            "4",
            "--seed",
            "7",
            "--resume",
            "--timings",
        ]))
        .unwrap();
        assert_eq!(opts.synth, Some(5000));
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(opts.seed, 7);
        assert!(opts.resume && opts.timings);
        // value validation
        assert!(parse_args(&argv(&["--synth"])).is_err());
        assert!(parse_args(&argv(&["--synth", "0"])).is_err());
        assert!(parse_args(&argv(&["--synth", "abc"])).is_err());
        assert!(parse_args(&argv(&["--synth", "10", "--shards", "0"])).is_err());
        assert!(parse_args(&argv(&["--synth", "10", "--shards"])).is_err());
        assert!(parse_args(&argv(&["--synth", "10", "--target"])).is_err());
        // dependents demand their parent mode
        for dep in [&["--shards", "4"][..], &["--target", "spec.json"][..]] {
            let err = parse_args(&argv(dep)).unwrap_err();
            assert!(err.contains("--synth"), "{dep:?}: {err}");
        }
        let err = parse_args(&argv(&["--audit", "--shards", "4"])).unwrap_err();
        assert!(err.contains("--shards requires --synth"), "{err}");
        // --synth is a mode: it conflicts with the others
        let err = parse_args(&argv(&["--synth", "10", "--fuzz", "10"])).unwrap_err();
        assert!(err.contains("conflicting flags"), "{err}");
        let err = parse_args(&argv(&["--synth", "10", "--audit"])).unwrap_err();
        assert!(err.contains("conflicting flags"), "{err}");
    }

    #[test]
    fn serve_flags() {
        let opts = parse_args(&argv(&["--serve", "127.0.0.1:0"])).unwrap();
        assert_eq!(opts.serve.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.serve_store, None);
        assert_eq!(opts.serve_inflight, None);
        let opts = parse_args(&argv(&[
            "--serve",
            "127.0.0.1:8080",
            "--serve-store",
            "/tmp/store",
            "--serve-inflight",
            "4",
        ]))
        .unwrap();
        assert_eq!(opts.serve_store.as_deref(), Some("/tmp/store"));
        assert_eq!(opts.serve_inflight, Some(4));
        // value validation and parent requirements
        assert!(parse_args(&argv(&["--serve"])).is_err());
        assert!(parse_args(&argv(&["--serve", "a", "--serve-inflight", "x"])).is_err());
        for dep in [
            &["--serve-store", "/tmp/x"][..],
            &["--serve-inflight", "4"][..],
        ] {
            let err = parse_args(&argv(dep)).unwrap_err();
            assert!(err.contains("--serve"), "{dep:?}: {err}");
        }
        // --serve is a mode: it conflicts with the others
        let err = parse_args(&argv(&["--serve", "a", "--audit"])).unwrap_err();
        assert!(err.contains("conflicting flags"), "{err}");
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        for dup in [
            &["--resume", "--resume"][..],
            &["--audit", "--timings", "--audit"][..],
            &["--seed", "3", "--seed", "4"][..],
            &["--jobs", "2", "--jobs", "2"][..],
            &["--faults", "none", "--faults", "heavy"][..],
            &["--fuzz", "10", "--fuzz", "20"][..],
            &["--only", "table3", "--only", "table4"][..],
            &["--export", "a", "--export", "b"][..],
        ] {
            let err = parse_args(&argv(dup)).unwrap_err();
            assert!(
                err.contains("duplicate flag"),
                "{dup:?} should be a duplicate-flag error, got: {err}"
            );
        }
    }

    #[test]
    fn conflicting_modes_are_rejected() {
        for conflict in [
            &["--audit", "--faults", "none"][..],
            &["--list", "--ablations"][..],
            &["--fuzz", "10", "--audit"][..],
            &["--export", "--only", "table3"][..],
            &["--only", "table3", "--ablations"][..],
            &["--fuzz", "10", "--faults", "heavy"][..],
            &["--list", "--export"][..],
        ] {
            let err = parse_args(&argv(conflict)).unwrap_err();
            assert!(
                err.contains("conflicting flags"),
                "{conflict:?} should be a mode conflict, got: {err}"
            );
        }
        // both flags are named in the diagnosis
        let err = parse_args(&argv(&["--audit", "--fuzz", "10"])).unwrap_err();
        assert!(err.contains("--audit") && err.contains("--fuzz"), "{err}");
    }

    #[test]
    fn dependent_flags_require_their_parent() {
        for (args, parent) in [
            (&["--fault-seed", "3"][..], "--faults"),
            (&["--fault-gate", "0.5"][..], "--faults"),
            (&["--fuzz-seed", "3"][..], "--fuzz"),
            (&["--audit", "--fault-seed", "3"][..], "--faults"),
        ] {
            let err = parse_args(&argv(args)).unwrap_err();
            assert!(
                err.contains(parent),
                "{args:?} should demand {parent}, got: {err}"
            );
        }
        // with the parent present they parse, in any order
        assert!(parse_args(&argv(&["--faults", "none", "--fault-seed", "3"])).is_ok());
        assert!(parse_args(&argv(&["--fault-gate", "0.1", "--faults", "none"])).is_ok());
    }
}
