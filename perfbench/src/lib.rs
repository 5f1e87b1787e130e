//! The squ benchmark: four seeded workloads (`paper`, `audit`, `synth`,
//! `serve`) driven from outside the program through each crate's public
//! functions, with an optional traced run that attributes time to layers.
//!
//! One call of [`run`] is one *iteration*: a cold run of a workload in a
//! fresh process. `run.py` repeats iterations in fresh processes, takes
//! medians and prints the end-to-end metrics; see `README.md`.

mod audit;
pub mod layers;
mod paper;
mod serve;
mod synth;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Inputs of one iteration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: it orders `paper`'s experiments, picks `synth`'s
    /// shard layout and draws `serve`'s request stream. Suites, datasets
    /// and the synthesis stream are always the paper seed's.
    pub seed: u64,
    /// Worker threads or connections (at most the machine's cores).
    pub jobs: usize,
    /// The reduced sizes the benchmark's own tests use.
    pub small: bool,
    /// Stop once the timed phase would begin (set-up samples only).
    pub setup_only: bool,
    /// Directory for the iteration's working files (the serve store).
    pub work_dir: PathBuf,
}

/// What one iteration measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds from the iteration's start until its timed phase began.
    pub setup_s: f64,
    /// Seconds of the timed phase.
    pub wall_s: f64,
    /// Peak resident memory of the process at the end of the timed phase.
    pub peak_rss_kb: u64,
    /// Operations (checks or requests) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Digest of the outputs; iterations of one seed must agree on it.
    pub digest: String,
    /// Latency in ms of each request: every `/eval` on `serve`, the whole
    /// timed phase on the batch workloads; `None` for a failed request.
    pub latencies_ms: Vec<Option<f64>>,
    /// Workload facts worth printing (hit share, sizes).
    pub facts: BTreeMap<String, f64>,
    /// Per-layer metrics the workload measured directly; they override
    /// the values derived from the trace.
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Wall-clock seconds since the Unix epoch. `run.py` reads the same clock
/// when it spawns the iteration, so set-up time includes process start.
pub fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Marks the phases of one iteration.
pub struct Clock {
    started_unix: f64,
    timed: Option<Instant>,
    timed_unix: f64,
}

impl Clock {
    /// `started_unix` is when the iteration's process was spawned.
    pub fn new(started_unix: f64) -> Clock {
        Clock {
            started_unix,
            timed: None,
            timed_unix: 0.0,
        }
    }

    /// The timed phase begins now.
    pub fn begin_timed(&mut self) {
        self.timed_unix = unix_now();
        self.timed = Some(Instant::now());
    }

    /// Seconds of set-up before [`Clock::begin_timed`].
    pub fn setup_s(&self) -> f64 {
        (self.timed_unix - self.started_unix).max(0.0)
    }

    /// Seconds since [`Clock::begin_timed`].
    pub fn timed_s(&self) -> f64 {
        self.timed.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }
}

/// Run one iteration of `workload`.
pub fn run(workload: &str, cfg: &Config, clock: Clock) -> Result<Outcome, String> {
    match workload {
        "paper" => Ok(paper::run(cfg, clock)),
        "audit" => Ok(audit::run(cfg, clock)),
        "synth" => synth::run(cfg, clock),
        "serve" => serve::run(cfg, clock),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// SplitMix64: the benchmark's seeded generator (no dependency).
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub(crate) fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Digest of a list of strings (order matters).
pub(crate) fn digest<'a>(tag: &str, parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut fp = squ::store::Fingerprint::new(tag);
    for p in parts {
        fp.push(p);
    }
    format!("{:016x}", fp.finish())
}
