//! Streaming, sharded, distribution-targeted workload synthesis.
//!
//! [`run_synth`] drives [`squ_workload::QueryStream`] to an arbitrary
//! size without ever materializing the workload: candidates are generated
//! in rounds, each round's index range is split into contiguous shards
//! ([`par::shard_ranges`]) built across `--jobs` workers, and every shard
//! returns only an order-independent [`ShardSummary`] — bucket tallies,
//! mergeable quantile sketches, and the `(index, fingerprint)` pairs of
//! the candidates it accepted. Peak memory is therefore bounded by the
//! round budget, never by `N`.
//!
//! **Byte-identity.** The final [`SynthReport`] is identical for any
//! `--jobs` *and any shard count* because every moving part is either a
//! pure function of `(seed, index)` (stream items, accept/reject draws)
//! or a commutative-exact merge (sketch bucket addition, histogram sums),
//! and shard ranges are contiguous — concatenating their accepted lists
//! in shard order *is* index order. Shard- and job-dependent data (shard
//! count, RSS, wall-clock) goes to `timings.json` instead; the report's
//! chunk fingerprints are the partition-independent identity any shard
//! layout must reproduce.
//!
//! **Feedback.** With a `--target` spec, round 0 only calibrates (the
//! [`Controller`] measures the candidate distribution and accepts
//! nothing); later rounds accept/reject per bucket and anneal the
//! generation profile, steering the accepted histogram toward the target.
//!
//! **Fingerprints.** Accepted items are folded into fixed-size chunks of
//! [`SYNTH_CHUNK`] by accepted rank (`fp_item = hash(index, sql,
//! schema)`, XOR within a chunk), and the chunk fingerprints fold into
//! one total. Chunks cover exactly the first `n` accepted items; the
//! sketches and histograms cover *all* accepted candidates (the final
//! round may overshoot slightly), which `accepted_considered` records.

use crate::par::{self, shard_ranges};
use crate::store::{fp_synth_shard, fp_synth_spec, Fingerprint, Store};
use crate::timing;
use serde::{Deserialize, Serialize};
use squ_engine::RUNTIME_BUCKET_EDGES_MS;
use squ_workload::analysis::default_edges;
use squ_workload::sketch::{exact_quantile, QuantileSketch};
use squ_workload::stream::StreamCursor;
use squ_workload::target::{
    accepts, bucket_index, AcceptRule, AxisReport, Controller, RoundCounts, RoundPlan,
};
use squ_workload::{synth_profile, QueryStream, TargetSpec, Workload};

/// Accepted items are fingerprint-folded in chunks of this many.
pub const SYNTH_CHUNK: u64 = 1 << 16;
/// Hard per-round candidate budget: bounds every per-round allocation
/// (and so peak RSS) independently of `n`.
pub const ROUND_MAX: u64 = 1 << 17;
/// Give up steering after this many rounds.
pub const MAX_ROUNDS: u32 = 64;
/// Exact values are retained for the sketch spot-check only up to this
/// requested size.
pub const SKETCH_CHECK_MAX: u64 = 10_000;

/// Properties summarized with quantile sketches.
const SKETCH_PROPS: [&str; 4] = ["runtime_ms", "char_count", "predicate_count", "join_count"];
/// Properties always histogrammed in the report (the paper's four
/// structural axes plus the engine's runtime buckets).
const HIST_PROPS: [&str; 5] = [
    "table_count",
    "join_count",
    "predicate_count",
    "nestedness",
    "runtime_ms",
];
/// Store stage name for shard summaries.
const STAGE: &str = "synth";

/// Histogram edges of a report property.
fn hist_edges(property: &str) -> Vec<f64> {
    if property == "runtime_ms" {
        RUNTIME_BUCKET_EDGES_MS.to_vec()
    } else {
        default_edges(property)
    }
}

/// One synthesis run's inputs.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Workload whose character the stream mimics.
    pub base: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Requested number of accepted queries.
    pub n: u64,
    /// Shard count (each round's range splits into this many partitions),
    /// from 1 to [`ROUND_MAX`].
    pub shards: usize,
    /// Worker threads building shards.
    pub jobs: usize,
    /// Raw `--target` spec JSON, if any.
    pub target_json: Option<String>,
}

/// Everything one shard reports back from one round. Merging summaries
/// is order-independent (sums, exact sketch merges, and concatenation of
/// index-sorted accepted lists), which is what makes any shard count
/// reproduce the unsharded build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSummary {
    /// Target-axis tallies (empty without a target).
    pub counts: RoundCounts,
    /// Accepted-query histograms, one per property of `HIST_PROPS`, in
    /// its order.
    pub hist: Vec<Vec<u64>>,
    /// Accepted-query sketches, one per property of `SKETCH_PROPS`, in
    /// its order.
    pub sketches: Vec<QuantileSketch>,
    /// `(stream index, item fingerprint)` of accepted candidates, in
    /// ascending index order.
    pub accepted: Vec<(u64, u64)>,
    /// Exact accepted values per sketch property (only for small runs,
    /// for the sketch spot-check; empty otherwise).
    pub exact: Vec<Vec<f64>>,
}

/// Sketch-vs-exact spot check (small runs only).
#[derive(Debug, Clone, Serialize)]
pub struct SketchCheck {
    /// Largest relative error observed over all sketched properties and
    /// checked quantiles.
    pub max_rel_err: f64,
    /// The documented bound the errors are held to.
    pub bound: f64,
    /// Did every check stay within the bound?
    pub pass: bool,
}

/// Quantile summary of one sketched property.
#[derive(Debug, Clone, Serialize)]
pub struct SketchSummary {
    /// Property name.
    pub property: String,
    /// Values summarized.
    pub count: u64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Median (within the sketch's relative-error bound).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Histogram of one report property.
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSummary {
    /// Property name.
    pub property: String,
    /// Bucket edges.
    pub edges: Vec<f64>,
    /// Accepted-query counts per bucket.
    pub counts: Vec<u64>,
}

/// The shard-count- and job-count-invariant synthesis report
/// (`target/repro/synth.json`).
#[derive(Debug, Clone, Serialize)]
pub struct SynthReport {
    /// Base workload name.
    pub base: String,
    /// Stream seed.
    pub seed: u64,
    /// Requested size `n`.
    pub requested: u64,
    /// Accepted candidates actually summarized (≥ `requested` unless
    /// exhausted: the final round may overshoot).
    pub accepted_considered: u64,
    /// Candidates generated across all rounds.
    pub candidates: u64,
    /// Rounds run.
    pub rounds: u32,
    /// Accepted / candidates over steering rounds.
    pub acceptance_rate: f64,
    /// Did the accepted distribution reach the target tolerance?
    /// (Trivially true without a target.)
    pub converged: bool,
    /// True if `MAX_ROUNDS` elapsed before `n` acceptances.
    pub exhausted: bool,
    /// The normalized target spec, if any.
    pub target: Option<TargetSpec>,
    /// Per-axis target-vs-achieved summaries (empty without a target).
    pub axes: Vec<AxisReport>,
    /// Histograms, one per property of `HIST_PROPS`.
    pub histograms: Vec<HistogramSummary>,
    /// Quantile summaries, one per property of `SKETCH_PROPS`.
    pub sketches: Vec<SketchSummary>,
    /// XOR-folded item fingerprints per accepted-rank chunk of
    /// [`SYNTH_CHUNK`] (hex); covers exactly the first `requested` items.
    pub chunks: Vec<String>,
    /// Fold of the chunk fingerprints (hex): the dataset identity.
    pub fingerprint: String,
    /// Sketch-vs-exact spot check (small runs only).
    pub sketch_check: Option<SketchCheck>,
}

impl SynthReport {
    /// Pretty JSON rendering (the `synth.json` bytes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("synth report serializes") // lint:allow: plain data structs always serialize
    }
}

/// Fingerprint of one accepted stream item.
fn fp_item(index: u64, sql: &str, schema_name: &str) -> u64 {
    Fingerprint::new("synth-item")
        .num(index)
        .push(sql)
        .push(schema_name)
        .finish()
}

/// Build one shard of one round: walk the stream over `[start,
/// start + len)` under the round's profile, tally every candidate, and
/// summarize the accepted ones. A candidate derives only the values read
/// here: its target axes to decide, and for an accepted one the summary's
/// histogram and sketch values and its text, so a candidate rejected on
/// AST axes alone is never printed or costed.
fn run_shard(
    cfg: &SynthConfig,
    spec: Option<&TargetSpec>,
    plan: &RoundPlan,
    start: u64,
    len: u64,
    collect_exact: bool,
) -> ShardSummary {
    let stream = QueryStream::with_profile(cfg.base, plan.profile.clone(), cfg.seed);
    let mut iter = stream.iter_from(StreamCursor {
        seed: cfg.seed,
        index: start,
    });
    let mut counts = RoundCounts::for_spec(spec);
    let mut hist: Vec<Vec<u64>> = HIST_PROPS
        .iter()
        .map(|p| vec![0u64; hist_edges(p).len() + 1])
        .collect();
    let hist_edge_sets: Vec<Vec<f64>> = HIST_PROPS.iter().map(|p| hist_edges(p)).collect();
    let mut sketches = vec![QuantileSketch::new(); SKETCH_PROPS.len()];
    let mut accepted = Vec::new();
    let mut exact: Vec<Vec<f64>> = vec![Vec::new(); SKETCH_PROPS.len()];
    let axes = spec.map_or(&[][..], |s| &s.axes[..]);
    let mut values = Vec::with_capacity(axes.len());
    for index in start..start + len {
        let c = iter.candidate();
        values.clear();
        values.extend(axes.iter().map(|a| c.value(&a.property)));
        let take = accepts(&plan.accept, cfg.seed, index, &values);
        counts.record(spec, &values, take);
        if !take {
            continue;
        }
        for (h, (prop, edges)) in hist.iter_mut().zip(HIST_PROPS.iter().zip(&hist_edge_sets)) {
            h[bucket_index(edges, c.value(prop))] += 1;
        }
        for (i, prop) in SKETCH_PROPS.iter().enumerate() {
            let v = c.value(prop);
            sketches[i].insert(v);
            if collect_exact {
                exact[i].push(v);
            }
        }
        accepted.push((index, fp_item(index, c.sql(), c.schema_name())));
    }
    ShardSummary {
        counts,
        hist,
        sketches,
        accepted,
        exact,
    }
}

/// Deterministic candidate budget for the next round, derived only from
/// the controller's merged state (so it is identical for any sharding).
fn round_budget(
    cfg: &SynthConfig,
    plan: &RoundPlan,
    controller: &Controller,
    accepted: u64,
) -> u64 {
    let remaining = cfg.n.saturating_sub(accepted);
    match &plan.accept {
        AcceptRule::All => remaining.min(ROUND_MAX),
        AcceptRule::Calibrate => (cfg.n / 2).clamp(256, 8192),
        AcceptRule::Probs(_) => {
            // expect acceptance near the measured steering rate (or the
            // plan's own expected rate before any steering round)
            let rate = if controller.rounds() > 1 {
                controller.acceptance_rate().max(0.01)
            } else {
                expected_rate(plan).max(0.01)
            };
            // Ramp: early steering rounds stay small so the controller
            // corrects course before most of `n` is committed — the first
            // steering probabilities are computed against the calibration
            // profile's candidate mix, which annealing immediately shifts.
            let ramp = accepted.max(512) * 4;
            // Corrective rounds (n reached but the cumulative accepted
            // distribution still off-target) work in `n / 8` slices.
            let goal = if remaining == 0 && !controller.converged() {
                cfg.n / 8
            } else {
                remaining
            };
            (((goal as f64 / rate) * 1.1) as u64).clamp(1024, ROUND_MAX.min(ramp))
        }
    }
}

/// Expected acceptance rate of a plan before it has run: per axis, the
/// mean of its bucket probabilities (candidate-weighted only after the
/// first steering round; uniform here), multiplied across axes.
fn expected_rate(plan: &RoundPlan) -> f64 {
    match &plan.accept {
        AcceptRule::All => 1.0,
        AcceptRule::Calibrate => 0.0,
        AcceptRule::Probs(axes) => axes
            .iter()
            .map(|a| a.probs.iter().sum::<f64>() / a.probs.len().max(1) as f64)
            .product(),
    }
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), or 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches(" kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Run one synthesis (see the module docs). `store` caches per-shard
/// round summaries keyed by [`fp_synth_shard`], so an interrupted run
/// resumes without regenerating finished shards.
pub fn run_synth(cfg: &SynthConfig, mut store: Option<&mut Store>) -> Result<SynthReport, String> {
    let spec = cfg
        .target_json
        .as_deref()
        .map(TargetSpec::from_json)
        .transpose()?;
    if cfg.n == 0 {
        return Err("synth: requested size must be at least 1".into());
    }
    if cfg.shards == 0 {
        return Err("synth: shard count must be at least 1".into());
    }
    // a round never holds more than ROUND_MAX candidates, so more shards
    // would only add empty ones, each costing memory and a scheduled task
    if cfg.shards as u64 > ROUND_MAX {
        return Err(format!(
            "synth: shard count must be at most {ROUND_MAX} (the round budget), got {}",
            cfg.shards
        ));
    }
    let spec_fp = fp_synth_spec(
        cfg.seed,
        cfg.n,
        cfg.base,
        cfg.target_json.as_deref().unwrap_or(""),
    );
    let collect_exact = cfg.n <= SKETCH_CHECK_MAX;

    let mut controller = Controller::new(synth_profile(cfg.base), spec.clone());
    let mut merged_sketches = vec![QuantileSketch::new(); SKETCH_PROPS.len()];
    let mut merged_hist: Vec<Vec<u64>> = HIST_PROPS
        .iter()
        .map(|p| vec![0u64; hist_edges(p).len() + 1])
        .collect();
    let mut exact: Vec<Vec<f64>> = vec![Vec::new(); SKETCH_PROPS.len()];
    let mut chunks: Vec<u64> = Vec::new();
    let mut chunk_acc = 0u64;
    let mut rank = 0u64; // accepted items folded into chunks (≤ n)
    let mut accepted_total = 0u64;
    let mut candidates_total = 0u64;
    let mut next_index = 0u64;

    // Run until `n` items are accepted AND the cumulative accepted
    // distribution is within tolerance: once `n` is reached, further
    // corrective rounds only widen `accepted_considered` (the chunk
    // fingerprints stay fixed at the first `n`).
    while (accepted_total < cfg.n || !controller.converged()) && controller.rounds() < MAX_ROUNDS {
        let plan = controller.plan();
        let budget = round_budget(cfg, &plan, &controller, accepted_total);
        let ranges = shard_ranges(next_index, budget, cfg.shards);

        // prefetch cached shard summaries; compute the misses in parallel
        let mut slots: Vec<Option<ShardSummary>> = Vec::with_capacity(cfg.shards);
        let mut pending: Vec<(usize, (u64, u64))> = Vec::new();
        for (k, &range) in ranges.iter().enumerate() {
            let cached = store.as_mut().and_then(|s| {
                s.load_value::<ShardSummary>(
                    STAGE,
                    &shard_name(plan.round, k, cfg.shards),
                    fp_synth_shard(spec_fp, plan.round, k, cfg.shards),
                )
            });
            if cached.is_none() {
                pending.push((k, range));
            }
            slots.push(cached);
        }
        let computed = par::map(cfg.jobs, pending, |(k, (start, len))| {
            (
                k,
                run_shard(cfg, spec.as_ref(), &plan, start, len, collect_exact),
            )
        });
        for (k, summary) in computed {
            if let Some(s) = store.as_mut() {
                s.save_value(
                    STAGE,
                    &shard_name(plan.round, k, cfg.shards),
                    fp_synth_shard(spec_fp, plan.round, k, cfg.shards),
                    &summary,
                );
            }
            slots[k] = Some(summary);
        }

        // merge in shard order: ranges are contiguous and ascending, so
        // this is index order for any shard count
        let mut round_counts = RoundCounts::for_spec(spec.as_ref());
        for slot in slots {
            let summary = slot.expect("every shard slot filled"); // lint:allow: compute loop fills every miss
            round_counts.merge(&summary.counts);
            for (m, s) in merged_sketches.iter_mut().zip(&summary.sketches) {
                m.merge(s);
            }
            for (m, h) in merged_hist.iter_mut().zip(&summary.hist) {
                for (a, b) in m.iter_mut().zip(h) {
                    *a += b;
                }
            }
            for (e, v) in exact.iter_mut().zip(&summary.exact) {
                e.extend_from_slice(v);
            }
            for &(index, fp) in &summary.accepted {
                if rank < cfg.n {
                    chunk_acc ^= fp.rotate_left((index % 63) as u32);
                    rank += 1;
                    if rank % SYNTH_CHUNK == 0 {
                        chunks.push(chunk_acc);
                        chunk_acc = 0;
                    }
                }
            }
            accepted_total += summary.accepted.len() as u64;
        }
        candidates_total += round_counts.candidates;
        controller.observe(&round_counts);
        next_index += budget;
    }
    if rank > 0 && rank % SYNTH_CHUNK != 0 {
        chunks.push(chunk_acc);
    }

    let mut total_fp = Fingerprint::new("synth-total");
    total_fp.num(spec_fp).num(rank);
    for &c in &chunks {
        total_fp.num(c);
    }

    let sketch_check = collect_exact.then(|| {
        let bound = QuantileSketch::RELATIVE_ERROR + 1e-9;
        let mut max_rel_err = 0.0_f64;
        for (sketch, values) in merged_sketches.iter().zip(&exact) {
            for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
                let (Some(approx), Some(exact)) = (sketch.quantile(q), exact_quantile(values, q))
                else {
                    continue;
                };
                let err = if exact.abs() < 1e-12 {
                    approx.abs()
                } else {
                    (approx - exact).abs() / exact.abs()
                };
                max_rel_err = max_rel_err.max(err);
            }
        }
        SketchCheck {
            max_rel_err,
            bound,
            pass: max_rel_err <= bound,
        }
    });

    timing::count("synth.candidates", candidates_total);
    timing::count("synth.accepted", accepted_total);
    timing::count("synth.rounds", u64::from(controller.rounds()));
    timing::count("synth.shards", cfg.shards as u64);
    timing::count("synth.peak_rss_kb", peak_rss_kb());

    Ok(SynthReport {
        base: cfg.base.name().to_string(),
        seed: cfg.seed,
        requested: cfg.n,
        accepted_considered: accepted_total,
        candidates: candidates_total,
        rounds: controller.rounds(),
        acceptance_rate: controller.acceptance_rate(),
        converged: controller.converged(),
        exhausted: accepted_total < cfg.n,
        target: spec,
        axes: controller.axis_reports(),
        histograms: HIST_PROPS
            .iter()
            .zip(merged_hist)
            .map(|(p, counts)| HistogramSummary {
                property: (*p).to_string(),
                edges: hist_edges(p),
                counts,
            })
            .collect(),
        sketches: SKETCH_PROPS
            .iter()
            .zip(&merged_sketches)
            .map(|(p, s)| SketchSummary {
                property: (*p).to_string(),
                count: s.count(),
                min: s.min().unwrap_or(0.0),
                max: s.max().unwrap_or(0.0),
                p50: s.quantile(0.50).unwrap_or(0.0),
                p90: s.quantile(0.90).unwrap_or(0.0),
                p99: s.quantile(0.99).unwrap_or(0.0),
            })
            .collect(),
        chunks: chunks.iter().map(|c| format!("{c:016x}")).collect(),
        fingerprint: format!("{:016x}", total_fp.finish()),
        sketch_check,
    })
}

/// Store entry name of one shard summary.
fn shard_name(round: u32, shard: usize, shards: usize) -> String {
    format!("r{round}-{shard}of{shards}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u64, shards: usize, jobs: usize) -> SynthConfig {
        SynthConfig {
            base: Workload::Sdss,
            seed: 2023,
            n,
            shards,
            jobs,
            target_json: None,
        }
    }

    #[test]
    fn report_is_identical_across_shard_and_job_counts() {
        let baseline = run_synth(&cfg(600, 1, 1), None).unwrap().to_json();
        for (shards, jobs) in [(3, 1), (3, 4), (8, 2)] {
            let got = run_synth(&cfg(600, shards, jobs), None).unwrap().to_json();
            assert_eq!(got, baseline, "shards={shards} jobs={jobs}");
        }
    }

    #[test]
    fn untargeted_run_accepts_everything_in_one_pass_per_budget() {
        let report = run_synth(&cfg(500, 2, 2), None).unwrap();
        assert_eq!(report.accepted_considered, 500);
        assert_eq!(report.candidates, 500);
        assert!((report.acceptance_rate - 1.0).abs() < 1e-12);
        assert!(report.converged);
        assert!(!report.exhausted);
        assert_eq!(report.chunks.len(), 1);
        assert!(report.sketch_check.as_ref().unwrap().pass);
        // histograms summarize exactly the accepted set
        for h in &report.histograms {
            assert_eq!(h.counts.iter().sum::<u64>(), 500, "{}", h.property);
        }
    }

    #[test]
    fn store_resume_reproduces_the_report() {
        let dir = std::env::temp_dir().join(format!("squ-synth-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = Store::open(&dir);
        let cold = run_synth(&cfg(400, 3, 2), Some(&mut store))
            .unwrap()
            .to_json();
        let warm = run_synth(&cfg(400, 3, 2), Some(&mut store))
            .unwrap()
            .to_json();
        assert_eq!(cold, warm);
        let stats = store.stats().get(STAGE).copied().unwrap_or_default();
        assert!(stats.hits >= 3, "warm run served from the store: {stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn targeted_run_calibrates_then_steers() {
        let target = r#"{"tolerance": 0.1, "axes": [{"property": "nestedness", "edges": [1.0], "weights": [0.6, 0.4]}]}"#;
        let mut c = cfg(300, 2, 2);
        c.target_json = Some(target.to_string());
        let report = run_synth(&c, None).unwrap();
        assert!(
            report.rounds >= 2,
            "calibration plus at least one steering round"
        );
        assert!(report.accepted_considered >= 300);
        assert!(report.candidates > report.accepted_considered);
        assert_eq!(report.axes.len(), 1);
        assert!(report.acceptance_rate > 0.0 && report.acceptance_rate < 1.0);
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        let mut c = cfg(0, 1, 1);
        assert!(run_synth(&c, None).unwrap_err().contains("size"));
        c.n = 10;
        c.shards = 0;
        assert!(run_synth(&c, None).unwrap_err().contains("shard"));
        c.shards = ROUND_MAX as usize + 1;
        assert!(run_synth(&c, None).unwrap_err().contains("shard"));
        c.shards = 1;
        c.target_json = Some("not json".into());
        assert!(run_synth(&c, None).unwrap_err().contains("target spec"));
    }

    #[test]
    fn peak_rss_reads_proc_on_linux() {
        #[cfg(target_os = "linux")]
        assert!(peak_rss_kb() > 0);
        #[cfg(not(target_os = "linux"))]
        let _ = peak_rss_kb();
    }
}
