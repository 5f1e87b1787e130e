//! `synth`: streamed, distribution-targeted synthesis — `run_synth` with a
//! two-axis target (nestedness × join count). It executes no query and
//! calls no model, so it is the no-change workload for engine-executor and
//! model-pipeline changes, and the only workload where the stream, the
//! cost model, the sketch and the target controller do the work.
//!
//! The stream is the paper seed's, as `repro --synth` streams it: the
//! controller's path, and so the cost, differs by about ten percent from
//! one stream seed to the next. The workload seed picks the shard layout,
//! which the report must not depend on, so every run checks the pinned
//! report fingerprint.

use crate::{layers, trace, Clock, Config, Outcome};
use squ::synth::{peak_rss_kb, SKETCH_CHECK_MAX};
use squ::{run_synth, SynthConfig, PAPER_SEED};
use squ_engine::CostModel;
use squ_workload::{QuantileSketch, QueryStream, Workload};
use std::hint::black_box;

/// Accepted queries per iteration.
const N: u64 = 50_000;
const N_SMALL: u64 = 2_000;
/// Stream items the traced run replays through the inner layers.
const REPLAY_ITEMS: u64 = 20_000;
const REPLAY_ITEMS_SMALL: u64 = 1_000;

/// The two-axis target of the multi-axis convergence test.
const TARGET: &str = r#"{"tolerance": 0.1, "axes": [
    {"property": "nestedness", "edges": [1.0], "weights": [0.75, 0.25]},
    {"property": "join_count", "edges": [2.0], "weights": [0.75, 0.25]}]}"#;

/// Report fingerprint of the [`PAPER_SEED`] stream at [`N`], for any shard
/// layout.
const PAPER_FINGERPRINT: &str = "a4579df43c3a5273";

fn config(cfg: &Config, n: u64) -> SynthConfig {
    SynthConfig {
        base: Workload::Sdss,
        seed: PAPER_SEED,
        n,
        // one to four shards per worker
        shards: cfg.jobs * (1 + (cfg.seed % 4) as usize),
        jobs: cfg.jobs,
        target_json: Some(TARGET.to_string()),
    }
}

pub(crate) fn run(cfg: &Config, mut clock: Clock) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = if cfg.small { N_SMALL } else { N };
    let synth = config(cfg, n);
    clock.begin_timed();
    out.setup_s = clock.setup_s();
    if cfg.setup_only {
        return Ok(out);
    }
    let report = trace::time("core.synth", || run_synth(&synth, None))?;
    out.wall_s = clock.timed_s();
    out.peak_rss_kb = peak_rss_kb();
    // a batch run is one request: its user waits for all of it
    out.latencies_ms = vec![Some(out.wall_s * 1e3)];
    layers::harvest_program_timing();
    trace::count("workload.synth.candidates", report.candidates);
    trace::count("workload.synth.accepted", report.accepted_considered);

    out.check(!report.exhausted, || "synthesis ran out of rounds".into());
    out.check(report.converged, || "synthesis did not converge".into());
    // run_synth keeps exact values for its sketch spot-check only up to
    // SKETCH_CHECK_MAX queries; above that, check a run of that size
    let spot = if n <= SKETCH_CHECK_MAX {
        report.sketch_check.clone()
    } else {
        run_synth(&config(cfg, SKETCH_CHECK_MAX), None)?.sketch_check
    };
    out.check(spot.is_some_and(|s| s.pass), || {
        "sketch spot-check failed".into()
    });
    out.digest = report.fingerprint.clone();
    if !cfg.small {
        out.check(report.fingerprint == PAPER_FINGERPRINT, || {
            format!(
                "report fingerprint {} != pinned {PAPER_FINGERPRINT}",
                report.fingerprint
            )
        });
    }
    out.facts
        .insert("candidates".into(), report.candidates as f64);
    out.facts.insert("rounds".into(), f64::from(report.rounds));

    if trace::enabled() {
        let items = if cfg.small {
            REPLAY_ITEMS_SMALL
        } else {
            REPLAY_ITEMS
        };
        replay(PAPER_SEED, items);
    }
    Ok(out)
}

/// The first `items` stream items: the stream itself, then each item's
/// AST through the printer, the cost model and the sketch.
fn replay(seed: u64, items: u64) {
    let stream = QueryStream::new(Workload::Sdss, seed);
    let queries: Vec<_> = {
        let _r = trace::span("replay.stream");
        let _g = trace::span("workload.stream");
        stream.iter().take(items as usize).collect()
    };
    trace::count("workload.stream.items", queries.len() as u64);
    let _g = trace::span("replay.items");
    let cost = CostModel::default();
    let mut schemas = std::collections::BTreeMap::new();
    let mut sketches = vec![QuantileSketch::new(); 4];
    for q in &queries {
        let Ok(stmt) = squ_parser::parse(&q.sql) else {
            continue;
        };
        let schema = schemas
            .entry(q.schema_name.clone())
            .or_insert_with(|| squ_workload::schema_for(q.workload, &q.schema_name));
        black_box(layers::print(&stmt));
        let ms = trace::time("engine.cost", || cost.estimate_ms(&stmt, schema));
        let _s = trace::span("workload.sketch");
        for (sketch, v) in sketches.iter_mut().zip([
            ms,
            q.props.char_count as f64,
            q.props.predicate_count as f64,
            q.props.join_count as f64,
        ]) {
            sketch.insert(v);
        }
    }
    black_box(sketches);
}
