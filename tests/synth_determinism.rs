//! Sharded, parallel workload synthesis must be a pure optimization:
//! the synthesis report built on any `(jobs, shards)` combination is
//! byte-identical to the sequential single-shard build, and a stream
//! resumed from a cursor reproduces the exact suffix the uninterrupted
//! stream would have produced. Pinned report digests hold the reports
//! themselves fixed, so a change that alters every layout alike (a value
//! derived from the wrong candidate, say) fails too.

use squ::workload::{synth_profile, QueryStream, StreamCursor, Workload};
use squ::{run_synth, SynthConfig};

fn cfg(n: u64, shards: usize, jobs: usize, target_json: Option<String>) -> SynthConfig {
    SynthConfig {
        base: Workload::Sdss,
        seed: squ::PAPER_SEED,
        n,
        shards,
        jobs,
        target_json,
    }
}

#[test]
fn synthesis_is_byte_identical_across_jobs_and_shards() {
    let n = 10_000;
    let baseline = run_synth(&cfg(n, 1, 1, None), None)
        .expect("baseline synthesis")
        .to_json();
    for jobs in [1usize, 2, 4] {
        for shards in [1usize, 3, 8] {
            if (jobs, shards) == (1, 1) {
                continue;
            }
            let got = run_synth(&cfg(n, shards, jobs, None), None)
                .expect("sharded synthesis")
                .to_json();
            assert_eq!(
                got, baseline,
                "synth report drifted at jobs={jobs} shards={shards}"
            );
        }
    }
}

#[test]
fn targeted_synthesis_is_byte_identical_across_jobs_and_shards() {
    // A targeted run exercises the full round loop: calibration, steering
    // probabilities, profile annealing, and multi-round budget ramping.
    let target = r#"{"tolerance": 0.1, "axes": [{"property": "nestedness",
        "edges": [1.0], "weights": [0.55, 0.45]}]}"#;
    let n = 4_000;
    let baseline = run_synth(&cfg(n, 1, 1, Some(target.into())), None)
        .expect("baseline targeted synthesis")
        .to_json();
    for (jobs, shards) in [(2usize, 3usize), (4, 8), (1, 5)] {
        let got = run_synth(&cfg(n, shards, jobs, Some(target.into())), None)
            .expect("sharded targeted synthesis")
            .to_json();
        assert_eq!(
            got, baseline,
            "targeted synth report drifted at jobs={jobs} shards={shards}"
        );
    }
}

#[test]
fn cursor_resume_reproduces_the_exact_suffix() {
    let stream = QueryStream::with_profile(
        Workload::Sdss,
        synth_profile(Workload::Sdss),
        squ::PAPER_SEED,
    );
    let mut iter = stream.iter();
    let mut prefix = Vec::new();
    for _ in 0..500 {
        prefix.push(iter.next().expect("stream is infinite"));
    }
    let cursor = iter.cursor();
    assert_eq!(
        cursor,
        StreamCursor {
            seed: squ::PAPER_SEED,
            index: 500
        }
    );
    // continue the original iterator...
    let suffix: Vec<_> = (0..500)
        .map(|_| iter.next().expect("stream is infinite"))
        .collect();
    // ...and independently resume a fresh iterator from the cursor
    let resumed: Vec<_> = stream.iter_from(cursor).take(500).collect();
    for (i, (a, b)) in suffix.iter().zip(&resumed).enumerate() {
        assert_eq!(a.id, b.id, "id diverged at suffix offset {i}");
        assert_eq!(a.sql, b.sql, "sql diverged at suffix offset {i}");
        assert_eq!(
            a.elapsed_ms, b.elapsed_ms,
            "elapsed diverged at suffix offset {i}"
        );
    }
    // the resumed items never depend on the prefix having been generated
    let direct = stream.get(750);
    assert_eq!(direct.sql, resumed[250].sql);
    assert_eq!(direct.id, resumed[250].id);
}

/// FNV-1a (64-bit) over a report's JSON bytes.
fn digest(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(spec, report digest)` for the five kinds of run: untargeted,
/// nestedness × join count, runtime, characters, and columns × words.
/// Each target shifts about a tenth of the untargeted stream's mass, so
/// every run converges within a few rounds.
const SDSS_PINS: [(Option<&str>, u64); 5] = [
    (None, 0xba32_035a_e46c_63eb),
    (
        Some(
            r#"{"tolerance": 0.1, "axes": [
            {"property": "nestedness", "edges": [1.0], "weights": [0.75, 0.25]},
            {"property": "join_count", "edges": [2.0], "weights": [0.75, 0.25]}]}"#,
        ),
        0x89b4_21a3_841b_fda2,
    ),
    (
        Some(
            r#"{"tolerance": 0.1, "axes": [
            {"property": "runtime_ms", "edges": [10.0, 100.0], "weights": [0.3, 0.2, 0.5]}]}"#,
        ),
        0xc768_9881_2ce1_b6ec,
    ),
    (
        Some(
            r#"{"tolerance": 0.1, "axes": [
            {"property": "char_count", "edges": [150.0, 300.0], "weights": [0.3, 0.5, 0.2]}]}"#,
        ),
        0xad2b_bef1_cb22_3b0a,
    ),
    (
        Some(
            r#"{"tolerance": 0.1, "axes": [
            {"property": "column_count", "edges": [3.0], "weights": [0.4, 0.6]},
            {"property": "word_count", "edges": [25.0, 50.0], "weights": [0.25, 0.55, 0.2]}]}"#,
        ),
        0xeaf2_f00b_2ac5_3354,
    ),
];

/// The same five kinds for Join-Order, whose stream never nests and
/// whose queries are longer and join more.
const JOIN_ORDER_PINS: [(Option<&str>, u64); 5] = [
    (None, 0x8327_afc1_0980_3ecd),
    (
        Some(
            r#"{"tolerance": 0.1, "axes": [
            {"property": "nestedness", "edges": [1.0], "weights": [1.0, 0.0]},
            {"property": "join_count", "edges": [4.0], "weights": [0.25, 0.75]}]}"#,
        ),
        0x1787_8a27_69a4_585e,
    ),
    (
        Some(
            r#"{"tolerance": 0.1, "axes": [
            {"property": "runtime_ms", "edges": [100.0, 1000.0], "weights": [0.45, 0.4, 0.15]}]}"#,
        ),
        0x99bb_8e47_78e5_7762,
    ),
    (
        Some(
            r#"{"tolerance": 0.1, "axes": [
            {"property": "char_count", "edges": [500.0, 600.0], "weights": [0.4, 0.3, 0.3]}]}"#,
        ),
        0x442c_0964_7f32_2b72,
    ),
    (
        Some(
            r#"{"tolerance": 0.1, "axes": [
            {"property": "column_count", "edges": [2.0], "weights": [0.5, 0.5]},
            {"property": "word_count", "edges": [80.0], "weights": [0.35, 0.65]}]}"#,
        ),
        0xb9d5_be0e_fc13_243e,
    ),
];

#[test]
fn synthesis_reports_match_their_pinned_digests() {
    for (base, pins) in [
        (Workload::Sdss, SDSS_PINS),
        (Workload::JoinOrder, JOIN_ORDER_PINS),
    ] {
        for (spec, want) in pins {
            let cfg = SynthConfig {
                base,
                seed: squ::PAPER_SEED,
                n: 1_000,
                shards: 3,
                jobs: 2,
                target_json: spec.map(str::to_string),
            };
            let report = run_synth(&cfg, None).expect("pinned synthesis");
            assert!(report.converged && !report.exhausted, "{base:?} {spec:?}");
            assert_eq!(
                digest(&report.to_json()),
                want,
                "{base:?} report drifted for spec {spec:?}"
            );
        }
    }
}
