//! The benchmark's own checks at a small size: every workload's outputs
//! pass their checks, and two traced runs of the same build record
//! identical per-layer counts (counts, not times).

use serde_json::Value;
use std::process::Command;

fn iteration(workload: &str, traced: bool) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_squ-perfbench"));
    cmd.args([workload, "--seed", "3", "--jobs", "2", "--small"])
        .arg("--work-dir")
        .arg(env!("CARGO_TARGET_TMPDIR"));
    if traced {
        cmd.arg("--trace");
    }
    let out = cmd.output().expect("the worker runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = text.lines().last().expect("one result line");
    serde_json::from_str(last).expect("the result is JSON")
}

fn checks_pass(workload: &str) {
    let r = iteration(workload, false);
    let attempted = r["attempted"].as_u64().unwrap();
    assert!(attempted > 0, "{workload}: nothing checked");
    assert_eq!(
        r["failed"].as_u64(),
        Some(0),
        "{workload}: {}",
        r["failures"]
    );
    assert!(r["wall_s"].as_f64().unwrap() > 0.0);
    assert!(r["peak_rss_kb"].as_u64().unwrap() > 0);
}

fn counts_repeat(workload: &str) {
    let a = iteration(workload, true);
    let b = iteration(workload, true);
    assert_eq!(
        a["failed"].as_u64(),
        Some(0),
        "{workload}: {}",
        a["failures"]
    );
    let Value::Object(counts) = &a["counts"] else {
        panic!("{workload}: no counts")
    };
    assert!(!counts.is_empty(), "{workload}: nothing counted");
    assert_eq!(
        a["counts"].to_string(),
        b["counts"].to_string(),
        "{workload}: traced runs counted differently"
    );
}

#[test]
fn paper_checks_pass_and_counts_repeat() {
    checks_pass("paper");
    counts_repeat("paper");
}

#[test]
fn audit_checks_pass_and_counts_repeat() {
    checks_pass("audit");
    counts_repeat("audit");
}

#[test]
fn synth_checks_pass_and_counts_repeat() {
    checks_pass("synth");
    counts_repeat("synth");
}

#[test]
fn serve_checks_pass_and_counts_repeat() {
    checks_pass("serve");
    counts_repeat("serve");
}

#[test]
fn every_per_layer_metric_of_the_contract_is_computed() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let contract: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Array(per_layer) = &contract["per_layer"] else {
        panic!("per_layer is a list")
    };
    let named: Vec<&str> = per_layer
        .iter()
        .map(|m| m["name"].as_str().expect("a metric name"))
        .collect();
    assert_eq!(named, squ_perfbench::layers::METRICS);
}
