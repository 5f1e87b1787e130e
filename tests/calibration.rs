//! Calibration regression net: the *measured* end-to-end metrics for every
//! (model, task, dataset) cell must stay within a fixed band of the
//! paper's published values. This is the widest guard in the repository:
//! a regression anywhere in the stack (generation, injection, simulation,
//! prompting, extraction, metrics) moves these numbers.
//!
//! The band is ±0.12 F1 — tight enough to catch real drift, loose enough
//! for the differences that are expected by design (regenerated datasets,
//! convention notes in EXPERIMENTS.md).

use squ::{Suite, PAPER_SEED};
use squ_eval::BinaryCounts;
use squ_llm::{run_task_direct, DatasetId, ModelId, SimulatedModel};
use squ_tasks::{EquivTask, PerfTask, SyntaxTask, TokenTask};
use squ_workload::Workload;
use std::sync::OnceLock;

fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| Suite::new(PAPER_SEED))
}

const TOLERANCE: f64 = 0.12;

fn paper_f1(p: f64, r: f64) -> f64 {
    2.0 * p * r / (p + r)
}

fn check(task: &str, m: ModelId, w: &str, measured: f64, paper: f64, failures: &mut Vec<String>) {
    if (measured - paper).abs() > TOLERANCE {
        failures.push(format!(
            "{task}/{m}/{w}: measured F1 {measured:.2} vs paper {paper:.2}"
        ));
    }
}

/// Table 3 (binary): every cell within the band.
#[test]
fn syntax_error_f1_within_band() {
    use squ_llm::profiles::syntax_error_target;
    let mut failures = Vec::new();
    for w in Workload::task_workloads() {
        for m in ModelId::ALL {
            let outcomes = run_task_direct(
                &SyntaxTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().syntax_for(w),
            );
            let c = BinaryCounts::from_pairs(
                outcomes.iter().map(|o| (o.example.has_error, o.said_error)),
            );
            let t = syntax_error_target(m, DatasetId::from(w));
            check(
                "syntax",
                m,
                w.name(),
                c.f1(),
                paper_f1(t.precision, t.recall),
                &mut failures,
            );
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Table 4 (binary): every cell within the band.
#[test]
fn miss_token_f1_within_band() {
    use squ_llm::profiles::miss_token_target;
    let mut failures = Vec::new();
    for w in Workload::task_workloads() {
        for m in ModelId::ALL {
            let outcomes = run_task_direct(
                &TokenTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().tokens_for(w),
            );
            let c = BinaryCounts::from_pairs(
                outcomes
                    .iter()
                    .map(|o| (o.example.has_missing, o.said_missing)),
            );
            let t = miss_token_target(m, DatasetId::from(w));
            check(
                "token",
                m,
                w.name(),
                c.f1(),
                paper_f1(t.precision, t.recall),
                &mut failures,
            );
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Table 6: every model within the band.
#[test]
fn perf_f1_within_band() {
    use squ_llm::profiles::perf_target;
    let mut failures = Vec::new();
    for m in ModelId::ALL {
        let outcomes = run_task_direct(
            &PerfTask,
            &SimulatedModel::new(m),
            DatasetId::Sdss,
            suite().perf(),
        );
        let c = BinaryCounts::from_pairs(
            outcomes
                .iter()
                .map(|o| (o.example.is_costly, o.said_costly)),
        );
        let t = perf_target(m);
        check(
            "perf",
            m,
            "SDSS",
            c.f1(),
            paper_f1(t.precision, t.recall),
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Table 7 (binary): every cell within the band.
#[test]
fn equiv_f1_within_band() {
    use squ_llm::profiles::equiv_target;
    let mut failures = Vec::new();
    for w in Workload::task_workloads() {
        for m in ModelId::ALL {
            let outcomes = run_task_direct(
                &EquivTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().equiv_for(w),
            );
            let c = BinaryCounts::from_pairs(
                outcomes
                    .iter()
                    .map(|o| (o.example.equivalent, o.said_equivalent)),
            );
            let t = equiv_target(m, DatasetId::from(w));
            check(
                "equiv",
                m,
                w.name(),
                c.f1(),
                paper_f1(t.precision, t.recall),
                &mut failures,
            );
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Table 5: hit rates within ±0.12, and MAE ordering preserved per
/// dataset (GPT4 strictly best).
#[test]
fn location_hit_rate_within_band() {
    use squ_eval::LocationStats;
    use squ_llm::profiles::miss_token_loc_target;
    let mut failures = Vec::new();
    for w in Workload::task_workloads() {
        for m in ModelId::ALL {
            let outcomes = run_task_direct(
                &TokenTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().tokens_for(w),
            );
            let stats = LocationStats::from_pairs(outcomes.iter().filter_map(|o| {
                match (o.example.position, o.said_position) {
                    (Some(t), Some(p)) => Some((t, p)),
                    _ => None,
                }
            }));
            let (_, hr) = miss_token_loc_target(m, DatasetId::from(w));
            if (stats.hit_rate() - hr).abs() > TOLERANCE {
                failures.push(format!(
                    "loc/{m}/{}: measured HR {:.2} vs paper {hr:.2}",
                    w.name(),
                    stats.hit_rate()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
