//! Fault-injection measurement: the benchmark under an unreliable
//! transport (`repro --faults <profile>`).
//!
//! Every reviewable task dataset is run for every model through a
//! fault-injecting [`Transport`], and the outcomes are folded into a
//! [`FaultReport`]: per-call attempt counts, retry exhaustion, the
//! `needs_review` rate the paper routes to manual review, and — the
//! regression surface for the extraction layer — **per-fault-kind
//! survival**: of the calls whose response was corrupted by a given fault
//! kind, how many did the extractors still parse?
//!
//! The sweep is one generic loop over the task registry: every task whose
//! [`squ_tasks::TaskId::reviewable`] flag is set (the explanation task has
//! no `needs_review` notion and is excluded) contributes one cell per
//! `(model, workload)` pair through [`crate::registry::DynTask::call_facts`].
//!
//! The report is deterministic: all randomness hangs off
//! `(fault_seed, profile, model, task, example)` hashes and aggregation
//! happens in fixed (model × task) order, so the JSON artifact is
//! byte-identical for any `--jobs` count. Under the `none` profile the
//! transport is pass-through and the report must match the plain
//! pipeline's behavior exactly — `tests/faults.rs` pins that, and CI gates
//! on the committed `none`-profile baseline.

use crate::registry::{registry, DynTask};
use crate::suite::Suite;
use serde::{Deserialize, Serialize};
use squ_llm::{CallRecord, DatasetId, FaultKind, FaultProfile, ModelId, SimulatedModel, Transport};
use squ_workload::Workload;

/// Survival statistics for one fault kind.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct FaultKindStats {
    /// Stable fault-kind name (`truncation`, `refusal`, …).
    pub kind: String,
    /// Calls whose record saw this fault on at least one attempt.
    pub calls: usize,
    /// Of those, calls the extractors still parsed (`!needs_review`).
    pub survived: usize,
    /// `survived / calls` (1.0 when the kind never fired).
    pub survival_rate: f64,
    /// Of those, calls that ended in the manual-review bucket.
    pub needs_review_rate: f64,
}

/// One (model, task, dataset) cell of the report.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct FaultCell {
    /// Model display name.
    pub model: String,
    /// Task slug (`syntax_error`, `miss_token`, `query_equiv`,
    /// `performance_pred`).
    pub task: String,
    /// Dataset name.
    pub dataset: String,
    /// Logical calls made.
    pub calls: usize,
    /// Total attempts across those calls.
    pub attempts: usize,
    /// Calls that failed open after exhausting retries/budget.
    pub exhausted: usize,
    /// Calls routed to manual review.
    pub needs_review: usize,
}

/// The full fault-injection report behind `target/repro/faults.json`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct FaultReport {
    /// Fault profile name.
    pub profile: String,
    /// Seed of the fault injector (independent of the suite seed).
    pub fault_seed: u64,
    /// Suite master seed.
    pub suite_seed: u64,
    /// Logical calls across all cells.
    pub calls: usize,
    /// Attempts across all cells (≥ `calls`; the excess is retries).
    pub attempts: usize,
    /// Calls that failed open.
    pub exhausted: usize,
    /// Calls in the manual-review bucket.
    pub needs_review: usize,
    /// `needs_review / calls`.
    pub needs_review_rate: f64,
    /// Per-fault-kind extraction survival, in [`FaultKind::ALL`] order.
    pub by_fault: Vec<FaultKindStats>,
    /// Per-(model, task, dataset) cells, in fixed enumeration order.
    pub cells: Vec<FaultCell>,
}

impl FaultReport {
    /// Pretty JSON (stable field and row order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault report serializes") // lint:allow: plain data structs always serialize
    }

    /// Survival stats for one kind, if it appears in the report.
    pub fn fault_stats(&self, kind: FaultKind) -> Option<&FaultKindStats> {
        self.by_fault.iter().find(|s| s.kind == kind.name())
    }
}

/// `(needs_review, call record)` — the per-call facts the report folds.
type CallFact = (bool, CallRecord);

/// One unit of fan-out work: a model over one task dataset.
#[derive(Clone, Copy)]
struct FaultJob {
    model: ModelId,
    task: &'static dyn DynTask,
    workload: Workload,
}

impl FaultJob {
    /// The dataset label of the report cell. Multi-workload tasks use the
    /// dataset display name; single-workload tasks keep the historical
    /// lowercase slug (`performance_pred` has always reported `sdss`).
    fn dataset_label(&self) -> String {
        if self.task.id().workloads().len() > 1 {
            DatasetId::from(self.workload).name().to_string()
        } else {
            self.workload.name().to_lowercase()
        }
    }
}

/// Run the full fault-injection sweep and fold the report.
///
/// Fans (model × task × dataset) cells over `jobs` worker threads;
/// results are aggregated in enumeration order, so the report — and its
/// JSON — is identical for any job count.
pub fn run_fault_report(
    suite: &Suite,
    profile: FaultProfile,
    fault_seed: u64,
    jobs: usize,
) -> FaultReport {
    let mut queue: Vec<FaultJob> = Vec::new();
    for model in ModelId::ALL {
        for w in Workload::task_workloads() {
            for task in registry() {
                if task.id().reviewable() && task.id().workloads().len() > 1 {
                    queue.push(FaultJob {
                        model,
                        task,
                        workload: w,
                    });
                }
            }
        }
        for task in registry() {
            if task.id().reviewable() && task.id().workloads().len() == 1 {
                queue.push(FaultJob {
                    model,
                    task,
                    workload: task.id().workloads()[0],
                });
            }
        }
    }

    let results: Vec<(FaultJob, Vec<CallFact>)> = crate::par::map(jobs, queue, |job| {
        let client = Transport::new(SimulatedModel::new(job.model), profile, fault_seed);
        let facts = suite
            .set(job.task.id(), job.workload)
            .map(|set| {
                job.task
                    .call_facts(&client, DatasetId::from(job.workload), set.examples())
            })
            .unwrap_or_default();
        (job, facts)
    });

    fold_report(suite.seed, profile, fault_seed, &results)
}

/// Fold per-call facts into the report (pure, order-preserving).
fn fold_report(
    suite_seed: u64,
    profile: FaultProfile,
    fault_seed: u64,
    results: &[(FaultJob, Vec<CallFact>)],
) -> FaultReport {
    let mut cells = Vec::with_capacity(results.len());
    let mut kind_calls = vec![0usize; FaultKind::ALL.len()];
    let mut kind_survived = vec![0usize; FaultKind::ALL.len()];
    let (mut calls, mut attempts, mut exhausted, mut needs_review) = (0, 0, 0, 0);

    for (job, facts) in results {
        let mut cell = FaultCell {
            model: job.model.name().to_string(),
            task: job.task.id().name().to_string(),
            dataset: job.dataset_label(),
            calls: facts.len(),
            attempts: 0,
            exhausted: 0,
            needs_review: 0,
        };
        for (review, rec) in facts {
            cell.attempts += rec.attempts as usize;
            cell.exhausted += rec.exhausted as usize;
            cell.needs_review += *review as usize;
            for (i, kind) in FaultKind::ALL.iter().enumerate() {
                if rec.saw(*kind) {
                    kind_calls[i] += 1;
                    kind_survived[i] += !review as usize;
                }
            }
        }
        calls += cell.calls;
        attempts += cell.attempts;
        exhausted += cell.exhausted;
        needs_review += cell.needs_review;
        cells.push(cell);
    }

    let by_fault = FaultKind::ALL
        .iter()
        .enumerate()
        .map(|(i, kind)| FaultKindStats {
            kind: kind.name().to_string(),
            calls: kind_calls[i],
            survived: kind_survived[i],
            survival_rate: if kind_calls[i] == 0 {
                1.0
            } else {
                kind_survived[i] as f64 / kind_calls[i] as f64
            },
            needs_review_rate: if kind_calls[i] == 0 {
                0.0
            } else {
                (kind_calls[i] - kind_survived[i]) as f64 / kind_calls[i] as f64
            },
        })
        .collect();

    FaultReport {
        profile: profile.name.to_string(),
        fault_seed,
        suite_seed,
        calls,
        attempts,
        exhausted,
        needs_review,
        needs_review_rate: if calls == 0 {
            0.0
        } else {
            needs_review as f64 / calls as f64
        },
        by_fault,
        cells,
    }
}
