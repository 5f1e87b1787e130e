//! # squ — the SQL-understanding evaluation benchmark
//!
//! A full Rust reproduction of *Evaluating SQL Understanding in Large
//! Language Models* (EDBT 2025): four sampled SQL workloads, six derived
//! task datasets with machine-verified labels (the paper's five plus a
//! dialect-translation extension), five calibrated LLM simulators, the
//! prompt → response → extraction pipeline, and a reproduction function
//! for **every table and figure** in the paper.
//!
//! ```no_run
//! use squ::{run_experiment, ExperimentId, Suite, PAPER_SEED};
//!
//! let suite = Suite::new(PAPER_SEED);
//! let artifact = run_experiment(&suite, ExperimentId::Table6);
//! println!("{}\n{}", artifact.title, artifact.body);
//! ```
//!
//! Quick orientation:
//!
//! * [`Suite`] — builds all datasets from one master seed;
//! * [`llm::run_task`] — runs any [`llm::ModelClient`] over a task
//!   dataset and extracts predictions from its verbose responses;
//!   [`registry()`] drives it for every task family;
//! * [`run_experiment`] / [`run_all`] — regenerate the paper's artifacts;
//! * [`render`] — plain-text table / bar-chart / CSV rendering.

#![warn(missing_docs)]

pub mod ablations;
pub mod audit;
pub mod experiments;
pub mod export;
pub mod faults;
pub mod fuzz;
pub mod par;
#[cfg(test)]
mod pipeline_tests;
pub mod registry;
pub mod render;
pub mod store;
mod suite;
pub mod synth;
pub mod timing;

pub use ablations::{run_ablation, run_all_ablations, AblationId};
pub use audit::{audit_suite, AuditReport, Violation};
pub use experiments::{run_all, run_experiment, Artifact, ExperimentId};
pub use export::{export_suite, Manifest};
pub use faults::{run_fault_report, FaultCell, FaultKindStats, FaultReport};
pub use fuzz::{run_fuzz, run_fuzz_dialect};
pub use registry::{registry, DynTask};
pub use store::{suite_fingerprint, Store};
pub use suite::{Suite, TaskSet, PAPER_SEED};
pub use synth::{run_synth, SynthConfig, SynthReport};

// Re-export the layers a downstream user composes with.
pub use squ_eval as eval;
pub use squ_llm as llm;
pub use squ_tasks as tasks;
pub use squ_workload as workload;
