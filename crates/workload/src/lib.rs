//! # squ-workload — the four benchmark workloads and their analysis
//!
//! Builds the paper's sampled query datasets (SDSS 285, SQLShare 250,
//! Join-Order 157, Spider 200) with quota-controlled, schema-aware random
//! generation; extracts the ten syntactic query properties of §2.1; and
//! provides the histogram / Pearson-correlation analyses behind the paper's
//! Figures 1–4 and Table 2.
//!
//! Beyond the pinned paper datasets, the crate scales out: [`stream`] is a
//! constant-memory, cursor-resumable query stream whose items depend only
//! on `(seed, index)` — the substrate for sharded million-query synthesis —
//! [`sketch`] summarizes streamed distributions with a mergeable quantile
//! sketch, and [`target`] steers synthesis toward a requested histogram
//! shape with a round-based accept/reject controller.
//!
//! ```
//! use squ_workload::{build, Workload};
//! let sdss = build(Workload::Sdss, 2023);
//! assert_eq!(sdss.len(), 285);
//! assert!(sdss.queries[0].elapsed_ms.is_some());
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod describe;
pub mod gen;
mod props;
pub mod sketch;
pub mod stream;
pub mod target;
mod workloads;

pub use props::{
    function_count, join_count, predicate_count, query_props, select_column_count, table_count,
    uses_aggregate, QueryProps,
};
pub use sketch::{exact_quantile, QuantileSketch};
pub use stream::{
    mix, synth_profile, Candidate, QueryStream, StreamCursor, StreamIter, MAX_COLLECT,
};
pub use target::{accepts, AcceptRule, Controller, RoundCounts, RoundPlan, TargetSpec};
pub use workloads::{base_profile, build, build_all, schema_for, Dataset, Workload, WorkloadQuery};
