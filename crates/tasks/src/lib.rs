//! # squ-tasks — labeled task-dataset generation
//!
//! Derives the paper's five task datasets (§3.1–3.2) from the sampled
//! workloads, plus a sixth dialect-translation family:
//!
//! * [`syntax`] — six injected syntax-error types, binder-verified;
//! * [`token`] — six missing-token types with exact word positions;
//! * [`equiv`] — ten equivalence + eight non-equivalence transformations,
//!   differentially verified on witness databases;
//! * [`perf`] — the 200 ms SDSS runtime threshold labels;
//! * [`explain`] — Spider queries with reference descriptions and rubric
//!   key facts, incl. the paper's Q15–Q18 case study;
//! * [`translate`] — cross-dialect `(source, target)` query pairs whose
//!   gold translations are differentially verified row-for-row.

#![warn(missing_docs)]

pub mod audit;
pub mod equiv;
pub mod explain;
pub mod normalize;
pub mod perf;
pub mod syntax;
pub mod task;
pub mod token;
pub mod transforms;
pub mod translate;

pub use equiv::{
    apply_equiv, apply_non_equiv, build_equiv_dataset, differential_verdict, EquivExample,
    EquivType, NonEquivType, Verdict,
};
pub use explain::{build_explain_dataset, case_study_queries, key_facts, ExplainExample, KeyFacts};
pub use normalize::{normal_form_sql, normal_forms_equal, normalize};
pub use perf::{build_perf_dataset, PerfExample, COST_THRESHOLD_MS};
pub use syntax::{build_syntax_dataset, inject_error, SyntaxErrorType, SyntaxExample};
pub use token::{build_token_dataset, delete_token, TokenExample, TokenType};
pub use transforms::{transform_catalog, TransformFn, TransformInfo, TransformKind};
pub use translate::{build_translate_dataset, dialect_pairs, translate_query, TranslateExample};

pub use audit::{AuditCtx, CertStats, LintReports, Violation};
pub use task::{
    EquivTask, ExplainTask, GroundTruth, PerfTask, SyntaxTask, Task, TaskId, TokenTask,
    TranslateTask,
};
