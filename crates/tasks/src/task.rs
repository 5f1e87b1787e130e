//! The [`Task`] abstraction: one trait implemented by each task family
//! (the paper's five plus the dialect-translation extension), so every
//! downstream layer (suite construction, pipeline, audit, faults, export)
//! can iterate a registry of trait objects instead of matching hard-coded
//! variants.
//!
//! The trait lives here — next to the dataset builders — and covers
//! everything derivable from an example alone: identity, dataset
//! construction, the prompt payload, the ground truth handed to
//! simulators, and the static audit of the labels. Model-facing behavior
//! (prompt rendering, response extraction, scoring) extends this trait as
//! `RunTask` in `squ-llm`, which owns the extractors.
//!
//! `TaskId` metadata (names, workloads, schedule class) is the single
//! source of truth the registry exposes; the per-variant `match`es below
//! are the one place in the workspace allowed to enumerate all six tasks.

use crate::audit::AuditCtx;
use crate::equiv::seed_of;
use crate::{
    build_equiv_dataset, build_explain_dataset, build_perf_dataset, build_syntax_dataset,
    build_token_dataset, build_translate_dataset, EquivExample, ExplainExample, KeyFacts,
    PerfExample, SyntaxExample, TokenExample, TokenType, TranslateExample,
};
use serde::{Deserialize, Serialize};
use squ_lexer::word_index_at;
use squ_workload::{Dataset, QueryProps, Workload};

/// The composite task families, one per paper prompt (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskId {
    /// `syntax_error` + `syntax_error_type` (one composite prompt).
    Syntax,
    /// `miss_token` + `miss_token_type` + missing word + `miss_token_loc`.
    MissToken,
    /// `query_equiv` + `query_equiv_type`.
    Equiv,
    /// `performance_pred`.
    Perf,
    /// `query_exp`.
    Explain,
    /// `dialect_translate` (extension beyond the paper's five).
    Translate,
}

impl TaskId {
    /// All six tasks, in canonical registry order. [`TaskId::Translate`]
    /// is appended last so the first five keep their slots (and store
    /// fingerprints) from before the dialect extension.
    pub const ALL: [TaskId; 6] = [
        TaskId::Syntax,
        TaskId::MissToken,
        TaskId::Equiv,
        TaskId::Perf,
        TaskId::Explain,
        TaskId::Translate,
    ];

    /// Paper-style identifier.
    pub fn name(&self) -> &'static str {
        match self {
            TaskId::Syntax => "syntax_error",
            TaskId::MissToken => "miss_token",
            TaskId::Equiv => "query_equiv",
            TaskId::Perf => "performance_pred",
            TaskId::Explain => "query_exp",
            TaskId::Translate => "dialect_translate",
        }
    }

    /// Short slug used in timing spans and audit section names.
    pub fn short(&self) -> &'static str {
        match self {
            TaskId::Syntax => "syntax",
            TaskId::MissToken => "tokens",
            TaskId::Equiv => "equiv",
            TaskId::Perf => "perf",
            TaskId::Explain => "explain",
            TaskId::Translate => "translate",
        }
    }

    /// File-name stem of the task's benchmark export.
    pub fn file_stem(&self) -> &'static str {
        match self {
            TaskId::Syntax => "syntax",
            TaskId::MissToken => "miss_token",
            TaskId::Equiv => "query_equiv",
            TaskId::Perf => "performance_pred",
            TaskId::Explain => "query_exp",
            TaskId::Translate => "dialect_translate",
        }
    }

    /// Workloads the task derives its dataset from.
    pub fn workloads(&self) -> &'static [Workload] {
        const TASK_WORKLOADS: [Workload; 3] =
            [Workload::Sdss, Workload::SqlShare, Workload::JoinOrder];
        match self {
            TaskId::Syntax | TaskId::MissToken | TaskId::Equiv | TaskId::Translate => {
                &TASK_WORKLOADS
            }
            TaskId::Perf => &[Workload::Sdss],
            TaskId::Explain => &[Workload::Spider],
        }
    }

    /// Build-scheduling priority class: lower runs earlier. Equivalence
    /// and translation datasets lead the queue because differential
    /// verification dominates the suite's wall-clock, so they get worker
    /// threads first.
    pub fn schedule_class(&self) -> u8 {
        match self {
            TaskId::Equiv | TaskId::Translate => 0,
            _ => 1,
        }
    }

    /// Whether the task's outcomes carry a `needs_review` bucket (binary
    /// extraction). The explanation task is rubric-scored free text and has
    /// no review routing, so fault-injection sweeps exclude it.
    pub fn reviewable(&self) -> bool {
        !matches!(self, TaskId::Explain)
    }
}

/// Ground truth attached to a request (consumed only by simulators).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum GroundTruth {
    /// Syntax-error task truth.
    Syntax {
        /// Does the query contain an error?
        has_error: bool,
        /// Error-type label if any.
        error_type: Option<String>,
    },
    /// Missing-token task truth.
    Token {
        /// Is a token missing?
        missing: bool,
        /// Token-type label if any.
        token_type: Option<String>,
        /// The removed text.
        removed: Option<String>,
        /// Word position of the removal.
        position: Option<usize>,
        /// Word count of the shown query.
        word_count: usize,
    },
    /// Query-equivalence task truth.
    Equiv {
        /// Are the two queries equivalent?
        equivalent: bool,
        /// Transformation label.
        transform: String,
    },
    /// Performance-prediction task truth.
    Perf {
        /// Is the query costly (> 200 ms)?
        costly: bool,
    },
    /// Explanation task truth.
    Explain {
        /// Reference description.
        reference: String,
        /// Rubric key facts.
        facts: KeyFacts,
        /// The SQL being explained.
        sql: String,
    },
    /// Dialect-translation task truth.
    Translate {
        /// The verified gold translation in the target dialect.
        gold_sql: String,
        /// Target dialect name.
        target: String,
    },
}

/// One task family (the paper's five, or the dialect-translation
/// extension).
///
/// Implementations are stateless unit structs; everything varies through
/// the associated `Example` type and the methods. The contract:
///
/// * [`build`](Task::build) is deterministic in `(dataset, seed)` and is
///   the only way examples come into existence;
/// * [`payload`](Task::payload) is the task-specific part of the prompt
///   (the instruction preamble is owned by `squ-llm`);
/// * [`ground_truth`](Task::ground_truth) packages the labels a simulator
///   consumes (a real API backend never sees it);
/// * [`audit`](Task::audit) statically re-proves every label with the
///   `squ-lint` analyzer, reporting disagreements on the context.
pub trait Task {
    /// The labeled example type this task derives.
    type Example: Clone + Serialize + Deserialize + Send + Sync + 'static;

    /// Which task family this is.
    fn id(&self) -> TaskId;

    /// Bump when the builder's output changes for the same inputs; part of
    /// the artifact-store fingerprint, so stale caches self-invalidate.
    fn version(&self) -> u32 {
        1
    }

    /// Derive the labeled dataset from a sampled workload.
    fn build(&self, ds: &Dataset, seed: u64) -> Vec<Self::Example>;

    /// Stable example id (also the simulator randomness seed component).
    fn example_id<'a>(&self, e: &'a Self::Example) -> &'a str;

    /// The task-specific prompt payload (what follows the instruction).
    fn payload(&self, e: &Self::Example) -> String;

    /// Syntactic properties of the example's (first) query.
    fn props<'a>(&self, e: &'a Self::Example) -> &'a QueryProps;

    /// Ground truth for simulators.
    fn ground_truth(&self, e: &Self::Example) -> GroundTruth;

    /// Statically audit every label against the analyzer.
    fn audit(&self, w: Workload, examples: &[Self::Example], ctx: &mut AuditCtx);
}

/// Word-distance slack allowed between a parse error's reported location
/// and a token deletion's labeled position. The recursive-descent parser
/// cannot reject before the deletion site, but bounded lookahead means the
/// error can surface up to two words earlier than the splice point.
const PARSE_LOCATION_SLACK: usize = 2;

/// The syntax-error detection task (§3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct SyntaxTask;

impl Task for SyntaxTask {
    type Example = SyntaxExample;

    fn id(&self) -> TaskId {
        TaskId::Syntax
    }

    fn build(&self, ds: &Dataset, seed: u64) -> Vec<SyntaxExample> {
        build_syntax_dataset(ds, seed)
    }

    fn example_id<'a>(&self, e: &'a SyntaxExample) -> &'a str {
        &e.query_id
    }

    fn payload(&self, e: &SyntaxExample) -> String {
        e.sql.clone()
    }

    fn props<'a>(&self, e: &'a SyntaxExample) -> &'a QueryProps {
        &e.props
    }

    fn ground_truth(&self, e: &SyntaxExample) -> GroundTruth {
        GroundTruth::Syntax {
            has_error: e.has_error,
            error_type: e.error_type.map(|t| t.label().to_string()),
        }
    }

    /// Syntax positives must carry the labeled diagnostic at the labeled
    /// span; negatives must lint clean.
    fn audit(&self, w: Workload, examples: &[SyntaxExample], ctx: &mut AuditCtx) {
        let name = format!("syntax/{}", w.name());
        for ex in examples {
            let report = ctx.lint(&ex.sql, &ex.schema_name);
            if !ex.has_error {
                ctx.require_clean(&name, &ex.query_id, &report, &ex.sql);
                continue;
            }
            let (Some(ty), Some((start, end))) = (ex.error_type, ex.expected_span) else {
                ctx.violation(
                    &name,
                    &ex.query_id,
                    "positive-label-complete",
                    "positive example lacks error_type or expected_span".into(),
                );
                continue;
            };
            let code = ty.expected_diagnostic().code();
            let hit = report
                .diagnostics
                .iter()
                .any(|d| d.code == code && d.overlaps(start, end));
            if !hit {
                ctx.violation(
                    &name,
                    &ex.query_id,
                    "positive-expected-diagnostic",
                    format!(
                        "no {code} diagnostic overlapping bytes {start}..{end} (got {})",
                        crate::audit::render_codes(&report)
                    ),
                );
            }
        }
    }
}

/// The missing-token task (§3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenTask;

impl Task for TokenTask {
    type Example = TokenExample;

    fn id(&self) -> TaskId {
        TaskId::MissToken
    }

    fn build(&self, ds: &Dataset, seed: u64) -> Vec<TokenExample> {
        build_token_dataset(ds, seed)
    }

    fn example_id<'a>(&self, e: &'a TokenExample) -> &'a str {
        &e.query_id
    }

    fn payload(&self, e: &TokenExample) -> String {
        e.sql.clone()
    }

    fn props<'a>(&self, e: &'a TokenExample) -> &'a QueryProps {
        &e.props
    }

    fn ground_truth(&self, e: &TokenExample) -> GroundTruth {
        GroundTruth::Token {
            missing: e.has_missing,
            token_type: e.token_type.map(|t| t.label().to_string()),
            removed: e.removed_text.clone(),
            position: e.position,
            word_count: e.props.word_count,
        }
    }

    /// Token-deletion positives must be detectable by the analyzer (except
    /// the whole-predicate class), with parse errors locating near the
    /// labeled word position; negatives must lint clean.
    fn audit(&self, w: Workload, examples: &[TokenExample], ctx: &mut AuditCtx) {
        let name = format!("tokens/{}", w.name());
        for ex in examples {
            let report = ctx.lint(&ex.sql, &ex.schema_name);
            if !ex.has_missing {
                ctx.require_clean(&name, &ex.query_id, &report, &ex.sql);
                continue;
            }
            let (Some(ty), Some(position)) = (ex.token_type, ex.position) else {
                ctx.violation(
                    &name,
                    &ex.query_id,
                    "positive-label-complete",
                    "positive example lacks token_type or position".into(),
                );
                continue;
            };
            // The labeled position and the recorded splice offset must agree.
            // A deletion that removed the tail of a word (e.g. the column of a
            // `t.plate` qualified name) leaves the splice point on the word
            // boundary *after* the remaining fragment, so when the splice abuts
            // a preceding non-whitespace character the next word index is also
            // accepted.
            if let Some(at) = ex.removed_at {
                let wi = word_index_at(&ex.sql, at);
                let tail_of_word = at > 0
                    && !ex.sql.as_bytes()[at - 1].is_ascii_whitespace()
                    && wi == position + 1;
                if wi != position && !tail_of_word {
                    ctx.violation(
                        &name,
                        &ex.query_id,
                        "position-matches-splice",
                        format!("splice offset {at} is word {wi}, labeled position {position}"),
                    );
                }
            }
            if ty == TokenType::Predicate {
                // The paper's hard class: deleting a whole predicate often
                // yields a valid query, so no detectability is required.
                continue;
            }
            if report.is_clean() {
                ctx.violation(
                    &name,
                    &ex.query_id,
                    "positive-detectable",
                    format!("deleting {ty} token left an analyzably-clean query"),
                );
                continue;
            }
            // Any parse error must locate at (or within lookahead slack of)
            // the deletion site — the parser cannot reject an intact prefix.
            for d in report.errors() {
                if d.code != "SQU001" && d.code != "SQU002" {
                    continue; // binder errors point at uses, not the splice
                }
                let Some(span) = d.span else { continue };
                let wi = word_index_at(&ex.sql, span.start);
                if wi + PARSE_LOCATION_SLACK < position {
                    ctx.violation(
                        &name,
                        &ex.query_id,
                        "parse-error-near-site",
                        format!(
                            "{} reported at word {wi}, {} words before labeled position {position}",
                            d.code,
                            position - wi
                        ),
                    );
                }
            }
        }
    }
}

/// The query-equivalence task (§3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct EquivTask;

impl Task for EquivTask {
    type Example = EquivExample;

    fn id(&self) -> TaskId {
        TaskId::Equiv
    }

    fn build(&self, ds: &Dataset, seed: u64) -> Vec<EquivExample> {
        build_equiv_dataset(ds, seed)
    }

    fn example_id<'a>(&self, e: &'a EquivExample) -> &'a str {
        &e.query_id
    }

    fn payload(&self, e: &EquivExample) -> String {
        format!("Query 1: {}\nQuery 2: {}", e.sql1, e.sql2)
    }

    fn props<'a>(&self, e: &'a EquivExample) -> &'a QueryProps {
        &e.props
    }

    fn ground_truth(&self, e: &EquivExample) -> GroundTruth {
        GroundTruth::Equiv {
            equivalent: e.equivalent,
            transform: e.transform.clone(),
        }
    }

    /// Both sides of every pair must lint clean; equivalent pairs must have
    /// identical resolution signatures, non-equivalent pairs must differ.
    /// Every pair additionally runs through the `squ-sema` certifier, which
    /// must never contradict the label: an equivalent pair statically
    /// convicted, or a non-equivalent pair certified equivalent, is a
    /// violation. Certifier tallies (including the fraction of
    /// non-equivalence labels proven without execution) accumulate on the
    /// context.
    fn audit(&self, w: Workload, examples: &[EquivExample], ctx: &mut AuditCtx) {
        let name = format!("equiv/{}", w.name());
        for ex in examples {
            let r1 = ctx.lint(&ex.sql1, &ex.schema_name);
            let r2 = ctx.lint(&ex.sql2, &ex.schema_name);
            ctx.require_clean(&name, &ex.query_id, &r1, &ex.sql1);
            ctx.require_clean(&name, &ex.query_id, &r2, &ex.sql2);
            certify_example(&name, ex, ctx);
            if ex.equivalent {
                match (&r1.resolution, &r2.resolution) {
                    (Some(a), Some(b)) if a == b => {}
                    (Some(a), Some(b)) => ctx.violation(
                        &name,
                        &ex.query_id,
                        "equivalent-same-resolution",
                        format!(
                            "{} rewrite changed resolution: {} vs {}",
                            ex.transform,
                            a.render(),
                            b.render()
                        ),
                    ),
                    _ => ctx.violation(
                        &name,
                        &ex.query_id,
                        "equivalent-same-resolution",
                        format!("{} pair has an unanalyzable side", ex.transform),
                    ),
                }
            } else if ex.sql1 == ex.sql2 {
                ctx.violation(
                    &name,
                    &ex.query_id,
                    "non-equivalent-differs",
                    format!("{} pair is textually identical", ex.transform),
                );
            }
        }
    }
}

/// Run one equivalence pair through the static certifier, recording the
/// tally and any label contradiction. Unparseable sides (never produced by
/// the builder) simply count as undecided.
fn certify_example(dataset: &str, ex: &EquivExample, ctx: &mut AuditCtx) {
    use squ_sema::Certificate;

    ctx.certs.pairs += 1;
    if !ex.equivalent {
        ctx.certs.noneq_pairs += 1;
    }
    let (Ok(q1), Ok(q2)) = (
        squ_parser::parse_query(&ex.sql1),
        squ_parser::parse_query(&ex.sql2),
    ) else {
        ctx.certs.certified_unknown += 1;
        return;
    };
    let cert = {
        let schema = ctx.schema(&ex.schema_name);
        squ_sema::certify_pair(&q1, &q2, schema)
    };
    match cert {
        Certificate::Equivalent(reason) => {
            ctx.certs.certified_equivalent += 1;
            if !ex.equivalent {
                ctx.violation(
                    dataset,
                    &ex.query_id,
                    "non-equivalent-not-certified-equivalent",
                    format!(
                        "{} pair is labeled non-equivalent but certified equivalent ({reason})",
                        ex.transform
                    ),
                );
            }
        }
        Certificate::Inequivalent(reason) => {
            ctx.certs.certified_inequivalent += 1;
            if ex.equivalent {
                ctx.violation(
                    dataset,
                    &ex.query_id,
                    "equivalent-not-statically-convicted",
                    format!(
                        "{} pair is labeled equivalent but statically convicted ({reason})",
                        ex.transform
                    ),
                );
            } else {
                ctx.certs.noneq_convicted += 1;
            }
        }
        Certificate::Unknown => ctx.certs.certified_unknown += 1,
    }
}

/// The performance-prediction task (§3.2, SDSS only).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfTask;

impl Task for PerfTask {
    type Example = PerfExample;

    fn id(&self) -> TaskId {
        TaskId::Perf
    }

    fn build(&self, ds: &Dataset, _seed: u64) -> Vec<PerfExample> {
        build_perf_dataset(ds)
    }

    fn example_id<'a>(&self, e: &'a PerfExample) -> &'a str {
        &e.query_id
    }

    fn payload(&self, e: &PerfExample) -> String {
        e.sql.clone()
    }

    fn props<'a>(&self, e: &'a PerfExample) -> &'a QueryProps {
        &e.props
    }

    fn ground_truth(&self, e: &PerfExample) -> GroundTruth {
        GroundTruth::Perf {
            costly: e.is_costly,
        }
    }

    /// Performance examples (real SDSS queries) must lint clean.
    fn audit(&self, _w: Workload, examples: &[PerfExample], ctx: &mut AuditCtx) {
        for ex in examples {
            let report = ctx.lint(&ex.sql, "sdss");
            ctx.require_clean("perf/sdss", &ex.query_id, &report, &ex.sql);
        }
    }
}

/// The query-explanation task (§3.2, Spider only).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExplainTask;

impl Task for ExplainTask {
    type Example = ExplainExample;

    fn id(&self) -> TaskId {
        TaskId::Explain
    }

    fn build(&self, ds: &Dataset, _seed: u64) -> Vec<ExplainExample> {
        build_explain_dataset(ds)
    }

    fn example_id<'a>(&self, e: &'a ExplainExample) -> &'a str {
        &e.query_id
    }

    fn payload(&self, e: &ExplainExample) -> String {
        e.sql.clone()
    }

    fn props<'a>(&self, e: &'a ExplainExample) -> &'a QueryProps {
        &e.props
    }

    fn ground_truth(&self, e: &ExplainExample) -> GroundTruth {
        GroundTruth::Explain {
            reference: e.reference.clone(),
            facts: e.facts.clone(),
            sql: e.sql.clone(),
        }
    }

    /// Explanation examples (Spider queries) must lint clean.
    fn audit(&self, _w: Workload, examples: &[ExplainExample], ctx: &mut AuditCtx) {
        for ex in examples {
            let report = ctx.lint(&ex.sql, &ex.schema_name);
            ctx.require_clean("explain/spider", &ex.query_id, &report, &ex.sql);
        }
    }
}

/// The dialect-translation task (extension beyond the paper's five).
#[derive(Debug, Clone, Copy, Default)]
pub struct TranslateTask;

impl Task for TranslateTask {
    type Example = TranslateExample;

    fn id(&self) -> TaskId {
        TaskId::Translate
    }

    fn build(&self, ds: &Dataset, seed: u64) -> Vec<TranslateExample> {
        build_translate_dataset(ds, seed)
    }

    fn example_id<'a>(&self, e: &'a TranslateExample) -> &'a str {
        &e.query_id
    }

    fn payload(&self, e: &TranslateExample) -> String {
        format!(
            "Source dialect: {}\nTarget dialect: {}\nQuery: {}",
            e.source_dialect, e.target_dialect, e.source_sql
        )
    }

    fn props<'a>(&self, e: &'a TranslateExample) -> &'a QueryProps {
        &e.props
    }

    fn ground_truth(&self, e: &TranslateExample) -> GroundTruth {
        GroundTruth::Translate {
            gold_sql: e.gold_sql.clone(),
            target: e.target_dialect.clone(),
        }
    }

    /// Re-prove every gold translation from scratch: dialect names must
    /// resolve, both surfaces must parse in their own dialect, the
    /// canonical form must lint clean, and source and gold must execute
    /// row-for-row identically on every witness database — on both the
    /// compiled engine and the independent reference interpreter. The
    /// reference interpreter fails with a row-cap error when a FROM list's
    /// cross product is over its cap in size, however much of it WHERE
    /// would prune; the compiled engine's pushdown often avoids that.
    /// Such a witness check is a skip, not a violation, and the skips are
    /// counted per set in `ctx.reference_skips`. This is the
    /// cross-dialect conformance gate: a translation that means something
    /// different than its source cannot pass it.
    fn audit(&self, w: Workload, examples: &[TranslateExample], ctx: &mut AuditCtx) {
        use squ_engine::{reference_query, witness_batch_cached, Prepared};

        let name = format!("translate/{}", w.name());
        ctx.reference_skips.entry(name.clone()).or_insert(0);
        for ex in examples {
            let (Some(from), Some(to)) = (
                squ_dialect::Dialect::by_name(&ex.source_dialect),
                squ_dialect::Dialect::by_name(&ex.target_dialect),
            ) else {
                ctx.violation(
                    &name,
                    &ex.query_id,
                    "dialect-names-resolve",
                    format!(
                        "unresolvable dialect pair {} -> {}",
                        ex.source_dialect, ex.target_dialect
                    ),
                );
                continue;
            };
            let (Ok(q_src), Ok(q_gold)) = (
                squ_parser::parse_query_dialect(&ex.source_sql, from),
                squ_parser::parse_query_dialect(&ex.gold_sql, to),
            ) else {
                ctx.violation(
                    &name,
                    &ex.query_id,
                    "parses-in-own-dialect",
                    format!(
                        "a surface does not parse in its own dialect: `{}` ({}) / `{}` ({})",
                        ex.source_sql, ex.source_dialect, ex.gold_sql, ex.target_dialect
                    ),
                );
                continue;
            };
            // Dialect surfaces may use quoting the Squ lexer rejects; lint
            // the canonical re-print, which carries the same structure.
            let canonical = squ_parser::print_query(&q_src);
            let report = ctx.lint(&canonical, &ex.schema_name);
            ctx.require_clean(&name, &ex.query_id, &report, &canonical);
            let witnesses = {
                let schema = ctx.schema(&ex.schema_name);
                witness_batch_cached(schema, 0xBEE5 ^ seed_of(&ex.schema_name))
            };
            // A gold that parses to its source's AST returns exactly the
            // source's result or error on every witness (both engines are
            // deterministic), so it is not run again: the source's result
            // stands in for it.
            let same = q_src == q_gold;
            let (mut p_src, mut p_gold) = (Prepared::new(&q_src), Prepared::new(&q_gold));
            for (i, db) in witnesses.iter().enumerate() {
                let src = p_src.execute(db).map(|(r, _)| r);
                let gold = (!same).then(|| p_gold.execute(db).map(|(r, _)| r));
                match (&src, gold.as_ref().unwrap_or(&src)) {
                    (Ok(r1), Ok(r2)) => {
                        if !r1.result_equal(r2) {
                            ctx.violation(
                                &name,
                                &ex.query_id,
                                "gold-agrees-on-engine",
                                format!(
                                    "witness {i}: source and gold rows differ ({} -> {})",
                                    ex.source_dialect, ex.target_dialect
                                ),
                            );
                        }
                    }
                    _ => ctx.violation(
                        &name,
                        &ex.query_id,
                        "gold-agrees-on-engine",
                        format!("witness {i}: a side failed to execute"),
                    ),
                }
                // The reference interpreter caps the FROM product by size
                // before filtering it, so it fails on products the
                // compiled engine filters first; its errors are skips.
                let src = reference_query(&q_src, db);
                let gold = (!same).then(|| reference_query(&q_gold, db));
                match (&src, gold.as_ref().unwrap_or(&src)) {
                    (Ok(r1), Ok(r2)) => {
                        if !r1.result_equal(r2) {
                            ctx.violation(
                                &name,
                                &ex.query_id,
                                "gold-agrees-on-reference",
                                format!("witness {i}: reference interpreter disagrees"),
                            );
                        }
                    }
                    _ => *ctx.reference_skips.entry(name.clone()).or_insert(0) += 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_ids_enumerate_all_families() {
        let names: Vec<&str> = TaskId::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            [
                "syntax_error",
                "miss_token",
                "query_equiv",
                "performance_pred",
                "query_exp",
                "dialect_translate"
            ]
        );
    }

    #[test]
    fn workload_lists_match_paper() {
        assert_eq!(TaskId::Syntax.workloads().len(), 3);
        assert_eq!(TaskId::Perf.workloads(), &[Workload::Sdss]);
        assert_eq!(TaskId::Explain.workloads(), &[Workload::Spider]);
        assert!(!TaskId::Explain.reviewable());
        assert!(TaskId::Perf.reviewable());
    }

    #[test]
    fn equiv_schedules_first() {
        let mut order: Vec<TaskId> = TaskId::ALL.to_vec();
        order.sort_by_key(|t| t.schedule_class());
        assert_eq!(order[0], TaskId::Equiv);
        assert_eq!(order[1], TaskId::Translate);
    }

    /// Audit one SDSS translation, `source` in sqlite and `gold` in
    /// postgres, on the witnesses the audit uses for SDSS.
    fn audit_translation(
        source: &str,
        gold: &str,
    ) -> (AuditCtx<'static>, Vec<squ_engine::Database>) {
        let q = squ_parser::parse_query(source).unwrap();
        let ex = TranslateExample {
            query_id: "sdss-t".into(),
            schema_name: "sdss".into(),
            source_dialect: "sqlite".into(),
            target_dialect: "postgres".into(),
            source_sql: source.into(),
            gold_sql: gold.into(),
            props: squ_workload::query_props(source, &squ_parser::Statement::Query(q)),
        };
        let mut ctx = AuditCtx::new(Workload::Sdss);
        TranslateTask.audit(Workload::Sdss, &[ex], &mut ctx);
        let schema = squ_workload::schema_for(Workload::Sdss, "sdss");
        let witnesses = squ_engine::witness_batch(&schema, 0xBEE5 ^ crate::equiv::seed_of("sdss"));
        (ctx, witnesses)
    }

    fn violations<'c>(ctx: &'c AuditCtx, invariant: &str) -> Vec<&'c str> {
        ctx.violations
            .iter()
            .filter(|v| v.invariant == invariant)
            .map(|v| v.detail.as_str())
            .collect()
    }

    #[test]
    fn same_ast_gold_whose_source_fails_is_flagged_on_every_witness() {
        let sql = "SELECT plate FROM NoSuchTable";
        let (ctx, witnesses) = audit_translation(sql, sql);
        let want: Vec<String> = (0..witnesses.len())
            .map(|i| format!("witness {i}: a side failed to execute"))
            .collect();
        assert_eq!(violations(&ctx, "gold-agrees-on-engine"), want);
        assert_eq!(ctx.reference_skips["translate/SDSS"], witnesses.len());
    }

    #[test]
    fn same_ast_gold_past_the_reference_row_cap_counts_its_skips() {
        let sql = "SELECT a.plate FROM SpecObj a, SpecObj b, SpecObj c, SpecObj d, \
                   SpecObj e, SpecObj f WHERE a.specobjid = b.specobjid \
                   AND b.specobjid = c.specobjid AND c.specobjid = d.specobjid \
                   AND d.specobjid = e.specobjid AND e.specobjid = f.specobjid";
        let (ctx, witnesses) = audit_translation(sql, sql);
        let q = squ_parser::parse_query(sql).unwrap();
        let capped = witnesses
            .iter()
            .filter(|db| squ_engine::reference_query(&q, db).is_err())
            .count();
        assert!(capped > 0, "no witness reaches the reference row cap");
        assert_eq!(ctx.reference_skips["translate/SDSS"], capped);
        assert!(ctx.violations.is_empty(), "{:?}", ctx.violations);
    }

    #[test]
    fn gold_with_other_rows_is_caught_on_both_engines() {
        let (ctx, witnesses) = audit_translation(
            "SELECT plate FROM SpecObj",
            "SELECT plate FROM SpecObj WHERE 1 = 0",
        );
        let engine: Vec<String> = (0..witnesses.len())
            .map(|i| format!("witness {i}: source and gold rows differ (sqlite -> postgres)"))
            .collect();
        let reference: Vec<String> = (0..witnesses.len())
            .map(|i| format!("witness {i}: reference interpreter disagrees"))
            .collect();
        assert_eq!(violations(&ctx, "gold-agrees-on-engine"), engine);
        assert_eq!(violations(&ctx, "gold-agrees-on-reference"), reference);
        assert_eq!(ctx.reference_skips["translate/SDSS"], 0);
    }

    #[test]
    fn translate_metadata() {
        assert_eq!(TaskId::Translate.workloads().len(), 3);
        assert_eq!(TaskId::Translate.short(), "translate");
        assert!(TaskId::Translate.reviewable());
    }
}
