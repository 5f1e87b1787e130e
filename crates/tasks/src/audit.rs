//! Audit support shared by every [`crate::Task`] implementation: the
//! violation record, and an accumulating context wrapping the `squ-lint`
//! analyzer with a memoized schema lookup and, optionally, the reports of
//! texts an earlier pass already linted.
//!
//! The invariant *checks* live with each task (`Task::audit`); the suite
//! driver that fans sections over worker threads and merges them lives in
//! the `squ` core crate.

use serde::{Deserialize, Serialize};
use squ_lint::{lint, LintReport};
use squ_workload::{schema_for, Workload};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// One audited invariant that did not hold.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct Violation {
    /// Which dataset the artifact came from, e.g. `syntax/sdss`.
    pub dataset: String,
    /// Source query id of the artifact.
    pub query_id: String,
    /// Machine-readable invariant name, e.g. `positive-expected-diagnostic`.
    pub invariant: String,
    /// Human-readable explanation.
    pub detail: String,
}

/// Static-certification tallies from the `squ-sema` equivalence certifier,
/// accumulated over every equivalence pair an audit touches. Deterministic
/// for a given suite, merged across sections in canonical order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CertStats {
    /// Equivalence pairs run through the certifier.
    pub pairs: usize,
    /// Pairs certified equivalent (canonical forms coincide).
    pub certified_equivalent: usize,
    /// Pairs certified inequivalent (a distinguishing witness provably
    /// exists).
    pub certified_inequivalent: usize,
    /// Pairs the certifier left undecided.
    pub certified_unknown: usize,
    /// Pairs labeled non-equivalent by the dataset builder.
    pub noneq_pairs: usize,
    /// Non-equivalent-labeled pairs the certifier statically convicted —
    /// inequivalence proven without executing either query.
    pub noneq_convicted: usize,
}

impl CertStats {
    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: &CertStats) {
        self.pairs += other.pairs;
        self.certified_equivalent += other.certified_equivalent;
        self.certified_inequivalent += other.certified_inequivalent;
        self.certified_unknown += other.certified_unknown;
        self.noneq_pairs += other.noneq_pairs;
        self.noneq_convicted += other.noneq_convicted;
    }

    /// Fraction of non-equivalent-labeled pairs statically convicted, in
    /// percent (0 when no such pairs were seen).
    pub fn conviction_rate(&self) -> f64 {
        if self.noneq_pairs == 0 {
            return 0.0;
        }
        100.0 * self.noneq_convicted as f64 / self.noneq_pairs as f64
    }
}

/// Memoizing schema lookup: SQLShare/Spider resolve schemas by name from a
/// zoo, so per-example lookups inside one audit section are cached.
struct Schemas {
    workload: Workload,
    cache: HashMap<String, squ_schema::Schema>,
}

impl Schemas {
    fn get(&mut self, name: &str) -> &squ_schema::Schema {
        if !self.cache.contains_key(name) {
            let schema = schema_for(self.workload, name);
            self.cache.insert(name.to_string(), schema);
        }
        &self.cache[name]
    }
}

/// Lint reports kept from an earlier pass, by schema name and then SQL
/// text.
pub type LintReports = HashMap<String, HashMap<String, LintReport>>;

/// Per-section audit accumulator: rule-hit counts, checked-artifact count,
/// reference-interpreter skips, and the violations a task's checks record.
/// Sections are merged in canonical order, so reports are thread-count
/// independent.
pub struct AuditCtx<'k> {
    schemas: Schemas,
    /// Reports [`AuditCtx::lint`] reads instead of linting a text again.
    kept: Option<&'k LintReports>,
    /// Artifacts linted so far.
    pub checked: usize,
    /// How many times each `SQU0xx` rule fired, warnings included.
    pub hits: BTreeMap<String, usize>,
    /// Violations recorded so far, in check order.
    pub violations: Vec<Violation>,
    /// Static equivalence-certification tallies.
    pub certs: CertStats,
    /// Witness checks per dataset, e.g. `translate/SDSS`, that the
    /// reference interpreter could not decide because it raised an error
    /// on a side (usually its row cap).
    pub reference_skips: BTreeMap<String, usize>,
}

impl<'k> AuditCtx<'k> {
    /// A fresh context auditing artifacts of one workload.
    pub fn new(workload: Workload) -> Self {
        AuditCtx {
            schemas: Schemas {
                workload,
                cache: HashMap::new(),
            },
            kept: None,
            checked: 0,
            hits: BTreeMap::new(),
            violations: Vec::new(),
            certs: CertStats::default(),
            reference_skips: BTreeMap::new(),
        }
    }

    /// A fresh context that reads `kept` before linting a text itself.
    pub fn with_reports(workload: Workload, kept: &'k LintReports) -> Self {
        AuditCtx {
            kept: Some(kept),
            ..AuditCtx::new(workload)
        }
    }

    /// Resolve the named schema (memoized) for certifier calls.
    pub fn schema(&mut self, name: &str) -> &squ_schema::Schema {
        self.schemas.get(name)
    }

    /// Lint `sql` against the named schema and count rule hits; returns the
    /// report for the caller's invariant checks. A kept report of the same
    /// text against the same schema is returned instead of a fresh lint,
    /// which would equal it (lint is a pure function of the two), and
    /// counts the same.
    pub fn lint(&mut self, sql: &str, schema_name: &str) -> Cow<'k, LintReport> {
        let report = match self.kept.and_then(|k| k.get(schema_name)?.get(sql)) {
            Some(kept) => Cow::Borrowed(kept),
            None => Cow::Owned(lint(sql, self.schemas.get(schema_name))),
        };
        for d in &report.diagnostics {
            match self.hits.get_mut(d.code) {
                Some(n) => *n += 1,
                None => {
                    self.hits.insert(d.code.to_string(), 1);
                }
            }
        }
        self.checked += 1;
        report
    }

    /// Record one violation.
    pub fn violation(&mut self, dataset: &str, query_id: &str, invariant: &str, detail: String) {
        self.violations.push(Violation {
            dataset: dataset.to_string(),
            query_id: query_id.to_string(),
            invariant: invariant.to_string(),
            detail,
        });
    }

    /// Record a `clean-analysis` violation for every error-severity finding.
    pub fn require_clean(&mut self, dataset: &str, query_id: &str, report: &LintReport, sql: &str) {
        if report.is_clean() {
            return;
        }
        let detail = format!("{} in `{sql}`", render_codes(report));
        self.violation(dataset, query_id, "clean-analysis", detail);
    }
}

/// Render a report's error codes for violation details, e.g. `[SQU011 x2]`.
pub fn render_codes(report: &LintReport) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for d in report.errors() {
        *counts.entry(d.code).or_insert(0) += 1;
    }
    if counts.is_empty() {
        return "[no errors]".to_string();
    }
    let parts: Vec<String> = counts
        .iter()
        .map(|(c, n)| {
            if *n == 1 {
                (*c).to_string()
            } else {
                format!("{c} x{n}")
            }
        })
        .collect();
    format!("[{}]", parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_codes_counts_errors() {
        use squ_schema::schemas::sdss;
        let schema = sdss();
        let report = lint("SELECT nosuch, nosuch2 FROM SpecObj", &schema);
        let rendered = render_codes(&report);
        assert_eq!(rendered, "[SQU011 x2]", "{rendered}");
        let clean = lint("SELECT plate FROM SpecObj", &schema);
        assert_eq!(render_codes(&clean), "[no errors]");
    }

    #[test]
    fn ctx_lint_counts_hits() {
        let mut ctx = AuditCtx::new(Workload::Sdss);
        ctx.lint("SELECT nosuch FROM SpecObj", "sdss");
        ctx.lint("SELECT plate FROM SpecObj", "sdss");
        assert_eq!(ctx.checked, 2);
        assert_eq!(ctx.hits.get("SQU011"), Some(&1));
    }

    #[test]
    fn kept_report_equals_a_fresh_lint_and_counts_the_same() {
        let texts = [
            "SELECT nosuch FROM SpecObj",
            "SELECT * FROM SpecObj, PhotoObj",
            "SELECT plate FROM SpecObj WHERE plate > 5 AND plate < 3",
            "SELECT plate FROM",
        ];
        let mut kept = LintReports::new();
        let mut first = AuditCtx::new(Workload::Sdss);
        for sql in texts {
            let report = first.lint(sql, "sdss").into_owned();
            kept.entry("sdss".into())
                .or_default()
                .insert(sql.into(), report);
        }
        let mut fresh = AuditCtx::new(Workload::Sdss);
        let mut reused = AuditCtx::with_reports(Workload::Sdss, &kept);
        for sql in texts {
            let (a, b) = (fresh.lint(sql, "sdss"), reused.lint(sql, "sdss"));
            assert!(matches!(a, Cow::Owned(_)) && matches!(b, Cow::Borrowed(_)));
            assert_eq!(a, b, "{sql}");
        }
        assert_eq!(reused.checked, fresh.checked);
        assert_eq!(reused.hits, fresh.hits);
        assert!(["SQU011", "SQU002", "SQU100", "SQU101", "SQU110"]
            .iter()
            .all(|code| reused.hits.contains_key(*code)));
        // a text, or a schema, not kept is linted afresh
        assert!(matches!(
            reused.lint("SELECT plate FROM SpecObj", "sdss"),
            Cow::Owned(_)
        ));
        assert!(matches!(reused.lint(texts[0], "other"), Cow::Owned(_)));
    }

    #[test]
    fn require_clean_records_violation() {
        let mut ctx = AuditCtx::new(Workload::Sdss);
        let report = ctx.lint("SELECT nosuch FROM SpecObj", "sdss");
        ctx.require_clean(
            "perf/sdss",
            "sdss-0001",
            &report,
            "SELECT nosuch FROM SpecObj",
        );
        assert_eq!(ctx.violations.len(), 1);
        assert_eq!(ctx.violations[0].invariant, "clean-analysis");
    }
}
