//! Dataset auditor: statically prove every ground-truth label the suite
//! emits, using `squ-lint` as the oracle.
//!
//! The suite's datasets carry labels that downstream evaluation treats as
//! ground truth — "this query has an aggregation error at bytes 7..12",
//! "these two queries are equivalent". The auditor re-derives each label
//! from the analyzer alone and reports every disagreement as a
//! [`Violation`]. The per-task invariants live with the tasks themselves
//! ([`squ_tasks::Task::audit`]); this module contributes the one check that
//! is not task-shaped — every sampled workload query must lint clean — and
//! the generic driver that fans all sections over the worker pool:
//!
//! * every sampled workload query, perf example, and explain example must
//!   lint clean (no error-severity diagnostics; `SQU1xx` warnings are
//!   counted but never fail an audit);
//! * every syntax-error positive must produce a diagnostic of the expected
//!   paper category whose span overlaps the labeled `expected_span`, and
//!   every syntax negative must lint clean;
//! * every token-deletion positive must be *detectable*: the analyzer
//!   reports at least one error, and any parse error locates within the
//!   parser's lookahead margin of the labeled word position (whole-predicate
//!   deletions — the paper's hard class — are exempt from detectability but
//!   still checked for label consistency);
//! * every equivalence pair must have both sides lint clean; equivalent
//!   pairs must additionally have identical binder resolution signatures,
//!   and non-equivalent pairs must differ textually;
//! * every equivalence pair runs through the `squ-sema` static certifier,
//!   whose verdict must never contradict the label — the report tallies
//!   how many non-equivalence labels the certifier proves without ever
//!   executing a query ([`CertStats`]);
//! * every gold translation must return its source's rows on every witness
//!   database, on the compiled engine and on the reference interpreter;
//!   the report counts, per translation set, the witness checks the
//!   reference interpreter could not decide
//!   ([`AuditReport::reference_skips`]).
//!
//! The report is deterministic: violations appear in canonical dataset
//! order, rule hits in a [`BTreeMap`], and nothing in the output depends
//! on the thread count used to run the audit.

use crate::suite::TaskSet;
use crate::{par, Suite};
use serde::{Deserialize, Serialize};
use squ_tasks::{AuditCtx, LintReports};
use squ_workload::{Dataset, Workload};
use std::collections::BTreeMap;

pub use squ_tasks::{CertStats, Violation};

/// Outcome of auditing one suite.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct AuditReport {
    /// Master seed of the audited suite.
    pub seed: u64,
    /// Total artifacts checked (queries, examples, and pair sides).
    pub checked: usize,
    /// How many times each `SQU0xx` rule fired across all lint passes,
    /// warnings included.
    pub rule_hits: BTreeMap<String, usize>,
    /// Static equivalence-certification tallies from the `squ-sema`
    /// certifier across every equivalence pair.
    pub certs: CertStats,
    /// Per translation set, the witness checks skipped because the
    /// reference interpreter raised an error on a side (usually its row
    /// cap); every set has an entry, zeros included.
    pub reference_skips: BTreeMap<String, usize>,
    /// Every invariant violation, in canonical dataset order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold one audited section into the report. [`audit_suite`] folds
    /// its sections in a fixed order, which fixes the violations' order.
    pub fn absorb(&mut self, section: AuditCtx<'_>) {
        self.checked += section.checked;
        for (code, n) in section.hits {
            *self.rule_hits.entry(code).or_insert(0) += n;
        }
        self.certs.absorb(&section.certs);
        for (set, n) in section.reference_skips {
            *self.reference_skips.entry(set).or_insert(0) += n;
        }
        self.violations.extend(section.violations);
    }

    /// Stable pretty-printed JSON for `target/repro/audit.json`.
    ///
    /// # Panics
    /// Never in practice: the report contains only maps/strings/numbers.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("audit report serializes") // lint:allow: plain data structs always serialize
    }
}

/// Audit every artifact of `suite` on up to `jobs` worker threads.
///
/// The four workload sections run first and keep each query's lint
/// report; then every task set runs with its workload's reports, which
/// cover the sampled queries its examples repeat (perf and explain
/// examples, syntax and token negatives, equivalence sides and the
/// canonical re-print of each translation source). The result is
/// byte-identical for every job count: each job accumulates its own
/// section and sections are merged in a fixed order — the four workloads,
/// then every task set in canonical registry order.
pub fn audit_suite(suite: &Suite, jobs: usize) -> AuditReport {
    const WORKLOADS: [Workload; 4] = [
        Workload::Sdss,
        Workload::SqlShare,
        Workload::JoinOrder,
        Workload::Spider,
    ];
    let (workload_sections, kept): (Vec<AuditCtx>, Vec<LintReports>) =
        par::map(jobs, WORKLOADS.to_vec(), |w| {
            audit_workload(suite.dataset(w))
        })
        .into_iter()
        .unzip();
    let set_sections = par::map(jobs, suite.sets().collect(), |set: &TaskSet| {
        let mut ctx = match WORKLOADS.iter().position(|w| *w == set.workload()) {
            Some(i) => AuditCtx::with_reports(set.workload(), &kept[i]),
            None => AuditCtx::new(set.workload()),
        };
        set.task().audit(set.workload(), set.examples(), &mut ctx);
        ctx
    });

    let mut report = AuditReport {
        seed: suite.seed,
        ..AuditReport::default()
    };
    for s in workload_sections.into_iter().chain(set_sections) {
        report.absorb(s);
    }
    report
}

/// Sampled workload queries must all lint clean. Returns the section and
/// every query's report, by schema name and SQL text.
fn audit_workload(ds: &Dataset) -> (AuditCtx<'static>, LintReports) {
    let mut ctx = AuditCtx::new(ds.workload);
    let mut kept = LintReports::new();
    let name = format!("workload/{}", ds.workload.name());
    for wq in &ds.queries {
        let report = ctx.lint(&wq.sql, &wq.schema_name).into_owned();
        ctx.require_clean(&name, &wq.id, &report, &wq.sql);
        kept.entry(wq.schema_name.clone())
            .or_default()
            .insert(wq.sql.clone(), report);
    }
    (ctx, kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean_and_stable_json() {
        let r = AuditReport::default();
        assert!(r.is_clean());
        let json = r.to_json();
        assert!(json.contains("\"violations\": []"), "{json}");
        assert!(json.contains("\"rule_hits\": {}"), "{json}");
    }

    #[test]
    fn violations_make_report_dirty() {
        let mut r = AuditReport::default();
        r.violations.push(Violation {
            dataset: "syntax/sdss".into(),
            query_id: "sdss-0001".into(),
            invariant: "positive-expected-diagnostic".into(),
            detail: "missing".into(),
        });
        assert!(!r.is_clean());
        assert!(r.to_json().contains("positive-expected-diagnostic"));
    }

    #[test]
    fn reports_round_trip_through_json() {
        let mut r = AuditReport {
            seed: 7,
            checked: 3,
            ..AuditReport::default()
        };
        r.rule_hits.insert("SQU011".into(), 2);
        r.violations.push(Violation {
            dataset: "perf/sdss".into(),
            query_id: "sdss-0002".into(),
            invariant: "clean-analysis".into(),
            detail: "[SQU011] in `x`".into(),
        });
        let json = r.to_json();
        let back: AuditReport = serde_json::from_str(&json).expect("audit report deserializes");
        assert_eq!(back.seed, 7);
        assert_eq!(back.checked, 3);
        assert_eq!(back.rule_hits.get("SQU011"), Some(&2));
        assert_eq!(back.violations, r.violations);
    }
}
