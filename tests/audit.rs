//! End-to-end audit assertions: the default suite must carry zero
//! invariant violations — every ground-truth label it emits is provable by
//! the static analyzer — and the audit report must be byte-identical
//! whatever the worker-thread count.

use squ::{audit_suite, Suite, PAPER_SEED};
use std::sync::OnceLock;

fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| Suite::new(PAPER_SEED))
}

#[test]
fn default_suite_audits_clean() {
    let report = audit_suite(suite(), 2);
    assert!(
        report.is_clean(),
        "{} violations, first: {:?}",
        report.violations.len(),
        report.violations.first()
    );
    // the audit covered every artifact class
    assert!(report.checked > 3000, "only {} checked", report.checked);
    // injected-error datasets guarantee diagnostic traffic: both parse
    // errors (token deletions) and each paper category (syntax errors)
    for code in [
        "SQU002", "SQU012", "SQU013", "SQU020", "SQU021", "SQU030", "SQU031",
    ] {
        assert!(
            report.rule_hits.get(code).copied().unwrap_or(0) > 0,
            "no {code} hits: {:?}",
            report.rule_hits
        );
    }
    // every hit code is registered
    for code in report.rule_hits.keys() {
        assert!(squ_lint::rule(code).is_some(), "unregistered {code}");
    }
    // witness checks the reference interpreter leaves undecided, pinned
    // exactly: 276 of Join-Order's 565 (its row cap), none elsewhere
    let skips: Vec<(&str, usize)> = report
        .reference_skips
        .iter()
        .map(|(set, n)| (set.as_str(), *n))
        .collect();
    assert_eq!(
        skips,
        [
            ("translate/Join-Order", 276),
            ("translate/SDSS", 0),
            ("translate/SQLShare", 0)
        ]
    );
}

#[test]
fn audit_report_is_job_count_invariant() {
    let a = audit_suite(suite(), 1);
    let b = audit_suite(suite(), 3);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn audit_flags_a_poisoned_label() {
    // flip one correct syntax example's label to "error": the task's
    // audit — the same check audit_suite fans out — must notice the
    // missing diagnostic
    use squ::tasks::{AuditCtx, SyntaxTask, Task};
    use squ::workload::Workload;
    let mut examples = suite().syntax_for(Workload::Sdss).to_vec();
    let ex = examples
        .iter_mut()
        .find(|e| !e.has_error)
        .expect("suite has correct samples");
    ex.has_error = true;
    ex.error_type = Some(squ_tasks::SyntaxErrorType::AggrAttr);
    ex.expected_span = Some((0, ex.sql.len()));
    let mut ctx = AuditCtx::new(Workload::Sdss);
    SyntaxTask.audit(Workload::Sdss, &examples, &mut ctx);
    assert!(
        ctx.violations
            .iter()
            .any(|v| v.invariant == "positive-expected-diagnostic"),
        "poisoned label not caught: {:?}",
        ctx.violations
    );
}
