//! End-to-end audit assertions: the default suite must carry zero
//! invariant violations — every ground-truth label it emits is provable by
//! the static analyzer — the static equivalence certifier never
//! contradicts a label and convicts a substantial share of
//! non-equivalence labels without executing a query, and the audit
//! report must be byte-identical whatever the worker-thread count.
//!
//! One paper-seed suite and one audit per job count serve every test.

use squ::{audit_suite, AuditReport, Suite, PAPER_SEED};
use std::sync::OnceLock;

fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| Suite::new(PAPER_SEED))
}

/// `audit_suite(suite(), jobs)` for `jobs` in 1..=4, each run once.
fn audit(jobs: usize) -> &'static AuditReport {
    static AUDITS: [OnceLock<AuditReport>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    AUDITS[jobs - 1].get_or_init(|| audit_suite(suite(), jobs))
}

#[test]
fn default_suite_audits_clean() {
    let report = audit(2);
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
    assert_eq!(audit(1).to_json(), audit(3).to_json());
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

/// The full paper-seed audit holds every invariant, including the
/// label-vs-certificate consistency checks.
#[test]
fn paper_seed_audit_is_clean() {
    let report = audit(2);
    assert!(
        report.is_clean(),
        "audit violations: {:#?}",
        report.violations
    );
    assert!(report.checked > 1000, "suite too small: {}", report.checked);
}

/// Acceptance floor: the certifier statically convicts at least 30% of
/// non-equivalence-labeled pairs — inequivalence proven from the ASTs
/// alone, with no engine execution.
#[test]
fn certifier_convicts_at_least_thirty_percent_of_noneq_pairs() {
    let c = &audit(2).certs;
    assert!(c.noneq_pairs > 100, "too few pairs: {}", c.noneq_pairs);
    assert!(
        c.conviction_rate() >= 30.0,
        "conviction rate {:.1}% ({}/{}) below the 30% floor",
        c.conviction_rate(),
        c.noneq_convicted,
        c.noneq_pairs
    );
    assert!(
        c.certified_equivalent > 0,
        "no pair certified equivalent at all"
    );
    assert_eq!(
        c.pairs,
        c.certified_equivalent + c.certified_inequivalent + c.certified_unknown,
        "certificate tallies must partition the pairs"
    );
}

/// Certifier tallies land in the serialized report and survive a JSON
/// round trip, and the whole report is thread-count independent.
#[test]
fn audit_report_is_jobs_independent_and_round_trips() {
    let a = audit(1);
    assert_eq!(a.to_json(), audit(4).to_json());

    let back: AuditReport = serde_json::from_str(&a.to_json()).expect("audit report deserializes");
    assert_eq!(back.certs, a.certs);
    assert!(a.to_json().contains("noneq_convicted"), "{}", a.to_json());
}
