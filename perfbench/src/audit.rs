//! `audit`: the label gate — `audit_suite` over a suite built in set-up.
//! It is the system's single largest cost, and the Translate/Join-Order
//! set, where the reference interpreter runs on cross products, is its
//! critical path. The full audit runs; its cost is the finding.
//!
//! The audited suite is the paper's, as `repro --audit` audits it: audits
//! of other seeds' suites differ by more than ten percent in cost. The
//! workload seed therefore changes nothing here.
//!
//! `run.py` runs this workload's untraced iterations with one malloc arena
//! (`MALLOC_ARENA_MAX=1`) so that its peak RSS repeats. With one arena a suite build on several
//! threads serialises on the allocator's lock and takes three times as
//! long, so set-up builds the suite on one thread; the audit itself runs on
//! `jobs` threads.

use crate::{layers, trace, Clock, Config, Outcome};
use squ::{Suite, TaskSet, PAPER_SEED};
use squ_tasks::{AuditCtx, TaskId, Violation};
use squ_workload::{Dataset, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;

pub(crate) fn run(cfg: &Config, mut clock: Clock) -> Outcome {
    let mut out = Outcome::default();
    let suite = trace::time("core.suite", || Suite::new_with_jobs(PAPER_SEED, 1));
    clock.begin_timed();
    out.setup_s = clock.setup_s();
    if cfg.setup_only {
        return out;
    }
    let (checked, rule_hits, violations) = if trace::enabled() || cfg.small {
        let sections = audit_sets(&suite, cfg.jobs, cfg.small);
        out.wall_s = clock.timed_s();
        let mut hits: BTreeMap<String, usize> = BTreeMap::new();
        let mut violations = Vec::new();
        let mut checked = 0;
        for s in sections {
            checked += s.checked;
            for (code, n) in s.hits {
                *hits.entry(code).or_insert(0) += n;
            }
            violations.extend(s.violations);
        }
        (checked, hits, violations)
    } else {
        let report = squ::audit_suite(&suite, cfg.jobs);
        out.wall_s = clock.timed_s();
        (report.checked, report.rule_hits, report.violations)
    };
    layers::harvest_program_timing();
    out.peak_rss_kb = squ::synth::peak_rss_kb();
    // a batch run is one request: its user waits for all of it
    out.latencies_ms = vec![Some(out.wall_s * 1e3)];

    // every checked artifact is one operation; a violation fails it
    out.attempted = checked as u64;
    out.failed = violations.len() as u64;
    out.failures = violations.iter().take(8).map(render).collect();
    let mut parts = vec![checked.to_string()];
    parts.extend(rule_hits.iter().map(|(code, n)| format!("{code}={n}")));
    parts.extend(violations.iter().map(render));
    out.digest = crate::digest("perfbench-audit", parts.iter().map(String::as_str));
    out.facts.insert("checked".into(), checked as f64);

    if trace::enabled() {
        replay(&suite, cfg);
    }
    out
}

fn render(v: &Violation) -> String {
    format!(
        "{}/{}: {} ({})",
        v.dataset, v.query_id, v.invariant, v.detail
    )
}

fn is_critical(set: &TaskSet) -> bool {
    set.task().id() == TaskId::Translate && set.workload() == Workload::JoinOrder
}

enum Job<'a> {
    Workload(&'a Dataset),
    Set(&'a TaskSet),
}

/// `audit_suite`'s job list and worker pool, with a span around each
/// section's `DynTask::audit` call. `small` leaves out the critical set.
fn audit_sets(suite: &Suite, jobs: usize, small: bool) -> Vec<AuditCtx> {
    let mut list: Vec<Job<'_>> = [
        Workload::Sdss,
        Workload::SqlShare,
        Workload::JoinOrder,
        Workload::Spider,
    ]
    .into_iter()
    .map(|w| Job::Workload(suite.dataset(w)))
    .collect();
    list.extend(
        suite
            .sets()
            .filter(|s| !(small && is_critical(s)))
            .map(Job::Set),
    );
    let root = trace::span("core.audit");
    let parent = root.as_parent();
    squ::par::map(jobs, list, |job| match job {
        Job::Workload(ds) => {
            let _g = trace::span_under(
                &format!("tasks.audit.workload.{}", slug(ds.workload)),
                parent,
            );
            let mut ctx = AuditCtx::new(ds.workload);
            let name = format!("workload/{}", ds.workload.name());
            for wq in &ds.queries {
                let report = ctx.lint(&wq.sql, &wq.schema_name);
                ctx.require_clean(&name, &wq.id, &report, &wq.sql);
            }
            ctx
        }
        Job::Set(set) => {
            let _g = trace::span_under(
                &format!(
                    "tasks.audit.{}.{}",
                    set.task().id().short(),
                    slug(set.workload())
                ),
                parent,
            );
            let mut ctx = AuditCtx::new(set.workload());
            set.task().audit(set.workload(), set.examples(), &mut ctx);
            ctx
        }
    })
}

fn slug(w: Workload) -> String {
    w.name().to_lowercase().replace('-', "")
}

/// Replays: the translation sets' engine and reference-interpreter calls
/// (the audit's critical path), the front end with lint and sema over the
/// sampled queries, the certifier over the equivalence pairs, and the
/// witness batches.
fn replay(suite: &Suite, cfg: &Config) {
    for set in suite.sets() {
        if set.task().id() == TaskId::Translate && !(cfg.small && is_critical(set)) {
            translate_replay(set, suite, cfg.jobs);
        }
    }
    let all = [
        suite.dataset(Workload::Sdss),
        suite.dataset(Workload::SqlShare),
        suite.dataset(Workload::JoinOrder),
        suite.dataset(Workload::Spider),
    ];
    layers::front_replay(&all, true);
    layers::witness_replay(&layers::schemas_of(&all[..3]));
    let _g = trace::span("replay.certify");
    for w in [Workload::Sdss, Workload::SqlShare, Workload::JoinOrder] {
        let schemas = layers::schemas_of(&[suite.dataset(w)]);
        for ex in suite.equiv_for(w) {
            let (Some(q1), Some(q2)) = (parse_query(&ex.sql1), parse_query(&ex.sql2)) else {
                continue;
            };
            if let Some(schema) = schemas.get(&ex.schema_name) {
                black_box(layers::certify(&q1, &q2, schema));
            }
        }
    }
}

fn parse_query(sql: &str) -> Option<squ_parser::Query> {
    trace::time("parser.parse", || squ_parser::parse_query(sql)).ok()
}

/// The calls `TranslateTask::audit` makes for one set, on `jobs` threads.
fn translate_replay(set: &TaskSet, suite: &Suite, jobs: usize) {
    let w = set.workload();
    let root = trace::span(&format!("replay.translate.{}", slug(w)));
    let parent = root.as_parent();
    let examples = suite.translate_for(w);
    let schemas = layers::schemas_of(&[suite.dataset(w)]);
    squ::par::map(jobs, examples.iter().collect(), |ex| {
        let _g = trace::span_under("replay.translate.example", parent);
        let (Some(from), Some(to)) = (
            squ_dialect::Dialect::by_name(&ex.source_dialect),
            squ_dialect::Dialect::by_name(&ex.target_dialect),
        ) else {
            return;
        };
        let parsed = trace::time("parser.parse", || {
            (
                squ_parser::parse_query_dialect(&ex.source_sql, from),
                squ_parser::parse_query_dialect(&ex.gold_sql, to),
            )
        });
        let (Ok(q_src), Ok(q_gold)) = parsed else {
            return;
        };
        let Some(schema) = schemas.get(&ex.schema_name) else {
            return;
        };
        let canonical = trace::time("parser.print", || squ_parser::print_query(&q_src));
        black_box(layers::lint(&canonical, schema));
        let dbs = squ_engine::witness_batch_cached(schema, layers::witness_seed(&ex.schema_name));
        for db in dbs.iter() {
            black_box(layers::execute(&q_src, db).ok());
            black_box(layers::execute(&q_gold, db).ok());
            black_box(layers::reference(&q_src, db).ok());
            black_box(layers::reference(&q_gold, db).ok());
        }
    });
}
