//! The fuzz oracles and the per-case driver.
//!
//! Each case is fully determined by `(seed, index)`: the schema slot, the
//! generated query, the token mutants, every transform's RNG stream, and
//! the witness databases all derive from those two numbers. That is what
//! makes `fuzz.json` byte-identical across `--jobs` values and lets the
//! artifact store resume a run case-by-case.

use rand::rngs::StdRng;
use rand::SeedableRng;
use squ_engine::{reference_query, witness_batch_cached, Database, ExecError, Prepared, Relation};
use squ_parser::ast::{Query, Statement};
use squ_parser::{parse_query, parse_query_dialect, print_query, print_query_dialect, Dialect};
use squ_schema::analyze;
use squ_tasks::{transform_catalog, translate_query, TransformInfo, TransformKind, Verdict};

use crate::gen::{fallback_query, generate_query, generate_schema, mix, GenSchema, SCHEMA_POOL};
use crate::mutate::{check_reconstruction, check_span_consistency, mutants_of};
use crate::report::{CaseReport, EngineCounters, Failure};
use crate::shrink::shrink_sql;
use squ_parser::ast::SetExpr;
use squ_sema::Certificate;

/// How many times the generator may retry before falling back to the
/// trivial always-valid query.
const GEN_RETRIES: usize = 50;

/// Token mutants per case.
const MUTANTS_PER_CASE: usize = 3;

/// Configuration for a fuzz run.
pub struct FuzzConfig {
    /// Master seed; every case derives its streams from `(seed, index)`.
    pub seed: u64,
    /// Corpus dialect. [`Dialect::Squ`] runs exactly the historical
    /// oracles; a concrete dialect additionally translates every subject
    /// query into that dialect (function/type spellings, quoting,
    /// `LIMIT`/`TOP`), emits the case SQL in it, and checks the dialect
    /// round-trip law on the result.
    pub dialect: Dialect,
    /// Transforms checked by the metamorphic oracle *in addition to* the
    /// built-in catalog. Tests use this to inject a deliberately unsound
    /// "preserving" transform and watch the harness convict it.
    pub extra_transforms: Vec<TransformInfo>,
}

impl FuzzConfig {
    /// A run over the built-in transform catalog only.
    pub fn new(seed: u64) -> FuzzConfig {
        FuzzConfig::for_dialect(seed, Dialect::Squ)
    }

    /// A run whose corpus is rendered and round-tripped in `dialect`.
    pub fn for_dialect(seed: u64, dialect: Dialect) -> FuzzConfig {
        FuzzConfig {
            seed,
            dialect,
            extra_transforms: Vec::new(),
        }
    }
}

/// Is this query binder-clean against `schema`?
fn clean(q: &Query, gs: &GenSchema) -> bool {
    let stmt = Statement::Query(q.clone());
    analyze(&stmt, &gs.schema).is_empty()
}

/// Generate the case's subject query: retry the grammar until the binder
/// accepts the printed-and-reparsed form, with a guaranteed fallback.
/// Returns the query and its printed SQL; `rng` is the case stream
/// [`run_case`] seeds from `(seed, index)`.
pub fn subject_query(rng: &mut StdRng, gs: &GenSchema) -> (Query, String) {
    for _ in 0..GEN_RETRIES {
        let q = generate_query(rng, gs);
        let sql = print_query(&q);
        let Ok(parsed) = parse_query(&sql) else {
            continue;
        };
        if clean(&parsed, gs) {
            return (parsed, sql);
        }
    }
    let q = fallback_query(gs);
    let sql = print_query(&q);
    (q, sql)
}

/// Run every oracle on case `index` of the run described by `cfg`.
pub fn run_case(cfg: &FuzzConfig, index: u64) -> CaseReport {
    let slot = index % SCHEMA_POOL;
    let gs = generate_schema(cfg.seed, slot);
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, 0xCA5E_0000 ^ index));
    let (query, sql) = subject_query(&mut rng, &gs);

    let mut report = CaseReport {
        index,
        sql: sql.clone(),
        ..CaseReport::default()
    };

    oracle_roundtrip(&mut report, &sql);
    oracle_mutation(&mut report, &sql, &mut rng);

    let witness_seed = mix(cfg.seed, 0xB17C_0000 ^ slot);
    let witnesses = witness_batch_cached(&gs.schema, witness_seed);
    oracle_differential(&mut report, &query, &sql, &gs, &witnesses);
    oracle_sema(&mut report, &query, &sql, &gs, &witnesses);
    oracle_metamorphic(cfg, &mut report, &query, &sql, &gs, &witnesses, index);
    if cfg.dialect != Dialect::Squ {
        oracle_dialect(&mut report, &query, cfg.dialect);
    }

    report
}

/// Does `sql`, read as `d`-dialect text, violate the dialect round-trip
/// law? Mirrors [`roundtrip_violation`] with the dialect parser/printer:
/// the text must parse in its own dialect (the subject is always our own
/// printer's output, so a parse failure *is* a violation), the dialect
/// print must be a parse∘print fixpoint, and the reparse must yield the
/// same AST.
fn dialect_roundtrip_violation(sql: &str, d: Dialect) -> Option<String> {
    let q = match parse_query_dialect(sql, d) {
        Ok(q) => q,
        Err(e) => return Some(format!("does not parse as {} text: {e}", d.name())),
    };
    let printed = print_query_dialect(&q, d);
    let q2 = match parse_query_dialect(&printed, d) {
        Ok(q2) => q2,
        Err(e) => return Some(format!("{} print fails to re-parse: {e}", d.name())),
    };
    if q2 != q {
        return Some(format!(
            "{} reparse of printed form differs from original AST",
            d.name()
        ));
    }
    if print_query_dialect(&q2, d) != printed {
        return Some(format!("{} printer is not a fixpoint over parse", d.name()));
    }
    None
}

/// Per-dialect corpus oracle: translate the subject query into `d`
/// (function and type-name spellings), render it with `d`'s printer
/// (quoting style, `LIMIT`/`TOP` folding), make that text the case's
/// corpus entry, and hold it to the dialect round-trip law.
fn oracle_dialect(report: &mut CaseReport, query: &Query, d: Dialect) {
    let dsql = print_query_dialect(&translate_query(query, d), d);
    report.sql = dsql.clone();
    match dialect_roundtrip_violation(&dsql, d) {
        None => report.counts.dialect_pass += 1,
        Some(detail) => {
            report.counts.dialect_fail += 1;
            let (minimized, minimized_tokens) =
                shrink_sql(&dsql, |s| dialect_roundtrip_violation(s, d).is_some());
            report.failures.push(Failure {
                case: report.index,
                oracle: "dialect-round-trip".to_string(),
                transform: Some(d.name().to_string()),
                sql: dsql,
                detail,
                minimized,
                minimized_tokens,
            });
        }
    }
}

/// Execution-check every claim `squ-sema` makes about the subject query:
/// a provably-empty verdict must see zero rows on every witness, a proven
/// redundant conjunct must be droppable without changing any result, and a
/// proven `max_rows` bound must dominate every executed row count. Any
/// counterexample is a hard soundness failure with a shrunk reproducer.
fn oracle_sema(
    report: &mut CaseReport,
    query: &Query,
    sql: &str,
    gs: &GenSchema,
    witnesses: &[Database],
) {
    let analysis = squ_sema::analyze_query(query, &gs.schema);
    report.sema.queries_analyzed += 1;

    if analysis.provably_empty {
        report.sema.empties_proven += 1;
        for db in witnesses {
            let Ok(r) = reference_query(query, db) else {
                continue; // budget exhaustion cannot confirm or refute
            };
            report.sema.empty_checks += 1;
            if r.rows.is_empty() {
                report.sema.soundness_pass += 1;
            } else {
                report.sema.soundness_fail += 1;
                sema_failure(
                    report,
                    sql,
                    gs,
                    witnesses,
                    format!(
                        "sema proved the result empty but a witness returned {} row(s)",
                        r.rows.len()
                    ),
                );
                break;
            }
        }
    }

    if let SetExpr::Select(s) = &query.body {
        if let Some(w) = &s.selection {
            for &ci in &analysis.redundant_conjuncts {
                let mut dropped = query.clone();
                if let SetExpr::Select(ds) = &mut dropped.body {
                    ds.selection = squ_sema::analyze::drop_conjunct_at(w, ci);
                }
                let mut failed = false;
                for db in witnesses {
                    let (Ok(a), Ok(b)) =
                        (reference_query(query, db), reference_query(&dropped, db))
                    else {
                        continue;
                    };
                    report.sema.redundancy_checks += 1;
                    if a.result_equal(&b) {
                        report.sema.soundness_pass += 1;
                    } else {
                        report.sema.soundness_fail += 1;
                        sema_failure(report, sql, gs, witnesses, format!(
                            "sema proved WHERE conjunct #{ci} redundant but dropping it changed a witness result"
                        ));
                        failed = true;
                        break;
                    }
                }
                if failed {
                    break;
                }
            }
        }
    }

    if let Some(bound) = analysis.max_rows {
        for db in witnesses {
            let Ok(r) = reference_query(query, db) else {
                continue;
            };
            report.sema.bound_checks += 1;
            if r.rows.len() as u64 <= bound {
                report.sema.soundness_pass += 1;
            } else {
                report.sema.soundness_fail += 1;
                sema_failure(
                    report,
                    sql,
                    gs,
                    witnesses,
                    format!(
                        "sema bounded the result at {bound} row(s) but a witness returned {}",
                        r.rows.len()
                    ),
                );
                break;
            }
        }
    }
}

/// Record one sema soundness failure, shrinking to the smallest SQL on
/// which *any* sema claim still contradicts execution.
fn sema_failure(
    report: &mut CaseReport,
    sql: &str,
    gs: &GenSchema,
    witnesses: &[Database],
    detail: String,
) {
    let (minimized, minimized_tokens) = shrink_sql(sql, |s| sema_claims_refuted(s, gs, witnesses));
    report.failures.push(Failure {
        case: report.index,
        oracle: "sema".to_string(),
        transform: None,
        sql: sql.to_string(),
        detail,
        minimized,
        minimized_tokens,
    });
}

/// Shrink predicate: does execution on some witness refute any sema claim
/// (emptiness, conjunct redundancy, or row bound) about `s`?
fn sema_claims_refuted(s: &str, gs: &GenSchema, witnesses: &[Database]) -> bool {
    let Ok(q) = parse_query(s) else { return false };
    if !clean(&q, gs) {
        return false;
    }
    let analysis = squ_sema::analyze_query(&q, &gs.schema);
    if analysis.provably_empty {
        for db in witnesses {
            if let Ok(r) = reference_query(&q, db) {
                if !r.rows.is_empty() {
                    return true;
                }
            }
        }
    }
    if let SetExpr::Select(sel) = &q.body {
        if let Some(w) = &sel.selection {
            for &ci in &analysis.redundant_conjuncts {
                let mut dropped = q.clone();
                if let SetExpr::Select(ds) = &mut dropped.body {
                    ds.selection = squ_sema::analyze::drop_conjunct_at(w, ci);
                }
                for db in witnesses {
                    if let (Ok(a), Ok(b)) = (reference_query(&q, db), reference_query(&dropped, db))
                    {
                        if !a.result_equal(&b) {
                            return true;
                        }
                    }
                }
            }
        }
    }
    if let Some(bound) = analysis.max_rows {
        for db in witnesses {
            if let Ok(r) = reference_query(&q, db) {
                if r.rows.len() as u64 > bound {
                    return true;
                }
            }
        }
    }
    false
}

/// Does `sql` violate the round-trip law? Returns the violation detail.
///
/// The law, anchored at printed text: `sql` parses to `q`; `print(q)` is a
/// fixpoint of parse∘print; and reparsing the print yields `q` again.
fn roundtrip_violation(sql: &str) -> Option<String> {
    let q = match parse_query(sql) {
        Ok(q) => q,
        // the subject query always parses; mutants may not, and that is
        // not a round-trip violation
        Err(_) => return None,
    };
    let printed = print_query(&q);
    let q2 = match parse_query(&printed) {
        Ok(q2) => q2,
        Err(e) => return Some(format!("printed form fails to parse: {e}")),
    };
    if q2 != q {
        return Some("reparse of printed form differs from original AST".to_string());
    }
    let printed2 = print_query(&q2);
    if printed2 != printed {
        return Some("printer is not a fixpoint over parse".to_string());
    }
    None
}

fn oracle_roundtrip(report: &mut CaseReport, sql: &str) {
    match roundtrip_violation(sql) {
        None => report.counts.roundtrip_pass += 1,
        Some(detail) => {
            report.counts.roundtrip_fail += 1;
            let (minimized, minimized_tokens) =
                shrink_sql(sql, |s| roundtrip_violation(s).is_some());
            report.failures.push(Failure {
                case: report.index,
                oracle: "round-trip".to_string(),
                transform: None,
                sql: sql.to_string(),
                detail,
                minimized,
                minimized_tokens,
            });
        }
    }
}

/// Span-consistency + conditional round-trip over token-level mutants.
fn oracle_mutation(report: &mut CaseReport, sql: &str, rng: &mut StdRng) {
    for m in mutants_of(sql, rng, MUTANTS_PER_CASE) {
        let violation = check_span_consistency(&m.sql)
            .err()
            .or_else(|| check_reconstruction(&m.sql).err())
            .or_else(|| roundtrip_violation(&m.sql));
        match violation {
            None => report.counts.mutation_pass += 1,
            Some(detail) => {
                report.counts.mutation_fail += 1;
                let (minimized, minimized_tokens) = shrink_sql(&m.sql, |s| {
                    check_span_consistency(s).is_err()
                        || check_reconstruction(s).is_err()
                        || roundtrip_violation(s).is_some()
                });
                report.failures.push(Failure {
                    case: report.index,
                    oracle: "mutation".to_string(),
                    transform: Some(m.kind.to_string()),
                    sql: m.sql.clone(),
                    detail,
                    minimized,
                    minimized_tokens,
                });
            }
        }
    }
}

/// Outcome of comparing the two interpreters on one database.
enum DiffOutcome {
    Agree,
    Skip,
    Disagree(String),
}

/// One `execute_query` run: the result, or why it failed.
type Run = Result<Relation, ExecError>;

/// Run the prepared query on `db` and compare the result with
/// `reference_query`; returns the engine run alongside the outcome.
///
/// Both failing is agreement (the oracle does not compare error *kinds*:
/// evaluation order legitimately differs). A lone `ResourceLimit` is a
/// skip — the reference interpreter caps a FROM product by its size,
/// before WHERE prunes it, so it can exhaust the intermediate-row budget
/// on inputs the optimized engine handles. Any other one-sided error, or differing rows, is a violation.
///
/// Engine-side [`squ_engine::ExecStats`] from a successful run are folded
/// into `eng` (failed runs contribute nothing, keeping the tally
/// deterministic regardless of which side errors first).
fn diff_on(p: &mut Prepared, db: &Database, eng: &mut EngineCounters) -> (Run, DiffOutcome) {
    let fast = p.execute(db).map(|(r, s)| {
        eng.rows_scanned += s.rows_scanned;
        eng.join_pairs += s.join_pairs;
        eng.batches += s.batches;
        eng.index_probes += s.index_probes;
        eng.index_hits += s.index_hits;
        eng.subquery_evals += s.subquery_evals;
        eng.compiled += s.compiled;
        eng.fallbacks += s.fallbacks;
        eng.empty_prunes += s.empty_prunes;
        r
    });
    let outcome = match (&fast, reference_query(p.query(), db)) {
        (Ok(a), Ok(b)) => {
            if relations_agree(a, &b) {
                DiffOutcome::Agree
            } else {
                DiffOutcome::Disagree(format!(
                    "engine returned {} row(s), reference {} row(s), canonical digests {:#x} vs {:#x}",
                    a.rows.len(),
                    b.rows.len(),
                    a.canonical_digest(),
                    b.canonical_digest(),
                ))
            }
        }
        (Err(_), Err(_)) => DiffOutcome::Agree,
        (Ok(_), Err(ExecError::ResourceLimit)) | (Err(ExecError::ResourceLimit), Ok(_)) => {
            DiffOutcome::Skip
        }
        (Ok(_), Err(e)) => DiffOutcome::Disagree(format!("reference failed where engine ran: {e}")),
        (Err(e), Ok(_)) => DiffOutcome::Disagree(format!("engine failed where reference ran: {e}")),
    };
    (fast, outcome)
}

/// Shrink-predicate probe: does `q` disagree with the reference
/// interpreter on some witness? Runs against a scratch tally so the
/// reported counters reflect only the oracle's own runs.
fn disagrees_somewhere(q: &Query, witnesses: &[Database]) -> bool {
    let mut scratch = EngineCounters::default();
    let mut p = Prepared::new(q);
    witnesses.iter().any(|db| {
        matches!(
            diff_on(&mut p, db, &mut scratch).1,
            DiffOutcome::Disagree(_)
        )
    })
}

/// Row-for-row agreement when the query pins an order (ORDER BY up to
/// ties), canonical-order agreement otherwise. Because both interpreters
/// emit rows in the same pre-sort order and sort stably, comparing
/// canonically is sound for ordered queries too — and necessary for
/// unordered ones.
fn relations_agree(a: &Relation, b: &Relation) -> bool {
    a.columns.len() == b.columns.len() && a.canonical_digest() == b.canonical_digest()
}

/// The differential oracle on the case's subject query.
fn oracle_differential(
    report: &mut CaseReport,
    query: &Query,
    sql: &str,
    gs: &GenSchema,
    witnesses: &[Database],
) {
    differential(report, query, sql, witnesses, None, |s| {
        parse_query(s).is_ok_and(|q| clean(&q, gs) && disagrees_somewhere(&q, witnesses))
    });
}

/// The differential oracle on one query — the subject, or output `n` of
/// the transform labelled `from` — run once per witness: compare each
/// engine result with the reference interpreter, count every comparison,
/// and return the engine runs in witness order. The first disagreement is
/// recorded as a `differential` failure carrying the transform label,
/// with `sql` shrunk while `still_fails` holds (one failure per query is
/// enough signal; further witnesses would shrink the same query again).
fn differential(
    report: &mut CaseReport,
    q: &Query,
    sql: &str,
    witnesses: &[Database],
    from: Option<(&str, usize)>,
    still_fails: impl Fn(&str) -> bool,
) -> Vec<Run> {
    let mut runs = Vec::with_capacity(witnesses.len());
    let mut recorded = false;
    let mut p = Prepared::new(q);
    for db in witnesses {
        let (run, outcome) = diff_on(&mut p, db, &mut report.engine);
        runs.push(run);
        match outcome {
            DiffOutcome::Agree => report.counts.differential_pass += 1,
            DiffOutcome::Skip => report.counts.differential_skip += 1,
            DiffOutcome::Disagree(detail) => {
                report.counts.differential_fail += 1;
                if recorded {
                    continue;
                }
                recorded = true;
                let (minimized, minimized_tokens) = shrink_sql(sql, &still_fails);
                let detail = match from {
                    Some((label, n)) => {
                        format!("output {n} of `{label}` ({}): {detail}", print_query(q))
                    }
                    None => detail,
                };
                report.failures.push(Failure {
                    case: report.index,
                    oracle: "differential".to_string(),
                    transform: from.map(|(label, _)| label.to_string()),
                    sql: sql.to_string(),
                    detail,
                    minimized,
                    minimized_tokens,
                });
            }
        }
    }
    runs
}

/// Shrink-predicate helper: parse `s` and re-apply `tinfo` with the
/// case's transform seed. `None` unless the subject and both outputs are
/// binder-clean, the conditions under which the oracle judged the pair.
fn reapply(s: &str, tinfo: &TransformInfo, tseed: u64, gs: &GenSchema) -> Option<[Query; 2]> {
    let q = parse_query(s).ok()?;
    if !clean(&q, gs) {
        return None;
    }
    let (a, b) = tinfo.apply(&q, &mut StdRng::seed_from_u64(tseed))?;
    (clean(&a, gs) && clean(&b, gs)).then_some([a, b])
}

#[allow(clippy::too_many_arguments)]
fn oracle_metamorphic(
    cfg: &FuzzConfig,
    report: &mut CaseReport,
    query: &Query,
    sql: &str,
    gs: &GenSchema,
    witnesses: &[Database],
    index: u64,
) {
    let catalog = transform_catalog();
    let all: Vec<&TransformInfo> = catalog.iter().chain(cfg.extra_transforms.iter()).collect();
    for (ti, tinfo) in all.iter().enumerate() {
        let tseed = mix(cfg.seed, mix(index, 0x7A0F_0000 ^ ti as u64));
        let mut trng = StdRng::seed_from_u64(tseed);
        let Some((q1, q2)) = tinfo.apply(query, &mut trng) else {
            continue; // transform not applicable to this query shape
        };
        if !clean(&q1, gs) || !clean(&q2, gs) {
            report.counts.metamorphic_skip += 1;
            continue;
        }
        // each output's differential runs double as the verdict's runs;
        // shrinking re-applies the transform and re-checks that output
        let label = tinfo.label();
        let r1 = differential(report, &q1, sql, witnesses, Some((label, 1)), |s| {
            reapply(s, tinfo, tseed, gs).is_some_and(|[a, _]| disagrees_somewhere(&a, witnesses))
        });
        let r2 = differential(report, &q2, sql, witnesses, Some((label, 2)), |s| {
            reapply(s, tinfo, tseed, gs).is_some_and(|[_, b]| disagrees_somewhere(&b, witnesses))
        });
        let verdict = pair_verdict(r1.into_iter().zip(r2));
        check_certificate(report, tinfo, tseed, &q1, &q2, sql, gs, witnesses, verdict);
        match (tinfo.kind(), verdict) {
            (_, Verdict::Failed) => report.counts.metamorphic_skip += 1,
            (TransformKind::Preserving, Verdict::AgreedEverywhere) => {
                report.counts.preserving_pass += 1
            }
            (TransformKind::Preserving, Verdict::Differed) => {
                report.counts.preserving_fail += 1;
                let (minimized, minimized_tokens) = shrink_sql(sql, |s| {
                    reapply(s, tinfo, tseed, gs).is_some_and(|[a, b]| {
                        differential_verdict_skipping_limits(&a, &b, witnesses) == Verdict::Differed
                    })
                });
                report.failures.push(Failure {
                    case: report.index,
                    oracle: "metamorphic".to_string(),
                    transform: Some(label.to_string()),
                    sql: sql.to_string(),
                    detail: format!(
                        "transform `{label}` claims to preserve results but a witness distinguished the pair"
                    ),
                    minimized,
                    minimized_tokens,
                });
            }
            (TransformKind::Breaking, Verdict::Differed) => {
                report.counts.breaking_distinguished += 1
            }
            (TransformKind::Breaking, Verdict::AgreedEverywhere) => {
                report.counts.breaking_undistinguished += 1
            }
        }
    }
}

/// Cross-check a static pair certificate against the transform's label and
/// the executed verdict. Two contradictions are hard soundness failures:
///
/// - **Equivalent + Differed** — the certifier (i.e. the canonicalizer)
///   claimed result equality but a witness database distinguished the pair.
/// - **Inequivalent + preserving transform** — the certifier statically
///   convicted a transform that is equivalence-preserving by construction.
#[allow(clippy::too_many_arguments)]
fn check_certificate(
    report: &mut CaseReport,
    tinfo: &TransformInfo,
    tseed: u64,
    q1: &Query,
    q2: &Query,
    sql: &str,
    gs: &GenSchema,
    witnesses: &[Database],
    verdict: Verdict,
) {
    let cert = squ_sema::certify_pair(q1, q2, &gs.schema);
    match cert {
        Certificate::Equivalent(_) => report.sema.certified_equivalent += 1,
        Certificate::Inequivalent(_) => report.sema.certified_inequivalent += 1,
        Certificate::Unknown => report.sema.certified_unknown += 1,
    }
    let label = tinfo.label();
    let contradiction = match cert {
        Certificate::Equivalent(_) if verdict == Verdict::Differed => Some(format!(
            "pair from `{label}` was certified equivalent ({}) but a witness distinguished it",
            cert.reason().unwrap_or(""),
        )),
        Certificate::Inequivalent(_) if tinfo.kind() == TransformKind::Preserving => Some(format!(
            "preserving transform `{label}` was statically convicted ({})",
            cert.reason().unwrap_or(""),
        )),
        _ => None,
    };
    let Some(detail) = contradiction else {
        if cert != Certificate::Unknown {
            report.sema.soundness_pass += 1;
        }
        return;
    };
    report.sema.soundness_fail += 1;
    let (minimized, minimized_tokens) = shrink_sql(sql, |s| {
        let Some([a, b]) = reapply(s, tinfo, tseed, gs) else {
            return false;
        };
        match squ_sema::certify_pair(&a, &b, &gs.schema) {
            Certificate::Equivalent(_) => {
                differential_verdict_skipping_limits(&a, &b, witnesses) == Verdict::Differed
            }
            Certificate::Inequivalent(_) => tinfo.kind() == TransformKind::Preserving,
            Certificate::Unknown => false,
        }
    });
    report.failures.push(Failure {
        case: report.index,
        oracle: "sema-certificate".to_string(),
        transform: Some(label.to_string()),
        sql: sql.to_string(),
        detail,
        minimized,
        minimized_tokens,
    });
}

/// [`squ_tasks::differential_verdict`] over two queries' engine runs,
/// paired per witness in witness order, except that a `ResourceLimit` on
/// either side skips that witness instead of failing the pair (mirrors the
/// differential oracle's budget policy).
fn pair_verdict(runs: impl IntoIterator<Item = (Run, Run)>) -> Verdict {
    let mut any = false;
    for pair in runs {
        match pair {
            (Ok(a), Ok(b)) => {
                any = true;
                if !a.result_equal(&b) {
                    return Verdict::Differed;
                }
            }
            (Err(ExecError::ResourceLimit), _) | (_, Err(ExecError::ResourceLimit)) => continue,
            _ => return Verdict::Failed,
        }
    }
    if any {
        Verdict::AgreedEverywhere
    } else {
        Verdict::Failed
    }
}

/// [`pair_verdict`] on fresh engine runs of `q1` and `q2`, for shrink
/// predicates (the oracle itself reads the runs it already compared).
fn differential_verdict_skipping_limits(q1: &Query, q2: &Query, witnesses: &[Database]) -> Verdict {
    let (mut p1, mut p2) = (Prepared::new(q1), Prepared::new(q2));
    let run = |p: &mut Prepared, db| p.execute(db).map(|(r, _)| r);
    pair_verdict(
        witnesses
            .iter()
            .map(|db| (run(&mut p1, db), run(&mut p2, db))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FuzzReport;
    use squ_parser::ast::{Expr, SetExpr};
    use squ_parser::CompareOp;

    #[test]
    fn a_small_seeded_run_is_clean_and_deterministic() {
        let cfg = FuzzConfig::new(11);
        let a: Vec<CaseReport> = (0..12).map(|i| run_case(&cfg, i)).collect();
        let b: Vec<CaseReport> = (0..12).map(|i| run_case(&cfg, i)).collect();
        assert_eq!(a, b, "same (seed, index) must reproduce byte-identically");
        let report = FuzzReport::from_cases(11, &a);
        assert!(
            report.is_clean(),
            "oracle violations on a clean build:\n{}",
            report.to_json()
        );
        let c = &report.counts;
        assert!(c.roundtrip_pass >= 12);
        assert!(c.differential_pass > 0);
        assert!(c.preserving_pass > 0);
        assert!(c.breaking_distinguished > 0);
        // one differential check per witness for the subject query and for
        // both outputs of every executed transform pair
        assert_eq!(c.metamorphic_skip, 0);
        let pairs = c.preserving_pass
            + c.preserving_fail
            + c.breaking_distinguished
            + c.breaking_undistinguished;
        assert_eq!(
            c.differential_pass + c.differential_skip + c.differential_fail,
            5 * (12 + 2 * pairs)
        );
    }

    #[test]
    fn dialect_corpora_are_clean_and_rendered_in_their_dialect() {
        let base: Vec<CaseReport> = {
            let cfg = FuzzConfig::new(11);
            (0..8).map(|i| run_case(&cfg, i)).collect()
        };
        for d in Dialect::CONCRETE {
            let cfg = FuzzConfig::for_dialect(11, d);
            let cases: Vec<CaseReport> = (0..8).map(|i| run_case(&cfg, i)).collect();
            let report = FuzzReport::from_cases_in(11, d.name(), &cases);
            assert!(report.is_clean(), "{}:\n{}", d.name(), report.to_json());
            assert_eq!(report.counts.dialect_fail, 0);
            assert_eq!(report.counts.dialect_pass, 8, "{}", d.name());
            for (c, b) in cases.iter().zip(&base) {
                // the corpus entry is the subject translated into the
                // dialect and parses as that dialect's text
                assert!(
                    parse_query_dialect(&c.sql, d).is_ok(),
                    "{} corpus entry does not parse: {}",
                    d.name(),
                    c.sql
                );
                // the execution-facing oracles are untouched: only the
                // dialect tallies and the corpus text differ from a Squ run
                let mut counts = c.counts;
                counts.dialect_pass = 0;
                assert_eq!(counts, b.counts);
                assert_eq!(c.engine, b.engine);
                assert_eq!(c.sema, b.sema);
            }
        }
    }

    /// A transform that *claims* to preserve equivalence but flips the
    /// first comparison operator it finds — the harness must convict it
    /// and shrink the reproducer to a handful of tokens.
    fn flip_first_comparison(q: &Query, _rng: &mut StdRng) -> Option<(Query, Query)> {
        fn flip(e: &mut Expr) -> bool {
            match e {
                Expr::Compare { op, .. } => {
                    *op = match *op {
                        CompareOp::Lt => CompareOp::GtEq,
                        CompareOp::LtEq => CompareOp::Gt,
                        CompareOp::Gt => CompareOp::LtEq,
                        CompareOp::GtEq => CompareOp::Lt,
                        CompareOp::Eq => CompareOp::NotEq,
                        CompareOp::NotEq => CompareOp::Eq,
                    };
                    true
                }
                Expr::And(a, b) | Expr::Or(a, b) => flip(a) || flip(b),
                Expr::Not(inner) => flip(inner),
                _ => false,
            }
        }
        let mut q2 = q.clone();
        let sel = match &mut q2.body {
            SetExpr::Select(s) => s,
            SetExpr::SetOp { .. } => return None,
        };
        let flipped = match sel.selection.as_mut() {
            Some(pred) => flip(pred),
            None => false,
        };
        flipped.then(|| (q.clone(), q2))
    }

    #[test]
    fn an_unsound_transform_is_convicted_with_a_small_reproducer() {
        let mut cfg = FuzzConfig::new(7);
        cfg.extra_transforms.push(TransformInfo::custom(
            "flip-first-comparison",
            TransformKind::Preserving,
            flip_first_comparison,
        ));
        let mut convictions = Vec::new();
        for i in 0..24 {
            let r = run_case(&cfg, i);
            convictions.extend(
                r.failures
                    .into_iter()
                    .filter(|f| f.transform.as_deref() == Some("flip-first-comparison")),
            );
        }
        assert!(
            !convictions.is_empty(),
            "24 seeded cases never convicted the planted unsound transform"
        );
        let smallest = convictions
            .iter()
            .map(|f| f.minimized_tokens)
            .min()
            .unwrap_or(u64::MAX);
        assert!(
            smallest <= 20,
            "expected a reproducer of at most 20 tokens, smallest was {smallest}"
        );
        for f in &convictions {
            assert!(f.minimized_tokens > 0);
            assert!(!f.minimized.is_empty());
        }
    }
}
