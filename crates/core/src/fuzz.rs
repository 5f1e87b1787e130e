//! Orchestration of `squ-fuzz` runs: parallel case execution over the
//! [`par`] layer plus warm-resume through the artifact store.
//!
//! Each case is keyed in the store by `(fuzz seed, index)` via
//! [`crate::store::fp_fuzz`], so a re-run with `--resume` only
//! executes cases the store has not judged yet — and because every case is
//! fully determined by its key, a resumed report is byte-identical to a
//! cold one.

use crate::par;
use crate::store::{fp_fuzz_dialect, Store};
use squ_fuzz::{run_case, CaseReport, Dialect, FuzzConfig, FuzzReport};

/// Store stage name for fuzz cases.
const STAGE: &str = "fuzz";

/// Store entry name of one fuzz case: the historical `case{index}` for
/// the default `squ` corpus, `case{index}_{dialect}` for per-dialect
/// corpora so a multi-dialect store stays readable.
fn case_name(index: u64, dialect: Dialect) -> String {
    if dialect == Dialect::Squ {
        format!("case{index}")
    } else {
        format!("case{index}_{}", dialect.name())
    }
}

/// Run `cases` fuzz cases under `fuzz_seed` with `jobs` workers, over the
/// default `squ`-dialect corpus.
///
/// When `store` is given, already-judged cases load from it and fresh
/// results are saved back. Case order in the report is by index
/// regardless of `jobs` or cache state.
pub fn run_fuzz(cases: u64, fuzz_seed: u64, jobs: usize, store: Option<&mut Store>) -> FuzzReport {
    run_fuzz_dialect(cases, fuzz_seed, jobs, store, Dialect::Squ)
}

/// [`run_fuzz`] over a per-dialect corpus: every subject query is also
/// translated into `dialect`, emitted as that dialect's text, and held to
/// the dialect round-trip law. Store keys fold the dialect name, so each
/// corpus resumes independently.
pub fn run_fuzz_dialect(
    cases: u64,
    fuzz_seed: u64,
    jobs: usize,
    mut store: Option<&mut Store>,
    dialect: Dialect,
) -> FuzzReport {
    let cfg = FuzzConfig::for_dialect(fuzz_seed, dialect);

    let mut slots: Vec<Option<CaseReport>> = Vec::with_capacity(cases as usize);
    let mut pending: Vec<u64> = Vec::new();
    for index in 0..cases {
        let cached = store.as_mut().and_then(|s| {
            s.load_value::<CaseReport>(
                STAGE,
                &case_name(index, dialect),
                fp_fuzz_dialect(fuzz_seed, index, dialect.name()),
            )
        });
        if cached.is_none() {
            pending.push(index);
        }
        slots.push(cached);
    }

    let computed = par::map(jobs, pending, |index| run_case(&cfg, index));

    for report in computed {
        let index = report.index;
        if let Some(s) = store.as_mut() {
            s.save_value(
                STAGE,
                &case_name(index, dialect),
                fp_fuzz_dialect(fuzz_seed, index, dialect.name()),
                &report,
            );
        }
        slots[index as usize] = Some(report);
    }

    let ordered: Vec<CaseReport> = slots.into_iter().flatten().collect();
    FuzzReport::from_cases_in(fuzz_seed, dialect.name(), &ordered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (std::path::PathBuf, Store) {
        let root = std::env::temp_dir().join(format!("squ-fuzz-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        (root.clone(), Store::open(root))
    }

    #[test]
    fn jobs_count_does_not_change_the_report() {
        let a = run_fuzz(10, 3, 1, None);
        let b = run_fuzz(10, 3, 4, None);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.is_clean(), "{}", a.to_json());
    }

    #[test]
    fn engine_work_counters_are_pinned_exactly() {
        // `repro --fuzz 300 --fuzz-seed 7`: every counter is deterministic,
        // so a change to the work the engine does on this stream moves one
        let report = run_fuzz(300, 7, 2, None);
        let want = squ_fuzz::EngineCounters {
            rows_scanned: 423_062,
            join_pairs: 1_352_318,
            batches: 32_627,
            index_probes: 1_013,
            index_hits: 1_925,
            subquery_evals: 3_530,
            compiled: 19_765,
            fallbacks: 105,
            empty_prunes: 130,
        };
        assert_eq!(report.engine, want);
        let c = &report.counts;
        assert_eq!(
            (
                c.differential_pass,
                c.differential_skip,
                c.differential_fail
            ),
            (19_870, 0, 0)
        );
    }

    #[test]
    fn warm_resume_skips_judged_cases_and_reproduces_the_report() {
        let (root, mut store) = temp_store("resume");
        let cold = run_fuzz(8, 5, 2, Some(&mut store));
        assert_eq!(store.total_misses(), 8, "cold run must miss every case");

        let mut store2 = Store::open(&root);
        let warm = run_fuzz(8, 5, 2, Some(&mut store2));
        let stats = store2.stats().get("fuzz").copied().unwrap_or_default();
        assert_eq!(stats.hits, 8, "warm run must hit every case");
        assert_eq!(cold.to_json(), warm.to_json());

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dialect_corpora_resume_independently() {
        let (root, mut store) = temp_store("dialect");
        let cold = run_fuzz_dialect(6, 5, 2, Some(&mut store), Dialect::Tsql);
        assert_eq!(store.total_misses(), 6, "cold run must miss every case");
        assert_eq!(cold.dialect, "tsql");
        assert!(cold.is_clean(), "{}", cold.to_json());
        assert_eq!(cold.counts.dialect_pass, 6);

        let mut store2 = Store::open(&root);
        let warm = run_fuzz_dialect(6, 5, 2, Some(&mut store2), Dialect::Tsql);
        let stats = store2.stats().get("fuzz").copied().unwrap_or_default();
        assert_eq!(stats.hits, 6, "warm run must hit every case");
        assert_eq!(cold.to_json(), warm.to_json());

        // another dialect over the same (seed, index) range shares nothing
        let mut store3 = Store::open(&root);
        let other = run_fuzz_dialect(6, 5, 2, Some(&mut store3), Dialect::Mysql);
        assert_eq!(store3.total_misses(), 6, "dialects must not share entries");
        assert_eq!(other.dialect, "mysql");

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn seed_changes_invalidate_the_cache() {
        let (root, mut store) = temp_store("seedswap");
        let _ = run_fuzz(4, 1, 1, Some(&mut store));
        let mut store2 = Store::open(&root);
        let _ = run_fuzz(4, 2, 1, Some(&mut store2));
        assert_eq!(store2.total_misses(), 4, "a new seed must miss everywhere");
        let _ = std::fs::remove_dir_all(&root);
    }
}
