//! Compiled-vs-reference benchmark over the fuzz generator stream.
//!
//! [`engine_bench`] replays exactly the queries, witness databases, and
//! transform pairs a fuzz run with the same `(seed, cases)` would
//! exercise — slot, RNG, and witness derivation mirror
//! [`crate::oracle::run_case`] — and times the two execution paths side
//! by side:
//!
//! * **compiled** — [`squ_engine::compile_query`] once per query, then
//!   [`squ_engine::CompiledQuery::execute`] across all witness databases
//!   (plans are database-independent, so this measures the intended
//!   compile-once / run-many shape); a query the compiler rejects runs
//!   through [`squ_engine::execute_query`], which falls back;
//! * **reference** — [`squ_engine::reference_query`] per witness, the
//!   naive interpreter that defines the semantics.
//!
//! Every pair of runs is also compared for result agreement, so the
//! benchmark doubles as one more differential pass over every transform
//! output: `divergences` must be zero on a healthy build. Timings are
//! wall-clock and host-dependent; everything else in the report is
//! deterministic for `(seed, cases)`.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use squ_engine::{
    compile_query, execute_query, reference_query, witness_batch_cached, Database, ExecError,
    Relation,
};
use squ_parser::ast::{Query, Statement};
use squ_schema::analyze;
use squ_tasks::transform_catalog;

use crate::gen::{generate_schema, mix, GenSchema, SCHEMA_POOL};
use crate::oracle::subject_query;
use crate::report::EngineCounters;

/// Outcome of the compiled-vs-reference benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineBench {
    /// Cases replayed.
    pub cases: u64,
    /// Wall-clock spent in the compiled path, differential phase.
    pub differential_compiled: Duration,
    /// Wall-clock spent in the reference interpreter, differential phase.
    pub differential_reference: Duration,
    /// Wall-clock spent in the compiled path, equivalence-verify phase.
    pub equiv_compiled: Duration,
    /// Wall-clock spent in the reference interpreter, equivalence-verify
    /// phase.
    pub equiv_reference: Duration,
    /// Query executions timed per engine (both phases).
    pub executions: u64,
    /// Executions skipped because exactly one side hit its row budget.
    pub budget_skips: u64,
    /// Queries the compiler rejected (whole query fell back to the
    /// reference interpreter).
    pub compile_fallbacks: u64,
    /// Runs where compiled and reference results disagreed. Must be 0.
    pub divergences: u64,
    /// Compiled-path execution counters summed over the whole benchmark
    /// (a fallback adds only to `fallbacks`).
    pub counters: EngineCounters,
}

impl EngineBench {
    /// Reference-to-compiled wall-clock ratio for the differential phase
    /// (`> 1` means the compiled path is faster).
    pub fn differential_speedup(&self) -> f64 {
        ratio(self.differential_reference, self.differential_compiled)
    }

    /// Reference-to-compiled ratio for the equivalence-verify phase.
    pub fn equiv_speedup(&self) -> f64 {
        ratio(self.equiv_reference, self.equiv_compiled)
    }

    /// Reference-to-compiled ratio over both phases combined.
    pub fn overall_speedup(&self) -> f64 {
        ratio(
            self.differential_reference + self.equiv_reference,
            self.differential_compiled + self.equiv_compiled,
        )
    }
}

fn ratio(slow: Duration, fast: Duration) -> f64 {
    let f = fast.as_secs_f64();
    if f <= 0.0 {
        return f64::INFINITY;
    }
    slow.as_secs_f64() / f
}

/// One timed engine run: the result (or error) and how long it took.
type Timed = (Result<Relation, ExecError>, Duration);

/// Time the compiled path on `q` over `dbs`: one compilation, then one
/// execution per database. A query the compiler rejects runs through
/// [`execute_query`], whose fallback lands in `counters.fallbacks`, and
/// is tallied in `compile_fallbacks` so the report shows how much of the
/// stream the compiler covered.
///
/// Before the timed loop, one untimed execution per database warms the
/// witness data (page-faults, cache lines): whichever engine touches a
/// fresh witness first would otherwise pay that one-time memory cost,
/// and since the compiled side runs first here, skipping the warm-up
/// would fold the machine's cold-start tax into the compiled bucket
/// while handing the reference interpreter pre-warmed caches. Both
/// engines are measured on warm data; the compiler's own one-time cost
/// stays in the timed bucket (charged to the first execution below).
fn run_compiled(q: &Query, dbs: &[Database], bench: &mut EngineBench) -> Vec<Timed> {
    let t0 = Instant::now();
    let cq = compile_query(q, &dbs[0]);
    let compile_cost = t0.elapsed();
    if cq.is_none() {
        bench.compile_fallbacks += 1;
    }
    for db in dbs {
        // untimed warm-up; counters come from the timed runs only, so
        // the deterministic `fuzz.bench.*` totals are unaffected
        let _ = match &cq {
            Some(cq) => cq.execute(db),
            None => execute_query(q, db),
        };
    }
    let mut out = Vec::with_capacity(dbs.len());
    for (i, db) in dbs.iter().enumerate() {
        let t = Instant::now();
        let res = match &cq {
            Some(cq) => cq.execute(db),
            None => execute_query(q, db),
        };
        let mut elapsed = t.elapsed();
        if i == 0 {
            // charge compilation to the first execution so the compiled
            // side never hides its one-time cost
            elapsed += compile_cost;
        }
        let res = res.map(|(r, s)| {
            bench.counters.rows_scanned += s.rows_scanned;
            bench.counters.join_pairs += s.join_pairs;
            bench.counters.batches += s.batches;
            bench.counters.index_probes += s.index_probes;
            bench.counters.index_hits += s.index_hits;
            bench.counters.subquery_evals += s.subquery_evals;
            bench.counters.compiled += s.compiled;
            bench.counters.fallbacks += s.fallbacks;
            bench.counters.empty_prunes += s.empty_prunes;
            r
        });
        out.push((res, elapsed));
    }
    out
}

/// Time the reference interpreter on `q` over `dbs`.
fn run_reference(q: &Query, dbs: &[Database]) -> Vec<Timed> {
    dbs.iter()
        .map(|db| {
            let t = Instant::now();
            let res = reference_query(q, db);
            (res, t.elapsed())
        })
        .collect()
}

/// Compare the per-database outcomes of the two engines, accumulating
/// their wall-clock into the given phase buckets and counting
/// divergences. Mirrors the differential oracle's policy: both-error
/// agrees, a lone `ResourceLimit` skips, anything else one-sided or any
/// row difference diverges.
fn score(
    compiled: Vec<Timed>,
    reference: Vec<Timed>,
    buckets: (&mut Duration, &mut Duration),
    bench: &mut EngineBench,
) {
    for ((c_res, c_dur), (r_res, r_dur)) in compiled.into_iter().zip(reference) {
        *buckets.0 += c_dur;
        *buckets.1 += r_dur;
        bench.executions += 1;
        match (c_res, r_res) {
            (Ok(a), Ok(b)) => {
                let agree = a.columns.len() == b.columns.len()
                    && a.canonical_digest() == b.canonical_digest();
                if !agree {
                    bench.divergences += 1;
                }
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(ExecError::ResourceLimit)) | (Err(ExecError::ResourceLimit), Ok(_)) => {
                bench.budget_skips += 1;
            }
            _ => bench.divergences += 1,
        }
    }
}

/// Is `q` binder-clean against the generated schema?
fn clean(q: &Query, gs: &GenSchema) -> bool {
    analyze(&Statement::Query(q.clone()), &gs.schema).is_empty()
}

/// Replay `cases` cases of the fuzz stream for `seed` and time the
/// compiled engine against the reference interpreter on every
/// differential and metamorphic (equivalence-verify) execution.
pub fn engine_bench(seed: u64, cases: u64) -> EngineBench {
    let mut bench = EngineBench {
        cases,
        ..EngineBench::default()
    };
    let catalog = transform_catalog();
    for index in 0..cases {
        let slot = index % SCHEMA_POOL;
        let gs = generate_schema(seed, slot);
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xCA5E_0000 ^ index));
        let (query, _sql) = subject_query(&mut rng, &gs);
        let witnesses = witness_batch_cached(&gs.schema, mix(seed, 0xB17C_0000 ^ slot));

        // differential phase: the subject query on every witness
        let compiled = run_compiled(&query, &witnesses, &mut bench);
        let reference = run_reference(&query, &witnesses);
        let (mut dc, mut dr) = (bench.differential_compiled, bench.differential_reference);
        score(compiled, reference, (&mut dc, &mut dr), &mut bench);
        bench.differential_compiled = dc;
        bench.differential_reference = dr;

        // equivalence-verify phase: every applicable transform pair
        for (ti, tinfo) in catalog.iter().enumerate() {
            let tseed = mix(seed, mix(index, 0x7A0F_0000 ^ ti as u64));
            let mut trng = StdRng::seed_from_u64(tseed);
            let Some((q1, q2)) = tinfo.apply(&query, &mut trng) else {
                continue;
            };
            if !clean(&q1, &gs) || !clean(&q2, &gs) {
                continue;
            }
            for q in [&q1, &q2] {
                let compiled = run_compiled(q, &witnesses, &mut bench);
                let reference = run_reference(q, &witnesses);
                let (mut ec, mut er) = (bench.equiv_compiled, bench.equiv_reference);
                score(compiled, reference, (&mut ec, &mut er), &mut bench);
                bench.equiv_compiled = ec;
                bench.equiv_reference = er;
            }
        }
    }
    bench
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_replays_cleanly_with_zero_divergences() {
        let b = engine_bench(11, 6);
        assert_eq!(b.divergences, 0, "compiled and reference must agree");
        assert!(b.executions > 0);
        assert!(
            b.counters.compiled > 0,
            "the compiler should cover part of the generated stream"
        );
        assert!(b.differential_compiled > Duration::ZERO);
        assert!(b.differential_reference > Duration::ZERO);
    }

    #[test]
    fn deterministic_everything_but_wall_clock() {
        let a = engine_bench(23, 4);
        let b = engine_bench(23, 4);
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.budget_skips, b.budget_skips);
        assert_eq!(a.compile_fallbacks, b.compile_fallbacks);
        assert_eq!(a.divergences, b.divergences);
        assert_eq!(a.counters, b.counters);
    }
}
