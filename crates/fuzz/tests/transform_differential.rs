//! Differential suite over the transform catalog: every query produced by
//! every transform (both the equivalence-preserving and the
//! equivalence-breaking rewrites) must execute identically on the compiled
//! engine and the naive reference interpreter.
//!
//! This is the compiled engine's broadest correctness net: the transforms
//! deliberately produce shapes the grammar generator alone underweights
//! (pushed-down predicates, rewritten joins, added subqueries, DISTINCT /
//! LIMIT toggles), so agreement here pins the compiler across the whole
//! rewrite surface, not just the generator's distribution.

use rand::rngs::StdRng;
use rand::SeedableRng;
use squ_engine::{compile_query, reference_query, witness_batch_cached, ExecError};
use squ_fuzz::{generate_schema, mix, subject_query, GenSchema, SCHEMA_POOL};
use squ_parser::ast::{Query, Statement};
use squ_parser::print_query;
use squ_schema::analyze;
use squ_tasks::transform_catalog;
use std::collections::BTreeMap;

/// Cases to replay; enough for every catalog transform to apply at least
/// once under this seed.
const CASES: u64 = 64;
const SEED: u64 = 0x7_E57;

fn clean(q: &Query, gs: &GenSchema) -> bool {
    analyze(&Statement::Query(q.clone()), &gs.schema).is_empty()
}

#[test]
fn compiled_engine_agrees_with_reference_on_every_transform_output() {
    let catalog = transform_catalog();
    let mut applied: BTreeMap<&str, u64> = BTreeMap::new();
    let mut compiled_runs = 0u64;
    let mut disagreements: Vec<String> = Vec::new();

    for index in 0..CASES {
        let slot = index % SCHEMA_POOL;
        let gs = generate_schema(SEED, slot);
        let mut rng = StdRng::seed_from_u64(mix(SEED, 0xCA5E_0000 ^ index));
        let (query, _) = subject_query(&mut rng, &gs);
        let witnesses = witness_batch_cached(&gs.schema, mix(SEED, 0xB17C_0000 ^ slot));

        for (ti, tinfo) in catalog.iter().enumerate() {
            let tseed = mix(SEED, mix(index, 0x7A0F_0000 ^ ti as u64));
            let mut trng = StdRng::seed_from_u64(tseed);
            let Some((q1, q2)) = tinfo.apply(&query, &mut trng) else {
                continue;
            };
            if !clean(&q1, &gs) || !clean(&q2, &gs) {
                continue;
            }
            *applied.entry(tinfo.label()).or_default() += 1;

            for q in [&q1, &q2] {
                for db in witnesses.iter() {
                    // only the compiled path is under test here: when the
                    // compiler rejects the shape, the hybrid engine runs
                    // the interpreter, which the main fuzz oracles cover
                    let Some(cq) = compile_query(q, db) else {
                        continue;
                    };
                    compiled_runs += 1;
                    let fast = cq.execute(db).map(|(r, _)| r);
                    let slow = reference_query(q, db);
                    let verdict = match (fast, slow) {
                        (Ok(a), Ok(b)) => (a.columns.len() == b.columns.len()
                            && a.canonical_digest() == b.canonical_digest())
                        .then_some(())
                        .ok_or_else(|| {
                            format!(
                                "{} row(s) vs reference {} row(s)",
                                a.rows.len(),
                                b.rows.len()
                            )
                        }),
                        (Err(_), Err(_)) => Ok(()),
                        (Ok(_), Err(ExecError::ResourceLimit))
                        | (Err(ExecError::ResourceLimit), Ok(_)) => Ok(()),
                        (Ok(_), Err(e)) => Err(format!("reference failed where compiled ran: {e}")),
                        (Err(e), Ok(_)) => Err(format!("compiled failed where reference ran: {e}")),
                    };
                    if let Err(detail) = verdict {
                        disagreements.push(format!(
                            "case {index} transform `{}`: {detail}\n  sql: {}",
                            tinfo.label(),
                            print_query(q)
                        ));
                    }
                }
            }
        }
    }

    assert!(
        disagreements.is_empty(),
        "compiled engine diverged from the reference interpreter:\n{}",
        disagreements.join("\n")
    );
    assert_eq!(
        applied.len(),
        catalog.len(),
        "every catalog transform must apply at least once under this seed; \
         applied: {applied:?}"
    );
    assert!(
        compiled_runs > 100,
        "the compiler covered too little of the transformed stream: {compiled_runs} runs"
    );
}
