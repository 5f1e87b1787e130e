//! Differential equivalence checking of two SQL queries — the machinery
//! behind the benchmark's `query_equiv` labels, usable standalone.
//!
//! Executes both queries on a batch of adversarial witness databases for
//! the SDSS schema and reports whether any witness distinguishes them.
//! Agreement on all witnesses is strong evidence of (but not a proof of)
//! equivalence; any disagreement is a *proof* of non-equivalence, and the
//! first differing witness is summarized.
//!
//! ```text
//! cargo run --release --example equivalence_checker
//! cargo run --release --example equivalence_checker -- \
//!   "SELECT plate FROM SpecObj WHERE z > 0.5 AND ra > 180" \
//!   "SELECT plate FROM SpecObj WHERE ra > 180 AND z > 0.5"
//! ```

use squ_engine::{witness_batch, Prepared};
use squ_parser::parse_query;
use squ_schema::schemas::sdss;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pairs: Vec<(String, String)> = if args.len() == 2 {
        vec![(args[0].clone(), args[1].clone())]
    } else {
        vec![
            // the paper's Q10 (reorder-conditions, equivalent)
            (
                "SELECT * FROM SpecObj WHERE plate = 1000 AND mjd > 55000".into(),
                "SELECT * FROM SpecObj WHERE mjd > 55000 AND plate = 1000".into(),
            ),
            // the paper's Q13 (logical-conditions, NOT equivalent)
            (
                "SELECT plate, mjd, fiberid FROM SpecObj WHERE z > 0.5 AND ra > 180".into(),
                "SELECT plate, mjd, fiberid FROM SpecObj WHERE z > 0.5 OR ra > 180".into(),
            ),
            // the paper's Q9 (cte, equivalent)
            (
                "SELECT plate, mjd FROM SpecObj WHERE z > 0.5".into(),
                "WITH HighRedshift AS (SELECT plate, mjd FROM SpecObj WHERE z > 0.5) SELECT plate, mjd FROM HighRedshift".into(),
            ),
            // the paper's Q12 (change-join-condition, NOT equivalent)
            (
                "SELECT s.plate, s.mjd FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid".into(),
                "SELECT s.plate, s.mjd FROM SpecObj AS s LEFT JOIN PhotoObj AS p ON s.bestobjid = p.objid".into(),
            ),
        ]
    };

    let schema = sdss();
    let witnesses = witness_batch(&schema, 0xD1FF);

    for (sql1, sql2) in pairs {
        println!("Q1: {sql1}");
        println!("Q2: {sql2}");
        let (q1, q2) = match (parse_query(&sql1), parse_query(&sql2)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                println!("  ✗ parse error: {e}\n");
                continue;
            }
        };
        let mut verdict = "EQUIVALENT on all witnesses (no counterexample found)";
        let mut detail = String::new();
        // one `Prepared` per query proves its WHEREs once for every witness
        let (mut p1, mut p2) = (Prepared::new(&q1), Prepared::new(&q2));
        for (i, db) in witnesses.iter().enumerate() {
            let r1 = match p1.execute(db) {
                Ok((r, _)) => r,
                Err(e) => {
                    verdict = "UNDECIDED (execution failed)";
                    detail = format!("  witness {i}: {e}");
                    break;
                }
            };
            let r2 = match p2.execute(db) {
                Ok((r, _)) => r,
                Err(e) => {
                    verdict = "UNDECIDED (execution failed)";
                    detail = format!("  witness {i}: {e}");
                    break;
                }
            };
            if !r1.result_equal(&r2) {
                verdict = "NOT EQUIVALENT";
                detail = format!(
                    "  counterexample: witness {i} gives {} vs {} rows\n  Q1 first rows: {}\n  Q2 first rows: {}",
                    r1.len(),
                    r2.len(),
                    preview(&r1),
                    preview(&r2),
                );
                break;
            }
        }
        println!("  → {verdict}");
        if !detail.is_empty() {
            println!("{detail}");
        }
        println!();
    }
}

fn preview(rel: &squ_engine::Relation) -> String {
    let rows: Vec<String> = rel
        .sorted_rows()
        .into_iter()
        .take(3)
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    if rows.is_empty() {
        "∅".to_string()
    } else {
        rows.join(" ")
    }
}
