//! Index-correctness test with the global index toggle force-disabled.
//!
//! This lives in its own integration binary on purpose: the toggle is a
//! process-global atomic, and `cargo test` runs each binary's tests on
//! shared threads — flipping the toggle next to other engine tests would
//! race with any test that asserts index-probe counters. One binary, one
//! test, one process: no interleaving.

use squ_engine::{execute_query, reference_query, set_indexes_enabled, Database, Relation, Value};
use squ_parser::parse_query;

fn db() -> Database {
    let mut db = Database::new("toggle");
    let rows: Vec<Vec<Value>> = (0..64)
        .map(|i| {
            vec![
                Value::num(f64::from(i)),
                Value::num(f64::from(i % 8)),
                Value::str(if i % 2 == 0 { "even" } else { "odd" }),
            ]
        })
        .collect();
    db.insert_table(
        "events",
        Relation::new(vec!["id".into(), "bucket".into(), "parity".into()], rows),
    );
    db
}

#[test]
fn disabling_indexes_changes_counters_but_never_results() {
    let db = db();
    let sqls = [
        "SELECT id FROM events WHERE bucket = 3",
        "SELECT parity, COUNT(*) FROM events WHERE bucket = 5 GROUP BY parity",
        "SELECT id FROM events WHERE 6 = bucket ORDER BY id",
    ];

    for sql in sqls {
        let q = parse_query(sql).unwrap();
        let expected = reference_query(&q, &db).unwrap();

        // enabled: the `bucket = const` scan goes through the hash index
        let (with_idx, stats_on) = execute_query(&q, &db).unwrap();
        assert_eq!(stats_on.compiled, 1, "{sql} should compile");
        assert_eq!(stats_on.index_probes, 1, "{sql} should probe the index");
        assert_eq!(
            stats_on.index_hits, 8,
            "{sql}: 8 of 64 rows share each bucket"
        );
        assert_eq!(
            stats_on.rows_scanned, 8,
            "{sql}: an index probe materializes only matching rows"
        );
        assert_eq!(with_idx.columns, expected.columns, "{sql}");
        assert_eq!(with_idx.rows, expected.rows, "{sql}");

        // disabled: same plan executes as a full scan — identical results,
        // degraded counters
        set_indexes_enabled(false);
        let off = execute_query(&q, &db);
        set_indexes_enabled(true);
        let (without_idx, stats_off) = off.unwrap();
        assert_eq!(stats_off.compiled, 1, "{sql} still compiles when off");
        assert_eq!(stats_off.index_probes, 0, "{sql}: no probes when off");
        assert_eq!(stats_off.index_hits, 0, "{sql}: no hits when off");
        assert_eq!(
            stats_off.rows_scanned, 64,
            "{sql}: a full scan materializes the whole table"
        );
        assert_eq!(without_idx.columns, expected.columns, "{sql}");
        assert_eq!(without_idx.rows, expected.rows, "{sql}");
    }
}
