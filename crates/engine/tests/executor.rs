//! Executor semantics tests against hand-built databases.

use squ_engine::{execute_query, reference_query, Database, ExecError, Relation, Value};
use squ_parser::parse_query;

fn n(v: f64) -> Value {
    Value::num(v)
}
fn s(v: &str) -> Value {
    Value::str(v)
}

/// A small astronomy-flavoured test database with known contents.
fn db() -> Database {
    let mut db = Database::new("test");
    db.insert_table(
        "SpecObj",
        Relation::new(
            vec![
                "bestobjid".into(),
                "plate".into(),
                "z".into(),
                "class".into(),
            ],
            vec![
                vec![n(1.0), n(100.0), n(0.2), s("GALAXY")],
                vec![n(2.0), n(100.0), n(0.8), s("QSO")],
                vec![n(3.0), n(200.0), n(1.5), s("QSO")],
                vec![n(4.0), n(200.0), Value::Null, s("STAR")],
                vec![n(9.0), n(300.0), n(0.6), s("GALAXY")],
            ],
        ),
    );
    db.insert_table(
        "PhotoObj",
        Relation::new(
            vec!["objid".into(), "ra".into(), "field".into()],
            vec![
                vec![n(1.0), n(10.0), n(103.0)],
                vec![n(2.0), n(190.0), n(103.0)],
                vec![n(3.0), n(200.0), n(200.0)],
                vec![n(7.0), n(300.0), n(756.0)],
            ],
        ),
    );
    db
}

fn run(sql: &str) -> Relation {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
    execute_query(&q, &db())
        .unwrap_or_else(|e| panic!("exec {sql:?}: {e}"))
        .0
}

#[test]
fn projection_and_filter() {
    let r = run("SELECT plate FROM SpecObj WHERE z > 0.5");
    assert_eq!(r.columns, vec!["plate"]);
    // z>0.5: rows 2 (0.8), 3 (1.5), 9 (0.6); NULL z filtered out
    assert_eq!(r.len(), 3);
}

#[test]
fn select_star() {
    let r = run("SELECT * FROM PhotoObj");
    assert_eq!(r.columns, vec!["objid", "ra", "field"]);
    assert_eq!(r.len(), 4);
}

#[test]
fn null_comparison_filters_row() {
    let r = run("SELECT plate FROM SpecObj WHERE z < 10");
    assert_eq!(r.len(), 4, "NULL z must not satisfy z < 10");
    let r = run("SELECT plate FROM SpecObj WHERE z IS NULL");
    assert_eq!(r.len(), 1);
    let r = run("SELECT plate FROM SpecObj WHERE z IS NOT NULL");
    assert_eq!(r.len(), 4);
}

#[test]
fn inner_join() {
    let r =
        run("SELECT s.plate, p.ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid");
    // matches: ids 1,2,3
    assert_eq!(r.len(), 3);
}

#[test]
fn left_join_pads_nulls() {
    let r = run(
        "SELECT s.bestobjid, p.ra FROM SpecObj AS s LEFT JOIN PhotoObj AS p ON s.bestobjid = p.objid",
    );
    assert_eq!(r.len(), 5);
    let nulls = r.rows.iter().filter(|row| row[1].is_null()).count();
    assert_eq!(nulls, 2, "ids 4 and 9 have no photo match");
}

#[test]
fn right_and_full_join() {
    let r = run(
        "SELECT s.bestobjid, p.objid FROM SpecObj AS s RIGHT JOIN PhotoObj AS p ON s.bestobjid = p.objid",
    );
    assert_eq!(r.len(), 4); // 3 matches + unmatched objid 7
    let r = run(
        "SELECT s.bestobjid, p.objid FROM SpecObj AS s FULL JOIN PhotoObj AS p ON s.bestobjid = p.objid",
    );
    assert_eq!(r.len(), 6); // 3 matches + 2 left-only + 1 right-only
}

#[test]
fn cross_join_and_implicit_join() {
    let r = run("SELECT s.plate FROM SpecObj AS s CROSS JOIN PhotoObj AS p");
    assert_eq!(r.len(), 20);
    let r = run("SELECT s.plate FROM SpecObj AS s, PhotoObj AS p WHERE s.bestobjid = p.objid");
    assert_eq!(r.len(), 3);
}

#[test]
fn using_join() {
    let mut d = db();
    d.insert_table(
        "A",
        Relation::new(vec!["k".into(), "x".into()], vec![vec![n(1.0), n(10.0)]]),
    );
    d.insert_table(
        "B",
        Relation::new(
            vec!["k".into(), "y".into()],
            vec![vec![n(1.0), n(20.0)], vec![n(2.0), n(30.0)]],
        ),
    );
    let q = parse_query("SELECT x, y FROM A JOIN B USING (k)").unwrap();
    let (r, _) = execute_query(&q, &d).unwrap();
    assert_eq!(r.rows, vec![vec![n(10.0), n(20.0)]]);
}

#[test]
fn group_by_aggregates() {
    let r = run("SELECT plate, COUNT(*) AS c, AVG(z) AS az FROM SpecObj GROUP BY plate");
    assert_eq!(r.len(), 3);
    let idx = r.column_index("c").unwrap();
    let total: f64 = r.rows.iter().map(|row| row[idx].as_num().unwrap()).sum();
    assert_eq!(total, 5.0);
    // plate 200 has z values (1.5, NULL) → AVG = 1.5 (NULL ignored)
    let pidx = r.column_index("plate").unwrap();
    let aidx = r.column_index("az").unwrap();
    let row200 = r.rows.iter().find(|row| row[pidx] == n(200.0)).unwrap();
    assert_eq!(row200[aidx], n(1.5));
}

#[test]
fn global_aggregate_without_group_by() {
    let r = run("SELECT COUNT(*), MIN(z), MAX(z), SUM(z) FROM SpecObj");
    assert_eq!(r.rows, vec![vec![n(5.0), n(0.2), n(1.5), n(3.1)]]);
}

#[test]
fn global_aggregate_over_empty_input() {
    let r = run("SELECT COUNT(*), SUM(z) FROM SpecObj WHERE z > 100");
    assert_eq!(r.rows, vec![vec![n(0.0), Value::Null]]);
}

#[test]
fn count_distinct() {
    let r = run("SELECT COUNT(DISTINCT plate) FROM SpecObj");
    assert_eq!(r.rows, vec![vec![n(3.0)]]);
    let r = run("SELECT COUNT(class) FROM SpecObj");
    assert_eq!(r.rows, vec![vec![n(5.0)]]);
    let r = run("SELECT COUNT(z) FROM SpecObj");
    assert_eq!(r.rows, vec![vec![n(4.0)]], "COUNT(col) skips NULL");
}

#[test]
fn having_filters_groups() {
    let r = run("SELECT plate, COUNT(*) FROM SpecObj GROUP BY plate HAVING COUNT(*) > 1");
    assert_eq!(r.len(), 2); // plates 100 and 200
}

#[test]
fn order_by_and_limit() {
    let r = run("SELECT plate, z FROM SpecObj WHERE z IS NOT NULL ORDER BY z DESC LIMIT 2");
    assert_eq!(r.rows[0][1], n(1.5));
    assert_eq!(r.rows[1][1], n(0.8));
    assert_eq!(r.len(), 2);
}

#[test]
fn order_by_alias() {
    let r =
        run("SELECT plate, COUNT(*) AS c FROM SpecObj GROUP BY plate ORDER BY c DESC, plate ASC");
    let c = r.column_index("c").unwrap();
    assert_eq!(r.rows[0][c], n(2.0));
    assert_eq!(r.rows[2][c], n(1.0));
}

#[test]
fn order_by_aggregate_expression() {
    // ORDER BY count(*) must match the projected COUNT(*) case-insensitively
    let r =
        run("SELECT count(*), plate FROM SpecObj GROUP BY plate ORDER BY count(*) DESC LIMIT 1");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], n(2.0));
}

#[test]
fn top_n() {
    let r = run("SELECT TOP 2 plate FROM SpecObj ORDER BY plate DESC");
    assert_eq!(r.len(), 2);
    assert_eq!(r.rows[0][0], n(300.0));
}

#[test]
fn distinct_dedups() {
    let r = run("SELECT DISTINCT plate FROM SpecObj");
    assert_eq!(r.len(), 3);
}

#[test]
fn in_subquery() {
    let r = run(
        "SELECT plate FROM SpecObj WHERE bestobjid IN (SELECT objid FROM PhotoObj WHERE ra > 100)",
    );
    assert_eq!(r.len(), 2); // ids 2 and 3
    let r = run("SELECT plate FROM SpecObj WHERE bestobjid NOT IN (SELECT objid FROM PhotoObj)");
    assert_eq!(r.len(), 2); // ids 4 and 9
}

#[test]
fn exists_correlated() {
    let r = run(
        "SELECT s.plate FROM SpecObj AS s WHERE EXISTS (SELECT 1 FROM PhotoObj AS p WHERE p.objid = s.bestobjid AND p.ra > 100)",
    );
    assert_eq!(r.len(), 2);
}

#[test]
fn scalar_subquery() {
    let r = run("SELECT plate FROM SpecObj WHERE z = (SELECT MAX(z) FROM SpecObj)");
    assert_eq!(r.rows, vec![vec![n(200.0)]]);
}

#[test]
fn scalar_subquery_multi_row_errors() {
    let q = parse_query("SELECT plate FROM SpecObj WHERE z = (SELECT z FROM SpecObj)").unwrap();
    assert_eq!(
        execute_query(&q, &db()).unwrap_err(),
        ExecError::ScalarSubqueryMultiRow
    );
}

#[test]
fn correlated_scalar_subquery() {
    let r = run(
        "SELECT s.plate, (SELECT COUNT(*) FROM PhotoObj AS p WHERE p.objid = s.bestobjid) AS hits FROM SpecObj AS s",
    );
    let hits = r.column_index("hits").unwrap();
    let total: f64 = r.rows.iter().map(|row| row[hits].as_num().unwrap()).sum();
    assert_eq!(total, 3.0);
}

#[test]
fn cte_materializes() {
    let r = run(
        "WITH hot AS (SELECT plate, z FROM SpecObj WHERE z > 0.5) SELECT plate FROM hot WHERE z < 1",
    );
    assert_eq!(r.len(), 2); // 0.8 and 0.6
}

#[test]
fn cte_chained() {
    let r = run(
        "WITH a AS (SELECT plate, z FROM SpecObj WHERE z > 0.2), b AS (SELECT plate FROM a WHERE z > 1) SELECT * FROM b",
    );
    assert_eq!(r.len(), 1);
}

#[test]
fn set_operations() {
    let r = run("SELECT plate FROM SpecObj WHERE z > 0.5 INTERSECT SELECT plate FROM SpecObj WHERE class = 'QSO'");
    // z>0.5 plates: {100,200,300}; QSO plates: {100,200} → {100,200}
    assert_eq!(r.sorted_rows(), vec![vec![n(100.0)], vec![n(200.0)]]);

    let r = run("SELECT plate FROM SpecObj EXCEPT SELECT plate FROM SpecObj WHERE class = 'QSO'");
    assert_eq!(r.rows, vec![vec![n(300.0)]]);

    let r = run("SELECT plate FROM SpecObj WHERE z > 1 UNION SELECT plate FROM SpecObj WHERE class = 'STAR'");
    assert_eq!(r.len(), 1, "both branches yield plate 200; UNION dedups");

    let r = run("SELECT plate FROM SpecObj WHERE z > 1 UNION ALL SELECT plate FROM SpecObj WHERE class = 'STAR'");
    assert_eq!(r.len(), 2);
}

#[test]
fn between_and_like_and_in_list() {
    let r = run("SELECT plate FROM SpecObj WHERE z BETWEEN 0.5 AND 1.0");
    assert_eq!(r.len(), 2);
    let r = run("SELECT plate FROM SpecObj WHERE class LIKE 'GA%'");
    assert_eq!(r.len(), 2);
    let r = run("SELECT plate FROM SpecObj WHERE class LIKE '_SO'");
    assert_eq!(r.len(), 2);
    let r = run("SELECT plate FROM SpecObj WHERE plate IN (100, 300)");
    assert_eq!(r.len(), 3);
    let r = run("SELECT plate FROM SpecObj WHERE plate NOT IN (100, 300)");
    assert_eq!(r.len(), 2);
}

#[test]
fn case_and_cast_and_functions() {
    let r = run("SELECT CASE WHEN z > 0.5 THEN 'high' ELSE 'low' END AS bucket FROM SpecObj WHERE z IS NOT NULL");
    let highs = r.rows.iter().filter(|row| row[0] == s("high")).count();
    assert_eq!(highs, 3);

    let r = run("SELECT CAST(z AS INT) FROM SpecObj WHERE z = 1.5");
    assert_eq!(r.rows, vec![vec![n(1.0)]]);

    let r = run("SELECT UPPER(class), LEN(class) FROM SpecObj WHERE plate = 300");
    assert_eq!(r.rows, vec![vec![s("GALAXY"), n(6.0)]]);

    let r = run("SELECT ROUND(z, 0) FROM SpecObj WHERE plate = 300");
    assert_eq!(r.rows, vec![vec![n(1.0)]]);
}

#[test]
fn arithmetic_and_division_by_zero() {
    let r = run("SELECT z * 2 + 1 FROM SpecObj WHERE plate = 300");
    assert_eq!(r.rows, vec![vec![n(2.2)]]);
    let r = run("SELECT z / 0 FROM SpecObj WHERE plate = 300");
    assert_eq!(r.rows, vec![vec![Value::Null]]);
}

#[test]
fn derived_table() {
    let r =
        run("SELECT d.plate FROM (SELECT plate, z FROM SpecObj WHERE z > 0.5) AS d WHERE d.z < 1");
    assert_eq!(r.len(), 2);
}

#[test]
fn unknown_table_and_column_error() {
    let q = parse_query("SELECT x FROM nope").unwrap();
    assert!(matches!(
        execute_query(&q, &db()),
        Err(ExecError::UnknownTable(_))
    ));
    let q = parse_query("SELECT nope FROM SpecObj").unwrap();
    assert!(matches!(
        execute_query(&q, &db()),
        Err(ExecError::UnknownColumn(_))
    ));
}

#[test]
fn stats_accumulate() {
    let q =
        parse_query("SELECT s.plate FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid")
            .unwrap();
    let (_, stats) = execute_query(&q, &db()).unwrap();
    assert_eq!(stats.rows_scanned, 9);
    assert_eq!(stats.join_pairs, 20);
    assert_eq!(stats.rows_output, 3);
}

#[test]
fn index_probes_fetch_only_matching_rows_and_agree_with_reference() {
    // 64 rows clear the cost model's 8-row bar, so every `bucket = const`
    // conjunct below is answered by one probe of the hash index
    let mut db = Database::new("events");
    let rows: Vec<Vec<Value>> = (0..64)
        .map(|i| {
            vec![
                n(f64::from(i)),
                n(f64::from(i % 8)),
                s(if i % 2 == 0 { "even" } else { "odd" }),
            ]
        })
        .collect();
    db.insert_table(
        "events",
        Relation::new(vec!["id".into(), "bucket".into(), "parity".into()], rows),
    );
    let sqls = [
        "SELECT id FROM events WHERE bucket = 3",
        "SELECT parity, COUNT(*) FROM events WHERE bucket = 5 GROUP BY parity",
        "SELECT id FROM events WHERE 6 = bucket ORDER BY id",
    ];
    for sql in sqls {
        let q = parse_query(sql).unwrap();
        let expected = reference_query(&q, &db).unwrap();
        let (got, stats) = execute_query(&q, &db).unwrap();
        assert_eq!(stats.compiled, 1, "{sql} should compile");
        assert_eq!(stats.index_probes, 1, "{sql} should probe the index");
        assert_eq!(stats.index_hits, 8, "{sql}: 8 of 64 rows share each bucket");
        assert_eq!(
            stats.rows_scanned, 8,
            "{sql}: an index probe materializes only matching rows"
        );
        assert_eq!(got.columns, expected.columns, "{sql}");
        assert_eq!(got.rows, expected.rows, "{sql}");
    }
}

#[test]
fn paper_q17_intersect_shape() {
    // Spider Q17 shape: stadiums with concerts in both years
    let mut d = Database::new("concert");
    d.insert_table(
        "concert",
        Relation::new(
            vec!["concert_id".into(), "stadium_id".into(), "year".into()],
            vec![
                vec![n(1.0), n(1.0), n(2014.0)],
                vec![n(2.0), n(1.0), n(2015.0)],
                vec![n(3.0), n(2.0), n(2014.0)],
            ],
        ),
    );
    d.insert_table(
        "stadium",
        Relation::new(
            vec!["stadium_id".into(), "name".into(), "loc".into()],
            vec![
                vec![n(1.0), s("Stark Park"), s("north")],
                vec![n(2.0), s("Glebe Park"), s("south")],
            ],
        ),
    );
    let q = parse_query(
        "SELECT S.name, S.loc FROM concert AS C JOIN stadium AS S ON C.stadium_id = S.stadium_id WHERE C.Year = 2014 INTERSECT SELECT S.name, S.loc FROM concert AS C JOIN stadium AS S ON C.stadium_id = S.stadium_id WHERE C.Year = 2015",
    )
    .unwrap();
    let (r, _) = execute_query(&q, &d).unwrap();
    assert_eq!(r.rows, vec![vec![s("Stark Park"), s("north")]]);
}

#[test]
fn paper_q18_order_asc_limit() {
    // Spider Q18 shape: cylinders of the volvo with least acceleration
    let mut d = Database::new("cars");
    d.insert_table(
        "CARS_DATA",
        Relation::new(
            vec!["id".into(), "cylinders".into(), "accelerate".into()],
            vec![
                vec![n(1.0), n(4.0), n(12.0)],
                vec![n(2.0), n(6.0), n(9.5)],
                vec![n(3.0), n(8.0), n(15.0)],
            ],
        ),
    );
    d.insert_table(
        "CAR_NAMES",
        Relation::new(
            vec!["makeid".into(), "model".into()],
            vec![
                vec![n(1.0), s("volvo")],
                vec![n(2.0), s("ford")],
                vec![n(3.0), s("volvo")],
            ],
        ),
    );
    let q = parse_query(
        "SELECT C.cylinders FROM CARS_DATA AS C JOIN CAR_NAMES AS T ON C.Id = T.MakeId WHERE T.Model = 'volvo' ORDER BY C.accelerate ASC LIMIT 1",
    )
    .unwrap();
    let (r, _) = execute_query(&q, &d).unwrap();
    // least acceleration among volvos (12.0 vs 15.0) → cylinders 4
    assert_eq!(r.rows, vec![vec![n(4.0)]]);
}

#[test]
fn hash_join_agrees_with_cross_product_path() {
    // 80×80 rows exceeds the hash-join threshold (4096 pairs); the same
    // join written implicitly goes through the cross-product + filter
    // path, so the two code paths check each other
    let mut d = Database::new("hj");
    let left: Vec<Vec<Value>> = (0..80)
        .map(|i| vec![n((i % 13) as f64), n(i as f64)])
        .collect();
    let right: Vec<Vec<Value>> = (0..80)
        .map(|i| {
            vec![
                if i % 11 == 0 {
                    Value::Null
                } else {
                    n((i % 7) as f64)
                },
                n((i * 3) as f64),
            ]
        })
        .collect();
    d.insert_table("L", Relation::new(vec!["k".into(), "x".into()], left));
    d.insert_table("R", Relation::new(vec!["k".into(), "y".into()], right));

    let explicit = parse_query("SELECT l.x, r.y FROM L AS l JOIN R AS r ON l.k = r.k").unwrap();
    let implicit = parse_query("SELECT l.x, r.y FROM L AS l, R AS r WHERE l.k = r.k").unwrap();
    let (a, _) = execute_query(&explicit, &d).unwrap();
    let (b, _) = execute_query(&implicit, &d).unwrap();
    assert!(a.result_equal(&b));
    assert!(!a.is_empty());

    // LEFT JOIN through the hash path: unmatched + NULL-keyed left rows pad
    let left_join =
        parse_query("SELECT l.x, r.y FROM L AS l LEFT JOIN R AS r ON l.k = r.k").unwrap();
    let (lj, _) = execute_query(&left_join, &d).unwrap();
    assert!(lj.len() >= a.len());
    let padded = lj.rows.iter().filter(|row| row[1].is_null()).count();
    // keys 7..12 on the left never match right keys 0..6
    assert!(padded > 0);
}
