//! Executor edge-case semantics: NULL propagation, empty inputs, set-op
//! ALL variants, grouping corner cases, and resource-limit behavior.

use squ_engine::{execute_query, Database, ExecError, Relation, Value};
use squ_parser::parse_query;

fn n(v: f64) -> Value {
    Value::num(v)
}
fn s(v: &str) -> Value {
    Value::str(v)
}

fn db() -> Database {
    let mut db = Database::new("edge");
    db.insert_table(
        "t",
        Relation::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                vec![n(1.0), n(10.0), s("x")],
                vec![n(2.0), Value::Null, s("y")],
                vec![n(2.0), n(20.0), Value::Null],
                vec![Value::Null, n(30.0), s("x")],
            ],
        ),
    );
    db.insert_table("empty", Relation::empty(vec!["a".into(), "b".into()]));
    db
}

fn run(sql: &str) -> Relation {
    let q = parse_query(sql).unwrap();
    execute_query(&q, &db()).unwrap().0
}

#[test]
fn null_never_equals_null() {
    // b = b is NULL for the NULL row → filtered
    assert_eq!(run("SELECT a FROM t WHERE b = b").len(), 3);
    // c <> c never true
    assert_eq!(run("SELECT a FROM t WHERE c <> c").len(), 0);
}

#[test]
fn not_of_null_comparison_filters_row() {
    // SQL 3VL: NOT (NULL > 5) = NOT UNKNOWN = UNKNOWN → filtered; and all
    // non-NULL b here satisfy b > 5, so nothing survives
    let r = run("SELECT a FROM t WHERE NOT b > 5");
    assert_eq!(r.len(), 0);
    // sanity: negation is the complement over non-NULL values
    let kept = run("SELECT a FROM t WHERE b > 5").len();
    let negated = run("SELECT a FROM t WHERE NOT b > 5").len();
    let non_null = run("SELECT a FROM t WHERE b IS NOT NULL").len();
    assert_eq!(kept + negated, non_null);
}

#[test]
fn in_list_with_null_probe() {
    assert_eq!(run("SELECT a FROM t WHERE b IN (10, 30)").len(), 2);
    // NULL IN (…) is never true
    assert_eq!(run("SELECT a FROM t WHERE b NOT IN (999)").len(), 3);
}

#[test]
fn aggregates_on_empty_table() {
    let r = run("SELECT COUNT(*), SUM(a), AVG(a), MIN(a), MAX(a) FROM empty");
    assert_eq!(
        r.rows,
        vec![vec![
            n(0.0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null
        ]]
    );
}

#[test]
fn group_by_null_key_forms_group() {
    let r = run("SELECT a, COUNT(*) FROM t GROUP BY a");
    // keys: 1, 2, NULL → 3 groups
    assert_eq!(r.len(), 3);
    let null_group = r
        .rows
        .iter()
        .find(|row| row[0].is_null())
        .expect("NULL group exists");
    assert_eq!(null_group[1], n(1.0));
}

#[test]
fn having_without_group_by() {
    let r = run("SELECT COUNT(*) FROM t HAVING COUNT(*) > 3");
    assert_eq!(r.len(), 1);
    let r = run("SELECT COUNT(*) FROM t HAVING COUNT(*) > 10");
    assert_eq!(r.len(), 0, "global group filtered out by HAVING");
}

#[test]
fn distinct_treats_nulls_as_equal_values() {
    let r = run("SELECT DISTINCT a FROM t");
    assert_eq!(r.len(), 3, "1, 2, NULL");
}

#[test]
fn union_all_vs_union_counts() {
    let all = run("SELECT a FROM t UNION ALL SELECT a FROM t");
    assert_eq!(all.len(), 8);
    let set = run("SELECT a FROM t UNION SELECT a FROM t");
    assert_eq!(set.len(), 3);
}

#[test]
fn intersect_all_keeps_left_duplicates() {
    let r = run("SELECT a FROM t INTERSECT ALL SELECT a FROM t WHERE a = 2");
    assert_eq!(r.len(), 2, "both a=2 rows from the left survive");
    let r = run("SELECT a FROM t INTERSECT SELECT a FROM t WHERE a = 2");
    assert_eq!(r.len(), 1);
}

#[test]
fn except_set_semantics() {
    let r = run("SELECT a FROM t EXCEPT SELECT a FROM t WHERE a = 1");
    // {1,2,NULL} minus {1} = {2, NULL}
    assert_eq!(r.len(), 2);
}

#[test]
fn limit_zero_and_oversized() {
    assert_eq!(run("SELECT a FROM t LIMIT 0").len(), 0);
    assert_eq!(run("SELECT a FROM t LIMIT 100").len(), 4);
}

#[test]
fn order_by_places_nulls_first() {
    let r = run("SELECT b FROM t ORDER BY b ASC");
    assert!(r.rows[0][0].is_null(), "total order puts NULL first");
    let r = run("SELECT b FROM t ORDER BY b DESC");
    assert!(r.rows[r.rows.len() - 1][0].is_null());
}

#[test]
fn join_with_empty_side() {
    let r = run("SELECT t.a FROM t JOIN empty ON t.a = empty.a");
    assert_eq!(r.len(), 0);
    let r = run("SELECT t.a, empty.b FROM t LEFT JOIN empty ON t.a = empty.a");
    assert_eq!(r.len(), 4, "left rows preserved with NULL padding");
    assert!(r.rows.iter().all(|row| row[1].is_null()));
}

#[test]
fn scalar_subquery_empty_is_null() {
    let r = run("SELECT a FROM t WHERE b = (SELECT a FROM empty)");
    assert_eq!(
        r.len(),
        0,
        "comparison with NULL subquery result filters all"
    );
}

#[test]
fn exists_on_empty() {
    assert_eq!(
        run("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM empty)").len(),
        0
    );
    assert_eq!(
        run("SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM empty)").len(),
        4
    );
}

#[test]
fn resource_limit_fires_on_cross_blowup() {
    // many-way cross join of a synthetic wide table must hit the budget
    let mut big = Database::new("big");
    let rows: Vec<Vec<Value>> = (0..200).map(|i| vec![n(i as f64)]).collect();
    big.insert_table("x", Relation::new(vec!["a".into()], rows));
    let q = parse_query("SELECT x1.a FROM x AS x1, x AS x2, x AS x3 WHERE x1.a + x2.a + x3.a > 0")
        .unwrap();
    // 200^3 = 8M rows > budget, and the 3-way sum prevents pushdown
    assert_eq!(
        execute_query(&q, &big).unwrap_err(),
        ExecError::ResourceLimit
    );

    // A query the compiler rejects (correlated EXISTS) runs on the
    // reference interpreter, which caps the FROM product by size before
    // WHERE: 6^7 = 279,936 rows exceed the budget even though the
    // equality chain would keep only 6 of them.
    let mut six = Database::new("six");
    let rows: Vec<Vec<Value>> = (0..6).map(|i| vec![n(i as f64)]).collect();
    six.insert_table("x", Relation::new(vec!["a".into()], rows));
    let q = parse_query(
        "SELECT x1.a FROM x AS x1, x AS x2, x AS x3, x AS x4, x AS x5, x AS x6, x AS x7 \
         WHERE x1.a = x2.a AND x2.a = x3.a AND x3.a = x4.a AND x4.a = x5.a \
         AND x5.a = x6.a AND x6.a = x7.a \
         AND EXISTS (SELECT 1 FROM x AS y WHERE y.a = x1.a)",
    )
    .unwrap();
    assert!(squ_engine::compile_query(&q, &six).is_none());
    assert_eq!(
        execute_query(&q, &six).unwrap_err(),
        ExecError::ResourceLimit
    );
}

#[test]
fn case_without_else_yields_null() {
    let r = run("SELECT CASE WHEN a > 100 THEN 1 END FROM t WHERE a = 1");
    assert_eq!(r.rows, vec![vec![Value::Null]]);
}

#[test]
fn like_escaped_patterns() {
    // core wildcards (no escape syntax in this dialect)
    assert!(squ_engine::like_match("GALAXY", "G%Y"));
    assert!(squ_engine::like_match("GALAXY", "______"));
    assert!(!squ_engine::like_match("GALAXY", "_____"));
    assert!(squ_engine::like_match("", "%"));
    assert!(!squ_engine::like_match("", "_"));
}

#[test]
fn coalesce_and_nullif() {
    let r = run("SELECT COALESCE(b, 0) FROM t WHERE a = 2 AND c = 'y'");
    assert_eq!(r.rows, vec![vec![n(0.0)]]);
    let r = run("SELECT NULLIF(a, 1) FROM t WHERE a = 1");
    assert_eq!(r.rows, vec![vec![Value::Null]]);
}

#[test]
fn correlated_subquery_in_projection_per_row() {
    let r =
        run("SELECT a, (SELECT COUNT(*) FROM t AS u WHERE u.a = t.a) FROM t WHERE a IS NOT NULL");
    // a=1 → 1; a=2 rows → 2 each
    let counts: Vec<f64> = r.rows.iter().map(|row| row[1].as_num().unwrap()).collect();
    assert_eq!(counts.iter().sum::<f64>(), 1.0 + 2.0 + 2.0);
}
