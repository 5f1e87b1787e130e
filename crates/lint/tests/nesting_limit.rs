//! The parser's nesting limit at limit − 1, limit and limit + 1, for each
//! way a statement nests: parentheses, `NOT` chains and subqueries.
//!
//! Up to the limit a statement goes through every stage that recurses
//! over the AST — parse, bind, lint, semantic analysis, compiled and
//! reference execution — on a 2 MiB thread stack, in any build profile.
//! One level deeper, parsing stops with `ParseError::TooDeep` at the token
//! that opened the extra level, and lint reports it as `SQU003`.

use squ_engine::{execute_query, reference_query, witness_database};
use squ_parser::{parse, ParseError, Statement, MAX_NESTING};
use squ_schema::schemas::sdss;

/// `WHERE ((…(plate > 1)…))`: `depth` levels, all opened in word 5.
fn parens(depth: usize) -> String {
    format!(
        "SELECT plate FROM SpecObj WHERE {}plate > 1{}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

/// `WHERE NOT NOT … plate > 1`: level `n` is opened by word 4 + `n`.
fn nots(depth: usize) -> String {
    format!(
        "SELECT plate FROM SpecObj WHERE {}plate > 1",
        "NOT ".repeat(depth)
    )
}

/// `WHERE plate IN (SELECT … WHERE plate IN (…))`: level `n` is opened by
/// word 7 `n`, the `(SELECT` of the `n`-th subquery.
fn subqueries(depth: usize) -> String {
    let mut sql = "SELECT plate FROM SpecObj".to_string();
    for _ in 0..depth {
        sql = format!("SELECT plate FROM SpecObj WHERE plate IN ({sql})");
    }
    sql
}

/// Run `f` on a fresh thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn a test thread")
        .join()
        .expect("the test thread finished");
}

/// Within the limit: every stage runs, and the engine agrees with the
/// reference interpreter on a one-row-per-table database (one row keeps
/// each nested subquery to one run per level).
fn accepted(sql: &str) {
    let schema = sdss();
    let stmt = parse(sql).unwrap_or_else(|e| panic!("{e}"));
    assert!(squ_schema::analyze(&stmt, &schema).is_empty());
    assert!(squ_lint::lint(sql, &schema).is_clean());
    let Statement::Query(q) = &stmt else {
        panic!("not a query")
    };
    squ_sema::analyze_query(q, &schema);
    let db = witness_database(&schema, 3, 1, 1);
    let (rel, _) = execute_query(q, &db).unwrap();
    assert!(rel.result_equal(&reference_query(q, &db).unwrap()));
}

/// One level past the limit: `TooDeep` at `word_index`, and one `SQU003`
/// spanning that word's first token.
fn rejected(sql: &str, word_index: usize) {
    assert_eq!(
        parse(sql).unwrap_err(),
        ParseError::TooDeep {
            limit: MAX_NESTING,
            word_index
        }
    );
    let report = squ_lint::lint(sql, &sdss());
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["SQU003"]);
    let span = report.diagnostics[0].span.expect("a located diagnostic");
    let word = sql.split_whitespace().nth(word_index).expect("word exists");
    assert!(word.starts_with(span.slice(sql)), "{:?}", span.slice(sql));
}

fn edges(shape: fn(usize) -> String, opened_by: fn(usize) -> usize) {
    on_small_stack(move || {
        accepted(&shape(MAX_NESTING - 1));
        accepted(&shape(MAX_NESTING));
        rejected(&shape(MAX_NESTING + 1), opened_by(MAX_NESTING + 1));
    });
}

#[test]
fn parentheses_nest_up_to_the_limit() {
    edges(parens, |_| 5);
}

#[test]
fn not_chains_nest_up_to_the_limit() {
    edges(nots, |level| 4 + level);
}

#[test]
fn subqueries_nest_up_to_the_limit() {
    edges(subqueries, |level| 7 * level);
}

#[test]
fn far_past_the_limit_is_one_diagnostic() {
    // twenty thousand levels used to overflow the parser's stack
    on_small_stack(|| {
        for sql in [parens(20_000), nots(20_000), subqueries(2_000)] {
            let report = squ_lint::lint(&sql, &sdss());
            let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
            assert_eq!(codes, ["SQU003"]);
        }
    });
}
