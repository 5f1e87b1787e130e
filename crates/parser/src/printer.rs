//! Pretty-printer: AST → canonical SQL text.
//!
//! The printer produces single-line SQL in canonical form (upper-case
//! keywords, minimal parentheses inserted by operator precedence). The
//! round-trip property `parse(print(ast)) == ast` is enforced by tests and
//! proptests and is what the benchmark's transformation machinery relies on:
//! every injected error / deleted token / rewritten query is printed from an
//! AST, so printer fidelity is label fidelity.
//!
//! The `_dialect` entry points render the same AST in a concrete dialect:
//! identifiers that are not bare words in that dialect (or collide with its
//! reserved words) are wrapped in the dialect's canonical quotes, and a
//! top-level `LIMIT`/`TOP` (of a query, or of a `CREATE … AS` source) is
//! folded to whichever spelling the dialect accepts, so
//! `parse_dialect(print_*_dialect(ast, d), d)` round-trips.

use crate::ast::*;
use squ_dialect::Dialect;
use squ_lexer::Keyword;
use std::borrow::Cow;
use std::fmt::Write;

/// Render a statement as canonical SQL (the default [`Dialect::Squ`]).
pub fn print_statement(stmt: &Statement) -> String {
    print_statement_dialect(stmt, Dialect::Squ)
}

/// Render a statement as canonical SQL in `dialect`.
pub fn print_statement_dialect(stmt: &Statement, dialect: Dialect) -> String {
    let mut s = String::new();
    write_statement(&mut s, stmt, dialect);
    s
}

/// Render a query as canonical SQL (the default [`Dialect::Squ`]).
pub fn print_query(q: &Query) -> String {
    print_query_dialect(q, Dialect::Squ)
}

/// Render a query as canonical SQL in `dialect`, folding a top-level
/// `LIMIT` / `TOP` into the spelling the dialect accepts.
pub fn print_query_dialect(q: &Query, dialect: Dialect) -> String {
    let mut s = String::new();
    write_top_query(&mut s, q, dialect);
    s
}

/// Render an expression as canonical SQL.
pub fn print_expr(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, e, Dialect::Squ);
    s
}

/// Move a top-level row bound to the spelling `dialect` accepts: `TOP n`
/// becomes a trailing `LIMIT n` where `TOP` is unsupported, and vice
/// versa. Only a plain-`SELECT` body participates; anything the fold
/// cannot express stays faithful to the AST. The query is copied only
/// when the fold changes it, which it never does in [`Dialect::Squ`].
fn fold_limit_top(q: &Query, dialect: Dialect) -> Cow<'_, Query> {
    let SetExpr::Select(s) = &q.body else {
        return Cow::Borrowed(q);
    };
    let (mut top, mut limit) = (s.top, q.limit);
    if !dialect.supports_top() && limit.is_none() {
        limit = top.take();
    }
    if !dialect.supports_limit() && top.is_none() {
        top = limit.take();
    }
    if (top, limit) == (s.top, q.limit) {
        return Cow::Borrowed(q);
    }
    let mut q = q.clone();
    if let SetExpr::Select(s) = &mut q.body {
        s.top = top;
    }
    q.limit = limit;
    Cow::Owned(q)
}

/// Is `part` a bare word of `dialect` (no quoting needed)?
fn bare_word(part: &str, dialect: Dialect) -> bool {
    let sigils = dialect.word_sigils();
    let mut chars = part.chars();
    let head_ok = matches!(
        chars.next(),
        Some(c) if c.is_ascii_alphabetic() || c == '_' || (sigils && (c == '#' || c == '@'))
    );
    head_ok
        && chars.all(|c| {
            c.is_ascii_alphanumeric() || c == '_' || (sigils && (c == '#' || c == '@' || c == '$'))
        })
}

/// Write one identifier (possibly `schema.name`-qualified), quoting each
/// dot-separated part with the dialect's canonical quotes when it is not
/// a bare word, collides with a lexer keyword, or is reserved in the
/// dialect.
fn write_ident(out: &mut String, name: &str, dialect: Dialect) {
    for (i, part) in name.split('.').enumerate() {
        if i > 0 {
            out.push('.');
        }
        if bare_word(part, dialect)
            && Keyword::from_str_ci(part).is_none()
            && !dialect.is_reserved(part)
        {
            out.push_str(part);
        } else {
            let (open, close) = dialect.canonical_quote();
            out.push(open);
            out.push_str(part);
            out.push(close);
        }
    }
}

fn write_statement(out: &mut String, stmt: &Statement, d: Dialect) {
    match stmt {
        Statement::Query(q) => write_top_query(out, q, d),
        Statement::CreateTable {
            name,
            columns,
            source,
        } => {
            out.push_str("CREATE TABLE ");
            write_ident(out, name, d);
            if let Some(q) = source {
                out.push_str(" AS ");
                write_top_query(out, q, d);
            } else {
                out.push_str(" (");
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_ident(out, &c.name, d);
                    let _ = write!(out, " {}", c.type_name);
                }
                out.push(')');
            }
        }
        Statement::CreateView { name, query } => {
            out.push_str("CREATE VIEW ");
            write_ident(out, name, d);
            out.push_str(" AS ");
            write_top_query(out, query, d);
        }
    }
}

/// Write a statement's own query (a `SELECT`, or the source of a `CREATE
/// TABLE … AS` or `CREATE VIEW`), with its row bound folded for `d`.
fn write_top_query(out: &mut String, q: &Query, d: Dialect) {
    write_query(out, &fold_limit_top(q, d), d);
}

fn write_query(out: &mut String, q: &Query, d: Dialect) {
    if !q.ctes.is_empty() {
        out.push_str("WITH ");
        for (i, cte) in q.ctes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_ident(out, &cte.name, d);
            out.push_str(" AS (");
            write_query(out, &cte.query, d);
            out.push(')');
        }
        out.push(' ');
    }
    write_set_expr(out, &q.body, d);
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, item) in q.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, &item.expr, d);
            if item.desc {
                out.push_str(" DESC");
            } else {
                out.push_str(" ASC");
            }
        }
    }
    if let Some(n) = q.limit {
        let _ = write!(out, " LIMIT {n}");
    }
}

fn write_set_expr(out: &mut String, body: &SetExpr, d: Dialect) {
    match body {
        SetExpr::Select(s) => write_select(out, s, d),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            write_set_expr(out, left, d);
            let _ = write!(out, " {}", op.as_str());
            if *all {
                out.push_str(" ALL");
            }
            out.push(' ');
            // set operators associate left; a set-op on the right needs
            // parentheses to round-trip
            if matches!(**right, SetExpr::SetOp { .. }) {
                out.push('(');
                write_set_expr(out, right, d);
                out.push(')');
            } else {
                write_set_expr(out, right, d);
            }
        }
    }
}

fn write_select(out: &mut String, s: &Select, d: Dialect) {
    out.push_str("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    if let Some(n) = s.top {
        let _ = write!(out, "TOP {n} ");
    }
    for (i, item) in s.items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(q) => {
                write_ident(out, q, d);
                out.push_str(".*");
            }
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr, d);
                if let Some(a) = alias {
                    out.push_str(" AS ");
                    write_ident(out, a, d);
                }
            }
        }
    }
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        for (i, tr) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_table_ref(out, tr, d);
        }
    }
    if let Some(w) = &s.selection {
        out.push_str(" WHERE ");
        write_expr(out, w, d);
    }
    if !s.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, e) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, e, d);
        }
    }
    if let Some(h) = &s.having {
        out.push_str(" HAVING ");
        write_expr(out, h, d);
    }
}

fn write_table_ref(out: &mut String, tr: &TableRef, d: Dialect) {
    match tr {
        TableRef::Named { name, alias } => {
            write_ident(out, name, d);
            if let Some(a) = alias {
                out.push_str(" AS ");
                write_ident(out, a, d);
            }
        }
        TableRef::Derived { query, alias } => {
            out.push('(');
            write_query(out, query, d);
            out.push(')');
            if let Some(a) = alias {
                out.push_str(" AS ");
                write_ident(out, a, d);
            }
        }
        TableRef::Join {
            left,
            right,
            kind,
            constraint,
        } => {
            write_table_ref(out, left, d);
            let _ = write!(out, " {} ", kind.as_str());
            write_table_ref(out, right, d);
            match constraint {
                JoinConstraint::On(e) => {
                    out.push_str(" ON ");
                    write_expr(out, e, d);
                }
                JoinConstraint::Using(cols) => {
                    out.push_str(" USING (");
                    for (i, c) in cols.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        write_ident(out, c, d);
                    }
                    out.push(')');
                }
                JoinConstraint::None => {}
            }
        }
    }
}

/// Binding power of the *context*; a child with lower binding power than its
/// context must be parenthesized. Levels: 1 OR, 2 AND, 3 NOT, 4 predicates,
/// 5 additive, 6 multiplicative, 7 unary, 8 atoms.
fn expr_level(e: &Expr) -> u8 {
    match e {
        Expr::Or(..) => 1,
        Expr::And(..) => 2,
        Expr::Not(..) => 3,
        Expr::Compare { .. }
        | Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Like { .. } => 4,
        Expr::Arith { op: '+', .. } | Expr::Arith { op: '-', .. } => 5,
        Expr::Arith { .. } => 6,
        Expr::Neg(..) => 7,
        _ => 8,
    }
}

fn write_child(out: &mut String, e: &Expr, min_level: u8, d: Dialect) {
    if expr_level(e) < min_level {
        out.push('(');
        write_expr(out, e, d);
        out.push(')');
    } else {
        write_expr(out, e, d);
    }
}

fn write_expr(out: &mut String, e: &Expr, d: Dialect) {
    match e {
        Expr::Column(c) => {
            if let Some(q) = &c.qualifier {
                write_ident(out, q, d);
                out.push('.');
            }
            write_ident(out, &c.name, d);
        }
        Expr::Literal(l) => write_literal(out, l),
        Expr::Compare { op, left, right } => {
            write_child(out, left, 5, d);
            let _ = write!(out, " {} ", op.as_str());
            write_child(out, right, 5, d);
        }
        Expr::And(a, b) => {
            write_child(out, a, 2, d);
            out.push_str(" AND ");
            write_child(out, b, 3, d);
        }
        Expr::Or(a, b) => {
            write_child(out, a, 1, d);
            out.push_str(" OR ");
            write_child(out, b, 2, d);
        }
        Expr::Not(inner) => {
            out.push_str("NOT ");
            write_child(out, inner, 4, d);
        }
        Expr::IsNull { expr, negated } => {
            write_child(out, expr, 5, d);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            write_child(out, expr, 5, d);
            out.push_str(if *negated {
                " NOT BETWEEN "
            } else {
                " BETWEEN "
            });
            write_child(out, low, 5, d);
            out.push_str(" AND ");
            write_child(out, high, 5, d);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            write_child(out, expr, 5, d);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item, d);
            }
            out.push(')');
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            write_child(out, expr, 5, d);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            write_query(out, subquery, d);
            out.push(')');
        }
        Expr::Exists { subquery, negated } => {
            out.push_str(if *negated { "NOT EXISTS (" } else { "EXISTS (" });
            write_query(out, subquery, d);
            out.push(')');
        }
        Expr::ScalarSubquery(q) => {
            out.push('(');
            write_query(out, q, d);
            out.push(')');
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            write_child(out, expr, 5, d);
            out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
            write_child(out, pattern, 5, d);
        }
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            // function names are never quoted: a quoted name would not
            // re-parse as a call, and every catalog spelling is a word
            let _ = write!(out, "{name}(");
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, d);
            }
            out.push(')');
        }
        Expr::Wildcard => out.push('*'),
        Expr::Arith { op, left, right } => {
            let (lmin, rmin) = match op {
                '+' => (5, 6),
                '-' => (5, 6),
                '*' | '/' | '%' => (6, 7),
                _ => (5, 6),
            };
            write_child(out, left, lmin, d);
            let _ = write!(out, " {op} ");
            write_child(out, right, rmin, d);
        }
        Expr::Neg(inner) => {
            out.push('-');
            write_child(out, inner, 8, d);
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            out.push_str("CASE");
            if let Some(op) = operand {
                out.push(' ');
                write_expr(out, op, d);
            }
            for (w, t) in branches {
                out.push_str(" WHEN ");
                write_expr(out, w, d);
                out.push_str(" THEN ");
                write_expr(out, t, d);
            }
            if let Some(e) = else_expr {
                out.push_str(" ELSE ");
                write_expr(out, e, d);
            }
            out.push_str(" END");
        }
        Expr::Cast { expr, type_name } => {
            out.push_str("CAST(");
            write_expr(out, expr, d);
            let _ = write!(out, " AS {type_name})");
        }
    }
}

fn write_literal(out: &mut String, l: &Literal) {
    match l {
        Literal::Number(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, "{}", *v as i64);
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Literal::String(s) => {
            let _ = write!(out, "'{}'", s.replace('\'', "''"));
        }
        Literal::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        Literal::Null => out.push_str("NULL"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_dialect, parse_query, parse_query_dialect};

    fn round_trip(sql: &str) {
        let q1 = parse(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        let printed = print_statement(&q1);
        let q2 =
            parse(&printed).unwrap_or_else(|e| panic!("re-parse {printed:?} (from {sql:?}): {e}"));
        assert_eq!(q1, q2, "round-trip mismatch: {sql:?} -> {printed:?}");
    }

    #[test]
    fn round_trips_paper_examples() {
        // Queries from the paper's listings (1, 2, 3)
        for sql in [
            "SELECT plate, mjd, COUNT(*), AVG(z) FROM SpecObj WHERE z > 0.5",
            "SELECT plate, COUNT(*) AS NumSpectra FROM SpecObj GROUP BY plate HAVING z > 0.5",
            "SELECT p.ra, p.dec, s.z FROM PhotoObj AS p JOIN SpecObj AS s ON s.bestobjid = (SELECT bestobjid FROM SpecObj)",
            "SELECT plate, mjd, fiberid FROM SpecObj WHERE z = 'high'",
            "SELECT s.plate, s.mjd, z FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = photoobj.bestobjid",
            "SELECT plate, fid FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.bestobjid WHERE bestobjid > 1000",
            "SELECT s.plate, s.mjd FROM SpecObj AS s WHERE s.plate IN (SELECT p.plate FROM PhotoObj AS p WHERE p.ra > 180)",
            "SELECT fiberid FROM SpecObj WHERE bestobjid IN (SELECT objid FROM PhotoObj WHERE ra > 180)",
            "WITH HighRedshift AS (SELECT plate, mjd FROM SpecObj WHERE z > 0.5) SELECT plate, mjd FROM HighRedshift",
            "SELECT * FROM SpecObj WHERE plate = 1000 AND mjd > 55000",
            "SELECT plate, AVG(z) FROM SpecObj GROUP BY plate",
            "SELECT s.plate, s.mjd FROM SpecObj AS s LEFT JOIN PhotoObj AS p ON s.bestobjid = p.objid",
            "SELECT plate, mjd, fiberid FROM SpecObj WHERE z > 0.5 OR ra > 180",
            "SELECT count(*), cName FROM tryout GROUP BY cName ORDER BY count(*) DESC",
            "SELECT count(*), student_course_id FROM Transcript_Cnt GROUP BY student_course_id ORDER BY count(*) DESC LIMIT 1",
            "SELECT S.name, S.loc FROM concert AS C JOIN stadium AS S ON C.stadium_id = S.stadium_id WHERE C.Year = 2014 INTERSECT SELECT S.name, S.loc FROM concert AS C JOIN stadium AS S ON C.stadium_id = S.stadium_id WHERE C.Year = 2015",
            "SELECT C.cylinders FROM CARS_DATA AS C JOIN CAR_NAMES AS T ON C.Id = T.MakeId WHERE T.Model = 'volvo' ORDER BY C.accelerate ASC LIMIT 1",
        ] {
            round_trip(sql);
        }
    }

    #[test]
    fn round_trips_structures() {
        for sql in [
            "SELECT * FROM t",
            "SELECT DISTINCT x FROM t",
            "SELECT TOP 10 x FROM t",
            "SELECT a.x, b.y FROM a, b WHERE a.id = b.id",
            "SELECT x FROM a LEFT JOIN b ON a.id = b.id RIGHT JOIN c ON b.id = c.id",
            "SELECT x FROM a CROSS JOIN b",
            "SELECT x FROM t WHERE NOT (a = 1 OR b = 2)",
            "SELECT x FROM t WHERE a IS NULL AND b IS NOT NULL",
            "SELECT x FROM t WHERE a NOT BETWEEN 1 AND 2",
            "SELECT x FROM t WHERE name NOT LIKE '%x%'",
            "SELECT x FROM t WHERE a IN (1, 2, 3)",
            "SELECT x FROM (SELECT x FROM t WHERE y > 0) AS d WHERE x < 5",
            "SELECT x FROM a UNION ALL SELECT x FROM b EXCEPT SELECT x FROM c",
            "SELECT x FROM a UNION (SELECT x FROM b INTERSECT SELECT x FROM c)",
            "(SELECT x FROM a UNION SELECT x FROM b) EXCEPT SELECT x FROM c",
            "SELECT CASE WHEN z > 0.5 THEN 'high' ELSE 'low' END AS bucket FROM SpecObj",
            "SELECT CAST(z AS INT) FROM t",
            "SELECT -x, a + b * c, (a + b) * c FROM t",
            "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
            "CREATE TABLE t (id INT, name VARCHAR)",
            "CREATE TABLE hot AS SELECT x FROM t WHERE y > 1",
            "CREATE VIEW v AS SELECT x FROM t",
            "SELECT x FROM t WHERE a = 1 AND (b = 2 OR c = 3)",
        ] {
            round_trip(sql);
        }
    }

    #[test]
    fn parentheses_only_when_needed() {
        let q = parse_query("SELECT x FROM t WHERE a = 1 AND b = 2 OR c = 3").unwrap();
        let printed = print_query(&q);
        // left-assoc OR over AND needs no parens
        assert_eq!(printed, "SELECT x FROM t WHERE a = 1 AND b = 2 OR c = 3");

        let q = parse_query("SELECT x FROM t WHERE a = 1 AND (b = 2 OR c = 3)").unwrap();
        let printed = print_query(&q);
        assert_eq!(printed, "SELECT x FROM t WHERE a = 1 AND (b = 2 OR c = 3)");
    }

    #[test]
    fn numbers_printed_canonically() {
        let q = parse_query("SELECT x FROM t WHERE a = 1000 AND b > 0.5").unwrap();
        let printed = print_query(&q);
        assert!(printed.contains("= 1000"));
        assert!(printed.contains("> 0.5"));
    }

    #[test]
    fn string_escaping_round_trips() {
        round_trip("SELECT x FROM t WHERE name = 'it''s'");
    }

    #[test]
    fn quoted_identifiers_now_round_trip() {
        // identifiers that are not bare words come back out quoted
        let q = parse_query(r#"SELECT "weird name" FROM t"#).unwrap();
        let printed = print_query(&q);
        assert_eq!(printed, r#"SELECT "weird name" FROM t"#);
        assert_eq!(parse_query(&printed).unwrap(), q);
    }

    #[test]
    fn dialect_canonical_quotes() {
        let q = parse_query(r#"SELECT "weird name" FROM t"#).unwrap();
        assert_eq!(
            print_query_dialect(&q, Dialect::Mysql),
            "SELECT `weird name` FROM t"
        );
        assert_eq!(
            print_query_dialect(&q, Dialect::Tsql),
            "SELECT [weird name] FROM t"
        );
        assert_eq!(
            print_query_dialect(&q, Dialect::Postgres),
            r#"SELECT "weird name" FROM t"#
        );
    }

    #[test]
    fn reserved_words_get_quoted_per_dialect() {
        let q = parse_query("SELECT user FROM t").unwrap();
        assert_eq!(
            print_query_dialect(&q, Dialect::Postgres),
            r#"SELECT "user" FROM t"#
        );
        // not reserved in SQLite: printed bare
        assert_eq!(
            print_query_dialect(&q, Dialect::Sqlite),
            "SELECT user FROM t"
        );
    }

    #[test]
    fn limit_top_folding_per_dialect() {
        let q = parse_query("SELECT x FROM t ORDER BY x ASC LIMIT 5").unwrap();
        assert_eq!(
            print_query_dialect(&q, Dialect::Tsql),
            "SELECT TOP 5 x FROM t ORDER BY x ASC"
        );
        let q = parse_query("SELECT TOP 5 x FROM t").unwrap();
        assert_eq!(
            print_query_dialect(&q, Dialect::Sqlite),
            "SELECT x FROM t LIMIT 5"
        );
        // Squ prints both faithfully
        assert_eq!(print_query(&q), "SELECT TOP 5 x FROM t");

        // a CREATE statement's source query folds too
        for (sql, d, want) in [
            (
                "CREATE TABLE t2 AS SELECT x FROM t LIMIT 5",
                Dialect::Tsql,
                "CREATE TABLE t2 AS SELECT TOP 5 x FROM t",
            ),
            (
                "CREATE TABLE t2 AS SELECT TOP 5 x FROM t",
                Dialect::Sqlite,
                "CREATE TABLE t2 AS SELECT x FROM t LIMIT 5",
            ),
            (
                "CREATE VIEW v AS SELECT TOP 5 x FROM t",
                Dialect::Postgres,
                "CREATE VIEW v AS SELECT x FROM t LIMIT 5",
            ),
        ] {
            let stmt = parse(sql).unwrap();
            assert_eq!(print_statement_dialect(&stmt, d), want, "{}", d.name());
        }

        // what the fold leaves alone it borrows: every query in Squ, a
        // query with both bounds, and a set-operation body
        for sql in [
            "SELECT x FROM t LIMIT 5",
            "SELECT TOP 5 x FROM t",
            "SELECT TOP 3 x FROM t LIMIT 5",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(matches!(fold_limit_top(&q, Dialect::Squ), Cow::Borrowed(_)));
            assert_eq!(print_query(&q), sql);
        }
        for (sql, d) in [
            ("SELECT TOP 3 x FROM t LIMIT 5", Dialect::Sqlite),
            ("SELECT TOP 3 x FROM t LIMIT 5", Dialect::Tsql),
            (
                "SELECT x FROM a UNION SELECT x FROM b LIMIT 5",
                Dialect::Tsql,
            ),
        ] {
            let q = parse_query(sql).unwrap();
            assert!(
                matches!(fold_limit_top(&q, d), Cow::Borrowed(_)),
                "{sql:?} in {}",
                d.name()
            );
            assert_eq!(print_query_dialect(&q, d), sql, "{}", d.name());
        }
    }

    #[test]
    fn dialect_prints_re_parse_in_their_dialect() {
        for (sql, d) in [
            ("SELECT x FROM t ORDER BY x ASC LIMIT 5", Dialect::Tsql),
            ("SELECT TOP 5 x FROM t", Dialect::Mysql),
            ("SELECT a || b FROM t", Dialect::Tsql),
            (r#"SELECT "weird name" FROM #tmp"#, Dialect::Sqlite),
        ] {
            let q = parse_query(sql).unwrap();
            let printed = print_query_dialect(&q, d);
            parse_query_dialect(&printed, d)
                .unwrap_or_else(|e| panic!("{printed:?} in {}: {e}", d.name()));
        }
    }

    #[test]
    fn concat_always_prints_as_function() {
        // `||` is folded to CONCAT at parse time; the printer keeps the
        // function form, which every dialect accepts
        let q = parse_query("SELECT a || b FROM t").unwrap();
        for d in Dialect::ALL {
            assert_eq!(print_query_dialect(&q, d), "SELECT CONCAT(a, b) FROM t");
        }
    }

    #[test]
    fn dialect_fixpoint_on_own_parses() {
        // print_dialect(parse_dialect(x, d), d) must re-parse to the same AST
        for (sql, d) in [
            ("SELECT `a b` FROM t LIMIT 3", Dialect::Mysql),
            ("SELECT TOP 3 [a b] FROM t", Dialect::Tsql),
            ("SELECT a || b FROM \"c d\"", Dialect::Postgres),
            ("SELECT substr(x, 1, 2) FROM t LIMIT 1", Dialect::Sqlite),
        ] {
            let s1 = parse_dialect(sql, d).unwrap();
            let printed = print_statement_dialect(&s1, d);
            let s2 = parse_dialect(&printed, d)
                .unwrap_or_else(|e| panic!("{printed:?} in {}: {e}", d.name()));
            assert_eq!(s1, s2, "{sql:?} -> {printed:?} in {}", d.name());
        }
        // a CREATE source carrying the other dialect's row bound prints as
        // a statement of `d`, and that print is a fixpoint
        for (sql, d) in [
            ("CREATE TABLE t2 AS SELECT x FROM t LIMIT 5", Dialect::Tsql),
            ("CREATE TABLE t2 AS SELECT TOP 5 x FROM t", Dialect::Sqlite),
            ("CREATE VIEW v AS SELECT TOP 5 x FROM t", Dialect::Postgres),
        ] {
            let printed = print_statement_dialect(&parse(sql).unwrap(), d);
            let s1 = parse_dialect(&printed, d)
                .unwrap_or_else(|e| panic!("{printed:?} in {}: {e}", d.name()));
            let again = print_statement_dialect(&s1, d);
            assert_eq!(again, printed, "{sql:?} in {}", d.name());
            assert_eq!(parse_dialect(&again, d).unwrap(), s1);
        }
    }
}
