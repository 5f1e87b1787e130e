//! Result-preserving canonicalization of queries.
//!
//! `canonicalize` rewrites a query into a normal form such that two queries
//! with identical canonical forms are equivalent under the benchmark's
//! result semantics (`squ_engine::Relation::result_equal`: multiset of
//! rows, column order significant, names insignificant). Every rewrite is individually
//! sound in SQL's three-valued logic:
//!
//! - table aliases are renamed positionally (names never reach results);
//! - `x BETWEEN l AND h` ⇔ `x >= l AND x <= h`, `x IN (a, b)` ⇔
//!   `x = a OR x = b` (both exact in 3VL, including NULLs);
//! - `NOT` is pushed to the leaves (Kleene De Morgan; `NOT (a < b)` ⇔
//!   `a >= b` — both TRUE exactly on non-NULL complements);
//! - comparisons are oriented (literals right, columns ordered) via
//!   [`CompareOp::flipped`];
//! - AND/OR chains are flattened, sorted and deduplicated (idempotence
//!   holds in 3VL);
//! - `ORDER BY` without `LIMIT`/`TOP` is dropped (row order is not part of
//!   result equality) and `TOP n` on a plain select becomes `LIMIT n` (the
//!   engines fold them identically);
//! - single-use `WITH w AS (…) SELECT * FROM w` / `SELECT * FROM (…) AS d`
//!   wrappers are inlined.
//!
//! The canonical AST is only ever *compared*, never printed or executed, so
//! the synthetic alias names (which no SQL source can collide with) are
//! safe.

use squ_lexer::CompareOp;
use squ_parser::ast::{
    Expr, JoinConstraint, Literal, OrderItem, Query, Select, SelectItem, SetExpr, TableRef,
};
use squ_parser::print_expr;

/// Canonicalize a query for structural-equality comparison.
pub fn canonicalize(q: &Query) -> Query {
    let mut q = q.clone();
    let mut counter = 0usize;
    rename_query(&mut q, &mut Vec::new(), &mut counter);
    canon_query(&mut q);
    q
}

// ---------------- alias renaming ----------------

/// Positional, capture-free renaming of table aliases. `scope` is the stack
/// of active (original → canonical) alias bindings, innermost last.
fn rename_query(q: &mut Query, scope: &mut Vec<(String, String)>, counter: &mut usize) {
    // CTE bodies see only their own (and earlier) scopes, not the outer
    // FROM aliases; the dialect has no lateral correlation into CTEs.
    let depth = scope.len();
    for cte in &mut q.ctes {
        scope.truncate(depth);
        rename_query(&mut cte.query, &mut Vec::new(), counter);
    }
    rename_set_expr(&mut q.body, scope, counter, &mut q.order_by);
    scope.truncate(depth);
}

fn rename_set_expr(
    body: &mut SetExpr,
    scope: &mut Vec<(String, String)>,
    counter: &mut usize,
    order_by: &mut [OrderItem],
) {
    match body {
        SetExpr::Select(s) => rename_select(s, scope, counter, order_by),
        SetExpr::SetOp { left, right, .. } => {
            rename_set_expr(left, scope, counter, &mut []);
            rename_set_expr(right, scope, counter, &mut []);
            for o in order_by.iter_mut() {
                rename_expr(&mut o.expr, scope, counter);
            }
        }
    }
}

fn rename_select(
    s: &mut Select,
    scope: &mut Vec<(String, String)>,
    counter: &mut usize,
    order_by: &mut [OrderItem],
) {
    let depth = scope.len();
    // collect this scope's alias bindings in FROM order, and shadow any
    // outer binding re-introduced here (by alias or bare table name)
    fn collect(tr: &TableRef, scope: &mut Vec<(String, String)>, counter: &mut usize) {
        match tr {
            TableRef::Named { alias: Some(a), .. } => {
                *counter += 1;
                scope.push((a.to_ascii_lowercase(), format!("\u{1}a{counter}")));
            }
            TableRef::Named { name, alias: None } => {
                // a bare table name shadows an identically-named outer alias
                scope.push((name.to_ascii_lowercase(), name.clone()));
            }
            TableRef::Derived { alias, .. } => {
                if let Some(a) = alias {
                    scope.push((a.to_ascii_lowercase(), a.clone()));
                }
            }
            TableRef::Join { left, right, .. } => {
                collect(left, scope, counter);
                collect(right, scope, counter);
            }
        }
    }
    for tr in &s.from {
        collect(tr, scope, counter);
    }
    // apply the renames to the alias definitions themselves
    fn apply_tr(tr: &mut TableRef, scope: &mut Vec<(String, String)>, counter: &mut usize) {
        match tr {
            TableRef::Named { alias: Some(a), .. } => {
                if let Some(n) = lookup(scope, a) {
                    *a = n;
                }
            }
            TableRef::Named { .. } => {}
            TableRef::Derived { query, .. } => {
                // derived bodies do not see the enclosing FROM aliases
                rename_query(query, &mut Vec::new(), counter);
            }
            TableRef::Join {
                left,
                right,
                constraint,
                ..
            } => {
                apply_tr(left, scope, counter);
                apply_tr(right, scope, counter);
                if let JoinConstraint::On(e) = constraint {
                    rename_expr(e, scope, counter);
                }
            }
        }
    }
    let mut from = std::mem::take(&mut s.from);
    for tr in &mut from {
        apply_tr(tr, scope, counter);
    }
    s.from = from;
    for item in &mut s.items {
        if let SelectItem::Expr { expr, .. } = item {
            rename_expr(expr, scope, counter);
        }
        if let SelectItem::QualifiedWildcard(q) = item {
            if let Some(n) = lookup(scope, q) {
                *q = n;
            }
        }
    }
    if let Some(w) = &mut s.selection {
        rename_expr(w, scope, counter);
    }
    for g in &mut s.group_by {
        rename_expr(g, scope, counter);
    }
    if let Some(h) = &mut s.having {
        rename_expr(h, scope, counter);
    }
    for o in order_by.iter_mut() {
        rename_expr(&mut o.expr, scope, counter);
    }
    scope.truncate(depth);
}

fn lookup(scope: &[(String, String)], name: &str) -> Option<String> {
    let lower = name.to_ascii_lowercase();
    scope
        .iter()
        .rev()
        .find(|(o, _)| *o == lower)
        .map(|(_, n)| n.clone())
}

fn rename_expr(e: &mut Expr, scope: &mut Vec<(String, String)>, counter: &mut usize) {
    if let Expr::Column(c) = e {
        if let Some(q) = &c.qualifier {
            if let Some(n) = lookup(scope, q) {
                c.qualifier = Some(n);
            }
        }
        return;
    }
    // correlated subqueries still see the outer scope
    match e {
        Expr::InSubquery { expr, subquery, .. } => {
            rename_expr(expr, scope, counter);
            rename_query(subquery, scope, counter);
        }
        Expr::Exists { subquery, .. } => rename_query(subquery, scope, counter),
        Expr::ScalarSubquery(subquery) => rename_query(subquery, scope, counter),
        _ => mutate_children(e, &mut |ch| rename_expr(ch, scope, counter)),
    }
}

// ---------------- structural canonicalization ----------------

fn canon_query(q: &mut Query) {
    for cte in &mut q.ctes {
        canon_query(&mut cte.query);
    }
    canon_set_expr(&mut q.body);
    // TOP n on a plain select body folds into LIMIT identically in both
    // engines (`q.limit.or(s.top)`)
    if q.limit.is_none() {
        if let SetExpr::Select(s) = &mut q.body {
            q.limit = s.top.take();
        }
    }
    for o in &mut q.order_by {
        canon_expr(&mut o.expr);
    }
    // row order is not observable without a limit
    if q.limit.is_none() {
        q.order_by.clear();
    }
    inline_wrappers(q);
}

fn canon_set_expr(body: &mut SetExpr) {
    match body {
        SetExpr::Select(s) => canon_select(s),
        SetExpr::SetOp { left, right, .. } => {
            canon_set_expr(left);
            canon_set_expr(right);
        }
    }
}

fn canon_select(s: &mut Select) {
    for tr in &mut s.from {
        canon_table_ref(tr);
    }
    for item in &mut s.items {
        if let SelectItem::Expr { expr, .. } = item {
            canon_expr(expr);
        }
    }
    if let Some(w) = s.selection.take() {
        s.selection = Some(canon_predicate(w));
    }
    for g in &mut s.group_by {
        canon_expr(g);
    }
    if let Some(h) = s.having.take() {
        s.having = Some(canon_predicate(h));
    }
}

/// Canonicalize a scalar (non-predicate) expression: recurse into
/// subqueries, leave the scalar structure alone.
fn canon_expr(e: &mut Expr) {
    match e {
        Expr::InSubquery { expr, subquery, .. } => {
            canon_expr(expr);
            **subquery = canonicalize_inner(subquery);
        }
        Expr::Exists { subquery, .. } => **subquery = canonicalize_inner(subquery),
        Expr::ScalarSubquery(subquery) => **subquery = canonicalize_inner(subquery),
        _ => mutate_children(e, &mut |ch| canon_expr(ch)),
    }
}

fn canon_table_ref(tr: &mut TableRef) {
    match tr {
        TableRef::Named { .. } => {}
        TableRef::Derived { query, .. } => canon_query(query),
        TableRef::Join {
            left,
            right,
            constraint,
            ..
        } => {
            canon_table_ref(left);
            canon_table_ref(right);
            if let JoinConstraint::On(e) = constraint {
                let on = std::mem::replace(e, Expr::Wildcard);
                *e = canon_predicate(on);
            }
        }
    }
}

/// Inline `WITH w AS (inner) SELECT * FROM w` and
/// `SELECT * FROM (inner) AS d` wrappers (the shapes the transform catalog
/// produces). `SELECT *` re-exports the inner result unchanged, so the
/// wrapper is the identity on results; the outer ORDER BY / LIMIT transfer
/// when the inner query carries none.
fn inline_wrappers(q: &mut Query) {
    loop {
        // outer ORDER BY must not name the wrapper binding (it would dangle
        // after inlining)
        if q.order_by
            .iter()
            .any(|o| !matches!(&o.expr, Expr::Column(c) if c.qualifier.is_none()))
        {
            return;
        }
        let Some(s) = q.as_select() else { return };
        if s.items.len() != 1
            || !matches!(s.items[0], SelectItem::Wildcard)
            || s.from.len() != 1
            || s.selection.is_some()
            || !s.group_by.is_empty()
            || s.having.is_some()
            || s.distinct
            || s.top.is_some()
        {
            return;
        }
        let inner: Query = match &s.from[0] {
            TableRef::Derived { query, .. } if q.ctes.is_empty() => (**query).clone(),
            TableRef::Named { name, alias: None } if q.ctes.len() == 1 => {
                let cte = &q.ctes[0];
                if cte.name.eq_ignore_ascii_case(name) && !uses_cte(&cte.query, &cte.name) {
                    (*cte.query).clone()
                } else {
                    return;
                }
            }
            _ => return,
        };
        if inner.limit.is_some() || !inner.order_by.is_empty() || !inner.ctes.is_empty() {
            return;
        }
        q.ctes = inner.ctes;
        q.body = inner.body;
        if q.order_by.is_empty() {
            q.order_by = inner.order_by;
        }
        if q.limit.is_none() {
            q.limit = inner.limit;
        }
        // loop: the inlined body may itself be a wrapper
    }
}

/// Does `q` reference a table named `name` anywhere (conservative check for
/// self-referencing CTE shapes)?
fn uses_cte(q: &Query, name: &str) -> bool {
    let mut found = false;
    fn walk_q(q: &Query, name: &str, found: &mut bool) {
        for cte in &q.ctes {
            walk_q(&cte.query, name, found);
        }
        walk_se(&q.body, name, found);
    }
    fn walk_se(se: &SetExpr, name: &str, found: &mut bool) {
        match se {
            SetExpr::Select(s) => {
                for tr in &s.from {
                    walk_tr(tr, name, found);
                }
            }
            SetExpr::SetOp { left, right, .. } => {
                walk_se(left, name, found);
                walk_se(right, name, found);
            }
        }
    }
    fn walk_tr(tr: &TableRef, name: &str, found: &mut bool) {
        match tr {
            TableRef::Named { name: n, .. } => {
                if n.eq_ignore_ascii_case(name) {
                    *found = true;
                }
            }
            TableRef::Derived { query, .. } => walk_q(query, name, found),
            TableRef::Join { left, right, .. } => {
                walk_tr(left, name, found);
                walk_tr(right, name, found);
            }
        }
    }
    walk_q(q, name, &mut found);
    found
}

// ---------------- predicate normalization ----------------

/// Normalize a boolean predicate: expand BETWEEN / IN-lists, push NOT to
/// the leaves, orient comparisons, flatten + sort + dedupe AND/OR chains.
pub fn canon_predicate(e: Expr) -> Expr {
    let expanded = expand(e);
    let nnf = push_not(expanded, false);
    sort_tree(nnf)
}

/// Expand sugared forms and recurse into subqueries.
fn expand(mut e: Expr) -> Expr {
    // bottom-up: children first
    mutate_children(&mut e, &mut |ch| {
        let owned = std::mem::replace(ch, Expr::Wildcard);
        *ch = expand(owned);
    });
    match e {
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let ge = (*expr).clone().compare(CompareOp::GtEq, *low);
            let le = (*expr).compare(CompareOp::LtEq, *high);
            let range = ge.and(le);
            if negated {
                Expr::Not(Box::new(range))
            } else {
                range
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } if !list.is_empty() => {
            let mut ors = list
                .into_iter()
                .map(|v| (*expr).clone().compare(CompareOp::Eq, v));
            let first = match ors.next() {
                Some(f) => f,
                None => return Expr::Literal(Literal::Bool(negated)),
            };
            let chain = ors.fold(first, |acc, p| acc.or(p));
            if negated {
                Expr::Not(Box::new(chain))
            } else {
                chain
            }
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Expr::InSubquery {
            expr,
            subquery: Box::new(canonicalize_inner(&subquery)),
            negated,
        },
        Expr::Exists { subquery, negated } => Expr::Exists {
            subquery: Box::new(canonicalize_inner(&subquery)),
            negated,
        },
        Expr::ScalarSubquery(subquery) => {
            Expr::ScalarSubquery(Box::new(canonicalize_inner(&subquery)))
        }
        other => other,
    }
}

/// Canonicalize a nested query *without* re-running alias renaming (the
/// top-level pass already renamed the whole tree with a global counter).
fn canonicalize_inner(q: &Query) -> Query {
    let mut q = q.clone();
    canon_query(&mut q);
    q
}

/// Push `NOT` to the leaves (Kleene-exact).
fn push_not(e: Expr, neg: bool) -> Expr {
    match e {
        Expr::Not(inner) => push_not(*inner, !neg),
        Expr::And(a, b) => {
            let (a, b) = (push_not(*a, neg), push_not(*b, neg));
            if neg {
                a.or(b)
            } else {
                a.and(b)
            }
        }
        Expr::Or(a, b) => {
            let (a, b) = (push_not(*a, neg), push_not(*b, neg));
            if neg {
                a.and(b)
            } else {
                a.or(b)
            }
        }
        Expr::Compare { op, left, right } => {
            let op = if neg { op.negated() } else { op };
            orient(Expr::Compare { op, left, right })
        }
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr,
            negated: negated ^ neg,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr,
            pattern,
            negated: negated ^ neg,
        },
        Expr::Exists { subquery, negated } => Expr::Exists {
            subquery,
            negated: negated ^ neg,
        },
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Expr::InSubquery {
            expr,
            subquery,
            negated: negated ^ neg,
        },
        Expr::Literal(Literal::Bool(b)) => Expr::Literal(Literal::Bool(b ^ neg)),
        other => {
            if neg {
                Expr::Not(Box::new(other))
            } else {
                other
            }
        }
    }
}

/// Orient a comparison: literal operand to the right, column-column pairs
/// ordered; `flipped` preserves meaning exactly.
fn orient(e: Expr) -> Expr {
    let Expr::Compare { op, left, right } = e else {
        return e;
    };
    let flip = match (&*left, &*right) {
        (Expr::Literal(_), r) if !matches!(r, Expr::Literal(_)) => true,
        (Expr::Column(a), Expr::Column(b)) => a > b,
        _ => false,
    };
    if flip {
        Expr::Compare {
            op: op.flipped(),
            left: right,
            right: left,
        }
    } else {
        Expr::Compare { op, left, right }
    }
}

/// Flatten, sort and dedupe AND/OR chains bottom-up.
fn sort_tree(e: Expr) -> Expr {
    match e {
        Expr::And(_, _) => {
            let mut parts = Vec::new();
            flatten(e, true, &mut parts);
            rebuild(parts, true)
        }
        Expr::Or(_, _) => {
            let mut parts = Vec::new();
            flatten(e, false, &mut parts);
            rebuild(parts, false)
        }
        mut other => {
            mutate_children(&mut other, &mut |ch| {
                let owned = std::mem::replace(ch, Expr::Wildcard);
                *ch = sort_tree(owned);
            });
            other
        }
    }
}

fn flatten(e: Expr, conj: bool, out: &mut Vec<Expr>) {
    match (e, conj) {
        (Expr::And(a, b), true) => {
            flatten(*a, conj, out);
            flatten(*b, conj, out);
        }
        (Expr::Or(a, b), false) => {
            flatten(*a, conj, out);
            flatten(*b, conj, out);
        }
        (other, _) => out.push(sort_tree(other)),
    }
}

fn rebuild(mut parts: Vec<Expr>, conj: bool) -> Expr {
    parts.sort_by_key(print_expr);
    parts.dedup(); // idempotent in 3VL: x AND x ≡ x, x OR x ≡ x
    let mut it = parts.into_iter();
    let first = match it.next() {
        Some(f) => f,
        None => return Expr::Literal(Literal::Bool(conj)),
    };
    it.fold(first, |acc, p| if conj { acc.and(p) } else { acc.or(p) })
}

/// Visit the direct children of an expression mutably (not descending into
/// subqueries).
pub fn mutate_children(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    match e {
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
        Expr::Compare { left, right, .. } | Expr::Arith { left, right, .. } => {
            f(left);
            f(right);
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            f(a);
            f(b);
        }
        Expr::Not(x) | Expr::Neg(x) | Expr::Cast { expr: x, .. } => f(x),
        Expr::IsNull { expr, .. } => f(expr),
        Expr::Between {
            expr, low, high, ..
        } => {
            f(expr);
            f(low);
            f(high);
        }
        Expr::InList { expr, list, .. } => {
            f(expr);
            for v in list {
                f(v);
            }
        }
        Expr::InSubquery { expr, .. } => f(expr),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        Expr::Like { expr, pattern, .. } => {
            f(expr);
            f(pattern);
        }
        Expr::Function { args, .. } => {
            for a in args {
                f(a);
            }
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(op) = operand {
                f(op);
            }
            for (w, t) in branches {
                f(w);
                f(t);
            }
            if let Some(el) = else_expr {
                f(el);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squ_parser::parse;

    fn q(sql: &str) -> Query {
        match parse(sql).expect("parse") {
            squ_parser::Statement::Query(q) => q,
            _ => panic!("not a query"),
        }
    }

    fn same(a: &str, b: &str) -> bool {
        canonicalize(&q(a)) == canonicalize(&q(b))
    }

    #[test]
    fn conjunct_order_is_canonical() {
        assert!(same(
            "SELECT x FROM t WHERE a > 1 AND b < 2",
            "SELECT x FROM t WHERE b < 2 AND a > 1"
        ));
        assert!(!same(
            "SELECT x FROM t WHERE a > 1 AND b < 2",
            "SELECT x FROM t WHERE a > 1 OR b < 2"
        ));
    }

    #[test]
    fn between_and_in_expand() {
        assert!(same(
            "SELECT x FROM t WHERE x BETWEEN 1 AND 5",
            "SELECT x FROM t WHERE x >= 1 AND x <= 5"
        ));
        assert!(same(
            "SELECT x FROM t WHERE x IN (1, 2)",
            "SELECT x FROM t WHERE x = 1 OR x = 2"
        ));
    }

    #[test]
    fn de_morgan_normalizes() {
        assert!(same(
            "SELECT x FROM t WHERE a > 1 AND b < 2",
            "SELECT x FROM t WHERE NOT (NOT (a > 1) OR NOT (b < 2))"
        ));
    }

    #[test]
    fn comparison_orientation() {
        assert!(same(
            "SELECT x FROM t WHERE x > 5",
            "SELECT x FROM t WHERE 5 < x"
        ));
        assert!(same(
            "SELECT x FROM t WHERE a = b",
            "SELECT x FROM t WHERE b = a"
        ));
    }

    #[test]
    fn alias_renaming_is_positional() {
        assert!(same(
            "SELECT s.x FROM t AS s WHERE s.x > 1",
            "SELECT u.x FROM t AS u WHERE u.x > 1"
        ));
        // different structure must not unify
        assert!(!same(
            "SELECT s.x FROM t AS s WHERE s.x > 1",
            "SELECT s.y FROM t AS s WHERE s.x > 1"
        ));
    }

    #[test]
    fn wrappers_inline() {
        assert!(same(
            "SELECT x FROM t WHERE x > 1",
            "WITH w AS (SELECT x FROM t WHERE x > 1) SELECT * FROM w"
        ));
        assert!(same(
            "SELECT x FROM t WHERE x > 1",
            "SELECT * FROM (SELECT x FROM t WHERE x > 1) AS d"
        ));
    }

    #[test]
    fn order_without_limit_drops() {
        assert!(same("SELECT x FROM t ORDER BY x", "SELECT x FROM t"));
        assert!(!same(
            "SELECT x FROM t ORDER BY x LIMIT 2",
            "SELECT x FROM t LIMIT 2"
        ));
    }

    #[test]
    fn top_folds_into_limit() {
        assert!(same("SELECT TOP 3 x FROM t", "SELECT x FROM t LIMIT 3"));
    }

    #[test]
    fn correlated_aliases_do_not_capture() {
        // outer alias is renamed inside the subquery too; the inner table's
        // own binding shadows correctly
        assert!(same(
            "SELECT a.x FROM t AS a WHERE EXISTS (SELECT 1 FROM u WHERE u.y = a.x)",
            "SELECT b.x FROM t AS b WHERE EXISTS (SELECT 1 FROM u WHERE u.y = b.x)"
        ));
    }
}
