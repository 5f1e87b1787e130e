//! Naive reference interpreter: the engine's one executable definition of
//! SQL semantics.
//!
//! [`reference_query`] executes the same AST dialect as the compiled
//! engine ([`crate::compile_query`]) but with none of its shortcuts: a
//! FROM list's cross product is walked depth first in FROM order, never
//! reordered, and every join is a straight nested loop (the equi-join hash
//! fast path does not exist here). Its one economy is textbook predicate
//! placement. When no part of a WHERE clause can raise an error, each
//! top-level `AND` conjunct is tested as soon as the walk has bound every
//! column it reads, and one that is not TRUE skips that part of the
//! product; any other WHERE is evaluated whole on every product row. A
//! product row is built only once WHERE keeps it, and the row cap applies
//! to the product's size before the walk starts. There is no cost model
//! and no statistics bookkeeping — just textbook semantics, written to be
//! obviously correct rather than fast.
//!
//! It has two jobs. [`crate::execute_query`] runs every query the compiler
//! rejects here, and `squ-fuzz` runs it beside the compiled engine over
//! generated queries on witness databases, failing if they ever disagree
//! under [`Relation::result_equal`]. The two share only the [`Value`]
//! primitives and the leaf `CAST`, `LIKE` and scalar-function library; all
//! relational machinery (scans, joins, filtering, grouping, set
//! operations, ordering) is implemented twice, so a disagreement localizes
//! a bug to one of the divergent layers — usually the optimized one.

use crate::exec::{cast_value, scalar_function, ExecError};
use crate::{like_match, Database, Relation, Value};
use squ_parser::ast::*;
use squ_parser::CompareOp;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Execute a query with straight nested-loop semantics.
pub fn reference_query(q: &Query, db: &Database) -> Result<Relation, ExecError> {
    let mut cx = Rx {
        db,
        ctes: Vec::new(),
    };
    cx.query(q, &[])
}

/// Hard ceiling on any intermediate relation, mirroring the compiled
/// engine's guard. A FROM list's cross product and a join's pair count are
/// held to it by size, before any of their rows is built. The reference
/// engine hits it earlier than the compiled one on the same query
/// (placement prunes the walk, not the product it is capped on), which the
/// differential oracle treats as a skip, not a disagreement.
const MAX_ROWS: usize = 120_000;

/// A column of a working relation: optional table binding plus name.
#[derive(Clone)]
struct RCol {
    binding: Option<String>,
    name: String,
}

/// An intermediate relation with qualified columns. A base table's rows
/// are borrowed from the database; every other relation owns its rows.
struct Rows<'d> {
    cols: Vec<RCol>,
    rows: Cow<'d, [Vec<Value>]>,
}

impl<'d> Rows<'d> {
    /// `rows` under `columns`, each bound to `binding`.
    fn bound(binding: &str, columns: &[String], rows: Cow<'d, [Vec<Value>]>) -> Self {
        Rows {
            cols: columns
                .iter()
                .map(|c| RCol {
                    binding: Some(binding.to_string()),
                    name: c.clone(),
                })
                .collect(),
            rows,
        }
    }
}

/// A correlation frame visible to subqueries.
struct Scope<'a> {
    cols: &'a [RCol],
    row: &'a [Value],
}

struct Rx<'a> {
    db: &'a Database,
    /// CTE scopes, innermost last; each lists its declarations in order.
    ctes: Vec<Vec<(String, Relation)>>,
}

impl<'a> Rx<'a> {
    /// The latest declaration at the innermost level whose name matches
    /// ASCII-case-insensitively.
    fn lookup_cte(&self, name: &str) -> Option<&Relation> {
        self.ctes
            .iter()
            .rev()
            .find_map(|env| env.iter().rev().find(|(k, _)| k.eq_ignore_ascii_case(name)))
            .map(|(_, v)| v)
    }

    fn query(&mut self, q: &Query, env: &[Scope]) -> Result<Relation, ExecError> {
        self.ctes.push(Vec::new());
        let result = (|| {
            for cte in &q.ctes {
                let rel = self.query(&cte.query, env)?;
                if let Some(top) = self.ctes.last_mut() {
                    top.push((cte.name.clone(), rel));
                }
            }
            let mut rel = self.set_expr(&q.body, &q.order_by, env)?;
            let limit = q.limit.or(match &q.body {
                SetExpr::Select(s) => s.top,
                _ => None,
            });
            if let Some(n) = limit {
                rel.rows.truncate(n as usize);
            }
            Ok(rel)
        })();
        self.ctes.pop();
        result
    }

    fn set_expr(
        &mut self,
        body: &SetExpr,
        order_by: &[OrderItem],
        env: &[Scope],
    ) -> Result<Relation, ExecError> {
        match body {
            SetExpr::Select(s) => self.select(s, order_by, env),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let l = self.set_expr(left, &[], env)?;
                let r = self.set_expr(right, &[], env)?;
                let mut rel = set_operation(op, *all, l, r);
                if !order_by.is_empty() {
                    sort_set_result(&mut rel, order_by)?;
                }
                Ok(rel)
            }
        }
    }

    fn select(
        &mut self,
        s: &Select,
        order_by: &[OrderItem],
        env: &[Scope],
    ) -> Result<Relation, ExecError> {
        // FROM: every item in order. The cap applies to the size of the
        // cross product so far, checked after each item and before any
        // product row exists; a table-less SELECT is one empty row.
        let mut items = Vec::with_capacity(s.from.len());
        let mut size: usize = 1;
        for tr in &s.from {
            let item = self.table_ref(tr, env)?;
            size = size.saturating_mul(item.rows.len());
            if size > MAX_ROWS {
                return Err(ExecError::ResourceLimit);
            }
            items.push(item);
        }

        // WHERE: placed on the depths of one depth-first walk over the
        // product (see `walk`). When no part of the WHERE can raise an
        // error, it is TRUE exactly when each top-level AND conjunct is,
        // so each conjunct is tested at the shallowest depth that binds
        // every column it reads. Otherwise the whole WHERE is tested on
        // each full product row.
        let mut placed = vec![Vec::new(); items.len() + 1];
        if let Some(pred) = &s.selection {
            let conjuncts = conjuncts(pred);
            let depths: Option<Vec<usize>> =
                conjuncts.iter().map(|c| depth(c, &items, env)).collect();
            match depths {
                Some(depths) => {
                    for (c, d) in conjuncts.into_iter().zip(depths) {
                        placed[d].push(c);
                    }
                }
                None => placed[items.len()].push(pred),
            }
        }
        // One scope frame per item, pushed last item first so `resolve`
        // meets the items in FROM order.
        let mut scopes = rescope(env);
        scopes.extend(items.iter().rev().map(|it| Scope {
            cols: &it.cols,
            row: &[],
        }));
        let mut rows = Vec::new();
        self.walk(0, &items, &placed, &mut scopes, &mut rows)?;
        let working = Rows {
            cols: items
                .iter()
                .flat_map(|it| it.cols.iter().cloned())
                .collect(),
            rows: Cow::Owned(rows),
        };

        let grouped = !s.group_by.is_empty()
            || s.items
                .iter()
                .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || s.having.as_ref().is_some_and(|h| h.contains_aggregate())
            || order_by.iter().any(|o| o.expr.contains_aggregate());

        let (names, mut out) = if grouped {
            self.project_grouped(s, order_by, env, &working)?
        } else {
            self.project_plain(s, order_by, env, &working)?
        };

        if s.distinct {
            let mut seen = std::collections::HashSet::new();
            out.retain(|(row, _)| seen.insert(row.clone()));
        }

        if !order_by.is_empty() {
            out.sort_by(|(_, ka), (_, kb)| {
                for ((va, item), vb) in ka.iter().zip(order_by).zip(kb.iter()) {
                    let ord = va.total_cmp(vb);
                    let ord = if item.desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }

        Ok(Relation::new(
            names,
            out.into_iter().map(|(r, _)| r).collect(),
        ))
    }

    /// Walk the FROM product depth first, with the frames of items
    /// `0..depth` set: test the conjuncts placed at `depth`, and if all
    /// hold, point item `depth`'s frame at each of its rows in turn and go
    /// one deeper, or build the row once every frame is set. Item 0 is
    /// outermost and the last item moves fastest, so rows come out in
    /// product order.
    fn walk<'s>(
        &mut self,
        depth: usize,
        items: &'s [Rows<'_>],
        placed: &[Vec<&Expr>],
        scopes: &mut [Scope<'s>],
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), ExecError> {
        for c in &placed[depth] {
            if !self.eval(c, scopes)?.is_truthy() {
                return Ok(());
            }
        }
        match items.get(depth) {
            Some(item) => {
                let frame = scopes.len() - 1 - depth;
                for row in item.rows.iter() {
                    scopes[frame].row = row;
                    self.walk(depth + 1, items, placed, scopes, out)?;
                }
            }
            None => {
                let frames = scopes[scopes.len() - items.len()..].iter().rev();
                out.push(frames.flat_map(|f| f.row.iter().cloned()).collect());
            }
        }
        Ok(())
    }

    #[allow(clippy::type_complexity)]
    fn project_plain(
        &mut self,
        s: &Select,
        order_by: &[OrderItem],
        env: &[Scope],
        working: &Rows<'_>,
    ) -> Result<(Vec<String>, Vec<(Vec<Value>, Vec<Value>)>), ExecError> {
        let names = output_names(s, &working.cols);
        let mut out = Vec::with_capacity(working.rows.len());
        for row in working.rows.iter() {
            let mut scopes = rescope(env);
            scopes.push(Scope {
                cols: &working.cols,
                row,
            });
            let mut vals = Vec::with_capacity(s.items.len());
            for item in &s.items {
                match item {
                    SelectItem::Wildcard => vals.extend(row.iter().cloned()),
                    SelectItem::QualifiedWildcard(q) => {
                        for (c, v) in working.cols.iter().zip(row) {
                            if c.binding
                                .as_deref()
                                .is_some_and(|b| b.eq_ignore_ascii_case(q))
                            {
                                vals.push(v.clone());
                            }
                        }
                    }
                    SelectItem::Expr { expr, .. } => vals.push(self.eval(expr, &scopes)?),
                }
            }
            let mut keys = Vec::with_capacity(order_by.len());
            for o in order_by {
                match projected_key(&o.expr, s, &vals) {
                    Some(v) => keys.push(v),
                    None => keys.push(self.eval(&o.expr, &scopes)?),
                }
            }
            out.push((vals, keys));
        }
        Ok((names, out))
    }

    #[allow(clippy::type_complexity)]
    fn project_grouped(
        &mut self,
        s: &Select,
        order_by: &[OrderItem],
        env: &[Scope],
        working: &Rows<'_>,
    ) -> Result<(Vec<String>, Vec<(Vec<Value>, Vec<Value>)>), ExecError> {
        // Group rows by the GROUP BY key vector, first-seen order.
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        for (ri, row) in working.rows.iter().enumerate() {
            let mut scopes = rescope(env);
            scopes.push(Scope {
                cols: &working.cols,
                row,
            });
            let mut key = Vec::with_capacity(s.group_by.len());
            for g in &s.group_by {
                key.push(self.eval(g, &scopes)?);
            }
            // Linear scan instead of a hash index: O(groups²) is fine for
            // witness-sized data and keeps this implementation independent
            // of Value's Hash impl.
            match groups
                .iter()
                .position(|(k, _)| k.len() == key.len() && k.iter().zip(&key).all(|(a, b)| a == b))
            {
                Some(gi) => groups[gi].1.push(ri),
                None => groups.push((key, vec![ri])),
            }
        }
        if groups.is_empty() && s.group_by.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }

        let names = output_names(s, &working.cols);
        let mut out = Vec::with_capacity(groups.len());
        for (_key, row_ids) in &groups {
            let rows: Vec<&Vec<Value>> = row_ids.iter().map(|&i| &working.rows[i]).collect();
            if let Some(h) = &s.having {
                if !self.eval_grouped(h, env, &working.cols, &rows)?.is_truthy() {
                    continue;
                }
            }
            let mut vals = Vec::with_capacity(s.items.len());
            for item in &s.items {
                match item {
                    SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                        return Err(ExecError::Unsupported(
                            "wildcard projection with GROUP BY".into(),
                        ))
                    }
                    SelectItem::Expr { expr, .. } => {
                        vals.push(self.eval_grouped(expr, env, &working.cols, &rows)?)
                    }
                }
            }
            let mut keys = Vec::with_capacity(order_by.len());
            for o in order_by {
                match projected_key(&o.expr, s, &vals) {
                    Some(v) => keys.push(v),
                    None => keys.push(self.eval_grouped(&o.expr, env, &working.cols, &rows)?),
                }
            }
            out.push((vals, keys));
        }
        Ok((names, out))
    }

    fn table_ref(&mut self, tr: &TableRef, env: &[Scope]) -> Result<Rows<'a>, ExecError> {
        match tr {
            TableRef::Named { name, alias } => {
                let binding = alias.as_ref().unwrap_or(name);
                if let Some(r) = self.lookup_cte(name) {
                    return Ok(Rows::bound(binding, &r.columns, Cow::Owned(r.rows.clone())));
                }
                let t = self
                    .db
                    .table(name)
                    .ok_or_else(|| ExecError::UnknownTable(name.clone()))?;
                Ok(Rows::bound(binding, &t.columns, Cow::Borrowed(&t.rows)))
            }
            TableRef::Derived { query, alias } => {
                let rel = self.query(query, env)?;
                let binding = alias.as_deref().unwrap_or_default();
                Ok(Rows::bound(binding, &rel.columns, Cow::Owned(rel.rows)))
            }
            TableRef::Join {
                left,
                right,
                kind,
                constraint,
            } => {
                let l = self.table_ref(left, env)?;
                let r = self.table_ref(right, env)?;
                self.nested_loop_join(l, r, *kind, constraint, env)
            }
        }
    }

    /// The only join algorithm the reference engine has.
    fn nested_loop_join(
        &mut self,
        l: Rows<'_>,
        r: Rows<'_>,
        kind: JoinKind,
        constraint: &JoinConstraint,
        env: &[Scope],
    ) -> Result<Rows<'a>, ExecError> {
        if l.rows.len().saturating_mul(r.rows.len()) > MAX_ROWS {
            return Err(ExecError::ResourceLimit);
        }
        let mut cols = l.cols.clone();
        cols.extend(r.cols.clone());

        // Resolve USING positions up front (errors even on empty inputs,
        // matching the optimized engine).
        let mut using_pairs = Vec::new();
        if let JoinConstraint::Using(names) = constraint {
            for n in names {
                let li = l
                    .cols
                    .iter()
                    .position(|c| c.name.eq_ignore_ascii_case(n))
                    .ok_or_else(|| ExecError::UnknownColumn(n.clone()))?;
                let ri = r
                    .cols
                    .iter()
                    .position(|c| c.name.eq_ignore_ascii_case(n))
                    .ok_or_else(|| ExecError::UnknownColumn(n.clone()))?;
                using_pairs.push((li, ri));
            }
        }

        // The ON test sees the pair through two frames, right then left, so
        // `resolve` meets the columns in the joined row's order.
        let mut scopes = rescope(env);
        let right = scopes.len();
        scopes.push(Scope {
            cols: &r.cols,
            row: &[],
        });
        scopes.push(Scope {
            cols: &l.cols,
            row: &[],
        });
        let mut rows = Vec::new();
        let mut right_matched = vec![false; r.rows.len()];
        for lrow in l.rows.iter() {
            scopes[right + 1].row = lrow;
            let mut matched = false;
            for (ri, rrow) in r.rows.iter().enumerate() {
                let hit = match constraint {
                    JoinConstraint::None => true,
                    JoinConstraint::On(e) => {
                        scopes[right].row = rrow;
                        self.eval(e, &scopes)?.is_truthy()
                    }
                    JoinConstraint::Using(_) => using_pairs
                        .iter()
                        .all(|&(li, rj)| lrow[li].sql_eq(&rrow[rj]) == Some(true)),
                };
                if hit {
                    matched = true;
                    right_matched[ri] = true;
                    let mut row = lrow.clone();
                    row.extend(rrow.iter().cloned());
                    rows.push(row);
                }
            }
            if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                let mut row = lrow.clone();
                row.extend(std::iter::repeat(Value::Null).take(r.cols.len()));
                rows.push(row);
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (ri, rrow) in r.rows.iter().enumerate() {
                if !right_matched[ri] {
                    let mut row: Vec<Value> =
                        std::iter::repeat(Value::Null).take(l.cols.len()).collect();
                    row.extend(rrow.iter().cloned());
                    rows.push(row);
                }
            }
        }
        Ok(Rows {
            cols,
            rows: Cow::Owned(rows),
        })
    }

    // ----- expressions -----

    fn eval(&mut self, e: &Expr, scopes: &[Scope]) -> Result<Value, ExecError> {
        match e {
            Expr::Column(c) => resolve(c, scopes),
            Expr::Literal(l) => Ok(match l {
                Literal::Number(v) => Value::Num(*v),
                Literal::String(s) => Value::Str(s.clone()),
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Null => Value::Null,
            }),
            Expr::Compare { op, left, right } => {
                let l = self.eval(left, scopes)?;
                let r = self.eval(right, scopes)?;
                Ok(bool3(compare3(*op, &l, &r)))
            }
            Expr::And(a, b) => {
                let ta = truth(&self.eval(a, scopes)?);
                if ta == Some(false) {
                    return Ok(Value::Bool(false));
                }
                let tb = truth(&self.eval(b, scopes)?);
                Ok(bool3(match (ta, tb) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }))
            }
            Expr::Or(a, b) => {
                let ta = truth(&self.eval(a, scopes)?);
                if ta == Some(true) {
                    return Ok(Value::Bool(true));
                }
                let tb = truth(&self.eval(b, scopes)?);
                Ok(bool3(match (ta, tb) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }))
            }
            Expr::Not(inner) => Ok(bool3(truth(&self.eval(inner, scopes)?).map(|b| !b))),
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, scopes)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // Desugared as the standard conjunction low <= v AND v <= high.
                let v = self.eval(expr, scopes)?;
                let lo = self.eval(low, scopes)?;
                let hi = self.eval(high, scopes)?;
                let ge = compare3(CompareOp::GtEq, &v, &lo);
                let le = compare3(CompareOp::LtEq, &v, &hi);
                let inside = match (ge, le) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                Ok(bool3(if *negated { inside.map(|b| !b) } else { inside }))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval(expr, scopes)?;
                let mut base: Option<bool> = Some(false);
                for item in list {
                    let iv = self.eval(item, scopes)?;
                    match v.sql_eq(&iv) {
                        Some(true) => {
                            base = Some(true);
                            break;
                        }
                        None => base = None,
                        Some(false) => {}
                    }
                }
                Ok(bool3(if *negated { base.map(|b| !b) } else { base }))
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let v = self.eval(expr, scopes)?;
                let rel = self.query(subquery, scopes)?;
                let mut base: Option<bool> = Some(false);
                for r in &rel.rows {
                    match r.first().map(|x| v.sql_eq(x)) {
                        Some(Some(true)) => {
                            base = Some(true);
                            break;
                        }
                        Some(None) | None => base = None,
                        Some(Some(false)) => {}
                    }
                }
                Ok(bool3(if *negated { base.map(|b| !b) } else { base }))
            }
            Expr::Exists { subquery, negated } => {
                let rel = self.query(subquery, scopes)?;
                Ok(Value::Bool(rel.rows.is_empty() == *negated))
            }
            Expr::ScalarSubquery(q) => {
                let rel = self.query(q, scopes)?;
                match rel.rows.len() {
                    0 => Ok(Value::Null),
                    1 => Ok(rel.rows[0].first().cloned().unwrap_or(Value::Null)),
                    _ => Err(ExecError::ScalarSubqueryMultiRow),
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval(expr, scopes)?;
                let p = self.eval(pattern, scopes)?;
                match (&v, &p) {
                    (Value::Str(s), Value::Str(pat)) => {
                        Ok(Value::Bool(like_match(s, pat) != *negated))
                    }
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    _ => Ok(Value::Bool(false)),
                }
            }
            Expr::Function { name, args, .. } => {
                if is_aggregate_name(name) {
                    return Err(ExecError::Unsupported(format!(
                        "aggregate {name} outside GROUP BY context"
                    )));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, scopes)?);
                }
                scalar_function(name, &vals)
            }
            Expr::Wildcard => Err(ExecError::Unsupported("bare * in expression".into())),
            Expr::Arith { op, left, right } => {
                let l = self.eval(left, scopes)?;
                let r = self.eval(right, scopes)?;
                Ok(arith3(*op, &l, &r))
            }
            Expr::Neg(inner) => Ok(match self.eval(inner, scopes)? {
                Value::Num(x) => Value::Num(-x),
                _ => Value::Null,
            }),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let op_val = match operand {
                    Some(op) => Some(self.eval(op, scopes)?),
                    None => None,
                };
                for (w, t) in branches {
                    let wv = self.eval(w, scopes)?;
                    let hit = match &op_val {
                        Some(ov) => ov.sql_eq(&wv) == Some(true),
                        None => wv.is_truthy(),
                    };
                    if hit {
                        return self.eval(t, scopes);
                    }
                }
                match else_expr {
                    Some(e) => self.eval(e, scopes),
                    None => Ok(Value::Null),
                }
            }
            Expr::Cast { expr, type_name } => {
                let v = self.eval(expr, scopes)?;
                Ok(cast_value(&v, type_name))
            }
        }
    }

    fn eval_grouped(
        &mut self,
        e: &Expr,
        env: &[Scope],
        cols: &[RCol],
        rows: &[&Vec<Value>],
    ) -> Result<Value, ExecError> {
        match e {
            Expr::Function {
                name,
                args,
                distinct,
            } if is_aggregate_name(name) => self.aggregate(name, args, *distinct, env, cols, rows),
            Expr::And(a, b) => {
                let ta = truth(&self.eval_grouped(a, env, cols, rows)?);
                if ta == Some(false) {
                    return Ok(Value::Bool(false));
                }
                let tb = truth(&self.eval_grouped(b, env, cols, rows)?);
                Ok(bool3(match (ta, tb) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }))
            }
            Expr::Or(a, b) => {
                let ta = truth(&self.eval_grouped(a, env, cols, rows)?);
                if ta == Some(true) {
                    return Ok(Value::Bool(true));
                }
                let tb = truth(&self.eval_grouped(b, env, cols, rows)?);
                Ok(bool3(match (ta, tb) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }))
            }
            Expr::Not(inner) => Ok(bool3(
                truth(&self.eval_grouped(inner, env, cols, rows)?).map(|b| !b),
            )),
            Expr::Compare { op, left, right } => {
                let l = self.eval_grouped(left, env, cols, rows)?;
                let r = self.eval_grouped(right, env, cols, rows)?;
                Ok(bool3(compare3(*op, &l, &r)))
            }
            Expr::Arith { op, left, right } => {
                let l = self.eval_grouped(left, env, cols, rows)?;
                let r = self.eval_grouped(right, env, cols, rows)?;
                Ok(arith3(*op, &l, &r))
            }
            other => match rows.first() {
                Some(first) => {
                    let mut scopes = rescope(env);
                    scopes.push(Scope { cols, row: first });
                    self.eval(other, &scopes)
                }
                None => Ok(Value::Null),
            },
        }
    }

    fn aggregate(
        &mut self,
        name: &str,
        args: &[Expr],
        distinct: bool,
        env: &[Scope],
        cols: &[RCol],
        rows: &[&Vec<Value>],
    ) -> Result<Value, ExecError> {
        let upper = name.to_ascii_uppercase();
        if upper == "COUNT" && matches!(args.first(), Some(Expr::Wildcard) | None) {
            return Ok(Value::Num(rows.len() as f64));
        }
        let arg = args
            .first()
            .ok_or_else(|| ExecError::Unsupported(format!("{name}()")))?;
        let mut vals = Vec::with_capacity(rows.len());
        for row in rows {
            let mut scopes = rescope(env);
            scopes.push(Scope { cols, row });
            let v = self.eval(arg, &scopes)?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        if distinct {
            // Quadratic dedup: independent of Value's Hash implementation.
            let mut uniq: Vec<Value> = Vec::new();
            for v in vals {
                if !uniq.contains(&v) {
                    uniq.push(v);
                }
            }
            vals = uniq;
        }
        Ok(match upper.as_str() {
            "COUNT" => Value::Num(vals.len() as f64),
            "SUM" => {
                if vals.is_empty() {
                    Value::Null
                } else {
                    Value::Num(vals.iter().filter_map(|v| v.as_num()).sum())
                }
            }
            "AVG" => {
                let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_num()).collect();
                if nums.is_empty() {
                    Value::Null
                } else {
                    Value::Num(nums.iter().sum::<f64>() / nums.len() as f64)
                }
            }
            "MIN" => vals
                .iter()
                .min_by(|a, b| a.total_cmp(b))
                .cloned()
                .unwrap_or(Value::Null),
            "MAX" => vals
                .iter()
                .max_by(|a, b| a.total_cmp(b))
                .cloned()
                .unwrap_or(Value::Null),
            "STDEV" | "STDDEV" | "VAR" | "VARIANCE" => {
                let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_num()).collect();
                if nums.len() < 2 {
                    Value::Null
                } else {
                    let mean = nums.iter().sum::<f64>() / nums.len() as f64;
                    let var = nums.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
                        / (nums.len() - 1) as f64;
                    if upper.starts_with("VAR") {
                        Value::Num(var)
                    } else {
                        Value::Num(var.sqrt())
                    }
                }
            }
            _ => return Err(ExecError::Unsupported(format!("aggregate {name}"))),
        })
    }
}

// ----- free helpers -----

fn rescope<'a>(env: &'a [Scope]) -> Vec<Scope<'a>> {
    env.iter()
        .map(|f| Scope {
            cols: f.cols,
            row: f.row,
        })
        .collect()
}

fn resolve(c: &ColumnRef, scopes: &[Scope]) -> Result<Value, ExecError> {
    for scope in scopes.iter().rev() {
        for (rc, v) in scope.cols.iter().zip(scope.row.iter()) {
            if binds(rc, c) {
                return Ok(v.clone());
            }
        }
    }
    Err(ExecError::UnknownColumn(format!("{c}")))
}

/// Whether `c` names column `rc`: the same name, and the same binding
/// when `c` is qualified.
fn binds(rc: &RCol, c: &ColumnRef) -> bool {
    rc.name.eq_ignore_ascii_case(&c.name)
        && match &c.qualifier {
            Some(q) => rc
                .binding
                .as_deref()
                .is_some_and(|b| b.eq_ignore_ascii_case(q)),
            None => true,
        }
}

/// The top-level `AND` operands of `e`, left to right.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        _ => vec![e],
    }
}

/// The walk depth at which `e` can first be tested: one past the last
/// FROM item its columns bind to, where a column binds to the first item
/// `resolve` would find it in, and a column only an outer frame has binds
/// before the walk starts. `None` when `e` could raise an error: it holds
/// a column that binds nowhere, or a node other than a column, literal,
/// comparison, `AND`, `OR`, `NOT`, `IS NULL`, `BETWEEN`, `IN` list or
/// `LIKE`.
fn depth(e: &Expr, items: &[Rows<'_>], env: &[Scope]) -> Option<usize> {
    let d = |e: &Expr| depth(e, items, env);
    match e {
        Expr::Column(c) => match items
            .iter()
            .position(|it| it.cols.iter().any(|rc| binds(rc, c)))
        {
            Some(i) => Some(i + 1),
            None => resolve(c, env).is_ok().then_some(0),
        },
        Expr::Literal(_) => Some(0),
        Expr::Compare {
            left: a, right: b, ..
        }
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Like {
            expr: a,
            pattern: b,
            ..
        } => Some(d(a)?.max(d(b)?)),
        Expr::Not(a) | Expr::IsNull { expr: a, .. } => d(a),
        Expr::Between {
            expr, low, high, ..
        } => Some(d(expr)?.max(d(low)?).max(d(high)?)),
        Expr::InList { expr, list, .. } => {
            list.iter().try_fold(d(expr)?, |m, x| Some(m.max(d(x)?)))
        }
        _ => None,
    }
}

fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        _ => Some(false),
    }
}

fn bool3(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn compare3(op: CompareOp, l: &Value, r: &Value) -> Option<bool> {
    match op {
        CompareOp::Eq => l.sql_eq(r),
        CompareOp::NotEq => l.sql_eq(r).map(|b| !b),
        CompareOp::Lt => l.sql_cmp(r).map(|o| o == Ordering::Less),
        CompareOp::LtEq => l.sql_cmp(r).map(|o| o != Ordering::Greater),
        CompareOp::Gt => l.sql_cmp(r).map(|o| o == Ordering::Greater),
        CompareOp::GtEq => l.sql_cmp(r).map(|o| o != Ordering::Less),
    }
}

fn arith3(op: char, l: &Value, r: &Value) -> Value {
    match (l.as_num(), r.as_num()) {
        (Some(a), Some(b)) => match op {
            '+' => Value::Num(a + b),
            '-' => Value::Num(a - b),
            '*' => Value::Num(a * b),
            '/' if b != 0.0 => Value::Num(a / b),
            '%' if b != 0.0 => Value::Num(a % b),
            _ => Value::Null,
        },
        _ => Value::Null,
    }
}

fn output_names(s: &Select, cols: &[RCol]) -> Vec<String> {
    let mut out = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Wildcard => out.extend(cols.iter().map(|c| c.name.clone())),
            SelectItem::QualifiedWildcard(q) => out.extend(
                cols.iter()
                    .filter(|c| {
                        c.binding
                            .as_deref()
                            .is_some_and(|b| b.eq_ignore_ascii_case(q))
                    })
                    .map(|c| c.name.clone()),
            ),
            SelectItem::Expr { expr, alias } => {
                out.push(alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column(c) => c.name.clone(),
                    Expr::Function { name, .. } => name.clone(),
                    _ => "expr".to_string(),
                }))
            }
        }
    }
    out
}

/// ORDER BY key that names a projection alias or repeats a projected
/// expression: reuse the already-computed output value.
fn projected_key(expr: &Expr, s: &Select, out_vals: &[Value]) -> Option<Value> {
    if let Expr::Column(c) = expr {
        if c.qualifier.is_none() {
            for (i, item) in s.items.iter().enumerate() {
                if let SelectItem::Expr { alias: Some(a), .. } = item {
                    if a.eq_ignore_ascii_case(&c.name) {
                        return out_vals.get(i).cloned();
                    }
                }
            }
        }
    }
    for (i, item) in s.items.iter().enumerate() {
        if let SelectItem::Expr { expr: pe, .. } = item {
            if exprs_match(pe, expr) {
                return out_vals.get(i).cloned();
            }
        }
    }
    None
}

/// Structural equality with case-insensitive function names.
fn exprs_match(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (
            Expr::Function {
                name: n1,
                args: a1,
                distinct: d1,
            },
            Expr::Function {
                name: n2,
                args: a2,
                distinct: d2,
            },
        ) => {
            n1.eq_ignore_ascii_case(n2)
                && d1 == d2
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| exprs_match(x, y))
        }
        _ => a == b,
    }
}

fn set_operation(op: &SetOp, all: bool, l: Relation, r: Relation) -> Relation {
    let cols = l.columns.clone();
    // Membership and dedup via linear scans over the canonical total order —
    // deliberately not sharing the optimized engine's HashSet machinery.
    let contains = |rows: &[Vec<Value>], row: &[Value]| {
        rows.iter()
            .any(|r| r.len() == row.len() && r.iter().zip(row).all(|(a, b)| a == b))
    };
    match op {
        SetOp::Union => {
            let mut rows = l.rows;
            rows.extend(r.rows);
            if !all {
                let mut uniq: Vec<Vec<Value>> = Vec::new();
                for row in rows {
                    if !contains(&uniq, &row) {
                        uniq.push(row);
                    }
                }
                rows = uniq;
            }
            Relation::new(cols, rows)
        }
        SetOp::Intersect => {
            let mut uniq: Vec<Vec<Value>> = Vec::new();
            let mut rows = Vec::new();
            for row in l.rows {
                if contains(&r.rows, &row) && (all || !contains(&uniq, &row)) {
                    if !all {
                        uniq.push(row.clone());
                    }
                    rows.push(row);
                }
            }
            Relation::new(cols, rows)
        }
        SetOp::Except => {
            let mut uniq: Vec<Vec<Value>> = Vec::new();
            let mut rows = Vec::new();
            for row in l.rows {
                if !contains(&r.rows, &row) && (all || !contains(&uniq, &row)) {
                    if !all {
                        uniq.push(row.clone());
                    }
                    rows.push(row);
                }
            }
            Relation::new(cols, rows)
        }
    }
}

fn sort_set_result(rel: &mut Relation, order_by: &[OrderItem]) -> Result<(), ExecError> {
    let mut keys = Vec::new();
    for item in order_by {
        match &item.expr {
            Expr::Column(c) if c.qualifier.is_none() => {
                let idx = rel
                    .column_index(&c.name)
                    .ok_or_else(|| ExecError::UnknownColumn(c.name.clone()))?;
                keys.push((idx, item.desc));
            }
            other => {
                return Err(ExecError::Unsupported(format!(
                    "set-operation ORDER BY on expression {}",
                    squ_parser::print_expr(other)
                )))
            }
        }
    }
    rel.rows.sort_by(|a, b| {
        for (idx, desc) in &keys {
            let ord = a[*idx].total_cmp(&b[*idx]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_query, witness_database};
    use squ_parser::parse_query;
    use squ_schema::schemas::sdss;

    fn both(sql: &str) -> (Relation, Relation) {
        let db = witness_database(&sdss(), 11, 6, 12);
        let q = parse_query(sql).unwrap();
        let (fast, _) = execute_query(&q, &db).unwrap();
        let slow = reference_query(&q, &db).unwrap();
        (fast, slow)
    }

    #[test]
    fn agrees_on_filters_and_projection() {
        let (fast, slow) = both("SELECT plate, z FROM SpecObj WHERE z > 200 AND plate < 900");
        assert!(fast.result_equal(&slow));
    }

    #[test]
    fn agrees_on_joins() {
        let (fast, slow) = both(
            "SELECT s.plate, p.objID FROM SpecObj AS s JOIN PhotoObj AS p \
             ON s.bestObjID = p.objID WHERE p.type > 2",
        );
        assert!(fast.result_equal(&slow));
    }

    #[test]
    fn agrees_on_left_join_null_padding() {
        let (fast, slow) = both(
            "SELECT s.plate, p.objID FROM SpecObj AS s LEFT JOIN PhotoObj AS p \
             ON s.bestObjID = p.objID",
        );
        assert!(fast.result_equal(&slow));
    }

    #[test]
    fn agrees_on_grouping_and_having() {
        let (fast, slow) = both(
            "SELECT type, COUNT(*) AS n, AVG(ra) FROM PhotoObj \
             GROUP BY type HAVING COUNT(*) >= 1 ORDER BY n DESC",
        );
        assert!(fast.result_equal(&slow));
    }

    #[test]
    fn agrees_on_set_operations() {
        let (fast, slow) = both(
            "SELECT plate FROM SpecObj WHERE z > 500 \
             UNION SELECT plate FROM SpecObj WHERE z <= 500 ORDER BY plate",
        );
        assert!(fast.result_equal(&slow));
    }

    #[test]
    fn agrees_on_subqueries() {
        let (fast, slow) = both(
            "SELECT plate FROM SpecObj WHERE bestObjID IN \
             (SELECT objID FROM PhotoObj WHERE type > 1)",
        );
        assert!(fast.result_equal(&slow));
    }

    #[test]
    fn agrees_on_order_by_limit() {
        let (fast, slow) = both("SELECT plate, z FROM SpecObj ORDER BY z DESC, plate ASC LIMIT 4");
        // LIMIT after ORDER BY: row-for-row, not just multiset.
        assert_eq!(fast.rows, slow.rows);
    }

    #[test]
    fn agrees_on_distinct_and_expressions() {
        let (fast, slow) = both(
            "SELECT DISTINCT type, CASE WHEN ra > 500 THEN 'hi' ELSE 'lo' END AS band \
             FROM PhotoObj WHERE dec IS NOT NULL",
        );
        assert!(fast.result_equal(&slow));
    }

    #[test]
    fn agrees_on_implicit_joins() {
        let (fast, slow) = both(
            "SELECT s.plate FROM SpecObj AS s, PhotoObj AS p \
             WHERE s.bestObjID = p.objID AND p.type > 1",
        );
        assert!(fast.result_equal(&slow));
    }

    fn n(v: f64) -> Value {
        Value::num(v)
    }

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    fn column(name: &str, len: usize) -> Relation {
        Relation::new(
            vec![name.into()],
            (0..len).map(|i| vec![n(i as f64)]).collect(),
        )
    }

    fn run(sql: &str, db: &Database) -> Result<Relation, ExecError> {
        reference_query(&parse_query(sql).unwrap(), db)
    }

    /// `wide` × `below`/`exact`/`above` is one row under, exactly at and
    /// one `wide` row over the cap.
    const WIDE: usize = 300;

    fn cap_db() -> Database {
        assert_eq!(MAX_ROWS % WIDE, 0);
        let tall = MAX_ROWS / WIDE;
        let mut db = Database::new("cap");
        db.insert_table("wide", column("w", WIDE));
        db.insert_table("below", column("t", tall - 1));
        db.insert_table("exact", column("t", tall));
        db.insert_table("above", column("t", tall + 1));
        db
    }

    #[test]
    fn row_cap_edges_on_comma_product_and_join() {
        let db = cap_db();
        for (from, rows) in [
            ("wide, below", MAX_ROWS - WIDE),
            ("wide, exact", MAX_ROWS),
            ("wide JOIN below ON 1 = 1", MAX_ROWS - WIDE),
            ("wide JOIN exact ON 1 = 1", MAX_ROWS),
        ] {
            let rel = run(&format!("SELECT COUNT(*) FROM {from}"), &db).unwrap();
            assert_eq!(rel.rows, vec![vec![n(rows as f64)]], "{from}");
        }
        for from in [
            "wide, above",
            "wide JOIN above ON 1 = 1",
            // the cap is on the product's size, not on what WHERE keeps
            "wide, above WHERE 1 = 0",
        ] {
            let err = run(&format!("SELECT COUNT(*) FROM {from}"), &db).unwrap_err();
            assert_eq!(err, ExecError::ResourceLimit, "{from}");
        }
    }

    #[test]
    fn row_cap_and_unknown_table_fail_in_from_order() {
        let db = cap_db();
        assert_eq!(
            run("SELECT w FROM above AS a1, above AS a2, missing", &db).unwrap_err(),
            ExecError::ResourceLimit
        );
        assert_eq!(
            run("SELECT w FROM missing, above AS a1, above AS a2", &db).unwrap_err(),
            ExecError::UnknownTable("missing".into())
        );
    }

    fn named_db() -> Database {
        let mut db = Database::new("named");
        db.insert_table("a", column("x", 2));
        db.insert_table("b", column("y", 3));
        db.insert_table("c", column("z", 2));
        db.insert_table(
            "p",
            Relation::new(
                vec!["id".into(), "v".into()],
                vec![vec![n(1.0), s("p1")], vec![n(2.0), s("p2")]],
            ),
        );
        db.insert_table(
            "q",
            Relation::new(
                vec!["id".into(), "w".into()],
                vec![vec![n(2.0), s("q2")], vec![n(1.0), s("q1")]],
            ),
        );
        db
    }

    #[test]
    fn limit_without_order_by_keeps_product_order() {
        let rel = run(
            "SELECT x, y, z FROM a, b, c WHERE y <> 1 LIMIT 5",
            &named_db(),
        )
        .unwrap();
        let row = |x: f64, y: f64, z: f64| vec![n(x), n(y), n(z)];
        assert_eq!(
            rel.rows,
            vec![
                row(0.0, 0.0, 0.0),
                row(0.0, 0.0, 1.0),
                row(0.0, 2.0, 0.0),
                row(0.0, 2.0, 1.0),
                row(1.0, 0.0, 0.0),
            ]
        );
    }

    #[test]
    fn unqualified_shared_name_resolves_to_first_from_item() {
        let db = named_db();
        let rows = |sql: &str| run(sql, &db).unwrap().rows;
        assert_eq!(
            rows("SELECT v, w FROM p, q WHERE id = 1"),
            vec![vec![s("p1"), s("q2")], vec![s("p1"), s("q1")]]
        );
        assert_eq!(
            rows("SELECT v, w FROM q, p WHERE id = 1"),
            vec![vec![s("p1"), s("q1")], vec![s("p2"), s("q1")]]
        );
        assert_eq!(
            rows("SELECT v, w FROM p JOIN q ON id = 2"),
            vec![vec![s("p2"), s("q2")], vec![s("p2"), s("q1")]]
        );
        assert_eq!(
            rows("SELECT id FROM q, p WHERE v = 'p1'"),
            vec![vec![n(2.0)], vec![n(1.0)]]
        );
    }

    #[test]
    fn cte_names_differing_only_in_case_resolve_to_the_latest() {
        let db = named_db();
        for _ in 0..64 {
            let rel = run(
                "WITH a AS (SELECT 1 AS x), A AS (SELECT 2 AS x) SELECT x FROM a",
                &db,
            )
            .unwrap();
            assert_eq!(rel.rows, vec![vec![n(2.0)]]);
        }
    }

    #[test]
    fn correlated_subquery_resolves_shared_name_innermost_first() {
        let db = named_db();
        let rows = |sql: &str| run(sql, &db).unwrap().rows;
        // `id` names q.id inside the subquery; p.id only when qualified
        assert_eq!(
            rows("SELECT v FROM p, a WHERE x = 0 AND EXISTS (SELECT 1 FROM q WHERE id = p.id + 1)"),
            vec![vec![s("p1")]]
        );
        // a name only the outer scope has still reaches it
        assert_eq!(
            rows("SELECT v FROM p WHERE EXISTS (SELECT 1 FROM q WHERE w = 'q1' AND v = 'p2')"),
            vec![vec![s("p2")]]
        );
    }

    #[test]
    fn placement_never_hides_an_error() {
        // `x = NULL` is never TRUE, so pruning on it would skip the
        // conjunct that raises; a WHERE that can raise is never placed
        let db = named_db();
        assert_eq!(
            run(
                "SELECT x FROM a, b WHERE x = NULL AND y = (SELECT y FROM b)",
                &db
            )
            .unwrap_err(),
            ExecError::ScalarSubqueryMultiRow
        );
        assert_eq!(
            run("SELECT x FROM a, b WHERE x = NULL AND nope = 1", &db).unwrap_err(),
            ExecError::UnknownColumn("nope".into())
        );
    }

    #[test]
    fn placed_and_whole_where_agree() {
        let mut db = named_db();
        db.insert_table(
            "m",
            Relation::new(
                vec!["id".into(), "t".into()],
                vec![
                    vec![n(1.0), s("a%b")],
                    vec![Value::Null, Value::Null],
                    vec![n(2.0), s("xyz")],
                ],
            ),
        );
        // `{}` closes the WHERE under test: empty, every case is placed;
        // with a function call appended, none is
        for sql in [
            // a conjunct on item 0 only
            "SELECT * FROM p, b, q WHERE v = 'p2'{}",
            // a conjunct spanning items 0 and 2, and one on item 1
            "SELECT * FROM a, b, c WHERE x = z AND y <> 1{}",
            // an OR across items
            "SELECT * FROM a, b, c WHERE (x = 1 OR z = 0){}",
            "SELECT * FROM m, a, b WHERE t IS NOT NULL AND y BETWEEN x AND 2{}",
            "SELECT * FROM a, m, b WHERE m.id IN (0, 2, y) AND NOT t LIKE 'a%'{}",
            // comparisons that yield NULL on m's second row
            "SELECT * FROM m, a, b WHERE NOT (m.id = y) AND t <> 'q'{}",
            "SELECT * FROM a, m, c WHERE (m.id IS NULL OR m.id > z){}",
            // `id` binds to q, the first item that has it
            "SELECT * FROM q, a, p WHERE id = 1 AND p.id = 2 AND x = 0{}",
            // `p.id` binds in the outer frame only
            "SELECT v FROM p WHERE EXISTS \
             (SELECT 1 FROM a, b, c WHERE x = p.id AND y > z{})",
        ] {
            let placed = run(&sql.replace("{}", ""), &db).unwrap();
            let whole = run(&sql.replace("{}", " AND ABS(0) = 0"), &db).unwrap();
            assert_eq!(placed.columns, whole.columns, "{sql}");
            assert_eq!(placed.rows, whole.rows, "{sql}");
            assert!(!placed.rows.is_empty(), "{sql}");
        }
    }
}
