//! Query-equivalence datasets (paper §3.1 `query_equiv`,
//! `query_equiv_type`).
//!
//! Ten equivalence-preserving and eight equivalence-breaking
//! transformations. Every produced pair is **differentially verified** on a
//! batch of witness databases: equivalent pairs must agree on *all*
//! witnesses, non-equivalent pairs must disagree on *at least one* — so the
//! labels are machine-checked, which is strictly stronger than the paper's
//! manual construction.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use squ_engine::{witness_batch_cached, Database, Prepared, Relation};
use squ_parser::ast::*;
use squ_parser::{parse_query, print_query, CompareOp};
use squ_workload::{schema_for, Dataset, WorkloadQuery};
use std::cell::OnceCell;

/// The ten equivalence-preserving transformation types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EquivType {
    /// Re-arranging WHERE conjuncts (`reorder-conditions`).
    ReorderConditions,
    /// Rewriting via a common table expression (`cte`).
    Cte,
    /// Join ⇔ `IN` subquery (`join-nested`).
    JoinNested,
    /// `IN` subquery ⇔ correlated `EXISTS` (`swap-subqueries`).
    SwapSubqueries,
    /// `BETWEEN` ⇔ closed range conjunction (`between-range`).
    BetweenRange,
    /// `IN` list ⇔ `OR` chain (`in-to-or`).
    InToOr,
    /// `p AND q` ⇔ `NOT (NOT p OR NOT q)` (`demorgan`).
    DeMorgan,
    /// `a > b` ⇔ `b < a` (`comparison-flip`).
    ComparisonFlip,
    /// Consistent alias renaming (`alias-rename`).
    AliasRename,
    /// Wrapping in a derived table (`derived-table`).
    DerivedTable,
}

impl EquivType {
    /// All ten types.
    pub const ALL: [EquivType; 10] = [
        EquivType::ReorderConditions,
        EquivType::Cte,
        EquivType::JoinNested,
        EquivType::SwapSubqueries,
        EquivType::BetweenRange,
        EquivType::InToOr,
        EquivType::DeMorgan,
        EquivType::ComparisonFlip,
        EquivType::AliasRename,
        EquivType::DerivedTable,
    ];

    /// Benchmark label.
    pub fn label(&self) -> &'static str {
        match self {
            EquivType::ReorderConditions => "reorder-conditions",
            EquivType::Cte => "cte",
            EquivType::JoinNested => "join-nested",
            EquivType::SwapSubqueries => "swap-subqueries",
            EquivType::BetweenRange => "between-range",
            EquivType::InToOr => "in-to-or",
            EquivType::DeMorgan => "demorgan",
            EquivType::ComparisonFlip => "comparison-flip",
            EquivType::AliasRename => "alias-rename",
            EquivType::DerivedTable => "derived-table",
        }
    }
}

impl std::fmt::Display for EquivType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The eight equivalence-breaking transformation types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NonEquivType {
    /// Swapping the aggregate function, e.g. AVG → SUM (`agg-function`).
    AggFunction,
    /// Changing the join type, e.g. INNER → LEFT (`change-join-condition`).
    ChangeJoinCondition,
    /// AND ⇔ OR (`logical-conditions`).
    LogicalConditions,
    /// Changing a comparison literal (`value-change`).
    ValueChange,
    /// Reversing a comparison direction (`comparison-direction`).
    ComparisonDirection,
    /// Adding/removing DISTINCT (`distinct-change`).
    DistinctChange,
    /// Projecting a different column (`projection-change`).
    ProjectionChange,
    /// Dropping a WHERE conjunct (`where-drop`).
    WhereDrop,
}

impl NonEquivType {
    /// All eight types.
    pub const ALL: [NonEquivType; 8] = [
        NonEquivType::AggFunction,
        NonEquivType::ChangeJoinCondition,
        NonEquivType::LogicalConditions,
        NonEquivType::ValueChange,
        NonEquivType::ComparisonDirection,
        NonEquivType::DistinctChange,
        NonEquivType::ProjectionChange,
        NonEquivType::WhereDrop,
    ];

    /// Benchmark label.
    pub fn label(&self) -> &'static str {
        match self {
            NonEquivType::AggFunction => "agg-function",
            NonEquivType::ChangeJoinCondition => "change-join-condition",
            NonEquivType::LogicalConditions => "logical-conditions",
            NonEquivType::ValueChange => "value-change",
            NonEquivType::ComparisonDirection => "comparison-direction",
            NonEquivType::DistinctChange => "distinct-change",
            NonEquivType::ProjectionChange => "projection-change",
            NonEquivType::WhereDrop => "where-drop",
        }
    }
}

impl std::fmt::Display for NonEquivType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One labeled query pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EquivExample {
    /// Source workload query id.
    pub query_id: String,
    /// Schema name.
    pub schema_name: String,
    /// First query of the pair.
    pub sql1: String,
    /// Second query of the pair.
    pub sql2: String,
    /// Ground truth: are the queries equivalent?
    pub equivalent: bool,
    /// Transformation label (one of the 10 + 8 types).
    pub transform: String,
    /// Properties of the first query (used for failure slicing).
    pub props: squ_workload::QueryProps,
}

// ---------------- equivalence transforms ----------------

/// Apply an equivalence-preserving transform; `None` if inapplicable.
pub fn apply_equiv(q: &Query, ty: EquivType, rng: &mut StdRng) -> Option<(Query, Query)> {
    match ty {
        EquivType::ReorderConditions => reorder_conditions(q),
        EquivType::Cte => Some((q.clone(), wrap_cte(q)?)),
        EquivType::JoinNested => join_to_nested(q),
        EquivType::SwapSubqueries => in_to_exists(q),
        EquivType::BetweenRange => between_to_range(q),
        EquivType::InToOr => in_list_to_or(q),
        EquivType::DeMorgan => de_morgan(q),
        EquivType::ComparisonFlip => comparison_flip(q, rng),
        EquivType::AliasRename => alias_rename(q),
        EquivType::DerivedTable => Some((q.clone(), wrap_derived(q)?)),
    }
}

/// Number of base tables in a select's FROM (join trees flattened).
fn from_table_count(select: &Select) -> usize {
    fn count(tr: &TableRef) -> usize {
        match tr {
            TableRef::Named { .. } | TableRef::Derived { .. } => 1,
            TableRef::Join { left, right, .. } => count(left) + count(right),
        }
    }
    select.from.iter().map(count).sum()
}

fn top_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::And(a, b) => {
            let mut out = top_conjuncts(a);
            out.extend(top_conjuncts(b));
            out
        }
        other => vec![other.clone()],
    }
}

fn rebuild_and(parts: Vec<Expr>) -> Option<Expr> {
    let mut it = parts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, p| acc.and(p)))
}

fn reorder_conditions(q: &Query) -> Option<(Query, Query)> {
    let select = q.as_select()?;
    let w = select.selection.as_ref()?;
    let mut parts = top_conjuncts(w);
    if parts.len() < 2 {
        return None;
    }
    parts.reverse();
    let mut q2 = q.clone();
    q2.as_select_mut()?.selection = rebuild_and(parts);
    Some((q.clone(), q2))
}

/// Output column names usable from an outer query (plain names only).
fn plain_output_names(q: &Query) -> Vec<String> {
    let select = match &q.body {
        SetExpr::Select(s) => s,
        _ => return Vec::new(),
    };
    select
        .items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Expr { alias: Some(a), .. } => Some(a.clone()),
            SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => Some(c.name.clone()),
            _ => None,
        })
        .collect()
}

/// Split ORDER BY / LIMIT off a query so it can be nested; items that can't
/// be expressed against the wrapper are the caller's cue to bail out.
fn hoistable(q: &Query) -> Option<(Query, Vec<OrderItem>, Option<u64>)> {
    let names = plain_output_names(q);
    let mut inner = q.clone();
    let order_by = std::mem::take(&mut inner.order_by);
    let limit = inner.limit.take();
    // ORDER BY entries must be plain output column names to survive hoisting
    for o in &order_by {
        match &o.expr {
            Expr::Column(c)
                if c.qualifier.is_none()
                    && names.iter().any(|n| n.eq_ignore_ascii_case(&c.name)) => {}
            _ => return None,
        }
    }
    let order_by = order_by
        .into_iter()
        .map(|o| OrderItem {
            expr: match o.expr {
                Expr::Column(c) => Expr::column(None, &c.name),
                other => other,
            },
            desc: o.desc,
        })
        .collect();
    Some((inner, order_by, limit))
}

fn wrap_cte(q: &Query) -> Option<Query> {
    if !q.ctes.is_empty() {
        return None; // avoid nesting CTE prologues
    }
    let (inner, order_by, limit) = hoistable(q)?;
    Some(Query {
        ctes: vec![Cte {
            name: "w".into(),
            query: Box::new(inner),
        }],
        body: SetExpr::Select(Box::new(Select {
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef::named("w", None)],
            ..Select::new()
        })),
        order_by,
        limit,
        span: Span::default(),
    })
}

fn wrap_derived(q: &Query) -> Option<Query> {
    if !q.ctes.is_empty() {
        return None;
    }
    let (inner, order_by, limit) = hoistable(q)?;
    Some(Query {
        ctes: Vec::new(),
        body: SetExpr::Select(Box::new(Select {
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef::Derived {
                query: Box::new(inner),
                alias: Some("d".into()),
            }],
            ..Select::new()
        })),
        order_by,
        limit,
        span: Span::default(),
    })
}

/// `DISTINCT proj(left) FROM left JOIN right ON l = r WHERE …` ⇔
/// `DISTINCT proj(left) FROM left WHERE … AND l IN (SELECT r FROM right WHERE right-preds)`.
/// Requires: single 2-table inner join, single-equality ON, projection and
/// residual predicates touching only the left side.
fn join_to_nested(q: &Query) -> Option<(Query, Query)> {
    let select = q.as_select()?;
    if !select.group_by.is_empty() || select.having.is_some() || select.from.len() != 1 {
        return None;
    }
    let TableRef::Join {
        left,
        right,
        kind: JoinKind::Inner,
        constraint: JoinConstraint::On(on),
    } = &select.from[0]
    else {
        return None;
    };
    let (
        TableRef::Named {
            name: lname,
            alias: lalias,
        },
        TableRef::Named {
            name: rname,
            alias: ralias,
        },
    ) = (&**left, &**right)
    else {
        return None;
    };
    let lbind = lalias.clone().unwrap_or_else(|| lname.clone());
    let rbind = ralias.clone().unwrap_or_else(|| rname.clone());
    // ON must be a single equality between the two sides
    let Expr::Compare {
        op: CompareOp::Eq,
        left: on_l,
        right: on_r,
    } = on
    else {
        return None;
    };
    let (lcol, rcol) = match (&**on_l, &**on_r) {
        (Expr::Column(a), Expr::Column(b)) => {
            let qa = a.qualifier.as_deref()?;
            let qb = b.qualifier.as_deref()?;
            if qa.eq_ignore_ascii_case(&lbind) && qb.eq_ignore_ascii_case(&rbind) {
                (a.name.clone(), b.name.clone())
            } else if qa.eq_ignore_ascii_case(&rbind) && qb.eq_ignore_ascii_case(&lbind) {
                (b.name.clone(), a.name.clone())
            } else {
                return None;
            }
        }
        _ => return None,
    };
    // projection must touch only the left binding
    let touches_only = |e: &Expr, bind: &str| -> bool {
        let mut ok = true;
        fn chk(e: &Expr, bind: &str, ok: &mut bool) {
            if let Expr::Column(c) = e {
                match &c.qualifier {
                    Some(q) if q.eq_ignore_ascii_case(bind) => {}
                    _ => *ok = false,
                }
            }
            e.for_each_child(&mut |ch| chk(ch, bind, ok));
        }
        chk(e, bind, &mut ok);
        ok
    };
    for item in &select.items {
        match item {
            SelectItem::Expr { expr, .. } if touches_only(expr, &lbind) => {}
            _ => return None,
        }
    }
    // split WHERE conjuncts by side
    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    if let Some(w) = &select.selection {
        for c in top_conjuncts(w) {
            if touches_only(&c, &lbind) {
                left_preds.push(c);
            } else if touches_only(&c, &rbind) {
                right_preds.push(strip_qualifier(&c, &rbind));
            } else {
                return None; // mixed predicate: bail
            }
        }
    }
    // Q1: the join with DISTINCT forced (set semantics on both sides)
    let mut q1 = q.clone();
    q1.as_select_mut()?.distinct = true;
    // Q2: the IN-subquery form
    let inner = Select {
        items: vec![SelectItem::column(None, &rcol)],
        from: vec![TableRef::named(rname, None)],
        selection: rebuild_and(right_preds),
        ..Select::new()
    };
    let in_pred = Expr::InSubquery {
        expr: Box::new(Expr::column(Some(&lbind), &lcol)),
        subquery: Box::new(Query::from_select(inner)),
        negated: false,
    };
    left_preds.push(in_pred);
    let q2_sel = Select {
        distinct: true,
        items: select.items.clone(),
        from: vec![TableRef::named(lname, lalias.as_deref())],
        selection: rebuild_and(left_preds),
        ..Select::new()
    };
    let mut q2 = q.clone();
    q2.body = SetExpr::Select(Box::new(q2_sel));
    Some((q1, q2))
}

/// Remove the given qualifier from column refs (for predicates moved into
/// a subquery whose table is referenced without an alias).
fn strip_qualifier(e: &Expr, bind: &str) -> Expr {
    let mut out = e.clone();
    fn walk(e: &mut Expr, bind: &str) {
        if let Expr::Column(c) = e {
            if c.qualifier
                .as_deref()
                .is_some_and(|q| q.eq_ignore_ascii_case(bind))
            {
                c.qualifier = None;
            }
        }
        mutate_children(e, &mut |ch| walk(ch, bind));
    }
    walk(&mut out, bind);
    out
}

/// `a IN (SELECT x FROM T WHERE p)` ⇔ `EXISTS (SELECT 1 FROM T AS sq WHERE sq.x = a AND p)`.
fn in_to_exists(q: &Query) -> Option<(Query, Query)> {
    let mut q2 = q.clone();
    // Outer binding names — needed to qualify the correlated reference so
    // the inner table's same-named columns cannot capture it.
    let outer_bindings: Vec<String> = {
        let select = q.as_select()?;
        let mut out = Vec::new();
        fn collect(tr: &TableRef, out: &mut Vec<String>) {
            match tr {
                TableRef::Named { name, alias } => {
                    out.push(alias.clone().unwrap_or_else(|| name.clone()))
                }
                TableRef::Derived { alias, .. } => {
                    if let Some(a) = alias {
                        out.push(a.clone());
                    }
                }
                TableRef::Join { left, right, .. } => {
                    collect(left, out);
                    collect(right, out);
                }
            }
        }
        for tr in &select.from {
            collect(tr, &mut out);
        }
        out
    };
    let select = q2.as_select_mut()?;
    let w = select.selection.as_mut()?;
    let mut done = false;
    rewrite_expr(w, &mut |e| {
        if done {
            return;
        }
        if let Expr::InSubquery {
            expr,
            subquery,
            negated,
        } = e
        {
            // inner must be a simple single-table, single-column select
            let Some(inner) = subquery.as_select() else {
                return;
            };
            if inner.from.len() != 1 || !subquery.ctes.is_empty() {
                return;
            }
            let TableRef::Named { name, alias } = &inner.from[0] else {
                return;
            };
            let icol = match inner.items.first() {
                Some(SelectItem::Expr {
                    expr: Expr::Column(c),
                    ..
                }) => c.clone(),
                _ => return,
            };
            let ibind = alias.clone().unwrap_or_else(|| name.clone());
            // qualify the outer side so the inner table cannot capture it
            let outer_expr = match &**expr {
                Expr::Column(c) if c.qualifier.is_none() => {
                    if outer_bindings.len() != 1 {
                        return; // can't qualify unambiguously
                    }
                    Expr::Column(ColumnRef {
                        qualifier: Some(outer_bindings[0].clone()),
                        name: c.name.clone(),
                        span: Span::default(),
                    })
                }
                Expr::Column(c) => Expr::Column(c.clone()),
                _ => return, // non-column probe: leave this site alone
            };
            // a subquery over the same binding name would still capture
            if let Expr::Column(c) = &outer_expr {
                if c.qualifier
                    .as_deref()
                    .is_some_and(|q| q.eq_ignore_ascii_case(&ibind))
                {
                    return;
                }
            }
            let corr = Expr::Column(ColumnRef {
                qualifier: Some(ibind),
                name: icol.name,
                span: Span::default(),
            })
            .compare(CompareOp::Eq, outer_expr);
            let mut new_inner = inner.clone();
            new_inner.items = vec![SelectItem::Expr {
                expr: Expr::number(1.0),
                alias: None,
            }];
            new_inner.selection = Some(match new_inner.selection.take() {
                Some(p) => corr.and(p),
                None => corr,
            });
            *e = Expr::Exists {
                subquery: Box::new(Query::from_select(new_inner)),
                negated: *negated,
            };
            done = true;
        }
    });
    done.then(|| (q.clone(), q2))
}

fn between_to_range(q: &Query) -> Option<(Query, Query)> {
    let mut q2 = q.clone();
    let select = q2.as_select_mut()?;
    let w = select.selection.as_mut()?;
    let mut done = false;
    rewrite_expr(w, &mut |e| {
        if done {
            return;
        }
        if let Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } = e
        {
            let lo = (**expr).clone().compare(CompareOp::GtEq, (**low).clone());
            let hi = (**expr).clone().compare(CompareOp::LtEq, (**high).clone());
            *e = lo.and(hi);
            done = true;
        }
    });
    done.then(|| (q.clone(), q2))
}

fn in_list_to_or(q: &Query) -> Option<(Query, Query)> {
    let mut q2 = q.clone();
    let select = q2.as_select_mut()?;
    let w = select.selection.as_mut()?;
    let mut done = false;
    rewrite_expr(w, &mut |e| {
        if done {
            return;
        }
        if let Expr::InList {
            expr,
            list,
            negated: false,
        } = e
        {
            if list.is_empty() {
                return;
            }
            let mut ors = list
                .iter()
                .map(|v| (**expr).clone().compare(CompareOp::Eq, v.clone()));
            let first = ors.next().expect("non-empty checked"); // lint:allow: emptiness checked above
            *e = ors.fold(first, |acc, p| acc.or(p));
            done = true;
        }
    });
    done.then(|| (q.clone(), q2))
}

fn de_morgan(q: &Query) -> Option<(Query, Query)> {
    let select = q.as_select()?;
    // Rewriting the WHERE into a single NOT(…) destroys conjunct pushdown;
    // on wide implicit joins the rewritten query would exceed any executor
    // budget, so the transform is restricted to narrow queries.
    if from_table_count(select) > 4 {
        return None;
    }
    let w = select.selection.as_ref()?;
    if !matches!(w, Expr::And(_, _)) {
        return None;
    }
    let Expr::And(a, b) = w.clone() else {
        return None;
    };
    let rewritten = Expr::Not(Box::new(Expr::Or(
        Box::new(Expr::Not(a)),
        Box::new(Expr::Not(b)),
    )));
    let mut q2 = q.clone();
    q2.as_select_mut()?.selection = Some(rewritten);
    Some((q.clone(), q2))
}

fn comparison_flip(q: &Query, rng: &mut StdRng) -> Option<(Query, Query)> {
    let mut q2 = q.clone();
    let select = q2.as_select_mut()?;
    let w = select.selection.as_mut()?;
    // count flippable sites, then flip one at random
    let mut sites = 0usize;
    rewrite_expr(w, &mut |e| {
        if matches!(e, Expr::Compare { .. }) {
            sites += 1;
        }
    });
    if sites == 0 {
        return None;
    }
    let target = rng.gen_range(0..sites);
    let mut i = 0usize;
    rewrite_expr(w, &mut |e| {
        if let Expr::Compare { op, left, right } = e {
            if i == target {
                std::mem::swap(left, right);
                *op = op.flipped();
            }
            i += 1;
        }
    });
    Some((q.clone(), q2))
}

fn alias_rename(q: &Query) -> Option<(Query, Query)> {
    // collect alias names in the outer select
    let select = q.as_select()?;
    let mut aliases = Vec::new();
    fn collect(tr: &TableRef, out: &mut Vec<String>) {
        match tr {
            TableRef::Named { alias: Some(a), .. } => out.push(a.clone()),
            TableRef::Join { left, right, .. } => {
                collect(left, out);
                collect(right, out);
            }
            _ => {}
        }
    }
    for tr in &select.from {
        collect(tr, &mut aliases);
    }
    if aliases.is_empty() {
        return None;
    }
    let mapping: Vec<(String, String)> = aliases
        .iter()
        .enumerate()
        .map(|(i, a)| (a.clone(), format!("r{}", i + 1)))
        .collect();
    let mut q2 = q.clone();
    let select2 = q2.as_select_mut()?;
    fn rename_tr(tr: &mut TableRef, map: &[(String, String)]) {
        match tr {
            TableRef::Named { alias: Some(a), .. } => {
                if let Some((_, n)) = map.iter().find(|(o, _)| o.eq_ignore_ascii_case(a)) {
                    *a = n.clone();
                }
            }
            TableRef::Join {
                left,
                right,
                constraint,
                ..
            } => {
                rename_tr(left, map);
                rename_tr(right, map);
                if let JoinConstraint::On(e) = constraint {
                    rename_in_expr(e, map);
                }
            }
            _ => {}
        }
    }
    fn rename_in_expr(e: &mut Expr, map: &[(String, String)]) {
        if let Expr::Column(c) = e {
            if let Some(qual) = &c.qualifier {
                if let Some((_, n)) = map.iter().find(|(o, _)| o.eq_ignore_ascii_case(qual)) {
                    c.qualifier = Some(n.clone());
                }
            }
        }
        mutate_children(e, &mut |ch| rename_in_expr(ch, map));
    }
    for tr in &mut select2.from {
        rename_tr(tr, &mapping);
    }
    for item in &mut select2.items {
        if let SelectItem::Expr { expr, .. } = item {
            rename_in_expr(expr, &mapping);
        }
    }
    if let Some(w) = &mut select2.selection {
        rename_in_expr(w, &mapping);
    }
    for g in &mut select2.group_by {
        rename_in_expr(g, &mapping);
    }
    if let Some(h) = &mut select2.having {
        rename_in_expr(h, &mapping);
    }
    for o in &mut q2.order_by {
        rename_in_expr(&mut o.expr, &mapping);
    }
    Some((q.clone(), q2))
}

// ---------------- non-equivalence transforms ----------------

/// Apply an equivalence-*breaking* transform; `None` if inapplicable.
pub fn apply_non_equiv(q: &Query, ty: NonEquivType, rng: &mut StdRng) -> Option<(Query, Query)> {
    let mut q2 = q.clone();
    let ok = match ty {
        NonEquivType::AggFunction => change_agg_function(&mut q2),
        NonEquivType::ChangeJoinCondition => change_join_kind(&mut q2),
        NonEquivType::LogicalConditions => and_to_or(&mut q2),
        NonEquivType::ValueChange => change_value(&mut q2, rng),
        NonEquivType::ComparisonDirection => reverse_comparison(&mut q2),
        NonEquivType::DistinctChange => toggle_distinct(&mut q2),
        NonEquivType::ProjectionChange => change_projection(&mut q2),
        NonEquivType::WhereDrop => drop_conjunct(&mut q2),
    };
    ok.then_some((q.clone(), q2))
}

fn change_agg_function(q: &mut Query) -> bool {
    let Some(select) = q.as_select_mut() else {
        return false;
    };
    for item in &mut select.items {
        if let SelectItem::Expr { expr, .. } = item {
            let mut done = false;
            rewrite_expr(expr, &mut |e| {
                if done {
                    return;
                }
                if let Expr::Function { name, .. } = e {
                    let swap = match name.to_ascii_uppercase().as_str() {
                        "AVG" => Some("SUM"),
                        "SUM" => Some("AVG"),
                        "MIN" => Some("MAX"),
                        "MAX" => Some("MIN"),
                        _ => None,
                    };
                    if let Some(s) = swap {
                        *name = s.to_string();
                        done = true;
                    }
                }
            });
            if done {
                return true;
            }
        }
    }
    false
}

fn change_join_kind(q: &mut Query) -> bool {
    let Some(select) = q.as_select_mut() else {
        return false;
    };
    fn walk(tr: &mut TableRef) -> bool {
        if let TableRef::Join {
            kind, left, right, ..
        } = tr
        {
            if *kind == JoinKind::Inner {
                *kind = JoinKind::Left;
                return true;
            }
            return walk(left) || walk(right);
        }
        false
    }
    select.from.iter_mut().any(walk)
}

fn and_to_or(q: &mut Query) -> bool {
    let Some(select) = q.as_select_mut() else {
        return false;
    };
    // see de_morgan: an OR at the top defeats pushdown on wide joins
    if from_table_count(select) > 4 {
        return false;
    }
    match select.selection.as_mut() {
        Some(Expr::And(a, b)) => {
            let (a, b) = (a.clone(), b.clone());
            select.selection = Some(Expr::Or(a, b));
            true
        }
        _ => false,
    }
}

fn change_value(q: &mut Query, rng: &mut StdRng) -> bool {
    let Some(select) = q.as_select_mut() else {
        return false;
    };
    let Some(w) = select.selection.as_mut() else {
        return false;
    };
    // Count candidate literal sites first, then edit one drawn at random,
    // so each retry can explore a different comparison instead of always
    // re-shifting the first one.
    let mut sites = 0usize;
    rewrite_expr(w, &mut |e| {
        if let Expr::Compare { right, .. } = e {
            if matches!(&**right, Expr::Literal(Literal::Number(_))) {
                sites += 1;
            }
        }
    });
    if sites == 0 {
        return false;
    }
    let target = rng.gen_range(0..sites);
    let mut seen = 0usize;
    let mut done = false;
    rewrite_expr(w, &mut |e| {
        if let Expr::Compare { right, .. } = e {
            if let Expr::Literal(Literal::Number(v)) = &mut **right {
                if seen == target {
                    // shift far enough to move the cut-point across the
                    // witness value range (0..1000)
                    let delta = rng.gen_range(200.0..600.0_f64);
                    *v = if *v > 500.0 { *v - delta } else { *v + delta };
                    *v = (*v * 10.0).round() / 10.0;
                    done = true;
                }
                seen += 1;
            }
        }
    });
    done
}

fn reverse_comparison(q: &mut Query) -> bool {
    let Some(select) = q.as_select_mut() else {
        return false;
    };
    let Some(w) = select.selection.as_mut() else {
        return false;
    };
    let mut done = false;
    rewrite_expr(w, &mut |e| {
        if done {
            return;
        }
        if let Expr::Compare { op, right, .. } = e {
            // only reverse against literals (reversing join conditions
            // would often still be satisfiable the same way)
            if matches!(**right, Expr::Literal(Literal::Number(_)))
                && matches!(
                    op,
                    CompareOp::Lt | CompareOp::LtEq | CompareOp::Gt | CompareOp::GtEq
                )
            {
                *op = match *op {
                    CompareOp::Lt => CompareOp::Gt,
                    CompareOp::LtEq => CompareOp::GtEq,
                    CompareOp::Gt => CompareOp::Lt,
                    CompareOp::GtEq => CompareOp::LtEq,
                    other => other,
                };
                done = true;
            }
        }
    });
    done
}

fn toggle_distinct(q: &mut Query) -> bool {
    let Some(select) = q.as_select_mut() else {
        return false;
    };
    if select.group_by.is_empty()
        && !select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
    {
        select.distinct = !select.distinct;
        true
    } else {
        false
    }
}

fn change_projection(q: &mut Query) -> bool {
    let Some(select) = q.as_select_mut() else {
        return false;
    };
    // swap the first two projected columns' *names* → different output
    let cols: Vec<usize> = select
        .items
        .iter()
        .enumerate()
        .filter_map(|(i, item)| match item {
            SelectItem::Expr {
                expr: Expr::Column(_),
                ..
            } => Some(i),
            _ => None,
        })
        .collect();
    if cols.len() < 2 {
        return false;
    }
    // drop the second projected column: output schema visibly changes
    select.items.remove(cols[1]);
    true
}

fn drop_conjunct(q: &mut Query) -> bool {
    let Some(select) = q.as_select_mut() else {
        return false;
    };
    match select.selection.take() {
        Some(Expr::And(a, _)) => {
            select.selection = Some(*a);
            true
        }
        other => {
            select.selection = other;
            false
        }
    }
}

// ---------------- expression rewriting plumbing ----------------

/// Visit every expression node mutably (pre-order), without descending
/// into subqueries.
fn rewrite_expr(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    f(e);
    mutate_children(e, &mut |ch| rewrite_expr(ch, f));
}

fn mutate_children(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    match e {
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
            for x in list {
                f(x);
            }
        }
        Expr::InSubquery { expr, .. } => f(expr),
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
            if let Some(x) = else_expr {
                f(x);
            }
        }
        _ => {}
    }
}

// ---------------- differential verification ----------------

/// Verdict of differential execution on a witness batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Results agreed on every witness.
    AgreedEverywhere,
    /// Results differed on at least one witness.
    Differed,
    /// Execution failed (unsupported feature, etc.).
    Failed,
}

/// Execute both queries on every witness and compare results. Each query
/// is held as one [`Prepared`] across the batch, so its WHEREs are proved
/// empty or not once rather than once per witness. When the two ASTs are
/// equal, the engine being deterministic, the second query's run would
/// repeat the first's exactly, so each result is compared with itself
/// instead (a result holding a NaN still differs).
pub fn differential_verdict(q1: &Query, q2: &Query, witnesses: &[Database]) -> Verdict {
    let results = witness_results(q1, witnesses);
    if q1 != q2 {
        return verdict_against(results.as_deref(), q2, witnesses);
    }
    match results {
        None => Verdict::Failed,
        Some(rs) if rs.iter().all(|r| r.result_equal(r)) => Verdict::AgreedEverywhere,
        Some(_) => Verdict::Differed,
    }
}

/// A query's result on every witness, or `None` if a run fails.
fn witness_results(q: &Query, witnesses: &[Database]) -> Option<Vec<Relation>> {
    let mut p = Prepared::new(q);
    witnesses
        .iter()
        .map(|db| p.execute(db).ok().map(|(r, _)| r))
        .collect()
}

/// The verdict of `q2` against a first query's `results` on the same
/// witnesses (`None`: a run of the first query failed). A verdict is
/// `Failed` if any run fails, else `Differed` if any witness differs, so
/// it does not depend on the order the runs go in.
fn verdict_against(results: Option<&[Relation]>, q2: &Query, witnesses: &[Database]) -> Verdict {
    let Some(results) = results else {
        return Verdict::Failed;
    };
    let mut p2 = Prepared::new(q2);
    let mut any = false;
    for (r1, db) in results.iter().zip(witnesses) {
        match p2.execute(db) {
            Ok((r2, _)) => any |= !r1.result_equal(&r2),
            Err(_) => return Verdict::Failed,
        }
    }
    if any {
        Verdict::Differed
    } else {
        Verdict::AgreedEverywhere
    }
}

/// Build the query-equivalence dataset: one pair per SELECT workload query,
/// alternating equivalent / non-equivalent, every label differentially
/// verified on a witness batch of the query's schema.
pub fn build_equiv_dataset(ds: &Dataset, seed: u64) -> Vec<EquivExample> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE001);
    let mut out = Vec::new();
    let mut want_equiv = true;
    // Per-subtype success counts for the non-equivalent class. Transform
    // order inside `make_pair` prefers the least-represented subtype, so
    // hard-to-land edits (value changes only differ where a witness row
    // actually matches the predicate) are not crowded out by easy ones.
    let mut non_equiv_counts = [0usize; NonEquivType::ALL.len()];
    for wq in &ds.queries {
        if wq.props.query_type != "SELECT" {
            continue;
        }
        if let Some(ex) = make_pair(wq, want_equiv, &mut rng, &mut non_equiv_counts) {
            out.push(ex);
            want_equiv = !want_equiv;
        }
    }
    out
}

fn make_pair(
    wq: &WorkloadQuery,
    want_equiv: bool,
    rng: &mut StdRng,
    non_equiv_counts: &mut [usize; NonEquivType::ALL.len()],
) -> Option<EquivExample> {
    let q = parse_query(&wq.sql).ok()?;
    let schema = schema_for(wq.workload, &wq.schema_name);
    // Witness seed is keyed by schema, not by query: every pair over the
    // same schema shares one differential-testing batch, so the memoized
    // generator does the expensive work once per schema instead of once
    // per query.
    let witnesses = witness_batch_cached(&schema, 0xBEE5 ^ seed_of(&wq.schema_name));
    // A produced pair must also be statically valid: the transforms edit
    // ASTs structurally and can strand a reference (e.g. dropping the
    // projection item an ORDER BY key named). The lenient execution engine
    // still runs such queries, so differential verification alone would
    // let them through — gate on a clean binder analysis instead.
    let analyzes_clean =
        |q: &Query| squ_schema::analyze(&Statement::Query(q.clone()), &schema).is_empty();
    // All but one transform return the source unchanged as the pair's
    // first query (`join_to_nested` forces DISTINCT on it), so the
    // source's analysis and witness results are computed on the first
    // attempt that reaches them and shared by every attempt whose first
    // query equals it.
    let (source_clean, source_results) = (OnceCell::new(), OnceCell::new());
    let verifies = |q1: &Query, q2: &Query, want: Verdict| {
        if *q1 != q {
            return analyzes_clean(q1)
                && analyzes_clean(q2)
                && differential_verdict(q1, q2, &witnesses) == want;
        }
        let results = || source_results.get_or_init(|| witness_results(&q, &witnesses));
        *source_clean.get_or_init(|| analyzes_clean(&q))
            && analyzes_clean(q2)
            && verdict_against(results().as_deref(), q2, &witnesses) == want
    };
    if want_equiv {
        let mut types = EquivType::ALL;
        types.shuffle(rng);
        for ty in types {
            if let Some((q1, q2)) = apply_equiv(&q, ty, rng) {
                if verifies(&q1, &q2, Verdict::AgreedEverywhere) {
                    return Some(example(wq, &q1, &q2, true, ty.label()));
                }
            }
        }
        None
    } else {
        // Try the least-represented subtype first (random tie-break via a
        // shuffle before the stable sort), so the class stays balanced even
        // though some transforms succeed far more often than others.
        let mut order: Vec<usize> = (0..NonEquivType::ALL.len()).collect();
        order.shuffle(rng);
        order.sort_by_key(|&i| non_equiv_counts[i]);
        for i in order {
            let ty = NonEquivType::ALL[i];
            // Value changes draw the edit site and replacement from the rng,
            // so a retry can land on a literal the witnesses discriminate;
            // the other transforms are deterministic and get one shot.
            let attempts = if ty == NonEquivType::ValueChange {
                4
            } else {
                1
            };
            for _ in 0..attempts {
                if let Some((q1, q2)) = apply_non_equiv(&q, ty, rng) {
                    if verifies(&q1, &q2, Verdict::Differed) {
                        non_equiv_counts[i] += 1;
                        return Some(example(wq, &q1, &q2, false, ty.label()));
                    }
                }
            }
        }
        None
    }
}

pub(crate) fn seed_of(id: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    id.hash(&mut h);
    h.finish()
}

fn example(
    wq: &WorkloadQuery,
    q1: &Query,
    q2: &Query,
    equivalent: bool,
    transform: &str,
) -> EquivExample {
    let sql1 = print_query(q1);
    let stmt1 = Statement::Query(q1.clone());
    EquivExample {
        query_id: wq.id.clone(),
        schema_name: wq.schema_name.clone(),
        sql2: print_query(q2),
        props: squ_workload::query_props(&sql1, &stmt1),
        sql1,
        equivalent,
        transform: transform.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squ_engine::witness_batch;
    use squ_schema::schemas::sdss;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn verify_equiv(sql: &str, ty: EquivType) -> (String, String) {
        let q = parse_query(sql).unwrap();
        let (q1, q2) = apply_equiv(&q, ty, &mut rng())
            .unwrap_or_else(|| panic!("{ty} not applicable to {sql}"));
        let witnesses = witness_batch(&sdss(), 77);
        assert_eq!(
            differential_verdict(&q1, &q2, &witnesses),
            Verdict::AgreedEverywhere,
            "{ty}: {} vs {}",
            print_query(&q1),
            print_query(&q2)
        );
        (print_query(&q1), print_query(&q2))
    }

    /// `differential_verdict(q, q, w)` runs `q` once, and its verdict is
    /// the one two runs give, one `Prepared` per side.
    #[test]
    fn identical_queries_get_the_two_run_verdict() {
        let witnesses = witness_batch(&sdss(), 77);
        for (sql, want) in [
            (
                "SELECT plate, z FROM SpecObj WHERE z > 0.5",
                Verdict::AgreedEverywhere,
            ),
            ("SELECT plate FROM NoSuchTable", Verdict::Failed),
            (
                "SELECT plate FROM SpecObj WHERE plate > 5 AND plate < 3",
                Verdict::AgreedEverywhere,
            ),
        ] {
            let q = parse_query(sql).unwrap();
            let two_runs =
                verdict_against(witness_results(&q, &witnesses).as_deref(), &q, &witnesses);
            assert_eq!(two_runs, want, "{sql}");
            assert_eq!(differential_verdict(&q, &q, &witnesses), two_runs, "{sql}");
        }
    }

    #[test]
    fn equivalence_transforms_verified() {
        verify_equiv(
            "SELECT plate FROM SpecObj WHERE z > 0.5 AND ra < 200 AND mjd = 100",
            EquivType::ReorderConditions,
        );
        verify_equiv(
            "SELECT plate, mjd FROM SpecObj WHERE z > 0.5",
            EquivType::Cte,
        );
        verify_equiv(
            "SELECT s.plate FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid WHERE p.ra > 180 AND s.z > 0.5",
            EquivType::JoinNested,
        );
        verify_equiv(
            "SELECT fiberid FROM SpecObj WHERE bestobjid IN (SELECT objid FROM PhotoObj WHERE ra > 180)",
            EquivType::SwapSubqueries,
        );
        verify_equiv(
            "SELECT plate FROM SpecObj WHERE z BETWEEN 100 AND 600",
            EquivType::BetweenRange,
        );
        verify_equiv(
            "SELECT plate FROM SpecObj WHERE plate IN (1, 2, 3)",
            EquivType::InToOr,
        );
        verify_equiv(
            "SELECT plate FROM SpecObj WHERE z > 100 AND ra < 600",
            EquivType::DeMorgan,
        );
        verify_equiv(
            "SELECT plate FROM SpecObj WHERE z > 300",
            EquivType::ComparisonFlip,
        );
        verify_equiv(
            "SELECT s.plate, p.ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid",
            EquivType::AliasRename,
        );
        verify_equiv(
            "SELECT plate, mjd FROM SpecObj WHERE z > 0.5",
            EquivType::DerivedTable,
        );
    }

    fn verify_non_equiv(sql: &str, ty: NonEquivType) {
        let q = parse_query(sql).unwrap();
        let (q1, q2) = apply_non_equiv(&q, ty, &mut rng())
            .unwrap_or_else(|| panic!("{ty} not applicable to {sql}"));
        let witnesses = witness_batch(&sdss(), 77);
        assert_eq!(
            differential_verdict(&q1, &q2, &witnesses),
            Verdict::Differed,
            "{ty}: {} vs {}",
            print_query(&q1),
            print_query(&q2)
        );
    }

    #[test]
    fn non_equivalence_transforms_verified() {
        verify_non_equiv(
            "SELECT plate, AVG(z) FROM SpecObj GROUP BY plate",
            NonEquivType::AggFunction,
        );
        verify_non_equiv(
            "SELECT s.plate, p.ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid",
            NonEquivType::ChangeJoinCondition,
        );
        verify_non_equiv(
            "SELECT plate FROM SpecObj WHERE z > 300 AND ra < 500",
            NonEquivType::LogicalConditions,
        );
        verify_non_equiv(
            "SELECT plate FROM SpecObj WHERE z > 400",
            NonEquivType::ValueChange,
        );
        verify_non_equiv(
            "SELECT plate FROM SpecObj WHERE z > 400",
            NonEquivType::ComparisonDirection,
        );
        verify_non_equiv("SELECT class FROM SpecObj", NonEquivType::DistinctChange);
        verify_non_equiv(
            "SELECT plate, mjd FROM SpecObj WHERE z > 100",
            NonEquivType::ProjectionChange,
        );
        verify_non_equiv(
            "SELECT plate FROM SpecObj WHERE z > 300 AND ra < 400",
            NonEquivType::WhereDrop,
        );
    }

    #[test]
    fn inapplicable_transforms_return_none() {
        let q = parse_query("SELECT plate FROM SpecObj").unwrap();
        assert!(apply_equiv(&q, EquivType::ReorderConditions, &mut rng()).is_none());
        assert!(apply_equiv(&q, EquivType::BetweenRange, &mut rng()).is_none());
        assert!(apply_non_equiv(&q, NonEquivType::AggFunction, &mut rng()).is_none());
        assert!(apply_non_equiv(&q, NonEquivType::WhereDrop, &mut rng()).is_none());
    }

    #[test]
    fn dataset_builds_with_verified_labels() {
        let ds = squ_workload::build(squ_workload::Workload::Sdss, 2023);
        // subsample for test speed: first 60 queries
        let small = squ_workload::Dataset {
            workload: ds.workload,
            queries: ds.queries.into_iter().take(60).collect(),
        };
        let pairs = build_equiv_dataset(&small, 11);
        assert!(pairs.len() >= 40, "only {} pairs", pairs.len());
        let eq = pairs.iter().filter(|p| p.equivalent).count();
        let ne = pairs.len() - eq;
        assert!(eq >= 15 && ne >= 15, "balance {eq}/{ne}");
        // Least-represented-first selection must keep every non-equivalent
        // subtype populated — a uniform shuffle used to leave value-change
        // with a handful of pairs, starving the paper's per-subtype FP
        // analysis (tests/paper_shape.rs).
        let mut counts = std::collections::BTreeMap::new();
        for p in pairs.iter().filter(|p| !p.equivalent) {
            *counts.entry(p.transform.as_str()).or_insert(0usize) += 1;
        }
        for ty in NonEquivType::ALL {
            let n = counts.get(ty.label()).copied().unwrap_or(0);
            assert!(n >= 1, "subtype {} unrepresented ({counts:?})", ty.label());
        }
        // re-verify a sample
        for p in pairs.iter().take(10) {
            let q1 = parse_query(&p.sql1).unwrap();
            let q2 = parse_query(&p.sql2).unwrap();
            let schema = schema_for(squ_workload::Workload::Sdss, &p.schema_name);
            // same schema-keyed seed formula as make_pair
            let witnesses = witness_batch(&schema, 0xBEE5 ^ seed_of(&p.schema_name));
            let v = differential_verdict(&q1, &q2, &witnesses);
            if p.equivalent {
                assert_eq!(v, Verdict::AgreedEverywhere);
            } else {
                assert_eq!(v, Verdict::Differed);
            }
        }
    }
}
