//! Semantic analyzer ("binder").
//!
//! Resolves table and column references against a [`Schema`], tracks alias
//! scopes (including correlated subqueries and CTEs), infers expression
//! types, and emits [`Diagnostic`]s. The diagnostic kinds map one-to-one
//! onto the six syntax-error categories of the paper (§3.1, Listing 1) plus
//! two generic resolution errors:
//!
//! | paper type | [`DiagnosticKind`] |
//! |---|---|
//! | `aggr-attr` | [`AggrWithoutGroupBy`](DiagnosticKind::AggrWithoutGroupBy) |
//! | `aggr-having` | [`HavingNonAggregate`](DiagnosticKind::HavingNonAggregate) |
//! | `nested-mismatch` | [`ScalarSubqueryMultiRow`](DiagnosticKind::ScalarSubqueryMultiRow) |
//! | `condition-mismatch` | [`ComparisonTypeMismatch`](DiagnosticKind::ComparisonTypeMismatch) |
//! | `alias-undefined` | [`UndefinedAlias`](DiagnosticKind::UndefinedAlias) |
//! | `alias-ambiguous` | [`AmbiguousColumn`](DiagnosticKind::AmbiguousColumn) |

use crate::{Column, Schema, SqlType};
use squ_parser::ast::*;
use std::collections::BTreeSet;

/// The kind of semantic problem found by the binder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticKind {
    /// Aggregate functions mixed with non-aggregated, non-grouped columns
    /// (paper: `aggr-attr`).
    AggrWithoutGroupBy,
    /// `HAVING` filters a column that is neither aggregated nor grouped
    /// (paper: `aggr-having`).
    HavingNonAggregate,
    /// A scalar comparison against a subquery that may return multiple rows
    /// (paper: `nested-mismatch`).
    ScalarSubqueryMultiRow,
    /// Comparison between incompatible types, e.g. numeric vs. string
    /// (paper: `condition-mismatch`).
    ComparisonTypeMismatch,
    /// A qualifier that names no table or alias in scope
    /// (paper: `alias-undefined`).
    UndefinedAlias,
    /// An unqualified column name found in several tables in scope
    /// (paper: `alias-ambiguous`).
    AmbiguousColumn,
    /// Table name not found in the schema (and not a CTE).
    UnknownTable,
    /// Column name not found in any table in scope.
    UnknownColumn,
}

impl DiagnosticKind {
    /// The paper's label for this error type, when it is one of the six
    /// studied categories.
    pub fn paper_label(&self) -> Option<&'static str> {
        match self {
            DiagnosticKind::AggrWithoutGroupBy => Some("aggr-attr"),
            DiagnosticKind::HavingNonAggregate => Some("aggr-having"),
            DiagnosticKind::ScalarSubqueryMultiRow => Some("nested-mismatch"),
            DiagnosticKind::ComparisonTypeMismatch => Some("condition-mismatch"),
            DiagnosticKind::UndefinedAlias => Some("alias-undefined"),
            DiagnosticKind::AmbiguousColumn => Some("alias-ambiguous"),
            DiagnosticKind::UnknownTable | DiagnosticKind::UnknownColumn => None,
        }
    }

    /// Stable diagnostic code for this kind (the `SQU0xx` registry shared
    /// with `squ-lint`; codes `SQU001`/`SQU002` are reserved for lex/parse
    /// errors, which never reach the binder).
    pub fn code(&self) -> &'static str {
        match self {
            DiagnosticKind::UnknownTable => "SQU010",
            DiagnosticKind::UnknownColumn => "SQU011",
            DiagnosticKind::UndefinedAlias => "SQU012",
            DiagnosticKind::AmbiguousColumn => "SQU013",
            DiagnosticKind::AggrWithoutGroupBy => "SQU020",
            DiagnosticKind::HavingNonAggregate => "SQU021",
            DiagnosticKind::ScalarSubqueryMultiRow => "SQU030",
            DiagnosticKind::ComparisonTypeMismatch => "SQU031",
        }
    }
}

/// A semantic diagnostic: kind, optional source span, and a human-readable
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What went wrong.
    pub kind: DiagnosticKind,
    /// Byte span of the offending reference in the analyzed SQL text, when
    /// the AST node carried one (synthesized nodes do not).
    pub span: Option<Span>,
    /// Explanation referencing the offending names.
    pub message: String,
}

/// Which base-schema objects a statement's references resolve to.
///
/// Equivalence-preserving rewrites (CTE wrapping, join ↔ nested subquery,
/// alias renames, …) restructure a query without changing *what* it reads,
/// so their signatures must be identical — the dataset auditor uses this
/// as a structural invariant on every rewrite pair. Names are lowercased;
/// only resolutions that reach a real schema table are recorded (CTE and
/// derived-table hops are transparent).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResolutionSignature {
    /// Base tables referenced anywhere in the statement.
    pub tables: BTreeSet<String>,
    /// `(base_table, column)` pairs resolved anywhere in the statement.
    pub columns: BTreeSet<(String, String)>,
}

impl ResolutionSignature {
    /// Canonical one-line rendering (stable across runs and job counts).
    pub fn render(&self) -> String {
        let tables: Vec<&str> = self.tables.iter().map(String::as_str).collect();
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|(t, c)| format!("{t}.{c}"))
            .collect();
        format!("tables[{}] columns[{}]", tables.join(","), cols.join(","))
    }
}

/// Full result of one binder pass: diagnostics plus the resolution
/// signature of the statement.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Every diagnostic found (empty = semantically clean).
    pub diagnostics: Vec<Diagnostic>,
    /// Which schema objects the statement's references resolve to.
    pub resolution: ResolutionSignature,
}

/// Run semantic analysis of `stmt` against `schema`, returning every
/// diagnostic found (empty = semantically clean).
pub fn analyze(stmt: &Statement, schema: &Schema) -> Vec<Diagnostic> {
    analyze_statement(stmt, schema).diagnostics
}

/// Run semantic analysis of `stmt` against `schema`, returning diagnostics
/// *and* the statement's [`ResolutionSignature`].
pub fn analyze_statement(stmt: &Statement, schema: &Schema) -> Analysis {
    let mut b = Binder::new(schema);
    match stmt {
        Statement::Query(q) => b.bind_query(q),
        Statement::CreateTable { source, .. } => {
            if let Some(q) = source {
                b.bind_query(q);
            }
        }
        Statement::CreateView { query, .. } => b.bind_query(query),
    }
    Analysis {
        diagnostics: b.diags,
        resolution: b.resolution,
    }
}

/// One visible relation in a scope: its binding name and (if known) its
/// columns. `columns == None` marks a relation we could not resolve; later
/// lookups through it succeed with unknown type so one bad table does not
/// cascade into dozens of spurious column errors. `base` is the lowercased
/// schema-table name when the binding is backed directly by one (not a CTE
/// or derived table), feeding the [`ResolutionSignature`].
#[derive(Debug, Clone)]
struct Binding {
    name: String,
    columns: Option<Vec<Column>>,
    base: Option<String>,
}

struct Binder<'a> {
    schema: &'a Schema,
    /// CTE environments, innermost last; each lists its declarations in
    /// order, and inner queries see outer CTEs.
    ctes: Vec<Vec<(String, Vec<Column>)>>,
    /// Scope stack; inner scopes (subqueries) may reference outer ones
    /// (correlation).
    scopes: Vec<Vec<Binding>>,
    diags: Vec<Diagnostic>,
    resolution: ResolutionSignature,
}

impl<'a> Binder<'a> {
    fn new(schema: &'a Schema) -> Self {
        Binder {
            schema,
            ctes: vec![Vec::new()],
            scopes: Vec::new(),
            diags: Vec::new(),
            resolution: ResolutionSignature::default(),
        }
    }

    fn diag(&mut self, kind: DiagnosticKind, span: Option<Span>, message: String) {
        self.diags.push(Diagnostic {
            kind,
            span,
            message,
        });
    }

    /// The latest declaration at the innermost level whose name matches
    /// ASCII-case-insensitively.
    fn lookup_cte(&self, name: &str) -> Option<&Vec<Column>> {
        self.ctes
            .iter()
            .rev()
            .find_map(|env| env.iter().rev().find(|(k, _)| k.eq_ignore_ascii_case(name)))
            .map(|(_, v)| v)
    }

    fn bind_query(&mut self, q: &Query) {
        self.ctes.push(Vec::new());
        for cte in &q.ctes {
            self.bind_query(&cte.query);
            let cols = self.infer_output_columns(&cte.query);
            self.ctes
                .last_mut()
                .expect("env pushed above") // lint:allow: pushed earlier in this function
                .push((cte.name.clone(), cols));
        }
        self.bind_set_expr(&q.body, &q.order_by);
        self.ctes.pop();
    }

    fn bind_set_expr(&mut self, body: &SetExpr, order_by: &[OrderItem]) {
        match body {
            SetExpr::Select(s) => self.bind_select(s, order_by),
            SetExpr::SetOp { left, right, .. } => {
                self.bind_set_expr(left, &[]);
                self.bind_set_expr(right, order_by);
            }
        }
    }

    fn bind_select(&mut self, s: &Select, order_by: &[OrderItem]) {
        // 1. Build scope from FROM.
        let mut scope = Vec::new();
        for tr in &s.from {
            self.collect_bindings(tr, &mut scope);
        }
        self.scopes.push(scope);

        // 2. Join conditions.
        for tr in &s.from {
            self.check_join_conditions(tr);
        }

        // 3. Projection, WHERE, GROUP BY, HAVING, ORDER BY expressions.
        for item in &s.items {
            if let SelectItem::Expr { expr, .. } = item {
                self.check_expr(expr);
            }
        }
        if let Some(w) = &s.selection {
            self.check_expr(w);
        }
        for g in &s.group_by {
            self.check_expr(g);
        }
        if let Some(h) = &s.having {
            self.check_expr(h);
        }
        // ORDER BY may reference projection aliases and output column
        // names (which resolve unambiguously to the projected value even
        // when several scope tables share the name).
        let output_names: Vec<String> = s
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
            .collect();
        for item in order_by {
            if let Expr::Column(c) = &item.expr {
                if c.qualifier.is_none()
                    && output_names.iter().any(|a| a.eq_ignore_ascii_case(&c.name))
                {
                    continue;
                }
            }
            self.check_expr(&item.expr);
        }

        // 4. Aggregation / grouping rules.
        self.check_grouping(s);

        self.scopes.pop();
    }

    fn collect_bindings(&mut self, tr: &TableRef, scope: &mut Vec<Binding>) {
        match tr {
            TableRef::Named { name, alias } => {
                let binding_name = alias.clone().unwrap_or_else(|| name.clone());
                let mut base = None;
                let columns = if let Some(cols) = self.lookup_cte(name) {
                    Some(cols.clone())
                } else if let Some(t) = self.schema.table(name) {
                    let cols = t.columns.clone();
                    let canonical = t.name.to_lowercase();
                    self.resolution.tables.insert(canonical.clone());
                    base = Some(canonical);
                    Some(cols)
                } else {
                    self.diag(
                        DiagnosticKind::UnknownTable,
                        None,
                        format!("table '{name}' not found in schema '{}'", self.schema.name),
                    );
                    None
                };
                scope.push(Binding {
                    name: binding_name,
                    columns,
                    base,
                });
            }
            TableRef::Derived { query, alias } => {
                self.bind_query(query);
                let cols = self.infer_output_columns(query);
                scope.push(Binding {
                    name: alias.clone().unwrap_or_default(),
                    columns: Some(cols),
                    base: None,
                });
            }
            TableRef::Join { left, right, .. } => {
                self.collect_bindings(left, scope);
                self.collect_bindings(right, scope);
            }
        }
    }

    fn check_join_conditions(&mut self, tr: &TableRef) {
        if let TableRef::Join {
            left,
            right,
            constraint,
            ..
        } = tr
        {
            self.check_join_conditions(left);
            self.check_join_conditions(right);
            if let JoinConstraint::On(e) = constraint {
                self.check_expr(e);
            }
        }
    }

    // ----- column resolution -----

    /// Resolve a column reference, emitting diagnostics; returns its type if
    /// known.
    fn resolve_column(&mut self, c: &ColumnRef) -> Option<SqlType> {
        match &c.qualifier {
            Some(q) => {
                // innermost scope containing the binding wins
                for (si, scope) in self.scopes.iter().enumerate().rev() {
                    if let Some(bi) = scope.iter().position(|b| b.name.eq_ignore_ascii_case(q)) {
                        let b = &self.scopes[si][bi];
                        let base = b.base.clone();
                        return match &b.columns {
                            Some(cols) => {
                                match cols
                                    .iter()
                                    .find(|col| col.name.eq_ignore_ascii_case(&c.name))
                                {
                                    Some(col) => {
                                        let ty = col.ty;
                                        self.record_resolution(base, &c.name);
                                        Some(ty)
                                    }
                                    None => {
                                        let q = q.clone();
                                        let name = c.name.clone();
                                        self.diag(
                                            DiagnosticKind::UnknownColumn,
                                            some_span(c.span),
                                            format!("column '{name}' not found in '{q}'"),
                                        );
                                        None
                                    }
                                }
                            }
                            None => None, // unknown table: suppress cascade
                        };
                    }
                }
                let q = q.clone();
                self.diag(
                    DiagnosticKind::UndefinedAlias,
                    some_span(c.span),
                    format!("alias or table '{q}' is not defined in this scope"),
                );
                None
            }
            None => {
                // search scopes inner -> outer; ambiguity only within one scope
                for scope in self.scopes.iter().rev() {
                    let mut matches: Vec<(String, Option<String>, Option<SqlType>)> = Vec::new();
                    let mut any_unknown = false;
                    for b in scope {
                        match &b.columns {
                            Some(cols) => {
                                if let Some(col) = cols
                                    .iter()
                                    .find(|col| col.name.eq_ignore_ascii_case(&c.name))
                                {
                                    matches.push((b.name.clone(), b.base.clone(), Some(col.ty)));
                                }
                            }
                            None => any_unknown = true,
                        }
                    }
                    match matches.len() {
                        0 => {
                            if any_unknown {
                                // could belong to the unresolved table
                                return None;
                            }
                        }
                        1 => {
                            let (_, base, ty) = matches.swap_remove(0);
                            self.record_resolution(base, &c.name);
                            return ty;
                        }
                        _ => {
                            let name = c.name.clone();
                            let holders: Vec<String> =
                                matches.iter().map(|(n, _, _)| n.clone()).collect();
                            self.diag(
                                DiagnosticKind::AmbiguousColumn,
                                some_span(c.span),
                                format!(
                                    "column '{name}' is ambiguous; found in {}",
                                    holders.join(", ")
                                ),
                            );
                            return matches[0].2;
                        }
                    }
                }
                if !self.scopes.is_empty() {
                    let name = c.name.clone();
                    self.diag(
                        DiagnosticKind::UnknownColumn,
                        some_span(c.span),
                        format!("column '{name}' not found in any table in scope"),
                    );
                }
                None
            }
        }
    }

    /// Record a successful column resolution against a base schema table
    /// (resolutions through CTEs and derived tables carry no base and are
    /// intentionally not part of the signature).
    fn record_resolution(&mut self, base: Option<String>, column: &str) {
        if let Some(base) = base {
            self.resolution
                .columns
                .insert((base, column.to_lowercase()));
        }
    }

    // ----- expression checking & type inference -----

    /// Check an expression tree: resolve columns, check comparisons, and
    /// recurse into subqueries. Returns the inferred type if known.
    fn check_expr(&mut self, e: &Expr) -> Option<SqlType> {
        match e {
            Expr::Column(c) => self.resolve_column(c),
            Expr::Literal(l) => literal_type(l),
            Expr::Compare { op: _, left, right } => {
                let lt = self.check_expr(left);
                let rt = self.check_expr(right);
                self.check_comparable(lt, rt, left, right);
                self.check_scalar_subquery_cardinality(left);
                self.check_scalar_subquery_cardinality(right);
                Some(SqlType::Bool)
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                self.check_expr(a);
                self.check_expr(b);
                Some(SqlType::Bool)
            }
            Expr::Not(inner) => {
                self.check_expr(inner);
                Some(SqlType::Bool)
            }
            Expr::IsNull { expr, .. } => {
                self.check_expr(expr);
                Some(SqlType::Bool)
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                let t = self.check_expr(expr);
                let lt = self.check_expr(low);
                let ht = self.check_expr(high);
                self.check_comparable(t, lt, expr, low);
                self.check_comparable(t, ht, expr, high);
                Some(SqlType::Bool)
            }
            Expr::InList { expr, list, .. } => {
                let t = self.check_expr(expr);
                for item in list {
                    let it = self.check_expr(item);
                    self.check_comparable(t, it, expr, item);
                }
                Some(SqlType::Bool)
            }
            Expr::InSubquery { expr, subquery, .. } => {
                let t = self.check_expr(expr);
                self.bind_query(subquery);
                let sub_cols = self.infer_output_columns(subquery);
                if let (Some(t), Some(first)) = (t, sub_cols.first()) {
                    if !t.comparable_with(first.ty) {
                        self.diag(
                            DiagnosticKind::ComparisonTypeMismatch,
                            expr_span(expr).or_else(|| some_span(subquery.span)),
                            format!(
                                "IN compares {t} with subquery column '{}' of type {}",
                                first.name, first.ty
                            ),
                        );
                    }
                }
                Some(SqlType::Bool)
            }
            Expr::Exists { subquery, .. } => {
                self.bind_query(subquery);
                Some(SqlType::Bool)
            }
            Expr::ScalarSubquery(q) => {
                self.bind_query(q);
                self.infer_output_columns(q).first().map(|c| c.ty)
            }
            Expr::Like { expr, pattern, .. } => {
                self.check_expr(expr);
                self.check_expr(pattern);
                Some(SqlType::Bool)
            }
            Expr::Function { name, args, .. } => {
                for a in args {
                    if !matches!(a, Expr::Wildcard) {
                        self.check_expr(a);
                    }
                }
                Some(function_type(name, args, |arg| self.infer_type_quiet(arg)))
            }
            Expr::Wildcard => None,
            Expr::Arith { left, right, .. } => {
                self.check_expr(left);
                self.check_expr(right);
                Some(SqlType::Float)
            }
            Expr::Neg(inner) => {
                self.check_expr(inner);
                Some(SqlType::Float)
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(op) = operand {
                    self.check_expr(op);
                }
                let mut out = None;
                for (w, t) in branches {
                    self.check_expr(w);
                    let tt = self.check_expr(t);
                    out = out.or(tt);
                }
                if let Some(e) = else_expr {
                    let tt = self.check_expr(e);
                    out = out.or(tt);
                }
                out
            }
            Expr::Cast { expr, type_name } => {
                self.check_expr(expr);
                Some(SqlType::from_name(type_name))
            }
        }
    }

    /// Type of an expression without emitting diagnostics (used inside
    /// function-type inference to avoid double-reporting).
    fn infer_type_quiet(&mut self, e: &Expr) -> Option<SqlType> {
        match e {
            Expr::Column(c) => {
                let before = self.diags.len();
                let t = self.resolve_column(c);
                self.diags.truncate(before);
                t
            }
            Expr::Literal(l) => literal_type(l),
            Expr::Cast { type_name, .. } => Some(SqlType::from_name(type_name)),
            Expr::Arith { .. } | Expr::Neg(_) => Some(SqlType::Float),
            _ => None,
        }
    }

    fn check_comparable(
        &mut self,
        lt: Option<SqlType>,
        rt: Option<SqlType>,
        left: &Expr,
        right: &Expr,
    ) {
        if let (Some(a), Some(b)) = (lt, rt) {
            if !a.comparable_with(b) {
                self.diag(
                    DiagnosticKind::ComparisonTypeMismatch,
                    expr_span(left).or_else(|| expr_span(right)),
                    format!(
                        "cannot compare {a} ({}) with {b} ({})",
                        squ_parser::print_expr(left),
                        squ_parser::print_expr(right)
                    ),
                );
            }
        }
    }

    fn check_scalar_subquery_cardinality(&mut self, e: &Expr) {
        if let Expr::ScalarSubquery(q) = e {
            if may_return_multiple_rows(q) {
                self.diag(
                    DiagnosticKind::ScalarSubqueryMultiRow,
                    some_span(q.span),
                    format!(
                        "scalar subquery ({}) may return more than one row",
                        squ_parser::print_query(q)
                    ),
                );
            }
        }
    }

    // ----- grouping rules -----

    fn check_grouping(&mut self, s: &Select) {
        let has_aggregate = s
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || s.having.as_ref().is_some_and(|h| h.contains_aggregate());
        let grouped = !s.group_by.is_empty();

        if has_aggregate || grouped {
            // every bare column in the projection must be grouped
            for item in &s.items {
                if let SelectItem::Expr { expr, .. } = item {
                    let mut bare = Vec::new();
                    collect_nonaggregate_columns(expr, &mut bare);
                    for c in bare {
                        if !group_by_covers(&s.group_by, &c) {
                            self.diag(
                                DiagnosticKind::AggrWithoutGroupBy,
                                some_span(c.span),
                                format!(
                                    "column '{c}' must appear in GROUP BY or inside an aggregate"
                                ),
                            );
                        }
                    }
                }
            }
        }

        if let Some(h) = &s.having {
            // HAVING may reference aggregates and grouped columns only.
            let mut bare = Vec::new();
            collect_nonaggregate_columns(h, &mut bare);
            for c in bare {
                if !group_by_covers(&s.group_by, &c) {
                    self.diag(
                        DiagnosticKind::HavingNonAggregate,
                        some_span(c.span),
                        format!(
                            "HAVING references '{c}', which is neither aggregated nor in GROUP BY (use WHERE instead)"
                        ),
                    );
                }
            }
        }
    }

    // ----- output column inference (for derived tables / CTEs) -----

    fn infer_output_columns(&mut self, q: &Query) -> Vec<Column> {
        // Build the query's own scope quietly to type its projection.
        let mut out = Vec::new();
        let select = match &q.body {
            SetExpr::Select(s) => s,
            SetExpr::SetOp { left, .. } => {
                // output schema = left branch's schema
                let mut cur = left;
                loop {
                    match &**cur {
                        SetExpr::Select(s) => break s,
                        SetExpr::SetOp { left, .. } => cur = left,
                    }
                }
            }
        };
        let mut scope = Vec::new();
        let before = self.diags.len();
        for tr in &select.from {
            self.collect_bindings(tr, &mut scope);
        }
        self.diags.truncate(before); // quiet pass
        self.scopes.push(scope);
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    let scope = self.scopes.last().expect("pushed above").clone(); // lint:allow: pushed earlier in this function
                    for b in &scope {
                        if let Some(cols) = &b.columns {
                            out.extend(cols.iter().cloned());
                        }
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let scope = self.scopes.last().expect("pushed above").clone(); // lint:allow: pushed earlier in this function
                    if let Some(b) = scope.iter().find(|b| b.name.eq_ignore_ascii_case(q)) {
                        if let Some(cols) = &b.columns {
                            out.extend(cols.iter().cloned());
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column(c) => c.name.clone(),
                        Expr::Function { name, .. } => name.clone(),
                        _ => "expr".to_string(),
                    });
                    let before = self.diags.len();
                    let ty = self.check_expr(expr).unwrap_or(SqlType::Float);
                    self.diags.truncate(before); // quiet pass
                    out.push(Column::new(&name, ty));
                }
            }
        }
        self.scopes.pop();
        out
    }
}

/// `Some(span)` when the span carries a real position, `None` for the
/// empty spans of synthesized AST nodes.
fn some_span(s: Span) -> Option<Span> {
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

fn literal_type(l: &Literal) -> Option<SqlType> {
    match l {
        Literal::Number(_) => Some(SqlType::Float),
        Literal::String(_) => Some(SqlType::Text),
        Literal::Bool(_) => Some(SqlType::Bool),
        Literal::Null => None,
    }
}

/// Result type of a function call, resolved through the dialect function
/// catalog (case-insensitive under every dialect spelling — `count`,
/// `Count`, `COUNT`, and `LEN`/`LENGTH` all land on one catalog row).
/// `arg_type` is consulted lazily for the aggregate functions whose type
/// follows their argument; names outside the catalog keep the historical
/// numeric default.
fn function_type(
    name: &str,
    args: &[Expr],
    arg_type: impl FnMut(&Expr) -> Option<SqlType>,
) -> SqlType {
    use squ_dialect::FunctionResult;
    match squ_dialect::lookup_function(name) {
        Some(spec) => match spec.result {
            FunctionResult::Int => SqlType::Int,
            FunctionResult::Text => SqlType::Text,
            FunctionResult::Float => SqlType::Float,
            FunctionResult::FirstArg => args.first().and_then(arg_type).unwrap_or(SqlType::Float),
        },
        None => SqlType::Float,
    }
}

/// Conservative cardinality analysis for scalar subqueries: a subquery is
/// single-row when it is `LIMIT 1`/`TOP 1`, or an ungrouped aggregate-only
/// projection. Everything else *may* return multiple rows.
pub fn may_return_multiple_rows(q: &Query) -> bool {
    if q.limit == Some(1) {
        return false;
    }
    if let SetExpr::Select(s) = &q.body {
        if s.top == Some(1) {
            return false;
        }
        if s.group_by.is_empty()
            && !s.items.is_empty()
            && s.items
                .iter()
                .all(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.is_aggregate_call()))
        {
            return false;
        }
    }
    true
}

/// Collect columns that appear outside any aggregate call (and outside
/// subqueries — those have their own grouping context).
fn collect_nonaggregate_columns(e: &Expr, out: &mut Vec<ColumnRef>) {
    match e {
        Expr::Column(c) => out.push(c.clone()),
        Expr::Function { name, args, .. } => {
            if !is_aggregate_name(name) {
                for a in args {
                    collect_nonaggregate_columns(a, out);
                }
            }
        }
        Expr::InSubquery { expr, .. } => collect_nonaggregate_columns(expr, out),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        other => other.for_each_child(&mut |c| collect_nonaggregate_columns(c, out)),
    }
}

/// Does the GROUP BY list cover column `c`? Qualifiers are compared only
/// when both sides carry one (matching SQL's name-resolution leniency).
fn group_by_covers(group_by: &[Expr], c: &ColumnRef) -> bool {
    group_by.iter().any(|g| match g {
        Expr::Column(gc) => {
            gc.name.eq_ignore_ascii_case(&c.name)
                && match (&gc.qualifier, &c.qualifier) {
                    (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                    _ => true,
                }
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemas::sdss;
    use squ_parser::parse;

    fn kinds(sql: &str) -> Vec<DiagnosticKind> {
        let stmt = parse(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        analyze(&stmt, &sdss())
            .into_iter()
            .map(|d| d.kind)
            .collect()
    }

    #[test]
    fn clean_queries_have_no_diagnostics() {
        for sql in [
            "SELECT plate, mjd FROM SpecObj WHERE z > 0.5",
            "SELECT s.plate, p.ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid",
            "SELECT plate, COUNT(*) FROM SpecObj GROUP BY plate HAVING COUNT(*) > 10",
            "SELECT class, AVG(z) FROM SpecObj GROUP BY class",
            "SELECT fiberid FROM SpecObj WHERE bestobjid IN (SELECT objid FROM PhotoObj WHERE ra > 180)",
            "WITH h AS (SELECT plate, z FROM SpecObj WHERE z > 1) SELECT plate FROM h WHERE z < 2",
            "SELECT plate FROM SpecObj WHERE z = (SELECT MAX(z) FROM SpecObj)",
            "SELECT TOP 10 ra, dec FROM PhotoObj ORDER BY ra",
            "SELECT COUNT(*) AS n FROM SpecObj",
        ] {
            assert_eq!(kinds(sql), vec![], "expected clean: {sql}");
        }
    }

    #[test]
    fn paper_q1_aggr_attr() {
        // Listing 1 Q1: aggregation without GROUP BY
        let ks = kinds("SELECT plate, mjd, COUNT(*), AVG(z) FROM SpecObj WHERE z > 0.5");
        assert!(ks.contains(&DiagnosticKind::AggrWithoutGroupBy), "{ks:?}");
    }

    #[test]
    fn paper_q2_aggr_having() {
        // Listing 1 Q2: HAVING on a non-aggregated column
        let ks = kinds(
            "SELECT plate, COUNT(*) AS NumSpectra FROM SpecObj GROUP BY plate HAVING z > 0.5",
        );
        assert!(ks.contains(&DiagnosticKind::HavingNonAggregate), "{ks:?}");
    }

    #[test]
    fn paper_q3_nested_mismatch() {
        // Listing 1 Q3: scalar subquery may return multiple rows
        let ks = kinds(
            "SELECT p.ra, p.dec, s.z FROM PhotoObj AS p JOIN SpecObj AS s ON s.bestobjid = (SELECT bestobjid FROM SpecObj)",
        );
        assert!(
            ks.contains(&DiagnosticKind::ScalarSubqueryMultiRow),
            "{ks:?}"
        );
    }

    #[test]
    fn paper_q4_condition_mismatch() {
        // Listing 1 Q4: numeric column compared to string
        let ks = kinds("SELECT plate, mjd, fiberid FROM SpecObj WHERE z = 'high'");
        assert!(
            ks.contains(&DiagnosticKind::ComparisonTypeMismatch),
            "{ks:?}"
        );
    }

    #[test]
    fn paper_q5_alias_undefined() {
        // Listing 1 Q5: `photoobj` qualifier after aliasing to `p`
        let ks = kinds(
            "SELECT s.plate, s.mjd, z FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = photoobj.bestobjid",
        );
        assert!(ks.contains(&DiagnosticKind::UndefinedAlias), "{ks:?}");
    }

    #[test]
    fn paper_q6_alias_ambiguous() {
        // Listing 1 Q6: `bestobjid` exists in both joined tables
        let ks = kinds(
            "SELECT plate, fiberid FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.bestobjid WHERE bestobjid > 1000",
        );
        assert!(ks.contains(&DiagnosticKind::AmbiguousColumn), "{ks:?}");
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(kinds("SELECT x FROM NoSuchTable").contains(&DiagnosticKind::UnknownTable));
        assert!(kinds("SELECT nosuchcolumn FROM SpecObj").contains(&DiagnosticKind::UnknownColumn));
    }

    #[test]
    fn unknown_table_does_not_cascade_column_errors() {
        let ks = kinds("SELECT a, b, c FROM NoSuchTable WHERE d > 1");
        assert_eq!(
            ks,
            vec![DiagnosticKind::UnknownTable],
            "one diagnostic only, no cascade"
        );
    }

    #[test]
    fn correlated_subquery_sees_outer_alias() {
        let ks = kinds(
            "SELECT s.plate FROM SpecObj AS s WHERE EXISTS (SELECT 1 FROM PhotoObj AS p WHERE p.bestobjid = s.bestobjid)",
        );
        assert_eq!(ks, vec![]);
    }

    #[test]
    fn scalar_subquery_with_aggregate_or_limit_is_fine() {
        assert_eq!(
            kinds("SELECT plate FROM SpecObj WHERE z = (SELECT MAX(z) FROM SpecObj)"),
            vec![]
        );
        assert_eq!(
            kinds("SELECT plate FROM SpecObj WHERE z > (SELECT z FROM SpecObj ORDER BY z DESC LIMIT 1)"),
            vec![]
        );
        assert_eq!(
            kinds(
                "SELECT plate FROM SpecObj WHERE z > (SELECT TOP 1 z FROM SpecObj ORDER BY z DESC)"
            ),
            vec![]
        );
    }

    #[test]
    fn group_by_qualified_covers_unqualified() {
        assert_eq!(
            kinds("SELECT s.plate, COUNT(*) FROM SpecObj AS s GROUP BY plate"),
            vec![]
        );
    }

    #[test]
    fn derived_table_columns_visible() {
        assert_eq!(
            kinds("SELECT d.plate FROM (SELECT plate FROM SpecObj WHERE z > 1) AS d"),
            vec![]
        );
        assert!(kinds("SELECT d.mjd FROM (SELECT plate FROM SpecObj) AS d")
            .contains(&DiagnosticKind::UnknownColumn));
    }

    #[test]
    fn cte_names_differing_only_in_case_resolve_to_the_latest() {
        // `a` matches both declarations; the later `A` (column `y`) wins on
        // every call, so `x` is unknown every time
        let sql = "WITH a AS (SELECT 1 AS x), A AS (SELECT 2 AS y) SELECT x FROM a";
        for _ in 0..64 {
            assert_eq!(kinds(sql), vec![DiagnosticKind::UnknownColumn], "{sql}");
        }
    }

    #[test]
    fn in_subquery_type_mismatch() {
        let ks = kinds("SELECT plate FROM SpecObj WHERE z IN (SELECT class FROM SpecObj)");
        assert!(
            ks.contains(&DiagnosticKind::ComparisonTypeMismatch),
            "{ks:?}"
        );
    }

    #[test]
    fn order_by_alias_is_visible() {
        assert_eq!(
            kinds("SELECT COUNT(*) AS n, plate FROM SpecObj GROUP BY plate ORDER BY n DESC"),
            vec![]
        );
    }

    #[test]
    fn paper_labels() {
        assert_eq!(
            DiagnosticKind::AggrWithoutGroupBy.paper_label(),
            Some("aggr-attr")
        );
        assert_eq!(DiagnosticKind::UnknownTable.paper_label(), None);
    }
}
