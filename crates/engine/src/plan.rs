//! Logical plan construction and `EXPLAIN`-style rendering.
//!
//! Builds the tree of logical operators the executor walks (scans, joins,
//! filters, grouping, sorting, limits) with cardinality estimates from the
//! schema and the cost model's selectivity constants — the "why is this
//! query costly" companion to [`crate::CostModel`].

use crate::CostModel;
use squ_parser::ast::*;
use squ_schema::Schema;

/// A node of the logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Base-table scan.
    Scan {
        /// Table name.
        table: String,
        /// Binding name (alias if present).
        binding: String,
        /// Estimated rows.
        rows: f64,
    },
    /// Derived table / CTE body.
    Subquery {
        /// Binding name.
        binding: String,
        /// The sub-plan.
        input: Box<Plan>,
    },
    /// Join of two inputs.
    Join {
        /// `JOIN`, `LEFT JOIN`, …; `,` for implicit joins.
        kind: String,
        /// Join condition rendered as SQL, if any.
        condition: Option<String>,
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Estimated output rows.
        rows: f64,
    },
    /// Row filter.
    Filter {
        /// Predicate rendered as SQL.
        predicate: String,
        /// Number of atomic conjunct/disjunct leaves.
        predicates: usize,
        /// Input plan.
        input: Box<Plan>,
        /// Estimated output rows.
        rows: f64,
    },
    /// Grouping / aggregation.
    Aggregate {
        /// Group-key expressions rendered as SQL.
        keys: Vec<String>,
        /// Input plan.
        input: Box<Plan>,
        /// Estimated output rows (groups).
        rows: f64,
    },
    /// Projection.
    Project {
        /// Projected items rendered as SQL.
        items: Vec<String>,
        /// Input plan.
        input: Box<Plan>,
    },
    /// DISTINCT deduplication.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Sort.
    Sort {
        /// Sort keys rendered as SQL with direction.
        keys: Vec<String>,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Row-count limit (`LIMIT` / `TOP`).
    Limit {
        /// Maximum rows.
        n: u64,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Set operation over two inputs.
    SetOp {
        /// `UNION`, `INTERSECT`, `EXCEPT` (± ` ALL`).
        op: String,
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
}

impl Plan {
    /// Estimated output rows of this node.
    pub fn rows(&self) -> f64 {
        match self {
            Plan::Scan { rows, .. }
            | Plan::Join { rows, .. }
            | Plan::Filter { rows, .. }
            | Plan::Aggregate { rows, .. } => *rows,
            Plan::Subquery { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. } => input.rows(),
            Plan::Distinct { input } => input.rows() * 0.8,
            Plan::Limit { n, input } => (*n as f64).min(input.rows()),
            Plan::SetOp { left, right, .. } => left.rows() + right.rows(),
        }
    }
}

/// Build the logical plan of a query against a schema.
pub fn plan_query(q: &Query, schema: &Schema) -> Plan {
    let model = CostModel::default();
    let mut p = plan_set_expr(&q.body, schema, &model);
    if !q.order_by.is_empty() {
        let keys = q
            .order_by
            .iter()
            .map(|o| {
                format!(
                    "{} {}",
                    squ_parser::print_expr(&o.expr),
                    if o.desc { "DESC" } else { "ASC" }
                )
            })
            .collect();
        p = Plan::Sort {
            keys,
            input: Box::new(p),
        };
    }
    let limit = q.limit.or(match &q.body {
        SetExpr::Select(s) => s.top,
        _ => None,
    });
    if let Some(n) = limit {
        p = Plan::Limit {
            n,
            input: Box::new(p),
        };
    }
    p
}

fn plan_set_expr(body: &SetExpr, schema: &Schema, model: &CostModel) -> Plan {
    match body {
        SetExpr::Select(s) => plan_select(s, schema, model),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => Plan::SetOp {
            op: format!("{}{}", op.as_str(), if *all { " ALL" } else { "" }),
            left: Box::new(plan_set_expr(left, schema, model)),
            right: Box::new(plan_set_expr(right, schema, model)),
        },
    }
}

fn plan_select(s: &Select, schema: &Schema, model: &CostModel) -> Plan {
    // FROM: fold the items into a join tree (implicit joins as `,`)
    let mut input: Option<Plan> = None;
    for tr in &s.from {
        let right = plan_table_ref(tr, schema, model);
        input = Some(match input {
            None => right,
            Some(left) => {
                let rows = join_estimate(left.rows(), right.rows());
                Plan::Join {
                    kind: ",".to_string(),
                    condition: None,
                    left: Box::new(left),
                    right: Box::new(right),
                    rows,
                }
            }
        });
    }
    let mut p = input.unwrap_or(Plan::Scan {
        table: "<dual>".into(),
        binding: "<dual>".into(),
        rows: 1.0,
    });

    if let Some(w) = &s.selection {
        let n = leaf_count(w);
        let rows = p.rows() * model.predicate_selectivity.powi(n.min(12) as i32);
        p = Plan::Filter {
            predicate: squ_parser::print_expr(w),
            predicates: n,
            input: Box::new(p),
            rows: rows.max(1.0),
        };
    }

    let has_agg = s
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || s.having.is_some();
    if !s.group_by.is_empty() || has_agg {
        let keys: Vec<String> = s.group_by.iter().map(squ_parser::print_expr).collect();
        let groups = if keys.is_empty() {
            1.0
        } else {
            (p.rows().sqrt() * keys.len() as f64).max(1.0)
        };
        p = Plan::Aggregate {
            keys,
            input: Box::new(p),
            rows: groups,
        };
    }

    let items: Vec<String> = s
        .items
        .iter()
        .map(|i| match i {
            SelectItem::Wildcard => "*".to_string(),
            SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => format!("{} AS {a}", squ_parser::print_expr(expr)),
                None => squ_parser::print_expr(expr),
            },
        })
        .collect();
    p = Plan::Project {
        items,
        input: Box::new(p),
    };
    if s.distinct {
        p = Plan::Distinct { input: Box::new(p) };
    }
    p
}

fn plan_table_ref(tr: &TableRef, schema: &Schema, model: &CostModel) -> Plan {
    match tr {
        TableRef::Named { name, alias } => Plan::Scan {
            table: name.clone(),
            binding: alias.clone().unwrap_or_else(|| name.clone()),
            rows: schema
                .table(name)
                .map(|t| t.row_count as f64)
                .unwrap_or(model.default_card),
        },
        TableRef::Derived { query, alias } => Plan::Subquery {
            binding: alias.clone().unwrap_or_else(|| "<derived>".into()),
            input: Box::new(plan_query(query, schema)),
        },
        TableRef::Join {
            left,
            right,
            kind,
            constraint,
        } => {
            let l = plan_table_ref(left, schema, model);
            let r = plan_table_ref(right, schema, model);
            let rows = join_estimate(l.rows(), r.rows());
            Plan::Join {
                kind: kind.as_str().to_string(),
                condition: match constraint {
                    JoinConstraint::On(e) => Some(squ_parser::print_expr(e)),
                    JoinConstraint::Using(cols) => Some(format!("USING ({})", cols.join(", "))),
                    JoinConstraint::None => None,
                },
                left: Box::new(l),
                right: Box::new(r),
                rows,
            }
        }
    }
}

/// Greedy cost-driven join order for implicit (comma) joins, used by the
/// compiled engine ([`crate::compile_query`]).
///
/// `cards[i]` estimates the cardinality of FROM unit `i`; `edges` lists
/// unit pairs connected by an equality predicate. Starts from the
/// smallest unit, then repeatedly appends the unit with the lowest
/// [`CostModel::comma_join_estimate`] against the accumulated prefix (a
/// unit counts as connected once any edge links it to a placed unit).
/// All ties keep the lowest index, so the result is deterministic and is
/// the identity order whenever the estimates give no reason to deviate.
pub fn greedy_join_order(model: &CostModel, cards: &[f64], edges: &[(usize, usize)]) -> Vec<usize> {
    let n = cards.len();
    if n == 0 {
        return Vec::new();
    }
    let mut start = 0;
    for (i, c) in cards.iter().enumerate().skip(1) {
        if *c < cards[start] {
            start = i;
        }
    }
    let mut placed = vec![false; n];
    placed[start] = true;
    let mut order = vec![start];
    let mut acc = cards[start].max(1.0);
    while order.len() < n {
        let mut best: Option<(usize, f64)> = None;
        for (j, c) in cards.iter().enumerate() {
            if placed[j] {
                continue;
            }
            let connected = edges
                .iter()
                .any(|&(a, b)| (a == j && placed[b]) || (b == j && placed[a]));
            let est = model.comma_join_estimate(acc, c.max(1.0), connected);
            match best {
                Some((_, b)) if est >= b => {}
                _ => best = Some((j, est)),
            }
        }
        let Some((j, est)) = best else { break };
        placed[j] = true;
        order.push(j);
        acc = est;
    }
    order
}

/// Equi-join cardinality estimate matching the cost model's damping:
/// larger side × √(smaller side).
fn join_estimate(l: f64, r: f64) -> f64 {
    let (big, small) = if l >= r { (l, r) } else { (r, l) };
    (big * small.sqrt().max(1.0)).min(1e13)
}

fn leaf_count(e: &Expr) -> usize {
    match e {
        Expr::And(a, b) | Expr::Or(a, b) => leaf_count(a) + leaf_count(b),
        Expr::Not(x) => leaf_count(x),
        _ => 1,
    }
}

/// Render a statement's plan as an `EXPLAIN`-style indented tree with
/// row estimates and the total cost estimate.
pub fn explain(stmt: &Statement, schema: &Schema) -> String {
    let Some(q) = stmt.query() else {
        return "CREATE TABLE (no query plan)".to_string();
    };
    let plan = plan_query(q, schema);
    let cost = CostModel::default().estimate_ms(stmt, schema);
    let mut out = format!("estimated cost: {cost:.1} ms\n");
    render(&plan, 0, &mut out);
    out
}

fn fmt_rows(rows: f64) -> String {
    if rows >= 1e6 {
        format!("{:.1}M", rows / 1e6)
    } else if rows >= 1e3 {
        format!("{:.1}K", rows / 1e3)
    } else {
        format!("{rows:.0}")
    }
}

fn render(p: &Plan, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let line = match p {
        Plan::Scan {
            table,
            binding,
            rows,
        } => {
            if table.eq_ignore_ascii_case(binding) {
                format!("Scan {table}  (~{} rows)", fmt_rows(*rows))
            } else {
                format!("Scan {table} AS {binding}  (~{} rows)", fmt_rows(*rows))
            }
        }
        Plan::Subquery { binding, .. } => format!("Subquery AS {binding}"),
        Plan::Join {
            kind,
            condition,
            rows,
            ..
        } => match condition {
            Some(c) => format!("Join [{kind}] ON {c}  (~{} rows)", fmt_rows(*rows)),
            None => format!("Join [{kind}] (cross)  (~{} rows)", fmt_rows(*rows)),
        },
        Plan::Filter {
            predicate,
            predicates,
            rows,
            ..
        } => format!(
            "Filter ({predicates} predicate{}) {predicate}  (~{} rows)",
            if *predicates == 1 { "" } else { "s" },
            fmt_rows(*rows)
        ),
        Plan::Aggregate { keys, rows, .. } => {
            if keys.is_empty() {
                format!("Aggregate (global)  (~{} rows)", fmt_rows(*rows))
            } else {
                format!(
                    "Aggregate BY {}  (~{} rows)",
                    keys.join(", "),
                    fmt_rows(*rows)
                )
            }
        }
        Plan::Project { items, .. } => format!("Project [{}]", items.join(", ")),
        Plan::Distinct { .. } => "Distinct".to_string(),
        Plan::Sort { keys, .. } => format!("Sort [{}]", keys.join(", ")),
        Plan::Limit { n, .. } => format!("Limit {n}"),
        Plan::SetOp { op, .. } => format!("SetOp [{op}]"),
    };
    out.push_str(&pad);
    out.push_str(&line);
    out.push('\n');
    match p {
        Plan::Scan { .. } => {}
        Plan::Subquery { input, .. }
        | Plan::Filter { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => render(input, depth + 1, out),
        Plan::Join { left, right, .. } | Plan::SetOp { left, right, .. } => {
            render(left, depth + 1, out);
            render(right, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squ_parser::parse;
    use squ_schema::schemas::sdss;

    fn ex(sql: &str) -> String {
        explain(&parse(sql).unwrap(), &sdss())
    }

    #[test]
    fn scan_filter_project() {
        let e = ex("SELECT plate, mjd FROM SpecObj WHERE z > 0.5");
        assert!(e.contains("Scan SpecObj"), "{e}");
        assert!(e.contains("Filter (1 predicate)"), "{e}");
        assert!(e.contains("Project [plate, mjd]"), "{e}");
        assert!(e.contains("~2.0M rows"), "{e}");
    }

    #[test]
    fn join_plan_shows_condition_and_estimate() {
        let e = ex("SELECT s.plate FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid");
        assert!(e.contains("Join [JOIN] ON s.bestobjid = p.objid"), "{e}");
        assert!(e.contains("Scan SpecObj AS s"), "{e}");
        assert!(e.contains("Scan PhotoObj AS p"), "{e}");
    }

    #[test]
    fn aggregate_sort_limit_nodes() {
        let e =
            ex("SELECT class, COUNT(*) FROM SpecObj GROUP BY class ORDER BY class DESC LIMIT 5");
        assert!(e.contains("Aggregate BY class"), "{e}");
        assert!(e.contains("Sort [class DESC]"), "{e}");
        assert!(e.contains("Limit 5"), "{e}");
    }

    #[test]
    fn implicit_join_renders_comma_kind() {
        let e = ex("SELECT s.plate FROM SpecObj AS s, PhotoObj AS p WHERE s.bestobjid = p.objid");
        assert!(e.contains("Join [,]"), "{e}");
    }

    #[test]
    fn set_op_plan() {
        let e = ex("SELECT plate FROM SpecObj INTERSECT SELECT plate FROM SpecObj WHERE z > 1");
        assert!(e.contains("SetOp [INTERSECT]"), "{e}");
    }

    #[test]
    fn derived_table_plan() {
        let e = ex("SELECT d.plate FROM (SELECT plate FROM SpecObj) AS d");
        assert!(e.contains("Subquery AS d"), "{e}");
    }

    #[test]
    fn cost_header_present_and_create_handled() {
        let e = ex("SELECT plate FROM SpecObj");
        assert!(e.starts_with("estimated cost:"), "{e}");
        let c = explain(&parse("CREATE TABLE t (id INT)").unwrap(), &sdss());
        assert!(c.contains("no query plan"));
    }

    #[test]
    fn greedy_order_is_identity_without_a_reason_to_deviate() {
        let m = CostModel::default();
        // equal cards, no edges: every tie keeps the lowest index
        assert_eq!(
            greedy_join_order(&m, &[100.0, 100.0, 100.0], &[]),
            vec![0, 1, 2]
        );
        assert_eq!(greedy_join_order(&m, &[5.0], &[]), vec![0]);
        assert_eq!(greedy_join_order(&m, &[], &[]), Vec::<usize>::new());
    }

    #[test]
    fn greedy_order_starts_small_and_follows_equi_edges() {
        let m = CostModel::default();
        // unit 2 is tiny; unit 0 is equi-connected to 2, unit 1 is not —
        // damping makes the connected unit the cheaper next step
        let cards = [10_000.0, 9_000.0, 10.0];
        let order = greedy_join_order(&m, &cards, &[(0, 2)]);
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn greedy_order_is_a_permutation() {
        let m = CostModel::default();
        let cards = [40.0, 10.0, 90.0, 20.0, 70.0];
        let mut order = greedy_join_order(&m, &cards, &[(0, 1), (2, 3)]);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn row_estimates_monotone_under_filters() {
        let q =
            squ_parser::parse_query("SELECT plate FROM SpecObj WHERE z > 1 AND ra > 2").unwrap();
        let p = plan_query(&q, &sdss());
        // the filter node's estimate is below its input scan's
        fn find_filter(p: &Plan) -> Option<(f64, f64)> {
            match p {
                Plan::Filter { input, rows, .. } => Some((*rows, input.rows())),
                Plan::Project { input, .. } | Plan::Distinct { input } => find_filter(input),
                _ => None,
            }
        }
        let (out, inp) = find_filter(&p).expect("has filter");
        assert!(out < inp);
    }
}
