//! The engine's execution entry point and the leaf semantics its two
//! executors share.
//!
//! [`execute_query`] lowers a query with [`crate::compile_query`] and runs
//! the compiled plan. A query the compiler rejects runs whole on
//! the reference interpreter ([`crate::reference_query`]), the engine's one
//! executable definition of SQL semantics; [`ExecStats::compiled`] and
//! [`ExecStats::fallbacks`] record which path ran.
//!
//! The rest of the module is leaf machinery: three-valued logic,
//! comparison, arithmetic, `CAST`, `LIKE`, the scalar-function library and
//! aggregate finishing, plus the few relational helpers the compiler
//! reuses (conjunct splitting, projection naming, set-operation
//! combining). What the reference interpreter imports from here (`CAST`,
//! `LIKE` and the scalar functions) is deliberately not part of the
//! differential surface.

use crate::{Database, Relation, Value};
use squ_parser::ast::*;
use squ_parser::CompareOp;

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Referenced table missing from the database.
    UnknownTable(String),
    /// Referenced column not found in scope.
    UnknownColumn(String),
    /// A scalar subquery returned more than one row.
    ScalarSubqueryMultiRow,
    /// Feature not covered by the engine.
    Unsupported(String),
    /// An intermediate result exceeded the executor's row budget (the
    /// guard that turns accidental cross-product blow-ups into clean
    /// errors instead of hangs).
    ResourceLimit,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            ExecError::ScalarSubqueryMultiRow => {
                f.write_str("scalar subquery returned more than one row")
            }
            ExecError::Unsupported(s) => write!(f, "unsupported: {s}"),
            ExecError::ResourceLimit => f.write_str("intermediate result exceeded the row budget"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Counters accumulated during execution; input to cost-model validation,
/// the fuzz report and the benchmark's per-layer metrics.
///
/// The compiled engine ([`crate::CompiledQuery`]) fills every counter (an
/// index probe counts only the fetched rows as scanned, a consumed
/// hash-equi filter skips its join pairs). A fallback reports only
/// `rows_output` and `fallbacks`: the reference interpreter keeps no
/// statistics, so every work counter reads zero. All counters are
/// deterministic for a given (query, database) — independent of cache
/// warmth or thread count — so fuzz reports stay byte-identical across
/// `--jobs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-table rows materialized into the pipeline.
    pub rows_scanned: u64,
    /// Row pairs considered by join loops.
    pub join_pairs: u64,
    /// Rows in the final result.
    pub rows_output: u64,
    /// Subquery (re-)executions, counting correlated re-evaluation.
    pub subquery_evals: u64,
    /// Operator batches evaluated by the vectorized filter path.
    pub batches: u64,
    /// Hash-index equality probes issued.
    pub index_probes: u64,
    /// Rows fetched via index probes.
    pub index_hits: u64,
    /// 1 if the query ran on the compiled engine.
    pub compiled: u64,
    /// 1 if compilation was rejected and the reference interpreter ran
    /// instead.
    pub fallbacks: u64,
    /// Select blocks short-circuited because the semantic analyzer proved
    /// their WHERE clause unsatisfiable at compile time.
    pub empty_prunes: u64,
}

/// Execute a statement. `CREATE TABLE … AS` / `CREATE VIEW` execute their
/// defining query (the relation that *would* be stored).
pub fn execute(stmt: &Statement, db: &Database) -> Result<Relation, ExecError> {
    let q = stmt
        .query()
        .ok_or_else(|| ExecError::Unsupported("CREATE TABLE without AS SELECT".into()))?;
    execute_query(q, db).map(|(rel, _)| rel)
}

/// Execute a query, returning the result relation and execution statistics.
///
/// The query is first lowered by [`crate::compile_query`]; any
/// construct the compiler does not cover rejects compilation, and the whole
/// query runs on the reference interpreter ([`crate::reference_query`])
/// instead. [`ExecStats::compiled`] / [`ExecStats::fallbacks`] record which
/// path ran.
pub fn execute_query(q: &Query, db: &Database) -> Result<(Relation, ExecStats), ExecError> {
    if let Some(cq) = crate::physical::compile_query(q, db) {
        return cq.execute(db);
    }
    let rel = crate::reference::reference_query(q, db)?;
    let stats = ExecStats {
        rows_output: rel.rows.len() as u64,
        fallbacks: 1,
        ..ExecStats::default()
    };
    Ok((rel, stats))
}

/// A qualified column in a working row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QCol {
    pub(crate) binding: Option<String>,
    pub(crate) name: String,
}

/// Finish an aggregate over the non-null (and, if requested, deduplicated)
/// argument values. `None` for an unrecognized aggregate name (the
/// compiler rejects those at compile time).
pub(crate) fn aggregate_value(upper: &str, vals: &[Value]) -> Option<Value> {
    Some(match upper {
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
                let var =
                    nums.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (nums.len() - 1) as f64;
                if upper.starts_with("VAR") {
                    Value::Num(var)
                } else {
                    Value::Num(var.sqrt())
                }
            }
        }
        _ => return None,
    })
}

/// If `e` is a single equality between one column of `lcols` and one of
/// `rcols`, return their indices (left, right).
pub(crate) fn equi_join_columns(
    e: &Expr,
    lcols: &[QCol],
    rcols: &[QCol],
) -> Option<(usize, usize)> {
    let Expr::Compare {
        op: CompareOp::Eq,
        left,
        right,
    } = e
    else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) else {
        return None;
    };
    // only qualified references take the fast path: an unqualified name
    // could resolve into either side, and expression evaluation always
    // picks the leftmost occurrence — the hash path must not diverge
    let find = |cols: &[QCol], c: &ColumnRef| -> Option<usize> {
        let q = c.qualifier.as_deref()?;
        cols.iter().position(|qc| {
            qc.name.eq_ignore_ascii_case(&c.name)
                && qc
                    .binding
                    .as_deref()
                    .is_some_and(|bn| bn.eq_ignore_ascii_case(q))
        })
    };
    match (find(lcols, a), find(rcols, b)) {
        (Some(li), Some(ri)) => Some((li, ri)),
        _ => match (find(lcols, b), find(rcols, a)) {
            (Some(li), Some(ri)) => Some((li, ri)),
            _ => None,
        },
    }
}

/// Flatten a WHERE tree into its top-level AND conjuncts.
pub(crate) fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::And(a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

// ----- helpers -----

pub(crate) fn projection_names(s: &Select, working_cols: &[QCol]) -> Vec<String> {
    let mut out = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Wildcard => out.extend(working_cols.iter().map(|c| c.name.clone())),
            SelectItem::QualifiedWildcard(q) => out.extend(
                working_cols
                    .iter()
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

/// Structural equality with case-insensitive function names (ORDER BY
/// `count(*)` must match projected `COUNT(*)`).
pub(crate) fn exprs_equal_modulo_case(a: &Expr, b: &Expr) -> bool {
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
                && a1
                    .iter()
                    .zip(a2)
                    .all(|(x, y)| exprs_equal_modulo_case(x, y))
        }
        _ => a == b,
    }
}

/// Three-valued (Kleene) boolean view of a value: `Some(bool)` or `None`
/// for NULL/unknown. Non-boolean values are falsy.
pub(crate) fn tri(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        _ => Some(false),
    }
}

pub(crate) fn from_tri(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

pub(crate) fn not3(t: Option<bool>) -> Option<bool> {
    t.map(|b| !b)
}

pub(crate) fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

pub(crate) fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

pub(crate) fn compare(op: CompareOp, l: &Value, r: &Value) -> Value {
    let res = match op {
        CompareOp::Eq => l.sql_eq(r),
        CompareOp::NotEq => l.sql_eq(r).map(|b| !b),
        CompareOp::Lt => l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Less),
        CompareOp::LtEq => l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Greater),
        CompareOp::Gt => l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Greater),
        CompareOp::GtEq => l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Less),
    };
    // SQL three-valued logic: NULL / incomparable comparisons are UNKNOWN
    from_tri(res)
}

pub(crate) fn arith(op: char, l: &Value, r: &Value) -> Value {
    match (l.as_num(), r.as_num()) {
        (Some(a), Some(b)) => match op {
            '+' => Value::Num(a + b),
            '-' => Value::Num(a - b),
            '*' => Value::Num(a * b),
            '/' => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Num(a / b)
                }
            }
            '%' => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Num(a % b)
                }
            }
            _ => Value::Null,
        },
        _ => Value::Null,
    }
}

/// CAST semantics, shared with the reference interpreter (the leaf value
/// conversions are deliberately not part of the differential surface).
pub(crate) fn cast_value(v: &Value, type_name: &str) -> Value {
    cast_typed(v, squ_schema::SqlType::from_name(type_name))
}

/// CAST with the target type already resolved (`SqlType::from_name` is
/// total, so the compiled engine resolves it once at compile time).
pub(crate) fn cast_typed(v: &Value, ty: squ_schema::SqlType) -> Value {
    use squ_schema::SqlType;
    match ty {
        SqlType::Int => match v {
            Value::Num(x) => Value::Num(x.trunc()),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(|x| Value::Num(x.trunc()))
                .unwrap_or(Value::Null),
            _ => Value::Null,
        },
        SqlType::Float => match v {
            Value::Num(x) => Value::Num(*x),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Num)
                .unwrap_or(Value::Null),
            _ => Value::Null,
        },
        SqlType::Text => Value::Str(v.to_string()),
        SqlType::Bool => match v {
            Value::Bool(b) => Value::Bool(*b),
            Value::Num(x) => Value::Bool(*x != 0.0),
            _ => Value::Null,
        },
    }
}

/// SQL LIKE with `%` and `_` wildcards (case-sensitive). Builds a
/// [`crate::like::LikeMatcher`] per call; hot paths (the compiled engine,
/// and any caller matching one pattern against many strings) should build
/// the matcher once instead.
pub fn like_match(s: &str, pattern: &str) -> bool {
    crate::like::LikeMatcher::new(pattern).matches(s)
}

/// Scalar-function library, shared with the reference interpreter (the
/// leaf functions are deliberately not part of the differential surface).
pub(crate) fn scalar_function(name: &str, vals: &[Value]) -> Result<Value, ExecError> {
    scalar_function_upper(&name.to_ascii_uppercase(), vals)
}

/// Names [`scalar_function`] implements, upper-cased — the compiled
/// engine's whitelist (any other name must reject compilation so the
/// reference interpreter's `Unsupported` error is preserved).
pub(crate) fn is_supported_scalar(upper: &str) -> bool {
    matches!(
        upper,
        "UPPER"
            | "UCASE"
            | "LOWER"
            | "LCASE"
            | "LEN"
            | "LENGTH"
            | "DATALENGTH"
            | "ABS"
            | "ROUND"
            | "FLOOR"
            | "CEILING"
            | "CEIL"
            | "SQRT"
            | "POWER"
            | "POW"
            | "LOG"
            | "LOG10"
            | "EXP"
            | "SUBSTR"
            | "SUBSTRING"
            | "LEFT"
            | "RIGHT"
            | "TRIM"
            | "LTRIM"
            | "RTRIM"
            | "CONCAT"
            | "REPLACE"
            | "COALESCE"
            | "NULLIF"
            | "STR"
            | "SIGN"
    )
}

/// [`scalar_function`] with the name pre-uppercased (the compiled engine
/// uppercases once at compile time).
pub(crate) fn scalar_function_upper(upper: &str, vals: &[Value]) -> Result<Value, ExecError> {
    let s0 = || match vals.first() {
        Some(Value::Str(s)) => Some(s.clone()),
        Some(v) if !v.is_null() => Some(v.to_string()),
        _ => None,
    };
    let n0 = || vals.first().and_then(|v| v.as_num());
    let n = |i: usize| vals.get(i).and_then(|v| v.as_num());
    Ok(match upper {
        "UPPER" | "UCASE" => s0()
            .map(|s| Value::Str(s.to_uppercase()))
            .unwrap_or(Value::Null),
        "LOWER" | "LCASE" => s0()
            .map(|s| Value::Str(s.to_lowercase()))
            .unwrap_or(Value::Null),
        "LEN" | "LENGTH" | "DATALENGTH" => s0()
            .map(|s| Value::Num(s.chars().count() as f64))
            .unwrap_or(Value::Null),
        "ABS" => n0().map(|x| Value::Num(x.abs())).unwrap_or(Value::Null),
        "ROUND" => match (n0(), n(1)) {
            (Some(x), Some(d)) => {
                let m = 10f64.powi(d as i32);
                Value::Num((x * m).round() / m)
            }
            (Some(x), None) => Value::Num(x.round()),
            _ => Value::Null,
        },
        "FLOOR" => n0().map(|x| Value::Num(x.floor())).unwrap_or(Value::Null),
        "CEILING" | "CEIL" => n0().map(|x| Value::Num(x.ceil())).unwrap_or(Value::Null),
        "SQRT" => n0()
            .filter(|x| *x >= 0.0)
            .map(|x| Value::Num(x.sqrt()))
            .unwrap_or(Value::Null),
        "POWER" | "POW" => match (n0(), n(1)) {
            (Some(x), Some(y)) => Value::Num(x.powf(y)),
            _ => Value::Null,
        },
        "LOG" | "LOG10" => n0()
            .filter(|x| *x > 0.0)
            .map(|x| Value::Num(x.log10()))
            .unwrap_or(Value::Null),
        "EXP" => n0().map(|x| Value::Num(x.exp())).unwrap_or(Value::Null),
        "SUBSTR" | "SUBSTRING" => match (s0(), n(1), n(2)) {
            (Some(s), Some(start), len) => {
                let start = (start.max(1.0) as usize).saturating_sub(1);
                let chars: Vec<char> = s.chars().collect();
                let end = match len {
                    Some(l) => (start + l.max(0.0) as usize).min(chars.len()),
                    None => chars.len(),
                };
                if start >= chars.len() {
                    Value::Str(String::new())
                } else {
                    Value::Str(chars[start..end].iter().collect())
                }
            }
            _ => Value::Null,
        },
        "LEFT" => match (s0(), n(1)) {
            (Some(s), Some(k)) => Value::Str(s.chars().take(k.max(0.0) as usize).collect()),
            _ => Value::Null,
        },
        "RIGHT" => match (s0(), n(1)) {
            (Some(s), Some(k)) => {
                let chars: Vec<char> = s.chars().collect();
                let k = (k.max(0.0) as usize).min(chars.len());
                Value::Str(chars[chars.len() - k..].iter().collect())
            }
            _ => Value::Null,
        },
        "TRIM" => s0()
            .map(|s| Value::Str(s.trim().to_string()))
            .unwrap_or(Value::Null),
        "LTRIM" => s0()
            .map(|s| Value::Str(s.trim_start().to_string()))
            .unwrap_or(Value::Null),
        "RTRIM" => s0()
            .map(|s| Value::Str(s.trim_end().to_string()))
            .unwrap_or(Value::Null),
        "CONCAT" => {
            let mut out = String::new();
            for v in vals {
                if !v.is_null() {
                    out.push_str(&v.to_string());
                }
            }
            Value::Str(out)
        }
        "REPLACE" => match (vals.first(), vals.get(1), vals.get(2)) {
            (Some(Value::Str(s)), Some(Value::Str(from)), Some(Value::Str(to))) => {
                Value::Str(s.replace(from.as_str(), to))
            }
            _ => Value::Null,
        },
        "COALESCE" => vals
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        "NULLIF" => match (vals.first(), vals.get(1)) {
            (Some(a), Some(b)) if a.sql_eq(b) == Some(true) => Value::Null,
            (Some(a), _) => a.clone(),
            _ => Value::Null,
        },
        "STR" => vals
            .first()
            .map(|v| Value::Str(v.to_string()))
            .unwrap_or(Value::Null),
        "SIGN" => n0().map(|x| Value::Num(x.signum())).unwrap_or(Value::Null),
        other => return Err(ExecError::Unsupported(format!("function {other}"))),
    })
}

/// Hard ceiling on any intermediate relation. Witness databases have tens
/// of rows per table, so legitimate plans stay far below this; only
/// accidental cross products (e.g. a rewrite that destroys predicate
/// pushdown on a 12-table Join-Order query) can reach it.
pub(crate) const MAX_INTERMEDIATE_ROWS: usize = 120_000;

pub(crate) fn combine_set(op: &SetOp, all: bool, l: Relation, r: Relation) -> Relation {
    use std::collections::HashSet;
    let cols = l.columns.clone();
    match op {
        SetOp::Union => {
            let mut rows = l.rows;
            rows.extend(r.rows);
            if !all {
                let mut seen = HashSet::new();
                rows.retain(|row| seen.insert(row.clone()));
            }
            Relation::new(cols, rows)
        }
        SetOp::Intersect => {
            let rset: HashSet<Vec<Value>> = r.rows.into_iter().collect();
            let mut seen = HashSet::new();
            let rows = l
                .rows
                .into_iter()
                .filter(|row| rset.contains(row) && (all || seen.insert(row.clone())))
                .collect();
            Relation::new(cols, rows)
        }
        SetOp::Except => {
            let rset: HashSet<Vec<Value>> = r.rows.into_iter().collect();
            let mut seen = HashSet::new();
            let rows = l
                .rows
                .into_iter()
                .filter(|row| !rset.contains(row) && (all || seen.insert(row.clone())))
                .collect();
            Relation::new(cols, rows)
        }
    }
}
