//! Flat postfix predicate/expression programs for the compiled engine.
//!
//! [`crate::physical`] lowers each scalar [`squ_parser::ast::Expr`] into a
//! [`Program`]: a vector of stack operations with column references
//! resolved to row offsets, `LIKE` patterns pre-compiled
//! ([`crate::like::LikeMatcher`]), function names pre-uppercased, `CAST`
//! targets pre-parsed, and constant subtrees folded at compile time.
//!
//! Programs are **total**: the compiler only emits operations that cannot
//! fail at runtime (unknown columns, unknown functions, aggregates out of
//! place, and fallible subqueries all reject compilation instead), so
//! evaluation returns a plain [`Value`]. Totality is also what makes the
//! eager stack discipline sound — SQL's `AND`/`OR` short-circuits are
//! observable only through side effects (errors), so evaluating both
//! operands and combining with three-valued logic yields the same value
//! the reference interpreter's tree walk produces.
//!
//! Uncorrelated subqueries are hoisted: the physical layer evaluates them
//! once per (query, database) into [`SlotVal`]s, and programs reference
//! the results by slot index.
//!
//! Hot filter passes use [`Program::eval_batch`], which interprets each
//! operation once per fixed-size chunk over a stack of value *vectors*
//! instead of once per row — the dispatch cost of the op loop is
//! amortized across [`BATCH_SIZE`] rows.

use crate::exec::{
    and3, arith, cast_typed, compare, from_tri, not3, or3, scalar_function_upper, tri,
};
use crate::like::LikeMatcher;
use crate::Value;
use squ_parser::CompareOp;
use squ_schema::SqlType;

/// Rows are processed in chunks of this many rows by the batch evaluator;
/// each chunk feeds [`crate::ExecStats::batches`].
pub(crate) const BATCH_SIZE: usize = 1024;

/// One postfix stack operation.
#[derive(Debug, Clone)]
pub(crate) enum POp {
    /// Push `row[i]`.
    Col(usize),
    /// Push a constant.
    Const(Value),
    /// Pop r, l; push `compare(op, l, r)`.
    Cmp(CompareOp),
    /// Pop b, a; push three-valued AND.
    And3,
    /// Pop b, a; push three-valued OR.
    Or3,
    /// Pop a; push three-valued NOT.
    Not3,
    /// Pop v; push `v IS [NOT] NULL`.
    IsNull {
        /// `IS NOT NULL` when set.
        negated: bool,
    },
    /// Pop hi, lo, v; push `v [NOT] BETWEEN lo AND hi`.
    Between {
        /// `NOT BETWEEN` when set.
        negated: bool,
    },
    /// Pop `n` list items then v; push `v [NOT] IN (items)`.
    InList {
        /// `NOT IN` when set.
        negated: bool,
        /// Number of list items on the stack.
        n: usize,
    },
    /// Pop v; push `v [NOT] LIKE <constant pattern>`.
    LikeConst {
        /// `NOT LIKE` when set.
        negated: bool,
        /// Pattern compiled once per query.
        matcher: LikeMatcher,
    },
    /// Pop pattern, v; push `v [NOT] LIKE pattern` (non-constant pattern:
    /// the matcher is built per evaluation, as [`crate::like_match`] does).
    LikeDyn {
        /// `NOT LIKE` when set.
        negated: bool,
    },
    /// Pop r, l; push `l <op> r`.
    Arith(char),
    /// Pop v; push numeric negation (NULL for non-numbers).
    Neg,
    /// Pop `argc` arguments; push the scalar-function result.
    Call {
        /// Upper-cased function name, validated at compile time.
        name: String,
        /// Argument count.
        argc: usize,
    },
    /// Pop the CASE operands (pushed as `[operand?] w1 t1 … wk tk
    /// [else?]`); push the selected branch value.
    Case {
        /// Simple (`CASE x WHEN …`) vs searched (`CASE WHEN …`) form.
        has_operand: bool,
        /// Number of WHEN/THEN branches.
        branches: usize,
        /// Whether an ELSE value was pushed.
        has_else: bool,
    },
    /// Pop v; push `CAST(v AS <type>)` with the type pre-resolved.
    Cast(SqlType),
    /// Push the pre-evaluated scalar-subquery result for a slot.
    ScalarSlot(usize),
    /// Pop v; push `v [NOT] IN (<pre-evaluated subquery rows>)`.
    InSlot {
        /// `NOT IN` when set.
        negated: bool,
        /// Subquery slot index.
        slot: usize,
    },
    /// Push `[NOT] EXISTS (<pre-evaluated subquery>)`.
    ExistsSlot {
        /// `NOT EXISTS` when set.
        negated: bool,
        /// Subquery slot index.
        slot: usize,
    },
    /// If the current group is empty, push NULL and skip the next `n`
    /// operations (the reference interpreter short-circuits whole
    /// non-aggregate subtrees to NULL on empty groups, *before* evaluating
    /// leaves).
    SkipIfEmptyGroup(usize),
    /// Push the group's aggregate value for slot `i` (grouped programs
    /// only; the physical layer computes aggregates per group).
    Agg(usize),
}

/// A pre-evaluated uncorrelated subquery result.
#[derive(Debug, Clone)]
pub(crate) enum SlotVal {
    /// Scalar subquery: its single value (NULL for zero rows).
    Scalar(Value),
    /// `IN` / `EXISTS` subquery: first-column values of every result row.
    Set(Vec<Value>),
}

/// Shared evaluation state: pre-evaluated subquery slots, the grouped
/// empty-group flag, per-group aggregate values, and a reusable stack.
pub(crate) struct EvalCx<'a> {
    /// Subquery results, indexed by slot.
    pub slots: &'a [SlotVal],
    /// Set while evaluating a grouped program over an empty group.
    pub empty_group: bool,
    /// Reused across rows to keep the hot loop allocation-free.
    pub stack: Vec<Value>,
    /// Aggregate results for the current group (grouped programs only).
    pub aggs: Vec<Value>,
}

impl<'a> EvalCx<'a> {
    /// A context with no aggregates and the given subquery slots.
    pub fn plain(slots: &'a [SlotVal]) -> EvalCx<'a> {
        EvalCx {
            slots,
            empty_group: false,
            stack: Vec::with_capacity(8),
            aggs: Vec::new(),
        }
    }
}

/// A compiled expression: postfix ops over a fixed row layout.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    pub(crate) ops: Vec<POp>,
}

impl Program {
    /// Wrap raw ops, folding the whole program to a constant when it
    /// reads neither columns, slots, aggregates, nor the group flag.
    pub fn new(ops: Vec<POp>) -> Program {
        let mut p = Program { ops };
        if p.is_const() {
            let mut cx = EvalCx::plain(&[]);
            let v = p.eval(&[], &mut cx);
            p.ops = vec![POp::Const(v)];
        }
        p
    }

    /// No runtime inputs: safe to evaluate at compile time.
    fn is_const(&self) -> bool {
        !self.ops.iter().any(|op| {
            matches!(
                op,
                POp::Col(_)
                    | POp::ScalarSlot(_)
                    | POp::InSlot { .. }
                    | POp::ExistsSlot { .. }
                    | POp::SkipIfEmptyGroup(_)
                    | POp::Agg(_)
            )
        })
    }

    /// The column offsets this program reads.
    pub fn cols(&self) -> impl Iterator<Item = usize> + '_ {
        self.ops.iter().filter_map(|op| match op {
            POp::Col(i) => Some(*i),
            _ => None,
        })
    }

    /// Evaluate on one row. Total: never errors (see module docs).
    pub fn eval(&self, row: &[Value], cx: &mut EvalCx) -> Value {
        cx.stack.clear();
        let mut i = 0;
        while i < self.ops.len() {
            match &self.ops[i] {
                POp::Col(idx) => cx.stack.push(row.get(*idx).cloned().unwrap_or(Value::Null)),
                POp::Const(v) => cx.stack.push(v.clone()),
                POp::Cmp(op) => {
                    let r = pop(&mut cx.stack);
                    let l = pop(&mut cx.stack);
                    cx.stack.push(compare(*op, &l, &r));
                }
                POp::And3 => {
                    let b = tri(&pop(&mut cx.stack));
                    let a = tri(&pop(&mut cx.stack));
                    cx.stack.push(from_tri(and3(a, b)));
                }
                POp::Or3 => {
                    let b = tri(&pop(&mut cx.stack));
                    let a = tri(&pop(&mut cx.stack));
                    cx.stack.push(from_tri(or3(a, b)));
                }
                POp::Not3 => {
                    let a = tri(&pop(&mut cx.stack));
                    cx.stack.push(from_tri(not3(a)));
                }
                POp::IsNull { negated } => {
                    let v = pop(&mut cx.stack);
                    cx.stack.push(Value::Bool(v.is_null() != *negated));
                }
                POp::Between { negated } => {
                    let hi = pop(&mut cx.stack);
                    let lo = pop(&mut cx.stack);
                    let v = pop(&mut cx.stack);
                    cx.stack.push(between_value(&v, &lo, &hi, *negated));
                }
                POp::InList { negated, n } => {
                    let base = cx.stack.len().saturating_sub(*n);
                    let v_at = base.saturating_sub(1);
                    let mut hit: Option<bool> = Some(false);
                    for k in base..cx.stack.len() {
                        match cx.stack[v_at].sql_eq(&cx.stack[k]) {
                            Some(true) => {
                                hit = Some(true);
                                break;
                            }
                            None => hit = None,
                            Some(false) => {}
                        }
                    }
                    cx.stack.truncate(v_at);
                    cx.stack
                        .push(from_tri(if *negated { not3(hit) } else { hit }));
                }
                POp::LikeConst { negated, matcher } => {
                    let v = pop(&mut cx.stack);
                    cx.stack.push(like_const_value(&v, matcher, *negated));
                }
                POp::LikeDyn { negated } => {
                    let p = pop(&mut cx.stack);
                    let v = pop(&mut cx.stack);
                    cx.stack.push(like_dyn_value(&v, &p, *negated));
                }
                POp::Arith(op) => {
                    let r = pop(&mut cx.stack);
                    let l = pop(&mut cx.stack);
                    cx.stack.push(arith(*op, &l, &r));
                }
                POp::Neg => {
                    let v = pop(&mut cx.stack);
                    cx.stack.push(neg_value(v));
                }
                POp::Call { name, argc } => {
                    let base = cx.stack.len().saturating_sub(*argc);
                    let v = scalar_function_upper(name, &cx.stack[base..]).unwrap_or(Value::Null);
                    cx.stack.truncate(base);
                    cx.stack.push(v);
                }
                POp::Case {
                    has_operand,
                    branches,
                    has_else,
                } => {
                    let total = usize::from(*has_operand) + 2 * branches + usize::from(*has_else);
                    let base = cx.stack.len().saturating_sub(total);
                    let v = case_value(&cx.stack[base..], *has_operand, *branches, *has_else);
                    cx.stack.truncate(base);
                    cx.stack.push(v);
                }
                POp::Cast(ty) => {
                    let v = pop(&mut cx.stack);
                    cx.stack.push(cast_typed(&v, *ty));
                }
                POp::ScalarSlot(slot) => cx.stack.push(match cx.slots.get(*slot) {
                    Some(SlotVal::Scalar(v)) => v.clone(),
                    _ => Value::Null,
                }),
                POp::InSlot { negated, slot } => {
                    let v = pop(&mut cx.stack);
                    let r = in_slot_value(&v, cx.slots.get(*slot), *negated);
                    cx.stack.push(r);
                }
                POp::ExistsSlot { negated, slot } => {
                    cx.stack.push(match cx.slots.get(*slot) {
                        Some(SlotVal::Set(vals)) => Value::Bool(vals.is_empty() == *negated),
                        _ => Value::Null,
                    });
                }
                POp::SkipIfEmptyGroup(n) => {
                    if cx.empty_group {
                        cx.stack.push(Value::Null);
                        i += n;
                    }
                }
                POp::Agg(idx) => cx
                    .stack
                    .push(cx.aggs.get(*idx).cloned().unwrap_or(Value::Null)),
            }
            i += 1;
        }
        cx.stack.pop().unwrap_or(Value::Null)
    }

    /// Evaluate over a batch of rows, pushing one value per row into
    /// `out` (cleared first). Each op runs once per batch over a stack of
    /// value vectors. Grouped programs (empty-group guards / aggregate
    /// refs) fall back to per-row evaluation — they only ever run
    /// per-group anyway.
    pub fn eval_batch(&self, rows: &[&[Value]], cx: &mut EvalCx, out: &mut Vec<Value>) {
        out.clear();
        if self
            .ops
            .iter()
            .any(|op| matches!(op, POp::SkipIfEmptyGroup(_) | POp::Agg(_)))
        {
            for r in rows {
                out.push(self.eval(r, cx));
            }
            return;
        }
        let n = rows.len();
        let mut stack: Vec<Vec<Value>> = Vec::new();
        let mut pool: Vec<Vec<Value>> = Vec::new();
        for op in &self.ops {
            match op {
                POp::Col(idx) => {
                    let mut c = take(&mut pool, n);
                    for r in rows {
                        c.push(r.get(*idx).cloned().unwrap_or(Value::Null));
                    }
                    stack.push(c);
                }
                POp::Const(v) => {
                    let mut c = take(&mut pool, n);
                    c.resize(n, v.clone());
                    stack.push(c);
                }
                POp::Cmp(opc) => {
                    let r = vpop(&mut stack, n);
                    let mut l = vpop(&mut stack, n);
                    for i in 0..n {
                        l[i] = compare(*opc, &l[i], &r[i]);
                    }
                    pool.push(r);
                    stack.push(l);
                }
                POp::And3 => {
                    let b = vpop(&mut stack, n);
                    let mut a = vpop(&mut stack, n);
                    for i in 0..n {
                        a[i] = from_tri(and3(tri(&a[i]), tri(&b[i])));
                    }
                    pool.push(b);
                    stack.push(a);
                }
                POp::Or3 => {
                    let b = vpop(&mut stack, n);
                    let mut a = vpop(&mut stack, n);
                    for i in 0..n {
                        a[i] = from_tri(or3(tri(&a[i]), tri(&b[i])));
                    }
                    pool.push(b);
                    stack.push(a);
                }
                POp::Not3 => {
                    let mut a = vpop(&mut stack, n);
                    for v in a.iter_mut() {
                        *v = from_tri(not3(tri(v)));
                    }
                    stack.push(a);
                }
                POp::IsNull { negated } => {
                    let mut a = vpop(&mut stack, n);
                    for v in a.iter_mut() {
                        *v = Value::Bool(v.is_null() != *negated);
                    }
                    stack.push(a);
                }
                POp::Between { negated } => {
                    let hi = vpop(&mut stack, n);
                    let lo = vpop(&mut stack, n);
                    let mut v = vpop(&mut stack, n);
                    for i in 0..n {
                        v[i] = between_value(&v[i], &lo[i], &hi[i], *negated);
                    }
                    pool.push(hi);
                    pool.push(lo);
                    stack.push(v);
                }
                POp::InList { negated, n: ln } => {
                    let mut items: Vec<Vec<Value>> = Vec::with_capacity(*ln);
                    for _ in 0..*ln {
                        items.push(vpop(&mut stack, n));
                    }
                    let mut v = vpop(&mut stack, n);
                    for i in 0..n {
                        let mut hit: Option<bool> = Some(false);
                        for item in &items {
                            match v[i].sql_eq(&item[i]) {
                                Some(true) => {
                                    hit = Some(true);
                                    break;
                                }
                                None => hit = None,
                                Some(false) => {}
                            }
                        }
                        v[i] = from_tri(if *negated { not3(hit) } else { hit });
                    }
                    pool.extend(items);
                    stack.push(v);
                }
                POp::LikeConst { negated, matcher } => {
                    let mut v = vpop(&mut stack, n);
                    for x in v.iter_mut() {
                        *x = like_const_value(x, matcher, *negated);
                    }
                    stack.push(v);
                }
                POp::LikeDyn { negated } => {
                    let p = vpop(&mut stack, n);
                    let mut v = vpop(&mut stack, n);
                    for i in 0..n {
                        v[i] = like_dyn_value(&v[i], &p[i], *negated);
                    }
                    pool.push(p);
                    stack.push(v);
                }
                POp::Arith(opc) => {
                    let r = vpop(&mut stack, n);
                    let mut l = vpop(&mut stack, n);
                    for i in 0..n {
                        l[i] = arith(*opc, &l[i], &r[i]);
                    }
                    pool.push(r);
                    stack.push(l);
                }
                POp::Neg => {
                    let mut v = vpop(&mut stack, n);
                    for x in v.iter_mut() {
                        *x = neg_value(std::mem::replace(x, Value::Null));
                    }
                    stack.push(v);
                }
                POp::Call { name, argc } => {
                    let mut args: Vec<Vec<Value>> = Vec::with_capacity(*argc);
                    for _ in 0..*argc {
                        args.push(vpop(&mut stack, n));
                    }
                    args.reverse();
                    let mut c = take(&mut pool, n);
                    let mut buf: Vec<Value> = Vec::with_capacity(*argc);
                    for i in 0..n {
                        buf.clear();
                        buf.extend(args.iter().map(|a| a[i].clone()));
                        c.push(scalar_function_upper(name, &buf).unwrap_or(Value::Null));
                    }
                    pool.extend(args);
                    stack.push(c);
                }
                POp::Case {
                    has_operand,
                    branches,
                    has_else,
                } => {
                    let total = usize::from(*has_operand) + 2 * branches + usize::from(*has_else);
                    let mut parts: Vec<Vec<Value>> = Vec::with_capacity(total);
                    for _ in 0..total {
                        parts.push(vpop(&mut stack, n));
                    }
                    parts.reverse();
                    let mut c = take(&mut pool, n);
                    let mut buf: Vec<Value> = Vec::with_capacity(total);
                    for i in 0..n {
                        buf.clear();
                        buf.extend(parts.iter().map(|p| p[i].clone()));
                        c.push(case_value(&buf, *has_operand, *branches, *has_else));
                    }
                    pool.extend(parts);
                    stack.push(c);
                }
                POp::Cast(ty) => {
                    let mut v = vpop(&mut stack, n);
                    for x in v.iter_mut() {
                        *x = cast_typed(x, *ty);
                    }
                    stack.push(v);
                }
                POp::ScalarSlot(slot) => {
                    let val = match cx.slots.get(*slot) {
                        Some(SlotVal::Scalar(v)) => v.clone(),
                        _ => Value::Null,
                    };
                    let mut c = take(&mut pool, n);
                    c.resize(n, val);
                    stack.push(c);
                }
                POp::InSlot { negated, slot } => {
                    let mut v = vpop(&mut stack, n);
                    for x in v.iter_mut() {
                        *x = in_slot_value(x, cx.slots.get(*slot), *negated);
                    }
                    stack.push(v);
                }
                POp::ExistsSlot { negated, slot } => {
                    let val = match cx.slots.get(*slot) {
                        Some(SlotVal::Set(vals)) => Value::Bool(vals.is_empty() == *negated),
                        _ => Value::Null,
                    };
                    let mut c = take(&mut pool, n);
                    c.resize(n, val);
                    stack.push(c);
                }
                // unreachable: guarded by the per-row fallback above
                POp::SkipIfEmptyGroup(_) | POp::Agg(_) => {}
            }
        }
        match stack.pop() {
            Some(top) => out.extend(top),
            None => out.resize(n, Value::Null),
        }
    }

    /// Clone with every column reference rewritten through `f` (used when
    /// a filter compiled against the canonical layout is applied to a
    /// reordered working layout).
    pub fn remap_cols(&self, f: impl Fn(usize) -> usize) -> Program {
        Program {
            ops: self
                .ops
                .iter()
                .map(|op| match op {
                    POp::Col(i) => POp::Col(f(*i)),
                    other => other.clone(),
                })
                .collect(),
        }
    }
}

/// Pop with a NULL default — unreachable for compiler-emitted programs,
/// but keeps evaluation total.
fn pop(stack: &mut Vec<Value>) -> Value {
    stack.pop().unwrap_or(Value::Null)
}

/// Batch-stack pop with an all-NULL default.
fn vpop(stack: &mut Vec<Vec<Value>>, n: usize) -> Vec<Value> {
    stack.pop().unwrap_or_else(|| vec![Value::Null; n])
}

/// Grab a cleared vector from the pool (or a fresh one).
fn take(pool: &mut Vec<Vec<Value>>, n: usize) -> Vec<Value> {
    let mut v = pool.pop().unwrap_or_default();
    v.clear();
    v.reserve(n);
    v
}

pub(crate) fn between_value(v: &Value, lo: &Value, hi: &Value, negated: bool) -> Value {
    let ge = v.sql_cmp(lo).map(|o| o != std::cmp::Ordering::Less);
    let le = v.sql_cmp(hi).map(|o| o != std::cmp::Ordering::Greater);
    let inside = and3(ge, le);
    from_tri(if negated { not3(inside) } else { inside })
}

pub(crate) fn like_const_value(v: &Value, matcher: &LikeMatcher, negated: bool) -> Value {
    match v {
        Value::Str(s) => Value::Bool(matcher.matches(s) != negated),
        Value::Null => Value::Null,
        _ => Value::Bool(false),
    }
}

fn like_dyn_value(v: &Value, p: &Value, negated: bool) -> Value {
    match (v, p) {
        (Value::Str(s), Value::Str(pat)) => {
            Value::Bool(LikeMatcher::new(pat).matches(s) != negated)
        }
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        _ => Value::Bool(false),
    }
}

fn neg_value(v: Value) -> Value {
    match v {
        Value::Num(x) => Value::Num(-x),
        _ => Value::Null,
    }
}

/// CASE over a stack slice laid out as `[operand?] w1 t1 … wk tk [else?]`.
fn case_value(parts: &[Value], has_operand: bool, branches: usize, has_else: bool) -> Value {
    let pairs = usize::from(has_operand);
    for k in 0..branches {
        let w = match parts.get(pairs + 2 * k) {
            Some(w) => w,
            None => return Value::Null,
        };
        let hit = if has_operand {
            parts.first().and_then(|op| op.sql_eq(w)) == Some(true)
        } else {
            w.is_truthy()
        };
        if hit {
            return parts.get(pairs + 2 * k + 1).cloned().unwrap_or(Value::Null);
        }
    }
    if has_else {
        parts
            .get(pairs + 2 * branches)
            .cloned()
            .unwrap_or(Value::Null)
    } else {
        Value::Null
    }
}

pub(crate) fn in_slot_value(v: &Value, slot: Option<&SlotVal>, negated: bool) -> Value {
    let mut hit: Option<bool> = Some(false);
    if let Some(SlotVal::Set(vals)) = slot {
        for x in vals {
            match v.sql_eq(x) {
                Some(true) => {
                    hit = Some(true);
                    break;
                }
                None => hit = None,
                Some(false) => {}
            }
        }
    }
    from_tri(if negated { not3(hit) } else { hit })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(ops: Vec<POp>) -> Value {
        let p = Program::new(ops);
        let mut cx = EvalCx::plain(&[]);
        p.eval(&[], &mut cx)
    }

    #[test]
    fn constant_folding_collapses_pure_programs() {
        let p = Program::new(vec![
            POp::Const(Value::Num(2.0)),
            POp::Const(Value::Num(3.0)),
            POp::Arith('+'),
        ]);
        assert!(matches!(p.ops.as_slice(), [POp::Const(Value::Num(x))] if *x == 5.0));
        // a column reference blocks folding
        let p = Program::new(vec![
            POp::Col(0),
            POp::Const(Value::Num(3.0)),
            POp::Arith('+'),
        ]);
        assert_eq!(p.ops.len(), 3);
    }

    #[test]
    fn three_valued_logic_matches_sql() {
        let null = POp::Const(Value::Null);
        let t = POp::Const(Value::Bool(true));
        let f = POp::Const(Value::Bool(false));
        assert_eq!(
            eval(vec![null.clone(), f.clone(), POp::And3]),
            Value::Bool(false)
        );
        assert_eq!(eval(vec![null.clone(), t.clone(), POp::And3]), Value::Null);
        assert_eq!(
            eval(vec![null.clone(), t.clone(), POp::Or3]),
            Value::Bool(true)
        );
        assert_eq!(eval(vec![null.clone(), f.clone(), POp::Or3]), Value::Null);
        assert_eq!(eval(vec![null.clone(), POp::Not3]), Value::Null);
        assert_eq!(
            eval(vec![null, POp::IsNull { negated: false }]),
            Value::Bool(true)
        );
    }

    #[test]
    fn in_list_has_unknown_semantics() {
        // 2 IN (1, NULL) is UNKNOWN; 1 IN (1, NULL) is TRUE
        let prog = |v: f64| {
            vec![
                POp::Const(Value::Num(v)),
                POp::Const(Value::Num(1.0)),
                POp::Const(Value::Null),
                POp::InList {
                    negated: false,
                    n: 2,
                },
            ]
        };
        assert_eq!(eval(prog(2.0)), Value::Null);
        assert_eq!(eval(prog(1.0)), Value::Bool(true));
    }

    #[test]
    fn empty_group_guard_skips_the_subtree() {
        // guard(Col 0 + 1) over an empty group yields NULL, not an eval
        let p = Program::new(vec![
            POp::SkipIfEmptyGroup(3),
            POp::Col(0),
            POp::Const(Value::Num(1.0)),
            POp::Arith('+'),
        ]);
        let mut cx = EvalCx::plain(&[]);
        cx.empty_group = true;
        assert_eq!(p.eval(&[], &mut cx), Value::Null);
        cx.empty_group = false;
        assert_eq!(p.eval(&[Value::Num(4.0)], &mut cx), Value::Num(5.0));
    }

    #[test]
    fn case_selects_the_first_hit_branch() {
        // CASE WHEN false THEN 1 WHEN true THEN 2 ELSE 3 END
        let v = eval(vec![
            POp::Const(Value::Bool(false)),
            POp::Const(Value::Num(1.0)),
            POp::Const(Value::Bool(true)),
            POp::Const(Value::Num(2.0)),
            POp::Const(Value::Num(3.0)),
            POp::Case {
                has_operand: false,
                branches: 2,
                has_else: true,
            },
        ]);
        assert_eq!(v, Value::Num(2.0));
    }

    #[test]
    fn batch_evaluation_agrees_with_scalar() {
        // (col0 + 2) > 3 AND col1 LIKE 'a%'
        let p = Program::new(vec![
            POp::Col(0),
            POp::Const(Value::Num(2.0)),
            POp::Arith('+'),
            POp::Const(Value::Num(3.0)),
            POp::Cmp(CompareOp::Gt),
            POp::Col(1),
            POp::LikeConst {
                negated: false,
                matcher: LikeMatcher::new("a%"),
            },
            POp::And3,
        ]);
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Num(5.0), Value::str("abc")],
            vec![Value::Num(0.0), Value::str("abc")],
            vec![Value::Null, Value::str("xyz")],
            vec![Value::Num(9.0), Value::Null],
        ];
        let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut cx = EvalCx::plain(&[]);
        let mut out = Vec::new();
        p.eval_batch(&refs, &mut cx, &mut out);
        let scalar: Vec<Value> = rows.iter().map(|r| p.eval(r, &mut cx)).collect();
        assert_eq!(out, scalar);
        assert_eq!(out[0], Value::Bool(true));
    }
}
