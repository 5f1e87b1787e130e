//! Compiled vectorized execution engine.
//!
//! [`compile_query`] lowers a parsed [`Query`] into a [`CompiledQuery`]: a
//! DAG of columnar batch operators (scan → filter → hash-join → aggregate
//! → sort/limit) whose predicates are flat postfix [`Program`]s
//! ([`crate::program`]) with columns resolved to row offsets, constants
//! folded, and `LIKE` patterns pre-compiled. The [`crate::cost::CostModel`]
//! drives physical choices at compile time: comma-join order
//! ([`crate::plan::greedy_join_order`]), hash- vs nested-loop joins, and
//! whether a `col = constant` scan probes a cached hash index
//! ([`crate::index`]).
//!
//! **Coverage by construction.** The compiler is partial on purpose: any
//! construct whose compiled semantics have not been proven equal to the
//! reference interpreter ([`crate::reference`]) rejects compilation
//! (`None`), and [`crate::execute_query`] runs the whole query on the
//! reference interpreter instead. Compiled programs are *total* — the
//! compiler only emits operations that cannot error at runtime — which is
//! what makes eager, batched evaluation value-identical to the reference
//! interpreter's short-circuiting tree walk (errors are the only
//! observable effect of evaluation order). The equivalence is additionally
//! pinned by the differential fuzzer (`squ-fuzz`), which runs every
//! generated query and every transform output on both engines.
//!
//! A [`CompiledQuery`] borrows nothing from the database, so one compile
//! can be executed against many same-schema witness databases (the perf
//! harness does exactly that). Runtime guards turn any compile/execute
//! drift — missing table, arity change — into clean [`ExecError`]s.

use crate::cost::CostModel;
use crate::exec::{
    aggregate_value, combine_set, equi_join_columns, exprs_equal_modulo_case, is_supported_scalar,
    projection_names, split_conjuncts, ExecError, ExecStats, QCol, MAX_INTERMEDIATE_ROWS,
};
use crate::index::indexes_enabled;
use crate::like::LikeMatcher;
use crate::program::{EvalCx, POp, Program, SlotVal, BATCH_SIZE};
use crate::{Database, Relation, Value};
use squ_parser::ast::*;
use squ_parser::CompareOp;
use squ_schema::SqlType;
use std::cmp::Ordering;
use std::collections::HashMap;

const EMPTY_ROW: &[Value] = &[];

/// A query lowered to the physical operator DAG, ready to execute against
/// any database with the schema it was compiled for.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    phys: PhysQuery,
}

/// Compile `q` for execution against databases shaped like `db`.
///
/// Returns `None` when any part of the query uses a construct the
/// compiled engine does not cover; [`crate::execute_query`] then falls
/// back to [`crate::reference_query`].
pub fn compile_query(q: &Query, db: &Database) -> Option<CompiledQuery> {
    let mut c = Compiler {
        db,
        cost: CostModel::default(),
        ctes: Vec::new(),
        strict: false,
    };
    Some(CompiledQuery {
        phys: c.compile_q(q)?,
    })
}

impl CompiledQuery {
    /// Execute against `db`, producing the result relation and stats.
    pub fn execute(&self, db: &Database) -> Result<(Relation, ExecStats), ExecError> {
        let mut stats = ExecStats {
            compiled: 1,
            ..ExecStats::default()
        };
        let rel = self.phys.exec(db, None, &mut stats)?;
        stats.rows_output = rel.rows.len() as u64;
        Ok((rel, stats))
    }

    /// Output column names of the compiled query.
    pub fn out_cols(&self) -> &[String] {
        self.phys.out_cols()
    }
}

// ----- physical plan types -----

#[derive(Debug, Clone)]
struct PhysQuery {
    /// CTE bodies in declaration order (runtime materializes sequentially).
    ctes: Vec<PhysQuery>,
    body: PhysSet,
    /// Effective row limit: `LIMIT n`, or a top-level `SELECT TOP n`.
    limit: Option<u64>,
}

#[derive(Debug, Clone)]
enum PhysSet {
    Select(Box<PhysSelect>),
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<PhysSet>,
        right: Box<PhysSet>,
        /// Pre-resolved top-level ORDER BY keys (output positions).
        keys: Vec<(usize, bool)>,
    },
}

/// One compiled SELECT block.
#[derive(Debug, Clone)]
struct PhysSelect {
    /// FROM units in declaration (canonical) order.
    units: Vec<PhysNode>,
    /// Cost-chosen execution order over `units` (identity when n < 3).
    exec_order: Vec<usize>,
    /// Did the planner deviate from declaration order?
    reordered: bool,
    /// Late-materialization spec: for each canonical column the query
    /// actually reads, the `(executed step, local column)` to gather it
    /// from; `None` columns are never read downstream and materialize as
    /// NULL without touching the source rows.
    mat: Vec<Option<(u32, u32)>>,
    /// Access path for the first executed unit.
    access: Access,
    /// WHERE conjuncts, compiled; `step` = earliest executed step at which
    /// all referenced units are joined (None = deferred to the end:
    /// contains a subquery).
    filters: Vec<CFilter>,
    /// Join strategy for executed steps 1..n.
    steps: Vec<StepJoin>,
    /// Uncorrelated subqueries, evaluated once per execution.
    slots: Vec<PhysSlot>,
    /// Grouping/aggregation, when the block is grouped.
    grouping: Option<Grouping>,
    /// Plain projection items (unused when grouped).
    items: Vec<ProjItem>,
    /// ORDER BY keys with descending flags.
    order: Vec<(OrderKey, bool)>,
    distinct: bool,
    /// `SELECT TOP n` on this block (hoisted to the query level by the
    /// compiler when this block is the query body).
    top: Option<u64>,
    /// Output column names.
    out_cols: Vec<String>,
    /// The semantic analyzer proved the WHERE clause unsatisfiable at
    /// compile time: this ungrouped block can never emit a row, so
    /// execution skips scans, joins, and subquery slots entirely.
    empty_prune: bool,
}

#[derive(Debug, Clone)]
enum PhysNode {
    Scan { src: ScanSrc, width: usize },
    Derived(Box<PhysQuery>),
    Join(Box<JoinNode>),
}

#[derive(Debug, Clone)]
enum ScanSrc {
    /// Base table by name.
    Table(String),
    /// CTE `pos` in the frame `up` levels out.
    Cte { up: usize, pos: usize },
}

#[derive(Debug, Clone)]
struct JoinNode {
    left: PhysNode,
    right: PhysNode,
    kind: JoinKind,
    on: JOn,
    /// Left / right side widths (for NULL padding in outer joins).
    lw: usize,
    rw: usize,
}

#[derive(Debug, Clone)]
enum JOn {
    None,
    Prog {
        prog: Program,
        /// `(left offset, right offset)` when ON is a single qualified
        /// equality — enables the hash path for large inputs.
        equi: Option<(usize, usize)>,
        /// By-reference fast path over the combined `(lrow, rrow)`
        /// layout — skips the per-pair scratch-row materialization in
        /// the nested loop.
        fast: Option<FastPred>,
    },
    Using(Vec<(usize, usize)>),
}

#[derive(Debug, Clone)]
enum Access {
    Full,
    /// Probe the `(table, col)` hash index with `key`; when taken, the
    /// filter at `filter_idx` is already satisfied and is skipped.
    IndexEq {
        col: usize,
        key: Value,
        filter_idx: usize,
    },
}

#[derive(Debug, Clone)]
struct CFilter {
    /// Canonical-layout predicate, used on the single-unit fast paths
    /// where the working row IS the canonical row.
    prog: Program,
    /// Executed step after which the filter can run; None = deferred.
    step: Option<usize>,
    /// Columns the predicate reads, as `(executed step, local column)`
    /// gather coordinates — `compose` evaluates over just these instead
    /// of materializing full join rows.
    gather: Vec<(u32, u32)>,
    /// `prog` remapped so column `i` reads `gather[i]`.
    gprog: Program,
    /// Single-comparison fast path, evaluated by reference (no clones,
    /// no program dispatch). `None` falls back to batched evaluation.
    fast: Option<FastPred>,
}

/// One predicate operand, pre-resolved to a gather coordinate or an
/// inlined constant.
#[derive(Debug, Clone)]
enum ValRef {
    Col((u32, u32)),
    Const(Value),
    /// Scalar subquery slot, resolved against the evaluation slots.
    Slot(usize),
}

/// A predicate tree of comparisons, NULL tests, and three-valued
/// AND/OR/NOT, pre-resolved to gather coordinates so it evaluates on
/// borrowed [`Value`]s with no clones and no program dispatch.
/// Semantically identical to running the program: each node calls the
/// same `crate::exec` helper its `POp` counterpart dispatches to.
#[derive(Debug, Clone)]
enum FastPred {
    Cmp {
        l: ValRef,
        r: ValRef,
        op: CompareOp,
    },
    IsNull {
        v: ValRef,
        negated: bool,
    },
    Between {
        v: ValRef,
        lo: ValRef,
        hi: ValRef,
        negated: bool,
    },
    InList {
        v: ValRef,
        items: Vec<ValRef>,
        negated: bool,
    },
    LikeConst {
        v: ValRef,
        matcher: LikeMatcher,
        negated: bool,
    },
    InSlot {
        v: ValRef,
        slot: usize,
        negated: bool,
    },
    Exists {
        slot: usize,
        negated: bool,
    },
    And(Box<FastPred>, Box<FastPred>),
    Or(Box<FastPred>, Box<FastPred>),
    Not(Box<FastPred>),
}

const NULL_VALUE: Value = Value::Null;

/// Mixed operand/predicate stack entry used while pattern-matching a
/// postfix program into a [`FastPred`] tree.
enum FpNode {
    Val(ValRef),
    Pred(FastPred),
}

impl FastPred {
    /// Build from a gather-remapped program when every op is a
    /// comparison, NULL test, BETWEEN, constant-pattern LIKE, IN,
    /// subquery-slot test, or boolean combinator. Any other op
    /// (arithmetic, CASE, dynamic LIKE, aggregates, ...) bails to the
    /// batched evaluator.
    fn of(gprog: &Program, gather: &[(u32, u32)]) -> Option<FastPred> {
        let mut stack: Vec<FpNode> = Vec::new();
        for op in &gprog.ops {
            match op {
                POp::Col(i) => stack.push(FpNode::Val(ValRef::Col(gather.get(*i).copied()?))),
                POp::Const(v) => stack.push(FpNode::Val(ValRef::Const(v.clone()))),
                POp::ScalarSlot(slot) => stack.push(FpNode::Val(ValRef::Slot(*slot))),
                POp::Cmp(c) => {
                    let (FpNode::Val(r), FpNode::Val(l)) = (stack.pop()?, stack.pop()?) else {
                        return None;
                    };
                    stack.push(FpNode::Pred(FastPred::Cmp { l, r, op: *c }));
                }
                POp::IsNull { negated } => {
                    let FpNode::Val(v) = stack.pop()? else {
                        return None;
                    };
                    stack.push(FpNode::Pred(FastPred::IsNull {
                        v,
                        negated: *negated,
                    }));
                }
                POp::And3 | POp::Or3 => {
                    let (FpNode::Pred(b), FpNode::Pred(a)) = (stack.pop()?, stack.pop()?) else {
                        return None;
                    };
                    let node = if matches!(op, POp::And3) {
                        FastPred::And(Box::new(a), Box::new(b))
                    } else {
                        FastPred::Or(Box::new(a), Box::new(b))
                    };
                    stack.push(FpNode::Pred(node));
                }
                POp::Not3 => {
                    let FpNode::Pred(a) = stack.pop()? else {
                        return None;
                    };
                    stack.push(FpNode::Pred(FastPred::Not(Box::new(a))));
                }
                POp::Between { negated } => {
                    let (FpNode::Val(hi), FpNode::Val(lo), FpNode::Val(v)) =
                        (stack.pop()?, stack.pop()?, stack.pop()?)
                    else {
                        return None;
                    };
                    stack.push(FpNode::Pred(FastPred::Between {
                        v,
                        lo,
                        hi,
                        negated: *negated,
                    }));
                }
                POp::InList { negated, n } => {
                    let mut items: Vec<ValRef> = Vec::with_capacity(*n);
                    for _ in 0..*n {
                        let FpNode::Val(x) = stack.pop()? else {
                            return None;
                        };
                        items.push(x);
                    }
                    // popped last-to-first; restore the program's
                    // left-to-right probe order
                    items.reverse();
                    let FpNode::Val(v) = stack.pop()? else {
                        return None;
                    };
                    stack.push(FpNode::Pred(FastPred::InList {
                        v,
                        items,
                        negated: *negated,
                    }));
                }
                POp::LikeConst { negated, matcher } => {
                    let FpNode::Val(v) = stack.pop()? else {
                        return None;
                    };
                    stack.push(FpNode::Pred(FastPred::LikeConst {
                        v,
                        matcher: matcher.clone(),
                        negated: *negated,
                    }));
                }
                POp::InSlot { negated, slot } => {
                    let FpNode::Val(v) = stack.pop()? else {
                        return None;
                    };
                    stack.push(FpNode::Pred(FastPred::InSlot {
                        v,
                        slot: *slot,
                        negated: *negated,
                    }));
                }
                POp::ExistsSlot { negated, slot } => {
                    stack.push(FpNode::Pred(FastPred::Exists {
                        slot: *slot,
                        negated: *negated,
                    }));
                }
                _ => return None,
            }
        }
        match (stack.pop()?, stack.is_empty()) {
            (FpNode::Pred(p), true) => Some(p),
            _ => None,
        }
    }

    /// Three-valued evaluation; `at` resolves a gather coordinate and
    /// `slots` holds pre-evaluated subquery results.
    fn eval_tri<'a, F>(&'a self, at: &F, slots: &'a [SlotVal]) -> Option<bool>
    where
        F: Fn((u32, u32)) -> &'a Value,
    {
        let val = |v: &'a ValRef| -> &'a Value {
            match v {
                ValRef::Col(c) => at(*c),
                ValRef::Const(k) => k,
                ValRef::Slot(i) => match slots.get(*i) {
                    Some(SlotVal::Scalar(s)) => s,
                    _ => &NULL_VALUE,
                },
            }
        };
        match self {
            FastPred::Cmp { l, r, op } => {
                crate::exec::tri(&crate::exec::compare(*op, val(l), val(r)))
            }
            FastPred::IsNull { v, negated } => Some(val(v).is_null() != *negated),
            FastPred::Between { v, lo, hi, negated } => crate::exec::tri(
                &crate::program::between_value(val(v), val(lo), val(hi), *negated),
            ),
            FastPred::InList { v, items, negated } => {
                let v = val(v);
                let mut hit: Option<bool> = Some(false);
                for item in items {
                    match v.sql_eq(val(item)) {
                        Some(true) => {
                            hit = Some(true);
                            break;
                        }
                        None => hit = None,
                        Some(false) => {}
                    }
                }
                if *negated {
                    crate::exec::not3(hit)
                } else {
                    hit
                }
            }
            FastPred::LikeConst {
                v,
                matcher,
                negated,
            } => crate::exec::tri(&crate::program::like_const_value(val(v), matcher, *negated)),
            FastPred::InSlot { v, slot, negated } => crate::exec::tri(
                &crate::program::in_slot_value(val(v), slots.get(*slot), *negated),
            ),
            FastPred::Exists { slot, negated } => match slots.get(*slot) {
                Some(SlotVal::Set(vals)) => Some(vals.is_empty() == *negated),
                _ => None,
            },
            FastPred::And(a, b) => crate::exec::and3(a.eval_tri(at, slots), b.eval_tri(at, slots)),
            FastPred::Or(a, b) => crate::exec::or3(a.eval_tri(at, slots), b.eval_tri(at, slots)),
            FastPred::Not(a) => crate::exec::not3(a.eval_tri(at, slots)),
        }
    }

    fn eval_tuple(&self, sources: &[SourceRows<'_>], t: &[u32], slots: &[SlotVal]) -> bool {
        self.eval_tri(&|c: (u32, u32)| gather_ref(sources, t, c.0, c.1), slots) == Some(true)
    }

    /// Evaluate against a single base row (single-unit plans: every
    /// gather coordinate has step 0 and `local` indexes the row).
    fn eval_row(&self, row: &[Value], slots: &[SlotVal]) -> bool {
        self.eval_tri(
            &|c: (u32, u32)| row.get(c.1 as usize).unwrap_or(&NULL_VALUE),
            slots,
        ) == Some(true)
    }
}

#[derive(Debug, Clone)]
struct StepJoin {
    hash: Option<HashSpec>,
}

/// Hash-join spec for one comma step: build on the incoming unit's
/// `unit_col`, probe with the column gathered from the already-joined
/// tuple at `(acc_step, acc_local)`. The equality filter at `filter_idx`
/// is consumed by the join.
#[derive(Debug, Clone)]
struct HashSpec {
    acc_step: usize,
    acc_local: usize,
    unit_col: usize,
    filter_idx: usize,
    /// `None`: always hash (cost-model decision for WHERE equalities).
    /// `Some(t)`: hash only when the step's row product exceeds `t` —
    /// mirrors [`exec_join`]'s fast path so flattened INNER joins report
    /// the same `join_pairs` as unflattened ones; below the threshold the
    /// step nested-loops and the ON filter runs normally.
    threshold: Option<usize>,
}

/// Product threshold above which an explicit single-equality join switches
/// from nested loop to hash: below it the loop is cheaper than building
/// the table.
const EXPLICIT_JOIN_HASH_MIN: usize = 4096;

#[derive(Debug, Clone)]
struct PhysSlot {
    /// Scalar subquery (single value) vs IN/EXISTS row set.
    scalar: bool,
    query: PhysQuery,
}

#[derive(Debug, Clone)]
struct Grouping {
    keys: Vec<Program>,
    aggs: Vec<AggSpec>,
    having: Option<Program>,
    items: Vec<Program>,
}

#[derive(Debug, Clone)]
struct AggSpec {
    upper: String,
    /// None = `COUNT(*)`.
    arg: Option<Program>,
    distinct: bool,
}

#[derive(Debug, Clone)]
enum ProjItem {
    /// `SELECT *`.
    All,
    /// `SELECT t.*` — pre-resolved column offsets.
    Qualified(Vec<usize>),
    Expr(Program),
}

#[derive(Debug, Clone)]
enum OrderKey {
    /// Sort by output column `i` (alias / item match).
    Output(usize),
    /// Sort by an expression over the working row.
    Plain(Program),
    /// Sort by a grouped expression (aggregates allowed).
    Grouped(Program),
}

/// Compile-time CTE metadata for one declaration.
#[derive(Debug, Clone)]
struct CteMeta {
    name: String,
    cols: Vec<String>,
}

struct Compiler<'a> {
    db: &'a Database,
    cost: CostModel,
    /// CTE scopes, innermost last; each level lists declarations in order.
    ctes: Vec<Vec<CteMeta>>,
    /// Inside a subquery slot: restrict to single-table scans so the
    /// runtime cannot hit the row budget (slots are evaluated eagerly,
    /// and an eager ResourceLimit must not differ from the lazy one of
    /// `reference.rs`).
    strict: bool,
}

impl<'a> Compiler<'a> {
    fn compile_q(&mut self, q: &Query) -> Option<PhysQuery> {
        self.ctes.push(Vec::new());
        let out = self.compile_q_inner(q);
        self.ctes.pop();
        out
    }

    fn compile_q_inner(&mut self, q: &Query) -> Option<PhysQuery> {
        let mut ctes = Vec::with_capacity(q.ctes.len());
        for cte in &q.ctes {
            // the body sees only *earlier* declarations at this level
            // (meta is pushed after compiling), as in `reference.rs`,
            // where a self-reference resolves to an outer CTE or table.
            let body = self.compile_q(&cte.query)?;
            let meta = CteMeta {
                name: cte.name.clone(),
                cols: body.out_cols().to_vec(),
            };
            self.ctes.last_mut()?.push(meta);
            ctes.push(body);
        }
        let body = self.compile_set(&q.body, &q.order_by)?;
        // `reference.rs` applies LIMIT/TOP only at the query level; a TOP
        // on a set-operation side is (bug-compatibly) ignored.
        let limit = q.limit.or(match &body {
            PhysSet::Select(s) => s.top,
            PhysSet::SetOp { .. } => None,
        });
        Some(PhysQuery { ctes, body, limit })
    }

    /// Resolve a FROM name against CTE scopes: the latest declaration at
    /// the innermost level whose name matches ASCII-case-insensitively, as
    /// in `reference.rs`. Returns `(levels up, position, columns)`.
    fn lookup_cte(&self, name: &str) -> Option<(usize, usize, &[String])> {
        self.ctes.iter().rev().enumerate().find_map(|(up, level)| {
            let pos = level
                .iter()
                .rposition(|meta| meta.name.eq_ignore_ascii_case(name))?;
            Some((up, pos, level[pos].cols.as_slice()))
        })
    }

    fn compile_set(&mut self, body: &SetExpr, order_by: &[OrderItem]) -> Option<PhysSet> {
        match body {
            SetExpr::Select(s) => {
                Some(PhysSet::Select(Box::new(self.compile_select(s, order_by)?)))
            }
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let l = self.compile_set(left, &[])?;
                let r = self.compile_set(right, &[])?;
                // `reference.rs` sorts set-op results by *output column
                // name* only; anything else is Unsupported → reject so the
                // fallback reproduces the error.
                let lcols = l.cols();
                let mut keys = Vec::with_capacity(order_by.len());
                for item in order_by {
                    let Expr::Column(c) = &item.expr else {
                        return None;
                    };
                    if c.qualifier.is_some() {
                        return None;
                    }
                    let idx = lcols.iter().position(|n| n.eq_ignore_ascii_case(&c.name))?;
                    keys.push((idx, item.desc));
                }
                Some(PhysSet::SetOp {
                    op: *op,
                    all: *all,
                    left: Box::new(l),
                    right: Box::new(r),
                    keys,
                })
            }
        }
    }

    /// Compile one FROM unit. Returns the node, its qualified columns, and
    /// a cardinality estimate for the planner.
    fn compile_table_ref(&mut self, tr: &TableRef) -> Option<(PhysNode, Vec<QCol>, f64)> {
        match tr {
            TableRef::Named { name, alias } => {
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                match self.lookup_cte(name) {
                    Some((up, pos, cols)) => {
                        let qcols = cols
                            .iter()
                            .map(|c| QCol {
                                binding: Some(binding.clone()),
                                name: c.clone(),
                            })
                            .collect::<Vec<_>>();
                        let width = qcols.len();
                        Some((
                            PhysNode::Scan {
                                src: ScanSrc::Cte { up, pos },
                                width,
                            },
                            qcols,
                            self.cost.default_card,
                        ))
                    }
                    None => {
                        let rel = self.db.table(name)?;
                        let qcols = rel
                            .columns
                            .iter()
                            .map(|c| QCol {
                                binding: Some(binding.clone()),
                                name: c.clone(),
                            })
                            .collect::<Vec<_>>();
                        let width = qcols.len();
                        Some((
                            PhysNode::Scan {
                                src: ScanSrc::Table(name.clone()),
                                width,
                            },
                            qcols,
                            rel.rows.len() as f64,
                        ))
                    }
                }
            }
            TableRef::Derived { query, alias } => {
                if self.strict {
                    return None;
                }
                let pq = self.compile_q(query)?;
                let binding = alias.clone().unwrap_or_default();
                let qcols = pq
                    .out_cols()
                    .iter()
                    .map(|c| QCol {
                        binding: Some(binding.clone()),
                        name: c.clone(),
                    })
                    .collect::<Vec<_>>();
                Some((
                    PhysNode::Derived(Box::new(pq)),
                    qcols,
                    self.cost.default_card,
                ))
            }
            TableRef::Join {
                left,
                right,
                kind,
                constraint,
            } => {
                if self.strict {
                    return None;
                }
                let (lnode, lcols, lest) = self.compile_table_ref(left)?;
                let (rnode, rcols, rest) = self.compile_table_ref(right)?;
                let mut combined = lcols.clone();
                combined.extend(rcols.iter().cloned());
                let mut no_slots = Vec::new();
                let on = match constraint {
                    JoinConstraint::None => JOn::None,
                    JoinConstraint::On(e) => {
                        let equi = equi_join_columns(e, &lcols, &rcols);
                        let ops = self.compile_plain(e, &combined, &mut no_slots, false)?;
                        let prog = Program::new(ops);
                        let identity: Vec<(u32, u32)> =
                            (0..combined.len() as u32).map(|i| (0, i)).collect();
                        let fast = FastPred::of(&prog, &identity);
                        JOn::Prog { prog, equi, fast }
                    }
                    JoinConstraint::Using(names) => {
                        let mut pairs = Vec::with_capacity(names.len());
                        for n in names {
                            let li = lcols.iter().position(|c| c.name.eq_ignore_ascii_case(n))?;
                            let ri = rcols.iter().position(|c| c.name.eq_ignore_ascii_case(n))?;
                            pairs.push((li, ri));
                        }
                        JOn::Using(pairs)
                    }
                };
                let connected = matches!(&on, JOn::Prog { equi: Some(_), .. });
                let est = self.cost.comma_join_estimate(lest, rest, connected);
                Some((
                    PhysNode::Join(Box::new(JoinNode {
                        left: lnode,
                        right: rnode,
                        kind: *kind,
                        on,
                        lw: lcols.len(),
                        rw: rcols.len(),
                    })),
                    combined,
                    est,
                ))
            }
        }
    }
}

impl PhysQuery {
    fn out_cols(&self) -> &[String] {
        self.body.cols()
    }
}

impl PhysSet {
    fn cols(&self) -> &[String] {
        match self {
            PhysSet::Select(s) => &s.out_cols,
            PhysSet::SetOp { left, .. } => left.cols(),
        }
    }
}

// ----- SELECT block compilation -----

impl<'a> Compiler<'a> {
    /// Flatten one FROM unit into pipeline units. INNER joins decompose
    /// into their operands with the ON constraint lowered to a canonical
    /// conjunct (collected in `on_progs`), so they run through the tuple
    /// pipeline instead of materializing; outer joins and USING keep
    /// their opaque [`PhysNode::Join`]. Returns the subtree's columns;
    /// `base` is the canonical offset where they start.
    #[allow(clippy::too_many_arguments)]
    fn flatten_unit(
        &mut self,
        tr: &TableRef,
        base: usize,
        units: &mut Vec<PhysNode>,
        unit_cols: &mut Vec<Vec<QCol>>,
        est: &mut Vec<f64>,
        on_progs: &mut Vec<Program>,
    ) -> Option<Vec<QCol>> {
        if let TableRef::Join {
            left,
            right,
            kind: JoinKind::Inner,
            constraint,
        } = tr
        {
            if !self.strict && !matches!(constraint, JoinConstraint::Using(_)) {
                let lcols = self.flatten_unit(left, base, units, unit_cols, est, on_progs)?;
                let rcols =
                    self.flatten_unit(right, base + lcols.len(), units, unit_cols, est, on_progs)?;
                let mut combined = lcols;
                combined.extend(rcols.iter().cloned());
                if let JoinConstraint::On(e) = constraint {
                    // same restriction as the opaque join path: no
                    // subqueries inside ON
                    let mut no_slots = Vec::new();
                    let ops = self.compile_plain(e, &combined, &mut no_slots, false)?;
                    on_progs.push(Program::new(ops).remap_cols(|c| c + base));
                }
                return Some(combined);
            }
        }
        let (node, qcols, e) = self.compile_table_ref(tr)?;
        units.push(node);
        unit_cols.push(qcols.clone());
        est.push(e);
        Some(qcols)
    }

    fn compile_select(&mut self, s: &Select, order_by: &[OrderItem]) -> Option<PhysSelect> {
        // FROM units (INNER join trees flatten into the pipeline)
        let mut units = Vec::new();
        let mut unit_cols: Vec<Vec<QCol>> = Vec::new();
        let mut est: Vec<f64> = Vec::new();
        let mut on_progs: Vec<Program> = Vec::new();
        for tr in &s.from {
            let base = unit_cols.iter().map(|c| c.len()).sum();
            self.flatten_unit(
                tr,
                base,
                &mut units,
                &mut unit_cols,
                &mut est,
                &mut on_progs,
            )?;
        }
        if self.strict
            && (units.len() > 1 || units.iter().any(|u| !matches!(u, PhysNode::Scan { .. })))
        {
            return None;
        }
        let n = units.len();

        // canonical layout: FROM-order concatenation of unit columns
        let mut layout: Vec<QCol> = Vec::new();
        let mut unit_offsets = Vec::with_capacity(n);
        let mut col_unit: Vec<usize> = Vec::new();
        for (u, cols) in unit_cols.iter().enumerate() {
            unit_offsets.push(layout.len());
            for c in cols {
                layout.push(c.clone());
                col_unit.push(u);
            }
        }

        // WHERE conjuncts → canonical programs
        let mut slots: Vec<PhysSlot> = Vec::new();
        let mut conjuncts = Vec::new();
        if let Some(w) = &s.selection {
            split_conjuncts(w, &mut conjuncts);
        }
        // (program, deferred, from_on): ON conjuncts first — they run
        // before WHERE in the join-then-filter order of `reference.rs`
        let mut canon_filters: Vec<(Program, bool, bool)> =
            Vec::with_capacity(on_progs.len() + conjuncts.len());
        for p in on_progs {
            canon_filters.push((p, false, true));
        }
        for c in &conjuncts {
            let deferred = contains_subquery(c);
            let ops = self.compile_plain(c, &layout, &mut slots, true)?;
            canon_filters.push((Program::new(ops), deferred, false));
        }

        // join order: only comma lists of 3+ units are worth reordering
        // (the fuzzer emits at most two; hand-written Join-Order queries
        // use explicit JOIN nodes, which keep their shape)
        let exec_order = if n >= 3 {
            let mut edges = Vec::new();
            for (prog, deferred, _) in &canon_filters {
                if *deferred {
                    continue;
                }
                if let Some((a, b)) = equi_cols_of(prog) {
                    let (ua, ub) = (col_unit[a], col_unit[b]);
                    if ua != ub {
                        edges.push((ua, ub));
                    }
                }
            }
            crate::plan::greedy_join_order(&self.cost, &est, &edges)
        } else {
            (0..n).collect()
        };
        let reordered = exec_order.iter().enumerate().any(|(i, &u)| i != u);

        // executed position of each unit
        let mut exec_pos = vec![0usize; n];
        for (i, &u) in exec_order.iter().enumerate() {
            exec_pos[u] = i;
        }
        // canonical offset → (executed step, local column) gather coords
        let coord_of = |c: usize| {
            (
                exec_pos[col_unit[c]] as u32,
                (c - unit_offsets[col_unit[c]]) as u32,
            )
        };

        // filters: assign earliest step, precompute gather coordinates so
        // `compose` can evaluate them over unmaterialized tuples
        let mut filters = Vec::with_capacity(canon_filters.len());
        let from_on: Vec<bool> = canon_filters.iter().map(|(_, _, on)| *on).collect();
        for (prog, deferred, _) in &canon_filters {
            let step = if *deferred {
                None
            } else {
                Some(
                    prog.cols()
                        .map(|c| exec_pos[col_unit[c]])
                        .max()
                        .unwrap_or(0),
                )
            };
            let mut cols: Vec<usize> = prog.cols().collect();
            cols.sort_unstable();
            cols.dedup();
            let gather: Vec<(u32, u32)> = cols.iter().map(|&c| coord_of(c)).collect();
            let gprog = prog.remap_cols(|c| cols.binary_search(&c).unwrap_or(0));
            let fast = FastPred::of(&gprog, &gather);
            filters.push(CFilter {
                prog: prog.clone(),
                step,
                gather,
                gprog,
                fast,
            });
        }

        // per-step join strategy: consume the first eligible equality
        // filter as a hash join when the cost model approves
        let mut steps = Vec::with_capacity(n.saturating_sub(1));
        let mut consumed = vec![false; filters.len()];
        let mut acc = est
            .get(*exec_order.first().unwrap_or(&0))
            .copied()
            .unwrap_or(1.0)
            .max(1.0);
        for (k, &u) in exec_order.iter().enumerate().take(n).skip(1) {
            let unit_est = est[u].max(1.0);
            let mut hash = None;
            for (fi, f) in filters.iter().enumerate() {
                if consumed[fi] || f.step != Some(k) {
                    continue;
                }
                // ON-derived equalities always get a spec (gated at
                // runtime by `EXPLICIT_JOIN_HASH_MIN`); WHERE equalities
                // hash on the cost model's say-so
                if !from_on[fi] && !self.cost.hash_join_beneficial(acc, unit_est) {
                    continue;
                }
                let Some((a, b)) = equi_cols_of(&f.prog) else {
                    continue;
                };
                // one side on the incoming unit, the other already
                // joined at an earlier executed step
                let (acc_c, unit_c) = if col_unit[a] == u && exec_pos[col_unit[b]] < k {
                    (b, a)
                } else if col_unit[b] == u && exec_pos[col_unit[a]] < k {
                    (a, b)
                } else {
                    continue;
                };
                hash = Some(HashSpec {
                    acc_step: exec_pos[col_unit[acc_c]],
                    acc_local: acc_c - unit_offsets[col_unit[acc_c]],
                    unit_col: unit_c - unit_offsets[u],
                    filter_idx: fi,
                    threshold: from_on[fi].then_some(EXPLICIT_JOIN_HASH_MIN),
                });
                consumed[fi] = true;
                break;
            }
            acc = self.cost.comma_join_estimate(acc, unit_est, hash.is_some());
            steps.push(StepJoin { hash });
        }

        // access path: index probe on the first executed unit when it is a
        // base-table scan with a step-0 `col = constant` filter
        let mut access = Access::Full;
        if n > 0 {
            let u0 = exec_order[0];
            if matches!(
                &units[u0],
                PhysNode::Scan {
                    src: ScanSrc::Table(_),
                    ..
                }
            ) && self.cost.index_probe_beneficial(est[u0])
            {
                for (fi, f) in filters.iter().enumerate() {
                    if consumed[fi] || f.step != Some(0) {
                        continue;
                    }
                    if let Some((col, key)) = const_eq_of(&f.prog) {
                        // step 0 ⇒ the column belongs to u0; make it local
                        access = Access::IndexEq {
                            col: col - unit_offsets[u0],
                            key,
                            filter_idx: fi,
                        };
                        break;
                    }
                }
            }
        }

        // projection
        let has_aggregate = s
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || s.having.as_ref().is_some_and(|h| h.contains_aggregate())
            || order_by.iter().any(|o| o.expr.contains_aggregate());
        let grouped = !s.group_by.is_empty() || has_aggregate;
        let has_wildcard = s
            .items
            .iter()
            .any(|i| !matches!(i, SelectItem::Expr { .. }));
        let mut grouping = None;
        let mut items = Vec::new();
        if grouped {
            if has_wildcard {
                // `reference.rs` errors on wildcards in grouped queries;
                // reject so the fallback reproduces the error
                return None;
            }
            let mut keys = Vec::with_capacity(s.group_by.len());
            for g in &s.group_by {
                let ops = self.compile_plain(g, &layout, &mut slots, true)?;
                keys.push(Program::new(ops));
            }
            let mut aggs = Vec::new();
            let mut gitems = Vec::with_capacity(s.items.len());
            for item in &s.items {
                let SelectItem::Expr { expr, .. } = item else {
                    return None;
                };
                let ops = self.compile_grouped(expr, &layout, &mut slots, &mut aggs)?;
                gitems.push(Program::new(ops));
            }
            let having = match &s.having {
                Some(h) => {
                    let ops = self.compile_grouped(h, &layout, &mut slots, &mut aggs)?;
                    Some(Program::new(ops))
                }
                None => None,
            };
            grouping = Some(Grouping {
                keys,
                aggs,
                having,
                items: gitems,
            });
        } else {
            // bug-compatible with `reference.rs`: HAVING without
            // grouping is ignored on the plain path
            for item in &s.items {
                match item {
                    SelectItem::Wildcard => items.push(ProjItem::All),
                    SelectItem::QualifiedWildcard(q) => {
                        let idxs: Vec<usize> = layout
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| {
                                c.binding
                                    .as_deref()
                                    .is_some_and(|b| b.eq_ignore_ascii_case(q))
                            })
                            .map(|(i, _)| i)
                            .collect();
                        items.push(ProjItem::Qualified(idxs));
                    }
                    SelectItem::Expr { expr, .. } => {
                        let ops = self.compile_plain(expr, &layout, &mut slots, true)?;
                        // bare column references project without program
                        // dispatch (same NULL padding for short rows)
                        if let [POp::Col(i)] = ops.as_slice() {
                            items.push(ProjItem::Qualified(vec![*i]));
                        } else {
                            items.push(ProjItem::Expr(Program::new(ops)));
                        }
                    }
                }
            }
        }

        // ORDER BY keys
        let mut order = Vec::with_capacity(order_by.len());
        for o in order_by {
            let key = match alias_index(&o.expr, s) {
                Some(i) => {
                    if !grouped && has_wildcard {
                        // with wildcards the output-position bookkeeping of
                        // `reference.rs` diverges from item indexes; punt
                        return None;
                    }
                    OrderKey::Output(i)
                }
                None => {
                    if grouped {
                        let mut aggs_scratch = match &mut grouping {
                            Some(g) => std::mem::take(&mut g.aggs),
                            None => Vec::new(),
                        };
                        let ops =
                            self.compile_grouped(&o.expr, &layout, &mut slots, &mut aggs_scratch)?;
                        if let Some(g) = &mut grouping {
                            g.aggs = aggs_scratch;
                        }
                        OrderKey::Grouped(Program::new(ops))
                    } else {
                        let ops = self.compile_plain(&o.expr, &layout, &mut slots, true)?;
                        OrderKey::Plain(Program::new(ops))
                    }
                }
            };
            order.push((key, o.desc));
        }

        // late-materialization spec: mark the canonical columns the
        // projection / grouping / ordering phases actually read; the rest
        // never leave the source tables
        let mut needed = vec![false; layout.len()];
        match &grouping {
            Some(g) => {
                for p in g.keys.iter().chain(&g.items).chain(&g.having) {
                    p.cols().for_each(|c| needed[c] = true);
                }
                for a in &g.aggs {
                    if let Some(p) = &a.arg {
                        p.cols().for_each(|c| needed[c] = true);
                    }
                }
            }
            None => {
                for item in &items {
                    match item {
                        ProjItem::All => needed.iter_mut().for_each(|b| *b = true),
                        ProjItem::Qualified(idxs) => idxs.iter().for_each(|&i| needed[i] = true),
                        ProjItem::Expr(p) => p.cols().for_each(|c| needed[c] = true),
                    }
                }
            }
        }
        for (key, _) in &order {
            match key {
                OrderKey::Plain(p) | OrderKey::Grouped(p) => {
                    p.cols().for_each(|c| needed[c] = true);
                }
                OrderKey::Output(_) => {}
            }
        }
        let mat: Vec<Option<(u32, u32)>> = (0..layout.len())
            .map(|c| needed[c].then(|| coord_of(c)))
            .collect();

        let out_cols = projection_names(s, &layout);
        // Empty-prune: an unsatisfiable WHERE on an ungrouped block (no
        // aggregates, so empty input means empty output) can never emit a
        // row. Proven with no data assumptions, so it is sound for any
        // database, not just generated witnesses.
        let empty_prune = grouping.is_none()
            && s.selection
                .as_ref()
                .is_some_and(|w| squ_sema::never_true(w, &squ_sema::Assumptions::none()));
        Some(PhysSelect {
            units,
            exec_order,
            reordered,
            mat,
            access,
            filters,
            steps,
            slots,
            grouping,
            items,
            order,
            distinct: s.distinct,
            top: s.top,
            out_cols,
            empty_prune,
        })
    }

    /// Lower a scalar expression over `layout` into postfix ops. `None`
    /// rejects compilation (unknown column/function, aggregates,
    /// subqueries where `allow_sub` is false, or a slot that cannot be
    /// hoisted).
    fn compile_plain(
        &mut self,
        e: &Expr,
        layout: &[QCol],
        slots: &mut Vec<PhysSlot>,
        allow_sub: bool,
    ) -> Option<Vec<POp>> {
        let mut ops = Vec::new();
        self.lower(e, layout, slots, allow_sub, &mut ops)?;
        Some(ops)
    }

    fn lower(
        &mut self,
        e: &Expr,
        layout: &[QCol],
        slots: &mut Vec<PhysSlot>,
        allow_sub: bool,
        ops: &mut Vec<POp>,
    ) -> Option<()> {
        match e {
            Expr::Column(c) => ops.push(POp::Col(resolve_col(c, layout)?)),
            Expr::Literal(l) => ops.push(POp::Const(literal_value(l))),
            Expr::Compare { op, left, right } => {
                self.lower(left, layout, slots, allow_sub, ops)?;
                self.lower(right, layout, slots, allow_sub, ops)?;
                ops.push(POp::Cmp(*op));
            }
            Expr::And(a, b) => {
                self.lower(a, layout, slots, allow_sub, ops)?;
                self.lower(b, layout, slots, allow_sub, ops)?;
                ops.push(POp::And3);
            }
            Expr::Or(a, b) => {
                self.lower(a, layout, slots, allow_sub, ops)?;
                self.lower(b, layout, slots, allow_sub, ops)?;
                ops.push(POp::Or3);
            }
            Expr::Not(inner) => {
                self.lower(inner, layout, slots, allow_sub, ops)?;
                ops.push(POp::Not3);
            }
            Expr::IsNull { expr, negated } => {
                self.lower(expr, layout, slots, allow_sub, ops)?;
                ops.push(POp::IsNull { negated: *negated });
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.lower(expr, layout, slots, allow_sub, ops)?;
                self.lower(low, layout, slots, allow_sub, ops)?;
                self.lower(high, layout, slots, allow_sub, ops)?;
                ops.push(POp::Between { negated: *negated });
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                self.lower(expr, layout, slots, allow_sub, ops)?;
                for item in list {
                    self.lower(item, layout, slots, allow_sub, ops)?;
                }
                ops.push(POp::InList {
                    negated: *negated,
                    n: list.len(),
                });
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                if !allow_sub {
                    return None;
                }
                self.lower(expr, layout, slots, allow_sub, ops)?;
                let slot = self.compile_slot(subquery, false, slots)?;
                ops.push(POp::InSlot {
                    negated: *negated,
                    slot,
                });
            }
            Expr::Exists { subquery, negated } => {
                if !allow_sub {
                    return None;
                }
                let slot = self.compile_slot(subquery, false, slots)?;
                ops.push(POp::ExistsSlot {
                    negated: *negated,
                    slot,
                });
            }
            Expr::ScalarSubquery(q) => {
                if !allow_sub {
                    return None;
                }
                let slot = self.compile_slot(q, true, slots)?;
                ops.push(POp::ScalarSlot(slot));
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.lower(expr, layout, slots, allow_sub, ops)?;
                if let Expr::Literal(Literal::String(p)) = pattern.as_ref() {
                    ops.push(POp::LikeConst {
                        negated: *negated,
                        matcher: LikeMatcher::new(p),
                    });
                } else {
                    self.lower(pattern, layout, slots, allow_sub, ops)?;
                    ops.push(POp::LikeDyn { negated: *negated });
                }
            }
            Expr::Function { name, args, .. } => {
                if is_aggregate_name(name) {
                    return None; // aggregates only via compile_grouped
                }
                let upper = name.to_ascii_uppercase();
                if !is_supported_scalar(&upper) {
                    return None;
                }
                for a in args {
                    self.lower(a, layout, slots, allow_sub, ops)?;
                }
                ops.push(POp::Call {
                    name: upper,
                    argc: args.len(),
                });
            }
            Expr::Wildcard => return None,
            Expr::Arith { op, left, right } => {
                self.lower(left, layout, slots, allow_sub, ops)?;
                self.lower(right, layout, slots, allow_sub, ops)?;
                ops.push(POp::Arith(*op));
            }
            Expr::Neg(inner) => {
                self.lower(inner, layout, slots, allow_sub, ops)?;
                ops.push(POp::Neg);
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(op) = operand {
                    self.lower(op, layout, slots, allow_sub, ops)?;
                }
                for (w, t) in branches {
                    self.lower(w, layout, slots, allow_sub, ops)?;
                    self.lower(t, layout, slots, allow_sub, ops)?;
                }
                if let Some(e) = else_expr {
                    self.lower(e, layout, slots, allow_sub, ops)?;
                }
                ops.push(POp::Case {
                    has_operand: operand.is_some(),
                    branches: branches.len(),
                    has_else: else_expr.is_some(),
                });
            }
            Expr::Cast { expr, type_name } => {
                self.lower(expr, layout, slots, allow_sub, ops)?;
                ops.push(POp::Cast(SqlType::from_name(type_name)));
            }
        }
        Some(())
    }

    /// Lower a grouped expression: aggregate calls become [`POp::Agg`]
    /// slots; non-aggregate subtrees get the empty-group NULL guard
    /// `reference.rs` applies before descending.
    fn compile_grouped(
        &mut self,
        e: &Expr,
        layout: &[QCol],
        slots: &mut Vec<PhysSlot>,
        aggs: &mut Vec<AggSpec>,
    ) -> Option<Vec<POp>> {
        let mut ops = Vec::new();
        self.lower_grouped(e, layout, slots, aggs, &mut ops)?;
        Some(ops)
    }

    fn lower_grouped(
        &mut self,
        e: &Expr,
        layout: &[QCol],
        slots: &mut Vec<PhysSlot>,
        aggs: &mut Vec<AggSpec>,
        ops: &mut Vec<POp>,
    ) -> Option<()> {
        match e {
            Expr::Function {
                name,
                args,
                distinct,
            } if is_aggregate_name(name) => {
                let upper = name.to_ascii_uppercase();
                let arg = if upper == "COUNT" && matches!(args.first(), Some(Expr::Wildcard) | None)
                {
                    None // COUNT(*) — checked before DISTINCT, as in `reference.rs`
                } else {
                    let a = args.first()?;
                    Some(Program::new(self.compile_plain(a, layout, slots, true)?))
                };
                aggs.push(AggSpec {
                    upper,
                    arg,
                    distinct: *distinct,
                });
                ops.push(POp::Agg(aggs.len() - 1));
            }
            Expr::And(a, b) => {
                self.lower_grouped(a, layout, slots, aggs, ops)?;
                self.lower_grouped(b, layout, slots, aggs, ops)?;
                ops.push(POp::And3);
            }
            Expr::Or(a, b) => {
                self.lower_grouped(a, layout, slots, aggs, ops)?;
                self.lower_grouped(b, layout, slots, aggs, ops)?;
                ops.push(POp::Or3);
            }
            Expr::Not(inner) => {
                self.lower_grouped(inner, layout, slots, aggs, ops)?;
                ops.push(POp::Not3);
            }
            Expr::Compare { op, left, right } => {
                self.lower_grouped(left, layout, slots, aggs, ops)?;
                self.lower_grouped(right, layout, slots, aggs, ops)?;
                ops.push(POp::Cmp(*op));
            }
            Expr::Arith { op, left, right } => {
                self.lower_grouped(left, layout, slots, aggs, ops)?;
                self.lower_grouped(right, layout, slots, aggs, ops)?;
                ops.push(POp::Arith(*op));
            }
            other => {
                if other.contains_aggregate() {
                    // an aggregate under an operator the grouped walker of
                    // `reference.rs` doesn't descend through — reject
                    return None;
                }
                // non-aggregate subtree: `reference.rs` yields NULL for
                // the whole subtree on an empty group, before evaluating
                // any leaf (which could otherwise error)
                let sub = self.compile_plain(other, layout, slots, true)?;
                ops.push(POp::SkipIfEmptyGroup(sub.len()));
                ops.extend(sub);
            }
        }
        Some(())
    }

    /// Compile an uncorrelated subquery into a slot. Strict mode keeps the
    /// subquery total (single-table scans only), so eager evaluation
    /// cannot surface an error the lazy path of `reference.rs` would not.
    fn compile_slot(
        &mut self,
        q: &Query,
        scalar: bool,
        slots: &mut Vec<PhysSlot>,
    ) -> Option<usize> {
        if scalar && !slot_scalar_safe(q) {
            return None; // could error ScalarSubqueryMultiRow at runtime
        }
        let saved = self.strict;
        self.strict = true;
        let compiled = self.compile_q(q);
        self.strict = saved;
        let query = compiled?;
        slots.push(PhysSlot { scalar, query });
        Some(slots.len() - 1)
    }
}

// ----- compile-time helpers -----

/// Leftmost canonical offset whose name (and qualifier, if present)
/// matches — the resolution order of `reference.rs`.
fn resolve_col(c: &ColumnRef, layout: &[QCol]) -> Option<usize> {
    layout.iter().position(|qc| {
        qc.name.eq_ignore_ascii_case(&c.name)
            && match (&c.qualifier, &qc.binding) {
                (None, _) => true,
                (Some(q), Some(b)) => q.eq_ignore_ascii_case(b),
                (Some(_), None) => false,
            }
    })
}

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Number(v) => Value::Num(*v),
        Literal::String(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

/// Does the expression contain a subquery anywhere?
fn contains_subquery(e: &Expr) -> bool {
    if matches!(
        e,
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_)
    ) {
        return true;
    }
    let mut found = false;
    e.for_each_child(&mut |c| found = found || contains_subquery(c));
    found
}

/// `[Col(a), Col(b), Cmp(Eq)]` → `(a, b)`.
fn equi_cols_of(prog: &Program) -> Option<(usize, usize)> {
    match prog.ops.as_slice() {
        [POp::Col(a), POp::Col(b), POp::Cmp(CompareOp::Eq)] => Some((*a, *b)),
        _ => None,
    }
}

/// `[Col(c), Const(k), Cmp(Eq)]` (either orientation) → `(c, k)`.
fn const_eq_of(prog: &Program) -> Option<(usize, Value)> {
    match prog.ops.as_slice() {
        [POp::Col(c), POp::Const(k), POp::Cmp(CompareOp::Eq)]
        | [POp::Const(k), POp::Col(c), POp::Cmp(CompareOp::Eq)] => Some((*c, k.clone())),
        _ => None,
    }
}

/// Can a scalar subquery be proven to return at most one row?
fn slot_scalar_safe(q: &Query) -> bool {
    let top = match &q.body {
        SetExpr::Select(s) => s.top,
        SetExpr::SetOp { .. } => None,
    };
    if matches!(q.limit.or(top), Some(0) | Some(1)) {
        return true;
    }
    let SetExpr::Select(s) = &q.body else {
        return false;
    };
    if !s.group_by.is_empty() {
        return false;
    }
    // ungrouped aggregate → exactly one row
    s.items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || s.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || q.order_by.iter().any(|o| o.expr.contains_aggregate())
}

/// Mirror of the ORDER-BY alias resolution in `reference.rs`: first an
/// unqualified column name against item aliases, then structural equality
/// against item expressions. Returns the output position.
fn alias_index(e: &Expr, s: &Select) -> Option<usize> {
    if let Expr::Column(c) = e {
        if c.qualifier.is_none() {
            for (i, item) in s.items.iter().enumerate() {
                if let SelectItem::Expr { alias: Some(a), .. } = item {
                    if a.eq_ignore_ascii_case(&c.name) {
                        return Some(i);
                    }
                }
            }
        }
    }
    for (i, item) in s.items.iter().enumerate() {
        if let SelectItem::Expr { expr, .. } = item {
            if exprs_equal_modulo_case(e, expr) {
                return Some(i);
            }
        }
    }
    None
}

// ----- runtime -----

/// Materialized CTE relations of one query level, linked to enclosing
/// levels. `ScanSrc::Cte { up, .. }` walks `up` parents.
struct CteFrame<'a> {
    rels: &'a [Relation],
    parent: Option<&'a CteFrame<'a>>,
}

/// A filtered view over rows: either a selection vector into a borrowed
/// base table (the single-scan fast path — no row is cloned until
/// projection) or owned materialized rows.
enum Rows<'r> {
    Sel {
        rows: &'r [Vec<Value>],
        sel: Vec<u32>,
    },
    Owned(Vec<Vec<Value>>),
}

impl<'r> Rows<'r> {
    fn len(&self) -> usize {
        match self {
            Rows::Sel { sel, .. } => sel.len(),
            Rows::Owned(v) => v.len(),
        }
    }

    fn at(&self, i: usize) -> &[Value] {
        match self {
            Rows::Sel { rows, sel } => sel
                .get(i)
                .and_then(|&j| rows.get(j as usize))
                .map(|r| r.as_slice())
                .unwrap_or(EMPTY_ROW),
            Rows::Owned(v) => v.get(i).map(|r| r.as_slice()).unwrap_or(EMPTY_ROW),
        }
    }
}

impl PhysQuery {
    fn exec(
        &self,
        db: &Database,
        parent: Option<&CteFrame<'_>>,
        stats: &mut ExecStats,
    ) -> Result<Relation, ExecError> {
        let mut rels: Vec<Relation> = Vec::with_capacity(self.ctes.len());
        for cq in &self.ctes {
            // each body sees the CTEs materialized before it
            let rel = {
                let f = CteFrame {
                    rels: &rels,
                    parent,
                };
                cq.exec(db, Some(&f), stats)?
            };
            rels.push(rel);
        }
        let f = CteFrame {
            rels: &rels,
            parent,
        };
        let mut rel = self.body.exec(db, Some(&f), stats)?;
        if let Some(lim) = self.limit {
            rel.rows.truncate(lim as usize);
        }
        Ok(rel)
    }
}

impl PhysSet {
    fn exec(
        &self,
        db: &Database,
        frame: Option<&CteFrame<'_>>,
        stats: &mut ExecStats,
    ) -> Result<Relation, ExecError> {
        match self {
            PhysSet::Select(s) => s.exec(db, frame, stats),
            PhysSet::SetOp {
                op,
                all,
                left,
                right,
                keys,
            } => {
                let l = left.exec(db, frame, stats)?;
                let r = right.exec(db, frame, stats)?;
                let mut rel = combine_set(op, *all, l, r);
                if !keys.is_empty() {
                    rel.rows.sort_by(|a, b| {
                        for (idx, desc) in keys {
                            let ord = match (a.get(*idx), b.get(*idx)) {
                                (Some(x), Some(y)) => x.total_cmp(y),
                                _ => Ordering::Equal,
                            };
                            let ord = if *desc { ord.reverse() } else { ord };
                            if ord != Ordering::Equal {
                                return ord;
                            }
                        }
                        Ordering::Equal
                    });
                }
                Ok(rel)
            }
        }
    }
}

impl PhysSelect {
    fn exec(
        &self,
        db: &Database,
        frame: Option<&CteFrame<'_>>,
        stats: &mut ExecStats,
    ) -> Result<Relation, ExecError> {
        // short-circuit a block whose WHERE was proven unsatisfiable at
        // compile time: no scan, join, or slot work can contribute a row
        if self.empty_prune {
            stats.empty_prunes += 1;
            return Ok(Relation {
                columns: self.out_cols.clone(),
                rows: Vec::new(),
            });
        }
        // uncorrelated subqueries: evaluated once, eagerly (compiled slots
        // are total, so eager evaluation is unobservable vs the lazy
        // per-use evaluation of `reference.rs`)
        let mut slotvals: Vec<SlotVal> = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            stats.subquery_evals += 1;
            let rel = s.query.exec(db, frame, stats)?;
            if s.scalar {
                let v = rel
                    .rows
                    .first()
                    .and_then(|r| r.first().cloned())
                    .unwrap_or(Value::Null);
                slotvals.push(SlotVal::Scalar(v));
            } else {
                let vals = rel
                    .rows
                    .iter()
                    .map(|r| r.first().cloned().unwrap_or(Value::Null))
                    .collect();
                slotvals.push(SlotVal::Set(vals));
            }
        }
        let mut cx = EvalCx::plain(&slotvals);
        let mut skip = vec![false; self.filters.len()];

        let n = self.units.len();
        // projection pairs: output row + per-row ORDER BY keys
        let mut pairs = if n >= 2 {
            let (sources, tuples) = self.compose(db, frame, stats, &mut cx, &mut skip)?;
            let p = match &self.grouping {
                Some(g) => {
                    let view = Rows::Owned(self.materialize_tuples(&sources, &tuples));
                    self.exec_grouped(g, &view, &mut cx)
                }
                None => self.project_tuples(&sources, &tuples, &mut cx),
            };
            p
        } else {
            let view: Rows = if n == 1 {
                if let PhysNode::Scan { src, width } = &self.units[0] {
                    let base = resolve_scan(src, db, frame, *width)?;
                    let (mut sel, consumed) = self.probe_or_scan(src, db, base, stats);
                    if let Some(fi) = consumed {
                        skip[fi] = true;
                    }
                    for pass in 0..2 {
                        for (fi, f) in self.filters.iter().enumerate() {
                            if skip[fi] || (f.step.is_some() != (pass == 0)) {
                                continue;
                            }
                            if let Some(fp) = &f.fast {
                                stats.batches += sel.len().div_ceil(BATCH_SIZE) as u64;
                                sel.retain(|&i| {
                                    fp.eval_row(
                                        base.get(i as usize).map_or(EMPTY_ROW, |r| r.as_slice()),
                                        cx.slots,
                                    )
                                });
                            } else {
                                filter_sel(&f.prog, base, &mut sel, &mut cx, stats);
                            }
                        }
                    }
                    Rows::Sel { rows: base, sel }
                } else {
                    let mut rows = exec_node(&self.units[0], db, frame, stats)?;
                    self.filter_owned(&mut rows, &mut None, &skip, &mut cx, stats);
                    Rows::Owned(rows)
                }
            } else {
                let mut rows = vec![Vec::new()];
                self.filter_owned(&mut rows, &mut None, &skip, &mut cx, stats);
                Rows::Owned(rows)
            };
            match &self.grouping {
                Some(g) => self.exec_grouped(g, &view, &mut cx),
                None => self.exec_plain(&view, &mut cx),
            }
        };
        if self.distinct {
            let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
            pairs.retain(|(row, _)| seen.insert(row.clone()));
        }
        if !self.order.is_empty() {
            pairs.sort_by(|(_, ka), (_, kb)| {
                for ((_, desc), (x, y)) in self.order.iter().zip(ka.iter().zip(kb.iter())) {
                    let ord = x.total_cmp(y);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        let rows = pairs.into_iter().map(|(r, _)| r).collect();
        Ok(Relation::new(self.out_cols.clone(), rows))
    }

    /// Apply all filters (non-deferred first, then deferred) to owned rows.
    fn filter_owned(
        &self,
        rows: &mut Vec<Vec<Value>>,
        tags: &mut Option<Vec<Vec<u32>>>,
        skip: &[bool],
        cx: &mut EvalCx,
        stats: &mut ExecStats,
    ) {
        for pass in 0..2 {
            for (fi, f) in self.filters.iter().enumerate() {
                if skip[fi] || (f.step.is_some() != (pass == 0)) {
                    continue;
                }
                let flags = batch_flags(&f.prog, rows, cx, stats);
                retain_rows(rows, tags, &flags);
            }
        }
    }

    /// Index-or-scan access for the first executed unit. Returns the
    /// selection vector plus the index of a filter the probe consumed.
    fn probe_or_scan(
        &self,
        src: &ScanSrc,
        db: &Database,
        base: &[Vec<Value>],
        stats: &mut ExecStats,
    ) -> (Vec<u32>, Option<usize>) {
        if let (
            Access::IndexEq {
                col,
                key,
                filter_idx,
            },
            ScanSrc::Table(name),
        ) = (&self.access, src)
        {
            if indexes_enabled() {
                let postings = db.indexes().equality_index(name, *col, base);
                stats.index_probes += 1;
                // NULL keys match nothing (postings never hold NULL), which
                // is exactly the filter's `= NULL → UNKNOWN` behavior
                let sel: Vec<u32> = postings
                    .get(key)
                    .map(|v| v.iter().map(|&i| i as u32).collect())
                    .unwrap_or_default();
                stats.index_hits += sel.len() as u64;
                stats.rows_scanned += sel.len() as u64;
                return (sel, Some(*filter_idx));
            }
        }
        stats.rows_scanned += base.len() as u64;
        ((0..base.len() as u32).collect(), None)
    }

    /// Join 2+ comma units in executed order with late materialization:
    /// the working set is a flat buffer of tuples of per-unit row
    /// indices, so joins and filters move `u32`s instead of cloning
    /// `Value` rows. Filters run at the earliest possible step via their
    /// gather specs. Returns the per-unit backing rows plus the
    /// surviving tuples, already restored to declaration order;
    /// projection reads values straight off the sources.
    fn compose<'x>(
        &self,
        db: &'x Database,
        frame: Option<&'x CteFrame<'x>>,
        stats: &mut ExecStats,
        cx: &mut EvalCx,
        skip: &mut [bool],
    ) -> Result<(Vec<SourceRows<'x>>, Vec<u32>), ExecError> {
        let n = self.units.len();
        let mut exec_pos = vec![0usize; n];
        for (i, &u) in self.exec_order.iter().enumerate() {
            exec_pos[u] = i;
        }

        // sources[k] = backing rows of the k-th executed unit. The working
        // set is one flat buffer of `stride`-wide tuples of row indices
        // (stride = units joined so far), so joins and filters move
        // contiguous `u32`s instead of per-tuple allocations.
        let mut sources: Vec<SourceRows<'_>> = Vec::with_capacity(n);
        let u0 = self.exec_order[0];
        let mut tuples: Vec<u32>;
        if let PhysNode::Scan { src, width } = &self.units[u0] {
            let base = resolve_scan(src, db, frame, *width)?;
            let (sel, consumed) = self.probe_or_scan(src, db, base, stats);
            if let Some(fi) = consumed {
                skip[fi] = true;
            }
            tuples = sel;
            sources.push(SourceRows::Borrowed(base));
        } else {
            let rows = exec_node(&self.units[u0], db, frame, stats)?;
            tuples = (0..rows.len() as u32).collect();
            sources.push(SourceRows::Owned(rows));
        }
        self.filter_tuples(Some(0), &sources, &mut tuples, 1, skip, cx, stats);

        // remaining units
        for k in 1..n {
            let stride = k;
            let u = self.exec_order[k];
            sources.push(exec_source(&self.units[u], db, frame, stats)?);
            let right = sources.last().map(SourceRows::rows).unwrap_or(&[]);
            let count = tuples.len() / stride;
            if count.saturating_mul(right.len()) > MAX_INTERMEDIATE_ROWS {
                return Err(ExecError::ResourceLimit);
            }
            let mut next: Vec<u32>;
            // threshold-gated specs (flattened explicit joins) only hash
            // when the product clears `EXPLICIT_JOIN_HASH_MIN`; below it
            // the step nested-loops and the ON filter runs normally
            let hash_now = self.steps[k - 1].hash.as_ref().filter(|h| {
                h.threshold
                    .map_or(true, |t| count.saturating_mul(right.len()) > t)
            });
            if let Some(h) = hash_now {
                skip[h.filter_idx] = true;
                let mut table: HashMap<&Value, Vec<u32>> = HashMap::new();
                for (j, rrow) in right.iter().enumerate() {
                    if let Some(key) = rrow.get(h.unit_col) {
                        if !key.is_null() {
                            table.entry(key).or_default().push(j as u32);
                        }
                    }
                }
                next = Vec::with_capacity(tuples.len() + count);
                for t in tuples.chunks_exact(stride) {
                    let idxs = t
                        .get(h.acc_step)
                        .and_then(|&i| sources.get(h.acc_step)?.rows().get(i as usize))
                        .and_then(|r| r.get(h.acc_local))
                        .filter(|k| !k.is_null())
                        .and_then(|k| table.get(k));
                    let Some(idxs) = idxs else { continue };
                    stats.join_pairs += idxs.len() as u64;
                    for &j in idxs {
                        next.extend_from_slice(t);
                        next.push(j);
                    }
                }
            } else {
                next = Vec::with_capacity(count * right.len() * (stride + 1));
                for t in tuples.chunks_exact(stride) {
                    for j in 0..right.len() as u32 {
                        next.extend_from_slice(t);
                        next.push(j);
                    }
                }
                stats.join_pairs += (count * right.len()) as u64;
            }
            tuples = next;
            self.filter_tuples(Some(k), &sources, &mut tuples, stride + 1, skip, cx, stats);
        }

        // deferred (subquery-bearing) filters run once everything is joined
        self.filter_tuples(None, &sources, &mut tuples, n, skip, cx, stats);

        // restore declaration order: the tuples ARE the source indices the
        // old tag vectors tracked, so a stable sort over them reproduces
        // the product order of `reference.rs` exactly
        if self.reordered && n > 0 {
            let count = tuples.len() / n;
            let mut idx: Vec<u32> = (0..count as u32).collect();
            idx.sort_by(|&x, &y| {
                let (tx, ty) = (x as usize * n, y as usize * n);
                for &p in exec_pos.iter().take(n) {
                    let ord = tuples.get(tx + p).cmp(&tuples.get(ty + p));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            let mut sorted = Vec::with_capacity(tuples.len());
            for &i in &idx {
                let at = i as usize * n;
                sorted.extend_from_slice(&tuples[at..at + n]);
            }
            tuples = sorted;
        }

        Ok((sources, tuples))
    }

    /// Materialize canonical rows (pruned to the columns downstream
    /// phases read) from composed tuples — the grouped path still wants
    /// a row view to group over.
    fn materialize_tuples(&self, sources: &[SourceRows<'_>], tuples: &[u32]) -> Vec<Vec<Value>> {
        let n = self.units.len();
        let rows = tuples
            .chunks_exact(n.max(1))
            .map(|t| {
                self.mat
                    .iter()
                    .map(|m| match m {
                        Some((step, local)) => gather_value(sources, t, *step, *local),
                        None => Value::Null,
                    })
                    .collect()
            })
            .collect();
        rows
    }

    /// Fused projection for composed tuples on the plain (non-grouped)
    /// path: output values gather straight from the per-unit sources —
    /// each projected value is cloned exactly once, and no intermediate
    /// canonical row is built. Expression items evaluate against a
    /// reused scratch row holding just the columns programs read.
    #[allow(clippy::type_complexity)]
    fn project_tuples(
        &self,
        sources: &[SourceRows<'_>],
        tuples: &[u32],
        cx: &mut EvalCx,
    ) -> Vec<(Vec<Value>, Vec<Value>)> {
        let n = self.units.len();
        // canonical columns that expression programs (items + ORDER BY
        // keys) read; everything else projects by direct gather
        let mut expr_cols: Vec<usize> = Vec::new();
        for item in &self.items {
            if let ProjItem::Expr(p) = item {
                expr_cols.extend(p.cols());
            }
        }
        for (k, _) in &self.order {
            if let OrderKey::Plain(p) | OrderKey::Grouped(p) = k {
                expr_cols.extend(p.cols());
            }
        }
        expr_cols.sort_unstable();
        expr_cols.dedup();
        let mut scratch = vec![Value::Null; self.mat.len()];

        let fixed: usize = self
            .items
            .iter()
            .map(|it| match it {
                ProjItem::All => self.mat.len(),
                ProjItem::Qualified(idxs) => idxs.len(),
                ProjItem::Expr(_) => 1,
            })
            .sum();
        let gather = |t: &[u32], c: usize| match self.mat.get(c) {
            Some(Some((step, local))) => gather_value(sources, t, *step, *local),
            _ => Value::Null,
        };
        let mut out = Vec::with_capacity(tuples.len() / n.max(1));
        for t in tuples.chunks_exact(n.max(1)) {
            for &c in &expr_cols {
                scratch[c] = gather(t, c);
            }
            let mut vals = Vec::with_capacity(fixed);
            for item in &self.items {
                match item {
                    ProjItem::All => vals.extend((0..self.mat.len()).map(|c| gather(t, c))),
                    ProjItem::Qualified(idxs) => {
                        vals.extend(idxs.iter().map(|&j| gather(t, j)));
                    }
                    ProjItem::Expr(p) => vals.push(p.eval(&scratch, cx)),
                }
            }
            let keys = self
                .order
                .iter()
                .map(|(k, _)| match k {
                    OrderKey::Output(j) => vals.get(*j).cloned().unwrap_or(Value::Null),
                    OrderKey::Plain(p) | OrderKey::Grouped(p) => p.eval(&scratch, cx),
                })
                .collect();
            out.push((vals, keys));
        }
        out
    }

    /// Run every unconsumed filter assigned to `step` over the flat tuple
    /// buffer, gathering just the referenced columns per tuple; survivors
    /// are compacted in place.
    #[allow(clippy::too_many_arguments)]
    fn filter_tuples(
        &self,
        step: Option<usize>,
        sources: &[SourceRows<'_>],
        tuples: &mut Vec<u32>,
        stride: usize,
        skip: &[bool],
        cx: &mut EvalCx,
        stats: &mut ExecStats,
    ) {
        for (fi, f) in self.filters.iter().enumerate() {
            if skip[fi] || f.step != step {
                continue;
            }
            let count = tuples.len() / stride;
            stats.batches += count.div_ceil(BATCH_SIZE) as u64;
            if let Some(fp) = &f.fast {
                // single-comparison fast path: evaluate by reference with
                // a fused compact (write cursor trails the read cursor)
                let mut w = 0;
                let mut r = 0;
                while r + stride <= tuples.len() {
                    if fp.eval_tuple(sources, &tuples[r..r + stride], cx.slots) {
                        tuples.copy_within(r..r + stride, w);
                        w += stride;
                    }
                    r += stride;
                }
                tuples.truncate(w);
            } else {
                let mut flags = Vec::with_capacity(count);
                let mut gath: Vec<Vec<Value>> = Vec::with_capacity(BATCH_SIZE);
                let mut out = Vec::new();
                for chunk in tuples.chunks(stride * BATCH_SIZE) {
                    gath.clear();
                    for t in chunk.chunks_exact(stride) {
                        gath.push(
                            f.gather
                                .iter()
                                .map(|&(s, local)| gather_value(sources, t, s, local))
                                .collect(),
                        );
                    }
                    let refs: Vec<&[Value]> = gath.iter().map(|r| r.as_slice()).collect();
                    f.gprog.eval_batch(&refs, cx, &mut out);
                    flags.extend(out.iter().map(|v| v.is_truthy()));
                }
                let mut w = 0;
                for (i, keep) in flags.iter().enumerate() {
                    if *keep {
                        tuples.copy_within(i * stride..(i + 1) * stride, w);
                        w += stride;
                    }
                }
                tuples.truncate(w);
            }
        }
    }

    /// Plain projection: output row + ORDER BY keys per input row.
    #[allow(clippy::type_complexity)]
    fn exec_plain(&self, view: &Rows<'_>, cx: &mut EvalCx) -> Vec<(Vec<Value>, Vec<Value>)> {
        // exact output width per row: fixed items plus one full row copy
        // per wildcard
        let fixed: usize = self
            .items
            .iter()
            .map(|it| match it {
                ProjItem::All => 0,
                ProjItem::Qualified(idxs) => idxs.len(),
                ProjItem::Expr(_) => 1,
            })
            .sum();
        let wildcards = self
            .items
            .iter()
            .filter(|it| matches!(it, ProjItem::All))
            .count();
        let mut out = Vec::with_capacity(view.len());
        for i in 0..view.len() {
            let row = view.at(i);
            let mut vals = Vec::with_capacity(fixed + wildcards * row.len());
            for item in &self.items {
                match item {
                    ProjItem::All => vals.extend(row.iter().cloned()),
                    ProjItem::Qualified(idxs) => {
                        vals.extend(
                            idxs.iter()
                                .map(|&j| row.get(j).cloned().unwrap_or(Value::Null)),
                        );
                    }
                    ProjItem::Expr(p) => vals.push(p.eval(row, cx)),
                }
            }
            let keys = self
                .order
                .iter()
                .map(|(k, _)| match k {
                    OrderKey::Output(j) => vals.get(*j).cloned().unwrap_or(Value::Null),
                    OrderKey::Plain(p) | OrderKey::Grouped(p) => p.eval(row, cx),
                })
                .collect();
            out.push((vals, keys));
        }
        out
    }

    /// Grouped projection: group rows (first-appearance order), compute
    /// aggregates, apply HAVING, and evaluate items per group.
    #[allow(clippy::type_complexity)]
    fn exec_grouped(
        &self,
        g: &Grouping,
        view: &Rows<'_>,
        cx: &mut EvalCx,
    ) -> Vec<(Vec<Value>, Vec<Value>)> {
        let mut group_ids: Vec<Vec<usize>> = Vec::new();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for i in 0..view.len() {
            let row = view.at(i);
            let key: Vec<Value> = g.keys.iter().map(|p| p.eval(row, cx)).collect();
            let slot = *index.entry(key).or_insert_with(|| {
                group_ids.push(Vec::new());
                group_ids.len() - 1
            });
            if let Some(ids) = group_ids.get_mut(slot) {
                ids.push(i);
            }
        }
        // a global aggregate over zero rows still yields one output row
        if group_ids.is_empty() && g.keys.is_empty() {
            group_ids.push(Vec::new());
        }
        let mut out = Vec::new();
        for ids in &group_ids {
            cx.empty_group = ids.is_empty();
            let mut aggs = Vec::with_capacity(g.aggs.len());
            for spec in &g.aggs {
                aggs.push(eval_agg(spec, ids, view, cx));
            }
            cx.aggs = aggs;
            let first_row = ids.first().map(|&i| view.at(i)).unwrap_or(EMPTY_ROW);
            if let Some(h) = &g.having {
                if !h.eval(first_row, cx).is_truthy() {
                    continue;
                }
            }
            let vals: Vec<Value> = g.items.iter().map(|p| p.eval(first_row, cx)).collect();
            let keys = self
                .order
                .iter()
                .map(|(k, _)| match k {
                    OrderKey::Output(j) => vals.get(*j).cloned().unwrap_or(Value::Null),
                    OrderKey::Plain(p) | OrderKey::Grouped(p) => p.eval(first_row, cx),
                })
                .collect();
            out.push((vals, keys));
        }
        cx.empty_group = false;
        cx.aggs = Vec::new();
        out
    }
}

/// One aggregate over a group: COUNT(*) is the group size; otherwise the
/// argument is evaluated per row, NULLs dropped, DISTINCT deduplicated
/// (first appearance), and the reducer applied.
fn eval_agg(spec: &AggSpec, ids: &[usize], view: &Rows<'_>, cx: &mut EvalCx) -> Value {
    let Some(p) = &spec.arg else {
        return Value::Num(ids.len() as f64);
    };
    let mut vals: Vec<Value> = ids
        .iter()
        .map(|&i| p.eval(view.at(i), cx))
        .filter(|v| !v.is_null())
        .collect();
    if spec.distinct {
        let mut seen: std::collections::HashSet<Value> = std::collections::HashSet::new();
        vals.retain(|v| seen.insert(v.clone()));
    }
    aggregate_value(&spec.upper, &vals).unwrap_or(Value::Null)
}

/// Rows backing one executed unit inside `compose`: borrowed straight
/// from a base table / CTE relation, or owned when the unit had to
/// materialize (derived table, explicit JOIN).
enum SourceRows<'r> {
    Borrowed(&'r [Vec<Value>]),
    Owned(Vec<Vec<Value>>),
}

impl SourceRows<'_> {
    fn rows(&self) -> &[Vec<Value>] {
        match self {
            SourceRows::Borrowed(r) => r,
            SourceRows::Owned(r) => r,
        }
    }
}

/// Pull one column of a tuple out of its backing sources; NULL when the
/// coordinate is out of range (mirrors the padded-row behavior of the
/// materializing path).
fn gather_value(sources: &[SourceRows<'_>], t: &[u32], step: u32, local: u32) -> Value {
    sources
        .get(step as usize)
        .zip(t.get(step as usize))
        .and_then(|(s, &i)| s.rows().get(i as usize))
        .and_then(|r| r.get(local as usize))
        .cloned()
        .unwrap_or(Value::Null)
}

/// Borrowing variant of [`gather_value`] for the fast-predicate path:
/// no clone, NULL for out-of-range coordinates.
fn gather_ref<'a>(sources: &'a [SourceRows<'_>], t: &[u32], step: u32, local: u32) -> &'a Value {
    sources
        .get(step as usize)
        .zip(t.get(step as usize))
        .and_then(|(s, &i)| s.rows().get(i as usize))
        .and_then(|r| r.get(local as usize))
        .unwrap_or(&NULL_VALUE)
}

/// Resolve a scan source to its backing rows, verifying the arity the
/// plan was compiled against (plans may be reused across databases).
fn resolve_scan<'x>(
    src: &ScanSrc,
    db: &'x Database,
    frame: Option<&'x CteFrame<'x>>,
    width: usize,
) -> Result<&'x [Vec<Value>], ExecError> {
    let rel = match src {
        ScanSrc::Table(name) => db
            .table(name)
            .ok_or_else(|| ExecError::UnknownTable(name.clone()))?,
        ScanSrc::Cte { up, pos } => {
            let mut f = frame;
            for _ in 0..*up {
                f = f.and_then(|fr| fr.parent);
            }
            f.and_then(|fr| fr.rels.get(*pos))
                .ok_or_else(|| ExecError::Unsupported("missing CTE frame".into()))?
        }
    };
    if rel.columns.len() != width {
        return Err(ExecError::Unsupported(
            "schema drift between compile and execute".into(),
        ));
    }
    Ok(&rel.rows)
}

fn exec_node(
    node: &PhysNode,
    db: &Database,
    frame: Option<&CteFrame<'_>>,
    stats: &mut ExecStats,
) -> Result<Vec<Vec<Value>>, ExecError> {
    match node {
        PhysNode::Scan { src, width } => {
            let base = resolve_scan(src, db, frame, *width)?;
            stats.rows_scanned += base.len() as u64;
            Ok(base.to_vec())
        }
        PhysNode::Derived(pq) => Ok(pq.exec(db, frame, stats)?.rows),
        PhysNode::Join(j) => exec_join(j, db, frame, stats),
    }
}

/// Materialize a node's rows, borrowing straight from the database for
/// plain scans (counting them exactly like the materializing path).
fn exec_source<'x>(
    node: &PhysNode,
    db: &'x Database,
    frame: Option<&'x CteFrame<'x>>,
    stats: &mut ExecStats,
) -> Result<SourceRows<'x>, ExecError> {
    match node {
        PhysNode::Scan { src, width } => {
            let base = resolve_scan(src, db, frame, *width)?;
            stats.rows_scanned += base.len() as u64;
            Ok(SourceRows::Borrowed(base))
        }
        other => Ok(SourceRows::Owned(exec_node(other, db, frame, stats)?)),
    }
}

/// Explicit JOIN: budget check, then a hash fast path for large
/// single-equality inputs, else a nested loop with the
/// compiled ON program. Scan children are borrowed straight from the
/// database — no input materialization.
fn exec_join(
    j: &JoinNode,
    db: &Database,
    frame: Option<&CteFrame<'_>>,
    stats: &mut ExecStats,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let lsrc = exec_source(&j.left, db, frame, stats)?;
    let rsrc = exec_source(&j.right, db, frame, stats)?;
    let (l, r) = (lsrc.rows(), rsrc.rows());
    if l.len().saturating_mul(r.len()) > MAX_INTERMEDIATE_ROWS {
        return Err(ExecError::ResourceLimit);
    }
    if let JOn::Prog {
        equi: Some((li, ri)),
        ..
    } = &j.on
    {
        // the same threshold as flattened joins, so both shapes take the
        // same path and report identical join_pairs
        if l.len().saturating_mul(r.len()) > EXPLICIT_JOIN_HASH_MIN {
            return Ok(hash_join_rows(j, l, r, *li, *ri, stats));
        }
    }
    let mut cx = EvalCx::plain(&[]);
    let mut rows = Vec::new();
    let mut right_matched = vec![false; r.len()];
    let mut scratch: Vec<Value> = Vec::new();
    for lrow in l {
        let mut matched = false;
        for (rj, rrow) in r.iter().enumerate() {
            stats.join_pairs += 1;
            let hit = match &j.on {
                JOn::None => true,
                JOn::Prog { fast: Some(fp), .. } => {
                    // ON programs are compiled slot-free, so an empty
                    // slot table is exact here
                    fp.eval_tri(
                        &|c: (u32, u32)| {
                            let i = c.1 as usize;
                            if i < j.lw {
                                lrow.get(i)
                            } else {
                                rrow.get(i - j.lw)
                            }
                            .unwrap_or(&NULL_VALUE)
                        },
                        &[],
                    ) == Some(true)
                }
                JOn::Prog { prog, .. } => {
                    scratch.clear();
                    scratch.extend(lrow.iter().cloned());
                    scratch.extend(rrow.iter().cloned());
                    prog.eval(&scratch, &mut cx).is_truthy()
                }
                JOn::Using(pairs) => pairs.iter().all(|&(a, b)| {
                    lrow.get(a).zip(rrow.get(b)).and_then(|(x, y)| x.sql_eq(y)) == Some(true)
                }),
            };
            if hit {
                matched = true;
                right_matched[rj] = true;
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
        }
        if !matched && matches!(j.kind, JoinKind::Left | JoinKind::Full) {
            let mut row = lrow.clone();
            row.extend(std::iter::repeat(Value::Null).take(j.rw));
            rows.push(row);
        }
    }
    if matches!(j.kind, JoinKind::Right | JoinKind::Full) {
        for (rj, rrow) in r.iter().enumerate() {
            if !right_matched[rj] {
                let mut row: Vec<Value> = std::iter::repeat(Value::Null).take(j.lw).collect();
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
        }
    }
    Ok(rows)
}

/// Right-side hash join: build skips NULL keys, postings stay in scan order
/// (so rows come out in nested-loop order), NULL probe keys pad (outer) or
/// drop.
fn hash_join_rows(
    j: &JoinNode,
    l: &[Vec<Value>],
    r: &[Vec<Value>],
    li: usize,
    ri_col: usize,
    stats: &mut ExecStats,
) -> Vec<Vec<Value>> {
    let mut table: HashMap<&Value, Vec<usize>> = HashMap::new();
    for (i, rrow) in r.iter().enumerate() {
        if let Some(key) = rrow.get(ri_col) {
            if !key.is_null() {
                table.entry(key).or_default().push(i);
            }
        }
    }
    let mut rows = Vec::new();
    let mut right_matched = vec![false; r.len()];
    for lrow in l {
        let idxs = lrow
            .get(li)
            .filter(|k| !k.is_null())
            .and_then(|k| table.get(k));
        match idxs {
            Some(idxs) => {
                stats.join_pairs += idxs.len() as u64;
                for &ri in idxs {
                    right_matched[ri] = true;
                    let mut row = lrow.clone();
                    row.extend(r.get(ri).into_iter().flatten().cloned());
                    rows.push(row);
                }
            }
            None => {
                if matches!(j.kind, JoinKind::Left | JoinKind::Full) {
                    let mut row = lrow.clone();
                    row.extend(std::iter::repeat(Value::Null).take(j.rw));
                    rows.push(row);
                }
            }
        }
    }
    if matches!(j.kind, JoinKind::Right | JoinKind::Full) {
        for (ri, rrow) in r.iter().enumerate() {
            if !right_matched[ri] {
                let mut row: Vec<Value> = std::iter::repeat(Value::Null).take(j.lw).collect();
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
        }
    }
    rows
}

// ----- vectorized filter helpers -----

/// Filter a selection vector over a borrowed base in `BATCH_SIZE` chunks.
fn filter_sel(
    prog: &Program,
    base: &[Vec<Value>],
    sel: &mut Vec<u32>,
    cx: &mut EvalCx,
    stats: &mut ExecStats,
) {
    let mut kept = Vec::with_capacity(sel.len());
    let mut out = Vec::new();
    let mut refs: Vec<&[Value]> = Vec::with_capacity(BATCH_SIZE);
    for chunk in sel.chunks(BATCH_SIZE) {
        refs.clear();
        refs.extend(chunk.iter().map(|&i| {
            base.get(i as usize)
                .map(|r| r.as_slice())
                .unwrap_or(EMPTY_ROW)
        }));
        prog.eval_batch(&refs, cx, &mut out);
        stats.batches += 1;
        for (k, &i) in chunk.iter().enumerate() {
            if out.get(k).map(|v| v.is_truthy()).unwrap_or(false) {
                kept.push(i);
            }
        }
    }
    *sel = kept;
}

/// Evaluate a predicate over owned rows in `BATCH_SIZE` chunks.
fn batch_flags(
    prog: &Program,
    rows: &[Vec<Value>],
    cx: &mut EvalCx,
    stats: &mut ExecStats,
) -> Vec<bool> {
    let mut flags = Vec::with_capacity(rows.len());
    let mut out = Vec::new();
    let mut refs: Vec<&[Value]> = Vec::with_capacity(BATCH_SIZE);
    for chunk in rows.chunks(BATCH_SIZE) {
        refs.clear();
        refs.extend(chunk.iter().map(|r| r.as_slice()));
        prog.eval_batch(&refs, cx, &mut out);
        stats.batches += 1;
        flags.extend(out.iter().map(|v| v.is_truthy()));
    }
    flags
}

/// Retain rows (and their tags, if tracked) flagged true.
fn retain_rows(rows: &mut Vec<Vec<Value>>, tags: &mut Option<Vec<Vec<u32>>>, flags: &[bool]) {
    let mut it = flags.iter();
    rows.retain(|_| *it.next().unwrap_or(&false));
    if let Some(t) = tags {
        let mut it = flags.iter();
        t.retain(|_| *it.next().unwrap_or(&false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_query;
    use crate::reference::reference_query;
    use squ_parser::parse_query;

    fn db() -> Database {
        let mut db = Database::new("t");
        db.insert_table(
            "users",
            Relation::new(
                vec!["id".into(), "name".into(), "dept".into()],
                (0..12)
                    .map(|i| {
                        vec![
                            Value::num(i as f64),
                            Value::str(&format!("user{i}")),
                            Value::num((i % 3) as f64),
                        ]
                    })
                    .collect(),
            ),
        );
        db.insert_table(
            "depts",
            Relation::new(
                vec!["dept".into(), "label".into()],
                (0..3)
                    .map(|i| vec![Value::num(i as f64), Value::str(&format!("d{i}"))])
                    .collect(),
            ),
        );
        db.insert_table(
            "logs",
            Relation::new(
                vec!["uid".into(), "level".into()],
                (0..30)
                    .map(|i| vec![Value::num((i % 12) as f64), Value::num((i % 5) as f64)])
                    .collect(),
            ),
        );
        db
    }

    /// Compile must succeed, and compiled output (columns, rows, *order*)
    /// must match the reference interpreter exactly.
    fn parity(sql: &str) -> ExecStats {
        let q = parse_query(sql).unwrap();
        let db = db();
        let cq = compile_query(&q, &db).unwrap_or_else(|| panic!("did not compile: {sql}"));
        let (got, stats) = cq.execute(&db).unwrap();
        let want = reference_query(&q, &db).unwrap();
        assert_eq!(got.columns, want.columns, "columns for {sql}");
        assert_eq!(got.rows, want.rows, "rows for {sql}");
        assert_eq!(stats.compiled, 1);
        stats
    }

    #[test]
    fn simple_filter_compiles_and_agrees() {
        let stats = parity("SELECT name FROM users WHERE dept = 1 AND id > 3");
        assert!(stats.batches > 0, "vectorized path not exercised");
    }

    #[test]
    fn provably_empty_where_short_circuits() {
        // contradictory range: the analyzer proves the block empty, so the
        // compiled engine skips the scan entirely (and still agrees with
        // the reference interpreter, which never prunes)
        let stats = parity("SELECT name FROM users WHERE id > 5 AND id < 3");
        assert_eq!(stats.empty_prunes, 1);
        assert_eq!(stats.rows_scanned, 0, "prune must skip the scan");

        // NULL comparisons never evaluate to TRUE either
        let stats = parity("SELECT name FROM users WHERE dept = NULL");
        assert_eq!(stats.empty_prunes, 1);

        // a satisfiable WHERE must not prune
        let stats = parity("SELECT name FROM users WHERE id > 3 AND id < 5");
        assert_eq!(stats.empty_prunes, 0);
        assert!(stats.rows_scanned > 0);

        // aggregates produce their empty-input row, so grouped blocks are
        // exempt even when the WHERE is contradictory
        let stats = parity("SELECT COUNT(*) FROM users WHERE id > 5 AND id < 3");
        assert_eq!(stats.empty_prunes, 0);
    }

    #[test]
    fn projection_wildcards_and_distinct_agree() {
        parity("SELECT * FROM users WHERE id < 5");
        parity("SELECT u.* FROM users u WHERE u.dept = 2");
        parity("SELECT DISTINCT dept FROM users ORDER BY dept DESC");
        parity("SELECT DISTINCT dept FROM users LIMIT 2");
    }

    #[test]
    fn correlated_subquery_falls_back_to_reference() {
        let q = parse_query(
            "SELECT id FROM users u WHERE EXISTS (SELECT 1 FROM logs WHERE uid = u.id)",
        )
        .unwrap();
        let db = db();
        assert!(compile_query(&q, &db).is_none(), "correlation must reject");
        let (rel, stats) = execute_query(&q, &db).unwrap();
        let want = reference_query(&q, &db).unwrap();
        assert_eq!(rel.columns, want.columns);
        assert_eq!(rel.rows, want.rows);
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.compiled, 0);
        assert_eq!(stats.rows_output, want.rows.len() as u64);
        // the reference interpreter keeps no work counters
        assert_eq!(stats.rows_scanned, 0);
        assert_eq!(stats.join_pairs, 0);
    }

    #[test]
    fn uncorrelated_subqueries_are_hoisted_into_slots() {
        let stats =
            parity("SELECT name FROM users WHERE dept IN (SELECT dept FROM depts WHERE dept > 0)");
        assert!(stats.subquery_evals >= 1);
        parity("SELECT name FROM users WHERE id = (SELECT MAX(dept) FROM depts)");
        parity("SELECT id FROM users WHERE EXISTS (SELECT dept FROM depts WHERE dept = 99)");
    }

    #[test]
    fn index_probe_fetches_only_matching_rows() {
        let stats = parity("SELECT name FROM users WHERE id = 7");
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.index_hits, 1);
        assert_eq!(stats.rows_scanned, 1, "probe must not scan the table");
    }

    #[test]
    fn explicit_joins_agree() {
        parity("SELECT u.name, d.label FROM users u JOIN depts d ON u.dept = d.dept");
        parity(
            "SELECT u.name, l.level FROM users u LEFT JOIN logs l ON u.id = l.uid AND l.level > 2",
        );
        parity("SELECT u.name, d.label FROM users u CROSS JOIN depts d WHERE u.id < 2");
    }

    #[test]
    fn grouped_aggregates_agree() {
        parity(
            "SELECT dept, COUNT(*), AVG(id) FROM users GROUP BY dept \
             HAVING COUNT(*) > 3 ORDER BY dept DESC",
        );
        parity("SELECT COUNT(*), MIN(id), MAX(id) FROM users WHERE id > 100");
        parity("SELECT dept, COUNT(DISTINCT level) FROM logs l, users u WHERE l.uid = u.id GROUP BY dept");
    }

    #[test]
    fn reordered_comma_join_preserves_interpreter_row_order() {
        // three units with equi chains: the greedy planner starts at the
        // smallest table and deviates from declaration order, so the tag
        // restore path must put rows back exactly
        let sql = "SELECT u.id, l.level, d.label FROM logs l, users u, depts d \
                   WHERE l.uid = u.id AND u.dept = d.dept";
        let q = parse_query(sql).unwrap();
        let db = db();
        let cq = compile_query(&q, &db).unwrap();
        assert!(cq.phys_reordered(), "planner should reorder this query");
        parity(sql);
    }

    #[test]
    fn ctes_and_set_ops_agree() {
        parity(
            "WITH big AS (SELECT id, dept FROM users WHERE id > 5) \
             SELECT dept FROM big UNION SELECT dept FROM depts ORDER BY dept",
        );
        parity(
            "WITH a AS (SELECT id FROM users), b AS (SELECT id FROM a WHERE id < 4) \
             SELECT id FROM b",
        );
        parity("SELECT dept FROM users INTERSECT SELECT dept FROM depts");
        // names differing only in case: the latest declaration wins
        parity("WITH a AS (SELECT 1 AS x), A AS (SELECT 2 AS x) SELECT x FROM a");
    }

    #[test]
    fn wildcard_with_aliased_order_key_rejects() {
        // the reference interpreter resolves `k` against item positions
        // that don't line up once the wildcard expands — safest to fall back
        let q = parse_query("SELECT *, id AS k FROM users ORDER BY k").unwrap();
        let db = db();
        assert!(compile_query(&q, &db).is_none());
        let (rel, _) = execute_query(&q, &db).unwrap();
        let want = reference_query(&q, &db).unwrap();
        assert_eq!(rel.columns, want.columns);
        assert_eq!(rel.rows, want.rows);
    }

    impl CompiledQuery {
        fn phys_reordered(&self) -> bool {
            match &self.phys.body {
                PhysSet::Select(s) => s.reordered,
                PhysSet::SetOp { .. } => false,
            }
        }
    }
}
