//! Predicate feasibility under SQL's three-valued logic.
//!
//! The engine lowers a boolean [`Expr`] into disjunctive normal form over a
//! small atom language (column-vs-literal comparisons, column-vs-column
//! comparisons, null tests, opaque residuals) and decides whether any
//! conjunction of atoms admits a satisfying row. Every decision is
//! *conservative*: constructs the domains cannot express become [`Atom::Opaque`]
//! residuals that are assumed satisfiable and never tautological, so
//! `never_true` / `always_true` answers of `true` are proofs while `false`
//! only means "could not prove".
//!
//! Three-valued logic is handled by tracking four *polarities* of a
//! predicate: `IsTrue` (evaluates to TRUE), `IsFalse`, `NotTrue` (FALSE or
//! UNKNOWN — the rows a `WHERE` filter rejects) and `NotFalse` (TRUE or
//! UNKNOWN). `NOT x` maps `IsTrue`→`IsFalse` and `NotTrue`→`NotFalse`,
//! which is exactly Kleene negation.

use squ_lexer::CompareOp;
use squ_parser::ast::{Expr, Literal};
use std::collections::BTreeMap;

/// Cap on the number of DNF branches explored before giving up (the
/// conservative answer is "satisfiable").
const MAX_BRANCHES: usize = 256;

/// A column identity as written in the query: `(qualifier, name)`, both
/// lower-cased. Distinct spellings of the same column (qualified vs bare)
/// get distinct keys, which only weakens the analysis, never unsounds it.
pub type ColKey = (Option<String>, String);

/// Lower-cased key for a column reference.
pub fn col_key(c: &squ_parser::ast::ColumnRef) -> ColKey {
    (
        c.qualifier.as_ref().map(|q| q.to_ascii_lowercase()),
        c.name.to_ascii_lowercase(),
    )
}

/// External facts the caller can vouch for. The analyzer itself assumes
/// nothing: witness generation guarantees id-like base-table columns are
/// never NULL, and [`crate::analyze`] translates that into `not_null` keys
/// scoped to the select being analyzed.
#[derive(Debug, Clone, Default)]
pub struct Assumptions {
    /// Column keys known to never hold NULL.
    pub not_null: std::collections::BTreeSet<ColKey>,
}

impl Assumptions {
    /// No external facts (sound for arbitrary databases).
    pub fn none() -> Self {
        Self::default()
    }
}

/// A literal value an atom can compare against.
#[derive(Debug, Clone, PartialEq)]
pub enum LitVal {
    /// Numeric constant.
    Num(f64),
    /// String constant.
    Str(String),
    /// Boolean constant.
    Bool(bool),
}

fn lit_val(l: &Literal) -> Option<LitVal> {
    match l {
        Literal::Number(n) => Some(LitVal::Num(*n)),
        Literal::String(s) => Some(LitVal::Str(s.clone())),
        Literal::Bool(b) => Some(LitVal::Bool(*b)),
        Literal::Null => None,
    }
}

/// Constraint polarity on an opaque residual expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpaquePol {
    /// The residual evaluates to TRUE.
    IsTrue,
    /// The residual evaluates to FALSE.
    IsFalse,
    /// FALSE or UNKNOWN.
    NotTrue,
    /// TRUE or UNKNOWN.
    NotFalse,
}

/// One conjunct of a DNF branch.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `col op lit` evaluates to TRUE (implies `col` is non-NULL).
    CmpLit {
        /// Column key.
        col: ColKey,
        /// Comparison operator (column on the left).
        op: CompareOp,
        /// Literal operand.
        v: LitVal,
    },
    /// `a op b` between two distinct columns evaluates to TRUE (implies
    /// both are non-NULL).
    CmpCols {
        /// Left column key.
        a: ColKey,
        /// Operator.
        op: CompareOp,
        /// Right column key.
        b: ColKey,
    },
    /// `col IS NULL` holds.
    IsNull(ColKey),
    /// `col IS NOT NULL` holds.
    NotNull(ColKey),
    /// A construct outside the domains, keyed by its printed form so the
    /// same residual under opposite polarities still conflicts.
    Opaque {
        /// Stable structural key of the residual expression.
        key: String,
        /// Required truth region.
        pol: OpaquePol,
    },
    /// Unconditionally unsatisfiable (e.g. `NULL = NULL` required TRUE).
    Never,
}

/// The four Kleene truth regions a subformula can be required to hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Must evaluate to TRUE.
    IsTrue,
    /// Must evaluate to FALSE.
    IsFalse,
    /// Must evaluate to FALSE or UNKNOWN (rejected by a WHERE).
    NotTrue,
    /// Must evaluate to TRUE or UNKNOWN.
    NotFalse,
}

impl Polarity {
    fn negate(self) -> Polarity {
        match self {
            Polarity::IsTrue => Polarity::IsFalse,
            Polarity::IsFalse => Polarity::IsTrue,
            Polarity::NotTrue => Polarity::NotFalse,
            Polarity::NotFalse => Polarity::NotTrue,
        }
    }

    /// Does the region include UNKNOWN?
    fn admits_unknown(self) -> bool {
        matches!(self, Polarity::NotTrue | Polarity::NotFalse)
    }

    fn opaque(self) -> OpaquePol {
        match self {
            Polarity::IsTrue => OpaquePol::IsTrue,
            Polarity::IsFalse => OpaquePol::IsFalse,
            Polarity::NotTrue => OpaquePol::NotTrue,
            Polarity::NotFalse => OpaquePol::NotFalse,
        }
    }
}

/// A DNF: satisfiable iff some branch (conjunction of atoms) is. The empty
/// branch `[]` is trivially satisfiable; the empty DNF is unsatisfiable.
pub type Dnf = Vec<Vec<Atom>>;

/// Every `x ∧ y` for `x` in `a` and `y` in `b`, `x`-major. Each branch is
/// cloned for all but its last use, which moves it.
fn cross(mut a: Dnf, b: Dnf) -> Dnf {
    if a.len().saturating_mul(b.len()) > MAX_BRANCHES {
        // overflow: collapse to "anything goes" (conservative)
        return vec![vec![overflow_atom()]];
    }
    let mut out = Vec::with_capacity(a.len() * b.len());
    let last = a.pop();
    for x in a {
        conjoin_each(&mut out, x, b.iter().cloned());
    }
    if let Some(x) = last {
        conjoin_each(&mut out, x, b.into_iter());
    }
    out
}

/// Push `x ∧ y` for each `y` in order, moving `x` into the last one.
fn conjoin_each(out: &mut Dnf, mut x: Vec<Atom>, ys: impl ExactSizeIterator<Item = Vec<Atom>>) {
    let mut left = ys.len();
    for y in ys {
        left -= 1;
        let mut branch = if left == 0 {
            std::mem::take(&mut x)
        } else {
            x.clone()
        };
        branch.extend(y);
        out.push(branch);
    }
}

fn union(mut a: Dnf, b: Dnf) -> Dnf {
    a.extend(b);
    if a.len() > MAX_BRANCHES {
        return vec![vec![overflow_atom()]];
    }
    a
}

/// Fresh satisfiable atom used when branch budgets overflow.
fn overflow_atom() -> Atom {
    Atom::Opaque {
        key: "\u{1}overflow".into(),
        pol: OpaquePol::NotFalse,
    }
}

fn trivially(sat: bool) -> Dnf {
    if sat {
        vec![Vec::new()]
    } else {
        Vec::new()
    }
}

/// Structural key for opaque residuals: the parser's printed form, which is
/// deterministic and span-independent.
fn opaque_key(e: &Expr) -> String {
    squ_parser::print_expr(e)
}

fn opaque(e: &Expr, pol: Polarity) -> Dnf {
    vec![vec![Atom::Opaque {
        key: opaque_key(e),
        pol: pol.opaque(),
    }]]
}

/// Evaluate `l op r` on two known literal values; `None` when the SQL
/// result is UNKNOWN or the values are cross-class (engine comparison of
/// mismatched classes yields UNKNOWN).
fn eval_lit_cmp(l: &LitVal, op: CompareOp, r: &LitVal) -> Option<bool> {
    use std::cmp::Ordering;
    let ord = match (l, r) {
        (LitVal::Num(a), LitVal::Num(b)) => a.partial_cmp(b)?,
        (LitVal::Str(a), LitVal::Str(b)) => a.cmp(b),
        (LitVal::Bool(a), LitVal::Bool(b)) => a.cmp(b),
        _ => return None,
    };
    Some(match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::NotEq => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::LtEq => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::GtEq => ord != Ordering::Less,
    })
}

/// What does `col op col` (same column, hence equal, non-NULL values)
/// evaluate to?
fn same_col_holds(op: CompareOp) -> bool {
    matches!(op, CompareOp::Eq | CompareOp::LtEq | CompareOp::GtEq)
}

/// Lower `e` restricted to truth region `pol` into DNF.
pub fn to_dnf(e: &Expr, pol: Polarity) -> Dnf {
    match e {
        Expr::And(a, b) => match pol {
            // TRUE: both true. NotFalse: neither false.
            Polarity::IsTrue | Polarity::NotFalse => cross(to_dnf(a, pol), to_dnf(b, pol)),
            // FALSE: either false. NotTrue: either not-true.
            Polarity::IsFalse | Polarity::NotTrue => union(to_dnf(a, pol), to_dnf(b, pol)),
        },
        Expr::Or(a, b) => match pol {
            Polarity::IsTrue | Polarity::NotFalse => union(to_dnf(a, pol), to_dnf(b, pol)),
            Polarity::IsFalse | Polarity::NotTrue => cross(to_dnf(a, pol), to_dnf(b, pol)),
        },
        Expr::Not(inner) => to_dnf(inner, pol.negate()),
        Expr::Literal(l) => match l {
            Literal::Bool(b) => trivially(match pol {
                Polarity::IsTrue | Polarity::NotFalse => *b,
                Polarity::IsFalse | Polarity::NotTrue => !*b,
            }),
            Literal::Null => trivially(pol.admits_unknown()),
            // a bare number/string in boolean position: not a construct the
            // dialect produces; stay conservative
            _ => opaque(e, pol),
        },
        Expr::Compare { op, left, right } => compare_dnf(e, *op, left, right, pol),
        Expr::IsNull { expr, negated } => {
            // two-valued: IS NULL never yields UNKNOWN
            let want_null = match pol {
                Polarity::IsTrue | Polarity::NotFalse => !negated,
                Polarity::IsFalse | Polarity::NotTrue => *negated,
            };
            match &**expr {
                Expr::Column(c) => {
                    let k = col_key(c);
                    vec![vec![if want_null {
                        Atom::IsNull(k)
                    } else {
                        Atom::NotNull(k)
                    }]]
                }
                Expr::Literal(Literal::Null) => trivially(want_null),
                Expr::Literal(_) => trivially(!want_null),
                _ => opaque(e, pol),
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // x BETWEEN l AND h  ≡  x >= l AND x <= h (3VL-exact)
            let ge = Expr::Compare {
                op: CompareOp::GtEq,
                left: expr.clone(),
                right: low.clone(),
            };
            let le = Expr::Compare {
                op: CompareOp::LtEq,
                left: expr.clone(),
                right: high.clone(),
            };
            let range = Expr::And(Box::new(ge), Box::new(le));
            let full = if *negated {
                Expr::Not(Box::new(range))
            } else {
                range
            };
            to_dnf(&full, pol)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            // x IN (a, b, …) ≡ x = a OR x = b OR … (3VL-exact, incl. NULLs
            // in the list: `x = NULL` contributes UNKNOWN exactly as IN does)
            if list.is_empty() {
                // empty IN list: vacuously FALSE (negated: TRUE)
                let truth = *negated;
                return trivially(match pol {
                    Polarity::IsTrue | Polarity::NotFalse => truth,
                    Polarity::IsFalse | Polarity::NotTrue => !truth,
                });
            }
            let mut ors = list.iter().map(|v| Expr::Compare {
                op: CompareOp::Eq,
                left: expr.clone(),
                right: Box::new(v.clone()),
            });
            let first = match ors.next() {
                Some(f) => f,
                None => return trivially(pol.admits_unknown()),
            };
            let chain = ors.fold(first, |acc, p| Expr::Or(Box::new(acc), Box::new(p)));
            let full = if *negated {
                Expr::Not(Box::new(chain))
            } else {
                chain
            };
            to_dnf(&full, pol)
        }
        // Everything else — LIKE, subqueries, functions, CASE, arithmetic in
        // boolean position — is outside the domains.
        _ => opaque(e, pol),
    }
}

fn compare_dnf(whole: &Expr, op: CompareOp, left: &Expr, right: &Expr, pol: Polarity) -> Dnf {
    // Orient literal to the right.
    let (l, r, op) = match (left, right) {
        (Expr::Literal(_), e) if !matches!(e, Expr::Literal(_)) => (e, left, op.flipped()),
        _ => (left, right, op),
    };
    match (l, r) {
        (Expr::Column(c), Expr::Literal(lit)) => {
            let k = col_key(c);
            match lit_val(lit) {
                None => trivially(pol.admits_unknown()), // cmp with NULL: always UNKNOWN
                Some(v) => match pol {
                    Polarity::IsTrue => vec![vec![Atom::CmpLit { col: k, op, v }]],
                    Polarity::IsFalse => vec![vec![Atom::CmpLit {
                        col: k,
                        op: op.negated(),
                        v,
                    }]],
                    Polarity::NotTrue => vec![
                        vec![Atom::CmpLit {
                            col: k.clone(),
                            op: op.negated(),
                            v,
                        }],
                        vec![Atom::IsNull(k)],
                    ],
                    Polarity::NotFalse => vec![
                        vec![Atom::CmpLit {
                            col: k.clone(),
                            op,
                            v,
                        }],
                        vec![Atom::IsNull(k)],
                    ],
                },
            }
        }
        (Expr::Column(a), Expr::Column(b)) => {
            let (ka, kb) = (col_key(a), col_key(b));
            if ka == kb {
                // same column compared with itself: equal non-NULL values,
                // UNKNOWN when NULL
                let holds = same_col_holds(op);
                return match pol {
                    Polarity::IsTrue => {
                        if holds {
                            vec![vec![Atom::NotNull(ka)]]
                        } else {
                            Vec::new()
                        }
                    }
                    Polarity::IsFalse => {
                        if holds {
                            Vec::new()
                        } else {
                            vec![vec![Atom::NotNull(ka)]]
                        }
                    }
                    Polarity::NotTrue => {
                        if holds {
                            vec![vec![Atom::IsNull(ka)]]
                        } else {
                            trivially(true)
                        }
                    }
                    Polarity::NotFalse => {
                        if holds {
                            trivially(true)
                        } else {
                            vec![vec![Atom::IsNull(ka)]]
                        }
                    }
                };
            }
            match pol {
                Polarity::IsTrue => vec![vec![Atom::CmpCols { a: ka, op, b: kb }]],
                Polarity::IsFalse => vec![vec![Atom::CmpCols {
                    a: ka,
                    op: op.negated(),
                    b: kb,
                }]],
                Polarity::NotTrue => vec![
                    vec![Atom::CmpCols {
                        a: ka.clone(),
                        op: op.negated(),
                        b: kb.clone(),
                    }],
                    vec![Atom::IsNull(ka)],
                    vec![Atom::IsNull(kb)],
                ],
                Polarity::NotFalse => vec![
                    vec![Atom::CmpCols {
                        a: ka.clone(),
                        op,
                        b: kb.clone(),
                    }],
                    vec![Atom::IsNull(ka)],
                    vec![Atom::IsNull(kb)],
                ],
            }
        }
        (Expr::Literal(la), Expr::Literal(lb)) => match (lit_val(la), lit_val(lb)) {
            (Some(a), Some(b)) => match eval_lit_cmp(&a, op, &b) {
                Some(t) => trivially(match pol {
                    Polarity::IsTrue | Polarity::NotFalse => t,
                    Polarity::IsFalse | Polarity::NotTrue => !t,
                }),
                None => trivially(pol.admits_unknown()),
            },
            _ => trivially(pol.admits_unknown()),
        },
        _ => opaque(whole, pol),
    }
}

// ---------------- branch satisfiability ----------------

/// One-sided bound.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bound {
    v: f64,
    open: bool,
}

/// A numeric interval with optional open endpoints; `None` = unbounded.
#[derive(Debug, Clone, Default)]
struct Interval {
    lo: Option<Bound>,
    hi: Option<Bound>,
}

impl Interval {
    fn tighten_lo(&mut self, v: f64, open: bool) {
        let better = match self.lo {
            None => true,
            Some(b) => v > b.v || (v == b.v && open && !b.open),
        };
        if better {
            self.lo = Some(Bound { v, open });
        }
    }

    fn tighten_hi(&mut self, v: f64, open: bool) {
        let better = match self.hi {
            None => true,
            Some(b) => v < b.v || (v == b.v && open && !b.open),
        };
        if better {
            self.hi = Some(Bound { v, open });
        }
    }

    fn is_empty(&self) -> bool {
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) => lo.v > hi.v || (lo.v == hi.v && (lo.open || hi.open)),
            _ => false,
        }
    }

    /// First integer admitted at-or-above the lower bound, if bounded.
    fn first_int(&self) -> Option<f64> {
        self.lo.map(|lo| {
            let mut n = lo.v.ceil();
            if n == lo.v && lo.open {
                n += 1.0;
            }
            n
        })
    }

    /// Is the interval a single point?
    fn singleton(&self) -> Option<f64> {
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) if lo.v == hi.v && !lo.open && !hi.open => Some(lo.v),
            _ => None,
        }
    }
}

/// Per-equivalence-class value constraints.
#[derive(Debug, Clone, Default)]
struct ClassDom {
    interval: Interval,
    /// Excluded single numeric points (from `<>`).
    excluded: Vec<f64>,
    /// Required string constant, if any.
    str_eq: Option<String>,
    /// Excluded string constants.
    str_ne: Vec<String>,
    /// Required boolean constant.
    bool_eq: Option<bool>,
    /// Excluded boolean constant.
    bool_ne: Option<bool>,
    /// Class must be NULL.
    must_null: bool,
    /// Class must be non-NULL (any comparison atom also sets this).
    must_not_null: bool,
    /// The class carries at least one value constraint (comparison atom).
    compared: bool,
}

impl ClassDom {
    fn contradictory(&self) -> bool {
        if self.must_null && (self.must_not_null || self.compared) {
            return true;
        }
        if self.interval.is_empty() {
            return true;
        }
        if let Some(p) = self.interval.singleton() {
            if self.excluded.contains(&p) {
                return true;
            }
        }
        if let Some(s) = &self.str_eq {
            if self.str_ne.iter().any(|n| n == s) {
                return true;
            }
            // a string pin plus any numeric bound: cross-class comparison is
            // UNKNOWN, so a numeric atom on a string-pinned class can't hold
            if self.interval.lo.is_some() || self.interval.hi.is_some() {
                return true;
            }
        }
        if let (Some(b), Some(n)) = (self.bool_eq, self.bool_ne) {
            if b == n {
                return true;
            }
        }
        // pins from different value classes cannot coexist
        let classes = [
            self.interval.lo.is_some() || self.interval.hi.is_some(),
            self.str_eq.is_some(),
            self.bool_eq.is_some(),
        ];
        if classes.iter().filter(|c| **c).count() > 1 {
            return true;
        }
        false
    }

    /// How many distinct *integers* (up to `want`) can realize this class?
    /// Integers are valid for every numeric SQL type, so a count of `n`
    /// here proves `n` concrete values exist — the must-exist direction
    /// conviction premises need. With an unbounded side there are always
    /// enough; a bounded interval is enumerated (the loop either counts a
    /// value or skips an excluded point, so it runs at most
    /// `want + excluded.len()` useful steps).
    fn admissible_ints(&self, want: usize, exclude_zero: bool) -> usize {
        if self.must_null || self.str_eq.is_some() || self.bool_eq.is_some() || self.contradictory()
        {
            return 0;
        }
        let iv = &self.interval;
        let (Some(_), Some(hi)) = (iv.lo, iv.hi) else {
            // a side is unbounded: infinitely many integers remain past the
            // finitely many excluded points (and past zero)
            return want;
        };
        let mut n = match iv.first_int() {
            Some(n) => n,
            None => return want,
        };
        let mut count = 0;
        let mut skips = self.excluded.len() + usize::from(exclude_zero);
        while count < want && (n < hi.v || (n == hi.v && !hi.open)) {
            let blocked = (exclude_zero && n == 0.0) || self.excluded.contains(&n);
            if blocked {
                if skips == 0 {
                    break; // defensive: cannot happen, but bounds the loop
                }
                skips -= 1;
            } else {
                count += 1;
            }
            n += 1.0;
        }
        count
    }

    /// Do at least two distinct concrete values realize the class (used by
    /// the MIN/MAX and AVG swap convictors)? Integer-aware, so the answer
    /// stays sound for INT columns: `x > 4 AND x < 6` does *not* allow two
    /// values.
    fn allows_two_values(&self) -> bool {
        self.admissible_ints(2, false) >= 2
    }

    /// Does some non-zero concrete value realize the class (used by the
    /// SUM/AVG swap convictor)?
    fn allows_nonzero(&self) -> bool {
        if let Some(p) = self.interval.singleton() {
            // an exact non-integer pin still counts (e.g. `x = 2.5`)
            return p != 0.0 && !self.contradictory() && self.admits_numeric();
        }
        self.admissible_ints(1, true) >= 1
    }

    /// Can some concrete value (or NULL, when required) realize this class
    /// in isolation? Pins of any type qualify; bounded numeric intervals
    /// must admit an integer so the answer is sound for INT columns.
    fn constructive(&self) -> bool {
        if self.contradictory() {
            return false;
        }
        if self.must_null || self.str_eq.is_some() || self.bool_eq.is_some() {
            return true;
        }
        if self.interval.lo.is_none() && self.interval.hi.is_none() {
            return true; // unconstrained (string/bool exclusions always leave values)
        }
        if let Some(p) = self.interval.singleton() {
            return !self.excluded.contains(&p);
        }
        self.admissible_ints(1, false) >= 1
    }

    fn admits_numeric(&self) -> bool {
        self.str_eq.is_none() && self.bool_eq.is_none() && !self.must_null
    }
}

/// Union-find over column keys.
struct Classes {
    parent: Vec<usize>,
    keys: BTreeMap<ColKey, usize>,
}

impl Classes {
    fn new() -> Self {
        Classes {
            parent: Vec::new(),
            keys: BTreeMap::new(),
        }
    }

    fn id(&mut self, k: &ColKey) -> usize {
        if let Some(i) = self.keys.get(k) {
            return *i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.keys.insert(k.clone(), i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            let p = self.parent[i];
            self.parent[i] = self.parent[p];
            i = p;
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The solved form of one satisfiable-looking branch.
pub struct BranchModel {
    classes: Classes,
    doms: BTreeMap<usize, ClassDom>,
}

impl BranchModel {
    fn dom(&mut self, root: usize) -> &mut ClassDom {
        self.doms.entry(root).or_default()
    }

    /// Domain facts for a column key, if the branch constrains it.
    fn class_dom(&mut self, k: &ColKey) -> ClassDom {
        let i = self.classes.id(k);
        let r = self.classes.find(i);
        self.doms.get(&r).cloned().unwrap_or_default()
    }

    /// Could `col` take two distinct values in this branch?
    pub fn allows_two_values(&mut self, k: &ColKey) -> bool {
        self.class_dom(k).allows_two_values()
    }

    /// Could `col` take a non-zero numeric value in this branch?
    pub fn allows_nonzero(&mut self, k: &ColKey) -> bool {
        self.class_dom(k).allows_nonzero()
    }

    /// Is every class of the model realizable by concrete values in
    /// isolation? (See [`any_constructive`].)
    pub(crate) fn is_constructive(&self) -> bool {
        self.doms.values().all(|d| d.constructive())
    }

    /// The single constant `col` is pinned to, if any.
    pub fn pinned_value(&mut self, k: &ColKey) -> Option<LitVal> {
        let d = self.class_dom(k);
        if let Some(p) = d.interval.singleton() {
            return Some(LitVal::Num(p));
        }
        if let Some(s) = d.str_eq {
            return Some(LitVal::Str(s));
        }
        d.bool_eq.map(LitVal::Bool)
    }
}

/// Decide satisfiability of one branch; `Some(model)` when no contradiction
/// was found (an over-approximation: opaque residuals are trusted).
pub fn solve_branch(branch: &[Atom], assume: &Assumptions) -> Option<BranchModel> {
    let mut cls = Classes::new();
    // pass 1: union equality classes
    for a in branch {
        if let Atom::CmpCols {
            a: x,
            op: CompareOp::Eq,
            b: y,
        } = a
        {
            let (i, j) = (cls.id(x), cls.id(y));
            cls.union(i, j);
        }
    }
    let mut model = BranchModel {
        classes: cls,
        doms: BTreeMap::new(),
    };
    let mut col_cmps: Vec<(ColKey, CompareOp, ColKey)> = Vec::new();
    let mut opaques: BTreeMap<String, Vec<OpaquePol>> = BTreeMap::new();
    // pass 2: accumulate per-class domains
    for a in branch {
        match a {
            Atom::Never => return None,
            Atom::CmpLit { col, op, v } => {
                let i = model.classes.id(col);
                let r = model.classes.find(i);
                let d = model.dom(r);
                d.compared = true;
                d.must_not_null = true;
                match v {
                    LitVal::Num(n) => match op {
                        CompareOp::Eq => {
                            d.interval.tighten_lo(*n, false);
                            d.interval.tighten_hi(*n, false);
                        }
                        CompareOp::NotEq => d.excluded.push(*n),
                        CompareOp::Lt => d.interval.tighten_hi(*n, true),
                        CompareOp::LtEq => d.interval.tighten_hi(*n, false),
                        CompareOp::Gt => d.interval.tighten_lo(*n, true),
                        CompareOp::GtEq => d.interval.tighten_lo(*n, false),
                    },
                    LitVal::Str(s) => match op {
                        CompareOp::Eq => match &d.str_eq {
                            Some(prev) if prev != s => return None,
                            _ => d.str_eq = Some(s.clone()),
                        },
                        CompareOp::NotEq => d.str_ne.push(s.clone()),
                        // ordered string comparisons: only record non-nullness
                        _ => {}
                    },
                    LitVal::Bool(b) => match op {
                        CompareOp::Eq => match d.bool_eq {
                            Some(prev) if prev != *b => return None,
                            _ => d.bool_eq = Some(*b),
                        },
                        CompareOp::NotEq => d.bool_ne = Some(*b),
                        _ => {}
                    },
                }
            }
            Atom::CmpCols { a: x, op, b: y } => {
                for k in [x, y] {
                    let i = model.classes.id(k);
                    let r = model.classes.find(i);
                    let d = model.dom(r);
                    d.compared = true;
                    d.must_not_null = true;
                }
                if *op != CompareOp::Eq {
                    col_cmps.push((x.clone(), *op, y.clone()));
                }
            }
            Atom::IsNull(k) => {
                if assume.not_null.contains(k) {
                    return None;
                }
                let i = model.classes.id(k);
                let r = model.classes.find(i);
                model.dom(r).must_null = true;
            }
            Atom::NotNull(k) => {
                let i = model.classes.id(k);
                let r = model.classes.find(i);
                model.dom(r).must_not_null = true;
            }
            Atom::Opaque { key, pol } => opaques.entry(key.clone()).or_default().push(*pol),
        }
    }
    // per-class contradictions
    let roots: Vec<usize> = model.doms.keys().copied().collect();
    for r in roots {
        if model.doms[&r].contradictory() {
            return None;
        }
    }
    // ordered comparisons between classes: refute when the intervals make
    // the relation impossible, and same-class irreflexive ops
    let mut order_edges: Vec<(usize, usize, bool)> = Vec::new(); // (lo, hi, strict)
    for (x, op, y) in col_cmps {
        let (ix, iy) = (model.classes.id(&x), model.classes.id(&y));
        let (rx, ry) = (model.classes.find(ix), model.classes.find(iy));
        if rx == ry {
            if !same_col_holds(op) {
                return None;
            }
            continue;
        }
        match op {
            CompareOp::Lt => order_edges.push((rx, ry, true)),
            CompareOp::LtEq => order_edges.push((rx, ry, false)),
            CompareOp::Gt => order_edges.push((ry, rx, true)),
            CompareOp::GtEq => order_edges.push((ry, rx, false)),
            CompareOp::Eq | CompareOp::NotEq => {}
        }
        let dx = model.doms.get(&rx).cloned().unwrap_or_default();
        let dy = model.doms.get(&ry).cloned().unwrap_or_default();
        if let (Some(px), Some(py)) = (dx.interval.singleton(), dy.interval.singleton()) {
            match eval_lit_cmp(&LitVal::Num(px), op, &LitVal::Num(py)) {
                Some(true) => {}
                _ => return None,
            }
            continue;
        }
        // x < y impossible when min(x) >= max(y) etc.
        let impossible = match op {
            CompareOp::Lt | CompareOp::LtEq => match (dx.interval.lo, dy.interval.hi) {
                (Some(lo), Some(hi)) => {
                    lo.v > hi.v || (lo.v == hi.v && (op == CompareOp::Lt || lo.open || hi.open))
                }
                _ => false,
            },
            CompareOp::Gt | CompareOp::GtEq => match (dx.interval.hi, dy.interval.lo) {
                (Some(hi), Some(lo)) => {
                    hi.v < lo.v || (hi.v == lo.v && (op == CompareOp::Gt || hi.open || lo.open))
                }
                _ => false,
            },
            CompareOp::NotEq | CompareOp::Eq => false,
        };
        if impossible {
            return None;
        }
    }
    // a cycle of `<`/`<=` edges containing at least one strict edge is
    // unsatisfiable (`a < b AND b < a`, or longer chains); Floyd–Warshall
    // over the tiny class graph, tracking "some path edge was strict"
    if !order_edges.is_empty() {
        let mut idx: BTreeMap<usize, usize> = BTreeMap::new();
        for (f, t, _) in &order_edges {
            let next = idx.len();
            idx.entry(*f).or_insert(next);
            let next = idx.len();
            idx.entry(*t).or_insert(next);
        }
        let n = idx.len();
        let mut reach = vec![vec![None::<bool>; n]; n];
        for (f, t, s) in &order_edges {
            let (fi, ti) = (idx[f], idx[t]);
            let cur = reach[fi][ti].unwrap_or(false);
            reach[fi][ti] = Some(cur || *s);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if let (Some(a), Some(b)) = (reach[i][k], reach[k][j]) {
                        let cur = reach[i][j].unwrap_or(false);
                        reach[i][j] = Some(cur || a || b);
                    }
                }
            }
        }
        for (i, row) in reach.iter().enumerate() {
            if row[i] == Some(true) {
                return None;
            }
        }
    }
    // opaque residual conflicts: the same expression in the same row has one
    // value, so incompatible truth regions refute the branch
    for pols in opaques.values() {
        let is_true = pols.contains(&OpaquePol::IsTrue);
        let is_false = pols.contains(&OpaquePol::IsFalse);
        let not_true = pols.contains(&OpaquePol::NotTrue);
        let not_false = pols.contains(&OpaquePol::NotFalse);
        if (is_true && (is_false || not_true)) || (is_false && not_false) {
            return None;
        }
    }
    // assumptions: not-null columns with must_null already rejected above
    Some(model)
}

/// Is any branch of `dnf` satisfiable? Returns the first satisfiable
/// branch's model. This is a *may* answer (an over-approximation): opaque
/// residuals are trusted, so `Some` does not prove rows exist.
pub fn any_satisfiable(dnf: &Dnf, assume: &Assumptions) -> Option<BranchModel> {
    dnf.iter().find_map(|b| solve_branch(b, assume))
}

/// Like [`any_satisfiable`], but a *must* answer: the branch may contain no
/// opaque residuals and every class must be realizable by a concrete
/// (integer-friendly) value, so `Some` proves rows satisfying the branch
/// exist. This is the premise inequivalence convictions need. Ordered
/// column-column chains longer than the pairwise interval check covers
/// would be a blind spot, but the workload's generated predicates compare
/// columns only against literals (column pairs appear under equality,
/// which the union-find solves exactly).
pub fn any_constructive(dnf: &Dnf, assume: &Assumptions) -> Option<BranchModel> {
    dnf.iter()
        .filter(|b| !b.iter().any(|a| matches!(a, Atom::Opaque { .. })))
        .find_map(|b| {
            let m = solve_branch(b, assume)?;
            if m.is_constructive() {
                Some(m)
            } else {
                None
            }
        })
}

/// Proof that `e` can never evaluate to TRUE on any row (no assumptions
/// beyond `assume`). `false` means "could not prove", not "can be true".
pub fn never_true(e: &Expr, assume: &Assumptions) -> bool {
    any_satisfiable(&to_dnf(e, Polarity::IsTrue), assume).is_none()
}

/// Proof that `e` evaluates to TRUE on every row (never FALSE nor UNKNOWN)
/// under `assume`.
pub fn always_true(e: &Expr, assume: &Assumptions) -> bool {
    any_satisfiable(&to_dnf(e, Polarity::NotTrue), assume).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use squ_parser::parse;

    fn where_of(sql: &str) -> Expr {
        let stmt = parse(sql).expect("parse");
        let q = match stmt {
            squ_parser::Statement::Query(q) => q,
            _ => panic!("not a query"),
        };
        q.as_select()
            .expect("select")
            .selection
            .clone()
            .expect("where")
    }

    fn nt(pred: &str) -> bool {
        never_true(
            &where_of(&format!("SELECT x FROM t WHERE {pred}")),
            &Assumptions::none(),
        )
    }

    fn at(pred: &str) -> bool {
        always_true(
            &where_of(&format!("SELECT x FROM t WHERE {pred}")),
            &Assumptions::none(),
        )
    }

    /// A DNF of `n` one-atom branches, `IS NULL` on `{tag}0`, `{tag}1`, ….
    fn branches(tag: &str, n: usize) -> Dnf {
        (0..n)
            .map(|i| vec![Atom::IsNull((None, format!("{tag}{i}")))])
            .collect()
    }

    #[test]
    fn cross_keeps_branch_order_and_overflows_past_the_cap() {
        let (a, b) = (branches("a", 3), branches("b", 2));
        let mut want = Vec::new();
        for x in &a {
            for y in &b {
                want.push([x.clone(), y.clone()].concat());
            }
        }
        assert_eq!(cross(a, b), want);
        assert!(cross(Vec::new(), branches("b", 2)).is_empty());
        assert!(cross(branches("a", 2), Vec::new()).is_empty());
        // 16 × 16 = MAX_BRANCHES exactly: kept; one more right branch
        // overflows
        assert_eq!(cross(branches("a", 16), branches("b", 16)).len(), 256);
        assert_eq!(
            cross(branches("a", 16), branches("b", 17)),
            vec![vec![overflow_atom()]]
        );
    }

    #[test]
    fn interval_contradictions() {
        assert!(nt("x > 5 AND x < 3"));
        assert!(nt("x > 5 AND x <= 5"));
        assert!(nt("x = 4 AND x = 7"));
        assert!(nt("x = 4 AND x <> 4"));
        assert!(nt("x BETWEEN 10 AND 2"));
        assert!(!nt("x > 5 AND x < 7"));
        assert!(!nt("x >= 5 AND x <= 5"));
    }

    #[test]
    fn null_semantics() {
        assert!(nt("x = NULL"));
        assert!(nt("x <> NULL"));
        assert!(nt("x IS NULL AND x > 3"));
        assert!(nt("x IS NULL AND x IS NOT NULL"));
        assert!(!nt("x IS NULL OR x > 3"));
    }

    #[test]
    fn equality_chains() {
        assert!(nt("a = b AND b = 5 AND a > 7"));
        assert!(nt("a = b AND b = c AND a = 1 AND c = 2"));
        assert!(!nt("a = b AND b = 5 AND a > 4"));
        assert!(nt("a < b AND b < a"));
        assert!(nt("a < a"));
        assert!(!nt("a <= a"));
        assert!(nt("a > 10 AND b < 5 AND a < b"));
    }

    #[test]
    fn disjunctions_split() {
        assert!(nt("(x > 5 AND x < 3) OR (x = 1 AND x = 2)"));
        assert!(!nt("(x > 5 AND x < 3) OR x = 1"));
        assert!(nt("NOT (x <= 5 OR x >= 3)"));
    }

    #[test]
    fn string_and_bool_domains() {
        assert!(nt("s = 'a' AND s = 'b'"));
        assert!(!nt("s = 'a' AND s <> 'b'"));
        assert!(nt("s = 'a' AND s <> 'a'"));
        assert!(nt("b0 = TRUE AND b0 = FALSE"));
        assert!(nt("s = 'a' AND s > 5"));
    }

    #[test]
    fn tautologies_need_not_null() {
        // x = x is UNKNOWN on NULL, so not always-true without assumptions
        assert!(!at("x = x"));
        let mut a = Assumptions::none();
        a.not_null.insert((None, "x".into()));
        let e = where_of("SELECT x FROM t WHERE x = x");
        assert!(always_true(&e, &a));
        // constants
        assert!(at("1 < 2"));
        assert!(!at("2 < 1"));
        assert!(at("x = 3 OR x <> 3 OR x IS NULL"));
        assert!(!at("x = 3 OR x <> 3"));
    }

    #[test]
    fn opaque_residuals_are_conservative() {
        assert!(!nt("x LIKE 'a%'"));
        assert!(!at("x LIKE 'a%' OR 1 = 1") || at("1 = 1"));
        // same residual under conflicting polarities refutes
        assert!(nt("x LIKE 'a%' AND NOT (x LIKE 'a%')"));
        // different residuals never conflict
        assert!(!nt("x LIKE 'a%' AND NOT (x LIKE 'b%')"));
    }

    #[test]
    fn in_lists() {
        assert!(nt("x IN (1, 2) AND x = 3"));
        assert!(!nt("x IN (1, 2) AND x = 2"));
        assert!(nt("x IN (1, 2) AND x NOT IN (1, 2, 3)"));
    }

    #[test]
    fn assumptions_refute_is_null() {
        let mut a = Assumptions::none();
        a.not_null.insert((None, "id".into()));
        let e = where_of("SELECT x FROM t WHERE id IS NULL");
        assert!(never_true(&e, &a));
        let e2 = where_of("SELECT x FROM t WHERE other IS NULL");
        assert!(!never_true(&e2, &a));
    }
}
