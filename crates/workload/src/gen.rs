//! Schema-aware random query generation.
//!
//! [`QueryGenerator`] produces *semantically clean* SQL statements over a
//! [`Schema`]: every generated query parses, binds without diagnostics, and
//! executes on witness databases. Workload character (query length, join
//! fan-out, aggregation rate, nesting, DDL share, …) is controlled by a
//! [`GenProfile`]; the four paper workloads are profiles defined in
//! the workload builders in this crate ([`crate::build`]).
//!
//! Generation is deterministic in the seed: the same `(schema, profile,
//! seed)` triple always yields the same statement, which is what makes the
//! benchmark's derived datasets reproducible end-to-end.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use squ_engine::TEXT_VOCAB;
use squ_parser::ast::*;
use squ_parser::CompareOp;
use squ_schema::{Schema, SqlType, Table};

/// Distributional knobs describing a workload's character.
#[derive(Debug, Clone)]
pub struct GenProfile {
    /// Probability that a statement is `CREATE TABLE … AS SELECT`.
    pub create_prob: f64,
    /// Probability that the query aggregates.
    pub aggregate_prob: f64,
    /// Probability of one level of subquery nesting (an `IN` subquery).
    pub nested_prob: f64,
    /// Probability of wrapping the query in a CTE.
    pub cte_prob: f64,
    /// Weighted distribution over the number of tables.
    pub table_count_weights: Vec<(usize, f64)>,
    /// Min/max extra WHERE predicates beyond join conditions.
    pub extra_pred_range: (usize, usize),
    /// Probability of explicit `JOIN … ON` syntax (vs. implicit comma join).
    pub explicit_join_prob: f64,
    /// Probability each table gets an alias.
    pub alias_prob: f64,
    /// Probability of `TOP n` (T-SQL style, SDSS).
    pub top_prob: f64,
    /// Probability of `ORDER BY`.
    pub order_by_prob: f64,
    /// Probability of `LIMIT n` (when no TOP).
    pub limit_prob: f64,
    /// Probability a projected column is wrapped in a scalar function.
    pub scalar_fn_prob: f64,
    /// Probability of `SELECT *` (non-aggregate queries only).
    pub star_prob: f64,
    /// Probability of `SELECT DISTINCT`.
    pub distinct_prob: f64,
    /// Min/max projected columns.
    pub proj_cols_range: (usize, usize),
}

impl Default for GenProfile {
    fn default() -> Self {
        GenProfile {
            create_prob: 0.0,
            aggregate_prob: 0.25,
            nested_prob: 0.15,
            cte_prob: 0.05,
            table_count_weights: vec![(1, 0.5), (2, 0.35), (3, 0.15)],
            extra_pred_range: (1, 4),
            explicit_join_prob: 0.7,
            alias_prob: 0.6,
            top_prob: 0.0,
            order_by_prob: 0.3,
            limit_prob: 0.15,
            scalar_fn_prob: 0.1,
            star_prob: 0.08,
            distinct_prob: 0.1,
            proj_cols_range: (1, 4),
        }
    }
}

/// Forced choices overriding the profile's probabilities for one
/// statement — the workload builders use this to hit the paper's exact
/// per-dataset quotas (e.g. SDSS's 21 aggregate queries out of 285).
#[derive(Debug, Clone, Copy, Default)]
pub struct Force {
    /// Force the statement to be / not be a `CREATE TABLE AS`.
    pub create: Option<bool>,
    /// Force aggregation on/off.
    pub aggregate: Option<bool>,
    /// Force subquery nesting on/off.
    pub nested: Option<bool>,
}

/// A joinable column pair between two tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// First table name.
    pub t1: String,
    /// Column of `t1`.
    pub c1: String,
    /// Second table name.
    pub t2: String,
    /// Column of `t2`.
    pub c2: String,
}

/// Build the join graph of a schema: same-named id-like columns across
/// table pairs, plus curated foreign-key hints for the schemas whose naming
/// conventions defeat the generic rule (IMDB's `movie_id → title.id`,
/// Spider's `car_1`).
pub fn join_graph(schema: &Schema) -> Vec<JoinEdge> {
    let mut edges = Vec::new();
    // generic rule: same (case-insensitive) id-like column name
    for (i, a) in schema.tables.iter().enumerate() {
        for b in schema.tables.iter().skip(i + 1) {
            for ca in &a.columns {
                if !squ_engine::is_id_column(&ca.name) {
                    continue;
                }
                for cb in &b.columns {
                    if ca.name.eq_ignore_ascii_case(&cb.name) {
                        edges.push(JoinEdge {
                            t1: a.name.clone(),
                            c1: ca.name.clone(),
                            t2: b.name.clone(),
                            c2: cb.name.clone(),
                        });
                    }
                }
            }
        }
    }
    // curated hints
    let hints: &[(&str, &str, &str, &str)] = match schema.name.as_str() {
        "imdb" => &[
            ("movie_companies", "movie_id", "title", "id"),
            ("movie_info", "movie_id", "title", "id"),
            ("movie_info_idx", "movie_id", "title", "id"),
            ("cast_info", "movie_id", "title", "id"),
            ("movie_keyword", "movie_id", "title", "id"),
            ("movie_link", "movie_id", "title", "id"),
            ("movie_link", "linked_movie_id", "title", "id"),
            ("aka_title", "movie_id", "title", "id"),
            ("complete_cast", "movie_id", "title", "id"),
            ("movie_companies", "company_id", "company_name", "id"),
            ("movie_companies", "company_type_id", "company_type", "id"),
            ("movie_info", "info_type_id", "info_type", "id"),
            ("movie_info_idx", "info_type_id", "info_type", "id"),
            ("cast_info", "person_id", "name", "id"),
            ("cast_info", "person_role_id", "char_name", "id"),
            ("cast_info", "role_id", "role_type", "id"),
            ("movie_keyword", "keyword_id", "keyword", "id"),
            ("person_info", "person_id", "name", "id"),
            ("person_info", "info_type_id", "info_type", "id"),
            ("movie_link", "link_type_id", "link_type", "id"),
            ("title", "kind_id", "kind_type", "id"),
            ("complete_cast", "subject_id", "comp_cast_type", "id"),
            ("complete_cast", "status_id", "comp_cast_type", "id"),
            ("aka_name", "person_id", "name", "id"),
        ],
        "sdss" => &[
            ("SpecObj", "bestobjid", "PhotoObj", "objid"),
            ("Neighbors", "neighborobjid", "PhotoObj", "objid"),
            ("SpecObj", "bestobjid", "Galaxy", "objid"),
            ("SpecObj", "bestobjid", "Star", "objid"),
        ],
        "car_1" => &[
            ("CARS_DATA", "id", "CAR_NAMES", "makeid"),
            ("MODEL_LIST", "maker", "CAR_MAKERS", "id"),
            ("CAR_MAKERS", "country", "COUNTRIES", "countryid"),
        ],
        _ => &[],
    };
    for (t1, c1, t2, c2) in hints {
        let edge = JoinEdge {
            t1: t1.to_string(),
            c1: c1.to_string(),
            t2: t2.to_string(),
            c2: c2.to_string(),
        };
        if !edges.contains(&edge) {
            edges.push(edge);
        }
    }
    edges
}

/// One chosen FROM table with its binding name.
#[derive(Debug, Clone)]
struct Chosen {
    table: String,
    alias: Option<String>,
    /// binding name (alias if any, else table name)
    binding: String,
}

/// Deterministic schema-aware statement generator.
pub struct QueryGenerator<'a> {
    schema: &'a Schema,
    profile: GenProfile,
    edges: Vec<JoinEdge>,
    rng: StdRng,
    counter: u64,
    force: Force,
}

impl<'a> QueryGenerator<'a> {
    /// Construct a generator; `seed` determines the whole stream.
    pub fn new(schema: &'a Schema, profile: GenProfile, seed: u64) -> Self {
        QueryGenerator {
            schema,
            edges: join_graph(schema),
            profile,
            rng: StdRng::seed_from_u64(seed),
            counter: 0,
            force: Force::default(),
        }
    }

    /// Reset the generator to the state of a fresh
    /// `QueryGenerator::new(schema, profile, seed)` without recomputing the
    /// join graph. The streaming synthesis path ([`crate::stream`]) reseeds
    /// one generator per item from a `(stream seed, index)` mix, which is
    /// what makes any cursor restart — and any shard partition — reproduce
    /// byte-identical statements.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.counter = 0;
        self.force = Force::default();
    }

    /// Generate the next statement.
    pub fn generate(&mut self) -> Statement {
        self.generate_forced(Force::default())
    }

    /// Generate the next statement with some choices pinned.
    pub fn generate_forced(&mut self, force: Force) -> Statement {
        self.counter += 1;
        self.force = force;
        let query = self.gen_query();
        let create = force
            .create
            .unwrap_or_else(|| self.rng.gen_bool(self.profile.create_prob));
        if create {
            Statement::CreateTable {
                name: format!("tmp_{}", self.counter),
                columns: Vec::new(),
                source: Some(Box::new(query)),
            }
        } else {
            Statement::Query(query)
        }
    }

    fn gen_query(&mut self) -> Query {
        let select = self.gen_select(0);
        let mut q = Query::from_select(select);
        self.attach_order_limit(&mut q);
        if self.rng.gen_bool(self.profile.cte_prob) {
            q = self.wrap_in_cte(q);
        }
        q
    }

    /// Wrap a query in a pass-through CTE: `WITH w AS (q) SELECT * FROM w`
    /// with ORDER BY/LIMIT hoisted to the outer level so the printer output
    /// stays valid everywhere.
    fn wrap_in_cte(&mut self, mut q: Query) -> Query {
        let order_by = std::mem::take(&mut q.order_by);
        let limit = q.limit.take();
        let name = format!("cte_{}", self.counter);
        // ORDER BY columns may reference inner aliases; keep only ones that
        // are plain output column names.
        let inner_names: Vec<String> = output_names(&q);
        let order_by = order_by
            .into_iter()
            .filter(|o| match &o.expr {
                Expr::Column(c) => inner_names.iter().any(|n| n.eq_ignore_ascii_case(&c.name)),
                _ => false,
            })
            .map(|o| OrderItem {
                expr: match o.expr {
                    Expr::Column(c) => Expr::column(None, &c.name),
                    other => other,
                },
                desc: o.desc,
            })
            .collect();
        Query {
            ctes: vec![Cte {
                name: name.clone(),
                query: Box::new(q),
            }],
            body: SetExpr::Select(Box::new(Select {
                items: vec![SelectItem::Wildcard],
                from: vec![TableRef::named(&name, None)],
                ..Select::new()
            })),
            order_by,
            limit,
            span: Span::default(),
        }
    }

    fn attach_order_limit(&mut self, q: &mut Query) {
        let names = output_names(q);
        let usable: Vec<&String> = names.iter().filter(|n| *n != "*").collect();
        if !usable.is_empty() && self.rng.gen_bool(self.profile.order_by_prob) {
            let n = usable[self.rng.gen_range(0..usable.len())].clone();
            let desc = self.rng.gen_bool(0.5);
            q.order_by.push(OrderItem {
                expr: Expr::column(None, &n),
                desc,
            });
        }
        if self.rng.gen_bool(self.profile.top_prob) {
            if let SetExpr::Select(s) = &mut q.body {
                s.top = Some(
                    *[1u64, 5, 10, 50, 100, 1000]
                        .choose(&mut self.rng)
                        .expect("non-empty"), // lint:allow: drawn from a non-empty set
                );
            }
        } else if self.rng.gen_bool(self.profile.limit_prob) {
            q.limit = Some(
                *[1u64, 5, 10, 20, 100]
                    .choose(&mut self.rng)
                    .expect("non-empty"), // lint:allow: drawn from a non-empty set
            );
        }
    }

    fn gen_select(&mut self, depth: usize) -> Select {
        // 1. choose connected tables
        let k = self.pick_table_count();
        let chosen = self.pick_tables(k);
        let explicit = self.rng.gen_bool(self.profile.explicit_join_prob);

        // join conditions between consecutive chosen tables
        let mut join_conds: Vec<Expr> = Vec::new();
        for i in 1..chosen.len() {
            if let Some(cond) = self.join_condition(&chosen[..i], &chosen[i]) {
                join_conds.push(cond);
            }
        }

        // 2. FROM clause
        let from = if explicit && chosen.len() > 1 {
            let mut it = chosen.iter();
            let first = it.next().expect("k >= 1"); // lint:allow: k is validated at entry
            let mut tree = TableRef::named(&first.table, first.alias.as_deref());
            for (i, c) in it.enumerate() {
                let constraint = join_conds
                    .get(i)
                    .cloned()
                    .map(JoinConstraint::On)
                    .unwrap_or(JoinConstraint::None);
                let kind = if matches!(constraint, JoinConstraint::None) {
                    JoinKind::Cross
                } else {
                    JoinKind::Inner
                };
                tree = TableRef::Join {
                    left: Box::new(tree),
                    right: Box::new(TableRef::named(&c.table, c.alias.as_deref())),
                    kind,
                    constraint,
                };
            }
            join_conds.clear(); // consumed by ON
            vec![tree]
        } else {
            chosen
                .iter()
                .map(|c| TableRef::named(&c.table, c.alias.as_deref()))
                .collect()
        };

        // 3. WHERE: leftover join conditions (implicit join) + extra predicates
        let (lo, hi) = self.profile.extra_pred_range;
        let n_extra = self.rng.gen_range(lo..=hi);
        let mut preds = join_conds;
        for _ in 0..n_extra {
            preds.push(self.gen_predicate(&chosen));
        }
        let want_nested = self
            .force
            .nested
            .unwrap_or_else(|| self.rng.gen_bool(self.profile.nested_prob));
        if depth == 0 && want_nested {
            if let Some(p) = self.gen_in_subquery(&chosen, depth) {
                preds.push(p);
            }
        }
        let selection = preds.into_iter().reduce(|a, b| a.and(b));

        // 4. projection
        let aggregate = self
            .force
            .aggregate
            .unwrap_or_else(|| self.rng.gen_bool(self.profile.aggregate_prob));
        let (items, group_by, having) = if aggregate {
            self.gen_aggregate_projection(&chosen)
        } else {
            (self.gen_plain_projection(&chosen), Vec::new(), None)
        };

        Select {
            distinct: !aggregate && self.rng.gen_bool(self.profile.distinct_prob),
            top: None,
            items,
            from,
            selection,
            group_by,
            having,
        }
    }

    fn pick_table_count(&mut self) -> usize {
        let total: f64 = self
            .profile
            .table_count_weights
            .iter()
            .map(|(_, w)| w)
            .sum();
        let mut x = self.rng.gen_range(0.0..total);
        for (k, w) in &self.profile.table_count_weights {
            if x < *w {
                return *k;
            }
            x -= w;
        }
        1
    }

    /// Pick up to `k` tables connected in the join graph (fewer if the walk
    /// gets stuck), and assign aliases.
    fn pick_tables(&mut self, k: usize) -> Vec<Chosen> {
        let mut names: Vec<String> = Vec::new();
        let start = self
            .schema
            .tables
            .choose(&mut self.rng)
            .expect("schema has tables") // lint:allow: every benchmark schema declares tables
            .name
            .clone();
        names.push(start);
        while names.len() < k {
            let candidates: Vec<&JoinEdge> = self
                .edges
                .iter()
                .filter(|e| {
                    let has1 = names.iter().any(|n| n.eq_ignore_ascii_case(&e.t1));
                    let has2 = names.iter().any(|n| n.eq_ignore_ascii_case(&e.t2));
                    has1 != has2 // exactly one endpoint chosen
                })
                .collect();
            match candidates.choose(&mut self.rng) {
                Some(e) => {
                    let next = if names.iter().any(|n| n.eq_ignore_ascii_case(&e.t1)) {
                        e.t2.clone()
                    } else {
                        e.t1.clone()
                    };
                    names.push(next);
                }
                None => break,
            }
        }
        let use_alias = self.rng.gen_bool(self.profile.alias_prob) || names.len() > 1;
        names
            .into_iter()
            .enumerate()
            .map(|(i, table)| {
                let alias = if use_alias {
                    Some(format!("t{}", i + 1))
                } else {
                    None
                };
                let binding = alias.clone().unwrap_or_else(|| table.clone());
                Chosen {
                    table,
                    alias,
                    binding,
                }
            })
            .collect()
    }

    /// Join condition between the newly added table and any already-chosen
    /// table, via the join graph.
    fn join_condition(&mut self, chosen: &[Chosen], new: &Chosen) -> Option<Expr> {
        let mut candidates: Vec<(usize, &JoinEdge, bool)> = Vec::new();
        for (ci, c) in chosen.iter().enumerate() {
            for e in &self.edges {
                if e.t1.eq_ignore_ascii_case(&c.table) && e.t2.eq_ignore_ascii_case(&new.table) {
                    candidates.push((ci, e, false));
                } else if e.t2.eq_ignore_ascii_case(&c.table)
                    && e.t1.eq_ignore_ascii_case(&new.table)
                {
                    candidates.push((ci, e, true));
                }
            }
        }
        let (ci, e, flipped) = *candidates.choose(&mut self.rng)?;
        let old = &chosen[ci];
        let (oc, nc) = if flipped {
            (&e.c2, &e.c1)
        } else {
            (&e.c1, &e.c2)
        };
        Some(
            Expr::column(Some(&old.binding), oc)
                .compare(CompareOp::Eq, Expr::column(Some(&new.binding), nc)),
        )
    }

    /// A single extra WHERE predicate on a random column of a chosen table.
    fn gen_predicate(&mut self, chosen: &[Chosen]) -> Expr {
        let c = chosen.choose(&mut self.rng).expect("chosen non-empty"); // lint:allow: chosen set built non-empty
        let table = self.schema.table(&c.table).expect("chosen from schema"); // lint:allow: name came from this schema
        let col = table
            .columns
            .choose(&mut self.rng)
            .expect("tables have columns"); // lint:allow: benchmark tables declare columns
        let qualifier = self.qualifier_for(chosen, c);
        let col_expr = Expr::column(qualifier.as_deref(), &col.name);
        match col.ty {
            SqlType::Int | SqlType::Float => {
                let style = self.rng.gen_range(0..10);
                match style {
                    0..=5 => {
                        let op = *[
                            CompareOp::Eq,
                            CompareOp::Gt,
                            CompareOp::GtEq,
                            CompareOp::Lt,
                            CompareOp::LtEq,
                        ]
                        .choose(&mut self.rng)
                        .expect("non-empty"); // lint:allow: drawn from a non-empty set
                        col_expr.compare(op, Expr::number(self.gen_number(col.ty)))
                    }
                    6..=7 => {
                        let lo = self.gen_number(col.ty);
                        let hi = lo + self.rng.gen_range(1..300) as f64;
                        Expr::Between {
                            expr: Box::new(col_expr),
                            low: Box::new(Expr::number(lo)),
                            high: Box::new(Expr::number(hi)),
                            negated: false,
                        }
                    }
                    _ => {
                        let n = self.rng.gen_range(2..=4);
                        let list = (0..n)
                            .map(|_| Expr::number(self.gen_number(SqlType::Int)))
                            .collect();
                        Expr::InList {
                            expr: Box::new(col_expr),
                            list,
                            negated: self.rng.gen_bool(0.15),
                        }
                    }
                }
            }
            SqlType::Text => {
                if self.rng.gen_bool(0.35) {
                    let word = TEXT_VOCAB.choose(&mut self.rng).expect("non-empty"); // lint:allow: drawn from a non-empty set
                    let frag = &word[..word.len().min(3)];
                    Expr::Like {
                        expr: Box::new(col_expr),
                        pattern: Box::new(Expr::string(&format!("%{frag}%"))),
                        negated: false,
                    }
                } else {
                    let word = TEXT_VOCAB.choose(&mut self.rng).expect("non-empty"); // lint:allow: drawn from a non-empty set
                    col_expr.compare(CompareOp::Eq, Expr::string(word))
                }
            }
            SqlType::Bool => col_expr.compare(CompareOp::Eq, Expr::Literal(Literal::Bool(true))),
        }
    }

    fn gen_number(&mut self, ty: SqlType) -> f64 {
        match ty {
            SqlType::Int => self.rng.gen_range(0..1000) as f64,
            _ => (self.rng.gen_range(0.0..1000.0_f64) * 10.0).round() / 10.0,
        }
    }

    /// Qualifier for a column of `c`: required when several tables are in
    /// scope, optional style choice otherwise.
    fn qualifier_for(&mut self, chosen: &[Chosen], c: &Chosen) -> Option<String> {
        if chosen.len() > 1 || (c.alias.is_some() && self.rng.gen_bool(0.8)) {
            Some(c.binding.clone())
        } else {
            None
        }
    }

    /// An `IN (subquery)` predicate along a join edge.
    fn gen_in_subquery(&mut self, chosen: &[Chosen], depth: usize) -> Option<Expr> {
        let mut candidates: Vec<(usize, &JoinEdge, bool)> = Vec::new();
        for (ci, c) in chosen.iter().enumerate() {
            for e in &self.edges {
                if e.t1.eq_ignore_ascii_case(&c.table) {
                    candidates.push((ci, e, false));
                }
                if e.t2.eq_ignore_ascii_case(&c.table) {
                    candidates.push((ci, e, true));
                }
            }
        }
        let (ci, e, flipped) = match candidates.choose(&mut self.rng) {
            Some(&(ci, e, flipped)) => (ci, e.clone(), flipped),
            None => {
                // no join edge from the chosen tables: fall back to a
                // self-subquery on an id-like column of a chosen table
                let ci = self.rng.gen_range(0..chosen.len());
                let table = self.schema.table(&chosen[ci].table)?;
                let col = table
                    .columns
                    .iter()
                    .find(|c| squ_engine::is_id_column(&c.name))
                    .or_else(|| table.columns.iter().find(|c| c.ty.is_numeric()))?
                    .name
                    .clone();
                let tname = table.name.clone();
                (
                    ci,
                    JoinEdge {
                        t1: tname.clone(),
                        c1: col.clone(),
                        t2: tname,
                        c2: col,
                    },
                    false,
                )
            }
        };
        let (oc, inner_table, ic) = if flipped {
            (e.c2, e.t1, e.c1)
        } else {
            (e.c1, e.t2, e.c2)
        };
        let outer_q = self.qualifier_for(chosen, &chosen[ci]);
        // inner select: one predicate, no alias
        let inner_tbl = self.schema.table(&inner_table)?;
        let inner_chosen = vec![Chosen {
            table: inner_tbl.name.clone(),
            alias: None,
            binding: inner_tbl.name.clone(),
        }];
        let mut inner_preds = Vec::new();
        for _ in 0..self.rng.gen_range(1..=2) {
            inner_preds.push(self.gen_predicate(&inner_chosen));
        }
        let mut inner_nested = None;
        if depth == 0 && self.rng.gen_bool(0.15) {
            inner_nested = self.gen_in_subquery(&inner_chosen, depth + 1);
        }
        if let Some(p) = inner_nested {
            inner_preds.push(p);
        }
        let inner = Select {
            items: vec![SelectItem::column(None, &ic)],
            from: vec![TableRef::named(&inner_tbl.name, None)],
            selection: inner_preds.into_iter().reduce(|a, b| a.and(b)),
            ..Select::new()
        };
        Some(Expr::InSubquery {
            expr: Box::new(Expr::column(outer_q.as_deref(), &oc)),
            subquery: Box::new(Query::from_select(inner)),
            negated: false,
        })
    }

    fn gen_plain_projection(&mut self, chosen: &[Chosen]) -> Vec<SelectItem> {
        if self.rng.gen_bool(self.profile.star_prob) {
            return vec![SelectItem::Wildcard];
        }
        let (lo, hi) = self.profile.proj_cols_range;
        let n = self.rng.gen_range(lo..=hi);
        let mut items = Vec::new();
        let mut used: Vec<(&str, String)> = Vec::new();
        for _ in 0..n {
            let c = chosen.choose(&mut self.rng).expect("non-empty"); // lint:allow: drawn from a non-empty set
            let table = self.schema.table(&c.table).expect("chosen from schema"); // lint:allow: name came from this schema
            let col = table.columns.choose(&mut self.rng).expect("has columns"); // lint:allow: benchmark tables declare columns
            let key = (c.binding.as_str(), col.name.to_ascii_lowercase());
            if used.contains(&key) {
                continue;
            }
            used.push(key);
            let q = self.qualifier_for(chosen, c);
            let expr = Expr::column(q.as_deref(), &col.name);
            let expr = if self.rng.gen_bool(self.profile.scalar_fn_prob) {
                self.wrap_scalar_fn(expr, col.ty)
            } else {
                expr
            };
            items.push(SelectItem::Expr { expr, alias: None });
        }
        if items.is_empty() {
            // degenerate draw: project the first column of the first table
            let c = &chosen[0];
            let table = self.schema.table(&c.table).expect("chosen from schema"); // lint:allow: name came from this schema
            let q = if chosen.len() > 1 {
                Some(c.binding.clone())
            } else {
                None
            };
            items.push(SelectItem::column(q.as_deref(), &table.columns[0].name));
        }
        items
    }

    fn wrap_scalar_fn(&mut self, expr: Expr, ty: SqlType) -> Expr {
        let name = match ty {
            SqlType::Int | SqlType::Float => *["ABS", "ROUND", "FLOOR", "CEILING"]
                .choose(&mut self.rng)
                .expect("non-empty"), // lint:allow: drawn from a non-empty set
            SqlType::Text => *["UPPER", "LOWER", "TRIM", "LEN"]
                .choose(&mut self.rng)
                .expect("non-empty"), // lint:allow: drawn from a non-empty set
            SqlType::Bool => return expr,
        };
        Expr::Function {
            name: name.to_string(),
            args: vec![expr],
            distinct: false,
        }
    }

    #[allow(clippy::type_complexity)]
    fn gen_aggregate_projection(
        &mut self,
        chosen: &[Chosen],
    ) -> (Vec<SelectItem>, Vec<Expr>, Option<Expr>) {
        // group keys: 0..=2 columns
        let n_keys = self.rng.gen_range(0..=2usize);
        let mut keys: Vec<Expr> = Vec::new();
        let mut used = Vec::new();
        for _ in 0..n_keys {
            let c = chosen.choose(&mut self.rng).expect("non-empty"); // lint:allow: drawn from a non-empty set
            let table = self.schema.table(&c.table).expect("chosen from schema"); // lint:allow: name came from this schema
            let col = table.columns.choose(&mut self.rng).expect("has columns"); // lint:allow: benchmark tables declare columns
            let key = (c.binding.as_str(), col.name.to_ascii_lowercase());
            if used.contains(&key) {
                continue;
            }
            used.push(key);
            let q = self.qualifier_for(chosen, c);
            keys.push(Expr::column(q.as_deref(), &col.name));
        }
        let mut items: Vec<SelectItem> = keys
            .iter()
            .map(|k| SelectItem::Expr {
                expr: k.clone(),
                alias: None,
            })
            .collect();

        // aggregates: 1..=2
        let n_aggs = self.rng.gen_range(1..=2usize);
        for i in 0..n_aggs {
            let agg = if i == 0 && self.rng.gen_bool(0.5) {
                Expr::Function {
                    name: "COUNT".into(),
                    args: vec![Expr::Wildcard],
                    distinct: false,
                }
            } else {
                // numeric column aggregate
                let numeric = self.pick_numeric_column(chosen);
                match numeric {
                    Some((q, name)) => Expr::Function {
                        name: (*["AVG", "SUM", "MIN", "MAX"]
                            .choose(&mut self.rng)
                            .expect("non-empty")) // lint:allow: drawn from a non-empty set
                        .to_string(),
                        args: vec![Expr::column(q.as_deref(), &name)],
                        distinct: false,
                    },
                    None => Expr::Function {
                        name: "COUNT".into(),
                        args: vec![Expr::Wildcard],
                        distinct: false,
                    },
                }
            };
            let alias = if self.rng.gen_bool(0.5) {
                Some(format!("agg_{}", i + 1))
            } else {
                None
            };
            items.push(SelectItem::Expr { expr: agg, alias });
        }

        // HAVING on an aggregate
        let having = if self.rng.gen_bool(0.25) {
            Some(
                Expr::Function {
                    name: "COUNT".into(),
                    args: vec![Expr::Wildcard],
                    distinct: false,
                }
                .compare(
                    CompareOp::Gt,
                    Expr::number(self.rng.gen_range(1..10) as f64),
                ),
            )
        } else {
            None
        };

        (items, keys, having)
    }

    fn pick_numeric_column(&mut self, chosen: &[Chosen]) -> Option<(Option<String>, String)> {
        for _ in 0..8 {
            let c = chosen.choose(&mut self.rng)?;
            let table: &Table = self.schema.table(&c.table)?;
            let col = table.columns.choose(&mut self.rng)?;
            if col.ty.is_numeric() {
                let name = col.name.clone();
                let q = self.qualifier_for(chosen, c);
                return Some((q, name));
            }
        }
        None
    }
}

/// Output column names of a query (for ORDER BY attachment); `*` for
/// wildcards.
fn output_names(q: &Query) -> Vec<String> {
    let select = match &q.body {
        SetExpr::Select(s) => s,
        SetExpr::SetOp { .. } => return Vec::new(),
    };
    select
        .items
        .iter()
        .map(|i| match i {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => "*".to_string(),
            SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| match expr {
                Expr::Column(c) => c.name.clone(),
                _ => "*".to_string(), // unnamed expression: not usable in ORDER BY
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use squ_parser::{parse, print_statement};
    use squ_schema::schemas::{imdb, sdss};

    #[test]
    fn generator_is_deterministic() {
        let schema = sdss();
        let mut g1 = QueryGenerator::new(&schema, GenProfile::default(), 7);
        let mut g2 = QueryGenerator::new(&schema, GenProfile::default(), 7);
        for _ in 0..20 {
            assert_eq!(
                print_statement(&g1.generate()),
                print_statement(&g2.generate())
            );
        }
    }

    #[test]
    fn generated_queries_parse_and_bind_clean() {
        let schema = sdss();
        let mut g = QueryGenerator::new(&schema, GenProfile::default(), 11);
        for i in 0..200 {
            let stmt = g.generate();
            let sql = print_statement(&stmt);
            let reparsed = parse(&sql).unwrap_or_else(|e| panic!("q{i}: {sql}: {e}"));
            let diags = squ_schema::analyze(&reparsed, &schema);
            assert!(diags.is_empty(), "q{i} not clean: {sql}\n{diags:?}");
        }
    }

    #[test]
    fn generated_queries_execute_on_witness() {
        let schema = sdss();
        let db = squ_engine::witness_database(&schema, 3, 5, 12);
        let mut g = QueryGenerator::new(&schema, GenProfile::default(), 13);
        for i in 0..100 {
            let stmt = g.generate();
            if let Some(q) = stmt.query() {
                squ_engine::execute_query(q, &db)
                    .unwrap_or_else(|e| panic!("q{i}: {}: {e}", print_statement(&stmt)));
            }
        }
    }

    #[test]
    fn imdb_join_graph_connects_hub() {
        let schema = imdb();
        let edges = join_graph(&schema);
        assert!(edges
            .iter()
            .any(|e| e.t1 == "movie_companies" && e.t2 == "title"));
        assert!(edges.len() > 20);
    }

    #[test]
    fn profile_controls_aggregation_rate() {
        let schema = sdss();
        let profile = GenProfile {
            aggregate_prob: 1.0,
            ..GenProfile::default()
        };
        let mut g = QueryGenerator::new(&schema, profile, 5);
        for _ in 0..20 {
            let stmt = g.generate();
            assert!(crate::props::uses_aggregate(&stmt));
        }
    }

    #[test]
    fn multi_table_profile_produces_joins() {
        let schema = imdb();
        let profile = GenProfile {
            table_count_weights: vec![(4, 1.0)],
            explicit_join_prob: 1.0,
            nested_prob: 0.0,
            ..GenProfile::default()
        };
        let mut g = QueryGenerator::new(&schema, profile, 5);
        let mut saw_multi = 0;
        for _ in 0..20 {
            let stmt = g.generate();
            if crate::props::table_count(&stmt) >= 3 {
                saw_multi += 1;
            }
        }
        assert!(saw_multi >= 15, "only {saw_multi}/20 multi-table");
    }
}
