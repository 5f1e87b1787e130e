//! Streaming, cursor-resumable query synthesis.
//!
//! [`QueryStream`] is the constant-memory counterpart of [`crate::build`]:
//! an unbounded, seeded stream of [`WorkloadQuery`] items in the character
//! of one of the four paper workloads. Unlike the paper builders — whose
//! generator RNG deliberately carries state from query to query so the
//! pinned Table-2 datasets never change — every stream item `i` is
//! produced by **reseeding** a generator from `mix(seed, i)`. Item `i`
//! therefore depends on nothing but `(seed, i)`, which buys three
//! properties at once:
//!
//! 1. **Constant memory** — the stream holds only the schema zoo and one
//!    generator per schema, whatever `N` is;
//! 2. **Cursor resume** — restarting from a [`StreamCursor`] `(seed,
//!    index)` reproduces the exact remaining suffix, byte for byte;
//! 3. **Sharding** — any partition of the index space can be built by any
//!    worker (or process) and concatenated back in index order into the
//!    same bytes the unsharded build would have produced.
//!
//! [`Dataset::from_stream`] stays a thin, *bounded* collector over the
//! stream: materializing more than [`MAX_COLLECT`] queries is a hard
//! error, because at that scale callers must consume the stream (or the
//! sketch-based synthesis summaries) instead of a `Vec`.

use crate::analysis::NUMERIC_PROPS;
use crate::gen::{GenProfile, QueryGenerator};
use crate::props::{
    function_count, join_count, predicate_count, select_column_count, table_count, uses_aggregate,
    QueryProps,
};
use crate::workloads::{base_profile, Dataset, Workload, WorkloadQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use squ_engine::CostModel;
use squ_lexer::{char_count, word_count};
use squ_parser::ast::Statement;
use squ_parser::print_statement;
use squ_parser::visit::nestedness;
use squ_schema::{schemas, Schema};
use std::cell::OnceCell;

/// Hard cap on [`Dataset::from_stream`] collection. Anything larger must
/// stay streamed: a million-query workload is summarized (histograms,
/// quantile sketches, chunk fingerprints), never materialized.
pub const MAX_COLLECT: usize = 1 << 20;

/// Salt separating the per-item generator seed domain from schema choice.
const ITEM_SALT: u64 = 0x5EED_17E4;
/// Salt for the per-item elapsed-time noise.
const NOISE_SALT: u64 = 0x0015_E001;

/// SplitMix64 finalizer over `(seed, index)`: the stream's one-way mix
/// from a cursor position to the independent per-item randomness. Also
/// used by the distribution-targeting controller for order-free
/// accept/reject draws.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A resumable stream position: `(seed, index)` fully determines the
/// remaining suffix of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamCursor {
    /// The stream seed.
    pub seed: u64,
    /// Index of the next item to emit.
    pub index: u64,
}

/// The streaming profile of a workload: its [`base_profile`] with the
/// quota-driven choices (CREATE / aggregate / nesting) re-enabled as
/// probabilities at the paper's observed Table-2 rates, since a stream
/// has no fixed length to quota against.
pub fn synth_profile(base: Workload) -> GenProfile {
    let mut p = base_profile(base);
    match base {
        Workload::Sdss => {
            p.create_prob = 24.0 / 285.0;
            p.aggregate_prob = 21.0 / 285.0;
            p.nested_prob = 38.0 / 285.0;
        }
        Workload::SqlShare => {
            p.create_prob = 18.0 / 250.0;
            p.aggregate_prob = 59.0 / 250.0;
            p.nested_prob = 25.0 / 250.0;
        }
        Workload::JoinOrder => {
            p.create_prob = 44.0 / 157.0;
            p.aggregate_prob = 119.0 / 157.0;
            p.nested_prob = 0.0;
        }
        Workload::Spider => {
            p.create_prob = 0.0;
            p.aggregate_prob = 96.0 / 200.0;
            p.nested_prob = 15.0 / 200.0;
        }
    }
    p
}

/// An unbounded, seeded, constant-memory stream of workload queries (see
/// the module docs for the determinism contract).
pub struct QueryStream {
    base: Workload,
    profile: GenProfile,
    seed: u64,
    schemas: Vec<Schema>,
}

impl QueryStream {
    /// A stream in the character of `base`, using [`synth_profile`].
    pub fn new(base: Workload, seed: u64) -> QueryStream {
        QueryStream::with_profile(base, synth_profile(base), seed)
    }

    /// A stream with an explicit profile (the distribution-targeting
    /// controller anneals the profile between rounds).
    pub fn with_profile(base: Workload, profile: GenProfile, seed: u64) -> QueryStream {
        let schemas = match base {
            Workload::Sdss => vec![schemas::sdss()],
            Workload::JoinOrder => vec![schemas::imdb()],
            Workload::SqlShare => schemas::sqlshare_zoo(),
            Workload::Spider => schemas::spider_zoo(),
        };
        QueryStream {
            base,
            profile,
            seed,
            schemas,
        }
    }

    /// The workload whose character the stream mimics.
    pub fn base(&self) -> Workload {
        self.base
    }

    /// The stream seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Iterate from index 0.
    pub fn iter(&self) -> StreamIter<'_> {
        self.iter_from(StreamCursor {
            seed: self.seed,
            index: 0,
        })
    }

    /// Resume from a cursor. The cursor's seed must match the stream's
    /// (a cursor is only meaningful against the stream that minted it).
    pub fn iter_from(&self, cursor: StreamCursor) -> StreamIter<'_> {
        debug_assert_eq!(cursor.seed, self.seed, "cursor from a different stream");
        let gens = self
            .schemas
            .iter()
            .map(|s| QueryGenerator::new(s, self.profile.clone(), 0))
            .collect();
        StreamIter {
            stream: self,
            gens,
            cost: CostModel::default(),
            index: cursor.index,
        }
    }

    /// One item by index (convenience; `iter_from` is cheaper in bulk).
    pub fn get(&self, index: u64) -> WorkloadQuery {
        self.iter_from(StreamCursor {
            seed: self.seed,
            index,
        })
        .candidate()
        .into_query()
    }
}

/// Iterator over a [`QueryStream`]. Infinite: `next()` always yields.
pub struct StreamIter<'a> {
    stream: &'a QueryStream,
    gens: Vec<QueryGenerator<'a>>,
    cost: CostModel,
    index: u64,
}

impl<'a> StreamIter<'a> {
    /// The cursor identifying the next item — hand this to
    /// [`QueryStream::iter_from`] to resume mid-stream.
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor {
            seed: self.stream.seed,
            index: self.index,
        }
    }

    /// Generate the item at the current index as a [`Candidate`] and
    /// advance. Only the statement is built here; whatever else of the
    /// item a caller reads is derived then.
    pub fn candidate(&mut self) -> Candidate<'a> {
        let stream = self.stream;
        let i = self.index;
        self.index += 1;
        let si = (mix(stream.seed, i) % self.gens.len() as u64) as usize;
        let gen = &mut self.gens[si];
        gen.reseed(mix(stream.seed ^ ITEM_SALT, i));
        Candidate {
            stream,
            index: i,
            schema: &stream.schemas[si],
            cost: self.cost,
            stmt: gen.generate(),
            sql: OnceCell::new(),
            counts: Default::default(),
            elapsed_ms: OnceCell::new(),
        }
    }
}

impl Iterator for StreamIter<'_> {
    type Item = WorkloadQuery;

    fn next(&mut self) -> Option<WorkloadQuery> {
        Some(self.candidate().into_query())
    }
}

/// One stream item as generated: its statement, with the text, each
/// property and the elapsed time derived at most once, on first read.
/// A caller that decides on a few values (the synthesis controller's
/// accept/reject) pays for those alone; [`Candidate::into_query`]
/// finishes the item as the stream yields it.
pub struct Candidate<'a> {
    stream: &'a QueryStream,
    index: u64,
    schema: &'a Schema,
    cost: CostModel,
    stmt: Statement,
    sql: OnceCell<String>,
    /// One slot per property of [`NUMERIC_PROPS`], in its order.
    counts: [OnceCell<usize>; NUMERIC_PROPS.len()],
    elapsed_ms: OnceCell<f64>,
}

impl Candidate<'_> {
    /// Name of the schema the statement runs against.
    pub fn schema_name(&self) -> &str {
        &self.schema.name
    }

    /// The statement's canonical SQL text.
    pub fn sql(&self) -> &str {
        self.sql.get_or_init(|| print_statement(&self.stmt))
    }

    /// Deterministic elapsed time: analytical cost × per-index log-normal
    /// noise (never wall-clock — byte-identity depends on it).
    fn elapsed_ms(&self) -> f64 {
        *self.elapsed_ms.get_or_init(|| {
            let base_ms = self.cost.estimate_ms(&self.stmt, self.schema);
            let ln: f64 = StdRng::seed_from_u64(mix(self.stream.seed ^ NOISE_SALT, self.index))
                .gen_range(-1.0..1.0_f64)
                * 0.6;
            (base_ms * ln.exp()).max(0.05)
        })
    }

    /// The value of a target axis: the elapsed time for `runtime_ms`,
    /// otherwise the numeric property of that name. Only `char_count` and
    /// `word_count` print the statement, and only `runtime_ms` costs it.
    pub fn value(&self, property: &str) -> f64 {
        if property == "runtime_ms" {
            self.elapsed_ms()
        } else {
            self.count(property) as f64
        }
    }

    /// One numeric property by name (one of [`NUMERIC_PROPS`]).
    fn count(&self, property: &str) -> usize {
        let slot = NUMERIC_PROPS
            .iter()
            .position(|p| *p == property)
            .unwrap_or_else(|| panic!("unknown property {property}")); // lint:allow: names come from the fixed property list
        *self.counts[slot].get_or_init(|| match property {
            "char_count" => char_count(self.sql()),
            "word_count" => word_count(self.sql()),
            "table_count" => table_count(&self.stmt),
            "join_count" => join_count(&self.stmt),
            "column_count" => select_column_count(&self.stmt),
            "function_count" => function_count(&self.stmt),
            "predicate_count" => predicate_count(&self.stmt),
            // the one name left that the lookup admits
            _ => nestedness(&self.stmt),
        })
    }

    /// The finished item, exactly as [`StreamIter`] yields it.
    pub fn into_query(self) -> WorkloadQuery {
        let props = QueryProps {
            char_count: self.count("char_count"),
            word_count: self.count("word_count"),
            query_type: self.stmt.query_type().to_string(),
            table_count: self.count("table_count"),
            join_count: self.count("join_count"),
            column_count: self.count("column_count"),
            function_count: self.count("function_count"),
            predicate_count: self.count("predicate_count"),
            nestedness: self.count("nestedness"),
            aggregate: uses_aggregate(&self.stmt),
        };
        let elapsed_ms = Some(self.elapsed_ms());
        let base = self.stream.base;
        WorkloadQuery {
            id: format!("synth-{}-{:07}", short_name(base), self.index),
            workload: base,
            schema_name: self.schema.name.clone(),
            sql: self
                .sql
                .into_inner()
                .unwrap_or_else(|| print_statement(&self.stmt)),
            props,
            elapsed_ms,
            description: None,
        }
    }
}

fn short_name(w: Workload) -> &'static str {
    match w {
        Workload::Sdss => "sdss",
        Workload::SqlShare => "sqlshare",
        Workload::JoinOrder => "job",
        Workload::Spider => "spider",
    }
}

/// Guard used by every stream collector: materializing more than
/// [`MAX_COLLECT`] queries is a bug — at that scale the caller must stay
/// streamed (sketch summaries, not `Vec`s).
pub fn ensure_collectable(n: usize) {
    assert!(
        n <= MAX_COLLECT,
        "refusing to materialize {n} streamed queries (cap {MAX_COLLECT}); \
         consume the stream or its sketch summaries instead"
    );
}

impl Dataset {
    /// Thin, bounded collector over a stream: the first `n` items as a
    /// regular [`Dataset`]. Panics past [`MAX_COLLECT`] — see
    /// [`ensure_collectable`].
    pub fn from_stream(stream: &QueryStream, n: usize) -> Dataset {
        ensure_collectable(n);
        Dataset {
            workload: stream.base(),
            queries: stream.iter().take(n).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_depend_only_on_seed_and_index() {
        let s = QueryStream::new(Workload::Sdss, 7);
        let a: Vec<_> = s.iter().take(20).collect();
        let b: Vec<_> = s.iter().take(20).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sql, y.sql);
            assert_eq!(x.id, y.id);
            assert_eq!(x.elapsed_ms, y.elapsed_ms);
        }
        // random access agrees with iteration
        assert_eq!(s.get(13).sql, a[13].sql);
    }

    #[test]
    fn cursor_resume_reproduces_the_exact_suffix() {
        let s = QueryStream::new(Workload::SqlShare, 42);
        let full: Vec<_> = s.iter().take(60).collect();
        let mut it = s.iter();
        for _ in 0..25 {
            it.next();
        }
        let cursor = it.cursor();
        assert_eq!(cursor.index, 25);
        let suffix: Vec<_> = s.iter_from(cursor).take(35).collect();
        for (i, q) in suffix.iter().enumerate() {
            assert_eq!(q.sql, full[25 + i].sql, "item {}", 25 + i);
            assert_eq!(q.id, full[25 + i].id);
        }
    }

    #[test]
    fn candidates_finished_by_hand_equal_the_items() {
        use crate::analysis::prop_value;
        use crate::props::query_props;
        for base in [
            Workload::Sdss,
            Workload::SqlShare,
            Workload::JoinOrder,
            Workload::Spider,
        ] {
            let s = QueryStream::new(base, 2023);
            let (mut items, mut candidates) = (s.iter(), s.iter());
            for _ in 0..1000 {
                let q = items.next().unwrap();
                let c = candidates.candidate();
                // an AST axis and the cost first, as the controller reads
                // them, then the text and every property
                let nestedness = c.value("nestedness");
                let runtime = c.value("runtime_ms");
                let sql = print_statement(&c.stmt);
                assert_eq!(c.sql(), sql);
                let props = query_props(&sql, &c.stmt);
                assert_eq!(nestedness, props.nestedness as f64);
                for p in NUMERIC_PROPS {
                    assert_eq!(c.value(p), prop_value(&props, p), "{p} of {sql}");
                }
                let id = format!("synth-{}-{:07}", short_name(base), c.index);
                assert_eq!(q.id, id);
                assert_eq!(q.schema_name, c.schema_name());
                assert_eq!(q.sql, sql, "{id}");
                assert_eq!(q.props, props, "{id}");
                assert_eq!(q.elapsed_ms, Some(runtime), "{id}");
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = QueryStream::new(Workload::Sdss, 1).get(0);
        let b = QueryStream::new(Workload::Sdss, 2).get(0);
        assert_ne!(a.sql, b.sql);
    }

    #[test]
    fn streamed_queries_are_clean_and_costed() {
        for base in [
            Workload::Sdss,
            Workload::SqlShare,
            Workload::JoinOrder,
            Workload::Spider,
        ] {
            let s = QueryStream::new(base, 2023);
            for q in s.iter().take(25) {
                let stmt = squ_parser::parse(&q.sql)
                    .unwrap_or_else(|e| panic!("{}: {}: {e}", q.id, q.sql));
                let schema = crate::schema_for(base, &q.schema_name);
                let diags = squ_schema::analyze(&stmt, &schema);
                assert!(diags.is_empty(), "{} not clean: {}\n{diags:?}", q.id, q.sql);
                assert!(q.elapsed_ms.is_some_and(|ms| ms.is_finite() && ms > 0.0));
            }
        }
    }

    #[test]
    fn dataset_collector_is_a_thin_take() {
        let s = QueryStream::new(Workload::Spider, 5);
        let ds = Dataset::from_stream(&s, 30);
        assert_eq!(ds.len(), 30);
        assert_eq!(ds.workload, Workload::Spider);
        let direct: Vec<_> = s.iter().take(30).collect();
        for (a, b) in ds.queries.iter().zip(&direct) {
            assert_eq!(a.sql, b.sql);
        }
    }

    #[test]
    #[should_panic(expected = "refusing to materialize")]
    fn collector_refuses_unbounded_materialization() {
        ensure_collectable(MAX_COLLECT + 1);
    }

    #[test]
    fn mix_spreads_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            seen.insert(mix(7, i));
        }
        assert_eq!(seen.len(), 1000);
        assert_ne!(mix(7, 0), mix(8, 0));
    }
}
