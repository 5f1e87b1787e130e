//! Spans around the layers' public entry points, the replays that reach
//! layers a workload calls only from inside the program, and the table
//! that turns a finished trace into the per-layer metrics.
//!
//! A replay runs a workload's own inputs through an inner layer's public
//! function after the timed phase, under a `replay.*` span of its own, so
//! its time is never subtracted from a span it did not run inside.

use crate::trace;
use squ::registry::ExampleSet;
use squ::timing;
use squ_engine::{Database, ExecError, ExecStats, Relation};
use squ_eval::BinaryCounts;
use squ_lint::LintReport;
use squ_llm::{run_task, CallRecord, DatasetId, ModelClient, Request, RunTask};
use squ_parser::{Query, Statement};
use squ_schema::Schema;
use squ_sema::Certificate;
use squ_tasks::TaskId;
use squ_workload::Dataset;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;

/// Every per-layer metric, with how it is derived from the trace. The
/// names and units are the contract in `BENCHMARK.json`; a layer that does
/// not run in a workload reports 0.
pub const METRICS: &[&str] = &[
    "engine.execute.ms",
    "engine.execute.calls",
    "engine.rows_scanned",
    "engine.join_pairs",
    "engine.index_hit_ratio",
    "engine.fallback_ratio",
    "engine.reference.ms",
    "engine.reference.calls",
    "engine.reference.cap_ratio",
    "engine.witness.ms",
    "engine.cost.ms",
    "engine.cost.calls",
    "workload.build.ms",
    "workload.stream.ms",
    "workload.stream.items",
    "workload.sketch.ms",
    "workload.synth.candidates",
    "workload.synth.accept_ratio",
    "lexer.tokenize.ms",
    "lexer.tokens",
    "parser.parse.ms",
    "parser.parse.calls",
    "parser.print.ms",
    "schema.analyze.ms",
    "schema.diagnostics",
    "lint.lint.ms",
    "lint.lint.calls",
    "sema.analyze.ms",
    "sema.certify.ms",
    "sema.certify.calls",
    "sema.certify.decided_ratio",
    "tasks.build.syntax.ms",
    "tasks.build.tokens.ms",
    "tasks.build.equiv.ms",
    "tasks.build.perf.ms",
    "tasks.build.explain.ms",
    "tasks.build.translate.ms",
    "tasks.audit.workload.ms",
    "tasks.audit.syntax.ms",
    "tasks.audit.tokens.ms",
    "tasks.audit.equiv.ms",
    "tasks.audit.perf.ms",
    "tasks.audit.explain.ms",
    "tasks.audit.translate.ms",
    "tasks.audit.critical_path_ms",
    "llm.prompt.ms",
    "llm.simulate.ms",
    "llm.simulate.calls",
    "llm.extract.ms",
    "llm.needs_review_ratio",
    "eval.score.ms",
    "core.experiment.ms",
    "core.suite.ms",
    "core.store.hits",
    "core.store.misses",
    "core.store.hit_ratio",
    "core.store.bytes_written",
    "serve.eval.hit_us",
    "serve.eval.miss_ms",
    "serve.http.overhead_us",
    "serve.rejected",
    "trace.overhead_ratio",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a finished trace. `facts` carries values the
/// workload measured directly (the serve service times); they override
/// the trace-derived ones.
pub fn metrics(t: &trace::Trace, facts: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let spans = trace::by_name(&t.spans);
    let ms = |name: &str| spans.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e6);
    let calls = |name: &str| spans.get(name).map_or(0, |(_, n)| *n);
    let c = |name: &str| t.counts.get(name).copied().unwrap_or(0);
    let mut m: BTreeMap<String, f64> = METRICS.iter().map(|n| (n.to_string(), 0.0)).collect();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    for (metric, span) in [
        ("engine.execute.ms", "engine.execute"),
        ("engine.reference.ms", "engine.reference"),
        ("engine.witness.ms", "engine.witness"),
        ("engine.cost.ms", "engine.cost"),
        ("workload.stream.ms", "workload.stream"),
        ("workload.sketch.ms", "workload.sketch"),
        ("lexer.tokenize.ms", "lexer.tokenize"),
        ("parser.parse.ms", "parser.parse"),
        ("parser.print.ms", "parser.print"),
        ("schema.analyze.ms", "schema.analyze"),
        ("lint.lint.ms", "lint.lint"),
        ("sema.analyze.ms", "sema.analyze"),
        ("sema.certify.ms", "sema.certify"),
        ("llm.prompt.ms", "llm.prompt"),
        ("llm.simulate.ms", "llm.simulate"),
        ("llm.extract.ms", "llm.extract"),
        ("eval.score.ms", "eval.score"),
        ("core.experiment.ms", "core.experiment"),
        ("core.suite.ms", "core.suite"),
    ] {
        set(metric, ms(span));
    }
    for task in [
        "workload",
        "syntax",
        "tokens",
        "equiv",
        "perf",
        "explain",
        "translate",
    ] {
        let prefix = format!("tasks.audit.{task}.");
        let total: f64 = spans
            .iter()
            .filter(|(name, _)| name.starts_with(&prefix))
            .map(|(_, (ns, _))| *ns as f64 / 1e6)
            .fold(0.0, |a, b| a + b);
        set(&format!("tasks.audit.{task}.ms"), total);
    }
    let critical = t
        .spans
        .iter()
        .filter(|s| s.name.starts_with("tasks.audit."))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .fold(0.0, f64::max);
    set("tasks.audit.critical_path_ms", critical);
    let executes = calls("engine.execute");
    set("engine.execute.calls", executes as f64);
    set("engine.rows_scanned", c("engine.rows_scanned") as f64);
    set("engine.join_pairs", c("engine.join_pairs") as f64);
    set(
        "engine.index_hit_ratio",
        ratio(c("engine.index_hits"), c("engine.rows_scanned")),
    );
    set(
        "engine.fallback_ratio",
        ratio(c("engine.fallbacks"), executes),
    );
    let refs = calls("engine.reference");
    set("engine.reference.calls", refs as f64);
    set(
        "engine.reference.cap_ratio",
        ratio(c("engine.reference.capped"), refs),
    );
    set("engine.cost.calls", calls("engine.cost") as f64);
    set("workload.stream.items", c("workload.stream.items") as f64);
    set(
        "workload.synth.candidates",
        c("workload.synth.candidates") as f64,
    );
    set(
        "workload.synth.accept_ratio",
        ratio(c("workload.synth.accepted"), c("workload.synth.candidates")),
    );
    set("lexer.tokens", c("lexer.tokens") as f64);
    set("parser.parse.calls", calls("parser.parse") as f64);
    set("schema.diagnostics", c("schema.diagnostics") as f64);
    set("lint.lint.calls", calls("lint.lint") as f64);
    let certs = calls("sema.certify");
    set("sema.certify.calls", certs as f64);
    set(
        "sema.certify.decided_ratio",
        ratio(c("sema.certify.decided"), certs),
    );
    let (store_hits, store_misses) = (c("core.store.hits"), c("core.store.misses"));
    set("core.store.hits", store_hits as f64);
    set("core.store.misses", store_misses as f64);
    set(
        "core.store.hit_ratio",
        ratio(store_hits, store_hits + store_misses),
    );
    set(
        "core.store.bytes_written",
        c("core.store.bytes_written") as f64,
    );
    set("serve.rejected", c("serve.rejected") as f64);
    set("llm.simulate.calls", calls("llm.simulate") as f64);
    set(
        "llm.needs_review_ratio",
        ratio(c("llm.needs_review"), c("llm.outcomes")),
    );
    // program spans harvested through squ::timing (CPU time summed over
    // the worker threads, not a share of the enclosing span)
    for short in ["syntax", "tokens", "equiv", "perf", "explain", "translate"] {
        let name = format!("tasks.build.{short}.ms");
        set(
            &name,
            c(&format!("time.tasks.build.{short}.us")) as f64 / 1e3,
        );
    }
    set(
        "workload.build.ms",
        c("time.workload.build.us") as f64 / 1e3,
    );
    for (k, v) in facts {
        if m.contains_key(k) {
            m.insert(k.clone(), *v);
        }
    }
    m
}

/// Move the program's own `squ::timing` spans and counters into the
/// trace: suite build spans become `time.tasks.build.*` /
/// `time.workload.build` (µs), counters keep their names under `program.`.
pub(crate) fn harvest_program_timing() {
    for span in timing::drain() {
        let us = (span.ms * 1e3).round() as u64;
        if let Some(rest) = span.name.strip_prefix("suite.task.") {
            let short = rest.split('.').next().unwrap_or(rest);
            trace::count(&format!("time.tasks.build.{short}.us"), us);
        } else if span.name.starts_with("suite.workload.") {
            trace::count("time.workload.build.us", us);
        }
    }
    for counter in timing::drain_counters() {
        trace::count(&format!("program.{}", counter.name), counter.value);
    }
}

// ---- wrapped entry points -------------------------------------------------

pub(crate) fn execute(q: &Query, db: &Database) -> Result<(Relation, ExecStats), ExecError> {
    let out = trace::time("engine.execute", || squ_engine::execute_query(q, db));
    if let Ok((_, s)) = &out {
        trace::count("engine.rows_scanned", s.rows_scanned);
        trace::count("engine.join_pairs", s.join_pairs);
        trace::count("engine.index_hits", s.index_hits);
        trace::count("engine.fallbacks", s.fallbacks);
    }
    out
}

pub(crate) fn reference(q: &Query, db: &Database) -> Result<Relation, ExecError> {
    let out = trace::time("engine.reference", || squ_engine::reference_query(q, db));
    if matches!(out, Err(ExecError::ResourceLimit)) {
        trace::count("engine.reference.capped", 1);
    }
    out
}

pub(crate) fn tokenize(sql: &str) {
    let tokens = trace::time("lexer.tokenize", || squ_lexer::tokenize(sql));
    trace::count("lexer.tokens", tokens.map_or(0, |t| t.len() as u64));
}

pub(crate) fn parse(sql: &str) -> Option<Statement> {
    trace::time("parser.parse", || squ_parser::parse(sql)).ok()
}

pub(crate) fn print(stmt: &Statement) -> String {
    trace::time("parser.print", || squ_parser::print_statement(stmt))
}

pub(crate) fn analyze(stmt: &Statement, schema: &Schema) {
    let diags = trace::time("schema.analyze", || squ_schema::analyze(stmt, schema));
    trace::count("schema.diagnostics", diags.len() as u64);
}

pub(crate) fn lint(sql: &str, schema: &Schema) -> LintReport {
    trace::time("lint.lint", || squ_lint::lint(sql, schema))
}

pub(crate) fn certify(q1: &Query, q2: &Query, schema: &Schema) -> Certificate {
    let cert = trace::time("sema.certify", || squ_sema::certify_pair(q1, q2, schema));
    if !matches!(cert, Certificate::Unknown) {
        trace::count("sema.certify.decided", 1);
    }
    cert
}

/// The witness-batch seed the equivalence and translation dataset builds key
/// their cached batches by (`0xBEE5 ^ hash(schema name)`), so replays run
/// on the very databases the labels were verified on.
pub(crate) fn witness_seed(schema_name: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    schema_name.hash(&mut h);
    0xBEE5 ^ h.finish()
}

// ---- replays ----------------------------------------------------------------

/// Lexer, parser, binder (and, with `lint`, the linter and the semantic
/// analyzer) over every sampled workload query.
pub(crate) fn front_replay(datasets: &[&Dataset], with_lint: bool) {
    let _g = trace::span("replay.front");
    for ds in datasets {
        let schemas = schemas_of(&[ds]);
        for wq in &ds.queries {
            let schema = &schemas[&wq.schema_name];
            tokenize(&wq.sql);
            let Some(stmt) = parse(&wq.sql) else { continue };
            black_box(print(&stmt));
            analyze(&stmt, schema);
            if with_lint {
                black_box(lint(&wq.sql, schema));
                black_box(trace::time("sema.analyze", || {
                    squ_sema::analyze_statement(&stmt, schema)
                }));
            }
        }
    }
}

/// Generate each distinct witness batch the given schemas use, uncached:
/// the work `witness_batch_cached` does on its first call per schema.
pub(crate) fn witness_replay(schemas: &BTreeMap<String, Schema>) {
    let _g = trace::span("replay.witness");
    for (name, schema) in schemas {
        black_box(trace::time("engine.witness", || {
            squ_engine::witness_batch(schema, witness_seed(name))
        }));
    }
}

/// A model client that times each call and keeps the responses, so the
/// extraction step can be replayed on exactly what `run_task` saw.
pub(crate) struct TimingClient<'a> {
    inner: &'a dyn ModelClient,
    calls: Mutex<Vec<(String, CallRecord)>>,
}

impl<'a> TimingClient<'a> {
    pub(crate) fn new(inner: &'a dyn ModelClient) -> TimingClient<'a> {
        TimingClient {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }
}

impl ModelClient for TimingClient<'_> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn call(&self, req: &Request) -> (String, CallRecord) {
        let out = trace::time("llm.simulate", || self.inner.call(req));
        self.calls
            .lock()
            .expect("response log lock")
            .push(out.clone());
        out
    }
}

/// `run_task` through a [`TimingClient`], then the prompt and extraction
/// steps replayed on the same examples and responses.
fn model_replay<T: RunTask>(
    task: &T,
    client: &dyn ModelClient,
    ds: DatasetId,
    examples: &[T::Example],
) -> Vec<T::Outcome> {
    let timing = TimingClient::new(client);
    let outcomes = trace::time("llm.run_task", || run_task(task, &timing, ds, examples));
    for e in examples {
        black_box(trace::time("llm.prompt", || task.render_prompt(e)));
    }
    let calls = timing.calls.into_inner().expect("response log lock");
    for (e, (response, call)) in examples.iter().zip(calls) {
        black_box(trace::time("llm.extract", || {
            task.extract(e, response, call)
        }));
    }
    let review = outcomes.iter().filter(|o| T::call_fact(o).0).count();
    trace::count("llm.outcomes", outcomes.len() as u64);
    trace::count("llm.needs_review", review as u64);
    outcomes
}

fn score(pairs: impl Iterator<Item = (bool, bool)>) {
    let _g = trace::span("eval.score");
    let counts = BinaryCounts::from_pairs(pairs);
    black_box((counts.f1(), counts.accuracy()));
}

/// Replay one type-erased task set through the model pipeline and score
/// the outcomes.
pub(crate) fn replay_set(id: TaskId, set: &ExampleSet, client: &dyn ModelClient, ds: DatasetId) {
    use squ_tasks::{EquivTask, ExplainTask, PerfTask, SyntaxTask, TokenTask, TranslateTask};
    fn typed<E: 'static>(set: &ExampleSet) -> &[E] {
        set.downcast_ref::<Vec<E>>()
            .map(Vec::as_slice)
            .expect("a set downcasts to its task's example type")
    }
    match id {
        TaskId::Syntax => {
            let out = model_replay(&SyntaxTask, client, ds, typed(set));
            score(out.iter().map(|o| (o.example.has_error, o.said_error)));
        }
        TaskId::MissToken => {
            let out = model_replay(&TokenTask, client, ds, typed(set));
            score(out.iter().map(|o| (o.example.has_missing, o.said_missing)));
        }
        TaskId::Equiv => {
            let out = model_replay(&EquivTask, client, ds, typed(set));
            score(
                out.iter()
                    .map(|o| (o.example.equivalent, o.said_equivalent)),
            );
        }
        TaskId::Perf => {
            let out = model_replay(&PerfTask, client, ds, typed(set));
            score(out.iter().map(|o| (o.example.is_costly, o.said_costly)));
        }
        TaskId::Explain => {
            // the rubric is scored inside extraction
            model_replay(&ExplainTask, client, ds, typed(set));
        }
        TaskId::Translate => {
            let out = model_replay(&TranslateTask, client, ds, typed(set));
            score(out.iter().map(|o| (true, o.correct)));
        }
    }
}

/// Distinct `(schema name, schema)` pairs of the given workloads.
pub(crate) fn schemas_of(datasets: &[&Dataset]) -> BTreeMap<String, Schema> {
    let mut out = BTreeMap::new();
    for ds in datasets {
        for wq in &ds.queries {
            out.entry(wq.schema_name.clone())
                .or_insert_with(|| squ_workload::schema_for(ds.workload, &wq.schema_name));
        }
    }
    out
}
