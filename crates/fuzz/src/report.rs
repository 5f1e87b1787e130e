//! Fuzz-run result types and their deterministic JSON rendering.
//!
//! Everything here is plain data with a fixed serialization order and no
//! timestamps or host-dependent fields, so a run's `fuzz.json` is
//! byte-identical for any `--jobs` value and across machines.

use serde::{Deserialize, Serialize};

/// Per-oracle tallies, summed over cases. All fields count *checks*: one
/// round-trip check per case, one mutation check per mutant, one
/// differential check per witness database for the subject query and for
/// each output of every applied transform, one metamorphic check per
/// applicable transform.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleCounts {
    /// `parse(print(parse(q)))` identical and print is a fixpoint.
    pub roundtrip_pass: u64,
    /// Round-trip violations.
    pub roundtrip_fail: u64,
    /// Token-level mutants whose spans stayed byte-consistent.
    pub mutation_pass: u64,
    /// Mutants with out-of-bounds / overlapping / non-reconstructing spans,
    /// or whose reparsed form broke the round-trip law.
    pub mutation_fail: u64,
    /// Engine runs (subject query or transform output, on one witness
    /// database) that agreed with the reference interpreter.
    pub differential_pass: u64,
    /// Engine runs skipped because exactly one side hit its
    /// intermediate-row budget (the reference engine caps a FROM product
    /// by its size, before WHERE prunes it, so it legitimately exhausts the
    /// budget earlier).
    pub differential_skip: u64,
    /// Engine runs that disagreed with the reference interpreter.
    pub differential_fail: u64,
    /// Equivalence-preserving transforms that agreed on every witness.
    pub preserving_pass: u64,
    /// Equivalence-preserving transforms caught changing results.
    pub preserving_fail: u64,
    /// Equivalence-breaking transforms distinguished by some witness.
    pub breaking_distinguished: u64,
    /// Equivalence-breaking transforms no witness distinguished (reported,
    /// not failed: witnesses are probabilistic distinguishers).
    pub breaking_undistinguished: u64,
    /// Transform applications skipped (rewrite produced a query the binder
    /// rejects, or execution failed on a witness).
    pub metamorphic_skip: u64,
    /// Dialect corpus entries (subject query translated into the run's
    /// dialect) that held the dialect round-trip law. Always 0 for
    /// `squ`-dialect runs.
    pub dialect_pass: u64,
    /// Dialect corpus entries that violated it.
    pub dialect_fail: u64,
}

impl OracleCounts {
    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: &OracleCounts) {
        self.roundtrip_pass += other.roundtrip_pass;
        self.roundtrip_fail += other.roundtrip_fail;
        self.mutation_pass += other.mutation_pass;
        self.mutation_fail += other.mutation_fail;
        self.differential_pass += other.differential_pass;
        self.differential_skip += other.differential_skip;
        self.differential_fail += other.differential_fail;
        self.preserving_pass += other.preserving_pass;
        self.preserving_fail += other.preserving_fail;
        self.breaking_distinguished += other.breaking_distinguished;
        self.breaking_undistinguished += other.breaking_undistinguished;
        self.metamorphic_skip += other.metamorphic_skip;
        self.dialect_pass += other.dialect_pass;
        self.dialect_fail += other.dialect_fail;
    }

    /// Any hard oracle violation? (Skips and undistinguished-breaking
    /// checks are not violations.)
    pub fn has_failures(&self) -> bool {
        self.roundtrip_fail > 0
            || self.mutation_fail > 0
            || self.differential_fail > 0
            || self.preserving_fail > 0
            || self.dialect_fail > 0
    }
}

/// Engine execution counters accumulated over every `execute_query` run
/// the differential oracle compares: the subject query and both outputs of
/// every applied transform, on each witness database (reference runs and
/// shrink-predicate probes are not counted). Every field is deterministic
/// for a given `(seed, index)`, so these survive the byte-identical
/// across-`--jobs` guarantee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineCounters {
    /// Base-table rows materialized into the pipeline.
    pub rows_scanned: u64,
    /// Row pairs considered by join loops.
    pub join_pairs: u64,
    /// Operator batches evaluated by the vectorized filter path.
    pub batches: u64,
    /// Hash-index equality probes issued.
    pub index_probes: u64,
    /// Rows fetched via index probes.
    pub index_hits: u64,
    /// Subquery (re-)executions.
    pub subquery_evals: u64,
    /// Runs executed by the compiled engine.
    pub compiled: u64,
    /// Runs the compiler rejected, which `execute_query` answered with the
    /// reference interpreter.
    pub fallbacks: u64,
    /// Select blocks short-circuited because `squ-sema` proved their WHERE
    /// unsatisfiable at compile time.
    pub empty_prunes: u64,
}

impl EngineCounters {
    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: &EngineCounters) {
        self.rows_scanned += other.rows_scanned;
        self.join_pairs += other.join_pairs;
        self.batches += other.batches;
        self.index_probes += other.index_probes;
        self.index_hits += other.index_hits;
        self.subquery_evals += other.subquery_evals;
        self.compiled += other.compiled;
        self.fallbacks += other.fallbacks;
        self.empty_prunes += other.empty_prunes;
    }
}

/// Tallies of the semantic-analysis oracle: every `squ-sema` claim that was
/// cross-checked against real execution, plus certificate statistics from
/// the metamorphic pairs. Deterministic per `(seed, index)` like everything
/// else in the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SemaCounters {
    /// Subject queries run through `squ_sema::analyze_query`.
    pub queries_analyzed: u64,
    /// Queries proven empty by the analyzer.
    pub empties_proven: u64,
    /// Emptiness proofs confirmed by execution (zero rows on a witness).
    pub empty_checks: u64,
    /// Redundant-conjunct proofs cross-checked by executing the query with
    /// the conjunct dropped.
    pub redundancy_checks: u64,
    /// `max_rows` bounds cross-checked against executed row counts.
    pub bound_checks: u64,
    /// Metamorphic pairs certified equivalent.
    pub certified_equivalent: u64,
    /// Metamorphic pairs certified inequivalent.
    pub certified_inequivalent: u64,
    /// Metamorphic pairs the certifier left undecided.
    pub certified_unknown: u64,
    /// Execution-checked sema claims that held.
    pub soundness_pass: u64,
    /// Execution-checked sema claims that did **not** hold — hard failures.
    pub soundness_fail: u64,
}

impl SemaCounters {
    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: &SemaCounters) {
        self.queries_analyzed += other.queries_analyzed;
        self.empties_proven += other.empties_proven;
        self.empty_checks += other.empty_checks;
        self.redundancy_checks += other.redundancy_checks;
        self.bound_checks += other.bound_checks;
        self.certified_equivalent += other.certified_equivalent;
        self.certified_inequivalent += other.certified_inequivalent;
        self.certified_unknown += other.certified_unknown;
        self.soundness_pass += other.soundness_pass;
        self.soundness_fail += other.soundness_fail;
    }
}

/// One oracle violation, with its shrunk reproducer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Failure {
    /// Index of the generated case that exposed it.
    pub case: u64,
    /// Which oracle fired: `round-trip`, `mutation`, `differential`,
    /// `metamorphic`, `sema`, `sema-certificate`, or `dialect-round-trip`.
    pub oracle: String,
    /// The transform label (`metamorphic`, `sema-certificate`, and a
    /// `differential` failure on a transform output), the mutation kind
    /// (`mutation`), or the dialect name (`dialect-round-trip`); `None`
    /// otherwise.
    pub transform: Option<String>,
    /// The original failing SQL.
    pub sql: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Token-deletion-minimized SQL that still fails the same predicate.
    pub minimized: String,
    /// Token count of `minimized`.
    pub minimized_tokens: u64,
}

/// The outcome of one generated case: its tallies plus any failures.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CaseReport {
    /// Case index within the run.
    pub index: u64,
    /// The generated (valid) SQL this case exercised.
    pub sql: String,
    /// Oracle tallies for this case.
    pub counts: OracleCounts,
    /// Engine counters from the differential oracle's runs.
    pub engine: EngineCounters,
    /// Semantic-analysis oracle tallies for this case.
    pub sema: SemaCounters,
    /// Violations found in this case.
    pub failures: Vec<Failure>,
}

/// A whole fuzz run, written to `target/repro/fuzz.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzReport {
    /// Report format version.
    pub version: u32,
    /// Generator seed for the run.
    pub seed: u64,
    /// Corpus dialect of the run (`squ` for the historical oracles).
    pub dialect: String,
    /// Number of generated cases.
    pub cases: u64,
    /// Aggregated oracle tallies.
    pub counts: OracleCounts,
    /// Aggregated engine counters.
    pub engine: EngineCounters,
    /// Aggregated semantic-analysis oracle tallies.
    pub sema: SemaCounters,
    /// Every violation, in case order.
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// Aggregate per-case reports (in case order) into a run report.
    pub fn from_cases(seed: u64, cases: &[CaseReport]) -> FuzzReport {
        FuzzReport::from_cases_in(seed, "squ", cases)
    }

    /// Aggregate per-case reports of a run whose corpus is in `dialect`.
    pub fn from_cases_in(seed: u64, dialect: &str, cases: &[CaseReport]) -> FuzzReport {
        let mut counts = OracleCounts::default();
        let mut engine = EngineCounters::default();
        let mut sema = SemaCounters::default();
        let mut failures = Vec::new();
        for c in cases {
            counts.absorb(&c.counts);
            engine.absorb(&c.engine);
            sema.absorb(&c.sema);
            failures.extend(c.failures.iter().cloned());
        }
        FuzzReport {
            version: 5,
            seed,
            dialect: dialect.to_string(),
            cases: cases.len() as u64,
            counts,
            engine,
            sema,
            failures,
        }
    }

    /// Did every hard oracle hold?
    pub fn is_clean(&self) -> bool {
        !self.counts.has_failures() && self.sema.soundness_fail == 0
    }

    /// Deterministic pretty JSON (field order is struct order; no maps).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// One-line human summary for the console.
    pub fn summary_line(&self) -> String {
        let c = &self.counts;
        let dialect = if self.dialect == "squ" {
            String::new()
        } else {
            format!(
                ", dialect[{}] {}/{} fail",
                self.dialect,
                c.dialect_fail,
                c.dialect_pass + c.dialect_fail
            )
        };
        format!(
            "fuzz: {} cases, roundtrip {}/{} fail, mutation {}/{} fail, \
             differential {} pass / {} skip / {} fail, metamorphic {} pass / {} fail \
             ({} breaking distinguished, {} undistinguished, {} skipped), \
             engine {} compiled / {} fallback, \
             sema {} empties / {} certified eq / {} ineq, {} soundness fail{dialect}",
            self.cases,
            c.roundtrip_fail,
            c.roundtrip_pass + c.roundtrip_fail,
            c.mutation_fail,
            c.mutation_pass + c.mutation_fail,
            c.differential_pass,
            c.differential_skip,
            c.differential_fail,
            c.preserving_pass,
            c.preserving_fail,
            c.breaking_distinguished,
            c.breaking_undistinguished,
            c.metamorphic_skip,
            self.engine.compiled,
            self.engine.fallbacks,
            self.sema.empties_proven,
            self.sema.certified_equivalent,
            self.sema.certified_inequivalent,
            self.sema.soundness_fail,
        )
    }
}
