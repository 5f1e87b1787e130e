//! # squ-fuzz — deterministic differential & metamorphic testing
//!
//! A seedable, dependency-free fuzzing subsystem for the whole
//! lexer→parser→binder→engine stack. A grammar generator emits random
//! schema-valid queries over random star schemas ([`gen`]); every case
//! then runs these oracles ([`oracle`]):
//!
//! 1. **round-trip** — `parse(print(parse(q)))` is AST-identical, the
//!    printer is a fixpoint, and lexer spans stay byte-consistent under
//!    token-level mutation ([`mutate`]);
//! 2. **differential** — the optimized engine and a naive reference
//!    interpreter ([`squ_engine::reference_query`]) agree row-for-row
//!    under canonical ordering on every witness database, for the subject
//!    query and for both outputs of every applied transform;
//! 3. **metamorphic** — every equivalence-preserving transform in the
//!    `squ-tasks` catalog keeps differential results equal, and every
//!    equivalence-breaking transform is distinguishable by some witness;
//! 4. **sema** — every claim the `squ-sema` abstract interpreter makes
//!    (provably-empty results, redundant conjuncts, row bounds, and
//!    equivalence/inequivalence certificates for transform pairs) is
//!    cross-checked against real execution; a provably-empty query that
//!    returns rows or a certified-equivalent pair that diverges is a hard
//!    failure;
//! 5. **dialect** — in a run configured with a concrete [`Dialect`]
//!    (sqlite / postgres / mysql / tsql), every subject query is
//!    translated into that dialect — function and type-name spellings,
//!    quoting style, `LIMIT`/`TOP` — emitted as the corpus SQL, and held
//!    to the dialect round-trip law, so each dialect frontend gets its
//!    own fuzzed corpus.
//!
//! Violations are minimized by deterministic token deletion ([`shrink`])
//! and reported as plain data ([`report`]) whose JSON rendering is
//! byte-identical for any `--jobs` value.

#![warn(missing_docs)]

pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod report;
pub mod shrink;

pub use gen::{fallback_query, generate_query, generate_schema, mix, GenSchema, SCHEMA_POOL};
pub use mutate::{check_reconstruction, check_span_consistency, mutants_of, Mutant};
pub use oracle::{run_case, subject_query, FuzzConfig};
pub use report::{CaseReport, EngineCounters, Failure, FuzzReport, OracleCounts, SemaCounters};
pub use shrink::shrink_sql;
pub use squ_parser::Dialect;
