//! # squ-engine — in-memory SQL execution, witnesses, and cost model
//!
//! Three substrates the benchmark needs from a database engine:
//!
//! * an **executor** ([`execute_query`]) — queries are lowered by
//!   [`compile_query`] into a compiled plan of columnar batch operators
//!   (vectorized filters, hash joins, hash-index probes, a cost-driven join
//!   order), and anything the compiler does not cover falls back to the
//!   naive reference interpreter ([`reference_query`]), the engine's one
//!   executable definition of SQL semantics. The compiled engine is
//!   differentially verified against it, and the executor verifies every
//!   equivalence / non-equivalence label the benchmark produces;
//! * a **witness-database generator** ([`witness_batch`]) — small,
//!   adversarial random instances of a schema on which transformed query
//!   pairs are compared;
//! * an analytical **cost model** ([`CostModel`]) — the source of the SDSS
//!   elapsed-time ground truth for the `performance_pred` task (the paper's
//!   Figure 5 distribution).
//!
//! ```
//! use squ_engine::{execute_query, witness_database};
//! use squ_schema::schemas::sdss;
//!
//! let db = witness_database(&sdss(), 42, 8, 16);
//! let q = squ_parser::parse_query("SELECT plate FROM SpecObj WHERE z > 500").unwrap();
//! let (rel, stats) = execute_query(&q, &db).unwrap();
//! assert_eq!(rel.columns, vec!["plate"]);
//! assert!(stats.rows_scanned > 0);
//! ```

#![warn(missing_docs)]

mod cost;
mod exec;
mod index;
mod like;
mod physical;
mod plan;
mod program;
mod reference;
mod table;
mod value;
mod witness;

pub use cost::{runtime_bucket, CostModel, RUNTIME_BUCKET_EDGES_MS};
pub use exec::{execute, execute_query, like_match, ExecError, ExecStats};
pub use index::{indexes_enabled, set_indexes_enabled};
pub use like::LikeMatcher;
pub use physical::{compile_query, CompiledQuery};
pub use plan::{explain, greedy_join_order, plan_query, Plan};
pub use reference::{reference_execute, reference_query};
pub use table::{Database, Relation};
pub use value::Value;
pub use witness::{
    is_id_column, witness_batch, witness_batch_cached, witness_database, TEXT_VOCAB,
};
