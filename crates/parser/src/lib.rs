//! # squ-parser — SQL parser, AST, and printer
//!
//! A from-scratch recursive-descent SQL parser covering the dialect of the
//! four benchmark workloads (SDSS/CasJobs, SQLShare, Join-Order, Spider):
//! full `SELECT` (explicit/implicit joins, grouping, having, ordering,
//! `TOP`/`LIMIT`, `DISTINCT`), subqueries in all positions, CTEs, set
//! operations, and `CREATE TABLE`/`CREATE VIEW`.
//!
//! The crate also ships:
//!
//! * a precedence-aware **pretty-printer** ([`print_statement`]) with the
//!   round-trip guarantee `parse(print(ast)) == ast`, which the benchmark's
//!   transformation machinery depends on, and
//! * **AST walkers** ([`visit`]) used to derive the paper's syntactic query
//!   properties.
//!
//! ```
//! use squ_parser::{parse, print_statement};
//! let stmt = parse("SELECT plate, mjd FROM SpecObj WHERE z > 0.5").unwrap();
//! assert_eq!(
//!     print_statement(&stmt),
//!     "SELECT plate, mjd FROM SpecObj WHERE z > 0.5"
//! );
//! ```

#![warn(missing_docs)]

pub mod ast;
mod error;
mod parser;
mod printer;
pub mod visit;

pub use ast::*;
pub use error::ParseError;
pub use parser::{parse, parse_dialect, parse_query, parse_query_dialect, MAX_NESTING};
pub use printer::{
    print_expr, print_query, print_query_dialect, print_statement, print_statement_dialect,
};
pub use squ_dialect::Dialect;
