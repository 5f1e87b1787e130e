//! # squ-dialect — the SQL dialect matrix
//!
//! One table of every per-dialect decision the frontend makes: quoting
//! styles, `LIMIT n` vs `TOP n`, the string-concatenation operator, the
//! scalar/aggregate function catalog (with per-dialect spellings), CAST
//! type-name aliases, and reserved-word lists. The lexer, parser,
//! printer, binder, linter, task builders, and fuzzer all consume this
//! crate instead of dispatching on a dialect themselves — the xtask
//! `lint` step rejects dialect dispatch outside this module, so the
//! matrix below is the single source of truth.
//!
//! [`Dialect::Squ`] is the benchmark's permissive union dialect: it
//! accepts everything every concrete dialect accepts (both quote styles,
//! both `LIMIT` and `TOP`, the whole function catalog), and is
//! byte-for-byte the behavior the pipeline had before dialects existed.
//!
//! ```
//! use squ_dialect::Dialect;
//! assert!(Dialect::Tsql.supports_top() && !Dialect::Tsql.supports_limit());
//! assert!(Dialect::Mysql.accepts_quote('`') && !Dialect::Mysql.accepts_quote('"'));
//! assert_eq!(Dialect::Tsql.function_spelling("LENGTH"), Some("LEN"));
//! ```

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// A SQL dialect understood by the frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Dialect {
    /// The benchmark's permissive union dialect (the default everywhere).
    Squ,
    /// SQLite: `"id"`, `` `id` `` and `[id]` quoting, `LIMIT`, `||`.
    Sqlite,
    /// PostgreSQL: `"id"` quoting only, `LIMIT`, `||`.
    Postgres,
    /// MySQL: `` `id` `` quoting, `#` line comments, `LIMIT`, `CONCAT()`.
    Mysql,
    /// T-SQL (SQL Server / CasJobs): `[id]` and `"id"` quoting, `TOP`,
    /// `CONCAT()`, `#temp`/`@var` word characters.
    Tsql,
}

impl Dialect {
    /// Every dialect, Squ first (canonical order).
    pub const ALL: [Dialect; 5] = [
        Dialect::Squ,
        Dialect::Sqlite,
        Dialect::Postgres,
        Dialect::Mysql,
        Dialect::Tsql,
    ];

    /// The four concrete (non-union) dialects, in canonical order. The
    /// translation task draws its ordered source→target pairs from here.
    pub const CONCRETE: [Dialect; 4] = [
        Dialect::Sqlite,
        Dialect::Postgres,
        Dialect::Mysql,
        Dialect::Tsql,
    ];

    /// Lowercase names, aligned with [`Dialect::ALL`] — the values
    /// `--dialect` and the `/eval` `dialect` field accept.
    pub const NAMES: [&'static str; 5] = ["squ", "sqlite", "postgres", "mysql", "tsql"];

    /// The dialect's lowercase name.
    pub fn name(self) -> &'static str {
        Dialect::NAMES[self.index()]
    }

    /// Look a dialect up by name, case-insensitively.
    pub fn by_name(name: &str) -> Option<Dialect> {
        let lower = name.to_ascii_lowercase();
        Dialect::ALL.into_iter().find(|d| d.name() == lower)
    }

    /// Canonical position in [`Dialect::ALL`] (used to index matrices).
    fn index(self) -> usize {
        match self {
            Dialect::Squ => 0,
            Dialect::Sqlite => 1,
            Dialect::Postgres => 2,
            Dialect::Mysql => 3,
            Dialect::Tsql => 4,
        }
    }

    // ---------------- lexing ----------------

    /// Is `open` an identifier-quote opener in this dialect?
    /// (`"` double quote, `[` bracket, `` ` `` backtick.)
    pub fn accepts_quote(self, open: char) -> bool {
        const QUOTES: [&str; 5] = ["\"[", "\"[`", "\"", "`", "\"["];
        QUOTES[self.index()].contains(open)
    }

    /// The dialect's canonical identifier-quote pair, used by the
    /// dialect printer when an identifier must be quoted.
    pub fn canonical_quote(self) -> (char, char) {
        const PAIRS: [(char, char); 5] =
            [('"', '"'), ('"', '"'), ('"', '"'), ('`', '`'), ('[', ']')];
        PAIRS[self.index()]
    }

    /// Does `#` start a line comment (MySQL)?
    pub fn hash_line_comments(self) -> bool {
        matches!(self, Dialect::Mysql)
    }

    /// May `#`, `@`, `$` appear inside words? (Squ keeps the permissive
    /// CasJobs behavior — `#tmp` temp tables, `@vars`; T-SQL shares it.)
    pub fn word_sigils(self) -> bool {
        matches!(self, Dialect::Squ | Dialect::Tsql)
    }

    // ---------------- parsing / printing ----------------

    /// Is `LIMIT n` accepted at the end of a query?
    pub fn supports_limit(self) -> bool {
        !matches!(self, Dialect::Tsql)
    }

    /// Is `SELECT TOP n …` accepted?
    pub fn supports_top(self) -> bool {
        matches!(self, Dialect::Squ | Dialect::Tsql)
    }

    /// Is `||` a string-concatenation operator? (Where it is not, the
    /// printer and translator spell concatenation as `CONCAT(a, b)`.)
    pub fn concat_operator(self) -> bool {
        matches!(self, Dialect::Squ | Dialect::Sqlite | Dialect::Postgres)
    }

    // ---------------- functions ----------------

    /// Does this dialect accept the function spelling `name`
    /// (case-insensitive)? Squ accepts every spelling in the catalog; a
    /// concrete dialect accepts exactly its own spelling (`LEN` is known
    /// to T-SQL, `LENGTH` is not — the catalogs are deliberately strict
    /// so translations and lints are unambiguous).
    pub fn knows_function(self, name: &str) -> bool {
        let upper = name.to_ascii_uppercase();
        match catalog_row(&upper) {
            None => false,
            Some(_) if matches!(self, Dialect::Squ) => true,
            Some(row) => row.names[self.index()].is_some_and(|n| n == upper),
        }
    }

    /// The dialect's spelling of the catalog function `name`
    /// (case-insensitive lookup; `None` when the catalog does not list
    /// the function at all). For Squ this is the canonical spelling.
    pub fn function_spelling(self, name: &str) -> Option<&'static str> {
        let upper = name.to_ascii_uppercase();
        let row = catalog_row(&upper)?;
        Some(row.names[self.index()].unwrap_or(row.canonical))
    }

    // ---------------- types ----------------

    /// The dialect's spelling of a canonical scalar type in `CAST(x AS
    /// t)`. Canonical names are the binder's: `INT`, `FLOAT`, `VARCHAR`,
    /// `BOOLEAN`. Names outside the matrix resolve to `None`.
    pub fn type_spelling(self, canonical: &str) -> Option<&'static str> {
        let upper = canonical.to_ascii_uppercase();
        TYPE_MATRIX
            .iter()
            .find(|(name, _)| *name == upper)
            .map(|(_, spellings)| spellings[self.index()])
    }

    /// Identifiers that are reserved words in this dialect but plain
    /// identifiers in Squ (uppercase; drives the SQU123 lint).
    pub fn reserved_words(self) -> &'static [&'static str] {
        const RESERVED: [&[&str]; 5] = [
            &[],
            &[],
            &["USER", "WINDOW", "LATERAL", "CURRENT_DATE"],
            &["RANK", "GROUPS", "WINDOW", "SYSTEM"],
            &["PLAN", "FILE", "PUBLIC", "RULE"],
        ];
        RESERVED[self.index()]
    }

    /// Is `ident` (case-insensitive) a reserved word of this dialect?
    pub fn is_reserved(self, ident: &str) -> bool {
        self.reserved_words()
            .iter()
            .any(|w| w.eq_ignore_ascii_case(ident))
    }
}

/// The result type a catalog function produces — mirrors what the
/// binder needs to type-check expressions without hard-coding names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionResult {
    /// Always an integer (`COUNT`, `LENGTH`, …).
    Int,
    /// Always a float (`AVG` on any input, unknown numerics).
    Float,
    /// Always text (`UPPER`, `CONCAT`, …).
    Text,
    /// The type of the first argument (`SUM`, `MIN`, `MAX`).
    FirstArg,
}

/// One catalog row: the canonical (Squ) spelling, the result type,
/// whether the function aggregates, and the per-dialect spellings
/// aligned with [`Dialect::ALL`] (`None` = the dialect lacks it).
pub struct FunctionSpec {
    /// Canonical (Squ) spelling, uppercase.
    pub canonical: &'static str,
    /// Result type for the binder.
    pub result: FunctionResult,
    /// Is this an aggregate function?
    pub aggregate: bool,
    /// Per-dialect spellings aligned with [`Dialect::ALL`].
    pub names: [Option<&'static str>; 5],
}

/// Shorthand: a function spelled the same in every dialect.
const fn everywhere(
    canonical: &'static str,
    result: FunctionResult,
    aggregate: bool,
) -> FunctionSpec {
    FunctionSpec {
        canonical,
        result,
        aggregate,
        names: [
            Some(canonical),
            Some(canonical),
            Some(canonical),
            Some(canonical),
            Some(canonical),
        ],
    }
}

/// The function catalog. Per-dialect spellings only diverge where the
/// real engines do (`LEN` is the T-SQL spelling of `LENGTH`, `SUBSTR`
/// the SQLite one of `SUBSTRING`, …); every spelling in the matrix is
/// implemented identically by `squ-engine` and `engine::reference`, so
/// renamed translations stay row-for-row verifiable.
pub const FUNCTIONS: &[FunctionSpec] = &[
    everywhere("COUNT", FunctionResult::Int, true),
    everywhere("SUM", FunctionResult::FirstArg, true),
    // AVG follows its argument type here because the binder always has —
    // the type lattice treats Int AVG as Int, matching the engines
    everywhere("AVG", FunctionResult::FirstArg, true),
    everywhere("MIN", FunctionResult::FirstArg, true),
    everywhere("MAX", FunctionResult::FirstArg, true),
    FunctionSpec {
        canonical: "UPPER",
        result: FunctionResult::Text,
        aggregate: false,
        names: [
            Some("UPPER"),
            Some("UPPER"),
            Some("UPPER"),
            Some("UCASE"),
            Some("UPPER"),
        ],
    },
    FunctionSpec {
        canonical: "LOWER",
        result: FunctionResult::Text,
        aggregate: false,
        names: [
            Some("LOWER"),
            Some("LOWER"),
            Some("LOWER"),
            Some("LCASE"),
            Some("LOWER"),
        ],
    },
    everywhere("TRIM", FunctionResult::Text, false),
    everywhere("LTRIM", FunctionResult::Text, false),
    everywhere("RTRIM", FunctionResult::Text, false),
    everywhere("REPLACE", FunctionResult::Text, false),
    everywhere("CONCAT", FunctionResult::Text, false),
    FunctionSpec {
        canonical: "LENGTH",
        result: FunctionResult::Int,
        aggregate: false,
        names: [
            Some("LENGTH"),
            Some("LENGTH"),
            Some("LENGTH"),
            Some("LENGTH"),
            Some("LEN"),
        ],
    },
    FunctionSpec {
        canonical: "SUBSTRING",
        result: FunctionResult::Text,
        aggregate: false,
        names: [
            Some("SUBSTRING"),
            Some("SUBSTR"),
            Some("SUBSTRING"),
            Some("SUBSTRING"),
            Some("SUBSTRING"),
        ],
    },
    FunctionSpec {
        canonical: "LEFT",
        result: FunctionResult::Text,
        aggregate: false,
        names: [Some("LEFT"), None, Some("LEFT"), Some("LEFT"), Some("LEFT")],
    },
    FunctionSpec {
        canonical: "RIGHT",
        result: FunctionResult::Text,
        aggregate: false,
        names: [
            Some("RIGHT"),
            None,
            Some("RIGHT"),
            Some("RIGHT"),
            Some("RIGHT"),
        ],
    },
    FunctionSpec {
        canonical: "CHARINDEX",
        result: FunctionResult::Int,
        aggregate: false,
        names: [Some("CHARINDEX"), None, None, None, Some("CHARINDEX")],
    },
    FunctionSpec {
        canonical: "DATALENGTH",
        result: FunctionResult::Int,
        aggregate: false,
        names: [Some("DATALENGTH"), None, None, None, Some("DATALENGTH")],
    },
    FunctionSpec {
        canonical: "STR",
        result: FunctionResult::Text,
        aggregate: false,
        names: [Some("STR"), None, None, None, Some("STR")],
    },
];

/// CAST type-name matrix: canonical name → per-dialect spelling,
/// aligned with [`Dialect::ALL`].
const TYPE_MATRIX: &[(&str, [&str; 5])] = &[
    ("INT", ["INT", "INTEGER", "INTEGER", "SIGNED", "INT"]),
    ("FLOAT", ["FLOAT", "REAL", "NUMERIC", "DECIMAL", "FLOAT"]),
    ("VARCHAR", ["VARCHAR", "TEXT", "TEXT", "CHAR", "VARCHAR"]),
    (
        "BOOLEAN",
        ["BOOLEAN", "BOOLEAN", "BOOLEAN", "SIGNED", "BIT"],
    ),
];

/// Find the catalog row that lists `upper` under any dialect spelling.
fn catalog_row(upper: &str) -> Option<&'static FunctionSpec> {
    FUNCTIONS
        .iter()
        .find(|spec| spec.canonical == upper || spec.names.contains(&Some(upper)))
}

/// Resolve a function name (any dialect spelling, any case) to its
/// catalog row — the binder's entry point for type resolution.
pub fn lookup_function(name: &str) -> Option<&'static FunctionSpec> {
    catalog_row(&name.to_ascii_uppercase())
}

/// Translate a function spelling from one dialect into another: resolves
/// `name` (case-insensitively) in the catalog and returns the target
/// dialect's spelling. Names outside the catalog pass through unchanged.
pub fn translate_function(name: &str, to: Dialect) -> String {
    match to.function_spelling(name) {
        Some(spelling) => spelling.to_string(),
        None => name.to_string(),
    }
}

/// Translate a CAST type name between dialects: resolves `name` to a
/// canonical scalar type (accepting any dialect's spelling) and returns
/// the target dialect's spelling; unknown names pass through.
pub fn translate_type(name: &str, to: Dialect) -> String {
    let upper = name.to_ascii_uppercase();
    for (canonical, spellings) in TYPE_MATRIX {
        if *canonical == upper || spellings.contains(&upper.as_str()) {
            // ambiguous reverse spellings (SIGNED covers INT and
            // BOOLEAN) resolve to the first row that lists them
            return spellings[to.index()].to_string();
        }
    }
    name.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_reject_unknowns() {
        for (d, name) in Dialect::ALL.into_iter().zip(Dialect::NAMES) {
            assert_eq!(d.name(), name);
            assert_eq!(Dialect::by_name(name), Some(d));
            assert_eq!(Dialect::by_name(&name.to_uppercase()), Some(d));
        }
        assert_eq!(Dialect::by_name("oracle"), None);
        assert_eq!(Dialect::by_name(""), None);
    }

    #[test]
    fn squ_is_the_union_dialect() {
        for d in Dialect::CONCRETE {
            for q in ['"', '[', '`'] {
                if d.accepts_quote(q) && q != '`' {
                    assert!(
                        Dialect::Squ.accepts_quote(q),
                        "Squ must accept {q} because {} does",
                        d.name()
                    );
                }
            }
            if d.supports_limit() {
                assert!(Dialect::Squ.supports_limit());
            }
            if d.supports_top() {
                assert!(Dialect::Squ.supports_top());
            }
        }
        // Squ knows every catalog function under every spelling
        for spec in FUNCTIONS {
            assert!(Dialect::Squ.knows_function(spec.canonical));
            for name in spec.names.into_iter().flatten() {
                assert!(Dialect::Squ.knows_function(name), "{name}");
            }
        }
    }

    #[test]
    fn quote_matrix_matches_the_paper_dialects() {
        assert!(Dialect::Sqlite.accepts_quote('"'));
        assert!(Dialect::Sqlite.accepts_quote('['));
        assert!(Dialect::Sqlite.accepts_quote('`'));
        assert!(Dialect::Postgres.accepts_quote('"'));
        assert!(!Dialect::Postgres.accepts_quote('['));
        assert!(!Dialect::Postgres.accepts_quote('`'));
        assert!(Dialect::Mysql.accepts_quote('`'));
        assert!(!Dialect::Mysql.accepts_quote('"'));
        assert!(Dialect::Tsql.accepts_quote('['));
        assert!(Dialect::Tsql.accepts_quote('"'));
        assert!(!Dialect::Tsql.accepts_quote('`'));
        assert_eq!(Dialect::Mysql.canonical_quote(), ('`', '`'));
        assert_eq!(Dialect::Tsql.canonical_quote(), ('[', ']'));
    }

    #[test]
    fn limit_top_split() {
        for d in [Dialect::Sqlite, Dialect::Postgres, Dialect::Mysql] {
            assert!(d.supports_limit() && !d.supports_top(), "{}", d.name());
        }
        assert!(Dialect::Tsql.supports_top() && !Dialect::Tsql.supports_limit());
        assert!(Dialect::Squ.supports_limit() && Dialect::Squ.supports_top());
    }

    #[test]
    fn function_lookup_is_case_insensitive_across_spellings() {
        for probe in ["count", "Count", "COUNT"] {
            let spec = lookup_function(probe).expect("COUNT resolves");
            assert_eq!(spec.canonical, "COUNT");
            assert!(spec.aggregate);
        }
        // a T-SQL spelling resolves to the canonical row
        let spec = lookup_function("len").expect("LEN resolves");
        assert_eq!(spec.canonical, "LENGTH");
        assert_eq!(spec.result, FunctionResult::Int);
        // and the reverse rename reproduces the dialect spelling
        assert_eq!(translate_function("LENGTH", Dialect::Tsql), "LEN");
        assert_eq!(translate_function("LEN", Dialect::Postgres), "LENGTH");
        assert_eq!(translate_function("substring", Dialect::Sqlite), "SUBSTR");
        assert_eq!(translate_function("SUBSTR", Dialect::Mysql), "SUBSTRING");
        // unknown names pass through for every dialect
        for d in Dialect::ALL {
            assert_eq!(translate_function("FROBNICATE", d), "FROBNICATE");
        }
    }

    #[test]
    fn type_matrix_translates_and_passes_unknowns() {
        assert_eq!(translate_type("INT", Dialect::Sqlite), "INTEGER");
        assert_eq!(translate_type("integer", Dialect::Tsql), "INT");
        assert_eq!(translate_type("FLOAT", Dialect::Postgres), "NUMERIC");
        assert_eq!(translate_type("VARCHAR", Dialect::Mysql), "CHAR");
        assert_eq!(translate_type("BOOLEAN", Dialect::Tsql), "BIT");
        assert_eq!(translate_type("GEOGRAPHY", Dialect::Mysql), "GEOGRAPHY");
    }

    #[test]
    fn reserved_words_are_dialect_local() {
        assert!(Dialect::Mysql.is_reserved("rank"));
        assert!(!Dialect::Sqlite.is_reserved("rank"));
        assert!(Dialect::Postgres.is_reserved("User"));
        assert!(Dialect::Tsql.is_reserved("plan"));
        assert!(!Dialect::Squ.is_reserved("plan"));
    }
}
