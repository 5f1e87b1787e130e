//! The `SQU0xx` rule registry.
//!
//! Every diagnostic the analyzer can emit has a stable code here, so audit
//! reports, CI gates, and downstream consumers can match on codes instead
//! of message text. Codes are grouped by layer:
//!
//! | range | layer |
//! |---|---|
//! | `SQU00x` | lexer / parser |
//! | `SQU01x` | name resolution (binder) |
//! | `SQU02x` | aggregation / grouping (binder) |
//! | `SQU03x` | types and cardinality (binder) |
//! | `SQU10x` | style advisories (warnings, never audit failures) |
//! | `SQU11x` | semantic advisories from `squ-sema` (warnings) |
//! | `SQU12x` | dialect-conformance advisories (warnings, via `lint_dialect`) |

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Style advisory; the query is still well-formed and analyzable.
    Warning,
    /// The query is malformed or semantically invalid.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable code, e.g. `SQU020`.
    pub code: &'static str,
    /// Severity of every diagnostic carrying this code.
    pub severity: Severity,
    /// The paper's error-category label, for the six studied categories.
    pub paper_label: Option<&'static str>,
    /// One-line summary.
    pub summary: &'static str,
}

/// All rules, sorted by code.
pub const REGISTRY: &[RuleInfo] = &[
    RuleInfo {
        code: "SQU001",
        severity: Severity::Error,
        paper_label: None,
        summary: "lexical error (unterminated literal/comment, bad character)",
    },
    RuleInfo {
        code: "SQU002",
        severity: Severity::Error,
        paper_label: None,
        summary: "parse error (unexpected, missing, or trailing token)",
    },
    RuleInfo {
        code: "SQU003",
        severity: Severity::Error,
        paper_label: None,
        summary: "statement nests deeper than the parser's limit",
    },
    RuleInfo {
        code: "SQU010",
        severity: Severity::Error,
        paper_label: None,
        summary: "table not found in schema",
    },
    RuleInfo {
        code: "SQU011",
        severity: Severity::Error,
        paper_label: None,
        summary: "column not found in any table in scope",
    },
    RuleInfo {
        code: "SQU012",
        severity: Severity::Error,
        paper_label: Some("alias-undefined"),
        summary: "qualifier names no table or alias in scope",
    },
    RuleInfo {
        code: "SQU013",
        severity: Severity::Error,
        paper_label: Some("alias-ambiguous"),
        summary: "unqualified column name matches several tables in scope",
    },
    RuleInfo {
        code: "SQU020",
        severity: Severity::Error,
        paper_label: Some("aggr-attr"),
        summary: "non-aggregated column outside GROUP BY in an aggregate query",
    },
    RuleInfo {
        code: "SQU021",
        severity: Severity::Error,
        paper_label: Some("aggr-having"),
        summary: "HAVING references a column that is neither aggregated nor grouped",
    },
    RuleInfo {
        code: "SQU030",
        severity: Severity::Error,
        paper_label: Some("nested-mismatch"),
        summary: "scalar subquery may return more than one row",
    },
    RuleInfo {
        code: "SQU031",
        severity: Severity::Error,
        paper_label: Some("condition-mismatch"),
        summary: "comparison between incompatible types",
    },
    RuleInfo {
        code: "SQU100",
        severity: Severity::Warning,
        paper_label: None,
        summary: "SELECT * projection (schema-dependent output shape)",
    },
    RuleInfo {
        code: "SQU101",
        severity: Severity::Warning,
        paper_label: None,
        summary: "implicit cross join (comma-separated FROM items)",
    },
    RuleInfo {
        code: "SQU102",
        severity: Severity::Warning,
        paper_label: None,
        summary: "LIMIT/TOP without ORDER BY (non-deterministic row choice)",
    },
    RuleInfo {
        code: "SQU110",
        severity: Severity::Warning,
        paper_label: None,
        summary: "query result is provably empty (contradictory predicates or empty input)",
    },
    RuleInfo {
        code: "SQU111",
        severity: Severity::Warning,
        paper_label: None,
        summary: "WHERE conjunct is provably true on every row (redundant)",
    },
    RuleInfo {
        code: "SQU112",
        severity: Severity::Warning,
        paper_label: None,
        summary: "comparison against a NULL literal never evaluates to TRUE",
    },
    RuleInfo {
        code: "SQU113",
        severity: Severity::Warning,
        paper_label: None,
        summary: "BETWEEN range is empty (lower bound exceeds upper bound)",
    },
    RuleInfo {
        code: "SQU120",
        severity: Severity::Warning,
        paper_label: None,
        summary: "identifier quote style not accepted by the target dialect",
    },
    RuleInfo {
        code: "SQU121",
        severity: Severity::Warning,
        paper_label: None,
        summary: "row-bound form (LIMIT/TOP) not supported by the target dialect",
    },
    RuleInfo {
        code: "SQU122",
        severity: Severity::Warning,
        paper_label: None,
        summary: "function spelling unknown to the target dialect's catalog",
    },
    RuleInfo {
        code: "SQU123",
        severity: Severity::Warning,
        paper_label: None,
        summary: "identifier collides with a reserved word of the target dialect",
    },
];

/// Look up a rule by code.
pub fn rule(code: &str) -> Option<&'static RuleInfo> {
    REGISTRY.iter().find(|r| r.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        let codes: Vec<&str> = REGISTRY.iter().map(|r| r.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(codes, sorted, "codes must be sorted and unique");
    }

    #[test]
    fn severity_follows_code_range() {
        for r in REGISTRY {
            let expect = if r.code < "SQU100" {
                Severity::Error
            } else {
                Severity::Warning
            };
            assert_eq!(r.severity, expect, "{}", r.code);
        }
    }

    #[test]
    fn paper_categories_all_present() {
        for label in [
            "aggr-attr",
            "aggr-having",
            "nested-mismatch",
            "condition-mismatch",
            "alias-undefined",
            "alias-ambiguous",
        ] {
            assert!(
                REGISTRY.iter().any(|r| r.paper_label == Some(label)),
                "missing paper category {label}"
            );
        }
    }

    #[test]
    fn lookup_by_code() {
        assert_eq!(rule("SQU020").map(|r| r.severity), Some(Severity::Error));
        assert!(rule("SQU999").is_none());
    }
}
