//! `squ-lint`: span-precise static analysis for benchmark SQL.
//!
//! A thin rule-registry layer over the existing lexer → parser →
//! `squ-schema` binder pipeline. Every problem is reported as a
//! [`LintDiagnostic`] with a stable `SQU0xx` code (see [`rules::REGISTRY`]),
//! a [`Severity`], and — whenever the underlying AST node carries a
//! position — a byte [`Span`] into the analyzed SQL text.
//!
//! The primary consumer is the dataset auditor (`squ::audit`), which uses
//! [`lint`] to *prove* ground-truth labels: injected errors must produce a
//! diagnostic of the expected paper category overlapping the labeled span,
//! and correct samples must produce no error-severity diagnostics at all.
//! Warnings (`SQU1xx`) are style advisories (`SQU10x`) and `squ-sema`
//! semantic advisories (`SQU11x`, e.g. a provably-empty result); they never
//! fail an audit.

#![warn(missing_docs)]

pub mod rules;

pub use rules::{rule, RuleInfo, Severity, REGISTRY};
pub use squ_dialect::Dialect as LintDialect;

use squ_dialect::Dialect;
use squ_lexer::{tokenize, Span, TokenKind};
use squ_parser::{parse, ParseError};
use squ_schema::{analyze_statement, ResolutionSignature, Schema};

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Stable rule code (`SQU0xx`).
    pub code: &'static str,
    /// Severity (fixed per code).
    pub severity: Severity,
    /// Byte span in the analyzed SQL, when the source position is known.
    pub span: Option<Span>,
    /// Human-readable explanation.
    pub message: String,
}

impl LintDiagnostic {
    /// Does this diagnostic's span overlap the half-open byte range
    /// `[start, end)`? `false` when the diagnostic carries no span.
    pub fn overlaps(&self, start: usize, end: usize) -> bool {
        match self.span {
            Some(s) => s.start < end && start < s.end,
            None => false,
        }
    }
}

/// Everything one [`lint`] pass produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// All findings, in pipeline order (lex, parse, then binder).
    pub diagnostics: Vec<LintDiagnostic>,
    /// Resolution signature of the statement; `None` when it did not parse.
    pub resolution: Option<ResolutionSignature>,
}

impl LintReport {
    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &LintDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// True when no error-severity finding exists (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }
}

/// Analyze one SQL statement against `schema` through the whole pipeline.
///
/// Stops at the first failing layer: a lexical error yields a single
/// `SQU001`, a structural parse error a single `SQU002`, nesting past the
/// parser's limit a single `SQU003`; otherwise the
/// binder runs and its diagnostics are mapped to their stable codes, then
/// the style advisories (`SQU1xx`) are appended.
pub fn lint(sql: &str, schema: &Schema) -> LintReport {
    let mut report = LintReport::default();

    let stmt = match parse(sql) {
        Ok(s) => s,
        Err(ParseError::Lex(e)) => {
            let at = e.offset().min(sql.len());
            report.diagnostics.push(LintDiagnostic {
                code: "SQU001",
                severity: Severity::Error,
                span: Some(Span::new(at, sql.len())),
                message: format!("lex error: {e}"),
            });
            return report;
        }
        Err(e) => {
            // The text lexed, so its tokens place the failure: at the
            // reported word's first token, or at end of input for EOF
            // errors.
            let span = e.word_index().and_then(|wi| {
                tokenize(sql)
                    .ok()?
                    .into_iter()
                    .find(|t| t.word_index == wi)
                    .map(|t| t.span)
            });
            let span = span.or_else(|| {
                matches!(e, ParseError::UnexpectedEof { .. })
                    .then(|| Span::new(sql.len(), sql.len()))
            });
            report.diagnostics.push(LintDiagnostic {
                code: match e {
                    ParseError::TooDeep { .. } => "SQU003",
                    _ => "SQU002",
                },
                severity: Severity::Error,
                span,
                message: format!("parse error: {e}"),
            });
            return report;
        }
    };

    let analysis = analyze_statement(&stmt, schema);
    for d in analysis.diagnostics {
        report.diagnostics.push(LintDiagnostic {
            code: d.kind.code(),
            severity: Severity::Error,
            span: d.span,
            message: d.message,
        });
    }
    report.resolution = Some(analysis.resolution);

    advisories(&stmt, &mut report.diagnostics);

    // semantic advisories run only on queries the binder fully resolved:
    // sema's assumptions (id-column NOT NULL, table shapes) are only
    // meaningful for bound names
    if report.is_clean() {
        if let Some(analysis) = squ_sema::analyze_statement(&stmt, schema) {
            for f in analysis.findings {
                report.diagnostics.push(LintDiagnostic {
                    code: f.code,
                    severity: Severity::Warning,
                    span: f.span,
                    message: f.message,
                });
            }
        }
    }
    report
}

/// [`lint`], then check the SQL's *dialect conformance*: the statement is
/// analyzed through the permissive Squ pipeline as usual, and any
/// construct the target `dialect` would not accept — a foreign quote
/// style, an unsupported `LIMIT`/`TOP` form, a function spelling outside
/// the dialect's catalog, an identifier colliding with one of its
/// reserved words — is reported as an `SQU12x` warning. With
/// `Dialect::Squ` this is exactly [`lint`].
pub fn lint_dialect(sql: &str, schema: &Schema, dialect: Dialect) -> LintReport {
    let mut report = lint(sql, schema);
    if dialect == Dialect::Squ {
        return report;
    }
    dialect_advisories(sql, dialect, &mut report.diagnostics);
    report
}

/// Append the `SQU12x` dialect-conformance advisories for `dialect`.
fn dialect_advisories(sql: &str, dialect: Dialect, out: &mut Vec<LintDiagnostic>) {
    let Ok(tokens) = tokenize(sql) else {
        return; // a lex error is already an SQU001 in the report
    };
    for t in &tokens {
        let span = Some(t.span);
        match &t.kind {
            TokenKind::QuotedIdent => {
                let open = sql[t.span.start..].chars().next().unwrap_or('"');
                if !dialect.accepts_quote(open) {
                    out.push(LintDiagnostic {
                        code: "SQU120",
                        severity: Severity::Warning,
                        span,
                        message: format!(
                            "{open}…-quoted identifier is not valid in {}",
                            dialect.name()
                        ),
                    });
                }
            }
            TokenKind::Keyword(squ_lexer::Keyword::Limit) if !dialect.supports_limit() => {
                out.push(LintDiagnostic {
                    code: "SQU121",
                    severity: Severity::Warning,
                    span,
                    message: format!("{} has no LIMIT clause (use TOP)", dialect.name()),
                });
            }
            TokenKind::Keyword(squ_lexer::Keyword::Top) if !dialect.supports_top() => {
                out.push(LintDiagnostic {
                    code: "SQU121",
                    severity: Severity::Warning,
                    span,
                    message: format!("{} has no TOP clause (use LIMIT)", dialect.name()),
                });
            }
            TokenKind::Ident if dialect.is_reserved(&t.text) => {
                out.push(LintDiagnostic {
                    code: "SQU123",
                    severity: Severity::Warning,
                    span,
                    message: format!(
                        "identifier {:?} is a reserved word in {}",
                        t.text,
                        dialect.name()
                    ),
                });
            }
            _ => {}
        }
        // a function call is an identifier-or-keyword token directly
        // followed by `(`; check its spelling against the catalog
        if matches!(t.kind, TokenKind::Ident | TokenKind::Keyword(_)) {
            let is_call = tokens
                .iter()
                .find(|n| n.span.start >= t.span.end)
                .is_some_and(|n| n.kind == TokenKind::LParen);
            if is_call
                && squ_dialect::lookup_function(&t.text).is_some()
                && !dialect.knows_function(&t.text)
            {
                out.push(LintDiagnostic {
                    code: "SQU122",
                    severity: Severity::Warning,
                    span: Some(t.span),
                    message: format!(
                        "{} spells this function {:?}",
                        dialect.name(),
                        dialect.function_spelling(&t.text).unwrap_or("differently")
                    ),
                });
            }
        }
    }
}

/// Append the `SQU1xx` style advisories for a parsed statement.
fn advisories(stmt: &squ_parser::Statement, out: &mut Vec<LintDiagnostic>) {
    use squ_parser::{SelectItem, SetExpr};
    squ_parser::visit::walk_queries(stmt, &mut |q, _| {
        let span = if q.span.is_empty() {
            None
        } else {
            Some(q.span)
        };
        if let SetExpr::Select(s) = &q.body {
            if s.items.iter().any(|i| matches!(i, SelectItem::Wildcard)) {
                out.push(LintDiagnostic {
                    code: "SQU100",
                    severity: Severity::Warning,
                    span,
                    message: "SELECT * makes the output shape depend on the schema".into(),
                });
            }
            if s.from.len() > 1 {
                out.push(LintDiagnostic {
                    code: "SQU101",
                    severity: Severity::Warning,
                    span,
                    message: format!(
                        "implicit cross join of {} comma-separated FROM items",
                        s.from.len()
                    ),
                });
            }
            let has_limit = q.limit.is_some() || s.top.is_some();
            if has_limit && q.order_by.is_empty() {
                out.push(LintDiagnostic {
                    code: "SQU102",
                    severity: Severity::Warning,
                    span,
                    message: "LIMIT/TOP without ORDER BY picks rows non-deterministically".into(),
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use squ_schema::schemas::sdss;

    fn codes(sql: &str) -> Vec<&'static str> {
        lint(sql, &sdss())
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_query_is_clean() {
        let r = lint("SELECT plate, mjd FROM SpecObj WHERE z > 0.5", &sdss());
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert!(r.resolution.is_some());
    }

    #[test]
    fn lex_error_reports_squ001_at_offset() {
        let r = lint("SELECT plate FROM SpecObj WHERE class = 'GAL", &sdss());
        let d = &r.diagnostics[0];
        assert_eq!(d.code, "SQU001");
        assert_eq!(d.span.map(|s| s.start), Some(40));
    }

    #[test]
    fn parse_error_reports_squ002_with_span() {
        let sql = "SELECT plate FROM WHERE z > 1";
        let r = lint(sql, &sdss());
        let d = &r.diagnostics[0];
        assert_eq!(d.code, "SQU002");
        let span = d.span.expect("parse errors at a token carry a span");
        assert_eq!(span.slice(sql), "WHERE");
    }

    #[test]
    fn eof_parse_error_spans_end_of_input() {
        let sql = "SELECT plate FROM";
        let r = lint(sql, &sdss());
        let d = &r.diagnostics[0];
        assert_eq!(d.code, "SQU002");
        assert_eq!(d.span, Some(Span::new(sql.len(), sql.len())));
    }

    #[test]
    fn binder_diagnostics_carry_codes_and_spans() {
        let sql = "SELECT plate, mjd, COUNT(*) FROM SpecObj";
        let r = lint(sql, &sdss());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "SQU020")
            .expect("aggr-attr diagnostic");
        assert_eq!(d.span.map(|s| s.slice(sql)), Some("plate"));
    }

    #[test]
    fn advisories_are_warnings() {
        let sql = "SELECT * FROM SpecObj, PhotoObj";
        let r = lint(sql, &sdss());
        let cs = codes(sql);
        assert!(cs.contains(&"SQU100"), "{cs:?}");
        assert!(cs.contains(&"SQU101"), "{cs:?}");
        // warnings never make a query unclean by themselves… but the
        // implicit cross join also trips an ambiguity here, so check a
        // simpler one for cleanliness
        let r2 = lint("SELECT TOP 5 * FROM SpecObj", &sdss());
        assert!(r2.is_clean(), "{:?}", r2.diagnostics);
        assert!(r2.diagnostics.iter().any(|d| d.code == "SQU100"));
        assert!(r2.diagnostics.iter().any(|d| d.code == "SQU102"));
        drop(r);
    }

    #[test]
    fn every_emitted_code_is_registered() {
        for sql in [
            "SELECT plate FROM SpecObj WHERE class = 'GAL",
            "SELECT plate FROM WHERE",
            "SELECT x FROM NoSuchTable",
            "SELECT nosuch FROM SpecObj",
            "SELECT plate, COUNT(*) FROM SpecObj",
            "SELECT * FROM SpecObj, PhotoObj LIMIT 3",
        ] {
            for d in lint(sql, &sdss()).diagnostics {
                let info = rule(d.code).unwrap_or_else(|| panic!("unregistered {}", d.code));
                assert_eq!(info.severity, d.severity, "{}", d.code);
            }
        }
    }

    #[test]
    fn dialect_advisories_squ12x() {
        // wrong quote style for the target dialect
        let sql = r#"SELECT "weird name" FROM SpecObj"#;
        let r = lint_dialect(sql, &sdss(), Dialect::Mysql);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "SQU120")
            .expect("quote-style advisory");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.map(|s| s.slice(sql)), Some("\"weird name\""));

        // LIMIT where the dialect wants TOP, and vice versa
        let r = lint_dialect(
            "SELECT plate FROM SpecObj ORDER BY plate ASC LIMIT 5",
            &sdss(),
            Dialect::Tsql,
        );
        assert!(r.diagnostics.iter().any(|d| d.code == "SQU121"));
        let r = lint_dialect("SELECT TOP 5 plate FROM SpecObj", &sdss(), Dialect::Sqlite);
        assert!(r.diagnostics.iter().any(|d| d.code == "SQU121"));

        // a catalog function under a spelling the dialect lacks
        let sql = "SELECT plate FROM SpecObj WHERE LEN(class) > 3";
        let r = lint_dialect(sql, &sdss(), Dialect::Postgres);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "SQU122")
            .expect("function-spelling advisory");
        assert!(d.message.contains("LENGTH"), "{}", d.message);

        // reserved-word collision
        let r = lint_dialect("SELECT rank FROM SpecObj", &sdss(), Dialect::Mysql);
        assert!(r.diagnostics.iter().any(|d| d.code == "SQU123"));

        // all SQU12x are warnings: the report stays clean
        assert!(r.errors().next().map(|d| d.code) != Some("SQU123"));
    }

    #[test]
    fn squ_dialect_lint_is_plain_lint() {
        let sql = "SELECT TOP 5 \"weird\" FROM SpecObj WHERE LEN(class) > 3";
        let a = lint(sql, &sdss());
        let b = lint_dialect(sql, &sdss(), Dialect::Squ);
        assert_eq!(a.diagnostics, b.diagnostics);
    }

    #[test]
    fn overlap_predicate() {
        let d = LintDiagnostic {
            code: "SQU011",
            severity: Severity::Error,
            span: Some(Span::new(10, 15)),
            message: String::new(),
        };
        assert!(d.overlaps(12, 13));
        assert!(d.overlaps(0, 11));
        assert!(!d.overlaps(15, 20));
        assert!(!d.overlaps(0, 10));
    }
}
