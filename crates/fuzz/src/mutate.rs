//! Token-level mutation and lexer span-consistency checking.
//!
//! The round-trip oracle's second half: take a known-good query, knock a
//! token out (or duplicate / swap tokens), and check that the *lexer* still
//! tells the truth about the mutant — spans in bounds, non-overlapping,
//! ordered, and slicing the source at them reconstructs the token stream.
//! If the mutant happens to still parse, the full print/parse round-trip
//! law must hold for it too.

use rand::rngs::StdRng;
use rand::Rng;
use squ_lexer::{tokenize, tokenize_lossy, Span};

/// A mutant derived from a valid query's token stream.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// Which edit produced it.
    pub kind: &'static str,
    /// The mutated SQL text.
    pub sql: String,
}

/// Slice `src` at the token spans of its (lossless) tokenization.
///
/// Uses spans, not `Token::text`: the lexer normalizes quoted identifiers
/// and string literals, so `text` is *not* the source bytes.
fn token_slices(src: &str) -> Option<Vec<Span>> {
    tokenize(src)
        .ok()
        .map(|ts| ts.iter().map(|t| t.span).collect())
}

/// Build up to `max` deterministic token-level mutants of `sql`.
///
/// Returns an empty vector when the query has too few tokens to mutate
/// meaningfully.
pub fn mutants_of(sql: &str, rng: &mut StdRng, max: usize) -> Vec<Mutant> {
    let spans = match token_slices(sql) {
        Some(s) if s.len() >= 2 => s,
        _ => return Vec::new(),
    };
    let mut out = Vec::with_capacity(max);
    for _ in 0..max {
        let kind = match rng.gen_range(0..3u32) {
            0 => "delete",
            1 => "duplicate",
            _ => "swap",
        };
        let sql = match kind {
            "delete" => {
                let i = rng.gen_range(0..spans.len());
                rebuild(
                    sql,
                    &spans,
                    |j| if j == i { Edit::Drop } else { Edit::Keep },
                )
            }
            "duplicate" => {
                let i = rng.gen_range(0..spans.len());
                rebuild(
                    sql,
                    &spans,
                    |j| if j == i { Edit::Double } else { Edit::Keep },
                )
            }
            _ => {
                let i = rng.gen_range(0..spans.len() - 1);
                let mut pieces: Vec<&str> = spans.iter().map(|s| s.slice(sql)).collect();
                pieces.swap(i, i + 1);
                pieces.join(" ")
            }
        };
        out.push(Mutant { kind, sql });
    }
    out
}

enum Edit {
    Keep,
    Drop,
    Double,
}

fn rebuild<F: Fn(usize) -> Edit>(src: &str, spans: &[Span], f: F) -> String {
    let mut pieces: Vec<&str> = Vec::with_capacity(spans.len() + 1);
    for (j, s) in spans.iter().enumerate() {
        match f(j) {
            Edit::Keep => pieces.push(s.slice(src)),
            Edit::Drop => {}
            Edit::Double => {
                pieces.push(s.slice(src));
                pieces.push(s.slice(src));
            }
        }
    }
    pieces.join(" ")
}

/// Check the lexer's span contract on arbitrary input: every reported span
/// (from the lossy tokenizer, which never refuses input) must be in bounds,
/// start on char boundaries, be non-empty, strictly ordered, and
/// non-overlapping. Returns a description of the first violation.
pub fn check_span_consistency(src: &str) -> Result<(), String> {
    let (tokens, _errors) = tokenize_lossy(src);
    let mut prev_end = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        let Span { start, end } = t.span;
        if start >= end {
            return Err(format!("token {i}: empty or inverted span {start}..{end}"));
        }
        if end > src.len() {
            return Err(format!(
                "token {i}: span {start}..{end} exceeds input length {}",
                src.len()
            ));
        }
        if !src.is_char_boundary(start) || !src.is_char_boundary(end) {
            return Err(format!(
                "token {i}: span {start}..{end} not on char boundaries"
            ));
        }
        if start < prev_end {
            return Err(format!(
                "token {i}: span {start}..{end} overlaps previous token ending at {prev_end}"
            ));
        }
        prev_end = end;
    }
    Ok(())
}

/// Check that the token span slices of `src`, concatenated with the
/// inter-token gaps, reproduce `src` exactly.
pub fn check_reconstruction(src: &str) -> Result<(), String> {
    let (tokens, _errors) = tokenize_lossy(src);
    let mut rebuilt = String::with_capacity(src.len());
    let mut cursor = 0usize;
    for t in &tokens {
        let Span { start, end } = t.span;
        if start < cursor || end > src.len() || !src.is_char_boundary(start) {
            return Err(format!("span {start}..{end} unusable from cursor {cursor}"));
        }
        rebuilt.push_str(&src[cursor..start]);
        rebuilt.push_str(&src[start..end]);
        cursor = end;
    }
    rebuilt.push_str(&src[cursor..]);
    if rebuilt != src {
        return Err("token spans plus gaps do not reconstruct the input".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mutants_are_deterministic_for_a_seed() {
        let sql = "SELECT a, b FROM t WHERE a > 3 ORDER BY b";
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let m1: Vec<String> = mutants_of(sql, &mut r1, 4)
            .into_iter()
            .map(|m| m.sql)
            .collect();
        let m2: Vec<String> = mutants_of(sql, &mut r2, 4)
            .into_iter()
            .map(|m| m.sql)
            .collect();
        assert_eq!(m1, m2);
        assert_eq!(m1.len(), 4);
        for m in &m1 {
            assert_ne!(m, sql);
        }
    }

    #[test]
    fn span_checks_hold_on_ordinary_sql() {
        let sql = "SELECT \"quoted id\", 'str''esc' FROM t -- tail";
        check_span_consistency(sql).unwrap();
        check_reconstruction(sql).unwrap();
    }

    #[test]
    fn span_checks_hold_on_junk() {
        for junk in [
            "###@@@!!!",
            "SELECT \u{1F600} FROM \u{00E9}t",
            "",
            "   ",
            "'unterminated",
        ] {
            check_span_consistency(junk).unwrap();
            check_reconstruction(junk).unwrap();
        }
    }
}
