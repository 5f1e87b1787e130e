use crate::{
    token::{CompareOp, Span, Token, TokenKind},
    words::WordCursor,
    Keyword, LexError,
};
use squ_dialect::Dialect;

/// Streaming SQL lexer over a source string.
///
/// Most callers use the convenience functions [`tokenize`] /
/// [`tokenize_lossy`]; the struct form exists for incremental use and for
/// tests that want to observe errors mid-stream. Dialect differences that
/// live at the token level — which identifier quotes are legal, whether
/// `#` opens a line comment or continues a word — come from the
/// [`Dialect`] matrix; [`Lexer::new`] keeps the permissive
/// [`Dialect::Squ`] union behavior.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    dialect: Dialect,
    words: WordCursor,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src` in the default [`Dialect::Squ`].
    pub fn new(src: &'a str) -> Self {
        Lexer::with_dialect(src, Dialect::Squ)
    }

    /// Create a lexer over `src` with `dialect` token rules.
    pub fn with_dialect(src: &'a str, dialect: Dialect) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            dialect,
            words: WordCursor::default(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Skip whitespace and comments. Returns an error only for an
    /// unterminated block comment.
    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    // line comment
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'#') if self.dialect.hash_line_comments() => {
                    // MySQL-style `#` line comment (never a word sigil
                    // there, so this cannot shadow `#temp` identifiers)
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.pos += 2;
                                break;
                            }
                            Some(_) => self.pos += 1,
                            None => return Err(LexError::UnterminatedComment { start }),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lex the next token, or `Ok(None)` at end of input.
    pub fn next_token(&mut self) -> Result<Option<Token>, LexError> {
        self.skip_trivia()?;
        let start = self.pos;
        let b = match self.peek() {
            Some(b) => b,
            None => return Ok(None),
        };

        let kind_text: (TokenKind, String) = match b {
            b'\'' => self.lex_string(start)?,
            b'"' if self.dialect.accepts_quote('"') => self.lex_quoted_ident(start, b'"', b'"')?,
            b'[' if self.dialect.accepts_quote('[') => self.lex_quoted_ident(start, b'[', b']')?,
            b'`' if self.dialect.accepts_quote('`') => self.lex_quoted_ident(start, b'`', b'`')?,
            b'0'..=b'9' => self.lex_number(start)?,
            b'.' if self.peek2().is_some_and(|c| c.is_ascii_digit()) => self.lex_number(start)?,
            b'.' => {
                self.pos += 1;
                (TokenKind::Dot, ".".to_string())
            }
            b',' => {
                self.pos += 1;
                (TokenKind::Comma, ",".to_string())
            }
            b';' => {
                self.pos += 1;
                (TokenKind::Semicolon, ";".to_string())
            }
            b'(' => {
                self.pos += 1;
                (TokenKind::LParen, "(".to_string())
            }
            b')' => {
                self.pos += 1;
                (TokenKind::RParen, ")".to_string())
            }
            b'+' | b'-' | b'*' | b'/' | b'%' => {
                self.pos += 1;
                (TokenKind::ArithOp(b as char), (b as char).to_string())
            }
            b'|' if self.peek2() == Some(b'|') => {
                self.pos += 2;
                (TokenKind::Concat, "||".to_string())
            }
            b'=' => {
                self.pos += 1;
                (TokenKind::CompareOp(CompareOp::Eq), "=".to_string())
            }
            b'!' if self.peek2() == Some(b'=') => {
                self.pos += 2;
                (TokenKind::CompareOp(CompareOp::NotEq), "!=".to_string())
            }
            b'<' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => {
                        self.pos += 1;
                        (TokenKind::CompareOp(CompareOp::LtEq), "<=".to_string())
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        (TokenKind::CompareOp(CompareOp::NotEq), "<>".to_string())
                    }
                    _ => (TokenKind::CompareOp(CompareOp::Lt), "<".to_string()),
                }
            }
            b'>' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    (TokenKind::CompareOp(CompareOp::GtEq), ">=".to_string())
                } else {
                    (TokenKind::CompareOp(CompareOp::Gt), ">".to_string())
                }
            }
            b if b.is_ascii_alphabetic()
                || b == b'_'
                || ((b == b'#' || b == b'@') && self.dialect.word_sigils()) =>
            {
                self.lex_word(start)
            }
            other => {
                // Recover the full char for a useful error (src is valid UTF-8).
                let ch = self.src[start..].chars().next().unwrap_or(other as char);
                self.pos += ch.len_utf8();
                return Err(LexError::UnexpectedChar { ch, offset: start });
            }
        };

        let (kind, text) = kind_text;
        Ok(Some(Token {
            kind,
            text,
            span: Span::new(start, self.pos),
            word_index: self.words.index_at(self.src, start),
        }))
    }

    fn lex_word(&mut self, start: usize) -> (TokenKind, String) {
        let sigils = self.dialect.word_sigils();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric()
                || b == b'_'
                || (sigils && (b == b'#' || b == b'@' || b == b'$'))
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        match Keyword::from_str_ci(text) {
            Some(kw) => (TokenKind::Keyword(kw), text.to_string()),
            None => (TokenKind::Ident, text.to_string()),
        }
    }

    fn lex_string(&mut self, start: usize) -> Result<(TokenKind, String), LexError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'\'') => {
                    // '' is an escaped quote
                    if self.peek() == Some(b'\'') {
                        self.pos += 1;
                        out.push('\'');
                    } else {
                        return Ok((TokenKind::String, out));
                    }
                }
                Some(b) => out.push(b as char),
                None => return Err(LexError::UnterminatedString { start }),
            }
        }
    }

    fn lex_quoted_ident(
        &mut self,
        start: usize,
        _open: u8,
        close: u8,
    ) -> Result<(TokenKind, String), LexError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b) if b == close => return Ok((TokenKind::QuotedIdent, out)),
                Some(b) => out.push(b as char),
                None => return Err(LexError::UnterminatedQuotedIdent { start }),
            }
        }
    }

    fn lex_number(&mut self, start: usize) -> Result<(TokenKind, String), LexError> {
        let mut seen_dot = false;
        let mut seen_exp = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !seen_dot && !seen_exp => {
                    // Don't absorb a dot that starts a qualified name like
                    // `1.x` — only continue if a digit follows.
                    if self.peek2().is_some_and(|c| c.is_ascii_digit())
                        || !seen_digit_after(&self.bytes[start..self.pos])
                    {
                        seen_dot = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                b'e' | b'E' if !seen_exp => {
                    let next = self.peek2();
                    let next2 = self.bytes.get(self.pos + 2).copied();
                    let exp_ok = matches!(next, Some(c) if c.is_ascii_digit())
                        || (matches!(next, Some(b'+') | Some(b'-'))
                            && matches!(next2, Some(c) if c.is_ascii_digit()));
                    if exp_ok {
                        seen_exp = true;
                        self.pos += 1; // e
                        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                            self.pos += 1;
                        }
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) => Ok((TokenKind::Number(v), text.to_string())),
            Err(_) => Err(LexError::MalformedNumber {
                text: text.to_string(),
                offset: start,
            }),
        }
    }
}

fn seen_digit_after(prefix: &[u8]) -> bool {
    // helper used while deciding whether `.` continues a number: if we have
    // already consumed at least one digit, a bare trailing dot like `1.` is
    // still a valid float in SQL.
    prefix.iter().any(|b| b.is_ascii_digit())
}

impl Iterator for Lexer<'_> {
    type Item = Result<Token, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_token().transpose()
    }
}

/// Tokenize `src` fully in [`Dialect::Squ`], failing on the first
/// lexical error.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    tokenize_dialect(src, Dialect::Squ)
}

/// Tokenize `src` fully under `dialect` token rules, failing on the
/// first lexical error.
pub fn tokenize_dialect(src: &str, dialect: Dialect) -> Result<Vec<Token>, LexError> {
    Lexer::with_dialect(src, dialect).collect()
}

/// Tokenize `src`, skipping unlexable bytes instead of failing.
///
/// Used when the pipeline must make progress on deliberately-corrupted SQL
/// (the benchmark's error-injected corpora): returns all tokens that *can*
/// be produced plus the list of errors encountered.
pub fn tokenize_lossy(src: &str) -> (Vec<Token>, Vec<LexError>) {
    tokenize_lossy_dialect(src, Dialect::Squ)
}

/// [`tokenize_lossy`] under `dialect` token rules.
pub fn tokenize_lossy_dialect(src: &str, dialect: Dialect) -> (Vec<Token>, Vec<LexError>) {
    let mut lx = Lexer::with_dialect(src, dialect);
    let mut toks = Vec::new();
    let mut errs = Vec::new();
    loop {
        match lx.next_token() {
            Ok(Some(t)) => toks.push(t),
            Ok(None) => break,
            Err(e) => {
                // `next_token` already advanced past the offending char for
                // UnexpectedChar; for unterminated constructs we are at EOF.
                errs.push(e.clone());
                match e {
                    LexError::UnexpectedChar { .. } => continue,
                    _ => break,
                }
            }
        }
    }
    (toks, errs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_select() {
        let toks = tokenize("SELECT plate, mjd FROM SpecObj WHERE z > 0.5").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Keyword(Keyword::Select));
        assert_eq!(toks[1].text, "plate");
        assert_eq!(toks[2].kind, TokenKind::Comma);
        assert_eq!(toks[3].text, "mjd");
        assert_eq!(toks[4].kind, TokenKind::Keyword(Keyword::From));
        assert_eq!(toks[5].text, "SpecObj");
        assert_eq!(toks.last().unwrap().kind, TokenKind::Number(0.5));
    }

    #[test]
    fn word_indices_track_whitespace_words() {
        let toks = tokenize("SELECT s.plate FROM SpecObj AS s").unwrap();
        // "s.plate" is one word made of three tokens
        let s_tok = &toks[1];
        let dot = &toks[2];
        let plate = &toks[3];
        assert_eq!(s_tok.word_index, 1);
        assert_eq!(dot.word_index, 1);
        assert_eq!(plate.word_index, 1);
        assert_eq!(toks[4].word_index, 2); // FROM
    }

    #[test]
    fn operators() {
        let k = kinds("a = b <> c != d < e <= f > g >= h");
        let ops: Vec<_> = k
            .into_iter()
            .filter_map(|k| match k {
                TokenKind::CompareOp(op) => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                CompareOp::Eq,
                CompareOp::NotEq,
                CompareOp::NotEq,
                CompareOp::Lt,
                CompareOp::LtEq,
                CompareOp::Gt,
                CompareOp::GtEq
            ]
        );
    }

    #[test]
    fn string_literals_and_escapes() {
        let toks = tokenize("WHERE name = 'volvo'").unwrap();
        assert_eq!(toks[3].kind, TokenKind::String);
        assert_eq!(toks[3].text, "volvo");
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks[0].text, "it's");
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize(r#"SELECT "weird name", [bracketed] FROM t"#).unwrap();
        assert_eq!(toks[1].kind, TokenKind::QuotedIdent);
        assert_eq!(toks[1].text, "weird name");
        assert_eq!(toks[3].kind, TokenKind::QuotedIdent);
        assert_eq!(toks[3].text, "bracketed");
    }

    #[test]
    fn numbers() {
        let toks = tokenize("1 2.5 0.5 1e3 1.5e-2 .25").unwrap();
        let vals: Vec<f64> = toks
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Number(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(vals, vec![1.0, 2.5, 0.5, 1000.0, 0.015, 0.25]);
    }

    #[test]
    fn qualified_number_dot_ident_not_absorbed() {
        // `p.ra` after a number: ensure `1.x` doesn't swallow the dot badly
        let toks = tokenize("SELECT 1, p.ra FROM t AS p").unwrap();
        assert!(toks.iter().any(|t| t.text == "ra"));
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT x -- trailing\nFROM t /* block */ WHERE y = 1").unwrap();
        let texts: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["SELECT", "x", "FROM", "t", "WHERE", "y", "=", "1"]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(matches!(
            tokenize("SELECT 'oops"),
            Err(LexError::UnterminatedString { .. })
        ));
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(matches!(
            tokenize("SELECT /* oops"),
            Err(LexError::UnterminatedComment { .. })
        ));
    }

    #[test]
    fn unexpected_char_is_error_and_lossy_recovers() {
        assert!(matches!(
            tokenize("SELECT ? FROM t"),
            Err(LexError::UnexpectedChar { ch: '?', .. })
        ));
        let (toks, errs) = tokenize_lossy("SELECT ? FROM t");
        assert_eq!(errs.len(), 1);
        let texts: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["SELECT", "FROM", "t"]);
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(tokenize("").unwrap().is_empty());
        assert!(tokenize("   \n\t ").unwrap().is_empty());
    }

    #[test]
    fn semicolon_and_concat() {
        let k = kinds("a || b;");
        assert!(k.contains(&TokenKind::Concat));
        assert!(k.contains(&TokenKind::Semicolon));
    }

    #[test]
    fn dialect_quote_rules() {
        // backtick quoting is a MySQL/SQLite thing, rejected elsewhere
        let toks = tokenize_dialect("SELECT `weird name` FROM t", Dialect::Mysql).unwrap();
        assert_eq!(toks[1].kind, TokenKind::QuotedIdent);
        assert_eq!(toks[1].text, "weird name");
        assert!(tokenize("SELECT `x` FROM t").is_err());
        assert!(tokenize_dialect("SELECT `x` FROM t", Dialect::Postgres).is_err());
        // brackets are Squ/SQLite/T-SQL, not Postgres or MySQL
        assert!(tokenize_dialect("SELECT [x] FROM t", Dialect::Tsql).is_ok());
        assert!(tokenize_dialect("SELECT [x] FROM t", Dialect::Postgres).is_err());
        // double quotes are everywhere except MySQL
        assert!(tokenize_dialect(r#"SELECT "x" FROM t"#, Dialect::Postgres).is_ok());
        assert!(tokenize_dialect(r#"SELECT "x" FROM t"#, Dialect::Mysql).is_err());
    }

    #[test]
    fn dialect_hash_comments_and_word_sigils() {
        // `#` opens a line comment only in MySQL
        let toks = tokenize_dialect("SELECT x # trailing\nFROM t", Dialect::Mysql).unwrap();
        let texts: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["SELECT", "x", "FROM", "t"]);
        // in Squ and T-SQL, `#` starts a word (CasJobs temp tables)
        for d in [Dialect::Squ, Dialect::Tsql] {
            let toks = tokenize_dialect("SELECT a FROM #tmp", d).unwrap();
            assert_eq!(toks.last().unwrap().text, "#tmp");
        }
        // elsewhere `#` is simply an unexpected character
        assert!(matches!(
            tokenize_dialect("SELECT a FROM #tmp", Dialect::Postgres),
            Err(LexError::UnexpectedChar { ch: '#', .. })
        ));
    }

    #[test]
    fn squ_dialect_is_the_default_behavior() {
        let src = r#"SELECT "a", [b], #t, @v FROM x -- c"#;
        let default = tokenize(src).unwrap();
        let explicit = tokenize_dialect(src, Dialect::Squ).unwrap();
        assert_eq!(default, explicit);
    }

    #[test]
    fn spans_reconstruct_source_tokens() {
        let src = "SELECT  plate ,mjd FROM SpecObj";
        for t in tokenize(src).unwrap() {
            match t.kind {
                TokenKind::String | TokenKind::QuotedIdent => {}
                _ => assert_eq!(t.span.slice(src), t.text),
            }
        }
    }
}
