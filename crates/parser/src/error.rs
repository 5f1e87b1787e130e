use squ_lexer::LexError;
use std::fmt;

/// A parse error: either a lexical failure or a structural one.
///
/// Structural errors report *what* was expected, *what* was found, and the
/// word index at which parsing stopped — the same coordinate system the
/// benchmark's `miss_token_loc` task uses, so a baseline "parser oracle" can
/// be compared against LLM answers directly.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// The parser expected something else at this point.
    Unexpected {
        /// Human-readable description of what was expected.
        expected: String,
        /// What was actually found (token text, or "end of input").
        found: String,
        /// Word index (whitespace-word position) of the offending token.
        word_index: usize,
    },
    /// Input ended before the statement was complete.
    UnexpectedEof {
        /// What was expected next.
        expected: String,
    },
    /// Extra tokens remained after a complete statement.
    TrailingTokens {
        /// Text of the first trailing token.
        found: String,
        /// Its word index.
        word_index: usize,
    },
    /// The statement nests deeper than the parser's limit
    /// ([`crate::MAX_NESTING`]).
    TooDeep {
        /// The nesting limit.
        limit: usize,
        /// Word index of the token that opened the level past the limit.
        word_index: usize,
    },
}

impl ParseError {
    /// Word index at which the error occurred, when known.
    pub fn word_index(&self) -> Option<usize> {
        match self {
            ParseError::Unexpected { word_index, .. }
            | ParseError::TrailingTokens { word_index, .. }
            | ParseError::TooDeep { word_index, .. } => Some(*word_index),
            _ => None,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lex error: {e}"),
            ParseError::Unexpected {
                expected,
                found,
                word_index,
            } => write!(
                f,
                "expected {expected}, found {found:?} at word {word_index}"
            ),
            ParseError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseError::TrailingTokens { found, word_index } => {
                write!(
                    f,
                    "unexpected trailing token {found:?} at word {word_index}"
                )
            }
            ParseError::TooDeep { limit, word_index } => {
                write!(f, "nesting deeper than {limit} levels at word {word_index}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}
