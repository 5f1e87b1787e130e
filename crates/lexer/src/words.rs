//! Word-level accounting.
//!
//! The paper measures query length and token positions in *words* —
//! whitespace-separated chunks of the raw SQL text (`word_count`,
//! `char_count`, and the "word count position" answer format of
//! `miss_token_loc`). These helpers define that unit once so the lexer,
//! property extraction, and task generators all agree.

/// Split SQL into its whitespace-separated words, preserving order.
pub fn words(sql: &str) -> Vec<&str> {
    sql.split_whitespace().collect()
}

/// Number of whitespace-separated words (the paper's `word_count`).
pub fn word_count(sql: &str) -> usize {
    sql.split_whitespace().count()
}

/// Number of characters (the paper's `char_count`). Counted in Unicode
/// scalar values; workload queries are ASCII so this equals byte length
/// there, but the definition stays correct for arbitrary input.
pub fn char_count(sql: &str) -> usize {
    sql.chars().count()
}

/// The 0-based word index containing byte offset `byte`, or the index of the
/// nearest following word when `byte` falls in whitespace. Offsets past the
/// end map to the word count (i.e. "after the last word").
pub fn word_index_at(sql: &str, byte: usize) -> usize {
    WordCursor::default().index_at(sql, byte)
}

/// [`word_index_at`] over one text at non-decreasing offsets, scanning
/// each byte once however many offsets are asked (the lexer asks once
/// per token).
#[derive(Debug, Default)]
pub(crate) struct WordCursor {
    /// Offset scanned up to.
    at: usize,
    /// Words started before `at`.
    started: usize,
    /// Does the text before `at` end inside a word?
    in_word: bool,
}

impl WordCursor {
    /// The word index at `byte`, which must not precede the previous
    /// call's.
    pub(crate) fn index_at(&mut self, sql: &str, byte: usize) -> usize {
        let byte = byte.min(sql.len()).max(self.at);
        for c in sql[self.at..byte].chars() {
            let ws = c.is_whitespace();
            self.started += usize::from(!ws && !self.in_word);
            self.in_word = !ws;
        }
        self.at = byte;
        let at_non_ws = sql[byte..]
            .chars()
            .next()
            .is_some_and(|c| !c.is_whitespace());
        if at_non_ws && self.in_word {
            // `byte` continues the word that already started before it.
            self.started - 1
        } else {
            self.started
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition by whole-prefix word counting, which the cursor
    /// computes incrementally.
    fn by_prefix(sql: &str, byte: usize) -> usize {
        let byte = byte.min(sql.len());
        let prefix = &sql[..byte];
        let started = prefix.split_whitespace().count();
        let at_non_ws = sql[byte..]
            .chars()
            .next()
            .is_some_and(|c| !c.is_whitespace());
        let prefix_ends_in_word = prefix
            .chars()
            .next_back()
            .is_some_and(|c| !c.is_whitespace());
        started - usize::from(at_non_ws && prefix_ends_in_word)
    }

    #[test]
    fn one_cursor_agrees_with_prefix_counting_at_every_offset() {
        for s in [
            "SELECT plate FROM SpecObj",
            "  a  b\t\nc ",
            "((x))  é\u{2003}é",
            "",
        ] {
            let mut cursor = WordCursor::default();
            for byte in (0..=s.len() + 1).filter(|&b| b > s.len() || s.is_char_boundary(b)) {
                let want = by_prefix(s, byte);
                assert_eq!(word_index_at(s, byte), want, "{s:?} @ {byte}");
                assert_eq!(cursor.index_at(s, byte), want, "{s:?} @ {byte}");
            }
        }
    }

    #[test]
    fn words_basic() {
        assert_eq!(words("SELECT x FROM t"), vec!["SELECT", "x", "FROM", "t"]);
        assert_eq!(word_count("  a   b  "), 2);
        assert_eq!(word_count(""), 0);
    }

    #[test]
    fn char_count_unicode() {
        assert_eq!(char_count("abc"), 3);
        assert_eq!(char_count("héllo"), 5);
    }

    #[test]
    fn word_index_lookup() {
        let s = "SELECT plate FROM SpecObj";
        // byte 0 = 'S' of SELECT
        assert_eq!(word_index_at(s, 0), 0);
        // byte 7 = 'p' of plate
        assert_eq!(word_index_at(s, 7), 1);
        // byte 13 = 'F' of FROM
        assert_eq!(word_index_at(s, 13), 2);
        // byte 18 = 'S' of SpecObj
        assert_eq!(word_index_at(s, 18), 3);
        // whitespace between words maps to the following word
        assert_eq!(word_index_at(s, 6), 1);
    }
}
