//! Pre-compiled `LIKE` pattern matching.
//!
//! The naive matcher re-walks the pattern for every candidate string and
//! backtracks exponentially on stacked `%` wildcards. [`LikeMatcher`]
//! parses the pattern once into `%`-separated segments (each a byte
//! sequence where `_` matches any single byte) and then matches in a
//! single forward pass: the first segment is anchored at the start unless
//! the pattern opens with `%`, the last is anchored at the end unless it
//! closes with `%`, and interior segments are found greedily
//! left-to-right. Greedy placement of interior segments is complete for
//! this pattern language — taking the leftmost occurrence only ever
//! leaves *more* room for the segments that follow.
//!
//! The compiled engine builds one matcher per constant `LIKE` pattern at
//! query-compile time ([`crate::physical`]); [`crate::like_match`], which
//! the reference interpreter and non-constant patterns use, builds one per
//! call, which is still cheaper than the old recursive walk.

/// One compiled `LIKE` pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikeMatcher {
    /// `%`-separated pattern pieces; `b'_'` inside a piece matches any
    /// single byte. Empty pieces (from `%%`) are dropped.
    segments: Vec<Vec<u8>>,
    /// Pattern does not start with `%`: the first segment must match at
    /// the start of the input.
    anchored_start: bool,
    /// Pattern does not end with `%`: the last segment must match at the
    /// end of the input.
    anchored_end: bool,
}

impl LikeMatcher {
    /// Compile `pattern` (with `%` / `_` wildcards, case-sensitive).
    pub fn new(pattern: &str) -> LikeMatcher {
        let bytes = pattern.as_bytes();
        LikeMatcher {
            segments: bytes
                .split(|b| *b == b'%')
                .filter(|seg| !seg.is_empty())
                .map(|seg| seg.to_vec())
                .collect(),
            anchored_start: !bytes.first().is_some_and(|b| *b == b'%'),
            anchored_end: !bytes.last().is_some_and(|b| *b == b'%'),
        }
    }

    /// Does `s` match the compiled pattern?
    pub fn matches(&self, s: &str) -> bool {
        let s = s.as_bytes();
        let n = self.segments.len();
        if n == 0 {
            // pattern was empty (matches only "") or all-'%' (matches all)
            return !self.anchored_start || s.is_empty();
        }
        let mut pos = 0;
        let mut idx = 0;
        if self.anchored_start {
            let seg = &self.segments[0];
            if s.len() < seg.len() || !seg_match_at(seg, s, 0) {
                return false;
            }
            pos = seg.len();
            idx = 1;
            if idx == n {
                return !self.anchored_end || pos == s.len();
            }
        }
        // interior segments: greedy leftmost placement
        let last_floating = if self.anchored_end { n - 1 } else { n };
        while idx < last_floating {
            let seg = &self.segments[idx];
            match find_from(seg, s, pos) {
                Some(at) => pos = at + seg.len(),
                None => return false,
            }
            idx += 1;
        }
        if self.anchored_end {
            let seg = &self.segments[n - 1];
            if s.len() < seg.len() {
                return false;
            }
            let start = s.len() - seg.len();
            start >= pos && seg_match_at(seg, s, start)
        } else {
            true
        }
    }
}

/// Does `seg` match the bytes of `s` starting at `at`? (`at + seg.len()`
/// must be in bounds.)
fn seg_match_at(seg: &[u8], s: &[u8], at: usize) -> bool {
    seg.iter().zip(&s[at..]).all(|(p, b)| *p == b'_' || p == b)
}

/// Leftmost position `>= from` where `seg` matches inside `s`.
fn find_from(seg: &[u8], s: &[u8], from: usize) -> Option<usize> {
    if s.len() < seg.len() {
        return None;
    }
    (from..=s.len() - seg.len()).find(|&at| seg_match_at(seg, s, at))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original recursive matcher, kept verbatim as the test oracle.
    fn naive(s: &str, pattern: &str) -> bool {
        fn rec(s: &[u8], p: &[u8]) -> bool {
            match p.split_first() {
                None => s.is_empty(),
                Some((b'%', rest)) => (0..=s.len()).any(|i| rec(&s[i..], rest)),
                Some((b'_', rest)) => !s.is_empty() && rec(&s[1..], rest),
                Some((c, rest)) => s.first() == Some(c) && rec(&s[1..], rest),
            }
        }
        rec(s.as_bytes(), pattern.as_bytes())
    }

    #[test]
    fn edge_cases_match_the_naive_semantics() {
        let strings = [
            "", "a", "ab", "abc", "aabbcc", "galaxy", "gal_xy", "g%y", "%", "_", "aaa", "abab",
            "xbarx", "bar", "ba", "aXbXc",
        ];
        let patterns = [
            "", "%", "%%", "%%%", "_", "__", "a", "a%", "%a", "%a%", "a%c", "a_c", "_b_", "ab",
            "%ab", "ab%", "%ab%", "a%b%c", "%b%b%", "___", "%_", "_%", "a__%", "%__a", "ba_",
            "b_r", "%bar", "bar%", "%bar%", "g_l%y", "%%a%%", "a%a%a",
        ];
        for s in strings {
            for p in patterns {
                assert_eq!(
                    LikeMatcher::new(p).matches(s),
                    naive(s, p),
                    "compiled and naive LIKE disagree on {s:?} LIKE {p:?}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_small_alphabet_agreement() {
        // every string and pattern up to length 4 over {a, b} ∪ {%, _}
        fn all(alphabet: &[char], len: usize, out: &mut Vec<String>) {
            if len == 0 {
                return;
            }
            let start = out.len();
            for c in alphabet {
                out.push(c.to_string());
            }
            let mut prev: Vec<String> = out[start..].to_vec();
            for _ in 1..len {
                let mut next = Vec::new();
                for p in &prev {
                    for c in alphabet {
                        next.push(format!("{p}{c}"));
                    }
                }
                out.extend(next.iter().cloned());
                prev = next;
            }
        }
        let mut strings = vec![String::new()];
        all(&['a', 'b'], 3, &mut strings);
        let mut patterns = vec![String::new()];
        all(&['a', 'b', '%', '_'], 4, &mut patterns);
        for s in &strings {
            for p in &patterns {
                assert_eq!(
                    LikeMatcher::new(p).matches(s),
                    naive(s, p),
                    "disagree on {s:?} LIKE {p:?}"
                );
            }
        }
    }

    #[test]
    fn pathological_percent_stacks_terminate_quickly() {
        // the naive matcher is exponential here; the compiled one is linear
        let s = "a".repeat(2000);
        let m = LikeMatcher::new("%a%a%a%a%a%a%a%a%b");
        assert!(!m.matches(&s));
        let m = LikeMatcher::new("a%a%a%a%a%a%a%a%a%");
        assert!(m.matches(&s));
    }

    #[test]
    fn anchoring_and_underscore_boundaries() {
        assert!(LikeMatcher::new("_bc").matches("abc"));
        assert!(LikeMatcher::new("ab_").matches("abc"));
        assert!(!LikeMatcher::new("_abc").matches("abc"));
        assert!(!LikeMatcher::new("abc_").matches("abc"));
        assert!(LikeMatcher::new("%_").matches("x"));
        assert!(!LikeMatcher::new("%_").matches(""));
        assert!(LikeMatcher::new("_%").matches("xyz"));
        assert!(LikeMatcher::new("a%").matches("a"));
        assert!(LikeMatcher::new("%a").matches("a"));
    }
}
