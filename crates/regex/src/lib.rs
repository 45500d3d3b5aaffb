//! # fv-regex — a from-scratch byte-oriented regular-expression engine
//!
//! Farview integrates "an open source regular expression library for
//! FPGAs" (Caribou-derived, §5.3) and its CPU baselines use Google RE2
//! (§6.6). Neither is available here, so this crate implements the shared
//! functional engine both sides use:
//!
//! * a recursive-descent [`parser`] for a practical regex subset
//!   (literals, `.`, classes, alternation, grouping, `* + ?`,
//!   counted repeats `{m}`/`{m,}`/`{m,n}`, escapes, top-level anchors),
//! * Thompson [`nfa`] construction,
//! * eager subset-construction [`dfa`] determinization, one move per
//!   class of indistinguishable bytes — cheap enough to run per query.
//!
//! A DFA is the right model for *both* architectures: the FPGA engines
//! are hardware state machines whose "performance is dominated by the
//! length of the string and does not depend on the complexity of the
//! regular expression" (§5.3) — exactly the O(1)-per-byte property of a
//! DFA — and RE2 is itself DFA-based. The timing difference (line rate vs
//! ~1 GB/s) is charged by the engines that embed this crate.
//!
//! ```
//! use fv_regex::Regex;
//! let re = Regex::compile("ca(r|t)+s?").unwrap();
//! assert!(re.is_match(b"three cats"));
//! assert!(!re.is_match(b"camel"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod dfa;
pub mod naive;
pub mod nfa;
pub mod parser;

use std::fmt;

pub use ast::{Ast, ByteSet};
pub use dfa::{Dfa, Prefilter};

/// Errors produced when compiling a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegexError {
    /// Syntax error at the given byte position of the pattern.
    Syntax {
        /// Byte position in the pattern.
        pos: usize,
        /// Human-readable description.
        msg: String,
    },
    /// The determinized automaton exceeded the state budget.
    TooComplex {
        /// The configured limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegexError::Syntax { pos, msg } => write!(f, "syntax error at byte {pos}: {msg}"),
            RegexError::TooComplex { limit } => {
                write!(f, "pattern needs more than {limit} DFA states")
            }
        }
    }
}

impl std::error::Error for RegexError {}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    dfa: Dfa,
    anchored_end: bool,
}

impl Regex {
    /// Compile `pattern` with the default DFA state budget (8192).
    pub fn compile(pattern: &str) -> Result<Regex, RegexError> {
        Regex::compile_with_limit(pattern, 8192)
    }

    /// Compile with an explicit DFA state budget.
    pub(crate) fn compile_with_limit(
        pattern: &str,
        state_limit: usize,
    ) -> Result<Regex, RegexError> {
        let parsed = parser::parse(pattern)?;
        let nfa = nfa::Nfa::from_ast(&parsed.ast, !parsed.anchored_start);
        let dfa = Dfa::determinize(&nfa, state_limit)?;
        Ok(Regex {
            pattern: pattern.to_string(),
            dfa,
            anchored_end: parsed.anchored_end,
        })
    }

    /// The original pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of DFA states (a proxy for the FPGA engine size).
    pub fn state_count(&self) -> usize {
        self.dfa.state_count()
    }

    /// The underlying DFA — block-scanning engines derive their
    /// [`Prefilter`] from it.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// Is the pattern end-anchored (`$`)? End-anchored matching cannot
    /// use the prefix-free scan (or its prefilter).
    pub fn anchored_end(&self) -> bool {
        self.anchored_end
    }

    /// Does the pattern match anywhere in `haystack` (respecting
    /// top-level anchors)?
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        if self.anchored_end {
            self.dfa.accepts_at_end(haystack)
        } else {
            self.dfa.matches_prefix_free(haystack)
        }
    }

    /// End offset of the shortest leftmost match, if any. With an `$`
    /// anchor this is the haystack length on match.
    pub fn shortest_match_end(&self, haystack: &[u8]) -> Option<usize> {
        if self.anchored_end {
            self.dfa.accepts_at_end(haystack).then_some(haystack.len())
        } else {
            self.dfa.shortest_match_end(haystack)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_and_search_semantics() {
        let re = Regex::compile("abc").unwrap();
        assert!(re.is_match(b"abc"));
        assert!(re.is_match(b"xxabcxx"));
        assert!(!re.is_match(b"ab"));
        assert!(!re.is_match(b""));
    }

    #[test]
    fn alternation_and_groups() {
        let re = Regex::compile("(cat|dog)food").unwrap();
        assert!(re.is_match(b"catfood"));
        assert!(re.is_match(b"my dogfood bag"));
        assert!(!re.is_match(b"cat food"));
    }

    #[test]
    fn repetitions() {
        let re = Regex::compile("ab*c").unwrap();
        assert!(re.is_match(b"ac"));
        assert!(re.is_match(b"abbbbc"));
        let re = Regex::compile("ab+c").unwrap();
        assert!(!re.is_match(b"ac"));
        assert!(re.is_match(b"abc"));
        let re = Regex::compile("ab?c").unwrap();
        assert!(re.is_match(b"ac"));
        assert!(re.is_match(b"abc"));
        assert!(!re.is_match(b"abbc"));
    }

    #[test]
    fn counted_repeats() {
        let re = Regex::compile("a{3}").unwrap();
        assert!(re.is_match(b"aaa"));
        assert!(!re.is_match(b"aa"));
        let re = Regex::compile("^a{2,4}$").unwrap();
        assert!(!re.is_match(b"a"));
        assert!(re.is_match(b"aa"));
        assert!(re.is_match(b"aaaa"));
        assert!(!re.is_match(b"aaaaa"));
        let re = Regex::compile("^a{2,}$").unwrap();
        assert!(!re.is_match(b"a"));
        assert!(re.is_match(b"aaaaaaa"));
    }

    #[test]
    fn classes_and_dot() {
        let re = Regex::compile("[a-c]x[^0-9]").unwrap();
        assert!(re.is_match(b"bxz"));
        assert!(!re.is_match(b"dxz"));
        assert!(!re.is_match(b"bx5"));
        let re = Regex::compile("a.c").unwrap();
        assert!(re.is_match(b"a!c"));
        assert!(!re.is_match(b"ac"));
    }

    #[test]
    fn anchors() {
        let re = Regex::compile("^abc").unwrap();
        assert!(re.is_match(b"abcdef"));
        assert!(!re.is_match(b"xabc"));
        let re = Regex::compile("abc$").unwrap();
        assert!(re.is_match(b"xxabc"));
        assert!(!re.is_match(b"abcx"));
        let re = Regex::compile("^abc$").unwrap();
        assert!(re.is_match(b"abc"));
        assert!(!re.is_match(b"aabc"));
    }

    #[test]
    fn escapes() {
        let re = Regex::compile(r"\d+\.\d+").unwrap();
        assert!(re.is_match(b"pi is 3.14!"));
        assert!(!re.is_match(b"no numbers"));
        let re = Regex::compile(r"\w+\s\w+").unwrap();
        assert!(re.is_match(b"hello world"));
    }

    #[test]
    fn tpch_q16_like_pattern() {
        // TPC-H Q16 uses `p_type NOT LIKE 'MEDIUM POLISHED%'`; the LIKE
        // prefix translates to an anchored regex.
        let re = Regex::compile("^MEDIUM POLISHED.*").unwrap();
        assert!(re.is_match(b"MEDIUM POLISHED COPPER"));
        assert!(!re.is_match(b"SMALL POLISHED COPPER"));
    }

    #[test]
    fn shortest_match_end() {
        let re = Regex::compile("b+").unwrap();
        assert_eq!(re.shortest_match_end(b"aaabbb"), Some(4));
        assert_eq!(re.shortest_match_end(b"aaa"), None);
        let re = Regex::compile("abc$").unwrap();
        assert_eq!(re.shortest_match_end(b"zzabc"), Some(5));
    }

    #[test]
    fn error_reporting() {
        assert!(matches!(
            Regex::compile("a("),
            Err(RegexError::Syntax { .. })
        ));
        assert!(matches!(
            Regex::compile("a{5,2}"),
            Err(RegexError::Syntax { .. })
        ));
        assert!(matches!(
            Regex::compile("*a"),
            Err(RegexError::Syntax { .. })
        ));
        let err = Regex::compile("[z-a]").unwrap_err();
        assert!(err.to_string().contains("class range"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let re = Regex::compile("").unwrap();
        assert!(re.is_match(b""));
        assert!(re.is_match(b"anything"));
    }

    #[test]
    fn state_budget_enforced() {
        // A pattern whose DFA needs > 2 states under a budget of 2.
        let err = Regex::compile_with_limit("abcdef", 2).unwrap_err();
        assert_eq!(err, RegexError::TooComplex { limit: 2 });
    }
}
