//! Recursive-descent regex parser.
//!
//! Grammar (standard precedence — alternation, then concatenation, then
//! postfix repetition):
//!
//! ```text
//! pattern  := '^'? alt '$'?
//! alt      := concat ('|' concat)*
//! concat   := repeat*
//! repeat   := atom ('*' | '+' | '?' | '{' bounds '}')*
//! atom     := literal | '.' | class | '(' alt ')' | escape
//! class    := '[' '^'? item+ ']'      item := byte | byte '-' byte
//! escape   := '\' (d | D | w | W | s | S | metachar)
//! ```
//!
//! Counted repeats are desugared into `?`/`*` combinations. Anchors are
//! only supported at the pattern boundaries, which is where the paper's
//! LIKE-style predicates put them.

use crate::ast::{Ast, ByteSet};
use crate::RegexError;

/// Maximum count in `{m,n}` — keeps the desugared tree small.
const MAX_REPEAT: u32 = 256;

/// Result of parsing: the tree plus top-level anchor flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The pattern body.
    pub ast: Ast,
    /// Pattern began with `^`.
    pub anchored_start: bool,
    /// Pattern ended with `$`.
    pub anchored_end: bool,
}

/// Parse a pattern string.
pub fn parse(pattern: &str) -> Result<Parsed, RegexError> {
    let bytes = pattern.as_bytes();
    let (anchored_start, body_start) = if bytes.first() == Some(&b'^') {
        (true, 1)
    } else {
        (false, 0)
    };
    let (anchored_end, body_end) = if bytes.len() > body_start && bytes.last() == Some(&b'$') {
        // `\$` at the end is a literal dollar, not an anchor.
        let escaped = bytes.iter().rev().nth(1) == Some(&b'\\');
        if escaped {
            (false, bytes.len())
        } else {
            (true, bytes.len() - 1)
        }
    } else {
        (false, bytes.len())
    };

    let mut p = Parser {
        input: bytes.get(body_start..body_end).unwrap_or_default(),
        pos: 0,
        base: body_start,
    };
    let ast = p.parse_alt()?;
    if p.pos != p.input.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(Parsed {
        ast,
        anchored_start,
        anchored_end,
    })
}

/// `Empty` for no items, the item itself for one, else `many(items)`.
fn collapse(mut items: Vec<Ast>, many: fn(Vec<Ast>) -> Ast) -> Ast {
    match items.len() {
        0 => Ast::Empty,
        1 => items.pop().unwrap_or(Ast::Empty),
        _ => many(items),
    }
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    base: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> RegexError {
        RegexError::Syntax {
            pos: self.base + self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_alt(&mut self) -> Result<Ast, RegexError> {
        let mut branches = vec![self.parse_concat()?];
        while self.eat(b'|') {
            branches.push(self.parse_concat()?);
        }
        Ok(collapse(branches, Ast::Alt))
    }

    fn parse_concat(&mut self) -> Result<Ast, RegexError> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.parse_repeat()?);
        }
        Ok(collapse(parts, Ast::Concat))
    }

    fn parse_repeat(&mut self) -> Result<Ast, RegexError> {
        let mut node = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    node = Ast::Star(Box::new(node));
                }
                Some(b'+') => {
                    self.pos += 1;
                    node = Ast::Plus(Box::new(node));
                }
                Some(b'?') => {
                    self.pos += 1;
                    node = Ast::Question(Box::new(node));
                }
                Some(b'{') => {
                    self.pos += 1;
                    node = self.parse_bounds(node)?;
                }
                _ => break,
            }
        }
        Ok(node)
    }

    /// Parse `{m}`, `{m,}` or `{m,n}` and desugar.
    fn parse_bounds(&mut self, inner: Ast) -> Result<Ast, RegexError> {
        let min = self.parse_number()?;
        let max = if self.eat(b',') {
            if self.peek() == Some(b'}') {
                None
            } else {
                Some(self.parse_number()?)
            }
        } else {
            Some(min)
        };
        if !self.eat(b'}') {
            return Err(self.err("expected '}' after repeat bounds"));
        }
        if let Some(max) = max {
            if max < min {
                return Err(self.err(format!("repeat bounds reversed: {{{min},{max}}}")));
            }
        }
        if inner.node_count() as u64 * u64::from(max.unwrap_or(min).max(1)) > 65_536 {
            return Err(self.err("desugared repeat too large"));
        }

        // Desugar: min copies, then (max-min) optional copies or a star.
        let mut parts = Vec::new();
        for _ in 0..min {
            parts.push(inner.clone());
        }
        match max {
            None => parts.push(Ast::Star(Box::new(inner))),
            Some(max) => {
                for _ in min..max {
                    parts.push(Ast::Question(Box::new(inner.clone())));
                }
            }
        }
        Ok(collapse(parts, Ast::Concat))
    }

    fn parse_number(&mut self) -> Result<u32, RegexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let text = String::from_utf8_lossy(self.input.get(start..self.pos).unwrap_or_default());
        let n: u32 = text
            .parse()
            .map_err(|_| self.err(format!("repeat count too large: {text}")))?;
        if n > MAX_REPEAT {
            return Err(self.err(format!("repeat count {n} exceeds maximum {MAX_REPEAT}")));
        }
        Ok(n)
    }

    fn parse_atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            None => Err(self.err("expected an atom")),
            Some(b'(') => {
                let inner = self.parse_alt()?;
                if !self.eat(b')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(inner)
            }
            Some(b'.') => Ok(Ast::Class(ByteSet::full())),
            Some(b'[') => self.parse_class(),
            Some(b'\\') => self.parse_escape(),
            Some(b @ (b'*' | b'+' | b'?')) => {
                self.pos -= 1;
                Err(self.err(format!("dangling repetition operator '{}'", b as char)))
            }
            Some(b')') => {
                self.pos -= 1;
                Err(self.err("unmatched ')'"))
            }
            Some(b'{') => {
                self.pos -= 1;
                Err(self.err("repeat bounds with nothing to repeat"))
            }
            Some(b'^') | Some(b'$') => {
                self.pos -= 1;
                Err(self.err("anchors are only supported at the pattern boundaries"))
            }
            Some(b) => Ok(Ast::literal(b)),
        }
    }

    fn parse_class(&mut self) -> Result<Ast, RegexError> {
        let negated = self.eat(b'^');
        let mut set = ByteSet::empty();
        let mut any = false;
        loop {
            let b = match self.bump() {
                None => return Err(self.err("unclosed character class")),
                Some(b']') if any => break,
                Some(b']') => {
                    // A `]` first in the class is a literal.
                    b']'
                }
                Some(b'\\') => self.class_escape()?,
                Some(b) => b,
            };
            any = true;
            // Range? `-` at the end of the class is a literal dash.
            if self.peek() == Some(b'-') && self.input.get(self.pos + 1) != Some(&b']') {
                self.pos += 1; // consume '-'
                let hi = match self.bump() {
                    None => return Err(self.err("unclosed character class")),
                    Some(b'\\') => self.class_escape()?,
                    Some(hi) => hi,
                };
                if hi < b {
                    return Err(
                        self.err(format!("invalid class range {}-{}", b as char, hi as char))
                    );
                }
                set = set.union(&ByteSet::range(b, hi));
            } else {
                set.insert(b);
            }
        }
        Ok(Ast::Class(if negated { set.negate() } else { set }))
    }

    /// Escape inside a class: only single-byte escapes.
    fn class_escape(&mut self) -> Result<u8, RegexError> {
        match self.bump() {
            None => Err(self.err("dangling escape")),
            Some(b'n') => Ok(b'\n'),
            Some(b't') => Ok(b'\t'),
            Some(b'r') => Ok(b'\r'),
            Some(b'0') => Ok(0),
            Some(b) => Ok(b),
        }
    }

    fn parse_escape(&mut self) -> Result<Ast, RegexError> {
        let set = match self.bump() {
            None => return Err(self.err("dangling escape")),
            Some(b'd') => ByteSet::range(b'0', b'9'),
            Some(b'D') => ByteSet::range(b'0', b'9').negate(),
            Some(b'w') => word_set(),
            Some(b'W') => word_set().negate(),
            Some(b's') => space_set(),
            Some(b'S') => space_set().negate(),
            Some(b'n') => ByteSet::single(b'\n'),
            Some(b't') => ByteSet::single(b'\t'),
            Some(b'r') => ByteSet::single(b'\r'),
            Some(b'0') => ByteSet::single(0),
            // Escaped metacharacters (and any other byte) become literals.
            Some(b) => ByteSet::single(b),
        };
        Ok(Ast::Class(set))
    }
}

fn word_set() -> ByteSet {
    ByteSet::range(b'a', b'z')
        .union(&ByteSet::range(b'A', b'Z'))
        .union(&ByteSet::range(b'0', b'9'))
        .union(&ByteSet::single(b'_'))
}

fn space_set() -> ByteSet {
    let mut s = ByteSet::empty();
    for b in [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c] {
        s.insert(b);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_concat() {
        let p = parse("ab").unwrap();
        assert!(!p.anchored_start && !p.anchored_end);
        assert_eq!(p.ast, Ast::literal_str(b"ab"));
    }

    #[test]
    fn anchors_detected() {
        let p = parse("^a$").unwrap();
        assert!(p.anchored_start && p.anchored_end);
        assert_eq!(p.ast, Ast::literal(b'a'));
        // Escaped dollar is literal.
        let p = parse(r"a\$").unwrap();
        assert!(!p.anchored_end);
    }

    #[test]
    fn precedence_alt_binds_loosest() {
        let p = parse("ab|c").unwrap();
        assert_eq!(
            p.ast,
            Ast::Alt(vec![Ast::literal_str(b"ab"), Ast::literal(b'c')])
        );
    }

    #[test]
    fn star_binds_to_atom() {
        let p = parse("ab*").unwrap();
        assert_eq!(
            p.ast,
            Ast::Concat(vec![
                Ast::literal(b'a'),
                Ast::Star(Box::new(Ast::literal(b'b')))
            ])
        );
    }

    #[test]
    fn class_variants() {
        assert!(parse("[abc]").is_ok());
        assert!(parse("[a-z0-9_]").is_ok());
        assert!(parse("[^a-z]").is_ok());
        assert!(parse("[]]").is_ok()); // leading ] is literal
        assert!(parse("[a-]").is_ok()); // trailing - is literal
        assert!(parse("[z-a]").is_err());
        assert!(parse("[abc").is_err());
    }

    #[test]
    fn counted_repeat_desugars() {
        let p = parse("a{2,3}").unwrap();
        assert_eq!(
            p.ast,
            Ast::Concat(vec![
                Ast::literal(b'a'),
                Ast::literal(b'a'),
                Ast::Question(Box::new(Ast::literal(b'a'))),
            ])
        );
        let p = parse("a{0,1}").unwrap();
        assert_eq!(p.ast, Ast::Question(Box::new(Ast::literal(b'a'))));
        let p = parse("a{2,}").unwrap();
        assert_eq!(
            p.ast,
            Ast::Concat(vec![
                Ast::literal(b'a'),
                Ast::literal(b'a'),
                Ast::Star(Box::new(Ast::literal(b'a'))),
            ])
        );
    }

    #[test]
    fn repeat_errors() {
        assert!(parse("a{3,2}").is_err());
        assert!(parse("a{}").is_err());
        assert!(parse("a{9999}").is_err());
        assert!(parse("{3}").is_err());
    }

    #[test]
    fn nested_anchor_rejected() {
        assert!(parse("a^b").is_err());
        assert!(parse("a$b").is_err());
    }

    #[test]
    fn error_positions_are_absolute() {
        let err = parse("^ab(").unwrap_err();
        match err {
            RegexError::Syntax { pos, .. } => assert_eq!(pos, 4),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
