//! A deliberately simple backtracking matcher over the AST.
//!
//! This is the *oracle* implementation: obviously correct, exponentially
//! slow in the worst case, used only by tests (including the property
//! tests in `tests/`) to validate the NFA/DFA pipeline. It is `pub` so
//! integration tests and proptest harnesses outside the crate can use it.

use crate::ast::Ast;

/// Does `ast` match somewhere in `input` (unanchored on both sides)?
pub fn search(ast: &Ast, input: &[u8]) -> bool {
    (0..=input.len())
        .filter_map(|start| input.get(start..))
        .any(|rest| match_here(ast, rest, &mut |_| true))
}

/// Does `ast` match `input` exactly (both ends anchored)?
pub fn match_exact(ast: &Ast, input: &[u8]) -> bool {
    match_here(ast, input, &mut |rest: &[u8]| rest.is_empty())
}

/// Continuation-passing backtracking: `k` receives the remaining input
/// after a candidate match of `ast` and decides whether to accept.
fn match_here(ast: &Ast, input: &[u8], k: &mut dyn FnMut(&[u8]) -> bool) -> bool {
    match ast {
        Ast::Empty => k(input),
        Ast::Class(set) => match input.split_first() {
            Some((&b, rest)) if set.contains(b) => k(rest),
            _ => false,
        },
        Ast::Concat(parts) => match_seq(parts, input, k),
        Ast::Alt(branches) => branches.iter().any(|br| match_here(br, input, k)),
        Ast::Star(inner) => match_star(inner, input, k),
        Ast::Plus(inner) => {
            // One mandatory copy, then a star.
            match_here(inner, input, &mut |rest| match_star(inner, rest, k))
        }
        Ast::Question(inner) => match_here(inner, input, k) || k(input),
    }
}

fn match_seq(parts: &[Ast], input: &[u8], k: &mut dyn FnMut(&[u8]) -> bool) -> bool {
    match parts.split_first() {
        None => k(input),
        Some((head, tail)) => match_here(head, input, &mut |rest| match_seq(tail, rest, k)),
    }
}

fn match_star(inner: &Ast, input: &[u8], k: &mut dyn FnMut(&[u8]) -> bool) -> bool {
    // Try the empty match first (shortest), then recurse with progress.
    if k(input) {
        return true;
    }
    match_here(inner, input, &mut |rest| {
        // Require progress to avoid infinite loops on nullable inners.
        rest.len() < input.len() && match_star(inner, rest, k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ast(pattern: &str) -> Ast {
        parse(pattern).unwrap().ast
    }

    #[test]
    fn search_basics() {
        assert!(search(&ast("abc"), b"xxabcxx"));
        assert!(!search(&ast("abc"), b"abx"));
    }

    #[test]
    fn exact_basics() {
        assert!(match_exact(&ast("a+b"), b"aaab"));
        assert!(!match_exact(&ast("a+b"), b"aaabc"));
    }

    #[test]
    fn nullable_star_terminates() {
        // (a?)* is nullable inside a star — the progress check must stop
        // the recursion.
        assert!(search(&ast("(a?)*b"), b"b"));
        assert!(search(&ast("(a?)*b"), b"aab"));
        assert!(!match_exact(&ast("(a?)*"), b"b"));
    }

    /// The DFA and the oracle must agree on a grid of patterns × inputs.
    #[test]
    fn oracle_agrees_with_dfa_on_grid() {
        let patterns = [
            "a", "ab", "a|b", "a*", "a+b*", "(ab)+", "a(b|c)*d", "[ab]+c?", "a{2,3}b", "(a|bb)*c",
        ];
        let alphabet = [b'a', b'b', b'c', b'd'];
        let mut inputs: Vec<Vec<u8>> = vec![vec![]];
        for len in 1..=4usize {
            let mut next = Vec::new();
            for i in 0..alphabet.len().pow(len as u32) {
                let mut word = Vec::with_capacity(len);
                let mut x = i;
                for _ in 0..len {
                    word.push(alphabet[x % alphabet.len()]);
                    x /= alphabet.len();
                }
                next.push(word);
            }
            inputs.extend(next);
        }
        for p in patterns {
            let re = crate::Regex::compile(p).unwrap();
            let tree = ast(p);
            for input in &inputs {
                assert_eq!(
                    re.is_match(input),
                    search(&tree, input),
                    "disagreement on pattern {p:?} input {input:?}"
                );
            }
        }
    }
}
