//! Thompson NFA construction.
//!
//! Classic construction: every AST node becomes a fragment with one entry
//! and one exit, glued with ε-transitions. For unanchored search the
//! start state gets a self-loop over all bytes (the implicit `.*?`
//! prefix), which is also how the hardware engines handle "match
//! anywhere in the stream".

use crate::ast::{Ast, ByteSet};

/// NFA state id.
pub type StateId = u32;

/// One NFA state: byte-class transitions plus ε-transitions.
#[derive(Debug, Clone, Default)]
pub(crate) struct NfaState {
    /// `(byte set, target)` transitions.
    pub byte_edges: Vec<(ByteSet, StateId)>,
    /// ε-transitions.
    pub epsilon: Vec<StateId>,
}

/// A Thompson NFA with a single start and a single accept state.
#[derive(Debug, Clone)]
pub struct Nfa {
    states: Vec<NfaState>,
    start: StateId,
    accept: StateId,
}

impl Nfa {
    /// Build from an AST. If `unanchored` is true the start state may
    /// skip arbitrary input before the match begins.
    pub fn from_ast(ast: &Ast, unanchored: bool) -> Nfa {
        let mut b = Builder { states: Vec::new() };
        let start = b.new_state();
        if unanchored {
            // Self-loop over every byte: skip any prefix.
            b.state(start).byte_edges.push((ByteSet::full(), start));
        }
        let (entry, exit) = b.compile(ast);
        b.state(start).epsilon.push(entry);
        Nfa {
            states: b.states,
            start,
            accept: exit,
        }
    }

    /// All states.
    pub(crate) fn states(&self) -> &[NfaState] {
        &self.states
    }

    /// Start state id.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Accept state id.
    pub fn accept(&self) -> StateId {
        self.accept
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// ε-closure of a set of states (sorted, deduplicated) — the core
    /// operation of subset construction.
    pub fn epsilon_closure(&self, seed: &[StateId]) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        let mut stack: Vec<StateId> = Vec::with_capacity(seed.len());
        // Marks `s` seen, true the first time; ids past the NFA have no
        // edges and are never reported.
        let mut visit = |s: StateId| match seen.get_mut(s as usize) {
            Some(flag) if !*flag => {
                *flag = true;
                true
            }
            _ => false,
        };
        stack.extend(seed.iter().copied().filter(|&s| visit(s)));
        let mut out = Vec::new();
        while let Some(s) = stack.pop() {
            out.push(s);
            if let Some(state) = self.states.get(s as usize) {
                stack.extend(state.epsilon.iter().copied().filter(|&t| visit(t)));
            }
        }
        out.sort_unstable();
        out
    }
}

struct Builder {
    states: Vec<NfaState>,
}

impl Builder {
    #[expect(
        clippy::expect_used,
        reason = "patterns yield far fewer than 2^32 states"
    )]
    fn new_state(&mut self) -> StateId {
        let id = u32::try_from(self.states.len()).expect("NFA too large");
        self.states.push(NfaState::default());
        id
    }

    /// The one place a state is indexed.
    #[expect(clippy::indexing_slicing, reason = "every id is minted by `new_state`")]
    fn state(&mut self, id: StateId) -> &mut NfaState {
        &mut self.states[id as usize]
    }

    /// Compile a fragment, returning `(entry, exit)`.
    fn compile(&mut self, ast: &Ast) -> (StateId, StateId) {
        match ast {
            Ast::Empty => {
                let s = self.new_state();
                (s, s)
            }
            Ast::Class(set) => {
                let entry = self.new_state();
                let exit = self.new_state();
                self.state(entry).byte_edges.push((*set, exit));
                (entry, exit)
            }
            Ast::Concat(parts) => {
                let mut entry = None;
                let mut prev_exit: Option<StateId> = None;
                for p in parts {
                    let (e, x) = self.compile(p);
                    if let Some(px) = prev_exit {
                        self.state(px).epsilon.push(e);
                    } else {
                        entry = Some(e);
                    }
                    prev_exit = Some(x);
                }
                match (entry, prev_exit) {
                    (Some(e), Some(x)) => (e, x),
                    _ => {
                        let s = self.new_state();
                        (s, s)
                    }
                }
            }
            Ast::Alt(branches) => {
                let entry = self.new_state();
                let exit = self.new_state();
                for br in branches {
                    let (e, x) = self.compile(br);
                    self.state(entry).epsilon.push(e);
                    self.state(x).epsilon.push(exit);
                }
                (entry, exit)
            }
            Ast::Star(inner) => {
                let entry = self.new_state();
                let exit = self.new_state();
                let (e, x) = self.compile(inner);
                self.state(entry).epsilon.push(e);
                self.state(entry).epsilon.push(exit);
                self.state(x).epsilon.push(e);
                self.state(x).epsilon.push(exit);
                (entry, exit)
            }
            Ast::Plus(inner) => {
                let (e, x) = self.compile(inner);
                let exit = self.new_state();
                self.state(x).epsilon.push(e);
                self.state(x).epsilon.push(exit);
                (e, exit)
            }
            Ast::Question(inner) => {
                let entry = self.new_state();
                let exit = self.new_state();
                let (e, x) = self.compile(inner);
                self.state(entry).epsilon.push(e);
                self.state(entry).epsilon.push(exit);
                self.state(x).epsilon.push(exit);
                (entry, exit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Direct NFA simulation, used to validate construction independently
    /// of the DFA layer.
    fn nfa_matches(nfa: &Nfa, input: &[u8]) -> bool {
        let mut current = nfa.epsilon_closure(&[nfa.start()]);
        if current.contains(&nfa.accept()) {
            return true;
        }
        for &b in input {
            let mut next = Vec::new();
            for &s in &current {
                for (set, t) in &nfa.states()[s as usize].byte_edges {
                    if set.contains(b) {
                        next.push(*t);
                    }
                }
            }
            current = nfa.epsilon_closure(&next);
            if current.contains(&nfa.accept()) {
                return true;
            }
        }
        false
    }

    fn check(pattern: &str, yes: &[&[u8]], no: &[&[u8]]) {
        let parsed = parse(pattern).unwrap();
        let nfa = Nfa::from_ast(&parsed.ast, !parsed.anchored_start);
        for y in yes {
            assert!(nfa_matches(&nfa, y), "{pattern} should match {y:?}");
        }
        for n in no {
            assert!(!nfa_matches(&nfa, n), "{pattern} should not match {n:?}");
        }
    }

    #[test]
    fn literal() {
        check("abc", &[b"abc", b"zabcz"], &[b"ab", b"acb"]);
    }

    #[test]
    fn alternation() {
        check("a|b", &[b"xa", b"b"], &[b"c", b""]);
    }

    #[test]
    fn star_accepts_empty() {
        check("a*", &[b"", b"aaa", b"zzz"], &[]);
    }

    #[test]
    fn plus_requires_one() {
        // NFA-level matching is prefix-free (no `$` handling at this
        // layer — the DFA layer owns end anchoring).
        check("a+", &[b"a", b"za", b"aa"], &[b"", b"z"]);
    }

    #[test]
    fn anchored_vs_unanchored() {
        let parsed = parse("^ab").unwrap();
        let anchored = Nfa::from_ast(&parsed.ast, false);
        assert!(nfa_matches(&anchored, b"abz"));
        assert!(!nfa_matches(&anchored, b"zab"));
        let unanchored = Nfa::from_ast(&parsed.ast, true);
        assert!(nfa_matches(&unanchored, b"zab"));
    }

    #[test]
    fn epsilon_closure_is_sorted_and_deduped() {
        let parsed = parse("(a|b|c)*").unwrap();
        let nfa = Nfa::from_ast(&parsed.ast, true);
        let cl = nfa.epsilon_closure(&[nfa.start(), nfa.start()]);
        let mut sorted = cl.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(cl, sorted);
    }
}
