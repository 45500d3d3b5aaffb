//! Subset-construction DFA.
//!
//! Eager determinization with a dense 256-way transition table per state.
//! The state budget guards against pathological patterns; the evaluation
//! patterns of the paper compile to a handful of states.
//!
//! Construction works per *byte class*, not per byte. Two bytes that
//! belong to exactly the same NFA edge sets can never be told apart by
//! the automaton, so the 256 bytes are partitioned once into such
//! classes (`smartmem[0-9]+` has eight: `s m a r t e`, the digits, and
//! everything else) and each DFA state computes one move + ε-closure per
//! class, fanning the target out to the class's bytes. Classes are
//! visited in order of their smallest byte, which is the order a
//! byte-by-byte sweep would first meet each distinct target — so states
//! are discovered, numbered and budgeted exactly as the per-byte
//! construction would (kept under `#[cfg(test)]` as the oracle), at a
//! thirtieth of the closures. That makes a DFA cheap enough to build for
//! every query; nothing caches one.
//!
//! Matching is O(1) per input byte — the property the paper highlights
//! for the FPGA engines ("the performance of the operator is dominated by
//! the length of the string and does not depend on the complexity of the
//! regular expression", §5.3).

use std::collections::HashMap;

use crate::ast::ByteSet;
use crate::nfa::{Nfa, StateId};
use crate::RegexError;

/// Sentinel for "no transition".
pub(crate) const DEAD: u32 = u32::MAX;

/// A dense deterministic automaton.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// `transitions[state * 256 + byte]` is the next state or [`DEAD`].
    transitions: Vec<u32>,
    accepting: Vec<bool>,
    start: u32,
}

/// The subset construction's working set: interned NFA-state sets and
/// the table rows built for them so far.
struct Subsets<'n> {
    nfa: &'n Nfa,
    state_limit: usize,
    index: HashMap<Vec<StateId>, u32>,
    sets: Vec<Vec<StateId>>,
    transitions: Vec<u32>,
    accepting: Vec<bool>,
    /// Discovered states whose row is still all-[`DEAD`].
    work: Vec<u32>,
}

impl<'n> Subsets<'n> {
    fn new(nfa: &'n Nfa, state_limit: usize) -> Self {
        Subsets {
            nfa,
            state_limit,
            index: HashMap::new(),
            sets: Vec::new(),
            transitions: Vec::new(),
            accepting: Vec::new(),
            work: Vec::new(),
        }
    }

    /// Intern a closure set; a new one gets the next id, an all-dead row
    /// and a place on the work stack.
    fn intern(&mut self, set: Vec<StateId>) -> Result<u32, RegexError> {
        if let Some(&id) = self.index.get(&set) {
            return Ok(id);
        }
        if self.sets.len() >= self.state_limit {
            return Err(RegexError::TooComplex {
                limit: self.state_limit,
            });
        }
        let id = u32::try_from(self.sets.len()).map_err(|_| RegexError::TooComplex {
            limit: self.state_limit,
        })?;
        self.accepting
            .push(set.binary_search(&self.nfa.accept()).is_ok());
        self.index.insert(set.clone(), id);
        self.sets.push(set);
        self.transitions.extend(std::iter::repeat_n(DEAD, 256));
        self.work.push(id);
        Ok(id)
    }

    /// The DFA state reached from `d` on `byte`, interned, or `None`
    /// when no member state has an edge for it.
    fn target(&mut self, d: u32, byte: u8) -> Result<Option<u32>, RegexError> {
        let mut moved: Vec<StateId> = Vec::new();
        let states = self.nfa.states();
        let members = self.sets.get(d as usize).into_iter().flatten();
        for state in members.filter_map(|&s| states.get(s as usize)) {
            for (set, t) in &state.byte_edges {
                if set.contains(byte) {
                    moved.push(*t);
                }
            }
        }
        if moved.is_empty() {
            return Ok(None);
        }
        self.intern(self.nfa.epsilon_closure(&moved)).map(Some)
    }

    fn finish(self, start: u32) -> Dfa {
        Dfa {
            transitions: self.transitions,
            accepting: self.accepting,
            start,
        }
    }
}

/// Partition the 256 bytes into the classes `nfa` cannot distinguish:
/// two bytes share a class iff every edge's [`ByteSet`] holds both or
/// neither. Each class comes with its smallest byte, in that order.
fn byte_classes(nfa: &Nfa) -> Vec<(u8, ByteSet)> {
    let mut classes = vec![ByteSet::full()];
    let mut inside: Vec<ByteSet> = Vec::new();
    for (set, _) in nfa.states().iter().flat_map(|s| &s.byte_edges) {
        // Cut every class the edge straddles into the part inside the
        // edge's set and the part outside it.
        for class in &mut classes {
            let cut = class.intersect(set);
            if !cut.is_empty() && cut != *class {
                *class = class.minus(set);
                inside.push(cut);
            }
        }
        classes.append(&mut inside);
    }
    let mut classes: Vec<(u8, ByteSet)> = classes
        .into_iter()
        .filter_map(|class| Some((class.iter().next()?, class)))
        .collect();
    classes.sort_by_key(|&(first, _)| first);
    classes
}

impl Dfa {
    /// Determinize `nfa`, failing if more than `state_limit` DFA states
    /// are needed.
    pub(crate) fn determinize(nfa: &Nfa, state_limit: usize) -> Result<Dfa, RegexError> {
        let classes = byte_classes(nfa);
        let mut subsets = Subsets::new(nfa, state_limit);
        let start = subsets.intern(nfa.epsilon_closure(&[nfa.start()]))?;
        while let Some(d) = subsets.work.pop() {
            for &(first, class) in &classes {
                // Any member stands for the class; the smallest is the
                // one a byte-by-byte sweep reaches first.
                if let Some(target) = subsets.target(d, first)? {
                    let row = d as usize * 256;
                    for byte in class.iter() {
                        if let Some(t) = subsets.transitions.get_mut(row + usize::from(byte)) {
                            *t = target;
                        }
                    }
                }
            }
        }
        Ok(subsets.finish(start))
    }

    /// The per-byte subset construction this module started from: one
    /// move + ε-closure for each of the 256 bytes of every state. Tests
    /// only — the oracle [`Dfa::determinize`] must equal table for table.
    #[cfg(test)]
    fn determinize_per_byte(nfa: &Nfa, state_limit: usize) -> Result<Dfa, RegexError> {
        let mut subsets = Subsets::new(nfa, state_limit);
        let start = subsets.intern(nfa.epsilon_closure(&[nfa.start()]))?;
        while let Some(d) = subsets.work.pop() {
            for byte in 0..=255u8 {
                if let Some(target) = subsets.target(d, byte)? {
                    subsets.transitions[d as usize * 256 + usize::from(byte)] = target;
                }
            }
        }
        Ok(subsets.finish(start))
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// Start state.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One transition step.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "a live state owns a 256-entry row")]
    pub fn step(&self, state: u32, byte: u8) -> u32 {
        if state == DEAD {
            return DEAD;
        }
        self.transitions[state as usize * 256 + byte as usize]
    }

    /// Is `state` accepting?
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "live states are ids below `state_count`"
    )]
    pub(crate) fn is_accepting(&self, state: u32) -> bool {
        state != DEAD && self.accepting[state as usize]
    }

    /// Unanchored-end match: true as soon as any prefix of the scan
    /// reaches an accepting state (the NFA's unanchored-start loop is
    /// already baked into the transitions).
    pub(crate) fn matches_prefix_free(&self, haystack: &[u8]) -> bool {
        self.shortest_match_end(haystack).is_some()
    }

    /// End offset of the shortest match, scanning left to right.
    pub fn shortest_match_end(&self, haystack: &[u8]) -> Option<usize> {
        let mut state = self.start;
        if self.is_accepting(state) {
            return Some(0);
        }
        for (i, &b) in haystack.iter().enumerate() {
            state = self.step(state, b);
            if state == DEAD {
                // With an unanchored-start loop the start state can never
                // die; a DEAD here means the pattern was start-anchored
                // and has failed for good.
                return None;
            }
            if self.is_accepting(state) {
                return Some(i + 1);
            }
        }
        None
    }

    /// Derive a start-state [`Prefilter`], or `None` when skipping
    /// cannot pay:
    ///
    /// * the start state accepts (the empty match is everywhere), or
    /// * too few bytes loop on the start state — e.g. start-anchored
    ///   patterns, where a non-matching byte goes to the dead state
    ///   rather than back to start, so the skip set is empty.
    ///
    /// The filter is *exact*, not approximate: a byte `b` with
    /// `step(start, b) == start` makes no progress, so jumping over a run
    /// of such bytes visits exactly the states the plain walk would.
    pub fn prefilter(&self) -> Option<Prefilter> {
        if self.is_accepting(self.start) {
            return None;
        }
        let skip: [bool; 256] =
            std::array::from_fn(|b| self.step(self.start, b as u8) == self.start);
        let progress_count = skip.iter().filter(|&&s| !s).count();
        let progress = (0..=255u8).zip(skip).rfind(|&(_, s)| !s).map(|(b, _)| b);
        // Fewer than 3/4 skippable bytes: the scan loop beats the skip
        // loop only marginally; fall back to the plain walk.
        if progress_count > 64 {
            return None;
        }
        Some(Prefilter {
            skip,
            single: if progress_count == 1 { progress } else { None },
        })
    }

    /// `Dfa::matches_prefix_free` accelerated by a [`Prefilter`]
    /// derived from this DFA — identical result, but runs of
    /// non-progress bytes are skipped word-at-a-time instead of stepped
    /// through the transition table.
    #[expect(
        clippy::indexing_slicing,
        reason = "`find_progress` returns indices inside the haystack and `i` is checked against its length"
    )]
    pub fn matches_prefix_free_with(&self, haystack: &[u8], pf: &Prefilter) -> bool {
        let mut i = 0usize;
        loop {
            let Some(p) = pf.find_progress(haystack, i) else {
                return false;
            };
            let mut state = self.step(self.start, haystack[p]);
            i = p + 1;
            loop {
                if state == DEAD {
                    // Only reachable for start-anchored patterns, which
                    // never produce a prefilter; kept for exactness.
                    return false;
                }
                if self.is_accepting(state) {
                    return true;
                }
                if state == self.start {
                    // Back at start: resume skipping.
                    break;
                }
                if i >= haystack.len() {
                    return false;
                }
                state = self.step(state, haystack[i]);
                i += 1;
            }
        }
    }

    /// End-anchored match: run the whole haystack and test acceptance at
    /// the final position only.
    pub(crate) fn accepts_at_end(&self, haystack: &[u8]) -> bool {
        let mut state = self.start;
        for &b in haystack {
            state = self.step(state, b);
            if state == DEAD {
                return false;
            }
        }
        self.is_accepting(state)
    }
}

/// A scan accelerator derived from a DFA's start state (see
/// [`Dfa::prefilter`]): the set of bytes that keep the start state in
/// place, plus — when exactly one byte makes progress — that byte, which
/// enables a memchr-style word-at-a-time skip.
#[derive(Clone)]
pub struct Prefilter {
    /// `skip[b]`: consuming `b` in the start state stays in the start
    /// state.
    skip: [bool; 256],
    /// The single progress byte, when only one exists (e.g. `'s'` for
    /// `smartmem[0-9]+`).
    single: Option<u8>,
}

impl std::fmt::Debug for Prefilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefilter")
            .field("skippable", &self.skip.iter().filter(|&&s| s).count())
            .field("single", &self.single)
            .finish()
    }
}

impl Prefilter {
    /// Index of the first byte at or after `from` that advances the DFA
    /// out of its start state, or `None` if the rest of the haystack is
    /// all skippable.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "a `u8` index cannot leave the 256-entry table"
    )]
    pub(crate) fn find_progress(&self, haystack: &[u8], from: usize) -> Option<usize> {
        let hay = haystack.get(from..)?;
        match self.single {
            Some(b) => find_byte(hay, b).map(|p| from + p),
            None => hay
                .iter()
                .position(|&x| !self.skip[x as usize])
                .map(|p| from + p),
        }
    }
}

/// SWAR memchr: scan for `needle` eight bytes at a time using the
/// classic `(x - 0x01…) & !x & 0x80…` zero-byte trick (no `unsafe`, no
/// platform intrinsics; the workspace forbids unsafe code).
#[expect(clippy::expect_used, reason = "`chunks_exact(8)` yields 8-byte chunks")]
fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let broadcast = LO.wrapping_mul(needle as u64);
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        let x = word ^ broadcast;
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            // from_le_bytes + trailing_zeros keeps this endian-correct.
            return Some(base + (hit.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&x| x == needle)
        .map(|p| base + p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn dfa_for(pattern: &str) -> (Dfa, bool) {
        let parsed = parse(pattern).unwrap();
        let nfa = Nfa::from_ast(&parsed.ast, !parsed.anchored_start);
        (Dfa::determinize(&nfa, 8192).unwrap(), parsed.anchored_end)
    }

    #[test]
    fn literal_search() {
        let (dfa, _) = dfa_for("needle");
        assert!(dfa.matches_prefix_free(b"hay needle hay"));
        assert!(!dfa.matches_prefix_free(b"haystack"));
    }

    #[test]
    fn shortest_match_is_leftmost() {
        let (dfa, _) = dfa_for("ab");
        assert_eq!(dfa.shortest_match_end(b"zzabzzab"), Some(4));
    }

    #[test]
    fn anchored_end() {
        let (dfa, anchored_end) = dfa_for("abc$");
        assert!(anchored_end);
        assert!(dfa.accepts_at_end(b"zzzabc"));
        assert!(!dfa.accepts_at_end(b"abczzz"));
    }

    #[test]
    fn start_anchored_dies_cleanly() {
        let (dfa, _) = dfa_for("^abc");
        assert!(dfa.matches_prefix_free(b"abcdef"));
        assert!(!dfa.matches_prefix_free(b"zabc"));
    }

    #[test]
    fn prefilter_exists_for_rare_first_byte() {
        let (dfa, _) = dfa_for("smartmem[0-9]+");
        let pf = dfa.prefilter().expect("one progress byte");
        assert_eq!(pf.single, Some(b's'));
        assert_eq!(pf.find_progress(b"aaasaaa", 0), Some(3));
        assert_eq!(pf.find_progress(b"aaasaaa", 4), None);
        assert_eq!(pf.find_progress(b"", 0), None);
    }

    #[test]
    fn prefilter_absent_when_it_cannot_pay() {
        // Start-anchored: non-progress bytes go DEAD, not back to start.
        let (dfa, _) = dfa_for("^abc");
        assert!(dfa.prefilter().is_none(), "anchored start has no skip set");
        // Empty pattern: start accepts.
        let (dfa, _) = dfa_for("");
        assert!(dfa.prefilter().is_none(), "accepting start never skips");
        // `.` makes every byte a progress byte.
        let (dfa, _) = dfa_for(".x");
        assert!(dfa.prefilter().is_none(), "dense progress set never skips");
    }

    #[test]
    fn prefiltered_match_agrees_with_plain_walk() {
        for pattern in ["smartmem[0-9]+", "ab+c", "x(y|z)", "needle"] {
            let (dfa, _) = dfa_for(pattern);
            let Some(pf) = dfa.prefilter() else {
                panic!("{pattern} should produce a prefilter");
            };
            let haystacks: Vec<&[u8]> = vec![
                b"",
                b"smartmem42",
                b"zzzzzzzzzzzzzzzzsmartmem7zz",
                b"smartmem",
                b"abbbbc",
                b"xy xz",
                b"a needle in a haystack",
                b"nnneeedle",
                b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0",
                b"sssssssssssssssss",
                b"ending in s",
            ];
            for hay in haystacks {
                assert_eq!(
                    dfa.matches_prefix_free_with(hay, &pf),
                    dfa.matches_prefix_free(hay),
                    "pattern {pattern:?} haystack {hay:?}"
                );
            }
        }
    }

    #[test]
    fn find_byte_matches_naive_scan() {
        // Cross every alignment/length against the naive position().
        let hay: Vec<u8> = (0..64u8).map(|i| i % 7).collect();
        for start in 0..hay.len() {
            for needle in 0..7u8 {
                assert_eq!(
                    find_byte(&hay[start..], needle),
                    hay[start..].iter().position(|&x| x == needle),
                    "start {start} needle {needle}"
                );
            }
        }
        assert_eq!(find_byte(b"", 0), None);
        assert_eq!(find_byte(b"abc", b'q'), None);
    }

    #[test]
    fn state_budget() {
        let parsed = parse("abcd").unwrap();
        let nfa = Nfa::from_ast(&parsed.ast, true);
        assert!(matches!(
            Dfa::determinize(&nfa, 3),
            Err(RegexError::TooComplex { limit: 3 })
        ));
    }

    /// Every syntactic shape the parser accepts, the workload's pattern
    /// (`fv_workload::REGEX_PATTERN`), and one wide alternation.
    fn corpus() -> Vec<String> {
        let mut patterns: Vec<String> = [
            "",
            "a",
            "needle",
            "smartmem[0-9]+",
            ".",
            "a.c",
            ".*x.*",
            "[a-c]x[^0-9]",
            "[^a]",
            "[^\\x00-\\x7f]+",
            "[a-zA-Z_][a-zA-Z0-9_]*",
            "cat|dog|bird",
            "(cat|dog)food",
            "ab*c",
            "ab+c",
            "ab?c",
            "(a|b)*abb",
            "a{3}",
            "a{2,4}b",
            "x{2,}",
            "^abc",
            "abc$",
            "^abc$",
            "^MEDIUM POLISHED.*",
            "^(a|b)*a(a|b){3}$",
            "\\d+\\.\\d+",
            "\\w+\\s\\w+",
        ]
        .iter()
        .map(|p| p.to_string())
        .collect();
        // 200 alternatives, `a0|a1|..|t9`: short, because every state of
        // an unanchored alternation drags all 200 entry states along and
        // the per-byte oracle pays for each of them 256 times.
        let words: Vec<String> = (0..200u8)
            .map(|i| format!("{}{}", char::from(b'a' + i / 10), i % 10))
            .collect();
        patterns.push(words.join("|"));
        patterns
    }

    fn nfa_for(pattern: &str) -> Nfa {
        let parsed = parse(pattern).unwrap_or_else(|e| panic!("{pattern:?}: {e}"));
        Nfa::from_ast(&parsed.ast, !parsed.anchored_start)
    }

    /// The class-wise construction is the per-byte one, bit for bit:
    /// same start, same accepting set, same table (hence same state
    /// numbering and count) and same prefilter.
    #[test]
    fn byte_class_construction_equals_per_byte_construction() {
        for pattern in corpus() {
            let nfa = nfa_for(&pattern);
            let fast = Dfa::determinize(&nfa, 8192).unwrap();
            let slow = Dfa::determinize_per_byte(&nfa, 8192).unwrap();
            assert_eq!(fast.start, slow.start, "{pattern:?}: start");
            assert_eq!(fast.state_count(), slow.state_count(), "{pattern:?}");
            assert_eq!(fast.accepting, slow.accepting, "{pattern:?}: accepting");
            assert_eq!(fast.transitions, slow.transitions, "{pattern:?}: table");
            assert_eq!(
                format!("{:?}", fast.prefilter()),
                format!("{:?}", slow.prefilter()),
                "{pattern:?}: prefilter"
            );
        }
    }

    /// `TooComplex` trips at exactly the limit it used to: one state
    /// short fails on both constructions, the exact count succeeds.
    #[test]
    fn state_budget_trips_at_the_same_limit() {
        for pattern in corpus() {
            let nfa = nfa_for(&pattern);
            let needed = Dfa::determinize(&nfa, 8192).unwrap().state_count();
            for limit in [1, needed - 1, needed] {
                let fast = Dfa::determinize(&nfa, limit).map(|d| d.transitions);
                let slow = Dfa::determinize_per_byte(&nfa, limit).map(|d| d.transitions);
                assert_eq!(fast, slow, "{pattern:?} at limit {limit}");
                assert_eq!(
                    fast.is_err(),
                    limit < needed,
                    "{pattern:?} needs {needed}, limit {limit}"
                );
            }
        }
    }

    /// Classes are disjoint, cover the alphabet, come smallest byte
    /// first, and are as coarse as the edges allow.
    #[test]
    fn byte_classes_partition_the_alphabet() {
        for pattern in corpus() {
            let nfa = nfa_for(&pattern);
            let classes = byte_classes(&nfa);
            let mut union = ByteSet::empty();
            for (first, class) in &classes {
                assert_eq!(class.iter().next(), Some(*first), "{pattern:?}: first");
                assert!(union.intersect(class).is_empty(), "{pattern:?}: overlap");
                union = union.union(class);
            }
            assert_eq!(union, ByteSet::full(), "{pattern:?}: cover");
            assert!(
                classes.windows(2).all(|w| w[0].0 < w[1].0),
                "{pattern:?}: order"
            );
            // Two classes never agree on every edge.
            let signature = |&(first, _): &(u8, ByteSet)| -> Vec<bool> {
                nfa.states()
                    .iter()
                    .flat_map(|s| &s.byte_edges)
                    .map(|(set, _)| set.contains(first))
                    .collect()
            };
            let mut signatures: Vec<Vec<bool>> = classes.iter().map(signature).collect();
            signatures.sort();
            signatures.dedup();
            assert_eq!(signatures.len(), classes.len(), "{pattern:?}: too fine");
        }
        // s, m, a, r, t, e, the digits, everything else.
        assert_eq!(byte_classes(&nfa_for("smartmem[0-9]+")).len(), 8);
    }

    #[test]
    fn dfa_state_count_is_reasonable() {
        // The classic (a|b)*a(a|b){3} needs 2^4 states as a DFA — subset
        // construction must realize exactly that blowup, no more.
        let parsed = parse("^(a|b)*a(a|b){3}$").unwrap();
        let nfa = Nfa::from_ast(&parsed.ast, false);
        let dfa = Dfa::determinize(&nfa, 8192).unwrap();
        assert!(dfa.state_count() <= 32, "got {}", dfa.state_count());
        // "abbbabbb": the 4th symbol from the end is 'a' -> accepted.
        assert!(dfa.accepts_at_end(b"abbbabbb"));
        // "abbbbbbb": the 4th from the end is 'b' -> rejected.
        assert!(!dfa.accepts_at_end(b"abbbbbbb"));
    }
}
