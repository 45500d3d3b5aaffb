//! Regex abstract syntax and byte sets.

/// A set of bytes, represented as a 256-bit bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteSet {
    bits: [u64; 4],
}

impl ByteSet {
    /// The empty set.
    pub const fn empty() -> Self {
        ByteSet { bits: [0; 4] }
    }

    /// The full set (what `.` matches; we do not special-case `\n`,
    /// matching the byte-stream semantics of the FPGA engines).
    pub const fn full() -> Self {
        ByteSet {
            bits: [u64::MAX; 4],
        }
    }

    /// A singleton set.
    pub fn single(b: u8) -> Self {
        let mut s = ByteSet::empty();
        s.insert(b);
        s
    }

    /// An inclusive range `[lo, hi]`.
    pub fn range(lo: u8, hi: u8) -> Self {
        let mut s = ByteSet::empty();
        for b in lo..=hi {
            s.insert(b);
        }
        s
    }

    /// Insert one byte.
    pub fn insert(&mut self, b: u8) {
        if let Some(w) = self.bits.get_mut(usize::from(b >> 6)) {
            *w |= 1u64 << (b & 63);
        }
    }

    /// Membership test.
    pub fn contains(&self, b: u8) -> bool {
        self.bits
            .get(usize::from(b >> 6))
            .is_some_and(|w| w & (1u64 << (b & 63)) != 0)
    }

    /// Combine with `other` word by word.
    fn zip_with(&self, other: &ByteSet, f: impl Fn(u64, u64) -> u64) -> ByteSet {
        let mut bits = self.bits;
        for (w, o) in bits.iter_mut().zip(other.bits) {
            *w = f(*w, o);
        }
        ByteSet { bits }
    }

    /// Set union.
    pub fn union(&self, other: &ByteSet) -> ByteSet {
        self.zip_with(other, |a, b| a | b)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &ByteSet) -> ByteSet {
        self.zip_with(other, |a, b| a & b)
    }

    /// Set difference: the members of `self` not in `other`.
    pub fn minus(&self, other: &ByteSet) -> ByteSet {
        self.zip_with(other, |a, b| a & !b)
    }

    /// Complement.
    pub fn negate(&self) -> ByteSet {
        ByteSet {
            bits: self.bits.map(|w| !w),
        }
    }

    /// Number of bytes in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == [0; 4]
    }

    /// Iterate over member bytes in ascending order (one step per
    /// member: each word gives up its lowest set bit in turn).
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bits
            .iter()
            .zip([0u8, 64, 128, 192])
            .flat_map(|(&word, base)| {
                std::iter::successors(Some(word), |w| Some(w & w.wrapping_sub(1)))
                    .take_while(|&w| w != 0)
                    .map(move |w| base + w.trailing_zeros() as u8)
            })
    }
}

/// Parsed regex syntax tree.
///
/// Counted repeats are desugared by the parser (`a{2,4}` becomes
/// `aaa?a?`), so the tree only carries the Kleene primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// Matches one byte from the set.
    Class(ByteSet),
    /// Concatenation, in order.
    Concat(Vec<Ast>),
    /// Alternation.
    Alt(Vec<Ast>),
    /// Zero or more.
    Star(Box<Ast>),
    /// One or more.
    Plus(Box<Ast>),
    /// Zero or one.
    Question(Box<Ast>),
}

impl Ast {
    /// Convenience: a single-byte literal.
    pub fn literal(b: u8) -> Ast {
        Ast::Class(ByteSet::single(b))
    }

    /// Convenience: a literal byte string.
    pub fn literal_str(s: &[u8]) -> Ast {
        Ast::Concat(s.iter().map(|&b| Ast::literal(b)).collect())
    }

    /// Size of the tree in nodes (used to bound desugared repeats).
    pub fn node_count(&self) -> usize {
        match self {
            Ast::Empty | Ast::Class(_) => 1,
            Ast::Concat(xs) | Ast::Alt(xs) => 1 + xs.iter().map(Ast::node_count).sum::<usize>(),
            Ast::Star(x) | Ast::Plus(x) | Ast::Question(x) => 1 + x.node_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byteset_basics() {
        let mut s = ByteSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(255);
        assert_eq!(s.len(), 4);
        for b in [0u8, 63, 64, 255] {
            assert!(s.contains(b));
        }
        assert!(!s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 255]);
    }

    #[test]
    fn range_and_negate() {
        let digits = ByteSet::range(b'0', b'9');
        assert_eq!(digits.len(), 10);
        let not_digits = digits.negate();
        assert_eq!(not_digits.len(), 246);
        assert!(not_digits.contains(b'a'));
        assert!(!not_digits.contains(b'5'));
        assert_eq!(ByteSet::full().len(), 256);
    }

    #[test]
    fn union() {
        let s = ByteSet::range(b'a', b'c').union(&ByteSet::single(b'z'));
        assert_eq!(s.len(), 4);
        assert!(s.contains(b'z'));
    }

    #[test]
    fn intersect_and_minus_split_a_set() {
        let lower = ByteSet::range(b'a', b'z');
        let a_to_m = ByteSet::range(0, b'm');
        let inside = lower.intersect(&a_to_m);
        let outside = lower.minus(&a_to_m);
        assert_eq!(inside, ByteSet::range(b'a', b'm'));
        assert_eq!(outside, ByteSet::range(b'n', b'z'));
        assert_eq!(inside.union(&outside), lower);
        assert!(inside.intersect(&outside).is_empty());
    }

    #[test]
    fn iter_is_ascending_across_words() {
        let every: Vec<u8> = ByteSet::full().iter().collect();
        assert_eq!(every, (0..=255u8).collect::<Vec<_>>());
        assert_eq!(ByteSet::empty().iter().next(), None);
        let odd: Vec<u8> = ByteSet::full()
            .minus(&ByteSet::range(0, 254))
            .union(&ByteSet::single(63))
            .union(&ByteSet::single(64))
            .iter()
            .collect();
        assert_eq!(odd, vec![63, 64, 255]);
    }

    #[test]
    fn node_count() {
        let ast = Ast::Concat(vec![
            Ast::literal(b'a'),
            Ast::Star(Box::new(Ast::literal(b'b'))),
        ]);
        assert_eq!(ast.node_count(), 4);
    }
}
