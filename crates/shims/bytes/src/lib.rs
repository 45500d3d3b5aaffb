//! Offline drop-in subset of the `bytes` crate.
//!
//! Provides [`Bytes`]: a cheaply cloneable, immutable, contiguous byte
//! buffer, held as **a shared buffer plus a range** into it. Cloning and
//! [`Bytes::slice`] bump a refcount and narrow the range; neither touches
//! the bytes. That is the property the network stack is built on: the
//! sender freezes one pipeline drain and every 1 kB packet cut from it is
//! a view of that one allocation, alive for as long as any packet is.
//!
//! [`From<Vec<u8>>`](Bytes#impl-From<Vec<u8>>-for-Bytes) **takes** the
//! `Vec` — it must not copy. The shim used to hold an `Arc<[u8]>`, whose
//! conversion from a `Vec` allocates a second buffer and copies every
//! byte into it; on the result path that was one allocation and one copy
//! per packet. The buffer is an `Arc<Vec<u8>>` instead: freezing moves
//! three words. `&'static` data needs no allocation and no refcount at
//! all.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable immutable byte buffer: shared storage and the
/// range of it this handle views.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    /// Borrowed from static storage (no allocation, no refcount); a
    /// slice of it is just a shorter static slice.
    Static(&'static [u8]),
    /// `buf[start..end]` of shared heap storage; clones and slices bump
    /// the refcount. `start <= end <= buf.len()` always holds.
    Shared {
        buf: Arc<Vec<u8>>,
        start: usize,
        end: usize,
    },
}

impl Bytes {
    /// An empty buffer.
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Borrow static data without copying.
    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes(Repr::Static(data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Static(s) => s.len(),
            Repr::Shared { start, end, .. } => end - start,
        }
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View the contents as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared { buf, start, end } => &buf[*start..*end],
        }
    }

    /// A view of `range` of this buffer (indices relative to `self`)
    /// sharing its storage: a refcount bump, never a copy.
    ///
    /// # Panics
    /// Panics when the range is decreasing or ends past `self.len()`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let from = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("range start overflows"),
            Bound::Unbounded => 0,
        };
        let to = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("range end overflows"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            from <= to && to <= len,
            "slice {from}..{to} out of range for Bytes of length {len}"
        );
        Bytes(match &self.0 {
            Repr::Static(s) => Repr::Static(&s[from..to]),
            Repr::Shared { buf, start, .. } => Repr::Shared {
                buf: Arc::clone(buf),
                start: start + from,
                end: start + to,
            },
        })
    }

    /// True when both handles view the same heap allocation (whatever
    /// their ranges). Static and empty-static handles own no allocation
    /// and share with nothing.
    pub fn shares_storage_with(&self, other: &Bytes) -> bool {
        match (&self.0, &other.0) {
            (Repr::Shared { buf: a, .. }, Repr::Shared { buf: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// True when this handle borrows `&'static` data.
    pub fn is_static(&self) -> bool {
        matches!(self.0, Repr::Static(_))
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Freeze `v` without copying it: the `Vec` moves behind the
    /// refcount as it is.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes(Repr::Shared {
            buf: Arc::new(v),
            start: 0,
            end,
        })
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        if self.len() > 32 {
            write!(f, "..")?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::from_static(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clone_is_shallow() {
        let a = Bytes::from(vec![0u8; 1024]);
        let b = a.clone();
        assert!(a.shares_storage_with(&b), "heap buffers share storage");
    }

    #[test]
    fn from_vec_takes_the_allocation() {
        let v = vec![7u8; 4096];
        let data = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_slice().as_ptr(), data, "freezing must not copy");
    }

    #[test]
    fn deref_to_slice() {
        let a = Bytes::from(vec![9u8, 8]);
        assert_eq!(&a[..], &[9, 8]);
        assert_eq!(a.to_vec(), vec![9, 8]);
    }

    #[test]
    fn slice_shares_storage_with_its_parent() {
        let a = Bytes::from((0u8..100).collect::<Vec<_>>());
        let mid = a.slice(10..20);
        assert!(mid.shares_storage_with(&a));
        assert_eq!(&mid[..], &(10u8..20).collect::<Vec<_>>()[..]);
        assert_eq!(mid.as_slice().as_ptr(), a[10..].as_ptr());
        // The view keeps the allocation alive on its own.
        drop(a);
        assert_eq!(mid[0], 10);
    }

    #[test]
    fn empty_and_full_ranges() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(a.slice(..), a);
        assert_eq!(a.slice(0..4), a);
        assert_eq!(a.slice(..=3), a);
        assert!(a.slice(2..2).is_empty());
        assert!(a.slice(4..).is_empty(), "an empty view at the very end");
        assert!(a.slice(4..).shares_storage_with(&a));
    }

    #[test]
    fn slice_of_a_slice_is_relative_to_the_slice() {
        let a = Bytes::from((0u8..32).collect::<Vec<_>>());
        let outer = a.slice(8..24);
        let inner = outer.slice(4..8);
        assert_eq!(&inner[..], &[12, 13, 14, 15]);
        assert!(inner.shares_storage_with(&a));
        assert_eq!(inner.len(), 4);
    }

    #[test]
    fn static_stays_static() {
        let s = Bytes::from_static(b"hello world");
        let w = s.slice(6..);
        assert!(w.is_static());
        assert_eq!(&w[..], b"world");
        assert!(!w.shares_storage_with(&s), "static data owns no allocation");
        assert!(Bytes::new().slice(..).is_static());
        assert!(!Bytes::from(vec![1u8]).is_static());
    }

    #[test]
    #[should_panic(expected = "out of range for Bytes of length 4")]
    fn slice_past_the_end_panics() {
        let _ = Bytes::from(vec![0u8; 4]).slice(2..5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_a_views_end_panics_even_inside_the_buffer() {
        // The parent buffer has the bytes; the view does not.
        let _ = Bytes::from(vec![0u8; 16]).slice(0..4).slice(0..8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decreasing_range_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = Bytes::from(vec![0u8; 4]).slice(3..1);
    }
}
