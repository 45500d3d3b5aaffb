//! Sparse physical memory: storage by physical address, striping as a
//! timing function.
//!
//! Physical addresses form one flat space. Consecutive
//! [`fv_sim::calib::STRIPE_BYTES`]-sized stripes rotate across channels
//! ("allocating memory in a striping pattern across all available memory
//! channels, thus maximizing the available bandwidth to each dynamic
//! region", §4.4), and that is all a channel is here — the pure function
//! [`PhysicalMemory::channel_of`], which burst planning and the DRAM
//! timing model charge against:
//!
//! ```text
//! channel = (paddr / STRIPE_BYTES) % n_channels
//! ```
//!
//! The bytes themselves are kept per 2 MB MMU page
//! ([`fv_sim::calib::PAGE_BYTES`]), each page holding what lies below
//! the highest byte written to it, so a node costs the host what was
//! written and not its capacity: a never-written range reads as zeros,
//! the MMU reserves a page's capacity (untouched) when it hands the page
//! out and [`release`](PhysicalMemory::release)s its bytes when the last
//! mapping goes, so the next owner reads zeros too.

use std::collections::HashMap;
use std::fmt;

use fv_sim::calib::{PAGE_BYTES, STRIPE_BYTES};

/// Channel-interleaved backing store, resident only where written.
pub struct PhysicalMemory {
    n_channels: usize,
    total_bytes: u64,
    /// Page number -> the page's bytes below the highest one written.
    pages: HashMap<u64, Vec<u8>>,
}

/// The page-contiguous spans of the `len` bytes at `paddr`, in address
/// order: `(page, offset within it, length)`.
fn spans(paddr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let end = paddr + len as u64;
    let mut addr = paddr;
    std::iter::from_fn(move || {
        (addr < end).then(|| {
            let (page, off) = (addr / PAGE_BYTES, addr % PAGE_BYTES);
            let take = (PAGE_BYTES - off).min(end - addr);
            addr += take;
            (page, off as usize, take as usize)
        })
    })
}

impl PhysicalMemory {
    /// `n_channels` channels of `channel_bytes` each; nothing is
    /// allocated until something is written.
    ///
    /// # Panics
    /// Panics unless `channel_bytes` is a positive multiple of the stripe
    /// size (hardware channels are stripe-granular).
    pub fn new(n_channels: usize, channel_bytes: u64) -> Self {
        assert!(n_channels > 0, "need at least one channel");
        assert!(
            channel_bytes > 0 && channel_bytes.is_multiple_of(STRIPE_BYTES),
            "channel size must be a positive multiple of the {STRIPE_BYTES}-byte stripe"
        );
        PhysicalMemory {
            n_channels,
            total_bytes: channel_bytes * n_channels as u64,
            pages: HashMap::new(),
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.n_channels
    }

    /// Total capacity across channels.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Which channel serves physical address `paddr`.
    pub fn channel_of(&self, paddr: u64) -> usize {
        ((paddr / STRIPE_BYTES) % self.n_channels as u64) as usize
    }

    /// Bytes the host holds for this memory: the written extent of every
    /// page, not the capacity reserved beyond it.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.values().map(|p| p.len() as u64).sum()
    }

    /// Physical ranges are validated by the MMU before they get here; a
    /// violation is a bug.
    fn check_range(&self, what: &str, paddr: u64, len: usize) {
        assert!(
            paddr + len as u64 <= self.total_bytes,
            "physical {what} past end of memory"
        );
    }

    /// The written bytes of the span at `off` in `page`: at most `take`
    /// of them, the rest of the span reads as zeros.
    fn written(&self, page: u64, off: usize, take: usize) -> &[u8] {
        let bytes = self.pages.get(&page).map(Vec::as_slice).unwrap_or_default();
        bytes.get(off..bytes.len().min(off + take)).unwrap_or(&[])
    }

    /// Read `out.len()` bytes starting at `paddr`.
    ///
    /// # Panics
    /// Panics on out-of-range physical addresses.
    pub fn read(&self, paddr: u64, out: &mut [u8]) {
        self.check_range("read", paddr, out.len());
        let mut rest = out;
        for (page, off, take) in spans(paddr, rest.len()) {
            let (span, tail) = rest.split_at_mut(take);
            let written = self.written(page, off, take);
            let (head, zeros) = span.split_at_mut(written.len());
            head.copy_from_slice(written);
            zeros.fill(0);
            rest = tail;
        }
    }

    /// Append the `len` bytes starting at `paddr` to `out` — a read that
    /// writes each byte of a fresh buffer once, where
    /// [`PhysicalMemory::read`] needs it allocated first.
    ///
    /// # Panics
    /// Panics on out-of-range physical addresses.
    pub fn read_append(&self, paddr: u64, len: usize, out: &mut Vec<u8>) {
        self.check_range("read", paddr, len);
        for (page, off, take) in spans(paddr, len) {
            let end = out.len() + take;
            out.extend_from_slice(self.written(page, off, take));
            out.resize(end, 0);
        }
    }

    /// Write `data` starting at `paddr`, allocating the pages it lands
    /// on as far as it reaches.
    ///
    /// # Panics
    /// Panics on out-of-range physical addresses.
    pub fn write(&mut self, paddr: u64, data: &[u8]) {
        self.check_range("write", paddr, data.len());
        let mut rest = data;
        for (page, off, take) in spans(paddr, data.len()) {
            let (span, tail) = rest.split_at(take);
            let bytes = self.pages.entry(page).or_default();
            if bytes.len() < off {
                bytes.resize(off, 0);
            }
            let (over, fresh) = span.split_at(take.min(bytes.len() - off));
            bytes[off..off + over.len()].copy_from_slice(over);
            bytes.extend_from_slice(fresh);
            rest = tail;
        }
    }

    /// Set aside room for the first `bytes` of `page` without touching
    /// it, so writes filling it piecewise never move what is there.
    pub(crate) fn reserve(&mut self, page: u64, bytes: usize) {
        self.pages.entry(page).or_default().reserve_exact(bytes);
    }

    /// Drop everything `page` holds; it reads as zeros again.
    pub fn release(&mut self, page: u64) {
        self.pages.remove(&page);
    }
}

impl fmt::Debug for PhysicalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalMemory")
            .field("n_channels", &self.n_channels)
            .field("total_bytes", &self.total_bytes)
            .field("resident_pages", &self.pages.len())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_rotate_across_channels() {
        let m = PhysicalMemory::new(2, 8 * STRIPE_BYTES);
        assert_eq!(m.channel_of(0), 0);
        assert_eq!(m.channel_of(STRIPE_BYTES - 1), 0);
        assert_eq!(m.channel_of(STRIPE_BYTES), 1);
        assert_eq!(m.channel_of(2 * STRIPE_BYTES), 0);
        assert_eq!(m.channel_of(3 * STRIPE_BYTES), 1);
    }

    #[test]
    fn rw_roundtrip_across_stripe_boundary() {
        let mut m = PhysicalMemory::new(2, 8 * STRIPE_BYTES);
        let data: Vec<u8> = (0..(2 * STRIPE_BYTES + 100))
            .map(|i| (i % 251) as u8)
            .collect();
        let base = STRIPE_BYTES / 2; // deliberately unaligned
        m.write(base, &data);
        let mut back = vec![0u8; data.len()];
        m.read(base, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn channels_hold_disjoint_bytes() {
        let mut m = PhysicalMemory::new(4, 4 * STRIPE_BYTES);
        // Fill each stripe with its index.
        let total = m.total_bytes();
        for stripe in 0..total / STRIPE_BYTES {
            let buf = vec![stripe as u8; STRIPE_BYTES as usize];
            m.write(stripe * STRIPE_BYTES, &buf);
        }
        // Stripe k must live on channel k % 4.
        for stripe in 0..total / STRIPE_BYTES {
            let mut one = [0u8; 1];
            m.read(stripe * STRIPE_BYTES, &mut one);
            assert_eq!(one[0], stripe as u8);
            assert_eq!(m.channel_of(stripe * STRIPE_BYTES), (stripe % 4) as usize);
        }
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn oob_read_panics() {
        let m = PhysicalMemory::new(1, STRIPE_BYTES);
        let mut buf = [0u8; 2];
        m.read(STRIPE_BYTES - 1, &mut buf);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn oob_write_panics() {
        let mut m = PhysicalMemory::new(1, STRIPE_BYTES);
        m.write(STRIPE_BYTES - 1, &[0u8; 2]);
    }

    #[test]
    fn resident_only_where_written_and_zero_once_released() {
        // The paper's node: nothing is resident until something is written.
        let mut m = PhysicalMemory::new(2, 16 << 30);
        m.reserve(9, PAGE_BYTES as usize);
        assert_eq!(m.resident_bytes(), 0, "reserved capacity is untouched");
        let at = 9 * PAGE_BYTES + 100;
        m.write(at, &[7u8; 50]);
        assert_eq!(m.resident_bytes(), 150, "the page's extent: zeros below");
        let mut back = [1u8; 60];
        m.read(at - 5, &mut back);
        assert_eq!(back[..5], [0u8; 5]);
        assert_eq!(back[5..55], [7u8; 50]);
        assert_eq!(back[55..], [0u8; 5], "past the extent reads as zeros");
        m.release(9);
        m.read(at - 5, &mut back);
        assert_eq!((back, m.resident_bytes()), ([0u8; 60], 0));
        assert!(format!("{m:?}").len() < 200, "Debug is a summary");
    }

    #[test]
    fn total_bytes() {
        let m = PhysicalMemory::new(2, 16 * STRIPE_BYTES);
        assert_eq!(m.total_bytes(), 32 * STRIPE_BYTES);
        assert_eq!(m.channel_count(), 2);
    }
}
