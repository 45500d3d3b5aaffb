//! Sparse physical memory: storage by physical address, striping as a
//! timing function, and copy-on-write pages read in place.
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
//! ([`fv_sim::calib::PAGE_BYTES`]), each page an `Arc<Vec<u8>>` holding
//! what lies below the highest byte written to it, so a node costs the
//! host what was written and not its capacity: a never-written range
//! reads as zeros, the MMU reserves a page's capacity (untouched) when it
//! hands the page out and [`release`](PhysicalMemory::release)s its bytes
//! when the last mapping goes, so the next owner reads zeros too.
//!
//! Queries read in place: a [`PageView`] is the pages' `Arc`s and the
//! ranges in them, with unwritten tails read from one static zero page,
//! so no table is copied to be streamed. Pages are copy-on-write —
//! [`write`](PhysicalMemory::write) goes through `Arc::make_mut` — so a
//! page a view holds is copied once, by the writer, and the view keeps
//! the bytes it was taken over. A released page leaves the store at
//! once; a view still holding it keeps its bytes alive until the view
//! drops, and the page's next owner starts from an empty one.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, LazyLock};

use fv_sim::calib::{PAGE_BYTES, STRIPE_BYTES};

/// What the unwritten part of a page reads as; no extent is longer than
/// a page. Allocated zeroed on first use, so it is neither in the binary
/// nor resident until a view reads a tail.
static ZERO_PAGE: LazyLock<Vec<u8>> = LazyLock::new(|| vec![0; PAGE_BYTES as usize]);

/// Channel-interleaved backing store, resident only where written.
pub struct PhysicalMemory {
    n_channels: usize,
    total_bytes: u64,
    /// Page number -> the page's bytes below the highest one written.
    pages: HashMap<u64, Arc<Vec<u8>>>,
}

/// One page-contiguous run of a [`PageView`]: `range` of a page's
/// bytes, shared with the store until it writes, or — with no page — of
/// [`ZERO_PAGE`].
#[derive(Clone)]
struct Extent {
    /// Offset of the run's first byte in the view.
    at: usize,
    page: Option<Arc<Vec<u8>>>,
    range: Range<usize>,
}

impl Extent {
    fn bytes(&self) -> &[u8] {
        let page = self
            .page
            .as_deref()
            .map_or_else(|| ZERO_PAGE.as_slice(), Vec::as_slice);
        page.get(self.range.clone()).unwrap_or_default()
    }
}

/// A read-only view of a run of node memory as its pages hold it: no
/// byte is copied to build one, and no write changes what it reads.
#[derive(Clone, Default)]
pub struct PageView {
    /// In address order.
    extents: Vec<Extent>,
    len: usize,
}

impl PageView {
    /// Bytes in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `range` of `page`, or of the zero page.
    fn push(&mut self, page: Option<&Arc<Vec<u8>>>, range: Range<usize>) {
        if !range.is_empty() {
            let at = self.len;
            self.len += range.len();
            self.extents.push(Extent {
                at,
                page: page.cloned(),
                range,
            });
        }
    }

    /// The view's bytes in `range`, as slices of the extents that hold
    /// them, in order: one slice unless the range crosses a page or the
    /// end of a page's written bytes. `range` lies inside the view: a
    /// caller that asks past its end has planned against another length,
    /// and a debug build says so rather than yield short. Every read of
    /// a view goes through here.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug-only check of the caller's plan"
    )]
    pub fn slices(&self, range: Range<usize>) -> impl Iterator<Item = &[u8]> + '_ {
        debug_assert!(
            range.start <= range.end && range.end <= self.len,
            "{range:?} is not inside a view of {} bytes",
            self.len
        );
        let first = self
            .extents
            .partition_point(|e| e.at + e.range.len() <= range.start);
        self.extents
            .get(first..)
            .unwrap_or_default()
            .iter()
            .take_while(move |e| e.at < range.end)
            .filter_map(move |e| {
                let bytes = e.bytes();
                bytes.get(range.start.saturating_sub(e.at)..(range.end - e.at).min(bytes.len()))
            })
    }

    /// `range` as one slice: borrowed from the page it lies in, or —
    /// only for a range that crosses an extent, such as a row straddling
    /// a 2 MB page — stitched into `scratch`.
    pub fn contiguous<'a>(&'a self, range: Range<usize>, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        let mut pieces = self.slices(range);
        match (pieces.next(), pieces.next()) {
            (Some(one), None) => one,
            (first, second) => {
                scratch.clear();
                let rest = first.into_iter().chain(second).chain(pieces);
                rest.for_each(|piece| scratch.extend_from_slice(piece));
                scratch
            }
        }
    }

    /// The view's bytes, copied into one buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        self.slices(0..self.len).collect::<Vec<_>>().concat()
    }
}

impl From<Vec<u8>> for PageView {
    /// Bytes already on the host — a smart-addressing gather — as a
    /// one-extent view, moved, not copied.
    fn from(bytes: Vec<u8>) -> Self {
        let mut view = PageView::default();
        let len = bytes.len();
        view.push(Some(&Arc::new(bytes)), 0..len);
        view
    }
}

impl fmt::Debug for PageView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageView")
            .field("len", &self.len)
            .field("extents", &self.extents.len())
            .finish()
    }
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
    #[expect(
        clippy::disallowed_macros,
        reason = "the documented contract: node geometry comes from a validated `FarviewConfig`"
    )]
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
    /// page, not the capacity reserved beyond it. A page released while a
    /// [`PageView`] still holds it is not counted — it is no longer node
    /// memory — though its bytes stay on the host until the view drops.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.values().map(|p| p.len() as u64).sum()
    }

    /// Physical ranges are validated by the MMU before they get here; a
    /// violation is a bug.
    #[expect(
        clippy::disallowed_macros,
        reason = "the MMU bounds every physical range first"
    )]
    fn check_range(&self, what: &str, paddr: u64, len: usize) {
        assert!(
            paddr + len as u64 <= self.total_bytes,
            "physical {what} past end of memory"
        );
    }

    /// A view of the `len` bytes starting at `paddr`.
    ///
    /// # Panics
    /// Panics on out-of-range physical addresses.
    pub fn view(&self, paddr: u64, len: usize) -> PageView {
        let mut view = PageView::default();
        self.extend_view(paddr, len, &mut view);
        view
    }

    /// Append the `len` bytes starting at `paddr` to `view`: each page's
    /// written bytes in the span, then zeros for the rest of it.
    pub(crate) fn extend_view(&self, paddr: u64, len: usize, view: &mut PageView) {
        self.check_range("read", paddr, len);
        for (page, off, take) in spans(paddr, len) {
            let page = self.pages.get(&page);
            let written = page.map_or(0, |p| p.len().saturating_sub(off).min(take));
            view.push(page, off..off + written);
            view.push(None, 0..take - written);
        }
    }

    /// Write `data` starting at `paddr`, allocating the pages it lands
    /// on as far as it reaches. A page a [`PageView`] holds is copied
    /// first, so the view keeps reading what it was taken over.
    ///
    /// # Panics
    /// Panics on out-of-range physical addresses.
    pub fn write(&mut self, paddr: u64, data: &[u8]) {
        self.check_range("write", paddr, data.len());
        let mut rest = data;
        for (page, off, take) in spans(paddr, data.len()) {
            let (span, tail) = rest.split_at(take);
            let bytes = Arc::make_mut(self.pages.entry(page).or_default());
            if bytes.len() < off {
                bytes.resize(off, 0);
            }
            let (over, fresh) = span.split_at(take.min(bytes.len() - off));
            #[expect(
                clippy::indexing_slicing,
                reason = "`over` is at most `bytes.len() - off` long, so the range ends in `bytes`"
            )]
            bytes[off..off + over.len()].copy_from_slice(over);
            bytes.extend_from_slice(fresh);
            rest = tail;
        }
    }

    /// Set aside room for the first `bytes` of `page` without touching
    /// it, so writes filling it piecewise never move what is there.
    pub(crate) fn reserve(&mut self, page: u64, bytes: usize) {
        Arc::make_mut(self.pages.entry(page).or_default()).reserve_exact(bytes);
    }

    /// Make `bytes` the contents of `page`, shared with whoever else
    /// holds them: the next write to the page copies it first.
    pub(crate) fn adopt(&mut self, page: u64, bytes: Arc<Vec<u8>>) {
        self.pages.insert(page, bytes);
    }

    /// Drop the store's hold on everything `page` holds; it reads as
    /// zeros again. Views taken before keep their bytes.
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

    fn read(m: &PhysicalMemory, paddr: u64, len: usize) -> Vec<u8> {
        m.view(paddr, len).to_vec()
    }

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
        assert_eq!(read(&m, base, data.len()), data);
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
            assert_eq!(read(&m, stripe * STRIPE_BYTES, 1), [stripe as u8]);
            assert_eq!(m.channel_of(stripe * STRIPE_BYTES), (stripe % 4) as usize);
        }
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn oob_read_panics() {
        let m = PhysicalMemory::new(1, STRIPE_BYTES);
        m.view(STRIPE_BYTES - 1, 2);
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
        let back = read(&m, at - 5, 60);
        assert_eq!(back[..5], [0u8; 5]);
        assert_eq!(back[5..55], [7u8; 50]);
        assert_eq!(back[55..], [0u8; 5], "past the extent reads as zeros");
        m.release(9);
        assert_eq!(
            (read(&m, at - 5, 60), m.resident_bytes()),
            (vec![0u8; 60], 0)
        );
        assert!(format!("{m:?}").len() < 200, "Debug is a summary");
    }

    /// A view shares the page, and copy-on-write keeps it: a write after
    /// the view is taken copies the page once, the view reads the old
    /// bytes, the store the new; a release leaves the view its bytes.
    #[test]
    fn a_view_keeps_its_bytes_across_writes_and_release() {
        let mut m = PhysicalMemory::new(2, 4 * PAGE_BYTES);
        m.write(PAGE_BYTES - 8, &[1u8; 16]);
        let view = m.view(PAGE_BYTES - 12, 24);
        let pieces: Vec<&[u8]> = view.slices(0..24).collect();
        assert_eq!(
            pieces,
            [&[0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1][..], &[1; 8], &[0; 4]],
            "each page's written bytes, then the zero tail past them"
        );
        let held = m.pages[&0].as_ptr();
        assert_eq!(
            pieces[0].as_ptr(),
            held.wrapping_add(PAGE_BYTES as usize - 12)
        );
        m.write(PAGE_BYTES - 8, &[2u8; 16]);
        assert_ne!(m.pages[&0].as_ptr(), held, "the writer copied the page");
        assert_eq!(view.to_vec()[4..20], [1u8; 16], "the view did not move");
        m.release(1);
        assert_eq!(m.resident_bytes(), PAGE_BYTES);
        assert_eq!(read(&m, PAGE_BYTES, 8), [0u8; 8]);
        assert_eq!(view.to_vec()[12..20], [1u8; 8], "released under the view");
        let mut scratch = Vec::new();
        assert_eq!(view.contiguous(10..14, &mut scratch), [1u8; 4]);
        assert_eq!(scratch, [1u8; 4], "a range across the page is stitched");
        assert_eq!(
            view.contiguous(14..18, &mut scratch).as_ptr(),
            pieces[1][2..].as_ptr()
        );
        assert_eq!(view.slices(20..24).collect::<Vec<_>>(), [&[0u8; 4][..]]);
        assert!(PageView::default().slices(0..0).next().is_none());
    }

    /// A range past the view's end is a plan made against another length;
    /// it fails loudly instead of yielding fewer bytes.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not inside a view of 24 bytes")]
    fn a_range_past_the_view_is_refused() {
        let mut m = PhysicalMemory::new(2, 4 * PAGE_BYTES);
        m.write(0, &[1u8; 16]);
        let _ = m.view(0, 24).slices(20..40).count();
    }

    #[test]
    fn total_bytes() {
        let m = PhysicalMemory::new(2, 16 * STRIPE_BYTES);
        assert_eq!(m.total_bytes(), 32 * STRIPE_BYTES);
        assert_eq!(m.channel_count(), 2);
    }
}
