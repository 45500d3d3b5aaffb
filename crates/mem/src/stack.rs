//! The MMU: domains, page tables, allocation, protection, and burst
//! planning.
//!
//! "The central part of this stack is the MMU, which is responsible for
//! all memory address translations to a shared dynamically allocated
//! memory ... It provides parallel interfaces, isolation and protection
//! for the requests stemming from different dynamic regions" (§4.4).
//!
//! Each dynamic region / queue pair gets a *protection domain* with its
//! own virtual address space; pages are naturally aligned 2 MB units
//! allocated from a shared physical pool. Sharing ("This dynamically
//! allocated memory can also be shared between different queue pairs",
//! §4.3) maps the same physical pages into a second domain, with
//! reference counting so pages return to the pool only after the last
//! unmap — and zeroed: their bytes are dropped with that mapping.
//!
//! Queries read through [`MemoryStack::view`]: the bounds check and
//! per-page translations of a read, yielding the pages themselves
//! instead of a copy. Pages are copy-on-write, so a view is a snapshot —
//! a write, a free or a domain's teardown after it is taken changes
//! nothing it reads, and the page's next owner still starts from zeros.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

use fv_sim::calib::{MEM_BURST_BYTES, PAGE_BYTES, STRIPE_BYTES, TLB_ENTRIES};

use crate::error::MemError;
use crate::phys::{PageView, PhysicalMemory};
use crate::tlb::Tlb;

/// Protection-domain id (one per dynamic region / queue pair).
pub type DomainId = u32;

/// A virtual address inside a domain's address space.
pub type VirtAddr = u64;

/// TLB counters snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Translations served from the TLB.
    pub hits: u64,
    /// Translations requiring a page-table walk.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
}

/// One planned memory burst: the unit the simulator charges to a DRAM
/// channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstReq {
    /// Which channel serves this burst (stripe interleaving).
    pub channel: usize,
    /// Starting physical address.
    pub paddr: u64,
    /// Burst length in bytes (≤ [`MEM_BURST_BYTES`]).
    pub bytes: u64,
    /// Whether the translation hit the TLB.
    pub tlb_hit: bool,
}

#[derive(Debug, Clone)]
struct Allocation {
    bytes: u64,
    /// Physical page numbers backing this allocation, in vpage order.
    ppages: Vec<u64>,
}

#[derive(Debug, Clone, Default)]
struct Domain {
    /// vpage -> ppage.
    page_table: HashMap<u64, u64>,
    /// Base vaddr -> allocation record, ordered so the allocation
    /// containing an address is the last one based at or below it.
    allocations: BTreeMap<VirtAddr, Allocation>,
    /// Bump pointer for fresh virtual ranges (starts past page 0 so a
    /// zero vaddr is always invalid, catching uninitialized handles).
    next_vaddr: u64,
}

/// The memory stack: physical channels + MMU + TLB.
#[derive(Debug)]
pub struct MemoryStack {
    phys: PhysicalMemory,
    domains: HashMap<DomainId, Domain>,
    next_domain: DomainId,
    /// Free physical page numbers; `pop` hands out the lowest one
    /// (deterministic layout).
    free_pages: BinaryHeap<Reverse<u64>>,
    /// Physical page -> number of domains mapping it.
    page_refs: HashMap<u64, u32>,
    tlb: Tlb,
}

impl MemoryStack {
    /// A stack over `n_channels` channels of `channel_bytes` each, with
    /// the default TLB capacity.
    pub fn new(n_channels: usize, channel_bytes: u64) -> Self {
        Self::with_tlb_capacity(n_channels, channel_bytes, TLB_ENTRIES)
    }

    /// As [`MemoryStack::new`] with an explicit TLB capacity (used by the
    /// TLB ablation bench).
    #[expect(
        clippy::disallowed_macros,
        reason = "geometry comes from a validated `FarviewConfig`"
    )]
    pub fn with_tlb_capacity(n_channels: usize, channel_bytes: u64, tlb_entries: usize) -> Self {
        let phys = PhysicalMemory::new(n_channels, channel_bytes);
        let total_pages = phys.total_bytes() / PAGE_BYTES;
        assert!(total_pages > 0, "memory smaller than one 2 MB page");
        let free_pages = (0..total_pages).map(Reverse).collect();
        MemoryStack {
            phys,
            domains: HashMap::new(),
            next_domain: 0,
            free_pages,
            page_refs: HashMap::new(),
            tlb: Tlb::new(tlb_entries),
        }
    }

    /// Number of DRAM channels.
    pub fn channel_count(&self) -> usize {
        self.phys.channel_count()
    }

    /// Free pages remaining in the pool.
    pub fn free_page_count(&self) -> u64 {
        self.free_pages.len() as u64
    }

    /// Bytes of host memory the node's DRAM occupies: what was written
    /// to pages still mapped somewhere.
    pub fn resident_bytes(&self) -> u64 {
        self.phys.resident_bytes()
    }

    /// Create a new protection domain (one per connection/region).
    pub fn create_domain(&mut self) -> DomainId {
        let id = self.next_domain;
        self.next_domain += 1;
        self.domains.insert(
            id,
            Domain {
                next_vaddr: PAGE_BYTES,
                ..Domain::default()
            },
        );
        id
    }

    /// Tear a domain down, unmapping everything it still holds.
    pub fn destroy_domain(&mut self, domain: DomainId) -> Result<(), MemError> {
        let d = self
            .domains
            .remove(&domain)
            .ok_or(MemError::NoSuchDomain(domain))?;
        for alloc in d.allocations.values() {
            for &p in &alloc.ppages {
                self.release_page(p);
            }
        }
        self.tlb.flush_domain(domain);
        Ok(())
    }

    #[expect(
        clippy::expect_used,
        reason = "every mapped page is counted in `page_refs` until its last release"
    )]
    fn release_page(&mut self, ppage: u64) {
        let refs = self
            .page_refs
            .get_mut(&ppage)
            .expect("released page must be ref-counted");
        *refs -= 1;
        if *refs == 0 {
            self.page_refs.remove(&ppage);
            // The next owner must read zeros, not this one's bytes.
            self.phys.release(ppage);
            self.free_pages.push(Reverse(ppage));
        }
    }

    fn domain_mut(&mut self, domain: DomainId) -> Result<&mut Domain, MemError> {
        self.domains
            .get_mut(&domain)
            .ok_or(MemError::NoSuchDomain(domain))
    }

    /// Map `bytes` (rounded up to whole pages) of free pages into
    /// `domain`, returning the base virtual address; with `reserve`,
    /// set each page's capacity aside so writes filling it piecewise
    /// never move its bytes.
    fn map_fresh(
        &mut self,
        domain: DomainId,
        bytes: u64,
        reserve: bool,
    ) -> Result<VirtAddr, MemError> {
        if bytes == 0 {
            return Err(MemError::EmptyAllocation);
        }
        if !self.domains.contains_key(&domain) {
            return Err(MemError::NoSuchDomain(domain));
        }
        let pages = crate::pages_for(bytes);
        if pages > self.free_pages.len() as u64 {
            return Err(MemError::OutOfMemory {
                requested_pages: pages,
                free_pages: self.free_pages.len() as u64,
            });
        }
        let ppages: Vec<u64> = (0..pages)
            .map_while(|_| self.free_pages.pop())
            .map(|Reverse(p)| p)
            .collect();
        for (i, &p) in ppages.iter().enumerate() {
            *self.page_refs.entry(p).or_insert(0) += 1;
            if reserve {
                let in_page = (bytes - i as u64 * PAGE_BYTES).min(PAGE_BYTES);
                self.phys.reserve(p, in_page as usize);
            }
        }
        let d = self.domain_mut(domain)?;
        let vaddr = d.next_vaddr;
        d.next_vaddr += pages * PAGE_BYTES;
        for (i, &p) in ppages.iter().enumerate() {
            d.page_table.insert(vaddr / PAGE_BYTES + i as u64, p);
        }
        d.allocations.insert(vaddr, Allocation { bytes, ppages });
        Ok(vaddr)
    }

    /// Allocate `bytes` (rounded up to whole pages) in `domain`,
    /// returning the base virtual address.
    pub fn alloc(&mut self, domain: DomainId, bytes: u64) -> Result<VirtAddr, MemError> {
        self.map_fresh(domain, bytes, true)
    }

    /// Allocate `bytes` in `domain` with `pages` as the contents of its
    /// first pages, in order — a table staged from chunks already cut at
    /// page boundaries, taking no copy. The pages stay shared with the
    /// caller's chunks until a write copies one
    /// ([`PhysicalMemory::write`] is copy-on-write), so nothing written
    /// here ever reaches them. Each adopted page is translated once, in
    /// address order, so the TLB holds what writing the bytes would
    /// have left in it.
    ///
    /// # Errors
    /// As [`MemoryStack::alloc`], and [`MemError::OutOfBounds`] — with
    /// nothing allocated — when a chunk is longer than the allocation
    /// leaves its page, or one before the last is not a whole page (the
    /// bytes after it would land at the wrong addresses).
    pub fn adopt(
        &mut self,
        domain: DomainId,
        bytes: u64,
        pages: &[Arc<Vec<u8>>],
    ) -> Result<VirtAddr, MemError> {
        for (i, chunk) in pages.iter().enumerate() {
            let start = i as u64 * PAGE_BYTES;
            let room = bytes.saturating_sub(start).min(PAGE_BYTES);
            let short = i + 1 < pages.len() && chunk.len() as u64 != PAGE_BYTES;
            if chunk.len() as u64 > room || short {
                return Err(MemError::OutOfBounds {
                    vaddr: 0,
                    alloc_len: bytes,
                    access_end: start + chunk.len() as u64,
                });
            }
        }
        let vaddr = self.map_fresh(domain, bytes, false)?;
        for (i, chunk) in pages.iter().enumerate() {
            let (pa, _) = self.translate(domain, vaddr + i as u64 * PAGE_BYTES)?;
            self.phys.adopt(pa / PAGE_BYTES, Arc::clone(chunk));
        }
        Ok(vaddr)
    }

    /// Free the allocation based at `vaddr` in `domain`. Physical pages
    /// return to the pool once their last mapping (across shares) is
    /// gone.
    pub fn free(&mut self, domain: DomainId, vaddr: VirtAddr) -> Result<(), MemError> {
        let alloc = {
            let d = self.domain_mut(domain)?;
            let alloc = d
                .allocations
                .remove(&vaddr)
                .ok_or(MemError::NoSuchAllocation { domain, vaddr })?;
            for i in 0..alloc.ppages.len() as u64 {
                d.page_table.remove(&(vaddr / PAGE_BYTES + i));
            }
            alloc
        };
        for i in 0..alloc.ppages.len() as u64 {
            self.tlb.flush_page((domain, vaddr / PAGE_BYTES + i));
        }
        for &p in &alloc.ppages {
            self.release_page(p);
        }
        Ok(())
    }

    /// Map the allocation based at `vaddr` in `from` into domain `to`,
    /// returning the address it appears at in `to`'s address space.
    pub fn share(
        &mut self,
        from: DomainId,
        vaddr: VirtAddr,
        to: DomainId,
    ) -> Result<VirtAddr, MemError> {
        if !self.domains.contains_key(&to) {
            return Err(MemError::NoSuchDomain(to));
        }
        let alloc = {
            let d = self
                .domains
                .get(&from)
                .ok_or(MemError::NoSuchDomain(from))?;
            d.allocations
                .get(&vaddr)
                .ok_or(MemError::NoSuchAllocation {
                    domain: from,
                    vaddr,
                })?
                .clone()
        };
        for &p in &alloc.ppages {
            *self.page_refs.entry(p).or_insert(0) += 1;
        }
        let d = self.domain_mut(to)?;
        let new_vaddr = d.next_vaddr;
        d.next_vaddr += alloc.ppages.len() as u64 * PAGE_BYTES;
        for (i, &p) in alloc.ppages.iter().enumerate() {
            d.page_table.insert(new_vaddr / PAGE_BYTES + i as u64, p);
        }
        d.allocations.insert(new_vaddr, alloc);
        Ok(new_vaddr)
    }

    /// Translate one virtual address; `(paddr, tlb_hit)`.
    pub fn translate(
        &mut self,
        domain: DomainId,
        vaddr: VirtAddr,
    ) -> Result<(u64, bool), MemError> {
        let vpage = vaddr / PAGE_BYTES;
        if let Some(ppage) = self.tlb.lookup((domain, vpage)) {
            return Ok((ppage * PAGE_BYTES + vaddr % PAGE_BYTES, true));
        }
        let d = self
            .domains
            .get(&domain)
            .ok_or(MemError::NoSuchDomain(domain))?;
        let &ppage = d
            .page_table
            .get(&vpage)
            .ok_or(MemError::AccessFault { domain, vaddr })?;
        self.tlb.insert((domain, vpage), ppage);
        Ok((ppage * PAGE_BYTES + vaddr % PAGE_BYTES, false))
    }

    /// Bounds-check an access of `len` bytes at `vaddr` against the
    /// containing allocation.
    fn check_bounds(&self, domain: DomainId, vaddr: VirtAddr, len: u64) -> Result<(), MemError> {
        let d = self
            .domains
            .get(&domain)
            .ok_or(MemError::NoSuchDomain(domain))?;
        // The allocation containing vaddr (base <= vaddr < base+pages):
        // virtual ranges never overlap, so only the nearest base at or
        // below vaddr can be it.
        let containing = d
            .allocations
            .range(..=vaddr)
            .next_back()
            .filter(|(&base, a)| vaddr < base + a.ppages.len() as u64 * PAGE_BYTES);
        match containing {
            None => Err(MemError::AccessFault { domain, vaddr }),
            Some((&base, a)) => {
                let end = vaddr - base + len;
                if end > a.bytes {
                    Err(MemError::OutOfBounds {
                        vaddr: base,
                        alloc_len: a.bytes,
                        access_end: end,
                    })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Write `data` at `vaddr` in `domain`.
    pub fn write(
        &mut self,
        domain: DomainId,
        vaddr: VirtAddr,
        data: &[u8],
    ) -> Result<(), MemError> {
        self.check_bounds(domain, vaddr, data.len() as u64)?;
        let mut va = vaddr;
        let mut rest = data;
        while !rest.is_empty() {
            let (pa, _) = self.translate(domain, va)?;
            let page_left = (PAGE_BYTES - va % PAGE_BYTES) as usize;
            let (chunk, tail) = rest.split_at(page_left.min(rest.len()));
            self.phys.write(pa, chunk);
            va += chunk.len() as u64;
            rest = tail;
        }
        Ok(())
    }

    /// The `len` bytes at `vaddr` in `domain` as the pages hold them,
    /// copying none: a [`PageView`] that keeps reading these bytes
    /// whatever is written or freed after it is taken. Checks bounds,
    /// then translates once per page in address order — the TLB sees
    /// exactly the sequence a read would make it see.
    pub fn view(
        &mut self,
        domain: DomainId,
        vaddr: VirtAddr,
        len: u64,
    ) -> Result<PageView, MemError> {
        self.check_bounds(domain, vaddr, len)?;
        let mut view = PageView::default();
        let mut off = 0u64;
        while off < len {
            let va = vaddr + off;
            let (pa, _) = self.translate(domain, va)?;
            let take = (PAGE_BYTES - va % PAGE_BYTES).min(len - off);
            self.phys.extend_view(pa, take as usize, &mut view);
            off += take;
        }
        Ok(view)
    }

    /// Read `len` bytes at `vaddr` in `domain` into a fresh buffer: a
    /// copy of [`MemoryStack::view`]'s bytes. Queries stream from the
    /// view; this is for callers that want the bytes to keep.
    pub fn read(
        &mut self,
        domain: DomainId,
        vaddr: VirtAddr,
        len: u64,
    ) -> Result<Vec<u8>, MemError> {
        Ok(self.view(domain, vaddr, len)?.to_vec())
    }

    /// Plan the channel bursts for a streaming read of `len` bytes at
    /// `vaddr`. Bursts never cross a stripe boundary, so each lands on
    /// exactly one channel — this is the schedule the simulator charges.
    pub fn plan_bursts(
        &mut self,
        domain: DomainId,
        vaddr: VirtAddr,
        len: u64,
    ) -> Result<Vec<BurstReq>, MemError> {
        self.check_bounds(domain, vaddr, len)?;
        let mut plan = Vec::with_capacity((len / MEM_BURST_BYTES + 2) as usize);
        let mut va = vaddr;
        let mut remaining = len;
        while remaining > 0 {
            let (pa, tlb_hit) = self.translate(domain, va)?;
            let stripe_left = STRIPE_BYTES - pa % STRIPE_BYTES;
            let page_left = PAGE_BYTES - va % PAGE_BYTES;
            let bytes = remaining
                .min(stripe_left)
                .min(page_left)
                .min(MEM_BURST_BYTES);
            plan.push(BurstReq {
                channel: self.phys.channel_of(pa),
                paddr: pa,
                bytes,
                tlb_hit,
            });
            va += bytes;
            remaining -= bytes;
        }
        Ok(plan)
    }

    /// Current TLB counters.
    pub fn tlb_stats(&self) -> TlbStats {
        let (hits, misses, evictions) = self.tlb.stats();
        TlbStats {
            hits,
            misses,
            evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> MemoryStack {
        // 2 channels x 16 MB = 16 pages.
        MemoryStack::new(2, 16 * 1024 * 1024)
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut m = stack();
        let d = m.create_domain();
        let va = m.alloc(d, 3 * 1024 * 1024).unwrap(); // 2 pages
        let data: Vec<u8> = (0..300_000).map(|i| (i % 241) as u8).collect();
        m.write(d, va, &data).unwrap();
        assert_eq!(m.read(d, va, data.len() as u64).unwrap(), data);
        // Offsetted access within bounds.
        let tail = m.read(d, va + 100, 50).unwrap();
        assert_eq!(&tail[..], &data[100..150]);
    }

    #[test]
    fn read_spanning_a_page_and_several_stripes() {
        use fv_sim::calib::STRIPE_BYTES;
        let mut m = stack();
        let d = m.create_domain();
        // Fragment the free list so the two pages are not physically
        // adjacent: the read must translate again at the page boundary.
        let hole = m.alloc(d, PAGE_BYTES).unwrap();
        let spacer = m.alloc(d, PAGE_BYTES).unwrap();
        m.free(d, hole).unwrap();
        let va = m.alloc(d, 2 * PAGE_BYTES).unwrap();
        m.free(d, spacer).unwrap();
        let data: Vec<u8> = (0..2 * PAGE_BYTES).map(|i| (i % 251) as u8).collect();
        m.write(d, va, &data).unwrap();
        // Starts mid-stripe three stripes before the page boundary, ends
        // mid-stripe three stripes after it.
        let start = PAGE_BYTES - 3 * STRIPE_BYTES - 100;
        let len = 6 * STRIPE_BYTES + 333;
        let got = m.read(d, va + start, len).unwrap();
        assert_eq!(got.len() as u64, len);
        assert_eq!(got, data[start as usize..(start + len) as usize]);
        assert_eq!(got.capacity(), got.len(), "sized once, filled once");
        assert!(m.read(d, va, 0).unwrap().is_empty());
    }

    #[test]
    fn isolation_between_domains() {
        let mut m = stack();
        let d1 = m.create_domain();
        let d2 = m.create_domain();
        let va = m.alloc(d1, 1024).unwrap();
        m.write(d1, va, b"secret").unwrap();
        // Same numeric address in d2 must fault, not read d1's data.
        assert!(matches!(
            m.read(d2, va, 6),
            Err(MemError::AccessFault { .. })
        ));
    }

    /// Adopted chunks become the pages' contents without a copy, count
    /// as resident once, and stay the caller's: a write copies the page
    /// it lands on first. A chunk longer than its page's share of the
    /// allocation, or a short one before the last, is refused with
    /// nothing allocated.
    #[test]
    fn adopted_pages_are_shared_copy_on_write() {
        let mut m = stack();
        let d = m.create_domain();
        let free = m.free_page_count();
        let chunks = [
            Arc::new(vec![7u8; PAGE_BYTES as usize]),
            Arc::new(vec![9u8; 100]),
        ];
        let too_long = m.adopt(d, PAGE_BYTES + 50, &chunks);
        assert!(matches!(too_long, Err(MemError::OutOfBounds { .. })));
        let gap = [Arc::new(vec![7u8; 100]), Arc::new(vec![9u8; 100])];
        let short = m.adopt(d, 3 * PAGE_BYTES, &gap);
        assert!(matches!(short, Err(MemError::OutOfBounds { .. })));
        assert_eq!(m.free_page_count(), free);

        let va = m.adopt(d, PAGE_BYTES + 100, &chunks).unwrap();
        assert_eq!(m.resident_bytes(), PAGE_BYTES + 100);
        let view = m.view(d, va + PAGE_BYTES - 2, 4).unwrap();
        assert_eq!(view.to_vec(), [7, 7, 9, 9]);
        assert_eq!(Arc::strong_count(&chunks[1]), 3, "chunk, page and view");
        m.write(d, va + PAGE_BYTES, &[1, 2]).unwrap();
        assert_eq!(m.read(d, va + PAGE_BYTES, 3).unwrap(), [1, 2, 9]);
        assert_eq!(
            *chunks[1],
            vec![9u8; 100],
            "the write never reached the chunk"
        );
        m.free(d, va).unwrap();
        assert_eq!((m.free_page_count(), m.resident_bytes()), (free, 0));
        drop(view);
        assert_eq!(Arc::strong_count(&chunks[0]), 1);
    }

    #[test]
    fn sharing_maps_same_bytes() {
        let mut m = stack();
        let d1 = m.create_domain();
        let d2 = m.create_domain();
        let va1 = m.alloc(d1, 4096).unwrap();
        m.write(d1, va1, b"shared buffer pool").unwrap();
        let va2 = m.share(d1, va1, d2).unwrap();
        assert_eq!(m.read(d2, va2, 18).unwrap(), b"shared buffer pool");
        // Write through d2 is visible to d1 (same physical page).
        m.write(d2, va2, b"UPDATE").unwrap();
        assert_eq!(&m.read(d1, va1, 6).unwrap()[..], b"UPDATE");
    }

    #[test]
    fn pages_return_to_pool_after_last_unmap() {
        let mut m = stack();
        let before = m.free_page_count();
        let d1 = m.create_domain();
        let d2 = m.create_domain();
        let va1 = m.alloc(d1, 1).unwrap();
        let va2 = m.share(d1, va1, d2).unwrap();
        assert_eq!(m.free_page_count(), before - 1);
        m.free(d1, va1).unwrap();
        assert_eq!(
            m.free_page_count(),
            before - 1,
            "share still holds the page"
        );
        m.free(d2, va2).unwrap();
        assert_eq!(m.free_page_count(), before);
    }

    /// §4.4 isolation across time: a page returned to the pool comes
    /// back zeroed, whichever domain gets it next.
    #[test]
    fn freed_page_reads_zeros_in_another_domain() {
        let mut m = stack();
        let d1 = m.create_domain();
        let d2 = m.create_domain();
        let va1 = m.alloc(d1, 64 * 1024).unwrap();
        m.write(d1, va1, &[0xAB; 64 * 1024]).unwrap();
        let page = m.translate(d1, va1).unwrap().0 / PAGE_BYTES;
        m.free(d1, va1).unwrap();
        let va2 = m.alloc(d2, 64 * 1024).unwrap();
        assert_eq!(m.translate(d2, va2).unwrap().0 / PAGE_BYTES, page);
        assert_eq!(m.read(d2, va2, 64 * 1024).unwrap(), vec![0u8; 64 * 1024]);
    }

    #[test]
    fn shared_page_keeps_its_bytes_after_the_owner_frees() {
        let mut m = stack();
        let d1 = m.create_domain();
        let d2 = m.create_domain();
        let va1 = m.alloc(d1, 4096).unwrap();
        m.write(d1, va1, b"still mapped").unwrap();
        let va2 = m.share(d1, va1, d2).unwrap();
        m.free(d1, va1).unwrap();
        assert_eq!(m.read(d2, va2, 12).unwrap(), b"still mapped");
        assert_eq!(m.resident_bytes(), 12);
        m.free(d2, va2).unwrap();
        assert_eq!(m.resident_bytes(), 0);
    }

    /// A view is a snapshot: the owner's write, its domain's teardown and
    /// the page going to another domain change nothing it reads,
    /// while the writer and the next owner each see what they should.
    /// Taking it moves the TLB exactly as a read does.
    #[test]
    fn a_view_outlives_writes_teardown_and_reallocation() {
        let mut m = stack();
        let d1 = m.create_domain();
        let d2 = m.create_domain();
        let va = m.alloc(d1, 4096).unwrap();
        m.write(d1, va, &[1; 4096]).unwrap();
        let page = m.translate(d1, va).unwrap().0 / PAGE_BYTES;
        let mut twin = stack();
        let t = twin.create_domain();
        let tva = twin.alloc(t, 4096).unwrap();
        twin.write(t, tva, &[1; 4096]).unwrap();
        twin.translate(t, tva).unwrap();
        let view = m.view(d1, va + 96, 4000).unwrap();
        assert_eq!(twin.read(t, tva + 96, 4000).unwrap(), view.to_vec());
        assert_eq!(m.tlb_stats(), twin.tlb_stats());

        m.write(d1, va + 96, &[2; 100]).unwrap();
        let written = m.view(d1, va + 96, 100).unwrap();
        assert_eq!(written.to_vec(), [2; 100]);
        m.destroy_domain(d1).unwrap();
        let vb = m.alloc(d2, 4096).unwrap();
        assert_eq!(m.translate(d2, vb).unwrap().0 / PAGE_BYTES, page);
        assert_eq!(m.read(d2, vb, 4096).unwrap(), [0; 4096]);
        m.write(d2, vb, &[3; 10]).unwrap();
        assert_eq!(view.to_vec(), [1; 4000], "the view kept its bytes");
        assert_eq!(written.to_vec(), [2; 100], "and so did the later one");
        assert_eq!(m.resident_bytes(), 10, "a page only a view holds is not");
    }

    #[test]
    fn resident_bytes_is_what_was_written_to_mapped_pages() {
        let mut m = stack();
        let d = m.create_domain();
        let a = m.alloc(d, 3 * PAGE_BYTES).unwrap();
        let b = m.alloc(d, 100).unwrap();
        assert_eq!(m.resident_bytes(), 0, "allocation alone touches nothing");
        m.write(d, a, &vec![1u8; (PAGE_BYTES + 5000) as usize])
            .unwrap();
        m.write(d, b, &[2u8; 100]).unwrap();
        assert_eq!(m.resident_bytes(), PAGE_BYTES + 5000 + 100);
        m.free(d, a).unwrap();
        assert_eq!(m.resident_bytes(), 100);
        m.destroy_domain(d).unwrap();
        assert_eq!(m.resident_bytes(), 0);
    }

    /// Placement feeds burst channels and the TLB, so the hand-out order
    /// is simulated behaviour: always the lowest free page.
    #[test]
    fn pages_are_handed_out_lowest_first() {
        let mut m = stack();
        let d = m.create_domain();
        let pages_of = |m: &mut MemoryStack, bytes: u64| {
            let va = m.alloc(d, bytes).unwrap();
            let pages: Vec<u64> = (0..crate::pages_for(bytes))
                .map(|i| m.translate(d, va + i * PAGE_BYTES).unwrap().0 / PAGE_BYTES)
                .collect();
            (va, pages)
        };
        let (a, pa) = pages_of(&mut m, 3 * PAGE_BYTES);
        let (b, pb) = pages_of(&mut m, 1);
        let (_c, pc) = pages_of(&mut m, 2 * PAGE_BYTES);
        assert_eq!((pa, pb, pc), (vec![0, 1, 2], vec![3], vec![4, 5]));
        m.free(d, b).unwrap();
        m.free(d, a).unwrap();
        // Holes 0-3 refill in ascending order before fresh page 6.
        let (e, pe) = pages_of(&mut m, 2 * PAGE_BYTES);
        let (_f, pf) = pages_of(&mut m, 3 * PAGE_BYTES);
        assert_eq!((pe, pf), (vec![0, 1], vec![2, 3, 6]));
        m.free(d, e).unwrap();
        assert_eq!(pages_of(&mut m, 3 * PAGE_BYTES).1, vec![0, 1, 7]);
    }

    #[test]
    fn out_of_memory_reported() {
        let mut m = MemoryStack::new(1, 4 * 1024 * 1024); // 2 pages
        let d = m.create_domain();
        assert!(m.alloc(d, 2 * PAGE_BYTES).is_ok());
        assert!(matches!(m.alloc(d, 1), Err(MemError::OutOfMemory { .. })));
    }

    #[test]
    fn bounds_checked_against_byte_length() {
        let mut m = stack();
        let d = m.create_domain();
        let va = m.alloc(d, 100).unwrap();
        assert!(m.write(d, va, &[0u8; 100]).is_ok());
        assert!(matches!(
            m.write(d, va, &[0u8; 101]),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.read(d, va + 50, 51),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn bounds_check_finds_the_containing_allocation_among_many() {
        let mut m = MemoryStack::new(1, 1000 * PAGE_BYTES);
        let d = m.create_domain();
        let allocs: Vec<VirtAddr> = (0..1000).map(|_| m.alloc(d, 100).unwrap()).collect();
        let (first, last, freed) = (allocs[0], allocs[999], allocs[500]);
        m.free(d, freed).unwrap();
        for &va in &[first, last] {
            m.write(d, va + 10, &[7u8; 90]).unwrap();
            assert_eq!(m.read(d, va + 10, 90).unwrap(), [7u8; 90]);
            assert_eq!(m.plan_bursts(d, va, 100).unwrap().len(), 1);
            // One byte past the end of the allocation's bytes.
            assert_eq!(
                m.read(d, va + 10, 91),
                Err(MemError::OutOfBounds {
                    vaddr: va,
                    alloc_len: 100,
                    access_end: 101,
                })
            );
        }
        // A freed allocation between two live ones, the unmapped tail of
        // the last page range, and below the first base: all fault.
        for va in [freed, freed + 50, last + PAGE_BYTES, first - 1] {
            assert_eq!(
                m.read(d, va, 1),
                Err(MemError::AccessFault {
                    domain: d,
                    vaddr: va
                })
            );
        }
    }

    #[test]
    fn burst_plan_alternates_channels_and_covers_len() {
        let mut m = stack();
        let d = m.create_domain();
        let va = m.alloc(d, 64 * 1024).unwrap();
        let plan = m.plan_bursts(d, va, 64 * 1024).unwrap();
        let total: u64 = plan.iter().map(|b| b.bytes).sum();
        assert_eq!(total, 64 * 1024);
        // 16 stripes of 4 KB alternating between 2 channels.
        assert_eq!(plan.len(), 16);
        for (i, b) in plan.iter().enumerate() {
            assert_eq!(b.channel, i % 2, "striping must alternate");
            assert_eq!(b.bytes, MEM_BURST_BYTES);
        }
    }

    #[test]
    fn burst_plan_handles_unaligned_ranges() {
        let mut m = stack();
        let d = m.create_domain();
        let va = m.alloc(d, 64 * 1024).unwrap();
        let plan = m.plan_bursts(d, va + 1000, 10_000).unwrap();
        let total: u64 = plan.iter().map(|b| b.bytes).sum();
        assert_eq!(total, 10_000);
        // First burst is the stripe remainder.
        assert_eq!(plan[0].bytes, STRIPE_BYTES - 1000);
        assert!(plan.iter().all(|b| b.bytes <= MEM_BURST_BYTES));
    }

    #[test]
    fn tlb_warm_after_first_touch() {
        let mut m = stack();
        let d = m.create_domain();
        let va = m.alloc(d, PAGE_BYTES).unwrap();
        let _ = m.plan_bursts(d, va, PAGE_BYTES).unwrap();
        let cold = m.tlb_stats();
        assert_eq!(cold.misses, 1, "one page, one walk");
        let _ = m.plan_bursts(d, va, PAGE_BYTES).unwrap();
        let warm = m.tlb_stats();
        assert_eq!(warm.misses, 1, "second pass must be all hits");
        assert!(warm.hits > cold.hits);
    }

    #[test]
    fn destroy_domain_releases_everything() {
        let mut m = stack();
        let before = m.free_page_count();
        let d = m.create_domain();
        m.alloc(d, 5 * PAGE_BYTES).unwrap();
        m.alloc(d, 2 * PAGE_BYTES).unwrap();
        m.destroy_domain(d).unwrap();
        assert_eq!(m.free_page_count(), before);
        assert!(matches!(m.alloc(d, 1), Err(MemError::NoSuchDomain(_))));
    }

    #[test]
    fn deterministic_page_assignment() {
        let mut a = stack();
        let mut b = stack();
        let da = a.create_domain();
        let db = b.create_domain();
        let va = a.alloc(da, 3 * PAGE_BYTES).unwrap();
        let vb = b.alloc(db, 3 * PAGE_BYTES).unwrap();
        assert_eq!(va, vb);
        assert_eq!(
            a.translate(da, va).unwrap().0,
            b.translate(db, vb).unwrap().0
        );
    }
}
