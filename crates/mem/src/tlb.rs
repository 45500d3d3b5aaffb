//! The BRAM TLB.
//!
//! "The MMU contains a translation lookaside buffer (TLB) implemented on
//! Block RAM ... Farview's TLB holds all virtual-to-physical address
//! mappings for the dynamic regions" (§4.4). Capacity is bounded
//! ([`fv_sim::calib::TLB_ENTRIES`] by default) with LRU replacement;
//! the evaluated footprints fit entirely, but tests and the
//! `ablation_tlb` bench exercise the miss path.

use std::collections::HashMap;

/// TLB key: `(protection domain, virtual page number)`.
pub(crate) type TlbKey = (u32, u64);

/// A bounded, LRU-replaced translation cache.
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// key -> (physical page number, last-use stamp).
    entries: HashMap<TlbKey, (u64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Tlb {
    /// A TLB with the given entry capacity; it always holds at least
    /// one entry.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tlb {
            capacity,
            entries: HashMap::with_capacity(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a translation; `Some(ppage)` on hit.
    pub fn lookup(&mut self, key: TlbKey) -> Option<u64> {
        self.clock += 1;
        match self.entries.get_mut(&key) {
            Some((ppage, stamp)) => {
                *stamp = self.clock;
                self.hits += 1;
                Some(*ppage)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Install a translation after a page-table walk, evicting the LRU
    /// entry if full.
    pub fn insert(&mut self, key: TlbKey, ppage: u64) {
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // O(n) LRU scan; evictions are rare at the evaluated
            // footprints and n is small (thousands).
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, (_, stamp))| *stamp) {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(key, (ppage, self.clock));
    }

    /// Drop every translation belonging to `domain` (on domain teardown
    /// or unmap — shootdown equivalent).
    pub fn flush_domain(&mut self, domain: u32) {
        self.entries.retain(|(d, _), _| *d != domain);
    }

    /// Drop one translation if present.
    pub fn flush_page(&mut self, key: TlbKey) {
        self.entries.remove(&key);
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup((0, 1)), None);
        tlb.insert((0, 1), 42);
        assert_eq!(tlb.lookup((0, 1)), Some(42));
        assert_eq!(tlb.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut tlb = Tlb::new(2);
        tlb.insert((0, 1), 10);
        tlb.insert((0, 2), 20);
        // Touch page 1 so page 2 is LRU.
        assert_eq!(tlb.lookup((0, 1)), Some(10));
        tlb.insert((0, 3), 30);
        assert_eq!(tlb.lookup((0, 2)), None, "page 2 must be evicted");
        assert_eq!(tlb.lookup((0, 1)), Some(10));
        assert_eq!(tlb.lookup((0, 3)), Some(30));
        let (_, _, evictions) = tlb.stats();
        assert_eq!(evictions, 1);
    }

    #[test]
    fn domains_are_isolated_keys() {
        let mut tlb = Tlb::new(8);
        tlb.insert((0, 5), 100);
        tlb.insert((1, 5), 200);
        assert_eq!(tlb.lookup((0, 5)), Some(100));
        assert_eq!(tlb.lookup((1, 5)), Some(200));
        tlb.flush_domain(0);
        assert_eq!(tlb.lookup((0, 5)), None);
        assert_eq!(tlb.lookup((1, 5)), Some(200));
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut tlb = Tlb::new(1);
        tlb.insert((0, 1), 10);
        tlb.insert((0, 1), 11);
        assert_eq!(tlb.lookup((0, 1)), Some(11));
        assert_eq!(tlb.stats().2, 0, "same-key reinsert must not evict");
    }

    #[test]
    fn flush_page() {
        let mut tlb = Tlb::new(4);
        tlb.insert((0, 7), 70);
        tlb.flush_page((0, 7));
        assert_eq!(tlb.lookup((0, 7)), None);
        assert!(tlb.is_empty());
    }
}
