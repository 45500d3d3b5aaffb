//! Cuckoo hash tables and the LRU shift register (Figure 5).
//!
//! "To guarantee full pipelining and constant lookup times, the hash
//! table that we implement does not handle collisions. Instead,
//! collisions are written into a buffer, which is sent to the client to
//! be deduplicated in software. To greatly reduce the collision
//! likelihood, we implement cuckoo hashing, with several hash tables that
//! can be looked up in parallel." (§5.4)
//!
//! One entry per bucket (a BRAM slot), `W` ways looked up in parallel,
//! bounded eviction chains; an entry that cannot be placed is returned to
//! the caller as *homeless* — the overflow the hardware ships to the
//! client.
//!
//! The table is keyed by one *primary* 64-bit hash ([`hash_key`]): every
//! slot stores the hash alongside the key, per-way bucket indices are
//! cheap remixes of it, and probes compare the 64-bit tag before touching
//! key bytes. This is what makes the batched operator paths pay — a block
//! path hashes all survivor keys of a block in one tight pass and then
//! probes with [`CuckooTable::get_hashed`] / [`CuckooTable::insert_hashed`]
//! without rehashing per way (the hardware analogue: one hash unit feeding
//! `W` parallel BRAM lookups).
//!
//! The LRU cache "implemented with a shift register" (§5.4) hides the
//! hash-table write latency: the last `depth` keys are visible even
//! before their table write commits.

/// 64-bit hash of `bytes` under `seed` (splitmix-style mixing; the paper
/// cites fast FPGA hashing \[44\] — any well-mixed function preserves the
/// behaviour).
pub fn hash64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        // fv:allow(panic): chunks_exact(8) yields exactly 8 bytes.
        let x = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ x).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(23);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        tail[7] = rem.len() as u8;
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    // splitmix64 finalizer.
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Seed of the primary key hash every table probe derives from.
const PRIMARY_SEED: u64 = 0x5851_F42D_4C95_7F2D;

/// The primary key hash: computed once per key, remixed per way. The
/// batched operator paths compute this for a whole block of keys in one
/// pass and hand it to the `_hashed` probe/insert entry points.
#[inline]
pub fn hash_key(key: &[u8]) -> u64 {
    hash64(key, PRIMARY_SEED)
}

/// A key that failed placement, plus its payload — the overflow entry.
pub type Homeless<V> = (Box<[u8]>, V);

/// One resident entry: the primary hash (the probe tag), the key, and
/// its payload.
type Entry<V> = (u64, Box<[u8]>, V);

/// One occupied bucket.
type Slot<V> = Option<Entry<V>>;

/// Geometry cap for the growable default tables: 4 ways × 16 Ki buckets
/// (≈ the paper's 8 % BRAM budget per region).
const DEFAULT_WAYS: usize = 4;
const DEFAULT_MAX_BUCKETS_PER_WAY: usize = 16 * 1024;
/// Where a growable table starts when nothing is known about the key
/// count — small enough to stay cache-resident for small inputs.
const DEFAULT_MIN_BUCKETS_PER_WAY: usize = 1024;

/// W-way cuckoo hash table with one entry per bucket.
///
/// Tables built with an explicit geometry ([`CuckooTable::new`]) are
/// fixed-size — exactly the hardware's BRAM budget, overflow and all.
/// Tables built with [`CuckooTable::with_default_geometry`] or
/// [`CuckooTable::with_capacity_hint`] start small and double
/// deterministically up to the default cap, so a 50-group aggregation no
/// longer walks a 64 Ki-slot table.
#[derive(Debug, Clone)]
pub struct CuckooTable<V> {
    ways: Vec<Vec<Slot<V>>>,
    seeds: Vec<u64>,
    buckets_per_way: usize,
    max_buckets_per_way: usize,
    max_kicks: usize,
    len: usize,
    /// Entries that could not be re-placed during a growth rehash even at
    /// the geometry cap. At ≤50 % load this is effectively unreachable,
    /// but correctness must not depend on cuckoo placement luck; every
    /// lookup consults the stash.
    stash: Vec<Entry<V>>,
}

impl<V> CuckooTable<V> {
    /// A fixed-size table with `ways` ways of `buckets_per_way` buckets
    /// each — never grows, exactly the hardware behaviour.
    ///
    /// # Panics
    /// Panics unless `ways >= 2` and `buckets_per_way` is a power of two.
    pub fn new(ways: usize, buckets_per_way: usize) -> Self {
        Self::with_geometry_bounds(ways, buckets_per_way, buckets_per_way)
    }

    /// Default geometry used by the distinct/group-by operators: grows
    /// from 4 × 1 Ki up to 4 ways × 16 Ki buckets (≈ the paper's 8 % BRAM
    /// budget per region).
    pub fn with_default_geometry() -> Self {
        Self::with_geometry_bounds(
            DEFAULT_WAYS,
            DEFAULT_MIN_BUCKETS_PER_WAY,
            DEFAULT_MAX_BUCKETS_PER_WAY,
        )
    }

    /// A growable table sized for roughly `expected_keys` entries (the
    /// join build side knows its row count up front). Sized so *way 0
    /// alone* holds the hint at ≤50 % load — most keys then place in way
    /// 0 without eviction chains and probes resolve on the first way —
    /// and can still double up to the default cap.
    pub fn with_capacity_hint(expected_keys: usize) -> Self {
        let want = expected_keys.next_power_of_two().saturating_mul(2);
        let start = want.clamp(64, DEFAULT_MAX_BUCKETS_PER_WAY);
        Self::with_geometry_bounds(DEFAULT_WAYS, start, DEFAULT_MAX_BUCKETS_PER_WAY)
    }

    fn with_geometry_bounds(
        ways: usize,
        buckets_per_way: usize,
        max_buckets_per_way: usize,
    ) -> Self {
        assert!(ways >= 2, "cuckoo hashing needs at least two ways");
        assert!(
            buckets_per_way.is_power_of_two(),
            "bucket count must be a power of two (hardware address bits)"
        );
        CuckooTable {
            ways: Self::empty_ways(ways, buckets_per_way),
            seeds: (0..ways)
                .map(|i| 0x5851_F42D_4C95_7F2D ^ (i as u64) << 17)
                .collect(),
            buckets_per_way,
            max_buckets_per_way,
            max_kicks: 4 * ways,
            len: 0,
            stash: Vec::new(),
        }
    }

    fn empty_ways(ways: usize, buckets_per_way: usize) -> Vec<Vec<Slot<V>>> {
        (0..ways)
            .map(|_| {
                let mut v = Vec::new();
                v.resize_with(buckets_per_way, || None);
                v
            })
            .collect()
    }

    /// Per-way bucket index, see [`bucket_of`].
    #[inline]
    fn way_bucket(&self, way: usize, tag: u64) -> usize {
        // fv:allow(panic): `way` iterates 0..seeds.len() at every call site.
        bucket_of(tag, self.seeds[way], way, self.buckets_per_way - 1)
    }

    /// Parallel lookup across ways.
    #[inline]
    pub fn get(&self, key: &[u8]) -> Option<&V> {
        self.get_hashed(hash_key(key), key)
    }

    /// Lookup with a precomputed primary hash (the batched block paths).
    #[inline]
    pub fn get_hashed(&self, h: u64, key: &[u8]) -> Option<&V> {
        debug_assert_eq!(h, hash_key(key), "stale primary hash");
        for way in 0..self.ways.len() {
            let b = self.way_bucket(way, h);
            // fv:allow(panic): way < ways.len(), b masked to buckets_per_way.
            if let Some((tag, k, v)) = &self.ways[way][b] {
                if *tag == h && k.as_ref() == key {
                    return Some(v);
                }
            }
        }
        if !self.stash.is_empty() {
            return self
                .stash
                .iter()
                .find(|(tag, k, _)| *tag == h && k.as_ref() == key)
                .map(|(_, _, v)| v);
        }
        None
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut V> {
        self.get_mut_hashed(hash_key(key), key)
    }

    /// Mutable lookup with a precomputed primary hash.
    #[inline]
    pub fn get_mut_hashed(&mut self, h: u64, key: &[u8]) -> Option<&mut V> {
        debug_assert_eq!(h, hash_key(key), "stale primary hash");
        for way in 0..self.ways.len() {
            let b = self.way_bucket(way, h);
            // Split the check and the borrow to appease the borrow checker.
            // fv:allow(panic): way < ways.len(), b masked to buckets_per_way.
            let hit =
                matches!(&self.ways[way][b], Some((tag, k, _)) if *tag == h && k.as_ref() == key);
            if hit {
                // fv:allow(panic): same indices re-checked just above.
                return self.ways[way][b].as_mut().map(|(_, _, v)| v);
            }
        }
        if !self.stash.is_empty() {
            return self
                .stash
                .iter_mut()
                .find(|(tag, k, _)| *tag == h && k.as_ref() == key)
                .map(|(_, _, v)| v);
        }
        None
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Membership test with a precomputed primary hash.
    #[inline]
    pub fn contains_hashed(&self, h: u64, key: &[u8]) -> bool {
        self.get_hashed(h, key).is_some()
    }

    /// Insert `key -> value`. On bucket conflicts, evicted entries move
    /// to their alternate ways in the background ("Upon the eviction from
    /// one of the tables, the evicted entry is inserted into the next
    /// hash table with a different function", §5.4); after `max_kicks`
    /// displacements the homeless entry is returned for the overflow
    /// buffer.
    ///
    /// The caller is responsible for not inserting a key that is already
    /// present (the operators always check first).
    pub fn insert(&mut self, key: Box<[u8]>, value: V) -> Result<(), Homeless<V>> {
        let h = hash_key(&key);
        self.insert_hashed(h, key, value)
    }

    /// Insert with a precomputed primary hash (the batched block paths).
    pub fn insert_hashed(&mut self, h: u64, key: Box<[u8]>, value: V) -> Result<(), Homeless<V>> {
        debug_assert_eq!(h, hash_key(&key), "stale primary hash");
        debug_assert!(!self.contains_hashed(h, &key), "duplicate cuckoo insert");
        self.maybe_grow();
        match Self::place(
            &mut self.ways,
            &self.seeds,
            self.buckets_per_way,
            self.max_kicks,
            (h, key, value),
        ) {
            Ok(()) => {
                self.len += 1;
                Ok(())
            }
            Err((_, k, v)) => Err((k, v)),
        }
    }

    /// The bounded-eviction placement loop; on failure the (possibly
    /// different, via eviction chains) homeless entry comes back.
    fn place(
        ways: &mut [Vec<Slot<V>>],
        seeds: &[u64],
        buckets_per_way: usize,
        max_kicks: usize,
        mut entry: Entry<V>,
    ) -> Result<(), Entry<V>> {
        let nways = ways.len();
        let mut way = 0usize;
        for _ in 0..max_kicks {
            // fv:allow(panic): way cycles modulo ways.len(); bucket masked.
            let b = bucket_of(entry.0, seeds[way], way, buckets_per_way - 1);
            // fv:allow(panic): indices bounded as above.
            match ways[way][b].take() {
                None => {
                    ways[way][b] = Some(entry);
                    return Ok(());
                }
                Some(evicted) => {
                    ways[way][b] = Some(entry);
                    entry = evicted;
                    way = (way + 1) % nways;
                }
            }
        }
        // `entry` is now homeless; table occupancy is unchanged (we always
        // swapped someone in when we took someone out).
        Err(entry)
    }

    /// Proactive doubling: growable tables rehash at 50 % load so the
    /// eviction chains (and thus overflow) stay rare. Fixed-geometry
    /// tables (`max == current`) never enter.
    fn maybe_grow(&mut self) {
        if self.buckets_per_way >= self.max_buckets_per_way
            || (self.len + 1) * 2 <= self.ways.len() * self.buckets_per_way
        {
            return;
        }
        let mut pending: Vec<Entry<V>> = Vec::with_capacity(self.len);
        for w in &mut self.ways {
            for slot in w.iter_mut() {
                if let Some(e) = slot.take() {
                    pending.push(e);
                }
            }
        }
        pending.append(&mut self.stash);
        loop {
            self.buckets_per_way *= 2;
            self.ways = Self::empty_ways(self.ways.len(), self.buckets_per_way);
            let mut failed = Vec::new();
            for e in pending {
                if let Err(e) = Self::place(
                    &mut self.ways,
                    &self.seeds,
                    self.buckets_per_way,
                    self.max_kicks,
                    e,
                ) {
                    failed.push(e);
                }
            }
            if failed.is_empty() {
                return;
            }
            if self.buckets_per_way >= self.max_buckets_per_way {
                // Even the cap could not place everything (possible only
                // under adversarial hash collisions): keep the stragglers
                // in the stash rather than losing them.
                self.stash = failed;
                return;
            }
            // Drain what was placed and retry one size up.
            pending = Vec::with_capacity(self.len);
            for w in &mut self.ways {
                for slot in w.iter_mut() {
                    if let Some(e) = slot.take() {
                        pending.push(e);
                    }
                }
            }
            pending.append(&mut failed);
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bucket capacity at the current (possibly grown) geometry.
    pub fn capacity(&self) -> usize {
        self.ways.len() * self.buckets_per_way
    }

    /// Iterate over all stored entries (the group-by flush path).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> {
        self.ways
            .iter()
            .flat_map(|w| w.iter())
            .filter_map(|slot| slot.as_ref())
            .chain(self.stash.iter())
            .map(|(_, k, v)| (k.as_ref(), v))
    }

    /// Remove everything (geometry stays as grown).
    pub fn clear(&mut self) {
        for w in &mut self.ways {
            for slot in w.iter_mut() {
                *slot = None;
            }
        }
        self.stash.clear();
        self.len = 0;
    }
}

/// Per-way bucket derivation from the one primary hash: each of the
/// first four ways reads a disjoint 16-bit window of the well-mixed
/// 64-bit hash (the bucket cap is 16 Ki = 14 bits, so windows cover
/// every geometry), giving the ways near-independent indices with no
/// rehash — one hash unit feeding `W` parallel BRAM lookups. Ways past
/// four (no shipped geometry has them) fold in the way seed.
#[inline]
fn bucket_of(tag: u64, seed: u64, way: usize, mask: usize) -> usize {
    let shifted = tag >> ((way & 3) * 16);
    let x = if way < 4 {
        shifted
    } else {
        (shifted ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    };
    (x as usize) & mask
}

/// The LRU cache "implemented with a shift register" (§5.4): a fixed
/// window of the most recent keys with true LRU replacement, O(depth)
/// compare — in hardware a parallel compare against every register.
///
/// Recency is tracked with per-slot timestamps instead of physically
/// shifting entries: a touch stamps the slot with a monotonic clock and
/// eviction overwrites the minimum stamp, which selects exactly the key a
/// move-to-front shift register would expel. Tags live in their own
/// contiguous array so the membership scan is a tight loop over `depth`
/// words (the hardware's parallel compare), and an evicted key's
/// allocation is reused for the key shifting in — steady state is
/// malloc-free.
///
/// [`ShiftRegisterLru::contains`] / [`ShiftRegisterLru::touch`] are the
/// register as the paper describes it — what the test-only per-tuple
/// reference drives; `DistinctOp` uses the merged
/// [`ShiftRegisterLru::promote_or_victim`] (one scan decides membership,
/// refreshes recency and picks the victim) and the scan-free
/// [`ShiftRegisterLru::shift_in_at`]. Both sets drive the identical
/// state machine.
#[derive(Debug, Clone)]
pub struct ShiftRegisterLru {
    depth: usize,
    /// Monotonic recency clock; bumped on every touch/promote/shift-in.
    clock: u64,
    /// Primary-hash compare tags, one per live slot (contiguous scan).
    tags: Vec<u64>,
    /// Last-touch stamp per live slot; the minimum is the LRU victim.
    stamps: Vec<u64>,
    /// The keys, parallel to `tags`/`stamps`.
    keys: Vec<Box<[u8]>>,
}

impl ShiftRegisterLru {
    /// A shift register of the given depth. Depth 0 disables the cache
    /// (used by tests to expose the data hazard the cache exists to
    /// prevent).
    pub fn new(depth: usize) -> Self {
        ShiftRegisterLru {
            depth,
            clock: 0,
            tags: Vec::with_capacity(depth),
            stamps: Vec::with_capacity(depth),
            keys: Vec::with_capacity(depth),
        }
    }

    /// The configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Slot index of `key`, if resident.
    #[inline]
    fn find(&self, h: u64, key: &[u8]) -> Option<usize> {
        let i = self.tags.iter().position(|&tag| tag == h)?;
        // fv:allow(panic): `tags` and `keys` are index-parallel.
        if self.keys[i].as_ref() == key {
            return Some(i);
        }
        // Distinct keys share a tag only under a full 64-bit hash
        // collision; continue the scan past the false positive.
        (i + 1..self.tags.len()).find(|&j| self.tags[j] == h && self.keys[j].as_ref() == key)
    }

    /// Is `key` in the window?
    pub fn contains(&self, key: &[u8]) -> bool {
        if self.tags.is_empty() {
            return false;
        }
        self.contains_hashed(hash_key(key), key)
    }

    /// Membership test with a precomputed primary hash.
    #[inline]
    pub fn contains_hashed(&self, h: u64, key: &[u8]) -> bool {
        self.find(h, key).is_some()
    }

    /// Shift `key` in as most-recent; the oldest entry falls out. A key
    /// already present moves to the front (true LRU).
    pub fn touch(&mut self, key: &[u8]) {
        if self.depth == 0 {
            return;
        }
        self.touch_hashed(hash_key(key), key);
    }

    /// [`ShiftRegisterLru::touch`] with a precomputed primary hash.
    pub fn touch_hashed(&mut self, h: u64, key: &[u8]) {
        if self.depth == 0 {
            return;
        }
        if self.promote_hashed(h, key) {
            return;
        }
        self.shift_in_hashed(h, key);
    }

    /// Merged membership probe and recency refresh (the batched block
    /// paths): one scan; a resident key is stamped most-recent and `true`
    /// comes back, an absent key leaves the window untouched. Equivalent
    /// to `contains_hashed` followed by `touch_hashed` on a hit.
    #[inline]
    pub fn promote_hashed(&mut self, h: u64, key: &[u8]) -> bool {
        match self.find(h, key) {
            Some(i) => {
                self.clock += 1;
                // fv:allow(panic): `i` comes from find() on these arrays.
                self.stamps[i] = self.clock;
                true
            }
            None => false,
        }
    }

    /// One scan serving both outcomes of the batched paths' LRU step:
    /// a resident key is promoted to most-recent (`Ok(slot)`, same
    /// effect as [`ShiftRegisterLru::promote_hashed`]); an absent key's
    /// LRU victim slot comes back as `Err(slot)` for a later scan-free
    /// [`ShiftRegisterLru::shift_in_at`] (`slot == len()` appends while
    /// the window is still filling). Either slot stays valid until the
    /// next LRU mutation of a *different* key — promoting the same key
    /// again via [`ShiftRegisterLru::promote_at`] keeps it valid. The
    /// separate promote-then-shift pair walks the window twice; this
    /// walks it once.
    #[inline]
    pub fn promote_or_victim(&mut self, h: u64, key: &[u8]) -> Result<usize, usize> {
        if self.keys.len() < self.depth {
            if let Some(i) = self.find(h, key) {
                self.clock += 1;
                // fv:allow(panic): `i` comes from find() on these arrays.
                self.stamps[i] = self.clock;
                return Ok(i);
            }
            return Err(self.keys.len());
        }
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for i in 0..self.tags.len() {
            // fv:allow(panic): tags/stamps/keys are index-parallel.
            if self.tags[i] == h && self.keys[i].as_ref() == key {
                self.clock += 1;
                self.stamps[i] = self.clock;
                return Ok(i);
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim = i;
            }
        }
        Err(victim)
    }

    /// Re-promote the key occupying `slot` — the scan-free recency
    /// refresh for a key this block already located via
    /// [`ShiftRegisterLru::promote_or_victim`] or placed via
    /// [`ShiftRegisterLru::shift_in_at`], with no other LRU mutation in
    /// between (run detection over clustered keys). Identical stamp
    /// bookkeeping to the scanning promote.
    ///
    /// # Panics
    /// Panics when `slot` is out of range.
    #[inline]
    pub fn promote_at(&mut self, slot: usize) {
        self.clock += 1;
        // fv:allow(panic): documented precondition, hot-loop bound.
        self.stamps[slot] = self.clock;
    }

    /// Place `key` into the victim slot a
    /// [`ShiftRegisterLru::promote_or_victim`] miss selected this
    /// tuple, skipping both the membership and the victim scan. The
    /// evicted key's allocation is reused when the widths match.
    #[inline]
    pub fn shift_in_at(&mut self, slot: usize, h: u64, key: &[u8]) {
        if self.depth == 0 {
            return;
        }
        self.clock += 1;
        if slot == self.keys.len() {
            self.tags.push(h);
            self.stamps.push(self.clock);
            self.keys.push(key.into());
            return;
        }
        // fv:allow(panic): `slot < len`, arrays are index-parallel.
        self.tags[slot] = h;
        self.stamps[slot] = self.clock;
        if self.keys[slot].len() == key.len() {
            self.keys[slot].copy_from_slice(key);
        } else {
            self.keys[slot] = key.into();
        }
    }

    /// Shift in a key known to be absent (a failed
    /// [`ShiftRegisterLru::promote_hashed`] this tuple): no membership
    /// scan, just victim selection by minimum stamp. The evicted key's
    /// allocation is reused when the widths match.
    pub fn shift_in_hashed(&mut self, h: u64, key: &[u8]) {
        if self.depth == 0 {
            return;
        }
        debug_assert!(self.find(h, key).is_none(), "shift_in of a resident key");
        self.clock += 1;
        if self.keys.len() < self.depth {
            self.tags.push(h);
            self.stamps.push(self.clock);
            self.keys.push(key.into());
            return;
        }
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for (i, &s) in self.stamps.iter().enumerate() {
            if s < oldest {
                oldest = s;
                victim = i;
            }
        }
        // fv:allow(panic): `victim < len`, arrays are index-parallel.
        self.tags[victim] = h;
        self.stamps[victim] = self.clock;
        if self.keys[victim].len() == key.len() {
            self.keys[victim].copy_from_slice(key);
        } else {
            self.keys[victim] = key.into();
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_seed_sensitive() {
        let a = hash64(b"hello", 1);
        assert_eq!(a, hash64(b"hello", 1));
        assert_ne!(a, hash64(b"hello", 2));
        assert_ne!(a, hash64(b"hellp", 1));
        // Length-extension check: "ab" with trailing zeros differs from "ab\0".
        assert_ne!(hash64(b"ab", 3), hash64(b"ab\0", 3));
    }

    #[test]
    fn cuckoo_insert_get() {
        let mut t: CuckooTable<u64> = CuckooTable::new(2, 64);
        for i in 0..50u64 {
            let key = i.to_le_bytes();
            t.insert(key.into(), i * 2).unwrap();
        }
        assert_eq!(t.len(), 50);
        for i in 0..50u64 {
            assert_eq!(t.get(&i.to_le_bytes()), Some(&(i * 2)));
        }
        assert_eq!(t.get(b"missing!"), None);
    }

    #[test]
    fn cuckoo_evictions_preserve_all_entries() {
        // Small table, heavy load: every insert that returns Ok must stay
        // findable; homeless entries are reported, never silently lost.
        let mut t: CuckooTable<u32> = CuckooTable::new(2, 16);
        let mut placed = Vec::new();
        let mut homeless = 0;
        for i in 0..32u32 {
            let key: Box<[u8]> = i.to_le_bytes().into();
            match t.insert(key.clone(), i) {
                Ok(()) => placed.push(i),
                Err(_) => homeless += 1,
            }
        }
        // NOTE: an eviction chain can make a *previously placed* key the
        // homeless one; collect who is actually resident.
        let resident: std::collections::HashSet<u32> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(resident.len() + homeless, 32, "no entry may vanish");
        assert_eq!(t.len(), resident.len());
    }

    #[test]
    fn cuckoo_get_mut_updates() {
        let mut t: CuckooTable<u64> = CuckooTable::new(2, 16);
        t.insert(b"k".to_vec().into(), 1).unwrap();
        *t.get_mut(b"k").unwrap() += 10;
        assert_eq!(t.get(b"k"), Some(&11));
        assert!(t.get_mut(b"nope").is_none());
    }

    #[test]
    fn cuckoo_iter_and_clear() {
        let mut t: CuckooTable<u8> = CuckooTable::new(2, 16);
        t.insert(b"a".to_vec().into(), 1).unwrap();
        t.insert(b"b".to_vec().into(), 2).unwrap();
        let mut vals: Vec<u8> = t.iter().map(|(_, v)| *v).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 2]);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn hashed_probes_agree_with_generic_probes() {
        let mut t: CuckooTable<u64> = CuckooTable::new(2, 64);
        for i in 0..40u64 {
            let key = i.to_le_bytes();
            t.insert_hashed(hash_key(&key), key.into(), i).unwrap();
        }
        for i in 0..40u64 {
            let key = i.to_le_bytes();
            let h = hash_key(&key);
            assert_eq!(t.get(&key), t.get_hashed(h, &key));
            assert!(t.contains_hashed(h, &key));
        }
        let miss = 99u64.to_le_bytes();
        assert!(!t.contains_hashed(hash_key(&miss), &miss));
    }

    #[test]
    fn growable_table_doubles_without_losing_entries() {
        let mut t: CuckooTable<u64> = CuckooTable::with_capacity_hint(16);
        let start_cap = t.capacity();
        let mut homeless = 0;
        for i in 0..4096u64 {
            match t.insert(i.to_le_bytes().into(), i) {
                Ok(()) => {}
                Err(_) => homeless += 1,
            }
        }
        assert!(t.capacity() > start_cap, "table must have grown");
        assert_eq!(homeless, 0, "growth should avoid overflow at ≤50% load");
        for i in 0..4096u64 {
            assert_eq!(t.get(&i.to_le_bytes()), Some(&i), "key {i} lost in growth");
        }
    }

    #[test]
    fn fixed_geometry_never_grows() {
        let mut t: CuckooTable<u32> = CuckooTable::new(2, 16);
        for i in 0..64u32 {
            let _ = t.insert(i.to_le_bytes().into(), i);
        }
        assert_eq!(t.capacity(), 32, "explicit geometry is the BRAM budget");
    }

    #[test]
    fn lru_true_replacement_order() {
        let mut lru = ShiftRegisterLru::new(2);
        lru.touch(b"a");
        lru.touch(b"b");
        // Touch `a` again: `b` becomes LRU.
        lru.touch(b"a");
        lru.touch(b"c");
        assert!(lru.contains(b"a"), "recently touched must survive");
        assert!(!lru.contains(b"b"), "true LRU must evict b");
        assert!(lru.contains(b"c"));
    }

    #[test]
    fn lru_depth_zero_is_disabled() {
        let mut lru = ShiftRegisterLru::new(0);
        lru.touch(b"a");
        assert!(!lru.contains(b"a"));
        assert!(lru.is_empty());
    }

    #[test]
    fn lru_hashed_entry_points_agree() {
        let mut lru = ShiftRegisterLru::new(3);
        for key in [b"aa".as_slice(), b"bb", b"cc", b"aa"] {
            lru.touch_hashed(hash_key(key), key);
        }
        assert!(lru.contains_hashed(hash_key(b"aa"), b"aa"));
        assert!(lru.contains(b"cc"));
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn hash_distributes_over_buckets() {
        // Weak uniformity check: 4096 sequential keys over 256 buckets,
        // no bucket more than 4x the mean.
        let mut counts = [0u32; 256];
        for i in 0..4096u64 {
            counts[(hash64(&i.to_le_bytes(), 7) % 256) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max < 64, "suspiciously skewed hash: max bucket {max}");
    }
}
