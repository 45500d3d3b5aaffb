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
//! The table is keyed by one *primary* 64-bit hash ([`hash_key`]),
//! computed once per key: per-way bucket indices are cheap remixes of it
//! (the hardware analogue: one hash unit feeding `W` parallel BRAM
//! lookups), and the operators' block loops hand it to
//! [`CuckooTable::get_hashed`] / [`CuckooTable::insert_key_hashed`]
//! without rehashing per way.
//!
//! Layout: **index ways over a dense arena.** A bucket is a `u32` — 0
//! for empty, else 1 + an index into the dense entry store — and all
//! ways are one `Vec<u32>` (4 × 1024 buckets are 16 KiB, one `memset`).
//! The entries are three parallel columns: primary hash, payload, and
//! the key bytes in one flat arena at a fixed width per table (the
//! operators key a table by a fixed set of columns). A probe reads a
//! 4-byte bucket, then compares the key — as one word when it is one; a
//! kick swaps two `u32`s; growth re-places indices. No key owns an
//! allocation, and building or dropping a table costs what its live
//! entries cost, not what its buckets do. *Which* bucket an entry ends
//! up in, and so which key goes homeless, is exactly what it was when a
//! bucket held the entry itself: `placement_is_pinned` below holds the
//! digests recorded on that layout.
//!
//! The LRU cache "implemented with a shift register" (§5.4) hides the
//! hash-table write latency from DISTINCT: the last `depth` keys are
//! visible even before their table write commits. It is a move-to-front
//! register of primary hashes, most recent first, with no per-key
//! allocation. A one-word key is compared by its hash alone, because
//! [`hash_key`] is a bijection on 8-byte words
//! (`tests::hash_key_is_a_bijection_on_one_word_keys` runs it
//! backwards); any other width compares the hash, then the key bytes.

/// 64-bit hash of `bytes` under `seed` (splitmix-style mixing; the paper
/// cites fast FPGA hashing \[44\] — any well-mixed function preserves the
/// behaviour).
#[inline]
pub fn hash64(bytes: &[u8], seed: u64) -> u64 {
    let (words, rem) = bytes.as_chunks::<8>();
    let mut h = words.iter().fold(hash_seed(seed), |h, w| hash_word(h, *w));
    if !rem.is_empty() {
        // The tail, zero-padded, with its length in the top byte.
        let mut tail = [0u8; 8];
        for (t, &b) in tail.iter_mut().zip(rem) {
            *t = b;
        }
        let tail = u64::from_le_bytes(tail) | (rem.len() as u64) << 56;
        h = (h ^ tail).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    hash_finish(h)
}

#[inline]
fn hash_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// Absorb one 8-byte word.
#[inline]
fn hash_word(h: u64, word: [u8; 8]) -> u64 {
    (h ^ u64::from_le_bytes(word))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .rotate_left(23)
}

/// The splitmix64 finalizer.
#[inline]
fn hash_finish(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Seed of the primary key hash every table probe derives from.
const PRIMARY_SEED: u64 = 0x5851_F42D_4C95_7F2D;

/// The primary key hash: computed once per key, remixed per way. The
/// batched operator paths compute this once per tuple and hand it to
/// the `_hashed` probe/insert entry points. A one-word key — a single
/// scalar column, the usual grouping key — is [`hash64`] without its
/// loops: absorb the word, finish.
#[inline]
pub fn hash_key(key: &[u8]) -> u64 {
    match <[u8; 8]>::try_from(key) {
        Ok(word) => hash_finish(hash_word(hash_seed(PRIMARY_SEED), word)),
        Err(_) => hash64(key, PRIMARY_SEED),
    }
}

/// A key that failed placement, plus its payload — the overflow entry.
pub type Homeless<V> = (Box<[u8]>, V);

/// What a bucket holds: 0 when empty, else 1 + the resident entry's
/// index in the dense entry store.
type EntryRef = u32;

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
///
/// Every key of one table has the same width (the operators key it by a
/// fixed set of columns); the first insert fixes it.
#[derive(Debug, Clone)]
pub struct CuckooTable<V> {
    /// The buckets, way-major: `ways × buckets_per_way` entry references.
    slots: Vec<EntryRef>,
    ways: usize,
    buckets_per_way: usize,
    /// The geometry the table was built with, which a reset returns to.
    min_buckets_per_way: usize,
    max_buckets_per_way: usize,
    max_kicks: usize,
    /// The dense entry store, three parallel columns: primary hash (the
    /// probe tag, and what a kick re-buckets by), payload, and the key
    /// bytes at `key_width` per entry.
    tags: Vec<u64>,
    values: Vec<V>,
    keys: Vec<u8>,
    key_width: usize,
    /// Entries that could not be re-placed during a growth rehash even at
    /// the geometry cap. At ≤50 % load this is effectively unreachable,
    /// but correctness must not depend on cuckoo placement luck; every
    /// lookup consults the stash.
    stash: Vec<EntryRef>,
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

    #[expect(
        clippy::disallowed_macros,
        reason = "geometry comes from the crate's constants and tests, never from data"
    )]
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
            slots: vec![0; ways * buckets_per_way],
            ways,
            buckets_per_way,
            min_buckets_per_way: buckets_per_way,
            max_buckets_per_way,
            max_kicks: 4 * ways,
            tags: Vec::new(),
            values: Vec::new(),
            keys: Vec::new(),
            key_width: 0,
            stash: Vec::new(),
        }
    }

    /// Where `tag` lives in `way`, see [`bucket_of`].
    #[inline]
    fn slot_index(&self, way: usize, tag: u64) -> usize {
        way * self.buckets_per_way + bucket_of(tag, way, self.buckets_per_way - 1)
    }

    /// The one place a bucket is indexed for reading: `way` iterates
    /// `0..ways` at every call site and the bucket is masked to
    /// `buckets_per_way`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "bounded as documented above")]
    fn slot(&self, way: usize, tag: u64) -> EntryRef {
        self.slots[self.slot_index(way, tag)]
    }

    /// The one place a bucket is indexed for writing, bounded like
    /// [`Self::slot`].
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "bounded as documented above")]
    fn slot_mut(&mut self, way: usize, tag: u64) -> &mut EntryRef {
        let at = self.slot_index(way, tag);
        &mut self.slots[at]
    }

    /// The stored key of entry `i`.
    #[inline]
    fn key(&self, i: usize) -> Option<&[u8]> {
        self.keys.get(i * self.key_width..(i + 1) * self.key_width)
    }

    /// Does the entry behind `r` hold `key`? Word-wide keys compare as
    /// one word (equal keys have equal tags, so the tag adds nothing);
    /// every other width checks the tag before touching key bytes.
    #[inline]
    fn holds(&self, r: EntryRef, h: u64, key: &[u8]) -> bool {
        let i = r as usize - 1;
        if let (8, Ok(word)) = (self.key_width, <&[u8; 8]>::try_from(key)) {
            self.keys.as_chunks::<8>().0.get(i) == Some(word)
        } else {
            self.tags.get(i) == Some(&h) && self.key(i) == Some(key)
        }
    }

    /// Index of `key`'s entry: the ways in order, then the stash. Forced
    /// inline: this is the per-tuple body of the operators' block loops,
    /// and inlined into them the key width is a constant wherever the
    /// caller's is.
    #[inline(always)]
    #[expect(
        clippy::disallowed_macros,
        reason = "debug-only check of the caller's hash"
    )]
    fn find(&self, h: u64, key: &[u8]) -> Option<usize> {
        debug_assert_eq!(h, hash_key(key), "stale primary hash");
        for way in 0..self.ways {
            let r = self.slot(way, h);
            if r != 0 && self.holds(r, h, key) {
                return Some(r as usize - 1);
            }
        }
        if self.stash.is_empty() {
            return None;
        }
        self.find_stashed(h, key)
    }

    /// The stash half of [`Self::find`]; a table that never failed a
    /// growth rehash has none.
    #[cold]
    fn find_stashed(&self, h: u64, key: &[u8]) -> Option<usize> {
        let r = self.stash.iter().find(|&&r| self.holds(r, h, key))?;
        Some(*r as usize - 1)
    }

    /// Parallel lookup across ways.
    #[inline]
    pub fn get(&self, key: &[u8]) -> Option<&V> {
        self.get_hashed(hash_key(key), key)
    }

    /// Lookup with a precomputed primary hash (the batched block paths).
    #[inline]
    pub fn get_hashed(&self, h: u64, key: &[u8]) -> Option<&V> {
        self.values.get(self.find(h, key)?)
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut V> {
        self.get_mut_hashed(hash_key(key), key)
    }

    /// Mutable lookup with a precomputed primary hash.
    #[inline]
    pub(crate) fn get_mut_hashed(&mut self, h: u64, key: &[u8]) -> Option<&mut V> {
        let i = self.find(h, key)?;
        self.values.get_mut(i)
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Membership test with a precomputed primary hash.
    #[inline]
    pub fn contains_hashed(&self, h: u64, key: &[u8]) -> bool {
        self.find(h, key).is_some()
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
        self.insert_key_hashed(hash_key(&key), &key, value)
    }

    /// Insert a borrowed key with a precomputed primary hash (the
    /// batched block paths): the key bytes are copied into the table's
    /// arena, nothing is allocated per key.
    ///
    /// # Panics
    /// Panics when `key` is not as wide as the keys already stored.
    #[expect(
        clippy::disallowed_macros,
        reason = "the documented contract: one key width per table, checked in debug builds too"
    )]
    pub fn insert_key_hashed(&mut self, h: u64, key: &[u8], value: V) -> Result<(), Homeless<V>> {
        debug_assert_eq!(h, hash_key(key), "stale primary hash");
        debug_assert!(!self.contains_hashed(h, key), "duplicate cuckoo insert");
        if self.tags.is_empty() {
            self.key_width = key.len();
        }
        assert_eq!(key.len(), self.key_width, "cuckoo keys are fixed-width");
        self.maybe_grow();
        let Ok(r) = EntryRef::try_from(self.tags.len() + 1) else {
            // More entries than a bucket can name: no geometry has the
            // slots for them either.
            return Err((key.into(), value));
        };
        self.tags.push(h);
        self.values.push(value);
        self.keys.extend_from_slice(key);
        match self.place(r) {
            Ok(()) => Ok(()),
            Err(homeless) => Err(self.take_entry(homeless)),
        }
    }

    /// The bounded-eviction placement loop; on failure the (possibly
    /// different, via eviction chains) homeless entry comes back. It is
    /// in no bucket then, and table occupancy is unchanged: someone was
    /// always swapped in when someone was taken out.
    #[expect(
        clippy::indexing_slicing,
        reason = "a non-zero reference names a stored entry"
    )]
    fn place(&mut self, mut r: EntryRef) -> Result<(), EntryRef> {
        let mut way = 0usize;
        for _ in 0..self.max_kicks {
            let tag = self.tags[r as usize - 1];
            let evicted = std::mem::replace(self.slot_mut(way, tag), r);
            if evicted == 0 {
                return Ok(());
            }
            r = evicted;
            way = (way + 1) % self.ways;
        }
        Err(r)
    }

    /// Remove the entry behind `r` (in no bucket: it just lost its
    /// placement) from the dense store. The last entry fills the hole,
    /// and the one bucket or stash cell naming it is re-pointed.
    fn take_entry(&mut self, r: EntryRef) -> Homeless<V> {
        let (i, last) = (r as usize - 1, self.tags.len() - 1);
        let kw = self.key_width;
        let key: Box<[u8]> = self.key(i).unwrap_or_default().into();
        self.keys.copy_within(last * kw.., i * kw);
        self.keys.truncate(last * kw);
        self.tags.swap_remove(i);
        let value = self.values.swap_remove(i);
        // An entry moved into the hole unless the hole was the end.
        if let Some(&tag) = self.tags.get(i) {
            let moved = last as EntryRef + 1;
            let bucket = (0..self.ways)
                .map(|way| self.slot_index(way, tag))
                .find(|&at| self.slots.get(at) == Some(&moved));
            let cell = match bucket {
                Some(at) => self.slots.get_mut(at),
                None => self.stash.iter_mut().find(|s| **s == moved),
            };
            if let Some(cell) = cell {
                *cell = r;
            }
        }
        (key, value)
    }

    /// Proactive doubling: growable tables rehash at 50 % load so the
    /// eviction chains (and thus overflow) stay rare. Fixed-geometry
    /// tables (`max == current`) never enter. Entries re-place in bucket
    /// order, way-major, stash last — the order decides who wins a
    /// contested bucket.
    fn maybe_grow(&mut self) {
        if self.buckets_per_way >= self.max_buckets_per_way
            || (self.len() + 1) * 2 <= self.capacity()
        {
            return;
        }
        let mut failed = std::mem::take(&mut self.stash);
        loop {
            let mut pending: Vec<EntryRef> =
                self.slots.iter().copied().filter(|&r| r != 0).collect();
            pending.append(&mut failed);
            self.buckets_per_way *= 2;
            self.slots.clear();
            self.slots.resize(self.ways * self.buckets_per_way, 0);
            for r in pending {
                if let Err(homeless) = self.place(r) {
                    failed.push(homeless);
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
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when the table holds nothing.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Total bucket capacity at the current (possibly grown) geometry.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Iterate over all stored entries, in bucket order (way-major),
    /// stash last.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> {
        self.slots
            .iter()
            .chain(&self.stash)
            .filter(|&&r| r != 0)
            .filter_map(|&r| {
                let i = r as usize - 1;
                Some((self.key(i)?, self.values.get(i)?))
            })
    }

    /// Remove everything and shrink back to the geometry the table was
    /// built with: the table places, grows and overflows exactly as a
    /// new one would. The allocations stay.
    pub fn reset(&mut self) {
        if self.buckets_per_way != self.min_buckets_per_way {
            self.buckets_per_way = self.min_buckets_per_way;
            self.slots.clear();
            self.slots.resize(self.ways * self.buckets_per_way, 0);
        } else if !self.tags.is_empty() {
            // A table with no entries has no bucket naming one.
            self.slots.fill(0);
        }
        self.tags.clear();
        self.values.clear();
        self.keys.clear();
        self.key_width = 0;
        self.stash.clear();
    }
}

/// Per-way bucket derivation from the one primary hash: each of the
/// first four ways reads a disjoint 16-bit window of the well-mixed
/// 64-bit hash (the bucket cap is 16 Ki = 14 bits, so windows cover
/// every geometry), giving the ways near-independent indices with no
/// rehash — one hash unit feeding `W` parallel BRAM lookups. Ways past
/// four (no shipped geometry has them) fold in a per-way seed.
#[inline]
fn bucket_of(tag: u64, way: usize, mask: usize) -> usize {
    let shifted = tag >> ((way & 3) * 16);
    let x = if way < 4 {
        shifted
    } else {
        let seed = PRIMARY_SEED ^ (way as u64) << 17;
        (shifted ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    };
    (x as usize) & mask
}

/// The LRU cache "implemented with a shift register" (§5.4): the last
/// `depth` keys that entered it, most recent first — in hardware a
/// parallel compare against every register. A hit moves its key to the
/// front and a miss shifts in there, so the last entry is always the
/// least recently used one, the key a timestamped LRU would expel: the
/// register holds the same keys in the same recency order.
pub(crate) struct LruRegister {
    depth: usize,
    /// The live entries' primary hashes, most recent first.
    tags: Vec<u64>,
    /// The live entries' key bytes, parallel to `tags`, for keys that
    /// are not one word wide (a one-word key is its tag).
    keys: Vec<u8>,
}

impl LruRegister {
    /// A register of `depth` entries for keys `key_width` bytes wide.
    pub(crate) fn new(depth: usize, key_width: usize) -> Self {
        LruRegister {
            depth,
            tags: Vec::with_capacity(depth),
            keys: Vec::with_capacity(if key_width == 8 { 0 } else { depth * key_width }),
        }
    }

    /// Where `key` sits, 0 being the most recent.
    #[inline(always)]
    fn position(&self, h: u64, key: &[u8]) -> Option<usize> {
        if key.len() == 8 {
            // Equal tags are equal one-word keys:
            // `tests::hash_key_is_a_bijection_on_one_word_keys`.
            self.tags.iter().position(|&tag| tag == h)
        } else {
            self.tags
                .iter()
                .zip(self.keys.chunks_exact(key.len()))
                .position(|(&tag, held)| tag == h && held == key)
        }
    }

    /// Move a resident key to the front and say so; an absent key leaves
    /// the register as it was.
    #[inline(always)]
    pub(crate) fn promote(&mut self, h: u64, key: &[u8]) -> bool {
        let Some(at) = self.position(h, key) else {
            return false;
        };
        // At the front already: a run of equal keys.
        if at > 0 {
            self.move_to_front(at, h, key);
        }
        true
    }

    /// Shift an absent key in at the front; in a full register the last
    /// entry falls out. Depth 0 holds nothing.
    #[inline(always)]
    pub(crate) fn shift_in(&mut self, h: u64, key: &[u8]) {
        if self.tags.len() < self.depth {
            self.tags.push(h);
            if key.len() != 8 {
                self.keys.extend_from_slice(key);
            }
        }
        if let Some(last) = self.tags.len().checked_sub(1) {
            self.move_to_front(last, h, key);
        }
    }

    /// Entries `..at` move back one place, overwriting entry `at`, and
    /// `key` takes the front.
    #[inline(always)]
    fn move_to_front(&mut self, at: usize, h: u64, key: &[u8]) {
        let mut carry = h;
        for tag in self.tags.iter_mut().take(at + 1) {
            carry = std::mem::replace(tag, carry);
        }
        if key.len() != 8 {
            let kw = key.len();
            self.keys.copy_within(..at * kw, kw);
            if let Some(front) = self.keys.get_mut(..kw) {
                front.copy_from_slice(key);
            }
        }
    }

    /// Empty the register.
    pub(crate) fn reset(&mut self) {
        self.tags.clear();
        self.keys.clear();
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
        // The one-word shortcut is the same function.
        for key in [&b"12345678"[..], b"1234567", b"123456789", b""] {
            assert_eq!(hash_key(key), hash64(key, PRIMARY_SEED));
        }
    }

    /// `hash_key` on a one-word key, run backwards: the seed xor, the
    /// odd multiply, the rotate and each step of the splitmix finalizer
    /// are invertible, so two one-word keys share a primary hash only if
    /// they are equal. DISTINCT's LRU register and in-flight window
    /// compare a one-word key by its hash alone on the strength of this.
    #[test]
    fn hash_key_is_a_bijection_on_one_word_keys() {
        /// The inverse of an odd `m` modulo 2⁶⁴: Newton's iteration
        /// doubles the correct low bits (three to start) each step.
        fn inverse(m: u64) -> u64 {
            let mut inv = m;
            for _ in 0..5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
            }
            assert_eq!(m.wrapping_mul(inv), 1, "{m:#x} has no inverse");
            inv
        }
        /// The inverse of `x ^ (x >> k)`: each step fixes `k` more bits.
        fn unshift(y: u64, k: u32) -> u64 {
            (0..64 / k).fold(y, |x, _| y ^ (x >> k))
        }
        let m1 = inverse(0xBF58_476D_1CE4_E5B9);
        let m2 = inverse(0x94D0_49BB_1331_11EB);
        let unhash = |h: u64| {
            let x = unshift(h, 31).wrapping_mul(m2);
            let x = unshift(x, 27).wrapping_mul(m1);
            let x = unshift(x, 30);
            x.rotate_right(23).wrapping_mul(m1) ^ hash_seed(PRIMARY_SEED)
        };
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let sampled = (0..10_000).map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            hash_finish(state)
        });
        let edges = [0, 1, 2, 0xFF, 1 << 63, u64::MAX, u64::MAX - 1, PRIMARY_SEED];
        for word in sampled.chain(edges).chain(0..1024) {
            let h = hash_key(&word.to_le_bytes());
            assert_eq!(
                unhash(h),
                word,
                "hash_key({word:#x}) = {h:#x} does not invert"
            );
        }
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
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);

        // A grown table shrinks back to where it started.
        let mut t: CuckooTable<u64> = CuckooTable::with_default_geometry();
        let start = t.capacity();
        for i in 0..3000u64 {
            t.insert(i.to_le_bytes().into(), i).unwrap();
        }
        assert!(t.capacity() > start);
        t.reset();
        assert_eq!((t.len(), t.capacity()), (0, start));
        assert_eq!(t.get(&7u64.to_le_bytes()), None);
    }

    #[test]
    fn hashed_probes_agree_with_generic_probes() {
        let mut t: CuckooTable<u64> = CuckooTable::new(2, 64);
        for i in 0..40u64 {
            let key = i.to_le_bytes();
            t.insert_key_hashed(hash_key(&key), &key, i).unwrap();
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

    /// Placement is part of the result: which key goes homeless decides
    /// every overflow row, and the per-tuple oracle under
    /// `tests/reference` shares this table, so no differential test can
    /// see it move. Fixed key streams over every geometry kind —
    /// per-insert outcome, the homeless key and payload, `len`,
    /// `capacity`, then who is still resident — digest to constants
    /// recorded on the slot-array layout (`Vec<Option<(u64, Box<[u8]>,
    /// V)>>` per way) that the index-way layout replaced.
    #[test]
    fn placement_is_pinned() {
        fn fnv(digest: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        type Make = fn() -> CuckooTable<u32>;
        // (geometry, inserts): the fixed tables overflow almost at once,
        // the growable ones are driven past two doublings (64-key hint:
        // 512 → 2048 slots; default: 4096 → 16384).
        let cases: [(Make, u32); 5] = [
            (|| CuckooTable::new(2, 4), 48),
            (|| CuckooTable::new(2, 8), 96),
            (|| CuckooTable::new(4, 16), 256),
            (|| CuckooTable::with_capacity_hint(64), 700),
            (CuckooTable::with_default_geometry, 5000),
        ];
        let mut got = Vec::new();
        for (case, (make, inserts)) in cases.into_iter().enumerate() {
            for width in [8usize, 13] {
                let mut table = make();
                let mut rng = 0x5EED_0000 + (case * 16 + width) as u64;
                let mut digest = 0xCBF2_9CE4_8422_2325u64;
                let mut keys = Vec::new();
                for i in 0..inserts {
                    let mut key = splitmix(&mut rng).to_le_bytes().to_vec();
                    key.extend_from_slice(&splitmix(&mut rng).to_le_bytes());
                    key.truncate(width);
                    keys.push(key.clone());
                    match table.insert(key.into(), i) {
                        Ok(()) => fnv(&mut digest, &[1]),
                        Err((hkey, hvalue)) => {
                            fnv(&mut digest, &[2]);
                            fnv(&mut digest, &hkey);
                            fnv(&mut digest, &hvalue.to_le_bytes());
                        }
                    }
                    fnv(&mut digest, &(table.len() as u64).to_le_bytes());
                    fnv(&mut digest, &(table.capacity() as u64).to_le_bytes());
                }
                for key in &keys {
                    let resident = table.get(key).copied().unwrap_or(u32::MAX);
                    fnv(&mut digest, &resident.to_le_bytes());
                }
                // Way-major bucket order: where every entry sits.
                for (key, value) in table.iter() {
                    fnv(&mut digest, key);
                    fnv(&mut digest, &value.to_le_bytes());
                }
                got.push(digest);
            }
        }
        let pinned: [u64; 10] = [
            0x7e0e_fc6b_6af8_d2f6,
            0x668e_2e73_3782_3478,
            0x4613_6e94_8f88_d430,
            0xface_d7b6_bcb3_ba2d,
            0x54b5_ae5c_7743_924d,
            0x1ee1_6f92_747e_421c,
            0x5097_4d9f_107b_0230,
            0xc517_520d_7c1a_c364,
            0x9017_bf61_871d_c25a,
            0xdfe1_bb33_5743_f94b,
        ];
        assert_eq!(got, pinned, "cuckoo placement moved: {got:#018x?}");
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

    fn touch(lru: &mut LruRegister, key: &[u8]) {
        let h = hash_key(key);
        if !lru.promote(h, key) {
            lru.shift_in(h, key);
        }
    }

    fn contains(lru: &LruRegister, key: &[u8]) -> bool {
        lru.position(hash_key(key), key).is_some()
    }

    #[test]
    fn lru_true_replacement_order() {
        for width in [1usize, 8, 13] {
            let key = |c: u8| vec![c; width];
            let mut lru = LruRegister::new(2, width);
            touch(&mut lru, &key(b'a'));
            touch(&mut lru, &key(b'b'));
            // Touch `a` again: `b` becomes LRU.
            touch(&mut lru, &key(b'a'));
            touch(&mut lru, &key(b'c'));
            assert!(contains(&lru, &key(b'a')), "recently touched must survive");
            assert!(!contains(&lru, &key(b'b')), "true LRU must evict b");
            assert!(contains(&lru, &key(b'c')));
            // Most recent first, the key bytes parallel to the tags.
            assert_eq!(lru.tags, [hash_key(&key(b'c')), hash_key(&key(b'a'))]);
            if width != 8 {
                assert_eq!(lru.keys, [key(b'c'), key(b'a')].concat());
            }
        }
    }

    #[test]
    fn lru_depth_zero_is_disabled() {
        let mut lru = LruRegister::new(0, 1);
        touch(&mut lru, b"a");
        assert!(!contains(&lru, b"a"));
        assert!(lru.tags.is_empty() && lru.keys.is_empty());
    }

    #[test]
    fn a_depth_one_register_holds_the_last_key_only() {
        for width in [8usize, 3] {
            let key = |c: u8| vec![c; width];
            let mut lru = LruRegister::new(1, width);
            for c in [b'a', b'b', b'b', b'c'] {
                touch(&mut lru, &key(c));
                assert!(contains(&lru, &key(c)), "the key just touched is in");
                assert_eq!(lru.tags.len(), 1);
            }
            assert!(!contains(&lru, &key(b'a')) && !contains(&lru, &key(b'b')));
        }
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
