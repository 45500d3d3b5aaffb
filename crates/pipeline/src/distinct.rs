//! The DISTINCT operator (§5.4, Figure 5).
//!
//! Fully pipelined dedup: cuckoo tables for the seen-set, an LRU shift
//! register to hide the hash-table write latency, and an overflow path
//! for homeless cuckoo entries ("collisions are written into a buffer,
//! which is sent to the client to be deduplicated in software").
//!
//! The write-latency data hazard is modelled explicitly: a table insert
//! only becomes *visible to lookups* after [`WRITE_LATENCY`] further
//! tuples have passed (the BRAM pipeline depth). Two equal keys closer
//! together than that would both be emitted — unless the LRU shift
//! register catches the second one, which is exactly why the hardware
//! has it. [`DistinctOp::with_geometry`] at depth 0 exposes the hazard
//! for tests.
//!
//! Both windows are fixed-size and allocate nothing per tuple. The LRU
//! is the move-to-front register of primary hashes in [`crate::cuckoo`];
//! the inserts still in flight sit in a ring of [`WRITE_LATENCY`]
//! cells. Both compare a one-word key by its hash alone (`hash_key` is
//! a bijection on 8-byte words) and any other width by hash, then key
//! bytes, which each keeps in one flat arena.

use crate::cuckoo::{hash_key, CuckooTable, LruRegister};
use crate::pack::Packer;
use crate::pipeline::{field, TailOperator, TupleBlock};
use crate::project::ProjectionPlan;

/// Hash-table write-to-read visibility latency, in tuples. The BRAM
/// lookup+update pipeline of the hardware is a handful of cycles deep.
pub const WRITE_LATENCY: usize = 6;

/// Default LRU shift-register depth — must be ≥ [`WRITE_LATENCY`] to
/// close the hazard window ("the amount depends on the number of cuckoo
/// hash tables", §5.4).
pub const DEFAULT_LRU_DEPTH: usize = 8;

/// The inserts still inside the write-latency window. The insert made
/// at tick `t` becomes visible to table lookups at `t + WRITE_LATENCY`,
/// and a tick makes at most one, so at most [`WRITE_LATENCY`] are ever
/// in flight: tick `t`'s insert takes cell `t % WRITE_LATENCY`, whose
/// previous occupant (from tick `t - WRITE_LATENCY`) has just committed.
struct InFlight {
    /// Per cell: the commit tick and the key's primary hash. A cell never
    /// used holds commit 0, which no tick (the first is 1) is below.
    cells: [(u64, u64); WRITE_LATENCY],
    /// The newest insert's commit tick: from then on nothing is in
    /// flight, the steady state of a stream whose keys are all known.
    last_commit: u64,
    /// Per cell, the key bytes of keys that are not one word wide.
    keys: Vec<u8>,
}

impl InFlight {
    fn new(key_width: usize) -> Self {
        let arena = if key_width == 8 {
            0
        } else {
            WRITE_LATENCY * key_width
        };
        InFlight {
            cells: [(0, 0); WRITE_LATENCY],
            last_commit: 0,
            keys: vec![0; arena],
        }
    }

    /// Record the insert of `key` made at `tick`.
    #[inline(always)]
    fn push(&mut self, tick: u64, h: u64, key: &[u8]) {
        let at = (tick % WRITE_LATENCY as u64) as usize;
        self.last_commit = tick + WRITE_LATENCY as u64;
        if let Some(cell) = self.cells.get_mut(at) {
            *cell = (self.last_commit, h);
        }
        if key.len() != 8 {
            let kw = key.len();
            if let Some(held) = self.keys.get_mut(at * kw..(at + 1) * kw) {
                held.copy_from_slice(key);
            }
        }
    }

    /// Is an insert of `key` still invisible to lookups at `tick`?
    #[inline(always)]
    fn holds(&self, tick: u64, h: u64, key: &[u8]) -> bool {
        if self.last_commit <= tick {
            false
        } else if key.len() == 8 {
            // Equal tags are equal one-word keys, as in the LRU register.
            self.cells
                .iter()
                .any(|&(commit, tag)| commit > tick && tag == h)
        } else {
            self.cells
                .iter()
                .zip(self.keys.chunks_exact(key.len()))
                .any(|(&(commit, tag), held)| commit > tick && tag == h && held == key)
        }
    }

    fn reset(&mut self) {
        self.cells = [(0, 0); WRITE_LATENCY];
        self.last_commit = 0;
    }
}

/// Streaming DISTINCT over a set of key columns.
pub struct DistinctOp {
    keys: ProjectionPlan,
    /// The key columns as one byte range of the row, when they are one.
    key_range: Option<std::ops::Range<usize>>,
    table: CuckooTable<()>,
    lru: LruRegister,
    in_flight: InFlight,
    /// Tuples processed (the write-pipeline clock).
    tick: u64,
    /// Scratch for non-contiguous key columns: all survivor keys of a
    /// block, gathered contiguously (reused across blocks).
    block_keys: Vec<u8>,
    batched_blocks: u64,
    emitted: u64,
    overflow: u64,
    hazard_catches: u64,
    hazard_leaks: u64,
}

impl std::fmt::Debug for DistinctOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistinctOp")
            .field("emitted", &self.emitted)
            .field("overflow", &self.overflow)
            .field("hazard_catches", &self.hazard_catches)
            .field("hazard_leaks", &self.hazard_leaks)
            .finish_non_exhaustive()
    }
}

impl DistinctOp {
    /// A distinct operator emitting the key columns of `keys`.
    pub fn new(keys: ProjectionPlan) -> Self {
        Self::with_geometry(
            keys,
            CuckooTable::with_default_geometry(),
            DEFAULT_LRU_DEPTH,
        )
    }

    /// Explicit table geometry / LRU depth (ablations and tests).
    pub fn with_geometry(keys: ProjectionPlan, table: CuckooTable<()>, lru_depth: usize) -> Self {
        let kw = keys.out_row_bytes();
        DistinctOp {
            key_range: keys.contiguous_range(),
            keys,
            table,
            lru: LruRegister::new(lru_depth, kw),
            in_flight: InFlight::new(kw),
            tick: 0,
            block_keys: Vec::new(),
            batched_blocks: 0,
            emitted: 0,
            overflow: 0,
            hazard_catches: 0,
            hazard_leaks: 0,
        }
    }

    /// Keys emitted (including overflow duplicates).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Duplicates that slipped through the hazard window (nonzero only
    /// when the LRU is too shallow).
    pub fn hazard_leaks(&self) -> u64 {
        self.hazard_leaks
    }

    /// Run the hazard-window state machine over `keys`, in order (dedup
    /// is inherently sequential, and the hazard clock ticks per tuple).
    /// Bit-exact vs the literal §5.4 per-tuple machine (the reference in
    /// `tests/reference`): the same probes in the same order against
    /// the same table, and LRU and in-flight windows that answer every
    /// membership question as the reference's do. Each arm of
    /// `push_block` gets its own copy, in which the key width is a
    /// constant wherever the arm's is.
    fn dedup<'k>(&mut self, keys: impl Iterator<Item = &'k [u8]>, packer: &mut Packer) {
        for key in keys {
            let h = hash_key(key);
            // Advance the write pipeline by one tuple.
            self.tick += 1;
            // LRU first — it exists to catch what the table can't see yet.
            // A run of equal keys hits at the front, on the first compare.
            if self.lru.promote(h, key) {
                self.hazard_catches += 1;
                continue;
            }
            // One probe decides both the ordinary-duplicate and the
            // hazard-leak branch (the reference probes twice; nothing
            // mutates the table in between, so the answers are equal).
            if self.table.contains_hashed(h, key) {
                if self.in_flight.holds(self.tick, h, key) {
                    // In the table but still inside the invisible window
                    // and not caught by the LRU: the §5.4 data hazard. The
                    // key does NOT enter the LRU (the reference's touch
                    // never runs on this branch either). The hardware would
                    // emit a duplicate here; so do we, and we count it.
                    self.hazard_leaks += 1;
                    self.emitted += 1;
                    packer.push_tuple(key);
                    continue;
                }
                // Ordinary duplicate.
                self.lru.shift_in(h, key);
                continue;
            }
            // Genuinely new key: insert (entering the hazard window) and emit.
            match self.table.insert_key_hashed(h, key, ()) {
                Ok(()) => self.in_flight.push(self.tick, h, key),
                Err(_homeless) => {
                    // Cuckoo overflow: this key has no table slot. The tuple
                    // still goes to the client (as overflow) and later
                    // duplicates of it will also be emitted for software
                    // dedup.
                    self.overflow += 1;
                }
            }
            self.lru.shift_in(h, key);
            self.emitted += 1;
            packer.push_tuple(key);
        }
    }
}

impl TailOperator for DistinctOp {
    /// Keys hash and probe straight off the block when the key columns
    /// are one contiguous byte range of the row (a single column, or
    /// adjacent ones in schema order); otherwise one pass gathers every
    /// survivor's key into a contiguous scratch first.
    fn push_block(&mut self, block: &TupleBlock<'_>, sel: &[u32], packer: &mut Packer) {
        self.batched_blocks += 1;
        let tuples = sel.iter().map(|&i| block.tuple(i));
        match self.key_range.clone() {
            // One scalar column, the usual key: with the width a
            // constant, hashing and comparing it are straight-line code.
            Some(range) if range.len() == 8 => {
                self.dedup(tuples.map(|t| field(t, range.start, 8)), packer);
            }
            Some(range) => {
                let keys = tuples.map(|t| field(t, range.start, range.len()));
                self.dedup(keys, packer);
            }
            None => {
                let mut keys = std::mem::take(&mut self.block_keys);
                keys.clear();
                self.keys.gather_into(tuples, &mut keys);
                // Never zero: `ProjectionPlan` refuses an empty column list.
                let kw = self.keys.out_row_bytes();
                self.dedup(keys.chunks_exact(kw), packer);
                self.block_keys = keys;
            }
        }
    }

    fn overflow_tuples(&self) -> u64 {
        self.overflow
    }

    fn hazard_catches(&self) -> u64 {
        self.hazard_catches
    }

    fn batched_blocks(&self) -> u64 {
        self.batched_blocks
    }

    fn reset(&mut self) {
        self.table.reset();
        self.lru.reset();
        self.in_flight.reset();
        self.tick = 0;
        self.batched_blocks = 0;
        self.emitted = 0;
        self.overflow = 0;
        self.hazard_catches = 0;
        self.hazard_leaks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::push_row as push;
    use fv_data::{Row, Schema, Value};

    fn encode(schema: &Schema, a: u64, b: u64) -> Vec<u8> {
        Row(vec![Value::U64(a), Value::U64(b)]).encode(schema)
    }

    fn op(schema: &Schema, lru_depth: usize) -> DistinctOp {
        let keys = ProjectionPlan::new(schema, Some(&[0])).unwrap();
        DistinctOp::with_geometry(keys, CuckooTable::new(4, 1024), lru_depth)
    }

    fn keys_of(out: &[u8]) -> Vec<u64> {
        out.chunks_exact(8)
            .map(|k| u64::from_le_bytes(k.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn an_insert_is_in_flight_for_exactly_write_latency_ticks() {
        for width in [8usize, 5] {
            let key = |c: u8| vec![c; width];
            let mut window = InFlight::new(width);
            window.push(3, hash_key(&key(b'a')), &key(b'a'));
            window.push(4, hash_key(&key(b'b')), &key(b'b'));
            let held = |w: &InFlight, tick: u64, c: u8| w.holds(tick, hash_key(&key(c)), &key(c));
            for tick in 3..3 + WRITE_LATENCY as u64 {
                assert!(held(&window, tick, b'a'), "tick {tick}");
            }
            assert!(!held(&window, 3 + WRITE_LATENCY as u64, b'a'));
            assert!(held(&window, 3 + WRITE_LATENCY as u64, b'b'));
            assert!(!held(&window, 5, b'c'), "never inserted");
            // A later insert reuses the cell of the one WRITE_LATENCY
            // ticks older, which has committed by then.
            let later = 3 + WRITE_LATENCY as u64;
            window.push(later, hash_key(&key(b'c')), &key(b'c'));
            assert!(held(&window, later, b'c') && !held(&window, later, b'a'));
            window.reset();
            assert!(!held(&window, 1, b'c'), "a reset empties the window");
        }
    }

    #[test]
    fn emits_each_key_once() {
        let schema = Schema::uniform_u64(2);
        let mut d = op(&schema, DEFAULT_LRU_DEPTH);
        let mut out = Vec::new();
        // Keys 0..20, each three times, far enough apart to dodge the
        // LRU: 0,1,..,19,0,1,..,19,...
        for _ in 0..3 {
            for k in 0..20u64 {
                out.extend(push(&mut d, &encode(&schema, k, 999)));
            }
        }
        assert_eq!(d.hazard_leaks(), 0);
        let expect: Vec<u64> = (0..20).collect();
        assert_eq!(keys_of(&out), expect, "each key exactly once");
    }

    #[test]
    fn output_is_key_columns_only() {
        let schema = Schema::uniform_u64(2);
        let mut d = op(&schema, DEFAULT_LRU_DEPTH);
        let out = push(&mut d, &encode(&schema, 7, 8));
        assert_eq!(out.len(), 8, "distinct emits the key, not the row");
    }

    #[test]
    fn back_to_back_duplicates_caught_by_lru() {
        let schema = Schema::uniform_u64(2);
        let mut d = op(&schema, DEFAULT_LRU_DEPTH);
        let mut out = Vec::new();
        for _ in 0..10 {
            out.extend(push(&mut d, &encode(&schema, 42, 0)));
        }
        assert_eq!(keys_of(&out), [42]);
        assert_eq!(d.hazard_catches(), 9, "LRU must absorb the hazard");
        assert_eq!(d.hazard_leaks(), 0);
    }

    #[test]
    fn disabling_lru_exposes_the_hazard() {
        // This is the experiment justifying the shift register: without
        // it, duplicates inside the write-latency window leak.
        let schema = Schema::uniform_u64(2);
        let mut d = op(&schema, 0);
        let mut out = Vec::new();
        for _ in 0..2 {
            out.extend(push(&mut d, &encode(&schema, 42, 0)));
        }
        assert_eq!(keys_of(&out), [42, 42], "hazard must emit a duplicate");
        assert_eq!(d.hazard_leaks(), 1);

        // Far-apart duplicates are still deduplicated by the table.
        for k in 0..100u64 {
            push(&mut d, &encode(&schema, 1000 + k, 0));
        }
        let late = push(&mut d, &encode(&schema, 1000, 0));
        assert!(late.is_empty(), "table catches out-of-window duplicates");
    }

    #[test]
    fn overflow_path_never_loses_keys() {
        // Tiny table forces homeless entries; every distinct key must
        // still be emitted at least once (§5.4: overflow is shipped to
        // the client, nothing is dropped).
        let schema = Schema::uniform_u64(2);
        let keys = ProjectionPlan::new(&schema, Some(&[0])).unwrap();
        let mut d = DistinctOp::with_geometry(keys, CuckooTable::new(2, 8), DEFAULT_LRU_DEPTH);
        let n = 200u64;
        let mut seen = std::collections::HashSet::new();
        for k in 0..n {
            seen.extend(keys_of(&push(&mut d, &encode(&schema, k, 0))));
        }
        assert_eq!(seen.len() as u64, n, "every key must surface");
        assert!(d.overflow_tuples() > 0, "tiny table must overflow");
    }

    #[test]
    fn multi_column_distinct() {
        let schema = Schema::uniform_u64(3);
        let keys = ProjectionPlan::new(&schema, Some(&[0, 1])).unwrap();
        let mut d = DistinctOp::with_geometry(keys, CuckooTable::new(4, 1024), 8);
        let rows = [(1u64, 1u64), (1, 2), (1, 1), (2, 1), (1, 2)];
        let mut out = Vec::new();
        for (a, b) in rows {
            let bytes = Row(vec![Value::U64(a), Value::U64(b), Value::U64(9)]).encode(&schema);
            out.extend(push(&mut d, &bytes));
        }
        assert_eq!(keys_of(&out), [1, 1, 1, 2, 2, 1], "(1,1) (1,2) (2,1)");
    }
}
