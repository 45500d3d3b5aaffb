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

use std::collections::VecDeque;

use crate::cuckoo::{hash_key, CuckooTable, ShiftRegisterLru};
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

/// Streaming DISTINCT over a set of key columns.
pub struct DistinctOp {
    keys: ProjectionPlan,
    /// The key columns as one byte range of the row, when they are one.
    key_range: Option<std::ops::Range<usize>>,
    table: CuckooTable<()>,
    lru: ShiftRegisterLru,
    /// Inserts not yet visible to table lookups: `(key, commit_tick)` —
    /// the entry becomes visible once the tuple counter reaches
    /// `commit_tick` (the hazard window).
    in_flight: VecDeque<(Box<[u8]>, u64)>,
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
        DistinctOp {
            key_range: keys.contiguous_range(),
            keys,
            table,
            lru: ShiftRegisterLru::new(lru_depth),
            in_flight: VecDeque::with_capacity(WRITE_LATENCY),
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

    /// One tuple of the hazard-window state machine, with the key's
    /// primary hash already in hand. Bit-exact vs the literal §5.4
    /// per-tuple machine (the reference in `tests/reference`): same
    /// probes in the same order against the same table, LRU, and
    /// in-flight window. Forced inline: this is the per-tuple body of
    /// the batched loops, and a real call here would spill the loop
    /// state it shares with them.
    ///
    /// Returns the LRU slot the key occupies afterwards (`None` when it
    /// was left out: hazard leak, or a depth-0 window) — the handle the
    /// caller's run detection uses to re-promote a repeated key without
    /// another scan.
    #[inline(always)]
    fn dedup_one(&mut self, h: u64, key: &[u8], packer: &mut Packer) -> Option<usize> {
        // Advance the write pipeline by one tuple (the hazard clock
        // ticks per tuple, not per block).
        self.tick += 1;
        while matches!(self.in_flight.front(), Some((_, commit)) if *commit <= self.tick) {
            self.in_flight.pop_front();
        }
        // LRU first — it exists to catch what the table can't see
        // yet. One merged scan answers membership, refreshes recency
        // on a hit (the reference's contains-then-touch pair), and
        // on a miss already selects the victim slot the shift-in
        // below will use — the whole LRU step is a single walk.
        let slot = match self.lru.promote_or_victim(h, key) {
            Ok(slot) => {
                self.hazard_catches += 1;
                return Some(slot);
            }
            Err(slot) => slot,
        };
        // One probe decides both the ordinary-duplicate and the
        // hazard-leak branch (the reference probes twice; nothing
        // mutates the table in between, so the answers are equal).
        if self.table.contains_hashed(h, key) {
            if self.in_flight.iter().any(|(k, _)| k.as_ref() == key) {
                // In the table but still inside the invisible window
                // and not caught by the LRU: the §5.4 data hazard. The
                // key does NOT enter the LRU (the reference's touch
                // never runs on this branch either). The hardware would
                // emit a duplicate here; so do we, and we count it.
                self.hazard_leaks += 1;
                self.emitted += 1;
                packer.push_tuple(key);
                return None;
            }
            // Ordinary duplicate; the failed promote already
            // proved the key absent, so shift it in scan-free.
            self.lru.shift_in_at(slot, h, key);
            return Some(slot);
        }
        // Genuinely new key: insert (entering the hazard window) and emit.
        match self.table.insert_key_hashed(h, key, ()) {
            Ok(()) => {
                self.in_flight
                    .push_back((key.into(), self.tick + WRITE_LATENCY as u64));
            }
            Err(_homeless) => {
                // Cuckoo overflow: this key has no table slot. The tuple
                // still goes to the client (as overflow) and later
                // duplicates of it will also be emitted for software
                // dedup.
                self.overflow += 1;
            }
        }
        self.lru.shift_in_at(slot, h, key);
        self.emitted += 1;
        packer.push_tuple(key);
        Some(slot)
    }
}

impl DistinctOp {
    /// Run the hazard-window state machine over `keys`, in order (dedup
    /// is inherently sequential, and the hazard clock must tick per
    /// tuple).
    ///
    /// Clustered inputs (fact tables physically ordered on the key)
    /// arrive as runs of equal keys. The first tuple of a run takes the
    /// full state machine; every repeat is provably still resident in
    /// the LRU at the slot the first occurrence reported, so it reduces
    /// to exactly what the full machine would do — clock tick, in-flight
    /// retirement, stamp refresh, hazard-catch count — with the hash and
    /// both scans skipped. The memo is invalid when the key was left out
    /// of the LRU (hazard leak, or a depth-0 window).
    fn dedup<'k>(&mut self, keys: impl Iterator<Item = &'k [u8]>, packer: &mut Packer) {
        let memo_on = self.lru.depth() > 0;
        let mut prev: Option<(&[u8], usize)> = None;
        for key in keys {
            if let Some((prev_key, slot)) = prev {
                if prev_key == key {
                    self.tick += 1;
                    while matches!(self.in_flight.front(),
                        Some((_, commit)) if *commit <= self.tick)
                    {
                        self.in_flight.pop_front();
                    }
                    self.lru.promote_at(slot);
                    self.hazard_catches += 1;
                    continue;
                }
            }
            prev = self
                .dedup_one(hash_key(key), key, packer)
                .filter(|_| memo_on)
                .map(|slot| (key, slot));
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
        self.in_flight.clear();
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
