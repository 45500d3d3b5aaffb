//! The GROUP BY + aggregation operator (§5.4).
//!
//! "The operator reads the complete table and all of its tuples without
//! sending anything over the network, to perform the full aggregation. At
//! the same time, it inserts the distinct entries into a separate queue.
//! Once the aggregation has completed, the queue is used to lookup and
//! flush the entries from the hash table along with any of the requested
//! aggregation results to the network."
//!
//! The same cuckoo structure as DISTINCT holds the groups; the cache here
//! is write-through (updates must not be lost), so — unlike DISTINCT —
//! the hazard window cannot drop data and the operator is exact.
//! Homeless cuckoo entries ship their partial aggregates to the client
//! for software merging (the overflow path).
//!
//! The table maps a key to a dense *group slot*; keys and accumulators
//! live in flat per-slot columns outside it. A block is processed in two
//! kinds of pass: one resolves every survivor to its slot (hash, probe,
//! open a group on a miss), then each aggregate folds the whole block
//! into its own accumulator column — the accumulator kind is matched
//! once per block, not once per tuple, and no group owns an allocation.

use fv_data::{ColumnType, Schema};

use crate::cuckoo::{hash_key, CuckooTable};
use crate::pack::Packer;
use crate::pipeline::{field, TailOperator, TupleBlock};
use crate::project::ProjectionPlan;
use crate::spec::{AggFunc, AggSpec};

/// What an aggregate folds, fixed by its function and input type. The
/// accumulator is 8 raw bytes whatever the kind: a `u64`, an `i64` or an
/// `f64` by its bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggKind {
    Count,
    SumU,
    SumI,
    SumF,
    MinU,
    MinI,
    MinF,
    MaxU,
    MaxI,
    MaxF,
    Avg,
}

impl AggKind {
    #[expect(
        clippy::unreachable,
        reason = "verification rejects every other pairing"
    )]
    fn new(func: AggFunc, ty: ColumnType) -> AggKind {
        match (func, ty) {
            (AggFunc::Count, _) => AggKind::Count,
            (AggFunc::Sum, ColumnType::U64) => AggKind::SumU,
            (AggFunc::Sum, ColumnType::I64) => AggKind::SumI,
            (AggFunc::Sum, ColumnType::F64) => AggKind::SumF,
            (AggFunc::SumF64, ColumnType::U64 | ColumnType::I64 | ColumnType::F64) => AggKind::SumF,
            (AggFunc::Min, ColumnType::U64) => AggKind::MinU,
            (AggFunc::Min, ColumnType::I64) => AggKind::MinI,
            (AggFunc::Min, ColumnType::F64) => AggKind::MinF,
            (AggFunc::Max, ColumnType::U64) => AggKind::MaxU,
            (AggFunc::Max, ColumnType::I64) => AggKind::MaxI,
            (AggFunc::Max, ColumnType::F64) => AggKind::MaxF,
            (AggFunc::Avg, _) => AggKind::Avg,
            (f, t) => unreachable!("agg {f:?} over {t:?} rejected at compile"),
        }
    }

    /// Accumulator bits of a group that has folded nothing yet.
    fn identity(self) -> u64 {
        match self {
            AggKind::Count | AggKind::SumU | AggKind::SumI | AggKind::MaxU => 0,
            AggKind::SumF | AggKind::Avg => 0f64.to_bits(),
            AggKind::MinU => u64::MAX,
            AggKind::MinI => i64::MAX as u64,
            AggKind::MinF => f64::INFINITY.to_bits(),
            AggKind::MaxI => i64::MIN as u64,
            AggKind::MaxF => f64::NEG_INFINITY.to_bits(),
        }
    }

    /// The output column type of this accumulator.
    fn out_type(self) -> ColumnType {
        match self {
            AggKind::Count | AggKind::SumU | AggKind::MinU | AggKind::MaxU => ColumnType::U64,
            AggKind::SumI | AggKind::MinI | AggKind::MaxI => ColumnType::I64,
            AggKind::SumF | AggKind::MinF | AggKind::MaxF | AggKind::Avg => ColumnType::F64,
        }
    }
}

/// Output column type of `func` over an input column of type `ty` — the
/// static mirror of the compiled accumulator's output type, used by the
/// spec verifier. Callers must reject byte-string aggregation
/// (other than `COUNT`) first, exactly as compilation does.
pub(crate) fn agg_out_type(func: AggFunc, ty: ColumnType) -> ColumnType {
    AggKind::new(func, ty).out_type()
}

/// One aggregate of the query: where its input cell sits in a tuple and
/// one accumulator per group slot.
#[derive(Debug)]
struct AggColumn {
    kind: AggKind,
    /// Byte offset of the input cell — an 8-byte scalar for every kind
    /// but `COUNT`, which never reads it.
    off: usize,
    ty: ColumnType,
    /// Accumulator bits, indexed by group slot.
    acc: Vec<u64>,
    /// Tuples folded, indexed by group slot — `AVG`'s divisor (no other
    /// kind counts).
    n: Vec<u64>,
}

/// `counts[slot] += 1` for every slot named.
fn bump(counts: &mut [u64], slots: &[u32]) {
    for &s in slots {
        if let Some(n) = counts.get_mut(s as usize) {
            *n += 1;
        }
    }
}

/// `acc[slot] = f(acc[slot], cell)` for every `(slot, cell)`, in order.
fn apply(acc: &mut [u64], cells: impl Iterator<Item = (u32, u64)>, f: impl Fn(u64, u64) -> u64) {
    for (s, bits) in cells {
        if let Some(a) = acc.get_mut(s as usize) {
            *a = f(*a, bits);
        }
    }
}

impl AggColumn {
    /// (Re)open `slot` — at most one past the last — as an empty group.
    fn open(&mut self, slot: usize) {
        if slot == self.acc.len() {
            self.acc.push(0);
            self.n.push(0);
        }
        if let (Some(acc), Some(n)) = (self.acc.get_mut(slot), self.n.get_mut(slot)) {
            *acc = self.kind.identity();
            *n = 0;
        }
    }

    /// Fold the input cell of each tuple into the accumulator of the
    /// slot paired with it, in order: wrapping integer sums, `as f64`
    /// conversions for the float accumulators. Every group sees its
    /// tuples in stream order, so float sums are bit-identical to a
    /// per-tuple fold.
    fn fold<'t>(&mut self, tuples: impl Iterator<Item = &'t [u8]>, slots: &[u32]) {
        let off = self.off;
        // Spec verification restricts every aggregate but COUNT to an
        // 8-byte scalar column, so the cell is always there.
        let cells = tuples.zip(slots).filter_map(|(tuple, &s)| {
            let cell = field(tuple, off, 8).first_chunk::<8>()?;
            Some((s, u64::from_le_bytes(*cell)))
        });
        #[expect(
            clippy::unreachable,
            reason = "verification rejects float aggregates over bytes"
        )]
        fn sum_f(acc: &mut [u64], cells: impl Iterator<Item = (u32, u64)>, ty: ColumnType) {
            fn add(to_f64: impl Fn(u64) -> f64) -> impl Fn(u64, u64) -> u64 {
                move |a, bits| (f64::from_bits(a) + to_f64(bits)).to_bits()
            }
            match ty {
                ColumnType::U64 => apply(acc, cells, add(|bits| bits as f64)),
                ColumnType::I64 => apply(acc, cells, add(|bits| bits as i64 as f64)),
                ColumnType::F64 => apply(acc, cells, add(f64::from_bits)),
                ColumnType::Bytes(_) => unreachable!("float agg over bytes rejected at compile"),
            }
        }
        fn float(f: impl Fn(f64, f64) -> f64) -> impl Fn(u64, u64) -> u64 {
            move |a, bits| f(f64::from_bits(a), f64::from_bits(bits)).to_bits()
        }
        let acc = &mut self.acc;
        match self.kind {
            AggKind::Count => bump(acc, slots),
            // Two's complement: the signed wrapping sum has the same bits.
            AggKind::SumU | AggKind::SumI => apply(acc, cells, u64::wrapping_add),
            AggKind::SumF => sum_f(acc, cells, self.ty),
            AggKind::MinU => apply(acc, cells, u64::min),
            AggKind::MinI => apply(acc, cells, |a, b| (a as i64).min(b as i64) as u64),
            AggKind::MinF => apply(acc, cells, float(f64::min)),
            AggKind::MaxU => apply(acc, cells, u64::max),
            AggKind::MaxI => apply(acc, cells, |a, b| (a as i64).max(b as i64) as u64),
            AggKind::MaxF => apply(acc, cells, float(f64::max)),
            AggKind::Avg => {
                sum_f(acc, cells, self.ty);
                bump(&mut self.n, slots);
            }
        }
    }

    /// 8-byte little-endian emission of `slot`'s result.
    fn emit(&self, slot: usize) -> [u8; 8] {
        let bits = self.acc.get(slot).copied().unwrap_or(self.kind.identity());
        match (self.kind, self.n.get(slot)) {
            (AggKind::Avg, Some(&n)) if n > 0 => (f64::from_bits(bits) / n as f64).to_le_bytes(),
            (AggKind::Avg, _) => 0f64.to_le_bytes(),
            _ => bits.to_le_bytes(),
        }
    }
}

/// Streaming GROUP BY with aggregation.
pub struct GroupByOp {
    keys: ProjectionPlan,
    /// The key columns as one byte range of the row, when they are one.
    key_range: Option<std::ops::Range<usize>>,
    /// Key → group slot.
    table: CuckooTable<u32>,
    /// Per-slot columns: each slot's key bytes; its place in the §5.4
    /// queue ("it inserts the distinct entries into a separate queue",
    /// so flush order is first-seen order), `None` once the group left
    /// the table as overflow; and one accumulator column per aggregate.
    group_keys: Vec<u8>,
    queued: Vec<Option<u64>>,
    aggs: Vec<AggColumn>,
    /// Slots of groups that left as overflow, reused by the next new
    /// keys: the columns stay as small as the table is.
    free: Vec<u32>,
    /// Groups ever opened — the next queue position.
    opened: u64,
    /// Scratch, reused across blocks: gathered keys (non-contiguous key
    /// columns only), each survivor's slot, one output row.
    block_keys: Vec<u8>,
    block_slots: Vec<u32>,
    row_buf: Vec<u8>,
    batched_blocks: u64,
    overflow: u64,
    flushed: u64,
}

impl std::fmt::Debug for GroupByOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupByOp")
            .field("groups", &self.group_count())
            .field("overflow", &self.overflow)
            .finish_non_exhaustive()
    }
}

impl GroupByOp {
    /// Group by the key columns of `keys`, computing `aggs`.
    pub fn new(keys: ProjectionPlan, aggs: &[AggSpec], base_schema: &Schema) -> Self {
        Self::with_table(
            keys,
            aggs,
            base_schema,
            CuckooTable::with_default_geometry(),
        )
    }

    /// Explicit table geometry (ablations and tests).
    pub fn with_table(
        keys: ProjectionPlan,
        aggs: &[AggSpec],
        base_schema: &Schema,
        table: CuckooTable<u32>,
    ) -> Self {
        let mut columns = Vec::with_capacity(aggs.len());
        for a in aggs {
            let input = base_schema.column(a.col);
            let kind = AggKind::new(a.func, input.ty);
            columns.push(AggColumn {
                kind,
                off: base_schema.offset(a.col),
                ty: input.ty,
                acc: Vec::new(),
                n: Vec::new(),
            });
        }
        GroupByOp {
            key_range: keys.contiguous_range(),
            keys,
            table,
            group_keys: Vec::new(),
            queued: Vec::new(),
            aggs: columns,
            free: Vec::new(),
            opened: 0,
            block_keys: Vec::new(),
            block_slots: Vec::new(),
            row_buf: Vec::new(),
            batched_blocks: 0,
            overflow: 0,
            flushed: 0,
        }
    }

    /// Number of live groups.
    pub(crate) fn group_count(&self) -> usize {
        self.queued.len() - self.free.len()
    }

    /// A key the table does not hold: open an empty group for it at the
    /// back of the queue and insert it. Returns its slot, and the slot
    /// of the group a cuckoo eviction chain left homeless, if one did —
    /// not necessarily the one just opened.
    fn open_group(&mut self, h: u64, key: &[u8]) -> (u32, Option<u32>) {
        let slot = self.free.pop().unwrap_or(self.queued.len() as u32);
        let at = slot as usize;
        if at == self.queued.len() {
            self.queued.push(None);
            self.group_keys.resize((at + 1) * key.len(), 0);
        }
        if let Some(queued) = self.queued.get_mut(at) {
            *queued = Some(self.opened);
        }
        self.opened += 1;
        if let Some(held) = self
            .group_keys
            .get_mut(at * key.len()..(at + 1) * key.len())
        {
            held.copy_from_slice(key);
        }
        for agg in &mut self.aggs {
            agg.open(at);
        }
        let homeless = self.table.insert_key_hashed(h, key, slot).err();
        (slot, homeless.map(|(_, slot)| slot))
    }

    /// Ship the partial aggregates of a group that lost its table entry
    /// to the client, in the same `key ++ aggregates` format as the
    /// final flush, for software merging (§5.4's overflow buffer). The
    /// group leaves the queue (its state left the table) and its slot is
    /// free for the next new key.
    fn ship_overflow(&mut self, slot: u32, packer: &mut Packer) {
        self.overflow += 1;
        self.pack_group(slot as usize, packer);
        if let Some(queued) = self.queued.get_mut(slot as usize) {
            *queued = None;
        }
        self.free.push(slot);
    }

    /// Pack `slot`'s `key ++ aggregates` row.
    fn pack_group(&mut self, slot: usize, packer: &mut Packer) {
        let kw = self.keys.out_row_bytes();
        self.row_buf.clear();
        if let Some(key) = self.group_keys.get(slot * kw..(slot + 1) * kw) {
            self.row_buf.extend_from_slice(key);
        }
        for agg in &self.aggs {
            self.row_buf.extend_from_slice(&agg.emit(slot));
        }
        packer.push_tuple(&self.row_buf);
    }

    /// Fold `sel`'s tuples of `block` into the groups `slots` names, one
    /// pass per aggregate.
    fn fold(&mut self, block: &TupleBlock<'_>, sel: &[u32], slots: &[u32]) {
        for agg in &mut self.aggs {
            agg.fold(sel.iter().map(|&i| block.tuple(i)), slots);
        }
    }

    /// Resolve each survivor's key to its group slot, in stream order,
    /// opening a group wherever a key is new, then fold the block.
    fn aggregate<'k>(
        &mut self,
        keys: impl Iterator<Item = &'k [u8]>,
        block: &TupleBlock<'_>,
        sel: &[u32],
        packer: &mut Packer,
    ) {
        let mut slots = std::mem::take(&mut self.block_slots);
        slots.clear();
        // Survivors before `folded` are in their accumulators already.
        let mut folded = 0;
        for key in keys {
            let h = hash_key(key);
            if let Some(&slot) = self.table.get_hashed(h, key) {
                slots.push(slot);
                continue;
            }
            let (slot, homeless) = self.open_group(h, key);
            slots.push(slot);
            if let Some(homeless) = homeless {
                // The overflow row must count every tuple up to this
                // one: fold the block so far first.
                let (done, rest) = (slots.len(), sel.split_at(folded).1);
                self.fold(
                    block,
                    rest.split_at(done - folded).0,
                    slots.split_at(folded).1,
                );
                folded = done;
                self.ship_overflow(homeless, packer);
            }
        }
        self.fold(block, sel.split_at(folded).1, slots.split_at(folded).1);
        self.block_slots = slots;
    }
}

impl TailOperator for GroupByOp {
    fn flush(&mut self, packer: &mut Packer) {
        let mut queue: Vec<(u64, usize)> = self
            .queued
            .iter()
            .enumerate()
            .filter_map(|(slot, position)| Some(((*position)?, slot)))
            .collect();
        // Slots are reused, so slot order is queue order only until the
        // first overflow.
        queue.sort_unstable();
        for (_, slot) in queue {
            self.flushed += 1;
            self.pack_group(slot, packer);
        }
    }

    /// Keys hash straight off the block when the key columns are one
    /// contiguous byte range of the row (a single column, or adjacent
    /// ones in schema order); otherwise one pass gathers every
    /// survivor's key into a contiguous scratch first. Aggregate inputs
    /// are read from the block's raw bytes (no `RowView`/`Value` per
    /// tuple).
    fn push_block(&mut self, block: &TupleBlock<'_>, sel: &[u32], packer: &mut Packer) {
        self.batched_blocks += 1;
        let tuples = sel.iter().map(|&i| block.tuple(i));
        match self.key_range.clone() {
            // One scalar column, the usual grouping key: with the width
            // a constant, hashing and comparing it are straight-line code.
            Some(range) if range.len() == 8 => {
                let keys = tuples.map(|t| field(t, range.start, 8));
                self.aggregate(keys, block, sel, packer);
            }
            Some(range) => {
                let keys = tuples.map(|t| field(t, range.start, range.len()));
                self.aggregate(keys, block, sel, packer);
            }
            None => {
                let mut keys = std::mem::take(&mut self.block_keys);
                keys.clear();
                self.keys.gather_into(tuples, &mut keys);
                // Never zero: `ProjectionPlan` refuses an empty column list.
                let kw = self.keys.out_row_bytes();
                self.aggregate(keys.chunks_exact(kw), block, sel, packer);
                self.block_keys = keys;
            }
        }
    }

    fn overflow_tuples(&self) -> u64 {
        self.overflow
    }

    fn flushed_entries(&self) -> u64 {
        self.flushed
    }

    fn batched_blocks(&self) -> u64 {
        self.batched_blocks
    }

    fn reset(&mut self) {
        self.table.reset();
        self.group_keys.clear();
        self.queued.clear();
        for agg in &mut self.aggs {
            agg.acc.clear();
            agg.n.clear();
        }
        self.free.clear();
        self.opened = 0;
        self.batched_blocks = 0;
        self.overflow = 0;
        self.flushed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::{Column, Row, Value};

    /// Push one row, collecting what it emits before the flush
    /// (overflow rows) into `out`.
    fn push_row(op: &mut GroupByOp, schema: &Schema, vals: Vec<Value>, out: &mut Vec<Vec<u8>>) {
        let packed = crate::pipeline::push_row(op, &Row(vals).encode(schema));
        let width = op.keys.out_row_bytes() + 8 * op.aggs.len();
        out.extend(packed.chunks_exact(width).map(<[u8]>::to_vec));
    }

    fn flush(op: &mut GroupByOp) -> Vec<Vec<u8>> {
        let mut packer = Packer::passthrough();
        op.flush(&mut packer);
        let width = op.keys.out_row_bytes() + 8 * op.aggs.len();
        packer
            .drain()
            .chunks_exact(width)
            .map(<[u8]>::to_vec)
            .collect()
    }

    #[test]
    fn sum_per_group_matches_paper_query() {
        // SELECT S.a, SUM(S.b) FROM S GROUP BY S.a (§6.5)
        let schema = Schema::uniform_u64(2);
        let keys = ProjectionPlan::new(&schema, Some(&[0])).unwrap();
        let mut op = GroupByOp::new(
            keys,
            &[AggSpec {
                col: 1,
                func: AggFunc::Sum,
            }],
            &schema,
        );
        let mut overflow = Vec::new();
        for (a, b) in [(1u64, 10u64), (2, 20), (1, 5), (2, 1), (3, 7)] {
            push_row(
                &mut op,
                &schema,
                vec![Value::U64(a), Value::U64(b)],
                &mut overflow,
            );
        }
        assert!(overflow.is_empty(), "no output before flush");
        let rows = flush(&mut op);
        assert_eq!(rows.len(), 3);
        // Flush order is first-seen order: 1, 2, 3.
        let parse = |r: &[u8]| {
            (
                u64::from_le_bytes(r[..8].try_into().unwrap()),
                u64::from_le_bytes(r[8..16].try_into().unwrap()),
            )
        };
        assert_eq!(parse(&rows[0]), (1, 15));
        assert_eq!(parse(&rows[1]), (2, 21));
        assert_eq!(parse(&rows[2]), (3, 7));
        assert_eq!(op.flushed_entries(), 3);
    }

    #[test]
    fn all_agg_functions() {
        let schema = Schema::uniform_u64(2);
        let keys = ProjectionPlan::new(&schema, Some(&[0])).unwrap();
        let aggs = vec![
            AggSpec {
                col: 1,
                func: AggFunc::Count,
            },
            AggSpec {
                col: 1,
                func: AggFunc::Sum,
            },
            AggSpec {
                col: 1,
                func: AggFunc::Min,
            },
            AggSpec {
                col: 1,
                func: AggFunc::Max,
            },
            AggSpec {
                col: 1,
                func: AggFunc::Avg,
            },
        ];
        let mut op = GroupByOp::new(keys, &aggs, &schema);
        let mut sink = Vec::new();
        for b in [4u64, 6, 2] {
            push_row(
                &mut op,
                &schema,
                vec![Value::U64(1), Value::U64(b)],
                &mut sink,
            );
        }
        let rows = flush(&mut op);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(u64::from_le_bytes(r[8..16].try_into().unwrap()), 3); // count
        assert_eq!(u64::from_le_bytes(r[16..24].try_into().unwrap()), 12); // sum
        assert_eq!(u64::from_le_bytes(r[24..32].try_into().unwrap()), 2); // min
        assert_eq!(u64::from_le_bytes(r[32..40].try_into().unwrap()), 6); // max
        assert_eq!(f64::from_le_bytes(r[40..48].try_into().unwrap()), 4.0); // avg
    }

    #[test]
    fn float_aggregation() {
        let schema = Schema::new(vec![
            Column {
                name: "k".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "v".into(),
                ty: ColumnType::F64,
            },
        ]);
        let keys = ProjectionPlan::new(&schema, Some(&[0])).unwrap();
        let mut op = GroupByOp::new(
            keys,
            &[AggSpec {
                col: 1,
                func: AggFunc::Sum,
            }],
            &schema,
        );
        let mut sink = Vec::new();
        for v in [0.5f64, 1.25] {
            push_row(
                &mut op,
                &schema,
                vec![Value::U64(1), Value::F64(v)],
                &mut sink,
            );
        }
        let rows = flush(&mut op);
        assert_eq!(f64::from_le_bytes(rows[0][8..16].try_into().unwrap()), 1.75);
    }

    #[test]
    fn overflow_ships_raw_tuples_immediately() {
        let schema = Schema::uniform_u64(2);
        let keys = ProjectionPlan::new(&schema, Some(&[0])).unwrap();
        let mut op = GroupByOp::with_table(
            keys,
            &[AggSpec {
                col: 1,
                func: AggFunc::Sum,
            }],
            &schema,
            CuckooTable::new(2, 4),
        );
        let mut overflow_rows = Vec::new();
        for k in 0..64u64 {
            push_row(
                &mut op,
                &schema,
                vec![Value::U64(k), Value::U64(1)],
                &mut overflow_rows,
            );
        }
        assert!(op.overflow_tuples() > 0);
        assert_eq!(overflow_rows.len() as u64, op.overflow_tuples());
        // Overflow rows are partial results in the output format
        // (key ++ aggregates).
        assert!(overflow_rows.iter().all(|r| r.len() == 16));
        // Every key appears exactly once across flush + overflow — the
        // "nothing is lost" invariant of the overflow buffer.
        let flushed = flush(&mut op);
        let mut keys: Vec<u64> = flushed
            .iter()
            .chain(overflow_rows.iter())
            .map(|r| u64::from_le_bytes(r[..8].try_into().unwrap()))
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..64u64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_flushes_nothing() {
        let schema = Schema::uniform_u64(2);
        let keys = ProjectionPlan::new(&schema, Some(&[0])).unwrap();
        let mut op = GroupByOp::new(
            keys,
            &[AggSpec {
                col: 1,
                func: AggFunc::Count,
            }],
            &schema,
        );
        assert!(flush(&mut op).is_empty());
        assert_eq!(op.group_count(), 0);
    }
}
