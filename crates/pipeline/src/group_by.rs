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
//! Homeless cuckoo entries ship the raw tuple to the client for software
//! aggregation (the overflow path).

use std::ops::Range;

use fv_data::{Column, ColumnType, Schema};

use crate::cuckoo::{hash_key, CuckooTable};
use crate::pack::Packer;
use crate::pipeline::{TailOperator, TupleBlock};
use crate::project::ProjectionPlan;
use crate::spec::{AggFunc, AggSpec};

/// One aggregate accumulator (crate-internal; public only through the
/// pipeline's packed output format).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AggState {
    Count(u64),
    SumU(u64),
    SumI(i64),
    SumF(f64),
    MinU(u64),
    MinI(i64),
    MinF(f64),
    MaxU(u64),
    MaxI(i64),
    MaxF(f64),
    Avg { sum: f64, n: u64 },
}

impl AggState {
    fn new(func: AggFunc, ty: ColumnType) -> AggState {
        match (func, ty) {
            (AggFunc::Count, _) => AggState::Count(0),
            (AggFunc::Sum, ColumnType::U64) => AggState::SumU(0),
            (AggFunc::Sum, ColumnType::I64) => AggState::SumI(0),
            (AggFunc::Sum, ColumnType::F64) => AggState::SumF(0.0),
            (AggFunc::SumF64, ColumnType::U64 | ColumnType::I64 | ColumnType::F64) => {
                AggState::SumF(0.0)
            }
            (AggFunc::Min, ColumnType::U64) => AggState::MinU(u64::MAX),
            (AggFunc::Min, ColumnType::I64) => AggState::MinI(i64::MAX),
            (AggFunc::Min, ColumnType::F64) => AggState::MinF(f64::INFINITY),
            (AggFunc::Max, ColumnType::U64) => AggState::MaxU(0),
            (AggFunc::Max, ColumnType::I64) => AggState::MaxI(i64::MIN),
            (AggFunc::Max, ColumnType::F64) => AggState::MaxF(f64::NEG_INFINITY),
            (AggFunc::Avg, _) => AggState::Avg { sum: 0.0, n: 0 },
            (f, t) => unreachable!("agg {f:?} over {t:?} rejected at compile"),
        }
    }

    /// Fold in one input cell, decoded in place from its raw
    /// little-endian column bytes: wrapping integer sums, `as f64`
    /// conversions for the float accumulators.
    #[inline]
    fn update_raw(&mut self, field: &[u8], ty: ColumnType) {
        if let AggState::Count(n) = self {
            *n += 1;
            return;
        }
        // fv:allow(panic): non-COUNT aggregates are restricted to 8-byte
        // scalar columns by spec verification.
        let bits = u64::from_le_bytes(field.try_into().expect("8-byte scalar agg column"));
        let as_f64 = |bits: u64| match ty {
            ColumnType::U64 => bits as f64,
            ColumnType::I64 => (bits as i64) as f64,
            ColumnType::F64 => f64::from_bits(bits),
            ColumnType::Bytes(_) => unreachable!("float agg over bytes rejected at compile"),
        };
        match self {
            AggState::Count(_) => {} // handled above
            AggState::SumU(s) => *s = s.wrapping_add(bits),
            AggState::SumI(s) => *s = s.wrapping_add(bits as i64),
            AggState::SumF(s) => *s += as_f64(bits),
            AggState::MinU(m) => *m = (*m).min(bits),
            AggState::MinI(m) => *m = (*m).min(bits as i64),
            AggState::MinF(m) => *m = m.min(f64::from_bits(bits)),
            AggState::MaxU(m) => *m = (*m).max(bits),
            AggState::MaxI(m) => *m = (*m).max(bits as i64),
            AggState::MaxF(m) => *m = m.max(f64::from_bits(bits)),
            AggState::Avg { sum, n } => {
                *sum += as_f64(bits);
                *n += 1;
            }
        }
    }

    /// 8-byte little-endian emission.
    fn emit(&self) -> [u8; 8] {
        match self {
            AggState::Count(n) => n.to_le_bytes(),
            AggState::SumU(s) => s.to_le_bytes(),
            AggState::SumI(s) => s.to_le_bytes(),
            AggState::SumF(s) => s.to_le_bytes(),
            AggState::MinU(m) => m.to_le_bytes(),
            AggState::MinI(m) => m.to_le_bytes(),
            AggState::MinF(m) => m.to_le_bytes(),
            AggState::MaxU(m) => m.to_le_bytes(),
            AggState::MaxI(m) => m.to_le_bytes(),
            AggState::MaxF(m) => m.to_le_bytes(),
            AggState::Avg { sum, n } => {
                let avg = if *n == 0 { 0.0 } else { sum / *n as f64 };
                avg.to_le_bytes()
            }
        }
    }

    /// The output column type of this accumulator.
    fn out_type(&self) -> ColumnType {
        match self {
            AggState::Count(_) | AggState::SumU(_) | AggState::MinU(_) | AggState::MaxU(_) => {
                ColumnType::U64
            }
            AggState::SumI(_) | AggState::MinI(_) | AggState::MaxI(_) => ColumnType::I64,
            AggState::SumF(_) | AggState::MinF(_) | AggState::MaxF(_) | AggState::Avg { .. } => {
                ColumnType::F64
            }
        }
    }
}

/// Output column type of `func` over an input column of type `ty` — the
/// static mirror of `AggState::new(func, ty).out_type()` used by the
/// plan/spec verifiers. Callers must reject byte-string aggregation
/// (other than `COUNT`) first, exactly as compilation does.
pub(crate) fn agg_out_type(func: AggFunc, ty: ColumnType) -> ColumnType {
    AggState::new(func, ty).out_type()
}

/// Streaming GROUP BY with aggregation.
pub struct GroupByOp {
    keys: ProjectionPlan,
    template: Vec<AggState>,
    table: CuckooTable<Vec<AggState>>,
    /// Insertion-ordered key queue — "it inserts the distinct entries
    /// into a separate queue" (§5.4) — so flush order is deterministic.
    queue: Vec<Box<[u8]>>,
    out_schema: Schema,
    /// Per-aggregate input cell: byte range + type in the base schema.
    agg_cells: Vec<(Range<usize>, ColumnType)>,
    /// True when every key column is word-sized: flush can emit packed
    /// rows with fixed 8-byte copies (the `write_projected` discipline).
    word_keys: bool,
    /// Scratch, reused across blocks.
    block_keys: Vec<u8>,
    block_hashes: Vec<u64>,
    batched_blocks: u64,
    overflow: u64,
    flushed: u64,
}

impl std::fmt::Debug for GroupByOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupByOp")
            .field("groups", &self.queue.len())
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

    /// Explicit table geometry (crate-internal: tests/ablations).
    pub(crate) fn with_table(
        keys: ProjectionPlan,
        aggs: &[AggSpec],
        base_schema: &Schema,
        table: CuckooTable<Vec<AggState>>,
    ) -> Self {
        let template: Vec<AggState> = aggs
            .iter()
            .map(|a| AggState::new(a.func, base_schema.column(a.col).ty))
            .collect();
        let mut out_cols: Vec<Column> = keys.out_schema().columns().to_vec();
        for (a, st) in aggs.iter().zip(&template) {
            let func = match a.func {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::SumF64 => "sumf64",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
                AggFunc::Avg => "avg",
            };
            out_cols.push(Column {
                name: format!("{func}_{}", base_schema.column(a.col).name),
                ty: st.out_type(),
            });
        }
        let out_schema = Schema::new(out_cols);
        let agg_cells = aggs
            .iter()
            .map(|a| {
                (
                    base_schema.column_range(a.col),
                    base_schema.column(a.col).ty,
                )
            })
            .collect();
        let word_keys = keys.all_word_cols();
        GroupByOp {
            keys,
            template,
            table,
            queue: Vec::new(),
            out_schema,
            agg_cells,
            word_keys,
            block_keys: Vec::new(),
            block_hashes: Vec::new(),
            batched_blocks: 0,
            overflow: 0,
            flushed: 0,
        }
    }

    /// Output schema: key columns followed by one column per aggregate.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Number of live groups.
    pub fn group_count(&self) -> usize {
        self.queue.len()
    }
}

impl TailOperator for GroupByOp {
    fn flush(&mut self, packer: &mut Packer) {
        let mut row_buf = Vec::with_capacity(self.out_schema.row_bytes());
        for key in &self.queue {
            // A queued key's entry can have been displaced to overflow by
            // later cuckoo kicks; guard rather than unwrap.
            if let Some(states) = self.table.get(key) {
                row_buf.clear();
                if self.word_keys {
                    // Word-specialized packed emission: the same fixed
                    // 8-byte copy discipline as `write_projected` on the
                    // pack path, instead of a variable-length memcpy.
                    for w in key.chunks_exact(8) {
                        // fv:allow(panic): chunks_exact(8) yields 8 bytes.
                        let word: [u8; 8] = w.try_into().expect("word key column");
                        row_buf.extend_from_slice(&word);
                    }
                } else {
                    row_buf.extend_from_slice(key);
                }
                for st in states {
                    row_buf.extend_from_slice(&st.emit());
                }
                self.flushed += 1;
                packer.push_tuple(&row_buf);
            }
        }
    }

    /// Hash-all-then-probe-all. Pass 1 gathers every survivor's key
    /// into one contiguous scratch; pass 2 computes all primary hashes
    /// in a tight loop; pass 3 probes/updates the group table with the
    /// hash in hand, slicing aggregate inputs straight from the block's
    /// raw bytes (no `RowView`/`Value` per tuple). Update order is tuple
    /// order, so float sums are bit-identical to a per-tuple fold.
    fn push_block(&mut self, block: &TupleBlock<'_>, sel: &[u32], packer: &mut Packer) {
        // Never zero: `ProjectionPlan` refuses an empty column list.
        let kw = self.keys.out_row_bytes();
        self.batched_blocks += 1;
        let mut keys_buf = std::mem::take(&mut self.block_keys);
        let mut hashes = std::mem::take(&mut self.block_hashes);
        keys_buf.clear();
        keys_buf.reserve(sel.len() * kw);
        for &i in sel {
            self.keys.write_projected(block.tuple(i), &mut keys_buf);
        }
        hashes.clear();
        hashes.extend(keys_buf.chunks_exact(kw).map(hash_key));

        for (j, key) in keys_buf.chunks_exact(kw).enumerate() {
            // fv:allow(panic): hashes has one entry per key chunk.
            let h = hashes[j];
            // fv:allow(panic): j < sel.len() by construction.
            let tuple = block.tuple(sel[j]);
            if let Some(states) = self.table.get_mut_hashed(h, key) {
                for ((range, ty), st) in self.agg_cells.iter().zip(states.iter_mut()) {
                    st.update_raw(&tuple[range.clone()], *ty);
                }
                continue;
            }
            // New group.
            let mut states = self.template.clone();
            for ((range, ty), st) in self.agg_cells.iter().zip(states.iter_mut()) {
                st.update_raw(&tuple[range.clone()], *ty);
            }
            let key_box: Box<[u8]> = key.into();
            match self.table.insert_hashed(h, key_box.clone(), states) {
                Ok(()) => self.queue.push(key_box),
                Err((hkey, hstates)) => {
                    // A cuckoo eviction chain left some entry homeless —
                    // not necessarily the one just inserted. Its partial
                    // aggregates are shipped to the client immediately,
                    // in the same `key ++ aggregates` format as the final
                    // flush, for software merging (§5.4's overflow
                    // buffer).
                    self.overflow += 1;
                    if hkey != key_box {
                        // The new key took a slot; the displaced old one
                        // must leave the flush queue (its state left the
                        // table).
                        self.queue.push(key_box);
                        if let Some(pos) = self.queue.iter().position(|k| *k == hkey) {
                            self.queue.remove(pos);
                        }
                    }
                    let mut row_buf = Vec::with_capacity(self.out_schema.row_bytes());
                    row_buf.extend_from_slice(&hkey);
                    for st in &hstates {
                        row_buf.extend_from_slice(&st.emit());
                    }
                    packer.push_tuple(&row_buf);
                }
            }
        }

        self.block_keys = keys_buf;
        self.block_hashes = hashes;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::{Row, Value};

    /// Push one row, collecting what it emits before the flush
    /// (overflow rows) into `out`.
    fn push_row(op: &mut GroupByOp, schema: &Schema, vals: Vec<Value>, out: &mut Vec<Vec<u8>>) {
        let packed = crate::pipeline::push_row(op, &Row(vals).encode(schema));
        let width = op.out_schema().row_bytes();
        out.extend(packed.chunks_exact(width).map(<[u8]>::to_vec));
    }

    fn flush(op: &mut GroupByOp) -> Vec<Vec<u8>> {
        let mut packer = Packer::passthrough();
        op.flush(&mut packer);
        let width = op.out_schema().row_bytes();
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
        assert_eq!(op.out_schema().column_count(), 6);
        assert_eq!(op.out_schema().column(5).name, "avg_c1");
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
