//! Client-side merge of per-shard partial results (scatter–gather).
//!
//! When a query fans out across a fleet of Farview nodes, each shard
//! returns results in the operator's normal output format and the client
//! combines them in software — the same software-merge path the paper
//! prescribes for cuckoo overflow tuples (§5.4), generalized to whole
//! shards:
//!
//! * selection / projection / regex results **concatenate** (with
//!   row-range partitioning, shard order *is* row order);
//! * `DISTINCT` results take an order-preserving **union**
//!   ([`PartialAggPlan::for_distinct`]);
//! * `GROUP BY` results **re-aggregate**: the same group key can surface
//!   on several shards, so the client combines the per-shard partial
//!   aggregates ([`PartialAggPlan`]).
//!
//! `AVG` partials are not mergeable (a mean of means is wrong under
//! skew), so [`PartialAggPlan`] rewrites each `AVG(c)` into per-shard
//! `SUMF64(c)` + `COUNT(*)` (the `f64`-accumulating partial sum — an
//! integer `SUM` partial would wrap at 2⁶⁴ where the single node's
//! `f64` accumulator does not) and finalizes `sum / count` at merge
//! time —
//! the classic partial/final aggregate split.
//!
//! Merge order is deterministic: keys appear in first-seen order while
//! scanning shard payloads in shard order. Under row-range partitioning
//! this reproduces a single node's first-seen flush order exactly, which
//! is what makes the fleet's `group_by`/`distinct` results byte-identical
//! to a single node's (property-tested in `tests/fleet_props.rs` at the
//! workspace root).
//!
//! One floating-point caveat bounds that byte-identity: a single node
//! accumulates `AVG` (and `SUM` over `F64`) as an incremental `f64` sum
//! in row order, while the merge adds per-shard partial sums — a
//! different association. The results are bit-equal whenever every
//! partial and total sum is exactly representable in `f64` (integer
//! columns with sums below 2⁵³, which covers the evaluation workloads);
//! beyond that they agree only to `f64` rounding, like any
//! partial-aggregate split.

use std::collections::hash_map::{Entry, HashMap};

use fv_data::{ColumnType, Schema};

use crate::pipeline::PipelineError;
use crate::project::ProjectionPlan;
use crate::spec::{group_by_schema, AggFunc, AggSpec};

/// How one shard-level aggregate column folds into the running merged
/// value. Every aggregate emission is 8 bytes little-endian (see
/// `AggState::emit`); the combiner fixes the interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Combine {
    /// Wrapping `u64` addition (`COUNT`, `SUM` over `U64`).
    AddU64,
    /// Wrapping `i64` addition (`SUM` over `I64`).
    AddI64,
    /// `f64` addition (`SUM` over `F64`).
    AddF64,
    /// Minimum under the column's order.
    MinU64,
    /// Minimum of signed values.
    MinI64,
    /// Minimum of floats.
    MinF64,
    /// Maximum of unsigned values.
    MaxU64,
    /// Maximum of signed values.
    MaxI64,
    /// Maximum of floats.
    MaxF64,
}

impl Combine {
    #[expect(clippy::unreachable, reason = "AVG becomes SUM and COUNT before this")]
    fn for_agg(func: AggFunc, ty: ColumnType, col: usize) -> Result<Combine, PipelineError> {
        Ok(match (func, ty) {
            (AggFunc::Count, _) => Combine::AddU64,
            (AggFunc::Sum, ColumnType::U64) => Combine::AddU64,
            (AggFunc::Sum, ColumnType::I64) => Combine::AddI64,
            (AggFunc::Sum, ColumnType::F64) => Combine::AddF64,
            (AggFunc::SumF64, ColumnType::U64 | ColumnType::I64 | ColumnType::F64) => {
                Combine::AddF64
            }
            (AggFunc::Min, ColumnType::U64) => Combine::MinU64,
            (AggFunc::Min, ColumnType::I64) => Combine::MinI64,
            (AggFunc::Min, ColumnType::F64) => Combine::MinF64,
            (AggFunc::Max, ColumnType::U64) => Combine::MaxU64,
            (AggFunc::Max, ColumnType::I64) => Combine::MaxI64,
            (AggFunc::Max, ColumnType::F64) => Combine::MaxF64,
            (AggFunc::Avg, _) => unreachable!("AVG is rewritten before combiners are built"),
            (_, ColumnType::Bytes(_)) => return Err(PipelineError::AggOnBytes { col }),
        })
    }

    fn apply(self, acc: [u8; 8], new: [u8; 8]) -> [u8; 8] {
        let (a, b) = (u64::from_le_bytes(acc), u64::from_le_bytes(new));
        match self {
            Combine::AddU64 => a.wrapping_add(b).to_le_bytes(),
            Combine::AddI64 => (a as i64).wrapping_add(b as i64).to_le_bytes(),
            Combine::AddF64 => (f64::from_le_bytes(acc) + f64::from_le_bytes(new)).to_le_bytes(),
            Combine::MinU64 => a.min(b).to_le_bytes(),
            Combine::MinI64 => (a as i64).min(b as i64).to_le_bytes(),
            Combine::MinF64 => f64::from_le_bytes(acc)
                .min(f64::from_le_bytes(new))
                .to_le_bytes(),
            Combine::MaxU64 => a.max(b).to_le_bytes(),
            Combine::MaxI64 => (a as i64).max(b as i64).to_le_bytes(),
            Combine::MaxF64 => f64::from_le_bytes(acc)
                .max(f64::from_le_bytes(new))
                .to_le_bytes(),
        }
    }
}

/// How one *user-facing* aggregate column is produced from the merged
/// shard-level slots.
#[derive(Debug, Clone, Copy)]
enum Finalize {
    /// Copy merged shard slot `i` straight through.
    Slot(usize),
    /// `AVG`: divide the `f64` value-sum slot by the count slot.
    AvgOf {
        /// Shard slot holding `SUMF64(col)` (an `f64` partial sum — an
        /// integer `SUM` would wrap at 2⁶⁴ where the single-node `AVG`
        /// accumulator does not).
        sum: usize,
        /// Shard slot holding `COUNT(*)`.
        count: usize,
    },
}

/// Plan for the partial/final aggregate split of one scatter–gather
/// `GROUP BY`.
///
/// Built once per fleet query from the user's aggregate list; yields the
/// aggregate list each shard must run ([`PartialAggPlan::shard_aggs`])
/// and merges the shard payloads back into the exact single-node output
/// format ([`PartialAggPlan::merge`]).
#[derive(Debug)]
pub struct PartialAggPlan {
    key_bytes: usize,
    shard_slots: Vec<Combine>,
    shard_aggs: Vec<AggSpec>,
    finalize: Vec<Finalize>,
    out_schema: Schema,
    shard_row_bytes: usize,
}

impl PartialAggPlan {
    /// Build the plan for `GROUP BY keys` with `aggs` over `base_schema`.
    pub fn new(
        keys: &[usize],
        aggs: &[AggSpec],
        base_schema: &Schema,
    ) -> Result<Self, PipelineError> {
        let key_plan = ProjectionPlan::new(base_schema, Some(keys))?;
        // A single node's checks and output schema, before any aggregate
        // column is read: a merged fleet result is indistinguishable from
        // a single node's, and so is a refused one.
        let out_schema = group_by_schema(&key_plan, aggs, base_schema)?;
        let key_bytes = key_plan.out_row_bytes();

        let mut shard_slots: Vec<Combine> = Vec::new();
        let mut shard_aggs: Vec<AggSpec> = Vec::new();
        let mut finalize = Vec::new();
        // Reuse a slot when two user aggregates need the same shard
        // aggregate (e.g. SUM(c) next to AVG(c)) — also required, because
        // the shard's output schema forbids duplicate column names.
        let mut slot_for = |func: AggFunc, col: usize, ty| -> Result<usize, PipelineError> {
            let spec = AggSpec { col, func };
            if let Some(i) = shard_aggs.iter().position(|s| *s == spec) {
                return Ok(i);
            }
            shard_slots.push(Combine::for_agg(func, ty, col)?);
            shard_aggs.push(spec);
            Ok(shard_aggs.len() - 1)
        };
        for a in aggs {
            let ty = base_schema.column(a.col).ty;
            match a.func {
                AggFunc::Avg => {
                    let sum = slot_for(AggFunc::SumF64, a.col, ty)?;
                    let count = slot_for(AggFunc::Count, a.col, ty)?;
                    finalize.push(Finalize::AvgOf { sum, count });
                }
                func => {
                    finalize.push(Finalize::Slot(slot_for(func, a.col, ty)?));
                }
            }
        }

        let shard_row_bytes = key_bytes + 8 * shard_slots.len();

        Ok(PartialAggPlan {
            key_bytes,
            shard_slots,
            shard_aggs,
            finalize,
            out_schema,
            shard_row_bytes,
        })
    }

    /// Build the plan for `SELECT DISTINCT <cols>` — the degenerate
    /// `GROUP BY <cols>` with no aggregates. This is the
    /// DISTINCT→GROUP-BY unification: every grouping operator merges
    /// through the *same* partial-aggregation path, and an empty
    /// aggregate list reduces [`PartialAggPlan::merge`] to the
    /// order-preserving first-seen union: scan shards in order, keep the
    /// first occurrence of each row — the client software dedup the
    /// paper already requires for overflow tuples (§5.4), applied across
    /// shards.
    pub fn for_distinct(cols: &[usize], base_schema: &Schema) -> Result<Self, PipelineError> {
        if cols.is_empty() {
            return Err(PipelineError::EmptyDistinct);
        }
        PartialAggPlan::new(cols, &[], base_schema)
    }

    /// The aggregate list each shard runs (`AVG` rewritten to
    /// `SUM` + `COUNT`).
    pub fn shard_aggs(&self) -> &[AggSpec] {
        &self.shard_aggs
    }

    /// The merged (user-facing) output schema: key columns followed by
    /// one column per requested aggregate.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Merge shard payloads (scanned in the given order) into the
    /// single-node output format. Returns the packed rows and the number
    /// of partial rows consumed (the input size the client-side merge
    /// cost model charges for).
    ///
    /// Nothing is allocated per row: a key is a borrowed slice of its
    /// payload, mapped to its group's index in first-seen order, and
    /// every group's shard slots sit in one flat accumulator column.
    #[expect(
        clippy::disallowed_macros,
        reason = "every shard runs the same compiled plan, so payloads are whole partial rows"
    )]
    pub fn merge<P: AsRef<[u8]>>(&self, shard_payloads: &[P]) -> (Vec<u8>, u64) {
        let width = self.shard_slots.len();
        let mut groups: HashMap<&[u8], usize> = HashMap::new();
        let mut keys: Vec<&[u8]> = Vec::new();
        let mut acc: Vec<[u8; 8]> = Vec::new();
        let mut partial_rows = 0u64;

        for payload in shard_payloads {
            let payload = payload.as_ref();
            assert_eq!(
                payload.len() % self.shard_row_bytes,
                0,
                "shard payload is not whole partial rows"
            );
            for row in payload.chunks_exact(self.shard_row_bytes) {
                partial_rows += 1;
                let (key, slots) = row.split_at(self.key_bytes);
                // `shard_row_bytes` is the key plus 8 bytes per slot.
                let slots = slots.as_chunks::<8>().0;
                match groups.entry(key) {
                    Entry::Occupied(g) => {
                        let at = g.get() * width;
                        let merged = acc.get_mut(at..at + width).unwrap_or_default();
                        for ((a, s), combine) in merged.iter_mut().zip(slots).zip(&self.shard_slots)
                        {
                            *a = combine.apply(*a, *s);
                        }
                    }
                    Entry::Vacant(g) => {
                        g.insert(keys.len());
                        keys.push(key);
                        acc.extend_from_slice(slots);
                    }
                }
            }
        }

        let mut out = Vec::with_capacity(keys.len() * self.out_schema.row_bytes());
        for (g, key) in keys.iter().enumerate() {
            let slots = acc.get(g * width..(g + 1) * width).unwrap_or_default();
            let slot = |i: usize| slots.get(i).copied().unwrap_or_default();
            out.extend_from_slice(key);
            for f in &self.finalize {
                match *f {
                    Finalize::Slot(i) => out.extend_from_slice(&slot(i)),
                    Finalize::AvgOf { sum, count } => {
                        let n = u64::from_le_bytes(slot(count));
                        let total = f64::from_le_bytes(slot(sum));
                        let avg = if n == 0 { 0.0 } else { total / n as f64 };
                        out.extend_from_slice(&avg.to_le_bytes());
                    }
                }
            }
        }
        (out, partial_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::{Row, Value};

    use crate::group_by::GroupByOp;
    use crate::pack::Packer;
    use crate::pipeline::{TailOperator, TupleBlock};

    fn base() -> Schema {
        Schema::uniform_u64(3)
    }

    fn run_group_by(rows: &[(u64, u64, u64)], aggs: Vec<AggSpec>) -> Vec<u8> {
        let schema = base();
        let keys = ProjectionPlan::new(&schema, Some(&[0])).unwrap();
        let mut op = GroupByOp::new(keys, &aggs, &schema);
        let mut data = Vec::new();
        for &(a, b, c) in rows {
            data.extend(Row(vec![Value::U64(a), Value::U64(b), Value::U64(c)]).encode(&schema));
        }
        let block = TupleBlock::new(&data, schema.row_bytes());
        let sel: Vec<u32> = (0..block.len() as u32).collect();
        let mut packer = Packer::passthrough();
        op.push_block(&block, &sel, &mut packer);
        assert!(packer.drain().is_empty(), "test tables must not overflow");
        op.flush(&mut packer);
        packer.drain()
    }

    #[test]
    fn sharded_group_by_equals_single_node() {
        let aggs = vec![
            AggSpec {
                col: 1,
                func: AggFunc::Sum,
            },
            AggSpec {
                col: 2,
                func: AggFunc::Min,
            },
            AggSpec {
                col: 1,
                func: AggFunc::Max,
            },
            AggSpec {
                col: 2,
                func: AggFunc::Count,
            },
            AggSpec {
                col: 1,
                func: AggFunc::Avg,
            },
        ];
        let rows: Vec<(u64, u64, u64)> = (0..60).map(|i| (i % 7, i * 3 % 11, i * 5 % 13)).collect();

        let single = run_group_by(&rows, aggs.clone());

        let plan = PartialAggPlan::new(&[0], &aggs, &base()).unwrap();
        // Row-range split into three shards.
        let shard_payloads: Vec<Vec<u8>> = rows
            .chunks(20)
            .map(|chunk| run_group_by(chunk, plan.shard_aggs().to_vec()))
            .collect();
        let (merged, partial_rows) = plan.merge(&shard_payloads);

        assert_eq!(merged, single, "merge must reproduce the single node");
        assert_eq!(partial_rows, 7 * 3, "7 keys hit on each of 3 shards");
        assert_eq!(plan.out_schema().column_count(), 6);
        assert_eq!(plan.out_schema().column(5).name, "avg_c1");
    }

    #[test]
    fn avg_rewrite_shape() {
        let aggs = vec![AggSpec {
            col: 1,
            func: AggFunc::Avg,
        }];
        let plan = PartialAggPlan::new(&[0], &aggs, &base()).unwrap();
        assert_eq!(plan.shard_aggs().len(), 2, "AVG becomes SUMF64 + COUNT");
        assert_eq!(plan.shard_aggs()[0].func, AggFunc::SumF64);
        assert_eq!(plan.shard_aggs()[1].func, AggFunc::Count);
        assert_eq!(plan.shard_row_bytes, 8 + 16);
        assert_eq!(
            plan.out_schema().row_bytes(),
            16,
            "user sees one AVG column"
        );
    }

    fn rows(vals: &[u64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn merge_distinct_keeps_first_seen_order() {
        let plan = PartialAggPlan::for_distinct(&[0], &base()).unwrap();
        let (merged, n) = plan.merge(&[rows(&[3, 1, 4]), rows(&[1, 5, 3, 9]), rows(&[2, 6])]);
        assert_eq!(n, 9);
        assert_eq!(merged, rows(&[3, 1, 4, 5, 9, 2, 6]));
    }

    #[test]
    fn distinct_unifies_with_the_aggregate_merge_path() {
        // DISTINCT = GROUP BY with no aggregates: the partial-aggregation
        // merge is the first-seen union, deduplicated across shards and
        // within one.
        let plan = PartialAggPlan::for_distinct(&[0], &base()).unwrap();
        assert!(plan.shard_aggs().is_empty());
        assert_eq!(plan.shard_row_bytes, 8);
        assert_eq!(plan.out_schema().column_count(), 1);

        let shards = [rows(&[3, 1, 4, 1]), rows(&[1, 5, 3, 9]), rows(&[2, 6, 2])];
        let (merged, n) = plan.merge(&shards);
        assert_eq!(merged, rows(&[3, 1, 4, 5, 9, 2, 6]));
        assert_eq!(n, 11);

        // Multi-column keys keep the projection order.
        let plan2 = PartialAggPlan::for_distinct(&[2, 0], &base()).unwrap();
        assert_eq!(plan2.shard_row_bytes, 16);
        let payload = rows(&[7, 8, 7, 8, 1, 2]);
        let (merged, n) = plan2.merge(&[payload.clone()]);
        assert_eq!(n, 3);
        assert_eq!(merged, rows(&[7, 8, 1, 2]));
    }

    /// A grouping the single node refuses, the partial/final split
    /// refuses with the same error — an aggregate column past the
    /// schema's end included, which once panicked instead.
    #[test]
    fn refuses_what_a_single_node_refuses() {
        use crate::spec::GroupingSpec;
        use fv_data::Column;
        let mut cols = base().columns().to_vec();
        cols.push(Column {
            name: "s".into(),
            ty: ColumnType::Bytes(8),
        });
        let schema = Schema::new(cols);
        let sum = |col| AggSpec {
            col,
            func: AggFunc::Sum,
        };
        for (keys, aggs) in [
            (vec![0], vec![sum(7)]),
            (vec![0], vec![sum(1), sum(4)]),
            (vec![0], vec![sum(3)]),
            (vec![0], vec![sum(1), sum(1)]),
            (vec![5], vec![sum(1)]),
            (vec![], vec![sum(1)]),
        ] {
            let want = GroupingSpec::GroupBy {
                keys: keys.clone(),
                aggs: aggs.clone(),
            }
            .verify(&schema)
            .unwrap_err();
            let got = PartialAggPlan::new(&keys, &aggs, &schema).map(|p| p.out_schema);
            assert_eq!(got, Err(want), "{keys:?} {aggs:?}");
        }
        assert_eq!(
            PartialAggPlan::new(&[0], &[sum(7)], &base()).map(|p| p.out_schema),
            Err(PipelineError::UnknownColumn { col: 7, arity: 3 })
        );
        for cols in [vec![], vec![4], vec![0, 0]] {
            let want = GroupingSpec::Distinct { cols: cols.clone() }
                .verify(&schema)
                .unwrap_err();
            let got = PartialAggPlan::for_distinct(&cols, &schema).map(|p| p.out_schema);
            assert_eq!(got, Err(want), "distinct {cols:?}");
        }
    }

    #[test]
    fn empty_shards_merge_to_empty() {
        let aggs = vec![AggSpec {
            col: 1,
            func: AggFunc::Sum,
        }];
        let plan = PartialAggPlan::new(&[0], &aggs, &base()).unwrap();
        let (merged, rows) = plan.merge(&[Vec::new(), Vec::new()]);
        assert!(merged.is_empty());
        assert_eq!(rows, 0);
        let distinct = PartialAggPlan::for_distinct(&[0], &base()).unwrap();
        let (d, n) = distinct.merge::<Vec<u8>>(&[]);
        assert!(d.is_empty());
        assert_eq!(n, 0);
    }
}
