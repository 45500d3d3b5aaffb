//! Property-based batching correctness: a doorbell-batched fleet run
//! (any queue depth) and a sequential run of the same queries are two
//! schedules of the same semantics — every merged result must be
//! **byte-identical**, for row-range *and* key-hash partitioning,
//! including shards that receive zero rows and `GROUP BY AVG` over
//! `I64` values near the integer-overflow boundary (where an integer
//! partial `SUM` would wrap but the `AVG → SUMF64 + COUNT` rewrite must
//! not).

use proptest::prelude::*;

use farview::prelude::*;
use farview_core::{AggFunc, AggSpec, PredicateExpr, QueryStats};
use fv_data::{Column, ColumnType, Schema, TableBuilder};
use fv_pipeline::{CryptoSpec, JoinSmallSpec};

/// A random small table of 3 bounded `u64` columns (c0 = group key,
/// c1 = predicate column, c2 = aggregation payload). `1..=max_rows`
/// rows, so with 4+ shards the low end leaves some shards empty.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec((0u64..24, 0u64..1000, 0u64..64), 1..=max_rows).prop_map(|rows| {
        let schema = Schema::uniform_u64(3);
        let mut b = TableBuilder::with_capacity(schema, rows.len());
        for (k, p, v) in rows {
            b.push_values(vec![Value::U64(k), Value::U64(p), Value::U64(v)]);
        }
        b.build()
    })
}

/// A table whose payload column is `I64` with values `k · 2⁵²`,
/// `|k| ≤ 1024` — magnitudes up to ±2⁶², so a handful of same-sign rows
/// pushes an integer sum past `i64::MAX`, while every partial and total
/// `f64` sum stays exactly representable (`m · 2⁵²` with `|m| < 2⁵³`).
/// That makes the fleet's `AVG` merge bit-equal to the single node's.
fn arb_near_overflow_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec((0u64..4, -1024i64..1025), 0..=max_rows).prop_map(|rows| {
        let schema = Schema::new(vec![
            Column {
                name: "k".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "v".into(),
                ty: ColumnType::I64,
            },
        ]);
        let mut b = TableBuilder::with_capacity(schema, rows.len());
        for (k, m) in rows {
            b.push_values(vec![Value::U64(k), Value::I64(m << 52)]);
        }
        b.build()
    })
}

/// The query mix every batching property runs: selection, plain read,
/// `DISTINCT`, and `GROUP BY` with `AVG` (the partial-aggregate
/// rewrite) + `SUM`.
fn query_mix(threshold: u64) -> Vec<PipelineSpec> {
    vec![
        PipelineSpec::passthrough(),
        PipelineSpec::passthrough().filter(PredicateExpr::lt(1, threshold)),
        PipelineSpec::passthrough().distinct(vec![0]),
        PipelineSpec::passthrough().group_by(
            vec![0],
            vec![
                AggSpec {
                    col: 2,
                    func: AggFunc::Avg,
                },
                AggSpec {
                    col: 2,
                    func: AggFunc::Sum,
                },
            ],
        ),
        PipelineSpec::passthrough().filter(PredicateExpr::gt(1, threshold)),
        PipelineSpec::passthrough().group_by(
            vec![0],
            vec![AggSpec {
                col: 1,
                func: AggFunc::Max,
            }],
        ),
    ]
}

/// What a query's statistics say about the query, as opposed to the
/// schedule it ran in: a batch overlaps its queries, so response time,
/// event count and who paid the reconfiguration legitimately differ
/// from a solo run. Everything else must not.
fn schedule_free(stats: QueryStats) -> QueryStats {
    QueryStats {
        response_time: SimDuration::ZERO,
        sim_events: 0,
        reconfigured: false,
        ..stats
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// One node, one doorbell batch of depth 8 whose queries stream one
    /// shared table image — plain reads, a smart-addressing gather out
    /// of that image, a decrypting scan, the broadcast join, `DISTINCT`
    /// and `GROUP BY` — against the same specs posted solo, each reading
    /// the table for itself: byte-identical payloads, equal statistics.
    #[test]
    fn batched_node_equals_solo(
        table in arb_table(120),
        threshold in 0u64..1000,
        build_keys in prop::collection::vec(0u64..24, 1..12),
    ) {
        let mut bb = TableBuilder::new(Schema::uniform_u64(2));
        for (i, &k) in build_keys.iter().enumerate() {
            bb.push_values(vec![Value::U64(k), Value::U64(500 + i as u64)]);
        }
        let build = bb.build();
        let key = CryptoSpec { key: [0x5a; 16], iv: [0xc3; 16] };
        let mut specs = query_mix(threshold);
        specs.truncate(4);
        specs.extend([
            PipelineSpec::passthrough().project(vec![0, 2]).with_smart_addressing(),
            // The table rests in the clear, so this scans keystream
            // noise: as good a table as any for a schedule property.
            PipelineSpec::passthrough().decrypt(key).distinct(vec![0]),
            PipelineSpec::passthrough().join_small(JoinSmallSpec::new(0, &build, 0)),
            PipelineSpec::passthrough()
                .filter(PredicateExpr::lt(1, threshold))
                .project(vec![2, 0]),
        ]);

        let c = FarviewCluster::new(FarviewConfig::tiny());
        let qp = c.connect().unwrap();
        let (ft, _) = qp.load_table(&table).unwrap();
        let solo: Vec<QueryOutcome> = specs.iter().map(|s| qp.far_view(&ft, s).unwrap()).collect();
        let batch = qp.far_view_batch(&ft, &specs).unwrap();
        prop_assert_eq!(batch.len(), 8);
        for (i, (b, s)) in batch.iter().zip(&solo).enumerate() {
            prop_assert_eq!(&b.payload, &s.payload, "query {} diverged in the batch", i);
            prop_assert_eq!(&b.schema, &s.schema);
            prop_assert_eq!(schedule_free(b.stats), schedule_free(s.stats), "query {}", i);
        }
    }

    /// A batched fleet run returns byte-identical per-query results to
    /// sequential single-query runs — any queue depth, both
    /// partitionings, including zero-row shards (tables smaller than the
    /// fleet are generated at the low end of `arb_table`).
    #[test]
    fn batched_fleet_equals_sequential(
        table in arb_table(120),
        threshold in 0u64..1000,
        nodes in 2usize..5,
        depth in 1usize..=9,
        hash in any::<bool>(),
    ) {
        let part = if hash { Partitioning::KeyHash(0) } else { Partitioning::RowRange };
        let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&table, part).unwrap();
        let specs = query_mix(threshold);

        let sequential: Vec<FleetQueryOutcome> =
            specs.iter().map(|s| qp.far_view(&ft, s).unwrap()).collect();
        let mut batched = Vec::new();
        for chunk in specs.chunks(depth) {
            batched.extend(qp.far_view_batch(&ft, chunk).unwrap());
        }
        prop_assert_eq!(batched.len(), sequential.len());
        for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            prop_assert_eq!(
                &b.merged.payload, &s.merged.payload,
                "query {} diverged at depth {} over {} nodes ({:?})",
                i, depth, nodes, part
            );
            prop_assert_eq!(&b.merged.schema, &s.merged.schema);
        }
    }

    /// `GROUP BY AVG` over near-overflow `I64` values: batched, fleet,
    /// and single-node runs all agree byte-for-byte under row-range
    /// partitioning — the `AVG → SUMF64 + COUNT` rewrite neither wraps
    /// nor re-associates into different `f64` bits. Tables may be empty
    /// or smaller than the fleet (zero-row shards).
    #[test]
    fn group_by_avg_near_overflow_is_exact(
        table in arb_near_overflow_table(80),
        nodes in 2usize..5,
        depth in 1usize..=4,
    ) {
        let spec = PipelineSpec::passthrough().group_by(
            vec![0],
            vec![AggSpec { col: 1, func: AggFunc::Avg }],
        );

        // Single-node reference.
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let sqp = c.connect().unwrap();
        let (sft, _) = sqp.load_table(&table).unwrap();
        let single = sqp.far_view(&sft, &spec).unwrap();

        let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
        let sequential = qp.far_view(&ft, &spec).unwrap();
        prop_assert_eq!(&sequential.merged.payload, &single.payload);

        // The same query repeated to fill one doorbell batch: every
        // copy must come back identical.
        let specs = vec![spec; depth];
        let batched = qp.far_view_batch(&ft, &specs).unwrap();
        for b in &batched {
            prop_assert_eq!(&b.merged.payload, &single.payload);
            prop_assert_eq!(&b.merged.schema, &single.schema);
        }
    }
}
