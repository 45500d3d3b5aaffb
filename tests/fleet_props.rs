//! Property-based shard-merge correctness: a fleet of N nodes and a
//! single node are two routes to the same query semantics. Under
//! row-range partitioning the merged fleet result must be
//! **byte-identical** to the single node's for selection, `DISTINCT`
//! and `GROUP BY` over the same rows; under hash partitioning the
//! results must be set-equal with every group computed whole on one
//! shard.

use proptest::prelude::*;

use farview::prelude::*;
use farview_core::{AggFunc, AggSpec, PredicateExpr};
use fv_data::{Column, ColumnType, Schema, Table, TableBuilder, Value};
use fv_pipeline::JoinSmallSpec;

/// A random small table: `cols` u64 columns, bounded values so groups
/// and predicates are non-degenerate, and sums stay exactly
/// representable in `f64` (the AVG merge divides a sum of shard sums).
fn arb_table(max_rows: usize, cols: usize, value_bound: u64) -> impl Strategy<Value = Table> {
    prop::collection::vec(prop::collection::vec(0..value_bound, cols), 1..=max_rows).prop_map(
        move |rows| {
            let schema = Schema::uniform_u64(cols);
            let mut b = TableBuilder::with_capacity(schema, rows.len());
            for r in rows {
                b.push_values(r.into_iter().map(Value::U64).collect());
            }
            b.build()
        },
    )
}

fn single_node(table: &Table, spec: &PipelineSpec) -> QueryOutcome {
    let c = FarviewCluster::new(FarviewConfig::tiny());
    let qp = c.connect().unwrap();
    let (ft, _) = qp.load_table(table).unwrap();
    qp.far_view(&ft, spec).unwrap()
}

fn fleet(nodes: usize, table: &Table, part: Partitioning, spec: &PipelineSpec) -> QueryOutcome {
    let f = FarviewFleet::new(nodes, FarviewConfig::tiny());
    let qp = f.connect().unwrap();
    let (ft, _) = qp.load_table(table, part).unwrap();
    qp.far_view(&ft, spec).unwrap().merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Selection (and the plain read) concatenate back into single-node
    /// row order under row-range partitioning, for any fleet size.
    #[test]
    fn select_is_byte_identical(
        table in arb_table(200, 3, 1000),
        threshold in 0u64..1000,
        nodes in 2usize..6,
    ) {
        let spec = PipelineSpec::passthrough().filter(PredicateExpr::lt(0, threshold));
        let single = single_node(&table, &spec);
        let merged = fleet(nodes, &table, Partitioning::RowRange, &spec);
        prop_assert_eq!(merged.payload, single.payload);

        let read = PipelineSpec::passthrough();
        prop_assert_eq!(
            fleet(nodes, &table, Partitioning::RowRange, &read).payload,
            table.bytes().to_vec()
        );
    }

    /// DISTINCT: the order-preserving union over contiguous shards
    /// reproduces the single node's first-seen flush order exactly.
    #[test]
    fn distinct_is_byte_identical(
        table in arb_table(300, 2, 48),
        nodes in 2usize..6,
    ) {
        let spec = PipelineSpec::passthrough().distinct(vec![0]);
        let single = single_node(&table, &spec);
        let merged = fleet(nodes, &table, Partitioning::RowRange, &spec);
        prop_assert_eq!(merged.payload, single.payload);
    }

    /// GROUP BY with every aggregate function: partial re-aggregation
    /// across shards reproduces the single node byte-for-byte, including
    /// the AVG → SUMF64+COUNT rewrite.
    #[test]
    fn group_by_is_byte_identical(
        table in arb_table(250, 3, 64),
        func in prop::sample::select(vec![
            AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg,
        ]),
        nodes in 2usize..6,
    ) {
        let spec = PipelineSpec::passthrough()
            .group_by(vec![0], vec![AggSpec { col: 2, func }]);
        let single = single_node(&table, &spec);
        let merged = fleet(nodes, &table, Partitioning::RowRange, &spec);
        prop_assert_eq!(merged.payload, single.payload, "func {:?}", func);
        prop_assert_eq!(merged.schema, single.schema);
    }

    /// Hash partitioning trades row order for key co-location: results
    /// are set-equal to the single node's, and the shards together flush
    /// exactly one group per distinct key.
    #[test]
    fn key_hash_group_by_is_set_equal(
        table in arb_table(300, 2, 32),
        nodes in 2usize..5,
    ) {
        let spec = PipelineSpec::passthrough()
            .group_by(vec![0], vec![AggSpec { col: 1, func: AggFunc::Sum }]);
        let single = single_node(&table, &spec);

        let f = FarviewFleet::new(nodes, FarviewConfig::tiny());
        let qp = f.connect().unwrap();
        let (ft, _) = qp.load_table(&table, Partitioning::KeyHash(0)).unwrap();
        let out = qp.far_view(&ft, &spec).unwrap();

        let sorted_rows = |o: &QueryOutcome| {
            let mut v: Vec<Vec<u8>> = o
                .payload
                .chunks_exact(o.schema.row_bytes())
                .map(<[u8]>::to_vec)
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(sorted_rows(&out.merged), sorted_rows(&single));
        prop_assert_eq!(out.merged.stats.groups_flushed, single.stats.groups_flushed);
    }

    /// A table encrypted at rest is the one input the two routes do not
    /// share: a single node decrypts it back to the plaintext, a fleet
    /// refuses with a typed error rather than decrypt every shard from
    /// keystream offset 0.
    #[test]
    fn decrypt_input_is_single_node_only(
        table in arb_table(200, 3, 1000),
        nodes in 2usize..6,
        hash in any::<bool>(),
        key in prop::array::uniform16(any::<u8>()),
        iv in prop::array::uniform16(any::<u8>()),
    ) {
        let encrypted = fv_workload::encrypt_table(&table, &key, &iv);
        let spec = PipelineSpec::passthrough().decrypt(fv_pipeline::CryptoSpec { key, iv });
        prop_assert_eq!(single_node(&encrypted, &spec).payload, table.bytes());

        let part = if hash { Partitioning::KeyHash(0) } else { Partitioning::RowRange };
        let f = FarviewFleet::new(nodes, FarviewConfig::tiny());
        let qp = f.connect().unwrap();
        let (ft, _) = qp.load_table(&encrypted, part).unwrap();
        prop_assert_eq!(
            qp.far_view(&ft, &spec).map(|o| o.merged.payload),
            Err(FvError::FleetUnsupported { feature: "input-decrypted" })
        );
    }
}

/// The batched hash operators and the DFA-prefiltered regex scan ride
/// through a **replicated** fleet read unchanged: with `r = 2` under
/// row-range partitioning, DISTINCT, GROUP BY, the broadcast join and a
/// regex selection over a run-heavy (clustered) fact table must each be
/// byte-identical to the single node. Clustered keys matter here — they
/// are what drives the block path's run memoization on every shard.
#[test]
fn replicated_fleet_matches_single_node_for_stateful_ops() {
    // A fact table physically clustered on the col-0 foreign key: runs
    // of 8 equal keys, 13 distinct dimension keys.
    let mut b = TableBuilder::with_capacity(Schema::uniform_u64(3), 600);
    for i in 0..600u64 {
        b.push_values(vec![
            Value::U64((i / 8) % 13),
            Value::U64(i),
            Value::U64(i % 5),
        ]);
    }
    let fact = b.build();
    let mut bb = TableBuilder::new(Schema::uniform_u64(2));
    for k in 0..13u64 {
        bb.push_values(vec![Value::U64(k), Value::U64(7000 + k)]);
    }
    let dim = bb.build();

    let specs = [
        PipelineSpec::passthrough().distinct(vec![0]),
        PipelineSpec::passthrough().group_by(
            vec![0],
            vec![AggSpec {
                col: 1,
                func: AggFunc::Sum,
            }],
        ),
        PipelineSpec::passthrough().join_small(JoinSmallSpec::new(0, &dim, 0)),
    ];

    let f = FarviewFleet::new(3, FarviewConfig::tiny());
    let qp = f.connect().unwrap();
    let (ft, _) = qp
        .load_table_replicated(&fact, Partitioning::RowRange, 2)
        .unwrap();
    assert_eq!(ft.replicas(), 2);
    for spec in &specs {
        let single = single_node(&fact, spec);
        let merged = qp.far_view(&ft, spec).unwrap().merged;
        assert_eq!(
            merged.payload, single.payload,
            "r=2 fleet must match single node for {spec:?}"
        );
        assert_eq!(merged.schema, single.schema);
    }

    // Regex needs a string column; same r=2 replication discipline.
    let schema = Schema::new(vec![
        Column {
            name: "k".into(),
            ty: ColumnType::U64,
        },
        Column {
            name: "s".into(),
            ty: ColumnType::Bytes(8),
        },
    ]);
    let mut sb = TableBuilder::with_capacity(schema, 300);
    let alphabet = b"abcx";
    for i in 0..300u64 {
        let s: Vec<u8> = (0..6).map(|j| alphabet[((i >> j) & 3) as usize]).collect();
        sb.push_values(vec![Value::U64(i), Value::Bytes(s)]);
    }
    let strings = sb.build();
    let spec = PipelineSpec::passthrough().regex_match(1, "a+b");
    let single = single_node(&strings, &spec);
    let (sft, _) = qp
        .load_table_replicated(&strings, Partitioning::RowRange, 2)
        .unwrap();
    let merged = qp.far_view(&sft, &spec).unwrap().merged;
    assert_eq!(
        merged.payload, single.payload,
        "r=2 fleet regex selection must match single node"
    );
}

/// With `r = 2`, one fleet query executes the datapath **once per shard
/// slot** — not once per replica — while a node kill is still survived
/// byte-identically.
#[test]
fn replicated_reads_execute_once_per_slot() {
    let schema = Schema::uniform_u64(3);
    let mut b = TableBuilder::with_capacity(schema, 256);
    for i in 0..256u64 {
        b.push_values(vec![Value::U64(i % 13), Value::U64(i), Value::U64(i / 2)]);
    }
    let table = b.build();

    let fleet = FarviewFleet::new(4, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (ft, _) = qp
        .load_table_replicated(&table, Partitioning::RowRange, 2)
        .unwrap();
    let shards = ft.placement().shard_count();
    assert_eq!(ft.replicas(), 2);

    let episodes = || -> u64 {
        (0..fleet.node_count())
            .map(|i| fleet.node(i).expect("live node").episodes_run())
            .sum()
    };

    let spec = PipelineSpec::passthrough().filter(PredicateExpr::lt(1, 128u64));
    let before = episodes();
    let healthy = qp.far_view(&ft, &spec).unwrap();
    assert_eq!(
        episodes() - before,
        shards as u64,
        "one query must run the datapath exactly once per shard slot"
    );

    // Kill one node: the surviving replica of each of its slots serves
    // the same bytes.
    let victim = fleet.node_ids()[0];
    fleet.remove_node(victim).unwrap();
    let post_kill = qp.far_view(&ft, &spec).unwrap();
    assert_eq!(
        post_kill.merged.payload, healthy.merged.payload,
        "a single node kill at r=2 must not change a byte"
    );
    assert_eq!(post_kill.merged.schema, healthy.merged.schema);
}

/// A fleet query compiles its shard pipelines once and runs them over
/// shard after shard, reset in place. Shards 0 and 2 hold 2 400 groups —
/// past the 2 × 1 Ki at which a grouping table grows — and shards 1 and
/// 3 a handful, which must see neither the grown table nor its groups.
/// The merged results equal the single node's, solo and batched, and
/// stay equal with the first replica of slot 0 losing packets: its
/// episode faults mid-stream, hands no pipeline back, and the slot fails
/// over to a fresh compile on the second replica.
#[test]
fn reused_shard_pipelines_match_single_node_through_failover() {
    const SHARD_ROWS: u64 = 2400;
    let mut b = TableBuilder::with_capacity(Schema::uniform_u64(3), 4 * SHARD_ROWS as usize);
    for i in 0..4 * SHARD_ROWS {
        let key = match i / SHARD_ROWS {
            1 => i % 5,
            3 => i % 7,
            _ => i,
        };
        b.push_values(vec![
            Value::U64(key),
            Value::U64(i * 37 % 1000),
            Value::U64(i),
        ]);
    }
    let table = b.build();
    let aggs = [AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Min]
        .map(|func| AggSpec { col: 1, func })
        .to_vec();
    let specs = [
        PipelineSpec::passthrough().group_by(vec![0], aggs),
        PipelineSpec::passthrough().distinct(vec![0]),
        PipelineSpec::passthrough().filter(PredicateExpr::lt(1, 500u64)),
    ];
    let oracle: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| single_node(&table, s).payload)
        .collect();

    let f = FarviewFleet::new(4, FarviewConfig::tiny());
    let qp = f.connect().unwrap();
    let (ft, _) = qp
        .load_table_replicated(&table, Partitioning::RowRange, 2)
        .unwrap();
    assert_eq!(ft.rows_per_shard(), vec![SHARD_ROWS as usize; 4]);
    let assert_oracle = |when: &str| {
        let batch = qp.far_view_batch(&ft, &specs).unwrap();
        for (i, (spec, want)) in specs.iter().zip(&oracle).enumerate() {
            let solo = qp.far_view(&ft, spec).unwrap().merged;
            assert_eq!(&solo.payload, want, "{when}, solo: {spec:?}");
            assert_eq!(&batch[i].merged.payload, want, "{when}, batched: {spec:?}");
        }
    };
    assert_oracle("healthy");

    let victim = f.node(0).unwrap();
    f.degrade_node(
        f.node_ids()[0],
        fv_net::FaultPlan::none()
            .with_seed(11)
            .with_loss_retries(0.2, 0),
    )
    .unwrap();
    let ran = victim.episodes_run();
    assert_oracle("slot 0's first replica faulting");
    assert_eq!(
        victim.episodes_run(),
        ran,
        "every episode on the faulting replica must have failed over"
    );
}
