//! Property-based planner soundness.
//!
//! * The optimized plan returns **byte-identical** results to the
//!   unoptimized spec on every entry point — single `farView`, the
//!   doorbell batch, the fleet under row-range *and* key-hash
//!   partitioning, and the tiered pool. The optimizer may only move
//!   work around (reorder predicates, prune projections, switch the
//!   memory access path); it must never change a payload byte or a
//!   result schema.
//! * A plan verifies if and only if it executes: `QueryPlan::verify`
//!   returns the schema the entry point returns, or its typed error —
//!   planted defects included, on every target.

use proptest::prelude::*;

use farview::prelude::*;
use farview_core::{AggFunc, AggSpec, BlockStore, FvError, PredicateExpr, TierLevel, TieredPool};
use fv_data::TableBuilder;
use fv_pipeline::CryptoSpec;

/// A random table: 8 u64 columns (the paper-default row shape), bounded
/// values.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec(prop::collection::vec(0..64u64, 8), 1..=max_rows).prop_map(|rows| {
        let schema = Schema::uniform_u64(8);
        let mut b = TableBuilder::with_capacity(schema, rows.len());
        for r in rows {
            b.push_values(r.into_iter().map(Value::U64).collect());
        }
        b.build()
    })
}

/// Distinct column lists (duplicate names never survive
/// `Schema::project`, so column sets are always unique in practice).
fn arb_cols(max: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..8, 1..=max).prop_map(|mut cols| {
        let mut seen = std::collections::HashSet::new();
        cols.retain(|c| seen.insert(*c));
        cols
    })
}

/// A random fleet-mergeable spec: projection/selection/distinct/group-by
/// shapes (compression and output encryption cannot fan out).
fn arb_spec() -> impl Strategy<Value = PipelineSpec> {
    let filter = (0usize..8, 0u64..64)
        .prop_map(|(col, v)| PipelineSpec::passthrough().filter(PredicateExpr::lt(col, v)));
    let project = arb_cols(4).prop_map(|cols| PipelineSpec::passthrough().project(cols));
    let filter_project = (0usize..8, 0u64..64, arb_cols(4)).prop_map(|(col, v, cols)| {
        PipelineSpec::passthrough()
            .filter(PredicateExpr::lt(col, v))
            .project(cols)
    });
    let distinct = arb_cols(2).prop_map(|cols| PipelineSpec::passthrough().distinct(cols));
    let group_by = (
        0usize..8,
        0usize..8,
        prop::sample::select(vec![
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ]),
    )
        .prop_map(|(key, col, func)| {
            PipelineSpec::passthrough().group_by(vec![key], vec![AggSpec { col, func }])
        });
    prop_oneof![filter, project, filter_project, distinct, group_by]
}

/// Optimize `spec` against `schema` for `target` and lower it back.
fn optimized(spec: &PipelineSpec, schema: &Schema, target: PlanTarget) -> PipelineSpec {
    QueryPlan::from_spec(spec, target)
        .optimize(schema)
        .expect("optimize")
        .to_spec()
        .expect("lower")
}

/// A random spec that may also carry the stages a fleet refuses:
/// input decryption, output compression and output encryption.
fn arb_staged_spec() -> impl Strategy<Value = PipelineSpec> {
    (arb_spec(), 0u8..8).prop_map(|(mut spec, stages)| {
        let key = CryptoSpec {
            key: [7; 16],
            iv: [9; 16],
        };
        if stages & 1 != 0 {
            spec = spec.decrypt(key.clone());
        }
        if stages & 2 != 0 {
            spec = spec.compress();
        }
        if stages & 4 != 0 {
            spec = spec.encrypt(key);
        }
        spec
    })
}

/// Every execution target.
fn arb_target() -> impl Strategy<Value = PlanTarget> {
    prop_oneof![
        Just(PlanTarget::Single),
        (1usize..4).prop_map(|depth| PlanTarget::Batch { depth }),
        (
            2usize..5,
            prop::sample::select(vec![Partitioning::RowRange, Partitioning::KeyHash(0)])
        )
            .prop_map(|(shards, partitioning)| PlanTarget::Fleet {
                shards,
                partitioning
            }),
        Just(PlanTarget::Tiered {
            residency: TierLevel::Disk
        }),
    ]
}

/// Plant defect `which` in `spec`: a projection past the schema's end,
/// a regex over a `u64` column, or an aggregate over a column past the
/// schema's end.
fn plant(spec: &PipelineSpec, which: usize, k: usize) -> PipelineSpec {
    let spec = spec.clone();
    match which {
        0 => spec.project(vec![8 + k]),
        1 => spec.regex_match(k % 8, "a+"),
        _ => spec.group_by(
            vec![0],
            vec![AggSpec {
                col: 8 + k,
                func: AggFunc::Sum,
            }],
        ),
    }
}

/// Run `spec` through the entry point `target` names and return the
/// result's schema, or the entry point's error.
fn execute(table: &Table, spec: &PipelineSpec, target: PlanTarget) -> Result<Schema, FvError> {
    if let PlanTarget::Fleet {
        shards,
        partitioning,
    } = target
    {
        let fleet = FarviewFleet::new(shards, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(table, partitioning).unwrap();
        return qp.far_view(&ft, spec).map(|o| o.merged.schema);
    }
    let c = FarviewCluster::new(FarviewConfig::tiny());
    let qp = c.connect().unwrap();
    if let PlanTarget::Tiered { .. } = target {
        let mut pool = TieredPool::new(&qp, 8 << 20, BlockStore::default());
        pool.insert("t", table).unwrap();
        return pool.query("t", spec).map(|o| o.outcome.schema);
    }
    let (ft, _) = qp.load_table(table).unwrap();
    match target {
        PlanTarget::Batch { depth } => qp
            .far_view_batch(&ft, &vec![spec.clone(); depth])
            .map(|o| o[0].schema.clone()),
        _ => qp.far_view(&ft, spec).map(|o| o.schema),
    }
}

/// The verdict on `spec` planned for `target`, checked to be what
/// running its lowered spec on that target returns.
fn verdict(table: &Table, spec: &PipelineSpec, target: PlanTarget) -> Result<Schema, FvError> {
    let plan = QueryPlan::from_spec(spec, target);
    let verdict = plan.verify(table.schema());
    let executed = plan
        .optimize(table.schema())
        .and_then(|p| p.to_spec())
        .and_then(|s| execute(table, &s, target));
    prop_assert_eq!(&verdict, &executed, "{:?} on {}", spec, target);
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Verifies ⇔ executes: the verdict on a plan is what running its
    /// lowered spec on the plan's target returns, and a well-formed spec
    /// verifies wherever its target takes its stages.
    #[test]
    fn a_plan_verifies_iff_it_executes(
        table in arb_table(60),
        spec in arb_staged_spec(),
        target in arb_target(),
    ) {
        let verdict = verdict(&table, &spec, target);
        let refused =
            spec.decrypt_input.is_some() || spec.compress_output || spec.encrypt_output.is_some();
        let fleet = matches!(target, PlanTarget::Fleet { .. });
        prop_assert_eq!(verdict.is_ok(), !(fleet && refused), "{:?}", verdict);
    }

    /// A planted defect is an error on every target, the entry point's
    /// own, and moves the spec's fingerprint, so a fleet shard running
    /// the defective program would be caught.
    #[test]
    fn seeded_mutations_are_rejected_and_move_the_fingerprint(
        table in arb_table(60),
        spec in arb_staged_spec(),
        target in arb_target(),
        which in 0usize..3,
        k in 0usize..4,
    ) {
        let bad = plant(&spec, which, k);
        prop_assert!(verdict(&table, &bad, target).is_err(), "defect {} verified: {:?}", which, bad);
        prop_assert!(bad.fingerprint() != spec.fingerprint());
    }

    /// The optimizer preserves the verified schema: an optimized plan
    /// verifies as the plan it came from, and a filter written after a
    /// projection verifies as its physical-order rewrite.
    #[test]
    fn the_optimizer_preserves_the_verified_schema(
        spec in arb_staged_spec(),
        target in arb_target(),
        cols in arb_cols(4),
        (col, v) in (0usize..5, 0u64..64),
    ) {
        let schema = Schema::uniform_u64(8);
        let plan = QueryPlan::from_spec(&spec, target);
        let optimized = plan.optimize(&schema).expect("a lowered spec optimizes");
        prop_assert_eq!(optimized.verify(&schema), plan.verify(&schema));

        let logical = QueryPlan::new(target)
            .project(cols.clone())
            .filter(PredicateExpr::lt(col, v));
        let verdict = logical.verify(&schema);
        match cols.get(col) {
            Some(&base) => {
                let physical = PipelineSpec::passthrough()
                    .filter(PredicateExpr::lt(base, v))
                    .project(cols.clone());
                prop_assert_eq!(verdict, QueryPlan::from_spec(&physical, target).verify(&schema));
            }
            None => prop_assert!(verdict.is_err()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single `farView` and the doorbell batch.
    #[test]
    fn optimized_plans_match_on_single_and_batch(
        table in arb_table(150),
        spec in arb_spec(),
        depth in 1usize..5,
    ) {
        let opt = optimized(&spec, table.schema(), PlanTarget::Batch { depth });
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let qp = c.connect().unwrap();
        let (ft, _) = qp.load_table(&table).unwrap();

        let naive = qp.far_view(&ft, &spec).unwrap();
        let optimized_out = qp.far_view(&ft, &opt).unwrap();
        prop_assert_eq!(&optimized_out.payload, &naive.payload);
        prop_assert_eq!(&optimized_out.schema, &naive.schema);

        let naive_batch = qp.far_view_batch(&ft, &vec![spec.clone(); depth]).unwrap();
        let opt_batch = qp.far_view_batch(&ft, &vec![opt.clone(); depth]).unwrap();
        for (a, b) in naive_batch.iter().zip(&opt_batch) {
            prop_assert_eq!(&b.payload, &a.payload);
        }
    }

    /// Fleet scatter–gather under both partitionings.
    #[test]
    fn optimized_plans_match_on_the_fleet(
        table in arb_table(200),
        spec in arb_spec(),
        nodes in 2usize..5,
    ) {
        for part in [Partitioning::RowRange, Partitioning::KeyHash(0)] {
            let opt = optimized(
                &spec,
                table.schema(),
                PlanTarget::Fleet { shards: nodes, partitioning: part },
            );
            let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
            let qp = fleet.connect().unwrap();
            let (ft, _) = qp.load_table(&table, part).unwrap();
            let naive = qp.far_view(&ft, &spec).unwrap();
            let optimized_out = qp.far_view(&ft, &opt).unwrap();
            prop_assert_eq!(&optimized_out.merged.payload, &naive.merged.payload,
                "{:?} diverged under {:?}", spec, part);
            prop_assert_eq!(&optimized_out.merged.schema, &naive.merged.schema);
        }
    }

    /// The tiered pool (cold stage-in, then a hot hit).
    #[test]
    fn optimized_plans_match_on_the_tiered_pool(
        table in arb_table(100),
        spec in arb_spec(),
    ) {
        let opt = optimized(&spec, table.schema(), PlanTarget::Tiered { residency: TierLevel::Disk });
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let qp = c.connect().unwrap();
        let mut pool = TieredPool::new(&qp, 8 << 20, BlockStore::default());
        pool.insert("t", &table).unwrap();
        let cold_naive = pool.query("t", &spec).unwrap();
        let hot_opt = pool.query("t", &opt).unwrap();
        prop_assert_eq!(&hot_opt.outcome.payload, &cold_naive.outcome.payload);
        prop_assert_eq!(&hot_opt.outcome.schema, &cold_naive.outcome.schema);
    }

    /// DISTINCT merges through the unified partial-aggregation path; it
    /// must still equal the single node byte for byte under row-range
    /// partitioning (the pre-unification guarantee).
    #[test]
    fn unified_distinct_merge_is_byte_identical(
        table in arb_table(250),
        nodes in 2usize..6,
        cols in arb_cols(2),
    ) {
        let spec = PipelineSpec::passthrough().distinct(cols);
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let qp_single = c.connect().unwrap();
        let (ft_single, _) = qp_single.load_table(&table).unwrap();
        let single = qp_single.far_view(&ft_single, &spec).unwrap();

        let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
        let merged = qp.far_view(&ft, &spec).unwrap();
        prop_assert_eq!(&merged.merged.payload, &single.payload);
        prop_assert_eq!(&merged.merged.schema, &single.schema);
    }
}
