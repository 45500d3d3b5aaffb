//! Property tests for the elastic topology: growing, draining and
//! killing nodes must never change what a query returns.
//!
//! The invariants, per the placement design
//! (`farview_core::topology`):
//!
//! * **(a)** Query results *before* a rebalance, *during* it (an
//!   old-epoch handle still in flight) and *after* it are byte-identical
//!   to a fresh fleet built directly at the target size — for both
//!   [`Partitioning::RowRange`] and [`Partitioning::KeyHash`]. A
//!   rebalanced placement *is* the fresh placement, so this reduces to
//!   the fleet-vs-single-node properties already pinned in
//!   `tests/fleet_props.rs`.
//! * **(b)** With replication `r = 2`, killing any single node leaves
//!   every query answerable and byte-identical (reads fall back to the
//!   surviving replica).
//! * **(c)** The `elasticity` experiment's per-query latency strictly
//!   improves from 2 to 8 nodes on the scan-heavy mix.

use proptest::prelude::*;

use farview::prelude::*;
use farview_core::{AggFunc, AggSpec, PredicateExpr};
use fv_data::{Schema, Table, TableBuilder, Value};
use fv_workload::{ChaosEvent, ChaosScenario, ChaosScenarioGen};

/// A random small table: 3 u64 columns with bounded values so groups,
/// predicates and hash keys are non-degenerate and `AVG` sums stay
/// exactly representable in `f64`.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec(prop::collection::vec(0u64..64, 3), 1..=max_rows).prop_map(|rows| {
        let schema = Schema::uniform_u64(3);
        let mut b = TableBuilder::with_capacity(schema, rows.len());
        for r in rows {
            b.push_values(r.into_iter().map(Value::U64).collect());
        }
        b.build()
    })
}

/// The query mix every property runs: a scan, a selection, a DISTINCT
/// and a GROUP BY — one of each merge shape.
fn specs() -> Vec<PipelineSpec> {
    vec![
        PipelineSpec::passthrough(),
        PipelineSpec::passthrough().filter(PredicateExpr::lt(1, 32u64)),
        PipelineSpec::passthrough().distinct(vec![0]),
        PipelineSpec::passthrough().group_by(
            vec![0],
            vec![
                AggSpec {
                    col: 2,
                    func: AggFunc::Sum,
                },
                AggSpec {
                    col: 2,
                    func: AggFunc::Avg,
                },
            ],
        ),
    ]
}

fn run_all(qp: &FleetQPair, ft: &FleetTable) -> Vec<Vec<u8>> {
    specs()
        .iter()
        .map(|s| qp.far_view(ft, s).unwrap().merged.payload)
        .collect()
}

fn fresh_fleet_results(nodes: usize, table: &Table, part: Partitioning) -> Vec<Vec<u8>> {
    let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (ft, _) = qp.load_table(table, part).unwrap();
    run_all(&qp, &ft)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) Grow + rebalance: the old-epoch handle keeps answering
    /// byte-identically while in flight, and the new-epoch handle is
    /// byte-identical to a fresh fleet built directly at the target
    /// size — for both partitionings and every merge shape.
    #[test]
    fn rebalance_is_byte_identical_before_during_and_after(
        table in arb_table(150),
        part in prop::sample::select(vec![Partitioning::RowRange, Partitioning::KeyHash(0)]),
        from in 1usize..4,
        grow in 1usize..4,
    ) {
        let fleet = FarviewFleet::new(from, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (old, _) = qp.load_table(&table, part).unwrap();
        let before = run_all(&qp, &old);

        for _ in 0..grow {
            fleet.add_node();
        }
        let (new, report) = qp.rebalance(&old).unwrap();
        prop_assert_eq!(new.epoch(), grow as u64, "epoch flipped to the target");
        prop_assert_eq!(report.to_epoch, grow as u64);
        prop_assert_eq!(
            report.moved_bytes,
            report.moved_rows * table.schema().row_bytes() as u64
        );

        // During: the old epoch still serves, byte-identically.
        prop_assert_eq!(run_all(&qp, &old), before.clone());
        // After: the new epoch equals a fresh fleet of the target size.
        let fresh = fresh_fleet_results(from + grow, &table, part);
        prop_assert_eq!(run_all(&qp, &new), fresh);
        // And the epoch flip costs pages only until the old handle is
        // retired.
        let free_mid = fleet.free_pages();
        qp.free_table(old).unwrap();
        prop_assert!(fleet.free_pages() >= free_mid);
    }

    /// (a, shrink direction) Drain + rebalance moves every shard off
    /// the draining node and matches a fresh fleet of the smaller size.
    #[test]
    fn drain_rebalance_matches_smaller_fresh_fleet(
        table in arb_table(120),
        part in prop::sample::select(vec![Partitioning::RowRange, Partitioning::KeyHash(0)]),
        nodes in 2usize..5,
    ) {
        let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (old, _) = qp.load_table(&table, part).unwrap();
        let victim = fleet.node_ids()[nodes - 1];
        fleet.drain_node(victim).unwrap();
        let (new, _) = qp.rebalance(&old).unwrap();
        prop_assert!(!new.placement().nodes().contains(&victim));
        let fresh = fresh_fleet_results(nodes - 1, &table, part);
        prop_assert_eq!(run_all(&qp, &new), fresh);
    }

    /// (b) With r = 2, killing any single node leaves every query
    /// answerable and byte-identical: reads fall back to the surviving
    /// replica transparently.
    #[test]
    fn any_single_kill_is_survived_at_r2(
        table in arb_table(150),
        part in prop::sample::select(vec![Partitioning::RowRange, Partitioning::KeyHash(0)]),
        nodes in 2usize..5,
        victim_seed in 0usize..8,
    ) {
        let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table_replicated(&table, part, 2).unwrap();
        let before = run_all(&qp, &ft);

        let victim = fleet.node_ids()[victim_seed % nodes];
        fleet.remove_node(victim).unwrap();
        prop_assert_eq!(
            run_all(&qp, &ft),
            before,
            "replica fallback must be byte-exact for every merge shape"
        );
    }
}

/// A membership-only chaos schedule (no fault class enabled): query
/// bursts separated by adds, drains and kills. It must contain each of
/// the three membership events, so a replay exercises all of them, and
/// it loads replicated because a kill is only survivable with `r = 2`.
fn churn_schedule(phases: usize, queries_per_phase: usize, seed: u64) -> ChaosScenario {
    let scenario = ChaosScenarioGen::new(2, phases)
        .queries_per_phase(queries_per_phase)
        .with_membership()
        .seed(seed)
        .build();
    assert_eq!(scenario.replicas, 2, "kill schedules load replicated");
    let has = |want: fn(&ChaosEvent) -> bool| scenario.events.iter().any(want);
    assert!(has(|e| matches!(e, ChaosEvent::AddNode)), "no AddNode");
    assert!(
        has(|e| matches!(e, ChaosEvent::DrainNode(_))),
        "no DrainNode"
    );
    assert!(has(|e| matches!(e, ChaosEvent::KillNode(_))), "no KillNode");
    scenario
}

/// Replay a generated churn schedule end to end: query bursts
/// interleaved with adds, drains and kills, a rebalance after every
/// membership event (re-replicating after kills), old epochs retired as
/// soon as their successor exists — and every query byte-identical to a
/// single node holding the same rows throughout.
#[test]
fn churn_schedule_replays_byte_identically() {
    use fv_workload::TableGen;

    let scenario = churn_schedule(10, 4, 23);

    // Tenant-shaped table: c0 group key, c1 calibrated selectivity,
    // c2 aggregation payload — what `tenant_query_spec` lowers against.
    let table = TableGen::new(8, 1024)
        .seed(29)
        .distinct_column(0, 16)
        .selectivity_column(1, 0.5)
        .sequential_column(2)
        .build();
    let single = FarviewCluster::new(FarviewConfig::tiny());
    let sqp = single.connect().unwrap();
    let (sft, _) = sqp.load_table(&table).unwrap();

    let fleet = FarviewFleet::new(scenario.initial_nodes, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (mut ft, _) = qp
        .load_table_replicated(&table, Partitioning::RowRange, scenario.replicas)
        .unwrap();

    let rebalance = |ft: &mut FleetTable| {
        let (new_ft, _) = qp.rebalance(ft).unwrap();
        let old = std::mem::replace(ft, new_ft);
        qp.free_table(old).unwrap();
    };
    for event in &scenario.events {
        match event {
            ChaosEvent::Queries(qs) => {
                for q in qs {
                    let spec = fv_bench::tenant_query_spec(q);
                    let out = qp.far_view(&ft, &spec).unwrap();
                    let reference = sqp.far_view(&sft, &spec).unwrap();
                    assert_eq!(
                        out.merged.payload, reference.payload,
                        "churned fleet diverged from the single node on {q:?}"
                    );
                }
            }
            ChaosEvent::AddNode => {
                fleet.add_node();
                rebalance(&mut ft);
            }
            ChaosEvent::DrainNode(i) => {
                let id = fleet.node_ids()[*i];
                fleet.drain_node(id).unwrap();
                rebalance(&mut ft);
                fleet.remove_node(id).unwrap();
            }
            ChaosEvent::KillNode(i) => {
                let id = fleet.node_ids()[*i];
                fleet.remove_node(id).unwrap();
                // Re-replicate: the rebalance sources from survivors and
                // restores r copies of every shard on the new roster.
                rebalance(&mut ft);
            }
            ChaosEvent::Degrade(..) | ChaosEvent::Heal(_) => unreachable!("no fault class enabled"),
        }
    }
    qp.free_table(ft).unwrap();
}

/// Zero-row tables ride the whole elastic lifecycle: load, query,
/// rebalance after a grow, query again — empty shards everywhere, no
/// panics, empty results.
#[test]
fn zero_row_table_survives_load_rebalance_and_query() {
    let table = TableBuilder::with_capacity(Schema::uniform_u64(3), 0).build();
    let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
    for payload in run_all(&qp, &ft) {
        assert!(payload.is_empty(), "zero rows in, zero bytes out");
    }
    fleet.add_node();
    let (new_ft, report) = qp.rebalance(&ft).unwrap();
    assert_eq!(report.moved_rows, 0, "nothing to move");
    for payload in run_all(&qp, &new_ft) {
        assert!(payload.is_empty());
    }
    qp.free_table(ft).unwrap();
    qp.free_table(new_ft).unwrap();
}

/// With every holder of a shard dead (`r = 1`, sole holder killed), a
/// rebalance has nowhere to copy from: it must surface
/// `FvError::NodeDown` — a typed error, not a panic.
#[test]
fn rebalance_with_all_source_holders_dead_is_typed_node_down() {
    let table = TableGen::new(8, 128).seed(31).build();
    let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
    let victim = fleet.node_ids()[0];
    fleet.remove_node(victim).unwrap();
    match qp.rebalance(&ft) {
        Ok(_) => panic!("a shard with no surviving holder cannot be re-placed"),
        Err(e) => assert!(
            matches!(e, FvError::NodeDown { .. }),
            "want NodeDown, got {e}"
        ),
    }
}

/// Back-to-back rebalances with no query in between: each flip chains
/// off the previous epoch's handle, and the final epoch is
/// byte-identical to a fresh fleet built directly at the target size.
#[test]
fn back_to_back_rebalances_with_no_query_between() {
    let table = TableGen::new(8, 256)
        .seed(37)
        .distinct_column(0, 16)
        .build();
    let fleet = FarviewFleet::new(1, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (mut ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
    for _ in 0..3 {
        fleet.add_node();
        let (new_ft, _) = qp.rebalance(&ft).unwrap();
        let old = std::mem::replace(&mut ft, new_ft);
        qp.free_table(old).unwrap();
    }
    assert_eq!(ft.epoch(), 3);
    let fresh = fresh_fleet_results(4, &table, Partitioning::RowRange);
    assert_eq!(run_all(&qp, &ft), fresh);
    qp.free_table(ft).unwrap();
}

/// Kill interleaved at **every** phase boundary of a churn schedule,
/// via the chaos fault hooks: at each boundary a rotating victim is
/// fully partitioned ([`FarviewFleet::degrade_node`]), the query mix
/// probes the fleet (replica failover must stay byte-identical to the
/// single-node oracle), the victim heals, and only then does the
/// membership event proceed.
#[test]
fn churn_survives_a_partition_probe_at_every_phase_boundary() {
    use fv_workload::{FaultSpec, TableGen};

    let scenario = churn_schedule(11, 3, 41);

    let table = TableGen::new(8, 512)
        .seed(43)
        .distinct_column(0, 16)
        .selectivity_column(1, 0.5)
        .sequential_column(2)
        .build();
    let single = FarviewCluster::new(FarviewConfig::tiny());
    let sqp = single.connect().unwrap();
    let (sft, _) = sqp.load_table(&table).unwrap();
    let oracle: Vec<Vec<u8>> = specs()
        .iter()
        .map(|s| sqp.far_view(&sft, s).unwrap().payload)
        .collect();

    let fleet = FarviewFleet::new(scenario.initial_nodes, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (mut ft, _) = qp
        .load_table_replicated(&table, Partitioning::RowRange, scenario.replicas)
        .unwrap();

    let rebalance = |ft: &mut FleetTable| {
        let (new_ft, _) = qp.rebalance(ft).unwrap();
        let old = std::mem::replace(ft, new_ft);
        qp.free_table(old).unwrap();
    };
    for (boundary, event) in scenario.events.iter().enumerate() {
        // The boundary probe: partition a rotating victim and demand
        // byte-exact answers through replica failover.
        let roster = fleet.node_ids();
        let victim = roster[boundary % roster.len()];
        fleet
            .degrade_node(victim, fv_bench::fault_plan_for(&FaultSpec::Partition, 5))
            .unwrap();
        for (i, spec) in specs().iter().enumerate() {
            let out = qp.far_view(&ft, spec).unwrap_or_else(|e| {
                panic!("boundary {boundary}: probe under partition failed: {e}")
            });
            assert_eq!(
                out.merged.payload, oracle[i],
                "boundary {boundary}: partition probe diverged from the oracle"
            );
        }
        fleet.heal_node(victim).unwrap();

        match event {
            ChaosEvent::Queries(qs) => {
                for q in qs {
                    let spec = fv_bench::tenant_query_spec(q);
                    let out = qp.far_view(&ft, &spec).unwrap();
                    let reference = sqp.far_view(&sft, &spec).unwrap();
                    assert_eq!(out.merged.payload, reference.payload);
                }
            }
            ChaosEvent::AddNode => {
                fleet.add_node();
                rebalance(&mut ft);
            }
            ChaosEvent::DrainNode(i) => {
                let id = fleet.node_ids()[*i];
                fleet.drain_node(id).unwrap();
                rebalance(&mut ft);
                fleet.remove_node(id).unwrap();
            }
            ChaosEvent::KillNode(i) => {
                let id = fleet.node_ids()[*i];
                fleet.remove_node(id).unwrap();
                rebalance(&mut ft);
            }
            ChaosEvent::Degrade(..) | ChaosEvent::Heal(_) => unreachable!("no fault class enabled"),
        }
    }
    qp.free_table(ft).unwrap();
}

/// (c) The `elasticity` experiment: per-query latency strictly improves
/// from 2 to 8 nodes on the scan-heavy mix (byte-identity across the
/// growth phases and the post-kill phase is asserted inside the
/// experiment itself).
#[test]
fn elasticity_latency_strictly_improves_2_to_8() {
    let f = fv_bench::elasticity_smoke();
    let latency = &f.series("mean latency [us]").unwrap().points;
    let growth = &latency[..fv_bench::ELASTICITY_PHASES.len()];
    for w in growth.windows(2) {
        assert!(
            w[1].1 < w[0].1,
            "mean latency must strictly improve with fleet size: {} -> {} us",
            w[0].1,
            w[1].1
        );
    }
}
