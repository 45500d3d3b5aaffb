//! Chaos & degraded-network property suite: deterministic fault
//! injection across the fleet datapath.
//!
//! Every scenario class replays against the byte-identity oracle (a
//! single node holding the same rows) under one invariant:
//!
//! > **Byte-identical results or a clean typed [`FvError`] — never a
//! > wrong answer, never a panic.**
//!
//! The fault classes, injected per-link through the seeded
//! [`FaultPlan`] a [`FarviewFleet`] attaches via
//! [`FarviewFleet::degrade_node`]:
//!
//! * packet **loss** with bounded retry/backoff — costs latency, never
//!   bytes, until the retry budget exhausts (typed error);
//! * **delay spikes** — reordering-tolerant, bytes identical;
//! * **bandwidth caps** — strictly slower, bytes identical;
//! * full **partitions** — clean typed error unreplicated, transparent
//!   replica failover at `r = 2`;
//! * **truncated doorbell batches** — `FvError::IncompleteEpisode`,
//!   never a partial merge;
//! * a node **killed mid-rebalance** — the epoch flip completes or
//!   rolls back, and the old handle keeps serving.
//!
//! The composed [`ChaosScenarioGen`] schedules (faults × membership)
//! replay across a ≥64-seed matrix at the bottom of the file.

use proptest::prelude::*;

use farview::prelude::*;
use farview_core::{AggFunc, AggSpec, PredicateExpr};
use fv_bench::fault_plan_for;
use fv_data::{Schema, Table, TableBuilder, Value};
use fv_workload::{ChaosEvent, ChaosScenarioGen, FaultSpec};

/// A random small table: 3 u64 columns with bounded values so groups,
/// predicates and hash keys are non-degenerate. At least 2 rows so a
/// 2-node `RowRange` split puts data on every node.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec(prop::collection::vec(0u64..64, 3), 2..=max_rows).prop_map(|rows| {
        let schema = Schema::uniform_u64(3);
        let mut b = TableBuilder::with_capacity(schema, rows.len());
        for r in rows {
            b.push_values(r.into_iter().map(Value::U64).collect());
        }
        b.build()
    })
}

/// The query mix: one of each merge shape.
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

/// The byte-identity oracle: the same rows on one healthy node.
fn oracle_results(table: &Table) -> Vec<Vec<u8>> {
    let single = FarviewCluster::new(FarviewConfig::tiny());
    let sqp = single.connect().unwrap();
    let (sft, _) = sqp.load_table(table).unwrap();
    specs()
        .iter()
        .map(|s| sqp.far_view(&sft, s).unwrap().payload)
        .collect()
}

/// A degraded fleet: `nodes` nodes, `replicas` copies per shard, the
/// fault plan installed on the first node *after* a clean load.
fn degraded_fleet(
    table: &Table,
    nodes: usize,
    replicas: usize,
    plan: &farview_core::FaultPlan,
) -> (FarviewFleet, FleetQPair, FleetTable) {
    let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (ft, _) = qp
        .load_table_replicated(table, Partitioning::RowRange, replicas)
        .unwrap();
    let victim = fleet.node_ids()[0];
    fleet.degrade_node(victim, plan.clone()).unwrap();
    (fleet, qp, ft)
}

/// A replica-local typed error — the only error shapes the fleet read
/// path is allowed to surface under link faults.
fn is_typed_fault(e: &FvError) -> bool {
    matches!(
        e,
        FvError::Net(_) | FvError::IncompleteEpisode { .. } | FvError::NodeDown { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Packet loss with a bounded retry budget, unreplicated: every
    /// query either completes byte-identical to the oracle (loss costs
    /// latency, never bytes) or fails with a clean typed error
    /// (retries exhausted) — never a wrong answer, never a panic.
    #[test]
    fn loss_is_byte_identical_or_typed(
        table in arb_table(96),
        loss_pct in 5u8..45,
        max_retries in 0u32..34,
        seed in 0u64..1024,
    ) {
        let plan = fault_plan_for(&FaultSpec::Loss { loss_pct, max_retries }, seed);
        let oracle = oracle_results(&table);
        let (_fleet, qp, ft) = degraded_fleet(&table, 2, 1, &plan);
        for (i, spec) in specs().iter().enumerate() {
            match qp.far_view(&ft, spec) {
                Ok(out) => prop_assert_eq!(&out.merged.payload, &oracle[i], "loss changed bytes"),
                Err(e) => prop_assert!(is_typed_fault(&e), "untyped failure: {}", e),
            }
        }
    }

    /// Delay spikes reorder and slow packets but never corrupt: every
    /// query completes byte-identical, at least as slow as the clean
    /// run (spikes only ever add latency).
    #[test]
    fn delay_spikes_preserve_bytes_and_only_add_latency(
        table in arb_table(96),
        spike_pct in 10u8..=100,
        spike_us in 5u32..500,
        seed in 0u64..1024,
    ) {
        let plan = fault_plan_for(&FaultSpec::DelaySpikes { spike_pct, spike_us }, seed);
        let oracle = oracle_results(&table);
        let clean = {
            let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
            let qp = fleet.connect().unwrap();
            let (ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
            specs().iter().map(|s| qp.far_view(&ft, s).unwrap().merged.stats.response_time).collect::<Vec<_>>()
        };
        let (_fleet, qp, ft) = degraded_fleet(&table, 2, 1, &plan);
        for (i, spec) in specs().iter().enumerate() {
            let out = qp.far_view(&ft, spec).unwrap();
            prop_assert_eq!(&out.merged.payload, &oracle[i], "spikes changed bytes");
            prop_assert!(
                out.merged.stats.response_time >= clean[i],
                "spikes made a query faster: {:?} < {:?}",
                out.merged.stats.response_time, clean[i]
            );
        }
    }

    /// A bandwidth cap throttles the degraded link but never corrupts:
    /// byte-identical results, response time at least the clean run's.
    #[test]
    fn bandwidth_cap_preserves_bytes_and_slows(
        table in arb_table(96),
        cap_pct in 5u8..=100,
    ) {
        let plan = fault_plan_for(&FaultSpec::BandwidthCap { cap_pct }, 1);
        let oracle = oracle_results(&table);
        let clean = {
            let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
            let qp = fleet.connect().unwrap();
            let (ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
            specs().iter().map(|s| qp.far_view(&ft, s).unwrap().merged.stats.response_time).collect::<Vec<_>>()
        };
        let (_fleet, qp, ft) = degraded_fleet(&table, 2, 1, &plan);
        for (i, spec) in specs().iter().enumerate() {
            let out = qp.far_view(&ft, spec).unwrap();
            prop_assert_eq!(&out.merged.payload, &oracle[i], "cap changed bytes");
            prop_assert!(out.merged.stats.response_time >= clean[i]);
        }
    }

    /// A partitioned shard without a replica is a clean typed error —
    /// the query returns (this test terminating *is* the no-hang
    /// proof; the episode engine's quiescence bound backstops it).
    #[test]
    fn partition_unreplicated_fails_typed_never_hangs(table in arb_table(96)) {
        let plan = fault_plan_for(&FaultSpec::Partition, 1);
        let (_fleet, qp, ft) = degraded_fleet(&table, 2, 1, &plan);
        for spec in &specs() {
            match qp.far_view(&ft, spec) {
                Ok(_) => prop_assert!(false, "a partitioned sole replica cannot answer"),
                Err(e) => prop_assert!(is_typed_fault(&e), "untyped failure: {}", e),
            }
        }
    }

    /// With `r = 2`, a full partition of one node is invisible: reads
    /// fail over to the surviving replica, byte-identically.
    #[test]
    fn partition_replicated_fails_over_byte_identically(table in arb_table(96)) {
        let plan = fault_plan_for(&FaultSpec::Partition, 1);
        let oracle = oracle_results(&table);
        let (_fleet, qp, ft) = degraded_fleet(&table, 3, 2, &plan);
        for (i, spec) in specs().iter().enumerate() {
            let out = qp.far_view(&ft, spec).unwrap();
            prop_assert_eq!(&out.merged.payload, &oracle[i], "failover changed bytes");
        }
    }

    /// A truncated doorbell batch never merges partial results: the
    /// unfetched episodes surface `FvError::IncompleteEpisode` (or the
    /// wrapped net error) unreplicated, and fail over byte-identically
    /// at `r = 2`.
    #[test]
    fn truncated_doorbell_is_incomplete_or_failed_over(
        table in arb_table(96),
        deliver in 1u32..3,
    ) {
        let plan = fault_plan_for(&FaultSpec::TruncateDoorbell { deliver }, 1);
        let oracle = oracle_results(&table);
        let specs = specs();

        // Unreplicated: the batch posts more WQEs than the NIC
        // fetches, so the batch fails typed — never a partial merge.
        let (_f1, qp1, ft1) = degraded_fleet(&table, 2, 1, &plan);
        match qp1.far_view_batch(&ft1, &specs) {
            Ok(_) => prop_assert!(false, "truncated batch must not complete unreplicated"),
            Err(e) => prop_assert!(is_typed_fault(&e), "untyped failure: {}", e),
        }

        // Replicated: failover to the healthy replica, byte-identical.
        let (_f2, qp2, ft2) = degraded_fleet(&table, 3, 2, &plan);
        let outs = qp2.far_view_batch(&ft2, &specs).unwrap();
        for (i, out) in outs.iter().enumerate() {
            prop_assert_eq!(&out.merged.payload, &oracle[i], "truncation leaked partial bytes");
        }
    }
}

/// Build the standard 64-row chaos table (tenant-shaped: c0 group key,
/// c1 calibrated selectivity, c2 aggregation payload).
fn chaos_table(seed: u64) -> Table {
    fv_workload::TableGen::new(8, 64)
        .seed(seed)
        .distinct_column(0, 8)
        .selectivity_column(1, 0.5)
        .sequential_column(2)
        .build()
}

/// The fault plan a replay installs for the scenario's `k`-th event, a
/// `Degrade(_, spec)`: seeded from the scenario seed and the event's
/// index, so two phases of one class fault different packets and the
/// replay stays deterministic. Both replay drivers lower through here.
fn degrade_plan(spec: &FaultSpec, seed: u64, k: usize) -> FaultPlan {
    fault_plan_for(spec, seed.wrapping_add(k as u64))
}

/// Replay one composed chaos schedule end to end against the oracle:
/// query bursts under injected faults, heals, and membership events
/// with a rebalance after each — every query byte-identical to a
/// single healthy node holding the same rows.
fn replay_chaos_scenario(seed: u64) {
    let scenario = ChaosScenarioGen::new(2, 4)
        .queries_per_phase(3)
        .with_membership()
        .with_all_faults()
        .seed(seed)
        .build();
    let table = chaos_table(seed ^ 0x7AB1E);

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
    for (k, event) in scenario.events.iter().enumerate() {
        match event {
            ChaosEvent::Queries(qs) => {
                for q in qs {
                    let spec = fv_bench::tenant_query_spec(q);
                    let out = qp.far_view(&ft, &spec).unwrap_or_else(|e| {
                        panic!("seed {seed}: query under chaos failed untyped-or-unsurvivable: {e}")
                    });
                    let reference = sqp.far_view(&sft, &spec).unwrap();
                    assert_eq!(
                        out.merged.payload, reference.payload,
                        "seed {seed}: chaos fleet diverged from the oracle on {q:?}"
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
                rebalance(&mut ft);
            }
            ChaosEvent::Degrade(i, spec) => {
                let id = fleet.node_ids()[*i];
                fleet.degrade_node(id, degrade_plan(spec, seed, k)).unwrap();
            }
            ChaosEvent::Heal(i) => {
                let id = fleet.node_ids()[*i];
                fleet.heal_node(id).unwrap();
            }
        }
    }
    qp.free_table(ft).unwrap();
}

/// The headline matrix: 64 seeded schedules composing every fault
/// class with membership churn, each replayed deterministically
/// against the byte-identity oracle. Zero panics, zero divergence.
#[test]
fn chaos_scenarios_replay_byte_identically_across_64_seeds() {
    for seed in 0..64 {
        replay_chaos_scenario(seed);
    }
}

/// One extra randomized schedule: CI exports `CHAOS_SEED` so a failure
/// prints the seed to replay locally (`CHAOS_SEED=n cargo test`).
#[test]
fn chaos_scenario_replays_at_env_seed() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0_5u64);
    eprintln!("replaying chaos schedule at CHAOS_SEED={seed}");
    replay_chaos_scenario(seed);
}

/// Kill mid-rebalance, source side: the sole source of every moved row
/// partitions away mid-flip. The rebalance aborts with a clean typed
/// error, and after healing, the old handle still serves byte-identical
/// results and the retried flip completes, matching a fresh fleet.
#[test]
fn source_killed_mid_rebalance_rolls_back_then_completes_after_heal() {
    let table = chaos_table(11);
    let oracle = oracle_results(&table);

    let fleet = FarviewFleet::new(1, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
    let source = fleet.node_ids()[0];
    fleet.add_node();

    // The only holder of every row dies (full partition) before the
    // copy phase streams them out: typed error, no partial flip.
    fleet
        .degrade_node(source, fault_plan_for(&FaultSpec::Partition, 3))
        .unwrap();
    let err = qp.rebalance(&ft).unwrap_err();
    assert!(is_typed_fault(&err), "untyped mid-rebalance failure: {err}");

    // Heal: the old handle never stopped being authoritative.
    fleet.heal_node(source).unwrap();
    for (i, spec) in specs().iter().enumerate() {
        assert_eq!(qp.far_view(&ft, spec).unwrap().merged.payload, oracle[i]);
    }
    // And the retried flip completes, matching a fresh 2-node fleet.
    let (new_ft, report) = qp.rebalance(&ft).unwrap();
    assert!(report.moved_rows > 0, "the grow must move rows");
    for (i, spec) in specs().iter().enumerate() {
        assert_eq!(
            qp.far_view(&new_ft, spec).unwrap().merged.payload,
            oracle[i]
        );
    }
    qp.free_table(ft).unwrap();
    qp.free_table(new_ft).unwrap();
}

/// Kill mid-rebalance, target side: the node the flip writes new shard
/// images to partitions away. The write phase fails typed, every new
/// allocation rolls back (no page leak), the old handle keeps serving,
/// and after healing the flip completes.
#[test]
fn target_killed_mid_rebalance_rolls_back_allocations() {
    let table = chaos_table(12);
    let oracle = oracle_results(&table);

    let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
    let target = fleet.add_node();
    let free_before = fleet.free_pages();

    fleet
        .degrade_node(target, fault_plan_for(&FaultSpec::Partition, 3))
        .unwrap();
    let err = qp.rebalance(&ft).unwrap_err();
    assert!(is_typed_fault(&err), "untyped mid-rebalance failure: {err}");
    assert_eq!(
        fleet.free_pages(),
        free_before,
        "an aborted flip must roll back every new allocation"
    );

    // Old epoch untouched; heal and complete the flip.
    for (i, spec) in specs().iter().enumerate() {
        assert_eq!(qp.far_view(&ft, spec).unwrap().merged.payload, oracle[i]);
    }
    fleet.heal_node(target).unwrap();
    let (new_ft, _) = qp.rebalance(&ft).unwrap();
    for (i, spec) in specs().iter().enumerate() {
        assert_eq!(
            qp.far_view(&new_ft, spec).unwrap().merged.payload,
            oracle[i]
        );
    }
    qp.free_table(ft).unwrap();
    qp.free_table(new_ft).unwrap();
}

/// Fleet read path with no survivors: killing the sole holder at
/// `r = 1` surfaces `FvError::NodeDown` on the next query — a typed
/// error from the lazy per-node connect path, not a panic.
#[test]
fn query_after_sole_holder_killed_is_typed_node_down() {
    let table = chaos_table(13);
    let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (ft, _) = qp.load_table(&table, Partitioning::RowRange).unwrap();
    let victim = fleet.node_ids()[0];
    fleet.remove_node(victim).unwrap();
    for spec in &specs() {
        match qp.far_view(&ft, spec) {
            Ok(_) => panic!("a shard with its only holder dead cannot answer"),
            Err(e) => assert!(
                matches!(e, FvError::NodeDown { .. }),
                "want NodeDown, got {e}"
            ),
        }
    }
}

/// Chaos × overload composition: every fault class a composed
/// [`ChaosScenarioGen`] schedule degrades a node with is replayed under
/// the multi-tenant serving layer on an `r = 2` fleet. The serving
/// invariants hold behind every degradation: no tenant starves, the
/// weight-normalized fairness index keeps its DRR floor, gold is never
/// shed, and every failure is a counted typed outcome — never a panic.
#[test]
fn serving_invariants_hold_under_scenario_faults() {
    use farview_core::{FleetBackend, ServeClass, ServeConfig, ServeEngine};

    let seed = 0x5E7E_u64;
    let scenario = ChaosScenarioGen::new(3, 8)
        .queries_per_phase(1)
        .with_all_faults()
        .seed(seed)
        .build();
    let mix = fv_workload::TenantMixGen::new(8)
        .queries_per_tenant(4)
        .overdemand(3, 4)
        .seed(seed)
        .build();
    let tenants = fv_bench::serve_tenants(&mix);
    let mut exercised = 0usize;
    for (k, event) in scenario.events.iter().enumerate() {
        let ChaosEvent::Degrade(node, spec) = event else {
            continue;
        };
        exercised += 1;
        let fleet = FarviewFleet::new(3, FarviewConfig::default());
        let qp = fleet.connect().unwrap();
        let mut backend = FleetBackend::new(qp);
        for t in &mix.tenants {
            let table = chaos_table(seed ^ (t.id as u64 + 1));
            let (ft, _) = backend
                .load_table_replicated(&table, Partitioning::RowRange, 2)
                .unwrap();
            backend.bind_tenant(t.id as u32, ft, table.byte_len() as u64);
        }
        let victim = fleet.node_ids()[node % fleet.node_ids().len()];
        fleet
            .degrade_node(victim, degrade_plan(spec, seed, k))
            .unwrap();
        let config = ServeConfig {
            servers: 2,
            queue_capacity: 8,
            bucket_qps_per_weight: 100_000.0,
            load: 8.0,
            seed,
            horizon: SimDuration::from_millis(3),
            ..ServeConfig::default()
        };
        let report = ServeEngine::new(&tenants, config, backend).unwrap().run();
        let class = spec.class_name();
        assert!(
            report.min_completed > 0,
            "{class}: a degraded replica starved a tenant"
        );
        assert!(
            report.fairness_index >= 0.5,
            "{class}: fairness {} broke the DRR bound behind a fault",
            report.fairness_index
        );
        assert!(
            report.completed + report.deadline_missed + report.abandoned + report.exec_failed
                <= report.offered,
            "{class}: final outcomes exceed offered work"
        );
        for t in &report.tenants {
            if t.class == ServeClass::Gold {
                assert_eq!(t.shed, 0, "{class}: gold tenant {} was shed", t.tenant);
            }
        }
    }
    assert!(
        exercised >= 3,
        "schedule composed too few degrade events ({exercised})"
    );
}
