//! Property suite for the overload-safe serving layer
//! (`farview_core::serve`).
//!
//! The contract under test, past saturation:
//!
//! * **byte identity** — every admitted-and-completed query returns
//!   exactly the bytes an unloaded single-node oracle returns; shed,
//!   and retry drop whole queries, never parts of results;
//! * **no starvation** — across random heavy-tailed mixes (with
//!   over-demanders asking 4× their contracted share) every tenant
//!   completes work at every load;
//! * **typed errors only** — overload and backend failure surface as
//!   counted, typed outcomes, never a panic or a wrong answer;
//! * **seeded replay** — the same mix, config, and seed reproduce the
//!   same admissions, sheds, and payloads bit for bit;
//! * **chaos composition** — all of the above holds when the backend is
//!   a replicated fleet with one partitioned node (`r = 2` failover);
//! * **tier composition** — and when it is a tiered pool over a
//!   replicated fleet with DRAM for only half the tenants' tables.

use farview_core::{
    BlockStore, FarviewCluster, FarviewConfig, FarviewFleet, FleetBackend, FleetConn, FvError,
    Partitioning, ServeBackend, ServeClass, ServeConfig, ServeEngine, ServeReport, ServeTenant,
    SingleNodeBackend, TieredPool,
};
use fv_bench::{fault_plan_for, overload_backend, serve_tenants, OVERLOAD_BENCH_SEED};
use fv_sim::SimDuration;
use fv_workload::{FaultSpec, TableGen, TenantMix, TenantMixGen};

/// The bench sweep's pressured serving tier: two pipeline servers
/// behind an eight-slot queue, token buckets opened wide so the queue
/// capacity (not the buckets) is what overload drives against.
fn pressured(load: f64, seed: u64, horizon_ms: u64) -> ServeConfig {
    ServeConfig {
        servers: 2,
        queue_capacity: 8,
        bucket_qps_per_weight: 100_000.0,
        load,
        seed,
        horizon: SimDuration::from_millis(horizon_ms),
        ..ServeConfig::default()
    }
}

/// A heavy-tailed mix where every third tenant over-demands at 4× its
/// contracted share — the adversarial ingredient that exercises the
/// shedding and the DRR enforcement.
fn overdemanding_mix(n: usize, seed: u64) -> TenantMix {
    TenantMixGen::new(n)
        .queries_per_tenant(6)
        .overdemand(3, 4)
        .seed(seed)
        .build()
}

/// Run one pressured closed-loop serving episode over a fresh
/// single-node backend.
fn run_mix(
    mix: &TenantMix,
    rows: usize,
    load: f64,
    seed: u64,
    keep_payloads: bool,
) -> (Vec<ServeTenant>, ServeReport) {
    let tenants = serve_tenants(mix);
    let backend = overload_backend(mix, rows, seed);
    let config = ServeConfig {
        keep_payloads,
        ..pressured(load, seed ^ load.to_bits(), 6)
    };
    let report = ServeEngine::new(&tenants, config, backend)
        .expect("a runnable serving config")
        .run();
    (tenants, report)
}

/// Every query completed under shed/retry pressure is byte-identical
/// to a fresh unloaded run of the same backend — degradation drops
/// whole queries, never corrupts results.
#[test]
fn completions_match_the_unloaded_oracle_under_shed_pressure() {
    let mix = overdemanding_mix(12, OVERLOAD_BENCH_SEED);
    let (tenants, report) = run_mix(&mix, 1024, 16.0, OVERLOAD_BENCH_SEED, true);
    assert!(report.shed > 0, "the pressure config must actually shed");
    assert!(
        report.rejected > 0,
        "the pressure config must actually trip admission control"
    );
    let mut oracle = overload_backend(&mix, 1024, OVERLOAD_BENCH_SEED);
    assert_completions_match(&report, &tenants, &mut oracle);
}

/// Every completion of `report` carries the bytes `oracle` returns for
/// the same tenant and query, and there is at least one.
fn assert_completions_match(
    report: &ServeReport,
    tenants: &[ServeTenant],
    oracle: &mut impl ServeBackend,
) {
    assert!(!report.completions.is_empty());
    for c in &report.completions {
        let spec = &tenants[c.tenant as usize].queries[c.query_idx];
        let want = oracle
            .execute(c.tenant, spec)
            .expect("oracle execution")
            .payload;
        assert_eq!(
            c.payload, want,
            "completion diverged from the oracle (tenant {}, query {})",
            c.tenant, c.query_idx
        );
    }
}

/// Same mix, same config, same seed: the same admissions, sheds, and
/// payloads, bit for bit. Any fairness violation is replayable.
#[test]
fn pressured_runs_replay_byte_identically() {
    let mix = overdemanding_mix(12, 77);
    let (_, a) = run_mix(&mix, 256, 16.0, 77, true);
    let (_, b) = run_mix(&mix, 256, 16.0, 77, true);
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.deadline_missed, b.deadline_missed);
    assert_eq!(a.abandoned, b.abandoned);
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.tenant, y.tenant);
        assert_eq!(x.query_idx, y.query_idx);
        assert_eq!(x.payload, y.payload, "replay diverged in result bytes");
    }
}

/// Across random heavy-tailed mixes and loads spanning saturation: no
/// tenant starves, fairness holds its DRR floor, gold is never shed,
/// and every offered query resolves to at most one final outcome.
#[test]
fn no_tenant_starves_across_random_heavy_tailed_mixes() {
    for seed in [3u64, 17, 91, 205] {
        for load in [4.0f64, 16.0] {
            let n = 10 + (seed as usize % 4);
            let mix = overdemanding_mix(n, seed);
            let (_, r) = run_mix(&mix, 256, load, seed, false);
            assert!(
                r.min_completed > 0,
                "tenant starved (n {n}, seed {seed}, load {load}): {r:?}"
            );
            assert!(
                r.fairness_index >= 0.5,
                "fairness {} broke the DRR bound (n {n}, seed {seed}, load {load})",
                r.fairness_index
            );
            assert!(
                r.completed + r.deadline_missed + r.abandoned + r.exec_failed <= r.offered,
                "final outcomes exceed offered work (seed {seed}, load {load})"
            );
            for t in &r.tenants {
                if t.class == ServeClass::Gold {
                    assert_eq!(
                        t.shed, 0,
                        "gold tenant {} was shed (seed {seed}, load {load})",
                        t.tenant
                    );
                }
            }
        }
    }
}

/// One `rows`-row table per tenant of `mix`, in tenant order.
fn tenant_tables(mix: &TenantMix, rows: usize) -> Vec<fv_data::Table> {
    let table = |id: usize| {
        TableGen::new(8, rows)
            .seed(0x00C0_FFEE ^ (id as u64).wrapping_mul(0x9E37_79B9))
            .distinct_column(0, 32)
            .selectivity_column(1, 0.5)
            .sequential_column(2)
            .build()
    };
    mix.tenants.iter().map(|t| table(t.id)).collect()
}

/// The all-resident single-node oracle: every tenant's table loaded on
/// one healthy node.
fn resident_oracle(mix: &TenantMix, tables: &[fv_data::Table]) -> SingleNodeBackend {
    let cluster = FarviewCluster::new(FarviewConfig::default());
    let mut oracle = SingleNodeBackend::new(cluster.connect().expect("connect"));
    for (t, table) in mix.tenants.iter().zip(tables) {
        let (ft, _) = oracle.load_table(table).expect("oracle load");
        oracle.bind_tenant(t.id as u32, ft, table.byte_len() as u64);
    }
    oracle
}

/// Build a fleet-backed serving tier: `nodes` nodes, each tenant's
/// table sharded across them at `replicas` copies, tables returned for
/// the single-node oracle.
fn fleet_backend_for(
    mix: &TenantMix,
    fleet: &FarviewFleet,
    rows: usize,
    replicas: usize,
) -> (FleetBackend, Vec<fv_data::Table>) {
    let mut backend = FleetBackend::new(fleet.connect().expect("fleet connect"));
    let tables = tenant_tables(mix, rows);
    for (t, table) in mix.tenants.iter().zip(&tables) {
        let (ft, _) = backend
            .load_table_replicated(table, Partitioning::RowRange, replicas)
            .expect("fleet load");
        backend.bind_tenant(t.id as u32, ft, table.byte_len() as u64);
    }
    (backend, tables)
}

/// Chaos composition: the overload mix served by a replicated fleet
/// with one fully partitioned node. `r = 2` failover keeps every
/// serving invariant — zero typed execution failures surface, no
/// tenant starves, fairness holds, and every completion is still
/// byte-identical to a healthy single-node oracle.
#[test]
fn overload_mix_survives_a_partitioned_replica() {
    let mix = overdemanding_mix(8, 7);
    let tenants = serve_tenants(&mix);
    let fleet = FarviewFleet::new(3, FarviewConfig::default());
    let (backend, tables) = fleet_backend_for(&mix, &fleet, 192, 2);
    let victim = fleet.node_ids()[0];
    fleet
        .degrade_node(victim, fault_plan_for(&FaultSpec::Partition, 11))
        .expect("degrade");
    let config = ServeConfig {
        keep_payloads: true,
        ..pressured(8.0, 21, 6)
    };
    let report = ServeEngine::new(&tenants, config, backend)
        .expect("a runnable serving config")
        .run();
    assert_eq!(
        report.exec_failed, 0,
        "r = 2 failover must be transparent to the serving layer"
    );
    assert!(
        report.min_completed > 0,
        "tenant starved behind a partition"
    );
    assert!(
        report.fairness_index >= 0.5,
        "fairness {} broke the DRR bound on a degraded fleet",
        report.fairness_index
    );
    assert_completions_match(&report, &tenants, &mut resident_oracle(&mix, &tables));
}

/// Tier composition: the overload mix served by a `TieredPool` over a
/// 3-node `r = 2` fleet connection whose DRAM budget holds both copies
/// of only half the tenants' tables. Every completion is byte-identical
/// to the all-resident single-node oracle, shedding trips, and
/// every tenant completes — which, with half the tables fitting, takes
/// evictions and restagings along the way. Staging is paid as service,
/// so the same fleet with every table resident completes more.
#[test]
fn serving_over_a_tiered_replicated_fleet_matches_the_all_resident_oracle() {
    let mix = overdemanding_mix(12, 77);
    let tenants = serve_tenants(&mix);
    let tables = tenant_tables(&mix, 256);
    let fleet = FarviewFleet::new(3, FarviewConfig::default());
    let conn = FleetConn::new(
        fleet.connect().expect("fleet connect"),
        Partitioning::RowRange,
    )
    .with_replication(2);
    let half = tables.len() / 2 * tables[0].byte_len();
    let mut pool = TieredPool::new(&conn, 2 * half as u64, BlockStore::default());
    for (t, table) in mix.tenants.iter().zip(&tables) {
        pool.insert(&t.id.to_string(), table).expect("insert");
    }
    let config = ServeConfig {
        keep_payloads: true,
        ..pressured(8.0, 21, 6)
    };
    let report = ServeEngine::new(&tenants, config.clone(), pool)
        .expect("a runnable serving config")
        .run();
    assert!(report.shed > 0, "the pressure config never shed");
    assert_eq!(
        report.exec_failed, 0,
        "staging must be transparent to serving"
    );
    assert!(
        report.min_completed > 0,
        "a tenant never got its table staged"
    );
    assert_completions_match(&report, &tenants, &mut resident_oracle(&mix, &tables));

    let resident_fleet = FarviewFleet::new(3, FarviewConfig::default());
    let (resident, _) = fleet_backend_for(&mix, &resident_fleet, 256, 2);
    let all_resident = ServeEngine::new(&tenants, config, resident)
        .expect("a runnable serving config")
        .run();
    assert!(
        report.completed < all_resident.completed,
        "staging was not paid as service time"
    );
}

/// Without replication a partition is not survivable — and the failure
/// mode must be a clean typed error at the backend surface plus counted
/// `exec_failed` outcomes at the serving layer, never a panic.
#[test]
fn unreplicated_partition_fails_typed_never_panics() {
    let mix = overdemanding_mix(6, 13);
    let tenants = serve_tenants(&mix);
    let fleet = FarviewFleet::new(2, FarviewConfig::default());
    let (mut backend, _tables) = fleet_backend_for(&mix, &fleet, 128, 1);
    let victim = fleet.node_ids()[0];
    fleet
        .degrade_node(victim, fault_plan_for(&FaultSpec::Partition, 5))
        .expect("degrade");
    let err = backend
        .execute(tenants[0].id, &tenants[0].queries[0])
        .expect_err("a partitioned unreplicated scan cannot succeed");
    assert!(
        matches!(
            err,
            FvError::Net(_) | FvError::IncompleteEpisode { .. } | FvError::NodeDown { .. }
        ),
        "untyped failure shape: {err}"
    );
    let report = ServeEngine::new(&tenants, pressured(4.0, 9, 3), backend)
        .expect("a runnable serving config")
        .run();
    assert!(
        report.exec_failed > 0,
        "execution failures must be counted, not swallowed"
    );
    assert_eq!(report.completed, 0, "nothing can complete unreplicated");
    assert!(
        report.completed + report.deadline_missed + report.abandoned + report.exec_failed
            <= report.offered,
        "final outcomes exceed offered work"
    );
}
