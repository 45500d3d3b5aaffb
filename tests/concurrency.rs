//! Multi-client concurrency: shared tables, heterogeneous pipelines
//! running side by side, fairness under asymmetric load, and thread
//! safety of the cluster facade.

use farview::prelude::*;
use farview_core::{AggFunc, AggSpec, PipelineSpec, PredicateExpr};
use fv_workload::TableGen;

#[test]
fn six_clients_share_one_physical_table() {
    // "Farview also supports concurrent access, with multiple clients all
    // accessing the same shared disaggregated memory" (§1).
    let cluster = FarviewCluster::new(FarviewConfig::default());
    let owner = cluster.connect().unwrap();
    let table = TableGen::paper_default(512 << 10)
        .seed(77)
        .distinct_column(0, 16)
        .build();
    let (ft_owner, _) = owner.load_table(&table).unwrap();
    let pages_after_load = cluster.free_pages();

    let others: Vec<_> = (0..5).map(|_| cluster.connect().unwrap()).collect();
    let shared: Vec<_> = others
        .iter()
        .map(|qp| owner.share_table(&ft_owner, qp).unwrap())
        .collect();
    assert_eq!(
        cluster.free_pages(),
        pages_after_load,
        "sharing must not consume new pages"
    );

    // All six query the same physical pages concurrently.
    let spec = PipelineSpec::passthrough().distinct(vec![0]);
    let mut requests = vec![(&owner, &ft_owner, spec.clone())];
    for (qp, ft) in others.iter().zip(&shared) {
        requests.push((qp, ft, spec.clone()));
    }
    let outs = cluster.run_concurrent(requests).unwrap();
    assert_eq!(outs.len(), 6);
    for o in &outs {
        assert_eq!(o.row_count(), 16, "every client sees the same data");
    }
}

#[test]
fn heterogeneous_pipelines_run_concurrently() {
    // Different operator pipelines in different dynamic regions at the
    // same time — the whole point of partial reconfiguration (§3.2).
    let cluster = FarviewCluster::new(FarviewConfig::default());
    let qps: Vec<_> = (0..4).map(|_| cluster.connect().unwrap()).collect();
    let table = TableGen::paper_default(256 << 10)
        .seed(5)
        .distinct_column(0, 32)
        .selectivity_column(1, 0.5)
        .build();
    let fts: Vec<_> = qps
        .iter()
        .map(|qp| qp.load_table(&table).unwrap().0)
        .collect();

    let specs = [
        PipelineSpec::passthrough(),
        PipelineSpec::passthrough().filter(PredicateExpr::lt(1, fv_workload::SELECTIVITY_PIVOT)),
        PipelineSpec::passthrough().distinct(vec![0]),
        PipelineSpec::passthrough().group_by(
            vec![0],
            vec![AggSpec {
                col: 2,
                func: AggFunc::Count,
            }],
        ),
    ];
    let requests = qps
        .iter()
        .zip(&fts)
        .zip(specs.iter())
        .map(|((qp, ft), spec)| (qp, ft, spec.clone()))
        .collect();
    let outs = cluster.run_concurrent(requests).unwrap();

    // Each pipeline's own semantics hold under interleaving.
    assert_eq!(outs[0].payload, table.bytes());
    let expected_sel = table
        .rows()
        .filter(|r| r.value(1).as_u64() < fv_workload::SELECTIVITY_PIVOT)
        .count();
    assert_eq!(outs[1].row_count(), expected_sel);
    assert_eq!(outs[2].row_count(), 32);
    assert_eq!(outs[3].row_count(), 32);
    let total: u64 = outs[3].iter_rows().map(|r| r.value(1).as_u64()).sum();
    assert_eq!(
        total,
        table.row_count() as u64,
        "counts partition the table"
    );
}

#[test]
fn asymmetric_load_does_not_starve_the_small_query() {
    // One client reads 2 MB, the other 64 kB. DRR must let the small one
    // finish close to its solo time, not behind the elephant.
    let cluster = FarviewCluster::new(FarviewConfig::default());
    let big_qp = cluster.connect().unwrap();
    let small_qp = cluster.connect().unwrap();
    let big = TableGen::paper_default(2 << 20).seed(1).build();
    let small = TableGen::paper_default(64 << 10).seed(2).build();
    let (ft_big, _) = big_qp.load_table(&big).unwrap();
    let (ft_small, _) = small_qp.load_table(&small).unwrap();

    let solo = small_qp.table_read(&ft_small).unwrap().stats.response_time;
    let outs = cluster
        .run_concurrent(vec![
            (&big_qp, &ft_big, PipelineSpec::passthrough()),
            (&small_qp, &ft_small, PipelineSpec::passthrough()),
        ])
        .unwrap();
    let small_shared = outs[1].stats.response_time;
    let big_shared = outs[0].stats.response_time;
    assert!(
        small_shared.as_nanos() < 4 * solo.as_nanos(),
        "small query starved: {small_shared} vs solo {solo}"
    );
    assert!(
        small_shared < big_shared,
        "64 kB must finish before 2 MB: {small_shared} vs {big_shared}"
    );
}

#[test]
fn cluster_is_usable_from_threads() {
    // The facade is Send + Sync (Arc<Mutex>); clients on real host
    // threads must be able to connect, load, and query independently.
    let cluster = FarviewCluster::new(FarviewConfig::default());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let cluster = cluster.clone();
            handles.push(scope.spawn(move || {
                let qp = cluster.connect().expect("region");
                let table = TableGen::paper_default(64 << 10).seed(i).build();
                let (ft, _) = qp.load_table(&table).expect("space");
                let out = qp.table_read(&ft).expect("read");
                assert_eq!(out.payload, table.bytes());
                out.stats.response_time
            }));
        }
        for h in handles {
            assert!(h.join().unwrap() > fv_sim::SimDuration::ZERO);
        }
    });
}

#[test]
fn deterministic_concurrent_episodes() {
    // The DES is deterministic: the same six-client episode twice gives
    // identical times and payloads.
    let run = || {
        let cluster = FarviewCluster::new(FarviewConfig::default());
        let qps: Vec<_> = (0..6).map(|_| cluster.connect().unwrap()).collect();
        let tables: Vec<_> = (0..6)
            .map(|i| TableGen::paper_default(128 << 10).seed(i).build())
            .collect();
        let fts: Vec<_> = qps
            .iter()
            .zip(&tables)
            .map(|(qp, t)| qp.load_table(t).unwrap().0)
            .collect();
        let reqs = qps
            .iter()
            .zip(&fts)
            .map(|(qp, ft)| (qp, ft, PipelineSpec::passthrough()))
            .collect();
        cluster
            .run_concurrent(reqs)
            .unwrap()
            .into_iter()
            .map(|o| (o.stats.response_time, o.payload.len()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn a_connection_named_twice_is_a_typed_error() {
    // Streams of one episode are told apart by queue pair: the same
    // connection twice is a caller mistake, answered with a typed
    // error before any region or counter is touched — not the episode
    // engine's unique-stream-id assertion.
    let cluster = FarviewCluster::new(FarviewConfig::tiny());
    let qp = cluster.connect().unwrap();
    let table = TableGen::new(4, 200).seed(3).distinct_column(0, 8).build();
    let (ft, _) = qp.load_table(&table).unwrap();
    let a = PipelineSpec::passthrough().distinct(vec![0]);
    let b = PipelineSpec::passthrough().filter(PredicateExpr::lt(1, 100u64));

    let before = (cluster.reconfigurations(), cluster.episodes_run());
    let err = cluster
        .run_concurrent(vec![(&qp, &ft, a.clone()), (&qp, &ft, b.clone())])
        .unwrap_err();
    assert!(matches!(err, FvError::DuplicateConnection { .. }), "{err}");
    assert!(!err.is_retryable());
    assert_eq!(
        (cluster.reconfigurations(), cluster.episodes_run()),
        before,
        "a refused episode must not reconfigure a region or count as run"
    );

    // Depth on one connection is a doorbell batch.
    let outs = qp.far_view_batch(&ft, &[a, b]).unwrap();
    assert_eq!(outs.len(), 2);
    assert_eq!(outs[0].row_count(), 8);
}
