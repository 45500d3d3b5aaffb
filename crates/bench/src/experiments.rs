//! The experiment implementations, one per table/figure.

use farview_core::{
    microbench, resources, AggFunc, AggSpec, CryptoSpec, FTable, FarviewCluster, FarviewConfig,
    FarviewFleet, Partitioning, PipelineSpec, PlanTarget, PredicateExpr, QPair, QueryPlan,
    TierLevel,
};
use fv_baseline::{rnic_read_response_time, BaselineKind, CpuEngine};
use fv_data::{Schema, Table};
use fv_net::NicKind;
use fv_sim::{Histogram, SimDuration};
use fv_workload::{
    encrypt_table, ClosedLoopGen, FleetScenarioGen, StringTableGen, TableGen, TenantQuery,
    REGEX_PATTERN, SELECTIVITY_PIVOT,
};

use crate::figure::Figure;

/// Table sizes used by Figures 8, 9 and 11 (bytes).
pub(crate) const TABLE_SIZES: [u64; 5] = [64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20];

const AES_KEY: [u8; 16] = [0x2b; 16];
const AES_IV: [u8; 16] = [0xf0; 16];

fn cluster() -> FarviewCluster {
    FarviewCluster::new(FarviewConfig::default())
}

fn load(qp: &QPair, table: &Table) -> FTable {
    let (ft, _) = qp.load_table(table).expect("buffer pool space");
    ft
}

fn us(d: fv_sim::SimDuration) -> f64 {
    d.as_micros_f64()
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: FPGA resource overhead, rendered like the paper.
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str("Table 1: Resource overhead of Farview\n\n");
    out.push_str(&format!(
        "{:<38} {}\n",
        "Configuration", "CLB LUTs   Regs  BRAM   DSPs"
    ));
    out.push_str(&format!(
        "{:<38}{}\n",
        "6 regions",
        resources::system_usage(6).paper_row()
    ));
    out.push('\n');
    out.push_str(&format!(
        "{:<38} {}\n",
        "Operators (per dynamic region)", "CLB LUTs   Regs  BRAM   DSPs"
    ));
    for (name, usage) in [
        (
            "Projection/Selection/Aggregation",
            resources::operators::PROJ_SEL_AGG,
        ),
        ("Regular expression", resources::operators::REGEX),
        ("Distinct/Group by", resources::operators::DISTINCT_GROUP_BY),
        ("En(de)cryption", resources::operators::CRYPTO),
        ("Packing/Sending", resources::operators::PACK_SEND),
    ] {
        out.push_str(&format!("{name:<38}{}\n", usage.paper_row()));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 6: RDMA throughput and response time
// ---------------------------------------------------------------------------

/// Figure 6(a): RDMA read throughput vs transfer size, FV vs RNIC.
pub fn fig6a() -> Figure {
    let mut f = Figure::new(
        "fig6a",
        "RDMA read throughput (pipelined)",
        "transfer size [bytes]",
        "throughput [GBps]",
    );
    let sizes = [128u64, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
    for (name, nic) in [
        ("FV", NicKind::FarviewFpga),
        ("RNIC", NicKind::CommercialRnic),
    ] {
        let pts = sizes
            .iter()
            .map(|&s| (s as f64, microbench::read_throughput_gbps(nic, s)))
            .collect();
        f.push_series(name, pts);
    }
    f
}

/// Figure 6(b): RDMA read response time vs transfer size, FV vs RNIC.
pub fn fig6b() -> Figure {
    let mut f = Figure::new(
        "fig6b",
        "RDMA read response time",
        "transfer size [bytes]",
        "response time [us]",
    );
    let sizes = [512u64, 1024, 2048, 4096, 8192, 16384, 32768];
    let c = cluster();
    let qp = c.connect().expect("region");
    let mut fv = Vec::new();
    for &s in &sizes {
        let table = TableGen::paper_default(s).build();
        let ft = load(&qp, &table);
        let out = qp.table_read(&ft).expect("read");
        fv.push((s as f64, us(out.stats.response_time)));
        qp.free_table(ft).expect("free");
    }
    f.push_series("FV", fv);
    let rnic = sizes
        .iter()
        .map(|&s| (s as f64, us(rnic_read_response_time(s))))
        .collect();
    f.push_series("RNIC", rnic);
    f
}

// ---------------------------------------------------------------------------
// Figure 7: standard projection vs smart addressing
// ---------------------------------------------------------------------------

/// Figure 7: project three contiguous 8-byte columns; smart addressing on
/// 512 B tuples vs whole-row reads of 256 B / 512 B tuples.
pub fn fig7() -> Figure {
    let mut f = Figure::new(
        "fig7",
        "Standard projection vs smart addressing",
        "number of tuples",
        "response time [us]",
    );
    let tuple_counts = [256usize, 512, 1024, 2048, 4096, 8192, 16384];
    let c = cluster();
    let qp = c.connect().expect("region");

    let run = |cols_per_row: usize, smart: bool| -> Vec<(f64, f64)> {
        let mut pts = Vec::new();
        for &n in &tuple_counts {
            let table = TableGen::new(cols_per_row, n).build();
            let ft = load(&qp, &table);
            let mut spec = PipelineSpec::passthrough().project(vec![8, 9, 10]);
            if smart {
                spec = spec.with_smart_addressing();
            }
            let out = qp.far_view(&ft, &spec).expect("projection query");
            assert_eq!(out.stats.tuples_out, n as u64);
            pts.push((n as f64, us(out.stats.response_time)));
            qp.free_table(ft).expect("free");
        }
        pts
    };

    f.push_series("FV-SA", run(64, true)); // 512 B tuples, smart addressing
    f.push_series("FV-t256B", run(32, false)); // 256 B tuples, whole rows
    f.push_series("FV-t512B", run(64, false)); // 512 B tuples, whole rows
    f
}

// ---------------------------------------------------------------------------
// Figure 8: selection
// ---------------------------------------------------------------------------

/// Figure 8: `SELECT * FROM S WHERE S.a < X AND S.b < Y` at the given
/// overall selectivity (1.0, 0.5 or 0.25), FV / FV-V / LCPU / RCPU.
pub fn fig8(selectivity: f64) -> Figure {
    let sub = if selectivity == 1.0 {
        "a"
    } else if selectivity == 0.5 {
        "b"
    } else {
        "c"
    };
    let mut f = Figure::new(
        &format!("fig8{sub}"),
        &format!("Selection, {:.0}% selectivity", selectivity * 100.0),
        "table size [bytes]",
        "response time [us]",
    );
    let per_col = selectivity.sqrt();
    let c = cluster();
    let qp = c.connect().expect("region");
    let pred = PredicateExpr::lt(0, SELECTIVITY_PIVOT).and(PredicateExpr::lt(1, SELECTIVITY_PIVOT));

    let mut fv = Vec::new();
    let mut fv_v = Vec::new();
    let mut lcpu = Vec::new();
    let mut rcpu = Vec::new();
    for &size in &TABLE_SIZES {
        let table = TableGen::paper_default(size)
            .selectivity_column(0, per_col)
            .selectivity_column(1, per_col)
            .build();
        let ft = load(&qp, &table);

        let spec = PipelineSpec::passthrough().filter(pred.clone());
        let out = qp.far_view(&ft, &spec).expect("FV select");
        fv.push((size as f64, us(out.stats.response_time)));

        let out_v = qp
            .far_view(&ft, &spec.clone().vectorized())
            .expect("FV-V select");
        assert_eq!(
            out.payload, out_v.payload,
            "vectorization must not change results"
        );
        fv_v.push((size as f64, us(out_v.stats.response_time)));

        let l = CpuEngine::new(BaselineKind::Lcpu).select(&table, &pred, None);
        assert_eq!(l.payload, out.payload, "engines must agree");
        lcpu.push((size as f64, us(l.time)));
        let r = CpuEngine::new(BaselineKind::Rcpu).select(&table, &pred, None);
        rcpu.push((size as f64, us(r.time)));

        qp.free_table(ft).expect("free");
    }
    f.push_series("FV", fv);
    f.push_series("FV-V", fv_v);
    f.push_series("LCPU", lcpu);
    f.push_series("RCPU", rcpu);
    f
}

// ---------------------------------------------------------------------------
// Figure 9: grouping
// ---------------------------------------------------------------------------

/// Figure 9(a): `SELECT DISTINCT(S.a)` with all-distinct keys vs table
/// size, FV / LCPU / RCPU.
pub fn fig9a() -> Figure {
    let mut f = Figure::new(
        "fig9a",
        "DISTINCT, all keys distinct",
        "table size [bytes]",
        "response time [us]",
    );
    let c = cluster();
    let qp = c.connect().expect("region");
    let mut fv = Vec::new();
    let mut lcpu = Vec::new();
    let mut rcpu = Vec::new();
    for &size in &TABLE_SIZES {
        let table = TableGen::paper_default(size).sequential_column(0).build();
        let ft = load(&qp, &table);
        let out = qp.distinct(&ft, vec![0]).expect("FV distinct");
        fv.push((size as f64, us(out.stats.response_time)));
        let l = CpuEngine::new(BaselineKind::Lcpu).distinct(&table, &[0]);
        lcpu.push((size as f64, us(l.time)));
        let r = CpuEngine::new(BaselineKind::Rcpu).distinct(&table, &[0]);
        rcpu.push((size as f64, us(r.time)));
        // Cross-validate: FV output (minus overflow dups) equals LCPU's.
        assert_eq!(dedup_u64(&out.payload).len(), dedup_u64(&l.payload).len());
        qp.free_table(ft).expect("free");
    }
    f.push_series("FV", fv);
    f.push_series("LCPU", lcpu);
    f.push_series("RCPU", rcpu);
    f
}

fn dedup_u64(payload: &[u8]) -> std::collections::HashSet<u64> {
    payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// Figure 9(b): `SELECT S.a, SUM(S.b) GROUP BY S.a` vs table size, group
/// count growing with the table (rows/16 groups).
pub fn fig9b() -> Figure {
    let mut f = Figure::new(
        "fig9b",
        "GROUP BY + SUM, groups grow with table",
        "table size [bytes]",
        "response time [us]",
    );
    let c = cluster();
    let qp = c.connect().expect("region");
    let agg = vec![AggSpec {
        col: 1,
        func: AggFunc::Sum,
    }];
    let mut fv = Vec::new();
    let mut lcpu = Vec::new();
    let mut rcpu = Vec::new();
    for &size in &TABLE_SIZES {
        let rows = size / 64;
        let table = TableGen::paper_default(size)
            .distinct_column(0, rows / 16)
            .build();
        let ft = load(&qp, &table);
        let out = qp.group_by(&ft, vec![0], agg.clone()).expect("FV group by");
        fv.push((size as f64, us(out.stats.response_time)));
        let l = CpuEngine::new(BaselineKind::Lcpu).group_by(&table, &[0], &agg);
        lcpu.push((size as f64, us(l.time)));
        let r = CpuEngine::new(BaselineKind::Rcpu).group_by(&table, &[0], &agg);
        rcpu.push((size as f64, us(r.time)));
        qp.free_table(ft).expect("free");
    }
    f.push_series("FV", fv);
    f.push_series("LCPU", lcpu);
    f.push_series("RCPU", rcpu);
    f
}

/// Figure 9(c): same query at a fixed 512 kB table, sweeping the number
/// of groups.
pub fn fig9c() -> Figure {
    let mut f = Figure::new(
        "fig9c",
        "GROUP BY + SUM, fixed table, group sweep",
        "number of groups",
        "response time [us]",
    );
    let size = 512u64 << 10;
    let groups = [256u64, 512, 1024, 2048, 4096];
    let c = cluster();
    let qp = c.connect().expect("region");
    let agg = vec![AggSpec {
        col: 1,
        func: AggFunc::Sum,
    }];
    let mut fv = Vec::new();
    let mut lcpu = Vec::new();
    let mut rcpu = Vec::new();
    for &g in &groups {
        let table = TableGen::paper_default(size).distinct_column(0, g).build();
        let ft = load(&qp, &table);
        let out = qp.group_by(&ft, vec![0], agg.clone()).expect("FV group by");
        fv.push((g as f64, us(out.stats.response_time)));
        let l = CpuEngine::new(BaselineKind::Lcpu).group_by(&table, &[0], &agg);
        lcpu.push((g as f64, us(l.time)));
        let r = CpuEngine::new(BaselineKind::Rcpu).group_by(&table, &[0], &agg);
        rcpu.push((g as f64, us(r.time)));
        qp.free_table(ft).expect("free");
    }
    f.push_series("FV", fv);
    f.push_series("LCPU", lcpu);
    f.push_series("RCPU", rcpu);
    f
}

// ---------------------------------------------------------------------------
// Figure 10: regular expression matching
// ---------------------------------------------------------------------------

/// Figure 10: regex matching vs string size, 50 % match rate.
pub fn fig10() -> Figure {
    let mut f = Figure::new(
        "fig10",
        "Regular expression matching, 50% match rate",
        "string size [bytes]",
        "response time [us]",
    );
    let sizes = [256usize, 1024, 4096, 16384];
    let c = cluster();
    let qp = c.connect().expect("region");
    let mut fv = Vec::new();
    let mut lcpu = Vec::new();
    let mut rcpu = Vec::new();
    for &s in &sizes {
        let table = StringTableGen::new(1, s).match_fraction(0.5).build();
        let ft = load(&qp, &table);
        let out = qp.regex_match(&ft, 1, REGEX_PATTERN).expect("FV regex");
        fv.push((s as f64, us(out.stats.response_time)));
        let l = CpuEngine::new(BaselineKind::Lcpu).regex_match(&table, 1, REGEX_PATTERN);
        assert_eq!(l.row_count(), out.row_count(), "engines must agree");
        lcpu.push((s as f64, us(l.time)));
        let r = CpuEngine::new(BaselineKind::Rcpu).regex_match(&table, 1, REGEX_PATTERN);
        rcpu.push((s as f64, us(r.time)));
        qp.free_table(ft).expect("free");
    }
    f.push_series("FV", fv);
    f.push_series("LCPU", lcpu);
    f.push_series("RCPU", rcpu);
    f
}

// ---------------------------------------------------------------------------
// Figure 11: encryption
// ---------------------------------------------------------------------------

/// Figure 11(a): read + decrypt response time vs table size.
pub fn fig11a() -> Figure {
    let mut f = Figure::new(
        "fig11a",
        "Decrypting read of an encrypted table",
        "table size [bytes]",
        "response time [us]",
    );
    let c = cluster();
    let qp = c.connect().expect("region");
    let key = CryptoSpec {
        key: AES_KEY,
        iv: AES_IV,
    };
    let mut fv = Vec::new();
    let mut lcpu = Vec::new();
    let mut rcpu = Vec::new();
    for &size in &TABLE_SIZES {
        let plain = TableGen::paper_default(size).build();
        let encrypted = encrypt_table(&plain, &AES_KEY, &AES_IV);
        let ft = load(&qp, &encrypted);
        let out = qp.read_decrypt(&ft, key.clone()).expect("FV decrypt read");
        assert_eq!(out.payload, plain.bytes(), "FV must recover plaintext");
        fv.push((size as f64, us(out.stats.response_time)));
        let l = CpuEngine::new(BaselineKind::Lcpu).decrypt_read(&encrypted, &AES_KEY, &AES_IV);
        assert_eq!(l.payload, plain.bytes());
        lcpu.push((size as f64, us(l.time)));
        let r = CpuEngine::new(BaselineKind::Rcpu).decrypt_read(&encrypted, &AES_KEY, &AES_IV);
        rcpu.push((size as f64, us(r.time)));
        qp.free_table(ft).expect("free");
    }
    f.push_series("FV", fv);
    f.push_series("LCPU", lcpu);
    f.push_series("RCPU", rcpu);
    f
}

/// Figure 11(b): throughput of a raw read (FV-RD) vs read+decrypt
/// (FV-RD+Dec) — the curves must coincide ("no noticeable performance
/// penalty", §6.7).
pub fn fig11b() -> Figure {
    let mut f = Figure::new(
        "fig11b",
        "Read vs read+decrypt throughput",
        "transfer size [bytes]",
        "throughput [GBps]",
    );
    let sizes = [256u64, 512, 1024, 2048, 4096];
    let c = cluster();
    let qp = c.connect().expect("region");
    let key = CryptoSpec {
        key: AES_KEY,
        iv: AES_IV,
    };
    let mut rd = Vec::new();
    let mut rd_dec = Vec::new();
    for &size in &sizes {
        let plain = TableGen::paper_default(size).build();
        let encrypted = encrypt_table(&plain, &AES_KEY, &AES_IV);
        let ft = load(&qp, &encrypted);
        let raw = qp.table_read(&ft).expect("read");
        let dec = qp.read_decrypt(&ft, key.clone()).expect("decrypt read");
        // Effective throughput including fixed costs; both series share
        // them, so coincidence demonstrates the zero-cost decrypt.
        rd.push((
            size as f64,
            size as f64 / raw.stats.response_time.as_nanos() as f64,
        ));
        rd_dec.push((
            size as f64,
            size as f64 / dec.stats.response_time.as_nanos() as f64,
        ));
        qp.free_table(ft).expect("free");
    }
    f.push_series("FV-RD", rd);
    f.push_series("FV-RD+Dec", rd_dec);
    f
}

// ---------------------------------------------------------------------------
// Figure 12: multiple clients
// ---------------------------------------------------------------------------

/// Figure 12: six concurrent clients all running a small-cardinality
/// DISTINCT; y is the time until *all* clients have finished.
pub fn fig12() -> Figure {
    let mut f = Figure::new(
        "fig12",
        "Six concurrent clients, DISTINCT",
        "table size [bytes]",
        "response time (all clients done) [us]",
    );
    let sizes = [
        64u64 << 10,
        128 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
    ];
    let clients = 6usize;
    let c = cluster();
    let qps: Vec<_> = (0..clients).map(|_| c.connect().expect("region")).collect();

    let mut fv = Vec::new();
    let mut lcpu = Vec::new();
    let mut rcpu = Vec::new();
    for &size in &sizes {
        // Small distinct cardinality "to prevent the network from
        // becoming the main bottleneck" (§6.8).
        let tables: Vec<Table> = (0..clients)
            .map(|i| {
                TableGen::paper_default(size)
                    .seed(100 + i as u64)
                    .distinct_column(0, 32)
                    .build()
            })
            .collect();
        let fts: Vec<FTable> = qps.iter().zip(&tables).map(|(qp, t)| load(qp, t)).collect();
        let spec = PipelineSpec::passthrough().distinct(vec![0]);
        let requests = qps
            .iter()
            .zip(&fts)
            .map(|(qp, ft)| (qp, ft, spec.clone()))
            .collect();
        let outs = c.run_concurrent(requests).expect("six clients");
        let t_all = outs
            .iter()
            .map(|o| o.stats.response_time)
            .fold(fv_sim::SimDuration::ZERO, fv_sim::SimDuration::max);
        fv.push((size as f64, us(t_all)));

        // CPU baselines: six processes contending (max = each, they are
        // symmetric).
        let l = CpuEngine::with_processes(BaselineKind::Lcpu, clients).distinct(&tables[0], &[0]);
        lcpu.push((size as f64, us(l.time)));
        let r = CpuEngine::with_processes(BaselineKind::Rcpu, clients).distinct(&tables[0], &[0]);
        rcpu.push((size as f64, us(r.time)));

        for (qp, ft) in qps.iter().zip(fts) {
            qp.free_table(ft).expect("free");
        }
    }
    f.push_series("FV", fv);
    f.push_series("LCPU", lcpu);
    f.push_series("RCPU", rcpu);
    f
}

// ---------------------------------------------------------------------------
// Scale-out: the multi-node fleet (beyond the paper)
// ---------------------------------------------------------------------------

/// Node counts swept by the scale-out experiment.
pub(crate) const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Lower an engine-independent [`TenantQuery`] onto a pipeline spec.
///
/// The tenant tables calibrate column 1 so that half its values fall
/// below [`SELECTIVITY_PIVOT`] (uniform on each side), which lets one
/// threshold hit any requested selectivity.
pub fn tenant_query_spec(q: &TenantQuery) -> PipelineSpec {
    match *q {
        TenantQuery::Select { selectivity } => {
            let threshold = if selectivity <= 0.5 {
                (2.0 * selectivity * SELECTIVITY_PIVOT as f64) as u64
            } else {
                let above = ((1u64 << 63) - SELECTIVITY_PIVOT) as f64;
                SELECTIVITY_PIVOT + (2.0 * (selectivity - 0.5) * above) as u64
            };
            PipelineSpec::passthrough().filter(PredicateExpr::lt(1, threshold))
        }
        TenantQuery::Distinct => PipelineSpec::passthrough().distinct(vec![0]),
        TenantQuery::GroupBySum => PipelineSpec::passthrough().group_by(
            vec![0],
            vec![AggSpec {
                col: 2,
                func: AggFunc::Sum,
            }],
        ),
        TenantQuery::GroupByAvg => PipelineSpec::passthrough().group_by(
            vec![0],
            vec![AggSpec {
                col: 2,
                func: AggFunc::Avg,
            }],
        ),
    }
}

/// Scale-out: multi-tenant scatter–gather throughput and tail latency
/// vs fleet size (1 → 8 nodes, hash-partitioned tenant tables).
///
/// Four tenants each load a 1 MB table (hash-partitioned on the group
/// key) and issue their generated query mix; every query fans out to all
/// shards and merges client-side. Throughput counts completed queries
/// per second of simulated busy time; the p50/p99 series summarize the
/// fleet-observed response-time distribution.
pub fn scaleout() -> Figure {
    scaleout_at(4, 16_384, 6)
}

/// [`scaleout`] at its smallest config (the `figures smoke` gate).
pub(crate) fn scaleout_smoke() -> Figure {
    scaleout_at(2, 2_048, 3)
}

fn scaleout_at(n_tenants: usize, rows_per_tenant: usize, queries_per_tenant: usize) -> Figure {
    let mut f = Figure::new(
        "scaleout",
        "Fleet scale-out, multi-tenant scatter-gather mix",
        "nodes",
        "throughput [queries/s] · latency [us]",
    );
    let tenants = FleetScenarioGen::new(n_tenants, rows_per_tenant)
        .queries_per_tenant(queries_per_tenant)
        .seed(11)
        .build();

    let mut throughput = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for &nodes in &FLEET_SIZES {
        let fleet = FarviewFleet::new(nodes, FarviewConfig::default());
        let mut hist = Histogram::new();
        let mut busy = SimDuration::ZERO;
        let mut queries = 0u64;
        for tenant in &tenants {
            let qp = fleet.connect().expect("a region on every node");
            let (ft, _) = qp
                .load_table(&tenant.table, Partitioning::KeyHash(tenant.partition_key))
                .expect("buffer pool space");
            for q in &tenant.queries {
                let out = qp
                    .far_view(&ft, &tenant_query_spec(q))
                    .expect("fleet query");
                hist.record_duration(out.merged.stats.response_time);
                busy += out.merged.stats.response_time;
                queries += 1;
            }
            qp.free_table(ft).expect("free");
        }
        let x = nodes as f64;
        throughput.push((x, queries as f64 / busy.as_secs_f64()));
        p50.push((x, hist.median().expect("samples")));
        p99.push((x, hist.quantile(0.99).expect("samples")));
    }
    f.push_series("throughput [q/s]", throughput);
    f.push_series("p50 [us]", p50);
    f.push_series("p99 [us]", p99);
    f
}

// ---------------------------------------------------------------------------
// Queue depth: doorbell-batched pipelined episodes (beyond the paper)
// ---------------------------------------------------------------------------

/// Queue depths swept by the `qdepth` experiment.
pub(crate) const QUEUE_DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// Queries the closed-loop client issues per depth setting.
const QDEPTH_QUERIES: usize = 32;

/// Queue-depth sweep: a closed-loop client keeps N `farView` verbs in
/// flight on one queue pair via doorbell-batched submission
/// (`QPair::far_view_batch`), N ∈ {1, 2, 4, 8, 16}.
///
/// The table is small enough (16 kB) that per-query fixed costs —
/// doorbell, request parse, DRAM first access, pipeline fill — dominate
/// a solo run, which is exactly where batching pays: one doorbell is
/// amortized over N WQEs and the node overlaps the in-flight verbs, so
/// throughput climbs with depth while per-query latency grows only by
/// the in-batch queueing. Results are asserted byte-identical to the
/// depth-1 run at every depth.
pub fn qdepth() -> Figure {
    qdepth_at(256, QDEPTH_QUERIES)
}

/// [`qdepth`] at its smallest config (the `figures smoke` gate).
pub(crate) fn qdepth_smoke() -> Figure {
    qdepth_at(128, 16)
}

fn qdepth_at(rows: usize, queries: usize) -> Figure {
    let mut f = Figure::new(
        "qdepth",
        "Closed-loop queue-depth sweep, doorbell-batched farView",
        "queue depth",
        "throughput [queries/s] · latency [us]",
    );
    // Tenant-shaped table: c0 = group key, c1 = calibrated selectivity,
    // c2 = aggregation payload (what `tenant_query_spec` expects).
    let table = TableGen::new(8, rows)
        .seed(21)
        .distinct_column(0, 32)
        .selectivity_column(1, 0.5)
        .sequential_column(2)
        .build();
    let c = cluster();
    let qp = c.connect().expect("region");
    let ft = load(&qp, &table);

    // One query stream for every depth (the generator is depth-invariant
    // for a fixed seed), lowered once.
    let specs: Vec<PipelineSpec> = ClosedLoopGen::new(queries)
        .seed(17)
        .build()
        .flat()
        .iter()
        .map(tenant_query_spec)
        .collect();
    let reference: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| qp.far_view(&ft, s).expect("solo query").payload)
        .collect();

    let mut throughput = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for &depth in &QUEUE_DEPTHS {
        let mut hist = Histogram::new();
        let mut busy = SimDuration::ZERO;
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(specs.len());
        for batch in specs.chunks(depth) {
            let outs = qp.far_view_batch(&ft, batch).expect("batched episode");
            let makespan = outs
                .iter()
                .map(|o| o.stats.response_time)
                .fold(SimDuration::ZERO, SimDuration::max);
            busy += makespan;
            for o in outs {
                hist.record_duration(o.stats.response_time);
                payloads.push(o.payload);
            }
        }
        assert_eq!(
            payloads, reference,
            "depth {depth} changed query results — batching must be invisible"
        );
        let x = depth as f64;
        throughput.push((x, queries as f64 / busy.as_secs_f64()));
        p50.push((x, hist.median().expect("samples")));
        p99.push((x, hist.quantile(0.99).expect("samples")));
    }
    f.push_series("throughput [q/s]", throughput);
    f.push_series("p50 [us]", p50);
    f.push_series("p99 [us]", p99);
    f
}

// ---------------------------------------------------------------------------
// Plan ablation: the rule-based optimizer vs naive plans (beyond the paper)
// ---------------------------------------------------------------------------

/// Shard counts swept by the `plan_ablation` experiment.
pub(crate) const ABLATION_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Queue depths swept by the `plan_ablation` experiment.
pub(crate) const ABLATION_DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Plan ablation: run each workload's *naive* plan (the spec as
/// written) and its *optimized* plan (through
/// [`QueryPlan::optimize`]) over every shard-count × queue-depth
/// configuration, asserting byte-identical results along the way.
///
/// The workloads are the three standard figure-query shapes over 512 B
/// tuples: a 3-column projection (`SELECT c8,c9,c10` — the optimizer's
/// cost model picks smart addressing, Figure 7's win), a `DISTINCT` and
/// a `GROUP BY SUM+AVG` (where the optimizer's value is the unified
/// partial-aggregation merge; the plans themselves are already
/// canonical, so optimized time equals naive time). Every point is the
/// batch makespan at the given fleet size and doorbell depth.
pub fn plan_ablation() -> Figure {
    plan_ablation_at(1024, &ABLATION_SHARDS, &ABLATION_DEPTHS)
}

/// [`plan_ablation`] at its smallest config (the `figures smoke` gate).
pub(crate) fn plan_ablation_smoke() -> Figure {
    plan_ablation_at(256, &[1, 2], &[1, 2])
}

fn plan_ablation_at(rows: usize, shard_counts: &[usize], depths: &[usize]) -> Figure {
    let mut f = Figure::new(
        "plan_ablation",
        "Optimized vs naive query plans",
        "shards x 10 + queue depth",
        "batch makespan [us]",
    );
    let table = TableGen::new(64, rows) // 512 B tuples
        .seed(33)
        .distinct_column(0, 32)
        .sequential_column(2)
        .build();
    let queries: [(&str, PipelineSpec); 3] = [
        (
            "select",
            PipelineSpec::passthrough().project(vec![8, 9, 10]),
        ),
        ("distinct", PipelineSpec::passthrough().distinct(vec![0])),
        (
            "group-by",
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
        ),
    ];

    for (name, spec) in &queries {
        let mut naive_pts = Vec::new();
        let mut opt_pts = Vec::new();
        for &shards in shard_counts {
            let fleet = FarviewFleet::new(shards, FarviewConfig::default());
            let qp = fleet.connect().expect("a region on every node");
            let (ft, _) = qp
                .load_table(&table, Partitioning::RowRange)
                .expect("buffer pool space");
            let target = PlanTarget::Fleet {
                shards,
                partitioning: Partitioning::RowRange,
            };
            let optimized = QueryPlan::from_spec(spec, target)
                .optimize(table.schema())
                .expect("optimize")
                .to_spec()
                .expect("lower");
            for &depth in depths {
                let x = (shards * 10 + depth) as f64;
                let naive_outs = qp
                    .far_view_batch(&ft, &vec![spec.clone(); depth])
                    .expect("naive batch");
                let opt_outs = qp
                    .far_view_batch(&ft, &vec![optimized.clone(); depth])
                    .expect("optimized batch");
                for (a, b) in naive_outs.iter().zip(&opt_outs) {
                    assert_eq!(
                        a.merged.payload, b.merged.payload,
                        "the optimizer changed {name} results at {shards} shards"
                    );
                }
                let makespan = |outs: &[farview_core::FleetQueryOutcome]| {
                    outs.iter()
                        .map(|o| o.merged.stats.response_time)
                        .fold(SimDuration::ZERO, SimDuration::max)
                };
                naive_pts.push((x, us(makespan(&naive_outs))));
                opt_pts.push((x, us(makespan(&opt_outs))));
            }
            qp.free_table(ft).expect("free");
        }
        f.push_series(&format!("{name} naive"), naive_pts);
        f.push_series(&format!("{name} optimized"), opt_pts);
    }
    f
}

// ---------------------------------------------------------------------------
// Elasticity: dynamic membership + live rebalancing (beyond the paper)
// ---------------------------------------------------------------------------

/// Node counts of the elasticity experiment's growth phases.
pub const ELASTICITY_PHASES: [usize; 3] = [2, 4, 8];

/// Elasticity: a scan-heavy query mix running against a fleet that
/// **changes shape under load** — 2 → 4 → 8 nodes with a live rebalance
/// between phases, then a node kill survived through `r = 2`
/// replication.
///
/// The table loads once (row-range partitioned, two replicas per
/// shard). After each growth step [`FleetQPair::rebalance`] computes
/// and executes the minimal shard-move plan, the old-epoch handle is
/// retired, and the same query mix re-runs — results are asserted
/// byte-identical across every phase, including post-kill. Series:
/// per-phase throughput and mean latency, the node count, and the
/// honestly costed rebalance time at each growth step.
///
/// [`FleetQPair::rebalance`]: farview_core::FleetQPair::rebalance
pub fn elasticity() -> Figure {
    elasticity_at(16_384, 12)
}

/// [`elasticity`] at its smallest config (the `figures smoke` gate).
pub fn elasticity_smoke() -> Figure {
    elasticity_at(2_048, 4)
}

fn elasticity_at(rows: usize, queries_per_phase: usize) -> Figure {
    let mut f = Figure::new(
        "elasticity",
        "Elastic fleet: 2 -> 4 -> 8 node growth + node kill at r=2",
        "phase (0..2 growth, 3 post-kill)",
        "throughput [q/s] · latency [us] · nodes",
    );
    // Scan-heavy mix: full reads and selections, the shapes whose
    // latency is dominated by the per-shard stream + wire — exactly
    // where shard parallelism pays.
    let table = TableGen::new(8, rows)
        .seed(41)
        .distinct_column(0, 32)
        .selectivity_column(1, 0.5)
        .sequential_column(2)
        .build();
    let specs: Vec<PipelineSpec> = (0..queries_per_phase)
        .map(|i| match i % 4 {
            0 => PipelineSpec::passthrough(),
            1 => tenant_query_spec(&TenantQuery::Select { selectivity: 0.75 }),
            2 => tenant_query_spec(&TenantQuery::Select { selectivity: 0.5 }),
            _ => tenant_query_spec(&TenantQuery::Select { selectivity: 0.25 }),
        })
        .collect();

    let fleet = FarviewFleet::new(ELASTICITY_PHASES[0], FarviewConfig::default());
    let qp = fleet.connect().expect("a region on every node");
    let (mut ft, _) = qp
        .load_table_replicated(&table, Partitioning::RowRange, 2)
        .expect("buffer pool space for two replicas per shard");

    let run_phase = |ft: &farview_core::FleetTable| {
        let mut busy = SimDuration::ZERO;
        let mut payloads = Vec::with_capacity(specs.len());
        for spec in &specs {
            let out = qp.far_view(ft, spec).expect("fleet query");
            busy += out.merged.stats.response_time;
            payloads.push(out.merged.payload);
        }
        (busy, payloads)
    };

    let mut nodes_series = Vec::new();
    let mut throughput = Vec::new();
    let mut mean_latency = Vec::new();
    let mut rebalance_us = Vec::new();
    let mut reference: Option<Vec<Vec<u8>>> = None;

    let mut phase_idx = 0f64;
    for (i, &nodes) in ELASTICITY_PHASES.iter().enumerate() {
        if i > 0 {
            while fleet.node_count() < nodes {
                fleet.add_node();
            }
            let (new_ft, report) = qp.rebalance(&ft).expect("live rebalance");
            qp.free_table(std::mem::replace(&mut ft, new_ft))
                .expect("retire the old epoch");
            rebalance_us.push((phase_idx, us(report.total_time())));
            assert!(report.moved_rows > 0, "growth must move shards");
        }
        let (busy, payloads) = run_phase(&ft);
        match &reference {
            None => reference = Some(payloads),
            Some(r) => assert_eq!(
                r, &payloads,
                "rebalancing to {nodes} nodes changed query results"
            ),
        }
        nodes_series.push((phase_idx, nodes as f64));
        throughput.push((phase_idx, specs.len() as f64 / busy.as_secs_f64()));
        mean_latency.push((phase_idx, us(busy) / specs.len() as f64));
        phase_idx += 1.0;
    }

    // Kill one node at the 8-node shape: every shard keeps a surviving
    // replica, so the mix stays answerable and byte-identical.
    let victim = fleet.node_ids()[0];
    fleet.remove_node(victim).expect("kill a live node");
    let (busy, payloads) = run_phase(&ft);
    assert_eq!(
        reference.as_ref().expect("phases ran"),
        &payloads,
        "a single node kill at r=2 must not change any result"
    );
    nodes_series.push((phase_idx, (fleet.node_count()) as f64));
    throughput.push((phase_idx, specs.len() as f64 / busy.as_secs_f64()));
    mean_latency.push((phase_idx, us(busy) / specs.len() as f64));

    qp.free_table(ft).expect("free");
    f.push_series("nodes", nodes_series);
    f.push_series("throughput [q/s]", throughput);
    f.push_series("mean latency [us]", mean_latency);
    f.push_series("rebalance [us]", rebalance_us);
    f
}

/// Every custom experiment at its smallest config, plus one cheap paper
/// figure — the `figures smoke` / `just bench-smoke` CI gate that keeps
/// `elasticity` and `plan_ablation` (and the rest of the harness) from
/// silently rotting.
pub fn smoke_figures() -> Vec<Figure> {
    vec![
        fig6a(),
        scaleout_smoke(),
        qdepth_smoke(),
        plan_ablation_smoke(),
        elasticity_smoke(),
        crate::chaos::chaos_smoke(),
        crate::overload::overload_smoke(),
    ]
}

/// Render `explain()` output for the standard figure queries — what
/// `just explain` (and `figures explain`) prints.
pub fn explain_figures() -> String {
    let mut out = String::new();
    let mut push = |title: &str, plan: &QueryPlan, schema: &Schema, rows: u64| {
        let ex = plan.explain(schema, rows).expect("explain");
        out.push_str(&format!("== {title} ==\n{ex}\n"));
    };
    let wide = Schema::uniform_u64(64); // fig7's 512 B tuples
    let paper = Schema::uniform_u64(8); // the paper-default 64 B tuples

    push(
        "fig7: SELECT c8,c9,c10 (512 B tuples)",
        &QueryPlan::from_spec(
            &PipelineSpec::passthrough().project(vec![8, 9, 10]),
            PlanTarget::Single,
        ),
        &wide,
        16_384,
    );
    push(
        "fig8: SELECT * WHERE a < X AND b < Y",
        &QueryPlan::from_spec(
            &PipelineSpec::passthrough().filter(
                PredicateExpr::lt(0, SELECTIVITY_PIVOT)
                    .and(PredicateExpr::lt(1, SELECTIVITY_PIVOT)),
            ),
            PlanTarget::Single,
        ),
        &paper,
        16_384,
    );
    push(
        "fig8 + projection: SELECT c0,c1 WHERE a < X",
        &QueryPlan::from_spec(
            &PipelineSpec::passthrough()
                .filter(PredicateExpr::lt(0, SELECTIVITY_PIVOT))
                .project(vec![0, 1]),
            PlanTarget::Single,
        ),
        &paper,
        16_384,
    );
    push(
        "fig9a: SELECT DISTINCT c0",
        &QueryPlan::from_spec(
            &PipelineSpec::passthrough().distinct(vec![0]),
            PlanTarget::Single,
        ),
        &paper,
        16_384,
    );
    push(
        "fig9b: SELECT c0, SUM(c1) GROUP BY c0",
        &QueryPlan::from_spec(
            &PipelineSpec::passthrough().group_by(
                vec![0],
                vec![AggSpec {
                    col: 1,
                    func: AggFunc::Sum,
                }],
            ),
            PlanTarget::Single,
        ),
        &paper,
        16_384,
    );
    push(
        "scaleout: GROUP BY AVG over 8 hash shards",
        &QueryPlan::from_spec(
            &PipelineSpec::passthrough().group_by(
                vec![0],
                vec![AggSpec {
                    col: 2,
                    func: AggFunc::Avg,
                }],
            ),
            PlanTarget::Fleet {
                shards: 8,
                partitioning: Partitioning::KeyHash(0),
            },
        ),
        &paper,
        16_384,
    );
    push(
        "qdepth: depth-8 doorbell batch of selections",
        &QueryPlan::from_spec(
            &PipelineSpec::passthrough().filter(PredicateExpr::lt(1, SELECTIVITY_PIVOT)),
            PlanTarget::Batch { depth: 8 },
        ),
        &paper,
        256,
    );
    push(
        "tiered: cold passthrough read staged from storage",
        &QueryPlan::from_spec(
            &PipelineSpec::passthrough(),
            PlanTarget::Tiered {
                residency: TierLevel::Disk,
            },
        ),
        &paper,
        16_384,
    );
    out
}

/// Every figure in evaluation order (the `figures all` command), plus
/// the scale-out experiment.
pub fn all_figures() -> Vec<Figure> {
    vec![
        fig6a(),
        fig6b(),
        fig7(),
        fig8(1.0),
        fig8(0.5),
        fig8(0.25),
        fig9a(),
        fig9b(),
        fig9c(),
        fig10(),
        fig11a(),
        fig11b(),
        fig12(),
        scaleout(),
        qdepth(),
        plan_ablation(),
        elasticity(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claims of each figure, asserted on the reproduced
    /// data. These are the "shape" checks DESIGN.md promises.
    #[test]
    fn fig6_shapes() {
        let a = fig6a();
        let fv = &a.series("FV").unwrap().points;
        let rnic = &a.series("RNIC").unwrap().points;
        // RNIC better below 4 kB; FV better at 32 kB.
        assert!(rnic[2].1 > fv[2].1, "RNIC must win at 512 B");
        assert!(
            fv.last().unwrap().1 > rnic.last().unwrap().1,
            "FV wins at 32 kB"
        );
        let b = fig6b();
        let fv = &b.series("FV").unwrap().points;
        let rnic = &b.series("RNIC").unwrap().points;
        assert!(rnic[0].1 < fv[0].1, "RNIC lower response at 512 B");
        assert!(
            fv.last().unwrap().1 < rnic.last().unwrap().1,
            "FV lower at 32 kB"
        );
    }

    #[test]
    fn fig7_ordering() {
        // §6.3: whole-row reads win for 256 B tuples; smart addressing
        // wins for 512 B tuples. So at every point:
        //   FV-t256B < FV-SA < FV-t512B.
        let f = fig7();
        let sa = &f.series("FV-SA").unwrap().points;
        let t256 = &f.series("FV-t256B").unwrap().points;
        let t512 = &f.series("FV-t512B").unwrap().points;
        for i in 2..sa.len() {
            assert!(
                t256[i].1 < sa[i].1,
                "t256 must beat SA at {} tuples",
                sa[i].0
            );
            assert!(
                sa[i].1 < t512[i].1,
                "SA must beat t512 at {} tuples",
                sa[i].0
            );
        }
    }

    #[test]
    fn fig8c_ordering() {
        let f = fig8(0.25);
        let last = |name: &str| f.series(name).unwrap().points.last().unwrap().1;
        // At 1 MB / 25%: FV-V < FV < LCPU < RCPU (Figure 8(c)).
        assert!(last("FV-V") < last("FV"));
        assert!(last("FV") < last("LCPU"));
        assert!(last("LCPU") < last("RCPU"));
    }

    #[test]
    fn fig9a_baselines_blow_up() {
        let f = fig9a();
        let last = |name: &str| f.series(name).unwrap().points.last().unwrap().1;
        assert!(
            last("LCPU") > 3.0 * last("FV"),
            "baselines must climb steeply"
        );
        assert!(last("RCPU") > last("LCPU"));
    }

    #[test]
    fn fig11b_no_decrypt_penalty() {
        let f = fig11b();
        let rd = &f.series("FV-RD").unwrap().points;
        let dec = &f.series("FV-RD+Dec").unwrap().points;
        for (a, b) in rd.iter().zip(dec) {
            let ratio = a.1 / b.1;
            assert!(
                (0.95..1.05).contains(&ratio),
                "decrypt must be free: {ratio}"
            );
        }
    }

    #[test]
    fn table1_renders() {
        let t = table1();
        assert!(t.contains("6 regions"));
        assert!(t.contains("Distinct/Group by"));
    }

    #[test]
    fn scaleout_reports_every_fleet_size_and_scales() {
        let f = scaleout();
        let tp = &f.series("throughput [q/s]").unwrap().points;
        let p99 = &f.series("p99 [us]").unwrap().points;
        assert_eq!(
            tp.iter().map(|p| p.0 as usize).collect::<Vec<_>>(),
            FLEET_SIZES.to_vec()
        );
        assert_eq!(p99.len(), FLEET_SIZES.len());
        // Scatter-gather must pay off: 8 nodes beat 1 node on both
        // throughput and tail latency.
        assert!(
            tp.last().unwrap().1 > 1.5 * tp[0].1,
            "8-node throughput {} must clearly beat 1-node {}",
            tp.last().unwrap().1,
            tp[0].1
        );
        assert!(p99.last().unwrap().1 < p99[0].1, "p99 must drop with nodes");
    }

    #[test]
    fn qdepth_batching_pays_and_stays_exact() {
        let f = qdepth();
        let tp = &f.series("throughput [q/s]").unwrap().points;
        let p50 = &f.series("p50 [us]").unwrap().points;
        assert_eq!(
            tp.iter().map(|p| p.0 as usize).collect::<Vec<_>>(),
            QUEUE_DEPTHS.to_vec()
        );
        // Acceptance: depth-8 throughput ≥ 1.5× depth-1 on the default
        // calibration (byte-identity is asserted inside qdepth()).
        let tp_at = |d: usize| {
            tp.iter()
                .find(|p| p.0 as usize == d)
                .expect("depth present")
                .1
        };
        assert!(
            tp_at(8) >= 1.5 * tp_at(1),
            "depth-8 throughput {} must be ≥ 1.5× depth-1 {}",
            tp_at(8),
            tp_at(1)
        );
        // Deeper batches trade per-query latency for throughput: p50 at
        // depth 16 must exceed the solo p50 (in-batch queueing is real).
        assert!(p50.last().unwrap().1 > p50[0].1);
        // And the first depth step already helps.
        assert!(tp_at(2) > tp_at(1));
    }

    #[test]
    fn plan_ablation_optimized_never_loses() {
        let f = plan_ablation();
        for q in ["select", "distinct", "group-by"] {
            let naive = &f.series(&format!("{q} naive")).unwrap().points;
            let opt = &f.series(&format!("{q} optimized")).unwrap().points;
            assert_eq!(naive.len(), opt.len());
            assert_eq!(naive.len(), ABLATION_SHARDS.len() * ABLATION_DEPTHS.len());
            for (a, b) in naive.iter().zip(opt) {
                assert!(
                    b.1 <= a.1 + 1e-9,
                    "{q} optimized slower at config {}: {} vs {} us",
                    a.0,
                    b.1,
                    a.1
                );
            }
        }
        // The projection workload must show a real smart-addressing win
        // somewhere in the sweep (512 B tuples are past the crossover).
        let naive = &f.series("select naive").unwrap().points;
        let opt = &f.series("select optimized").unwrap().points;
        assert!(
            opt.iter().zip(naive).any(|(b, a)| b.1 < 0.9 * a.1),
            "smart addressing should beat whole-row streaming clearly"
        );
    }

    #[test]
    fn elasticity_latency_strictly_improves_and_kill_is_survived() {
        let f = elasticity_smoke();
        let lat = &f.series("mean latency [us]").unwrap().points;
        let tp = &f.series("throughput [q/s]").unwrap().points;
        let nodes = &f.series("nodes").unwrap().points;
        let reb = &f.series("rebalance [us]").unwrap().points;
        assert_eq!(
            lat.len(),
            ELASTICITY_PHASES.len() + 1,
            "3 growth phases + post-kill"
        );
        assert_eq!(
            reb.len(),
            ELASTICITY_PHASES.len() - 1,
            "one rebalance per growth step"
        );
        // Acceptance: per-query latency strictly improves 2 -> 4 -> 8 on
        // the scan-heavy mix (byte-identity across phases is asserted
        // inside elasticity_at).
        for w in lat[..ELASTICITY_PHASES.len()].windows(2) {
            assert!(
                w[1].1 < w[0].1,
                "latency must strictly improve with nodes: {} -> {}",
                w[0].1,
                w[1].1
            );
        }
        assert!(
            tp.last().unwrap().1 > tp[0].1,
            "post-kill throughput still beats the 2-node phase"
        );
        // Rebalances are honestly costed, not free.
        assert!(reb.iter().all(|p| p.1 > 0.0));
        // The kill phase runs one node short of the last growth phase.
        assert_eq!(nodes.last().unwrap().1, 7.0);
    }

    #[test]
    fn smoke_covers_every_custom_experiment() {
        let names: Vec<String> = smoke_figures().into_iter().map(|f| f.id).collect();
        for needle in [
            "fig6a",
            "scaleout",
            "qdepth",
            "plan_ablation",
            "elasticity",
            "chaos",
            "overload",
        ] {
            assert!(names.iter().any(|n| n == needle), "smoke missing {needle}");
        }
    }

    #[test]
    fn explain_figures_renders_every_target() {
        let text = explain_figures();
        for needle in [
            "smart-addressing",
            "distinct-group-by-unification",
            "fleet[8 shards",
            "batch[depth=8]",
            "tiered[disk]",
            "rules applied",
        ] {
            assert!(text.contains(needle), "explain output missing {needle:?}");
        }
    }

    #[test]
    fn tenant_query_selectivity_thresholds() {
        // The lowering maps the three scenario selectivities onto
        // thresholds that actually select those fractions.
        let table = TableGen::new(8, 20_000)
            .seed(5)
            .selectivity_column(1, 0.5)
            .build();
        for frac in [0.25, 0.5, 0.75] {
            let spec = tenant_query_spec(&TenantQuery::Select { selectivity: frac });
            let c = cluster();
            let qp = c.connect().unwrap();
            let ft = load(&qp, &table);
            let out = qp.far_view(&ft, &spec).unwrap();
            let got = out.row_count() as f64 / 20_000.0;
            assert!(
                (got - frac).abs() < 0.02,
                "selectivity {frac} lowered to {got}"
            );
        }
    }
}
