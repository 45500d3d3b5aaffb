//! Six tenants sharing one smart disaggregated memory (§6.8 / Figure 12):
//! each client gets its own dynamic region and queue pair; the DRR
//! arbiters fair-share the wire and the DRAM channels.
//!
//! Table *construction* runs on real host threads (one scoped thread
//! each); the six queries then execute concurrently inside one
//! simulation episode.
//!
//! ```text
//! cargo run --example multi_tenant
//! ```

use farview::prelude::*;
use farview_core::PipelineSpec;
use fv_baseline::BaselineKind;
use fv_data::Table;

const TENANTS: usize = 6;
const TABLE_BYTES: u64 = 1 << 20;

fn main() {
    let cluster = FarviewCluster::new(FarviewConfig::default());

    // Generate each tenant's table on its own thread.
    let mut tables: Vec<Option<Table>> = (0..TENANTS).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (i, slot) in tables.iter_mut().enumerate() {
            scope.spawn(move || {
                *slot = Some(
                    TableGen::paper_default(TABLE_BYTES)
                        .seed(1000 + i as u64)
                        .distinct_column(0, 32)
                        .build(),
                );
            });
        }
    });
    let tables: Vec<Table> = tables.into_iter().map(|t| t.expect("built")).collect();

    // One connection (dynamic region) per tenant.
    let qps: Vec<_> = (0..TENANTS)
        .map(|_| cluster.connect().expect("enough dynamic regions"))
        .collect();
    let fts: Vec<_> = qps
        .iter()
        .zip(&tables)
        .map(|(qp, t)| qp.load_table(t).expect("pool space").0)
        .collect();

    // All six run DISTINCT at the same instant.
    let spec = PipelineSpec::passthrough().distinct(vec![0]);
    let requests = qps
        .iter()
        .zip(&fts)
        .map(|(qp, ft)| (qp, ft, spec.clone()))
        .collect();
    let outcomes = cluster.run_concurrent(requests).expect("six tenants");

    println!("six concurrent DISTINCT queries over {TABLE_BYTES} B each:");
    let mut worst = fv_sim::SimDuration::ZERO;
    for (i, o) in outcomes.iter().enumerate() {
        println!(
            "  tenant {i}: {} rows in {}",
            o.row_count(),
            o.stats.response_time
        );
        worst = worst.max(o.stats.response_time);
    }
    println!("all tenants done after {worst}");

    // Fairness check: no tenant should lag far behind the pack.
    let best = outcomes
        .iter()
        .map(|o| o.stats.response_time)
        .min()
        .expect("six outcomes");
    let skew = worst.as_nanos() as f64 / best.as_nanos() as f64;
    println!("fair-sharing skew (worst/best): {skew:.2}x");
    assert!(
        skew < 1.3,
        "DRR must keep tenants within ~30% of each other"
    );

    // The CPU comparison: six MPI-style processes on one socket contend
    // for DRAM and caches instead of being spatially isolated.
    let lcpu = CpuEngine::with_processes(BaselineKind::Lcpu, TENANTS).distinct(&tables[0], &[0]);
    println!("LCPU six-process equivalent: {}", lcpu.time);
}
