//! Scatter–gather across a Farview fleet: shard one table over four
//! nodes, fan a query out as parallel per-shard episodes, and merge the
//! partial results client-side.
//!
//! ```text
//! cargo run --example fleet_scatter_gather
//! ```

use farview::prelude::*;
use farview_core::AggFunc;
use fv_pipeline::AggSpec;
use fv_workload::TableGen;

fn main() {
    // An 8 MB table: 8 × 8-byte attributes, 32 groups in column 0.
    let table = TableGen::paper_default(8 << 20)
        .seed(7)
        .distinct_column(0, 32)
        .build();

    // The single-node reference the fleet must agree with.
    let single = FarviewCluster::new(FarviewConfig::default());
    let sqp = single.connect().expect("region");
    let (sft, _) = sqp.load_table(&table).expect("space");
    let aggs = vec![AggSpec {
        col: 2,
        func: AggFunc::Sum,
    }];
    let reference = sqp.group_by(&sft, vec![0], aggs.clone()).expect("query");

    // A four-node fleet. `connect` binds one queue pair per node;
    // `load_table` scatters rows to their owning shards — here by
    // contiguous row ranges, which keeps merged results byte-identical
    // to the single node.
    let fleet = FarviewFleet::new(4, FarviewConfig::default());
    let qp = fleet.connect().expect("a region on every node");
    let (ft, write_time) = qp
        .load_table(&table, Partitioning::RowRange)
        .expect("buffer pool space on every shard");
    println!(
        "scattered {} rows over {} shards in {write_time} (rows/shard: {:?})",
        ft.row_count(),
        fleet.node_count(),
        ft.rows_per_shard(),
    );

    // GROUP BY fans out as four episodes, one per shard, concurrent on
    // the simulated clock; on the host the shard slots run in order on
    // the calling thread. Each shard computes partial aggregates and the
    // client re-aggregates them.
    let out = qp.group_by(&ft, vec![0], aggs).expect("fleet query");
    assert_eq!(
        out.merged.payload, reference.payload,
        "fleet merge must reproduce the single node byte-for-byte"
    );
    println!(
        "group-by over the fleet: {} groups in {} (merge {})",
        out.merged.row_count(),
        out.merged.stats.response_time,
        out.merge_time,
    );
    for (i, s) in out.per_shard.iter().enumerate() {
        println!(
            "  shard {i}: {:>8} tuples in, {:>3} groups flushed, {}",
            s.tuples_in, s.groups_flushed, s.response_time
        );
    }

    let speedup = reference.stats.response_time.as_nanos() as f64
        / out.merged.stats.response_time.as_nanos() as f64;
    println!(
        "single node: {}, 4-node fleet: {} -> {speedup:.2}x",
        reference.stats.response_time, out.merged.stats.response_time
    );
    assert!(speedup > 1.5, "scatter-gather must pay off on 8 MB");

    // Hash partitioning co-locates equal keys instead: every group is
    // computed whole on its owning shard (no cross-shard partials), at
    // the price of global row order.
    let (hashed, _) = qp
        .load_table(&table, Partitioning::KeyHash(0))
        .expect("space");
    let hout = qp.distinct(&hashed, vec![0]).expect("fleet distinct");
    println!(
        "hash-partitioned DISTINCT: {} keys, shards held {:?} rows",
        hout.merged.row_count(),
        hashed.rows_per_shard(),
    );
    assert_eq!(hout.merged.row_count(), 32);
}
