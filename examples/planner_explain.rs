//! The query planner's `explain()` output, and the optimizer actually
//! winning: lower a projection onto the unified `QueryPlan` IR, watch
//! the rule-based optimizer choose smart addressing from the calibrated
//! cost model, and verify the optimized plan is byte-identical and
//! faster when executed.
//!
//! ```text
//! cargo run --example planner_explain
//! ```
//!
//! (`just explain` dumps the same report for every standard figure
//! query.)

use farview::prelude::*;
use farview_core::PredicateExpr;

fn main() {
    // Figure 7's setting: 512 B tuples (64 × 8-byte columns), of which a
    // query wants three contiguous columns.
    let table = fv_workload::TableGen::new(64, 8192).seed(7).build();
    let spec = PipelineSpec::passthrough().project(vec![8, 9, 10]);

    // Lower the spec onto the planner IR and explain it: the cost model
    // estimates that gathering 24 projected bytes per tuple beats
    // streaming the whole 512 B row, so the smart-addressing rule fires.
    let plan = QueryPlan::from_spec(&spec, PlanTarget::Single);
    let explain = plan
        .explain(table.schema(), table.row_count() as u64)
        .expect("explain");
    println!("{explain}");

    // A logical plan written in SQL-ish order — filter *after* the
    // projection, over projected column indices — normalizes back onto
    // the one physical pipeline order.
    let logical = QueryPlan::new(PlanTarget::Single)
        .project(vec![8, 9, 10])
        .filter(PredicateExpr::lt(0, 1u64 << 62)); // projected c0 = base c8
    let explain = logical
        .explain(table.schema(), table.row_count() as u64)
        .expect("explain");
    println!("{explain}");

    // Now execute both the naive and the optimized projection plan and
    // compare.
    let cluster = FarviewCluster::new(FarviewConfig::default());
    let qp = cluster.connect().expect("a dynamic region is free");
    let (ft, _) = qp.load_table(&table).expect("buffer pool space");

    let naive = qp.far_view(&ft, &spec).expect("naive plan");
    // An optimized plan runs as the spec it lowers to.
    let lowered = plan
        .optimize(ft.schema())
        .and_then(|p| p.to_spec())
        .expect("the plan lowers");
    let optimized = qp.far_view(&ft, &lowered).expect("optimized plan");
    assert_eq!(
        optimized.payload, naive.payload,
        "optimization must be invisible in the bytes"
    );
    println!(
        "measured: naive {} -> optimized {}  ({} rows, byte-identical)",
        naive.stats.response_time,
        optimized.stats.response_time,
        optimized.row_count(),
    );
}
