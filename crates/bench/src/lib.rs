//! # fv-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§6). Each
//! returns a [`Figure`] (labelled series of points) that the `figures`
//! binary renders. Everything here runs on the **simulated** clock and
//! is deterministic — identical runs print identical bytes; host
//! wall-clock is measured in one place, `fvbench` (`benchmark/`).
//!
//! | paper | function | what it shows |
//! |---|---|---|
//! | Table 1 | [`table1`] | FPGA resource overhead |
//! | Fig 6(a) | [`fig6a`] | RDMA read throughput, FV vs RNIC |
//! | Fig 6(b) | [`fig6b`] | RDMA read response time, FV vs RNIC |
//! | Fig 7 | [`fig7`] | standard projection vs smart addressing |
//! | Fig 8(a–c) | [`fig8`] | selection at 100/50/25 % selectivity |
//! | Fig 9(a) | [`fig9a`] | DISTINCT vs table size |
//! | Fig 9(b) | [`fig9b`] | GROUP BY+SUM vs table size |
//! | Fig 9(c) | [`fig9c`] | GROUP BY+SUM vs group count |
//! | Fig 10 | [`fig10`] | regex matching vs string size |
//! | Fig 11(a) | [`fig11a`] | decrypt-read response time |
//! | Fig 11(b) | [`fig11b`] | read vs read+decrypt throughput |
//! | Fig 12 | [`fig12`] | six concurrent clients |
//!
//! Beyond the paper, [`scaleout`] sweeps a multi-node [`FarviewFleet`]
//! (1 → 8 nodes) under the multi-tenant scatter–gather mix from
//! `fv_workload::FleetScenarioGen`, reporting throughput and p50/p99
//! response time per node count; [`qdepth`] sweeps a closed-loop
//! client's queue depth (1 → 16) through doorbell-batched `farView`
//! submission, reporting throughput and p50/p99 per depth; and
//! [`plan_ablation`] pits the query planner's optimized plans against
//! naive ones across select/distinct/group-by × 1–8 shards × depth
//! 1–8 (optimized is never slower, results byte-identical);
//! [`elasticity`] grows a fleet 2 → 4 → 8 nodes under a scan-heavy mix
//! with a live rebalance between phases and a node kill survived via
//! `r = 2` replication (throughput/latency timeline + honestly costed
//! rebalance times, results byte-identical across every phase).
//! [`chaos()`] degrades one node of a replicated fleet behind each
//! seeded fault class (loss/retry, delay spikes, bandwidth cap,
//! partition, truncated doorbell), asserting
//! byte-identical results or clean typed errors and reporting p50/p99
//! tail latency per class (`figures chaos` also writes the
//! machine-readable `BENCH_PR6.json`).
//! [`overload()`] sweeps a heavy-tailed multi-tenant mix (with 4×
//! over-demanders) past saturation through the serving front end,
//! asserting graceful degradation at every point — goodput within 20 %
//! of peak past the knee, monotone rejections, bounded gold p99, no
//! starved tenant, fairness never falling with load (`figures
//! overload` also writes the machine-readable `BENCH_PR10.json`).
//! [`explain_figures`] renders the planner's `explain()` report for
//! every standard figure query (`figures explain` / `just explain`),
//! and [`smoke_figures`] runs every custom experiment at its smallest
//! config (`figures smoke` / `just bench-smoke` — the CI gate).
//!
//! [`FarviewFleet`]: farview_core::FarviewFleet

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod experiments;
pub mod figure;
pub mod overload;

pub use chaos::{chaos, chaos_report, chaos_smoke, fault_plan_for, ChaosClassStats, ChaosReport};
pub use experiments::*;
pub use figure::{Figure, Series};
pub use overload::{
    overload, overload_backend, overload_report, overload_smoke, serve_class, serve_tenants,
    OverloadReport, OVERLOAD_BENCH_SEED, OVERLOAD_LOADS,
};
