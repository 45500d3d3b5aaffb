//! The `chaos` experiment: tail latency under deterministic fault
//! injection across the fleet datapath.
//!
//! Every other experiment measures the healthy datapath. This one
//! degrades it on purpose: one node of a replicated three-node fleet
//! runs behind a seeded [`FaultPlan`] — packet loss with bounded
//! retry/backoff, delay spikes, a bandwidth cap, a full partition, a
//! truncated doorbell batch — and the same query mix re-runs under
//! each fault class. The chaos invariant is asserted on **every**
//! query: the merged result is byte-identical to the healthy
//! baseline's, or the run surfaces a clean typed [`FvError`] — never
//! a wrong answer, never a panic. Non-survivable classes (partition,
//! truncated doorbell) additionally run an *unreplicated* probe whose
//! only acceptable outcome is that typed error.
//!
//! `figures chaos` renders the per-class p50/p99 tail-latency figure
//! **and** writes the machine-readable `BENCH_PR6.json`.
//!
//! [`FvError`]: farview_core::FvError

use farview_core::{
    AggFunc, AggSpec, FarviewConfig, FarviewFleet, FaultPlan, Partitioning, PipelineSpec,
    PredicateExpr,
};
use fv_data::Table;
use fv_sim::{Histogram, SimDuration};
use fv_workload::{FaultSpec, TableGen, SELECTIVITY_PIVOT};

use crate::figure::Figure;

/// Fleet size every chaos class runs on.
pub(crate) const CHAOS_NODES: usize = 3;

/// Replicas per shard in the survivable runs (`r = 2` makes even a
/// full partition byte-identical via replica failover).
pub(crate) const CHAOS_REPLICAS: usize = 2;

/// Default seed for the full-size run (`figures chaos`).
pub(crate) const CHAOS_BENCH_SEED: u64 = 0xC4A0_55EE;

/// Lower an engine-independent [`FaultSpec`] (integer percents, from
/// `fv_workload`) to the network layer's [`FaultPlan`], seeded so the
/// degradation replays identically run over run.
pub fn fault_plan_for(spec: &FaultSpec, seed: u64) -> FaultPlan {
    let base = FaultPlan::none().with_seed(seed);
    match *spec {
        FaultSpec::Loss {
            loss_pct,
            max_retries,
        } => base.with_loss_retries(f64::from(loss_pct) / 100.0, max_retries),
        FaultSpec::DelaySpikes {
            spike_pct,
            spike_us,
        } => base.with_delay_spikes(
            f64::from(spike_pct) / 100.0,
            SimDuration::from_micros(u64::from(spike_us)),
        ),
        FaultSpec::BandwidthCap { cap_pct } => base.with_bandwidth_cap(f64::from(cap_pct) / 100.0),
        FaultSpec::Partition => base.partitioned(),
        FaultSpec::TruncateDoorbell { deliver } => base.with_doorbell_truncation(deliver),
    }
}

/// One fault class's measurement.
#[derive(Debug, Clone)]
pub struct ChaosClassStats {
    /// Stable class name (`clean`, `loss`, …, `truncated_doorbell`).
    pub class: String,
    /// Queries run on the replicated (`r = 2`) fleet.
    pub queries: usize,
    /// Queries whose merged result was byte-identical to the healthy
    /// baseline (must equal `queries` — asserted, not just reported).
    pub ok: usize,
    /// Error batches on the unreplicated (`r = 1`) probe — the clean
    /// typed failures of the non-survivable classes. Zero for classes
    /// that survive without replication.
    pub typed_errors: usize,
    /// Median simulated response time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile simulated response time, microseconds.
    pub p99_us: f64,
}

/// The full chaos measurement: what `BENCH_PR6.json` records.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed driving every fault draw (the run replays from it).
    pub seed: u64,
    /// Rows in the sharded table.
    pub rows: usize,
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Replicas per shard in the survivable runs.
    pub replicas: usize,
    /// Per-class samples, `clean` first.
    pub classes: Vec<ChaosClassStats>,
}

impl ChaosReport {
    /// Serialize as pretty JSON (hand-rolled — the offline build has no
    /// `serde_json`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"chaos\",\n");
        out.push_str(
            "  \"units\": {\"latency\": \"us (simulated merged response time)\", \"typed_errors\": \"error batches on the unreplicated probe\"},\n",
        );
        out.push_str("  \"invariant\": \"byte-identical to the healthy baseline or a clean typed error, never a wrong answer, never a panic\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"rows\": {},\n", self.rows));
        out.push_str(&format!("  \"nodes\": {},\n", self.nodes));
        out.push_str(&format!("  \"replicas\": {},\n", self.replicas));
        out.push_str("  \"classes\": [\n");
        for (i, c) in self.classes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"class\": \"{}\", \"queries\": {}, \"ok\": {}, \"typed_errors\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}{}\n",
                c.class,
                c.queries,
                c.ok,
                c.typed_errors,
                c.p50_us,
                c.p99_us,
                if i + 1 == self.classes.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render as a [`Figure`] (x = fault-class index, named in the
    /// title).
    pub fn to_figure(&self) -> Figure {
        let names: Vec<String> = self
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{i}={}", c.class))
            .collect();
        let mut f = Figure::new(
            "chaos",
            &format!(
                "Tail latency per fault class ({}), one degraded node of {}, r = {}",
                names.join(" "),
                self.nodes,
                self.replicas
            ),
            "fault class index",
            "latency [us] · error batches",
        );
        f.push_series(
            "p50 [us]",
            self.classes
                .iter()
                .enumerate()
                .map(|(i, c)| (i as f64, c.p50_us))
                .collect(),
        );
        f.push_series(
            "p99 [us]",
            self.classes
                .iter()
                .enumerate()
                .map(|(i, c)| (i as f64, c.p99_us))
                .collect(),
        );
        f.push_series(
            "typed errors (r=1 probe)",
            self.classes
                .iter()
                .enumerate()
                .map(|(i, c)| (i as f64, c.typed_errors as f64))
                .collect(),
        );
        f
    }
}

/// The query mix every class replays: selection, distinct, group-by —
/// the three merge shapes the fleet's scatter–gather supports.
fn chaos_specs() -> Vec<PipelineSpec> {
    vec![
        PipelineSpec::passthrough().filter(PredicateExpr::lt(1, SELECTIVITY_PIVOT)),
        PipelineSpec::passthrough().distinct(vec![0]),
        PipelineSpec::passthrough().group_by(
            vec![0],
            vec![AggSpec {
                col: 2,
                func: AggFunc::Sum,
            }],
        ),
    ]
}

/// Run `reps` batches of the query mix on a replicated fleet with one
/// degraded node, asserting byte-identity against `oracle` (when
/// given). Returns the first batch's payloads plus the class stats.
fn run_class(
    class: &str,
    table: &Table,
    specs: &[PipelineSpec],
    reps: usize,
    fault: Option<&FaultPlan>,
    oracle: Option<&[Vec<u8>]>,
) -> (Vec<Vec<u8>>, ChaosClassStats) {
    let fleet = FarviewFleet::new(CHAOS_NODES, FarviewConfig::default());
    let qp = fleet.connect().expect("a region on every node");
    let (ft, _) = qp
        .load_table_replicated(table, Partitioning::RowRange, CHAOS_REPLICAS)
        .expect("buffer pool space");
    if let Some(plan) = fault {
        let victim = fleet.node_ids()[0];
        fleet
            .degrade_node(victim, plan.clone())
            .expect("victim is in the roster");
    }
    let mut hist = Histogram::new();
    let mut queries = 0usize;
    let mut ok = 0usize;
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for rep in 0..reps {
        let outs = qp
            .far_view_batch(&ft, specs)
            .unwrap_or_else(|e| panic!("{class}: replicated run must survive, got {e}"));
        for (i, o) in outs.iter().enumerate() {
            queries += 1;
            hist.record_duration(o.merged.stats.response_time);
            if let Some(oracle) = oracle {
                assert_eq!(
                    o.merged.payload, oracle[i],
                    "{class}: degraded result diverged from the healthy baseline \
                     (query {i}, rep {rep})"
                );
            }
            ok += 1;
            if rep == 0 {
                payloads.push(o.merged.payload.clone());
            }
        }
    }
    let stats = ChaosClassStats {
        class: class.to_string(),
        queries,
        ok,
        typed_errors: 0,
        p50_us: hist.quantile(0.5).unwrap_or(0.0),
        p99_us: hist.quantile(0.99).unwrap_or(0.0),
    };
    (payloads, stats)
}

/// Unreplicated (`r = 1`) probe for the non-survivable classes: every
/// batch must come back as a clean typed error (the fleet has no
/// replica to fail over to). Returns the error-batch count.
fn typed_error_probe(
    class: &str,
    table: &Table,
    specs: &[PipelineSpec],
    reps: usize,
    plan: &FaultPlan,
) -> usize {
    let fleet = FarviewFleet::new(2, FarviewConfig::default());
    let qp = fleet.connect().expect("a region on every node");
    let (ft, _) = qp
        .load_table_replicated(table, Partitioning::RowRange, 1)
        .expect("buffer pool space");
    fleet
        .degrade_node(fleet.node_ids()[0], plan.clone())
        .expect("victim is in the roster");
    let mut errs = 0usize;
    for _ in 0..reps {
        match qp.far_view_batch(&ft, specs) {
            Ok(_) => panic!("{class}: unreplicated probe must fail typed, got a result"),
            Err(_) => errs += 1,
        }
    }
    errs
}

/// Run the full measurement at the given scale.
pub(crate) fn chaos_report_at(rows: usize, reps: usize, seed: u64) -> ChaosReport {
    let table = TableGen::new(8, rows)
        .seed(seed ^ 0x7AB1_E000)
        .distinct_column(0, 32)
        .selectivity_column(1, 0.5)
        .sequential_column(2)
        .build();
    let specs = chaos_specs();

    // Healthy baseline: the byte-identity oracle every degraded run is
    // checked against, and the figure's `clean` row.
    let (baseline, clean) = run_class("clean", &table, &specs, reps, None, None);
    let mut classes = vec![clean];

    for fault in FaultSpec::all_classes() {
        let plan = fault_plan_for(&fault, seed);
        let (_, mut stats) = run_class(
            fault.class_name(),
            &table,
            &specs,
            reps,
            Some(&plan),
            Some(&baseline),
        );
        if !fault.survivable_unreplicated() {
            stats.typed_errors = typed_error_probe(fault.class_name(), &table, &specs, reps, &plan);
        }
        classes.push(stats);
    }

    ChaosReport {
        seed,
        rows,
        nodes: CHAOS_NODES,
        replicas: CHAOS_REPLICAS,
        classes,
    }
}

/// The full-size chaos measurement (what `figures chaos` runs and
/// records into `BENCH_PR6.json`).
pub fn chaos_report() -> ChaosReport {
    chaos_report_at(8_192, 6, CHAOS_BENCH_SEED)
}

/// `chaos` as a figure.
pub fn chaos() -> Figure {
    chaos_report().to_figure()
}

/// [`chaos`] at its smallest config (the `figures smoke` gate — the
/// byte-identity and typed-error invariants at full coverage, tail
/// percentiles at token scale).
pub fn chaos_smoke() -> Figure {
    chaos_report_at(1_024, 2, CHAOS_BENCH_SEED).to_figure()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural shape of the smoke-scale report: the clean baseline
    /// and all five injectable classes — every query byte-identical, every non-survivable probe failing typed,
    /// JSON well-formed enough to name every field.
    #[test]
    fn chaos_report_is_complete() {
        let r = chaos_report_at(512, 1, 7);
        let names: Vec<&str> = r.classes.iter().map(|c| c.class.as_str()).collect();
        assert_eq!(
            names,
            [
                "clean",
                "loss",
                "delay_spike",
                "bandwidth_cap",
                "partition",
                "truncated_doorbell"
            ]
        );
        for c in &r.classes {
            assert_eq!(c.ok, c.queries, "{}: a degraded query diverged", c.class);
            assert!(c.queries > 0, "{}: nothing ran", c.class);
            assert!(
                c.p50_us > 0.0 && c.p99_us >= c.p50_us,
                "{}: bad tail",
                c.class
            );
            let survivable = !matches!(c.class.as_str(), "partition" | "truncated_doorbell");
            if survivable {
                assert_eq!(c.typed_errors, 0, "{}: unexpected probe errors", c.class);
            } else {
                assert!(c.typed_errors > 0, "{}: probe never failed typed", c.class);
            }
        }
        let json = r.to_json();
        for needle in [
            "\"bench\": \"chaos\"",
            "\"invariant\"",
            "\"class\": \"truncated_doorbell\"",
            "\"typed_errors\"",
            "\"p99_us\"",
        ] {
            assert!(json.contains(needle), "JSON missing {needle}");
        }
        let fig = r.to_figure();
        for series in ["p50 [us]", "p99 [us]", "typed errors (r=1 probe)"] {
            assert!(fig.series(series).is_some(), "figure missing {series}");
        }
    }

    /// The lowering preserves each class's semantics and the seed.
    #[test]
    fn fault_plans_lower_faithfully() {
        let loss = fault_plan_for(
            &FaultSpec::Loss {
                loss_pct: 20,
                max_retries: 32,
            },
            9,
        );
        assert_eq!(loss.seed, 9);
        assert!((loss.loss - 0.2).abs() < 1e-12);
        assert_eq!(loss.max_retries, 32);
        let cap = fault_plan_for(&FaultSpec::BandwidthCap { cap_pct: 25 }, 9);
        assert_eq!(cap.bandwidth_cap, Some(0.25));
        let part = fault_plan_for(&FaultSpec::Partition, 9);
        assert!(part.partitioned);
        let trunc = fault_plan_for(&FaultSpec::TruncateDoorbell { deliver: 1 }, 9);
        assert_eq!(trunc.truncate_doorbell, Some(1));
        let spike = fault_plan_for(
            &FaultSpec::DelaySpikes {
                spike_pct: 50,
                spike_us: 20,
            },
            9,
        );
        assert!((spike.delay_spike_prob - 0.5).abs() < 1e-12);
        assert_eq!(spike.delay_spike, SimDuration::from_micros(20));
    }
}
