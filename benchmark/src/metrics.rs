//! The benchmark's metric catalogue: every name, unit, direction and
//! regression bound. `BENCHMARK.json` at the repo root states the same
//! catalogue for the driver; a test keeps the two identical.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Simulated-clock metrics are deterministic: for the *same seed*
    /// two runs, two passes and two host-speed commits must agree
    /// exactly (`compare`/`selfcheck` enforce equality, not the bound —
    /// the bound only absorbs the data changing with the seed).
    pub exact_per_seed: bool,
}

use Better::{Higher, Lower};

/// The end-to-end metrics the driver gates on (`BENCHMARK.json`).
///
/// `failed_share` is reported in every result file and must be 0, but
/// it is not in this list: the driver's contract wants metrics that are
/// never 0 and carries failures in its own `failed`/`attempted` keys.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact_per_seed: false,
    },
    EndToEnd {
        name: "round_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.2,
        exact_per_seed: false,
    },
    EndToEnd {
        name: "round_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        exact_per_seed: false,
    },
    EndToEnd {
        name: "scan_mib_per_s",
        unit: "MiB/s",
        better: Higher,
        bound: 0.2,
        exact_per_seed: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.1,
        exact_per_seed: false,
    },
    EndToEnd {
        name: "sim_us_per_query",
        unit: "us",
        better: Lower,
        bound: 0.05,
        exact_per_seed: true,
    },
    EndToEnd {
        name: "sim_events_per_query",
        unit: "count",
        better: Lower,
        bound: 0.1,
        exact_per_seed: true,
    },
];

/// One per-layer metric (no bound: these explain, they do not gate).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric, in report order. A workload whose path does
/// not cross a layer reports that layer's metrics as 0.
pub const PER_LAYER: [PerLayer; 56] = [
    m("plan.optimize_ns", "ns", Lower),
    m("plan.shard_execution_ns", "ns", Lower),
    m("pipeline.compile_ns", "ns", Lower),
    m("pipeline.stream_ns_per_tuple", "ns", Lower),
    m("pipeline.tuples_in", "count", Lower),
    m("pipeline.tuples_out", "count", Lower),
    m("pipeline.batched_blocks", "count", Lower),
    m("crypto.ctr_ns_per_byte", "ns", Lower),
    m("mem.plan_bursts_ns_per_burst", "ns", Lower),
    m("mem.read_ns_per_kib", "ns", Lower),
    m("mem.write_ns_per_kib", "ns", Lower),
    m("mem.bursts", "count", Lower),
    m("mem.tlb_miss_ratio", "ratio", Lower),
    m("net.packetize_ns_per_packet", "ns", Lower),
    m("net.arbiter_ns_per_packet", "ns", Lower),
    m("net.reassemble_ns_per_packet", "ns", Lower),
    m("net.packets", "count", Lower),
    m("net.wire_bytes", "count", Lower),
    m("sim.dispatch_ns_per_event", "ns", Lower),
    m("episode.run_us", "us", Lower),
    m("episode.self_us", "us", Lower),
    m("episode.ns_per_sim_event", "ns", Lower),
    m("episode.sim_events", "count", Lower),
    m("cluster.far_view_us", "us", Lower),
    m("cluster.prepare_self_us", "us", Lower),
    m("fleet.far_view_us", "us", Lower),
    m("fleet.scatter_overhead_us", "us", Lower),
    m("fleet.workers", "count", Higher),
    m("merge.ns_per_row", "ns", Lower),
    m("merge.rows", "count", Lower),
    m("serve.run_us", "us", Lower),
    m("serve.backend_us", "us", Lower),
    m("serve.self_ns_per_offered", "ns", Lower),
    m("serve.offered", "count", Higher),
    m("serve.completed", "count", Higher),
    m("serve.rejected", "count", Lower),
    m("serve.shed", "count", Lower),
    m("serve.useful_ratio", "ratio", Higher),
    m("tiered.cold_query_us", "us", Lower),
    m("tiered.warm_query_us", "us", Lower),
    m("tiered.restage_us", "us", Lower),
    m("tiered.hit_ratio", "ratio", Higher),
    m("tiered.disk_reads", "count", Lower),
    m("tiered.far_spills", "count", Lower),
    m("data.colimage_encode_ns_per_kib", "ns", Lower),
    m("data.colimage_open_ns_per_kib", "ns", Lower),
    m("share.episode_pct", "%", Lower),
    m("share.net_pct", "%", Lower),
    m("share.pipeline_pct", "%", Lower),
    m("share.mem_pct", "%", Lower),
    m("share.plan_compile_pct", "%", Lower),
    m("share.fleet_merge_pct", "%", Lower),
    m("share.serve_pct", "%", Lower),
    m("share.tiered_pct", "%", Lower),
    m("share.other_pct", "%", Lower),
    m("trace.overhead_pct", "%", Lower),
];

/// One line per workload: why it exists (also in `BENCHMARK.json`).
pub fn why(workload: &str) -> &'static str {
    match workload {
        "scan_wire" => "depth-1 read/select50/star-join over 1 MiB on one node: result-heavy, thousands of packets and sim events, so episode+net+sim dominate and operators do little",
        "agg_batch" => "depth-8 doorbell batch of reductive specs + regex10 + decrypt-groupby on one node: few packets out, so pipeline streaming, mem read/burst planning and crypto dominate",
        "serve_fleet" => "ServeEngine past the knee over a 4-node r=2 fleet, 12 tenants x 64 KiB: per-query fixed costs (plan, compile, scatter, merge, serve bookkeeping) dominate",
        "tier_churn" => "TieredPool with 4 x 1 MiB tables and DRAM for 2: every miss runs image open + alloc + table_write + free, the only working set larger than the pool",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Kind;

    fn manifest() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn field<'a>(o: &'a Json, k: &str) -> &'a str {
        o.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {k}"))
    }

    #[test]
    fn manifest_lists_exactly_these_end_to_end_metrics() {
        let listed = manifest();
        let listed = listed.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (j, e) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), e.name);
            assert_eq!(field(j, "unit"), e.unit);
            assert_eq!(field(j, "better"), e.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(e.bound));
            assert!(e.bound <= 0.25);
        }
    }

    #[test]
    fn manifest_lists_exactly_these_per_layer_metrics() {
        let listed = manifest();
        let listed = listed.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (j, p) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), p.name);
            assert_eq!(field(j, "unit"), p.unit);
            assert_eq!(field(j, "better"), p.better.as_str());
        }
    }

    #[test]
    fn manifest_lists_the_four_workloads_with_their_reasons() {
        let listed = manifest();
        let listed = listed.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), Kind::ALL.len());
        for (j, k) in listed.iter().zip(Kind::ALL) {
            assert_eq!(field(j, "name"), k.name());
            assert_eq!(field(j, "why"), why(k.name()));
            assert!(why(k.name()).len() <= 200);
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        {
            assert!(name_ok(n), "{n}");
            assert!(unit_ok(u), "{u}");
            assert!(seen.insert(n), "{n} listed twice");
        }
    }
}
