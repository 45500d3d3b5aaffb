//! The four workloads. Each stresses a different part of the stack so
//! that an optimisation has one workload that exercises its mechanism
//! and others on which the prediction is *no change*.

mod agg_batch;
mod scan_wire;
mod serve_fleet;
mod tier_churn;

use farview::pipeline::PipelineSpec;

use crate::probes::{self, LayerCosts, MemProbe, Resident, UnitCosts};
use crate::trace::Tracer;
use crate::workload::{Scale, Workload};

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanWire,
    AggBatch,
    ServeFleet,
    TierChurn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ScanWire,
        Kind::AggBatch,
        Kind::ServeFleet,
        Kind::TierChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ScanWire => "scan_wire",
            Kind::AggBatch => "agg_batch",
            Kind::ServeFleet => "serve_fleet",
            Kind::TierChurn => "tier_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Set `kind` up from `seed` (tables, nodes, load, warm-up, oracle
/// verification of every query shape) and hand the ready workload to
/// `f`. The closure shape lets a workload keep borrows between its own
/// parts (`TieredPool` borrows its `QPair`) without leaking anything:
/// everything is torn down when `f` returns.
pub fn with_workload<R>(
    kind: Kind,
    seed: u64,
    scale: Scale,
    f: &mut dyn FnMut(&mut dyn Workload) -> R,
) -> Result<R, String> {
    match kind {
        Kind::ScanWire => Ok(f(&mut scan_wire::ScanWire::set_up(seed, scale)?)),
        Kind::AggBatch => Ok(f(&mut agg_batch::AggBatch::set_up(seed, scale)?)),
        Kind::ServeFleet => Ok(f(&mut serve_fleet::ServeFleet::set_up(seed, scale)?)),
        Kind::TierChurn => tier_churn::with(seed, scale, f),
    }
}

/// Per-round totals of the single-node probes of a script: one
/// [`UnitCosts`] per distinct execution, weighted by how often the
/// round runs it.
#[derive(Default)]
pub(crate) struct SingleNodeTotals {
    units: Vec<(UnitCosts, f64)>,
}

impl SingleNodeTotals {
    /// Probe one execution shape that the round runs `count` times.
    pub fn probe(
        &mut self,
        tr: &mut Tracer,
        reps: usize,
        mem: &mut MemProbe,
        on: Resident<'_>,
        specs: &[PipelineSpec],
        count: f64,
    ) -> Result<UnitCosts, String> {
        let u = probes::unit_costs(tr, reps, mem, on, specs)?;
        self.units.push((u, count));
        Ok(u)
    }

    fn sum(&self, f: impl Fn(&UnitCosts) -> f64) -> f64 {
        self.units.iter().map(|(u, n)| f(u) * n).sum()
    }

    /// Write the `pipeline`/`mem`/`net`/`episode`/`cluster` metrics and
    /// the share attribution these probes support (`mem` is the stack
    /// they ran on, for its TLB counters).
    pub fn emit(&self, out: &mut LayerCosts, mem: &MemProbe) {
        let per = |total: f64, units: f64| if units > 0.0 { total / units } else { 0.0 };
        let tuples = self.sum(|u| u.tuples_in as f64);
        let bursts = self.sum(|u| u.bursts as f64);
        let packets = self.sum(|u| u.packets as f64);
        let events = self.sum(|u| u.sim_events as f64);
        let run = self.sum(|u| u.episode_run_ns);

        out.set("pipeline.compile_ns", self.sum(|u| u.compile_ns));
        out.set(
            "pipeline.stream_ns_per_tuple",
            per(self.sum(|u| u.stream_ns), tuples),
        );
        out.set(
            "pipeline.batched_blocks",
            self.sum(|u| u.batched_blocks as f64),
        );
        out.set(
            "mem.plan_bursts_ns_per_burst",
            per(self.sum(|u| u.plan_bursts_ns), bursts),
        );
        out.set(
            "mem.read_ns_per_kib",
            per(
                self.sum(|u| u.read_ns),
                self.sum(|u| u.read_bytes as f64) / 1024.0,
            ),
        );
        out.set("mem.bursts", bursts);
        out.set(
            "net.packetize_ns_per_packet",
            per(self.sum(|u| u.packetize_ns), packets),
        );
        out.set(
            "net.arbiter_ns_per_packet",
            per(self.sum(|u| u.arbiter_ns), packets),
        );
        out.set(
            "net.reassemble_ns_per_packet",
            per(self.sum(|u| u.reassemble_ns), packets),
        );
        out.set("episode.run_us", run / 1e3);
        out.set(
            "episode.self_us",
            self.sum(UnitCosts::episode_self_ns) / 1e3,
        );
        out.set("episode.ns_per_sim_event", per(run, events));
        out.set("cluster.far_view_us", self.sum(|u| u.far_view_ns) / 1e3);
        out.set(
            "cluster.prepare_self_us",
            self.sum(UnitCosts::cluster_self_ns) / 1e3,
        );
        out.set("mem.tlb_miss_ratio", mem.tlb_miss_ratio());
        for (u, n) in &self.units {
            out.per_round.add_unit(u, *n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script_digest(kind: Kind, seed: u64) -> u64 {
        with_workload(kind, seed, Scale::Smoke, &mut |w| w.script_digest())
            .unwrap_or_else(|e| panic!("{} failed to set up: {e}", kind.name()))
    }

    /// Same seed, same specs and same expected payloads; another seed,
    /// other data. (Set-up also runs the oracle gate, so this doubles
    /// as a token-scale correctness test of every query shape.)
    #[test]
    fn each_script_is_a_pure_function_of_the_seed() {
        for kind in Kind::ALL {
            assert_eq!(
                script_digest(kind, 11),
                script_digest(kind, 11),
                "{}",
                kind.name()
            );
            assert_ne!(
                script_digest(kind, 11),
                script_digest(kind, 12),
                "{}",
                kind.name()
            );
        }
    }
}
