//! What the four workloads have in common: the round contract, the
//! simulated-clock counters behind `sim_digest`, and payload checking.

use farview::core::{FarviewConfig, QueryOutcome, QueryStats};
use farview::pipeline::PipelineSpec;

use crate::json::Json;
use crate::probes::LayerCosts;
use crate::stats::{digest_u64s, Checksum};
use crate::trace::Tracer;

/// Bytes per DRAM channel on every node the benchmark builds. The
/// default 256 MiB made set-up swing 0.8–2.3 s run to run (first touch
/// of the cloned channel vectors); 64 MiB holds every workload with
/// room to spare and keeps `setup_s` usable.
pub const CHANNEL_BYTES: u64 = 64 * 1024 * 1024;

/// The node configuration of every workload.
pub fn node_config() -> FarviewConfig {
    FarviewConfig {
        channel_bytes: CHANNEL_BYTES,
        ..FarviewConfig::default()
    }
}

/// `node_config()` for result files.
pub fn node_config_json() -> Json {
    let c = node_config();
    Json::obj()
        .set("channels", c.channels)
        .set("channel_bytes", c.channel_bytes)
        .set("regions", c.regions)
        .set("credit_budget", u64::from(c.credit_budget))
        .set("tlb_entries", c.tlb_entries)
        .set("vector_lanes", c.vector_lanes)
        .set("fault", "benign")
}

/// Full size, or the token size of `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` rows at full scale, a sixteenth (at least 64) when smoking.
    pub fn rows(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 16).max(64),
        }
    }

    /// Repetitions of each layer probe (medians are taken over them).
    pub fn probe_reps(self) -> usize {
        match self {
            Scale::Full => 15,
            Scale::Smoke => 3,
        }
    }
}

/// Everything a round contributes on the simulated clock. Two rounds of
/// one workload must produce equal counters — the engine is
/// deterministic — so their digest is the "only the host got faster"
/// check: it must not move between passes, runs or host-speed PRs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Simulated nanoseconds charged to the round's queries: Σ
    /// `QueryStats::response_time` (`TierOutcome::total_time` on
    /// `tier_churn`); the engine horizon on `serve_fleet`.
    pub sim_ns: u64,
    /// Queries `sim_ns` is divided by for `sim_us_per_query` (executed
    /// queries; completed ones on `serve_fleet`).
    pub sim_queries: u64,
    /// Queries whose datapath ran (divisor of `sim_events_per_query`).
    pub executed: u64,
    pub events: u64,
    pub packets: u64,
    pub wire_bytes: u64,
    pub tuples_in: u64,
    pub tuples_out: u64,
    // Serve-loop counters (zero elsewhere).
    pub offered: u64,
    pub completed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub deadline_missed: u64,
    pub abandoned: u64,
    pub exec_failed: u64,
}

impl SimCounters {
    /// Account one executed query.
    pub fn add_query(&mut self, stats: &QueryStats) {
        self.executed += 1;
        self.events += stats.sim_events;
        self.packets += stats.packets;
        self.wire_bytes += stats.bytes_on_wire;
        self.tuples_in += stats.tuples_in;
        self.tuples_out += stats.tuples_out;
    }

    /// Account one executed query whose response time is also the
    /// round's simulated cost (every workload but `serve_fleet`).
    pub fn add_timed_query(&mut self, stats: &QueryStats, sim_ns: u64) {
        self.add_query(stats);
        self.sim_ns += sim_ns;
        self.sim_queries += 1;
    }

    fn fields(&self) -> [u64; 15] {
        [
            self.sim_ns,
            self.sim_queries,
            self.executed,
            self.events,
            self.packets,
            self.wire_bytes,
            self.tuples_in,
            self.tuples_out,
            self.offered,
            self.completed,
            self.rejected,
            self.shed,
            self.deadline_missed,
            self.abandoned,
            self.exec_failed,
        ]
    }

    pub fn digest(&self) -> u64 {
        digest_u64s(&self.fields())
    }

    pub fn to_json(self) -> Json {
        const NAMES: [&str; 15] = [
            "sim_ns",
            "sim_queries",
            "executed",
            "events",
            "packets",
            "wire_bytes",
            "tuples_in",
            "tuples_out",
            "offered",
            "completed",
            "rejected",
            "shed",
            "deadline_missed",
            "abandoned",
            "exec_failed",
        ];
        NAMES
            .iter()
            .zip(self.fields())
            .fold(Json::obj(), |o, (n, v)| o.set(n, v))
    }
}

/// One pass over a workload's script: the latency sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundSample {
    /// Host nanoseconds inside the system under test (the timed calls;
    /// the harness's own payload checks run outside the timers).
    pub host_ns: u64,
    /// Queries attempted.
    pub attempted: u64,
    /// Typed errors + checksum mismatches + serve abandoned /
    /// deadline-missed / exec-failed.
    pub failed: u64,
    /// Table bytes scanned by the queries that completed.
    pub scan_bytes: u64,
    pub sim: SimCounters,
}

impl RoundSample {
    /// Account one attempted query of `scan_bytes`: it completed when
    /// `out` is there and carries the payload `q` expects.
    pub fn record(&mut self, q: &Query, out: Option<&QueryOutcome>, scan_bytes: u64) {
        self.attempted += 1;
        match out {
            Some(out) if q.matches(&out.payload) => {
                self.scan_bytes += scan_bytes;
                self.sim
                    .add_timed_query(&out.stats, out.stats.response_time.as_nanos());
            }
            _ => self.failed += 1,
        }
    }
}

/// A set-up workload: tables generated, nodes built, data loaded,
/// warm-up done and every query shape verified against the oracle.
pub trait Workload {
    /// Run the script once. Every call into the system is bracketed by
    /// `tr` (which also is the timer), every payload is checked against
    /// its warm-up checksum.
    fn round(&mut self, tr: &mut Tracer) -> RoundSample;

    /// Time each layer's public functions on this workload's own tables
    /// and specs and return the per-round cost attributed to each layer.
    fn probe(&mut self, tr: &mut Tracer, reps: usize) -> Result<LayerCosts, String>;

    /// The exact parameters, for the result file.
    fn params(&self) -> Json;

    /// Digest of the script — every spec the round issues and the
    /// checksum its payload must have. A pure function of `--seed`: two
    /// result files of one seed must carry the same value.
    fn script_digest(&self) -> u64;
}

/// One query of a script: its spec and the checksum its payload must
/// have (taken from the oracle-verified warm-up payload).
#[derive(Debug, Clone)]
pub struct Query {
    pub name: &'static str,
    pub spec: PipelineSpec,
    pub expect: Checksum,
}

impl Query {
    /// A query whose expected checksum is still to be filled by
    /// [`verify_against_oracle`].
    pub fn new(name: &'static str, spec: PipelineSpec) -> Query {
        Query {
            name,
            spec,
            expect: Checksum { len: 0, fnv: 0 },
        }
    }

    /// Does `payload` match the warm-up value?
    pub fn matches(&self, payload: &[u8]) -> bool {
        Checksum::of(payload) == self.expect
    }

    /// This query's contribution to a [`Workload::script_digest`].
    pub fn digest_words(&self) -> [u64; 3] {
        [self.spec.fingerprint(), self.expect.len, self.expect.fnv]
    }
}

/// Warm-up check of one query shape: `payload` must equal the
/// `fv-baseline` oracle's bytes for `spec` over `table` exactly.
/// Returns the checksum later rounds are held to.
pub fn verify_against_oracle(
    what: &str,
    table: &farview::data::Table,
    spec: &PipelineSpec,
    payload: &[u8],
) -> Result<Checksum, String> {
    let want = crate::oracle::expected_payload(table, spec).map_err(|e| format!("{what}: {e}"))?;
    if want != payload {
        return Err(format!(
            "{what}: payload differs from the CpuEngine oracle ({} vs {} bytes)",
            payload.len(),
            want.len()
        ));
    }
    Ok(Checksum::of(payload))
}

/// Untimed warm-up rounds before anything is measured.
pub const WARMUP_ROUNDS: usize = 3;

/// Run the warm-up rounds and return the last one's counters: the
/// reference every measured round's `sim_digest` is compared to.
pub fn warm_up(w: &mut dyn Workload) -> Result<SimCounters, String> {
    let mut tr = Tracer::new(false);
    let mut last = RoundSample::default();
    for i in 0..WARMUP_ROUNDS {
        last = w.round(&mut tr);
        if last.failed > 0 {
            return Err(format!(
                "warm-up round {i}: {} of {} queries failed",
                last.failed, last.attempted
            ));
        }
    }
    Ok(last.sim)
}
