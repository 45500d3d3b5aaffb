//! The two passes over a workload: the untraced pass that produces the
//! end-to-end metrics, and the traced pass that produces the per-layer
//! ones.
//!
//! One process, one client thread, closed loop with one round
//! outstanding. (The fleet executor spawns its own scoped workers,
//! capped at `available_parallelism`; the harness adds none.)

use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{why, Better, END_TO_END, PER_LAYER};
use crate::probes::{sim_dispatch_ns_per_event, LayerNs};
use crate::stats::{median, median_sorted, run_tail, Tail};
use crate::trace::{Tracer, NO_ROUND};
use crate::workload::{warm_up, RoundSample, Scale, SimCounters, Workload, WARMUP_ROUNDS};
use crate::workloads::{with_workload, Kind};

/// How long a pass measures.
#[derive(Debug, Clone, Copy)]
pub enum Measure {
    /// A fixed number of rounds: identical work on both sides of a
    /// comparison (the native `run`).
    Rounds(usize),
    /// Whole rounds until the time is up (the driver's `--seconds`).
    Seconds(f64),
}

/// Result of the untraced pass.
#[derive(Debug, Clone)]
pub struct EndToEndResult {
    /// Every set-up's duration; `setup_s` is their median.
    pub setup_samples_s: Vec<f64>,
    pub rounds: usize,
    pub round_p50_us: f64,
    /// `round_p99_us`, or the highest percentile the sample supports.
    pub tail: Tail,
    pub scan_mib_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mib: f64,
    pub sim_us_per_query: f64,
    pub sim_events_per_query: f64,
    /// The per-round simulated counters (equal for every round).
    pub sim: SimCounters,
    /// Rounds whose counters differed from the warm-up reference.
    pub digest_mismatches: u64,
    pub measured_s: f64,
    pub params: Json,
    pub script_digest: u64,
}

impl EndToEndResult {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples_s)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digest_mismatches == 0
    }

    /// The value of end-to-end metric `name`.
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s(),
            "round_p50_us" => self.round_p50_us,
            "round_p99_us" => self.tail.value,
            "scan_mib_per_s" => self.scan_mib_per_s,
            "peak_rss_mib" => self.peak_rss_mib,
            "sim_us_per_query" => self.sim_us_per_query,
            "sim_events_per_query" => self.sim_events_per_query,
            "failed_share" => self.failed_share(),
            _ => f64::NAN,
        }
    }

    /// Samples behind metric `name`.
    pub fn samples(&self, name: &str) -> usize {
        match name {
            "setup_s" => self.setup_samples_s.len(),
            "peak_rss_mib" => 1,
            _ => self.rounds,
        }
    }

    /// The pass report: a workload's entry in a result file, before the
    /// traced pass adds `per_layer`.
    pub fn to_json(&self, workload: &str) -> Json {
        let metric = |name: &str, unit: &str, better: Better| {
            Json::obj()
                .set("value", self.metric(name))
                .set("unit", unit)
                .set("better", better.as_str())
                .set("samples", self.samples(name))
        };
        let end_to_end = END_TO_END
            .iter()
            .fold(Json::obj(), |o, m| {
                o.set(m.name, metric(m.name, m.unit, m.better))
            })
            .set(
                "failed_share",
                metric("failed_share", "ratio", Better::Lower),
            );
        Json::obj()
            .set("name", workload)
            .set("why", why(workload))
            .set("params", self.params.clone())
            .set("script_digest", format!("{:016x}", self.script_digest))
            .set("rounds", self.rounds)
            .set("warmup_rounds", WARMUP_ROUNDS)
            .set("measured_s", self.measured_s)
            .set(
                "setup_samples_s",
                self.setup_samples_s
                    .iter()
                    .map(|s| Json::Num(*s))
                    .collect::<Vec<_>>(),
            )
            .set("end_to_end", end_to_end)
            .set("tail_pct", u64::from(self.tail.pct))
            .set("tail_samples_beyond", self.tail.beyond)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("digest_mismatches", self.digest_mismatches)
            .set("sim_digest", format!("{:016x}", self.sim.digest()))
            .set("sim_counters_per_round", self.sim.to_json())
    }
}

/// Result of the traced pass.
#[derive(Debug, Clone)]
pub struct PerLayerResult {
    pub traced_rounds: usize,
    pub untraced_rounds: usize,
    /// One value per [`PER_LAYER`] entry, in order.
    pub values: Vec<f64>,
    pub sim: SimCounters,
    pub attempted: u64,
    pub failed: u64,
    pub digest_mismatches: u64,
    pub spans: usize,
}

impl PerLayerResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digest_mismatches == 0
    }

    /// The traced pass's report.
    pub fn to_json(&self) -> Json {
        let per_layer = PER_LAYER
            .iter()
            .zip(&self.values)
            .fold(Json::obj(), |o, (p, v)| {
                o.set(
                    p.name,
                    Json::obj()
                        .set("value", *v)
                        .set("unit", p.unit)
                        .set("better", p.better.as_str()),
                )
            });
        Json::obj()
            .set("traced_rounds", self.traced_rounds)
            .set("untraced_rounds", self.untraced_rounds)
            .set("spans", self.spans)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("digest_mismatches", self.digest_mismatches)
            .set("sim_digest", format!("{:016x}", self.sim.digest()))
            .set("per_layer", per_layer)
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Running totals over measured rounds.
#[derive(Default)]
struct Totals {
    host_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    scan_bytes: u64,
    sim_ns: u64,
    sim_queries: u64,
    events: u64,
    executed: u64,
    digest_mismatches: u64,
}

impl Totals {
    fn add(&mut self, s: &RoundSample, reference: &SimCounters) {
        self.host_ns.push(s.host_ns as f64);
        self.attempted += s.attempted;
        self.failed += s.failed;
        self.scan_bytes += s.scan_bytes;
        self.sim_ns += s.sim.sim_ns;
        self.sim_queries += s.sim.sim_queries;
        self.events += s.sim.events;
        self.executed += s.sim.executed;
        // A failed query is already counted; the determinism guard is
        // about rounds that *succeeded* and still moved the simulator.
        if s.failed == 0 && s.sim != *reference {
            self.digest_mismatches += 1;
        }
    }
}

/// What runs on a set-up workload: it gets the workload, the warm-up's
/// reference counters and the seconds set-up took.
type Body<'a, R> = &'a mut dyn FnMut(&mut dyn Workload, SimCounters, f64) -> Result<R, String>;

/// Set the workload up once (tables, nodes, load, warm-up, oracle
/// verification) and hand it over with the time that took.
fn set_up_timed<R>(kind: Kind, seed: u64, scale: Scale, body: Body<'_, R>) -> Result<R, String> {
    let t0 = Instant::now();
    with_workload(kind, seed, scale, &mut |w| {
        let reference = warm_up(w)?;
        body(w, reference, t0.elapsed().as_secs_f64())
    })?
}

/// The untraced pass: `setups` full set-ups (all but the last torn down
/// again at once; `setup_s` is their median), then the measured rounds.
pub fn end_to_end(
    kind: Kind,
    seed: u64,
    scale: Scale,
    measure: Measure,
    setups: usize,
) -> Result<EndToEndResult, String> {
    let mut setup_samples_s = Vec::with_capacity(setups);
    for _ in 1..setups.max(1) {
        set_up_timed(kind, seed, scale, &mut |_, _, secs| {
            setup_samples_s.push(secs);
            Ok(())
        })?;
    }
    set_up_timed(kind, seed, scale, &mut |w, reference, secs| {
        setup_samples_s.push(secs);
        let mut tr = Tracer::new(false);
        let mut t = Totals::default();
        let start = Instant::now();
        loop {
            t.add(&w.round(&mut tr), &reference);
            let done = match measure {
                Measure::Rounds(n) => t.host_ns.len() >= n,
                Measure::Seconds(s) => start.elapsed() >= Duration::from_secs_f64(s),
            };
            if done {
                break;
            }
        }
        let measured_s = start.elapsed().as_secs_f64();
        let busy_s = t.host_ns.iter().sum::<f64>() / 1e9;
        let mut tail = run_tail(&t.host_ns);
        tail.value /= 1e3;
        t.host_ns.sort_by(f64::total_cmp);
        Ok(EndToEndResult {
            setup_samples_s: std::mem::take(&mut setup_samples_s),
            rounds: t.host_ns.len(),
            round_p50_us: median_sorted(&t.host_ns) / 1e3,
            tail,
            scan_mib_per_s: t.scan_bytes as f64 / (1024.0 * 1024.0) / busy_s,
            attempted: t.attempted,
            failed: t.failed,
            peak_rss_mib: peak_rss_mib(),
            sim_us_per_query: t.sim_ns as f64 / t.sim_queries.max(1) as f64 / 1e3,
            sim_events_per_query: t.events as f64 / t.executed.max(1) as f64,
            sim: reference,
            digest_mismatches: t.digest_mismatches,
            measured_s,
            params: w.params(),
            script_digest: w.script_digest(),
        })
    })
}

/// Rounds per block when the traced pass alternates recorded and
/// unrecorded blocks (so drift hits both sides of the overhead ratio).
const TRACE_BLOCK: usize = 20;

/// The traced pass: alternating blocks of untraced and traced rounds,
/// then the layer probes on the same tables and specs; the spans go to
/// `trace_path` when given.
pub fn per_layer(
    kind: Kind,
    seed: u64,
    scale: Scale,
    measure: Measure,
    trace_path: Option<&std::path::Path>,
) -> Result<PerLayerResult, String> {
    set_up_timed(kind, seed, scale, &mut |w, reference, _| {
        let mut tr = Tracer::new(false);
        let (mut plain, mut traced) = (Totals::default(), Totals::default());
        let block = match measure {
            Measure::Rounds(n) => n.div_ceil(4).clamp(1, TRACE_BLOCK),
            Measure::Seconds(_) => TRACE_BLOCK,
        };
        let start = Instant::now();
        let mut round_id = 0u32;
        loop {
            for recording in [false, true] {
                tr.set_enabled(recording);
                for _ in 0..block {
                    tr.set_round(round_id);
                    let s = w.round(&mut tr);
                    round_id += 1;
                    if recording { &mut traced } else { &mut plain }.add(&s, &reference);
                }
            }
            let done = match measure {
                Measure::Rounds(n) => traced.host_ns.len() >= n,
                Measure::Seconds(s) => start.elapsed() >= Duration::from_secs_f64(s),
            };
            if done {
                break;
            }
        }
        tr.set_enabled(true);
        tr.set_round(NO_ROUND);
        let costs = w.probe(&mut tr, scale.probe_reps())?;
        let dispatch_ns = sim_dispatch_ns_per_event(&mut tr, scale.probe_reps());

        let round_ns = median(&traced.host_ns);
        let overhead_pct = (round_ns / median(&plain.host_ns) - 1.0) * 100.0;
        let LayerNs {
            episode,
            net,
            pipeline,
            mem,
            plan_compile,
            fleet_merge,
            serve,
            tiered,
        } = costs.per_round;
        let pct = |ns: f64| ns / round_ns * 100.0;
        let attributed =
            episode + net + pipeline + mem + plan_compile + fleet_merge + serve + tiered;
        let derived = [
            ("pipeline.tuples_in", reference.tuples_in as f64),
            ("pipeline.tuples_out", reference.tuples_out as f64),
            ("net.packets", reference.packets as f64),
            ("net.wire_bytes", reference.wire_bytes as f64),
            ("episode.sim_events", reference.events as f64),
            ("sim.dispatch_ns_per_event", dispatch_ns),
            ("share.episode_pct", pct(episode)),
            ("share.net_pct", pct(net)),
            ("share.pipeline_pct", pct(pipeline)),
            ("share.mem_pct", pct(mem)),
            ("share.plan_compile_pct", pct(plan_compile)),
            ("share.fleet_merge_pct", pct(fleet_merge)),
            ("share.serve_pct", pct(serve)),
            ("share.tiered_pct", pct(tiered)),
            ("share.other_pct", 100.0 - pct(attributed)),
            ("trace.overhead_pct", overhead_pct),
        ];
        let values = PER_LAYER
            .iter()
            .map(|p| {
                derived
                    .iter()
                    .chain(&costs.metrics)
                    .find(|(n, _)| *n == p.name)
                    .map_or(0.0, |(_, v)| *v)
            })
            .collect();
        if let Some(path) = trace_path {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, tr.to_json(kind.name()).to_pretty())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(PerLayerResult {
            traced_rounds: traced.host_ns.len(),
            untraced_rounds: plain.host_ns.len(),
            values,
            sim: reference,
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            digest_mismatches: plain.digest_mismatches + traced.digest_mismatches,
            spans: tr.spans().len(),
        })
    })
}

/// The driver's result line for the untraced pass.
pub fn driver_line_end_to_end(r: &EndToEndResult) -> Json {
    let metrics = END_TO_END.iter().fold(Json::obj(), |o, e| {
        o.set(
            e.name,
            Json::obj()
                .set("value", r.metric(e.name))
                .set("unit", e.unit),
        )
    });
    Json::obj()
        .set("correct", r.correct())
        .set("attempted", r.attempted.max(1))
        .set("failed", r.failed + r.digest_mismatches)
        .set("metrics", metrics)
}

/// The driver's result line for the traced pass.
pub fn driver_line_per_layer(r: &PerLayerResult) -> Json {
    let metrics = PER_LAYER
        .iter()
        .zip(&r.values)
        .fold(Json::obj(), |o, (p, v)| {
            o.set(p.name, Json::obj().set("value", *v).set("unit", p.unit))
        });
    Json::obj()
        .set("correct", r.correct())
        .set("attempted", r.attempted.max(1))
        .set("failed", r.failed + r.digest_mismatches)
        .set("metrics", metrics)
}
