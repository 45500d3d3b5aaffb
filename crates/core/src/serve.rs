//! Overload-safe multi-tenant serving front end.
//!
//! The paper's buffer pool is *shared*: "multiple compute nodes" open
//! connections against one Farview deployment (§4.1), and §4.3's
//! arbiters exist precisely so "any malevolent behaviour by any of the
//! users" cannot stall the system. This module models the layer above
//! the queue pairs — a serving front end that multiplexes a heavy-tailed
//! population of closed-loop tenants onto a small pool of pipeline
//! servers, and keeps its guarantees *past* saturation:
//!
//! * **Admission control** — a per-tenant token bucket plus a global
//!   queue-depth watermark ladder turn overload into rejections
//!   (counted in [`ServeReport::rejected`]) instead of unbounded
//!   queueing. Each class admits up to its own fraction of the queue
//!   (bronze half, silver three quarters, gold all of it) and keeps a
//!   small reserved lane so no class can be locked out entirely.
//! * **Backpressure with bounded retry** — rejected work retries with
//!   capped exponential backoff (the same doubling-then-saturating
//!   discipline as `fv_net`'s `FaultInjector`), honouring the server's
//!   `retry_after` hint; retries are bounded, and a query past its
//!   deadline is dropped whole and counted in
//!   [`ServeReport::deadline_missed`] rather than run late.
//! * **Tenant-fair scheduling** — deficit round robin over tenant
//!   flows, cost-weighted by each tenant's scan bytes: the shard-side
//!   occupancy analogue of the byte-fair egress arbiter. One elephant
//!   cannot starve the mice.
//! * **Graceful degradation** — at absolute capacity a higher-class
//!   arrival sheds the youngest lowest-class queued query (counted in
//!   [`ServeReport::shed`]); shedding drops whole queries, never
//!   parts of results, so every query that *does* complete is
//!   byte-identical to an unloaded single-node run.
//!
//! The engine is a discrete-event simulation over virtual
//! [`SimTime`], deterministic from [`ServeConfig::seed`]: the same
//! tenants, config, and backend replay the same admissions, sheds, and
//! latencies, so any fairness violation is exactly reproducible.
//!
//! Admitted queries run on a [`ServeBackend`]: a [`TenantBackend`] with
//! every tenant's table resident behind one [`Conn`] — one node or a
//! fleet — or a [`TieredPool`](crate::TieredPool) over any `Conn`, which
//! stages tenants' tables in from storage as they are queried.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use fv_pipeline::PipelineSpec;
use fv_sim::{Histogram, SimDuration, SimTime};

use crate::cluster::{FTable, QPair, QueryOutcome};
use crate::conn::{Conn, FleetConn};
use crate::error::FvError;
use crate::fleet::{FleetTable, Partitioning};

/// Base unit of the client retry backoff schedule. The discipline
/// mirrors the fault injector's: one base unit, doubling per attempt,
/// saturating after [`SERVE_BACKOFF_DOUBLINGS`] doublings — but at
/// serving timescale (queue drain, not wire round trip).
pub(crate) const SERVE_RETRY_BACKOFF: SimDuration = SimDuration::from_micros(1);

/// How many times the retry backoff doubles before it saturates.
pub(crate) const SERVE_BACKOFF_DOUBLINGS: u32 = 6;

/// Largest service ratio the weighted DRR enforces between the
/// heaviest and lightest tenant. Weights beyond this spread still get
/// at least `1/MAX_DRR_RATIO` of a quantum per round, bounding both
/// starvation and scheduler passes.
pub(crate) const MAX_DRR_RATIO: u64 = 256;

/// The backoff before retry attempt `attempt` (1-based): capped
/// exponential, never unbounded.
pub(crate) fn retry_backoff(attempt: u32) -> SimDuration {
    SERVE_RETRY_BACKOFF * u64::from(1u32 << attempt.min(SERVE_BACKOFF_DOUBLINGS))
}

/// Service class of a tenant, in shed order: under sustained overload
/// the front end rejects and sheds `Bronze` first, then `Silver`, and
/// only then touches `Gold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServeClass {
    /// Admitted up to the full queue watermark; shed last.
    Gold,
    /// Default class.
    Silver,
    /// Best-effort: first rejected, first shed.
    Bronze,
}

impl ServeClass {
    /// Stable name for reports and figures.
    pub fn name(self) -> &'static str {
        match self {
            ServeClass::Gold => "gold",
            ServeClass::Silver => "silver",
            ServeClass::Bronze => "bronze",
        }
    }

    /// Shed rank: higher ranks are shed first.
    pub fn shed_rank(self) -> usize {
        match self {
            ServeClass::Gold => 0,
            ServeClass::Silver => 1,
            ServeClass::Bronze => 2,
        }
    }

    /// Fraction of the global queue this class may fill before its
    /// arrivals are rejected (the watermark ladder).
    pub(crate) fn admit_fraction(self) -> f64 {
        match self {
            ServeClass::Gold => 1.0,
            ServeClass::Silver => 0.75,
            ServeClass::Bronze => 0.5,
        }
    }

    /// All classes, gold first.
    pub fn all() -> [ServeClass; 3] {
        [ServeClass::Gold, ServeClass::Silver, ServeClass::Bronze]
    }
}

/// One tenant of the serving population, engine-level: the workload
/// generator's `TenantMix` lowers onto this (queries already compiled
/// to [`PipelineSpec`]s), keeping the core crate workload-agnostic.
#[derive(Debug, Clone)]
pub struct ServeTenant {
    /// Unique tenant id (also the id carried in typed rejections).
    pub id: u32,
    /// Service class.
    pub class: ServeClass,
    /// Contracted share weight: drives the weighted-DRR service share
    /// and the token-bucket rate. A weight-4 tenant is entitled to 4×
    /// the service of a weight-1 tenant.
    pub weight: u64,
    /// Arrival-rate weight: a demand-4 tenant issues queries 4× as fast
    /// as a demand-1 tenant (its closed-loop think time is 4× shorter).
    /// Usually equal to `weight`; a tenant with `demand > weight` is an
    /// over-demander the admission layer must throttle back to its
    /// contracted share.
    pub demand: u64,
    /// The tenant's query stream, cycled by its closed loop.
    pub queries: Vec<PipelineSpec>,
}

/// Where admitted queries actually execute. The engine treats the
/// backend as a black box that produces real result bytes plus the
/// simulated service time: a [`TenantBackend`] over any [`Conn`], or a
/// [`TieredPool`](crate::TieredPool) serving tenants whose tables do not
/// all fit in DRAM.
pub trait ServeBackend {
    /// Execute one of `tenant`'s queries, returning the outcome (the
    /// result payload and its simulated service time).
    fn execute(&mut self, tenant: u32, query: &PipelineSpec) -> Result<QueryOutcome, FvError>;

    /// The DRR cost of one of `tenant`'s queries, in bytes of pipeline
    /// occupancy (its table's scan size). Elephants with big tables pay
    /// proportionally more of their deficit per query, which is what
    /// keeps server occupancy byte-fair across tenants.
    fn cost(&self, tenant: u32) -> u64;
}

/// One shared connection, one resident table per tenant. Over a
/// [`QPair`] this is also the oracle deployment: an unloaded run of the
/// same backend yields the byte-identical reference results. Over a
/// [`FleetConn`] with replicated tables the serving invariants survive a
/// degraded node — the chaos-composition tests run the overload mix
/// through it.
pub struct TenantBackend<C: Conn> {
    conn: C,
    tables: Vec<(u32, C::Table, u64)>,
}

/// The single-node backend: one shared [`QPair`].
pub type SingleNodeBackend = TenantBackend<QPair>;

/// The fleet backend: one shared fleet connection, one sharded
/// (optionally replicated) table per tenant.
pub type FleetBackend = TenantBackend<FleetConn>;

impl<C: Conn> TenantBackend<C> {
    /// A backend executing on `conn` — a [`QPair`], or a
    /// [`FleetQPair`](crate::FleetQPair) for a fleet.
    pub fn new(conn: impl Into<C>) -> Self {
        TenantBackend {
            conn: conn.into(),
            tables: Vec::new(),
        }
    }

    /// Bind `tenant`'s queries to `table`; `scan_bytes` is its DRR
    /// cost (typically the table's byte length). Rebinding replaces.
    pub fn bind_tenant(&mut self, tenant: u32, table: C::Table, scan_bytes: u64) {
        self.tables.retain(|(id, _, _)| *id != tenant);
        self.tables.push((tenant, table, scan_bytes));
    }

    fn entry(&self, tenant: u32) -> Result<&(u32, C::Table, u64), FvError> {
        self.tables
            .iter()
            .find(|(id, _, _)| *id == tenant)
            .ok_or(FvError::UnknownTenant { tenant })
    }
}

impl SingleNodeBackend {
    /// Load a table through the backend's queue pair (convenience for
    /// harnesses that build the tenant tables and the backend together).
    pub fn load_table(&self, table: &fv_data::Table) -> Result<(FTable, SimDuration), FvError> {
        self.conn.load_table(table)
    }
}

impl FleetBackend {
    /// Load a replicated, sharded table through the backend's fleet
    /// queue pair.
    pub fn load_table_replicated(
        &self,
        table: &fv_data::Table,
        partitioning: Partitioning,
        replicas: usize,
    ) -> Result<(FleetTable, SimDuration), FvError> {
        self.conn
            .fqp
            .load_table_replicated(table, partitioning, replicas)
    }
}

impl<C: Conn> ServeBackend for TenantBackend<C> {
    fn execute(&mut self, tenant: u32, query: &PipelineSpec) -> Result<QueryOutcome, FvError> {
        let (_, table, _) = self.entry(tenant)?;
        self.conn.run(table, query).map(Into::into)
    }

    fn cost(&self, tenant: u32) -> u64 {
        self.entry(tenant).map(|(_, _, c)| (*c).max(1)).unwrap_or(1)
    }
}

/// Knobs of one serving run. Defaults model a small node under a
/// moderate mix; the `overload` experiment sweeps [`ServeConfig::load`]
/// past saturation.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent pipeline servers (dynamic-region episodes in flight).
    pub servers: usize,
    /// Global admission queue capacity (jobs, the watermark base).
    pub queue_capacity: usize,
    /// Mean closed-loop think time of a weight-1 tenant at load 1.0.
    pub base_think: SimDuration,
    /// Offered-load multiplier: think times divide by it. 1.0 is the
    /// calibration point; sweeping past saturation raises it.
    pub load: f64,
    /// Token-bucket refill rate per unit of tenant weight, in queries
    /// per second: tenant `i` refills at `weight_i × rate`.
    pub bucket_qps_per_weight: f64,
    /// Token-bucket depth (burst allowance), in queries.
    pub bucket_depth: f64,
    /// Per-query deadline, measured from first submission (retries burn
    /// deadline budget).
    pub deadline: SimDuration,
    /// Bounded retry budget after rejections/sheds; when exhausted the
    /// query is abandoned and the tenant moves on.
    pub max_retries: u32,
    /// Virtual-time horizon of the run.
    pub horizon: SimDuration,
    /// Seed for think-time jitter; same seed, same run.
    pub seed: u64,
    /// Keep completed payloads in the report (for byte-identity checks
    /// against the oracle; costs memory on long runs).
    pub keep_payloads: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            servers: 4,
            queue_capacity: 64,
            base_think: SimDuration::from_micros(400),
            load: 1.0,
            bucket_qps_per_weight: 12_000.0,
            bucket_depth: 4.0,
            deadline: SimDuration::from_millis(4),
            max_retries: 8,
            horizon: SimDuration::from_millis(40),
            seed: 0x0FA5_7E57,
            keep_payloads: false,
        }
    }
}

/// One completed query, for oracle comparison.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The tenant served.
    pub tenant: u32,
    /// Index into the tenant's query stream.
    pub query_idx: usize,
    /// The result bytes (byte-identical to the oracle's, by invariant).
    pub payload: Vec<u8>,
}

/// Per-tenant outcome counters and latency quantiles.
#[derive(Debug, Clone)]
pub struct TenantServeStats {
    /// Tenant id.
    pub tenant: u32,
    /// Its class.
    pub class: ServeClass,
    /// Its contracted share weight.
    pub weight: u64,
    /// Its arrival-rate weight.
    pub demand: u64,
    /// Distinct queries the closed loop offered (retries not counted).
    pub offered: u64,
    /// Queries completed within the horizon.
    pub completed: u64,
    /// Admission rejections observed (token bucket or watermark),
    /// counting every rejected attempt.
    pub rejected: u64,
    /// Queued queries shed to make room for higher-class work.
    pub shed: u64,
    /// Queries dropped typed at their deadline.
    pub deadline_missed: u64,
    /// Queries abandoned after the retry budget ran out.
    pub abandoned: u64,
    /// Backend execution failures (typed, e.g. a dead fleet node).
    pub exec_failed: u64,
    /// Median end-to-end latency (first submission → completion), µs.
    pub p50_us: f64,
    /// Tail latency, µs.
    pub p99_us: f64,
}

/// Per-class latency rollup.
#[derive(Debug, Clone)]
pub struct ClassServeStats {
    /// The class.
    pub class: ServeClass,
    /// Completions across the class's tenants.
    pub completed: u64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// Tail latency, µs.
    pub p99_us: f64,
}

/// The outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Virtual time simulated.
    pub horizon: SimDuration,
    /// The load multiplier this run used.
    pub load: f64,
    /// Per-tenant breakdown, in tenant order.
    pub tenants: Vec<TenantServeStats>,
    /// Per-class latency rollups (gold, silver, bronze).
    pub classes: Vec<ClassServeStats>,
    /// Completed payloads, when [`ServeConfig::keep_payloads`] is set.
    pub completions: Vec<Completion>,
    /// Total queries offered (distinct, not counting retries).
    pub offered: u64,
    /// Total completions within the horizon.
    pub completed: u64,
    /// Total rejected attempts (token bucket + watermark).
    pub rejected: u64,
    /// Total queued queries shed.
    pub shed: u64,
    /// Total deadline misses.
    pub deadline_missed: u64,
    /// Total queries abandoned after retry exhaustion.
    pub abandoned: u64,
    /// Total typed backend failures.
    pub exec_failed: u64,
    /// Completions per second of virtual time.
    pub goodput_qps: f64,
    /// Fraction of offered queries that ended in a typed failure
    /// (abandoned after the retry budget, deadline-dropped, or a
    /// backend error). Work still queued or in flight at the horizon
    /// is neither completed nor rejected.
    pub rejection_rate: f64,
    /// Jain fairness index over weight-normalized per-tenant goodput
    /// (1.0 = perfectly proportional; 1/n = one tenant got everything).
    pub fairness_index: f64,
    /// The smallest per-tenant completion count — starvation shows up
    /// here as a zero.
    pub min_completed: u64,
}

/// What the front end is waiting on.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EvKind {
    /// A tenant submits (or re-submits) a query.
    Submit {
        flow: usize,
        query_idx: usize,
        first_submit: SimTime,
        attempt: u32,
    },
    /// A pipeline server finishes its job.
    ServerFree,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Ev {
    at: SimTime,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One admitted query waiting for a server.
#[derive(Debug, Clone)]
struct Queued {
    query_idx: usize,
    first_submit: SimTime,
    deadline: SimTime,
    attempt: u32,
}

/// Per-tenant runtime state.
struct Flow {
    id: u32,
    class: ServeClass,
    weight: u64,
    demand: u64,
    queries: Vec<PipelineSpec>,
    cost: u64,
    // DRR
    /// Deficit credit granted per scheduler round while backlogged —
    /// proportional to the tenant's weight, so service (and therefore
    /// completions, at comparable query cost) tracks the contracted
    /// share instead of degenerating to equal-split round robin.
    refill: u64,
    deficit: u64,
    queue: VecDeque<Queued>,
    // Token bucket
    tokens: f64,
    refilled_at: SimTime,
    // Closed-loop bookkeeping
    next_query: usize,
    rng: u64,
    // Stats
    offered: u64,
    completed: u64,
    rejected: u64,
    shed: u64,
    deadline_missed: u64,
    abandoned: u64,
    exec_failed: u64,
    latency: Histogram,
}

impl Flow {
    /// SplitMix64 step (same generator as the fault injector).
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0.5, 1.5)` — think-time jitter.
    fn jitter(&mut self) -> f64 {
        0.5 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The serving front end: a discrete-event closed-loop simulation of
/// many tenants multiplexed onto a pool of pipeline servers behind
/// admission control, DRR scheduling, and the shed ladder.
pub struct ServeEngine<B: ServeBackend> {
    config: ServeConfig,
    backend: B,
    flows: Vec<Flow>,
    events: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    now: SimTime,
    free_servers: usize,
    queued_total: usize,
    class_queued: [usize; 3],
    quantum: u64,
    cursor: usize,
    /// EWMA of measured service times, µs — drives `retry_after` hints.
    est_service_us: f64,
    completions: Vec<Completion>,
    class_latency: [Histogram; 3],
    class_completed: [u64; 3],
}

impl<B: ServeBackend> ServeEngine<B> {
    /// Build an engine over `tenants` against `backend`.
    ///
    /// # Errors
    /// Returns [`FvError::BadServeConfig`] for configurations that
    /// cannot run (no tenants, empty query streams, duplicate tenant
    /// ids, zero servers/capacity, non-positive load or bucket rate).
    pub fn new(tenants: &[ServeTenant], config: ServeConfig, backend: B) -> Result<Self, FvError> {
        if tenants.is_empty() {
            return Err(FvError::BadServeConfig {
                reason: "no tenants",
            });
        }
        if config.servers == 0 {
            return Err(FvError::BadServeConfig {
                reason: "zero pipeline servers",
            });
        }
        if config.queue_capacity == 0 {
            return Err(FvError::BadServeConfig {
                reason: "zero queue capacity",
            });
        }
        if !(config.load > 0.0 && config.load.is_finite()) {
            return Err(FvError::BadServeConfig {
                reason: "load multiplier must be positive and finite",
            });
        }
        if !(config.bucket_qps_per_weight > 0.0 && config.bucket_qps_per_weight.is_finite()) {
            return Err(FvError::BadServeConfig {
                reason: "bucket rate must be positive and finite",
            });
        }
        if config.bucket_depth < 1.0 {
            return Err(FvError::BadServeConfig {
                reason: "bucket depth must hold at least one token",
            });
        }
        let mut flows = Vec::with_capacity(tenants.len());
        for t in tenants {
            if t.queries.is_empty() {
                return Err(FvError::BadServeConfig {
                    reason: "a tenant has an empty query stream",
                });
            }
            if t.weight == 0 {
                return Err(FvError::BadServeConfig {
                    reason: "tenant weights must be positive",
                });
            }
            if t.demand == 0 {
                return Err(FvError::BadServeConfig {
                    reason: "tenant demand must be positive",
                });
            }
            if flows.iter().any(|f: &Flow| f.id == t.id) {
                return Err(FvError::BadServeConfig {
                    reason: "duplicate tenant id",
                });
            }
            flows.push(Flow {
                id: t.id,
                class: t.class,
                weight: t.weight,
                demand: t.demand,
                queries: t.queries.clone(),
                cost: backend.cost(t.id),
                refill: 1,
                deficit: 0,
                queue: VecDeque::new(),
                tokens: config.bucket_depth,
                refilled_at: SimTime::ZERO,
                next_query: 0,
                rng: config.seed ^ (u64::from(t.id)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                offered: 0,
                completed: 0,
                rejected: 0,
                shed: 0,
                deadline_missed: 0,
                abandoned: 0,
                exec_failed: 0,
                latency: Histogram::new(),
            });
        }
        let quantum = flows.iter().map(|f| f.cost).max().unwrap_or(1).max(1);
        // Weighted DRR: each backlogged flow earns `quantum * w / w_max`
        // credit per round, so the heaviest tenant is served every round
        // and a weight-1 tenant roughly every `w_max` rounds. The ratio
        // is clamped to [1/MAX_DRR_RATIO, 1] of a quantum so an extreme
        // weight spread bounds scheduler passes instead of starving the
        // light flows.
        let max_weight = flows.iter().map(|f| f.weight).max().unwrap_or(1).max(1);
        let floor = (quantum / MAX_DRR_RATIO).max(1);
        for f in &mut flows {
            let share =
                ((u128::from(quantum) * u128::from(f.weight)) / u128::from(max_weight)) as u64;
            f.refill = share.max(floor);
        }
        Ok(ServeEngine {
            free_servers: config.servers,
            config,
            backend,
            flows,
            events: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            queued_total: 0,
            class_queued: [0; 3],
            quantum,
            cursor: 0,
            est_service_us: 10.0,
            completions: Vec::new(),
            class_latency: [Histogram::new(), Histogram::new(), Histogram::new()],
            class_completed: [0; 3],
        })
    }

    fn push_event(&mut self, at: SimTime, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Ev { at, seq, kind }));
    }

    /// Mean think time of `flow` at the configured load, jittered.
    /// Arrival rate follows `demand`, not the contracted `weight`.
    fn think_time(&mut self, flow: usize) -> SimDuration {
        let (demand, jitter) = match self.flows.get_mut(flow) {
            Some(f) => (f.demand.max(1), f.jitter()),
            None => (1, 1.0),
        };
        let mean_us = self.config.base_think.as_micros_f64() / (demand as f64 * self.config.load);
        SimDuration::from_micros_f64((mean_us * jitter).max(0.001))
    }

    /// Schedule `flow`'s next closed-loop query after a think pause.
    fn schedule_next(&mut self, flow: usize, from: SimTime) {
        let think = self.think_time(flow);
        let (query_idx, at) = match self.flows.get_mut(flow) {
            Some(f) => {
                let idx = f.next_query;
                f.next_query = (f.next_query + 1) % f.queries.len().max(1);
                (idx, from + think)
            }
            None => return,
        };
        self.push_event(
            at,
            EvKind::Submit {
                flow,
                query_idx,
                first_submit: at,
                attempt: 0,
            },
        );
    }

    /// How long until the queue plausibly drains below the watermark —
    /// the `retry_after` hint attached to rejections and sheds.
    fn drain_estimate(&self) -> SimDuration {
        let backlog = (self.queued_total as f64 + 1.0) * self.est_service_us
            / self.config.servers.max(1) as f64;
        SimDuration::from_micros_f64(backlog.clamp(1.0, 1_000_000.0))
    }

    /// A rejection or shed for `flow`: retry with capped exponential
    /// backoff while budget remains, abandon otherwise.
    fn reject_with_retry(
        &mut self,
        flow: usize,
        query_idx: usize,
        first_submit: SimTime,
        attempt: u32,
        retry_after: SimDuration,
    ) {
        if attempt < self.config.max_retries {
            let delay = retry_after.max(retry_backoff(attempt + 1));
            self.push_event(
                self.now + delay,
                EvKind::Submit {
                    flow,
                    query_idx,
                    first_submit,
                    attempt: attempt + 1,
                },
            );
        } else {
            if let Some(f) = self.flows.get_mut(flow) {
                f.abandoned += 1;
            }
            self.schedule_next(flow, self.now);
        }
    }

    /// Per-class guaranteed queue floor: shedding never evicts a class
    /// below this many queued entries, so no class is ever locked out
    /// of the server entirely.
    fn shed_floor(&self) -> usize {
        (self.config.queue_capacity / 8).max(1)
    }

    /// Per-class reserved admission lane: twice the shed floor. The gap
    /// is deliberate hysteresis — admission refills a pressured class up
    /// to the lane while preemption drains it down to the floor. With a
    /// single shared threshold the two would deadlock: every class pins
    /// exactly at the line where nothing is sheddable and nothing more
    /// is admittable.
    fn reserve_lane(&self) -> usize {
        self.shed_floor() * 2
    }

    /// Evict the youngest queued query of the most-sheddable class
    /// whose rank is strictly below `arriving` (i.e. strictly higher
    /// shed rank). Returns false when nothing is evictable.
    fn shed_for(&mut self, arriving: ServeClass) -> bool {
        let reserve = self.shed_floor();
        // Walk classes from most-sheddable (bronze) down to just below
        // the arriving class.
        for rank in (arriving.shed_rank() + 1..=2).rev() {
            let in_class = self.class_queued.get(rank).copied().unwrap_or(0);
            // Never shed a class below its reserved lane: the guarantee
            // that no class is locked out entirely.
            if in_class <= reserve {
                continue;
            }
            // The youngest queued query of this class: the most recent
            // tail across its tenants' queues.
            let victim = self
                .flows
                .iter()
                .enumerate()
                .filter(|(_, f)| f.class.shed_rank() == rank)
                .filter_map(|(i, f)| f.queue.back().map(|q| (i, q.first_submit)))
                .max_by_key(|&(_, fs)| fs)
                .map(|(i, _)| i);
            let Some(vidx) = victim else { continue };
            let retry_after = self.drain_estimate();
            let popped = self.flows.get_mut(vidx).and_then(|f| f.queue.pop_back());
            let Some(q) = popped else { continue };
            self.queued_total = self.queued_total.saturating_sub(1);
            if let Some(c) = self.class_queued.get_mut(rank) {
                *c = c.saturating_sub(1);
            }
            if let Some(f) = self.flows.get_mut(vidx) {
                f.shed += 1;
            }
            // The shed owner retries like any rejected tenant, carrying
            // its attempt count and original submit time forward.
            self.reject_with_retry(vidx, q.query_idx, q.first_submit, q.attempt, retry_after);
            return true;
        }
        false
    }

    /// Admission control for one (re-)submission.
    fn on_submit(&mut self, flow: usize, query_idx: usize, first_submit: SimTime, attempt: u32) {
        let now = self.now;
        let (class, deadline_at) = match self.flows.get_mut(flow) {
            Some(f) => {
                if attempt == 0 {
                    f.offered += 1;
                }
                (f.class, first_submit + self.config.deadline)
            }
            None => return,
        };
        // A retry arriving after its deadline is already dead.
        if now >= deadline_at {
            if let Some(f) = self.flows.get_mut(flow) {
                f.deadline_missed += 1;
            }
            self.schedule_next(flow, now);
            return;
        }
        // Token bucket: weight-proportional contracted rate.
        let bucket_reject = match self.flows.get_mut(flow) {
            Some(f) => {
                let rate_per_us = self.config.bucket_qps_per_weight * f.weight as f64 / 1_000_000.0;
                let elapsed_us = (now - f.refilled_at).as_micros_f64();
                f.tokens = (f.tokens + elapsed_us * rate_per_us).min(self.config.bucket_depth);
                f.refilled_at = now;
                if f.tokens < 1.0 {
                    f.rejected += 1;
                    let wait_us = ((1.0 - f.tokens) / rate_per_us).max(0.001);
                    Some(SimDuration::from_micros_f64(wait_us.min(1_000_000.0)))
                } else {
                    None
                }
            }
            None => return,
        };
        if let Some(retry_after) = bucket_reject {
            // The closed loop consumes its own rejection; the report
            // counts it.
            self.reject_with_retry(flow, query_idx, first_submit, attempt, retry_after);
            return;
        }
        // Watermark ladder with a per-class reserved lane. An arrival
        // the ladder would turn away (or one entering through its
        // reserved lane while the queue sits at absolute capacity)
        // instead *preempts*: the youngest queued query of the most
        // sheddable strictly-lower class above its reserve floor is
        // evicted to make room — shed lowest-priority first. Only when
        // nothing below it is sheddable is the arrival rejected.
        let cap = self.config.queue_capacity;
        let watermark = ((cap as f64) * class.admit_fraction()) as usize;
        let lane = self.reserve_lane();
        let in_class = self
            .class_queued
            .get(class.shed_rank())
            .copied()
            .unwrap_or(0);
        let admitted = self.queued_total < watermark || in_class < lane;
        let needs_room = !admitted || self.queued_total >= cap;
        if needs_room && !self.shed_for(class) {
            if let Some(f) = self.flows.get_mut(flow) {
                f.rejected += 1;
            }
            let retry_after = self.drain_estimate();
            self.reject_with_retry(flow, query_idx, first_submit, attempt, retry_after);
            return;
        }
        // Admit: consume a token, enqueue on the tenant's DRR flow.
        if let Some(f) = self.flows.get_mut(flow) {
            f.tokens -= 1.0;
            f.queue.push_back(Queued {
                query_idx,
                first_submit,
                deadline: deadline_at,
                attempt,
            });
        }
        self.queued_total += 1;
        if let Some(c) = self.class_queued.get_mut(class.shed_rank()) {
            *c += 1;
        }
        self.dispatch();
    }

    /// Pop the next queued query in DRR order.
    fn drr_pop(&mut self) -> Option<(usize, Queued)> {
        if self.queued_total == 0 {
            for f in &mut self.flows {
                f.deficit = 0;
            }
            return None;
        }
        let n = self.flows.len();
        let quantum = self.quantum;
        // A backlogged flow earns at least `quantum / MAX_DRR_RATIO`
        // per visit and needs at most `quantum` to be served, so
        // `MAX_DRR_RATIO + 1` full passes always produce a job while
        // anything is queued.
        let passes = n.saturating_mul(MAX_DRR_RATIO as usize + 1);
        for _ in 0..=passes {
            let idx = self.cursor;
            let Some(f) = self.flows.get_mut(idx) else {
                self.cursor = 0;
                continue;
            };
            if !f.queue.is_empty() {
                let front_cost = f.cost.min(quantum);
                if f.deficit < front_cost {
                    f.deficit += f.refill;
                }
                if f.deficit >= front_cost {
                    let Some(job) = f.queue.pop_front() else {
                        self.cursor = (idx + 1) % n;
                        continue;
                    };
                    f.deficit -= front_cost;
                    if f.queue.is_empty() {
                        f.deficit = 0;
                    }
                    let rank = f.class.shed_rank();
                    self.queued_total = self.queued_total.saturating_sub(1);
                    if let Some(c) = self.class_queued.get_mut(rank) {
                        *c = c.saturating_sub(1);
                    }
                    self.cursor = (idx + 1) % n;
                    return Some((idx, job));
                }
                self.cursor = (idx + 1) % n;
            } else {
                f.deficit = 0;
                self.cursor = (idx + 1) % n;
            }
        }
        None
    }

    /// Put free servers to work in DRR order, dropping dead-by-deadline
    /// queries typed along the way.
    fn dispatch(&mut self) {
        while self.free_servers > 0 {
            let Some((flow, job)) = self.drr_pop() else {
                return;
            };
            if self.now >= job.deadline {
                // Past its deadline: dropped whole, never partially run.
                if let Some(f) = self.flows.get_mut(flow) {
                    f.deadline_missed += 1;
                }
                self.schedule_next(flow, self.now);
                continue;
            }
            let (id, spec) = match self.flows.get(flow) {
                Some(f) => match f.queries.get(job.query_idx) {
                    Some(q) => (f.id, q.clone()),
                    None => continue,
                },
                None => continue,
            };
            match self.backend.execute(id, &spec) {
                Ok(outcome) => {
                    let service = outcome.stats.response_time;
                    let done = self.now + service;
                    self.est_service_us = 0.8 * self.est_service_us + 0.2 * service.as_micros_f64();
                    self.free_servers -= 1;
                    self.push_event(done, EvKind::ServerFree);
                    // Completions past the horizon are in flight at the
                    // end of the run, not goodput.
                    if done <= SimTime::ZERO + self.config.horizon {
                        let latency = done - job.first_submit;
                        let rank = match self.flows.get(flow) {
                            Some(f) => f.class.shed_rank(),
                            None => 0,
                        };
                        if let Some(f) = self.flows.get_mut(flow) {
                            f.completed += 1;
                            f.latency.record_duration(latency);
                        }
                        if let Some(h) = self.class_latency.get_mut(rank) {
                            h.record_duration(latency);
                        }
                        if let Some(c) = self.class_completed.get_mut(rank) {
                            *c += 1;
                        }
                        if self.config.keep_payloads {
                            self.completions.push(Completion {
                                tenant: id,
                                query_idx: job.query_idx,
                                payload: outcome.payload,
                            });
                        }
                    }
                    self.schedule_next(flow, done);
                }
                Err(_) => {
                    // Typed backend failure: the query fails whole; the
                    // tenant's loop continues. The server was never
                    // occupied.
                    if let Some(f) = self.flows.get_mut(flow) {
                        f.exec_failed += 1;
                    }
                    self.schedule_next(flow, self.now);
                }
            }
        }
    }

    /// Run the closed loops until the horizon and report.
    pub fn run(mut self) -> ServeReport {
        let horizon = SimTime::ZERO + self.config.horizon;
        // Stagger initial arrivals by one jittered think each.
        for flow in 0..self.flows.len() {
            self.schedule_next(flow, SimTime::ZERO);
        }
        while let Some(Reverse(ev)) = self.events.pop() {
            if ev.at > horizon {
                continue;
            }
            self.now = ev.at;
            match ev.kind {
                EvKind::Submit {
                    flow,
                    query_idx,
                    first_submit,
                    attempt,
                } => self.on_submit(flow, query_idx, first_submit, attempt),
                EvKind::ServerFree => {
                    self.free_servers += 1;
                    self.dispatch();
                }
            }
        }
        self.report()
    }

    fn report(mut self) -> ServeReport {
        let mut tenants = Vec::with_capacity(self.flows.len());
        let mut offered = 0u64;
        let mut completed = 0u64;
        let mut rejected = 0u64;
        let mut shed = 0u64;
        let mut deadline_missed = 0u64;
        let mut abandoned = 0u64;
        let mut exec_failed = 0u64;
        for f in &mut self.flows {
            offered += f.offered;
            completed += f.completed;
            rejected += f.rejected;
            shed += f.shed;
            deadline_missed += f.deadline_missed;
            abandoned += f.abandoned;
            exec_failed += f.exec_failed;
            tenants.push(TenantServeStats {
                tenant: f.id,
                class: f.class,
                weight: f.weight,
                demand: f.demand,
                offered: f.offered,
                completed: f.completed,
                rejected: f.rejected,
                shed: f.shed,
                deadline_missed: f.deadline_missed,
                abandoned: f.abandoned,
                exec_failed: f.exec_failed,
                p50_us: f.latency.quantile(0.5).unwrap_or(0.0),
                p99_us: f.latency.quantile(0.99).unwrap_or(0.0),
            });
        }
        // Jain index over weight-normalized goodput.
        let shares: Vec<f64> = tenants
            .iter()
            .map(|t| t.completed as f64 / t.weight.max(1) as f64)
            .collect();
        let sum: f64 = shares.iter().sum();
        let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
        let fairness_index = if sum_sq > 0.0 {
            (sum * sum) / (shares.len() as f64 * sum_sq)
        } else {
            0.0
        };
        let horizon_secs = self.config.horizon.as_micros_f64() / 1_000_000.0;
        let classes = ServeClass::all()
            .into_iter()
            .map(|class| {
                let rank = class.shed_rank();
                let completed = self.class_completed.get(rank).copied().unwrap_or(0);
                let (p50, p99) = match self.class_latency.get_mut(rank) {
                    Some(h) => (
                        h.quantile(0.5).unwrap_or(0.0),
                        h.quantile(0.99).unwrap_or(0.0),
                    ),
                    None => (0.0, 0.0),
                };
                ClassServeStats {
                    class,
                    completed,
                    p50_us: p50,
                    p99_us: p99,
                }
            })
            .collect();
        ServeReport {
            horizon: self.config.horizon,
            load: self.config.load,
            min_completed: tenants.iter().map(|t| t.completed).min().unwrap_or(0),
            goodput_qps: if horizon_secs > 0.0 {
                completed as f64 / horizon_secs
            } else {
                0.0
            },
            rejection_rate: if offered > 0 {
                (abandoned + deadline_missed + exec_failed) as f64 / offered as f64
            } else {
                0.0
            },
            fairness_index,
            tenants,
            classes,
            completions: self.completions,
            offered,
            completed,
            rejected,
            shed,
            deadline_missed,
            abandoned,
            exec_failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FarviewCluster;
    use crate::config::FarviewConfig;
    use fv_data::{Schema, TableBuilder, Value};
    use fv_pipeline::PredicateExpr;

    fn table(rows: u64, seed: u64) -> fv_data::Table {
        let schema = Schema::uniform_u64(3);
        let mut b = TableBuilder::with_capacity(schema, rows as usize);
        for r in 0..rows {
            b.push_values(vec![
                Value::U64(r),
                Value::U64((r.wrapping_mul(seed | 1)) % 1000),
                Value::U64(r % 7),
            ]);
        }
        b.build()
    }

    fn select_spec(threshold: u64) -> PipelineSpec {
        PipelineSpec::passthrough().filter(PredicateExpr::lt(1, threshold))
    }

    fn backend_with(tenants: &[ServeTenant], rows: u64) -> SingleNodeBackend {
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        let mut be = SingleNodeBackend::new(qp);
        for t in tenants {
            let tb = table(rows, u64::from(t.id) + 1);
            let (ft, _) = be.load_table(&tb).unwrap();
            be.bind_tenant(t.id, ft, tb.byte_len() as u64);
        }
        be
    }

    fn mix(n: u32) -> Vec<ServeTenant> {
        (0..n)
            .map(|i| {
                let weight = (8 / (i + 1)).max(1) as u64;
                ServeTenant {
                    id: i,
                    class: match i % 3 {
                        0 => ServeClass::Gold,
                        1 => ServeClass::Silver,
                        _ => ServeClass::Bronze,
                    },
                    weight,
                    demand: weight,
                    queries: vec![select_spec(300), select_spec(700)],
                }
            })
            .collect()
    }

    fn run_at(load: f64, seed: u64) -> ServeReport {
        let tenants = mix(6);
        let backend = backend_with(&tenants, 64);
        let config = ServeConfig {
            load,
            seed,
            horizon: SimDuration::from_millis(10),
            ..ServeConfig::default()
        };
        ServeEngine::new(&tenants, config, backend).unwrap().run()
    }

    #[test]
    fn light_load_completes_everything() {
        let r = run_at(0.5, 1);
        assert!(r.completed > 0, "closed loops must make progress");
        assert_eq!(r.shed, 0, "no shedding below saturation");
        assert!(
            r.rejection_rate < 0.1,
            "light load mostly completes: {}",
            r.rejection_rate
        );
        assert!(r.min_completed > 0, "no tenant starved at light load");
        assert!(r.fairness_index > 0.5, "fairness {}", r.fairness_index);
    }

    #[test]
    fn deterministic_replay() {
        let a = run_at(4.0, 42);
        let b = run_at(4.0, 42);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.offered, b.offered);
    }

    #[test]
    fn overload_degrades_gracefully() {
        let calm = run_at(1.0, 7);
        let storm = run_at(16.0, 7);
        assert!(
            storm.offered > calm.offered,
            "higher load must offer more work"
        );
        // Bounded queue + admission control: goodput does not collapse.
        assert!(
            storm.goodput_qps > calm.goodput_qps * 0.5,
            "goodput collapsed: {} vs {}",
            storm.goodput_qps,
            calm.goodput_qps
        );
        assert!(
            storm.rejected > calm.rejected,
            "overload must trip admission control more: {} vs {}",
            storm.rejected,
            calm.rejected
        );
        assert!(storm.min_completed > 0, "tenant starved under overload");
    }

    #[test]
    fn pressed_gold_sheds_overdemanding_bronze() {
        // Four bronze over-demanders (demand far above their contracted
        // weight) spam the queue and pile up behind their small DRR
        // share; a pack of gold loops then drives the queue to its
        // capacity. Pressed gold arrivals must preempt — evicting the
        // youngest queued bronze rather than being turned away.
        let tenants: Vec<ServeTenant> = (0..13)
            .map(|i| ServeTenant {
                id: i,
                class: match i {
                    0..=7 => ServeClass::Gold,
                    8 => ServeClass::Silver,
                    _ => ServeClass::Bronze,
                },
                weight: if i <= 8 { 2 } else { 1 },
                demand: if i <= 8 { 2 } else { 8 },
                queries: vec![select_spec(300), select_spec(700)],
            })
            .collect();
        let backend = backend_with(&tenants, 64);
        let config = ServeConfig {
            servers: 1,
            queue_capacity: 8,
            load: 8.0,
            // Open the buckets wide: this test is about queue-capacity
            // pressure, not per-tenant rate limits.
            bucket_qps_per_weight: 1_000_000.0,
            seed: 5,
            horizon: SimDuration::from_millis(10),
            ..ServeConfig::default()
        };
        let r = ServeEngine::new(&tenants, config, backend).unwrap().run();
        assert!(
            r.shed > 0,
            "capacity pressure never tripped the shed ladder"
        );
        // The ladder sheds strictly lower classes only: every victim is
        // bronze, never gold or silver.
        for t in &r.tenants {
            if t.class != ServeClass::Bronze {
                assert_eq!(t.shed, 0, "{:?} tenant {} was shed", t.class, t.tenant);
            }
        }
        assert!(r.min_completed > 0, "shedding must not starve anyone");
    }

    #[test]
    fn rejections_are_typed_and_bounded() {
        let r = run_at(16.0, 3);
        // Every offered query is accounted for exactly once as a final
        // outcome; retries/rejections never leak or double-count.
        assert!(r.rejected > 0, "overload must trip admission control");
        assert!(
            r.completed + r.deadline_missed + r.abandoned + r.exec_failed <= r.offered,
            "final outcomes exceed offered work"
        );
    }

    #[test]
    fn backoff_is_capped_exponential() {
        assert_eq!(retry_backoff(2), retry_backoff(1) * 2);
        assert_eq!(
            retry_backoff(SERVE_BACKOFF_DOUBLINGS),
            retry_backoff(SERVE_BACKOFF_DOUBLINGS + 9),
            "backoff must saturate"
        );
    }

    #[test]
    fn payloads_match_unloaded_oracle() {
        let tenants = mix(4);
        let backend = backend_with(&tenants, 48);
        let config = ServeConfig {
            load: 8.0,
            keep_payloads: true,
            horizon: SimDuration::from_millis(5),
            ..ServeConfig::default()
        };
        let report = ServeEngine::new(&tenants, config, backend).unwrap().run();
        assert!(!report.completions.is_empty());
        // Oracle: a fresh unloaded backend over the same tables.
        let mut oracle = backend_with(&tenants, 48);
        for c in &report.completions {
            let spec = &tenants[c.tenant as usize].queries[c.query_idx];
            let want = oracle.execute(c.tenant, spec).unwrap().payload;
            assert_eq!(
                c.payload, want,
                "admitted query diverged from oracle (tenant {})",
                c.tenant
            );
        }
    }

    #[test]
    fn bad_configs_are_typed() {
        let tenants = mix(2);
        let be = backend_with(&tenants, 32);
        let cfg = ServeConfig {
            servers: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            ServeEngine::new(&tenants, cfg, be),
            Err(FvError::BadServeConfig { .. })
        ));
        let be = backend_with(&tenants, 32);
        assert!(matches!(
            ServeEngine::new(&[], ServeConfig::default(), be),
            Err(FvError::BadServeConfig { .. })
        ));
    }

    #[test]
    fn unknown_tenant_is_typed() {
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        let mut be = SingleNodeBackend::new(qp);
        assert!(matches!(
            be.execute(9, &select_spec(10)),
            Err(FvError::UnknownTenant { tenant: 9 })
        ));
    }
}
