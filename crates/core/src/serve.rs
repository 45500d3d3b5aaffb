//! Overload-safe multi-tenant serving front end.
//!
//! The paper's buffer pool is *shared*: "multiple compute nodes" open
//! connections against one Farview deployment (§4.1), and §4.3's
//! arbiters exist precisely so "any malevolent behaviour by any of the
//! users" cannot stall the system. This module models the layer above
//! the queue pairs — a serving front end that multiplexes a heavy-tailed
//! population of closed-loop tenants onto a small pool of pipeline
//! servers, and keeps its guarantees *past* saturation. Each mechanism
//! is here for the guarantee its test names; with the mechanism taken
//! out, that test fails (`scripts/plant.sh` checks it, from the
//! registry in `scripts/plants.txt`):
//!
//! * **Token bucket** per tenant, refilled at `bucket_qps_per_weight ×
//!   weight`: an uncontended over-demander completes at most its bucket
//!   allowance (`an_uncontended_over_demander_completes_at_most_its_bucket_allowance`).
//! * **Shed**: an arrival at a full queue evicts the youngest queued
//!   query of the most sheddable strictly lower class
//!   (`a_gold_arrival_at_a_full_queue_is_admitted_while_bronze_is_above_its_floor`),
//!   counted in [`ServeReport::shed`].
//! * **Shed floor**: no class is shed below `queue_capacity / 8`
//!   queued queries (min 1), so higher-class pressure cannot shed a
//!   class out of service (`no_class_is_locked_out_by_higher_class_pressure`).
//! * **`retry_after`**: a rejected or shed query retries once the queue
//!   can plausibly take it (the bucket's refill time, or the queue's
//!   drain estimate), within `max_retries`
//!   (`a_rejected_query_waits_for_the_drain_instead_of_spending_its_retries`).
//! * **Deadline drop**: a query past its deadline is dropped whole and
//!   counted in [`ServeReport::deadline_missed`] rather than run late
//!   (`no_query_is_dispatched_after_its_deadline`).
//! * **Weighted DRR**: queued queries are dispatched by an
//!   [`fv_sim::DrrScheduler`] whose per-tenant quanta follow the tenant
//!   weights, cost-weighted by scan bytes
//!   (`backlogged_tenants_complete_in_proportion_to_their_weights`).
//!
//! Shedding drops whole queries, never parts of results, so every query
//! that *does* complete is byte-identical to an unloaded single-node
//! run.
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
use std::collections::BinaryHeap;

use fv_pipeline::PipelineSpec;
use fv_sim::{DrrScheduler, Histogram, SimDuration, SimTime, SplitMix64};

use crate::cluster::{FTable, QPair, QueryOutcome};
use crate::conn::{Conn, FleetConn};
use crate::error::FvError;
use crate::fleet::{FleetTable, Partitioning};

/// Largest service ratio the weighted DRR enforces between the
/// heaviest and lightest tenant. Weights beyond this spread still get
/// at least `1/MAX_DRR_RATIO` of a quantum per round, bounding both
/// starvation and scheduler passes.
pub(crate) const MAX_DRR_RATIO: u64 = 256;

/// Service class of a tenant, in shed order: at a full queue a higher
/// class sheds `Bronze` first, then `Silver`; `Gold` is never shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServeClass {
    /// Never shed.
    Gold,
    /// Default class.
    Silver,
    /// Best-effort: shed first.
    Bronze,
}

impl ServeClass {
    /// Shed rank: higher ranks are shed first.
    pub fn shed_rank(self) -> usize {
        match self {
            ServeClass::Gold => 0,
            ServeClass::Silver => 1,
            ServeClass::Bronze => 2,
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
    /// Contracted share weight: drives the weighted-DRR quantum and the
    /// token-bucket rate. A weight-4 tenant is entitled to 4×
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
    /// proportionally more of their DRR credit per query, which is what
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
    /// Global admission queue capacity (jobs); an arrival at a full
    /// queue sheds a lower class or is rejected.
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
    /// Admission rejections observed (token bucket or full queue),
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
    /// Total rejected attempts (token bucket + full queue).
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
    pub failure_rate: f64,
    /// Jain fairness index over weight-normalized per-tenant goodput
    /// (1.0 = perfectly proportional; 1/n = one tenant got everything).
    pub fairness_index: f64,
    /// The smallest per-tenant completion count — starvation shows up
    /// here as a zero.
    pub min_completed: u64,
}

/// What the front end is waiting on. Events order by `(at, seq)`;
/// `seq` is unique, so the kind never decides.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
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
    /// The tenant's report row: its identity and counters, kept as
    /// they run (the latency quantiles are filled in by the report).
    stats: TenantServeStats,
    queries: Vec<PipelineSpec>,
    cost: u64,
    // Token bucket
    tokens: f64,
    refilled_at: SimTime,
    // Closed-loop bookkeeping
    next_query: usize,
    rng: SplitMix64,
    latency: Histogram,
}

/// The serving front end: a discrete-event closed-loop simulation of
/// many tenants multiplexed onto a pool of pipeline servers behind
/// token buckets, shedding, and weighted-DRR dispatch.
pub struct ServeEngine<B: ServeBackend> {
    config: ServeConfig,
    backend: B,
    flows: Vec<Flow>,
    events: BinaryHeap<Reverse<(SimTime, u64, EvKind)>>,
    seq: u64,
    now: SimTime,
    free_servers: usize,
    /// Admitted queries waiting for a server, one DRR flow per tenant.
    queue: DrrScheduler<Queued>,
    class_queued: [usize; 3],
    /// EWMA of measured service times, µs — drives `retry_after` hints.
    est_service_us: f64,
    completions: Vec<Completion>,
    class_latency: [Histogram; 3],
}

impl<B: ServeBackend> ServeEngine<B> {
    /// Build an engine over `tenants` against `backend`.
    ///
    /// # Errors
    /// Returns [`FvError::BadConfig`] for configurations that
    /// cannot run (no tenants, empty query streams, duplicate tenant
    /// ids, zero servers/capacity, non-positive load or bucket rate).
    pub fn new(tenants: &[ServeTenant], config: ServeConfig, backend: B) -> Result<Self, FvError> {
        if tenants.is_empty() {
            return Err(FvError::BadConfig {
                reason: "no tenants",
            });
        }
        if config.servers == 0 {
            return Err(FvError::BadConfig {
                reason: "zero pipeline servers",
            });
        }
        if config.queue_capacity == 0 {
            return Err(FvError::BadConfig {
                reason: "zero queue capacity",
            });
        }
        if !(config.load > 0.0 && config.load.is_finite()) {
            return Err(FvError::BadConfig {
                reason: "load multiplier must be positive and finite",
            });
        }
        if !(config.bucket_qps_per_weight > 0.0 && config.bucket_qps_per_weight.is_finite()) {
            return Err(FvError::BadConfig {
                reason: "bucket rate must be positive and finite",
            });
        }
        if config.bucket_depth < 1.0 {
            return Err(FvError::BadConfig {
                reason: "bucket depth must hold at least one token",
            });
        }
        let mut flows = Vec::with_capacity(tenants.len());
        for t in tenants {
            if t.queries.is_empty() {
                return Err(FvError::BadConfig {
                    reason: "a tenant has an empty query stream",
                });
            }
            if t.weight == 0 {
                return Err(FvError::BadConfig {
                    reason: "tenant weights must be positive",
                });
            }
            if t.demand == 0 {
                return Err(FvError::BadConfig {
                    reason: "tenant demand must be positive",
                });
            }
            if flows.iter().any(|f: &Flow| f.stats.tenant == t.id) {
                return Err(FvError::BadConfig {
                    reason: "duplicate tenant id",
                });
            }
            flows.push(Flow {
                stats: TenantServeStats {
                    tenant: t.id,
                    class: t.class,
                    weight: t.weight,
                    demand: t.demand,
                    offered: 0,
                    completed: 0,
                    rejected: 0,
                    shed: 0,
                    deadline_missed: 0,
                    abandoned: 0,
                    exec_failed: 0,
                    p50_us: 0.0,
                    p99_us: 0.0,
                },
                queries: t.queries.clone(),
                cost: backend.cost(t.id),
                tokens: config.bucket_depth,
                refilled_at: SimTime::ZERO,
                next_query: 0,
                rng: SplitMix64::new(
                    config.seed ^ (u64::from(t.id)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                latency: Histogram::new(),
            });
        }
        // Weighted DRR: each flow's quantum is `quantum * w / w_max`, so
        // the heaviest tenant is served every round and a weight-1
        // tenant roughly every `w_max` rounds. The ratio is clamped to
        // [1/MAX_DRR_RATIO, 1] of a quantum so an extreme weight spread
        // bounds scheduler passes instead of starving the light flows.
        let quantum = flows.iter().map(|f| f.cost).max().unwrap_or(1).max(1);
        let max_weight = flows
            .iter()
            .map(|f| f.stats.weight)
            .max()
            .unwrap_or(1)
            .max(1);
        let floor = (quantum / MAX_DRR_RATIO).max(1);
        let share = |w: u64| (u128::from(quantum) * u128::from(w) / u128::from(max_weight)) as u64;
        let queue =
            DrrScheduler::with_quanta(flows.iter().map(|f| share(f.stats.weight).max(floor)));
        Ok(ServeEngine {
            free_servers: config.servers,
            config,
            backend,
            flows,
            events: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            queue,
            class_queued: [0; 3],
            est_service_us: 10.0,
            completions: Vec::new(),
            class_latency: [Histogram::new(), Histogram::new(), Histogram::new()],
        })
    }

    fn push_event(&mut self, at: SimTime, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse((at, seq, kind)));
    }

    /// Mean think time of `flow` at the configured load, jittered.
    /// Arrival rate follows `demand`, not the contracted `weight`.
    fn think_time(&mut self, flow: usize) -> SimDuration {
        let (demand, jitter) = match self.flows.get_mut(flow) {
            Some(f) => (f.stats.demand.max(1), 0.5 + f.rng.unit()),
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

    /// How long until the queue plausibly drains a slot — the
    /// `retry_after` hint attached to full-queue rejections and sheds.
    fn drain_estimate(&self) -> SimDuration {
        let backlog = (self.queue.len() as f64 + 1.0) * self.est_service_us
            / self.config.servers.max(1) as f64;
        SimDuration::from_micros_f64(backlog.clamp(1.0, 1_000_000.0))
    }

    /// A rejection or shed for `flow`: retry after `retry_after` while
    /// budget remains, abandon otherwise.
    fn reject_with_retry(
        &mut self,
        flow: usize,
        query_idx: usize,
        first_submit: SimTime,
        attempt: u32,
        retry_after: SimDuration,
    ) {
        if attempt < self.config.max_retries {
            self.push_event(
                self.now + retry_after,
                EvKind::Submit {
                    flow,
                    query_idx,
                    first_submit,
                    attempt: attempt + 1,
                },
            );
        } else {
            if let Some(f) = self.flows.get_mut(flow) {
                f.stats.abandoned += 1;
            }
            self.schedule_next(flow, self.now);
        }
    }

    /// Per-class guaranteed queue floor: shedding never evicts a class
    /// below this many queued entries, so no class is ever shed out of
    /// service entirely.
    fn shed_floor(&self) -> usize {
        (self.config.queue_capacity / 8).max(1)
    }

    /// Evict the youngest queued query of the most-sheddable class
    /// whose rank is strictly below `arriving` (i.e. strictly higher
    /// shed rank) and above its floor. Returns false when nothing is
    /// evictable.
    fn shed_for(&mut self, arriving: ServeClass) -> bool {
        let floor = self.shed_floor();
        // Walk classes from most-sheddable (bronze) down to just below
        // the arriving class.
        for rank in (arriving.shed_rank() + 1..=2).rev() {
            if self.class_queued.get(rank).copied().unwrap_or(0) <= floor {
                continue;
            }
            // The youngest queued query of this class: the most recent
            // tail across its tenants' queues.
            let victim = self
                .flows
                .iter()
                .enumerate()
                .filter(|(_, f)| f.stats.class.shed_rank() == rank)
                .filter_map(|(i, _)| self.queue.back(i).map(|q| (i, q.first_submit)))
                .max_by_key(|&(_, fs)| fs)
                .map(|(i, _)| i);
            let Some(vidx) = victim else { continue };
            let retry_after = self.drain_estimate();
            let Some(q) = self.queue.pop_back(vidx) else {
                continue;
            };
            if let Some(c) = self.class_queued.get_mut(rank) {
                *c = c.saturating_sub(1);
            }
            if let Some(f) = self.flows.get_mut(vidx) {
                f.stats.shed += 1;
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
        let Some(f) = self.flows.get_mut(flow) else {
            return;
        };
        if attempt == 0 {
            f.stats.offered += 1;
        }
        let (class, deadline_at) = (f.stats.class, first_submit + self.config.deadline);
        // A retry arriving after its deadline is already dead.
        if now >= deadline_at {
            f.stats.deadline_missed += 1;
            self.schedule_next(flow, now);
            return;
        }
        // Token bucket: weight-proportional contracted rate. The closed
        // loop consumes its own rejection; the report counts it.
        let rate_per_us = self.config.bucket_qps_per_weight * f.stats.weight as f64 / 1_000_000.0;
        let elapsed_us = (now - f.refilled_at).as_micros_f64();
        f.tokens = (f.tokens + elapsed_us * rate_per_us).min(self.config.bucket_depth);
        f.refilled_at = now;
        if f.tokens < 1.0 {
            f.stats.rejected += 1;
            let wait_us = ((1.0 - f.tokens) / rate_per_us).clamp(0.001, 1_000_000.0);
            let retry_after = SimDuration::from_micros_f64(wait_us);
            self.reject_with_retry(flow, query_idx, first_submit, attempt, retry_after);
            return;
        }
        // At a full queue the arrival sheds a lower class's youngest
        // queued query to make room; only when nothing below it is
        // sheddable is it rejected.
        if self.queue.len() >= self.config.queue_capacity && !self.shed_for(class) {
            if let Some(f) = self.flows.get_mut(flow) {
                f.stats.rejected += 1;
            }
            let retry_after = self.drain_estimate();
            self.reject_with_retry(flow, query_idx, first_submit, attempt, retry_after);
            return;
        }
        // Admit: consume a token, enqueue on the tenant's DRR flow.
        let Some(f) = self.flows.get_mut(flow) else {
            return;
        };
        f.tokens -= 1.0;
        self.queue.push(
            flow,
            f.cost,
            Queued {
                query_idx,
                first_submit,
                deadline: deadline_at,
                attempt,
            },
        );
        if let Some(c) = self.class_queued.get_mut(class.shed_rank()) {
            *c += 1;
        }
        self.dispatch();
    }

    /// Put free servers to work in DRR order, dropping dead-by-deadline
    /// queries typed along the way.
    fn dispatch(&mut self) {
        while self.free_servers > 0 {
            let Some((flow, job)) = self.queue.pop() else {
                return;
            };
            let Some(f) = self.flows.get(flow) else {
                continue;
            };
            let rank = f.stats.class.shed_rank();
            let (id, spec) = (f.stats.tenant, f.queries.get(job.query_idx).cloned());
            if let Some(c) = self.class_queued.get_mut(rank) {
                *c = c.saturating_sub(1);
            }
            if self.now >= job.deadline {
                // Past its deadline: dropped whole, never partially run.
                if let Some(f) = self.flows.get_mut(flow) {
                    f.stats.deadline_missed += 1;
                }
                self.schedule_next(flow, self.now);
                continue;
            }
            let Some(spec) = spec else {
                continue;
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
                        if let Some(f) = self.flows.get_mut(flow) {
                            f.stats.completed += 1;
                            f.latency.record_duration(latency);
                        }
                        if let Some(h) = self.class_latency.get_mut(rank) {
                            h.record_duration(latency);
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
                        f.stats.exec_failed += 1;
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
        while let Some(Reverse((at, _, kind))) = self.events.pop() {
            if at > horizon {
                continue;
            }
            self.now = at;
            match kind {
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
        let tenants: Vec<TenantServeStats> = self
            .flows
            .iter_mut()
            .map(|f| {
                let (p50_us, p99_us) = quantiles(&mut f.latency);
                TenantServeStats {
                    p50_us,
                    p99_us,
                    ..f.stats.clone()
                }
            })
            .collect();
        let total = |count: fn(&TenantServeStats) -> u64| tenants.iter().map(count).sum::<u64>();
        let offered = total(|t| t.offered);
        let completed = total(|t| t.completed);
        let deadline_missed = total(|t| t.deadline_missed);
        let abandoned = total(|t| t.abandoned);
        let exec_failed = total(|t| t.exec_failed);
        let (rejected, shed) = (total(|t| t.rejected), total(|t| t.shed));
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
                let (p50_us, p99_us) = self
                    .class_latency
                    .get_mut(class.shed_rank())
                    .map_or((0.0, 0.0), quantiles);
                ClassServeStats {
                    class,
                    completed: tenants
                        .iter()
                        .filter(|t| t.class == class)
                        .map(|t| t.completed)
                        .sum(),
                    p50_us,
                    p99_us,
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
            failure_rate: if offered > 0 {
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

/// The median and the 99th percentile of `h`, µs (zero when empty).
fn quantiles(h: &mut Histogram) -> (f64, f64) {
    (
        h.quantile(0.5).unwrap_or(0.0),
        h.quantile(0.99).unwrap_or(0.0),
    )
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
            r.failure_rate < 0.1,
            "light load mostly completes: {}",
            r.failure_rate
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

    /// Every reason `ServeEngine::new` refuses a configuration, one
    /// row each: the row's edit to a runnable mix and config must fail
    /// with exactly that reason.
    #[test]
    fn bad_configs_are_typed() {
        type Edit = fn(&mut Vec<ServeTenant>, &mut ServeConfig);
        let positive_load = "load multiplier must be positive and finite";
        let positive_rate = "bucket rate must be positive and finite";
        #[rustfmt::skip]
        let cases: [(Edit, &str); 14] = [
            (|t, _| t.clear(), "no tenants"),
            (|_, c| c.servers = 0, "zero pipeline servers"),
            (|_, c| c.queue_capacity = 0, "zero queue capacity"),
            (|_, c| c.load = f64::NAN, positive_load),
            (|_, c| c.load = f64::INFINITY, positive_load),
            (|_, c| c.load = 0.0, positive_load),
            (|_, c| c.bucket_qps_per_weight = f64::NAN, positive_rate),
            (|_, c| c.bucket_qps_per_weight = f64::INFINITY, positive_rate),
            (|_, c| c.bucket_qps_per_weight = -1.0, positive_rate),
            (|_, c| c.bucket_depth = 0.5, "bucket depth must hold at least one token"),
            (|t, _| t[1].queries.clear(), "a tenant has an empty query stream"),
            (|t, _| t[1].weight = 0, "tenant weights must be positive"),
            (|t, _| t[1].demand = 0, "tenant demand must be positive"),
            (|t, _| t[1].id = 0, "duplicate tenant id"),
        ];
        let be = || backend_with(&mix(2), 32);
        assert!(ServeEngine::new(&mix(2), ServeConfig::default(), be()).is_ok());
        for (edit, want) in cases {
            let (mut tenants, mut config) = (mix(2), ServeConfig::default());
            edit(&mut tenants, &mut config);
            let got = ServeEngine::new(&tenants, config, be()).err();
            assert!(
                matches!(got, Some(FvError::BadConfig { reason }) if reason == want),
                "{want}: got {got:?}"
            );
        }
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

    /// `n` single-query tenants of one class, weight and demand.
    fn uniform(
        ids: std::ops::Range<u32>,
        class: ServeClass,
        weight: u64,
        demand: u64,
    ) -> Vec<ServeTenant> {
        ids.map(|id| ServeTenant {
            id,
            class,
            weight,
            demand,
            queries: vec![select_spec(500)],
        })
        .collect()
    }

    /// An engine over `tenants` whose servers are all busy, so what is
    /// admitted stays queued until the test frees one.
    fn stalled(tenants: &[ServeTenant], config: ServeConfig) -> ServeEngine<SingleNodeBackend> {
        let mut e = ServeEngine::new(tenants, config, backend_with(tenants, 32)).unwrap();
        e.free_servers = 0;
        e
    }

    /// Token bucket. One tenant asking for 64× its contracted rate, with
    /// servers and queue to spare, completes no more than its bucket
    /// admits: `bucket_depth + rate × weight × horizon`.
    #[test]
    fn an_uncontended_over_demander_completes_at_most_its_bucket_allowance() {
        let tenants = uniform(0..1, ServeClass::Gold, 1, 64);
        let config = ServeConfig {
            bucket_qps_per_weight: 2_000.0,
            horizon: SimDuration::from_millis(10),
            ..ServeConfig::default()
        };
        let allowance = config.bucket_depth
            + config.bucket_qps_per_weight * config.horizon.as_micros_f64() / 1e6;
        let r = ServeEngine::new(&tenants, config, backend_with(&tenants, 64))
            .unwrap()
            .run();
        assert!(r.completed > 0, "the tenant made no progress");
        assert!(
            r.completed as f64 <= allowance,
            "{} completions past a bucket allowance of {allowance}",
            r.completed
        );
    }

    /// Shed. The queue is full — four bronze, then four gold — and every
    /// server is busy; a gold arrival is admitted, and the youngest
    /// bronze leaves the queue for it.
    #[test]
    fn a_gold_arrival_at_a_full_queue_is_admitted_while_bronze_is_above_its_floor() {
        let mut tenants = uniform(0..4, ServeClass::Bronze, 1, 1);
        tenants.extend(uniform(4..9, ServeClass::Gold, 1, 1));
        let config = ServeConfig {
            queue_capacity: 8,
            ..ServeConfig::default()
        };
        let mut e = stalled(&tenants, config);
        for flow in 0..8 {
            e.on_submit(flow, 0, SimTime::ZERO, 0);
        }
        assert_eq!(e.queue.len(), 8, "the queue did not fill");
        e.on_submit(8, 0, SimTime::ZERO, 0);
        assert_eq!(
            e.flows[8].stats.rejected, 0,
            "the gold arrival was turned away"
        );
        assert!(e.queue.back(8).is_some(), "the gold arrival is not queued");
        let shed: Vec<u64> = e.flows.iter().map(|f| f.stats.shed).collect();
        assert_eq!(shed, [0, 0, 0, 1, 0, 0, 0, 0, 0], "not the youngest bronze");
    }

    /// Shed floor. Gold over-demanders keep the queue full and shed
    /// whatever is below them, yet both bronze tenants still complete
    /// work: shedding stops at the class's floor.
    #[test]
    fn no_class_is_locked_out_by_higher_class_pressure() {
        let mut tenants = uniform(0..12, ServeClass::Gold, 1, 64);
        tenants.extend(uniform(12..14, ServeClass::Bronze, 1, 1));
        let config = ServeConfig {
            servers: 1,
            queue_capacity: 8,
            bucket_qps_per_weight: 1_000_000.0,
            load: 8.0,
            horizon: SimDuration::from_millis(10),
            ..ServeConfig::default()
        };
        let r = ServeEngine::new(&tenants, config, backend_with(&tenants, 64))
            .unwrap()
            .run();
        for t in &r.tenants {
            assert!(
                t.completed > 0,
                "{:?} tenant {} was locked out",
                t.class,
                t.tenant
            );
        }
    }

    /// `retry_after`. Past saturation, rejected queries retry once the
    /// bucket or the queue can take them, so none spends its whole
    /// retry budget and is abandoned.
    #[test]
    fn a_rejected_query_waits_for_the_drain_instead_of_spending_its_retries() {
        let r = run_at(16.0, 3);
        assert!(r.rejected > 0, "nothing was rejected");
        assert_eq!(
            r.abandoned, 0,
            "{} queries spent their retries",
            r.abandoned
        );
    }

    /// Deadline drop. Queries that waited past their deadline are
    /// dropped when a server frees up, not run.
    #[test]
    fn no_query_is_dispatched_after_its_deadline() {
        let tenants = uniform(0..3, ServeClass::Gold, 1, 1);
        let config = ServeConfig::default();
        let deadline = config.deadline;
        let mut e = stalled(&tenants, config);
        for flow in 0..3 {
            e.on_submit(flow, 0, SimTime::ZERO, 0);
        }
        assert_eq!(e.queue.len(), 3);
        e.now = SimTime::ZERO + deadline;
        e.free_servers = 1;
        e.dispatch();
        assert_eq!(e.free_servers, 1, "a query ran past its deadline");
        let missed: u64 = e.flows.iter().map(|f| f.stats.deadline_missed).sum();
        assert_eq!(missed, 3);
    }

    /// Weighted DRR. Four weight-4 and four weight-1 tenants, all
    /// always backlogged on one server with equal query costs: the
    /// heavy tenants complete about four times as many queries each.
    #[test]
    fn backlogged_tenants_complete_in_proportion_to_their_weights() {
        let mut tenants = uniform(0..4, ServeClass::Gold, 4, 64);
        tenants.extend(uniform(4..8, ServeClass::Gold, 1, 64));
        let config = ServeConfig {
            servers: 1,
            bucket_qps_per_weight: 1_000_000.0,
            horizon: SimDuration::from_millis(10),
            ..ServeConfig::default()
        };
        let r = ServeEngine::new(&tenants, config, backend_with(&tenants, 64))
            .unwrap()
            .run();
        let done = |w: u64| -> u64 {
            r.tenants
                .iter()
                .filter(|t| t.weight == w)
                .map(|t| t.completed)
                .sum()
        };
        let ratio = done(4) as f64 / done(1).max(1) as f64;
        assert!(
            (3.0..=5.0).contains(&ratio),
            "weight 4 : 1 served {ratio:.2} : 1"
        );
    }
}
