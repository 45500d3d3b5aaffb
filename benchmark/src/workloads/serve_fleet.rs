//! `serve_fleet`: the full stack on small tables.
//!
//! Why: twelve tenants with 64 KiB tables on a 4-node, twice-replicated
//! fleet behind the serving front end, driven past the knee. With 16 KiB
//! shards the per-query *fixed* costs dominate — planning, pipeline
//! compile, the fleet's scatter (thread spawn, not data), the client
//! merge and the serve loop's bookkeeping — which the two 1 MiB
//! workloads hide below 1 %. A plan/compiled-pipeline cache or a cheaper
//! scatter shows here and nowhere else.
//!
//! One round is one `ServeEngine::run`. Tenant queries enter as logical
//! plans: the backend decorator optimizes and lowers each one per
//! execution (`QueryPlan::from_spec → optimize → to_spec`, exactly what
//! `Executor::run_plan_fleet` does) before handing it to the
//! `FleetBackend`, so the planner is on the measured path.

use std::collections::BTreeMap;

use farview::core::plan::{shard_execution, MergeSpec};
use farview::core::{
    FTable, FarviewCluster, FarviewFleet, FleetBackend, FvError, Partitioning, PlanTarget, QPair,
    QueryOutcome, QueryPlan, ServeBackend, ServeClass, ServeConfig, ServeEngine, ServeTenant,
    ShardMap,
};
use farview::data::Table;
use farview::pipeline::{AggFunc, AggSpec, PipelineSpec, PredicateExpr};
use farview::sim::SimDuration;
use farview::workload::{MixClass, TableGen, TenantMixGen, TenantQuery, SELECTIVITY_PIVOT};

use crate::json::Json;
use crate::probes::{unit_costs, LayerCosts, MemProbe, Resident, UnitCosts};
use crate::stats::{digest_u64s, median, sub_seed, Checksum};
use crate::trace::{self_times, Tracer, NO_ROUND};
use crate::workload::{
    node_config, verify_against_oracle, RoundSample, Scale, SimCounters, Workload,
};

const NODES: usize = 4;
const REPLICAS: usize = 2;
const TENANTS: usize = 12;
const QUERIES_PER_TENANT: usize = 6;
/// Rows per tenant table at full scale: 1024 × 64 B = 64 KiB, 16 KiB per
/// shard.
const ROWS: usize = 1_024;
/// Offered load, as a multiple of the engine's calibration point: past
/// the knee, so reject / shed / retry bookkeeping runs every round.
const LOAD: f64 = 8.0;
const HORIZON_US: u64 = 300;
/// Seed of the tenant mix's *shape* (classes, query streams). It is not
/// derived from `--seed`: a mix that changes shape with the seed moves
/// the round time by ±10 % and the events per query by ±17 %, which
/// would drown the run-to-run comparison the seeds exist for. `--seed`
/// still draws every table and the arrival jitter.
const MIX_SEED: u64 = 0x5E27_EF1E;

/// Lower a generated tenant query onto a pipeline spec (c0 groups, c1
/// selectivity-calibrated, c2 aggregation values) — the harness's own
/// copy of the 20-line lowering, so nothing here imports `fv-bench`.
fn lower(q: &TenantQuery) -> PipelineSpec {
    let sum_or_avg =
        |func| PipelineSpec::passthrough().group_by(vec![0], vec![AggSpec { col: 2, func }]);
    match *q {
        TenantQuery::Select { selectivity } => {
            let threshold = if selectivity <= 0.5 {
                (2.0 * selectivity * SELECTIVITY_PIVOT as f64) as u64
            } else {
                let above = ((1u64 << 63) - SELECTIVITY_PIVOT) as f64;
                SELECTIVITY_PIVOT + (2.0 * (selectivity - 0.5) * above) as u64
            };
            PipelineSpec::passthrough().filter(PredicateExpr::lt(1, threshold))
        }
        TenantQuery::Distinct => PipelineSpec::passthrough().distinct(vec![0]),
        TenantQuery::GroupBySum => sum_or_avg(AggFunc::Sum),
        TenantQuery::GroupByAvg => sum_or_avg(AggFunc::Avg),
    }
}

fn serve_class(c: MixClass) -> ServeClass {
    match c {
        MixClass::Gold => ServeClass::Gold,
        MixClass::Silver => ServeClass::Silver,
        MixClass::Bronze => ServeClass::Bronze,
    }
}

/// What the decorator accumulates over one engine run.
#[derive(Default)]
struct RunAcc {
    sim: SimCounters,
    /// Executions per distinct spec (by fingerprint).
    by_spec: BTreeMap<u64, u64>,
}

/// The `ServeBackend` decorator: plans each query, forwards it to the
/// fleet backend, times both and collects the simulated statistics.
struct TimedBackend<'a> {
    inner: &'a mut FleetBackend,
    tables: &'a [Table],
    target: PlanTarget,
    tr: &'a mut Tracer,
    acc: &'a mut RunAcc,
}

impl ServeBackend for TimedBackend<'_> {
    fn execute(&mut self, tenant: u32, query: &PipelineSpec) -> Result<QueryOutcome, FvError> {
        let whole = self.tr.begin("backend.execute", "serve");
        let plan = self.tr.begin("plan.optimize", "plan");
        let lowered = self
            .tables
            .get(tenant as usize)
            .ok_or(FvError::UnknownTenant { tenant })
            .and_then(|t| QueryPlan::from_spec(query, self.target).optimize(t.schema()))
            .and_then(|p| p.to_spec());
        self.tr.end(plan);
        let res = lowered.and_then(|spec| {
            let fleet = self.tr.begin("fleet.far_view", "fleet");
            let res = self.inner.execute(tenant, &spec);
            self.tr.end(fleet);
            res
        });
        self.tr.end(whole);
        if let Ok(out) = &res {
            self.acc.sim.add_query(&out.stats);
            *self.acc.by_spec.entry(query.fingerprint()).or_default() += 1;
        }
        res
    }

    fn cost(&self, tenant: u32) -> u64 {
        self.inner.cost(tenant)
    }
}

pub struct ServeFleet {
    _fleet: FarviewFleet,
    backend: FleetBackend,
    target: PlanTarget,
    tenants: Vec<ServeTenant>,
    tables: Vec<Table>,
    config: ServeConfig,
    /// Checksum each `(tenant, query_idx)` completion must carry.
    expect: Vec<Vec<Checksum>>,
    /// The equivalent single node: shard-sized slices of tenant 0's
    /// table, for the single-node layer probes and the merge probe.
    _single: FarviewCluster,
    single_qp: QPair,
    shards: Vec<(Table, FTable)>,
    /// Executions per distinct spec, and the counters, of the last
    /// round (every round's: they are deterministic).
    mix: BTreeMap<u64, u64>,
    last: SimCounters,
}

impl ServeFleet {
    pub fn set_up(seed: u64, scale: Scale) -> Result<ServeFleet, String> {
        let cfg = node_config();
        let err = |e: FvError| e.to_string();
        let mix = TenantMixGen::new(TENANTS)
            .queries_per_tenant(QUERIES_PER_TENANT)
            .overdemand(3, 4)
            .seed(MIX_SEED)
            .build();
        let tenants: Vec<ServeTenant> = mix
            .tenants
            .iter()
            .map(|t| ServeTenant {
                id: t.id as u32,
                class: serve_class(t.class),
                weight: t.weight,
                demand: t.demand,
                queries: t.queries.iter().map(lower).collect(),
            })
            .collect();

        let fleet = FarviewFleet::new(NODES, cfg.clone());
        let mut backend = FleetBackend::new(fleet.connect().map_err(err)?);
        let single = FarviewCluster::new(cfg.clone());
        let single_qp = single.connect().map_err(err)?;
        let mut tables = Vec::with_capacity(TENANTS);
        let mut target = None;
        for t in &tenants {
            let table = TableGen::new(8, scale.rows(ROWS))
                .seed(sub_seed(seed, "serve_fleet.table") ^ u64::from(t.id))
                .distinct_column(0, 32)
                .selectivity_column(1, 0.5)
                .sequential_column(2)
                .build();
            let (ft, _) = backend
                .load_table_replicated(&table, Partitioning::RowRange, REPLICAS)
                .map_err(err)?;
            target = Some(ft.plan_target());
            backend.bind_tenant(t.id, ft, table.byte_len() as u64);
            tables.push(table);
        }
        let target = target.ok_or("no tenants")?;

        // Correctness gate: every (tenant, query) through the fleet
        // backend must equal both the CpuEngine oracle and the same
        // query on one node holding the whole table.
        let mut expect = Vec::with_capacity(TENANTS);
        for (t, table) in tenants.iter().zip(&tables) {
            let (whole, _) = single_qp.load_table(table).map_err(err)?;
            let mut sums = Vec::with_capacity(t.queries.len());
            for (i, spec) in t.queries.iter().enumerate() {
                let what = format!("serve_fleet/tenant{}/q{i}", t.id);
                let fleet_out = backend.execute(t.id, spec).map_err(err)?;
                let sum = verify_against_oracle(&what, table, spec, &fleet_out.payload)?;
                let node_out = single_qp.far_view(&whole, spec).map_err(err)?;
                if node_out.payload != fleet_out.payload {
                    return Err(format!(
                        "{what}: fleet result differs from the single node's"
                    ));
                }
                sums.push(sum);
            }
            single_qp.free_table(whole).map_err(err)?;
            expect.push(sums);
        }

        // Shard-sized slices of tenant 0's table on the single node.
        let t0 = &tables[0];
        let row_bytes = t0.schema().row_bytes();
        let images = ShardMap::new(NODES)
            .assign(Partitioning::RowRange, t0.schema(), t0.bytes())
            .map_err(err)?
            .scatter(row_bytes, t0.bytes());
        let mut shards = Vec::with_capacity(NODES);
        for image in images {
            let shard = Table::from_bytes(t0.schema().clone(), image);
            let (ft, _) = single_qp.load_table(&shard).map_err(err)?;
            shards.push((shard, ft));
        }

        let config = ServeConfig {
            servers: 2,
            queue_capacity: 8,
            bucket_qps_per_weight: 100_000.0,
            load: LOAD,
            horizon: SimDuration::from_micros(HORIZON_US),
            seed: sub_seed(seed, "serve_fleet.jitter"),
            keep_payloads: true,
            ..ServeConfig::default()
        };
        Ok(ServeFleet {
            _fleet: fleet,
            backend,
            target,
            tenants,
            tables,
            config,
            expect,
            _single: single,
            single_qp,
            shards,
            mix: BTreeMap::new(),
            last: SimCounters::default(),
        })
    }

    /// The distinct specs of the mix, by fingerprint.
    fn distinct_specs(&self) -> BTreeMap<u64, PipelineSpec> {
        self.tenants
            .iter()
            .flat_map(|t| &t.queries)
            .map(|q| (q.fingerprint(), q.clone()))
            .collect()
    }
}

impl Workload for ServeFleet {
    fn round(&mut self, tr: &mut Tracer) -> RoundSample {
        let mut s = RoundSample::default();
        let mut acc = RunAcc::default();
        let run = tr.begin("serve.run", "serve");
        let report = ServeEngine::new(
            &self.tenants,
            self.config.clone(),
            TimedBackend {
                inner: &mut self.backend,
                tables: &self.tables,
                target: self.target,
                tr: &mut *tr,
                acc: &mut acc,
            },
        )
        .map(ServeEngine::run);
        s.host_ns = tr.end(run);
        let Ok(report) = report else {
            s.attempted = 1;
            s.failed = 1;
            return s;
        };
        s.attempted = report.offered;
        s.failed = report.abandoned + report.deadline_missed + report.exec_failed;
        for c in &report.completions {
            let ok = self
                .expect
                .get(c.tenant as usize)
                .and_then(|sums| sums.get(c.query_idx))
                .is_some_and(|want| *want == Checksum::of(&c.payload));
            if ok {
                s.scan_bytes += self.tables[c.tenant as usize].byte_len() as u64;
            } else {
                s.failed += 1;
            }
        }
        s.sim = acc.sim;
        s.sim.sim_ns = report.horizon.as_nanos();
        s.sim.sim_queries = report.completed;
        s.sim.offered = report.offered;
        s.sim.completed = report.completed;
        s.sim.rejected = report.rejected;
        s.sim.shed = report.shed;
        s.sim.deadline_missed = report.deadline_missed;
        s.sim.abandoned = report.abandoned;
        s.sim.exec_failed = report.exec_failed;
        self.mix = acc.by_spec;
        self.last = s.sim;
        s
    }

    fn probe(&mut self, tr: &mut Tracer, reps: usize) -> Result<LayerCosts, String> {
        let mut out = LayerCosts::default();
        let err = |e: FvError| e.to_string();

        // serve: from the traced rounds' spans. Self time of `serve.run`
        // is the run minus the backend executions beneath it.
        let selfs = self_times(tr.spans());
        let mut runs = Vec::new();
        let mut run_selfs = Vec::new();
        let mut backend: BTreeMap<u32, f64> = BTreeMap::new();
        let mut fleet: BTreeMap<u32, f64> = BTreeMap::new();
        let (mut plan_ns, mut fleet_call_ns) = (Vec::new(), Vec::new());
        for (sp, self_ns) in tr.spans().iter().zip(&selfs) {
            if sp.round == NO_ROUND {
                continue;
            }
            let ns = sp.duration_ns() as f64;
            match sp.name {
                "serve.run" => {
                    runs.push(ns);
                    run_selfs.push(*self_ns as f64);
                }
                "backend.execute" => *backend.entry(sp.round).or_default() += ns,
                "fleet.far_view" => {
                    *fleet.entry(sp.round).or_default() += ns;
                    fleet_call_ns.push(ns);
                }
                "plan.optimize" => plan_ns.push(ns),
                _ => {}
            }
        }
        if runs.is_empty() {
            return Err("serve_fleet probe needs traced rounds".into());
        }
        // Rounds are deterministic: the last one's counters and
        // per-spec execution mix are every round's.
        let c = self.last;
        let serve_self = median(&run_selfs);
        out.set("serve.run_us", median(&runs) / 1e3);
        out.set(
            "serve.backend_us",
            median(&backend.into_values().collect::<Vec<_>>()) / 1e3,
        );
        out.set(
            "serve.self_ns_per_offered",
            serve_self / c.offered.max(1) as f64,
        );
        out.set("serve.offered", c.offered as f64);
        out.set("serve.completed", c.completed as f64);
        out.set("serve.rejected", c.rejected as f64);
        out.set("serve.shed", c.shed as f64);
        // Admission attempts = first submissions + every rejected or
        // shed attempt that had to come back.
        out.set(
            "serve.useful_ratio",
            c.completed as f64 / (c.offered + c.rejected + c.shed).max(1) as f64,
        );
        out.per_round.serve = serve_self;

        // plan: the optimizer as the decorator runs it, and the fleet's
        // own shard planning, per query shape.
        let executed = c.executed as f64;
        let optimize_ns = median(&plan_ns);
        out.set("plan.optimize_ns", optimize_ns);
        let specs = self.distinct_specs();
        let schema = self.tables[0].schema().clone();
        let mut shard_plan_ns = Vec::new();
        for spec in specs.values() {
            for _ in 0..reps {
                let o = tr.begin("plan.shard_execution", "plan");
                let planned = shard_execution(spec, &schema);
                shard_plan_ns.push(tr.end(o) as f64);
                std::hint::black_box(planned.map_err(err)?);
            }
        }
        let shard_plan = median(&shard_plan_ns);
        out.set("plan.shard_execution_ns", shard_plan);
        out.per_round.plan_compile += (optimize_ns + shard_plan) * executed;

        // fleet: the calls as they ran inside the traced rounds. Per
        // distinct spec, the slowest shard-sized single-node call and
        // the client merge are probed; what is left of the fleet call
        // is the scatter's own overhead.
        let fleet_ns = median(&fleet.into_values().collect::<Vec<_>>());
        let mut mem = MemProbe::new();
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1)
            .min(NODES);
        let (mut shard_ns, mut merge_ns, mut merge_rows) = (0.0, 0.0, 0.0);
        let mut slowest_units: Vec<(UnitCosts, f64)> = Vec::new();
        for (fp, spec) in &specs {
            let count = self.mix.get(fp).copied().unwrap_or(0) as f64;
            if count == 0.0 {
                continue;
            }
            let (shard_spec, merge) = shard_execution(spec, &schema).map_err(err)?;
            let mut slowest: Option<UnitCosts> = None;
            let mut payloads = Vec::with_capacity(self.shards.len());
            for (table, ft) in &self.shards {
                let on = Resident {
                    qp: &self.single_qp,
                    ft,
                    table,
                };
                let u = unit_costs(tr, reps, &mut mem, on, std::slice::from_ref(&shard_spec))?;
                if slowest.is_none_or(|s| u.far_view_ns > s.far_view_ns) {
                    slowest = Some(u);
                }
                payloads.push(
                    self.single_qp
                        .far_view(ft, &shard_spec)
                        .map_err(err)?
                        .payload,
                );
            }
            let slowest = slowest.ok_or("no shards")?;
            let mut merges = Vec::with_capacity(reps);
            let mut rows = 0u64;
            for _ in 0..reps {
                let o = tr.begin("merge", "merge");
                match &merge {
                    MergeSpec::Aggregate(plan) => {
                        let (merged, partial_rows) = plan.merge(&payloads);
                        rows = partial_rows;
                        std::hint::black_box(merged);
                    }
                    MergeSpec::Concat => {
                        let mut merged = Vec::with_capacity(payloads.iter().map(Vec::len).sum());
                        for p in &payloads {
                            merged.extend_from_slice(p);
                        }
                        rows = (merged.len() / schema.row_bytes().max(1)) as u64;
                        std::hint::black_box(merged);
                    }
                }
                merges.push(tr.end(o) as f64);
            }
            shard_ns += slowest.far_view_ns * count;
            merge_ns += median(&merges) * count;
            merge_rows += rows as f64 * count;
            slowest_units.push((slowest, count));
        }
        let overhead_ns = fleet_ns - shard_ns - merge_ns - shard_plan * executed;
        out.set("fleet.far_view_us", median(&fleet_call_ns) / 1e3);
        out.set(
            "fleet.scatter_overhead_us",
            overhead_ns / executed.max(1.0) / 1e3,
        );
        out.set("fleet.workers", workers as f64);
        out.set(
            "merge.ns_per_row",
            if merge_rows > 0.0 {
                merge_ns / merge_rows
            } else {
                0.0
            },
        );
        out.set("merge.rows", merge_rows);
        out.per_round.fleet_merge = overhead_ns + merge_ns;

        // The slowest shard's single-node layers stand for the part of
        // each fleet call that is neither scatter nor merge.
        crate::workloads::SingleNodeTotals {
            units: slowest_units,
        }
        .emit(&mut out, &mem);
        Ok(out)
    }

    fn script_digest(&self) -> u64 {
        let mut words = Vec::new();
        for (t, sums) in self.tenants.iter().zip(&self.expect) {
            words.extend([
                u64::from(t.id),
                t.weight,
                t.demand,
                t.class.shed_rank() as u64,
            ]);
            for (q, sum) in t.queries.iter().zip(sums) {
                words.extend([q.fingerprint(), sum.len, sum.fnv]);
            }
        }
        digest_u64s(&words)
    }

    fn params(&self) -> Json {
        Json::obj()
            .set(
                "entry_point",
                "ServeEngine::run over FleetBackend behind a planning + timing ServeBackend decorator",
            )
            .set("nodes", NODES)
            .set("replicas", REPLICAS)
            .set("partitioning", "RowRange")
            .set("tenants", TENANTS)
            .set("queries_per_tenant", QUERIES_PER_TENANT)
            .set("overdemand", "every 3rd tenant x4")
            .set("mix_seed", format!("{MIX_SEED:#x} (fixed: the mix keeps its shape across --seed)"))
            .set("rows_per_tenant", self.tables[0].row_count())
            .set("bytes_per_tenant", self.tables[0].byte_len())
            .set("servers", self.config.servers)
            .set("queue_capacity", self.config.queue_capacity)
            .set("bucket_qps_per_weight", self.config.bucket_qps_per_weight)
            .set("load", self.config.load)
            .set("horizon_us", self.config.horizon.as_micros_f64())
            .set("keep_payloads", true)
    }
}
