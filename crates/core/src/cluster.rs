//! The client-facing API: connections, tables, queries.
//!
//! Maps the paper's C interface (§4.2) onto Rust:
//!
//! ```text
//! bool openConnection(QPair*, FView*)        -> FarviewCluster::connect()
//! bool allocTableMem(QPair*, FTable*)        -> QPair::alloc_table()
//! void freeTableMem(QPair*, FTable*)         -> QPair::free_table()
//! void tableRead(QPair*, FTable*)            -> QPair::table_read()
//! void tableWrite(QPair*, FTable*)           -> QPair::table_write()
//! void farView(QPair*, FTable*, u64* params) -> QPair::far_view()
//! void select(...)                           -> QPair::select()
//! ```

use std::sync::{Arc, Mutex};

use fv_data::{Row, Schema, Table, Value};
use fv_mem::{DomainId, MemoryStack, PageView, VirtAddr};
use fv_pipeline::{AggSpec, CompiledPipeline, CryptoSpec, PipelineSpec, PredicateExpr};
use fv_sim::calib::CPU_DEDUP_NS;
use fv_sim::SimDuration;

use crate::config::FarviewConfig;
use crate::episode::{self, PreparedQuery};
use crate::error::FvError;
use crate::lock;
use crate::tiered::PageChunks;

/// Bits reserved in a stream id for the WQE index of a doorbell batch:
/// stream id = `qp << QP_STREAM_BITS | wqe`.
const QP_STREAM_BITS: u32 = 10;

/// Deepest doorbell batch one queue pair can post (send-queue length);
/// bounded so batched stream ids never collide across queue pairs.
pub const MAX_QUEUE_DEPTH: usize = 1 << QP_STREAM_BITS;

/// Refuse a doorbell batch deeper than the send queue, typed.
pub(crate) fn check_queue_depth(depth: usize) -> Result<(), FvError> {
    if depth > MAX_QUEUE_DEPTH {
        return Err(FvError::BatchTooDeep {
            depth,
            max: MAX_QUEUE_DEPTH,
        });
    }
    Ok(())
}

/// Backoff hint attached to [`FvError::NoFreeRegion`]: a region frees
/// when some holder disconnects, which the node cannot predict, so the
/// hint is a few typical episode times — long enough that a polling
/// client does not hammer the connection path, short enough that a
/// freed region is picked up promptly. Connection open under region
/// exhaustion is thereby a *retryable backpressure signal* with the
/// same `retry_after` shape as the serving layer's admission control.
pub(crate) const CONNECT_RETRY_AFTER: SimDuration = SimDuration::from_micros(50);

/// Per-query statistics, the unit every figure in `EXPERIMENTS.md` is
/// built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Client-observed response time (request post → result in client
    /// memory), the paper's measurement (§6.2).
    pub response_time: SimDuration,
    /// Result payload bytes.
    pub result_bytes: u64,
    /// Bytes streamed out of disaggregated DRAM.
    pub bytes_from_memory: u64,
    /// Bytes on the wire (payload + packet headers).
    pub bytes_on_wire: u64,
    /// Response packets.
    pub packets: u64,
    /// Tuples entering the pipeline.
    pub tuples_in: u64,
    /// Tuples surviving to the packer.
    pub tuples_out: u64,
    /// Cuckoo overflow tuples needing client-side software handling.
    pub overflow_tuples: u64,
    /// Duplicates the LRU shift register absorbed.
    pub hazard_catches: u64,
    /// Groups flushed by group-by.
    pub groups_flushed: u64,
    /// Client CPU time to post-process overflow tuples (software dedup /
    /// merge, §5.4) — *not* part of `response_time`.
    pub client_postprocess: SimDuration,
    /// Whether this query had to partially reconfigure the region
    /// (swapping pipelines costs milliseconds, §3.2, outside the query).
    pub reconfigured: bool,
    /// Discrete events simulated (diagnostics).
    pub sim_events: u64,
}

/// Result of a query: real bytes plus stats.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Raw result payload, packed in the output schema's row format.
    pub payload: Vec<u8>,
    /// Schema of the result tuples.
    pub schema: Schema,
    /// Statistics.
    pub stats: QueryStats,
}

impl AsRef<QueryOutcome> for QueryOutcome {
    fn as_ref(&self) -> &QueryOutcome {
        self
    }
}

impl QueryOutcome {
    /// Decode the payload into owned rows.
    ///
    /// Allocates one `Row` (plus one `Value` per column) for every
    /// result row — convenient, but a real cost on hot paths. Prefer
    /// [`QueryOutcome::iter_rows`] wherever a borrowed view suffices.
    pub fn rows(&self) -> Vec<Row> {
        self.iter_rows().map(|v| v.to_row()).collect()
    }

    /// Iterate the payload as borrowed [`fv_data::RowView`]s — zero
    /// copies, zero allocations; values decode lazily per column access.
    ///
    /// # Panics
    /// Panics if the payload is not a whole number of rows (schema
    /// mismatch).
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = fv_data::RowView<'_>> + '_ {
        fv_data::iter_rows(&self.schema, &self.payload)
    }

    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        self.payload.len() / self.schema.row_bytes()
    }
}

/// A remote table handle: the address information a client keeps to
/// reach a table ("local catalog information that is used to determine
/// the addresses of the tables to be accessed", §4.1) — its allocation
/// in the disaggregated buffer pool, schema and row count.
#[derive(Debug, Clone)]
pub struct FTable {
    qp: u32,
    vaddr: VirtAddr,
    schema: Schema,
    rows: usize,
}

impl FTable {
    /// Virtual address of the table in the buffer pool.
    pub fn vaddr(&self) -> VirtAddr {
        self.vaddr
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Byte footprint.
    pub fn byte_len(&self) -> u64 {
        (self.rows * self.schema.row_bytes()) as u64
    }

    /// A view of rows `[lo, hi)` of this allocation — same connection,
    /// same protection domain, an interior virtual address. The
    /// rebalancer's copy episodes read exactly the moved row ranges
    /// through these views instead of streaming whole shards.
    #[expect(
        clippy::disallowed_macros,
        reason = "the rebalancer slices ranges it coalesced from this table's own rows"
    )]
    pub(crate) fn row_slice(&self, lo: usize, hi: usize) -> FTable {
        assert!(lo <= hi && hi <= self.rows, "row slice out of bounds");
        FTable {
            qp: self.qp,
            vaddr: self.vaddr + (lo * self.schema.row_bytes()) as u64,
            schema: self.schema.clone(),
            rows: hi - lo,
        }
    }
}

/// A `SELECT`-shaped query for the [`QPair::select`] convenience wrapper
/// (the paper's `select(qp, ft, projection_flags, selection_flags,
/// predicate)`).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    projection: Option<Vec<usize>>,
    predicate: PredicateExpr,
    vectorize: bool,
}

impl SelectQuery {
    /// `SELECT * ...` with no predicate yet.
    pub fn all_columns() -> Self {
        SelectQuery {
            projection: None,
            predicate: PredicateExpr::True,
            vectorize: false,
        }
    }

    /// `SELECT <cols> ...`.
    pub fn columns(cols: Vec<usize>) -> Self {
        SelectQuery {
            projection: Some(cols),
            predicate: PredicateExpr::True,
            vectorize: false,
        }
    }

    fn add(mut self, p: PredicateExpr) -> Self {
        self.predicate = match self.predicate {
            PredicateExpr::True => p,
            existing => existing.and(p),
        };
        self
    }

    /// `AND col < value`.
    pub fn and_lt(self, col: usize, value: impl Into<Value>) -> Self {
        self.add(PredicateExpr::lt(col, value))
    }

    /// Use the vectorized execution model (§5.3).
    pub fn vectorized(mut self) -> Self {
        self.vectorize = true;
        self
    }

    /// Lower into a pipeline spec.
    pub fn to_spec(&self) -> PipelineSpec {
        let mut spec = PipelineSpec::passthrough();
        if let Some(cols) = &self.projection {
            spec = spec.project(cols.clone());
        }
        if self.predicate != PredicateExpr::True {
            spec = spec.filter(self.predicate.clone());
        }
        if self.vectorize {
            spec = spec.vectorized();
        }
        spec
    }
}

struct Inner {
    config: FarviewConfig,
    mem: MemoryStack,
    /// Region slot -> queue pair bound to it.
    slots: Vec<Option<u32>>,
    /// Fingerprint of the pipeline currently loaded per region.
    loaded: Vec<Option<u64>>,
    next_qp: u32,
    reconfigurations: u64,
    /// Queries whose datapath actually executed on this node — counted
    /// once the episode engine returns success, so failed episodes do
    /// not inflate it. `tests/fleet_props.rs` counts these to prove a
    /// replicated fleet runs each slot's datapath once, not once per
    /// replica.
    episodes: u64,
}

impl Inner {
    fn slot_of(&self, qp: u32) -> Option<usize> {
        self.slots.iter().position(|s| *s == Some(qp))
    }
}

/// Queries staged for one episode — what the engine runs, and what
/// turning its results into outcomes needs.
#[derive(Default)]
struct Staged {
    queries: Vec<PreparedQuery>,
    /// Per query, the view of node pages it streams (`None` under smart
    /// addressing: the query gathered its own bytes from the view).
    views: Vec<Option<PageView>>,
    /// Per query, `(output schema, reconfigured)`.
    metas: Vec<(Schema, bool)>,
}

impl Staged {
    /// Stage one compiled query as stream `stream`: plan its bursts (or
    /// gather its bytes, under smart addressing), then load its pipeline
    /// into the connection's region. Compilation already happened, for
    /// the whole submission, so the only refusal left is the memory
    /// stack's on the table's first touch — before this query changes
    /// any region state.
    ///
    /// No table is copied: the query streams a [`PageView`] of the node
    /// pages that hold it, and `view` is that view once some query of
    /// the submission has taken it, so every query over the same table
    /// shares it. Bursts are still planned per query — TLB hits and
    /// misses are simulated state — and a repeated view would only have
    /// re-translated, in the same order, the pages the plan just did.
    fn stage(
        &mut self,
        inner: &mut Inner,
        qpair: &QPair,
        ft: &FTable,
        pipeline: CompiledPipeline,
        stream: u32,
        view: &mut Option<PageView>,
    ) -> Result<(), FvError> {
        let slot = inner.slot_of(qpair.qp).ok_or(FvError::Disconnected)?;
        let bytes = ft.byte_len();
        let mut table = |inner: &mut Inner| -> Result<PageView, FvError> {
            if let Some(taken) = view.as_ref() {
                return Ok(taken.clone());
            }
            let taken = inner.mem.view(qpair.domain, ft.vaddr, bytes)?;
            Ok(view.insert(taken).clone())
        };
        let (bursts, data, sa_tuples) = if let Some(sa) = pipeline.smart_addressing() {
            // Smart addressing: gather only the projected bytes, per
            // tuple, from the pages in place; only a row straddling a
            // page is stitched first.
            let table = table(inner)?;
            let mut gathered = Vec::with_capacity(ft.rows * sa.bytes_per_tuple);
            let mut straddler = Vec::new();
            for r in 0..ft.rows {
                let at = r * sa.row_bytes;
                let row = table.contiguous(at..at + sa.row_bytes, &mut straddler);
                sa.gather(row, 0, &mut gathered);
            }
            self.views.push(None);
            (Vec::new(), gathered, Some(ft.rows as u64))
        } else if bytes == 0 {
            self.views.push(None);
            (Vec::new(), Vec::new(), None)
        } else {
            let bursts = inner.mem.plan_bursts(qpair.domain, ft.vaddr, bytes)?;
            self.views.push(Some(table(inner)?));
            (bursts, Vec::new(), None)
        };

        let fingerprint = pipeline.spec().fingerprint();
        let loaded = inner.loaded.get_mut(slot).ok_or(FvError::Disconnected)?;
        let reconfigured = loaded.replace(fingerprint) != Some(fingerprint);
        if reconfigured {
            inner.reconfigurations += 1;
        }
        self.metas
            .push((pipeline.out_schema().clone(), reconfigured));
        let vector_lanes = if pipeline.spec().vectorize {
            inner.config.vector_lanes as u64
        } else {
            1
        };
        self.queries.push(PreparedQuery {
            qp: stream,
            slot,
            pipeline,
            bursts,
            data,
            sa_tuples,
            vector_lanes,
        });
        Ok(())
    }

    /// The staged queries as one doorbell batch, and their metas.
    fn into_batch(self) -> (episode::BatchRun, Vec<(Schema, bool)>) {
        let batch = episode::BatchRun::over_views(self.queries, self.views);
        (batch, self.metas)
    }
}

/// A Farview deployment: one smart-memory node plus client connections.
#[derive(Clone)]
pub struct FarviewCluster {
    inner: Arc<Mutex<Inner>>,
}

impl FarviewCluster {
    /// Bring up a node with the given configuration.
    #[expect(
        clippy::panic,
        reason = "an infallible constructor: a node cannot come up on a configuration `validate` refuses"
    )]
    pub fn new(config: FarviewConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let mem = MemoryStack::with_tlb_capacity(
            config.channels,
            config.channel_bytes,
            config.tlb_entries,
        );
        let slots = vec![None; config.regions];
        let loaded = vec![None; config.regions];
        FarviewCluster {
            inner: Arc::new(Mutex::new(Inner {
                config,
                mem,
                slots,
                loaded,
                next_qp: 1,
                reconfigurations: 0,
                episodes: 0,
            })),
        }
    }

    /// `openConnection`: bind a new queue pair to a free dynamic region.
    ///
    /// # Errors
    /// Under region exhaustion returns the retryable
    /// [`FvError::NoFreeRegion`] backpressure signal — its
    /// `retry_after` (`CONNECT_RETRY_AFTER`, 50 µs) tells the client when to
    /// try again; a waiting tenant eventually connects once any holder
    /// disconnects.
    pub fn connect(&self) -> Result<QPair, FvError> {
        let mut inner = lock(&self.inner);
        let qp = inner.next_qp;
        let regions = inner.config.regions;
        let (slot, free) = inner
            .slots
            .iter_mut()
            .enumerate()
            .find(|(_, s)| s.is_none())
            .ok_or(FvError::NoFreeRegion {
                regions,
                retry_after: CONNECT_RETRY_AFTER,
            })?;
        *free = Some(qp);
        inner.next_qp += 1;
        let domain = inner.mem.create_domain();
        Ok(QPair {
            inner: Arc::clone(&self.inner),
            qp,
            slot,
            domain,
            connected: true,
        })
    }

    /// Degrade (or heal) this node's client-facing link: every episode
    /// started after the call — reads *and* writes — runs against the
    /// plan's injected faults. Setting a benign plan (the default)
    /// restores the native link.
    ///
    /// # Errors
    /// [`FvError::Net`] with [`fv_net::NetError::InvalidFaultPlan`] when
    /// a plan parameter is out of range ([`fv_net::FaultPlan::validate`]);
    /// the node keeps its current plan.
    pub fn set_fault_plan(&self, plan: fv_net::FaultPlan) -> Result<(), FvError> {
        plan.validate()?;
        lock(&self.inner).config.fault = plan;
        Ok(())
    }

    /// Total partial reconfigurations performed so far.
    pub fn reconfigurations(&self) -> u64 {
        lock(&self.inner).reconfigurations
    }

    /// Queries whose datapath executed on this node so far (one per
    /// prepared query the episode engine ran — replica reads that were
    /// *modeled* rather than executed do not count).
    pub fn episodes_run(&self) -> u64 {
        lock(&self.inner).episodes
    }

    /// Free pages left in the disaggregated buffer pool.
    pub fn free_pages(&self) -> u64 {
        lock(&self.inner).mem.free_page_count()
    }

    /// Bytes of host memory the buffer pool occupies: what was written
    /// to tables still allocated, not the node's capacity.
    pub fn resident_bytes(&self) -> u64 {
        lock(&self.inner).mem.resident_bytes()
    }

    /// Run several queries *concurrently* in one simulation — the
    /// multi-client experiment (Figure 12): one request per connection,
    /// results in request order. A connection named twice is
    /// [`FvError::DuplicateConnection`], refused before any region is
    /// touched — depth on one connection is what
    /// [`QPair::far_view_batch`] is for.
    pub fn run_concurrent(
        &self,
        requests: Vec<(&QPair, &FTable, PipelineSpec)>,
    ) -> Result<Vec<QueryOutcome>, FvError> {
        let mut seen = Vec::with_capacity(requests.len());
        for (qpair, ..) in &requests {
            if seen.contains(&qpair.qp) {
                return Err(FvError::DuplicateConnection { qp: qpair.qp });
            }
            seen.push(qpair.qp);
        }
        // Compile (and so verify) the whole submission first: a request
        // refused here has touched no region, counter or TLB entry.
        let mut compiled = Vec::with_capacity(requests.len());
        for (qpair, ft, spec) in requests {
            qpair.check_table(ft)?;
            compiled.push((qpair, ft, CompiledPipeline::compile(spec, &ft.schema)?));
        }
        let mut inner = lock(&self.inner);
        let mut batches = Vec::with_capacity(compiled.len());
        let mut metas = Vec::with_capacity(compiled.len());
        for (qpair, ft, pipeline) in compiled {
            // One request per connection: each is its own depth-1 batch.
            let mut staged = Staged::default();
            staged.stage(&mut inner, qpair, ft, pipeline, qpair.qp, &mut None)?;
            let (batch, meta) = staged.into_batch();
            batches.push(batch);
            metas.extend(meta);
        }
        let config = inner.config.clone();
        drop(inner);
        let results = episode::run_batched_episodes(batches, &config)?;
        lock(&self.inner).episodes += results.len() as u64;
        Ok(results
            .into_iter()
            .flatten()
            .zip(metas)
            .map(|(r, (schema, reconfigured))| finish_outcome(r, schema, reconfigured).0)
            .collect())
    }
}

/// A query's outcome, and the pipeline it ran.
fn finish_outcome(
    r: episode::EpisodeResult,
    schema: Schema,
    reconfigured: bool,
) -> (QueryOutcome, CompiledPipeline) {
    let p = r.pipeline.stats();
    let outcome = QueryOutcome {
        stats: QueryStats {
            response_time: r.response_time,
            result_bytes: r.payload.len() as u64,
            bytes_from_memory: p.bytes_in,
            bytes_on_wire: r.wire_bytes,
            packets: r.packets,
            tuples_in: p.tuples_in,
            tuples_out: p.tuples_out,
            overflow_tuples: p.overflow_tuples,
            hazard_catches: p.hazard_catches,
            groups_flushed: p.groups_flushed,
            client_postprocess: SimDuration::from_nanos(p.overflow_tuples * CPU_DEDUP_NS),
            reconfigured,
            sim_events: r.events,
        },
        payload: r.payload,
        schema,
    };
    (outcome, r.pipeline)
}

/// A client connection bound to one dynamic region.
pub struct QPair {
    inner: Arc<Mutex<Inner>>,
    qp: u32,
    slot: usize,
    domain: DomainId,
    connected: bool,
}

impl std::fmt::Debug for QPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QPair")
            .field("qp", &self.qp)
            .field("slot", &self.slot)
            .field("connected", &self.connected)
            .finish()
    }
}

impl QPair {
    /// The queue-pair id.
    pub fn id(&self) -> u32 {
        self.qp
    }

    fn check_table(&self, ft: &FTable) -> Result<(), FvError> {
        if !self.connected {
            return Err(FvError::Disconnected);
        }
        if ft.qp != self.qp {
            return Err(FvError::ForeignTable);
        }
        Ok(())
    }

    /// `allocTableMem`: allocate buffer-pool space for a table shape.
    pub fn alloc_table_spec(&self, schema: &Schema, rows: usize) -> Result<FTable, FvError> {
        if !self.connected {
            return Err(FvError::Disconnected);
        }
        let bytes = (rows * schema.row_bytes()) as u64;
        let mut inner = lock(&self.inner);
        let vaddr = inner.mem.alloc(self.domain, bytes.max(1))?;
        Ok(FTable {
            qp: self.qp,
            vaddr,
            schema: schema.clone(),
            rows,
        })
    }

    /// `allocTableMem` sized for an existing in-memory table.
    pub fn alloc_table(&self, table: &Table) -> Result<FTable, FvError> {
        self.alloc_table_spec(table.schema(), table.row_count())
    }

    /// `tableWrite`: populate the remote table. Returns the simulated
    /// transfer time.
    pub fn table_write(&self, ft: &FTable, data: &[u8]) -> Result<SimDuration, FvError> {
        self.check_table(ft)?;
        if data.len() as u64 != ft.byte_len() {
            return Err(FvError::WriteSizeMismatch {
                provided: data.len() as u64,
                expected: ft.byte_len(),
            });
        }
        let mut inner = lock(&self.inner);
        // Simulate the transfer first: a degraded link fails the write
        // typed *before* any byte lands in the buffer pool, so a failed
        // write never leaves a partial image behind.
        let t = episode::try_write_time(data.len() as u64, &inner.config)?;
        if !data.is_empty() {
            inner.mem.write(self.domain, ft.vaddr, data)?;
        }
        Ok(t)
    }

    /// Allocate + write in one call. A failed write (a degraded link)
    /// frees the allocation before the error returns — the caller never
    /// sees the handle, so nobody else could.
    pub fn load_table(&self, table: &Table) -> Result<(FTable, SimDuration), FvError> {
        let ft = self.alloc_table(table)?;
        match self.table_write(&ft, table.bytes()) {
            Ok(t) => Ok((ft, t)),
            Err(e) => {
                // Best-effort: the write error is the one to report.
                let _ = self.free_table(ft);
                Err(e)
            }
        }
    }

    /// Stage a far-memory table by adopting its page chunks as the
    /// pages of a fresh allocation: no byte is copied, and the pages
    /// stay shared with the chunks until a write copies one. As in
    /// [`QPair::table_write`], the transfer of the whole table is
    /// simulated first, so a degraded link fails typed before any page
    /// is allocated.
    pub(crate) fn adopt_table(&self, table: &PageChunks) -> Result<(FTable, SimDuration), FvError> {
        if !self.connected {
            return Err(FvError::Disconnected);
        }
        let bytes = table.byte_len();
        let mut inner = lock(&self.inner);
        let t = episode::try_write_time(bytes, &inner.config)?;
        let vaddr = inner.mem.adopt(self.domain, bytes.max(1), table.pages())?;
        let ft = FTable {
            qp: self.qp,
            vaddr,
            schema: table.schema().clone(),
            rows: table.row_count(),
        };
        Ok((ft, t))
    }

    /// `freeTableMem`.
    pub fn free_table(&self, ft: FTable) -> Result<(), FvError> {
        self.check_table(&ft)?;
        let mut inner = lock(&self.inner);
        inner.mem.free(self.domain, ft.vaddr)?;
        Ok(())
    }

    /// Share a table with another connection (the buffer pool "can be
    /// shared between different remote computing nodes", §4.2).
    pub fn share_table(&self, ft: &FTable, with: &QPair) -> Result<FTable, FvError> {
        self.check_table(ft)?;
        if !with.connected {
            return Err(FvError::Disconnected);
        }
        let mut inner = lock(&self.inner);
        let vaddr = inner.mem.share(self.domain, ft.vaddr, with.domain)?;
        Ok(FTable {
            qp: with.qp,
            vaddr,
            schema: ft.schema.clone(),
            rows: ft.rows,
        })
    }

    /// The single-node execution engine: post `specs` as one
    /// doorbell-batched submission on this queue pair and run the whole
    /// batch as a single pipelined episode. Every query reaches the
    /// episode machinery through here — [`QPair::far_view`] as a depth-1
    /// batch, and each shard slot of a fleet query; a depth-1 batch *is*
    /// a solo `farView`.
    ///
    /// `pipelines` carries the batch's compiled pipelines from one run
    /// to the next, as a loaded region keeps its operators between
    /// queries. Empty, `specs` are compiled (and so verified) here;
    /// otherwise they are `specs`' pipelines from an earlier run, and
    /// each is reset before it runs again. On success it holds the
    /// pipelines that just ran; on any error it is left empty, so the
    /// next run compiles fresh. A fleet query hands them from shard slot
    /// to shard slot; a single-node call drops them.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug-only check of carried pipelines"
    )]
    pub(crate) fn execute_specs(
        &self,
        ft: &FTable,
        specs: &[PipelineSpec],
        pipelines: &mut Vec<CompiledPipeline>,
    ) -> Result<Vec<QueryOutcome>, FvError> {
        let mut carried = std::mem::take(pipelines);
        self.check_table(ft)?;
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        check_queue_depth(specs.len())?;
        if carried.is_empty() {
            // Compile (and so verify) the whole submission first: a
            // batch refused here has touched no region, counter or TLB
            // entry.
            carried = specs
                .iter()
                .map(|spec| CompiledPipeline::compile(spec.clone(), &ft.schema))
                .collect::<Result<_, _>>()?;
        } else {
            debug_assert!(
                carried.iter().map(CompiledPipeline::spec).eq(specs),
                "carried pipelines must be this batch's"
            );
            carried.iter_mut().for_each(CompiledPipeline::reset);
        }
        let (outcomes, ran) = self
            .run_batch(carried.into_iter().map(|pipeline| (ft, pipeline)))?
            .into_iter()
            .unzip();
        *pipelines = ran;
        Ok(outcomes)
    }

    /// Stage `work` — WQE `i` runs its pipeline over its table — as one
    /// doorbell batch on this queue pair and run it as one pipelined
    /// episode. Consecutive WQEs over the same bytes read them once.
    /// Each outcome comes back with the pipeline that produced it.
    fn run_batch<T: std::borrow::Borrow<FTable>>(
        &self,
        work: impl Iterator<Item = (T, CompiledPipeline)>,
    ) -> Result<Vec<(QueryOutcome, CompiledPipeline)>, FvError> {
        // The episode is a pure computation over the staged queries:
        // the node lock is released before it runs, so clients on other
        // threads sharing this node simulate concurrently — and a write
        // landing meanwhile copies the page it writes, leaving the batch
        // the bytes it was staged over.
        let (batch, metas, config) = {
            let mut inner = lock(&self.inner);
            let mut staged = Staged::default();
            let mut view = None;
            let mut viewed = None;
            for (i, (ft, pipeline)) in work.enumerate() {
                let ft = ft.borrow();
                let named = Some((ft.vaddr, ft.byte_len()));
                if named != viewed {
                    (view, viewed) = (None, named);
                }
                // Each WQE's response is its own stream on the shared flow.
                let stream = (self.qp << QP_STREAM_BITS) | i as u32;
                staged.stage(&mut inner, self, ft, pipeline, stream, &mut view)?;
            }
            let (batch, metas) = staged.into_batch();
            (batch, metas, inner.config.clone())
        };
        let results = episode::run_batched_episodes(vec![batch], &config)?.remove(0);
        lock(&self.inner).episodes += results.len() as u64;
        Ok(results
            .into_iter()
            .zip(metas)
            .map(|(r, (schema, reconf))| finish_outcome(r, schema, reconf))
            .collect())
    }

    /// Functional (untimed) read of the table's bytes straight from the
    /// memory stack — the rebalance coordinator's node-local data
    /// gather for composing destination images. The *timed* movement of
    /// rebalanced data goes through [`QPair::read_row_ranges`] episodes
    /// and [`QPair::table_write`]; this accessor never touches the wire
    /// model.
    pub(crate) fn peek_table(&self, ft: &FTable) -> Result<Vec<u8>, FvError> {
        self.check_table(ft)?;
        if ft.byte_len() == 0 {
            return Ok(Vec::new());
        }
        let mut inner = lock(&self.inner);
        Ok(inner.mem.read(self.domain, ft.vaddr, ft.byte_len())?)
    }

    /// The rebalancer's copy-episode primitive: stream the row ranges
    /// `[lo, hi)` of `ft` as **one doorbell-batched submission** of
    /// passthrough reads on this queue pair — every range is its own
    /// WQE, the batch rides one doorbell, and the responses share the
    /// region's egress flow under DRR arbitration like any other
    /// episode. Returns the per-range outcomes plus the batch makespan
    /// (summed across sub-batches when `ranges` exceeds the send
    /// queue's [`MAX_QUEUE_DEPTH`]).
    pub(crate) fn read_row_ranges(
        &self,
        ft: &FTable,
        ranges: &[(usize, usize)],
    ) -> Result<(Vec<QueryOutcome>, SimDuration), FvError> {
        self.check_table(ft)?;
        let mut outcomes = Vec::with_capacity(ranges.len());
        let mut total = SimDuration::ZERO;
        for chunk in ranges.chunks(MAX_QUEUE_DEPTH) {
            if chunk.is_empty() {
                continue;
            }
            let mut work = Vec::with_capacity(chunk.len());
            for &(lo, hi) in chunk {
                let view = ft.row_slice(lo, hi);
                let pipeline = CompiledPipeline::compile(PipelineSpec::passthrough(), &ft.schema)?;
                work.push((view, pipeline));
            }
            let results = self.run_batch(work.into_iter())?;
            total += results
                .iter()
                .map(|(o, _)| o.stats.response_time)
                .fold(SimDuration::ZERO, SimDuration::max);
            outcomes.extend(results.into_iter().map(|(o, _)| o));
        }
        Ok((outcomes, total))
    }

    /// The general `farView` verb: run an operator pipeline over the
    /// table inside the disaggregated memory.
    pub fn far_view(&self, ft: &FTable, spec: &PipelineSpec) -> Result<QueryOutcome, FvError> {
        Ok(self
            .far_view_batch(ft, std::slice::from_ref(spec))?
            .remove(0))
    }

    /// The `farView` verb at queue depth N: post every spec in `specs`
    /// as one doorbell-batched submission on this queue pair and run the
    /// whole batch as a single pipelined episode.
    ///
    /// One doorbell is rung for the batch; the node overlaps the verbs'
    /// request processing, DRAM reads and operator execution, so the
    /// batch makespan is far below the serial sum of solo queries while
    /// every result stays byte-identical to its solo run. Outcomes are
    /// returned in post order. Each call compiles its specs once; the
    /// pipelines are dropped with the call.
    pub fn far_view_batch(
        &self,
        ft: &FTable,
        specs: &[PipelineSpec],
    ) -> Result<Vec<QueryOutcome>, FvError> {
        self.execute_specs(ft, specs, &mut Vec::new())
    }

    /// `tableRead`: plain RDMA read of the whole table through the
    /// passthrough path.
    pub fn table_read(&self, ft: &FTable) -> Result<QueryOutcome, FvError> {
        self.far_view(ft, &PipelineSpec::passthrough())
    }

    /// The paper's `select()` wrapper.
    pub fn select(&self, ft: &FTable, q: &SelectQuery) -> Result<QueryOutcome, FvError> {
        self.far_view(ft, &q.to_spec())
    }

    /// `SELECT DISTINCT <cols> FROM ft`.
    pub fn distinct(&self, ft: &FTable, cols: Vec<usize>) -> Result<QueryOutcome, FvError> {
        self.far_view(ft, &PipelineSpec::passthrough().distinct(cols))
    }

    /// `SELECT <keys>, <aggs> FROM ft GROUP BY <keys>`.
    pub fn group_by(
        &self,
        ft: &FTable,
        keys: Vec<usize>,
        aggs: Vec<AggSpec>,
    ) -> Result<QueryOutcome, FvError> {
        self.far_view(ft, &PipelineSpec::passthrough().group_by(keys, aggs))
    }

    /// Inner-join the remote table against a small build-side table
    /// shipped with the request and held in on-chip memory (§7's
    /// "joins against small tables in the memory"). `probe_col` is the
    /// key column of the remote table, `build_key` the key column of
    /// `build`.
    pub fn join_small(
        &self,
        ft: &FTable,
        probe_col: usize,
        build: &Table,
        build_key: usize,
    ) -> Result<QueryOutcome, FvError> {
        let join = fv_pipeline::JoinSmallSpec::new(probe_col, build, build_key);
        self.far_view(ft, &PipelineSpec::passthrough().join_small(join))
    }

    /// Regex selection over a string column.
    pub fn regex_match(
        &self,
        ft: &FTable,
        col: usize,
        pattern: &str,
    ) -> Result<QueryOutcome, FvError> {
        self.far_view(ft, &PipelineSpec::passthrough().regex_match(col, pattern))
    }

    /// Read a table that rests encrypted, decrypting on the data path
    /// (§5.5 / Figure 11a).
    pub fn read_decrypt(&self, ft: &FTable, key: CryptoSpec) -> Result<QueryOutcome, FvError> {
        self.far_view(ft, &PipelineSpec::passthrough().decrypt(key))
    }

    /// Close the connection, releasing the dynamic region and every
    /// allocation of this domain.
    pub fn disconnect(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        if !self.connected {
            return;
        }
        self.connected = false;
        let mut inner = lock(&self.inner);
        if let Some(s) = inner.slots.get_mut(self.slot) {
            *s = None;
        }
        if let Some(l) = inner.loaded.get_mut(self.slot) {
            *l = None;
        }
        let _ = inner.mem.destroy_domain(self.domain);
    }
}

impl Drop for QPair {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::{TableBuilder, Value};
    use fv_sim::calib::PAGE_BYTES;

    fn make_table(rows: u64) -> Table {
        let schema = Schema::uniform_u64(8);
        let mut b = TableBuilder::with_capacity(schema, rows as usize);
        for i in 0..rows {
            b.push_values((0..8).map(|c| Value::U64(i * 8 + c)).collect());
        }
        b.build()
    }

    fn cluster() -> FarviewCluster {
        FarviewCluster::new(FarviewConfig::tiny())
    }

    #[test]
    fn connect_assigns_distinct_regions() {
        let c = cluster();
        let a = c.connect().unwrap();
        let b = c.connect().unwrap();
        assert_ne!(a.slot, b.slot);
        let err = c.connect().expect_err("both regions taken");
        assert!(matches!(err, FvError::NoFreeRegion { regions: 2, .. }));
        assert_eq!(
            err.retry_after(),
            Some(CONNECT_RETRY_AFTER),
            "region exhaustion is a retryable backpressure signal"
        );
        assert!(err.is_retryable());
        drop(a);
        assert!(c.connect().is_ok(), "dropped QPair frees its region");
        let _ = b;
    }

    /// A doorbell batch one past the send queue's depth is refused
    /// typed, never by unwinding; the deepest legal batch still runs.
    #[test]
    fn over_deep_batch_is_a_typed_error() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let (ft, _) = qp.load_table(&make_table(4)).unwrap();
        let specs = vec![PipelineSpec::passthrough(); MAX_QUEUE_DEPTH + 1];
        let err = qp.far_view_batch(&ft, &specs).expect_err("1025 WQEs");
        assert_eq!(
            err,
            FvError::BatchTooDeep {
                depth: MAX_QUEUE_DEPTH + 1,
                max: MAX_QUEUE_DEPTH
            }
        );
        assert!(!err.is_retryable());
        let full = qp.far_view_batch(&ft, &specs[..MAX_QUEUE_DEPTH]).unwrap();
        assert_eq!(full.len(), MAX_QUEUE_DEPTH);
        assert!(full.iter().all(|o| o.payload == full[0].payload));
    }

    /// The satellite regression: a tenant that *waits out* the
    /// backpressure signal eventually connects once a region frees —
    /// the `NoFreeRegion` dead end is a retry loop, not a hard error.
    #[test]
    fn waiting_tenant_connects_when_a_region_frees() {
        let c = cluster();
        let holders = vec![c.connect().unwrap(), c.connect().unwrap()];
        // The waiting tenant polls on the advertised retry_after; a
        // holder disconnects after three backoff periods.
        let mut waited = SimDuration::ZERO;
        let mut holders = holders;
        let mut attempts = 0u32;
        let qp = loop {
            match c.connect() {
                Ok(qp) => break qp,
                Err(e) => {
                    let backoff = e.retry_after().expect("exhaustion is retryable");
                    assert!(backoff > SimDuration::ZERO);
                    waited += backoff;
                    attempts += 1;
                    assert!(attempts < 100, "tenant starved waiting for a region");
                    if attempts == 3 {
                        drop(holders.pop());
                    }
                }
            }
        };
        assert_eq!(attempts, 3, "connects on the first retry after the free");
        assert_eq!(waited, CONNECT_RETRY_AFTER * 3);
        // The freed region is genuinely usable.
        let t = make_table(8);
        let (ft, _) = qp.load_table(&t).unwrap();
        assert_eq!(qp.table_read(&ft).unwrap().payload, t.bytes());
    }

    #[test]
    fn table_roundtrip_through_buffer_pool() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let t = make_table(128);
        let (ft, write_time) = qp.load_table(&t).unwrap();
        assert!(write_time > SimDuration::ZERO);
        let out = qp.table_read(&ft).unwrap();
        assert_eq!(out.payload, t.bytes());
        assert_eq!(out.row_count(), 128);
        assert_eq!(out.stats.packets, 9); // 8 KiB + FIN
        qp.free_table(ft).unwrap();
    }

    #[test]
    fn failed_load_returns_its_pages_to_the_pool() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let t = make_table(128);
        let baseline = c.free_pages();
        c.set_fault_plan(fv_net::FaultPlan::none().partitioned())
            .unwrap();
        let err = qp.load_table(&t).expect_err("partitioned link");
        assert!(matches!(err, FvError::Net(_)), "{err}");
        assert_eq!(c.free_pages(), baseline, "a failed load must not leak");
        assert_eq!(c.resident_bytes(), 0, "nor keep what it wrote");
        c.set_fault_plan(fv_net::FaultPlan::none()).unwrap();
        let (ft, _) = qp.load_table(&t).expect("healed link loads");
        assert_eq!(qp.table_read(&ft).unwrap().payload, t.bytes());
    }

    /// §4.4 isolation across time: a freed table's pages come back to
    /// the next tenant zeroed, not carrying the previous tenant's bytes.
    #[test]
    fn freed_table_does_not_leak_to_the_next_tenant() {
        let c = cluster();
        let a = c.connect().unwrap();
        let b = c.connect().unwrap();
        let schema = Schema::uniform_u64(8);
        let rows = 1024; // 64 KiB
        let ft = a.alloc_table_spec(&schema, rows).unwrap();
        a.table_write(&ft, &[0xAB; 64 * 1024]).unwrap();
        a.free_table(ft).unwrap();
        let fresh = b.alloc_table_spec(&schema, rows).unwrap();
        assert_eq!(b.table_read(&fresh).unwrap().payload, [0u8; 64 * 1024]);
    }

    /// The counterpart: a table still mapped through `share_table` keeps
    /// its bytes after the owner frees its own mapping.
    #[test]
    fn shared_table_outlives_its_owners_free() {
        let c = cluster();
        let a = c.connect().unwrap();
        let b = c.connect().unwrap();
        let t = make_table(64);
        let (ft, _) = a.load_table(&t).unwrap();
        let shared = a.share_table(&ft, &b).unwrap();
        a.free_table(ft).unwrap();
        assert_eq!(b.table_read(&shared).unwrap().payload, t.bytes());
        assert_eq!(c.resident_bytes(), t.byte_len() as u64);
        b.free_table(shared).unwrap();
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn resident_bytes_follow_the_tables_loaded() {
        let c = cluster();
        let qp = c.connect().unwrap();
        assert_eq!(c.resident_bytes(), 0);
        let (small, large) = (make_table(128), make_table(40_000)); // 8 KiB, 2.4 MiB
        let (small_len, large_len) = (small.byte_len() as u64, large.byte_len() as u64);
        let (ft, _) = qp.load_table(&small).unwrap();
        qp.load_table(&large).unwrap();
        assert_eq!(c.resident_bytes(), small_len + large_len);
        qp.free_table(ft).unwrap();
        assert_eq!(c.resident_bytes(), large_len);
        qp.disconnect();
        assert_eq!(c.resident_bytes(), 0, "disconnect frees what is left");
    }

    #[test]
    fn select_matches_oracle() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let t = make_table(512);
        let (ft, _) = qp.load_table(&t).unwrap();
        // c0 = 8i < 2048 -> i < 256.
        let q = SelectQuery::all_columns().and_lt(0, 2048u64);
        let out = qp.select(&ft, &q).unwrap();
        assert_eq!(out.row_count(), 256);
        assert_eq!(out.stats.tuples_in, 512);
        assert_eq!(out.stats.tuples_out, 256);
        // First surviving row is row 0.
        assert_eq!(
            out.iter_rows().next().expect("rows").value(0),
            Value::U64(0)
        );
    }

    #[test]
    fn foreign_table_rejected() {
        let c = cluster();
        let a = c.connect().unwrap();
        let b = c.connect().unwrap();
        let t = make_table(4);
        let (ft, _) = a.load_table(&t).unwrap();
        assert!(matches!(b.table_read(&ft), Err(FvError::ForeignTable)));
        // But sharing makes it legal.
        let shared = a.share_table(&ft, &b).unwrap();
        let out = b.table_read(&shared).unwrap();
        assert_eq!(out.payload, t.bytes());
    }

    #[test]
    fn write_size_must_match() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let t = make_table(4);
        let ft = qp.alloc_table(&t).unwrap();
        assert!(matches!(
            qp.table_write(&ft, &t.bytes()[..63]),
            Err(FvError::WriteSizeMismatch { .. })
        ));
    }

    #[test]
    fn reconfiguration_tracked_per_region() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let t = make_table(16);
        let (ft, _) = qp.load_table(&t).unwrap();
        let out1 = qp.table_read(&ft).unwrap();
        assert!(out1.stats.reconfigured, "first load configures the region");
        let out2 = qp.table_read(&ft).unwrap();
        assert!(!out2.stats.reconfigured, "same pipeline stays loaded");
        let out3 = qp.distinct(&ft, vec![0]).unwrap();
        assert!(out3.stats.reconfigured, "new pipeline reconfigures");
        assert_eq!(c.reconfigurations(), 2);
    }

    /// A submission refused at compile time ran nothing, so it must
    /// have loaded nothing: the region, the reconfiguration counter and
    /// the episode counter are as they were, and the first query that
    /// does run reports the reconfiguration it pays for.
    #[test]
    fn a_refused_batch_leaves_the_region_untouched() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let (ft, _) = qp.load_table(&make_table(16)).unwrap();
        let good = PipelineSpec::passthrough().distinct(vec![0]);
        let bad = PipelineSpec::passthrough().project(vec![9]);
        let err = qp
            .far_view_batch(&ft, &[good.clone(), bad])
            .expect_err("column 9 of 8");
        assert!(
            matches!(
                err,
                FvError::Pipeline(fv_pipeline::PipelineError::UnknownColumn { col: 9, arity: 8 })
            ),
            "{err}"
        );
        assert_eq!(c.episodes_run(), 0);
        assert_eq!(c.reconfigurations(), 0, "a refused batch loads nothing");
        let first = qp.far_view(&ft, &good).unwrap();
        assert!(first.stats.reconfigured, "the first real query configures");
        assert_eq!(c.reconfigurations(), 1);
    }

    /// The same for the multi-client entry point: one bad request
    /// refuses the whole run before any connection's region is loaded.
    #[test]
    fn a_refused_concurrent_run_leaves_the_regions_untouched() {
        let c = cluster();
        let a = c.connect().unwrap();
        let b = c.connect().unwrap();
        let t = make_table(16);
        let (fta, _) = a.load_table(&t).unwrap();
        let (ftb, _) = b.load_table(&t).unwrap();
        let good = PipelineSpec::passthrough().distinct(vec![0]);
        let bad = PipelineSpec::passthrough().project(vec![9]);
        let err = c
            .run_concurrent(vec![(&a, &fta, good.clone()), (&b, &ftb, bad)])
            .expect_err("column 9 of 8");
        assert!(matches!(err, FvError::Pipeline(_)), "{err}");
        assert_eq!(c.episodes_run(), 0);
        assert_eq!(c.reconfigurations(), 0, "a refused run loads nothing");
        let outs = c
            .run_concurrent(vec![(&a, &fta, good.clone()), (&b, &ftb, good)])
            .unwrap();
        assert!(outs.iter().all(|o| o.stats.reconfigured));
        assert_eq!(c.reconfigurations(), 2);
    }

    /// Stage `specs` over `ft` as one batch on `qp`, without running it;
    /// also the view the batch took of the table.
    fn stage(qp: &QPair, ft: &FTable, specs: &[PipelineSpec]) -> (Staged, Option<PageView>) {
        let (mut staged, mut view) = (Staged::default(), None);
        let mut inner = lock(&qp.inner);
        for (i, spec) in specs.iter().enumerate() {
            let pipeline = CompiledPipeline::compile(spec.clone(), &ft.schema).unwrap();
            staged
                .stage(&mut inner, qp, ft, pipeline, i as u32, &mut view)
                .unwrap();
        }
        (staged, view)
    }

    /// Run a staged batch; its first query's payload.
    fn run_staged(c: &FarviewCluster, staged: Staged) -> Vec<u8> {
        let config = lock(&c.inner).config.clone();
        let (batch, _) = staged.into_batch();
        let mut results = episode::run_batched_episodes(vec![batch], &config).unwrap();
        results.remove(0).remove(0).payload
    }

    /// Where a view's first byte lives.
    fn first_byte(view: &PageView) -> Option<*const u8> {
        view.slices(0..1).next().map(<[u8]>::as_ptr)
    }

    /// One doorbell batch takes one view of its table and copies
    /// nothing: the queries that stream the table share the view — the
    /// node's page itself — and a smart-addressing query gathers its own
    /// bytes from it. A write after the batch returns is what the next
    /// query reads.
    #[test]
    fn a_batch_streams_one_view_of_its_table() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let t = make_table(64);
        let (ft, _) = qp.load_table(&t).unwrap();
        let specs = [
            PipelineSpec::passthrough(),
            PipelineSpec::passthrough()
                .project(vec![1, 2])
                .with_smart_addressing(),
            PipelineSpec::passthrough().distinct(vec![0]),
        ];
        let (staged, view) = stage(&qp, &ft, &specs);
        let view = view.expect("the batch viewed its table");
        assert_eq!(view.to_vec(), t.bytes());
        let page = lock(&c.inner).mem.view(qp.domain, ft.vaddr, 1).unwrap();
        assert_eq!(
            first_byte(&view),
            first_byte(&page),
            "the node's page, not a copy"
        );
        match staged.views.as_slice() {
            [Some(read), None, Some(distinct)] => {
                assert_eq!(first_byte(read), first_byte(&view));
                assert_eq!(first_byte(distinct), first_byte(&view));
            }
            other => panic!("plain, smart-addressing, plain: {other:?}"),
        }
        assert!(staged.queries[0].data.is_empty(), "the view is the data");
        assert_eq!(staged.queries[1].data.len(), 64 * 16, "gathered bytes");

        // Through the public verb: a batch, a write, a query.
        let before = qp.far_view_batch(&ft, &specs).unwrap();
        assert_eq!(before[0].payload, t.bytes());
        let rewritten = make_table(128);
        let rewritten = &rewritten.bytes()[64 * 64..];
        qp.table_write(&ft, rewritten).unwrap();
        assert_eq!(qp.table_read(&ft).unwrap().payload, rewritten);
    }

    /// Copy-on-write at the isolation seams (§4.4). A batch staged but
    /// not yet run holds a view of its table's pages, as a batch does
    /// while its episode runs outside the node lock:
    /// - a write landing meanwhile leaves it the old bytes, while the
    ///   writer's next query sees the new ones;
    /// - a free, or the domain's teardown, hands the pages to the
    ///   next domain zeroed, and nothing that domain writes reaches the
    ///   view — which is not counted resident once only it holds them.
    #[test]
    fn a_held_view_is_a_snapshot_at_every_isolation_seam() {
        let c = cluster();
        let a = c.connect().unwrap();
        let t = make_table(64);
        let (schema, len) = (t.schema().clone(), t.byte_len());
        let (ft, _) = a.load_table(&t).unwrap();
        let read = [PipelineSpec::passthrough()];
        let ppage = |qp: &QPair, ft: &FTable| {
            lock(&c.inner).mem.translate(qp.domain, ft.vaddr).unwrap().0 / PAGE_BYTES
        };

        let (before_write, _) = stage(&a, &ft, &read);
        a.table_write(&ft, &vec![0x5A; len]).unwrap();
        assert_eq!(a.table_read(&ft).unwrap().payload, vec![0x5A; len]);
        assert_eq!(
            run_staged(&c, before_write),
            t.bytes(),
            "staged before the write"
        );

        let (before_free, _) = stage(&a, &ft, &read);
        let page = ppage(&a, &ft);
        a.free_table(ft).unwrap();
        assert_eq!(c.resident_bytes(), 0, "only the view holds the page");
        let b = c.connect().unwrap();
        let ftb = b.alloc_table_spec(&schema, 64).unwrap();
        assert_eq!(ppage(&b, &ftb), page, "the page is handed out again");
        assert_eq!(b.table_read(&ftb).unwrap().payload, vec![0; len]);
        b.table_write(&ftb, &vec![0xC3; len]).unwrap();
        assert_eq!(run_staged(&c, before_free), vec![0x5A; len]);

        let (before_teardown, _) = stage(&b, &ftb, &read);
        b.disconnect();
        let fta = a.alloc_table_spec(&schema, 64).unwrap();
        assert_eq!(ppage(&a, &fta), page, "and again");
        assert_eq!(a.table_read(&fta).unwrap().payload, vec![0; len]);
        a.table_write(&fta, &t.bytes()[..len]).unwrap();
        assert_eq!(run_staged(&c, before_teardown), vec![0xC3; len]);
    }

    #[test]
    fn distinct_and_group_by_results() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let schema = Schema::uniform_u64(2);
        let mut b = TableBuilder::new(schema.clone());
        for i in 0..100u64 {
            b.push_values(vec![Value::U64(i % 10), Value::U64(1)]);
        }
        let t = b.build();
        let (ft, _) = qp.load_table(&t).unwrap();

        let d = qp.distinct(&ft, vec![0]).unwrap();
        assert_eq!(d.row_count(), 10);

        let g = qp
            .group_by(
                &ft,
                vec![0],
                vec![AggSpec {
                    col: 1,
                    func: fv_pipeline::AggFunc::Sum,
                }],
            )
            .unwrap();
        assert_eq!(g.row_count(), 10);
        for row in g.iter_rows() {
            assert_eq!(row.value(1), Value::U64(10), "each group sums to 10");
        }
        assert_eq!(g.stats.groups_flushed, 10);
    }

    #[test]
    fn concurrent_clients_via_run_concurrent() {
        let c = cluster();
        let a = c.connect().unwrap();
        let b = c.connect().unwrap();
        let t = make_table(256);
        let (fta, _) = a.load_table(&t).unwrap();
        let (ftb, _) = b.load_table(&t).unwrap();
        let outs = c
            .run_concurrent(vec![
                (&a, &fta, PipelineSpec::passthrough()),
                (&b, &ftb, PipelineSpec::passthrough()),
            ])
            .unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].payload, t.bytes());
        assert_eq!(outs[1].payload, t.bytes());
        // Concurrent runs share the wire: slower than solo.
        let solo = a.table_read(&fta).unwrap();
        assert!(outs[0].stats.response_time > solo.stats.response_time);
    }

    #[test]
    fn far_view_batch_matches_solo_queries() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let t = make_table(512);
        let (ft, _) = qp.load_table(&t).unwrap();
        let specs: Vec<PipelineSpec> = (0..8u64)
            .map(|i| {
                PipelineSpec::passthrough().filter(PredicateExpr::lt(0, (i + 1) * 8 * 512 / 8))
            })
            .collect();
        let solo: Vec<QueryOutcome> = specs.iter().map(|s| qp.far_view(&ft, s).unwrap()).collect();
        let batch = qp.far_view_batch(&ft, &specs).unwrap();
        assert_eq!(batch.len(), solo.len());
        for (b, s) in batch.iter().zip(&solo) {
            assert_eq!(b.payload, s.payload, "batched result must match solo");
            assert_eq!(b.schema, s.schema);
        }
        // Pipelining: the batch makespan beats running the queries back
        // to back.
        let serial: SimDuration = solo.iter().map(|o| o.stats.response_time).sum();
        let makespan = batch
            .iter()
            .map(|o| o.stats.response_time)
            .fold(SimDuration::ZERO, SimDuration::max);
        assert!(
            makespan < serial,
            "batch must pipeline: makespan {makespan} vs serial {serial}"
        );
        // Depth 0 is a no-op, not an error.
        assert!(qp.far_view_batch(&ft, &[]).unwrap().is_empty());
    }

    #[test]
    fn join_small_end_to_end() {
        let c = cluster();
        let qp = c.connect().unwrap();
        // Probe: 100 rows, key = i % 10 in column 0.
        let schema = Schema::uniform_u64(2);
        let mut b = TableBuilder::new(schema.clone());
        for i in 0..100u64 {
            b.push_values(vec![Value::U64(i % 10), Value::U64(i)]);
        }
        let probe = b.build();
        // Build: dimension rows for keys 2 and 7.
        let mut bb = TableBuilder::new(Schema::uniform_u64(2));
        bb.push_values(vec![Value::U64(2), Value::U64(222)]);
        bb.push_values(vec![Value::U64(7), Value::U64(777)]);
        let build = bb.build();

        let (ft, _) = qp.load_table(&probe).unwrap();
        let out = qp.join_small(&ft, 0, &build, 0).unwrap();
        // 10 probe rows per key, 2 build keys.
        assert_eq!(out.row_count(), 20);
        assert_eq!(out.schema.column_count(), 3);
        for row in out.iter_rows() {
            let key = row.value(0).as_u64();
            let dim = row.value(2).as_u64();
            assert_eq!(dim, key * 111);
        }
        // Cross-validate against the independent CPU implementation.
        let cpu = fv_baseline::CpuEngine::new(fv_baseline::BaselineKind::Lcpu)
            .join_small(&probe, 0, &build, 0);
        assert_eq!(out.payload, cpu.payload);
    }

    #[test]
    fn join_upload_costs_response_time() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let probe = make_table(256);
        let (ft, _) = qp.load_table(&probe).unwrap();
        let small = make_table(4);
        let big = make_table(2048); // 128 KiB build side
        let t_small = qp
            .join_small(&ft, 0, &small, 0)
            .unwrap()
            .stats
            .response_time;
        let t_big = qp.join_small(&ft, 0, &big, 0).unwrap().stats.response_time;
        assert!(
            t_big > t_small + SimDuration::from_micros(8),
            "shipping a 128 KiB build side must cost wire time: {t_big} vs {t_small}"
        );
    }

    #[test]
    fn compressed_results_shrink_the_wire() {
        let c = cluster();
        let qp = c.connect().unwrap();
        // Low-cardinality columns compress well.
        let schema = Schema::uniform_u64(8);
        let mut b = TableBuilder::new(schema.clone());
        for i in 0..4096u64 {
            b.push_values((0..8).map(|col| Value::U64((i % 7) + col)).collect());
        }
        let t = b.build();
        let (ft, _) = qp.load_table(&t).unwrap();

        let plain = qp.table_read(&ft).unwrap();
        let compressed = qp
            .far_view(&ft, &PipelineSpec::passthrough().compress())
            .unwrap();
        assert!(
            compressed.stats.bytes_on_wire * 2 < plain.stats.bytes_on_wire,
            "redundant table must compress >2x on the wire: {} vs {}",
            compressed.stats.bytes_on_wire,
            plain.stats.bytes_on_wire
        );
        assert!(compressed.stats.response_time < plain.stats.response_time);
        // The client decompresses back to the exact image.
        let recovered = fv_pipeline::compress::decompress(&compressed.payload).unwrap();
        assert_eq!(recovered, t.bytes());
    }

    #[test]
    fn encrypted_table_roundtrip() {
        let c = cluster();
        let qp = c.connect().unwrap();
        let t = make_table(64);
        let key = CryptoSpec {
            key: [7; 16],
            iv: [9; 16],
        };
        // Store the table encrypted.
        let mut cipher_image = t.bytes().to_vec();
        fv_crypto::ctr_apply_at(&key.key, &key.iv, 0, &mut cipher_image);
        let cipher_table = Table::from_bytes(t.schema().clone(), cipher_image);
        let (ft, _) = qp.load_table(&cipher_table).unwrap();

        // A plain read returns ciphertext.
        let raw = qp.table_read(&ft).unwrap();
        assert_ne!(raw.payload, t.bytes());

        // A decrypting read returns the plaintext.
        let dec = qp.read_decrypt(&ft, key).unwrap();
        assert_eq!(dec.payload, t.bytes());
    }
}
