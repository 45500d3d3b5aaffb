//! Multi-node Farview: an elastic, sharded scatter–gather fleet.
//!
//! The paper evaluates one Farview node, but nothing in its client
//! interface is single-node: clients `openConnection` to *a* node and
//! resolve table addresses from a local catalog (§4.1). Scaling the
//! buffer pool out — and **re-shaping it under load** — is therefore a
//! client-router concern, and this module implements it:
//!
//! * [`FarviewFleet`] owns an epoch-versioned roster of
//!   [`FarviewCluster`] nodes behind a [`Topology`]
//!   ([`crate::topology`]): nodes can be added
//!   ([`FarviewFleet::add_node`]), gracefully drained
//!   ([`FarviewFleet::drain_node`]) or abruptly removed / killed
//!   ([`FarviewFleet::remove_node`]) at any time.
//! * A [`Placement`] assigns every row of a table to a shard slot and
//!   every slot to `r ≥ 1` replica nodes, either by contiguous row
//!   ranges or by hashing a per-table partition key
//!   ([`Partitioning`]); the legacy [`ShardMap`] remains the one
//!   row→slot assignment function so a rebalanced fleet and a fresh
//!   fleet of the same shape compute *identical* placements.
//! * [`FleetQPair`] mirrors the paper's programmatic interface at fleet
//!   scope: `alloc_table` / `table_write` **scatter** rows (and their
//!   replicas) to the owning shards, the `farView` verbs fan out as
//!   per-shard episodes whose results are **gathered** and merged
//!   client-side ([`FleetQPair::far_view_batch`], with the shard plans
//!   and merge of [`crate::plan`]), and
//!   [`FleetQPair::rebalance`] executes a live, minimal shard-move
//!   plan against the current topology epoch.
//!
//! Every per-shard episode runs through the same discrete-event
//! machinery as a single node ([`crate::episode`]); the fleet-observed
//! response time is the **maximum** over shards plus a modeled
//! client-side merge cost ([`fv_sim::MergeCostModel`]). With
//! replication, each shard is read once, from its first surviving
//! replica, failing over to the next on a link fault; a killed node is
//! survived transparently as long as one replica of every shard
//! remains.
//!
//! With [`Partitioning::RowRange`], merged results are byte-identical
//! to a single node holding the whole table — for selection, `DISTINCT`
//! *and* `GROUP BY` (first-seen orders compose across contiguous
//! shards) — **across any sequence of grows, drains and rebalances**:
//! the rebalanced placement is the placement a fresh fleet of the
//! target shape would compute. This is property-tested in
//! `tests/fleet_props.rs` and `tests/topology_props.rs`. The one caveat
//! is floating-point association: `AVG` / `SUM(F64)` merge per-shard
//! partial sums, so they are bit-equal to the single node only while
//! sums stay exactly representable in `f64` (integer values with totals
//! below 2⁵³); past that they agree to `f64` rounding — see
//! [`fv_pipeline::merge`].

use std::collections::HashMap;
use std::sync::Mutex;

use fv_data::{Schema, Table};
use fv_pipeline::{CompiledPipeline, PipelineSpec};
use fv_sim::{MergeCostModel, MigrationCostModel, SimDuration};

use crate::cluster::{FTable, FarviewCluster, QPair, QueryOutcome, QueryStats, SelectQuery};
use crate::config::FarviewConfig;
use crate::error::FvError;
use crate::lock;
use crate::plan::{merge_gathered, scatter_slots, shard_execution, PlanTarget};
use crate::topology::{
    holders_down, plan_moves, NodeHealth, NodeId, Placement, RebalanceReport, Topology,
};

/// How a table's rows are assigned to fleet shards — the per-table
/// partition key of a [`Placement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Contiguous row ranges: shard `i` owns rows
    /// `[i·⌈n/N⌉, (i+1)·⌈n/N⌉)`. Order-preserving — concatenating shard
    /// results in shard order reproduces single-node row order exactly,
    /// so every merged result is byte-identical to a single node's.
    RowRange,
    /// Hash of the given column: rows with equal keys co-locate on one
    /// shard. `GROUP BY`/`DISTINCT` on that column then need no
    /// cross-shard combining (each group is computed whole on its owning
    /// shard), at the price of losing global row order: merged results
    /// are set-equal, not byte-equal, to a single node's.
    KeyHash(usize),
}

/// Seed for the shard-routing hash (distinct from the cuckoo seeds so
/// table placement and cuckoo bucketing stay uncorrelated).
const SHARD_HASH_SEED: u64 = 0xF1EE_7000_51AB_D007;

/// Row→shard-slot assignment logic for one shard count — the one
/// assignment function shared by fresh fleets and the rebalancer, which
/// is what keeps rebalanced results byte-identical to a fresh fleet's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

/// The materialized assignment of one table's rows to shard slots: for
/// each slot, the original row indices it owns, ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    per_shard: Vec<Vec<u32>>,
}

impl ShardMap {
    /// A map over `shards` slots.
    ///
    /// # Panics
    /// Panics on `shards == 0` — a caller bug, not a runtime input.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: placements have ≥ 1 active node"
    )]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        ShardMap { shards }
    }

    /// Number of shard slots.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The slot owning a hash-partitioned key.
    pub(crate) fn shard_of_key(&self, key_bytes: &[u8]) -> usize {
        (fv_pipeline::cuckoo::hash64(key_bytes, SHARD_HASH_SEED) % self.shards as u64) as usize
    }

    /// Assign every row of `(schema, data)` to a slot under `part`.
    ///
    /// # Panics
    /// Panics when `data` is not a whole number of `schema` rows —
    /// callers pass table images produced against the same schema.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: images are whole rows"
    )]
    pub fn assign(
        &self,
        part: Partitioning,
        schema: &Schema,
        data: &[u8],
    ) -> Result<ShardAssignment, FvError> {
        let row_bytes = schema.row_bytes();
        assert_eq!(data.len() % row_bytes, 0, "data is not whole rows");
        let rows = data.len() / row_bytes;
        let mut per_shard = vec![Vec::new(); self.shards];
        match part {
            Partitioning::RowRange => {
                let chunk = rows.div_ceil(self.shards).max(1);
                for (shard, indices) in per_shard.iter_mut().enumerate() {
                    let lo = (shard * chunk).min(rows);
                    let hi = ((shard + 1) * chunk).min(rows);
                    indices.extend(lo as u32..hi as u32);
                }
            }
            Partitioning::KeyHash(col) => {
                if col >= schema.column_count() {
                    return Err(FvError::Pipeline(
                        fv_pipeline::PipelineError::UnknownColumn {
                            col,
                            arity: schema.column_count(),
                        },
                    ));
                }
                let range = schema.column_range(col);
                for (r, row) in data.chunks_exact(row_bytes).enumerate() {
                    let key = row.get(range.clone()).unwrap_or_default();
                    if let Some(shard) = per_shard.get_mut(self.shard_of_key(key)) {
                        shard.push(r as u32);
                    }
                }
            }
        }
        Ok(ShardAssignment { per_shard })
    }
}

impl ShardAssignment {
    /// Rows owned by each slot.
    pub fn rows_per_shard(&self) -> Vec<usize> {
        self.per_shard.iter().map(Vec::len).collect()
    }

    /// Per slot, the original row indices it owns (ascending).
    pub(crate) fn per_shard(&self) -> &[Vec<u32>] {
        &self.per_shard
    }

    /// Split a full-table byte image into per-slot images (rows in
    /// ascending original order within each slot).
    ///
    /// # Panics
    /// Panics when `data` is shorter than the image this assignment was
    /// computed over — assignments and images travel together.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented: rows were assigned over this image"
    )]
    pub fn scatter(&self, row_bytes: usize, data: &[u8]) -> Vec<Vec<u8>> {
        self.per_shard
            .iter()
            .map(|indices| {
                let mut shard = Vec::with_capacity(indices.len() * row_bytes);
                for &r in indices {
                    let r = r as usize;
                    shard.extend_from_slice(&data[r * row_bytes..(r + 1) * row_bytes]);
                }
                shard
            })
            .collect()
    }
}

/// A fleet of Farview nodes behind one partition-aware client router,
/// with an elastic, epoch-versioned membership.
pub struct FarviewFleet {
    topology: Topology,
    config: FarviewConfig,
    /// Process-unique id stamped into every handle this fleet issues.
    /// Per-node qp ids restart at 1 in every `FarviewCluster` and the
    /// allocator is deterministic, so two same-shaped fleets would
    /// otherwise produce interchangeable (and silently wrong) handles.
    fleet_id: u64,
}

static NEXT_FLEET_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl FarviewFleet {
    /// Bring up `nodes` identical Farview nodes at epoch 0.
    ///
    /// # Panics
    /// Panics on `nodes == 0` — a caller bug, not a runtime input.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: a fleet has at least one node"
    )]
    pub fn new(nodes: usize, config: FarviewConfig) -> Self {
        assert!(nodes > 0, "a fleet needs at least one node");
        FarviewFleet {
            topology: Topology::with_nodes(nodes, &config),
            config,
            fleet_id: NEXT_FLEET_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The shared topology handle (epoch, roster snapshots, health).
    pub fn topology(&self) -> Topology {
        self.topology.clone()
    }

    /// The current topology epoch.
    pub fn epoch(&self) -> u64 {
        self.topology.epoch()
    }

    /// Number of live nodes (Active + Draining).
    pub fn node_count(&self) -> usize {
        self.topology.node_ids().len()
    }

    /// Live node ids in roster order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.topology.node_ids()
    }

    /// Checked access to the `i`-th live node (diagnostics, mixed
    /// deployments). Clusters are `Arc`-backed: the clone shares state
    /// with the roster entry.
    ///
    /// # Errors
    /// [`FvError::NoSuchNode`] when `i` is out of range.
    pub fn node(&self, i: usize) -> Result<FarviewCluster, FvError> {
        let ids = self.topology.node_ids();
        let id = *ids.get(i).ok_or(FvError::NoSuchNode {
            node: i as u64,
            nodes: ids.len(),
        })?;
        self.topology.cluster(id)
    }

    /// Grow the fleet: bring up one more node (same configuration) and
    /// bump the epoch. Existing placements are untouched until
    /// [`FleetQPair::rebalance`] moves shards onto the newcomer.
    pub fn add_node(&self) -> NodeId {
        self.topology.add_node(&self.config)
    }

    /// Gracefully begin decommissioning `id`: the node keeps serving the
    /// shards it holds but is excluded from the targets of future
    /// placements and rebalances. Rebalance every table, retire the old
    /// handles, then [`FarviewFleet::remove_node`].
    ///
    /// # Errors
    /// [`FvError::NoSuchNode`] for unknown or removed ids.
    pub fn drain_node(&self, id: NodeId) -> Result<(), FvError> {
        self.topology.set_health(id, NodeHealth::Draining)
    }

    /// Abruptly remove `id` — the kill switch. The node stops serving
    /// immediately; queries against placements that reference it fall
    /// back to surviving replicas, or report [`FvError::NodeDown`] for
    /// unreplicated shards.
    ///
    /// # Errors
    /// [`FvError::NoSuchNode`] for unknown or already-removed ids.
    pub fn remove_node(&self, id: NodeId) -> Result<(), FvError> {
        self.topology.set_health(id, NodeHealth::Removed)
    }

    /// Degrade node `id`'s client-facing link per `plan` (chaos
    /// injection). The node stays in the roster and keeps its shard
    /// images; episodes against it see the plan's faults — queries fall
    /// back to surviving replicas exactly as they would for a dead
    /// node, but the failure is a *network* failure, deterministically
    /// replayable from the plan's seed.
    ///
    /// # Errors
    /// [`FvError::NoSuchNode`] for unknown or removed ids;
    /// [`FvError::Net`] with [`fv_net::NetError::InvalidFaultPlan`] when a
    /// plan parameter is out of range (the node keeps its current plan).
    pub fn degrade_node(&self, id: NodeId, plan: fv_net::FaultPlan) -> Result<(), FvError> {
        self.topology.cluster(id)?.set_fault_plan(plan)
    }

    /// Heal node `id`'s link: restore the benign (native) fault plan.
    ///
    /// # Errors
    /// [`FvError::NoSuchNode`] for unknown or removed ids.
    pub fn heal_node(&self, id: NodeId) -> Result<(), FvError> {
        self.degrade_node(id, fv_net::FaultPlan::default())
    }

    /// `openConnection` at fleet scope: bind one queue pair on every
    /// live node. Fails if any node has no free dynamic region. Nodes
    /// added later are connected to lazily, on first use.
    pub fn connect(&self) -> Result<FleetQPair, FvError> {
        let mut qps = HashMap::new();
        for id in self.topology.node_ids() {
            qps.insert(
                id,
                std::sync::Arc::new(self.topology.cluster(id)?.connect()?),
            );
        }
        Ok(FleetQPair {
            topology: self.topology.clone(),
            qps: Mutex::new(qps),
            fleet_id: self.fleet_id,
        })
    }

    /// Total partial reconfigurations across the live fleet.
    pub fn reconfigurations(&self) -> u64 {
        self.topology
            .node_ids()
            .into_iter()
            .filter_map(|id| self.topology.cluster(id).ok())
            .map(|c| c.reconfigurations())
            .sum()
    }

    /// Free pages summed over all live nodes' buffer pools.
    pub fn free_pages(&self) -> u64 {
        self.topology
            .node_ids()
            .into_iter()
            .filter_map(|id| self.topology.cluster(id).ok())
            .map(|c| c.free_pages())
            .sum()
    }
}

/// A fleet-scope table handle: an epoch-stamped [`Placement`] plus one
/// [`FTable`] per shard replica. Handles are immutable snapshots — a
/// rebalance returns a *new* handle at the new epoch while this one
/// keeps serving byte-identical results until retired with
/// [`FleetQPair::free_table`].
#[derive(Debug, Clone)]
pub struct FleetTable {
    placement: Placement,
    /// `[slot][replica]`, parallel to `placement.shards()`.
    shards: Vec<Vec<FTable>>,
    schema: Schema,
    rows: usize,
    fleet_id: u64,
}

impl FleetTable {
    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total row count across shards.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Rows resident on each shard slot.
    pub fn rows_per_shard(&self) -> Vec<usize> {
        self.placement.assignment().rows_per_shard()
    }

    /// The partitioning this table was scattered with.
    pub fn partitioning(&self) -> Partitioning {
        self.placement.partitioning()
    }

    /// Replicas per shard.
    pub fn replicas(&self) -> usize {
        self.placement.replicas()
    }

    /// The topology epoch this handle's placement was computed at.
    pub fn epoch(&self) -> u64 {
        self.placement.epoch()
    }

    /// The placement snapshot behind this handle.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The primary replica's handle on slot `i` (diagnostics).
    pub fn shard(&self, i: usize) -> Option<&FTable> {
        self.shards.get(i).and_then(|replicas| replicas.first())
    }

    /// The [`PlanTarget`] resolving this handle's shards via its epoch
    /// snapshot — what fleet-targeted [`crate::QueryPlan`]s should be
    /// built against.
    pub fn plan_target(&self) -> PlanTarget {
        PlanTarget::Fleet {
            shards: self.placement.shard_count(),
            partitioning: self.placement.partitioning(),
        }
    }
}

/// Outcome of one fleet query: the merged result plus per-shard
/// attribution.
#[derive(Debug, Clone)]
pub struct FleetQueryOutcome {
    /// The merged result, in the same format a single node returns. Its
    /// `stats` aggregate the fleet: counters are summed over shards, and
    /// `response_time` = max over shards + `merge_time`.
    pub merged: QueryOutcome,
    /// Each shard's own episode statistics, in slot order (the winning
    /// replica's, under replication).
    pub per_shard: Vec<QueryStats>,
    /// Modeled client-side cost of combining the shard payloads.
    pub merge_time: SimDuration,
}

/// A fleet outcome viewed as the single-node-format result it merged to.
impl AsRef<QueryOutcome> for FleetQueryOutcome {
    fn as_ref(&self) -> &QueryOutcome {
        &self.merged
    }
}

/// A fleet outcome as the single-node-format result it merged to.
impl From<FleetQueryOutcome> for QueryOutcome {
    fn from(out: FleetQueryOutcome) -> Self {
        out.merged
    }
}

/// A fleet-scope connection: one bound queue pair per node, opened
/// lazily for nodes that join after the connection was made.
pub struct FleetQPair {
    topology: Topology,
    qps: Mutex<HashMap<NodeId, std::sync::Arc<QPair>>>,
    fleet_id: u64,
}

impl std::fmt::Debug for FleetQPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetQPair")
            .field("epoch", &self.topology.epoch())
            .field("nodes", &lock(&self.qps).len())
            .finish_non_exhaustive()
    }
}

impl FleetQPair {
    /// Number of live nodes this connection can currently route to.
    pub fn shard_count(&self) -> usize {
        self.topology.node_ids().len()
    }

    /// The current topology epoch.
    pub fn epoch(&self) -> u64 {
        self.topology.epoch()
    }

    /// True when `node` can still serve reads.
    fn is_serving(&self, node: NodeId) -> bool {
        self.topology.is_serving(node)
    }

    /// Whether `placement` still matches what the current Active set
    /// would compute — epoch bumps that cancelled out (a node added
    /// and removed again) do not make a placement stale.
    pub(crate) fn placement_is_current(&self, placement: &Placement) -> bool {
        placement.is_current(&self.topology.snapshot())
    }

    /// The queue pair bound to `node`, opening one lazily for nodes
    /// that joined after this connection was made.
    ///
    /// # Errors
    /// [`FvError::NoSuchNode`] for removed nodes,
    /// [`FvError::NoFreeRegion`] when a lazy open finds no region.
    fn node_qp(&self, node: NodeId) -> Result<std::sync::Arc<QPair>, FvError> {
        let mut qps = lock(&self.qps);
        if let Some(qp) = qps.get(&node) {
            return Ok(std::sync::Arc::clone(qp));
        }
        let qp = std::sync::Arc::new(self.topology.cluster(node)?.connect()?);
        qps.insert(node, std::sync::Arc::clone(&qp));
        Ok(qp)
    }

    fn check_table(&self, ft: &FleetTable) -> Result<(), FvError> {
        // Shard counts alone cannot distinguish two same-shaped fleets
        // (per-node qp ids and vaddrs are deterministic), so handles
        // carry the issuing fleet's process-unique id — which also
        // subsumes any shape mismatch.
        if ft.fleet_id != self.fleet_id {
            return Err(FvError::ForeignTable);
        }
        Ok(())
    }

    /// `allocTableMem` at fleet scope: compute the placement of `table`
    /// under `part` against the current epoch and allocate buffer-pool
    /// space on every owning node. All-or-nothing: if any node's pool
    /// is full, the allocations already made are rolled back before the
    /// error is returned.
    pub fn alloc_table(&self, table: &Table, part: Partitioning) -> Result<FleetTable, FvError> {
        self.alloc_table_replicated(table, part, 1)
    }

    /// [`FleetQPair::alloc_table`] with `replicas` copies of every shard
    /// on distinct nodes — reads go to the first surviving replica and
    /// fail over, surviving any `replicas − 1` node losses.
    pub(crate) fn alloc_table_replicated(
        &self,
        table: &Table,
        part: Partitioning,
        replicas: usize,
    ) -> Result<FleetTable, FvError> {
        let snapshot = self.topology.snapshot();
        let placement =
            Placement::compute(&snapshot, part, replicas, table.schema(), table.bytes())?;
        let shards = self.alloc_for_placement(&placement, table.schema())?;
        Ok(FleetTable {
            placement,
            shards,
            schema: table.schema().clone(),
            rows: table.row_count(),
            fleet_id: self.fleet_id,
        })
    }

    /// Allocate one `FTable` per (slot, replica) of `placement`,
    /// rolling every allocation back on the first failure.
    fn alloc_for_placement(
        &self,
        placement: &Placement,
        schema: &Schema,
    ) -> Result<Vec<Vec<FTable>>, FvError> {
        let rows = placement.assignment().rows_per_shard();
        let mut allocated: Vec<(NodeId, FTable)> = Vec::new();
        let mut shards: Vec<Vec<FTable>> = Vec::with_capacity(placement.shard_count());
        for (nodes, &n) in placement.shards().iter().zip(&rows) {
            let mut replicas = Vec::with_capacity(nodes.len());
            for &node in nodes {
                let qp = match self.node_qp(node) {
                    Ok(qp) => qp,
                    Err(e) => {
                        self.rollback(allocated);
                        return Err(e);
                    }
                };
                match qp.alloc_table_spec(schema, n) {
                    Ok(ft) => {
                        allocated.push((node, ft.clone()));
                        replicas.push(ft);
                    }
                    Err(e) => {
                        self.rollback(allocated);
                        return Err(e);
                    }
                }
            }
            shards.push(replicas);
        }
        Ok(shards)
    }

    fn rollback(&self, allocated: Vec<(NodeId, FTable)>) {
        for (node, ft) in allocated {
            if let Ok(qp) = self.node_qp(node) {
                let _ = qp.free_table(ft);
            }
        }
    }

    /// `tableWrite` at fleet scope: scatter `data`'s rows (and their
    /// replicas) to their owning nodes. The nodes load in parallel, so
    /// the simulated transfer time is the slowest write's.
    ///
    /// Under [`Partitioning::KeyHash`], the row→shard assignment was
    /// computed from the contents passed to
    /// [`alloc_table`](FleetQPair::alloc_table); writing different key
    /// values would scatter rows to shards that no longer match their
    /// hash, silently breaking key co-location — so the assignment is
    /// revalidated against `data` and a mismatch is rejected.
    pub fn table_write(&self, ft: &FleetTable, data: &[u8]) -> Result<SimDuration, FvError> {
        self.check_table(ft)?;
        let expected: u64 = (ft.rows * ft.schema.row_bytes()) as u64;
        if data.len() as u64 != expected {
            return Err(FvError::WriteSizeMismatch {
                provided: data.len() as u64,
                expected,
            });
        }
        if matches!(ft.partitioning(), Partitioning::KeyHash(_)) {
            let fresh = ShardMap::new(ft.placement.shard_count()).assign(
                ft.partitioning(),
                &ft.schema,
                data,
            )?;
            if &fresh != ft.placement.assignment() {
                return Err(FvError::FleetPartitionMismatch);
            }
        }
        self.scatter_write(ft, data)
    }

    /// Scatter rows by the table's recorded assignment and write each
    /// replica's image (no revalidation — callers have established that
    /// `data` matches the assignment).
    fn scatter_write(&self, ft: &FleetTable, data: &[u8]) -> Result<SimDuration, FvError> {
        let images = ft
            .placement
            .assignment()
            .scatter(ft.schema.row_bytes(), data);
        let mut slowest = SimDuration::ZERO;
        for ((nodes, replicas), image) in ft.placement.shards().iter().zip(&ft.shards).zip(&images)
        {
            for (&node, sft) in nodes.iter().zip(replicas) {
                slowest = slowest.max(self.node_qp(node)?.table_write(sft, image)?);
            }
        }
        Ok(slowest)
    }

    /// Allocate + scatter-write in one call. Skips `table_write`'s
    /// key-hash revalidation: the assignment was just computed from this
    /// very buffer, so re-hashing every row would only repeat the work.
    pub fn load_table(
        &self,
        table: &Table,
        part: Partitioning,
    ) -> Result<(FleetTable, SimDuration), FvError> {
        self.load_table_replicated(table, part, 1)
    }

    /// [`FleetQPair::load_table`] with `replicas` copies per shard.
    pub fn load_table_replicated(
        &self,
        table: &Table,
        part: Partitioning,
        replicas: usize,
    ) -> Result<(FleetTable, SimDuration), FvError> {
        let ft = self.alloc_table_replicated(table, part, replicas)?;
        match self.scatter_write(&ft, table.bytes()) {
            Ok(t) => Ok((ft, t)),
            Err(e) => {
                // A degraded link failed some replica's write: free
                // every allocation; the write error is the one to report.
                let _ = self.free_table(ft);
                Err(e)
            }
        }
    }

    /// `freeTableMem` on every replica. Attempts every allocation even
    /// if one fails (the handle is consumed either way, so stopping
    /// early would leak the remaining pages); allocations on removed
    /// nodes died with their node and are skipped. The first error is
    /// returned.
    pub fn free_table(&self, ft: FleetTable) -> Result<(), FvError> {
        self.check_table(&ft)?;
        let mut first_err = None;
        for (nodes, replicas) in ft.placement.shards().iter().zip(ft.shards) {
            for (&node, sft) in nodes.iter().zip(replicas) {
                if !self.is_serving(node) {
                    continue;
                }
                match self.node_qp(node) {
                    Ok(qp) => {
                        if let Err(e) = qp.free_table(sft) {
                            first_err.get_or_insert(e);
                        }
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // -----------------------------------------------------------------
    // The live rebalancer
    // -----------------------------------------------------------------

    /// Re-place `ft` against the **current** topology epoch, executing
    /// the minimal shard-move plan as costed copy episodes, and return
    /// a new handle at the new epoch.
    ///
    /// The epoch flip is atomic from a caller's perspective: `ft` (the
    /// old epoch) keeps serving byte-identical results until retired
    /// with [`FleetQPair::free_table`], while the returned handle fans
    /// out over the new shard set — and its results are byte-identical
    /// to a fresh fleet built directly at the target shape. Retire the
    /// old handle once no in-flight query references it.
    ///
    /// The three costed phases are reported in the
    /// [`RebalanceReport`]:
    /// 1. **Copy** — each source node streams exactly the moved row
    ///    ranges as one doorbell-batched passthrough episode per shard
    ///    (through the full net stack: QPair, egress arbitration,
    ///    packetization); source nodes run in parallel.
    /// 2. **Reshuffle** — the coordinator routes moved bytes into
    ///    destination images ([`MigrationCostModel`]).
    /// 3. **Write** — every rebuilt shard image lands through the
    ///    simulated write datapath; nodes run in parallel, writes on
    ///    one node serialize.
    ///
    /// When nothing needs to move (the placement already matches the
    /// target), the returned handle **aliases** `ft`'s allocations —
    /// retire only one of the two.
    ///
    /// # Errors
    /// [`FvError::NodeDown`] when a shard has no surviving holder to
    /// copy from; allocation failures roll back every new allocation.
    pub fn rebalance(&self, ft: &FleetTable) -> Result<(FleetTable, RebalanceReport), FvError> {
        self.rebalance_with(ft, ft.replicas())
    }

    /// [`FleetQPair::rebalance`] that also changes the replication
    /// factor to `replicas` while moving.
    pub(crate) fn rebalance_with(
        &self,
        ft: &FleetTable,
        replicas: usize,
    ) -> Result<(FleetTable, RebalanceReport), FvError> {
        self.check_table(ft)?;
        let snapshot = self.topology.snapshot();
        let row_bytes = ft.schema.row_bytes();

        // No-op fast path, *modulo epoch*: however many membership
        // changes were cancelled out since (add then remove, say), a
        // placement that still matches what the current Active set
        // would compute needs no data movement and no reallocation.
        if replicas == ft.replicas() && ft.placement.is_current(&snapshot) {
            return Ok((ft.clone(), RebalanceReport::noop(ft.epoch())));
        }

        // Reconstruct the full-table image from one live holder per
        // slot (node-local functional reads; the timed copies below
        // stream only the rows that actually move).
        let mut full = vec![0u8; ft.rows * row_bytes];
        let per_slot = ft.placement.shards().iter().zip(&ft.shards);
        for ((nodes, handles), rows) in per_slot.zip(ft.placement.assignment().per_shard()) {
            let (&node, handle) = nodes
                .iter()
                .zip(handles)
                .find(|&(&n, _)| self.is_serving(n))
                .ok_or_else(|| holders_down(nodes))?;
            let image = self.node_qp(node)?.peek_table(handle)?;
            // The shard image holds exactly its assigned rows, in order.
            for (&r, src) in rows.iter().zip(image.chunks_exact(row_bytes)) {
                let dst = r as usize * row_bytes;
                if let Some(dst) = full.get_mut(dst..dst + row_bytes) {
                    dst.copy_from_slice(src);
                }
            }
        }

        let target = Placement::compute(&snapshot, ft.partitioning(), replicas, &ft.schema, &full)?;
        let plan = plan_moves(&ft.placement, &target, row_bytes, |n| self.is_serving(n))?;

        // Phase 1 — copy episodes: per source node and slot, coalesce
        // the moved rows' positions into contiguous ranges and stream
        // them as one doorbell-batched passthrough episode.
        // Per original row: its slot and its position in the slot's image.
        let mut place_of_row = vec![(0u32, 0usize); ft.rows];
        for (slot, indices) in ft.placement.assignment().per_shard().iter().enumerate() {
            for (pos, &r) in indices.iter().enumerate() {
                if let Some(place) = place_of_row.get_mut(r as usize) {
                    *place = (slot as u32, pos);
                }
            }
        }
        // (source node, slot) -> sorted, deduplicated positions.
        let mut reads: std::collections::BTreeMap<(NodeId, u32), Vec<usize>> =
            std::collections::BTreeMap::new();
        for mv in &plan.moves {
            // Move plans index rows of this very table.
            for &(slot, pos) in mv.rows.iter().filter_map(|&r| place_of_row.get(r as usize)) {
                reads.entry((mv.from, slot)).or_default().push(pos);
            }
        }
        let mut copy_per_node: HashMap<NodeId, SimDuration> = HashMap::new();
        for ((node, slot), mut positions) in reads {
            positions.sort_unstable();
            positions.dedup();
            let ranges = coalesce(&positions);
            // A move plan is computed against a placement snapshot; the
            // source can die between planning and the copy. Surface it
            // typed — the rebalance aborts cleanly and the old epoch
            // keeps serving.
            let handles = ft.shards.get(slot as usize).into_iter().flatten();
            let (_, handle) = ft
                .placement
                .holders(slot)
                .iter()
                .zip(handles)
                .find(|&(&n, _)| n == node)
                .ok_or(FvError::NodeDown { node: node.0 })?;
            let qp = self.node_qp(node)?;
            let (_, makespan) = qp.read_row_ranges(handle, &ranges)?;
            *copy_per_node.entry(node).or_insert(SimDuration::ZERO) += makespan;
        }
        let copy_time = copy_per_node
            .values()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max);

        // Phase 2 — client-side reshuffle of moved bytes into images.
        let shuffle_time =
            MigrationCostModel::default().shuffle(plan.moves.len() as u64, plan.moved_bytes());

        // Phase 3 — allocate and write the new shard images.
        let shards = self.alloc_for_placement(&target, &ft.schema)?;
        let images = target.assignment().scatter(row_bytes, &full);
        let mut write_per_node: HashMap<NodeId, SimDuration> = HashMap::new();
        for ((nodes, replicas), image) in target.shards().iter().zip(&shards).zip(&images) {
            for (&node, sft) in nodes.iter().zip(replicas) {
                match self.node_qp(node).and_then(|qp| qp.table_write(sft, image)) {
                    Ok(t) => *write_per_node.entry(node).or_insert(SimDuration::ZERO) += t,
                    Err(e) => {
                        let allocated = target
                            .shards()
                            .iter()
                            .zip(shards)
                            .flat_map(|(ns, fts)| ns.iter().copied().zip(fts))
                            .collect();
                        self.rollback(allocated);
                        return Err(e);
                    }
                }
            }
        }
        let write_time = write_per_node
            .values()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max);

        let report = RebalanceReport {
            from_epoch: ft.epoch(),
            to_epoch: target.epoch(),
            moves: plan.moves.len(),
            moved_rows: plan.moved_rows(),
            moved_bytes: plan.moved_bytes(),
            copy_time,
            shuffle_time,
            write_time,
        };
        Ok((
            FleetTable {
                placement: target,
                shards,
                schema: ft.schema.clone(),
                rows: ft.rows,
                fleet_id: self.fleet_id,
            },
            report,
        ))
    }

    // -----------------------------------------------------------------
    // Query verbs
    // -----------------------------------------------------------------

    /// The `farView` verb at fleet scope: fan the pipeline out as one
    /// episode per shard (on the first surviving replica of each), gather
    /// the partial results, and merge them client-side according to the
    /// pipeline's grouping stage — a depth-1
    /// [`FleetQPair::far_view_batch`].
    ///
    /// # Errors
    /// [`FvError::FleetUnsupported`] for a spec whose result streams do
    /// not merge (`compress_output`, `encrypt_output`) and for one that
    /// reads a table encrypted at rest (`decrypt_input`): every shard's
    /// pipeline starts its CTR stream at offset 0, but a row-range
    /// shard's ciphertext begins `lo × row_bytes` into the table's
    /// keystream and a key-hash shard's rows come from all over it.
    /// Query encrypted tables on a single node; a per-shard keystream
    /// seek is not implemented.
    pub fn far_view(
        &self,
        ft: &FleetTable,
        spec: &PipelineSpec,
    ) -> Result<FleetQueryOutcome, FvError> {
        Ok(self
            .far_view_batch(ft, std::slice::from_ref(spec))?
            .remove(0))
    }

    /// The batched `farView` verb at fleet scope, and the only fleet
    /// executor: scatter a whole doorbell batch of `specs` to every
    /// shard — each shard runs the batch as **one pipelined episode** on
    /// its queue pair — then gather and merge per query, each shard spec
    /// and merge derived by [`shard_execution`].
    ///
    /// The fleet-observed makespan therefore reflects per-shard
    /// pipelining (max over shards of the shard's batch makespan), not N
    /// serial fan-outs, while every merged result stays byte-identical
    /// to its sequential [`FleetQPair::far_view`] counterpart.
    ///
    /// The shard slots run in slot order on the calling thread. The
    /// shard batch is compiled once, to verify it before any slot runs,
    /// and those very pipelines serve every slot: each slot's episode
    /// hands them back and the next slot resets them in place, as a
    /// loaded region runs its next query. A replica that faults hands
    /// nothing back, so its failover compiles fresh. No pipeline
    /// outlives the call. A slot whose run panics is contained: the
    /// query fails with [`FvError::ScatterWorkerPanicked`] instead of
    /// unwinding into the caller.
    ///
    /// Shards resolve via the handle's epoch-snapshot [`Placement`]: each
    /// shard slot **executes its datapath once**, on the first surviving
    /// replica. A replica whose link faults (typed [`FvError::Net`] /
    /// [`FvError::IncompleteEpisode`]) fails over to the next surviving
    /// one; no read is hedged or raced. A slot whose replicas are all
    /// gone reports [`FvError::NodeDown`] — with `r ≥ 2`, any single
    /// node loss is survived transparently.
    ///
    /// # Errors
    /// As [`FleetQPair::far_view`], for any spec of the batch, before
    /// any shard runs; [`FvError::BatchTooDeep`] past the send queue.
    pub fn far_view_batch(
        &self,
        ft: &FleetTable,
        specs: &[PipelineSpec],
    ) -> Result<Vec<FleetQueryOutcome>, FvError> {
        self.check_table(ft)?;
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        // Once, before any slot runs: every shard would refuse the same
        // batch.
        crate::cluster::check_queue_depth(specs.len())?;
        let plans = specs
            .iter()
            .map(|s| shard_execution(s, ft.schema()))
            .collect::<Result<Vec<_>, _>>()?;
        let shard_specs: Vec<PipelineSpec> = plans.iter().map(|(s, _)| s.clone()).collect();
        // Compile (and so verify) the shard batch once, before any slot
        // runs: every shard would refuse the same spec. Every slot runs
        // these very pipelines.
        let mut pipelines = shard_specs
            .iter()
            .map(|s| CompiledPipeline::compile(s.clone(), ft.schema()))
            .collect::<Result<Vec<_>, _>>()?;

        // Each shard slot executes the whole batch once, on the first
        // surviving replica, with the pipelines the previous slot handed
        // back. A replica whose *link* faults (typed
        // `Net`/`IncompleteEpisode`) drops out of the slot like a dead
        // node, handing nothing back: the next one serves on a fresh
        // compile, and only when every replica fails does the slot
        // report the last typed error.
        let slots = ft.placement.shards().iter().zip(&ft.shards);
        let per_shard = scatter_slots(slots, &mut pipelines, |(nodes, replicas), pipelines| {
            let mut last_err = None;
            for (&node, sft) in nodes.iter().zip(replicas) {
                if !self.is_serving(node) {
                    continue;
                }
                match self
                    .node_qp(node)
                    .and_then(|qp| qp.execute_specs(sft, &shard_specs, pipelines))
                {
                    Ok(outcomes) => return Ok(outcomes),
                    // "This replica's datapath is degraded", as opposed
                    // to a query bug that every replica would share.
                    Err(e @ (FvError::Net(_) | FvError::IncompleteEpisode { .. })) => {
                        last_err = Some(e);
                    }
                    Err(e) => return Err(e),
                }
            }
            Err(last_err.unwrap_or_else(|| FvError::NodeDown {
                node: nodes.first().map_or(0, |n| n.0),
            }))
        })?;

        // Gather: merge query `i`'s per-shard outcomes client-side,
        // reading the shard payloads in place. Every slot ran the whole
        // batch, so each shard batch holds one outcome per query.
        Ok(plans
            .iter()
            .enumerate()
            .map(|(i, (_, merge))| {
                let outcomes: Vec<&QueryOutcome> =
                    per_shard.iter().filter_map(|batch| batch.get(i)).collect();
                merge_gathered(merge, &MergeCostModel::default(), &outcomes)
            })
            .collect())
    }

    /// Plain fleet-wide read: gather every shard's rows (row order under
    /// [`Partitioning::RowRange`] is the original table order).
    pub fn table_read(&self, ft: &FleetTable) -> Result<FleetQueryOutcome, FvError> {
        self.far_view(ft, &PipelineSpec::passthrough())
    }

    /// The paper's `select()` wrapper at fleet scope.
    pub fn select(&self, ft: &FleetTable, q: &SelectQuery) -> Result<FleetQueryOutcome, FvError> {
        self.far_view(ft, &q.to_spec())
    }

    /// `SELECT DISTINCT <cols>` across the fleet.
    pub fn distinct(
        &self,
        ft: &FleetTable,
        cols: Vec<usize>,
    ) -> Result<FleetQueryOutcome, FvError> {
        self.far_view(ft, &PipelineSpec::passthrough().distinct(cols))
    }

    /// `SELECT <keys>, <aggs> GROUP BY <keys>` across the fleet.
    pub fn group_by(
        &self,
        ft: &FleetTable,
        keys: Vec<usize>,
        aggs: Vec<fv_pipeline::AggSpec>,
    ) -> Result<FleetQueryOutcome, FvError> {
        self.far_view(ft, &PipelineSpec::passthrough().group_by(keys, aggs))
    }

    /// Regex selection across the fleet.
    pub fn regex_match(
        &self,
        ft: &FleetTable,
        col: usize,
        pattern: &str,
    ) -> Result<FleetQueryOutcome, FvError> {
        self.far_view(ft, &PipelineSpec::passthrough().regex_match(col, pattern))
    }
}

/// Coalesce sorted, deduplicated positions into `[lo, hi)` ranges.
fn coalesce(positions: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for &p in positions {
        match ranges.last_mut() {
            Some((_, hi)) if *hi == p => *hi += 1,
            _ => ranges.push((p, p + 1)),
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_pipeline::{AggFunc, AggSpec};

    fn table(rows: usize, groups: u64) -> Table {
        use fv_data::{TableBuilder, Value};
        let schema = Schema::uniform_u64(3);
        let mut b = TableBuilder::with_capacity(schema, rows);
        for i in 0..rows as u64 {
            b.push_values(vec![
                Value::U64(i % groups),
                Value::U64(i * 37 % 1000),
                Value::U64(i),
            ]);
        }
        b.build()
    }

    fn single_node_baseline(t: &Table, spec: &PipelineSpec) -> QueryOutcome {
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let qp = c.connect().unwrap();
        let (ft, _) = qp.load_table(t).unwrap();
        qp.far_view(&ft, spec).unwrap()
    }

    /// At fleet scope an over-deep batch is refused once, before any
    /// slot runs — not as a per-slot panic folded into
    /// `ScatterWorkerPanicked`.
    #[test]
    fn over_deep_fleet_batch_is_a_typed_error() {
        use crate::MAX_QUEUE_DEPTH;
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&table(8, 2), Partitioning::RowRange).unwrap();
        let specs = vec![PipelineSpec::passthrough(); MAX_QUEUE_DEPTH + 1];
        assert_eq!(
            qp.far_view_batch(&ft, &specs).map(|o| o.len()),
            Err(FvError::BatchTooDeep {
                depth: MAX_QUEUE_DEPTH + 1,
                max: MAX_QUEUE_DEPTH
            })
        );
        let full = qp.far_view_batch(&ft, &specs[..MAX_QUEUE_DEPTH]).unwrap();
        assert_eq!(full.len(), MAX_QUEUE_DEPTH);
    }

    #[test]
    fn row_range_assignment_is_contiguous_and_total() {
        let m = ShardMap::new(4);
        let t = table(10, 3);
        let a = m
            .assign(Partitioning::RowRange, t.schema(), t.bytes())
            .unwrap();
        assert_eq!(a.rows_per_shard(), vec![3, 3, 3, 1]);
        let flat: Vec<u32> = a.per_shard.concat();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn key_hash_co_locates_equal_keys() {
        let m = ShardMap::new(4);
        let t = table(256, 16);
        let a = m
            .assign(Partitioning::KeyHash(0), t.schema(), t.bytes())
            .unwrap();
        assert_eq!(a.rows_per_shard().iter().sum::<usize>(), 256);
        // Every key lives on exactly one shard.
        let mut key_shard = std::collections::HashMap::new();
        for (shard, rows) in a.per_shard.iter().enumerate() {
            for &r in rows {
                let key = t.row(r as usize).value(0).as_u64();
                assert_eq!(*key_shard.entry(key).or_insert(shard), shard);
            }
        }
        assert_eq!(key_shard.len(), 16);
    }

    #[test]
    fn scatter_write_roundtrips_by_row_range() {
        let fleet = FarviewFleet::new(3, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let t = table(100, 7);
        let (ft, write_time) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        assert!(write_time > SimDuration::ZERO);
        assert_eq!(ft.rows_per_shard(), vec![34, 34, 32]);
        assert_eq!(ft.epoch(), 0);
        assert_eq!(ft.replicas(), 1);
        let out = qp.table_read(&ft).unwrap();
        assert_eq!(out.merged.payload, t.bytes(), "gather restores row order");
        assert_eq!(out.per_shard.len(), 3);
        qp.free_table(ft).unwrap();
    }

    #[test]
    fn fleet_matches_single_node_byte_for_byte() {
        let t = table(300, 10);
        let specs = [
            PipelineSpec::passthrough(),
            PipelineSpec::passthrough().filter(fv_pipeline::PredicateExpr::lt(1, 500u64)),
            PipelineSpec::passthrough().distinct(vec![0]),
            PipelineSpec::passthrough().group_by(
                vec![0],
                vec![
                    AggSpec {
                        col: 1,
                        func: AggFunc::Sum,
                    },
                    AggSpec {
                        col: 2,
                        func: AggFunc::Min,
                    },
                    AggSpec {
                        col: 1,
                        func: AggFunc::Avg,
                    },
                ],
            ),
        ];
        for spec in &specs {
            let single = single_node_baseline(&t, spec);
            for nodes in [1usize, 2, 4] {
                let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
                let qp = fleet.connect().unwrap();
                let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
                let out = qp.far_view(&ft, spec).unwrap();
                assert_eq!(
                    out.merged.payload, single.payload,
                    "{nodes}-node fleet diverged on {spec:?}"
                );
                assert_eq!(out.merged.schema, single.schema);
            }
        }
    }

    #[test]
    fn key_hash_group_by_is_set_equal_with_no_cross_shard_groups() {
        let t = table(400, 16);
        let aggs = vec![AggSpec {
            col: 2,
            func: AggFunc::Sum,
        }];
        let single = single_node_baseline(
            &t,
            &PipelineSpec::passthrough().group_by(vec![0], aggs.clone()),
        );
        let fleet = FarviewFleet::new(4, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&t, Partitioning::KeyHash(0)).unwrap();
        let out = qp.group_by(&ft, vec![0], aggs).unwrap();

        let rows = |o: &QueryOutcome| {
            let mut v: Vec<Vec<u8>> = o
                .payload
                .chunks_exact(o.schema.row_bytes())
                .map(<[u8]>::to_vec)
                .collect();
            v.sort();
            v
        };
        assert_eq!(rows(&out.merged), rows(&single));
        // Co-location: the shards together flushed exactly one group per
        // key — no partial groups crossed shards.
        assert_eq!(out.merged.stats.groups_flushed, 16);
    }

    #[test]
    fn fleet_response_is_max_over_shards_plus_merge() {
        let fleet = FarviewFleet::new(4, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let t = table(512, 8);
        let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        let out = qp.table_read(&ft).unwrap();
        let slowest = out.per_shard.iter().map(|s| s.response_time).max().unwrap();
        assert!(out.merge_time > SimDuration::ZERO);
        assert_eq!(out.merged.stats.response_time, slowest + out.merge_time);
        // Scale-out: each shard streamed a quarter of the table, so the
        // slowest shard beats a single node streaming all of it.
        let single = single_node_baseline(&t, &PipelineSpec::passthrough());
        assert!(
            out.merged.stats.response_time < single.stats.response_time,
            "4 nodes must beat 1: {} vs {}",
            out.merged.stats.response_time,
            single.stats.response_time
        );
    }

    #[test]
    fn batched_fleet_queries_merge_per_query() {
        let t = table(400, 8);
        let fleet = FarviewFleet::new(3, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        let specs = vec![
            PipelineSpec::passthrough(),
            PipelineSpec::passthrough().filter(fv_pipeline::PredicateExpr::lt(1, 500u64)),
            PipelineSpec::passthrough().distinct(vec![0]),
            PipelineSpec::passthrough().group_by(
                vec![0],
                vec![AggSpec {
                    col: 2,
                    func: AggFunc::Avg,
                }],
            ),
        ];
        let sequential: Vec<_> = specs.iter().map(|s| qp.far_view(&ft, s).unwrap()).collect();
        let batched = qp.far_view_batch(&ft, &specs).unwrap();
        assert_eq!(batched.len(), specs.len());
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(
                b.merged.payload, s.merged.payload,
                "batched fleet merge must match sequential"
            );
            assert_eq!(b.merged.schema, s.merged.schema);
            assert_eq!(b.per_shard.len(), 3);
        }
        // Unsupported specs are rejected up front, before any fan-out.
        assert!(matches!(
            qp.far_view_batch(&ft, &[PipelineSpec::passthrough().compress()]),
            Err(FvError::FleetUnsupported { .. })
        ));
        assert!(qp.far_view_batch(&ft, &[]).unwrap().is_empty());

        // A depth-8 batch with a DISTINCT over an 84 KiB table on four
        // nodes: one set of pipelines, reset in place, serves every
        // slot, and each query merges to the single node's bytes.
        let big = fv_workload::TableGen::new(3, 3584)
            .seed(0x5CA7)
            .distinct_column(0, 300)
            .build();
        let mut specs: Vec<PipelineSpec> = [150u64, 0, 299, 17, 230, 64, 101]
            .iter()
            .map(|&t| PipelineSpec::passthrough().filter(fv_pipeline::PredicateExpr::lt(0, t)))
            .collect();
        specs.push(PipelineSpec::passthrough().distinct(vec![0]));
        let fleet = FarviewFleet::new(4, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&big, Partitioning::RowRange).unwrap();
        let batched = qp.far_view_batch(&ft, &specs).unwrap();
        assert_eq!(batched.len(), specs.len());
        for (b, spec) in batched.iter().zip(&specs) {
            let single = single_node_baseline(&big, spec);
            assert_eq!(b.merged.payload, single.payload, "{spec:?}");
            assert_eq!(b.merged.schema, single.schema);
            assert_eq!(b.per_shard.len(), 4);
        }
    }

    #[test]
    fn unsupported_merges_are_rejected() {
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let t = table(16, 4);
        let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        assert!(matches!(
            qp.far_view(&ft, &PipelineSpec::passthrough().compress()),
            Err(FvError::FleetUnsupported { .. })
        ));
        let other_fleet = FarviewFleet::new(3, FarviewConfig::tiny());
        let other_qp = other_fleet.connect().unwrap();
        assert!(matches!(
            other_qp.table_read(&ft),
            Err(FvError::ForeignTable)
        ));
    }

    /// A `GROUP BY` over a column the table lacks is the single node's
    /// typed error on a fleet too, from `far_view` and from the plan
    /// verifier alike — the shard planner once panicked on it.
    #[test]
    fn an_aggregate_past_the_schema_is_the_single_node_error() {
        let t = table(16, 4);
        let spec = PipelineSpec::passthrough().group_by(
            vec![0],
            vec![AggSpec {
                col: 7,
                func: AggFunc::Sum,
            }],
        );
        let want = Err(FvError::Pipeline(
            fv_pipeline::PipelineError::UnknownColumn { col: 7, arity: 3 },
        ));
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let single = c.connect().unwrap();
        let (st, _) = single.load_table(&t).unwrap();
        assert_eq!(single.far_view(&st, &spec).map(|o| o.schema), want);

        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        assert_eq!(qp.far_view(&ft, &spec).map(|o| o.merged.schema), want);
        let plan = crate::QueryPlan::from_spec(&spec, ft.plan_target());
        assert_eq!(plan.verify(t.schema()), want);
    }

    /// A table encrypted at rest decrypts on one node and is a typed
    /// refusal on a fleet — under either partitioning, replicated, and
    /// from inside a batch. Each shard's pipeline would start its CTR
    /// stream at offset 0 over ciphertext cut from further into the
    /// keystream: before the refusal, every shard but the first came
    /// back as garbage with `Ok`.
    #[test]
    fn decrypting_an_encrypted_table_across_shards_is_a_typed_refusal() {
        use fv_pipeline::CryptoSpec;
        let key = CryptoSpec {
            key: [0x2b; 16],
            iv: [0xf0; 16],
        };
        let plain = table(4096, 32);
        let encrypted = fv_workload::encrypt_table(&plain, &key.key, &key.iv);
        let decrypt = PipelineSpec::passthrough().decrypt(key);
        assert_eq!(
            single_node_baseline(&encrypted, &decrypt).payload,
            plain.bytes(),
            "one node sees the whole keystream"
        );

        let refused = FvError::FleetUnsupported {
            feature: "input-decrypted",
        };
        let fleet = FarviewFleet::new(4, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        for (part, replicas) in [
            (Partitioning::RowRange, 1),
            (Partitioning::KeyHash(0), 1),
            (Partitioning::RowRange, 2),
        ] {
            let (ft, _) = qp
                .load_table_replicated(&encrypted, part, replicas)
                .unwrap();
            assert_eq!(
                qp.far_view(&ft, &decrypt).map(|o| o.merged.payload),
                Err(refused.clone()),
                "{part:?} r={replicas}"
            );
            // One decrypting spec refuses the whole batch, before any
            // shard runs.
            let batch = [
                PipelineSpec::passthrough().distinct(vec![0]),
                decrypt.clone(),
                PipelineSpec::passthrough(),
            ];
            assert_eq!(
                qp.far_view_batch(&ft, &batch).map(|o| o.len()),
                Err(refused.clone()),
                "{part:?} r={replicas} batch"
            );
            // The ciphertext itself still reads back whole.
            assert_eq!(
                qp.table_read(&ft).unwrap().merged.payload.len(),
                encrypted.byte_len()
            );
        }
    }

    #[test]
    fn failed_alloc_rolls_back_partial_shard_allocations() {
        // Fill node 1's pool so a fleet-wide allocation fails there;
        // the pages already taken on node 0 must be returned.
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let hog_qp = fleet.node(1).unwrap().connect().unwrap();
        // Grab almost everything on node 1 (leave < one 2 MiB page).
        let bytes = fleet.node(1).unwrap().free_pages() * fv_sim::calib::PAGE_BYTES - 64;
        let hog = hog_qp
            .alloc_table_spec(&Schema::uniform_u64(8), (bytes / 64) as usize)
            .expect("hog allocation must fit");
        let qp = fleet.connect().unwrap();
        let free_before = fleet.free_pages();
        let big = table(100_000, 4); // ~2.4 MB per shard half: node 1 is full
        assert!(qp.alloc_table(&big, Partitioning::RowRange).is_err());
        assert_eq!(
            fleet.free_pages(),
            free_before,
            "failed fleet alloc must not leak pages on the shards that succeeded"
        );
        hog_qp.free_table(hog).unwrap();
    }

    #[test]
    fn failed_scatter_write_frees_every_allocation() {
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let t = table(1000, 4);
        let free_before = fleet.free_pages();
        let victim = fleet.node_ids()[1];
        fleet
            .degrade_node(victim, fv_net::FaultPlan::none().partitioned())
            .unwrap();
        let err = qp
            .load_table(&t, Partitioning::RowRange)
            .expect_err("node 1 is partitioned");
        assert!(matches!(err, FvError::Net(_)), "{err}");
        assert_eq!(
            fleet.free_pages(),
            free_before,
            "a failed fleet load must not leak pages on either node"
        );
        fleet.heal_node(victim).unwrap();
        let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        let out = qp.far_view(&ft, &PipelineSpec::passthrough()).unwrap();
        assert_eq!(out.merged.payload, t.bytes());
    }

    #[test]
    fn avg_of_huge_values_does_not_wrap() {
        // Four rows of 2^62 sum to 2^64: an integer partial SUM would
        // wrap to 0, which is why AVG fans out as SUMF64 + COUNT. All
        // sums here are powers of two, hence exact in f64, so the fleet
        // stays byte-identical to the single node.
        use fv_data::{TableBuilder, Value};
        let schema = Schema::uniform_u64(2);
        let mut b = TableBuilder::new(schema);
        for i in 0..4u64 {
            b.push_values(vec![Value::U64(i % 2), Value::U64(1u64 << 62)]);
        }
        let t = b.build();
        let spec = PipelineSpec::passthrough().group_by(
            vec![0],
            vec![AggSpec {
                col: 1,
                func: AggFunc::Avg,
            }],
        );
        let single = single_node_baseline(&t, &spec);
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        let out = qp.far_view(&ft, &spec).unwrap();
        assert_eq!(out.merged.payload, single.payload);
        let avg = f64::from_le_bytes(out.merged.payload[8..16].try_into().unwrap());
        assert_eq!(avg, (1u64 << 62) as f64, "no wrap, exact mean");
    }

    #[test]
    fn same_shaped_foreign_fleet_is_rejected() {
        // Two fleets of identical shape produce identical per-node qp
        // ids and vaddrs; only the fleet id distinguishes their handles.
        let a = FarviewFleet::new(2, FarviewConfig::tiny());
        let b = FarviewFleet::new(2, FarviewConfig::tiny());
        let qa = a.connect().unwrap();
        let qb = b.connect().unwrap();
        let t = table(32, 4);
        let (fta, _) = qa.load_table(&t, Partitioning::RowRange).unwrap();
        let (_ftb, _) = qb
            .load_table(&table(32, 8), Partitioning::RowRange)
            .unwrap();
        assert!(matches!(qb.table_read(&fta), Err(FvError::ForeignTable)));
        assert_eq!(qa.table_read(&fta).unwrap().merged.payload, t.bytes());
    }

    #[test]
    fn write_size_checked_at_fleet_scope() {
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let t = table(8, 2);
        let ft = qp.alloc_table(&t, Partitioning::RowRange).unwrap();
        assert!(matches!(
            qp.table_write(&ft, &t.bytes()[..24]),
            Err(FvError::WriteSizeMismatch { .. })
        ));
    }

    #[test]
    fn stale_key_hash_assignment_is_rejected() {
        // A KeyHash assignment is computed from the data passed to
        // alloc_table; writing same-sized data with different keys would
        // scatter rows to the wrong shards, so it must be rejected.
        let fleet = FarviewFleet::new(4, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let original = table(64, 8);
        let ft = qp.alloc_table(&original, Partitioning::KeyHash(0)).unwrap();
        let different_keys = table(64, 5);
        assert!(matches!(
            qp.table_write(&ft, different_keys.bytes()),
            Err(FvError::FleetPartitionMismatch)
        ));
        // The original image still writes fine, and same-sized data is
        // never an issue under RowRange (assignment depends only on row
        // count).
        qp.table_write(&ft, original.bytes()).unwrap();
        let rr = qp.alloc_table(&original, Partitioning::RowRange).unwrap();
        qp.table_write(&rr, different_keys.bytes()).unwrap();
    }

    #[test]
    fn checked_node_accessor_reports_oob() {
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        assert!(fleet.node(0).is_ok());
        assert!(fleet.node(1).is_ok());
        assert!(matches!(
            fleet.node(2),
            Err(FvError::NoSuchNode { node: 2, nodes: 2 })
        ));
        assert!(matches!(
            fleet.heal_node(NodeId(99)),
            Err(FvError::NoSuchNode { .. })
        ));
        let t = table(8, 2);
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        assert!(ft.shard(0).is_some());
        assert!(
            ft.shard(5).is_none(),
            "shard access is checked, not a panic"
        );
    }

    #[test]
    fn degrade_node_refuses_an_out_of_range_plan_typed() {
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let id = fleet.node_ids()[0];
        let qp = fleet.connect().unwrap();
        let t = table(64, 2);
        let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        assert_eq!(
            fleet
                .degrade_node(id, fv_net::FaultPlan::default().with_loss(1.0))
                .unwrap_err(),
            FvError::Net(fv_net::NetError::InvalidFaultPlan { field: "loss" })
        );
        // The refused plan never reached the node: it still serves.
        let out = qp.far_view(&ft, &PipelineSpec::default()).unwrap();
        assert_eq!(out.merged.payload, t.bytes());
        // A node configured with such a plan refuses its first transfer.
        let config = FarviewConfig {
            fault: fv_net::FaultPlan::default().with_loss(1.0),
            ..FarviewConfig::tiny()
        };
        let node = FarviewCluster::new(config).connect().unwrap();
        assert!(matches!(
            node.load_table(&t),
            Err(FvError::Net(fv_net::NetError::InvalidFaultPlan { .. }))
        ));
    }

    #[test]
    fn grow_rebalance_matches_fresh_fleet() {
        let t = table(120, 6);
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (old, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        let before = qp.table_read(&old).unwrap().merged.payload.clone();

        fleet.add_node();
        fleet.add_node();
        assert_eq!(fleet.epoch(), 2);
        let (new, report) = qp.rebalance(&old).unwrap();
        assert_eq!(new.epoch(), 2);
        assert_eq!(new.rows_per_shard(), vec![30, 30, 30, 30]);
        assert!(report.moved_rows > 0);
        assert_eq!(report.moved_bytes, report.moved_rows * 24);
        assert!(report.copy_time > SimDuration::ZERO);
        assert!(report.write_time > SimDuration::ZERO);
        assert!(report.total_time() > SimDuration::ZERO);

        // Old epoch handle stays byte-identical while in flight.
        assert_eq!(qp.table_read(&old).unwrap().merged.payload, before);
        // New epoch handle fans out over 4 shards, byte-identically.
        let out = qp.table_read(&new).unwrap();
        assert_eq!(out.per_shard.len(), 4);
        assert_eq!(out.merged.payload, before);
        // Retiring the old epoch returns its pages.
        let free_before = fleet.free_pages();
        qp.free_table(old).unwrap();
        assert!(fleet.free_pages() > free_before);
        qp.free_table(new).unwrap();
    }

    #[test]
    fn drain_then_rebalance_moves_shards_off_the_node() {
        let t = table(90, 5);
        let fleet = FarviewFleet::new(3, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (old, _) = qp.load_table(&t, Partitioning::KeyHash(0)).unwrap();
        let victim = fleet.node_ids()[1];
        fleet.drain_node(victim).unwrap();
        let (new, _) = qp.rebalance(&old).unwrap();
        assert!(
            !new.placement().nodes().contains(&victim),
            "no shard may remain on a draining node after rebalance"
        );
        // Draining nodes still serve the old epoch; the rebalanced
        // table holds the same rows (KeyHash row *order* changes with
        // the shard count — set equality is the hash-partitioned
        // contract), and is byte-identical to a fresh 2-node fleet.
        let sorted = |payload: &[u8]| {
            let mut v: Vec<Vec<u8>> = payload.chunks_exact(24).map(<[u8]>::to_vec).collect();
            v.sort();
            v
        };
        let before = qp.table_read(&old).unwrap().merged.payload.clone();
        let after = qp.table_read(&new).unwrap().merged.payload.clone();
        assert_eq!(sorted(&after), sorted(&before));
        let fresh = FarviewFleet::new(2, FarviewConfig::tiny());
        let fresh_qp = fresh.connect().unwrap();
        let (fresh_ft, _) = fresh_qp.load_table(&t, Partitioning::KeyHash(0)).unwrap();
        assert_eq!(
            fresh_qp.table_read(&fresh_ft).unwrap().merged.payload,
            after,
            "rebalanced placement must equal a fresh fleet's"
        );
        qp.free_table(old).unwrap();
        // With the old epoch retired the drained node holds nothing and
        // can be removed without any query noticing.
        fleet.remove_node(victim).unwrap();
        assert_eq!(qp.table_read(&new).unwrap().merged.payload, after);
        assert_eq!(fleet.node_count(), 2);
    }

    #[test]
    fn replicated_reads_survive_a_kill() {
        let t = table(200, 8);
        let fleet = FarviewFleet::new(3, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp
            .load_table_replicated(&t, Partitioning::RowRange, 2)
            .unwrap();
        assert_eq!(ft.replicas(), 2);
        let before = qp.table_read(&ft).unwrap().merged.payload.clone();
        assert_eq!(before, t.bytes());

        let victim = fleet.node_ids()[0];
        fleet.remove_node(victim).unwrap();
        let after = qp.table_read(&ft).unwrap();
        assert_eq!(after.merged.payload, before, "replica fallback is exact");

        // Unreplicated tables on a killed node are honestly lost.
        let fleet2 = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp2 = fleet2.connect().unwrap();
        let (ft2, _) = qp2.load_table(&t, Partitioning::RowRange).unwrap();
        fleet2.remove_node(fleet2.node_ids()[0]).unwrap();
        assert!(matches!(
            qp2.table_read(&ft2),
            Err(FvError::NodeDown { .. })
        ));
    }

    #[test]
    fn noop_rebalance_reports_zero_moves() {
        let t = table(50, 5);
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        let (ft, _) = qp.load_table(&t, Partitioning::RowRange).unwrap();
        let (same, report) = qp.rebalance(&ft).unwrap();
        assert_eq!(report.moved_rows, 0);
        assert_eq!(report.total_time(), SimDuration::ZERO);
        assert_eq!(same.epoch(), ft.epoch());
        // Epoch bumps that cancel out (add then remove the same node)
        // are also no-ops: the placement is still what the Active set
        // computes, so no reallocation or rewrite may happen.
        let free_before = fleet.free_pages();
        let transient = fleet.add_node();
        fleet.remove_node(transient).unwrap();
        let (_still_same, report) = qp.rebalance(&ft).unwrap();
        assert_eq!(report.moved_rows, 0);
        assert_eq!(report.total_time(), SimDuration::ZERO);
        assert_eq!(fleet.free_pages(), free_before, "no-op must not allocate");
        // The no-op handle aliases the input's allocations: retire one.
        qp.free_table(ft).unwrap();
    }

    #[test]
    fn bad_replication_is_rejected() {
        let t = table(20, 4);
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let qp = fleet.connect().unwrap();
        assert!(matches!(
            qp.load_table_replicated(&t, Partitioning::RowRange, 3),
            Err(FvError::BadReplication {
                replicas: 3,
                nodes: 2
            })
        ));
        assert!(matches!(
            qp.load_table_replicated(&t, Partitioning::RowRange, 0),
            Err(FvError::BadReplication { .. })
        ));
    }
}
