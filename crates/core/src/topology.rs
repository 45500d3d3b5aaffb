//! Elastic fleet topology: epoch-versioned membership and placement.
//!
//! The paper's premise is that disaggregating memory lets compute and
//! memory scale *independently* — which is only true if the memory side
//! can change shape while queries are in flight. This module makes
//! placement a first-class, re-optimizable decision instead of a
//! constructor argument:
//!
//! * [`Topology`] — the shared, **epoch-versioned** node roster. Every
//!   membership change ([`crate::FarviewFleet::add_node`],
//!   [`crate::FarviewFleet::drain_node`],
//!   [`crate::FarviewFleet::remove_node`]) bumps the epoch; readers take
//!   an immutable [`TopologySnapshot`] and never observe a half-applied
//!   change.
//! * [`Placement`] — the generalization of the static
//!   [`ShardMap`]: one table's row→shard assignment
//!   *plus* the shard→node mapping (with an optional replication factor
//!   `r`, so each shard lives on `r` distinct nodes), stamped with the
//!   epoch it was computed at.
//! * `MovePlan` / `plan_moves` — the **minimal** set of row copies
//!   turning one placement into another: a `(row, destination)` copy is
//!   scheduled only when the destination does not already hold the row
//!   (contiguous row-range splits under
//!   [`Partitioning::RowRange`], hash-bucket reassignment under
//!   [`Partitioning::KeyHash`]).
//! * [`RebalanceReport`] — the honestly costed outcome of executing a
//!   move plan: source-side copy episodes through the real net stack,
//!   client-side reshuffle (see [`fv_sim::MigrationCostModel`]), and
//!   destination writes.
//!
//! The rebalancer itself lives on
//! [`FleetQPair::rebalance`](crate::FleetQPair::rebalance) — it needs
//! the connection handles — but all placement arithmetic is here, so
//! the invariant the property tests lean on is easy to state: a
//! rebalanced placement is **identical** to the placement a fresh fleet
//! of the target shape would compute, hence query results stay
//! byte-identical across any sequence of grows, drains and rebalances.

use std::sync::{Arc, Mutex};

use fv_data::Schema;
use fv_sim::SimDuration;

use crate::cluster::FarviewCluster;
use crate::config::FarviewConfig;
use crate::error::FvError;
use crate::fleet::{Partitioning, ShardAssignment, ShardMap};
use crate::lock;

/// Stable identity of one memory node, unchanged across roster edits
/// (unlike a roster *index*, which shifts when nodes leave).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Lifecycle state of one roster entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Serving traffic and eligible as a target of new placements.
    Active,
    /// Still serving the placements it holds, but excluded from the
    /// targets of future placements/rebalances — the graceful
    /// decommission state.
    Draining,
    /// Gone (killed or decommissioned). Never consulted again; queries
    /// fall back to surviving replicas or report
    /// [`FvError::NodeDown`].
    Removed,
}

struct NodeEntry {
    id: NodeId,
    cluster: FarviewCluster,
    health: NodeHealth,
}

struct TopologyInner {
    epoch: u64,
    entries: Vec<NodeEntry>,
    next_id: u64,
}

impl TopologyInner {
    fn entry(&self, id: NodeId) -> Result<&NodeEntry, FvError> {
        self.entries
            .iter()
            .find(|e| e.id == id && e.health != NodeHealth::Removed)
            .ok_or(FvError::NoSuchNode {
                node: id.0,
                nodes: self.live_count(),
            })
    }

    fn live_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.health != NodeHealth::Removed)
            .count()
    }
}

/// The shared, epoch-versioned fleet roster. Cheap to clone (an `Arc`);
/// every [`crate::FleetQPair`] holds one so routing decisions always see
/// the current epoch.
#[derive(Clone)]
pub struct Topology {
    inner: Arc<Mutex<TopologyInner>>,
}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("Topology")
            .field("epoch", &inner.epoch)
            .field("nodes", &inner.live_count())
            .finish()
    }
}

impl Topology {
    /// A roster of `nodes` identical Active nodes at epoch 0.
    pub(crate) fn with_nodes(nodes: usize, config: &FarviewConfig) -> Self {
        let entries = (0..nodes as u64)
            .map(|i| NodeEntry {
                id: NodeId(i),
                cluster: FarviewCluster::new(config.clone()),
                health: NodeHealth::Active,
            })
            .collect();
        Topology {
            inner: Arc::new(Mutex::new(TopologyInner {
                epoch: 0,
                entries,
                next_id: nodes as u64,
            })),
        }
    }

    /// The current epoch. Bumped by every membership change; a
    /// [`Placement`] carrying an older epoch is stale (still servable,
    /// no longer optimal).
    pub fn epoch(&self) -> u64 {
        lock(&self.inner).epoch
    }

    /// An immutable view of the roster at the current epoch.
    pub fn snapshot(&self) -> TopologySnapshot {
        let inner = lock(&self.inner);
        TopologySnapshot {
            epoch: inner.epoch,
            active: inner
                .entries
                .iter()
                .filter(|e| e.health == NodeHealth::Active)
                .map(|e| e.id)
                .collect(),
            serving: inner
                .entries
                .iter()
                .filter(|e| e.health != NodeHealth::Removed)
                .map(|e| e.id)
                .collect(),
        }
    }

    /// Health of the node `id`.
    ///
    /// # Errors
    /// [`FvError::NoSuchNode`] for unknown or removed ids.
    pub fn health(&self, id: NodeId) -> Result<NodeHealth, FvError> {
        Ok(lock(&self.inner).entry(id)?.health)
    }

    /// True when `id` can still serve reads (Active or Draining).
    pub fn is_serving(&self, id: NodeId) -> bool {
        self.health(id).is_ok()
    }

    /// The cluster behind a live node (clusters are `Arc`-backed, so
    /// this clone shares state with the roster entry).
    pub(crate) fn cluster(&self, id: NodeId) -> Result<FarviewCluster, FvError> {
        Ok(lock(&self.inner).entry(id)?.cluster.clone())
    }

    /// Live node ids in roster order (Active + Draining).
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.snapshot().serving
    }

    /// Append a fresh Active node; bumps the epoch.
    pub(crate) fn add_node(&self, config: &FarviewConfig) -> NodeId {
        let mut inner = lock(&self.inner);
        let id = NodeId(inner.next_id);
        inner.next_id += 1;
        inner.entries.push(NodeEntry {
            id,
            cluster: FarviewCluster::new(config.clone()),
            health: NodeHealth::Active,
        });
        inner.epoch += 1;
        id
    }

    /// Transition a live node to `health`; bumps the epoch.
    pub(crate) fn set_health(&self, id: NodeId, health: NodeHealth) -> Result<(), FvError> {
        let mut inner = lock(&self.inner);
        let nodes = inner.live_count();
        let entry = inner
            .entries
            .iter_mut()
            .find(|e| e.id == id && e.health != NodeHealth::Removed)
            .ok_or(FvError::NoSuchNode { node: id.0, nodes })?;
        entry.health = health;
        inner.epoch += 1;
        Ok(())
    }
}

/// An immutable roster view at one epoch — what [`Placement::compute`]
/// targets and routing consults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySnapshot {
    /// The epoch this snapshot was taken at.
    pub epoch: u64,
    /// Placement-eligible nodes (Active), in roster order. Shard `i` of
    /// an `n`-shard table lands on `active[i]`, with replica `j` on
    /// `active[(i + j) % n]` — identical to what a fresh fleet of
    /// `active.len()` nodes computes, which is what keeps rebalanced
    /// results byte-identical to a fresh fleet's.
    pub active: Vec<NodeId>,
    /// Nodes still serving reads (Active + Draining), in roster order.
    pub serving: Vec<NodeId>,
}

/// One table's materialized placement: the row→shard assignment plus
/// the shard→node mapping (`r` replica nodes per shard), stamped with
/// the epoch it was computed at. Generalizes the static
/// [`ShardMap`] the fleet was frozen to before the
/// topology layer existed.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    epoch: u64,
    partitioning: Partitioning,
    replicas: usize,
    /// Per shard slot: the nodes holding a full copy of that shard
    /// (`[primary, replica, ...]`).
    shards: Vec<Vec<NodeId>>,
    assignment: ShardAssignment,
}

impl Placement {
    /// Compute the placement of `(schema, data)` over the snapshot's
    /// Active nodes under `part` with `replicas` copies per shard.
    ///
    /// # Errors
    /// [`FvError::NoActiveNodes`] on an empty target set,
    /// [`FvError::BadReplication`] when `replicas` is zero or exceeds
    /// the Active node count, plus any partitioning error from
    /// [`ShardMap::assign`].
    pub fn compute(
        snapshot: &TopologySnapshot,
        part: Partitioning,
        replicas: usize,
        schema: &Schema,
        data: &[u8],
    ) -> Result<Placement, FvError> {
        let n = snapshot.active.len();
        if n == 0 {
            return Err(FvError::NoActiveNodes);
        }
        if replicas == 0 || replicas > n {
            return Err(FvError::BadReplication { replicas, nodes: n });
        }
        let assignment = ShardMap::new(n).assign(part, schema, data)?;
        let shards = (0..n)
            .map(|i| {
                snapshot
                    .active
                    .iter()
                    .cycle()
                    .skip(i)
                    .take(replicas)
                    .copied()
                    .collect()
            })
            .collect();
        Ok(Placement {
            epoch: snapshot.epoch,
            partitioning: part,
            replicas,
            shards,
            assignment,
        })
    }

    /// The epoch this placement was computed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The partitioning scheme.
    pub fn partitioning(&self) -> Partitioning {
        self.partitioning
    }

    /// Replicas per shard.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Number of shard slots.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per shard slot, the nodes holding it (`[primary, replica, ...]`).
    pub fn shards(&self) -> &[Vec<NodeId>] {
        &self.shards
    }

    /// The replica list of `slot`; empty past the last slot.
    pub(crate) fn holders(&self, slot: u32) -> &[NodeId] {
        self.shards.get(slot as usize).map_or(&[], Vec::as_slice)
    }

    /// The row→shard assignment.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// Whether this placement is exactly what [`Placement::compute`]
    /// would produce against `snapshot` — i.e. the Active set (and
    /// hence the shard→node mapping) is unchanged, regardless of how
    /// many times the epoch was bumped in between. Rebalancing a
    /// still-current placement is a no-op; restaging one would be
    /// wasted work.
    pub fn is_current(&self, snapshot: &TopologySnapshot) -> bool {
        let n = snapshot.active.len();
        n == self.shards.len()
            && self.shards.iter().enumerate().all(|(i, slot)| {
                slot.iter()
                    .eq(snapshot.active.iter().cycle().skip(i).take(self.replicas))
            })
    }

    /// Every node this placement references, deduplicated, in slot
    /// order.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut seen = Vec::new();
        for slot in &self.shards {
            for &n in slot {
                if !seen.contains(&n) {
                    seen.push(n);
                }
            }
        }
        seen
    }

    /// For each original row index: the shard slot owning it.
    pub(crate) fn slot_of_rows(&self, rows: usize) -> Vec<u32> {
        let mut owner = vec![0u32; rows];
        for (slot, indices) in self.assignment.per_shard().iter().enumerate() {
            for &r in indices {
                if let Some(o) = owner.get_mut(r as usize) {
                    *o = slot as u32;
                }
            }
        }
        owner
    }
}

/// One batch of row copies from one source node to one destination —
/// the unit the rebalancer turns into a costed copy episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardMove {
    /// Node the bytes are read from (a surviving holder of the rows).
    pub from: NodeId,
    /// Node that must hold the rows under the target placement.
    pub to: NodeId,
    /// Original row indices moved, ascending.
    pub rows: Vec<u32>,
    /// Bytes crossing the wire for this move.
    pub bytes: u64,
}

/// The minimal set of copies turning one placement into another.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct MovePlan {
    /// Per `(from, to)` pair with at least one moved row, ascending by
    /// `(from, to)`.
    pub moves: Vec<ShardMove>,
}

impl MovePlan {
    /// Total `(row, destination)` copies.
    pub(crate) fn moved_rows(&self) -> u64 {
        self.moves.iter().map(|m| m.rows.len() as u64).sum()
    }

    /// Total bytes crossing the wire.
    pub(crate) fn moved_bytes(&self) -> u64 {
        self.moves.iter().map(|m| m.bytes).sum()
    }
}

/// The error for a replica list with no live holder: its first node is
/// down, or it names no node at all.
pub(crate) fn holders_down(holders: &[NodeId]) -> FvError {
    holders
        .first()
        .map_or(FvError::NoActiveNodes, |h| FvError::NodeDown { node: h.0 })
}

/// Compute the minimal move plan from `old` to `new`: a `(row, node)`
/// copy is scheduled only when the node must hold the row under `new`
/// and does not already hold it under `old`. Each copy is sourced from
/// the first holder of the row that `is_live` — so the plan survives a
/// dead node as long as one replica of every shard is alive.
///
/// # Errors
/// [`FvError::NodeDown`] when some row's holders are all dead (the data
/// is unrecoverable without external state).
pub(crate) fn plan_moves(
    old: &Placement,
    new: &Placement,
    row_bytes: usize,
    is_live: impl Fn(NodeId) -> bool,
) -> Result<MovePlan, FvError> {
    use std::collections::BTreeMap;
    let rows = old
        .assignment()
        .per_shard()
        .iter()
        .map(Vec::len)
        .sum::<usize>();
    let old_owner = old.slot_of_rows(rows);
    let new_owner = new.slot_of_rows(rows);
    let mut grouped: BTreeMap<(NodeId, NodeId), Vec<u32>> = BTreeMap::new();
    for (r, (&o, &n)) in old_owner.iter().zip(&new_owner).enumerate() {
        let (old_holders, new_holders) = (old.holders(o), new.holders(n));
        let source = *old_holders
            .iter()
            .find(|&&h| is_live(h))
            .ok_or_else(|| holders_down(old_holders))?;
        for &dest in new_holders {
            if !old_holders.contains(&dest) {
                grouped.entry((source, dest)).or_default().push(r as u32);
            }
        }
    }
    Ok(MovePlan {
        moves: grouped
            .into_iter()
            .map(|((from, to), rows)| ShardMove {
                from,
                to,
                bytes: (rows.len() * row_bytes) as u64,
                rows,
            })
            .collect(),
    })
}

/// What one executed rebalance cost, phase by phase. The copy phase
/// runs as real episodes on the source nodes (doorbell-batched
/// passthrough reads of exactly the moved row ranges, through the full
/// net stack); the reshuffle is the client-side routing of moved bytes
/// into destination images ([`fv_sim::MigrationCostModel`]); the write
/// phase lands every rebuilt shard image through the simulated write
/// datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Epoch the table's placement was computed at before the move.
    pub from_epoch: u64,
    /// Epoch the new placement is stamped with.
    pub to_epoch: u64,
    /// `(source → destination)` copy flows executed.
    pub moves: usize,
    /// Total `(row, destination)` copies.
    pub moved_rows: u64,
    /// Bytes that crossed the wire.
    pub moved_bytes: u64,
    /// Source-side copy episodes (parallel across source nodes; max).
    pub copy_time: SimDuration,
    /// Client-side reshuffle of moved bytes into destination images.
    pub shuffle_time: SimDuration,
    /// Destination-side writes (parallel across nodes; max of per-node
    /// serial sums).
    pub write_time: SimDuration,
}

impl RebalanceReport {
    /// End-to-end rebalance time: copy, reshuffle and write phases run
    /// back to back at the coordinator.
    pub fn total_time(&self) -> SimDuration {
        self.copy_time + self.shuffle_time + self.write_time
    }

    /// A report for a no-op rebalance (placement already at the target).
    pub(crate) fn noop(epoch: u64) -> Self {
        RebalanceReport {
            from_epoch: epoch,
            to_epoch: epoch,
            moves: 0,
            moved_rows: 0,
            moved_bytes: 0,
            copy_time: SimDuration::ZERO,
            shuffle_time: SimDuration::ZERO,
            write_time: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::{Schema, TableBuilder, Value};

    fn table_bytes(rows: usize) -> (Schema, Vec<u8>) {
        let schema = Schema::uniform_u64(2);
        let mut b = TableBuilder::with_capacity(schema.clone(), rows);
        for i in 0..rows as u64 {
            b.push_values(vec![Value::U64(i % 7), Value::U64(i)]);
        }
        (schema, b.build().bytes().to_vec())
    }

    fn snap(epoch: u64, ids: &[u64]) -> TopologySnapshot {
        TopologySnapshot {
            epoch,
            active: ids.iter().copied().map(NodeId).collect(),
            serving: ids.iter().copied().map(NodeId).collect(),
        }
    }

    #[test]
    fn epoch_bumps_on_every_membership_change() {
        let t = Topology::with_nodes(2, &FarviewConfig::tiny());
        assert_eq!(t.epoch(), 0);
        let id = t.add_node(&FarviewConfig::tiny());
        assert_eq!(t.epoch(), 1);
        assert_eq!(id, NodeId(2));
        t.set_health(id, NodeHealth::Draining).unwrap();
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.health(id).unwrap(), NodeHealth::Draining);
        t.set_health(id, NodeHealth::Removed).unwrap();
        assert_eq!(t.epoch(), 3);
        assert!(matches!(t.health(id), Err(FvError::NoSuchNode { .. })));
        assert!(!t.is_serving(id));
        let s = t.snapshot();
        assert_eq!(s.active, vec![NodeId(0), NodeId(1)]);
        assert_eq!(s.serving, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn draining_nodes_serve_but_take_no_new_placements() {
        let t = Topology::with_nodes(3, &FarviewConfig::tiny());
        t.set_health(NodeId(1), NodeHealth::Draining).unwrap();
        let s = t.snapshot();
        assert_eq!(s.active, vec![NodeId(0), NodeId(2)]);
        assert_eq!(s.serving, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(t.is_serving(NodeId(1)));
    }

    #[test]
    fn placement_matches_fresh_shard_map() {
        let (schema, data) = table_bytes(10);
        let p = Placement::compute(
            &snap(5, &[0, 1, 2]),
            Partitioning::RowRange,
            1,
            &schema,
            &data,
        )
        .unwrap();
        assert_eq!(p.epoch(), 5);
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.replicas(), 1);
        assert_eq!(
            p.assignment(),
            &ShardMap::new(3)
                .assign(Partitioning::RowRange, &schema, &data)
                .unwrap(),
            "placement must agree with a fresh fleet's shard map"
        );
        assert_eq!(p.shards()[0], vec![NodeId(0)]);
        assert_eq!(p.nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn replicas_land_on_distinct_nodes() {
        let (schema, data) = table_bytes(12);
        let p = Placement::compute(
            &snap(1, &[4, 7, 9]),
            Partitioning::KeyHash(0),
            2,
            &schema,
            &data,
        )
        .unwrap();
        for slot in p.shards() {
            assert_eq!(slot.len(), 2);
            assert_ne!(slot[0], slot[1], "replicas must be on distinct nodes");
        }
        // r beyond the active set is rejected.
        assert!(matches!(
            Placement::compute(&snap(1, &[4, 7]), Partitioning::RowRange, 3, &schema, &data),
            Err(FvError::BadReplication {
                replicas: 3,
                nodes: 2
            })
        ));
        assert!(matches!(
            Placement::compute(&snap(1, &[]), Partitioning::RowRange, 1, &schema, &data),
            Err(FvError::NoActiveNodes)
        ));
    }

    #[test]
    fn move_plan_is_minimal_for_row_range_grow() {
        let (schema, data) = table_bytes(12);
        let old = Placement::compute(&snap(0, &[0, 1]), Partitioning::RowRange, 1, &schema, &data)
            .unwrap();
        let new = Placement::compute(
            &snap(1, &[0, 1, 2, 3]),
            Partitioning::RowRange,
            1,
            &schema,
            &data,
        )
        .unwrap();
        let plan = plan_moves(&old, &new, schema.row_bytes(), |_| true).unwrap();
        // 12 rows: old = [0..6 on n0, 6..12 on n1]; new = 3 per node.
        // Rows 0..3 and 6..9 stay; rows 3..6 move n0→n1, 9..12 n1→n3.
        // Wait: new slots are [0..3]→n0, [3..6]→n1, [6..9]→n2, [9..12]→n3.
        // Rows 3..6 were on n0, now n1: move. Rows 6..9 were on n1, now
        // n2: move. Rows 9..12 were on n1, now n3: move.
        assert_eq!(plan.moved_rows(), 9);
        assert_eq!(plan.moved_bytes(), 9 * schema.row_bytes() as u64);
        let pairs: Vec<(NodeId, NodeId)> = plan.moves.iter().map(|m| (m.from, m.to)).collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(1), NodeId(3)),
            ]
        );
        assert_eq!(plan.moves[0].rows, vec![3, 4, 5]);
        // Same placements: nothing moves.
        let plan = plan_moves(&new, &new, schema.row_bytes(), |_| true).unwrap();
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn move_plan_skips_rows_a_replica_already_holds() {
        let (schema, data) = table_bytes(8);
        let old = Placement::compute(&snap(0, &[0, 1]), Partitioning::RowRange, 2, &schema, &data)
            .unwrap();
        // Both nodes hold everything under r=2 on two nodes, so any
        // same-roster retarget moves nothing.
        let plan = plan_moves(&old, &old, schema.row_bytes(), |_| true).unwrap();
        assert!(plan.moves.is_empty());
        // Sources fall back to the surviving replica when one dies.
        let grown = Placement::compute(
            &snap(1, &[0, 1, 2]),
            Partitioning::RowRange,
            2,
            &schema,
            &data,
        )
        .unwrap();
        let plan = plan_moves(&old, &grown, schema.row_bytes(), |n| n != NodeId(0)).unwrap();
        assert!(plan.moves.iter().all(|m| m.from == NodeId(1)));
        // And when every holder is dead, the plan reports the loss.
        assert!(matches!(
            plan_moves(&old, &grown, schema.row_bytes(), |_| false),
            Err(FvError::NodeDown { .. })
        ));
    }

    #[test]
    fn report_total_is_the_phase_sum() {
        let r = RebalanceReport {
            from_epoch: 1,
            to_epoch: 3,
            moves: 2,
            moved_rows: 10,
            moved_bytes: 640,
            copy_time: SimDuration::from_micros(5),
            shuffle_time: SimDuration::from_micros(1),
            write_time: SimDuration::from_micros(4),
        };
        assert_eq!(r.total_time(), SimDuration::from_micros(10));
        assert_eq!(RebalanceReport::noop(7).total_time(), SimDuration::ZERO);
    }
}
