//! # farview-core — the Farview smart disaggregated memory
//!
//! The paper's primary contribution: a network-attached buffer pool with
//! operator off-loading. This crate wires the substrates together:
//!
//! * [`FarviewCluster`] — the deployment: one Farview node (memory stack
//!   from `fv-mem`, network stack from `fv-net`, operator stack from
//!   `fv-pipeline`) plus any number of client connections.
//! * [`QPair`] — a client connection bound to one dynamic region,
//!   exposing the paper's programmatic interface (§4.2):
//!   `openConnection` → [`FarviewCluster::connect`], `allocTableMem` →
//!   [`QPair::alloc_table`], `tableRead`/`tableWrite`, and the `farView`
//!   verb → [`QPair::far_view`] with convenience wrappers
//!   ([`QPair::select`], [`QPair::distinct`], [`QPair::group_by`],
//!   [`QPair::regex_match`], [`QPair::read_decrypt`]).
//! * [`episode`] — the discrete-event execution of one or more
//!   concurrent queries against the node (Figure 2's datapath: DRAM
//!   channels → MMU → dynamic regions → fair-shared egress → wire).
//! * [`fleet`] — scale-out: [`FarviewFleet`] hash-/range-shards tables
//!   across N nodes and fans `farView` verbs out as parallel per-shard
//!   episodes, merging results client-side (scatter–gather).
//! * [`topology`] — elasticity: the epoch-versioned node roster and
//!   per-table [`Placement`] behind the fleet, with dynamic membership
//!   ([`FarviewFleet::add_node`] / [`FarviewFleet::drain_node`] /
//!   [`FarviewFleet::remove_node`]), optional per-table replication,
//!   and the live rebalancer ([`FleetQPair::rebalance`]).
//! * [`serve`] — the overload-safe multi-tenant serving front end
//!   above the queue pairs: per-tenant token buckets turn over-demand
//!   into counted, retried rejections, a weighted deficit round robin
//!   keeps service tenant-fair, and at a full queue an arrival sheds
//!   lower-class work down to a per-class floor — every completed
//!   query byte-identical to an unloaded oracle.
//! * [`resources`] — the FPGA resource model behind Table 1.
//! * [`microbench`] — the pipelined-read throughput model of Figure 6(a).
//!
//! Every query returns a [`QueryOutcome`]: the real result bytes (the
//! operators actually executed) plus [`QueryStats`] with the simulated
//! client-observed response time — measured exactly as the paper does,
//! "until the final results are written to the memory of the client
//! machine" (§6.2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod cluster;
mod config;
mod conn;
pub mod episode;
mod error;
pub mod fleet;
pub mod microbench;
pub mod plan;
pub mod resources;
pub mod serve;
pub mod tiered;
pub mod topology;

pub use cluster::{
    FTable, FarviewCluster, QPair, QueryOutcome, QueryStats, SelectQuery, MAX_QUEUE_DEPTH,
};
pub use config::FarviewConfig;
pub use conn::{Conn, FleetConn};
pub use error::FvError;
pub use fleet::{
    FarviewFleet, FleetQPair, FleetQueryOutcome, FleetTable, Partitioning, ShardAssignment,
    ShardMap,
};
pub use plan::{Explain, MergeSpec, PlanTarget, QueryPlan};
pub use serve::{
    ClassServeStats, Completion, FleetBackend, ServeBackend, ServeClass, ServeConfig, ServeEngine,
    ServeReport, ServeTenant, SingleNodeBackend, TenantBackend, TenantServeStats,
};
pub use tiered::{BlockStore, PageChunks, StorageParams, TierLevel, TierOutcome, TieredPool};
pub use topology::{NodeHealth, NodeId, Placement, RebalanceReport, Topology, TopologySnapshot};

/// Lock `m`, recovering the guard if a panicking holder poisoned it, so
/// one contained panic ([`FvError::ScatterWorkerPanicked`]) does not
/// make every later lock of the same state panic too.
fn lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// Re-export the pipeline vocabulary: it is the public query language.
pub use fv_pipeline::{
    AggFunc, AggSpec, CmpOp, CryptoSpec, GroupingSpec, JoinSmallSpec, PipelineSpec, PredicateExpr,
    RegexFilter,
};

// Re-export the fault vocabulary: a `FaultPlan` rides `FarviewConfig`
// and the fleet's chaos hooks ([`FarviewFleet::degrade_node`]).
pub use fv_net::FaultPlan;
