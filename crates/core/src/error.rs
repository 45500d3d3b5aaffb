//! Unified error type for the client API.

use std::fmt;

use fv_mem::MemError;
use fv_net::NetError;
use fv_pipeline::PipelineError;
use fv_sim::SimDuration;

/// Errors surfaced by the Farview client API.
#[derive(Debug, Clone, PartialEq)]
pub enum FvError {
    /// All dynamic regions are occupied — no connection slot free
    /// ("Clients access the disaggregated memory by opening a connection
    /// with Farview, which results in the assignment of a dynamic
    /// region", §4.1). This is a *backpressure signal*, not a dead end:
    /// `retry_after` tells the client when a region is plausibly free
    /// again.
    NoFreeRegion {
        /// Regions configured on the node.
        regions: usize,
        /// Suggested backoff before the next connection attempt.
        retry_after: SimDuration,
    },
    /// A serving-layer query named a tenant the backend has no table
    /// bound for — a wiring bug in the harness, surfaced typed instead
    /// of panicking on a missing map entry.
    UnknownTenant {
        /// The unbound tenant id.
        tenant: u32,
    },
    /// A [`FarviewConfig`](crate::FarviewConfig) or
    /// [`ServeConfig`](crate::serve::ServeConfig) that cannot run (zero
    /// channels or regions, zero servers, non-positive load, ...).
    BadConfig {
        /// What was wrong.
        reason: &'static str,
    },
    /// The queue pair was already disconnected.
    Disconnected,
    /// Memory-stack failure (allocation, protection, bounds).
    Mem(MemError),
    /// Pipeline compilation failure.
    Pipeline(PipelineError),
    /// A write's payload does not match the table allocation.
    WriteSizeMismatch {
        /// Bytes provided.
        provided: u64,
        /// Bytes the table was allocated for.
        expected: u64,
    },
    /// An `FTable` handle was used on a different connection than the one
    /// that allocated it.
    ForeignTable,
    /// A tiered-pool query named an object that was never staged to
    /// storage.
    NotInStorage {
        /// The missing object name.
        name: String,
    },
    /// A table the storage tier cannot stage as a table image.
    Unstageable {
        /// The object name the caller tried to register.
        name: String,
        /// Why the table cannot be staged.
        reason: &'static str,
    },
    /// A table image failed validation when read back from the
    /// storage tier (corrupted, truncated, or schema-mismatched bytes).
    Codec(fv_data::CodecError),
    /// The requested pipeline feature cannot fan out across a fleet:
    /// its per-shard outputs are not mergeable client-side (e.g. a
    /// compressed or encrypted result stream has no order-preserving
    /// concatenation), or a shard cannot read its slice of the input
    /// (a table encrypted at rest: the slice has no keystream offset).
    FleetUnsupported {
        /// Human-readable name of the offending feature.
        feature: &'static str,
    },
    /// A fleet `tableWrite` supplied data whose partition keys hash to
    /// different shards than the data the table was allocated for —
    /// scattering it would break key co-location.
    FleetPartitionMismatch,
    /// Network-stack failure on the datapath (unbound flow, protocol
    /// violation) — surfaced instead of crashing the episode.
    Net(NetError),
    /// An episode drained to quiescence without the named stream
    /// completing — fleet callers report which shard/query stalled.
    IncompleteEpisode {
        /// The queue pair / stream id that never completed.
        qp: u32,
    },
    /// A fleet node index or id that names no live roster entry
    /// (removed nodes are not addressable).
    NoSuchNode {
        /// The offending index / raw node id.
        node: u64,
        /// Live roster entries at the time of the lookup.
        nodes: usize,
    },
    /// A shard's replica set has no surviving node: the named node is
    /// gone and no replica can serve (or source a data copy) in its
    /// place. Raise the table's replication factor to tolerate kills.
    NodeDown {
        /// Raw id of the unreachable node.
        node: u64,
    },
    /// The topology has no Active node left to place shards on (every
    /// node is draining or removed).
    NoActiveNodes,
    /// A replication factor that the current roster cannot host (zero,
    /// or more replicas than Active nodes — replicas must land on
    /// distinct nodes to survive a node loss).
    BadReplication {
        /// Requested replicas per shard.
        replicas: usize,
        /// Active nodes available as placement targets.
        nodes: usize,
    },
    /// A fleet shard slot's run panicked mid-fleet-read. The panic is
    /// contained at the scatter loop so one poisoned shard cannot take
    /// down the whole client; the query fails typed instead.
    ScatterWorkerPanicked,
    /// A doorbell batch posts more work-queue entries than the send
    /// queue holds ([`MAX_QUEUE_DEPTH`](crate::MAX_QUEUE_DEPTH)). Not
    /// retryable: split the batch.
    BatchTooDeep {
        /// Specs in the refused batch.
        depth: usize,
        /// The send queue's capacity in WQEs.
        max: usize,
    },
    /// One concurrent episode names the same connection twice: its
    /// streams are told apart by queue pair, so a second request on
    /// `qp` has no wire id of its own. Not retryable: depth on one
    /// connection is a doorbell batch
    /// ([`QPair::far_view_batch`](crate::QPair::far_view_batch)).
    DuplicateConnection {
        /// The queue pair that appears more than once.
        qp: u32,
    },
}

impl FvError {
    /// The backoff hint carried by a retryable rejection — today only
    /// [`FvError::NoFreeRegion`]. The serving layer retries its own
    /// rejections and counts them in
    /// [`ServeReport`](crate::serve::ServeReport) instead.
    pub fn retry_after(&self) -> Option<SimDuration> {
        match self {
            FvError::NoFreeRegion { retry_after, .. } => Some(*retry_after),
            _ => None,
        }
    }

    /// True for transient rejections a client should retry with backoff
    /// (the condition clears when load drains or a region frees).
    pub fn is_retryable(&self) -> bool {
        self.retry_after().is_some()
    }
}

impl fmt::Display for FvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FvError::NoFreeRegion {
                regions,
                retry_after,
            } => {
                write!(
                    f,
                    "all {regions} dynamic regions are assigned; retry after {retry_after}"
                )
            }
            FvError::UnknownTenant { tenant } => {
                write!(f, "no table bound for tenant {tenant}")
            }
            FvError::BadConfig { reason } => write!(f, "configuration cannot run: {reason}"),
            FvError::Disconnected => write!(f, "queue pair is disconnected"),
            FvError::Mem(e) => write!(f, "memory stack: {e}"),
            FvError::Pipeline(e) => write!(f, "operator pipeline: {e}"),
            FvError::WriteSizeMismatch { provided, expected } => {
                write!(
                    f,
                    "table write of {provided} bytes into a {expected}-byte table"
                )
            }
            FvError::ForeignTable => write!(f, "FTable belongs to a different queue pair"),
            FvError::NotInStorage { name } => {
                write!(f, "object {name:?} is not in the storage tier")
            }
            FvError::Unstageable { name, reason } => {
                write!(f, "cannot stage {name:?} as a column image: {reason}")
            }
            FvError::Codec(e) => write!(f, "stored table image: {e}"),
            FvError::FleetUnsupported { feature } => {
                write!(f, "{feature} queries cannot fan out across fleet shards")
            }
            FvError::FleetPartitionMismatch => {
                write!(
                    f,
                    "written rows hash to different shards than the allocated assignment"
                )
            }
            FvError::Net(e) => write!(f, "network stack: {e}"),
            FvError::IncompleteEpisode { qp } => {
                write!(f, "query on qp {qp} never completed its episode")
            }
            FvError::NoSuchNode { node, nodes } => {
                write!(f, "no such fleet node {node} ({nodes} live nodes)")
            }
            FvError::NodeDown { node } => {
                write!(f, "node {node} is gone and no replica survives it")
            }
            FvError::NoActiveNodes => {
                write!(f, "the topology has no Active node to place shards on")
            }
            FvError::BadReplication { replicas, nodes } => {
                write!(
                    f,
                    "replication factor {replicas} cannot be hosted by {nodes} active nodes"
                )
            }
            FvError::ScatterWorkerPanicked => {
                write!(f, "a fleet shard slot panicked mid-fleet-read")
            }
            FvError::BatchTooDeep { depth, max } => {
                write!(
                    f,
                    "doorbell batch of {depth} specs exceeds the send queue's {max} WQEs"
                )
            }
            FvError::DuplicateConnection { qp } => {
                write!(
                    f,
                    "qp {qp} appears twice in one concurrent episode; batch its specs instead"
                )
            }
        }
    }
}

impl std::error::Error for FvError {}

impl From<MemError> for FvError {
    fn from(e: MemError) -> Self {
        FvError::Mem(e)
    }
}

impl From<PipelineError> for FvError {
    fn from(e: PipelineError) -> Self {
        FvError::Pipeline(e)
    }
}

impl From<NetError> for FvError {
    fn from(e: NetError) -> Self {
        FvError::Net(e)
    }
}

impl From<fv_data::CodecError> for FvError {
    fn from(e: fv_data::CodecError) -> Self {
        FvError::Codec(e)
    }
}
