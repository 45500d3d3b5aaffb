//! # farview — Disaggregated Memory with Operator Off-loading (reproduction)
//!
//! Facade crate for the Rust reproduction of *"Farview: Disaggregated
//! Memory with Operator Off-loading for Database Engines"* (CIDR 2022).
//! It re-exports the public API of every subsystem crate so downstream
//! users can depend on a single crate:
//!
//! ```
//! use farview::prelude::*;
//!
//! // Build a Farview node with two DRAM channels and six dynamic regions,
//! // load a table into the disaggregated buffer pool, and offload a
//! // selection.
//! let mut cluster = FarviewCluster::new(FarviewConfig::default());
//! let mut qp = cluster.connect().expect("dynamic region available");
//! let table = fv_workload::TableGen::new(8, 1 << 14)
//!     .seed(42)
//!     .selectivity_column(0, 0.5)
//!     .build();
//! let ft = qp.alloc_table(&table).expect("buffer pool space");
//! qp.table_write(&ft, table.bytes()).expect("write");
//! let outcome = qp
//!     .select(&ft, &SelectQuery::all_columns().and_lt(0, fv_workload::SELECTIVITY_PIVOT))
//!     .expect("offloaded selection");
//! assert!(outcome.stats.response_time > fv_sim::SimDuration::ZERO);
//! ```
//!
//! Scaling out, a [`FarviewFleet`](farview_core::FarviewFleet) shards
//! tables across many such nodes and fans queries out as parallel
//! per-shard episodes with a client-side merge (scatter–gather); see
//! `farview_core::fleet`. The fleet is **elastic**: nodes can be added,
//! drained or killed at any time behind an epoch-versioned
//! `farview_core::topology` layer, with live shard rebalancing
//! ([`FleetQPair::rebalance`](farview_core::FleetQPair::rebalance))
//! and optional per-table replication for fault-tolerant reads.
//!
//! See `README.md` for the crate map and quickstart, and
//! `docs/ARCHITECTURE.md` for how the paper's Figure-2 datapath maps
//! onto the modules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub use farview_core as core;
pub use fv_baseline as baseline;
pub use fv_crypto as crypto;
pub use fv_data as data;
pub use fv_mem as mem;
pub use fv_net as net;
pub use fv_pipeline as pipeline;
pub use fv_regex as regex;
pub use fv_sim as sim;
pub use fv_workload as workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use farview_core::{
        FTable, FarviewCluster, FarviewConfig, FarviewFleet, FaultPlan, FleetQPair,
        FleetQueryOutcome, FleetTable, FvError, NodeHealth, NodeId, Partitioning, PipelineSpec,
        Placement, PlanTarget, QPair, QueryOutcome, QueryPlan, QueryStats, RebalanceReport,
        SelectQuery, ShardMap, Topology,
    };
    pub use fv_baseline::{BaselineKind, CpuEngine};
    pub use fv_data::{Row, Schema, Table, Value};
    pub use fv_sim::{SimDuration, SimTime};
    pub use fv_workload::TableGen;
}
