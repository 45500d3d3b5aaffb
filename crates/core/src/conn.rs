//! The one connection abstraction: a thing a table can be staged on and
//! the `farView` verb run against.
//!
//! [`Conn`] is what every generic caller needs from where its tables
//! live, and nothing more: the [`TieredPool`](crate::TieredPool) stages
//! cold tables through it and evicts them again, and a
//! [`TenantBackend`](crate::serve::TenantBackend) serves each tenant's
//! queries through it. It has two implementors — [`QPair`], one node's
//! connection, and [`FleetConn`], a fleet connection plus how staged
//! tables scatter — so a serving front end over a tiered pool over a
//! replicated fleet is `ServeEngine<TieredPool<'_, FleetConn>>`, with no
//! code written for that combination.

use fv_pipeline::PipelineSpec;
use fv_sim::SimDuration;

use crate::cluster::{FTable, QPair, QueryOutcome};
use crate::error::FvError;
use crate::fleet::{FleetQPair, FleetQueryOutcome, FleetTable, Partitioning};
use crate::tiered::PageChunks;

/// A connection tables are staged on and queried through.
pub trait Conn {
    /// Handle of a table staged in disaggregated DRAM.
    type Table;
    /// What a query returns: viewable as, and convertible into, the
    /// single-node-format result.
    type Outcome: AsRef<QueryOutcome> + Into<QueryOutcome>;

    /// Put `table` into DRAM, charged as a write of its rows. Returns
    /// the handle, the simulated write time, and the bytes the staged
    /// table occupies — every replica counted.
    fn stage(&self, table: &PageChunks) -> Result<(Self::Table, SimDuration, u64), FvError>;

    /// Run `spec` against `table`.
    fn run(&self, table: &Self::Table, spec: &PipelineSpec) -> Result<Self::Outcome, FvError>;

    /// Return `table`'s pages to the buffer pool.
    fn free(&self, table: Self::Table) -> Result<(), FvError>;

    /// Does `table` still sit where a fresh staging would put it?
    fn placement_is_current(&self, table: &Self::Table) -> bool;
}

/// One connection's slice of one node's memory. Staging adopts the
/// table's page chunks as the pages of its allocation, copying nothing,
/// and a staged table never moves.
impl Conn for QPair {
    type Table = FTable;
    type Outcome = QueryOutcome;

    fn stage(&self, table: &PageChunks) -> Result<(FTable, SimDuration, u64), FvError> {
        let (ft, write_time) = self.adopt_table(table)?;
        let bytes = ft.byte_len();
        Ok((ft, write_time, bytes))
    }

    fn run(&self, table: &FTable, spec: &PipelineSpec) -> Result<QueryOutcome, FvError> {
        self.far_view(table, spec)
    }

    fn free(&self, table: FTable) -> Result<(), FvError> {
        self.free_table(table)
    }

    fn placement_is_current(&self, _table: &FTable) -> bool {
        true
    }
}

/// The fleet-scope connection: a [`FleetQPair`] plus the partitioning
/// and replica count every table it stages scatters under, at the
/// topology's *current* epoch.
///
/// The elastic-topology twist is [`Conn::placement_is_current`]: a table
/// staged before an `add_node`/`drain_node`/`remove_node` reports a
/// stale placement, so a [`TieredPool`](crate::TieredPool) restages it
/// into the current one on its next query. Staleness is a property of
/// the *placement*, not the raw epoch: membership changes that cancelled
/// out (a node added and removed again) leave residents hot. Staging
/// joins the page chunks into one row-format table first (one copy):
/// the scatter routes whole rows to shards, by range or by key hash,
/// and a row can straddle two chunks.
#[derive(Debug)]
pub struct FleetConn {
    pub(crate) fqp: FleetQPair,
    partitioning: Partitioning,
    replicas: usize,
}

impl FleetConn {
    /// Stage through `fqp`, scattering every table under `partitioning`
    /// with one copy per shard.
    pub fn new(fqp: FleetQPair, partitioning: Partitioning) -> Self {
        FleetConn {
            fqp,
            partitioning,
            replicas: 1,
        }
    }

    /// Stage every table with `replicas` copies per shard on distinct
    /// nodes — reads fail over between them and survive any
    /// `replicas − 1` node losses, exactly as
    /// [`FleetQPair::load_table_replicated`] documents.
    pub fn with_replication(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }
}

/// A fleet queue pair as a connection that stages by row range, one
/// copy per shard — [`FleetConn::new`] with [`Partitioning::RowRange`].
impl From<FleetQPair> for FleetConn {
    fn from(fqp: FleetQPair) -> Self {
        FleetConn::new(fqp, Partitioning::RowRange)
    }
}

impl Conn for FleetConn {
    type Table = FleetTable;
    type Outcome = FleetQueryOutcome;

    fn stage(&self, table: &PageChunks) -> Result<(FleetTable, SimDuration, u64), FvError> {
        let (ft, write_time) =
            self.fqp
                .load_table_replicated(&table.to_table(), self.partitioning, self.replicas)?;
        let bytes = (ft.row_count() * ft.schema().row_bytes() * ft.replicas()) as u64;
        Ok((ft, write_time, bytes))
    }

    fn run(&self, table: &FleetTable, spec: &PipelineSpec) -> Result<FleetQueryOutcome, FvError> {
        self.fqp.far_view(table, spec)
    }

    fn free(&self, table: FleetTable) -> Result<(), FvError> {
        self.fqp.free_table(table)
    }

    fn placement_is_current(&self, table: &FleetTable) -> bool {
        self.fqp.placement_is_current(table.placement())
    }
}
