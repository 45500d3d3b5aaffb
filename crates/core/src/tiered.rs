//! Tiered buffer-pool management — the paper's second named future-work
//! item, implemented.
//!
//! "The next steps for the Farview project are ... to design suitable
//! cache management strategies to move data back and forth to persistent
//! storage" (§7). The buffer pool in disaggregated DRAM then behaves the
//! way §3 describes ("can be used as regular memory, with blocks/pages
//! being loaded from storage as needed"), across a **three-rung ladder**:
//!
//! ```text
//!   disk (BlockStore)  →  far memory (page chunks)  →  DRAM (FTable)
//!   authoritative          validated row pages,          staged rows the
//!   row images, 2 MB       LRU under a byte budget       pipeline queries
//!   extents
//! ```
//!
//! * [`BlockStore`] — a calibrated NVMe-class storage model holding the
//!   cold **table images** ([`fv_data::RowImage`]: a 64-byte header,
//!   then the rows) with read/write timing. The device keeps an image
//!   as its header and its rows in 2 MB extents, each an immutable
//!   `Arc<Vec<u8>>` shared out by a read, so a read never copies.
//! * The **far-memory tier** (internal to the pool) keeps recently
//!   staged tables resident as [`PageChunks`]: an image's row extents,
//!   validated once when they came off the device, one per 2 MB
//!   buffer-pool page. It is an LRU of whole tables under a byte budget
//!   of 4× the DRAM budget. A far hit costs no device I/O and opens
//!   nothing; a miss (a table never fetched, or one evicted since) pays
//!   one read of the full image; pressure evicts the least-recently-used
//!   table whole.
//! * [`TieredPool`] — an LRU cache manager over the slice of
//!   disaggregated memory one [`Conn`] reaches: queries against cold
//!   tables stage them in (evicting least-recently-used DRAM residents
//!   when the budget is exceeded) and then run the offloaded pipeline.
//!   Over a [`QPair`] that is one node, and staging *adopts* the chunks
//!   as the pages of the table's allocation: no byte is copied, and a
//!   later write to a staged page copies that page first, so it never
//!   reaches the far chunk or the device. Over a
//!   [`FleetConn`](crate::FleetConn) staged tables scatter across the
//!   fleet under the topology's *current* epoch, and a resident staged
//!   before a membership change is restaged into the new placement the
//!   next time it is queried. The
//!   restage sources from far memory when the table is still there.
//! * A pool is also a serving backend: `ServeEngine<TieredPool<'_, C>>`
//!   serves tenants whose tables do not all fit in DRAM, each tenant's
//!   staging paid as service time.
//!
//! Images, chunks and DRAM tables are all row-major, as in the paper:
//! nothing is transposed anywhere on the ladder.
//!
//! Any fixed-stride schema stages (the image records the schema
//! fingerprint; the pool keeps a per-object schema catalog). Image
//! validation happens once per device read, at the
//! [`RowImage::check_pages`] in the far tier's fetch: corrupted or
//! truncated storage bytes surface as a typed [`FvError::Codec`] with
//! nothing installed, never a panic.
//!
//! Query results are identical hot or cold; only the reported time
//! differs (staging cost surfaces in [`TierOutcome`]).
//!
//! Budgets are best-effort admission bounds on what staged tables
//! occupy — every replica counted on a replicated fleet. A table larger
//! than the remaining budget (including a zero budget) still stages —
//! the pool cannot answer the query otherwise — and becomes the first
//! eviction victim once the next staging needs room.

use std::collections::HashMap;
use std::sync::Arc;

use fv_data::colimage::{IMAGE_HEADER_LEN, IMAGE_PAGE_BYTES};
use fv_data::{RowImage, Schema, Table};
use fv_sim::{calib, SimDuration};

use crate::cluster::{QPair, QueryOutcome};
use crate::conn::Conn;
use crate::error::FvError;
use crate::serve::ServeBackend;
use crate::PipelineSpec;

/// NVMe-class device parameters: ~80 µs access latency, ~3 GB/s
/// sequential bandwidth (datacenter TLC flash; the paper's storage layer
/// is unspecified, so a stock SSD stands in).
#[derive(Debug, Clone, Copy)]
pub struct StorageParams {
    /// Per-request access latency.
    pub access_latency: SimDuration,
    /// Sequential bandwidth, bytes/second.
    pub bandwidth: f64,
}

impl Default for StorageParams {
    fn default() -> Self {
        StorageParams {
            access_latency: SimDuration::from_micros(80),
            bandwidth: 3.0e9,
        }
    }
}

/// Where a staged table was found when a query had to promote it into
/// DRAM. Also the residency assumption a
/// [`PlanTarget::Tiered`](crate::plan::PlanTarget) cost estimate runs
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierLevel {
    /// Resident in disaggregated DRAM — queries run immediately.
    Dram,
    /// Image resident in far memory — staging pays only the DRAM write,
    /// no device I/O.
    FarMemory,
    /// On disk only — staging pays one read of the full image before
    /// the DRAM write.
    Disk,
}

impl std::fmt::Display for TierLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierLevel::Dram => write!(f, "dram"),
            TierLevel::FarMemory => write!(f, "far"),
            TierLevel::Disk => write!(f, "disk"),
        }
    }
}

/// The parts of one stored object, in order: its first
/// [`IMAGE_HEADER_LEN`] bytes, then [`IMAGE_PAGE_BYTES`] extents.
type Extents = Vec<Arc<Vec<u8>>>;

/// A named block store holding cold table images.
///
/// The device keeps an object as its first [`IMAGE_HEADER_LEN`] bytes
/// and then 2 MB extents — for a table image, the header and then its
/// rows a buffer-pool page at a time. Extents are immutable once
/// written and shared out as `Arc`s: `get` hands back the stored
/// extents themselves, so the far-memory tier, a node that stages the
/// table, and the store all alias one copy of the rows — no copy is
/// made anywhere on the read path.
#[derive(Debug, Default)]
pub struct BlockStore {
    params: StorageParams,
    objects: HashMap<String, Extents>,
    reads: u64,
    writes: u64,
}

impl BlockStore {
    /// A store with the given device parameters.
    pub fn new(params: StorageParams) -> Self {
        BlockStore {
            params,
            ..BlockStore::default()
        }
    }

    /// Access latency plus `len` bytes at the device's bandwidth.
    fn io_time(&self, len: usize) -> SimDuration {
        self.params.access_latency + calib::transfer(len.max(1) as u64, self.params.bandwidth)
    }

    /// Persist an object, cut into its extents; returns the simulated
    /// write time.
    pub fn put(&mut self, name: &str, bytes: Vec<u8>) -> SimDuration {
        self.writes += 1;
        let (head, rest) = bytes.split_at(IMAGE_HEADER_LEN.min(bytes.len()));
        let extents = std::iter::once(head).chain(rest.chunks(IMAGE_PAGE_BYTES));
        let extents = extents.map(|e| Arc::new(e.to_vec())).collect();
        self.objects.insert(name.to_string(), extents);
        self.io_time(bytes.len())
    }

    /// Fetch an object: its extents, shared, and the simulated read
    /// time for all of its bytes.
    pub fn get(&mut self, name: &str) -> Option<(Extents, SimDuration)> {
        let extents = self.objects.get(name)?.clone();
        self.reads += 1;
        let t = self.io_time(extents.iter().map(|e| e.len()).sum());
        Some((extents, t))
    }

    /// Flip every bit of one byte of a stored object — a fault-injection
    /// hook for this module's tests of the typed
    /// [`CodecError`](fv_data::CodecError) path. The extent is copied
    /// first, so whoever already shares it keeps the old bytes. Returns
    /// false when the object does not exist or `byte` is out of range.
    #[cfg(test)]
    fn corrupt_object(&mut self, name: &str, byte: usize) -> bool {
        let mut at = byte;
        for extent in self.objects.get_mut(name).into_iter().flatten() {
            if at < extent.len() {
                let flipped = Arc::make_mut(extent).get_mut(at);
                return flipped.map(|b| *b ^= 0xFF).is_some();
            }
            at -= extent.len();
        }
        false
    }

    /// `(reads, writes)` served.
    pub fn io_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Objects stored.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

/// A table as the far-memory tier holds it: its rows as the store's
/// page extents, validated when they came off the device — one
/// immutable shared chunk per buffer-pool page the table fills, the
/// last one short. A single node stages it by adopting the chunks as
/// its pages ([`Conn::stage`]).
#[derive(Debug)]
pub struct PageChunks {
    schema: Schema,
    rows: usize,
    pages: Vec<Arc<Vec<u8>>>,
}

impl PageChunks {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Bytes of row data.
    pub fn byte_len(&self) -> u64 {
        self.pages.iter().map(|p| p.len() as u64).sum()
    }

    /// The chunks, in row order.
    pub fn pages(&self) -> &[Arc<Vec<u8>>] {
        &self.pages
    }

    /// The rows joined into one row-format table (a copy).
    pub fn to_table(&self) -> Table {
        let mut rows = Vec::with_capacity(self.byte_len() as usize);
        for page in &self.pages {
            rows.extend_from_slice(page);
        }
        Table::from_bytes(self.schema.clone(), rows)
    }
}

/// One far-resident table and its LRU stamp.
struct FarImage {
    table: Arc<PageChunks>,
    last_use: u64,
}

/// The disk + far-memory rungs of the ladder: a [`BlockStore`] of
/// table images, a per-object catalog of schema and row-format byte
/// length, and the far-memory LRU of whole tables.
struct FarTier {
    store: BlockStore,
    catalog: HashMap<String, (Schema, u64)>,
    images: HashMap<String, FarImage>,
    resident_bytes: u64,
    capacity: u64,
    spills: u64,
}

impl FarTier {
    fn new(store: BlockStore, capacity: u64) -> Self {
        FarTier {
            store,
            catalog: HashMap::new(),
            images: HashMap::new(),
            resident_bytes: 0,
            capacity,
            spills: 0,
        }
    }

    /// Encode `table` as an image and persist it. Any fixed-stride
    /// schema is accepted; the schema is recorded in the catalog so the
    /// image can be reopened without out-of-band knowledge.
    /// Re-inserting a name invalidates any cached far copy.
    fn insert(&mut self, name: &str, table: &Table) -> Result<SimDuration, FvError> {
        if name.is_empty() {
            return Err(FvError::Unstageable {
                name: name.to_string(),
                reason: "object names must be non-empty",
            });
        }
        self.catalog.insert(
            name.to_string(),
            (table.schema().clone(), table.byte_len() as u64),
        );
        self.forget(name);
        Ok(self.store.put(name, RowImage::encode(table)))
    }

    /// Drop `name`'s cached far copy, if any.
    fn forget(&mut self, name: &str) {
        if let Some(old) = self.images.remove(name) {
            self.resident_bytes -= old.table.byte_len();
        }
    }

    /// Resolve `name` to its page chunks, the time the device read took
    /// and the rung they came from: free on a far hit, which opens
    /// nothing; on a miss, one read of the full image, validated where
    /// its extents lie — the one check its bytes get — and made
    /// far-resident only once it passed.
    fn fetch(
        &mut self,
        name: &str,
        clock: u64,
    ) -> Result<(Arc<PageChunks>, SimDuration, TierLevel), FvError> {
        if let Some(img) = self.images.get_mut(name) {
            img.last_use = clock;
            let table = Arc::clone(&img.table);
            return Ok((table, SimDuration::ZERO, TierLevel::FarMemory));
        }
        let missing = || FvError::NotInStorage {
            name: name.to_string(),
        };
        let schema = &self.catalog.get(name).ok_or_else(missing)?.0;
        let (extents, read_time) = self.store.get(name).ok_or_else(missing)?;
        let (head, pages) = extents.split_first().ok_or_else(missing)?;
        let rows = RowImage::check_pages(head, pages.iter().map(|p| p.as_slice()), schema)?;
        let table = Arc::new(PageChunks {
            schema: schema.clone(),
            rows,
            pages: pages.to_vec(),
        });
        self.install(name, Arc::clone(&table), clock);
        Ok((table, read_time, TierLevel::Disk))
    }

    /// Make a validated table far-resident, charged its row data, then
    /// evict least-recently-used tables whole until the tier fits its
    /// budget. The newest table goes last, so one larger than the whole
    /// budget is not kept. Evictions are free: the tier is read-only,
    /// the disk copy is authoritative.
    fn install(&mut self, name: &str, table: Arc<PageChunks>, clock: u64) {
        self.resident_bytes += table.byte_len();
        self.images.insert(
            name.to_string(),
            FarImage {
                table,
                last_use: clock,
            },
        );
        while self.resident_bytes > self.capacity {
            let lru = self.images.iter().min_by_key(|(_, i)| i.last_use);
            let Some(victim) = lru.map(|(n, _)| n.clone()) else {
                break;
            };
            self.forget(&victim);
            self.spills += 1;
        }
    }
}

/// Outcome of a tiered query: the query result plus the tier activity
/// that preceded it. `O` is the connection's result type —
/// [`QueryOutcome`] on a single node,
/// [`FleetQueryOutcome`](crate::FleetQueryOutcome) on a fleet.
#[derive(Debug)]
pub struct TierOutcome<O = QueryOutcome> {
    /// The query result (identical hot or cold).
    pub outcome: O,
    /// Whether the table was already resident in disaggregated DRAM
    /// under a still-current placement.
    pub buffer_hit: bool,
    /// Whether a resident copy existed but its placement had gone stale
    /// and it was re-scattered into the current shard set (never on a
    /// single node).
    pub restaged: bool,
    /// Which tier the staging sourced from (`None` on a DRAM hit):
    /// [`TierLevel::FarMemory`] when the image was far-resident,
    /// [`TierLevel::Disk`] when it had to be read off the device.
    /// An epoch-stale restage typically reports `FarMemory`: the
    /// device is re-read only if the image was evicted from far memory.
    pub staged_from: Option<TierLevel>,
    /// Time spent staging the table in (device reads, if any, + write
    /// into the disaggregated buffer pool — the slowest shard's scatter
    /// write on a fleet). Zero on a hit.
    pub stage_in_time: SimDuration,
    /// Tables evicted from DRAM to make room. Their far-memory images
    /// survive, so re-querying them repays only the DRAM write.
    pub evictions: Vec<String>,
}

impl<O: AsRef<QueryOutcome>> TierOutcome<O> {
    /// Total client-observed time: staging (if any) plus the query.
    pub fn total_time(&self) -> SimDuration {
        self.stage_in_time + self.outcome.as_ref().stats.response_time
    }
}

struct Resident<S> {
    staged: S,
    bytes: u64,
    /// LRU stamp.
    last_use: u64,
}

/// An LRU-managed slice of the disaggregated buffer pool backed by a
/// far-memory image tier and a [`BlockStore`], staging into whatever
/// connection `C` it is given — one node's [`QPair`] by default, a
/// whole fleet through a [`FleetConn`](crate::FleetConn).
pub struct TieredPool<'a, C: Conn = QPair> {
    conn: &'a C,
    far: FarTier,
    /// DRAM budget this pool may occupy (fleet-wide and counting every
    /// replica on a fleet), in bytes.
    capacity: u64,
    resident: HashMap<String, Resident<C::Table>>,
    resident_bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    restages: u64,
}

impl<C: Conn> std::fmt::Debug for TieredPool<'_, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredPool")
            .field("capacity", &self.capacity)
            .field("resident_bytes", &self.resident_bytes)
            .field("resident", &self.resident.len())
            .field("far_capacity", &self.far.capacity)
            .field("far_resident_bytes", &self.far.resident_bytes)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("restages", &self.restages)
            .finish()
    }
}

impl<'a, C: Conn> TieredPool<'a, C> {
    /// A pool staging into `conn` with the given DRAM budget. A zero
    /// budget is legal: every staged table then exceeds the budget, so
    /// each new staging evicts whatever the previous one brought in.
    /// The far-memory image tier holds 4× the DRAM budget.
    pub fn new(conn: &'a C, capacity_bytes: u64, store: BlockStore) -> Self {
        TieredPool {
            conn,
            far: FarTier::new(store, capacity_bytes.saturating_mul(4)),
            capacity: capacity_bytes,
            resident: HashMap::new(),
            resident_bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            restages: 0,
        }
    }

    /// Register a table: encoded as a table image and persisted to
    /// storage, *not* staged into DRAM until first use ("blocks/pages
    /// being loaded from storage as needed", §3). Any fixed-stride
    /// schema is accepted.
    ///
    /// # Errors
    /// [`FvError::Unstageable`] when the object cannot be registered
    /// (e.g. an empty object name).
    pub fn insert(&mut self, name: &str, table: &Table) -> Result<SimDuration, FvError> {
        // A DRAM copy of the old contents must not outlive them.
        self.drop_resident(name)?;
        self.far.insert(name, table)
    }

    /// Is `name` currently resident in disaggregated DRAM (under any
    /// placement)?
    pub fn is_resident(&self, name: &str) -> bool {
        self.resident.contains_key(name)
    }

    /// Residents restaged because their placement went stale.
    pub fn restages(&self) -> u64 {
        self.restages
    }

    /// Bytes currently resident in DRAM, every replica counted.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Tables evicted from far memory so far; each is read whole off
    /// the device on its next staging.
    pub fn far_spills(&self) -> u64 {
        self.far.spills
    }

    /// `(reads, writes)` served by the backing store.
    pub fn io_counts(&self) -> (u64, u64) {
        self.far.store.io_counts()
    }

    /// Fault-injection hook: corrupt one byte of a stored image — the
    /// next cold staging of `name` fails with a typed
    /// [`FvError::Codec`].
    #[cfg(test)]
    fn corrupt_stored(&mut self, name: &str, byte: usize) -> bool {
        // Invalidate the cached far copy so the corrupted bytes are
        // actually re-read and re-validated.
        self.far.forget(name);
        self.far.store.corrupt_object(name, byte)
    }

    /// Evict least-recently-used residents until `need` more bytes fit
    /// the budget or nothing is left to evict, recording each victim.
    fn make_room(&mut self, need: u64, evictions: &mut Vec<String>) -> Result<(), FvError> {
        while self.resident_bytes + need > self.capacity {
            let lru = self.resident.iter().min_by_key(|(_, r)| r.last_use);
            let Some(victim) = lru.map(|(n, _)| n.clone()) else {
                break;
            };
            self.drop_resident(&victim)?;
            evictions.push(victim);
        }
        Ok(())
    }

    /// Free `name`'s DRAM copy, if it has one; returns whether it did.
    /// Read-only buffer pool (§4.2): no write-back needed, the storage
    /// copy is authoritative — and the far-memory image keeps a demoted
    /// table one cheap restage away.
    fn drop_resident(&mut self, name: &str) -> Result<bool, FvError> {
        let Some(r) = self.resident.remove(name) else {
            return Ok(false);
        };
        self.resident_bytes -= r.bytes;
        self.conn.free(r.staged)?;
        Ok(true)
    }

    /// Run `spec` against `name`, staging it in if cold — or
    /// **restaging** it if its resident placement is no longer current.
    /// A DRAM miss resolves down the ladder: a far-resident table
    /// restages from its page chunks (no device I/O, nothing opened),
    /// any other pays one read of the full image. Residency management
    /// lives here; staging and the query itself go through the
    /// connection.
    pub fn query(
        &mut self,
        name: &str,
        spec: &PipelineSpec,
    ) -> Result<TierOutcome<C::Outcome>, FvError> {
        self.clock += 1;
        if let Some(r) = self.resident.get_mut(name) {
            if self.conn.placement_is_current(&r.staged) {
                r.last_use = self.clock;
                self.hits += 1;
                return Ok(TierOutcome {
                    outcome: self.conn.run(&r.staged, spec)?,
                    buffer_hit: true,
                    restaged: false,
                    staged_from: None,
                    stage_in_time: SimDuration::ZERO,
                    evictions: Vec::new(),
                });
            }
        }
        // Stale placement: drop the old copy and fall through to the
        // staging path so the table lands on the current shard set.
        let restaged = self.drop_resident(name)?;
        self.restages += u64::from(restaged);
        self.misses += 1;
        let (table, read_time, source) = self.far.fetch(name, self.clock)?;

        // Make room under the DRAM budget: before staging for the one
        // row-format copy every staging writes, and after it for
        // whatever more the staging occupies — the other replicas on a
        // replicated fleet.
        let mut evictions = Vec::new();
        self.make_room(table.byte_len(), &mut evictions)?;
        let (staged, write_time, bytes) = self.conn.stage(&table)?;
        if let Err(e) = self.make_room(bytes, &mut evictions) {
            // Best-effort: the eviction error is the one to report.
            let _ = self.conn.free(staged);
            return Err(e);
        }
        self.resident_bytes += bytes;
        let r = self.resident.entry(name.to_string()).or_insert(Resident {
            staged,
            bytes,
            last_use: self.clock,
        });

        Ok(TierOutcome {
            outcome: self.conn.run(&r.staged, spec)?,
            buffer_hit: false,
            restaged,
            staged_from: Some(source),
            stage_in_time: read_time + write_time,
            evictions,
        })
    }
}

/// Serving straight off the pool: tenant `t`'s table is the object
/// inserted under `t`'s id in decimal (`pool.insert("7", &table)` for
/// tenant 7). A query that misses DRAM stages its table first, and the
/// service time is [`TierOutcome::total_time`], so staging is paid as
/// service. A tenant's DRR cost is its table's byte length, as recorded
/// at [`TieredPool::insert`].
impl<C: Conn> ServeBackend for TieredPool<'_, C> {
    fn execute(&mut self, tenant: u32, query: &PipelineSpec) -> Result<QueryOutcome, FvError> {
        let out = self.query(&tenant.to_string(), query)?;
        let service = out.total_time();
        let mut outcome: QueryOutcome = out.outcome.into();
        outcome.stats.response_time = service;
        Ok(outcome)
    }

    fn cost(&self, tenant: u32) -> u64 {
        let table = self.far.catalog.get(&tenant.to_string());
        table.map_or(1, |(_, bytes)| (*bytes).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FarviewFleet, Partitioning};
    use crate::FleetConn;
    use crate::{FarviewCluster, FarviewConfig};
    use fv_pipeline::PredicateExpr;

    fn table(seed: u64, bytes: u64) -> Table {
        fv_workload::TableGen::paper_default(bytes)
            .seed(seed)
            .build()
    }

    /// `t` as the far tier holds it after one device read.
    fn chunks_of(t: &Table) -> Arc<PageChunks> {
        let mut far = FarTier::new(BlockStore::default(), u64::MAX);
        far.insert("t", t).unwrap();
        far.fetch("t", 0).unwrap().0
    }

    /// The result bytes of a tiered query, whichever connection ran it.
    fn payload<O: AsRef<QueryOutcome>>(out: &TierOutcome<O>) -> &[u8] {
        &out.outcome.as_ref().payload
    }

    /// Instantiate one tier scenario for both connections: a single
    /// node's [`QPair`], and a two-node fleet through a [`FleetConn`]
    /// (row-range partitioned, so every staged table holds pages on both
    /// nodes). The scenario gets the connection, a free-page probe, and
    /// the pages one staged table of these sizes occupies.
    macro_rules! on_both_connections {
        ($scenario:ident, $single:ident, $fleet:ident) => {
            #[test]
            fn $single() {
                let cluster = FarviewCluster::new(FarviewConfig::tiny());
                let qp = cluster.connect().unwrap();
                $scenario(&qp, || cluster.free_pages(), 1);
            }

            #[test]
            fn $fleet() {
                let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
                let conn = FleetConn::new(fleet.connect().unwrap(), Partitioning::RowRange);
                $scenario(&conn, || fleet.free_pages(), 2);
            }
        };
    }

    #[test]
    fn cold_query_stages_in_then_hits() {
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        let mut pool = TieredPool::new(&qp, 8 << 20, BlockStore::new(StorageParams::default()));
        let t = table(1, 256 << 10);
        pool.insert("orders", &t).unwrap();
        assert!(!pool.is_resident("orders"));

        let cold = pool.query("orders", &PipelineSpec::passthrough()).unwrap();
        assert!(!cold.buffer_hit);
        assert_eq!(cold.staged_from, Some(TierLevel::Disk));
        assert_eq!(pool.io_counts().0, 1, "one read of the whole image");
        assert!(cold.stage_in_time > SimDuration::from_micros(80));
        assert_eq!(cold.outcome.payload, t.bytes());
        assert!(pool.is_resident("orders"));

        let hot = pool.query("orders", &PipelineSpec::passthrough()).unwrap();
        assert!(hot.buffer_hit);
        assert_eq!(hot.staged_from, None);
        assert_eq!(hot.stage_in_time, SimDuration::ZERO);
        assert_eq!(hot.outcome.payload, t.bytes());
        assert!(hot.total_time() < cold.total_time());
        assert_eq!((pool.hits, pool.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        // Budget for two 1 MB tables.
        let mut pool = TieredPool::new(&qp, 2 << 20, BlockStore::default());
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            pool.insert(name, &table(i as u64, 1 << 20)).unwrap();
        }
        pool.query("a", &PipelineSpec::passthrough()).unwrap();
        pool.query("b", &PipelineSpec::passthrough()).unwrap();
        // Touch "a" so "b" is the LRU victim.
        pool.query("a", &PipelineSpec::passthrough()).unwrap();
        let out = pool.query("c", &PipelineSpec::passthrough()).unwrap();
        assert_eq!(out.evictions, vec!["b".to_string()], "LRU must evict b");
        assert!(pool.is_resident("a"));
        assert!(!pool.is_resident("b"));
        assert!(pool.is_resident("c"));
        assert!(pool.resident_bytes() <= 2 << 20);

        // "b" stages back in, evicting the now-LRU "a". Its image is
        // still far-resident, so no device read happens.
        let back = pool.query("b", &PipelineSpec::passthrough()).unwrap();
        assert!(!back.buffer_hit);
        assert_eq!(back.staged_from, Some(TierLevel::FarMemory));
        assert_eq!(pool.io_counts().0, 3, "one device read per cold image");
        assert_eq!(back.evictions, vec!["a".to_string()]);
    }

    #[test]
    fn query_results_identical_hot_and_cold() {
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        let mut pool = TieredPool::new(&qp, 4 << 20, BlockStore::default());
        let t = table(9, 512 << 10);
        pool.insert("t", &t).unwrap();
        let spec = PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 1u64 << 62));
        let cold = pool.query("t", &spec).unwrap();
        let hot = pool.query("t", &spec).unwrap();
        assert_eq!(cold.outcome.payload, hot.outcome.payload);
        assert_eq!(
            cold.outcome.stats.response_time, hot.outcome.stats.response_time,
            "only staging differs, not the query itself"
        );
    }

    #[test]
    fn eviction_returns_pages_to_the_pool() {
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        let baseline = cluster.free_pages();
        let mut pool = TieredPool::new(&qp, 1 << 20, BlockStore::default());
        pool.insert("x", &table(1, 1 << 20)).unwrap();
        pool.insert("y", &table(2, 1 << 20)).unwrap();
        pool.query("x", &PipelineSpec::passthrough()).unwrap();
        pool.query("y", &PipelineSpec::passthrough()).unwrap(); // evicts x
        assert_eq!(
            cluster.free_pages(),
            baseline - 1,
            "only one staged table may hold pages at a time"
        );
    }

    fn zero_budget<C: Conn>(conn: &C, free_pages: impl Fn() -> u64, table_pages: u64) {
        let baseline = free_pages();
        let mut pool = TieredPool::new(conn, 0, BlockStore::default());
        let a = table(1, 256 << 10);
        let b = table(2, 256 << 10);
        pool.insert("a", &a).unwrap();
        pool.insert("b", &b).unwrap();

        let out_a = pool.query("a", &PipelineSpec::passthrough()).unwrap();
        assert!(!out_a.buffer_hit);
        assert_eq!(
            payload(&out_a),
            a.bytes(),
            "over-budget staging still answers"
        );
        assert!(pool.is_resident("a"), "best-effort admission");

        // The next distinct table evicts the over-budget resident.
        let out_b = pool.query("b", &PipelineSpec::passthrough()).unwrap();
        assert_eq!(out_b.evictions, vec!["a".to_string()]);
        assert_eq!(payload(&out_b), b.bytes());
        assert!(!pool.is_resident("a"));
        assert!(pool.is_resident("b"));
        assert_eq!(
            free_pages(),
            baseline - table_pages,
            "at most one over-budget resident holds pages"
        );
    }
    on_both_connections!(
        zero_budget,
        zero_budget_stages_every_query_and_evicts_the_previous,
        fleet_zero_budget_stages_every_query_and_evicts_the_previous
    );

    fn larger_than_budget<C: Conn>(conn: &C, _free_pages: impl Fn() -> u64, _pages: u64) {
        // 1 MB table against a 256 kB budget.
        let mut pool = TieredPool::new(conn, 256 << 10, BlockStore::default());
        let big = table(3, 1 << 20);
        let small = table(4, 256 << 10);
        pool.insert("big", &big).unwrap();
        pool.insert("small", &small).unwrap();

        let out = pool.query("big", &PipelineSpec::passthrough()).unwrap();
        assert!(!out.buffer_hit);
        assert!(out.evictions.is_empty(), "nothing resident to evict");
        assert_eq!(payload(&out), big.bytes());
        assert!(pool.resident_bytes() > 256 << 10, "admitted over budget");

        // It is the first victim once anything else needs room.
        let next = pool.query("small", &PipelineSpec::passthrough()).unwrap();
        assert_eq!(next.evictions, vec!["big".to_string()]);
        assert!(pool.resident_bytes() <= 256 << 10);
    }
    on_both_connections!(
        larger_than_budget,
        single_table_larger_than_budget_still_stages,
        fleet_single_table_larger_than_budget_still_stages
    );

    fn requery_after_eviction<C: Conn>(conn: &C, _free_pages: impl Fn() -> u64, _pages: u64) {
        let mut pool = TieredPool::new(conn, 1 << 20, BlockStore::default());
        let a = table(5, 1 << 20);
        let b = table(6, 1 << 20);
        pool.insert("a", &a).unwrap();
        pool.insert("b", &b).unwrap();
        let spec = PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 1u64 << 62));

        let first = pool.query("a", &spec).unwrap();
        assert!(first.stage_in_time > SimDuration::ZERO);
        assert_eq!(first.staged_from, Some(TierLevel::Disk));
        pool.query("b", &spec).unwrap(); // evicts a from DRAM
        assert!(!pool.is_resident("a"));

        let again = pool.query("a", &spec).unwrap();
        assert!(!again.buffer_hit, "evicted table must re-stage");
        assert!(!again.restaged, "an eviction is not a stale placement");
        assert_eq!(
            again.staged_from,
            Some(TierLevel::FarMemory),
            "the demoted table's image is still in far memory"
        );
        assert_eq!(pool.io_counts().0, 2, "no device I/O on a far hit");
        assert!(
            again.stage_in_time > SimDuration::ZERO,
            "the DRAM write is still paid"
        );
        assert!(
            again.stage_in_time < first.stage_in_time,
            "zero-copy far restage must beat the cold disk path"
        );
        assert_eq!(
            payload(&again),
            payload(&first),
            "results stay byte-identical across evict + restage"
        );
        assert_eq!((pool.hits, pool.misses), (0, 3));
    }
    on_both_connections!(
        requery_after_eviction,
        requery_after_eviction_restages_cheap_from_far_memory,
        fleet_requery_after_eviction_restages_cheap_from_far_memory
    );

    fn far_pressure<C: Conn>(conn: &C, _free_pages: impl Fn() -> u64, _pages: u64) {
        // DRAM for 256 kB, so far memory holds 1 MB: two of these
        // 512 kB images, never three.
        let mut pool = TieredPool::new(conn, 256 << 10, BlockStore::default());
        let tables: Vec<Table> = (13..16).map(|seed| table(seed, 512 << 10)).collect();
        for (name, t) in ["a", "b", "c"].iter().zip(&tables) {
            pool.insert(name, t).unwrap();
        }
        let spec = PipelineSpec::passthrough();
        pool.query("a", &spec).unwrap();
        pool.query("b", &spec).unwrap();
        // Re-touch "a" so "b" is the least-recently-used image.
        let warm = pool.query("a", &spec).unwrap();
        assert_eq!(warm.staged_from, Some(TierLevel::FarMemory));
        assert_eq!(pool.far_spills(), 0);

        pool.query("c", &spec).unwrap();
        assert_eq!(pool.far_spills(), 1, "b's image left far memory whole");
        assert_eq!(pool.far.resident_bytes, 2 * tables[0].byte_len() as u64);
        assert_eq!(pool.io_counts().0, 3, "one device read per cold image");

        // The warm image is still far-resident: no device read.
        let a = pool.query("a", &spec).unwrap();
        assert_eq!(a.staged_from, Some(TierLevel::FarMemory));
        assert_eq!(pool.io_counts().0, 3);
        assert_eq!(payload(&a), tables[0].bytes());

        // The evicted one is read whole off the device again, and
        // installing it evicts the now least-recently-used "c".
        let b = pool.query("b", &spec).unwrap();
        assert_eq!(b.staged_from, Some(TierLevel::Disk));
        assert_eq!(pool.io_counts().0, 4, "one read of the whole image");
        assert_eq!(payload(&b), tables[1].bytes());
        assert_eq!(pool.far_spills(), 2);
    }
    on_both_connections!(
        far_pressure,
        far_pressure_evicts_the_lru_image_whole,
        fleet_far_pressure_evicts_the_lru_image_whole
    );

    #[test]
    fn any_fixed_stride_schema_stages_and_queries() {
        use fv_data::{Column, ColumnType, TableBuilder, Value};
        let schema = Schema::new(vec![
            Column {
                name: "id".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "bal".into(),
                ty: ColumnType::I64,
            },
            Column {
                name: "price".into(),
                ty: ColumnType::F64,
            },
            Column {
                name: "tag".into(),
                ty: ColumnType::Bytes(6),
            },
        ]);
        let mut b = TableBuilder::with_capacity(schema, 64);
        for i in 0..64u64 {
            b.push_values(vec![
                Value::U64(i),
                Value::I64(-(i as i64)),
                Value::F64(i as f64 * 0.25),
                Value::Bytes(vec![b'a' + (i % 26) as u8; 6]),
            ]);
        }
        let t = b.build();

        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        let mut pool = TieredPool::new(&qp, 1 << 20, BlockStore::default());
        pool.insert("mixed", &t).unwrap();
        let cold = pool.query("mixed", &PipelineSpec::passthrough()).unwrap();
        assert_eq!(cold.outcome.payload, t.bytes());
        let hot = pool
            .query(
                "mixed",
                &PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 32u64)),
            )
            .unwrap();
        assert!(hot.buffer_hit);
        assert_eq!(hot.outcome.payload.len(), 32 * t.schema().row_bytes());
    }

    fn empty_object_name<C: Conn>(conn: &C, _free_pages: impl Fn() -> u64, _pages: u64) {
        let mut pool = TieredPool::new(conn, 1 << 20, BlockStore::default());
        let err = pool.insert("", &table(1, 64 << 10)).unwrap_err();
        assert!(matches!(err, FvError::Unstageable { .. }), "{err}");
    }
    on_both_connections!(
        empty_object_name,
        empty_object_name_is_a_typed_error,
        fleet_empty_object_name_is_a_typed_error
    );

    fn corrupted_image<C: Conn>(conn: &C, free_pages: impl Fn() -> u64, _pages: u64) {
        let baseline = free_pages();
        let mut pool = TieredPool::new(conn, 1 << 20, BlockStore::default());
        pool.insert("t", &table(2, 64 << 10)).unwrap();
        // Flip a payload byte: the open-time checksum must catch it.
        assert!(pool.corrupt_stored("t", 4096));
        let Err(err) = pool.query("t", &PipelineSpec::passthrough()) else {
            panic!("a corrupted image staged");
        };
        assert!(matches!(err, FvError::Codec(_)), "{err}");
        assert!(!pool.is_resident("t"));
        assert_eq!(free_pages(), baseline, "a rejected image stages nothing");
        assert_eq!(pool.far.resident_bytes, 0, "nor is it installed far");
        // Re-inserting clean bytes recovers the object.
        pool.insert("t", &table(2, 64 << 10)).unwrap();
        assert!(pool.query("t", &PipelineSpec::passthrough()).is_ok());
    }
    on_both_connections!(
        corrupted_image,
        corrupted_image_is_a_typed_error_not_a_panic,
        fleet_corrupted_image_is_a_typed_error_not_a_panic
    );

    /// Re-inserting a DRAM-resident name must retire the staged copy of
    /// the old contents with them: the next query stages and serves the
    /// new table (it used to hit the stale copy and return the old
    /// bytes), and the old copy's pages go back to the pool.
    fn reinsert_over_resident<C: Conn>(conn: &C, free_pages: impl Fn() -> u64, table_pages: u64) {
        let baseline = free_pages();
        let mut pool = TieredPool::new(conn, 8 << 20, BlockStore::default());
        let old = table(21, 256 << 10);
        pool.insert("t", &old).unwrap();
        assert_eq!(
            payload(&pool.query("t", &PipelineSpec::passthrough()).unwrap()),
            old.bytes()
        );
        // Same shape with other contents, then another row count.
        for new in [table(22, 256 << 10), table(23, 128 << 10)] {
            pool.insert("t", &new).unwrap();
            assert!(
                !pool.is_resident("t"),
                "the old copy went with the old image"
            );
            let out = pool.query("t", &PipelineSpec::passthrough()).unwrap();
            assert!(!out.buffer_hit, "new contents must be staged, not hit");
            assert_eq!(out.staged_from, Some(TierLevel::Disk));
            assert_eq!(payload(&out), new.bytes());
            assert_eq!(pool.resident_bytes(), new.byte_len() as u64);
            assert_eq!(free_pages(), baseline - table_pages, "one table's pages");
        }
    }
    on_both_connections!(
        reinsert_over_resident,
        reinsert_over_a_resident_name_serves_the_new_table,
        fleet_reinsert_over_a_resident_name_serves_the_new_table
    );

    /// Rows that do not divide the staging block or the transpose tile
    /// (24- and 13-byte rows), one row, and 5 000 rows all come back
    /// byte-identical through a cold staging.
    fn odd_row_widths<C: Conn>(conn: &C, _free_pages: impl Fn() -> u64, _pages: u64) {
        use fv_data::{Column, ColumnType, TableBuilder, Value};
        let schema = |tys: &[ColumnType]| {
            let col = |(i, &ty)| Column {
                name: format!("c{i}"),
                ty,
            };
            Schema::new(tys.iter().enumerate().map(col).collect())
        };
        let wide = schema(&[ColumnType::U64, ColumnType::Bytes(3), ColumnType::Bytes(13)]);
        let narrow = schema(&[ColumnType::Bytes(13)]);
        let mut pool = TieredPool::new(conn, 8 << 20, BlockStore::default());
        for (s, rows) in [
            (&wide, 1usize),
            (&wide, 5000),
            (&narrow, 1),
            (&narrow, 5000),
        ] {
            let mut b = TableBuilder::with_capacity(s.clone(), rows);
            for r in 0..rows as u64 {
                let cell = |c: &Column| match c.ty {
                    ColumnType::Bytes(w) => Value::Bytes(vec![(r % 241) as u8 + w as u8; w]),
                    _ => Value::U64(r.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                };
                b.push_values(s.columns().iter().map(cell).collect());
            }
            let t = b.build();
            let name = format!("{}x{rows}", s.row_bytes());
            pool.insert(&name, &t).unwrap();
            let cold = pool.query(&name, &PipelineSpec::passthrough()).unwrap();
            assert!(!cold.buffer_hit);
            assert_eq!(payload(&cold), t.bytes(), "{name}");
        }
    }
    on_both_connections!(
        odd_row_widths,
        row_widths_that_do_not_divide_the_block_stage_byte_identical,
        fleet_row_widths_that_do_not_divide_the_block_stage_byte_identical
    );

    /// A staging whose DRAM write fails (a partitioned link) is a typed
    /// error that leaves the pool exactly as it was: nothing resident,
    /// no pages held — so a pool under a fault plan does not shrink
    /// toward `NoSpace` one failed staging at a time.
    #[test]
    fn failed_staging_is_a_typed_error_and_leaks_nothing() {
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        let t = table(8, 256 << 10);
        let spec = PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 1u64 << 62));
        let (ft, _) = qp.load_table(&t).unwrap();
        let direct = qp.far_view(&ft, &spec).unwrap();

        let mut pool = TieredPool::new(&qp, 1 << 20, BlockStore::default());
        pool.insert("t", &t).unwrap();
        let baseline = cluster.free_pages();
        cluster
            .set_fault_plan(crate::FaultPlan::none().partitioned())
            .unwrap();
        let err = pool.query("t", &spec).unwrap_err();
        assert!(matches!(err, FvError::Net(_)), "{err}");
        assert!(!pool.is_resident("t"));
        assert_eq!(pool.resident_bytes(), 0);
        assert_eq!(cluster.free_pages(), baseline, "failed staging leaked");
        // The staging path itself, without the pool around it.
        assert!(matches!(qp.stage(&chunks_of(&t)), Err(FvError::Net(_))));
        assert_eq!(cluster.free_pages(), baseline, "image staging leaked");

        cluster.set_fault_plan(crate::FaultPlan::none()).unwrap();
        let cold = pool.query("t", &spec).unwrap();
        assert!(!cold.buffer_hit);
        assert_eq!(cold.outcome.payload, direct.payload);
    }

    #[test]
    fn fleet_tier_restages_into_the_current_placement() {
        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let conn = FleetConn::new(fleet.connect().unwrap(), Partitioning::RowRange);
        let mut pool = TieredPool::new(&conn, 8 << 20, BlockStore::default());
        let t = table(7, 512 << 10);
        pool.insert("orders", &t).unwrap();

        let cold = pool.query("orders", &PipelineSpec::passthrough()).unwrap();
        assert!(!cold.buffer_hit);
        assert!(!cold.restaged);
        assert_eq!(cold.staged_from, Some(TierLevel::Disk));
        assert_eq!(cold.outcome.merged.payload, t.bytes());
        assert_eq!(cold.outcome.per_shard.len(), 2);
        assert_eq!(
            pool.resident.get("orders").map(|r| r.staged.epoch()),
            Some(0)
        );

        let hot = pool.query("orders", &PipelineSpec::passthrough()).unwrap();
        assert!(hot.buffer_hit);
        assert_eq!(hot.stage_in_time, SimDuration::ZERO);

        // Membership churn that cancels out (add then remove the same
        // node) leaves the placement current — no restage.
        let transient = fleet.add_node();
        fleet.remove_node(transient).unwrap();
        let still_hot = pool.query("orders", &PipelineSpec::passthrough()).unwrap();
        assert!(still_hot.buffer_hit, "cancelled-out churn must stay hot");

        // Grow the fleet for real: the resident's placement goes stale,
        // so the next query restages into the *current* 4-node
        // placement — sourced from far memory, no device reads.
        fleet.add_node();
        fleet.add_node();
        let restaged = pool.query("orders", &PipelineSpec::passthrough()).unwrap();
        assert!(restaged.restaged, "stale epoch must trigger a restage");
        assert!(!restaged.buffer_hit);
        assert_eq!(
            restaged.staged_from,
            Some(TierLevel::FarMemory),
            "the rebalance restage must not re-read the device"
        );
        assert_eq!(pool.io_counts().0, 1, "only the cold staging read");
        assert!(
            restaged.stage_in_time > SimDuration::ZERO,
            "the scatter write is re-paid"
        );
        assert_eq!(
            restaged.outcome.per_shard.len(),
            4,
            "cold data lands on the shard set that exists now"
        );
        assert_eq!(restaged.outcome.merged.payload, t.bytes());
        assert_eq!(
            pool.resident.get("orders").map(|r| r.staged.epoch()),
            Some(fleet.epoch())
        );
        assert_eq!(pool.restages(), 1);
        assert_eq!((pool.hits, pool.misses), (2, 2));
    }

    /// A replicated fleet pool charges every copy it stages against its
    /// budget: with DRAM for two single copies, one `r = 2` table fills
    /// it, so staging a second one evicts the first. Charging one copy
    /// per table kept both resident, at twice the budget.
    #[test]
    fn replicated_fleet_pool_charges_every_copy_against_its_budget() {
        let fleet = FarviewFleet::new(3, FarviewConfig::tiny());
        let conn =
            FleetConn::new(fleet.connect().unwrap(), Partitioning::RowRange).with_replication(2);
        let baseline = fleet.free_pages();
        let (a, b) = (table(31, 256 << 10), table(32, 256 << 10));
        let copies = 2 * a.byte_len() as u64;
        let mut pool = TieredPool::new(&conn, copies, BlockStore::default());
        pool.insert("a", &a).unwrap();
        pool.insert("b", &b).unwrap();

        pool.query("a", &PipelineSpec::passthrough()).unwrap();
        assert_eq!(pool.resident_bytes(), copies, "both copies are charged");
        let out = pool.query("b", &PipelineSpec::passthrough()).unwrap();
        assert_eq!(out.evictions, vec!["a".to_string()]);
        assert!(!pool.is_resident("a"));
        assert_eq!(pool.resident_bytes(), copies);
        assert_eq!(payload(&out), b.bytes());
        assert_eq!(
            fleet.free_pages(),
            baseline - 6,
            "only b's three shards × two copies hold pages"
        );
    }

    /// A pool serves tenant `t` from the object named `t` in decimal: a
    /// miss's service time includes its staging, a hit's is the bare
    /// query, the DRR cost is the inserted table's byte length, and an
    /// id with no object behind it is a typed error.
    #[test]
    fn a_pool_serves_each_tenant_from_its_decimal_named_object() {
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        let t = table(41, 64 << 10);
        let mut pool = TieredPool::new(&qp, 1 << 20, BlockStore::default());
        pool.insert("7", &t).unwrap();
        let spec = PipelineSpec::passthrough();
        let cold = pool.execute(7, &spec).unwrap();
        let hot = pool.execute(7, &spec).unwrap();
        assert_eq!(cold.payload, t.bytes());
        assert_eq!(hot.payload, t.bytes());
        assert!(
            cold.stats.response_time > hot.stats.response_time + SimDuration::from_micros(80),
            "the cold disk read is paid as service"
        );
        assert_eq!(pool.cost(7), t.byte_len() as u64);
        assert!(matches!(
            pool.execute(8, &spec),
            Err(FvError::NotInStorage { .. })
        ));
        assert_eq!(pool.cost(8), 1);
    }

    /// Staging by adoption is simulated as the `table_write` it
    /// replaces: on twin nodes, one staging from page chunks and one
    /// `load_table`, the write times, the node's resident bytes, and
    /// the first query's bytes and [`QueryStats`](crate::QueryStats)
    /// are equal — for no rows, exactly one page, 2 MB + 1 byte (the
    /// last 9-byte row straddling the page), and 24-byte rows, one of
    /// which straddles the page boundary mid-table.
    #[test]
    fn adoption_is_simulated_as_the_write_it_replaces() {
        use fv_data::{Column, ColumnType};
        let page = IMAGE_PAGE_BYTES;
        for (width, rows) in [(8, 0), (8, page / 8), (9, (page + 1) / 9), (24, 90_000)] {
            let col = Column {
                name: "c".into(),
                ty: ColumnType::Bytes(width),
            };
            let bytes = (0..width * rows).map(|i| (i % 251) as u8 + 1).collect();
            let t = Table::from_bytes(Schema::new(vec![col]), bytes);
            let chunks = chunks_of(&t);
            let adopting = FarviewCluster::new(FarviewConfig::tiny());
            let writing = FarviewCluster::new(FarviewConfig::tiny());
            let (qa, qw) = (adopting.connect().unwrap(), writing.connect().unwrap());
            let (fa, ta, bytes) = qa.stage(&chunks).unwrap();
            let (fw, tw) = qw.load_table(&t).unwrap();
            let what = format!("{rows} rows of {width} bytes");
            assert_eq!((ta, bytes), (tw, t.byte_len() as u64), "{what}");
            assert_eq!(
                adopting.resident_bytes(),
                writing.resident_bytes(),
                "{what}"
            );
            let spec = PipelineSpec::passthrough();
            let (a, w) = (
                qa.far_view(&fa, &spec).unwrap(),
                qw.far_view(&fw, &spec).unwrap(),
            );
            assert_eq!(a.stats, w.stats, "{what}");
            assert_eq!(a.payload, w.payload, "{what}");
        }
    }

    /// The 8-byte word a write by `domain` in generation `gen` leaves at
    /// byte `at`: the bytes name their source.
    fn tag(domain: u32, gen: u32, at: usize) -> [u8; 8] {
        let word = 0xF0F0 << 48 | u64::from(domain) << 40 | u64::from(gen) << 24;
        (word | (at as u64 / 8 & 0xFF_FFFF)).to_le_bytes()
    }

    /// A whole-table write of `domain`'s generation-`gen` tags.
    fn tagged(domain: u32, gen: u32, len: usize) -> Vec<u8> {
        (0..len)
            .step_by(8)
            .flat_map(|at| tag(domain, gen, at))
            .collect()
    }

    /// Byte provenance: every word `domain` observes in `seen` must be
    /// zero, its own write of the current generation `gen` (when `own`),
    /// or the table's current far chunk bytes `far`. A violation names
    /// the word's source from its bytes alone.
    fn provenance(seen: &[u8], domain: u32, gen: u32, own: bool, far: Option<&[u8]>) {
        for (i, word) in seen.chunks(8).enumerate() {
            let at = i * 8;
            let ok = word.iter().all(|&b| b == 0)
                || (own && word == tag(domain, gen, at))
                || far.is_some_and(|f| f.get(at..at + word.len()) == Some(word));
            if !ok {
                let w = u64::from_le_bytes(word.try_into().unwrap_or_default());
                let source = if w >> 48 == 0xF0F0 {
                    format!(
                        "domain {}'s write in generation {}",
                        w >> 40 & 0xFF,
                        w >> 24 & 0xFFFF
                    )
                } else {
                    "a table this domain did not stage".to_string()
                };
                panic!("domain {domain} at generation {gen} reads byte {at} from {source}");
            }
        }
    }

    /// Isolation across the adoption seam, on a 16-page node where pages
    /// recycle constantly. Each generation stages a two-chunk table
    /// (from the device, then from far memory), overwrites it with
    /// tagged bytes, evicts it, restages it, frees it, and then lets a
    /// second domain allocate the pages and read them. Every byte
    /// observed is zero, the observer's own write of this generation,
    /// or the far chunk; a restaged table equals a fresh `load_table`;
    /// the far chunks never change.
    #[test]
    fn staged_pages_carry_only_bytes_their_domain_may_see() {
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let (qp, other) = (cluster.connect().unwrap(), cluster.connect().unwrap());
        let (a, b) = (qp.id(), other.id());
        let tables: Vec<Table> = (0..3).map(|i| table(60 + i, 5 << 19)).collect();
        let names = ["x", "y", "z"];
        let mut pool = TieredPool::new(&qp, 5 << 19, BlockStore::default());
        for (name, t) in names.iter().zip(&tables) {
            pool.insert(name, t).unwrap();
        }
        let none = PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 0u64));
        for gen in 0..6u32 {
            let (name, t) = (names[gen as usize % 3], &tables[gen as usize % 3]);
            let far = t.bytes();
            let staged = |pool: &TieredPool<'_>| pool.resident[name].staged.clone();

            pool.query(name, &none).unwrap();
            let ft = staged(&pool);
            assert_eq!(pool.far.images[name].table.pages().len(), 2);
            provenance(&qp.peek_table(&ft).unwrap(), a, gen, false, Some(far));
            qp.table_write(&ft, &tagged(a, gen, far.len())).unwrap();
            provenance(&qp.peek_table(&ft).unwrap(), a, gen, true, Some(far));
            assert_eq!(pool.far.images[name].table.to_table().bytes(), far);

            pool.drop_resident(name).unwrap();
            let again = pool.query(name, &none).unwrap();
            assert_eq!(again.staged_from, Some(TierLevel::FarMemory));
            let restaged = qp.peek_table(&staged(&pool)).unwrap();
            provenance(&restaged, a, gen, false, Some(far));
            let (fresh, _) = other.load_table(t).unwrap();
            assert!(
                restaged == other.peek_table(&fresh).unwrap(),
                "{name} at {gen}"
            );
            other.free_table(fresh).unwrap();
            pool.drop_resident(name).unwrap();

            let mine = other.alloc_table(t).unwrap();
            provenance(&other.peek_table(&mine).unwrap(), b, gen, false, None);
            other
                .table_write(&mine, &tagged(b, gen, far.len()))
                .unwrap();
            provenance(&other.peek_table(&mine).unwrap(), b, gen, true, None);
            other.free_table(mine).unwrap();
        }
    }

    #[test]
    fn storage_io_is_counted_and_timed() {
        let mut store = BlockStore::new(StorageParams {
            access_latency: SimDuration::from_micros(100),
            bandwidth: 1.0e9,
        });
        let wt = store.put("obj", vec![0u8; 3_000_000]);
        // 100 µs + 3 MB at 1 GB/s = 3.1 ms.
        assert_eq!(wt.as_nanos(), 100_000 + 3_000_000);
        let (extents, rt) = store.get("obj").unwrap();
        let lens: Vec<usize> = extents.iter().map(|e| e.len()).collect();
        assert_eq!(lens, [64, 2 << 20, 3_000_000 - 64 - (2 << 20)]);
        assert_eq!(rt, wt);
        assert_eq!(store.io_counts(), (1, 1));
        assert!(store.get("missing").is_none());
        // Corruption copies the extent it lands in: a reader already
        // holding it keeps the bytes it read.
        assert!(store.corrupt_object("obj", 64 + 5));
        assert!(!store.corrupt_object("obj", 3_000_000));
        assert_eq!(extents[1][5], 0);
        assert_eq!(store.get("obj").unwrap().0[1][5], 0xFF);
    }
}
