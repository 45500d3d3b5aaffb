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
//!   disk (BlockStore)  →  far memory (column images)  →  DRAM (FTable)
//!   authoritative          whole Arc<[u8]> images,        staged rows the
//!   columnar images        LRU under a byte budget        pipeline queries
//! ```
//!
//! * [`BlockStore`] — a calibrated NVMe-class storage model holding the
//!   cold **columnar table images** ([`fv_data::ColumnImage`] bytes +
//!   read/write timing). Objects are shared out as `Arc<[u8]>`, so a
//!   read never copies the image.
//! * The **far-memory image tier** (internal to the pool) keeps
//!   recently staged images resident as zero-copy `Arc<[u8]>` buffers,
//!   an LRU of whole images under a byte budget of 4× the DRAM budget.
//!   A far hit costs no device I/O; a miss (an image never fetched, or
//!   one evicted since) pays one read of the full image; pressure
//!   evicts the least-recently-used image whole.
//! * [`TieredPool`] — an LRU cache manager over the slice of
//!   disaggregated memory one [`Conn`] reaches: queries against cold
//!   tables stage them in (evicting least-recently-used DRAM residents
//!   when the budget is exceeded) and then run the offloaded pipeline.
//!   Over a [`QPair`] that is one node; over a [`FleetConn`] staged
//!   tables scatter across the fleet under the topology's *current*
//!   epoch, and a resident staged before a membership change is
//!   restaged into the new placement the next time it is queried. The
//!   restage sources from the far-memory image when it is still there.
//! * A pool is also a serving backend: `ServeEngine<TieredPool<'_, C>>`
//!   serves tenants whose tables do not all fit in DRAM, each tenant's
//!   staging paid as service time.
//!
//! Column images are the disk / far-tier *storage* format only. DRAM
//! tables and the operator datapath are row-major, as in the paper:
//! staging transposes the opened image back into rows on its way into
//! DRAM, before any operator runs.
//!
//! Any fixed-stride schema stages (the image records the schema
//! fingerprint; the pool keeps a per-object schema catalog). Image
//! validation happens once per staging, at the [`ColumnImage::open`] in
//! [`TieredPool::query`]: corrupted or truncated storage bytes surface
//! as a typed [`FvError::Codec`] with nothing installed, never a panic.
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

use fv_data::{ColumnImage, Schema, Table};
use fv_sim::{calib, SimDuration};

use crate::cluster::{QPair, QueryOutcome};
use crate::conn::{Conn, FleetConn};
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

/// A named block store holding cold columnar table images.
///
/// Objects are immutable once written and shared out as `Arc<[u8]>`:
/// `get` hands back a reference-counted view of the stored image, so
/// the far-memory tier, the opener, and the store itself all alias one
/// buffer — no copy is made anywhere on the read path.
#[derive(Debug, Default)]
pub struct BlockStore {
    params: StorageParams,
    objects: HashMap<String, Arc<[u8]>>,
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

    /// Persist an object; returns the simulated write time. The vector
    /// is moved into a shared buffer, not copied.
    pub fn put(&mut self, name: &str, bytes: Vec<u8>) -> SimDuration {
        self.writes += 1;
        let t = self.params.access_latency
            + calib::transfer(bytes.len().max(1) as u64, self.params.bandwidth);
        self.objects.insert(name.to_string(), bytes.into());
        t
    }

    /// Fetch an object; returns a zero-copy view of the bytes and the
    /// simulated read time for the full image.
    pub fn get(&mut self, name: &str) -> Option<(Arc<[u8]>, SimDuration)> {
        let bytes = Arc::clone(self.objects.get(name)?);
        self.reads += 1;
        let t = self.params.access_latency
            + calib::transfer(bytes.len().max(1) as u64, self.params.bandwidth);
        Some((bytes, t))
    }

    /// Flip every bit of one byte of a stored object — a fault-injection
    /// hook for exercising the typed [`CodecError`](fv_data::CodecError)
    /// path (the chaos suite's storage-corruption fault). Returns false
    /// when the object does not exist or `byte` is out of range.
    pub fn corrupt_object(&mut self, name: &str, byte: usize) -> bool {
        match self.objects.get_mut(name) {
            Some(obj) if byte < obj.len() => {
                let mut v = obj.to_vec();
                v[byte] ^= 0xFF;
                *obj = v.into();
                true
            }
            _ => false,
        }
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

/// One table's far-memory image: the shared bytes, the bytes it is
/// charged against the far budget (its row data), and an LRU stamp.
struct FarImage {
    image: Arc<[u8]>,
    bytes: u64,
    last_use: u64,
}

/// What a far-tier fetch resolved to: the image bytes ready to open,
/// the schema to open them with, and what the fetch cost.
struct FarFetch {
    bytes: Arc<[u8]>,
    schema: Schema,
    read_time: SimDuration,
    source: TierLevel,
}

/// The disk + far-memory rungs of the ladder: a [`BlockStore`] of
/// column images, a per-object catalog of schema and row-format byte
/// length, and the far-memory LRU of whole images.
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

    /// Encode `table` as a columnar image and persist it. Any
    /// fixed-stride schema is accepted; the schema is recorded in the
    /// catalog so the image can be reopened without out-of-band
    /// knowledge. Re-inserting a name invalidates any cached far copy.
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
        Ok(self.store.put(name, ColumnImage::encode(table)))
    }

    /// Drop `name`'s cached far copy, if any.
    fn forget(&mut self, name: &str) {
        if let Some(old) = self.images.remove(name) {
            self.resident_bytes -= old.bytes;
        }
    }

    /// Resolve `name` to openable image bytes: free on a far hit, one
    /// read of the full image on a miss.
    fn fetch(&mut self, name: &str, clock: u64) -> Result<FarFetch, FvError> {
        let missing = || FvError::NotInStorage {
            name: name.to_string(),
        };
        let schema = self.catalog.get(name).ok_or_else(missing)?.0.clone();
        if let Some(img) = self.images.get_mut(name) {
            img.last_use = clock;
            return Ok(FarFetch {
                bytes: Arc::clone(&img.image),
                schema,
                read_time: SimDuration::ZERO,
                source: TierLevel::FarMemory,
            });
        }
        // Miss: the image becomes far-resident once the caller has
        // validated it (`install`).
        let (bytes, read_time) = self.store.get(name).ok_or_else(missing)?;
        Ok(FarFetch {
            bytes,
            schema,
            read_time,
            source: TierLevel::Disk,
        })
    }

    /// Make a fetched image, validated by the caller's `open`, far-resident
    /// at `bytes` of budget (a far hit already is), then evict
    /// least-recently-used images whole until the tier fits its budget.
    /// The newest image goes last, so one larger than the whole budget is
    /// not kept. Evictions are free: the tier is read-only, the disk copy
    /// is authoritative.
    fn install(&mut self, name: &str, fetch: &FarFetch, bytes: u64, clock: u64) {
        if self.images.contains_key(name) {
            return;
        }
        self.resident_bytes += bytes;
        self.images.insert(
            name.to_string(),
            FarImage {
                image: Arc::clone(&fetch.bytes),
                bytes,
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
/// whole fleet through a [`FleetConn`].
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

    /// Register a table: encoded as a columnar image and persisted to
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

    /// `(hits, misses)` so far (a restage counts as a miss).
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Residents restaged because their placement went stale.
    pub fn restages(&self) -> u64 {
        self.restages
    }

    /// Bytes currently resident in DRAM, every replica counted.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Bytes of column images currently resident in far memory, each
    /// image charged its row data.
    pub fn far_resident_bytes(&self) -> u64 {
        self.far.resident_bytes
    }

    /// Images evicted from far memory so far; each is read whole off
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
    pub fn corrupt_stored(&mut self, name: &str, byte: usize) -> bool {
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
    /// A DRAM miss resolves down the ladder: a far-resident image
    /// restages with a zero-copy open (no device I/O), any other pays
    /// one read of the full image. Residency management lives here; staging
    /// and the query itself go through the connection.
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
        let fetch = self.far.fetch(name, self.clock)?;
        // The one validation of this staging; a cold image becomes
        // far-resident only once it has passed.
        let image = ColumnImage::open(&fetch.bytes, &fetch.schema)?;
        let one_copy = (image.row_count() * fetch.schema.row_bytes()) as u64;
        self.far.install(name, &fetch, one_copy, self.clock);

        // Make room under the DRAM budget: before staging for the one
        // row-format copy every staging writes, and after it for
        // whatever more the staging occupies — the other replicas on a
        // replicated fleet.
        let mut evictions = Vec::new();
        self.make_room(one_copy, &mut evictions)?;
        let (staged, write_time, bytes) = self.conn.stage(&image)?;
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
            staged_from: Some(fetch.source),
            stage_in_time: fetch.read_time + write_time,
            evictions,
        })
    }
}

impl TieredPool<'_, FleetConn> {
    /// The epoch `name`'s resident copy was placed at, if resident.
    pub fn resident_epoch(&self, name: &str) -> Option<u64> {
        self.resident.get(name).map(|r| r.staged.epoch())
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
    use crate::{FarviewCluster, FarviewConfig};
    use fv_pipeline::PredicateExpr;

    fn table(seed: u64, bytes: u64) -> Table {
        fv_workload::TableGen::paper_default(bytes)
            .seed(seed)
            .build()
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
        assert_eq!(pool.hit_stats(), (1, 1));
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
        assert_eq!(pool.hit_stats(), (0, 3));
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
        assert_eq!(pool.far_resident_bytes(), 2 * tables[0].byte_len() as u64);
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
        assert_eq!(pool.far_resident_bytes(), 0, "nor is it installed far");
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
        cluster.set_fault_plan(crate::FaultPlan::none().partitioned());
        let err = pool.query("t", &spec).unwrap_err();
        assert!(matches!(err, FvError::Net(_)), "{err}");
        assert!(!pool.is_resident("t"));
        assert_eq!(pool.resident_bytes(), 0);
        assert_eq!(cluster.free_pages(), baseline, "failed staging leaked");
        // The staging path itself, without the pool around it.
        let image = ColumnImage::encode(&t);
        let opened = ColumnImage::open(&image, t.schema()).unwrap();
        assert!(matches!(qp.stage(&opened), Err(FvError::Net(_))));
        assert_eq!(cluster.free_pages(), baseline, "image staging leaked");

        cluster.set_fault_plan(crate::FaultPlan::none());
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
        assert_eq!(pool.resident_epoch("orders"), Some(0));

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
        assert_eq!(pool.resident_epoch("orders"), Some(fleet.epoch()));
        assert_eq!(pool.restages(), 1);
        assert_eq!(pool.hit_stats(), (2, 2));
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

    #[test]
    fn storage_io_is_counted_and_timed() {
        let mut store = BlockStore::new(StorageParams {
            access_latency: SimDuration::from_micros(100),
            bandwidth: 1.0e9,
        });
        let wt = store.put("obj", vec![0u8; 1_000_000]);
        // 100 µs + 1 MB at 1 GB/s = 1.1 ms.
        assert_eq!(wt.as_nanos(), 100_000 + 1_000_000);
        let (bytes, rt) = store.get("obj").unwrap();
        assert_eq!(bytes.len(), 1_000_000);
        assert_eq!(rt, wt);
        assert_eq!(store.io_counts(), (1, 1));
        assert!(store.get("missing").is_none());
    }
}
