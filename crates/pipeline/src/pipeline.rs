//! Compiled pipelines: framing, stage chaining, flushing, statistics.

use fv_data::{Column, ColumnType, Schema};
use fv_sim::calib::{GROUP_FLUSH_CYCLES_PER_ENTRY, OP_FILL_CYCLES};

use crate::compress::StreamCompressor;
use crate::crypto_op::StreamCrypto;
use crate::distinct::DistinctOp;
use crate::filter::FilterOp;
use crate::group_by::GroupByOp;
use crate::join::JoinSmallOp;
use crate::pack::Packer;
use crate::predicate::PredicateError;
use crate::project::{ProjectionPlan, SmartAddressing};
use crate::regex_op::RegexOp;
use crate::spec::{GroupingSpec, PipelineSpec};

/// Errors raised when compiling a [`PipelineSpec`] against a schema.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A column index is out of range.
    UnknownColumn {
        /// The offending index.
        col: usize,
        /// Number of columns in the schema.
        arity: usize,
    },
    /// Projection with no columns.
    EmptyProjection,
    /// Predicate validation failed.
    Predicate(PredicateError),
    /// Regex compilation failed.
    Regex(String),
    /// Regex selection on a non-string column.
    RegexOnNonString {
        /// The offending column.
        col: usize,
    },
    /// Smart addressing requires a projection and supports no other
    /// operators (the gathered stream carries only the projected bytes).
    SmartAddressingConflict(&'static str),
    /// Grouping defines its own output columns; an explicit projection
    /// alongside it is ambiguous.
    GroupingProjectionConflict,
    /// Aggregation over a byte-string column.
    AggOnBytes {
        /// The offending column.
        col: usize,
    },
    /// Distinct with no key columns.
    EmptyDistinct,
    /// Join key columns have different types.
    JoinKeyTypeMismatch {
        /// Probe-side key type.
        probe: ColumnType,
        /// Build-side key type.
        build: ColumnType,
    },
    /// The join build side exceeds the on-chip budget.
    BuildSideTooLarge {
        /// Build-side bytes.
        bytes: usize,
        /// The on-chip limit.
        limit: usize,
    },
    /// The join build image is not a whole number of rows.
    RaggedBuildSide,
    /// The small-table join defines its own (wider) output tuples; it
    /// cannot combine with the named feature.
    JoinConflict(&'static str),
    /// A value/column type or width mismatch surfaced by the physical
    /// codec — user-supplied rows or constants that do not encode as
    /// their declared column type.
    Value(fv_data::ValueError),
    /// Two output columns would share a name — a projection listing the
    /// same column twice, or a grouping/join whose generated column
    /// names collide with each other or with a base column.
    DuplicateOutputColumn {
        /// The colliding column name.
        name: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::UnknownColumn { col, arity } => {
                write!(f, "pipeline references column {col}, table has {arity}")
            }
            PipelineError::EmptyProjection => write!(f, "projection keeps no columns"),
            PipelineError::Predicate(e) => write!(f, "{e}"),
            PipelineError::Regex(e) => write!(f, "regex: {e}"),
            PipelineError::RegexOnNonString { col } => {
                write!(f, "regex selection on non-string column {col}")
            }
            PipelineError::SmartAddressingConflict(what) => {
                write!(f, "smart addressing cannot combine with {what}")
            }
            PipelineError::GroupingProjectionConflict => {
                write!(f, "grouping output is fixed; drop the explicit projection")
            }
            PipelineError::AggOnBytes { col } => {
                write!(f, "aggregation over byte-string column {col}")
            }
            PipelineError::EmptyDistinct => write!(f, "DISTINCT with no key columns"),
            PipelineError::JoinKeyTypeMismatch { probe, build } => {
                write!(
                    f,
                    "join key types differ: probe {probe:?} vs build {build:?}"
                )
            }
            PipelineError::BuildSideTooLarge { bytes, limit } => {
                write!(
                    f,
                    "join build side of {bytes} bytes exceeds on-chip budget of {limit}"
                )
            }
            PipelineError::RaggedBuildSide => {
                write!(f, "join build image is not a whole number of rows")
            }
            PipelineError::JoinConflict(what) => {
                write!(f, "small-table join cannot combine with {what}")
            }
            PipelineError::Value(e) => write!(f, "value codec: {e}"),
            PipelineError::DuplicateOutputColumn { name } => {
                write!(f, "two output columns would be named {name:?}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PredicateError> for PipelineError {
    fn from(e: PredicateError) -> Self {
        PipelineError::Predicate(e)
    }
}

impl From<fv_data::ValueError> for PipelineError {
    fn from(e: fv_data::ValueError) -> Self {
        PipelineError::Value(e)
    }
}

/// Build a [`Schema`] from `cols`, turning a duplicate output name into
/// a typed [`PipelineError::DuplicateOutputColumn`] instead of the
/// `Schema::new` panic. Every place the pipeline derives an output
/// schema from user input routes through this.
pub(crate) fn schema_from_unique_columns(cols: Vec<Column>) -> Result<Schema, PipelineError> {
    for (i, c) in cols.iter().enumerate() {
        if cols.iter().take(i).any(|prev| prev.name == c.name) {
            return Err(PipelineError::DuplicateOutputColumn {
                name: c.name.clone(),
            });
        }
    }
    Ok(Schema::new(cols))
}

/// Counters every pipeline keeps, reported in `QueryStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Tuples parsed from the memory stream.
    pub tuples_in: u64,
    /// Tuples that reached the packer.
    pub tuples_out: u64,
    /// Bytes consumed from memory.
    pub bytes_in: u64,
    /// Bytes handed to the sender.
    pub bytes_out: u64,
    /// Cuckoo overflow tuples shipped for client-side dedup/aggregation.
    pub overflow_tuples: u64,
    /// Duplicates caught by the LRU shift register that the delayed
    /// hash-table write would have missed (the §5.4 data hazard).
    pub hazard_catches: u64,
    /// Entries flushed by the group-by operator at end of stream.
    pub groups_flushed: u64,
}

/// A block of framed tuples flowing through the vectorized datapath:
/// contiguous tuple bytes (a whole number of tuples) plus the fixed
/// tuple width. Survivorship is carried *next to* the block as a
/// selection vector of tuple indices — operators mark survivors instead
/// of copying them, and the packer gathers the marked tuples in one
/// pass at the end.
#[derive(Debug, Clone, Copy)]
pub struct TupleBlock<'a> {
    data: &'a [u8],
    tuple_bytes: usize,
}

impl<'a> TupleBlock<'a> {
    /// Frame `data` (a whole number of tuples) as a block.
    ///
    /// # Panics
    /// Panics if `data` is not a whole number of `tuple_bytes` tuples.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: blocks are framed from whole tuples"
    )]
    pub fn new(data: &'a [u8], tuple_bytes: usize) -> Self {
        assert!(tuple_bytes > 0, "zero-width tuples");
        assert_eq!(
            data.len() % tuple_bytes,
            0,
            "block of {} bytes is not whole {tuple_bytes}-byte tuples",
            data.len()
        );
        TupleBlock { data, tuple_bytes }
    }

    /// Number of tuples in the block.
    pub fn len(&self) -> usize {
        self.data.len() / self.tuple_bytes
    }

    /// True when the block holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Width of one tuple.
    pub fn tuple_bytes(&self) -> usize {
        self.tuple_bytes
    }

    /// The raw contiguous tuple bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.data
    }

    /// The bytes of tuple `i`.
    ///
    /// # Panics
    /// Panics when `i >= self.len()` — selection vectors carry indices
    /// of the block they were built over.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "the documented contract above")]
    pub fn tuple(&self, i: u32) -> &'a [u8] {
        let start = i as usize * self.tuple_bytes;
        &self.data[start..start + self.tuple_bytes]
    }
}

/// The `width` bytes at offset `at` of `tuple`: a column, or adjacent
/// columns, of a row whose schema put them there. Inlined into the block
/// loops, a literal `width` makes everything downstream of the slice —
/// hashing it, comparing it, copying it — fixed-size code.
///
/// # Panics
/// Panics when the tuple is shorter than `at + width`.
#[inline]
pub(crate) fn field(tuple: &[u8], at: usize, width: usize) -> &[u8] {
    tuple.split_at(at).1.split_at(width).0
}

/// A selection stage (§5.3: predicate or regex): it annotates tuples.
/// Survivors are marked in the selection vector, never copied — the
/// tail operator or the packer gathers them.
pub trait Selection {
    /// Retain in `sel` the indices of `block`'s tuples that pass.
    fn select_block(&mut self, block: &TupleBlock<'_>, sel: &mut Vec<u32>);
    /// Blocks scanned through a batched fast path (the DFA prefilter).
    fn batched_blocks(&self) -> u64 {
        0
    }
    /// Return to the state the stage was constructed in.
    fn reset(&mut self);
}

/// The one stateful stage a pipeline may end in (§5.4 distinct and
/// group-by, the §7 small-table join). Spec verification allows at
/// most one and nothing behind it, so the packer is its only sink.
pub trait TailOperator {
    /// Process the `sel`-marked tuples of `block` in order, packing
    /// every output row.
    fn push_block(&mut self, block: &TupleBlock<'_>, sel: &[u32], packer: &mut Packer);
    /// End of stream: pack any held state (group-by results).
    fn flush(&mut self, _packer: &mut Packer) {}
    /// Overflow tuples emitted so far (cuckoo homeless entries).
    fn overflow_tuples(&self) -> u64 {
        0
    }
    /// Blocks processed (one `push_block` call each).
    fn batched_blocks(&self) -> u64 {
        0
    }
    /// Hazard catches by the LRU shift register.
    fn hazard_catches(&self) -> u64 {
        0
    }
    /// Entries emitted at flush (group-by result size).
    fn flushed_entries(&self) -> u64 {
        0
    }
    /// Return to the state the operator was constructed in: no stream
    /// seen, every counter zero. State the spec compiled in (a join's
    /// build side) stays.
    fn reset(&mut self);
}

/// Feed `row` to `op` as a one-tuple block (a one-tuple block is a
/// block); the bytes it packed.
#[cfg(test)]
pub(crate) fn push_row(op: &mut dyn TailOperator, row: &[u8]) -> Vec<u8> {
    let mut packer = Packer::passthrough();
    op.push_block(&TupleBlock::new(row, row.len()), &[0], &mut packer);
    packer.drain()
}

/// A loaded operator pipeline — what one dynamic region runs.
pub struct CompiledPipeline {
    spec: PipelineSpec,
    /// Width of one tuple arriving from memory (full row, or the gathered
    /// smart-addressing bytes).
    in_tuple_bytes: usize,
    /// Framing remainder (bursts do not respect tuple boundaries).
    partial: Vec<u8>,
    decrypt: Option<StreamCrypto>,
    /// Reused decryption buffer: each chunk is decrypted in place here
    /// instead of into a fresh per-chunk `Vec`.
    decrypt_scratch: Vec<u8>,
    compress: Option<StreamCompressor>,
    encrypt: Option<StreamCrypto>,
    /// The selections, in pipeline order.
    selections: Vec<Box<dyn Selection>>,
    /// The stateful stage, if any — by construction at most one, last.
    tail: Option<Box<dyn TailOperator>>,
    packer: Packer,
    out_schema: Schema,
    smart_addressing: Option<SmartAddressing>,
    /// Reused selection vector.
    sel_scratch: Vec<u32>,
    stats: PipelineStats,
    finished: bool,
}

impl std::fmt::Debug for CompiledPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPipeline")
            .field("spec", &self.spec)
            .field("in_tuple_bytes", &self.in_tuple_bytes)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl CompiledPipeline {
    /// Compile (load) `spec` for tables of `base_schema`.
    pub fn compile(spec: PipelineSpec, base_schema: &Schema) -> Result<Self, PipelineError> {
        // --- validation ---------------------------------------------------
        // The static verifier *is* the validation pass: every conflict,
        // bounds, type and name check lives there, so a spec compiles if
        // and only if it verifies (modulo dynamic build-side placement).
        let (out_schema, regex) = spec.verify_compiling(base_schema)?;

        // --- operators ----------------------------------------------------
        let mut selections: Vec<Box<dyn Selection>> = Vec::new();
        if let Some(pred) = &spec.selection {
            selections.push(Box::new(FilterOp::new(pred.compile(base_schema)?)));
        }
        if let (Some(rf), Some(re)) = (&spec.regex, regex) {
            // The verifier compiled the pattern to check it; run that
            // automaton.
            selections.push(Box::new(RegexOp::new(re, rf.col, base_schema)));
        }
        // Bounds, types and the output schema come from the verifier
        // above; only operator construction remains. Join and grouping
        // exclude each other, so whichever comes last here is the only
        // one.
        let mut tail: Option<Box<dyn TailOperator>> = None;
        if let Some(join) = &spec.join {
            tail = Some(Box::new(JoinSmallOp::build(join, base_schema)?));
        }
        match &spec.grouping {
            Some(GroupingSpec::Distinct { cols }) => {
                let plan = ProjectionPlan::new(base_schema, Some(cols))?;
                tail = Some(Box::new(DistinctOp::new(plan)));
            }
            Some(GroupingSpec::GroupBy { keys, aggs }) => {
                let key_plan = ProjectionPlan::new(base_schema, Some(keys))?;
                tail = Some(Box::new(GroupByOp::new(key_plan, aggs, base_schema)));
            }
            None => {}
        }

        // --- pack-side projection and framing -------------------------------
        let (packer, in_tuple_bytes, smart_addressing) = if spec.smart_addressing {
            // verify() already rejected projection-less smart addressing;
            // re-surface the same typed error rather than trusting it.
            let Some(cols) = spec.projection.as_deref() else {
                return Err(PipelineError::SmartAddressingConflict("no projection"));
            };
            // The gathered stream is already exactly the projected bytes,
            // in ascending column order.
            let sa = SmartAddressing::plan(base_schema, cols)?;
            (Packer::passthrough(), sa.bytes_per_tuple, Some(sa))
        } else if tail.is_some() {
            // Grouping and join operators emit final-format tuples.
            (Packer::passthrough(), base_schema.row_bytes(), None)
        } else {
            let plan = ProjectionPlan::new(base_schema, spec.projection.as_deref())?;
            (Packer::project(plan), base_schema.row_bytes(), None)
        };

        let decrypt = spec.decrypt_input.as_ref().map(StreamCrypto::new);
        let compress = spec.compress_output.then(StreamCompressor::new);
        let encrypt = spec.encrypt_output.as_ref().map(StreamCrypto::new);

        Ok(CompiledPipeline {
            spec,
            in_tuple_bytes,
            partial: Vec::new(),
            decrypt,
            decrypt_scratch: Vec::new(),
            compress,
            encrypt,
            selections,
            tail,
            packer,
            out_schema,
            smart_addressing,
            sel_scratch: Vec::new(),
            stats: PipelineStats::default(),
            finished: false,
        })
    }

    /// Return to the freshly compiled state, keeping the buffers' and
    /// tables' allocations: the next stream produces the bytes,
    /// [`PipelineStats`] and cycle counts a new compile of the same spec
    /// would. This is how a
    /// dynamic region runs the next query on a loaded pipeline — the
    /// region is reconfigured only when the spec changes.
    pub fn reset(&mut self) {
        self.partial.clear();
        for c in [&mut self.decrypt, &mut self.encrypt].into_iter().flatten() {
            c.reset();
        }
        if let Some(c) = &mut self.compress {
            c.reset();
        }
        for s in &mut self.selections {
            s.reset();
        }
        if let Some(t) = &mut self.tail {
            t.reset();
        }
        self.packer.reset();
        self.stats = PipelineStats::default();
        self.finished = false;
    }

    /// The spec this pipeline was compiled from.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Schema of the tuples the client receives.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Bytes per input tuple expected from the memory stream.
    pub fn in_tuple_bytes(&self) -> usize {
        self.in_tuple_bytes
    }

    /// The most bytes the client can receive for an input stream of
    /// `in_bytes`: each input tuple leaves as at most one output row (a
    /// selection, projection, distinct or group-by never emits more rows
    /// than it reads, overflow rows included, and a join emits one row
    /// per match), compression at worst stores every frame behind its
    /// header, and encryption keeps the length. Only a join whose build
    /// side repeats a key can exceed it.
    pub fn output_bound(&self, in_bytes: usize) -> usize {
        let rows = in_bytes / self.in_tuple_bytes.max(1);
        let packed = rows.saturating_mul(self.out_schema.row_bytes());
        match self.compress {
            Some(_) => crate::compress::max_stream_len(packed),
            None => packed,
        }
    }

    /// Bytes the client uploads alongside the request (a join's build
    /// side riding the FarView verb).
    pub fn upload_bytes(&self) -> u64 {
        self.spec.join.as_ref().map_or(0, |j| j.upload_bytes())
    }

    /// The smart-addressing gather plan, if enabled.
    pub fn smart_addressing(&self) -> Option<&SmartAddressing> {
        self.smart_addressing.as_ref()
    }

    /// Pipeline fill latency in 250 MHz cycles (stages × per-stage fill;
    /// "insignificant latency" per §1, but we charge it).
    pub fn fill_cycles(&self) -> u64 {
        self.spec.stage_count() as u64 * OP_FILL_CYCLES
    }

    /// End-of-stream flush cost in cycles (hash-table drain for group-by;
    /// §5.4: "the queue is used to lookup and flush the entries").
    pub fn flush_cycles(&self) -> u64 {
        self.stats.groups_flushed * GROUP_FLUSH_CYCLES_PER_ENTRY
    }

    /// Stream one chunk of memory bytes through the pipeline.
    ///
    /// Chunks are framed into tuples **in place**: whole tuples are
    /// processed directly out of the (decrypted) chunk slice, and only
    /// the sub-tuple remainder straddling a chunk boundary is buffered —
    /// the scratch buffers (`partial`, the decrypt buffer, the selection
    /// vector) are reused across every chunk of the stream.
    ///
    /// # Panics
    /// Panics if called after [`CompiledPipeline::finish`].
    #[expect(
        clippy::disallowed_macros,
        clippy::indexing_slicing,
        reason = "the documented contract; each slice bound is checked on the line before"
    )]
    pub fn push_bytes(&mut self, chunk: &[u8]) {
        assert!(!self.finished, "pipeline already finished");
        self.stats.bytes_in += chunk.len() as u64;

        // Decrypt-at-memory happens on the raw byte stream, before tuple
        // framing (Figure 4 places decryption first). The buffer is
        // taken out of `self` for the duration so `process_frame` can
        // borrow the pipeline mutably while reading the decrypted bytes.
        let mut scratch = std::mem::take(&mut self.decrypt_scratch);
        let data: &[u8] = match &mut self.decrypt {
            Some(c) => {
                scratch.clear();
                scratch.extend_from_slice(chunk);
                c.apply(&mut scratch);
                &scratch
            }
            None => chunk,
        };

        // Frame into tuples across chunk boundaries: complete the
        // remainder of the previous chunk first, then run the whole
        // tuples of this chunk as one block, straight from the slice.
        let tb = self.in_tuple_bytes;
        let mut rest = data;
        if !self.partial.is_empty() {
            let need = tb - self.partial.len();
            if rest.len() < need {
                self.partial.extend_from_slice(rest);
                self.decrypt_scratch = scratch;
                return;
            }
            self.partial.extend_from_slice(&rest[..need]);
            rest = &rest[need..];

            let head = std::mem::take(&mut self.partial);
            self.process_frame(&head);
            self.partial = head;
            self.partial.clear();
        }
        let whole = rest.len() / tb * tb;
        if whole > 0 {
            self.process_frame(&rest[..whole]);
        }
        self.partial.extend_from_slice(&rest[whole..]);
        self.decrypt_scratch = scratch;
        self.refresh_op_stats();
    }

    /// Run one frame (a whole number of tuples) through the pipeline:
    /// each selection marks its survivors in the selection vector (no
    /// copies, one virtual call per stage per block), then the tail
    /// operator consumes the marked tuples — or, with no tail, the
    /// packer gathers them in a single pass.
    fn process_frame(&mut self, frame: &[u8]) {
        let block = TupleBlock::new(frame, self.in_tuple_bytes);
        self.stats.tuples_in += block.len() as u64;

        let mut sel = std::mem::take(&mut self.sel_scratch);
        sel.clear();
        sel.extend(0..block.len() as u32);
        for selection in &mut self.selections {
            if sel.is_empty() {
                break;
            }
            selection.select_block(&block, &mut sel);
        }

        let before = self.packer.tuples_packed();
        match &mut self.tail {
            None => self.packer.push_block(&block, &sel),
            // A tail is only handed blocks that have survivors.
            Some(tail) if !sel.is_empty() => tail.push_block(&block, &sel, &mut self.packer),
            Some(_) => {}
        }
        self.stats.tuples_out += self.packer.tuples_packed() - before;
        self.sel_scratch = sel;
    }

    /// End of stream: flush the tail operator into the packer.
    ///
    /// # Panics
    /// Panics on a second `finish`, or when the stream ended mid-tuple
    /// (the feeder broke the whole-tuple framing contract).
    #[expect(
        clippy::disallowed_macros,
        reason = "the documented contract: a mid-tuple end would corrupt the output either way"
    )]
    pub fn finish(&mut self) {
        assert!(!self.finished, "pipeline finished twice");
        self.finished = true;
        assert!(
            self.partial.is_empty(),
            "stream ended mid-tuple: {} trailing bytes",
            self.partial.len()
        );
        if let Some(tail) = &mut self.tail {
            let before = self.packer.tuples_packed();
            tail.flush(&mut self.packer);
            self.stats.tuples_out += self.packer.tuples_packed() - before;
        }
        self.refresh_op_stats();
    }

    fn refresh_op_stats(&mut self) {
        if let Some(tail) = &self.tail {
            self.stats.overflow_tuples = tail.overflow_tuples();
            self.stats.hazard_catches = tail.hazard_catches();
            self.stats.groups_flushed = tail.flushed_entries();
        }
    }

    /// Drain the bytes ready for the sender (compressed and/or encrypted
    /// if requested). Call [`CompiledPipeline::finish`] before the final
    /// drain so the compressor can flush its tail frame.
    pub fn drain_output(&mut self) -> Vec<u8> {
        let packed = self.packer.drain();
        let mut out = match &mut self.compress {
            Some(c) => {
                let mut frames = c.push(&packed);
                if self.finished {
                    frames.extend(c.finish());
                }
                frames
            }
            None => packed,
        };
        if let Some(c) = &mut self.encrypt {
            c.apply(&mut out);
        }
        self.stats.bytes_out += out.len() as u64;
        out
    }

    /// [`CompiledPipeline::drain_output`] into a caller-supplied buffer:
    /// on the plain path (no compression or encryption) the packed bytes
    /// append directly and the packer keeps its allocation, so a
    /// steady-state stream never re-allocates per chunk. Returns the
    /// bytes appended.
    pub fn drain_output_into(&mut self, out: &mut Vec<u8>) -> usize {
        if self.compress.is_none() && self.encrypt.is_none() {
            let n = self.packer.drain_into(out);
            self.stats.bytes_out += n as u64;
            return n;
        }
        let v = self.drain_output();
        out.extend_from_slice(&v);
        v.len()
    }

    /// `(raw, compressed)` byte totals of the compression operator, if
    /// one is configured.
    pub fn compression_totals(&self) -> Option<(u64, u64)> {
        self.compress.as_ref().map(StreamCompressor::totals)
    }

    /// Counters.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Blocks the operators processed through their batched fast paths
    /// (a hash operator's block call, the DFA prefilter scan). Outside
    /// [`PipelineStats`] on purpose: it counts how the host did the
    /// work, not what the hardware would report.
    pub fn batched_blocks(&self) -> u64 {
        let selections: u64 = self.selections.iter().map(|s| s.batched_blocks()).sum();
        selections + self.tail.as_ref().map_or(0, |t| t.batched_blocks())
    }

    /// 64-byte words the packer produced (wire framing, §5.5).
    pub fn packed_words(&self) -> u64 {
        self.packer.words_emitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PredicateExpr;
    use fv_data::{Row, TableBuilder, Value};

    fn table(rows: u64) -> fv_data::Table {
        let schema = Schema::uniform_u64(8);
        let mut b = TableBuilder::with_capacity(schema, rows as usize);
        for i in 0..rows {
            b.push(&Row((0..8).map(|c| Value::U64(i * 8 + c)).collect()));
        }
        b.build()
    }

    #[test]
    fn passthrough_is_identity() {
        let t = table(100);
        let mut p = CompiledPipeline::compile(PipelineSpec::passthrough(), t.schema()).unwrap();
        // Feed in odd-sized chunks to exercise framing.
        for chunk in t.bytes().chunks(100) {
            p.push_bytes(chunk);
        }
        p.finish();
        assert_eq!(p.drain_output(), t.bytes());
        let s = p.stats();
        assert_eq!(s.tuples_in, 100);
        assert_eq!(s.tuples_out, 100);
        assert_eq!(s.bytes_in, 6400);
        assert_eq!(s.bytes_out, 6400);
    }

    #[test]
    fn selection_drops_rows() {
        let t = table(100);
        // Keep rows where c0 < 80 (c0 = 8*i, so i < 10).
        let spec = PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 80u64));
        let mut p = CompiledPipeline::compile(spec, t.schema()).unwrap();
        p.push_bytes(t.bytes());
        p.finish();
        let out = p.drain_output();
        assert_eq!(out.len(), 10 * 64);
        assert_eq!(p.stats().tuples_out, 10);
    }

    #[test]
    fn projection_applied_at_pack() {
        let t = table(10);
        let spec = PipelineSpec::passthrough()
            .project(vec![7, 0])
            .filter(PredicateExpr::gt(3, 100u64)); // filter uses col 3, projected out
        let mut p = CompiledPipeline::compile(spec, t.schema()).unwrap();
        assert_eq!(p.out_schema().column_count(), 2);
        p.push_bytes(t.bytes());
        p.finish();
        let out = p.drain_output();
        // c3 = 8i+3 > 100 -> i >= 13 ... none of the 10 rows qualify? i up
        // to 9 -> max c3 = 75. Nothing survives.
        assert!(out.is_empty());

        // Without the filter, 10 rows of 16 bytes, col 7 then col 0.
        let spec = PipelineSpec::passthrough().project(vec![7, 0]);
        let mut p = CompiledPipeline::compile(spec, t.schema()).unwrap();
        p.push_bytes(t.bytes());
        p.finish();
        let out = p.drain_output();
        assert_eq!(out.len(), 160);
        let first = u64::from_le_bytes(out[0..8].try_into().unwrap());
        assert_eq!(first, 7, "row 0 col 7");
    }

    #[test]
    fn fill_and_flush_cycles() {
        let t = table(4);
        let spec = PipelineSpec::passthrough().filter(PredicateExpr::True);
        let p = CompiledPipeline::compile(spec, t.schema()).unwrap();
        assert_eq!(p.fill_cycles(), 3 * OP_FILL_CYCLES);
        assert_eq!(p.flush_cycles(), 0);
    }

    #[test]
    fn smart_addressing_validation() {
        let schema = Schema::uniform_u64(8);
        let err =
            CompiledPipeline::compile(PipelineSpec::passthrough().with_smart_addressing(), &schema)
                .unwrap_err();
        assert!(matches!(err, PipelineError::SmartAddressingConflict(_)));
        let err = CompiledPipeline::compile(
            PipelineSpec::passthrough()
                .project(vec![0])
                .with_smart_addressing()
                .filter(PredicateExpr::True),
            &schema,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::SmartAddressingConflict("selection")
        ));
    }

    #[test]
    fn smart_addressing_frames_gathered_tuples() {
        let t = table(8);
        let spec = PipelineSpec::passthrough()
            .project(vec![1, 2, 3])
            .with_smart_addressing();
        let mut p = CompiledPipeline::compile(spec, t.schema()).unwrap();
        assert_eq!(p.in_tuple_bytes(), 24);
        // Build the gathered stream the MMU would produce.
        let sa = p.smart_addressing().unwrap().clone();
        let mut gathered = Vec::new();
        for r in 0..8 {
            sa.gather(t.bytes(), r * 64, &mut gathered);
        }
        p.push_bytes(&gathered);
        p.finish();
        let out = p.drain_output();
        assert_eq!(out.len(), 8 * 24);
        // Row 5 columns 1..=3 are 41,42,43.
        let v = u64::from_le_bytes(out[5 * 24..5 * 24 + 8].try_into().unwrap());
        assert_eq!(v, 41);
    }

    #[test]
    #[should_panic(expected = "mid-tuple")]
    fn ragged_stream_is_a_bug() {
        let t = table(2);
        let mut p = CompiledPipeline::compile(PipelineSpec::passthrough(), t.schema()).unwrap();
        p.push_bytes(&t.bytes()[..70]);
        p.finish();
    }

    /// A selection followed by a projection — mark, then gather at the
    /// packer — is byte-identical to filtering whole rows and projecting
    /// each survivor afterwards.
    #[test]
    fn fused_filter_project_is_byte_identical() {
        let t = table(64);
        // c0 = 8i < 256 -> first 32 rows survive.
        let spec = PipelineSpec::passthrough()
            .project(vec![7, 0, 3])
            .filter(PredicateExpr::lt(0, 256u64));
        let mut p = CompiledPipeline::compile(spec, t.schema()).unwrap();
        for chunk in t.bytes().chunks(100) {
            p.push_bytes(chunk);
        }
        p.finish();
        let out = p.drain_output();

        let mut filter_only = CompiledPipeline::compile(
            PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 256u64)),
            t.schema(),
        )
        .unwrap();
        filter_only.push_bytes(t.bytes());
        filter_only.finish();
        let survivors = filter_only.drain_output();
        let plan = ProjectionPlan::new(t.schema(), Some(&[7, 0, 3])).unwrap();
        let mut expect = Vec::new();
        for row in survivors.chunks_exact(t.schema().row_bytes()) {
            plan.write_projected(row, &mut expect);
        }

        assert_eq!(out, expect);
        assert_eq!(p.stats().tuples_in, 64);
        assert_eq!(p.stats().tuples_out, 32);
        assert_eq!(p.out_schema().column_count(), 3);
    }

    /// A pattern the regex engine refuses — over the DFA state budget,
    /// or not a pattern at all — is the same `PipelineError::Regex` from
    /// the verifier, the filter's own check and the compile that shares
    /// their automaton; a pattern it accepts passes all three.
    #[test]
    fn regex_spec_compiles_iff_it_verifies() {
        use crate::spec::RegexFilter;
        use fv_data::{Column, ColumnType};
        let schema = Schema::new(vec![
            Column {
                name: "id".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "s".into(),
                ty: ColumnType::Bytes(16),
            },
        ]);
        // 2^14 subset states against a budget of 8192.
        for bad in ["(a|b)*a(a|b){13}", "a(", "[z-a]"] {
            let spec = PipelineSpec::passthrough().regex_match(1, bad);
            let want = PipelineError::Regex(fv_regex::Regex::compile(bad).unwrap_err().to_string());
            assert_eq!(spec.verify(&schema), Err(want.clone()), "{bad}");
            let filter = RegexFilter {
                col: 1,
                pattern: bad.into(),
            };
            assert_eq!(
                filter.compile(&schema).map(drop),
                Err(want.clone()),
                "{bad}"
            );
            assert_eq!(
                CompiledPipeline::compile(spec, &schema).map(|_| ()),
                Err(want),
                "{bad}"
            );
        }
        let good = PipelineSpec::passthrough().regex_match(1, "smartmem[0-9]+");
        assert_eq!(good.verify(&schema), Ok(schema.clone()));
        let compiled = CompiledPipeline::compile(good, &schema).unwrap();
        assert_eq!(compiled.out_schema(), &schema);
    }

    #[test]
    fn grouping_projection_conflict() {
        let schema = Schema::uniform_u64(8);
        let err = CompiledPipeline::compile(
            PipelineSpec::passthrough()
                .project(vec![0])
                .distinct(vec![1]),
            &schema,
        )
        .unwrap_err();
        assert_eq!(err, PipelineError::GroupingProjectionConflict);
    }
}
