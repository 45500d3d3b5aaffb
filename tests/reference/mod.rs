//! The per-tuple reference route — test-only.
//!
//! The paper's pipeline takes "up to a single tuple in each cycle"
//! (§5.1); this is that execution model written down literally: every
//! operator sees one tuple at a time and hands survivors to the next
//! through a closure, and DISTINCT / GROUP BY / the small-table join are
//! the §5.4 / §7 state machines as the text describes them (two table
//! probes, a contains-then-touch LRU, `Value`-typed aggregates, a row
//! buffer per join match). The library ships only the block route;
//! `tests/vectorized_props.rs` checks it against this one byte for byte
//! and counter for counter. Nothing here calls `push_block` or
//! `select_block`: it is built from the public parts both routes share
//! (cuckoo table, projection plan, packer's per-tuple entry, codecs) so
//! a bug in a block path cannot hide in its own oracle. The LRU shift
//! register is not shared: the oracle keeps its own timestamped one
//! ([`ShiftRegisterLru`]), compared by key bytes, against the library's
//! move-to-front register of hashes.

use std::collections::VecDeque;

use fv_data::{ColumnType, RowView, Schema, Value};
use fv_pipeline::compress::StreamCompressor;
use fv_pipeline::crypto_op::StreamCrypto;
use fv_pipeline::cuckoo::CuckooTable;
use fv_pipeline::distinct::{DEFAULT_LRU_DEPTH, WRITE_LATENCY};
use fv_pipeline::pack::Packer;
use fv_pipeline::project::{ProjectionPlan, SmartAddressing};
use fv_pipeline::{AggFunc, AggSpec, GroupingSpec, JoinSmallSpec, PipelineSpec, PipelineStats};
use fv_regex::Regex;

/// A streaming tuple operator: one tuple in per call, any number out
/// (via the sink), state flushed at end of stream.
pub trait ScalarOp {
    /// Process one tuple.
    fn push(&mut self, tuple: &[u8], out: &mut dyn FnMut(&[u8]));
    /// End of stream: emit any held state (group-by results).
    fn flush(&mut self, _out: &mut dyn FnMut(&[u8])) {}
    fn overflow_tuples(&self) -> u64 {
        0
    }
    fn hazard_catches(&self) -> u64 {
        0
    }
    fn flushed_entries(&self) -> u64 {
        0
    }
}

/// Feed one tuple through `ops[0..]`, delivering survivors to `sink`.
fn feed(ops: &mut [Box<dyn ScalarOp>], tuple: &[u8], sink: &mut dyn FnMut(&[u8])) {
    match ops.split_first_mut() {
        None => sink(tuple),
        Some((head, rest)) => head.push(tuple, &mut |t| feed(rest, t, sink)),
    }
}

/// Flush each stage in order, feeding its output through the rest.
fn flush_all(ops: &mut [Box<dyn ScalarOp>], sink: &mut dyn FnMut(&[u8])) {
    for i in 0..ops.len() {
        let (before, after) = ops.split_at_mut(i + 1);
        let head = before.last_mut().expect("i < len");
        head.flush(&mut |t| feed(after, t, sink));
    }
}

/// A selection: the tuple passes on unmodified iff the test holds.
struct Select<F>(F);

impl<F: FnMut(&[u8]) -> bool> ScalarOp for Select<F> {
    fn push(&mut self, tuple: &[u8], out: &mut dyn FnMut(&[u8])) {
        if (self.0)(tuple) {
            out(tuple);
        }
    }
}

/// The LRU cache "implemented with a shift register" (§5.4) as the
/// oracle keeps it: a window of the last `depth` keys with true LRU
/// replacement. A touch stamps the key's slot with a monotonic clock,
/// and a key shifting into a full window overwrites the minimum stamp —
/// the key a shift register would expel. Depth 0 holds nothing (the
/// hazard the cache exists to close is then exposed).
pub struct ShiftRegisterLru {
    depth: usize,
    clock: u64,
    /// Last-touch stamp per slot, parallel to `keys`.
    stamps: Vec<u64>,
    keys: Vec<Box<[u8]>>,
}

impl ShiftRegisterLru {
    pub fn new(depth: usize) -> Self {
        ShiftRegisterLru {
            depth,
            clock: 0,
            stamps: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Is `key` in the window?
    pub fn contains(&self, key: &[u8]) -> bool {
        self.keys.iter().any(|k| k.as_ref() == key)
    }

    /// Stamp `key` most recent, shifting it in when absent; in a full
    /// window the least recently touched key falls out.
    pub fn touch(&mut self, key: &[u8]) {
        if self.depth == 0 {
            return;
        }
        self.clock += 1;
        if let Some(i) = self.keys.iter().position(|k| k.as_ref() == key) {
            self.stamps[i] = self.clock;
        } else if self.keys.len() < self.depth {
            self.keys.push(key.into());
            self.stamps.push(self.clock);
        } else if let Some(oldest) = (0..self.depth).min_by_key(|&i| self.stamps[i]) {
            self.keys[oldest] = key.into();
            self.stamps[oldest] = self.clock;
        }
    }
}

/// The §5.4 DISTINCT state machine, one tuple per call.
pub struct ScalarDistinct {
    keys: ProjectionPlan,
    table: CuckooTable<()>,
    lru: ShiftRegisterLru,
    /// Inserts not yet visible to table lookups: `(key, commit_tick)`.
    in_flight: VecDeque<(Box<[u8]>, u64)>,
    /// Tuples processed (the write-pipeline clock).
    tick: u64,
    key_buf: Vec<u8>,
    pub emitted: u64,
    pub overflow: u64,
    pub hazard_catches: u64,
    pub hazard_leaks: u64,
}

impl ScalarDistinct {
    pub fn new(keys: ProjectionPlan, table: CuckooTable<()>, lru_depth: usize) -> Self {
        ScalarDistinct {
            keys,
            table,
            lru: ShiftRegisterLru::new(lru_depth),
            in_flight: VecDeque::with_capacity(WRITE_LATENCY),
            tick: 0,
            key_buf: Vec::new(),
            emitted: 0,
            overflow: 0,
            hazard_catches: 0,
            hazard_leaks: 0,
        }
    }

    /// Advance the write pipeline by one tuple: inserts whose commit tick
    /// has passed become visible (the entry is already physically in the
    /// table; it merely leaves the "invisible" window).
    fn tick_write_pipeline(&mut self) {
        self.tick += 1;
        while matches!(self.in_flight.front(), Some((_, commit)) if *commit <= self.tick) {
            self.in_flight.pop_front();
        }
    }

    fn visible_in_table(&self, key: &[u8]) -> bool {
        self.table.contains(key) && !self.in_flight.iter().any(|(k, _)| k.as_ref() == key)
    }
}

impl ScalarOp for ScalarDistinct {
    fn push(&mut self, tuple: &[u8], out: &mut dyn FnMut(&[u8])) {
        self.key_buf.clear();
        self.keys.write_projected(tuple, &mut self.key_buf);

        self.tick_write_pipeline();

        // LRU first — it exists to catch what the table can't see yet.
        if self.lru.contains(&self.key_buf) {
            self.hazard_catches += 1;
            self.lru.touch(&self.key_buf);
            return;
        }
        if self.visible_in_table(&self.key_buf) {
            // Ordinary duplicate.
            self.lru.touch(&self.key_buf);
            return;
        }
        let key: Box<[u8]> = self.key_buf.as_slice().into();
        if self.table.contains(&key) {
            // In the table but still inside the invisible window and not
            // caught by the LRU: the §5.4 data hazard. The hardware would
            // emit a duplicate here; so do we, and we count it.
            self.hazard_leaks += 1;
            self.emitted += 1;
            out(&self.key_buf);
            return;
        }
        // Genuinely new key: insert (entering the hazard window) and emit.
        match self.table.insert(key.clone(), ()) {
            Ok(()) => {
                self.in_flight
                    .push_back((key.clone(), self.tick + WRITE_LATENCY as u64));
            }
            Err(_homeless) => {
                // Cuckoo overflow: this key has no table slot. The tuple
                // still goes to the client (as overflow) and later
                // duplicates of it will also be emitted for software
                // dedup.
                self.overflow += 1;
            }
        }
        self.lru.touch(&key);
        self.emitted += 1;
        out(&self.key_buf);
    }

    fn overflow_tuples(&self) -> u64 {
        self.overflow
    }

    fn hazard_catches(&self) -> u64 {
        self.hazard_catches
    }
}

/// One aggregate accumulator over decoded [`Value`]s.
#[derive(Debug, Clone)]
pub enum Agg {
    Count(u64),
    SumU(u64),
    SumI(i64),
    SumF(f64),
    MinU(u64),
    MinI(i64),
    MinF(f64),
    MaxU(u64),
    MaxI(i64),
    MaxF(f64),
    Avg { sum: f64, n: u64 },
}

impl Agg {
    fn new(func: AggFunc, ty: ColumnType) -> Agg {
        match (func, ty) {
            (AggFunc::Count, _) => Agg::Count(0),
            (AggFunc::Sum, ColumnType::U64) => Agg::SumU(0),
            (AggFunc::Sum, ColumnType::I64) => Agg::SumI(0),
            (AggFunc::Sum, ColumnType::F64) => Agg::SumF(0.0),
            (AggFunc::SumF64, ColumnType::U64 | ColumnType::I64 | ColumnType::F64) => {
                Agg::SumF(0.0)
            }
            (AggFunc::Min, ColumnType::U64) => Agg::MinU(u64::MAX),
            (AggFunc::Min, ColumnType::I64) => Agg::MinI(i64::MAX),
            (AggFunc::Min, ColumnType::F64) => Agg::MinF(f64::INFINITY),
            (AggFunc::Max, ColumnType::U64) => Agg::MaxU(0),
            (AggFunc::Max, ColumnType::I64) => Agg::MaxI(i64::MIN),
            (AggFunc::Max, ColumnType::F64) => Agg::MaxF(f64::NEG_INFINITY),
            (AggFunc::Avg, _) => Agg::Avg { sum: 0.0, n: 0 },
            (f, t) => unreachable!("agg {f:?} over {t:?} rejected at compile"),
        }
    }

    fn update(&mut self, value: &Value) {
        match (self, value) {
            (Agg::Count(n), _) => *n += 1,
            (Agg::SumU(s), Value::U64(v)) => *s = s.wrapping_add(*v),
            (Agg::SumI(s), Value::I64(v)) => *s = s.wrapping_add(*v),
            (Agg::SumF(s), Value::F64(v)) => *s += v,
            // SumF64 over integer columns: same f64 accumulation as Avg.
            (Agg::SumF(s), Value::U64(v)) => *s += *v as f64,
            (Agg::SumF(s), Value::I64(v)) => *s += *v as f64,
            (Agg::MinU(m), Value::U64(v)) => *m = (*m).min(*v),
            (Agg::MinI(m), Value::I64(v)) => *m = (*m).min(*v),
            (Agg::MinF(m), Value::F64(v)) => *m = m.min(*v),
            (Agg::MaxU(m), Value::U64(v)) => *m = (*m).max(*v),
            (Agg::MaxI(m), Value::I64(v)) => *m = (*m).max(*v),
            (Agg::MaxF(m), Value::F64(v)) => *m = m.max(*v),
            (Agg::Avg { sum, n }, v) => {
                *sum += match v {
                    Value::U64(x) => *x as f64,
                    Value::I64(x) => *x as f64,
                    Value::F64(x) => *x,
                    Value::Bytes(_) => unreachable!("avg over bytes rejected at compile"),
                };
                *n += 1;
            }
            (s, v) => unreachable!("agg state {s:?} fed value {v:?}"),
        }
    }

    /// 8-byte little-endian emission.
    fn emit(&self) -> [u8; 8] {
        match self {
            Agg::Count(v) | Agg::SumU(v) | Agg::MinU(v) | Agg::MaxU(v) => v.to_le_bytes(),
            Agg::SumI(v) | Agg::MinI(v) | Agg::MaxI(v) => v.to_le_bytes(),
            Agg::SumF(v) | Agg::MinF(v) | Agg::MaxF(v) => v.to_le_bytes(),
            Agg::Avg { sum, n } => {
                let avg = if *n == 0 { 0.0 } else { sum / *n as f64 };
                avg.to_le_bytes()
            }
        }
    }
}

/// The §5.4 GROUP BY state machine, one tuple per call.
pub struct ScalarGroupBy {
    keys: ProjectionPlan,
    aggs: Vec<AggSpec>,
    base_schema: Schema,
    template: Vec<Agg>,
    table: CuckooTable<Vec<Agg>>,
    /// Insertion-ordered key queue — "it inserts the distinct entries
    /// into a separate queue" (§5.4) — so flush order is deterministic.
    queue: Vec<Box<[u8]>>,
    key_buf: Vec<u8>,
    overflow: u64,
    flushed: u64,
}

impl ScalarGroupBy {
    pub fn new(
        keys: ProjectionPlan,
        aggs: Vec<AggSpec>,
        base_schema: Schema,
        table: CuckooTable<Vec<Agg>>,
    ) -> Self {
        let template: Vec<Agg> = aggs
            .iter()
            .map(|a| Agg::new(a.func, base_schema.column(a.col).ty))
            .collect();
        ScalarGroupBy {
            keys,
            aggs,
            base_schema,
            template,
            table,
            queue: Vec::new(),
            key_buf: Vec::new(),
            overflow: 0,
            flushed: 0,
        }
    }
}

impl ScalarOp for ScalarGroupBy {
    fn push(&mut self, tuple: &[u8], out: &mut dyn FnMut(&[u8])) {
        self.key_buf.clear();
        self.keys.write_projected(tuple, &mut self.key_buf);
        let row = RowView::new(&self.base_schema, tuple);

        if let Some(states) = self.table.get_mut(&self.key_buf) {
            for (a, st) in self.aggs.iter().zip(states.iter_mut()) {
                st.update(&row.value(a.col));
            }
            return;
        }
        // New group.
        let mut states = self.template.clone();
        for (a, st) in self.aggs.iter().zip(states.iter_mut()) {
            st.update(&row.value(a.col));
        }
        let key: Box<[u8]> = self.key_buf.as_slice().into();
        match self.table.insert(key.clone(), states) {
            Ok(()) => self.queue.push(key),
            Err((hkey, hstates)) => {
                // A cuckoo eviction chain left some entry homeless — not
                // necessarily the one just inserted. Its partial
                // aggregates are shipped to the client immediately, in
                // the same `key ++ aggregates` format as the final flush,
                // for software merging (§5.4's overflow buffer).
                self.overflow += 1;
                if hkey != key {
                    // The new key took a slot; the displaced old one must
                    // leave the flush queue (its state left the table).
                    self.queue.push(key);
                    if let Some(pos) = self.queue.iter().position(|k| *k == hkey) {
                        self.queue.remove(pos);
                    }
                }
                let mut row_buf = hkey.to_vec();
                for st in &hstates {
                    row_buf.extend_from_slice(&st.emit());
                }
                out(&row_buf);
            }
        }
    }

    fn flush(&mut self, out: &mut dyn FnMut(&[u8])) {
        let mut row_buf = Vec::new();
        for key in &self.queue {
            // A queued key's entry can have been displaced to overflow by
            // later cuckoo kicks; guard rather than unwrap.
            if let Some(states) = self.table.get(key) {
                row_buf.clear();
                row_buf.extend_from_slice(key);
                for st in states {
                    row_buf.extend_from_slice(&st.emit());
                }
                self.flushed += 1;
                out(&row_buf);
            }
        }
    }

    fn overflow_tuples(&self) -> u64 {
        self.overflow
    }

    fn flushed_entries(&self) -> u64 {
        self.flushed
    }
}

/// The §7 small-table join probe, one tuple per call: look the key up,
/// concatenate `probe ++ payload` in a row buffer per match.
struct ScalarJoin {
    probe_range: std::ops::Range<usize>,
    /// key -> the non-key payload bytes of every build row with that key,
    /// in build order.
    table: CuckooTable<Vec<Vec<u8>>>,
    row_buf: Vec<u8>,
}

impl ScalarJoin {
    fn build(spec: &JoinSmallSpec, probe_schema: &Schema) -> Self {
        let rb = spec.build_schema.row_bytes();
        let key_range = spec.build_schema.column_range(spec.build_key);
        let mut table: CuckooTable<Vec<Vec<u8>>> =
            CuckooTable::with_capacity_hint(spec.build_rows.len() / rb);
        for row in spec.build_rows.chunks_exact(rb) {
            let key = &row[key_range.clone()];
            let payload = [&row[..key_range.start], &row[key_range.end..]].concat();
            match table.get_mut(key) {
                Some(matches) => matches.push(payload),
                None => assert!(
                    table.insert(key.into(), vec![payload]).is_ok(),
                    "build side must fit on chip"
                ),
            }
        }
        ScalarJoin {
            probe_range: probe_schema.column_range(spec.probe_col),
            table,
            row_buf: Vec::new(),
        }
    }
}

impl ScalarOp for ScalarJoin {
    fn push(&mut self, tuple: &[u8], out: &mut dyn FnMut(&[u8])) {
        let key = &tuple[self.probe_range.clone()];
        if let Some(matches) = self.table.get(key) {
            for payload in matches {
                self.row_buf.clear();
                self.row_buf.extend_from_slice(tuple);
                self.row_buf.extend_from_slice(payload);
                out(&self.row_buf);
            }
        }
    }
}

/// What [`fv_pipeline::CompiledPipeline`] is, on the per-tuple route:
/// same framing, same codec stages, same counters; every frame walked
/// one tuple at a time through the closure chain.
pub struct ScalarPipeline {
    in_tuple_bytes: usize,
    partial: Vec<u8>,
    decrypt: Option<StreamCrypto>,
    compress: Option<StreamCompressor>,
    encrypt: Option<StreamCrypto>,
    ops: Vec<Box<dyn ScalarOp>>,
    packer: Packer,
    stats: PipelineStats,
    finished: bool,
}

impl ScalarPipeline {
    /// Build the per-tuple pipeline for a spec that verifies.
    pub fn compile(spec: &PipelineSpec, base_schema: &Schema) -> Self {
        let mut ops: Vec<Box<dyn ScalarOp>> = Vec::new();
        if let Some(pred) = spec.selection.clone() {
            // The interpreted expression over a materialized row view.
            let schema = base_schema.clone();
            ops.push(Box::new(Select(move |t: &[u8]| {
                pred.eval(&RowView::new(&schema, t))
            })));
        }
        if let Some(rf) = &spec.regex {
            // Strip the zero padding byte by byte, run the whole
            // automaton (no prefilter).
            let re = Regex::compile(&rf.pattern).expect("pattern compiles");
            let range = base_schema.column_range(rf.col);
            ops.push(Box::new(Select(move |t: &[u8]| {
                let field = &t[range.clone()];
                let end = field.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                re.is_match(&field[..end])
            })));
        }
        if let Some(join) = &spec.join {
            ops.push(Box::new(ScalarJoin::build(join, base_schema)));
        }
        match &spec.grouping {
            Some(GroupingSpec::Distinct { cols }) => {
                let plan = ProjectionPlan::new(base_schema, Some(cols)).expect("key plan");
                ops.push(Box::new(ScalarDistinct::new(
                    plan,
                    CuckooTable::with_default_geometry(),
                    DEFAULT_LRU_DEPTH,
                )));
            }
            Some(GroupingSpec::GroupBy { keys, aggs }) => {
                let plan = ProjectionPlan::new(base_schema, Some(keys)).expect("key plan");
                ops.push(Box::new(ScalarGroupBy::new(
                    plan,
                    aggs.clone(),
                    base_schema.clone(),
                    CuckooTable::with_default_geometry(),
                )));
            }
            None => {}
        }

        let (packer, in_tuple_bytes) = if spec.smart_addressing {
            let cols = spec.projection.as_deref().expect("verified");
            let sa = SmartAddressing::plan(base_schema, cols).expect("verified");
            (Packer::passthrough(), sa.bytes_per_tuple)
        } else if spec.grouping.is_some() || spec.join.is_some() {
            (Packer::passthrough(), base_schema.row_bytes())
        } else {
            let plan =
                ProjectionPlan::new(base_schema, spec.projection.as_deref()).expect("verified");
            (Packer::project(plan), base_schema.row_bytes())
        };

        ScalarPipeline {
            in_tuple_bytes,
            partial: Vec::new(),
            decrypt: spec.decrypt_input.as_ref().map(StreamCrypto::new),
            compress: spec.compress_output.then(StreamCompressor::new),
            encrypt: spec.encrypt_output.as_ref().map(StreamCrypto::new),
            ops,
            packer,
            stats: PipelineStats::default(),
            finished: false,
        }
    }

    /// Stream one chunk of memory bytes: decrypt, frame across chunk
    /// boundaries, feed every whole tuple.
    pub fn push_bytes(&mut self, chunk: &[u8]) {
        self.stats.bytes_in += chunk.len() as u64;
        let mut data = chunk.to_vec();
        if let Some(c) = &mut self.decrypt {
            c.apply(&mut data);
        }
        self.partial.extend_from_slice(&data);
        let whole = self.partial.len() / self.in_tuple_bytes * self.in_tuple_bytes;
        let frame: Vec<u8> = self.partial.drain(..whole).collect();
        let packer = &mut self.packer;
        let stats = &mut self.stats;
        for tuple in frame.chunks_exact(self.in_tuple_bytes) {
            stats.tuples_in += 1;
            feed(&mut self.ops, tuple, &mut |t| {
                stats.tuples_out += 1;
                packer.push_tuple(t);
            });
        }
    }

    /// End of stream: flush the grouping operators into the packer.
    pub fn finish(&mut self) {
        assert!(self.partial.is_empty(), "stream ended mid-tuple");
        self.finished = true;
        let packer = &mut self.packer;
        let stats = &mut self.stats;
        flush_all(&mut self.ops, &mut |t| {
            stats.tuples_out += 1;
            packer.push_tuple(t);
        });
    }

    /// Drain the bytes ready for the sender (compressed and/or encrypted
    /// if requested).
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

    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            overflow_tuples: self.ops.iter().map(|o| o.overflow_tuples()).sum(),
            hazard_catches: self.ops.iter().map(|o| o.hazard_catches()).sum(),
            groups_flushed: self.ops.iter().map(|o| o.flushed_entries()).sum(),
            ..self.stats
        }
    }
}
