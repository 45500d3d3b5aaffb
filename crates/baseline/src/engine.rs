//! The software query engine behind LCPU and RCPU.
//!
//! Functionally this is a straightforward row-at-a-time engine over the
//! same byte images Farview stores — results are comparable
//! row-for-row with the offloaded pipelines (the cross-engine tests
//! depend on it). Timing comes from [`CpuCostModel`], not from host wall
//! time.

use std::collections::HashMap;

use fv_data::{ColumnType, Schema, Table, Value};
use fv_pipeline::{AggFunc, AggSpec, PredicateExpr};
use fv_sim::calib::{
    self, CLIENT_COMPLETE, CLIENT_POST, PACKET_BYTES, RCPU_RPC_OVERHEAD, RNIC_PCIE_PEAK,
    RNIC_PER_PACKET, WIRE_ONE_WAY,
};
use fv_sim::SimDuration;

use crate::cost::{CostBreakdown, CpuCostModel};

/// Which baseline this engine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Local buffer cache + local CPU (§6.1).
    Lcpu,
    /// Remote buffer cache over two-sided RDMA + remote CPU (§6.1).
    Rcpu,
}

/// Result of a baseline query: real bytes plus modelled time.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Result payload (row format of `schema`).
    pub payload: Vec<u8>,
    /// Result schema.
    pub schema: Schema,
    /// Modelled end-to-end time.
    pub time: SimDuration,
    /// Where the time went.
    pub breakdown: CostBreakdown,
}

impl BaselineOutcome {
    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        self.payload.len() / self.schema.row_bytes()
    }
}

/// The baseline engine.
#[derive(Debug, Clone, Copy)]
pub struct CpuEngine {
    kind: BaselineKind,
    model: CpuCostModel,
}

impl CpuEngine {
    /// A single-process engine of the given kind.
    pub fn new(kind: BaselineKind) -> Self {
        CpuEngine {
            kind,
            model: CpuCostModel::default(),
        }
    }

    /// Multi-process variant (Figure 12 uses six MPI processes).
    pub fn with_processes(kind: BaselineKind, processes: usize) -> Self {
        CpuEngine {
            kind,
            model: CpuCostModel::with_processes(processes),
        }
    }

    /// The cost model in use.
    pub fn model(&self) -> &CpuCostModel {
        &self.model
    }

    /// For RCPU, add the two-sided RDMA exchange: request RPC, result
    /// transfer over the commercial NIC, and the receive-side copy.
    fn network_cost(&self, result_bytes: u64) -> SimDuration {
        match self.kind {
            BaselineKind::Lcpu => SimDuration::ZERO,
            BaselineKind::Rcpu => {
                let pkts = result_bytes.div_ceil(PACKET_BYTES).max(1);
                RCPU_RPC_OVERHEAD
                    + (CLIENT_POST + WIRE_ONE_WAY) * 2
                    + RNIC_PER_PACKET * pkts
                    + calib::transfer(result_bytes, RNIC_PCIE_PEAK)
                    + self.model.materialize(result_bytes)
                    + CLIENT_COMPLETE
            }
        }
    }

    fn outcome(
        &self,
        payload: Vec<u8>,
        schema: Schema,
        compute: SimDuration,
        scanned: u64,
    ) -> BaselineOutcome {
        let breakdown = CostBreakdown {
            fixed: self.model.fixed(),
            scan: self.model.scan(scanned),
            compute,
            materialize: self.model.materialize(payload.len() as u64),
            network: self.network_cost(payload.len() as u64),
        };
        BaselineOutcome {
            time: breakdown.total(),
            payload,
            schema,
            breakdown,
        }
    }

    /// `SELECT <projection> FROM t WHERE <pred>`.
    pub fn select(
        &self,
        table: &Table,
        pred: &PredicateExpr,
        projection: Option<&[usize]>,
    ) -> BaselineOutcome {
        let schema = table.schema();
        let cols: Vec<usize> = match projection {
            Some(c) => c.to_vec(),
            None => (0..schema.column_count()).collect(),
        };
        let out_schema = schema.project(&cols);
        let mut payload = Vec::new();
        for row in table.rows() {
            if pred.eval(&row) {
                for &c in &cols {
                    payload.extend_from_slice(row.col_raw(c));
                }
            }
        }
        let compute = self.model.predicates(table.row_count() as u64);
        self.outcome(payload, out_schema, compute, table.byte_len() as u64)
    }

    /// `SELECT DISTINCT <cols> FROM t` — hash-based, first-seen order.
    /// Scans borrowed [`fv_data::RowView`]s (`Table::rows`); only the
    /// first occurrence of a key allocates.
    pub fn distinct(&self, table: &Table, cols: &[usize]) -> BaselineOutcome {
        let schema = table.schema();
        let out_schema = schema.project(cols);
        let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
        let mut payload = Vec::new();
        let mut hits = 0u64;
        let mut key = Vec::new();
        for row in table.rows() {
            key.clear();
            for &c in cols {
                key.extend_from_slice(row.col_raw(c));
            }
            if seen.contains(key.as_slice()) {
                hits += 1;
            } else {
                payload.extend_from_slice(&key);
                seen.insert(std::mem::take(&mut key));
            }
        }
        let inserts = seen.len() as u64;
        let compute = self.model.hashing(inserts, hits);
        self.outcome(payload, out_schema, compute, table.byte_len() as u64)
    }

    /// `SELECT <keys>, <aggs> FROM t GROUP BY <keys>` — hash aggregation
    /// in first-seen order, byte-compatible with the FPGA operator.
    pub fn group_by(&self, table: &Table, keys: &[usize], aggs: &[AggSpec]) -> BaselineOutcome {
        let schema = table.schema();
        let mut out_cols = schema.project(keys).columns().to_vec();
        for a in aggs {
            let func = match a.func {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::SumF64 => "sumf64",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
                AggFunc::Avg => "avg",
            };
            let ty = match (a.func, schema.column(a.col).ty) {
                (AggFunc::Count, _) => ColumnType::U64,
                (AggFunc::Avg | AggFunc::SumF64, _) => ColumnType::F64,
                (_, t) => t,
            };
            out_cols.push(fv_data::Column {
                name: format!("{func}_{}", schema.column(a.col).name),
                ty,
            });
        }
        let out_schema = Schema::new(out_cols);

        // First-seen group order as an index map: keys are stored once
        // (in `entries`), the hash map only holds indices — no per-group
        // double clone, no re-hash when emitting.
        let mut groups: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut entries: Vec<(Vec<u8>, Vec<Acc>)> = Vec::new();
        let mut hits = 0u64;
        let mut key = Vec::new();
        for row in table.rows() {
            key.clear();
            for &c in keys {
                key.extend_from_slice(row.col_raw(c));
            }
            let idx = match groups.get(key.as_slice()) {
                Some(&i) => {
                    hits += 1;
                    i
                }
                None => {
                    let i = entries.len();
                    entries.push((key.clone(), aggs.iter().map(|a| Acc::new(a.func)).collect()));
                    groups.insert(std::mem::take(&mut key), i);
                    i
                }
            };
            for (spec, acc) in aggs.iter().zip(entries[idx].1.iter_mut()) {
                acc.update(&row.value(spec.col));
            }
        }
        let mut payload = Vec::new();
        for (k, accs) in &entries {
            payload.extend_from_slice(k);
            for (spec, acc) in aggs.iter().zip(accs) {
                payload.extend_from_slice(&acc.emit(spec.func, schema.column(spec.col).ty));
            }
        }
        let compute = self.model.hashing(entries.len() as u64, hits);
        self.outcome(payload, out_schema, compute, table.byte_len() as u64)
    }

    /// Inner hash join against a small build table (the CPU version of
    /// the §7 extension): build a hash map, probe row-at-a-time, emit
    /// `probe ++ build-minus-key` rows in probe order.
    pub fn join_small(
        &self,
        table: &Table,
        probe_col: usize,
        build: &Table,
        build_key: usize,
    ) -> BaselineOutcome {
        let probe_schema = table.schema();
        let build_schema = build.schema();
        let key_range = build_schema.column_range(build_key);

        let mut out_cols = probe_schema.columns().to_vec();
        for (i, c) in build_schema.columns().iter().enumerate() {
            if i != build_key {
                out_cols.push(fv_data::Column {
                    name: format!("b_{}", c.name),
                    ty: c.ty,
                });
            }
        }
        let out_schema = Schema::new(out_cols);

        // Build phase.
        let mut map: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
        for row in build.rows() {
            let raw = row.raw();
            let key = raw[key_range.clone()].to_vec();
            let mut payload = Vec::with_capacity(raw.len() - key_range.len());
            payload.extend_from_slice(&raw[..key_range.start]);
            payload.extend_from_slice(&raw[key_range.end..]);
            map.entry(key).or_default().push(payload);
        }
        // Probe phase.
        let probe_range = probe_schema.column_range(probe_col);
        let mut payload = Vec::new();
        for row in table.rows() {
            let raw = row.raw();
            if let Some(matches) = map.get(&raw[probe_range.clone()]) {
                for m in matches {
                    payload.extend_from_slice(raw);
                    payload.extend_from_slice(m);
                }
            }
        }
        let compute = self
            .model
            .hashing(build.row_count() as u64, table.row_count() as u64);
        // The probe scans the big table; the build side is cache-resident.
        self.outcome(
            payload,
            out_schema,
            compute,
            (table.byte_len() + build.byte_len()) as u64,
        )
    }

    /// Regex selection over string column `col` (RE2-equivalent DFA).
    pub fn regex_match(&self, table: &Table, col: usize, pattern: &str) -> BaselineOutcome {
        let re = fv_regex::Regex::compile(pattern).expect("valid pattern");
        let mut payload = Vec::new();
        let mut string_bytes = 0u64;
        for row in table.rows() {
            let field = row.col_raw(col);
            let end = field.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            string_bytes += end as u64;
            if re.is_match(&field[..end]) {
                payload.extend_from_slice(row.raw());
            }
        }
        let compute = self.model.regex(string_bytes);
        self.outcome(
            payload,
            table.schema().clone(),
            compute,
            table.byte_len() as u64,
        )
    }

    /// Read an encrypted table, decrypting in software (Crypto++-like).
    pub fn decrypt_read(&self, table: &Table, key: &[u8; 16], iv: &[u8; 16]) -> BaselineOutcome {
        let mut payload = table.bytes().to_vec();
        fv_crypto::ctr_apply_at(key, iv, 0, &mut payload);
        let compute = self.model.aes(payload.len() as u64);
        self.outcome(
            payload,
            table.schema().clone(),
            compute,
            table.byte_len() as u64,
        )
    }
}

/// Independent aggregate accumulator (deliberately *not* shared with
/// `fv-pipeline` so the two engines cross-validate each other).
#[derive(Debug, Clone)]
enum Acc {
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
    Unset(AggFunc),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::SumF64 => Acc::SumF(0.0),
            other => Acc::Unset(other),
        }
    }

    fn update(&mut self, v: &Value) {
        if let Acc::Unset(func) = *self {
            *self = match (func, v) {
                (AggFunc::Sum, Value::U64(_)) => Acc::SumU(0),
                (AggFunc::Sum, Value::I64(_)) => Acc::SumI(0),
                (AggFunc::Sum, Value::F64(_)) => Acc::SumF(0.0),
                (AggFunc::Min, Value::U64(_)) => Acc::MinU(u64::MAX),
                (AggFunc::Min, Value::I64(_)) => Acc::MinI(i64::MAX),
                (AggFunc::Min, Value::F64(_)) => Acc::MinF(f64::INFINITY),
                (AggFunc::Max, Value::U64(_)) => Acc::MaxU(0),
                (AggFunc::Max, Value::I64(_)) => Acc::MaxI(i64::MIN),
                (AggFunc::Max, Value::F64(_)) => Acc::MaxF(f64::NEG_INFINITY),
                (f, v) => unreachable!("agg {f:?} over {v:?}"),
            };
        }
        match (self, v) {
            (Acc::Count(n), _) => *n += 1,
            (Acc::SumU(s), Value::U64(x)) => *s = s.wrapping_add(*x),
            (Acc::SumI(s), Value::I64(x)) => *s = s.wrapping_add(*x),
            (Acc::SumF(s), Value::F64(x)) => *s += x,
            // SumF64 over integer columns: f64 accumulation like Avg.
            (Acc::SumF(s), Value::U64(x)) => *s += *x as f64,
            (Acc::SumF(s), Value::I64(x)) => *s += *x as f64,
            (Acc::MinU(m), Value::U64(x)) => *m = (*m).min(*x),
            (Acc::MinI(m), Value::I64(x)) => *m = (*m).min(*x),
            (Acc::MinF(m), Value::F64(x)) => *m = m.min(*x),
            (Acc::MaxU(m), Value::U64(x)) => *m = (*m).max(*x),
            (Acc::MaxI(m), Value::I64(x)) => *m = (*m).max(*x),
            (Acc::MaxF(m), Value::F64(x)) => *m = m.max(*x),
            (Acc::Avg { sum, n }, x) => {
                *sum += match x {
                    Value::U64(v) => *v as f64,
                    Value::I64(v) => *v as f64,
                    Value::F64(v) => *v,
                    Value::Bytes(_) => unreachable!("avg over bytes"),
                };
                *n += 1;
            }
            (a, v) => unreachable!("acc {a:?} fed {v:?}"),
        }
    }

    fn emit(&self, _func: AggFunc, _ty: ColumnType) -> [u8; 8] {
        match self {
            Acc::Count(n) => n.to_le_bytes(),
            Acc::SumU(s) => s.to_le_bytes(),
            Acc::SumI(s) => s.to_le_bytes(),
            Acc::SumF(s) => s.to_le_bytes(),
            Acc::MinU(m) => m.to_le_bytes(),
            Acc::MinI(m) => m.to_le_bytes(),
            Acc::MinF(m) => m.to_le_bytes(),
            Acc::MaxU(m) => m.to_le_bytes(),
            Acc::MaxI(m) => m.to_le_bytes(),
            Acc::MaxF(m) => m.to_le_bytes(),
            Acc::Avg { sum, n } => {
                let avg = if *n == 0 { 0.0 } else { sum / *n as f64 };
                avg.to_le_bytes()
            }
            Acc::Unset(_) => 0u64.to_le_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::TableBuilder;

    fn table(rows: u64, groups: u64) -> Table {
        let schema = Schema::uniform_u64(8);
        let mut b = TableBuilder::with_capacity(schema, rows as usize);
        for i in 0..rows {
            b.push_values(
                (0..8)
                    .map(|c| Value::U64(if c == 0 { i % groups } else { i * 8 + c }))
                    .collect(),
            );
        }
        b.build()
    }

    #[test]
    fn lcpu_select_functional_and_timed() {
        let t = table(1000, 1000);
        let e = CpuEngine::new(BaselineKind::Lcpu);
        // c1 = 8i + 1 < 801 -> i < 100.
        let out = e.select(&t, &PredicateExpr::lt(1, 801u64), None);
        assert_eq!(out.row_count(), 100);
        assert!(out.breakdown.network == SimDuration::ZERO);
        assert!(out.time > out.breakdown.compute);
    }

    #[test]
    fn rcpu_adds_network_and_is_slower() {
        let t = table(4096, 4096);
        let scan = |kind| CpuEngine::new(kind).select(&t, &PredicateExpr::True, None);
        let (l, r) = (scan(BaselineKind::Lcpu), scan(BaselineKind::Rcpu));
        assert_eq!(l.payload, r.payload);
        assert!(r.breakdown.network > SimDuration::ZERO);
        assert!(r.time > l.time, "RCPU must be slower than LCPU");
    }

    #[test]
    fn distinct_first_seen_order() {
        let t = table(100, 7);
        let e = CpuEngine::new(BaselineKind::Lcpu);
        let out = e.distinct(&t, &[0]);
        assert_eq!(out.row_count(), 7);
        let first = u64::from_le_bytes(out.payload[..8].try_into().unwrap());
        assert_eq!(first, 0, "first-seen order");
    }

    #[test]
    fn group_by_sums() {
        let schema = Schema::uniform_u64(2);
        let mut b = TableBuilder::new(schema.clone());
        for i in 0..30u64 {
            b.push_values(vec![Value::U64(i % 3), Value::U64(1)]);
        }
        let t = b.build();
        let e = CpuEngine::new(BaselineKind::Lcpu);
        let out = e.group_by(
            &t,
            &[0],
            &[AggSpec {
                col: 1,
                func: AggFunc::Sum,
            }],
        );
        assert_eq!(out.row_count(), 3);
        for chunk in out.payload.chunks_exact(16) {
            assert_eq!(u64::from_le_bytes(chunk[8..16].try_into().unwrap()), 10);
        }
    }

    #[test]
    fn six_processes_slower_than_one() {
        let t = table(8192, 8192);
        let one = CpuEngine::new(BaselineKind::Lcpu).distinct(&t, &[0]);
        let six = CpuEngine::with_processes(BaselineKind::Lcpu, 6).distinct(&t, &[0]);
        assert_eq!(one.payload, six.payload);
        // Hash compute dominates distinct, so contention shows up mostly
        // in the scan/materialize phases; expect a >25 % overall hit.
        assert!(
            six.time.as_nanos() * 4 > one.time.as_nanos() * 5,
            "interference must bite: {} vs {}",
            six.time,
            one.time
        );
    }

    #[test]
    fn join_small_inner_semantics() {
        let schema = Schema::uniform_u64(2);
        let mut b = TableBuilder::new(schema.clone());
        for i in 0..20u64 {
            b.push_values(vec![Value::U64(i % 5), Value::U64(i)]);
        }
        let probe = b.build();
        let mut bb = TableBuilder::new(Schema::uniform_u64(2));
        bb.push_values(vec![Value::U64(1), Value::U64(100)]);
        bb.push_values(vec![Value::U64(3), Value::U64(300)]);
        let build = bb.build();
        let e = CpuEngine::new(BaselineKind::Lcpu);
        let out = e.join_small(&probe, 0, &build, 0);
        // Keys 1 and 3 each appear 4 times in the probe.
        assert_eq!(out.row_count(), 8);
        assert_eq!(out.schema.column_count(), 3);
        assert_eq!(out.schema.column(2).name, "b_c1");
    }

    #[test]
    fn decrypt_read_recovers_plaintext() {
        let t = table(64, 64);
        let key = [1u8; 16];
        let iv = [2u8; 16];
        let mut image = t.bytes().to_vec();
        fv_crypto::ctr_apply_at(&key, &iv, 0, &mut image);
        let enc = Table::from_bytes(t.schema().clone(), image);
        let e = CpuEngine::new(BaselineKind::Lcpu);
        let out = e.decrypt_read(&enc, &key, &iv);
        assert_eq!(out.payload, t.bytes());
        assert!(out.breakdown.compute > SimDuration::ZERO);
    }
}
