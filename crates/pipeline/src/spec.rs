//! Pipeline specifications — the precompiled "hardware design" an
//! operator pipeline is built from.
//!
//! "An operator pipeline's combination of operators is precompiled into a
//! hardware design that is dynamically loaded into the FPGA at runtime,
//! upon a request from a client" (§3.2). A [`PipelineSpec`] is that
//! design's description; `CompiledPipeline::compile` is the load.

use fv_data::{Column, ColumnType, Schema};

use crate::join::JoinSmallSpec;
use crate::pipeline::{schema_from_unique_columns, PipelineError};
use crate::predicate::PredicateExpr;
use crate::project::{ProjectionPlan, SmartAddressing};

/// Aggregation functions ("Farview supports a range of standard
/// aggregation operators like count, min, max, sum and average", §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` (the column index is ignored).
    Count,
    /// `SUM(col)`.
    Sum,
    /// `SUM(col)` accumulated in `f64` regardless of the column type
    /// (emitted as an 8-byte float). Not part of the paper's §5.4
    /// operator list: this is the *partial* form `AVG` fans out as in a
    /// fleet — an integer `SUM` partial would wrap at 2⁶⁴ where the
    /// single-node `AVG` accumulator (an `f64` sum) does not.
    SumF64,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)` (emitted as an 8-byte float).
    Avg,
}

/// One aggregation: a function over a base-table column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    /// Base-table column the aggregate reads.
    pub col: usize,
    /// The function.
    pub func: AggFunc,
}

/// Grouping operators (§5.4).
#[derive(Debug, Clone, PartialEq)]
pub enum GroupingSpec {
    /// `SELECT DISTINCT <cols>`: emit each distinct key once (plus
    /// overflow duplicates for the client to dedup).
    Distinct {
        /// Key columns.
        cols: Vec<usize>,
    },
    /// `SELECT <keys>, <aggs> GROUP BY <keys>`: consume the whole table,
    /// then flush `key ++ aggregates` rows.
    GroupBy {
        /// Grouping key columns.
        keys: Vec<usize>,
        /// Aggregates to compute per group.
        aggs: Vec<AggSpec>,
    },
}

impl GroupingSpec {
    /// Statically validate this grouping against `base_schema` and
    /// compute its output schema — the exact checks compilation performs
    /// and the exact schema the operator emits (key columns followed by
    /// one `{func}_{column}` column per aggregate).
    pub fn verify(&self, base_schema: &Schema) -> Result<Schema, PipelineError> {
        match self {
            GroupingSpec::Distinct { cols } => {
                if cols.is_empty() {
                    return Err(PipelineError::EmptyDistinct);
                }
                Ok(ProjectionPlan::new(base_schema, Some(cols))?
                    .out_schema()
                    .clone())
            }
            GroupingSpec::GroupBy { keys, aggs } => group_by_schema(
                &ProjectionPlan::new(base_schema, Some(keys))?,
                aggs,
                base_schema,
            ),
        }
    }
}

/// Check `aggs` against `base_schema` and build the output schema of a
/// `GROUP BY` whose keys `key_plan` projects — the one home of these
/// rules, shared by compilation and the fleet's
/// [`PartialAggPlan`](crate::PartialAggPlan), so a shard set refuses a
/// grouping exactly as a single node does.
pub(crate) fn group_by_schema(
    key_plan: &ProjectionPlan,
    aggs: &[AggSpec],
    base_schema: &Schema,
) -> Result<Schema, PipelineError> {
    for a in aggs {
        if a.col >= base_schema.column_count() {
            return Err(PipelineError::UnknownColumn {
                col: a.col,
                arity: base_schema.column_count(),
            });
        }
        if matches!(base_schema.column(a.col).ty, ColumnType::Bytes(_)) && a.func != AggFunc::Count
        {
            return Err(PipelineError::AggOnBytes { col: a.col });
        }
    }
    let mut out_cols: Vec<Column> = key_plan.out_schema().columns().to_vec();
    for a in aggs {
        let func = match a.func {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::SumF64 => "sumf64",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        };
        out_cols.push(Column {
            name: format!("{func}_{}", base_schema.column(a.col).name),
            ty: crate::group_by::agg_out_type(a.func, base_schema.column(a.col).ty),
        });
    }
    // A repeated aggregate (or an agg name shadowing a key column) would
    // duplicate an output name.
    schema_from_unique_columns(out_cols)
}

/// Regex selection: keep tuples whose string column matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexFilter {
    /// The `Bytes(n)` column to match.
    pub col: usize,
    /// Pattern (compiled by `fv-regex`).
    pub pattern: String,
}

impl RegexFilter {
    /// Check this filter against `schema` — the column must exist and
    /// hold byte strings, and the pattern must compile — and return the
    /// automaton the last check built: the only way to know a pattern
    /// compiles is to compile it, so the check hands it on.
    pub(crate) fn compile(&self, schema: &Schema) -> Result<fv_regex::Regex, PipelineError> {
        if self.col >= schema.column_count() {
            return Err(PipelineError::UnknownColumn {
                col: self.col,
                arity: schema.column_count(),
            });
        }
        if !matches!(schema.column(self.col).ty, ColumnType::Bytes(_)) {
            return Err(PipelineError::RegexOnNonString { col: self.col });
        }
        fv_regex::Regex::compile(&self.pattern).map_err(|e| PipelineError::Regex(e.to_string()))
    }
}

/// AES-128-CTR key material for the de/encryption operators (§5.5).
#[derive(Clone, PartialEq, Eq)]
pub struct CryptoSpec {
    /// 128-bit key.
    pub key: [u8; 16],
    /// Initial counter block.
    pub iv: [u8; 16],
}

impl std::fmt::Debug for CryptoSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("CryptoSpec {{ .. }}")
    }
}

/// Declarative description of one operator pipeline.
///
/// Stage order is fixed by the hardware (Figure 4): decrypt →
/// parse/annotate (projection flags) → selection → regex → grouping →
/// pack (apply projection) → encrypt → send.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineSpec {
    /// Columns to return, in order (`None` keeps all columns). Applied at
    /// the packing stage — earlier operators see the full annotated tuple
    /// (§5.2: annotations carry the flags through the pipeline).
    pub projection: Option<Vec<usize>>,
    /// Read only the projected columns from memory instead of streaming
    /// whole rows (§5.2 "smart addressing"). Requires `projection`, and
    /// every other operator may only touch projected columns.
    pub smart_addressing: bool,
    /// Predicate selection (§5.3).
    pub selection: Option<PredicateExpr>,
    /// Regular-expression selection (§5.3).
    pub regex: Option<RegexFilter>,
    /// Distinct / group-by / aggregation (§5.4).
    pub grouping: Option<GroupingSpec>,
    /// Small-table broadcast join (§7 extension): the build side ships
    /// with the request and is matched against the probe stream.
    pub join: Option<JoinSmallSpec>,
    /// Decrypt data read from memory (data-at-rest encryption, §5.5).
    pub decrypt_input: Option<CryptoSpec>,
    /// Compress the packed result stream before transmission (§5.5's
    /// named compression system-support operator). The client
    /// decompresses with `fv_pipeline::compress::decompress`.
    pub compress_output: bool,
    /// Encrypt the result before transmission (§5.5). Applied *after*
    /// compression (ciphertext does not compress).
    pub encrypt_output: Option<CryptoSpec>,
    /// Vectorized execution: one selection lane per memory channel
    /// (§5.3 "Vectorization"). Timing-only — results are identical.
    pub vectorize: bool,
}

impl PipelineSpec {
    /// A pipeline that just streams the table back (a plain RDMA read
    /// through the operator stack).
    pub fn passthrough() -> Self {
        PipelineSpec::default()
    }

    /// Keep only `cols`, in order.
    pub fn project(mut self, cols: Vec<usize>) -> Self {
        self.projection = Some(cols);
        self
    }

    /// Enable smart addressing (requires a projection).
    pub fn with_smart_addressing(mut self) -> Self {
        self.smart_addressing = true;
        self
    }

    /// Add a selection predicate.
    pub fn filter(mut self, pred: PredicateExpr) -> Self {
        self.selection = Some(match self.selection.take() {
            None => pred,
            Some(existing) => existing.and(pred),
        });
        self
    }

    /// Add a regex selection on a string column.
    pub fn regex_match(mut self, col: usize, pattern: impl Into<String>) -> Self {
        self.regex = Some(RegexFilter {
            col,
            pattern: pattern.into(),
        });
        self
    }

    /// `SELECT DISTINCT <cols>`.
    pub fn distinct(mut self, cols: Vec<usize>) -> Self {
        self.grouping = Some(GroupingSpec::Distinct { cols });
        self
    }

    /// `GROUP BY <keys>` with the given aggregates.
    pub fn group_by(mut self, keys: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        self.grouping = Some(GroupingSpec::GroupBy { keys, aggs });
        self
    }

    /// Join the probe stream against a small build table held on chip
    /// (§7: "performing joins against small tables in the memory").
    pub fn join_small(mut self, join: JoinSmallSpec) -> Self {
        self.join = Some(join);
        self
    }

    /// Decrypt table bytes as they leave memory.
    pub fn decrypt(mut self, spec: CryptoSpec) -> Self {
        self.decrypt_input = Some(spec);
        self
    }

    /// Encrypt the result stream before sending.
    pub fn encrypt(mut self, spec: CryptoSpec) -> Self {
        self.encrypt_output = Some(spec);
        self
    }

    /// Compress the result stream before sending.
    pub fn compress(mut self) -> Self {
        self.compress_output = true;
        self
    }

    /// Enable vectorized selection lanes.
    pub fn vectorized(mut self) -> Self {
        self.vectorize = true;
        self
    }

    /// Statically verify this spec against `base_schema`, returning the
    /// schema of the tuples the client will receive.
    ///
    /// The one home of every conflict, column-bounds, type and
    /// output-name rule, and of the output schema itself:
    /// `CompiledPipeline::compile` runs this first and keeps the schema
    /// it returns, so a spec compiles against a schema **iff** it
    /// verifies, with one dynamic exception (a join build side can still
    /// fail cuckoo placement at load time even under the byte budget).
    /// `QueryPlan::verify` reaches it through that compile.
    pub fn verify(&self, base_schema: &Schema) -> Result<Schema, PipelineError> {
        self.verify_compiling(base_schema).map(|(schema, _)| schema)
    }

    /// [`PipelineSpec::verify`], also returning the regex automaton the
    /// check had to build — `CompiledPipeline::compile` puts it to work
    /// instead of compiling the pattern a second time.
    pub(crate) fn verify_compiling(
        &self,
        base_schema: &Schema,
    ) -> Result<(Schema, Option<fv_regex::Regex>), PipelineError> {
        // Structural conflicts: combinations the hardware has no layout
        // for, checked before any per-column work.
        if self.smart_addressing {
            if self.projection.is_none() {
                return Err(PipelineError::SmartAddressingConflict("no projection"));
            }
            if self.selection.is_some() {
                return Err(PipelineError::SmartAddressingConflict("selection"));
            }
            if self.regex.is_some() {
                return Err(PipelineError::SmartAddressingConflict("regex"));
            }
            if self.grouping.is_some() {
                return Err(PipelineError::SmartAddressingConflict("grouping"));
            }
            if self.join.is_some() {
                return Err(PipelineError::SmartAddressingConflict("join"));
            }
        }
        if self.grouping.is_some() && self.projection.is_some() {
            return Err(PipelineError::GroupingProjectionConflict);
        }
        if self.join.is_some() {
            if self.grouping.is_some() {
                return Err(PipelineError::JoinConflict("grouping"));
            }
            if self.projection.is_some() {
                return Err(PipelineError::JoinConflict("projection"));
            }
        }

        // Per-stage column bounds, types, and output-schema flow, in
        // physical pipeline order.
        if let Some(pred) = &self.selection {
            pred.validate(base_schema)?;
        }
        let regex = self
            .regex
            .as_ref()
            .map(|rf| rf.compile(base_schema))
            .transpose()?;
        let mut out_schema = base_schema.clone();
        if let Some(join) = &self.join {
            out_schema = join.verify(base_schema)?;
        }
        if let Some(g) = &self.grouping {
            out_schema = g.verify(base_schema)?;
        }
        if let Some(cols) = self.projection.as_deref() {
            if self.smart_addressing {
                // The gathered stream carries the projected bytes in
                // ascending column order, deduplicated.
                SmartAddressing::plan(base_schema, cols)?;
                let mut sorted = cols.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                out_schema = base_schema.project(&sorted);
            } else {
                // Grouping/join conflicts are already rejected, so the
                // projection applies to the base schema at the pack
                // stage.
                out_schema = ProjectionPlan::new(base_schema, Some(cols))?
                    .out_schema()
                    .clone();
            }
        }
        Ok((out_schema, regex))
    }

    /// Number of operator stages this spec instantiates (for the resource
    /// model and fill-latency costing).
    pub fn stage_count(&self) -> usize {
        // Parse/annotate and pack/send always exist.
        2 + usize::from(self.decrypt_input.is_some())
            + usize::from(self.selection.is_some())
            + usize::from(self.regex.is_some())
            + usize::from(self.join.is_some())
            + usize::from(self.grouping.is_some())
            + usize::from(self.compress_output)
            + usize::from(self.encrypt_output.is_some())
    }

    /// A stable fingerprint of the precompiled design, carried in the
    /// FarView verb's parameter words so the target can verify the loaded
    /// region matches the request (§4.3: parameters signal "how to access
    /// and process the data").
    ///
    /// Covers **every** field of the spec through a structured
    /// tag-length-value encoding — including the crypto key material
    /// (whose `Debug` rendering is deliberately redacted), the join
    /// build image, the regex pattern and the `vectorize` /
    /// `smart_addressing` / `compress_output` flag bits — so two designs
    /// that differ anywhere are never treated as the same loaded region.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::with_capacity(128);
        match &self.projection {
            None => buf.push(0),
            Some(cols) => {
                buf.push(1);
                fp_cols(&mut buf, cols);
            }
        }
        buf.push(u8::from(self.smart_addressing));
        match &self.selection {
            None => buf.push(0),
            Some(p) => {
                buf.push(1);
                fp_pred(&mut buf, p);
            }
        }
        match &self.regex {
            None => buf.push(0),
            Some(r) => {
                buf.push(1);
                fp_u64(&mut buf, r.col as u64);
                fp_bytes(&mut buf, r.pattern.as_bytes());
            }
        }
        match &self.grouping {
            None => buf.push(0),
            Some(GroupingSpec::Distinct { cols }) => {
                buf.push(1);
                fp_cols(&mut buf, cols);
            }
            Some(GroupingSpec::GroupBy { keys, aggs }) => {
                buf.push(2);
                fp_cols(&mut buf, keys);
                fp_u64(&mut buf, aggs.len() as u64);
                for a in aggs {
                    fp_u64(&mut buf, a.col as u64);
                    buf.push(fp_agg_func(a.func));
                }
            }
        }
        match &self.join {
            None => buf.push(0),
            Some(j) => {
                buf.push(1);
                fp_u64(&mut buf, j.probe_col as u64);
                fp_u64(&mut buf, j.build_key as u64);
                fp_schema(&mut buf, &j.build_schema);
                // The build image can be hundreds of kilobytes; a content
                // hash plus length distinguishes builds without copying.
                fp_u64(&mut buf, j.build_rows.len() as u64);
                fp_u64(&mut buf, crate::cuckoo::hash64(&j.build_rows, 0x0001_01A0));
            }
        }
        fp_crypto(&mut buf, self.decrypt_input.as_ref());
        buf.push(u8::from(self.compress_output));
        fp_crypto(&mut buf, self.encrypt_output.as_ref());
        buf.push(u8::from(self.vectorize));
        crate::cuckoo::hash64(&buf, 0xFA27_1E77)
    }
}

// --- fingerprint encoding helpers -----------------------------------------
// Every value is written with an unambiguous prefix (tag and/or length)
// so no two distinct specs can serialize to the same byte string.

fn fp_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn fp_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    fp_u64(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

fn fp_cols(buf: &mut Vec<u8>, cols: &[usize]) {
    fp_u64(buf, cols.len() as u64);
    for &c in cols {
        fp_u64(buf, c as u64);
    }
}

fn fp_agg_func(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::SumF64 => 2,
        AggFunc::Min => 3,
        AggFunc::Max => 4,
        AggFunc::Avg => 5,
    }
}

fn fp_value(buf: &mut Vec<u8>, v: &fv_data::Value) {
    use fv_data::Value;
    match v {
        Value::U64(x) => {
            buf.push(0);
            fp_u64(buf, *x);
        }
        Value::I64(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Bytes(b) => {
            buf.push(3);
            fp_bytes(buf, b);
        }
    }
}

fn fp_pred(buf: &mut Vec<u8>, p: &PredicateExpr) {
    use crate::predicate::CmpOp;
    match p {
        PredicateExpr::True => buf.push(0),
        PredicateExpr::Cmp { col, op, value } => {
            buf.push(1);
            fp_u64(buf, *col as u64);
            buf.push(match op {
                CmpOp::Lt => 0,
                CmpOp::Le => 1,
                CmpOp::Gt => 2,
                CmpOp::Ge => 3,
                CmpOp::Eq => 4,
                CmpOp::Ne => 5,
            });
            fp_value(buf, value);
        }
        PredicateExpr::And(xs) => {
            buf.push(2);
            fp_u64(buf, xs.len() as u64);
            xs.iter().for_each(|x| fp_pred(buf, x));
        }
        PredicateExpr::Or(xs) => {
            buf.push(3);
            fp_u64(buf, xs.len() as u64);
            xs.iter().for_each(|x| fp_pred(buf, x));
        }
        PredicateExpr::Not(x) => {
            buf.push(4);
            fp_pred(buf, x);
        }
    }
}

fn fp_schema(buf: &mut Vec<u8>, schema: &fv_data::Schema) {
    use fv_data::ColumnType;
    fp_u64(buf, schema.column_count() as u64);
    for c in schema.columns() {
        match c.ty {
            ColumnType::U64 => buf.push(0),
            ColumnType::I64 => buf.push(1),
            ColumnType::F64 => buf.push(2),
            ColumnType::Bytes(n) => {
                buf.push(3);
                fp_u64(buf, n as u64);
            }
        }
        fp_bytes(buf, c.name.as_bytes());
    }
}

fn fp_crypto(buf: &mut Vec<u8>, c: Option<&CryptoSpec>) {
    match c {
        None => buf.push(0),
        Some(c) => {
            buf.push(1);
            buf.extend_from_slice(&c.key);
            buf.extend_from_slice(&c.iv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::predicate::PredicateExpr;

    #[test]
    fn builder_composes() {
        let spec = PipelineSpec::passthrough()
            .project(vec![0, 2])
            .filter(PredicateExpr::lt(0, 100u64))
            .filter(PredicateExpr::gt(1, 5u64))
            .vectorized();
        assert_eq!(spec.projection, Some(vec![0, 2]));
        assert!(spec.vectorize);
        // Two filters merge into one AND.
        match spec.selection.as_ref().unwrap() {
            PredicateExpr::And(xs) => assert_eq!(xs.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
        assert_eq!(spec.stage_count(), 3);
    }

    #[test]
    fn stage_count_counts_everything() {
        let spec = PipelineSpec::passthrough()
            .decrypt(CryptoSpec {
                key: [0; 16],
                iv: [0; 16],
            })
            .filter(PredicateExpr::True)
            .regex_match(1, "a+")
            .distinct(vec![0])
            .encrypt(CryptoSpec {
                key: [0; 16],
                iv: [0; 16],
            });
        assert_eq!(spec.stage_count(), 7);
    }

    #[test]
    fn fingerprint_distinguishes_specs() {
        let a = PipelineSpec::passthrough().project(vec![0]);
        let b = PipelineSpec::passthrough().project(vec![1]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    /// Regression for the fingerprint audit: two specs differing in any
    /// *single* field — including the fields whose `Debug` rendering is
    /// redacted (crypto key material) or summarized (join build rows) —
    /// must fingerprint differently.
    #[test]
    fn fingerprint_covers_every_field() {
        use fv_data::{Table, TableBuilder, Value};

        let key = CryptoSpec {
            key: [0xAA; 16],
            iv: [0xBB; 16],
        };
        let key_other = CryptoSpec {
            key: [0xAC; 16],
            iv: [0xBB; 16],
        };
        let iv_other = CryptoSpec {
            key: [0xAA; 16],
            iv: [0xBD; 16],
        };
        let build = |vals: &[u64]| -> Table {
            let mut b = TableBuilder::new(fv_data::Schema::uniform_u64(2));
            for &v in vals {
                b.push_values(vec![Value::U64(v), Value::U64(v + 1)]);
            }
            b.build()
        };
        let join = |t: &Table| JoinSmallSpec::new(0, t, 0);

        // Each variant differs from its predecessor-of-kind in exactly
        // one field; all must be pairwise distinct.
        let variants: Vec<(&str, PipelineSpec)> = vec![
            ("passthrough", PipelineSpec::passthrough()),
            ("project", PipelineSpec::passthrough().project(vec![0, 1])),
            (
                "project-order",
                PipelineSpec::passthrough().project(vec![1, 0]),
            ),
            (
                "smart-addressing",
                PipelineSpec::passthrough()
                    .project(vec![0, 1])
                    .with_smart_addressing(),
            ),
            (
                "filter",
                PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 10u64)),
            ),
            (
                "filter-value",
                PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 11u64)),
            ),
            (
                "filter-op",
                PipelineSpec::passthrough().filter(PredicateExpr::gt(0, 10u64)),
            ),
            (
                "filter-col",
                PipelineSpec::passthrough().filter(PredicateExpr::lt(1, 10u64)),
            ),
            ("regex", PipelineSpec::passthrough().regex_match(1, "a+")),
            (
                "regex-pattern",
                PipelineSpec::passthrough().regex_match(1, "a*"),
            ),
            (
                "regex-col",
                PipelineSpec::passthrough().regex_match(2, "a+"),
            ),
            ("distinct", PipelineSpec::passthrough().distinct(vec![0])),
            (
                "distinct-cols",
                PipelineSpec::passthrough().distinct(vec![0, 1]),
            ),
            (
                "group-by",
                PipelineSpec::passthrough().group_by(
                    vec![0],
                    vec![AggSpec {
                        col: 1,
                        func: AggFunc::Sum,
                    }],
                ),
            ),
            (
                "group-by-func",
                PipelineSpec::passthrough().group_by(
                    vec![0],
                    vec![AggSpec {
                        col: 1,
                        func: AggFunc::Avg,
                    }],
                ),
            ),
            (
                "group-by-agg-col",
                PipelineSpec::passthrough().group_by(
                    vec![0],
                    vec![AggSpec {
                        col: 2,
                        func: AggFunc::Sum,
                    }],
                ),
            ),
            (
                "join",
                PipelineSpec::passthrough().join_small(join(&build(&[1, 2]))),
            ),
            (
                "join-build-rows",
                PipelineSpec::passthrough().join_small(join(&build(&[1, 3]))),
            ),
            ("decrypt", PipelineSpec::passthrough().decrypt(key.clone())),
            (
                "decrypt-key",
                PipelineSpec::passthrough().decrypt(key_other.clone()),
            ),
            (
                "decrypt-iv",
                PipelineSpec::passthrough().decrypt(iv_other.clone()),
            ),
            ("encrypt", PipelineSpec::passthrough().encrypt(key.clone())),
            (
                "encrypt-key",
                PipelineSpec::passthrough().encrypt(key_other),
            ),
            ("encrypt-iv", PipelineSpec::passthrough().encrypt(iv_other)),
            ("compress", PipelineSpec::passthrough().compress()),
            ("vectorized", PipelineSpec::passthrough().vectorized()),
        ];

        for (i, (name_a, a)) in variants.iter().enumerate() {
            assert_eq!(
                a.fingerprint(),
                a.clone().fingerprint(),
                "{name_a} must fingerprint deterministically"
            );
            for (name_b, b) in &variants[i + 1..] {
                assert_ne!(
                    a.fingerprint(),
                    b.fingerprint(),
                    "{name_a} and {name_b} must fingerprint differently"
                );
            }
        }
    }

    #[test]
    fn crypto_spec_debug_hides_key() {
        let c = CryptoSpec {
            key: [0xAA; 16],
            iv: [0xBB; 16],
        };
        let s = format!("{c:?}");
        assert!(!s.contains("170"), "key bytes leaked: {s}");
        assert!(!s.contains("aa"), "key bytes leaked: {s}");
    }
}
