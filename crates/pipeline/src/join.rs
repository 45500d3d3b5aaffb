//! Small-table (broadcast) hash join — the paper's named extension.
//!
//! "We also want to explore, as part of a query optimizer, options such
//! as performing joins against small tables in the memory by reading the
//! small table into the FPGA and matching the tuples read from memory
//! against it." (§7)
//!
//! The build side ships with the request and is loaded into on-chip
//! memory (bounded by the BRAM budget); probe tuples stream from
//! disaggregated DRAM at line rate, and matches emit `probe ++ build`
//! rows. Multiple build rows per key are supported (an inner join);
//! like the grouping operators, the hash structure is the Figure 5
//! cuckoo unit, with homeless build entries rejected at load time (a
//! build table that does not fit on chip must not be silently wrong).

use fv_data::{Column, Schema, Table};

use crate::cuckoo::{hash_key, CuckooTable};
use crate::pack::Packer;
use crate::pipeline::{field, PipelineError, TailOperator, TupleBlock};

/// On-chip budget for the build side. A dynamic region's BRAM share is
/// ~8 % of the device (Table 1); 256 KiB of build rows is a conservative
/// stand-in.
pub(crate) const MAX_BUILD_BYTES: usize = 256 * 1024;

/// Declarative description of the join (lives in `PipelineSpec`).
#[derive(Clone, PartialEq)]
pub struct JoinSmallSpec {
    /// Probe-side (base table) key column.
    pub probe_col: usize,
    /// Build-side schema.
    pub build_schema: Schema,
    /// Build-side key column.
    pub build_key: usize,
    /// Encoded build-side rows (row format of `build_schema`).
    pub build_rows: Vec<u8>,
}

impl std::fmt::Debug for JoinSmallSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The build rows can be hundreds of kilobytes; summarize them by
        // content hash so `PipelineSpec::fingerprint` (which hashes the
        // Debug rendering) stays cheap and still distinguishes builds.
        f.debug_struct("JoinSmallSpec")
            .field("probe_col", &self.probe_col)
            .field("build_key", &self.build_key)
            .field("build_schema", &self.build_schema)
            .field("build_rows_len", &self.build_rows.len())
            .field(
                "build_rows_hash",
                &crate::cuckoo::hash64(&self.build_rows, 0x0001_01A0),
            )
            .finish()
    }
}

impl JoinSmallSpec {
    /// Build from an in-memory table.
    pub fn new(probe_col: usize, build: &Table, build_key: usize) -> Self {
        JoinSmallSpec {
            probe_col,
            build_schema: build.schema().clone(),
            build_key,
            build_rows: build.bytes().to_vec(),
        }
    }

    /// Bytes the client must upload with the request.
    pub fn upload_bytes(&self) -> u64 {
        self.build_rows.len() as u64
    }

    /// Statically validate this join against `probe_schema` and compute
    /// the joined output schema — every check [`JoinSmallOp::build`]
    /// performs short of actually placing the build rows on chip (a
    /// pathological key distribution can still overflow the cuckoo unit
    /// at load time even under the byte budget).
    pub fn verify(&self, probe_schema: &Schema) -> Result<Schema, PipelineError> {
        if self.probe_col >= probe_schema.column_count() {
            return Err(PipelineError::UnknownColumn {
                col: self.probe_col,
                arity: probe_schema.column_count(),
            });
        }
        if self.build_key >= self.build_schema.column_count() {
            return Err(PipelineError::UnknownColumn {
                col: self.build_key,
                arity: self.build_schema.column_count(),
            });
        }
        let probe_ty = probe_schema.column(self.probe_col).ty;
        let build_ty = self.build_schema.column(self.build_key).ty;
        if probe_ty != build_ty {
            return Err(PipelineError::JoinKeyTypeMismatch {
                probe: probe_ty,
                build: build_ty,
            });
        }
        if self.build_rows.len() > MAX_BUILD_BYTES {
            return Err(PipelineError::BuildSideTooLarge {
                bytes: self.build_rows.len(),
                limit: MAX_BUILD_BYTES,
            });
        }
        let rb = self.build_schema.row_bytes();
        if rb == 0 || !self.build_rows.len().is_multiple_of(rb) {
            return Err(PipelineError::RaggedBuildSide);
        }

        // Output schema: probe columns, then build columns minus the key,
        // prefixed to dodge name collisions.
        let mut out_cols: Vec<Column> = probe_schema.columns().to_vec();
        for (i, c) in self.build_schema.columns().iter().enumerate() {
            if i != self.build_key {
                out_cols.push(Column {
                    name: format!("b_{}", c.name),
                    ty: c.ty,
                });
            }
        }
        crate::pipeline::schema_from_unique_columns(out_cols)
    }
}

/// Build rows sharing one key: a match count plus the non-key payload
/// bytes packed back to back (fixed stride, known from the build
/// schema). One flat allocation per key keeps the probe hit path to a
/// single pointer chase — the `Vec<Vec<u8>>` shape it replaces cost two.
struct BuildPayloads {
    rows: u32,
    bytes: Vec<u8>,
}

/// The streaming probe operator.
pub struct JoinSmallOp {
    probe_range: std::ops::Range<usize>,
    /// key -> that key's build matches, payloads flattened.
    table: CuckooTable<BuildPayloads>,
    /// Byte width of one build payload (build row minus the key column).
    payload_bytes: usize,
    out_schema: Schema,
    probed: u64,
    emitted: u64,
    batched_blocks: u64,
}

impl std::fmt::Debug for JoinSmallOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinSmallOp")
            .field("probed", &self.probed)
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

impl JoinSmallOp {
    /// Validate and load the build side.
    #[expect(
        clippy::indexing_slicing,
        reason = "`verify` puts the key column inside each `rb`-byte build row"
    )]
    pub fn build(spec: &JoinSmallSpec, probe_schema: &Schema) -> Result<Self, PipelineError> {
        // The static verifier owns every shape check and computes the
        // output schema; all that remains here is the dynamic load.
        let out_schema = spec.verify(probe_schema)?;
        let rb = spec.build_schema.row_bytes();

        // Load the build side into the on-chip hash unit.
        let key_range = spec.build_schema.column_range(spec.build_key);
        let payload_bytes = rb - key_range.len();
        // Size the hash unit from the known build row count instead of
        // allocating the full default geometry for a 64-row build side.
        let mut table: CuckooTable<BuildPayloads> =
            CuckooTable::with_capacity_hint(spec.build_rows.len() / rb);
        for row in spec.build_rows.chunks_exact(rb) {
            let key = &row[key_range.clone()];
            if let Some(matches) = table.get_mut(key) {
                matches.rows += 1;
                matches.bytes.extend_from_slice(&row[..key_range.start]);
                matches.bytes.extend_from_slice(&row[key_range.end..]);
            } else {
                let mut bytes = Vec::with_capacity(payload_bytes);
                bytes.extend_from_slice(&row[..key_range.start]);
                bytes.extend_from_slice(&row[key_range.end..]);
                let entry = BuildPayloads { rows: 1, bytes };
                if table.insert_key_hashed(hash_key(key), key, entry).is_err() {
                    // The build side must fit; a homeless entry would
                    // silently drop join matches.
                    return Err(PipelineError::BuildSideTooLarge {
                        bytes: spec.build_rows.len(),
                        limit: MAX_BUILD_BYTES,
                    });
                }
            }
        }

        Ok(JoinSmallOp {
            probe_range: probe_schema.column_range(spec.probe_col),
            table,
            payload_bytes,
            out_schema,
            probed: 0,
            emitted: 0,
            batched_blocks: 0,
        })
    }

    /// Schema of the joined output tuples.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// `(probed, emitted)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.probed, self.emitted)
    }
}

impl JoinSmallOp {
    /// Probe with each `(tuple, key)` in order, matches going straight
    /// into the packer as `probe ++ payload` halves — one copy, no
    /// intermediate row buffer. Fact tables are routinely clustered on
    /// the dimension key they join through, so consecutive probe keys
    /// repeat in runs: the walk hashes and probes once per run and
    /// reuses the lookup while the key bytes repeat (nothing mutates the
    /// build table mid-stream).
    fn probe<'t>(
        &mut self,
        probes: impl Iterator<Item = (&'t [u8], &'t [u8])>,
        packer: &mut Packer,
    ) {
        let pb = self.payload_bytes;
        let mut emitted = 0u64;
        let mut prev: Option<(&[u8], Option<&BuildPayloads>)> = None;
        for (tuple, key) in probes {
            let hit = match prev {
                Some((prev_key, m)) if prev_key == key => m,
                _ => {
                    let m = self.table.get_hashed(hash_key(key), key);
                    prev = Some((key, m));
                    m
                }
            };
            let Some(matches) = hit else { continue };
            emitted += u64::from(matches.rows);
            if matches.rows == 1 {
                // Unique build key — the overwhelmingly common case.
                packer.push_split_tuple(tuple, &matches.bytes);
            } else if pb == 0 {
                // Key-only build schema: every payload is empty.
                for _ in 0..matches.rows {
                    packer.push_split_tuple(tuple, &[]);
                }
            } else {
                for payload in matches.bytes.chunks_exact(pb) {
                    packer.push_split_tuple(tuple, payload);
                }
            }
        }
        self.emitted += emitted;
    }
}

impl TailOperator for JoinSmallOp {
    fn push_block(&mut self, block: &TupleBlock<'_>, sel: &[u32], packer: &mut Packer) {
        // Size the pack buffer for the block's every-probe-matches-once
        // case up front (a hint — build-side fan-out can exceed it):
        // per-match pushes then extend into reserved space instead of
        // regrowing the buffer match by match.
        packer.reserve(sel.len() * self.out_schema.row_bytes());
        self.batched_blocks += 1;
        self.probed += sel.len() as u64;
        let tuples = sel.iter().map(|&i| block.tuple(i));
        let at = self.probe_range.start;
        match self.probe_range.len() {
            // A scalar key, as every join of the paper's schema has:
            // with the width a constant, hashing and comparing it are
            // straight-line code.
            8 => self.probe(tuples.map(|t| (t, field(t, at, 8))), packer),
            kw => self.probe(tuples.map(|t| (t, field(t, at, kw))), packer),
        }
    }

    fn batched_blocks(&self) -> u64 {
        self.batched_blocks
    }

    /// The build side is what the spec compiled in: it stays loaded.
    fn reset(&mut self) {
        self.probed = 0;
        self.emitted = 0;
        self.batched_blocks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::{ColumnType, Row, TableBuilder, Value};

    fn build_table(rows: &[(u64, u64)]) -> Table {
        let schema = Schema::new(vec![
            Column {
                name: "id".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "dim".into(),
                ty: ColumnType::U64,
            },
        ]);
        let mut b = TableBuilder::new(schema);
        for &(id, dim) in rows {
            b.push_values(vec![Value::U64(id), Value::U64(dim)]);
        }
        b.build()
    }

    fn probe_schema() -> Schema {
        Schema::uniform_u64(3)
    }

    /// Probe with one row; the joined rows it emits.
    fn push(op: &mut JoinSmallOp, schema: &Schema, vals: [u64; 3]) -> Vec<Vec<u8>> {
        let bytes = Row(vals.iter().map(|&v| Value::U64(v)).collect()).encode(schema);
        let width = op.out_schema().row_bytes();
        crate::pipeline::push_row(op, &bytes)
            .chunks_exact(width)
            .map(<[u8]>::to_vec)
            .collect()
    }

    #[test]
    fn inner_join_matches_and_drops() {
        let build = build_table(&[(1, 100), (2, 200)]);
        let spec = JoinSmallSpec::new(0, &build, 0);
        let schema = probe_schema();
        let mut op = JoinSmallOp::build(&spec, &schema).unwrap();
        assert_eq!(op.out_schema().column_count(), 4);
        assert_eq!(op.out_schema().column(3).name, "b_dim");

        let hit = push(&mut op, &schema, [1, 10, 11]);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].len(), 32);
        assert_eq!(u64::from_le_bytes(hit[0][24..32].try_into().unwrap()), 100);

        let miss = push(&mut op, &schema, [9, 10, 11]);
        assert!(miss.is_empty());
        assert_eq!(op.counters(), (2, 1));
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let build = build_table(&[(5, 1), (5, 2), (5, 3)]);
        let spec = JoinSmallSpec::new(2, &build, 0);
        let schema = probe_schema();
        let mut op = JoinSmallOp::build(&spec, &schema).unwrap();
        let out = push(&mut op, &schema, [0, 0, 5]);
        assert_eq!(out.len(), 3, "one output row per build match");
        let dims: Vec<u64> = out
            .iter()
            .map(|r| u64::from_le_bytes(r[24..32].try_into().unwrap()))
            .collect();
        assert_eq!(dims, vec![1, 2, 3]);
    }

    #[test]
    fn validation_errors() {
        let build = build_table(&[(1, 2)]);
        let schema = probe_schema();
        assert!(matches!(
            JoinSmallOp::build(&JoinSmallSpec::new(9, &build, 0), &schema),
            Err(PipelineError::UnknownColumn { col: 9, .. })
        ));
        assert!(matches!(
            JoinSmallOp::build(&JoinSmallSpec::new(0, &build, 7), &schema),
            Err(PipelineError::UnknownColumn { col: 7, .. })
        ));
        // Type mismatch: build key is Bytes.
        let sschema = Schema::new(vec![Column {
            name: "s".into(),
            ty: ColumnType::Bytes(8),
        }]);
        let mut b = TableBuilder::new(sschema);
        b.push_values(vec![Value::Bytes(b"k".to_vec())]);
        let sbuild = b.build();
        assert!(matches!(
            JoinSmallOp::build(&JoinSmallSpec::new(0, &sbuild, 0), &schema),
            Err(PipelineError::JoinKeyTypeMismatch { .. })
        ));
    }

    #[test]
    fn oversized_build_rejected() {
        let schema = probe_schema();
        let rows: Vec<(u64, u64)> = (0..(MAX_BUILD_BYTES as u64 / 16 + 1))
            .map(|i| (i, i))
            .collect();
        let build = build_table(&rows);
        assert!(matches!(
            JoinSmallOp::build(&JoinSmallSpec::new(0, &build, 0), &schema),
            Err(PipelineError::BuildSideTooLarge { .. })
        ));
    }

    #[test]
    fn empty_build_side_joins_nothing() {
        let build = build_table(&[]);
        let spec = JoinSmallSpec::new(0, &build, 0);
        let schema = probe_schema();
        let mut op = JoinSmallOp::build(&spec, &schema).unwrap();
        assert!(push(&mut op, &schema, [1, 2, 3]).is_empty());
    }
}
