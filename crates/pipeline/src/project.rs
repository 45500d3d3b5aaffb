//! Projection plans and smart addressing (§5.2).
//!
//! Standard projection parses whole rows off the memory stream and drops
//! the unrequested columns at the packing stage (the tuples flow through
//! the pipeline annotated with projection flags). Smart addressing
//! instead "issues multiple more specific data requests to memory" so
//! only the requested columns are ever read — a win once rows are wide
//! and the projected fraction small (Figure 7 explores the crossover).

use fv_data::Schema;

use crate::pipeline::{field, PipelineError};

/// A validated projection: which base columns to keep, in which order.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionPlan {
    cols: Vec<usize>,
    out_schema: Schema,
    /// Byte ranges of the kept columns inside an input row.
    ranges: Vec<std::ops::Range<usize>>,
    out_row_bytes: usize,
    /// The projected bytes are the whole input row, in order.
    identity: bool,
    /// Every kept column is exactly 8 bytes wide — the dominant layout
    /// (all scalar types) — letting the gather copy fixed-size words
    /// instead of variable-length slices.
    all_word_cols: bool,
}

impl ProjectionPlan {
    /// Validate `cols` against `schema` and build the plan. `None` keeps
    /// every column.
    pub fn new(schema: &Schema, cols: Option<&[usize]>) -> Result<Self, PipelineError> {
        let cols: Vec<usize> = match cols {
            None => (0..schema.column_count()).collect(),
            Some(c) => {
                if c.is_empty() {
                    return Err(PipelineError::EmptyProjection);
                }
                for (i, &idx) in c.iter().enumerate() {
                    if idx >= schema.column_count() {
                        return Err(PipelineError::UnknownColumn {
                            col: idx,
                            arity: schema.column_count(),
                        });
                    }
                    // A repeated index would duplicate an output column
                    // name, which `Schema::new` rejects by panicking.
                    if c.iter().take(i).any(|&prev| prev == idx) {
                        return Err(PipelineError::DuplicateOutputColumn {
                            name: schema.column(idx).name.clone(),
                        });
                    }
                }
                c.to_vec()
            }
        };
        let out_schema = schema.project(&cols);
        let ranges: Vec<_> = cols.iter().map(|&c| schema.column_range(c)).collect();
        let out_row_bytes = out_schema.row_bytes();
        let all_word_cols = ranges.iter().all(|r| r.len() == 8);
        let identity = contiguous(&ranges) == Some(0..schema.row_bytes());
        Ok(ProjectionPlan {
            cols,
            out_schema,
            ranges,
            out_row_bytes,
            identity,
            all_word_cols,
        })
    }

    /// The projected column indices.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Output tuple schema.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Output tuple width.
    pub fn out_row_bytes(&self) -> usize {
        self.out_row_bytes
    }

    /// Append the projected columns of `tuple` to `out`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "ranges are compiled from the tuple's schema; word columns are 8 bytes"
    )]
    pub fn write_projected(&self, tuple: &[u8], out: &mut Vec<u8>) {
        if self.all_word_cols {
            // All-scalar projections copy constant-size words, which the
            // compiler lowers to direct moves instead of memcpy calls.
            for r in &self.ranges {
                let word: [u8; 8] = tuple[r.start..r.start + 8].try_into().expect("word column");
                out.extend_from_slice(&word);
            }
        } else {
            for r in &self.ranges {
                out.extend_from_slice(&tuple[r.clone()]);
            }
        }
    }

    /// Gather the projected columns of every tuple `tuples` yields onto
    /// the end of `out` — the block form of
    /// [`ProjectionPlan::write_projected`]. The output is sized once and
    /// filled a column at a time, so the field offsets are constants of
    /// the inner loop; a word column is a fixed 8-byte load and store
    /// per tuple, never a `memcpy` call.
    pub fn gather_into<'t>(
        &self,
        tuples: impl ExactSizeIterator<Item = &'t [u8]> + Clone,
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.resize(start + tuples.len() * self.out_row_bytes, 0);
        let dst = out.split_at_mut(start).1;
        if self.all_word_cols {
            let (words, _) = dst.as_chunks_mut::<8>();
            let width = self.ranges.len();
            for (k, r) in self.ranges.iter().enumerate() {
                for (row, tuple) in words.chunks_exact_mut(width).zip(tuples.clone()) {
                    let cell = field(tuple, r.start, 8).first_chunk::<8>();
                    if let (Some(word), Some(cell)) = (row.get_mut(k), cell) {
                        *word = *cell;
                    }
                }
            }
        } else {
            let mut at = 0;
            for r in &self.ranges {
                for (row, tuple) in dst.chunks_exact_mut(self.out_row_bytes).zip(tuples.clone()) {
                    row.split_at_mut(at)
                        .1
                        .split_at_mut(r.len())
                        .0
                        .copy_from_slice(field(tuple, r.start, r.len()));
                }
                at += r.len();
            }
        }
    }

    /// Is `col` part of the projection?
    pub fn keeps(&self, col: usize) -> bool {
        self.cols.contains(&col)
    }

    /// When the projected columns form one contiguous ascending byte
    /// range of the input row (a single column, or adjacent columns in
    /// schema order), that range — the projected bytes can then be
    /// sliced straight out of the tuple instead of gathered into a
    /// scratch buffer.
    pub fn contiguous_range(&self) -> Option<std::ops::Range<usize>> {
        contiguous(&self.ranges)
    }

    /// True when the projected bytes are the *whole* input row, in
    /// order: every column, ascending. A prefix (`[0, 1]` of eight
    /// columns) is contiguous from offset 0 and is **not** identity.
    pub fn is_identity(&self) -> bool {
        self.identity
    }
}

/// The one range `ranges` cover when each starts where the one before
/// it ended.
fn contiguous(ranges: &[std::ops::Range<usize>]) -> Option<std::ops::Range<usize>> {
    let first = ranges.first()?;
    let mut end = first.start;
    for r in ranges {
        if r.start != end {
            return None;
        }
        end = r.end;
    }
    Some(first.start..end)
}

/// The memory-access side of smart addressing: per-tuple read segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmartAddressing {
    /// Coalesced `(offset, len)` segments inside each row, ascending.
    pub segments: Vec<(usize, usize)>,
    /// Bytes read per tuple (sum of segment lengths).
    pub bytes_per_tuple: usize,
    /// Full row width (the stride between tuples).
    pub row_bytes: usize,
}

impl SmartAddressing {
    /// Plan the per-tuple read segments for projecting `cols` out of
    /// `schema`. Adjacent projected columns coalesce into one request —
    /// the paper's Figure 7 experiment projects "three contiguous 8-byte
    /// columns", i.e. a single 24-byte request per row.
    pub fn plan(schema: &Schema, cols: &[usize]) -> Result<Self, PipelineError> {
        if cols.is_empty() {
            return Err(PipelineError::EmptyProjection);
        }
        let mut sorted = cols.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut segments: Vec<(usize, usize)> = Vec::new();
        for &c in &sorted {
            if c >= schema.column_count() {
                return Err(PipelineError::UnknownColumn {
                    col: c,
                    arity: schema.column_count(),
                });
            }
            let r = schema.column_range(c);
            match segments.last_mut() {
                Some((off, len)) if *off + *len == r.start => *len += r.len(),
                _ => segments.push((r.start, r.len())),
            }
        }
        let bytes_per_tuple = segments.iter().map(|(_, l)| *l).sum();
        Ok(SmartAddressing {
            segments,
            bytes_per_tuple,
            row_bytes: schema.row_bytes(),
        })
    }

    /// Extract this plan's bytes for the row starting at `row_off` in a
    /// table image, appending to `out`. This is what the MMU-side gather
    /// produces for the pipeline.
    #[expect(clippy::indexing_slicing, reason = "segments lie inside one whole row")]
    pub fn gather(&self, table: &[u8], row_off: usize, out: &mut Vec<u8>) {
        for &(off, len) in &self.segments {
            out.extend_from_slice(&table[row_off + off..row_off + off + len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_plan_basics() {
        let schema = Schema::uniform_u64(8);
        let p = ProjectionPlan::new(&schema, Some(&[2, 0])).unwrap();
        assert_eq!(p.out_row_bytes(), 16);
        let tuple: Vec<u8> = (0..64).collect();
        let mut out = Vec::new();
        p.write_projected(&tuple, &mut out);
        assert_eq!(&out[..8], &tuple[16..24], "column 2 first");
        assert_eq!(&out[8..], &tuple[0..8], "column 0 second");
        assert!(p.keeps(0) && p.keeps(2) && !p.keeps(1));
    }

    #[test]
    fn keep_all_when_none() {
        let schema = Schema::uniform_u64(4);
        let p = ProjectionPlan::new(&schema, None).unwrap();
        assert_eq!(p.cols(), &[0, 1, 2, 3]);
        assert_eq!(p.out_row_bytes(), 32);
    }

    #[test]
    fn projection_errors() {
        let schema = Schema::uniform_u64(2);
        assert!(matches!(
            ProjectionPlan::new(&schema, Some(&[5])),
            Err(PipelineError::UnknownColumn { col: 5, .. })
        ));
        assert!(matches!(
            ProjectionPlan::new(&schema, Some(&[])),
            Err(PipelineError::EmptyProjection)
        ));
    }

    #[test]
    fn smart_addressing_coalesces_contiguous_columns() {
        // Figure 7: three contiguous 8-byte columns from a 512-byte row.
        let schema = Schema::uniform_u64(64); // 512 B rows
        let sa = SmartAddressing::plan(&schema, &[10, 11, 12]).unwrap();
        assert_eq!(sa.segments.len(), 1, "contiguous cols coalesce");
        assert_eq!(sa.bytes_per_tuple, 24);
        assert_eq!(sa.segments, vec![(80, 24)]);
        assert_eq!(sa.row_bytes, 512);
    }

    #[test]
    fn smart_addressing_splits_gaps() {
        let schema = Schema::uniform_u64(8);
        let sa = SmartAddressing::plan(&schema, &[0, 2, 3, 7]).unwrap();
        assert_eq!(sa.segments, vec![(0, 8), (16, 16), (56, 8)]);
        assert_eq!(sa.segments.len(), 3);
        assert_eq!(sa.bytes_per_tuple, 32);
    }

    #[test]
    fn gather_extracts_row_slice() {
        let schema = Schema::uniform_u64(4);
        let sa = SmartAddressing::plan(&schema, &[1, 3]).unwrap();
        let table: Vec<u8> = (0..64).collect(); // two rows of 32 B
        let mut out = Vec::new();
        sa.gather(&table, 32, &mut out);
        assert_eq!(&out[..8], &table[40..48]);
        assert_eq!(&out[8..], &table[56..64]);
    }
}
