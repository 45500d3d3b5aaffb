//! The regular-expression selection operator (§5.3).
//!
//! "In these operators, data is retrieved from the remote node only when
//! it matches the given regular expression. The operator implements
//! regular expression matching using multiple parallel engines." The
//! parallel engines are a throughput device; functionally each tuple's
//! string column is matched and the tuple passes iff it matches.
//!
//! Fixed-width string columns are zero-padded; the padding is stripped
//! before matching (the hardware engines see a length-delimited stream).

use fv_data::Schema;
use fv_regex::{Prefilter, Regex};

use crate::pipeline::{Selection, TupleBlock};

/// Streaming regex filter over one `Bytes(n)` column.
#[derive(Debug, Clone)]
pub struct RegexOp {
    re: Regex,
    range: std::ops::Range<usize>,
    /// Start-state prefilter for the block scan: present only when the
    /// pattern is not end-anchored and its DFA has a usable skip set
    /// (see [`fv_regex::Dfa::prefilter`]); `None` falls back to the
    /// plain per-tuple walk.
    prefilter: Option<Prefilter>,
    matched: u64,
    evaluated: u64,
    batched_blocks: u64,
}

impl RegexOp {
    /// Match `re` against column `col` of `schema`.
    ///
    /// # Panics
    /// Panics if `col` is out of range (validated by pipeline compile).
    pub fn new(re: Regex, col: usize, schema: &Schema) -> Self {
        let prefilter = if re.anchored_end() {
            None
        } else {
            re.dfa().prefilter()
        };
        RegexOp {
            range: schema.column_range(col),
            prefilter,
            re,
            matched: 0,
            evaluated: 0,
            batched_blocks: 0,
        }
    }

    /// `(evaluated, matched)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.evaluated, self.matched)
    }
}

/// Strip trailing zero padding from a fixed-width string field.
/// Word-at-a-time from the tail: mostly-padding fields (wide columns,
/// short strings) cost a few u64 loads instead of a byte-wise scan.
#[expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "`end` stays within `field` and the word slice is 8 bytes"
)]
fn strip_padding(field: &[u8]) -> &[u8] {
    let mut end = field.len();
    while end >= 8 {
        let w = u64::from_le_bytes(field[end - 8..end].try_into().expect("8-byte chunk"));
        if w == 0 {
            end -= 8;
        } else {
            // Little-endian: the slice's trailing zero bytes are the
            // word's leading zero bytes.
            return &field[..end - w.leading_zeros() as usize / 8];
        }
    }
    while end > 0 && field[end - 1] == 0 {
        end -= 1;
    }
    &field[..end]
}

impl Selection for RegexOp {
    /// The column range is fixed for the whole block, so matching marks
    /// survivors with a direct slice per tuple — no dispatch, no copies.
    /// With a [`Prefilter`] the DFA only runs from candidate byte
    /// positions; runs of bytes that cannot leave the start state are
    /// skipped word-at-a-time (exact, not approximate — skipped bytes
    /// provably keep the automaton in place).
    #[expect(
        clippy::indexing_slicing,
        reason = "the range is compiled from the block's schema"
    )]
    fn select_block(&mut self, block: &TupleBlock<'_>, sel: &mut Vec<u32>) {
        self.evaluated += sel.len() as u64;
        let range = self.range.clone();
        match &self.prefilter {
            Some(pf) => {
                self.batched_blocks += 1;
                let dfa = self.re.dfa();
                sel.retain(|&i| {
                    let field = strip_padding(&block.tuple(i)[range.clone()]);
                    dfa.matches_prefix_free_with(field, pf)
                });
            }
            None => {
                let re = &self.re;
                sel.retain(|&i| {
                    let field = strip_padding(&block.tuple(i)[range.clone()]);
                    re.is_match(field)
                });
            }
        }
        self.matched += sel.len() as u64;
    }

    fn batched_blocks(&self) -> u64 {
        self.batched_blocks
    }

    fn reset(&mut self) {
        self.matched = 0;
        self.evaluated = 0;
        self.batched_blocks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::{Column, ColumnType, Row, Value};

    fn string_schema(width: usize) -> Schema {
        Schema::new(vec![
            Column {
                name: "id".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "s".into(),
                ty: ColumnType::Bytes(width),
            },
        ])
    }

    /// Run one encoded row through `op` as a one-tuple block.
    fn passes(op: &mut RegexOp, row: &[u8]) -> bool {
        let mut sel = vec![0];
        op.select_block(&TupleBlock::new(row, row.len()), &mut sel);
        !sel.is_empty()
    }

    #[test]
    fn matches_filter_tuples() {
        let schema = string_schema(16);
        let re = Regex::compile("c[aou]t").unwrap();
        let mut op = RegexOp::new(re, 1, &schema);
        let mut kept: Vec<u64> = Vec::new();
        for (i, s) in ["the cat", "a dog", "cut here", "cot", "ct"]
            .iter()
            .enumerate()
        {
            let bytes = Row(vec![Value::U64(i as u64), Value::from(*s)]).encode(&schema);
            if passes(&mut op, &bytes) {
                kept.push(i as u64);
            }
        }
        assert_eq!(kept, vec![0, 2, 3]);
        assert_eq!(op.counters(), (5, 3));
    }

    #[test]
    fn padding_does_not_break_end_anchor() {
        let schema = string_schema(8);
        let re = Regex::compile("cat$").unwrap();
        let mut op = RegexOp::new(re, 1, &schema);
        let bytes = Row(vec![Value::U64(0), Value::from("cat")]).encode(&schema);
        assert!(
            passes(&mut op, &bytes),
            "zero padding must be invisible to `$`"
        );
    }

    #[test]
    fn block_scan_agrees_with_scalar_push() {
        // One pattern with a usable prefilter, one end-anchored (no
        // prefilter), one start-anchored (empty skip set): the block
        // scan must keep exactly the tuples whose stripped field the
        // regex matches, either way.
        let schema = string_schema(16);
        let samples = ["the cat", "a dog", "cut here", "cot", "ct", "", "tac"];
        let mut data = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            data.extend(Row(vec![Value::U64(i as u64), Value::from(*s)]).encode(&schema));
        }
        let block = TupleBlock::new(&data, schema.row_bytes());
        for (pattern, wants_prefilter) in [("c[aou]t", true), ("cat$", false), ("^cu", false)] {
            let re = Regex::compile(pattern).unwrap();
            let mut op = RegexOp::new(re.clone(), 1, &schema);
            let mut sel: Vec<u32> = (0..samples.len() as u32).collect();
            op.select_block(&block, &mut sel);
            assert_eq!(
                op.batched_blocks() > 0,
                wants_prefilter,
                "{pattern}: prefilter engagement"
            );
            let matching: Vec<u32> = (0..samples.len() as u32)
                .filter(|&i| re.is_match(samples[i as usize].as_bytes()))
                .collect();
            assert_eq!(sel, matching, "{pattern}: survivors must agree");
        }
    }

    #[test]
    fn strip_padding_edge_cases() {
        assert_eq!(strip_padding(b"abc\0\0"), b"abc");
        assert_eq!(strip_padding(b"\0\0"), b"");
        assert_eq!(strip_padding(b"a\0b\0"), b"a\0b", "interior NULs survive");
        assert_eq!(strip_padding(b""), b"");
    }
}
