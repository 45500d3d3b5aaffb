//! The packing stage (§5.5).
//!
//! "At the end of the processing pipeline, the annotated columns are
//! first packed based on their annotation flags in a bid to reduce the
//! overall data sent over the network. Multiple columns across the tuples
//! are packed into 64 byte words prior to their writing into the output
//! queue."
//!
//! Functionally packing is dense concatenation of the projected column
//! bytes; the 64-byte word count is tracked because the wire carries
//! whole words (the sender pads the final word).
//!
//! The block entry, [`Packer::push_block`], runs at copy speed: whole
//! tuples (no projection, or one that keeps the whole row) are a bulk
//! copy of the block or of each run of adjacent survivors, and a real
//! projection is [`ProjectionPlan::gather_into`] — output sized once per
//! block, word columns as fixed 8-byte loads and stores.
//! [`Packer::push_tuple`] is the per-tuple entry the tail operators'
//! result rows and the test oracle use.

use fv_sim::calib::BEAT_BYTES;

use crate::pipeline::{field, TupleBlock};
use crate::project::ProjectionPlan;

/// Dense tuple packer with optional pack-time projection.
#[derive(Debug, Clone)]
pub struct Packer {
    projection: Option<ProjectionPlan>,
    buf: Vec<u8>,
    bytes_packed: u64,
    tuples_packed: u64,
}

impl Packer {
    /// Pass tuples through unchanged (grouping output, smart addressing).
    pub fn passthrough() -> Self {
        Packer {
            projection: None,
            buf: Vec::new(),
            bytes_packed: 0,
            tuples_packed: 0,
        }
    }

    /// Apply `plan` at pack time (the annotation-flag projection).
    pub fn project(plan: ProjectionPlan) -> Self {
        Packer {
            projection: Some(plan),
            buf: Vec::new(),
            bytes_packed: 0,
            tuples_packed: 0,
        }
    }

    /// Pack one tuple.
    pub fn push_tuple(&mut self, tuple: &[u8]) {
        let before = self.buf.len();
        match &self.projection {
            Some(plan) => plan.write_projected(tuple, &mut self.buf),
            None => self.buf.extend_from_slice(tuple),
        }
        self.bytes_packed += (self.buf.len() - before) as u64;
        self.tuples_packed += 1;
    }

    /// Pack one logical tuple supplied as two contiguous halves (the
    /// join's `probe ++ build_payload` shape): the halves copy straight
    /// into the pack buffer, with no row buffer to concatenate them
    /// first. The row is final-format — a tail operator's packer is
    /// always [`Packer::passthrough`].
    #[expect(
        clippy::disallowed_macros,
        reason = "debug-only check of the tail-operator wiring"
    )]
    pub fn push_split_tuple(&mut self, head: &[u8], tail: &[u8]) {
        debug_assert!(self.projection.is_none(), "tail operators pack passthrough");
        self.buf.extend_from_slice(head);
        self.buf.extend_from_slice(tail);
        self.bytes_packed += (head.len() + tail.len()) as u64;
        self.tuples_packed += 1;
    }

    /// Vectorized pack: gather the `sel`-marked tuples of `block` in one
    /// pass, through the pack-time projection if there is one. Whole
    /// tuples — no projection, or one that keeps the whole row — are
    /// never gathered: a full selection is a single bulk copy of the
    /// block, a partial one copies each run of adjacent survivors once.
    ///
    /// `sel` must hold **strictly ascending** tuple indices into
    /// `block` — what a selection vector is (checked in debug builds).
    /// With strict ascent, `sel.len() == block.len()` implies the
    /// identity selection, which is what makes the bulk-copy shortcut
    /// sound.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug-only selection-vector check"
    )]
    pub fn push_block(&mut self, block: &TupleBlock<'_>, sel: &[u32]) {
        debug_assert!(
            sel.is_sorted_by(|a, b| a < b)
                && sel.last().is_none_or(|&i| (i as usize) < block.len()),
            "selection vector must be strictly ascending in-range indices"
        );
        let before = self.buf.len();
        let tb = block.tuple_bytes();
        let full = sel.len() == block.len();
        match self.projection.as_ref().filter(|plan| !plan.is_identity()) {
            None if full => self.buf.extend_from_slice(block.bytes()),
            None => {
                self.buf.reserve(sel.len() * tb);
                // Survivors at consecutive indices copy as one run.
                let mut rest = sel;
                while let Some((&start, tail)) = rest.split_first() {
                    let run = 1 + tail
                        .iter()
                        .zip(start + 1..)
                        .take_while(|&(&i, next)| i == next)
                        .count();
                    self.buf
                        .extend_from_slice(field(block.bytes(), start as usize * tb, run * tb));
                    rest = rest.split_at(run).1;
                }
            }
            Some(plan) if full => plan.gather_into(block.bytes().chunks_exact(tb), &mut self.buf),
            Some(plan) => plan.gather_into(sel.iter().map(|&i| block.tuple(i)), &mut self.buf),
        }
        self.bytes_packed += (self.buf.len() - before) as u64;
        self.tuples_packed += sel.len() as u64;
    }

    /// Pre-size the pack buffer for `additional` more bytes. Batched
    /// emitters call this once per block so the per-match pushes never
    /// regrow the buffer mid-block (the vectorized [`Packer::push_block`]
    /// reserves internally; the split-tuple path cannot know the batch
    /// size on its own).
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Drain everything packed so far (streamed to the sender).
    pub fn drain(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Append everything packed so far to `out` and retain the internal
    /// buffer's capacity — the zero-alloc steady-state drain (the
    /// [`Packer::drain`] path surrenders its allocation and regrows it
    /// from empty on every chunk). Returns the bytes appended.
    pub fn drain_into(&mut self, out: &mut Vec<u8>) -> usize {
        let n = self.buf.len();
        out.extend_from_slice(&self.buf);
        self.buf.clear();
        n
    }

    /// Drop anything undrained and zero the counters; the buffer keeps
    /// its capacity.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.bytes_packed = 0;
        self.tuples_packed = 0;
    }

    /// Tuples packed.
    pub fn tuples_packed(&self) -> u64 {
        self.tuples_packed
    }

    /// 64-byte words this payload occupies on the datapath (final word
    /// padded).
    pub fn words_emitted(&self) -> u64 {
        self.bytes_packed.div_ceil(BEAT_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::Schema;

    #[test]
    fn passthrough_packs_densely() {
        let mut p = Packer::passthrough();
        p.push_tuple(&[1u8; 10]);
        p.push_tuple(&[2u8; 10]);
        let out = p.drain();
        assert_eq!(out.len(), 20);
        assert_eq!(&out[..10], &[1u8; 10]);
        assert_eq!(p.bytes_packed, 20);
        assert_eq!(p.tuples_packed(), 2);
        // 20 bytes -> one padded 64-byte word.
        assert_eq!(p.words_emitted(), 1);
    }

    #[test]
    fn projection_at_pack_reduces_bytes() {
        let schema = Schema::uniform_u64(8);
        let plan = ProjectionPlan::new(&schema, Some(&[0, 4])).unwrap();
        let mut p = Packer::project(plan);
        let tuple: Vec<u8> = (0..64).collect();
        p.push_tuple(&tuple);
        let out = p.drain();
        assert_eq!(out.len(), 16);
        assert_eq!(&out[..8], &tuple[0..8]);
        assert_eq!(&out[8..], &tuple[32..40]);
    }

    #[test]
    fn drain_resets_buffer_but_not_counters() {
        let mut p = Packer::passthrough();
        p.push_tuple(&[0u8; 64]);
        assert_eq!(p.drain().len(), 64);
        assert!(p.drain().is_empty());
        p.push_tuple(&[0u8; 64]);
        assert_eq!(p.bytes_packed, 128);
        assert_eq!(p.words_emitted(), 2);
    }
}
