//! The predicate-selection operator (§5.3).
//!
//! "For selection involving conventional data types, the value of an
//! attribute is compared against a constant provided in the query ... We
//! choose to hardwire the selection predicate as an actual matching
//! circuit." One tuple in per cycle, annotated as passing iff the
//! predicate holds — a pure data-reduction stage.
//!
//! On the host the stage narrows a block's selection vector. The
//! paper's case — one scalar column against a constant, over a block no
//! earlier stage has narrowed — is
//! `CompiledPredicate::select_identity`: every index is written and
//! the write position advances by the comparison result, with no branch
//! on the outcome. Everything else (connectives, byte strings, an
//! already narrowed selection) evaluates the predicate per survivor.

use crate::pipeline::{Selection, TupleBlock};
use crate::predicate::CompiledPredicate;

/// Streaming predicate filter: the schema-resolved predicate evaluated
/// with direct byte loads, no `Value` materialization.
#[derive(Debug, Clone)]
pub struct FilterOp {
    pred: CompiledPredicate,
    evaluated: u64,
    passed: u64,
}

impl FilterOp {
    /// A filter evaluating `pred`.
    pub fn new(pred: CompiledPredicate) -> Self {
        FilterOp {
            pred,
            evaluated: 0,
            passed: 0,
        }
    }

    /// `(evaluated, passed)` counters — observed selectivity.
    pub fn counters(&self) -> (u64, u64) {
        (self.evaluated, self.passed)
    }
}

impl Selection for FilterOp {
    fn select_block(&mut self, block: &TupleBlock<'_>, sel: &mut Vec<u32>) {
        self.evaluated += sel.len() as u64;
        let pred = &self.pred;
        // A selection vector is strictly ascending, so one as long as
        // the block is the identity.
        let whole = sel.len() == block.len();
        if !(whole && pred.select_identity(block.bytes(), block.tuple_bytes(), sel)) {
            sel.retain(|&i| pred.eval(block.tuple(i)));
        }
        self.passed += sel.len() as u64;
    }

    fn reset(&mut self) {
        self.evaluated = 0;
        self.passed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PredicateExpr;
    use fv_data::{Row, Schema, Value};

    #[test]
    fn filters_and_counts() {
        let schema = Schema::uniform_u64(2);
        let mut op = FilterOp::new(PredicateExpr::lt(0, 5u64).compile(&schema).unwrap());
        let mut out_count = 0;
        // A one-tuple block is a block.
        for i in 0..10u64 {
            let bytes = Row(vec![Value::U64(i), Value::U64(0)]).encode(&schema);
            let mut sel = vec![0];
            op.select_block(&TupleBlock::new(&bytes, bytes.len()), &mut sel);
            out_count += sel.len();
        }
        assert_eq!(out_count, 5);
        assert_eq!(op.counters(), (10, 5));
    }
}
