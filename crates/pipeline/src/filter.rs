//! The predicate-selection operator (§5.3).
//!
//! "For selection involving conventional data types, the value of an
//! attribute is compared against a constant provided in the query ... We
//! choose to hardwire the selection predicate as an actual matching
//! circuit." One tuple in per cycle, the tuple out iff the predicate
//! holds — a pure data-reduction stage.

use fv_data::{RowView, Schema};

use crate::pipeline::{StreamOperator, TupleBlock};
use crate::predicate::{CompiledPredicate, PredicateExpr};
use crate::project::ProjectionPlan;

/// Streaming predicate filter.
///
/// Holds the predicate twice: the interpreted [`PredicateExpr`] drives
/// the scalar per-tuple path (the seed execution model, kept as the
/// bench reference), and its schema-resolved [`CompiledPredicate`]
/// drives the vectorized block path — direct byte loads, no `Value`
/// materialization. Both are byte-identical by construction.
#[derive(Debug, Clone)]
pub struct FilterOp {
    pred: PredicateExpr,
    compiled: CompiledPredicate,
    schema: Schema,
    evaluated: u64,
    passed: u64,
}

impl FilterOp {
    /// A filter evaluating `pred` over tuples of `schema`.
    ///
    /// # Panics
    /// Panics if `pred` does not validate against `schema` (pipeline
    /// compilation validates first).
    pub fn new(pred: PredicateExpr, schema: Schema) -> Self {
        let compiled = pred
            .compile(&schema)
            .expect("predicate validated before operator construction");
        FilterOp {
            pred,
            compiled,
            schema,
            evaluated: 0,
            passed: 0,
        }
    }

    /// `(evaluated, passed)` counters — observed selectivity.
    pub fn counters(&self) -> (u64, u64) {
        (self.evaluated, self.passed)
    }
}

impl StreamOperator for FilterOp {
    fn name(&self) -> &'static str {
        "selection"
    }

    fn push(&mut self, tuple: &[u8], out: &mut dyn FnMut(&[u8])) {
        self.evaluated += 1;
        let row = RowView::new(&self.schema, tuple);
        if self.pred.eval(&row) {
            self.passed += 1;
            out(tuple);
        }
    }

    fn select_block(&mut self, block: &TupleBlock<'_>, sel: &mut Vec<u32>) -> bool {
        self.evaluated += sel.len() as u64;
        let compiled = &self.compiled;
        sel.retain(|&i| compiled.eval(block.tuple(i)));
        self.passed += sel.len() as u64;
        true
    }
}

/// Fused filter+project scan: predicate evaluation and pack-time
/// projection collapse into one pass over the tuple, so surviving rows
/// go straight from the annotated stream to their packed form without an
/// intermediate full-width copy between the selection stage and the
/// packer. Byte-identical to running [`FilterOp`] followed by a
/// projecting packer; `CompiledPipeline::compile` substitutes it
/// whenever a spec pairs a selection with a projection and no operator
/// sits between them.
#[derive(Debug, Clone)]
pub struct FusedFilterProject {
    pred: PredicateExpr,
    compiled: CompiledPredicate,
    schema: Schema,
    plan: ProjectionPlan,
    scratch: Vec<u8>,
    evaluated: u64,
    passed: u64,
}

impl FusedFilterProject {
    /// Fuse `pred` over `schema` with the pack-time projection `plan`.
    ///
    /// # Panics
    /// Panics if `pred` does not validate against `schema` (pipeline
    /// compilation validates first).
    pub fn new(pred: PredicateExpr, schema: Schema, plan: ProjectionPlan) -> Self {
        let scratch = Vec::with_capacity(plan.out_row_bytes());
        let compiled = pred
            .compile(&schema)
            .expect("predicate validated before operator construction");
        FusedFilterProject {
            pred,
            compiled,
            schema,
            plan,
            scratch,
            evaluated: 0,
            passed: 0,
        }
    }

    /// Schema of the emitted (projected) tuples.
    pub fn out_schema(&self) -> &Schema {
        self.plan.out_schema()
    }

    /// `(evaluated, passed)` counters — observed selectivity.
    pub fn counters(&self) -> (u64, u64) {
        (self.evaluated, self.passed)
    }
}

impl StreamOperator for FusedFilterProject {
    fn name(&self) -> &'static str {
        "fused-filter-project"
    }

    fn push(&mut self, tuple: &[u8], out: &mut dyn FnMut(&[u8])) {
        self.evaluated += 1;
        let row = RowView::new(&self.schema, tuple);
        if self.pred.eval(&row) {
            self.passed += 1;
            self.scratch.clear();
            self.plan.write_projected(tuple, &mut self.scratch);
            out(&self.scratch);
        }
    }

    /// On the block path the fused scan only *marks* survivors; the
    /// pipeline gathers their projected bytes straight into the packer
    /// (via the plan this operator was compiled with), so no
    /// intermediate per-tuple copy exists at all.
    fn select_block(&mut self, block: &TupleBlock<'_>, sel: &mut Vec<u32>) -> bool {
        self.evaluated += sel.len() as u64;
        let compiled = &self.compiled;
        sel.retain(|&i| compiled.eval(block.tuple(i)));
        self.passed += sel.len() as u64;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::{Row, Value};

    #[test]
    fn filters_and_counts() {
        let schema = Schema::uniform_u64(2);
        let mut op = FilterOp::new(PredicateExpr::lt(0, 5u64), schema.clone());
        let mut out_count = 0;
        for i in 0..10u64 {
            let bytes = Row(vec![Value::U64(i), Value::U64(0)]).encode(&schema);
            op.push(&bytes, &mut |_| out_count += 1);
        }
        assert_eq!(out_count, 5);
        assert_eq!(op.counters(), (10, 5));
        assert_eq!(op.name(), "selection");
        assert_eq!(op.overflow_tuples(), 0);
    }

    #[test]
    fn emitted_tuple_is_unmodified() {
        let schema = Schema::uniform_u64(1);
        let mut op = FilterOp::new(PredicateExpr::True, schema.clone());
        let bytes = Row(vec![Value::U64(42)]).encode(&schema);
        let mut seen = Vec::new();
        op.push(&bytes, &mut |t| seen = t.to_vec());
        assert_eq!(seen, bytes);
    }
}
