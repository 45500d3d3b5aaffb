//! # fv-pipeline — the Farview operator stack
//!
//! "An operator pipeline contains one or more operators that provide
//! partial query processing on datapath operations to disaggregated
//! memory. This processing is effectively a bump-in-the-wire that
//! operates on data without introducing significant overheads." (§5.1)
//!
//! The crate implements every operator class of the paper, functionally
//! exact (the bytes that come out are the bytes the hardware would
//! produce) with the cycle-level costs exposed for the simulator:
//!
//! | paper §  | operator                         | module        |
//! |----------|----------------------------------|---------------|
//! | §5.2     | projection (+ smart addressing)  | [`project`]   |
//! | §5.3     | predicate selection, vectorized  | [`predicate`], [`filter`] |
//! | §5.3     | regular-expression matching      | [`regex_op`]  |
//! | §5.4     | distinct (cuckoo + LRU shiftreg) | [`distinct`], [`cuckoo`] |
//! | §5.4     | group by + aggregation           | [`group_by`]  |
//! | §7 (ext) | small-table broadcast hash join  | [`join`]      |
//! | §5.5     | AES-128-CTR de/encryption        | [`crypto_op`] |
//! | §5.5 (ext) | result compression             | [`compress`]  |
//! | §5.5     | packing + sending                | [`pack`]      |
//!
//! A [`PipelineSpec`] describes the requested pipeline (what the paper
//! precompiles into a partial bitstream); [`CompiledPipeline`] is the
//! loaded instance a dynamic region runs. The hardware feeds "up to a
//! single tuple in each cycle" (§5.1); the host computes the same bytes
//! a block of tuples at a time, on one route: each [`Selection`]
//! (predicate, regex) marks its survivors in a selection vector, and the
//! one [`TailOperator`] a pipeline may end in (distinct, group-by,
//! join) — or, without one, the packer — gathers them. The per-tuple
//! model exists only as the test oracle (`tests/reference` at the
//! workspace root).
//!
//! The datapath is row-major end to end, as in the paper: tables sit
//! row-major in disaggregated DRAM, [`CompiledPipeline::push_bytes`] is
//! the one entry every query feeds, and column access is smart
//! addressing over the row store (§5.2). The tiered pool's disk image
//! (`fv_data::RowImage`) and its far-memory page chunks hold the same
//! rows: staging a table into DRAM transposes nothing.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod cuckoo;
pub mod distinct;
pub mod filter;
pub mod group_by;
pub mod join;
pub mod merge;
pub mod pack;
pub mod pipeline;
pub mod predicate;
pub mod project;
pub mod regex_op;
pub mod spec;

pub mod compress;
pub mod crypto_op;

pub use join::JoinSmallSpec;
pub use merge::PartialAggPlan;
pub use pipeline::{
    CompiledPipeline, PipelineError, PipelineStats, Selection, TailOperator, TupleBlock,
};
pub use predicate::{CmpOp, CompiledPredicate, PredicateExpr};
pub use spec::{AggFunc, AggSpec, CryptoSpec, GroupingSpec, PipelineSpec, RegexFilter};
