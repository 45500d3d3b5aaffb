//! Property-based equivalence of the block datapath with the per-tuple
//! execution model.
//!
//! The library runs one route: selection vectors, gather-at-pack, one
//! operator call per block. `tests/reference` is the other — the
//! paper's "up to a single tuple in each cycle" pipeline written down
//! literally, with the §5.4 hazard-window state machine probe for
//! probe — and exists only here, as the oracle: for **every** operator
//! combination, chunking pattern and ragged final block, the two must
//! produce byte-identical output and equal counters.

mod reference;

use proptest::prelude::*;

use farview::prelude::*;
use farview_core::{AggFunc, AggSpec, PredicateExpr};
use fv_pipeline::cuckoo::CuckooTable;
use fv_pipeline::distinct::{DistinctOp, DEFAULT_LRU_DEPTH};
use fv_pipeline::pack::Packer;
use fv_pipeline::project::ProjectionPlan;
use fv_pipeline::{CompiledPipeline, CryptoSpec, JoinSmallSpec, TailOperator, TupleBlock};
use fv_regex::Regex;

use reference::{ScalarDistinct, ScalarOp, ScalarPipeline};

use fv_data::{Column, ColumnType, Schema, Table, TableBuilder};

const AES_KEY: [u8; 16] = [0x5a; 16];
const AES_IV: [u8; 16] = [0xc3; 16];

/// A random table of `cols` u64 columns with bounded values.
fn arb_table(max_rows: usize, cols: usize, value_bound: u64) -> impl Strategy<Value = Table> {
    prop::collection::vec(prop::collection::vec(0..value_bound, cols), 0..=max_rows).prop_map(
        move |rows| {
            let schema = Schema::uniform_u64(cols);
            let mut b = TableBuilder::with_capacity(schema, rows.len());
            for r in rows {
                b.push_values(r.into_iter().map(Value::U64).collect());
            }
            b.build()
        },
    )
}

/// A random table with a u64 key column and one fixed-width string
/// column drawn from a tiny alphabet (so regexes are non-degenerate).
fn arb_string_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec(prop::collection::vec(0u64..4, 6), 0..=max_rows).prop_map(|rows| {
        let schema = Schema::new(vec![
            Column {
                name: "k".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "s".into(),
                ty: ColumnType::Bytes(8),
            },
        ]);
        let mut b = TableBuilder::with_capacity(schema, rows.len());
        for (i, picks) in rows.iter().enumerate() {
            let s: Vec<u8> = picks.iter().map(|&p| b"abcx"[p as usize]).collect();
            b.push_values(vec![Value::U64(i as u64), Value::Bytes(s)]);
        }
        b.build()
    })
}

/// Chunk lengths to slice the stream with (1..=96 B — deliberately not
/// tuple-aligned, so every run exercises cross-chunk framing and ragged
/// final blocks).
fn arb_chunks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..96, 1..12)
}

/// Stream `data` through pipeline `p` — either route; they answer the
/// same four calls — slicing it by cycling `chunk_sizes`, draining after
/// every chunk exactly like the episode engine does.
macro_rules! run_pipeline {
    ($p:expr, $data:expr, $chunk_sizes:expr) => {{
        let (mut p, data, chunk_sizes): (_, &[u8], &[usize]) = ($p, $data, $chunk_sizes);
        let mut out = Vec::new();
        let mut off = 0usize;
        let mut i = 0usize;
        while off < data.len() {
            let len = chunk_sizes[i % chunk_sizes.len()].min(data.len() - off);
            i += 1;
            p.push_bytes(&data[off..off + len]);
            off += len;
            out.extend(p.drain_output());
        }
        p.finish();
        out.extend(p.drain_output());
        (out, p.stats())
    }};
}

/// Assert both routes agree on bytes and counters.
fn assert_equivalent(spec: &PipelineSpec, schema: &Schema, data: &[u8], chunks: &[usize]) {
    let block = CompiledPipeline::compile(spec.clone(), schema).expect("spec compiles");
    let (block, block_stats) = run_pipeline!(block, data, chunks);
    let (scalar, scalar_stats) = run_pipeline!(ScalarPipeline::compile(spec, schema), data, chunks);
    assert_eq!(
        block, scalar,
        "block and per-tuple routes must be byte-identical for {spec:?}"
    );
    assert_eq!(
        block_stats, scalar_stats,
        "block and per-tuple routes must count identically for {spec:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Passthrough, filter, project, and filter + project.
    #[test]
    fn scan_shapes_are_route_invariant(
        table in arb_table(120, 4, 500),
        threshold in 0u64..500,
        keep_raw in prop::collection::vec(0usize..4, 1..4),
        chunks in arb_chunks(),
    ) {
        // Projections list distinct columns (duplicates have no schema).
        let mut keep = Vec::new();
        for c in keep_raw {
            if !keep.contains(&c) {
                keep.push(c);
            }
        }
        let schema = table.schema();
        let specs = [
            PipelineSpec::passthrough(),
            PipelineSpec::passthrough().filter(PredicateExpr::lt(0, threshold)),
            PipelineSpec::passthrough().project(keep.clone()),
            PipelineSpec::passthrough()
                .project(keep.clone())
                .filter(PredicateExpr::lt(1, threshold)),
            PipelineSpec::passthrough().filter(
                PredicateExpr::lt(0, threshold).or(PredicateExpr::gt(2, threshold)),
            ),
        ];
        for spec in &specs {
            assert_equivalent(spec, schema, table.bytes(), &chunks);
        }
    }

    /// Regex selection, alone and stacked behind a predicate.
    #[test]
    fn regex_is_route_invariant(
        table in arb_string_table(100),
        threshold in 0u64..100,
        chunks in arb_chunks(),
    ) {
        let schema = table.schema();
        let specs = [
            PipelineSpec::passthrough().regex_match(1, "a+b"),
            PipelineSpec::passthrough().regex_match(1, "^ab*c"),
            PipelineSpec::passthrough()
                .filter(PredicateExpr::lt(0, threshold))
                .regex_match(1, "c(a|b)"),
        ];
        for spec in &specs {
            assert_equivalent(spec, schema, table.bytes(), &chunks);
        }
    }

    /// Smart addressing: the gathered (already projected) stream frames
    /// at the narrow tuple width.
    #[test]
    fn smart_addressing_is_route_invariant(
        table in arb_table(100, 8, 1000),
        chunks in arb_chunks(),
    ) {
        let spec = PipelineSpec::passthrough()
            .project(vec![1, 2, 5])
            .with_smart_addressing();
        let schema = table.schema();
        let p = CompiledPipeline::compile(spec.clone(), schema).expect("compiles");
        let sa = p.smart_addressing().expect("SA planned").clone();
        let mut gathered = Vec::new();
        for r in 0..table.row_count() {
            sa.gather(table.bytes(), r * schema.row_bytes(), &mut gathered);
        }
        assert_equivalent(&spec, schema, &gathered, &chunks);
    }

    /// DISTINCT (hazard window, LRU, overflow) and GROUP BY with every
    /// aggregation function.
    #[test]
    fn grouping_is_route_invariant(
        table in arb_table(150, 3, 24),
        chunks in arb_chunks(),
    ) {
        let schema = table.schema();
        let aggs: Vec<AggSpec> = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::SumF64,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ]
        .into_iter()
        .map(|func| AggSpec { col: 1, func })
        .collect();
        let specs = [
            PipelineSpec::passthrough().distinct(vec![0]),
            PipelineSpec::passthrough().distinct(vec![0, 2]),
            PipelineSpec::passthrough().group_by(vec![0], aggs),
            PipelineSpec::passthrough()
                .filter(PredicateExpr::lt(2, 12u64))
                .group_by(
                    vec![0],
                    vec![AggSpec {
                        col: 1,
                        func: AggFunc::Sum,
                    }],
                ),
        ];
        for spec in &specs {
            assert_equivalent(spec, schema, table.bytes(), &chunks);
        }
    }

    /// The broadcast join, alone and behind a filter.
    #[test]
    fn join_is_route_invariant(
        table in arb_table(100, 3, 40),
        build_rows in prop::collection::vec(0u64..40, 1..20),
        threshold in 0u64..40,
        chunks in arb_chunks(),
    ) {
        let mut bb = TableBuilder::new(Schema::uniform_u64(2));
        for (i, &k) in build_rows.iter().enumerate() {
            bb.push_values(vec![Value::U64(k), Value::U64(1000 + i as u64)]);
        }
        let build = bb.build();
        let schema = table.schema();
        let join = JoinSmallSpec::new(0, &build, 0);
        let specs = [
            PipelineSpec::passthrough().join_small(join.clone()),
            PipelineSpec::passthrough()
                .filter(PredicateExpr::lt(1, threshold))
                .join_small(join),
        ];
        for spec in &specs {
            assert_equivalent(spec, schema, table.bytes(), &chunks);
        }
    }

    /// Run-heavy (clustered) key columns — fact tables physically
    /// ordered on a foreign key — drive the batched hash operators'
    /// run-memoization: repeated keys inside a block reuse the previous
    /// tuple's lookup (join) or LRU slot (distinct). Every memoized
    /// shortcut must stay byte- and counter-identical to the per-tuple
    /// reference, including hazard-window duplicates inside a run.
    #[test]
    fn clustered_keys_are_route_invariant(
        runs in prop::collection::vec((0u64..12, 1usize..10), 1..40),
        build_rows in prop::collection::vec(0u64..12, 1..16),
        chunks in arb_chunks(),
    ) {
        let schema = Schema::uniform_u64(3);
        let mut b = TableBuilder::new(schema);
        let mut row = 0u64;
        for &(key, len) in &runs {
            for _ in 0..len {
                b.push_values(vec![Value::U64(key), Value::U64(row), Value::U64(row / 2)]);
                row += 1;
            }
        }
        let table = b.build();
        let mut bb = TableBuilder::new(Schema::uniform_u64(2));
        for (i, &k) in build_rows.iter().enumerate() {
            bb.push_values(vec![Value::U64(k), Value::U64(900 + i as u64)]);
        }
        let build = bb.build();
        let specs = [
            PipelineSpec::passthrough().distinct(vec![0]),
            PipelineSpec::passthrough().group_by(
                vec![0],
                vec![AggSpec { col: 1, func: AggFunc::Sum }],
            ),
            PipelineSpec::passthrough().join_small(JoinSmallSpec::new(0, &build, 0)),
        ];
        for spec in &specs {
            assert_equivalent(spec, table.schema(), table.bytes(), &chunks);
        }
    }

    /// Compression and both crypto directions around a data-reducing
    /// pipeline (the decrypt scratch path and the compressor tail frame
    /// must behave identically on both routes).
    #[test]
    fn codec_stages_are_route_invariant(
        table in arb_table(100, 4, 200),
        threshold in 0u64..200,
        chunks in arb_chunks(),
    ) {
        let key = CryptoSpec { key: AES_KEY, iv: AES_IV };
        // Store the table encrypted so the decrypt stage sees real CTR
        // ciphertext.
        let mut cipher = table.bytes().to_vec();
        fv_crypto::ctr_apply_at(&AES_KEY, &AES_IV, 0, &mut cipher);
        let schema = table.schema();
        let specs = [
            PipelineSpec::passthrough().compress(),
            PipelineSpec::passthrough()
                .filter(PredicateExpr::lt(0, threshold))
                .compress()
                .encrypt(key.clone()),
            PipelineSpec::passthrough()
                .decrypt(key.clone())
                .filter(PredicateExpr::lt(0, threshold)),
            PipelineSpec::passthrough()
                .decrypt(key.clone())
                .compress()
                .encrypt(key),
        ];
        for spec in &specs {
            let data: &[u8] = if spec.decrypt_input.is_some() {
                &cipher
            } else {
                table.bytes()
            };
            assert_equivalent(spec, schema, data, &chunks);
        }
    }
}

/// Feed `stream` through the per-tuple state machine and through
/// `DistinctOp::push_block` over ragged identity blocks, both on a table
/// of `make_table()`'s geometry — and assert the emitted bytes and every
/// hazard/overflow counter agree. Returns the reference, for fixture
/// sanity checks.
fn assert_distinct_routes_agree(
    make_table: impl Fn() -> CuckooTable<()>,
    lru_depth: usize,
    stream: &[u8],
    tb: usize,
) -> ScalarDistinct {
    let keys = || ProjectionPlan::new(&Schema::uniform_u64(2), Some(&[0])).expect("plan");
    let mut scalar_op = ScalarDistinct::new(keys(), make_table(), lru_depth);
    let mut scalar_out = Vec::new();
    for tuple in stream.chunks_exact(tb) {
        scalar_op.push(tuple, &mut |t| scalar_out.extend_from_slice(t));
    }

    let mut block_op = DistinctOp::with_geometry(keys(), make_table(), lru_depth);
    let mut packer = Packer::passthrough();
    // Ragged block boundaries, including mid-run splits (a key run that
    // straddles two blocks must re-seed the memo without skew).
    let mut off = 0usize;
    let mut sel: Vec<u32> = Vec::new();
    for lens in [5usize, 1, 9, 2, 17, 3].iter().cycle() {
        if off >= stream.len() {
            break;
        }
        let take = (lens * tb).min(stream.len() - off);
        let block = TupleBlock::new(&stream[off..off + take], tb);
        off += take;
        sel.clear();
        sel.extend(0..block.len() as u32);
        block_op.push_block(&block, &sel, &mut packer);
    }
    let block_out = packer.drain();

    assert_eq!(
        scalar_out, block_out,
        "distinct routes must be byte-identical"
    );
    assert_eq!(scalar_op.emitted, block_op.emitted());
    assert_eq!(scalar_op.hazard_leaks, block_op.hazard_leaks());
    assert_eq!(scalar_op.hazard_catches, block_op.hazard_catches());
    assert_eq!(scalar_op.overflow, block_op.overflow_tuples());
    scalar_op
}

/// A key stream dense in duplicate runs: every run shorter than the
/// write latency, so most repeats land inside the §5.4 hazard window
/// where only the LRU (or a leak) can answer.
fn hazard_heavy_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    for i in 0..512u64 {
        // Runs of 1..=5 copies of each key, keys recycled mod 19 so
        // earlier keys return both inside and outside the window.
        let key = (i * i) % 19;
        for rep in 0..=(i % 5) {
            stream.extend_from_slice(&key.to_le_bytes());
            stream.extend_from_slice(&(i + rep).to_le_bytes());
        }
    }
    stream
}

/// Hazard-window duplicate runs, with the LRU shift register both
/// disabled (depth 0: every in-window duplicate leaks, exactly as the
/// paper's unguarded design would) and at its default depth (duplicates
/// are caught). The batched path's run memo must not change a byte or a
/// counter in either geometry.
#[test]
fn hazard_window_duplicate_runs_match_scalar_at_depth_0_and_default() {
    let schema = Schema::uniform_u64(2);
    let tb = schema.row_bytes();
    let stream = hazard_heavy_stream();
    for depth in [0usize, DEFAULT_LRU_DEPTH] {
        let op =
            assert_distinct_routes_agree(CuckooTable::with_default_geometry, depth, &stream, tb);
        // Sanity on the fixture itself: depth 0 must actually leak.
        if depth == 0 {
            assert!(op.hazard_leaks > 0, "depth-0 fixture must exercise leaks");
        } else {
            assert!(
                op.hazard_catches > 0,
                "default depth must catch in-window dups"
            );
        }
    }
}

/// A deliberately tiny cuckoo table (2 ways × 8 buckets) overflowing
/// under hundreds of distinct keys: the spill counter and the emitted
/// bytes must agree between routes (an overflowed key is dropped from
/// the table but still deduplicated best-effort by the LRU).
#[test]
fn cuckoo_overflow_spills_identically_on_both_routes() {
    let schema = Schema::uniform_u64(2);
    let tb = schema.row_bytes();
    let mut stream = Vec::new();
    for i in 0..400u64 {
        // Mostly-distinct keys with periodic repeats, so the overflowed
        // table still sees duplicate probes.
        let key = if i % 7 == 0 { i / 2 } else { i * 31 };
        stream.extend_from_slice(&key.to_le_bytes());
        stream.extend_from_slice(&i.to_le_bytes());
    }
    let op =
        assert_distinct_routes_agree(|| CuckooTable::new(2, 8), DEFAULT_LRU_DEPTH, &stream, tb);
    assert!(op.overflow > 0, "fixture must actually overflow");
}

/// The DFA prefilter block scan and the plain per-tuple walk are the
/// same predicate: one pattern that derives a skip set and one that
/// cannot (start-anchored) must both be route-invariant, so the smoke
/// here pins that the two select_block code paths are actually the ones
/// exercised.
#[test]
fn regex_prefilter_and_fallback_are_route_invariant() {
    let with_pf = "a+b";
    let without_pf = "^ab*c";
    assert!(
        Regex::compile(with_pf)
            .expect("compiles")
            .dfa()
            .prefilter()
            .is_some(),
        "{with_pf} must derive a required-progress-byte prefilter"
    );
    assert!(
        Regex::compile(without_pf)
            .expect("compiles")
            .dfa()
            .prefilter()
            .is_none(),
        "{without_pf} is start-anchored and must take the fallback walk"
    );

    let schema = Schema::new(vec![
        Column {
            name: "k".into(),
            ty: ColumnType::U64,
        },
        Column {
            name: "s".into(),
            ty: ColumnType::Bytes(8),
        },
    ]);
    let mut b = TableBuilder::with_capacity(schema, 256);
    let alphabet = b"abcx";
    for i in 0..256u64 {
        let s: Vec<u8> = (0..6).map(|j| alphabet[((i >> j) & 3) as usize]).collect();
        b.push_values(vec![Value::U64(i), Value::Bytes(s)]);
    }
    let table = b.build();
    let chunks = [96usize, 7, 33];
    for pattern in [with_pf, without_pf] {
        let spec = PipelineSpec::passthrough().regex_match(1, pattern);
        assert_equivalent(&spec, table.schema(), table.bytes(), &chunks);
    }
}
