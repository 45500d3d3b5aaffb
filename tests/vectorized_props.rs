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
use fv_pipeline::cuckoo::{hash_key, CuckooTable};
use fv_pipeline::distinct::{DistinctOp, DEFAULT_LRU_DEPTH, WRITE_LATENCY};
use fv_pipeline::group_by::GroupByOp;
use fv_pipeline::pack::Packer;
use fv_pipeline::project::ProjectionPlan;
use fv_pipeline::{CmpOp, CompiledPipeline, CryptoSpec, JoinSmallSpec, TailOperator, TupleBlock};
use fv_regex::Regex;
use fv_sim::calib::PAGE_BYTES;

use reference::{ScalarDistinct, ScalarGroupBy, ScalarOp, ScalarPipeline};

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
        // A filter ahead of the operator thins the runs without
        // breaking them up (the memo sees the key stream, not the
        // block); keys 0 and 2 are not adjacent, so that distinct
        // gathers its keys first.
        let thinned = || PipelineSpec::passthrough().filter(PredicateExpr::gt(2, 3u64));
        let specs = [
            PipelineSpec::passthrough().distinct(vec![0]),
            thinned().distinct(vec![0]),
            PipelineSpec::passthrough().distinct(vec![0, 2]),
            PipelineSpec::passthrough().group_by(
                vec![0],
                vec![AggSpec { col: 1, func: AggFunc::Sum }],
            ),
            PipelineSpec::passthrough().join_small(JoinSmallSpec::new(0, &build, 0)),
            thinned().join_small(JoinSmallSpec::new(0, &build, 0)),
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

/// Three `u64` columns: 24-byte rows, which do not divide a 2 MB page.
const PAGED_COLS: usize = 3;

/// A table past one 2 MB page, of `PAGED_COLS`-wide rows, so one row
/// straddles the boundary between its two pages.
fn arb_paged_table() -> impl Strategy<Value = Table> {
    (any::<u64>(), 1usize..3000).prop_map(|(seed, extra)| {
        let rows = PAGE_BYTES as usize / (8 * PAGED_COLS) + extra;
        let mut x = seed | 1;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Value::U64(x % bound)
        };
        let mut b = TableBuilder::with_capacity(Schema::uniform_u64(PAGED_COLS), rows);
        for _ in 0..rows {
            b.push_values(vec![next(24), next(1000), next(64)]);
        }
        b.build()
    })
}

/// What the per-tuple reference makes of `spec` over the bytes a table
/// holds in node memory — gathered first under smart addressing, as the
/// node's MMU does.
fn reference_over(spec: &PipelineSpec, schema: &Schema, stored: &[u8]) -> Vec<u8> {
    let compiled = CompiledPipeline::compile(spec.clone(), schema).expect("spec compiles");
    let mut gathered = Vec::new();
    let data = match compiled.smart_addressing() {
        Some(sa) => {
            for at in (0..stored.len()).step_by(schema.row_bytes()) {
                sa.gather(stored, at, &mut gathered);
            }
            &gathered[..]
        }
        None => stored,
    };
    run_pipeline!(ScalarPipeline::compile(spec, schema), data, &[4096]).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The node streams a table from its pages in place and gathers a
    /// smart-addressing projection from them row by row. Through the
    /// whole node — each spec solo, and all of them as one doorbell
    /// batch — select, group-by, a smart-addressing projection and a
    /// decrypting scan equal the per-tuple reference over the stored
    /// bytes, for every shape the page walk meets: a small table; one
    /// past a 2 MB page, whose boundary a row straddles; and one of that
    /// size allocated but never written, read from the zero page.
    #[test]
    fn node_pages_stream_as_the_reference(
        small in arb_table(150, PAGED_COLS, 24),
        paged in arb_paged_table(),
        unwritten in arb_paged_table(),
        threshold in 0u64..24,
    ) {
        assert_ne!(PAGE_BYTES % (8 * PAGED_COLS as u64), 0, "a row must straddle");
        let aggs = [AggFunc::Sum, AggFunc::Count, AggFunc::Max]
            .map(|func| AggSpec { col: 2, func })
            .to_vec();
        let specs = [
            PipelineSpec::passthrough().filter(PredicateExpr::lt(0, threshold)),
            PipelineSpec::passthrough().group_by(vec![0], aggs),
            PipelineSpec::passthrough().project(vec![2, 0]).with_smart_addressing(),
            PipelineSpec::passthrough()
                .decrypt(CryptoSpec { key: AES_KEY, iv: AES_IV })
                .filter(PredicateExpr::gt(1, threshold)),
        ];
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let qp = c.connect().unwrap();
        for (table, written) in [(&small, true), (&paged, true), (&unwritten, false)] {
            let (ft, stored) = if written {
                (qp.load_table(table).unwrap().0, table.bytes().to_vec())
            } else {
                (qp.alloc_table(table).unwrap(), vec![0; table.byte_len()])
            };
            let batch = qp.far_view_batch(&ft, &specs).unwrap();
            for (i, (spec, batched)) in specs.iter().zip(&batch).enumerate() {
                let want = reference_over(spec, table.schema(), &stored);
                let solo = qp.far_view(&ft, spec).unwrap();
                let what = format!("spec {i}, {} rows, written {written}", table.row_count());
                prop_assert_eq!(&solo.payload, &want, "solo, {}", what);
                prop_assert_eq!(&batched.payload, &want, "batched, {}", what);
            }
            qp.free_table(ft).unwrap();
        }
    }
}

/// Feed `stream` through the per-tuple state machine and through
/// `DistinctOp::push_block` over ragged identity blocks (lengths cycling
/// through `block_lens`), both keyed by `cols` of `schema` on a table of
/// `make_table()`'s geometry — and assert the emitted bytes and every
/// hazard/overflow counter agree. Returns the reference, for fixture
/// sanity checks.
fn assert_distinct_routes_agree(
    schema: &Schema,
    cols: &[usize],
    make_table: impl Fn() -> CuckooTable<()>,
    lru_depth: usize,
    stream: &[u8],
    block_lens: &[usize],
) -> ScalarDistinct {
    let tb = schema.row_bytes();
    let keys = || ProjectionPlan::new(schema, Some(cols)).expect("plan");
    let mut scalar_op = ScalarDistinct::new(keys(), make_table(), lru_depth);
    let mut scalar_out = Vec::new();
    for tuple in stream.chunks_exact(tb) {
        scalar_op.push(tuple, &mut |t| scalar_out.extend_from_slice(t));
    }

    let mut block_op = DistinctOp::with_geometry(keys(), make_table(), lru_depth);
    let mut packer = Packer::passthrough();
    // Ragged block boundaries, including mid-run splits: the hazard
    // clock must tick per tuple, never per block.
    let mut off = 0usize;
    let mut sel: Vec<u32> = Vec::new();
    for lens in block_lens.iter().cycle() {
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

    let what = format!("keys {cols:?}, LRU depth {lru_depth}, blocks {block_lens:?}");
    assert_eq!(
        scalar_out, block_out,
        "distinct routes must be byte-identical ({what})"
    );
    assert_eq!(scalar_op.emitted, block_op.emitted(), "emitted ({what})");
    assert_eq!(
        scalar_op.hazard_leaks,
        block_op.hazard_leaks(),
        "hazard leaks ({what})"
    );
    assert_eq!(
        scalar_op.hazard_catches,
        block_op.hazard_catches(),
        "hazard catches ({what})"
    );
    assert_eq!(
        scalar_op.overflow,
        block_op.overflow_tuples(),
        "overflow ({what})"
    );
    scalar_op
}

/// The block pattern of the fixed DISTINCT fixtures.
const RAGGED_BLOCKS: [usize; 6] = [5, 1, 9, 2, 17, 3];

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
/// are caught). The block route must not change a byte or a counter in
/// either geometry.
#[test]
fn hazard_window_duplicate_runs_match_scalar_at_depth_0_and_default() {
    let schema = Schema::uniform_u64(2);
    let stream = hazard_heavy_stream();
    for depth in [0usize, DEFAULT_LRU_DEPTH] {
        let op = assert_distinct_routes_agree(
            &schema,
            &[0],
            CuckooTable::with_default_geometry,
            depth,
            &stream,
            &RAGGED_BLOCKS,
        );
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
    let mut stream = Vec::new();
    for i in 0..400u64 {
        // Mostly-distinct keys with periodic repeats, so the overflowed
        // table still sees duplicate probes.
        let key = if i % 7 == 0 { i / 2 } else { i * 31 };
        stream.extend_from_slice(&key.to_le_bytes());
        stream.extend_from_slice(&i.to_le_bytes());
    }
    let op = assert_distinct_routes_agree(
        &schema,
        &[0],
        || CuckooTable::new(2, 8),
        DEFAULT_LRU_DEPTH,
        &stream,
        &RAGGED_BLOCKS,
    );
    assert!(op.overflow > 0, "fixture must actually overflow");
}

/// The key shapes DISTINCT takes different paths for: one word (its
/// windows compare the hash alone), two adjacent words (a contiguous
/// range hashed where it lies), non-contiguous `[2, 0]` (gathered
/// first) and a 5-byte column (a width that is not a word: hash, then
/// bytes).
#[derive(Debug, Clone, Copy)]
enum KeyShape {
    Word,
    AdjacentWords,
    Gathered,
    Bytes5,
}

impl KeyShape {
    const ALL: [KeyShape; 4] = [
        KeyShape::Word,
        KeyShape::AdjacentWords,
        KeyShape::Gathered,
        KeyShape::Bytes5,
    ];

    fn schema(self) -> Schema {
        match self {
            KeyShape::Bytes5 => Schema::new(vec![
                Column {
                    name: "n".into(),
                    ty: ColumnType::U64,
                },
                Column {
                    name: "k".into(),
                    ty: ColumnType::Bytes(5),
                },
                Column {
                    name: "m".into(),
                    ty: ColumnType::U64,
                },
            ]),
            _ => Schema::uniform_u64(3),
        }
    }

    fn cols(self) -> &'static [usize] {
        match self {
            KeyShape::Word => &[0],
            KeyShape::AdjacentWords => &[0, 1],
            KeyShape::Gathered => &[2, 0],
            KeyShape::Bytes5 => &[1],
        }
    }

    /// The stream of tuples keyed by `keys`, in order: equal numbers give
    /// equal keys, different ones different keys; the other columns
    /// carry the tuple's position.
    fn stream(self, keys: &[u64]) -> Vec<u8> {
        let schema = self.schema();
        let mut stream = Vec::new();
        for (n, &k) in keys.iter().enumerate() {
            let n = n as u64;
            let values = match self {
                KeyShape::Word => [k, n, n],
                KeyShape::AdjacentWords => [k / 3, k % 3, n],
                KeyShape::Gathered => [k % 5, n, k / 5],
                KeyShape::Bytes5 => {
                    let bytes = (k.wrapping_mul(0x9E37_79B9) & 0xFF_FFFF_FFFF).to_le_bytes();
                    let row = Row(vec![
                        Value::U64(n),
                        Value::Bytes(bytes[..5].to_vec()),
                        Value::U64(n),
                    ]);
                    stream.extend(row.encode(&schema));
                    continue;
                }
            };
            stream.extend(Row(values.map(Value::U64).to_vec()).encode(&schema));
        }
        stream
    }
}

/// The two table geometries: a tiny fixed one that overflows at once,
/// and the growable default.
fn distinct_table(tiny: bool) -> CuckooTable<()> {
    if tiny {
        CuckooTable::new(2, 8)
    } else {
        CuckooTable::with_default_geometry()
    }
}

/// Key numbers as runs of recycled keys: each `(raw, run)` is `run`
/// copies of key `raw % alphabet`.
fn runs_of(alphabet: u64, runs: &[(u64, u64)]) -> Vec<u64> {
    runs.iter()
        .flat_map(|&(raw, run)| std::iter::repeat_n(raw % alphabet, run as usize))
        .collect()
}

/// One generated DISTINCT case: `runs` of recycled keys from an
/// alphabet of `alphabet`, keyed as `shape`, at LRU `depth`, on a tiny
/// or the default table, in blocks cycling through `blocks`.
fn distinct_case(
    shape: KeyShape,
    (alphabet, depth, tiny): (u64, usize, bool),
    runs: &[(u64, u64)],
    blocks: &[usize],
) {
    let stream = shape.stream(&runs_of(alphabet, runs));
    assert_distinct_routes_agree(
        &shape.schema(),
        shape.cols(),
        || distinct_table(tiny),
        depth,
        &stream,
        blocks,
    );
}

/// Fresh keys that recur 2..=6 tuples after they were inserted, with
/// 0..=3 other keys between, plus a recycled old key: every repeat
/// lands inside the write-latency window, at a different distance.
fn hazard_window_keys() -> Vec<u64> {
    let mut keys = Vec::new();
    for g in 0..160u64 {
        let new = |i: u64| 1_000 + 4 * g + i;
        keys.extend([
            new(0),
            new(1),
            new(0),
            new(2),
            new(2),
            new(1),
            new(3),
            new(0),
            g % 23,
            new(3),
            new(3),
            new(2),
        ]);
    }
    keys
}

/// Every LRU depth from 0 to 10 — below, at and above `WRITE_LATENCY`
/// — on every key shape and both table geometries: the block route
/// equals the per-tuple machine, shallow registers leak, and from
/// `WRITE_LATENCY - 1` up nothing does (a repeat inside the window has
/// at most that many keys shifted in ahead of it).
#[test]
fn distinct_matches_scalar_at_every_lru_depth_around_the_write_latency() {
    let keys = hazard_window_keys();
    for shape in KeyShape::ALL {
        let stream = shape.stream(&keys);
        for tiny in [false, true] {
            for depth in 0..=10 {
                let op = assert_distinct_routes_agree(
                    &shape.schema(),
                    shape.cols(),
                    || distinct_table(tiny),
                    depth,
                    &stream,
                    &RAGGED_BLOCKS,
                );
                let what = format!("{shape:?}, tiny {tiny}, depth {depth}");
                if depth < 2 {
                    assert!(op.hazard_leaks > 0, "{what}: the fixture must leak");
                }
                if depth >= WRITE_LATENCY - 1 {
                    assert_eq!(op.hazard_leaks, 0, "{what}: the window is closed");
                }
                if depth > 0 {
                    assert!(op.hazard_catches > 0, "{what}: the LRU must catch");
                }
                if tiny {
                    assert!(op.overflow > 0, "{what}: the tiny table must overflow");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One-word keys: runs of recycled keys from alphabets of 1..200, at
    /// any LRU depth 0..=10, on either table, in ragged blocks.
    #[test]
    fn distinct_on_one_word_keys_matches_scalar(
        setup in (1u64..200, 0usize..=10, any::<bool>()),
        runs in prop::collection::vec((any::<u64>(), 1u64..=5), 0..200),
        blocks in prop::collection::vec(1usize..=17, 1..6),
    ) {
        distinct_case(KeyShape::Word, setup, &runs, &blocks);
    }

    /// Two adjacent one-word columns, hashed off the tuple in place.
    #[test]
    fn distinct_on_adjacent_word_keys_matches_scalar(
        setup in (1u64..200, 0usize..=10, any::<bool>()),
        runs in prop::collection::vec((any::<u64>(), 1u64..=5), 0..200),
        blocks in prop::collection::vec(1usize..=17, 1..6),
    ) {
        distinct_case(KeyShape::AdjacentWords, setup, &runs, &blocks);
    }

    /// Non-contiguous key columns `[2, 0]`, gathered before hashing.
    #[test]
    fn distinct_on_gathered_keys_matches_scalar(
        setup in (1u64..200, 0usize..=10, any::<bool>()),
        runs in prop::collection::vec((any::<u64>(), 1u64..=5), 0..200),
        blocks in prop::collection::vec(1usize..=17, 1..6),
    ) {
        distinct_case(KeyShape::Gathered, setup, &runs, &blocks);
    }

    /// A `Bytes(5)` key column: not a word, so compared by hash and bytes.
    #[test]
    fn distinct_on_a_five_byte_key_matches_scalar(
        setup in (1u64..200, 0usize..=10, any::<bool>()),
        runs in prop::collection::vec((any::<u64>(), 1u64..=5), 0..200),
        blocks in prop::collection::vec(1usize..=17, 1..6),
    ) {
        distinct_case(KeyShape::Bytes5, setup, &runs, &blocks);
    }
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

// ---------------------------------------------------------------------------
// The seams of the memory-speed kernels: each case below sits where a
// fast path hands over to the general one (or must not be taken at all).
// ---------------------------------------------------------------------------

const ALL_OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

const ALL_AGGS: [AggFunc; 6] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::SumF64,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

/// The burst grain, then a pattern that never lines up with anything.
const CHUNKINGS: [&[usize]; 2] = [&[4096], &[37, 4096, 1, 640]];

const EDGE_U64: [u64; 5] = [0, 1, 5, u64::MAX - 1, u64::MAX];
const EDGE_I64: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];
const EDGE_F64: [f64; 8] = [
    f64::NAN,
    f64::NEG_INFINITY,
    -1.5,
    -0.0,
    0.0,
    1.5,
    f64::INFINITY,
    f64::MAX,
];
const EDGE_BYTES: [&[u8]; 4] = [b"", b"a", b"ab", b"abcde"];

/// `u: U64, i: I64, f: F64, s: Bytes(5)` — 29-byte rows — holding the
/// full cross product of the edge values, so every comparison meets
/// every pairing (NaN on either side, ±0.0, both integer extremes).
fn edge_table() -> Table {
    let schema = Schema::new(
        [
            ("u", ColumnType::U64),
            ("i", ColumnType::I64),
            ("f", ColumnType::F64),
            ("s", ColumnType::Bytes(5)),
        ]
        .into_iter()
        .map(|(name, ty)| Column {
            name: name.into(),
            ty,
        })
        .collect(),
    );
    let mut b = TableBuilder::new(schema);
    for u in EDGE_U64 {
        for i in EDGE_I64 {
            for f in EDGE_F64 {
                for s in EDGE_BYTES {
                    b.push_values(vec![
                        Value::U64(u),
                        Value::I64(i),
                        Value::F64(f),
                        Value::Bytes(s.to_vec()),
                    ]);
                }
            }
        }
    }
    b.build()
}

/// Every single-comparison predicate over `edge_table`, by column.
fn edge_comparisons() -> Vec<PredicateExpr> {
    let mut preds = Vec::new();
    for op in ALL_OPS {
        let values = (EDGE_U64.map(Value::U64).into_iter().map(|v| (0, v)))
            .chain(EDGE_I64.map(Value::I64).into_iter().map(|v| (1, v)))
            .chain(EDGE_F64.map(Value::F64).into_iter().map(|v| (2, v)))
            .chain(
                EDGE_BYTES
                    .map(|v| Value::Bytes(v.to_vec()))
                    .into_iter()
                    .map(|v| (3, v)),
            );
        preds.extend(values.map(|(col, value)| PredicateExpr::Cmp { col, op, value }));
    }
    preds
}

/// Every operator over every scalar type selects, branch-free over the
/// whole block, exactly what the interpreted predicate does tuple by
/// tuple; byte-string comparisons and every connective stay on the
/// general path and agree too.
#[test]
fn every_comparison_is_route_invariant() {
    let table = edge_table();
    let cmps = edge_comparisons();
    assert_eq!(cmps.len(), 6 * (5 + 5 + 8 + 4));
    let not = |p: &PredicateExpr| PredicateExpr::Not(Box::new(p.clone()));
    let connectives = [
        cmps[0].clone().and(cmps[7].clone()),
        cmps[3].clone().or(cmps[12].clone()),
        not(&cmps[10]),
        not(&cmps[1].clone().and(cmps[20].clone())).or(cmps[15].clone()),
        PredicateExpr::True,
    ];
    for pred in cmps.iter().chain(&connectives) {
        let spec = PipelineSpec::passthrough().filter(pred.clone());
        for chunks in CHUNKINGS {
            assert_equivalent(&spec, table.schema(), table.bytes(), chunks);
        }
    }
}

/// Every aggregate over every scalar type — wrapping `I64` sums,
/// NaN-poisoned and infinite `F64` sums, minima and maxima at the
/// extremes — folded a block at a time per aggregate equals the
/// `Value`-typed fold tuple by tuple, bit for bit.
#[test]
fn typed_aggregates_are_route_invariant() {
    let table = edge_table();
    for col in 0..3 {
        let aggs: Vec<AggSpec> = ALL_AGGS.map(|func| AggSpec { col, func }).to_vec();
        // Keys: one scalar, two adjacent columns, a byte string, and a
        // pair that is not contiguous in the row.
        for keys in [vec![0], vec![0, 1], vec![3], vec![3, 0]] {
            let spec = PipelineSpec::passthrough().group_by(keys, aggs.clone());
            assert_equivalent(&spec, table.schema(), table.bytes(), CHUNKINGS[1]);
        }
    }
}

/// `project([0, 1])` of eight columns is contiguous from byte 0 and is
/// still a projection: only the projection that keeps the *whole* row
/// may take the packer's bulk copy.
#[test]
fn prefix_projection_is_not_identity() {
    let schema = Schema::uniform_u64(8);
    let mut b = TableBuilder::new(schema);
    for i in 0..300u64 {
        b.push_values((0..8).map(|c| Value::U64(i * 8 + c)).collect());
    }
    let table = b.build();
    let spec = PipelineSpec::passthrough().project(vec![0, 1]);
    let mut p = CompiledPipeline::compile(spec.clone(), table.schema()).expect("compiles");
    p.push_bytes(table.bytes());
    p.finish();
    let out = p.drain_output();
    assert_eq!(out.len(), 300 * 16, "two columns a row, not eight");
    assert_eq!(&out[16..24], &8u64.to_le_bytes(), "row 1 starts at its c0");
    for chunks in CHUNKINGS {
        assert_equivalent(&spec, table.schema(), table.bytes(), chunks);
    }
}

/// Projections on both sides of the identity test — the whole row,
/// prefixes, suffixes, permutations, with and without a byte-string
/// column — under a full selection (bulk copy / gather) and a partial
/// one (coalesced runs / indexed gather).
#[test]
fn projections_are_route_invariant() {
    let words = {
        let mut b = TableBuilder::new(Schema::uniform_u64(8));
        for i in 0..300u64 {
            b.push_values((0..8).map(|c| Value::U64((i * 7 + c * 13) % 97)).collect());
        }
        b.build()
    };
    let edge = edge_table();
    let cases: [(&Table, &[&[usize]]); 2] = [
        (
            &words,
            &[
                &[0, 1, 2, 3, 4, 5, 6, 7],
                &[0, 1],
                &[6, 7],
                &[2, 0],
                &[7, 3, 5],
            ],
        ),
        (
            &edge,
            &[&[0, 1, 2, 3], &[3], &[0, 3], &[3, 2], &[1, 0, 3, 2]],
        ),
    ];
    for (table, projections) in cases {
        for cols in projections {
            let project = PipelineSpec::passthrough().project(cols.to_vec());
            let filtered = project.clone().filter(PredicateExpr::lt(0, 40u64));
            for spec in [project, filtered] {
                for chunks in CHUNKINGS {
                    assert_equivalent(&spec, table.schema(), table.bytes(), chunks);
                }
            }
        }
    }
}

/// 13- and 24-byte rows never divide a 4 KiB burst: every burst ends
/// mid-tuple and the frame carries the remainder over. Every kind of
/// stage behind that framing, including a predicate narrowing the
/// selection a regex then scans.
#[test]
fn odd_row_widths_straddle_bursts() {
    let narrow = {
        let schema = Schema::new(vec![
            Column {
                name: "k".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "s".into(),
                ty: ColumnType::Bytes(5),
            },
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..1500u64 {
            let s: Vec<u8> = (0..5)
                .map(|j| b"abcx"[((i >> (2 * j)) & 3) as usize])
                .collect();
            b.push_values(vec![Value::U64(i % 53), Value::Bytes(s)]);
        }
        b.build()
    };
    assert_eq!(narrow.schema().row_bytes(), 13);
    let sum = |col| {
        vec![AggSpec {
            col,
            func: AggFunc::Sum,
        }]
    };
    let narrow_specs = [
        PipelineSpec::passthrough(),
        PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 20u64)),
        PipelineSpec::passthrough().project(vec![1]),
        PipelineSpec::passthrough()
            .filter(PredicateExpr::lt(0, 30u64))
            .regex_match(1, "a+b"),
        PipelineSpec::passthrough().distinct(vec![1]),
        PipelineSpec::passthrough().group_by(vec![1], sum(0)),
    ];
    for spec in &narrow_specs {
        assert_equivalent(spec, narrow.schema(), narrow.bytes(), CHUNKINGS[0]);
    }

    let three = {
        let mut b = TableBuilder::new(Schema::uniform_u64(3));
        for i in 0..1000u64 {
            b.push_values(vec![Value::U64(i % 41), Value::U64(i), Value::U64(i % 7)]);
        }
        b.build()
    };
    assert_eq!(three.schema().row_bytes(), 24);
    let three_specs = [
        PipelineSpec::passthrough(),
        PipelineSpec::passthrough().filter(PredicateExpr::gt(2, 3u64)),
        PipelineSpec::passthrough()
            .project(vec![2, 0])
            .filter(PredicateExpr::lt(0, 20u64)),
        PipelineSpec::passthrough().distinct(vec![0, 2]),
        PipelineSpec::passthrough().group_by(vec![0], sum(1)),
        PipelineSpec::passthrough().group_by(vec![2, 0], sum(1)),
    ];
    for spec in &three_specs {
        assert_equivalent(spec, three.schema(), three.bytes(), CHUNKINGS[0]);
    }
}

/// GROUP BY over a table of two ways × four buckets: almost every new
/// key sends some group homeless, *mid-block*, and its overflow row must
/// carry exactly the tuples folded so far — the block route folds per
/// aggregate after resolving the block, so this is where it could come
/// apart from the per-tuple fold. Contiguous, non-contiguous and
/// byte-string keys, every aggregate, identity and narrowed selections,
/// ragged blocks.
#[test]
fn group_by_overflow_mid_block_matches_scalar() {
    // 61 scattered keys, wrapping and negative payloads, 29-byte rows.
    let table = {
        let mut b = TableBuilder::new(edge_table().schema().clone());
        for i in 0..800u64 {
            let s: Vec<u8> = (0..4)
                .map(|j| b"abcx"[((i >> (2 * j)) & 3) as usize])
                .collect();
            b.push_values(vec![
                Value::U64(i * 31 % 61),
                Value::I64(EDGE_I64[(i % 5) as usize] / 2 + i as i64),
                Value::F64(EDGE_F64[(i % 7 + 1) as usize]),
                Value::Bytes(s),
            ]);
        }
        b.build()
    };
    let schema = table.schema();
    let tb = schema.row_bytes();
    let aggs: Vec<AggSpec> = ALL_AGGS.map(|func| AggSpec { col: 1, func }).to_vec();
    for key_cols in [&[0usize][..], &[0, 1], &[2, 0], &[3], &[3, 1]] {
        for keep_every in [1usize, 3] {
            let plan = || ProjectionPlan::new(schema, Some(key_cols)).expect("plan");
            let mut scalar_op =
                ScalarGroupBy::new(plan(), aggs.clone(), schema.clone(), CuckooTable::new(2, 4));
            let mut block_op = GroupByOp::with_table(plan(), &aggs, schema, CuckooTable::new(2, 4));
            let mut scalar_out = Vec::new();
            let mut packer = Packer::passthrough();
            let mut off = 0usize;
            for lens in [5usize, 1, 64, 2, 17, 141].iter().cycle() {
                if off >= table.bytes().len() {
                    break;
                }
                let take = (lens * tb).min(table.bytes().len() - off);
                let block = TupleBlock::new(&table.bytes()[off..off + take], tb);
                off += take;
                let sel: Vec<u32> = (0..block.len() as u32)
                    .filter(|i| *i as usize % keep_every == 0)
                    .collect();
                for &i in &sel {
                    scalar_op.push(block.tuple(i), &mut |t| scalar_out.extend_from_slice(t));
                }
                if !sel.is_empty() {
                    block_op.push_block(&block, &sel, &mut packer);
                }
            }
            scalar_op.flush(&mut |t| scalar_out.extend_from_slice(t));
            block_op.flush(&mut packer);
            let what = format!("keys {key_cols:?}, every {keep_every}");
            assert_eq!(scalar_out, packer.drain(), "{what}");
            assert_eq!(
                scalar_op.overflow_tuples(),
                block_op.overflow_tuples(),
                "{what}"
            );
            assert_eq!(
                scalar_op.flushed_entries(),
                block_op.flushed_entries(),
                "{what}"
            );
            assert!(
                block_op.overflow_tuples() > 100,
                "fixture must overflow: {what}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// A reset pipeline is a fresh compile. A fleet query runs one compiled
// pipeline over shard after shard, reset in place between them, so no
// operator state — cuckoo geometry and contents, LRU, hazard window,
// group slots, packer, CTR offsets, compressor tail — may cross a reset.
// ---------------------------------------------------------------------------

/// `k v w s`: `k` the grouping and join key, `v` what predicates and
/// aggregates read, `w` a second key column not adjacent to `k`, and the
/// string `s` regexes match.
fn keyed_schema() -> Schema {
    let cols = [
        ("k", ColumnType::U64),
        ("v", ColumnType::U64),
        ("w", ColumnType::U64),
        ("s", ColumnType::Bytes(8)),
    ];
    Schema::new(
        cols.into_iter()
            .map(|(name, ty)| Column {
                name: name.into(),
                ty,
            })
            .collect(),
    )
}

/// Row `i` of a table, keyed `k`.
fn keyed_row(i: u64, k: u64) -> Vec<Value> {
    let mix = i.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ k;
    let s = (0..6).map(|j| b"abcx"[(mix >> (2 * j) & 3) as usize]);
    vec![
        Value::U64(k),
        Value::U64(mix % 1000),
        Value::U64(k % 97),
        Value::Bytes(s.collect()),
    ]
}

/// The one-word key whose primary hash (`fv_pipeline::cuckoo::hash_key`)
/// is `h`. The hash is one multiply-rotate round over the seed and a
/// splitmix finalizer, every step a bijection, so it inverts step by
/// step.
fn key_hashing_to(h: u64) -> u64 {
    const M1: u64 = 0xBF58_476D_1CE4_E5B9;
    const M2: u64 = 0x94D0_49BB_1331_11EB;
    // The primary seed, as the hash absorbs it.
    const SEED: u64 = 0x5851_F42D_4C95_7F2D ^ 0x9E37_79B9_7F4A_7C15;
    // Newton's iteration doubles the correct low bits: 3, 6, .., 96.
    let inv = |m: u64| {
        (0..5).fold(m, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)))
        })
    };
    // `x ^ x >> s`, undone `s` bits at a time from the top.
    let unshift = |x: u64, s: u32| (0..64 / s).fold(x, |y, _| x ^ (y >> s));
    let x = unshift(h, 31).wrapping_mul(inv(M2));
    let x = unshift(x, 27).wrapping_mul(inv(M1));
    let x = unshift(x, 30);
    x.rotate_right(23).wrapping_mul(inv(M1)) ^ SEED
}

/// Distinct keys of input A: past the 2 × 1 Ki entries at which a
/// grouping table first grows out of 4 ways × 1 Ki buckets.
const A_KEYS: u64 = 2500;
/// Keys of input B that share their bucket in every way of a 4 × 1 Ki
/// table: each way reads a 16-bit window of the primary hash, and these
/// hashes agree in the low 10 bits of all four. A fresh table places
/// four of them; one of A's grown geometry (11 bits a way) places up to
/// eight, so other keys go homeless.
const B_COLLIDING: u64 = 200;

/// Input A; input B: A's last rows first (where a stale LRU, hazard
/// window or table would catch them as duplicates), then the colliding
/// keys twice over and some of A's keys; and a join build side holding
/// some of A's keys.
fn reset_inputs(seed_a: u64, seed_b: u64) -> (Table, Table, Table) {
    let a_key = |i: u64| (i % A_KEYS).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed_a;
    let mut a = TableBuilder::new(keyed_schema());
    let a_rows = A_KEYS + 500;
    for i in 0..a_rows {
        a.push_values(keyed_row(i, a_key(i)));
    }
    let mut b = TableBuilder::new(keyed_schema());
    for i in a_rows - 8..a_rows {
        b.push_values(keyed_row(i, a_key(i)));
    }
    let mut rng = seed_b;
    let colliding: Vec<u64> = (0..B_COLLIDING)
        .map(|_| {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let free = (rng ^ rng >> 29).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let h = 0x02A5_02A5_02A5_02A5 | free & 0xFC00_FC00_FC00_FC00;
            let key = key_hashing_to(h);
            assert_eq!(hash_key(&key.to_le_bytes()), h, "the hash inverted");
            key
        })
        .collect();
    for (i, &k) in colliding.iter().chain(&colliding).enumerate() {
        b.push_values(keyed_row(i as u64, k));
    }
    for i in 0..300 {
        b.push_values(keyed_row(i, a_key(i * 7)));
    }
    let mut build = TableBuilder::new(keyed_schema());
    for i in 0..32 {
        build.push_values(keyed_row(i, a_key(i)));
    }
    (a.build(), b.build(), build.build())
}

/// How many specs `reset_spec` builds: filter, regex, two DISTINCTs,
/// GROUP BY, join, smart addressing and a plain projection.
const RESET_KINDS: usize = 8;

/// Spec `kind` with the generated codec stages around it.
fn reset_spec(
    kind: usize,
    (decrypt, compress, encrypt, vectorize): (bool, bool, bool, bool),
    threshold: u64,
    build: &Table,
) -> PipelineSpec {
    let key = CryptoSpec {
        key: AES_KEY,
        iv: AES_IV,
    };
    let all_aggs = ALL_AGGS.map(|func| AggSpec { col: 1, func }).to_vec();
    let below = || PredicateExpr::lt(1, threshold);
    let mut spec = match kind {
        0 => PipelineSpec::passthrough().filter(below()),
        1 => PipelineSpec::passthrough()
            .filter(below())
            .regex_match(3, "a+b|cx"),
        2 => PipelineSpec::passthrough().distinct(vec![0]),
        3 => PipelineSpec::passthrough().distinct(vec![2, 0]),
        4 => PipelineSpec::passthrough().group_by(vec![0], all_aggs),
        5 => PipelineSpec::passthrough()
            .filter(below())
            .join_small(JoinSmallSpec::new(0, build, 0)),
        6 => PipelineSpec::passthrough()
            .project(vec![2, 0])
            .with_smart_addressing(),
        _ => PipelineSpec::passthrough().project(vec![3, 1]),
    };
    if decrypt {
        spec = spec.decrypt(key.clone());
    }
    if compress {
        spec = spec.compress();
    }
    if encrypt {
        spec = spec.encrypt(key);
    }
    if vectorize {
        spec = spec.vectorized();
    }
    spec
}

/// Everything one stream through a pipeline produced.
#[derive(Debug, PartialEq)]
struct Ran {
    bytes: Vec<u8>,
    stats: fv_pipeline::PipelineStats,
    fill_cycles: u64,
    flush_cycles: u64,
    batched_blocks: u64,
    packed_words: u64,
    compression: Option<(u64, u64)>,
}

/// Stream `data` through `p`, cut by cycling `chunks`, draining after
/// every chunk as the episode engine does.
fn stream(p: &mut CompiledPipeline, data: &[u8], chunks: &[usize]) -> Ran {
    let mut bytes = Vec::new();
    let mut rest = data;
    for &len in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, later) = rest.split_at(len.min(rest.len()));
        p.push_bytes(chunk);
        bytes.extend(p.drain_output());
        rest = later;
    }
    p.finish();
    bytes.extend(p.drain_output());
    Ran {
        bytes,
        stats: p.stats(),
        fill_cycles: p.fill_cycles(),
        flush_cycles: p.flush_cycles(),
        batched_blocks: p.batched_blocks(),
        packed_words: p.packed_words(),
        compression: p.compression_totals(),
    }
}

/// The bytes the node streams into `p` for `table`: its rows, encrypted
/// at rest under a decrypting spec, gathered under smart addressing.
fn node_stream(p: &CompiledPipeline, table: &Table) -> Vec<u8> {
    let mut stored = table.bytes().to_vec();
    if p.spec().decrypt_input.is_some() {
        fv_crypto::ctr_apply_at(&AES_KEY, &AES_IV, 0, &mut stored);
    }
    let Some(sa) = p.smart_addressing() else {
        return stored;
    };
    let mut gathered = Vec::new();
    for at in (0..stored.len()).step_by(sa.row_bytes) {
        sa.gather(&stored, at, &mut gathered);
    }
    gathered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Run input A through a pipeline, reset it, then run input B: the
    /// bytes, every `PipelineStats` field, the fill and flush cycles and
    /// the host-side counters equal a fresh compile's run over B — for a
    /// spec around every operator, each under generated codec stages
    /// (decrypt, compress, encrypt, vectorized) and chunking. A grows a
    /// grouping table past its starting geometry and B overflows a
    /// table of that starting geometry, so a reset that kept A's
    /// geometry sends other keys homeless.
    #[test]
    fn a_reset_pipeline_is_a_fresh_compile(
        codecs in prop::collection::vec(
            (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
            RESET_KINDS,
        ),
        threshold in 0u64..1000,
        seeds in (any::<u64>(), any::<u64>()),
        chunks in prop::collection::vec(1usize..9000, 1..6),
    ) {
        let (a, b, build) = reset_inputs(seeds.0, seeds.1);
        for (kind, &codecs) in codecs.iter().enumerate() {
            let spec = reset_spec(kind, codecs, threshold, &build);
            let compile = || CompiledPipeline::compile(spec.clone(), a.schema()).expect("compiles");
            let mut reused = compile();
            let (a_in, b_in) = (node_stream(&reused, &a), node_stream(&reused, &b));
            stream(&mut reused, &a_in, &chunks);
            reused.reset();
            let got = stream(&mut reused, &b_in, &chunks);
            let want = stream(&mut compile(), &b_in, &chunks);
            prop_assert!(
                got.bytes == want.bytes,
                "output bytes: {} after a reset, {} fresh, for {spec:?}",
                got.bytes.len(),
                want.bytes.len()
            );
            prop_assert_eq!(got.stats, want.stats, "PipelineStats for {:?}", spec);
            prop_assert_eq!(got, want, "cycles and host counters for {:?}", spec);
            if kind == 2 || kind == 4 {
                prop_assert!(want.stats.overflow_tuples > 0, "B must overflow: {spec:?}");
            }
        }
    }
}
