//! Property-based equivalence of the vectorized block datapath.
//!
//! The block path (selection vectors + gather-at-pack + per-block
//! operator dispatch) and the scalar per-tuple path (the seed execution
//! model, `CompiledPipeline::force_scalar`) are two routes through the
//! same operator semantics: for **every** operator combination, chunking
//! pattern and ragged final block, their outputs must be byte-identical
//! and their counters equal. Likewise the parallel fleet scatter
//! (`Executor::fleet`) against its serial reference
//! (`Executor::fleet_serial`), and the execute-once replica read against
//! the seed's execute-every-replica race.

use proptest::prelude::*;

use farview::prelude::*;
use farview_core::plan::{scatter_workers, SCATTER_MIN_BYTES_PER_WORKER};
use farview_core::{AggFunc, AggSpec, Executor, PredicateExpr};
use fv_pipeline::cuckoo::CuckooTable;
use fv_pipeline::distinct::{DistinctOp, DEFAULT_LRU_DEPTH};
use fv_pipeline::pack::Packer;
use fv_pipeline::project::ProjectionPlan;
use fv_pipeline::{
    CompiledPipeline, CryptoSpec, JoinSmallSpec, PipelineStats, StreamOperator, TupleBlock,
};
use fv_regex::Regex;

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

/// Stream `data` through a fresh compile of `spec`, slicing it by
/// cycling `chunk_sizes`, draining after every chunk exactly like the
/// episode engine does. `scalar` selects the reference per-tuple path.
fn run_pipeline(
    spec: &PipelineSpec,
    schema: &Schema,
    data: &[u8],
    chunk_sizes: &[usize],
    scalar: bool,
) -> (Vec<u8>, PipelineStats) {
    let mut p = CompiledPipeline::compile(spec.clone(), schema).expect("spec compiles");
    p.force_scalar(scalar);
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
}

/// Assert both routes agree on bytes and counters.
fn assert_equivalent(spec: &PipelineSpec, schema: &Schema, data: &[u8], chunks: &[usize]) {
    let (block, block_stats) = run_pipeline(spec, schema, data, chunks, false);
    let (scalar, scalar_stats) = run_pipeline(spec, schema, data, chunks, true);
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

    /// Passthrough, filter, project and the fused filter+project scan.
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
        for (i, spec) in specs.iter().enumerate() {
            let data: &[u8] = if spec.decrypt_input.is_some() {
                &cipher
            } else {
                table.bytes()
            };
            let _ = i;
            assert_equivalent(spec, schema, data, &chunks);
        }
    }

    /// The fleet scatter joins in slot order: payloads, schemas and
    /// fleet-aggregated stats are byte-identical to the serial
    /// reference for single queries and doorbell batches — on both
    /// sides of the size gate. `Executor::fleet` spawns workers only
    /// for ≥ 256 KiB of scan per worker, so every case runs a small
    /// table (the route stays on the calling thread), then a 64–96 KiB
    /// table at a depth that keeps the batch below 512 KiB and at
    /// depth 8, which puts it above.
    #[test]
    fn parallel_scatter_matches_serial(
        small in arb_table(120, 3, 300),
        big_rows in (64 * 1024 / 24 + 1)..=(96 * 1024 / 24usize),
        big_seed in 0u64..1 << 32,
        nodes in 1usize..5,
        thresholds in prop::collection::vec(0u64..300, 8),
        small_depth in 1usize..4,
        below_depth in 1usize..=5,
    ) {
        let big = TableGen::new(3, big_rows)
            .seed(big_seed)
            .distinct_column(0, 300)
            .build();
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (table, depth, above_gate) in [
            (&small, small_depth, false),
            (&big, below_depth, false),
            (&big, 8, true),
        ] {
            let scanned = (table.bytes().len() * depth) as u64;
            let workers = scatter_workers(scanned, nodes, host);
            if above_gate {
                prop_assert!(scanned >= 2 * SCATTER_MIN_BYTES_PER_WORKER);
                if host >= 2 && nodes >= 2 {
                    prop_assert!(workers >= 2, "{scanned} B over {nodes} slots ran serially");
                }
            } else {
                prop_assert_eq!(workers, 1);
            }
            // Two identically shaped fleets, so the stateful region
            // bookkeeping (pipeline fingerprints → `reconfigured`
            // flags) starts from the same point on both routes.
            let run = |parallel: bool| {
                let fleet = FarviewFleet::new(nodes, FarviewConfig::tiny());
                let qp = fleet.connect().unwrap();
                let (ft, _) = qp.load_table(table, Partitioning::RowRange).unwrap();
                let specs: Vec<PipelineSpec> = thresholds[..depth]
                    .iter()
                    .map(|&t| PipelineSpec::passthrough().filter(PredicateExpr::lt(0, t)))
                    .collect();
                if parallel {
                    Executor::fleet(&qp, &ft, &specs).unwrap()
                } else {
                    Executor::fleet_serial(&qp, &ft, &specs).unwrap()
                }
            };
            let parallel = run(true);
            let serial = run(false);
            prop_assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                prop_assert_eq!(&p.merged.payload, &s.merged.payload);
                prop_assert_eq!(&p.merged.schema, &s.merged.schema);
                prop_assert_eq!(p.merged.stats, s.merged.stats);
                prop_assert_eq!(&p.per_shard, &s.per_shard);
            }
        }
    }
}

/// Feed `stream` through a fresh `DistinctOp` per route — per-tuple
/// `push` vs `push_block` over ragged identity blocks — and assert the
/// emitted bytes and every hazard/overflow counter agree.
fn assert_distinct_routes_agree(make_op: impl Fn() -> DistinctOp, stream: &[u8], tb: usize) {
    let mut scalar_op = make_op();
    let mut scalar_out = Vec::new();
    for tuple in stream.chunks_exact(tb) {
        scalar_op.push(tuple, &mut |t| scalar_out.extend_from_slice(t));
    }

    let mut block_op = make_op();
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
    assert_eq!(scalar_op.emitted(), block_op.emitted());
    assert_eq!(scalar_op.hazard_leaks(), block_op.hazard_leaks());
    assert_eq!(scalar_op.hazard_catches(), block_op.hazard_catches());
    assert_eq!(scalar_op.overflow_tuples(), block_op.overflow_tuples());
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
        let make_op = || {
            let keys = ProjectionPlan::new(&Schema::uniform_u64(2), Some(&[0])).expect("plan");
            DistinctOp::with_geometry(keys, CuckooTable::with_default_geometry(), depth)
        };
        assert_distinct_routes_agree(make_op, &stream, tb);
        // Sanity on the fixture itself: depth 0 must actually leak.
        let mut op = make_op();
        for tuple in stream.chunks_exact(tb) {
            op.push(tuple, &mut |_| {});
        }
        if depth == 0 {
            assert!(op.hazard_leaks() > 0, "depth-0 fixture must exercise leaks");
        } else {
            assert!(
                op.hazard_catches() > 0,
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
    let make_op = || {
        let keys = ProjectionPlan::new(&Schema::uniform_u64(2), Some(&[0])).expect("plan");
        DistinctOp::with_geometry(keys, CuckooTable::new(2, 8), DEFAULT_LRU_DEPTH)
    };
    assert_distinct_routes_agree(make_op, &stream, tb);
    let mut op = make_op();
    for tuple in stream.chunks_exact(tb) {
        op.push(tuple, &mut |_| {});
    }
    assert!(op.overflow_tuples() > 0, "fixture must actually overflow");
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

/// Replica-race regression (the dedup satellite): with `r = 2`, one
/// fleet query executes the datapath **once per shard slot** — not once
/// per replica — while a node kill is still survived byte-identically.
#[test]
fn replicated_reads_execute_once_per_slot() {
    let schema = Schema::uniform_u64(3);
    let mut b = TableBuilder::with_capacity(schema, 256);
    for i in 0..256u64 {
        b.push_values(vec![Value::U64(i % 13), Value::U64(i), Value::U64(i / 2)]);
    }
    let table = b.build();

    let fleet = FarviewFleet::new(4, FarviewConfig::tiny());
    let qp = fleet.connect().unwrap();
    let (ft, _) = qp
        .load_table_replicated(&table, Partitioning::RowRange, 2)
        .unwrap();
    let shards = ft.placement().shard_count();
    assert_eq!(ft.replicas(), 2);

    let episodes = || -> u64 {
        (0..fleet.node_count())
            .map(|i| fleet.node(i).expect("live node").episodes_run())
            .sum()
    };

    let spec = PipelineSpec::passthrough().filter(PredicateExpr::lt(1, 128u64));
    let before = episodes();
    let healthy = qp.far_view(&ft, &spec).unwrap();
    assert_eq!(
        episodes() - before,
        shards as u64,
        "one query must run the datapath exactly once per shard slot \
         (the replica race is modeled, not re-executed)"
    );

    // Kill one node: the surviving replica of each of its slots serves
    // the same bytes.
    let victim = fleet.node_ids()[0];
    fleet.remove_node(victim).unwrap();
    let post_kill = qp.far_view(&ft, &spec).unwrap();
    assert_eq!(
        post_kill.merged.payload, healthy.merged.payload,
        "a single node kill at r=2 must not change a byte"
    );
    assert_eq!(post_kill.merged.schema, healthy.merged.schema);
}
