//! The `hotpath` experiment: **wall-clock** microbenchmarks of the
//! vectorized block datapath.
//!
//! Everything else in this harness reports *simulated* time — the
//! discrete-event model's answer to "how long would the hardware take".
//! This experiment instead measures how fast the **host implementation**
//! itself runs, which is what PR-over-PR perf work optimizes:
//!
//! * **Operators, block vs per-tuple** — each operator pipeline streams
//!   the same table through `CompiledPipeline` twice, once on the
//!   default vectorized block path and once with
//!   [`force_scalar`](fv_pipeline::CompiledPipeline::force_scalar) (the
//!   seed per-tuple execution model), asserting byte-identical output
//!   and reporting tuples/second for both.
//! * **Fleet scatter, gated vs serial** — the same query batch runs
//!   through `Executor::fleet` (workers sized by `scatter_workers` from
//!   the bytes the batch scans) and `Executor::fleet_serial`, asserting
//!   byte-identical merged results and reporting wall-clock per batch
//!   at 1 → 8 nodes for a table on each side of the gate: 64 KiB (the
//!   production route stays on the calling thread) and 4 MiB (it fans
//!   out).
//! * **Result path, whole query** — host µs for one complete
//!   `QPair::far_view` of a 1 MiB table (plan, burst schedule, episode
//!   engine, packets, reassembly), for the two shapes whose result is
//!   all packets: `read` (1025 of them) and `select50` (about half as
//!   many). Divided
//!   by the packet count it is the cost of carrying 1 kB from the packer
//!   to the caller's `QueryOutcome` — one copy, no per-packet
//!   allocation. `figures smoke` gates the recorded `read` row at 1.15 µs
//!   per packet.
//!
//! * **Operator kernels** — the two operators whose host cost is a
//!   kernel of their own rather than the block datapath: AES-128-CTR in
//!   ns per byte over 128 KiB, `CompiledPipeline::compile` of the regex
//!   spec in µs (parse, NFA, byte-class DFA), and whole `far_view`s of
//!   the two query shapes they sit in — `decrypt → group_by` over a
//!   128 KiB encrypted table and the 10 %-match regex scan. `figures
//!   smoke` gates the recorded rows at 5.0 ns/B and 100 µs (the byte-wise
//!   cipher ran at 11 ns/B, the per-byte subset construction at 250 µs
//!   twice per compile).
//!
//! `figures hotpath` renders the figure **and** writes the machine-
//! readable `BENCH_PR8.json` so future PRs have a perf baseline to beat.

use std::time::Instant;

use farview_core::plan::scatter_workers;
use farview_core::{
    AggFunc, AggSpec, Executor, FarviewCluster, FarviewConfig, FarviewFleet, JoinSmallSpec,
    Partitioning, PipelineSpec, PredicateExpr,
};
use fv_data::Table;
use fv_pipeline::{CompiledPipeline, CryptoSpec};
use fv_workload::{encrypt_table, StringTableGen, TableGen, REGEX_PATTERN};

use crate::figure::Figure;

/// Node counts swept by the scatter half of the experiment.
pub const HOTPATH_FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Table sizes (KiB) of the scatter half, one on each side of
/// `Executor::fleet`'s size gate at the depth-2 batch measured.
pub const HOTPATH_SCATTER_TABLE_KIB: [usize; 2] = [64, 4096];

/// Table size (KiB) of the result-path half: 1 MiB in, 1025 packets out
/// of a `read`.
pub const HOTPATH_RESULT_TABLE_KIB: usize = 1024;

/// Bytes (KiB) the AES-CTR kernel row and the `decrypt_groupby` row
/// decrypt: fvbench `agg_batch`'s encrypted table.
pub const HOTPATH_CRYPT_TABLE_KIB: usize = 128;

/// One operator's block-vs-scalar measurement.
#[derive(Debug, Clone)]
pub struct OperatorSample {
    /// Operator pipeline name.
    pub op: String,
    /// Tuples/second on the vectorized block path.
    pub block_tuples_per_s: f64,
    /// Tuples/second on the per-tuple scalar path (the seed model).
    pub scalar_tuples_per_s: f64,
    /// Blocks the pipeline's operators handled on their batched fast
    /// path (hash-all/probe-all for the stateful hash operators, the
    /// DFA prefilter scan for regex) during one block-route stream.
    /// Zero for stateless pipelines, whose block path needs no
    /// per-operator batching.
    pub batched_blocks: u64,
}

impl OperatorSample {
    /// Block-path speedup over the scalar path.
    pub fn speedup(&self) -> f64 {
        self.block_tuples_per_s / self.scalar_tuples_per_s
    }
}

/// One (table size, fleet size) scatter measurement: the production
/// route (size-gated scatter + execute-once replicas) against the
/// serial-dedup reference (isolates threading) and the seed reference
/// (serial scatter + every replica executed — the pre-PR model).
#[derive(Debug, Clone)]
pub struct ScatterSample {
    /// Size of the scattered table, KiB.
    pub table_kib: usize,
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Replicas per shard of the measured table.
    pub replicas: usize,
    /// Workers `Executor::fleet` ran this batch on, the caller included
    /// (`scatter_workers` at this host's parallelism).
    pub workers: usize,
    /// Wall-clock milliseconds per batch, size-gated scatter + replica
    /// dedup (the production `Executor::fleet`).
    pub parallel_ms: f64,
    /// Wall-clock milliseconds per batch, serial scatter + replica
    /// dedup (`Executor::fleet_serial`).
    pub serial_ms: f64,
    /// Wall-clock milliseconds per batch of the seed model — serial
    /// scatter, every surviving replica executed
    /// (`Executor::fleet_seed_reference`).
    pub seed_ms: f64,
}

impl ScatterSample {
    /// Production-scatter speedup over the serial-dedup reference
    /// (threading only: ≈ 1 when `workers` is 1, the same code ran).
    pub fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms
    }

    /// Production-route speedup over the seed model (threading × the
    /// `r×` replica dedup).
    pub fn speedup_vs_seed(&self) -> f64 {
        self.seed_ms / self.parallel_ms
    }
}

/// One whole-query result-path measurement: a complete
/// `QPair::far_view` whose result is carried to the caller in `packets`
/// 1 kB packets.
#[derive(Debug, Clone)]
pub struct ResultPathSample {
    /// Query shape (`read` or `select50`).
    pub query: String,
    /// Size of the scanned table, KiB.
    pub table_kib: usize,
    /// Response packets of one query (the FIN included).
    pub packets: u64,
    /// Wall-clock microseconds per whole query, fastest repetition.
    pub far_view_us: f64,
}

impl ResultPathSample {
    /// Whole-query host time per response packet, µs.
    pub fn us_per_packet(&self) -> f64 {
        self.far_view_us / self.packets as f64
    }
}

/// One operator-kernel measurement: `value` is recorded in the JSON row
/// under the key `metric`.
#[derive(Debug, Clone)]
pub struct KernelSample {
    /// `aes_ctr`, `regex_compile`, `decrypt_groupby` or `regex10`.
    pub kernel: &'static str,
    /// `ctr_ns_per_byte`, `regex_compile_us` or `far_view_us`.
    pub metric: &'static str,
    /// KiB of input the kernel reads (0 for the compile).
    pub input_kib: usize,
    /// Fastest repetition, in the metric's unit.
    pub value: f64,
}

/// The full hotpath measurement: what `BENCH_PR8.json` records.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Rows per operator table.
    pub rows: usize,
    /// Timed repetitions per measurement.
    pub reps: usize,
    /// CPUs the host would schedule the run on — what every scatter
    /// row's `workers` and timing depend on.
    pub host_parallelism: usize,
    /// Per-operator block-vs-scalar samples.
    pub operators: Vec<OperatorSample>,
    /// Scatter samples, table size major, fleet size minor.
    pub scatter: Vec<ScatterSample>,
    /// Whole-query result-path samples.
    pub result_path: Vec<ResultPathSample>,
    /// AES-CTR, regex compile, and the two whole queries they sit in.
    pub operator_kernels: Vec<KernelSample>,
}

impl HotpathReport {
    /// Serialize as pretty JSON (hand-rolled — the offline build has no
    /// `serde_json`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"hotpath\",\n");
        out.push_str("  \"units\": {\"operators\": \"tuples/s (wall-clock)\", \"scatter\": \"ms/batch (wall-clock)\", \"result_path\": \"us/query (wall-clock)\", \"operator_kernels\": \"per row (wall-clock)\"},\n");
        out.push_str(&format!("  \"rows\": {},\n", self.rows));
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        out.push_str("  \"operators\": [\n");
        for (i, s) in self.operators.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"op\": \"{}\", \"block_tuples_per_s\": {:.0}, \"scalar_tuples_per_s\": {:.0}, \"speedup\": {:.2}, \"batched_blocks\": {}}}{}\n",
                s.op,
                s.block_tuples_per_s,
                s.scalar_tuples_per_s,
                s.speedup(),
                s.batched_blocks,
                if i + 1 == self.operators.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"scatter\": [\n");
        for (i, s) in self.scatter.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"table_kib\": {}, \"nodes\": {}, \"replicas\": {}, \"workers\": {}, \"parallel_ms\": {:.3}, \"serial_ms\": {:.3}, \"seed_ms\": {:.3}, \"parallel_vs_serial\": {:.2}, \"vs_seed\": {:.2}}}{}\n",
                s.table_kib,
                s.nodes,
                s.replicas,
                s.workers,
                s.parallel_ms,
                s.serial_ms,
                s.seed_ms,
                s.speedup(),
                s.speedup_vs_seed(),
                if i + 1 == self.scatter.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"result_path\": [\n");
        for (i, s) in self.result_path.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"query\": \"{}\", \"table_kib\": {}, \"packets\": {}, \"far_view_us\": {:.1}, \"us_per_packet\": {:.3}}}{}\n",
                s.query,
                s.table_kib,
                s.packets,
                s.far_view_us,
                s.us_per_packet(),
                if i + 1 == self.result_path.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"operator_kernels\": [\n");
        for (i, s) in self.operator_kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"input_kib\": {}, \"{}\": {:.2}}}{}\n",
                s.kernel,
                s.input_kib,
                s.metric,
                s.value,
                if i + 1 == self.operator_kernels.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render as a [`Figure`] (x = operator index for the operator
    /// series, x = node count for the scatter series).
    pub fn to_figure(&self) -> Figure {
        let names: Vec<String> = self
            .operators
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{i}={}", s.op))
            .collect();
        let mut f = Figure::new(
            "hotpath",
            &format!(
                "Wall-clock hot path: block vs per-tuple ({}), parallel vs serial scatter",
                names.join(" ")
            ),
            "operator index · nodes",
            "tuples/s · ms/batch",
        );
        f.push_series(
            "block [tuples/s]",
            self.operators
                .iter()
                .enumerate()
                .map(|(i, s)| (i as f64, s.block_tuples_per_s))
                .collect(),
        );
        f.push_series(
            "per-tuple [tuples/s]",
            self.operators
                .iter()
                .enumerate()
                .map(|(i, s)| (i as f64, s.scalar_tuples_per_s))
                .collect(),
        );
        f.push_series(
            "block speedup [x]",
            self.operators
                .iter()
                .enumerate()
                .map(|(i, s)| (i as f64, s.speedup()))
                .collect(),
        );
        let mut sizes: Vec<usize> = self.scatter.iter().map(|s| s.table_kib).collect();
        sizes.dedup();
        for kib in sizes {
            let series = |pick: fn(&ScatterSample) -> f64| -> Vec<(f64, f64)> {
                self.scatter
                    .iter()
                    .filter(|s| s.table_kib == kib)
                    .map(|s| (s.nodes as f64, pick(s)))
                    .collect()
            };
            f.push_series(
                &format!("scatter parallel {kib} KiB [ms]"),
                series(|s| s.parallel_ms),
            );
            f.push_series(
                &format!("scatter serial {kib} KiB [ms]"),
                series(|s| s.serial_ms),
            );
            f.push_series(
                &format!("scatter seed (serial+raced) {kib} KiB [ms]"),
                series(|s| s.seed_ms),
            );
            f.push_series(
                &format!("scatter vs seed {kib} KiB [x]"),
                series(ScatterSample::speedup_vs_seed),
            );
        }
        f.push_series(
            "result path [us/packet]",
            self.result_path
                .iter()
                .enumerate()
                .map(|(i, s)| (i as f64, s.us_per_packet()))
                .collect(),
        );
        f
    }
}

/// Stream `table` through one fresh compile of `spec` in 4 KiB chunks
/// (the memory-burst grain the episode engine feeds at), draining after
/// each chunk. Returns the concatenated output and the number of blocks
/// the pipeline's operators handled on their batched fast path (always
/// zero on the scalar route) — the byte-identity oracle between the two
/// routes.
fn stream_once(spec: &PipelineSpec, table: &Table, scalar: bool) -> (Vec<u8>, u64) {
    let mut p = CompiledPipeline::compile(spec.clone(), table.schema()).expect("spec compiles");
    p.force_scalar(scalar);
    let mut out = Vec::new();
    for chunk in table.bytes().chunks(4096) {
        p.push_bytes(chunk);
        out.extend(p.drain_output());
    }
    p.finish();
    out.extend(p.drain_output());
    (out, p.batched_blocks())
}

/// Timed variant of [`stream_once`]: identical chunking and per-chunk
/// `drain_output` discipline (the pack buffer is surrendered and regrown
/// every chunk, exactly as the seed harness drains), but the drained
/// bytes are dropped instead of concatenated — the timed window measures
/// the datapath, not the harness's own output accumulation, which both
/// routes would otherwise pay identically. [`stream_once`] keeps the
/// accumulating shape for the byte-identity oracle.
fn stream_secs(spec: &PipelineSpec, table: &Table, scalar: bool) -> f64 {
    let mut p = CompiledPipeline::compile(spec.clone(), table.schema()).expect("spec compiles");
    p.force_scalar(scalar);
    // Pipeline compile (regex DFA determinization, join build-side load)
    // happens once per query, not per streamed byte, so it stays outside
    // the timed window.
    let start = Instant::now();
    for chunk in table.bytes().chunks(4096) {
        p.push_bytes(chunk);
        std::hint::black_box(p.drain_output().len());
    }
    p.finish();
    std::hint::black_box(p.drain_output().len());
    start.elapsed().as_secs_f64()
}

/// Measure both routes' tuples/second over `reps` interleaved streams
/// each, taking the **fastest** repetition per route: shared/throttled
/// hosts can only ever slow a sample down, so the minimum elapsed time
/// is the robust estimator of true speed.
fn time_routes(spec: &PipelineSpec, table: &Table, reps: usize) -> (f64, f64) {
    // Warm-up runs (allocators, caches, lazy table bytes).
    let _ = stream_secs(spec, table, false);
    let _ = stream_secs(spec, table, true);
    let mut best = [f64::INFINITY; 2];
    for rep in 0..reps {
        // Alternate which route goes first so throttling windows hit
        // both routes symmetrically.
        let order = if rep % 2 == 0 {
            [(0usize, false), (1, true)]
        } else {
            [(1usize, true), (0, false)]
        };
        for (slot, scalar) in order {
            let secs = stream_secs(spec, table, scalar);
            best[slot] = best[slot].min(secs);
        }
    }
    let rate = |t: f64| table.row_count() as f64 / t.max(1e-9);
    (rate(best[0]), rate(best[1]))
}

/// The operator pipelines measured, in figure order.
fn operator_suite(rows: usize) -> Vec<(String, PipelineSpec, Table)> {
    // 64 B tuples; column 1 calibrated to 50 % selectivity around the
    // workload pivot, column 0 low-cardinality for grouping.
    let table = TableGen::new(8, rows)
        .seed(55)
        .distinct_column(0, 64)
        .selectivity_column(1, 0.5)
        .sequential_column(2)
        .build();
    let strings = StringTableGen::new(rows.min(4096), 64)
        .match_fraction(0.5)
        .build();
    // Join probe side: the star-schema fact table, physically clustered
    // on its dimension foreign key (runs of 8 rows per key) — the layout
    // a date- or dimension-ordered fact table has on disk, and the one
    // the block probe's run detection exploits.
    let fact = TableGen::new(8, rows)
        .seed(91)
        .clustered_column(0, 64, 8)
        .build();
    // Join build side: a 64-row, 16-column dimension table (8 KiB on
    // chip) covering every value of the fact table's key column — a
    // handful of keys carrying a wide payload of dimension attributes.
    // Every probe matches, so the join is measured at peak emit
    // pressure.
    let mut build = fv_data::TableBuilder::new(fv_data::Schema::uniform_u64(16));
    for k in 0..64u64 {
        build.push_values(
            (0..16u64)
                .map(|c| fv_data::Value::U64(k.wrapping_mul(c + 1)))
                .collect(),
        );
    }
    let build = build.build();
    let pivot = fv_workload::SELECTIVITY_PIVOT;

    vec![
        (
            "passthrough".into(),
            PipelineSpec::passthrough(),
            table.clone(),
        ),
        (
            "filter".into(),
            PipelineSpec::passthrough().filter(PredicateExpr::lt(1, pivot)),
            table.clone(),
        ),
        (
            "filter+project".into(),
            PipelineSpec::passthrough()
                .project(vec![0, 3, 5])
                .filter(PredicateExpr::lt(1, pivot)),
            table.clone(),
        ),
        (
            "project".into(),
            PipelineSpec::passthrough().project(vec![0, 3, 5]),
            table.clone(),
        ),
        (
            "regex".into(),
            PipelineSpec::passthrough().regex_match(1, REGEX_PATTERN),
            strings,
        ),
        (
            // Distinct over the clustered fact key: runs of equal keys
            // inside the write-latency window are §5.4's motivating
            // case — the workload drives the LRU shift register and
            // hazard machinery, not just the far-apart table path.
            "distinct".into(),
            PipelineSpec::passthrough().distinct(vec![0]),
            fact.clone(),
        ),
        (
            "group_by".into(),
            PipelineSpec::passthrough().group_by(
                vec![0],
                vec![
                    AggSpec {
                        col: 2,
                        func: AggFunc::Sum,
                    },
                    AggSpec {
                        col: 2,
                        func: AggFunc::Avg,
                    },
                ],
            ),
            table.clone(),
        ),
        (
            "join".into(),
            PipelineSpec::passthrough().join_small(JoinSmallSpec::new(0, &build, 0)),
            fact,
        ),
    ]
}

/// Fastest of `reps` runs of `f`, in seconds (after one warm-up run).
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time whole `far_view` calls over a `table_kib` table on one node:
/// `read` and `select50`, the two shapes whose result is nothing but
/// packets. Fastest of `reps` per shape, like every other row.
fn result_path_samples(table_kib: usize, reps: usize) -> Vec<ResultPathSample> {
    // 64 B tuples.
    let table = TableGen::new(8, table_kib * 16)
        .seed(57)
        .selectivity_column(1, 0.5)
        .build();
    let cluster = FarviewCluster::new(FarviewConfig::default());
    let qp = cluster.connect().expect("a free region");
    let (ft, _) = qp.load_table(&table).expect("buffer pool space");
    let shapes = [
        ("read", PipelineSpec::passthrough()),
        (
            "select50",
            PipelineSpec::passthrough()
                .filter(PredicateExpr::lt(1, fv_workload::SELECTIVITY_PIVOT)),
        ),
    ];
    shapes
        .into_iter()
        .map(|(query, spec)| {
            // Correctness first, and the warm-up: the read returns the
            // table, the selection a whole number of its rows.
            let out = qp.far_view(&ft, &spec).expect("query completes");
            if query == "read" {
                assert_eq!(out.payload, table.bytes(), "read changed the table");
            }
            assert_eq!(out.payload.len() % 64, 0);
            let packets = out.stats.packets;
            assert_eq!(packets, out.payload.len() as u64 / 1024 + 1);
            let best = best_secs(reps, || {
                std::hint::black_box(&qp.far_view(&ft, &spec).expect("query completes"));
            });
            ResultPathSample {
                query: query.into(),
                table_kib,
                packets,
                far_view_us: best * 1e6,
            }
        })
        .collect()
}

/// Time the AES-CTR and regex-compile kernels on their own, then whole
/// `far_view`s of fvbench `agg_batch`'s two single queries: `decrypt →
/// group_by` over an encrypted table and `regex10` over `string_rows`
/// 64-byte strings of which a tenth match.
fn operator_kernel_samples(string_rows: usize, reps: usize) -> Vec<KernelSample> {
    let key = CryptoSpec {
        key: *b"hotpath kernels!",
        iv: [0xf0; 16],
    };
    let mut buf = vec![0u8; HOTPATH_CRYPT_TABLE_KIB * 1024];
    let ctr_secs = best_secs(reps, || {
        fv_crypto::ctr_apply_at(&key.key, &key.iv, 0, std::hint::black_box(&mut buf));
    });

    let strings = StringTableGen::new(string_rows, 64)
        .match_fraction(0.1)
        .seed(58)
        .build();
    let regex10 = PipelineSpec::passthrough().regex_match(1, REGEX_PATTERN);
    let compile_secs = best_secs(reps, || {
        let compiled = CompiledPipeline::compile(regex10.clone(), strings.schema());
        std::hint::black_box(compiled.expect("spec compiles"));
    });

    // 64 B tuples; 32 groups, summed over the row index.
    let plain = TableGen::new(8, HOTPATH_CRYPT_TABLE_KIB * 16)
        .seed(59)
        .distinct_column(0, 32)
        .sequential_column(2)
        .build();
    let group_by = PipelineSpec::passthrough().group_by(
        vec![0],
        vec![AggSpec {
            col: 2,
            func: AggFunc::Sum,
        }],
    );
    let decrypt_groupby = group_by.clone().decrypt(key.clone());
    let encrypted = encrypt_table(&plain, &key.key, &key.iv);

    let cluster = FarviewCluster::new(FarviewConfig::default());
    let qp = cluster.connect().expect("a free region");
    let (plain_ft, _) = qp.load_table(&plain).expect("buffer pool space");
    let (encrypted_ft, _) = qp.load_table(&encrypted).expect("buffer pool space");
    let (strings_ft, _) = qp.load_table(&strings).expect("buffer pool space");
    // Correctness first: decrypting the ciphertext groups like the
    // plaintext, and the scan keeps about a tenth of the rows.
    let want = qp.far_view(&plain_ft, &group_by).expect("query completes");
    let got = qp
        .far_view(&encrypted_ft, &decrypt_groupby)
        .expect("query completes");
    assert_eq!(got.payload, want.payload, "decrypt changed the groups");
    let matched = qp
        .far_view(&strings_ft, &regex10)
        .expect("query completes")
        .stats
        .tuples_out as usize;
    assert!(
        (string_rows / 20..=string_rows / 5).contains(&matched),
        "regex10 kept {matched} of {string_rows} rows"
    );
    let far_view_us = |ft, spec: &PipelineSpec| {
        1e6 * best_secs(reps, || {
            std::hint::black_box(&qp.far_view(ft, spec).expect("query completes"));
        })
    };

    vec![
        KernelSample {
            kernel: "aes_ctr",
            metric: "ctr_ns_per_byte",
            input_kib: HOTPATH_CRYPT_TABLE_KIB,
            value: ctr_secs * 1e9 / buf.len() as f64,
        },
        KernelSample {
            kernel: "regex_compile",
            metric: "regex_compile_us",
            input_kib: 0,
            value: compile_secs * 1e6,
        },
        KernelSample {
            kernel: "decrypt_groupby",
            metric: "far_view_us",
            input_kib: HOTPATH_CRYPT_TABLE_KIB,
            value: far_view_us(&encrypted_ft, &decrypt_groupby),
        },
        KernelSample {
            kernel: "regex10",
            metric: "far_view_us",
            input_kib: strings.byte_len() / 1024,
            value: far_view_us(&strings_ft, &regex10),
        },
    ]
}

/// Run the full measurement at the given scale.
pub fn hotpath_report_at(
    rows: usize,
    reps: usize,
    fleet_sizes: &[usize],
    scatter_table_kib: &[usize],
    result_table_kib: usize,
) -> HotpathReport {
    // --- operators: block vs per-tuple -------------------------------
    // The stateful operators all grew a batched block path in PR 8; a
    // zero counter here means a refactor silently knocked one back to
    // per-tuple dispatch, so the measurement would compare scalar with
    // scalar and report a vacuous 1.0x.
    const BATCHED_OPS: [&str; 4] = ["regex", "distinct", "group_by", "join"];
    let mut operators = Vec::new();
    for (op, spec, table) in operator_suite(rows) {
        let (block_out, batched_blocks) = stream_once(&spec, &table, false);
        let (scalar_out, scalar_batched) = stream_once(&spec, &table, true);
        assert_eq!(
            block_out, scalar_out,
            "{op}: block and per-tuple routes must be byte-identical"
        );
        assert_eq!(scalar_batched, 0, "{op}: scalar route ran a batched path");
        if BATCHED_OPS.contains(&op.as_str()) {
            assert!(
                batched_blocks > 0,
                "{op}: batched block path never engaged on the block route"
            );
        }
        let (block, scalar) = time_routes(&spec, &table, reps);
        operators.push(OperatorSample {
            op,
            block_tuples_per_s: block,
            scalar_tuples_per_s: scalar,
            batched_blocks,
        });
    }

    // --- fleet scatter: gated vs serial ------------------------------
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    let specs: Vec<PipelineSpec> = vec![
        PipelineSpec::passthrough(),
        PipelineSpec::passthrough().filter(PredicateExpr::lt(1, fv_workload::SELECTIVITY_PIVOT)),
    ];
    let mut scatter = Vec::new();
    for &table_kib in scatter_table_kib {
        // 64 B tuples.
        let table = TableGen::new(8, table_kib * 16)
            .seed(56)
            .selectivity_column(1, 0.5)
            .build();
        let scanned_bytes = (table.bytes().len() * specs.len()) as u64;
        for &nodes in fleet_sizes {
            let replicas = 2.min(nodes);
            let fleet = FarviewFleet::new(nodes, FarviewConfig::default());
            let qp = fleet.connect().expect("a region on every node");
            let (ft, _) = qp
                .load_table_replicated(&table, Partitioning::RowRange, replicas)
                .expect("buffer pool space");
            // Correctness first: all three routes agree byte-for-byte.
            let par = Executor::fleet(&qp, &ft, &specs).expect("parallel scatter");
            let ser = Executor::fleet_serial(&qp, &ft, &specs).expect("serial scatter");
            let seed = Executor::fleet_seed_reference(&qp, &ft, &specs).expect("seed scatter");
            for ((p, s), r) in par.iter().zip(&ser).zip(&seed) {
                assert_eq!(
                    p.merged.payload, s.merged.payload,
                    "parallel scatter changed results at {table_kib} KiB, {nodes} nodes"
                );
                assert_eq!(
                    p.merged.payload, r.merged.payload,
                    "replica dedup changed results at {table_kib} KiB, {nodes} nodes"
                );
            }
            // Interleaved timing with rotating order, same
            // drift-cancelling scheme as the operator half.
            type Route = fn(
                &farview_core::FleetQPair,
                &farview_core::FleetTable,
                &[PipelineSpec],
            )
                -> Result<Vec<farview_core::FleetQueryOutcome>, farview_core::FvError>;
            let routes: [Route; 3] = [
                Executor::fleet,
                Executor::fleet_serial,
                Executor::fleet_seed_reference,
            ];
            let mut best = [f64::INFINITY; 3];
            for rep in 0..reps {
                for k in 0..3 {
                    let slot = (k + rep) % 3;
                    let start = Instant::now();
                    let outs = routes[slot](&qp, &ft, &specs);
                    std::hint::black_box(&outs.expect("scatter"));
                    best[slot] = best[slot].min(start.elapsed().as_secs_f64());
                }
            }
            scatter.push(ScatterSample {
                table_kib,
                nodes,
                replicas,
                workers: scatter_workers(
                    scanned_bytes,
                    ft.placement().shard_count(),
                    host_parallelism,
                ),
                parallel_ms: best[0] * 1e3,
                serial_ms: best[1] * 1e3,
                seed_ms: best[2] * 1e3,
            });
            qp.free_table(ft).expect("free");
        }
    }

    HotpathReport {
        rows,
        reps,
        host_parallelism,
        operators,
        scatter,
        result_path: result_path_samples(result_table_kib, reps),
        operator_kernels: operator_kernel_samples(rows.min(16_384), reps),
    }
}

/// The full-size hotpath measurement (what `figures hotpath` runs and
/// records into `BENCH_PR8.json`).
pub fn hotpath_report() -> HotpathReport {
    hotpath_report_at(
        32_768,
        15,
        &HOTPATH_FLEET_SIZES,
        &HOTPATH_SCATTER_TABLE_KIB,
        HOTPATH_RESULT_TABLE_KIB,
    )
}

/// `hotpath` as a figure.
pub fn hotpath() -> Figure {
    hotpath_report().to_figure()
}

/// [`hotpath`] at its smallest config (the `figures smoke` gate —
/// correctness cross-checks at full coverage, timings at token scale).
pub fn hotpath_smoke() -> Figure {
    let report = hotpath_report_at(2_048, 2, &[1, 2], &HOTPATH_SCATTER_TABLE_KIB, 64);
    // Timing *ratios* are host-dependent and asserted nowhere in CI,
    // but the emitted JSON must carry a speedup sample for each of the
    // four stateful batched operators — the release-run BENCH_PR8.json
    // is the perf record, and this pins that it cannot silently drop
    // one of them.
    let json = report.to_json();
    for op in ["regex", "distinct", "group_by", "join"] {
        assert!(
            json.contains(&format!("\"op\": \"{op}\"")),
            "smoke JSON missing stateful operator {op}"
        );
    }
    assert_eq!(
        json.matches("\"speedup\":").count(),
        report.operators.len(),
        "every operator row must record a speedup"
    );
    report.to_figure()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural shape of the smoke-scale report: every operator and
    /// fleet size sampled, all rates positive, JSON well-formed enough
    /// to name every series. (Timing *ratios* are asserted nowhere in
    /// tier-1 — debug builds distort them — the release-run
    /// `BENCH_PR8.json` records the measured speedups.)
    #[test]
    fn hotpath_report_is_complete() {
        let r = hotpath_report_at(512, 1, &[1, 2], &[64, 1024], 64);
        assert_eq!(r.operators.len(), 8);
        assert_eq!(r.scatter.len(), 4);
        let [read, select50] = &r.result_path[..] else {
            panic!("two result-path rows, got {:?}", r.result_path);
        };
        assert_eq!((read.query.as_str(), read.packets), ("read", 65));
        assert_eq!(select50.query, "select50");
        assert!((20..46).contains(&select50.packets), "{select50:?}");
        assert!(read.far_view_us > 0.0 && select50.us_per_packet() > 0.0);
        assert_eq!(r.operator_kernels.len(), 4);
        for k in &r.operator_kernels {
            assert!(k.value > 0.0, "{k:?}");
        }
        for s in &r.operators {
            assert!(s.block_tuples_per_s > 0.0, "{}: no block rate", s.op);
            assert!(s.scalar_tuples_per_s > 0.0, "{}: no scalar rate", s.op);
            let stateful = matches!(s.op.as_str(), "regex" | "distinct" | "group_by" | "join");
            assert_eq!(
                s.batched_blocks > 0,
                stateful,
                "{}: batched-block engagement",
                s.op
            );
        }
        for s in &r.scatter {
            assert!(s.parallel_ms > 0.0 && s.serial_ms > 0.0 && s.seed_ms > 0.0);
            assert_eq!(s.replicas, 2.min(s.nodes));
            // 64 KiB × 2 specs is below the gate on any host; 1 MiB × 2
            // fans out wherever there are two slots and two CPUs.
            let fans_out = s.table_kib == 1024 && s.nodes >= 2 && r.host_parallelism >= 2;
            assert_eq!(s.workers >= 2, fans_out, "{s:?}");
        }
        let json = r.to_json();
        for needle in [
            "\"bench\": \"hotpath\"",
            "\"op\": \"filter+project\"",
            "\"nodes\": 2",
            "\"table_kib\": 64",
            "\"workers\": 1",
            "\"seed_ms\"",
            "\"vs_seed\"",
            "\"host_parallelism\"",
            "\"speedup\"",
            "\"batched_blocks\"",
            "\"query\": \"read\", \"table_kib\": 64, \"packets\": 65",
            "\"us_per_packet\"",
            "\"kernel\": \"aes_ctr\", \"input_kib\": 128, \"ctr_ns_per_byte\":",
            "\"kernel\": \"regex_compile\", \"input_kib\": 0, \"regex_compile_us\":",
            "\"kernel\": \"decrypt_groupby\", \"input_kib\": 128, \"far_view_us\":",
            "\"kernel\": \"regex10\", \"input_kib\": 36, \"far_view_us\":",
        ] {
            assert!(json.contains(needle), "JSON missing {needle}");
        }
        let fig = r.to_figure();
        for series in [
            "block [tuples/s]",
            "per-tuple [tuples/s]",
            "scatter parallel 64 KiB [ms]",
            "scatter serial 1024 KiB [ms]",
            "result path [us/packet]",
        ] {
            assert!(fig.series(series).is_some(), "figure missing {series}");
        }
    }
}
