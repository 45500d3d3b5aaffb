//! `tier_churn`: a working set twice the size of the pool.
//!
//! Why: four 1 MiB tables behind a `TieredPool` whose DRAM budget holds
//! two. Every miss runs `ColumnImage::open` → `alloc_table` →
//! `table_write` → later `free_table` — the write datapath and the
//! allocator — beside the reads, and this is the one workload whose
//! working set does not fit. A read-path gain bought with a slower
//! write/alloc path, or a staging change, shows here.
//!
//! The script is a fixed 12-step pattern over four table *roles* with a
//! 50/25/17/8 % skew; the seed chooses the table contents, which table
//! plays which role and where in the (cyclic) pattern a round starts.
//! The amount of work per round is therefore the same for every seed —
//! six hits and six misses once warm — which keeps runs comparable.

use farview::core::{BlockStore, FTable, FarviewCluster, QPair, StorageParams, TieredPool};
use farview::data::{ColumnImage, Table};
use farview::pipeline::{AggFunc, AggSpec, PipelineSpec, PredicateExpr};
use farview::workload::{TableGen, SELECTIVITY_PIVOT};

use crate::json::Json;
use crate::probes::{LayerCosts, MemProbe, Resident};
use crate::stats::{digest_u64s, median, sub_seed, Checksum, SplitMix64};
use crate::trace::{Tracer, NO_ROUND};
use crate::workload::{node_config, verify_against_oracle, RoundSample, Scale, Workload};
use crate::workloads::SingleNodeTotals;

const TABLES: usize = 4;
/// Tables the DRAM budget holds.
const RESIDENT: u64 = 2;
const ROWS: usize = 16_384;
/// Roles A–D in script order: A six times, B three, C two, D once.
const PATTERN: [usize; 12] = [0, 1, 0, 2, 0, 1, 0, 3, 0, 2, 1, 0];
const SHAPES: usize = 3;

fn shape(i: usize) -> PipelineSpec {
    let p = PipelineSpec::passthrough();
    match i % SHAPES {
        0 => p
            .filter(PredicateExpr::lt(1, SELECTIVITY_PIVOT))
            .project(vec![0, 2]),
        1 => p.group_by(
            vec![0],
            vec![AggSpec {
                col: 2,
                func: AggFunc::Sum,
            }],
        ),
        _ => p.distinct(vec![0]),
    }
}

const SHAPE_NAMES: [&str; SHAPES] = ["filter_project_50", "groupby_sum", "distinct_c0"];

struct Step {
    table: usize,
    shape: usize,
    spec: PipelineSpec,
    expect: Checksum,
}

struct TierChurn<'a> {
    qp: &'a QPair,
    pool: TieredPool<'a>,
    names: Vec<String>,
    tables: Vec<Table>,
    script: Vec<Step>,
    /// One table loaded outside the pool, for the single-node probes.
    probe_ft: FTable,
}

/// The seed-derived script: (table, shape) per step.
pub fn script(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64(sub_seed(seed, "tier_churn.script"));
    // Fisher–Yates over the role → table assignment.
    let mut role_table: [usize; TABLES] = [0, 1, 2, 3];
    for i in (1..TABLES).rev() {
        role_table.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let rotate = rng.below(PATTERN.len() as u64) as usize;
    (0..PATTERN.len())
        .map(|i| {
            let at = (i + rotate) % PATTERN.len();
            (role_table[PATTERN[at]], at % SHAPES)
        })
        .collect()
}

pub fn with<R>(
    seed: u64,
    scale: Scale,
    f: &mut dyn FnMut(&mut dyn Workload) -> R,
) -> Result<R, String> {
    let err = |e: farview::core::FvError| e.to_string();
    let cluster = FarviewCluster::new(node_config());
    let qp = cluster.connect().map_err(err)?;
    let tables: Vec<Table> = (0..TABLES)
        .map(|i| {
            TableGen::new(8, scale.rows(ROWS))
                .seed(sub_seed(seed, "tier_churn.table") ^ i as u64)
                .distinct_column(0, 32)
                .selectivity_column(1, 0.5)
                .sequential_column(2)
                .build()
        })
        .collect();
    let budget = RESIDENT * tables[0].byte_len() as u64;
    let mut pool = TieredPool::new(&qp, budget, BlockStore::new(StorageParams::default()));
    let names: Vec<String> = (0..TABLES).map(|i| format!("t{i}")).collect();
    for (name, table) in names.iter().zip(&tables) {
        pool.insert(name, table).map_err(err)?;
    }

    // Correctness gate: every (table, shape) through the pool must equal
    // the CpuEngine oracle and the same query on the bare node.
    let mut sums = [[Checksum { len: 0, fnv: 0 }; SHAPES]; TABLES];
    for (t, table) in tables.iter().enumerate() {
        let (bare, _) = qp.load_table(table).map_err(err)?;
        for (s, sum) in sums[t].iter_mut().enumerate() {
            let what = format!("tier_churn/{}/{}", names[t], SHAPE_NAMES[s]);
            let spec = shape(s);
            let tiered = pool.query(&names[t], &spec).map_err(err)?;
            *sum = verify_against_oracle(&what, table, &spec, &tiered.outcome.payload)?;
            let node = qp.far_view(&bare, &spec).map_err(err)?;
            if node.payload != tiered.outcome.payload {
                return Err(format!(
                    "{what}: tiered result differs from the bare node's"
                ));
            }
        }
        qp.free_table(bare).map_err(err)?;
    }
    let script = script(seed)
        .into_iter()
        .map(|(table, s)| Step {
            table,
            shape: s,
            spec: shape(s),
            expect: sums[table][s],
        })
        .collect();
    let (probe_ft, _) = qp.load_table(&tables[0]).map_err(err)?;
    let mut w = TierChurn {
        qp: &qp,
        pool,
        names,
        tables,
        script,
        probe_ft,
    };
    Ok(f(&mut w))
}

impl Workload for TierChurn<'_> {
    fn round(&mut self, tr: &mut Tracer) -> RoundSample {
        let mut s = RoundSample::default();
        for step in &self.script {
            s.attempted += 1;
            let o = tr.begin("tiered.query", "tiered");
            let res = self.pool.query(&self.names[step.table], &step.spec);
            let hit = res.as_ref().is_ok_and(|r| r.buffer_hit);
            s.host_ns += tr.end_as(o, if hit { "tiered.hit" } else { "tiered.miss" });
            match res {
                Ok(out) if Checksum::of(&out.outcome.payload) == step.expect => {
                    s.scan_bytes += self.tables[step.table].byte_len() as u64;
                    s.sim
                        .add_timed_query(&out.outcome.stats, out.total_time().as_nanos());
                }
                _ => s.failed += 1,
            }
        }
        s
    }

    fn probe(&mut self, tr: &mut Tracer, reps: usize) -> Result<LayerCosts, String> {
        let mut out = LayerCosts::default();

        // Per script step, the median duration over the traced rounds
        // and whether the step hits (the steady state is periodic, so a
        // step either always hits or always misses).
        let steps = self.script.len();
        let mut durations: Vec<Vec<f64>> = vec![Vec::new(); steps];
        let mut misses = vec![false; steps];
        let mut position: std::collections::BTreeMap<u32, usize> = Default::default();
        for sp in tr.spans() {
            let miss = match sp.name {
                "tiered.hit" => false,
                "tiered.miss" => true,
                _ => continue,
            };
            if sp.round == NO_ROUND {
                continue;
            }
            let at = position.entry(sp.round).or_default();
            if *at < steps {
                durations[*at].push(sp.duration_ns() as f64);
                misses[*at] |= miss;
            }
            *at += 1;
        }
        if durations.iter().any(Vec::is_empty) {
            return Err("tier_churn probe needs traced rounds".into());
        }
        let step_ns: Vec<f64> = durations.iter().map(|d| median(d)).collect();

        // The warm part of every step is a plain far_view of its shape.
        let mut mem = MemProbe::new();
        let mut totals = SingleNodeTotals::default();
        let mut far_view_ns = [0.0; SHAPES];
        for (s, fv) in far_view_ns.iter_mut().enumerate() {
            let count = self.script.iter().filter(|st| st.shape == s).count() as f64;
            let on = Resident {
                qp: self.qp,
                ft: &self.probe_ft,
                table: &self.tables[0],
            };
            let u = totals.probe(
                tr,
                reps,
                &mut mem,
                on,
                std::slice::from_ref(&shape(s)),
                count,
            )?;
            *fv = u.far_view_ns;
        }
        totals.emit(&mut out, &mem);

        let pick = |want_miss: bool| -> Vec<f64> {
            (0..steps)
                .filter(|&i| misses[i] == want_miss)
                .map(|i| step_ns[i])
                .collect()
        };
        let restage: Vec<f64> = (0..steps)
            .filter(|&i| misses[i])
            .map(|i| step_ns[i] - far_view_ns[self.script[i].shape])
            .collect();
        out.set("tiered.cold_query_us", median(&pick(true)) / 1e3);
        out.set("tiered.warm_query_us", median(&pick(false)) / 1e3);
        out.set("tiered.restage_us", median(&restage) / 1e3);
        out.per_round.tiered = restage.iter().sum();

        out.set(
            "tiered.hit_ratio",
            misses.iter().filter(|m| !**m).count() as f64 / steps as f64,
        );
        out.set("tiered.disk_reads", self.pool.io_counts().0 as f64);
        out.set("tiered.far_spills", self.pool.far_spills() as f64);

        // mem: the write half of a restage; data: the image codec.
        let table = &self.tables[0];
        let kib = table.byte_len() as f64 / 1024.0;
        let mut writes = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (vaddr, ns) = mem.load(tr, table.bytes())?;
            mem.free(vaddr)?;
            writes.push(ns as f64);
        }
        out.set("mem.write_ns_per_kib", median(&writes) / kib);
        let (mut encodes, mut opens) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let o = tr.begin("data.colimage_encode", "data");
            let image = ColumnImage::encode(table);
            encodes.push(tr.end(o) as f64);
            let o = tr.begin("data.colimage_open", "data");
            let opened = ColumnImage::open(&image, table.schema());
            opens.push(tr.end(o) as f64);
            std::hint::black_box(opened.map_err(|e| e.to_string())?.row_count());
        }
        out.set("data.colimage_encode_ns_per_kib", median(&encodes) / kib);
        out.set("data.colimage_open_ns_per_kib", median(&opens) / kib);
        Ok(out)
    }

    fn script_digest(&self) -> u64 {
        let words: Vec<u64> = self
            .script
            .iter()
            .flat_map(|s| {
                [
                    s.table as u64,
                    s.spec.fingerprint(),
                    s.expect.len,
                    s.expect.fnv,
                ]
            })
            .collect();
        digest_u64s(&words)
    }

    fn params(&self) -> Json {
        Json::obj()
            .set("entry_point", "TieredPool::query, one node")
            .set("tables", TABLES)
            .set("table_rows", self.tables[0].row_count())
            .set("table_bytes", self.tables[0].byte_len())
            .set("dram_budget_tables", RESIDENT)
            .set("far_tier", "default (4x the DRAM budget)")
            .set("storage", "StorageParams::default()")
            .set(
                "script",
                self.script
                    .iter()
                    .map(|s| {
                        Json::from(format!("{}:{}", self.names[s.table], SHAPE_NAMES[s.shape]))
                    })
                    .collect::<Vec<_>>(),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        assert_eq!(script(11), script(11));
        assert!((0..32).any(|s| script(s) != script(11)));
    }

    #[test]
    fn every_seed_keeps_the_skew() {
        for seed in 0..16 {
            let s = script(seed);
            assert_eq!(s.len(), PATTERN.len());
            let mut per_table = [0usize; TABLES];
            for (t, shape) in &s {
                per_table[*t] += 1;
                assert!(*shape < SHAPES);
            }
            per_table.sort_unstable();
            assert_eq!(per_table, [1, 2, 3, 6], "seed {seed}");
        }
    }
}
