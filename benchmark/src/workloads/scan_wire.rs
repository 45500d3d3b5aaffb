//! `scan_wire`: result-heavy depth-1 queries on one node.
//!
//! Why: a passthrough read, a 50 % selection and an every-probe-matches
//! star join return 0.5–1.4 MiB each, so thousands of packets and
//! simulator events go through `episode`/`net`/`sim` and comparatively
//! little through the operators. An episode-engine or packet-path
//! optimisation shows here and must show ≈nothing on `agg_batch`.

use farview::core::{FTable, FarviewCluster, QPair};
use farview::data::{Schema, Table, TableBuilder, Value};
use farview::pipeline::{JoinSmallSpec, PipelineSpec, PredicateExpr};
use farview::workload::{TableGen, SELECTIVITY_PIVOT};

use crate::json::Json;
use crate::probes::{LayerCosts, MemProbe, Resident};
use crate::stats::{digest_u64s, sub_seed};
use crate::trace::Tracer;
use crate::workload::{node_config, verify_against_oracle, Query, RoundSample, Scale, Workload};
use crate::workloads::SingleNodeTotals;

/// Rows of the fact table at full scale: 16384 × 64 B = 1 MiB.
const ROWS: usize = 16_384;
/// Dimension keys; the fact table's join column draws from exactly
/// these, so every probe matches.
const DIM_ROWS: u64 = 64;
const DIM_COLS: usize = 4;
/// Consecutive fact rows sharing one dimension key (a fact table
/// physically ordered on its foreign key).
const CLUSTER_RUN: u64 = 32;

pub struct ScanWire {
    _cluster: FarviewCluster,
    qp: QPair,
    ft: FTable,
    table: Table,
    queries: Vec<Query>,
}

fn dimension_table(seed: u64) -> Table {
    let mut b = TableBuilder::with_capacity(Schema::uniform_u64(DIM_COLS), DIM_ROWS as usize);
    for key in 0..DIM_ROWS {
        let mut row = vec![Value::U64(key)];
        row.extend((1..DIM_COLS as u64).map(|c| Value::U64(seed.wrapping_mul(key + c) >> 8)));
        b.push_values(row);
    }
    b.build()
}

impl ScanWire {
    pub fn set_up(seed: u64, scale: Scale) -> Result<ScanWire, String> {
        let cluster = FarviewCluster::new(node_config());
        let qp = cluster.connect().map_err(|e| e.to_string())?;
        let table = TableGen::new(8, scale.rows(ROWS))
            .seed(sub_seed(seed, "scan_wire.fact"))
            .clustered_column(0, DIM_ROWS, CLUSTER_RUN)
            .selectivity_column(1, 0.5)
            .build();
        let (ft, _) = qp.load_table(&table).map_err(|e| e.to_string())?;
        let dim = dimension_table(sub_seed(seed, "scan_wire.dim"));

        let mut queries = vec![
            Query::new("read", PipelineSpec::passthrough()),
            Query::new(
                "select50",
                PipelineSpec::passthrough().filter(PredicateExpr::lt(1, SELECTIVITY_PIVOT)),
            ),
            Query::new(
                "join_star",
                PipelineSpec::passthrough().join_small(JoinSmallSpec::new(0, &dim, 0)),
            ),
        ];
        for q in &mut queries {
            let out = qp
                .far_view(&ft, &q.spec)
                .map_err(|e| format!("scan_wire/{}: {e}", q.name))?;
            q.expect = verify_against_oracle(q.name, &table, &q.spec, &out.payload)?;
        }
        Ok(ScanWire {
            _cluster: cluster,
            qp,
            ft,
            table,
            queries,
        })
    }
}

impl Workload for ScanWire {
    fn round(&mut self, tr: &mut Tracer) -> RoundSample {
        let mut s = RoundSample::default();
        for q in &self.queries {
            let o = tr.begin(q.name, "cluster");
            let res = self.qp.far_view(&self.ft, &q.spec);
            s.host_ns += tr.end(o);
            s.record(q, res.as_ref().ok(), self.ft.byte_len());
        }
        s
    }

    fn probe(&mut self, tr: &mut Tracer, reps: usize) -> Result<LayerCosts, String> {
        let mut out = LayerCosts::default();
        let mut mem = MemProbe::new();
        let mut totals = SingleNodeTotals::default();
        for q in &self.queries {
            let on = Resident {
                qp: &self.qp,
                ft: &self.ft,
                table: &self.table,
            };
            totals.probe(tr, reps, &mut mem, on, std::slice::from_ref(&q.spec), 1.0)?;
        }
        totals.emit(&mut out, &mem);
        Ok(out)
    }

    fn script_digest(&self) -> u64 {
        let words: Vec<u64> = self.queries.iter().flat_map(Query::digest_words).collect();
        digest_u64s(&words)
    }

    fn params(&self) -> Json {
        Json::obj()
            .set("entry_point", "QPair::far_view, depth 1, one node")
            .set("table_rows", self.table.row_count())
            .set("table_bytes", self.table.byte_len())
            .set("tuple_bytes", 64u64)
            .set(
                "queries",
                vec![
                    Json::from("read: passthrough table_read"),
                    Json::from("select50: filter c1 < SELECTIVITY_PIVOT (50 %)"),
                    Json::from(
                        "join_star: join_small on c0 (64 keys clustered in runs of 32) against a 64-row x 4-col build; every probe matches",
                    ),
                ],
            )
    }
}
