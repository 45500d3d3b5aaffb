//! `agg_batch`: reductive queries, most of them in one doorbell batch.
//!
//! Why: a depth-8 `far_view_batch` of group-bys, distincts and narrow
//! filter+projects, a 10 %-match regex scan and a decrypt→group-by all
//! read a whole table and return a few packets, so `pipeline` streaming,
//! `mem` read/burst planning and `crypto` do the work and
//! `episode`/`net` do little. It is also the doorbell-batch entry
//! point. A datapath change shows here and must not move `scan_wire`.

use farview::core::{FTable, FarviewCluster, QPair};
use farview::data::Table;
use farview::pipeline::{AggFunc, AggSpec, CryptoSpec, PipelineSpec, PredicateExpr};
use farview::workload::{
    encrypt_table, StringTableGen, TableGen, REGEX_PATTERN, SELECTIVITY_PIVOT,
};

use crate::json::Json;
use crate::probes::{self, LayerCosts, MemProbe, Resident};
use crate::stats::{digest_u64s, sub_seed, SplitMix64};
use crate::trace::Tracer;
use crate::workload::{node_config, verify_against_oracle, Query, RoundSample, Scale, Workload};
use crate::workloads::SingleNodeTotals;

/// Rows of the numeric and the string table at full scale.
const ROWS: usize = 16_384;
/// Rows of the encrypted table: 128 KiB. Software AES-CTR is the
/// slowest operator by far; a 1 MiB table would make this one query
/// the whole round.
const CRYPT_ROWS: usize = 2_048;
const STRING_BYTES: usize = 64;

struct Loaded {
    table: Table,
    ft: FTable,
}

pub struct AggBatch {
    _cluster: FarviewCluster,
    qp: QPair,
    numeric: Loaded,
    /// The eight queries of the doorbell batch, in post order, and
    /// their specs as `far_view_batch` wants them.
    batch: Vec<Query>,
    batch_specs: Vec<PipelineSpec>,
    strings: Loaded,
    regex: Query,
    encrypted: Loaded,
    decrypt_groupby: Query,
}

fn agg(col: usize, func: AggFunc) -> AggSpec {
    AggSpec { col, func }
}

fn batch_specs() -> Vec<Query> {
    let p = PipelineSpec::passthrough;
    let narrow = |threshold: u64| {
        p().filter(PredicateExpr::lt(4, threshold))
            .project(vec![0, 2])
    };
    vec![
        Query::new(
            "groupby_sum_avg",
            p().group_by(vec![0], vec![agg(2, AggFunc::Sum), agg(3, AggFunc::Avg)]),
        ),
        Query::new(
            "groupby_max",
            p().group_by(vec![0], vec![agg(2, AggFunc::Max)]),
        ),
        Query::new(
            "groupby_count",
            p().group_by(vec![1], vec![agg(2, AggFunc::Count)]),
        ),
        Query::new(
            "groupby_min",
            p().group_by(vec![1], vec![agg(3, AggFunc::Min)]),
        ),
        Query::new("distinct_c0", p().distinct(vec![0])),
        Query::new("distinct_c1", p().distinct(vec![1])),
        Query::new("filter_project_25", narrow(SELECTIVITY_PIVOT)),
        Query::new("filter_project_12", narrow(SELECTIVITY_PIVOT / 2)),
    ]
}

impl AggBatch {
    pub fn set_up(seed: u64, scale: Scale) -> Result<AggBatch, String> {
        let cluster = FarviewCluster::new(node_config());
        let qp = cluster.connect().map_err(|e| e.to_string())?;
        let load = |table: Table| -> Result<Loaded, String> {
            let (ft, _) = qp.load_table(&table).map_err(|e| e.to_string())?;
            Ok(Loaded { table, ft })
        };

        // c0: 32 groups, c1: 256 groups, c2: row index, c3: small
        // values (AVG stays exact), c4: 25 % below the pivot.
        let numeric = load(
            TableGen::new(8, scale.rows(ROWS))
                .seed(sub_seed(seed, "agg_batch.numeric"))
                .distinct_column(0, 32)
                .distinct_column(1, 256)
                .sequential_column(2)
                .distinct_column(3, 1000)
                .selectivity_column(4, 0.25)
                .build(),
        )?;
        let strings = load(
            StringTableGen::new(scale.rows(ROWS), STRING_BYTES)
                .match_fraction(0.1)
                .seed(sub_seed(seed, "agg_batch.strings"))
                .build(),
        )?;
        let mut rng = SplitMix64(sub_seed(seed, "agg_batch.key"));
        let mut key = CryptoSpec {
            key: [0; 16],
            iv: [0; 16],
        };
        key.key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
        key.key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
        key.iv[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
        let plain = TableGen::new(8, scale.rows(CRYPT_ROWS))
            .seed(sub_seed(seed, "agg_batch.plain"))
            .distinct_column(0, 32)
            .sequential_column(2)
            .build();
        let encrypted = load(encrypt_table(&plain, &key.key, &key.iv))?;

        let mut batch = batch_specs();
        let batch_specs: Vec<PipelineSpec> = batch.iter().map(|q| q.spec.clone()).collect();
        let outs = qp
            .far_view_batch(&numeric.ft, &batch_specs)
            .map_err(|e| format!("agg_batch/batch: {e}"))?;
        for (q, out) in batch.iter_mut().zip(&outs) {
            q.expect = verify_against_oracle(q.name, &numeric.table, &q.spec, &out.payload)?;
        }
        let mut regex = Query::new(
            "regex10",
            PipelineSpec::passthrough().regex_match(1, REGEX_PATTERN),
        );
        let mut decrypt_groupby = Query::new(
            "decrypt_groupby",
            PipelineSpec::passthrough()
                .decrypt(key)
                .group_by(vec![0], vec![agg(2, AggFunc::Sum)]),
        );
        for (q, l) in [(&mut regex, &strings), (&mut decrypt_groupby, &encrypted)] {
            let out = qp
                .far_view(&l.ft, &q.spec)
                .map_err(|e| format!("agg_batch/{}: {e}", q.name))?;
            q.expect = verify_against_oracle(q.name, &l.table, &q.spec, &out.payload)?;
        }
        Ok(AggBatch {
            _cluster: cluster,
            qp,
            numeric,
            batch,
            batch_specs,
            strings,
            regex,
            encrypted,
            decrypt_groupby,
        })
    }
}

impl Workload for AggBatch {
    fn round(&mut self, tr: &mut Tracer) -> RoundSample {
        let mut s = RoundSample::default();
        let o = tr.begin("batch8", "cluster");
        let res = self.qp.far_view_batch(&self.numeric.ft, &self.batch_specs);
        s.host_ns += tr.end(o);
        // A failed or short batch fails every query it did not answer.
        let outs = res.unwrap_or_default();
        for (i, q) in self.batch.iter().enumerate() {
            s.record(q, outs.get(i), self.numeric.ft.byte_len());
        }
        for (q, l) in [
            (&self.regex, &self.strings),
            (&self.decrypt_groupby, &self.encrypted),
        ] {
            let o = tr.begin(q.name, "cluster");
            let res = self.qp.far_view(&l.ft, &q.spec);
            s.host_ns += tr.end(o);
            s.record(q, res.as_ref().ok(), l.ft.byte_len());
        }
        s
    }

    fn probe(&mut self, tr: &mut Tracer, reps: usize) -> Result<LayerCosts, String> {
        let mut out = LayerCosts::default();
        let mut mem = MemProbe::new();
        let mut totals = SingleNodeTotals::default();
        for (l, specs) in [
            (&self.numeric, self.batch_specs.as_slice()),
            (&self.strings, std::slice::from_ref(&self.regex.spec)),
            (
                &self.encrypted,
                std::slice::from_ref(&self.decrypt_groupby.spec),
            ),
        ] {
            let on = Resident {
                qp: &self.qp,
                ft: &l.ft,
                table: &l.table,
            };
            totals.probe(tr, reps, &mut mem, on, specs, 1.0)?;
        }
        totals.emit(&mut out, &mem);

        // crypto: the decrypt-only pipeline against passthrough on the
        // same (encrypted) bytes.
        let enc = &self.encrypted.table;
        let key = self
            .decrypt_groupby
            .spec
            .decrypt_input
            .clone()
            .ok_or("decrypt_groupby lost its key")?;
        let with = probes::stream_ns(
            tr,
            reps,
            &PipelineSpec::passthrough().decrypt(key),
            enc.schema(),
            enc.bytes(),
        )?;
        let without = probes::stream_ns(
            tr,
            reps,
            &PipelineSpec::passthrough(),
            enc.schema(),
            enc.bytes(),
        )?;
        out.set(
            "crypto.ctr_ns_per_byte",
            (with - without) / enc.byte_len() as f64,
        );
        Ok(out)
    }

    fn script_digest(&self) -> u64 {
        let words: Vec<u64> = self
            .batch
            .iter()
            .chain([&self.regex, &self.decrypt_groupby])
            .flat_map(Query::digest_words)
            .collect();
        digest_u64s(&words)
    }

    fn params(&self) -> Json {
        Json::obj()
            .set(
                "entry_point",
                "QPair::far_view_batch depth 8 + two QPair::far_view, one node",
            )
            .set("numeric_rows", self.numeric.table.row_count())
            .set("numeric_bytes", self.numeric.table.byte_len())
            .set("string_rows", self.strings.table.row_count())
            .set("string_bytes", self.strings.table.byte_len())
            .set("regex_match_fraction", 0.1)
            .set("encrypted_rows", self.encrypted.table.row_count())
            .set("encrypted_bytes", self.encrypted.table.byte_len())
            .set(
                "batch",
                self.batch
                    .iter()
                    .map(|q| Json::from(q.name))
                    .collect::<Vec<_>>(),
            )
            .set(
                "solo",
                vec![Json::from("regex10"), Json::from("decrypt_groupby")],
            )
    }
}
