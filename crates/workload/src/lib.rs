//! # fv-workload — synthetic workload generators
//!
//! The paper's evaluation runs on synthetic tables: "our base tables
//! consist of 8 attributes, where each attribute is 8 bytes long" (§6.2),
//! with controlled selectivity (Figure 8), controlled distinct/group
//! cardinality (Figure 9), strings with a 50 % regex match rate
//! (Figure 10), and encrypted images (Figure 11). This crate generates
//! all of them, deterministically from a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod closed_loop;
pub mod fleet;
pub mod tenant_mix;

pub use chaos::{ChaosEvent, ChaosScenario, ChaosScenarioGen, FaultSpec};
pub use closed_loop::{ClosedLoopGen, ClosedLoopPlan};
pub use fleet::{FleetScenarioGen, TenantQuery, TenantWorkload};
pub use tenant_mix::{MixClass, QueryShape, TenantMix, TenantMixGen, TenantSpec};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fv_data::{Column, ColumnType, Schema, Table, TableBuilder, Value};

/// Pivot constant for selectivity-calibrated columns: a predicate
/// `col < SELECTIVITY_PIVOT` selects exactly the calibrated fraction.
pub const SELECTIVITY_PIVOT: u64 = 1 << 32;

/// The canonical pattern used by the regex experiments. Matching rows
/// embed the literal `smartmem` somewhere in the string; the pattern
/// exercises classes and repetition like the paper's TPC-H Q16 example.
pub const REGEX_PATTERN: &str = "smartmem[0-9]+";

/// How one column's values are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColMode {
    /// Uniform over the full `u64` range below 2^63 (so i64 casts stay
    /// positive).
    Uniform,
    /// With probability `f`, a value `< SELECTIVITY_PIVOT`; otherwise
    /// `>= SELECTIVITY_PIVOT`. A `col < PIVOT` predicate then has
    /// selectivity `f`.
    Selectivity(f64),
    /// Uniform over `0..n` — the column has (up to) `n` distinct values
    /// / groups.
    Distinct(u64),
    /// The row index: every value distinct (Figure 9(a)'s "number of
    /// distinct elements is the same as the number of tuples").
    Sequential,
    /// A constant.
    Constant(u64),
    /// Uniform over `0..n`, but each drawn value repeats for `run`
    /// consecutive rows — the clustered foreign-key layout of a fact
    /// table physically ordered by a dimension key.
    Clustered {
        /// Number of distinct values.
        n: u64,
        /// Consecutive rows sharing one drawn value.
        run: u64,
    },
}

/// Generator for the paper's numeric row-format tables.
#[derive(Debug, Clone)]
pub struct TableGen {
    cols: usize,
    rows: usize,
    seed: u64,
    modes: Vec<ColMode>,
}

impl TableGen {
    /// `cols` unsigned 8-byte attributes × `rows` tuples, all uniform.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0, "need at least one column");
        TableGen {
            cols,
            rows,
            seed: 0xFA12_57E3,
            modes: vec![ColMode::Uniform; cols],
        }
    }

    /// The paper's default 8×8-byte schema sized to `table_bytes`.
    pub fn paper_default(table_bytes: u64) -> Self {
        assert_eq!(table_bytes % 64, 0, "table size must be whole 64 B rows");
        TableGen::new(8, (table_bytes / 64) as usize)
    }

    /// Fix the RNG seed (defaults to a constant; every build is
    /// deterministic either way).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set one column's mode.
    pub fn mode(mut self, col: usize, mode: ColMode) -> Self {
        self.modes[col] = mode;
        self
    }

    /// Calibrate `col` so `col < SELECTIVITY_PIVOT` selects `fraction`.
    pub fn selectivity_column(self, col: usize, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        self.mode(col, ColMode::Selectivity(fraction))
    }

    /// Give `col` exactly `n` distinct values (groups).
    pub fn distinct_column(self, col: usize, n: u64) -> Self {
        assert!(n > 0, "need at least one distinct value");
        self.mode(col, ColMode::Distinct(n))
    }

    /// Make `col` the row index (all values distinct).
    pub fn sequential_column(self, col: usize) -> Self {
        self.mode(col, ColMode::Sequential)
    }

    /// Give `col` `n` distinct values in runs of `run` consecutive rows
    /// (a fact table clustered by a dimension key).
    pub fn clustered_column(self, col: usize, n: u64, run: u64) -> Self {
        assert!(n > 0, "need at least one distinct value");
        assert!(run > 0, "runs must cover at least one row");
        self.mode(col, ColMode::Clustered { n, run })
    }

    /// Build the table.
    pub fn build(&self) -> Table {
        let schema = Schema::uniform_u64(self.cols);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = TableBuilder::with_capacity(schema, self.rows);
        // Clustered columns hold their drawn value across a run of rows.
        let mut held = vec![0u64; self.cols];
        for row in 0..self.rows {
            let values = self
                .modes
                .iter()
                .enumerate()
                .map(|(c, mode)| {
                    Value::U64(match *mode {
                        ColMode::Uniform => rng.gen_range(0..(1u64 << 63)),
                        ColMode::Selectivity(f) => {
                            if rng.gen_bool(f) {
                                rng.gen_range(0..SELECTIVITY_PIVOT)
                            } else {
                                rng.gen_range(SELECTIVITY_PIVOT..(1u64 << 63))
                            }
                        }
                        ColMode::Distinct(n) => rng.gen_range(0..n),
                        ColMode::Sequential => row as u64,
                        ColMode::Constant(c) => c,
                        ColMode::Clustered { n, run } => {
                            if (row as u64).is_multiple_of(run) {
                                held[c] = rng.gen_range(0..n);
                            }
                            held[c]
                        }
                    })
                })
                .collect();
            b.push_values(values);
        }
        b.build()
    }
}

/// Generator for the regex experiments' string tables: an 8-byte id
/// followed by one fixed-width string column.
#[derive(Debug, Clone)]
pub struct StringTableGen {
    rows: usize,
    string_bytes: usize,
    match_fraction: f64,
    seed: u64,
}

impl StringTableGen {
    /// `rows` rows with a string column of `string_bytes` (Figure 10
    /// sweeps 256 B – 16 kB).
    pub fn new(rows: usize, string_bytes: usize) -> Self {
        assert!(string_bytes >= 16, "strings must fit the match marker");
        StringTableGen {
            rows,
            string_bytes,
            match_fraction: 0.5,
            seed: 0x5712_AB42,
        }
    }

    /// Fraction of rows matching [`REGEX_PATTERN`] (paper: 50 %).
    pub fn match_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.match_fraction = f;
        self
    }

    /// Fix the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The schema: `(id: U64, s: Bytes(n))`.
    pub fn schema(&self) -> Schema {
        Schema::new(vec![
            Column {
                name: "id".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "s".into(),
                ty: ColumnType::Bytes(self.string_bytes),
            },
        ])
    }

    /// Build the table. Matching rows embed `smartmem<digits>` at a
    /// random offset; non-matching rows are random lowercase text that
    /// cannot contain the marker (the alphabet excludes `s`).
    pub fn build(&self) -> Table {
        let schema = self.schema();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = TableBuilder::with_capacity(schema.clone(), self.rows);
        // Alphabet without 's' so "smartmem" can never occur by chance.
        const ALPHA: &[u8] = b"abcdefghijklmnopqrtuvwxyz ";
        for row in 0..self.rows {
            let mut s: Vec<u8> = (0..self.string_bytes)
                .map(|_| ALPHA[rng.gen_range(0..ALPHA.len())])
                .collect();
            if rng.gen_bool(self.match_fraction) {
                let marker = format!("smartmem{}", rng.gen_range(0..1000u32));
                let pos = rng.gen_range(0..=self.string_bytes - marker.len());
                s[pos..pos + marker.len()].copy_from_slice(marker.as_bytes());
            }
            b.push_values(vec![Value::U64(row as u64), Value::Bytes(s)]);
        }
        b.build()
    }
}

/// Encrypt a table image with AES-128-CTR for the Figure 11 experiments
/// (data at rest in the disaggregated buffer pool, Cypherbase-style).
pub fn encrypt_table(table: &Table, key: &[u8; 16], iv: &[u8; 16]) -> Table {
    let mut image = table.bytes().to_vec();
    fv_crypto::ctr_apply_at(key, iv, 0, &mut image);
    Table::from_bytes(table.schema().clone(), image)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_builds() {
        let a = TableGen::new(8, 100).seed(7).build();
        let b = TableGen::new(8, 100).seed(7).build();
        assert_eq!(a, b);
        let c = TableGen::new(8, 100).seed(8).build();
        assert_ne!(a, c);
    }

    #[test]
    fn selectivity_calibration_is_close() {
        let t = TableGen::new(2, 20_000)
            .seed(1)
            .selectivity_column(0, 0.25)
            .build();
        let selected = t
            .rows()
            .filter(|r| r.value(0).as_u64() < SELECTIVITY_PIVOT)
            .count();
        let frac = selected as f64 / 20_000.0;
        assert!((0.23..0.27).contains(&frac), "got {frac}");
    }

    #[test]
    fn distinct_cardinality_bounded() {
        let t = TableGen::new(1, 10_000).distinct_column(0, 64).build();
        let mut seen = std::collections::HashSet::new();
        for r in t.rows() {
            seen.insert(r.value(0).as_u64());
        }
        assert!(seen.len() <= 64);
        assert!(seen.len() > 48, "should hit most of the 64 groups");
    }

    #[test]
    fn sequential_is_all_distinct() {
        let t = TableGen::new(2, 1000).sequential_column(0).build();
        let mut seen = std::collections::HashSet::new();
        for r in t.rows() {
            assert!(seen.insert(r.value(0).as_u64()));
        }
    }

    #[test]
    fn string_match_rate_is_calibrated() {
        let g = StringTableGen::new(2000, 64).match_fraction(0.5).seed(3);
        let t = g.build();
        let re = fv_regex_check();
        let matches = t
            .rows()
            .filter(|r| {
                let s = r.col_raw(1);
                re.is_match(trim(s))
            })
            .count();
        let frac = matches as f64 / 2000.0;
        assert!((0.45..0.55).contains(&frac), "match rate {frac}");
    }

    fn trim(s: &[u8]) -> &[u8] {
        let end = s.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
        &s[..end]
    }

    fn fv_regex_check() -> fv_regex::Regex {
        fv_regex::Regex::compile(REGEX_PATTERN).unwrap()
    }

    #[test]
    fn paper_default_sizes() {
        let t = TableGen::paper_default(1024 * 1024).build();
        assert_eq!(t.byte_len(), 1024 * 1024);
        assert_eq!(t.row_count(), 16_384);
        assert_eq!(t.schema().row_bytes(), 64);
    }
}
