//! Measurement helpers.
//!
//! The paper reports medians over 1000 runs (FPGA) / 10000 runs (CPU,
//! which jitters). The simulator is deterministic, so medians collapse to
//! single values; these helpers exist to aggregate sweeps, to report
//! distribution summaries for randomized workloads, and to let tests make
//! statements such as "p99 queueing delay under six clients stays below X".

use crate::calib;
use crate::time::SimDuration;

/// Cost model for the client-side scatter–gather merge step of a
/// multi-node fleet query.
///
/// A fleet query fans out to N Farview nodes; each shard's episode runs
/// in the discrete-event engine, and the client then combines the
/// partial results in software. Two merge shapes exist:
///
/// * [`concat`](MergeCostModel::concat) — order-preserving
///   concatenation of shard payloads (selection / projection / regex
///   results under row-range partitioning): a streaming memcpy.
/// * [`hash_merge`](MergeCostModel::hash_merge) — hash-based
///   re-aggregation or dedup (`GROUP BY` partials, `DISTINCT` union):
///   one hash probe/update per partial row plus the streaming copy.
///
/// The defaults come from [`calib`] and follow the same reasoning as the
/// paper's §5.4 client-side software dedup of cuckoo overflow tuples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeCostModel {
    /// Hash probe/update cost per partial row, nanoseconds.
    pub row_ns: u64,
    /// Streaming copy bandwidth for payload bytes, bytes/second.
    pub concat_bw: f64,
}

impl Default for MergeCostModel {
    fn default() -> Self {
        MergeCostModel {
            row_ns: calib::CLIENT_MERGE_ROW_NS,
            concat_bw: calib::CLIENT_CONCAT_BW,
        }
    }
}

impl MergeCostModel {
    /// Time to concatenate `bytes` of shard payloads.
    pub fn concat(&self, bytes: u64) -> SimDuration {
        SimDuration::for_bytes(bytes, self.concat_bw)
    }

    /// Time to hash-merge `rows` partial rows spanning `bytes` of
    /// payload.
    pub fn hash_merge(&self, rows: u64, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(rows * self.row_ns) + self.concat(bytes)
    }
}

/// A simple exact-quantile container: stores all samples, sorts on query.
///
/// Sample counts in this codebase are small (thousands), so exactness
/// beats the complexity of a streaming sketch.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add one sample.
    #[expect(
        clippy::disallowed_macros,
        reason = "samples are simulated, never NaN or infinite"
    )]
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "histogram sample must be finite");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Add one duration sample, in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Exact quantile by the nearest-rank method; `None` when empty or
    /// when `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        self.ensure_sorted();
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        self.samples.get(rank.min(self.samples.len() - 1)).copied()
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Mean of all samples.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(f64::from(i));
        }
        assert_eq!(h.median(), Some(50.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn histogram_unsorted_input() {
        let mut h = Histogram::new();
        for x in [9.0, 1.0, 5.0] {
            h.record(x);
        }
        assert_eq!(h.median(), Some(5.0));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn merge_cost_model_scales() {
        let m = MergeCostModel::default();
        assert_eq!(m.concat(0), SimDuration::ZERO);
        assert!(m.concat(1 << 20) > m.concat(1 << 10));
        // Hash merge = per-row cost on top of the streaming copy.
        let rows_cost = m.hash_merge(1000, 0);
        assert_eq!(
            rows_cost,
            SimDuration::from_nanos(1000 * calib::CLIENT_MERGE_ROW_NS)
        );
        assert!(m.hash_merge(1000, 4096) > rows_cost);
    }

    #[test]
    fn histogram_duration_units_are_micros() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_micros(250));
        assert_eq!(h.median(), Some(250.0));
    }
}
