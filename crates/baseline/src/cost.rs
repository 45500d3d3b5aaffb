//! The CPU cost model.
//!
//! Charges exactly the effects the paper attributes its baseline
//! slowdowns to: "LCPU pays a significant price, because it has to read
//! the data from DRAM and not from cache, and also write it back to
//! DRAM" (§6.4); hash-table resizing and per-insert cache misses (§6.5);
//! per-byte regex cost (§6.6); software AES throughput (§6.7); and
//! cache/DRAM interference between concurrent processes (§6.8).

use fv_sim::calib::{
    CPU_AES_BW, CPU_HASH_HIT_NS, CPU_HASH_INSERT_NS, CPU_INTERFERENCE_FACTOR, CPU_PREDICATE_NS,
    CPU_READ_BW, CPU_REGEX_NS_PER_BYTE, CPU_SOCKET_BW, CPU_WRITE_BW, LCPU_FIXED,
};
use fv_sim::{calib, SimDuration};

/// Per-phase cost record, so experiments can report where time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Fixed software overhead.
    pub fixed: SimDuration,
    /// Streaming the base table out of DRAM.
    pub scan: SimDuration,
    /// Per-tuple compute (predicates, hashing, regex, AES).
    pub compute: SimDuration,
    /// Materializing the result back to memory.
    pub materialize: SimDuration,
    /// Network time (RCPU only).
    pub network: SimDuration,
}

impl CostBreakdown {
    /// Total time.
    pub fn total(&self) -> SimDuration {
        self.fixed + self.scan + self.compute + self.materialize + self.network
    }
}

/// The calibrated single-process / multi-process CPU model.
#[derive(Debug, Clone, Copy)]
pub struct CpuCostModel {
    /// Concurrent processes competing for the socket (Figure 12 uses 6).
    pub processes: usize,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        CpuCostModel { processes: 1 }
    }
}

impl CpuCostModel {
    /// A model with `processes` concurrent query processes.
    pub fn with_processes(processes: usize) -> Self {
        assert!(processes >= 1);
        CpuCostModel { processes }
    }

    /// Interference multiplier on per-tuple compute (shared caches).
    fn compute_factor(&self) -> f64 {
        if self.processes > 1 {
            CPU_INTERFERENCE_FACTOR
        } else {
            1.0
        }
    }

    /// Effective per-process streaming read bandwidth.
    pub(crate) fn read_bw(&self) -> f64 {
        let fair_share = CPU_SOCKET_BW / self.processes as f64;
        let per_proc = CPU_READ_BW.min(fair_share);
        if self.processes > 1 {
            per_proc / CPU_INTERFERENCE_FACTOR
        } else {
            per_proc
        }
    }

    /// Effective per-process streaming write bandwidth.
    pub(crate) fn write_bw(&self) -> f64 {
        let ratio = CPU_WRITE_BW / CPU_READ_BW;
        self.read_bw() * ratio
    }

    /// Fixed query overhead.
    pub fn fixed(&self) -> SimDuration {
        LCPU_FIXED
    }

    /// Stream `bytes` from DRAM into the core.
    pub fn scan(&self, bytes: u64) -> SimDuration {
        calib::transfer(bytes, self.read_bw())
    }

    /// Materialize `bytes` of result.
    pub fn materialize(&self, bytes: u64) -> SimDuration {
        calib::transfer(bytes, self.write_bw())
    }

    /// Evaluate predicates over `tuples`.
    pub fn predicates(&self, tuples: u64) -> SimDuration {
        SimDuration::from_nanos(
            (tuples as f64 * CPU_PREDICATE_NS as f64 * self.compute_factor()) as u64,
        )
    }

    /// Hash-table work: `inserts` new keys (resize-amortized) plus
    /// `hits` lookups of existing keys.
    pub fn hashing(&self, inserts: u64, hits: u64) -> SimDuration {
        let ns = (inserts as f64 * CPU_HASH_INSERT_NS as f64
            + hits as f64 * CPU_HASH_HIT_NS as f64)
            * self.compute_factor();
        SimDuration::from_nanos(ns as u64)
    }

    /// RE2-like regex scan over `bytes` of string data.
    pub fn regex(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(
            (bytes as f64 * CPU_REGEX_NS_PER_BYTE * self.compute_factor()) as u64,
        )
    }

    /// Software AES-128-CTR over `bytes`.
    pub fn aes(&self, bytes: u64) -> SimDuration {
        calib::transfer(bytes, CPU_AES_BW / self.compute_factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_bandwidths() {
        let m = CpuCostModel::default();
        assert_eq!(m.read_bw(), CPU_READ_BW);
        assert!((m.write_bw() - CPU_WRITE_BW).abs() < 1.0);
    }

    #[test]
    fn six_processes_contend() {
        let solo = CpuCostModel::default();
        let six = CpuCostModel::with_processes(6);
        assert!(six.read_bw() < solo.read_bw() / 2.0);
        assert!(six.hashing(1000, 0) > solo.hashing(1000, 0));
    }

    #[test]
    fn figure8_scale_check() {
        // LCPU at 1 MB, 100% selectivity: scan 1 MB + write 1 MB + 16 K
        // predicate evaluations + fixed. The paper's Figure 8(a) puts
        // this in the few-hundred-µs band.
        let m = CpuCostModel::default();
        let total = (m.fixed() + m.scan(1 << 20) + m.predicates(16_384) + m.materialize(1 << 20))
            .as_micros_f64();
        assert!((250.0..450.0).contains(&total), "got {total} µs");
    }

    #[test]
    fn figure9_scale_check() {
        // LCPU distinct over 16 K all-distinct tuples: ~1 ms of hash
        // inserts on top of the scan (Figure 9(a) climbs past 1 ms).
        let m = CpuCostModel::default();
        let total =
            (m.fixed() + m.scan(1 << 20) + m.hashing(16_384, 0) + m.materialize(128 * 1024))
                .as_micros_f64();
        assert!((800.0..2000.0).contains(&total), "got {total} µs");
    }

    #[test]
    fn breakdown_totals() {
        let b = CostBreakdown {
            fixed: SimDuration::from_micros(1),
            scan: SimDuration::from_micros(2),
            compute: SimDuration::from_micros(3),
            materialize: SimDuration::from_micros(4),
            network: SimDuration::from_micros(5),
        };
        assert_eq!(b.total(), SimDuration::from_micros(15));
    }
}
