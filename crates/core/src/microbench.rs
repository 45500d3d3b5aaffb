//! RDMA microbenchmark models (Figure 6).
//!
//! Figure 6(a) measures *sustained* read throughput with many requests
//! in flight; the binding constraint per request is the larger of the
//! NIC's serial per-request occupancy and the data's serialization time
//! at the NIC's peak rate. Below saturation (~4 kB) the occupancy
//! dominates and the RNIC's faster ASIC wins; at saturation Farview's
//! 12 GBps on-board path beats the RNIC's 11 GBps PCIe ceiling (§6.2).
//!
//! Figure 6(b)'s response times come from the full discrete-event
//! episode for Farview (see [`crate::episode`]); the RNIC side is the
//! analytic model in `fv-baseline` (same constants, no FPGA datapath).

use fv_net::NicKind;
use fv_sim::calib::PACKET_BYTES;
use fv_sim::SimDuration;

/// Sustained RDMA read throughput (bytes/second) for back-to-back
/// pipelined requests of `transfer_bytes` each.
#[expect(
    clippy::disallowed_macros,
    reason = "sweep transfer sizes are all positive"
)]
pub(crate) fn read_throughput(nic: NicKind, transfer_bytes: u64) -> f64 {
    assert!(transfer_bytes > 0);
    let serialization = SimDuration::for_bytes(transfer_bytes, nic.peak_rate());
    let packets = transfer_bytes.div_ceil(PACKET_BYTES);
    // With deep pipelining the per-request service time is the max of
    // the serial stages (request engine vs wire serialization), not
    // their sum.
    let engine = nic.request_occupancy() + nic.per_packet_pipelined() * packets;
    let bottleneck = engine.max(serialization);
    transfer_bytes as f64 / bottleneck.as_secs_f64()
}

/// Throughput in GB/s (the figure's y axis).
pub fn read_throughput_gbps(nic: NicKind, transfer_bytes: u64) -> f64 {
    read_throughput(nic, transfer_bytes) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rnic_wins_small_fv_wins_large() {
        // Below 4 kB the RNIC achieves better throughput (§6.2).
        for size in [128u64, 512, 1024, 2048] {
            assert!(
                read_throughput(NicKind::CommercialRnic, size)
                    > read_throughput(NicKind::FarviewFpga, size),
                "RNIC must win at {size} B"
            );
        }
        // At saturation Farview peaks at ~12 GBps vs ~11 GBps.
        let fv = read_throughput_gbps(NicKind::FarviewFpga, 128 * 1024);
        let rnic = read_throughput_gbps(NicKind::CommercialRnic, 128 * 1024);
        assert!(fv > rnic, "FV {fv} must beat RNIC {rnic} at saturation");
        assert!((11.0..=12.5).contains(&fv), "FV peak off: {fv}");
        assert!((10.0..=11.5).contains(&rnic), "RNIC peak off: {rnic}");
    }

    #[test]
    fn throughput_is_monotone_in_size() {
        let mut last = 0.0;
        for size in [128u64, 512, 2048, 8192, 32768] {
            let t = read_throughput(NicKind::FarviewFpga, size);
            assert!(t > last, "throughput must grow with transfer size");
            last = t;
        }
    }
}
