//! DRAM channel timing: one bandwidth server per channel.
//!
//! "Each memory channel can provide a certain amount of memory bandwidth
//! ... a maximum theoretical bandwidth of 18 GBps per channel" (§4.4).
//! Bursts queue FIFO per channel; concurrency across channels is what
//! striping buys ("The multiple channel organization of on-board FPGA
//! memory offers additional parallelization potential").

use fv_sim::calib::{DRAM_BURST_OVERHEAD, DRAM_CHANNEL_BW};
use fv_sim::{BandwidthServer, SimTime};

/// Per-channel FIFO bandwidth servers.
#[derive(Debug, Clone)]
pub struct DramTiming {
    channels: Vec<BandwidthServer>,
}

impl DramTiming {
    /// Timing for `n_channels` channels at the calibrated rate.
    pub fn new(n_channels: usize) -> Self {
        DramTiming {
            channels: (0..n_channels)
                .map(|_| BandwidthServer::new(DRAM_CHANNEL_BW, DRAM_BURST_OVERHEAD))
                .collect(),
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Admit a burst of `bytes` on `channel` at `now`; returns the
    /// completion instant.
    #[expect(
        clippy::indexing_slicing,
        reason = "`channel` comes from `PhysicalMemory::channel_of` on the same channel count"
    )]
    pub fn admit(&mut self, channel: usize, now: SimTime, bytes: u64) -> SimTime {
        self.channels[channel].admit(now, bytes)
    }

    /// Reset all channel horizons (new episode).
    pub fn reset(&mut self) {
        for c in &mut self.channels {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_sim::calib::MEM_BURST_BYTES;
    use fv_sim::SimDuration;

    #[test]
    fn two_channels_double_effective_bandwidth() {
        let mut one = DramTiming::new(1);
        let mut two = DramTiming::new(2);
        let bursts = 64u64;
        let t0 = SimTime::ZERO;
        let mut done_one = SimTime::ZERO;
        let mut done_two = SimTime::ZERO;
        for i in 0..bursts {
            done_one = done_one.max(one.admit(0, t0, MEM_BURST_BYTES));
            done_two = done_two.max(two.admit((i % 2) as usize, t0, MEM_BURST_BYTES));
        }
        let ratio = done_one.as_nanos() as f64 / done_two.as_nanos() as f64;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "striping must ~double bandwidth, got {ratio}"
        );
    }

    #[test]
    fn channel_rate_matches_calibration() {
        let mut t = DramTiming::new(1);
        // One maximal burst: overhead + bytes/rate.
        let done = t.admit(0, SimTime::ZERO, MEM_BURST_BYTES);
        let expect = fv_sim::calib::DRAM_BURST_OVERHEAD
            + SimDuration::for_bytes(MEM_BURST_BYTES, fv_sim::calib::DRAM_CHANNEL_BW);
        assert_eq!(done.as_nanos(), expect.as_nanos());
    }

    #[test]
    fn load_accounting_and_reset() {
        let mut t = DramTiming::new(2);
        t.admit(0, SimTime::ZERO, 100);
        t.admit(1, SimTime::ZERO, 200);
        let served = |t: &DramTiming| -> Vec<u64> {
            t.channels
                .iter()
                .map(BandwidthServer::bytes_served)
                .collect()
        };
        assert_eq!(served(&t), vec![100, 200]);
        t.reset();
        assert_eq!(served(&t), vec![0, 0]);
        assert!(t.channels.iter().all(|c| c.busy_until() == SimTime::ZERO));
    }
}
