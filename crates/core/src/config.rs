//! Node configuration.

use fv_sim::calib;

use crate::FvError;

/// Configuration of one Farview node.
///
/// Defaults reproduce the evaluated system (§6.1): an Alveo u250 with two
/// of four 16 GB channels active, six dynamic regions, 1 kB packets.
#[derive(Debug, Clone, PartialEq)]
pub struct FarviewConfig {
    /// Active DRAM channels ("we used two of the four available
    /// channels", §6.1).
    pub channels: usize,
    /// Bytes per channel: 16 GB on the u250 (§6.1). Capacity costs the
    /// host nothing; node memory is resident only where written.
    pub channel_bytes: u64,
    /// Dynamic regions ("We use six dynamic regions", §6.1).
    pub regions: usize,
    /// Credit budget per queue pair, in packets (§4.3 flow control).
    pub credit_budget: u32,
    /// TLB entries (ablation knob).
    pub tlb_entries: usize,
    /// Use vector lanes equal to `channels` when a spec asks for
    /// vectorized execution.
    pub vector_lanes: usize,
    /// Fault plan for this node's client-facing link (chaos testing).
    /// Benign by default; a degraded plan makes episode transmissions
    /// fall through `LinkTiming::try_transmit` and surface typed errors.
    pub fault: fv_net::FaultPlan,
}

impl Default for FarviewConfig {
    fn default() -> Self {
        FarviewConfig {
            channels: calib::DEFAULT_CHANNELS,
            channel_bytes: 16 << 30,
            regions: calib::DEFAULT_REGIONS,
            credit_budget: calib::QP_CREDITS,
            tlb_entries: calib::TLB_ENTRIES,
            vector_lanes: calib::DEFAULT_CHANNELS,
            fault: fv_net::FaultPlan::default(),
        }
    }
}

impl FarviewConfig {
    /// A small node for unit tests: two regions and a 16-page pool, so
    /// region contention and out-of-memory paths are a few steps away.
    pub fn tiny() -> Self {
        FarviewConfig {
            channels: 2,
            channel_bytes: 16 * 1024 * 1024,
            regions: 2,
            ..FarviewConfig::default()
        }
    }

    /// Validate invariants. The fault plan is not checked here: a link
    /// refuses an out-of-range plan typed when it adopts it
    /// ([`fv_net::FaultPlan::validate`]), so a query against such a node
    /// fails with [`FvError::Net`].
    ///
    /// # Errors
    /// [`FvError::BadConfig`] on nonsensical configurations (zero
    /// channels/regions/credits, vector lanes outside `1..=8`).
    pub fn validate(&self) -> Result<(), FvError> {
        let reason = if self.channels == 0 {
            "need at least one DRAM channel"
        } else if self.regions == 0 {
            "need at least one dynamic region"
        } else if self.credit_budget == 0 {
            "credit budget must be positive"
        } else if !(1..=8).contains(&self.vector_lanes) {
            "vector lanes out of range"
        } else {
            return Ok(());
        };
        Err(FvError::BadConfig { reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = FarviewConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.channels, 2);
        assert_eq!(c.regions, 6);
        assert_eq!(c.channel_bytes, 16 << 30, "two 16 GB channels (§6.1)");
    }

    #[test]
    #[should_panic(expected = "dynamic region")]
    fn zero_regions_rejected() {
        FarviewConfig {
            regions: 0,
            ..FarviewConfig::default()
        }
        .validate()
        .unwrap();
    }
}
