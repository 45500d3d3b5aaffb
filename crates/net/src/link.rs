//! Wire and NIC timing models.
//!
//! Two NIC personalities, calibrated in `fv_sim::calib`:
//!
//! * [`NicKind::FarviewFpga`] — the smart NIC: higher fixed request
//!   processing (250 MHz stack) but cheap per-packet multi-packet
//!   processing and direct on-board DRAM (no PCIe hop).
//! * [`NicKind::CommercialRnic`] — the ConnectX-5 baseline: fast ASIC
//!   request handling, but every request crosses PCIe to host DRAM and
//!   per-packet descriptor/page handling is costlier; throughput is
//!   capped by the PCIe bus (~11 GBps, §6.2).

use fv_sim::calib::{
    FV_NET_PEAK, FV_PER_PACKET, FV_REQ_OCCUPANCY, RNIC_PCIE_PEAK, RNIC_PER_PACKET,
    RNIC_REQ_OCCUPANCY, WIRE_ONE_WAY,
};
use fv_sim::{BandwidthServer, SimDuration, SimTime};

use crate::fault::{FaultInjector, FaultPlan};
use crate::packet::QpId;
use crate::qp::NetError;

/// Which NIC serves the remote side of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicKind {
    /// Farview's FPGA smart NIC with on-board DRAM.
    FarviewFpga,
    /// A commercial RDMA NIC in front of host DRAM over PCIe.
    CommercialRnic,
}

impl NicKind {
    /// Per-packet egress processing.
    pub fn per_packet(self) -> SimDuration {
        match self {
            NicKind::FarviewFpga => FV_PER_PACKET,
            NicKind::CommercialRnic => RNIC_PER_PACKET,
        }
    }

    /// Serial per-request occupancy under pipelined load (throughput
    /// experiments).
    pub fn request_occupancy(self) -> SimDuration {
        match self {
            NicKind::FarviewFpga => FV_REQ_OCCUPANCY,
            NicKind::CommercialRnic => RNIC_REQ_OCCUPANCY,
        }
    }

    /// Per-packet engine occupancy under pipelined load (much smaller
    /// than the additive latency of [`NicKind::per_packet`]).
    pub fn per_packet_pipelined(self) -> SimDuration {
        match self {
            NicKind::FarviewFpga => fv_sim::calib::FV_PER_PACKET_PIPELINED,
            NicKind::CommercialRnic => fv_sim::calib::RNIC_PER_PACKET_PIPELINED,
        }
    }

    /// Sustained data-path throughput ceiling.
    pub fn peak_rate(self) -> f64 {
        match self {
            NicKind::FarviewFpga => FV_NET_PEAK,
            NicKind::CommercialRnic => RNIC_PCIE_PEAK,
        }
    }
}

/// The serialized wire (egress direction) of one link, plus propagation
/// and an optional deterministic fault injector.
#[derive(Debug, Clone)]
pub struct LinkTiming {
    kind: NicKind,
    wire: BandwidthServer,
    one_way: SimDuration,
    faults: Option<FaultInjector>,
}

impl LinkTiming {
    /// A healthy link served by the given NIC kind.
    pub fn new(kind: NicKind) -> Self {
        LinkTiming {
            kind,
            wire: BandwidthServer::new(kind.peak_rate(), kind.per_packet()),
            one_way: WIRE_ONE_WAY,
            faults: None,
        }
    }

    /// A link degraded per `plan`. A benign plan builds a healthy link
    /// with no injector at all, so the fault path costs nothing when
    /// chaos is off.
    ///
    /// # Errors
    /// [`NetError::InvalidFaultPlan`] when the plan does not
    /// [`validate`](FaultPlan::validate).
    pub fn with_faults(kind: NicKind, plan: FaultPlan) -> Result<Self, NetError> {
        let mut link = LinkTiming::new(kind);
        if !plan.is_benign() {
            link.faults = Some(FaultInjector::new(kind, plan)?);
        }
        Ok(link)
    }

    /// The NIC personality.
    pub fn kind(&self) -> NicKind {
        self.kind
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.one_way
    }

    /// The fault injector, when this link is degraded.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Admit one packet of `wire_bytes` for transmission at `now`;
    /// returns the instant its last bit arrives at the far end
    /// (serialization queueing + propagation).
    ///
    /// # Panics
    /// Panics if the link is degraded and the injector faults this
    /// packet — callers on a path that can see injected faults must use
    /// [`LinkTiming::try_transmit`] instead.
    #[expect(
        clippy::expect_used,
        reason = "documented: fault-prone paths call `try_transmit`"
    )]
    pub fn transmit(&mut self, now: SimTime, wire_bytes: u64) -> SimTime {
        self.try_transmit(0, now, wire_bytes)
            .expect("fault injected on a link driven through the infallible transmit path")
    }

    /// Fault-aware transmission for `qp`'s packet of `wire_bytes`.
    ///
    /// On a healthy link this is exactly [`LinkTiming::transmit`]. On a
    /// degraded link the injector decides, deterministically from the
    /// plan's seed:
    ///
    /// * **partition** — fail immediately with
    ///   [`NetError::LinkPartitioned`]; nothing occupies the wire.
    /// * **loss** — each lost attempt still occupies the wire (the bits
    ///   were sent) and adds exponential backoff before the retry; the
    ///   retry budget running out is [`NetError::RetriesExhausted`].
    /// * **bandwidth cap** — arrival is delayed to when a capped-rate
    ///   server would have drained the packet.
    /// * **delay spike** — a flat extra delay on unlucky packets.
    pub fn try_transmit(
        &mut self,
        qp: QpId,
        now: SimTime,
        wire_bytes: u64,
    ) -> Result<SimTime, NetError> {
        let Some(inj) = &mut self.faults else {
            return Ok(self.wire.admit(now, wire_bytes) + self.one_way);
        };
        if inj.plan().partitioned {
            return Err(NetError::LinkPartitioned { qp });
        }
        // Retry loop: every attempt (lost or not) serializes onto the
        // wire; lost attempts push the next try out by the backoff.
        let max_retries = inj.plan().max_retries;
        let mut attempt_start = now;
        let mut attempts = 0u32;
        let sent_at = loop {
            attempts += 1;
            let drained = self.wire.admit(attempt_start, wire_bytes);
            if !inj.lost() {
                break drained;
            }
            if attempts > max_retries {
                inj.record_exhausted();
                return Err(NetError::RetriesExhausted { qp, attempts });
            }
            attempt_start = drained + inj.backoff(attempts);
        };
        let mut arrival = sent_at + self.one_way;
        if let Some(cap) = inj.cap_mut() {
            // The capped spine drains the packet no earlier than the
            // degraded rate allows.
            arrival = arrival.max(cap.admit(now, wire_bytes) + self.one_way);
        }
        if inj.spiked() {
            arrival += inj.plan().delay_spike;
        }
        Ok(arrival)
    }

    /// Reset for a fresh episode; a degraded link replays its fault
    /// plan from the seed.
    pub fn reset(&mut self) {
        self.wire.reset();
        if let Some(inj) = &mut self.faults {
            inj.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_sim::calib::{FV_REQ_PROC, PACKET_BYTES, RNIC_PCIE_LATENCY, RNIC_REQ_PROC};

    #[test]
    fn fpga_vs_rnic_fixed_costs() {
        // Including the PCIe hop, the RNIC's fixed request cost is
        // higher; what it wins on is occupancy under load and nothing
        // else at large transfers.
        assert!(
            RNIC_REQ_PROC + RNIC_PCIE_LATENCY > FV_REQ_PROC,
            "PCIe hop must dominate the RNIC's request fixed cost"
        );
        assert!(NicKind::CommercialRnic.per_packet() > NicKind::FarviewFpga.per_packet());
        assert!(
            NicKind::CommercialRnic.request_occupancy() < NicKind::FarviewFpga.request_occupancy()
        );
        assert!(NicKind::FarviewFpga.peak_rate() > NicKind::CommercialRnic.peak_rate());
    }

    #[test]
    fn transmit_serializes_back_to_back_packets() {
        let mut link = LinkTiming::new(NicKind::FarviewFpga);
        let t0 = SimTime::ZERO;
        let a = link.transmit(t0, PACKET_BYTES);
        let b = link.transmit(t0, PACKET_BYTES);
        assert!(b > a, "second packet must queue behind the first");
        let gap = b - a;
        // The gap is exactly one packet's service time (overhead + ser.).
        let service = NicKind::FarviewFpga.per_packet()
            + SimDuration::for_bytes(PACKET_BYTES, NicKind::FarviewFpga.peak_rate());
        assert_eq!(gap.as_nanos(), service.as_nanos());
    }

    #[test]
    fn reset_clears_horizon() {
        let mut link = LinkTiming::new(NicKind::CommercialRnic);
        let first = link.transmit(SimTime::ZERO, 4096);
        assert!(link.transmit(SimTime::ZERO, 4096) > first, "queued behind");
        assert!(link.wire.bytes_served() > 0);
        link.reset();
        assert_eq!(link.wire.bytes_served(), 0);
        assert_eq!(link.transmit(SimTime::ZERO, 4096), first);
    }

    #[test]
    fn benign_plan_is_a_healthy_link() {
        let mut faulted =
            LinkTiming::with_faults(NicKind::FarviewFpga, FaultPlan::default()).unwrap();
        assert!(
            faulted.faults().is_none(),
            "benign plan installs no injector"
        );
        let mut healthy = LinkTiming::new(NicKind::FarviewFpga);
        for i in 0..8 {
            let t = SimTime::from_nanos(i * 100);
            assert_eq!(
                faulted.try_transmit(0, t, PACKET_BYTES).unwrap(),
                healthy.transmit(t, PACKET_BYTES)
            );
        }
    }

    #[test]
    fn partition_is_an_immediate_typed_error() {
        let mut link =
            LinkTiming::with_faults(NicKind::FarviewFpga, FaultPlan::default().partitioned())
                .unwrap();
        assert_eq!(
            link.try_transmit(3, SimTime::ZERO, PACKET_BYTES),
            Err(NetError::LinkPartitioned { qp: 3 })
        );
        assert_eq!(link.wire.bytes_served(), 0, "nothing occupies the wire");
    }

    #[test]
    fn loss_costs_latency_never_bytes() {
        let plan = FaultPlan::default().with_seed(7).with_loss_retries(0.4, 16);
        let mut lossy = LinkTiming::with_faults(NicKind::FarviewFpga, plan).unwrap();
        let mut clean = LinkTiming::new(NicKind::FarviewFpga);
        let mut slower = false;
        for i in 0..32 {
            let t = SimTime::from_nanos(i * 10_000);
            let a = lossy.try_transmit(0, t, PACKET_BYTES).unwrap();
            let b = clean.transmit(t, PACKET_BYTES);
            assert!(a >= b, "retries can only delay arrival");
            slower |= a > b;
        }
        assert!(slower, "40% loss over 32 packets must retry at least once");
        assert!(lossy.faults().unwrap().retries() > 0);
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        // High loss and a tiny budget: some packet must exhaust retries.
        let plan = FaultPlan::default().with_seed(11).with_loss_retries(0.9, 1);
        let mut link = LinkTiming::with_faults(NicKind::FarviewFpga, plan).unwrap();
        let mut saw_exhaustion = false;
        for i in 0..64 {
            match link.try_transmit(5, SimTime::from_nanos(i * 1000), PACKET_BYTES) {
                Ok(_) => {}
                Err(NetError::RetriesExhausted { qp: 5, attempts }) => {
                    assert_eq!(attempts, 2, "1 original + 1 retry");
                    saw_exhaustion = true;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_exhaustion);
        assert!(link.faults().unwrap().exhausted() > 0);
    }

    #[test]
    fn bandwidth_cap_slows_back_to_back_packets() {
        let plan = FaultPlan::default().with_bandwidth_cap(0.1);
        let mut capped = LinkTiming::with_faults(NicKind::FarviewFpga, plan).unwrap();
        let mut clean = LinkTiming::new(NicKind::FarviewFpga);
        let mut last_capped = SimTime::ZERO;
        let mut last_clean = SimTime::ZERO;
        for _ in 0..16 {
            last_capped = capped.try_transmit(0, SimTime::ZERO, PACKET_BYTES).unwrap();
            last_clean = clean.transmit(SimTime::ZERO, PACKET_BYTES);
        }
        assert!(
            last_capped > last_clean,
            "a 10% cap must drain a 16-packet burst later than the native rate"
        );
    }

    #[test]
    fn delay_spikes_replay_deterministically() {
        let plan = FaultPlan::default()
            .with_seed(3)
            .with_delay_spikes(0.5, SimDuration::from_micros(10));
        let mut a = LinkTiming::with_faults(NicKind::FarviewFpga, plan.clone()).unwrap();
        let arrivals: Vec<SimTime> = (0..16)
            .map(|i| {
                a.try_transmit(0, SimTime::from_nanos(i * 50_000), PACKET_BYTES)
                    .unwrap()
            })
            .collect();
        a.reset();
        let replay: Vec<SimTime> = (0..16)
            .map(|i| {
                a.try_transmit(0, SimTime::from_nanos(i * 50_000), PACKET_BYTES)
                    .unwrap()
            })
            .collect();
        assert_eq!(
            arrivals, replay,
            "reset replays the identical spike pattern"
        );
        assert!(
            a.faults().unwrap().spikes() > 0,
            "p=0.5 over 16 packets hits"
        );
    }
}
