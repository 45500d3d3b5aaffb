//! # fv-net — the Farview network stack
//!
//! "Farview's network stack implements a reliable RDMA connection
//! protocol, building on an existing open source stack that implements
//! regular one-sided RDMA read and write verbs. We extend the original
//! stack with support for out-of-order execution at the granularity of
//! single network packets. The out-of-order execution, along with
//! credit-based flow control and packet based processing, allows Farview
//! to provide the fair-sharing" (§4.3).
//!
//! This crate implements that protocol machinery functionally, plus the
//! calibrated timing models for the 100 Gbps wire and the commercial-NIC
//! (PCIe) baseline:
//!
//! * [`Packet`] — one response-data packet, 40 bytes on the host: flow
//!   id, sequence number, the `last` flag, and a `bytes::Bytes` view of
//!   the sender's drain buffer. Requests (the Farview verb and its
//!   operator parameters, §4.3) and credit returns travel as the episode
//!   engine's own messages, not as packets.
//! * [`CreditGate`] — the per-stream credit budget of "credit-based flow
//!   control" (§4.3); the episode's sender holds one per stream.
//! * [`Reassembly`] — out-of-order reassembly of a packetised response:
//!   an in-order packet is appended straight into the client buffer (the
//!   one copy a result byte pays); only really-early packets wait in the
//!   out-of-order map.
//! * [`EgressArbiter`] — DRR fair sharing of the wire across queue
//!   pairs; a pushed packet finds its flow slot in one binary search.
//! * [`LinkTiming`] — bandwidth/latency servers for the Farview wire and
//!   the RNIC/PCIe path of the baselines.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod arbiter;
mod fault;
mod link;
mod packet;
mod qp;

pub use arbiter::EgressArbiter;
pub use fault::{FaultInjector, FaultPlan};
pub use link::{LinkTiming, NicKind};
pub use packet::{Packet, PacketKind, QpId, HEADER_BYTES};
pub use qp::{CreditGate, DoorbellBatch, NetError, Reassembly};

/// Split `total_bytes` into MTU-sized packet lengths (last one short).
#[expect(
    clippy::disallowed_macros,
    reason = "every caller passes the calibrated MTU"
)]
pub fn packetize(total_bytes: u64, mtu: u64) -> impl Iterator<Item = u64> {
    assert!(mtu > 0, "mtu must be positive");
    let full = total_bytes / mtu;
    let tail = total_bytes % mtu;
    (0..full)
        .map(move |_| mtu)
        .chain(std::iter::once(tail).filter(|&t| t > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packetize_shapes() {
        let v: Vec<u64> = packetize(3000, 1024).collect();
        assert_eq!(v, vec![1024, 1024, 952]);
        let v: Vec<u64> = packetize(2048, 1024).collect();
        assert_eq!(v, vec![1024, 1024]);
        let v: Vec<u64> = packetize(0, 1024).collect();
        assert!(v.is_empty());
        let v: Vec<u64> = packetize(1, 1024).collect();
        assert_eq!(v, vec![1]);
    }
}
