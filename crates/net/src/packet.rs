//! Packets.

use bytes::Bytes;

/// Queue-pair identifier. "Farview identifies flows using such queue
//  pairs, information that is used internally as well as to route the
//  flow of requests and data through the system" (§4.3).
pub type QpId = u32;

/// What a packet carries. Requests and credit returns are not packets
/// here: the episode engine models them as messages of their own, so a
/// packet is always response data.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// Response data. `last` marks the final packet of a response — the
    /// sender emits it even for empty results so the client can complete
    /// ("allows us to create RDMA commands even when the final data size
    /// is not known a priori", §5.5).
    Data {
        /// True on the final packet of the response stream.
        last: bool,
    },
}

/// One network packet: 40 bytes on the host, the payload a view of the
/// sender's drain buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Owning flow.
    pub qp: QpId,
    /// Per-flow sequence number.
    pub seq: u32,
    /// Payload classification.
    pub kind: PacketKind,
    /// Payload bytes (empty for the FIN of an empty result).
    pub payload: Bytes,
}

impl Packet {
    /// Wire size: payload plus a fixed RoCE/UDP/Ethernet header estimate.
    pub fn wire_bytes(&self) -> u64 {
        const HEADER_BYTES: u64 = 58; // Eth + IP + UDP + BTH + iCRC
        HEADER_BYTES + self.payload.len() as u64
    }

    /// Convenience constructor for data packets.
    pub fn data(qp: QpId, seq: u32, payload: Bytes, last: bool) -> Packet {
        Packet {
            qp,
            seq,
            kind: PacketKind::Data { last },
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_includes_header() {
        let p = Packet::data(1, 0, Bytes::from_static(&[0u8; 1024]), false);
        assert_eq!(p.wire_bytes(), 1024 + 58);
        let fin = Packet::data(1, 1, Bytes::new(), true);
        assert_eq!(fin.wire_bytes(), 58);
    }

    /// Every response packet is moved about ten times on its way to the
    /// client — packetize, the staged list, the ready queue, the egress
    /// DRR, the event heap (inside a message), reassembly — so its size
    /// is paid per packet, per move.
    #[test]
    fn a_packet_fits_in_40_bytes() {
        assert!(
            std::mem::size_of::<Packet>() <= 40,
            "Packet is {} bytes",
            std::mem::size_of::<Packet>()
        );
    }
}
