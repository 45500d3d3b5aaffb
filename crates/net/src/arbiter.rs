//! Fair-share egress arbitration across queue pairs.
//!
//! "The queue pairs contain unique identifiers which are used to
//! differentiate the flows and to provide isolation through a series of
//! hardware arbiters" (§4.3). The egress arbiter is deficit round robin
//! with a one-MTU quantum: byte-fair regardless of per-flow packet sizes,
//! and immune to a single greedy flow monopolizing the wire.
//!
//! A flow slot corresponds to one dynamic region. A doorbell-batched
//! submission keeps many queries of *one* queue pair in flight at once;
//! their response streams carry distinct stream ids but share the
//! region's flow slot, so arbitration stays byte-fair **across**
//! regions/batches while packets of one batch interleave freely inside
//! their shared flow.

use fv_sim::calib::PACKET_BYTES;
use fv_sim::DrrScheduler;

use crate::packet::{Packet, QpId};
use crate::qp::NetError;

/// DRR arbiter over a fixed set of flows (one per dynamic region /
/// queue pair slot).
#[derive(Debug, Clone)]
pub struct EgressArbiter {
    drr: DrrScheduler<Packet>,
    /// Every bound stream id with its flow slot (one id per slot for a
    /// plain connection, many for a doorbell-batched submission), sorted
    /// by id: `push` routes each packet with one binary search however
    /// deep the batch.
    bound: Vec<(QpId, usize)>,
}

impl EgressArbiter {
    /// An arbiter with `flows` slots (the number of dynamic regions).
    pub fn new(flows: usize) -> Self {
        EgressArbiter {
            // Quantum must cover the largest wire size (payload+header).
            drr: DrrScheduler::new(flows, PACKET_BYTES + 64),
            bound: Vec::new(),
        }
    }

    /// Bind a queue pair (or one batched stream of a queue pair) to a
    /// flow slot at connection establishment / doorbell ring. Binding
    /// the same id twice is a no-op; several ids may share one slot.
    ///
    /// # Panics
    /// Panics if the id is already bound to a *different* slot — flows
    /// are wired once at setup, so a double wiring is a harness bug, not
    /// a runtime condition — or if `slot` is not one of the arbiter's
    /// flows.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: flows are wired once, at setup"
    )]
    pub fn bind(&mut self, slot: usize, qp: QpId) {
        assert!(slot < self.drr.flow_count(), "no flow slot {slot}");
        if let Some(existing) = self.slot_of(qp) {
            assert_eq!(existing, slot, "qp {qp} already bound to slot {existing}");
            return;
        }
        let at = self.bound.partition_point(|&(id, _)| id < qp);
        self.bound.insert(at, (qp, slot));
    }

    /// The slot a QP is bound to, if any.
    pub fn slot_of(&self, qp: QpId) -> Option<usize> {
        let at = self.bound.binary_search_by_key(&qp, |&(id, _)| id).ok()?;
        self.bound.get(at).map(|&(_, slot)| slot)
    }

    /// Enqueue a packet for transmission on its flow's slot.
    ///
    /// # Errors
    /// Returns [`NetError::UnboundQp`] when the packet's QP is not bound
    /// to any egress slot; callers surface this instead of crashing the
    /// episode.
    pub fn push(&mut self, pkt: Packet) -> Result<(), NetError> {
        let slot = self
            .slot_of(pkt.qp)
            .ok_or(NetError::UnboundQp { qp: pkt.qp })?;
        self.drr.push(slot, pkt.wire_bytes(), pkt);
        Ok(())
    }

    /// Next packet in fair order.
    pub fn pop(&mut self) -> Option<Packet> {
        self.drr.pop().map(|(_, p)| p)
    }

    /// Queued packet count.
    pub fn len(&self) -> usize {
        self.drr.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.drr.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pkt(qp: u32, seq: u32) -> Packet {
        Packet::data(qp, seq, Bytes::from(vec![0u8; 1024]), false)
    }

    /// Streams bound to `slot`.
    fn bound_count(arb: &EgressArbiter, slot: usize) -> usize {
        arb.bound.iter().filter(|&&(_, s)| s == slot).count()
    }

    #[test]
    fn fair_interleave_between_two_flows() {
        let mut arb = EgressArbiter::new(2);
        arb.bind(0, 10);
        arb.bind(1, 20);
        for s in 0..8 {
            arb.push(pkt(10, s)).unwrap();
        }
        for s in 0..8 {
            arb.push(pkt(20, s)).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| arb.pop()).map(|p| p.qp).collect();
        assert_eq!(order.len(), 16);
        // Every adjacent pair must contain both flows (strict alternation
        // for equal-size packets).
        for w in order.chunks(2) {
            assert_ne!(w[0], w[1], "flows must interleave: {order:?}");
        }
    }

    #[test]
    fn greedy_flow_cannot_starve_late_joiner() {
        let mut arb = EgressArbiter::new(2);
        arb.bind(0, 1);
        arb.bind(1, 2);
        for s in 0..100 {
            arb.push(pkt(1, s)).unwrap();
        }
        // Flow 2 joins with a single packet; it must be served within the
        // next two pops.
        arb.push(pkt(2, 0)).unwrap();
        let first = arb.pop().unwrap();
        let second = arb.pop().unwrap();
        assert!(
            first.qp == 2 || second.qp == 2,
            "late flow starved: {} then {}",
            first.qp,
            second.qp
        );
    }

    #[test]
    fn unbound_qp_is_a_typed_error() {
        let mut arb = EgressArbiter::new(1);
        assert_eq!(
            arb.push(pkt(99, 0)),
            Err(NetError::UnboundQp { qp: 99 }),
            "routing an unbound flow must surface, not crash"
        );
        assert!(arb.is_empty(), "rejected packet must not be queued");
    }

    #[test]
    fn batched_streams_share_one_flow_fairly() {
        // Slot 0 carries a 2-stream batch, slot 1 a plain connection.
        // Byte-fairness is per *slot*: the batch does not get double the
        // wire for having two streams.
        let mut arb = EgressArbiter::new(2);
        arb.bind(0, 10);
        arb.bind(0, 11);
        arb.bind(1, 20);
        assert_eq!(bound_count(&arb, 0), 2);
        for s in 0..4 {
            arb.push(pkt(10, s)).unwrap();
            arb.push(pkt(11, s)).unwrap();
            arb.push(pkt(20, s)).unwrap();
        }
        let mut slot0 = 0u32;
        let mut slot1 = 0u32;
        // Serve one full DRR round trip of 8 packets: equal byte shares.
        for _ in 0..8 {
            let p = arb.pop().unwrap();
            if p.qp == 20 {
                slot1 += 1;
            } else {
                slot0 += 1;
            }
        }
        assert_eq!(slot0, 4, "batch slot must not out-share a plain flow");
        assert_eq!(slot1, 4);
    }

    #[test]
    #[should_panic(expected = "already bound to slot 0")]
    fn rebinding_to_a_different_slot_is_a_wiring_bug() {
        let mut arb = EgressArbiter::new(2);
        arb.bind(0, 5);
        arb.bind(1, 5);
    }

    #[test]
    fn depth_1024_batch_routes_every_stream() {
        // A depth-1024 doorbell batch binds 1024 stream ids to one slot.
        // Every id still routes to that slot, in whatever order they
        // were bound, and the whole batch drains.
        let depth = 1024u32;
        let mut arb = EgressArbiter::new(2);
        arb.bind(1, 5_000);
        for i in (0..depth).rev() {
            arb.bind(0, (1 << 10) | i);
        }
        assert_eq!(bound_count(&arb, 0), depth as usize);
        // Re-binding an id to its own slot is a no-op.
        arb.bind(0, 1 << 10);
        assert_eq!(bound_count(&arb, 0), depth as usize);
        for i in 0..depth {
            let id = (1 << 10) | i;
            assert_eq!(arb.slot_of(id), Some(0));
            arb.push(Packet::data(id, 0, Bytes::from(vec![0u8; 64]), true))
                .unwrap();
        }
        assert_eq!(arb.len(), depth as usize);
        let served: Vec<u32> = std::iter::from_fn(|| arb.pop()).map(|p| p.qp).collect();
        assert_eq!(
            served,
            (0..depth).map(|i| (1 << 10) | i).collect::<Vec<_>>(),
            "one flow serves its streams in push order"
        );
    }
}
