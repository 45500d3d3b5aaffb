//! Queue-pair protocol state: credits, doorbell batches, out-of-order
//! reassembly.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;

use crate::packet::QpId;

/// Network-stack errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Send attempted with no credits left — the caller must wait for
    /// credit returns, never drop.
    NoCredits {
        /// The starved queue pair.
        qp: QpId,
    },
    /// The same sequence number arrived twice with different contents.
    DuplicateSeq {
        /// The queue pair.
        qp: QpId,
        /// The duplicated sequence number.
        seq: u32,
    },
    /// A packet arrived after the `last`-marked packet's sequence.
    BeyondLast {
        /// The queue pair.
        qp: QpId,
        /// The offending sequence number.
        seq: u32,
    },
    /// A packet was routed to the egress arbiter for a queue pair that is
    /// not bound to any flow slot (disconnected mid-flight, or a stale
    /// stream id after a slot was reused).
    UnboundQp {
        /// The unbound queue pair / stream id.
        qp: QpId,
    },
    /// The link is fully partitioned: nothing gets through, transmission
    /// fails immediately instead of hanging.
    LinkPartitioned {
        /// The queue pair whose transmission hit the partition.
        qp: QpId,
    },
    /// A lossy link dropped the same packet more times than the retry
    /// budget allows.
    RetriesExhausted {
        /// The queue pair.
        qp: QpId,
        /// Transmission attempts made (1 original + retries).
        attempts: u32,
    },
    /// A doorbell batch was truncated in flight: the NIC fetched fewer
    /// WQEs than the client posted.
    TruncatedBatch {
        /// The queue pair whose WQE was never fetched.
        qp: QpId,
        /// WQEs the client posted.
        posted: u32,
        /// WQEs the NIC actually fetched.
        fetched: u32,
    },
    /// A fault plan with a parameter out of range (a loss probability
    /// of 1 or more, a bandwidth cap outside `(0, 1]`, ...): a
    /// misconfigured plan, refused before any link adopts it.
    InvalidFaultPlan {
        /// The out-of-range [`FaultPlan`](crate::FaultPlan) field.
        field: &'static str,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoCredits { qp } => write!(f, "qp {qp}: out of credits"),
            NetError::DuplicateSeq { qp, seq } => write!(f, "qp {qp}: duplicate seq {seq}"),
            NetError::BeyondLast { qp, seq } => {
                write!(f, "qp {qp}: packet seq {seq} beyond final packet")
            }
            NetError::UnboundQp { qp } => {
                write!(f, "qp {qp} is not bound to any egress slot")
            }
            NetError::LinkPartitioned { qp } => {
                write!(f, "qp {qp}: link partitioned, nothing gets through")
            }
            NetError::RetriesExhausted { qp, attempts } => {
                write!(f, "qp {qp}: packet lost after {attempts} attempts")
            }
            NetError::TruncatedBatch {
                qp,
                posted,
                fetched,
            } => {
                write!(
                    f,
                    "qp {qp}: doorbell batch truncated ({fetched} of {posted} WQEs fetched)"
                )
            }
            NetError::InvalidFaultPlan { field } => {
                write!(f, "fault plan: `{field}` out of range")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Credit-based flow control ("credit-based flow control and packet
/// based processing", §4.3): a sender may have at most `budget` packets
/// outstanding; the receiver returns credits as it drains. The episode's
/// sender keeps one gate per response stream.
#[derive(Debug, Clone)]
pub struct CreditGate {
    budget: u32,
    available: u32,
}

impl CreditGate {
    /// A gate with the given packet budget (a zero budget admits
    /// nothing; `FarviewConfig::validate` refuses one).
    pub fn new(budget: u32) -> Self {
        CreditGate {
            budget,
            available: budget,
        }
    }

    /// Try to consume one credit; `false` means the sender must stall.
    pub fn try_acquire(&mut self) -> bool {
        if self.available > 0 {
            self.available -= 1;
            true
        } else {
            false
        }
    }

    /// Return `n` credits.
    ///
    /// # Panics
    /// Panics if more credits are returned than were ever taken — a
    /// protocol bug, not a runtime condition.
    #[expect(
        clippy::disallowed_macros,
        reason = "receivers return only the credits they took"
    )]
    pub fn release(&mut self, n: u32) {
        assert!(
            self.available + n <= self.budget,
            "credit overflow: {} + {n} > budget {}",
            self.available,
            self.budget
        );
        self.available += n;
    }

    /// Credits currently available.
    pub fn available(&self) -> u32 {
        self.available
    }
}

/// A multi-WQE submission: `n` verbs posted to one queue pair's send
/// queue and issued with a single doorbell.
///
/// The one-sided batching discipline of FaRM-style RDMA systems: the
/// client writes all work-queue entries first and rings the doorbell
/// once, so only the first verb pays the full posting cost
/// ([`fv_sim::calib::CLIENT_POST`]); each later WQE adds just the NIC's
/// per-WQE fetch ([`fv_sim::calib::DOORBELL_WQE`]). This is what keeps a
/// queue depth of N requests in flight per queue pair cheap enough for
/// the smart NIC to overlap verbs with operator execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoorbellBatch {
    wqes: u32,
    fetched: u32,
}

impl DoorbellBatch {
    /// A batch of `wqes` work-queue entries behind one doorbell.
    ///
    /// # Panics
    /// Panics on an empty batch — ringing a doorbell with no WQEs posted
    /// is a client bug.
    pub fn new(wqes: u32) -> Self {
        Self::truncated(wqes, wqes)
    }

    /// A batch the NIC truncated in flight: `wqes` posted, but only the
    /// first `fetched` actually left the send queue. WQEs past the
    /// truncation point surface [`NetError::TruncatedBatch`] from
    /// [`DoorbellBatch::try_issue_offset`] instead of an issue time.
    ///
    /// # Panics
    /// Panics if `fetched` is zero or exceeds `wqes`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: truncation keeps 1..=wqes WQEs"
    )]
    pub fn truncated(wqes: u32, fetched: u32) -> Self {
        assert!(wqes > 0, "a doorbell batch needs at least one WQE");
        assert!(
            fetched > 0 && fetched <= wqes,
            "truncation must fetch between 1 and {wqes} WQEs, got {fetched}"
        );
        DoorbellBatch { wqes, fetched }
    }

    /// WQEs the NIC actually fetched (all that were posted unless the
    /// batch was truncated).
    pub fn fetched(&self) -> u32 {
        self.fetched
    }

    /// Client-side instant (relative to the post) at which WQE `i`
    /// leaves the send queue: one doorbell, then the NIC streams the
    /// entries.
    ///
    /// # Panics
    /// Panics if `i` is outside the batch.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: `i` indexes a posted WQE"
    )]
    pub fn issue_offset(&self, i: u32) -> fv_sim::SimDuration {
        assert!(i < self.wqes, "WQE {i} outside batch of {}", self.wqes);
        fv_sim::calib::CLIENT_POST + fv_sim::calib::DOORBELL_WQE * u64::from(i)
    }

    /// Like [`DoorbellBatch::issue_offset`], but WQEs past a truncation
    /// point return a typed [`NetError::TruncatedBatch`] instead of an
    /// issue time — the fault-aware entry point for degraded links.
    ///
    /// # Panics
    /// Still panics if `i` is outside the posted batch: asking for a
    /// WQE that was never posted is a client bug, not a network fault.
    pub fn try_issue_offset(&self, qp: QpId, i: u32) -> Result<fv_sim::SimDuration, NetError> {
        let at = self.issue_offset(i);
        if i >= self.fetched {
            return Err(NetError::TruncatedBatch {
                qp,
                posted: self.wqes,
                fetched: self.fetched,
            });
        }
        Ok(at)
    }
}

/// Out-of-order packet reassembly for one response stream.
///
/// The stack executes "out-of-order ... at the granularity of single
/// network packets" (§4.3); the client side must therefore reassemble by
/// sequence number. Completion is known once the `last`-marked packet
/// *and* every sequence before it have arrived.
///
/// A packet that arrives in order — nearly all of them: one wire, one
/// sender — is appended straight to the assembled buffer, which is the
/// one copy a result byte pays between the packer and client memory.
/// Only a packet that really is early waits in the out-of-order map.
#[derive(Debug, Clone, Default)]
pub struct Reassembly {
    /// Early packets waiting for their predecessors. Never holds
    /// `next_seq` or anything below it.
    pending: BTreeMap<u32, Bytes>,
    /// In-order assembled payload.
    assembled: Vec<u8>,
    /// Next sequence number to consume.
    next_seq: u32,
    /// Sequence of the `last` packet, once seen.
    last_seq: Option<u32>,
    /// Count of packets received (duplicates rejected).
    received: u64,
}

impl Reassembly {
    /// Fresh reassembly state.
    pub fn new() -> Self {
        Reassembly::default()
    }

    /// Fresh reassembly state whose client buffer is pre-sized for a
    /// result of about `bytes` — the buffer an RDMA client registers
    /// before it posts the request. A hint only: a larger result grows
    /// the buffer, a smaller one leaves the rest untouched.
    pub fn with_capacity(bytes: usize) -> Self {
        Reassembly {
            assembled: Vec::with_capacity(bytes),
            ..Reassembly::default()
        }
    }

    /// Accept one data packet. Returns `Ok(true)` when the stream just
    /// became complete.
    ///
    /// # Errors
    /// [`NetError::BeyondLast`] for a sequence number past the `last`
    /// packet's — whichever of the two arrives second: a `last` below an
    /// already buffered packet names the highest buffered sequence.
    /// [`NetError::DuplicateSeq`] for a sequence number seen before, and
    /// for a second, different `last`. A rejected packet changes nothing.
    pub fn accept(
        &mut self,
        qp: QpId,
        seq: u32,
        payload: Bytes,
        last: bool,
    ) -> Result<bool, NetError> {
        if let Some(ls) = self.last_seq {
            if seq > ls {
                return Err(NetError::BeyondLast { qp, seq });
            }
        }
        let in_order = seq == self.next_seq;
        if seq < self.next_seq || (!in_order && self.pending.contains_key(&seq)) {
            return Err(NetError::DuplicateSeq { qp, seq });
        }
        if last {
            if let Some(prev) = self.last_seq {
                if prev != seq {
                    return Err(NetError::DuplicateSeq { qp, seq });
                }
            }
            // The mirror image of the first check: a packet already
            // buffered past this `last` would otherwise sit in `pending`
            // for ever while the stream reports complete without it.
            if let Some((&buffered, _)) = self.pending.last_key_value() {
                if buffered > seq {
                    return Err(NetError::BeyondLast { qp, seq: buffered });
                }
            }
            self.last_seq = Some(seq);
        }
        self.received += 1;
        if in_order {
            self.assembled.extend_from_slice(&payload);
            self.next_seq += 1;
            // Early packets this one unblocks.
            while let Some(entry) = self.pending.first_entry() {
                if *entry.key() != self.next_seq {
                    break;
                }
                self.assembled.extend_from_slice(&entry.remove());
                self.next_seq += 1;
            }
        } else {
            self.pending.insert(seq, payload);
        }
        Ok(self.is_complete())
    }

    /// True once every packet up to and including the last has arrived.
    pub fn is_complete(&self) -> bool {
        match self.last_seq {
            Some(ls) => self.next_seq > ls,
            None => false,
        }
    }

    /// The assembled in-order payload so far.
    pub fn assembled(&self) -> &[u8] {
        &self.assembled
    }

    /// Take the assembled payload (ending the stream).
    ///
    /// # Panics
    /// Panics if the stream is not complete — taking a partial result is
    /// always a protocol bug.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: taken only once `is_complete`"
    )]
    pub fn into_payload(self) -> Vec<u8> {
        assert!(self.is_complete(), "reassembly not complete");
        self.assembled
    }

    /// Packets accepted so far.
    pub fn packets_received(&self) -> u64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_stall_and_release() {
        let mut g = CreditGate::new(2);
        assert!(g.try_acquire());
        assert!(g.try_acquire());
        assert!(!g.try_acquire(), "third acquire must stall");
        g.release(1);
        assert!(g.try_acquire());
        assert_eq!(g.available(), 0);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_is_a_bug() {
        let mut g = CreditGate::new(1);
        g.release(1);
    }

    #[test]
    fn in_order_reassembly() {
        let mut r = Reassembly::new();
        assert!(!r.accept(0, 0, Bytes::from_static(b"aa"), false).unwrap());
        assert!(!r.accept(0, 1, Bytes::from_static(b"bb"), false).unwrap());
        assert!(r.accept(0, 2, Bytes::from_static(b"cc"), true).unwrap());
        assert_eq!(r.into_payload(), b"aabbcc");
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut r = Reassembly::new();
        // Last packet arrives first — completion must wait for the rest.
        assert!(!r.accept(0, 2, Bytes::from_static(b"cc"), true).unwrap());
        assert!(!r.accept(0, 0, Bytes::from_static(b"aa"), false).unwrap());
        assert!(!r.is_complete());
        assert!(r.accept(0, 1, Bytes::from_static(b"bb"), false).unwrap());
        assert_eq!(r.assembled(), b"aabbcc");
        assert_eq!(r.packets_received(), 3);
    }

    #[test]
    fn empty_result_completes_on_lone_fin() {
        let mut r = Reassembly::new();
        assert!(r.accept(0, 0, Bytes::new(), true).unwrap());
        assert_eq!(r.into_payload(), b"");
    }

    #[test]
    fn duplicates_and_stragglers_rejected() {
        let mut r = Reassembly::new();
        r.accept(0, 0, Bytes::from_static(b"a"), false).unwrap();
        assert!(matches!(
            r.accept(0, 0, Bytes::from_static(b"a"), false),
            Err(NetError::DuplicateSeq { seq: 0, .. })
        ));
        r.accept(0, 1, Bytes::from_static(b"b"), true).unwrap();
        assert!(matches!(
            r.accept(0, 5, Bytes::from_static(b"x"), false),
            Err(NetError::BeyondLast { seq: 5, .. })
        ));
    }

    #[test]
    fn late_last_below_a_buffered_packet_is_beyond_last() {
        // Regression: packet 5 is buffered, then packet 0 claims to be
        // the last. The stream used to report complete with packet 0
        // alone and packet 5 stranded in the out-of-order map — a wrong
        // answer instead of a typed error.
        let mut r = Reassembly::new();
        assert!(!r.accept(3, 5, Bytes::from_static(b"late"), false).unwrap());
        assert!(!r.accept(3, 2, Bytes::from_static(b"mid"), false).unwrap());
        assert_eq!(
            r.accept(3, 0, Bytes::from_static(b"first"), true),
            Err(NetError::BeyondLast { qp: 3, seq: 5 }),
            "the error names the highest buffered sequence"
        );
        assert!(!r.is_complete(), "a rejected `last` completes nothing");
        assert!(r.assembled().is_empty(), "and contributes no bytes");
        assert_eq!(r.packets_received(), 2);
        // The stream is still usable: the real packets can follow.
        assert!(!r.accept(3, 0, Bytes::from_static(b"a"), false).unwrap());
        assert!(!r.accept(3, 1, Bytes::from_static(b"b"), false).unwrap());
        assert_eq!(r.assembled(), b"abmid");
        // A `last` at the highest buffered sequence itself is fine.
        let mut r = Reassembly::new();
        assert!(!r.accept(3, 1, Bytes::from_static(b"b"), false).unwrap());
        assert!(!r.accept(3, 2, Bytes::from_static(b"c"), true).unwrap());
        assert!(r.accept(3, 0, Bytes::from_static(b"a"), false).unwrap());
        assert_eq!(r.into_payload(), b"abc");
    }

    #[test]
    fn in_order_packets_bypass_the_out_of_order_map() {
        let mut r = Reassembly::with_capacity(10);
        let buffer = r.assembled().as_ptr();
        for (seq, chunk) in [b"ab", b"cd", b"ef"].into_iter().enumerate() {
            r.accept(0, seq as u32, Bytes::from_static(chunk), false)
                .unwrap();
            assert!(r.pending.is_empty(), "seq {seq} arrived in order");
        }
        // An early packet waits; its predecessor releases it.
        r.accept(0, 4, Bytes::from_static(b"ij"), true).unwrap();
        assert_eq!(r.pending.len(), 1);
        assert!(r.accept(0, 3, Bytes::from_static(b"gh"), false).unwrap());
        assert!(r.pending.is_empty());
        assert_eq!(r.assembled(), b"abcdefghij");
        // The hint sized the client buffer once; nothing regrew it.
        assert_eq!(r.assembled().as_ptr(), buffer);
    }

    #[test]
    fn doorbell_batch_amortizes_posts() {
        let b = DoorbellBatch::new(8);
        assert_eq!(b.wqes, 8);
        assert_eq!(b.fetched(), 8);
        // First WQE pays the full doorbell; later ones only the fetch.
        assert_eq!(b.issue_offset(0), fv_sim::calib::CLIENT_POST);
        let step = b.issue_offset(1) - b.issue_offset(0);
        assert_eq!(step, fv_sim::calib::DOORBELL_WQE);
        // Batching 8 verbs must be strictly cheaper than 8 doorbells.
        assert!(b.issue_offset(7) < fv_sim::calib::CLIENT_POST * 8);
        // Depth 1 degenerates to the plain post.
        assert_eq!(
            DoorbellBatch::new(1).issue_offset(0),
            fv_sim::calib::CLIENT_POST
        );
    }

    #[test]
    fn truncated_batch_surfaces_typed_error() {
        let b = DoorbellBatch::truncated(4, 2);
        assert_eq!(b.wqes, 4);
        assert_eq!(b.fetched(), 2);
        // Fetched WQEs issue normally, at the untruncated offsets.
        assert_eq!(b.try_issue_offset(9, 0).unwrap(), b.issue_offset(0));
        assert_eq!(b.try_issue_offset(9, 1).unwrap(), b.issue_offset(1));
        // Posted-but-unfetched WQEs are a typed error, not a panic.
        assert_eq!(
            b.try_issue_offset(9, 2),
            Err(NetError::TruncatedBatch {
                qp: 9,
                posted: 4,
                fetched: 2
            })
        );
        // An untruncated batch never errors.
        let full = DoorbellBatch::new(3);
        for i in 0..3 {
            assert!(full.try_issue_offset(1, i).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "outside batch")]
    fn try_issue_offset_still_rejects_unposted_wqes() {
        let _ = DoorbellBatch::truncated(4, 2).try_issue_offset(0, 4);
    }
}
