//! Property tests for the network stack.

use bytes::Bytes;
use proptest::prelude::*;

use fv_net::{packetize, CreditGate, EgressArbiter, NetError, Packet, Reassembly};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Packetisation conserves bytes and respects the MTU.
    #[test]
    fn packetize_conserves_bytes(total in 0u64..10_000_000, mtu in 1u64..9000) {
        let sizes: Vec<u64> = packetize(total, mtu).collect();
        prop_assert_eq!(sizes.iter().sum::<u64>(), total);
        prop_assert!(sizes.iter().all(|&s| s > 0 && s <= mtu));
        // Only the last packet may be short.
        if sizes.len() > 1 {
            prop_assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == mtu));
        }
    }

    /// The credit gate never goes negative and never exceeds its budget,
    /// under any acquire/release interleaving.
    #[test]
    fn credit_gate_stays_bounded(
        budget in 1u32..64,
        ops in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut gate = CreditGate::new(budget);
        let mut outstanding = 0u32;
        for acquire in ops {
            if acquire {
                if gate.try_acquire() {
                    outstanding += 1;
                }
            } else if outstanding > 0 {
                gate.release(1);
                outstanding -= 1;
            }
            prop_assert!(gate.available() <= budget);
            prop_assert_eq!(gate.available(), budget - outstanding);
        }
    }

    /// Reassembly accepts packets in reverse order too (worst-case
    /// out-of-order) and reconstructs the stream.
    #[test]
    fn reassembly_reverse_order(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..10), 1..10),
    ) {
        let mut rx = Reassembly::new();
        let n = chunks.len();
        for i in (0..n).rev() {
            rx.accept(0, i as u32, Bytes::from(chunks[i].clone()), i == n - 1)
                .unwrap();
        }
        prop_assert!(rx.is_complete());
        prop_assert_eq!(rx.into_payload(), chunks.concat());
    }

    /// A payload split at random, delivered with a random in-order
    /// prefix (the fast path) and the rest in a random permutation (the
    /// out-of-order map), reassembles to the payload — and a duplicate
    /// injected at any position is `DuplicateSeq`, whichever of the two
    /// paths took the original, and leaves the stream as it was.
    #[test]
    fn reassembly_random_split_permutation_and_duplicate(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..24),
        keys in prop::collection::vec(any::<u32>(), 24),
        prefix in 0usize..24,
        dup_at in 0usize..24,
        dup_of in 0usize..24,
    ) {
        let n = chunks.len();
        let payload = chunks.concat();
        // Delivery order: seqs 0..prefix in order, then the rest sorted
        // by a random key.
        let prefix = prefix % (n + 1);
        let mut order: Vec<usize> = (0..prefix).collect();
        let mut rest: Vec<usize> = (prefix..n).collect();
        rest.sort_by_key(|&i| (keys[i], i));
        order.extend(rest);

        let mut rx = Reassembly::with_capacity(payload.len());
        let dup_at = dup_at % n;
        for (step, &seq) in order.iter().enumerate() {
            prop_assert!(!rx.is_complete());
            let accepted = rx
                .accept(7, seq as u32, Bytes::from(chunks[seq].clone()), seq == n - 1)
                .unwrap();
            prop_assert_eq!(accepted, step == n - 1);
            if step == dup_at {
                // Replay one of the packets delivered so far.
                let again = order[dup_of % (step + 1)];
                let before = (rx.assembled().to_vec(), rx.packets_received(), rx.is_complete());
                let replay = rx.accept(
                    7,
                    again as u32,
                    Bytes::from(chunks[again].clone()),
                    again == n - 1,
                );
                prop_assert_eq!(
                    replay,
                    Err(NetError::DuplicateSeq { qp: 7, seq: again as u32 })
                );
                let after = (rx.assembled().to_vec(), rx.packets_received(), rx.is_complete());
                prop_assert_eq!(before, after);
            }
        }
        prop_assert!(rx.is_complete());
        prop_assert_eq!(rx.packets_received(), n as u64);
        prop_assert_eq!(rx.assembled(), &payload[..]);
        prop_assert_eq!(rx.into_payload(), payload);
    }

    /// The egress arbiter emits exactly the packets pushed, and any
    /// backlogged pair of flows alternates within a bounded window.
    #[test]
    fn arbiter_conserves_and_interleaves(
        a_count in 1usize..30,
        b_count in 1usize..30,
    ) {
        let mut arb = EgressArbiter::new(2);
        arb.bind(0, 100);
        arb.bind(1, 200);
        for s in 0..a_count {
            arb.push(Packet::data(100, s as u32, Bytes::from(vec![0u8; 512]), false)).unwrap();
        }
        for s in 0..b_count {
            arb.push(Packet::data(200, s as u32, Bytes::from(vec![0u8; 512]), false)).unwrap();
        }
        let mut out = Vec::new();
        while let Some(p) = arb.pop() {
            out.push(p.qp);
        }
        prop_assert_eq!(out.len(), a_count + b_count);
        prop_assert_eq!(out.iter().filter(|&&q| q == 100).count(), a_count);
        // While both flows are backlogged, no flow gets served 3x in a row
        // (equal 512 B packets, 1 MTU quantum).
        let both_until = 2 * a_count.min(b_count);
        for w in out[..both_until].windows(3) {
            prop_assert!(!(w[0] == w[1] && w[1] == w[2]), "starvation window: {:?}", out);
        }
    }
}
