//! Plan-level cost hooks for the query planner.
//!
//! The discrete-event engine gives the *measured* response time of a
//! query; a planner choosing between physical alternatives (stream whole
//! rows vs. smart-addressing gathers, shard fan-out vs. one node) needs
//! cheap *estimates* before anything runs. [`PlanCostModel`] provides
//! those estimates from the same [`calib`] constants the event engine is
//! built on, so an estimate and a simulation never disagree about which
//! resource is the bottleneck — only about queueing detail.
//!
//! Nothing here knows what a query plan *is*: the hooks speak bytes,
//! tuples and shards, and `farview-core::plan` composes them.

use crate::calib;
use crate::stats::MergeCostModel;
use crate::time::SimDuration;

/// Calibrated estimator for the coarse cost of one datapath episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCostModel {
    /// Active DRAM channels on the node (stripe width).
    pub channels: usize,
    /// Client-side merge model for scatter–gather targets.
    pub merge: MergeCostModel,
}

impl Default for PlanCostModel {
    fn default() -> Self {
        PlanCostModel {
            channels: calib::DEFAULT_CHANNELS,
            merge: MergeCostModel::default(),
        }
    }
}

impl PlanCostModel {
    /// A model for a node with `channels` active DRAM channels.
    pub fn new(channels: usize) -> Self {
        PlanCostModel {
            channels: channels.max(1),
            ..PlanCostModel::default()
        }
    }

    /// Fixed per-verb overhead: posting, the request's wire crossing and
    /// parse, the first DRAM access, the response's wire crossing and
    /// client completion handling.
    pub fn request_fixed(&self) -> SimDuration {
        calib::CLIENT_POST
            + calib::WIRE_ONE_WAY
            + calib::FV_REQ_PROC
            + calib::DRAM_ACCESS_LATENCY
            + calib::WIRE_ONE_WAY
            + calib::CLIENT_COMPLETE
    }

    /// Streaming a whole-row scan of `bytes` out of DRAM and through the
    /// region's operator pipeline: bounded by the striped channels or the
    /// pipeline beat rate, whichever saturates first.
    pub fn stream_scan(&self, bytes: u64) -> SimDuration {
        let bw = (self.channels as f64 * calib::DRAM_CHANNEL_BW).min(calib::PIPELINE_RATE);
        calib::transfer(bytes, bw)
    }

    /// Gathering `tuples` narrow smart-addressing reads (one serialized
    /// request per tuple; row activations stop amortizing).
    pub fn smart_gather(&self, tuples: u64) -> SimDuration {
        calib::SMART_ADDR_TUPLE * tuples
    }

    /// Result payload of `bytes` crossing the wire, per-packet handling
    /// included (every response ends in a FIN packet, hence the `+ 1`).
    pub fn wire(&self, bytes: u64) -> SimDuration {
        calib::transfer(bytes, calib::FV_NET_PEAK)
            + calib::FV_PER_PACKET * (bytes / calib::PACKET_BYTES + 1)
    }

    /// Client-side concatenation of `bytes` of shard payloads.
    pub fn merge_concat(&self, bytes: u64) -> SimDuration {
        self.merge.concat(bytes)
    }

    /// Client-side hash merge of `rows` partial rows spanning `bytes`.
    pub fn merge_hash(&self, rows: u64, bytes: u64) -> SimDuration {
        self.merge.hash_merge(rows, bytes)
    }

    /// One single-node episode that reads `in_bytes` (streamed, or
    /// gathered per tuple when `gather_tuples` is set) and ships
    /// `out_bytes` back: fixed costs plus the slower of the memory and
    /// wire sides (the datapath overlaps them).
    pub fn episode(
        &self,
        in_bytes: u64,
        gather_tuples: Option<u64>,
        out_bytes: u64,
    ) -> SimDuration {
        let memory = match gather_tuples {
            Some(t) => self.smart_gather(t),
            None => self.stream_scan(in_bytes),
        };
        self.request_fixed() + memory.max(self.wire(out_bytes))
    }

    /// A scatter–gather fan-out: the slowest shard's episode plus the
    /// client-side merge. Shards are independent nodes, so the per-shard
    /// episode shrinks with the fan-out while the merge scans every
    /// partial row.
    pub fn fan_out(&self, slowest_shard: SimDuration, merge: SimDuration) -> SimDuration {
        slowest_shard + merge
    }
}

/// Calibrated cost of the rebalance coordinator's client-side work:
/// routing the moved rows out of source-copy payloads into destination
/// shard images. The *data movement* itself is costed by real episodes
/// (source reads through the net stack, destination writes through the
/// write datapath); this model covers only the coordinator in between,
/// so rebalance time is reported honestly instead of treating the
/// reshuffle as free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCostModel {
    /// Fixed cost per (source → destination) copy flow.
    pub per_move: SimDuration,
    /// Streaming bandwidth for routing moved bytes between buffers.
    pub shuffle_bw: f64,
}

impl Default for MigrationCostModel {
    fn default() -> Self {
        MigrationCostModel {
            per_move: calib::MIGRATION_MOVE_FIXED,
            shuffle_bw: calib::CLIENT_CONCAT_BW,
        }
    }
}

impl MigrationCostModel {
    /// Coordinator time to route `bytes` of moved rows across `moves`
    /// copy flows.
    pub fn shuffle(&self, moves: u64, bytes: u64) -> SimDuration {
        self.per_move * moves + calib::transfer(bytes, self.shuffle_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_beats_gather_for_narrow_rows_only() {
        let m = PlanCostModel::default();
        let tuples = 4096u64;
        // 64 B rows: streaming is far cheaper than per-tuple gathers.
        assert!(m.stream_scan(tuples * 64) < m.smart_gather(tuples));
        // 512 B rows: the gather wins (Figure 7's crossover).
        assert!(m.smart_gather(tuples) < m.stream_scan(tuples * 512));
    }

    #[test]
    fn episode_overlaps_memory_and_wire() {
        let m = PlanCostModel::default();
        let small = m.episode(4096, None, 4096);
        let big = m.episode(1 << 20, None, 1 << 20);
        assert!(big > small);
        // The overlapped estimate is below the serial sum.
        let serial = m.request_fixed() + m.stream_scan(1 << 20) + m.wire(1 << 20);
        assert!(big < serial);
    }

    #[test]
    fn fan_out_adds_the_merge() {
        let m = PlanCostModel::default();
        let shard = m.episode(64 << 10, None, 64 << 10);
        assert_eq!(
            m.fan_out(shard, m.merge_concat(256 << 10)),
            shard + m.merge_concat(256 << 10)
        );
    }

    #[test]
    fn shuffle_scales_with_moves_and_bytes() {
        let m = MigrationCostModel::default();
        assert_eq!(m.shuffle(0, 0), SimDuration::ZERO);
        assert_eq!(m.shuffle(3, 0), calib::MIGRATION_MOVE_FIXED * 3);
        assert!(m.shuffle(1, 1 << 20) > m.shuffle(1, 1 << 10));
    }
}
