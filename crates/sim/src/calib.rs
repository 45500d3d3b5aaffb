//! Hardware calibration constants.
//!
//! Every timing constant used anywhere in the reproduction lives here,
//! with the sentence of the paper (§ references are to the CIDR'22 paper)
//! or public datasheet it is calibrated against. The experiments in
//! `fv-bench` reproduce *shapes* (who wins, by what factor, where
//! crossovers fall); absolute values are set to land in the same ballpark
//! as the paper's plots but are not expected to match a real XACC-cluster
//! deployment.
//!
//! Constants are grouped per subsystem. Rates are `f64` bytes/second,
//! latencies are [`SimDuration`]s, counts are integers.

use crate::time::SimDuration;

// ---------------------------------------------------------------------------
// Network (paper §4.3, §6.2, Figure 6)
// ---------------------------------------------------------------------------

/// Effective Farview read throughput ceiling: "Reading from local on-board
/// FPGA memory peaks at 12 GBps, indicating that the network is the main
/// bottleneck" (§6.2).
pub const FV_NET_PEAK: f64 = 12.0e9;

/// Commercial-NIC (ConnectX-5) throughput ceiling: "throughput peaks at
/// ~11 GBps because it is bound by the PCIe bus bandwidth" (§6.2).
pub const RNIC_PCIE_PEAK: f64 = 11.0e9;

/// Network MTU/packet size: "We set the packet size to 1 kB" (§6.2).
pub const PACKET_BYTES: u64 = 1024;

/// One-way wire propagation (host -> switch -> host) on the XACC cluster.
/// Not quoted directly; chosen so that base RTTs land at the 2–3 µs level
/// of Figure 6(b).
pub const WIRE_ONE_WAY: SimDuration = SimDuration::from_nanos(500);

/// Client-side posting overhead for a one-sided verb (doorbell + WQE).
pub const CLIENT_POST: SimDuration = SimDuration::from_nanos(300);

/// Incremental client-side cost of each additional WQE in a
/// doorbell-batched submission. The doorbell (MMIO write) is rung once
/// for the whole batch — the FaRM-style batching discipline — so WQE
/// `i` of a batch issues at `CLIENT_POST + i × DOORBELL_WQE` instead of
/// paying [`CLIENT_POST`] again. Calibrated at a cache-line DMA fetch of
/// one WQE by the NIC, an order of magnitude below the full post.
pub const DOORBELL_WQE: SimDuration = SimDuration::from_nanos(30);

/// Client-side completion handling (CQE poll to "result visible").
pub const CLIENT_COMPLETE: SimDuration = SimDuration::from_nanos(200);

/// Farview FPGA network-stack request parse/route time. The network stack
/// runs at 250 MHz (§4.1), so per-request processing is slower than the
/// RNIC ASIC: this is why "RNIC offers lower response times for smaller
/// transfer sizes" (§6.2).
pub const FV_REQ_PROC: SimDuration = SimDuration::from_nanos(700);

/// Farview per-packet egress processing. Deep pipelining makes this small:
/// "for higher transfer sizes the multi-packet processing and page
/// handling in the FPGA network stack performs better" (§6.2).
pub const FV_PER_PACKET: SimDuration = SimDuration::from_nanos(60);

/// RNIC baseline request processing ("specialized circuitry running at a
/// higher clock rate ... provides better performance for small packets",
/// §6.2).
pub const RNIC_REQ_PROC: SimDuration = SimDuration::from_nanos(100);

/// PCIe DMA latency paid by the RNIC baseline on the first access of every
/// request: "The difference during reads is ~1 us, consistent with PCIe
/// latencies" (§6.2, citing Neugebauer et al.).
pub const RNIC_PCIE_LATENCY: SimDuration = SimDuration::from_nanos(700);

/// RNIC per-packet processing (PCIe descriptor + page handling per MTU).
/// Larger than [`FV_PER_PACKET`] so the response-time crossover of
/// Figure 6(b) falls between 1 kB and 8 kB.
pub const RNIC_PER_PACKET: SimDuration = SimDuration::from_nanos(190);

/// Serial per-request occupancy of the Farview network stack when many
/// requests are in flight (throughput experiment, Figure 6(a)).
pub const FV_REQ_OCCUPANCY: SimDuration = SimDuration::from_nanos(250);

/// Per-packet engine occupancy under pipelined load (Farview). Much
/// smaller than [`FV_PER_PACKET`] latency: multiple parallel engines and
/// deep pipelining overlap packet handling.
pub const FV_PER_PACKET_PIPELINED: SimDuration = SimDuration::from_nanos(20);

/// Per-packet engine occupancy under pipelined load (RNIC): descriptor
/// and PCIe page handling amortize less well, which is what lets Farview
/// overtake at saturation despite losing below 4 kB (§6.2).
pub const RNIC_PER_PACKET_PIPELINED: SimDuration = SimDuration::from_nanos(60);

/// Serial per-request occupancy of the RNIC under pipelined load. Lower
/// than Farview's (ASIC clock), which is why "below 4 kB ... RNIC achieves
/// better throughput" (§6.2).
pub const RNIC_REQ_OCCUPANCY: SimDuration = SimDuration::from_nanos(130);

/// Default credit budget per queue pair (credit-based flow control, §4.3),
/// in packets.
pub const QP_CREDITS: u32 = 32;

// ---------------------------------------------------------------------------
// Memory stack (paper §4.4, Figure 2)
// ---------------------------------------------------------------------------

/// Per-channel DRAM bandwidth: "a maximum theoretical bandwidth of
/// 18 GBps per channel" (§4.4 / Figure 2).
pub const DRAM_CHANNEL_BW: f64 = 18.0e9;

/// Number of DRAM channels used in the evaluation: "In our tests we used
/// two of the four available channels" (§6.1).
pub const DEFAULT_CHANNELS: usize = 2;

/// Burst size used by the region <-> MMU <-> channel datapath. The paper
/// does not quote one; 4 KiB (= one stripe) balances event count against
/// queueing fidelity, and the `ablation_striping` bench bounds its
/// influence (channel-count effects dwarf burst-size effects).
pub const MEM_BURST_BYTES: u64 = 4096;

/// Per-burst channel overhead (softcore controller command handling,
/// row activation amortized over a burst).
pub const DRAM_BURST_OVERHEAD: SimDuration = SimDuration::from_nanos(40);

/// First-access latency through MMU + controller before data flows.
pub const DRAM_ACCESS_LATENCY: SimDuration = SimDuration::from_nanos(350);

/// MMU page size: "Farview's MMU supports naturally aligned 2 MB pages"
/// (§4.4).
pub const PAGE_BYTES: u64 = 2 * 1024 * 1024;

/// Stripe unit for channel interleaving ("allocating memory in a striping
/// pattern across all available memory channels", §4.4). Not quoted;
/// one burst per channel round.
pub const STRIPE_BYTES: u64 = 4096;

/// TLB capacity in entries. "Farview's TLB holds all virtual-to-physical
/// address mappings for the dynamic regions" (§4.4): with 2 MB pages and
/// 64 GB of board DRAM that bounds at 32 K entries; 4096 BRAM entries is
/// plenty for the evaluation's footprints while letting tests exercise
/// misses.
pub const TLB_ENTRIES: usize = 4096;

/// TLB miss penalty: a page-table walk in on-chip memory (a few 300 MHz
/// cycles).
pub const TLB_MISS_PENALTY: SimDuration = SimDuration::from_nanos(20);

/// Per-tuple cost of a smart-addressing random read (one narrow request
/// per tuple instead of a streaming burst; row activations stop
/// amortizing). Calibrated so Figure 7's ordering holds: FV-SA sits
/// *between* whole-row reads of 256 B tuples (~16 ns/tuple over two
/// striped channels) and 512 B tuples (~32 ns/tuple) — smart addressing
/// only pays off once rows are wide (§5.2, §6.3).
pub const SMART_ADDR_TUPLE: SimDuration = SimDuration::from_nanos(22);

// ---------------------------------------------------------------------------
// Operator stack / FPGA fabric (paper §4.1, §4.5, §5)
// ---------------------------------------------------------------------------

/// Operator-stack clock: "The frequencies of the components in Farview
/// range between 250 MHz (network stack, operator stack) and 300 MHz
/// (memory stack)" (§4.1).
pub const OP_CLOCK_HZ: f64 = 250.0e6;

/// Datapath beat width: "wide buses (at least 512 bit)" (§4.1) = 64 B.
pub const BEAT_BYTES: u64 = 64;

/// Non-vectorized pipeline throughput: one 64 B beat per 250 MHz cycle,
/// i.e. 16 GB/s. At 25 % selectivity "the bottleneck shifts to the
/// bandwidth of a single query pipeline" (§6.4) — this is that bandwidth.
pub const PIPELINE_RATE: f64 = BEAT_BYTES as f64 * OP_CLOCK_HZ;

/// Pipeline fill latency per operator stage (deep pipelining; "adding
/// insignificant latency to baseline network overheads", §1).
pub const OP_FILL_CYCLES: u64 = 24;

/// Cycles per hash-table entry when the group-by operator flushes its
/// result queue at end of aggregation (§5.4).
pub const GROUP_FLUSH_CYCLES_PER_ENTRY: u64 = 2;

/// Number of dynamic regions in the evaluated configuration: "We use six
/// dynamic regions in our experiments" (§6.1).
pub const DEFAULT_REGIONS: usize = 6;

// ---------------------------------------------------------------------------
// CPU baselines (paper §6.1: Xeon Gold 6248 / 6154, cold buffer caches)
// ---------------------------------------------------------------------------

/// Effective single-thread DRAM streaming *read* bandwidth for the CPU
/// baselines. Deliberately below STREAM peak: the paper's baselines run
/// with cold caches and materialize through the cache hierarchy ("LCPU
/// pays a significant price, because it has to read the data from DRAM and
/// not from cache", §6.4).
pub const CPU_READ_BW: f64 = 7.0e9;

/// Effective single-thread DRAM streaming *write* bandwidth (write
/// allocate + eviction traffic makes writes costlier than reads).
pub const CPU_WRITE_BW: f64 = 5.0e9;

/// Socket-aggregate DRAM bandwidth, used when multiple baseline processes
/// compete (Figure 12): "Both CPU baselines compete for access both to the
/// DRAM and the shared caches" (§6.8).
pub const CPU_SOCKET_BW: f64 = 19.0e9;

/// Multiplicative slowdown from cache/DRAM interference when several
/// processes run concurrently (Figure 12).
pub const CPU_INTERFERENCE_FACTOR: f64 = 1.35;

/// Fixed per-query software overhead of the local baseline (buffer-cache
/// lookup, thread wakeup, measurement harness).
pub const LCPU_FIXED: SimDuration = SimDuration::from_micros(14);

/// Extra fixed overhead of the remote (two-sided RDMA) baseline: RPC
/// send/receive handling on both CPUs on top of [`LCPU_FIXED`].
pub const RCPU_RPC_OVERHEAD: SimDuration = SimDuration::from_micros(8);

/// Per-tuple CPU cost of evaluating a selection predicate pair (branchy
/// scalar code over row data).
pub const CPU_PREDICATE_NS: u64 = 3;

/// Per-tuple CPU cost of a hash-table *insert* on the baseline
/// (parallel-hashmap-style table, amortized resize + cache misses; §6.5
/// attributes baseline slowdown to "memory resizing of the hash table as
/// more elements are added" and hashing speed).
pub const CPU_HASH_INSERT_NS: u64 = 62;

/// Per-tuple CPU cost of a hash lookup that hits (group-by on a small,
/// cache-resident group set).
pub const CPU_HASH_HIT_NS: u64 = 18;

/// CPU regex throughput in ns per byte (RE2-like DFA, cold data: ~1 GB/s).
pub const CPU_REGEX_NS_PER_BYTE: f64 = 1.0;

/// CPU AES-128-CTR throughput (Crypto++-like, cold data), bytes/second.
pub const CPU_AES_BW: f64 = 2.0e9;

/// CPU-side software dedup cost per overflow tuple shipped back by the
/// FPGA cuckoo tables (§5.4: collisions "sent to the client to be
/// deduplicated in software").
pub const CPU_DEDUP_NS: u64 = 60;

/// Client-side scatter–gather merge: per-row cost of the hash-based
/// re-aggregation / dedup pass that combines partial results from a
/// fleet of Farview nodes. Same mechanism as the §5.4 software dedup of
/// overflow tuples, but the partial rows arrive sorted by shard and warm
/// in cache (they were just reassembled from the wire), so the per-row
/// cost sits between the hot hash-hit (`CPU_HASH_HIT_NS`) and the cold
/// insert (`CPU_HASH_INSERT_NS`).
pub const CLIENT_MERGE_ROW_NS: u64 = 40;

/// Client-side memcpy bandwidth for concatenating shard payloads into
/// one result buffer (streaming copy of data just written to client
/// memory by the NIC; DDR4 single-core streaming rate).
pub const CLIENT_CONCAT_BW: f64 = 12.0e9;

/// Rebalance coordinator: fixed cost per (source → destination) copy
/// flow of a shard-move plan — verb setup, range bookkeeping, and the
/// completion handling of one copy stream. Same order as an RPC issue
/// path on the client CPU.
pub const MIGRATION_MOVE_FIXED: SimDuration = SimDuration::from_micros(2);

/// Helper: the serialized-transfer time of `bytes` at `rate`, as used all
/// over the baseline cost models.
pub fn transfer(bytes: u64, rate: f64) -> SimDuration {
    SimDuration::for_bytes(bytes, rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixed response-time components must preserve the paper's
    /// Figure 6(b) shape: RNIC wins for a single small packet, Farview
    /// wins by ~20 % at 8 kB.
    #[test]
    fn figure6b_shape_holds_analytically() {
        let fv_fixed = CLIENT_POST
            + WIRE_ONE_WAY
            + FV_REQ_PROC
            + DRAM_ACCESS_LATENCY
            + WIRE_ONE_WAY
            + CLIENT_COMPLETE;
        let rnic_fixed = CLIENT_POST
            + WIRE_ONE_WAY
            + RNIC_REQ_PROC
            + RNIC_PCIE_LATENCY
            + WIRE_ONE_WAY
            + CLIENT_COMPLETE;

        let response = |fixed: SimDuration, per_pkt: SimDuration, peak: f64, bytes: u64| {
            let pkts = bytes.div_ceil(PACKET_BYTES);
            fixed + per_pkt * pkts + transfer(bytes, peak)
        };

        // 512 B: RNIC must be faster.
        let fv_small = response(fv_fixed, FV_PER_PACKET, FV_NET_PEAK, 512);
        let rnic_small = response(rnic_fixed, RNIC_PER_PACKET, RNIC_PCIE_PEAK, 512);
        assert!(
            rnic_small < fv_small,
            "RNIC must win small transfers: {rnic_small} vs {fv_small}"
        );

        // 8 kB: Farview must be faster by a sizeable margin.
        let fv_big = response(fv_fixed, FV_PER_PACKET, FV_NET_PEAK, 8192);
        let rnic_big = response(rnic_fixed, RNIC_PER_PACKET, RNIC_PCIE_PEAK, 8192);
        assert!(
            fv_big < rnic_big,
            "FV must win 8 kB: {fv_big} vs {rnic_big}"
        );
        let ratio = rnic_big.as_nanos() as f64 / fv_big.as_nanos() as f64;
        assert!(ratio > 1.10, "FV advantage at 8 kB too small: {ratio:.3}");
    }

    /// Figure 6(a): pipelined throughput must cross over — RNIC better
    /// below 4 kB, Farview better at saturation.
    #[test]
    fn figure6a_shape_holds_analytically() {
        let tput = |occ: SimDuration, peak: f64, bytes: u64| {
            let per_req = occ + transfer(bytes, peak);
            bytes as f64 / per_req.as_secs_f64()
        };
        let small = 1024;
        assert!(
            tput(RNIC_REQ_OCCUPANCY, RNIC_PCIE_PEAK, small)
                > tput(FV_REQ_OCCUPANCY, FV_NET_PEAK, small),
            "RNIC must win small-transfer throughput"
        );
        let big = 32 * 1024;
        assert!(
            tput(FV_REQ_OCCUPANCY, FV_NET_PEAK, big)
                > tput(RNIC_REQ_OCCUPANCY, RNIC_PCIE_PEAK, big),
            "FV must win at saturation"
        );
    }

    /// Pipeline (non-vectorized) must be slower than two striped channels
    /// but faster than one — this is what makes vectorization matter at
    /// 25 % selectivity (§6.4) without mattering at 100 %.
    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants *are* the test subject
    fn pipeline_rate_sits_between_one_and_two_channels() {
        assert!(PIPELINE_RATE < DEFAULT_CHANNELS as f64 * DRAM_CHANNEL_BW);
        assert!(PIPELINE_RATE > DRAM_CHANNEL_BW * 0.8);
        assert!((PIPELINE_RATE - 16.0e9).abs() < 1e6);
    }

    /// CPU hash insert cost must make a 16 K-tuple distinct take ~1 ms
    /// (Figure 9's baselines climb towards 1.5 ms at 1 MB).
    #[test]
    fn hash_costs_land_in_figure9_ballpark() {
        let tuples = 16_384u64; // 1 MB of 64 B tuples
        let hash_time = SimDuration::from_nanos(tuples * CPU_HASH_INSERT_NS);
        let micros = hash_time.as_micros_f64();
        assert!(
            (500.0..2_000.0).contains(&micros),
            "distinct hash cost off the figure: {micros} us"
        );
    }

    /// Sanity: transfer helper at the Farview read peak.
    #[test]
    fn transfer_helper() {
        assert_eq!(transfer(12_000, FV_NET_PEAK).as_nanos(), 1_000);
    }
}
