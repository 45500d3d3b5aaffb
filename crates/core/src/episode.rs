//! Discrete-event execution of queries against the Farview node.
//!
//! One *episode* simulates one or more concurrent queries end to end
//! across Figure 2's datapath:
//!
//! ```text
//! client ──request──▶ network stack ──▶ dynamic region ──▶ MMU ──▶ DRAM channels
//!   ▲                                                                   │
//!   └──── packets ◀── DRR egress arbiter ◀── packer/sender ◀── operator pipeline
//! ```
//!
//! Response time is measured exactly as the paper measures it: from the
//! client posting the request until "the final results are written to
//! the memory of the client machine" (§6.2).
//!
//! Two routes compute an episode; [`run_batched_episodes`] picks one by a
//! single predicate, and nothing else chooses:
//!
//! - **The single-stream pass** takes an episode of exactly one batch, of
//!   depth 1, on a link whose fault plan is benign — every plain
//!   `far_view`, each fleet shard, each tiered query. With one stream
//!   nothing but its own credits feeds back into timing, so the episode
//!   is a recurrence: one pass over the bursts in the engine's
//!   completion order, then one over the packets in staging order. It
//!   drains the pipeline straight into the client's result buffer and
//!   makes no packet, message or event; it counts the events the engine
//!   would have delivered. Like [`try_write_time`] it has no event
//!   budget.
//! - **The event engine** runs every other episode: batches deeper than
//!   1, concurrent batches, and every non-benign fault plan. The node is
//!   one actor holding the shared resources (DRAM channel servers, the
//!   egress wire, the DRR arbiter, per-region pipeline servers); each
//!   client connection is its own actor doing out-of-order reassembly
//!   and credit returns. `fv_sim::Simulation` delivers their messages
//!   under a 20 M-event guard.
//!
//! The engine is the pass's oracle: a property in this module's tests
//! holds the two equal, field by field and to the nanosecond, on every
//! kind of episode the pass takes.

use bytes::Bytes;

use fv_mem::{BurstReq, PageView};
use fv_net::{
    CreditGate, DoorbellBatch, EgressArbiter, LinkTiming, NetError, NicKind, Packet, PacketKind,
    Reassembly, HEADER_BYTES,
};
use fv_pipeline::CompiledPipeline;
use fv_sim::calib::{
    self, CLIENT_COMPLETE, CLIENT_POST, DRAM_ACCESS_LATENCY, FV_REQ_OCCUPANCY, FV_REQ_PROC,
    OP_CLOCK_HZ, PACKET_BYTES, PIPELINE_RATE, SMART_ADDR_TUPLE, TLB_MISS_PENALTY, WIRE_ONE_WAY,
};
use fv_sim::{Actor, ActorId, BandwidthServer, Context, SimDuration, SimTime, Simulation};

use crate::config::FarviewConfig;
use crate::error::FvError;

/// Everything the node needs to run one query: the loaded pipeline, the
/// burst schedule, and the raw bytes in stream order (pre-gathered for
/// smart addressing).
pub struct PreparedQuery {
    /// Queue-pair id.
    pub qp: u32,
    /// Dynamic-region slot the QP is bound to.
    pub slot: usize,
    /// The loaded operator pipeline.
    pub pipeline: CompiledPipeline,
    /// Planned memory bursts (empty when smart addressing).
    pub bursts: Vec<BurstReq>,
    /// The table bytes, in exactly the order the pipeline will consume.
    pub data: Vec<u8>,
    /// `Some(tuples)` when smart addressing gathers per-tuple instead of
    /// streaming bursts.
    pub sa_tuples: Option<u64>,
    /// Vector lanes for this query's pipeline (1 = scalar).
    pub vector_lanes: u64,
}

/// Outcome of one query inside an episode.
#[derive(Debug)]
pub struct EpisodeResult {
    /// Queue-pair id.
    pub qp: u32,
    /// Client-observed response time.
    pub response_time: SimDuration,
    /// Result payload as reassembled in client memory.
    pub payload: Vec<u8>,
    /// The pipeline the query ran, handed back finished: its counters
    /// are the query's, and [`CompiledPipeline::reset`] readies it for
    /// the next query of the same spec.
    pub pipeline: CompiledPipeline,
    /// Response packets received.
    pub packets: u64,
    /// Bytes that crossed the wire (payload + headers).
    pub wire_bytes: u64,
    /// Events the event engine delivers for the whole episode — on the
    /// single-stream pass, the count it would have delivered (diagnostics;
    /// the benchmark's `sim_digest` folds it in).
    pub events: u64,
}

/// The episode's messages. `stream` is the dense index
/// [`run_batched_episodes`] gives every posted query, in post order: the
/// node's per-stream state is a `Vec` lookup per event, not a hash of the
/// wire id.
#[derive(Debug, Clone)]
enum Msg {
    /// Client request arriving at the node's network stack.
    Request { stream: usize },
    /// The request's translations are done; bursts enter the per-channel
    /// arbiters.
    BurstsEligible { stream: usize },
    /// Serve the next arbitrated burst on a channel.
    ChannelPump { ch: usize },
    /// A memory burst completed and its bytes reached the region.
    Burst { stream: usize, idx: usize },
    /// Staged packets become sendable (pipeline output ready).
    Stage { stream: usize, batch: usize },
    /// Try to push the next packet onto the wire.
    Egress,
    /// A credit returned from the client.
    Credit { stream: usize },
    /// A packet arriving at a client.
    Deliver(Packet),
}

struct QueryRun {
    q: PreparedQuery,
    /// The bytes the pipeline consumes, in stream order: the query's own
    /// `data`, moved here, or a view of the node pages holding its table.
    data: PageView,
    cursor: usize,
    /// Reorder buffer: bursts that completed ahead of stream order
    /// ("data is buffered in queues as it traverses from one stack to
    /// the other", §4.1).
    arrived: std::collections::BTreeSet<usize>,
    /// Next burst index to feed to the pipeline, in stream order.
    next_feed: usize,
    /// Total burst/chunk count for this query.
    total_chunks: usize,
    /// Vector lanes of this query's pipeline (scales the shared region
    /// pipeline server's per-chunk cost).
    lanes: u64,
    first_output: bool,
    next_seq: u32,
    /// Packets staged but not yet credited/arbitrated.
    staged: Vec<Vec<Packet>>,
    ready_queue: std::collections::VecDeque<Packet>,
    /// Packets this stream may still have in flight (§4.3's credits).
    credits: CreditGate,
    fin_emitted: bool,
    packets_sent: u64,
    wire_bytes: u64,
    /// Output short of a full packet, carried to the next drain: a view
    /// of the drain it was cut from.
    pending_tail: Bytes,
}

impl QueryRun {
    /// A posted query nothing has happened to yet, streaming `view` if
    /// it was staged over one and its own `data` otherwise, with
    /// `credit_budget` packets allowed in flight.
    fn new(mut q: PreparedQuery, view: Option<PageView>, credit_budget: u32) -> Self {
        QueryRun {
            data: view.unwrap_or_else(|| PageView::from(std::mem::take(&mut q.data))),
            cursor: 0,
            arrived: std::collections::BTreeSet::new(),
            next_feed: 0,
            total_chunks: 0,
            lanes: q.vector_lanes.max(1),
            first_output: true,
            next_seq: 0,
            staged: Vec::new(),
            ready_queue: std::collections::VecDeque::new(),
            credits: CreditGate::new(credit_budget),
            fin_emitted: false,
            packets_sent: 0,
            wire_bytes: 0,
            pending_tail: Bytes::new(),
            q,
        }
    }

    /// The result buffer the client registers before it posts: as large
    /// as this query's output can reach (a widening join's rows outgrow
    /// the table they probe; a projection's rows stay below it).
    fn result_capacity(&self) -> usize {
        self.q.pipeline.output_bound(self.data.len())
    }

    /// Chunk length of burst `idx`, in stream order.
    fn chunk_len(&self, idx: usize) -> usize {
        chunk_len(&self.q, self.data.len(), idx)
    }
}

/// Length of chunk `idx` of `q`'s stream of `data_len` bytes: its burst's
/// bytes, or under smart addressing as many whole gathered tuples as fit
/// a burst.
fn chunk_len(q: &PreparedQuery, data_len: usize, idx: usize) -> usize {
    match q.sa_tuples {
        Some(_) => {
            let tuple_bytes = q.pipeline.in_tuple_bytes();
            let per_chunk =
                (calib::MEM_BURST_BYTES as usize / tuple_bytes.max(1)).max(1) * tuple_bytes;
            let consumed = idx * per_chunk;
            per_chunk.min(data_len - consumed)
        }
        None => q.bursts.get(idx).map_or(0, |b| b.bytes as usize),
    }
}

struct NodeActor {
    /// Per-stream state, indexed by the messages' `stream`.
    runs: Vec<QueryRun>,
    dram: fv_mem::DramTiming,
    /// Per-channel DRR arbiters across dynamic regions — the MMU's
    /// "arbitrators, crossbars, and dedicated credit-based queues" (§4.4)
    /// that give every region a fair DRAM share.
    channel_queues: Vec<fv_sim::DrrScheduler<(usize, usize, u64)>>,
    channel_busy: Vec<bool>,
    /// One serialized operator pipeline per dynamic region. Queries of a
    /// doorbell batch share their region's pipeline, so while one query's
    /// output drains to the wire the next query's chunks are already
    /// streaming through — the overlap that makes batching pay.
    slot_pipelines: Vec<BandwidthServer>,
    /// Serial per-request occupancy of the FPGA network stack: many
    /// in-flight verbs pipeline through it instead of each paying the
    /// full parse latency back to back.
    net_ingress: BandwidthServer,
    wire: LinkTiming,
    arbiter: EgressArbiter,
    /// Each stream's client actor, parallel to `runs`.
    clients: Vec<ActorId>,
    /// `(wire id, stream)` sorted by wire id. A packet popped from the
    /// arbiter is the one thing that reaches the node carrying only its
    /// wire id; this resolves it.
    wire_ids: Vec<(u32, usize)>,
    egress_scheduled: bool,
    /// First datapath error observed (surfaced after quiescence instead
    /// of crashing the episode mid-simulation).
    failed: Option<NetError>,
}

impl NodeActor {
    /// Cut a run's next pipeline drain into packets; only the final
    /// flush may emit a short or empty `last` packet.
    ///
    /// The drain (behind whatever the previous one left short of a full
    /// packet) is frozen once and every packet is a view of that one
    /// buffer — no per-packet allocation, no per-packet copy. The bytes
    /// are next copied when the client appends them to its result.
    fn packetize(run: &mut QueryRun, output: Vec<u8>, finished: bool) -> Vec<Packet> {
        if output.is_empty() && !finished {
            return Vec::new();
        }
        let drain = if run.pending_tail.is_empty() {
            Bytes::from(output)
        } else {
            let mut joined = Vec::with_capacity(run.pending_tail.len() + output.len());
            joined.extend_from_slice(&run.pending_tail);
            joined.extend_from_slice(&output);
            Bytes::from(joined)
        };
        let mtu = PACKET_BYTES as usize;
        let full = drain.len() / mtu;
        let mut pkts = Vec::with_capacity(full + usize::from(finished));
        for i in 0..full {
            let view = drain.slice(i * mtu..(i + 1) * mtu);
            pkts.push(Packet::data(run.q.qp, run.next_seq, view, false));
            run.next_seq += 1;
        }
        let tail = drain.slice(full * mtu..);
        if finished {
            pkts.push(Packet::data(run.q.qp, run.next_seq, tail, true));
            run.next_seq += 1;
            run.fin_emitted = true;
            run.pending_tail = Bytes::new();
        } else {
            run.pending_tail = tail;
        }
        pkts
    }

    /// Move credited packets from the run's ready queue into the DRR
    /// arbiter (credit-based flow control, §4.3). A routing failure
    /// (unbound flow) is recorded and surfaced after the run instead of
    /// crashing the episode.
    fn admit_credited(&mut self, stream: usize) {
        // fv:allow(panic): `stream` is one of the indices
        // run_batched_episodes minted for exactly this `runs` vector.
        let run = &mut self.runs[stream];
        while !run.ready_queue.is_empty() && run.credits.try_acquire() {
            if let Some(pkt) = run.ready_queue.pop_front() {
                if let Err(e) = self.arbiter.push(pkt) {
                    self.failed.get_or_insert(e);
                    return;
                }
            }
        }
    }

    /// The stream a wire id belongs to, if it is one of this episode's.
    fn stream_of(&self, qp: u32) -> Option<usize> {
        let at = self
            .wire_ids
            .binary_search_by_key(&qp, |&(id, _)| id)
            .ok()?;
        self.wire_ids.get(at).map(|&(_, stream)| stream)
    }

    fn kick_egress(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.egress_scheduled && !self.arbiter.is_empty() {
            self.egress_scheduled = true;
            ctx.send_self(SimDuration::ZERO, Msg::Egress);
        }
    }
}

impl Actor<Msg> for NodeActor {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            // Every `stream` a message carries is an index
            // run_batched_episodes minted for exactly this `runs` vector
            // (the "minted index" waivers below); only `Egress` starts
            // from a wire id, and it checks.
            Msg::Request { stream } => {
                // In-flight verbs pipeline through the network stack: the
                // serial portion is its occupancy, the rest of the parse
                // latency overlaps with the next verb's handling.
                let ingress_done = self.net_ingress.admit(ctx.now(), 0);
                // fv:allow(panic): minted index
                let run = &mut self.runs[stream];
                // A join's build side rides with the request: it must
                // cross the wire and land in on-chip memory before the
                // probe stream starts (§7 extension).
                let upload = run.q.pipeline.upload_bytes();
                let upload_time = if upload > 0 {
                    calib::transfer(upload, calib::FV_NET_PEAK)
                        + calib::FV_PER_PACKET * upload.div_ceil(PACKET_BYTES)
                } else {
                    SimDuration::ZERO
                };
                let t_ready =
                    ingress_done + FV_REQ_PROC.saturating_sub(FV_REQ_OCCUPANCY) + upload_time;
                if run.data.is_empty() {
                    // Empty table: the sender still emits a FIN so the
                    // client can complete (§5.5).
                    ctx.send_at(
                        ctx.me(),
                        t_ready,
                        Msg::Burst {
                            stream,
                            idx: usize::MAX,
                        },
                    );
                    return;
                }
                match run.q.sa_tuples {
                    Some(tuples) => {
                        // Smart addressing: one narrow request per tuple,
                        // latency-bound (§5.2). Chunked so the pipeline
                        // overlaps with the gather. (Fig. 7 is a
                        // single-region experiment; SA gathers bypass the
                        // per-channel arbiters.)
                        let tuple_bytes = run.q.pipeline.in_tuple_bytes() as u64;
                        let tuples_per_chunk = (calib::MEM_BURST_BYTES / tuple_bytes.max(1)).max(1);
                        let chunks = tuples.div_ceil(tuples_per_chunk);
                        run.total_chunks = chunks as usize;
                        let mut done_tuples = 0u64;
                        for idx in 0..chunks {
                            let n = tuples_per_chunk.min(tuples - done_tuples);
                            done_tuples += n;
                            let at = t_ready + DRAM_ACCESS_LATENCY + SMART_ADDR_TUPLE * done_tuples;
                            ctx.send_at(
                                ctx.me(),
                                at,
                                Msg::Burst {
                                    stream,
                                    idx: idx as usize,
                                },
                            );
                        }
                    }
                    None => {
                        // Translations happen up front (the TLB holds all
                        // live mappings; misses walk the on-chip page
                        // table, §4.4), then the bursts enter the
                        // per-channel arbiters.
                        run.total_chunks = run.q.bursts.len();
                        let misses = run.q.bursts.iter().filter(|b| !b.tlb_hit).count() as u64;
                        let at = t_ready + DRAM_ACCESS_LATENCY + TLB_MISS_PENALTY * misses;
                        ctx.send_at(ctx.me(), at, Msg::BurstsEligible { stream });
                    }
                }
            }

            Msg::BurstsEligible { stream } => {
                // Feed the per-channel DRR arbiters; each dynamic region
                // (slot) is one flow, so concurrent clients fair-share
                // every channel -- the MMU's "arbitrators, crossbars, and
                // dedicated credit-based queues" (§4.4).
                let run = &self.runs[stream]; // fv:allow(panic): minted index
                let slot = run.q.slot;
                for (idx, b) in run.q.bursts.iter().enumerate() {
                    // fv:allow(panic): prepare() assigns burst channels with
                    // `% channel_queues.len()`, so the index is in range by
                    // construction.
                    self.channel_queues[b.channel].push(slot, b.bytes, (stream, idx, b.bytes));
                }
                for ch in 0..self.channel_queues.len() {
                    // fv:allow(panic): `ch` iterates 0..len of the very
                    // vectors it indexes (busy/queues are built together).
                    if !self.channel_busy[ch] && !self.channel_queues[ch].is_empty() {
                        self.channel_busy[ch] = true; // fv:allow(panic): same 0..len bound

                        ctx.send_self(SimDuration::ZERO, Msg::ChannelPump { ch });
                    }
                }
            }

            // fv:allow(panic): ChannelPump is only ever self-sent with a
            // `ch` that came from iterating 0..channel_queues.len().
            Msg::ChannelPump { ch } => match self.channel_queues[ch].pop() {
                None => {
                    self.channel_busy[ch] = false; // fv:allow(panic): same bound
                }
                Some((_slot, (stream, idx, bytes))) => {
                    let done = self.dram.admit(ch, ctx.now(), bytes);
                    ctx.send_at(ctx.me(), done, Msg::Burst { stream, idx });
                    ctx.send_at(ctx.me(), done, Msg::ChannelPump { ch });
                }
            },

            Msg::Burst { stream, idx } => {
                let run = &mut self.runs[stream]; // fv:allow(panic): minted index
                if idx == usize::MAX {
                    // Empty-table FIN path.
                    run.q.pipeline.finish();
                    let output = run.q.pipeline.drain_output();
                    let pkts = NodeActor::packetize(run, output, true);
                    run.staged.push(pkts);
                    let batch = run.staged.len() - 1;
                    ctx.send_at(ctx.me(), ctx.now(), Msg::Stage { stream, batch });
                    return;
                }
                // Reorder buffer: bursts can complete out of stream order
                // across channels under multi-client arbitration; the
                // region feeds its pipeline strictly in order ("data is
                // buffered in queues as it traverses from one stack to
                // the other", §4.1).
                run.arrived.insert(idx);
                let mut ready = ctx.now();
                let mut fed_any = false;
                let mut finished = false;
                // fv:allow(panic): prepare() assigns query slots with
                // `% slot_pipelines.len()`, in range by construction.
                let pipeline = &mut self.slot_pipelines[run.q.slot];
                while run.arrived.remove(&run.next_feed) {
                    let chunk_len = run.chunk_len(run.next_feed);
                    let start = run.cursor;
                    run.cursor += chunk_len;
                    // The pipeline consumes the chunk straight out of
                    // the node's pages — no copy on the feed path. A
                    // burst never crosses a page (`plan_bursts` caps it
                    // there), so this is one slice, or two where it
                    // straddles the end of the page's written bytes; the
                    // pipeline frames tuples across them.
                    for piece in run.data.slices(start..run.cursor) {
                        run.q.pipeline.push_bytes(piece);
                    }
                    // The region's pipeline is a shared serialized
                    // resource; vector lanes divide the per-chunk cost.
                    let cost = (chunk_len as u64).div_ceil(run.lanes);
                    let done = pipeline.admit(ready, cost);
                    ready = done;
                    fed_any = true;
                    run.next_feed += 1;
                    if run.next_feed == run.total_chunks {
                        finished = true;
                        break;
                    }
                }
                if !fed_any {
                    return;
                }
                if run.first_output {
                    run.first_output = false;
                    ready += SimDuration::for_cycles(run.q.pipeline.fill_cycles(), OP_CLOCK_HZ);
                }
                let mut output = run.q.pipeline.drain_output();
                if finished {
                    run.q.pipeline.finish();
                    run.q.pipeline.drain_output_into(&mut output);
                    ready += SimDuration::for_cycles(run.q.pipeline.flush_cycles(), OP_CLOCK_HZ);
                }
                let pkts = NodeActor::packetize(run, output, finished);
                if !pkts.is_empty() {
                    run.staged.push(pkts);
                    let batch = run.staged.len() - 1;
                    ctx.send_at(ctx.me(), ready, Msg::Stage { stream, batch });
                }
            }

            Msg::Stage { stream, batch } => {
                let run = &mut self.runs[stream]; // fv:allow(panic): minted index
                let pkts = run
                    .staged
                    .get_mut(batch)
                    .map(std::mem::take)
                    .unwrap_or_default();
                run.ready_queue.extend(pkts);
                self.admit_credited(stream);
                self.kick_egress(ctx);
            }

            Msg::Egress => {
                match self.arbiter.pop() {
                    None => {
                        self.egress_scheduled = false;
                    }
                    Some(pkt) => {
                        let qp = pkt.qp;
                        let Some(stream) = self.stream_of(qp) else {
                            self.failed.get_or_insert(NetError::UnboundQp { qp });
                            self.egress_scheduled = false;
                            return;
                        };
                        // fv:allow(panic): `wire_ids` holds minted indices
                        // only, and `clients` is parallel to `runs`.
                        let (run, client) = (&mut self.runs[stream], self.clients[stream]);
                        run.packets_sent += 1;
                        run.wire_bytes += pkt.wire_bytes();
                        // The fault seam: a degraded link can delay this
                        // packet (loss/retry, cap, spike) or fail it with a
                        // typed error. A failure poisons the episode — the
                        // queue drains without further sends and the typed
                        // error surfaces from `run_batched_episodes`.
                        let arrival = match self.wire.try_transmit(qp, ctx.now(), pkt.wire_bytes())
                        {
                            Ok(t) => t,
                            Err(e) => {
                                self.failed.get_or_insert(e);
                                self.egress_scheduled = false;
                                return;
                            }
                        };
                        ctx.send_at(client, arrival, Msg::Deliver(pkt));
                        // The wire is free again one propagation delay
                        // before the packet lands.
                        let free = arrival.since(SimTime::ZERO).saturating_sub(
                            self.wire.propagation().saturating_sub(SimDuration::ZERO),
                        );
                        let free_at = SimTime::from_nanos(free.as_nanos());
                        if self.arbiter.is_empty() {
                            self.egress_scheduled = false;
                        } else {
                            ctx.send_at(ctx.me(), free_at.max(ctx.now()), Msg::Egress);
                        }
                    }
                }
            }

            Msg::Credit { stream } => {
                // Each credit answers one delivered packet, which took one.
                let run = &mut self.runs[stream]; // fv:allow(panic): minted index
                run.credits.release(1);
                self.admit_credited(stream);
                self.kick_egress(ctx);
            }

            // fv:allow(panic): actor wiring invariant — episodes route
            // Deliver exclusively to ClientActor ids; hitting this is a
            // topology-construction bug, not a runtime input.
            Msg::Deliver(_) => unreachable!("node never receives Deliver"),
        }
    }
}

struct ClientActor {
    /// This client's stream index at the node (what a credit names).
    stream: usize,
    node: ActorId,
    rx: Reassembly,
    completed_at: Option<SimTime>,
    packets: u64,
    /// First protocol violation seen on this stream (duplicate or
    /// beyond-last sequence). A degraded link can replay packets, so
    /// this is a runtime fault to surface typed, not a panic.
    failed: Option<NetError>,
}

impl Actor<Msg> for ClientActor {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Msg::Deliver(pkt) = msg {
            if self.failed.is_some() {
                return;
            }
            let last = matches!(pkt.kind, PacketKind::Data { last: true });
            self.packets += 1;
            let complete = match self.rx.accept(pkt.qp, pkt.seq, pkt.payload, last) {
                Ok(c) => c,
                Err(e) => {
                    // Poison the stream: no credit return, no completion —
                    // the episode drains and the error surfaces typed.
                    self.failed = Some(e);
                    return;
                }
            };
            // Return a credit to the sender (rides the reverse wire).
            ctx.send(
                self.node,
                WIRE_ONE_WAY,
                Msg::Credit {
                    stream: self.stream,
                },
            );
            if complete {
                self.completed_at = Some(ctx.now() + CLIENT_COMPLETE);
            }
        }
    }
}

/// One doorbell-batched submission: a queue depth of N prepared queries
/// posted on one queue pair and issued with a single doorbell.
///
/// All queries of a batch share the queue pair's dynamic-region slot —
/// they stream through the *same* region pipeline, and their response
/// streams share the region's egress flow, so arbitration stays
/// byte-fair across batches (one batch never out-shares a plain
/// connection just by being deep). Each query carries its own stream id
/// in [`PreparedQuery::qp`]; ids must be unique across the episode.
pub struct BatchRun {
    /// The batched queries, in WQE post order.
    pub queries: Vec<PreparedQuery>,
    /// Per query, the view of node pages it streams in place of its own
    /// `data` — the same pages however many queries of the batch name
    /// them. Empty when every query carries its own bytes.
    views: Vec<Option<PageView>>,
}

impl BatchRun {
    /// A batch over `queries` (at least one; all on one slot).
    ///
    /// # Panics
    /// Panics when `queries` is empty or the queries span more than one
    /// dynamic-region slot — both are caller bugs, not runtime inputs.
    pub fn new(queries: Vec<PreparedQuery>) -> Self {
        // fv:allow(panic): documented constructor precondition.
        assert!(!queries.is_empty(), "a doorbell batch needs ≥ 1 query");
        let slot = queries[0].slot; // fv:allow(panic): non-empty checked above
                                    // fv:allow(panic): documented constructor precondition.
        assert!(
            queries.iter().all(|q| q.slot == slot),
            "a batch rides one queue pair: all queries must share its slot"
        );
        BatchRun {
            queries,
            views: Vec::new(),
        }
    }

    /// A batch whose queries were staged over node pages: query `i`
    /// streams `views[i]` when it has one (its `data` is empty then) and
    /// its own `data` otherwise (smart addressing: the bytes it
    /// gathered). Same preconditions as [`BatchRun::new`].
    pub(crate) fn over_views(queries: Vec<PreparedQuery>, views: Vec<Option<PageView>>) -> Self {
        debug_assert_eq!(queries.len(), views.len(), "one view slot per query");
        BatchRun {
            views,
            ..BatchRun::new(queries)
        }
    }

    /// The batch's streams, in post order, each allowed `credit_budget`
    /// packets in flight.
    fn into_runs(self, credit_budget: u32) -> impl Iterator<Item = QueryRun> {
        let views = self.views.into_iter().chain(std::iter::repeat(None));
        self.queries
            .into_iter()
            .zip(views)
            .map(move |(q, view)| QueryRun::new(q, view, credit_budget))
    }

    /// The one query of a depth-1 batch and the view it streams, taken
    /// out; `None` (the batch untouched) for a deeper one.
    fn take_single(&mut self) -> Option<(PreparedQuery, Option<PageView>)> {
        if self.queries.len() != 1 {
            return None;
        }
        let q = self.queries.pop()?;
        Some((q, self.views.pop().flatten()))
    }

    /// Queue depth of this batch.
    pub fn depth(&self) -> usize {
        self.queries.len()
    }
}

/// Run doorbell-batched submissions concurrently against one node.
///
/// Every batch posts its queue depth of verbs with one doorbell: WQE `i`
/// of a batch reaches the wire at [`DoorbellBatch::issue_offset`]`(i)`,
/// the node's network stack pipelines the verbs through its serial
/// occupancy, and the batch's queries overlap shard-side operator
/// execution with each other's in-flight DRAM reads — response time
/// reflects pipelining, not a serial sum. Results are returned per batch
/// in post order, each with the pipeline its query ran; a failed episode
/// hands no pipeline back.
///
/// Two routes compute an episode, and no caller chooses between them:
///
/// - **The single-stream pass.** Exactly one batch, of depth 1, on a link
///   whose fault plan [`is_benign`](fv_net::FaultPlan::is_benign): the
///   one query is computed in one pass over its bursts and packets (see
///   the module doc). Like [`try_write_time`] it has no event budget.
/// - **The event engine.** Every other episode — a batch deeper than 1,
///   concurrent batches, any non-benign fault plan — runs on
///   `fv_sim::Simulation` under a 20 M-event guard.
///
/// The pass is checked against the engine: on every episode it takes,
/// the two return equal results in every field, `response_time` to the
/// nanosecond and `events` included.
///
/// # Errors
/// [`FvError::IncompleteEpisode`] names the stream whose episode drained
/// without a completion (the shard/query a fleet caller should report as
/// stalled); [`FvError::Net`] surfaces datapath routing failures.
pub fn run_batched_episodes(
    mut batches: Vec<BatchRun>,
    config: &FarviewConfig,
) -> Result<Vec<Vec<EpisodeResult>>, FvError> {
    config.validate();
    let single = match batches.as_mut_slice() {
        [batch] if config.fault.is_benign() => batch.take_single(),
        _ => None,
    };
    match single {
        Some((q, view)) => Ok(vec![vec![run_single_stream(q, view, config)?]]),
        None => run_on_engine(batches, config),
    }
}

/// [`run_batched_episodes`] on the event engine, whatever the batches.
fn run_on_engine(
    batches: Vec<BatchRun>,
    config: &FarviewConfig,
) -> Result<Vec<Vec<EpisodeResult>>, FvError> {
    #[cfg(test)]
    route::count(route::Route::Engine);
    let mut sim: Simulation<Msg> = Simulation::new();

    // Every posted query becomes one stream, numbered in post order
    // (batch-major). The wire id stays on the packets; everything inside
    // the episode goes by the index.
    let depths: Vec<usize> = batches.iter().map(BatchRun::depth).collect();
    let mut arbiter = EgressArbiter::new(config.regions);
    let runs: Vec<QueryRun> = batches
        .into_iter()
        .flat_map(|batch| batch.into_runs(config.credit_budget))
        .inspect(|run| arbiter.bind(run.q.slot, run.q.qp))
        .collect();
    let qps: Vec<u32> = runs.iter().map(|r| r.q.qp).collect();
    let mut wire_ids: Vec<(u32, usize)> = qps.iter().copied().zip(0..).collect();
    wire_ids.sort_unstable();
    // fv:allow(panic): documented API contract (`ids must be unique
    // across the episode`) — duplicate stream ids would silently
    // cross-wire two clients' payloads.
    assert!(
        wire_ids
            .windows(2)
            .all(|w| matches!(w, [a, b] if a.0 != b.0)),
        "stream ids must be unique per episode"
    );
    // The client registers a result buffer as large as the query's
    // output can reach; only a join fanning out over a repeated build key
    // can outgrow it, and grows it.
    let result_hints: Vec<usize> = runs.iter().map(QueryRun::result_capacity).collect();

    // Reserve actor id 0 for the node by adding it first with no
    // clients, then patch in the clients.
    let node_id = sim.add_actor(Box::new(NodeActor {
        runs,
        dram: fv_mem::DramTiming::new(config.channels),
        channel_queues: (0..config.channels)
            .map(|_| fv_sim::DrrScheduler::new(config.regions, calib::MEM_BURST_BYTES))
            .collect(),
        channel_busy: vec![false; config.channels],
        slot_pipelines: (0..config.regions)
            .map(|_| BandwidthServer::new(PIPELINE_RATE, SimDuration::ZERO))
            .collect(),
        net_ingress: BandwidthServer::new(PIPELINE_RATE, FV_REQ_OCCUPANCY),
        wire: LinkTiming::with_faults(NicKind::FarviewFpga, config.fault.clone())?,
        arbiter,
        clients: Vec::new(),
        wire_ids,
        egress_scheduled: false,
        failed: None,
    }));

    let client_ids: Vec<ActorId> = result_hints
        .into_iter()
        .enumerate()
        .map(|(stream, hint)| {
            sim.add_actor(Box::new(ClientActor {
                stream,
                node: node_id,
                rx: Reassembly::with_capacity(hint),
                completed_at: None,
                packets: 0,
                failed: None,
            }))
        })
        .collect();
    sim.actor_mut::<NodeActor>(node_id)
        .expect("node actor") // fv:allow(panic): id returned by add_actor above
        .clients = client_ids.clone();

    // Every batch rings one doorbell at t = 0; its WQEs stream onto the
    // wire at the amortized per-WQE cadence. Under a truncation fault the
    // NIC fetches only a prefix of each batch: unfetched WQEs never issue
    // and their streams surface as incomplete episodes.
    let mut posted_streams = qps.iter().copied().enumerate();
    for &depth in &depths {
        // fv:allow(panic): a doorbell batch deeper than u32::MAX cannot
        // be constructed — WQE post order is a u32 on the wire.
        let posted = u32::try_from(depth).expect("batch fits u32");
        let doorbell = match config.fault.truncate_doorbell {
            Some(n) => DoorbellBatch::truncated(posted, n.min(posted)),
            None => DoorbellBatch::new(posted),
        };
        for (i, (stream, qp)) in (0..posted).zip(posted_streams.by_ref()) {
            if let Ok(offset) = doorbell.try_issue_offset(qp, i) {
                sim.inject(node_id, offset + WIRE_ONE_WAY, Msg::Request { stream });
            }
        }
    }
    sim.run_to_quiescence(20_000_000);
    let events = sim.events_delivered();

    // fv:allow(panic): id returned by add_actor above.
    if let Some(e) = &sim.actor::<NodeActor>(node_id).expect("node actor").failed {
        return Err(FvError::Net(e.clone()));
    }
    for &id in &client_ids {
        // fv:allow(panic): id returned by add_actor above.
        let client = sim.actor::<ClientActor>(id).expect("client actor");
        if let Some(e) = &client.failed {
            return Err(FvError::Net(e.clone()));
        }
    }

    // Move each completed payload out of its client: the buffer the
    // packets were appended into is the one the caller gets.
    let mut received = Vec::with_capacity(qps.len());
    for (&id, &qp) in client_ids.iter().zip(&qps) {
        // fv:allow(panic): id returned by add_actor above.
        let client = sim.actor_mut::<ClientActor>(id).expect("client actor");
        let completed = client
            .completed_at
            .ok_or(FvError::IncompleteEpisode { qp })?;
        // `completed_at` is only ever set by the packet that completed
        // the stream, which is `into_payload`'s precondition.
        let mut payload = std::mem::take(&mut client.rx).into_payload();
        payload.shrink_to_fit();
        received.push((completed, payload, client.packets));
    }

    // fv:allow(panic): id returned by add_actor above.
    let node = sim.actor_mut::<NodeActor>(node_id).expect("node actor");
    let mut streams = std::mem::take(&mut node.runs).into_iter().zip(received);
    let mut results = Vec::with_capacity(depths.len());
    for &depth in &depths {
        let mut batch_results = Vec::with_capacity(depth);
        for (run, (completed, payload, packets)) in streams.by_ref().take(depth) {
            let qp = run.q.qp;
            if !run.fin_emitted {
                return Err(FvError::IncompleteEpisode { qp });
            }
            batch_results.push(EpisodeResult {
                qp,
                response_time: completed.since(SimTime::ZERO),
                payload,
                pipeline: run.q.pipeline,
                packets,
                wire_bytes: run.wire_bytes,
                events,
            });
        }
        results.push(batch_results);
    }
    Ok(results)
}

/// One packet-emitting drain of the single-stream pass.
struct Drain {
    /// When its packets become sendable (the engine's `Stage`).
    staged: SimTime,
    /// Its full packets.
    full: u64,
    /// The payload bytes of its FIN, when the stream finished here.
    fin: Option<u64>,
}

/// The single-stream pass between two burst completions: the region's
/// reorder buffer and pipeline server, and the output short of a packet.
struct Feed {
    q: PreparedQuery,
    data: PageView,
    cursor: usize,
    /// Chunks that completed, by stream index; `next_feed` is the first
    /// the pipeline has not consumed.
    arrived: Vec<bool>,
    next_feed: usize,
    server: BandwidthServer,
    first_output: bool,
    /// Output bytes short of a full packet, carried to the next drain.
    tail: u64,
    /// The client's result buffer: every drain lands here, once.
    payload: Vec<u8>,
    /// Packet-emitting drains, in drain order.
    drains: Vec<Drain>,
}

impl Feed {
    /// Chunk `idx` completed at `now`: feed the pipeline every chunk now
    /// in stream order, and drain it.
    fn complete(&mut self, now: SimTime, idx: usize) {
        if let Some(flag) = self.arrived.get_mut(idx) {
            *flag = true;
        }
        let (mut ready, mut fed_any, mut finished) = (now, false, false);
        while self.arrived.get(self.next_feed) == Some(&true) {
            let len = chunk_len(&self.q, self.data.len(), self.next_feed);
            let start = self.cursor;
            self.cursor += len;
            for piece in self.data.slices(start..self.cursor) {
                self.q.pipeline.push_bytes(piece);
            }
            ready = self
                .server
                .admit(ready, (len as u64).div_ceil(self.q.vector_lanes.max(1)));
            fed_any = true;
            self.next_feed += 1;
            if self.next_feed == self.arrived.len() {
                finished = true;
                break;
            }
        }
        if !fed_any {
            return;
        }
        if self.first_output {
            self.first_output = false;
            ready += SimDuration::for_cycles(self.q.pipeline.fill_cycles(), OP_CLOCK_HZ);
        }
        let before = self.payload.len();
        self.q.pipeline.drain_output_into(&mut self.payload);
        if finished {
            self.q.pipeline.finish();
            self.q.pipeline.drain_output_into(&mut self.payload);
            ready += SimDuration::for_cycles(self.q.pipeline.flush_cycles(), OP_CLOCK_HZ);
        }
        self.cut(ready, before, finished);
    }

    /// Cut the output since `before` into packets staged at `staged`, as
    /// the engine's packetizer would: full packets, the rest carried,
    /// and at the end of the stream a FIN with whatever is left.
    fn cut(&mut self, staged: SimTime, before: usize, finished: bool) {
        let total = self.tail + (self.payload.len() - before) as u64;
        let full = total / PACKET_BYTES;
        self.tail = total % PACKET_BYTES;
        let fin = finished.then(|| std::mem::take(&mut self.tail));
        if full > 0 || fin.is_some() {
            self.drains.push(Drain { staged, full, fin });
        }
    }
}

/// The single-stream pass: one depth-1 query on a healthy link, computed
/// in one pass over its bursts and packets. Its result equals the event
/// engine's in every field (`tests::the_single_stream_pass_equals_the_engine`).
///
/// - The request reaches the node one propagation after it is posted
///   and is ready once the network stack parsed it and any join build
///   side is uploaded behind it.
/// - Bursts become eligible after the access latency and the TLB walks.
///   Each channel serves its own FIFO back to back, and completions are
///   handled in the engine's `(time, seq)` order: at equal times, in
///   the order the channels' previous completions were handled, the
///   first round by channel index.
/// - Each completion feeds the pipeline every chunk now in stream order
///   and drains it into the result buffer. A drain's packets are staged
///   when the region's pipeline server is done with its chunks, plus
///   fill cycles on the first drain and flush cycles on the last.
/// - Packets leave in staging order, each at the later of its staging
///   and the credit that packet `k − credit_budget` returns; the wire
///   serializes them, and the client completes at the last arrival.
///
/// It counts the events the engine would have delivered: the request,
/// the burst release, a pump per burst plus an idle one per channel
/// used, a completion per chunk, a stage per packet-emitting drain, and
/// an egress, a delivery and a credit per packet.
fn run_single_stream(
    mut q: PreparedQuery,
    view: Option<PageView>,
    config: &FarviewConfig,
) -> Result<EpisodeResult, FvError> {
    #[cfg(test)]
    route::count(route::Route::Pass);
    let data = view.unwrap_or_else(|| PageView::from(std::mem::take(&mut q.data)));
    let posted = SimTime::ZERO + DoorbellBatch::new(1).issue_offset(0) + WIRE_ONE_WAY;
    let parsed = BandwidthServer::new(PIPELINE_RATE, FV_REQ_OCCUPANCY).admit(posted, 0);
    let upload = q.pipeline.upload_bytes();
    let upload_time = if upload > 0 {
        calib::transfer(upload, calib::FV_NET_PEAK)
            + calib::FV_PER_PACKET * upload.div_ceil(PACKET_BYTES)
    } else {
        SimDuration::ZERO
    };
    let t_ready = parsed + FV_REQ_PROC.saturating_sub(FV_REQ_OCCUPANCY) + upload_time;
    // Smart addressing gathers whole tuples, as many per chunk as fit a
    // burst.
    let sa_per_chunk =
        (calib::MEM_BURST_BYTES / (q.pipeline.in_tuple_bytes() as u64).max(1)).max(1);
    let chunks = match q.sa_tuples {
        Some(tuples) => tuples.div_ceil(sa_per_chunk) as usize,
        None => q.bursts.len(),
    };
    let mut feed = Feed {
        payload: Vec::with_capacity(q.pipeline.output_bound(data.len())),
        q,
        data,
        cursor: 0,
        arrived: vec![false; chunks],
        next_feed: 0,
        server: BandwidthServer::new(PIPELINE_RATE, SimDuration::ZERO),
        first_output: true,
        tail: 0,
        drains: Vec::new(),
    };
    let mut events = 1; // the request
    if feed.data.is_empty() {
        // Empty table: the sender still emits a FIN (§5.5).
        events += 1;
        feed.q.pipeline.finish();
        feed.q.pipeline.drain_output_into(&mut feed.payload);
        feed.cut(t_ready, 0, true);
    } else if let Some(tuples) = feed.q.sa_tuples {
        // Smart addressing: latency-bound narrow gathers, chunk by chunk.
        let mut done_tuples = 0u64;
        for idx in 0..chunks {
            done_tuples += sa_per_chunk.min(tuples - done_tuples);
            feed.complete(
                t_ready + DRAM_ACCESS_LATENCY + SMART_ADDR_TUPLE * done_tuples,
                idx,
            );
        }
        events += chunks as u64;
    } else {
        let misses = feed.q.bursts.iter().filter(|b| !b.tlb_hit).count() as u64;
        let eligible = t_ready + DRAM_ACCESS_LATENCY + TLB_MISS_PENALTY * misses;
        events += 1 + complete_bursts(eligible, config.channels, &mut feed);
    }
    let qp = feed.q.qp;
    if feed.drains.last().is_none_or(|d| d.fin.is_none()) {
        return Err(FvError::IncompleteEpisode { qp });
    }

    // Egress: packets leave in staging order (ties in drain order). With
    // the budget spent, a packet waits for the oldest credit in flight.
    feed.drains.sort_by_key(|d| d.staged);
    let budget = config.credit_budget as usize;
    let mut in_flight = std::collections::VecDeque::with_capacity(budget);
    let mut wire = LinkTiming::new(NicKind::FarviewFpga);
    let (mut sent, mut wire_bytes, mut landed) = (0u64, 0u64, SimTime::ZERO);
    for d in &feed.drains {
        let sizes = std::iter::repeat_n(PACKET_BYTES, d.full as usize).chain(d.fin);
        for bytes in sizes.map(|payload| payload + HEADER_BYTES) {
            let credit = if in_flight.len() == budget {
                in_flight.pop_front()
            } else {
                None
            };
            landed = wire.transmit(credit.map_or(d.staged, |c| d.staged.max(c)), bytes);
            // Its credit returns one propagation after it lands.
            in_flight.push_back(landed + WIRE_ONE_WAY);
            sent += 1;
            wire_bytes += bytes;
        }
    }
    let Feed {
        q,
        mut payload,
        drains,
        ..
    } = feed;
    payload.shrink_to_fit();
    Ok(EpisodeResult {
        qp,
        response_time: (landed + CLIENT_COMPLETE).since(SimTime::ZERO),
        payload,
        pipeline: q.pipeline,
        packets: sent,
        wire_bytes,
        events: events + drains.len() as u64 + 3 * sent,
    })
}

/// Serve `feed`'s bursts on their channels from `eligible` on, each
/// channel FIFO and back to back, handing every completion to `feed` in
/// the engine's `(time, seq)` order. Returns the engine events that
/// took: a pump per burst plus an idle one per channel used, and a
/// completion per burst.
fn complete_bursts(eligible: SimTime, channels: usize, feed: &mut Feed) -> u64 {
    let bytes = |feed: &Feed, idx: usize| feed.q.bursts.get(idx).map(|b| b.bytes);
    // Each channel's bursts as a chain: its first, and each one's next.
    let mut first = vec![usize::MAX; channels];
    let mut next = vec![usize::MAX; feed.q.bursts.len()];
    for (idx, b) in feed.q.bursts.iter().enumerate().rev() {
        if let (Some(head), Some(after)) = (first.get_mut(b.channel), next.get_mut(idx)) {
            *after = std::mem::replace(head, idx);
        }
    }
    let mut dram = fv_mem::DramTiming::new(channels);
    // Per channel, its outstanding completion: `(time, seq, burst)`. A
    // completion's `seq` orders it among equal times, as the engine's
    // scheduling order does: the channel pump that issues a burst runs
    // right behind the completion before it.
    let mut seq = 0u64;
    let mut pending: Vec<Option<(SimTime, u64, usize)>> = first
        .iter()
        .enumerate()
        .map(|(ch, &idx)| {
            let bytes = bytes(feed, idx)?;
            seq += 1;
            Some((dram.admit(ch, eligible, bytes), seq, idx))
        })
        .collect();
    let channels_used = pending.iter().flatten().count() as u64;
    while let Some((ch, (at, _, idx))) = pending
        .iter()
        .enumerate()
        .filter_map(|(ch, p)| p.map(|p| (ch, p)))
        .min_by_key(|&(_, (at, seq, _))| (at, seq))
    {
        let after = next.get(idx).and_then(|&n| Some((n, bytes(feed, n)?)));
        let issued = after.map(|(n, bytes)| {
            seq += 1;
            (dram.admit(ch, at, bytes), seq, n)
        });
        if let Some(p) = pending.get_mut(ch) {
            *p = issued;
        }
        feed.complete(at, idx);
    }
    2 * feed.q.bursts.len() as u64 + channels_used
}

/// The route an episode took, counted per thread, so a test can observe
/// which one a call into the crate reached without a knob or accessor.
#[cfg(test)]
pub(crate) mod route {
    use std::cell::Cell;

    /// One of [`super::run_batched_episodes`]' two routes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Route {
        Pass,
        Engine,
    }

    thread_local! {
        static TAKEN: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn count(route: Route) {
        TAKEN.with(|t| {
            let (pass, engine) = t.get();
            t.set(match route {
                Route::Pass => (pass + 1, engine),
                Route::Engine => (pass, engine + 1),
            });
        });
    }

    /// `f`'s result, and the episodes it ran on this thread per route:
    /// `(pass, engine)`.
    pub(crate) fn taken<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
        let (pass, engine) = TAKEN.with(Cell::get);
        let r = f();
        let (pass2, engine2) = TAKEN.with(Cell::get);
        (r, (pass2 - pass, engine2 - engine))
    }
}

/// Timing of a client-to-Farview table write through the write half of
/// the datapath (Figure 3's blue path: "The write path allows RDMA
/// updates to the memory", §4.5): the client streams 1 kB data packets
/// over the wire; the network stack forwards them to the MMU which
/// issues striped write bursts; the node acknowledges once the last
/// burst lands in DRAM.
///
/// The duration is a pure function of `(bytes, channels, fault plan)`
/// and nothing on this path feeds back into timing (a burst retiring
/// and the acknowledgement only count down), so it is computed by one
/// pass over the packets in arrival order, not by an event simulation;
/// the event-driven formulation is this module's test reference and the
/// two agree to the nanosecond. No event budget applies (the reference
/// runs under a 5 M-event guard, reachable past ≈3.9 GiB): a write of
/// any size computes, and [`FvError::IncompleteEpisode`] is not among
/// its errors.
///
/// The client's data packets ride the same degraded link model as read
/// episodes, so a partitioned or retry-exhausted link surfaces
/// [`FvError::Net`] — never a panic.
///
/// # Errors
/// [`FvError::Net`] when the link faults a data packet.
pub fn try_write_time(bytes: u64, config: &FarviewConfig) -> Result<SimDuration, FvError> {
    // The client's NIC serializes the data packets onto the wire; each
    // arrives at the node after the FPGA net stack's per-packet handling.
    let mut wire = LinkTiming::with_faults(NicKind::FarviewFpga, config.fault.clone())?;
    let posted = SimTime::ZERO + CLIENT_POST;
    let n_packets = bytes.div_ceil(PACKET_BYTES).max(1);
    let mut arrivals = Vec::with_capacity(n_packets as usize);
    let mut unsent = bytes;
    for _ in 0..n_packets {
        let sz = unsent.min(PACKET_BYTES);
        unsent -= sz;
        let arrival = wire
            .try_transmit(0, posted, sz + HEADER_BYTES)
            .map_err(FvError::Net)?
            + FV_REQ_PROC;
        arrivals.push((arrival, sz, unsent == 0));
    }
    // The node handles packets by (arrival, send order): a delay spike
    // can land one behind its successors. The sort is stable, and a
    // no-op on the already ordered arrivals of every other plan.
    arrivals.sort_by_key(|&(arrival, ..)| arrival);

    let mut dram = fv_mem::DramTiming::new(config.channels);
    let (mut channel, mut pending, mut packets_done) = (0, 0u64, false);
    // Latest burst completion; the lone arrival for a zero-byte write.
    let mut landed = SimTime::ZERO;
    for (arrival, sz, last) in arrivals {
        pending += sz;
        packets_done |= last;
        landed = landed.max(arrival);
        // Issue a burst once enough payload accumulated (or at end of
        // stream), round-robin over the channels.
        while pending >= calib::MEM_BURST_BYTES || (packets_done && pending > 0) {
            let burst = pending.min(calib::MEM_BURST_BYTES);
            pending -= burst;
            landed = landed.max(dram.admit(channel, arrival + DRAM_ACCESS_LATENCY, burst));
            channel = (channel + 1) % dram.channel_count();
        }
    }
    // Bursts retire out of order across channels; the ack goes out only
    // when the whole write has landed.
    Ok((landed + WIRE_ONE_WAY + CLIENT_COMPLETE).since(SimTime::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::Schema;
    use fv_pipeline::PipelineSpec;

    /// Run `queries` concurrently against one node and return per-query
    /// results (ordered as given). Each query is its own depth-1 doorbell
    /// batch — the multi-client shape of Figure 12.
    ///
    /// # Errors
    /// [`FvError::IncompleteEpisode`] when a query drains without
    /// completing, [`FvError::Net`] on a datapath routing failure.
    fn run_episode(
        queries: Vec<PreparedQuery>,
        config: &FarviewConfig,
    ) -> Result<Vec<EpisodeResult>, FvError> {
        let batches = queries
            .into_iter()
            .map(|q| BatchRun::new(vec![q]))
            .collect();
        Ok(run_batched_episodes(batches, config)?
            .into_iter()
            .flatten()
            .collect())
    }

    fn prepared(qp: u32, slot: usize, rows: u64, spec: PipelineSpec) -> PreparedQuery {
        let schema = Schema::uniform_u64(8);
        let mut data = Vec::with_capacity((rows * 64) as usize);
        for i in 0..rows {
            for c in 0..8u64 {
                data.extend_from_slice(&(i * 8 + c).to_le_bytes());
            }
        }
        let pipeline = CompiledPipeline::compile(spec, &schema).unwrap();
        // Synthesize a burst plan: alternate channels, 4 KB bursts.
        let mut bursts = Vec::new();
        let mut off = 0u64;
        let total = data.len() as u64;
        let mut ch = 0usize;
        while off < total {
            let bytes = (total - off).min(calib::MEM_BURST_BYTES);
            bursts.push(BurstReq {
                channel: ch,
                paddr: off,
                bytes,
                tlb_hit: off != 0,
            });
            ch = (ch + 1) % 2;
            off += bytes;
        }
        PreparedQuery {
            qp,
            slot,
            pipeline,
            bursts,
            data,
            sa_tuples: None,
            vector_lanes: 1,
        }
    }

    /// The first byte a run streams.
    fn first_byte(run: &QueryRun) -> *const u8 {
        run.data
            .slices(0..1)
            .next()
            .map_or(std::ptr::null(), <[u8]>::as_ptr)
    }

    /// A batch staged over one view streams those bytes to every query
    /// that names it — nothing is copied per query — and a query with no
    /// view streams its own `data`, moved, not copied. Either way the
    /// results are those of queries carrying their own bytes.
    #[test]
    fn queries_of_a_batch_share_their_view() {
        let cfg = FarviewConfig::tiny();
        let spec = || PipelineSpec::passthrough().distinct(vec![1]);
        let own: Vec<PreparedQuery> = (0..3).map(|i| prepared(i, 0, 64, spec())).collect();
        let view = PageView::from(own[0].data.clone());
        let mut over: Vec<PreparedQuery> = (0..3).map(|i| prepared(i, 0, 64, spec())).collect();
        over[0].data.clear();
        over[2].data.clear();
        let own_bytes = over[1].data.as_ptr();
        let views = vec![Some(view.clone()), None, Some(view.clone())];

        let runs: Vec<QueryRun> = BatchRun::over_views(over, views).into_runs(4).collect();
        let shared = view.slices(0..1).next().map(<[u8]>::as_ptr);
        assert_eq!(Some(first_byte(&runs[0])), shared);
        assert_eq!(Some(first_byte(&runs[2])), shared);
        assert_eq!(first_byte(&runs[1]), own_bytes, "moved in, not copied");
        drop(runs);

        let over: Vec<PreparedQuery> = (0..3)
            .map(|i| PreparedQuery {
                data: Vec::new(),
                ..prepared(i, 0, 64, spec())
            })
            .collect();
        let views = vec![Some(view); 3];
        let shared = run_batched_episodes(vec![BatchRun::over_views(over, views)], &cfg).unwrap();
        let solo = run_batched_episodes(vec![BatchRun::new(own)], &cfg).unwrap();
        for (a, b) in shared.iter().flatten().zip(solo.iter().flatten()) {
            assert_eq!(a.payload, b.payload);
            assert_eq!(a.response_time, b.response_time);
            assert_eq!(a.pipeline.stats(), b.pipeline.stats());
        }
    }

    /// A burst straddling the end of its page's written bytes feeds the
    /// pipeline two slices — the second from the zero page — under one
    /// admit: the result, counters and timing are those of the same
    /// bytes carried whole, though the cut falls mid-tuple.
    #[test]
    fn a_burst_straddling_the_written_end_streams_as_two_slices() {
        let cfg = FarviewConfig::tiny();
        let spec = || PipelineSpec::passthrough().project(vec![0, 5]);
        let mut bytes = prepared(1, 0, 64, spec()).data; // one 4 KiB burst
        bytes[1000..].fill(0);
        let mut mem = fv_mem::PhysicalMemory::new(1, calib::PAGE_BYTES);
        mem.write(0, &bytes[..1000]);
        let view = mem.view(0, bytes.len());
        assert_eq!(view.slices(0..bytes.len()).count(), 2);
        let over = PreparedQuery {
            data: Vec::new(),
            ..prepared(1, 0, 64, spec())
        };
        let viewed = run_batched_episodes(
            vec![BatchRun::over_views(vec![over], vec![Some(view)])],
            &cfg,
        )
        .unwrap()
        .remove(0)
        .remove(0);
        let carried = PreparedQuery {
            data: bytes,
            ..prepared(1, 0, 64, spec())
        };
        let carried = run_episode(vec![carried], &cfg).unwrap().remove(0);
        assert_eq!(viewed.payload, carried.payload);
        assert_eq!(viewed.pipeline.stats(), carried.pipeline.stats());
        assert_eq!(viewed.response_time, carried.response_time);
        assert_eq!(viewed.events, carried.events);
    }

    #[test]
    fn passthrough_read_returns_table() {
        let cfg = FarviewConfig::tiny();
        let q = prepared(1, 0, 256, PipelineSpec::passthrough());
        let expect = q.data.clone();
        let mut results = run_episode(vec![q], &cfg).expect("episode completes");
        let r = results.remove(0);
        assert_eq!(r.payload, expect);
        assert!(r.response_time > SimDuration::from_micros(2));
        assert!(r.response_time < SimDuration::from_millis(1));
        // 16 KiB at 1 KiB per packet, plus the short FIN.
        assert_eq!(r.packets, 17);
    }

    #[test]
    fn empty_table_still_completes() {
        let cfg = FarviewConfig::tiny();
        let q = prepared(1, 0, 0, PipelineSpec::passthrough());
        let r = run_episode(vec![q], &cfg)
            .expect("episode completes")
            .remove(0);
        assert!(r.payload.is_empty());
        assert_eq!(r.packets, 1, "lone FIN");
        assert!(r.response_time > SimDuration::ZERO);
    }

    #[test]
    fn selection_reduces_payload_and_time() {
        let cfg = FarviewConfig::tiny();
        let rows = 4096u64;
        let full = prepared(1, 0, rows, PipelineSpec::passthrough());
        let t_full = run_episode(vec![full], &cfg)
            .expect("episode completes")
            .remove(0)
            .response_time;

        // c0 = 8*i < 8*rows/4 -> 25% selectivity.
        let spec =
            PipelineSpec::passthrough().filter(fv_pipeline::PredicateExpr::lt(0, 8 * rows / 4));
        let sel = prepared(1, 0, rows, spec);
        let r = run_episode(vec![sel], &cfg)
            .expect("episode completes")
            .remove(0);
        assert_eq!(r.payload.len() as u64, rows / 4 * 64);
        assert!(
            r.response_time < t_full,
            "25% selectivity must beat full read: {} vs {t_full}",
            r.response_time
        );
        assert_eq!(r.pipeline.stats().tuples_in, rows);
        assert_eq!(r.pipeline.stats().tuples_out, rows / 4);
    }

    #[test]
    fn two_clients_fair_share() {
        let cfg = FarviewConfig::tiny();
        let rows = 2048u64;
        let solo = run_episode(
            vec![prepared(1, 0, rows, PipelineSpec::passthrough())],
            &cfg,
        )
        .expect("episode completes")
        .remove(0)
        .response_time;
        let duo = run_episode(
            vec![
                prepared(1, 0, rows, PipelineSpec::passthrough()),
                prepared(2, 1, rows, PipelineSpec::passthrough()),
            ],
            &cfg,
        )
        .expect("episode completes");
        let t1 = duo[0].response_time;
        let t2 = duo[1].response_time;
        // Both finish, neither is starved, and sharing costs less than 3x
        // solo (perfect sharing would be ~2x on the shared wire).
        let ratio = t1.as_nanos() as f64 / t2.as_nanos() as f64;
        assert!((0.8..1.25).contains(&ratio), "unfair: {t1} vs {t2}");
        assert!(t1.as_nanos() > solo.as_nanos(), "sharing cannot be free");
        assert!(t1.as_nanos() < 3 * solo.as_nanos());
        // Payloads intact under interleaving.
        assert_eq!(duo[0].payload.len(), (rows * 64) as usize);
        assert_eq!(duo[1].payload.len(), (rows * 64) as usize);
    }

    #[test]
    fn vectorized_is_not_slower() {
        let cfg = FarviewConfig::tiny();
        let rows = 8192u64;
        let spec =
            PipelineSpec::passthrough().filter(fv_pipeline::PredicateExpr::lt(0, 8 * rows / 4));
        let scalar = prepared(1, 0, rows, spec.clone());
        let mut vector = prepared(1, 0, rows, spec.vectorized());
        vector.vector_lanes = 2;
        let t_scalar = run_episode(vec![scalar], &cfg)
            .expect("episode completes")
            .remove(0)
            .response_time;
        let t_vector = run_episode(vec![vector], &cfg)
            .expect("episode completes")
            .remove(0)
            .response_time;
        assert!(
            t_vector < t_scalar,
            "vector lanes must help at 25% selectivity: {t_vector} vs {t_scalar}"
        );
    }

    #[test]
    fn batched_results_match_sequential_byte_for_byte() {
        let cfg = FarviewConfig::tiny();
        let depth = 8u32;
        // Sequential reference: one episode per query.
        let mut sequential = Vec::new();
        for i in 0..depth {
            let q = prepared(
                i + 1,
                0,
                128 + u64::from(i) * 16,
                PipelineSpec::passthrough(),
            );
            sequential.push(
                run_episode(vec![q], &cfg)
                    .expect("episode completes")
                    .remove(0),
            );
        }
        // One doorbell batch of the same queries on one QPair/slot.
        let batch = BatchRun::new(
            (0..depth)
                .map(|i| {
                    prepared(
                        i + 1,
                        0,
                        128 + u64::from(i) * 16,
                        PipelineSpec::passthrough(),
                    )
                })
                .collect(),
        );
        let batched = run_batched_episodes(vec![batch], &cfg)
            .expect("batch completes")
            .remove(0);
        assert_eq!(batched.len(), depth as usize);
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.payload, s.payload, "batching must not change results");
            assert_eq!(b.packets, s.packets);
        }
    }

    #[test]
    fn queue_depth_amortizes_fixed_costs() {
        // The throughput story of the batch engine: a depth-8 batch of
        // small queries must finish in well under 8× the solo response
        // time, because doorbell, request parse, DRAM first-access and
        // fill latencies overlap across the in-flight queries.
        let cfg = FarviewConfig::tiny();
        let rows = 64u64; // 4 KiB: fixed costs dominate
        let solo = run_episode(
            vec![prepared(1, 0, rows, PipelineSpec::passthrough())],
            &cfg,
        )
        .expect("episode completes")
        .remove(0)
        .response_time;

        let depth = 8u64;
        let batch = BatchRun::new(
            (0..depth)
                .map(|i| prepared(i as u32 + 1, 0, rows, PipelineSpec::passthrough()))
                .collect(),
        );
        let results = run_batched_episodes(vec![batch], &cfg)
            .expect("batch completes")
            .remove(0);
        let makespan = results
            .iter()
            .map(|r| r.response_time)
            .fold(SimDuration::ZERO, SimDuration::max);
        // Throughput at depth 8 must be ≥ 1.5× depth 1:
        //   8 / makespan ≥ 1.5 / solo  ⇔  makespan ≤ 8 · solo / 1.5.
        assert!(
            makespan.as_nanos() as f64 <= depth as f64 * solo.as_nanos() as f64 / 1.5,
            "batching must amortize fixed costs: makespan {makespan} vs solo {solo}"
        );
        // And no individual query beats the laws of physics: each is at
        // least as slow as the solo run (shared wire + pipeline).
        assert!(results.iter().all(|r| r.response_time >= solo));
    }

    #[test]
    fn two_batches_share_the_wire_fairly() {
        let cfg = FarviewConfig::tiny();
        let rows = 1024u64;
        let mk_batch = |slot: usize, base: u32| {
            BatchRun::new(
                (0..4)
                    .map(|i| prepared(base + i, slot, rows, PipelineSpec::passthrough()))
                    .collect(),
            )
        };
        let out = run_batched_episodes(vec![mk_batch(0, 1), mk_batch(1, 100)], &cfg)
            .expect("batches complete");
        let makespan = |rs: &[EpisodeResult]| {
            rs.iter()
                .map(|r| r.response_time)
                .fold(SimDuration::ZERO, SimDuration::max)
        };
        let a = makespan(&out[0]);
        let b = makespan(&out[1]);
        let ratio = a.as_nanos() as f64 / b.as_nanos() as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "equal batches must fair-share: {a} vs {b}"
        );
    }

    #[test]
    fn incomplete_episode_is_a_typed_error() {
        // A malformed prepared query: data present but no burst plan, so
        // no chunk ever reaches the pipeline and no FIN is emitted. The
        // episode must surface which stream stalled instead of panicking.
        let cfg = FarviewConfig::tiny();
        let mut q = prepared(7, 0, 32, PipelineSpec::passthrough());
        q.bursts.clear();
        let result = run_episode(vec![q], &cfg);
        assert!(
            matches!(
                result,
                Err(crate::error::FvError::IncompleteEpisode { qp: 7 })
            ),
            "expected IncompleteEpisode for qp 7, got {result:?}"
        );
    }

    /// Every response packet rides the event heap as a `Msg::Deliver`,
    /// and a packet is moved about ten times on its way to the client
    /// (the staged list, the ready queue, the egress DRR, the outbox, the
    /// heap), so the message's size is paid per packet, per move.
    #[test]
    fn a_message_fits_in_40_bytes() {
        assert!(
            std::mem::size_of::<Msg>() <= 40,
            "Msg is {} bytes",
            std::mem::size_of::<Msg>()
        );
    }

    /// The client's result buffer is registered at the size the query's
    /// output can reach. Over generated specs — filter, projection,
    /// distinct, group-by (up to 96-byte output rows from 64-byte input),
    /// a join with a unique and one with a repeated build key (72-byte
    /// output rows), compression, encryption, smart addressing — the
    /// episode's payload equals the pipeline run alone, and the
    /// capacity covers it; only the repeated-key join outgrows it, and
    /// its grown buffer holds the same bytes.
    #[test]
    fn the_result_buffer_is_registered_at_the_output_bound() {
        use fv_data::{Column, ColumnType, Row, Table, TableBuilder, Value};
        use fv_pipeline::{AggFunc, AggSpec, CryptoSpec, JoinSmallSpec, PredicateExpr};
        let cfg = FarviewConfig::tiny();
        let schema = Schema::uniform_u64(8);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        /// A `(k, v)` build side with a row per key `keys` names.
        fn build(keys: impl Iterator<Item = u64>) -> Table {
            let cols = ["k", "v"].map(|name| Column {
                name: name.into(),
                ty: ColumnType::U64,
            });
            let mut b = TableBuilder::with_capacity(Schema::new(cols.to_vec()), 0);
            for k in keys {
                b.push(&Row(vec![Value::U64(k), Value::U64(k * 3)]));
            }
            b.build()
        }
        let (mut repeated_joins, mut grown) = (0, 0);
        for case in 0..72u64 {
            let rows = 1 + next(400);
            // Column 1 repeats with period `groups`: duplicates for the
            // distinct and group-by operators, fan-in for the joins.
            let groups = 1 + next(9);
            let subset = |mask: u64| -> Vec<usize> {
                let cols: Vec<usize> = (0..8).filter(|c| mask >> c & 1 == 1).collect();
                if cols.is_empty() {
                    vec![1]
                } else {
                    cols
                }
            };
            let crypto = CryptoSpec {
                key: [next(256) as u8; 16],
                iv: [next(256) as u8; 16],
            };
            let kind = case % 9;
            let spec = match kind {
                0 => PipelineSpec::passthrough().filter(PredicateExpr::lt(0, next(8 * rows + 8))),
                1 => PipelineSpec::passthrough().project(subset(next(256))),
                2 => PipelineSpec::passthrough().distinct(subset(next(256))),
                3 => {
                    let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];
                    let aggs = funcs[..next(5) as usize]
                        .iter()
                        .map(|&func| AggSpec {
                            col: next(8) as usize,
                            func,
                        })
                        .collect();
                    PipelineSpec::passthrough().group_by(subset(next(256)), aggs)
                }
                4 => {
                    let unique = build((0..groups).filter(|_| next(3) > 0));
                    PipelineSpec::passthrough().join_small(JoinSmallSpec::new(1, &unique, 0))
                }
                5 => {
                    let fan_out = 2 + next(2) as usize;
                    let repeated = build((0..groups).flat_map(|k| std::iter::repeat_n(k, fan_out)));
                    PipelineSpec::passthrough().join_small(JoinSmallSpec::new(1, &repeated, 0))
                }
                6 => PipelineSpec::passthrough()
                    .filter(PredicateExpr::lt(0, next(8 * rows + 8)))
                    .compress(),
                7 => PipelineSpec::passthrough()
                    .project(subset(next(256)))
                    .compress()
                    .encrypt(crypto),
                _ => PipelineSpec::passthrough()
                    .project(subset(next(256)))
                    .with_smart_addressing(),
            };
            // Columns 2–7 are noise, so a compressed projection of them
            // is stored raw: the framing overhead is part of the bound.
            let mut table = prepared(1, 0, rows, PipelineSpec::passthrough()).data;
            for (i, row) in table.chunks_exact_mut(64).enumerate() {
                row[8..16].copy_from_slice(&(i as u64 % groups).to_le_bytes());
                for col in row[16..].chunks_exact_mut(8) {
                    col.copy_from_slice(&next(u64::MAX).to_le_bytes());
                }
            }
            let query = || {
                let pipeline = CompiledPipeline::compile(spec.clone(), &schema).unwrap();
                let mut q = PreparedQuery {
                    data: table.clone(),
                    ..prepared(1, 0, rows, PipelineSpec::passthrough())
                };
                if let Some(sa) = pipeline.smart_addressing() {
                    let mut gathered = Vec::new();
                    for row in table.chunks_exact(64) {
                        sa.gather(row, 0, &mut gathered);
                    }
                    q.bursts.clear();
                    q.data = gathered;
                    q.sa_tuples = Some(rows);
                }
                PreparedQuery { pipeline, ..q }
            };
            let q = query();
            let mut alone = CompiledPipeline::compile(spec.clone(), &schema).unwrap();
            alone.push_bytes(&q.data);
            alone.finish();
            let want = alone.drain_output();
            let capacity = QueryRun::new(q, None, cfg.credit_budget).result_capacity();

            let got = run_episode(vec![query()], &cfg).unwrap().remove(0).payload;
            assert_eq!(got, want, "case {case}: {spec:?}");
            if kind == 5 {
                repeated_joins += 1;
                grown += usize::from(got.len() > capacity);
            } else {
                assert!(
                    got.len() <= capacity,
                    "case {case}: {} bytes outgrew the registered {capacity}: {spec:?}",
                    got.len()
                );
            }
        }
        assert_eq!(grown, repeated_joins, "every repeated-key join outgrew it");
    }

    #[test]
    fn write_time_scales_with_bytes() {
        let cfg = FarviewConfig::tiny();
        let small = try_write_time(1024, &cfg).unwrap();
        let big = try_write_time(1024 * 1024, &cfg).unwrap();
        assert!(big > small * 10);
    }

    #[test]
    fn partitioned_link_is_a_typed_error_not_a_hang() {
        let mut cfg = FarviewConfig::tiny();
        cfg.fault = fv_net::FaultPlan::default().partitioned();
        let q = prepared(3, 0, 32, PipelineSpec::passthrough());
        let result = run_episode(vec![q], &cfg);
        assert!(
            matches!(
                result,
                Err(crate::error::FvError::Net(NetError::LinkPartitioned {
                    qp: 3
                }))
            ),
            "expected LinkPartitioned for qp 3, got {result:?}"
        );
    }

    #[test]
    fn retry_exhaustion_is_a_typed_error() {
        let mut cfg = FarviewConfig::tiny();
        cfg.fault = fv_net::FaultPlan::default()
            .with_seed(5)
            .with_loss_retries(0.95, 1);
        let q = prepared(1, 0, 64, PipelineSpec::passthrough());
        let result = run_episode(vec![q], &cfg);
        assert!(
            matches!(
                result,
                Err(crate::error::FvError::Net(
                    NetError::RetriesExhausted { .. }
                ))
            ),
            "95% loss with 1 retry must exhaust the budget, got {result:?}"
        );
    }

    #[test]
    fn survivable_loss_is_byte_identical_and_slower() {
        let clean_cfg = FarviewConfig::tiny();
        let clean = run_episode(
            vec![prepared(1, 0, 64, PipelineSpec::passthrough())],
            &clean_cfg,
        )
        .expect("clean episode");
        let mut lossy_cfg = FarviewConfig::tiny();
        lossy_cfg.fault = fv_net::FaultPlan::default()
            .with_seed(17)
            .with_loss_retries(0.2, 32);
        let lossy = run_episode(
            vec![prepared(1, 0, 64, PipelineSpec::passthrough())],
            &lossy_cfg,
        )
        .expect("20% loss with a deep retry budget survives");
        assert_eq!(clean[0].payload, lossy[0].payload, "loss never costs bytes");
        assert!(
            lossy[0].response_time > clean[0].response_time,
            "retries must cost latency"
        );
    }

    #[test]
    fn truncated_doorbell_is_incomplete_never_partial() {
        // Two queries on one batch; the NIC fetches only the first WQE.
        let mut cfg = FarviewConfig::tiny();
        cfg.fault = fv_net::FaultPlan::default().with_doorbell_truncation(1);
        let batch = BatchRun::new(vec![
            prepared(1, 0, 16, PipelineSpec::passthrough()),
            prepared(2, 0, 16, PipelineSpec::passthrough()),
        ]);
        let result = run_batched_episodes(vec![batch], &cfg);
        assert!(
            matches!(
                result,
                Err(crate::error::FvError::IncompleteEpisode { qp: 2 })
            ),
            "the unfetched WQE's stream must surface, got {result:?}"
        );
    }

    #[test]
    fn duplicate_delivery_poisons_the_stream_typed() {
        // Regression for the converted `expect("protocol violation in
        // episode")`: a duplicated sequence number must surface as a typed
        // error from the client actor, not a panic.
        let mut sim: Simulation<Msg> = Simulation::new();
        // A sink for the credit return, standing in for the node.
        struct Sink;
        impl Actor<Msg> for Sink {
            fn on_message(&mut self, _: Msg, _: &mut Context<'_, Msg>) {}
        }
        let sink = sim.add_actor(Box::new(Sink));
        let node = sim.add_actor(Box::new(ClientActor {
            stream: 0,
            node: sink,
            rx: Reassembly::new(),
            completed_at: None,
            packets: 0,
            failed: None,
        }));
        let pkt = || Packet {
            qp: 9,
            seq: 0,
            kind: PacketKind::Data { last: false },
            payload: bytes::Bytes::from_static(b"xx"),
        };
        sim.inject(node, SimDuration::ZERO, Msg::Deliver(pkt()));
        sim.inject(node, SimDuration::from_nanos(10), Msg::Deliver(pkt()));
        sim.run_to_quiescence(100);
        let client = sim.actor::<ClientActor>(node).expect("client");
        assert_eq!(
            client.failed,
            Some(NetError::DuplicateSeq { qp: 9, seq: 0 }),
            "duplicate must be recorded, not panicked on"
        );
        assert!(
            client.completed_at.is_none(),
            "a poisoned stream never completes"
        );
    }

    #[test]
    fn late_last_below_a_buffered_packet_poisons_the_stream_typed() {
        // The episode-level twin of the `Reassembly` regression: packet 5
        // is buffered when packet 0 arrives marked `last`. The client
        // must record the typed error and never complete — not report a
        // one-packet result with packet 5 stranded.
        let mut sim: Simulation<Msg> = Simulation::new();
        struct Sink;
        impl Actor<Msg> for Sink {
            fn on_message(&mut self, _: Msg, _: &mut Context<'_, Msg>) {}
        }
        let sink = sim.add_actor(Box::new(Sink));
        let node = sim.add_actor(Box::new(ClientActor {
            stream: 0,
            node: sink,
            rx: Reassembly::new(),
            completed_at: None,
            packets: 0,
            failed: None,
        }));
        let pkt = |seq, last| Packet::data(9, seq, Bytes::from_static(b"xx"), last);
        sim.inject(node, SimDuration::ZERO, Msg::Deliver(pkt(5, false)));
        sim.inject(
            node,
            SimDuration::from_nanos(10),
            Msg::Deliver(pkt(0, true)),
        );
        sim.run_to_quiescence(100);
        let client = sim.actor::<ClientActor>(node).expect("client");
        assert_eq!(
            client.failed,
            Some(NetError::BeyondLast { qp: 9, seq: 5 }),
            "the stranded packet must be named, not dropped"
        );
        assert!(
            client.completed_at.is_none(),
            "a poisoned stream never completes"
        );
    }

    #[test]
    fn packets_of_one_drain_share_one_allocation() {
        let mut run = QueryRun::new(prepared(4, 0, 0, PipelineSpec::passthrough()), None, 4);
        let drain = vec![7u8; 4 * 1024 + 100];
        let storage = drain.as_ptr();
        let pkts = NodeActor::packetize(&mut run, drain, false);
        assert_eq!(pkts.len(), 4);
        assert_eq!(
            pkts[0].payload.as_ptr(),
            storage,
            "the drain is frozen where it is, not copied"
        );
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!((p.qp, p.seq, p.payload.len()), (4, i as u32, 1024));
            assert!(p.payload.shares_storage_with(&pkts[0].payload));
        }
        // The 100 bytes short of a packet are a view of the same drain.
        assert_eq!(run.pending_tail.len(), 100);
        assert!(run.pending_tail.shares_storage_with(&pkts[0].payload));

        // The next drain is frozen behind that tail: again one buffer
        // for all of its packets, and a different one from the first.
        let more = NodeActor::packetize(&mut run, vec![8u8; 924 + 1024], true);
        assert_eq!(more.len(), 3, "two full packets and the empty FIN");
        assert_eq!(more[0].payload[..100], [7u8; 100], "the carried tail leads");
        assert_eq!(more[0].payload[100], 8);
        assert!(more[2].payload.is_empty());
        assert_eq!(more[2].kind, PacketKind::Data { last: true });
        assert_eq!(more[2].seq, 6);
        for p in &more {
            assert!(p.payload.shares_storage_with(&more[0].payload));
            assert!(!p.payload.shares_storage_with(&pkts[0].payload));
        }
        assert!(run.fin_emitted && run.pending_tail.is_empty());
        // A drain with nothing in it cuts nothing.
        let mut idle = QueryRun::new(prepared(5, 0, 0, PipelineSpec::passthrough()), None, 4);
        assert!(NodeActor::packetize(&mut idle, Vec::new(), false).is_empty());
    }

    /// Stream `rows` 64-byte rows through `project([0, 3, 5])` (24-byte
    /// output rows) in three drains, packetize each drain, reassemble:
    /// the bytes must equal streaming the pipeline alone, in
    /// `len / 1 KiB + 1` packets — what the copy-per-packet packetizer
    /// produced.
    fn straddle_three_drains(rows: u64) -> usize {
        let spec = PipelineSpec::passthrough().project(vec![0, 3, 5]);
        let q = prepared(2, 0, rows, spec.clone());
        let data = q.data.clone();
        let mut alone = CompiledPipeline::compile(spec, &Schema::uniform_u64(8)).unwrap();
        alone.push_bytes(&data);
        alone.finish();
        let want = alone.drain_output();
        assert_eq!(want.len() as u64, rows * 24);

        let mut run = QueryRun::new(q, None, 4);
        let per_drain = (rows as usize).div_ceil(3) * 64;
        let mut pkts = Vec::new();
        for (i, chunk) in data.chunks(per_drain).enumerate() {
            run.q.pipeline.push_bytes(chunk);
            let finished = i == 2;
            if finished {
                run.q.pipeline.finish();
            }
            let output = run.q.pipeline.drain_output();
            pkts.extend(NodeActor::packetize(&mut run, output, finished));
        }
        assert!(run.fin_emitted, "three drains cover the table");
        assert_eq!(pkts.len(), want.len() / 1024 + 1);
        let mut rx = Reassembly::new();
        let mut complete = false;
        for p in pkts.iter().cloned() {
            assert!(!complete, "packets after the last");
            let last = p.kind == PacketKind::Data { last: true };
            assert!(last || p.payload.len() == 1024, "only the last is short");
            complete = rx.accept(p.qp, p.seq, p.payload, last).unwrap();
        }
        assert!(complete);
        assert_eq!(rx.into_payload(), want);
        pkts.len()
    }

    #[test]
    fn result_straddling_three_drains_is_byte_identical() {
        // 3600 B: every drain (1200 B) leaves a tail the next one
        // completes; ceil(3600 / 1024) packets, the last one short.
        assert_eq!(straddle_three_drains(150), 4);
        // 3072 B = exactly 3 KiB: three full packets and the empty FIN.
        assert_eq!(straddle_three_drains(128), 4);
        // Through the whole episode too.
        let cfg = FarviewConfig::tiny();
        let spec = PipelineSpec::passthrough().project(vec![0, 3, 5]);
        let r = run_episode(vec![prepared(1, 0, 1000, spec)], &cfg)
            .expect("episode completes")
            .remove(0);
        assert_eq!(r.payload.len(), 24_000);
        assert_eq!(r.packets, 24_000 / 1024 + 1);
        for (i, row) in r.payload.chunks(24).enumerate() {
            let i = i as u64;
            let want: Vec<u8> = [i * 8, i * 8 + 3, i * 8 + 5]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            assert_eq!(row, want, "row {i}");
        }
    }

    #[test]
    fn depth_1024_batch_of_one_row_tables_completes() {
        // 1024 streams on one slot, wire ids posted in descending order:
        // every packet still finds its own stream and client.
        let cfg = FarviewConfig::tiny();
        let depth = 1024u32;
        let batch = BatchRun::new(
            (0..depth)
                .map(|i| {
                    let mut q = prepared(
                        (1 << 10) | (depth - 1 - i),
                        0,
                        1,
                        PipelineSpec::passthrough(),
                    );
                    q.data[0] = i as u8;
                    q.data[1] = (i >> 8) as u8;
                    q
                })
                .collect(),
        );
        let results = run_batched_episodes(vec![batch], &cfg)
            .expect("batch completes")
            .remove(0);
        assert_eq!(results.len(), depth as usize);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.qp, (1 << 10) | (depth - 1 - i as u32), "post order");
            assert_eq!(r.payload.len(), 64);
            assert_eq!(&r.payload[..2], &[i as u8, (i >> 8) as u8], "stream {i}");
            assert_eq!(r.packets, 1);
        }
    }

    #[test]
    #[should_panic(expected = "stream ids must be unique per episode")]
    fn duplicate_stream_ids_are_refused() {
        let cfg = FarviewConfig::tiny();
        let _ = run_episode(
            vec![
                prepared(7, 0, 4, PipelineSpec::passthrough()),
                prepared(7, 0, 4, PipelineSpec::passthrough()),
            ],
            &cfg,
        );
    }

    #[test]
    fn write_under_partition_is_a_typed_error() {
        let mut cfg = FarviewConfig::tiny();
        cfg.fault = fv_net::FaultPlan::default().partitioned();
        let result = try_write_time(4096, &cfg);
        assert!(
            matches!(
                result,
                Err(crate::error::FvError::Net(NetError::LinkPartitioned { .. }))
            ),
            "got {result:?}"
        );
    }

    /// The write path as an event simulation, [`try_write_time`]'s
    /// differential reference: a node actor accumulating packets into
    /// round-robin DRAM bursts and counting them back in, a client actor
    /// stamping the acknowledgement.
    fn write_time_event_driven(bytes: u64, config: &FarviewConfig) -> Result<SimDuration, FvError> {
        #[derive(Debug, Clone)]
        enum WMsg {
            /// One data packet arriving at the node.
            Packet { bytes: u64, last: bool },
            /// One DRAM write burst retired.
            BurstDone,
            /// Acknowledgement arriving back at the client.
            Ack,
        }

        struct WriteNode {
            dram: fv_mem::DramTiming,
            channel_rr: usize,
            pending_bytes: u64,
            bursts_out: usize,
            packets_done: bool,
            client: Option<ActorId>,
        }

        impl WriteNode {
            /// All packets received, all payload issued, all bursts retired.
            fn complete(&self) -> bool {
                self.packets_done && self.pending_bytes == 0 && self.bursts_out == 0
            }
        }

        impl Actor<WMsg> for WriteNode {
            fn on_message(&mut self, msg: WMsg, ctx: &mut Context<'_, WMsg>) {
                match msg {
                    WMsg::Packet { bytes, last } => {
                        self.pending_bytes += bytes;
                        if last {
                            self.packets_done = true;
                        }
                        // Issue a burst once enough payload accumulated (or at
                        // end of stream).
                        while self.pending_bytes >= calib::MEM_BURST_BYTES
                            || (self.packets_done && self.pending_bytes > 0)
                        {
                            let burst = self.pending_bytes.min(calib::MEM_BURST_BYTES);
                            self.pending_bytes -= burst;
                            let ch = self.channel_rr;
                            self.channel_rr = (self.channel_rr + 1) % self.dram.channel_count();
                            let done = self.dram.admit(ch, ctx.now() + DRAM_ACCESS_LATENCY, burst);
                            self.bursts_out += 1;
                            ctx.send_at(ctx.me(), done, WMsg::BurstDone);
                        }
                        // A zero-byte write still acknowledges. An unwired
                        // client drops the ack and surfaces as an incomplete
                        // episode — no panic mid-simulation.
                        if last && self.complete() {
                            if let Some(client) = self.client {
                                ctx.send(client, WIRE_ONE_WAY, WMsg::Ack);
                            }
                        }
                    }
                    WMsg::BurstDone => {
                        self.bursts_out -= 1;
                        // Bursts retire out of order across channels; the ack
                        // goes out only when the whole write has landed.
                        if self.complete() {
                            if let Some(client) = self.client {
                                ctx.send(client, WIRE_ONE_WAY, WMsg::Ack);
                            }
                        }
                    }
                    WMsg::Ack => unreachable!("node never receives Ack"),
                }
            }
        }

        #[derive(Default)]
        struct WriteClient {
            done_at: Option<SimTime>,
        }
        impl Actor<WMsg> for WriteClient {
            fn on_message(&mut self, msg: WMsg, ctx: &mut Context<'_, WMsg>) {
                if matches!(msg, WMsg::Ack) {
                    self.done_at = Some(ctx.now() + CLIENT_COMPLETE);
                }
            }
        }

        let mut sim: Simulation<WMsg> = Simulation::new();
        let node = sim.add_actor(Box::new(WriteNode {
            dram: fv_mem::DramTiming::new(config.channels),
            channel_rr: 0,
            pending_bytes: 0,
            bursts_out: 0,
            packets_done: false,
            client: None,
        }));
        let client = sim.add_actor(Box::new(WriteClient::default()));
        sim.actor_mut::<WriteNode>(node).expect("node").client = Some(client);

        // The client's NIC serializes the data packets onto the wire; each
        // arrives at the node after the FPGA net stack's per-packet handling.
        let mut wire = LinkTiming::with_faults(NicKind::FarviewFpga, config.fault.clone()).unwrap();
        let t0 = CLIENT_POST;
        let n_packets = bytes.div_ceil(PACKET_BYTES).max(1);
        for i in 0..n_packets {
            let sz = if i + 1 == n_packets && !bytes.is_multiple_of(PACKET_BYTES) && bytes > 0 {
                bytes % PACKET_BYTES
            } else if bytes == 0 {
                0
            } else {
                PACKET_BYTES
            };
            let arrival = wire
                .try_transmit(0, SimTime::from_nanos(t0.as_nanos()), sz + HEADER_BYTES)
                .map_err(FvError::Net)?
                + FV_REQ_PROC;
            sim.inject(
                node,
                arrival.since(SimTime::ZERO),
                WMsg::Packet {
                    bytes: sz,
                    last: i + 1 == n_packets,
                },
            );
        }
        sim.run_to_quiescence(5_000_000);
        sim.actor::<WriteClient>(client)
            .expect("client")
            .done_at
            .ok_or(FvError::IncompleteEpisode { qp: 0 })
            .map(|t| t.since(SimTime::ZERO))
    }

    /// One fault plan per class the write path can meet, seeded. A
    /// 40 µs spike is some four hundred packet slots, so a spiked packet
    /// lands well behind its successors — the reordered case.
    fn write_fault_plans(seed: u64) -> Vec<fv_net::FaultPlan> {
        use fv_net::FaultPlan;
        let spike = SimDuration::from_micros(40);
        vec![
            FaultPlan::none(),
            FaultPlan::none().with_seed(seed).with_loss(0.05),
            FaultPlan::none().with_seed(seed).with_loss_retries(0.2, 1),
            FaultPlan::none()
                .with_seed(seed)
                .with_delay_spikes(0.1, spike),
            FaultPlan::none().with_seed(seed).with_bandwidth_cap(0.25),
            FaultPlan::none()
                .with_seed(seed)
                .with_loss(0.02)
                .with_delay_spikes(0.05, spike)
                .with_bandwidth_cap(0.5),
            FaultPlan::none().partitioned(),
        ]
    }

    /// A 16 KiB table for the route tests: every entry point's read of
    /// it is a few packets.
    fn route_table() -> fv_data::Table {
        let mut b = fv_data::TableBuilder::with_capacity(Schema::uniform_u64(4), 512);
        for i in 0..512u64 {
            b.push_values((0..4).map(|c| fv_data::Value::U64(i * 4 + c)).collect());
        }
        b.build()
    }

    /// Every depth-1 read on a healthy link takes the single-stream
    /// pass, whichever entry point posts it: a connection's `far_view`,
    /// a tiered pool's query, each shard of a fleet query, and a
    /// one-request concurrent submission.
    #[test]
    fn every_depth_one_read_on_a_healthy_link_takes_the_pass() {
        use crate::{BlockStore, FarviewCluster, FarviewFleet, Partitioning, TieredPool};
        let table = route_table();
        let spec = PipelineSpec::passthrough();
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let qp = cluster.connect().unwrap();
        let (ft, _) = qp.load_table(&table).unwrap();
        let (out, routes) = route::taken(|| qp.far_view(&ft, &spec));
        assert_eq!(out.unwrap().payload, table.bytes());
        assert_eq!(routes, (1, 0), "QPair::far_view");

        let mut pool = TieredPool::new(&qp, 8 << 20, BlockStore::default());
        pool.insert("t", &table).unwrap();
        let (out, routes) = route::taken(|| pool.query("t", &spec));
        assert_eq!(out.unwrap().outcome.payload, table.bytes());
        assert_eq!(routes, (1, 0), "TieredPool::query");

        let (out, routes) = route::taken(|| cluster.run_concurrent(vec![(&qp, &ft, spec.clone())]));
        assert_eq!(out.unwrap()[0].payload, table.bytes());
        assert_eq!(
            routes,
            (1, 0),
            "a one-request FarviewCluster::run_concurrent"
        );

        let fleet = FarviewFleet::new(2, FarviewConfig::tiny());
        let fqp = fleet.connect().unwrap();
        let (fft, _) = fqp.load_table(&table, Partitioning::RowRange).unwrap();
        let (out, routes) = route::taken(|| fqp.far_view(&fft, &spec));
        assert_eq!(out.unwrap().merged.payload, table.bytes());
        assert_eq!(routes, (2, 0), "one pass per shard of FleetQPair::far_view");
    }

    /// Every other episode runs on the event engine: a depth-2 batch,
    /// two concurrent requests, and a depth-1 read under each class of
    /// non-benign fault plan.
    #[test]
    fn deeper_concurrent_and_faulted_episodes_take_the_engine() {
        use crate::FarviewCluster;
        use fv_net::FaultPlan;
        let table = route_table();
        let spec = PipelineSpec::passthrough();
        let cluster = FarviewCluster::new(FarviewConfig::tiny());
        let (qp, other) = (cluster.connect().unwrap(), cluster.connect().unwrap());
        let (ft, _) = qp.load_table(&table).unwrap();
        let (oft, _) = other.load_table(&table).unwrap();
        let (out, routes) = route::taken(|| qp.far_view_batch(&ft, &[spec.clone(), spec.clone()]));
        assert_eq!(out.unwrap().len(), 2);
        assert_eq!(routes, (0, 1), "a depth-2 far_view_batch");

        let (out, routes) = route::taken(|| {
            cluster.run_concurrent(vec![(&qp, &ft, spec.clone()), (&other, &oft, spec.clone())])
        });
        assert_eq!(out.unwrap().len(), 2);
        assert_eq!(routes, (0, 1), "two concurrent requests");

        let spike = SimDuration::from_micros(40);
        let plans = [
            ("loss", FaultPlan::none().with_seed(3).with_loss(0.05)),
            (
                "spike",
                FaultPlan::none().with_seed(3).with_delay_spikes(0.1, spike),
            ),
            ("cap", FaultPlan::none().with_bandwidth_cap(0.5)),
            ("partition", FaultPlan::none().partitioned()),
            (
                "truncated doorbell",
                FaultPlan::none().with_doorbell_truncation(1),
            ),
        ];
        for (class, plan) in plans {
            let partitioned = plan.partitioned;
            cluster.set_fault_plan(plan).unwrap();
            let (out, routes) = route::taken(|| qp.far_view(&ft, &spec));
            assert_eq!(out.is_err(), partitioned, "{class}");
            assert_eq!(routes, (0, 1), "a depth-1 read under {class}");
        }
    }

    /// A table of `rows` 64-byte rows over seven u64 columns and an
    /// 8-byte string: column 0 is the row index, column 1 repeats with
    /// period `groups`, columns 2–6 are noise and column 7 spells eight
    /// letters of `abcd`.
    fn stream_table(rows: u64, groups: u64, next: &mut impl FnMut() -> u64) -> Vec<u8> {
        let mut table = Vec::with_capacity(rows as usize * 64);
        for i in 0..rows {
            table.extend_from_slice(&i.to_le_bytes());
            table.extend_from_slice(&(i % groups).to_le_bytes());
            for _ in 2..7 {
                table.extend_from_slice(&next().to_le_bytes());
            }
            table.extend((0..8).map(|_| b"abcd"[(next() % 4) as usize]));
        }
        table
    }

    /// The burst plan `MemoryStack::plan_bursts` makes for `len` bytes
    /// mapped one to one at physical address `pa`: bursts cut at
    /// stripes, 2 MiB pages and the burst size, striped over `channels`
    /// from `pa`'s stripe on, the first burst of every page a TLB miss.
    fn plan_at(pa: u64, len: u64, channels: usize) -> Vec<BurstReq> {
        let mut bursts = Vec::new();
        let mut at = pa;
        while at < pa + len {
            let bytes = (pa + len - at)
                .min(calib::STRIPE_BYTES - at % calib::STRIPE_BYTES)
                .min(calib::PAGE_BYTES - at % calib::PAGE_BYTES)
                .min(calib::MEM_BURST_BYTES);
            bursts.push(BurstReq {
                channel: ((at / calib::STRIPE_BYTES) % channels as u64) as usize,
                paddr: at,
                bytes,
                tlb_hit: at != pa && !at.is_multiple_of(calib::PAGE_BYTES),
            });
            at += bytes;
        }
        bursts
    }

    /// Row counts that straddle the packet (16 rows), burst and stripe
    /// (64 rows) and 2 MiB page (32 768 rows) boundaries.
    const STREAM_ROWS: [u64; 14] = [
        0, 1, 15, 16, 17, 63, 64, 65, 127, 1000, 4097, 32_767, 32_768, 32_769,
    ];

    /// Spec kinds of the equivalence property, by index.
    const STREAM_SPECS: u64 = 15;

    /// The depth-1 pass and the event engine return equal results for
    /// every single-stream read on a healthy link: `response_time` to
    /// the nanosecond, the payload bytes, packets, wire bytes, the event
    /// count and the pipeline's counters — or the same error. The cases
    /// cross every spec kind the datapath has with row counts 0 to past
    /// 2 MiB, one to four channels, credit budgets of 1, 2 and 32, a
    /// table whose first burst is on any channel, slot 0 and 1, vector
    /// lanes 1–8, and bytes carried or viewed across page extents.
    #[test]
    fn the_single_stream_pass_equals_the_engine() {
        use fv_data::{Column, ColumnType, TableBuilder, Value};
        use fv_pipeline::{AggFunc, AggSpec, CryptoSpec, JoinSmallSpec, PredicateExpr};
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let column = |name: &str, ty| Column {
            name: name.into(),
            ty,
        };
        let mut cols: Vec<Column> = (0..7)
            .map(|c| column(&format!("c{c}"), ColumnType::U64))
            .collect();
        cols.push(column("s", ColumnType::Bytes(8)));
        let schema = Schema::new(cols);
        let mut cases = 0;
        for round in 0..4 {
            for kind in 0..STREAM_SPECS {
                let rows = STREAM_ROWS[((kind + 5 * round) % STREAM_ROWS.len() as u64) as usize];
                let groups = 1 + next() % 40;
                let crypto = CryptoSpec {
                    key: [next() as u8; 16],
                    iv: [next() as u8; 16],
                };
                let build = {
                    let kv = Schema::new(vec![
                        column("k", ColumnType::U64),
                        column("v", ColumnType::U64),
                    ]);
                    let mut b = TableBuilder::with_capacity(kv, 0);
                    for k in (0..groups).filter(|_| next() % 4 > 0) {
                        b.push_values(vec![Value::U64(k), Value::U64(k * 3)]);
                    }
                    b.build()
                };
                let sum = |col| AggSpec {
                    col,
                    func: AggFunc::Sum,
                };
                let spec = match kind {
                    0 => PipelineSpec::passthrough(),
                    1 => PipelineSpec::passthrough().filter(PredicateExpr::lt(0, 0u64)),
                    2 => PipelineSpec::passthrough().filter(PredicateExpr::lt(0, rows / 2)),
                    3 => PipelineSpec::passthrough().filter(PredicateExpr::lt(0, rows)),
                    4 => PipelineSpec::passthrough().project(vec![0, 3, 5]),
                    5 => PipelineSpec::passthrough()
                        .project(vec![1, 2])
                        .with_smart_addressing(),
                    6 => PipelineSpec::passthrough()
                        .filter(PredicateExpr::lt(0, rows * 3 / 4))
                        .project(vec![0, 7]),
                    7 => PipelineSpec::passthrough().distinct(vec![1]),
                    8 => PipelineSpec::passthrough().group_by(
                        vec![1],
                        vec![
                            sum(0),
                            AggSpec {
                                col: 2,
                                func: AggFunc::Max,
                            },
                        ],
                    ),
                    9 => PipelineSpec::passthrough().join_small(JoinSmallSpec::new(1, &build, 0)),
                    10 => PipelineSpec::passthrough().regex_match(7, "a[bc]+d|dd"),
                    11 => PipelineSpec::passthrough().decrypt(crypto),
                    12 => PipelineSpec::passthrough()
                        .decrypt(crypto)
                        .filter(PredicateExpr::lt(1, 20u64))
                        .regex_match(7, "[ab]c")
                        .group_by(vec![7], vec![sum(3)]),
                    13 => PipelineSpec::passthrough()
                        .project(vec![0, 1, 7])
                        .compress()
                        .encrypt(crypto),
                    _ => PipelineSpec::passthrough()
                        .filter(PredicateExpr::lt(0, rows))
                        .vectorized(),
                };
                let table = stream_table(rows, groups, &mut next);
                let mut cfg = FarviewConfig::tiny();
                cfg.channels = 1 + (next() % 4) as usize;
                cfg.credit_budget = [1, 2, 32][(next() % 3) as usize];
                let pa = (next() % 8) * calib::STRIPE_BYTES + (next() % 4) * 64 * (next() % 64);
                let slot = (next() % 2) as usize;
                let lanes = 1 + next() % 8;
                let viewed = next() % 3 == 0;
                // Each route gets its own compile of the same query.
                let query = || {
                    let pipeline = CompiledPipeline::compile(spec.clone(), &schema).unwrap();
                    let mut q = PreparedQuery {
                        qp: 9,
                        slot,
                        bursts: plan_at(pa, table.len() as u64, cfg.channels),
                        data: table.clone(),
                        sa_tuples: None,
                        vector_lanes: lanes,
                        pipeline,
                    };
                    if let Some(sa) = q.pipeline.smart_addressing() {
                        let mut gathered = Vec::new();
                        for row in table.chunks_exact(64) {
                            sa.gather(row, 0, &mut gathered);
                        }
                        q.bursts.clear();
                        q.data = gathered;
                        q.sa_tuples = Some(rows);
                        return (q, None);
                    }
                    if !viewed {
                        return (q, None);
                    }
                    let mut mem = fv_mem::PhysicalMemory::new(1, 8 * calib::PAGE_BYTES);
                    mem.write(pa, &std::mem::take(&mut q.data));
                    (q, Some(mem.view(pa, table.len())))
                };
                let (q, view) = query();
                let pass = run_single_stream(q, view, &cfg);
                let (q, view) = query();
                let engine = run_on_engine(vec![BatchRun::over_views(vec![q], vec![view])], &cfg)
                    .map(|mut batches| batches.remove(0).remove(0));
                let case = format!(
                    "kind {kind}, {rows} rows, {} ch, {} credits, pa {pa:#x}, slot {slot}, \
                     {lanes} lanes, viewed {viewed}: {spec:?}",
                    cfg.channels, cfg.credit_budget
                );
                let (pass, engine) = match (pass, engine) {
                    (Ok(pass), Ok(engine)) => (pass, engine),
                    (pass, engine) => panic!("{case}: {pass:?} vs {engine:?}"),
                };
                assert_eq!(
                    pass.response_time.as_nanos(),
                    engine.response_time.as_nanos(),
                    "{case}"
                );
                assert!(pass.payload == engine.payload, "{case}: payload");
                assert_eq!(pass.packets, engine.packets, "{case}");
                assert_eq!(pass.wire_bytes, engine.wire_bytes, "{case}");
                assert_eq!(pass.events, engine.events, "{case}");
                assert_eq!(pass.pipeline.stats(), engine.pipeline.stats(), "{case}");
                assert_eq!(pass.qp, engine.qp, "{case}");
                cases += 1;
            }
        }
        assert_eq!(cases, 4 * STREAM_SPECS);
    }

    #[test]
    fn write_time_loop_equals_the_event_driven_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut sizes = vec![0, 1, 1023, 1024, 1025, 4095, 4096, 4097, (1 << 20) + 1];
        sizes.extend((0..6).map(|_| next() % (1_200 << 10)));
        let mut errors = 0;
        for &bytes in &sizes {
            for channels in [1, 2, 4] {
                for plan in write_fault_plans(next()) {
                    let mut cfg = FarviewConfig::tiny();
                    cfg.channels = channels;
                    cfg.fault = plan;
                    let got = try_write_time(bytes, &cfg);
                    let want = write_time_event_driven(bytes, &cfg);
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => assert_eq!(
                            g.as_nanos(),
                            w.as_nanos(),
                            "{bytes} B x {channels} ch under {:?}",
                            cfg.fault
                        ),
                        (Err(FvError::Net(g)), Err(FvError::Net(w))) => {
                            assert_eq!(g, w, "{bytes} B under {:?}", cfg.fault);
                            errors += 1;
                        }
                        _ => panic!("{bytes} B under {:?}: {got:?} vs {want:?}", cfg.fault),
                    }
                }
            }
        }
        assert!(errors > 0, "the matrix must reach the typed-error arms");
    }
}
