//! Layer probes: time each layer's *public* functions on a workload's
//! own tables and specs, from outside the program.
//!
//! Nothing inside `crates/` is instrumented, so a layer's cost inside a
//! whole query is estimated by calling that layer directly on the same
//! inputs and, for the layers that only exist as glue around others
//! (`episode`, `cluster`, `fleet`), by subtracting the probed parts
//! from the probed whole. Each probe is repeated and the median taken.
//! What this cannot see: cache and allocator state differ between a
//! probe and the same code inside a query, so the parts need not sum to
//! the whole — the remainder is reported as `share.other_pct`, never
//! folded into a layer.

use farview::core::episode::{run_batched_episodes, BatchRun, PreparedQuery};
use farview::core::{FTable, FarviewConfig, QPair};
use farview::data::{Schema, Table};
use farview::mem::{BurstReq, DomainId, MemoryStack, VirtAddr};
use farview::net::{EgressArbiter, LinkTiming, NicKind, Packet, Reassembly};
use farview::pipeline::{CompiledPipeline, PipelineSpec};
use farview::sim::calib::{MEM_BURST_BYTES, PACKET_BYTES};
use farview::sim::{Actor, ActorId, Context, SimDuration, SimTime, Simulation};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::node_config;

/// Host nanoseconds of one round attributed to each share bucket.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerNs {
    pub episode: f64,
    pub net: f64,
    pub pipeline: f64,
    pub mem: f64,
    pub plan_compile: f64,
    pub fleet_merge: f64,
    pub serve: f64,
    pub tiered: f64,
}

/// What a workload's `probe` returns: the per-layer metrics it could
/// measure (anything absent is reported as 0 — the layer is not on this
/// workload's path) and the per-round attribution behind the shares.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    pub metrics: Vec<(&'static str, f64)>,
    pub per_round: LayerNs,
}

impl LayerCosts {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Repeat `f` `reps` times and return the median of the values it
/// yields (each call usually returns one timed interval in ns).
fn median_of<E>(reps: usize, mut f: impl FnMut() -> Result<f64, E>) -> Result<f64, E> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        samples.push(f()?);
    }
    Ok(median(&samples))
}

/// A stand-alone [`MemoryStack`] of the nodes' geometry: the `mem`
/// layer without a cluster around it.
pub struct MemProbe {
    cfg: FarviewConfig,
    stack: MemoryStack,
    domain: DomainId,
}

/// A table as the probes need it: the bytes, and the same bytes
/// resident on a connection.
#[derive(Clone, Copy)]
pub struct Resident<'a> {
    pub qp: &'a QPair,
    pub ft: &'a FTable,
    pub table: &'a Table,
}

impl MemProbe {
    pub fn new() -> MemProbe {
        let cfg = node_config();
        let mut stack =
            MemoryStack::with_tlb_capacity(cfg.channels, cfg.channel_bytes, cfg.tlb_entries);
        let domain = stack.create_domain();
        MemProbe { cfg, stack, domain }
    }

    /// Allocate room for `bytes` and write them; returns the address
    /// and the nanoseconds the `write` call took.
    pub fn load(&mut self, tr: &mut Tracer, bytes: &[u8]) -> Result<(VirtAddr, u64), String> {
        let vaddr = self
            .stack
            .alloc(self.domain, bytes.len() as u64)
            .map_err(|e| format!("mem probe alloc: {e}"))?;
        let o = tr.begin("mem.write", "mem");
        let res = self.stack.write(self.domain, vaddr, bytes);
        let ns = tr.end(o);
        res.map_err(|e| format!("mem probe write: {e}"))?;
        Ok((vaddr, ns))
    }

    pub fn free(&mut self, vaddr: VirtAddr) -> Result<(), String> {
        self.stack
            .free(self.domain, vaddr)
            .map_err(|e| format!("mem probe free: {e}"))
    }

    fn plan(&mut self, vaddr: VirtAddr, len: u64) -> Result<Vec<BurstReq>, String> {
        self.stack
            .plan_bursts(self.domain, vaddr, len)
            .map_err(|e| format!("mem probe plan_bursts: {e}"))
    }

    fn read(&mut self, vaddr: VirtAddr, len: u64) -> Result<Vec<u8>, String> {
        self.stack
            .read(self.domain, vaddr, len)
            .map_err(|e| format!("mem probe read: {e}"))
    }

    /// TLB misses ÷ lookups since the stack was built.
    pub fn tlb_miss_ratio(&self) -> f64 {
        let s = self.stack.tlb_stats();
        let lookups = s.hits + s.misses;
        if lookups == 0 {
            0.0
        } else {
            s.misses as f64 / lookups as f64
        }
    }
}

/// Median cost of each layer for **one execution** of `specs` (one
/// `far_view`, or one depth-N `far_view_batch`) over one table.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    pub compile_ns: f64,
    pub plan_bursts_ns: f64,
    pub read_ns: f64,
    pub bursts: u64,
    pub read_bytes: u64,
    /// `push_bytes` + `drain_output` + `finish` (decryption included).
    pub stream_ns: f64,
    pub tuples_in: u64,
    pub tuples_out: u64,
    pub batched_blocks: u64,
    pub packetize_ns: f64,
    pub arbiter_ns: f64,
    pub reassemble_ns: f64,
    pub packets: u64,
    pub wire_bytes: u64,
    pub episode_run_ns: f64,
    pub sim_events: u64,
    pub far_view_ns: f64,
}

impl UnitCosts {
    pub fn net_ns(&self) -> f64 {
        self.packetize_ns + self.arbiter_ns + self.reassemble_ns
    }

    pub fn mem_ns(&self) -> f64 {
        self.plan_bursts_ns + self.read_ns
    }

    /// The episode engine's own time: the run minus the operator and
    /// packet work it drives (both probed on the same bytes).
    pub fn episode_self_ns(&self) -> f64 {
        self.episode_run_ns - self.stream_ns - self.net_ns()
    }

    /// `QPair::far_view` minus everything probed beneath it: the node
    /// lock, `spec.clone()`, outcome assembly.
    pub fn cluster_self_ns(&self) -> f64 {
        self.far_view_ns - self.episode_run_ns - self.compile_ns - self.mem_ns()
    }
}

impl LayerNs {
    /// Attribute `n` executions of `u` to the single-node buckets.
    pub fn add_unit(&mut self, u: &UnitCosts, n: f64) {
        self.plan_compile += u.compile_ns * n;
        self.mem += u.mem_ns() * n;
        self.pipeline += u.stream_ns * n;
        self.net += u.net_ns() * n;
        self.episode += u.episode_self_ns() * n;
    }
}

/// Stream `data` through a freshly compiled `spec` the way the episode
/// engine does — one burst-sized chunk at a time, draining after each —
/// and return (output bytes, the pipeline for its counters, ns).
fn stream_once(
    tr: &mut Tracer,
    spec: &PipelineSpec,
    schema: &Schema,
    data: &[u8],
) -> Result<(Vec<u8>, CompiledPipeline, u64), String> {
    let mut p =
        CompiledPipeline::compile(spec.clone(), schema).map_err(|e| format!("compile: {e}"))?;
    let mut out = Vec::new();
    let o = tr.begin("pipeline.stream", "pipeline");
    for chunk in data.chunks(MEM_BURST_BYTES as usize) {
        p.push_bytes(chunk);
        p.drain_output_into(&mut out);
    }
    p.finish();
    p.drain_output_into(&mut out);
    let ns = tr.end(o);
    Ok((out, p, ns))
}

/// Median ns to stream `data` through `spec` (see [`stream_once`]).
pub fn stream_ns(
    tr: &mut Tracer,
    reps: usize,
    spec: &PipelineSpec,
    schema: &Schema,
    data: &[u8],
) -> Result<f64, String> {
    median_of(reps, || {
        stream_once(tr, spec, schema, data).map(|(out, _, ns)| {
            std::hint::black_box(out);
            ns as f64
        })
    })
}

/// The `net` layer on a result of `payload`'s size: cut it into MTU
/// packets, pass them through the egress arbiter and the link model,
/// reassemble on the far side. Returns (packetize, arbiter+link,
/// reassemble) ns, packets, wire bytes.
fn net_once(tr: &mut Tracer, payload: &[u8]) -> Result<(u64, u64, u64, u64, u64), String> {
    const QP: u32 = 1;
    let o = tr.begin("net.packetize", "net");
    let mut packets = Vec::with_capacity(payload.len() / PACKET_BYTES as usize + 1);
    let mut chunks = payload.chunks(PACKET_BYTES as usize).peekable();
    let mut seq = 0u32;
    // The sender always closes a stream with a `last` packet, even an
    // empty one.
    if chunks.peek().is_none() {
        packets.push(Packet::data(QP, 0, Vec::new().into(), true));
    }
    while let Some(c) = chunks.next() {
        packets.push(Packet::data(
            QP,
            seq,
            c.to_vec().into(),
            chunks.peek().is_none(),
        ));
        seq += 1;
    }
    let packetize = tr.end(o);
    let n = packets.len() as u64;

    let mut arbiter = EgressArbiter::new(1);
    arbiter.bind(0, QP);
    let mut link = LinkTiming::new(NicKind::FarviewFpga);
    let mut now = SimTime::ZERO;
    let mut wire_bytes = 0u64;
    let o = tr.begin("net.arbiter", "net");
    for p in packets {
        arbiter.push(p).map_err(|e| format!("arbiter: {e}"))?;
    }
    let mut sent = Vec::with_capacity(n as usize);
    while let Some(p) = arbiter.pop() {
        wire_bytes += p.wire_bytes();
        now = link.transmit(now, p.wire_bytes());
        sent.push(p);
    }
    let arbiter_ns = tr.end(o);

    let mut rx = Reassembly::new();
    let o = tr.begin("net.reassemble", "net");
    let mut complete = false;
    for p in sent {
        let last = matches!(p.kind, farview::net::PacketKind::Data { last: true });
        complete = rx
            .accept(p.qp, p.seq, p.payload, last)
            .map_err(|e| format!("reassembly: {e}"))?;
    }
    let reassemble = tr.end(o);
    if !complete || rx.assembled() != payload {
        return Err("net probe: reassembled payload differs from the input".into());
    }
    Ok((packetize, arbiter_ns, reassemble, n, wire_bytes))
}

/// Probe every layer for one execution of `specs` over `on`.
pub fn unit_costs(
    tr: &mut Tracer,
    reps: usize,
    mem: &mut MemProbe,
    on: Resident<'_>,
    specs: &[PipelineSpec],
) -> Result<UnitCosts, String> {
    let Resident { qp, ft, table } = on;
    let cfg = mem.cfg.clone();
    let schema = table.schema();
    let data = table.bytes();
    let len = data.len() as u64;

    // pipeline: compile.
    let compile_ns = median_of(reps, || -> Result<f64, String> {
        let mut total = 0u64;
        for spec in specs {
            let owned = spec.clone();
            let o = tr.begin("pipeline.compile", "pipeline");
            let compiled = CompiledPipeline::compile(owned, schema);
            total += tr.end(o);
            std::hint::black_box(compiled.map_err(|e| format!("compile: {e}"))?);
        }
        Ok(total as f64)
    })?;

    // mem: burst planning and the functional read, once per spec — a
    // depth-N batch plans and copies the table N times.
    let (vaddr, _) = mem.load(tr, data)?;
    let bursts = mem.plan(vaddr, len)?;
    let mut u = UnitCosts {
        compile_ns,
        bursts: bursts.len() as u64 * specs.len() as u64,
        read_bytes: len * specs.len() as u64,
        ..UnitCosts::default()
    };
    u.plan_bursts_ns = median_of(reps, || -> Result<f64, String> {
        let mut total = 0u64;
        for _ in specs {
            let o = tr.begin("mem.plan_bursts", "mem");
            let plan = mem.plan(vaddr, len);
            total += tr.end(o);
            std::hint::black_box(plan?);
        }
        Ok(total as f64)
    })?;
    u.read_ns = median_of(reps, || -> Result<f64, String> {
        let mut total = 0u64;
        for _ in specs {
            let o = tr.begin("mem.read", "mem");
            let bytes = mem.read(vaddr, len);
            total += tr.end(o);
            std::hint::black_box(bytes?);
        }
        Ok(total as f64)
    })?;

    // pipeline: stream. The outputs feed the net probe.
    let mut outputs = Vec::with_capacity(specs.len());
    for spec in specs {
        let (out, p, _) = stream_once(tr, spec, schema, data)?;
        let s = p.stats();
        u.tuples_in += s.tuples_in;
        u.tuples_out += s.tuples_out;
        u.batched_blocks += p.batched_blocks();
        outputs.push(out);
    }
    u.stream_ns = median_of(reps, || -> Result<f64, String> {
        let mut total = 0u64;
        for spec in specs {
            let (out, _, ns) = stream_once(tr, spec, schema, data)?;
            std::hint::black_box(out);
            total += ns;
        }
        Ok(total as f64)
    })?;

    // net: packetize → arbiter → link → reassembly per result stream.
    let mut parts = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let (mut a, mut b, mut c) = (0u64, 0u64, 0u64);
        u.packets = 0;
        u.wire_bytes = 0;
        for out in &outputs {
            let (p, q, r, n, w) = net_once(tr, out)?;
            a += p;
            b += q;
            c += r;
            u.packets += n;
            u.wire_bytes += w;
        }
        parts.0.push(a as f64);
        parts.1.push(b as f64);
        parts.2.push(c as f64);
    }
    u.packetize_ns = median(&parts.0);
    u.arbiter_ns = median(&parts.1);
    u.reassemble_ns = median(&parts.2);

    // episode: the engine alone, on a PreparedQuery built here.
    u.episode_run_ns = median_of(reps, || -> Result<f64, String> {
        let queries = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                Ok(PreparedQuery {
                    qp: (1 << 10) | i as u32,
                    slot: 0,
                    pipeline: CompiledPipeline::compile(spec.clone(), schema)
                        .map_err(|e| format!("compile: {e}"))?,
                    bursts: bursts.clone(),
                    data: data.to_vec(),
                    sa_tuples: None,
                    vector_lanes: 1,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let o = tr.begin("episode.run", "episode");
        let results = run_batched_episodes(vec![BatchRun::new(queries)], &cfg);
        let ns = tr.end(o);
        let results = results.map_err(|e| format!("episode: {e}"))?;
        u.sim_events = 0;
        for (r, want) in results.iter().flatten().zip(&outputs) {
            u.sim_events += r.events;
            if &r.payload != want {
                return Err("episode probe: payload differs from the streamed pipeline".into());
            }
        }
        Ok(ns as f64)
    })?;
    mem.free(vaddr)?;

    // cluster: the whole call.
    u.far_view_ns = median_of(reps, || -> Result<f64, String> {
        let o = tr.begin("cluster.far_view", "cluster");
        let res = if let [one] = specs {
            qp.far_view(ft, one).map(|out| vec![out])
        } else {
            qp.far_view_batch(ft, specs)
        };
        let ns = tr.end(o);
        std::hint::black_box(res.map_err(|e| format!("far_view: {e}"))?);
        Ok(ns as f64)
    })?;
    Ok(u)
}

/// `sim`: host ns per delivered event on a bare [`Simulation`] — two
/// actors bouncing one message between them. Events × this is the
/// episode engine's floor.
pub fn sim_dispatch_ns_per_event(tr: &mut Tracer, reps: usize) -> f64 {
    struct Bouncer {
        peer: Option<ActorId>,
        left: u64,
    }
    impl Actor<u64> for Bouncer {
        fn on_message(&mut self, msg: u64, ctx: &mut Context<'_, u64>) {
            if let (Some(peer), true) = (self.peer, self.left > 0) {
                self.left -= 1;
                ctx.send(peer, SimDuration::from_nanos(1), msg + 1);
            }
        }
    }
    const EVENTS: u64 = 100_000;
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let mut sim: Simulation<u64> = Simulation::new();
            let bouncer = |peer| {
                Box::new(Bouncer {
                    peer,
                    left: EVENTS / 2,
                })
            };
            let a = sim.add_actor(bouncer(None));
            let b = sim.add_actor(bouncer(Some(a)));
            sim.actor_mut::<Bouncer>(a)
                .expect("actor a was just added as a Bouncer")
                .peer = Some(b);
            sim.inject(a, SimDuration::ZERO, 0);
            let o = tr.begin("sim.dispatch", "sim");
            sim.run_to_quiescence(EVENTS + 8);
            let ns = tr.end(o);
            ns as f64 / sim.events_delivered() as f64
        })
        .collect();
    median(&samples)
}
