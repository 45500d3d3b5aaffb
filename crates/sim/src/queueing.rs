//! Reusable queueing/resource models.
//!
//! Two building blocks cover every shared resource in the Farview datapath:
//!
//! * [`BandwidthServer`] — a serialized resource with a fixed byte rate and
//!   an optional fixed per-job overhead. Models one DRAM channel (§4.4:
//!   "each memory channel can provide a certain amount of memory
//!   bandwidth"), the 100 Gbps wire, and the PCIe hop of the commercial
//!   NIC baseline.
//! * [`DrrScheduler`] — deficit round robin across flows. Models the
//!   paper's fair-sharing requirement (§4.3: "out-of-order execution,
//!   along with credit-based flow control and packet based processing,
//!   allows Farview to provide the fair-sharing") and the MMU's
//!   per-region arbiters (§4.4); with per-flow quanta, the serving front
//!   end's tenant-weighted dispatch.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// A serialized resource: jobs are served one at a time, FIFO, each taking
/// `overhead + bytes / rate`.
///
/// The server keeps only `busy_until`, so admission is O(1): callers ask
/// "when would a job of `n` bytes arriving at `now` complete?" and the
/// server advances its horizon. This is exact for FIFO service.
#[derive(Debug, Clone)]
pub struct BandwidthServer {
    bytes_per_sec: f64,
    per_job_overhead: SimDuration,
    busy_until: SimTime,
    bytes_served: u64,
}

impl BandwidthServer {
    /// A server with the given sustained rate and fixed per-job overhead.
    /// [`SimDuration::for_bytes`] refuses a rate that is not positive and
    /// finite at the first [`BandwidthServer::admit`].
    pub fn new(bytes_per_sec: f64, per_job_overhead: SimDuration) -> Self {
        BandwidthServer {
            bytes_per_sec,
            per_job_overhead,
            busy_until: SimTime::ZERO,
            bytes_served: 0,
        }
    }

    /// Admit a job of `bytes` arriving at `now`; returns its completion
    /// instant. Never completes before `now + overhead + service`.
    pub fn admit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let service = self.per_job_overhead + SimDuration::for_bytes(bytes, self.bytes_per_sec);
        let done = start + service;
        self.busy_until = done;
        self.bytes_served += bytes;
        done
    }

    /// Instant at which the server becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Sustained rate in bytes per second.
    pub fn rate(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Total bytes admitted.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Reset the horizon and counters (new episode).
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.bytes_served = 0;
    }
}

/// One queued job inside the [`DrrScheduler`].
#[derive(Debug, Clone)]
struct DrrJob<T> {
    cost: u64,
    payload: T,
}

#[derive(Debug, Clone)]
struct DrrFlow<T> {
    deficit: u64,
    quantum: u64,
    queue: VecDeque<DrrJob<T>>,
}

/// Deficit round robin across a fixed set of flows.
///
/// Each flow receives its quantum of credit per round; a job is
/// eligible when the flow's accumulated deficit covers its cost (bytes).
/// DRR is the textbook O(1) fair scheduler and matches the paper's
/// packet-based fair-sharing: with equal quanta, concurrent clients share
/// the wire/DRAM proportionally regardless of how greedy any one client's
/// request stream is ("it prevents any malevolent behaviour by any of the
/// users that could lead to a complete system stall", §4.3). Unequal
/// quanta ([`DrrScheduler::with_quanta`]) split service in their ratio.
#[derive(Debug, Clone)]
pub struct DrrScheduler<T> {
    /// The largest flow quantum: no job may cost more.
    quantum: u64,
    flows: Vec<DrrFlow<T>>,
    cursor: usize,
    queued: usize,
    /// Cursor laps that always serve a job while one is queued: a flow
    /// banks at least its own quantum per visit, and no job costs more
    /// than the largest.
    laps: usize,
}

impl<T> DrrScheduler<T> {
    /// A scheduler over `flows` flows with the given per-round quantum
    /// (in the same cost units as jobs, typically bytes).
    pub fn new(flows: usize, quantum: u64) -> Self {
        Self::with_quanta((0..flows).map(|_| quantum))
    }

    /// A scheduler with one flow per quantum in `quanta`, each receiving
    /// its own quantum per round: backlogged flows are served in the
    /// ratio of their quanta.
    #[expect(
        clippy::disallowed_macros,
        reason = "flows and quanta are wiring constants; a zero quantum would divide by zero below"
    )]
    pub fn with_quanta(quanta: impl IntoIterator<Item = u64>) -> Self {
        let flows: Vec<DrrFlow<T>> = quanta
            .into_iter()
            .map(|quantum| DrrFlow {
                deficit: 0,
                quantum,
                queue: VecDeque::new(),
            })
            .collect();
        assert!(!flows.is_empty(), "DRR needs at least one flow");
        let smallest = flows.iter().map(|f| f.quantum).min().unwrap_or(0);
        assert!(smallest > 0, "DRR quantum must be positive");
        let quantum = flows.iter().map(|f| f.quantum).max().unwrap_or(smallest);
        DrrScheduler {
            quantum,
            flows,
            cursor: 0,
            queued: 0,
            laps: quantum.div_ceil(smallest) as usize,
        }
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Total queued jobs across all flows.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Enqueue a job with the given cost on `flow`.
    ///
    /// # Panics
    /// Panics if `flow` is out of range or `cost` exceeds the largest
    /// quantum (so a job can always eventually be served).
    #[expect(
        clippy::disallowed_macros,
        clippy::panic,
        reason = "the documented contract above: flows are wired once, costs are capped by the caller"
    )]
    pub fn push(&mut self, flow: usize, cost: u64, payload: T) {
        assert!(
            cost <= self.quantum,
            "job cost {cost} exceeds quantum {}; it could never be served",
            self.quantum
        );
        let Some(f) = self.flows.get_mut(flow) else {
            panic!("unknown DRR flow {flow}");
        };
        f.queue.push_back(DrrJob { cost, payload });
        self.queued += 1;
    }

    /// The most recently pushed job still queued on `flow`.
    pub fn back(&self, flow: usize) -> Option<&T> {
        self.flows.get(flow)?.queue.back().map(|j| &j.payload)
    }

    /// Withdraw the most recently pushed job of `flow` unserved. The
    /// flow keeps its deficit, as it does when a pop empties it.
    pub fn pop_back(&mut self, flow: usize) -> Option<T> {
        let job = self.flows.get_mut(flow)?.queue.pop_back()?;
        self.queued -= 1;
        Some(job.payload)
    }

    /// Dequeue the next job in DRR order, returning `(flow, payload)`.
    ///
    /// Runs once per packet on the wire and once per DRAM burst, so the
    /// cursor wraps with a compare, not a `% flows` division per flow it
    /// passes.
    #[expect(clippy::unreachable, reason = "`laps` laps serve any queued job")]
    pub fn pop(&mut self) -> Option<(usize, T)> {
        if self.queued == 0 {
            // Drain stale deficits so an idle scheduler does not carry
            // credit into the next busy period (standard DRR behaviour).
            for f in &mut self.flows {
                f.deficit = 0;
            }
            return None;
        }
        let n = self.flows.len();
        for _ in 0..n * self.laps {
            let idx = self.cursor;
            let next = if idx + 1 == n { 0 } else { idx + 1 };
            let Some(flow) = self.flows.get_mut(idx) else {
                break;
            };
            let Some(cost) = flow.queue.front().map(|j| j.cost) else {
                // Idle flows forfeit their deficit.
                flow.deficit = 0;
                self.cursor = next;
                continue;
            };
            if flow.deficit >= cost {
                flow.deficit -= cost;
                if flow.queue.len() == 1 {
                    flow.deficit = 0;
                    self.cursor = next;
                }
            } else if flow.deficit + flow.quantum >= cost {
                // Grant a quantum, serve and move on. The flow keeps
                // what is left of the grant even if it just emptied:
                // only the cursor passing an idle flow forfeits it.
                flow.deficit = flow.deficit + flow.quantum - cost;
                self.cursor = next;
            } else {
                // A flow whose quantum is below the job's cost banks the
                // grant and waits for the next lap.
                flow.deficit += flow.quantum;
                self.cursor = next;
                continue;
            }
            let Some(job) = flow.queue.pop_front() else {
                break;
            };
            self.queued -= 1;
            return Some((idx, job.payload));
        }
        unreachable!("DRR invariant violated: queued > 0 but nothing served");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`DrrScheduler::pop`] as it was before its cursor stopped
    /// dividing: the reference the property below holds it to.
    fn pop_reference<T>(drr: &mut DrrScheduler<T>) -> Option<(usize, T)> {
        if drr.queued == 0 {
            for f in &mut drr.flows {
                f.deficit = 0;
            }
            return None;
        }
        let n = drr.flows.len();
        for _ in 0..=(2 * n) {
            let idx = drr.cursor;
            let flow = &mut drr.flows[idx];
            if let Some(front) = flow.queue.front() {
                if flow.deficit >= front.cost {
                    let job = flow.queue.pop_front().expect("front checked");
                    flow.deficit -= job.cost;
                    drr.queued -= 1;
                    if flow.queue.is_empty() {
                        flow.deficit = 0;
                        drr.cursor = (idx + 1) % n;
                    }
                    return Some((idx, job.payload));
                }
                flow.deficit += drr.quantum;
                let job = flow.queue.pop_front().expect("front checked");
                flow.deficit -= job.cost;
                drr.queued -= 1;
                drr.cursor = (idx + 1) % n;
                return Some((idx, job.payload));
            }
            flow.deficit = 0;
            drr.cursor = (idx + 1) % n;
        }
        unreachable!("DRR invariant violated: queued > 0 but nothing served");
    }

    /// Cursor, queued count, and every flow's deficit and `(cost, job)`s.
    type State = (usize, usize, Vec<(u64, Vec<(u64, u32)>)>);

    /// What a scheduler will do next.
    fn state(drr: &DrrScheduler<u32>) -> State {
        let flows = drr
            .flows
            .iter()
            .map(|f| {
                let jobs = f.queue.iter().map(|j| (j.cost, j.payload)).collect();
                (f.deficit, jobs)
            })
            .collect();
        (drr.cursor, drr.queued, flows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of pushes and pops over 1–8
        /// flows, costs up to the quantum: the compare-and-wrap cursor
        /// serves the reference's `(flow, payload)` sequence and leaves
        /// its deficits, cursor and queues after every step.
        #[test]
        fn pop_matches_the_dividing_reference(
            flows in 1usize..=8,
            quantum in 1u64..=2048,
            ops in prop::collection::vec((0u8..5, 0usize..8, any::<u64>()), 0..300),
        ) {
            let mut drr = DrrScheduler::new(flows, quantum);
            let mut reference = DrrScheduler::new(flows, quantum);
            for (step, (kind, flow, raw)) in ops.into_iter().enumerate() {
                let flow = flow % flows;
                match kind {
                    0..=2 => {
                        let cost = raw % (quantum + 1);
                        drr.push(flow, cost, step as u32);
                        reference.push(flow, cost, step as u32);
                    }
                    _ => prop_assert_eq!(drr.pop(), pop_reference(&mut reference)),
                }
                prop_assert_eq!(state(&drr), state(&reference), "after step {}", step);
            }
            while let Some(served) = pop_reference(&mut reference) {
                prop_assert_eq!(drr.pop(), Some(served));
                prop_assert_eq!(state(&drr), state(&reference));
            }
            prop_assert_eq!(drr.pop(), None);
        }
    }

    /// A flow emptied on the quantum-grant path keeps the rest of its
    /// grant; refilled before the cursor comes back, it spends it. Only
    /// the cursor passing the flow while it is idle forfeits the deficit.
    #[test]
    fn a_flow_emptied_on_a_grant_keeps_its_deficit_until_the_cursor_passes() {
        let mut drr = DrrScheduler::new(3, 1024);
        let mut reference = DrrScheduler::new(3, 1024);
        for d in [&mut drr, &mut reference] {
            d.push(0, 100, 0u32);
            d.push(1, 1024, 1);
            d.push(2, 1024, 2);
        }
        assert_eq!(drr.pop(), pop_reference(&mut reference));
        assert_eq!(drr.flows[0].deficit, 924, "emptied on the grant path");
        // Refill flow 0 while the cursor is elsewhere.
        for d in [&mut drr, &mut reference] {
            d.push(0, 500, 3);
            d.push(0, 500, 4);
            d.push(1, 1024, 5);
        }
        let mut served = Vec::new();
        while let Some(job) = drr.pop() {
            assert_eq!(Some(job), pop_reference(&mut reference));
            assert_eq!(state(&drr), state(&reference));
            served.push(job);
        }
        // Flow 0's banked 924 pays its first 500 on return, so the cursor
        // stays and the second 500 follows on a fresh grant. Had the
        // deficit been forfeited early, the first 500 would have taken
        // that grant and flow 1 would have gone between the two.
        assert_eq!(served, [(1, 1), (2, 2), (0, 3), (0, 4), (1, 5)]);
    }

    #[test]
    fn bandwidth_server_serializes_jobs() {
        let mut s = BandwidthServer::new(1e9, SimDuration::from_nanos(10)); // 1 GB/s
        let t0 = SimTime::ZERO;
        // 1000 bytes -> 10 ns overhead + 1000 ns service.
        let d1 = s.admit(t0, 1000);
        assert_eq!(d1.as_nanos(), 1010);
        // Second job arriving at t0 queues behind the first.
        let d2 = s.admit(t0, 1000);
        assert_eq!(d2.as_nanos(), 2020);
        // A job arriving after the horizon starts immediately.
        let d3 = s.admit(SimTime::from_nanos(5000), 500);
        assert_eq!(d3.as_nanos(), 5000 + 10 + 500);
        assert_eq!(s.bytes_served(), 2500);
    }

    #[test]
    fn bandwidth_server_reset() {
        let mut s = BandwidthServer::new(1e9, SimDuration::ZERO);
        s.admit(SimTime::ZERO, 4096);
        s.reset();
        assert_eq!(s.busy_until(), SimTime::ZERO);
        assert_eq!(s.bytes_served(), 0);
    }

    #[test]
    fn drr_is_fair_between_equal_flows() {
        let mut drr = DrrScheduler::new(2, 1024);
        for i in 0..10 {
            drr.push(0, 1024, format!("a{i}"));
        }
        for i in 0..10 {
            drr.push(1, 1024, format!("b{i}"));
        }
        let mut served_by_flow = [0usize; 2];
        let mut order = Vec::new();
        while let Some((flow, job)) = drr.pop() {
            served_by_flow[flow] += 1;
            order.push(job);
        }
        assert_eq!(served_by_flow, [10, 10]);
        // Strict alternation for equal-cost, equal-quantum flows.
        for pair in order.chunks(2) {
            assert_ne!(pair[0].as_bytes()[0], pair[1].as_bytes()[0]);
        }
    }

    #[test]
    fn drr_gives_small_jobs_proportional_share() {
        // Flow 0 sends 512-byte jobs, flow 1 sends 1024-byte jobs. Over a
        // long run flow 0 must get ~2x the job slots (equal byte share).
        let mut drr = DrrScheduler::new(2, 1024);
        for _ in 0..100 {
            drr.push(0, 512, 0u32);
        }
        for _ in 0..100 {
            drr.push(1, 1024, 1u32);
        }
        let mut bytes = [0u64; 2];
        // Serve 60 jobs' worth and compare byte shares.
        for _ in 0..60 {
            let (flow, _) = drr.pop().unwrap();
            bytes[flow] += if flow == 0 { 512 } else { 1024 };
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.8..=1.25).contains(&ratio), "byte share skewed: {ratio}");
    }

    #[test]
    fn drr_skips_idle_flows_without_starvation() {
        let mut drr = DrrScheduler::new(4, 1024);
        drr.push(2, 100, "only");
        assert_eq!(drr.pop(), Some((2, "only")));
        assert_eq!(drr.pop(), None);
        assert!(drr.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds quantum")]
    fn drr_rejects_oversized_jobs() {
        let mut drr = DrrScheduler::new(1, 64);
        drr.push(0, 65, ());
    }

    #[test]
    fn drr_idle_flows_forfeit_deficit() {
        let mut drr = DrrScheduler::new(2, 1000);
        drr.push(0, 1000, "x");
        assert!(drr.pop().is_some());
        assert!(drr.pop().is_none());
        // After idling, flow 0 must not have banked credit that lets it
        // burst ahead of flow 1.
        drr.push(0, 1000, "a");
        drr.push(1, 1000, "b");
        let first = drr.pop().unwrap();
        let second = drr.pop().unwrap();
        assert_eq!(
            [first.0, second.0].iter().sum::<usize>(),
            1,
            "each flow served once"
        );
    }

    /// Weighted flows: with quanta 4 : 1 over equal costs, whether the
    /// light flow's quantum covers a job (it banks nothing) or a quarter
    /// of one (it banks three laps), the heavy flow gets four jobs to
    /// its one.
    #[test]
    fn unequal_quanta_split_service_in_their_ratio() {
        for quanta in [[4096, 1024], [1024, 256]] {
            let mut drr = DrrScheduler::with_quanta(quanta);
            for i in 0..100u32 {
                drr.push(0, 1024, i);
                drr.push(1, 1024, i);
            }
            let mut served = [0usize; 2];
            for _ in 0..50 {
                served[drr.pop().unwrap().0] += 1;
            }
            assert_eq!(served, [40, 10], "quanta {quanta:?}");
        }
    }

    #[test]
    fn pop_back_withdraws_the_youngest_job_of_a_flow() {
        let mut drr = DrrScheduler::new(2, 1024);
        drr.push(0, 100, "old");
        drr.push(0, 100, "young");
        drr.push(1, 100, "other");
        assert_eq!(drr.back(0), Some(&"young"));
        assert_eq!(drr.pop_back(0), Some("young"));
        assert_eq!(drr.len(), 2);
        assert_eq!(drr.pop_back(3), None);
        assert_eq!(drr.pop(), Some((0, "old")));
        assert_eq!(drr.pop(), Some((1, "other")));
        assert_eq!(drr.back(0), None);
    }
}
