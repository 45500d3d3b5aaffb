//! Chaos scenario generator: faults composed with membership churn.
//!
//! A [`ChaosScenario`] interleaves query bursts with membership events
//! (nodes joining, draining and dying between bursts) and link
//! degradations — packet loss, delay spikes, bandwidth caps, full
//! partitions, truncated doorbell batches — each described by an
//! engine-independent [`FaultSpec`] that a replay lowers onto a
//! `FarviewFleet`'s fault hooks (`degrade_node` / `heal_node`). With no
//! fault class enabled a schedule is plain membership churn.
//!
//! Everything here is deterministic plain data: the same seed builds
//! the same schedule. A spec carries no fault seed; a replay derives
//! one per `Degrade` from the scenario seed and the event's index
//! (`degrade_plan` in `tests/chaos_props.rs`, the one place both fault
//! replays lower a spec), so two phases of one class fault different
//! packets and the link-level behaviour still replays. The replays and
//! the byte-identity oracle live in `tests/chaos_props.rs` (faults ×
//! membership) and `tests/topology_props.rs` (membership only).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::TenantQuery;

/// One link-degradation class, in engine-independent units (integer
/// percentages so specs stay `Eq`-comparable and hashable). The bench
/// crate lowers a spec onto an `fv_net::FaultPlan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSpec {
    /// Per-packet loss of `loss_pct` percent with a bounded retry
    /// budget: survivable loss costs latency only; exhaustion is a
    /// typed network error.
    Loss {
        /// Loss probability in percent, `0..100`.
        loss_pct: u8,
        /// Retry budget per packet.
        max_retries: u32,
    },
    /// Delay spikes: `spike_pct` percent of packets pick up an extra
    /// `spike_us` microseconds.
    DelaySpikes {
        /// Spike probability in percent, `0..=100`.
        spike_pct: u8,
        /// Spike size in microseconds.
        spike_us: u32,
    },
    /// Cap the link to `cap_pct` percent of its native peak rate.
    BandwidthCap {
        /// Remaining bandwidth in percent, `1..=100`.
        cap_pct: u8,
    },
    /// Full partition: nothing gets through; queries against the node
    /// fail typed (or fall back to a surviving replica).
    Partition,
    /// Doorbell batches truncated to their first `deliver` WQEs.
    TruncateDoorbell {
        /// WQEs the NIC fetches per batch.
        deliver: u32,
    },
}

impl FaultSpec {
    /// Can a query against an *unreplicated* shard on the degraded node
    /// still succeed under this fault? Partitions and truncations
    /// always fail typed; the latency-only classes succeed.
    pub fn survivable_unreplicated(&self) -> bool {
        match self {
            FaultSpec::Loss { .. }
            | FaultSpec::DelaySpikes { .. }
            | FaultSpec::BandwidthCap { .. } => true,
            FaultSpec::Partition | FaultSpec::TruncateDoorbell { .. } => false,
        }
    }

    /// Short stable name for reports and figures.
    pub fn class_name(&self) -> &'static str {
        match self {
            FaultSpec::Loss { .. } => "loss",
            FaultSpec::DelaySpikes { .. } => "delay_spike",
            FaultSpec::BandwidthCap { .. } => "bandwidth_cap",
            FaultSpec::Partition => "partition",
            FaultSpec::TruncateDoorbell { .. } => "truncated_doorbell",
        }
    }

    /// The default instance of each fault class, the matrix the
    /// generator composes from.
    pub fn all_classes() -> Vec<FaultSpec> {
        vec![
            FaultSpec::Loss {
                loss_pct: 20,
                max_retries: 32,
            },
            FaultSpec::DelaySpikes {
                spike_pct: 50,
                spike_us: 20,
            },
            FaultSpec::BandwidthCap { cap_pct: 25 },
            FaultSpec::Partition,
            FaultSpec::TruncateDoorbell { deliver: 1 },
        ]
    }
}

/// One step of a chaos schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// A burst of queries issued against the current topology.
    Queries(Vec<TenantQuery>),
    /// Bring up one more node (the driver should rebalance afterwards).
    AddNode,
    /// Gracefully drain the `i`-th live node, then rebalance off it.
    DrainNode(usize),
    /// Abruptly kill the `i`-th live node — only survivable when the
    /// schedule's tables are replicated.
    KillNode(usize),
    /// Degrade the `i`-th live node's link per the spec. The very next
    /// query burst runs against the degraded fleet.
    Degrade(usize, FaultSpec),
    /// Heal the `i`-th live node's link back to native behaviour.
    Heal(usize),
}

/// A deterministic schedule of query bursts, membership churn and link
/// degradations.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Nodes the fleet starts with.
    pub initial_nodes: usize,
    /// Replication factor the driver should load tables with: 2
    /// whenever the schedule contains kills or non-survivable faults
    /// (partitions, truncations), else 1.
    pub replicas: usize,
    /// Events in issue order.
    pub events: Vec<ChaosEvent>,
}

/// Generator for [`ChaosScenario`]s: `phases` query bursts, each
/// optionally bracketed by a `Degrade`/`Heal` pair on a random node,
/// separated by optional membership events.
///
/// Faults are always healed before the next membership event fires, so
/// rebalances run against a clean network and the schedule replays
/// deterministically — the *mid-rebalance* fault scenarios are driven
/// explicitly by the property tests instead, where the assertion can
/// distinguish "rolled back typed" from "completed".
#[derive(Debug, Clone)]
pub struct ChaosScenarioGen {
    initial_nodes: usize,
    phases: usize,
    queries_per_phase: usize,
    membership: bool,
    faults: Vec<FaultSpec>,
    seed: u64,
}

impl ChaosScenarioGen {
    /// `phases` query bursts on a fleet starting at `initial_nodes`.
    pub fn new(initial_nodes: usize, phases: usize) -> Self {
        assert!(initial_nodes > 0, "need at least one starting node");
        assert!(phases > 0, "need at least one query phase");
        ChaosScenarioGen {
            initial_nodes,
            phases,
            queries_per_phase: 8,
            membership: false,
            faults: Vec::new(),
            seed: 0x00C4_A05C_4A05,
        }
    }

    /// Queries per burst (default 8).
    pub fn queries_per_phase(mut self, n: usize) -> Self {
        assert!(n > 0, "bursts cannot be empty");
        self.queries_per_phase = n;
        self
    }

    /// Mix membership events (adds, drains, kills) between bursts.
    pub fn with_membership(mut self) -> Self {
        self.membership = true;
        self
    }

    /// Inject every fault class ([`FaultSpec::all_classes`]).
    pub fn with_all_faults(mut self) -> Self {
        self.faults.extend(FaultSpec::all_classes());
        self
    }

    /// Fix the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the schedule. Each phase degrades one random node with one
    /// of the enabled fault classes (probability ½), runs its burst,
    /// heals the node, and — when membership is enabled — fires one
    /// membership event before the next phase, never shrinking the
    /// serving roster below two nodes.
    pub fn build(&self) -> ChaosScenario {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events = Vec::new();
        let mut nodes = self.initial_nodes;
        let needs_replicas =
            self.membership || self.faults.iter().any(|f| !f.survivable_unreplicated());
        for phase in 0..self.phases {
            let degraded = if !self.faults.is_empty() && rng.gen_bool(0.5) {
                let victim = rng.gen_range(0..nodes);
                let spec = self.faults[rng.gen_range(0..self.faults.len())];
                events.push(ChaosEvent::Degrade(victim, spec));
                Some(victim)
            } else {
                None
            };
            events.push(ChaosEvent::Queries(
                (0..self.queries_per_phase)
                    .map(|_| match rng.gen_range(0u32..4) {
                        0 => TenantQuery::Select {
                            selectivity: [0.25, 0.5, 0.75][rng.gen_range(0usize..3)],
                        },
                        1 => TenantQuery::Distinct,
                        2 => TenantQuery::GroupBySum,
                        _ => TenantQuery::GroupByAvg,
                    })
                    .collect(),
            ));
            if let Some(victim) = degraded {
                events.push(ChaosEvent::Heal(victim));
            }
            if phase + 1 == self.phases || !self.membership {
                continue;
            }
            let can_shrink = nodes > 2;
            let event = match rng.gen_range(0u32..4) {
                2 if can_shrink => ChaosEvent::DrainNode(rng.gen_range(0..nodes)),
                3 if can_shrink => ChaosEvent::KillNode(rng.gen_range(0..nodes)),
                _ => ChaosEvent::AddNode,
            };
            match event {
                ChaosEvent::AddNode => nodes += 1,
                ChaosEvent::DrainNode(_) | ChaosEvent::KillNode(_) => nodes -= 1,
                _ => unreachable!(),
            }
            events.push(event);
        }
        ChaosScenario {
            initial_nodes: self.initial_nodes,
            replicas: if needs_replicas { 2 } else { 1 },
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_shaped() {
        let a = ChaosScenarioGen::new(3, 6)
            .queries_per_phase(4)
            .with_all_faults()
            .seed(11)
            .build();
        let b = ChaosScenarioGen::new(3, 6)
            .queries_per_phase(4)
            .with_all_faults()
            .seed(11)
            .build();
        assert_eq!(a, b);
        let queries: usize = a
            .events
            .iter()
            .map(|e| match e {
                ChaosEvent::Queries(qs) => qs.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(queries, 24);
        assert!(
            a.events
                .iter()
                .any(|e| matches!(e, ChaosEvent::Degrade(..))),
            "six phases at p=1/2 degrade some"
        );
        let c = ChaosScenarioGen::new(3, 6)
            .queries_per_phase(4)
            .with_all_faults()
            .seed(12)
            .build();
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn degrades_are_always_healed_and_indexed_in_roster() {
        let s = ChaosScenarioGen::new(2, 16)
            .with_all_faults()
            .with_membership()
            .seed(5)
            .build();
        assert_eq!(s.replicas, 2, "non-survivable faults force replication");
        let mut nodes = s.initial_nodes;
        let mut degraded: Option<usize> = None;
        for e in &s.events {
            match e {
                ChaosEvent::Degrade(i, _) => {
                    assert!(degraded.is_none(), "one degradation at a time");
                    assert!(*i < nodes, "victim indexes the live roster");
                    degraded = Some(*i);
                }
                ChaosEvent::Heal(i) => {
                    assert_eq!(degraded.take(), Some(*i), "heal bookends its degrade");
                }
                ChaosEvent::AddNode => {
                    assert!(degraded.is_none(), "membership only on a healed fleet");
                    nodes += 1;
                }
                ChaosEvent::DrainNode(i) | ChaosEvent::KillNode(i) => {
                    assert!(degraded.is_none(), "membership only on a healed fleet");
                    assert!(*i < nodes);
                    nodes -= 1;
                    assert!(nodes >= 2, "roster floor holds");
                }
                ChaosEvent::Queries(qs) => assert!(!qs.is_empty()),
            }
        }
        assert!(degraded.is_none(), "every degrade is healed by the end");
    }

    #[test]
    fn latency_only_faults_do_not_force_replication() {
        let mut g = ChaosScenarioGen::new(2, 4).seed(9);
        g.faults = vec![
            FaultSpec::Loss {
                loss_pct: 10,
                max_retries: 16,
            },
            FaultSpec::DelaySpikes {
                spike_pct: 30,
                spike_us: 10,
            },
            FaultSpec::BandwidthCap { cap_pct: 50 },
        ];
        let s = g.build();
        assert_eq!(s.replicas, 1, "latency-only chaos runs unreplicated");
        assert!(s.events.iter().all(|e| matches!(
            e,
            ChaosEvent::Queries(_) | ChaosEvent::Degrade(..) | ChaosEvent::Heal(_)
        )));
    }

    #[test]
    fn membership_only_schedules_are_deterministic_and_shaped() {
        let build = |seed| {
            ChaosScenarioGen::new(2, 5)
                .queries_per_phase(6)
                .with_membership()
                .seed(seed)
                .build()
        };
        let a = build(1);
        assert_eq!(a, build(1));
        assert_eq!(a.initial_nodes, 2);
        assert_eq!(a.replicas, 2, "membership churn may kill: load replicated");
        let bursts = a
            .events
            .iter()
            .filter(|e| matches!(e, ChaosEvent::Queries(qs) if qs.len() == 6))
            .count();
        assert_eq!(bursts, 5);
        assert_eq!(a.events.len(), 9, "one membership event between bursts");
        assert_ne!(a, build(2), "seed must matter");
    }

    #[test]
    fn queries_only_by_default() {
        let s = ChaosScenarioGen::new(2, 8).seed(3).build();
        assert_eq!(s.replicas, 1);
        assert!(s.events.iter().all(|e| matches!(e, ChaosEvent::Queries(_))));
    }

    #[test]
    fn membership_schedules_force_replication_and_respect_the_floor() {
        let s = ChaosScenarioGen::new(2, 24)
            .with_membership()
            .seed(7)
            .build();
        assert_eq!(s.replicas, 2, "kill schedules must be survivable");
        // Replay the roster size: it never dips below two.
        let mut nodes = s.initial_nodes;
        for e in &s.events {
            match e {
                ChaosEvent::AddNode => nodes += 1,
                ChaosEvent::DrainNode(i) | ChaosEvent::KillNode(i) => {
                    assert!(*i < nodes, "event indexes the live roster");
                    nodes -= 1;
                }
                ChaosEvent::Queries(qs) => assert!(!qs.is_empty()),
                ChaosEvent::Degrade(..) | ChaosEvent::Heal(_) => {
                    panic!("no fault class enabled: {e:?}")
                }
            }
            assert!(nodes >= 2);
        }
    }
}
