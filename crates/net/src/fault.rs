//! Deterministic per-link fault injection.
//!
//! Real disaggregated-memory deployments do not get the clean network
//! the paper's evaluation testbed had: links drop packets, queues build
//! delay spikes, oversubscribed spines cap bandwidth, and switches
//! partition racks outright. This module models those degradations as a
//! seed-driven [`FaultPlan`] attached to a [`LinkTiming`](crate::LinkTiming),
//! so every chaos run is exactly replayable: the same seed produces the
//! same loss pattern, the same spikes, the same retry schedule.
//!
//! The injector deliberately lives *below* the protocol layer. Lost
//! packets are retried with bounded exponential backoff (so loss only
//! ever costs latency, never bytes — until the retry budget is
//! exhausted, which surfaces as a typed
//! [`NetError::RetriesExhausted`](crate::NetError)); partitions surface
//! as [`NetError::LinkPartitioned`](crate::NetError) on the first
//! transmission attempt. Nothing in this module panics on degraded
//! input: the core invariant of the chaos harness is *byte-identical
//! results or a clean typed error, never a wrong answer, never a
//! panic*.

use fv_sim::calib::WIRE_ONE_WAY;
use fv_sim::{BandwidthServer, SimDuration, SplitMix64};

use crate::link::NicKind;
use crate::qp::NetError;

/// Base unit of the retry backoff schedule: one round trip on the wire.
const RETRY_BACKOFF: SimDuration = SimDuration::from_nanos(2 * WIRE_ONE_WAY.as_nanos());

/// How many times the backoff doubles before it saturates.
const BACKOFF_DOUBLINGS: u32 = 6;

/// A replayable description of how one link misbehaves.
///
/// The default plan is benign (no faults); builders switch individual
/// degradation classes on. All randomness is derived from `seed`, so a
/// plan is a complete, replayable description of a degraded link — the
/// same plan against the same traffic produces the same timing and the
/// same typed errors on every run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's deterministic RNG.
    pub seed: u64,
    /// Per-packet loss probability in `[0, 1)`. Lost packets are
    /// retried with bounded exponential backoff.
    pub loss: f64,
    /// Retry budget per packet before the link gives up with a typed
    /// [`NetError::RetriesExhausted`](crate::NetError).
    pub max_retries: u32,
    /// Probability that a packet picks up an extra queueing delay spike.
    pub delay_spike_prob: f64,
    /// Size of one delay spike.
    pub delay_spike: SimDuration,
    /// Cap the link to this fraction of its native peak rate, in
    /// `(0, 1]`. `None` leaves the native rate.
    pub bandwidth_cap: Option<f64>,
    /// A full partition: every transmission fails immediately with
    /// [`NetError::LinkPartitioned`](crate::NetError).
    pub partitioned: bool,
    /// Deliver only the first `n` WQEs of every doorbell batch; later
    /// entries surface [`NetError::TruncatedBatch`](crate::NetError).
    pub truncate_doorbell: Option<u32>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            loss: 0.0,
            max_retries: 7,
            delay_spike_prob: 0.0,
            delay_spike: SimDuration::ZERO,
            bandwidth_cap: None,
            partitioned: false,
            truncate_doorbell: None,
        }
    }
}

impl FaultPlan {
    /// The benign plan: no faults, native link behaviour.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fix the RNG seed (all fault draws derive from it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drop each packet with probability `loss`, retrying under the
    /// default retry budget.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Drop each packet with probability `loss`, giving up after
    /// `max_retries` retries.
    pub fn with_loss_retries(mut self, loss: f64, max_retries: u32) -> Self {
        self.loss = loss;
        self.max_retries = max_retries;
        self
    }

    /// Add a delay spike of `spike` to each packet with probability `p`.
    pub fn with_delay_spikes(mut self, p: f64, spike: SimDuration) -> Self {
        self.delay_spike_prob = p;
        self.delay_spike = spike;
        self
    }

    /// Cap the link at `fraction` of its native peak rate.
    pub fn with_bandwidth_cap(mut self, fraction: f64) -> Self {
        self.bandwidth_cap = Some(fraction);
        self
    }

    /// Partition the link: every transmission fails with a typed error.
    pub fn partitioned(mut self) -> Self {
        self.partitioned = true;
        self
    }

    /// Truncate every doorbell batch to its first `deliver` WQEs.
    pub fn with_doorbell_truncation(mut self, deliver: u32) -> Self {
        self.truncate_doorbell = Some(deliver);
        self
    }

    /// True when the plan injects nothing — the link behaves natively.
    pub fn is_benign(&self) -> bool {
        self.loss == 0.0
            && self.delay_spike_prob == 0.0
            && self.bandwidth_cap.is_none()
            && !self.partitioned
            && self.truncate_doorbell.is_none()
    }

    /// Check the plan's parameters.
    ///
    /// # Errors
    /// [`NetError::InvalidFaultPlan`] names the first field out of
    /// range: a loss probability outside `[0, 1)`, a spike probability
    /// outside `[0, 1]`, a bandwidth cap outside `(0, 1]`, or a doorbell
    /// truncation that delivers nothing — a misconfigured plan, not a
    /// runtime fault.
    pub fn validate(&self) -> Result<(), NetError> {
        let invalid = |field| Err(NetError::InvalidFaultPlan { field });
        if !(0.0..1.0).contains(&self.loss) {
            return invalid("loss");
        }
        if !(0.0..=1.0).contains(&self.delay_spike_prob) {
            return invalid("delay_spike_prob");
        }
        if self.bandwidth_cap.is_some_and(|f| !(f > 0.0 && f <= 1.0)) {
            return invalid("bandwidth_cap");
        }
        if self.truncate_doorbell == Some(0) {
            return invalid("truncate_doorbell");
        }
        Ok(())
    }
}

/// The live per-link fault state: a [`FaultPlan`] plus its RNG and the
/// optional capped-bandwidth server overlay.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    cap: Option<BandwidthServer>,
    retries: u64,
    spikes: u64,
    exhausted: u64,
}

impl FaultInjector {
    /// An injector for `plan` on a link of the given NIC kind (the kind
    /// fixes the native peak rate the bandwidth cap is relative to).
    ///
    /// # Errors
    /// [`NetError::InvalidFaultPlan`] when the plan does not
    /// [`validate`](FaultPlan::validate).
    pub fn new(kind: NicKind, plan: FaultPlan) -> Result<Self, NetError> {
        plan.validate()?;
        let cap = plan
            .bandwidth_cap
            .map(|f| BandwidthServer::new(kind.peak_rate() * f, kind.per_packet()));
        Ok(FaultInjector {
            rng: SplitMix64::new(plan.seed),
            plan,
            cap,
            retries: 0,
            spikes: 0,
            exhausted: 0,
        })
    }

    /// The plan this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// One Bernoulli draw with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.unit() < p
    }

    /// Does the next transmission attempt get lost?
    pub(crate) fn lost(&mut self) -> bool {
        let lost = self.chance(self.plan.loss);
        if lost {
            self.retries += 1;
        }
        lost
    }

    /// Does this packet pick up a delay spike?
    pub(crate) fn spiked(&mut self) -> bool {
        let s =
            self.chance(self.plan.delay_spike_prob) && self.plan.delay_spike > SimDuration::ZERO;
        if s {
            self.spikes += 1;
        }
        s
    }

    /// The backoff before retry attempt `attempt` (1-based): one RTT,
    /// doubling per attempt, saturating after a few doublings.
    pub(crate) fn backoff(&self, attempt: u32) -> SimDuration {
        RETRY_BACKOFF * u64::from(1u32 << attempt.min(BACKOFF_DOUBLINGS))
    }

    /// The capped-rate overlay server, when a bandwidth cap is set.
    pub(crate) fn cap_mut(&mut self) -> Option<&mut BandwidthServer> {
        self.cap.as_mut()
    }

    /// Record one retry budget exhaustion.
    pub(crate) fn record_exhausted(&mut self) {
        self.exhausted += 1;
    }

    /// Retries performed so far (lost attempts).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Delay spikes injected so far.
    pub fn spikes(&self) -> u64 {
        self.spikes
    }

    /// Packets whose retry budget ran out.
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }

    /// Reset to the plan's seed so a fresh episode replays identically.
    pub fn reset(&mut self) {
        self.rng = SplitMix64::new(self.plan.seed);
        self.retries = 0;
        self.spikes = 0;
        self.exhausted = 0;
        if let Some(cap) = &mut self.cap {
            cap.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_benign() {
        let p = FaultPlan::default();
        assert!(p.is_benign());
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn builders_mark_plans_degraded() {
        assert!(!FaultPlan::default().with_loss(0.1).is_benign());
        assert!(!FaultPlan::default()
            .with_delay_spikes(0.5, SimDuration::from_micros(3))
            .is_benign());
        assert!(!FaultPlan::default().with_bandwidth_cap(0.25).is_benign());
        assert!(!FaultPlan::default().partitioned().is_benign());
        assert!(!FaultPlan::default().with_doorbell_truncation(2).is_benign());
        // A plan that only reseeds is still benign.
        assert!(FaultPlan::default().with_seed(99).is_benign());
    }

    #[test]
    fn out_of_range_plans_are_refused_typed() {
        let invalid = |field| Err(NetError::InvalidFaultPlan { field });
        assert_eq!(
            FaultPlan::default().with_loss(1.0).validate(),
            invalid("loss")
        );
        let spikes = FaultPlan::default().with_delay_spikes(1.5, SimDuration::ZERO);
        assert_eq!(spikes.validate(), invalid("delay_spike_prob"));
        let cap = FaultPlan::default().with_bandwidth_cap(0.0);
        assert_eq!(cap.validate(), invalid("bandwidth_cap"));
        let truncate = FaultPlan::default().with_doorbell_truncation(0);
        assert_eq!(truncate.validate(), invalid("truncate_doorbell"));
        assert!(FaultInjector::new(NicKind::FarviewFpga, cap).is_err());
    }

    #[test]
    fn draws_replay_from_the_seed() {
        let plan = FaultPlan::default().with_seed(42).with_loss(0.3);
        let mut a = FaultInjector::new(NicKind::FarviewFpga, plan.clone()).unwrap();
        let first: Vec<bool> = (0..64).map(|_| a.lost()).collect();
        a.reset();
        let replay: Vec<bool> = (0..64).map(|_| a.lost()).collect();
        assert_eq!(first, replay, "reset must replay the identical pattern");
        let mut b = FaultInjector::new(NicKind::FarviewFpga, plan).unwrap();
        let fresh: Vec<bool> = (0..64).map(|_| b.lost()).collect();
        assert_eq!(first, fresh, "same plan, same draws");
        assert!(first.iter().any(|&l| l), "30% loss over 64 draws hits");
        assert!(!first.iter().all(|&l| l), "but not every draw");
    }

    #[test]
    fn backoff_doubles_then_saturates() {
        let inj = FaultInjector::new(NicKind::FarviewFpga, FaultPlan::default()).unwrap();
        assert!(inj.backoff(2) == inj.backoff(1) * 2);
        assert_eq!(
            inj.backoff(BACKOFF_DOUBLINGS),
            inj.backoff(BACKOFF_DOUBLINGS + 5),
            "backoff saturates"
        );
    }
}
