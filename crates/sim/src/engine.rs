//! Actor-model discrete-event engine.
//!
//! The Farview datapath (Figure 2 of the paper) is a pipeline of
//! independently clocked components — network stack, dynamic regions, MMU,
//! DRAM channels — connected by queues. We model each component as an
//! [`Actor`] that receives typed messages at simulated instants and reacts
//! by sending further messages after explicit delays. A central
//! [`Simulation`] owns the actors and the event queue.
//!
//! Determinism: events are ordered by `(time, sequence number)` where the
//! sequence number is assigned at scheduling time, so two events scheduled
//! for the same instant are always delivered in scheduling order,
//! independent of hash/heap internals. The engine is single-threaded; a
//! whole query episode (a few thousand events) runs in microseconds of
//! wall time.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Identifies an actor inside a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(u32);

impl ActorId {
    /// Raw index (useful for logging).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A simulation component.
///
/// `M` is the message alphabet of the whole simulation, defined by the
/// embedding crate (`farview-core` defines one for the Farview datapath).
/// The `Any` supertrait allows the owner to downcast actors back to their
/// concrete type after (or during pauses of) a run, e.g. to read out
/// statistics — see [`Simulation::actor`].
pub trait Actor<M>: Any {
    /// Handle one message delivered at `ctx.now()`.
    fn on_message(&mut self, msg: M, ctx: &mut Context<'_, M>);
}

/// Scheduling interface handed to an actor while it handles a message.
pub struct Context<'a, M> {
    now: SimTime,
    me: ActorId,
    outbox: &'a mut Vec<(SimTime, ActorId, M)>,
}

impl<M> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor currently executing.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Send `msg` to `to`, delivered `delay` from now.
    pub fn send(&mut self, to: ActorId, delay: SimDuration, msg: M) {
        self.outbox.push((self.now + delay, to, msg));
    }

    /// Send `msg` to `to` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past; events must never travel backwards.
    #[expect(
        clippy::disallowed_macros,
        reason = "every caller schedules at `now` plus a duration, so `at >= now`"
    )]
    pub fn send_at(&mut self, to: ActorId, at: SimTime, msg: M) {
        assert!(at >= self.now, "send_at into the past: {at} < {}", self.now);
        self.outbox.push((at, to, msg));
    }

    /// Send `msg` to ourselves after `delay` (timer pattern).
    pub fn send_self(&mut self, delay: SimDuration, msg: M) {
        let me = self.me;
        self.send(me, delay, msg);
    }
}

#[derive(Debug)]
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    to: ActorId,
    msg: M,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The event engine: owns actors, the event queue, and the clock.
pub struct Simulation<M> {
    now: SimTime,
    seq: u64,
    delivered: u64,
    actors: Vec<Box<dyn Actor<M>>>,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    outbox: Vec<(SimTime, ActorId, M)>,
}

impl<M: 'static> Default for Simulation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: 'static> Simulation<M> {
    /// An empty simulation at t = 0.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            delivered: 0,
            actors: Vec::new(),
            queue: BinaryHeap::new(),
            outbox: Vec::new(),
        }
    }

    /// Register an actor, returning its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        #[expect(
            clippy::expect_used,
            reason = "a simulation holds far fewer than 2^32 actors"
        )]
        let id = ActorId(u32::try_from(self.actors.len()).expect("too many actors"));
        self.actors.push(actor);
        id
    }

    /// Current simulated time (the timestamp of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Inject a message from outside the simulation (e.g. a client request
    /// at t = now + delay).
    pub fn inject(&mut self, to: ActorId, delay: SimDuration, msg: M) {
        let at = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, to, msg }));
    }

    /// Deliver events until the queue is empty.
    ///
    /// `max_events` is a runaway guard: a simulation that schedules more
    /// events than that is considered livelocked.
    ///
    /// # Panics
    /// Panics if `max_events` is exceeded or a message addresses an
    /// unregistered actor.
    #[expect(
        clippy::disallowed_macros,
        clippy::panic,
        reason = "the livelock guard is the documented contract; ids are minted by `add_actor`"
    )]
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        let mut budget = max_events;
        while let Some(Reverse(ev)) = self.queue.pop() {
            assert!(
                budget > 0,
                "simulation exceeded {max_events} events; livelock?"
            );
            budget -= 1;
            debug_assert!(ev.at >= self.now, "event queue produced time travel");
            self.now = ev.at;
            self.delivered += 1;

            let idx = ev.to.index();
            let actor = self
                .actors
                .get_mut(idx)
                .unwrap_or_else(|| panic!("message to unknown actor #{idx}"));
            let mut ctx = Context {
                now: self.now,
                me: ev.to,
                outbox: &mut self.outbox,
            };
            actor.on_message(ev.msg, &mut ctx);

            for (at, to, msg) in self.outbox.drain(..) {
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(Reverse(Scheduled { at, seq, to, msg }));
            }
        }
    }

    /// Borrow an actor back as its concrete type (post-run inspection).
    ///
    /// Returns `None` if the id is unknown or the type does not match.
    pub fn actor<T: Actor<M>>(&self, id: ActorId) -> Option<&T> {
        let actor = self.actors.get(id.index())?;
        (actor.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrow an actor back as its concrete type.
    pub fn actor_mut<T: Actor<M>>(&mut self, id: ActorId) -> Option<&mut T> {
        let actor = self.actors.get_mut(id.index())?;
        (actor.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    /// Replies to Ping with Pong after a fixed service time.
    struct Echo {
        service: SimDuration,
        reply_to: ActorId,
        served: u32,
    }

    impl Actor<Msg> for Echo {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Ping(n) = msg {
                self.served += 1;
                ctx.send(self.reply_to, self.service, Msg::Pong(n));
            }
        }
    }

    /// Records Pong arrival times.
    #[derive(Default)]
    struct Sink {
        arrivals: Vec<(SimTime, u32)>,
    }

    impl Actor<Msg> for Sink {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Pong(n) = msg {
                self.arrivals.push((ctx.now(), n));
            }
        }
    }

    #[test]
    fn ping_pong_timing() {
        let mut sim = Simulation::new();
        let sink = sim.add_actor(Box::new(Sink::default()));
        let echo = sim.add_actor(Box::new(Echo {
            service: SimDuration::from_nanos(100),
            reply_to: sink,
            served: 0,
        }));

        sim.inject(echo, SimDuration::from_nanos(10), Msg::Ping(1));
        sim.inject(echo, SimDuration::from_nanos(10), Msg::Ping(2));
        sim.run_to_quiescence(1_000);

        assert_eq!(sim.now(), SimTime::from_nanos(110));
        let sink = sim.actor::<Sink>(sink).unwrap();
        // Same-time events preserve injection order.
        assert_eq!(
            sink.arrivals,
            vec![(SimTime::from_nanos(110), 1), (SimTime::from_nanos(110), 2)]
        );
        let echo = sim.actor::<Echo>(echo).unwrap();
        assert_eq!(echo.served, 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new();
            let sink = sim.add_actor(Box::new(Sink::default()));
            let echo = sim.add_actor(Box::new(Echo {
                service: SimDuration::from_nanos(7),
                reply_to: sink,
                served: 0,
            }));
            for i in 0..64 {
                sim.inject(
                    echo,
                    SimDuration::from_nanos(u64::from(i % 5)),
                    Msg::Ping(i),
                );
            }
            sim.run_to_quiescence(10_000);
            sim.actor::<Sink>(sink).unwrap().arrivals.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let mut sim: Simulation<Msg> = Simulation::new();
        let sink = sim.add_actor(Box::new(Sink::default()));
        assert!(sim.actor::<Echo>(sink).is_none());
        assert!(sim.actor::<Sink>(sink).is_some());
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn runaway_guard_fires() {
        /// Sends itself a message forever.
        struct Loopy;
        impl Actor<Msg> for Loopy {
            fn on_message(&mut self, _msg: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.send_self(SimDuration::from_nanos(1), Msg::Ping(0));
            }
        }
        let mut sim = Simulation::new();
        let id = sim.add_actor(Box::new(Loopy));
        sim.inject(id, SimDuration::ZERO, Msg::Ping(0));
        sim.run_to_quiescence(100);
    }

    #[test]
    fn timers_via_send_self() {
        struct Timer {
            fires: Vec<SimTime>,
        }
        impl Actor<Msg> for Timer {
            fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
                if let Msg::Ping(n) = msg {
                    self.fires.push(ctx.now());
                    if n > 0 {
                        ctx.send_self(SimDuration::from_nanos(50), Msg::Ping(n - 1));
                    }
                }
            }
        }
        let mut sim = Simulation::new();
        let id = sim.add_actor(Box::new(Timer { fires: vec![] }));
        sim.inject(id, SimDuration::ZERO, Msg::Ping(3));
        sim.run_to_quiescence(100);
        let t = sim.actor::<Timer>(id).unwrap();
        assert_eq!(
            t.fires,
            vec![
                SimTime::from_nanos(0),
                SimTime::from_nanos(50),
                SimTime::from_nanos(100),
                SimTime::from_nanos(150)
            ]
        );
    }
}
