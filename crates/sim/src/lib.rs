//! # fv-sim — deterministic discrete-event simulation substrate
//!
//! The Farview paper evaluates an FPGA smart NIC attached to a 100 Gbps
//! network. This reproduction has no FPGA and no RDMA fabric, so every
//! timing-sensitive experiment runs on the deterministic discrete-event
//! engine in this crate instead (see `DESIGN.md` §1 for the substitution
//! argument).
//!
//! The crate provides five things:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) and rate helpers (`bytes / bandwidth -> duration`).
//! * [`engine`] — a single-threaded actor-model event engine
//!   ([`Simulation`], [`Actor`], [`Context`]). Actors exchange typed
//!   messages with explicit delays; execution order is fully deterministic
//!   (time, then insertion sequence).
//! * [`queueing`] — reusable resource models: a serialized
//!   [`BandwidthServer`] (DRAM channel, PCIe hop, wire), and a
//!   deficit-round-robin [`DrrScheduler`] used for the fair-share
//!   arbitration the paper's network stack implements (§4.3), with
//!   per-flow quanta for weighted shares.
//! * [`rng`] — [`SplitMix64`], the one seeded generator every fault draw
//!   and think-time jitter comes from.
//! * [`calib`] — every hardware constant used anywhere in the
//!   reproduction, each documented with the sentence of the paper (or the
//!   public datasheet) it is calibrated against.
//!
//! Nothing in this crate knows about Farview specifically; `fv-mem`,
//! `fv-net` and `farview-core` instantiate actors on top of it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod calib;
pub mod cost;
pub mod engine;
pub mod queueing;
pub mod rng;
pub mod stats;
pub mod time;

pub use cost::{MigrationCostModel, PlanCostModel};
pub use engine::{Actor, ActorId, Context, Simulation};
pub use queueing::{BandwidthServer, DrrScheduler};
pub use rng::SplitMix64;
pub use stats::{Histogram, MergeCostModel};
pub use time::{SimDuration, SimTime};
