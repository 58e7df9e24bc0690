//! # wormcast-sim — discrete-event simulation kernel
//!
//! The execution substrate for the wormcast network simulator. The paper's
//! authors built their simulator on MultiSim/CSIM-18, a C process-oriented
//! simulation package; this crate is the from-scratch Rust equivalent:
//!
//! * [`time`] — integer-picosecond simulated time ([`SimTime`], [`SimDuration`]);
//! * [`queue`] — the future-event list ([`EventQueue`]) with deterministic
//!   FIFO tie-breaking, so runs are bit-reproducible;
//! * [`lanes`] — the delay-lane event list ([`LaneQueue`]): the same
//!   deterministic ordering at O(1) cost per event for fixed relative
//!   delays, used by the network engine's hot path (no cancellation);
//! * [`active_set`] — bitmap index sets ([`ActiveSet`]) for dense id
//!   worklists;
//! * [`rng`] — seeded, labelled random substreams ([`SimRng`]);
//! * [`dist`] — the sampling distributions the workloads need;
//! * [`schedule`] — dynamic scenario schedules ([`Schedule`]): load ramps,
//!   link-bandwidth modulation, hotspot drift and trace replay.
//!
//! Engines (e.g. `wormcast-network`) own an [`EventQueue`] over their own event
//! enum and drive the classic loop:
//!
//! ```
//! use wormcast_sim::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_us(1.0), Ev::Ping(0));
//! while let Some((now, Ev::Ping(k))) = q.pop() {
//!     if k < 3 {
//!         q.schedule(now + SimDuration::from_us(1.0), Ev::Ping(k + 1));
//!     }
//! }
//! assert_eq!(q.now(), SimTime::from_us(4.0));
//! ```

#![warn(missing_docs)]

pub mod active_set;
pub mod dist;
pub mod lanes;
pub mod queue;
pub mod rng;
pub mod schedule;
pub mod time;

pub use active_set::ActiveSet;
pub use dist::{
    BimodalLength, ChoiceLength, DurationDist, Exponential, Fixed, FixedLength, LengthDist,
};
pub use lanes::LaneQueue;
pub use queue::{EventId, EventQueue};
pub use rng::SimRng;
pub use schedule::{
    HotspotDrift, LinkModulation, LoadRamp, RampPoint, ReplayEntry, Schedule, SpeedTransition,
    TraceReplay, MAX_PHASE_MARKS,
};
pub use time::{SimDuration, SimTime, PS_PER_MS, PS_PER_US};
