//! # wormcast-network — the wormhole-switched mesh simulator
//!
//! An event-driven simulator of wormhole switching on k-ary n-dimensional
//! meshes, the substrate on which the four broadcast algorithms are
//! compared. See [`engine::Network`] for the model description (header/
//! channel granularity, FIFO channel queues, blocking-in-place, CPR
//! absorb-and-forward, per-node injection ports, start-up latency Ts).

#![warn(missing_docs)]

#[doc(hidden)]
pub mod classic;
pub mod config;
pub mod drive;
pub mod engine;
pub mod fault;
#[cfg(feature = "invariants")]
pub mod invariant;
pub mod message;
pub mod metrics;
pub mod simulation;
pub mod trace;

pub use config::{ConfigError, NetworkConfig, NetworkConfigBuilder, ReleaseMode};
pub use drive::{open_loop, Engine, RunRecord};
pub use engine::{EngineStats, Network};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
#[cfg(feature = "invariants")]
pub use invariant::InvariantChecker;
pub use message::{Delivery, MessageId, MessageSpec, OpId, Route};
pub use metrics::{Counters, CountersSink, MetricsSink, TraceSink, UtilizationSink};
pub use simulation::Simulation;
pub use trace::{Event, EventKind, Trace};

#[cfg(test)]
mod tests;
