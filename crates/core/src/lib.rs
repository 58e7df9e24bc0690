//! # wormcast-broadcast — broadcast algorithms for wormhole meshes
//!
//! The reproduction's core: the four broadcast algorithms compared by
//! Al-Dubai & Ould-Khaoua (ICPPW 2005), each expressed as a
//! [`BroadcastSchedule`] — a set of (possibly multidestination) messages
//! grouped into message-passing steps:
//!
//! | Algorithm | Module | Steps (3D) | Substrate |
//! |-----------|--------|------------|-----------|
//! | [`Algorithm::Rd`] (Recursive Doubling) | [`rd`] | ⌈log₂N⌉ | DOR unicast |
//! | [`Algorithm::Edn`] (Extended Dominating Node) | [`edn`] | k+m+4 | DOR unicast, 3-port |
//! | [`Algorithm::Db`] (Deterministic Broadcast) | [`db`] | 4 | DOR + CPR |
//! | [`Algorithm::Ab`] (Adaptive Broadcast) | [`ab`] | 3 | west-first + CPR |
//! | [`Algorithm::Qab`] (Queue-aware Adaptive Broadcast) | [`qab`] | 3 | queue-aware negative-first + CPR |
//!
//! Schedules are pure data: simulation happens in `wormcast-network`, driven
//! by the executor in `wormcast-workload`. [`BroadcastSchedule::validate`]
//! checks the correctness invariants (exactly-once coverage, causal senders,
//! port budgets) that every constructor here guarantees.
//!
//! The paper's future-directions topologies are covered by [`extensions`]:
//! ring-based coded-path broadcast on the k-ary n-cube and complete-graph
//! fan broadcast on the generalized hypercube, as ordinary
//! [`BroadcastSchedule`]s checked by the same validator.

#![warn(missing_docs)]

pub mod ab;
pub mod algorithm;
pub mod db;
pub mod edn;
pub mod extensions;
pub mod multicast;
pub mod qab;
pub mod rd;
pub mod schedule;
pub mod viz;

pub use ab::{ab_schedule, ab_steps};
pub use algorithm::{Algorithm, RoutingKind};
pub use db::{db_schedule, db_steps};
pub use edn::{edn_schedule, edn_steps};
pub use extensions::{ghc_broadcast, torus_ring_broadcast};
pub use multicast::{cpr_multicast, sp_multicast, um_multicast, um_steps, validate_multicast};
pub use qab::{qab_schedule, qab_steps};
pub use rd::{rd_schedule, rd_steps};
pub use schedule::{BroadcastSchedule, RoutePlan, ScheduleError, ScheduledMessage};
pub use viz::{render_all, render_step};
