//! # wormcast-workload — traffic generation and broadcast execution
//!
//! The drivers that put messages into the simulated network:
//!
//! * [`executor`] — the only code that executes broadcast operations: one
//!   [`BroadcastTracker`] type (full broadcast or multicast subset of a
//!   schedule over any topology; relays fire as their copies arrive) and
//!   one delivery loop, [`Ops`] (`launch` / `step`), with
//!   [`drive`] as its closed-loop form;
//! * [`single`] — single-source broadcast experiments on an idle network
//!   (the setting of the paper's Figs. 1–2 and Tables 1–2);
//! * [`contended`] — broadcasts under concurrent broadcast load, the
//!   steady-state setting behind the paper's CV tables (Fig. 2, Tables 1–2);
//! * [`mixed`] — the paper's §3.3 workload: 90% unicast / 10% broadcast
//!   Poisson traffic swept over offered load (Figs. 3–4);
//! * [`multicast`] — destination-subset delivery with the UM / CM / SP
//!   schemes (the paper's named future direction);
//! * [`faulty`] — broadcasts on faulted networks: plan-time schedule
//!   degradation around dead links, watchdog-guarded execution, and
//!   reliability metrics (delivery ratio, re-routes, stalls);
//! * [`torus`] — the k-ary n-cube ring broadcast executed on the real
//!   engine (`Network<Torus>`);
//! * [`harness`] — the replication harness: [`harness::Runner`] executes
//!   independent tasks across worker threads and folds the results
//!   deterministically (same bits for any `--jobs`).

#![warn(missing_docs)]

pub mod contended;
pub mod executor;
pub mod faulty;
pub mod harness;
pub mod mixed;
pub mod multicast;
pub mod patterns;
pub mod scrape;
pub mod single;
pub mod torus;

pub use contended::{
    run_contended_broadcasts, run_contended_broadcasts_observed, ContendedOutcome,
};
pub use executor::{drive, BroadcastTracker, Fed, Ops};
pub use faulty::{
    degrade_schedule, run_faulty_broadcast, run_faulty_broadcast_observed, DegradedSchedule,
    FaultRep, FaultyOutcome,
};
pub use harness::{take_probe, BroadcastRep, RepContext, RunProbe, Runner, TelemetryMerge};
pub use mixed::{run_mixed_traffic, run_mixed_traffic_observed, MixedConfig, MixedOutcome};
pub use multicast::{
    random_destinations, run_single_multicast, run_single_multicast_observed, MulticastOutcome,
    MulticastScheme,
};
pub use patterns::DestPattern;
pub use scrape::scrape_engine_stats;
pub use single::{
    attach_collector, finish_collector, network_for, routing_for, run_single_broadcast,
    run_single_broadcast_observed, BroadcastOutcome,
};
pub use torus::{run_torus_broadcast, TorusOutcome};
