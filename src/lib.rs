//! # wormcast — broadcast algorithms for wormhole-switched meshes
//!
//! A Rust reproduction of *"On the Performance of Broadcast Algorithms in
//! Interconnection Networks"* (Al-Dubai & Ould-Khaoua, ICPP Workshops 2005):
//! the coded-path-routing broadcast algorithms **DB** and **AB**, the
//! classical baselines **RD** (Recursive Doubling) and **EDN** (Extended
//! Dominating Node), and the event-driven wormhole-mesh simulator used to
//! compare them at both the network level (broadcast latency) and the node
//! level (coefficient of variation of arrival times) under a wide range of
//! traffic loads.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`sim`] | `wormcast-sim` | discrete-event kernel, RNG streams, distributions |
//! | [`topology`] | `wormcast-topology` | mesh / torus / generalized hypercube, partitioning |
//! | [`routing`] | `wormcast-routing` | DOR, turn models, coded-path routing (CPR) |
//! | [`network`] | `wormcast-network` | the wormhole network engine |
//! | [`broadcast`] | `wormcast-broadcast` | RD, EDN, DB, AB schedules |
//! | [`workload`] | `wormcast-workload` | broadcast executor, traffic generators |
//! | [`stats`] | `wormcast-stats` | CV, batch means, confidence intervals |
//! | [`telemetry`] | `wormcast-telemetry` | latency histograms, heatmaps, NDJSON events, provenance |
//! | [`experiments`] | `wormcast-experiments` | the paper's figures and tables |
//!
//! ## Quickstart
//!
//! ```
//! use wormcast::prelude::*;
//!
//! // An 8x8x8 wormhole mesh with the paper's Cray-T3D-era constants.
//! let mesh = Mesh::cube(8);
//! let cfg = NetworkConfig::paper_default();
//!
//! // Broadcast 100 flits from node 0 with the paper's DB algorithm.
//! let outcome = run_single_broadcast(&mesh, cfg, Algorithm::Db, NodeId(0), 100);
//! assert!(outcome.network_latency_us > 0.0);
//! assert!(outcome.cv < 0.5);
//!
//! // DB needs 4 message-passing steps regardless of network size.
//! assert_eq!(Algorithm::Db.theoretical_steps(&mesh), 4);
//! ```

pub use wormcast_broadcast as broadcast;
pub use wormcast_experiments as experiments;
pub use wormcast_network as network;
pub use wormcast_routing as routing;
pub use wormcast_sim as sim;
pub use wormcast_stats as stats;
pub use wormcast_telemetry as telemetry;
pub use wormcast_topology as topology;
pub use wormcast_workload as workload;

/// The names most programs need, in one import.
///
/// Covers the unified simulation API (`Simulation`,
/// `NetworkConfig::builder()`), the [`Experiment`](crate::experiments::Experiment)
/// trait over the paper's figures, the four broadcast algorithms (via
/// [`Algorithm`](crate::broadcast::Algorithm)), the telemetry
/// [`Collector`](crate::telemetry::Collector), and the workload drivers.
/// Every example under `examples/` compiles from this import alone.
pub mod prelude {
    pub use wormcast_broadcast::{
        ghc_broadcast, torus_ring_broadcast, Algorithm, BroadcastSchedule, RoutingKind,
    };
    pub use wormcast_experiments::{Experiment, Observation, RunOutput};
    pub use wormcast_network::{
        ConfigError, Delivery, EventKind, FaultPlan, FaultSpec, MessageSpec, Network,
        NetworkConfig, NetworkConfigBuilder, OpId, ReleaseMode, Route, Simulation,
    };
    pub use wormcast_routing::{
        dor_path, CodedPath, ControlField, DimensionOrdered, Path, RoutingFunction, WestFirst,
    };
    pub use wormcast_sim::{SimDuration, SimRng, SimTime};
    pub use wormcast_stats::{summarize, BatchMeans, OnlineStats};
    pub use wormcast_telemetry::{
        Collector, LatencyHistogram, Observe, RunManifest, TelemetryFrame, TelemetrySpec,
    };
    pub use wormcast_topology::{
        Coord, GeneralizedHypercube, Mesh, NodeId, Plane, Sign, Topology, Torus,
    };
    pub use wormcast_workload::{
        random_destinations, run_contended_broadcasts, run_faulty_broadcast, run_mixed_traffic,
        run_single_broadcast, run_single_multicast, run_torus_broadcast, BroadcastRep,
        BroadcastTracker, FaultRep, MixedConfig, MulticastScheme, RepContext, Runner,
    };
}
