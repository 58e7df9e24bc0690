//! # wormcast-simcheck — deterministic scenario fuzzing for the simulator
//!
//! A FoundationDB-style simulation checker for the wormcast engine stack:
//!
//! * [`Scenario::generate`] — a seeded **scenario generator** sampling valid
//!   simulation cases (mesh/torus shapes, all four broadcast algorithms,
//!   single/mixed/multicast/contended workloads, fault regimes) from
//!   dedicated [`wormcast_sim::SimRng`] substreams, so every scenario is
//!   reproducible from `(seed, index)` alone;
//! * [`run_scenario`] — a **differential executor** driving each scenario
//!   through both the active-set engine and the retained classic oracle and
//!   bit-comparing the full observable record, with the event-level
//!   **invariant checker** (`wormcast_network::invariant`, behind the
//!   `invariants` feature) attached to the engine run;
//! * [`shrink`](mod@shrink) — a greedy **shrinker** that reduces a failing
//!   scenario to a minimal one and renders it as a ready-to-paste `#[test]`
//!   ([`repro_test`]);
//! * [`Report`] — the deterministic JSON campaign report the `simcheck`
//!   binary writes (byte-identical across reruns of the same campaign).
//!
//! The `simcheck` binary in this crate runs a campaign from the command
//! line: `simcheck --seed 2005 --count 200 --out results/simcheck.json`.

#![warn(missing_docs)]

pub mod campaign;
pub mod measure;
pub mod report;
pub mod run;
pub mod scenario;
pub mod schema;
pub mod shrink;

pub use campaign::campaign;
pub use measure::{measure_request, measure_scenario, MeasureSummary, Measurement};
pub use report::{Failure, Report};
pub use run::{run_scenario, run_scenario_with, Outcome, RunOptions};
pub use scenario::{Family, Scenario, TopoSpec, WorkloadSpec};
pub use schema::{
    canonical_json, scenario_from_json, schedule_from_json, RequestedOutputs, ScenarioRequest,
    SCHEMA_VERSION, SCHEMA_VERSION_MIN,
};
pub use shrink::{repro_test, shrink};
