//! Measurement execution for explicit scenarios — the run entry point the
//! `simcheck --scenario FILE` CLI and the `wormcast-serve` server share.
//!
//! Where [`crate::run`] executes a scenario to *check* it (differential
//! oracle, invariant sinks), this module executes it to
//! *measure* it: one engine run per replication, returning delivery counts,
//! latency statistics and (optionally) the NDJSON event stream. Results are
//! a pure function of the request — independent of `jobs`, `shards`, wall
//! clock and host — which is what lets the serve layer cache and coalesce runs by
//! canonical config hash.

use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::Serialize;
use wormcast_network::Network;
use wormcast_routing::{SimTopology, TorusDor};
use wormcast_sim::SimTime;
use wormcast_stats::summarize;
use wormcast_telemetry::{Event, EventLog};
use wormcast_topology::{Mesh, NodeId, Topology, Torus};
use wormcast_workload::{routing_for, run_to_idle, BroadcastTracker, Runner};

use crate::run::{base_cfg, fault_plan, mesh_workload, ring_tracker, Injection, TRACE_CAP};
use crate::scenario::{Scenario, TopoSpec, WorkloadSpec};
use crate::schema::ScenarioRequest;
use wormcast_broadcast::Algorithm;

/// What measuring one scenario replication produced.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Payload copies absorbed across the run.
    pub deliveries: u64,
    /// Final simulation clock in picoseconds.
    pub final_now_ps: u64,
    /// Mean delivery latency in microseconds (0 when nothing delivered).
    pub mean_latency_us: f64,
    /// Sample standard deviation of delivery latency in microseconds.
    pub sd_latency_us: f64,
    /// Coefficient of variation of delivery latency.
    pub cv_latency: f64,
    /// The engine event stream, when requested (rep field pre-stamped).
    pub events: Option<EventLog>,
}

/// The physics half of a request's result: deterministic scalars only, in
/// the shape the serve result frame serializes. Aggregated over
/// replications by [`measure_request`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MeasureSummary {
    /// Total payload copies absorbed across all replications.
    pub deliveries: u64,
    /// Maximum final simulation clock over replications, picoseconds.
    pub final_now_ps: u64,
    /// Mean over replications of the per-replication mean latency (µs).
    pub mean_latency_us: f64,
    /// Mean over replications of the per-replication latency SD (µs).
    pub sd_latency_us: f64,
    /// Mean over replications of the per-replication latency CV.
    pub cv_latency: f64,
}

/// A fully-executed request: the deterministic summary plus the merged
/// event stream (replication order) when the request asked for events.
#[derive(Debug)]
pub struct RequestRun {
    /// Aggregated deterministic result.
    pub summary: MeasureSummary,
    /// Merged event log, `Some` iff the request set `outputs.events`.
    pub events: Option<EventLog>,
}

/// Measure one scenario replication on the arena engine. `events_rep`
/// requests event capture, stamped with the given replication index.
///
/// Engine panics (hand-written scenarios can violate preconditions the
/// generator never does, e.g. EDN on a 2-D mesh) are caught and reported as
/// errors so a serving process survives bad requests.
///
/// # Errors
/// Invalid scenarios and engine panics.
pub fn measure_scenario(s: &Scenario, events_rep: Option<u64>) -> Result<Measurement, String> {
    let s = s.clone();
    catch_unwind(AssertUnwindSafe(move || measure_inner(&s, events_rep))).unwrap_or_else(
        |payload| {
            let msg = if let Some(m) = payload.downcast_ref::<&str>() {
                (*m).to_string()
            } else if let Some(m) = payload.downcast_ref::<String>() {
                m.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(format!("scenario execution panicked: {msg}"))
        },
    )
}

fn measure_inner(s: &Scenario, events_rep: Option<u64>) -> Result<Measurement, String> {
    match &s.topo {
        TopoSpec::Mesh(dims) => {
            if matches!(s.workload, WorkloadSpec::TorusRing { .. }) {
                return Err("the TorusRing workload requires a Torus topology".to_string());
            }
            measure_mesh(s, dims, events_rep)
        }
        TopoSpec::Torus(dims) => measure_torus(s, dims, events_rep),
    }
}

fn measure_mesh(
    s: &Scenario,
    dims: &[u16],
    events_rep: Option<u64>,
) -> Result<Measurement, String> {
    let mesh = Mesh::new(dims);
    let alg = s.workload.algorithm();
    let cfg = base_cfg(s, alg);
    let plan = fault_plan(s, &mesh);
    let (transitions, marks) = crate::run::schedule_artifacts(s, &mesh);
    let (injections, trackers) = mesh_workload(s, &mesh);
    let mut net = Network::new(mesh.clone(), cfg, routing_for(alg, &mesh));
    net.schedule_faults(&plan);
    net.schedule_speed_transitions(&transitions);
    net.schedule_phase_marks(&marks);
    run_single(&mut net, &injections, trackers, events_rep)
}

fn measure_torus(
    s: &Scenario,
    dims: &[u16],
    events_rep: Option<u64>,
) -> Result<Measurement, String> {
    let torus = Torus::new(dims);
    let WorkloadSpec::TorusRing { src, length } = s.workload else {
        return Err("torus scenarios support the TorusRing workload only".to_string());
    };
    let src = NodeId(src % torus.num_nodes() as u32);
    let cfg = base_cfg(s, Algorithm::Db);
    let mut net: Network<Torus> = Network::new(torus.clone(), cfg, Box::new(TorusDor));
    let trackers = vec![ring_tracker(&torus, src, length)];
    run_single(&mut net, &[], trackers, events_rep)
}

/// Drive an engine to quiescence and summarize it.
fn run_single<T: SimTopology>(
    net: &mut Network<T>,
    injections: &[Injection],
    trackers: Vec<BroadcastTracker>,
    events_rep: Option<u64>,
) -> Result<Measurement, String> {
    if events_rep.is_some() {
        net.enable_trace(TRACE_CAP);
    }
    let (deliveries, _) = run_to_idle(net, injections, trackers);
    let events = events_rep.map(|rep| events_from(net.trace().records(), rep));
    Ok(measurement(&deliveries, net.now(), events))
}

fn events_from<'a>(records: impl Iterator<Item = &'a Event>, rep: u64) -> EventLog {
    let mut log = EventLog::default();
    for e in records {
        log.push(Event { rep, ..*e });
    }
    log
}

fn measurement(
    deliveries: &[wormcast_network::Delivery],
    now: SimTime,
    events: Option<EventLog>,
) -> Measurement {
    let lat: Vec<f64> = deliveries.iter().map(|d| d.latency().as_us()).collect();
    let st = summarize(&lat);
    Measurement {
        deliveries: deliveries.len() as u64,
        final_now_ps: now.as_ps(),
        mean_latency_us: st.mean(),
        sd_latency_us: st.std_dev(),
        cv_latency: st.cv(),
        events,
    }
}

/// Execute a whole [`ScenarioRequest`]: `reps` replications (replication
/// `r` runs the scenario with its `index` advanced by `r`, so workload
/// substreams decorrelate while every config field stays fixed), folded in
/// replication order. The summary and event stream depend only on the
/// request, never on `jobs` or scheduling. `shards` selects nothing: every
/// replication runs on the one engine.
///
/// # Errors
/// Propagates the first replication error (bad scenario, engine panic).
pub fn measure_request(req: &ScenarioRequest) -> Result<RequestRun, String> {
    let reps = req.reps as usize;
    let runner = Runner::new(req.jobs as usize);
    let mut measurements: Vec<Measurement> = Vec::with_capacity(reps);
    let mut first_err: Option<String> = None;
    runner.run(
        reps,
        |r| {
            let s = Scenario {
                index: req.scenario.index + r as u64,
                ..req.scenario.clone()
            };
            measure_scenario(&s, req.outputs.events.then_some(r as u64))
        },
        |r, out| match out {
            Ok(m) => measurements.push(m),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(format!("replication {r}: {e}"));
                }
            }
        },
    );
    if let Some(e) = first_err {
        return Err(e);
    }
    let means: Vec<f64> = measurements.iter().map(|m| m.mean_latency_us).collect();
    let sds: Vec<f64> = measurements.iter().map(|m| m.sd_latency_us).collect();
    let cvs: Vec<f64> = measurements.iter().map(|m| m.cv_latency).collect();
    let summary = MeasureSummary {
        deliveries: measurements.iter().map(|m| m.deliveries).sum(),
        final_now_ps: measurements
            .iter()
            .map(|m| m.final_now_ps)
            .max()
            .unwrap_or(0),
        mean_latency_us: summarize(&means).mean(),
        sd_latency_us: summarize(&sds).mean(),
        cv_latency: summarize(&cvs).mean(),
    };
    let events = if req.outputs.events {
        let mut log = EventLog::default();
        for m in &measurements {
            if let Some(l) = &m.events {
                log.merge(l);
            }
        }
        Some(log)
    } else {
        None
    };
    Ok(RequestRun { summary, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_telemetry::events::validate_ndjson;

    fn small_scenario() -> Scenario {
        Scenario {
            seed: 7,
            index: 0,
            topo: TopoSpec::Mesh(vec![4, 4]),
            mode: wormcast_network::ReleaseMode::PathHolding,
            workload: WorkloadSpec::Single {
                alg: Algorithm::Db,
                src: 0,
                length: 16,
            },
            fail_stop_rate: 0.0,
            transient_rate: 0.0,
            watchdog_us: 0.0,
            schedule: None,
        }
    }

    #[test]
    fn measurement_is_deterministic() {
        let s = small_scenario();
        let a = measure_scenario(&s, None).expect("runs");
        let b = measure_scenario(&s, None).expect("runs");
        assert_eq!(a.deliveries, 15, "broadcast reaches the other 15 nodes");
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.final_now_ps, b.final_now_ps);
        assert_eq!(a.mean_latency_us, b.mean_latency_us);
        assert!(a.mean_latency_us > 0.0);
    }

    #[test]
    fn generated_scenarios_measure_cleanly() {
        for i in 0..8 {
            let s = Scenario::generate(2005, i);
            let m = measure_scenario(&s, None).unwrap_or_else(|e| panic!("scenario {i}: {e}"));
            assert!(m.final_now_ps > 0, "scenario {i} never advanced the clock");
        }
    }

    #[test]
    fn events_stream_validates_and_stamps_rep() {
        let s = small_scenario();
        let m = measure_scenario(&s, Some(3)).expect("runs");
        let log = m.events.expect("events requested");
        assert!(!log.is_empty());
        let nd = log.into_ndjson();
        let stats = validate_ndjson(&nd).expect("schema-valid NDJSON");
        assert!(stats.lines > 0);
        assert!(nd.lines().all(|l| l.contains("\"rep\":3")));
    }

    #[test]
    fn request_results_are_independent_of_jobs() {
        let mut req = ScenarioRequest::new(small_scenario());
        req.reps = 4;
        req.outputs.events = true;
        req.jobs = 1;
        let a = measure_request(&req).expect("runs");
        req.jobs = 4;
        let b = measure_request(&req).expect("runs");
        assert_eq!(a.summary, b.summary);
        assert_eq!(
            a.events.as_ref().unwrap().to_ndjson(),
            b.events.as_ref().unwrap().to_ndjson(),
            "event stream must fold in replication order regardless of jobs"
        );
    }

    #[test]
    fn invalid_combinations_error_instead_of_panicking() {
        let mut s = small_scenario();
        s.workload = WorkloadSpec::TorusRing { src: 0, length: 8 };
        assert!(measure_scenario(&s, None).is_err());
        // EDN on a 2-D mesh violates the schedule builder's precondition;
        // the panic must surface as an error, not kill the caller.
        let mut bad = small_scenario();
        bad.workload = WorkloadSpec::Single {
            alg: Algorithm::Edn,
            src: 0,
            length: 8,
        };
        bad.topo = TopoSpec::Mesh(vec![4, 4]);
        assert!(measure_scenario(&bad, None).is_err());
    }
}
