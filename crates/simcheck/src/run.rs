//! Scenario execution: materialize the workload, drive one or both engines,
//! compare the observable records and collect invariant verdicts.
//!
//! [`Family::Differential`] scenarios run on the classic oracle
//! (`wormcast_network::classic`) and the active-set engine and must agree
//! bit-for-bit on the full flit-event trace, the delivery sequence, the
//! aggregate counters and the final clock. [`Family::InvariantOnly`]
//! scenarios (watchdog, transients, adaptive routing under faults) run on
//! the active-set engine alone under the event-level invariant checker.

use std::panic::{catch_unwind, AssertUnwindSafe};

use wormcast_broadcast::{torus_ring_broadcast, Algorithm};
use wormcast_network::{
    classic, Counters, Delivery, Event, FaultPlan, FaultSpec, MessageSpec, Network, NetworkConfig,
    OpId, Route,
};
#[cfg(feature = "invariants")]
use wormcast_network::{InvariantChecker, MessageId};
use wormcast_routing::{dor_path, CodedPath, TorusDor};
use wormcast_sim::{SimRng, SimTime, SpeedTransition};
use wormcast_topology::{ChannelId, Mesh, NodeId, Topology, Torus};
use wormcast_workload::{random_destinations, routing_for, BroadcastTracker};

use crate::scenario::{Family, Scenario, TopoSpec, WorkloadSpec};

/// Trace capacity per engine run (same bound the differential suite uses).
pub(crate) const TRACE_CAP: usize = 4_000_000;

/// The offered-traffic window every stochastic arrival lands in, in µs —
/// also the horizon schedule phase marks are materialized against.
pub(crate) const ARRIVAL_WINDOW_US: f64 = 40.0;

/// Extra execution knobs, mostly for exercising simcheck itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Arm the engine's `#[cfg]`-gated sabotage hook before driving the
    /// active-set engine: the next channel release is silently skipped,
    /// leaking a held channel. With the `invariants` feature on this must
    /// be caught by the checker; without the feature it is ignored.
    pub sabotage: bool,
}

/// What running one scenario produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Which checking regime ran.
    pub family: Family,
    /// The scenario was invariant-only but this build has no `invariants`
    /// feature, so nothing ran.
    pub skipped: bool,
    /// Invariant violations (event-level checker plus completion audit).
    pub violations: Vec<String>,
    /// First observed divergence between the two engines, if any.
    pub mismatch: Option<String>,
    /// A panic escaped the run (engine deep-check assertion, tracker
    /// duplicate-delivery assertion, or a genuine engine crash).
    pub panic: Option<String>,
}

impl Outcome {
    /// No violations, no divergence, no panic.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.mismatch.is_none() && self.panic.is_none()
    }
}

/// One pre-scheduled background injection.
#[derive(Debug, Clone)]
pub(crate) struct Injection {
    pub(crate) at: SimTime,
    pub(crate) spec: MessageSpec,
}

/// Everything an engine run can be observed to do.
struct RunRecord {
    trace: Vec<Event>,
    deliveries: Vec<Delivery>,
    counters: Counters,
    final_now: SimTime,
    in_flight: u64,
    ops_done: bool,
}

/// The torus ring broadcast from `source` as an operation tracker.
pub(crate) fn ring_tracker(torus: &Torus, source: NodeId, length: u64) -> BroadcastTracker {
    let schedule = torus_ring_broadcast(torus, source);
    BroadcastTracker::new(torus, &schedule, OpId(0), length)
}

/// Drive an engine until idle: pre-fail dead channels are applied by the
/// caller; injections land at their scheduled times; trackers release relay
/// messages as their copies arrive. `$on_inject` sees every message id the
/// engine hands back (used to register invariant expectations).
///
/// A macro rather than `wormcast_workload::Ops`, because it must also drive
/// the `classic` oracle, which is a different (and deliberately frozen)
/// engine type.
macro_rules! drive {
    ($net:expr, $injections:expr, $trackers:expr, $on_inject:expr) => {{
        let net = $net;
        net.enable_trace(TRACE_CAP);
        for inj in $injections.iter() {
            let id = net.inject_at(inj.at, inj.spec.clone());
            $on_inject(id, &inj.spec);
        }
        for t in $trackers.iter_mut() {
            for spec in t.start(SimTime::ZERO) {
                let id = net.inject_at(SimTime::ZERO, spec.clone());
                $on_inject(id, &spec);
            }
        }
        let mut deliveries = Vec::new();
        while let Some(del) = net.next_delivery() {
            for t in $trackers.iter_mut() {
                for spec in t.on_delivery(&del) {
                    let id = net.inject_at(del.delivered_at, spec.clone());
                    $on_inject(id, &spec);
                }
            }
            deliveries.push(del);
        }
        RunRecord {
            trace: net.trace().records().copied().collect(),
            deliveries,
            counters: net.counters(),
            final_now: net.now(),
            in_flight: net.in_flight(),
            ops_done: $trackers.iter().all(|t| t.is_complete()),
        }
    }};
}

/// Run `scenario` with default options.
pub fn run_scenario(scenario: &Scenario) -> Outcome {
    run_scenario_with(scenario, RunOptions::default())
}

/// Run `scenario`; panics inside the engines (deep-check assertions,
/// tracker assertions) are caught and reported in [`Outcome::panic`].
pub fn run_scenario_with(scenario: &Scenario, opts: RunOptions) -> Outcome {
    let family = scenario.family();
    if family == Family::InvariantOnly && !cfg!(feature = "invariants") {
        return Outcome {
            family,
            skipped: true,
            violations: Vec::new(),
            mismatch: None,
            panic: None,
        };
    }
    match catch_unwind(AssertUnwindSafe(|| execute(scenario, opts))) {
        Ok(outcome) => outcome,
        Err(payload) => Outcome {
            family,
            skipped: false,
            violations: Vec::new(),
            mismatch: None,
            // `&*` matters: coercing `&Box<dyn Any>` itself to `&dyn Any`
            // would make every downcast miss.
            panic: Some(panic_message(&*payload)),
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn execute(s: &Scenario, opts: RunOptions) -> Outcome {
    match &s.topo {
        TopoSpec::Mesh(dims) => execute_mesh(s, dims, opts),
        TopoSpec::Torus(dims) => execute_torus(s, dims, opts),
    }
}

/// Network configuration shared by both engines for this scenario.
pub(crate) fn base_cfg(s: &Scenario, alg: Algorithm) -> NetworkConfig {
    NetworkConfig::builder()
        .release(s.mode)
        .watchdog_us(s.watchdog_us)
        .build()
        .expect("generated configurations are valid")
        .with_ports(alg.ports())
}

/// The scenario's fault plan, derived from its dedicated substream.
pub(crate) fn fault_plan(s: &Scenario, mesh: &Mesh) -> FaultPlan {
    let spec = FaultSpec {
        link_fail_rate: s.fail_stop_rate,
        node_fail_rate: 0.0,
        transient_rate: s.transient_rate,
        transient_window_us: 40.0,
        outage_us: 10.0,
    };
    if spec.is_zero() {
        return FaultPlan::new();
    }
    let mut rng = SimRng::for_replication(s.seed, s.index).substream("simcheck-faults");
    FaultPlan::sample(mesh, &spec, &mut rng)
}

/// The scenario's schedule-derived engine inputs: link-speed transitions
/// (materialized from the dedicated `simcheck-schedule` substream and
/// filtered to physically present channels — the raw channel id space has
/// boundary slots with no link) plus deterministic phase marks. Every
/// engine leg of the scenario applies the same artifacts in the same order,
/// which is what keeps the differential oracle honest under schedules.
pub(crate) fn schedule_artifacts(
    s: &Scenario,
    mesh: &Mesh,
) -> (Vec<SpeedTransition>, Vec<(SimTime, u32)>) {
    let Some(sched) = &s.schedule else {
        return (Vec::new(), Vec::new());
    };
    let mut rng = SimRng::for_replication(s.seed, s.index).substream("simcheck-schedule");
    let mut transitions = sched.speed_transitions(mesh.num_channels(), &mut rng);
    transitions.retain(|t| mesh.channel_exists(ChannelId(t.channel)));
    (transitions, sched.phase_marks(ARRIVAL_WINDOW_US))
}

/// Materialize the background unicast stream (Unicasts / Mixed workloads).
/// A schedule warps arrival draws through the load ramp and biases
/// destinations toward the drifting hotspot; without one, the draw sequence
/// is byte-identical to the historical stationary plan.
fn unicast_plan(s: &Scenario, mesh: &Mesh, alg: Algorithm, n: u32, max_len: u64) -> Vec<Injection> {
    let mut rng = SimRng::for_replication(s.seed, s.index).substream("simcheck-unicasts");
    let nodes = mesh.num_nodes();
    let adaptive = matches!(alg, Algorithm::Ab | Algorithm::Qab);
    let sched = s.schedule.clone().unwrap_or_default();
    (0..n)
        .map(|i| {
            let src = NodeId(rng.index(nodes) as u32);
            let mut dst = loop {
                let d = NodeId(rng.index(nodes) as u32);
                if d != src {
                    break d;
                }
            };
            let at_us = sched.warp_arrival(rng.unit(), ARRIVAL_WINDOW_US);
            if let Some(h) = &sched.hotspot {
                if rng.chance(h.weight) {
                    let hot = NodeId(h.position_at(at_us, nodes));
                    if hot != src {
                        dst = hot;
                    }
                }
            }
            let route = if adaptive {
                Route::Adaptive { dst }
            } else {
                Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, src, dst)))
            };
            Injection {
                at: SimTime::from_us(at_us),
                spec: MessageSpec {
                    src,
                    route,
                    length: 1 + rng.index(max_len as usize) as u64,
                    op: OpId(1000 + i as u64),
                    tag: 0,
                    charge_startup: rng.chance(0.5),
                },
            }
        })
        .collect()
}

/// Materialize the schedule's trace-replay dimension as extra offered
/// traffic: each recorded entry becomes one fixed-route unicast at its
/// recorded time, in a dedicated `OpId` range so replayed messages never
/// collide with workload operations.
fn replay_plan(s: &Scenario, mesh: &Mesh) -> Vec<Injection> {
    let Some(replay) = s.schedule.as_ref().and_then(|x| x.replay.as_ref()) else {
        return Vec::new();
    };
    let nodes = mesh.num_nodes() as u32;
    replay
        .entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let src = NodeId(e.src % nodes);
            let dst = NodeId(e.dst % nodes);
            if src == dst {
                return None;
            }
            Some(Injection {
                at: SimTime::from_us(e.at_us),
                spec: MessageSpec {
                    src,
                    route: Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, src, dst))),
                    length: e.length.max(1),
                    op: OpId(500_000 + i as u64),
                    tag: 0,
                    charge_startup: true,
                },
            })
        })
        .collect()
}

/// Materialize injections and operation trackers for a mesh scenario. Node indices are
/// taken modulo the (possibly shrunk) mesh size.
///
/// # Panics
/// Panics on a [`WorkloadSpec::TorusRing`] workload — mesh scenarios never
/// carry one (callers handling hand-written scenarios must check first).
pub(crate) fn mesh_workload(s: &Scenario, mesh: &Mesh) -> (Vec<Injection>, Vec<BroadcastTracker>) {
    let nodes = mesh.num_nodes();
    let clamp = |raw: u32| NodeId(raw % nodes as u32);
    let (mut injections, trackers) = match s.workload {
        WorkloadSpec::Single { alg, src, length } => {
            let schedule = alg.schedule(mesh, clamp(src));
            let t = BroadcastTracker::new(mesh, &schedule, OpId(0), length);
            (Vec::new(), vec![t])
        }
        WorkloadSpec::Unicasts { alg, n, max_len } => {
            (unicast_plan(s, mesh, alg, n, max_len), Vec::new())
        }
        WorkloadSpec::Mixed {
            alg,
            src,
            length,
            n_unicasts,
        } => {
            let schedule = alg.schedule(mesh, clamp(src));
            let t = BroadcastTracker::new(mesh, &schedule, OpId(0), length);
            (unicast_plan(s, mesh, alg, n_unicasts, 32), vec![t])
        }
        WorkloadSpec::Multicast {
            scheme,
            src,
            set_size,
            length,
        } => {
            let src = clamp(src);
            let m = (set_size as usize).clamp(1, nodes - 1);
            let dest_seed = SimRng::for_replication(s.seed, s.index)
                .substream("simcheck-dests")
                .next_u64();
            let dests = random_destinations(mesh, src, m, dest_seed);
            let schedule = scheme.schedule(mesh, src, &dests);
            let t = BroadcastTracker::multicast(mesh, &schedule, &dests, OpId(0), length);
            (Vec::new(), vec![t])
        }
        WorkloadSpec::Contended {
            alg,
            n_broadcasts,
            length,
        } => {
            let k = (n_broadcasts as usize).clamp(1, nodes);
            let mut rng = SimRng::for_replication(s.seed, s.index).substream("simcheck-sources");
            let mut sources: Vec<NodeId> = Vec::with_capacity(k);
            while sources.len() < k {
                let c = NodeId(rng.index(nodes) as u32);
                if !sources.contains(&c) {
                    sources.push(c);
                }
            }
            let trackers = sources
                .iter()
                .enumerate()
                .map(|(op, &src)| {
                    let schedule = alg.schedule(mesh, src);
                    BroadcastTracker::new(mesh, &schedule, OpId(op as u64), length)
                })
                .collect();
            (Vec::new(), trackers)
        }
        WorkloadSpec::TorusRing { .. } => unreachable!("torus workload on a mesh scenario"),
    };
    injections.extend(replay_plan(s, mesh));
    (injections, trackers)
}

/// Receivers a spec's route must deliver to — the exactly-once expectation.
#[cfg(feature = "invariants")]
fn receivers_of<T: Topology>(topo: &T, spec: &MessageSpec) -> Vec<NodeId> {
    match &spec.route {
        Route::Fixed(cp) => cp.receivers(topo),
        Route::Adaptive { dst } => vec![*dst],
    }
}

/// Bit-compare the classic oracle's run record `a` with the active-set
/// engine's `b`; returns a description of the first divergence found.
fn compare(a: &RunRecord, b: &RunRecord) -> Option<String> {
    let (la, lb) = ("classic", "active-set");
    for (i, (x, y)) in a.trace.iter().zip(b.trace.iter()).enumerate() {
        if x != y {
            let lo = i.saturating_sub(3);
            return Some(format!(
                "trace diverges at record {i}:\n  {la}: {:?}\n  {lb}: {:?}\n  {la} context: {:?}\n  {lb} context: {:?}",
                x,
                y,
                &a.trace[lo..(i + 2).min(a.trace.len())],
                &b.trace[lo..(i + 2).min(b.trace.len())]
            ));
        }
    }
    if a.trace.len() != b.trace.len() {
        return Some(format!(
            "trace lengths differ: {la} {} vs {lb} {}",
            a.trace.len(),
            b.trace.len()
        ));
    }
    if a.deliveries != b.deliveries {
        return Some(format!(
            "delivery sequences differ ({} vs {} deliveries)",
            a.deliveries.len(),
            b.deliveries.len()
        ));
    }
    if a.counters != b.counters {
        return Some(format!(
            "counters differ:\n  {la}: {:?}\n  {lb}: {:?}",
            a.counters, b.counters
        ));
    }
    if a.final_now != b.final_now {
        return Some(format!(
            "final clocks differ: {la} {:?} vs {lb} {:?}",
            a.final_now, b.final_now
        ));
    }
    if a.in_flight != b.in_flight {
        return Some(format!(
            "in-flight counts differ: {la} {} vs {lb} {}",
            a.in_flight, b.in_flight
        ));
    }
    None
}

fn execute_mesh(s: &Scenario, dims: &[u16], opts: RunOptions) -> Outcome {
    let mesh = Mesh::new(dims);
    let alg = s.workload.algorithm();
    let family = s.family();
    let cfg = base_cfg(s, alg);
    let plan = fault_plan(s, &mesh);

    // Active-set engine, with the event-level checker attached when built in.
    let (transitions, marks) = schedule_artifacts(s, &mesh);

    let arena_cfg = cfg.with_invariant_checks(cfg!(feature = "invariants"));
    let mut net = Network::new(mesh.clone(), arena_cfg, routing_for(alg, &mesh));
    #[cfg(feature = "invariants")]
    let checker = InvariantChecker::new(s.watchdog_us > 0.0);
    #[cfg(feature = "invariants")]
    net.add_sink(checker.sink());
    #[cfg(feature = "invariants")]
    if opts.sabotage {
        net.sabotage_skip_next_release();
    }
    #[cfg(not(feature = "invariants"))]
    let _ = opts;
    match family {
        // Fail-stop faults are applied identically to both engines.
        Family::Differential => {
            for ch in plan.dead_at_start() {
                net.fail_channel(ch);
            }
        }
        // Watchdog/transient regimes use the engine's fault scheduler.
        Family::InvariantOnly => net.schedule_faults(&plan),
    }
    net.schedule_speed_transitions(&transitions);
    net.schedule_phase_marks(&marks);
    #[cfg(feature = "invariants")]
    let on_inject = |id: MessageId, spec: &MessageSpec| {
        checker.expect_exactly_once(id, receivers_of(&mesh, spec), spec.length);
    };
    #[cfg(not(feature = "invariants"))]
    let on_inject = |_id, _spec: &MessageSpec| {};
    let (injections, mut trackers) = mesh_workload(s, &mesh);
    let arena_rec = drive!(&mut net, injections, trackers, on_inject);

    #[cfg(feature = "invariants")]
    let mut violations = checker.finish(arena_rec.in_flight);
    #[cfg(not(feature = "invariants"))]
    let mut violations: Vec<String> = Vec::new();
    let completed = arena_rec.ops_done && arena_rec.in_flight == 0;
    if !s.has_faults() && !completed {
        violations.push(format!(
            "fault-free scenario did not complete: in_flight={}, operations done={}",
            arena_rec.in_flight, arena_rec.ops_done
        ));
    }

    let mismatch = match family {
        Family::InvariantOnly => None,
        Family::Differential => {
            let mut cnet = classic::Network::new(mesh.clone(), cfg, routing_for(alg, &mesh));
            for ch in plan.dead_at_start() {
                cnet.fail_channel(ch);
            }
            cnet.schedule_speed_transitions(&transitions);
            cnet.schedule_phase_marks(&marks);
            let (cinjections, mut ctrackers) = mesh_workload(s, &mesh);
            let classic_rec = drive!(&mut cnet, cinjections, ctrackers, |_, _: &MessageSpec| {});
            compare(&classic_rec, &arena_rec)
        }
    };

    Outcome {
        family,
        skipped: false,
        violations,
        mismatch,
        panic: None,
    }
}

fn execute_torus(s: &Scenario, dims: &[u16], opts: RunOptions) -> Outcome {
    let torus = Torus::new(dims);
    let WorkloadSpec::TorusRing { src, length } = s.workload else {
        unreachable!("mesh workload on a torus scenario");
    };
    let src = NodeId(src % torus.num_nodes() as u32);
    let family = s.family();
    let cfg = base_cfg(s, Algorithm::Db);

    let arena_cfg = cfg.with_invariant_checks(cfg!(feature = "invariants"));
    let mut net: Network<Torus> = Network::new(torus.clone(), arena_cfg, Box::new(TorusDor));
    #[cfg(feature = "invariants")]
    let checker = InvariantChecker::new(false);
    #[cfg(feature = "invariants")]
    net.add_sink(checker.sink());
    #[cfg(feature = "invariants")]
    if opts.sabotage {
        net.sabotage_skip_next_release();
    }
    #[cfg(not(feature = "invariants"))]
    let _ = opts;
    #[cfg(feature = "invariants")]
    let on_inject = |id: MessageId, spec: &MessageSpec| {
        checker.expect_exactly_once(id, receivers_of(&torus, spec), spec.length);
    };
    #[cfg(not(feature = "invariants"))]
    let on_inject = |_id, _spec: &MessageSpec| {};
    let mut trackers = [ring_tracker(&torus, src, length)];
    let arena_rec = drive!(&mut net, Vec::<Injection>::new(), trackers, on_inject);

    #[cfg(feature = "invariants")]
    let mut violations = checker.finish(arena_rec.in_flight);
    #[cfg(not(feature = "invariants"))]
    let mut violations: Vec<String> = Vec::new();
    if !(arena_rec.ops_done && arena_rec.in_flight == 0) {
        violations.push(format!(
            "fault-free torus scenario did not complete: in_flight={}, operations done={}",
            arena_rec.in_flight, arena_rec.ops_done
        ));
    }

    let mut cnet: classic::Network<Torus> =
        classic::Network::new(torus.clone(), cfg, Box::new(TorusDor));
    let mut ctrackers = [ring_tracker(&torus, src, length)];
    let classic_rec = drive!(
        &mut cnet,
        Vec::<Injection>::new(),
        ctrackers,
        |_, _: &MessageSpec| {}
    );
    let mismatch = compare(&classic_rec, &arena_rec);

    Outcome {
        family,
        skipped: false,
        violations,
        mismatch,
        panic: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn first_scenarios_are_clean() {
        for i in 0..12 {
            let s = Scenario::generate(2005, i);
            let o = run_scenario(&s);
            assert!(o.is_clean(), "scenario {i} ({s:?}) not clean: {o:?}");
        }
    }

    #[test]
    fn outcomes_are_reproducible() {
        let s = Scenario::generate(11, 3);
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        assert_eq!(a.is_clean(), b.is_clean());
        assert_eq!(a.violations, b.violations);
    }

    #[cfg(feature = "invariants")]
    #[test]
    fn sabotage_is_caught() {
        // A deliberately injected engine bug — the next channel release is
        // skipped, leaking a held channel — must be flagged. Depending on
        // the release mode the leak trips either the engines' deep
        // structural check (a panic) or the checker's completion audit.
        let mut caught = 0;
        for i in 0..8 {
            let s = Scenario::generate(2005, i);
            let o = run_scenario_with(&s, RunOptions { sabotage: true });
            if !o.is_clean() {
                caught += 1;
            }
        }
        assert!(caught > 0, "sabotaged runs were never flagged");
    }
}
