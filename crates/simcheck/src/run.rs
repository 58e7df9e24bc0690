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
    classic, Engine, FaultPlan, FaultSpec, MessageSpec, Network, NetworkConfig, OpId, Route,
    RunRecord,
};
#[cfg(feature = "invariants")]
use wormcast_network::{Counters, Delivery, InvariantChecker, MessageId, Trace};
use wormcast_routing::{dor_path, CodedPath, RunPath, SimTopology, TorusDor, MAX_RUNS};
use wormcast_sim::{SimRng, SimTime, SpeedTransition};
use wormcast_topology::{ChannelId, Mesh, NodeId, Topology, Torus};
use wormcast_workload::{random_destinations, routing_for, run_to_idle, BroadcastTracker};

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

/// One pre-scheduled background injection: when, and what.
pub(crate) type Injection = (SimTime, MessageSpec);

/// The torus ring broadcast from `source` as an operation tracker.
pub(crate) fn ring_tracker(torus: &Torus, source: NodeId, length: u64) -> BroadcastTracker {
    let schedule = torus_ring_broadcast(torus, source);
    BroadcastTracker::new(torus, &schedule, OpId(0), length)
}

/// Run a prepared workload on `net` to idle under a trace: its run record,
/// and whether every operation completed.
fn record(
    net: &mut impl Engine,
    injections: &[Injection],
    trackers: Vec<BroadcastTracker>,
) -> (RunRecord, bool) {
    net.enable_trace(TRACE_CAP);
    let (deliveries, live) = run_to_idle(net, injections, trackers);
    (RunRecord::of(net, deliveries), live == 0)
}

/// The arena engine with the invariant checker's exactly-once expectation
/// registered for each message as it is injected, before it can deliver.
#[cfg(feature = "invariants")]
struct Expecting<'a, T: SimTopology> {
    net: &'a mut Network<T>,
    checker: &'a InvariantChecker,
}

#[cfg(feature = "invariants")]
impl<T: SimTopology> Engine for Expecting<'_, T> {
    fn inject_at(&mut self, at: SimTime, spec: MessageSpec) -> MessageId {
        let (receivers, length) = (spec.route.receivers(self.net.topology()), spec.length);
        let id = self.net.inject_at(at, spec);
        self.checker.expect_exactly_once(id, receivers, length);
        id
    }
    fn step(&mut self) -> bool {
        self.net.step()
    }
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        self.net.drain_deliveries_into(out);
    }
    fn next_event_time(&mut self) -> Option<SimTime> {
        self.net.next_event_time()
    }
    fn now(&self) -> SimTime {
        self.net.now()
    }
    fn in_flight(&self) -> u64 {
        self.net.in_flight()
    }
    fn enable_trace(&mut self, capacity: usize) {
        self.net.enable_trace(capacity);
    }
    fn trace(&self) -> &Trace {
        self.net.trace()
    }
    fn counters(&self) -> Counters {
        self.net.counters()
    }
}

/// Run a prepared workload on the arena engine `net` under the invariant
/// checker, when built in, with the sabotage hook armed if `opts` asks:
/// the run's record and the violations found. A run that `must_complete`
/// and left an operation or a message unfinished is a violation too.
fn checked_run<T: SimTopology>(
    s: &Scenario,
    net: &mut Network<T>,
    opts: RunOptions,
    (injections, trackers): (Vec<Injection>, Vec<BroadcastTracker>),
    must_complete: bool,
) -> (RunRecord, Vec<String>) {
    #[cfg(feature = "invariants")]
    let ((rec, done), mut violations) = {
        let checker = InvariantChecker::new(s.watchdog_us > 0.0);
        net.add_sink(checker.sink());
        if opts.sabotage {
            net.sabotage_skip_next_release();
        }
        let run = record(
            &mut Expecting {
                net,
                checker: &checker,
            },
            &injections,
            trackers,
        );
        let violations = checker.finish(run.0.in_flight);
        (run, violations)
    };
    #[cfg(not(feature = "invariants"))]
    let ((rec, done), mut violations) = {
        let _ = (s, opts);
        (record(net, &injections, trackers), Vec::new())
    };
    if must_complete && !(done && rec.in_flight == 0) {
        violations.push(format!(
            "fault-free scenario did not complete: in_flight={}, operations done={done}",
            rec.in_flight
        ));
    }
    (rec, violations)
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
    match catch_unwind(AssertUnwindSafe(|| execute(scenario, opts).0)) {
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

/// Run `s`: what the checks found, and the arena engine's run record.
fn execute(s: &Scenario, opts: RunOptions) -> (Outcome, RunRecord) {
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
                dor_route(mesh, src, dst)
            };
            let spec = MessageSpec {
                src,
                route,
                length: 1 + rng.index(max_len as usize) as u64,
                op: OpId(1000 + i as u64),
                tag: 0,
                charge_startup: rng.chance(0.5),
            };
            (SimTime::from_us(at_us), spec)
        })
        .collect()
}

/// The dimension-ordered unicast from `src` to `dst` as a run path. The
/// scenario grammar makes meshes of two or three dimensions, but a request
/// may name more, and a run path corrects at most [`MAX_RUNS`] of them:
/// such meshes keep the fixed coded path.
fn dor_route(mesh: &Mesh, src: NodeId, dst: NodeId) -> Route {
    if mesh.ndims() <= MAX_RUNS {
        Route::Runs(RunPath::dor(mesh, src, dst))
    } else {
        Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, src, dst)))
    }
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
            let spec = MessageSpec {
                src,
                route: dor_route(mesh, src, dst),
                length: e.length.max(1),
                op: OpId(500_000 + i as u64),
                tag: 0,
                charge_startup: true,
            };
            Some((SimTime::from_us(e.at_us), spec))
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

fn execute_mesh(s: &Scenario, dims: &[u16], opts: RunOptions) -> (Outcome, RunRecord) {
    let mesh = Mesh::new(dims);
    let alg = s.workload.algorithm();
    let family = s.family();
    let cfg = base_cfg(s, alg);
    let plan = fault_plan(s, &mesh);
    let (transitions, marks) = schedule_artifacts(s, &mesh);

    // Active-set engine, with the event-level checker attached when built in.
    let arena_cfg = cfg.with_invariant_checks(cfg!(feature = "invariants"));
    let mut net = Network::new(mesh.clone(), arena_cfg, routing_for(alg, &mesh));
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
    let workload = mesh_workload(s, &mesh);
    let (arena, violations) = checked_run(s, &mut net, opts, workload, !s.has_faults());

    let mismatch = match family {
        Family::InvariantOnly => None,
        Family::Differential => {
            let mut cnet = classic::Network::new(mesh.clone(), cfg, routing_for(alg, &mesh));
            for ch in plan.dead_at_start() {
                cnet.fail_channel(ch);
            }
            cnet.schedule_speed_transitions(&transitions);
            cnet.schedule_phase_marks(&marks);
            let (injections, trackers) = mesh_workload(s, &mesh);
            let (oracle, _) = record(&mut cnet, &injections, trackers);
            arena.first_divergence(&oracle)
        }
    };
    (outcome(family, violations, mismatch), arena)
}

fn execute_torus(s: &Scenario, dims: &[u16], opts: RunOptions) -> (Outcome, RunRecord) {
    let torus = Torus::new(dims);
    let WorkloadSpec::TorusRing { src, length } = s.workload else {
        unreachable!("mesh workload on a torus scenario");
    };
    let src = NodeId(src % torus.num_nodes() as u32);
    let cfg = base_cfg(s, Algorithm::Db);

    let arena_cfg = cfg.with_invariant_checks(cfg!(feature = "invariants"));
    let mut net: Network<Torus> = Network::new(torus.clone(), arena_cfg, Box::new(TorusDor));
    let workload = (Vec::new(), vec![ring_tracker(&torus, src, length)]);
    // A torus scenario runs without faults, so it must complete.
    let (arena, violations) = checked_run(s, &mut net, opts, workload, true);

    let mut cnet: classic::Network<Torus> =
        classic::Network::new(torus.clone(), cfg, Box::new(TorusDor));
    let (oracle, _) = record(&mut cnet, &[], vec![ring_tracker(&torus, src, length)]);
    let mismatch = arena.first_divergence(&oracle);
    (outcome(s.family(), violations, mismatch), arena)
}

/// The outcome of a run that finished without a panic.
fn outcome(family: Family, violations: Vec<String>, mismatch: Option<String>) -> Outcome {
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

    /// Up to three dimensions a DOR unicast is a run path that expands to
    /// the DOR coded path; a four-dimensional mesh keeps the coded path,
    /// which a run path cannot hold when all four dimensions differ.
    #[test]
    fn dor_unicasts_are_run_paths_up_to_three_dimensions() {
        for dims in [vec![5, 3], vec![4, 3, 2]] {
            let mesh = Mesh::new(&dims);
            let (src, dst) = (NodeId(0), NodeId(mesh.num_nodes() as u32 - 1));
            let Route::Runs(rp) = dor_route(&mesh, src, dst) else {
                panic!("{dims:?}: DOR unicast is not a run path");
            };
            let want = CodedPath::unicast(&mesh, dor_path(&mesh, src, dst));
            assert_eq!(rp.coded(&mesh), want, "{dims:?}");
        }
        let mesh = Mesh::new(&[2, 2, 2, 2]);
        let (src, dst) = (NodeId(0), NodeId(15));
        let Route::Fixed(cp) = dor_route(&mesh, src, dst) else {
            panic!("4-D DOR unicast is not a coded path");
        };
        assert_eq!(cp, CodedPath::unicast(&mesh, dor_path(&mesh, src, dst)));
    }

    /// The digest ([`RunRecord::digest`]) of the arena engine's run record
    /// for each of `Scenario::generate(2005, 0..32)`, recorded from the
    /// engine-specific drive loops this one loop replaced.
    const PINS: [u64; 32] = [
        0x7f3c_2d45_0f95_f8f9,
        0xb735_957b_e409_253e,
        0x5ca4_e70d_14e0_9964,
        0x371b_6b82_a524_fb80,
        0xa50a_100e_088c_34d6,
        0x8e03_f820_0952_5697,
        0x529d_610c_38c3_f47b,
        0xcbf9_81b1_8a72_5c61,
        0xb449_294c_410d_ea10,
        0x2856_5c91_b47f_8295,
        0xf2aa_49be_352d_359a,
        0x9875_9cab_73e5_96d4,
        0x6807_f6cc_e61a_a46e,
        0xa0ba_f0ef_b0c4_4e60,
        0x746e_4fc5_e0be_7c85,
        0x67cc_819b_cdf4_e7b9,
        0xcd57_565b_34e0_19c0,
        0x9845_8031_2086_1a12,
        0x539b_20a9_044b_ba19,
        0x3536_0ebf_f5c7_1582,
        0x44ea_98d9_5d63_f4b8,
        0x5400_92ef_8ebc_267d,
        0x9a9b_fe2a_cc18_e272,
        0xfa45_8ff2_4f34_2c51,
        0xd69d_9c0b_639b_46e2,
        0xe045_ddcc_f9fa_011a,
        0x8611_a49e_5eaf_616e,
        0x85ca_431f_875b_721a,
        0xaa23_17bc_403b_4be0,
        0xd988_32e4_cc4c_f5af,
        0xb071_f2de_01fb_1c27,
        0xf1f0_4ae4_5b9a_39f7,
    ];

    #[test]
    fn arena_run_records_are_pinned() {
        let moved: Vec<String> = PINS
            .iter()
            .enumerate()
            .filter_map(|(i, &pin)| {
                let s = Scenario::generate(2005, i as u64);
                let (outcome, record) = execute(&s, RunOptions::default());
                assert!(outcome.is_clean(), "scenario {i} not clean: {outcome:?}");
                let digest = record.digest();
                (digest != pin).then(|| {
                    format!(
                        "scenario {i}: {digest:#018x}, injected {}, delivered {} ({:?})",
                        record.counters.injected,
                        record.deliveries.len(),
                        s.workload
                    )
                })
            })
            .collect();
        assert!(moved.is_empty(), "pins moved:\n{}", moved.join("\n"));
    }

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

    /// `Expecting` registers every message it injects, background and
    /// relay alike: registering any of them again is a violation.
    #[cfg(feature = "invariants")]
    #[test]
    fn every_injected_message_is_expected() {
        let s = Scenario::generate(2005, 16);
        let mesh = Mesh::new(s.topo.dims());
        let rf = routing_for(Algorithm::Db, &mesh);
        let mut net = Network::new(mesh.clone(), base_cfg(&s, Algorithm::Db), rf);
        let checker = InvariantChecker::new(false);
        let (injections, trackers) = mesh_workload(&s, &mesh);
        let net = &mut Expecting {
            net: &mut net,
            checker: &checker,
        };
        let injected = record(net, &injections, trackers).0.counters.injected;
        for m in 0..injected {
            checker.expect_exactly_once(MessageId(m), [], 1);
        }
        assert_eq!(checker.violations().len() as u64, injected);
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
