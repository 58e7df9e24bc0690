//! Differential equivalence suite for the engine rewrite.
//!
//! The pre-rewrite heap-driven stepper is kept verbatim as
//! `wormcast_network::classic` and used as an oracle: every test here drives
//! the oracle and the active-set engine through the *same* seeded workload
//! and requires the complete observable record to be bit-equal — the full
//! flit-event trace, the delivery sequence (order included), the aggregate
//! counters and the final simulation clock. Workloads cover the paper's
//! three traffic shapes (single broadcasts, mixed unicast + broadcast
//! streams, multicast subsets), all five algorithms, both release modes and
//! all three routing substrates (fixed DOR, west-first adaptive, QAB's
//! queue-aware negative-first).

use wormcast_broadcast::Algorithm;
use wormcast_network::{
    classic, Delivery, Event, MessageSpec, Network, NetworkConfig, OpId, ReleaseMode, Route,
};
use wormcast_routing::{dor_path, CodedPath, RunPath};
use wormcast_sim::{SimRng, SimTime};
use wormcast_topology::{Mesh, NodeId, Topology};
use wormcast_workload::{
    random_destinations, single::routing_for, BroadcastTracker, MulticastScheme,
};

/// Everything an engine run can be observed to do.
#[derive(Debug, PartialEq)]
struct Record {
    trace: Vec<Event>,
    deliveries: Vec<Delivery>,
    counters: wormcast_network::Counters,
    final_now: SimTime,
}

/// One pre-scheduled injection of the mixed workload.
#[derive(Clone)]
struct Injection {
    at: SimTime,
    spec: MessageSpec,
}

/// Drive `$net_ty` through a workload: inject `$plan` up front, start the
/// broadcast `$tracker` at time zero, then pump deliveries (feeding the
/// tracker) until the network idles. Identical code runs against both
/// engines — only the network type differs, which is why this is a macro
/// and not `wormcast_workload::Ops`: the `classic` oracle is a separate,
/// deliberately frozen engine type.
macro_rules! drive {
    ($net_ty:ty, $mesh:expr, $cfg:expr, $alg:expr, $plan:expr, $tracker:expr) => {{
        let mesh: Mesh = $mesh;
        let alg: Algorithm = $alg;
        let cfg: NetworkConfig = $cfg;
        let rf = routing_for(alg, &mesh);
        let mut net = <$net_ty>::new(mesh.clone(), cfg.with_ports(alg.ports()), rf);
        net.enable_trace(4_000_000);
        let plan: &[Injection] = $plan;
        for inj in plan {
            net.inject_at(inj.at, inj.spec.clone());
        }
        let mut tracker: Option<BroadcastTracker> = $tracker;
        if let Some(t) = tracker.as_mut() {
            for spec in t.start(SimTime::ZERO) {
                net.inject_at(SimTime::ZERO, spec);
            }
        }
        let mut deliveries = Vec::new();
        while let Some(d) = net.next_delivery() {
            if let Some(t) = tracker.as_mut() {
                for spec in t.on_delivery(&d) {
                    net.inject_at(d.delivered_at, spec);
                }
            }
            deliveries.push(d);
        }
        if let Some(t) = &tracker {
            assert!(t.is_complete(), "broadcast stalled before completion");
        }
        Record {
            trace: net.trace().records().copied().collect(),
            deliveries,
            counters: net.counters(),
            final_now: net.now(),
        }
    }};
}

/// Run the same workload on both engines and assert bit-equal observables.
/// On divergence, report the first differing trace record with context.
fn assert_equivalent(
    label: &str,
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    plan: &[Injection],
    make_tracker: impl Fn() -> Option<BroadcastTracker>,
) {
    let a = drive!(
        classic::Network,
        mesh.clone(),
        cfg,
        alg,
        plan,
        make_tracker()
    );
    let b = drive!(Network, mesh.clone(), cfg, alg, plan, make_tracker());
    for (i, (x, y)) in a.trace.iter().zip(b.trace.iter()).enumerate() {
        assert_eq!(
            x,
            y,
            "{label}: first trace divergence at record {i}\nclassic context: {:#?}\nactive-set context: {:#?}",
            &a.trace[i.saturating_sub(5)..(i + 3).min(a.trace.len())],
            &b.trace[i.saturating_sub(5)..(i + 3).min(b.trace.len())]
        );
    }
    assert_eq!(a.trace.len(), b.trace.len(), "{label}: trace lengths");
    assert_eq!(a.deliveries, b.deliveries, "{label}: delivery sequences");
    assert_eq!(a.counters, b.counters, "{label}: counters");
    assert_eq!(a.final_now, b.final_now, "{label}: final clock");
}

fn cfg_for(mode: ReleaseMode) -> NetworkConfig {
    NetworkConfig::builder()
        .release(mode)
        .build()
        .expect("both release modes are valid")
}

const MODES: [ReleaseMode; 2] = [ReleaseMode::PathHolding, ReleaseMode::AfterTailCrossing];

/// Single seeded broadcasts: every algorithm, random sources, both release
/// modes, cubic and non-cubic meshes.
#[test]
fn single_broadcasts_are_equivalent() {
    let mut rng = SimRng::new(0x5EED_0001);
    for shape in [[4u16, 4, 4], [3, 4, 5]] {
        let mesh = Mesh::new(&shape);
        for mode in MODES {
            for alg in Algorithm::ALL {
                for _ in 0..3 {
                    let src = NodeId(rng.index(mesh.num_nodes()) as u32);
                    let length = 1 + rng.index(96) as u64;
                    let schedule = alg.schedule(&mesh, src);
                    assert_equivalent(
                        &format!("broadcast {alg} src {src} len {length} {mode:?} {shape:?}"),
                        &mesh,
                        cfg_for(mode),
                        alg,
                        &[],
                        || Some(BroadcastTracker::new(&mesh, &schedule, OpId(0), length)),
                    );
                }
            }
        }
    }
}

/// Build a seeded random unicast stream: `n` messages with random sources,
/// destinations, lengths, arrival times and start-up charging, routed on
/// the substrate `alg` selects (fixed DOR paths, or adaptive legs for the
/// west-first and queue-aware substrates).
fn random_unicasts(mesh: &Mesh, alg: Algorithm, n: usize, seed: u64) -> Vec<Injection> {
    let mut rng = SimRng::new(seed);
    let adaptive = matches!(alg, Algorithm::Ab | Algorithm::Qab);
    (0..n)
        .map(|i| {
            let src = NodeId(rng.index(mesh.num_nodes()) as u32);
            let dst = loop {
                let d = NodeId(rng.index(mesh.num_nodes()) as u32);
                if d != src {
                    break d;
                }
            };
            let route = if adaptive {
                Route::Adaptive { dst }
            } else {
                Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, src, dst)))
            };
            Injection {
                at: SimTime::from_us(rng.unit() * 40.0),
                spec: MessageSpec {
                    src,
                    route,
                    length: 1 + rng.index(32) as u64,
                    op: OpId(1000 + i as u64),
                    tag: 0,
                    charge_startup: rng.chance(0.5),
                },
            }
        })
        .collect()
}

/// Mixed traffic: a dense random unicast stream contending with a
/// tracker-driven broadcast, on both routing substrates and both release
/// modes. This is the §3.3 workload shape and the hardest case for the
/// scheduler — injection ports, CPR masks and adaptive legs all active.
#[test]
fn mixed_traffic_is_equivalent() {
    let mesh = Mesh::cube(4);
    for mode in MODES {
        for (alg, seed) in [
            (Algorithm::Db, 7u64),
            (Algorithm::Ab, 8),
            (Algorithm::Rd, 9),
            (Algorithm::Qab, 10),
        ] {
            let plan = random_unicasts(&mesh, alg, 250, 0xA110 ^ seed);
            let src = NodeId((seed * 17 % mesh.num_nodes() as u64) as u32);
            let schedule = alg.schedule(&mesh, src);
            assert_equivalent(
                &format!("mixed {alg} {mode:?} seed {seed}"),
                &mesh,
                cfg_for(mode),
                alg,
                &plan,
                || Some(BroadcastTracker::new(&mesh, &schedule, OpId(0), 32)),
            );
        }
    }
}

/// The DOR unicast as a run path: a mixed DB stream whose unicasts are
/// `Route::Runs` over [`RunPath::dor`] (as the mixed workloads send them)
/// matches the `classic` oracle (which takes each as the coded path it
/// expands to), and matches the same stream with every unicast a fixed
/// `dor_path` unicast. Both release modes, cubic and non-cubic meshes.
#[test]
fn dor_run_path_streams_are_equivalent() {
    for (shape, seed) in [([4u16, 4, 4], 31u64), ([3, 4, 5], 32)] {
        let mesh = Mesh::new(&shape);
        let fixed = random_unicasts(&mesh, Algorithm::Db, 250, 0xD0E ^ seed);
        let dor: Vec<Injection> = fixed
            .iter()
            .map(|inj| {
                let Route::Fixed(cp) = &inj.spec.route else {
                    unreachable!("DB unicasts are fixed DOR paths");
                };
                let dst = cp.path.dest(&mesh);
                let spec = MessageSpec {
                    route: Route::Runs(RunPath::dor(&mesh, inj.spec.src, dst)),
                    ..inj.spec.clone()
                };
                Injection { at: inj.at, spec }
            })
            .collect();
        let src = NodeId((seed * 13 % mesh.num_nodes() as u64) as u32);
        let schedule = Algorithm::Db.schedule(&mesh, src);
        let tracker = || Some(BroadcastTracker::new(&mesh, &schedule, OpId(0), 32));
        for mode in MODES {
            let label = format!("DOR run path mixed DB {mode:?} {shape:?}");
            assert_equivalent(&label, &mesh, cfg_for(mode), Algorithm::Db, &dor, tracker);
            let with_paths = drive!(
                Network,
                mesh.clone(),
                cfg_for(mode),
                Algorithm::Db,
                &fixed,
                tracker()
            );
            let with_dor = drive!(
                Network,
                mesh.clone(),
                cfg_for(mode),
                Algorithm::Db,
                &dor,
                tracker()
            );
            assert!(with_dor == with_paths, "{label}: differs from fixed paths");
        }
    }
}

/// Pure background traffic with no broadcast: deliveries drain on idle
/// without tracker reinjection, so long gaps between arrivals leave the
/// event list to the absolute-time heap.
#[test]
fn unicast_streams_are_equivalent() {
    let mesh = Mesh::cube(4);
    for mode in MODES {
        for (alg, seed) in [
            (Algorithm::Db, 21u64),
            (Algorithm::Ab, 22),
            (Algorithm::Qab, 23),
        ] {
            let plan = random_unicasts(&mesh, alg, 400, 0xB220 ^ seed);
            assert_equivalent(
                &format!("unicast-only {alg} {mode:?} seed {seed}"),
                &mesh,
                cfg_for(mode),
                alg,
                &plan,
                || None,
            );
        }
    }
}

/// Multicast subsets: all three schemes at sparse and dense densities with
/// seeded random destination sets.
#[test]
fn multicast_schedules_are_equivalent() {
    let mesh = Mesh::cube(4);
    let mut rng = SimRng::new(0x5EED_0003);
    for mode in MODES {
        for scheme in MulticastScheme::ALL {
            for m in [8usize, 48] {
                let src = NodeId(rng.index(mesh.num_nodes()) as u32);
                let dests = random_destinations(&mesh, src, m, rng.next_u64());
                let schedule = scheme.schedule(&mesh, src, &dests);
                let multicast_tracker =
                    || BroadcastTracker::multicast(&mesh, &schedule, &dests, OpId(0), 32);
                let alg = match scheme {
                    MulticastScheme::Um => Algorithm::Rd,
                    _ => Algorithm::Db,
                };
                assert_equivalent(
                    &format!("multicast {} m {m} {mode:?}", scheme.name()),
                    &mesh,
                    cfg_for(mode),
                    alg,
                    &[],
                    || Some(multicast_tracker()),
                );
                // The same multicast schedule contending with a QAB unicast
                // stream: the coded subset paths ride the queue-aware
                // substrate's network, exercising mixed fixed + queue-aware
                // arbitration in both engines.
                let plan = random_unicasts(&mesh, Algorithm::Qab, 60, 0xD440 ^ m as u64);
                assert_equivalent(
                    &format!(
                        "multicast {} m {m} {mode:?} on QAB substrate",
                        scheme.name()
                    ),
                    &mesh,
                    cfg_for(mode),
                    Algorithm::Qab,
                    &plan,
                    || Some(multicast_tracker()),
                );
            }
        }
    }
}

/// The rewrite's own invariant checker stays silent across a contended run
/// (the oracle has no checker; this guards the new engine's internal
/// consistency under the same workload the equivalence tests use).
#[test]
fn invariant_checks_pass_under_contention() {
    let mesh = Mesh::cube(4);
    let cfg = NetworkConfig::builder()
        .invariant_checks(true)
        .build()
        .expect("checked baseline is valid");
    let plan = random_unicasts(&mesh, Algorithm::Db, 150, 0xC330);
    let src = NodeId(5);
    let schedule = Algorithm::Db.schedule(&mesh, src);
    let _ = drive!(
        Network,
        mesh.clone(),
        cfg,
        Algorithm::Db,
        &plan,
        Some(BroadcastTracker::new(&mesh, &schedule, OpId(0), 48))
    );
}
