//! Engine behaviour tests: zero-load latency closed forms, contention,
//! multidestination absorb-and-forward, port serialisation, determinism.

use crate::{Delivery, MessageSpec, Network, NetworkConfig, OpId, ReleaseMode, Route};
use wormcast_routing::{dor_path, CodedPath, DimensionOrdered, PlanarWestFirst, WestFirst};
use wormcast_sim::{SimDuration, SimTime};
use wormcast_topology::{Coord, Mesh, NodeId, Topology};

fn net2d(side: u16) -> Network {
    Network::new(
        Mesh::square(side),
        NetworkConfig::paper_default(),
        Box::new(DimensionOrdered),
    )
}

fn unicast_spec(net: &Network, src: NodeId, dst: NodeId, len: u64, op: u64) -> MessageSpec {
    let p = dor_path(net.mesh(), src, dst);
    MessageSpec {
        src,
        route: Route::Fixed(CodedPath::unicast(net.mesh(), p)),
        length: len,
        op: OpId(op),
        tag: 0,
        charge_startup: true,
    }
}

/// Latency of an uncontended wormhole unicast:
/// Ts + D·(routing + β) + L·β.
fn zero_load_latency(cfg: &NetworkConfig, hops: u64, len: u64) -> SimDuration {
    cfg.startup + cfg.hop_time().times(hops) + cfg.body_time(len)
}

#[test]
fn zero_load_unicast_matches_closed_form() {
    let mut net = net2d(8);
    let m = net.mesh().clone();
    let src = m.node_at(&Coord::xy(0, 0));
    let dst = m.node_at(&Coord::xy(5, 3));
    let spec = unicast_spec(&net, src, dst, 64, 0);
    net.inject_at(SimTime::ZERO, spec);
    net.run_until_idle();
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 1);
    let d = ds[0];
    assert_eq!(d.node, dst);
    let expect = zero_load_latency(net.config(), 8, 64);
    assert_eq!(d.latency(), expect);
    net.check_invariants();
}

#[test]
fn distance_insensitivity_of_wormhole() {
    // Doubling the distance adds only D·hop_time, not D·L·β: the hallmark
    // of wormhole switching the paper leans on.
    let cfg = NetworkConfig::paper_default();
    let lat = |hops: u64| zero_load_latency(&cfg, hops, 1024).as_ps();
    let d_short = lat(2);
    let d_long = lat(14);
    assert_eq!(d_long - d_short, 12 * cfg.hop_time().as_ps());
    // and the body dominates: body is 1024·3ns ≈ 3.07us vs 12·6ns of hops.
    assert!(d_long - d_short < cfg.body_time(1024).as_ps() / 40);
}

#[test]
fn gather_all_delivers_along_path_in_one_step() {
    let mut net = net2d(8);
    let m = net.mesh().clone();
    let nodes: Vec<NodeId> = (0..6).map(|x| m.node_at(&Coord::xy(x, 2))).collect();
    let path = wormcast_routing::Path::through(&m, &nodes);
    let cp = CodedPath::gather_all(&m, path);
    net.inject_at(
        SimTime::ZERO,
        MessageSpec {
            src: nodes[0],
            route: Route::Fixed(cp),
            length: 32,
            op: OpId(1),
            tag: 7,
            charge_startup: true,
        },
    );
    net.run_until_idle();
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 5, "every node after the source receives");
    let cfg = *net.config();
    for (i, d) in ds.iter().enumerate() {
        let hops = i as u64 + 1;
        assert_eq!(d.node, nodes[i + 1]);
        assert_eq!(d.tag, 7);
        assert_eq!(
            d.latency(),
            zero_load_latency(&cfg, hops, 32),
            "receiver {i} sees pipelined arrival"
        );
    }
    // Arrival spread along the path is one hop_time per hop: receivers get
    // the message nearly simultaneously relative to body time.
    let spread = ds.last().unwrap().delivered_at.since(ds[0].delivered_at);
    assert_eq!(spread, cfg.hop_time().times(4));
}

#[test]
fn channel_contention_serialises_messages() {
    let mut net = net2d(8);
    let m = net.mesh().clone();
    // Two messages from different sources crossing the same channel
    // (3,0)->(4,0): one from (0,0) to (7,0), one from (3,0) to (7,0)... the
    // second starts at (3,0) and must wait for the first to release.
    let a_src = m.node_at(&Coord::xy(0, 0));
    let b_src = m.node_at(&Coord::xy(3, 0));
    let dst = m.node_at(&Coord::xy(7, 0));
    let a = unicast_spec(&net, a_src, dst, 128, 0);
    let b = unicast_spec(&net, b_src, dst, 128, 1);
    net.inject_at(SimTime::ZERO, a);
    net.inject_at(SimTime::ZERO, b);
    net.run_until_idle();
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 2);
    let cfg = *net.config();
    let a_del = ds.iter().find(|d| d.op == OpId(0)).unwrap();
    let b_del = ds.iter().find(|d| d.op == OpId(1)).unwrap();
    // A runs uncontended (it reaches x=3 before B's header does? Both start
    // with the same Ts; A needs 3 hops to reach (3,0), B acquires its first
    // channel immediately — so actually B wins the shared channel and A
    // waits. Either way, exactly one of them pays a blocking delay.)
    let a_free = zero_load_latency(&cfg, 7, 128);
    let b_free = zero_load_latency(&cfg, 4, 128);
    let a_late = a_del.latency() > a_free;
    let b_late = b_del.latency() > b_free;
    assert!(
        a_late ^ b_late,
        "exactly one message should be delayed: a_late={a_late} b_late={b_late}"
    );
    net.check_invariants();
}

#[test]
fn blocked_message_resumes_after_release() {
    let mut net = net2d(4);
    let m = net.mesh().clone();
    let dst = m.node_at(&Coord::xy(3, 0));
    // B's startup completes at 0.5 + 1.5 = 2.0us, while A (injected at 0)
    // holds the shared channel until it completes at 2.28us — so B waits.
    let b_inject = SimTime::from_us(0.5);
    let a = unicast_spec(&net, m.node_at(&Coord::xy(1, 0)), dst, 256, 0);
    let b = unicast_spec(&net, m.node_at(&Coord::xy(2, 0)), dst, 16, 1);
    net.inject_at(SimTime::ZERO, a);
    net.inject_at(b_inject, b);
    net.run_until_idle();
    let ds = net.drain_deliveries();
    let cfg = *net.config();
    let a_del = ds.iter().find(|d| d.op == OpId(0)).unwrap();
    let b_del = ds.iter().find(|d| d.op == OpId(1)).unwrap();
    assert_eq!(a_del.latency(), zero_load_latency(&cfg, 2, 256));
    // B's channel (2,0)->(3,0) is held until A completes; then B crosses.
    let b_expect = a_del.delivered_at.since(b_inject) + cfg.hop_time() + cfg.body_time(16);
    assert_eq!(b_del.latency(), b_expect);
    assert!(
        b_del.latency() > zero_load_latency(&cfg, 1, 16),
        "B was blocked"
    );
}

#[test]
fn single_port_serialises_startup() {
    let mesh = Mesh::square(4);
    let cfg = NetworkConfig::paper_default().with_ports(1);
    let mut net = Network::new(mesh, cfg, Box::new(DimensionOrdered));
    let m = net.mesh().clone();
    let src = m.node_at(&Coord::xy(0, 0));
    let a = unicast_spec(&net, src, m.node_at(&Coord::xy(3, 0)), 64, 0);
    let b = unicast_spec(&net, src, m.node_at(&Coord::xy(0, 3)), 64, 1);
    net.inject_at(SimTime::ZERO, a);
    net.inject_at(SimTime::ZERO, b);
    net.run_until_idle();
    let ds = net.drain_deliveries();
    let b_del = ds.iter().find(|d| d.op == OpId(1)).unwrap();
    // Port frees when A's tail leaves the source: Ts + hop + body. Then B
    // pays its own Ts.
    let expect = cfg.startup
        + cfg.hop_time()
        + cfg.body_time(64)
        + cfg.startup
        + cfg.hop_time().times(3)
        + cfg.body_time(64);
    assert_eq!(b_del.latency(), expect);
}

#[test]
fn multi_port_sends_concurrently() {
    let mesh = Mesh::square(4);
    let cfg = NetworkConfig::paper_default().with_ports(2);
    let mut net = Network::new(mesh, cfg, Box::new(DimensionOrdered));
    let m = net.mesh().clone();
    let src = m.node_at(&Coord::xy(0, 0));
    let a = unicast_spec(&net, src, m.node_at(&Coord::xy(3, 0)), 64, 0);
    let b = unicast_spec(&net, src, m.node_at(&Coord::xy(0, 3)), 64, 1);
    net.inject_at(SimTime::ZERO, a);
    net.inject_at(SimTime::ZERO, b);
    net.run_until_idle();
    let ds = net.drain_deliveries();
    for d in &ds {
        assert_eq!(
            d.latency(),
            zero_load_latency(&cfg, 3, 64),
            "both proceed in parallel"
        );
    }
}

#[test]
fn adaptive_west_first_takes_free_alternative() {
    let mesh = Mesh::square(4);
    let cfg = NetworkConfig::paper_default();
    let mut net = Network::new(mesh, cfg, Box::new(WestFirst));
    let m = net.mesh().clone();
    // Blocker: a long message owning the east channel out of (0,0).
    let blocker = unicast_spec(
        &net,
        m.node_at(&Coord::xy(0, 0)),
        m.node_at(&Coord::xy(3, 0)),
        4096,
        0,
    );
    net.inject_at(SimTime::ZERO, blocker);
    // Adaptive message from (0,0) to (2,2): east is busy, north is free.
    net.inject_at(
        SimTime::from_us(2.0),
        MessageSpec {
            src: m.node_at(&Coord::xy(0, 0)),
            route: Route::Adaptive {
                dst: m.node_at(&Coord::xy(2, 2)),
            },
            length: 16,
            op: OpId(1),
            tag: 0,
            charge_startup: true,
        },
    );
    net.run_until_idle();
    let ds = net.drain_deliveries();
    let ad = ds.iter().find(|d| d.op == OpId(1)).unwrap();
    // Free path via north: it must not wait for the 4096-flit blocker
    // (which takes > 12us to clear).
    assert_eq!(ad.latency(), zero_load_latency(&cfg, 4, 16));
}

#[test]
fn deterministic_adaptive_routing_is_used_in_3d() {
    let mesh = Mesh::cube(4);
    let cfg = NetworkConfig::paper_default();
    let mut net = Network::new(mesh, cfg, Box::new(PlanarWestFirst));
    let m = net.mesh().clone();
    net.inject_at(
        SimTime::ZERO,
        MessageSpec {
            src: m.node_at(&Coord::xyz(3, 3, 3)),
            route: Route::Adaptive {
                dst: m.node_at(&Coord::xyz(0, 0, 0)),
            },
            length: 32,
            op: OpId(0),
            tag: 0,
            charge_startup: true,
        },
    );
    net.run_until_idle();
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 1);
    assert_eq!(
        ds[0].latency(),
        zero_load_latency(&cfg, 9, 32),
        "minimal adaptive route"
    );
}

#[test]
fn counters_conserve_messages() {
    let mut net = net2d(8);
    for i in 0..20u64 {
        let src = NodeId((i * 3 % 64) as u32);
        let dst = NodeId(((i * 7 + 5) % 64) as u32);
        if src == dst {
            continue;
        }
        let spec = unicast_spec(&net, src, dst, 32, i);
        net.inject_at(SimTime::from_us(i as f64 * 0.5), spec);
    }
    net.run_until_idle();
    let c = net.counters();
    assert_eq!(c.injected, c.completed, "all messages complete");
    assert_eq!(c.deliveries, c.completed, "unicasts deliver exactly once");
    assert_eq!(c.flits_delivered, c.deliveries * 32);
    assert_eq!(net.in_flight(), 0);
    net.check_invariants();
}

#[test]
fn identical_runs_are_bit_identical() {
    let run = || -> Vec<Delivery> {
        let mut net = net2d(8);
        for i in 0..30u64 {
            let src = NodeId((i * 5 % 64) as u32);
            let dst = NodeId(((i * 11 + 3) % 64) as u32);
            if src == dst {
                continue;
            }
            let spec = unicast_spec(&net, src, dst, 64, i);
            net.inject_at(SimTime::from_us((i % 4) as f64), spec);
        }
        net.run_until_idle();
        net.drain_deliveries()
    };
    assert_eq!(run(), run());
}

#[test]
fn next_delivery_pulls_in_order() {
    let mut net = net2d(4);
    let m = net.mesh().clone();
    let near = unicast_spec(
        &net,
        m.node_at(&Coord::xy(0, 0)),
        m.node_at(&Coord::xy(1, 0)),
        8,
        0,
    );
    let far = unicast_spec(
        &net,
        m.node_at(&Coord::xy(0, 3)),
        m.node_at(&Coord::xy(3, 1)),
        8,
        1,
    );
    net.inject_at(SimTime::ZERO, far);
    net.inject_at(SimTime::ZERO, near);
    let first = net.next_delivery().unwrap();
    assert_eq!(first.op, OpId(0), "nearer delivery first");
    let second = net.next_delivery().unwrap();
    assert_eq!(second.op, OpId(1));
    assert!(net.next_delivery().is_none());
}

#[test]
fn run_until_respects_horizon() {
    let mut net = net2d(4);
    let m = net.mesh().clone();
    let spec = unicast_spec(
        &net,
        m.node_at(&Coord::xy(0, 0)),
        m.node_at(&Coord::xy(3, 3)),
        64,
        0,
    );
    net.inject_at(SimTime::ZERO, spec);
    net.run_until(SimTime::from_us(1.0));
    assert!(net.drain_deliveries().is_empty(), "Ts alone is 1.5us");
    net.run_until(SimTime::from_us(100.0));
    assert_eq!(net.drain_deliveries().len(), 1);
}

#[test]
#[should_panic(expected = "at least one flit")]
fn zero_length_rejected() {
    let mut net = net2d(4);
    let m = net.mesh().clone();
    let p = dor_path(&m, NodeId(0), NodeId(1));
    net.inject_at(
        SimTime::ZERO,
        MessageSpec {
            src: NodeId(0),
            route: Route::Fixed(CodedPath::unicast(&m, p)),
            length: 0,
            op: OpId(0),
            tag: 0,
            charge_startup: true,
        },
    );
}

#[test]
#[should_panic(expected = "adaptive route to self")]
fn self_route_rejected() {
    let mut net = net2d(4);
    net.inject_at(
        SimTime::ZERO,
        MessageSpec {
            src: NodeId(0),
            route: Route::Adaptive { dst: NodeId(0) },
            length: 8,
            op: OpId(0),
            tag: 0,
            charge_startup: true,
        },
    );
}

/// A DOR unicast as a run path (`RunPath::dor`) behaves as the fixed
/// `dor_path` unicast, also through faults: it waits on a dead channel of
/// its route like a fixed path (no re-route), a restore lets it on, and the
/// watchdog reaps it with its one destination undelivered.
#[test]
fn dor_run_path_matches_the_fixed_dor_unicast_through_faults() {
    use crate::fault::{FaultEvent, FaultKind, FaultPlan};
    use wormcast_routing::RunPath;
    let run = |dor: bool| {
        let cfg = NetworkConfig::paper_default().with_watchdog(SimDuration::from_us(20.0));
        let mut net = Network::new(Mesh::square(6), cfg, Box::new(DimensionOrdered));
        net.enable_trace(1 << 20);
        let m = net.mesh().clone();
        let link = |a: (u16, u16), b: (u16, u16)| {
            m.channel_between(
                m.node_at(&Coord::xy(a.0, a.1)),
                m.node_at(&Coord::xy(b.0, b.1)),
            )
            .unwrap()
        };
        let mut plan = FaultPlan::new();
        for (at_us, kind) in [
            (0.0, FaultKind::LinkDown(link((2, 1), (3, 1)))),
            (5.0, FaultKind::LinkDown(link((4, 2), (4, 3)))),
            (15.0, FaultKind::LinkUp(link((4, 2), (4, 3)))),
        ] {
            plan.push(FaultEvent {
                at: SimTime::from_us(at_us),
                kind,
            });
        }
        net.schedule_faults(&plan);
        let mut rng = wormcast_sim::SimRng::new(0xD0E);
        for k in 0..400u64 {
            let src = NodeId(rng.index(36) as u32);
            let dst = loop {
                let d = NodeId(rng.index(36) as u32);
                if d != src {
                    break d;
                }
            };
            let route = if dor {
                Route::Runs(RunPath::dor(&m, src, dst))
            } else {
                Route::Fixed(CodedPath::unicast(&m, dor_path(&m, src, dst)))
            };
            let spec = MessageSpec {
                src,
                route,
                length: 16,
                op: OpId(k),
                tag: 0,
                charge_startup: true,
            };
            net.inject_at(SimTime::from_ps(k * 60_000), spec);
        }
        net.run_until_idle();
        let trace: Vec<_> = net.trace().records().copied().collect();
        (trace, net.drain_deliveries(), net.counters(), net.now())
    };
    let (fixed, dor) = (run(false), run(true));
    let c = fixed.2;
    assert!(
        c.stalled > 0 && c.link_restores == 1,
        "the faults bite: {c:?}"
    );
    assert_eq!(
        c.undelivered, c.stalled,
        "each reaped unicast loses one copy"
    );
    assert_eq!(c.reroutes, 0);
    assert!(dor == fixed, "a DOR run path differs from its fixed path");
}

/// A `Route::Runs` message behaves as the fixed route over the coded path
/// it expands to, also through faults: it waits on a dead channel of its
/// route, a restore lets it on, and the watchdog reaps it with the
/// receivers past its header undelivered, as its mask would count them.
#[test]
fn run_routes_match_their_coded_paths_through_faults() {
    use crate::fault::{FaultEvent, FaultKind, FaultPlan};
    use wormcast_routing::{Run, RunPath};
    use wormcast_topology::Sign;
    let m = Mesh::square(6);
    // Random gather-all paths of one or two straight runs (each passing
    // over a random node, on the path or not) and DOR legs.
    let mut rng = wormcast_sim::SimRng::new(0x5eed);
    let mut paths = Vec::new();
    while paths.len() < 400 {
        let src = NodeId(rng.index(36) as u32);
        let other = NodeId(rng.index(36) as u32);
        if rng.chance(0.25) {
            if other != src {
                paths.push(RunPath::dor(&m, src, other));
            }
            continue;
        }
        let mut at = m.coord_of(src);
        let mut runs = Vec::new();
        let first = rng.index(2);
        for dim in [first, 1 - first].into_iter().take(1 + rng.index(2)) {
            let sign = if rng.chance(0.5) {
                Sign::Plus
            } else {
                Sign::Minus
            };
            let room = match sign {
                Sign::Plus => 5 - at.get(dim),
                Sign::Minus => at.get(dim),
            };
            let len = rng.index(usize::from(room) + 1) as u16;
            at = at.with(
                dim,
                (i32::from(at.get(dim)) + sign.delta() * i32::from(len)) as u16,
            );
            runs.push(Run::new(dim, sign, len));
        }
        paths.extend(RunPath::gather_all(&m, src, &runs, other));
    }
    let run = |as_runs: bool| {
        let cfg = NetworkConfig::paper_default().with_watchdog(SimDuration::from_us(20.0));
        let mut net = Network::new(m.clone(), cfg, Box::new(DimensionOrdered));
        net.enable_trace(1 << 20);
        let link = |a: (u16, u16), b: (u16, u16)| {
            m.channel_between(
                m.node_at(&Coord::xy(a.0, a.1)),
                m.node_at(&Coord::xy(b.0, b.1)),
            )
            .unwrap()
        };
        let mut plan = FaultPlan::new();
        for (at_us, kind) in [
            (0.0, FaultKind::LinkDown(link((2, 1), (3, 1)))),
            (0.0, FaultKind::LinkDown(link((1, 4), (1, 3)))),
            (5.0, FaultKind::LinkDown(link((4, 2), (4, 3)))),
            (15.0, FaultKind::LinkUp(link((4, 2), (4, 3)))),
        ] {
            plan.push(FaultEvent {
                at: SimTime::from_us(at_us),
                kind,
            });
        }
        net.schedule_faults(&plan);
        for (k, rp) in paths.iter().enumerate() {
            let route = if as_runs {
                Route::Runs(*rp)
            } else {
                Route::Fixed(rp.coded(&m))
            };
            let spec = MessageSpec {
                src: rp.src(),
                route,
                length: 16,
                op: OpId(k as u64),
                tag: 0,
                charge_startup: true,
            };
            net.inject_at(SimTime::from_ps(k as u64 * 60_000), spec);
        }
        net.run_until_idle();
        let trace: Vec<_> = net.trace().records().copied().collect();
        (trace, net.drain_deliveries(), net.counters(), net.now())
    };
    let (fixed, runs) = (run(false), run(true));
    let c = fixed.2;
    assert!(
        c.stalled > 0 && c.link_restores == 1,
        "the faults bite: {c:?}"
    );
    assert!(
        c.undelivered > c.stalled,
        "some reaped paths lose several copies: {c:?}"
    );
    assert!(runs == fixed, "a run route differs from its coded path");
}

#[test]
fn startup_can_be_waived() {
    let mut net = net2d(4);
    let m = net.mesh().clone();
    let p = dor_path(&m, NodeId(0), NodeId(1));
    net.inject_at(
        SimTime::ZERO,
        MessageSpec {
            src: NodeId(0),
            route: Route::Fixed(CodedPath::unicast(&m, p)),
            length: 8,
            op: OpId(0),
            tag: 0,
            charge_startup: false,
        },
    );
    net.run_until_idle();
    let d = net.drain_deliveries().pop().unwrap();
    let cfg = *net.config();
    assert_eq!(d.latency(), cfg.hop_time() + cfg.body_time(8));
}

#[test]
fn facility_mode_zero_load_latency_unchanged() {
    // Without contention the two release disciplines are indistinguishable.
    let cfg = NetworkConfig::paper_default().with_release(ReleaseMode::AfterTailCrossing);
    let mut net = Network::new(Mesh::square(8), cfg, Box::new(DimensionOrdered));
    let m = net.mesh().clone();
    let spec = unicast_spec(
        &net,
        m.node_at(&Coord::xy(0, 0)),
        m.node_at(&Coord::xy(5, 3)),
        64,
        0,
    );
    net.inject_at(SimTime::ZERO, spec);
    net.run_until_idle();
    let d = net.drain_deliveries().pop().unwrap();
    assert_eq!(d.latency(), zero_load_latency(&cfg, 8, 64));
}

#[test]
fn facility_mode_releases_upstream_while_blocked() {
    // Blocker C occupies (3,0)->(3,1) for a long time. Message A (0,0)->(3,1)
    // crosses the row then blocks behind C. Message B wants A's first row
    // channel (0,0)->(1,0):
    //  - in PathHolding mode, B waits until A fully completes;
    //  - in AfterTailCrossing mode, A's row channels free as its tail drains,
    //    so B proceeds long before A completes.
    let run = |mode: ReleaseMode| -> SimDuration {
        let cfg = NetworkConfig::paper_default().with_release(mode);
        let mut net = Network::new(Mesh::square(4), cfg, Box::new(DimensionOrdered));
        let m = net.mesh().clone();
        let blocker = unicast_spec(
            &net,
            m.node_at(&Coord::xy(3, 0)),
            m.node_at(&Coord::xy(3, 1)),
            8192,
            0,
        );
        net.inject_at(SimTime::ZERO, blocker);
        let a = unicast_spec(
            &net,
            m.node_at(&Coord::xy(0, 0)),
            m.node_at(&Coord::xy(3, 1)),
            64,
            1,
        );
        net.inject_at(SimTime::from_us(0.1), a);
        let b = unicast_spec(
            &net,
            m.node_at(&Coord::xy(0, 0)),
            m.node_at(&Coord::xy(1, 0)),
            64,
            2,
        );
        net.inject_at(SimTime::from_us(1.0), b);
        net.run_until_idle();
        let ds = net.drain_deliveries();
        ds.iter().find(|d| d.op == OpId(2)).unwrap().latency()
    };
    let holding = run(ReleaseMode::PathHolding);
    let facility = run(ReleaseMode::AfterTailCrossing);
    assert!(
        facility < holding,
        "facility ({facility}) should beat path-holding ({holding}) for B"
    );
    // The blocker transmits 8192 flits = 24.6us; under path holding B is
    // stuck at least that long.
    assert!(holding > SimDuration::from_us(20.0));
    assert!(facility < SimDuration::from_us(10.0));
}

#[test]
fn facility_mode_conserves_messages() {
    let cfg = NetworkConfig::paper_default().with_release(ReleaseMode::AfterTailCrossing);
    let mut net = Network::new(Mesh::square(8), cfg, Box::new(DimensionOrdered));
    for i in 0..40u64 {
        let src = NodeId((i * 3 % 64) as u32);
        let dst = NodeId(((i * 7 + 5) % 64) as u32);
        if src == dst {
            continue;
        }
        let spec = unicast_spec(&net, src, dst, 32, i);
        net.inject_at(SimTime::from_us(i as f64 * 0.2), spec);
    }
    net.run_until_idle();
    let c = net.counters();
    assert_eq!(c.injected, c.completed);
    assert_eq!(net.in_flight(), 0);
    net.check_invariants();
}

mod trace_and_faults {
    use super::*;
    use crate::{EventKind, MessageId};
    use wormcast_routing::WestFirst;

    #[test]
    fn trace_records_message_lifecycle() {
        let mut net = net2d(4);
        net.enable_trace(256);
        let m = net.mesh().clone();
        let spec = unicast_spec(
            &net,
            m.node_at(&Coord::xy(0, 0)),
            m.node_at(&Coord::xy(2, 1)),
            16,
            0,
        );
        let id = net.inject_at(SimTime::ZERO, spec);
        net.run_until_idle();
        let recs = net.trace().of_message(id);
        let kinds: Vec<EventKind> = recs.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Inject,
                EventKind::PortGrant,
                EventKind::StartupDone,
                EventKind::ChannelGrant,
                EventKind::Header,
                EventKind::ChannelGrant,
                EventKind::Header,
                EventKind::ChannelGrant,
                EventKind::Header,
                EventKind::Deliver,
                EventKind::Complete,
            ],
            "3-hop unicast lifecycle"
        );
        // Timestamps are monotone.
        assert!(recs.windows(2).all(|w| w[0].t_ps <= w[1].t_ps));
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut net = net2d(4);
        let m = net.mesh().clone();
        let spec = unicast_spec(&net, NodeId(0), NodeId(1), 8, 0);
        let _ = m;
        net.inject_at(SimTime::ZERO, spec);
        net.run_until_idle();
        assert_eq!(net.trace().records().count(), 0);
    }

    #[test]
    fn trace_records_channel_wait_under_contention() {
        let mut net = net2d(4);
        net.enable_trace(512);
        let m = net.mesh().clone();
        let a = unicast_spec(
            &net,
            m.node_at(&Coord::xy(0, 0)),
            m.node_at(&Coord::xy(3, 0)),
            2048,
            0,
        );
        let b = unicast_spec(
            &net,
            m.node_at(&Coord::xy(0, 0)),
            m.node_at(&Coord::xy(3, 0)),
            16,
            1,
        );
        net.inject_at(SimTime::ZERO, a);
        let id_b = net.inject_at(SimTime::from_us(0.1), b);
        net.run_until_idle();
        let kinds: Vec<EventKind> = net
            .trace()
            .of_message(id_b)
            .iter()
            .map(|r| r.kind)
            .collect();
        assert!(
            kinds.contains(&EventKind::ChannelWait),
            "B queued: {kinds:?}"
        );
    }

    #[test]
    fn schedule_phase_marks_belong_to_no_message() {
        let mut net = net2d(4);
        net.enable_trace(512);
        let a = unicast_spec(&net, NodeId(0), NodeId(3), 16, 0);
        let b = unicast_spec(&net, NodeId(4), NodeId(7), 16, 1);
        net.inject_at(SimTime::ZERO, a);
        let id_b = net.inject_at(SimTime::ZERO, b);
        assert_eq!(id_b, MessageId(1));
        net.schedule_phase_marks(&[(SimTime::from_us(0.1), 1)]);
        net.run_until_idle();
        let marks: Vec<_> = net
            .trace()
            .records()
            .filter(|e| e.kind == EventKind::SchedulePhase)
            .collect();
        assert_eq!(marks.len(), 1, "the phase mark is traced");
        assert_eq!((marks[0].msg, marks[0].q), (None, Some(1)));
        let of_b = net.trace().of_message(id_b);
        assert!(!of_b.is_empty());
        assert!(
            of_b.iter().all(|e| e.kind != EventKind::SchedulePhase),
            "phase 1's mark is not message 1's record: {of_b:?}"
        );
    }

    #[test]
    fn failed_channel_stalls_fixed_path() {
        let mut net = net2d(4);
        let m = net.mesh().clone();
        let a = m.node_at(&Coord::xy(0, 0));
        let b = m.node_at(&Coord::xy(1, 0));
        let ch = m.channel_between(a, b).unwrap();
        net.fail_channel(ch);
        let dst = m.node_at(&Coord::xy(3, 0));
        let spec = unicast_spec(&net, a, dst, 16, 0);
        net.inject_at(SimTime::ZERO, spec);
        net.run_until_idle();
        assert_eq!(net.in_flight(), 1, "message stalled on the dead link");
        assert!(net.drain_deliveries().is_empty());
    }

    #[test]
    fn adaptive_routes_around_failed_channel() {
        let mesh = Mesh::square(4);
        let cfg = NetworkConfig::paper_default();
        let mut net = Network::new(mesh, cfg, Box::new(WestFirst));
        let m = net.mesh().clone();
        // Fail the eastward channel out of (0,0); west-first can still go
        // north first for a north-east destination.
        let ch = m
            .channel_between(m.node_at(&Coord::xy(0, 0)), m.node_at(&Coord::xy(1, 0)))
            .unwrap();
        net.fail_channel(ch);
        net.inject_at(
            SimTime::ZERO,
            MessageSpec {
                src: m.node_at(&Coord::xy(0, 0)),
                route: Route::Adaptive {
                    dst: m.node_at(&Coord::xy(2, 2)),
                },
                length: 16,
                op: OpId(0),
                tag: 0,
                charge_startup: true,
            },
        );
        net.run_until_idle();
        let ds = net.drain_deliveries();
        assert_eq!(ds.len(), 1, "adaptive message survives the fault");
        assert_eq!(
            ds[0].latency(),
            zero_load_latency(&cfg, 4, 16),
            "still a minimal route"
        );
    }

    #[test]
    fn adaptive_with_no_live_candidate_stalls() {
        let mesh = Mesh::square(4);
        let mut net = Network::new(mesh, NetworkConfig::paper_default(), Box::new(WestFirst));
        let m = net.mesh().clone();
        // Destination due east along the top row: the only productive
        // west-first candidate from (0,3) is east; fail it.
        let ch = m
            .channel_between(m.node_at(&Coord::xy(0, 3)), m.node_at(&Coord::xy(1, 3)))
            .unwrap();
        net.fail_channel(ch);
        net.inject_at(
            SimTime::ZERO,
            MessageSpec {
                src: m.node_at(&Coord::xy(0, 3)),
                route: Route::Adaptive {
                    dst: m.node_at(&Coord::xy(3, 3)),
                },
                length: 16,
                op: OpId(0),
                tag: 0,
                charge_startup: true,
            },
        );
        net.run_until_idle();
        assert_eq!(net.in_flight(), 1, "no legal detour under west-first");
    }

    #[test]
    #[should_panic(expected = "occupied channel")]
    fn cannot_fail_busy_channel() {
        let mut net = net2d(4);
        let m = net.mesh().clone();
        let a = m.node_at(&Coord::xy(0, 0));
        let spec = unicast_spec(&net, a, m.node_at(&Coord::xy(3, 0)), 8192, 0);
        net.inject_at(SimTime::ZERO, spec);
        // Run past startup so the first channel is held.
        net.run_until(SimTime::from_us(2.0));
        let ch = m.channel_between(a, m.node_at(&Coord::xy(1, 0))).unwrap();
        net.fail_channel(ch);
    }

    #[test]
    fn watchdog_reaps_unreachable_destination() {
        // The acceptance test for the delivery watchdog: a broadcast whose
        // destination sits behind a dead link is *detected* (recorded as
        // stalled with its lost destination counted) rather than wedging the
        // run forever.
        let mut net = Network::new(
            Mesh::square(4),
            NetworkConfig::paper_default().with_watchdog(SimDuration::from_us(50.0)),
            Box::new(DimensionOrdered),
        );
        let m = net.mesh().clone();
        let a = m.node_at(&Coord::xy(0, 0));
        let b = m.node_at(&Coord::xy(1, 0));
        net.fail_channel(m.channel_between(a, b).unwrap());
        let spec = unicast_spec(&net, a, m.node_at(&Coord::xy(3, 0)), 16, 0);
        net.inject_at(SimTime::ZERO, spec);
        net.run_until_idle(); // terminates: the watchdog reaps the wedge
        let c = net.counters();
        assert_eq!(c.stalled, 1);
        assert_eq!(c.undelivered, 1);
        assert_eq!(net.in_flight(), 0, "stalled leaves the in-flight count");
        assert!(net.drain_deliveries().is_empty());
        assert!(
            net.now() >= SimTime::from_us(50.0),
            "reaped at the timeout, not before"
        );
        net.force_check_invariants();
    }

    #[test]
    fn watchdog_releases_stalled_path_for_other_traffic() {
        // Graceful degradation: reaping a wedged message frees the channels
        // it held, so traffic queued behind it still completes.
        let cfg = NetworkConfig::paper_default().with_watchdog(SimDuration::from_us(20.0));
        let mut net = Network::new(Mesh::square(4), cfg, Box::new(DimensionOrdered));
        let m = net.mesh().clone();
        let dead = m
            .channel_between(m.node_at(&Coord::xy(2, 0)), m.node_at(&Coord::xy(3, 0)))
            .unwrap();
        net.fail_channel(dead);
        // A wedges on the dead link holding (0,0)→(1,0)→(2,0).
        let a = unicast_spec(
            &net,
            m.node_at(&Coord::xy(0, 0)),
            m.node_at(&Coord::xy(3, 0)),
            16,
            0,
        );
        net.inject_at(SimTime::ZERO, a);
        // B (injected after A holds its path) needs a channel A holds.
        let b = unicast_spec(
            &net,
            m.node_at(&Coord::xy(1, 0)),
            m.node_at(&Coord::xy(2, 0)),
            16,
            1,
        );
        net.inject_at(SimTime::from_us(1.0), b);
        net.run_until_idle();
        let ds = net.drain_deliveries();
        assert_eq!(ds.len(), 1, "B delivers once the watchdog reaps A");
        assert_eq!(ds[0].op, OpId(1));
        let c = net.counters();
        assert_eq!((c.stalled, c.undelivered, c.completed), (1, 1, 1));
        assert_eq!(net.in_flight(), 0);
        net.force_check_invariants();
    }

    #[test]
    fn watchdog_spares_legitimate_backpressure() {
        // Ordinary contention (one message queued behind another's long
        // body) must never be mistaken for a stall when the timeout
        // comfortably exceeds the drain time.
        let cfg = NetworkConfig::paper_default().with_watchdog(SimDuration::from_us(50.0));
        let mut net = Network::new(Mesh::square(4), cfg, Box::new(DimensionOrdered));
        let m = net.mesh().clone();
        let src = m.node_at(&Coord::xy(0, 0));
        let dst = m.node_at(&Coord::xy(2, 0));
        net.inject_at(SimTime::ZERO, unicast_spec(&net, src, dst, 1024, 0));
        net.inject_at(SimTime::ZERO, unicast_spec(&net, src, dst, 1024, 1));
        net.run_until_idle();
        assert_eq!(net.drain_deliveries().len(), 2);
        let c = net.counters();
        assert_eq!((c.stalled, c.completed), (0, 2));
    }

    #[test]
    fn transient_outage_delays_then_delivers() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        let cfg = NetworkConfig::paper_default().with_watchdog(SimDuration::from_us(200.0));
        let mut net = Network::new(Mesh::square(4), cfg, Box::new(DimensionOrdered));
        let m = net.mesh().clone();
        let ch = m
            .channel_between(m.node_at(&Coord::xy(0, 0)), m.node_at(&Coord::xy(1, 0)))
            .unwrap();
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::LinkDown(ch),
        });
        plan.push(FaultEvent {
            at: SimTime::from_us(40.0),
            kind: FaultKind::LinkUp(ch),
        });
        net.schedule_faults(&plan);
        let spec = unicast_spec(
            &net,
            m.node_at(&Coord::xy(0, 0)),
            m.node_at(&Coord::xy(1, 0)),
            16,
            0,
        );
        net.inject_at(SimTime::ZERO, spec);
        net.run_until_idle();
        let ds = net.drain_deliveries();
        assert_eq!(ds.len(), 1);
        assert!(
            ds[0].delivered_at >= SimTime::from_us(40.0),
            "delivery waited out the outage"
        );
        let c = net.counters();
        assert_eq!((c.link_failures, c.link_restores, c.stalled), (1, 1, 0));
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn mid_flight_link_down_lets_the_crossing_drain() {
        // A fault on an occupied channel must not lose the flits already in
        // the pipeline: the crossing drains, then the channel stays down.
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        let mut net = net2d(4);
        let m = net.mesh().clone();
        let ch = m
            .channel_between(m.node_at(&Coord::xy(0, 0)), m.node_at(&Coord::xy(1, 0)))
            .unwrap();
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at: SimTime::from_us(2.0), // mid-body: held until ~26 µs
            kind: FaultKind::LinkDown(ch),
        });
        net.schedule_faults(&plan);
        let spec = unicast_spec(
            &net,
            m.node_at(&Coord::xy(0, 0)),
            m.node_at(&Coord::xy(1, 0)),
            8192,
            0,
        );
        net.inject_at(SimTime::ZERO, spec);
        net.run_until_idle();
        assert_eq!(net.drain_deliveries().len(), 1, "in-pipeline flits kept");
        assert!(net.is_failed(ch), "the channel stays down afterwards");
        assert_eq!(net.counters().link_failures, 1);
    }

    #[test]
    fn scheduled_fault_reroute_is_counted() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        let mesh = Mesh::square(4);
        let mut net = Network::new(mesh, NetworkConfig::paper_default(), Box::new(WestFirst));
        let m = net.mesh().clone();
        let ch = m
            .channel_between(m.node_at(&Coord::xy(0, 0)), m.node_at(&Coord::xy(1, 0)))
            .unwrap();
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::LinkDown(ch),
        });
        net.schedule_faults(&plan);
        net.inject_at(
            SimTime::ZERO,
            MessageSpec {
                src: m.node_at(&Coord::xy(0, 0)),
                route: Route::Adaptive {
                    dst: m.node_at(&Coord::xy(2, 2)),
                },
                length: 16,
                op: OpId(0),
                tag: 0,
                charge_startup: true,
            },
        );
        net.run_until_idle();
        assert_eq!(net.drain_deliveries().len(), 1);
        let c = net.counters();
        assert_eq!(c.link_failures, 1);
        assert!(c.reroutes >= 1, "the dodge around the dead link is counted");
        assert_eq!(c.stalled, 0);
    }
}

mod metrics_sinks {
    use super::*;
    use crate::metrics::MetricsSink;
    use crate::MessageId;
    use wormcast_topology::ChannelId;

    /// Networks (with their sinks and routing function) move into harness
    /// worker threads; this must keep compiling.
    #[test]
    fn network_is_send() {
        fn assert_send<S: Send>() {}
        assert_send::<Network<Mesh>>();
    }

    /// A sink counting raw events, cross-checked against the built-ins.
    #[derive(Default)]
    struct Probe {
        injects: u64,
        hops: u64,
        delivers: u64,
        completes: u64,
        grants: u64,
        releases: u64,
    }

    impl MetricsSink for Probe {
        fn on_inject(&mut self, _t: SimTime, _m: MessageId, _n: NodeId) {
            self.injects += 1;
        }
        fn on_header_hop(&mut self, _t: SimTime, _m: MessageId, _n: NodeId, _c: ChannelId) {
            self.hops += 1;
        }
        fn on_channel_grant(&mut self, _t: SimTime, _m: MessageId, _c: ChannelId) {
            self.grants += 1;
        }
        fn on_channel_release(&mut self, _t: SimTime, _c: ChannelId) {
            self.releases += 1;
        }
        fn on_deliver(&mut self, _t: SimTime, _m: MessageId, _n: NodeId, _f: u64) {
            self.delivers += 1;
        }
        fn on_complete(&mut self, _t: SimTime, _m: MessageId, _n: NodeId) {
            self.completes += 1;
        }
    }

    #[test]
    fn attached_sink_sees_the_event_stream() {
        // Shared-state probe: the sink is owned by the network, so observe
        // through an Arc<Mutex<..>> mirror.
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Shared(Arc<Mutex<Probe>>);
        impl MetricsSink for Shared {
            fn on_inject(&mut self, t: SimTime, m: MessageId, n: NodeId) {
                self.0.lock().unwrap().on_inject(t, m, n);
            }
            fn on_header_hop(&mut self, t: SimTime, m: MessageId, n: NodeId, c: ChannelId) {
                self.0.lock().unwrap().on_header_hop(t, m, n, c);
            }
            fn on_channel_grant(&mut self, t: SimTime, m: MessageId, c: ChannelId) {
                self.0.lock().unwrap().on_channel_grant(t, m, c);
            }
            fn on_channel_release(&mut self, t: SimTime, c: ChannelId) {
                self.0.lock().unwrap().on_channel_release(t, c);
            }
            fn on_deliver(&mut self, t: SimTime, m: MessageId, n: NodeId, f: u64) {
                self.0.lock().unwrap().on_deliver(t, m, n, f);
            }
            fn on_complete(&mut self, t: SimTime, m: MessageId, n: NodeId) {
                self.0.lock().unwrap().on_complete(t, m, n);
            }
        }

        let probe = Arc::new(Mutex::new(Probe::default()));
        let mut net = net2d(4);
        net.add_sink(Box::new(Shared(probe.clone())));

        let m = net.mesh().clone();
        for (i, dst) in [Coord::xy(3, 0), Coord::xy(0, 3), Coord::xy(2, 2)]
            .iter()
            .enumerate()
        {
            let spec = unicast_spec(
                &net,
                m.node_at(&Coord::xy(1, 1)),
                m.node_at(dst),
                16,
                i as u64,
            );
            net.inject_at(SimTime::from_us(i as f64), spec);
        }
        net.run_until_idle();

        let p = probe.lock().unwrap();
        let c = net.counters();
        assert_eq!(p.injects, c.injected);
        assert_eq!(p.delivers, c.deliveries);
        assert_eq!(p.completes, c.completed);
        assert_eq!(p.grants, p.hops, "every grant leads to one crossing");
        assert_eq!(p.grants, p.releases, "every grant is eventually released");
        assert!(p.hops > 0);
    }
}

/// Arena slot reuse: a retired message's slot goes to a later injection,
/// which must change nothing observable. Every leg runs the open-loop way
/// (inject each message only when the clock reaches it, so slots retire
/// and get reused mid-run) against the `classic` oracle, which never
/// reuses anything.
mod slot_reuse {
    use super::*;
    use crate::{classic, Counters, Event};

    /// Everything a run can be observed to do. The final clock is left
    /// out: the oracle has no watchdog, so with one on, the arena engine's
    /// clock ends at its last probe and the oracle's at its last delivery.
    #[derive(Debug, PartialEq)]
    struct Record {
        trace: Vec<Event>,
        deliveries: Vec<Delivery>,
        counters: Counters,
    }

    /// Run `$plan` (sorted by time) on the network `$net`, injecting each
    /// message just before the clock would pass it. Evaluates to the
    /// record and the most messages in flight at once.
    macro_rules! open_loop {
        ($net:ident, $plan:expr) => {{
            $net.enable_trace(1 << 20);
            let plan: &[(SimTime, MessageSpec)] = $plan;
            let (mut next, mut peak) = (0, 0);
            loop {
                let due = plan
                    .get(next)
                    .filter(|(at, _)| $net.next_event_time().is_none_or(|t| *at <= t));
                if let Some((at, spec)) = due {
                    $net.inject_at(*at, spec.clone());
                    peak = peak.max($net.in_flight());
                    next += 1;
                } else if !$net.step() {
                    break;
                }
            }
            let record = Record {
                trace: $net.trace().records().copied().collect(),
                deliveries: $net.drain_deliveries(),
                counters: $net.counters(),
            };
            (record, peak)
        }};
    }

    /// The invariant-checked configuration with watchdog `watchdog`.
    fn config(watchdog: SimDuration) -> NetworkConfig {
        NetworkConfig::paper_default()
            .with_watchdog(watchdog)
            .with_invariant_checks(true)
    }

    /// Both engines over `plan` on an 8×8 mesh with west-first adaptive
    /// routing; asserts they agree and returns the arena engine's record,
    /// network and in-flight peak.
    fn against_classic(
        cfg: NetworkConfig,
        plan: &[(SimTime, MessageSpec)],
    ) -> (Record, Network, u64) {
        let mut oracle = classic::Network::new(Mesh::square(8), cfg, Box::new(WestFirst));
        let (want, _) = open_loop!(oracle, plan);
        let mut net = Network::new(Mesh::square(8), cfg, Box::new(WestFirst));
        let (record, peak) = open_loop!(net, plan);
        assert_eq!(record, want, "arena engine diverges from classic");
        if cfg.watchdog == SimDuration::ZERO {
            assert_eq!(net.now(), oracle.now(), "final clock");
        }
        (record, net, peak)
    }

    /// The external ids are `0..injected` in injection order, whatever slot
    /// a message occupies: the trace's inject records count up from 0, no
    /// record names any other id, every delivery names the message the
    /// plan injected under its id (its op, source and request time), and
    /// without reaping every id is delivered.
    fn assert_ids_match(record: &Record, plan: &[(SimTime, MessageSpec)]) {
        let injected = record.counters.injected;
        assert_eq!(injected, plan.len() as u64);
        let traced: Vec<u64> = record
            .trace
            .iter()
            .filter(|e| e.kind == crate::EventKind::Inject)
            .filter_map(|e| e.msg)
            .collect();
        assert_eq!(traced, (0..injected).collect::<Vec<_>>(), "inject ids");
        assert!(
            record
                .trace
                .iter()
                .filter_map(|e| e.msg)
                .all(|m| m < injected),
            "a traced id was never injected"
        );
        let mesh = Mesh::square(8);
        for d in &record.deliveries {
            let (at, spec) = &plan[d.message.0 as usize];
            assert_eq!(
                (d.op, d.src, d.requested_at),
                (spec.op, spec.src, *at),
                "delivery of m{}",
                d.message.0
            );
            let receives = match &spec.route {
                Route::Fixed(cp) => cp.receivers(&mesh).contains(&d.node),
                Route::Runs(rp) => rp.coded(&mesh).receivers(&mesh).contains(&d.node),
                Route::Adaptive { dst } => *dst == d.node,
            };
            assert!(receives, "m{} delivered at {}", d.message.0, d.node);
        }
        if record.counters.stalled == 0 {
            let mut delivered: Vec<u64> = record.deliveries.iter().map(|d| d.message.0).collect();
            delivered.sort_unstable();
            delivered.dedup();
            assert_eq!(
                delivered,
                (0..injected).collect::<Vec<_>>(),
                "delivered ids"
            );
        }
    }

    /// A mixed stream on an 8×8 mesh: fixed DOR unicasts, adaptive
    /// west-first unicasts and multidestination row paths, from a fixed
    /// LCG, one message every 0.25 µs.
    fn mixed_plan(count: u64) -> Vec<(SimTime, MessageSpec)> {
        let mesh = Mesh::square(8);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        let mut plan = Vec::new();
        for i in 0..count {
            let src = NodeId(draw(64) as u32);
            let dst = NodeId(draw(64) as u32);
            if src == dst {
                continue;
            }
            let route = match i % 3 {
                0 => Route::Fixed(CodedPath::unicast(&mesh, dor_path(&mesh, src, dst))),
                1 => Route::Adaptive { dst },
                _ => {
                    let row = mesh.coord_of(src).get(1);
                    let from = mesh.coord_of(src).get(0);
                    let nodes: Vec<NodeId> = (from..8)
                        .map(|x| mesh.node_at(&Coord::xy(x, row)))
                        .collect();
                    if nodes.len() < 2 {
                        continue;
                    }
                    let path = wormcast_routing::Path::through(&mesh, &nodes);
                    Route::Fixed(CodedPath::gather_all(&mesh, path))
                }
            };
            let spec = MessageSpec {
                src,
                route,
                length: 16 + draw(200),
                op: OpId(i),
                tag: 0,
                charge_startup: true,
            };
            plan.push((SimTime::from_us(i as f64 * 0.25), spec));
        }
        plan
    }

    #[test]
    fn arena_holds_only_the_messages_in_flight() {
        let plan = mixed_plan(600);
        let (record, net, peak) = against_classic(config(SimDuration::ZERO), &plan);
        assert_eq!(record.counters.completed, record.counters.injected);
        let highwater = net.engine_stats().arena_msgs_highwater;
        assert!(
            highwater <= peak,
            "arena high-water {highwater} above the in-flight peak {peak}"
        );
        assert!(
            highwater < record.counters.injected,
            "slots were reused ({highwater} slots for {} messages)",
            record.counters.injected
        );
        assert_ids_match(&record, &plan);
    }

    #[test]
    fn slots_wait_for_their_watchdog_probes() {
        // A watchdog that never bites but is armed by every wait: many
        // messages complete with a probe pending, and their slots are
        // reused only once it fired.
        let plan = mixed_plan(600);
        let (record, _, _) = against_classic(config(SimDuration::from_us(50.0)), &plan);
        assert_eq!(record.counters.stalled, 0);
        assert_ids_match(&record, &plan);
    }

    #[test]
    fn reaped_slots_are_never_reused() {
        // A watchdog short enough to reap part of the stream. The oracle
        // has no watchdog, so this leg checks the engine against its own
        // accounting (and, with the `invariants` feature, the deep checks
        // and the shadow checker).
        let cfg = config(SimDuration::from_us(0.5));
        let mut net = Network::new(Mesh::square(8), cfg, Box::new(WestFirst));
        #[cfg(feature = "invariants")]
        let checker = crate::InvariantChecker::new(true);
        #[cfg(feature = "invariants")]
        net.add_sink(checker.sink());
        let plan = mixed_plan(600);
        let (record, _) = open_loop!(net, &plan);
        let c = record.counters;
        assert!(c.stalled > 0, "the watchdog bites");
        assert_eq!(c.completed + c.stalled, c.injected);
        assert_eq!(net.in_flight(), 0);
        assert!(net.engine_stats().arena_msgs_highwater < c.injected);
        assert_ids_match(&record, &plan);
        net.force_check_invariants();
        #[cfg(feature = "invariants")]
        assert_eq!(checker.finish(0), Vec::<String>::new());
    }

    #[test]
    fn a_stale_watchdog_probe_never_reaches_the_next_occupant() {
        // A waits (and arms a 20 µs probe) behind X, then completes long
        // before its probe fires. B is injected after A completed, and at
        // the moment A's probe fires B waits behind Y at the same progress
        // epoch A had (none: both wait at their source). An engine that
        // handed A's slot to B at A's completion would let the stale probe
        // reap B; B must instead wait out Y and deliver.
        let mesh = Mesh::square(8);
        let at = |x, y| mesh.node_at(&Coord::xy(x, y));
        let spec = |src, dst, length, op, charge_startup| MessageSpec {
            src,
            route: Route::Fixed(CodedPath::unicast(&mesh, dor_path(&mesh, src, dst))),
            length,
            op: OpId(op),
            tag: 0,
            charge_startup,
        };
        let watchdog = SimDuration::from_us(20.0);
        let plan = [
            // X holds (1,0)→(2,0) from 1.506 µs to 4.518 µs.
            (SimTime::ZERO, spec(at(0, 0), at(3, 0), 1000, 0, true)),
            // A waits on it from 1.6 µs and completes at 4.572 µs.
            (SimTime::from_us(0.1), spec(at(1, 0), at(2, 0), 16, 1, true)),
            // B waits on (2,0)→(3,0) from 11.5 µs ...
            (
                SimTime::from_us(10.0),
                spec(at(2, 0), at(3, 0), 16, 2, true),
            ),
            // ... held by Y from 10.016 µs to 25.022 µs.
            (
                SimTime::from_us(10.01),
                spec(at(1, 0), at(3, 0), 5000, 3, false),
            ),
        ];
        let (record, net, _) = against_classic(config(watchdog), &plan);
        let stale_probe = SimTime::from_us(1.6) + watchdog;
        let a_done = record.deliveries.iter().find(|d| d.op == OpId(1)).unwrap();
        assert!(
            a_done.delivered_at < SimTime::from_us(10.0),
            "A completes before B"
        );
        let b = record.deliveries.iter().find(|d| d.op == OpId(2));
        let b = b.expect("B delivers: the stale probe did not reap it");
        assert!(
            b.delivered_at > stale_probe,
            "B was still waiting at A's probe"
        );
        assert_eq!(record.counters.stalled, 0);
        assert_eq!(record.counters.completed, 4);
        assert_ids_match(&record, &plan);
        net.force_check_invariants();
    }

    #[test]
    fn a_reaped_slot_keeps_its_pending_deliveries() {
        // M streams a 3 µs body along (0,0)→(3,0) absorbing at (1,0) and
        // (2,0), and wedges on the dead link into (3,0). The watchdog reaps
        // it at 2.512 µs, before either copy has drained (4.506 and
        // 4.512 µs). N is injected in between; its slot must not be M's,
        // or M's pending copies would be delivered as N's.
        let mesh = Mesh::square(8);
        let at = |x| mesh.node_at(&Coord::xy(x, 0));
        let nodes = [at(0), at(1), at(2), at(3)];
        let path = wormcast_routing::Path::through(&mesh, &nodes);
        let m = MessageSpec {
            src: at(0),
            route: Route::Fixed(CodedPath::gather_all(&mesh, path)),
            length: 1000,
            op: OpId(0),
            tag: 0,
            charge_startup: true,
        };
        let n = MessageSpec {
            src: at(5),
            route: Route::Fixed(CodedPath::unicast(&mesh, dor_path(&mesh, at(5), at(6)))),
            length: 16,
            op: OpId(1),
            tag: 0,
            charge_startup: true,
        };
        let plan = [(SimTime::ZERO, m), (SimTime::from_us(3.0), n)];
        let mut net = Network::new(
            mesh.clone(),
            config(SimDuration::from_us(1.0)),
            Box::new(WestFirst),
        );
        net.fail_channel(mesh.channel_between(at(2), at(3)).unwrap());
        let (record, _) = open_loop!(net, &plan);
        assert_eq!((record.counters.stalled, record.counters.completed), (1, 1));
        let got: Vec<(u64, NodeId)> = record
            .deliveries
            .iter()
            .map(|d| (d.message.0, d.node))
            .collect();
        assert_eq!(got, [(0, at(1)), (0, at(2)), (1, at(6))]);
        assert_ids_match(&record, &plan);
        net.force_check_invariants();
    }
}
