//! Schedule-layer semantics, pinned against the `network::classic` oracle.
//!
//! Two families of guarantees:
//!
//! * **Same-cycle restore (watchdog regression):** a `LinkUp` landing on the
//!   exact cycle a `StallCheck` fires must count as forward progress — the
//!   waiter gets a fresh timeout instead of a spurious reap, and the arena
//!   engine's physics stay bit-equal to the (watchdog-free) oracle.
//! * **Speed transitions and phase marks:** scheduled bandwidth changes and
//!   phase boundaries produce identical traces, deliveries, and counters in
//!   the arena engine and the classic oracle.

use wormcast_network::{
    classic, open_loop, Engine, FaultEvent, FaultKind, FaultPlan, MessageSpec, Network,
    NetworkConfig, OpId, ReleaseMode, Route, RunRecord,
};
use wormcast_routing::{dor_path, CodedPath, DimensionOrdered};
use wormcast_sim::{SimTime, SpeedTransition};
use wormcast_topology::{Coord, Mesh, Topology};

fn unicast(mesh: &Mesh, src: (u16, u16), dst: (u16, u16), length: u64, op: u64) -> MessageSpec {
    let s = mesh.node_at(&Coord::xy(src.0, src.1));
    let d = mesh.node_at(&Coord::xy(dst.0, dst.1));
    MessageSpec {
        src: s,
        route: Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, s, d))),
        length,
        op: OpId(op),
        tag: 0,
        charge_startup: false,
    }
}

/// Run `plan` (sorted by time) open loop on `net` under a trace: the run's
/// record.
fn record(net: &mut impl Engine, plan: &[(SimTime, MessageSpec)]) -> RunRecord {
    net.enable_trace(65536);
    let (deliveries, _) = open_loop(net, plan);
    RunRecord::of(net, deliveries)
}

/// A restore on the same cycle as the watchdog probe, while the channel is
/// still draining another message, must re-arm the probe — not reap the
/// waiter. Before the progress-epoch fix the probe compared hop counts,
/// saw "no progress", and stalled a message the restored link was about to
/// serve.
#[test]
fn same_cycle_restore_does_not_trip_watchdog() {
    let mesh = Mesh::square(2);
    // Facility queueing so the blocker's channel drains on its own clock,
    // independent of downstream progress; 2 ports so both messages start.
    let cfg = NetworkConfig::builder()
        .startup_us(0.0)
        .flit_us(0.003)
        .routing_delay_us(0.003)
        .ports(2)
        .release(ReleaseMode::AfterTailCrossing)
        .watchdog_us(0.3)
        .build()
        .expect("valid config");

    // Blocker: 200 flits across the channel (0,0)->(1,0). Granted at t=0,
    // header at 0.006, tail drains until 0.606 — the channel stays busy.
    let blocker = unicast(&mesh, (0, 0), (1, 0), 200, 0);
    let Route::Fixed(cp) = &blocker.route else {
        unreachable!()
    };
    let contested = cp.path.hops[0];

    // Outage: down at 0.1 (mid-drain), restored at exactly 0.5 — the same
    // cycle the victim's watchdog probe fires (victim waits from 0.2, and
    // 0.2 + 0.3 = 0.5). The channel is still draining until 0.606.
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        at: SimTime::from_us(0.1),
        kind: FaultKind::LinkDown(contested),
    });
    plan.push(FaultEvent {
        at: SimTime::from_us(0.5),
        kind: FaultKind::LinkUp(contested),
    });

    let victim = unicast(&mesh, (0, 0), (1, 0), 10, 1);
    let traffic = [(SimTime::ZERO, blocker), (SimTime::from_us(0.2), victim)];

    let mut arena = Network::new(mesh.clone(), cfg, Box::new(DimensionOrdered));
    arena.schedule_faults(&plan);
    // The oracle has no watchdog at all, so bit-equality here proves the
    // watchdog made no spurious decision anywhere on this schedule. Final
    // clocks are left out: the arena's re-armed probe fires once more
    // (harmlessly, after completion) at 0.8 µs.
    let mut oracle = classic::Network::new(mesh, cfg, Box::new(DimensionOrdered));
    oracle.schedule_faults(&plan);
    let got = record(&mut arena, &traffic).without_clock();
    let want = record(&mut oracle, &traffic).without_clock();
    assert_eq!(got.first_divergence(&want), None);

    let c = got.counters;
    assert_eq!(c.stalled, 0, "same-cycle restore must not reap the waiter");
    assert_eq!(c.completed, 2);
    assert_eq!(c.deliveries, 2);
    assert_eq!(c.link_failures, 1);
    assert_eq!(c.link_restores, 1);
}

/// A restore one cycle *too late* (after the probe) still reaps: the fix
/// must not make the watchdog ignore genuine stalls.
#[test]
fn late_restore_still_reaps_the_waiter() {
    let mesh = Mesh::square(2);
    let cfg = NetworkConfig::builder()
        .startup_us(0.0)
        .flit_us(0.003)
        .routing_delay_us(0.003)
        .ports(2)
        .release(ReleaseMode::AfterTailCrossing)
        .watchdog_us(0.3)
        .build()
        .expect("valid config");

    let blocker = unicast(&mesh, (0, 0), (1, 0), 200, 0);
    let Route::Fixed(cp) = &blocker.route else {
        unreachable!()
    };
    let contested = cp.path.hops[0];

    // Down at 0.1; restored at 0.5001 — just after the probe at 0.5.
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        at: SimTime::from_us(0.1),
        kind: FaultKind::LinkDown(contested),
    });
    plan.push(FaultEvent {
        at: SimTime::from_us(0.5001),
        kind: FaultKind::LinkUp(contested),
    });

    let mut arena = Network::new(mesh, cfg, Box::new(DimensionOrdered));
    arena.schedule_faults(&plan);
    arena.inject_at(SimTime::ZERO, blocker);
    arena.inject_at(
        SimTime::from_us(0.2),
        unicast(&Mesh::square(2), (0, 0), (1, 0), 10, 1),
    );
    arena.run_until_idle();

    let c = arena.counters();
    assert_eq!(c.stalled, 1, "a probe with no progress must still reap");
    assert_eq!(c.completed, 1);
}

/// Scheduled bandwidth transitions and phase marks produce bit-equal
/// physics in the arena engine and the oracle.
#[test]
fn speed_transitions_and_phase_marks_match_across_engines() {
    let mesh = Mesh::square(4);
    let cfg = NetworkConfig::paper_default();
    let traffic = [
        unicast(&mesh, (0, 0), (3, 2), 64, 0),
        unicast(&mesh, (1, 0), (3, 3), 32, 1),
        unicast(&mesh, (0, 3), (2, 0), 48, 2),
        unicast(&mesh, (3, 1), (0, 2), 16, 3),
    ]
    .map(|spec| (SimTime::ZERO, spec));
    // Slow every other physical channel 4x partway through, restore later.
    let mut transitions = Vec::new();
    for ch in mesh.channels().step_by(2) {
        transitions.push(SpeedTransition {
            at: SimTime::from_us(1.6),
            channel: ch.0,
            factor: 4,
        });
        transitions.push(SpeedTransition {
            at: SimTime::from_us(2.4),
            channel: ch.0,
            factor: 1,
        });
    }
    let marks = [(SimTime::from_us(1.6), 1u32), (SimTime::from_us(2.4), 2u32)];

    let mut arena = Network::new(mesh.clone(), cfg, Box::new(DimensionOrdered));
    arena.schedule_speed_transitions(&transitions);
    arena.schedule_phase_marks(&marks);
    let mut oracle = classic::Network::new(mesh.clone(), cfg, Box::new(DimensionOrdered));
    oracle.schedule_speed_transitions(&transitions);
    oracle.schedule_phase_marks(&marks);
    let got = record(&mut arena, &traffic);
    let want = record(&mut oracle, &traffic);
    assert_eq!(got.first_divergence(&want), None);
}

/// The slowdown is observable: the same workload takes strictly longer when
/// its path is degraded, by exactly the extra crossing time.
#[test]
fn speed_factor_lengthens_the_crossing_exactly() {
    let mesh = Mesh::square(4);
    let cfg = NetworkConfig::paper_default();
    let spec = unicast(&mesh, (0, 0), (3, 2), 64, 0);

    let run = |factor: u32| {
        let mut net = Network::new(mesh.clone(), cfg, Box::new(DimensionOrdered));
        if factor > 1 {
            let transitions: Vec<SpeedTransition> = mesh
                .channels()
                .map(|ch| SpeedTransition {
                    at: SimTime::ZERO,
                    channel: ch.0,
                    factor,
                })
                .collect();
            net.schedule_speed_transitions(&transitions);
        }
        net.inject_at(SimTime::ZERO, spec.clone());
        net.run_until_idle();
        net.drain_deliveries()
            .pop()
            .expect("one delivery")
            .latency()
    };

    let base = run(1);
    let slow = run(3);
    // 5 hops at hop_time extra per unit factor (startup and body unchanged).
    let extra = slow.as_us() - base.as_us();
    let expected = 5.0 * cfg.hop_time().as_us() * 2.0;
    assert!(
        (extra - expected).abs() < 1e-9,
        "expected {expected} µs of extra crossing time, got {extra}"
    );
}
