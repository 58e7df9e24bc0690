//! Broadcasts on faulted networks: plan-time graceful degradation plus the
//! fault-aware replication used by the `faults` experiment.
//!
//! Two layers cooperate to keep a broadcast useful when links die:
//!
//! 1. **Plan-time degradation** ([`degrade_schedule`]): every coded path
//!    crossing a link that is dead at t = 0 is truncated at the break. The
//!    receivers before the break keep a selective prefix of the original
//!    path; for the adaptive algorithm (AB, west-first routing) each
//!    receiver behind the break gets a detour unicast re-planned around the
//!    dead links with [`west_first_path_avoiding`] where a legal turn
//!    sequence exists. Deterministic algorithms (DOR/RD/EDN/DB) have no
//!    legal alternative path, so their cut-off receivers are counted
//!    undeliverable up front — graceful degradation, not a wedge. QAB's
//!    all-adaptive legs are checked against the dead set: a leg whose
//!    minimal negative-first candidate DAG is fully live stays adaptive
//!    (the engine steers by queue depth), while a leg the faults encroach
//!    on is re-planned as a negative-first-legal detour with
//!    [`negative_first_path_avoiding`].
//! 2. **Run-time resilience**: adaptive legs steer around dead candidates
//!    inside the engine, transient outages park waiters until the link
//!    returns, and the delivery watchdog reaps anything that still stalls
//!    (a relay that never got the payload, a mid-broadcast fail-stop), so
//!    [`run_faulty_broadcast`] always terminates with honest accounting.
//!
//! Determinism: the fault plan is sampled from the replication's `"faults"`
//! RNG substream and the source from `"sources"` (the same draw as the
//! fault-free [`BroadcastRep`](crate::harness::BroadcastRep)), so outcomes
//! are byte-identical across `--jobs` counts, and a zero fault rate
//! reproduces the fault-free code path event for event.

use crate::executor::{drive, BroadcastTracker};
use crate::harness::RepContext;
use crate::single::{attach_collector, finish_collector, network_for};
use serde::{Deserialize, Serialize};
use wormcast_broadcast::{Algorithm, BroadcastSchedule, RoutePlan, RoutingKind, ScheduledMessage};
use wormcast_network::{FaultPlan, FaultSpec, NetworkConfig, OpId};
use wormcast_routing::{
    negative_first_path_avoiding, planar_west_first_path_avoiding, west_first_path_avoiding,
    CodedPath, NegativeFirst, RoutingFunction,
};
use wormcast_sim::{SimDuration, SimRng};
use wormcast_stats::summarize;
use wormcast_telemetry::{Observe, TelemetryFrame};
use wormcast_topology::{ChannelId, Mesh, NodeId, Topology};

/// A schedule adjusted for the links dead at start, with the degradation
/// accounting.
#[derive(Debug, Clone)]
pub struct DegradedSchedule {
    /// The adjusted schedule (identical to the input when nothing is dead).
    pub schedule: BroadcastSchedule,
    /// Destinations no legal route can reach (sorted, deduplicated).
    pub unreachable: Vec<NodeId>,
    /// Detour unicasts successfully re-planned around dead links.
    pub reroutes: u64,
}

/// Re-plan `schedule` around the channels in `blocked`.
///
/// Paths that avoid every blocked channel pass through unchanged (an empty
/// `blocked` set returns an exact clone — the fault-rate-0 identity).
/// Coded paths are truncated at their first dead hop; receivers beyond the
/// break become detour unicasts under west-first re-planning when `alg`
/// routes adaptively, and undeliverable otherwise. AB's adaptive legs are
/// left to the engine, which steers around dead candidates hop by hop;
/// QAB's adaptive legs stay adaptive only while their whole minimal
/// candidate DAG is live, and are otherwise re-planned as negative-first
/// detours (or counted unreachable when the dead set severs every legal
/// route).
pub fn degrade_schedule(
    mesh: &Mesh,
    alg: Algorithm,
    schedule: &BroadcastSchedule,
    blocked: &[ChannelId],
) -> DegradedSchedule {
    if blocked.is_empty() {
        return DegradedSchedule {
            schedule: schedule.clone(),
            unreachable: Vec::new(),
            reroutes: 0,
        };
    }
    let mut dead = vec![false; mesh.num_channels()];
    for ch in blocked {
        dead[ch.index()] = true;
    }
    let adaptive_fallback = alg.routing() == RoutingKind::WestFirstAdaptive;
    let queue_adaptive = alg.routing() == RoutingKind::QueueAdaptive;
    let mut messages = Vec::new();
    let mut unreachable = Vec::new();
    let mut reroutes = 0u64;
    for m in &schedule.messages {
        // A run path is checked, and degraded, as the coded path it
        // expands to; one that avoids every dead hop passes through as is.
        let cp = match &m.plan {
            RoutePlan::Coded(cp) => cp.clone(),
            RoutePlan::Runs(rp) => rp.coded(mesh),
            &RoutePlan::Adaptive { src, dst } => {
                // QAB: an adaptive leg whose minimal negative-first candidate
                // DAG is entirely live is left to the engine's queue-aware
                // steering (it cannot be trapped — every greedy choice stays
                // inside a live DAG). A leg whose DAG touches a dead link is
                // re-planned here as a negative-first-legal detour around the
                // dead set, replacing AB's fixed west-first staircases; with no
                // legal live route the destination is counted up front.
                // AB's own adaptive corner legs keep the historical behaviour:
                // dodge in-flight, watchdog reaps dead ends.
                if queue_adaptive && adaptive_dag_hits_dead(mesh, src, dst, &dead) {
                    let is_dead = |c: ChannelId| dead[c.index()];
                    if let Some(p) = negative_first_path_avoiding(mesh, src, dst, &is_dead) {
                        reroutes += 1;
                        messages.push(ScheduledMessage {
                            step: m.step,
                            plan: RoutePlan::Coded(CodedPath::unicast(mesh, p)),
                            charge_startup: m.charge_startup,
                        });
                    } else {
                        unreachable.push(dst);
                    }
                    continue;
                }
                messages.push(m.clone());
                continue;
            }
        };
        let Some(k) = cp.path.hops.iter().position(|c| dead[c.index()]) else {
            messages.push(m.clone());
            continue;
        };
        // Hop `k` (node k → node k+1) is dead: nodes 0..=k stay reachable
        // along the original path, nodes k+1.. sit behind the break.
        let nodes = cp.path.nodes(mesh);
        let mask = cp.deliver_mask();
        if mask[1..=k].contains(&true) {
            let prefix = (1..=k).map(|i| (nodes[i], mask[i]));
            messages.push(ScheduledMessage {
                step: m.step,
                plan: RoutePlan::Coded(CodedPath::selective(mesh, nodes[0], prefix)),
                charge_startup: m.charge_startup,
            });
        }
        for i in (k + 1)..nodes.len() {
            if !mask[i] {
                continue;
            }
            let dst = nodes[i];
            if adaptive_fallback {
                let is_dead = |c: ChannelId| dead[c.index()];
                let detour = match mesh.ndims() {
                    2 => west_first_path_avoiding(mesh, cp.src(), dst, &is_dead),
                    3 => planar_west_first_path_avoiding(mesh, cp.src(), dst, &is_dead),
                    _ => None,
                };
                if let Some(p) = detour {
                    reroutes += 1;
                    messages.push(ScheduledMessage {
                        step: m.step,
                        plan: RoutePlan::Coded(CodedPath::unicast(mesh, p)),
                        charge_startup: m.charge_startup,
                    });
                    continue;
                }
            }
            unreachable.push(dst);
        }
    }
    unreachable.sort_by_key(|n| n.0);
    unreachable.dedup();
    DegradedSchedule {
        schedule: BroadcastSchedule {
            source: schedule.source,
            messages,
            algorithm: schedule.algorithm,
        },
        unreachable,
        reroutes,
    }
}

/// Whether any channel in the minimal negative-first candidate DAG from
/// `src` to `dst` is dead: the set of channels a queue-aware header *could*
/// be offered at run time, whatever the backlog. All live means the engine's
/// greedy steering can never be cornered on this leg; any dead means the leg
/// is conservatively re-planned at schedule time.
fn adaptive_dag_hits_dead(mesh: &Mesh, src: NodeId, dst: NodeId, dead: &[bool]) -> bool {
    let mut seen = vec![false; mesh.num_nodes()];
    seen[src.index()] = true;
    let mut stack = vec![src];
    while let Some(cur) = stack.pop() {
        for ch in NegativeFirst.candidates(mesh, src, cur, None, dst) {
            if dead[ch.index()] {
                return true;
            }
            let to = mesh.channel_endpoints(ch).1;
            if !seen[to.index()] {
                seen[to.index()] = true;
                stack.push(to);
            }
        }
    }
    false
}

/// Measured outcome of one broadcast on a faulted network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultyOutcome {
    /// Algorithm short name.
    pub algorithm: String,
    /// The broadcasting node.
    pub source: NodeId,
    /// Fraction of destinations that received the payload.
    pub delivery_ratio: f64,
    /// Destinations reached.
    pub received: u64,
    /// Destinations the broadcast was supposed to reach.
    pub expected: u64,
    /// Destinations that never received the payload.
    pub undelivered: u64,
    /// Messages the delivery watchdog reaped as stalled.
    pub stalled: u64,
    /// Successful re-routes around dead links: plan-time detour unicasts
    /// plus in-flight adaptive dodges.
    pub reroutes: u64,
    /// Link-down transitions that took effect during the run.
    pub link_failures: u64,
    /// Mean arrival latency over the destinations actually reached, µs
    /// (0 when nothing was delivered).
    pub mean_delivered_latency_us: f64,
    /// Latest arrival over the destinations actually reached, µs
    /// (0 when nothing was delivered).
    pub max_delivered_latency_us: f64,
}

/// A watchdog generous enough that legitimate backpressure is never reaped:
/// many multiples of a worst-case message-passing step (start-up, a
/// diameter's worth of header hops there and back, a full body drain).
fn default_watchdog(cfg: &NetworkConfig, mesh: &Mesh, length: u64) -> SimDuration {
    let diameter: u64 = mesh
        .dims()
        .iter()
        .map(|&d| (d as u64).saturating_sub(1))
        .sum();
    let step = cfg.startup + cfg.hop_time().times(2 * diameter.max(1)) + cfg.body_time(length);
    step.times(64)
}

/// Run one broadcast of `length` flits from `source` under faults sampled
/// from `spec`, and measure delivery instead of assuming it.
///
/// The schedule is degraded around the links dead at t = 0
/// ([`degrade_schedule`]), the sampled [`FaultPlan`] is applied on the
/// simulation clock, and — unless the caller already set one — a generous
/// delivery watchdog is armed whenever the plan is non-empty so stalls are
/// recorded rather than hung on. With a zero-rate `spec` the run is event-
/// for-event identical to the fault-free path.
pub fn run_faulty_broadcast(
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    source: NodeId,
    length: u64,
    spec: &FaultSpec,
    rng: &mut SimRng,
) -> FaultyOutcome {
    run_faulty_broadcast_observed(mesh, cfg, alg, source, length, spec, rng, None).0
}

/// [`run_faulty_broadcast`] with optional telemetry collection.
///
/// With `observe = None` this is the exact unobserved code path; with
/// `Some`, a `wormcast_telemetry::Collector` sink additionally records the
/// phase histograms, heatmap, event stream and — new with faults — the
/// reliability counters (link transitions, reroutes, stalls) per the spec.
/// Only the latencies of destinations actually reached are fed to the
/// frame's arrival histogram, and the per-operation CV is recorded over the
/// same survivors.
#[allow(clippy::too_many_arguments)] // mirrors run_single_broadcast_observed + fault inputs
pub fn run_faulty_broadcast_observed(
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    source: NodeId,
    length: u64,
    spec: &FaultSpec,
    rng: &mut SimRng,
    observe: Option<Observe<'_>>,
) -> (FaultyOutcome, Option<TelemetryFrame>) {
    let plan = FaultPlan::sample(mesh, spec, rng);
    let schedule = alg.schedule(mesh, source);
    let degraded = degrade_schedule(mesh, alg, &schedule, &plan.dead_at_start());
    let cfg = if plan.is_empty() || cfg.watchdog != SimDuration::ZERO {
        cfg
    } else {
        cfg.with_watchdog(default_watchdog(&cfg, mesh, length))
    };
    let mut net = network_for(alg, mesh.clone(), cfg);
    let collector = attach_collector(&mut net, observe);
    net.schedule_faults(&plan);
    // Stops early when stalls are reaped: the remaining destinations stay
    // unreached.
    let tracker = drive(
        &mut *net,
        BroadcastTracker::new(mesh, &degraded.schedule, OpId(0), length),
    );
    // Drain tails (and any remaining watchdog checks) for final accounting.
    net.run_until_idle();
    let lats = tracker.delivered_latencies_us();
    let s = summarize(&lats);
    let c = net.counters();
    let outcome = FaultyOutcome {
        algorithm: alg.name().to_string(),
        source,
        delivery_ratio: tracker.delivery_ratio(),
        received: tracker.received() as u64,
        expected: tracker.expected() as u64,
        undelivered: (tracker.expected() - tracker.received()) as u64,
        stalled: c.stalled,
        reroutes: degraded.reroutes + c.reroutes,
        link_failures: c.link_failures,
        mean_delivered_latency_us: s.mean(),
        max_delivered_latency_us: if s.count() == 0 { 0.0 } else { s.max() },
    };
    let frame = finish_collector(net, collector).map(|mut f| {
        for &l in &lats {
            f.record_arrival_us(l);
        }
        if s.count() > 1 {
            f.record_op_cv(s.cv());
        }
        // Plan-time detours are invisible to the engine sink; fold them in
        // so the frame's reroute count matches the outcome's.
        f.reliability.reroutes += degraded.reroutes;
        f
    });
    (outcome, frame)
}

/// One replication of the fault experiment: a single-source broadcast from
/// a uniformly drawn source under a fault plan sampled from the
/// replication's own RNG stream.
#[derive(Debug, Clone)]
pub struct FaultRep {
    /// The mesh under test.
    pub mesh: Mesh,
    /// Network configuration (ports are overridden per algorithm; a zero
    /// watchdog is auto-armed when faults are present).
    pub cfg: NetworkConfig,
    /// Broadcast algorithm under test.
    pub alg: Algorithm,
    /// Message length in flits.
    pub length: u64,
    /// Fault sampling rates.
    pub faults: FaultSpec,
}

impl FaultRep {
    /// Run replication `ctx.index` with optional telemetry collection.
    ///
    /// Stamp `observe.rep` with an identifier unique across the whole
    /// experiment (e.g. the global task index), as with
    /// [`BroadcastRep`](crate::harness::BroadcastRep).
    pub fn replicate_observed(
        &self,
        ctx: &mut RepContext,
        observe: Option<Observe<'_>>,
    ) -> (FaultyOutcome, Option<TelemetryFrame>) {
        // Same source draw as the fault-free BroadcastRep; faults come from
        // an independent labelled substream so enabling them never perturbs
        // source selection.
        let mut src_rng = ctx.rng.substream("sources");
        let source = NodeId(src_rng.index(self.mesh.num_nodes()) as u32);
        let mut fault_rng = ctx.rng.substream("faults");
        run_faulty_broadcast_observed(
            &self.mesh,
            self.cfg,
            self.alg,
            source,
            self.length,
            &self.faults,
            &mut fault_rng,
            observe,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{BroadcastRep, Runner};
    use wormcast_topology::Coord;

    fn cfg() -> NetworkConfig {
        NetworkConfig::paper_default()
    }

    #[test]
    fn broadcast_over_failed_link_stalls_that_branch_only() {
        // Fault-tolerance motivation (the paper cites fault signalling as a
        // broadcast use): a DB broadcast with one dead row link delivers to
        // everyone except the nodes behind the dead link.
        let mesh = Mesh::cube(4);
        let mut net = wormcast_network::Network::new(
            mesh.clone(),
            cfg().with_ports(6),
            Box::new(wormcast_routing::DimensionOrdered),
        );
        // Fail one +X row link in plane 2.
        let a = mesh.node_at(&Coord::xyz(0, 1, 2));
        let b = mesh.node_at(&Coord::xyz(1, 1, 2));
        net.fail_channel(mesh.channel_between(a, b).unwrap());
        let src = mesh.node_at(&Coord::xyz(3, 3, 0));
        let schedule = Algorithm::Db.schedule(&mesh, src);
        let tracker = drive(
            &mut net,
            BroadcastTracker::new(&mesh, &schedule, OpId(0), 16),
        );
        // Some (not all) nodes were reached; the dead branch stalled.
        assert!(tracker.received() > 0);
        assert!(tracker.received() < 63);
        assert!(net.in_flight() > 0, "the faulted branch is still stuck");
    }

    #[test]
    fn zero_rate_matches_fault_free_bitwise() {
        // The fault-rate-0 identity the CI smoke leans on: FaultRep with an
        // all-zero spec reproduces BroadcastRep's latencies bit for bit.
        let mesh = Mesh::cube(4);
        for alg in Algorithm::ALL {
            let faulty = FaultRep {
                mesh: mesh.clone(),
                cfg: cfg(),
                alg,
                length: 64,
                faults: FaultSpec::fail_stop(0.0),
            };
            let clean = BroadcastRep {
                mesh: mesh.clone(),
                cfg: cfg(),
                alg,
                length: 64,
            };
            let mut fo = Vec::new();
            let mut co = Vec::new();
            let ctx = |i| RepContext::new(7, i);
            Runner::sequential().run(
                3,
                |i| faulty.replicate_observed(&mut ctx(i), None).0,
                |_, o| fo.push(o),
            );
            Runner::sequential().run(
                3,
                |i| clean.replicate_observed(&mut ctx(i), None).0,
                |_, o| co.push(o),
            );
            for (f, c) in fo.iter().zip(&co) {
                assert_eq!(f.source, c.source, "{alg}: same source draw");
                assert_eq!(f.delivery_ratio, 1.0);
                assert_eq!((f.stalled, f.reroutes, f.link_failures), (0, 0, 0));
                assert_eq!(
                    f.max_delivered_latency_us.to_bits(),
                    c.network_latency_us.to_bits(),
                    "{alg}: bit-identical latency"
                );
            }
        }
    }

    #[test]
    fn profiled_frames_carry_the_engine_stall_count() {
        use wormcast_telemetry::{MetricId, TelemetrySpec};
        let mesh = Mesh::cube(4);
        let spec = TelemetrySpec::full();
        let mut stalled_runs = 0;
        for seed in 0..32 {
            let mut rng = SimRng::new(seed);
            let (o, frame) = run_faulty_broadcast_observed(
                &mesh,
                cfg(),
                Algorithm::Ab,
                NodeId(seed as u32),
                32,
                &FaultSpec::fail_stop(0.05),
                &mut rng,
                Some(Observe::new(&spec, seed)),
            );
            let frame = frame.expect("observed runs return a frame");
            assert_eq!(
                frame.metrics.counter_total(MetricId::EngineStalls),
                o.stalled,
                "seed {seed}"
            );
            stalled_runs += usize::from(o.stalled > 0);
        }
        assert!(stalled_runs > 0, "some faulted run must stall");
    }

    #[test]
    fn outcomes_are_job_count_invariant() {
        let spec = FaultRep {
            mesh: Mesh::cube(4),
            cfg: cfg(),
            alg: Algorithm::Ab,
            length: 32,
            faults: FaultSpec::fail_stop(0.05),
        };
        let run_with = |jobs: usize| {
            let mut out = Vec::new();
            Runner::new(jobs).run(
                6,
                |i| spec.replicate_observed(&mut RepContext::new(99, i), None).0,
                |_, o| {
                    out.push((
                        o.source,
                        o.delivery_ratio.to_bits(),
                        o.mean_delivered_latency_us.to_bits(),
                        o.stalled,
                        o.reroutes,
                    ))
                },
            );
            out
        };
        assert_eq!(run_with(1), run_with(4));
    }

    #[test]
    fn degrade_is_identity_without_blocks() {
        let mesh = Mesh::cube(4);
        let schedule = Algorithm::Db.schedule(&mesh, NodeId(21));
        let d = degrade_schedule(&mesh, Algorithm::Db, &schedule, &[]);
        assert_eq!(d.schedule.messages.len(), schedule.messages.len());
        assert!(d.unreachable.is_empty());
        assert_eq!(d.reroutes, 0);
    }

    #[test]
    fn degrade_truncates_dor_paths_and_counts_unreachable() {
        // 2D mesh, RD from a corner: kill a link and the nodes behind it
        // become unreachable for a deterministic algorithm.
        let mesh = Mesh::square(4);
        let src = mesh.node_at(&Coord::xy(0, 0));
        let schedule = Algorithm::Rd.schedule(&mesh, src);
        let dead = mesh
            .channel_between(
                mesh.node_at(&Coord::xy(2, 0)),
                mesh.node_at(&Coord::xy(3, 0)),
            )
            .unwrap();
        let d = degrade_schedule(&mesh, Algorithm::Rd, &schedule, &[dead]);
        // Every degraded path must now avoid the dead channel.
        for m in &d.schedule.messages {
            if let Some(cp) = m.plan.coded(&mesh) {
                assert!(cp.path.hops.iter().all(|&c| c != dead));
            }
        }
        assert!(
            !d.unreachable.is_empty(),
            "DOR cannot re-plan around the break"
        );
        assert_eq!(d.reroutes, 0);
    }

    #[test]
    fn degrade_replans_ab_detours_around_the_break() {
        // AB on 2D: a coded gather path hits a dead link; west-first
        // re-planning must recover receivers wherever a legal detour exists.
        let mesh = Mesh::square(4);
        let src = mesh.node_at(&Coord::xy(0, 0));
        let schedule = Algorithm::Ab.schedule(&mesh, src);
        // Find a channel used by some coded plan and kill it.
        let dead = schedule
            .messages
            .iter()
            .find_map(|m| m.plan.coded(&mesh)?.path.hops.first().copied())
            .expect("AB schedules coded gather paths");
        let d = degrade_schedule(&mesh, Algorithm::Ab, &schedule, &[dead]);
        for m in &d.schedule.messages {
            if let Some(cp) = m.plan.coded(&mesh) {
                assert!(cp.path.hops.iter().all(|&c| c != dead));
            }
        }
        assert!(
            d.reroutes > 0 || d.unreachable.is_empty(),
            "receivers behind the break are either re-routed or counted"
        );
    }

    #[test]
    fn degrade_replans_qab_legs_the_faults_encroach_on() {
        // QAB from (1,1): two adaptive corner legs, (1,1)→(0,0) and
        // (0,0)→(3,3). Kill one interior link inside the far leg's
        // candidate DAG: that leg must turn into a fixed negative-first
        // detour avoiding it, while the near leg (whose DAG never touches
        // the dead link) stays adaptive and the serpentines pass through
        // unchanged. The link is interior (row 1) so a monotone detour
        // always exists; a boundary-row link would honestly sever the
        // same-row destinations, exactly as west-first's staircase does
        // for AB.
        let mesh = Mesh::square(4);
        let src = mesh.node_at(&Coord::xy(1, 1));
        let schedule = Algorithm::Qab.schedule(&mesh, src);
        let adaptive = |s: &BroadcastSchedule| {
            s.messages
                .iter()
                .filter(|m| matches!(m.plan, RoutePlan::Adaptive { .. }))
                .count()
        };
        assert_eq!(adaptive(&schedule), 2, "two corner legs to steer");
        let dead = mesh
            .channel_between(
                mesh.node_at(&Coord::xy(1, 1)),
                mesh.node_at(&Coord::xy(2, 1)),
            )
            .unwrap();
        let d = degrade_schedule(&mesh, Algorithm::Qab, &schedule, &[dead]);
        assert_eq!(d.reroutes, 1, "exactly the encroached leg is re-planned");
        assert_eq!(
            adaptive(&d.schedule),
            1,
            "the leg away from the fault stays adaptive"
        );
        for m in &d.schedule.messages {
            if let Some(cp) = m.plan.coded(&mesh) {
                assert!(cp.path.hops.iter().all(|&c| c != dead));
            }
        }
        assert_eq!(
            d.schedule.messages.len(),
            schedule.messages.len(),
            "the detour replaces its leg one-for-one"
        );
        assert!(d.unreachable.is_empty(), "one dead link severs nothing");
    }

    #[test]
    fn degrade_counts_qab_unreachable_when_cut_off() {
        // Sever every link into the far corner: no legal route remains and
        // the corner is declared unreachable at plan time.
        let mesh = Mesh::square(3);
        let src = mesh.node_at(&Coord::xy(0, 0));
        let corner = mesh.node_at(&Coord::xy(2, 2));
        let schedule = Algorithm::Qab.schedule(&mesh, src);
        let dead: Vec<ChannelId> = mesh
            .channels()
            .filter(|&c| mesh.channel_endpoints(c).1 == corner)
            .collect();
        let d = degrade_schedule(&mesh, Algorithm::Qab, &schedule, &dead);
        assert_eq!(d.unreachable, vec![corner]);
    }

    #[test]
    fn faulted_runs_terminate_and_account_losses() {
        // A hard fault rate on every algorithm: the run must terminate (the
        // watchdog reaps wedges) and the books must balance.
        let mesh = Mesh::cube(4);
        for alg in Algorithm::ALL {
            let spec = FaultRep {
                mesh: mesh.clone(),
                cfg: cfg(),
                alg,
                length: 32,
                faults: FaultSpec::fail_stop(0.08),
            };
            let mut seen = 0;
            Runner::sequential().run(
                4,
                |i| spec.replicate_observed(&mut RepContext::new(11, i), None).0,
                |_, o| {
                    seen += 1;
                    assert_eq!(o.received + o.undelivered, o.expected, "{alg}");
                    assert!(o.delivery_ratio >= 0.0 && o.delivery_ratio <= 1.0);
                },
            );
            assert_eq!(seen, 4);
        }
    }
}
