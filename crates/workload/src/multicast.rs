//! Executing multicast schedules — destination-subset delivery on the
//! simulated network (the paper's named future direction).

use crate::executor::{BroadcastTracker, Fed, Ops};
use crate::single::{attach_collector, finish_collector, network_for};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use wormcast_broadcast::{Algorithm, BroadcastSchedule};
use wormcast_network::{NetworkConfig, OpId};
use wormcast_sim::{SimRng, SimTime};
use wormcast_stats::summarize;
use wormcast_telemetry::{Observe, TelemetryFrame};
use wormcast_topology::{Mesh, NodeId, Topology};

/// Which multicast scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MulticastScheme {
    /// Unicast-based recursive doubling over the destination list.
    Um,
    /// Coded-path multicast, DB-style backbone + per-row coded paths.
    Cm,
    /// Single chained coded path visiting destinations in scan order.
    Sp,
}

impl MulticastScheme {
    /// All schemes.
    pub const ALL: [MulticastScheme; 3] = [
        MulticastScheme::Um,
        MulticastScheme::Cm,
        MulticastScheme::Sp,
    ];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            MulticastScheme::Um => "UM",
            MulticastScheme::Cm => "CM",
            MulticastScheme::Sp => "SP",
        }
    }

    /// Build the schedule.
    pub fn schedule(self, mesh: &Mesh, source: NodeId, dests: &[NodeId]) -> BroadcastSchedule {
        match self {
            MulticastScheme::Um => wormcast_broadcast::um_multicast(mesh, source, dests),
            MulticastScheme::Cm => wormcast_broadcast::cpr_multicast(mesh, source, dests),
            MulticastScheme::Sp => wormcast_broadcast::sp_multicast(mesh, source, dests),
        }
    }
}

/// Measured outcome of one multicast operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MulticastOutcome {
    /// Scheme short name.
    pub scheme: String,
    /// Destinations requested.
    pub destinations: usize,
    /// Time until the **last destination** received, µs.
    pub latency_us: f64,
    /// Mean destination arrival latency, µs.
    pub mean_latency_us: f64,
    /// CV of destination arrival latencies.
    pub cv: f64,
    /// Relay copies delivered to non-destination (backbone) nodes.
    pub overhead_copies: usize,
}

/// Run one multicast of `length` flits to `dests` on an idle network.
///
/// # Panics
/// Panics if the schedule fails multicast validation or the network stalls.
pub fn run_single_multicast(
    mesh: &Mesh,
    cfg: NetworkConfig,
    scheme: MulticastScheme,
    source: NodeId,
    dests: &[NodeId],
    length: u64,
) -> MulticastOutcome {
    run_single_multicast_observed(mesh, cfg, scheme, source, dests, length, None).0
}

/// [`run_single_multicast`] with optional telemetry collection.
///
/// With `observe = None` this is the exact unobserved code path; with
/// `Some`, the sink decomposes engine phases, and the driver feeds the
/// per-destination arrival latencies and the operation's CV into the frame.
pub fn run_single_multicast_observed(
    mesh: &Mesh,
    cfg: NetworkConfig,
    scheme: MulticastScheme,
    source: NodeId,
    dests: &[NodeId],
    length: u64,
    observe: Option<Observe<'_>>,
) -> (MulticastOutcome, Option<TelemetryFrame>) {
    let schedule = scheme.schedule(mesh, source, dests);
    let extra = wormcast_broadcast::validate_multicast(mesh, &schedule, dests)
        .expect("multicast schedule valid");
    // CPR-style schemes ride the DB/AB router model; UM rides RD's.
    let alg = match scheme {
        MulticastScheme::Um => Algorithm::Rd,
        _ => Algorithm::Db,
    };
    let mut net = network_for(alg, mesh.clone(), cfg);
    let collector = attach_collector(&mut net, observe);
    let tracker = BroadcastTracker::multicast(mesh, &schedule, dests, OpId(0), length);
    let mut done = tracker.is_complete();
    let mut ops = Ops::default();
    ops.launch(&mut net, SimTime::ZERO, tracker);
    // Destination latencies in delivery order: the CV is a Welford
    // statistic, so the order it is fed in is part of the result.
    let want: HashSet<NodeId> = dests.iter().copied().filter(|&d| d != source).collect();
    let mut lats = Vec::new();
    while !done {
        let stepped = ops.step(&mut net, |d, fed| {
            if want.contains(&d.node) {
                lats.push(d.delivered_at.since(SimTime::ZERO).as_us());
            }
            done |= matches!(fed, Fed::Completed(_));
        });
        assert!(stepped, "network idle before multicast completion");
    }
    let s = summarize(&lats);
    let outcome = MulticastOutcome {
        scheme: scheme.name().to_string(),
        destinations: lats.len(),
        latency_us: s.max(),
        mean_latency_us: s.mean(),
        cv: s.cv(),
        overhead_copies: extra.len(),
    };
    if let Some(c) = &collector {
        for &l in &lats {
            c.record_arrival_us(l);
        }
        c.record_op_cv(s.cv());
    }
    (outcome, finish_collector(net, collector))
}

/// Pick `m` distinct uniform destinations (≠ source).
pub fn random_destinations(mesh: &Mesh, source: NodeId, m: usize, seed: u64) -> Vec<NodeId> {
    assert!(m < mesh.num_nodes(), "destination set too large");
    let mut rng = SimRng::new(seed).substream("multicast-dests");
    let mut set = HashSet::with_capacity(m);
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let d = NodeId(rng.index(mesh.num_nodes()) as u32);
        if d != source && set.insert(d) {
            out.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_deliver_to_all_destinations() {
        let mesh = Mesh::cube(4);
        let src = NodeId(13);
        let dests = random_destinations(&mesh, src, 20, 7);
        for scheme in MulticastScheme::ALL {
            let o = run_single_multicast(
                &mesh,
                NetworkConfig::paper_default(),
                scheme,
                src,
                &dests,
                32,
            );
            assert_eq!(o.destinations, 20, "{}", scheme.name());
            assert!(o.latency_us > 0.0);
            assert!(o.mean_latency_us <= o.latency_us);
        }
    }

    #[test]
    fn cm_beats_um_on_dense_sets() {
        // With many destinations, UM pays log2(m) serialized start-ups on
        // its critical path; CM pays 3.
        let mesh = Mesh::cube(8);
        let src = NodeId(0);
        let dests = random_destinations(&mesh, src, 200, 3);
        let cfg = NetworkConfig::paper_default();
        let um = run_single_multicast(&mesh, cfg, MulticastScheme::Um, src, &dests, 32);
        let cm = run_single_multicast(&mesh, cfg, MulticastScheme::Cm, src, &dests, 32);
        assert!(
            cm.latency_us < um.latency_us,
            "CM {} should beat UM {}",
            cm.latency_us,
            um.latency_us
        );
    }

    #[test]
    fn sp_pays_one_startup_but_long_chain() {
        let mesh = Mesh::cube(4);
        let src = NodeId(0);
        let dests = random_destinations(&mesh, src, 30, 11);
        let cfg = NetworkConfig::paper_default();
        let sp = run_single_multicast(&mesh, cfg, MulticastScheme::Sp, src, &dests, 32);
        let um = run_single_multicast(&mesh, cfg, MulticastScheme::Um, src, &dests, 32);
        // SP's chain visits destinations serially: arrivals spread evenly
        // along the chain (high CV, last destination far behind the first),
        // while UM's tree concentrates arrivals in its final doubling steps.
        assert!(
            sp.latency_us > sp.mean_latency_us * 1.3,
            "chain spread: max {} vs mean {}",
            sp.latency_us,
            sp.mean_latency_us
        );
        assert!(
            sp.cv > um.cv,
            "SP CV {} should exceed UM CV {}",
            sp.cv,
            um.cv
        );
        assert_eq!(sp.overhead_copies, 0, "SP only touches destinations");
    }

    #[test]
    fn um_has_no_overhead_copies() {
        let mesh = Mesh::cube(4);
        let src = NodeId(5);
        let dests = random_destinations(&mesh, src, 10, 23);
        let o = run_single_multicast(
            &mesh,
            NetworkConfig::paper_default(),
            MulticastScheme::Um,
            src,
            &dests,
            32,
        );
        assert_eq!(o.overhead_copies, 0);
    }

    #[test]
    fn random_destinations_are_distinct_and_exclude_source() {
        let mesh = Mesh::cube(4);
        let src = NodeId(9);
        let d = random_destinations(&mesh, src, 63, 1);
        let set: HashSet<NodeId> = d.iter().copied().collect();
        assert_eq!(set.len(), 63);
        assert!(!set.contains(&src));
    }
}
