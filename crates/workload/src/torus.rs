//! Simulated broadcast on the k-ary n-cube — the future-work extension run
//! through the real engine, not just the analytic model.
//!
//! Ring coded paths close wraparound cycles, so the torus is simulated under
//! the **facility-queueing** release mode (no blocking-in-place), where the
//! channel-dependency-cycle deadlock argument does not apply; real wormhole
//! tori break the cycles with dateline virtual channels instead, which this
//! engine does not model (documented in DESIGN.md).

use crate::executor::{drive, BroadcastTracker};
use serde::{Deserialize, Serialize};
use wormcast_broadcast::torus_ring_broadcast;
use wormcast_network::{NetworkConfig, OpId, ReleaseMode, Simulation};
use wormcast_stats::summarize;
use wormcast_topology::{NodeId, Torus};

/// Measured outcome of one simulated torus broadcast.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TorusOutcome {
    /// Network-level latency (start → last node complete), µs.
    pub network_latency_us: f64,
    /// Mean per-destination latency, µs.
    pub mean_latency_us: f64,
    /// CV of arrival times.
    pub cv: f64,
    /// Analytic zero-load latency of the same schedule, µs (cross-check).
    pub analytic_latency_us: f64,
}

/// Execute a ring broadcast from `source` on `torus` and measure it.
///
/// # Panics
/// Panics if `cfg` uses the path-holding release mode (ring paths would
/// deadlock; see module docs), or if the network stalls.
pub fn run_torus_broadcast(
    torus: &Torus,
    cfg: NetworkConfig,
    source: NodeId,
    length: u64,
) -> TorusOutcome {
    assert_eq!(
        cfg.release,
        ReleaseMode::AfterTailCrossing,
        "torus ring paths require the facility-queueing release mode \
         (path-holding needs dateline virtual channels, which are not modelled)"
    );
    let schedule = torus_ring_broadcast(torus, source);
    debug_assert!(schedule.validate(torus, cfg.inject_ports).is_ok());
    let analytic = schedule
        .analytic_latency(torus, cfg.startup, cfg.hop_time(), cfg.flit_time, length)
        .as_us();

    let mut net: Simulation<Torus> =
        Simulation::over(torus.clone(), cfg, Box::new(wormcast_routing::TorusDor));
    let tracker = drive(
        &mut *net,
        BroadcastTracker::new(torus, &schedule, OpId(0), length),
    );
    assert!(
        tracker.is_complete(),
        "torus network stalled before completion"
    );
    let lats = tracker.latencies_us();
    let s = summarize(&lats);
    TorusOutcome {
        network_latency_us: s.max(),
        mean_latency_us: s.mean(),
        cv: s.cv(),
        analytic_latency_us: analytic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_broadcast::Algorithm;
    use wormcast_topology::Mesh;

    fn facility() -> NetworkConfig {
        NetworkConfig::builder()
            .release(ReleaseMode::AfterTailCrossing)
            .ports(6)
            .build()
            .expect("facility-queueing baseline is valid")
    }

    #[test]
    fn torus_broadcast_completes_and_matches_analytic() {
        let t = Torus::kary_ncube(8, 3);
        let o = run_torus_broadcast(&t, facility(), NodeId(91), 100);
        assert!(o.network_latency_us > 0.0);
        // The simulation agrees with the analytic critical-path model to
        // within the per-hop pipelining detail the formula rounds over.
        let rel = (o.network_latency_us - o.analytic_latency_us).abs() / o.analytic_latency_us;
        assert!(
            rel < 0.15,
            "simulated {} vs analytic {}",
            o.network_latency_us,
            o.analytic_latency_us
        );
    }

    #[test]
    fn torus_beats_mesh_db() {
        // The §4 claim made concrete: wraparound rings beat the mesh's
        // corner-anchored scheme on the same node count.
        let t = Torus::kary_ncube(8, 3);
        let to = run_torus_broadcast(&t, facility(), NodeId(0), 100);
        let m = Mesh::cube(8);
        let mo = crate::single::run_single_broadcast(
            &m,
            NetworkConfig::builder()
                .release(ReleaseMode::AfterTailCrossing)
                .build()
                .expect("facility-queueing baseline is valid"),
            Algorithm::Db,
            NodeId(0),
            100,
        );
        assert!(
            to.network_latency_us < mo.network_latency_us,
            "torus {} vs mesh DB {}",
            to.network_latency_us,
            mo.network_latency_us
        );
    }

    #[test]
    fn works_on_odd_radix_and_2d() {
        for t in [Torus::kary_ncube(5, 2), Torus::new(&[3, 5, 7])] {
            let o = run_torus_broadcast(&t, facility(), NodeId(1), 32);
            assert!(o.cv >= 0.0);
            assert!(o.mean_latency_us <= o.network_latency_us);
        }
    }

    #[test]
    fn deterministic() {
        let t = Torus::kary_ncube(4, 3);
        let a = run_torus_broadcast(&t, facility(), NodeId(7), 64);
        let b = run_torus_broadcast(&t, facility(), NodeId(7), 64);
        assert_eq!(a.network_latency_us, b.network_latency_us);
    }

    #[test]
    #[should_panic(expected = "facility-queueing")]
    fn path_holding_rejected() {
        let t = Torus::kary_ncube(4, 2);
        let cfg = NetworkConfig::paper_default(); // path-holding default
        let _ = run_torus_broadcast(&t, cfg, NodeId(0), 32);
    }
}
