//! Single-source broadcast experiments (the setting of Figs. 1 and 2 and
//! Tables 1–2: one node broadcasts on an otherwise idle network).

use crate::executor::{drive, BroadcastTracker};
use crate::scrape::scrape_engine_stats;
use serde::{Deserialize, Serialize};
use wormcast_broadcast::{Algorithm, RoutingKind};
use wormcast_network::{Network, NetworkConfig, OpId, Simulation};
use wormcast_routing::{
    DimensionOrdered, PlanarWestFirst, QueueAdaptive, RoutingFunction, SimTopology, WestFirst,
};
use wormcast_stats::summarize;
use wormcast_telemetry::{Collector, Observe, TelemetryFrame};
use wormcast_topology::{Mesh, NodeId, Topology};

/// Measured outcome of one single-source broadcast.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BroadcastOutcome {
    /// Algorithm short name.
    pub algorithm: String,
    /// The broadcasting node.
    pub source: NodeId,
    /// Network-level latency: start → last destination complete, µs.
    pub network_latency_us: f64,
    /// Mean per-destination arrival latency, µs (`nlM` in the paper).
    pub mean_latency_us: f64,
    /// Standard deviation of arrival latencies, µs.
    pub sd_latency_us: f64,
    /// Coefficient of variation `SD / nlM` — the paper's node-level metric.
    pub cv: f64,
}

/// The routing function an algorithm's network uses for adaptive messages.
pub fn routing_for(alg: Algorithm, mesh: &Mesh) -> Box<dyn RoutingFunction> {
    match alg.routing() {
        RoutingKind::DimensionOrdered => Box::new(DimensionOrdered),
        RoutingKind::WestFirstAdaptive => {
            if mesh.ndims() == 3 {
                Box::new(PlanarWestFirst)
            } else {
                Box::new(WestFirst)
            }
        }
        RoutingKind::QueueAdaptive => Box::new(QueueAdaptive),
    }
}

/// Build a fresh simulation configured for `alg` (injection ports set to
/// the algorithm's router model).
pub fn network_for(alg: Algorithm, mesh: Mesh, cfg: NetworkConfig) -> Simulation {
    let rf = routing_for(alg, &mesh);
    Simulation::over(mesh, cfg.with_ports(alg.ports()), rf)
}

/// Attach a telemetry collector to `net` when `observe` asks for one. With
/// `None` nothing is attached, so the engine's event fan-out iterates an
/// empty list and the run is the exact unobserved code path.
pub fn attach_collector<T: SimTopology>(
    net: &mut Network<T>,
    observe: Option<Observe<'_>>,
) -> Option<Collector> {
    observe.map(|o| {
        let topo = net.topology();
        let c = o.collector(topo.num_channels(), topo.num_nodes());
        net.add_sink(c.sink());
        c
    })
}

/// Tear down an observed run: drop `net`, then recover the collector's
/// frame, with the engine's counters scraped into its metrics when the
/// spec asks for a profile. Without a collector this only drops `net`.
pub fn finish_collector<T: SimTopology>(
    net: Simulation<T>,
    collector: Option<Collector>,
) -> Option<TelemetryFrame> {
    let stats = collector
        .as_ref()
        .filter(|c| c.profiling())
        .map(|_| net.engine_stats());
    drop(net);
    collector.map(|c| {
        let mut f = c.finish();
        if let Some(e) = stats {
            scrape_engine_stats(&mut f.metrics, &e);
        }
        f
    })
}

/// Run one single-source broadcast of `length` flits from `source` on an
/// idle network and measure it.
///
/// # Panics
/// Panics if the schedule fails validation or the network stalls before the
/// broadcast completes (both would be library bugs).
pub fn run_single_broadcast(
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    source: NodeId,
    length: u64,
) -> BroadcastOutcome {
    run_single_broadcast_observed(mesh, cfg, alg, source, length, None).0
}

/// [`run_single_broadcast`] with optional telemetry collection.
///
/// With `observe = None` this is the exact code path of the unobserved run
/// (no sink is attached, so the engine's event fan-out iterates an empty
/// list); with `Some`, a `wormcast_telemetry::Collector` sink records
/// per-phase latency histograms, the contention heatmap and the NDJSON
/// event stream per the spec, and the driver-side per-destination arrival
/// latencies plus the run's CV are fed into the returned frame.
pub fn run_single_broadcast_observed(
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    source: NodeId,
    length: u64,
    observe: Option<Observe<'_>>,
) -> (BroadcastOutcome, Option<TelemetryFrame>) {
    let schedule = alg.schedule(mesh, source);
    debug_assert!(schedule.validate(mesh, alg.ports()).is_ok());
    let mut net = network_for(alg, mesh.clone(), cfg);
    let collector = attach_collector(&mut net, observe);
    let tracker = drive(
        &mut net,
        BroadcastTracker::new(mesh, &schedule, OpId(0), length),
    );
    assert!(
        tracker.is_complete(),
        "network idle before broadcast completion"
    );
    let lats = tracker.latencies_us();
    let s = summarize(&lats);
    let outcome = BroadcastOutcome {
        algorithm: alg.name().to_string(),
        source,
        network_latency_us: tracker.network_latency_us(),
        mean_latency_us: s.mean(),
        sd_latency_us: s.std_dev(),
        cv: s.cv(),
    };
    let frame = finish_collector(net, collector).map(|mut f| {
        for &l in &lats {
            f.record_arrival_us(l);
        }
        f.record_op_cv(s.cv());
        f
    });
    (outcome, frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NetworkConfig {
        NetworkConfig::paper_default()
    }

    #[test]
    fn db_completes_and_beats_rd_on_latency() {
        let m = Mesh::cube(8);
        let src = NodeId(77);
        let db = run_single_broadcast(&m, cfg(), Algorithm::Db, src, 100);
        let rd = run_single_broadcast(&m, cfg(), Algorithm::Rd, src, 100);
        assert!(db.network_latency_us > 0.0);
        assert!(
            db.network_latency_us < rd.network_latency_us,
            "DB {} should beat RD {}",
            db.network_latency_us,
            rd.network_latency_us
        );
    }

    #[test]
    fn all_algorithms_complete_on_the_cube() {
        let m = Mesh::cube(4);
        for alg in Algorithm::ALL {
            for src in [0u32, 21, 63] {
                let o = run_single_broadcast(&m, cfg(), alg, NodeId(src), 32);
                assert!(o.network_latency_us > 0.0, "{alg} src {src}");
                assert!(o.cv >= 0.0);
            }
        }
    }

    #[test]
    fn rd_latency_tracks_step_count() {
        // With Ts dominating, RD's network latency ≈ steps·Ts plus transfer
        // terms: it must exceed steps·Ts and grow with N.
        let ts = 1.5;
        let m1 = Mesh::cube(4);
        let m2 = Mesh::cube(8);
        let o1 = run_single_broadcast(&m1, cfg(), Algorithm::Rd, NodeId(0), 100);
        let o2 = run_single_broadcast(&m2, cfg(), Algorithm::Rd, NodeId(0), 100);
        assert!(o1.network_latency_us >= 6.0 * ts);
        assert!(o2.network_latency_us >= 9.0 * ts);
        assert!(o2.network_latency_us > o1.network_latency_us);
    }

    #[test]
    fn db_latency_roughly_flat_in_network_size() {
        let o_small = run_single_broadcast(&Mesh::cube(4), cfg(), Algorithm::Db, NodeId(0), 100);
        let o_large = run_single_broadcast(&Mesh::cube(16), cfg(), Algorithm::Db, NodeId(0), 100);
        // Steps are constant; only per-hop terms grow. The jump from 64 to
        // 4096 nodes must stay well under one extra startup per extra size
        // doubling (which is what RD pays).
        assert!(
            o_large.network_latency_us < o_small.network_latency_us + 4.0 * 1.5,
            "DB scalability: {} vs {}",
            o_small.network_latency_us,
            o_large.network_latency_us
        );
    }

    #[test]
    fn cv_of_proposed_algorithms_is_lower() {
        // Idle-network CV: AB clearly lowest and DB below EDN. (DB-vs-RD on
        // an idle network is a near-tie in this model — the paper's CV
        // orderings are measured under concurrent load, see
        // `wormcast_workload::contended` and EXPERIMENTS.md.)
        let m = Mesh::cube(8);
        let src = NodeId(100);
        let rd = run_single_broadcast(&m, cfg(), Algorithm::Rd, src, 100);
        let edn = run_single_broadcast(&m, cfg(), Algorithm::Edn, src, 100);
        let db = run_single_broadcast(&m, cfg(), Algorithm::Db, src, 100);
        let ab = run_single_broadcast(&m, cfg(), Algorithm::Ab, src, 100);
        assert!(db.cv < edn.cv, "DB {} < EDN {}", db.cv, edn.cv);
        assert!(db.cv < rd.cv * 1.15, "DB {} ~<= RD {}", db.cv, rd.cv);
        assert!(ab.cv < edn.cv, "AB {} < EDN {}", ab.cv, edn.cv);
        assert!(ab.cv < rd.cv, "AB {} < RD {}", ab.cv, rd.cv);
        assert!(ab.cv < db.cv, "AB {} < DB {}", ab.cv, db.cv);
    }

    #[test]
    fn startup_latency_scales_rd_more_than_db() {
        let m = Mesh::cube(8);
        let hi = NetworkConfig::paper_default();
        let lo = NetworkConfig::paper_low_startup();
        let rd_hi = run_single_broadcast(&m, hi, Algorithm::Rd, NodeId(0), 100);
        let rd_lo = run_single_broadcast(&m, lo, Algorithm::Rd, NodeId(0), 100);
        let db_hi = run_single_broadcast(&m, hi, Algorithm::Db, NodeId(0), 100);
        let db_lo = run_single_broadcast(&m, lo, Algorithm::Db, NodeId(0), 100);
        let rd_gain = rd_hi.network_latency_us - rd_lo.network_latency_us;
        let db_gain = db_hi.network_latency_us - db_lo.network_latency_us;
        assert!(
            rd_gain > db_gain,
            "start-up dominates RD ({rd_gain}) more than DB ({db_gain})"
        );
    }

    #[test]
    fn zero_load_db_latency_sanity() {
        // From a corner source on 4x4x4 with L=1 flit and tiny Ts the
        // network latency is bounded by steps * (Ts + path·hop + body).
        let m = Mesh::cube(4);
        let c = NetworkConfig::builder()
            .startup_us(0.0)
            .build()
            .expect("zero start-up is valid");
        let o = run_single_broadcast(&m, c, Algorithm::Db, NodeId(0), 1);
        // All paths ≤ 6+6 hops; four pipelined steps of ≤ 12 hops each.
        let bound = 4.0 * (12.0 * 0.006 + 0.003) + 0.1;
        assert!(o.network_latency_us < bound, "{}", o.network_latency_us);
    }
}
