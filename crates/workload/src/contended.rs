//! Broadcast CV measurement in steady state with concurrent broadcasts.
//!
//! The paper's §3.2 reports coefficients of variation that grow with network
//! size for RD and EDN (Tables 1–2), which cannot arise on an idle network —
//! there, arrival spread is fixed by the step structure alone. The growth
//! comes from contention between overlapping broadcast operations (the
//! paper's simulator collects all statistics "when the system reaches a
//! steady state"). This driver reproduces that setting: broadcast operations
//! arrive as a Poisson process (rate per node, like the §3.3 workload) from
//! uniformly random sources, and each completed operation contributes one
//! CV observation.

use crate::executor::{BroadcastTracker, Fed, Ops};
use crate::single::{attach_collector, finish_collector, network_for};
use serde::{Deserialize, Serialize};
use wormcast_broadcast::Algorithm;
use wormcast_network::{NetworkConfig, OpId};
use wormcast_sim::{DurationDist, Exponential, SimRng, SimTime};
use wormcast_stats::summarize;
use wormcast_telemetry::{Observe, TelemetryFrame};
use wormcast_topology::{Mesh, NodeId, Topology};

/// Outcome of a contended-broadcast CV measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContendedOutcome {
    /// Algorithm short name.
    pub algorithm: String,
    /// Completed broadcast operations measured.
    pub runs: usize,
    /// Mean CV of arrival times across completed operations.
    pub cv: f64,
    /// Mean per-destination arrival latency, µs.
    pub mean_latency_us: f64,
    /// Mean network-level broadcast latency, µs.
    pub network_latency_us: f64,
}

/// Measure arrival-time CV over `runs` broadcasts that overlap in time.
///
/// `broadcast_rate_per_node_per_ms` scales the Poisson arrival rate of
/// broadcast *operations* with the node count (aggregate rate = N·λ), so a
/// larger network carries proportionally more concurrent broadcasts — the
/// standard normalised-load discipline. A rate of 0 degenerates to
/// back-to-back (still overlapping) operations and is rejected.
///
/// # Panics
/// Panics if `runs` is 0 or the rate is not positive.
pub fn run_contended_broadcasts(
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    length: u64,
    runs: usize,
    broadcast_rate_per_node_per_ms: f64,
    seed: u64,
) -> ContendedOutcome {
    run_contended_broadcasts_observed(
        mesh,
        cfg,
        alg,
        length,
        runs,
        broadcast_rate_per_node_per_ms,
        &SimRng::new(seed),
        None,
    )
    .0
}

/// [`run_contended_broadcasts`] drawing from an explicit root stream (the
/// harness passes its [`wormcast_sim::SimRng::for_replication`] stream),
/// with optional telemetry collection.
///
/// With `observe = None` this is the exact unobserved code path. With
/// `Some`, the attached sink decomposes engine phases, and the driver feeds
/// every measured operation's per-destination arrival latencies into the
/// frame's `arrivals` histogram plus its CV into `op_cv` — so the frame's
/// `op_cv` mean equals the returned [`ContendedOutcome::cv`] up to the
/// difference between a Welford and a naive mean (≈ 1 ulp).
#[allow(clippy::too_many_arguments)] // mirrors the 7-arg unobserved entry point
pub fn run_contended_broadcasts_observed(
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    length: u64,
    runs: usize,
    broadcast_rate_per_node_per_ms: f64,
    root: &SimRng,
    observe: Option<Observe<'_>>,
) -> (ContendedOutcome, Option<TelemetryFrame>) {
    assert!(runs > 0, "need at least one run");
    assert!(
        broadcast_rate_per_node_per_ms > 0.0,
        "broadcast rate must be positive"
    );
    let mut src_rng = root.substream("sources");
    let mut arr_rng = root.substream("arrivals");
    let inter =
        Exponential::with_rate_per_ms(broadcast_rate_per_node_per_ms * mesh.num_nodes() as f64);
    let mut net = network_for(alg, mesh.clone(), cfg);
    let collector = attach_collector(&mut net, observe);
    let mut ops = Ops::default();
    let mut cvs = Vec::new();
    let mut means = Vec::new();
    let mut maxes = Vec::new();
    let mut next_launch = SimTime::ZERO;
    let mut launched: u64 = 0;
    // Launch enough operations that `runs` of them complete under load;
    // trailing operations keep the network busy while the measured ones
    // finish.
    let quota = runs as u64 + 8;

    while cvs.len() < runs {
        if launched < quota && net.next_event_time().is_none_or(|h| next_launch <= h) {
            let src = NodeId(src_rng.index(mesh.num_nodes()) as u32);
            let op = OpId(launched);
            launched += 1;
            let schedule = alg.schedule(mesh, src);
            let tracker = BroadcastTracker::new(mesh, &schedule, op, length);
            ops.launch(&mut net, next_launch, tracker);
            next_launch += inter.sample(&mut arr_rng);
            continue;
        }
        let stepped = ops.step(&mut net, |_, fed| {
            let Fed::Completed(tracker) = fed else {
                return;
            };
            if cvs.len() < runs {
                let lats = tracker.latencies_us();
                let s = summarize(&lats);
                cvs.push(s.cv());
                means.push(s.mean());
                maxes.push(s.max());
                if let Some(c) = &collector {
                    for &l in &lats {
                        c.record_arrival_us(l);
                    }
                    c.record_op_cv(s.cv());
                }
            }
        });
        if !stepped {
            assert!(
                launched >= quota,
                "network idle with work outstanding (deadlock?)"
            );
            break;
        }
    }
    let outcome = ContendedOutcome {
        algorithm: alg.name().to_string(),
        runs: cvs.len(),
        cv: summarize(&cvs).mean(),
        mean_latency_us: summarize(&means).mean(),
        network_latency_us: summarize(&maxes).mean(),
    };
    (outcome, finish_collector(net, collector))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_quick(alg: Algorithm, rate: f64) -> ContendedOutcome {
        let m = Mesh::cube(4);
        run_contended_broadcasts(&m, NetworkConfig::paper_default(), alg, 64, 10, rate, 17)
    }

    #[test]
    fn completes_requested_runs() {
        let o = run_quick(Algorithm::Db, 1.0);
        assert_eq!(o.runs, 10);
        assert!(o.cv > 0.0);
        assert!(o.mean_latency_us > 0.0);
        assert!(o.network_latency_us >= o.mean_latency_us);
    }

    #[test]
    fn all_algorithms_survive_contention() {
        for alg in Algorithm::ALL {
            let o = run_quick(alg, 2.0);
            assert_eq!(o.runs, 10, "{alg}");
            assert!(o.cv.is_finite(), "{alg}");
        }
    }

    #[test]
    fn contention_raises_latency() {
        let calm = run_quick(Algorithm::Rd, 0.05);
        let busy = run_quick(Algorithm::Rd, 5.0);
        assert!(
            busy.network_latency_us > calm.network_latency_us,
            "contention should slow broadcasts: {} vs {}",
            calm.network_latency_us,
            busy.network_latency_us
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_quick(Algorithm::Ab, 1.0);
        let b = run_quick(Algorithm::Ab, 1.0);
        assert_eq!(a.cv, b.cv);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        run_quick(Algorithm::Db, 0.0);
    }
}
