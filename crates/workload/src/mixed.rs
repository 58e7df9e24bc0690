//! The paper's §3.3 workload: simultaneous unicast and broadcast traffic.
//!
//! "Traffic generated from a given source node contains 90 percent unicast
//! messages and 10 percent broadcast messages. A source node is randomly
//! chosen for a broadcast operation. Nodes generate messages at time
//! intervals chosen from an exponential distribution." Statistics use the
//! batch-means method (21 batches, the first discarded) exactly as described
//! for Figs. 3 and 4.

use crate::executor::{Fed, Ops, PlanCache};
use crate::patterns::DestPattern;
use crate::single::{attach_collector, finish_collector, network_for};
use serde::{Deserialize, Serialize};
use wormcast_broadcast::Algorithm;
use wormcast_network::{MessageSpec, NetworkConfig, OpId, Route, Simulation};
use wormcast_routing::RunPath;
use wormcast_sim::{DurationDist, Exponential, SimRng, SimTime};
use wormcast_stats::{BatchMeans, OnlineStats};
use wormcast_telemetry::{Collector, Observe, TelemetryFrame};
use wormcast_topology::{Mesh, NodeId, Topology};

/// Configuration of one mixed-traffic simulation point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixedConfig {
    /// Broadcast algorithm under test (also selects the routing substrate
    /// used by the unicast traffic).
    pub algorithm: Algorithm,
    /// Offered load per node, messages per millisecond (the paper's x-axis).
    pub load_per_node_per_ms: f64,
    /// Fraction of generated messages that are broadcasts (paper: 0.1).
    pub broadcast_fraction: f64,
    /// Message length in flits (paper: 32 for Figs. 3–4).
    pub length: u64,
    /// Broadcast-completion observations per batch.
    pub batch_size: u64,
    /// Batches collected after the discarded cold-start batch (paper: 20).
    pub batches: usize,
    /// RNG seed.
    pub seed: u64,
    /// Safety valve: stop injecting after this many simulated milliseconds
    /// even if the batch quota is unmet (saturated networks).
    pub max_sim_ms: f64,
    /// Safety valve: stop injecting after this many generated arrivals
    /// (saturated networks generate work faster than they retire it).
    pub max_arrivals: u64,
    /// Destination pattern of the unicast background traffic (paper:
    /// uniform; structured patterns for the ablation benches).
    pub pattern: DestPattern,
}

impl MixedConfig {
    /// The paper's Figs. 3–4 settings at a given load.
    pub fn paper(algorithm: Algorithm, load_per_node_per_ms: f64, seed: u64) -> Self {
        MixedConfig {
            algorithm,
            load_per_node_per_ms,
            broadcast_fraction: 0.1,
            length: 32,
            batch_size: 20,
            batches: 20,
            seed,
            max_sim_ms: 400.0,
            max_arrivals: 150_000,
            pattern: DestPattern::Uniform,
        }
    }
}

/// Measured outcome of one mixed-traffic point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixedOutcome {
    /// Echo of the offered load (messages/ms/node).
    pub load_per_node_per_ms: f64,
    /// Mean broadcast-operation latency (start -> last destination), ms —
    /// the communication-latency curve of Figs. 3–4.
    pub mean_latency_ms: f64,
    /// Half-width of the 95% CI on the mean, ms.
    pub ci_half_width_ms: f64,
    /// Mean unicast delivery latency, ms (the background traffic's view).
    pub mean_unicast_latency_ms: f64,
    /// Delivered payload messages per simulated ms (network throughput).
    pub throughput_msgs_per_ms: f64,
    /// Whether the run hit the simulated-time safety valve before filling
    /// its batch quota — the operational definition of saturation.
    pub saturated: bool,
    /// Completed broadcast operations.
    pub broadcasts_completed: u64,
    /// Delivered unicast messages.
    pub unicasts_delivered: u64,
}

/// Run the mixed unicast/broadcast workload at one load point.
///
/// # Panics
/// Panics if the broadcast fraction is not a probability, or if a DOR
/// unicast's source and destination differ in more than
/// [`MAX_RUNS`](wormcast_routing::MAX_RUNS) = 3 dimensions, which only a
/// mesh of four or more dimensions allows: DOR unicasts ride
/// [`RunPath::dor`].
pub fn run_mixed_traffic(mesh: &Mesh, cfg: NetworkConfig, mc: &MixedConfig) -> MixedOutcome {
    run_mixed_traffic_observed(mesh, cfg, mc, &SimRng::new(mc.seed), None).0
}

/// [`run_mixed_traffic`] drawing from an explicit root stream (`mc.seed` is
/// ignored; harness replications pass their own stream), with optional
/// telemetry collection.
///
/// With `observe = None` this is the exact unobserved code path. With
/// `Some`, the attached sink decomposes engine phases across the whole
/// mixed stream (unicasts included), and each completed broadcast
/// operation's end-to-end latency is fed to the frame's `arrivals`
/// histogram (in µs, matching the frame's unit convention).
///
/// # Panics
/// As [`run_mixed_traffic`].
pub fn run_mixed_traffic_observed(
    mesh: &Mesh,
    cfg: NetworkConfig,
    mc: &MixedConfig,
    root: &SimRng,
    observe: Option<Observe<'_>>,
) -> (MixedOutcome, Option<TelemetryFrame>) {
    let mut net = network_for(mc.algorithm, mesh.clone(), cfg);
    let collector = attach_collector(&mut net, observe);
    let outcome = mixed_stream(&mut net, mesh, mc, root, collector.as_ref());
    (outcome, finish_collector(net, collector))
}

/// [`run_mixed_traffic`] on a network the caller built for `mc.algorithm`
/// with [`network_for`], and keeps: its counters and
/// [`engine_stats`](wormcast_network::Network::engine_stats) describe the
/// stream afterwards.
///
/// # Panics
/// As [`run_mixed_traffic`].
pub fn run_mixed_traffic_on(net: &mut Simulation, mesh: &Mesh, mc: &MixedConfig) -> MixedOutcome {
    mixed_stream(net, mesh, mc, &SimRng::new(mc.seed), None)
}

/// The mixed stream drawn from `root` on `net`, feeding completed
/// broadcasts' latencies to `collector` when there is one.
fn mixed_stream(
    net: &mut Simulation,
    mesh: &Mesh,
    mc: &MixedConfig,
    root: &SimRng,
    collector: Option<&Collector>,
) -> MixedOutcome {
    assert!(
        (0.0..=1.0).contains(&mc.broadcast_fraction),
        "broadcast fraction must be a probability"
    );
    // Unicasts ride the algorithm's substrate: DOR for the
    // dimension-ordered algorithms, the network's adaptive routing function
    // (west-first for AB, queue-aware negative-first for QAB) otherwise.
    let adaptive_unicast = matches!(
        mc.algorithm.routing(),
        wormcast_broadcast::RoutingKind::WestFirstAdaptive
            | wormcast_broadcast::RoutingKind::QueueAdaptive
    );

    let mut arrivals_rng = root.substream("arrivals");
    let mut source_rng = root.substream("sources");
    let mut dest_rng = root.substream("destinations");
    let mut kind_rng = root.substream("kinds");

    // The merged arrival process over all nodes: rate N·λ.
    let agg_rate = mc.load_per_node_per_ms * mesh.num_nodes() as f64;
    let interarrival = Exponential::with_rate_per_ms(agg_rate);

    let mut batch = BatchMeans::new(mc.batch_size, 1);
    let mut unicast_stats = OnlineStats::new();
    let mut ops = Ops::default();
    let mut plans = PlanCache::new(mc.algorithm, mesh);
    let mut broadcasts_completed = 0u64;
    let mut unicasts_delivered = 0u64;
    let mut next_op = 0u64;
    let horizon = SimTime::from_ms(mc.max_sim_ms);
    let mut next_arrival = SimTime::ZERO + interarrival.sample(&mut arrivals_rng);
    let target_batches = mc.batches;

    let inject_arrival = |net: &mut Simulation,
                          ops: &mut Ops,
                          plans: &mut PlanCache,
                          next_op: &mut u64,
                          at: SimTime,
                          source_rng: &mut SimRng,
                          dest_rng: &mut SimRng,
                          kind_rng: &mut SimRng| {
        let src = NodeId(source_rng.index(mesh.num_nodes()) as u32);
        let op = OpId(*next_op);
        *next_op += 1;
        if kind_rng.chance(mc.broadcast_fraction) {
            ops.launch(net, at, plans.tracker(src, op, mc.length));
        } else {
            // Unicast to a destination drawn from the configured pattern.
            let dst = mc.pattern.pick(mesh, src, dest_rng);
            let route = if adaptive_unicast {
                Route::Adaptive { dst }
            } else {
                Route::Runs(RunPath::dor(mesh, src, dst))
            };
            net.inject_at(
                at,
                MessageSpec {
                    src,
                    route,
                    length: mc.length,
                    op,
                    tag: 0,
                    charge_startup: true,
                },
            );
        }
    };

    loop {
        let filled = batch.completed_batches() >= target_batches;
        let timed_out = net.now() > horizon;
        if filled || timed_out {
            break;
        }
        // Keep the arrival stream ahead of the event queue.
        while !filled
            && next_op < mc.max_arrivals
            && next_arrival <= horizon
            && net.next_event_time().is_none_or(|h| next_arrival <= h)
        {
            inject_arrival(
                net,
                &mut ops,
                &mut plans,
                &mut next_op,
                next_arrival,
                &mut source_rng,
                &mut dest_rng,
                &mut kind_rng,
            );
            next_arrival += interarrival.sample(&mut arrivals_rng);
        }
        let stepped = ops.step(net, |d, fed| match fed {
            Fed::Completed(tracker) => {
                let t0 = tracker
                    .started_at()
                    .expect("launched operations have started");
                let latency = d.delivered_at.since(t0);
                batch.push(latency.as_ms());
                if let Some(c) = collector {
                    c.record_arrival_us(latency.as_us());
                }
                broadcasts_completed += 1;
            }
            Fed::Advanced => {}
            // Unicast delivery: reported separately; the batch-means
            // statistic tracks broadcast operations, the paper's object of
            // study.
            Fed::Unowned => {
                unicast_stats.push(d.latency().as_ms());
                unicasts_delivered += 1;
            }
        });
        if !stepped {
            // Queue empty and no more arrivals fit the horizon: saturated or
            // done.
            break;
        }
    }

    let saturated = batch.completed_batches() < target_batches;
    let est = batch.estimate();
    let (mean, hw) = match est {
        Some(e) => (e.mean, e.half_width_95),
        None => {
            // Too few observations even for two batches: report the raw
            // grand mean of whatever was seen (deeply saturated).
            let means = batch.means();
            let m = if means.is_empty() {
                f64::NAN
            } else {
                means.iter().sum::<f64>() / means.len() as f64
            };
            (m, f64::NAN)
        }
    };
    let sim_ms = net.now().as_ms().max(1e-9);
    MixedOutcome {
        load_per_node_per_ms: mc.load_per_node_per_ms,
        mean_latency_ms: mean,
        ci_half_width_ms: hw,
        mean_unicast_latency_ms: unicast_stats.mean(),
        throughput_msgs_per_ms: (broadcasts_completed + unicasts_delivered) as f64 / sim_ms,
        saturated,
        broadcasts_completed,
        unicasts_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(alg: Algorithm, load: f64) -> MixedOutcome {
        let m = Mesh::cube(4);
        let mut mc = MixedConfig::paper(alg, load, 7);
        // Broadcast completions are the observations now: at 0.005
        // msg/ms/node on 64 nodes only ~0.03 broadcasts arrive per ms, so
        // keep the quota small enough to fill within the horizon.
        mc.batch_size = 5;
        mc.batches = 3;
        mc.max_sim_ms = 3000.0;
        run_mixed_traffic(&m, NetworkConfig::paper_default(), &mc)
    }

    #[test]
    fn light_load_completes_with_low_latency() {
        let o = quick(Algorithm::Db, 0.005);
        assert!(!o.saturated, "light load must not saturate");
        assert!(o.mean_latency_ms > 0.0);
        // Zero-load unicast is ~2µs and a DB broadcast ~8µs; queueing at
        // 0.005 msg/ms/node is mild, so the mean stays well under 1 ms.
        assert!(o.mean_latency_ms < 1.0, "mean {} ms", o.mean_latency_ms);
        assert!(o.mean_unicast_latency_ms > 0.0);
        assert!(o.mean_unicast_latency_ms < o.mean_latency_ms);
        assert!(o.unicasts_delivered > 0);
        assert!(o.broadcasts_completed > 0);
    }

    #[test]
    fn latency_rises_with_load() {
        // On a 64-node cube the paper's 0.005-0.05 msg/ms/node range is
        // nearly idle; push hard to exercise queueing.
        let lo = quick(Algorithm::Db, 0.005);
        let hi = quick(Algorithm::Db, 60.0);
        assert!(
            hi.mean_latency_ms > lo.mean_latency_ms,
            "latency must grow with load: {} vs {}",
            lo.mean_latency_ms,
            hi.mean_latency_ms
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(Algorithm::Ab, 0.01);
        let b = quick(Algorithm::Ab, 0.01);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.broadcasts_completed, b.broadcasts_completed);
    }

    #[test]
    fn all_algorithms_run_mixed_traffic() {
        for alg in Algorithm::ALL {
            let o = quick(alg, 0.01);
            assert!(o.broadcasts_completed > 0, "{alg}");
            assert!(o.mean_latency_ms.is_finite(), "{alg}");
        }
    }

    #[test]
    fn pure_unicast_workload_saturates_batch_quota_never_fills() {
        // With no broadcasts there are no broadcast observations, so the
        // quota can't fill; the run ends at the safety valve and reports
        // unicast statistics.
        let m = Mesh::cube(4);
        let mut mc = MixedConfig::paper(Algorithm::Db, 0.01, 3);
        mc.broadcast_fraction = 0.0;
        mc.batch_size = 20;
        mc.batches = 3;
        mc.max_sim_ms = 20.0;
        let o = run_mixed_traffic(&m, NetworkConfig::paper_default(), &mc);
        assert_eq!(o.broadcasts_completed, 0);
        assert!(o.unicasts_delivered > 0);
        assert!(o.saturated);
        assert!(o.mean_unicast_latency_ms > 0.0);
    }

    #[test]
    fn hotspot_pattern_hurts_more_than_uniform() {
        let m = Mesh::cube(4);
        let run_pat = |pattern: DestPattern| {
            let mut mc = MixedConfig::paper(Algorithm::Db, 60.0, 13);
            mc.batch_size = 5;
            mc.batches = 3;
            mc.max_sim_ms = 3000.0;
            mc.pattern = pattern;
            run_mixed_traffic(&m, NetworkConfig::paper_default(), &mc)
        };
        let uni = run_pat(DestPattern::Uniform);
        let hot = run_pat(DestPattern::Hotspot {
            node: 21,
            percent: 60,
        });
        assert!(
            hot.mean_unicast_latency_ms > uni.mean_unicast_latency_ms,
            "hotspot unicast {} should exceed uniform {}",
            hot.mean_unicast_latency_ms,
            uni.mean_unicast_latency_ms
        );
    }

    #[test]
    fn structured_patterns_run_to_completion() {
        let m = Mesh::cube(4);
        for pattern in [
            DestPattern::Transpose,
            DestPattern::DimReversal,
            DestPattern::Complement,
        ] {
            let mut mc = MixedConfig::paper(Algorithm::Ab, 1.0, 5);
            mc.batch_size = 5;
            mc.batches = 2;
            mc.max_sim_ms = 3000.0;
            mc.pattern = pattern;
            let o = run_mixed_traffic(&m, NetworkConfig::paper_default(), &mc);
            assert!(o.unicasts_delivered > 0, "{}", pattern.name());
            assert!(o.mean_latency_ms.is_finite());
        }
    }

    #[test]
    fn throughput_positive_and_bounded_by_offered() {
        let o = quick(Algorithm::Db, 0.01);
        assert!(o.throughput_msgs_per_ms > 0.0);
        // Offered aggregate is 64 nodes * 0.01 = 0.64 msg/ms; delivered
        // (counting one per unicast and one per broadcast op) cannot exceed
        // offered by more than boundary effects.
        assert!(o.throughput_msgs_per_ms < 1.0);
    }
}
