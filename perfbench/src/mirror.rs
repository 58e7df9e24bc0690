//! Traced drivers: the product experiments re-driven through each layer's
//! public functions, with a span around every call into a layer.
//!
//! Each function mirrors one product driver line for line on a sequential
//! runner — `Fig1Params::run` (with `BroadcastRep::replicate_observed` and
//! `run_single_broadcast_observed`), `SaturationParams::run` (with
//! `run_mixed_traffic_observed`) and `Fig1ScaleParams::run` on one shard —
//! so it must reproduce the product's cells bit for bit; the caller checks
//! that it does. TEMPORARY: these mirrors go once the program carries its
//! own per-layer timers.

use crate::trace::{count, timed, Id, TimedRouting, TimedSink, WaitCounter};
use std::collections::HashMap;
use std::time::Instant;
use wormcast_broadcast::{Algorithm, BroadcastSchedule, RoutingKind};
use wormcast_experiments::fig1::{Fig1Cell, Fig1Params};
use wormcast_experiments::fig1_scale::{Fig1ScaleCell, Fig1ScaleParams};
use wormcast_experiments::saturation::{SaturationCell, SaturationParams, ALGORITHMS};
use wormcast_experiments::LabeledFrame;
use wormcast_network::{Delivery, MessageSpec, NetworkConfig, OpId, Route, Simulation};
use wormcast_routing::{dor_path, CodedPath};
use wormcast_sim::{DurationDist, Exponential, SimRng, SimTime};
use wormcast_stats::{summarize, BatchMeans, OnlineStats};
use wormcast_telemetry::{MetricId, Observe, SeriesKey, TelemetryFrame, TelemetrySpec};
use wormcast_topology::{Mesh, NodeId, Topology};
use wormcast_workload::{
    routing_for, scrape_engine_stats, BroadcastRep, BroadcastTracker, DestPattern, MixedConfig,
    RepContext, TelemetryMerge,
};

/// `network_for`, with the routing function wrapped so its queries are
/// timed and its counters attached.
fn network_for(alg: Algorithm, mesh: &Mesh, cfg: NetworkConfig) -> Simulation {
    timed(Id::NetworkBuild, || {
        let rf = timed(Id::RoutingBuild, || routing_for(alg, mesh));
        let mut net = Simulation::over(
            mesh.clone(),
            cfg.with_ports(alg.ports()),
            Box::new(TimedRouting(rf)),
        );
        net.add_sink(Box::new(WaitCounter::default()));
        net
    })
}

/// Fold a finished network's engine counters into the counts, then drop it.
fn retire(net: Simulation) {
    let (stats, counters) = (net.engine_stats(), net.counters());
    count(|c| {
        c.events += stats.wheel_events_scheduled;
        c.bucket_scans += stats.wheel_bucket_scans;
        c.arena_highwater = c.arena_highwater.max(stats.arena_msgs_highwater);
        c.deliveries += counters.deliveries;
    });
    timed(Id::NetworkBuild, || drop(net));
}

/// `alg.schedule`, counting the messages it plans.
fn build_schedule(alg: Algorithm, mesh: &Mesh, source: NodeId) -> BroadcastSchedule {
    let s = timed(Id::CoreSchedule, || alg.schedule(mesh, source));
    count(|c| c.schedule_msgs += s.num_messages() as u64);
    s
}

/// Inject every spec at `at`, one span per injection.
fn inject_all(net: &mut Simulation, at: SimTime, specs: Vec<MessageSpec>) {
    for spec in specs {
        timed(Id::NetworkInject, || net.inject_at(at, spec));
    }
}

/// `tracker.on_delivery`, counting the relay messages it releases.
fn on_delivery(tracker: &mut BroadcastTracker, d: &Delivery) -> Vec<MessageSpec> {
    let follow = timed(Id::WorkloadTracker, || tracker.on_delivery(d));
    count(|c| c.relays += follow.len() as u64);
    follow
}

/// Mirror of `Fig1Params::run` on a sequential runner, with `telemetry`
/// as the observation's spec.
pub fn fig1(
    p: &Fig1Params,
    telemetry: Option<&TelemetrySpec>,
) -> (Vec<Fig1Cell>, Vec<LabeledFrame>) {
    let cfg = NetworkConfig::builder()
        .startup_us(p.startup_us)
        .build()
        .expect("Fig1Params start-up latency must be a valid duration");
    let plan: Vec<(u16, u64, BroadcastRep)> = p
        .sides
        .iter()
        .flat_map(|&side| {
            Algorithm::PAPER.iter().map(move |&alg| {
                let spec = BroadcastRep {
                    mesh: timed(Id::TopologyBuild, || Mesh::cube(side)),
                    cfg,
                    alg,
                    length: p.length,
                };
                (side, p.seed ^ (side as u64) << 8, spec)
            })
        })
        .collect();
    let runs = p.runs.max(1);
    let mut acc: Vec<(OnlineStats, OnlineStats)> = plan
        .iter()
        .map(|_| (OnlineStats::new(), OnlineStats::new()))
        .collect();
    let mut merges: Vec<TelemetryMerge> = plan.iter().map(|_| TelemetryMerge::new()).collect();
    for i in 0..plan.len() * runs {
        let (_, master, spec) = &plan[i / runs];
        let observe = timed(Id::TelemetryAttach, || {
            telemetry.map(|spec| Observe::new(spec, i as u64))
        });
        let mut ctx = timed(Id::WorkloadArrivals, || RepContext::new(*master, i % runs));
        let (net_lat, mean_lat, frame) = replicate_observed(spec, &mut ctx, observe);
        timed(Id::StatsFold, || {
            let (net, node) = &mut acc[i / runs];
            net.push(net_lat);
            node.push(mean_lat);
        });
        timed(Id::TelemetryFinish, || merges[i / runs].absorb(frame));
    }
    let mut rows: Vec<(Fig1Cell, TelemetryMerge)> = plan
        .iter()
        .zip(&acc)
        .zip(merges)
        .map(|(((side, _, spec), (net, node)), merge)| {
            (
                Fig1Cell {
                    nodes: spec.mesh.num_nodes(),
                    side: *side,
                    algorithm: spec.alg.name().to_string(),
                    latency_us: net.mean(),
                    mean_node_latency_us: node.mean(),
                },
                merge,
            )
        })
        .collect();
    rows.sort_by_key(|(c, _)| (c.nodes, c.algorithm.clone()));
    let mut cells = Vec::with_capacity(rows.len());
    let mut frames = Vec::new();
    for (cell, merge) in rows {
        if let Some(frame) = timed(Id::TelemetryFinish, || merge.finish()) {
            frames.push(LabeledFrame::new(
                format!("{}/{}", cell.nodes, cell.algorithm),
                frame,
            ));
        }
        cells.push(cell);
    }
    (cells, frames)
}

/// Mirror of `BroadcastRep::replicate_observed`.
fn replicate_observed(
    spec: &BroadcastRep,
    ctx: &mut RepContext,
    observe: Option<Observe<'_>>,
) -> (f64, f64, Option<TelemetryFrame>) {
    let source = timed(Id::WorkloadArrivals, || {
        let mut src_rng = ctx.rng.substream("sources");
        NodeId(src_rng.index(spec.mesh.num_nodes()) as u32)
    });
    let profiling = observe.as_ref().is_some_and(|o| o.spec.profile);
    let t = profiling.then(Instant::now);
    let (net_lat, mean_lat, mut frame) =
        single_broadcast_observed(&spec.mesh, spec.cfg, spec.alg, source, spec.length, observe);
    timed(Id::TelemetryFinish, || {
        if let (Some(t), Some(f)) = (t, frame.as_mut()) {
            f.metrics
                .inc_by(SeriesKey::plain(MetricId::HarnessReplications), 1);
            f.metrics.observe(
                SeriesKey::plain(MetricId::HarnessRepWallNs),
                t.elapsed().as_nanos() as u64,
            );
        }
    });
    (net_lat, mean_lat, frame)
}

/// Mirror of `run_single_broadcast_observed`: returns the network latency,
/// the mean per-destination latency and the replication's frame.
fn single_broadcast_observed(
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    source: NodeId,
    length: u64,
    observe: Option<Observe<'_>>,
) -> (f64, f64, Option<TelemetryFrame>) {
    let schedule = build_schedule(alg, mesh, source);
    let mut net = network_for(alg, mesh, cfg);
    let profiling = observe.as_ref().is_some_and(|o| o.spec.profile);
    let collector = timed(Id::TelemetryAttach, || {
        observe.map(|o| {
            let c = o.collector(mesh.num_channels(), mesh.num_nodes());
            net.add_sink(Box::new(TimedSink(c.sink())));
            c
        })
    });
    let mut tracker = timed(Id::WorkloadTracker, || {
        BroadcastTracker::new(mesh, &schedule, OpId(0), length)
    });
    let first = timed(Id::WorkloadTracker, || tracker.start(SimTime::ZERO));
    inject_all(&mut net, SimTime::ZERO, first);
    timed(Id::Drive, || {
        while !tracker.is_complete() {
            let d = timed(Id::NetworkStep, || net.next_delivery())
                .expect("network idle before broadcast completion");
            let follow = on_delivery(&mut tracker, &d);
            inject_all(&mut net, d.delivered_at, follow);
        }
    });
    let lats = timed(Id::WorkloadTracker, || tracker.latencies_us());
    let s = timed(Id::StatsFold, || summarize(&lats));
    let network_latency_us = timed(Id::WorkloadTracker, || tracker.network_latency_us());
    let Some(c) = collector else {
        retire(net);
        return (network_latency_us, s.mean(), None);
    };
    let stats = timed(Id::TelemetryFinish, || {
        for &l in &lats {
            c.record_arrival_us(l);
        }
        c.record_op_cv(s.cv());
        profiling.then(|| net.engine_stats())
    });
    retire(net);
    let frame = timed(Id::TelemetryFinish, || {
        let mut f = c.finish();
        if let Some(e) = stats {
            scrape_engine_stats(&mut f.metrics, &e);
        }
        f
    });
    (network_latency_us, s.mean(), Some(frame))
}

/// Mirror of `Fig1ScaleParams::run` with one shard on a sequential runner.
pub fn fig1_scale(
    p: &Fig1ScaleParams,
    telemetry: Option<&TelemetrySpec>,
) -> (Vec<Fig1ScaleCell>, Vec<LabeledFrame>) {
    assert_eq!(
        p.shards, 1,
        "the traced scale driver mirrors the one-shard path"
    );
    let cfg = NetworkConfig::builder()
        .startup_us(p.startup_us)
        .build()
        .expect("Fig1ScaleParams start-up latency must be a valid duration");
    let algorithms = if p.all_algorithms {
        Algorithm::PAPER.to_vec()
    } else {
        vec![Algorithm::Db, Algorithm::Ab]
    };
    let plan: Vec<([u16; 3], u64, Algorithm)> = p
        .shapes
        .iter()
        .flat_map(|&shape| {
            let master = p.seed
                ^ ((shape[0] as u64) << 8)
                ^ ((shape[1] as u64) << 24)
                ^ ((shape[2] as u64) << 40);
            algorithms.iter().map(move |&alg| (shape, master, alg))
        })
        .collect();
    let runs = p.runs.max(1);
    let mut acc: Vec<(OnlineStats, OnlineStats, f64, TelemetryMerge)> = plan
        .iter()
        .map(|_| {
            (
                OnlineStats::new(),
                OnlineStats::new(),
                0.0,
                TelemetryMerge::new(),
            )
        })
        .collect();
    for i in 0..plan.len() * runs {
        let (shape, master, alg) = plan[i / runs];
        let mesh = timed(Id::TopologyBuild, || Mesh::new(&shape));
        let source = timed(Id::WorkloadArrivals, || {
            let mut rng = SimRng::for_replication(master, (i % runs) as u64).substream("sources");
            NodeId(rng.index(mesh.num_nodes()) as u32)
        });
        let observe = timed(Id::TelemetryAttach, || {
            telemetry.map(|s| Observe::new(s, i as u64))
        });
        let t0 = Instant::now();
        let (net_lat, mean_lat, frame) =
            single_broadcast_pumped(&mesh, cfg, alg, source, p.length, observe);
        let wall = t0.elapsed().as_secs_f64();
        timed(Id::TopologyBuild, || drop(mesh));
        let (net, node, secs, merge) = &mut acc[i / runs];
        timed(Id::StatsFold, || {
            net.push(net_lat);
            node.push(mean_lat);
            *secs += wall;
        });
        timed(Id::TelemetryFinish, || merge.absorb(frame));
    }
    let mut cells: Vec<(Fig1ScaleCell, Option<LabeledFrame>)> = plan
        .iter()
        .zip(acc)
        .map(|((shape, _, alg), (net, node, secs, merge))| {
            let cell = Fig1ScaleCell {
                nodes: timed(Id::TopologyBuild, || Mesh::new(shape).num_nodes()),
                shape: *shape,
                algorithm: alg.name().to_string(),
                shards: p.shards_for(*shape),
                latency_us: net.mean(),
                mean_node_latency_us: node.mean(),
                wall_s: secs,
            };
            let frame = timed(Id::TelemetryFinish, || {
                merge.finish().map(|f| {
                    let label = format!("{}x{}x{}/{}", shape[0], shape[1], shape[2], alg.name());
                    LabeledFrame::new(label, f)
                })
            });
            (cell, frame)
        })
        .collect();
    cells.sort_by_key(|(c, _)| (c.nodes, c.algorithm.clone()));
    let (cells, frames): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
    (cells, frames.into_iter().flatten().collect())
}

/// Mirror of `run_single_broadcast_sharded_observed` on one shard: the
/// single engine driven to idle, keeping every delivery; telemetry, when
/// on, collects driver-side series only.
fn single_broadcast_pumped(
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    source: NodeId,
    length: u64,
    observe: Option<Observe<'_>>,
) -> (f64, f64, Option<TelemetryFrame>) {
    let schedule = build_schedule(alg, mesh, source);
    let mut sim = network_for(alg, mesh, cfg);
    let mut pumped: Vec<Delivery> = Vec::new();
    let profiling = observe.as_ref().is_some_and(|o| o.spec.profile);
    let mut tracker = timed(Id::WorkloadTracker, || {
        BroadcastTracker::new(mesh, &schedule, OpId(0), length)
    });
    let first = timed(Id::WorkloadTracker, || tracker.start(SimTime::ZERO));
    inject_all(&mut sim, SimTime::ZERO, first);
    timed(Id::Drive, || {
        while let Some(d) = timed(Id::NetworkStep, || sim.next_delivery()) {
            let follow = on_delivery(&mut tracker, &d);
            inject_all(&mut sim, d.delivered_at, follow);
            pumped.push(d);
        }
    });
    assert!(
        tracker.is_complete(),
        "network idle before broadcast completion"
    );
    let lats = timed(Id::WorkloadTracker, || tracker.latencies_us());
    let s = timed(Id::StatsFold, || summarize(&lats));
    let network_latency_us = timed(Id::WorkloadTracker, || tracker.network_latency_us());
    let frame = timed(Id::TelemetryFinish, || {
        observe.map(|o| {
            let c = o.collector(mesh.num_channels(), mesh.num_nodes());
            for &l in &lats {
                c.record_arrival_us(l);
            }
            c.record_op_cv(s.cv());
            let mut f = c.finish();
            if profiling {
                scrape_engine_stats(&mut f.metrics, &sim.engine_stats());
            }
            f
        })
    });
    retire(sim);
    timed(Id::NetworkBuild, || drop(pumped));
    (network_latency_us, s.mean(), frame)
}

/// Mirror of `SaturationParams::run` on a sequential runner.
pub fn saturation(
    p: &SaturationParams,
    telemetry: Option<&TelemetrySpec>,
) -> (Vec<SaturationCell>, Vec<LabeledFrame>) {
    let cfg = NetworkConfig::builder()
        .startup_us(p.startup_us)
        .release(p.release)
        .build()
        .expect("SaturationParams start-up latency must be a valid duration");
    let plan: Vec<(Algorithm, usize, f64)> = ALGORITHMS
        .iter()
        .flat_map(|&alg| {
            p.loads
                .iter()
                .enumerate()
                .map(move |(i, &load)| (alg, i, load))
        })
        .collect();
    let nodes = timed(Id::TopologyBuild, || Mesh::new(&p.shape).num_nodes()) as f64;
    let mut cells = Vec::with_capacity(plan.len());
    let mut frames = Vec::new();
    for (t, &(alg, i, load)) in plan.iter().enumerate() {
        let mesh = timed(Id::TopologyBuild, || Mesh::new(&p.shape));
        let mc = MixedConfig {
            algorithm: alg,
            load_per_node_per_ms: load,
            broadcast_fraction: 0.1,
            length: p.length,
            batch_size: p.batch_size,
            batches: p.batches,
            seed: p.seed,
            max_sim_ms: p.max_sim_ms,
            max_arrivals: 150_000,
            pattern: DestPattern::Uniform,
        };
        let root = timed(Id::WorkloadArrivals, || {
            SimRng::for_replication(p.seed, i as u64)
        });
        let observe = timed(Id::TelemetryAttach, || {
            telemetry.map(|spec| Observe::new(spec, t as u64))
        });
        let (o, frame) = mixed_traffic(&mesh, cfg, &mc, &root, observe);
        timed(Id::TopologyBuild, || drop(mesh));
        let cell = SaturationCell {
            algorithm: alg.name().to_string(),
            offered: load,
            delivered: o.throughput_msgs_per_ms / nodes,
            mean_latency_ms: o.mean_latency_ms,
            saturated: o.saturated,
            broadcasts_completed: o.broadcasts_completed,
            unicasts_delivered: o.unicasts_delivered,
        };
        timed(Id::TelemetryFinish, || {
            if let Some(frame) = frame {
                frames.push(LabeledFrame::new(
                    format!("{}@{}", cell.algorithm, cell.offered),
                    frame,
                ));
            }
        });
        cells.push(cell);
    }
    (cells, frames)
}

/// The fields of `MixedOutcome` the saturation cells read.
struct Mixed {
    mean_latency_ms: f64,
    throughput_msgs_per_ms: f64,
    saturated: bool,
    broadcasts_completed: u64,
    unicasts_delivered: u64,
}

/// Mirror of `run_mixed_traffic_observed`.
fn mixed_traffic(
    mesh: &Mesh,
    cfg: NetworkConfig,
    mc: &MixedConfig,
    root: &SimRng,
    observe: Option<Observe<'_>>,
) -> (Mixed, Option<TelemetryFrame>) {
    assert!(
        (0.0..=1.0).contains(&mc.broadcast_fraction),
        "broadcast fraction must be a probability"
    );
    let mut net = network_for(mc.algorithm, mesh, cfg);
    let collector = timed(Id::TelemetryAttach, || {
        observe.map(|o| {
            let c = o.collector(mesh.num_channels(), mesh.num_nodes());
            net.add_sink(Box::new(TimedSink(c.sink())));
            c
        })
    });
    let adaptive_unicast = matches!(
        mc.algorithm.routing(),
        RoutingKind::WestFirstAdaptive | RoutingKind::QueueAdaptive
    );
    let (mut arrivals_rng, mut source_rng, mut dest_rng, mut kind_rng) =
        timed(Id::WorkloadArrivals, || {
            (
                root.substream("arrivals"),
                root.substream("sources"),
                root.substream("destinations"),
                root.substream("kinds"),
            )
        });
    let agg_rate = mc.load_per_node_per_ms * mesh.num_nodes() as f64;
    let interarrival = Exponential::with_rate_per_ms(agg_rate);

    let mut batch = BatchMeans::new(mc.batch_size, 1);
    let mut unicast_stats = OnlineStats::new();
    let mut trackers: HashMap<OpId, BroadcastTracker> = HashMap::new();
    let mut bcast_started: HashMap<OpId, SimTime> = HashMap::new();
    let mut broadcasts_completed = 0u64;
    let mut unicasts_delivered = 0u64;
    let mut next_op = 0u64;
    let horizon = SimTime::from_ms(mc.max_sim_ms);
    let mut next_arrival = SimTime::ZERO
        + timed(Id::WorkloadArrivals, || {
            interarrival.sample(&mut arrivals_rng)
        });
    let target_batches = mc.batches;
    let mut deliveries: Vec<Delivery> = Vec::new();

    timed(Id::Drive, || loop {
        let filled = batch.completed_batches() >= target_batches;
        let timed_out = net.now() > horizon;
        if filled || timed_out {
            break;
        }
        while !filled
            && next_op < mc.max_arrivals
            && next_arrival <= horizon
            && timed(Id::NetworkStep, || net.next_event_time()).is_none_or(|h| next_arrival <= h)
        {
            let at = next_arrival;
            let (src, broadcast) = timed(Id::WorkloadArrivals, || {
                let src = NodeId(source_rng.index(mesh.num_nodes()) as u32);
                (src, kind_rng.chance(mc.broadcast_fraction))
            });
            let op = OpId(next_op);
            next_op += 1;
            if broadcast {
                let schedule = build_schedule(mc.algorithm, mesh, src);
                let mut tracker = timed(Id::WorkloadTracker, || {
                    BroadcastTracker::new(mesh, &schedule, op, mc.length)
                });
                let first = timed(Id::WorkloadTracker, || tracker.start(at));
                inject_all(&mut net, at, first);
                bcast_started.insert(op, at);
                trackers.insert(op, tracker);
            } else {
                let spec = timed(Id::WorkloadArrivals, || {
                    let dst = mc.pattern.pick(mesh, src, &mut dest_rng);
                    let route = if adaptive_unicast {
                        Route::Adaptive { dst }
                    } else {
                        Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, src, dst)))
                    };
                    MessageSpec {
                        src,
                        route,
                        length: mc.length,
                        op,
                        tag: 0,
                        charge_startup: true,
                    }
                });
                inject_all(&mut net, at, vec![spec]);
            }
            next_arrival += timed(Id::WorkloadArrivals, || {
                interarrival.sample(&mut arrivals_rng)
            });
        }
        let stepped = timed(Id::NetworkStep, || {
            let stepped = net.step();
            if stepped {
                deliveries.clear();
                net.drain_deliveries_into(&mut deliveries);
            }
            stepped
        });
        if !stepped {
            break;
        }
        for d in &deliveries {
            if let Some(tracker) = trackers.get_mut(&d.op) {
                let follow = on_delivery(tracker, d);
                inject_all(&mut net, d.delivered_at, follow);
                if tracker.is_complete() {
                    let t0 = bcast_started[&d.op];
                    timed(Id::StatsFold, || {
                        batch.push(d.delivered_at.since(t0).as_ms())
                    });
                    if let Some(c) = &collector {
                        timed(Id::TelemetryFinish, || {
                            c.record_arrival_us(d.delivered_at.since(t0).as_us())
                        });
                    }
                    broadcasts_completed += 1;
                    trackers.remove(&d.op);
                    bcast_started.remove(&d.op);
                }
            } else {
                timed(Id::StatsFold, || unicast_stats.push(d.latency().as_ms()));
                unicasts_delivered += 1;
            }
        }
    });

    let (saturated, mean) = timed(Id::StatsFold, || {
        let saturated = batch.completed_batches() < target_batches;
        let mean = match batch.estimate() {
            Some(e) => e.mean,
            None => {
                let means = batch.means();
                if means.is_empty() {
                    f64::NAN
                } else {
                    means.iter().sum::<f64>() / means.len() as f64
                }
            }
        };
        (saturated, mean)
    });
    let sim_ms = net.now().as_ms().max(1e-9);
    let outcome = Mixed {
        mean_latency_ms: mean,
        throughput_msgs_per_ms: (broadcasts_completed + unicasts_delivered) as f64 / sim_ms,
        saturated,
        broadcasts_completed,
        unicasts_delivered,
    };
    // The product drops the network before finishing the collector.
    retire(net);
    let frame = timed(Id::TelemetryFinish, || collector.map(|c| c.finish()));
    (outcome, frame)
}
