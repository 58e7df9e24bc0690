//! **Design ablations** — the modelling choices DESIGN.md calls out,
//! quantified:
//!
//! * start-up latency Ts ∈ {0.15, 1.5} µs (§3.1's second sweep);
//! * message length 32–2048 flits (the paper's stated range);
//! * RD on a one-port vs a three-port router (the §2 claim that RD cannot
//!   exploit multiport);
//! * AB on west-first vs odd-even adaptive routing (the §2 remark that AB
//!   "can be employed with other underlying adaptive routing models");
//! * wormhole path-holding vs the paper's facility-queueing channel model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wormcast_broadcast::Algorithm;
use wormcast_network::OpId;
use wormcast_network::{Network, NetworkConfig, ReleaseMode};
use wormcast_routing::{OddEven, WestFirst};
use wormcast_topology::{Mesh, NodeId};
use wormcast_workload::{
    drive, run_mixed_traffic, run_single_broadcast, BroadcastTracker, MixedConfig,
};

/// Ts sweep: the RD-vs-DB gap tracks the start-up latency (Fig. 1 text).
fn ablate_startup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_startup");
    group.sample_size(wormcast_bench::SAMPLE_SIZE);
    let mesh = Mesh::cube(8);
    for ts in [0.15, 1.5] {
        let cfg = NetworkConfig::builder()
            .startup_us(ts)
            .build()
            .expect("swept start-up latencies are valid");
        let rd = run_single_broadcast(&mesh, cfg, Algorithm::Rd, NodeId(7), 100);
        let db = run_single_broadcast(&mesh, cfg, Algorithm::Db, NodeId(7), 100);
        println!(
            "--- Ts = {ts} us: RD {:.2} us, DB {:.2} us (gap {:.2} us)",
            rd.network_latency_us,
            db.network_latency_us,
            rd.network_latency_us - db.network_latency_us
        );
        for alg in [Algorithm::Rd, Algorithm::Db] {
            group.bench_with_input(
                BenchmarkId::new(alg.name(), format!("ts{ts}")),
                &ts,
                |b, _| b.iter(|| black_box(run_single_broadcast(&mesh, cfg, alg, NodeId(7), 100))),
            );
        }
    }
    group.finish();
}

/// Message length sweep, 32–2048 flits: where start-up stops dominating.
fn ablate_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_length");
    group.sample_size(wormcast_bench::SAMPLE_SIZE);
    let mesh = Mesh::cube(8);
    let cfg = NetworkConfig::paper_default();
    for len in [32u64, 256, 2048] {
        println!("--- L = {len} flits:");
        for alg in Algorithm::ALL {
            let o = run_single_broadcast(&mesh, cfg, alg, NodeId(7), len);
            println!("    {:<4} {:.2} us", alg.name(), o.network_latency_us);
            group.bench_with_input(BenchmarkId::new(alg.name(), len), &len, |b, &l| {
                b.iter(|| black_box(run_single_broadcast(&mesh, cfg, alg, NodeId(7), l)))
            });
        }
    }
    group.finish();
}

/// RD cannot exploit a multiport router: one send per step regardless.
fn ablate_rd_ports(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_rd_ports");
    group.sample_size(wormcast_bench::SAMPLE_SIZE);
    let mesh = Mesh::cube(8);
    for ports in [1usize, 3] {
        let cfg = NetworkConfig::builder()
            .ports(ports)
            .build()
            .expect("swept port counts are valid");
        // Run RD via the raw network so the port override sticks.
        let run = || {
            let schedule = Algorithm::Rd.schedule(&mesh, NodeId(7));
            let mut net = Network::new(
                mesh.clone(),
                cfg,
                Box::new(wormcast_routing::DimensionOrdered),
            );
            let tracker = BroadcastTracker::new(&mesh, &schedule, OpId(0), 100);
            drive(&mut net, tracker).network_latency_us()
        };
        let lat = run();
        println!("--- RD with {ports} port(s): {lat:.2} us");
        group.bench_with_input(BenchmarkId::new("RD", ports), &ports, |b, _| b.iter(&run));
    }
    group.finish();
}

/// AB on its two candidate adaptive substrates (2D mesh, where both apply).
fn ablate_ab_turn_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_ab_turn_model");
    group.sample_size(wormcast_bench::SAMPLE_SIZE);
    let mesh = Mesh::square(16);
    let cfg = NetworkConfig::builder()
        .ports(Algorithm::Ab.ports())
        .build()
        .expect("AB's port requirement is valid");
    for (name, rf) in [("west-first", true), ("odd-even", false)] {
        let run = || {
            let schedule = Algorithm::Ab.schedule(&mesh, NodeId(37));
            let rf: Box<dyn wormcast_routing::RoutingFunction> = if rf {
                Box::new(WestFirst)
            } else {
                Box::new(OddEven)
            };
            let mut net = Network::new(mesh.clone(), cfg, rf);
            let tracker = BroadcastTracker::new(&mesh, &schedule, OpId(0), 100);
            drive(&mut net, tracker).network_latency_us()
        };
        println!("--- AB on {name}: {:.2} us", run());
        group.bench_function(name, |b| b.iter(&run));
    }
    group.finish();
}

/// Wormhole path-holding vs the paper's facility-queueing channel model
/// under load: the discipline barely moves light-load numbers but diverges
/// in congestion.
fn ablate_release_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_release_mode");
    group.sample_size(wormcast_bench::SAMPLE_SIZE);
    let mesh = Mesh::cube(8);
    for (name, mode) in [
        ("path-holding", ReleaseMode::PathHolding),
        ("facility", ReleaseMode::AfterTailCrossing),
    ] {
        let cfg = NetworkConfig::builder()
            .release(mode)
            .build()
            .expect("both release modes are valid");
        let mut mc = MixedConfig::paper(Algorithm::Db, 5.0, 7);
        mc.batch_size = 5;
        mc.batches = 4;
        mc.max_sim_ms = 40.0;
        let o = run_mixed_traffic(&mesh, cfg, &mc);
        println!("--- DB at load 5, {name}: {:.4} ms", o.mean_latency_ms);
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_mixed_traffic(&mesh, cfg, &mc)))
        });
    }
    group.finish();
}

/// Background-traffic pattern: uniform (the paper's model) vs the classic
/// structured patterns — adaptivity's value shows under non-uniform load.
fn ablate_traffic_pattern(c: &mut Criterion) {
    use wormcast_workload::DestPattern;
    let mut group = c.benchmark_group("ablate_traffic_pattern");
    group.sample_size(wormcast_bench::SAMPLE_SIZE);
    let mesh = Mesh::cube(8);
    let cfg = NetworkConfig::builder()
        .release(ReleaseMode::AfterTailCrossing)
        .build()
        .expect("facility-queueing baseline is valid");
    for (name, pattern) in [
        ("uniform", DestPattern::Uniform),
        ("transpose", DestPattern::Transpose),
        ("complement", DestPattern::Complement),
        (
            "hotspot10",
            DestPattern::Hotspot {
                node: 219,
                percent: 10,
            },
        ),
    ] {
        let mut mc = MixedConfig::paper(Algorithm::Ab, 3.0, 31);
        mc.batch_size = 5;
        mc.batches = 4;
        mc.max_sim_ms = 40.0;
        mc.pattern = pattern;
        let o = run_mixed_traffic(&mesh, cfg, &mc);
        println!(
            "--- AB under {name}: broadcast {:.4} ms, unicast {:.5} ms",
            o.mean_latency_ms, o.mean_unicast_latency_ms
        );
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_mixed_traffic(&mesh, cfg, &mc)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablate_startup,
    ablate_length,
    ablate_rd_ports,
    ablate_ab_turn_model,
    ablate_release_mode,
    ablate_traffic_pattern
);
criterion_main!(benches);
