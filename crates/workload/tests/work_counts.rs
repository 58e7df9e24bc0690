//! Pins the engine's deterministic work counts for the small mixed stream
//! of `alloc_count.rs` (DB, AB and QAB on a 4×4×4 mesh, each at one loaded
//! point): events scheduled, event-list scans, the message arena's
//! high-water mark, and messages injected, delivered and completed. These
//! depend only on what the simulation does, never on the host, so a change
//! to the engine's data layout or stepping must leave them where they are,
//! and a change that moves one says why.

use wormcast_broadcast::Algorithm;
use wormcast_network::NetworkConfig;
use wormcast_topology::Mesh;
use wormcast_workload::{
    network_for, run_mixed_traffic, run_mixed_traffic_on, MixedConfig, Runner,
};

/// The work one loaded point of `alg`'s stream did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    events_scheduled: u64,
    scans: u64,
    arena_highwater: u64,
    injected: u64,
    delivered: u64,
    completed: u64,
}

const ALGS: [Algorithm; 3] = [Algorithm::Db, Algorithm::Ab, Algorithm::Qab];

fn config(alg: Algorithm) -> MixedConfig {
    MixedConfig {
        batch_size: 10,
        batches: 5,
        ..MixedConfig::paper(alg, 64.0, 7)
    }
}

fn work(alg: Algorithm) -> Work {
    let mesh = Mesh::cube(4);
    let cfg = NetworkConfig::paper_default();
    let mc = config(alg);
    let mut net = network_for(alg, mesh.clone(), cfg);
    let out = run_mixed_traffic_on(&mut net, &mesh, &mc);
    // The caller-built network runs the very stream `run_mixed_traffic` does.
    let plain = run_mixed_traffic(&mesh, cfg, &mc);
    assert_eq!(
        (out.broadcasts_completed, out.unicasts_delivered),
        (plain.broadcasts_completed, plain.unicasts_delivered),
        "{alg}"
    );
    assert_eq!(
        out.mean_latency_ms.to_bits(),
        plain.mean_latency_ms.to_bits(),
        "{alg}"
    );
    let e = net.engine_stats();
    let c = net.counters();
    Work {
        events_scheduled: e.wheel_events_scheduled,
        scans: e.wheel_bucket_scans,
        arena_highwater: e.arena_msgs_highwater,
        injected: c.injected,
        delivered: c.deliveries,
        completed: c.completed,
    }
}

/// Measured when the pin was added; see the module doc before moving one.
const PINNED: [Work; 3] = [
    // DB
    Work {
        events_scheduled: 23152,
        scans: 46870,
        arena_highwater: 107,
        injected: 3197,
        delivered: 4309,
        completed: 3183,
    },
    // AB
    Work {
        events_scheduled: 17484,
        scans: 35538,
        arena_highwater: 39,
        injected: 1776,
        delivered: 4303,
        completed: 1768,
    },
    // QAB
    Work {
        events_scheduled: 17484,
        scans: 35538,
        arena_highwater: 39,
        injected: 1776,
        delivered: 4303,
        completed: 1768,
    },
];

#[test]
fn mixed_stream_work_counts_are_pinned_across_jobs() {
    for jobs in [1, 2] {
        let mut got = Vec::new();
        Runner::new(jobs).run(ALGS.len(), |i| work(ALGS[i]), |_, w| got.push(w));
        for ((alg, want), got) in ALGS.iter().zip(PINNED).zip(got) {
            assert_eq!(got, want, "{alg} at --jobs {jobs}");
        }
    }
}
