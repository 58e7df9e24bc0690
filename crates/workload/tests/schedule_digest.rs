//! Pins every message of every schedule the builders produce.
//!
//! One FNV-1a digest per mesh folds, message by message and in schedule
//! order, the step, the start-up charge, the route (a coded path's control
//! field, source, hops and delivery mask, a run path's those of the coded
//! path it expands to; an adaptive leg's endpoints) of:
//! every algorithm from every source, the three multicast schemes over
//! fixed destination subsets, and the plan-time fault degradation
//! ([`degrade_schedule`]: truncated prefixes and detour unicasts) under a
//! fixed dead-link set. A change to how schedules are built that keeps
//! their physics leaves every digest unchanged.

use wormcast_broadcast::{Algorithm, BroadcastSchedule, RoutePlan};
use wormcast_routing::{CodedPath, ControlField};
use wormcast_topology::{ChannelId, Mesh, NodeId, Topology};
use wormcast_workload::{degrade_schedule, MulticastScheme};

/// 64-bit FNV-1a: stable across toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn coded(&mut self, cp: &CodedPath) {
        let control = match cp.control {
            ControlField::Unicast => 0,
            ControlField::CornerRelay => 1,
            ControlField::GatherAll => 2,
        };
        self.u64(control);
        self.u64(cp.path.src.0.into());
        self.u64(cp.path.hops.len() as u64);
        for ch in &cp.path.hops {
            self.u64(ch.0.into());
        }
        let mask: Vec<u8> = cp.deliver_mask().iter().map(|&d| d.into()).collect();
        self.bytes(&mask);
    }

    /// A run path digests as the coded path it expands to.
    fn schedule(&mut self, mesh: &Mesh, s: &BroadcastSchedule) {
        self.bytes(s.algorithm.as_bytes());
        self.u64(s.source.0.into());
        self.u64(s.messages.len() as u64);
        for m in &s.messages {
            self.u64(m.step.into());
            self.u64(m.charge_startup.into());
            match &m.plan {
                RoutePlan::Coded(cp) => self.coded(cp),
                RoutePlan::Runs(rp) => self.coded(&rp.coded(mesh)),
                RoutePlan::Adaptive { src, dst } => {
                    self.u64(3);
                    self.u64(src.0.into());
                    self.u64(dst.0.into());
                }
            }
        }
    }
}

/// The algorithms defined on `mesh` (EDN is 3D only).
fn algorithms(mesh: &Mesh) -> Vec<Algorithm> {
    Algorithm::ALL
        .into_iter()
        .filter(|&a| mesh.ndims() == 3 || a != Algorithm::Edn)
        .collect()
}

/// A fixed destination subset per source: roughly every `k`-th node,
/// shifted by the source so the subsets differ.
fn dests(mesh: &Mesh, src: NodeId, k: u32) -> Vec<NodeId> {
    mesh.nodes()
        .filter(|n| (n.0 * 7 + src.0).is_multiple_of(k))
        .collect()
}

/// A fixed dead-link set: about one channel slot in 29.
fn dead_links(mesh: &Mesh) -> Vec<ChannelId> {
    (0..mesh.num_channels() as u32)
        .filter(|c| c.wrapping_mul(2_654_435_761) % 29 == 3)
        .map(ChannelId)
        .collect()
}

fn digest(mesh: &Mesh) -> u64 {
    let mut h = Fnv::new();
    let dead = dead_links(mesh);
    for alg in algorithms(mesh) {
        for src in mesh.nodes() {
            let s = alg.schedule(mesh, src);
            h.schedule(mesh, &s);
            let degraded = degrade_schedule(mesh, alg, &s, &dead);
            h.schedule(mesh, &degraded.schedule);
            h.u64(degraded.reroutes);
            for n in &degraded.unreachable {
                h.u64(n.0.into());
            }
        }
    }
    let schemes: &[MulticastScheme] = if mesh.ndims() == 3 {
        &MulticastScheme::ALL
    } else {
        &[MulticastScheme::Um]
    };
    for &scheme in schemes {
        for src in mesh.nodes() {
            for k in [3, 11] {
                h.schedule(mesh, &scheme.schedule(mesh, src, &dests(mesh, src, k)));
            }
        }
    }
    h.0
}

#[test]
fn schedules_are_pinned() {
    let pinned: [(&[u16], u64); 5] = [
        (&[4, 4], 0x9af3c61054880e04),
        (&[5, 3], 0xd1266a5ebbeb4d2f),
        (&[4, 4, 4], 0x004592e45356fad7),
        (&[3, 4, 5], 0xf741b02936282374),
        (&[8, 8, 8], 0x73f5df1650229a58),
    ];
    let got: Vec<(&[u16], u64)> = pinned
        .iter()
        .map(|&(dims, _)| (dims, digest(&Mesh::new(dims))))
        .collect();
    assert_eq!(got, pinned, "a schedule builder changed what it builds");
}
