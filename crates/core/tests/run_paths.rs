//! The run paths DB, AB, QAB, RD and EDN build are the coded paths they
//! stand for.
//!
//! Every fixed message of the five paper algorithms is a
//! [`RoutePlan::Runs`]. Each expands to a coded path that is checked two
//! ways. First, against an independent reference: a `00` unicast is the
//! unicast over [`dor_path`], and a `11` path delivers at every node after
//! its sender except the broadcast source, along at most three straight
//! runs. Second, byte for byte: a digest of the expanded schedules is
//! pinned per mesh, with the values the coded-path builders produced
//! before the run paths replaced them. The engine's stride walk
//! ([`SimTopology::step_channel`] over [`RunPath::direction`]) crosses the
//! expansion's channels, hop for hop.

use wormcast_broadcast::{Algorithm, BroadcastSchedule, RoutePlan};
use wormcast_routing::{dor_path, CodedPath, ControlField, RunPath, SimTopology, MAX_RUNS};
use wormcast_topology::{ChannelId, Mesh, NodeId, Topology};

/// 64-bit FNV-1a, as `schedule_digest.rs` folds schedules.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn coded(&mut self, cp: &CodedPath) {
        self.u64(cp.control.bits().into());
        self.u64(cp.path.src.0.into());
        self.u64(cp.path.hops.len() as u64);
        for ch in &cp.path.hops {
            self.u64(ch.0.into());
        }
        for &d in cp.deliver_mask() {
            self.u64(d.into());
        }
    }
}

/// The paper algorithms defined on `mesh` (EDN is 3D only).
fn algorithms(mesh: &Mesh) -> Vec<Algorithm> {
    Algorithm::ALL
        .into_iter()
        .filter(|&a| mesh.ndims() == 3 || a != Algorithm::Edn)
        .collect()
}

/// The channels the engine's stride walk crosses along `rp`.
fn stride_walk(mesh: &Mesh, rp: &RunPath) -> Vec<ChannelId> {
    let mut at = rp.src();
    (0..rp.len())
        .map(|hop| {
            let (dim, sign) = rp.direction(hop);
            let ch = SimTopology::step_channel(mesh, at, dim, sign);
            at = mesh.channel_endpoints(ch).1;
            ch
        })
        .collect()
}

/// How many straight runs the node walk of `cp` makes.
fn straight_runs(mesh: &Mesh, cp: &CodedPath) -> usize {
    let dirs: Vec<_> = cp
        .path
        .hops
        .iter()
        .map(|&ch| mesh.channel_parts(ch))
        .collect();
    1 + dirs
        .windows(2)
        .filter(|w| (w[0].1, w[0].2) != (w[1].1, w[1].2))
        .count()
}

/// Check every run path of `s` against its reference; fold the expanded
/// schedule into `h`.
fn check(mesh: &Mesh, s: &BroadcastSchedule, h: &mut Fnv) {
    h.u64(s.source.0.into());
    h.u64(s.messages.len() as u64);
    for m in &s.messages {
        h.u64(m.step.into());
        h.u64(m.charge_startup.into());
        let rp = match &m.plan {
            RoutePlan::Runs(rp) => rp,
            RoutePlan::Adaptive { src, dst } => {
                h.u64(3);
                h.u64(src.0.into());
                h.u64(dst.0.into());
                continue;
            }
            RoutePlan::Coded(_) => panic!("{} builds run paths", s.algorithm),
        };
        let cp = rp.coded(mesh);
        h.coded(&cp);
        let what = format!("{} from {}: {rp:?}", s.algorithm, s.source);
        assert_eq!(stride_walk(mesh, rp), cp.path.hops, "{what}");
        assert!(straight_runs(mesh, &cp) <= MAX_RUNS, "{what}");
        assert_eq!(cp.control, rp.control(), "{what}");
        let nodes = cp.path.nodes(mesh);
        match cp.control {
            ControlField::Unicast => {
                let dst = *nodes.last().unwrap();
                let want = CodedPath::unicast(mesh, dor_path(mesh, rp.src(), dst));
                assert_eq!(cp, want, "{what}");
            }
            ControlField::GatherAll => {
                let want: Vec<bool> = (0..nodes.len())
                    .map(|i| i > 0 && nodes[i] != s.source)
                    .collect();
                assert_eq!(cp.deliver_mask(), want, "{what}");
            }
            ControlField::CornerRelay => panic!("no run path relays at corners: {what}"),
        }
        assert_eq!(rp.num_receivers(), cp.num_receivers(), "{what}");
        assert_eq!(m.plan.hops(mesh), cp.path.len(), "{what}");
    }
}

/// The digest of the paper algorithms' schedules from `sources` on `mesh`,
/// each run path checked on the way.
fn digest(dims: &[u16], sources: impl Iterator<Item = u32> + Clone) -> u64 {
    let mesh = Mesh::new(dims);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for alg in algorithms(&mesh) {
        for src in sources.clone() {
            check(&mesh, &alg.schedule(&mesh, NodeId(src)), &mut h);
        }
    }
    h.0
}

#[test]
fn run_paths_expand_to_the_coded_paths_they_replace() {
    let pinned: [(&[u16], u64); 4] = [
        (&[4, 4, 4], 0xd38537980c794f06),
        (&[8, 8, 8], 0x8d3d379a31ec0615),
        (&[8, 8], 0x942d48d0cced47a5),
        (&[3, 5], 0xa907e517f94e8265),
    ];
    let got: Vec<(&[u16], u64)> = pinned
        .iter()
        .map(|&(dims, _)| {
            let n = dims.iter().map(|&d| u32::from(d)).product();
            (dims, digest(dims, 0..n))
        })
        .collect();
    assert_eq!(got, pinned, "a run path expands to another coded path");
}

#[test]
fn run_paths_on_a_sample_of_the_largest_mesh() {
    let got = digest(&[16, 16, 8], (0..2048).step_by(97));
    assert_eq!(
        got, 0x7964ef834cf6b46d,
        "a run path expands to another coded path"
    );
}
