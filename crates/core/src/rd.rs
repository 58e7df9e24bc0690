//! Recursive Doubling (RD) — Barnett, David, van de Geijn & Watts [JPDC'96].
//!
//! The classic ⌈log₂N⌉-step broadcast: every node holding a copy is
//! responsible for a sub-box of the mesh; each step it halves its box along
//! the longest dimension and sends to the node at the *same relative
//! position* in the other half (a straight-line, dimension-ordered unicast,
//! which is what lets RD exploit wormhole pipelining in the absence of
//! contention). The recursion bottoms out when every box is a single node.
//!
//! RD sends exactly one message per holder per step, so it gains nothing
//! from a multiport router — the limitation EDN was designed to lift (§2 of
//! the paper).

use crate::schedule::{BroadcastSchedule, RoutePlan, ScheduledMessage};
use wormcast_routing::RunPath;
use wormcast_topology::{Coord, Mesh, NodeId, Topology, MAX_DIMS};

/// Per-dimension half-open ranges `[lo, hi)` describing a sub-box of the
/// mesh. `Copy`, so halving a box allocates nothing.
#[derive(Debug, Clone, Copy)]
struct SubBox {
    lo: Coord,
    hi: Coord,
}

impl SubBox {
    fn whole(mesh: &Mesh) -> SubBox {
        let hi = Coord::new(mesh.dims());
        SubBox {
            lo: Coord::new(&[0; MAX_DIMS][..hi.ndims()]),
            hi,
        }
    }

    fn extent(&self, d: usize) -> u16 {
        self.hi.get(d) - self.lo.get(d)
    }

    fn is_unit(&self) -> bool {
        self.lo
            .axes()
            .iter()
            .zip(self.hi.axes())
            .all(|(&l, &h)| h - l == 1)
    }

    /// The dimension with the largest extent (lowest index on ties).
    fn longest_dim(&self) -> usize {
        (0..self.lo.ndims())
            .max_by_key(|&d| (self.extent(d), std::cmp::Reverse(d)))
            .expect("boxes have dimensions")
    }
}

/// Build the RD broadcast schedule for `source` on `mesh`.
pub fn rd_schedule(mesh: &Mesh, source: NodeId) -> BroadcastSchedule {
    let mut messages = Vec::new();
    let holder = mesh.coord_of(source);
    recurse(mesh, &SubBox::whole(mesh), holder, 1, &mut messages);
    BroadcastSchedule {
        source,
        messages,
        algorithm: "RD",
    }
}

fn recurse(mesh: &Mesh, bbox: &SubBox, holder: Coord, step: u32, out: &mut Vec<ScheduledMessage>) {
    if bbox.is_unit() {
        return;
    }
    let d = bbox.longest_dim();
    let ext = bbox.extent(d);
    let mid = bbox.lo.get(d) + ext / 2;
    // Lower half [lo, mid), upper half [mid, hi).
    let lower = SubBox {
        hi: bbox.hi.with(d, mid),
        ..*bbox
    };
    let upper = SubBox {
        lo: bbox.lo.with(d, mid),
        ..*bbox
    };
    let pos = holder.get(d);
    let (own, other) = if pos < mid {
        (&lower, &upper)
    } else {
        (&upper, &lower)
    };
    // Partner: same relative position in the other half, clamped for odd
    // extents.
    let rel = pos - own.lo.get(d);
    let partner_pos = other.lo.get(d) + rel.min(other.extent(d) - 1);
    let partner = holder.with(d, partner_pos);
    let src = mesh.node_at(&holder);
    let dst = mesh.node_at(&partner);
    out.push(ScheduledMessage::step_message(
        step,
        RoutePlan::Runs(RunPath::dor(mesh, src, dst)),
    ));
    recurse(mesh, own, holder, step + 1, out);
    recurse(mesh, other, partner, step + 1, out);
}

/// RD's step count: the recursion depth, `Σ_d ⌈log₂ extent_d⌉` — which is
/// `log₂ N` for power-of-two meshes (the paper's formula).
pub fn rd_steps(mesh: &Mesh) -> u32 {
    mesh.dims()
        .iter()
        .map(|&e| (e as f64).log2().ceil() as u32)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_cube_exactly_once() {
        let m = Mesh::cube(4);
        for src in [0u32, 21, 63] {
            let s = rd_schedule(&m, NodeId(src));
            s.validate(&m, 1).expect("RD schedule valid with one port");
        }
    }

    #[test]
    fn step_count_is_log2_n() {
        assert_eq!(rd_steps(&Mesh::cube(4)), 6); // log2(64)
        assert_eq!(rd_steps(&Mesh::cube(8)), 9); // log2(512)
        assert_eq!(rd_steps(&Mesh::cube(16)), 12); // log2(4096)
        assert_eq!(rd_steps(&Mesh::new(&[4, 4, 16])), 8); // log2(256)
        assert_eq!(rd_steps(&Mesh::new(&[8, 8, 16])), 10); // log2(1024)
        let m = Mesh::cube(8);
        assert_eq!(rd_schedule(&m, NodeId(0)).steps(), rd_steps(&m));
    }

    #[test]
    fn non_power_of_two() {
        let m = Mesh::cube(10);
        let s = rd_schedule(&m, NodeId(123));
        s.validate(&m, 1).unwrap();
        assert_eq!(s.steps(), rd_steps(&m)); // 3 * ceil(log2 10) = 12
        assert_eq!(s.steps(), 12);
    }

    #[test]
    fn messages_are_straight_lines() {
        let m = Mesh::cube(8);
        let s = rd_schedule(&m, NodeId(77));
        for msg in &s.messages {
            let cp = msg.plan.coded(&m).expect("RD uses fixed paths");
            let nodes = cp.path.nodes(&m);
            let a = m.coord_of(nodes[0]);
            let b = m.coord_of(*nodes.last().unwrap());
            assert_eq!(a.hamming(&b), 1, "RD partners differ in one dimension");
            assert!(cp.path.is_minimal(&m));
            assert!(wormcast_routing::is_dor_legal(&m, &cp.path));
        }
    }

    #[test]
    fn one_message_per_node_per_step() {
        let m = Mesh::cube(8);
        let s = rd_schedule(&m, NodeId(0));
        // validate(.., 1) already enforces this; double-check the total:
        // N-1 messages deliver to N-1 nodes exactly once.
        assert_eq!(s.num_messages(), m.num_nodes() - 1);
    }

    #[test]
    fn message_count_doubles_per_step() {
        let m = Mesh::cube(8);
        let s = rd_schedule(&m, NodeId(0));
        let mut per_step = vec![0usize; s.steps() as usize + 1];
        for msg in &s.messages {
            per_step[msg.step as usize] += 1;
        }
        for (k, &count) in per_step.iter().enumerate().skip(1) {
            assert_eq!(count, 1 << (k - 1), "step {k} message count");
        }
    }

    #[test]
    fn works_on_2d_and_1d() {
        let m2 = Mesh::square(8);
        rd_schedule(&m2, NodeId(5)).validate(&m2, 1).unwrap();
        let m1 = Mesh::new(&[16]);
        let s = rd_schedule(&m1, NodeId(3));
        s.validate(&m1, 1).unwrap();
        assert_eq!(s.steps(), 4);
    }
}
