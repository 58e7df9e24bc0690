//! Extended Dominating Node (EDN) — Tsai & McKinley [TPDS'97].
//!
//! EDN broadcasts on **multiport** (three-port) wormhole meshes by dividing
//! the network into levels, each served by a dominating set of the level
//! below. The paper pins down the properties this reimplementation must
//! reproduce:
//!
//! * the router is three-port: a node sends at most 3 messages per step;
//! * dimensions are expected to be multiples of 4 (§2): the natural sizes
//!   are `(4·2^k) × (4·2^k) × (4·2^m)`;
//! * the step count on those sizes is `k + m + 4` (§2);
//! * at 4×4×4 EDN matches DB's 4 steps; on larger networks the step count —
//!   and therefore the latency and the arrival-time spread — grows with
//!   network size (§3.1, §3.2).
//!
//! The construction has two phases:
//!
//! 1. **Reduction.** While the current block of responsibility is wider than
//!    the 4×4×4 base: one step per XY level — the holder splits its block
//!    into the four X–Y quadrants and sends to its mirror node in the other
//!    three (3 sends, the full three-port fan-out) — and one step per Z
//!    level (halving, 1 send). Conforming sizes need exactly `k` XY levels
//!    and `m` Z levels.
//! 2. **Base block (≤ 4×4×4), 4 steps.** (a) halve the block's Z extent;
//!    (b) each holder covers its remaining adjacent plane(s); (c) in-plane,
//!    each holder sends to its mirror in the other three 2×2 quadrants;
//!    (d) each 2×2 quadrant holder delivers to the ≤ 3 nodes it dominates
//!    (its quadrant neighbours) — the dominating-set delivery that gives the
//!    algorithm its name.
//!
//! All messages are dimension-ordered unicasts, as in the original.

use crate::schedule::{BroadcastSchedule, RoutePlan, ScheduledMessage};
use std::collections::BTreeSet;
use wormcast_routing::RunPath;
use wormcast_topology::{Coord, Mesh, NodeId, Topology};

#[derive(Debug, Clone)]
struct Block {
    lo: [u16; 3],
    hi: [u16; 3],
}

impl Block {
    fn extent(&self, d: usize) -> u16 {
        self.hi[d] - self.lo[d]
    }
}

/// Build the EDN broadcast schedule for `source` on a 3D `mesh`.
///
/// # Panics
/// Panics if the mesh is not 3-dimensional.
pub fn edn_schedule(mesh: &Mesh, source: NodeId) -> BroadcastSchedule {
    assert_eq!(mesh.ndims(), 3, "EDN is defined here for 3D meshes");
    let mut messages: Vec<ScheduledMessage> = Vec::new();
    let whole = Block {
        lo: [0, 0, 0],
        hi: [mesh.dim_size(0), mesh.dim_size(1), mesh.dim_size(2)],
    };
    let mut step = 1;

    // Holders and the block each is responsible for.
    let mut holders: Vec<(Coord, Block)> = vec![(mesh.coord_of(source), whole)];

    // Phase 1a: XY quadrant reduction.
    while holders
        .iter()
        .any(|(_, b)| b.extent(0) > 4 || b.extent(1) > 4)
    {
        holders = split_step(mesh, holders, &[0, 1], step, &mut messages);
        step += 1;
    }
    // Phase 1b: Z halving.
    while holders.iter().any(|(_, b)| b.extent(2) > 4) {
        holders = split_step(mesh, holders, &[2], step, &mut messages);
        step += 1;
    }

    // Phase 2: the 4-step base schedule on each ≤4×4×4 block.
    // (a) halve Z within the block.
    holders = base_z_halve(mesh, holders, step, &mut messages);
    step += 1;
    // (b) cover remaining Z-adjacent planes.
    holders = base_z_adjacent(mesh, holders, step, &mut messages);
    step += 1;
    // (c) in-plane 2×2 quadrant mirrors.
    holders = split_step(mesh, holders, &[0, 1], step, &mut messages);
    step += 1;
    // (d) dominating delivery within each ≤2×2×1 cell.
    base_dominate(mesh, holders, step, &mut messages);

    compress_steps(&mut messages);
    BroadcastSchedule {
        source,
        messages,
        algorithm: "EDN",
    }
}

/// One reduction step: every holder splits its block along each dimension in
/// `dims` that is still wider than the base (4 for reduction phases, 2 for
/// the in-plane base step) and sends to its mirror in every other sub-block.
fn split_step(
    mesh: &Mesh,
    holders: Vec<(Coord, Block)>,
    dims: &[usize],
    step: u32,
    out: &mut Vec<ScheduledMessage>,
) -> Vec<(Coord, Block)> {
    let mut next = Vec::new();
    for (holder, block) in holders {
        // Which of the requested dims actually split (extent above target)?
        let target = |d: usize| -> u16 {
            if d == 2 {
                4
            } else if block.extent(0) <= 4 && block.extent(1) <= 4 {
                2 // base in-plane step
            } else {
                4
            }
        };
        let split_dims: Vec<usize> = dims
            .iter()
            .copied()
            .filter(|&d| block.extent(d) > target(d))
            .collect();
        if split_dims.is_empty() {
            next.push((holder, block));
            continue;
        }
        // Enumerate all sub-blocks (2^|split_dims| of them).
        let mut mids = [0u16; 3];
        for &d in &split_dims {
            mids[d] = block.lo[d] + block.extent(d) / 2;
        }
        for mask in 0u32..(1 << split_dims.len()) {
            let mut sub = block.clone();
            for (i, &d) in split_dims.iter().enumerate() {
                if mask & (1 << i) == 0 {
                    sub.hi[d] = mids[d];
                } else {
                    sub.lo[d] = mids[d];
                }
            }
            // Mirror of the holder in this sub-block (same relative
            // position, clamped).
            let mut mirror = holder;
            let mut is_own = true;
            for &d in &split_dims {
                let own_lo = if holder.get(d) < mids[d] {
                    block.lo[d]
                } else {
                    mids[d]
                };
                if own_lo != sub.lo[d] {
                    is_own = false;
                }
                let rel = holder.get(d) - own_lo;
                mirror = mirror.with(d, sub.lo[d] + rel.min(sub.extent(d) - 1));
            }
            if is_own {
                next.push((holder, sub));
            } else {
                let src = mesh.node_at(&holder);
                let dst = mesh.node_at(&mirror);
                out.push(ScheduledMessage::step_message(
                    step,
                    RoutePlan::Runs(RunPath::dor(mesh, src, dst)),
                ));
                next.push((mirror, sub));
            }
        }
    }
    next
}

/// Base step (a): halve each block's Z extent (if > 2).
fn base_z_halve(
    mesh: &Mesh,
    holders: Vec<(Coord, Block)>,
    step: u32,
    out: &mut Vec<ScheduledMessage>,
) -> Vec<(Coord, Block)> {
    let mut next = Vec::new();
    for (holder, block) in holders {
        if block.extent(2) <= 2 {
            next.push((holder, block));
            continue;
        }
        let mid = block.lo[2] + block.extent(2) / 2;
        let (mut lower, mut upper) = (block.clone(), block.clone());
        lower.hi[2] = mid;
        upper.lo[2] = mid;
        let (own, other) = if holder.get(2) < mid {
            (lower, upper)
        } else {
            (upper, lower)
        };
        let own_lo = own.lo[2];
        let rel = holder.get(2) - own_lo;
        let mirror = holder.with(2, other.lo[2] + rel.min(other.extent(2) - 1));
        out.push(ScheduledMessage::step_message(
            step,
            RoutePlan::Runs(RunPath::dor(
                mesh,
                mesh.node_at(&holder),
                mesh.node_at(&mirror),
            )),
        ));
        next.push((holder, own));
        next.push((mirror, other));
    }
    next
}

/// Base step (b): each holder covers the other plane(s) of its ≤2-deep Z
/// block, leaving every X–Y plane with exactly one holder.
fn base_z_adjacent(
    mesh: &Mesh,
    holders: Vec<(Coord, Block)>,
    step: u32,
    out: &mut Vec<ScheduledMessage>,
) -> Vec<(Coord, Block)> {
    let mut next = Vec::new();
    for (holder, block) in holders {
        for z in block.lo[2]..block.hi[2] {
            let mut plane = block.clone();
            plane.lo[2] = z;
            plane.hi[2] = z + 1;
            if z == holder.get(2) {
                next.push((holder, plane));
            } else {
                let mirror = holder.with(2, z);
                out.push(ScheduledMessage::step_message(
                    step,
                    RoutePlan::Runs(RunPath::dor(
                        mesh,
                        mesh.node_at(&holder),
                        mesh.node_at(&mirror),
                    )),
                ));
                next.push((mirror, plane));
            }
        }
    }
    next
}

/// Base step (d): each holder delivers to every remaining node of its ≤2×2
/// cell — the dominating-node delivery (≤ 3 sends, within port budget).
fn base_dominate(
    mesh: &Mesh,
    holders: Vec<(Coord, Block)>,
    step: u32,
    out: &mut Vec<ScheduledMessage>,
) {
    for (holder, block) in holders {
        debug_assert!(block.extent(0) <= 2 && block.extent(1) <= 2 && block.extent(2) == 1);
        for y in block.lo[1]..block.hi[1] {
            for x in block.lo[0]..block.hi[0] {
                let c = holder.with(0, x).with(1, y);
                if c == holder {
                    continue;
                }
                out.push(ScheduledMessage::step_message(
                    step,
                    RoutePlan::Runs(RunPath::dor(mesh, mesh.node_at(&holder), mesh.node_at(&c))),
                ));
            }
        }
    }
}

/// Remap step numbers to be contiguous from 1 (degenerate phases on small or
/// non-conforming meshes can leave gaps).
fn compress_steps(messages: &mut [ScheduledMessage]) {
    let used: BTreeSet<u32> = messages.iter().map(|m| m.step).collect();
    let map: std::collections::HashMap<u32, u32> = used
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32 + 1))
        .collect();
    for m in messages {
        m.step = map[&m.step];
    }
}

/// EDN's step count for a conforming `(4·2^k) × (4·2^k) × (4·2^m)` mesh:
/// `k + m + 4` (§2 of the paper). For non-conforming sizes this returns the
/// generalized construction's count.
pub fn edn_steps(mesh: &Mesh) -> u32 {
    assert_eq!(mesh.ndims(), 3);
    let levels = |ext: u16| -> u32 {
        let mut e = ext;
        let mut n = 0;
        while e > 4 {
            e = e.div_ceil(2);
            n += 1;
        }
        n
    };
    let k = levels(mesh.dim_size(0)).max(levels(mesh.dim_size(1)));
    let m = levels(mesh.dim_size(2));
    k + m + 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_4x4x4_in_4_steps() {
        let m = Mesh::cube(4);
        for src in [0u32, 13, 63] {
            let s = edn_schedule(&m, NodeId(src));
            s.validate(&m, 3).expect("EDN valid with three ports");
            assert_eq!(s.steps(), 4, "4x4x4 takes k+m+4 = 4 steps");
        }
    }

    #[test]
    fn conforming_step_counts_match_closed_form() {
        // (4·2^k)^2 × (4·2^m) => k+m+4.
        for (dims, expect) in [
            ([4u16, 4, 4], 4),
            ([8, 8, 8], 6),    // k=1, m=1
            ([4, 4, 16], 6),   // k=0, m=2
            ([8, 8, 16], 7),   // k=1, m=2
            ([16, 16, 8], 7),  // k=2, m=1
            ([16, 16, 16], 8), // k=2, m=2
        ] {
            let m = Mesh::new(&dims);
            assert_eq!(edn_steps(&m), expect, "{dims:?} closed form");
            let s = edn_schedule(&m, NodeId(0));
            s.validate(&m, 3).unwrap();
            assert_eq!(s.steps(), expect, "{dims:?} constructed steps");
        }
    }

    #[test]
    fn step_count_grows_with_network_size() {
        let small = edn_steps(&Mesh::cube(4));
        let mid = edn_steps(&Mesh::cube(8));
        let large = edn_steps(&Mesh::cube(16));
        assert!(small < mid && mid < large);
    }

    #[test]
    fn non_conforming_sizes_still_cover() {
        let m = Mesh::cube(10);
        let s = edn_schedule(&m, NodeId(123));
        s.validate(&m, 3).expect("generalized EDN covers 10x10x10");
    }

    /// The ceil-halving relaxation on the paper's 10×10×10 mesh: extents
    /// reduce 10 → 5 → 3 (⌈e/2⌉ per level), so the non-conforming size slots
    /// into the `k + m + 4` table at k = m = 2, exactly as a conforming
    /// 16×16×16 would.
    #[test]
    fn ceil_halving_relaxation_on_10x10x10() {
        let m = Mesh::new(&[10, 10, 10]);
        // Closed form: two XY levels, two Z levels.
        assert_eq!(edn_steps(&m), 2 + 2 + 4);
        assert_eq!(edn_steps(&m), edn_steps(&Mesh::cube(16)));
        for src in [0u32, 137, 999] {
            let s = edn_schedule(&m, NodeId(src));
            assert_eq!(s.steps(), 8, "constructed steps match the table");
            s.validate(&m, 3)
                .expect("valid under the three-port budget");
            // Every node is dominated: delivered to by exactly one of the
            // schedule's DOR unicasts (the source by none).
            let mut hits = vec![0u32; m.num_nodes()];
            for msg in &s.messages {
                for r in msg.plan.receivers(&m) {
                    hits[r.0 as usize] += 1;
                }
            }
            for (i, &h) in hits.iter().enumerate() {
                let expect = u32::from(i as u32 != src);
                assert_eq!(h, expect, "node {i} dominated exactly once (src {src})");
            }
        }
    }

    #[test]
    fn respects_three_ports_from_many_sources() {
        let m = Mesh::new(&[8, 8, 4]);
        for src in (0..m.num_nodes() as u32).step_by(37) {
            edn_schedule(&m, NodeId(src)).validate(&m, 3).unwrap();
        }
    }

    #[test]
    fn all_messages_are_dor_unicasts() {
        let m = Mesh::cube(8);
        let s = edn_schedule(&m, NodeId(99));
        for msg in &s.messages {
            let cp = msg.plan.coded(&m).expect("EDN uses fixed paths");
            assert_eq!(cp.num_receivers(), 1, "EDN is unicast-based");
            assert!(wormcast_routing::is_dor_legal(&m, &cp.path));
        }
    }

    #[test]
    fn more_messages_than_rd() {
        // Both are unicast-based with exactly-once coverage, so both use
        // N-1 messages; EDN packs them into fewer steps.
        let m = Mesh::cube(8);
        let edn = edn_schedule(&m, NodeId(0));
        let rd = crate::rd::rd_schedule(&m, NodeId(0));
        assert_eq!(edn.num_messages(), m.num_nodes() - 1);
        assert_eq!(rd.num_messages(), m.num_nodes() - 1);
        assert!(edn.steps() < rd.steps());
    }
}
