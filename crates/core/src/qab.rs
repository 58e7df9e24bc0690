//! Queue-aware Adaptive Broadcast (QAB) — the repo's fifth algorithm.
//!
//! QAB keeps AB's three-step dissemination *skeleton* — source to the two
//! plane corners, corner relays along Z, serpentine coverage of each
//! half-plane — and changes what happens on every leg where the router has
//! a choice: adaptive legs draw their candidates from the **negative-first**
//! turn model and pick among them by **local per-channel queue depth**
//! (`wormcast_routing::QueueAdaptive`, tie-break by channel index), in the
//! spirit of backpressure broadcast (Sinha–Paschos–Modiano,
//! arXiv:1604.00446). Under faults, QAB's encroached legs are re-planned as
//! negative-first-legal detours instead of AB's fixed west-first
//! staircases.
//!
//! Sharing the skeleton is deliberate: the saturation knee of this network
//! is set by per-message start-up cost (Ts dominates the µs-scale budget),
//! so a dissemination tree of unicast legs — one start-up per receiver —
//! caps out far below AB's coded serpentines, which cover a half-plane per
//! start-up. QAB therefore spends its novelty where it pays: backlog-aware
//! channel selection on the contested adaptive legs and on all mixed
//! unicast traffic, with the step count (3) and message budget identical to
//! AB's, so any delivered-load gap between the two *is* the selection
//! policy, not the tree shape.

use crate::ab::{ab_steps, corner_plane_schedule, SerpentineStyle};
use crate::schedule::BroadcastSchedule;
use wormcast_topology::{Mesh, NodeId};

/// Build the QAB broadcast schedule for `source` on a 2D or 3D `mesh`:
/// AB's corner/relay/serpentine skeleton with negative-first-legal
/// serpentine segmentation, labelled so the engines bind the queue-aware
/// negative-first substrate to its adaptive legs.
///
/// # Panics
/// Panics if the mesh is not 2D/3D or any of the X/Y dimensions is < 2
/// (same domain as AB).
pub fn qab_schedule(mesh: &Mesh, source: NodeId) -> BroadcastSchedule {
    corner_plane_schedule(mesh, source, SerpentineStyle::NegativeFirst, "QAB")
}

/// QAB's message-passing step count: 3, independent of network size (the
/// skeleton is AB's).
pub fn qab_steps(mesh: &Mesh) -> u32 {
    ab_steps(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::ab_schedule;
    use crate::schedule::RoutePlan;
    use wormcast_topology::{Coord, Topology};

    #[test]
    fn validates_on_the_paper_meshes() {
        for dims in [[8u16, 8, 8], [4, 4, 4], [4, 4, 16], [10, 10, 10]] {
            let m = Mesh::new(&dims);
            for src in [0u32, 5, m.num_nodes() as u32 - 1] {
                let s = qab_schedule(&m, NodeId(src));
                s.validate(&m, 2)
                    .unwrap_or_else(|e| panic!("{dims:?} src {src}: {e:?}"));
                assert_eq!(s.steps(), 3, "{dims:?} src {src}");
            }
        }
    }

    #[test]
    fn works_on_2d_meshes() {
        for dims in [[8u16, 8], [3, 5]] {
            let m = Mesh::new(&dims);
            let s = qab_schedule(&m, NodeId(1));
            s.validate(&m, 2)
                .unwrap_or_else(|e| panic!("{dims:?}: {e:?}"));
        }
    }

    #[test]
    fn same_skeleton_as_ab_with_its_own_label() {
        let m = Mesh::cube(8);
        let q = qab_schedule(&m, NodeId(100));
        let a = ab_schedule(&m, NodeId(100));
        assert_eq!(q.algorithm, "QAB");
        assert_eq!(q.messages.len(), a.messages.len());
        for (qm, am) in q.messages.iter().zip(&a.messages) {
            assert_eq!(qm.step, am.step);
            assert_eq!(qm.charge_startup, am.charge_startup);
        }
        assert_eq!(qab_steps(&m), 3);
    }

    #[test]
    fn adaptive_legs_exist_for_the_substrate_to_steer() {
        // The queue-aware policy only matters if the schedule leaves the
        // router choices: the corner legs must be adaptive, the coverage
        // legs coded (one start-up per serpentine, not per receiver).
        let m = Mesh::cube(8);
        let s = qab_schedule(&m, NodeId(100));
        let adaptive = s
            .messages
            .iter()
            .filter(|msg| matches!(msg.plan, RoutePlan::Adaptive { .. }))
            .count();
        let coded = s.messages.len() - adaptive;
        assert!(adaptive >= 1, "corner legs are adaptive");
        assert!(coded > adaptive, "coverage is coded, not per-receiver");
    }

    #[test]
    fn serpentine_segments_are_negative_first_legal() {
        // QAB's deadlock argument: every coded segment must conform to the
        // negative-first turn model (all negative hops before any positive
        // hop), so coded traffic and the negative-first adaptive legs share
        // one acyclic channel-dependency order.
        let m = Mesh::square(8);
        let s = qab_schedule(&m, m.node_at(&Coord::xy(3, 4)));
        for msg in &s.messages {
            let Some(cp) = msg.plan.coded(&m) else {
                continue;
            };
            let mut seen_positive = false;
            for &ch in &cp.path.hops {
                let (from, to) = m.channel_endpoints(ch);
                let (fc, tc) = (m.coord_of(from), m.coord_of(to));
                let positive = (0..m.ndims()).any(|d| tc.get(d) > fc.get(d));
                if positive {
                    seen_positive = true;
                } else {
                    assert!(
                        !seen_positive,
                        "negative hop after a positive one in a coded segment"
                    );
                }
            }
        }
    }
}
