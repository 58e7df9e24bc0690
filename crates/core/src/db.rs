//! Deterministic Broadcast (DB) — Al-Dubai & Ould-Khaoua [Inf. Sci. 2004].
//!
//! DB rides on dimension-ordered routing plus **coded-path routing**: a CPR
//! message delivers to every marked node along its path in a single
//! message-passing step, so broadcast cost stops depending on the network
//! size. Following §2 of the paper, the mesh is divided into row and column
//! partitioning sets, each anchored at a corner:
//!
//! In a 3D `W×H×Z` mesh with the source in plane `zs`, the four steps are
//!
//! 1. the source sends to the two anchor corners of its own plane,
//!    `a = (0,0,zs)` and `b = (W−1,H−1,zs)`;
//! 2. each anchor disseminates along its Z **column** with gather-all coded
//!    paths, so every plane acquires its two anchor corners;
//! 3. in every plane, anchor `(0,0,z)` covers the west **edge** (column
//!    `x=0`) and anchor `(W−1,H−1,z)` the east edge (column `x=W−1`) with
//!    one gather-all path each — these are the "selected sides";
//! 4. every west-edge node covers the west half of its **row** and every
//!    east-edge node the east half ("each selected side sends the message to
//!    the opposite side in its partitioning set, covering the rest of the
//!    nodes of the system in parallel").
//!
//! Every path is a straight line (trivially dimension-ordered and
//! deadlock-free) and most destinations receive in the same (last) step,
//! which is what gives DB its low coefficient of variation at the node
//! level. In 2D the Z step disappears and DB needs 3 steps; in 3D it is the
//! paper's 4.

use crate::schedule::{BroadcastSchedule, RoutePlan, ScheduledMessage};
use wormcast_routing::{Run, RunPath};
use wormcast_topology::{Coord, Mesh, NodeId, Sign, Topology};

/// Build the DB broadcast schedule for `source` on a 2D or 3D `mesh`.
///
/// # Panics
/// Panics if the mesh is not 2D/3D or any of the X/Y dimensions is < 2.
pub fn db_schedule(mesh: &Mesh, source: NodeId) -> BroadcastSchedule {
    assert!(
        mesh.ndims() == 2 || mesh.ndims() == 3,
        "DB is defined for 2D and 3D meshes"
    );
    assert!(
        mesh.dim_size(0) >= 2 && mesh.dim_size(1) >= 2,
        "DB needs at least a 2x2 plane"
    );
    let w = mesh.dim_size(0);
    let h = mesh.dim_size(1);
    let is3d = mesh.ndims() == 3;
    let zrange = if is3d { mesh.dim_size(2) } else { 1 };
    let src_c = mesh.coord_of(source);
    let zs = if is3d { src_c.get(2) } else { 0 };
    let at = |x: u16, y: u16, z: u16| -> Coord {
        if is3d {
            Coord::xyz(x, y, z)
        } else {
            Coord::xy(x, y)
        }
    };
    let mut messages = Vec::new();

    // Anchor corners of the source plane: the corner nearest the source and
    // its diagonal opposite ("for each partitioning set, a corner node is
    // selected", §2). Source-dependent selection also spreads concurrent
    // broadcasts over the plane's two diagonal corner pairs instead of
    // funnelling every operation through one fixed pair.
    let src_plane = if is3d {
        wormcast_topology::Plane::of_3d(mesh, zs)
    } else {
        wormcast_topology::Plane::whole_2d(mesh)
    };
    let a0 = src_plane.nearest_corner(mesh, &src_c);
    let b0 = src_plane.opposite_corner(mesh, &a0);

    // Step 1: source -> anchors (straight-line DOR unicasts; skipped when the
    // source *is* that anchor).
    for corner in [a0, b0] {
        if corner != src_c {
            messages.push(ScheduledMessage {
                step: 1,
                charge_startup: true,
                plan: RoutePlan::Runs(RunPath::dor(mesh, source, mesh.node_at(&corner))),
            });
        }
    }

    // Step 2 (3D only): anchors cover their Z columns with gather-all paths
    // (one per direction from the source plane).
    if is3d {
        for corner in [a0, b0] {
            for to in [zrange - 1, 0] {
                if to != zs {
                    messages.push(ScheduledMessage::step_message(
                        2,
                        RoutePlan::Runs(z_column(mesh, &corner, to)),
                    ));
                }
            }
        }
    }

    // Step 3: per plane, each anchor covers the full edge column it sits on
    // (its "side" of the partitioning set), walking from its own row to the
    // opposite end.
    let edge_step = if is3d { 3 } else { 2 };
    for z in 0..zrange {
        for corner in [a0, b0] {
            let (cx, up) = (corner.get(0), corner.get(1) == 0);
            let (y0, sign) = if up {
                (0, Sign::Plus)
            } else {
                (h - 1, Sign::Minus)
            };
            push_line(
                mesh,
                &mut messages,
                edge_step,
                &at(cx, y0, z),
                Run::new(1, sign, h - 1),
                &src_c,
            );
        }
    }

    // Step 4: rows. West-edge node covers x = 1..mid-1 eastward; east-edge
    // node covers x = W-2..mid westward. Interior columns only exist when
    // W > 2.
    let row_step = edge_step + 1;
    let mid = w / 2;
    for z in 0..zrange {
        for y in 0..h {
            if mid > 1 {
                push_line(
                    mesh,
                    &mut messages,
                    row_step,
                    &at(0, y, z),
                    Run::new(0, Sign::Plus, mid - 1),
                    &src_c,
                );
            }
            if w - 1 > mid {
                push_line(
                    mesh,
                    &mut messages,
                    row_step,
                    &at(w - 1, y, z),
                    Run::new(0, Sign::Minus, w - 1 - mid),
                    &src_c,
                );
            }
        }
    }

    BroadcastSchedule {
        source,
        messages,
        algorithm: "DB",
    }
}

/// The gather-all path along the Z column of `corner` (a node of the source
/// plane) to plane `to`: the relay that gives every plane on the way its
/// copy of the corner.
pub(crate) fn z_column(mesh: &Mesh, corner: &Coord, to: u16) -> RunPath {
    let zs = corner.get(2);
    let sign = Sign::towards(zs, to).expect("a Z column leaves its plane");
    let sender = mesh.node_at(corner);
    // Skipping the sender skips nobody: every node on the way receives.
    RunPath::gather_all(mesh, sender, &[Run::new(2, sign, zs.abs_diff(to))], sender)
        .expect("a Z column has receivers")
}

/// Add a straight-line gather-all message from `start` (the sender) along
/// `line`, delivering to every later node except `skip` (the broadcast
/// source, which already holds the payload). A line ending at `skip` stops
/// one node short (keeps channel demand honest when the source sits at the
/// end of a line); nothing is sent if nothing would be delivered.
fn push_line(
    mesh: &Mesh,
    messages: &mut Vec<ScheduledMessage>,
    step: u32,
    start: &Coord,
    line: Run,
    skip: &Coord,
) {
    let run = if line.end(start) == Some(*skip) {
        Run::new(
            line.dim(),
            line.sign(),
            (line.len() as u16).saturating_sub(1),
        )
    } else {
        line
    };
    if let Some(path) = RunPath::gather_all(mesh, mesh.node_at(start), &[run], mesh.node_at(skip)) {
        messages.push(ScheduledMessage::step_message(step, RoutePlan::Runs(path)));
    }
}

/// DB's step count: 4 in 3D, 3 in 2D — independent of network size, the
/// property Fig. 1 turns on.
pub fn db_steps(mesh: &Mesh) -> u32 {
    if mesh.ndims() == 3 {
        4
    } else {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_cube_from_any_source_class() {
        let m = Mesh::cube(4);
        // Interior, corner, edge, column and row-end sources.
        for src in [
            Coord::xyz(1, 1, 1),
            Coord::xyz(0, 0, 0),
            Coord::xyz(3, 3, 3),
            Coord::xyz(0, 2, 1),
            Coord::xyz(3, 0, 2),
            Coord::xyz(2, 3, 0),
            Coord::xyz(0, 0, 2),
        ] {
            let s = db_schedule(&m, m.node_at(&src));
            s.validate(&m, 2)
                .unwrap_or_else(|e| panic!("source {src}: {e:?}"));
            assert_eq!(s.steps(), 4);
        }
    }

    #[test]
    fn exhaustive_sources_on_small_cube() {
        let m = Mesh::cube(4);
        for n in 0..m.num_nodes() as u32 {
            db_schedule(&m, NodeId(n)).validate(&m, 2).unwrap();
        }
    }

    #[test]
    fn step_count_is_constant_in_network_size() {
        for side in [4u16, 8, 16] {
            let m = Mesh::cube(side);
            let s = db_schedule(&m, NodeId(7));
            assert_eq!(s.steps(), 4, "side {side}");
            s.validate(&m, 2).unwrap();
        }
        let m = Mesh::new(&[16, 16, 8]);
        assert_eq!(db_schedule(&m, NodeId(0)).steps(), 4);
    }

    #[test]
    fn works_on_rectangular_meshes() {
        for dims in [[4u16, 4, 16], [8, 8, 16], [16, 16, 8], [10, 10, 10]] {
            let m = Mesh::new(&dims);
            for src in (0..m.num_nodes() as u32).step_by(97) {
                db_schedule(&m, NodeId(src))
                    .validate(&m, 2)
                    .unwrap_or_else(|e| panic!("{dims:?} src {src}: {e:?}"));
            }
        }
    }

    #[test]
    fn two_d_takes_three_steps() {
        let m = Mesh::square(8);
        for src in (0..64u32).step_by(13) {
            let s = db_schedule(&m, NodeId(src));
            s.validate(&m, 2).unwrap();
            assert_eq!(s.steps(), 3);
        }
    }

    #[test]
    fn all_paths_are_straight_lines() {
        let m = Mesh::cube(8);
        let s = db_schedule(&m, NodeId(100));
        for msg in &s.messages {
            let cp = msg.plan.coded(&m).expect("DB uses fixed paths");
            if msg.step == 1 {
                // Corner legs are DOR L-shaped paths.
                assert!(wormcast_routing::is_dor_legal(&m, &cp.path));
                continue;
            }
            let nodes = cp.path.nodes(&m);
            let a = m.coord_of(nodes[0]);
            let b = m.coord_of(*nodes.last().unwrap());
            assert!(
                a.hamming(&b) <= 1,
                "step {} path should be a straight line",
                msg.step
            );
        }
    }

    #[test]
    fn message_count_scales_with_rows_not_nodes() {
        // DB: ≤2 corner legs + ≤4 column paths + 2·Z edges + ≤2·Z·H rows.
        let m = Mesh::cube(8);
        let s = db_schedule(&m, NodeId(0));
        let upper = 2 + 4 + 2 * 8 + 2 * 8 * 8;
        assert!(s.num_messages() <= upper);
        assert!(
            s.num_messages() < m.num_nodes() - 1,
            "far fewer messages than unicast-based algorithms"
        );
    }

    #[test]
    fn most_nodes_receive_in_the_last_step() {
        let m = Mesh::cube(8);
        let s = db_schedule(&m, NodeId(77));
        let mut by_step = vec![0usize; 5];
        for msg in &s.messages {
            let RoutePlan::Runs(rp) = &msg.plan else {
                unreachable!()
            };
            by_step[msg.step as usize] += rp.num_receivers();
        }
        let total: usize = by_step.iter().sum();
        assert_eq!(total, m.num_nodes() - 1);
        assert!(
            by_step[4] * 2 > total,
            "the row step should deliver the majority: {by_step:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least a 2x2")]
    fn degenerate_mesh_rejected() {
        let m = Mesh::new(&[1, 4, 4]);
        let _ = db_schedule(&m, NodeId(0));
    }
}
