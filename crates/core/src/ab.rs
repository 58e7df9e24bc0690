//! Adaptive Broadcast (AB) — Al-Dubai, Ould-Khaoua & Mackenzie [PDP 2003].
//!
//! AB combines CPR with **turn-model adaptive routing** (west-first, §2) and
//! completes a broadcast in only three message-passing steps by treating the
//! 3D mesh as a stack of 2D planes:
//!
//! 1. from the source, the message is routed (adaptively) to the **nearest
//!    corner** of the source's plane and to the **opposite corner** — header
//!    control field `10`;
//! 2. each of the two corners relays the message to the corresponding
//!    corners of every other plane — a gather-all coded path straight along
//!    Z, control field `11` — so every plane receives the message "via two
//!    corners in parallel";
//! 3. every plane is divided in half and each corner disseminates the
//!    message over its half with a single **serpentine** coded path covering
//!    all remaining nodes.
//!
//! The serpentine is what the paper means by AB "using longer paths in its
//! third step": one path of ~W·H/2 hops per half-plane. That single long
//! path is the root of both AB phenomena the paper reports — the arrival
//! spread (CV) growing with network size faster than DB's, and the extra
//! channel load that erodes AB's throughput advantage on 16×16×8 (Fig. 4).
//!
//! In 2D the plane-relay step collapses into a corner-to-corner leg, keeping
//! the three-step structure ("only three message passing steps in 2D", §2).

use crate::db::z_column;
use crate::schedule::{BroadcastSchedule, RoutePlan, ScheduledMessage};
use wormcast_routing::{Run, RunPath};
use wormcast_topology::{Coord, Mesh, NodeId, Plane, Sign, Topology};

/// How a serpentine's row-to-row turn hops are segmented, which decides
/// which turn model the coded segments conform to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SerpentineStyle {
    /// AB: each segment is a row sweep plus the trailing turn hop
    /// (E…EN / W…WN / E…ES / W…WS) — west-first conformable, since any
    /// west hops come first within a segment.
    WestFirst,
    /// QAB: on descending serpentines the turn hop *leads* the next
    /// segment (S,E…E / S,W…W) instead of trailing the previous one, so
    /// every segment does all its negative hops before any positive hop —
    /// negative-first conformable. Ascending serpentines keep the trailing
    /// turn (W…WN is already negative-before-positive).
    NegativeFirst,
}

/// Build the AB broadcast schedule for `source` on a 2D or 3D `mesh`.
///
/// # Panics
/// Panics if the mesh is not 2D/3D or any of the X/Y dimensions is < 2.
pub fn ab_schedule(mesh: &Mesh, source: NodeId) -> BroadcastSchedule {
    corner_plane_schedule(mesh, source, SerpentineStyle::WestFirst, "AB")
}

/// The corner/plane-relay/serpentine skeleton shared by AB and QAB: three
/// message-passing steps whose only structural degree of freedom is the
/// serpentine segmentation (`style`).
pub(crate) fn corner_plane_schedule(
    mesh: &Mesh,
    source: NodeId,
    style: SerpentineStyle,
    label: &'static str,
) -> BroadcastSchedule {
    assert!(
        mesh.ndims() == 2 || mesh.ndims() == 3,
        "AB is defined for 2D and 3D meshes"
    );
    assert!(
        mesh.dim_size(0) >= 2 && mesh.dim_size(1) >= 2,
        "AB needs at least a 2x2 plane"
    );
    let is3d = mesh.ndims() == 3;
    let src_c = mesh.coord_of(source);
    let zs = if is3d { src_c.get(2) } else { 0 };
    let zrange = if is3d { mesh.dim_size(2) } else { 1 };
    let src_plane = plane_at(mesh, zs);
    let mut messages = Vec::new();

    // The two anchor corners of the source plane: nearest to the source and
    // its diagonal opposite.
    let near = src_plane.nearest_corner(mesh, &src_c);
    let far = src_plane.opposite_corner(mesh, &near);

    // Step 1: source -> both corners, adaptively routed (control 10). In 2D
    // the paper's three-step structure routes source -> nearest corner in
    // step 1 and nearest -> opposite corner in step 2.
    if is3d {
        for corner in [near, far] {
            if corner != src_c {
                messages.push(ScheduledMessage {
                    step: 1,
                    charge_startup: true,
                    plan: RoutePlan::Adaptive {
                        src: source,
                        dst: mesh.node_at(&corner),
                    },
                });
            }
        }
    } else {
        if near != src_c {
            messages.push(ScheduledMessage {
                step: 1,
                charge_startup: true,
                plan: RoutePlan::Adaptive {
                    src: source,
                    dst: mesh.node_at(&near),
                },
            });
        }
        messages.push(ScheduledMessage {
            step: 2,
            charge_startup: true,
            plan: RoutePlan::Adaptive {
                src: mesh.node_at(&near),
                dst: mesh.node_at(&far),
            },
        });
    }

    // Step 2 (3D): corners relay along Z to the corresponding corners of
    // every other plane (control 11), one gather-all path per direction.
    if is3d {
        for corner in [near, far] {
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

    // Step 3: per plane, each corner covers its half with a serpentine.
    // The halves split along Y; a corner owns the half containing its own
    // row.
    let serp_step = 3;
    let h = mesh.dim_size(1);
    let hm = h / 2;
    for z in 0..zrange {
        let plane = plane_at(mesh, z);
        for corner0 in [near, far] {
            let corner = if is3d { corner0.with(2, z) } else { corner0 };
            let rows: Vec<u16> = if corner.get(1) < hm {
                (0..hm).collect()
            } else {
                (hm..h).rev().collect()
            };
            push_serpentine(
                mesh,
                &mut messages,
                serp_step,
                &plane,
                &corner,
                &rows,
                &src_c,
                style,
            );
        }
    }

    compress_steps(&mut messages);
    BroadcastSchedule {
        source,
        messages,
        algorithm: label,
    }
}

/// Remap step numbers to be contiguous from 1 (a corner source can make the
/// first corner leg vanish). AB's steps are 1–3, so one small array indexed
/// by step does the renumbering: entry `s` counts the used steps up to `s`.
fn compress_steps(messages: &mut [ScheduledMessage]) {
    let mut renumber = [0u32; 4];
    for m in messages.iter() {
        renumber[m.step as usize] = 1;
    }
    for s in 1..renumber.len() {
        renumber[s] += renumber[s - 1];
    }
    for m in messages.iter_mut() {
        m.step = renumber[m.step as usize];
    }
}

fn plane_at(mesh: &Mesh, z: u16) -> Plane {
    if mesh.ndims() == 3 {
        Plane::of_3d(mesh, z)
    } else {
        Plane::whole_2d(mesh)
    }
}

/// Add the serpentine dissemination for one half-plane as a **chain of
/// coded-path segments**: each segment is one row sweep plus the single
/// vertical hop onto the next row, relayed onward by the turn node without a
/// fresh start-up (CPR absorb-and-forward), so the whole serpentine counts
/// as one message-passing step. Segmenting matters for deadlock freedom: a
/// row-plus-turn segment conforms to west-first routing (E…EN or W…WN), so
/// AB's traffic keeps the channel-dependency graph acyclic, whereas one
/// monolithic snake path would take the prohibited N→W turn. The
/// [`SerpentineStyle::NegativeFirst`] variant walks the identical node
/// sequence but cuts descending serpentines *before* each turn hop, so the
/// hop leads its segment and every segment stays negative-before-positive.
#[allow(clippy::too_many_arguments)] // internal builder shared by AB/QAB
fn push_serpentine(
    mesh: &Mesh,
    messages: &mut Vec<ScheduledMessage>,
    step: u32,
    plane: &Plane,
    corner: &Coord,
    rows: &[u16],
    src_c: &Coord,
    style: SerpentineStyle,
) {
    let w = mesh.dim_size(0);
    let descending = rows.len() > 1 && rows[1] < rows[0];
    let turn_leads = style == SerpentineStyle::NegativeFirst && descending;
    let source = mesh.node_at(src_c);
    let mut left_to_right = corner.get(0) == 0;
    for (ri, &y) in rows.iter().enumerate() {
        let (x0, sweep) = if left_to_right {
            (0, Sign::Plus)
        } else {
            (w - 1, Sign::Minus)
        };
        left_to_right = !left_to_right;
        let row = Run::new(0, sweep, w - 1);
        // The turn hop between two rows of the half-plane; an empty run
        // where a segment has none.
        let turn = |from: u16, to: u16| Run::new(1, Sign::towards(from, to).unwrap(), 1);
        let no_turn = Run::new(1, Sign::Plus, 0);
        // A leading turn hop enters this row from where the previous sweep
        // ended (S,E…E / S,W…W — negative-first legal).
        let lead = match ri.checked_sub(1) {
            Some(prev) if turn_leads => turn(rows[prev], y),
            _ => no_turn,
        };
        // The trailing turn hop onto the next row (E…EN / W…WN — west-first
        // legal).
        let trail = match rows.get(ri + 1) {
            Some(&next_y) if !turn_leads => turn(y, next_y),
            _ => no_turn,
        };
        let sender = plane.at(x0, if lead.is_empty() { y } else { rows[ri - 1] });
        if ri == 0 {
            debug_assert_eq!(sender, *corner, "serpentine starts at its corner");
        }
        // A segment whose one other node is the broadcast source delivers
        // nothing.
        let runs = [lead, row, trail];
        let Some(path) = RunPath::gather_all(mesh, mesh.node_at(&sender), &runs, source) else {
            continue;
        };
        let plan = RoutePlan::Runs(path);
        messages.push(if ri == 0 {
            ScheduledMessage::step_message(step, plan)
        } else {
            ScheduledMessage::continuation(step, plan)
        });
    }
}

/// AB's step count: 3, independent of network size (§2).
pub fn ab_steps(_mesh: &Mesh) -> u32 {
    3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RoutePlan;

    #[test]
    fn compress_steps_closes_gaps_and_keeps_order() {
        let m = Mesh::square(4);
        let plan = RoutePlan::Adaptive {
            src: NodeId(0),
            dst: NodeId(1),
        };
        for (steps, want) in [
            (vec![2, 3, 3, 2], vec![1, 2, 2, 1]),
            (vec![3, 1, 3], vec![2, 1, 2]),
            (vec![1, 2, 3], vec![1, 2, 3]),
            (vec![3, 3], vec![1, 1]),
            (vec![], vec![]),
        ] {
            let mut msgs: Vec<ScheduledMessage> = steps
                .iter()
                .map(|&s| ScheduledMessage::step_message(s, plan.clone()))
                .collect();
            compress_steps(&mut msgs);
            let got: Vec<u32> = msgs.iter().map(|msg| msg.step).collect();
            assert_eq!(got, want, "steps {steps:?}");
        }
        // A corner source drops AB's first step on a real mesh.
        let s = ab_schedule(&m, NodeId(0));
        assert_eq!(s.messages.iter().map(|msg| msg.step).min(), Some(1));
    }

    #[test]
    fn covers_cube_from_source_classes() {
        let m = Mesh::cube(4);
        for src in [
            Coord::xyz(1, 1, 1),
            Coord::xyz(0, 0, 0),
            Coord::xyz(3, 3, 3),
            Coord::xyz(3, 0, 2),
            Coord::xyz(0, 3, 1),
            Coord::xyz(2, 2, 0),
        ] {
            let s = ab_schedule(&m, m.node_at(&src));
            s.validate(&m, 2)
                .unwrap_or_else(|e| panic!("source {src}: {e:?}"));
            assert_eq!(s.steps(), 3);
        }
    }

    #[test]
    fn exhaustive_sources_on_small_cube() {
        let m = Mesh::cube(4);
        for n in 0..m.num_nodes() as u32 {
            ab_schedule(&m, NodeId(n)).validate(&m, 2).unwrap();
        }
    }

    #[test]
    fn three_steps_at_every_size() {
        for dims in [[4u16, 4, 4], [8, 8, 8], [16, 16, 8], [10, 10, 10]] {
            let m = Mesh::new(&dims);
            let s = ab_schedule(&m, NodeId(1));
            s.validate(&m, 2).unwrap();
            assert_eq!(s.steps(), 3, "{dims:?}");
        }
    }

    #[test]
    fn rectangular_meshes_with_many_sources() {
        for dims in [[4u16, 4, 16], [8, 8, 16]] {
            let m = Mesh::new(&dims);
            for src in (0..m.num_nodes() as u32).step_by(61) {
                ab_schedule(&m, NodeId(src))
                    .validate(&m, 2)
                    .unwrap_or_else(|e| panic!("{dims:?} src {src}: {e:?}"));
            }
        }
    }

    #[test]
    fn two_d_mesh_three_steps() {
        let m = Mesh::square(8);
        for src in (0..64u32).step_by(11) {
            let s = ab_schedule(&m, NodeId(src));
            s.validate(&m, 2).unwrap();
            // 2D keeps the paper's three-step structure: source -> nearest
            // corner, nearest -> opposite, then the two serpentines. A
            // corner source collapses the first leg.
            let c = m.coord_of(NodeId(src));
            let is_corner = (c.get(0) == 0 || c.get(0) == 7) && (c.get(1) == 0 || c.get(1) == 7);
            assert_eq!(s.steps(), if is_corner { 2 } else { 3 });
        }
    }

    #[test]
    fn step1_is_adaptive_step3_is_coded() {
        let m = Mesh::cube(8);
        let s = ab_schedule(&m, NodeId(100));
        for msg in &s.messages {
            match (msg.step, &msg.plan) {
                (1, RoutePlan::Adaptive { .. }) => {}
                (2 | 3, RoutePlan::Runs(_)) => {}
                other => panic!("unexpected plan shape: step {}", other.0),
            }
        }
    }

    #[test]
    fn serpentine_chains_are_much_longer_than_db_paths() {
        let m = Mesh::new(&[16, 16, 8]);
        let ab = ab_schedule(&m, NodeId(0));
        let db = crate::db::db_schedule(&m, NodeId(0));
        // AB's step-3 serpentine chain walks every node of each half-plane:
        // its total step-3 channel demand is ~N, far above DB's row step,
        // and each plane is covered by just two chains of ~W·H/2 hops.
        let ab_step3: usize = ab
            .messages
            .iter()
            .filter(|msg| msg.step == 3)
            .map(|msg| msg.plan.hops(&m))
            .sum();
        assert!(ab_step3 >= 8 * (16 * 16 - 4), "serpentines walk the planes");
        // Each individual segment stays west-first conformable (one row + a
        // turn hop).
        for msg in ab.messages.iter().filter(|m2| m2.step == 3) {
            let RoutePlan::Runs(rp) = &msg.plan else {
                panic!()
            };
            assert!(rp.len() <= 17, "segment = row + turn hop");
        }
        // DB's longest path is a corner leg (<= (W-1)+(H-1) hops) or a
        // column/edge line -- never a half-plane walk.
        assert!(db.max_path_len(&m) <= 30);
    }

    #[test]
    fn far_fewer_messages_than_unicast_algorithms() {
        let m = Mesh::cube(8);
        let ab = ab_schedule(&m, NodeId(0));
        // 2 corner legs + ≤4 Z relays + 2 chains of H/2 segments per plane.
        assert!(ab.num_messages() <= 2 + 4 + 2 * 8 * 4);
        let rd = crate::rd::rd_schedule(&m, NodeId(0));
        assert!(ab.num_messages() * 5 < rd.num_messages());
    }

    #[test]
    fn nearest_corner_is_used() {
        let m = Mesh::cube(8);
        // Source near the (7,7) corner of plane 3.
        let src = m.node_at(&Coord::xyz(6, 7, 3));
        let s = ab_schedule(&m, src);
        let corners: Vec<Coord> = s
            .messages
            .iter()
            .filter(|msg| msg.step == 1)
            .map(|msg| match &msg.plan {
                RoutePlan::Adaptive { dst, .. } => m.coord_of(*dst),
                _ => panic!(),
            })
            .collect();
        assert!(corners.contains(&Coord::xyz(7, 7, 3)));
        assert!(corners.contains(&Coord::xyz(0, 0, 3)));
    }
}
