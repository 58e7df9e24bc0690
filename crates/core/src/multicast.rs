//! Multicast — delivery to an arbitrary destination subset.
//!
//! The paper's conclusion names multicast as the natural next step for the
//! coded-path approach ("an interesting line of research would be to propose
//! multicast and broadcast algorithms"). This module provides three
//! multicast schemes sharing the [`BroadcastSchedule`] machinery (a
//! broadcast is just the special case `dests = all nodes`):
//!
//! * [`um_multicast`] — **UM**, unicast-based multicast (McKinley et al.'s
//!   U-mesh shape): recursive doubling over the *destination list* in
//!   dimension order; ⌈log₂(m+1)⌉ steps for m destinations. The natural
//!   baseline, one unicast per destination overall.
//! * [`cpr_multicast`] — **CM**, coded-path multicast in the DB style: the
//!   destination set is partitioned by plane and row; one coded path per
//!   non-empty row delivers every destination in that row in one step, with
//!   a DB-like corner/column backbone reaching each populated plane first.
//! * [`sp_multicast`] — **SP**, single-path (Hamiltonian-order) multicast in
//!   the path-based tradition of Lin & Ni: one coded path visits all
//!   destinations in boustrophedon (serpentine) order, chained row by row
//!   like AB's dissemination step; 1 logical step, longest paths.
//!
//! All three produce validated schedules executable by the standard
//! `wormcast-workload` executor.

use crate::schedule::{BroadcastSchedule, RoutePlan, ScheduleError, ScheduledMessage};
use std::collections::BTreeSet;
use wormcast_routing::{dor_path, CodedPath};
use wormcast_topology::{Coord, Mesh, NodeId, Topology};

/// Deduplicate, drop the source, and order a destination list.
fn normalize(source: NodeId, dests: &[NodeId]) -> Vec<NodeId> {
    let set: BTreeSet<NodeId> = dests.iter().copied().filter(|&d| d != source).collect();
    set.into_iter().collect()
}

/// Unicast-based multicast: recursive doubling over the destination list.
///
/// The holder set starts as `{source}`; each step every holder sends to the
/// destination at the "same relative position" of the other half of its
/// responsibility span — the U-mesh discipline, using dimension-ordered
/// paths throughout.
///
/// # Panics
/// Panics if `dests` (after removing the source and duplicates) is empty.
pub fn um_multicast(mesh: &Mesh, source: NodeId, dests: &[NodeId]) -> BroadcastSchedule {
    let dests = normalize(source, dests);
    assert!(
        !dests.is_empty(),
        "multicast needs at least one destination"
    );
    let mut messages = Vec::new();
    // Responsibility span: a slice of the sorted destination list, plus the
    // holder in charge of it.
    fn recurse(
        mesh: &Mesh,
        holder: NodeId,
        span: &[NodeId],
        step: u32,
        out: &mut Vec<ScheduledMessage>,
    ) {
        if span.is_empty() {
            return;
        }
        let mid = span.len() / 2;
        // The other half's representative receives the message this step.
        let partner = span[mid];
        out.push(ScheduledMessage::step_message(
            step,
            RoutePlan::Coded(CodedPath::unicast(mesh, dor_path(mesh, holder, partner))),
        ));
        // Holder keeps the lower half (excluding partner); partner takes the
        // upper half (excluding itself).
        recurse(mesh, holder, &span[..mid], step + 1, out);
        recurse(mesh, partner, &span[mid + 1..], step + 1, out);
    }
    recurse(mesh, source, &dests, 1, &mut messages);
    BroadcastSchedule {
        source,
        messages,
        algorithm: "UM",
    }
}

/// UM's step count for `m` destinations: ⌈log₂(m+1)⌉.
pub fn um_steps(m: usize) -> u32 {
    (usize::BITS - m.checked_add(1).expect("sane dest count").leading_zeros())
        .saturating_sub(((m + 1).is_power_of_two()) as u32)
}

/// Coded-path multicast in the DB style.
///
/// Steps: (1) the source unicasts to the anchor corner of every *populated*
/// plane's column... more precisely, to the anchor corner of its own plane;
/// (2) the anchor relays along its Z column with a selective coded path
/// delivering only at populated planes' corners; (3) each populated plane's
/// corner covers the plane's destinations row by row with selective coded
/// paths — one message per populated row, all in the same step (multiport
/// CPR router, as for DB).
///
/// # Panics
/// Panics as for [`um_multicast`]; also requires a 3D mesh.
pub fn cpr_multicast(mesh: &Mesh, source: NodeId, dests: &[NodeId]) -> BroadcastSchedule {
    assert_eq!(mesh.ndims(), 3, "cpr_multicast is defined for 3D meshes");
    let dests = normalize(source, dests);
    assert!(
        !dests.is_empty(),
        "multicast needs at least one destination"
    );
    let src_c = mesh.coord_of(source);
    let zs = src_c.get(2);
    let mut messages = Vec::new();

    // Group destinations by plane, then by row.
    let mut by_plane: std::collections::BTreeMap<u16, Vec<Coord>> = Default::default();
    for &d in &dests {
        let c = mesh.coord_of(d);
        by_plane.entry(c.get(2)).or_default().push(c);
    }

    // The backbone anchor: corner (0,0,z) of each plane.
    let anchor = |z: u16| Coord::xyz(0, 0, z);
    let a_src = anchor(zs);

    // Step 1: source -> its own plane's anchor (skip if source is there).
    if src_c != a_src {
        messages.push(ScheduledMessage::step_message(
            1,
            RoutePlan::Coded(CodedPath::unicast(
                mesh,
                dor_path(mesh, source, mesh.node_at(&a_src)),
            )),
        ));
    }

    // Step 2: Z-column relay, delivering only at populated planes (and at
    // no others). Two directions from zs.
    let populated: BTreeSet<u16> = by_plane.keys().copied().collect();
    for to in [mesh.dim_size(2) - 1, 0] {
        // Receivers: anchors of populated planes beyond zs in this
        // direction; the walk stops at the last of them.
        let z_at = |d: u16| if to > zs { zs + d } else { zs - d };
        let Some(last) = (1..=zs.abs_diff(to))
            .rev()
            .find(|&d| populated.contains(&z_at(d)))
        else {
            continue;
        };
        let walk = (1..=last).map(|d| {
            let z = z_at(d);
            (mesh.node_at(&anchor(z)), populated.contains(&z))
        });
        messages.push(ScheduledMessage::step_message(
            2,
            RoutePlan::Coded(CodedPath::selective(mesh, mesh.node_at(&a_src), walk)),
        ));
    }

    // Step 3: per populated plane, the anchor walks each populated row:
    // a selective path down column x=0 to the row, then east across it.
    for (&z, coords) in &by_plane {
        let mut rows: std::collections::BTreeMap<u16, Vec<Coord>> = Default::default();
        for &c in coords {
            rows.entry(c.get(1)).or_default().push(c);
        }
        let astart = anchor(z);
        for (&y, row_dests) in &rows {
            // Path: (0,0,z) .. (0,y,z) .. (max_x,y,z). A row's destinations
            // come in x order, as `dests` is sorted by node id.
            let max_x = row_dests.last().expect("a populated row").get(0);
            if y == 0 && max_x == 0 {
                continue; // the anchor is the row's only destination
            }
            // The destinations' x positions, the sending anchor left out.
            let mut xs = row_dests
                .iter()
                .map(|c| c.get(0))
                .filter(|&x| y > 0 || x > 0)
                .peekable();
            let walk = (1..=y)
                .map(|yy| astart.with(1, yy))
                .chain((1..=max_x).map(|x| Coord::xyz(x, y, z)))
                .map(|c| {
                    let receives = c.get(1) == y && xs.next_if_eq(&c.get(0)).is_some();
                    (mesh.node_at(&c), receives)
                });
            messages.push(ScheduledMessage::step_message(
                3,
                RoutePlan::Coded(CodedPath::selective(mesh, mesh.node_at(&astart), walk)),
            ));
        }
    }

    // Anchors that are themselves destinations already got the payload via
    // steps 1-2 only if they were receivers there; anchors of populated
    // planes were delivered in step 2 (or are the source) — but an anchor
    // that is itself a *destination* needs a recorded delivery: step 2's
    // selective path delivered it. An anchor that is NOT a destination
    // received a relay copy too (it must, to relay) — exactly-once coverage
    // therefore counts anchors as covered; prune them from `dests` checking
    // via validate_multicast below.
    compress(&mut messages);
    BroadcastSchedule {
        source,
        messages,
        algorithm: "CM",
    }
}

/// Single-path multicast: one chained coded path visits every destination in
/// serpentine scan order (plane-major, then boustrophedon rows), paying one
/// start-up total.
///
/// # Panics
/// Panics as for [`um_multicast`]; requires a 3D mesh.
pub fn sp_multicast(mesh: &Mesh, source: NodeId, dests: &[NodeId]) -> BroadcastSchedule {
    assert_eq!(mesh.ndims(), 3, "sp_multicast is defined for 3D meshes");
    let dests = normalize(source, dests);
    assert!(
        !dests.is_empty(),
        "multicast needs at least one destination"
    );
    // Scan order: z, then y, then x alternating direction per (z,y) parity —
    // a dimension-ordered chain whose segments are each DOR-legal.
    let mut ordered: Vec<Coord> = dests.iter().map(|&d| mesh.coord_of(d)).collect();
    ordered.sort_by_key(|c| {
        let (x, y, z) = (c.get(0), c.get(1), c.get(2));
        let xkey = if (y + z) % 2 == 0 {
            x as i32
        } else {
            -(x as i32)
        };
        (z, y, xkey)
    });
    let mut messages = Vec::new();
    let mut cur = source;
    for (i, c) in ordered.iter().enumerate() {
        let nxt = mesh.node_at(c);
        if nxt == cur {
            continue;
        }
        let plan = RoutePlan::Coded(CodedPath::unicast(mesh, dor_path(mesh, cur, nxt)));
        messages.push(if i == 0 {
            ScheduledMessage::step_message(1, plan)
        } else {
            // Hardware-relayed continuation: one start-up for the chain.
            ScheduledMessage::continuation(1, plan)
        });
        cur = nxt;
    }
    BroadcastSchedule {
        source,
        messages,
        algorithm: "SP",
    }
}

/// Check a multicast schedule with [`BroadcastSchedule::validate`]'s
/// checker, the destination subset as the wanted set: every destination
/// receives exactly once, no node receives twice, nothing delivers to the
/// source, senders are causal and steps are numbered from 1. No port budget
/// applies (CM fans out to every populated row of a plane in one step).
///
/// Returns the non-destination nodes that received relay copies (backbone
/// overhead), in node order.
pub fn validate_multicast(
    mesh: &Mesh,
    schedule: &BroadcastSchedule,
    dests: &[NodeId],
) -> Result<Vec<NodeId>, ScheduleError> {
    let want: BTreeSet<NodeId> = normalize(schedule.source, dests).into_iter().collect();
    let delivered = schedule.check(mesh, |n| want.contains(&n), None)?;
    Ok((0..mesh.num_nodes() as u32)
        .map(NodeId)
        .filter(|n| delivered[n.index()].is_some() && !want.contains(n))
        .collect())
}

fn compress(messages: &mut [ScheduledMessage]) {
    let used: BTreeSet<u32> = messages.iter().map(|m| m.step).collect();
    let map: std::collections::HashMap<u32, u32> = used
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32 + 1))
        .collect();
    for m in messages.iter_mut() {
        m.step = map[&m.step];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_sim::SimRng;

    fn random_dests(mesh: &Mesh, source: NodeId, m: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = SimRng::new(seed);
        let mut out = Vec::new();
        while out.len() < m {
            let d = NodeId(rng.index(mesh.num_nodes()) as u32);
            if d != source && !out.contains(&d) {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn um_covers_random_subsets() {
        let mesh = Mesh::cube(4);
        let src = NodeId(21);
        for m in [1usize, 3, 10, 30, 63] {
            let dests = random_dests(&mesh, src, m, m as u64);
            let s = um_multicast(&mesh, src, &dests);
            let extra = validate_multicast(&mesh, &s, &dests).unwrap();
            assert!(extra.is_empty(), "UM never touches non-destinations");
            assert_eq!(s.num_messages(), m, "one unicast per destination");
        }
    }

    #[test]
    fn um_step_count_is_log() {
        let mesh = Mesh::cube(8);
        let src = NodeId(0);
        for (m, expect) in [(1usize, 1u32), (3, 2), (7, 3), (15, 4), (100, 7)] {
            let dests = random_dests(&mesh, src, m, 99 + m as u64);
            let s = um_multicast(&mesh, src, &dests);
            assert_eq!(s.steps(), expect, "m={m}");
            assert_eq!(um_steps(m), expect, "um_steps({m})");
        }
    }

    #[test]
    fn cm_covers_random_subsets_in_three_steps() {
        let mesh = Mesh::cube(8);
        let src = NodeId(77);
        for m in [1usize, 5, 40, 200] {
            let dests = random_dests(&mesh, src, m, m as u64 ^ 0xC0);
            let s = cpr_multicast(&mesh, src, &dests);
            validate_multicast(&mesh, &s, &dests).unwrap_or_else(|e| panic!("m={m}: {e:?}"));
            assert!(s.steps() <= 3, "CM is a 3-step scheme, got {}", s.steps());
        }
    }

    #[test]
    fn cm_message_count_scales_with_rows_not_dests() {
        let mesh = Mesh::cube(8);
        let src = NodeId(0);
        // All 448 nodes of 7 planes as destinations: CM sends per populated
        // row (<= 8*8=64 rows + backbone), UM sends one per destination.
        let dests: Vec<NodeId> = (64..512).map(|i| NodeId(i as u32)).collect();
        let cm = cpr_multicast(&mesh, src, &dests);
        let um = um_multicast(&mesh, src, &dests);
        assert!(cm.num_messages() < 70, "CM: {}", cm.num_messages());
        assert_eq!(um.num_messages(), 448);
    }

    #[test]
    fn sp_single_startup_chain() {
        let mesh = Mesh::cube(4);
        let src = NodeId(0);
        let dests = random_dests(&mesh, src, 12, 5);
        let s = sp_multicast(&mesh, src, &dests);
        validate_multicast(&mesh, &s, &dests).unwrap();
        assert_eq!(s.steps(), 1, "one logical step");
        let startups = s.messages.iter().filter(|m| m.charge_startup).count();
        assert_eq!(startups, 1, "start-up paid once");
    }

    #[test]
    fn broadcast_is_a_multicast_special_case() {
        let mesh = Mesh::cube(4);
        let src = NodeId(33);
        let all: Vec<NodeId> = (0..64).map(NodeId).collect();
        for build in [um_multicast, cpr_multicast, sp_multicast] {
            let s = build(&mesh, src, &all);
            validate_multicast(&mesh, &s, &all).unwrap();
        }
    }

    #[test]
    fn single_destination_degenerates_to_unicast() {
        let mesh = Mesh::cube(4);
        let src = NodeId(0);
        let dests = vec![NodeId(63)];
        let um = um_multicast(&mesh, src, &dests);
        assert_eq!(um.num_messages(), 1);
        assert_eq!(um.steps(), 1);
        let sp = sp_multicast(&mesh, src, &dests);
        assert_eq!(sp.num_messages(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one destination")]
    fn empty_destination_set_rejected() {
        let mesh = Mesh::cube(4);
        let _ = um_multicast(&mesh, NodeId(0), &[NodeId(0)]);
    }

    #[test]
    fn double_delivery_is_rejected() {
        let mesh = Mesh::cube(4);
        let src = NodeId(0);
        let dests = [NodeId(5), NodeId(42)];
        let mut s = um_multicast(&mesh, src, &dests);
        validate_multicast(&mesh, &s, &dests).unwrap();
        // A second copy for NodeId(42) in the last step: the executor would
        // panic on it, so the validator must refuse it.
        s.messages.push(ScheduledMessage::step_message(
            s.steps(),
            RoutePlan::Coded(CodedPath::unicast(&mesh, dor_path(&mesh, src, NodeId(42)))),
        ));
        assert_eq!(
            validate_multicast(&mesh, &s, &dests),
            Err(ScheduleError::DuplicateDelivery(NodeId(42)))
        );
    }

    #[test]
    fn duplicate_and_source_dests_are_normalized() {
        let mesh = Mesh::cube(4);
        let src = NodeId(5);
        let dests = vec![NodeId(9), NodeId(9), src, NodeId(10)];
        let s = um_multicast(&mesh, src, &dests);
        assert_eq!(s.num_messages(), 2);
        validate_multicast(&mesh, &s, &dests).unwrap();
    }
}
