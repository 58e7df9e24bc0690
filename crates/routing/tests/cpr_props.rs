//! Property tests for the CPR header encoding and for the central CPR
//! use-case: the DB schedule's coded paths must partition the mesh —
//! every non-source node is delivered to by exactly one path, on
//! arbitrary 2D/3D mesh shapes (not just the paper's cubes).
//!
//! `wormcast-broadcast` is a dev-dependency here (a cargo-legal cycle):
//! the schedule builders are the consumers the CPR contract exists for.

use proptest::prelude::{prop_assert, prop_assert_eq, ProptestConfig};
use wormcast_broadcast::db::db_schedule;
use wormcast_broadcast::schedule::RoutePlan;
use wormcast_routing::ControlField;
use wormcast_topology::{Mesh, NodeId, Topology};

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every valid control field survives an encode/decode roundtrip, and
    /// the wire image really is 2 bits.
    #[test]
    fn control_field_roundtrips(raw in 0u8..=255) {
        for cf in [ControlField::Unicast, ControlField::CornerRelay, ControlField::GatherAll] {
            prop_assert_eq!(ControlField::from_bits(cf.bits()), Some(cf));
            prop_assert!(cf.bits() <= 0b11);
        }
        // Decoding is total on u8: anything outside the three defined
        // patterns (00, 10, 11) is rejected, never aliased.
        match ControlField::from_bits(raw) {
            Some(cf) => prop_assert_eq!(cf.bits(), raw),
            None => prop_assert!(raw != 0b00 && raw != 0b10 && raw != 0b11),
        }
    }

    /// DB on an arbitrary 2D mesh shape: the coded paths' receiver sets
    /// partition the non-source nodes — each covered exactly once.
    #[test]
    fn db_coded_paths_cover_each_node_exactly_once_2d(
        w in 2u16..=9,
        h in 2u16..=9,
        src_raw in 0u32..1_000_000,
    ) {
        check_exactly_once(&Mesh::new(&[w, h]), src_raw);
    }

    /// Same property on arbitrary 3D shapes, including degenerate Z = 1.
    #[test]
    fn db_coded_paths_cover_each_node_exactly_once_3d(
        w in 2u16..=6,
        h in 2u16..=6,
        d in 1u16..=6,
        src_raw in 0u32..1_000_000,
    ) {
        check_exactly_once(&Mesh::new(&[w, h, d]), src_raw);
    }
}

/// Count, per node, how many of the schedule's route plans deliver there;
/// assert source 0 / everyone else exactly 1, and that the step count stays
/// within DB's constant bound of 4.
fn check_exactly_once(mesh: &Mesh, src_raw: u32) {
    let source = NodeId(src_raw % mesh.num_nodes() as u32);
    let s = db_schedule(mesh, source);
    let mut hits = vec![0u32; mesh.num_nodes()];
    for m in &s.messages {
        // DB is built entirely from run paths; AB is the only adaptive user.
        prop_assert!(matches!(m.plan, RoutePlan::Runs(_)));
        for r in m.plan.receivers(mesh) {
            hits[r.0 as usize] += 1;
        }
    }
    for (i, &h) in hits.iter().enumerate() {
        let expect = if NodeId(i as u32) == source { 0 } else { 1 };
        prop_assert_eq!(h, expect, "node {} on {:?} from {:?}", i, mesh, source);
    }
    prop_assert!(s.steps() <= 4);
}
