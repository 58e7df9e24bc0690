//! Coded-path routing (CPR) — Al-Dubai & Ould-Khaoua's multidestination
//! path-based mechanism [IPCCC 2001], the substrate of the DB and AB
//! broadcast algorithms.
//!
//! A CPR message's header flit carries a **2-bit control field** that tells
//! each router on the path what to do when the header arrives:
//!
//! * `00` (unicast) — pass through; only the path's final node receives;
//! * `10` (corner relay) — designated relay nodes (corners) receive a copy
//!   *and* keep forwarding in the same cycle; other nodes pass through;
//! * `11` (gather all) — **every** node on the path receives a copy and
//!   forwards; the message delivers to its whole path in one step.
//!
//! The absorb-and-forward capability is what lets DB cover a full row or
//! column of the mesh in a single message-passing step, and is the reason DB
//! needs only 4 steps (and AB 3) regardless of network size.

use crate::path::Path;
use serde::{Deserialize, Serialize};
use std::ops::Deref;
use std::sync::Arc;
use wormcast_topology::{NodeId, Topology};

/// The 2-bit CPR header control field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlField {
    /// `00`: plain unicast — deliver at the final node only.
    Unicast,
    /// `10`: deliver at designated relay (corner) nodes and the final node,
    /// forwarding concurrently. No path built here carries it: AB's corner
    /// legs route adaptively.
    CornerRelay,
    /// `11`: deliver at every node along the path. Used by the dissemination
    /// steps of DB and AB.
    GatherAll,
}

impl ControlField {
    /// The two on-the-wire header bits.
    pub fn bits(self) -> u8 {
        match self {
            ControlField::Unicast => 0b00,
            ControlField::CornerRelay => 0b10,
            ControlField::GatherAll => 0b11,
        }
    }

    /// Decode from header bits.
    pub fn from_bits(bits: u8) -> Option<ControlField> {
        match bits {
            0b00 => Some(ControlField::Unicast),
            0b10 => Some(ControlField::CornerRelay),
            0b11 => Some(ControlField::GatherAll),
            _ => None,
        }
    }
}

/// A multidestination message: a path plus the per-node delivery behaviour
/// derived from the control field.
///
/// `deliver_mask()[i]` says whether the i-th node of the path (index 0 =
/// source) absorbs a copy. The source never delivers to itself.
///
/// A coded path is immutable and shared: the path, the control field and
/// the delivery mask sit behind one [`Arc`], so `clone` is a reference-count
/// bump. A schedule, the compiled plans over it and every in-flight message
/// of every operation running it hold the one record; it reads through
/// [`Deref`] (`cp.path`, `cp.control`).
///
/// # Examples
///
/// A gather-all (`11`) coded path delivers to every node it crosses — the
/// mechanism that lets DB cover a whole row in one message-passing step:
///
/// ```
/// use wormcast_routing::{CodedPath, Path};
/// use wormcast_topology::{Coord, Mesh, Topology};
///
/// let mesh = Mesh::square(4);
/// let row: Vec<_> = (0..4).map(|x| mesh.node_at(&Coord::xy(x, 1))).collect();
/// let cp = CodedPath::gather_all(&mesh, Path::through(&mesh, &row));
/// assert_eq!(cp.num_receivers(), 3); // everyone after the source
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedPath(Arc<CodedRecord>);

/// What a [`CodedPath`] shares.
#[derive(Debug, PartialEq, Eq)]
pub struct CodedRecord {
    /// The physical route.
    pub path: Path,
    /// The header control field.
    pub control: ControlField,
    /// Delivery mask, aligned with `path.nodes()`.
    deliver: Vec<bool>,
}

impl Deref for CodedPath {
    type Target = CodedRecord;

    fn deref(&self) -> &CodedRecord {
        &self.0
    }
}

/// The path from `src` along `walk`, the nodes it visits after `src` in
/// order, with its delivery mask: the source never receives, and each later
/// node as its flag says. One pass, one channel lookup per hop.
///
/// # Panics
/// Panics if consecutive nodes are not adjacent.
fn walk_path<T: Topology>(
    topo: &T,
    src: NodeId,
    walk: impl IntoIterator<Item = (NodeId, bool)>,
) -> (Path, Vec<bool>) {
    let walk = walk.into_iter();
    let mut hops = Vec::with_capacity(walk.size_hint().0);
    let mut deliver = Vec::with_capacity(walk.size_hint().0 + 1);
    deliver.push(false);
    let mut at = src;
    for (node, receives) in walk {
        hops.push(
            topo.channel_between(at, node)
                .unwrap_or_else(|| panic!("nodes {at} and {node} are not adjacent")),
        );
        deliver.push(receives);
        at = node;
    }
    (Path { src, hops }, deliver)
}

impl CodedPath {
    fn new(path: Path, control: ControlField, deliver: Vec<bool>) -> CodedPath {
        CodedPath(Arc::new(CodedRecord {
            path,
            control,
            deliver,
        }))
    }

    /// A `00`-coded unicast: deliver at the final node only.
    ///
    /// # Panics
    /// Panics if the path is empty (a message to self is not a message).
    pub fn unicast<T: Topology>(_topo: &T, path: Path) -> CodedPath {
        assert!(!path.is_empty(), "unicast path must leave the source");
        let mut deliver = vec![false; path.len() + 1];
        deliver[path.len()] = true;
        CodedPath::new(path, ControlField::Unicast, deliver)
    }

    /// An `11`-coded gather-all: every node after the source receives.
    ///
    /// # Panics
    /// Panics if the path is empty.
    pub fn gather_all<T: Topology>(_topo: &T, path: Path) -> CodedPath {
        assert!(!path.is_empty(), "gather-all path must leave the source");
        let mut deliver = vec![true; path.len() + 1];
        deliver[0] = false;
        CodedPath::new(path, ControlField::GatherAll, deliver)
    }

    /// A coded path with an explicit receiver set, from `src` along `walk`
    /// (the nodes after `src`, each flagged whether it receives): deliver at
    /// exactly the flagged nodes. The final node need *not* receive — used
    /// when a dissemination path runs past a node that already holds the
    /// payload, e.g. the broadcast source. Encoded on the wire as `11` with
    /// per-hop skip marks.
    ///
    /// # Panics
    /// Panics if `walk` is empty, no node is flagged, or consecutive nodes
    /// are not adjacent.
    pub fn selective<T: Topology>(
        topo: &T,
        src: NodeId,
        walk: impl IntoIterator<Item = (NodeId, bool)>,
    ) -> CodedPath {
        let (path, deliver) = walk_path(topo, src, walk);
        assert!(!path.is_empty(), "selective path must leave the source");
        assert!(deliver.contains(&true), "selective path needs receivers");
        CodedPath::new(path, ControlField::GatherAll, deliver)
    }

    /// Delivery mask aligned with `path.nodes()`.
    pub fn deliver_mask(&self) -> &[bool] {
        &self.deliver
    }

    /// The nodes that receive a copy of this message, in path order.
    pub fn receivers<T: Topology>(&self, topo: &T) -> Vec<NodeId> {
        self.path
            .nodes(topo)
            .into_iter()
            .zip(&self.deliver)
            .filter_map(|(n, &d)| d.then_some(n))
            .collect()
    }

    /// Number of receivers.
    pub fn num_receivers(&self) -> usize {
        self.deliver.iter().filter(|&&d| d).count()
    }

    /// The source node.
    pub fn src(&self) -> NodeId {
        self.path.src
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_topology::{Coord, Mesh};

    fn row_path(m: &Mesh) -> Path {
        Path::through(
            m,
            &(0..4)
                .map(|x| m.node_at(&Coord::xy(x, 1)))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn control_field_bits_roundtrip() {
        for cf in [
            ControlField::Unicast,
            ControlField::CornerRelay,
            ControlField::GatherAll,
        ] {
            assert_eq!(ControlField::from_bits(cf.bits()), Some(cf));
        }
        assert_eq!(ControlField::from_bits(0b01), None);
    }

    #[test]
    fn unicast_delivers_only_at_end() {
        let m = Mesh::square(4);
        let cp = CodedPath::unicast(&m, row_path(&m));
        assert_eq!(cp.num_receivers(), 1);
        assert_eq!(cp.receivers(&m), vec![m.node_at(&Coord::xy(3, 1))]);
    }

    #[test]
    fn gather_all_delivers_everywhere_but_source() {
        let m = Mesh::square(4);
        let cp = CodedPath::gather_all(&m, row_path(&m));
        assert_eq!(cp.num_receivers(), 3);
        let rx = cp.receivers(&m);
        assert!(!rx.contains(&m.node_at(&Coord::xy(0, 1))));
        assert!(rx.contains(&m.node_at(&Coord::xy(1, 1))));
        assert!(rx.contains(&m.node_at(&Coord::xy(3, 1))));
    }

    /// The walk along row 1 after its west end, flagging the columns in
    /// `rx`.
    fn row_walk<'a>(m: &'a Mesh, rx: &'a [u16]) -> impl Iterator<Item = (NodeId, bool)> + 'a {
        (1..4).map(move |x| (m.node_at(&Coord::xy(x, 1)), rx.contains(&x)))
    }

    fn row_src(m: &Mesh) -> NodeId {
        m.node_at(&Coord::xy(0, 1))
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn walk_that_jumps_rejected() {
        let m = Mesh::square(4);
        let far = m.node_at(&Coord::xy(2, 1));
        let _ = CodedPath::selective(&m, row_src(&m), [(far, true)]);
    }

    #[test]
    fn selective_delivers_exactly_listed() {
        let m = Mesh::square(4);
        let cp = CodedPath::selective(&m, row_src(&m), row_walk(&m, &[1, 2]));
        assert_eq!(cp.path, row_path(&m));
        assert_eq!(cp.control, ControlField::GatherAll);
        let rx = [m.node_at(&Coord::xy(1, 1)), m.node_at(&Coord::xy(2, 1))];
        assert_eq!(cp.receivers(&m), rx.to_vec());
        // Final node (3,1) does NOT receive.
        assert_eq!(cp.deliver_mask(), [false, true, true, false]);
    }

    #[test]
    fn selective_flagging_all_is_gather_all() {
        let m = Mesh::square(4);
        let cp = CodedPath::selective(&m, row_src(&m), row_walk(&m, &[1, 2, 3]));
        assert_eq!(cp, CodedPath::gather_all(&m, row_path(&m)));
    }

    #[test]
    #[should_panic(expected = "needs receivers")]
    fn selective_empty_receivers_rejected() {
        let m = Mesh::square(4);
        let _ = CodedPath::selective(&m, row_src(&m), row_walk(&m, &[]));
    }

    #[test]
    fn clones_share_one_record() {
        let m = Mesh::square(4);
        let cp = CodedPath::gather_all(&m, row_path(&m));
        let twin = cp.clone();
        assert!(Arc::ptr_eq(&cp.0, &twin.0));
        assert_eq!(cp.deliver_mask().as_ptr(), twin.deliver_mask().as_ptr());
    }

    #[test]
    #[should_panic(expected = "must leave the source")]
    fn empty_path_rejected() {
        let m = Mesh::square(4);
        let p = Path::through(&m, &[m.node_at(&Coord::xy(0, 0))]);
        let _ = CodedPath::unicast(&m, p);
    }
}
