//! Run paths: coded paths whose hops are computed, not stored.
//!
//! Every coded path that DB, AB, QAB, RD and EDN build is axis-aligned: a
//! row or column gather-all, a Z column, a serpentine row segment with its
//! turn hop, or a dimension-ordered unicast leg. Each is a sender, at most
//! [`MAX_RUNS`] straight [`Run`]s and a receiver rule ([`RunRule`]), so a
//! [`RunPath`] is a small `Copy` value: no hop list, no delivery mask, no
//! shared record. The engine walks it by stride
//! ([`SimTopology::step_channel`](crate::SimTopology::step_channel)), one
//! channel id by arithmetic per hop; every other reader expands it once,
//! with [`RunPath::coded`], into the [`CodedPath`] it stands for.

use crate::cpr::{CodedPath, ControlField};
use crate::path::Path;
use wormcast_topology::{Coord, NodeId, Sign, Topology};

/// The most straight runs a [`RunPath`] holds: a dimension-ordered leg in
/// three dimensions.
pub const MAX_RUNS: usize = 3;

/// One straight run: `len` hops along dimension `dim` in direction `sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    dim: u8,
    sign: Sign,
    len: u16,
}

impl Run {
    /// `len` hops along `dim` toward `sign`.
    pub fn new(dim: usize, sign: Sign, len: u16) -> Run {
        let dim = u8::try_from(dim).expect("dimension index fits a byte");
        Run { dim, sign, len }
    }

    /// The dimension the run moves along.
    pub fn dim(self) -> usize {
        self.dim.into()
    }

    /// The direction of its hops.
    pub fn sign(self) -> Sign {
        self.sign
    }

    /// Its hop count.
    pub fn len(self) -> usize {
        self.len.into()
    }

    /// Whether the run has no hops.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Where the run ends when it starts at `from`, or `None` if that is
    /// outside the coordinate range.
    pub fn end(self, from: &Coord) -> Option<Coord> {
        let (d, at) = (self.dim(), from.get(self.dim()));
        let to = match self.sign {
            Sign::Plus => at.checked_add(self.len),
            Sign::Minus => at.checked_sub(self.len),
        }?;
        Some(from.with(d, to))
    }
}

/// Which nodes of a [`RunPath`] receive. Nodes are indexed along the path,
/// 0 being the sender, which never receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunRule {
    /// `11`: every node after the sender except the one at index `skip`
    /// (a node that already holds the payload, e.g. the broadcast source).
    /// `skip == 0`, the sender's own index, skips nobody.
    GatherAll {
        /// Index of the one node passed over, or 0.
        skip: u16,
    },
    /// `00`: only the final node.
    Unicast,
}

/// A coded path of at most [`MAX_RUNS`] straight runs on a mesh: the
/// sender, the runs in travel order and the receiver rule. Expands with
/// [`RunPath::coded`] to the [`CodedPath`] with the same hops, mask and
/// control field.
///
/// # Examples
///
/// A west-to-east row gather-all that passes over the broadcast source:
///
/// ```
/// use wormcast_routing::{Run, RunPath};
/// use wormcast_topology::{Coord, Mesh, Sign, Topology};
///
/// let mesh = Mesh::square(4);
/// let (west, source) = (mesh.node_at(&Coord::xy(0, 1)), mesh.node_at(&Coord::xy(2, 1)));
/// let row = RunPath::gather_all(&mesh, west, &[Run::new(0, Sign::Plus, 3)], source).unwrap();
/// assert_eq!(row.len(), 3);
/// assert_eq!(row.coded(&mesh).deliver_mask(), [false, true, false, true]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPath {
    src: NodeId,
    /// The runs in travel order; the unused tail has empty runs.
    runs: [Run; MAX_RUNS],
    rule: RunRule,
}

impl RunPath {
    /// `runs` from `src`, empty runs dropped.
    ///
    /// # Panics
    /// Panics if more than [`MAX_RUNS`] runs have hops, if they have none
    /// at all, or if a run leaves the mesh.
    fn new<T: Topology>(topo: &T, src: NodeId, runs: &[Run], rule: RunRule) -> RunPath {
        let mut packed = [Run::new(0, Sign::Plus, 0); MAX_RUNS];
        let mut used = runs.iter().filter(|r| !r.is_empty());
        for (slot, &run) in packed.iter_mut().zip(used.by_ref()) {
            *slot = run;
        }
        assert!(
            used.next().is_none(),
            "a run path has at most {MAX_RUNS} runs"
        );
        let path = RunPath {
            src,
            runs: packed,
            rule,
        };
        assert!(!path.is_empty(), "a run path must leave the source");
        let mut at = topo.coord_of(src);
        for run in path.runs() {
            at = run
                .end(&at)
                .filter(|end| end.get(run.dim()) < topo.dim_size(run.dim()))
                .unwrap_or_else(|| panic!("run {run:?} from {at} leaves the mesh"));
        }
        path
    }

    /// A gather-all along `runs` from `src` that passes over `skip` if the
    /// path crosses it; `None` if no node would receive (the path's one
    /// other node is `skip`, or `runs` has no hops).
    ///
    /// # Panics
    /// Panics if more than [`MAX_RUNS`] runs have hops or a run leaves the
    /// mesh.
    pub fn gather_all<T: Topology>(
        topo: &T,
        src: NodeId,
        runs: &[Run],
        skip: NodeId,
    ) -> Option<RunPath> {
        if runs.iter().all(|r| r.is_empty()) {
            return None;
        }
        let mut path = RunPath::new(topo, src, runs, RunRule::GatherAll { skip: 0 });
        let skip = index_on(&topo.coord_of(src), path.runs(), &topo.coord_of(skip));
        path.rule = RunRule::GatherAll { skip };
        (path.num_receivers() > 0).then_some(path)
    }

    /// The dimension-ordered unicast from `src` to `dst`: one run per
    /// dimension in which they differ, lowest dimension first — the hops
    /// of [`dor_path`](crate::dor_path).
    ///
    /// # Panics
    /// Panics if `src == dst` or they differ in more than [`MAX_RUNS`]
    /// dimensions.
    pub fn dor<T: Topology>(topo: &T, src: NodeId, dst: NodeId) -> RunPath {
        let (a, b) = (topo.coord_of(src), topo.coord_of(dst));
        let mut runs = [Run::new(0, Sign::Plus, 0); MAX_RUNS];
        let mut n = 0;
        for d in 0..a.ndims() {
            if let Some(sign) = Sign::towards(a.get(d), b.get(d)) {
                assert!(
                    n < MAX_RUNS,
                    "a DOR run path corrects at most {MAX_RUNS} dimensions"
                );
                runs[n] = Run::new(d, sign, a.get(d).abs_diff(b.get(d)));
                n += 1;
            }
        }
        RunPath::new(topo, src, &runs[..n], RunRule::Unicast)
    }

    /// The sending node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The runs that have hops, in travel order.
    pub fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        self.runs.iter().copied().take_while(|r| !r.is_empty())
    }

    /// The receiver rule.
    pub fn rule(&self) -> RunRule {
        self.rule
    }

    /// The header control field of the coded path this stands for.
    pub fn control(&self) -> ControlField {
        match self.rule {
            RunRule::GatherAll { .. } => ControlField::GatherAll,
            RunRule::Unicast => ControlField::Unicast,
        }
    }

    /// Channel crossings: the runs' hops together.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum()
    }

    /// Whether the path stays at its sender (never, once built).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The (dimension, sign) of hop `hop` (0 leaves the sender).
    ///
    /// # Panics
    /// Panics if `hop` is not below [`RunPath::len`].
    #[inline]
    pub fn direction(&self, hop: usize) -> (usize, Sign) {
        let mut rest = hop;
        for run in &self.runs {
            if rest < run.len() {
                return (run.dim(), run.sign);
            }
            rest -= run.len();
        }
        panic!("hop {hop} is past the end of the run path")
    }

    /// Whether the node at path index `idx` receives a copy.
    #[inline]
    pub fn receives(&self, idx: usize) -> bool {
        idx != 0
            && match self.rule {
                RunRule::GatherAll { skip } => idx != usize::from(skip),
                RunRule::Unicast => idx == self.len(),
            }
    }

    /// The receivers at path indices after `idx`: the copies a message
    /// whose header stalls at node `idx` never delivers.
    pub fn receivers_after(&self, idx: usize) -> u64 {
        let len = self.len();
        if idx >= len {
            return 0;
        }
        match self.rule {
            RunRule::GatherAll { skip } => {
                (len - idx - usize::from(usize::from(skip) > idx)) as u64
            }
            RunRule::Unicast => 1,
        }
    }

    /// How many nodes receive a copy.
    pub fn num_receivers(&self) -> usize {
        self.receivers_after(0) as usize
    }

    /// The nodes after the sender, in travel order.
    fn walk<'a, T: Topology>(&'a self, topo: &'a T) -> impl Iterator<Item = NodeId> + 'a {
        let mut at = self.src;
        self.runs()
            .flat_map(|run| std::iter::repeat_n((run.dim(), run.sign), run.len()))
            .map(move |(dim, sign)| {
                at = topo
                    .neighbor(at, dim, sign)
                    .expect("a run stays inside the mesh");
                at
            })
    }

    /// The coded path this run path stands for: the same hops, delivery
    /// mask and control field as the coded-path builders make.
    pub fn coded<T: Topology>(&self, topo: &T) -> CodedPath {
        match self.rule {
            RunRule::GatherAll { .. } => {
                let walk = self.walk(topo).enumerate();
                CodedPath::selective(
                    topo,
                    self.src,
                    walk.map(|(i, node)| (node, self.receives(i + 1))),
                )
            }
            RunRule::Unicast => {
                let mut at = self.src;
                let hops = self
                    .walk(topo)
                    .map(|node| {
                        let ch = topo
                            .channel_between(at, node)
                            .expect("a run hop is one hop");
                        at = node;
                        ch
                    })
                    .collect();
                CodedPath::unicast(
                    topo,
                    Path {
                        src: self.src,
                        hops,
                    },
                )
            }
        }
    }
}

/// The index along `runs` from `from` at which the path crosses `target`,
/// or 0 if it does not.
///
/// # Panics
/// Panics if that index does not fit a `u16`.
fn index_on(from: &Coord, runs: impl Iterator<Item = Run>, target: &Coord) -> u16 {
    let mut at = *from;
    let mut base = 0;
    for run in runs {
        let d = run.dim();
        let off = (i32::from(target.get(d)) - i32::from(at.get(d))) * run.sign.delta();
        let aligned = (0..at.ndims()).all(|e| e == d || at.get(e) == target.get(e));
        if aligned && (1..=i32::from(run.len)).contains(&off) {
            return u16::try_from(base + off as usize).expect("a skip index fits a u16");
        }
        base += run.len();
        at = run.end(&at).expect("a built run stays inside the mesh");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dor::dor_path;
    use crate::SimTopology;
    use wormcast_topology::Mesh;

    /// The coded path a run path must expand to, built the way the
    /// coded-path builders build it: from the node walk, each node flagged
    /// unless it is `skip`.
    fn reference(topo: &Mesh, src: NodeId, nodes: &[Coord], skip: NodeId) -> CodedPath {
        let walk = nodes
            .iter()
            .map(|c| topo.node_at(c))
            .map(|n| (n, n != skip));
        CodedPath::selective(topo, src, walk)
    }

    /// Every hop the engine's stride walk takes, from the sender.
    fn stride_hops(topo: &Mesh, p: &RunPath) -> Vec<wormcast_topology::ChannelId> {
        let mut at = p.src();
        (0..p.len())
            .map(|h| {
                let (dim, sign) = p.direction(h);
                let ch = SimTopology::step_channel(topo, at, dim, sign);
                at = topo.channel_endpoints(ch).1;
                ch
            })
            .collect()
    }

    #[test]
    fn one_run_row_matches_the_selective_line() {
        let m = Mesh::square(5);
        let src = m.node_at(&Coord::xy(4, 2));
        let nodes: Vec<Coord> = (0..4).rev().map(|x| Coord::xy(x, 2)).collect();
        let p = RunPath::gather_all(&m, src, &[Run::new(0, Sign::Minus, 4)], NodeId(0)).unwrap();
        assert_eq!(p.coded(&m), reference(&m, src, &nodes, NodeId(0)));
        assert_eq!(stride_hops(&m, &p), p.coded(&m).path.hops);
        assert_eq!(p.rule(), RunRule::GatherAll { skip: 0 });
    }

    #[test]
    fn hops_cross_run_boundaries_in_two_and_three_runs() {
        // 2D: a serpentine segment, row sweep east then the turn hop north.
        let m = Mesh::new(&[4, 3]);
        let src = m.node_at(&Coord::xy(0, 0));
        let runs = [Run::new(0, Sign::Plus, 3), Run::new(1, Sign::Plus, 1)];
        let p = RunPath::gather_all(&m, src, &runs, NodeId(0)).unwrap();
        let nodes = [
            Coord::xy(1, 0),
            Coord::xy(2, 0),
            Coord::xy(3, 0),
            Coord::xy(3, 1),
        ];
        assert_eq!(p.coded(&m), reference(&m, src, &nodes, NodeId(0)));
        assert_eq!(stride_hops(&m, &p), p.coded(&m).path.hops);
        assert_eq!(p.direction(2), (0, Sign::Plus));
        assert_eq!(p.direction(3), (1, Sign::Plus));

        // 3D: every DOR leg of a 4x3x5 mesh is the unicast over dor_path,
        // in one, two or three runs.
        let m = Mesh::new(&[4, 3, 5]);
        let mut by_runs = [0usize; MAX_RUNS + 1];
        for src in m.nodes() {
            for dst in m.nodes().filter(|&d| d != src) {
                let p = RunPath::dor(&m, src, dst);
                let want = CodedPath::unicast(&m, dor_path(&m, src, dst));
                assert_eq!(p.coded(&m), want, "{src}->{dst}");
                assert_eq!(stride_hops(&m, &p), want.path.hops, "{src}->{dst}");
                assert_eq!(p.control(), ControlField::Unicast);
                by_runs[p.runs().count()] += 1;
            }
        }
        assert!(by_runs[1..].iter().all(|&n| n > 0), "{by_runs:?}");
    }

    #[test]
    fn a_skipped_node_in_the_middle_or_at_the_end_does_not_receive() {
        let m = Mesh::square(5);
        let src = m.node_at(&Coord::xy(1, 0));
        let line: Vec<Coord> = (1..5).map(|y| Coord::xy(1, y)).collect();
        for skip_y in [2, 4] {
            let skip = m.node_at(&Coord::xy(1, skip_y));
            let p = RunPath::gather_all(&m, src, &[Run::new(1, Sign::Plus, 4)], skip).unwrap();
            assert_eq!(p.rule(), RunRule::GatherAll { skip: skip_y });
            let cp = p.coded(&m);
            assert_eq!(cp, reference(&m, src, &line, skip));
            assert!(!cp.receivers(&m).contains(&skip));
            assert_eq!(p.num_receivers(), 3);
        }
        // A skip the path never crosses, or at the sender, skips nobody.
        for off in [Coord::xy(2, 2), Coord::xy(1, 0)] {
            let p = RunPath::gather_all(&m, src, &[Run::new(1, Sign::Plus, 4)], m.node_at(&off));
            assert_eq!(p.unwrap().rule(), RunRule::GatherAll { skip: 0 });
        }
        // On the second run of a turn: index counts across the boundary.
        let runs = [Run::new(1, Sign::Plus, 1), Run::new(0, Sign::Plus, 3)];
        let skip = m.node_at(&Coord::xy(3, 1));
        let p = RunPath::gather_all(&m, src, &runs, skip).unwrap();
        assert_eq!(p.rule(), RunRule::GatherAll { skip: 3 });
        let nodes = [
            Coord::xy(1, 1),
            Coord::xy(2, 1),
            Coord::xy(3, 1),
            Coord::xy(4, 1),
        ];
        assert_eq!(p.coded(&m), reference(&m, src, &nodes, skip));
    }

    #[test]
    fn a_path_whose_one_other_node_is_skipped_is_not_built() {
        let m = Mesh::square(2);
        let (a, b) = (NodeId(0), NodeId(1));
        assert_eq!(
            RunPath::gather_all(&m, a, &[Run::new(0, Sign::Plus, 1)], b),
            None
        );
        assert_eq!(
            RunPath::gather_all(&m, a, &[Run::new(0, Sign::Plus, 0)], b),
            None
        );
        assert!(RunPath::gather_all(&m, a, &[Run::new(0, Sign::Plus, 1)], a).is_some());
    }

    #[test]
    fn the_unicast_rule_delivers_at_the_end_only() {
        let m = Mesh::cube(4);
        let (src, dst) = (
            m.node_at(&Coord::xyz(3, 0, 1)),
            m.node_at(&Coord::xyz(0, 2, 3)),
        );
        let p = RunPath::dor(&m, src, dst);
        assert_eq!(p.len(), 7);
        assert_eq!(p.runs().count(), 3);
        assert_eq!(p.num_receivers(), 1);
        assert!((0..7).all(|i| !p.receives(i)));
        assert!(p.receives(7));
        assert_eq!(p.coded(&m).receivers(&m), [dst]);
    }

    #[test]
    fn receivers_after_counts_what_the_mask_leaves() {
        let m = Mesh::cube(4);
        let src = m.node_at(&Coord::xyz(0, 3, 0));
        let paths = [
            RunPath::dor(&m, src, m.node_at(&Coord::xyz(2, 0, 3))),
            RunPath::gather_all(&m, src, &[Run::new(2, Sign::Plus, 3)], NodeId(0)).unwrap(),
            RunPath::gather_all(
                &m,
                src,
                &[Run::new(0, Sign::Plus, 3), Run::new(1, Sign::Minus, 1)],
                m.node_at(&Coord::xyz(2, 3, 0)),
            )
            .unwrap(),
            RunPath::gather_all(
                &m,
                src,
                &[Run::new(0, Sign::Plus, 3), Run::new(1, Sign::Minus, 1)],
                m.node_at(&Coord::xyz(3, 2, 0)),
            )
            .unwrap(),
        ];
        for p in paths {
            let cp = p.coded(&m);
            assert_eq!(cp.control, p.control());
            for idx in 0..=p.len() {
                assert_eq!(p.receives(idx), cp.deliver_mask()[idx], "{p:?} at {idx}");
                let left = cp.deliver_mask()[idx + 1..].iter().filter(|&&r| r).count();
                assert_eq!(p.receivers_after(idx), left as u64, "{p:?} after {idx}");
            }
            assert_eq!(p.num_receivers(), cp.num_receivers());
        }
    }

    #[test]
    #[should_panic(expected = "leaves the mesh")]
    fn a_run_off_the_mesh_is_rejected() {
        let m = Mesh::square(4);
        let _ = RunPath::gather_all(&m, NodeId(0), &[Run::new(0, Sign::Minus, 1)], NodeId(0));
    }

    #[test]
    #[should_panic(expected = "at most 3 runs")]
    fn a_fourth_run_is_rejected() {
        let m = Mesh::square(4);
        let runs = [
            Run::new(0, Sign::Plus, 1),
            Run::new(1, Sign::Plus, 1),
            Run::new(0, Sign::Plus, 1),
            Run::new(1, Sign::Plus, 1),
        ];
        let _ = RunPath::gather_all(&m, NodeId(0), &runs, NodeId(0));
    }

    #[test]
    #[should_panic(expected = "must leave the source")]
    fn a_dor_path_to_self_is_rejected() {
        let m = Mesh::square(4);
        let _ = RunPath::dor(&m, NodeId(5), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "at most 3 dimensions")]
    fn a_dor_path_over_four_dimensions_is_rejected() {
        let m = Mesh::new(&[2, 2, 2, 2]);
        let _ = RunPath::dor(&m, NodeId(0), NodeId(15));
    }

    #[test]
    fn a_run_path_is_small() {
        assert!(std::mem::size_of::<RunPath>() <= 24);
    }
}
