//! The k-ary n-dimensional mesh — the paper's network under study.

use crate::coord::{Coord, Sign, MAX_DIMS};
use crate::ids::{ChannelId, NodeId};
use crate::Topology;
use serde::{Deserialize, Serialize};

/// An n-dimensional mesh with per-dimension radices `dims`, e.g. `[8, 8, 8]`
/// for the paper's 8×8×8 network. Nodes are numbered row-major with dimension
/// 0 varying fastest. Channels are bidirectional links modelled as a pair of
/// directed channels.
///
/// # Examples
///
/// ```
/// use wormcast_topology::{Coord, Mesh, Topology};
///
/// let mesh = Mesh::cube(8); // the paper's 512-node network
/// assert_eq!(mesh.num_nodes(), 512);
///
/// let n = mesh.node_at(&Coord::xyz(3, 4, 5));
/// assert_eq!(mesh.coord_of(n), Coord::xyz(3, 4, 5));
/// assert_eq!(mesh.distance(n, mesh.node_at(&Coord::xyz(0, 0, 0))), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    dims: Vec<u16>,
    /// Row-major strides: strides[d] = product of dims[0..d].
    strides: Vec<u32>,
    num_nodes: u32,
}

impl Mesh {
    /// Build a mesh with the given per-dimension sizes.
    ///
    /// # Panics
    /// Panics if `dims` is empty, any dimension is zero, more than
    /// [`MAX_DIMS`] dimensions are requested, or the node count overflows u32.
    pub fn new(dims: &[u16]) -> Self {
        assert!(!dims.is_empty(), "mesh needs at least one dimension");
        assert!(
            dims.len() <= MAX_DIMS,
            "mesh supports at most {MAX_DIMS} dimensions"
        );
        assert!(
            dims.iter().all(|&d| d >= 1),
            "every dimension must be at least 1"
        );
        let mut strides = Vec::with_capacity(dims.len());
        let mut acc: u64 = 1;
        for &d in dims {
            strides.push(acc as u32);
            acc *= d as u64;
            assert!(acc <= u32::MAX as u64, "mesh too large for u32 node ids");
        }
        Mesh {
            dims: dims.to_vec(),
            strides,
            num_nodes: acc as u32,
        }
    }

    /// The classic square/cubic meshes used by the paper, e.g. `cube(8)` for
    /// 8×8×8.
    pub fn cube(side: u16) -> Self {
        Mesh::new(&[side, side, side])
    }

    /// A square 2D mesh.
    pub fn square(side: u16) -> Self {
        Mesh::new(&[side, side])
    }

    /// Per-dimension sizes.
    pub fn dims(&self) -> &[u16] {
        &self.dims
    }

    /// Directed channels per node (2 per dimension; edge nodes have fewer
    /// valid ones, but the id space is uniform).
    #[inline]
    fn chans_per_node(&self) -> u32 {
        2 * self.dims.len() as u32
    }

    /// The direction slot of a directed channel id: `2*dim + (0|1)`.
    #[inline]
    fn dir_slot(dim: usize, sign: Sign) -> u32 {
        2 * dim as u32
            + match sign {
                Sign::Plus => 0,
                Sign::Minus => 1,
            }
    }

    /// The directed channel leaving `from` along `dim` in direction `sign`,
    /// if that neighbour exists.
    pub fn channel(&self, from: NodeId, dim: usize, sign: Sign) -> Option<ChannelId> {
        self.neighbor(from, dim, sign)?;
        Some(self.step_channel(from, dim, sign))
    }

    /// The directed channel leaving `from` along `dim` toward `sign`, by
    /// arithmetic alone: for a caller that knows the neighbour exists, such
    /// as a walk along a straight run that stays inside the mesh.
    #[inline]
    pub fn step_channel(&self, from: NodeId, dim: usize, sign: Sign) -> ChannelId {
        debug_assert!(
            self.neighbor(from, dim, sign).is_some(),
            "no channel leaves {from} along {dim} {sign:?}"
        );
        ChannelId(from.0 * self.chans_per_node() + Self::dir_slot(dim, sign))
    }

    /// The far end, dimension and sign of channel `ch`, which leaves
    /// `from`: [`channel_endpoints`](Topology::channel_endpoints) and
    /// [`channel_parts`](Self::channel_parts) by multiplication and one
    /// stride instead of division, for a caller that knows where the
    /// channel starts, such as a header crossing it.
    #[inline]
    pub fn cross(&self, from: NodeId, ch: ChannelId) -> (NodeId, usize, Sign) {
        let slot = ch.0.wrapping_sub(from.0 * self.chans_per_node());
        debug_assert!(
            slot < self.chans_per_node(),
            "channel {ch} does not leave {from}"
        );
        let dim = (slot >> 1) as usize;
        let stride = self.strides[dim];
        let (to, sign) = if slot & 1 == 0 {
            (from.0 + stride, Sign::Plus)
        } else {
            (from.0 - stride, Sign::Minus)
        };
        debug_assert!(
            self.neighbor(from, dim, sign) == Some(NodeId(to)),
            "channel {ch} falls off the mesh boundary"
        );
        (NodeId(to), dim, sign)
    }

    /// Decompose a channel id into (source node, dimension, sign).
    pub fn channel_parts(&self, ch: ChannelId) -> (NodeId, usize, Sign) {
        let per = self.chans_per_node();
        let node = NodeId(ch.0 / per);
        let slot = ch.0 % per;
        let dim = (slot / 2) as usize;
        let sign = if slot.is_multiple_of(2) {
            Sign::Plus
        } else {
            Sign::Minus
        };
        (node, dim, sign)
    }

    /// Whether `ch` denotes a physically present link (edge nodes have id
    /// slots for links that fall off the mesh boundary).
    pub fn channel_exists(&self, ch: ChannelId) -> bool {
        if ch.0 >= self.num_nodes * self.chans_per_node() {
            return false;
        }
        let (node, dim, sign) = self.channel_parts(ch);
        self.neighbor(node, dim, sign).is_some()
    }

    /// Iterate over all nodes in linear order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId)
    }

    /// Iterate over all physically present directed channels.
    pub fn channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        (0..self.num_nodes * self.chans_per_node())
            .map(ChannelId)
            .filter(move |&c| self.channel_exists(c))
    }
}

impl Topology for Mesh {
    fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    fn ndims(&self) -> usize {
        self.dims.len()
    }

    fn dim_size(&self, dim: usize) -> u16 {
        self.dims[dim]
    }

    fn coord_of(&self, n: NodeId) -> Coord {
        assert!(n.0 < self.num_nodes, "node {n} out of range");
        let mut axes = [0u16; MAX_DIMS];
        let mut rest = n.0;
        for (d, &size) in self.dims.iter().enumerate() {
            axes[d] = (rest % size as u32) as u16;
            rest /= size as u32;
        }
        Coord::new(&axes[..self.dims.len()])
    }

    fn node_at(&self, c: &Coord) -> NodeId {
        assert_eq!(c.ndims(), self.dims.len(), "coordinate dims mismatch");
        let mut idx: u32 = 0;
        for (d, &size) in self.dims.iter().enumerate() {
            let v = c.get(d);
            assert!(v < size, "coordinate {c} outside mesh {:?}", self.dims);
            idx += v as u32 * self.strides[d];
        }
        NodeId(idx)
    }

    fn neighbor(&self, n: NodeId, dim: usize, sign: Sign) -> Option<NodeId> {
        assert!(dim < self.dims.len(), "dim {dim} out of range");
        assert!(n.0 < self.num_nodes, "node {n} out of range");
        let stride = self.strides[dim];
        let pos = (n.0 / stride) % self.dims[dim] as u32;
        match sign {
            Sign::Plus => (pos + 1 < self.dims[dim] as u32).then(|| NodeId(n.0 + stride)),
            Sign::Minus => (pos > 0).then(|| NodeId(n.0 - stride)),
        }
    }

    fn num_channels(&self) -> usize {
        (self.num_nodes * self.chans_per_node()) as usize
    }

    fn channel_between(&self, from: NodeId, to: NodeId) -> Option<ChannelId> {
        assert!(from.0 < self.num_nodes, "node {from} out of range");
        assert!(to.0 < self.num_nodes, "node {to} out of range");
        // Neighbours along `dim` lie one stride apart inside one block of
        // `stride * size` ids; a pair one stride apart across two blocks
        // wraps off the end of a row. Dimensions wider than one have
        // distinct strides, so at most one matches.
        let (lo, hi) = (from.0.min(to.0), from.0.max(to.0));
        let dim = (0..self.dims.len()).find(|&d| self.dims[d] > 1 && hi - lo == self.strides[d])?;
        let block = self.strides[dim] * u32::from(self.dims[dim]);
        let sign = if to.0 > from.0 {
            Sign::Plus
        } else {
            Sign::Minus
        };
        (lo / block == hi / block).then(|| self.step_channel(from, dim, sign))
    }

    fn channel_endpoints(&self, ch: ChannelId) -> (NodeId, NodeId) {
        let (node, dim, sign) = self.channel_parts(ch);
        let dst = self
            .neighbor(node, dim, sign)
            .unwrap_or_else(|| panic!("channel {ch} falls off the mesh boundary"));
        (node, dst)
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.coord_of(a).manhattan(&self.coord_of(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_roundtrip() {
        let m = Mesh::new(&[4, 3, 2]);
        assert_eq!(m.num_nodes(), 24);
        for n in m.nodes() {
            let c = m.coord_of(n);
            assert_eq!(m.node_at(&c), n);
        }
    }

    #[test]
    fn row_major_numbering() {
        let m = Mesh::new(&[4, 3]);
        assert_eq!(m.node_at(&Coord::xy(0, 0)), NodeId(0));
        assert_eq!(m.node_at(&Coord::xy(1, 0)), NodeId(1));
        assert_eq!(m.node_at(&Coord::xy(0, 1)), NodeId(4));
        assert_eq!(m.node_at(&Coord::xy(3, 2)), NodeId(11));
    }

    #[test]
    fn neighbors_interior() {
        let m = Mesh::cube(4);
        let n = m.node_at(&Coord::xyz(1, 1, 1));
        assert_eq!(
            m.neighbor(n, 0, Sign::Plus),
            Some(m.node_at(&Coord::xyz(2, 1, 1)))
        );
        assert_eq!(
            m.neighbor(n, 2, Sign::Minus),
            Some(m.node_at(&Coord::xyz(1, 1, 0)))
        );
    }

    #[test]
    fn neighbors_at_boundary_are_none() {
        let m = Mesh::square(4);
        let corner = m.node_at(&Coord::xy(0, 0));
        assert_eq!(m.neighbor(corner, 0, Sign::Minus), None);
        assert_eq!(m.neighbor(corner, 1, Sign::Minus), None);
        assert!(m.neighbor(corner, 0, Sign::Plus).is_some());
        let far = m.node_at(&Coord::xy(3, 3));
        assert_eq!(m.neighbor(far, 0, Sign::Plus), None);
        assert_eq!(m.neighbor(far, 1, Sign::Plus), None);
    }

    #[test]
    fn channel_roundtrip() {
        let m = Mesh::cube(4);
        for n in m.nodes() {
            for dim in 0..3 {
                for sign in [Sign::Plus, Sign::Minus] {
                    if let Some(ch) = m.channel(n, dim, sign) {
                        let (src, d, s) = m.channel_parts(ch);
                        assert_eq!((src, d, s), (n, dim, sign));
                        let (from, to) = m.channel_endpoints(ch);
                        assert_eq!(from, n);
                        assert_eq!(Some(to), m.neighbor(n, dim, sign));
                    }
                }
            }
        }
    }

    /// The stride arithmetic of `neighbor` and `channel_between` against
    /// the coordinate definition, on 1-wide, 1-D and 4-D shapes too.
    #[test]
    fn adjacency_matches_the_coordinate_definition() {
        let shapes = [
            Mesh::new(&[1]),
            Mesh::new(&[6]),
            Mesh::new(&[4, 3, 2]),
            Mesh::new(&[2, 1, 3]),
            Mesh::new(&[3, 2, 2, 2]),
            Mesh::cube(8),
        ];
        for m in &shapes {
            for n in m.nodes() {
                let c = m.coord_of(n);
                for dim in 0..m.ndims() {
                    for sign in [Sign::Plus, Sign::Minus] {
                        let pos = c.get(dim) as i32 + sign.delta();
                        let want = (0..m.dims()[dim] as i32)
                            .contains(&pos)
                            .then(|| m.node_at(&c.with(dim, pos as u16)));
                        assert_eq!(m.neighbor(n, dim, sign), want, "{:?} {c:?}", m.dims());
                        if let Some(ch) = m.channel(n, dim, sign) {
                            assert_eq!(m.channel_endpoints(ch), (n, want.unwrap()));
                        }
                    }
                }
            }
            if m.num_nodes() > 64 {
                continue;
            }
            for a in m.nodes() {
                for b in m.nodes() {
                    let ch = m.channel_between(a, b);
                    let adjacent = m.coord_of(a).manhattan(&m.coord_of(b)) == 1;
                    assert_eq!(ch.is_some(), adjacent, "{:?} {a} {b}", m.dims());
                    if let Some(ch) = ch {
                        assert_eq!(m.channel_endpoints(ch), (a, b));
                    }
                }
            }
        }
    }

    #[test]
    fn channel_between_adjacent() {
        let m = Mesh::square(4);
        let a = m.node_at(&Coord::xy(1, 1));
        let b = m.node_at(&Coord::xy(2, 1));
        let ch = m.channel_between(a, b).unwrap();
        assert_eq!(m.channel_endpoints(ch), (a, b));
        // Reverse direction is a distinct channel.
        let rev = m.channel_between(b, a).unwrap();
        assert_ne!(ch, rev);
        assert_eq!(m.channel_endpoints(rev), (b, a));
    }

    #[test]
    fn channel_between_non_adjacent_is_none() {
        let m = Mesh::square(4);
        let a = m.node_at(&Coord::xy(0, 0));
        let b = m.node_at(&Coord::xy(2, 0));
        assert_eq!(m.channel_between(a, b), None);
        assert_eq!(m.channel_between(a, a), None);
    }

    #[test]
    fn channel_count_matches_mesh_links() {
        // An a×b mesh has (a-1)b + a(b-1) bidirectional links = double that
        // many directed channels.
        let m = Mesh::new(&[5, 3]);
        let expect = 2 * ((4 * 3) + (5 * 2));
        assert_eq!(m.channels().count(), expect);
    }

    #[test]
    fn cube_channel_count() {
        // k^3 mesh: 3 * k^2 * (k-1) links, doubled.
        let m = Mesh::cube(4);
        assert_eq!(m.channels().count(), 2 * 3 * 16 * 3);
    }

    #[test]
    fn distance_is_manhattan() {
        let m = Mesh::cube(8);
        let a = m.node_at(&Coord::xyz(0, 0, 0));
        let b = m.node_at(&Coord::xyz(7, 7, 7));
        assert_eq!(m.distance(a, b), 21);
    }

    /// `channel_between` by probing every direction's neighbour.
    fn probed_channel_between(m: &Mesh, from: NodeId, to: NodeId) -> Option<ChannelId> {
        (0..m.ndims())
            .flat_map(|dim| [(dim, Sign::Plus), (dim, Sign::Minus)])
            .find(|&(dim, sign)| m.neighbor(from, dim, sign) == Some(to))
            .and_then(|(dim, sign)| m.channel(from, dim, sign))
    }

    #[test]
    fn channel_between_matches_probing() {
        for dims in [
            &[4, 3, 2][..],
            &[5, 5],
            &[1, 4],
            &[4, 1, 3],
            &[3, 4, 1],
            &[1],
            &[6],
        ] {
            let m = Mesh::new(dims);
            for from in m.nodes() {
                for to in m.nodes() {
                    let want = probed_channel_between(&m, from, to);
                    assert_eq!(m.channel_between(from, to), want, "{dims:?} {from}->{to}");
                    if let Some(ch) = want {
                        assert_eq!(m.channel_endpoints(ch), (from, to));
                    }
                }
            }
        }
    }

    #[test]
    fn paper_network_sizes() {
        assert_eq!(Mesh::cube(4).num_nodes(), 64);
        assert_eq!(Mesh::cube(8).num_nodes(), 512);
        assert_eq!(Mesh::cube(10).num_nodes(), 1000);
        assert_eq!(Mesh::cube(16).num_nodes(), 4096);
        assert_eq!(Mesh::new(&[4, 4, 16]).num_nodes(), 256);
        assert_eq!(Mesh::new(&[8, 8, 16]).num_nodes(), 1024);
        assert_eq!(Mesh::new(&[16, 16, 8]).num_nodes(), 2048);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dims_rejected() {
        let _ = Mesh::new(&[]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_dim_rejected() {
        let _ = Mesh::new(&[4, 0]);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn node_at_out_of_bounds_panics() {
        let m = Mesh::square(4);
        let _ = m.node_at(&Coord::xy(4, 0));
    }
}
