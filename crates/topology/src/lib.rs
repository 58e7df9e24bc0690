//! # wormcast-topology — interconnection-network topologies
//!
//! The node/channel structure under the wormcast simulator:
//!
//! * [`Mesh`] — the k-ary n-dimensional mesh, the network the paper studies;
//! * [`Torus`] — the k-ary n-cube, from the paper's future-directions list;
//! * [`GeneralizedHypercube`] — likewise;
//! * [`partition`] — the plane/line/corner coordinate algebra the broadcast
//!   algorithms are written in.
//!
//! All topologies expose dense [`NodeId`]/[`ChannelId`] index spaces so the
//! simulator keeps per-node and per-channel state in flat arrays.

#![warn(missing_docs)]

pub mod coord;
pub mod ghc;
pub mod ids;
pub mod mesh;
pub mod partition;
pub mod torus;

pub use coord::{Coord, Sign, MAX_DIMS};
pub use ghc::GeneralizedHypercube;
pub use ids::{ChannelId, NodeId};
pub use mesh::Mesh;
pub use partition::{halves, line_nodes, mesh_corners, straight_walk, Plane};
pub use torus::Torus;

/// Common interface over direct interconnection networks.
///
/// A topology defines the node set, the directed channel set, and the
/// adjacency structure. Channel ids are dense in `0..num_channels()` so the
/// simulator can use flat per-channel state arrays (some id slots may be
/// physically absent on a mesh boundary; they are simply never used).
pub trait Topology {
    /// Total number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of dimensions.
    fn ndims(&self) -> usize;

    /// Extent of dimension `dim`.
    fn dim_size(&self, dim: usize) -> u16;

    /// The coordinate of node `n`.
    fn coord_of(&self, n: NodeId) -> Coord;

    /// The node at coordinate `c`.
    fn node_at(&self, c: &Coord) -> NodeId;

    /// The adjacent node one step from `n` along `dim` in direction `sign`,
    /// or `None` if no such neighbour exists (mesh boundary).
    fn neighbor(&self, n: NodeId, dim: usize, sign: Sign) -> Option<NodeId>;

    /// Size of the dense channel-id space.
    fn num_channels(&self) -> usize;

    /// The directed channel from `from` to `to`, if the two are adjacent.
    fn channel_between(&self, from: NodeId, to: NodeId) -> Option<ChannelId>;

    /// The (source, destination) nodes of a channel.
    fn channel_endpoints(&self, ch: ChannelId) -> (NodeId, NodeId);

    /// Length of a shortest path between two nodes, in hops.
    fn distance(&self, a: NodeId, b: NodeId) -> u32;
}
