//! # wormcast-routing — wormhole routing disciplines
//!
//! The routing layer between topology and simulator:
//!
//! * [`dor`] — deterministic dimension-ordered (e-cube) routing, the
//!   substrate of the RD, EDN and DB broadcast algorithms;
//! * [`turn`] — Glass & Ni turn-model adaptive routing (west-first and
//!   friends) and Chiu's odd-even model, the substrate of AB;
//! * [`cpr`] — coded-path routing: multidestination paths whose header
//!   control field makes intermediate routers absorb-and-forward;
//! * [`runs`] — run paths: the axis-aligned coded paths as at most three
//!   straight runs and a receiver rule, walked by stride;
//! * [`path`] — the concrete [`Path`] type and its invariants.
//!
//! Deterministic algorithms are exposed both as path *constructors* (for
//! precomputed coded paths) and as [`RoutingFunction`]s (for hop-by-hop
//! decisions inside the simulator, where adaptive algorithms pick among the
//! returned candidates based on live channel state).

#![warn(missing_docs)]

pub mod cpr;
pub mod dor;
pub mod path;
pub mod qab;
pub mod runs;
pub mod turn;

pub use cpr::{CodedPath, ControlField};
pub use dor::{dor_path, hop_dim_sign, is_dor_legal};
pub use path::Path;
pub use qab::{negative_first_path_avoiding, queue_aware_pick, QueueAdaptive, SelectPolicy};
pub use runs::{Run, RunPath, RunRule, MAX_RUNS};
pub use turn::{
    is_planar_west_first_legal, is_west_first_legal, planar_west_first_path_avoiding,
    west_first_path, west_first_path_avoiding, DimensionOrdered, NegativeFirst, OddEven,
    PlanarWestFirst, WestFirst,
};

#[cfg(test)]
mod torus_dor_tests {
    use super::*;
    use wormcast_topology::Coord;

    #[test]
    fn takes_the_wrap_when_shorter() {
        let t = Torus::kary_ncube(8, 2);
        let rf = TorusDor;
        let src = t.node_at(&Coord::xy(0, 0));
        let dst = t.node_at(&Coord::xy(7, 0));
        let c = rf.candidates(&t, src, src, None, dst);
        assert_eq!(c.len(), 1);
        let (_, to) = t.channel_endpoints(c[0]);
        assert_eq!(t.coord_of(to), Coord::xy(7, 0), "one wrap hop");
    }

    #[test]
    fn minimal_everywhere() {
        let t = Torus::kary_ncube(5, 2);
        let rf = TorusDor;
        for s in 0..25u32 {
            for d in 0..25u32 {
                let (src, dst) = (NodeId(s), NodeId(d));
                if src == dst {
                    continue;
                }
                let mut cur = src;
                let mut hops = 0;
                while cur != dst {
                    let c = rf.candidates(&t, src, cur, None, dst);
                    assert_eq!(c.len(), 1);
                    cur = t.channel_endpoints(c[0]).1;
                    hops += 1;
                    assert!(hops <= 10, "{s}->{d} livelock");
                }
                assert_eq!(hops, t.distance(src, dst), "{s}->{d}");
            }
        }
    }

    #[test]
    fn empty_at_destination() {
        let t = Torus::kary_ncube(4, 3);
        let rf = TorusDor;
        assert!(rf
            .candidates(&t, NodeId(5), NodeId(5), None, NodeId(5))
            .is_empty());
    }
}

use wormcast_topology::{ChannelId, Mesh, NodeId, Sign, Topology, Torus};

/// A topology the wormhole engine can simulate: a [`Topology`] whose hops
/// carry (dimension, sign) metadata for turn-sensitive routing functions.
pub trait SimTopology: Topology {
    /// The (dimension, sign) of a directed channel's hop.
    fn hop_direction(&self, ch: ChannelId) -> (usize, Sign);

    /// The channel leaving `cur` along `dim` toward `sign`, computed from
    /// the ids alone: one stride of a straight run ([`RunPath`]), whose
    /// caller knows the channel exists.
    fn step_channel(&self, cur: NodeId, dim: usize, sign: Sign) -> ChannelId;

    /// The far end, dimension and sign of channel `ch`, which leaves
    /// `from`: what a header learns by crossing it. The default decodes the
    /// channel id ([`Topology::channel_endpoints`] and
    /// [`hop_direction`](Self::hop_direction)); a topology that can start
    /// from `from` instead overrides it.
    fn cross(&self, from: NodeId, ch: ChannelId) -> (NodeId, usize, Sign) {
        let (at, to) = self.channel_endpoints(ch);
        debug_assert_eq!(at, from, "channel {ch} does not leave {from}");
        let (dim, sign) = self.hop_direction(ch);
        (to, dim, sign)
    }
}

impl SimTopology for Mesh {
    fn hop_direction(&self, ch: ChannelId) -> (usize, Sign) {
        let (_, dim, sign) = self.channel_parts(ch);
        (dim, sign)
    }

    fn step_channel(&self, cur: NodeId, dim: usize, sign: Sign) -> ChannelId {
        Mesh::step_channel(self, cur, dim, sign)
    }

    #[inline]
    fn cross(&self, from: NodeId, ch: ChannelId) -> (NodeId, usize, Sign) {
        Mesh::cross(self, from, ch)
    }
}

impl SimTopology for Torus {
    fn hop_direction(&self, ch: ChannelId) -> (usize, Sign) {
        let (_, dim, sign) = self.channel_parts(ch);
        (dim, sign)
    }

    fn step_channel(&self, cur: NodeId, dim: usize, sign: Sign) -> ChannelId {
        self.channel(cur, dim, sign)
    }
}

/// A wormhole routing function over topology `T`: the set of output channels
/// a header may take at `cur` en route from `src` to `dst`.
///
/// Returns candidates in preference order; an empty vector means `cur == dst`
/// (deliver here). Implementations must be **productive** (every candidate
/// strictly decreases the distance to `dst`) and **connected** (non-empty
/// whenever `cur != dst`), which together guarantee minimal, livelock-free
/// routing; deadlock freedom is each implementation's documented argument.
///
/// `prev` carries the (dimension, sign) of the hop that brought the header to
/// `cur`, for turn-sensitive models; `None` at the source. The default type
/// parameter keeps `dyn RoutingFunction` meaning "a mesh routing function".
///
/// Routing functions are `Send + Sync` (they are stateless lookup tables in
/// practice) so a network owning one can move across threads in the
/// replication harness.
pub trait RoutingFunction<T: SimTopology = Mesh>: Send + Sync {
    /// Legal productive output channels at `cur`, in preference order.
    fn candidates(
        &self,
        topo: &T,
        src: NodeId,
        cur: NodeId,
        prev: Option<(usize, Sign)>,
        dst: NodeId,
    ) -> Vec<ChannelId>;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// How the engine arbitrates among [`candidates`](Self::candidates)
    /// when a header needs an output channel. Defaults to the historical
    /// first-free-in-preference-order rule; QAB overrides this with the
    /// backlog-minimising [`SelectPolicy::QueueAware`].
    fn select_policy(&self) -> SelectPolicy {
        SelectPolicy::FirstFree
    }
}

/// Shortest-way dimension-ordered routing on the torus: corrects dimensions
/// in increasing order, taking the wrap direction when it is strictly
/// shorter (ties go to `Plus` for determinism).
///
/// Minimal and livelock-free; on a torus the wrap links close channel-
/// dependency cycles, so this function is **only deadlock-free under the
/// facility-queueing release mode** (no blocking-in-place) or with dateline
/// virtual channels, which this engine does not model. The torus runners
/// assert facility mode accordingly.
#[derive(Debug, Clone, Copy, Default)]
pub struct TorusDor;

impl RoutingFunction<Torus> for TorusDor {
    fn candidates(
        &self,
        topo: &Torus,
        _src: NodeId,
        cur: NodeId,
        _prev: Option<(usize, Sign)>,
        dst: NodeId,
    ) -> Vec<ChannelId> {
        let cc = topo.coord_of(cur);
        let cd = topo.coord_of(dst);
        for dim in 0..topo.ndims() {
            let (a, b) = (cc.get(dim) as i32, cd.get(dim) as i32);
            if a == b {
                continue;
            }
            let k = topo.dim_size(dim) as i32;
            let fwd = (b - a).rem_euclid(k); // hops going Plus
            let bwd = (a - b).rem_euclid(k); // hops going Minus
            let sign = if fwd <= bwd { Sign::Plus } else { Sign::Minus };
            return vec![topo.channel(cur, dim, sign)];
        }
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "torus-dor"
    }
}
