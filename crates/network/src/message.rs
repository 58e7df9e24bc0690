//! Message specifications and delivery records.

use serde::{Deserialize, Serialize};
use wormcast_routing::{CodedPath, RunPath};
use wormcast_sim::SimTime;
use wormcast_topology::{NodeId, Topology};

/// Identifies a message inside one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub u64);

impl MessageId {
    /// Dense index for array lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a logical operation (one broadcast, or one unicast transfer)
/// that may span several messages and steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub u64);

/// How a message finds its way to its destination(s).
#[derive(Debug, Clone)]
pub enum Route {
    /// A precomputed (possibly multidestination) coded path. Used by
    /// multicast subsets, fault detours and the torus and generalized
    /// hypercube broadcasts.
    Fixed(CodedPath),
    /// A coded path of straight runs. The engine computes each next channel
    /// from the current node and the run the header is on
    /// ([`SimTopology::step_channel`]), so the route is a `Copy` value that
    /// shares nothing; it crosses the same channels and delivers at the same
    /// nodes as the fixed route over [`RunPath::coded`]. Used by every
    /// line, Z column, serpentine segment and DOR leg of DB, AB, QAB, RD
    /// and EDN, and by the DOR unicast traffic of the mixed workloads
    /// ([`RunPath::dor`]).
    ///
    /// [`SimTopology::step_channel`]: wormcast_routing::SimTopology::step_channel
    Runs(RunPath),
    /// Hop-by-hop adaptive routing to a single destination using the
    /// network's configured routing function. Used by AB's point-to-point
    /// legs and by unicast traffic in the AB configuration.
    Adaptive {
        /// The single destination.
        dst: NodeId,
    },
}

impl Route {
    /// Every node that receives a copy of a message on this route, in path
    /// order: a fixed or run route's delivering nodes, an adaptive route's
    /// destination.
    pub fn receivers<T: Topology>(&self, topo: &T) -> Vec<NodeId> {
        match self {
            Route::Fixed(cp) => cp.receivers(topo),
            Route::Runs(rp) => rp.coded(topo).receivers(topo),
            Route::Adaptive { dst } => vec![*dst],
        }
    }
}

/// A request to send one message.
#[derive(Debug, Clone)]
pub struct MessageSpec {
    /// The source node.
    pub src: NodeId,
    /// Routing plan.
    pub route: Route,
    /// Message length in flits (header included).
    pub length: u64,
    /// The logical operation this message belongs to.
    pub op: OpId,
    /// Caller tag, e.g. the broadcast step number; echoed in deliveries.
    pub tag: u32,
    /// Whether the start-up latency Ts is charged for this message (true for
    /// every message-passing step in all four algorithms).
    pub charge_startup: bool,
}

/// One payload delivery at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// The message that delivered.
    pub message: MessageId,
    /// The logical operation it belongs to.
    pub op: OpId,
    /// The caller tag from the spec.
    pub tag: u32,
    /// The receiving node.
    pub node: NodeId,
    /// The message's source node.
    pub src: NodeId,
    /// When the injection was requested (before start-up and port queueing).
    pub requested_at: SimTime,
    /// When the last flit arrived at `node`.
    pub delivered_at: SimTime,
}

impl Delivery {
    /// End-to-end latency of this delivery, from injection request to last
    /// flit arrival.
    pub fn latency(&self) -> wormcast_sim::SimDuration {
        self.delivered_at.since(self.requested_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_latency() {
        let d = Delivery {
            message: MessageId(0),
            op: OpId(0),
            tag: 1,
            node: NodeId(5),
            src: NodeId(0),
            requested_at: SimTime::from_ps(100),
            delivered_at: SimTime::from_ps(350),
        };
        assert_eq!(d.latency().as_ps(), 250);
    }

    #[test]
    fn message_id_index() {
        assert_eq!(MessageId(9).index(), 9);
    }
}
