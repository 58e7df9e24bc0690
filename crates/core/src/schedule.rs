//! Broadcast schedules: the algorithm-independent representation of a
//! broadcast operation.
//!
//! A broadcast is a set of messages, each belonging to a *message-passing
//! step*. A node may send its scheduled messages as soon as it holds the
//! payload — i.e. immediately for the source, or upon its own delivery for
//! relay nodes — which is how asynchronous wormhole implementations of these
//! algorithms behave; the step numbers record the logical phase (and drive
//! analyses like step counting), while actual timing emerges from the
//! network simulation.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wormcast_routing::CodedPath;
use wormcast_sim::SimDuration;
use wormcast_topology::{NodeId, Topology};

/// The routing plan of one scheduled message.
#[derive(Debug, Clone)]
pub enum RoutePlan {
    /// A precomputed (possibly multidestination) coded path.
    Coded(CodedPath),
    /// An adaptively routed point-to-point leg (AB's corner legs).
    Adaptive {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
}

impl RoutePlan {
    /// The sending node.
    pub fn src(&self) -> NodeId {
        match self {
            RoutePlan::Coded(cp) => cp.src(),
            RoutePlan::Adaptive { src, .. } => *src,
        }
    }

    /// The nodes that receive a copy from this message.
    pub fn receivers<T: Topology>(&self, topo: &T) -> Vec<NodeId> {
        match self {
            RoutePlan::Coded(cp) => cp.receivers(topo),
            RoutePlan::Adaptive { dst, .. } => vec![*dst],
        }
    }

    /// Channels the message crosses: the coded path's length, or the
    /// minimal distance of an adaptive leg.
    pub fn hops<T: Topology>(&self, topo: &T) -> usize {
        match self {
            RoutePlan::Coded(cp) => cp.path.len(),
            RoutePlan::Adaptive { src, dst } => topo.distance(*src, *dst) as usize,
        }
    }
}

/// One message of a broadcast schedule.
#[derive(Debug, Clone)]
pub struct ScheduledMessage {
    /// 1-based message-passing step this message belongs to.
    pub step: u32,
    /// Where it goes and how.
    pub plan: RoutePlan,
    /// Whether the start-up latency Ts is charged for this message. `false`
    /// only for hardware-relayed continuation segments of a chained coded
    /// path (AB's serpentine dissemination), which stay within one
    /// message-passing step.
    pub charge_startup: bool,
}

impl ScheduledMessage {
    /// An ordinary step message (start-up charged).
    pub fn step_message(step: u32, plan: RoutePlan) -> Self {
        ScheduledMessage {
            step,
            plan,
            charge_startup: true,
        }
    }

    /// A hardware-relayed continuation of a chained coded path: same step,
    /// no extra start-up.
    pub fn continuation(step: u32, plan: RoutePlan) -> Self {
        ScheduledMessage {
            step,
            plan,
            charge_startup: false,
        }
    }
}

/// A complete broadcast schedule for one source node.
#[derive(Debug, Clone)]
pub struct BroadcastSchedule {
    /// The broadcast source.
    pub source: NodeId,
    /// All messages, in no particular order.
    pub messages: Vec<ScheduledMessage>,
    /// Human-readable algorithm name.
    pub algorithm: &'static str,
}

/// A validation failure found by [`BroadcastSchedule::validate`] or
/// [`validate_multicast`](crate::validate_multicast).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleError {
    /// A node would receive the payload more than once.
    DuplicateDelivery(NodeId),
    /// A node never receives the payload.
    Missed(NodeId),
    /// The source is listed as a receiver.
    DeliversToSource,
    /// A message is sent by a node that does not hold the payload by the
    /// start of that step.
    SenderWithoutPayload {
        /// The offending sender.
        node: NodeId,
        /// The step in which it is asked to send.
        step: u32,
    },
    /// Step numbers are not contiguous starting at 1.
    BadStepNumbering,
    /// A node sends more messages in one step than it has injection ports.
    FanoutExceeded {
        /// The offending sender.
        node: NodeId,
        /// The step in which the fan-out occurs.
        step: u32,
        /// Messages the node sends in that step.
        sends: usize,
    },
}

impl BroadcastSchedule {
    /// Total number of message-passing steps.
    pub fn steps(&self) -> u32 {
        self.messages.iter().map(|m| m.step).max().unwrap_or(0)
    }

    /// Total number of messages.
    pub fn num_messages(&self) -> usize {
        self.messages.len()
    }

    /// Sum of path lengths (channel crossings) over all messages — the
    /// schedule's total channel demand.
    pub fn total_channel_demand<T: Topology>(&self, topo: &T) -> usize {
        self.messages.iter().map(|m| m.plan.hops(topo)).sum()
    }

    /// The longest single path used, in hops.
    pub fn max_path_len<T: Topology>(&self, topo: &T) -> usize {
        self.messages
            .iter()
            .map(|m| m.plan.hops(topo))
            .max()
            .unwrap_or(0)
    }

    /// Zero-load latency of the schedule under the wormhole cost model:
    /// along the critical path, each step costs `Ts + hops·hop_time + L·β`
    /// with `hops` the step's longest path.
    pub fn analytic_latency<T: Topology>(
        &self,
        topo: &T,
        startup: SimDuration,
        hop_time: SimDuration,
        flit_time: SimDuration,
        length: u64,
    ) -> SimDuration {
        let steps = self.steps() as usize;
        let mut longest = vec![0u64; steps + 1];
        for m in &self.messages {
            let hops = &mut longest[m.step as usize];
            *hops = (*hops).max(m.plan.hops(topo) as u64);
        }
        let mut total = SimDuration::ZERO;
        for &hops in &longest[1..] {
            total += startup + hop_time.times(hops) + flit_time.times(length);
        }
        total
    }

    /// Check the schedule's correctness invariants:
    ///
    /// 1. every non-source node receives the payload **exactly once** and the
    ///    source never receives it;
    /// 2. every sender holds the payload before its step begins (the source
    ///    from step 1, relays from the step after their delivery);
    /// 3. step numbers are contiguous from 1;
    /// 4. no node sends more than `ports` messages in a single step.
    pub fn validate<T: Topology>(&self, topo: &T, ports: usize) -> Result<(), ScheduleError> {
        self.check(topo, |_| true, Some(ports)).map(drop)
    }

    /// The one checker behind [`BroadcastSchedule::validate`] and
    /// [`validate_multicast`](crate::validate_multicast): invariants 1–3 of
    /// `validate` with coverage demanded only of the nodes `wanted` accepts
    /// (the source never is), plus invariant 4 when `ports` is given.
    /// Returns every node's delivery step.
    pub(crate) fn check<T: Topology>(
        &self,
        topo: &T,
        wanted: impl Fn(NodeId) -> bool,
        ports: Option<usize>,
    ) -> Result<Vec<Option<u32>>, ScheduleError> {
        // Step numbering.
        let steps = self.steps();
        if steps == 0 {
            return Err(ScheduleError::BadStepNumbering);
        }
        let mut present = vec![false; steps as usize + 1];
        for m in &self.messages {
            if m.step == 0 {
                return Err(ScheduleError::BadStepNumbering);
            }
            present[m.step as usize] = true;
        }
        if !present[1..].iter().all(|&p| p) {
            return Err(ScheduleError::BadStepNumbering);
        }

        // Exactly-once delivery; record delivery step per node.
        let mut delivered: Vec<Option<u32>> = vec![None; topo.num_nodes()];
        for m in &self.messages {
            for r in m.plan.receivers(topo) {
                if r == self.source {
                    return Err(ScheduleError::DeliversToSource);
                }
                if delivered[r.index()].replace(m.step).is_some() {
                    return Err(ScheduleError::DuplicateDelivery(r));
                }
            }
        }
        for (n, got) in (0..topo.num_nodes() as u32).map(NodeId).zip(&delivered) {
            if n != self.source && got.is_none() && wanted(n) {
                return Err(ScheduleError::Missed(n));
            }
        }

        // Senders hold the payload in time, and per-step fan-out. A chained
        // continuation (no start-up) may be fed by a delivery in its own
        // step; ordinary messages need a strictly earlier one.
        let mut fanout: BTreeMap<(NodeId, u32), usize> = BTreeMap::new();
        for m in &self.messages {
            let s = m.plan.src();
            if s != self.source {
                let ok = match delivered[s.index()] {
                    Some(got) => got < m.step || (got == m.step && !m.charge_startup),
                    None => false,
                };
                if !ok {
                    return Err(ScheduleError::SenderWithoutPayload {
                        node: s,
                        step: m.step,
                    });
                }
            }
            *fanout.entry((s, m.step)).or_insert(0) += 1;
        }
        if let Some(ports) = ports {
            for ((node, step), sends) in fanout {
                if sends > ports {
                    return Err(ScheduleError::FanoutExceeded { node, step, sends });
                }
            }
        }
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_routing::{dor_path, CodedPath, Path};
    use wormcast_topology::{Coord, Mesh};

    fn unicast(m: &Mesh, step: u32, src: NodeId, dst: NodeId) -> ScheduledMessage {
        ScheduledMessage::step_message(
            step,
            RoutePlan::Coded(CodedPath::unicast(m, dor_path(m, src, dst))),
        )
    }

    /// A hand-built valid 2-step broadcast on a 1x4 mesh (line).
    fn line_schedule(m: &Mesh) -> BroadcastSchedule {
        let n = |x: u16| m.node_at(&Coord::new(&[x]));
        BroadcastSchedule {
            source: n(0),
            algorithm: "test",
            messages: vec![
                unicast(m, 1, n(0), n(2)),
                unicast(m, 2, n(0), n(1)),
                unicast(m, 2, n(2), n(3)),
            ],
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let m = Mesh::new(&[4]);
        let s = line_schedule(&m);
        assert_eq!(s.steps(), 2);
        assert_eq!(s.num_messages(), 3);
        s.validate(&m, 1).unwrap();
    }

    #[test]
    fn duplicate_delivery_detected() {
        let m = Mesh::new(&[4]);
        let mut s = line_schedule(&m);
        let n = |x: u16| m.node_at(&Coord::new(&[x]));
        s.messages.push(unicast(&m, 2, n(0), n(3)));
        assert_eq!(
            s.validate(&m, 2),
            Err(ScheduleError::DuplicateDelivery(n(3)))
        );
    }

    #[test]
    fn missed_node_detected() {
        let m = Mesh::new(&[4]);
        let mut s = line_schedule(&m);
        s.messages.pop();
        assert!(matches!(s.validate(&m, 1), Err(ScheduleError::Missed(_))));
    }

    #[test]
    fn sender_without_payload_detected() {
        let m = Mesh::new(&[4]);
        let n = |x: u16| m.node_at(&Coord::new(&[x]));
        let s = BroadcastSchedule {
            source: n(0),
            algorithm: "test",
            messages: vec![
                // n(2) sends in step 1 but only receives in step 2.
                unicast(&m, 1, n(2), n(3)),
                unicast(&m, 2, n(0), n(2)),
                unicast(&m, 1, n(0), n(1)),
            ],
        };
        assert_eq!(
            s.validate(&m, 1),
            Err(ScheduleError::SenderWithoutPayload {
                node: n(2),
                step: 1
            })
        );
    }

    #[test]
    fn same_step_relay_rejected() {
        // Receiving in step k and sending in step k is not allowed.
        let m = Mesh::new(&[4]);
        let n = |x: u16| m.node_at(&Coord::new(&[x]));
        let s = BroadcastSchedule {
            source: n(0),
            algorithm: "test",
            messages: vec![
                unicast(&m, 1, n(0), n(1)),
                unicast(&m, 1, n(1), n(2)),
                unicast(&m, 2, n(2), n(3)),
            ],
        };
        assert!(matches!(
            s.validate(&m, 1),
            Err(ScheduleError::SenderWithoutPayload { .. })
        ));
    }

    #[test]
    fn gap_in_steps_detected() {
        let m = Mesh::new(&[4]);
        let n = |x: u16| m.node_at(&Coord::new(&[x]));
        let s = BroadcastSchedule {
            source: n(0),
            algorithm: "test",
            messages: vec![
                unicast(&m, 1, n(0), n(1)),
                unicast(&m, 3, n(0), n(2)),
                unicast(&m, 3, n(1), n(3)),
            ],
        };
        assert_eq!(s.validate(&m, 2), Err(ScheduleError::BadStepNumbering));
    }

    #[test]
    fn fanout_limit_enforced() {
        let m = Mesh::new(&[4]);
        let n = |x: u16| m.node_at(&Coord::new(&[x]));
        let s = BroadcastSchedule {
            source: n(0),
            algorithm: "test",
            messages: vec![
                unicast(&m, 1, n(0), n(1)),
                unicast(&m, 1, n(0), n(2)),
                unicast(&m, 1, n(0), n(3)),
            ],
        };
        assert!(s.validate(&m, 3).is_ok());
        assert_eq!(
            s.validate(&m, 2),
            Err(ScheduleError::FanoutExceeded {
                node: n(0),
                step: 1,
                sends: 3
            })
        );
    }

    #[test]
    fn delivers_to_source_detected() {
        let m = Mesh::new(&[4]);
        let n = |x: u16| m.node_at(&Coord::new(&[x]));
        let s = BroadcastSchedule {
            source: n(1),
            algorithm: "test",
            messages: vec![ScheduledMessage::step_message(
                1,
                RoutePlan::Coded(CodedPath::gather_all(
                    &m,
                    Path::through(&m, &[n(3), n(2), n(1), n(0)]),
                )),
            )],
        };
        // n(3) isn't even the source here; but the path delivers to n(1).
        // The sender check would also fire; delivery check fires first.
        assert_eq!(s.validate(&m, 1), Err(ScheduleError::DeliversToSource));
    }

    #[test]
    fn demand_and_max_path_metrics() {
        let m = Mesh::new(&[4]);
        let s = line_schedule(&m);
        assert_eq!(s.total_channel_demand(&m), 2 + 1 + 1);
        assert_eq!(s.max_path_len(&m), 2);
    }
}
