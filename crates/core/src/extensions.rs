//! Future-directions extensions (§4 of the paper): coded-path broadcast for
//! the k-ary n-cube (torus) and the generalized hypercube.
//!
//! "A number of interconnection networks have been proposed for
//! multicomputers over the past years such as the k-ary n-cube and
//! generalised hypercube. An interesting line of research would be to
//! propose multicast and broadcast algorithms for these common topologies."
//!
//! The torus scheme generalises DB's idea directly: a wraparound **ring** is
//! a single coded path that covers a whole dimension in one message-passing
//! step, so an n-dimensional torus broadcasts in exactly **n steps** —
//! dimension by dimension, every holder covering its ring. (On real
//! wormhole hardware ring paths need an extra virtual channel to stay
//! deadlock-free, the classic dateline argument; the engine runs them under
//! facility queueing instead, see `wormcast_workload::torus`.)
//!
//! The generalized hypercube broadcasts in **n steps** too: each dimension
//! is a complete graph, so a holder covers its whole dimension-d row with
//! `k_d − 1` single-hop unicasts in one step (multiport permitting).
//!
//! Both are ordinary [`BroadcastSchedule`]s: topology-free coded paths, so
//! [`BroadcastSchedule::validate`], [`BroadcastSchedule::analytic_latency`]
//! and the workload executor take them over their own topology.

use crate::schedule::{BroadcastSchedule, RoutePlan, ScheduledMessage};
use wormcast_routing::{CodedPath, Path};
use wormcast_topology::{GeneralizedHypercube, NodeId, Topology, Torus};

/// Ring-based coded-path broadcast on a torus: one step per dimension; in
/// step `d+1` every current holder covers its whole dimension-`d` ring with
/// a single wraparound gather-all path.
pub fn torus_ring_broadcast(torus: &Torus, source: NodeId) -> BroadcastSchedule {
    let mut messages = Vec::new();
    let mut holders = vec![source];
    for dim in 0..torus.ndims() {
        let k = torus.dim_size(dim);
        let mut next = Vec::with_capacity(holders.len() * k as usize);
        for &h in &holders {
            let hc = torus.coord_of(h);
            // Walk the ring in +dim direction, wrapping, covering k-1 nodes.
            let nodes: Vec<NodeId> = (0..k)
                .map(|off| torus.node_at(&hc.with(dim, (hc.get(dim) + off) % k)))
                .collect();
            next.extend(nodes.iter().copied());
            let path = Path::through(torus, &nodes);
            messages.push(ScheduledMessage::step_message(
                dim as u32 + 1,
                RoutePlan::Coded(CodedPath::gather_all(torus, path)),
            ));
        }
        holders = next;
    }
    BroadcastSchedule {
        source,
        messages,
        algorithm: "torus-ring",
    }
}

/// Complete-graph broadcast on a generalized hypercube: one step per
/// dimension; each holder unicasts to every other position of its current
/// dimension (single-hop links).
pub fn ghc_broadcast(ghc: &GeneralizedHypercube, source: NodeId) -> BroadcastSchedule {
    let mut messages = Vec::new();
    let mut holders = vec![source];
    for dim in 0..ghc.ndims() {
        let k = ghc.dim_size(dim);
        let mut next = Vec::with_capacity(holders.len() * k as usize);
        for &h in &holders {
            let hc = ghc.coord_of(h);
            next.push(h);
            for pos in 0..k {
                if pos == hc.get(dim) {
                    continue;
                }
                let dst = ghc.node_at(&hc.with(dim, pos));
                next.push(dst);
                let path = Path::through(ghc, &[h, dst]);
                messages.push(ScheduledMessage::step_message(
                    dim as u32 + 1,
                    RoutePlan::Coded(CodedPath::unicast(ghc, path)),
                ));
            }
        }
        holders = next;
    }
    BroadcastSchedule {
        source,
        messages,
        algorithm: "ghc-fan",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleError;
    use wormcast_sim::SimDuration;
    use wormcast_topology::Coord;

    fn coded(m: &ScheduledMessage) -> &CodedPath {
        match &m.plan {
            RoutePlan::Coded(cp) => cp,
            RoutePlan::Runs(_) | RoutePlan::Adaptive { .. } => {
                panic!("extension schedules are coded paths")
            }
        }
    }

    #[test]
    fn torus_ring_covers_in_ndims_steps_with_one_port() {
        for dims in [[4u16, 4, 4], [8, 8, 8], [3, 5, 7]] {
            let t = Torus::new(&dims);
            for src in [0u32, 17] {
                let s = torus_ring_broadcast(&t, NodeId(src));
                s.validate(&t, 1)
                    .unwrap_or_else(|e| panic!("{dims:?} src {src}: {e:?}"));
                assert_eq!(s.steps(), 3);
            }
        }
    }

    #[test]
    fn torus_2d() {
        let t = Torus::kary_ncube(6, 2);
        let s = torus_ring_broadcast(&t, NodeId(13));
        s.validate(&t, 1).unwrap();
        assert_eq!(s.steps(), 2);
    }

    #[test]
    fn torus_ring_paths_wrap() {
        let t = Torus::kary_ncube(4, 1);
        let s = torus_ring_broadcast(&t, NodeId(2));
        assert_eq!(s.messages.len(), 1);
        let nodes = coded(&s.messages[0]).path.nodes(&t);
        // From node 2: 2 -> 3 -> 0 -> 1 (wrapping).
        let xs: Vec<u16> = nodes.iter().map(|&n| t.coord_of(n).get(0)).collect();
        assert_eq!(xs, vec![2, 3, 0, 1]);
    }

    #[test]
    fn torus_beats_mesh_step_count() {
        // The mesh needs 4 DB steps; a torus of the same size needs 3 ring
        // steps, and its rings are one path each.
        let t = Torus::kary_ncube(8, 3);
        let s = torus_ring_broadcast(&t, NodeId(0));
        assert_eq!(s.steps(), 3);
        assert_eq!(s.messages.len(), 1 + 8 + 64);
    }

    #[test]
    fn torus_analytic_latency_is_step_structured() {
        let t = Torus::kary_ncube(8, 3);
        let s = torus_ring_broadcast(&t, NodeId(0));
        let ts = SimDuration::from_us(1.5);
        let hop = SimDuration::from_us(0.006);
        let flit = SimDuration::from_us(0.003);
        let lat = s.analytic_latency(&t, ts, hop, flit, 100);
        // 3 steps x (1.5 + 7*0.006 + 0.3) us.
        assert_eq!(lat.as_ps(), 3 * (1_500_000 + 42_000 + 300_000));
    }

    #[test]
    fn ghc_covers_in_ndims_steps_with_max_radix_minus_one_ports() {
        let g = GeneralizedHypercube::new(&[4, 3, 5]);
        for src in [0u32, 29] {
            let s = ghc_broadcast(&g, NodeId(src));
            s.validate(&g, 4).unwrap();
            assert_eq!(s.steps(), 3);
            assert_eq!(s.messages.len(), g.num_nodes() - 1);
            // The radix-5 dimension fans out to four peers in step 3.
            assert!(matches!(
                s.validate(&g, 3),
                Err(ScheduleError::FanoutExceeded {
                    step: 3,
                    sends: 4,
                    ..
                })
            ));
        }
    }

    #[test]
    fn ghc_binary_hypercube_is_classic_sf() {
        // On Q_n the scheme degenerates to the classic dimension-by-
        // dimension spanning-binomial-tree broadcast: n steps, 2^n - 1 msgs.
        let g = GeneralizedHypercube::binary(5);
        let s = ghc_broadcast(&g, NodeId(0));
        assert_eq!(s.steps(), 5);
        assert_eq!(s.messages.len(), 31);
        s.validate(&g, 1).unwrap();
    }

    #[test]
    fn validator_catches_missed_nodes() {
        let t = Torus::kary_ncube(4, 2);
        let mut s = torus_ring_broadcast(&t, NodeId(0));
        s.messages.pop();
        assert!(matches!(s.validate(&t, 1), Err(ScheduleError::Missed(_))));
    }

    #[test]
    fn validator_catches_duplicates() {
        let t = Torus::kary_ncube(4, 1);
        let mut s = torus_ring_broadcast(&t, NodeId(0));
        let dup = s.messages[0].clone();
        s.messages.push(dup);
        assert!(matches!(
            s.validate(&t, 2),
            Err(ScheduleError::DuplicateDelivery(_))
        ));
    }

    #[test]
    fn validator_catches_causality() {
        let t = Torus::kary_ncube(4, 2);
        // A message sent in step 1 by a node that only receives in step 2.
        let sender = t.node_at(&Coord::xy(1, 1));
        let target = t.node_at(&Coord::xy(2, 1));
        let mut s = torus_ring_broadcast(&t, NodeId(0));
        // Remove target's original delivery so the extra message is not a
        // duplicate, then add the bad-causality message.
        for m in &mut s.messages {
            let cp = coded(m);
            if cp.receivers(&t).contains(&target) {
                // Rebuild this ring without delivering to target.
                let nodes = cp.path.nodes(&t);
                let walk = nodes[1..].iter().map(|&n| (n, n != target));
                let ring = CodedPath::selective(&t, nodes[0], walk);
                m.plan = RoutePlan::Coded(ring);
            }
        }
        s.messages.push(ScheduledMessage::step_message(
            1,
            RoutePlan::Coded(CodedPath::unicast(&t, Path::through(&t, &[sender, target]))),
        ));
        assert_eq!(
            s.validate(&t, 2),
            Err(ScheduleError::SenderWithoutPayload {
                node: sender,
                step: 1
            })
        );
    }
}
