//! Queue-aware adaptive routing: the decision rule behind `Algorithm::Qab`.
//!
//! The paper's four broadcast algorithms pick output channels statically
//! (coded paths) or by fixed preference order (west-first adaptive). QAB
//! instead lets every node steer each adaptive leg toward the *least
//! backlogged* useful channel, in the spirit of backpressure broadcast
//! (Sinha–Paschos–Modiano): among the productive candidates the header takes
//! the channel with the smallest local queue depth, where a free channel has
//! depth 0 and a busy one counts 1 (the holder) plus every header already
//! waiting on it. Ties break on the raw channel index, so the choice is a
//! pure function of locally observable state and the run stays byte-identical
//! across `--jobs`.
//!
//! The candidate substrate is [`NegativeFirst`] (Glass & Ni): all productive
//! negative hops first, else the productive positive hops. Negative-first is
//! deadlock-free on any-dimensional meshes without virtual channels and keeps
//! every choice minimal, so QAB inherits AB's safety argument while widening
//! the choice set from west-first's 2D/planar turns to the full productive
//! quadrant.

use crate::{NegativeFirst, Path, RoutingFunction};
use std::collections::VecDeque;
use wormcast_topology::{ChannelId, Mesh, NodeId, Sign, Topology};

/// How an engine arbitrates among a routing function's candidates when a
/// header must pick an output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectPolicy {
    /// Grant the first *free* live candidate in preference order; if none is
    /// free, wait on the shortest queue. This is the historical behaviour of
    /// every adaptive algorithm up to AB.
    FirstFree,
    /// Grant or wait on the candidate minimising local backlog: depth 0 for
    /// a free channel, `1 + waiting headers` for a busy one, ties broken by
    /// raw channel index. QAB's rule.
    QueueAware,
}

/// QAB's channel choice: the candidate with the smallest `(depth, index)`.
///
/// `depth` must report 0 for a free channel and `1 + queue length` for a
/// busy one; the tie-break on [`ChannelId::index`] is what makes the pick
/// deterministic and engine-independent.
///
/// # Panics
/// Panics if `cands` is empty (a routing function never returns an empty
/// candidate set away from the destination).
pub fn queue_aware_pick(cands: &[ChannelId], mut depth: impl FnMut(ChannelId) -> u64) -> ChannelId {
    *cands
        .iter()
        .min_by_key(|&&c| (depth(c), c.index()))
        .expect("queue-aware pick over empty candidate set")
}

/// Minimal adaptive routing for QAB: [`NegativeFirst`] candidates with the
/// [`SelectPolicy::QueueAware`] arbitration rule.
///
/// Deadlock-free by the negative-first turn model (no virtual channels
/// needed, any number of dimensions); minimal and livelock-free because
/// every candidate is productive.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueAdaptive;

impl RoutingFunction for QueueAdaptive {
    fn candidates(
        &self,
        mesh: &Mesh,
        src: NodeId,
        cur: NodeId,
        prev: Option<(usize, Sign)>,
        dst: NodeId,
    ) -> Vec<ChannelId> {
        NegativeFirst.candidates(mesh, src, cur, prev, dst)
    }

    fn name(&self) -> &'static str {
        "queue-adaptive"
    }

    fn select_policy(&self) -> SelectPolicy {
        SelectPolicy::QueueAware
    }
}

/// A negative-first-legal path from `src` to `dst` avoiding blocked
/// channels, or `None` when the block disconnects every legal route.
///
/// QAB's counterpart of [`west_first_path_avoiding`]: where AB detours a
/// degraded link with a fixed west-first staircase, QAB replans the leg as
/// the shortest path whose hop sequence is all-negative-then-all-positive —
/// the class the negative-first turn model proves deadlock-free — so the
/// detour may leave the minimal bounding box (overshooting negative, then
/// coming back positive) but can never close a channel-dependency cycle.
///
/// Breadth-first over `(node, phase)` states (`phase` flips irrevocably on
/// the first positive hop) with dimension-ascending, minus-before-plus
/// neighbour order, so the returned path is deterministic: shortest, then
/// lexicographically first in exploration order.
///
/// [`west_first_path_avoiding`]: crate::west_first_path_avoiding
///
/// # Panics
/// Panics if `src == dst` (there is no leg to replan).
pub fn negative_first_path_avoiding(
    mesh: &Mesh,
    src: NodeId,
    dst: NodeId,
    blocked: &dyn Fn(ChannelId) -> bool,
) -> Option<Path> {
    assert_ne!(src, dst, "no path to self");
    let n = mesh.num_nodes();
    // State index: node * 2 + phase. prev[state] = (prev_state, channel).
    let mut prev: Vec<Option<(usize, ChannelId)>> = vec![None; n * 2];
    let mut seen = vec![false; n * 2];
    let start = src.index() * 2;
    seen[start] = true;
    let mut queue = VecDeque::new();
    queue.push_back(start);
    let goal = loop {
        let state = queue.pop_front()?;
        let (node, phase) = (NodeId((state / 2) as u32), state % 2);
        if node == dst {
            break state;
        }
        for dim in 0..mesh.ndims() {
            for sign in [Sign::Minus, Sign::Plus] {
                if phase == 1 && sign == Sign::Minus {
                    continue;
                }
                let Some(ch) = mesh.channel(node, dim, sign) else {
                    continue;
                };
                if blocked(ch) {
                    continue;
                }
                let to = mesh.channel_endpoints(ch).1;
                let next_phase = if sign == Sign::Minus { phase } else { 1 };
                let next = to.index() * 2 + next_phase;
                if !seen[next] {
                    seen[next] = true;
                    prev[next] = Some((state, ch));
                    queue.push_back(next);
                }
            }
        }
    };
    let mut hops = Vec::new();
    let mut state = goal;
    while let Some((from, ch)) = prev[state] {
        hops.push(ch);
        state = from;
    }
    hops.reverse();
    Some(Path { src, hops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_topology::Coord;

    fn node(m: &Mesh, x: u16, y: u16) -> NodeId {
        m.node_at(&Coord::xy(x, y))
    }

    /// A path is negative-first legal iff no negative hop follows a
    /// positive one.
    fn is_negative_first_legal(mesh: &Mesh, p: &Path) -> bool {
        let mut positive_seen = false;
        for &ch in &p.hops {
            let (_, _, sign) = mesh.channel_parts(ch);
            match sign {
                Sign::Plus => positive_seen = true,
                Sign::Minus if positive_seen => return false,
                Sign::Minus => {}
            }
        }
        true
    }

    #[test]
    fn queue_aware_pick_prefers_empty_then_lowest_index() {
        let cands = [ChannelId(7), ChannelId(3), ChannelId(9)];
        // All free: lowest raw index wins regardless of preference order.
        assert_eq!(queue_aware_pick(&cands, |_| 0), ChannelId(3));
        // One free channel beats any backlog.
        let pick = queue_aware_pick(&cands, |c| if c == ChannelId(9) { 0 } else { 4 });
        assert_eq!(pick, ChannelId(9));
        // All busy: smallest backlog, ties to the lower index.
        let pick = queue_aware_pick(&cands, |c| match c.index() {
            7 => 2,
            3 => 5,
            _ => 2,
        });
        assert_eq!(pick, ChannelId(7));
    }

    #[test]
    fn queue_adaptive_candidates_match_negative_first() {
        let m = Mesh::cube(4);
        let src = NodeId(0);
        for cur in 0..m.num_nodes() as u32 {
            for dst in 0..m.num_nodes() as u32 {
                let (cur, dst) = (NodeId(cur), NodeId(dst));
                assert_eq!(
                    QueueAdaptive.candidates(&m, src, cur, None, dst),
                    NegativeFirst.candidates(&m, src, cur, None, dst),
                );
            }
        }
    }

    #[test]
    fn unblocked_paths_are_minimal_and_legal() {
        let m = Mesh::square(4);
        let none = |_: ChannelId| false;
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                let p = negative_first_path_avoiding(&m, NodeId(s), NodeId(d), &none)
                    .expect("unblocked mesh always has a path");
                assert!(p.is_minimal(&m), "{s}->{d} not minimal");
                assert!(is_negative_first_legal(&m, &p), "{s}->{d} illegal");
                assert_eq!(p.dest(&m), NodeId(d));
            }
        }
    }

    #[test]
    fn detours_where_west_first_cannot() {
        let m = Mesh::square(4);
        // West-first movement is forced hop by hop, so a dead west link out
        // of (2,2) cuts (3,2) off from (0,2) entirely under west-first.
        // Negative-first may interleave the Y-minus dodge with the westward
        // leg and climb back up with the trailing positive hop.
        let dead = m
            .channel(node(&m, 2, 2), 0, Sign::Minus)
            .expect("west channel");
        let blocked = move |c: ChannelId| c == dead;
        assert!(
            crate::west_first_path_avoiding(&m, node(&m, 3, 2), node(&m, 0, 2), &blocked).is_none()
        );
        let p = negative_first_path_avoiding(&m, node(&m, 3, 2), node(&m, 0, 2), &blocked)
            .expect("negative-first detour exists");
        assert!(is_negative_first_legal(&m, &p));
        assert!(!p.hops.contains(&dead));
        assert_eq!(p.dest(&m), node(&m, 0, 2));
        assert_eq!(p.len(), 5, "3 west + down/up detour");
    }

    #[test]
    fn fully_cut_destination_is_unreachable() {
        let m = Mesh::square(3);
        // Sever every channel into (2,2).
        let corner = node(&m, 2, 2);
        let blocked = move |c: ChannelId| m.channel_endpoints(c).1 == corner;
        let m2 = Mesh::square(3);
        assert!(negative_first_path_avoiding(&m2, node(&m2, 0, 0), corner, &blocked).is_none());
    }
}
