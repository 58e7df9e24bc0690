//! The delay-lane future-event list: the exact deterministic ordering of
//! [`crate::queue::EventQueue`] at O(1) cost per event for the fixed delays
//! a wormhole engine schedules with.
//!
//! The paper's simulator charges a handful of fixed delays: a hop costs one
//! routing decision plus one flit time, a copy drains in L·β, start-up costs
//! Ts, and a port or channel handoff costs nothing. [`LaneQueue`] keeps one
//! FIFO **lane** per distinct relative delay `at − now`, and a small binary
//! heap for everything else: events scheduled at an arbitrary absolute time
//! ([`LaneQueue::schedule_at`] with `at > now`: the fault, speed and phase
//! schedules and future injections), and relative delays that find no lane.
//!
//! Why a FIFO is enough. The clock never goes backwards and the insertion
//! sequence number only grows, so two events scheduled with the same delay
//! arrive in `(time, seq)` order: the later one is due no earlier and was
//! scheduled later. A lane therefore never sorts, shifts or migrates
//! anything; it appends at the back and pops at the front.
//!
//! Events pop in `(time, seq)` order — the same total order as the heap
//! queue, where `seq` is the global insertion sequence number — by taking
//! the least key among the lane heads and the heap top. So two events at
//! the same instant still fire in the order they were scheduled, whichever
//! lane or heap holds them, and a run driven by this queue is bit-identical
//! to one driven by the heap. The head keys sit in one flat array and the
//! least lane is cached, so a peek is O(1) and a pop rescans only the few
//! head keys.
//!
//! The lane table has a fixed size. A delay takes the lane bound to it, or
//! binds a lane no delay holds yet, or rebinds an empty lane; with every
//! lane busy with other delays it falls back to the heap. Which path an
//! event takes never changes the order it pops in.
//!
//! Cancellation is deliberately not supported — the network engine never
//! cancels. Use [`EventQueue`](crate::queue::EventQueue) when you need
//! [`cancel`] semantics.
//!
//! [`cancel`]: crate::queue::EventQueue::cancel

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Lanes in the table: more than the distinct delays an engine keeps in use
/// at once (zero, start-up, hop, body drain, watchdog and a few modulated
/// hop times), few enough that rescanning the head keys is a handful of
/// compares.
const LANES: usize = 8;

/// The head key of an empty lane; it sorts after every real key.
const EMPTY: u128 = u128::MAX;

/// The pop order as one integer: time, then insertion sequence.
#[inline]
fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.0) << 64) | u128::from(seq)
}

#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// One pending event, in a lane or in the heap.
struct Slot<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Slot<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Slot<E> {}
impl<E> PartialOrd for Slot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Slot<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted: the least key at the top.
        other.key.cmp(&self.key)
    }
}

/// A future-event list with deterministic FIFO tie-breaking, O(1)
/// schedule/pop for fixed relative delays, O(log n) for absolute times, and
/// no cancellation. Ordering-compatible with
/// [`EventQueue`](crate::queue::EventQueue): scheduling each event at the
/// same instant in both yields the identical pop sequence.
///
/// # Examples
///
/// ```
/// use wormcast_sim::{LaneQueue, SimDuration, SimTime};
///
/// let mut q = LaneQueue::new();
/// q.schedule_at(SimTime::from_ps(30), "absolute");
/// q.schedule_after(SimDuration::from_ps(10), "hop");
/// q.schedule_after(SimDuration::from_ps(30), "drain");
/// assert_eq!(q.pop(), Some((SimTime::from_ps(10), "hop")));
/// // Same instant: the earlier-scheduled event fires first.
/// assert_eq!(q.pop(), Some((SimTime::from_ps(30), "absolute")));
/// assert_eq!(q.pop(), Some((SimTime::from_ps(30), "drain")));
/// ```
pub struct LaneQueue<E> {
    /// Pending events of each lane, in key order.
    lanes: [VecDeque<Slot<E>>; LANES],
    /// The delay each lane holds; lanes `0..bound` are bound.
    delays: [SimDuration; LANES],
    bound: usize,
    /// Key of each lane's first event, or [`EMPTY`].
    heads: [u128; LANES],
    /// The lane with the least head key.
    least: usize,
    /// Absolute-time events and delays that found no lane.
    heap: BinaryHeap<Slot<E>>,
    now: SimTime,
    next_seq: u64,
    /// Calls to `pop` and `peek_time` (deterministic observability counter;
    /// does not affect event order).
    scans: u64,
}

impl<E> Default for LaneQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LaneQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        LaneQueue {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            delays: [SimDuration::ZERO; LANES],
            bound: 0,
            heads: [EMPTY; LANES],
            least: 0,
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            scans: 0,
        }
    }

    /// The current simulation clock: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events scheduled so far (fired or pending); a deterministic
    /// progress measure, mirroring
    /// [`EventQueue::scheduled_total`](crate::queue::EventQueue::scheduled_total).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Calls to [`LaneQueue::pop`] and [`LaneQueue::peek_time`] so far, each
    /// one search for the earliest event. Deterministic: a pure function of
    /// the call sequence.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    #[inline]
    fn next_key(&mut self, at: SimTime) -> u128 {
        let seq = self.next_seq;
        self.next_seq += 1;
        key(at, seq)
    }

    /// Schedule `event` to fire `delay` after the current clock.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let slot = Slot {
            key: self.next_key(self.now + delay),
            event,
        };
        let Some(i) = self.lane_for(delay) else {
            self.heap.push(slot);
            return;
        };
        let lane = &mut self.lanes[i];
        debug_assert!(
            lane.back().is_none_or(|last| last.key < slot.key),
            "a lane went out of order"
        );
        if lane.is_empty() {
            self.heads[i] = slot.key;
            if slot.key < self.heads[self.least] {
                self.least = i;
            }
        }
        lane.push_back(slot);
    }

    /// Schedule `event` to fire at absolute time `at`. An event due now
    /// takes the zero-delay lane; a later one goes to the heap.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a model bug.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        if at == self.now {
            self.schedule_after(SimDuration::ZERO, event);
        } else {
            let key = self.next_key(at);
            self.heap.push(Slot { key, event });
        }
    }

    /// The lane that holds `delay`: the one bound to it, else a lane never
    /// bound, else an empty lane rebound to it. `None` when every lane holds
    /// events of other delays.
    #[inline]
    fn lane_for(&mut self, delay: SimDuration) -> Option<usize> {
        if let Some(i) = self.delays[..self.bound].iter().position(|&d| d == delay) {
            return Some(i);
        }
        let i = if self.bound < LANES {
            self.bound += 1;
            self.bound - 1
        } else {
            self.heads.iter().position(|&h| h == EMPTY)?
        };
        self.delays[i] = delay;
        Some(i)
    }

    /// Take the first event of lane `i` and re-find the least lane.
    fn pop_lane(&mut self, i: usize) -> Slot<E> {
        let lane = &mut self.lanes[i];
        let slot = lane.pop_front().expect("a head key names a pending event");
        self.heads[i] = lane.front().map_or(EMPTY, |s| s.key);
        let mut least = 0;
        for j in 1..self.bound {
            if self.heads[j] < self.heads[least] {
                least = j;
            }
        }
        self.least = least;
        slot
    }

    /// Remove and return the earliest pending event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.scans += 1;
        let lane_key = self.heads[self.least];
        let slot = if self.heap.peek().is_some_and(|top| top.key < lane_key) {
            self.heap.pop().expect("peeked")
        } else if lane_key == EMPTY {
            return None;
        } else {
            self.pop_lane(self.least)
        };
        let time = time_of(slot.key);
        debug_assert!(time >= self.now, "the clock went backwards");
        self.now = time;
        Some((time, slot.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.scans += 1;
        let k = self
            .heap
            .peek()
            .map_or(EMPTY, |top| top.key)
            .min(self.heads[self.least]);
        (k != EMPTY).then(|| time_of(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::rng::SimRng;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    fn d(ps: u64) -> SimDuration {
        SimDuration::from_ps(ps)
    }

    /// Schedule one event in both queues: relative in the lane queue,
    /// at the same absolute instant in the reference.
    fn after<E: Clone>(heap: &mut EventQueue<E>, lanes: &mut LaneQueue<E>, ps: u64, e: E) {
        heap.schedule(heap.now() + d(ps), e.clone());
        lanes.schedule_after(d(ps), e);
    }

    fn at<E: Clone>(heap: &mut EventQueue<E>, lanes: &mut LaneQueue<E>, ps: u64, e: E) {
        heap.schedule(t(ps), e.clone());
        lanes.schedule_at(t(ps), e);
    }

    fn drain_both<E: PartialEq + std::fmt::Debug>(
        heap: &mut EventQueue<E>,
        lanes: &mut LaneQueue<E>,
    ) {
        loop {
            let (a, b) = (heap.pop(), lanes.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = LaneQueue::new();
        q.schedule_at(t(30), "c");
        q.schedule_after(d(10), "a");
        q.schedule_at(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = LaneQueue::new();
        for i in 0..100 {
            if i % 2 == 0 {
                q.schedule_after(d(5), i);
            } else {
                q.schedule_at(t(5), i);
            }
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = LaneQueue::new();
        q.schedule_after(d(10), ());
        q.schedule_at(t(10), ());
        q.schedule_at(t(25), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(10));
        q.pop();
        assert_eq!(q.now(), t(10));
        q.pop();
        assert_eq!(q.now(), t(25));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_into_past_panics() {
        let mut q = LaneQueue::new();
        q.schedule_after(d(10), ());
        q.pop();
        q.schedule_at(t(5), ());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = LaneQueue::new();
        q.schedule_at(t(10), 1u32);
        q.pop();
        q.schedule_after(d(5), 2u32);
        q.schedule_after(d(1), 3u32);
        assert_eq!(q.pop(), Some((t(11), 3)));
        assert_eq!(q.pop(), Some((t(15), 2)));
    }

    #[test]
    fn schedule_at_the_current_instant_fires_next() {
        let mut q = LaneQueue::new();
        q.schedule_at(t(100), 1);
        q.schedule_at(t(200), 2);
        assert_eq!(q.pop(), Some((t(100), 1)));
        // `at == now` is legal (only strictly-past schedules panic), takes
        // the zero-delay lane and fires before everything later.
        q.schedule_at(t(100), 3);
        assert_eq!(q.heap.len(), 1, "only the later event is in the heap");
        assert_eq!(q.pop(), Some((t(100), 3)));
        assert_eq!(q.pop(), Some((t(200), 2)));
    }

    #[test]
    fn peek_matches_pop_and_is_idempotent() {
        let mut q = LaneQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_at(t(500), "x");
        q.schedule_after(d(40), "y");
        assert_eq!(q.peek_time(), Some(t(40)));
        assert_eq!(q.peek_time(), Some(t(40)), "peek is idempotent");
        assert_eq!(q.pop(), Some((t(40), "y")));
        assert_eq!(q.peek_time(), Some(t(500)));
        assert_eq!(q.peek_time(), Some(t(500)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn scheduled_total_and_scans_track() {
        let mut q = LaneQueue::new();
        q.schedule_after(d(1), ());
        q.schedule_at(t(2), ());
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        // Every pop and peek counts, also one that finds nothing.
        q.peek_time();
        q.pop();
        q.pop();
        q.peek_time();
        assert_eq!(q.scans(), 5);
    }

    /// Fixed-delay lanes and absolute-time heap events interleave, each pop
    /// checked against the reference.
    #[test]
    fn lanes_mix_with_absolute_events() {
        let (mut heap, mut lanes) = (EventQueue::new(), LaneQueue::new());
        at(&mut heap, &mut lanes, 7_000, 100);
        at(&mut heap, &mut lanes, 1_234, 101);
        for i in 0..20u32 {
            after(&mut heap, &mut lanes, 1_500, i); // start-up
            after(&mut heap, &mut lanes, 6, 1_000 + i); // hop
            after(&mut heap, &mut lanes, 96, 2_000 + i); // body
            after(&mut heap, &mut lanes, 0, 3_000 + i); // handoff
            assert_eq!(heap.pop(), lanes.pop());
            assert_eq!(heap.now(), lanes.now());
            if i % 5 == 0 {
                let later = heap.now().as_ps() + 50 + u64::from(i);
                at(&mut heap, &mut lanes, later, 4_000 + i);
            }
        }
        assert_eq!(lanes.bound, 4, "one lane per distinct delay");
        drain_both(&mut heap, &mut lanes);
    }

    /// Same-instant ties between two lanes, and between a lane and the
    /// heap, break by scheduling order.
    #[test]
    fn same_instant_ties_across_lanes_and_heap() {
        let (mut heap, mut lanes) = (EventQueue::new(), LaneQueue::new());
        at(&mut heap, &mut lanes, 100, "heap-first"); // seq 0, due 100
        after(&mut heap, &mut lanes, 100, "lane100-second"); // seq 1, due 100
        after(&mut heap, &mut lanes, 20, "pop-me"); // due 20
        assert_eq!(lanes.pop(), Some((t(20), "pop-me")));
        heap.pop();
        // At now = 20 a delay of 80 is due at 100 too, in a third place.
        after(&mut heap, &mut lanes, 80, "lane80-third");
        at(&mut heap, &mut lanes, 100, "heap-fourth");
        after(&mut heap, &mut lanes, 80, "lane80-fifth");
        let order: Vec<_> = std::iter::from_fn(|| lanes.pop()).collect();
        let names: Vec<_> = order.iter().map(|&(_, e)| e).collect();
        assert_eq!(
            names,
            [
                "heap-first",
                "lane100-second",
                "lane80-third",
                "heap-fourth",
                "lane80-fifth"
            ]
        );
        assert!(order.iter().all(|&(at, _)| at == t(100)));
        let reference: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(order, reference);
    }

    /// A lane that drains is rebound to a new delay once every lane has
    /// been bound, instead of sending the new delay to the heap.
    #[test]
    fn a_drained_lane_is_reused_for_another_delay() {
        let (mut heap, mut lanes) = (EventQueue::new(), LaneQueue::new());
        for k in 0..LANES as u64 {
            after(&mut heap, &mut lanes, 10 * (k + 1), k);
        }
        assert_eq!(lanes.bound, LANES);
        // Drain the 10-ps lane, then schedule a delay no lane holds.
        assert_eq!(heap.pop(), lanes.pop());
        after(&mut heap, &mut lanes, 5, 100);
        assert!(lanes.heap.is_empty(), "the drained lane took the new delay");
        assert_eq!(lanes.delays[0], d(5));
        after(&mut heap, &mut lanes, 5, 101);
        after(&mut heap, &mut lanes, 20, 102); // an old delay keeps its lane
        assert!(lanes.heap.is_empty());
        drain_both(&mut heap, &mut lanes);
    }

    /// With every lane holding events of other delays, a further delay
    /// falls back to the heap and still pops in order.
    #[test]
    fn more_distinct_delays_than_lanes_fall_back_to_the_heap() {
        let (mut heap, mut lanes) = (EventQueue::new(), LaneQueue::new());
        let extra = 3u64;
        // Descending delays, so the heap events are due before the lanes'.
        for k in (0..LANES as u64 + extra).rev() {
            after(&mut heap, &mut lanes, 7 * (k + 1), k);
            after(&mut heap, &mut lanes, 7 * (k + 1), 100 + k);
        }
        assert_eq!(lanes.heap.len(), 2 * extra as usize);
        drain_both(&mut heap, &mut lanes);
    }

    /// The contract the engine swap rests on: for an arbitrary interleaved
    /// schedule/pop workload mixing a few fixed delays, stray delays and
    /// absolute times, the lane queue yields the exact event sequence of
    /// the reference heap queue.
    #[test]
    fn orders_identically_to_event_queue_on_random_workloads() {
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let (mut heap, mut lanes) = (EventQueue::new(), LaneQueue::new());
            let mut next_id = 0u64;
            for _round in 0..2_000 {
                for _ in 0..(rng.index(4) + 1) {
                    match rng.index(6) {
                        // The engine's fixed delays: handoff, hop, body,
                        // start-up, a slowed hop.
                        0..=2 => {
                            let delay = [0, 6, 96, 1_500, 18][rng.index(5)];
                            after(&mut heap, &mut lanes, delay, next_id);
                        }
                        // Stray delays: enough distinct ones to exhaust
                        // the lanes and reach the heap fallback.
                        3 => after(&mut heap, &mut lanes, rng.next_u64() % 64, next_id),
                        // Absolute times, ties with `now` included.
                        _ => {
                            let ahead = match rng.index(3) {
                                0 => 0,
                                1 => rng.next_u64() % 1_000,
                                _ => rng.next_u64() % 100_000,
                            };
                            let when = heap.now().as_ps() + ahead;
                            at(&mut heap, &mut lanes, when, next_id);
                        }
                    }
                    next_id += 1;
                }
                for _ in 0..rng.index(4) {
                    assert_eq!(heap.pop(), lanes.pop(), "seed {seed}");
                    assert_eq!(heap.now(), lanes.now());
                }
                assert_eq!(heap.peek_time(), lanes.peek_time(), "seed {seed}");
            }
            drain_both(&mut heap, &mut lanes);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Property form of the engine-swap contract: under arbitrary
        /// schedule/pop/peek interleavings — relative delays from a small
        /// grid (so lanes fill, drain and rebind, and exact ties are
        /// common), more distinct delays than lanes, and absolute times —
        /// the lane queue's `(time, seq)` order, clock and peeks all match
        /// the reference heap queue.
        #[test]
        fn lanes_match_heap_on_arbitrary_interleavings(
            ops in proptest::collection::vec((0u8..5, 0u64..2_000), 1usize..200),
            grid in 1u64..400,
        ) {
            use proptest::prelude::prop_assert_eq;
            let (mut heap, mut lanes) = (EventQueue::new(), LaneQueue::new());
            let mut next_id = 0u64;
            for (kind, off) in ops {
                match kind {
                    0 | 1 => {
                        let delay = off / grid * grid;
                        heap.schedule(heap.now() + d(delay), next_id);
                        lanes.schedule_after(d(delay), next_id);
                        next_id += 1;
                    }
                    2 => {
                        let when = heap.now() + d(off / grid * grid);
                        heap.schedule(when, next_id);
                        lanes.schedule_at(when, next_id);
                        next_id += 1;
                    }
                    3 => {
                        prop_assert_eq!(heap.pop(), lanes.pop());
                        prop_assert_eq!(heap.now(), lanes.now());
                    }
                    _ => prop_assert_eq!(heap.peek_time(), lanes.peek_time()),
                }
            }
            loop {
                let (a, b) = (heap.pop(), lanes.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
