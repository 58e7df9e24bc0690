//! The calendar wheel: an O(1)-amortized future-event list with the exact
//! deterministic ordering of [`crate::queue::EventQueue`].
//!
//! Events are bucketed by time quantum (`bucket_width = 2^shift` ps) into a
//! power-of-two ring of buckets anchored at the current clock tick; events
//! beyond the ring horizon wait in a small overflow heap and migrate into
//! the ring as the clock advances. Events pop in `(time, seq)` order — the
//! same total order as the binary-heap queue, where `seq` is the global
//! insertion sequence number — so two events at the same instant still fire
//! in the order they were scheduled and a run driven by the wheel is
//! bit-identical to one driven by the heap.
//!
//! The ordering rule. A bucket's unfired tail must be in `(time, seq)`
//! order whenever it is read. Most events arrive in order and are appended;
//! an event that sorts before its bucket's last one is out of order, and
//! where it goes depends on the bucket:
//!
//! * The bucket of the current tick (`tick(at) == tick(now)`), the only one
//!   being drained, takes it at its place at once: a binary search over the
//!   unfired tail, then whichever side is shorter shifts by one slot — left
//!   into the fired slots before the cursor (where an event scheduled at
//!   `now` usually lands, so the shift is often empty) or right.
//! * A bucket of a later tick appends it, marks itself unsorted, and sorts
//!   its tail once when it is next read. Inserting in order there too was
//!   tried and rejected: on `scale`, 2.84M of its 2.89M ordered inserts
//!   landed in crowded later buckets and moved 1,184 slots each, which
//!   slowed that workload by 27% while `loaded` gained 20%.
//!
//! Re-sorting the current bucket's tail at the next read, as later buckets
//! do, costs a sort per out-of-order event there. On perfbench's `loaded`
//! workload (the saturation lab, seed 0) that was 1.46M sorts of 50 slots
//! each: 12.0% of the 13.2M events it places arrive out of order. The
//! ordered insert moves 5 slots per current-tick event on average instead.
//! One-broadcast workloads place far fewer out of order (2.1% of 4.0M on
//! `observed`, 0.37% of 16.1M on `scale` at up to 10⁶ nodes).
//!
//! Every ordering decision compares `(time, seq)`, not time alone: an event
//! migrating from the overflow heap carries an older `seq` than a ring event
//! scheduled at the same instant after the clock moved, and must still pop
//! first.
//!
//! The anchoring invariant that makes the ring sound: every pending event's
//! timestamp is `>= now` (scheduling into the past panics, and the clock
//! only ever advances to the globally earliest pending event), so all ring
//! events live in the half-open tick window `[tick(now), tick(now) + N)`
//! and bucket index `tick & (N-1)` is injective over the live window. A
//! bucket with fired slots is therefore always the current tick's, and the
//! pop that moved the clock into a tick sorted that tick's bucket.
//!
//! Why a wheel: the engine's event population is dominated by short
//! deadlines (hop crossings, body drains, start-up timers) that land within
//! a few microseconds of `now`. The wheel turns each schedule/pop into a
//! couple of array writes on the active bucket instead of an O(log n) sift
//! plus the hash-table bookkeeping the cancellable queue pays, and finding
//! the next occupied bucket is a bitmap scan
//! ([`ActiveSet::next_at_or_after`]).
//!
//! Cancellation is deliberately not supported — the network engine never
//! cancels — which is what makes the per-event constant factor so small.
//! Use [`EventQueue`](crate::queue::EventQueue) when you need [`cancel`]
//! semantics.
//!
//! [`cancel`]: crate::queue::EventQueue::cancel

use crate::active_set::ActiveSet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event inside a bucket. The event payload sits in an
/// `Option` so it can be moved out at pop time without shifting the rest of
/// the bucket.
struct Slot<E> {
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

struct Bucket<E> {
    items: Vec<Slot<E>>,
    /// Items before the cursor have already fired.
    cursor: usize,
    /// Whether `items[cursor..]` needs re-sorting before the next read.
    /// Only a bucket of a later tick than the clock's is ever dirty.
    dirty: bool,
}

impl<E> Bucket<E> {
    const fn new() -> Self {
        Bucket {
            items: Vec::new(),
            cursor: 0,
            dirty: false,
        }
    }

    /// Sort the unfired tail into `(time, seq)` order if pushes disordered
    /// it. Already-fired entries are untouched, so this never reorders the
    /// past.
    fn settle(&mut self) {
        if self.dirty {
            let cursor = self.cursor;
            self.items[cursor..].sort_unstable_by_key(|s| (s.time, s.seq));
            self.dirty = false;
        }
    }

    /// Put `slot` at its `(time, seq)` place in the sorted unfired tail,
    /// shifting the shorter side: the slots before it left by one into the
    /// fired slot at `cursor - 1`, or the slots after it right by one.
    fn insert_sorted(&mut self, slot: Slot<E>) {
        debug_assert!(!self.dirty, "ordered insert into an unsorted tail");
        let cursor = self.cursor;
        let key = (slot.time, slot.seq);
        let pos = cursor + self.items[cursor..].partition_point(|s| (s.time, s.seq) < key);
        if cursor > 0 && pos - cursor < self.items.len() - pos {
            self.items[cursor - 1] = slot;
            self.items[cursor - 1..pos].rotate_left(1);
            self.cursor -= 1;
        } else {
            self.items.insert(pos, slot);
        }
    }
}

struct Overflow<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Overflow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Overflow<E> {}
impl<E> PartialOrd for Overflow<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Overflow<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted: earliest (time, seq) at the top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list with deterministic FIFO tie-breaking, O(1) amortized
/// schedule/pop, and no cancellation. Drop-in ordering-compatible with
/// [`EventQueue`](crate::queue::EventQueue): for any sequence of
/// `schedule`/`pop` calls both structures yield events in the identical
/// order.
pub struct CalendarWheel<E> {
    shift: u32,
    /// `num_buckets - 1`; bucket index of tick `t` is `t & mask`.
    mask: u64,
    buckets: Vec<Bucket<E>>,
    /// Bucket indices with unfired events — the wheel's active set.
    occupied: ActiveSet,
    /// Events beyond the ring horizon, migrated in as the clock advances.
    overflow: BinaryHeap<Overflow<E>>,
    now: SimTime,
    next_seq: u64,
    /// Unfired events currently in the ring (excludes overflow).
    ring_len: usize,
    /// Occupancy-bitmap scans performed by `pop`/`peek_time` (deterministic
    /// observability counter; does not affect event order).
    bucket_scans: u64,
}

impl<E> Default for CalendarWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarWheel<E> {
    /// A wheel with the default geometry: 512 buckets of 8.192 ns
    /// (2¹³ ps) — a ~4.2 µs horizon, sized so start-up latencies and body
    /// drains of the paper's constants land inside the ring.
    pub fn new() -> Self {
        Self::with_geometry(13, 512)
    }

    /// A wheel with `num_buckets` buckets (a power of two) of width
    /// `2^bucket_width_log2` picoseconds.
    ///
    /// # Panics
    /// Panics if `num_buckets` is not a power of two or the width exceeds
    /// the clock.
    pub fn with_geometry(bucket_width_log2: u32, num_buckets: usize) -> Self {
        assert!(
            num_buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        assert!(bucket_width_log2 < 64, "bucket width overflows the clock");
        CalendarWheel {
            shift: bucket_width_log2,
            mask: num_buckets as u64 - 1,
            buckets: (0..num_buckets).map(|_| Bucket::new()).collect(),
            occupied: ActiveSet::new(num_buckets),
            overflow: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            ring_len: 0,
            bucket_scans: 0,
        }
    }

    /// The current simulation clock: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether any events remain pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Number of events pushed so far (fired or pending); a deterministic
    /// progress measure, mirroring
    /// [`EventQueue::scheduled_total`](crate::queue::EventQueue::scheduled_total).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Occupancy-bitmap scans performed so far by [`CalendarWheel::pop`]
    /// and [`CalendarWheel::peek_time`]. Deterministic: a pure function of
    /// the schedule/pop/peek call sequence.
    pub fn bucket_scans(&self) -> u64 {
        self.bucket_scans
    }

    /// First tick beyond the ring window anchored at the current clock.
    #[inline]
    fn horizon(&self) -> u64 {
        (self.now.0 >> self.shift) + self.mask + 1
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if at.0 >> self.shift < self.horizon() {
            self.place(at, seq, event);
        } else {
            self.overflow.push(Overflow {
                time: at,
                seq,
                event,
            });
        }
    }

    /// Put an event into its ring bucket (its tick must be inside the
    /// window `[tick(now), tick(now) + N)`).
    fn place(&mut self, at: SimTime, seq: u64, event: E) {
        let tick = at.0 >> self.shift;
        let idx = (tick & self.mask) as usize;
        let current = tick == self.now.0 >> self.shift;
        let bucket = &mut self.buckets[idx];
        let slot = Slot {
            time: at,
            seq,
            event: Some(event),
        };
        // Compare `(time, seq)`, not time alone: an event migrated from the
        // overflow heap carries an older seq than ring events scheduled at
        // the same instant after the clock moved.
        match bucket.items.last() {
            Some(last) if (at, seq) < (last.time, last.seq) => {
                if current {
                    bucket.insert_sorted(slot);
                } else {
                    bucket.dirty = true;
                    bucket.items.push(slot);
                }
            }
            _ => bucket.items.push(slot),
        }
        self.ring_len += 1;
        self.occupied.insert(idx);
    }

    /// Move every overflow event whose tick now falls inside the ring
    /// window into the ring. Called before any scan, so the remaining
    /// overflow is strictly later than everything in the ring when the scan
    /// runs. Between scans it need not be: once a pop has moved the clock,
    /// `schedule` may ring an event at an instant an older overflow event
    /// shares, which `place` then orders by `seq`.
    fn migrate_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            if top.time.0 >> self.shift >= self.horizon() {
                break;
            }
            let o = self.overflow.pop().expect("peeked");
            self.place(o.time, o.seq, o.event);
        }
    }

    /// Index of the ring bucket holding the earliest unfired event, if the
    /// ring is non-empty. Ticks `[tick(now), tick(now)+N)` map monotonically
    /// onto indices `base..N` then `0..base`, so the earliest occupied
    /// bucket is the first occupancy bit at or after `base`, wrapping once.
    #[inline]
    fn earliest_bucket(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        let base = ((self.now.0 >> self.shift) & self.mask) as usize;
        self.occupied
            .next_at_or_after(base)
            .or_else(|| self.occupied.next_at_or_after(0))
    }

    /// Remove and return the earliest pending event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.migrate_overflow();
        self.bucket_scans += 1;
        if let Some(idx) = self.earliest_bucket() {
            let bucket = &mut self.buckets[idx];
            bucket.settle();
            let slot = &mut bucket.items[bucket.cursor];
            let (time, event) = (slot.time, slot.event.take().expect("unfired slot"));
            bucket.cursor += 1;
            self.ring_len -= 1;
            debug_assert!(time >= self.now, "wheel went backwards");
            self.now = time;
            if bucket.cursor == bucket.items.len() {
                bucket.items.clear();
                bucket.cursor = 0;
                bucket.dirty = false;
                self.occupied.remove(idx);
            }
            return Some((time, event));
        }
        // Ring empty: the next event (if any) leads the overflow heap.
        let o = self.overflow.pop()?;
        debug_assert!(o.time >= self.now, "wheel went backwards");
        self.now = o.time;
        Some((o.time, o.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.migrate_overflow();
        self.bucket_scans += 1;
        if let Some(idx) = self.earliest_bucket() {
            let bucket = &mut self.buckets[idx];
            bucket.settle();
            return Some(bucket.items[bucket.cursor].time);
        }
        self.overflow.peek().map(|o| o.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarWheel::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = CalendarWheel::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = CalendarWheel::new();
        q.schedule(t(10), ());
        q.schedule(t(10), ());
        q.schedule(t(25), ());
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
        let mut q = CalendarWheel::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Default geometry horizon is ~4.2e6 ps; stress multiple epochs.
        let mut q = CalendarWheel::new();
        q.schedule(t(30_000_000), "late");
        q.schedule(t(1_000), "early");
        q.schedule(t(8_000_000), "middle");
        assert_eq!(q.pop(), Some((t(1_000), "early")));
        // Schedule relative to now into a fresh epoch while draining.
        q.schedule(t(8_000_001), "middle2");
        assert_eq!(q.pop(), Some((t(8_000_000), "middle")));
        assert_eq!(q.pop(), Some((t(8_000_001), "middle2")));
        assert_eq!(q.pop(), Some((t(30_000_000), "late")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_bucket_disorder_is_resorted() {
        // Two events in one bucket scheduled out of time order.
        let mut q = CalendarWheel::with_geometry(10, 64); // 1024 ps buckets
        q.schedule(t(900), "b");
        q.schedule(t(100), "a");
        q.schedule(t(901), "c");
        assert_eq!(q.pop(), Some((t(100), "a")));
        assert_eq!(q.pop(), Some((t(900), "b")));
        assert_eq!(q.pop(), Some((t(901), "c")));
    }

    #[test]
    fn overflow_ties_stay_fifo_across_the_horizon() {
        // "old" waits in the overflow heap while the clock advances; "new"
        // is then ringed at the same instant before the next pop migrates
        // "old". The earlier-scheduled event must still fire first.
        let mut heap = EventQueue::new();
        let mut wheel = CalendarWheel::with_geometry(4, 16); // horizon 256 ps
        for (at, name) in [(300, "old"), (10, "a"), (100, "b")] {
            heap.schedule(t(at), name);
            wheel.schedule(t(at), name);
        }
        for _ in 0..2 {
            assert_eq!(wheel.pop(), heap.pop());
        }
        heap.schedule(t(300), "new");
        wheel.schedule(t(300), "new");
        assert_eq!(heap.pop(), Some((t(300), "old")), "the reference is FIFO");
        assert_eq!(wheel.pop(), Some((t(300), "old")));
        assert_eq!(wheel.pop(), heap.pop());
        assert_eq!(wheel.pop(), None);
    }

    /// Both shift directions of the current tick's ordered insert, each pop
    /// checked against the heap.
    #[test]
    fn current_tick_inserts_keep_heap_order() {
        let mut heap = EventQueue::new();
        let mut wheel = CalendarWheel::with_geometry(10, 64); // 1024-ps buckets
        let mut id = 0u32;
        let mut both = |heap: &mut EventQueue<u32>, wheel: &mut CalendarWheel<u32>, at| {
            heap.schedule(t(at), id);
            wheel.schedule(t(at), id);
            id += 1;
        };
        // Right shift: out-of-order events into tick 0 while nothing has
        // fired (`cursor == 0`), each landing before the whole tail.
        for at in (100..=900).rev().step_by(100) {
            both(&mut heap, &mut wheel, at);
        }
        let current = &wheel.buckets[0];
        assert_eq!((current.items.len(), current.cursor), (9, 0));
        assert!(!current.dirty, "the current tick is kept sorted");
        for _ in 0..3 {
            assert_eq!(wheel.pop(), heap.pop());
        }
        // Left shift: after pops, events at `now` (no slot moves) and just
        // after it (two slots move) go into the fired slots.
        let now = wheel.now().0;
        both(&mut heap, &mut wheel, now);
        assert_eq!(wheel.buckets[0].cursor, 2);
        both(&mut heap, &mut wheel, now + 250);
        assert_eq!(wheel.buckets[0].cursor, 1);
        // Near the end of the tail the right side is shorter.
        both(&mut heap, &mut wheel, 850);
        assert_eq!(wheel.buckets[0].cursor, 1);
        loop {
            let (a, b) = (heap.pop(), wheel.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = CalendarWheel::new();
        q.schedule(t(10), 1u32);
        let (now, _) = q.pop().unwrap();
        q.schedule(now + SimDuration::from_ps(5), 2u32);
        q.schedule(now + SimDuration::from_ps(1), 3u32);
        assert_eq!(q.pop(), Some((t(11), 3)));
        assert_eq!(q.pop(), Some((t(15), 2)));
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut q = CalendarWheel::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(500), "x");
        q.schedule(t(40), "y");
        assert_eq!(q.peek_time(), Some(t(40)));
        assert_eq!(q.peek_time(), Some(t(40)), "peek is idempotent");
        assert_eq!(q.pop(), Some((t(40), "y")));
        assert_eq!(q.peek_time(), Some(t(500)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_does_not_disturb_later_schedules() {
        // Regression: a peek at a far-future event must not shift the ring
        // anchor — a subsequent near-now schedule still pops first.
        let mut q = CalendarWheel::with_geometry(4, 16); // horizon 256 ps
        q.schedule(t(10_000), "far");
        assert_eq!(q.peek_time(), Some(t(10_000)));
        q.schedule(t(4), "near");
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.pop(), Some((t(4), "near")));
        assert_eq!(q.pop(), Some((t(10_000), "far")));
    }

    /// The contract the engine swap rests on: for an arbitrary interleaved
    /// schedule/pop workload, the wheel yields the exact event sequence of
    /// the reference heap queue.
    #[test]
    fn orders_identically_to_event_queue_on_random_workloads() {
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let mut heap = EventQueue::new();
            // Deliberately awkward geometry: tiny buckets force frequent
            // horizon crossings and overflow migration.
            let mut wheel = CalendarWheel::with_geometry(4, 16);
            let mut next_id = 0u64;
            for _round in 0..2_000 {
                // Burst of schedules at mixed offsets: same-instant ties,
                // in-bucket, near-future, far-future.
                for _ in 0..(rng.index(4) + 1) {
                    let offset = match rng.index(4) {
                        0 => 0,
                        1 => rng.next_u64() % 16,
                        2 => rng.next_u64() % 1_000,
                        _ => rng.next_u64() % 100_000,
                    };
                    let at = heap.now() + SimDuration::from_ps(offset);
                    heap.schedule(at, next_id);
                    wheel.schedule(at, next_id);
                    next_id += 1;
                }
                for _ in 0..rng.index(4) {
                    let a = heap.pop();
                    let b = wheel.pop();
                    assert_eq!(a, b, "seed {seed}");
                    assert_eq!(heap.now(), wheel.now());
                }
                assert_eq!(heap.peek_time(), wheel.peek_time(), "seed {seed}");
            }
            loop {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "seed {seed} (drain)");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn len_and_scheduled_total_track() {
        let mut q = CalendarWheel::new();
        assert_eq!(q.len(), 0);
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn horizon_boundary_is_exclusive() {
        // Geometry (4, 16): 16-ps buckets, ring window [tick(now),
        // tick(now)+16). At now=0 the last in-ring instant is 255; 256 is
        // the first tick past the horizon and must take the overflow path,
        // yet still pop in global order once the clock reaches its window.
        let mut q = CalendarWheel::with_geometry(4, 16);
        q.schedule(t(255), "last-inside");
        q.schedule(t(256), "first-outside");
        q.schedule(t(0), "now-tick");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(0), "now-tick")));
        assert_eq!(q.pop(), Some((t(255), "last-inside")));
        assert_eq!(q.pop(), Some((t(256), "first-outside")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_at_the_current_instant_fires_next() {
        let mut q = CalendarWheel::with_geometry(4, 16);
        q.schedule(t(100), 1);
        q.schedule(t(200), 2);
        assert_eq!(q.pop(), Some((t(100), 1)));
        // `at == now` is legal (only strictly-past schedules panic) and
        // fires before everything later, FIFO after already-fired peers.
        q.schedule(t(100), 3);
        assert_eq!(q.pop(), Some((t(100), 3)));
        assert_eq!(q.pop(), Some((t(200), 2)));
    }

    #[test]
    fn horizon_window_tracks_the_advancing_clock() {
        let mut q = CalendarWheel::with_geometry(4, 16);
        q.schedule(t(300), "a"); // overflow while now = 0
        assert_eq!(q.pop(), Some((t(300), "a")));
        // The window re-anchors at tick(300) = 18, so the horizon tick is
        // 34: instant 543 is the new last-inside, 544 the new first-outside.
        q.schedule(t(543), "in-ring");
        q.schedule(t(544), "overflow");
        q.schedule(t(300), "at-now");
        assert_eq!(q.pop(), Some((t(300), "at-now")));
        assert_eq!(q.pop(), Some((t(543), "in-ring")));
        assert_eq!(q.pop(), Some((t(544), "overflow")));
        assert_eq!(q.pop(), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Property form of the engine-swap contract: under arbitrary
        /// schedule/pop/peek interleavings — offsets spanning same-instant
        /// ties, in-bucket, in-ring and past-horizon — the wheel's
        /// `(time, seq)` order, clock and peeks all match the reference heap
        /// queue. A peek is an op of its own: peeking migrates the overflow,
        /// so peeking after every op would hide ties between a migrating
        /// event and one ringed since the last scan. On a 100-ps grid, exact
        /// ties are common.
        #[test]
        fn wheel_matches_heap_on_arbitrary_interleavings(
            ops in proptest::collection::vec((0u8..4, 0u64..2_000), 1usize..200),
            grid in 0u8..2,
        ) {
            use proptest::prelude::prop_assert_eq;
            // Tiny geometry: a 256-ps horizon forces constant overflow
            // migration and window wraps.
            let mut heap = EventQueue::new();
            let mut wheel = CalendarWheel::with_geometry(4, 16);
            let mut next_id = 0u64;
            for (kind, off) in ops {
                match kind {
                    // Schedule (twice as likely as pop, so queues grow).
                    0 | 1 => {
                        let off = if grid == 1 { off / 100 * 100 } else { off };
                        let at = heap.now() + SimDuration::from_ps(off);
                        heap.schedule(at, next_id);
                        wheel.schedule(at, next_id);
                        next_id += 1;
                    }
                    2 => {
                        prop_assert_eq!(heap.pop(), wheel.pop());
                        prop_assert_eq!(heap.now(), wheel.now());
                    }
                    _ => prop_assert_eq!(heap.peek_time(), wheel.peek_time()),
                }
            }
            loop {
                let (a, b) = (heap.pop(), wheel.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
