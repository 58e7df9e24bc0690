//! The wormhole network engine.
//!
//! ## Model
//!
//! Wormhole switching is simulated at header/channel granularity (one event
//! per hop, not per flit), with the body pipeline folded into exact
//! arithmetic — the same modelling level as the path-process CSIM simulator
//! the paper used:
//!
//! * The header advances channel by channel. Crossing a channel costs one
//!   routing decision plus one flit time.
//! * A busy channel holds the header in that channel's single FIFO queue
//!   (the paper: "Each channel has a single queue where messages are held
//!   while awaiting transmission") while the message keeps every channel it
//!   has already acquired — wormhole blocking-in-place.
//! * When the header reaches a node that the CPR delivery mask marks as a
//!   receiver, the node absorbs a copy while concurrently forwarding: the
//!   copy completes one body-time (L·β) after header arrival.
//! * The message's channels are released when the tail completes at the
//!   final destination (path-process holding, as in the paper's simulator).
//! * Injection is throttled by per-node ports; the start-up latency Ts is
//!   charged after a port is granted, serialising multi-message steps on
//!   narrow-port routers (the effect that hurts RD on multiport meshes).
//!
//! Adaptive messages consult the network's routing function at every hop and
//! take the first free candidate; if all candidates are busy they wait on
//! the one with the shortest queue (ties broken in preference order). This
//! is the standard "select function" formulation of turn-model adaptivity.
//!
//! ## Scheduling and data layout
//!
//! The hot path is organised around *active sets* so that one simulation
//! step costs O(active work), independent of mesh size:
//!
//! * The future-event list is a [`LaneQueue`]: one FIFO lane per fixed
//!   delay the engine charges (start-up, hop × speed, body drain, watchdog,
//!   zero-delay handoffs) plus a small heap for absolute-time schedules
//!   (injections ahead of the clock, faults, speed changes, phase marks).
//!   It pops in the exact deterministic `(time, insertion-seq)` order of
//!   the reference [`EventQueue`](wormcast_sim::EventQueue) — proven
//!   equivalent by the differential tests against [`crate::classic`].
//! * A message lives in two records indexed by its arena slot. Its hot
//!   record (route, current node, crossing/waiting channel, held-path ends,
//!   queue link, progress epoch, hop count, last direction and flags) is
//!   one 64-byte cache line, which is all a header hop touches besides the
//!   channel arena and the message id; its cold record (id, request time,
//!   source, length, op, tag) is read at injection, port grant, delivery
//!   and completion. One hop counter serves as both the hops crossed and
//!   the index of a fixed or run route's next hop: wherever it is read,
//!   the header has crossed every channel it was granted. Crossing a
//!   channel yields its far end, dimension and sign from the node the
//!   header is at ([`SimTopology::cross`]), by multiplication on a mesh.
//!   Channel and port state live in struct-of-arrays arenas indexed by
//!   integer ids; nothing is allocated per hop or per cycle.
//!   Routes come in two fixed forms. A [`Route::Runs`] (every line, Z
//!   column, serpentine segment and DOR leg of DB, AB, QAB, RD and EDN,
//!   and every DOR unicast of the mixed workloads) is a `Copy` value that
//!   allocates nothing per message: the header's next channel is one
//!   stride from the current node along the run its hop count falls in
//!   ([`SimTopology::step_channel`]). A [`Route::Fixed`] (multicast
//!   subsets, fault detours, torus and GHC paths) reads its hops and mask
//!   off a shared [`CodedPath`](wormcast_routing::CodedPath) record.
//!   A retired message's arena slot is reused by a later injection, so the
//!   message arena is as large as the most messages alive at once, not as
//!   the run's total. The channels a message holds form an intrusive
//!   singly-linked list threaded through the channel arena (a channel has at
//!   most one holder, so one `next` slot per channel suffices), and each
//!   channel's FIFO of blocked headers is threaded through the message arena
//!   the same way.
//! * Failed channels sit in a bitmap [`ActiveSet`], not a hash set.
//!
//! The pre-overhaul engine is retained as [`crate::classic`] for
//! differential testing and benchmarking only.

use crate::config::{NetworkConfig, ReleaseMode};
use crate::fault::{FaultKind, FaultPlan};
use crate::message::{Delivery, MessageId, MessageSpec, OpId, Route};
use crate::metrics::{CountersSink, MetricsSink, TraceSink};
use crate::trace::Trace;
use std::collections::VecDeque;
use wormcast_routing::{queue_aware_pick, RoutingFunction, SelectPolicy, SimTopology};
use wormcast_sim::{ActiveSet, LaneQueue, SimDuration, SimTime};
use wormcast_topology::{ChannelId, Mesh, NodeId, Sign};

pub use crate::metrics::Counters;

/// Sentinel for "no id" in the intrusive arena links.
const NONE: u32 = u32::MAX;

#[derive(Debug)]
enum Ev {
    /// Injection request reaches the source PE: contend for a port.
    Arrive(u32),
    /// Start-up latency has elapsed; the header takes its first hop.
    StartupDone(u32),
    /// Header finished crossing its channel and is at the next router.
    Header(u32),
    /// Body fully arrived at a receiver node.
    Deliver(u32, NodeId),
    /// Tail arrived at the final destination: release the whole path.
    Complete(u32),
    /// The tail has left the source PE: free one injection port.
    PortRelease(NodeId),
    /// The tail has drained across one channel (facility-queueing mode).
    ReleaseOne(ChannelId),
    /// A scheduled fault takes the channel down.
    LinkDown(ChannelId),
    /// A scheduled fault restores the channel.
    LinkUp(ChannelId),
    /// A scheduled bandwidth change: the channel's crossing-time factor
    /// becomes the given value (1 = full speed).
    SetSpeed(ChannelId, u32),
    /// A schedule phase boundary (ramp breakpoint, hotspot step): purely
    /// observational, emitted to the metrics sinks.
    PhaseMark(u32),
    /// Delivery watchdog: if the message still waits with the recorded
    /// progress epoch (no progress for a whole timeout), declare it stalled.
    StallCheck(u32, u32),
}

/// `Hot::prev` of a header still at its source: no hop brought it there.
const NO_PREV: u8 = u8::MAX;

/// What one header hop reads and writes of a message, in one cache line:
/// the route, where the header is and what it crosses, waits on and holds,
/// and the watchdog's view of its progress.
#[repr(align(64))]
struct Hot {
    route: Route,
    /// Node the header currently occupies.
    cur: NodeId,
    /// Raw id of the channel the header is currently crossing, or `NONE`.
    crossing: u32,
    /// Raw id of the channel whose queue the header waits in, or `NONE`.
    waiting_on: u32,
    /// First / last channel of the held path (acquisition order), or
    /// `NONE`; links live in [`ChanArena::held_next`].
    held_head: u32,
    held_tail: u32,
    /// Next message in whatever FIFO (channel or port) this one waits in.
    next_waiter: u32,
    /// Progress epoch: bumped on every header hop and whenever a channel
    /// this message waits on is restored. The watchdog reaps only if the
    /// epoch is unchanged for a whole timeout, so a same-cycle link restore
    /// grants the waiter a fresh window instead of a spurious stall.
    progress_epoch: u32,
    /// Channels crossed so far, which is also the index of the next hop of
    /// a fixed or run route and of the node the header is at: whenever it
    /// is read, the header has crossed every channel it was granted.
    hops: u32,
    /// Direction of the hop that brought the header to `cur`, packed as
    /// `2·dim + (1 if Minus)`, or [`NO_PREV`].
    prev: u8,
    done: bool,
    /// Whether a `StallCheck` event is already pending for this message
    /// (at most one outstanding check per message).
    stall_armed: bool,
}

const _: () = assert!(
    std::mem::size_of::<Hot>() == 64,
    "a message's hot state is one cache line"
);

impl Hot {
    /// The direction of the last hop, as routing functions take it.
    fn prev(&self) -> Option<(usize, Sign)> {
        (self.prev != NO_PREV).then(|| {
            let sign = if self.prev & 1 == 0 {
                Sign::Plus
            } else {
                Sign::Minus
            };
            ((self.prev >> 1) as usize, sign)
        })
    }
}

/// What a message keeps for injection, port grant, delivery and
/// completion.
struct Cold {
    /// External id of the slot's message.
    id: MessageId,
    requested_at: SimTime,
    src: NodeId,
    length: u64,
    op: OpId,
    tag: u32,
    charge_startup: bool,
}

/// log2 of the hot records per [`HotSlots`] chunk (256 KiB of them).
const HOT_CHUNK_BITS: u32 = 12;
const HOT_CHUNK: usize = 1 << HOT_CHUNK_BITS;

/// The hot records, indexed by slot, in chunks of at most [`HOT_CHUNK`]
/// that stop moving once full. A `Vec` of cache-line-aligned records grows
/// by allocating, copying and freeing, because the system allocator's
/// `realloc` keeps only 16-byte alignment: one `Vec` of them would for a
/// moment hold every record twice (8 MiB extra at 131,072 live messages),
/// where a chunk copies at most its own 256 KiB.
#[derive(Default)]
struct HotSlots {
    chunks: Vec<Vec<Hot>>,
    len: usize,
}

impl HotSlots {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, h: Hot) {
        if self.len.is_multiple_of(HOT_CHUNK) {
            // Grown by doubling, it stops at exactly HOT_CHUNK, and a small
            // network keeps a small chunk.
            self.chunks.push(Vec::new());
        }
        self.chunks[self.len >> HOT_CHUNK_BITS].push(h);
        self.len += 1;
    }

    #[cfg(feature = "invariants")]
    fn iter(&self) -> impl Iterator<Item = &Hot> {
        self.chunks.iter().flatten()
    }
}

impl std::ops::Index<usize> for HotSlots {
    type Output = Hot;

    #[inline]
    fn index(&self, i: usize) -> &Hot {
        &self.chunks[i >> HOT_CHUNK_BITS][i & (HOT_CHUNK - 1)]
    }
}

impl std::ops::IndexMut<usize> for HotSlots {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Hot {
        &mut self.chunks[i >> HOT_CHUNK_BITS][i & (HOT_CHUNK - 1)]
    }
}

/// Message state, indexed by arena slot: a [`Hot`] record per slot for the
/// stepper and a [`Cold`] one for the rest of the spec.
///
/// A slot is recycled once nothing can refer to its message any more: at
/// `Complete` (every `Deliver` of a message fires before its `Complete`),
/// or, if a watchdog `StallCheck` is still pending then, when that check
/// fires. The slots of reaped (stalled) messages are never reused, because
/// their `Deliver` events may still be pending. `Cold::id` keeps the
/// external [`MessageId`] dense in injection order whatever slot a message
/// lands in.
#[derive(Default)]
struct MsgArena {
    hot: HotSlots,
    cold: Vec<Cold>,
    /// Retired slots ready for reuse (the last freed is reused first).
    free: Vec<u32>,
    /// Messages ever injected: the next external id.
    injected: u64,
}

impl MsgArena {
    /// Place a new message in a free slot, or in a new one if none is free.
    fn push(&mut self, requested_at: SimTime, spec: MessageSpec) -> u32 {
        let i = self.free.pop().map_or(self.hot.len(), |s| s as usize);
        assert!(i < NONE as usize, "message arena exhausted");
        let MessageSpec {
            src,
            route,
            length,
            op,
            tag,
            charge_startup,
        } = spec;
        let hot = Hot {
            route,
            cur: src,
            crossing: NONE,
            waiting_on: NONE,
            held_head: NONE,
            held_tail: NONE,
            next_waiter: NONE,
            progress_epoch: 0,
            hops: 0,
            prev: NO_PREV,
            done: false,
            stall_armed: false,
        };
        let cold = Cold {
            id: MessageId(self.injected),
            requested_at,
            src,
            length,
            op,
            tag,
            charge_startup,
        };
        self.injected += 1;
        if i < self.hot.len() {
            self.hot[i] = hot;
            self.cold[i] = cold;
        } else {
            self.hot.push(hot);
            self.cold.push(cold);
        }
        i as u32
    }

    /// Slots ever used: the most messages the arena held at once.
    fn slots(&self) -> usize {
        self.hot.len()
    }
}

/// Struct-of-arrays channel state, indexed by [`ChannelId`].
struct ChanArena {
    /// Message holding the channel, or `NONE`.
    busy: Vec<u32>,
    /// FIFO of blocked headers: head/tail message ids, links in
    /// [`MsgArena::next_waiter`].
    waiter_head: Vec<u32>,
    waiter_tail: Vec<u32>,
    waiters_len: Vec<u32>,
    /// Next channel in the *holder's* held-path list (a channel has at most
    /// one holder, so the link can live here instead of in a per-message
    /// `Vec`).
    held_next: Vec<u32>,
}

impl ChanArena {
    fn new(n: usize) -> Self {
        ChanArena {
            busy: vec![NONE; n],
            waiter_head: vec![NONE; n],
            waiter_tail: vec![NONE; n],
            waiters_len: vec![0; n],
            held_next: vec![NONE; n],
        }
    }
}

/// Struct-of-arrays injection-port state, indexed by [`NodeId`].
struct PortArena {
    free: Vec<u32>,
    waiter_head: Vec<u32>,
    waiter_tail: Vec<u32>,
}

impl PortArena {
    fn new(n: usize, ports_per_node: usize) -> Self {
        PortArena {
            free: vec![ports_per_node as u32; n],
            waiter_head: vec![NONE; n],
            waiter_tail: vec![NONE; n],
        }
    }
}

/// A simulated wormhole-switched network over topology `T` (a mesh by
/// default; the torus extension instantiates `Network<Torus>`).
///
/// # Examples
///
/// ```
/// use wormcast_network::{MessageSpec, Network, NetworkConfig, OpId, Route};
/// use wormcast_routing::{dor_path, CodedPath, DimensionOrdered};
/// use wormcast_sim::SimTime;
/// use wormcast_topology::{Coord, Mesh, Topology};
///
/// let mesh = Mesh::square(4);
/// let mut net = Network::new(mesh.clone(), NetworkConfig::paper_default(),
///                            Box::new(DimensionOrdered));
/// let (src, dst) = (mesh.node_at(&Coord::xy(0, 0)), mesh.node_at(&Coord::xy(3, 2)));
/// net.inject_at(SimTime::ZERO, MessageSpec {
///     src,
///     route: Route::Fixed(CodedPath::unicast(&mesh, dor_path(&mesh, src, dst))),
///     length: 64,
///     op: OpId(0),
///     tag: 0,
///     charge_startup: true,
/// });
/// net.run_until_idle();
/// let d = net.drain_deliveries().pop().unwrap();
/// assert_eq!(d.node, dst);
/// // Ts + 5 hops * (routing + beta) + 64 flits * beta:
/// assert_eq!(d.latency().as_us(), 1.5 + 5.0 * 0.006 + 64.0 * 0.003);
/// ```
pub struct Network<T: SimTopology = Mesh> {
    topo: T,
    cfg: NetworkConfig,
    rf: Box<dyn RoutingFunction<T>>,
    events: LaneQueue<Ev>,
    msgs: MsgArena,
    chans: ChanArena,
    ports: PortArena,
    outbox: VecDeque<Delivery>,
    /// Built-in observers (see [`crate::metrics`]): the engine emits events,
    /// these sinks aggregate them. Kept as concrete fields so the accessors
    /// (`counters`, `trace`) stay cheap. Channel busy time is not built in:
    /// telemetry's channel heatmap keeps it for the runs that observe it.
    sink_counters: CountersSink,
    sink_trace: TraceSink,
    /// User-attached observers.
    extra_sinks: Vec<Box<dyn MetricsSink>>,
    /// Stall-watchdog probes scheduled (arms + re-arms); observability only.
    watchdog_arms: u64,
    /// Channels disabled by fault injection (never granted again).
    failed: ActiveSet,
    /// Per-channel crossing-time multiplier (1 = full speed), driven by
    /// scheduled bandwidth modulation (`SetSpeed`). Empty, meaning every
    /// channel at full speed, until the first `SetSpeed` fires.
    speed: Vec<u32>,
    /// Time of the last dispatched event, for the monotone-clock deep check.
    #[cfg(feature = "invariants")]
    iv_last_now: SimTime,
    /// Self-test fault for the checker: when armed, the next channel release
    /// is silently skipped, leaking the channel.
    #[cfg(feature = "invariants")]
    sabotage_skip_release: bool,
}

/// Deterministic engine runtime statistics, scraped by the observability
/// layer (`wormcast-telemetry`'s metrics registry). The engine exposes
/// plain integers here rather than depending on the registry so the
/// physics→telemetry dependency direction stays one-way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// High-water mark of the message arena: the most slots it ever held.
    /// A slot holds one message from injection until nothing can refer to
    /// it any more, so this is the most messages alive at once (plus the
    /// slots of reaped messages, which are never reused). The number of
    /// messages ever injected is [`Counters::injected`].
    pub arena_msgs_highwater: u64,
    /// Events ever scheduled on the future-event list (the name predates
    /// the delay lanes).
    pub wheel_events_scheduled: u64,
    /// Searches for the earliest pending event: one per pop or peek of the
    /// future-event list.
    pub wheel_bucket_scans: u64,
    /// Stall-watchdog probes scheduled (arms + re-arms).
    pub watchdog_arms: u64,
    /// Adaptive headers that steered around a faulted channel.
    pub reroutes: u64,
    /// Messages retired as stalled by the watchdog.
    pub stalls: u64,
}

impl EngineStats {
    /// Combine with another engine's stats (sums; the high-water mark also
    /// sums, because arenas of different engines hold disjoint messages).
    pub fn absorb(&mut self, o: &EngineStats) {
        self.arena_msgs_highwater += o.arena_msgs_highwater;
        self.wheel_events_scheduled += o.wheel_events_scheduled;
        self.wheel_bucket_scans += o.wheel_bucket_scans;
        self.watchdog_arms += o.watchdog_arms;
        self.reroutes += o.reroutes;
        self.stalls += o.stalls;
    }
}

impl<T: SimTopology> Network<T> {
    /// Create a network over `topo` with the given configuration and the
    /// routing function used by adaptive messages.
    pub fn new(topo: T, cfg: NetworkConfig, rf: Box<dyn RoutingFunction<T>>) -> Self {
        let num_channels = topo.num_channels();
        let num_nodes = topo.num_nodes();
        Network {
            chans: ChanArena::new(num_channels),
            ports: PortArena::new(num_nodes, cfg.inject_ports),
            topo,
            cfg,
            rf,
            events: LaneQueue::new(),
            msgs: MsgArena::default(),
            outbox: VecDeque::new(),
            sink_counters: CountersSink::default(),
            sink_trace: TraceSink::default(),
            extra_sinks: Vec::new(),
            watchdog_arms: 0,
            failed: ActiveSet::new(num_channels),
            speed: Vec::new(),
            #[cfg(feature = "invariants")]
            iv_last_now: SimTime::ZERO,
            #[cfg(feature = "invariants")]
            sabotage_skip_release: false,
        }
    }

    /// Attach an additional observer. Sinks see every observable event from
    /// this point on; they cannot influence the simulation.
    pub fn add_sink(&mut self, sink: Box<dyn MetricsSink>) {
        self.extra_sinks.push(sink);
    }

    /// Start recording a bounded execution trace (see [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.sink_trace.enable(capacity);
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        self.sink_trace.trace()
    }

    /// Fan one observation event out to the built-in and attached sinks
    /// (the trace sink only while it records).
    #[inline]
    fn emit(&mut self, f: impl Fn(&mut dyn MetricsSink)) {
        f(&mut self.sink_counters);
        if self.sink_trace.is_enabled() {
            f(&mut self.sink_trace);
        }
        for s in &mut self.extra_sinks {
            f(s.as_mut());
        }
    }

    /// Fault injection: permanently disable a channel. Messages whose fixed
    /// path crosses it (or adaptive messages with no surviving candidate)
    /// stall forever — observable as `in_flight() > 0` on an idle queue.
    /// Adaptive messages route around failed channels when a legal
    /// alternative exists.
    ///
    /// # Panics
    /// Panics if the channel is currently occupied (fail links when quiet,
    /// as fault-injection studies do at step boundaries).
    pub fn fail_channel(&mut self, ch: ChannelId) {
        assert!(
            self.chans.busy[ch.index()] == NONE,
            "cannot fail an occupied channel"
        );
        self.failed.insert(ch.index());
    }

    /// Whether a channel has been failed.
    pub fn is_failed(&self, ch: ChannelId) -> bool {
        self.failed.contains(ch.index())
    }

    /// Schedule every event of a [`FaultPlan`] on the simulation clock.
    /// Unlike [`Network::fail_channel`], planned transitions may hit
    /// occupied channels mid-flight: the current crossing drains (the flits
    /// are already in the pipeline), the channel then stays down until a
    /// matching `LinkUp`, and each applied transition is emitted to the
    /// metrics sinks. Call before running; event times are absolute.
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        for e in plan.events() {
            match e.kind {
                FaultKind::LinkDown(ch) => self.events.schedule_at(e.at, Ev::LinkDown(ch)),
                FaultKind::LinkUp(ch) => self.events.schedule_at(e.at, Ev::LinkUp(ch)),
            }
        }
    }

    /// Schedule per-channel bandwidth transitions (link degradation windows
    /// from a [`wormcast_sim::Schedule`]). Each transition sets the
    /// channel's crossing-time factor at an absolute time; crossings already
    /// in flight keep the factor they were granted under. Call before
    /// running.
    pub fn schedule_speed_transitions(&mut self, transitions: &[wormcast_sim::SpeedTransition]) {
        for t in transitions {
            self.events
                .schedule_at(t.at, Ev::SetSpeed(ChannelId(t.channel), t.factor));
        }
    }

    /// Schedule observational phase-boundary marks (ramp breakpoints,
    /// hotspot steps) that emit `on_schedule_phase` to the metrics sinks.
    /// Call before running; event times are absolute.
    pub fn schedule_phase_marks(&mut self, marks: &[(SimTime, u32)]) {
        for &(at, phase) in marks {
            self.events.schedule_at(at, Ev::PhaseMark(phase));
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Aggregate counters.
    pub fn counters(&self) -> Counters {
        self.sink_counters.counters()
    }

    /// Deterministic runtime statistics for the observability layer. All
    /// plain event-sequence-derived integers: reading them never perturbs
    /// the simulation, and for a fixed workload the values are identical
    /// across hosts and job counts.
    pub fn engine_stats(&self) -> EngineStats {
        let c = self.counters();
        EngineStats {
            arena_msgs_highwater: self.msgs.slots() as u64,
            wheel_events_scheduled: self.events.scheduled_total(),
            wheel_bucket_scans: self.events.scans(),
            watchdog_arms: self.watchdog_arms,
            reroutes: c.reroutes,
            stalls: c.stalled,
        }
    }

    /// Messages injected but not yet fully completed or reaped as stalled.
    pub fn in_flight(&self) -> u64 {
        let c = self.counters();
        c.injected - c.completed - c.stalled
    }

    /// Request injection of `spec` at absolute time `at` (≥ now).
    ///
    /// # Panics
    /// Panics if the spec is malformed: zero length, an adaptive route to
    /// self, or a fixed or run route that does not start at `spec.src`.
    pub fn inject_at(&mut self, at: SimTime, spec: MessageSpec) -> MessageId {
        assert!(spec.length > 0, "messages need at least one flit");
        match &spec.route {
            Route::Fixed(cp) => {
                assert_eq!(cp.src(), spec.src, "fixed route must start at src");
            }
            Route::Runs(rp) => {
                assert_eq!(rp.src(), spec.src, "run route must start at src");
            }
            Route::Adaptive { dst } => {
                assert_ne!(*dst, spec.src, "adaptive route to self");
            }
        }
        let src = spec.src;
        let m = self.msgs.push(at, spec);
        let id = self.msgs.cold[m as usize].id;
        self.emit(|s| s.on_inject(at, id, src));
        self.events.schedule_at(at, Ev::Arrive(m));
        id
    }

    /// Take all deliveries recorded so far.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        self.outbox.drain(..).collect()
    }

    /// Append all deliveries recorded so far to `out`, reusing the caller's
    /// buffer — the allocation-free form of [`Network::drain_deliveries`]
    /// for drivers that poll every step.
    pub fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        if self.outbox.is_empty() {
            return;
        }
        let (front, back) = self.outbox.as_slices();
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        self.outbox.clear();
    }

    /// Process events until a delivery is produced or no events remain.
    pub fn next_delivery(&mut self) -> Option<Delivery> {
        loop {
            if let Some(d) = self.outbox.pop_front() {
                return Some(d);
            }
            if !self.step() {
                return None;
            }
        }
    }

    /// Process all events; returns when the network is idle.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Process events with timestamps ≤ `until` (useful for time-sliced
    /// workload drivers).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
    }

    /// Timestamp of the next pending event, if any — lets workload drivers
    /// inject externally generated arrivals before simulated time passes
    /// them.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Process a single event. Returns false when no events remain.
    pub fn step(&mut self) -> bool {
        let Some((now, ev)) = self.events.pop() else {
            return false;
        };
        match ev {
            Ev::Arrive(m) => self.on_arrive(now, m),
            Ev::StartupDone(m) => self.on_startup_done(now, m),
            Ev::Header(m) => self.on_header(now, m),
            Ev::Deliver(m, node) => self.on_deliver(now, m, node),
            Ev::Complete(m) => self.on_complete(now, m),
            Ev::PortRelease(node) => self.on_port_release(now, node),
            Ev::ReleaseOne(ch) => self.release(now, ch),
            Ev::LinkDown(ch) => self.on_link_down(now, ch),
            Ev::LinkUp(ch) => self.on_link_up(now, ch),
            Ev::SetSpeed(ch, factor) => self.on_set_speed(now, ch, factor),
            Ev::PhaseMark(phase) => self.emit(|s| s.on_schedule_phase(now, phase)),
            Ev::StallCheck(m, epoch) => self.on_stall_check(now, m, epoch),
        }
        #[cfg(feature = "invariants")]
        if self.cfg.check_invariants {
            self.deep_check_invariants(now);
        }
        true
    }

    /// Append `m` to channel `ch`'s FIFO of blocked headers.
    fn push_chan_waiter(&mut self, ch: usize, m: u32) {
        self.msgs.hot[m as usize].next_waiter = NONE;
        let tail = self.chans.waiter_tail[ch];
        if tail == NONE {
            self.chans.waiter_head[ch] = m;
        } else {
            self.msgs.hot[tail as usize].next_waiter = m;
        }
        self.chans.waiter_tail[ch] = m;
        self.chans.waiters_len[ch] += 1;
    }

    /// Unlink message `m` from anywhere in channel `ch`'s FIFO (watchdog
    /// reaping; O(queue length), only on the stall path).
    fn remove_chan_waiter(&mut self, ch: usize, m: u32) {
        let mut prev = NONE;
        let mut cur = self.chans.waiter_head[ch];
        while cur != NONE {
            let next = self.msgs.hot[cur as usize].next_waiter;
            if cur == m {
                if prev == NONE {
                    self.chans.waiter_head[ch] = next;
                } else {
                    self.msgs.hot[prev as usize].next_waiter = next;
                }
                if next == NONE {
                    self.chans.waiter_tail[ch] = prev;
                }
                self.msgs.hot[m as usize].next_waiter = NONE;
                self.chans.waiters_len[ch] -= 1;
                return;
            }
            prev = cur;
            cur = next;
        }
        panic!("message m{m} not found in channel c{ch} wait queue");
    }

    /// Pop the head of channel `ch`'s FIFO, if any.
    fn pop_chan_waiter(&mut self, ch: usize) -> Option<u32> {
        let head = self.chans.waiter_head[ch];
        if head == NONE {
            return None;
        }
        let next = self.msgs.hot[head as usize].next_waiter;
        self.chans.waiter_head[ch] = next;
        if next == NONE {
            self.chans.waiter_tail[ch] = NONE;
        }
        self.chans.waiters_len[ch] -= 1;
        Some(head)
    }

    /// Append `m` to node `node`'s injection-port FIFO.
    fn push_port_waiter(&mut self, node: usize, m: u32) {
        self.msgs.hot[m as usize].next_waiter = NONE;
        let tail = self.ports.waiter_tail[node];
        if tail == NONE {
            self.ports.waiter_head[node] = m;
        } else {
            self.msgs.hot[tail as usize].next_waiter = m;
        }
        self.ports.waiter_tail[node] = m;
    }

    /// Pop the head of node `node`'s injection-port FIFO, if any.
    fn pop_port_waiter(&mut self, node: usize) -> Option<u32> {
        let head = self.ports.waiter_head[node];
        if head == NONE {
            return None;
        }
        let next = self.msgs.hot[head as usize].next_waiter;
        self.ports.waiter_head[node] = next;
        if next == NONE {
            self.ports.waiter_tail[node] = NONE;
        }
        Some(head)
    }

    /// Charge start-up latency (if the spec asks for it) and schedule the
    /// first header hop.
    fn start_after_grant(&mut self, now: SimTime, m: u32, node: NodeId) {
        let ts = if self.msgs.cold[m as usize].charge_startup {
            self.cfg.startup
        } else {
            SimDuration::ZERO
        };
        let id = self.msgs.cold[m as usize].id;
        self.emit(|s| s.on_port_grant(now, id, node));
        self.events.schedule_after(ts, Ev::StartupDone(m));
    }

    fn on_arrive(&mut self, now: SimTime, m: u32) {
        let src = self.msgs.cold[m as usize].src;
        if self.ports.free[src.index()] > 0 {
            self.ports.free[src.index()] -= 1;
            self.start_after_grant(now, m, src);
        } else {
            self.push_port_waiter(src.index(), m);
        }
    }

    fn on_port_release(&mut self, now: SimTime, node: NodeId) {
        if let Some(m) = self.pop_port_waiter(node.index()) {
            // Port passes straight to the next waiter.
            self.start_after_grant(now, m, node);
        } else {
            self.ports.free[node.index()] += 1;
        }
    }

    fn on_startup_done(&mut self, now: SimTime, m: u32) {
        let node = self.msgs.hot[m as usize].cur;
        let id = self.msgs.cold[m as usize].id;
        self.emit(|s| s.on_startup_done(now, id, node));
        self.advance_header(now, m);
    }

    /// The time the body takes to drain behind the header of slot `i`'s
    /// message (L·β).
    fn body_time(&self, i: usize) -> SimDuration {
        self.cfg.body_time(self.msgs.cold[i].length)
    }

    fn on_header(&mut self, now: SimTime, m: u32) {
        let i = m as usize;
        let h = &mut self.msgs.hot[i];
        let ch_raw = h.crossing;
        debug_assert!(ch_raw != NONE, "Header event without a crossing channel");
        h.crossing = NONE;
        let ch = ChannelId(ch_raw);
        let (to, dim, sign) = self.topo.cross(h.cur, ch);
        h.cur = to;
        h.prev = (dim as u8) << 1 | (sign == Sign::Minus) as u8;
        let first_hop = h.hops == 0;
        h.hops += 1;
        h.progress_epoch = h.progress_epoch.wrapping_add(1);
        match self.cfg.release {
            ReleaseMode::PathHolding => {
                // Append to the held-path list in acquisition order.
                if h.held_tail == NONE {
                    h.held_head = ch_raw;
                } else {
                    self.chans.held_next[h.held_tail as usize] = ch_raw;
                }
                h.held_tail = ch_raw;
                self.chans.held_next[ch.index()] = NONE;
            }
            ReleaseMode::AfterTailCrossing => {
                // The tail finishes crossing one body-time after the header;
                // then the channel frees regardless of downstream progress
                // (virtual cut-through buffering).
                self.events
                    .schedule_after(self.body_time(i), Ev::ReleaseOne(ch));
            }
        }
        if first_hop {
            // Tail leaves the source one body-time after the header crossed
            // the first channel; free the injection port then.
            let src = self.msgs.cold[i].src;
            self.events
                .schedule_after(self.body_time(i), Ev::PortRelease(src));
        }
        let id = self.msgs.cold[i].id;
        self.emit(|s| s.on_header_hop(now, id, to, ch));
        self.advance_header(now, m);
    }

    /// Header is settled at the message's current node: absorb if a
    /// receiver, complete if final, otherwise contend for the next channel.
    fn advance_header(&mut self, now: SimTime, m: u32) {
        let i = m as usize;
        let h = &self.msgs.hot[i];
        // Nodes visited after the source == hops taken.
        let idx = h.hops as usize;
        let (is_receiver, is_final) = match &h.route {
            Route::Fixed(cp) => (cp.deliver_mask()[idx], idx == cp.path.hops.len()),
            Route::Runs(rp) => (rp.receives(idx), idx == rp.len()),
            Route::Adaptive { dst } => {
                let fin = h.cur == *dst;
                (fin, fin)
            }
        };
        if is_receiver || is_final {
            let node = h.cur;
            let body = self.body_time(i);
            if is_receiver {
                self.events.schedule_after(body, Ev::Deliver(m, node));
            }
            if is_final {
                self.events.schedule_after(body, Ev::Complete(m));
                return;
            }
        }
        // Choose the next channel. Fixed and run routes have exactly one
        // candidate, read straight off the coded path or computed from the
        // current node and the run it is on — no per-hop allocation.
        let h = &self.msgs.hot[i];
        let ch = match h.route {
            Route::Fixed(ref cp) => cp.path.hops[idx],
            Route::Runs(ref rp) => {
                let (dim, sign) = rp.direction(idx);
                self.topo.step_channel(h.cur, dim, sign)
            }
            Route::Adaptive { dst } => return self.advance_adaptive(now, m, dst),
        };
        if !self.failed.contains(ch.index()) && self.chans.busy[ch.index()] == NONE {
            self.grant(now, m, ch);
        } else {
            self.wait_on(now, m, ch);
        }
    }

    /// Pick the next channel of an adaptive header at the message's current
    /// node, short of `dst`.
    fn advance_adaptive(&mut self, now: SimTime, m: u32, dst: NodeId) {
        let i = m as usize;
        let cands = self.rf.candidates(
            &self.topo,
            self.msgs.cold[i].src,
            self.msgs.hot[i].cur,
            self.msgs.hot[i].prev(),
            dst,
        );
        assert!(
            !cands.is_empty(),
            "routing function dead-ended at {} toward {}",
            self.msgs.hot[i].cur,
            dst
        );
        // A header that steers onto a live candidate while at least one
        // candidate is dead has re-routed around the fault.
        let dodging =
            !self.failed.is_empty() && cands.iter().any(|c| self.failed.contains(c.index()));
        if self.rf.select_policy() == SelectPolicy::QueueAware {
            // QAB: minimise local backlog — a free channel counts 0, a busy
            // one 1 + its waiting headers, dead ones sort last; ties break
            // on the raw channel index, which is what keeps the pick
            // byte-identical across engines and --jobs. With no
            // live candidate the header stalls on the lowest-index dead
            // link and the watchdog decides its fate.
            let any_live = cands.iter().any(|c| !self.failed.contains(c.index()));
            let ch = queue_aware_pick(&cands, |c| {
                if self.failed.contains(c.index()) {
                    u64::MAX
                } else if self.chans.busy[c.index()] == NONE {
                    0
                } else {
                    1 + self.chans.waiters_len[c.index()] as u64
                }
            });
            if dodging && any_live {
                let at = self.msgs.hot[i].cur;
                let id = self.msgs.cold[i].id;
                self.emit(|s| s.on_reroute(now, id, at));
            }
            if !self.failed.contains(ch.index()) && self.chans.busy[ch.index()] == NONE {
                self.grant(now, m, ch);
            } else {
                self.wait_on(now, m, ch);
            }
            return;
        }
        // First free live candidate wins (preference order).
        if let Some(&ch) = cands
            .iter()
            .find(|&&c| !self.failed.contains(c.index()) && self.chans.busy[c.index()] == NONE)
        {
            if dodging {
                let at = self.msgs.hot[i].cur;
                let id = self.msgs.cold[i].id;
                self.emit(|s| s.on_reroute(now, id, at));
            }
            self.grant(now, m, ch);
            return;
        }
        // All busy (or failed): wait on the candidate with the shortest
        // queue, considering only live candidates when any survive (fault
        // routing); with no live alternative the message stalls on a dead
        // link. First minimal wins, preserving preference-order ties.
        let any_live = cands.iter().any(|c| !self.failed.contains(c.index()));
        if dodging && any_live {
            let at = self.msgs.hot[i].cur;
            let id = self.msgs.cold[i].id;
            self.emit(|s| s.on_reroute(now, id, at));
        }
        let mut wait_ch = None;
        let mut best_len = u32::MAX;
        for &c in &cands {
            if any_live && self.failed.contains(c.index()) {
                continue;
            }
            let len = self.chans.waiters_len[c.index()];
            if len < best_len {
                best_len = len;
                wait_ch = Some(c);
            }
        }
        self.wait_on(now, m, wait_ch.expect("candidates nonempty"));
    }

    /// Queue `m` on busy (or dead) channel `ch`.
    fn wait_on(&mut self, now: SimTime, m: u32, ch: ChannelId) {
        self.push_chan_waiter(ch.index(), m);
        self.msgs.hot[m as usize].waiting_on = ch.0;
        let queue_len = self.chans.waiters_len[ch.index()] as usize;
        let id = self.msgs.cold[m as usize].id;
        self.emit(|s| s.on_channel_wait(now, id, ch, queue_len));
        if self.cfg.watchdog != SimDuration::ZERO && !self.msgs.hot[m as usize].stall_armed {
            self.msgs.hot[m as usize].stall_armed = true;
            self.watchdog_arms += 1;
            self.events.schedule_after(
                self.cfg.watchdog,
                Ev::StallCheck(m, self.msgs.hot[m as usize].progress_epoch),
            );
        }
    }

    /// Give channel `ch` to message `m` and start the crossing.
    fn grant(&mut self, now: SimTime, m: u32, ch: ChannelId) {
        let i = m as usize;
        debug_assert!(
            self.chans.busy[ch.index()] == NONE,
            "granting a busy channel"
        );
        self.chans.busy[ch.index()] = m;
        self.msgs.hot[i].crossing = ch.0;
        self.msgs.hot[i].waiting_on = NONE;
        let id = self.msgs.cold[i].id;
        self.emit(|s| s.on_channel_grant(now, id, ch));
        let speed = self.speed.get(ch.index()).copied().unwrap_or(1);
        let cross = self.cfg.hop_time().times(speed as u64);
        self.events.schedule_after(cross, Ev::Header(m));
    }

    fn on_deliver(&mut self, now: SimTime, m: u32, node: NodeId) {
        let i = m as usize;
        let flits = self.msgs.cold[i].length;
        let id = self.msgs.cold[i].id;
        self.emit(|s| s.on_deliver(now, id, node, flits));
        self.outbox.push_back(Delivery {
            message: id,
            op: self.msgs.cold[i].op,
            tag: self.msgs.cold[i].tag,
            node,
            src: self.msgs.cold[i].src,
            requested_at: self.msgs.cold[i].requested_at,
            delivered_at: now,
        });
    }

    fn on_complete(&mut self, now: SimTime, m: u32) {
        let i = m as usize;
        let mut ch = self.msgs.hot[i].held_head;
        self.msgs.hot[i].held_head = NONE;
        self.msgs.hot[i].held_tail = NONE;
        if self.cfg.release == ReleaseMode::PathHolding {
            // Zero-hop routes are rejected at construction, so a completing
            // message always holds at least its first channel here.
            assert!(
                ch != NONE,
                "message completed without traversing any channel"
            );
        }
        // Release the path in acquisition order. Read each link before
        // releasing: a release may grant the channel onward, and the new
        // holder will relink `held_next` when its header crosses.
        while ch != NONE {
            let next = self.chans.held_next[ch as usize];
            self.release(now, ChannelId(ch));
            ch = next;
        }
        self.msgs.hot[i].done = true;
        let node = self.msgs.hot[i].cur;
        let id = self.msgs.cold[i].id;
        self.emit(|s| s.on_complete(now, id, node));
        // Every `Deliver` of the message has fired: each was scheduled for
        // no later than this `Complete`, and before it. So only a pending
        // watchdog probe can still name the slot; if one does, it frees it.
        if !self.msgs.hot[i].stall_armed {
            self.msgs.free.push(m);
        }
    }

    /// Release a channel and hand it to the first waiter, if any.
    fn release(&mut self, now: SimTime, ch: ChannelId) {
        #[cfg(feature = "invariants")]
        if self.sabotage_skip_release {
            self.sabotage_skip_release = false;
            return;
        }
        self.chans.busy[ch.index()] = NONE;
        self.emit(|s| s.on_channel_release(now, ch));
        if self.failed.contains(ch.index()) {
            // A channel failed while draining stays dead: waiters stall.
            return;
        }
        if let Some(m) = self.pop_chan_waiter(ch.index()) {
            self.grant(now, m, ch);
        }
    }

    /// A scheduled `LinkDown` takes effect. Idempotent: re-failing a dead
    /// channel (e.g. a node failure overlapping a link failure) is a no-op.
    /// If a message is mid-crossing the flits drain normally; the channel
    /// simply stops being granted once released.
    fn on_link_down(&mut self, now: SimTime, ch: ChannelId) {
        if self.failed.insert(ch.index()) {
            self.emit(|s| s.on_link_failed(now, ch));
        }
    }

    /// A scheduled `LinkUp` takes effect: the channel rejoins the network
    /// and, if idle, is handed to the head of its wait queue. Every header
    /// queued on the channel gets its progress epoch bumped: the restore is
    /// forward progress for them, so a watchdog probe landing on the same
    /// cycle (or later) must grant a fresh timeout instead of reaping.
    fn on_link_up(&mut self, now: SimTime, ch: ChannelId) {
        if self.failed.remove(ch.index()) {
            self.emit(|s| s.on_link_restored(now, ch));
            let mut w = self.chans.waiter_head[ch.index()];
            while w != NONE {
                self.msgs.hot[w as usize].progress_epoch =
                    self.msgs.hot[w as usize].progress_epoch.wrapping_add(1);
                w = self.msgs.hot[w as usize].next_waiter;
            }
            if self.chans.busy[ch.index()] == NONE {
                if let Some(m) = self.pop_chan_waiter(ch.index()) {
                    self.grant(now, m, ch);
                }
            }
        }
    }

    /// A scheduled bandwidth transition takes effect: subsequent grants on
    /// the channel cross at `hop_time × factor`. A crossing already in
    /// flight keeps the factor it was granted under (the flits are in the
    /// pipeline).
    fn on_set_speed(&mut self, _now: SimTime, ch: ChannelId, factor: u32) {
        debug_assert!(factor >= 1, "speed factor must be at least 1");
        if self.speed.is_empty() {
            self.speed = vec![1; self.chans.busy.len()];
        }
        self.speed[ch.index()] = factor.max(1);
    }

    /// Delivery watchdog probe for message `m`, armed when it last joined a
    /// wait queue at the recorded progress epoch. If the epoch has advanced
    /// since — the header hopped, or a channel it was queued on was restored
    /// — the check re-arms with a fresh timeout; an epoch unchanged for a
    /// whole timeout means no progress and the message is reaped.
    ///
    /// A probe that finds its message done is the last reference to a
    /// completed message's slot (a reaped message is never probed again),
    /// and frees it.
    fn on_stall_check(&mut self, now: SimTime, m: u32, epoch: u32) {
        let i = m as usize;
        self.msgs.hot[i].stall_armed = false;
        if self.msgs.hot[i].done {
            self.msgs.free.push(m);
            return;
        }
        if self.msgs.hot[i].waiting_on == NONE {
            return; // crossing: the next wait re-arms
        }
        if self.msgs.hot[i].progress_epoch != epoch {
            // Progressed (hop or restore) since the arm: fresh timeout.
            self.msgs.hot[i].stall_armed = true;
            self.watchdog_arms += 1;
            self.events.schedule_after(
                self.cfg.watchdog,
                Ev::StallCheck(m, self.msgs.hot[i].progress_epoch),
            );
            return;
        }
        self.kill_stalled(now, m);
    }

    /// Reap a stalled message: dequeue it, release everything it holds so
    /// the rest of the network degrades instead of wedging, and account the
    /// destinations its header never reached as undelivered. Receivers the
    /// header already passed keep their copies (the body had drained into
    /// them before the stall).
    fn kill_stalled(&mut self, now: SimTime, m: u32) {
        let i = m as usize;
        let waiting = self.msgs.hot[i].waiting_on;
        debug_assert!(waiting != NONE, "reaping a message that is not waiting");
        self.remove_chan_waiter(waiting as usize, m);
        self.msgs.hot[i].waiting_on = NONE;
        let undelivered = match &self.msgs.hot[i].route {
            Route::Fixed(cp) => {
                let next = self.msgs.hot[i].hops as usize;
                cp.deliver_mask()[next + 1..].iter().filter(|&&r| r).count() as u64
            }
            Route::Runs(rp) => rp.receivers_after(self.msgs.hot[i].hops as usize),
            Route::Adaptive { .. } => 1,
        };
        // Release the held path exactly as completion would.
        let mut ch = self.msgs.hot[i].held_head;
        self.msgs.hot[i].held_head = NONE;
        self.msgs.hot[i].held_tail = NONE;
        while ch != NONE {
            let next = self.chans.held_next[ch as usize];
            self.release(now, ChannelId(ch));
            ch = next;
        }
        if self.msgs.hot[i].hops == 0 {
            // The tail never left the source, so no PortRelease is pending;
            // free the injection port here.
            let src = self.msgs.cold[i].src;
            self.on_port_release(now, src);
        }
        self.msgs.hot[i].done = true;
        let node = self.msgs.hot[i].cur;
        let id = self.msgs.cold[i].id;
        self.emit(|s| s.on_stalled(now, id, node, undelivered));
    }

    /// Current queue length per channel (headers waiting).
    pub fn channel_queue_lengths(&self) -> Vec<usize> {
        self.chans.waiters_len.iter().map(|&l| l as usize).collect()
    }

    /// Sanity probe for tests: no channel is held by a completed message and
    /// every waiting message is queued on exactly the channel it records.
    ///
    /// The walk is O(channels + waiters) and only meant for test builds: in
    /// release builds this is a no-op unless
    /// [`NetworkConfig::check_invariants`] is set.
    pub fn check_invariants(&self) {
        if !cfg!(debug_assertions) && !self.cfg.check_invariants {
            return;
        }
        self.force_check_invariants();
    }

    /// [`Network::check_invariants`], unconditionally.
    pub fn force_check_invariants(&self) {
        for i in 0..self.chans.busy.len() {
            let holder = self.chans.busy[i];
            if holder != NONE {
                assert!(
                    !self.msgs.hot[holder as usize].done,
                    "channel c{i} held by completed message"
                );
            }
            let mut w = self.chans.waiter_head[i];
            while w != NONE {
                assert_eq!(
                    self.msgs.hot[w as usize].waiting_on, i as u32,
                    "waiter/channel bookkeeping mismatch"
                );
                w = self.msgs.hot[w as usize].next_waiter;
            }
        }
    }
}

#[cfg(feature = "invariants")]
impl<T: SimTopology> Network<T> {
    /// Arm the self-test fault: the next channel release is silently
    /// skipped, leaking the channel into a permanently-busy state. Exists
    /// only to prove the invariant checkers catch a real engine bug (the
    /// deep check flags the leaked channel the moment its holder retires);
    /// never call it outside checker tests.
    #[doc(hidden)]
    pub fn sabotage_skip_next_release(&mut self) {
        self.sabotage_skip_release = true;
    }

    /// Strong structural audit of the arenas, run after every dispatched
    /// event when [`NetworkConfig::check_invariants`] is set (and callable
    /// directly at any event boundary). Panics on the first inconsistency:
    /// non-monotone clock, counter/arena divergence, a broken free list or
    /// message ids (a free slot still probed or live, a retired slot
    /// leaked, two slots with one id), broken channel ownership (every held
    /// or crossing channel must be busy with exactly its holder — a
    /// bijection under path-holding, where a held path is as long as the
    /// hop count), channels held by retired messages, or corrupt waiter
    /// queues. O(slots · log slots + channels + waiters) per call.
    pub fn deep_check_invariants(&mut self, now: SimTime) {
        assert!(
            now >= self.iv_last_now,
            "deep check: clock went backwards ({} ps after {} ps)",
            now.as_ps(),
            self.iv_last_now.as_ps()
        );
        self.iv_last_now = now;
        let c = self.sink_counters.counters();
        let slots = self.msgs.slots();
        assert_eq!(
            c.injected, self.msgs.injected,
            "deep check: injected counter diverges from the message arena"
        );
        // Every injection past the arena's slot count reused a retired
        // slot, clearing one retirement's `done` flag.
        assert!(
            slots as u64 <= c.injected,
            "deep check: {slots} slots for {} messages",
            c.injected
        );
        assert_eq!(
            self.msgs.cold.len(),
            slots,
            "deep check: hot and cold records disagree on the slot count"
        );
        let reused = c.injected - slots as u64;
        let done = self.msgs.hot.iter().filter(|h| h.done).count() as u64;
        assert_eq!(
            done + reused,
            c.completed + c.stalled,
            "deep check: retirement accounting ({done} done + {reused} reused vs {} completed + {} stalled)",
            c.completed,
            c.stalled
        );
        // Slot ownership: a free slot is retired with no watchdog probe
        // pending (so no stale probe can reach its next occupant), and a
        // retired slot off the free list is either awaiting its probe or
        // reaped, never reused.
        let mut free = vec![false; slots];
        for &f in &self.msgs.free {
            let f = f as usize;
            assert!(!free[f], "deep check: slot {f} freed twice");
            free[f] = true;
            assert!(
                self.msgs.hot[f].done,
                "deep check: live message in free slot {f}"
            );
            assert!(
                !self.msgs.hot[f].stall_armed,
                "deep check: free slot {f} still has a watchdog probe pending"
            );
        }
        let reaped = (0..slots)
            .filter(|&i| self.msgs.hot[i].done && !free[i] && !self.msgs.hot[i].stall_armed)
            .count() as u64;
        assert_eq!(
            reaped, c.stalled,
            "deep check: retired slots neither free nor awaiting a probe ({reaped}) vs stalled ({})",
            c.stalled
        );
        // External ids: the occupied slots hold distinct ids, each already
        // handed out.
        let mut ids: Vec<u64> = (0..slots)
            .filter(|&i| !free[i])
            .map(|i| self.msgs.cold[i].id.0)
            .collect();
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "deep check: two slots hold one message id"
        );
        assert!(
            ids.last().is_none_or(|&id| id < self.msgs.injected),
            "deep check: a slot holds an id not yet handed out"
        );
        // Channel ownership: every channel a live message is crossing or
        // holding must be busy with exactly that message. Under path-holding
        // the claims cover the busy set exactly (a bijection, so no channel
        // has two holders); under facility queueing, channels mid-body-drain
        // are busy without a claim, so coverage is one-sided.
        // Under path-holding a live message also holds every channel its
        // header crossed, so its held path is exactly `hops` long.
        let mut owned = 0usize;
        for (i, h) in self.msgs.hot.iter().enumerate() {
            if h.done {
                assert!(
                    h.held_head == NONE,
                    "deep check: retired message m{i} still has a held path"
                );
                continue;
            }
            if h.crossing != NONE {
                assert_eq!(
                    self.chans.busy[h.crossing as usize], i as u32,
                    "deep check: m{i} crossing c{} it does not own",
                    h.crossing
                );
                owned += 1;
            }
            let mut held = 0u32;
            let mut ch = h.held_head;
            while ch != NONE {
                assert_eq!(
                    self.chans.busy[ch as usize], i as u32,
                    "deep check: m{i} holds c{ch} it does not own"
                );
                owned += 1;
                held += 1;
                assert!(
                    owned <= self.chans.busy.len(),
                    "deep check: held-path cycle at m{i}"
                );
                ch = self.chans.held_next[ch as usize];
            }
            if self.cfg.release == ReleaseMode::PathHolding {
                assert_eq!(
                    held, h.hops,
                    "deep check: m{i} holds {held} channels after {} hops",
                    h.hops
                );
            }
        }
        let busy = self.chans.busy.iter().filter(|&&b| b != NONE).count();
        if self.cfg.release == ReleaseMode::PathHolding {
            assert_eq!(
                owned, busy,
                "deep check: channel ownership bijection ({owned} claims vs {busy} busy)"
            );
        } else {
            assert!(
                owned <= busy,
                "deep check: more ownership claims ({owned}) than busy channels ({busy})"
            );
        }
        // Per-channel: no retired holder, and the waiter FIFO agrees with
        // its length field, its tail pointer and each waiter's back-pointer.
        let mut queued = 0u64;
        for i in 0..self.chans.busy.len() {
            let h = self.chans.busy[i];
            if h != NONE {
                assert!(
                    !self.msgs.hot[h as usize].done,
                    "deep check: channel c{i} held by retired message m{h}"
                );
            }
            let mut nw = 0u32;
            let mut last = NONE;
            let mut w = self.chans.waiter_head[i];
            while w != NONE {
                assert_eq!(
                    self.msgs.hot[w as usize].waiting_on, i as u32,
                    "deep check: waiter m{w} on c{i} records a different channel"
                );
                assert!(
                    !self.msgs.hot[w as usize].done,
                    "deep check: retired message m{w} still queued on c{i}"
                );
                nw += 1;
                assert!(
                    nw as usize <= slots,
                    "deep check: waiter-list cycle on c{i}"
                );
                last = w;
                w = self.msgs.hot[w as usize].next_waiter;
            }
            assert_eq!(
                nw, self.chans.waiters_len[i],
                "deep check: waiter count on c{i}"
            );
            assert_eq!(
                last, self.chans.waiter_tail[i],
                "deep check: waiter tail on c{i}"
            );
            queued += u64::from(nw);
        }
        let waiting = (self.msgs.hot.iter())
            .filter(|h| !h.done && h.waiting_on != NONE)
            .count() as u64;
        assert_eq!(
            queued, waiting,
            "deep check: queued headers vs messages recorded as waiting"
        );
    }
}

impl Network<Mesh> {
    /// The mesh being simulated (compatibility accessor for the default
    /// topology; generic code should use [`Network::topology`]).
    pub fn mesh(&self) -> &Mesh {
        self.topology()
    }
}
