//! The reference wormhole engine (heap queue, pointer-rich state).
//!
//! This is the pre-overhaul implementation of the network engine, retained
//! verbatim as the semantic oracle: the differential test suite runs it and
//! the arena'd [`crate::engine::Network`] over identical seeded workloads
//! and asserts event-for-event equal deliveries, counters, and traces, and
//! the engine micro-bench uses it as the speedup baseline. It is not part
//! of the supported API and will be removed once the active-set engine has
//! soaked for a release.
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

use crate::config::{NetworkConfig, ReleaseMode};
use crate::fault::{FaultKind, FaultPlan};
use crate::message::{Delivery, MessageId, MessageSpec, Route};
use crate::metrics::{CountersSink, MetricsSink, TraceSink, UtilizationSink};
use crate::trace::Trace;
use std::collections::VecDeque;
use wormcast_routing::{queue_aware_pick, RoutingFunction, SelectPolicy, SimTopology};
use wormcast_sim::{EventQueue, SimTime};
use wormcast_topology::{ChannelId, Mesh, NodeId, Sign};

pub use crate::metrics::Counters;

#[derive(Debug)]
enum Ev {
    /// Injection request reaches the source PE: contend for a port.
    Arrive(MessageId),
    /// Start-up latency has elapsed; the header takes its first hop.
    StartupDone(MessageId),
    /// Header finished crossing `crossing` and is at the next router.
    Header(MessageId),
    /// Body fully arrived at a receiver node.
    Deliver(MessageId, NodeId),
    /// Tail arrived at the final destination: release the whole path.
    Complete(MessageId),
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
    /// A schedule phase boundary (purely observational).
    PhaseMark(u32),
}

struct Chan {
    busy: Option<MessageId>,
    waiters: VecDeque<MessageId>,
}

struct Port {
    free: usize,
    waiters: VecDeque<MessageId>,
}

struct Msg {
    spec: MessageSpec,
    requested_at: SimTime,
    /// Node the header currently occupies.
    cur: NodeId,
    /// Direction of the hop that brought the header to `cur`.
    prev: Option<(usize, Sign)>,
    /// Channels held, in acquisition order (path-holding mode only).
    held: Vec<ChannelId>,
    /// Number of channels crossed so far.
    hops_taken: u32,
    /// Index of the next hop for fixed routes.
    next_fixed: usize,
    /// Channel the header is currently crossing.
    crossing: Option<ChannelId>,
    /// Channel whose queue the header is waiting in.
    waiting_on: Option<ChannelId>,
    /// Delivery mask for fixed routes, aligned with path nodes.
    deliver_mask: Vec<bool>,
    done: bool,
}

/// The reference engine: a simulated wormhole-switched network over
/// topology `T`, kept only as the differential-test oracle. New code uses
/// [`crate::engine::Network`].
///
/// # Examples
///
/// ```
/// use wormcast_network::classic::Network;
/// use wormcast_network::{MessageSpec, NetworkConfig, OpId, Route};
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
    queue: EventQueue<Ev>,
    msgs: Vec<Msg>,
    channels: Vec<Chan>,
    ports: Vec<Port>,
    outbox: VecDeque<Delivery>,
    /// Built-in observers (see [`crate::metrics`]): the engine emits events,
    /// these sinks aggregate them. Kept as concrete fields so the historical
    /// accessors (`counters`, `channel_utilization`, `trace`) stay cheap.
    sink_counters: CountersSink,
    sink_util: UtilizationSink,
    sink_trace: TraceSink,
    /// User-attached observers.
    extra_sinks: Vec<Box<dyn MetricsSink>>,
    /// Channels disabled by fault injection (never granted again).
    failed: std::collections::HashSet<ChannelId>,
    /// Per-channel crossing-time multiplier (1 = full speed), driven by
    /// scheduled bandwidth modulation (`SetSpeed`).
    speed: Vec<u32>,
    /// Time of the last dispatched event, for the monotone-clock deep check.
    #[cfg(feature = "invariants")]
    iv_last_now: SimTime,
}

impl<T: SimTopology> Network<T> {
    /// Create a network over `topo` with the given configuration and the
    /// routing function used by adaptive messages.
    pub fn new(topo: T, cfg: NetworkConfig, rf: Box<dyn RoutingFunction<T>>) -> Self {
        let channels = (0..topo.num_channels())
            .map(|_| Chan {
                busy: None,
                waiters: VecDeque::new(),
            })
            .collect();
        let ports = (0..topo.num_nodes())
            .map(|_| Port {
                free: cfg.inject_ports,
                waiters: VecDeque::new(),
            })
            .collect();
        let num_channels = topo.num_channels();
        Network {
            topo,
            cfg,
            rf,
            queue: EventQueue::new(),
            msgs: Vec::new(),
            channels,
            ports,
            outbox: VecDeque::new(),
            sink_counters: CountersSink::default(),
            sink_util: UtilizationSink::new(num_channels),
            sink_trace: TraceSink::default(),
            extra_sinks: Vec::new(),
            failed: std::collections::HashSet::new(),
            speed: vec![1; num_channels],
            #[cfg(feature = "invariants")]
            iv_last_now: SimTime::ZERO,
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

    /// Fan one observation event out to the built-in and attached sinks.
    #[inline]
    fn emit(&mut self, f: impl Fn(&mut dyn MetricsSink)) {
        f(&mut self.sink_counters);
        f(&mut self.sink_util);
        f(&mut self.sink_trace);
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
            self.channels[ch.index()].busy.is_none(),
            "cannot fail an occupied channel"
        );
        self.failed.insert(ch);
    }

    /// Whether a channel has been failed.
    pub fn is_failed(&self, ch: ChannelId) -> bool {
        self.failed.contains(&ch)
    }

    /// Schedule every event of a [`FaultPlan`] on the simulation clock
    /// (oracle mirror of `engine::Network::schedule_faults`): planned
    /// transitions may hit occupied channels mid-flight — the crossing
    /// drains, the channel stays down until a matching `LinkUp`, and each
    /// applied transition is emitted to the metrics sinks.
    pub fn schedule_faults(&mut self, plan: &FaultPlan) {
        for e in plan.events() {
            match e.kind {
                FaultKind::LinkDown(ch) => self.queue.schedule(e.at, Ev::LinkDown(ch)),
                FaultKind::LinkUp(ch) => self.queue.schedule(e.at, Ev::LinkUp(ch)),
            };
        }
    }

    /// Schedule per-channel bandwidth transitions (oracle mirror of
    /// `engine::Network::schedule_speed_transitions`).
    pub fn schedule_speed_transitions(&mut self, transitions: &[wormcast_sim::SpeedTransition]) {
        for t in transitions {
            self.queue
                .schedule(t.at, Ev::SetSpeed(ChannelId(t.channel), t.factor));
        }
    }

    /// Schedule observational phase-boundary marks (oracle mirror of
    /// `engine::Network::schedule_phase_marks`).
    pub fn schedule_phase_marks(&mut self, marks: &[(SimTime, u32)]) {
        for &(at, phase) in marks {
            self.queue.schedule(at, Ev::PhaseMark(phase));
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
        self.queue.now()
    }

    /// Aggregate counters.
    pub fn counters(&self) -> Counters {
        self.sink_counters.counters()
    }

    /// Messages injected but not yet fully completed.
    pub fn in_flight(&self) -> u64 {
        let c = self.counters();
        c.injected - c.completed
    }

    /// Request injection of `spec` at absolute time `at` (≥ now).
    ///
    /// # Panics
    /// Panics if the spec is malformed: zero length, an adaptive route to
    /// self, or a fixed or run route that does not start at `spec.src`.
    ///
    /// A [`Route::Runs`] is taken as the coded path it expands to, so the
    /// model below sees only fixed and adaptive routes.
    pub fn inject_at(&mut self, at: SimTime, mut spec: MessageSpec) -> MessageId {
        assert!(spec.length > 0, "messages need at least one flit");
        if let Route::Runs(rp) = spec.route {
            spec.route = Route::Fixed(rp.coded(&self.topo));
        }
        let deliver_mask = match &spec.route {
            Route::Fixed(cp) => {
                assert_eq!(cp.src(), spec.src, "fixed route must start at src");
                cp.deliver_mask().to_vec()
            }
            Route::Adaptive { dst } => {
                assert_ne!(*dst, spec.src, "adaptive route to self");
                Vec::new()
            }
            Route::Runs(_) => unreachable!("converted to a fixed path above"),
        };
        let id = MessageId(self.msgs.len() as u64);
        self.msgs.push(Msg {
            cur: spec.src,
            requested_at: at,
            prev: None,
            held: Vec::new(),
            hops_taken: 0,
            next_fixed: 0,
            crossing: None,
            waiting_on: None,
            deliver_mask,
            done: false,
            spec,
        });
        let src = self.msgs[id.index()].spec.src;
        self.emit(|s| s.on_inject(at, id, src));
        self.queue.schedule(at, Ev::Arrive(id));
        id
    }

    /// Take all deliveries recorded so far.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        self.outbox.drain(..).collect()
    }

    /// Append all deliveries recorded so far to `out` (API parity with the
    /// arena engine, so the micro-bench drives both with identical code).
    pub fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        out.extend(self.outbox.drain(..));
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
        while let Some(t) = self.queue.peek_time() {
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
        self.queue.peek_time()
    }

    /// Process a single event. Returns false when no events remain.
    pub fn step(&mut self) -> bool {
        let Some((now, ev)) = self.queue.pop() else {
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
            Ev::SetSpeed(ch, factor) => self.speed[ch.index()] = factor.max(1),
            Ev::PhaseMark(phase) => self.emit(|s| s.on_schedule_phase(now, phase)),
        }
        #[cfg(feature = "invariants")]
        if self.cfg.check_invariants {
            self.deep_check_invariants(now);
        }
        true
    }

    fn on_arrive(&mut self, now: SimTime, m: MessageId) {
        let src = self.msgs[m.index()].spec.src;
        let port = &mut self.ports[src.index()];
        if port.free > 0 {
            port.free -= 1;
            let ts = if self.msgs[m.index()].spec.charge_startup {
                self.cfg.startup
            } else {
                wormcast_sim::SimDuration::ZERO
            };
            self.emit(|s| s.on_port_grant(now, m, src));
            self.queue.schedule(now + ts, Ev::StartupDone(m));
        } else {
            port.waiters.push_back(m);
        }
    }

    fn on_port_release(&mut self, now: SimTime, node: NodeId) {
        let port = &mut self.ports[node.index()];
        if let Some(m) = port.waiters.pop_front() {
            // Port passes straight to the next waiter.
            let ts = if self.msgs[m.index()].spec.charge_startup {
                self.cfg.startup
            } else {
                wormcast_sim::SimDuration::ZERO
            };
            self.emit(|s| s.on_port_grant(now, m, node));
            self.queue.schedule(now + ts, Ev::StartupDone(m));
        } else {
            port.free += 1;
        }
    }

    fn on_startup_done(&mut self, now: SimTime, m: MessageId) {
        let node = self.msgs[m.index()].cur;
        self.emit(|s| s.on_startup_done(now, m, node));
        self.advance_header(now, m);
    }

    fn on_header(&mut self, now: SimTime, m: MessageId) {
        let msg = &mut self.msgs[m.index()];
        let ch = msg
            .crossing
            .take()
            .expect("Header event without a crossing channel");
        let (from, to) = self.topo.channel_endpoints(ch);
        debug_assert_eq!(from, msg.cur, "header crossed a channel it was not at");
        let (dim, sign) = self.topo.hop_direction(ch);
        msg.cur = to;
        msg.prev = Some((dim, sign));
        let first_hop = msg.hops_taken == 0;
        msg.hops_taken += 1;
        let body = self.cfg.body_time(msg.spec.length);
        match self.cfg.release {
            ReleaseMode::PathHolding => msg.held.push(ch),
            ReleaseMode::AfterTailCrossing => {
                // The tail finishes crossing one body-time after the header;
                // then the channel frees regardless of downstream progress
                // (virtual cut-through buffering).
                self.queue.schedule(now + body, Ev::ReleaseOne(ch));
            }
        }
        if first_hop {
            // Tail leaves the source one body-time after the header crossed
            // the first channel; free the injection port then.
            let src = self.msgs[m.index()].spec.src;
            self.queue.schedule(now + body, Ev::PortRelease(src));
        }
        self.emit(|s| s.on_header_hop(now, m, to, ch));
        self.advance_header(now, m);
    }

    /// Header is settled at `msg.cur`: absorb if a receiver, complete if
    /// final, otherwise contend for the next channel.
    fn advance_header(&mut self, now: SimTime, m: MessageId) {
        let body = self.cfg.body_time(self.msgs[m.index()].spec.length);
        let (is_receiver, is_final) = {
            let msg = &self.msgs[m.index()];
            match &msg.spec.route {
                Route::Fixed(cp) => {
                    let idx = msg.next_fixed; // nodes visited == hops taken
                    let fin = idx == cp.path.hops.len();
                    (msg.deliver_mask[idx], fin)
                }
                Route::Adaptive { dst } => {
                    let fin = msg.cur == *dst;
                    (fin, fin)
                }
                Route::Runs(_) => unreachable!("stored as a fixed path"),
            }
        };
        if is_receiver {
            let node = self.msgs[m.index()].cur;
            self.queue.schedule(now + body, Ev::Deliver(m, node));
        }
        if is_final {
            self.queue.schedule(now + body, Ev::Complete(m));
            return;
        }
        // Choose the next channel.
        let next = {
            let msg = &self.msgs[m.index()];
            match &msg.spec.route {
                Route::Fixed(cp) => vec![cp.path.hops[msg.next_fixed]],
                Route::Adaptive { dst } => {
                    let cands =
                        self.rf
                            .candidates(&self.topo, msg.spec.src, msg.cur, msg.prev, *dst);
                    assert!(
                        !cands.is_empty(),
                        "routing function dead-ended at {} toward {}",
                        msg.cur,
                        dst
                    );
                    cands
                }
                Route::Runs(_) => unreachable!("stored as a fixed path"),
            }
        };
        // Fault injection: adaptive messages route around failed channels
        // when a live candidate exists; otherwise (and for fixed paths
        // crossing a failed link) the message stalls on a dead channel.
        let live: Vec<ChannelId> = next
            .iter()
            .copied()
            .filter(|c| !self.failed.contains(c))
            .collect();
        let pick_from: &[ChannelId] = if live.is_empty() { &next } else { &live };
        let adaptive = matches!(self.msgs[m.index()].spec.route, Route::Adaptive { .. });
        if adaptive && self.rf.select_policy() == SelectPolicy::QueueAware {
            // QAB: minimise local backlog — a free channel counts 0, a busy
            // one 1 + its waiting headers, dead ones sort last; ties break
            // on the raw channel index (same rule, bit for bit, as the
            // arena engine).
            let ch = queue_aware_pick(&next, |c| {
                if self.failed.contains(&c) {
                    u64::MAX
                } else if self.channels[c.index()].busy.is_none() {
                    0
                } else {
                    1 + self.channels[c.index()].waiters.len() as u64
                }
            });
            if self.channels[ch.index()].busy.is_none() && !self.failed.contains(&ch) {
                self.grant(now, m, ch);
            } else {
                self.channels[ch.index()].waiters.push_back(m);
                self.msgs[m.index()].waiting_on = Some(ch);
                let queue_len = self.channels[ch.index()].waiters.len();
                self.emit(|s| s.on_channel_wait(now, m, ch, queue_len));
            }
            return;
        }
        // First free candidate wins.
        if let Some(&ch) = pick_from
            .iter()
            .find(|&&c| self.channels[c.index()].busy.is_none() && !self.failed.contains(&c))
        {
            self.grant(now, m, ch);
            return;
        }
        // All busy (or failed): wait on the candidate with the shortest
        // queue.
        let &wait_ch = pick_from
            .iter()
            .min_by_key(|&&c| self.channels[c.index()].waiters.len())
            .expect("candidates nonempty");
        self.channels[wait_ch.index()].waiters.push_back(m);
        self.msgs[m.index()].waiting_on = Some(wait_ch);
        let queue_len = self.channels[wait_ch.index()].waiters.len();
        self.emit(|s| s.on_channel_wait(now, m, wait_ch, queue_len));
    }

    /// Give channel `ch` to message `m` and start the crossing.
    fn grant(&mut self, now: SimTime, m: MessageId, ch: ChannelId) {
        let chan = &mut self.channels[ch.index()];
        debug_assert!(chan.busy.is_none(), "granting a busy channel");
        chan.busy = Some(m);
        let msg = &mut self.msgs[m.index()];
        msg.crossing = Some(ch);
        msg.waiting_on = None;
        if matches!(msg.spec.route, Route::Fixed(_)) {
            msg.next_fixed += 1;
        }
        self.emit(|s| s.on_channel_grant(now, m, ch));
        let cross = self.cfg.hop_time().times(self.speed[ch.index()] as u64);
        self.queue.schedule(now + cross, Ev::Header(m));
    }

    fn on_deliver(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        let flits = self.msgs[m.index()].spec.length;
        self.emit(|s| s.on_deliver(now, m, node, flits));
        let msg = &self.msgs[m.index()];
        self.outbox.push_back(Delivery {
            message: m,
            op: msg.spec.op,
            tag: msg.spec.tag,
            node,
            src: msg.spec.src,
            requested_at: msg.requested_at,
            delivered_at: now,
        });
    }

    fn on_complete(&mut self, now: SimTime, m: MessageId) {
        let held = std::mem::take(&mut self.msgs[m.index()].held);
        if self.cfg.release == ReleaseMode::PathHolding {
            // Zero-hop routes are rejected at construction, so a completing
            // message always holds at least its first channel here.
            assert!(
                !held.is_empty(),
                "message completed without traversing any channel"
            );
        }
        for ch in held {
            self.release(now, ch);
        }
        let msg = &mut self.msgs[m.index()];
        msg.done = true;
        let node = msg.cur;
        self.emit(|s| s.on_complete(now, m, node));
    }

    /// A scheduled `LinkDown` takes effect (idempotent, mirrors the arena
    /// engine): a message mid-crossing drains normally; the channel simply
    /// stops being granted once released.
    fn on_link_down(&mut self, now: SimTime, ch: ChannelId) {
        if self.failed.insert(ch) {
            self.emit(|s| s.on_link_failed(now, ch));
        }
    }

    /// A scheduled `LinkUp` takes effect: the channel rejoins the network
    /// and, if idle, is handed to the head of its wait queue (mirrors the
    /// arena engine; the oracle has no watchdog, so no epochs to bump).
    fn on_link_up(&mut self, now: SimTime, ch: ChannelId) {
        if self.failed.remove(&ch) {
            self.emit(|s| s.on_link_restored(now, ch));
            if self.channels[ch.index()].busy.is_none() {
                if let Some(m) = self.channels[ch.index()].waiters.pop_front() {
                    self.grant(now, m, ch);
                }
            }
        }
    }

    /// Release a channel and hand it to the first waiter, if any.
    fn release(&mut self, now: SimTime, ch: ChannelId) {
        self.channels[ch.index()].busy = None;
        self.emit(|s| s.on_channel_release(now, ch));
        if self.failed.contains(&ch) {
            // A channel failed while draining stays dead: waiters stall.
            return;
        }
        if let Some(m) = self.channels[ch.index()].waiters.pop_front() {
            self.grant(now, m, ch);
        }
    }

    /// Fraction of elapsed simulated time each channel has been occupied.
    /// Index by [`ChannelId`]; boundary slots that have no physical link are
    /// always 0.
    pub fn channel_utilization(&self) -> Vec<f64> {
        self.sink_util.utilization(self.now())
    }

    /// Current queue length per channel (headers waiting).
    pub fn channel_queue_lengths(&self) -> Vec<usize> {
        self.channels.iter().map(|c| c.waiters.len()).collect()
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
        for (i, chan) in self.channels.iter().enumerate() {
            if let Some(m) = chan.busy {
                assert!(
                    !self.msgs[m.index()].done,
                    "channel c{i} held by completed message"
                );
            }
            for &w in &chan.waiters {
                assert_eq!(
                    self.msgs[w.index()].waiting_on,
                    Some(ChannelId(i as u32)),
                    "waiter/channel bookkeeping mismatch"
                );
            }
        }
    }
}

#[cfg(feature = "invariants")]
impl<T: SimTopology> Network<T> {
    /// Strong structural audit of the oracle's state, the classic-engine
    /// analogue of `engine::Network::deep_check_invariants`: monotone clock,
    /// counter/state agreement, channel-ownership bijection under
    /// path-holding, no channel held by a retired message, consistent
    /// waiter queues. Runs after every dispatched event when
    /// [`NetworkConfig::check_invariants`] is set.
    pub fn deep_check_invariants(&mut self, now: SimTime) {
        assert!(
            now >= self.iv_last_now,
            "deep check: clock went backwards ({} ps after {} ps)",
            now.as_ps(),
            self.iv_last_now.as_ps()
        );
        self.iv_last_now = now;
        let c = self.sink_counters.counters();
        assert_eq!(
            c.injected as usize,
            self.msgs.len(),
            "deep check: injected counter diverges from message state"
        );
        let done = self.msgs.iter().filter(|m| m.done).count() as u64;
        assert_eq!(
            done,
            c.completed + c.stalled,
            "deep check: retirement accounting"
        );
        let mut owned = 0usize;
        for (i, msg) in self.msgs.iter().enumerate() {
            if msg.done {
                assert!(
                    msg.held.is_empty(),
                    "deep check: retired message m{i} still has a held path"
                );
                continue;
            }
            if let Some(ch) = msg.crossing {
                assert_eq!(
                    self.channels[ch.index()].busy,
                    Some(MessageId(i as u64)),
                    "deep check: m{i} crossing {ch:?} it does not own"
                );
                owned += 1;
            }
            for &ch in &msg.held {
                assert_eq!(
                    self.channels[ch.index()].busy,
                    Some(MessageId(i as u64)),
                    "deep check: m{i} holds {ch:?} it does not own"
                );
                owned += 1;
            }
        }
        let busy = self.channels.iter().filter(|c| c.busy.is_some()).count();
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
        let mut queued = 0usize;
        for (i, chan) in self.channels.iter().enumerate() {
            if let Some(m) = chan.busy {
                assert!(
                    !self.msgs[m.index()].done,
                    "deep check: channel c{i} held by retired message {m:?}"
                );
            }
            for &w in &chan.waiters {
                assert_eq!(
                    self.msgs[w.index()].waiting_on,
                    Some(ChannelId(i as u32)),
                    "deep check: waiter {w:?} on c{i} records a different channel"
                );
                assert!(
                    !self.msgs[w.index()].done,
                    "deep check: retired message {w:?} still queued on c{i}"
                );
            }
            queued += chan.waiters.len();
        }
        let waiting = self
            .msgs
            .iter()
            .filter(|m| !m.done && m.waiting_on.is_some())
            .count();
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
