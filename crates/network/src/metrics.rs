//! Observation, decoupled from the engine.
//!
//! The engine ([`crate::engine::Network`]) simulates; everything that merely
//! *watches* the simulation — throughput counters, channel utilization,
//! execution traces, experiment-specific probes — implements [`MetricsSink`]
//! and receives a callback per observable event. The engine's own
//! bookkeeping never depends on what sinks exist, so adding observation
//! cannot perturb results, and sinks are `Send` so a whole network (with its
//! attached sinks) can move to a worker thread of the replication harness.
//!
//! The three observers the engine historically hard-coded are provided here
//! as sinks: [`CountersSink`] (aggregate throughput), [`UtilizationSink`]
//! (per-channel occupancy), and [`TraceSink`] (bounded event trace). The
//! arena engine builds in a counters and a trace sink, behind
//! `Network::counters` / `trace`; channel occupancy is left to the runs that
//! attach an observer for it (telemetry's channel heatmap), and only the
//! `classic` oracle still builds in a [`UtilizationSink`]. Additional custom
//! sinks attach with [`crate::engine::Network::add_sink`].
//!
//! [`TraceSink`] records the engine's one event record,
//! [`crate::trace::Event`] — the same record the telemetry collector logs —
//! into the ring of [`crate::trace::Trace`], which keeps the newest. It
//! keeps a fixed subset of callbacks and fields (see its `MetricsSink`
//! impl), so trace dumps stay byte-stable and arena-vs-classic traces stay
//! comparable.

use crate::message::MessageId;
use crate::trace::{Event, EventKind, Trace};
use wormcast_sim::{SimDuration, SimTime};
use wormcast_topology::{ChannelId, NodeId};

/// Receiver of engine observation events.
///
/// All methods default to no-ops, so a sink implements only what it needs.
/// Sinks must be `Send`: the replication harness moves networks (and their
/// sinks) into worker threads.
#[allow(unused_variables)]
pub trait MetricsSink: Send {
    /// Injection of a message was requested (`now` is the requested time).
    fn on_inject(&mut self, now: SimTime, m: MessageId, src: NodeId) {}
    /// An injection port was granted at `node`.
    fn on_port_grant(&mut self, now: SimTime, m: MessageId, node: NodeId) {}
    /// The start-up latency elapsed; the header is about to leave `node`.
    fn on_startup_done(&mut self, now: SimTime, m: MessageId, node: NodeId) {}
    /// The header finished crossing `ch` and sits at node `at`.
    fn on_header_hop(&mut self, now: SimTime, m: MessageId, at: NodeId, ch: ChannelId) {}
    /// The header joined the FIFO queue of busy channel `ch`
    /// (`queue_len` includes the new waiter).
    fn on_channel_wait(&mut self, now: SimTime, m: MessageId, ch: ChannelId, queue_len: usize) {}
    /// Channel `ch` was granted to message `m`.
    fn on_channel_grant(&mut self, now: SimTime, m: MessageId, ch: ChannelId) {}
    /// Channel `ch` was released (occupant unknown in facility mode).
    fn on_channel_release(&mut self, now: SimTime, ch: ChannelId) {}
    /// A receiver node absorbed a copy of the payload (`flits` long).
    fn on_deliver(&mut self, now: SimTime, m: MessageId, node: NodeId, flits: u64) {}
    /// The tail arrived at the final destination; the message is done.
    fn on_complete(&mut self, now: SimTime, m: MessageId, node: NodeId) {}
    /// Channel `ch` went down (scheduled fault took effect).
    fn on_link_failed(&mut self, now: SimTime, ch: ChannelId) {}
    /// Channel `ch` came back up (end of a transient outage).
    fn on_link_restored(&mut self, now: SimTime, ch: ChannelId) {}
    /// An adaptive header at `at` steered around at least one faulted
    /// candidate channel (a successful in-flight re-route).
    fn on_reroute(&mut self, now: SimTime, m: MessageId, at: NodeId) {}
    /// The delivery watchdog declared message `m` stalled at `at`;
    /// `undelivered` destinations will never receive it.
    fn on_stalled(&mut self, now: SimTime, m: MessageId, at: NodeId, undelivered: u64) {}
    /// A scenario-schedule phase boundary (ramp breakpoint or hotspot step)
    /// was crossed; `phase` numbers boundaries from 1 in time order.
    fn on_schedule_phase(&mut self, now: SimTime, phase: u32) {}
}

/// Aggregate counters for throughput accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages whose injection has been requested.
    pub injected: u64,
    /// Messages fully completed (tail arrived at final destination).
    pub completed: u64,
    /// Payload copies delivered (≥ completed for multidestination messages).
    pub deliveries: u64,
    /// Total flits delivered across all copies.
    pub flits_delivered: u64,
    /// Messages reaped by the delivery watchdog (never completed).
    pub stalled: u64,
    /// Destination copies lost to stalled messages.
    pub undelivered: u64,
    /// In-flight adaptive re-routes around faulted channels.
    pub reroutes: u64,
    /// Link-down transitions that took effect.
    pub link_failures: u64,
    /// Link-up transitions that took effect.
    pub link_restores: u64,
}

/// Maintains [`Counters`] from the event stream.
#[derive(Debug, Default)]
pub struct CountersSink {
    counters: Counters,
}

impl CountersSink {
    /// The counters accumulated so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }
}

impl MetricsSink for CountersSink {
    fn on_inject(&mut self, _now: SimTime, _m: MessageId, _src: NodeId) {
        self.counters.injected += 1;
    }
    fn on_deliver(&mut self, _now: SimTime, _m: MessageId, _node: NodeId, flits: u64) {
        self.counters.deliveries += 1;
        self.counters.flits_delivered += flits;
    }
    fn on_complete(&mut self, _now: SimTime, _m: MessageId, _node: NodeId) {
        self.counters.completed += 1;
    }
    fn on_link_failed(&mut self, _now: SimTime, _ch: ChannelId) {
        self.counters.link_failures += 1;
    }
    fn on_link_restored(&mut self, _now: SimTime, _ch: ChannelId) {
        self.counters.link_restores += 1;
    }
    fn on_reroute(&mut self, _now: SimTime, _m: MessageId, _at: NodeId) {
        self.counters.reroutes += 1;
    }
    fn on_stalled(&mut self, _now: SimTime, _m: MessageId, _at: NodeId, undelivered: u64) {
        self.counters.stalled += 1;
        self.counters.undelivered += undelivered;
    }
}

/// Tracks per-channel occupancy time from grant/release events.
#[derive(Debug)]
pub struct UtilizationSink {
    busy_since: Vec<SimTime>,
    busy_total: Vec<SimDuration>,
}

impl UtilizationSink {
    /// A sink observing `num_channels` channels.
    pub fn new(num_channels: usize) -> Self {
        UtilizationSink {
            busy_since: vec![SimTime::ZERO; num_channels],
            busy_total: vec![SimDuration::ZERO; num_channels],
        }
    }

    /// Fraction of `[0, now]` each channel has been occupied, indexed by
    /// [`ChannelId`]. Boundary slots with no physical link are always 0.
    pub fn utilization(&self, now: SimTime) -> Vec<f64> {
        let elapsed = now.as_us().max(1e-12);
        self.busy_total
            .iter()
            .map(|t| t.as_us() / elapsed)
            .collect()
    }
}

impl MetricsSink for UtilizationSink {
    fn on_channel_grant(&mut self, now: SimTime, _m: MessageId, ch: ChannelId) {
        self.busy_since[ch.index()] = now;
    }
    fn on_channel_release(&mut self, now: SimTime, ch: ChannelId) {
        self.busy_total[ch.index()] += now.since(self.busy_since[ch.index()]);
    }
}

/// Records the bounded execution trace of [`crate::trace`].
#[derive(Debug, Default)]
pub struct TraceSink {
    trace: Trace,
}

impl TraceSink {
    /// Start recording with the given ring-buffer capacity.
    pub fn enable(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Whether recording is on: a disabled sink ignores every callback,
    /// so an emitter may skip it.
    pub fn is_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Record one event, stamped `rep: 0` (the trace describes a single
    /// run). Checks `is_enabled` first, so a disabled trace builds nothing.
    fn push(
        &mut self,
        now: SimTime,
        kind: EventKind,
        msg: Option<MessageId>,
        node: Option<NodeId>,
        ch: Option<ChannelId>,
        q: Option<u64>,
    ) {
        if self.trace.is_enabled() {
            self.trace.push(Event {
                msg: msg.map(|m| m.0),
                node: node.map(|n| n.0),
                ch: ch.map(|c| c.0),
                q,
                ..Event::new(now.as_ps(), kind, 0)
            });
        }
    }
}

/// The trace records the callbacks and fields below and nothing more: no
/// `link_down`, `link_up`, `reroute` or `stalled` (the `classic` oracle
/// never emits the last two, so arena-vs-classic traces stay equal under
/// faults), no `q` on `channel_wait` and no `flits` on `deliver`, so trace
/// dumps stay byte-stable.
impl MetricsSink for TraceSink {
    fn on_inject(&mut self, now: SimTime, m: MessageId, src: NodeId) {
        self.push(now, EventKind::Inject, Some(m), Some(src), None, None);
    }
    fn on_port_grant(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        self.push(now, EventKind::PortGrant, Some(m), Some(node), None, None);
    }
    fn on_startup_done(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        self.push(now, EventKind::StartupDone, Some(m), Some(node), None, None);
    }
    fn on_header_hop(&mut self, now: SimTime, m: MessageId, at: NodeId, ch: ChannelId) {
        self.push(now, EventKind::Header, Some(m), Some(at), Some(ch), None);
    }
    fn on_channel_wait(&mut self, now: SimTime, m: MessageId, ch: ChannelId, _queue_len: usize) {
        self.push(now, EventKind::ChannelWait, Some(m), None, Some(ch), None);
    }
    fn on_channel_grant(&mut self, now: SimTime, m: MessageId, ch: ChannelId) {
        self.push(now, EventKind::ChannelGrant, Some(m), None, Some(ch), None);
    }
    fn on_channel_release(&mut self, now: SimTime, ch: ChannelId) {
        self.push(now, EventKind::ChannelRelease, None, None, Some(ch), None);
    }
    fn on_deliver(&mut self, now: SimTime, m: MessageId, node: NodeId, _flits: u64) {
        self.push(now, EventKind::Deliver, Some(m), Some(node), None, None);
    }
    fn on_complete(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        self.push(now, EventKind::Complete, Some(m), Some(node), None, None);
    }
    fn on_schedule_phase(&mut self, now: SimTime, phase: u32) {
        let q = Some(phase as u64);
        self.push(now, EventKind::SchedulePhase, None, None, None, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sink_accumulates() {
        let mut s = CountersSink::default();
        s.on_inject(SimTime::ZERO, MessageId(0), NodeId(0));
        s.on_deliver(SimTime::ZERO, MessageId(0), NodeId(1), 64);
        s.on_deliver(SimTime::ZERO, MessageId(0), NodeId(2), 64);
        s.on_complete(SimTime::ZERO, MessageId(0), NodeId(2));
        let c = s.counters();
        assert_eq!(c.injected, 1);
        assert_eq!(c.completed, 1);
        assert_eq!(c.deliveries, 2);
        assert_eq!(c.flits_delivered, 128);
    }

    #[test]
    fn counters_sink_tracks_reliability_events() {
        let mut s = CountersSink::default();
        s.on_link_failed(SimTime::ZERO, ChannelId(3));
        s.on_link_restored(SimTime::from_us(5.0), ChannelId(3));
        s.on_reroute(SimTime::from_us(1.0), MessageId(0), NodeId(4));
        s.on_stalled(SimTime::from_us(9.0), MessageId(1), NodeId(2), 3);
        let c = s.counters();
        assert_eq!(c.link_failures, 1);
        assert_eq!(c.link_restores, 1);
        assert_eq!(c.reroutes, 1);
        assert_eq!(c.stalled, 1);
        assert_eq!(c.undelivered, 3);
    }

    #[test]
    fn utilization_sink_integrates_occupancy() {
        let mut s = UtilizationSink::new(4);
        let ch = ChannelId(2);
        s.on_channel_grant(SimTime::from_us(1.0), MessageId(0), ch);
        s.on_channel_release(SimTime::from_us(3.0), ch);
        let u = s.utilization(SimTime::from_us(4.0));
        assert!((u[2] - 0.5).abs() < 1e-12);
        assert_eq!(u[0], 0.0);
    }

    #[test]
    fn sinks_are_send() {
        fn assert_send<S: Send>() {}
        assert_send::<CountersSink>();
        assert_send::<UtilizationSink>();
        assert_send::<TraceSink>();
        assert_send::<Box<dyn MetricsSink>>();
    }
}
