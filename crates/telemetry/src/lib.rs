//! `wormcast-telemetry` — the observability layer of the wormcast stack.
//!
//! PR 1 decoupled observation from simulation behind
//! `wormcast_network::MetricsSink`; this crate cashes that in. It provides:
//!
//! * [`hist::LatencyHistogram`] — log-scale (HDR-style) latency histograms
//!   with a fixed bucket layout and pure-integer state, so merging across
//!   replications is exact and order-independent;
//! * a phase-decomposing sink (built from [`Collector`]) recording, per
//!   message: injection→port-grant wait, start-up latency, per-hop channel
//!   wait, delivery latency and completion latency. The sink owns what it
//!   records and hands it back to the collector when the network drops
//!   it, so no callback takes a lock;
//! * [`heatmap::ChannelHeatmap`] — per-channel grant counts, busy time and
//!   max FIFO depth, plus per-node port grants and deliveries;
//! * [`events::EventLog`] — a byte-budgeted NDJSON event exporter (one line
//!   per `MetricsSink` callback; an event no line could fit is counted
//!   without being built, the events whose lines fit the budget are kept
//!   as compact records, and their NDJSON is rendered once, at export)
//!   and the flat-JSON parser/validator used by schema tests and CI;
//! * [`manifest::RunManifest`] — run provenance (seed, config, versions,
//!   wall clock) embedded in every telemetry export.
//!
//! # Zero cost when off
//!
//! Nothing here touches the engine unless a sink is attached. When no
//! telemetry is requested, the workload layer runs the exact same code path
//! as before this crate existed, and experiment outputs are byte-identical.
//!
//! # Determinism contract
//!
//! A [`TelemetryFrame`] is produced per replication and merged by the
//! harness **in replication-index order**. Because histogram and heatmap
//! merges are integer adds/maxes and event logs concatenate in order, the
//! merged frame — and its JSON export — is byte-identical for any `--jobs`
//! count. A replication given an upper bound on the room its cell's event
//! log will have left ([`Observe::event_bound`]) does not store the lines
//! longer than that bound, which the merge would drop anyway, so which
//! bound a replication got (which depends on scheduling) does not show in
//! the output. The only nondeterministic datum in an export is
//! `RunManifest::wall_ms`, which determinism tests zero before comparing.

#![warn(missing_docs)]

pub mod events;
pub mod heatmap;
pub mod hist;
pub mod manifest;
pub mod profile;
pub mod registry;
pub mod span;

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use serde::Serialize;
use wormcast_network::message::MessageId;
use wormcast_network::metrics::MetricsSink;
use wormcast_sim::SimTime;
use wormcast_topology::{ChannelId, NodeId};

pub use events::{Event, EventKind, EventLog};
pub use heatmap::{ChannelHeatmap, HeatmapExport};
pub use hist::{HistogramExport, LatencyHistogram};
pub use manifest::RunManifest;
pub use profile::{strip_nd, ProfileReport, PROFILE_SCHEMA};
pub use registry::{Log2Hist, MetricId, MetricKind, MetricsRegistry, SeriesKey};
pub use span::{Profiler, SpanNode};

/// NDJSON byte budget of a collector's event log, per replication frame
/// (8 MiB).
pub const TELEMETRY_EVENT_BUDGET_DEFAULT: usize = 8 << 20;

/// What to collect beyond the per-phase latency histograms and the
/// contention heatmap, which every observed run records. Constructed once
/// per experiment run from the CLI flags and shared (by reference) with
/// every replication. The default records neither.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySpec {
    /// Record the NDJSON event stream, up to
    /// [`TELEMETRY_EVENT_BUDGET_DEFAULT`] bytes per replication.
    pub events: bool,
    /// Scrape runtime metrics (engine/harness counters) into the
    /// per-replication [`MetricsRegistry`].
    pub profile: bool,
}

impl TelemetrySpec {
    /// Everything on: the NDJSON event stream and runtime metrics (on top
    /// of the histograms and heatmap every observed run records).
    pub fn full() -> Self {
        TelemetrySpec {
            events: true,
            profile: true,
        }
    }
}

/// A [`TelemetrySpec`] plus the replication index it applies to — the
/// argument observed workload runs take. `Copy`, so call sites can pass it
/// through closures freely.
#[derive(Debug, Clone, Copy)]
pub struct Observe<'a> {
    /// What to collect.
    pub spec: &'a TelemetrySpec,
    /// Replication index, stamped into every event (`rep` field).
    pub rep: u64,
    /// An upper bound on the bytes the event log this replication's frame
    /// merges into will have left at that merge, when the caller knows
    /// one; see [`EventLog::with_bound`].
    pub event_bound: Option<usize>,
}

impl<'a> Observe<'a> {
    /// Observe replication `rep` with `spec`.
    pub fn new(spec: &'a TelemetrySpec, rep: u64) -> Self {
        Observe {
            spec,
            rep,
            event_bound: None,
        }
    }

    /// The same observation, for a frame whose event log will be merged
    /// into a log with at most `bound` bytes left. The merged result does
    /// not change; the replication just never stores the lines longer than
    /// `bound`, which that merge would drop.
    pub fn with_event_bound(self, bound: usize) -> Self {
        Observe {
            event_bound: Some(bound),
            ..self
        }
    }

    /// A collector for a topology with the given channel and node counts.
    pub fn collector(&self, num_channels: usize, num_nodes: usize) -> Collector {
        let events = self.spec.events.then(|| {
            let bound = self.event_bound.unwrap_or(usize::MAX);
            EventLog::with_bound(TELEMETRY_EVENT_BUDGET_DEFAULT, bound)
        });
        let frame = TelemetryFrame {
            heatmap: Some(ChannelHeatmap::new(num_channels, num_nodes)),
            events,
            ..TelemetryFrame::default()
        };
        Collector {
            shared: Arc::new(Mutex::new(frame)),
            rep: self.rep,
            profile: self.spec.profile,
        }
    }
}

/// Per-message scratch state for phase accounting.
#[derive(Debug, Clone, Copy)]
struct MsgState {
    inject_ps: u64,
    grant_ps: u64,
    wait_since: Option<u64>,
}

/// Per-phase latency histograms.
///
/// Phases decompose a message's life: `port_wait` (injection request →
/// port grant), `startup` (port grant → header enters router), one
/// `channel_wait` sample per grant that followed a FIFO wait, one
/// `delivery` sample per payload copy (injection → absorption), and one
/// `completion` sample per message (injection → tail at final destination).
#[derive(Debug, Clone, Default)]
pub struct PhaseHistograms {
    /// Injection request → injection-port grant.
    pub port_wait: LatencyHistogram,
    /// Port grant → start-up latency elapsed.
    pub startup: LatencyHistogram,
    /// FIFO join → channel grant (only waits that actually blocked).
    pub channel_wait: LatencyHistogram,
    /// Injection request → payload copy absorbed (one sample per copy).
    pub delivery: LatencyHistogram,
    /// Injection request → message complete.
    pub completion: LatencyHistogram,
}

impl PhaseHistograms {
    /// Absorb another set (exact, order-independent).
    pub fn merge(&mut self, other: &PhaseHistograms) {
        self.port_wait.merge(&other.port_wait);
        self.startup.merge(&other.startup);
        self.channel_wait.merge(&other.channel_wait);
        self.delivery.merge(&other.delivery);
        self.completion.merge(&other.completion);
    }
}

/// Mean accumulator for driver-reported per-operation CVs. Kept as a naive
/// `(count, sum)` pair so merges are order-independent up to f64 addition
/// order — which is fixed, because frames merge in replication-index order.
#[derive(Debug, Clone, Copy, Default)]
pub struct CvAccumulator {
    /// Operations recorded.
    pub count: u64,
    /// Sum of per-operation CVs.
    pub sum: f64,
}

impl CvAccumulator {
    /// Record one operation's CV.
    pub fn record(&mut self, cv: f64) {
        self.count += 1;
        self.sum += cv;
    }

    /// Mean CV (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Absorb another accumulator.
    pub fn merge(&mut self, other: &CvAccumulator) {
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Reliability counters fed by the fault-injection subsystem. All plain
/// integer adds, so merging across replications is exact and
/// order-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ReliabilityCounters {
    /// Messages the delivery watchdog retired as stalled.
    pub stalled: u64,
    /// Destination copies lost to stalls (as reported by the engine).
    pub undelivered: u64,
    /// Adaptive headers that steered around at least one faulted channel.
    pub reroutes: u64,
    /// Links taken down by fault injection.
    pub link_failures: u64,
    /// Links restored after a transient outage.
    pub link_restores: u64,
}

impl ReliabilityCounters {
    /// Absorb another set (exact, order-independent).
    pub fn merge(&mut self, other: &ReliabilityCounters) {
        self.stalled += other.stalled;
        self.undelivered += other.undelivered;
        self.reroutes += other.reroutes;
        self.link_failures += other.link_failures;
        self.link_restores += other.link_restores;
    }
}

/// Everything collected about one replication (or, after merging, one
/// experiment cell).
#[derive(Debug, Clone, Default)]
pub struct TelemetryFrame {
    /// Engine-phase latency histograms (from the attached sink).
    pub phases: PhaseHistograms,
    /// Driver-side per-destination arrival latencies (what figure CVs are
    /// computed from), fed by the workload layer.
    pub arrivals: LatencyHistogram,
    /// Driver-reported per-operation CV mean; matches the figure drivers'
    /// reported CV to floating-point tolerance.
    pub op_cv: CvAccumulator,
    /// Reliability counters (nonzero only under fault injection).
    pub reliability: ReliabilityCounters,
    /// Contention heatmap (every [`Collector`] records one; `None` only in
    /// a frame no collector filled).
    pub heatmap: Option<ChannelHeatmap>,
    /// NDJSON event stream, when enabled.
    pub events: Option<EventLog>,
    /// Runtime metrics scraped from the engine / harness,
    /// when profiling is enabled (empty otherwise; not in `FrameExport` —
    /// profile reports render it separately).
    pub metrics: MetricsRegistry,
}

impl TelemetryFrame {
    /// Record one per-destination arrival latency (µs) from the driver.
    pub fn record_arrival_us(&mut self, us: f64) {
        self.arrivals.record_us(us);
    }

    /// Record one operation's per-destination CV from the driver.
    pub fn record_op_cv(&mut self, cv: f64) {
        self.op_cv.record(cv);
    }

    /// Absorb another frame. Must be called in replication-index order for
    /// byte-identical exports (histograms/heatmaps merge exactly in any
    /// order; the event log concatenates and `op_cv` sums f64s, both of
    /// which are order-sensitive only in ordering of equal results).
    pub fn merge(&mut self, other: &TelemetryFrame) {
        self.phases.merge(&other.phases);
        self.arrivals.merge(&other.arrivals);
        self.op_cv.merge(&other.op_cv);
        self.reliability.merge(&other.reliability);
        match (&mut self.heatmap, &other.heatmap) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.heatmap = Some(b.clone()),
            _ => {}
        }
        match (&mut self.events, &other.events) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.events = Some(b.clone()),
            _ => {}
        }
        self.metrics.merge(&other.metrics);
    }

    /// JSON-exportable view, labelled (labels name experiment cells, e.g.
    /// `"512/DB"`).
    pub fn export(&self, label: &str) -> FrameExport {
        FrameExport {
            label: label.to_string(),
            port_wait: self.phases.port_wait.export(),
            startup: self.phases.startup.export(),
            channel_wait: self.phases.channel_wait.export(),
            delivery: self.phases.delivery.export(),
            completion: self.phases.completion.export(),
            arrivals: self.arrivals.export(),
            op_cv_mean: self.op_cv.mean(),
            op_cv_count: self.op_cv.count,
            reliability: self.reliability,
            events_retained: self.events.as_ref().map_or(0, |e| e.len() as u64),
            events_dropped: self.events.as_ref().map_or(0, |e| e.dropped()),
            heatmap: self.heatmap.as_ref().map(|h| h.export()),
        }
    }
}

/// JSON export of one (possibly merged) [`TelemetryFrame`].
#[derive(Debug, Clone, Serialize)]
pub struct FrameExport {
    /// Cell label (e.g. `"512/DB"`).
    pub label: String,
    /// Injection request → port grant.
    pub port_wait: HistogramExport,
    /// Port grant → start-up done.
    pub startup: HistogramExport,
    /// FIFO join → channel grant.
    pub channel_wait: HistogramExport,
    /// Injection → payload copy absorbed.
    pub delivery: HistogramExport,
    /// Injection → message complete.
    pub completion: HistogramExport,
    /// Driver-side per-destination arrival latencies.
    pub arrivals: HistogramExport,
    /// Mean of driver-reported per-operation CVs.
    pub op_cv_mean: f64,
    /// Operations behind `op_cv_mean`.
    pub op_cv_count: u64,
    /// Reliability counters (all zero outside fault-injection runs).
    pub reliability: ReliabilityCounters,
    /// Events retained in the NDJSON stream.
    pub events_retained: u64,
    /// Events dropped by the byte budget.
    pub events_dropped: u64,
    /// Contention heatmap (`null` only for a frame no collector filled).
    pub heatmap: Option<HeatmapExport>,
}

/// Owner of a replication's [`TelemetryFrame`] while a sink observes into
/// it.
///
/// `Network::add_sink` consumes a `Box<dyn MetricsSink>` with no way to get
/// it back, so the collector hands the network a sink
/// ([`Collector::sink`]) that owns the part of the frame the engine feeds:
/// the phase histograms, the heatmap, the reliability counters and the
/// event log. The sink updates them without locking anything. When the
/// network drops the sink, it hands that part back into the collector's
/// frame, which sits behind an `Arc<Mutex<..>>` locked only then and when
/// the sink is made.
/// Driver-side records ([`Collector::record_arrival_us`],
/// [`Collector::record_op_cv`]) go straight to the collector's frame, so
/// they may come while the sink is attached. After the network is
/// dropped, [`Collector::finish`] returns the union.
#[derive(Debug)]
pub struct Collector {
    shared: Arc<Mutex<TelemetryFrame>>,
    rep: u64,
    profile: bool,
}

impl Collector {
    /// A collector for one replication over a topology with the given
    /// channel and node counts.
    pub fn new(spec: &TelemetrySpec, rep: u64, num_channels: usize, num_nodes: usize) -> Self {
        Observe::new(spec, rep).collector(num_channels, num_nodes)
    }

    /// Whether the spec asks for runtime metrics (engine counters) to be
    /// scraped into the frame.
    pub fn profiling(&self) -> bool {
        self.profile
    }

    /// A sink to attach with `Network::add_sink`. It takes the frame's
    /// engine-fed part until it is dropped, so a collector feeds one sink
    /// at a time.
    pub fn sink(&self) -> Box<dyn MetricsSink> {
        Box::new(self.collector_sink())
    }

    fn collector_sink(&self) -> CollectorSink {
        let mut f = self.shared.lock().unwrap();
        CollectorSink {
            shared: Arc::clone(&self.shared),
            rep: self.rep,
            // Taking the histograms is free: an unused one owns no buckets.
            phases: std::mem::take(&mut f.phases),
            heatmap: f.heatmap.take(),
            reliability: f.reliability,
            events: f.events.take(),
            inflight: VecDeque::new(),
            first: 0,
            clock: 0,
        }
    }

    /// Record one per-destination arrival latency (µs) from the driver.
    pub fn record_arrival_us(&self, us: f64) {
        self.shared.lock().unwrap().record_arrival_us(us);
    }

    /// Record one operation's per-destination CV from the driver.
    pub fn record_op_cv(&self, cv: f64) {
        self.shared.lock().unwrap().record_op_cv(cv);
    }

    /// Recover the collected frame: the driver's records and everything
    /// the sink saw. Call it after the network (and so the sink) is
    /// dropped; a sink still attached keeps its part, and the frame comes
    /// back with the driver's records only.
    pub fn finish(self) -> TelemetryFrame {
        match Arc::try_unwrap(self.shared) {
            Ok(m) => m.into_inner().unwrap(),
            Err(arc) => std::mem::take(&mut *arc.lock().unwrap()),
        }
    }
}

/// The `MetricsSink` a [`Collector`] attaches to a network. It owns the
/// engine-fed part of the frame and hands it back when dropped.
struct CollectorSink {
    shared: Arc<Mutex<TelemetryFrame>>,
    rep: u64,
    phases: PhaseHistograms,
    heatmap: Option<ChannelHeatmap>,
    reliability: ReliabilityCounters,
    events: Option<EventLog>,
    /// Phase state of the messages in flight: entry `i` belongs to the
    /// message whose external id is `first + i`. External ids are dense in
    /// injection order, and the retired prefix is dropped, so the window
    /// spans the oldest message still in flight to the newest, not every
    /// message injected.
    inflight: VecDeque<Option<MsgState>>,
    /// External id of `inflight[0]`.
    first: usize,
    /// Time of the latest callback other than an injection: the engine's
    /// clock, in picoseconds.
    clock: u64,
}

impl Drop for CollectorSink {
    fn drop(&mut self) {
        let mut f = self.shared.lock().unwrap();
        f.phases = std::mem::take(&mut self.phases);
        f.heatmap = self.heatmap.take();
        f.reliability = self.reliability;
        f.events = self.events.take();
    }
}

impl CollectorSink {
    fn state(&mut self, m: MessageId) -> Option<&mut MsgState> {
        let i = m.index().checked_sub(self.first)?;
        self.inflight.get_mut(i).and_then(Option::as_mut)
    }

    /// Take `m`'s phase state, then drop the retired prefix of the window.
    fn retire(&mut self, m: MessageId) -> Option<MsgState> {
        let i = m.index().checked_sub(self.first)?;
        let st = self.inflight.get_mut(i).and_then(Option::take);
        while let Some(None) = self.inflight.front() {
            self.inflight.pop_front();
            self.first += 1;
        }
        st
    }

    /// Log the event `build` makes from the one every event starts from
    /// (`now`, `kind`, this replication). Builds nothing when the log is
    /// off, or when its room is below the shortest line this sink can log
    /// from now on ([`line_floor`] at the engine's clock).
    #[inline]
    fn log(&mut self, now: SimTime, kind: EventKind, build: impl FnOnce(Event) -> Event) {
        if let Some(log) = &mut self.events {
            let now = now.as_ps();
            // An injection is reported when it is requested, stamped with
            // the time it will happen, which may lie ahead of the clock;
            // every other callback comes at the engine's clock.
            let floor_t = if kind == EventKind::Inject {
                now.min(self.clock)
            } else {
                self.clock = now;
                now
            };
            let rep = self.rep;
            log.push_with(line_floor(floor_t, rep), || {
                build(Event::new(now, kind, rep))
            });
        }
    }
}

/// The cost (newline included) of the shortest line a [`CollectorSink`]
/// logs at time `t_ps` or later in replication `rep`: a `link_up` on a
/// one-digit channel. The engine's clock never runs backwards, so once
/// the room left is below it, no later line fits either.
fn line_floor(t_ps: u64, rep: u64) -> usize {
    let shortest = Event {
        ch: Some(0),
        ..Event::new(t_ps, EventKind::LinkUp, rep)
    };
    shortest.line_len() + 1
}

impl MetricsSink for CollectorSink {
    fn on_inject(&mut self, now: SimTime, m: MessageId, src: NodeId) {
        // Ids arrive in injection order, so a new id is never below the
        // window.
        if let Some(i) = m.index().checked_sub(self.first) {
            let st = Some(MsgState {
                inject_ps: now.as_ps(),
                grant_ps: now.as_ps(),
                wait_since: None,
            });
            if i < self.inflight.len() {
                self.inflight[i] = st;
            } else {
                // Ids are dense, so a new id is normally the next slot.
                self.inflight.resize(i, None);
                self.inflight.push_back(st);
            }
        }
        self.log(now, EventKind::Inject, |e| Event {
            msg: Some(m.0),
            node: Some(src.0),
            ..e
        });
    }

    fn on_port_grant(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        let wait = self.state(m).map(|st| {
            st.grant_ps = now.as_ps();
            now.as_ps() - st.inject_ps
        });
        if let Some(wait) = wait {
            self.phases.port_wait.record_ps(wait);
        }
        if let Some(h) = &mut self.heatmap {
            h.on_port_grant(node.index());
        }
        self.log(now, EventKind::PortGrant, |e| Event {
            msg: Some(m.0),
            node: Some(node.0),
            ..e
        });
    }

    fn on_startup_done(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        if let Some(startup) = self.state(m).map(|st| now.as_ps() - st.grant_ps) {
            self.phases.startup.record_ps(startup);
        }
        self.log(now, EventKind::StartupDone, |e| Event {
            msg: Some(m.0),
            node: Some(node.0),
            ..e
        });
    }

    fn on_header_hop(&mut self, now: SimTime, m: MessageId, at: NodeId, ch: ChannelId) {
        self.log(now, EventKind::Header, |e| Event {
            msg: Some(m.0),
            node: Some(at.0),
            ch: Some(ch.0),
            ..e
        });
    }

    fn on_channel_wait(&mut self, now: SimTime, m: MessageId, ch: ChannelId, queue_len: usize) {
        if let Some(st) = self.state(m) {
            st.wait_since = Some(now.as_ps());
        }
        if let Some(h) = &mut self.heatmap {
            h.on_wait(ch.index(), queue_len);
        }
        self.log(now, EventKind::ChannelWait, |e| Event {
            msg: Some(m.0),
            ch: Some(ch.0),
            q: Some(queue_len as u64),
            ..e
        });
    }

    fn on_channel_grant(&mut self, now: SimTime, m: MessageId, ch: ChannelId) {
        if let Some(since) = self.state(m).and_then(|st| st.wait_since.take()) {
            self.phases.channel_wait.record_ps(now.as_ps() - since);
        }
        if let Some(h) = &mut self.heatmap {
            h.on_grant(ch.index(), now.as_ps());
        }
        self.log(now, EventKind::ChannelGrant, |e| Event {
            msg: Some(m.0),
            ch: Some(ch.0),
            ..e
        });
    }

    fn on_channel_release(&mut self, now: SimTime, ch: ChannelId) {
        if let Some(h) = &mut self.heatmap {
            h.on_release(ch.index(), now.as_ps());
        }
        self.log(now, EventKind::ChannelRelease, |e| Event {
            ch: Some(ch.0),
            ..e
        });
    }

    fn on_deliver(&mut self, now: SimTime, m: MessageId, node: NodeId, flits: u64) {
        if let Some(lat) = self.state(m).map(|st| now.as_ps() - st.inject_ps) {
            self.phases.delivery.record_ps(lat);
        }
        if let Some(h) = &mut self.heatmap {
            h.on_deliver(node.index());
        }
        self.log(now, EventKind::Deliver, |e| Event {
            msg: Some(m.0),
            node: Some(node.0),
            flits: Some(flits),
            ..e
        });
    }

    fn on_complete(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        if let Some(lat) = self.retire(m).map(|st| now.as_ps() - st.inject_ps) {
            self.phases.completion.record_ps(lat);
        }
        self.log(now, EventKind::Complete, |e| Event {
            msg: Some(m.0),
            node: Some(node.0),
            ..e
        });
    }

    fn on_link_failed(&mut self, now: SimTime, ch: ChannelId) {
        self.reliability.link_failures += 1;
        self.log(now, EventKind::LinkDown, |e| Event {
            ch: Some(ch.0),
            ..e
        });
    }

    fn on_link_restored(&mut self, now: SimTime, ch: ChannelId) {
        self.reliability.link_restores += 1;
        self.log(now, EventKind::LinkUp, |e| Event {
            ch: Some(ch.0),
            ..e
        });
    }

    fn on_reroute(&mut self, now: SimTime, m: MessageId, at: NodeId) {
        self.reliability.reroutes += 1;
        self.log(now, EventKind::Reroute, |e| Event {
            msg: Some(m.0),
            node: Some(at.0),
            ..e
        });
    }

    fn on_stalled(&mut self, now: SimTime, m: MessageId, at: NodeId, undelivered: u64) {
        // A stalled message never completes; clear its slot so the next
        // message there starts from fresh phase state.
        self.retire(m);
        self.reliability.stalled += 1;
        self.reliability.undelivered += undelivered;
        self.log(now, EventKind::Stalled, |e| Event {
            msg: Some(m.0),
            node: Some(at.0),
            q: Some(undelivered),
            ..e
        });
    }

    fn on_schedule_phase(&mut self, now: SimTime, phase: u32) {
        self.log(now, EventKind::SchedulePhase, |e| Event {
            q: Some(phase as u64),
            ..e
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(sink: &mut dyn MetricsSink) {
        let m = MessageId(0);
        sink.on_inject(SimTime::from_ps(0), m, NodeId(0));
        sink.on_port_grant(SimTime::from_ps(100), m, NodeId(0));
        sink.on_startup_done(SimTime::from_ps(1_600), m, NodeId(0));
        sink.on_channel_wait(SimTime::from_ps(1_600), m, ChannelId(1), 2);
        sink.on_channel_grant(SimTime::from_ps(2_000), m, ChannelId(1));
        sink.on_header_hop(SimTime::from_ps(2_100), m, NodeId(1), ChannelId(1));
        sink.on_deliver(SimTime::from_ps(3_000), m, NodeId(1), 100);
        sink.on_channel_release(SimTime::from_ps(3_100), ChannelId(1));
        sink.on_complete(SimTime::from_ps(3_000), m, NodeId(1));
    }

    /// Every callback, at one time with the shortest ids, logs a line no
    /// shorter than [`line_floor`], and the shortest of them is exactly as
    /// long: the floor the sink refuses events against is tight.
    #[test]
    fn line_floor_is_the_shortest_line_a_sink_logs() {
        let (t, rep) = (SimTime::from_ps(1_234_567), 7);
        let spec = TelemetrySpec::full();
        let collector = Collector::new(&spec, rep, 4, 2);
        let mut sink = collector.sink();
        let (m, n, c) = (MessageId(0), NodeId(0), ChannelId(0));
        sink.on_inject(t, m, n);
        sink.on_port_grant(t, m, n);
        sink.on_startup_done(t, m, n);
        sink.on_header_hop(t, m, n, c);
        sink.on_channel_wait(t, m, c, 0);
        sink.on_channel_grant(t, m, c);
        sink.on_channel_release(t, c);
        sink.on_deliver(t, m, n, 0);
        sink.on_complete(t, m, n);
        sink.on_link_failed(t, c);
        sink.on_link_restored(t, c);
        sink.on_reroute(t, m, n);
        sink.on_stalled(t, m, n, 0);
        sink.on_schedule_phase(t, 0);
        drop(sink);
        let log = collector.finish().events.expect("events on");
        let nd = log.to_ndjson();
        let costs: Vec<usize> = nd.lines().map(|l| l.len() + 1).collect();
        assert_eq!(costs.len(), 14);
        assert_eq!(costs.iter().min(), Some(&line_floor(t.as_ps(), rep)));
    }

    #[test]
    fn collector_decomposes_phases() {
        let spec = TelemetrySpec::full();
        let collector = Collector::new(&spec, 7, 4, 2);
        let mut sink = collector.sink();
        drive(sink.as_mut());
        drop(sink);
        let frame = collector.finish();
        assert_eq!(frame.phases.port_wait.count(), 1);
        assert!((frame.phases.port_wait.mean_us() - 1e-4).abs() < 1e-12);
        assert_eq!(frame.phases.startup.count(), 1);
        assert_eq!(frame.phases.channel_wait.count(), 1);
        assert!((frame.phases.channel_wait.mean_us() - 4e-4).abs() < 1e-12);
        assert_eq!(frame.phases.delivery.count(), 1);
        assert_eq!(frame.phases.completion.count(), 1);
        let heat = frame.heatmap.as_ref().expect("heatmap enabled");
        assert_eq!(heat.max_queue_depth(), 2);
        let log = frame.events.as_ref().expect("events enabled");
        assert_eq!(log.len(), 9);
        let stats = events::validate_ndjson(&log.to_ndjson()).expect("valid NDJSON");
        assert_eq!(stats.lines, 9);
        assert_eq!(stats.messages, 1);
        assert!(log.to_ndjson().contains("\"rep\":7"));
    }

    #[test]
    fn finish_returns_driver_records_and_everything_the_dropped_sink_saw() {
        let spec = TelemetrySpec::full();
        let collector = Collector::new(&spec, 3, 4, 2);
        let mut sink = collector.sink();
        drive(sink.as_mut());
        // Driver-side records made while the sink is attached.
        collector.record_arrival_us(2.0);
        collector.record_op_cv(0.25);
        sink.on_link_failed(SimTime::from_ps(4_000), ChannelId(0));
        drop(sink);
        let frame = collector.finish();
        assert_eq!(frame.arrivals.count(), 1);
        assert_eq!((frame.op_cv.count, frame.op_cv.mean()), (1, 0.25));
        assert_eq!(frame.phases.port_wait.count(), 1);
        assert_eq!(frame.phases.completion.count(), 1);
        assert_eq!(frame.reliability.link_failures, 1);
        let heat = frame.heatmap.as_ref().expect("heatmap handed back");
        assert_eq!(heat.max_queue_depth(), 2);
        let log = frame.events.as_ref().expect("event log handed back");
        assert_eq!(log.len(), 10);
        assert!(log
            .to_ndjson()
            .ends_with("{\"t_ps\":4000,\"ev\":\"link_down\",\"rep\":3,\"ch\":0}\n"));
    }

    #[test]
    fn frame_merge_combines_everything() {
        let spec = TelemetrySpec::full();
        let mk = |rep| {
            let c = Collector::new(&spec, rep, 4, 2);
            let mut s = c.sink();
            drive(s.as_mut());
            drop(s);
            let mut f = c.finish();
            f.record_arrival_us(3.0e-6 * (rep + 1) as f64);
            f.record_op_cv(0.5);
            f
        };
        let mut a = mk(0);
        let b = mk(1);
        a.merge(&b);
        assert_eq!(a.phases.completion.count(), 2);
        assert_eq!(a.arrivals.count(), 2);
        assert_eq!(a.op_cv.count, 2);
        assert!((a.op_cv.mean() - 0.5).abs() < 1e-15);
        assert_eq!(a.events.as_ref().unwrap().len(), 18);
        let ex = a.export("cell");
        assert_eq!(ex.label, "cell");
        assert_eq!(ex.events_retained, 18);
        assert!(ex.heatmap.is_some());
    }

    #[test]
    fn reliability_counters_collect_and_merge() {
        let spec = TelemetrySpec::full();
        let mk = |rep| {
            let c = Collector::new(&spec, rep, 4, 2);
            let mut s = c.sink();
            s.on_link_failed(SimTime::from_ps(0), ChannelId(1));
            s.on_reroute(SimTime::from_ps(500), MessageId(0), NodeId(0));
            s.on_stalled(SimTime::from_ps(9_000), MessageId(1), NodeId(1), 3);
            s.on_link_restored(SimTime::from_ps(10_000), ChannelId(1));
            drop(s);
            c.finish()
        };
        let mut a = mk(0);
        let b = mk(1);
        a.merge(&b);
        assert_eq!(
            a.reliability,
            ReliabilityCounters {
                stalled: 2,
                undelivered: 6,
                reroutes: 2,
                link_failures: 2,
                link_restores: 2,
            }
        );
        let ex = a.export("cell");
        assert_eq!(ex.reliability.undelivered, 6);
        let log = a.events.as_ref().expect("events enabled");
        let nd = log.to_ndjson();
        let stats = events::validate_ndjson(&nd).expect("valid NDJSON");
        assert_eq!(stats.lines, 8);
        assert!(nd.contains("\"ev\":\"link_down\""));
        assert!(nd.contains("\"ev\":\"stalled\",\"rep\":1,\"msg\":1,\"node\":1,\"q\":3"));
    }

    #[test]
    fn default_spec_records_phases_and_heatmap_but_no_events() {
        let c = Collector::new(&TelemetrySpec::default(), 0, 4, 2);
        let mut s = c.sink();
        drive(s.as_mut());
        drop(s);
        let f = c.finish();
        assert_eq!(f.heatmap.expect("heatmap always on").max_queue_depth(), 2);
        assert!(f.events.is_none());
        assert_eq!(f.phases.completion.count(), 1);
    }

    #[test]
    fn utilization_matches_pre_refactor_accounting() {
        // One 2-hop unicast under path-holding: each crossed channel is
        // held from its grant until completion, and the heatmap's busy
        // time must reflect that. The run ends at completion, so the first
        // channel (granted at Ts) is busy for all but Ts of it, and the
        // second for one hop less.
        use wormcast_network::{MessageSpec, Network, NetworkConfig, OpId, Route};
        use wormcast_routing::{dor_path, CodedPath, DimensionOrdered};
        use wormcast_topology::{Coord, Mesh, Topology};
        let mesh = Mesh::square(4);
        let cfg = NetworkConfig::paper_default();
        let mut net = Network::new(mesh.clone(), cfg, Box::new(DimensionOrdered));
        let c = Collector::new(
            &TelemetrySpec::default(),
            0,
            mesh.num_channels(),
            mesh.num_nodes(),
        );
        net.add_sink(c.sink());
        let src = mesh.node_at(&Coord::xy(0, 0));
        let dst = mesh.node_at(&Coord::xy(2, 0));
        let spec = MessageSpec {
            src,
            route: Route::Fixed(CodedPath::unicast(&mesh, dor_path(&mesh, src, dst))),
            length: 100,
            op: OpId(0),
            tag: 0,
            charge_startup: true,
        };
        net.inject_at(SimTime::ZERO, spec);
        net.run_until_idle();
        let total_ps = net.now().as_ps();
        drop(net);
        let heat = c.finish().heatmap.expect("heatmap always on").export();
        let busy: Vec<f64> = heat.channels.iter().map(|ch| ch.busy_us).collect();
        let us = |ps: u64| ps as f64 / wormcast_sim::PS_PER_US as f64;
        let ts = cfg.startup.as_ps();
        let hop = cfg.hop_time().as_ps();
        assert_eq!(busy, [us(total_ps - ts), us(total_ps - ts - hop)]);
    }

    /// Forwards every event to a [`CollectorSink`] and records the most
    /// phase states its window ever held.
    struct WindowProbe {
        inner: CollectorSink,
        peak: Arc<std::sync::atomic::AtomicUsize>,
    }

    macro_rules! forward {
        ($($name:ident($($arg:ident: $ty:ty),*);)*) => {
            impl MetricsSink for WindowProbe {
                $(fn $name(&mut self, $($arg: $ty),*) {
                    self.inner.$name($($arg),*);
                    let len = self.inner.inflight.len();
                    self.peak.fetch_max(len, std::sync::atomic::Ordering::Relaxed);
                })*
            }
        };
    }

    forward! {
        on_inject(now: SimTime, m: MessageId, src: NodeId);
        on_port_grant(now: SimTime, m: MessageId, node: NodeId);
        on_startup_done(now: SimTime, m: MessageId, node: NodeId);
        on_header_hop(now: SimTime, m: MessageId, at: NodeId, ch: ChannelId);
        on_channel_wait(now: SimTime, m: MessageId, ch: ChannelId, queue_len: usize);
        on_channel_grant(now: SimTime, m: MessageId, ch: ChannelId);
        on_channel_release(now: SimTime, ch: ChannelId);
        on_deliver(now: SimTime, m: MessageId, node: NodeId, flits: u64);
        on_complete(now: SimTime, m: MessageId, node: NodeId);
        on_link_failed(now: SimTime, ch: ChannelId);
        on_link_restored(now: SimTime, ch: ChannelId);
        on_reroute(now: SimTime, m: MessageId, at: NodeId);
        on_stalled(now: SimTime, m: MessageId, at: NodeId, undelivered: u64);
        on_schedule_phase(now: SimTime, phase: u32);
    }

    #[test]
    fn phase_window_spans_the_messages_in_flight_not_the_run() {
        // An open-loop mixed stream on an 8×8 mesh: Poisson arrivals, nine
        // DOR unicasts in ten and one multidestination gather-all path,
        // each injected as the network reaches its arrival time.
        use wormcast_network::{MessageSpec, Network, NetworkConfig, OpId, Route};
        use wormcast_routing::{dor_path, CodedPath, DimensionOrdered, RunPath};
        use wormcast_sim::{SimDuration, SimRng};
        use wormcast_topology::{Mesh, Topology};
        let mesh = Mesh::square(8);
        let n = mesh.num_nodes();
        let mut net = Network::new(
            mesh.clone(),
            NetworkConfig::paper_default(),
            Box::new(DimensionOrdered),
        );
        let c = Collector::new(&TelemetrySpec::full(), 0, mesh.num_channels(), n);
        let peak = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        net.add_sink(Box::new(WindowProbe {
            inner: c.collector_sink(),
            peak: Arc::clone(&peak),
        }));
        let mut rng = SimRng::new(7);
        let total = 20_000u64;
        let mut at = SimTime::ZERO;
        for k in 0..total {
            at += SimDuration::from_us(-(1.0 - rng.unit()).ln() * 0.3);
            net.run_until(at);
            let src = NodeId(rng.index(n) as u32);
            let mut dst = NodeId(rng.index(n) as u32);
            while dst == src {
                dst = NodeId(rng.index(n) as u32);
            }
            let route = if k % 10 == 0 {
                Route::Fixed(CodedPath::gather_all(&mesh, dor_path(&mesh, src, dst)))
            } else {
                Route::Runs(RunPath::dor(&mesh, src, dst))
            };
            let spec = MessageSpec {
                src,
                route,
                length: 32,
                op: OpId(k),
                tag: 0,
                charge_startup: true,
            };
            net.inject_at(at, spec);
        }
        net.run_until_idle();
        let counters = net.counters();
        drop(net);
        let f = c.finish();
        assert_eq!((counters.injected, counters.completed), (total, total));
        // Every message's state was still in the window when each of its
        // phases closed.
        assert_eq!(f.phases.port_wait.count(), total);
        assert_eq!(f.phases.startup.count(), total);
        assert_eq!(f.phases.completion.count(), total);
        assert_eq!(f.phases.delivery.count(), counters.deliveries);
        let peak = peak.load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            peak > 0 && peak * 100 < total as usize,
            "the phase window peaked at {peak} of {total} messages injected"
        );
    }
}
