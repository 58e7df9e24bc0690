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
//!   wait, delivery latency and completion latency;
//! * [`heatmap::ChannelHeatmap`] — per-channel grant counts, busy time and
//!   max FIFO depth, plus per-node port grants and deliveries;
//! * [`events::EventLog`] — a byte-budgeted NDJSON event exporter (one line
//!   per `MetricsSink` callback; only the lines that fit the budget are
//!   rendered, into one buffer the export hands out) and the flat-JSON
//!   parser/validator used by schema tests and CI;
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
/// it back, so the collector keeps the frame behind an `Arc<Mutex<..>>` and
/// hands the network a lightweight handle ([`Collector::sink`]). After the
/// run, [`Collector::finish`] recovers the frame. Within one replication
/// everything is single-threaded, so the mutex is uncontended.
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

    /// A sink handle to attach with `Network::add_sink`.
    pub fn sink(&self) -> Box<dyn MetricsSink> {
        Box::new(CollectorSink {
            shared: Arc::clone(&self.shared),
            rep: self.rep,
            inflight: Vec::new(),
        })
    }

    /// Record one per-destination arrival latency (µs) from the driver.
    pub fn record_arrival_us(&self, us: f64) {
        self.shared.lock().unwrap().record_arrival_us(us);
    }

    /// Record one operation's per-destination CV from the driver.
    pub fn record_op_cv(&self, cv: f64) {
        self.shared.lock().unwrap().record_op_cv(cv);
    }

    /// Recover the collected frame. If the network (and thus the sink
    /// handle) is already dropped this is free; otherwise the frame is
    /// taken out from under the still-attached handle, which then observes
    /// into a discarded frame.
    pub fn finish(self) -> TelemetryFrame {
        match Arc::try_unwrap(self.shared) {
            Ok(m) => m.into_inner().unwrap(),
            Err(arc) => std::mem::take(&mut *arc.lock().unwrap()),
        }
    }
}

/// The `MetricsSink` handle a [`Collector`] attaches to a network.
struct CollectorSink {
    shared: Arc<Mutex<TelemetryFrame>>,
    rep: u64,
    /// Phase state of the messages in flight, indexed by
    /// [`MessageId::index`] (the engine's arena slot, so the vector stays
    /// as long as the most messages ever in flight at once).
    inflight: Vec<Option<MsgState>>,
}

impl CollectorSink {
    fn event(&self, now: SimTime, kind: EventKind) -> Event {
        Event::new(now.as_ps(), kind, self.rep)
    }

    fn state(&mut self, m: MessageId) -> Option<&mut MsgState> {
        self.inflight.get_mut(m.index()).and_then(Option::as_mut)
    }

    fn retire(&mut self, m: MessageId) -> Option<MsgState> {
        self.inflight.get_mut(m.index()).and_then(Option::take)
    }
}

impl MetricsSink for CollectorSink {
    fn on_inject(&mut self, now: SimTime, m: MessageId, src: NodeId) {
        let slot = m.index();
        if self.inflight.len() <= slot {
            self.inflight.resize(slot + 1, None);
        }
        self.inflight[slot] = Some(MsgState {
            inject_ps: now.as_ps(),
            grant_ps: now.as_ps(),
            wait_since: None,
        });
        if let Some(log) = &mut self.shared.lock().unwrap().events {
            log.push(Event {
                msg: Some(m.0),
                node: Some(src.0),
                ..self.event(now, EventKind::Inject)
            });
        }
    }

    fn on_port_grant(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        let wait = self.state(m).map(|st| {
            st.grant_ps = now.as_ps();
            now.as_ps() - st.inject_ps
        });
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        if let Some(wait) = wait {
            f.phases.port_wait.record_ps(wait);
        }
        if let Some(h) = &mut f.heatmap {
            h.on_port_grant(node.index());
        }
        if let Some(log) = &mut f.events {
            log.push(Event {
                msg: Some(m.0),
                node: Some(node.0),
                ..self.event(now, EventKind::PortGrant)
            });
        }
    }

    fn on_startup_done(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        let startup = self.state(m).map(|st| now.as_ps() - st.grant_ps);
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        if let Some(startup) = startup {
            f.phases.startup.record_ps(startup);
        }
        if let Some(log) = &mut f.events {
            log.push(Event {
                msg: Some(m.0),
                node: Some(node.0),
                ..self.event(now, EventKind::StartupDone)
            });
        }
    }

    fn on_header_hop(&mut self, now: SimTime, m: MessageId, at: NodeId, ch: ChannelId) {
        if let Some(log) = &mut self.shared.lock().unwrap().events {
            log.push(Event {
                msg: Some(m.0),
                node: Some(at.0),
                ch: Some(ch.0),
                ..self.event(now, EventKind::Header)
            });
        }
    }

    fn on_channel_wait(&mut self, now: SimTime, m: MessageId, ch: ChannelId, queue_len: usize) {
        if let Some(st) = self.state(m) {
            st.wait_since = Some(now.as_ps());
        }
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        if let Some(h) = &mut f.heatmap {
            h.on_wait(ch.index(), queue_len);
        }
        if let Some(log) = &mut f.events {
            log.push(Event {
                msg: Some(m.0),
                ch: Some(ch.0),
                q: Some(queue_len as u64),
                ..self.event(now, EventKind::ChannelWait)
            });
        }
    }

    fn on_channel_grant(&mut self, now: SimTime, m: MessageId, ch: ChannelId) {
        let since = self.state(m).and_then(|st| st.wait_since.take());
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        if let Some(since) = since {
            f.phases.channel_wait.record_ps(now.as_ps() - since);
        }
        if let Some(h) = &mut f.heatmap {
            h.on_grant(ch.index(), now.as_ps());
        }
        if let Some(log) = &mut f.events {
            log.push(Event {
                msg: Some(m.0),
                ch: Some(ch.0),
                ..self.event(now, EventKind::ChannelGrant)
            });
        }
    }

    fn on_channel_release(&mut self, now: SimTime, ch: ChannelId) {
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        if let Some(h) = &mut f.heatmap {
            h.on_release(ch.index(), now.as_ps());
        }
        if let Some(log) = &mut f.events {
            log.push(Event {
                ch: Some(ch.0),
                ..self.event(now, EventKind::ChannelRelease)
            });
        }
    }

    fn on_deliver(&mut self, now: SimTime, m: MessageId, node: NodeId, flits: u64) {
        let lat = self.state(m).map(|st| now.as_ps() - st.inject_ps);
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        if let Some(lat) = lat {
            f.phases.delivery.record_ps(lat);
        }
        if let Some(h) = &mut f.heatmap {
            h.on_deliver(node.index());
        }
        if let Some(log) = &mut f.events {
            log.push(Event {
                msg: Some(m.0),
                node: Some(node.0),
                flits: Some(flits),
                ..self.event(now, EventKind::Deliver)
            });
        }
    }

    fn on_complete(&mut self, now: SimTime, m: MessageId, node: NodeId) {
        let lat = self.retire(m).map(|st| now.as_ps() - st.inject_ps);
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        if let Some(lat) = lat {
            f.phases.completion.record_ps(lat);
        }
        if let Some(log) = &mut f.events {
            log.push(Event {
                msg: Some(m.0),
                node: Some(node.0),
                ..self.event(now, EventKind::Complete)
            });
        }
    }

    fn on_link_failed(&mut self, now: SimTime, ch: ChannelId) {
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        f.reliability.link_failures += 1;
        if let Some(log) = &mut f.events {
            log.push(Event {
                ch: Some(ch.0),
                ..self.event(now, EventKind::LinkDown)
            });
        }
    }

    fn on_link_restored(&mut self, now: SimTime, ch: ChannelId) {
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        f.reliability.link_restores += 1;
        if let Some(log) = &mut f.events {
            log.push(Event {
                ch: Some(ch.0),
                ..self.event(now, EventKind::LinkUp)
            });
        }
    }

    fn on_reroute(&mut self, now: SimTime, m: MessageId, at: NodeId) {
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        f.reliability.reroutes += 1;
        if let Some(log) = &mut f.events {
            log.push(Event {
                msg: Some(m.0),
                node: Some(at.0),
                ..self.event(now, EventKind::Reroute)
            });
        }
    }

    fn on_stalled(&mut self, now: SimTime, m: MessageId, at: NodeId, undelivered: u64) {
        // A stalled message never completes; clear its slot so the next
        // message there starts from fresh phase state.
        self.retire(m);
        let mut guard = self.shared.lock().unwrap();
        let f = &mut *guard;
        f.reliability.stalled += 1;
        f.reliability.undelivered += undelivered;
        if let Some(log) = &mut f.events {
            log.push(Event {
                msg: Some(m.0),
                node: Some(at.0),
                q: Some(undelivered),
                ..self.event(now, EventKind::Stalled)
            });
        }
    }

    fn on_schedule_phase(&mut self, now: SimTime, phase: u32) {
        if let Some(log) = &mut self.shared.lock().unwrap().events {
            log.push(Event {
                q: Some(phase as u64),
                ..self.event(now, EventKind::SchedulePhase)
            });
        }
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
    fn finish_recovers_frame_even_with_live_sink() {
        let spec = TelemetrySpec::default();
        let collector = Collector::new(&spec, 0, 4, 2);
        let mut sink = collector.sink();
        drive(sink.as_mut());
        // Sink still alive: finish() must still return the data.
        let frame = collector.finish();
        assert_eq!(frame.phases.completion.count(), 1);
        drop(sink);
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
}
