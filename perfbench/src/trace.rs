//! In-memory spans for the traced run.
//!
//! Every span has a name, a start, an end and a parent. Each span adds its
//! duration and its self time (duration minus its child spans) to its
//! name's totals; spans down to [`KEEP_DEPTH`] are also kept whole and
//! written out when the run ends. Per-call spans — anything inside a
//! `bench.drive` span (one per engine step or routing decision) or below
//! that depth — would hold millions of records, so only their totals are
//! kept.
//!
//! A span name is `<layer>.<what>`; a layer's self time is the sum of the
//! self times of its names. `bench.*` spans are the benchmark's own driver
//! code and belong to no layer.

use std::cell::RefCell;
use std::time::Instant;
use wormcast_network::{MessageId, MetricsSink};
use wormcast_routing::{RoutingFunction, SelectPolicy};
use wormcast_sim::SimTime;
use wormcast_topology::{ChannelId, Mesh, NodeId, Sign};

/// Spans at depth below this are kept whole.
pub const KEEP_DEPTH: usize = 3;

macro_rules! ids {
    ($($id:ident = $name:literal,)*) => {
        /// A span name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Id { $($id,)* }

        impl Id {
            /// Every span name.
            pub const ALL: &'static [Id] = &[$(Id::$id,)*];

            /// The span's `<layer>.<what>` name.
            pub fn name(self) -> &'static str {
                match self { $(Id::$id => $name,)* }
            }
        }
    };
}

ids! {
    Unit = "bench.unit",
    Drive = "bench.drive",
    TopologyBuild = "topology.build",
    RoutingBuild = "routing.build",
    RoutingCandidates = "routing.candidates",
    CoreSchedule = "core.schedule",
    NetworkBuild = "network.build",
    NetworkStep = "network.step",
    NetworkInject = "network.inject",
    WorkloadTracker = "workload.tracker",
    WorkloadArrivals = "workload.arrivals",
    StatsFold = "stats.fold",
    TelemetryAttach = "telemetry.attach",
    TelemetrySink = "telemetry.sink",
    TelemetryFinish = "telemetry.finish",
    TelemetryExport = "telemetry.export",
    ExperimentsClaims = "experiments.claims",
    ExperimentsEmit = "experiments.emit",
}

impl Id {
    /// The layer a span belongs to (`bench` for the benchmark's own code).
    pub fn layer(self) -> &'static str {
        self.name()
            .split('.')
            .next()
            .expect("names are <layer>.<what>")
    }
}

/// Counts recorded at layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Messages in the broadcast schedules built.
    pub schedule_msgs: u64,
    /// Follow-up messages released by broadcast trackers.
    pub relays: u64,
    /// Events scheduled on the calendar wheels.
    pub events: u64,
    /// Wheel bucket scans.
    pub bucket_scans: u64,
    /// Largest message arena of one network.
    pub arena_highwater: u64,
    /// Payload copies delivered.
    pub deliveries: u64,
    /// Headers that queued for a busy channel.
    pub channel_waits: u64,
    /// Simulated picoseconds from those waits to their grants.
    pub wait_ps: u64,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// A span kept whole.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name.
    pub id: Id,
    /// Start, ns since the tracer started.
    pub start_ns: u64,
    /// End, ns since the tracer started.
    pub end_ns: u64,
    /// Index of the parent span in the kept list.
    pub parent: Option<usize>,
}

struct Open {
    id: Id,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
    keep_children: bool,
}

/// Everything one traced run recorded.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Totals per span name, indexed like [`Id::ALL`].
    pub totals: Vec<Total>,
    /// Spans kept whole, in start order.
    pub spans: Vec<Span>,
    /// Counts.
    pub counts: Counts,
}

impl Recording {
    /// Totals of `id`.
    pub fn total(&self, id: Id) -> Total {
        self.totals[id as usize]
    }

    /// Self seconds of every span of `layer`.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        Id::ALL
            .iter()
            .filter(|id| id.layer() == layer)
            .map(|&id| self.total(id).self_ns)
            .sum::<u64>() as f64
            * 1e-9
    }
}

struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    rec: Recording,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding anything recorded before.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            stack: Vec::new(),
            rec: Recording {
                totals: vec![Total::default(); Id::ALL.len()],
                spans: Vec::new(),
                counts: Counts::default(),
            },
        })
    });
}

/// Stop recording and take what was recorded.
///
/// # Panics
/// Panics if recording was not started or a span is still open.
pub fn finish() -> Recording {
    let t = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("tracer started");
    assert!(t.stack.is_empty(), "span left open");
    t.rec
}

fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    TRACER.with(|t| f(t.borrow_mut().as_mut().expect("tracer started")))
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Update the counts.
pub fn count(f: impl FnOnce(&mut Counts)) {
    with(|t| f(&mut t.rec.counts));
}

fn recording() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Run `f` inside a span named `id`; without a started recording, just run
/// `f`.
#[inline]
pub fn timed<R>(id: Id, f: impl FnOnce() -> R) -> R {
    if !recording() {
        return f();
    }
    with(|t| {
        let start_ns = now_ns(t.origin);
        let parent = t.stack.last();
        let keep = t.stack.len() < KEEP_DEPTH && parent.is_none_or(|p| p.keep_children);
        let kept = keep.then(|| {
            t.rec.spans.push(Span {
                id,
                start_ns,
                end_ns: start_ns,
                parent: parent.and_then(|p| p.kept),
            });
            t.rec.spans.len() - 1
        });
        t.stack.push(Open {
            id,
            start_ns,
            child_ns: 0,
            kept,
            keep_children: keep && id != Id::Drive,
        });
    });
    let r = f();
    with(|t| {
        let end_ns = now_ns(t.origin);
        let open = t.stack.pop().expect("span opened above");
        debug_assert_eq!(open.id, id);
        let dur = end_ns - open.start_ns;
        let total = &mut t.rec.totals[id as usize];
        total.calls += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(k) = open.kept {
            t.rec.spans[k].end_ns = end_ns;
        }
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
    });
    r
}

/// A routing function that times every candidate query of the one it
/// wraps and forwards everything else, the arbitration policy included.
pub struct TimedRouting(pub Box<dyn RoutingFunction>);

impl RoutingFunction for TimedRouting {
    fn candidates(
        &self,
        topo: &Mesh,
        src: NodeId,
        cur: NodeId,
        prev: Option<(usize, Sign)>,
        dst: NodeId,
    ) -> Vec<ChannelId> {
        timed(Id::RoutingCandidates, || {
            self.0.candidates(topo, src, cur, prev, dst)
        })
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn select_policy(&self) -> SelectPolicy {
        self.0.select_policy()
    }
}

/// A sink that times every callback of the one it wraps (the telemetry
/// collector's).
pub struct TimedSink(pub Box<dyn MetricsSink>);

macro_rules! forward {
    ($($m:ident($($a:ident: $t:ty),*);)*) => {
        impl MetricsSink for TimedSink {
            $(fn $m(&mut self, $($a: $t),*) {
                timed(Id::TelemetrySink, || self.0.$m($($a),*))
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

/// Counts channel waits and the simulated time from each wait to its
/// grant. Message ids index the engine's arena, so a vector holds the
/// pending waits.
#[derive(Default)]
pub struct WaitCounter {
    since_ps: Vec<Option<u64>>,
}

impl MetricsSink for WaitCounter {
    fn on_channel_wait(&mut self, now: SimTime, m: MessageId, _ch: ChannelId, _q: usize) {
        let i = m.0 as usize;
        if self.since_ps.len() <= i {
            self.since_ps.resize(i + 1, None);
        }
        self.since_ps[i] = Some(now.as_ps());
        count(|c| c.channel_waits += 1);
    }

    fn on_channel_grant(&mut self, now: SimTime, m: MessageId, _ch: ChannelId) {
        if let Some(since) = self.since_ps.get_mut(m.0 as usize).and_then(Option::take) {
            count(|c| c.wait_ps += now.as_ps() - since);
        }
    }
}
