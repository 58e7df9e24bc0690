//! The runtime metrics registry: counters, gauges and log₂ histograms with
//! a static metric-id catalog, merged exactly across replications.
//!
//! Simulation physics never writes here directly — the engine exposes a
//! cheap plain-integer stats accessor, and the
//! workload layer scrapes them into a per-replication registry when
//! profiling is on. Registries then merge in replication-index order like
//! every other telemetry aggregate; because counter merge is addition,
//! gauge merge is `max` and histogram merge is element-wise addition, the
//! merged registry is independent of merge order and grouping ("lock-free"
//! in the sense that the hot path shares nothing and the fold needs no
//! locks).
//!
//! # Determinism
//!
//! Each [`MetricId`] declares whether its value is *deterministic* —
//! invariant across `--jobs` for fixed physics — or execution-dependent
//! (wall-clock durations, worker counts, event-list work). Profile
//! reports render execution-dependent series
//! on `nd_`-marked lines so determinism comparisons can strip them; see
//! `DESIGN.md` §4.7.

use std::collections::BTreeMap;

/// What a metric measures and how it merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count; merge is addition.
    Counter,
    /// High-water mark; merge is `max`.
    Gauge,
    /// Log₂-bucketed value distribution; merge is element-wise addition.
    Histogram,
}

impl MetricKind {
    /// Prometheus type name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// The static metric catalog. Every series a profile report can carry is
/// one of these ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricId {
    /// Peak live-message arena occupancy of the engine.
    EngineArenaMsgsHighwater,
    /// Events ever scheduled on the engine's future-event list.
    EngineWheelEventsScheduled,
    /// Earliest-event searches of the engine's future-event list (one per
    /// pop or peek).
    EngineWheelBucketScans,
    /// Delivery-watchdog arms (stall checks scheduled).
    EngineWatchdogArms,
    /// In-flight adaptive re-routes around faulted channels.
    EngineReroutes,
    /// Messages retired as stalled by the delivery watchdog.
    EngineStalls,
    /// Replications executed by the harness.
    HarnessReplications,
    /// Distribution of per-replication wall-clock (ns).
    HarnessRepWallNs,
    /// Peak reorder-buffer depth while folding out-of-order results.
    HarnessQueueDepthMax,
    /// Worker threads the harness ran with.
    HarnessWorkers,
    /// NDJSON events dropped by the per-replication byte budget.
    EventsDropped,
    /// Engine trace records dropped by the ring-buffer bound.
    TraceDropped,
    /// Requests the serve layer accepted (any tier).
    ServeRequests,
    /// Serve requests answered from the completed-result cache.
    ServeCacheHits,
    /// Serve requests that joined an identical in-flight run.
    ServeCoalesced,
    /// Engine runs the serve layer actually executed (cold misses).
    ServeRunsExecuted,
}

impl MetricId {
    /// Every metric id, in catalog (render) order.
    pub const ALL: [MetricId; 16] = [
        MetricId::EngineArenaMsgsHighwater,
        MetricId::EngineWheelEventsScheduled,
        MetricId::EngineWheelBucketScans,
        MetricId::EngineWatchdogArms,
        MetricId::EngineReroutes,
        MetricId::EngineStalls,
        MetricId::HarnessReplications,
        MetricId::HarnessRepWallNs,
        MetricId::HarnessQueueDepthMax,
        MetricId::HarnessWorkers,
        MetricId::EventsDropped,
        MetricId::TraceDropped,
        MetricId::ServeRequests,
        MetricId::ServeCacheHits,
        MetricId::ServeCoalesced,
        MetricId::ServeRunsExecuted,
    ];

    /// Stable wire name (bare; the Prometheus exposition prefixes
    /// `wormcast_`).
    pub fn name(self) -> &'static str {
        match self {
            MetricId::EngineArenaMsgsHighwater => "engine_arena_msgs_highwater",
            MetricId::EngineWheelEventsScheduled => "engine_wheel_events_scheduled",
            MetricId::EngineWheelBucketScans => "engine_wheel_bucket_scans",
            MetricId::EngineWatchdogArms => "engine_watchdog_arms",
            MetricId::EngineReroutes => "engine_reroutes",
            MetricId::EngineStalls => "engine_stalls",
            MetricId::HarnessReplications => "harness_replications",
            MetricId::HarnessRepWallNs => "harness_rep_wall_ns",
            MetricId::HarnessQueueDepthMax => "harness_queue_depth_max",
            MetricId::HarnessWorkers => "harness_workers",
            MetricId::EventsDropped => "events_dropped",
            MetricId::TraceDropped => "trace_dropped",
            MetricId::ServeRequests => "serve_requests",
            MetricId::ServeCacheHits => "serve_cache_hits",
            MetricId::ServeCoalesced => "serve_coalesced",
            MetricId::ServeRunsExecuted => "serve_runs_executed",
        }
    }

    /// The metric's kind (merge semantics and Prometheus type).
    pub fn kind(self) -> MetricKind {
        match self {
            MetricId::EngineArenaMsgsHighwater
            | MetricId::HarnessQueueDepthMax
            | MetricId::HarnessWorkers => MetricKind::Gauge,
            MetricId::HarnessRepWallNs => MetricKind::Histogram,
            _ => MetricKind::Counter,
        }
    }

    /// Whether the merged value is invariant across `--jobs` for fixed
    /// physics. Non-deterministic ids are rendered on `nd_` lines in
    /// profile reports and excluded from determinism comparisons; the
    /// `wheel` counters (named before the delay lanes replaced the calendar
    /// wheel) count the future-event list's own work (events scheduled,
    /// pops and peeks), which tracks the executor, not the physics.
    pub fn deterministic(self) -> bool {
        !matches!(
            self,
            MetricId::EngineWheelEventsScheduled
                | MetricId::EngineWheelBucketScans
                | MetricId::HarnessRepWallNs
                | MetricId::HarnessQueueDepthMax
                | MetricId::HarnessWorkers
                | MetricId::ServeRequests
                | MetricId::ServeCacheHits
                | MetricId::ServeCoalesced
                | MetricId::ServeRunsExecuted
        )
    }

    /// One-line help text for the Prometheus exposition.
    pub fn help(self) -> &'static str {
        match self {
            MetricId::EngineArenaMsgsHighwater => {
                "Peak live-message arena occupancy of the single engine"
            }
            MetricId::EngineWheelEventsScheduled => {
                "Events scheduled on the engine's future-event list (delay lanes and heap)"
            }
            MetricId::EngineWheelBucketScans => {
                "Earliest-event searches of the engine's future-event list (one per pop or peek)"
            }
            MetricId::EngineWatchdogArms => "Delivery-watchdog stall checks armed",
            MetricId::EngineReroutes => "In-flight adaptive re-routes around faulted channels",
            MetricId::EngineStalls => "Messages retired as stalled by the delivery watchdog",
            MetricId::HarnessReplications => "Replications executed by the harness",
            MetricId::HarnessRepWallNs => "Per-replication wall clock, nanoseconds",
            MetricId::HarnessQueueDepthMax => "Peak reorder-buffer depth in the index-order fold",
            MetricId::HarnessWorkers => "Worker threads the harness ran with",
            MetricId::EventsDropped => "NDJSON events dropped by the per-replication byte budget",
            MetricId::TraceDropped => "Engine trace records dropped by the ring-buffer bound",
            MetricId::ServeRequests => "Requests accepted by the serve layer",
            MetricId::ServeCacheHits => "Serve requests answered from the completed-result cache",
            MetricId::ServeCoalesced => "Serve requests that joined an identical in-flight run",
            MetricId::ServeRunsExecuted => "Engine runs the serve layer executed (cold misses)",
        }
    }
}

/// One series: a metric id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// The metric.
    pub id: MetricId,
}

impl SeriesKey {
    /// The series of `id`.
    pub fn plain(id: MetricId) -> Self {
        SeriesKey { id }
    }

    /// Render as the metric's wire name.
    pub fn render(&self) -> String {
        self.id.name().to_string()
    }
}

/// Number of log₂ histogram buckets: bucket `i` counts values whose bit
/// length is `i` (bucket 0 is exactly zero).
pub const LOG2_BUCKETS: usize = 65;

/// A log₂ histogram over `u64` values with exact integer state, so merging
/// is commutative and associative.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket counts (bucket `i` = values of bit length `i`).
    pub fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
        &self.buckets
    }

    /// Absorb another histogram (exact; order-independent).
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The registry: a deterministic map from [`SeriesKey`] to counter, gauge
/// or histogram state. One per replication; merged in index order by the
/// harness fold.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, u64>,
    hists: BTreeMap<SeriesKey, Log2Hist>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no series has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Add `by` to a counter series.
    pub fn inc_by(&mut self, key: SeriesKey, by: u64) {
        debug_assert_eq!(key.id.kind(), MetricKind::Counter, "{}", key.id.name());
        *self.counters.entry(key).or_insert(0) += by;
    }

    /// Raise a gauge series to at least `v` (high-water semantics).
    pub fn gauge_max(&mut self, key: SeriesKey, v: u64) {
        debug_assert_eq!(key.id.kind(), MetricKind::Gauge, "{}", key.id.name());
        let g = self.gauges.entry(key).or_insert(0);
        *g = (*g).max(v);
    }

    /// Record one value into a histogram series.
    pub fn observe(&mut self, key: SeriesKey, v: u64) {
        debug_assert_eq!(key.id.kind(), MetricKind::Histogram, "{}", key.id.name());
        self.hists.entry(key).or_default().record(v);
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, key: SeriesKey) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when never set).
    pub fn gauge(&self, key: SeriesKey) -> u64 {
        self.gauges.get(&key).copied().unwrap_or(0)
    }

    /// A histogram series, if recorded.
    pub fn hist(&self, key: SeriesKey) -> Option<&Log2Hist> {
        self.hists.get(&key)
    }

    /// Sum of a counter id over every series.
    pub fn counter_total(&self, id: MetricId) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.id == id)
            .map(|(_, v)| v)
            .sum()
    }

    /// Max of a gauge id over every series.
    pub fn gauge_overall(&self, id: MetricId) -> u64 {
        self.gauges
            .iter()
            .filter(|(k, _)| k.id == id)
            .map(|(_, &v)| v)
            .max()
            .unwrap_or(0)
    }

    /// Absorb another registry. Counters add, gauges max, histograms add
    /// element-wise — all commutative and associative, so the result is
    /// independent of merge order and grouping.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(*k).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(*k).or_default().merge(h);
        }
    }

    /// Counter series in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&SeriesKey, &u64)> {
        self.counters.iter()
    }

    /// Gauge series in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, &u64)> {
        self.gauges.iter()
    }

    /// Histogram series in key order.
    pub fn hists(&self) -> impl Iterator<Item = (&SeriesKey, &Log2Hist)> {
        self.hists.iter()
    }

    /// Series of one id, in key order, as `(key, scalar)` pairs — counters
    /// and gauges verbatim; histograms contribute `count`/`sum`/`min`/`max`
    /// scalars with a suffix on the rendered key.
    fn scalar_series(&self, id: MetricId) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        match id.kind() {
            MetricKind::Counter => {
                for (k, &v) in self.counters.iter().filter(|(k, _)| k.id == id) {
                    out.push((k.render(), v));
                }
            }
            MetricKind::Gauge => {
                for (k, &v) in self.gauges.iter().filter(|(k, _)| k.id == id) {
                    out.push((k.render(), v));
                }
            }
            MetricKind::Histogram => {
                for (_, h) in self.hists.iter().filter(|(k, _)| k.id == id) {
                    let name = id.name();
                    out.push((format!("{name}_count"), h.count()));
                    out.push((format!("{name}_sum"), h.sum() as u64));
                    let min = if h.count() == 0 { 0 } else { h.min() };
                    out.push((format!("{name}_min"), min));
                    out.push((format!("{name}_max"), h.max()));
                }
            }
        }
        out
    }

    /// All series of non-deterministic ids as rendered `(key, value)`
    /// pairs, catalog order then key order — the content of a profile
    /// report's single-line `nd_series` object.
    pub fn nd_scalar_series(&self) -> Vec<(String, u64)> {
        MetricId::ALL
            .iter()
            .filter(|id| !id.deterministic())
            .flat_map(|&id| self.scalar_series(id))
            .collect()
    }

    /// Render the Prometheus text exposition: `# HELP` / `# TYPE` per
    /// catalog id, then one sample line per series (histograms expose
    /// cumulative `_bucket{le=..}` plus `_sum` / `_count`).
    pub fn to_prom(&self) -> String {
        let mut out = String::new();
        for &id in MetricId::ALL.iter() {
            let name = format!("wormcast_{}", id.name());
            out.push_str(&format!("# HELP {name} {}\n", id.help()));
            out.push_str(&format!("# TYPE {name} {}\n", id.kind().name()));
            match id.kind() {
                MetricKind::Counter => {
                    let mut any = false;
                    for (_, v) in self.counters.iter().filter(|(k, _)| k.id == id) {
                        out.push_str(&format!("{name} {v}\n"));
                        any = true;
                    }
                    if !any {
                        out.push_str(&format!("{name} 0\n"));
                    }
                }
                MetricKind::Gauge => {
                    let mut any = false;
                    for (_, v) in self.gauges.iter().filter(|(k, _)| k.id == id) {
                        out.push_str(&format!("{name} {v}\n"));
                        any = true;
                    }
                    if !any {
                        out.push_str(&format!("{name} 0\n"));
                    }
                }
                MetricKind::Histogram => {
                    let mut any = false;
                    for (_, h) in self.hists.iter().filter(|(k, _)| k.id == id) {
                        any = true;
                        let mut cum = 0u64;
                        let top = h.buckets().iter().rposition(|&c| c > 0).unwrap_or(0);
                        for (i, &c) in h.buckets().iter().take(top + 1).enumerate() {
                            cum += c;
                            let le = if i >= 64 {
                                u64::MAX as u128
                            } else {
                                (1u128 << i) - 1
                            };
                            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                        }
                        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                        out.push_str(&format!("{name}_sum {}\n", h.sum()));
                        out.push_str(&format!("{name}_count {}\n", h.count()));
                    }
                    if !any {
                        out.push_str(&format!("{name}_sum 0\n{name}_count 0\n"));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.inc_by(SeriesKey::plain(MetricId::EngineWheelBucketScans), 10);
        r.gauge_max(SeriesKey::plain(MetricId::EngineArenaMsgsHighwater), 7);
        r.inc_by(SeriesKey::plain(MetricId::EngineStalls), 100);
        r.observe(SeriesKey::plain(MetricId::HarnessRepWallNs), 1024);
        r.observe(SeriesKey::plain(MetricId::HarnessRepWallNs), 3);
        r
    }

    #[test]
    fn catalog_names_are_unique_and_stable() {
        let mut names: Vec<&str> = MetricId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric names");
        assert_eq!(MetricId::ALL.len(), 16);
    }

    #[test]
    fn counters_add_gauges_max_hists_add() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(
            a.counter(SeriesKey::plain(MetricId::EngineWheelBucketScans)),
            20
        );
        assert_eq!(
            a.gauge(SeriesKey::plain(MetricId::EngineArenaMsgsHighwater)),
            7
        );
        assert_eq!(a.counter(SeriesKey::plain(MetricId::EngineStalls)), 200);
        let h = a
            .hist(SeriesKey::plain(MetricId::HarnessRepWallNs))
            .unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 2 * (1024 + 3));
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn merge_is_order_independent() {
        // The satellite contract: any merge order and grouping produces the
        // same registry (counters commute, max commutes, bucket adds
        // commute).
        let mut a = MetricsRegistry::new();
        a.inc_by(SeriesKey::plain(MetricId::EngineReroutes), 1);
        a.gauge_max(SeriesKey::plain(MetricId::HarnessQueueDepthMax), 3);
        a.observe(SeriesKey::plain(MetricId::HarnessRepWallNs), 500);
        let mut b = MetricsRegistry::new();
        b.inc_by(SeriesKey::plain(MetricId::EngineReroutes), 5);
        b.gauge_max(SeriesKey::plain(MetricId::HarnessQueueDepthMax), 2);
        b.observe(SeriesKey::plain(MetricId::HarnessRepWallNs), 9_000);
        let mut c = MetricsRegistry::new();
        c.inc_by(SeriesKey::plain(MetricId::EngineStalls), 7);
        c.observe(SeriesKey::plain(MetricId::HarnessRepWallNs), 1);

        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        let mut ba = b.clone();
        ba.merge(&a);
        cba.merge(&ba);

        assert_eq!(abc.counters, cba.counters);
        assert_eq!(abc.gauges, cba.gauges);
        assert_eq!(
            abc.hists.keys().collect::<Vec<_>>(),
            cba.hists.keys().collect::<Vec<_>>()
        );
        for (k, h) in &abc.hists {
            let other = &cba.hists[k];
            assert_eq!(h.buckets(), other.buckets());
            assert_eq!(h.count(), other.count());
            assert_eq!(h.sum(), other.sum());
            assert_eq!(h.min(), other.min());
            assert_eq!(h.max(), other.max());
        }
        assert_eq!(abc.to_prom(), cba.to_prom());
    }

    #[test]
    fn log2_hist_buckets_by_bit_length() {
        let mut h = Log2Hist::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.buckets()[0], 1, "zero bucket");
        assert_eq!(h.buckets()[1], 1, "bit length 1");
        assert_eq!(h.buckets()[2], 2, "bit length 2");
        assert_eq!(h.buckets()[11], 1, "1024 has bit length 11");
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn prom_exposition_covers_catalog_and_labels() {
        let r = sample();
        let prom = r.to_prom();
        for id in MetricId::ALL {
            assert!(
                prom.contains(&format!("# TYPE wormcast_{} ", id.name())),
                "missing TYPE for {}",
                id.name()
            );
        }
        assert!(prom.contains("wormcast_engine_stalls 100"));
        assert!(prom.contains("wormcast_engine_arena_msgs_highwater 7"));
        assert!(prom.contains("wormcast_harness_rep_wall_ns_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("wormcast_harness_rep_wall_ns_sum 1027"));
        // Ids with no data still expose a zero sample.
        assert!(prom.contains("wormcast_trace_dropped 0"));
    }

    #[test]
    fn nd_series_lists_only_nondeterministic_ids() {
        let r = sample();
        let nd = r.nd_scalar_series();
        assert!(
            !nd.iter().any(|(k, _)| k == "engine_stalls"),
            "stalls are physics, so they stay deterministic: {nd:?}"
        );
        assert!(
            nd.iter()
                .any(|(k, v)| k == "engine_wheel_bucket_scans" && *v == 10),
            "wheel counters follow executor geometry, so they are nd: {nd:?}"
        );
        assert!(
            !nd.iter().any(|(k, _)| k.starts_with("engine_arena")),
            "arena occupancy is physics-determined, so it stays deterministic: {nd:?}"
        );
        assert!(nd
            .iter()
            .any(|(k, v)| k == "harness_rep_wall_ns_count" && *v == 2));
    }
}
