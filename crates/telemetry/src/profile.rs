//! The versioned profile report: span tree + metrics registry, rendered as
//! deterministic-skeleton JSON plus a Prometheus text exposition.
//!
//! # Determinism contract
//!
//! The JSON rendering is hand-written so that every execution-dependent
//! datum lands on a line whose first key starts with `nd_`:
//!
//! * `"nd_span_wall_ns": [..]` — one line, wall-clock per span (indexed by
//!   `seq`);
//! * `"nd_series": {..}` — one line, every series of a non-deterministic
//!   metric id (wall clocks, queue depths, worker counts, wheel work),
//!   however many there are.
//!
//! Everything else — schema version, the span tree structure, the full
//! metric-id catalog and the values of deterministic metrics — is byte
//! identical across `--jobs` for fixed physics. Stripping
//! the `nd_` lines (`grep -v '"nd_'`, or [`strip_nd`]) therefore yields a
//! byte-comparable skeleton; `ci.sh` and `tests/profile_schema.rs` enforce
//! exactly that.

use crate::events::{to_ndjson, Event, EventKind};
use crate::registry::{MetricId, MetricKind, MetricsRegistry, SeriesKey};
use crate::span::SpanNode;
use std::io::Write as _;
use std::path::Path;

/// Profile report schema version.
pub const PROFILE_SCHEMA: u64 = 1;

/// Replication stamp used for driver-level profile events in the NDJSON
/// stream (no replication owns them).
pub const PROFILE_EVENT_REP: u64 = u64::MAX;

/// A complete profile of one driver run.
#[derive(Debug)]
pub struct ProfileReport {
    /// Experiment / driver name (e.g. `"fig1"`).
    pub experiment: String,
    /// Span tree structure, pre-order.
    pub spans: Vec<SpanNode>,
    /// Wall-clock nanoseconds per span, indexed by [`SpanNode::seq`]
    /// (execution-dependent; rendered on an `nd_` line).
    pub nd_span_wall_ns: Vec<u64>,
    /// The merged metrics registry.
    pub metrics: MetricsRegistry,
}

impl ProfileReport {
    /// A report over the given spans and registry.
    pub fn new(
        experiment: impl Into<String>,
        spans: Vec<SpanNode>,
        nd_span_wall_ns: Vec<u64>,
        metrics: MetricsRegistry,
    ) -> Self {
        ProfileReport {
            experiment: experiment.into(),
            spans,
            nd_span_wall_ns,
            metrics,
        }
    }

    /// Render the JSON report. Hand-written (no serde) so the
    /// non-deterministic content occupies exactly the `nd_`-keyed lines.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {PROFILE_SCHEMA},\n"));
        out.push_str("  \"tool\": \"wormcast\",\n");
        out.push_str("  \"kind\": \"profile\",\n");
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            escape(&self.experiment)
        ));
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"seq\": {}, \"depth\": {}, \"name\": \"{}\"}}{comma}\n",
                s.seq,
                s.depth,
                escape(s.name)
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"nd_span_wall_ns\": [");
        for (i, ns) in self.nd_span_wall_ns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&ns.to_string());
        }
        out.push_str("],\n");
        out.push_str("  \"metrics\": [\n");
        for (i, &id) in MetricId::ALL.iter().enumerate() {
            let comma = if i + 1 < MetricId::ALL.len() { "," } else { "" };
            if id.deterministic() {
                let value = match id.kind() {
                    MetricKind::Counter => self.metrics.counter_total(id),
                    MetricKind::Gauge => self.metrics.gauge_overall(id),
                    MetricKind::Histogram => self
                        .metrics
                        .hist(SeriesKey::plain(id))
                        .map_or(0, |h| h.count()),
                };
                out.push_str(&format!(
                    "    {{\"id\": \"{}\", \"kind\": \"{}\", \"deterministic\": true, \
                     \"value\": {value}}}{comma}\n",
                    id.name(),
                    id.kind().name()
                ));
            } else {
                out.push_str(&format!(
                    "    {{\"id\": \"{}\", \"kind\": \"{}\", \"deterministic\": false}}{comma}\n",
                    id.name(),
                    id.kind().name()
                ));
            }
        }
        out.push_str("  ],\n");
        out.push_str("  \"nd_series\": {");
        for (i, (k, v)) in self.metrics.nd_scalar_series().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {v}", escape(k)));
        }
        out.push_str("}\n");
        out.push_str("}\n");
        out
    }

    /// Render the Prometheus text exposition of the registry.
    pub fn to_prom(&self) -> String {
        self.metrics.to_prom()
    }

    /// Render the driver-level NDJSON events: `span_open`/`span_close`
    /// along the tree, then one `metric_snapshot` per deterministic metric.
    /// Timestamps are a deterministic sequence counter (not wall clock), so
    /// appending these lines to an event stream keeps it schema-valid.
    pub fn events_ndjson(&self) -> String {
        let mut events = Vec::new();
        let mut emit = |kind: EventKind, name: &'static str, q: Option<u64>| {
            let mut e = Event::new(events.len() as u64, kind, PROFILE_EVENT_REP);
            e.name = Some(name);
            e.q = q;
            events.push(e);
        };
        // Reconstruct open/close order from the pre-order + depth encoding.
        let mut open: Vec<&SpanNode> = Vec::new();
        for s in &self.spans {
            while open.last().is_some_and(|o| o.depth >= s.depth) {
                let o = open.pop().expect("non-empty");
                emit(EventKind::SpanClose, o.name, Some(o.seq));
            }
            emit(EventKind::SpanOpen, s.name, Some(s.seq));
            open.push(s);
        }
        while let Some(o) = open.pop() {
            emit(EventKind::SpanClose, o.name, Some(o.seq));
        }
        for &id in MetricId::ALL.iter().filter(|id| id.deterministic()) {
            let value = match id.kind() {
                MetricKind::Counter => self.metrics.counter_total(id),
                MetricKind::Gauge => self.metrics.gauge_overall(id),
                MetricKind::Histogram => self
                    .metrics
                    .hist(SeriesKey::plain(id))
                    .map_or(0, |h| h.count()),
            };
            emit(EventKind::MetricSnapshot, id.name(), Some(value));
        }
        to_ndjson(&events)
    }

    /// Write the JSON report to `json_path` and the Prometheus exposition
    /// to `prom_path`, creating parent directories as needed.
    pub fn write(&self, json_path: &Path, prom_path: &Path) -> std::io::Result<()> {
        for p in [json_path, prom_path] {
            if let Some(dir) = p.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
        }
        let mut f = std::fs::File::create(json_path)?;
        f.write_all(self.to_json().as_bytes())?;
        let mut f = std::fs::File::create(prom_path)?;
        f.write_all(self.to_prom().as_bytes())
    }
}

/// The deterministic skeleton of a rendered report: every line whose
/// content carries an `nd_` key removed. Mirrors the `grep -v '"nd_'` the
/// CI gate applies before byte-comparing reports across `--jobs`.
pub fn strip_nd(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("\"nd_"))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Profiler;

    fn report(workers: u64, wall: u64) -> ProfileReport {
        let mut p = Profiler::new();
        p.open("fig1");
        p.phase("setup");
        p.phase("run");
        p.phase("merge");
        p.phase("emit");
        let (spans, _) = p.finish();
        let nd_wall = vec![wall; spans.len()];
        let mut m = MetricsRegistry::new();
        m.inc_by(SeriesKey::plain(MetricId::EngineWheelBucketScans), 42);
        m.gauge_max(SeriesKey::plain(MetricId::EngineArenaMsgsHighwater), 9);
        m.gauge_max(SeriesKey::plain(MetricId::HarnessWorkers), workers);
        m.observe(SeriesKey::plain(MetricId::HarnessRepWallNs), wall);
        ProfileReport::new("fig1", spans, nd_wall, m)
    }

    #[test]
    fn skeleton_is_invariant_across_geometry() {
        // Different worker counts and wall clocks; identical skeleton.
        let a = report(1, 10).to_json();
        let b = report(4, 999_999).to_json();
        assert_ne!(a, b, "nd content must differ");
        assert_eq!(strip_nd(&a), strip_nd(&b), "skeleton must not differ");
    }

    #[test]
    fn report_lists_full_catalog_and_all_spans() {
        // The vendored serde facade has no deserializer, so validate the
        // hand-rendered layout at the line level.
        let r = report(2, 5);
        let json = r.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains(&format!("\"schema\": {PROFILE_SCHEMA},")));
        assert!(json.contains("\"kind\": \"profile\","));
        let metric_lines = json.lines().filter(|l| l.contains("\"id\": \"")).count();
        assert_eq!(
            metric_lines,
            MetricId::ALL.len(),
            "metrics array lists the full catalog"
        );
        let span_lines = json.lines().filter(|l| l.contains("\"seq\": ")).count();
        assert_eq!(span_lines, 5, "one line per span");
        assert!(json.contains("\"harness_workers\": 2"));
        let wall_line = json
            .lines()
            .find(|l| l.contains("\"nd_span_wall_ns\""))
            .expect("wall line present");
        assert_eq!(
            wall_line.matches(", ").count() + 1,
            5,
            "one wall sample per span: {wall_line}"
        );
    }

    #[test]
    fn nd_lines_carry_the_execution_dependent_series() {
        let json = report(4, 7).to_json();
        assert!(json.contains("\"harness_rep_wall_ns_count\": 1"), "{json}");
        for line in json.lines().filter(|l| l.contains("harness_workers")) {
            assert!(
                line.contains("\"nd_") || line.contains("\"deterministic\": false"),
                "worker count leaked onto a deterministic line: {line}"
            );
        }
    }

    #[test]
    fn events_render_balanced_spans_and_snapshots() {
        let r = report(1, 3);
        let nd = r.events_ndjson();
        let opens = nd.matches("\"ev\":\"span_open\"").count();
        let closes = nd.matches("\"ev\":\"span_close\"").count();
        assert_eq!(opens, 5);
        assert_eq!(closes, 5);
        assert!(nd.contains("\"ev\":\"metric_snapshot\""));
        assert!(nd.contains("\"name\":\"engine_arena_msgs_highwater\""));
        let stats = crate::events::validate_ndjson(&nd).expect("profile events validate");
        assert!(stats.lines >= 10);
    }
}
