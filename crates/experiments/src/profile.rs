//! `--profile PATH`: the driver-side profiling session every experiment
//! binary threads through its phases.
//!
//! A [`ProfileSession`] is a no-op unless `--profile` was given, so the
//! unprofiled binaries keep their exact code path. When enabled it records
//! the driver's phase spans (`setup` → `run` → `merge` → `emit`), merges
//! every cell frame's [`MetricsRegistry`] in cell order, folds in the
//! replication harness probe (`harness_*` series) and the event-stream drop
//! count, and writes:
//!
//! * the versioned JSON profile report at `PATH` (see
//!   `wormcast_telemetry::profile` for the determinism contract — all
//!   execution-dependent content on `"nd_"`-keyed lines);
//! * a Prometheus text exposition next to it at `PATH` with the extension
//!   replaced by `.prom`;
//! * and, when `--events` is also set, the driver-level
//!   `span_open`/`span_close`/`metric_snapshot` lines appended to the event
//!   stream.

use crate::cli::CommonOpts;
use crate::report::cannot_write;
use crate::telemetry::{write_ndjson, LabeledFrame};
use wormcast_telemetry::{MetricId, MetricsRegistry, ProfileReport, Profiler, SeriesKey};
use wormcast_workload::take_probe;

/// A driver run's profiling session; construct with [`ProfileSession::begin`]
/// and finish with [`ProfileSession::finish`]. Every method is a no-op when
/// `--profile` was not given.
#[derive(Debug)]
pub struct ProfileSession {
    enabled: bool,
    experiment: &'static str,
    profiler: Profiler,
}

impl ProfileSession {
    /// Begin profiling experiment `name` (opens the root span and the
    /// `setup` phase) if `opts` carries `--profile`; otherwise an inert
    /// session.
    pub fn begin(opts: &CommonOpts, name: &'static str) -> Self {
        let enabled = opts.output.profile.is_some();
        let mut profiler = Profiler::new();
        if enabled {
            // Reset the harness probe so this session only sees its own runs.
            let _ = take_probe();
            profiler.open(name);
            profiler.phase("setup");
        }
        ProfileSession {
            enabled,
            experiment: name,
            profiler,
        }
    }

    /// Move to the next driver phase (closes the current one).
    pub fn phase(&mut self, name: &'static str) {
        if self.enabled {
            self.profiler.phase(name);
        }
    }

    /// Close the session: merge the cell frames' registries in cell order,
    /// fold in the harness probe and the event drop count, and write the
    /// report (+ `.prom`, + event-stream append) per `opts`.
    ///
    /// # Errors
    /// Returns the first output that could not be written.
    pub fn finish(self, opts: &CommonOpts, frames: &[LabeledFrame]) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let mut metrics = MetricsRegistry::new();
        for f in frames {
            metrics.merge(&f.frame.metrics);
        }
        let probe = take_probe();
        metrics.gauge_max(
            SeriesKey::plain(MetricId::HarnessQueueDepthMax),
            probe.max_queue_depth,
        );
        metrics.gauge_max(SeriesKey::plain(MetricId::HarnessWorkers), probe.workers);
        // Replication specs that time themselves (e.g. `BroadcastRep`) have
        // already counted their replications into the frames; for the rest,
        // the harness task count is the same deterministic number.
        if metrics.counter_total(MetricId::HarnessReplications) == 0 {
            metrics.inc_by(SeriesKey::plain(MetricId::HarnessReplications), probe.tasks);
        }
        let events_dropped: u64 = frames
            .iter()
            .filter_map(|f| f.frame.events.as_ref())
            .map(|log| log.dropped())
            .sum();
        metrics.inc_by(SeriesKey::plain(MetricId::EventsDropped), events_dropped);
        let (spans, wall) = self.profiler.finish();
        let report = ProfileReport::new(self.experiment, spans, wall, metrics);
        write_report(opts, &report)
    }
}

/// Write `report` to the `--profile` destination (JSON + sibling `.prom`)
/// and append its driver-level events to the `--events` stream if one was
/// written. Shared by [`ProfileSession::finish`] and the driver's trace
/// dump.
///
/// # Errors
/// Returns the first output that could not be written; a failure of the
/// `.prom` sibling is reported under the report's own path.
pub fn write_report(opts: &CommonOpts, report: &ProfileReport) -> Result<(), String> {
    let Some(json_path) = &opts.output.profile else {
        return Ok(());
    };
    let prom_path = json_path.with_extension("prom");
    report
        .write(json_path, &prom_path)
        .map_err(cannot_write(json_path))?;
    println!("wrote {}", json_path.display());
    println!("wrote {}", prom_path.display());
    if let Some(events_path) = &opts.output.events {
        write_ndjson(events_path, &report.events_ndjson(), true)
            .map_err(cannot_write(events_path))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_telemetry::{strip_nd, TelemetryFrame};

    fn opts(args: &[&str]) -> CommonOpts {
        CommonOpts::parse_from(args.iter().map(|s| s.to_string())).expect("valid flags")
    }

    #[test]
    fn disabled_session_writes_nothing() {
        let o = opts(&[]);
        let mut s = ProfileSession::begin(&o, "fig1");
        s.phase("run");
        s.finish(&o, &[]).expect("nothing to write"); // no --profile path: must not touch the fs
    }

    #[test]
    fn session_report_has_driver_phases_and_is_skeleton_stable() {
        let dir = std::env::temp_dir().join(format!("wormcast-prof-{}", std::process::id()));
        let render = |tag: &str, frames: &[LabeledFrame]| {
            let path = dir.join(format!("{tag}.json"));
            let o = opts(&["--profile", path.to_str().expect("utf-8 temp path")]);
            let mut s = ProfileSession::begin(&o, "fig1");
            s.phase("run");
            s.phase("merge");
            s.phase("emit");
            s.finish(&o, frames).expect("write profile report");
            let json = std::fs::read_to_string(&path).expect("report written");
            assert!(
                path.with_extension("prom").exists(),
                "prom exposition written alongside"
            );
            json
        };
        let a = render("a", &[]);
        let b = render(
            "b",
            &[LabeledFrame::new("64/DB", TelemetryFrame::default())],
        );
        for phase in ["setup", "run", "merge", "emit"] {
            assert!(a.contains(&format!("\"name\": \"{phase}\"")), "{phase}");
        }
        assert_eq!(
            strip_nd(&a),
            strip_nd(&b),
            "skeleton invariant to frame count"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
