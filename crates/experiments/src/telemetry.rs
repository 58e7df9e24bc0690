//! Telemetry plumbing shared by the experiment selectors.
//!
//! Figure result JSON (`--out`) is left completely untouched by telemetry —
//! it must stay byte-identical to pre-telemetry runs and across `--jobs`
//! counts. Everything observability-related goes to separate destinations:
//!
//! * `--telemetry DIR` → `DIR/<name>.telemetry.json`, a [`TelemetryReport`]
//!   of the run manifest plus one labelled frame export per experiment cell;
//! * `--events PATH` → the concatenated NDJSON event stream of all cells,
//!   in cell order (each cell's events already merged in replication order).
//!
//! The manifest's `wall_ms` is the only nondeterministic field in either
//! export; determinism tests zero it before comparing.

use crate::cli::CommonOpts;
use crate::report::{cannot_write, write_json};
use serde::Serialize;
use std::io::Write as _;
use std::path::Path;
use wormcast_network::Trace;
use wormcast_telemetry::events::open_ndjson;
use wormcast_telemetry::{EventLog, FrameExport, RunManifest, TelemetryFrame};

/// A merged per-cell frame plus the cell's label (e.g. `"512/DB"`).
#[derive(Debug)]
pub struct LabeledFrame {
    /// Cell label, unique within one experiment run.
    pub label: String,
    /// The cell's merged telemetry.
    pub frame: TelemetryFrame,
}

impl LabeledFrame {
    /// Label `frame` as `label`.
    pub fn new(label: impl Into<String>, frame: TelemetryFrame) -> Self {
        LabeledFrame {
            label: label.into(),
            frame,
        }
    }
}

/// The telemetry export: provenance + one frame per experiment cell.
#[derive(Debug, Serialize)]
pub struct TelemetryReport {
    /// Run provenance.
    pub manifest: RunManifest,
    /// Per-cell telemetry, in cell order.
    pub cells: Vec<FrameExport>,
}

impl TelemetryReport {
    /// Assemble a report from a manifest and labelled frames.
    pub fn new(manifest: RunManifest, frames: &[LabeledFrame]) -> Self {
        TelemetryReport {
            manifest,
            cells: frames.iter().map(|f| f.frame.export(&f.label)).collect(),
        }
    }
}

/// Concatenate every cell's retained events as one NDJSON string, in cell
/// order; the second element counts events dropped by per-frame budgets.
pub fn events_ndjson(frames: &[LabeledFrame]) -> (String, u64) {
    let mut out = String::with_capacity(event_logs(frames).map(EventLog::bytes_used).sum());
    let mut dropped = 0u64;
    for log in event_logs(frames) {
        out.push_str(log.ndjson());
        dropped += log.dropped();
    }
    (out, dropped)
}

/// The cells' event logs, in cell order.
fn event_logs(frames: &[LabeledFrame]) -> impl Iterator<Item = &EventLog> {
    frames.iter().filter_map(|f| f.frame.events.as_ref())
}

/// Write every cell's retained events to `path` as one NDJSON stream, in
/// cell order, straight from the logs' buffers: the same bytes as
/// [`events_ndjson`] without first concatenating them in memory.
fn write_events(path: &Path, frames: &[LabeledFrame]) -> std::io::Result<()> {
    let mut out = open_ndjson(path, false)?;
    for log in event_logs(frames) {
        out.write_all(log.ndjson().as_bytes())?;
    }
    Ok(())
}

// The writer itself moved into wormcast-telemetry so the serve layer can
// stream events without pulling in the experiments crate; every existing
// call site keeps working through this re-export.
pub use wormcast_telemetry::events::write_ndjson;

/// Write the telemetry outputs requested by `opts`: the
/// `<name>.telemetry.json` report under `--telemetry DIR` and/or the NDJSON
/// event stream at `--events PATH`. The manifest's `events_dropped` field
/// is stamped with the frames' byte-budget drop count before serialization,
/// so truncation is machine-readable in the export, not just a stderr
/// warning. Prints one line per file written.
///
/// # Errors
/// Returns the first output that could not be written.
pub fn write_outputs(
    opts: &CommonOpts,
    name: &str,
    mut manifest: RunManifest,
    frames: &[LabeledFrame],
) -> Result<(), String> {
    manifest.events_dropped = event_logs(frames).map(EventLog::dropped).sum();
    let events_dropped = manifest.events_dropped;
    if let Some(dir) = &opts.output.telemetry {
        let path = dir.join(format!("{name}.telemetry.json"));
        let report = TelemetryReport::new(manifest, frames);
        write_json(&path, &report).map_err(cannot_write(&path))?;
        println!("wrote {}", path.display());
    }
    if let Some(path) = &opts.output.events {
        write_events(path, frames).map_err(cannot_write(path))?;
        println!("wrote {}", path.display());
        if events_dropped > 0 {
            eprintln!(
                "warning: event stream truncated — {events_dropped} events dropped by the byte budget"
            );
        }
    }
    Ok(())
}

/// Satellite of the observability PR: the trace ring has always counted the
/// records it evicted, but nothing surfaced it. Every place that consumes a
/// bounded trace now warns on stderr instead of silently truncating.
pub fn warn_if_trace_dropped(trace: &Trace, context: &str) {
    if trace.dropped() > 0 {
        eprintln!(
            "warning: {context}: trace ring overflowed — {} oldest records dropped \
             (raise the trace capacity to keep them)",
            trace.dropped()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_telemetry::{Event, EventKind};

    fn frame_with_events(rep: u64, n: usize) -> TelemetryFrame {
        let mut log = EventLog::new(1 << 16);
        for i in 0..n {
            let mut e = Event::new(i as u64 * 10, EventKind::Inject, rep);
            e.msg = Some(i as u64);
            log.push(e);
        }
        TelemetryFrame {
            events: Some(log),
            ..TelemetryFrame::default()
        }
    }

    #[test]
    fn events_concatenate_in_cell_order() {
        let frames = vec![
            LabeledFrame::new("a", frame_with_events(0, 2)),
            LabeledFrame::new("b", frame_with_events(1, 1)),
        ];
        let (nd, dropped) = events_ndjson(&frames);
        assert_eq!(dropped, 0);
        let lines: Vec<&str> = nd.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"rep\":0"));
        assert!(lines[2].contains("\"rep\":1"));
    }

    #[test]
    fn report_exports_one_cell_per_frame() {
        let frames = vec![
            LabeledFrame::new("64/RD", TelemetryFrame::default()),
            LabeledFrame::new("64/DB", TelemetryFrame::default()),
        ];
        let m = RunManifest::new("fig1");
        let r = TelemetryReport::new(m, &frames);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.cells[0].label, "64/RD");
        let json = serde_json::to_string(&r).expect("serializable");
        assert!(json.contains("\"manifest\""));
        assert!(json.contains("\"cells\""));
    }
}
