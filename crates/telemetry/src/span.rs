//! Phase spans: a deterministic span tree whose *structure* is a pure
//! function of the code path, with wall-clock durations carried separately
//! in non-deterministic fields.
//!
//! A [`Profiler`] records spans as drivers move through their phases
//! (`setup` → `run` → `merge` → `emit`). The tree — names, depths,
//! sequence numbers — is byte-identical across `--jobs` because spans are only opened from the driver's main thread along a
//! deterministic path; the measured `Instant` durations are returned
//! side-by-side (indexed by sequence number) so reports can render them on
//! `nd_`-marked lines excluded from determinism comparisons.

use std::time::Instant;

/// One node of the span tree: structure only, no timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Pre-order sequence number (also the index into the wall-clock
    /// vector).
    pub seq: u64,
    /// Nesting depth (root = 0).
    pub depth: u32,
    /// Static span name.
    pub name: &'static str,
}

/// Records a span tree with out-of-band wall-clock durations.
#[derive(Debug)]
pub struct Profiler {
    spans: Vec<SpanNode>,
    wall_ns: Vec<u64>,
    /// Stack of open spans: (index into `spans`, start time).
    open: Vec<(usize, Instant)>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler {
            spans: Vec::new(),
            wall_ns: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested under the currently open one.
    pub fn open(&mut self, name: &'static str) {
        let idx = self.spans.len();
        self.spans.push(SpanNode {
            seq: idx as u64,
            depth: self.open.len() as u32,
            name,
        });
        self.wall_ns.push(0);
        self.open.push((idx, Instant::now()));
    }

    /// Close the innermost open span, stamping its wall clock.
    pub fn close(&mut self) {
        if let Some((idx, t0)) = self.open.pop() {
            self.wall_ns[idx] = t0.elapsed().as_nanos() as u64;
        }
    }

    /// Move to the next phase at depth 1: closes the current depth-1 span
    /// (if one is open) and opens `name` under the root. Opens a root named
    /// `"driver"` first if none exists yet.
    pub fn phase(&mut self, name: &'static str) {
        if self.open.is_empty() {
            self.open("driver");
        }
        while self.open.len() > 1 {
            self.close();
        }
        self.open(name);
    }

    /// Close every open span and return `(structure, nd wall-clock ns)`,
    /// the latter indexed by [`SpanNode::seq`].
    pub fn finish(mut self) -> (Vec<SpanNode>, Vec<u64>) {
        while !self.open.is_empty() {
            self.close();
        }
        (self.spans, self.wall_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_is_pure_function_of_call_sequence() {
        let run = || {
            let mut p = Profiler::new();
            p.open("fig1");
            p.phase("setup");
            p.phase("run");
            p.phase("merge");
            p.phase("emit");
            p.finish()
        };
        let (a, wall_a) = run();
        let (b, wall_b) = run();
        assert_eq!(a, b, "span structure must be deterministic");
        assert_eq!(wall_a.len(), a.len());
        assert_eq!(wall_b.len(), b.len());
        let names: Vec<&str> = a.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["fig1", "setup", "run", "merge", "emit"]);
        let depths: Vec<u32> = a.iter().map(|s| s.depth).collect();
        assert_eq!(depths, vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn phase_without_root_opens_driver_root() {
        let mut p = Profiler::new();
        p.phase("setup");
        let (spans, wall) = p.finish();
        assert_eq!(spans[0].name, "driver");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "setup");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(wall.len(), 2);
    }

    #[test]
    fn nested_opens_track_depth() {
        let mut p = Profiler::new();
        p.open("root");
        p.open("outer");
        p.open("inner");
        p.close();
        p.open("inner2");
        let (spans, _) = p.finish();
        let got: Vec<(&str, u32)> = spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(
            got,
            vec![("root", 0), ("outer", 1), ("inner", 2), ("inner2", 2)]
        );
    }

    #[test]
    fn wall_clock_is_monotone_recorded() {
        let mut p = Profiler::new();
        p.open("root");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let (_, wall) = p.finish();
        assert!(wall[0] >= 1_000_000, "root span saw the sleep: {wall:?}");
    }
}
