//! The unified experiment entry point and the replicated grid every
//! experiment runs on.
//!
//! The parameter struct *is* the experiment: [`Experiment::run`] takes an
//! [`Observation`] (which harness workers, whether telemetry frames are
//! collected) and returns a [`RunOutput`], the result cells alongside any
//! frames. Inside, every experiment is a grid of cells × replications
//! folded through one function, [`grid`].
//!
//! ```
//! use wormcast_experiments::{Experiment, fig1::Fig1Params};
//! use wormcast_workload::Runner;
//!
//! let params = Fig1Params { sides: vec![4], runs: 2, ..Default::default() };
//! // Unobserved: pass the runner alone.
//! let cells = params.run(&Runner::sequential()).cells;
//! assert_eq!(cells.len(), 4); // one cell per algorithm
//! ```
//!
//! With telemetry, pass `(&runner, &spec)` (or `(&runner, Option<&spec>)`
//! when the spec is itself optional, as in the driver's `--telemetry`
//! flag):
//!
//! ```
//! # use wormcast_experiments::{Experiment, fig1::Fig1Params};
//! # use wormcast_workload::Runner;
//! use wormcast_telemetry::TelemetrySpec;
//!
//! let params = Fig1Params { sides: vec![4], runs: 2, ..Default::default() };
//! let spec = TelemetrySpec::default();
//! let out = params.run((&Runner::sequential(), &spec));
//! assert_eq!(out.frames.len(), out.cells.len());
//! ```

use crate::telemetry::LabeledFrame;
use std::sync::atomic::{AtomicUsize, Ordering};
use wormcast_telemetry::{Observe, TelemetryFrame, TelemetrySpec};
use wormcast_workload::{Runner, TelemetryMerge};

/// How an [`Experiment`] run is observed: the harness workers that execute
/// it, plus an optional telemetry spec. Build one implicitly via the `From`
/// impls — `&Runner` for an unobserved run, `(&Runner, &TelemetrySpec)` or
/// `(&Runner, Option<&TelemetrySpec>)` to collect frames.
#[derive(Clone, Copy)]
pub struct Observation<'a> {
    runner: &'a Runner,
    telemetry: Option<&'a TelemetrySpec>,
}

impl<'a> Observation<'a> {
    /// An unobserved run on `runner`'s workers.
    pub fn new(runner: &'a Runner) -> Self {
        Observation {
            runner,
            telemetry: None,
        }
    }

    /// Attach a telemetry spec; every replication then collects a frame.
    pub fn with_telemetry(mut self, spec: &'a TelemetrySpec) -> Self {
        self.telemetry = Some(spec);
        self
    }

    /// The harness the experiment runs on.
    pub fn runner(&self) -> &'a Runner {
        self.runner
    }

    /// The telemetry spec, when frames are wanted.
    pub fn telemetry(&self) -> Option<&'a TelemetrySpec> {
        self.telemetry
    }
}

impl<'a> From<&'a Runner> for Observation<'a> {
    fn from(runner: &'a Runner) -> Self {
        Observation::new(runner)
    }
}

impl<'a> From<(&'a Runner, &'a TelemetrySpec)> for Observation<'a> {
    fn from((runner, spec): (&'a Runner, &'a TelemetrySpec)) -> Self {
        Observation::new(runner).with_telemetry(spec)
    }
}

impl<'a> From<(&'a Runner, Option<&'a TelemetrySpec>)> for Observation<'a> {
    fn from((runner, telemetry): (&'a Runner, Option<&'a TelemetrySpec>)) -> Self {
        Observation { runner, telemetry }
    }
}

/// What an [`Experiment::run`] produced: the result grid plus any telemetry
/// frames (empty unless the [`Observation`] carried a spec). Frames are
/// sorted by the same key as the cells, so when telemetry is on, frame *k*
/// describes cell *k*.
#[derive(Debug)]
pub struct RunOutput<C> {
    /// The experiment's result rows, in the module's documented order.
    pub cells: Vec<C>,
    /// Per-cell telemetry frames; empty when telemetry was off.
    pub frames: Vec<LabeledFrame>,
}

impl<C> RunOutput<C> {
    /// Collect `(cell, frame)` rows, in order, labelling each frame present
    /// with `label(&cell)`.
    pub fn labeled(
        rows: impl IntoIterator<Item = (C, Option<TelemetryFrame>)>,
        label: impl Fn(&C) -> String,
    ) -> Self {
        let mut out = RunOutput {
            cells: Vec::new(),
            frames: Vec::new(),
        };
        for (cell, frame) in rows {
            if let Some(frame) = frame {
                out.frames.push(LabeledFrame::new(label(&cell), frame));
            }
            out.cells.push(cell);
        }
        out
    }

    /// Split into `(cells, frames)`.
    pub fn into_parts(self) -> (Vec<C>, Vec<LabeledFrame>) {
        (self.cells, self.frames)
    }
}

/// Run `runs` replications of every cell of `plan` on `obs`'s workers and
/// fold each cell's outputs into one accumulator.
///
/// Task `c * runs + r` is replication `r` of cell `plan[c]`: it runs
/// `task(&plan[c], r, observe)`, where `observe` (present when `obs` carries
/// a telemetry spec) stamps the task index as the events' `rep`, so
/// `(rep, msg)` pairs are unique across the whole export. Outputs fold
/// strictly in task order: `fold` into the cell's accumulator (starting
/// from `A::default()`) and the frame into the cell's merged frame. Memory
/// stays O(cells) however many replications run, and the result is
/// bit-identical for any worker count.
///
/// Each cell publishes the room its merged event log has left after every
/// fold, and a task reads it when it starts as its `observe`'s
/// [`Observe::event_bound`]. The room only shrinks as later replications
/// fold, so whatever a task reads, however far it ran ahead of its cell's
/// folds, bounds the room its own frame will meet; its log then does not
/// store the lines longer than that, which the merge would drop anyway. The
/// merged log is the same for any bound, so the output still does not
/// depend on the worker count.
///
/// Returns, in plan order, each cell's accumulator, its key and its merged
/// frame (`None` without telemetry).
pub fn grid<'p, 'a, K: Sync, T: Send, A: Default>(
    obs: impl Into<Observation<'a>>,
    plan: &'p [K],
    runs: usize,
    task: impl Fn(&K, usize, Option<Observe<'a>>) -> (T, Option<TelemetryFrame>) + Sync,
    mut fold: impl FnMut(&mut A, T),
) -> Vec<(A, &'p K, Option<TelemetryFrame>)> {
    let obs = obs.into();
    let telemetry = obs.telemetry();
    let mut acc: Vec<(A, TelemetryMerge)> = plan.iter().map(|_| Default::default()).collect();
    // Per cell: the room its merged event log had left after the latest
    // fold (no bound before the first).
    let rooms: Vec<AtomicUsize> = plan.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
    obs.runner().run(
        plan.len() * runs,
        |i| {
            let c = i / runs;
            let observe = telemetry.map(|spec| {
                Observe::new(spec, i as u64).with_event_bound(rooms[c].load(Ordering::Relaxed))
            });
            task(&plan[c], i % runs, observe)
        },
        |i, (out, frame)| {
            let c = i / runs;
            let (a, merge) = &mut acc[c];
            fold(a, out);
            merge.absorb(frame);
            if let Some(left) = merge.event_room() {
                rooms[c].store(left, Ordering::Relaxed);
            }
        },
    );
    acc.into_iter()
        .zip(plan)
        .map(|((a, merge), key)| (a, key, merge.finish()))
        .collect()
}

/// An experiment of the evaluation section: a parameter struct that can run
/// itself on a replication harness and report its result grid.
///
/// Implementations run on [`grid`], so cells fold in a `--jobs`-independent
/// order and the output is bit-identical for any worker count, observed or
/// not.
pub trait Experiment {
    /// One row of the experiment's result grid.
    type Cell;

    /// Run the experiment under `obs`; see [`Observation`] for the accepted
    /// shorthands.
    fn run<'a>(&self, obs: impl Into<Observation<'a>>) -> RunOutput<Self::Cell>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_from_runner_is_unobserved() {
        let r = Runner::sequential();
        let obs: Observation = (&r).into();
        assert!(obs.telemetry().is_none());
        assert_eq!(obs.runner().jobs(), 1);
    }

    #[test]
    fn observation_from_pair_carries_spec() {
        let r = Runner::new(2);
        let spec = TelemetrySpec::default();
        let obs: Observation = (&r, &spec).into();
        assert!(obs.telemetry().is_some());
        assert_eq!(obs.runner().jobs(), 2);
    }

    #[test]
    fn observation_from_optional_pair_matches_either_arm() {
        let r = Runner::sequential();
        let spec = TelemetrySpec::default();
        let on: Observation = (&r, Some(&spec)).into();
        let off: Observation = (&r, None).into();
        assert!(on.telemetry().is_some());
        assert!(off.telemetry().is_none());
    }

    use wormcast_telemetry::events::{parse_line, Scalar};

    /// A frame holding one event stamped with `observe`'s `rep`.
    fn frame_of(observe: Observe<'_>) -> TelemetryFrame {
        use wormcast_telemetry::{Event, EventKind, EventLog};
        let mut log = EventLog::new(1 << 12);
        log.push(Event::new(0, EventKind::Inject, observe.rep));
        TelemetryFrame {
            events: Some(log),
            ..TelemetryFrame::default()
        }
    }

    #[test]
    fn grid_folds_each_cell_in_replication_order() {
        let plan = [10usize, 20, 30];
        let spec = TelemetrySpec::default();
        for jobs in [1, 3] {
            let r = Runner::new(jobs);
            let rows = grid(
                (&r, &spec),
                &plan,
                4,
                |&k, rep, observe| (k + rep, observe.map(frame_of)),
                |acc: &mut Vec<usize>, x| acc.push(x),
            );
            assert_eq!(rows.len(), plan.len());
            for (c, (acc, &k, frame)) in rows.into_iter().enumerate() {
                assert_eq!(k, plan[c]);
                assert_eq!(acc, [k, k + 1, k + 2, k + 3], "jobs={jobs}");
                // Task c * runs + r stamps rep; frames merge in that order.
                let log = frame.expect("observed").events.expect("events on");
                let reps: Vec<u64> = log
                    .to_ndjson()
                    .lines()
                    .map(|line| {
                        let fields = parse_line(line).expect("rendered lines parse");
                        match fields.iter().find(|(k, _)| k == "rep") {
                            Some((_, Scalar::U64(rep))) => *rep,
                            other => panic!("no integer rep in {line}: {other:?}"),
                        }
                    })
                    .collect();
                let want: Vec<u64> = (0..4).map(|r| (c * 4 + r) as u64).collect();
                assert_eq!(reps, want, "jobs={jobs}");
            }
        }
        let r = Runner::sequential();
        let rows = grid(
            &r,
            &plan,
            2,
            |_, _, o| ((), o.map(frame_of)),
            |_: &mut (), _| {},
        );
        assert!(rows.iter().all(|(_, _, frame)| frame.is_none()));
    }

    #[test]
    fn labeled_names_only_the_frames_present() {
        let rows = vec![
            (1, Some(TelemetryFrame::default())),
            (2, None),
            (3, Some(TelemetryFrame::default())),
        ];
        let out = RunOutput::labeled(rows, |c| format!("cell{c}"));
        assert_eq!(out.cells, [1, 2, 3]);
        let labels: Vec<&str> = out.frames.iter().map(|f| f.label.as_str()).collect();
        assert_eq!(labels, ["cell1", "cell3"]);
    }

    #[test]
    fn run_output_splits() {
        let out = RunOutput {
            cells: vec![1, 2, 3],
            frames: Vec::new(),
        };
        let (cells, frames) = out.into_parts();
        assert_eq!(cells, vec![1, 2, 3]);
        assert!(frames.is_empty());
    }
}
