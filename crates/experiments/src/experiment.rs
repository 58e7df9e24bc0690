//! The unified experiment entry point.
//!
//! Every experiment module used to expose a `run(params, runner)` /
//! `run_observed(params, runner, telemetry)` pair; the pairs differed only
//! in their cell type. [`Experiment::run`] collapses them: the parameter
//! struct *is* the experiment, an [`Observation`] says how to watch it
//! (which harness workers, whether telemetry frames are collected), and the
//! returned [`RunOutput`] carries the result cells alongside any frames.
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
use wormcast_telemetry::TelemetrySpec;
use wormcast_workload::Runner;

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
    /// Split into `(cells, frames)` — the old `run_observed` return shape.
    pub fn into_parts(self) -> (Vec<C>, Vec<LabeledFrame>) {
        (self.cells, self.frames)
    }
}

impl<C> From<RunOutput<C>> for (Vec<C>, Vec<LabeledFrame>) {
    fn from(out: RunOutput<C>) -> Self {
        out.into_parts()
    }
}

/// An experiment of the evaluation section: a parameter struct that can run
/// itself on a replication harness and report its result grid.
///
/// Implementations guarantee the same determinism contract as the old free
/// functions: cells fold in a `--jobs`-independent order, so the output is
/// bit-identical for any worker count, observed or not.
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
