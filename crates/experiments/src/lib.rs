//! # wormcast-experiments — regenerating the paper's tables and figures
//!
//! One module per experiment of the evaluation section (§3):
//!
//! | Module | Reproduces | Paper setting |
//! |--------|------------|---------------|
//! | [`fig1`] | Fig. 1 | broadcast latency vs network size (64–4096 nodes) |
//! | [`fig1_scale`] | Fig. 1 extended | latency at 10⁵–10⁶ nodes |
//! | [`fig2`] | Fig. 2, Tables 1–2 | CV of arrival times vs network size |
//! | [`fig34`] | Figs. 3 & 4 | latency vs load, 90/10 unicast/broadcast mix |
//! | [`steps`] | §2 identities | step counts vs closed forms |
//! | [`multicast`] | §4 future work | UM/CM/SP multicast density sweep |
//! | [`arrivals`] | §3.2 widened | per-destination arrival percentiles & histograms |
//! | [`faults`] | beyond the paper | delivery ratio vs link fault rate |
//! | [`saturation`] | beyond the paper | offered vs delivered load for DB/AB/QAB |
//! | [`schedules`] | beyond the paper | delivered load vs time under a load ramp |
//!
//! Each experiment's parameter struct implements the [`Experiment`] trait:
//! `params.run(&runner)` produces the result cells, and
//! `params.run((&runner, &telemetry_spec))` additionally collects telemetry
//! frames (see [`Observation`] for the accepted shorthands). Modules also
//! expose `table` (render the paper's layout) and, where the paper makes
//! qualitative claims, `check_claims` (verify the shape of the result
//! programmatically). [`suite`] holds one row per selector of `wormcast`,
//! the only experiment driver binary: `wormcast <selector>` prints the
//! tables and persists JSON via `--out DIR`. `show` renders a schedule.

#![warn(missing_docs)]

pub mod arrivals;
pub mod cli;
pub mod experiment;
pub mod faults;
pub mod fig1;
pub mod fig1_scale;
pub mod fig2;
pub mod fig34;
pub mod multicast;
pub mod profile;
pub mod report;
pub mod saturation;
pub mod schedules;
pub mod steps;
pub mod suite;
pub mod telemetry;

pub use cli::CommonOpts;
pub use experiment::{Experiment, Observation, RunOutput};
pub use profile::ProfileSession;
pub use report::{cannot_write, write_json, Table};
pub use telemetry::{LabeledFrame, TelemetryReport};
