//! The experiment table behind the `wormcast` driver: one [`ExperimentSpec`]
//! row per selector. A row turns the parsed [`RunOptions`] into a [`Plan`]:
//! the params' defaults, then `--quick`, then the common `--seed`/`--ts`/
//! `--length` overrides for whichever of those fields the params have, then
//! the selector's own flags. Nothing runs while planning, so every selector
//! and flag is validated before the first simulation. [`Plan::execute`] is
//! the one sequence every row shares: run, print the tables and the
//! `check_claims` verdict, write `<name>.json`, the telemetry outputs and
//! the profile report, all named after the row.

use crate::cli::{CommonOpts, RunOptions};
use crate::experiment::{Experiment, Observation};
use crate::profile::ProfileSession;
use crate::report::{cannot_write, to_json};
use crate::telemetry::{self, LabeledFrame};
use crate::{arrivals, faults, fig1, fig1_scale, fig2, fig34, multicast, saturation};
use crate::{schedules, steps};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;
use wormcast_telemetry::RunManifest;

/// One selector of the `wormcast` driver.
pub struct ExperimentSpec {
    /// Selector name: the profile root, the JSON stem and the telemetry stem.
    pub name: &'static str,
    /// Whether `all` (or no selector) runs this row; the others run only
    /// when named.
    pub in_all: bool,
    /// Flags only this selector takes, each with one value, and the value's
    /// name for the usage line.
    pub flags: &'static [(&'static str, &'static str)],
    /// Build the plan from the common options and this selector's own
    /// flags, as `(flag, value)` pairs in command-line order.
    pub plan: fn(&RunOptions, &Flags<'_>) -> Result<Plan, String>,
}

/// A selector's own flags as `(flag, value)` pairs.
pub type Flags<'a> = [(&'a str, &'a str)];

impl ExperimentSpec {
    fn owns(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }
}

const fn row(
    name: &'static str,
    in_all: bool,
    flags: &'static [(&'static str, &'static str)],
    plan: fn(&RunOptions, &Flags<'_>) -> Result<Plan, String>,
) -> ExperimentSpec {
    ExperimentSpec {
        name,
        in_all,
        flags,
        plan,
    }
}

const FAULTS_FLAGS: &[(&str, &str)] = &[("--rates", "CSV"), ("--side", "N")];

/// Every selector; `all` runs the `in_all` rows in this order.
pub static SUITE: &[ExperimentSpec] = &[
    row("steps", true, &[], |_, _| Ok(steps())),
    row("fig1", true, &[], |o, _| Ok(fig1(o, false))),
    row("fig1-lowts", true, &[], |o, _| Ok(fig1(o, true))),
    row("fig1-scale", false, &[], |o, _| Ok(fig1_scale(o))),
    row("fig2", true, &[], |o, _| Ok(fig2(o, false))),
    row("tables", true, &[], |o, _| Ok(fig2(o, true))),
    row("fig3", true, &[], |o, _| Ok(load_sweep(o, false))),
    row("fig4", true, &[], |o, _| Ok(load_sweep(o, true))),
    row("arrivals", true, &[], |o, _| Ok(arrivals(o))),
    row("multicast", true, &[], |o, _| Ok(multicast(o))),
    row("faults", true, FAULTS_FLAGS, faults),
    row("saturation", true, &[("--loads", "CSV")], saturation),
    row("schedules", true, &[("--schedule", "FILE")], schedules),
    row("simcheck", false, &[], |o, _| Ok(simcheck(o))),
];

/// The selector part of the `wormcast` usage line.
pub fn usage_args() -> String {
    let flags = SUITE.iter().flat_map(|s| s.flags);
    let flags: String = flags.map(|(f, v)| format!("[{f} {v}] ")).collect();
    format!("[SELECTOR]... {flags}")
}

/// Resolve the selectors and selector-owned flags left in `opts.rest` into
/// plans, in run order; no selector means `all`. Nothing runs here.
///
/// # Errors
/// A one-line message for an unknown selector or flag, a flag without its
/// value or its selector, or a malformed value.
pub fn select(opts: &CommonOpts) -> Result<Vec<(&'static ExperimentSpec, Plan)>, String> {
    let find = |name: &str| SUITE.iter().find(|s| s.name == name);
    let owner = |flag: &str| SUITE.iter().find(|s| s.owns(flag));
    let (mut named, mut flags) = (Vec::new(), Vec::new());
    let mut it = opts.rest.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            owner(arg).ok_or(format!("unknown flag '{arg}'"))?;
            flags.push((arg, it.next().ok_or(format!("{arg} needs a value"))?));
        } else if arg == "all" || find(arg).is_some() {
            named.push(arg);
        } else {
            let names: Vec<&str> = SUITE.iter().map(|s| s.name).collect();
            let names = names.join(", ");
            return Err(format!("unknown experiment '{arg}' ({names}, serve, all)"));
        }
    }
    let selected: Vec<&'static ExperimentSpec> = if named.is_empty() || named.contains(&"all") {
        SUITE.iter().filter(|s| s.in_all).collect()
    } else {
        named.into_iter().filter_map(find).collect()
    };
    if let Some(&(flag, _)) = flags
        .iter()
        .find(|(f, _)| !selected.iter().any(|s| s.owns(f)))
    {
        let owner = owner(flag).map_or("", |s| s.name);
        return Err(format!(
            "flag '{flag}' belongs to selector '{owner}', which is not selected"
        ));
    }
    let plan = |spec: &'static ExperimentSpec| {
        let own = flags.iter().copied().filter(|(f, _)| spec.owns(f));
        (spec.plan)(&opts.run, &own.collect::<Vec<_>>()).map(|plan| (spec, plan))
    };
    selected.into_iter().map(plan).collect()
}

/// The params fields the common overrides reach, as resolved; `None` where
/// the params have no such field. They also fill the telemetry manifest.
#[derive(Debug, Clone, Copy, Default)]
struct Common {
    /// RNG seed (`--seed`; for arrivals, the source node).
    seed: Option<u64>,
    /// Start-up latency, µs (`--ts`).
    startup_us: Option<f64>,
    /// Message length, flits (`--length`).
    length: Option<u64>,
}

/// The one override rule: each of `--seed`, `--ts` and `--length` replaces
/// the field it names when the params have one.
fn overrides(
    o: &RunOptions,
    seed: Option<&mut u64>,
    startup_us: Option<&mut f64>,
    length: Option<&mut u64>,
) -> Common {
    fn set<T: Copy>(field: Option<&mut T>, flag: Option<T>) -> Option<T> {
        let f = field?;
        *f = flag.unwrap_or(*f);
        Some(*f)
    }
    Common {
        seed: set(seed, o.seed),
        startup_us: set(startup_us, o.startup_us),
        length: set(length, o.length),
    }
}

/// [`overrides`] for params that have all three fields.
fn override_all(o: &RunOptions, seed: &mut u64, startup_us: &mut f64, length: &mut u64) -> Common {
    overrides(o, Some(seed), Some(startup_us), Some(length))
}

type RunFn = Box<dyn FnOnce(Observation<'_>, &mut ProfileSession) -> Ran>;

/// A selector's run, built from the options but not started.
pub struct Plan {
    common: Common,
    runs: usize,
    topologies: Vec<String>,
    run: RunFn,
}

/// What a row's run hands back to [`Plan::execute`].
struct Ran {
    frames: Vec<LabeledFrame>,
    /// Manifest algorithm names; `None` for rows that write no telemetry.
    algorithms: Option<Vec<String>>,
    /// The result JSON, as written to `<name>.json`.
    json: String,
    /// False when the run found a defect the exit status must report.
    clean: bool,
}

impl Ran {
    /// A run that simulates nothing observable, so writes no telemetry.
    fn untraced(json: String, clean: bool) -> Ran {
        let (frames, algorithms) = (Vec::new(), None);
        Ran {
            frames,
            algorithms,
            json,
            clean,
        }
    }
}

impl Plan {
    fn new(common: Common, runs: usize, topologies: Vec<String>, run: RunFn) -> Plan {
        Plan {
            common,
            runs,
            topologies,
            run,
        }
    }

    /// Run the plan as selector `name`, print its tables, and write the
    /// outputs `opts` asks for. Returns false when the run must fail the
    /// process.
    ///
    /// # Errors
    /// Returns the first output that could not be written.
    pub fn execute(self, name: &'static str, opts: &CommonOpts) -> Result<bool, String> {
        let opts = per_selector(opts, name);
        let mut prof = ProfileSession::begin(&opts, name);
        let (runner, spec) = (opts.run.runner(), opts.output.telemetry_spec());
        let t0 = Instant::now();
        let ran = (self.run)((&runner, spec.as_ref()).into(), &mut prof);
        let wall = t0.elapsed();
        prof.phase("emit");
        if let Some(dir) = &opts.output.out_dir {
            let path = dir.join(format!("{name}.json"));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, &ran.json))
                .map_err(cannot_write(&path))?;
            println!("wrote {}", path.display());
        }
        if let (Some(algorithms), Some(_)) = (ran.algorithms, &spec) {
            let mut m = RunManifest::new(name);
            m.master_seed = self.common.seed.unwrap_or(0);
            m.length_flits = self.common.length.unwrap_or(0);
            m.startup_us = self.common.startup_us.unwrap_or(0.0);
            m.runs = self.runs as u64;
            m.jobs = runner.jobs() as u64;
            m.wall_ms = wall.as_secs_f64() * 1e3;
            (m.algorithms, m.topologies) = (algorithms, self.topologies);
            telemetry::write_outputs(&opts, name, m, &ran.frames)?;
        }
        prof.finish(&opts, &ran.frames)?;
        println!();
        Ok(ran.clean)
    }
}

/// The driver runs several selectors in one process, so the event stream
/// and profile paths get the selector name inserted before their extension
/// (`events.ndjson` → `events-fig1.ndjson`, `prof.json` → `prof-fig1.json`)
/// to keep successive selectors from clobbering each other.
fn per_selector(opts: &CommonOpts, name: &str) -> CommonOpts {
    let with_sel = |p: &Path, ext: &str| {
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
        let ext = p.extension().and_then(|s| s.to_str()).unwrap_or(ext);
        p.with_file_name(format!("{stem}-{name}.{ext}"))
    };
    let mut o = opts.clone();
    o.output.events = opts.output.events.as_deref().map(|p| with_sel(p, "ndjson"));
    o.output.profile = opts.output.profile.as_deref().map(|p| with_sel(p, "json"));
    o
}

/// The run of an [`Experiment`] row: run it, let `report` print its tables
/// and return its `check_claims` verdict (`None` for a row without claims),
/// and keep the cells as the result JSON. `algorithm` names a cell's
/// algorithm for the manifest.
fn experiment<P>(
    p: P,
    algorithm: fn(&P::Cell) -> String,
    report: impl FnOnce(&[P::Cell], &P) -> Option<Vec<String>> + 'static,
) -> RunFn
where
    P: Experiment + 'static,
    P::Cell: Serialize + 'static,
{
    Box::new(move |obs, prof| {
        prof.phase("run");
        let (cells, frames) = p.run(obs).into_parts();
        prof.phase("merge");
        match report(&cells, &p).as_deref() {
            Some([]) => println!("claims: all of the paper's orderings hold"),
            Some(bad) => println!("claims VIOLATED:\n  - {}", bad.join("\n  - ")),
            None => {}
        }
        let mut algorithms: Vec<String> = cells.iter().map(algorithm).collect();
        algorithms.sort();
        algorithms.dedup();
        Ran {
            frames,
            algorithms: Some(algorithms),
            json: to_json(&cells),
            clean: true,
        }
    })
}

fn cube([x, y, z]: [u16; 3]) -> String {
    format!("{x}x{y}x{z}")
}

fn steps() -> Plan {
    let run: RunFn = Box::new(|_, prof| {
        prof.phase("run");
        let rows = steps::run(&steps::default_shapes());
        println!("{}", steps::table(&rows).render());
        Ran::untraced(to_json(&rows), true)
    });
    Plan::new(Common::default(), 0, Vec::new(), run)
}

fn fig1(o: &RunOptions, lowts: bool) -> Plan {
    let mut p = fig1::Fig1Params::default();
    if lowts {
        p.startup_us = 0.15;
    }
    if o.quick {
        (p.sides, p.runs) = (vec![4, 8, 10], 8);
    }
    let common = override_all(o, &mut p.seed, &mut p.startup_us, &mut p.length);
    let (runs, topologies) = (p.runs, p.sides.iter().map(|&s| cube([s; 3])).collect());
    let alg = |c: &fig1::Fig1Cell| c.algorithm.clone();
    let run = experiment(p, alg, |cells, p| {
        println!("{}", fig1::table(cells, p).render());
        Some(fig1::check_claims(cells))
    });
    Plan::new(common, runs, topologies, run)
}

fn fig1_scale(o: &RunOptions) -> Plan {
    let mut p = fig1_scale::Fig1ScaleParams::default();
    if o.quick {
        (p.shapes, p.runs) = (vec![[16, 16, 16], [32, 32, 32]], 2);
    }
    let common = override_all(o, &mut p.seed, &mut p.startup_us, &mut p.length);
    let (runs, topologies) = (p.runs, p.shapes.iter().copied().map(cube).collect());
    let alg = |c: &fig1_scale::Fig1ScaleCell| c.algorithm.clone();
    let run = experiment(p, alg, |cells, p| {
        println!("{}", fig1_scale::table(cells, p).render());
        Some(fig1_scale::check_claims(cells))
    });
    Plan::new(common, runs, topologies, run)
}

/// Fig. 2, or with `tables` the improvement Tables 1–2 over the same cells.
fn fig2(o: &RunOptions, tables: bool) -> Plan {
    let mut p = fig2::Fig2Params::default();
    if o.quick {
        p.runs = 10;
    }
    let common = override_all(o, &mut p.seed, &mut p.startup_us, &mut p.length);
    let (runs, topologies) = (p.runs, p.shapes.iter().copied().map(cube).collect());
    let alg = |c: &fig2::Fig2Cell| c.algorithm.clone();
    let run = experiment(p, alg, move |cells, p| {
        if !tables {
            println!("{}", fig2::fig2_table(cells, p).render());
            return Some(fig2::check_claims(cells));
        }
        println!("{}", fig2::improvement_table(cells, p, "DB").render());
        println!("{}", fig2::improvement_table(cells, p, "AB").render());
        None
    });
    Plan::new(common, runs, topologies, run)
}

/// Fig. 3, or with `fig4` Fig. 4.
fn load_sweep(o: &RunOptions, fig4: bool) -> Plan {
    let (mut p, caption) = if fig4 {
        (fig34::LoadSweepParams::fig4(), "Fig. 4")
    } else {
        (fig34::LoadSweepParams::fig3(), "Fig. 3")
    };
    if o.quick {
        (p.batch_size, p.batches, p.max_sim_ms) = (40, 6, 60.0);
    }
    let common = override_all(o, &mut p.seed, &mut p.startup_us, &mut p.length);
    let (runs, topologies) = (p.batches, vec![cube(p.shape)]);
    let alg = |c: &fig34::SweepCell| c.algorithm.clone();
    let run = experiment(p, alg, move |cells, p| {
        println!("{}", fig34::table(cells, p, caption).render());
        Some(fig34::check_claims(cells, p))
    });
    Plan::new(common, runs, topologies, run)
}

fn arrivals(o: &RunOptions) -> Plan {
    let mut p = arrivals::ArrivalParams::default();
    let mut source = u64::from(p.source);
    let common = overrides(o, Some(&mut source), None, Some(&mut p.length));
    p.source = source as u32;
    let topologies = vec![cube(p.shape)];
    let alg = |c: &arrivals::ArrivalProfile| c.algorithm.clone();
    let run = experiment(p, alg, |profiles, p| {
        println!("{}", arrivals::table(profiles, p).render());
        println!("{}", arrivals::step_table(profiles).render());
        None
    });
    Plan::new(common, 1, topologies, run)
}

fn multicast(o: &RunOptions) -> Plan {
    let mut p = multicast::MulticastParams::default();
    if o.quick {
        (p.set_sizes, p.runs) = (vec![5, 50, 400], 4);
    }
    let common = overrides(o, Some(&mut p.seed), None, Some(&mut p.length));
    let (runs, topologies) = (p.runs, vec![cube(p.shape)]);
    let alg = |c: &multicast::MulticastCell| c.scheme.clone();
    let run = experiment(p, alg, |cells, p| {
        println!("{}", multicast::table(cells, p).render());
        Some(multicast::check_claims(cells))
    });
    Plan::new(common, runs, topologies, run)
}

fn faults(o: &RunOptions, flags: &Flags<'_>) -> Result<Plan, String> {
    let mut p = faults::FaultsParams::default();
    if o.quick {
        (p.side, p.runs, p.rates) = (4, 4, vec![0.0, 0.05]);
    }
    let common = override_all(o, &mut p.seed, &mut p.startup_us, &mut p.length);
    for &(flag, v) in flags {
        match flag {
            "--rates" => {
                let rate = |x: f64| (0.0..=1.0).contains(&x);
                p.rates = csv(flag, v, "a fault rate in [0, 1]", rate)?;
            }
            // The smallest mesh every algorithm's schedule covers.
            _ => {
                p.side = v
                    .parse()
                    .ok()
                    .filter(|&side| side >= 2)
                    .ok_or(format!("{flag} must be a mesh side >= 2, got '{v}'"))?
            }
        }
    }
    let (runs, topologies) = (p.runs, vec![cube([p.side; 3])]);
    let alg = |c: &faults::FaultsCell| c.algorithm.clone();
    let run = experiment(p, alg, |cells, p| {
        println!("{}", faults::table(cells, p).render());
        println!("{}", faults::reliability_table(cells).render());
        Some(faults::check_claims(cells))
    });
    Ok(Plan::new(common, runs, topologies, run))
}

fn saturation(o: &RunOptions, flags: &Flags<'_>) -> Result<Plan, String> {
    let mut p = if o.quick {
        saturation::SaturationParams::quick()
    } else {
        saturation::SaturationParams::default()
    };
    let common = override_all(o, &mut p.seed, &mut p.startup_us, &mut p.length);
    for &(flag, v) in flags {
        let load = |x: f64| x.is_finite() && x > 0.0;
        p.loads = csv(flag, v, "a finite load > 0", load)?;
    }
    let (runs, topologies) = (p.batches, vec![cube(p.shape)]);
    let alg = |c: &saturation::SaturationCell| c.algorithm.clone();
    let run = experiment(p, alg, |cells, p| {
        println!("{}", saturation::table(cells, p).render());
        match saturation::ab_knee(cells, p) {
            Some(knee) => println!("AB's knee: offered load {knee} msg/ms/node"),
            None => println!("AB's knee: not reached on this axis"),
        }
        Some(saturation::check_claims(cells, p))
    });
    Ok(Plan::new(common, runs, topologies, run))
}

fn schedules(o: &RunOptions, flags: &Flags<'_>) -> Result<Plan, String> {
    let mut p = if o.quick {
        schedules::SchedulesParams::quick()
    } else {
        schedules::SchedulesParams::default()
    };
    let common = override_all(o, &mut p.seed, &mut p.startup_us, &mut p.length);
    for &(_, file) in flags {
        p.schedule = load_schedule(file)?;
    }
    let (runs, topologies) = (p.runs as usize, vec![cube(p.shape)]);
    let alg = |c: &schedules::ScheduleCell| c.algorithm.clone();
    let run = experiment(p, alg, |cells, p| {
        println!("{}", schedules::table(cells, p).render());
        Some(schedules::check_claims(cells))
    });
    Ok(Plan::new(common, runs, topologies, run))
}

fn simcheck(o: &RunOptions) -> Plan {
    let mut seed = 2005;
    let common = overrides(o, Some(&mut seed), None, None);
    let count = if o.quick { 50 } else { 200 };
    let run: RunFn = Box::new(move |_, prof| {
        prof.phase("run");
        let r = wormcast_simcheck::campaign(seed, count, 0);
        for f in &r.failures {
            eprintln!(
                "simcheck: scenario {} failed ({}): {}\nminimal repro:\n{}",
                f.index, f.kind, f.detail, f.repro
            );
        }
        println!("{}", r.summary());
        // The report renders its own deterministic JSON (no serde).
        Ran::untraced(r.to_json(), r.is_clean())
    });
    Plan::new(common, count as usize, Vec::new(), run)
}

/// Parse a selector flag's comma-separated list of numbers, each of which
/// must pass `ok` (`what` names the values it accepts).
fn csv(flag: &str, v: &str, what: &str, ok: impl Fn(f64) -> bool) -> Result<Vec<f64>, String> {
    let parse = |s: &str| {
        s.parse()
            .ok()
            .filter(|&x| ok(x))
            .ok_or(format!("{flag} entry '{s}' must be {what}"))
    };
    let xs = v
        .split(',')
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect::<Result<Vec<_>, _>>()?;
    if xs.is_empty() {
        return Err(format!("{flag} must list at least one value"));
    }
    Ok(xs)
}

/// Load and strictly decode a `--schedule FILE`: the object a v2
/// `ScenarioRequest` embeds under `scenario.schedule`.
fn load_schedule(file: &str) -> Result<wormcast_sim::Schedule, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("--schedule {file}: {e}"))?;
    wormcast_simcheck::schedule_from_json(&text).map_err(|e| format!("--schedule {file}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> CommonOpts {
        CommonOpts::parse_from(args.iter().map(|s| s.to_string())).expect("valid common flags")
    }

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        Ok(select(&opts(args))?
            .into_iter()
            .map(|(s, _)| s.name)
            .collect())
    }

    fn plan(args: &[&str]) -> Plan {
        let mut plans = select(&opts(args)).expect("valid selection");
        assert_eq!(plans.len(), 1, "{args:?}");
        plans.remove(0).1
    }

    #[test]
    fn every_row_honours_the_common_overrides() {
        let o = opts(&["--seed", "11", "--ts", "0.15", "--length", "64"]);
        for spec in SUITE {
            let c = (spec.plan)(&o.run, &[]).expect(spec.name).common;
            // Which of seed / Ts / length the row's params have. Arrivals
            // reads `--seed` as its source node; steps simulates nothing.
            let (seed, ts, length) = match spec.name {
                "steps" => (false, false, false),
                "arrivals" | "multicast" => (true, false, true),
                "simcheck" => (true, false, false),
                _ => (true, true, true),
            };
            assert_eq!(c.seed, seed.then_some(11), "{} --seed", spec.name);
            assert_eq!(c.startup_us, ts.then_some(0.15), "{} --ts", spec.name);
            assert_eq!(c.length, length.then_some(64), "{} --length", spec.name);
        }
    }

    #[test]
    fn fig1_lowts_defaults_ts_to_0_15_and_an_explicit_ts_wins() {
        assert_eq!(plan(&["fig1-lowts"]).common.startup_us, Some(0.15));
        let ts = plan(&["fig1-lowts", "--ts", "0.5"]).common.startup_us;
        assert_eq!(ts, Some(0.5));
        assert_eq!(plan(&["fig1"]).common.startup_us, Some(1.5));
    }

    #[test]
    fn all_runs_the_in_all_rows_in_table_order() {
        let all: Vec<&str> = "steps fig1 fig1-lowts fig2 tables fig3 fig4 arrivals multicast \
                              faults saturation schedules"
            .split_whitespace()
            .collect();
        assert_eq!(names(&[]).unwrap(), all);
        assert_eq!(names(&["all", "--quick"]).unwrap(), all);
        let picked = names(&["simcheck", "fig1-scale", "fig1"]).unwrap();
        assert_eq!(picked, ["simcheck", "fig1-scale", "fig1"]);
    }

    #[test]
    fn selector_flags_reach_only_their_selector() {
        let p = plan(&["faults", "--quick", "--rates", "0,0.05", "--side", "5"]);
        assert_eq!(p.topologies, ["5x5x5"]);
        assert!(names(&["all", "--loads", "2,64"]).is_ok());
        let e = names(&["faults", "--rates", ","]).unwrap_err();
        assert!(e.contains("--rates must list at least one value"), "{e}");
    }

    #[test]
    fn schedule_flag_loads_and_validates_the_file() {
        let dir = std::env::temp_dir().join(format!("wormcast-suite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, body: &str| {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            path.to_str().unwrap().to_string()
        };
        let good = file(
            "good.json",
            r#"{"ramp":{"points":[{"t_us":0.0,"rate":0.5}]}}"#,
        );
        let sched = load_schedule(&good).expect("schedule loaded");
        assert!(sched.ramp.is_some() && sched.modulation.is_none());
        assert!(names(&["schedules", "--schedule", &good]).is_ok());

        let bad = file("bad.json", r#"{"surge":{}}"#);
        let e = names(&["schedules", "--schedule", &bad]).unwrap_err();
        assert!(
            e.contains("bad.json") && e.contains("unknown schedule kind"),
            "{e}"
        );
        let e = load_schedule(dir.join("absent.json").to_str().unwrap()).unwrap_err();
        assert!(e.contains("absent.json"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
