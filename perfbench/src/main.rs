//! One workload process of the wormcast benchmark.
//!
//! ```text
//! wormcast-perfbench <idle|loaded|scale|observed> --seed N
//!                    [--traced] [--tiny] [--spans PATH] [--setup-only]
//! ```
//!
//! Runs one unit of the workload on one thread and prints one JSON line:
//! host timings of the timed section, the digest of every result cell and
//! the claims that failed. The timed section makes the calls that
//! `wormcast <selector>` makes — `Experiment::run`, then `check_claims`,
//! then serialising the cells (and, for `observed`, the event stream) into
//! memory — and writes nothing to disk.
//!
//! With `--traced` the unit runs through the traced drivers of
//! [`mirror`] instead, and the line also carries the per-layer metrics;
//! `--spans PATH` writes the recorded spans there when the unit ends.
//! `--setup-only` stops where the timed section would start, so set-up time
//! can be sampled without running the unit.

mod digest;
mod host;
mod mirror;
mod trace;
mod workloads;

use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use trace::{timed, Id, Recording};
use workloads::{Params, Workload};
use wormcast_experiments::telemetry::events_ndjson;
use wormcast_experiments::{fig1, fig1_scale, saturation, Experiment, LabeledFrame};
use wormcast_telemetry::TelemetrySpec;
use wormcast_workload::Runner;

const USAGE: &str = "usage: wormcast-perfbench <idle|loaded|scale|observed> --seed N \
                     [--traced] [--tiny] [--spans PATH] [--setup-only]";

struct Args {
    workload: Workload,
    seed: u64,
    traced: bool,
    tiny: bool,
    spans: Option<String>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let name = it.next().ok_or("missing workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
    let mut args = Args {
        workload,
        seed: 0,
        traced: false,
        tiny: false,
        spans: None,
        setup_only: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--traced" => args.traced = true,
            "--tiny" => args.tiny = true,
            "--setup-only" => args.setup_only = true,
            "--spans" => args.spans = Some(it.next().ok_or("--spans needs a path")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// A unit's result grid, as the experiment returned it.
enum Grid {
    Fig1(Vec<fig1::Fig1Cell>, Vec<LabeledFrame>),
    Saturation(Vec<saturation::SaturationCell>),
    Scale(Vec<fig1_scale::Fig1ScaleCell>),
}

/// What one unit's timed section produced.
struct Unit {
    grid: Grid,
    claims: Vec<String>,
    emit_bytes: usize,
    export_bytes: usize,
    events_dropped: u64,
}

/// The product path: what `wormcast <selector>` runs, on one thread.
fn run_plain(params: &Params, spec: Option<&TelemetrySpec>) -> Grid {
    let runner = Runner::sequential();
    match params {
        Params::Fig1(p) => {
            let (cells, frames) = p.run((&runner, spec)).into_parts();
            Grid::Fig1(cells, frames)
        }
        Params::Saturation(p) => Grid::Saturation(p.run((&runner, spec)).cells),
        Params::Scale(p) => Grid::Scale(p.run((&runner, spec)).cells),
    }
}

/// The traced path: the same unit through the mirrored drivers.
fn run_traced(params: &Params, spec: Option<&TelemetrySpec>) -> Grid {
    match params {
        Params::Fig1(p) => {
            let (cells, frames) = mirror::fig1(p, spec);
            Grid::Fig1(cells, frames)
        }
        Params::Saturation(p) => Grid::Saturation(mirror::saturation(p, spec).0),
        Params::Scale(p) => Grid::Scale(mirror::fig1_scale(p, spec).0),
    }
}

/// What `wormcast <selector>` does with a grid: check the claims, serialise
/// the cells and, with telemetry, export the event stream — into memory.
fn conclude(grid: Grid, params: &Params, spec: Option<&TelemetrySpec>) -> Unit {
    fn emit<C: Serialize>(cells: &[C]) -> String {
        timed(Id::ExperimentsEmit, || {
            serde_json::to_string_pretty(cells).expect("serializable results")
        })
    }
    let (claims, json) = match (&grid, params) {
        (Grid::Fig1(cells, _), _) => (
            timed(Id::ExperimentsClaims, || fig1::check_claims(cells)),
            emit(cells),
        ),
        (Grid::Saturation(cells), Params::Saturation(p)) => (
            timed(Id::ExperimentsClaims, || saturation::check_claims(cells, p)),
            emit(cells),
        ),
        (Grid::Scale(cells), _) => (
            timed(Id::ExperimentsClaims, || fig1_scale::check_claims(cells)),
            emit(cells),
        ),
        (Grid::Saturation(_), _) => unreachable!("saturation grids come from saturation params"),
    };
    let (ndjson, events_dropped) = timed(Id::TelemetryExport, || match (&grid, spec) {
        (Grid::Fig1(_, frames), Some(_)) => events_ndjson(frames),
        _ => (String::new(), 0),
    });
    black_box((&json, &ndjson));
    Unit {
        grid,
        claims,
        emit_bytes: json.len(),
        export_bytes: ndjson.len(),
        events_dropped,
    }
}

/// Digests of every cell; a Fig. 1 cell's digest also covers its frame's
/// exported events, when telemetry collected them.
fn digests(grid: &Grid) -> Vec<String> {
    fn plain<C: Serialize>(cells: &[C]) -> Vec<String> {
        cells.iter().map(|c| digest::cell_digest(c, b"")).collect()
    }
    match grid {
        Grid::Fig1(cells, frames) => cells
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let events = frames
                    .get(k)
                    .and_then(|f| f.frame.events.as_ref())
                    .map(|log| log.to_ndjson())
                    .unwrap_or_default();
                digest::cell_digest(c, events.as_bytes())
            })
            .collect(),
        Grid::Saturation(cells) => plain(cells),
        Grid::Scale(cells) => plain(cells),
    }
}

/// Simulated destination deliveries behind a grid.
fn deliveries(grid: &Grid, params: &Params) -> u64 {
    match (grid, params) {
        (Grid::Fig1(cells, _), Params::Fig1(p)) => workloads::fig1_deliveries(cells, p.runs),
        (Grid::Saturation(cells), Params::Saturation(p)) => {
            workloads::saturation_deliveries(cells, p)
        }
        (Grid::Scale(cells), Params::Scale(p)) => workloads::scale_deliveries(cells, p.runs),
        _ => unreachable!("grids come from their own params"),
    }
}

fn num(x: f64) -> Value {
    Value::F64(x)
}

fn int(x: u64) -> Value {
    Value::U64(x)
}

/// The per-layer metrics of a traced unit that took `wall_s`.
fn layer_metrics(rec: &Recording, out: &Unit, wall_s: f64) -> Vec<(String, Value)> {
    let secs = |id: Id| num(rec.total(id).self_ns as f64 * 1e-9);
    let calls = |id: Id| int(rec.total(id).calls);
    let c = &rec.counts;
    let layers = [
        "sim",
        "topology",
        "routing",
        "core",
        "network",
        "workload",
        "stats",
        "telemetry",
        "experiments",
    ];
    let covered: f64 = layers.iter().map(|l| rec.layer_self_s(l)).sum();
    let pairs: Vec<(&str, Value)> = vec![
        ("core.schedule_s", secs(Id::CoreSchedule)),
        ("core.schedule_msgs", int(c.schedule_msgs)),
        ("topology.build_s", secs(Id::TopologyBuild)),
        ("network.build_s", secs(Id::NetworkBuild)),
        ("network.step_s", secs(Id::NetworkStep)),
        ("network.inject_s", secs(Id::NetworkInject)),
        ("network.injects", calls(Id::NetworkInject)),
        ("network.arena_highwater", int(c.arena_highwater)),
        ("network.deliveries", int(c.deliveries)),
        ("network.channel_waits", int(c.channel_waits)),
        ("network.wait_sim_us", num(c.wait_ps as f64 * 1e-6)),
        ("sim.events", int(c.events)),
        (
            "sim.scans_per_event",
            num(c.bucket_scans as f64 / c.events.max(1) as f64),
        ),
        ("routing.candidates_calls", calls(Id::RoutingCandidates)),
        ("routing.candidates_s", num(rec.layer_self_s("routing"))),
        ("workload.tracker_s", secs(Id::WorkloadTracker)),
        ("workload.relays", int(c.relays)),
        ("workload.arrivals_s", secs(Id::WorkloadArrivals)),
        (
            "telemetry.sink_s",
            num(
                (rec.total(Id::TelemetrySink).self_ns + rec.total(Id::TelemetryAttach).self_ns)
                    as f64
                    * 1e-9,
            ),
        ),
        ("telemetry.sink_calls", calls(Id::TelemetrySink)),
        ("telemetry.finish_s", secs(Id::TelemetryFinish)),
        ("telemetry.export_s", secs(Id::TelemetryExport)),
        ("telemetry.export_bytes", int(out.export_bytes as u64)),
        ("telemetry.events_dropped", int(out.events_dropped)),
        ("stats.fold_s", secs(Id::StatsFold)),
        ("experiments.claims_s", secs(Id::ExperimentsClaims)),
        ("experiments.emit_s", secs(Id::ExperimentsEmit)),
        ("experiments.emit_bytes", int(out.emit_bytes as u64)),
        ("trace.coverage", num(covered / wall_s)),
    ];
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The kept spans as JSON: name, start and end in ns, parent index.
fn spans_json(rec: &Recording) -> String {
    let spans = rec
        .spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::Str(s.id.name().into())),
                ("start_ns".into(), int(s.start_ns)),
                ("end_ns".into(), int(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| int(p as u64)),
                ),
            ])
        })
        .collect();
    let totals = Id::ALL
        .iter()
        .map(|&id| {
            let t = rec.total(id);
            Value::Object(vec![
                ("name".into(), Value::Str(id.name().into())),
                ("calls".into(), int(t.calls)),
                ("total_ns".into(), int(t.total_ns)),
                ("self_ns".into(), int(t.self_ns)),
            ])
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("spans".into(), Value::Array(spans)),
        ("totals".into(), Value::Array(totals)),
    ]))
    .expect("serializable spans")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wormcast-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let params = workloads::params(args.workload, args.seed, args.tiny);
    let spec = (args.workload == Workload::Observed).then(TelemetrySpec::full);

    let started_unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as u64;
    if args.setup_only {
        black_box((&params, &spec));
        println!(
            "{{\"started_unix_ns\":{started_unix_ns},\"program_seed\":{}}}",
            workloads::program_seed(args.seed)
        );
        return;
    }
    let before = host::usage();
    let t0 = Instant::now();
    let (out, rec) = if args.traced {
        trace::start();
        let out = timed(Id::Unit, || {
            conclude(run_traced(&params, spec.as_ref()), &params, spec.as_ref())
        });
        (out, Some(trace::finish()))
    } else {
        let grid = run_plain(&params, spec.as_ref());
        (conclude(grid, &params, spec.as_ref()), None)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let after = host::usage();
    let threads = host::threads();
    let cells = digests(&out.grid);

    let mut fields: Vec<(String, Value)> = vec![
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("seed".into(), int(args.seed)),
        (
            "program_seed".into(),
            int(workloads::program_seed(args.seed)),
        ),
        ("traced".into(), Value::Bool(args.traced)),
        ("started_unix_ns".into(), int(started_unix_ns)),
        ("wall_s".into(), num(wall_s)),
        ("cpu_s".into(), num(after.cpu_s - before.cpu_s)),
        ("peak_rss_mb".into(), num(after.peak_rss_mb)),
        ("nivcsw".into(), Value::I64(after.nivcsw - before.nivcsw)),
        ("threads".into(), int(threads)),
        ("deliveries".into(), int(deliveries(&out.grid, &params))),
        (
            "cells".into(),
            Value::Array(cells.into_iter().map(Value::Str).collect()),
        ),
        (
            "claims".into(),
            Value::Array(out.claims.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    if let Some(rec) = &rec {
        fields.push((
            "layers".into(),
            Value::Object(layer_metrics(rec, &out, wall_s)),
        ));
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, spans_json(rec)) {
                eprintln!("wormcast-perfbench: cannot write spans to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(fields)).expect("serializable result")
    );
}
