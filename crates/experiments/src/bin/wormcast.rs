//! Umbrella experiment runner: regenerate every table and figure of the
//! paper in one command.
//!
//! Usage: `wormcast [all|steps|fig1|fig1-lowts|fig1-scale|fig2|tables|fig3|fig4|arrivals|multicast|faults|saturation|simcheck|serve]...
//!                  [--quick] [--out DIR] [--seed N] [--ts US] [--length F] [--jobs N]
//!                  [--schedule FILE] [--telemetry DIR] [--events PATH] [--profile PATH]
//!                  [--trace-dump PATH]`
//!
//! With no selector (or `all`), runs the full suite: the §2 step identities,
//! Fig. 1 (plus the Ts = 0.15 µs variant), Fig. 2, Tables 1–2, Figs. 3–4,
//! the node-level arrival profiles, the multicast extension, the fault
//! sweep and the offered-vs-delivered saturation lab.
//!
//! `--telemetry DIR` writes one `<sel>.telemetry.json` per experiment run;
//! `--events PATH` writes one NDJSON stream per experiment and `--profile
//! PATH` one profile report (JSON + sibling `.prom`) per experiment, the
//! selector name inserted before the extension (`events.ndjson` →
//! `events-fig1.ndjson`, `prof.json` → `prof-fig1.json`) so successive
//! experiments don't clobber each other. The `steps` selector computes
//! closed forms without simulating, so it emits no telemetry; its profile
//! report covers only the driver phases.
//!
//! The `fig1-scale` selector (not part of `all` — a 10⁶-node mesh is not a
//! smoke test) extends Fig. 1 into the 10⁵–10⁶-node regime.
//!
//! A flag the common parser does not know, or an unknown selector, exits 2
//! before any experiment runs.
//!
//! The `simcheck` selector (not part of `all`) runs a scenario-fuzzing
//! campaign through the differential oracle — see the `wormcast-simcheck`
//! crate. Built without the `invariants` feature (the default here, to keep
//! the engine's deep checks out of the measured binaries), invariant-only
//! scenarios are reported as skipped; the standalone `simcheck` binary
//! compiles them in.
//!
//! The `serve` selector hands the remaining arguments to the sibling
//! `wormcast-serve` binary (the simulation-as-a-service front end); see
//! the `wormcast-serve` crate for its flags.
//!
//! `--trace-dump PATH` runs one DB broadcast on an 8×8×8 mesh (honouring
//! `--length`, `--ts` and `--seed`) with the engine's bounded trace enabled
//! and writes the trace as NDJSON to PATH, then exits.

use wormcast_experiments::{
    cli, fig1, fig1_scale, fig2, fig34, profile, schedules, steps, telemetry, CommonOpts,
    Experiment, LabeledFrame, ProfileSession,
};

/// The selectors `all` runs, in order.
const ALL: [&str; 12] = [
    "steps",
    "fig1",
    "fig1-lowts",
    "fig2",
    "tables",
    "fig3",
    "fig4",
    "arrivals",
    "multicast",
    "faults",
    "saturation",
    "schedules",
];

/// Selectors that run only when named.
const OPT_IN: [&str; 2] = ["fig1-scale", "simcheck"];

fn main() {
    // `wormcast serve ...` delegates to the sibling `wormcast-serve` binary
    // before option parsing: the server has its own flag surface (`--addr`,
    // `--workers`, `--cache-cap`, `--once`, ...) that the experiment parser
    // must not consume.
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("serve") {
        raw.next();
        delegate_serve(raw.collect());
    }
    let opts = CommonOpts::parse();
    if let Some(flag) = opts.unknown_flag() {
        cli::usage_exit(
            "wormcast",
            "[SELECTOR]... ",
            &format!("unknown flag '{flag}'"),
        );
    }
    if let Some(other) = opts
        .rest
        .iter()
        .find(|r| *r != "all" && !ALL.contains(&r.as_str()) && !OPT_IN.contains(&r.as_str()))
    {
        eprintln!(
            "unknown experiment '{other}' (steps, fig1, fig1-lowts, fig1-scale, fig2, \
             tables, fig3, fig4, arrivals, multicast, faults, saturation, schedules, \
             simcheck, serve, all)"
        );
        std::process::exit(2);
    }
    if let Some(path) = opts.output.trace_dump.clone() {
        dump_trace(&opts, &path);
        return;
    }
    let runner = opts.runner();
    let which: Vec<String> = if opts.rest.is_empty() || opts.rest.iter().any(|r| r == "all") {
        ALL.into_iter().map(String::from).collect()
    } else {
        opts.rest.clone()
    };
    let out = |name: &str, value: &dyn erased::Json| {
        if let Some(dir) = &opts.output.out_dir {
            let path = dir.join(format!("{name}.json"));
            value.write(&path);
            println!("wrote {}", path.display());
        }
    };
    // Per-selector telemetry destinations: the umbrella runs several
    // experiments in one process, so the event stream and profile paths get
    // the selector name inserted before their extension to keep successive
    // experiments from clobbering each other.
    let with_sel = |p: &std::path::Path, sel: &str, default_ext: &str| -> std::path::PathBuf {
        let stem = p
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("out")
            .to_string();
        let ext = p
            .extension()
            .and_then(|s| s.to_str())
            .unwrap_or(default_ext)
            .to_string();
        p.with_file_name(format!("{stem}-{sel}.{ext}"))
    };
    let topts = |sel: &str| -> CommonOpts {
        let mut o = opts.clone();
        if let Some(p) = &o.output.events {
            o.output.events = Some(with_sel(p, sel, "ndjson"));
        }
        if let Some(p) = &o.output.profile {
            o.output.profile = Some(with_sel(p, sel, "json"));
        }
        o
    };
    let spec = opts.telemetry_spec();

    for sel in &which {
        let to = topts(sel);
        let mut prof = ProfileSession::begin(&to, profile::selector_name(sel));
        let mut prof_frames: Vec<LabeledFrame> = Vec::new();
        match sel.as_str() {
            "steps" => {
                prof.phase("run");
                let rows = steps::run(&steps::default_shapes());
                prof.phase("emit");
                println!("{}", steps::table(&rows).render());
                out("steps", &rows);
            }
            "fig1" | "fig1-lowts" => {
                let mut p = fig1::Fig1Params::default();
                if sel == "fig1-lowts" {
                    p.startup_us = 0.15;
                }
                if opts.run.quick {
                    p.sides = vec![4, 8, 10];
                    p.runs = 8;
                }
                if let Some(s) = opts.run.seed {
                    p.seed = s;
                }
                if let Some(l) = opts.run.length {
                    p.length = l;
                }
                let t0 = std::time::Instant::now();
                prof.phase("run");
                let (cells, frames) = p.run((&runner, spec.as_ref())).into_parts();
                let wall = t0.elapsed();
                prof.phase("merge");
                println!("{}", fig1::table(&cells, &p).render());
                report_claims(&fig1::check_claims(&cells));
                prof.phase("emit");
                out(sel, &cells);
                if spec.is_some() {
                    let mut m = telemetry::manifest(
                        sel,
                        &opts,
                        p.seed,
                        p.length,
                        p.startup_us,
                        p.runs,
                        wall,
                    );
                    m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
                    m.algorithms.sort();
                    m.algorithms.dedup();
                    m.topologies = p.sides.iter().map(|s| format!("{s}x{s}x{s}")).collect();
                    telemetry::write_outputs(&to, sel, m, &frames);
                }
                prof_frames = frames;
            }
            "fig1-scale" => {
                let mut p = fig1_scale::Fig1ScaleParams::default();
                if opts.run.quick {
                    p.shapes = vec![[16, 16, 16], [32, 32, 32]];
                    p.runs = 2;
                }
                if let Some(s) = opts.run.seed {
                    p.seed = s;
                }
                if let Some(l) = opts.run.length {
                    p.length = l;
                }
                let t0 = std::time::Instant::now();
                prof.phase("run");
                let (cells, frames) = p.run((&runner, spec.as_ref())).into_parts();
                let wall = t0.elapsed();
                prof.phase("merge");
                println!("{}", fig1_scale::table(&cells, &p).render());
                report_claims(&fig1_scale::check_claims(&cells));
                prof.phase("emit");
                out(sel, &cells);
                if spec.is_some() {
                    let mut m = telemetry::manifest(
                        sel,
                        &opts,
                        p.seed,
                        p.length,
                        p.startup_us,
                        p.runs,
                        wall,
                    );
                    m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
                    m.algorithms.sort();
                    m.algorithms.dedup();
                    m.topologies = p
                        .shapes
                        .iter()
                        .map(|s| format!("{}x{}x{}", s[0], s[1], s[2]))
                        .collect();
                    telemetry::write_outputs(&to, sel, m, &frames);
                }
                prof_frames = frames;
            }
            "fig2" | "tables" => {
                let mut p = fig2::Fig2Params::default();
                if opts.run.quick {
                    p.runs = 10;
                }
                if let Some(s) = opts.run.seed {
                    p.seed = s;
                }
                if let Some(l) = opts.run.length {
                    p.length = l;
                }
                let t0 = std::time::Instant::now();
                prof.phase("run");
                let (cells, frames) = p.run((&runner, spec.as_ref())).into_parts();
                let wall = t0.elapsed();
                prof.phase("merge");
                if sel == "fig2" {
                    println!("{}", fig2::fig2_table(&cells, &p).render());
                    report_claims(&fig2::check_claims(&cells));
                } else {
                    println!("{}", fig2::improvement_table(&cells, &p, "DB").render());
                    println!("{}", fig2::improvement_table(&cells, &p, "AB").render());
                }
                prof.phase("emit");
                out(sel, &cells);
                if spec.is_some() {
                    let mut m = telemetry::manifest(
                        sel,
                        &opts,
                        p.seed,
                        p.length,
                        p.startup_us,
                        p.runs,
                        wall,
                    );
                    m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
                    m.algorithms.sort();
                    m.algorithms.dedup();
                    m.topologies = p
                        .shapes
                        .iter()
                        .map(|s| format!("{}x{}x{}", s[0], s[1], s[2]))
                        .collect();
                    telemetry::write_outputs(&to, sel, m, &frames);
                }
                prof_frames = frames;
            }
            "fig3" | "fig4" => {
                let mut p = if sel == "fig3" {
                    fig34::LoadSweepParams::fig3()
                } else {
                    fig34::LoadSweepParams::fig4()
                };
                if opts.run.quick {
                    p.batch_size = 40;
                    p.batches = 6;
                    p.max_sim_ms = 60.0;
                }
                if let Some(s) = opts.run.seed {
                    p.seed = s;
                }
                if let Some(l) = opts.run.length {
                    p.length = l;
                }
                let t0 = std::time::Instant::now();
                prof.phase("run");
                let (cells, frames) = p.run((&runner, spec.as_ref())).into_parts();
                let wall = t0.elapsed();
                prof.phase("merge");
                let caption = if sel == "fig3" { "Fig. 3" } else { "Fig. 4" };
                println!("{}", fig34::table(&cells, &p, caption).render());
                report_claims(&fig34::check_claims(&cells, &p));
                prof.phase("emit");
                out(sel, &cells);
                if spec.is_some() {
                    let mut m = telemetry::manifest(
                        sel,
                        &opts,
                        p.seed,
                        p.length,
                        p.startup_us,
                        p.batches,
                        wall,
                    );
                    m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
                    m.algorithms.sort();
                    m.algorithms.dedup();
                    m.topologies = vec![format!("{}x{}x{}", p.shape[0], p.shape[1], p.shape[2])];
                    telemetry::write_outputs(&to, sel, m, &frames);
                }
                prof_frames = frames;
            }
            "arrivals" => {
                let mut p = wormcast_experiments::arrivals::ArrivalParams::default();
                if let Some(l) = opts.run.length {
                    p.length = l;
                }
                let t0 = std::time::Instant::now();
                prof.phase("run");
                let (profiles, frames) = p.run((&runner, spec.as_ref())).into_parts();
                let wall = t0.elapsed();
                prof.phase("merge");
                println!(
                    "{}",
                    wormcast_experiments::arrivals::table(&profiles, &p).render()
                );
                println!(
                    "{}",
                    wormcast_experiments::arrivals::step_table(&profiles).render()
                );
                prof.phase("emit");
                out("arrivals", &profiles);
                if spec.is_some() {
                    let mut m =
                        telemetry::manifest(sel, &opts, p.source as u64, p.length, 0.0, 1, wall);
                    m.algorithms = profiles.iter().map(|pr| pr.algorithm.clone()).collect();
                    m.topologies = vec![format!("{}x{}x{}", p.shape[0], p.shape[1], p.shape[2])];
                    telemetry::write_outputs(&to, sel, m, &frames);
                }
                prof_frames = frames;
            }
            "multicast" => {
                let mut p = wormcast_experiments::multicast::MulticastParams::default();
                if opts.run.quick {
                    p.set_sizes = vec![5, 50, 400];
                    p.runs = 4;
                }
                if let Some(s) = opts.run.seed {
                    p.seed = s;
                }
                let t0 = std::time::Instant::now();
                prof.phase("run");
                let (cells, frames) = p.run((&runner, spec.as_ref())).into_parts();
                let wall = t0.elapsed();
                prof.phase("merge");
                println!(
                    "{}",
                    wormcast_experiments::multicast::table(&cells, &p).render()
                );
                report_claims(&wormcast_experiments::multicast::check_claims(&cells));
                prof.phase("emit");
                out("multicast", &cells);
                if spec.is_some() {
                    let mut m =
                        telemetry::manifest(sel, &opts, p.seed, p.length, 0.0, p.runs, wall);
                    m.algorithms = cells.iter().map(|c| c.scheme.clone()).collect();
                    m.algorithms.sort();
                    m.algorithms.dedup();
                    m.topologies = vec![format!("{}x{}x{}", p.shape[0], p.shape[1], p.shape[2])];
                    telemetry::write_outputs(&to, sel, m, &frames);
                }
                prof_frames = frames;
            }
            "faults" => {
                let mut p = wormcast_experiments::faults::FaultsParams::default();
                if opts.run.quick {
                    p.side = 4;
                    p.runs = 4;
                    p.rates = vec![0.0, 0.05];
                }
                if let Some(s) = opts.run.seed {
                    p.seed = s;
                }
                if let Some(l) = opts.run.length {
                    p.length = l;
                }
                let t0 = std::time::Instant::now();
                prof.phase("run");
                let (cells, frames) = p.run((&runner, spec.as_ref())).into_parts();
                let wall = t0.elapsed();
                prof.phase("merge");
                println!(
                    "{}",
                    wormcast_experiments::faults::table(&cells, &p).render()
                );
                println!(
                    "{}",
                    wormcast_experiments::faults::reliability_table(&cells).render()
                );
                report_claims(&wormcast_experiments::faults::check_claims(&cells));
                prof.phase("emit");
                out("faults", &cells);
                if spec.is_some() {
                    let mut m = telemetry::manifest(
                        sel,
                        &opts,
                        p.seed,
                        p.length,
                        p.startup_us,
                        p.runs,
                        wall,
                    );
                    m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
                    m.algorithms.sort();
                    m.algorithms.dedup();
                    m.topologies = vec![format!("{s}x{s}x{s}", s = p.side)];
                    telemetry::write_outputs(&to, sel, m, &frames);
                }
                prof_frames = frames;
            }
            "saturation" => {
                let mut p = if opts.run.quick {
                    wormcast_experiments::saturation::SaturationParams::quick()
                } else {
                    wormcast_experiments::saturation::SaturationParams::default()
                };
                if let Some(s) = opts.run.seed {
                    p.seed = s;
                }
                if let Some(l) = opts.run.length {
                    p.length = l;
                }
                if let Some(ts) = opts.run.startup_us {
                    p.startup_us = ts;
                }
                let t0 = std::time::Instant::now();
                prof.phase("run");
                let (cells, frames) = p.run((&runner, spec.as_ref())).into_parts();
                let wall = t0.elapsed();
                prof.phase("merge");
                println!(
                    "{}",
                    wormcast_experiments::saturation::table(&cells, &p).render()
                );
                report_claims(&wormcast_experiments::saturation::check_claims(&cells, &p));
                prof.phase("emit");
                out("saturation", &cells);
                if spec.is_some() {
                    let mut m = telemetry::manifest(
                        sel,
                        &opts,
                        p.seed,
                        p.length,
                        p.startup_us,
                        p.batches,
                        wall,
                    );
                    m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
                    m.algorithms.sort();
                    m.algorithms.dedup();
                    m.topologies = vec![format!("{}x{}x{}", p.shape[0], p.shape[1], p.shape[2])];
                    telemetry::write_outputs(&to, sel, m, &frames);
                }
                prof_frames = frames;
            }
            "schedules" => {
                let mut p = if opts.run.quick {
                    schedules::SchedulesParams::quick()
                } else {
                    schedules::SchedulesParams::default()
                };
                if let Some(s) = opts.run.seed {
                    p.seed = s;
                }
                if let Some(l) = opts.run.length {
                    p.length = l;
                }
                if let Some(ts) = opts.run.startup_us {
                    p.startup_us = ts;
                }
                match opts.run.load_schedule() {
                    Ok(Some(sched)) => p.schedule = sched,
                    Ok(None) => {}
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
                let t0 = std::time::Instant::now();
                prof.phase("run");
                let (cells, frames) = p.run((&runner, spec.as_ref())).into_parts();
                let wall = t0.elapsed();
                prof.phase("merge");
                println!("{}", schedules::table(&cells, &p).render());
                report_claims(&schedules::check_claims(&cells));
                prof.phase("emit");
                out("schedules", &cells);
                if spec.is_some() {
                    let mut m = telemetry::manifest(
                        sel,
                        &opts,
                        p.seed,
                        p.length,
                        p.startup_us,
                        p.runs as usize,
                        wall,
                    );
                    m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
                    m.algorithms.sort();
                    m.algorithms.dedup();
                    m.topologies = vec![format!("{}x{}x{}", p.shape[0], p.shape[1], p.shape[2])];
                    telemetry::write_outputs(&to, sel, m, &frames);
                }
                prof_frames = frames;
            }
            "simcheck" => {
                let seed = opts.run.seed.unwrap_or(2005);
                let count = if opts.run.quick { 50 } else { 200 };
                prof.phase("run");
                let report = wormcast_simcheck::campaign(seed, count, 0);
                prof.phase("emit");
                for f in &report.failures {
                    eprintln!(
                        "simcheck: scenario {} failed ({}): {}\nminimal repro:\n{}",
                        f.index, f.kind, f.detail, f.repro
                    );
                }
                println!(
                    "simcheck: {} scenarios ({} differential, {} invariant-only, {} skipped): \
                     {} violations, {} mismatches, {} panics",
                    report.count,
                    report.differential,
                    report.invariant_only,
                    report.skipped,
                    report.violations,
                    report.mismatches,
                    report.panics
                );
                // Report renders its own deterministic JSON (no serde), so it
                // bypasses the erased::Json path used by the other selectors.
                if let Some(dir) = &opts.output.out_dir {
                    let path = dir.join("simcheck.json");
                    std::fs::write(&path, report.to_json()).expect("write results");
                    println!("wrote {}", path.display());
                }
                if !report.is_clean() {
                    std::process::exit(1);
                }
            }
            other => unreachable!("selector '{other}' validated before the run"),
        }
        prof.finish(&to, &prof_frames);
        println!();
    }
}

/// `wormcast serve ...` → exec the sibling `wormcast-serve` binary with the
/// remaining arguments. The server lives in its own crate (it links the
/// simcheck schema/measure layer, not the experiment suite), so the umbrella
/// stays a thin front door: resolve the binary next to our own executable
/// and forward everything verbatim.
fn delegate_serve(args: Vec<String>) -> ! {
    let exe = std::env::current_exe().expect("resolve current executable");
    let dir = exe.parent().expect("executable has a parent directory");
    let mut sibling = dir.join("wormcast-serve");
    if !sibling.exists() {
        sibling.set_extension("exe");
    }
    if !sibling.exists() {
        eprintln!(
            "wormcast serve: '{}' not found — build it with \
             `cargo build -p wormcast-serve`",
            dir.join("wormcast-serve").display()
        );
        std::process::exit(2);
    }
    let status = std::process::Command::new(&sibling)
        .args(&args)
        .status()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", sibling.display()));
    std::process::exit(status.code().unwrap_or(1));
}

/// `--trace-dump PATH`: run one DB broadcast on an 8×8×8 mesh with the
/// engine's bounded trace ring enabled (64 Ki records) and dump the trace as
/// NDJSON, reusing the telemetry event exporter's line format. `--telemetry
/// DIR` additionally writes a manifest with the trace ring's drop count
/// stamped, and `--profile PATH` a profile report over the engine counters.
fn dump_trace(opts: &CommonOpts, path: &std::path::Path) {
    use wormcast_broadcast::Algorithm;
    use wormcast_network::{NetworkConfig, OpId};
    use wormcast_sim::SimTime;
    use wormcast_telemetry::{
        MetricId, MetricsRegistry, ProfileReport, Profiler, RunManifest, SeriesKey,
    };
    use wormcast_topology::{Mesh, NodeId, Topology};
    use wormcast_workload::{network_for, scrape_engine_stats, BroadcastTracker};

    let profiling = opts.output.profile.is_some();
    let mut profiler = Profiler::new();
    if profiling {
        profiler.open("trace-dump");
        profiler.phase("setup");
    }
    let t0 = std::time::Instant::now();
    let mesh = Mesh::cube(8);
    let mut b = NetworkConfig::builder();
    if let Some(ts) = opts.run.startup_us {
        b = b.startup_us(ts);
    }
    let cfg = b
        .build()
        .expect("--ts start-up latency must be a valid duration");
    let length = opts.run.length.unwrap_or(100);
    let source = NodeId((opts.run.seed.unwrap_or(0) % mesh.num_nodes() as u64) as u32);
    let alg = Algorithm::Db;
    let schedule = alg.schedule(&mesh, source);
    let mut net = network_for(alg, mesh.clone(), cfg);
    net.enable_trace(65_536);
    if profiling {
        profiler.phase("run");
    }
    let mut tracker = BroadcastTracker::new(&mesh, &schedule, OpId(0), length);
    for spec in tracker.start(SimTime::ZERO) {
        net.inject_at(SimTime::ZERO, spec);
    }
    while !tracker.is_complete() {
        let d = net.next_delivery().expect("broadcast completes");
        for spec in tracker.on_delivery(&d) {
            net.inject_at(d.delivered_at, spec);
        }
    }
    if profiling {
        profiler.phase("emit");
    }
    let wall = t0.elapsed();
    telemetry::warn_if_trace_dropped(net.trace(), "wormcast --trace-dump");
    let trace_dropped = net.trace().dropped();
    let ndjson = wormcast_telemetry::events::trace_to_ndjson(net.trace());
    telemetry::write_ndjson(path, &ndjson, false).expect("write trace dump");
    println!("wrote {}", path.display());
    if let Some(dir) = &opts.output.telemetry {
        let mut m = RunManifest::new("trace-dump");
        m.algorithms = vec![Algorithm::Db.name().to_string()];
        m.topologies = vec!["8x8x8".to_string()];
        m.master_seed = opts.run.seed.unwrap_or(0);
        m.jobs = 1;
        m.length_flits = length;
        m.startup_us = opts.run.startup_us.unwrap_or_default();
        m.runs = 1;
        m.wall_ms = wall.as_secs_f64() * 1e3;
        m.trace_dropped = trace_dropped;
        let report = telemetry::TelemetryReport::new(m, &[]);
        let mpath = dir.join("trace-dump.telemetry.json");
        wormcast_experiments::write_json(&mpath, &report).expect("write telemetry report");
        println!("wrote {}", mpath.display());
    }
    if profiling {
        let mut metrics = MetricsRegistry::new();
        scrape_engine_stats(&mut metrics, &net.engine_stats());
        metrics.inc_by(SeriesKey::plain(MetricId::TraceDropped), trace_dropped);
        let (spans, nd_wall) = profiler.finish();
        let report = ProfileReport::new("trace-dump", spans, nd_wall, metrics);
        profile::write_report(opts, &report);
    }
}

fn report_claims(bad: &[String]) {
    if bad.is_empty() {
        println!("claims: all of the paper's orderings hold");
    } else {
        println!("claims VIOLATED:");
        for b in bad {
            println!("  - {b}");
        }
    }
}

/// Tiny object-safe serialization shim so the dispatcher can persist any
/// result type through one code path.
mod erased {
    use std::path::Path;

    pub trait Json {
        fn write(&self, path: &Path);
    }

    impl<T: serde::Serialize> Json for T {
        fn write(&self, path: &Path) {
            wormcast_experiments::write_json(path, self).expect("write results");
        }
    }
}
