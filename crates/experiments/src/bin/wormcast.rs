//! The experiment driver: regenerate every table and figure of the paper
//! in one command.
//!
//! Usage: `wormcast [SELECTOR]... [--quick] [--out DIR] [--seed N] [--ts US]
//!                  [--length F] [--jobs N] [--rates CSV] [--side N] [--loads CSV]
//!                  [--schedule FILE] [--telemetry DIR] [--events PATH]
//!                  [--profile PATH] [--trace-dump PATH]`
//!
//! With no selector (or `all`), runs the full suite: the §2 step identities,
//! Fig. 1 (plus the Ts = 0.15 µs variant), Fig. 2, Tables 1–2, Figs. 3–4,
//! the arrival profiles, the multicast extension, the fault sweep, the
//! saturation lab and the scheduled-load lab. `fig1-scale` (10⁵–10⁶-node
//! meshes) and `simcheck` (a scenario-fuzzing campaign that exits 1 on a
//! defect) run only when named. Every selector is one row of
//! `wormcast_experiments::suite`, which documents the override rule and the
//! selector-owned flags; anything it rejects exits 2 with a usage line
//! before any experiment runs.
//!
//! An output that cannot be written (`--out /dev/null/x`) prints
//! `error: cannot write <path>: <reason>` and exits 1.
//!
//! `--telemetry DIR` writes one `<sel>.telemetry.json` per selector;
//! `--events PATH` and `--profile PATH` write one NDJSON stream and one
//! profile report (JSON + sibling `.prom`) per selector, the selector name
//! inserted before the extension (`prof.json` → `prof-fig1.json`).
//!
//! `wormcast serve ...` hands the remaining arguments to the sibling
//! `wormcast-serve` binary. `--trace-dump PATH` runs one DB broadcast on an
//! 8×8×8 mesh (honouring `--length`, `--ts` and `--seed`) with the engine's
//! bounded trace enabled, writes the trace as NDJSON to PATH, and exits.

use wormcast_experiments::{cannot_write, cli, profile, suite, telemetry, CommonOpts};

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
    let fail = |msg: String| -> ! { cli::usage_exit("wormcast", &suite::usage_args(), &msg) };
    let opts = CommonOpts::parse_from(raw).unwrap_or_else(|e| fail(e));
    let plans = suite::select(&opts).unwrap_or_else(|e| fail(e));
    let unwritable = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1)
    };
    if let Some(path) = &opts.output.trace_dump {
        dump_trace(&opts, path).unwrap_or_else(|e| unwritable(e));
        return;
    }
    for (spec, plan) in plans {
        match plan.execute(spec.name, &opts) {
            Ok(true) => {}
            Ok(false) => std::process::exit(1),
            Err(e) => unwritable(e),
        }
    }
}

/// `wormcast serve ...` → exec the sibling `wormcast-serve` binary with the
/// remaining arguments. The server lives in its own crate (it links the
/// simcheck schema/measure layer, not the experiment suite), so the driver
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
/// NDJSON through the same writer as the `--events` stream. `--telemetry
/// DIR` additionally writes a manifest with the trace ring's drop count
/// stamped, and `--profile PATH` a profile report over the engine counters.
fn dump_trace(opts: &CommonOpts, path: &std::path::Path) -> Result<(), String> {
    use wormcast_broadcast::Algorithm;
    use wormcast_network::{NetworkConfig, OpId};
    use wormcast_telemetry::{
        MetricId, MetricsRegistry, ProfileReport, Profiler, RunManifest, SeriesKey,
    };
    use wormcast_topology::{Mesh, NodeId, Topology};
    use wormcast_workload::{drive, network_for, scrape_engine_stats, BroadcastTracker};

    let mut profiler = Profiler::new();
    profiler.open("trace-dump");
    profiler.phase("setup");
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
    profiler.phase("run");
    let tracker = drive(
        &mut *net,
        BroadcastTracker::new(&mesh, &schedule, OpId(0), length),
    );
    assert!(tracker.is_complete(), "broadcast completes");
    profiler.phase("emit");
    let wall = t0.elapsed();
    telemetry::warn_if_trace_dropped(net.trace(), "wormcast --trace-dump");
    let trace_dropped = net.trace().dropped();
    let ndjson = wormcast_telemetry::events::to_ndjson(net.trace().records());
    telemetry::write_ndjson(path, &ndjson, false).map_err(cannot_write(path))?;
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
        wormcast_experiments::write_json(&mpath, &report).map_err(cannot_write(&mpath))?;
        println!("wrote {}", mpath.display());
    }
    if opts.output.profile.is_some() {
        let mut metrics = MetricsRegistry::new();
        scrape_engine_stats(&mut metrics, &net.engine_stats());
        metrics.inc_by(SeriesKey::plain(MetricId::TraceDropped), trace_dropped);
        let (spans, nd_wall) = profiler.finish();
        let report = ProfileReport::new("trace-dump", spans, nd_wall, metrics);
        profile::write_report(opts, &report)?;
    }
    Ok(())
}
