//! Regenerates **Fig. 1**: broadcast latency vs network size (64–4096
//! nodes), single-source, L=100 flits, Ts=1.5 µs (override with `--ts`).
//!
//! Usage: `fig1 [--quick] [--out DIR] [--seed N] [--ts US] [--length F]
//! [--jobs N] [--telemetry DIR] [--events PATH] [--profile PATH]`

use wormcast_experiments::{fig1, telemetry, CommonOpts, Experiment, ProfileSession};

fn main() {
    let opts = CommonOpts::parse_strict("fig1");
    let mut prof = ProfileSession::begin(&opts, "fig1");
    let mut params = fig1::Fig1Params::default();
    if opts.run.quick {
        params.sides = vec![4, 8, 10];
        params.runs = 8;
    }
    if let Some(s) = opts.run.seed {
        params.seed = s;
    }
    if let Some(ts) = opts.run.startup_us {
        params.startup_us = ts;
    }
    if let Some(l) = opts.run.length {
        params.length = l;
    }
    let spec = opts.telemetry_spec();
    let t0 = std::time::Instant::now();
    let runner = opts.runner();
    prof.phase("run");
    let (cells, frames) = params.run((&runner, spec.as_ref())).into_parts();
    let wall = t0.elapsed();
    prof.phase("merge");
    println!("{}", fig1::table(&cells, &params).render());
    let bad = fig1::check_claims(&cells);
    if bad.is_empty() {
        println!("claims: all of the paper's Fig. 1 orderings hold");
    } else {
        println!("claims VIOLATED:");
        for b in &bad {
            println!("  - {b}");
        }
    }
    prof.phase("emit");
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("fig1.json");
        wormcast_experiments::write_json(&path, &cells).expect("write results");
        println!("wrote {}", path.display());
    }
    if spec.is_some() {
        let mut m = telemetry::manifest(
            "fig1",
            &opts,
            params.seed,
            params.length,
            params.startup_us,
            params.runs,
            wall,
        );
        m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
        m.algorithms.sort();
        m.algorithms.dedup();
        m.topologies = params
            .sides
            .iter()
            .map(|s| format!("{s}x{s}x{s}"))
            .collect();
        telemetry::write_outputs(&opts, "fig1", m, &frames);
    }
    prof.finish(&opts, &frames);
}
