//! Regenerates **Fig. 2**: coefficient of variation of arrival times vs
//! network size, measured in steady state with concurrent broadcasts.
//!
//! Usage: `fig2 [--quick] [--out DIR] [--seed N] [--ts US] [--length F]
//! [--jobs N] [--telemetry DIR] [--events PATH] [--profile PATH]`

use wormcast_experiments::{fig2, telemetry, CommonOpts, Experiment, ProfileSession};

fn main() {
    let opts = CommonOpts::parse_strict("fig2");
    let mut prof = ProfileSession::begin(&opts, "fig2");
    let mut params = fig2::Fig2Params::default();
    if opts.run.quick {
        params.runs = 10;
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
    println!("{}", fig2::fig2_table(&cells, &params).render());
    let bad = fig2::check_claims(&cells);
    if bad.is_empty() {
        println!("claims: all of the paper's Fig. 2 orderings hold");
    } else {
        println!("claims VIOLATED:");
        for b in &bad {
            println!("  - {b}");
        }
    }
    prof.phase("emit");
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("fig2.json");
        wormcast_experiments::write_json(&path, &cells).expect("write results");
        println!("wrote {}", path.display());
    }
    if spec.is_some() {
        let mut m = telemetry::manifest(
            "fig2",
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
            .shapes
            .iter()
            .map(|s| format!("{}x{}x{}", s[0], s[1], s[2]))
            .collect();
        telemetry::write_outputs(&opts, "fig2", m, &frames);
    }
    prof.finish(&opts, &frames);
}
