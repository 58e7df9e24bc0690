//! Regenerates **Tables 1 and 2**: CV of RD and EDN with the percentage
//! improvement obtained by DB (Table 1) and AB (Table 2).
//!
//! Usage: `tables [--quick] [--out DIR] [--seed N] [--ts US] [--length F]
//! [--jobs N] [--telemetry DIR] [--events PATH]`

use wormcast_experiments::{fig2, telemetry, CommonOpts, Experiment, ProfileSession};

fn main() {
    let opts = CommonOpts::parse_strict("tables");
    let mut prof = ProfileSession::begin(&opts, "tables");
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
    println!(
        "{}",
        fig2::improvement_table(&cells, &params, "DB").render()
    );
    println!(
        "{}",
        fig2::improvement_table(&cells, &params, "AB").render()
    );
    prof.phase("emit");
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("tables.json");
        wormcast_experiments::write_json(&path, &cells).expect("write results");
        println!("wrote {}", path.display());
    }
    if spec.is_some() {
        let mut m = telemetry::manifest(
            "tables",
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
        telemetry::write_outputs(&opts, "tables", m, &frames);
    }
    prof.finish(&opts, &frames);
}
