//! Regenerates **Fig. 3**: latency vs offered load on the 8×8×8 mesh under
//! 90% unicast / 10% broadcast traffic (L=32 flits, Ts=1.5 µs).
//!
//! Usage: `fig3 [--quick] [--out DIR] [--seed N] [--ts US] [--length F]
//! [--jobs N] [--telemetry DIR] [--events PATH] [--profile PATH]`

use wormcast_experiments::{fig34, telemetry, CommonOpts, Experiment, ProfileSession};

fn main() {
    let opts = CommonOpts::parse_strict("fig3");
    let mut prof = ProfileSession::begin(&opts, "fig3");
    let mut params = fig34::LoadSweepParams::fig3();
    if opts.run.quick {
        params.batch_size = 40;
        params.batches = 6;
        params.max_sim_ms = 60.0;
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
    println!("{}", fig34::table(&cells, &params, "Fig. 3").render());
    let bad = fig34::check_claims(&cells, &params);
    if bad.is_empty() {
        println!("claims: all of the paper's Fig. 3 orderings hold");
    } else {
        println!("claims VIOLATED:");
        for b in &bad {
            println!("  - {b}");
        }
    }
    prof.phase("emit");
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("fig3.json");
        wormcast_experiments::write_json(&path, &cells).expect("write results");
        println!("wrote {}", path.display());
    }
    if spec.is_some() {
        let mut m = telemetry::manifest(
            "fig3",
            &opts,
            params.seed,
            params.length,
            params.startup_us,
            params.batches,
            wall,
        );
        m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
        m.algorithms.sort();
        m.algorithms.dedup();
        m.topologies = vec![format!(
            "{}x{}x{}",
            params.shape[0], params.shape[1], params.shape[2]
        )];
        telemetry::write_outputs(&opts, "fig3", m, &frames);
    }
    prof.finish(&opts, &frames);
}
