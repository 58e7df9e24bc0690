//! Prints the node-level arrival profile (percentiles, per-step delivery
//! counts, ASCII histograms) for each broadcast algorithm — the §3.2 story
//! behind the CV numbers.
//!
//! Usage: `arrivals [--out DIR] [--length F] [--seed SRC] [--jobs N]
//! [--telemetry DIR] [--events PATH] [--profile PATH]`

use wormcast_experiments::{arrivals, telemetry, CommonOpts, Experiment, ProfileSession};

fn main() {
    let opts = CommonOpts::parse_strict("arrivals");
    let mut prof = ProfileSession::begin(&opts, "arrivals");
    let mut params = arrivals::ArrivalParams::default();
    if let Some(l) = opts.run.length {
        params.length = l;
    }
    if let Some(s) = opts.run.seed {
        params.source = s as u32;
    }
    let spec = opts.telemetry_spec();
    let t0 = std::time::Instant::now();
    let runner = opts.runner();
    prof.phase("run");
    let (profiles, frames) = params.run((&runner, spec.as_ref())).into_parts();
    let wall = t0.elapsed();
    prof.phase("merge");
    println!("{}", arrivals::table(&profiles, &params).render());
    println!("{}", arrivals::step_table(&profiles).render());
    prof.phase("emit");
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("arrivals.json");
        wormcast_experiments::write_json(&path, &profiles).expect("write results");
        println!("wrote {}", path.display());
    }
    if spec.is_some() {
        let mut m = telemetry::manifest(
            "arrivals",
            &opts,
            params.source as u64,
            params.length,
            0.0,
            1,
            wall,
        );
        m.algorithms = profiles.iter().map(|p| p.algorithm.clone()).collect();
        m.topologies = vec![format!(
            "{}x{}x{}",
            params.shape[0], params.shape[1], params.shape[2]
        )];
        telemetry::write_outputs(&opts, "arrivals", m, &frames);
    }
    prof.finish(&opts, &frames);
}
