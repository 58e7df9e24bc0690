//! Runs the multicast extension experiment (the paper's §4 future
//! direction): UM / CM / SP latency vs destination-set density.
//!
//! Usage: `multicast [--quick] [--out DIR] [--seed N] [--length F] [--jobs N]
//! [--telemetry DIR] [--events PATH]`

use wormcast_experiments::{multicast, telemetry, CommonOpts, Experiment, ProfileSession};

fn main() {
    let opts = CommonOpts::parse_strict("multicast");
    let mut prof = ProfileSession::begin(&opts, "multicast");
    let mut params = multicast::MulticastParams::default();
    if opts.run.quick {
        params.set_sizes = vec![5, 50, 400];
        params.runs = 4;
    }
    if let Some(s) = opts.run.seed {
        params.seed = s;
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
    println!("{}", multicast::table(&cells, &params).render());
    let bad = multicast::check_claims(&cells);
    if bad.is_empty() {
        println!("claims: all multicast-extension orderings hold");
    } else {
        println!("claims VIOLATED:");
        for b in &bad {
            println!("  - {b}");
        }
    }
    prof.phase("emit");
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("multicast.json");
        wormcast_experiments::write_json(&path, &cells).expect("write results");
        println!("wrote {}", path.display());
    }
    if spec.is_some() {
        let mut m = telemetry::manifest(
            "multicast",
            &opts,
            params.seed,
            params.length,
            0.0,
            params.runs,
            wall,
        );
        m.algorithms = cells.iter().map(|c| c.scheme.clone()).collect();
        m.algorithms.sort();
        m.algorithms.dedup();
        m.topologies = vec![format!(
            "{}x{}x{}",
            params.shape[0], params.shape[1], params.shape[2]
        )];
        telemetry::write_outputs(&opts, "multicast", m, &frames);
    }
    prof.finish(&opts, &frames);
}
