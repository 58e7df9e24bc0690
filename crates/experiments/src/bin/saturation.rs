//! Runs the saturation lab: offered vs delivered load for DB, AB and QAB
//! on the 8×8×8 mesh under the §3.3 mixed workload (90/10 unicast/broadcast,
//! L=32 flits, Ts=1.5 µs), with an offered-load axis running past AB's knee.
//!
//! Usage: `saturation [--quick] [--out DIR] [--seed N] [--ts US]
//! [--length F] [--jobs N] [--loads CSV] [--telemetry DIR] [--events PATH]`
//!
//! `--loads` takes a comma-separated, strictly increasing list of offered
//! loads in messages/ms per node. `--out DIR` writes `DIR/saturation.json`.

use wormcast_experiments::{cli, saturation, telemetry, CommonOpts, Experiment, ProfileSession};

fn main() {
    let opts = CommonOpts::parse();
    let mut prof = ProfileSession::begin(&opts, "saturation");
    let mut params = if opts.run.quick {
        saturation::SaturationParams::quick()
    } else {
        saturation::SaturationParams::default()
    };
    if let Some(s) = opts.run.seed {
        params.seed = s;
    }
    if let Some(ts) = opts.run.startup_us {
        params.startup_us = ts;
    }
    if let Some(l) = opts.run.length {
        params.length = l;
    }
    if let Err(e) = apply_rest(&mut params, &opts.rest) {
        cli::usage_exit("saturation", "[--loads CSV] ", &e);
    }
    let spec = opts.telemetry_spec();
    let t0 = std::time::Instant::now();
    let runner = opts.runner();
    prof.phase("run");
    let (cells, frames) = params.run((&runner, spec.as_ref())).into_parts();
    let wall = t0.elapsed();
    prof.phase("merge");
    println!("{}", saturation::table(&cells, &params).render());
    match saturation::ab_knee(&cells, &params) {
        Some(knee) => println!("AB's knee: offered load {knee} msg/ms/node"),
        None => println!("AB's knee: not reached on this axis"),
    }
    let bad = saturation::check_claims(&cells, &params);
    if bad.is_empty() {
        println!("claims: QAB's delivered load weakly dominates AB's beyond the knee");
    } else {
        println!("claims VIOLATED:");
        for b in &bad {
            println!("  - {b}");
        }
    }
    prof.phase("emit");
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("saturation.json");
        wormcast_experiments::write_json(&path, &cells).expect("write results");
        println!("wrote {}", path.display());
    }
    if spec.is_some() {
        let mut m = telemetry::manifest(
            "saturation",
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
        telemetry::write_outputs(&opts, "saturation", m, &frames);
    }
    prof.finish(&opts, &frames);
}

/// Parse the binary-specific flag (`--loads CSV`) out of the leftover
/// arguments.
fn apply_rest(params: &mut saturation::SaturationParams, rest: &[String]) -> Result<(), String> {
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--loads" => {
                let v = it.next().ok_or("--loads needs a comma-separated list")?;
                params.loads = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.parse()
                            .map_err(|_| format!("--loads entry '{s}' is not a number"))
                    })
                    .collect::<Result<_, _>>()?;
                if params.loads.is_empty() {
                    return Err("--loads must list at least one load".into());
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(())
}
