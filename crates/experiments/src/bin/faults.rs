//! Runs the fault sweep: delivery ratio and degradation accounting vs
//! fail-stop link fault rate, 8×8×8 mesh, L=100 flits, Ts=1.5 µs.
//!
//! Usage: `faults [--quick] [--out DIR] [--seed N] [--ts US] [--length F]
//! [--jobs N] [--rates CSV] [--side N] [--telemetry DIR] [--events PATH]`
//!
//! `--rates` takes a comma-separated list of fail-stop link fault rates
//! (default `0,0.005,0.01,0.02,0.05`; include 0 to keep the fault-free
//! baseline column). `--out DIR` writes `DIR/faults.json`.

use wormcast_experiments::{cli, faults, telemetry, CommonOpts, Experiment, ProfileSession};

fn main() {
    let opts = CommonOpts::parse();
    let mut prof = ProfileSession::begin(&opts, "faults");
    let mut params = faults::FaultsParams::default();
    if opts.run.quick {
        params.side = 4;
        params.runs = 4;
        params.rates = vec![0.0, 0.05];
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
    if let Err(e) = apply_rest(&mut params, &opts.rest) {
        cli::usage_exit("faults", "[--rates CSV] [--side N] ", &e);
    }
    let spec = opts.telemetry_spec();
    let t0 = std::time::Instant::now();
    let runner = opts.runner();
    prof.phase("run");
    let (cells, frames) = params.run((&runner, spec.as_ref())).into_parts();
    let wall = t0.elapsed();
    prof.phase("merge");
    println!("{}", faults::table(&cells, &params).render());
    println!("{}", faults::reliability_table(&cells).render());
    let bad = faults::check_claims(&cells);
    if bad.is_empty() {
        println!("claims: fault-free baseline lossless, faulted cells account their losses");
    } else {
        println!("claims VIOLATED:");
        for b in &bad {
            println!("  - {b}");
        }
    }
    prof.phase("emit");
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("faults.json");
        wormcast_experiments::write_json(&path, &cells).expect("write results");
        println!("wrote {}", path.display());
    }
    if spec.is_some() {
        let mut m = telemetry::manifest(
            "faults",
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
        m.topologies = vec![format!("{s}x{s}x{s}", s = params.side)];
        telemetry::write_outputs(&opts, "faults", m, &frames);
    }
    prof.finish(&opts, &frames);
}

/// Parse the binary-specific flags (`--rates CSV`, `--side N`) out of the
/// leftover arguments.
fn apply_rest(params: &mut faults::FaultsParams, rest: &[String]) -> Result<(), String> {
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rates" => {
                let v = it.next().ok_or("--rates needs a comma-separated list")?;
                params.rates = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.parse()
                            .map_err(|_| format!("--rates entry '{s}' is not a number"))
                    })
                    .collect::<Result<_, _>>()?;
                if params.rates.is_empty() {
                    return Err("--rates must list at least one rate".into());
                }
            }
            "--side" => {
                let v = it.next().ok_or("--side needs a mesh side length")?;
                params.side = v
                    .parse()
                    .map_err(|_| format!("--side '{v}' is not an integer"))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(())
}
