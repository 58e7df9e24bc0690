//! Prints the step-count table: constructed schedules vs the §2 closed
//! forms (RD = log₂N, EDN = k+m+4, DB = 4, AB = 3).
//!
//! Usage: `steps [--out DIR] [--profile PATH]`

use wormcast_experiments::{steps, CommonOpts, ProfileSession};

fn main() {
    let opts = CommonOpts::parse_strict("steps");
    let mut prof = ProfileSession::begin(&opts, "steps");
    let shapes = steps::default_shapes();
    prof.phase("run");
    let rows = steps::run(&shapes);
    prof.phase("emit");
    println!("{}", steps::table(&rows).render());
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("steps.json");
        wormcast_experiments::write_json(&path, &rows).expect("write results");
        println!("wrote {}", path.display());
    }
    prof.finish(&opts, &[]);
}
