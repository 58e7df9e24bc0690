//! Renders a broadcast schedule step by step as ASCII mesh diagrams.
//!
//! Usage: `show [ALG] [SIDE] [SRC]` — e.g. `show DB 4 21`, `show AB 8 0`.
//! ALG in {RD, EDN, DB, AB, QAB}; SIDE is the cubic mesh side, at least 2
//! (2D grid when SIDE ends with "x2d", e.g. `8x2d`).

use wormcast_broadcast::{render_all, Algorithm};
use wormcast_topology::{Mesh, NodeId, Topology};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (alg, mesh, src) = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: show [ALG] [SIDE] [SRC]");
        std::process::exit(2);
    });
    let schedule = alg.schedule(&mesh, src);
    schedule
        .validate(&mesh, alg.ports())
        .expect("schedule valid");
    println!(
        "{} on {:?} from {src}: {} steps, {} messages\n",
        alg,
        mesh.dims(),
        schedule.steps(),
        schedule.num_messages()
    );
    println!("{}", render_all(&mesh, &schedule));
}

/// Parse `[ALG] [SIDE] [SRC]`, defaulting to `DB 4 0`.
fn parse(args: &[String]) -> Result<(Algorithm, Mesh, NodeId), String> {
    // `show` takes no flags: a flag copied from another binary's command
    // line fails here instead of being misread as ALG.
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag '{flag}'"));
    }
    let arg = |i: usize, default: &'static str| args.get(i).map_or(default, String::as_str);
    let alg: Algorithm = arg(0, "DB").parse()?;
    // Every algorithm's schedule needs at least a 2×2 plane.
    let side_arg = arg(1, "4");
    let (digits, planar) = match side_arg.strip_suffix("x2d") {
        Some(digits) => (digits, true),
        None => (side_arg, false),
    };
    let side: u16 = digits
        .parse()
        .ok()
        .filter(|&side| side >= 2)
        .ok_or(format!("SIDE must be a mesh side >= 2, got '{side_arg}'"))?;
    let mesh = match (planar, alg) {
        (true, Algorithm::Edn) => return Err("EDN is defined for 3D meshes only".into()),
        (true, _) => Mesh::square(side),
        (false, _) => Mesh::cube(side),
    };
    let src: u32 = arg(2, "0")
        .parse()
        .map_err(|_| format!("SRC must be a node index, got '{}'", arg(2, "0")))?;
    let src = NodeId(src % mesh.num_nodes() as u32);
    Ok((alg, mesh, src))
}
