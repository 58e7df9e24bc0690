//! Renders a broadcast schedule step by step as ASCII mesh diagrams.
//!
//! Usage: `show [ALG] [SIDE] [SRC]` — e.g. `show DB 4 21`, `show AB 8 0`.
//! ALG in {RD, EDN, DB, AB}; SIDE is the cubic mesh side (2D grid when
//! SIDE ends with "x2d", e.g. `8x2d`).

use wormcast_broadcast::{render_all, Algorithm};
use wormcast_topology::{Mesh, NodeId, Topology};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `show` takes no flags: a flag copied from another binary's command
    // line fails here instead of being misread as ALG.
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown flag '{flag}'");
        eprintln!("usage: show [ALG] [SIDE] [SRC]");
        std::process::exit(2);
    }
    let alg: Algorithm = args
        .first()
        .map(|s| s.parse().expect("ALG in {RD, EDN, DB, AB}"))
        .unwrap_or(Algorithm::Db);
    let side_arg = args.get(1).cloned().unwrap_or_else(|| "4".into());
    let mesh = if let Some(stripped) = side_arg.strip_suffix("x2d") {
        let side: u16 = stripped.parse().expect("SIDE must be a number");
        Mesh::square(side)
    } else {
        let side: u16 = side_arg.parse().expect("SIDE must be a number");
        Mesh::cube(side)
    };
    let src: u32 = args
        .get(2)
        .map(|s| s.parse().expect("SRC must be a node index"))
        .unwrap_or(0);
    let src = NodeId(src % mesh.num_nodes() as u32);
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
