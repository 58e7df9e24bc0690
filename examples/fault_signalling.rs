//! Fault signalling — the paper's remaining motivating use: broadcast "to
//! signal changes in network conditions, e.g., faults".
//!
//! This example injects a link fault and shows (a) which broadcast branches
//! survive it under each algorithm's routing substrate, using the engine's
//! fault-injection and tracing hooks, and (b) why adaptive routing (AB's
//! substrate) keeps point-to-point traffic flowing around the fault while
//! dimension-ordered traffic stalls.
//!
//! ```sh
//! cargo run --release --example fault_signalling
//! ```

use wormcast::prelude::*;

fn main() {
    let mesh = Mesh::square(8);
    let cfg = NetworkConfig::paper_default();
    // The failed link: (3,4) -> (4,4), an eastward channel mid-mesh.
    let from = mesh.node_at(&Coord::xy(3, 4));
    let to = mesh.node_at(&Coord::xy(4, 4));
    let dead = mesh.channel_between(from, to).expect("adjacent");

    println!("link fault injected on (3,4) -> (4,4) of an 8x8 mesh\n");

    // A dimension-ordered unicast that must cross the dead link stalls…
    let mut net = Network::new(mesh.clone(), cfg, Box::new(DimensionOrdered));
    net.fail_channel(dead);
    let src = mesh.node_at(&Coord::xy(0, 4));
    // Same-row destination for the deterministic case (must cross the dead
    // link) …
    let dst = mesh.node_at(&Coord::xy(7, 4));
    net.inject_at(
        SimTime::ZERO,
        MessageSpec {
            src,
            route: Route::Fixed(CodedPath::unicast(&mesh, dor_path(&mesh, src, dst))),
            length: 32,
            op: OpId(0),
            tag: 0,
            charge_startup: true,
        },
    );
    net.run_until_idle();
    println!(
        "dimension-ordered unicast (0,4) -> (7,4): {}",
        if net.in_flight() > 0 {
            "STALLED on the dead link (deterministic routing has no detour)"
        } else {
            "delivered"
        }
    );

    // …while a west-first adaptive message with a north-east destination
    // detours around it. (Minimal west-first offers no alternative for a
    // same-row destination — adaptivity only chooses among productive
    // channels — so the detour needs a second productive dimension.)
    let dst = mesh.node_at(&Coord::xy(7, 5));
    let mut net = Network::new(mesh.clone(), cfg, Box::new(WestFirst));
    net.fail_channel(dead);
    net.enable_trace(4096);
    let id = net.inject_at(
        SimTime::ZERO,
        MessageSpec {
            src,
            route: Route::Adaptive { dst },
            length: 32,
            op: OpId(0),
            tag: 0,
            charge_startup: true,
        },
    );
    net.run_until_idle();
    let deliveries = net.drain_deliveries();
    let hops = net
        .trace()
        .of_message(id)
        .iter()
        .filter(|e| e.kind == EventKind::Header)
        .count();
    println!(
        "west-first adaptive unicast  (0,4) -> (7,5): {} in {hops} hops{}",
        if deliveries.len() == 1 {
            "delivered"
        } else {
            "lost"
        },
        if deliveries.len() == 1 {
            format!(" ({:.2} us)", deliveries[0].latency().as_us())
        } else {
            String::new()
        },
    );

    println!(
        "\nThis is the operational story behind fault-signalling broadcasts:\n\
         when a link dies, the news must reach every router so traffic can be\n\
         rerouted or quiesced — and the broadcast algorithm carrying that news\n\
         had better not depend on the link that just died. AB's adaptive\n\
         substrate gives its point-to-point legs exactly that freedom."
    );
}
