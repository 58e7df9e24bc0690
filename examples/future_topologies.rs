//! The paper's future directions (§4), implemented: coded-path broadcast on
//! the k-ary n-cube (torus) and the generalized hypercube.
//!
//! Wraparound turns a whole dimension into ONE coded path, so an
//! n-dimensional torus broadcasts in n message-passing steps — one fewer
//! than DB needs on the equivalent mesh — and the generalized hypercube's
//! complete-graph dimensions do the same with single-hop fans.
//!
//! ```sh
//! cargo run --release --example future_topologies
//! ```

use wormcast::prelude::*;

fn main() {
    let cfg = NetworkConfig::paper_default();
    let ts = cfg.startup;
    let hop = cfg.hop_time();
    let beta = cfg.flit_time;
    const L: u64 = 100;

    println!("broadcast on the paper's future-direction topologies, L = {L} flits\n");

    // Mesh baseline: DB on 8x8x8 (simulated).
    let mesh = Mesh::cube(8);
    let db = run_single_broadcast(&mesh, cfg, Algorithm::Db, NodeId(91), L);
    println!(
        "{:<26} {:>6} steps  {:>9.2} us  (simulated)",
        "8x8x8 mesh, DB",
        Algorithm::Db.theoretical_steps(&mesh),
        db.network_latency_us
    );

    // Torus: one ring path per dimension per holder — run through the real
    // engine (facility release mode; ring paths need dateline VCs under
    // blocking-in-place, see DESIGN.md).
    let torus = Torus::kary_ncube(8, 3);
    let tsched = torus_ring_broadcast(&torus, NodeId(91));
    tsched
        .validate(&torus, 1)
        .expect("torus schedule covers all");
    let tcfg = NetworkConfig::builder()
        .release(ReleaseMode::AfterTailCrossing)
        .ports(6)
        .build()
        .expect("facility-queueing baseline is valid");
    let tsim = run_torus_broadcast(&torus, tcfg, NodeId(91), L);
    println!(
        "{:<26} {:>6} steps  {:>9.2} us  (simulated; analytic {:.2})",
        "8-ary 3-cube, ring CPR",
        tsched.steps(),
        tsim.network_latency_us,
        tsim.analytic_latency_us
    );

    // Generalized hypercube with mixed radices, 512 nodes.
    let ghc = GeneralizedHypercube::new(&[8, 8, 8]);
    let gsched = ghc_broadcast(&ghc, NodeId(91));
    gsched.validate(&ghc, 7).expect("GHC schedule covers all");
    println!(
        "{:<26} {:>6} steps  {:>9.2} us  (analytic zero-load)",
        "GHC(8,8,8), fan CPR",
        gsched.steps(),
        gsched.analytic_latency(&ghc, ts, hop, beta, L).as_us()
    );

    // Binary hypercube for comparison: the classic log2(N)-step tree
    // (coordinates support up to 6 dimensions; Q6 has 64 nodes).
    let q6 = GeneralizedHypercube::binary(6);
    let qsched = ghc_broadcast(&q6, NodeId(33));
    qsched.validate(&q6, 1).expect("Q6 schedule covers all");
    println!(
        "{:<26} {:>6} steps  {:>9.2} us  (analytic zero-load)",
        "binary 6-cube, tree",
        qsched.steps(),
        qsched.analytic_latency(&q6, ts, hop, beta, L).as_us()
    );

    println!(
        "\nWraparound rings and complete-graph dimensions both collapse a whole\n\
         dimension into one message-passing step; the torus needs an extra\n\
         virtual channel to keep ring paths deadlock-free on real hardware\n\
         (the classic dateline argument), which is why the mesh algorithms\n\
         of the paper stop at corner-anchored open paths."
    );
}
