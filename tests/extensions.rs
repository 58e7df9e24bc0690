//! Integration tests for the future-directions extensions: torus ring
//! broadcast (simulated end-to-end), generalized-hypercube broadcast,
//! multicast schemes, and the schedule visualiser.

use wormcast::broadcast::{ghc_broadcast, render_all, um_steps, validate_multicast};
use wormcast::prelude::*;
use wormcast::topology::{GeneralizedHypercube, Torus};

#[test]
fn torus_simulation_agrees_with_analytic_model_across_shapes() {
    let cfg = NetworkConfig::builder()
        .release(ReleaseMode::AfterTailCrossing)
        .ports(6)
        .build()
        .expect("facility-queueing baseline is valid");
    for dims in [[4u16, 4, 4], [8, 8, 8], [3, 5, 7]] {
        let t = Torus::new(&dims);
        let o = run_torus_broadcast(&t, cfg, NodeId(1), 64);
        let rel = (o.network_latency_us - o.analytic_latency_us).abs() / o.analytic_latency_us;
        assert!(
            rel < 0.2,
            "{dims:?}: sim {} vs analytic {}",
            o.network_latency_us,
            o.analytic_latency_us
        );
    }
}

#[test]
fn torus_ring_broadcast_beats_every_mesh_algorithm() {
    // §4's conjecture, checked: on 512 nodes the 3-step ring scheme beats
    // all four mesh algorithms at L = 100 flits.
    let cfg = NetworkConfig::builder()
        .release(ReleaseMode::AfterTailCrossing)
        .build()
        .expect("facility-queueing baseline is valid");
    let torus = Torus::kary_ncube(8, 3);
    let t = run_torus_broadcast(&torus, cfg.with_ports(6), NodeId(0), 100);
    let mesh = Mesh::cube(8);
    for alg in Algorithm::ALL {
        let m = run_single_broadcast(&mesh, cfg, alg, NodeId(0), 100);
        assert!(
            t.network_latency_us < m.network_latency_us,
            "torus {} vs {} {}",
            t.network_latency_us,
            alg,
            m.network_latency_us
        );
    }
}

#[test]
fn ghc_broadcast_covers_mixed_radices() {
    for dims in [vec![2u16, 3, 4], vec![8, 8], vec![5, 5, 5]] {
        let g = GeneralizedHypercube::new(&dims);
        let s = ghc_broadcast(&g, NodeId(1));
        let ports = *dims.iter().max().unwrap() as usize - 1;
        s.validate(&g, ports)
            .unwrap_or_else(|e| panic!("{dims:?}: {e:?}"));
        assert_eq!(s.steps(), dims.len() as u32);
    }
}

#[test]
fn multicast_schemes_agree_on_who_receives() {
    let mesh = Mesh::cube(4);
    let src = NodeId(7);
    let dests: Vec<NodeId> = vec![NodeId(0), NodeId(13), NodeId(42), NodeId(63)];
    for scheme in MulticastScheme::ALL {
        let s = scheme.schedule(&mesh, src, &dests);
        validate_multicast(&mesh, &s, &dests)
            .unwrap_or_else(|e| panic!("{}: {e:?}", scheme.name()));
    }
}

#[test]
fn multicast_latency_orderings_by_density() {
    // Sparse: SP (one start-up) wins. Dense: CM (3 bounded steps) wins.
    let mesh = Mesh::cube(8);
    let cfg = NetworkConfig::paper_default();
    let src = NodeId(0);
    let sparse = random_destinations(&mesh, src, 5, 1);
    let dense = random_destinations(&mesh, src, 300, 2);
    let lat = |scheme: MulticastScheme, d: &[NodeId]| {
        run_single_multicast(&mesh, cfg, scheme, src, d, 32).latency_us
    };
    assert!(lat(MulticastScheme::Sp, &sparse) < lat(MulticastScheme::Um, &sparse));
    assert!(lat(MulticastScheme::Cm, &dense) < lat(MulticastScheme::Um, &dense));
    assert!(lat(MulticastScheme::Cm, &dense) < lat(MulticastScheme::Sp, &dense));
}

#[test]
fn um_steps_formula_matches_execution() {
    let mesh = Mesh::cube(4);
    let src = NodeId(0);
    for m in [1usize, 2, 7, 20, 63] {
        let dests = random_destinations(&mesh, src, m, m as u64);
        let s = MulticastScheme::Um.schedule(&mesh, src, &dests);
        assert_eq!(s.steps(), um_steps(m), "m={m}");
    }
}

#[test]
fn viz_renders_all_algorithms_without_panicking() {
    let mesh = Mesh::cube(4);
    for alg in Algorithm::ALL {
        let s = alg.schedule(&mesh, NodeId(21));
        let out = render_all(&mesh, &s);
        assert!(out.contains(&format!("{} after step 1/", alg.name())));
        // The last frame has no uncovered nodes.
        let last = out.split("\n\n").last().unwrap();
        assert!(!last.contains('.'), "{alg} leaves nodes uncovered:\n{last}");
    }
}

#[test]
fn fault_injection_reroutes_adaptive_broadcast_legs() {
    // AB's step-1 legs are adaptive: failing one channel on the default DOR
    // path of a leg must not stop the broadcast when a legal detour exists.
    use wormcast::routing::PlanarWestFirst;
    use wormcast::workload::{drive, BroadcastTracker};
    let mesh = Mesh::cube(4);
    let cfg = NetworkConfig::builder()
        .ports(6)
        .build()
        .expect("six ports are valid");
    let mut net = Network::new(mesh.clone(), cfg, Box::new(PlanarWestFirst));
    // Fail a Z channel no AB message needs (AB's Z relays run at corners):
    // an interior +Y link in the source plane that the adaptive legs can
    // dodge.
    let a = mesh.node_at(&Coord::xyz(2, 1, 1));
    let b = mesh.node_at(&Coord::xyz(2, 2, 1));
    net.fail_channel(mesh.channel_between(a, b).unwrap());
    let src = mesh.node_at(&Coord::xyz(2, 1, 1));
    let schedule = Algorithm::Ab.schedule(&mesh, src);
    let tracker = drive(
        &mut net,
        BroadcastTracker::new(&mesh, &schedule, OpId(0), 16),
    );
    assert!(
        tracker.is_complete(),
        "AB broadcast stalled despite available detours"
    );
}
