//! Property-based tests over the whole stack: random meshes, sources and
//! traffic, checked against the library's core invariants.

use proptest::prelude::*;
use wormcast::prelude::*;
use wormcast::routing::{is_dor_legal, DimensionOrdered, PlanarWestFirst, WestFirst};
use wormcast::topology::straight_walk;

/// Strategy: a modest 3D mesh (2..=6 per dimension; the paper's algorithms
/// need at least a 2x2 plane and two Z planes) plus a node in it.
fn mesh3d_and_node() -> impl Strategy<Value = (Mesh, NodeId)> {
    (2u16..=6, 2u16..=6, 2u16..=6).prop_flat_map(|(x, y, z)| {
        let mesh = Mesh::new(&[x, y, z]);
        let n = mesh.num_nodes() as u32;
        (Just(mesh), (0..n).prop_map(NodeId))
    })
}

/// Strategy: a 2D mesh and two nodes.
fn mesh2d_and_pair() -> impl Strategy<Value = (Mesh, NodeId, NodeId)> {
    (2u16..=9, 2u16..=9).prop_flat_map(|(x, y)| {
        let mesh = Mesh::new(&[x, y]);
        let n = mesh.num_nodes() as u32;
        (Just(mesh), (0..n).prop_map(NodeId), (0..n).prop_map(NodeId))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every algorithm's schedule is valid (exactly-once coverage, causal
    /// senders, port budget) from any source on any supported mesh; on
    /// paper-scale shapes (every dimension >= 4) the constructed step count
    /// matches the closed form.
    #[test]
    fn all_schedules_validate((mesh, src) in mesh3d_and_node()) {
        let paper_scale = mesh.dims().iter().all(|&d| d >= 4);
        for alg in Algorithm::ALL {
            let s = alg.schedule(&mesh, src);
            prop_assert!(s.validate(&mesh, alg.ports()).is_ok(),
                "{alg} invalid from {src} on {:?}", mesh.dims());
            if paper_scale || matches!(alg, Algorithm::Rd | Algorithm::Ab) {
                prop_assert_eq!(s.steps(), alg.theoretical_steps(&mesh),
                    "{} steps on {:?}", alg, mesh.dims());
            }
        }
    }

    /// DOR paths are minimal, dimension-ordered and cycle-free.
    #[test]
    fn dor_paths_are_minimal_and_legal((mesh, a, b) in mesh2d_and_pair()) {
        prop_assume!(a != b);
        let p = dor_path(&mesh, a, b);
        prop_assert!(p.is_minimal(&mesh));
        prop_assert!(is_dor_legal(&mesh, &p));
        prop_assert!(!p.has_cycle(&mesh));
    }

    /// Greedy walks under every routing function reach the destination in
    /// exactly `distance` hops from any (src, dst) pair — productivity and
    /// connectedness of the routing relations.
    #[test]
    fn routing_functions_are_minimal((mesh, a, b) in mesh2d_and_pair()) {
        prop_assume!(a != b);
        let rfs: Vec<Box<dyn RoutingFunction>> = vec![
            Box::new(DimensionOrdered),
            Box::new(WestFirst),
            Box::new(wormcast::routing::OddEven),
        ];
        for rf in &rfs {
            for pick_last in [false, true] {
                let mut cur = a;
                let mut hops = 0u32;
                while cur != b {
                    let c = rf.candidates(&mesh, a, cur, None, b);
                    prop_assert!(!c.is_empty(), "{} dead end", rf.name());
                    let pick = if pick_last { c.len() - 1 } else { 0 };
                    cur = mesh.channel_endpoints(c[pick]).1;
                    hops += 1;
                    prop_assert!(hops <= mesh.distance(a, b), "{} detour", rf.name());
                }
                prop_assert_eq!(hops, mesh.distance(a, b));
            }
        }
    }

    /// The 3D planar-west-first function is likewise minimal.
    #[test]
    fn planar_west_first_minimal((mesh, src) in mesh3d_and_node()) {
        let rf = PlanarWestFirst;
        let dst = NodeId((src.0 + 1) % mesh.num_nodes() as u32);
        prop_assume!(src != dst);
        let mut cur = src;
        let mut hops = 0u32;
        while cur != dst {
            let c = rf.candidates(&mesh, src, cur, None, dst);
            prop_assert!(!c.is_empty());
            cur = mesh.channel_endpoints(c[0]).1;
            hops += 1;
            prop_assert!(hops <= mesh.distance(src, dst));
        }
        prop_assert_eq!(hops, mesh.distance(src, dst));
    }

    /// straight_walk inverts cleanly and lands on its target.
    #[test]
    fn straight_walk_roundtrip(x0 in 0u16..8, x1 in 0u16..8, y in 0u16..8) {
        let a = Coord::xy(x0, y);
        let b = Coord::xy(x1, y);
        let w = straight_walk(&a, &b);
        prop_assert_eq!(w.len(), (x0 as i32 - x1 as i32).unsigned_abs() as usize);
        if let Some(last) = w.last() {
            prop_assert_eq!(*last, b);
        }
    }

    /// A single broadcast executed on the network delivers to every node
    /// exactly once and the measured network latency bounds every arrival.
    #[test]
    fn executed_broadcast_reaches_everyone((mesh, src) in mesh3d_and_node()) {
        prop_assume!(mesh.dim_size(0) >= 2 && mesh.dim_size(1) >= 2);
        for alg in Algorithm::ALL {
            let o = run_single_broadcast(
                &mesh,
                NetworkConfig::paper_default(),
                alg,
                src,
                16,
            );
            prop_assert!(o.network_latency_us > 0.0);
            prop_assert!(o.mean_latency_us <= o.network_latency_us);
            prop_assert!(o.cv >= 0.0);
        }
    }

    /// Node/coordinate indexing round-trips on random meshes.
    #[test]
    fn coord_roundtrip(x in 1u16..10, y in 1u16..10, z in 1u16..10) {
        let mesh = Mesh::new(&[x, y, z]);
        for n in (0..mesh.num_nodes() as u32).step_by(7) {
            let c = mesh.coord_of(NodeId(n));
            prop_assert_eq!(mesh.node_at(&c), NodeId(n));
        }
    }

    /// Batch-means CI covers the true mean of a known uniform stream.
    #[test]
    fn batch_means_covers_uniform(seed in 0u64..1000) {
        let mut rng = SimRng::new(seed);
        let mut b = BatchMeans::new(50, 1);
        for _ in 0..5000 {
            b.push(rng.unit());
        }
        let e = b.estimate().unwrap();
        // 95% CI: allow generous slack for the 5% of seeds outside it.
        prop_assert!((e.mean - 0.5).abs() < 0.05, "mean {}", e.mean);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random unicast traffic conserves messages and leaves no channel held
    /// (engine-level invariant, via the public API).
    #[test]
    fn engine_conserves_random_traffic(seed in 0u64..500, n_msgs in 1usize..40) {
        let mesh = Mesh::cube(4);
        let mut net = Network::new(
            mesh.clone(),
            NetworkConfig::paper_default(),
            Box::new(DimensionOrdered),
        );
        let mut rng = SimRng::new(seed);
        let mut injected = 0u64;
        for i in 0..n_msgs {
            let src = NodeId(rng.index(64) as u32);
            let dst = NodeId(rng.index(64) as u32);
            if src == dst {
                continue;
            }
            let p = dor_path(&mesh, src, dst);
            net.inject_at(
                SimTime::from_us(i as f64 * 0.3),
                MessageSpec {
                    src,
                    route: Route::Fixed(CodedPath::unicast(&mesh, p)),
                    length: 1 + rng.index(64) as u64,
                    op: OpId(i as u64),
                    tag: 0,
                    charge_startup: true,
                },
            );
            injected += 1;
        }
        net.run_until_idle();
        let c = net.counters();
        prop_assert_eq!(c.injected, injected);
        prop_assert_eq!(c.completed, injected);
        prop_assert_eq!(net.in_flight(), 0);
        net.check_invariants();
    }
}
