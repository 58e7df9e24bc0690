//! Differential equivalence suite: every leg of [`LEGS`] drives the frozen
//! `classic` oracle and the arena engine through the same seeded workload,
//! in the one delivery loop they share (`run_to_idle`, over the `Engine`
//! trait), and requires bit-equal run records: the full flit-event trace,
//! the delivery sequence (order included), the counters and the final
//! clock. Each leg also pins the arena record by digest, so a change that
//! moves both engines alike shows too.

use wormcast_broadcast::{Algorithm, RoutingKind};
use wormcast_network::{
    classic, Engine, MessageSpec, Network, NetworkConfig, OpId, ReleaseMode, Route, RunRecord,
};
use wormcast_routing::{dor_path, CodedPath, RunPath};
use wormcast_sim::{SimRng, SimTime};
use wormcast_topology::{Mesh, NodeId, Topology};
use wormcast_workload::{
    random_destinations, run_to_idle, single::routing_for, BroadcastTracker, MulticastScheme,
};

use Algorithm::{Ab, Db, Edn, Qab, Rd};
use MulticastScheme::{Cm, Sp, Um};
use ReleaseMode::{AfterTailCrossing as Tail, PathHolding as Hold};
use Traffic::*;

/// The meshes the legs run on: a cube and a non-cubic box.
const CUBE: [u16; 3] = [4, 4, 4];
const SKEW: [u16; 3] = [3, 4, 5];

/// What a leg runs.
#[derive(Debug, Clone, Copy)]
enum Traffic {
    /// One broadcast of the leg's algorithm from `src`, `length` flits.
    Single { src: u32, length: u64 },
    /// 250 unicasts seeded `seed` on the leg's substrate contending with a
    /// 32-flit broadcast of the leg's algorithm from `src`: the §3.3 shape,
    /// with injection ports, CPR masks and adaptive legs all active.
    Mixed { src: u32, seed: u64 },
    /// 400 seeded unicasts on the leg's substrate and no broadcast, so long
    /// gaps between arrivals leave the event list to its absolute-time heap.
    Unicasts { seed: u64 },
    /// [`Traffic::Mixed`] for DB with every unicast a DOR run path, as the
    /// mixed workloads send them. The oracle takes each as the coded path it
    /// expands to, and the arena run must also equal the same stream sent
    /// as fixed `dor_path` unicasts.
    DorRuns { src: u32, seed: u64 },
    /// A 32-flit multicast: its scheme, its source, and the number of
    /// destinations and the seed they are drawn with.
    Multicast(MulticastScheme, u32, usize, u64),
    /// [`Traffic::Multicast`] under 60 QAB unicasts seeded `0xD440 ^ m`: the
    /// coded subset paths ride the queue-aware substrate's network, mixing
    /// fixed and queue-aware arbitration.
    MulticastOnQab(MulticastScheme, u32, usize, u64),
}

/// One differential leg.
#[derive(Debug)]
struct Leg {
    dims: [u16; 3],
    /// The algorithm whose routing substrate and port count the network
    /// takes.
    alg: Algorithm,
    mode: ReleaseMode,
    traffic: Traffic,
    /// The digest of the arena engine's run record ([`RunRecord::digest`]).
    pin: u64,
}

const fn leg(dims: [u16; 3], alg: Algorithm, mode: ReleaseMode, traffic: Traffic, pin: u64) -> Leg {
    Leg {
        dims,
        alg,
        mode,
        traffic,
        pin,
    }
}

/// Every differential leg. The sources, lengths and destination seeds of
/// the single and multicast legs are the draws an earlier, loop-built form
/// of this suite made.
#[rustfmt::skip]
const LEGS: &[Leg] = &[
    leg(CUBE, Rd, Hold, Single { src: 10, length: 89 }, 0x2fbe_55f2_3f5b_3c8f),
    leg(CUBE, Rd, Hold, Single { src: 2, length: 74 }, 0xca64_48c8_32df_96c7),
    leg(CUBE, Rd, Hold, Single { src: 33, length: 75 }, 0xaaac_4c2d_f52e_a7cd),
    leg(CUBE, Edn, Hold, Single { src: 8, length: 42 }, 0x3302_f25f_5998_d44b),
    leg(CUBE, Edn, Hold, Single { src: 9, length: 5 }, 0x37e0_6084_62ec_dae6),
    leg(CUBE, Edn, Hold, Single { src: 6, length: 51 }, 0x5adb_597b_7ded_c995),
    leg(CUBE, Db, Hold, Single { src: 60, length: 75 }, 0x3084_9690_bd47_94f8),
    leg(CUBE, Db, Hold, Single { src: 48, length: 2 }, 0x6fac_54aa_65a2_dd73),
    leg(CUBE, Db, Hold, Single { src: 42, length: 36 }, 0x07e5_3b02_0f6d_853e),
    leg(CUBE, Ab, Hold, Single { src: 26, length: 86 }, 0x017b_9f1d_b6c9_5ea8),
    leg(CUBE, Ab, Hold, Single { src: 58, length: 69 }, 0xca14_46b9_0452_5625),
    leg(CUBE, Ab, Hold, Single { src: 59, length: 67 }, 0x912a_bd18_0fa6_6a54),
    leg(CUBE, Qab, Hold, Single { src: 58, length: 38 }, 0xd27d_059e_b0af_81fa),
    leg(CUBE, Qab, Hold, Single { src: 11, length: 88 }, 0x7e5f_0004_f755_b091),
    leg(CUBE, Qab, Hold, Single { src: 21, length: 38 }, 0xafe1_7308_f760_39f2),
    leg(CUBE, Rd, Tail, Single { src: 2, length: 21 }, 0x8bdc_93bc_c971_3a6c),
    leg(CUBE, Rd, Tail, Single { src: 55, length: 74 }, 0x60e5_4c7e_37b8_cdb6),
    leg(CUBE, Rd, Tail, Single { src: 38, length: 58 }, 0xaa16_81e1_9347_398d),
    leg(CUBE, Edn, Tail, Single { src: 42, length: 61 }, 0xd117_5b1d_5218_3f60),
    leg(CUBE, Edn, Tail, Single { src: 62, length: 89 }, 0xb4c6_0088_990c_f671),
    leg(CUBE, Edn, Tail, Single { src: 33, length: 48 }, 0x9827_0f1a_f368_65f4),
    leg(CUBE, Db, Tail, Single { src: 24, length: 12 }, 0x99ec_3278_7c9d_05f1),
    leg(CUBE, Db, Tail, Single { src: 42, length: 49 }, 0xcc38_151e_1ec3_1fd6),
    leg(CUBE, Db, Tail, Single { src: 1, length: 61 }, 0x1828_8b94_bdb8_1c42),
    leg(CUBE, Ab, Tail, Single { src: 54, length: 25 }, 0xeef0_9b0e_5727_5abc),
    leg(CUBE, Ab, Tail, Single { src: 59, length: 52 }, 0x7d5d_5055_ef61_3154),
    leg(CUBE, Ab, Tail, Single { src: 57, length: 8 }, 0x29ed_2079_22bc_6ef8),
    leg(CUBE, Qab, Tail, Single { src: 56, length: 56 }, 0x06cc_8b37_56a1_b5f1),
    leg(CUBE, Qab, Tail, Single { src: 4, length: 22 }, 0x31ff_3c81_07a2_9445),
    leg(CUBE, Qab, Tail, Single { src: 34, length: 36 }, 0x9a2a_aeec_c699_9e77),
    leg(SKEW, Rd, Hold, Single { src: 1, length: 10 }, 0x4ea2_bd50_6857_f5cc),
    leg(SKEW, Rd, Hold, Single { src: 10, length: 15 }, 0x4d05_a525_053b_bf77),
    leg(SKEW, Rd, Hold, Single { src: 45, length: 91 }, 0xac53_0c66_9613_6dc9),
    leg(SKEW, Edn, Hold, Single { src: 4, length: 15 }, 0x1e62_72a1_6610_7d8b),
    leg(SKEW, Edn, Hold, Single { src: 43, length: 73 }, 0xc6af_03d1_182a_72cd),
    leg(SKEW, Edn, Hold, Single { src: 3, length: 21 }, 0x3319_708a_3a6f_2296),
    leg(SKEW, Db, Hold, Single { src: 43, length: 88 }, 0x0d53_9bf7_42b0_1236),
    leg(SKEW, Db, Hold, Single { src: 41, length: 91 }, 0x450b_541d_d8e1_9ef5),
    leg(SKEW, Db, Hold, Single { src: 3, length: 75 }, 0x6eb5_81fd_32f2_5ece),
    leg(SKEW, Ab, Hold, Single { src: 56, length: 76 }, 0x5a32_f20a_3002_8848),
    leg(SKEW, Ab, Hold, Single { src: 57, length: 72 }, 0x2ae4_27ed_118a_1ba8),
    leg(SKEW, Ab, Hold, Single { src: 58, length: 91 }, 0xcbb8_a2fb_4b03_57da),
    leg(SKEW, Qab, Hold, Single { src: 14, length: 43 }, 0x6481_a842_393d_ba70),
    leg(SKEW, Qab, Hold, Single { src: 54, length: 18 }, 0xc37e_c8bd_21ab_447e),
    leg(SKEW, Qab, Hold, Single { src: 51, length: 95 }, 0xfca8_79b2_f4d0_3a83),
    leg(SKEW, Rd, Tail, Single { src: 3, length: 59 }, 0x88e1_a5f5_633e_db7b),
    leg(SKEW, Rd, Tail, Single { src: 20, length: 18 }, 0x8413_c6c7_94e6_3181),
    leg(SKEW, Rd, Tail, Single { src: 9, length: 23 }, 0xc3a1_653f_199d_0be6),
    leg(SKEW, Edn, Tail, Single { src: 41, length: 6 }, 0x59eb_2cb1_62e2_83f5),
    leg(SKEW, Edn, Tail, Single { src: 8, length: 31 }, 0x7b96_6f17_1fe7_80c2),
    leg(SKEW, Edn, Tail, Single { src: 30, length: 7 }, 0xd1bf_9a27_712d_3d90),
    leg(SKEW, Db, Tail, Single { src: 55, length: 36 }, 0x6770_b905_7c9d_a3a1),
    leg(SKEW, Db, Tail, Single { src: 54, length: 93 }, 0x2ee9_e234_34b7_f8cd),
    leg(SKEW, Db, Tail, Single { src: 47, length: 54 }, 0x5e31_a3d0_ff13_f0d1),
    leg(SKEW, Ab, Tail, Single { src: 26, length: 45 }, 0x2812_d6aa_fb99_c38e),
    leg(SKEW, Ab, Tail, Single { src: 23, length: 52 }, 0x6947_8b51_69b6_0e31),
    leg(SKEW, Ab, Tail, Single { src: 50, length: 56 }, 0xe860_8445_6914_221f),
    leg(SKEW, Qab, Tail, Single { src: 51, length: 17 }, 0x7786_d18f_d4d6_6a44),
    leg(SKEW, Qab, Tail, Single { src: 22, length: 86 }, 0x9dae_2d24_47e0_9f28),
    leg(SKEW, Qab, Tail, Single { src: 27, length: 51 }, 0x0326_33f4_9446_a0ef),
    leg(CUBE, Db, Hold, Mixed { src: 55, seed: 0xa117 }, 0x16a4_8302_0ffa_250d),
    leg(CUBE, Ab, Hold, Mixed { src: 8, seed: 0xa118 }, 0xe5db_ad53_caaf_9f10),
    leg(CUBE, Rd, Hold, Mixed { src: 25, seed: 0xa119 }, 0x493a_24bf_0a95_df22),
    leg(CUBE, Qab, Hold, Mixed { src: 42, seed: 0xa11a }, 0x3aa9_ac0d_357f_538d),
    leg(CUBE, Db, Tail, Mixed { src: 55, seed: 0xa117 }, 0x3f6c_e91f_c0e0_9411),
    leg(CUBE, Ab, Tail, Mixed { src: 8, seed: 0xa118 }, 0x8b8f_ba62_dfb4_e76d),
    leg(CUBE, Rd, Tail, Mixed { src: 25, seed: 0xa119 }, 0x22f1_a318_6e23_7fbe),
    leg(CUBE, Qab, Tail, Mixed { src: 42, seed: 0xa11a }, 0x1d10_60f8_d014_dfca),
    leg(CUBE, Db, Hold, Unicasts { seed: 0xb235 }, 0x1a37_4fe5_3dc0_1a85),
    leg(CUBE, Ab, Hold, Unicasts { seed: 0xb236 }, 0xa32b_587b_2bc4_8835),
    leg(CUBE, Qab, Hold, Unicasts { seed: 0xb237 }, 0x5f24_fc53_5546_d551),
    leg(CUBE, Db, Tail, Unicasts { seed: 0xb235 }, 0x96ba_7006_e163_a0fd),
    leg(CUBE, Ab, Tail, Unicasts { seed: 0xb236 }, 0x35a9_fbf8_ed06_dbda),
    leg(CUBE, Qab, Tail, Unicasts { seed: 0xb237 }, 0xacfb_de1e_6953_6aee),
    leg(CUBE, Db, Hold, DorRuns { src: 19, seed: 0xd11 }, 0x7540_16e2_9585_984e),
    leg(CUBE, Db, Tail, DorRuns { src: 19, seed: 0xd11 }, 0x04f9_2e93_c0d7_b5ea),
    leg(SKEW, Db, Hold, DorRuns { src: 56, seed: 0xd2e }, 0x24e1_66e9_725b_12e9),
    leg(SKEW, Db, Tail, DorRuns { src: 56, seed: 0xd2e }, 0xfa2e_e92b_b95f_f26d),
    leg(CUBE, Rd, Hold, Multicast(Um, 25, 8, 0xf972_b099_4cc9_c04e), 0xb145_2a6f_ea79_34eb),
    leg(CUBE, Qab, Hold, MulticastOnQab(Um, 25, 8, 0xf972_b099_4cc9_c04e), 0x0792_9910_8e1e_425a),
    leg(CUBE, Rd, Hold, Multicast(Um, 36, 48, 0xb480_fec6_fbeb_a777), 0x3b96_13d3_7b3b_127a),
    leg(CUBE, Qab, Hold, MulticastOnQab(Um, 36, 48, 0xb480_fec6_fbeb_a777), 0xc70c_4360_2ed7_0813),
    leg(CUBE, Db, Hold, Multicast(Cm, 63, 8, 0x0e69_71ad_af6b_8d1d), 0x62c0_d11c_746d_fcb0),
    leg(CUBE, Qab, Hold, MulticastOnQab(Cm, 63, 8, 0x0e69_71ad_af6b_8d1d), 0xd715_8390_f01b_2958),
    leg(CUBE, Db, Hold, Multicast(Cm, 8, 48, 0x9675_9717_d14f_27f5), 0x094e_67a9_8cff_2a9e),
    leg(CUBE, Qab, Hold, MulticastOnQab(Cm, 8, 48, 0x9675_9717_d14f_27f5), 0x1875_9edc_0700_85fa),
    leg(CUBE, Db, Hold, Multicast(Sp, 1, 8, 0x8787_6848_a685_0e14), 0x8423_3dfd_cba0_5bd4),
    leg(CUBE, Qab, Hold, MulticastOnQab(Sp, 1, 8, 0x8787_6848_a685_0e14), 0x7788_ec3d_f4a9_8381),
    leg(CUBE, Db, Hold, Multicast(Sp, 54, 48, 0xc9e1_2cf5_ca8d_1876), 0x52b2_6716_d8a4_21f4),
    leg(CUBE, Qab, Hold, MulticastOnQab(Sp, 54, 48, 0xc9e1_2cf5_ca8d_1876), 0x0d41_495e_0a85_fe2f),
    leg(CUBE, Rd, Tail, Multicast(Um, 38, 8, 0xfc5b_0407_34e2_dd65), 0x988c_5c76_89f6_828d),
    leg(CUBE, Qab, Tail, MulticastOnQab(Um, 38, 8, 0xfc5b_0407_34e2_dd65), 0x7850_9ef6_8487_6477),
    leg(CUBE, Rd, Tail, Multicast(Um, 44, 48, 0x66da_1203_0f16_2805), 0xcaab_67da_deb7_82b6),
    leg(CUBE, Qab, Tail, MulticastOnQab(Um, 44, 48, 0x66da_1203_0f16_2805), 0xb5ff_92d1_817e_9542),
    leg(CUBE, Db, Tail, Multicast(Cm, 62, 8, 0x659e_ce8d_7bd0_ba13), 0x8ba6_1d74_a086_0a97),
    leg(CUBE, Qab, Tail, MulticastOnQab(Cm, 62, 8, 0x659e_ce8d_7bd0_ba13), 0x5a5c_cb5c_016d_b3e0),
    leg(CUBE, Db, Tail, Multicast(Cm, 58, 48, 0xbd52_18e2_ac86_f8da), 0x620e_ccd0_b906_b618),
    leg(CUBE, Qab, Tail, MulticastOnQab(Cm, 58, 48, 0xbd52_18e2_ac86_f8da), 0x686f_204a_10ac_0842),
    leg(CUBE, Db, Tail, Multicast(Sp, 49, 8, 0x47df_d8a9_0d53_54f2), 0x49de_554a_2e74_1ca5),
    leg(CUBE, Qab, Tail, MulticastOnQab(Sp, 49, 8, 0x47df_d8a9_0d53_54f2), 0x4455_ff61_c9af_a4cc),
    leg(CUBE, Db, Tail, Multicast(Sp, 57, 48, 0xfacf_fccc_22ec_9091), 0x307d_efa3_835d_eed7),
    leg(CUBE, Qab, Tail, MulticastOnQab(Sp, 57, 48, 0xfacf_fccc_22ec_9091), 0x415e_f05f_ca94_bf5f),
];

impl Leg {
    /// The leg's background unicasts, each at its time.
    fn injections(&self, mesh: &Mesh) -> Vec<(SimTime, MessageSpec)> {
        match self.traffic {
            Single { .. } | Multicast(..) => Vec::new(),
            Mixed { seed, .. } => random_unicasts(mesh, self.alg, 250, seed),
            Unicasts { seed } => random_unicasts(mesh, self.alg, 400, seed),
            DorRuns { seed, .. } => as_run_paths(mesh, random_unicasts(mesh, Db, 250, seed)),
            MulticastOnQab(_, _, m, _) => random_unicasts(mesh, Qab, 60, 0xD440 ^ m as u64),
        }
    }

    /// The leg's operation, if it has one.
    fn tracker(&self, mesh: &Mesh) -> Option<BroadcastTracker> {
        let broadcast = |src: u32, length| {
            let schedule = self.alg.schedule(mesh, NodeId(src));
            BroadcastTracker::new(mesh, &schedule, OpId(0), length)
        };
        match self.traffic {
            Single { src, length } => Some(broadcast(src, length)),
            Mixed { src, .. } | DorRuns { src, .. } => Some(broadcast(src, 32)),
            Unicasts { .. } => None,
            Multicast(scheme, src, m, seed) | MulticastOnQab(scheme, src, m, seed) => {
                let dests = random_destinations(mesh, NodeId(src), m, seed);
                let schedule = scheme.schedule(mesh, NodeId(src), &dests);
                Some(BroadcastTracker::multicast(
                    mesh,
                    &schedule,
                    &dests,
                    OpId(0),
                    32,
                ))
            }
        }
    }
}

/// Build a seeded random unicast stream: `n` messages with random sources,
/// destinations, lengths, arrival times and start-up charging, routed on
/// the substrate `alg` selects (fixed DOR paths, or adaptive legs for the
/// west-first and queue-aware substrates).
fn random_unicasts(
    mesh: &Mesh,
    alg: Algorithm,
    n: usize,
    seed: u64,
) -> Vec<(SimTime, MessageSpec)> {
    let mut rng = SimRng::new(seed);
    let adaptive = matches!(alg, Ab | Qab);
    (0..n)
        .map(|i| {
            let src = NodeId(rng.index(mesh.num_nodes()) as u32);
            let dst = loop {
                let d = NodeId(rng.index(mesh.num_nodes()) as u32);
                if d != src {
                    break d;
                }
            };
            let route = if adaptive {
                Route::Adaptive { dst }
            } else {
                Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, src, dst)))
            };
            let at = SimTime::from_us(rng.unit() * 40.0);
            let spec = MessageSpec {
                src,
                route,
                length: 1 + rng.index(32) as u64,
                op: OpId(1000 + i as u64),
                tag: 0,
                charge_startup: rng.chance(0.5),
            };
            (at, spec)
        })
        .collect()
}

/// `plan`'s fixed DOR unicasts as the run paths with the same ends.
fn as_run_paths(mesh: &Mesh, plan: Vec<(SimTime, MessageSpec)>) -> Vec<(SimTime, MessageSpec)> {
    plan.into_iter()
        .map(|(at, spec)| {
            let Route::Fixed(cp) = &spec.route else {
                unreachable!("DB unicasts are fixed DOR paths");
            };
            let route = Route::Runs(RunPath::dor(mesh, spec.src, cp.path.dest(mesh)));
            (at, MessageSpec { route, ..spec })
        })
        .collect()
}

/// Run `injections` and `tracker` on `net` to idle under a trace; the run's
/// record, once every operation completed.
fn record(
    mut net: impl Engine,
    injections: &[(SimTime, MessageSpec)],
    tracker: Option<BroadcastTracker>,
) -> RunRecord {
    net.enable_trace(4_000_000);
    let (deliveries, live) = run_to_idle(&mut net, injections, tracker);
    assert_eq!(live, 0, "broadcast stalled before completion");
    RunRecord::of(&net, deliveries)
}

/// Run `leg` on both engines and require bit-equal records; the arena
/// engine's record.
fn run_leg(leg: &Leg) -> RunRecord {
    let mesh = Mesh::new(&leg.dims);
    let cfg = NetworkConfig::builder()
        .release(leg.mode)
        .build()
        .expect("both release modes are valid")
        .with_ports(leg.alg.ports());
    let plan = leg.injections(&mesh);
    let rf = || routing_for(leg.alg, &mesh);
    let oracle = record(
        classic::Network::new(mesh.clone(), cfg, rf()),
        &plan,
        leg.tracker(&mesh),
    );
    let arena = record(
        Network::new(mesh.clone(), cfg, rf()),
        &plan,
        leg.tracker(&mesh),
    );
    assert!(
        arena.counters.injected > 0 && !arena.deliveries.is_empty(),
        "{leg:?}: nothing ran"
    );
    if let Some(d) = arena.first_divergence(&oracle) {
        panic!("{leg:?}: {d}");
    }
    if let DorRuns { seed, .. } = leg.traffic {
        let fixed = random_unicasts(&mesh, Db, 250, seed);
        let with_paths = record(
            Network::new(mesh.clone(), cfg, rf()),
            &fixed,
            leg.tracker(&mesh),
        );
        assert!(arena == with_paths, "{leg:?}: differs from fixed paths");
    }
    arena
}

/// Every leg matches the oracle, and its pin. Fails on the first
/// divergence, or after all legs ran, on every moved pin.
#[test]
fn every_leg_matches_the_oracle_and_its_pin() {
    let moved: Vec<String> = LEGS
        .iter()
        .filter_map(|leg| {
            let rec = run_leg(leg);
            (rec.digest() != leg.pin).then(|| {
                format!(
                    "{leg:?}: {:#018x}, injected {}, delivered {}",
                    rec.digest(),
                    rec.counters.injected,
                    rec.deliveries.len()
                )
            })
        })
        .collect();
    assert!(moved.is_empty(), "pins moved:\n{}", moved.join("\n"));
}

/// Deleting a row fails here, and so does a table that leaves out a
/// broadcast of some algorithm, unicast traffic on some routing substrate,
/// a workload shape under either release mode, or a multicast scheme.
#[test]
fn the_table_covers_every_axis() {
    assert_eq!(LEGS.len(), 102, "a leg was added or deleted");
    for alg in Algorithm::ALL {
        let broadcast =
            |l: &Leg| matches!(l.traffic, Single { .. } | Mixed { .. } | DorRuns { .. });
        assert!(
            LEGS.iter().any(|l| l.alg == alg && broadcast(l)),
            "no {alg} broadcast"
        );
    }
    let unicasts = |t: &Traffic| {
        matches!(
            t,
            Mixed { .. } | Unicasts { .. } | DorRuns { .. } | MulticastOnQab(..)
        )
    };
    for substrate in [
        RoutingKind::DimensionOrdered,
        RoutingKind::WestFirstAdaptive,
        RoutingKind::QueueAdaptive,
    ] {
        assert!(
            LEGS.iter()
                .any(|l| l.alg.routing() == substrate && unicasts(&l.traffic)),
            "no unicast traffic on {substrate:?}"
        );
    }
    type Is = fn(&Traffic) -> bool;
    let shapes: [(&str, Is); 5] = [
        ("single", |t| matches!(t, Single { .. })),
        ("mixed", |t| matches!(t, Mixed { .. })),
        ("unicast-only", |t| matches!(t, Unicasts { .. })),
        ("DOR run-path", |t| matches!(t, DorRuns { .. })),
        ("multicast", |t| {
            matches!(t, Multicast(..) | MulticastOnQab(..))
        }),
    ];
    for (shape, is) in shapes {
        for mode in [Hold, Tail] {
            assert!(
                LEGS.iter().any(|l| l.mode == mode && is(&l.traffic)),
                "no {shape} leg under {mode:?}"
            );
        }
    }
    for scheme in MulticastScheme::ALL {
        assert!(
            LEGS.iter().any(
                |l| matches!(l.traffic, Multicast(s, ..) | MulticastOnQab(s, ..) if s == scheme)
            ),
            "no {} multicast",
            scheme.name()
        );
    }
}

/// The arena engine's own invariant checker stays silent across a contended
/// run (the oracle has no checker; this guards the arena engine's internal
/// consistency under the same kind of workload the legs use).
#[test]
fn invariant_checks_pass_under_contention() {
    let mesh = Mesh::cube(4);
    let cfg = NetworkConfig::builder()
        .invariant_checks(true)
        .build()
        .expect("checked baseline is valid");
    let plan = random_unicasts(&mesh, Db, 150, 0xC330);
    let schedule = Db.schedule(&mesh, NodeId(5));
    let tracker = BroadcastTracker::new(&mesh, &schedule, OpId(0), 48);
    let net = Network::new(
        mesh.clone(),
        cfg.with_ports(Db.ports()),
        routing_for(Db, &mesh),
    );
    let rec = record(net, &plan, Some(tracker));
    assert_eq!(rec.digest(), 0x72fc_87a1_0258_f185);
}
