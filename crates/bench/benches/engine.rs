//! **Engine microbenchmarks** — the simulator's own hot paths: event-queue
//! throughput, routing-function evaluation, and raw message throughput
//! through the wormhole engine. These guard the substrate's performance
//! rather than reproduce a figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wormcast_broadcast::Algorithm;
use wormcast_network::{classic, MessageSpec, Network, NetworkConfig, OpId, Route};
use wormcast_routing::{dor_path, CodedPath, DimensionOrdered, PlanarWestFirst, RoutingFunction};
use wormcast_sim::{CalendarWheel, EventQueue, SimDuration, SimRng, SimTime};
use wormcast_topology::{Mesh, NodeId, Topology};
use wormcast_workload::BroadcastTracker;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [1_000u64, 100_000] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("schedule_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                let mut rng = SimRng::new(1);
                for i in 0..n {
                    q.schedule(SimTime::from_ps(rng.next_u64() % 1_000_000 + i), i);
                }
                let mut count = 0u64;
                while q.pop().is_some() {
                    count += 1;
                }
                black_box(count)
            })
        });
    }
    group.finish();
}

fn bench_routing_functions(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_candidates");
    let mesh = Mesh::cube(16);
    let rf = PlanarWestFirst;
    group.bench_function("planar_west_first_walk", |b| {
        b.iter(|| {
            let src = NodeId(0);
            let dst = NodeId(4095);
            let mut cur = src;
            while cur != dst {
                let cands = rf.candidates(&mesh, src, cur, None, dst);
                cur = mesh.channel_endpoints(cands[0]).1;
            }
            black_box(cur)
        })
    });
    group.bench_function("dor_path_corner_to_corner", |b| {
        b.iter(|| black_box(dor_path(&mesh, NodeId(0), NodeId(4095))))
    });
    group.finish();
}

fn bench_message_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(wormcast_bench::SAMPLE_SIZE);
    let mesh = Mesh::cube(8);
    let n_msgs = 2_000u64;
    group.throughput(Throughput::Elements(n_msgs));
    group.bench_function("unicast_2k_messages", |b| {
        b.iter(|| {
            let mut net = Network::new(
                mesh.clone(),
                NetworkConfig::paper_default(),
                Box::new(DimensionOrdered),
            );
            let mut rng = SimRng::new(3);
            for i in 0..n_msgs {
                let src = NodeId(rng.index(512) as u32);
                let mut dst = NodeId(rng.index(512) as u32);
                while dst == src {
                    dst = NodeId(rng.index(512) as u32);
                }
                let p = dor_path(&mesh, src, dst);
                net.inject_at(
                    SimTime::from_ps(i * 50_000),
                    MessageSpec {
                        src,
                        route: Route::Fixed(CodedPath::unicast(&mesh, p)),
                        length: 32,
                        op: OpId(i),
                        tag: 0,
                        charge_startup: true,
                    },
                );
            }
            net.run_until_idle();
            black_box(net.counters().completed)
        })
    });
    group.finish();
}

/// Build the paper's §3.3 mixed workload as a fixed injection plan: 90%
/// 32-flit DOR unicasts, 10% DB broadcast operations (their full
/// multidestination source step), exponential inter-arrival gaps at the
/// given per-node rate on an 8×8×8 mesh. Pre-materialising the plan keeps
/// the generator out of the measured region and feeds both engines
/// identical traffic.
fn mixed_plan(
    mesh: &Mesh,
    load_per_node_per_ms: f64,
    horizon_ms: f64,
) -> Vec<(SimTime, MessageSpec)> {
    let mut rng = SimRng::new(0xE61E);
    let rate = load_per_node_per_ms * mesh.num_nodes() as f64; // aggregate msgs/ms
    let mut plan = Vec::new();
    let mut t_ms = 0.0;
    let mut op = 0u64;
    loop {
        t_ms += -(1.0 - rng.unit()).ln() / rate;
        if t_ms >= horizon_ms {
            break;
        }
        let at = SimTime::from_us(t_ms * 1_000.0);
        let src = NodeId(rng.index(mesh.num_nodes()) as u32);
        if rng.chance(0.1) {
            let schedule = Algorithm::Db.schedule(mesh, src);
            let mut tracker = BroadcastTracker::new(mesh, &schedule, OpId(op), 32);
            for spec in tracker.start(at) {
                plan.push((at, spec));
            }
        } else {
            let mut dst = NodeId(rng.index(mesh.num_nodes()) as u32);
            while dst == src {
                dst = NodeId(rng.index(mesh.num_nodes()) as u32);
            }
            plan.push((
                at,
                MessageSpec {
                    src,
                    route: Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, src, dst))),
                    length: 32,
                    op: OpId(op),
                    tag: 0,
                    charge_startup: true,
                },
            ));
        }
        op += 1;
    }
    plan
}

/// The tentpole comparison: the retired heap-driven stepper (kept verbatim
/// as `classic`) against the active-set engine on identical 8×8×8 mixed
/// traffic at the paper's 0.03 msgs/node/ms operating point. The reported
/// ratio of the two means is the rewrite's speedup.
fn bench_engine_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_compare");
    group.sample_size(wormcast_bench::SAMPLE_SIZE);
    let mesh = Mesh::cube(8);
    let plan = mixed_plan(&mesh, 0.03, 25.0);
    group.throughput(Throughput::Elements(plan.len() as u64));

    macro_rules! drain {
        ($net_ty:ty, $plan:expr) => {{
            let mut net = <$net_ty>::new(
                mesh.clone(),
                NetworkConfig::paper_default(),
                Box::new(DimensionOrdered),
            );
            for (at, spec) in $plan {
                net.inject_at(*at, spec.clone());
            }
            net.run_until_idle();
            black_box(net.counters().deliveries)
        }};
    }

    group.bench_function("mixed_8x8x8_0.03_classic_heap", |b| {
        b.iter(|| drain!(classic::Network, &plan))
    });
    group.bench_function("mixed_8x8x8_0.03_active_set", |b| {
        b.iter(|| drain!(Network, &plan))
    });
    group.finish();
}

/// The scheduling primitive in isolation, under the classic hold model at
/// the engine's operating point: a steady population of ~512 pending
/// events (one per node's next hop, roughly), each pop followed by a
/// reschedule a random interval ahead, inside the wheel's ring horizon as
/// engine events are.
///
/// The plain hold spreads reschedules over 2 µs, about 2 pending events per
/// 8.192-ns bucket, so almost no reschedule lands in the tick being drained
/// (0.1% of the wheel's places are ordered inserts into the current
/// bucket). The `crowded` variants spread them over ten buckets, which
/// gives a place about 49 pending events in its bucket, as on perfbench's
/// `loaded` workload (about 50). 4.8% of the places are then ordered
/// inserts, each shifting 16 slots on average, and 1.0% leave a later
/// bucket to be sorted on its first read (`loaded`: 10.4% and 5 slots,
/// 1.5%).
fn bench_wheel_vs_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_primitive");
    let n = 100_000u64;
    let population = 512u64;
    // The wheel's default bucket width, 2^13 ps.
    let tick = 1u64 << 13;
    group.throughput(Throughput::Elements(n));

    macro_rules! hold_model {
        ($q:expr, $spread:expr) => {{
            let mut q = $q;
            let mut rng = SimRng::new(5);
            for i in 0..population {
                q.schedule(SimTime::from_ps(rng.next_u64() % $spread), i);
            }
            let mut acc = 0u64;
            for i in 0..n {
                let (t, e) = q.pop().expect("population never drains");
                acc += black_box(e) & 1;
                let ahead = rng.next_u64() % $spread;
                q.schedule(t + SimDuration::from_ps(ahead), i);
            }
            black_box(acc)
        }};
    }
    let (plain, crowded) = (2_000_000u64, 10 * tick);

    group.bench_function("heap_hold_512", |b| {
        b.iter(|| hold_model!(EventQueue::new(), plain))
    });
    group.bench_function("wheel_hold_512", |b| {
        b.iter(|| hold_model!(CalendarWheel::<u64>::new(), plain))
    });
    group.bench_function("heap_hold_512_crowded", |b| {
        b.iter(|| hold_model!(EventQueue::new(), crowded))
    });
    group.bench_function("wheel_hold_512_crowded", |b| {
        b.iter(|| hold_model!(CalendarWheel::<u64>::new(), crowded))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_routing_functions,
    bench_message_throughput,
    bench_engine_compare,
    bench_wheel_vs_heap
);
criterion_main!(benches);
