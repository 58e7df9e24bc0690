//! **Engine microbenchmarks** — the simulator's own hot paths: event-queue
//! throughput, routing-function evaluation, and raw message throughput
//! through the wormhole engine. These guard the substrate's performance
//! rather than reproduce a figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wormcast_broadcast::Algorithm;
use wormcast_network::{
    classic, open_loop, Engine, MessageSpec, Network, NetworkConfig, OpId, Route,
};
use wormcast_routing::{dor_path, CodedPath, DimensionOrdered, PlanarWestFirst, RoutingFunction};
use wormcast_sim::{EventQueue, LaneQueue, SimDuration, SimRng, SimTime};
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

/// Run `plan` open loop on `net` to idle; the number of deliveries.
fn drain(mut net: impl Engine, plan: &[(SimTime, MessageSpec)]) -> usize {
    black_box(open_loop(&mut net, plan).0.len())
}

/// The tentpole comparison: the retired heap-driven stepper (kept verbatim
/// as `classic`) against the active-set engine on identical 8×8×8 mixed
/// traffic at the paper's 0.03 msgs/node/ms operating point, each driven
/// through the one open-loop driver. The reported ratio of the two means is
/// the rewrite's speedup.
fn bench_engine_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_compare");
    group.sample_size(wormcast_bench::SAMPLE_SIZE);
    let mesh = Mesh::cube(8);
    let plan = mixed_plan(&mesh, 0.03, 25.0);
    group.throughput(Throughput::Elements(plan.len() as u64));

    let cfg = NetworkConfig::paper_default();
    group.bench_function("mixed_8x8x8_0.03_classic_heap", |b| {
        b.iter(|| {
            let net = classic::Network::new(mesh.clone(), cfg, Box::new(DimensionOrdered));
            drain(net, &plan)
        })
    });
    group.bench_function("mixed_8x8x8_0.03_active_set", |b| {
        b.iter(|| {
            let net = Network::new(mesh.clone(), cfg, Box::new(DimensionOrdered));
            drain(net, &plan)
        })
    });
    group.finish();
}

/// The next event a hold-model pop schedules: a fixed delay after the
/// popped event, or an arrival at an absolute time.
#[derive(Clone, Copy)]
enum Next {
    After(SimDuration),
    At(SimTime),
}

/// A future-event list under the hold model.
trait Hold {
    fn put(&mut self, next: Next, event: u64);
    fn take(&mut self) -> (SimTime, u64);
}

impl Hold for EventQueue<u64> {
    fn put(&mut self, next: Next, event: u64) {
        let at = match next {
            Next::After(d) => self.now() + d,
            Next::At(at) => at,
        };
        self.schedule(at, event);
    }
    fn take(&mut self) -> (SimTime, u64) {
        self.pop().expect("population never drains")
    }
}

impl Hold for LaneQueue<u64> {
    fn put(&mut self, next: Next, event: u64) {
        match next {
            Next::After(d) => self.schedule_after(d, event),
            Next::At(at) => self.schedule_at(at, event),
        }
    }
    fn take(&mut self) -> (SimTime, u64) {
        self.pop().expect("population never drains")
    }
}

/// The engine's delay mix at the paper's constants: a hop (routing + β,
/// 6 ns) times one of `speeds` crossing-time factors half the time, a
/// 32-flit body drain (96 ns) for a delivery, completion or port release,
/// the start-up latency (1.5 µs), a zero-delay handoff, and one time in
/// twenty a Poisson arrival (mean gap 1 µs) at an absolute time.
fn engine_delay(rng: &mut SimRng, now: SimTime, speeds: u64) -> Next {
    let ns = |n: u64| SimDuration::from_ps(n * 1_000);
    match rng.index(20) {
        0..=9 => Next::After(ns(6).times(1 + rng.next_u64() % speeds)),
        10..=15 => Next::After(ns(96)),
        16 | 17 => Next::After(ns(1_500)),
        18 => Next::After(SimDuration::ZERO),
        _ => Next::At(now + SimDuration::from_us(-(1.0 - rng.unit()).ln())),
    }
}

/// 100k pops of a steady population of 512 pending events (one per node's
/// next event, roughly), each pop followed by one event from
/// [`engine_delay`].
fn hold_model(mut q: impl Hold, speeds: u64) -> u64 {
    let mut rng = SimRng::new(5);
    for i in 0..512 {
        q.put(engine_delay(&mut rng, SimTime::ZERO, speeds), i);
    }
    let mut acc = 0u64;
    for i in 0..100_000 {
        let (t, e) = q.take();
        acc += black_box(e) & 1;
        q.put(engine_delay(&mut rng, t, speeds), i);
    }
    acc
}

/// The scheduling primitive in isolation: the delay-lane queue the engine
/// runs against the binary-heap [`EventQueue`] under the hold model with
/// the engine's delay mix. The plain rows use full-speed hops (four fixed
/// delays, each in its lane). The `modulated` rows spread hop times over
/// twelve crossing-time factors, more distinct delays than the lane table
/// holds, so part of the load takes the lane queue's heap fallback.
fn bench_lanes_vs_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_primitive");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("heap_hold_512", |b| {
        b.iter(|| black_box(hold_model(EventQueue::new(), 1)))
    });
    group.bench_function("lanes_hold_512", |b| {
        b.iter(|| black_box(hold_model(LaneQueue::new(), 1)))
    });
    group.bench_function("heap_hold_512_modulated", |b| {
        b.iter(|| black_box(hold_model(EventQueue::new(), 12)))
    });
    group.bench_function("lanes_hold_512_modulated", |b| {
        b.iter(|| black_box(hold_model(LaneQueue::new(), 12)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_routing_functions,
    bench_message_throughput,
    bench_engine_compare,
    bench_lanes_vs_heap
);
criterion_main!(benches);
