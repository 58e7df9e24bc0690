//! Executing broadcast operations on the simulated network — the one place
//! the paper's relay rule runs.
//!
//! A [`BroadcastTracker`] turns a static schedule into the asynchronous
//! message flow a real wormhole machine would produce: the source's
//! messages are injected when the operation starts; every relay node's
//! messages are injected the moment its own copy finishes arriving.
//! Injection-port contention and start-up latency are charged by the network
//! engine itself. The one tracker type covers a full broadcast
//! ([`BroadcastTracker::new`]) and a destination subset
//! ([`BroadcastTracker::multicast`]) over any topology: the mesh
//! algorithms, the multicast schemes and the torus ring are all one
//! [`BroadcastSchedule`] type.
//!
//! A tracker holds only per-operation state: the arrivals so far (a bit per
//! node plus the arrival times in delivery order, so an operation in flight
//! pays for the nodes it reached, not for the mesh), counters and a handle
//! on a compiled plan, the schedule's messages grouped by sending node in
//! one flat array. A schedule depends only on (algorithm, mesh,
//! source), so the open-loop drivers take their trackers from a
//! [`PlanCache`]: operations from one source that are in flight together
//! share one plan, behind an [`Arc`], and the plan is freed with the last
//! of them. A released message copies its route from the plan: a run
//! path is a few bytes that share nothing, and a coded path is one
//! immutable record behind an [`Arc`], so sending it is a reference-count
//! bump, whoever else holds the plan.
//!
//! [`Ops`] is the one delivery loop: a table of live operations whose
//! [`Ops::step`] advances the engine by one event and feeds each delivery to
//! its own operation, injecting that operation's follow-ups at the delivery
//! time, in delivery order, with no engine step in between. [`drive`] is its
//! closed-loop form for a single operation, and [`run_to_idle`] runs a
//! prepared workload to the end. All three take any [`Engine`], so the
//! arena engine and the `classic` oracle run through the same loop.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::{Arc, Weak};
use wormcast_broadcast::{Algorithm, BroadcastSchedule, RoutePlan, ScheduledMessage};
use wormcast_network::{Delivery, Engine, MessageSpec, OpId, Route};
use wormcast_sim::SimTime;
use wormcast_topology::{Mesh, NodeId, Topology};

/// One message of a [`CompiledPlan`].
#[derive(Debug)]
struct PlannedSend {
    step: u32,
    route: Route,
    charge_startup: bool,
}

/// A broadcast schedule compiled for execution: its messages grouped by
/// sending node in one flat array, step order within a node. Shared,
/// behind an [`Arc`], by the operations in flight over the schedule.
#[derive(Debug)]
pub(crate) struct CompiledPlan {
    source: NodeId,
    sends: Vec<PlannedSend>,
    /// Node `n` sends `sends[offsets[n]..offsets[n + 1]]`.
    offsets: Vec<u32>,
}

/// The order of a plan's messages: by sending node, then by step. Sorted
/// stably, messages of one node and step keep their schedule order.
fn send_order(m: &ScheduledMessage) -> (NodeId, u32) {
    (m.plan.src(), m.step)
}

impl CompiledPlan {
    /// Compile `schedule` over `topo`, one route per planned message: its
    /// coded paths are shared, not copied, and its run paths copied.
    pub(crate) fn compile<T: Topology>(topo: &T, schedule: &BroadcastSchedule) -> Self {
        let msgs = &schedule.messages;
        let mut order: Vec<usize> = (0..msgs.len()).collect();
        order.sort_by_key(|&i| send_order(&msgs[i]));
        let mut offsets = vec![0u32; topo.num_nodes() + 1];
        let sends = order
            .into_iter()
            .map(|i| {
                let m = &msgs[i];
                offsets[m.plan.src().index() + 1] += 1;
                PlannedSend {
                    step: m.step,
                    route: match &m.plan {
                        RoutePlan::Coded(cp) => Route::Fixed(cp.clone()),
                        RoutePlan::Runs(rp) => Route::Runs(*rp),
                        &RoutePlan::Adaptive { dst, .. } => Route::Adaptive { dst },
                    },
                    charge_startup: m.charge_startup,
                }
            })
            .collect();
        for n in 1..offsets.len() {
            offsets[n] += offsets[n - 1];
        }
        CompiledPlan {
            source: schedule.source,
            sends,
            offsets,
        }
    }

    /// Nodes of the topology the plan was compiled over.
    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The messages `node` sends once it holds the payload.
    fn group(&self, node: NodeId) -> Range<usize> {
        self.offsets[node.index()] as usize..self.offsets[node.index() + 1] as usize
    }
}

/// The plans of one driver call's operations in flight, keyed by source:
/// a schedule depends only on (algorithm, mesh, source), and one call fixes
/// the algorithm and the mesh. Operations from one source that are in
/// flight together share one plan; the cache holds it weakly, so the plan
/// is freed with the last of them and the cache never keeps more plans
/// alive than there are live operations. A pure function of its key, so
/// sharing a plan cannot change what a run simulates.
#[derive(Debug)]
pub struct PlanCache<'m> {
    algorithm: Algorithm,
    mesh: &'m Mesh,
    plans: Vec<Weak<CompiledPlan>>,
}

impl<'m> PlanCache<'m> {
    /// An empty cache for `algorithm` on `mesh`.
    pub fn new(algorithm: Algorithm, mesh: &'m Mesh) -> Self {
        PlanCache {
            algorithm,
            mesh,
            plans: (0..mesh.num_nodes()).map(|_| Weak::new()).collect(),
        }
    }

    /// A full broadcast from `source` under operation id `op` with
    /// `length`-flit messages, over the plan of `source`'s operations in
    /// flight, or a plan compiled afresh if none is.
    pub fn tracker(&mut self, source: NodeId, op: OpId, length: u64) -> BroadcastTracker {
        let slot = &mut self.plans[source.index()];
        let plan = slot.upgrade().unwrap_or_else(|| {
            let schedule = self.algorithm.schedule(self.mesh, source);
            let plan = Arc::new(CompiledPlan::compile(self.mesh, &schedule));
            *slot = Arc::downgrade(&plan);
            plan
        });
        BroadcastTracker::over(plan, op, length)
    }
}

/// A set of nodes, one bit per node.
type NodeBits = Vec<u64>;

/// The empty set over `nodes` nodes.
fn node_bits(nodes: usize) -> NodeBits {
    vec![0; nodes.div_ceil(64)]
}

/// The word of a [`NodeBits`] that holds `node`, and its bit there.
fn bit_of(node: usize) -> (usize, u64) {
    (node / 64, 1 << (node % 64))
}

/// Tracks one in-flight broadcast operation.
#[derive(Debug)]
pub struct BroadcastTracker {
    op: OpId,
    length: u64,
    plan: Arc<CompiledPlan>,
    /// The nodes the payload reached so far.
    reached: NodeBits,
    /// Each arrival so far, in delivery order: the node, and when.
    arrived: Vec<NodeId>,
    arrived_at: Vec<SimTime>,
    /// The destinations whose arrival completes a subset operation
    /// (multicast); `None` means every node but the source.
    wanted: Option<NodeBits>,
    received: usize,
    expected: usize,
    started_at: Option<SimTime>,
}

impl BroadcastTracker {
    /// Prepare the execution of `schedule` over `topo` under operation id
    /// `op` with `length`-flit messages; complete once every other node
    /// received.
    pub fn new<T: Topology>(topo: &T, schedule: &BroadcastSchedule, op: OpId, length: u64) -> Self {
        Self::over(Arc::new(CompiledPlan::compile(topo, schedule)), op, length)
    }

    /// [`BroadcastTracker::new`] over an already compiled, possibly shared,
    /// plan.
    pub(crate) fn over(plan: Arc<CompiledPlan>, op: OpId, length: u64) -> Self {
        let nodes = plan.num_nodes();
        BroadcastTracker {
            op,
            length,
            plan,
            reached: node_bits(nodes),
            arrived: Vec::new(),
            arrived_at: Vec::new(),
            wanted: None,
            received: 0,
            expected: nodes - 1,
            started_at: None,
        }
    }

    /// [`BroadcastTracker::new`] for a destination subset: the operation
    /// completes once every node of `dests` (the source excepted) received,
    /// whatever backbone copies are still in flight.
    pub fn multicast<T: Topology>(
        topo: &T,
        schedule: &BroadcastSchedule,
        dests: &[NodeId],
        op: OpId,
        length: u64,
    ) -> Self {
        let mut tracker = Self::new(topo, schedule, op, length);
        let mut wanted = node_bits(topo.num_nodes());
        for d in dests.iter().filter(|&&d| d != schedule.source) {
            let (w, bit) = bit_of(d.index());
            wanted[w] |= bit;
        }
        tracker.expected = wanted.iter().map(|w| w.count_ones() as usize).sum();
        tracker.wanted = Some(wanted);
        tracker
    }

    /// The operation id this tracker answers to.
    pub fn op(&self) -> OpId {
        self.op
    }

    /// Whether `node`'s arrival counts toward completion.
    fn wants(&self, node: usize) -> bool {
        let (w, bit) = bit_of(node);
        self.wanted.as_ref().is_none_or(|m| m[w] & bit != 0)
    }

    /// Word `w` of the set of arrivals that count toward completion.
    fn counted(&self, w: usize) -> u64 {
        self.reached[w] & self.wanted.as_ref().map_or(!0, |m| m[w])
    }

    /// The counted arrivals in delivery order, as latencies (µs) from `t0`.
    fn counted_latencies(&self, t0: SimTime) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.arrived
            .iter()
            .zip(&self.arrived_at)
            .filter(|(node, _)| self.wants(node.index()))
            .map(move |(&node, t)| (node, t.since(t0).as_us()))
    }

    /// Begin the operation at `now`: returns the source's message specs,
    /// ready for injection at `now`.
    ///
    /// # Panics
    /// Panics if called twice.
    pub fn start(&mut self, now: SimTime) -> Vec<MessageSpec> {
        let source = self.begin(now);
        self.sends(source).collect()
    }

    /// [`BroadcastTracker::start`] without the specs: the node whose
    /// messages go out now, the source.
    fn begin(&mut self, now: SimTime) -> NodeId {
        assert!(self.started_at.is_none(), "broadcast already started");
        self.started_at = Some(now);
        self.plan.source
    }

    /// Feed one network delivery. If it belongs to this operation, the
    /// arrival is recorded and any messages the receiving node is scheduled
    /// to relay are returned for immediate injection. Deliveries for other
    /// operations, and a copy that reaches the operation's own source,
    /// return an empty vec.
    ///
    /// # Panics
    /// Panics on duplicate delivery to one node — valid schedules deliver
    /// exactly once.
    pub fn on_delivery(&mut self, d: &Delivery) -> Vec<MessageSpec> {
        match self.record(d) {
            Some(node) => self.sends(node).collect(),
            None => Vec::new(),
        }
    }

    /// [`BroadcastTracker::on_delivery`] without the specs: the node whose
    /// messages the delivery releases, if any.
    fn record(&mut self, d: &Delivery) -> Option<NodeId> {
        if d.op != self.op {
            return None;
        }
        let (w, bit) = bit_of(d.node.index());
        assert!(
            self.reached[w] & bit == 0,
            "node {} received the broadcast twice",
            d.node
        );
        self.reached[w] |= bit;
        self.arrived.push(d.node);
        self.arrived_at.push(d.delivered_at);
        if self.wants(d.node.index()) {
            self.received += 1;
        }
        // Each node's messages are released once: the source's by `start`,
        // every other node's on its one delivery.
        (d.node != self.plan.source).then_some(d.node)
    }

    /// The specs of the messages `node` sends, each sharing its route with
    /// the plan.
    fn sends(&self, node: NodeId) -> impl Iterator<Item = MessageSpec> + '_ {
        let (op, length) = (self.op, self.length);
        self.plan.sends[self.plan.group(node)]
            .iter()
            .map(move |s| MessageSpec {
                src: node,
                route: s.route.clone(),
                length,
                op,
                tag: s.step,
                charge_startup: s.charge_startup,
            })
    }

    /// Whether every destination has received the payload.
    pub fn is_complete(&self) -> bool {
        self.received == self.expected
    }

    /// Destinations that have received the payload so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Destinations the operation is supposed to reach.
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Fraction of destinations reached so far — the reliability metric of
    /// a faulted run (1.0 once complete).
    pub fn delivery_ratio(&self) -> f64 {
        self.received as f64 / self.expected as f64
    }

    /// Arrival latencies (µs) of the destinations reached so far, in node
    /// order — the non-panicking form of [`BroadcastTracker::latencies_us`]
    /// for runs degraded by faults. Empty if the operation never started.
    pub fn delivered_latencies_us(&self) -> Vec<f64> {
        let Some(t0) = self.started_at else {
            return Vec::new();
        };
        // A counted arrival's place in node order is its rank among the
        // counted bits: those of the words below its own, plus those below
        // it in its word.
        let mut below = Vec::with_capacity(self.reached.len());
        let mut rank = 0;
        for w in 0..self.reached.len() {
            below.push(rank);
            rank += self.counted(w).count_ones() as usize;
        }
        debug_assert_eq!(rank, self.received);
        let mut out = vec![0.0; rank];
        for (node, us) in self.counted_latencies(t0) {
            let (w, bit) = bit_of(node.index());
            out[below[w] + (self.counted(w) & (bit - 1)).count_ones() as usize] = us;
        }
        out
    }

    /// When the operation started.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Per-destination arrival latencies (µs) in node order, defined once
    /// complete.
    ///
    /// # Panics
    /// Panics if the operation has not completed.
    pub fn latencies_us(&self) -> Vec<f64> {
        assert!(self.is_complete(), "broadcast still in flight");
        self.delivered_latencies_us()
    }

    /// The network-level broadcast latency: time from start until the last
    /// destination finished receiving.
    ///
    /// # Panics
    /// Panics if the operation has not completed.
    pub fn network_latency_us(&self) -> f64 {
        assert!(self.is_complete(), "broadcast still in flight");
        self.started_at.map_or(0.0, |t0| {
            self.counted_latencies(t0)
                .map(|(_, us)| us)
                .fold(0.0, f64::max)
        })
    }
}

/// What one delivery meant to the live operations of an [`Ops`] table.
#[derive(Debug)]
pub enum Fed {
    /// No live operation owns the delivery: a unicast, or a late backbone
    /// copy of a subset operation that already completed.
    Unowned,
    /// The delivery advanced a live operation that is still in flight.
    Advanced,
    /// The delivery completed its operation, which leaves the table.
    Completed(BroadcastTracker),
}

/// Hashes an [`OpId`] with one multiplication by an odd constant. Ids are
/// dense counters, so the product's low bits (the bucket) are a permutation
/// of the id's own, and its high bits (the tag byte) are well mixed; no
/// caller chooses the ids, so there is nothing for SipHash to defend.
#[derive(Debug, Default)]
struct OpIdHasher(u64);

impl Hasher for OpIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 << 8 | u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The live-operation table: the one loop that executes broadcast
/// operations, open loop (many overlapping operations plus unicast
/// background) or closed loop ([`drive`]).
#[derive(Debug, Default)]
pub struct Ops {
    /// Never iterated, so the hasher cannot move any output.
    live: HashMap<OpId, BroadcastTracker, BuildHasherDefault<OpIdHasher>>,
    /// Reused delivery buffer: drained into, never reallocated per step.
    deliveries: Vec<Delivery>,
}

impl Ops {
    /// Start `tracker` at `at`: inject the source's messages and keep the
    /// operation live until its last destination receives.
    ///
    /// # Panics
    /// Panics if an operation with the same id is already live.
    pub fn launch(&mut self, net: &mut impl Engine, at: SimTime, mut tracker: BroadcastTracker) {
        let source = tracker.begin(at);
        for spec in tracker.sends(source) {
            net.inject_at(at, spec);
        }
        let op = tracker.op();
        let clash = self.live.insert(op, tracker);
        assert!(clash.is_none(), "operation {op:?} launched twice");
    }

    /// Process one engine event. Every delivery it produced goes, in order,
    /// to its own live operation — whose follow-ups are injected at the
    /// delivery time before the next delivery is looked at — and then to
    /// `on`, together with what it meant ([`Fed`]). Returns false, having
    /// done nothing, when the engine is idle.
    pub fn step(&mut self, net: &mut impl Engine, mut on: impl FnMut(&Delivery, Fed)) -> bool {
        if !net.step() {
            return false;
        }
        self.deliveries.clear();
        net.drain_deliveries_into(&mut self.deliveries);
        for d in &self.deliveries {
            let fed = match self.live.get_mut(&d.op) {
                None => Fed::Unowned,
                Some(tracker) => {
                    if let Some(node) = tracker.record(d) {
                        for spec in tracker.sends(node) {
                            net.inject_at(d.delivered_at, spec);
                        }
                    }
                    if tracker.is_complete() {
                        Fed::Completed(self.live.remove(&d.op).expect("live operation"))
                    } else {
                        Fed::Advanced
                    }
                }
            };
            on(d, fed);
        }
        true
    }

    /// Operations still in flight.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no operation is in flight.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// Execute one operation closed loop: start it at the network's current
/// time and step until it completes or the network idles (a stalled or
/// faulted run), then hand the tracker back.
pub fn drive(net: &mut impl Engine, tracker: BroadcastTracker) -> BroadcastTracker {
    let op = tracker.op();
    let at = net.now();
    let mut ops = Ops::default();
    ops.launch(net, at, tracker);
    let mut finished = None;
    while finished.is_none()
        && ops.step(net, |_, fed| {
            if let Fed::Completed(t) = fed {
                finished = Some(t);
            }
        })
    {}
    finished
        .or_else(|| ops.live.remove(&op))
        .expect("an operation is live until it completes")
}

/// Run a prepared workload on `net` until it idles: every message of
/// `injections` is injected at its time first, then every tracker is
/// launched at time zero, then [`Ops::step`] runs to the end. Returns
/// every delivery in order and the operations that never completed.
pub fn run_to_idle(
    net: &mut impl Engine,
    injections: &[(SimTime, MessageSpec)],
    trackers: impl IntoIterator<Item = BroadcastTracker>,
) -> (Vec<Delivery>, usize) {
    for (at, spec) in injections {
        net.inject_at(*at, spec.clone());
    }
    let mut ops = Ops::default();
    for t in trackers {
        ops.launch(net, SimTime::ZERO, t);
    }
    let mut deliveries = Vec::new();
    while ops.step(net, |d, _| deliveries.push(*d)) {}
    (deliveries, ops.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_broadcast::Algorithm;
    use wormcast_network::{Network, NetworkConfig};
    use wormcast_routing::DimensionOrdered;
    use wormcast_topology::Mesh;

    #[test]
    fn multicast_completes_on_the_wanted_subset() {
        let mesh = Mesh::cube(4);
        let src = NodeId(0);
        let dests = [NodeId(21), NodeId(42), NodeId(63), src];
        let schedule = wormcast_broadcast::cpr_multicast(&mesh, src, &dests);
        let tracker = BroadcastTracker::multicast(&mesh, &schedule, &dests, OpId(0), 16);
        assert_eq!(tracker.expected(), 3, "the source is never a destination");
        let mut net = Network::new(
            mesh.clone(),
            NetworkConfig::paper_default(),
            Box::new(DimensionOrdered),
        );
        let t = drive(&mut net, tracker);
        assert!(t.is_complete());
        assert_eq!(t.latencies_us().len(), 3);
    }

    #[test]
    fn step_hands_over_finished_operations_and_unicasts() {
        let mesh = Mesh::cube(4);
        let mut net = Network::new(
            mesh.clone(),
            NetworkConfig::paper_default(),
            Box::new(DimensionOrdered),
        );
        let mut ops = Ops::default();
        for (op, src) in [(0u64, 0u32), (1, 63)] {
            let schedule = Algorithm::Db.schedule(&mesh, NodeId(src));
            let t = BroadcastTracker::new(&mesh, &schedule, OpId(op), 8);
            ops.launch(&mut net, SimTime::ZERO, t);
        }
        let path = wormcast_routing::dor_path(&mesh, NodeId(1), NodeId(2));
        net.inject_at(
            SimTime::ZERO,
            MessageSpec {
                src: NodeId(1),
                route: Route::Fixed(wormcast_routing::CodedPath::unicast(&mesh, path)),
                length: 8,
                op: OpId(7),
                tag: 0,
                charge_startup: true,
            },
        );
        let (mut done, mut unowned, mut advanced) = (Vec::new(), 0, 0);
        while ops.step(&mut net, |d, fed| match fed {
            Fed::Completed(t) => done.push((t.op(), d.op)),
            Fed::Advanced => advanced += 1,
            Fed::Unowned => unowned += 1,
        }) {}
        done.sort_by_key(|(op, _)| op.0);
        assert_eq!(done, [(OpId(0), OpId(0)), (OpId(1), OpId(1))]);
        assert_eq!(unowned, 1, "the unicast reaches `on` alone");
        assert_eq!(advanced, 2 * 62);
        assert!(ops.is_empty());
    }

    /// A hand-built delivery of one of `op`'s copies to `node`.
    fn delivery(op: OpId, node: NodeId, src: NodeId) -> Delivery {
        Delivery {
            message: wormcast_network::MessageId(0),
            op,
            tag: 1,
            node,
            src,
            requested_at: SimTime::ZERO,
            delivered_at: SimTime::from_us(1.0),
        }
    }

    /// Start `tracker` and feed it a delivery for every receiver of every
    /// spec it releases, breadth first; the released specs, in order.
    fn release_all(mesh: &Mesh, mut tracker: BroadcastTracker) -> Vec<String> {
        let mut queue = std::collections::VecDeque::from(tracker.start(SimTime::ZERO));
        let mut released = Vec::new();
        while let Some(spec) = queue.pop_front() {
            for node in spec.route.receivers(mesh) {
                queue.extend(tracker.on_delivery(&delivery(tracker.op(), node, spec.src)));
            }
            released.push(format!("{spec:?}"));
        }
        assert!(tracker.is_complete());
        released
    }

    #[test]
    fn shared_plan_releases_what_a_fresh_tracker_does() {
        let mesh = Mesh::cube(4);
        for alg in Algorithm::ALL {
            let mut plans = PlanCache::new(alg, &mesh);
            for src in 0..mesh.num_nodes() as u32 {
                let schedule = alg.schedule(&mesh, NodeId(src));
                let fresh = BroadcastTracker::new(&mesh, &schedule, OpId(3), 16);
                // Two operations in flight from one source share a plan.
                let shared = plans.tracker(NodeId(src), OpId(3), 16);
                let sibling = plans.tracker(NodeId(src), OpId(4), 16);
                assert!(Arc::ptr_eq(&shared.plan, &sibling.plan));
                let want = release_all(&mesh, fresh);
                assert_eq!(want.len(), schedule.num_messages(), "{alg} from {src}");
                assert_eq!(release_all(&mesh, shared), want, "{alg} from {src}");
                assert_eq!(release_all(&mesh, sibling).len(), want.len());
            }
        }
    }

    #[test]
    fn operations_over_one_cached_plan_release_one_route() {
        let mesh = Mesh::cube(4);
        let mut plans = PlanCache::new(Algorithm::Db, &mesh);
        let src = NodeId(21);
        let mut a = plans.tracker(src, OpId(0), 16);
        let mut b = plans.tracker(src, OpId(1), 16);
        let (sa, sb) = (a.start(SimTime::ZERO), b.start(SimTime::ZERO));
        assert_eq!(sa.len(), 2, "both corner legs of an interior source");
        let plan = &a.plan.sends[a.plan.group(src)];
        for ((x, y), planned) in sa.iter().zip(&sb).zip(plan) {
            let (Route::Runs(x), Route::Runs(y), Route::Runs(p)) =
                (&x.route, &y.route, &planned.route)
            else {
                panic!("DB's corner legs are run paths");
            };
            assert!(x == p && y == p, "each a copy of the plan's route");
        }
    }

    #[test]
    fn operations_sharing_a_plan_match_independent_ones() {
        let mesh = Mesh::cube(4);
        let latencies = |shared: bool| {
            let mut net = Network::new(
                mesh.clone(),
                NetworkConfig::paper_default(),
                Box::new(DimensionOrdered),
            );
            let schedule = Algorithm::Db.schedule(&mesh, NodeId(21));
            let plan = Arc::new(CompiledPlan::compile(&mesh, &schedule));
            let mut ops = Ops::default();
            for op in 0..2 {
                let tracker = if shared {
                    BroadcastTracker::over(Arc::clone(&plan), OpId(op), 16)
                } else {
                    BroadcastTracker::new(&mesh, &schedule, OpId(op), 16)
                };
                ops.launch(&mut net, SimTime::from_us(op as f64 * 0.5), tracker);
            }
            let mut done = Vec::new();
            while ops.step(&mut net, |_, fed| {
                if let Fed::Completed(t) = fed {
                    done.push((t.op(), t.latencies_us()));
                }
            }) {}
            done.sort_by_key(|(op, _)| op.0);
            done
        };
        let shared = latencies(true);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared, latencies(false));
    }

    #[test]
    fn a_plan_lives_as_long_as_its_operations() {
        let mesh = Mesh::cube(4);
        let mut plans = PlanCache::new(Algorithm::Db, &mesh);
        let a = plans.tracker(NodeId(3), OpId(0), 16);
        let b = plans.tracker(NodeId(3), OpId(1), 16);
        let c = plans.tracker(NodeId(4), OpId(2), 16);
        assert!(Arc::ptr_eq(&a.plan, &b.plan), "one source, one plan");
        assert!(!Arc::ptr_eq(&a.plan, &c.plan));
        drop(a);
        assert!(plans.plans[3].upgrade().is_some(), "b still runs over it");
        drop(b);
        assert!(plans.plans[3].upgrade().is_none(), "freed with b");
        let schedule = Algorithm::Db.schedule(&mesh, NodeId(3));
        let fresh = BroadcastTracker::new(&mesh, &schedule, OpId(3), 16);
        let recompiled = plans.tracker(NodeId(3), OpId(3), 16);
        assert_eq!(release_all(&mesh, recompiled), release_all(&mesh, fresh));
    }

    #[test]
    fn a_copy_at_the_source_releases_nothing() {
        let mesh = Mesh::cube(4);
        let src = NodeId(5);
        let schedule = Algorithm::Db.schedule(&mesh, src);
        let mut tracker = BroadcastTracker::new(&mesh, &schedule, OpId(0), 16);
        assert!(!tracker.start(SimTime::ZERO).is_empty());
        let follow = tracker.on_delivery(&delivery(OpId(0), src, NodeId(0)));
        assert!(follow.is_empty(), "the source's messages left at start");
    }

    /// When the copy to `node` lands in the out-of-order tests: a distinct
    /// time per node.
    fn landing(node: NodeId) -> SimTime {
        SimTime::from_us(1.0 + node.0 as f64 * 0.01)
    }

    /// Feed `tracker` a copy for each of `nodes`, in that order, each
    /// landing at its [`landing`] time.
    fn feed(tracker: &mut BroadcastTracker, nodes: &[NodeId]) {
        for &node in nodes {
            let d = Delivery {
                delivered_at: landing(node),
                ..delivery(tracker.op(), node, NodeId(0))
            };
            tracker.on_delivery(&d);
        }
    }

    /// The latencies `nodes` must report, in node order.
    fn in_node_order(nodes: &[NodeId]) -> Vec<f64> {
        let mut sorted = nodes.to_vec();
        sorted.sort();
        sorted
            .iter()
            .map(|&n| landing(n).since(SimTime::ZERO).as_us())
            .collect()
    }

    /// Every node of a 216-node mesh (four words of the reached set) but
    /// `skip`, in a scrambled order.
    fn scrambled(skip: NodeId) -> Vec<NodeId> {
        (0..216u32)
            .map(|i| NodeId(i * 97 % 216))
            .rev()
            .filter(|&n| n != skip)
            .collect()
    }

    #[test]
    fn latencies_keep_node_order_under_out_of_order_deliveries() {
        let mesh = Mesh::cube(6);
        let src = NodeId(70);
        let schedule = Algorithm::Db.schedule(&mesh, src);
        let mut tracker = BroadcastTracker::new(&mesh, &schedule, OpId(0), 16);
        tracker.start(SimTime::ZERO);
        let order = scrambled(src);
        feed(&mut tracker, &order);
        assert!(tracker.is_complete());
        let want = in_node_order(&order);
        assert_eq!(tracker.latencies_us(), want);
        assert_eq!(tracker.delivered_latencies_us(), want);
        assert_eq!(
            tracker.network_latency_us(),
            want.iter().copied().fold(0.0, f64::max)
        );
    }

    #[test]
    fn multicast_latencies_keep_the_wanted_subset_in_node_order() {
        let mesh = Mesh::cube(6);
        let src = NodeId(70);
        let dests = [NodeId(200), NodeId(5), src, NodeId(64), NodeId(63)];
        let schedule = wormcast_broadcast::cpr_multicast(&mesh, src, &dests);
        let mut tracker = BroadcastTracker::multicast(&mesh, &schedule, &dests, OpId(0), 16);
        tracker.start(SimTime::ZERO);
        // Backbone copies reach every other node too, interleaved with the
        // wanted ones; only the wanted arrivals count.
        feed(&mut tracker, &scrambled(src));
        assert!(tracker.is_complete());
        let want = in_node_order(&[NodeId(200), NodeId(5), NodeId(64), NodeId(63)]);
        assert_eq!(tracker.latencies_us(), want);
        assert_eq!(tracker.delivered_latencies_us(), want);
    }

    #[test]
    fn a_partially_delivered_operation_reports_what_arrived_in_node_order() {
        let mesh = Mesh::cube(6);
        let src = NodeId(70);
        let schedule = Algorithm::Db.schedule(&mesh, src);
        let mut tracker = BroadcastTracker::new(&mesh, &schedule, OpId(0), 16);
        tracker.start(SimTime::ZERO);
        let reached: Vec<NodeId> = scrambled(src).into_iter().step_by(3).collect();
        feed(&mut tracker, &reached);
        assert!(!tracker.is_complete(), "a faulted run lost destinations");
        assert_eq!(tracker.received(), reached.len());
        assert_eq!(tracker.delivered_latencies_us(), in_node_order(&reached));

        let dests: Vec<NodeId> = (0..216).step_by(5).map(NodeId).collect();
        let schedule = wormcast_broadcast::cpr_multicast(&mesh, src, &dests);
        let mut tracker = BroadcastTracker::multicast(&mesh, &schedule, &dests, OpId(0), 16);
        tracker.start(SimTime::ZERO);
        feed(&mut tracker, &reached);
        let wanted: Vec<NodeId> = reached.iter().copied().filter(|n| n.0 % 5 == 0).collect();
        assert!(!wanted.is_empty() && !tracker.is_complete());
        assert_eq!(tracker.delivered_latencies_us(), in_node_order(&wanted));
    }

    #[test]
    #[should_panic(expected = "received the broadcast twice")]
    fn a_duplicate_delivery_panics() {
        let mesh = Mesh::cube(6);
        let schedule = Algorithm::Db.schedule(&mesh, NodeId(70));
        let mut tracker = BroadcastTracker::new(&mesh, &schedule, OpId(0), 16);
        tracker.start(SimTime::ZERO);
        feed(&mut tracker, &[NodeId(130), NodeId(3), NodeId(130)]);
    }
}
