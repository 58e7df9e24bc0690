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
//! [`Ops`] is the one delivery loop: a table of live operations whose
//! [`Ops::step`] advances the engine by one event and feeds each delivery to
//! its own operation, injecting that operation's follow-ups at the delivery
//! time, in delivery order, with no engine step in between. [`drive`] is its
//! closed-loop form for a single operation.

use std::collections::HashMap;
use wormcast_broadcast::{BroadcastSchedule, RoutePlan};
use wormcast_network::{Delivery, MessageSpec, Network, OpId, Route};
use wormcast_routing::SimTopology;
use wormcast_sim::SimTime;
use wormcast_topology::{NodeId, Topology};

/// Tracks one in-flight broadcast operation.
#[derive(Debug)]
pub struct BroadcastTracker {
    op: OpId,
    source: NodeId,
    length: u64,
    /// Message specs not yet released, grouped by sending node and ordered
    /// by step within each group.
    pending: HashMap<NodeId, Vec<(u32, Route, bool)>>,
    /// Arrival time of the payload at each node (None = not yet).
    arrivals: Vec<Option<SimTime>>,
    /// The destinations whose arrival completes a subset operation
    /// (multicast); `None` means every node but the source.
    wanted: Option<Vec<bool>>,
    received: usize,
    expected: usize,
    started_at: Option<SimTime>,
}

impl BroadcastTracker {
    /// Prepare the execution of `schedule` over `topo` under operation id
    /// `op` with `length`-flit messages; complete once every other node
    /// received.
    pub fn new<T: Topology>(topo: &T, schedule: &BroadcastSchedule, op: OpId, length: u64) -> Self {
        let mut pending: HashMap<NodeId, Vec<(u32, Route, bool)>> = HashMap::new();
        for m in &schedule.messages {
            let (src, route) = match &m.plan {
                RoutePlan::Coded(cp) => (cp.src(), Route::Fixed(cp.clone())),
                RoutePlan::Adaptive { src, dst } => (*src, Route::Adaptive { dst: *dst }),
            };
            pending
                .entry(src)
                .or_default()
                .push((m.step, route, m.charge_startup));
        }
        for routes in pending.values_mut() {
            routes.sort_by_key(|(step, _, _)| *step);
        }
        let nodes = topo.num_nodes();
        BroadcastTracker {
            op,
            source: schedule.source,
            length,
            pending,
            arrivals: vec![None; nodes],
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
        let mut wanted = vec![false; topo.num_nodes()];
        for d in dests.iter().filter(|&&d| d != schedule.source) {
            wanted[d.index()] = true;
        }
        tracker.expected = wanted.iter().filter(|&&w| w).count();
        tracker.wanted = Some(wanted);
        tracker
    }

    /// The operation id this tracker answers to.
    pub fn op(&self) -> OpId {
        self.op
    }

    /// Whether `node`'s arrival counts toward completion.
    fn wants(&self, node: usize) -> bool {
        self.wanted.as_ref().is_none_or(|w| w[node])
    }

    /// Begin the operation at `now`: returns the source's message specs,
    /// ready for injection at `now`.
    ///
    /// # Panics
    /// Panics if called twice.
    pub fn start(&mut self, now: SimTime) -> Vec<MessageSpec> {
        assert!(self.started_at.is_none(), "broadcast already started");
        self.started_at = Some(now);
        self.release(self.source)
    }

    /// Feed one network delivery. If it belongs to this operation, the
    /// arrival is recorded and any messages the receiving node is scheduled
    /// to relay are returned for immediate injection. Deliveries for other
    /// operations return an empty vec.
    ///
    /// # Panics
    /// Panics on duplicate delivery to one node — valid schedules deliver
    /// exactly once.
    pub fn on_delivery(&mut self, d: &Delivery) -> Vec<MessageSpec> {
        if d.op != self.op {
            return Vec::new();
        }
        let slot = &mut self.arrivals[d.node.index()];
        assert!(
            slot.is_none(),
            "node {} received the broadcast twice",
            d.node
        );
        *slot = Some(d.delivered_at);
        if self.wants(d.node.index()) {
            self.received += 1;
        }
        self.release(d.node)
    }

    fn release(&mut self, node: NodeId) -> Vec<MessageSpec> {
        let Some(routes) = self.pending.remove(&node) else {
            return Vec::new();
        };
        routes
            .into_iter()
            .map(|(step, route, charge_startup)| MessageSpec {
                src: node,
                route,
                length: self.length,
                op: self.op,
                tag: step,
                charge_startup,
            })
            .collect()
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
        self.arrivals
            .iter()
            .enumerate()
            .filter(|&(node, _)| self.wants(node))
            .filter_map(|(_, t)| t.map(|t| t.since(t0).as_us()))
            .collect()
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
        self.latencies_us().into_iter().fold(0.0, f64::max)
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

/// The live-operation table: the one loop that executes broadcast
/// operations, open loop (many overlapping operations plus unicast
/// background) or closed loop ([`drive`]).
#[derive(Debug, Default)]
pub struct Ops {
    live: HashMap<OpId, BroadcastTracker>,
    /// Reused delivery buffer: drained into, never reallocated per step.
    deliveries: Vec<Delivery>,
}

impl Ops {
    /// Start `tracker` at `at`: inject the source's messages and keep the
    /// operation live until its last destination receives.
    ///
    /// # Panics
    /// Panics if an operation with the same id is already live.
    pub fn launch<T: SimTopology>(
        &mut self,
        net: &mut Network<T>,
        at: SimTime,
        mut tracker: BroadcastTracker,
    ) {
        for spec in tracker.start(at) {
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
    pub fn step<T: SimTopology>(
        &mut self,
        net: &mut Network<T>,
        mut on: impl FnMut(&Delivery, Fed),
    ) -> bool {
        if !net.step() {
            return false;
        }
        self.deliveries.clear();
        net.drain_deliveries_into(&mut self.deliveries);
        for d in &self.deliveries {
            let fed = match self.live.get_mut(&d.op) {
                None => Fed::Unowned,
                Some(tracker) => {
                    for spec in tracker.on_delivery(d) {
                        net.inject_at(d.delivered_at, spec);
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
pub fn drive<T: SimTopology>(net: &mut Network<T>, tracker: BroadcastTracker) -> BroadcastTracker {
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

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_broadcast::Algorithm;
    use wormcast_network::NetworkConfig;
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
}
