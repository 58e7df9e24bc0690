//! One face for both engines: [`Engine`] holds what the shared driving
//! loops call, implemented by the arena [`Network`] and, by delegation here,
//! by the frozen `classic` oracle. [`open_loop`] drives a plan of single
//! messages; [`RunRecord`] is what a run can be observed to do, and
//! [`RunRecord::first_divergence`] says where two runs part. The engines
//! keep these methods inherent, so callers need not import the trait.

use wormcast_routing::SimTopology;
use wormcast_sim::SimTime;

use crate::{classic, Counters, Delivery, Event, MessageId, MessageSpec, Network, Trace};

/// The engine operations the shared driving loops call.
pub trait Engine {
    /// Request injection of `spec` at absolute time `at` (≥ now).
    fn inject_at(&mut self, at: SimTime, spec: MessageSpec) -> MessageId;
    /// Process a single event. Returns false when no events remain.
    fn step(&mut self) -> bool;
    /// Append all deliveries recorded so far to `out`.
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>);
    /// Timestamp of the next pending event, if any.
    fn next_event_time(&mut self) -> Option<SimTime>;
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// Messages injected but not yet completed (or reaped as stalled).
    fn in_flight(&self) -> u64;
    /// Start recording a bounded execution trace.
    fn enable_trace(&mut self, capacity: usize);
    /// The recorded trace.
    fn trace(&self) -> &Trace;
    /// Aggregate counters.
    fn counters(&self) -> Counters;
}

impl<T: SimTopology> Engine for Network<T> {
    fn inject_at(&mut self, at: SimTime, spec: MessageSpec) -> MessageId {
        Network::inject_at(self, at, spec)
    }
    fn step(&mut self) -> bool {
        Network::step(self)
    }
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        Network::drain_deliveries_into(self, out);
    }
    fn next_event_time(&mut self) -> Option<SimTime> {
        Network::next_event_time(self)
    }
    fn now(&self) -> SimTime {
        Network::now(self)
    }
    fn in_flight(&self) -> u64 {
        Network::in_flight(self)
    }
    fn enable_trace(&mut self, capacity: usize) {
        Network::enable_trace(self, capacity);
    }
    fn trace(&self) -> &Trace {
        Network::trace(self)
    }
    fn counters(&self) -> Counters {
        Network::counters(self)
    }
}

impl<T: SimTopology> Engine for classic::Network<T> {
    fn inject_at(&mut self, at: SimTime, spec: MessageSpec) -> MessageId {
        classic::Network::inject_at(self, at, spec)
    }
    fn step(&mut self) -> bool {
        classic::Network::step(self)
    }
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        classic::Network::drain_deliveries_into(self, out);
    }
    fn next_event_time(&mut self) -> Option<SimTime> {
        classic::Network::next_event_time(self)
    }
    fn now(&self) -> SimTime {
        classic::Network::now(self)
    }
    fn in_flight(&self) -> u64 {
        classic::Network::in_flight(self)
    }
    fn enable_trace(&mut self, capacity: usize) {
        classic::Network::enable_trace(self, capacity);
    }
    fn trace(&self) -> &Trace {
        classic::Network::trace(self)
    }
    fn counters(&self) -> Counters {
        classic::Network::counters(self)
    }
}

/// Run `plan` (sorted by time) on `net` open loop: each message is injected
/// just before the clock would pass its time, so only the messages in
/// flight are alive at once, and then the engine runs to idle. Returns every
/// delivery in order and the most messages in flight at once.
pub fn open_loop(net: &mut impl Engine, plan: &[(SimTime, MessageSpec)]) -> (Vec<Delivery>, u64) {
    let (mut next, mut peak) = (0, 0);
    loop {
        let due = plan
            .get(next)
            .filter(|(at, _)| net.next_event_time().is_none_or(|t| *at <= t));
        if let Some((at, spec)) = due {
            net.inject_at(*at, spec.clone());
            peak = peak.max(net.in_flight());
            next += 1;
        } else if !net.step() {
            break;
        }
    }
    let mut deliveries = Vec::new();
    net.drain_deliveries_into(&mut deliveries);
    (deliveries, peak)
}

/// Everything an engine run can be observed to do: the full event trace,
/// the delivery sequence (order included), the aggregate counters, the
/// final clock and the messages left in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The trace records, oldest first.
    pub trace: Vec<Event>,
    /// Every delivery, in order.
    pub deliveries: Vec<Delivery>,
    /// The aggregate counters.
    pub counters: Counters,
    /// The clock when the run ended.
    pub final_now: SimTime,
    /// Messages injected but never completed (or reaped).
    pub in_flight: u64,
}

impl RunRecord {
    /// The record of `net`'s run so far, whose deliveries were `deliveries`.
    pub fn of(net: &impl Engine, deliveries: Vec<Delivery>) -> Self {
        RunRecord {
            trace: net.trace().records().copied().collect(),
            deliveries,
            counters: net.counters(),
            final_now: net.now(),
            in_flight: net.in_flight(),
        }
    }

    /// The record with its final clock zeroed, for comparing a run under a
    /// watchdog with the oracle, which has none: the arena engine's clock
    /// ends at its last probe, the oracle's at its last delivery.
    pub fn without_clock(self) -> Self {
        RunRecord {
            final_now: SimTime::ZERO,
            ..self
        }
    }

    /// Where this run (the arena engine's) first differs from `oracle`'s,
    /// if anywhere: the first differing trace record with its context, the
    /// first differing delivery, or the rest of the record.
    pub fn first_divergence(&self, oracle: &RunRecord) -> Option<String> {
        let (a, b) = (&self.trace, &oracle.trace);
        if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
            let around =
                |t: &[Event]| format!("{:?}", &t[i.saturating_sub(3)..(i + 2).min(t.len())]);
            return Some(format!(
                "trace diverges at record {i}:\n  engine: {:?}\n  oracle: {:?}\n  engine context: {}\n  oracle context: {}",
                a[i], b[i], around(a), around(b)
            ));
        }
        let (a, b) = (&self.deliveries, &oracle.deliveries);
        if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
            return Some(format!(
                "delivery {i} differs:\n  engine: {:?}\n  oracle: {:?}",
                a.get(i),
                b.get(i)
            ));
        }
        let rest = |r: &RunRecord| (r.trace.len(), r.counters, r.final_now, r.in_flight);
        (rest(self) != rest(oracle)).then(|| {
            format!(
                "trace length, counters, final clock or in-flight count differ:\n  engine: {:?}\n  oracle: {:?}",
                rest(self),
                rest(oracle)
            )
        })
    }

    /// 64-bit FNV-1a over the debug rendering of the trace, the deliveries,
    /// the counters and the final clock: a pin that moves whenever anything
    /// the run did moves.
    pub fn digest(&self) -> u64 {
        let text = format!(
            "{:?}{:?}{:?}{:?}",
            self.trace, self.deliveries, self.counters, self.final_now
        );
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}
