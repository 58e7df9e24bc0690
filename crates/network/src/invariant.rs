//! Strong per-event engine invariants (the `invariants` cargo feature).
//!
//! Two layers of checking, both compiled out entirely when the feature is
//! off:
//!
//! 1. **Shadow-state checker** — [`InvariantChecker`] replays the
//!    [`MetricsSink`] event stream against an independent model of what a
//!    correct wormhole engine may do: the clock never runs backwards, a
//!    channel is granted to at most one message at a time, retired messages
//!    (completed or watchdog-stalled) never act again, every coded-path
//!    destination absorbs exactly one copy, and only the watchdog may retire
//!    a message without completion. Violations are *recorded*, not panicked,
//!    so a fuzzing harness can shrink the scenario that produced them. The
//!    checker attaches to either engine ([`crate::engine::Network`] or
//!    [`crate::classic::Network`]) through the ordinary sink interface and
//!    therefore cannot perturb the simulation it watches.
//!
//! 2. **Deep structural checks** — `Network::deep_check_invariants`, run
//!    after every dispatched event when [`crate::NetworkConfig`] has
//!    `check_invariants` set, walk the engine's own arenas and panic on
//!    internal inconsistency (channel-ownership bijection, waiter-queue
//!    bookkeeping, retirement accounting against the counters).
//!
//! The split matters: the shadow checker validates the *observable contract*
//! identically for both engines, while the deep checks validate each
//! engine's private bookkeeping. `wormcast-simcheck` runs both and converts
//! deep-check panics into reported violations.

use crate::message::MessageId;
use crate::metrics::MetricsSink;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use wormcast_sim::SimTime;
use wormcast_topology::{ChannelId, NodeId};

/// Upper bound on recorded violation messages; further violations are
/// counted but not stored (a broken engine can emit millions).
const MAX_RECORDED: usize = 64;

/// Per-message shadow state.
#[derive(Debug, Default, Clone)]
struct Shadow {
    completed: bool,
    stalled: bool,
    /// Nodes that have absorbed a copy so far.
    delivered: Vec<u32>,
}

/// Registered delivery expectation for one message.
#[derive(Debug, Clone)]
struct Expectation {
    /// Sorted node ids that must each absorb exactly one copy.
    receivers: Vec<u32>,
    /// Payload length every delivery of this message must report.
    length: u64,
}

#[derive(Debug, Default)]
struct State {
    watchdog_enabled: bool,
    injected: u64,
    completed: u64,
    stalled: u64,
    msgs: HashMap<u64, Shadow>,
    expected: HashMap<u64, Expectation>,
    /// Channel index → holding message id.
    chan_owner: HashMap<u32, u64>,
    violations: Vec<String>,
    suppressed: u64,
}

impl State {
    fn violate(&mut self, msg: String) {
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(msg);
        } else {
            self.suppressed += 1;
        }
    }

    fn shadow(&mut self, m: MessageId) -> &mut Shadow {
        self.msgs.entry(m.0).or_default()
    }
}

/// Shadow-state invariant checker over the [`MetricsSink`] event stream.
///
/// Create one per run, attach [`InvariantChecker::sink`] to the network
/// *before* injecting, optionally register per-message delivery
/// expectations with [`InvariantChecker::expect_exactly_once`], and collect
/// the verdict with [`InvariantChecker::finish`]. The handle is cheaply
/// cloneable; all clones share one state.
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    state: Arc<Mutex<State>>,
}

impl InvariantChecker {
    /// A fresh checker. `watchdog_enabled` mirrors the network's
    /// configuration: with the watchdog off, any `on_stalled` event is a
    /// violation (watchdog-only retirement).
    pub fn new(watchdog_enabled: bool) -> Self {
        let c = InvariantChecker::default();
        c.state.lock().unwrap().watchdog_enabled = watchdog_enabled;
        c
    }

    /// A [`MetricsSink`] feeding this checker; attach it with
    /// `Network::add_sink`.
    pub fn sink(&self) -> Box<dyn MetricsSink> {
        Box::new(InvariantSink {
            state: Arc::clone(&self.state),
            last_now: SimTime::ZERO,
        })
    }

    /// Declare that message `m` (`length` flits) must deliver exactly one
    /// copy to each of `receivers` — the CPR delivery-completeness
    /// invariant, checked incrementally on every delivery and finally at
    /// completion.
    pub fn expect_exactly_once(
        &self,
        m: MessageId,
        receivers: impl IntoIterator<Item = NodeId>,
        length: u64,
    ) {
        let mut r: Vec<u32> = receivers.into_iter().map(|n| n.0).collect();
        r.sort_unstable();
        let mut s = self.state.lock().unwrap();
        if s.expected
            .insert(
                m.0,
                Expectation {
                    receivers: r,
                    length,
                },
            )
            .is_some()
        {
            s.violate(format!("m{}: expectation registered twice", m.0));
        }
    }

    /// Violations recorded so far (without ending the run).
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().unwrap().violations.clone()
    }

    /// End-of-run audit. `in_flight` is the engine's own count of messages
    /// neither completed nor retired; the checker requires its event-level
    /// accounting to agree (message conservation) and, when the network
    /// drained completely, that no channel is still held. Returns all
    /// violations, appending a summary line if any were suppressed past the
    /// recording cap.
    pub fn finish(&self, in_flight: u64) -> Vec<String> {
        let mut s = self.state.lock().unwrap();
        if s.completed + s.stalled + in_flight != s.injected {
            let msg = format!(
                "message conservation: injected {} != completed {} + stalled {} + in-flight {}",
                s.injected, s.completed, s.stalled, in_flight
            );
            s.violate(msg);
        }
        if in_flight == 0 && !s.chan_owner.is_empty() {
            let mut held: Vec<_> = s.chan_owner.iter().map(|(c, m)| (*c, *m)).collect();
            held.sort_unstable();
            let msg = format!("channels still held on an idle network: {held:?}");
            s.violate(msg);
        }
        let mut out = s.violations.clone();
        if s.suppressed > 0 {
            out.push(format!("... and {} further violations", s.suppressed));
        }
        out
    }
}

/// The attachable sink half of [`InvariantChecker`].
struct InvariantSink {
    state: Arc<Mutex<State>>,
    /// Monotone clock over the events *this sink* observed: each attached
    /// sink watches one engine's event stream in processing order.
    last_now: SimTime,
}

impl InvariantSink {
    fn clock(&mut self, now: SimTime) {
        if now < self.last_now {
            let msg = format!(
                "clock went backwards: {} after {}",
                now.as_ps(),
                self.last_now.as_ps()
            );
            self.state.lock().unwrap().violate(msg);
        } else {
            self.last_now = now;
        }
    }
}

impl MetricsSink for InvariantSink {
    fn on_inject(&mut self, _now: SimTime, m: MessageId, _src: NodeId) {
        // No clock check here: injection requests fire at call time carrying
        // the *requested* timestamp, and callers may pre-schedule a whole
        // out-of-order batch before the run starts. Monotonicity is an
        // invariant of event *processing*, covered by every other handler.
        let mut s = self.state.lock().unwrap();
        s.injected += 1;
        if s.msgs.contains_key(&m.0) {
            s.violate(format!("m{}: injected twice", m.0));
        }
        s.msgs.entry(m.0).or_default();
    }

    fn on_channel_grant(&mut self, now: SimTime, m: MessageId, ch: ChannelId) {
        self.clock(now);
        let mut s = self.state.lock().unwrap();
        if let Some(&owner) = s.chan_owner.get(&ch.0) {
            s.violate(format!(
                "c{}: granted to m{} while held by m{} (mutual exclusion)",
                ch.0, m.0, owner
            ));
        }
        s.chan_owner.insert(ch.0, m.0);
        let retired = {
            let sh = s.shadow(m);
            sh.completed || sh.stalled
        };
        if retired {
            s.violate(format!(
                "m{}: channel c{} granted after retirement",
                m.0, ch.0
            ));
        }
    }

    fn on_channel_release(&mut self, now: SimTime, ch: ChannelId) {
        self.clock(now);
        let mut s = self.state.lock().unwrap();
        if s.chan_owner.remove(&ch.0).is_none() {
            s.violate(format!("c{}: released while not held", ch.0));
        }
    }

    fn on_deliver(&mut self, now: SimTime, m: MessageId, node: NodeId, flits: u64) {
        self.clock(now);
        let mut s = self.state.lock().unwrap();
        let (completed, stalled) = {
            let sh = s.shadow(m);
            (sh.completed, sh.stalled)
        };
        if completed {
            s.violate(format!(
                "m{}: delivery at n{} after completion",
                m.0, node.0
            ));
        } else if stalled {
            s.violate(format!(
                "m{}: delivery at n{} after watchdog retirement (delivered AND stalled)",
                m.0, node.0
            ));
        }
        let dup = s.shadow(m).delivered.contains(&node.0);
        s.shadow(m).delivered.push(node.0);
        if let Some(exp) = s.expected.get(&m.0) {
            let (in_set, exp_len) = (exp.receivers.binary_search(&node.0).is_ok(), exp.length);
            if !in_set {
                s.violate(format!(
                    "m{}: delivered to n{}, not a coded-path destination",
                    m.0, node.0
                ));
            }
            if flits != exp_len {
                s.violate(format!(
                    "m{}: delivered {flits} flits at n{}, expected {exp_len} (flit conservation)",
                    m.0, node.0
                ));
            }
        }
        if dup {
            s.violate(format!(
                "m{}: n{} absorbed more than one copy (exactly-once delivery)",
                m.0, node.0
            ));
        }
    }

    fn on_complete(&mut self, now: SimTime, m: MessageId, _node: NodeId) {
        self.clock(now);
        let mut s = self.state.lock().unwrap();
        s.completed += 1;
        let sh = s.shadow(m).clone();
        if sh.completed {
            s.violate(format!("m{}: completed twice", m.0));
        }
        if sh.stalled {
            s.violate(format!("m{}: completed after watchdog retirement", m.0));
        }
        if let Some(exp) = s.expected.get(&m.0) {
            let mut got = sh.delivered.clone();
            got.sort_unstable();
            if got != exp.receivers {
                let missing: Vec<u32> = exp
                    .receivers
                    .iter()
                    .filter(|r| !got.contains(r))
                    .copied()
                    .collect();
                let msg = format!(
                    "m{}: completed with deliveries {got:?} != coded-path destinations \
                     {:?} (missing {missing:?})",
                    m.0, exp.receivers
                );
                s.violate(msg);
            }
        }
        s.shadow(m).completed = true;
    }

    fn on_stalled(&mut self, now: SimTime, m: MessageId, _at: NodeId, _undelivered: u64) {
        self.clock(now);
        let mut s = self.state.lock().unwrap();
        s.stalled += 1;
        if !s.watchdog_enabled {
            s.violate(format!(
                "m{}: retired as stalled with the watchdog disabled (watchdog-only retirement)",
                m.0
            ));
        }
        let (completed, stalled) = {
            let sh = s.shadow(m);
            (sh.completed, sh.stalled)
        };
        if completed {
            s.violate(format!("m{}: stalled after completion", m.0));
        }
        if stalled {
            s.violate(format!("m{}: stalled twice", m.0));
        }
        s.shadow(m).stalled = true;
    }

    fn on_startup_done(&mut self, now: SimTime, _m: MessageId, _node: NodeId) {
        self.clock(now);
    }

    fn on_header_hop(&mut self, now: SimTime, _m: MessageId, _at: NodeId, _ch: ChannelId) {
        self.clock(now);
    }

    fn on_channel_wait(&mut self, now: SimTime, _m: MessageId, _ch: ChannelId, _q: usize) {
        self.clock(now);
    }

    fn on_link_failed(&mut self, now: SimTime, _ch: ChannelId) {
        self.clock(now);
    }

    fn on_link_restored(&mut self, now: SimTime, _ch: ChannelId) {
        self.clock(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: f64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn clean_unicast_stream_has_no_violations() {
        let c = InvariantChecker::new(false);
        let mut s = c.sink();
        c.expect_exactly_once(MessageId(0), [NodeId(3)], 8);
        s.on_inject(t(0.0), MessageId(0), NodeId(0));
        s.on_channel_grant(t(1.0), MessageId(0), ChannelId(5));
        s.on_deliver(t(2.0), MessageId(0), NodeId(3), 8);
        s.on_channel_release(t(2.5), ChannelId(5));
        s.on_complete(t(2.5), MessageId(0), NodeId(3));
        assert_eq!(c.finish(0), Vec::<String>::new());
    }

    #[test]
    fn double_grant_is_mutual_exclusion_violation() {
        let c = InvariantChecker::new(false);
        let mut s = c.sink();
        s.on_inject(t(0.0), MessageId(0), NodeId(0));
        s.on_inject(t(0.0), MessageId(1), NodeId(1));
        s.on_channel_grant(t(1.0), MessageId(0), ChannelId(5));
        s.on_channel_grant(t(1.0), MessageId(1), ChannelId(5));
        let v = c.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("mutual exclusion"), "{v:?}");
    }

    #[test]
    fn missing_destination_fails_completeness() {
        let c = InvariantChecker::new(false);
        let mut s = c.sink();
        c.expect_exactly_once(MessageId(0), [NodeId(3), NodeId(7)], 8);
        s.on_inject(t(0.0), MessageId(0), NodeId(0));
        s.on_deliver(t(1.0), MessageId(0), NodeId(3), 8);
        s.on_complete(t(2.0), MessageId(0), NodeId(7));
        let v = c.violations();
        assert!(
            v.iter().any(|m| m.contains("missing [7]")),
            "expected completeness violation, got {v:?}"
        );
    }

    #[test]
    fn duplicate_copy_and_wrong_flits_flagged() {
        let c = InvariantChecker::new(false);
        let mut s = c.sink();
        c.expect_exactly_once(MessageId(0), [NodeId(3)], 8);
        s.on_inject(t(0.0), MessageId(0), NodeId(0));
        s.on_deliver(t(1.0), MessageId(0), NodeId(3), 9);
        s.on_deliver(t(1.5), MessageId(0), NodeId(3), 8);
        let v = c.violations();
        assert!(v.iter().any(|m| m.contains("flit conservation")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("exactly-once")), "{v:?}");
    }

    #[test]
    fn stall_without_watchdog_is_flagged() {
        let c = InvariantChecker::new(false);
        let mut s = c.sink();
        s.on_inject(t(0.0), MessageId(0), NodeId(0));
        s.on_stalled(t(9.0), MessageId(0), NodeId(2), 3);
        let v = c.violations();
        assert!(v.iter().any(|m| m.contains("watchdog-only")), "{v:?}");
        // With the watchdog on, the same stream is clean.
        let c2 = InvariantChecker::new(true);
        let mut s2 = c2.sink();
        s2.on_inject(t(0.0), MessageId(0), NodeId(0));
        s2.on_stalled(t(9.0), MessageId(0), NodeId(2), 3);
        assert_eq!(c2.finish(0), Vec::<String>::new());
    }

    #[test]
    fn backwards_clock_and_leaked_channel_flagged() {
        let c = InvariantChecker::new(false);
        let mut s = c.sink();
        // Injections carry *requested* timestamps and are exempt from the
        // clock check (callers pre-schedule out-of-order batches); only
        // processed events drive the monotone clock.
        s.on_inject(t(9.0), MessageId(0), NodeId(0));
        s.on_channel_grant(t(5.0), MessageId(0), ChannelId(3));
        s.on_channel_grant(t(1.0), MessageId(0), ChannelId(2));
        let v = c.finish(0);
        assert!(
            v.iter().any(|m| m.contains("clock went backwards")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("still held")), "{v:?}");
    }

    #[test]
    fn conservation_mismatch_flagged() {
        let c = InvariantChecker::new(false);
        let mut s = c.sink();
        s.on_inject(t(0.0), MessageId(0), NodeId(0));
        s.on_inject(t(0.0), MessageId(1), NodeId(1));
        s.on_complete(t(1.0), MessageId(0), NodeId(2));
        let v = c.finish(0);
        assert!(v.iter().any(|m| m.contains("conservation")), "{v:?}");
    }
}
