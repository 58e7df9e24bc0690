//! The serving core: request routing across cache, in-flight coalescing
//! and cold execution, independent of any transport.
//!
//! [`Server::respond`] is the whole protocol. It is transport-agnostic and
//! `&self`-threadsafe, so the TCP loop, the `--once` stdin mode and the
//! test suite all drive the same code path.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};

use wormcast_simcheck::{measure_request, ScenarioRequest};
use wormcast_telemetry::{EventKind, EventLog, MetricId, MetricsRegistry, SeriesKey};

use crate::frame;

/// A fully-rendered, cacheable answer: the event stream plus the final
/// frame. Cold runs always capture events — `outputs` is excluded from the
/// config hash, so one cached run must be able to answer later requests
/// with *any* output selection.
#[derive(Debug)]
pub struct CachedRun {
    /// NDJSON of the run's engine events (rep-stamped, merged in
    /// replication order, trailing newline included); empty for runs that
    /// produced none (e.g. errors).
    pub events_ndjson: String,
    /// The single-line result or error frame, without trailing newline.
    /// Replayed verbatim on every hit — byte-identical to the cold answer.
    pub frame: String,
}

/// How an answer was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Replayed from the completed-run cache.
    CacheHit,
    /// Executed fresh by this request.
    CacheMiss,
    /// Joined an identical in-flight execution.
    Coalesced,
}

impl Provenance {
    /// The event kind announcing this provenance on the wire.
    pub fn event_kind(self) -> EventKind {
        match self {
            Provenance::CacheHit => EventKind::CacheHit,
            Provenance::CacheMiss => EventKind::CacheMiss,
            Provenance::Coalesced => EventKind::Coalesced,
        }
    }
}

/// One answer, ready to serialize: provenance + the shared run.
#[derive(Debug)]
pub struct Response {
    /// How this answer was produced.
    pub provenance: Provenance,
    /// The request's config hash.
    pub config_hash: u64,
    /// Whether the requester asked for the event stream
    /// (`outputs.events`); the cached run always carries it.
    pub include_events: bool,
    /// The shared run result.
    pub run: Arc<CachedRun>,
}

impl Response {
    /// The provenance event line (no trailing newline).
    pub fn provenance_line(&self) -> String {
        frame::provenance_line(self.provenance.event_kind(), self.config_hash)
    }

    /// The full wire bytes: provenance line, events (when requested), frame
    /// line — each newline-terminated.
    pub fn render(&self) -> String {
        let events = if self.include_events {
            self.run.events_ndjson.as_str()
        } else {
            ""
        };
        let mut s = String::with_capacity(
            self.run.frame.len() + events.len() + self.provenance_line().len() + 2,
        );
        s.push_str(&self.provenance_line());
        s.push('\n');
        s.push_str(events);
        s.push_str(&self.run.frame);
        s.push('\n');
        s
    }

    /// Write the rendered response.
    ///
    /// # Errors
    /// Propagates write errors.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(self.render().as_bytes())
    }
}

/// Bounded completed-run cache, FIFO eviction in insertion order. Plain
/// FIFO (not LRU) keeps warm-path reads `&`-only and makes eviction order a
/// pure function of the request sequence — which is what the determinism
/// tests pin.
#[derive(Debug)]
struct FifoCache {
    cap: usize,
    map: HashMap<u64, Arc<CachedRun>>,
    order: VecDeque<u64>,
}

impl FifoCache {
    fn new(cap: usize) -> Self {
        FifoCache {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, hash: u64) -> Option<Arc<CachedRun>> {
        self.map.get(&hash).cloned()
    }

    fn insert(&mut self, hash: u64, run: Arc<CachedRun>) {
        if self.cap == 0 {
            return;
        }
        if self.map.insert(hash, run).is_none() {
            self.order.push_back(hash);
        }
        while self.map.len() > self.cap {
            let evicted = self.order.pop_front().expect("order tracks map");
            self.map.remove(&evicted);
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// One in-flight execution: waiters block on the condvar until the runner
/// publishes the shared result.
#[derive(Debug, Default)]
struct Slot {
    done: Mutex<Option<Arc<CachedRun>>>,
    cv: Condvar,
}

impl Slot {
    fn publish(&self, run: Arc<CachedRun>) {
        *self.done.lock().expect("slot lock") = Some(run);
        self.cv.notify_all();
    }

    fn wait(&self) -> Arc<CachedRun> {
        let mut done = self.done.lock().expect("slot lock");
        loop {
            if let Some(run) = done.as_ref() {
                return run.clone();
            }
            done = self.cv.wait(done).expect("slot lock");
        }
    }
}

/// Routing state: the cache and the in-flight table live under one lock so
/// the hit / join / claim decision is atomic — a run that completes
/// between a caller's cache probe and its claim can never be re-executed.
#[derive(Debug)]
struct Routing {
    cache: FifoCache,
    inflight: HashMap<u64, Arc<Slot>>,
}

enum Decision {
    Hit(Arc<CachedRun>),
    Join(Arc<Slot>),
    Claim(Arc<Slot>),
}

/// The serving core: shared cache, coalescing table and metrics.
#[derive(Debug)]
pub struct Server {
    routing: Mutex<Routing>,
    metrics: Mutex<MetricsRegistry>,
    default_schedule: Option<wormcast_sim::Schedule>,
}

impl Server {
    /// A server whose completed-run cache holds at most `cache_cap` runs
    /// (0 disables caching; coalescing still applies while a run is in
    /// flight).
    pub fn new(cache_cap: usize) -> Self {
        Server {
            routing: Mutex::new(Routing {
                cache: FifoCache::new(cache_cap),
                inflight: HashMap::new(),
            }),
            metrics: Mutex::new(MetricsRegistry::new()),
            default_schedule: None,
        }
    }

    /// Apply `schedule` to every incoming request that does not carry its
    /// own (`--schedule FILE` on the binary). The injection happens before
    /// hashing, so a scheduled and an unscheduled answer for the same
    /// scenario can never alias in the cache; requests that embed a
    /// schedule keep it untouched.
    #[must_use]
    pub fn with_default_schedule(mut self, schedule: wormcast_sim::Schedule) -> Self {
        self.default_schedule = Some(schedule);
        self
    }

    /// Answer one request: cache hit, coalesce onto an identical in-flight
    /// run, or execute cold. Blocking (an engine run or a wait on one);
    /// call from a worker thread.
    pub fn respond(&self, req: &ScenarioRequest) -> Response {
        let patched;
        let req = match &self.default_schedule {
            Some(sched) if req.scenario.schedule.is_none() => {
                let mut r = req.clone();
                r.scenario.schedule = Some(sched.clone());
                patched = r;
                &patched
            }
            _ => req,
        };
        let hash = req.config_hash();
        self.respond_inner(hash, req.outputs.events, || execute(req, hash))
    }

    /// The routing core behind [`Server::respond`], with the cold-execution
    /// path injectable so tests can drive panicking and long-blocking runs.
    fn respond_inner(
        &self,
        hash: u64,
        include_events: bool,
        exec: impl FnOnce() -> CachedRun,
    ) -> Response {
        self.bump(MetricId::ServeRequests);
        let decision = {
            let mut rt = self.routing.lock().expect("routing lock");
            if let Some(run) = rt.cache.get(hash) {
                Decision::Hit(run)
            } else if let Some(slot) = rt.inflight.get(&hash) {
                Decision::Join(slot.clone())
            } else {
                let slot = Arc::new(Slot::default());
                rt.inflight.insert(hash, slot.clone());
                Decision::Claim(slot)
            }
        };
        let (provenance, run) = match decision {
            Decision::Hit(run) => {
                self.bump(MetricId::ServeCacheHits);
                (Provenance::CacheHit, run)
            }
            Decision::Join(slot) => {
                let run = slot.wait();
                self.bump(MetricId::ServeCoalesced);
                (Provenance::Coalesced, run)
            }
            Decision::Claim(slot) => {
                self.bump(MetricId::ServeRunsExecuted);
                // A panic inside the engine must not unwind past the claim:
                // that would leave the in-flight entry behind forever, so
                // every later identical request joins a slot nobody will
                // publish and the server wedges. Catch it, answer with an
                // error frame, and release the slot. The failed run is NOT
                // cached — unlike a request rejected by validation, a panic
                // is not known to be deterministic, so the next identical
                // request gets a fresh execution.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(exec));
                let (run, cacheable) = match caught {
                    Ok(run) => (Arc::new(run), true),
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        let frame =
                            frame::error_frame(Some(hash), &format!("internal error: {msg}"));
                        let run = Arc::new(CachedRun {
                            events_ndjson: String::new(),
                            frame,
                        });
                        (run, false)
                    }
                };
                {
                    let mut rt = self.routing.lock().expect("routing lock");
                    if cacheable {
                        rt.cache.insert(hash, run.clone());
                    }
                    rt.inflight.remove(&hash);
                }
                slot.publish(run.clone());
                (Provenance::CacheMiss, run)
            }
        };
        Response {
            provenance,
            config_hash: hash,
            include_events,
            run,
        }
    }

    /// Current value of an (unlabelled) serve counter.
    pub fn metric(&self, id: MetricId) -> u64 {
        self.metrics
            .lock()
            .expect("metrics lock")
            .counter(SeriesKey::plain(id))
    }

    /// Completed runs currently cached (tests and the status line).
    pub fn cached_runs(&self) -> usize {
        self.routing.lock().expect("routing lock").cache.len()
    }

    fn bump(&self, id: MetricId) {
        self.metrics
            .lock()
            .expect("metrics lock")
            .inc_by(SeriesKey::plain(id), 1);
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Execute a request cold and render its cacheable answer. Events are
/// captured unconditionally (see [`CachedRun`]); execution errors render as
/// a deterministic error frame and are cached like results — a bad request
/// is bad every time, so there is nothing to gain from re-running it.
fn execute(req: &ScenarioRequest, hash: u64) -> CachedRun {
    let mut with_events = req.clone();
    with_events.outputs.events = true;
    match measure_request(&with_events) {
        Ok(run) => CachedRun {
            events_ndjson: run.events.map(EventLog::into_ndjson).unwrap_or_default(),
            frame: frame::result_frame(hash, req.reps, req.shards.max(1), &run.summary),
        },
        Err(e) => CachedRun {
            events_ndjson: String::new(),
            frame: frame::error_frame(Some(hash), &e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(frame: &str) -> Arc<CachedRun> {
        Arc::new(CachedRun {
            events_ndjson: String::new(),
            frame: frame.to_string(),
        })
    }

    #[test]
    fn fifo_cache_evicts_in_insertion_order() {
        let mut c = FifoCache::new(2);
        c.insert(1, run("a"));
        c.insert(2, run("b"));
        c.insert(3, run("c"));
        assert!(c.get(1).is_none(), "oldest evicted");
        assert!(c.get(2).is_some() && c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn fifo_cache_reinsert_does_not_double_count() {
        let mut c = FifoCache::new(2);
        c.insert(1, run("a"));
        c.insert(1, run("a2"));
        c.insert(2, run("b"));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some() && c.get(2).is_some());
    }

    #[test]
    fn zero_cap_disables_caching() {
        let mut c = FifoCache::new(0);
        c.insert(1, run("a"));
        assert!(c.get(1).is_none());
        assert_eq!(c.len(), 0);
    }

    /// A two-phase gate: the claim thread's executor signals "entered" and
    /// then blocks until the test releases it, so the test can arrange
    /// joiners and cache churn while the run is provably in flight.
    struct Gate {
        state: Mutex<(bool, bool)>, // (entered, released)
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Self> {
            Arc::new(Gate {
                state: Mutex::new((false, false)),
                cv: Condvar::new(),
            })
        }

        fn enter_and_hold(&self) {
            let mut st = self.state.lock().unwrap();
            st.0 = true;
            self.cv.notify_all();
            while !st.1 {
                st = self.cv.wait(st).unwrap();
            }
        }

        fn wait_entered(&self) {
            let mut st = self.state.lock().unwrap();
            while !st.0 {
                st = self.cv.wait(st).unwrap();
            }
        }

        fn release(&self) {
            let mut st = self.state.lock().unwrap();
            st.1 = true;
            self.cv.notify_all();
        }
    }

    #[test]
    fn panic_during_execution_does_not_wedge_later_requests() {
        let srv = Server::new(4);
        let resp = srv.respond_inner(42, false, || panic!("boom"));
        assert_eq!(resp.provenance, Provenance::CacheMiss);
        assert!(
            resp.run.frame.contains("internal error: boom"),
            "{}",
            resp.run.frame
        );
        assert_eq!(srv.metric(MetricId::ServeRunsExecuted), 1);
        assert_eq!(srv.cached_runs(), 0, "panicked run must not be cached");

        // The in-flight entry is gone: an identical request executes fresh
        // instead of joining a slot nobody will publish or replaying the
        // cached panic.
        let resp = srv.respond_inner(42, false, || CachedRun {
            events_ndjson: String::new(),
            frame: "ok".to_string(),
        });
        assert_eq!(resp.provenance, Provenance::CacheMiss);
        assert_eq!(resp.run.frame, "ok");
        assert_eq!(srv.metric(MetricId::ServeRunsExecuted), 2);
    }

    #[test]
    fn coalesced_waiters_on_a_panicking_run_get_the_error_frame() {
        let srv = Arc::new(Server::new(4));
        let gate = Gate::new();

        let claimer = {
            let srv = srv.clone();
            let gate = gate.clone();
            std::thread::spawn(move || {
                srv.respond_inner(7, false, move || {
                    gate.enter_and_hold();
                    panic!("engine exploded");
                })
            })
        };
        gate.wait_entered();

        let joiner = {
            let srv = srv.clone();
            std::thread::spawn(move || {
                srv.respond_inner(7, false, || {
                    unreachable!("joiner must coalesce, not execute")
                })
            })
        };
        // Give the joiner time to reach the in-flight table before the
        // claimer is released; if it loses the race anyway, its executor
        // trips the unreachable! above and fails the test loudly.
        std::thread::sleep(std::time::Duration::from_millis(100));
        gate.release();

        let claimed = claimer
            .join()
            .expect("claimer must not propagate the panic");
        let joined = joiner.join().expect("joiner must not hang or panic");
        assert!(
            claimed
                .run
                .frame
                .contains("internal error: engine exploded"),
            "{}",
            claimed.run.frame
        );
        assert_eq!(joined.provenance, Provenance::Coalesced);
        assert_eq!(joined.run.frame, claimed.run.frame);
        assert_eq!(srv.metric(MetricId::ServeRunsExecuted), 1);
        assert_eq!(srv.metric(MetricId::ServeCoalesced), 1);
    }

    #[test]
    fn cache_eviction_churn_during_flight_keeps_coalescing_intact() {
        let srv = Arc::new(Server::new(1));
        let gate = Gate::new();

        let claimer = {
            let srv = srv.clone();
            let gate = gate.clone();
            std::thread::spawn(move || {
                srv.respond_inner(1, false, move || {
                    gate.enter_and_hold();
                    CachedRun {
                        events_ndjson: String::new(),
                        frame: "slow".to_string(),
                    }
                })
            })
        };
        gate.wait_entered();

        // Churn the one-slot cache while hash 1 is in flight: hash 2 is
        // cached then evicted by hash 3.
        for h in [2u64, 3] {
            let resp = srv.respond_inner(h, false, move || CachedRun {
                events_ndjson: String::new(),
                frame: format!("r{h}"),
            });
            assert_eq!(resp.provenance, Provenance::CacheMiss);
        }

        let joiner = {
            let srv = srv.clone();
            std::thread::spawn(move || {
                srv.respond_inner(1, false, || {
                    unreachable!("joiner must coalesce, not execute")
                })
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        gate.release();

        let claimed = claimer.join().expect("claimer");
        let joined = joiner.join().expect("joiner");
        assert_eq!(claimed.run.frame, "slow");
        assert_eq!(joined.provenance, Provenance::Coalesced);
        assert_eq!(joined.run.frame, "slow");
        // Exactly three cold executions: hashes 1, 2 and 3 — the eviction
        // churn neither re-ran nor lost the in-flight request.
        assert_eq!(srv.metric(MetricId::ServeRunsExecuted), 3);
        assert_eq!(srv.metric(MetricId::ServeCoalesced), 1);
        // The in-flight run landed in the cache after the churn.
        let resp = srv.respond_inner(1, false, || unreachable!("cached"));
        assert_eq!(resp.provenance, Provenance::CacheHit);
        assert_eq!(resp.run.frame, "slow");
    }
}
