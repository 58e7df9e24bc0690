//! The replication harness: run independent replications of an experiment
//! across worker threads, deterministically.
//!
//! Every experiment in this workspace has the same outer shape: a grid of
//! independent simulation tasks (cells × replications), each a pure
//! function of its index, whose outputs fold into streaming statistics.
//! This module provides the pieces of that shape; the experiments crate's
//! `grid` function assembles them:
//!
//! * [`Runner`] — executes `task(0..count)` across `--jobs` worker threads
//!   (`std::thread::scope`, no extra dependencies) and folds results **in
//!   index order**, so the folded outcome is bit-identical no matter how
//!   many workers run or how they interleave.
//! * [`RepContext`] — a replication's index and its private RNG stream
//!   ([`SimRng::for_replication`]: ChaCha stream = f(master seed, index)).
//! * [`BroadcastRep`] — the paper's standard replication (one single-source
//!   broadcast from a randomly drawn source), run by the Fig. 1 driver.
//! * [`TelemetryMerge`] — merges a cell's per-replication telemetry frames
//!   in fold order.
//!
//! Determinism argument: each task output depends only on `(spec, master
//! seed, index)` — never on thread identity, scheduling, or shared mutable
//! state — and the fold consumes outputs in index order through a reorder
//! buffer. Hence `jobs = 1` and `jobs = N` produce byte-identical results,
//! which `tests/determinism.rs` locks in.

use crate::single::{run_single_broadcast_observed, BroadcastOutcome};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;
use wormcast_broadcast::Algorithm;
use wormcast_network::NetworkConfig;
use wormcast_sim::SimRng;
use wormcast_telemetry::{MetricId, Observe, SeriesKey, TelemetryFrame};
use wormcast_topology::{Mesh, NodeId, Topology};

/// Runtime facts about the [`Runner::run`] calls that completed on this
/// thread since the last [`take_probe`], for the profiling layer: how the
/// harness itself behaved (as opposed to what the simulations inside it
/// computed). `tasks` sums across runs; the other fields keep the maximum.
///
/// All fields are non-deterministic in the profile-report sense — they
/// depend on `--jobs` and scheduling — and feed the `harness_*` metric ids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunProbe {
    /// Tasks executed (folds performed).
    pub tasks: u64,
    /// High-water mark of the reorder buffer (0 on the inline path: outputs
    /// fold as they are produced, nothing is ever buffered).
    pub max_queue_depth: u64,
    /// Worker threads used (1 on the inline path).
    pub workers: u64,
}

thread_local! {
    /// Probe accumulated by `Runner::run` calls on this thread. The fold
    /// always runs on the calling thread, so drivers read it right after
    /// the runs they are profiling, on the same thread.
    static PROBE: Cell<RunProbe> = const { Cell::new(RunProbe { tasks: 0, max_queue_depth: 0, workers: 0 }) };
}

/// Take (and reset) the probe accumulated by [`Runner::run`] calls on this
/// thread since the previous take.
pub fn take_probe() -> RunProbe {
    PROBE.with(|p| p.take())
}

/// Fold one run's observations into this thread's probe.
fn update_probe(tasks: u64, max_queue_depth: u64, workers: u64) {
    PROBE.with(|p| {
        let mut v = p.get();
        v.tasks += tasks;
        v.max_queue_depth = v.max_queue_depth.max(max_queue_depth);
        v.workers = v.workers.max(workers);
        p.set(v);
    });
}

/// Everything a replication may depend on besides its spec: its index and
/// its private, order-independent RNG stream.
pub struct RepContext {
    /// Index of this replication in `0..reps`.
    pub index: usize,
    /// The replication's root RNG stream (derive labelled substreams from it
    /// rather than consuming it directly, as the workload drivers do).
    pub rng: SimRng,
}

impl RepContext {
    /// The context of replication `index` under `master_seed`.
    pub fn new(master_seed: u64, index: usize) -> Self {
        RepContext {
            index,
            rng: SimRng::for_replication(master_seed, index as u64),
        }
    }
}

/// One replication of the paper's standard experiment: a single-source
/// broadcast of `length` flits from a uniformly drawn source on an idle
/// network configured for `alg`.
#[derive(Debug, Clone)]
pub struct BroadcastRep {
    /// The mesh under test.
    pub mesh: Mesh,
    /// Network configuration (ports are overridden per algorithm).
    pub cfg: NetworkConfig,
    /// Broadcast algorithm under test.
    pub alg: Algorithm,
    /// Message length in flits.
    pub length: u64,
}

impl BroadcastRep {
    /// Run replication `ctx.index` with optional telemetry collection.
    ///
    /// With `observe = None` no sink is attached and no frame returned;
    /// with `Some`, the returned frame carries the replication's phase histograms, heatmap and event
    /// stream. Callers choose `observe.rep` — stamp it with an identifier
    /// unique across the *whole* experiment (e.g. the global task index),
    /// not the per-cell replication index, so `(rep, msg)` pairs stay
    /// unique in a concatenated NDJSON export.
    pub fn replicate_observed(
        &self,
        ctx: &mut RepContext,
        observe: Option<Observe<'_>>,
    ) -> (BroadcastOutcome, Option<TelemetryFrame>) {
        let mut src_rng = ctx.rng.substream("sources");
        let source = NodeId(src_rng.index(self.mesh.num_nodes()) as u32);
        let profiling = observe.as_ref().is_some_and(|o| o.spec.profile);
        let t = profiling.then(Instant::now);
        let (outcome, mut frame) = run_single_broadcast_observed(
            &self.mesh,
            self.cfg,
            self.alg,
            source,
            self.length,
            observe,
        );
        if let (Some(t), Some(f)) = (t, frame.as_mut()) {
            f.metrics
                .inc_by(SeriesKey::plain(MetricId::HarnessReplications), 1);
            f.metrics.observe(
                SeriesKey::plain(MetricId::HarnessRepWallNs),
                t.elapsed().as_nanos() as u64,
            );
        }
        (outcome, frame)
    }
}

/// Accumulates optional per-replication [`TelemetryFrame`]s during a fold.
///
/// The harness folds strictly in replication-index order, so absorbing each
/// replication's frame as it is folded yields a merged frame that is
/// byte-identical for any `--jobs` count. Frames are merged pairwise with
/// [`TelemetryFrame::merge`]; absorbing `None` (telemetry off, or a cell
/// with no frame) is a no-op.
#[derive(Debug, Default)]
pub struct TelemetryMerge {
    frame: Option<TelemetryFrame>,
}

impl TelemetryMerge {
    /// An empty accumulator.
    pub fn new() -> Self {
        TelemetryMerge::default()
    }

    /// Absorb the next replication's frame, in fold (index) order.
    pub fn absorb(&mut self, frame: Option<TelemetryFrame>) {
        match (&mut self.frame, frame) {
            (Some(acc), Some(f)) => acc.merge(&f),
            (acc @ None, Some(f)) => *acc = Some(f),
            _ => {}
        }
    }

    /// The bytes the merged frame's event log has left, if it keeps one:
    /// the room the next absorbed frame's events will meet, and an upper
    /// bound on the room any later frame's will.
    pub fn event_room(&self) -> Option<usize> {
        self.frame
            .as_ref()?
            .events
            .as_ref()
            .map(|log| log.room_left())
    }

    /// The merged frame, if any replication produced one.
    pub fn finish(self) -> Option<TelemetryFrame> {
        self.frame
    }
}

/// Executes independent tasks across worker threads and folds their outputs
/// in index order.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    jobs: usize,
}

impl Default for Runner {
    /// One worker per available core.
    fn default() -> Self {
        Runner::new(0)
    }
}

impl Runner {
    /// A runner with `jobs` workers; `0` means one per available core.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        Runner { jobs }
    }

    /// A single-threaded runner (tasks run inline on the caller's thread).
    pub fn sequential() -> Self {
        Runner { jobs: 1 }
    }

    /// Number of worker threads this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `task(i)` for every `i in 0..count` and call `fold(i, output)`
    /// strictly in index order (0, 1, 2, …).
    ///
    /// Tasks are pulled by worker threads from a shared counter; outputs
    /// stream back over a channel and pass through a reorder buffer (at most
    /// O(jobs) entries under balanced task lengths) before folding. With one
    /// job, tasks run inline — no threads, no channel.
    ///
    /// # Panics
    /// Propagates the first panic of any task.
    pub fn run<T: Send>(
        &self,
        count: usize,
        task: impl Fn(usize) -> T + Sync,
        mut fold: impl FnMut(usize, T),
    ) {
        if count == 0 {
            return;
        }
        let jobs = self.jobs.min(count);
        if jobs <= 1 {
            for i in 0..count {
                fold(i, task(i));
            }
            update_probe(count as u64, 0, 1);
            return;
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let tx = tx.clone();
                let next = &next;
                let task = &task;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    if tx.send((i, task(i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Reorder: fold strictly by index so the folded result cannot
            // depend on worker scheduling.
            let mut pending = BTreeMap::new();
            let mut want = 0usize;
            let mut max_depth = 0usize;
            for (i, out) in rx {
                pending.insert(i, out);
                max_depth = max_depth.max(pending.len());
                while let Some(out) = pending.remove(&want) {
                    fold(want, out);
                    want += 1;
                }
            }
            assert!(
                pending.is_empty() && want == count,
                "harness lost task outputs ({want}/{count} folded) — a worker panicked"
            );
            update_probe(count as u64, max_depth as u64, jobs as u64);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_stats::OnlineStats;

    #[test]
    fn folds_in_index_order_regardless_of_jobs() {
        for jobs in [1usize, 2, 4, 7] {
            let runner = Runner::new(jobs);
            let mut order = Vec::new();
            runner.run(
                20,
                |i| {
                    // Uneven task times shuffle completion order.
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                    i * i
                },
                |i, v| order.push((i, v)),
            );
            let expect: Vec<(usize, usize)> = (0..20).map(|i| (i, i * i)).collect();
            assert_eq!(order, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn replications_are_job_count_invariant() {
        let spec = BroadcastRep {
            mesh: Mesh::cube(4),
            cfg: NetworkConfig::paper_default(),
            alg: Algorithm::Ab,
            length: 32,
        };
        let run_with = |jobs: usize| {
            let mut stats = [OnlineStats::new(), OnlineStats::new(), OnlineStats::new()];
            let mut sources = Vec::new();
            Runner::new(jobs).run(
                6,
                |i| spec.replicate_observed(&mut RepContext::new(99, i), None).0,
                |_, o: BroadcastOutcome| {
                    let xs = [o.network_latency_us, o.mean_latency_us, o.cv];
                    stats.iter_mut().zip(xs).for_each(|(s, x)| s.push(x));
                    sources.push(o.source);
                },
            );
            (stats.map(|s| s.mean().to_bits()), sources)
        };
        let (m1, s1) = run_with(1);
        let (m4, s4) = run_with(4);
        assert_eq!(m1, m4, "bit-identical fold");
        assert_eq!(s1, s4, "same sources in the same order");
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let mut called = false;
        Runner::new(4).run(0, |_| 1, |_, _| called = true);
        assert!(!called);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        Runner::new(2).run(
            8,
            |i| {
                assert!(i != 5, "boom");
                i
            },
            |_, _| {},
        );
    }

    #[test]
    fn runner_auto_jobs_positive() {
        assert!(Runner::default().jobs() >= 1);
        assert_eq!(Runner::sequential().jobs(), 1);
        assert_eq!(Runner::new(3).jobs(), 3);
    }

    #[test]
    fn merge_carries_drop_counts_without_double_counting() {
        use wormcast_telemetry::events::{Event, EventKind, EventLog};
        use wormcast_telemetry::TelemetryFrame;

        let e = Event::new(1, EventKind::Inject, 0);
        let cost = e.line_len() + 1;
        let frame = |budget: usize, pushes: usize| {
            let mut log = EventLog::new(cost * budget);
            for _ in 0..pushes {
                log.push(e);
            }
            TelemetryFrame {
                events: Some(log),
                ..TelemetryFrame::default()
            }
        };
        // The accumulator adopts the first frame's (ample) budget; the two
        // later replications each drop 1 event over their own tight budget.
        let mut merge = TelemetryMerge::new();
        merge.absorb(Some(frame(16, 3))); // 3 retained, 0 dropped
        merge.absorb(None); // telemetry-less replication is a no-op
        merge.absorb(Some(frame(2, 3))); // 2 retained, 1 dropped
        merge.absorb(Some(frame(2, 3))); // 2 retained, 1 dropped
        let merged = merge.finish().expect("frames were absorbed");
        let log = merged.events.as_ref().expect("events enabled");
        // Every retained event fits the accumulator, so the merged count
        // is exactly the per-replication drops, carried once each.
        assert_eq!(log.len(), 3 + 2 + 2);
        assert_eq!(log.dropped(), 2);
    }
}
