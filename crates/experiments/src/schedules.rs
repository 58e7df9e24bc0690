//! The `schedules` experiment — delivered load vs time under a load ramp.
//!
//! Every other experiment in the suite offers **stationary** traffic; this
//! one drives the engine through a [`Schedule`]: arrival times follow the
//! ramp's intensity profile (via the deterministic inverse-CDF warp), link
//! modulation windows slow a drawn subset of channels, hotspot drift biases
//! unicast destinations, and trace replay injects recorded traffic. The
//! output is the delivered-load curve over time, per algorithm — the regime
//! where transient overload separates the broadcast algorithms.
//!
//! Offered counts per time bin are a pure function of the schedule and the
//! seed (no engine involved), so the committed `results/schedules.json` is
//! snapshot-testable: the offered curve must be ramp-shaped and identical
//! across algorithms (common random numbers), and every offered message
//! must be delivered.

use crate::experiment::{grid, Experiment, Observation, RunOutput};
use crate::report::Table;
use crate::telemetry::LabeledFrame;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wormcast_broadcast::Algorithm;
use wormcast_network::{MessageSpec, NetworkConfig, OpId, Route};
use wormcast_routing::RunPath;
use wormcast_sim::{LoadRamp, Schedule, SimRng, SimTime};
use wormcast_telemetry::{Observe, TelemetryFrame};
use wormcast_topology::{ChannelId, Mesh, NodeId, Topology};
use wormcast_workload::{attach_collector, finish_collector, network_for, Fed, Ops, PlanCache};

/// Parameters of a scheduled-traffic run.
#[derive(Debug, Clone)]
pub struct SchedulesParams {
    /// Algorithms swept (default: the paper's four; the determinism gates
    /// also drive QAB through a schedule via this knob).
    pub algorithms: Vec<Algorithm>,
    /// Mesh shape.
    pub shape: [u16; 3],
    /// The schedule driving the run. The ramp shapes arrival times; the
    /// other dimensions (modulation, hotspot, replay) apply when present.
    pub schedule: Schedule,
    /// Arrivals are warped into `[0, window_us]`.
    pub window_us: f64,
    /// Time bins of the delivered-load curve, covering `[0, horizon_us]`.
    pub bins: usize,
    /// Curve horizon; deliveries later than this land in the last bin.
    pub horizon_us: f64,
    /// Offered messages per node over the whole window.
    pub messages_per_node: f64,
    /// Fraction of offered messages that are broadcasts (paper: 0.1).
    pub broadcast_fraction: f64,
    /// Message length, flits.
    pub length: u64,
    /// Start-up latency, µs.
    pub startup_us: f64,
    /// Replications (per-bin counts are summed across them).
    pub runs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SchedulesParams {
    fn default() -> Self {
        SchedulesParams {
            algorithms: Algorithm::PAPER.to_vec(),
            shape: [8, 8, 8],
            schedule: Schedule {
                ramp: Some(LoadRamp::linear(0.5, 2.5, 40.0)),
                ..Schedule::default()
            },
            window_us: 40.0,
            bins: 8,
            horizon_us: 60.0,
            messages_per_node: 0.5,
            broadcast_fraction: 0.1,
            length: 32,
            startup_us: 1.5,
            runs: 8,
            seed: 2005,
        }
    }
}

impl SchedulesParams {
    /// The reduced CI-sized configuration (`--quick`).
    pub fn quick() -> Self {
        SchedulesParams {
            shape: [4, 4, 4],
            runs: 3,
            ..Self::default()
        }
    }
}

/// One (algorithm, time-bin) cell of the delivered-load curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleCell {
    /// Algorithm short name.
    pub algorithm: String,
    /// Bin index, `0..bins`.
    pub bin: usize,
    /// Bin start, µs.
    pub t_start_us: f64,
    /// Bin end, µs.
    pub t_end_us: f64,
    /// Messages whose *injection* falls in this bin, summed over runs.
    pub offered: u64,
    /// Payload deliveries (unicast deliveries + broadcast completions)
    /// falling in this bin, summed over runs.
    pub delivered: u64,
    /// Offered rate, messages per node per ms (averaged over runs).
    pub offered_per_node_per_ms: f64,
    /// Delivered rate, messages per node per ms (averaged over runs).
    pub delivered_per_node_per_ms: f64,
}

/// Per-bin counts of one replication.
struct RepCounts {
    offered: Vec<u64>,
    delivered: Vec<u64>,
}

impl Experiment for SchedulesParams {
    type Cell = ScheduleCell;

    /// Run the scheduled workload for every configured algorithm.
    ///
    /// Each (algorithm, replication) pair is one [`grid`] cell, so each
    /// replication keeps its own frame, labelled `"<alg>#<r>"`; the bins
    /// are summed per algorithm afterwards. Arrival draws use replication
    /// substreams shared across algorithms (common random numbers), so the
    /// offered curve is identical for every algorithm.
    fn run<'a>(&self, obs: impl Into<Observation<'a>>) -> RunOutput<ScheduleCell> {
        assert!(self.bins > 0, "schedules: bins must be positive");
        assert!(
            self.horizon_us >= self.window_us,
            "schedules: horizon must cover the arrival window"
        );
        let plan: Vec<(usize, Algorithm, u64)> = (0..)
            .zip(&self.algorithms)
            .flat_map(|(ai, &alg)| (0..self.runs).map(move |r| (ai, alg, r)))
            .collect();
        let rows = grid(
            obs,
            &plan,
            1,
            |&(_, alg, rep), _, observe| self.run_one(alg, rep, observe),
            |counts: &mut Option<RepCounts>, c| *counts = Some(c),
        );
        let mut sums = vec![(vec![0u64; self.bins], vec![0u64; self.bins]); self.algorithms.len()];
        let mut frames = Vec::new();
        for (counts, &(ai, alg, r), frame) in rows {
            let counts = counts.expect("one run per replication");
            let (offered, delivered) = &mut sums[ai];
            for b in 0..self.bins {
                offered[b] += counts.offered[b];
                delivered[b] += counts.delivered[b];
            }
            if let Some(frame) = frame {
                frames.push(LabeledFrame::new(format!("{}#{r}", alg.name()), frame));
            }
        }

        let nodes = (self.shape[0] as u64 * self.shape[1] as u64 * self.shape[2] as u64) as f64;
        let bin_ms = self.horizon_us / self.bins as f64 / 1000.0;
        let per_rate = |count: u64| count as f64 / self.runs as f64 / nodes / bin_ms;
        let w = self.horizon_us / self.bins as f64;
        let cells = self
            .algorithms
            .iter()
            .zip(sums)
            .flat_map(|(alg, (offered, delivered))| {
                (0..self.bins).map(move |b| ScheduleCell {
                    algorithm: alg.name().to_string(),
                    bin: b,
                    t_start_us: b as f64 * w,
                    t_end_us: (b + 1) as f64 * w,
                    offered: offered[b],
                    delivered: delivered[b],
                    offered_per_node_per_ms: per_rate(offered[b]),
                    delivered_per_node_per_ms: per_rate(delivered[b]),
                })
            })
            .collect();
        RunOutput { cells, frames }
    }
}

impl SchedulesParams {
    fn bin_of(&self, t: SimTime) -> usize {
        let w = self.horizon_us / self.bins as f64;
        ((t.as_us() / w) as usize).min(self.bins - 1)
    }

    /// One replication of one algorithm: materialize the scheduled
    /// workload, drive the engine to quiescence, bin the deliveries.
    fn run_one(
        &self,
        alg: Algorithm,
        rep: u64,
        observe: Option<Observe<'_>>,
    ) -> (RepCounts, Option<TelemetryFrame>) {
        let mesh = Mesh::new(&self.shape);
        let nodes = mesh.num_nodes();
        let cfg = NetworkConfig::builder()
            .startup_us(self.startup_us)
            .build()
            .expect("SchedulesParams start-up latency must be a valid duration");
        let mut net = network_for(alg, mesh.clone(), cfg);
        let collector = attach_collector(&mut net, observe);

        // Replication substreams are algorithm-independent: every algorithm
        // faces the exact same offered traffic (common random numbers).
        let root = SimRng::for_replication(self.seed, rep);
        let mut arrivals_rng = root.substream("schedules-arrivals");
        let mut source_rng = root.substream("schedules-sources");
        let mut dest_rng = root.substream("schedules-dests");
        let mut kind_rng = root.substream("schedules-kinds");
        let mut speed_rng = root.substream("schedules-speed");

        // Engine-side schedule artifacts: modulation windows and phase marks.
        let mut transitions = self
            .schedule
            .speed_transitions(mesh.num_channels(), &mut speed_rng);
        transitions.retain(|t| mesh.channel_exists(ChannelId(t.channel)));
        net.schedule_speed_transitions(&transitions);
        net.schedule_phase_marks(&self.schedule.phase_marks(self.window_us));

        // Workload-side artifacts: ramp-warped arrivals with hotspot-biased
        // unicast destinations, plus the replayed trace.
        let mut offered = vec![0u64; self.bins];
        let mut delivered = vec![0u64; self.bins];
        let mut ops = Ops::default();
        let mut plans = PlanCache::new(alg, &mesh);
        let n_msgs = (self.messages_per_node * nodes as f64).round() as u64;
        for next_op in 0..n_msgs {
            let at_us = self
                .schedule
                .warp_arrival(arrivals_rng.unit(), self.window_us);
            let at = SimTime::from_us(at_us);
            let src = NodeId(source_rng.index(nodes) as u32);
            let op = OpId(next_op);
            offered[self.bin_of(at)] += 1;
            if kind_rng.chance(self.broadcast_fraction) {
                ops.launch(&mut net, at, plans.tracker(src, op, self.length));
            } else {
                let mut dst = NodeId(dest_rng.index(nodes) as u32);
                if let Some(h) = &self.schedule.hotspot {
                    if dest_rng.chance(h.weight) {
                        let hot = NodeId(h.position_at(at_us, nodes));
                        if hot != src {
                            dst = hot;
                        }
                    }
                }
                if dst == src {
                    dst = NodeId((dst.0 + 1) % nodes as u32);
                }
                net.inject_at(
                    at,
                    MessageSpec {
                        src,
                        route: Route::Runs(RunPath::dor(&mesh, src, dst)),
                        length: self.length,
                        op,
                        tag: 0,
                        charge_startup: true,
                    },
                );
            }
        }
        if let Some(replay) = &self.schedule.replay {
            for (i, e) in replay.entries.iter().enumerate() {
                let src = NodeId(e.src % nodes as u32);
                let dst = NodeId(e.dst % nodes as u32);
                if src == dst {
                    continue;
                }
                let at = SimTime::from_us(e.at_us);
                offered[self.bin_of(at)] += 1;
                net.inject_at(
                    at,
                    MessageSpec {
                        src,
                        route: Route::Runs(RunPath::dor(&mesh, src, dst)),
                        length: e.length.max(1),
                        op: OpId(500_000 + i as u64),
                        tag: 0,
                        charge_startup: true,
                    },
                );
            }
        }

        // A broadcast counts as delivered once, when its last destination
        // receives; its arrival latency feeds the frame.
        while ops.step(&mut net, |d, fed| match fed {
            Fed::Completed(tracker) => {
                delivered[self.bin_of(d.delivered_at)] += 1;
                if let Some(c) = &collector {
                    let t0 = tracker
                        .started_at()
                        .expect("launched operations have started");
                    c.record_arrival_us(d.delivered_at.since(t0).as_us());
                }
            }
            Fed::Advanced => {}
            Fed::Unowned => delivered[self.bin_of(d.delivered_at)] += 1,
        }) {}
        assert!(
            ops.is_empty(),
            "schedules: {} broadcasts incomplete at quiescence",
            ops.len()
        );
        let frame = finish_collector(net, collector);
        (RepCounts { offered, delivered }, frame)
    }
}

fn bins_of<'a>(cells: &'a [ScheduleCell], alg: &str) -> Vec<&'a ScheduleCell> {
    let mut v: Vec<&ScheduleCell> = cells.iter().filter(|c| c.algorithm == alg).collect();
    v.sort_by_key(|c| c.bin);
    v
}

/// Render the delivered-load curve: one row per bin, offered plus one
/// delivered column per algorithm.
pub fn table(cells: &[ScheduleCell], params: &SchedulesParams) -> Table {
    let mut t = Table::new(
        format!(
            "schedules: delivered msgs/node/ms vs time under a ramp; {}x{}x{} mesh, L={} flits",
            params.shape[0], params.shape[1], params.shape[2], params.length
        ),
        &["t (us)", "offered", "RD", "EDN", "DB", "AB"],
    );
    let by: HashMap<&str, Vec<&ScheduleCell>> = ["RD", "EDN", "DB", "AB"]
        .iter()
        .map(|&a| (a, bins_of(cells, a)))
        .collect();
    for b in 0..params.bins {
        let cell = |alg: &str| -> String {
            by[alg]
                .get(b)
                .map(|c| format!("{:.3}", c.delivered_per_node_per_ms))
                .unwrap_or_else(|| "-".into())
        };
        let t0 = by["RD"][b].t_start_us;
        let t1 = by["RD"][b].t_end_us;
        t.push_row(vec![
            format!("{t0:.0}-{t1:.0}"),
            format!("{:.3}", by["RD"][b].offered_per_node_per_ms),
            cell("RD"),
            cell("EDN"),
            cell("DB"),
            cell("AB"),
        ]);
    }
    t
}

/// The experiment's structural claims; empty when all hold.
///
/// * the offered curve is identical across algorithms (common random
///   numbers) and ramp-shaped — the peak bin offers strictly more than
///   the first (the ramp rises);
/// * every algorithm delivers every offered message (lossless: summed
///   deliveries equal summed offers).
pub fn check_claims(cells: &[ScheduleCell]) -> Vec<String> {
    let mut bad = Vec::new();
    let rd = bins_of(cells, "RD");
    if rd.is_empty() {
        return vec!["no RD cells".into()];
    }
    for alg in ["EDN", "DB", "AB"] {
        let a = bins_of(cells, alg);
        if a.len() != rd.len() || a.iter().zip(&rd).any(|(x, y)| x.offered != y.offered) {
            bad.push(format!(
                "{alg}'s offered curve differs from RD's — common random numbers broken"
            ));
        }
    }
    // The ramp must be visible in the offered curve: compare the first bin
    // against the peak bin. (The last in-window bin is only partially
    // covered by the arrival window, so it under-counts at reduced scale.)
    let peak = rd.iter().map(|c| c.offered).max().unwrap_or(0);
    if peak <= rd[0].offered {
        bad.push(format!(
            "offered curve is not ramp-shaped: first bin {} vs peak bin {peak}",
            rd[0].offered
        ));
    }
    for alg in ["RD", "EDN", "DB", "AB"] {
        let a = bins_of(cells, alg);
        let offered: u64 = a.iter().map(|c| c.offered).sum();
        let delivered: u64 = a.iter().map(|c| c.delivered).sum();
        if offered != delivered {
            bad.push(format!(
                "{alg} lossy under the ramp: offered {offered}, delivered {delivered}"
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_sim::{HotspotDrift, LinkModulation, ReplayEntry, TraceReplay};
    use wormcast_workload::Runner;

    fn quick() -> SchedulesParams {
        SchedulesParams {
            runs: 2,
            ..SchedulesParams::quick()
        }
    }

    #[test]
    fn ramped_run_satisfies_the_claims() {
        let p = quick();
        let cells = p.run(&Runner::sequential()).cells;
        assert_eq!(cells.len(), 4 * p.bins);
        let bad = check_claims(&cells);
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn runs_are_jobs_invariant() {
        let p = quick();
        let seq = p.run(&Runner::sequential()).cells;
        let par = p.run(&Runner::new(4)).cells;
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(
                (a.algorithm.clone(), a.bin, a.offered, a.delivered),
                (b.algorithm.clone(), b.bin, b.offered, b.delivered)
            );
        }
    }

    #[test]
    fn all_schedule_dimensions_execute_together() {
        let mut p = quick();
        p.schedule = Schedule {
            ramp: Some(LoadRamp::linear(0.5, 2.5, 40.0)),
            modulation: Some(LinkModulation {
                period_us: 10.0,
                duty: 0.5,
                factor: 4,
                fraction: 0.3,
                windows: 3,
            }),
            hotspot: Some(HotspotDrift {
                start: 5,
                stride: 3,
                step_us: 8.0,
                weight: 0.6,
            }),
            replay: Some(TraceReplay {
                entries: vec![
                    ReplayEntry {
                        at_us: 2.0,
                        src: 0,
                        dst: 9,
                        length: 8,
                    },
                    ReplayEntry {
                        at_us: 21.0,
                        src: 3,
                        dst: 3, // src == dst: skipped, not offered
                        length: 8,
                    },
                ],
            }),
        };
        let cells = p.run(&Runner::sequential()).cells;
        let bad = check_claims(&cells);
        assert!(bad.is_empty(), "{bad:?}");
        // The replayed entry adds exactly one offered message per
        // replication on top of the sampled workload.
        let nodes = 4u64 * 4 * 4;
        let sampled = (p.messages_per_node * nodes as f64).round() as u64;
        let offered: u64 = bins_of(&cells, "RD").iter().map(|c| c.offered).sum();
        assert_eq!(offered, (sampled + 1) * p.runs);
    }

    #[test]
    fn observed_arrivals_are_latencies_not_completion_times() {
        // One broadcast per replication on an otherwise idle mesh, launched
        // somewhere in a long window: the frame's arrival must be its
        // start -> last-delivery latency, which no idle broadcast from any
        // source exceeds — not the absolute completion time.
        let p = SchedulesParams {
            schedule: Schedule::default(),
            window_us: 1000.0,
            horizon_us: 1000.0,
            messages_per_node: 1.0 / 64.0,
            broadcast_fraction: 1.0,
            ..SchedulesParams::quick()
        };
        let mesh = Mesh::new(&p.shape);
        let cfg = NetworkConfig::builder()
            .startup_us(p.startup_us)
            .build()
            .expect("default start-up is valid");
        let spec = wormcast_telemetry::TelemetrySpec::default();
        for alg in [Algorithm::Rd, Algorithm::Db] {
            let longest = (0..mesh.num_nodes() as u32)
                .map(|src| {
                    wormcast_workload::run_single_broadcast(&mesh, cfg, alg, NodeId(src), p.length)
                        .network_latency_us
                })
                .fold(0.0, f64::max);
            for rep in 0..4 {
                let (_, frame) = p.run_one(alg, rep, Some(Observe::new(&spec, rep)));
                let arrivals = frame.expect("observed run has a frame").arrivals.export();
                assert_eq!(arrivals.count, 1, "{alg} rep {rep}: one broadcast");
                assert!(
                    arrivals.max_us <= longest + 1e-9,
                    "{alg} rep {rep}: arrival {} us exceeds the longest broadcast {longest} us",
                    arrivals.max_us
                );
            }
        }
    }

    #[test]
    fn table_renders_every_bin() {
        let p = quick();
        let cells = p.run(&Runner::sequential()).cells;
        let t = table(&cells, &p);
        assert_eq!(t.rows.len(), p.bins);
    }
}
