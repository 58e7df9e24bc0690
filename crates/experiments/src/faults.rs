//! **Faults** — graceful degradation under link/node failures. Not a figure
//! of the paper: the paper's evaluation assumes a fault-free network, and
//! this sweep quantifies what each broadcast algorithm loses when that
//! assumption breaks. Fault rate × algorithm on the 8×8×8 mesh (the
//! paper's 512-node workhorse), single-source broadcast, L = 100 flits,
//! Ts = 1.5 µs.
//!
//! Per replication a fail-stop fault plan is sampled from the replication's
//! own RNG stream, the schedule is degraded around the links dead at t = 0
//! (AB re-plans west-first detours, QAB negative-first ones; DOR-routed
//! algorithms count the cut-off receivers), and a delivery watchdog
//! converts any residual stall into
//! accounting instead of a hang. A zero fault rate reproduces the fault-free
//! code path event for event, which the CI smoke verifies bitwise.

use crate::experiment::{grid, Experiment, Observation, RunOutput};
use crate::report::{f2, f4, Table};
use serde::{Deserialize, Serialize};
use wormcast_broadcast::Algorithm;
use wormcast_network::{FaultSpec, NetworkConfig};
use wormcast_stats::OnlineStats;
use wormcast_topology::{Mesh, Topology};
use wormcast_workload::{FaultRep, RepContext};

/// Parameters of the fault sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultsParams {
    /// Mesh side (cubic: side³ nodes; paper workhorse: 8 → 512).
    pub side: u16,
    /// Fail-stop link fault rates to sweep (0 = the fault-free baseline).
    pub rates: Vec<f64>,
    /// Message length in flits (paper: 100).
    pub length: u64,
    /// Start-up latency in µs (paper: 1.5).
    pub startup_us: f64,
    /// Broadcasts averaged per cell.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FaultsParams {
    fn default() -> Self {
        FaultsParams {
            side: 8,
            rates: vec![0.0, 0.005, 0.01, 0.02, 0.05],
            length: 100,
            startup_us: 1.5,
            runs: 20,
            seed: 2005,
        }
    }
}

/// One cell of the fault-sweep result grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultsCell {
    /// Nodes in the network.
    pub nodes: usize,
    /// Fail-stop link fault rate of this cell.
    pub rate: f64,
    /// Algorithm short name.
    pub algorithm: String,
    /// Replications behind the aggregates.
    pub runs: usize,
    /// Mean fraction of destinations reached.
    pub delivery_ratio: f64,
    /// Messages reaped by the delivery watchdog, summed over replications.
    pub stalled: u64,
    /// Destination copies lost, summed over replications.
    pub undelivered: u64,
    /// Successful re-routes around dead links (plan-time detours plus
    /// in-flight adaptive dodges), summed over replications.
    pub reroutes: u64,
    /// Link-down transitions, summed over replications.
    pub link_failures: u64,
    /// Mean (over replications) of the latest survivor arrival, µs — the
    /// broadcast latency among destinations actually reached.
    pub latency_us: f64,
    /// Mean (over replications) of the mean survivor arrival latency, µs.
    pub mean_node_latency_us: f64,
}

impl Experiment for FaultsParams {
    type Cell = FaultsCell;

    /// Run the fault sweep: a [`grid`] of (rate, alg) cells × `runs`, as in
    /// Fig. 1. All cells share one master seed: replication r draws the
    /// same source at every rate and for every algorithm (common random
    /// numbers), so a rate column isolates the effect of the faults. Cells
    /// and their frames (labelled `"<rate>/<alg>"`) are sorted by rate,
    /// then algorithm.
    fn run<'a>(&self, obs: impl Into<Observation<'a>>) -> RunOutput<FaultsCell> {
        let cfg = NetworkConfig::builder()
            .startup_us(self.startup_us)
            .build()
            .expect("FaultsParams start-up latency must be a valid duration");
        let plan: Vec<(usize, f64, FaultRep)> = self
            .rates
            .iter()
            .enumerate()
            .flat_map(|(ri, &rate)| {
                Algorithm::ALL.iter().map(move |&alg| {
                    let spec = FaultRep {
                        mesh: Mesh::cube(self.side),
                        cfg,
                        alg,
                        length: self.length,
                        faults: FaultSpec::fail_stop(rate),
                    };
                    (ri, rate, spec)
                })
            })
            .collect();
        let runs = self.runs.max(1);
        #[derive(Default)]
        struct Acc {
            ratio: OnlineStats,
            latency: OnlineStats,
            node_latency: OnlineStats,
            stalled: u64,
            undelivered: u64,
            reroutes: u64,
            link_failures: u64,
        }
        let rows = grid(
            obs,
            &plan,
            runs,
            |(_, _, spec), r, observe| {
                spec.replicate_observed(&mut RepContext::new(self.seed, r), observe)
            },
            |a: &mut Acc, o| {
                a.ratio.push(o.delivery_ratio);
                a.latency.push(o.max_delivered_latency_us);
                a.node_latency.push(o.mean_delivered_latency_us);
                a.stalled += o.stalled;
                a.undelivered += o.undelivered;
                a.reroutes += o.reroutes;
                a.link_failures += o.link_failures;
            },
        );
        let mut rows: Vec<_> = rows
            .into_iter()
            .map(|(a, (ri, rate, spec), frame)| {
                let cell = FaultsCell {
                    nodes: spec.mesh.num_nodes(),
                    rate: *rate,
                    algorithm: spec.alg.name().to_string(),
                    runs,
                    delivery_ratio: a.ratio.mean(),
                    stalled: a.stalled,
                    undelivered: a.undelivered,
                    reroutes: a.reroutes,
                    link_failures: a.link_failures,
                    latency_us: a.latency.mean(),
                    mean_node_latency_us: a.node_latency.mean(),
                };
                (*ri, cell, frame)
            })
            .collect();
        rows.sort_by_key(|(ri, c, _)| (*ri, c.algorithm.clone()));
        let rows = rows.into_iter().map(|(_, cell, frame)| (cell, frame));
        RunOutput::labeled(rows, |c| format!("{}/{}", c.rate, c.algorithm))
    }
}

/// Render the sweep: one row per fault rate, one delivery-ratio column per
/// algorithm.
pub fn table(cells: &[FaultsCell], params: &FaultsParams) -> Table {
    let mut t = Table::new(
        format!(
            "Faults: delivery ratio vs fail-stop link fault rate; {s}x{s}x{s} mesh, L={} flits, Ts={} us, {} runs/cell",
            params.length,
            params.startup_us,
            params.runs,
            s = params.side
        ),
        &["rate", "RD", "EDN", "DB", "AB", "QAB"],
    );
    for &rate in &params.rates {
        let get = |alg: &str| -> String {
            cells
                .iter()
                .find(|c| c.rate == rate && c.algorithm == alg)
                .map(|c| f4(c.delivery_ratio))
                .unwrap_or_else(|| "-".into())
        };
        t.push_row(vec![
            format!("{rate}"),
            get("RD"),
            get("EDN"),
            get("DB"),
            get("AB"),
            get("QAB"),
        ]);
    }
    t
}

/// Render the degradation accounting: one row per (rate, algorithm) with
/// the summed reliability counters and survivor latency.
pub fn reliability_table(cells: &[FaultsCell]) -> Table {
    let mut t = Table::new(
        "Faults: degradation accounting (counts summed over replications)",
        &[
            "rate",
            "alg",
            "deliv",
            "stalled",
            "undeliv",
            "reroutes",
            "links down",
            "lat (us)",
        ],
    );
    for c in cells {
        t.push_row(vec![
            format!("{}", c.rate),
            c.algorithm.clone(),
            f4(c.delivery_ratio),
            c.stalled.to_string(),
            c.undelivered.to_string(),
            c.reroutes.to_string(),
            c.link_failures.to_string(),
            f2(c.latency_us),
        ]);
    }
    t
}

/// Qualitative expectations of the sweep, checked programmatically; the
/// returned list is empty when every claim holds.
pub fn check_claims(cells: &[FaultsCell]) -> Vec<String> {
    let mut bad = Vec::new();
    for c in cells {
        if !(0.0..=1.0).contains(&c.delivery_ratio) {
            bad.push(format!(
                "{}@{}: delivery ratio {} outside [0,1]",
                c.algorithm, c.rate, c.delivery_ratio
            ));
        }
        if c.rate == 0.0 {
            // The fault-free baseline must be exactly lossless.
            if c.delivery_ratio != 1.0 {
                bad.push(format!(
                    "{}: rate-0 delivery ratio {} != 1",
                    c.algorithm, c.delivery_ratio
                ));
            }
            for (what, n) in [
                ("stalled", c.stalled),
                ("undelivered", c.undelivered),
                ("reroutes", c.reroutes),
                ("link_failures", c.link_failures),
            ] {
                if n != 0 {
                    bad.push(format!("{}: rate-0 {what} = {n} != 0", c.algorithm));
                }
            }
        } else if c.link_failures == 0 && c.runs >= 8 {
            // With side³ nodes and ≥8 replications, a positive rate that
            // never downed a link means the plan sampler is broken.
            bad.push(format!(
                "{}@{}: positive fault rate downed no links",
                c.algorithm, c.rate
            ));
        }
    }
    // At the harshest rate of the sweep, QAB's re-planned negative-first
    // detours must out-deliver AB's fixed west-first staircases (CRN: both
    // face identical fault plans, so the gap is the detour policy). Asserted
    // only on powered sweeps (≥8 replications, the same bar as the sampler
    // check): on a smoke-sized grid the ordering is sampling noise.
    let top = cells
        .iter()
        .filter(|c| c.rate > 0.0 && c.runs >= 8)
        .map(|c| c.rate)
        .fold(f64::NEG_INFINITY, f64::max);
    if top.is_finite() {
        let at = |alg: &str| {
            cells
                .iter()
                .find(|c| c.algorithm == alg && c.rate == top)
                .map(|c| c.delivery_ratio)
        };
        if let (Some(q), Some(a)) = (at("QAB"), at("AB")) {
            if q < a {
                bad.push(format!(
                    "at top rate {top}: QAB delivery ratio {q:.4} < AB {a:.4}"
                ));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_workload::Runner;

    fn quick_params() -> FaultsParams {
        FaultsParams {
            side: 4,
            rates: vec![0.0, 0.05],
            length: 64,
            startup_us: 1.5,
            runs: 4,
            seed: 1,
        }
    }

    #[test]
    fn produces_full_grid_and_claims_hold() {
        let p = quick_params();
        let cells = p.run(&Runner::sequential()).cells;
        assert_eq!(cells.len(), 2 * 5);
        let bad = check_claims(&cells);
        assert!(bad.is_empty(), "violated: {bad:?}");
    }

    #[test]
    fn rate_zero_matches_fault_free_fig1_path() {
        // The rate-0 column must reproduce the fault-free replication
        // bitwise: same sources, full delivery, identical latency fold.
        use wormcast_workload::BroadcastRep;
        let p = quick_params();
        let cells = p.run(&Runner::sequential()).cells;
        let cfg = NetworkConfig::builder()
            .startup_us(p.startup_us)
            .build()
            .unwrap();
        for alg in Algorithm::ALL {
            let clean = BroadcastRep {
                mesh: Mesh::cube(p.side),
                cfg,
                alg,
                length: p.length,
            };
            let ctx = |i| RepContext::new(p.seed, i);
            let mut latency = OnlineStats::new();
            Runner::sequential().run(
                p.runs,
                |i| clean.replicate_observed(&mut ctx(i), None).0,
                |_, o| latency.push(o.network_latency_us),
            );
            let cell = cells
                .iter()
                .find(|c| c.rate == 0.0 && c.algorithm == alg.name())
                .expect("rate-0 cell");
            assert_eq!(
                cell.latency_us.to_bits(),
                latency.mean().to_bits(),
                "{alg}: rate-0 latency fold must be bit-identical to fault-free"
            );
            // And a faulted column still balances its books.
            let faulted = FaultRep {
                mesh: Mesh::cube(p.side),
                cfg,
                alg,
                length: p.length,
                faults: FaultSpec::fail_stop(0.05),
            };
            Runner::sequential().run(
                p.runs,
                |i| faulted.replicate_observed(&mut ctx(i), None).0,
                |_, o| assert_eq!(o.received + o.undelivered, o.expected),
            );
        }
    }

    #[test]
    fn grid_is_job_count_invariant() {
        let p = quick_params();
        let a = p.run(&Runner::new(1)).cells;
        let b = p.run(&Runner::new(4)).cells;
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.algorithm, y.algorithm);
            assert_eq!(x.rate.to_bits(), y.rate.to_bits());
            assert_eq!(x.delivery_ratio.to_bits(), y.delivery_ratio.to_bits());
            assert_eq!(x.latency_us.to_bits(), y.latency_us.to_bits());
            assert_eq!(
                (x.stalled, x.undelivered, x.reroutes, x.link_failures),
                (y.stalled, y.undelivered, y.reroutes, y.link_failures)
            );
        }
    }

    #[test]
    fn observed_run_matches_plain_run_and_labels_frames() {
        let p = quick_params();
        let plain = p.run(&Runner::sequential()).cells;
        let spec = wormcast_telemetry::TelemetrySpec::default();
        let (cells, frames) = p.run((&Runner::sequential(), &spec)).into_parts();
        assert_eq!(cells.len(), plain.len());
        for (a, b) in cells.iter().zip(&plain) {
            assert_eq!(a.delivery_ratio.to_bits(), b.delivery_ratio.to_bits());
            assert_eq!(a.latency_us.to_bits(), b.latency_us.to_bits());
        }
        assert_eq!(frames.len(), cells.len(), "one frame per cell");
        for (f, c) in frames.iter().zip(&cells) {
            assert_eq!(f.label, format!("{}/{}", c.rate, c.algorithm));
            // The frame's reliability counters mirror the cell's.
            assert_eq!(f.frame.reliability.stalled, c.stalled, "{}", f.label);
            assert_eq!(f.frame.reliability.reroutes, c.reroutes, "{}", f.label);
            assert_eq!(
                f.frame.reliability.link_failures, c.link_failures,
                "{}",
                f.label
            );
        }
    }

    #[test]
    fn tables_render() {
        let p = quick_params();
        let cells = p.run(&Runner::sequential()).cells;
        let t = table(&cells, &p);
        assert_eq!(t.rows.len(), 2);
        assert!(t.render().contains("0.05"));
        let r = reliability_table(&cells);
        assert_eq!(r.rows.len(), cells.len());
    }
}
