//! **Fig. 1** — Communication latency of DB, AB, RD and EDN for various
//! network sizes. Single-source broadcast, message length L = 100 flits,
//! start-up latency Ts = 1.5 µs (with the Ts = 0.15 µs variant of §3.1
//! available as a parameter), network sizes 64–4096 nodes.

use crate::experiment::{grid, Experiment, Observation, RunOutput};
use crate::report::{f2, Table};
use serde::{Deserialize, Serialize};
use wormcast_broadcast::Algorithm;
use wormcast_network::NetworkConfig;
use wormcast_stats::OnlineStats;
use wormcast_topology::{Mesh, Topology};
use wormcast_workload::{BroadcastRep, RepContext};

/// Parameters of the Fig. 1 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Params {
    /// Mesh side lengths to sweep (cubic meshes: side³ nodes).
    pub sides: Vec<u16>,
    /// Message length in flits (paper: 100).
    pub length: u64,
    /// Start-up latency in µs (paper: 1.5, plus a 0.15 variant).
    pub startup_us: f64,
    /// Broadcasts averaged per cell (paper: ≥ 40).
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig1Params {
    fn default() -> Self {
        Fig1Params {
            // 64, 512, 1000 and 4096 nodes, as on the paper's x-axis.
            sides: vec![4, 8, 10, 16],
            length: 100,
            startup_us: 1.5,
            runs: 40,
            seed: 2005,
        }
    }
}

/// One cell of the Fig. 1 result grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Cell {
    /// Nodes in the network.
    pub nodes: usize,
    /// Mesh side (cubic).
    pub side: u16,
    /// Algorithm short name.
    pub algorithm: String,
    /// Mean network-level broadcast latency, µs.
    pub latency_us: f64,
    /// Mean per-destination latency, µs.
    pub mean_node_latency_us: f64,
}

impl Experiment for Fig1Params {
    type Cell = Fig1Cell;

    /// Run the Fig. 1 experiment: a [`grid`] of (side, alg) cells × `runs`
    /// broadcasts, each replication its own task, so worker threads stay
    /// balanced even when the 4096-node cells dwarf the 64-node ones. Cells
    /// and their frames (labelled `"<nodes>/<alg>"`) are sorted by
    /// `(nodes, algorithm)`.
    fn run<'a>(&self, obs: impl Into<Observation<'a>>) -> RunOutput<Fig1Cell> {
        let cfg = NetworkConfig::builder()
            .startup_us(self.startup_us)
            .build()
            .expect("Fig1Params start-up latency must be a valid duration");
        // One replication spec per (side, alg) cell. Algorithms at the same
        // size share a master seed, so replication r draws the same source
        // for all four algorithms (common random numbers).
        let plan: Vec<(u16, u64, BroadcastRep)> = self
            .sides
            .iter()
            .flat_map(|&side| {
                Algorithm::PAPER.iter().map(move |&alg| {
                    let spec = BroadcastRep {
                        mesh: Mesh::cube(side),
                        cfg,
                        alg,
                        length: self.length,
                    };
                    (side, self.seed ^ (side as u64) << 8, spec)
                })
            })
            .collect();
        let rows = grid(
            obs,
            &plan,
            self.runs.max(1),
            |(_, master, spec), r, observe| {
                spec.replicate_observed(&mut RepContext::new(*master, r), observe)
            },
            |(net, node): &mut (OnlineStats, OnlineStats), o| {
                net.push(o.network_latency_us);
                node.push(o.mean_latency_us);
            },
        );
        let mut rows: Vec<_> = rows
            .into_iter()
            .map(|((net, node), (side, _, spec), frame)| {
                let cell = Fig1Cell {
                    nodes: spec.mesh.num_nodes(),
                    side: *side,
                    algorithm: spec.alg.name().to_string(),
                    latency_us: net.mean(),
                    mean_node_latency_us: node.mean(),
                };
                (cell, frame)
            })
            .collect();
        rows.sort_by_key(|(c, _)| (c.nodes, c.algorithm.clone()));
        RunOutput::labeled(rows, |c| format!("{}/{}", c.nodes, c.algorithm))
    }
}

/// Render the result in the paper's layout: one row per network size, one
/// column per algorithm (latency in µs).
pub fn table(cells: &[Fig1Cell], params: &Fig1Params) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 1: broadcast latency (us) vs network size; L={} flits, Ts={} us",
            params.length, params.startup_us
        ),
        &["nodes", "RD", "EDN", "DB", "AB"],
    );
    for &side in &params.sides {
        let nodes = (side as usize).pow(3);
        let get = |alg: &str| -> String {
            cells
                .iter()
                .find(|c| c.nodes == nodes && c.algorithm == alg)
                .map(|c| f2(c.latency_us))
                .unwrap_or_else(|| "-".into())
        };
        t.push_row(vec![
            nodes.to_string(),
            get("RD"),
            get("EDN"),
            get("DB"),
            get("AB"),
        ]);
    }
    t
}

/// The paper's qualitative claims for Fig. 1, checked programmatically; the
/// returned list is empty when every claim holds.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(a < b)` reads as the claim's negation, NaN-safe
pub fn check_claims(cells: &[Fig1Cell]) -> Vec<String> {
    let mut bad = Vec::new();
    let get = |nodes: usize, alg: &str| -> f64 {
        cells
            .iter()
            .find(|c| c.nodes == nodes && c.algorithm == alg)
            .map(|c| c.latency_us)
            .unwrap_or(f64::NAN)
    };
    let sizes: Vec<usize> = {
        let mut s: Vec<usize> = cells.iter().map(|c| c.nodes).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let largest = *sizes.last().unwrap_or(&0);
    // DB and AB beat RD and EDN at every size.
    for &n in &sizes {
        for ours in ["DB", "AB"] {
            for theirs in ["RD", "EDN"] {
                if !(get(n, ours) < get(n, theirs)) {
                    bad.push(format!("{ours} !< {theirs} at N={n}"));
                }
            }
        }
    }
    // EDN comparable to DB at 64 nodes (same 4 steps) but much worse at the
    // largest size.
    if sizes.contains(&64) {
        let ratio = get(64, "EDN") / get(64, "DB");
        if !(ratio < 2.0) {
            bad.push(format!(
                "EDN/DB at 64 nodes should be close, got {ratio:.2}"
            ));
        }
    }
    if largest >= 4096 {
        let ratio = get(largest, "EDN") / get(largest, "DB");
        if !(ratio > 1.5) {
            bad.push(format!(
                "EDN should degrade at N={largest}; EDN/DB = {ratio:.2}"
            ));
        }
    }
    // RD grows with log2 N; DB/AB stay nearly flat.
    if sizes.len() >= 2 {
        let first = sizes[0];
        let rd_growth = get(largest, "RD") - get(first, "RD");
        let db_growth = get(largest, "DB") - get(first, "DB");
        if !(rd_growth > db_growth) {
            bad.push("RD should grow faster than DB with network size".into());
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_telemetry::TelemetrySpec;
    use wormcast_workload::Runner;

    fn quick_params() -> Fig1Params {
        Fig1Params {
            sides: vec![4, 8],
            length: 100,
            startup_us: 1.5,
            runs: 4,
            seed: 1,
        }
    }

    #[test]
    fn produces_full_grid() {
        let p = quick_params();
        let cells = p.run(&Runner::sequential()).cells;
        assert_eq!(cells.len(), 2 * 4);
        for c in &cells {
            assert!(c.latency_us > 0.0);
            assert!(c.mean_node_latency_us <= c.latency_us);
        }
    }

    #[test]
    fn claims_hold_on_small_sizes() {
        let p = quick_params();
        let cells = p.run(&Runner::sequential()).cells;
        let bad = check_claims(&cells);
        assert!(bad.is_empty(), "violated: {bad:?}");
    }

    #[test]
    fn table_has_row_per_size() {
        let p = quick_params();
        let cells = p.run(&Runner::sequential()).cells;
        let t = table(&cells, &p);
        assert_eq!(t.rows.len(), 2);
        assert!(t.render().contains("64"));
        assert!(t.render().contains("512"));
    }

    #[test]
    fn observed_run_matches_plain_run_and_labels_frames() {
        let p = quick_params();
        let plain = p.run(&Runner::sequential()).cells;
        let spec = TelemetrySpec::default();
        let (cells, frames) = p.run((&Runner::sequential(), &spec)).into_parts();
        assert_eq!(cells.len(), plain.len());
        for (a, b) in cells.iter().zip(&plain) {
            assert_eq!(a.latency_us.to_bits(), b.latency_us.to_bits());
        }
        assert_eq!(frames.len(), cells.len(), "one frame per cell");
        for (f, c) in frames.iter().zip(&cells) {
            assert_eq!(f.label, format!("{}/{}", c.nodes, c.algorithm));
            // One arrival per destination per replication.
            assert_eq!(
                f.frame.arrivals.count(),
                (c.nodes as u64 - 1) * p.runs as u64
            );
            assert_eq!(f.frame.op_cv.count, p.runs as u64);
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
            assert_eq!(x.latency_us.to_bits(), y.latency_us.to_bits());
            assert_eq!(
                x.mean_node_latency_us.to_bits(),
                y.mean_node_latency_us.to_bits()
            );
        }
    }
}
