//! **Fig. 1 at scale** — the paper's broadcast-latency-vs-size sweep
//! (Fig. 1, 64–4096 nodes) extended into the 10⁵–10⁶-node regime.
//! Single-source broadcast, L = 100 flits, Ts = 1.5 µs, non-cubic shapes
//! allowed; each cell additionally records its wall-clock cost, so the
//! sweep doubles as the engine's scaling record.
//!
//! The default algorithm set is DB and AB — the paper's proposed pair,
//! whose near-flat latency curve is the claim this sweep extends; set
//! [`Fig1ScaleParams::all_algorithms`] to add RD and EDN (an RD broadcast
//! is N−1 unicast messages, which dominates the run time at 10⁶ nodes).
//!
//! Without a telemetry spec no frames are collected and the unobserved
//! path keeps the large runs at full speed. With one (the driver's
//! `--profile`), each replication runs through
//! [`run_single_broadcast_observed`], exactly as in the Fig. 1 driver.

use crate::experiment::{grid, Experiment, Observation, RunOutput};
use crate::report::{f2, Table};
use serde::{Deserialize, Serialize};
use wormcast_broadcast::Algorithm;
use wormcast_network::NetworkConfig;
use wormcast_sim::SimRng;
use wormcast_stats::OnlineStats;
use wormcast_topology::{Mesh, NodeId, Topology};
use wormcast_workload::run_single_broadcast_observed;

/// Parameters of the large-mesh Fig. 1 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1ScaleParams {
    /// Mesh shapes to sweep, smallest first (defaults reach 10⁶ nodes).
    pub shapes: Vec<[u16; 3]>,
    /// Run RD and EDN as well as DB and AB (default: just the proposed
    /// pair; see the module docs).
    pub all_algorithms: bool,
    /// Message length in flits (paper: 100).
    pub length: u64,
    /// Start-up latency in µs (paper: 1.5).
    pub startup_us: f64,
    /// Broadcast sources averaged per cell (small: each run is large).
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Ignored: every simulation runs on the single engine. Kept so
    /// serialized parameters and code that builds them keep their shape.
    pub shards: usize,
}

impl Default for Fig1ScaleParams {
    fn default() -> Self {
        Fig1ScaleParams {
            // 32 768, 262 144 and 1 000 000 nodes.
            shapes: vec![[32, 32, 32], [64, 64, 64], [100, 100, 100]],
            all_algorithms: false,
            length: 100,
            startup_us: 1.5,
            runs: 3,
            seed: 2005,
            shards: 1,
        }
    }
}

impl Fig1ScaleParams {
    /// The shard count shape `_shape` runs with: always 1, whatever
    /// [`Fig1ScaleParams::shards`] holds, since there is one engine.
    pub fn shards_for(&self, _shape: [u16; 3]) -> usize {
        1
    }

    fn algorithms(&self) -> Vec<Algorithm> {
        if self.all_algorithms {
            Algorithm::PAPER.to_vec()
        } else {
            vec![Algorithm::Db, Algorithm::Ab]
        }
    }
}

/// One cell of the scale sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1ScaleCell {
    /// Nodes in the network.
    pub nodes: usize,
    /// Mesh shape.
    pub shape: [u16; 3],
    /// Algorithm short name.
    pub algorithm: String,
    /// Always 1: every replication runs on the single engine.
    pub shards: usize,
    /// Mean network-level broadcast latency, µs.
    pub latency_us: f64,
    /// Mean per-destination latency, µs.
    pub mean_node_latency_us: f64,
    /// Wall-clock spent simulating this cell, seconds (all replications;
    /// machine-dependent, excluded from determinism comparisons).
    pub wall_s: f64,
}

impl Experiment for Fig1ScaleParams {
    type Cell = Fig1ScaleCell;

    /// Run the sweep: a [`grid`] of (shape, alg) cells × `runs` broadcasts,
    /// as in the Fig. 1 driver (`wall_s` is the only field that varies
    /// between runs). Frames are labelled `"<W>x<H>x<D>/<alg>"`.
    fn run<'a>(&self, obs: impl Into<Observation<'a>>) -> RunOutput<Fig1ScaleCell> {
        let cfg = NetworkConfig::builder()
            .startup_us(self.startup_us)
            .build()
            .expect("Fig1ScaleParams start-up latency must be a valid duration");
        // Algorithms at the same shape share a master seed: common random
        // sources, as in the Fig. 1 driver.
        let plan: Vec<([u16; 3], u64, Algorithm)> = self
            .shapes
            .iter()
            .flat_map(|&shape| {
                let master = self.seed
                    ^ ((shape[0] as u64) << 8)
                    ^ ((shape[1] as u64) << 24)
                    ^ ((shape[2] as u64) << 40);
                self.algorithms()
                    .into_iter()
                    .map(move |alg| (shape, master, alg))
            })
            .collect();
        let rows = grid(
            obs,
            &plan,
            self.runs.max(1),
            |&(shape, master, alg), r, observe| {
                let mesh = Mesh::new(&shape);
                let mut rng = SimRng::for_replication(master, r as u64).substream("sources");
                let source = NodeId(rng.index(mesh.num_nodes()) as u32);
                let t0 = std::time::Instant::now();
                let (o, frame) =
                    run_single_broadcast_observed(&mesh, cfg, alg, source, self.length, observe);
                ((o, t0.elapsed().as_secs_f64()), frame)
            },
            |(net, node, secs): &mut (OnlineStats, OnlineStats, f64), (o, wall)| {
                net.push(o.network_latency_us);
                node.push(o.mean_latency_us);
                *secs += wall;
            },
        );
        let mut rows: Vec<_> = rows
            .into_iter()
            .map(|((net, node, secs), &(shape, _, alg), frame)| {
                let cell = Fig1ScaleCell {
                    nodes: Mesh::new(&shape).num_nodes(),
                    shape,
                    algorithm: alg.name().to_string(),
                    shards: 1,
                    latency_us: net.mean(),
                    mean_node_latency_us: node.mean(),
                    wall_s: secs,
                };
                (cell, frame)
            })
            .collect();
        rows.sort_by_key(|(c, _)| (c.nodes, c.algorithm.clone()));
        RunOutput::labeled(rows, |c| {
            let [x, y, z] = c.shape;
            format!("{x}x{y}x{z}/{}", c.algorithm)
        })
    }
}

/// Render the sweep in the Fig. 1 layout, extended with the per-cell wall
/// clock.
pub fn table(cells: &[Fig1ScaleCell], params: &Fig1ScaleParams) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 1 at scale: broadcast latency (us) vs network size; L={} flits, Ts={} us",
            params.length, params.startup_us
        ),
        &["nodes", "shape", "RD", "EDN", "DB", "AB", "wall s"],
    );
    for &shape in &params.shapes {
        let nodes = Mesh::new(&shape).num_nodes();
        let get = |alg: &str| -> String {
            cells
                .iter()
                .find(|c| c.nodes == nodes && c.algorithm == alg)
                .map(|c| f2(c.latency_us))
                .unwrap_or_else(|| "-".into())
        };
        let wall: f64 = cells
            .iter()
            .filter(|c| c.nodes == nodes)
            .map(|c| c.wall_s)
            .sum();
        t.push_row(vec![
            nodes.to_string(),
            format!("{}x{}x{}", shape[0], shape[1], shape[2]),
            get("RD"),
            get("EDN"),
            get("DB"),
            get("AB"),
            f2(wall),
        ]);
    }
    t
}

/// The scalability claims the sweep extends to the 10⁵–10⁶-node regime;
/// empty when every claim holds.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(a < b)` reads as the claim's negation, NaN-safe
pub fn check_claims(cells: &[Fig1ScaleCell]) -> Vec<String> {
    let mut bad = Vec::new();
    let sizes: Vec<usize> = {
        let mut s: Vec<usize> = cells.iter().map(|c| c.nodes).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let (Some(&first), Some(&last)) = (sizes.first(), sizes.last()) else {
        return vec!["no cells".into()];
    };
    let get = |nodes: usize, alg: &str| -> Option<f64> {
        cells
            .iter()
            .find(|c| c.nodes == nodes && c.algorithm == alg)
            .map(|c| c.latency_us)
    };
    for c in cells {
        if !(c.latency_us > 0.0) {
            bad.push(format!("{} at N={} has no latency", c.algorithm, c.nodes));
        }
    }
    // The paper's core scalability claim, extended: DB (and AB) latency
    // grows only through per-hop terms — far slower than the node count.
    // Across a ≥8x size increase the latency may at most quadruple.
    if last >= first.saturating_mul(8) {
        for alg in ["DB", "AB"] {
            if let (Some(lo), Some(hi)) = (get(first, alg), get(last, alg)) {
                if !(hi < 4.0 * lo) {
                    bad.push(format!(
                        "{alg} latency not scalable: {lo:.2} us at N={first} vs {hi:.2} us at N={last}"
                    ));
                }
            }
        }
    }
    // When RD ran, the proposed algorithms beat it at every size (Fig. 1's
    // ordering, here at scale).
    for &n in &sizes {
        if let Some(rd) = get(n, "RD") {
            for ours in ["DB", "AB"] {
                if let Some(v) = get(n, ours) {
                    if !(v < rd) {
                        bad.push(format!("{ours} !< RD at N={n}"));
                    }
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_workload::Runner;

    fn quick_params() -> Fig1ScaleParams {
        Fig1ScaleParams {
            shapes: vec![[4, 4, 4], [8, 8, 8]],
            runs: 2,
            ..Default::default()
        }
    }

    #[test]
    fn produces_full_grid_on_one_engine() {
        let p = Fig1ScaleParams {
            shards: 2,
            ..quick_params()
        };
        let cells = p.run(&Runner::sequential()).cells;
        assert_eq!(cells.len(), 2 * 2, "two shapes x DB/AB");
        for c in &cells {
            assert!(c.latency_us > 0.0);
            assert!(c.mean_node_latency_us <= c.latency_us);
            assert_eq!(c.shards, 1, "the shards parameter is ignored");
            assert!(c.wall_s >= 0.0);
        }
        assert!(check_claims(&cells).is_empty());
    }

    #[test]
    fn all_algorithms_widens_the_grid_and_orders_hold() {
        let p = Fig1ScaleParams {
            all_algorithms: true,
            ..quick_params()
        };
        let cells = p.run(&Runner::sequential()).cells;
        assert_eq!(cells.len(), 2 * 4);
        assert!(
            check_claims(&cells).is_empty(),
            "{:?}",
            check_claims(&cells)
        );
        let t = table(&cells, &p);
        assert_eq!(t.rows.len(), 2);
    }
}
