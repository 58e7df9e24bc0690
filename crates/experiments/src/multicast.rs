//! **Multicast extension experiment** — the paper's named future direction:
//! latency and overhead of destination-subset delivery as the set density
//! sweeps from sparse (1% of nodes) to full broadcast.
//!
//! Compares three schemes (see `wormcast_broadcast::multicast`): UM
//! (unicast recursive doubling), CM (coded-path, DB-style backbone) and SP
//! (single chained path), on an 8×8×8 mesh with 32-flit messages.

use crate::experiment::{grid, Experiment, Observation, RunOutput};
use crate::report::{f2, f4, Table};
use serde::{Deserialize, Serialize};
use wormcast_network::NetworkConfig;
use wormcast_stats::OnlineStats;
use wormcast_topology::{Mesh, NodeId, Topology};
use wormcast_workload::{random_destinations, run_single_multicast_observed, MulticastScheme};

/// Parameters of the multicast density sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MulticastParams {
    /// Mesh shape.
    pub shape: [u16; 3],
    /// Destination-set sizes to sweep.
    pub set_sizes: Vec<usize>,
    /// Message length, flits.
    pub length: u64,
    /// Repetitions (random source + random set) per cell.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MulticastParams {
    fn default() -> Self {
        MulticastParams {
            shape: [8, 8, 8],
            set_sizes: vec![5, 15, 50, 150, 400, 511],
            length: 32,
            runs: 12,
            seed: 2005,
        }
    }
}

/// One cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MulticastCell {
    /// Scheme short name.
    pub scheme: String,
    /// Destination-set size.
    pub set_size: usize,
    /// Mean time until the last destination received, µs.
    pub latency_us: f64,
    /// Mean CV of destination arrival times.
    pub cv: f64,
    /// Mean relay copies delivered to non-destinations.
    pub overhead: f64,
}

impl Experiment for MulticastParams {
    type Cell = MulticastCell;

    /// Run the multicast density sweep: a [`grid`] of (scheme, set size)
    /// cells × `runs`, in plan order; frames are labelled
    /// `"<scheme>/<set size>"`. Schemes share per-rep seeds (common random
    /// sets and sources).
    fn run<'a>(&self, obs: impl Into<Observation<'a>>) -> RunOutput<MulticastCell> {
        let mesh = Mesh::new(&self.shape);
        let cfg = NetworkConfig::paper_default();
        let plan: Vec<(MulticastScheme, usize)> = MulticastScheme::ALL
            .iter()
            .flat_map(|&scheme| self.set_sizes.iter().map(move |&m| (scheme, m)))
            .collect();
        let rows = grid(
            obs,
            &plan,
            self.runs.max(1),
            |&(scheme, m), r, observe| {
                let seed = self.seed ^ ((m as u64) << 24) ^ (r as u64);
                let src = NodeId((seed % mesh.num_nodes() as u64) as u32);
                let dests = random_destinations(&mesh, src, m, seed);
                run_single_multicast_observed(&mesh, cfg, scheme, src, &dests, self.length, observe)
            },
            |(lats, cvs, over): &mut (OnlineStats, OnlineStats, OnlineStats), o| {
                lats.push(o.latency_us);
                cvs.push(o.cv);
                over.push(o.overhead_copies as f64);
            },
        );
        let rows = rows
            .into_iter()
            .map(|((lats, cvs, over), &(scheme, m), frame)| {
                let cell = MulticastCell {
                    scheme: scheme.name().to_string(),
                    set_size: m,
                    latency_us: lats.mean(),
                    cv: cvs.mean(),
                    overhead: over.mean(),
                };
                (cell, frame)
            });
        RunOutput::labeled(rows, |c| format!("{}/{}", c.scheme, c.set_size))
    }
}

/// Render the sweep.
pub fn table(cells: &[MulticastCell], params: &MulticastParams) -> Table {
    let mut t = Table::new(
        format!(
            "Multicast latency (us) vs destination-set size; {}x{}x{} mesh, L={} flits",
            params.shape[0], params.shape[1], params.shape[2], params.length
        ),
        &["dests", "UM", "CM", "SP", "CM overhead"],
    );
    for &m in &params.set_sizes {
        let get = |s: &str| -> Option<&MulticastCell> {
            cells.iter().find(|c| c.scheme == s && c.set_size == m)
        };
        t.push_row(vec![
            m.to_string(),
            get("UM").map(|c| f2(c.latency_us)).unwrap_or_default(),
            get("CM").map(|c| f2(c.latency_us)).unwrap_or_default(),
            get("SP").map(|c| f2(c.latency_us)).unwrap_or_default(),
            get("CM").map(|c| f4(c.overhead)).unwrap_or_default(),
        ]);
    }
    t
}

/// Qualitative claims of the multicast extension; empty when all hold.
///
/// * For dense sets (≥ 150 of 512 nodes) CM beats UM — fewer serialized
///   start-ups on the critical path;
/// * SP's latency grows ~linearly with the set size (a serial chain) and is
///   worst for dense sets;
/// * UM touches no non-destination nodes; CM's backbone overhead stays
///   bounded by planes + column.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(a < b)` reads as the claim's negation, NaN-safe
pub fn check_claims(cells: &[MulticastCell]) -> Vec<String> {
    let mut bad = Vec::new();
    let get = |s: &str, m: usize| -> f64 {
        cells
            .iter()
            .find(|c| c.scheme == s && c.set_size == m)
            .map(|c| c.latency_us)
            .unwrap_or(f64::NAN)
    };
    let sizes: Vec<usize> = {
        let mut v: Vec<usize> = cells.iter().map(|c| c.set_size).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for &m in sizes.iter().filter(|&&m| m >= 150) {
        if !(get("CM", m) < get("UM", m)) {
            bad.push(format!("CM !< UM at {m} destinations"));
        }
        if !(get("SP", m) > get("CM", m)) {
            bad.push(format!("SP !> CM at {m} destinations"));
        }
    }
    if let (Some(&first), Some(&last)) = (sizes.first(), sizes.last()) {
        let growth = get("SP", last) / get("SP", first);
        if !(growth > 3.0) {
            bad.push(format!("SP should grow ~linearly, got x{growth:.1}"));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_workload::Runner;

    fn quick() -> MulticastParams {
        MulticastParams {
            shape: [4, 4, 4],
            set_sizes: vec![5, 30, 63],
            length: 32,
            runs: 4,
            seed: 9,
        }
    }

    #[test]
    fn sweep_covers_grid() {
        let p = quick();
        let cells = p.run(&Runner::sequential()).cells;
        assert_eq!(cells.len(), 3 * 3);
        for c in &cells {
            assert!(c.latency_us > 0.0, "{} at {}", c.scheme, c.set_size);
        }
    }

    #[test]
    fn sp_grows_with_density() {
        let p = quick();
        let cells = p.run(&Runner::sequential()).cells;
        let get = |m: usize| {
            cells
                .iter()
                .find(|c| c.scheme == "SP" && c.set_size == m)
                .unwrap()
                .latency_us
        };
        assert!(get(63) > get(5) * 2.0);
    }

    #[test]
    fn table_renders() {
        let p = quick();
        let cells = p.run(&Runner::sequential()).cells;
        let t = table(&cells, &p);
        assert_eq!(t.rows.len(), 3);
    }
}
