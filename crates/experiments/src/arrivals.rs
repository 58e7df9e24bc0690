//! **Node-level arrival profile** — the paper's §3.2 theme, widened.
//!
//! The paper condenses node-level behaviour into a single CV number. This
//! experiment shows the underlying distributions: for each algorithm, the
//! per-destination arrival-latency median, p95, p99, worst case and an
//! ASCII histogram over one broadcast, plus the step at which each
//! percentile of the network is reached. This is the "erratic variation of
//! the message arrival times" of the paper's introduction, made visible.

use crate::experiment::{grid, Experiment, Observation, RunOutput};
use crate::report::{f2, Table};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wormcast_broadcast::Algorithm;
use wormcast_network::{NetworkConfig, OpId};
use wormcast_sim::SimTime;
use wormcast_stats::{Histogram, Quantiles};
use wormcast_telemetry::{Observe, TelemetryFrame};
use wormcast_topology::{Mesh, NodeId, Topology};
use wormcast_workload::{attach_collector, network_for, BroadcastTracker, Fed, Ops};

/// Parameters for the arrival-profile experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalParams {
    /// Mesh shape.
    pub shape: [u16; 3],
    /// Message length, flits.
    pub length: u64,
    /// Source node index.
    pub source: u32,
    /// Histogram bins for the sparkline.
    pub bins: usize,
}

impl Default for ArrivalParams {
    fn default() -> Self {
        ArrivalParams {
            shape: [8, 8, 8],
            length: 100,
            source: 77,
            bins: 24,
        }
    }
}

/// The arrival profile of one algorithm's broadcast.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalProfile {
    /// Algorithm short name.
    pub algorithm: String,
    /// Median arrival latency, µs.
    pub p50_us: f64,
    /// 95th-percentile arrival latency, µs.
    pub p95_us: f64,
    /// 99th-percentile arrival latency, µs.
    pub p99_us: f64,
    /// Worst (last) arrival, µs.
    pub max_us: f64,
    /// Interquartile range, µs.
    pub iqr_us: f64,
    /// Destinations delivered per step.
    pub per_step: Vec<(u32, usize)>,
    /// ASCII histogram of arrival latencies.
    pub sparkline: String,
}

impl Experiment for ArrivalParams {
    type Cell = ArrivalProfile;

    /// Run one broadcast per algorithm (one [`grid`] cell each, in
    /// algorithm order) and profile the arrivals. Frames are labelled with
    /// the algorithm's short name.
    fn run<'a>(&self, obs: impl Into<Observation<'a>>) -> RunOutput<ArrivalProfile> {
        let mesh = Mesh::new(&self.shape);
        let cfg = NetworkConfig::paper_default();
        let source = NodeId(self.source % mesh.num_nodes() as u32);
        let rows = grid(
            obs,
            &Algorithm::PAPER,
            1,
            |&alg, _, observe| profile_one(&mesh, cfg, alg, source, self, observe),
            |profile: &mut Option<ArrivalProfile>, p| *profile = Some(p),
        );
        let rows = rows
            .into_iter()
            .map(|(p, _, frame)| (p.expect("one run per algorithm"), frame));
        RunOutput::labeled(rows, |p| p.algorithm.clone())
    }
}

fn profile_one(
    mesh: &Mesh,
    cfg: NetworkConfig,
    alg: Algorithm,
    source: NodeId,
    params: &ArrivalParams,
    observe: Option<Observe<'_>>,
) -> (ArrivalProfile, Option<TelemetryFrame>) {
    let schedule = alg.schedule(mesh, source);
    let mut net = network_for(alg, mesh.clone(), cfg);
    let collector = attach_collector(&mut net, observe);
    let mut ops = Ops::default();
    let tracker = BroadcastTracker::new(mesh, &schedule, OpId(0), params.length);
    ops.launch(&mut net, SimTime::ZERO, tracker);
    let mut step_of: HashMap<NodeId, u32> = HashMap::new();
    let mut finished = None;
    while finished.is_none() {
        let stepped = ops.step(&mut net, |d, fed| {
            step_of.insert(d.node, d.tag);
            if let Fed::Completed(t) = fed {
                finished = Some(t);
            }
        });
        assert!(stepped, "broadcast completes");
    }
    let lats = finished.expect("completed").latencies_us();
    let frame = collector.map(|c| {
        for &l in &lats {
            c.record_arrival_us(l);
        }
        drop(net);
        c.finish()
    });
    let q = Quantiles::new(lats.clone());
    let mut hist = Histogram::new(0.0, q.max() * 1.0001, params.bins);
    for &l in &lats {
        hist.record(l);
    }
    let mut per_step: HashMap<u32, usize> = HashMap::new();
    for &s in step_of.values() {
        *per_step.entry(s).or_insert(0) += 1;
    }
    let mut per_step: Vec<(u32, usize)> = per_step.into_iter().collect();
    per_step.sort_unstable();
    (
        ArrivalProfile {
            algorithm: alg.name().to_string(),
            p50_us: q.median(),
            p95_us: q.p95(),
            p99_us: q.p99(),
            max_us: q.max(),
            iqr_us: q.iqr(),
            per_step,
            sparkline: hist.sparkline(),
        },
        frame,
    )
}

/// Render the profiles.
pub fn table(profiles: &[ArrivalProfile], params: &ArrivalParams) -> Table {
    let mut t = Table::new(
        format!(
            "Node-level arrival profile; {}x{}x{} mesh, L={} flits (one broadcast each)",
            params.shape[0], params.shape[1], params.shape[2], params.length
        ),
        &[
            "alg",
            "p50(us)",
            "p95(us)",
            "p99(us)",
            "max(us)",
            "IQR(us)",
            "arrivals histogram",
        ],
    );
    for p in profiles {
        t.push_row(vec![
            p.algorithm.clone(),
            f2(p.p50_us),
            f2(p.p95_us),
            f2(p.p99_us),
            f2(p.max_us),
            f2(p.iqr_us),
            p.sparkline.clone(),
        ]);
    }
    t
}

/// Render the per-step delivery counts.
pub fn step_table(profiles: &[ArrivalProfile]) -> Table {
    let max_step = profiles
        .iter()
        .flat_map(|p| p.per_step.iter().map(|&(s, _)| s))
        .max()
        .unwrap_or(0);
    let mut cols: Vec<String> = vec!["alg".into()];
    cols.extend((1..=max_step).map(|s| format!("s{s}")));
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("Destinations delivered per message-passing step", &col_refs);
    for p in profiles {
        let mut row = vec![p.algorithm.clone()];
        for s in 1..=max_step {
            let n = p
                .per_step
                .iter()
                .find(|&&(st, _)| st == s)
                .map(|&(_, n)| n)
                .unwrap_or(0);
            row.push(if n == 0 { "-".into() } else { n.to_string() });
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_workload::Runner;

    fn quick() -> ArrivalParams {
        ArrivalParams {
            shape: [4, 4, 4],
            length: 64,
            source: 21,
            bins: 12,
        }
    }

    #[test]
    fn profiles_are_ordered_and_complete() {
        let profiles = quick().run(&Runner::sequential()).cells;
        assert_eq!(profiles.len(), 4);
        for p in &profiles {
            assert!(p.p50_us <= p.p95_us);
            assert!(p.p95_us <= p.p99_us);
            assert!(p.p99_us <= p.max_us);
            let total: usize = p.per_step.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, 63, "{}: every destination counted once", p.algorithm);
            assert_eq!(p.sparkline.chars().count(), 12);
        }
    }

    #[test]
    fn ab_tail_is_tighter_than_rd() {
        let profiles = quick().run(&Runner::sequential()).cells;
        let get = |name: &str| profiles.iter().find(|p| p.algorithm == name).unwrap();
        // The step structure bounds the spread: AB's worst arrival lands far
        // earlier than RD's.
        assert!(get("AB").max_us < get("RD").max_us);
    }

    #[test]
    fn per_step_counts_match_step_structure() {
        let profiles = quick().run(&Runner::sequential()).cells;
        let ab = profiles.iter().find(|p| p.algorithm == "AB").unwrap();
        assert!(ab.per_step.len() <= 3);
        let rd = profiles.iter().find(|p| p.algorithm == "RD").unwrap();
        assert_eq!(
            rd.per_step.len(),
            6,
            "RD delivers in every one of its 6 steps"
        );
        // RD's last step carries half the network.
        assert_eq!(rd.per_step.last().unwrap().1, 32);
    }

    #[test]
    fn tables_render() {
        let params = quick();
        let profiles = params.run(&Runner::sequential()).cells;
        assert!(table(&profiles, &params).render().contains("AB"));
        assert!(step_table(&profiles).render().contains("s1"));
    }
}
