//! Determinism regression tests for the replication harness: the same
//! master seed must produce **byte-identical** serialized experiment
//! results no matter how many worker threads execute the replications.
//!
//! This is the contract that makes `--jobs N` safe to use for published
//! numbers: per-replication RNG streams (`SimRng::for_replication`) make
//! each replication a pure function of `(spec, seed, index)`, and the
//! harness folds outputs in index order, so thread scheduling can never
//! leak into a result. Serializing to JSON and comparing the bytes is the
//! strictest end-to-end form of that claim — it covers every field of
//! every cell, including float formatting.

use wormcast::experiments::telemetry::{events_ndjson, LabeledFrame, TelemetryReport};
use wormcast::experiments::{fig1, fig2};
use wormcast::prelude::*;
use wormcast::telemetry::LatencyHistogram;

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serialize cells")
}

/// The telemetry export with its only nondeterministic field (the
/// manifest's wall-clock duration) zeroed, ready for byte comparison.
fn telemetry_json(name: &str, frames: &[LabeledFrame]) -> String {
    let mut manifest = wormcast::telemetry::RunManifest::new(name);
    manifest.wall_ms = 0.0;
    to_json(&TelemetryReport::new(manifest, frames))
}

#[test]
fn fig1_results_are_byte_identical_across_job_counts() {
    let params = fig1::Fig1Params {
        sides: vec![4, 8],
        length: 64,
        startup_us: 1.5,
        runs: 5,
        seed: 2005,
    };
    let sequential = to_json(&params.run(&Runner::new(1)).cells);
    let parallel = to_json(&params.run(&Runner::new(4)).cells);
    assert_eq!(sequential, parallel, "fig1 output depends on --jobs");
}

#[test]
fn fig2_results_are_byte_identical_across_job_counts() {
    let params = fig2::Fig2Params {
        shapes: vec![[4, 4, 4], [4, 4, 16]],
        length: 64,
        startup_us: 1.5,
        runs: 6,
        broadcast_rate_per_node_per_ms: 1.0,
        seed: 2005,
    };
    let sequential = to_json(&params.run(&Runner::new(1)).cells);
    let parallel = to_json(&params.run(&Runner::new(4)).cells);
    assert_eq!(sequential, parallel, "fig2 output depends on --jobs");
}

#[test]
fn fig1_telemetry_is_byte_identical_across_job_counts() {
    let params = fig1::Fig1Params {
        sides: vec![4, 8],
        length: 64,
        startup_us: 1.5,
        runs: 5,
        seed: 2005,
    };
    let spec = TelemetrySpec::full();
    let (cells_1, frames_1) = params.run((&Runner::new(1), &spec)).into_parts();
    let (cells_4, frames_4) = params.run((&Runner::new(4), &spec)).into_parts();
    // The result JSON stays byte-identical with telemetry enabled — the
    // collector must never perturb the simulation it observes.
    assert_eq!(to_json(&cells_1), to_json(&cells_4));
    // The result JSON also matches an unobserved run bit for bit (zero-cost
    // contract: attaching sinks changes nothing downstream).
    assert_eq!(
        to_json(&cells_1),
        to_json(&params.run(&Runner::new(2)).cells)
    );
    // The telemetry export itself (histograms, heatmaps, merged in
    // replication order) is byte-identical across job counts.
    assert_eq!(
        telemetry_json("fig1", &frames_1),
        telemetry_json("fig1", &frames_4),
        "fig1 telemetry depends on --jobs"
    );
    // And so is the concatenated NDJSON event stream.
    let (nd_1, dropped_1) = events_ndjson(&frames_1);
    let (nd_4, dropped_4) = events_ndjson(&frames_4);
    assert_eq!(nd_1, nd_4, "fig1 event stream depends on --jobs");
    assert_eq!(dropped_1, dropped_4);
    assert!(!nd_1.is_empty(), "events were collected");
}

#[test]
fn fig2_telemetry_is_byte_identical_across_job_counts() {
    let params = fig2::Fig2Params {
        shapes: vec![[4, 4, 4], [4, 4, 16]],
        length: 64,
        startup_us: 1.5,
        runs: 6,
        broadcast_rate_per_node_per_ms: 1.0,
        seed: 2005,
    };
    let spec = TelemetrySpec::full();
    let (cells_1, frames_1) = params.run((&Runner::new(1), &spec)).into_parts();
    let (cells_4, frames_4) = params.run((&Runner::new(4), &spec)).into_parts();
    assert_eq!(to_json(&cells_1), to_json(&cells_4));
    assert_eq!(
        to_json(&cells_1),
        to_json(&params.run(&Runner::new(2)).cells)
    );
    assert_eq!(
        telemetry_json("fig2", &frames_1),
        telemetry_json("fig2", &frames_4),
        "fig2 telemetry depends on --jobs"
    );
    let (nd_1, _) = events_ndjson(&frames_1);
    let (nd_4, _) = events_ndjson(&frames_4);
    assert_eq!(nd_1, nd_4, "fig2 event stream depends on --jobs");
}

#[test]
fn histogram_merge_is_order_independent() {
    // The fixed bucket layout and integer moments make merges exactly
    // commutative and associative: any merge tree over the same set of
    // per-replication histograms yields identical counts and moments.
    let samples: Vec<u64> = (0..2000u64)
        .map(|i| i.wrapping_mul(2654435761) % 1_000_000)
        .collect();
    let parts: Vec<LatencyHistogram> = samples
        .chunks(137)
        .map(|chunk| {
            let mut h = LatencyHistogram::new();
            for &s in chunk {
                h.record_ps(s);
            }
            h
        })
        .collect();
    let forward = {
        let mut acc = LatencyHistogram::new();
        for p in &parts {
            acc.merge(p);
        }
        acc
    };
    let backward = {
        let mut acc = LatencyHistogram::new();
        for p in parts.iter().rev() {
            acc.merge(p);
        }
        acc
    };
    let pairwise = {
        // Balanced binary merge tree.
        let mut layer = parts.clone();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| {
                    let mut acc = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        acc.merge(b);
                    }
                    acc
                })
                .collect();
        }
        layer.pop().unwrap()
    };
    for other in [&backward, &pairwise] {
        assert_eq!(to_json(&forward.export()), to_json(&other.export()));
    }
    let direct = {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record_ps(s);
        }
        h
    };
    assert_eq!(to_json(&forward.export()), to_json(&direct.export()));
}

#[test]
fn seed_changes_results_and_reruns_do_not() {
    let base = fig1::Fig1Params {
        sides: vec![4],
        length: 64,
        startup_us: 1.5,
        runs: 4,
        seed: 7,
    };
    let reseeded = fig1::Fig1Params {
        seed: 8,
        ..base.clone()
    };
    let runner = Runner::new(2);
    let a = to_json(&base.run(&runner).cells);
    let b = to_json(&base.run(&runner).cells);
    let c = to_json(&reseeded.run(&runner).cells);
    assert_eq!(a, b, "same seed must reproduce exactly");
    assert_ne!(a, c, "different seeds must actually change the draw");
}

#[test]
fn saturation_results_are_byte_identical_across_job_counts() {
    // The committed results/saturation.json is regenerated with --jobs N:
    // the QAB cells (queue-aware adaptive selection is exercised on every
    // adaptive leg and on the unicast background) must fold identically no
    // matter how replications are scheduled onto workers.
    let params = wormcast::experiments::saturation::SaturationParams::quick();
    let sequential = to_json(&params.run(&Runner::new(1)).cells);
    let parallel = to_json(&params.run(&Runner::new(4)).cells);
    assert_eq!(sequential, parallel, "saturation output depends on --jobs");
}

#[test]
fn qab_scheduled_scenario_is_byte_identical_across_job_counts() {
    // QAB under a *dynamic* scenario — a load ramp plus periodic link
    // degradation windows: queue depths now vary with time and with the
    // modulated channel speeds, so the queue-aware selection is exercised
    // under exactly the conditions where a scheduling-order leak would show
    // up. The serialized curve must not depend on --jobs.
    use wormcast::experiments::schedules::SchedulesParams;
    use wormcast::sim::{LinkModulation, LoadRamp, Schedule};
    let params = SchedulesParams {
        algorithms: vec![Algorithm::Qab],
        shape: [4, 4, 4],
        schedule: Schedule {
            ramp: Some(LoadRamp::linear(0.5, 2.5, 40.0)),
            modulation: Some(LinkModulation {
                period_us: 10.0,
                duty: 0.5,
                factor: 4,
                fraction: 0.25,
                windows: 4,
            }),
            ..Schedule::default()
        },
        runs: 3,
        ..SchedulesParams::default()
    };
    let sequential = to_json(&params.run(&Runner::new(1)).cells);
    let parallel = to_json(&params.run(&Runner::new(4)).cells);
    assert_eq!(
        sequential, parallel,
        "scheduled QAB output depends on --jobs"
    );
    // The scenario must actually deliver traffic (the ramp offered work).
    assert!(sequential.contains("\"algorithm\": \"QAB\""));
}
