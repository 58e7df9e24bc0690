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

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Events on, runtime metrics off: every frame field is then a pure
/// function of the params, so the export can be pinned.
const PINNED_SPEC: TelemetrySpec = TelemetrySpec {
    events: true,
    profile: false,
};

/// An experiment's three outputs under [`PINNED_SPEC`] on `jobs` workers:
/// the cells JSON, the telemetry export (`wall_ms` zeroed) and the NDJSON
/// event stream. `scrub` clears machine-dependent cell fields first.
fn pinned_outputs<P>(name: &str, params: &P, jobs: usize, scrub: fn(&mut P::Cell)) -> [String; 3]
where
    P: Experiment,
    P::Cell: serde::Serialize,
{
    let (mut cells, frames) = params.run((&Runner::new(jobs), &PINNED_SPEC)).into_parts();
    cells.iter_mut().for_each(scrub);
    [
        to_json(&cells),
        telemetry_json(name, &frames),
        events_ndjson(&frames).0,
    ]
}

/// One row of the pin table: the experiment's name, its run on `jobs`
/// workers, and the pinned `(lines, FNV-1a-64)` of each of its outputs in
/// [`pinned_outputs`] order.
type PinRow = (&'static str, fn(usize) -> [String; 3], [(usize, u64); 3]);

#[test]
fn grid_outputs_are_pinned() {
    use wormcast::experiments::{
        arrivals, faults, fig1_scale, fig34, multicast, saturation, schedules,
    };
    fn keep<C>(_: &mut C) {}
    // Sides, shapes and loads are listed out of sorted order, so the pins
    // also cover how each experiment sorts its cells and frames.
    let table: [PinRow; 9] = [
        (
            "fig1",
            |jobs| {
                let p = fig1::Fig1Params {
                    sides: vec![4, 3],
                    length: 32,
                    runs: 3,
                    ..Default::default()
                };
                pinned_outputs("fig1", &p, jobs, keep)
            },
            [
                (58, 0x9cf5_6ecd_f697_7d23),
                (6943, 0x57e2_1b7d_236b_bc2d),
                (8266, 0xc748_e46d_0b1b_0b3b),
            ],
        ),
        (
            "fig1-scale",
            |jobs| {
                let p = fig1_scale::Fig1ScaleParams {
                    shapes: vec![[4, 4, 4], [4, 4, 2]],
                    length: 32,
                    runs: 2,
                    ..Default::default()
                };
                pinned_outputs("fig1-scale", &p, jobs, |c| c.wall_s = 0.0)
            },
            [
                (54, 0x6a16_ccce_403b_ef7c),
                (3180, 0x0932_e652_e49d_562b),
                (2413, 0xcd2e_982c_cf59_57b6),
            ],
        ),
        (
            "fig2",
            |jobs| {
                let p = fig2::Fig2Params {
                    shapes: vec![[4, 4, 4], [4, 2, 2]],
                    length: 32,
                    runs: 3,
                    broadcast_rate_per_node_per_ms: 1.0,
                    ..Default::default()
                };
                pinned_outputs("fig2", &p, jobs, keep)
            },
            [
                (82, 0xc033_eef4_81a0_77fd),
                (7179, 0x9589_f5a7_5364_9575),
                (7883, 0x5603_6f38_24c4_0f78),
            ],
        ),
        (
            "fig3",
            |jobs| {
                let p = fig34::LoadSweepParams {
                    shape: [4, 4, 4],
                    loads: vec![4.0, 1.0],
                    batch_size: 4,
                    batches: 2,
                    max_sim_ms: 20.0,
                    ..fig34::LoadSweepParams::fig3()
                };
                pinned_outputs("fig3", &p, jobs, keep)
            },
            [
                (106, 0x7b31_43c8_f503_5889),
                (17246, 0x1dd1_7813_9765_9d7c),
                (66014, 0x2ee3_c1a3_459a_7d9b),
            ],
        ),
        (
            "saturation",
            |jobs| {
                let p = saturation::SaturationParams {
                    loads: vec![0.5, 10.0],
                    batch_size: 4,
                    batches: 2,
                    max_sim_ms: 20.0,
                    ..saturation::SaturationParams::quick()
                };
                pinned_outputs("saturation", &p, jobs, keep)
            },
            [
                (56, 0x4af0_a63d_8e27_0e40),
                (12419, 0x5c23_d18f_ac7e_7c62),
                (41928, 0x6524_32f0_0535_20b3),
            ],
        ),
        (
            "multicast",
            |jobs| {
                let p = multicast::MulticastParams {
                    shape: [4, 4, 4],
                    set_sizes: vec![5, 63],
                    runs: 2,
                    ..Default::default()
                };
                pinned_outputs("multicast", &p, jobs, keep)
            },
            [
                (44, 0xe33e_702a_8454_e077),
                (4201, 0xa430_efb2_eb53_a28c),
                (3648, 0x28c1_8f52_a217_dcd3),
            ],
        ),
        (
            "faults",
            |jobs| {
                let p = faults::FaultsParams {
                    side: 4,
                    rates: vec![0.0, 0.05],
                    length: 32,
                    runs: 2,
                    ..Default::default()
                };
                pinned_outputs("faults", &p, jobs, keep)
            },
            [
                (132, 0xc2d3_f93c_f585_3327),
                (9742, 0x5248_bf63_e96e_28ab),
                (8437, 0x3e30_5760_f0e3_71be),
            ],
        ),
        (
            "arrivals",
            |jobs| {
                let p = arrivals::ArrivalParams {
                    shape: [4, 4, 4],
                    length: 32,
                    ..Default::default()
                };
                pinned_outputs("arrivals", &p, jobs, keep)
            },
            [
                (114, 0xc653_f4e4_cd09_523a),
                (3596, 0xcdd4_56f6_6023_8322),
                (1929, 0x9bab_c7f3_7964_c0dc),
            ],
        ),
        (
            "schedules",
            |jobs| {
                let p = schedules::SchedulesParams {
                    runs: 2,
                    ..schedules::SchedulesParams::quick()
                };
                pinned_outputs("schedules", &p, jobs, keep)
            },
            [
                (322, 0x8b25_6e4e_f0c2_c69d),
                (13623, 0xee16_9c89_8ce0_f515),
                (21123, 0x75ea_86fc_baf5_971c),
            ],
        ),
    ];
    let what = ["cells JSON", "telemetry export", "event stream"];
    let mut drift = Vec::new();
    for (name, run, pins) in table {
        let outputs = run(1);
        assert_eq!(outputs, run(3), "{name}: outputs depend on --jobs");
        for ((text, &(lines, digest)), what) in outputs.iter().zip(&pins).zip(what) {
            let got = (text.lines().count(), fnv1a64(text.as_bytes()));
            if got != (lines, digest) {
                drift.push(format!("{name} {what}: ({}, {:#018x})", got.0, got.1));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "pinned outputs drifted:\n{}",
        drift.join("\n")
    );
}
