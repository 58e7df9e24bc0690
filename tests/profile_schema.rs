//! Schema and determinism validation for the `--profile` report.
//!
//! Contract (documented in DESIGN.md §4.7): the report is hand-rendered so
//! that every execution-dependent datum (span wall clocks, harness wall
//! clocks and queue depths, event-list work) lands on a line whose
//! first key starts with `nd_`. Stripping those lines (`strip_nd`, or
//! `grep -v '"nd_'` in `ci.sh`) yields a byte-comparable skeleton that
//! must be identical across `--jobs` for fixed physics.
//! These tests enforce the contract in-process; `ci.sh` re-runs the
//! env-gated test below against a report freshly produced by the release
//! `fig1` binary (path handed over via `WORMCAST_PROFILE_FILE`).

use wormcast::experiments::fig1;
use wormcast::prelude::*;
use wormcast::telemetry::{
    strip_nd, MetricId, MetricsRegistry, ProfileReport, Profiler, PROFILE_SCHEMA,
};

/// Build a profile report the way the drivers do: run fig1 under `jobs`
/// workers with metric scraping on, merge every cell frame's registry in
/// cell order, and wrap it in the standard driver span tree.
fn fig1_report(jobs: usize) -> ProfileReport {
    let params = fig1::Fig1Params {
        sides: vec![4],
        length: 32,
        startup_us: 1.5,
        runs: 4,
        seed: 7,
    };
    let spec = TelemetrySpec {
        profile: true,
        ..TelemetrySpec::default()
    };
    let (_, frames) = params.run((&Runner::new(jobs), &spec)).into_parts();
    assert!(!frames.is_empty(), "profiled run produces frames");
    let mut metrics = MetricsRegistry::new();
    for f in &frames {
        metrics.merge(&f.frame.metrics);
    }
    let mut p = Profiler::new();
    p.open("fig1");
    p.phase("setup");
    p.phase("run");
    p.phase("merge");
    p.phase("emit");
    let (spans, nd_wall) = p.finish();
    ProfileReport::new("fig1", spans, nd_wall, metrics)
}

/// Validate the line-level report layout shared by every producer. The
/// vendored serde facade has no deserializer, so this is deliberately a
/// line-level check — the same one the env-gated CI test applies to
/// binary-produced reports.
fn validate_report_json(json: &str, context: &str) {
    assert!(json.starts_with("{\n"), "{context}: not a JSON object");
    assert!(json.ends_with("}\n"), "{context}: unterminated object");
    assert!(
        json.contains(&format!("\"schema\": {PROFILE_SCHEMA},")),
        "{context}: missing schema version"
    );
    assert!(json.contains("\"tool\": \"wormcast\","), "{context}");
    assert!(json.contains("\"kind\": \"profile\","), "{context}");
    for phase in ["setup", "run", "merge", "emit"] {
        assert!(
            json.contains(&format!("\"name\": \"{phase}\"")),
            "{context}: missing driver phase {phase}"
        );
    }
    let metric_lines = json.lines().filter(|l| l.contains("\"id\": \"")).count();
    assert_eq!(
        metric_lines,
        MetricId::ALL.len(),
        "{context}: metrics array must list the full catalog"
    );
    assert!(
        json.lines().any(|l| l.contains("\"nd_span_wall_ns\"")),
        "{context}: missing span wall-clock line"
    );
    assert!(
        json.lines().any(|l| l.contains("\"nd_series\"")),
        "{context}: missing nd series line"
    );
    // Every metric id in the catalog appears by name.
    for id in MetricId::ALL {
        assert!(
            json.contains(&format!("\"id\": \"{}\"", id.name())),
            "{context}: catalog missing {}",
            id.name()
        );
    }
}

#[test]
fn fig1_report_skeleton_is_byte_identical_across_job_counts() {
    let a = fig1_report(1).to_json();
    let b = fig1_report(4).to_json();
    validate_report_json(&a, "jobs=1");
    validate_report_json(&b, "jobs=4");
    assert_eq!(
        strip_nd(&a),
        strip_nd(&b),
        "profile skeleton depends on --jobs"
    );
}

#[test]
fn deterministic_metric_values_do_not_depend_on_jobs() {
    let a = fig1_report(1);
    let b = fig1_report(4);
    for &id in MetricId::ALL.iter().filter(|id| id.deterministic()) {
        assert_eq!(
            a.metrics.counter_total(id),
            b.metrics.counter_total(id),
            "deterministic metric {} depends on --jobs",
            id.name()
        );
    }
    assert!(
        a.metrics
            .counter_total(MetricId::EngineWheelEventsScheduled)
            > 0,
        "engine instrumentation recorded no scheduled events"
    );
    assert!(
        a.metrics.counter_total(MetricId::HarnessReplications) > 0,
        "harness instrumentation recorded no replications"
    );
}

#[test]
fn profiling_does_not_change_physics() {
    // Compiled-in instrumentation must be inert for results: the same run
    // with and without metric scraping yields byte-identical cells.
    let params = fig1::Fig1Params {
        sides: vec![4],
        length: 32,
        startup_us: 1.5,
        runs: 4,
        seed: 7,
    };
    let plain = serde_json::to_string(&params.run(&Runner::new(1)).cells).expect("serialize");
    let spec = TelemetrySpec {
        profile: true,
        ..TelemetrySpec::default()
    };
    let profiled =
        serde_json::to_string(&params.run((&Runner::new(1), &spec)).cells).expect("serialize");
    assert_eq!(plain, profiled, "profiling perturbed the physics");
}

/// ci.sh runs the release `fig1` binary with `--profile`, then re-runs this
/// test with `WORMCAST_PROFILE_FILE` pointing at the produced report — the
/// end-to-end check that the shipped binaries emit schema-valid profiles
/// with a populated Prometheus sibling.
#[test]
fn external_profile_file_validates_when_provided() {
    let Ok(path) = std::env::var("WORMCAST_PROFILE_FILE") else {
        return;
    };
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read WORMCAST_PROFILE_FILE={path}: {e}"));
    validate_report_json(&json, &path);
    let prom_path = std::path::Path::new(&path).with_extension("prom");
    let prom = std::fs::read_to_string(&prom_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", prom_path.display()));
    assert!(
        prom.contains("# TYPE"),
        "{}: missing Prometheus TYPE headers",
        prom_path.display()
    );
    println!("validated {path} (+ {})", prom_path.display());
}
