//! Pinned snapshot of the scenario generator.
//!
//! `Scenario::generate`'s doc promises equal arguments give equal
//! scenarios, and the serve layer's cache keys assume the *meaning* of a
//! `(seed, index)` pair never drifts. This test pins seed 0, indices 0..32
//! in canonical-JSON form: any change to the generator's sampling order,
//! the scenario grammar, or its serde encoding shows up as a diff against
//! the committed file instead of silently shifting every campaign and
//! cache key.
//!
//! A second file pins what the serve layer *answers* for the same
//! scenarios: the `MeasureSummary` of `measure_request` (or its error
//! string) plus the event count, so a refactor of the measurement path that
//! shifts the physics shows up as a diff too.
//!
//! A third file pins the bytes of that event stream: per scenario, the
//! line count and 64-bit FNV-1a digest of `run.events.to_ndjson()`, so a
//! refactor of the event record or its NDJSON writer that shifts a single
//! byte shows up even when the event count does not move.
//!
//! To intentionally re-pin after a deliberate grammar change:
//! `WORMCAST_UPDATE_SNAPSHOTS=1 cargo test -p wormcast-simcheck --test
//! scenario_snapshot` and commit the rewritten files.

use wormcast_simcheck::schema::fnv1a64;
use wormcast_simcheck::{
    canonical_json, measure_request, scenario_from_json, Scenario, ScenarioRequest,
};

const SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/scenario_seed0.ndjson"
);

const MEASURE_SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/measure_seed0.ndjson"
);

const EVENTS_SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/measure_events_seed0.ndjson"
);

fn current() -> String {
    let mut s = String::new();
    for i in 0..32 {
        s.push_str(&canonical_json(&Scenario::generate(0, i)));
        s.push('\n');
    }
    s
}

#[test]
fn generator_matches_pinned_snapshot() {
    let now = current();
    if std::env::var_os("WORMCAST_UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(SNAPSHOT, &now).expect("write snapshot");
        eprintln!("rewrote {SNAPSHOT}");
        return;
    }
    let pinned = std::fs::read_to_string(SNAPSHOT)
        .expect("snapshot file missing — run with WORMCAST_UPDATE_SNAPSHOTS=1 to create it");
    for (i, (p, n)) in pinned.lines().zip(now.lines()).enumerate() {
        assert_eq!(
            p, n,
            "Scenario::generate(0, {i}) drifted from the pinned snapshot \
             (rerun with WORMCAST_UPDATE_SNAPSHOTS=1 only if the change is deliberate)"
        );
    }
    assert_eq!(
        pinned.lines().count(),
        now.lines().count(),
        "snapshot line count changed"
    );
}

/// One line per scenario: the request's summary and event count, or the
/// error a rejected scenario answers with.
fn current_measurements() -> String {
    let mut s = String::new();
    for i in 0..32 {
        let mut req = ScenarioRequest::new(Scenario::generate(0, i));
        req.jobs = 1;
        req.outputs.events = true;
        let line = match measure_request(&req) {
            Ok(run) => format!(
                "{{\"index\":{i},\"summary\":{},\"events\":{}}}",
                serde_json::to_string(&run.summary).expect("summary serializes"),
                run.events.map_or(0, |log| log.len())
            ),
            Err(e) => format!(
                "{{\"index\":{i},\"error\":{}}}",
                serde_json::to_string(&e).expect("error serializes")
            ),
        };
        s.push_str(&line);
        s.push('\n');
    }
    s
}

#[test]
fn measurements_match_pinned_snapshot() {
    let now = current_measurements();
    if std::env::var_os("WORMCAST_UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(MEASURE_SNAPSHOT, &now).expect("write snapshot");
        eprintln!("rewrote {MEASURE_SNAPSHOT}");
        return;
    }
    let pinned = std::fs::read_to_string(MEASURE_SNAPSHOT)
        .expect("snapshot file missing — run with WORMCAST_UPDATE_SNAPSHOTS=1 to create it");
    for (i, (p, n)) in pinned.lines().zip(now.lines()).enumerate() {
        assert_eq!(
            p, n,
            "measure_request for Scenario::generate(0, {i}) drifted from the pinned snapshot \
             (rerun with WORMCAST_UPDATE_SNAPSHOTS=1 only if the change is deliberate)"
        );
    }
    assert_eq!(
        pinned.lines().count(),
        now.lines().count(),
        "snapshot line count changed"
    );
}

/// One line per scenario: the line count and FNV-1a-64 digest of the
/// request's NDJSON event stream, or the error a rejected scenario answers
/// with.
fn current_event_digests() -> String {
    let mut s = String::new();
    for i in 0..32 {
        let mut req = ScenarioRequest::new(Scenario::generate(0, i));
        req.jobs = 1;
        req.outputs.events = true;
        let line = match measure_request(&req) {
            Ok(run) => {
                let nd = run.events.map(|log| log.to_ndjson()).unwrap_or_default();
                format!(
                    "{{\"index\":{i},\"lines\":{},\"fnv1a64\":\"{:016x}\"}}",
                    nd.lines().count(),
                    fnv1a64(nd.as_bytes())
                )
            }
            Err(e) => format!(
                "{{\"index\":{i},\"error\":{}}}",
                serde_json::to_string(&e).expect("error serializes")
            ),
        };
        s.push_str(&line);
        s.push('\n');
    }
    s
}

#[test]
fn event_streams_match_pinned_snapshot() {
    let now = current_event_digests();
    if std::env::var_os("WORMCAST_UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(EVENTS_SNAPSHOT, &now).expect("write snapshot");
        eprintln!("rewrote {EVENTS_SNAPSHOT}");
        return;
    }
    let pinned = std::fs::read_to_string(EVENTS_SNAPSHOT)
        .expect("snapshot file missing — run with WORMCAST_UPDATE_SNAPSHOTS=1 to create it");
    for (i, (p, n)) in pinned.lines().zip(now.lines()).enumerate() {
        assert_eq!(
            p, n,
            "event stream for Scenario::generate(0, {i}) drifted from the pinned snapshot \
             (rerun with WORMCAST_UPDATE_SNAPSHOTS=1 only if the change is deliberate)"
        );
    }
    assert_eq!(
        pinned.lines().count(),
        now.lines().count(),
        "snapshot line count changed"
    );
}

#[test]
fn pinned_index_lands_on_a_qab_scenario() {
    // The fifth algorithm must stay reachable from the generator: at seed 0,
    // index 1 draws a QAB workload (and the 32-line snapshot holds several
    // more). A pool change that silently dropped QAB would trip this long
    // before a fuzz campaign noticed the gap.
    let s = Scenario::generate(0, 1);
    assert_eq!(s.workload.algorithm(), wormcast_broadcast::Algorithm::Qab);
    let pinned = std::fs::read_to_string(SNAPSHOT).expect("snapshot file missing");
    assert!(
        pinned.contains("\"Qab\""),
        "pinned snapshot retains QAB coverage"
    );
}

#[test]
fn pinned_snapshot_round_trips() {
    // The committed lines must stay decodable: they double as fixtures for
    // the request schema.
    let pinned = std::fs::read_to_string(SNAPSHOT).expect("snapshot file missing");
    for (i, line) in pinned.lines().enumerate() {
        let s = scenario_from_json(line).unwrap_or_else(|e| panic!("snapshot line {i}: {e}"));
        assert_eq!(s, Scenario::generate(0, i as u64));
    }
}
