//! Every selector of the `wormcast` driver rejects a flag it does not take
//! — a typo such as `--job 4`, the retired `--shards 4`, a malformed common
//! value, or another selector's own flag — before any simulation setup,
//! with exit status 2, a stderr message naming the flag and a usage line.
//! These runs are cheap precisely because the check precedes the expensive
//! work (`--quick` bounds them should the check ever regress).

use std::process::{Command, Output};
use wormcast_experiments::suite::SUITE;

const WORMCAST: &str = env!("CARGO_BIN_EXE_wormcast");

fn run(bin: &str, args: &[&str]) -> Output {
    let out = Command::new(bin).args(args).output();
    out.expect("spawn experiment binary")
}

fn expect_rejection(bin: &str, args: &[&str], needle: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains("error: ") && stderr.contains(needle) && stderr.contains("usage:"),
        "{bin} {args:?} stderr should name {needle} and print a usage line, got: {stderr}"
    );
}

#[test]
fn every_selector_rejects_unknown_flags_and_malformed_values() {
    for spec in SUITE {
        for (args, needle) in [
            (&["--shards", "4"][..], "unknown flag '--shards'"),
            (&["--job", "4"], "unknown flag '--job'"),
            (&["--seed", "x"], "--seed must be a number, got 'x'"),
            (&["--ts", "abc"], "--ts must be a number, got 'abc'"),
            (&["--ts", "-1"], "--ts must be a finite time >= 0 us"),
            (&["--ts", "nan"], "--ts must be a finite time >= 0 us"),
            (&["--length", "0"], "--length must be at least 1 flit"),
            (&["--jobs"], "--jobs needs a worker count"),
        ] {
            let argv: Vec<&str> = [spec.name, "--quick"].iter().chain(args).copied().collect();
            expect_rejection(WORMCAST, &argv, needle);
        }
    }
    let show = env!("CARGO_BIN_EXE_show");
    expect_rejection(show, &["DB", "4", "0", "--shards", "4"], "'--shards'");
    expect_rejection(show, &["DB", "4", "0", "--job", "4"], "'--job'");
}

#[test]
fn every_selector_rejects_another_selectors_flag() {
    for spec in SUITE {
        for other in SUITE.iter().filter(|o| o.name != spec.name) {
            for (flag, _) in other.flags {
                let needle = format!("'{flag}' belongs to selector '{}'", other.name);
                expect_rejection(WORMCAST, &[spec.name, "--quick", flag, "1"], &needle);
            }
        }
    }
}

#[test]
fn rejection_precedes_every_selector() {
    // `wormcast all --shards 4` must not run the suite and then complain.
    expect_rejection(WORMCAST, &["all", "--shards", "4"], "'--shards'");
    expect_rejection(WORMCAST, &["--shards", "4"], "'--shards'");
    expect_rejection(WORMCAST, &["steps", "fig5"], "unknown experiment 'fig5'");
    expect_rejection(
        WORMCAST,
        &["--trace-dump", "unwritten.ndjson", "--length", "0"],
        "--length must be at least 1 flit",
    );
    for args in [
        ["faults", "--rates", "x"],
        ["faults", "--side", "x"],
        ["faults", "--side", "0"],
        ["faults", "--side", "1"],
        ["faults", "--rates", ""],
        ["faults", "--rates", "nan"],
        ["faults", "--rates", "-0.5"],
        ["faults", "--rates", "0,2"],
        ["saturation", "--loads", "x"],
        ["saturation", "--loads", "0"],
        ["saturation", "--loads", "-1"],
        ["saturation", "--loads", "nan"],
        ["saturation", "--loads", "2,inf"],
        ["schedules", "--schedule", "/nonexistent/schedule.json"],
    ] {
        expect_rejection(WORMCAST, &args, args[1]);
    }
}

#[test]
fn show_rejects_bad_positional_arguments() {
    let show = env!("CARGO_BIN_EXE_show");
    for (args, needle) in [
        (&["XX"][..], "unknown algorithm 'XX'"),
        (&["DB", "x"], "SIDE must be a mesh side >= 2, got 'x'"),
        (&["DB", "0"], "SIDE must be a mesh side >= 2, got '0'"),
        (&["DB", "1"], "SIDE must be a mesh side >= 2, got '1'"),
        (&["DB", "1x2d"], "SIDE must be a mesh side >= 2, got '1x2d'"),
        (&["DB", "4", "y"], "SRC must be a node index, got 'y'"),
        (&["EDN", "4x2d"], "EDN is defined for 3D meshes only"),
    ] {
        expect_rejection(show, args, needle);
    }
    // The smallest accepted meshes render for every algorithm.
    let cubes = ["RD", "EDN", "DB", "AB", "QAB"].map(|alg| [alg, "2"]);
    let planes = ["RD", "DB", "AB", "QAB"].map(|alg| [alg, "2x2d"]);
    for args in cubes.iter().chain(&planes) {
        let out = run(show, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "show {args:?}: {stderr}");
    }
}

#[test]
fn profile_reports_root_at_their_selector_name() {
    let dir = std::env::temp_dir().join(format!("wormcast-prof-root-{}", std::process::id()));
    let prof = dir.join("prof.json");
    let prof = prof.to_str().expect("utf-8 temp path");
    // Also the control for the rejection tests: the common flags pass.
    let args = [
        "steps",
        "schedules",
        "--quick",
        "--jobs",
        "2",
        "--seed",
        "7",
    ];
    let out = run(WORMCAST, &[&args[..], &["--profile", prof]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    for sel in ["steps", "schedules"] {
        let report = std::fs::read_to_string(dir.join(format!("prof-{sel}.json")))
            .unwrap_or_else(|e| panic!("{sel} profile report: {e}"));
        let root = format!("\"experiment\": \"{sel}\"");
        assert!(report.contains(&root), "{sel} report must root at {sel}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
