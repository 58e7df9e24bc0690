//! An output path the driver cannot write is a user error, not a crash:
//! `wormcast` prints `error: cannot write <path>: <reason>` and exits 1
//! instead of panicking after the run. `/dev/null/…` cannot be created on
//! any Unix host, whoever runs the test.

use std::process::Command;

const WORMCAST: &str = env!("CARGO_BIN_EXE_wormcast");

fn expect_write_error(args: &[&str], path: &str) {
    let out = Command::new(WORMCAST)
        .args(args)
        .output()
        .expect("spawn wormcast");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "wormcast {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "wormcast {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("error: cannot write {path}: ")),
        "wormcast {args:?} should name {path}, got: {stderr}"
    );
}

#[cfg(unix)]
#[test]
fn unwritable_results_directory_exits_1() {
    expect_write_error(
        &["steps", "--quick", "--out", "/dev/null/x"],
        "/dev/null/x/steps.json",
    );
}

#[cfg(unix)]
#[test]
fn unwritable_trace_dump_exits_1() {
    expect_write_error(
        &["--trace-dump", "/dev/null/t.ndjson"],
        "/dev/null/t.ndjson",
    );
}

#[cfg(unix)]
#[test]
fn unwritable_telemetry_outputs_exit_1() {
    expect_write_error(
        &["fig1", "--quick", "--telemetry", "/dev/null/d"],
        "/dev/null/d/fig1.telemetry.json",
    );
    expect_write_error(
        &["fig1", "--quick", "--events", "/dev/null/e.ndjson"],
        "/dev/null/e-fig1.ndjson",
    );
    expect_write_error(
        &["fig1", "--quick", "--profile", "/dev/null/p.json"],
        "/dev/null/p-fig1.json",
    );
}
