//! Every experiment entry point rejects a flag it does not know — a typo
//! such as `--job 4`, or the retired `--shards 4` — before any simulation
//! setup, with exit status 2 and a stderr message naming the flag. These
//! runs are cheap precisely because the check precedes the expensive work.

use std::process::Command;

/// Each binary with the arguments it needs to reach option handling.
const BINARIES: [(&str, &[&str]); 12] = [
    (env!("CARGO_BIN_EXE_arrivals"), &[]),
    (env!("CARGO_BIN_EXE_faults"), &["--quick"]),
    (env!("CARGO_BIN_EXE_fig1"), &["--quick"]),
    (env!("CARGO_BIN_EXE_fig2"), &["--quick"]),
    (env!("CARGO_BIN_EXE_fig3"), &["--quick"]),
    (env!("CARGO_BIN_EXE_fig4"), &["--quick"]),
    (env!("CARGO_BIN_EXE_multicast"), &["--quick"]),
    (env!("CARGO_BIN_EXE_saturation"), &["--quick"]),
    (env!("CARGO_BIN_EXE_show"), &["DB", "4", "0"]),
    (env!("CARGO_BIN_EXE_steps"), &[]),
    (env!("CARGO_BIN_EXE_tables"), &["--quick"]),
    (env!("CARGO_BIN_EXE_wormcast"), &["steps"]),
];

fn expect_rejection(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin)
        .args(args)
        .args([flag, "4"])
        .output()
        .expect("spawn experiment binary");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} {flag} 4 should exit 2, stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("'{flag}'")),
        "{bin} {args:?} stderr should name {flag}, got: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?} stderr should print a usage line, got: {stderr}"
    );
}

#[test]
fn every_binary_rejects_the_retired_shards_flag() {
    for (bin, args) in BINARIES {
        expect_rejection(bin, args, "--shards");
    }
}

#[test]
fn every_binary_rejects_a_misspelt_jobs_flag() {
    for (bin, args) in BINARIES {
        expect_rejection(bin, args, "--job");
    }
}

#[test]
fn umbrella_rejects_a_flag_before_running_an_earlier_selector() {
    // `wormcast all --shards 4` must not run the suite and then complain.
    expect_rejection(env!("CARGO_BIN_EXE_wormcast"), &["all"], "--shards");
    expect_rejection(env!("CARGO_BIN_EXE_wormcast"), &[], "--shards");
}

#[test]
fn malformed_binary_specific_values_exit_2() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_faults"), ["--rates", "x"]),
        (env!("CARGO_BIN_EXE_faults"), ["--side", "x"]),
        (env!("CARGO_BIN_EXE_saturation"), ["--loads", "x"]),
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("spawn experiment binary");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[0]), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn known_flags_are_accepted() {
    // Control: the same check lets the common flags through (steps does not
    // simulate, so this is instant).
    let out = Command::new(env!("CARGO_BIN_EXE_steps"))
        .args(["--jobs", "2", "--seed", "7"])
        .output()
        .expect("spawn steps");
    assert!(
        out.status.success(),
        "steps --jobs 2 should run, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
