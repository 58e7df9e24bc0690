//! Pinned bytes of `wormcast --trace-dump`.
//!
//! The trace dump is the engine's bounded trace ring rendered as NDJSON.
//! Nothing else pins its bytes: the schema tests only check its shape. This
//! test pins each dump's line count and 64-bit FNV-1a digest, so a refactor
//! of the trace ring, the event record or the NDJSON writer that shifts a
//! single byte shows up here.

use std::process::Command;

const WORMCAST: &str = env!("CARGO_BIN_EXE_wormcast");

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `wormcast --trace-dump <tmp> <args>` and return the dump's bytes.
fn dump(name: &str, args: &[&str]) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let out = Command::new(WORMCAST)
        .arg("--trace-dump")
        .arg(&path)
        .args(args)
        .output()
        .expect("spawn wormcast");
    assert!(
        out.status.success(),
        "wormcast --trace-dump {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).expect("read trace dump");
    let _ = std::fs::remove_file(&path);
    bytes
}

fn assert_pinned(name: &str, args: &[&str], lines: usize, digest: u64) {
    let bytes = dump(name, args);
    let got_lines = bytes.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(got_lines, lines, "trace dump {args:?}: line count drifted");
    assert_eq!(
        fnv1a64(&bytes),
        digest,
        "trace dump {args:?}: bytes drifted ({} bytes)",
        bytes.len()
    );
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn default_trace_dump_is_pinned() {
    assert_pinned("default.ndjson", &[], 2668, 0x4f9c_f898_d4bf_3ad1);
}

#[test]
fn short_message_trace_dump_is_pinned() {
    assert_pinned(
        "len8-seed5.ndjson",
        &["--length", "8", "--seed", "5"],
        2671,
        0xe7f6_20f2_18ac_66c5,
    );
}
