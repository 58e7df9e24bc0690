//! The workload binary at tiny sizes: one thread, exact and repeatable
//! digests, and traced units that reproduce the plain ones bit for bit.

use serde::Value;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["idle", "loaded", "scale", "observed"];

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key}")),
        _ => panic!("not an object"),
    }
}

fn unit(workload: &str, seed: u64, traced: bool) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wormcast-perfbench"));
    cmd.args([workload, "--seed", &seed.to_string(), "--tiny"]);
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd.output().expect("run the workload binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    serde_json::from_str(stdout.trim()).expect("one JSON line")
}

fn reference() -> Value {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json"))
        .expect("reference.json");
    serde_json::from_str(&text).expect("reference.json parses")
}

#[test]
fn units_run_on_one_thread_and_hold_their_claims() {
    for w in WORKLOADS {
        let r = unit(w, 0, false);
        assert_eq!(get(&r, "threads"), &Value::U64(1), "{w}");
        assert_eq!(get(&r, "claims"), &Value::Array(vec![]), "{w}");
    }
}

#[test]
fn digests_repeat_and_match_the_recorded_references() {
    let refs = reference();
    for w in WORKLOADS {
        for seed in [0, 17] {
            let a = unit(w, seed, false);
            let b = unit(w, seed, false);
            assert_eq!(get(&a, "cells"), get(&b, "cells"), "{w} seed {seed}");
            let Value::U64(program_seed) = get(&a, "program_seed") else {
                panic!("program_seed is an integer")
            };
            let key = format!("tiny-{program_seed}");
            assert_eq!(
                get(&a, "cells"),
                get(get(&refs, w), &key),
                "{w} seed {seed}"
            );
        }
    }
}

#[test]
fn traced_units_reproduce_plain_cells_and_report_layers() {
    for w in WORKLOADS {
        let plain = unit(w, 3, false);
        let traced = unit(w, 3, true);
        assert_eq!(get(&plain, "cells"), get(&traced, "cells"), "{w}");
        let layers = get(&traced, "layers");
        for key in ["network.step_s", "core.schedule_s", "trace.coverage"] {
            let Value::F64(x) = get(layers, key) else {
                panic!("{w}: {key} is a number")
            };
            assert!(*x > 0.0, "{w}: {key} = {x}");
        }
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let a = unit("idle", 0, false);
    let b = unit("idle", 1, false);
    assert_ne!(get(&a, "cells"), get(&b, "cells"));
}
