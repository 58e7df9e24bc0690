//! The `simcheck` binary: run a deterministic scenario-fuzzing campaign.
//!
//! ```text
//! simcheck --seed 2005 --count 200 [--time-budget 60] [--out results/simcheck.json]
//!          [--profile PATH]
//! simcheck --scenario FILE
//! ```
//!
//! Exit status is non-zero if any scenario produced an invariant violation,
//! an engine divergence, or a panic. Failing scenarios are shrunk to a
//! minimal repro and emitted both to stderr and into the JSON report.
//! `--profile PATH` writes the standard profile report (JSON plus a sibling
//! Prometheus `.prom` exposition) over the campaign's driver phases.
//!
//! `--scenario FILE` skips the campaign and runs one explicit scenario:
//! FILE holds either a bare serialized `Scenario` or a full v1
//! `ScenarioRequest` — the same request language `wormcast-serve` speaks —
//! and the scenario is both checked (differential oracle + invariants) and
//! measured, with the canonical request and config hash echoed back.

use serde::{Serialize, Value};
use wormcast_simcheck::{
    campaign, measure_request, run_scenario, scenario_from_json, ScenarioRequest,
};
use wormcast_telemetry::{MetricId, MetricsRegistry, ProfileReport, Profiler, SeriesKey};

struct Opts {
    seed: u64,
    count: u64,
    time_budget_s: u64,
    out: Option<String>,
    profile: Option<String>,
    scenario: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simcheck [--seed N] [--count N] [--time-budget SECONDS] [--out PATH]\n\
         \x20               [--profile PATH]\n\
         \x20      simcheck --scenario FILE [--out PATH]\n\
         \n\
         Runs COUNT deterministic scenarios generated from SEED through the\n\
         differential oracle and the engine invariant checker. The report is\n\
         written to PATH (default: stdout) and is byte-identical across\n\
         reruns of the same campaign unless the time budget truncates it.\n\
         A time budget of 0 (default) means unlimited. --profile writes the\n\
         profile report (JSON + sibling .prom) over the campaign phases.\n\
         --scenario runs one explicit scenario from FILE (a bare Scenario\n\
         or a v1 ScenarioRequest, as served by wormcast-serve) instead."
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: 2005,
        count: 200,
        time_budget_s: 0,
        out: None,
        profile: None,
        scenario: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("simcheck: {name} needs an integer argument");
                usage()
            })
        };
        match a.as_str() {
            "--seed" => opts.seed = num("--seed"),
            "--count" => opts.count = num("--count"),
            "--time-budget" => opts.time_budget_s = num("--time-budget"),
            "--out" => opts.out = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => opts.profile = Some(args.next().unwrap_or_else(|| usage())),
            "--scenario" => opts.scenario = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("simcheck: unknown argument {other}");
                usage()
            }
        }
    }
    opts
}

/// Run one explicit scenario: check it with the full simcheck machinery
/// and measure it, echoing the canonical request + config hash so the file
/// can be replayed verbatim against `wormcast-serve`.
fn run_explicit(path: &str, out: Option<&str>) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("simcheck: cannot read {path}: {e}");
        std::process::exit(2);
    });
    // A full request carries the schema version; fall back to a bare
    // scenario for hand-written files.
    let req = ScenarioRequest::from_json(&text).or_else(|req_err| {
        scenario_from_json(&text)
            .map(ScenarioRequest::new)
            .map_err(|scen_err| {
                format!("neither a v1 request ({req_err}) nor a bare scenario ({scen_err})")
            })
    });
    let req = req.unwrap_or_else(|e| {
        eprintln!("simcheck: {path}: {e}");
        std::process::exit(2);
    });
    eprintln!("canonical request: {}", req.canonical_json());
    eprintln!("config hash: {:016x}", req.config_hash());

    let outcome = run_scenario(&req.scenario);
    let measured = measure_request(&req);
    let mut fields = vec![
        (
            "config_hash".to_string(),
            Value::Str(format!("{:016x}", req.config_hash())),
        ),
        ("clean".to_string(), Value::Bool(outcome.is_clean())),
        (
            "violations".to_string(),
            Value::Array(
                outcome
                    .violations
                    .iter()
                    .map(|v| Value::Str(v.clone()))
                    .collect(),
            ),
        ),
    ];
    if let Some(m) = &outcome.mismatch {
        fields.push(("mismatch".to_string(), Value::Str(m.clone())));
    }
    if let Some(p) = &outcome.panic {
        fields.push(("panic".to_string(), Value::Str(p.clone())));
    }
    match &measured {
        Ok(run) => fields.push(("summary".to_string(), run.summary.to_value())),
        Err(e) => fields.push(("error".to_string(), Value::Str(e.clone()))),
    }
    let json = serde_json::to_string_pretty(&Value::Object(fields)).expect("report serializes");
    match out {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("simcheck: cannot write {path}: {e}");
                std::process::exit(2);
            });
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
    std::process::exit(if outcome.is_clean() && measured.is_ok() {
        0
    } else {
        1
    })
}

fn main() {
    let opts = parse_args();
    if let Some(path) = &opts.scenario {
        run_explicit(path, opts.out.as_deref());
    }
    let mut profiler = Profiler::new();
    if opts.profile.is_some() {
        profiler.open("simcheck");
        profiler.phase("setup");
        profiler.phase("run");
    }
    let report = campaign(opts.seed, opts.count, opts.time_budget_s);
    if let Some(path) = &opts.profile {
        profiler.phase("emit");
        let mut metrics = MetricsRegistry::new();
        metrics.inc_by(
            SeriesKey::plain(MetricId::HarnessReplications),
            report.count,
        );
        let (spans, nd_wall) = profiler.finish();
        let prof = ProfileReport::new("simcheck", spans, nd_wall, metrics);
        let json_path = std::path::Path::new(path);
        let prom_path = json_path.with_extension("prom");
        prof.write(json_path, &prom_path).unwrap_or_else(|e| {
            eprintln!("simcheck: cannot write profile {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {}", json_path.display());
        println!("wrote {}", prom_path.display());
    }
    if report.count < opts.count {
        eprintln!(
            "simcheck: time budget of {}s expired after {} scenarios",
            opts.time_budget_s, report.count
        );
    }
    for f in &report.failures {
        eprintln!(
            "simcheck: scenario {} failed ({}): {}\nminimal repro:\n{}",
            f.index, f.kind, f.detail, f.repro
        );
    }

    let json = report.to_json();
    match &opts.out {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("simcheck: cannot write {path}: {e}");
                std::process::exit(2);
            });
        }
        None => print!("{json}"),
    }
    println!("{}", report.summary());
    if !report.is_clean() {
        std::process::exit(1);
    }
}
