//! Validates the engine micro-bench report: the committed
//! `results/BENCH_engine.json` (and, when `WORMCAST_BENCH_JSON` points at a
//! freshly generated report, that file too — the ci.sh bench-smoke path)
//! must parse as the vendored Criterion schema and contain the
//! classic-vs-active-set comparison the engine rewrite is judged by. Every
//! row of the engine reports, of the committed telemetry, harness, serve and
//! selector reports and of a freshly generated serve report must name its
//! host.
//!
//! The vendored serde facade cannot deserialize, so this uses a scanner
//! matched to the report's fixed machine-generated shape: a JSON array with
//! one flat record per line carrying `id`, `mean_ns`, `min_ns`, `max_ns`,
//! `samples`, `throughput` and `host`.

use std::path::Path;

#[derive(Debug)]
struct BenchRecord {
    id: String,
    mean_ns: f64,
    samples: u64,
}

/// Pull `"key": <value>` out of one record line, up to the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

fn parse_report(path: &Path) -> Vec<BenchRecord> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: unreadable bench report: {e}", path.display()));
    let trimmed = text.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "{}: report is not a JSON array",
        path.display()
    );
    let mut records = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"id\":")) {
        let id = field(line, "id")
            .and_then(|v| v.strip_prefix('"'))
            .and_then(|v| v.strip_suffix('"'))
            .unwrap_or_else(|| panic!("{}: record without string id: {line}", path.display()))
            .to_string();
        let mean_ns: f64 = field(line, "mean_ns")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{id}: mean_ns is not a number"));
        let samples: u64 = field(line, "samples")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{id}: samples is not an integer"));
        records.push(BenchRecord {
            id,
            mean_ns,
            samples,
        });
    }
    assert!(!records.is_empty(), "{}: empty report", path.display());
    records
}

fn validate(path: &Path) {
    let records = parse_report(path);
    for r in &records {
        assert!(r.mean_ns > 0.0, "{}: non-positive mean", r.id);
        assert!(r.samples > 0, "{}: no samples", r.id);
    }
    let mean_of = |needle: &str| {
        records
            .iter()
            .find(|r| r.id.contains(needle))
            .map(|r| r.mean_ns)
    };
    let classic = mean_of("engine_compare/mixed_8x8x8_0.03_classic_heap")
        .expect("report carries the classic-engine baseline");
    let active = mean_of("engine_compare/mixed_8x8x8_0.03_active_set")
        .expect("report carries the active-set measurement");
    // Guard against regressions that make the rewrite pointless; the
    // committed report documents the actual measured ratio.
    assert!(
        active < classic,
        "active-set engine slower than the classic heap stepper \
         ({active:.0} ns vs {classic:.0} ns)"
    );
}

/// Every record must name where it was measured: a `"host"` object with
/// the core count, the compiler, the git revision and the build profile.
fn validate_host(path: &Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: unreadable bench report: {e}", path.display()));
    for line in text.lines().filter(|l| l.contains("\"id\":")) {
        let host = line
            .find("\"host\": {")
            .map(|at| &line[at..])
            .unwrap_or_else(|| panic!("{}: record without host: {line}", path.display()));
        let nproc: u64 = field(host, "nproc")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("host nproc is not an integer: {line}"));
        assert!(nproc >= 1, "host nproc is zero: {line}");
        for key in ["rustc", "git_rev", "profile"] {
            let value = field(host, key).unwrap_or_else(|| panic!("host lacks {key}: {line}"));
            assert!(
                value.len() > 2 && value.starts_with('"') && value.ends_with('"'),
                "host {key} is not a non-empty string: {line}"
            );
        }
    }
}

/// The telemetry-overhead report: the `off` row is the exact unobserved
/// code path, so with instrumentation compiled in it must stay within
/// noise of (never meaningfully above) every observed configuration, and
/// the registry scrape (`profile`) must stay close to the plain
/// histogram+heatmap sinks — the registry is counters and maxes, not a
/// new collection pass.
fn validate_telemetry(path: &Path) {
    let records = parse_report(path);
    let mean_of = |needle: &str| {
        records
            .iter()
            .find(|r| r.id == format!("telemetry_single_broadcast/{needle}"))
            .map(|r| r.mean_ns)
            .unwrap_or_else(|| panic!("report lacks the {needle} row"))
    };
    let off = mean_of("off");
    let histograms = mean_of("histograms");
    let profile = mean_of("profile");
    mean_of("full_events");
    // Generous noise margin: the benches run at sample_size 10 on shared
    // machines. What we guard is the *shape* — the off path carrying
    // observation cost, or the registry dwarfing the sinks it rides on.
    assert!(
        off <= histograms * 1.25,
        "off-path slower than observed runs beyond noise ({off:.0} vs {histograms:.0} ns)"
    );
    assert!(
        off <= profile * 1.25,
        "off-path slower than profiled runs beyond noise ({off:.0} vs {profile:.0} ns)"
    );
    assert!(
        profile <= histograms * 1.5,
        "registry scrape dominates the sink cost ({profile:.0} vs {histograms:.0} ns)"
    );
}

/// The serve-layer report: one cold row (fresh request, engine run) and
/// one warm row (cache replay) over the same scenario shape, each with a
/// measured `p99_ns` tail extra. The contract is the *shape*: a warm
/// answer does strictly less work than a cold one (same canonicalize +
/// hash, no engine run), so its mean must not exceed the cold mean.
fn validate_serve(path: &Path) {
    let records = parse_report(path);
    for r in &records {
        assert!(r.mean_ns > 0.0, "{}: non-positive mean", r.id);
        assert!(r.samples > 0, "{}: no samples", r.id);
    }
    let mean_of = |needle: &str| {
        records
            .iter()
            .find(|r| r.id == format!("serve/{needle}"))
            .map(|r| r.mean_ns)
            .unwrap_or_else(|| panic!("report lacks the {needle} row"))
    };
    let cold = mean_of("cold_4x4_db");
    let warm = mean_of("warm_4x4_db");
    assert!(
        warm <= cold,
        "cache replay no faster than a cold engine run ({warm:.0} vs {cold:.0} ns)"
    );
    let text = std::fs::read_to_string(path).expect("re-read report");
    for row in ["serve/cold_4x4_db", "serve/warm_4x4_db"] {
        let line = text.lines().find(|l| l.contains(row)).expect("row exists");
        let p99: f64 = field(line, "p99_ns")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{row}: row lacks a measured p99_ns extra"));
        assert!(p99 > 0.0, "{row}: non-positive p99 ({p99})");
    }
}

#[test]
fn committed_engine_bench_report_is_valid() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_engine.json");
    validate(&path);
    validate_host(&path);
}

#[test]
fn committed_telemetry_bench_report_is_valid() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_telemetry.json");
    validate_telemetry(&path);
    validate_host(&path);
}

#[test]
fn committed_serve_bench_report_is_valid() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_serve.json");
    validate_serve(&path);
    validate_host(&path);
}

/// The harness report: one row per runner, `jobs1/1` and `jobsN/<workers>`
/// over the same replications. With more than one worker the parallel
/// runner must be the faster; with one (a one-core host) the two rows time
/// the same code and say nothing about parallel speed-up.
#[test]
fn committed_harness_bench_report_is_valid() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_harness.json");
    let records = parse_report(&path);
    let row = |prefix: &str| {
        records
            .iter()
            .find(|r| r.id.starts_with(prefix))
            .unwrap_or_else(|| panic!("report lacks the {prefix} row"))
    };
    let single = row("harness_fig1_replications/jobs1/");
    let parallel = row("harness_fig1_replications/jobsN/");
    let workers: usize = parallel
        .id
        .rsplit('/')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{}: no worker count", parallel.id));
    if workers > 1 {
        assert!(
            parallel.mean_ns < single.mean_ns,
            "{workers} workers no faster than one ({:.0} vs {:.0} ns)",
            parallel.mean_ns,
            single.mean_ns
        );
    }
    validate_host(&path);
}

/// The selector report written by `scripts/bench_selectors.py`: one row
/// per selector of `wormcast all` and mode (`quick`, `full`), each with
/// its wall time and peak RSS measured in its own process, and each full
/// run's output identical to the committed result. A record of where the
/// end-to-end time goes, so nothing here bounds a time.
#[test]
fn committed_selector_report_is_valid() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_selectors.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: unreadable selector report: {e}", path.display()));
    let number = |line: &str, key: &str| -> f64 {
        field(line, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{key} is not a number: {line}"))
    };
    let mut ids = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"id\":")) {
        let string = |key: &str| {
            field(line, key)
                .and_then(|v| v.strip_prefix('"')?.strip_suffix('"'))
                .unwrap_or_else(|| panic!("{key} is not a string: {line}"))
                .to_string()
        };
        let (id, selector, mode) = (string("id"), string("selector"), string("mode"));
        assert_eq!(id, format!("selectors/{selector}/{mode}"), "{line}");
        assert!(number(line, "jobs") >= 1.0, "{line}");
        assert!(number(line, "runs") >= 1.0, "{line}");
        let (wall, fastest) = (number(line, "wall_s"), number(line, "wall_s_min"));
        assert!(0.0 < fastest && fastest <= wall, "{line}");
        assert!(number(line, "peak_rss_mib") > 0.0, "{line}");
        assert!(number(line, "rss_floor_mib") > 0.0, "{line}");
        let matches = field(line, "matches_committed");
        match mode.as_str() {
            "quick" => assert_eq!(matches, None, "{line}"),
            "full" => assert_eq!(matches, Some("true"), "{line}"),
            _ => panic!("unknown mode: {line}"),
        }
        ids.push(id);
    }
    let want: Vec<String> = ["quick", "full"]
        .iter()
        .flat_map(|mode| {
            wormcast_experiments::suite::SUITE
                .iter()
                .filter(|s| s.in_all)
                .map(move |s| format!("selectors/{}/{mode}", s.name))
        })
        .collect();
    assert_eq!(ids, want, "one row per selector of `wormcast all` and mode");
    validate_host(&path);
}

#[test]
fn env_provided_serve_bench_report_is_valid() {
    // Set by ci.sh's serve bench smoke; absent otherwise.
    if let Ok(path) = std::env::var("WORMCAST_BENCH_SERVE_JSON") {
        validate_serve(Path::new(&path));
        validate_host(Path::new(&path));
    }
}

#[test]
fn env_provided_bench_report_is_valid() {
    // Set by ci.sh's bench smoke to the just-generated report; absent in a
    // plain `cargo test` run.
    if let Ok(path) = std::env::var("WORMCAST_BENCH_JSON") {
        validate(Path::new(&path));
        validate_host(Path::new(&path));
    }
}
