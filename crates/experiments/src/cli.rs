//! Command-line option handling for the `wormcast` experiment driver.
//!
//! Flags split into two layers that other frontends can reuse without the
//! argv parser:
//!
//! * [`RunOptions`] — how to *execute*: quick mode, seed / start-up /
//!   length overrides, harness jobs.
//! * [`OutputSpec`] — where results and observability streams *land*:
//!   the result JSON directory, telemetry report directory, NDJSON event
//!   stream, trace dump, profile report.
//!
//! [`CommonOpts`] composes both plus the leftover arguments: the selectors
//! and the selector-owned flags, which [`crate::suite::select`] resolves. A
//! missing or malformed value is an error, not a panic, so the driver can
//! exit 2 with a usage line.

use wormcast_telemetry::TelemetrySpec;
use wormcast_workload::Runner;

/// The flags [`CommonOpts::parse_from`] takes, as a usage-line fragment.
pub const COMMON_USAGE: &str = "[--quick] [--out DIR] [--seed N] [--ts US] [--length F] \
     [--jobs N] [--telemetry DIR] [--events PATH] [--trace-dump PATH] \
     [--profile PATH]";

/// Print `error: {msg}` and the usage line `{bin} {args}{COMMON_USAGE}` to
/// stderr, then exit with status 2.
pub fn usage_exit(bin: &str, args: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {bin} {args}{COMMON_USAGE}");
    std::process::exit(2);
}

/// Execution knobs: everything that decides *how* an experiment runs.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Reduce run counts / batch sizes for a fast smoke pass.
    pub quick: bool,
    /// RNG seed override.
    pub seed: Option<u64>,
    /// Start-up latency override, µs.
    pub startup_us: Option<f64>,
    /// Message length override, flits.
    pub length: Option<u64>,
    /// Worker threads for the replication harness (`--jobs N`; 0 or absent
    /// means one per available core). Results are identical for any value.
    pub jobs: Option<usize>,
}

impl RunOptions {
    /// The replication [`Runner`] these options imply.
    pub fn runner(&self) -> Runner {
        Runner::new(self.jobs.unwrap_or(0))
    }
}

/// Output destinations: everything that decides *where* results and
/// observability streams land.
#[derive(Debug, Clone, Default)]
pub struct OutputSpec {
    /// Directory results are written to as JSON (created if missing);
    /// `None` disables persistence.
    pub out_dir: Option<std::path::PathBuf>,
    /// Directory telemetry exports are written to (`--telemetry DIR`);
    /// `None` disables telemetry collection entirely (zero-cost).
    pub telemetry: Option<std::path::PathBuf>,
    /// Path the NDJSON event stream is written to (`--events PATH`);
    /// implies telemetry collection.
    pub events: Option<std::path::PathBuf>,
    /// Path a single-run engine trace is dumped to as NDJSON
    /// (`--trace-dump PATH`; honoured by the `wormcast` driver).
    pub trace_dump: Option<std::path::PathBuf>,
    /// Path the profile report is written to (`--profile PATH`); a
    /// Prometheus text exposition lands next to it with the extension
    /// `.prom`. Implies telemetry collection with the profile bit set —
    /// replications scrape engine/harness metrics into their frames.
    pub profile: Option<std::path::PathBuf>,
}

impl OutputSpec {
    /// The telemetry spec implied by the destinations: `None` unless
    /// `--telemetry`, `--events` or `--profile` was given (so unobserved
    /// runs stay on the exact pre-telemetry code path), with the event
    /// stream enabled only when `--events` names a destination and metric
    /// scraping only when `--profile` does.
    pub fn telemetry_spec(&self) -> Option<TelemetrySpec> {
        if self.telemetry.is_none() && self.events.is_none() && self.profile.is_none() {
            return None;
        }
        Some(TelemetrySpec {
            events: self.events.is_some(),
            profile: self.profile.is_some(),
        })
    }
}

/// Options common to every experiment selector: execution knobs, output
/// destinations and the remaining positional arguments.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// How to run.
    pub run: RunOptions,
    /// Where outputs land.
    pub output: OutputSpec,
    /// Arguments the common parser did not recognise, in order.
    pub rest: Vec<String>,
}

impl CommonOpts {
    /// Parse the flags of [`COMMON_USAGE`] from `args` (the process
    /// arguments after the program name); anything else lands in `rest`.
    ///
    /// # Errors
    /// A one-line message for a flag whose value is missing or malformed,
    /// including a `--ts` that is negative or not finite and a zero
    /// `--length`.
    pub fn parse_from(args: impl Iterator<Item = String>) -> Result<CommonOpts, String> {
        let (mut o, mut it) = (CommonOpts::default(), args);
        while let Some(a) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
            match a.as_str() {
                "--quick" => o.run.quick = true,
                "--out" => o.output.out_dir = Some(value("a directory")?.into()),
                "--seed" => o.run.seed = Some(number(&a, value("an integer")?)?),
                "--ts" => {
                    let ts: f64 = number(&a, value("a value in us")?)?;
                    if !(ts.is_finite() && ts >= 0.0) {
                        return Err(format!("--ts must be a finite time >= 0 us, got '{ts}'"));
                    }
                    o.run.startup_us = Some(ts);
                }
                "--length" => {
                    let flits: u64 = number(&a, value("a flit count")?)?;
                    if flits == 0 {
                        return Err("--length must be at least 1 flit, got '0'".to_string());
                    }
                    o.run.length = Some(flits);
                }
                "--jobs" => o.run.jobs = Some(number(&a, value("a worker count")?)?),
                "--telemetry" => o.output.telemetry = Some(value("a directory")?.into()),
                "--events" => o.output.events = Some(value("a file path")?.into()),
                "--trace-dump" => o.output.trace_dump = Some(value("a file path")?.into()),
                "--profile" => o.output.profile = Some(value("a file path")?.into()),
                _ => o.rest.push(a),
            }
        }
        Ok(o)
    }
}

/// Parse `flag`'s value as a number.
fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} must be a number, got '{v}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonOpts {
        CommonOpts::parse_from(args.iter().map(|s| s.to_string())).expect("valid flags")
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert!(!o.run.quick);
        assert!(o.output.out_dir.is_none());
        assert!(o.run.jobs.is_none());
        assert!(o.rest.is_empty());
        assert!(o.run.runner().jobs() >= 1);
    }

    #[test]
    fn all_flags() {
        let o = parse(&[
            "--quick", "--out", "results", "--seed", "9", "--ts", "0.15", "--length", "64",
            "--jobs", "3", "all",
        ]);
        assert!(o.run.quick);
        assert_eq!(o.run.seed, Some(9));
        assert_eq!(o.run.startup_us, Some(0.15));
        assert_eq!(o.run.length, Some(64));
        assert_eq!(o.run.jobs, Some(3));
        assert_eq!(o.run.runner().jobs(), 3);
        assert_eq!(o.rest, vec!["all"]);
        assert_eq!(o.output.out_dir.unwrap().to_str().unwrap(), "results");
    }

    #[test]
    fn telemetry_flags() {
        let o = parse(&[]);
        assert!(
            o.output.telemetry_spec().is_none(),
            "telemetry off by default"
        );

        let o = parse(&["--telemetry", "t-out"]);
        let spec = o.output.telemetry_spec().expect("spec on");
        assert!(!spec.events && !spec.profile);
        assert_eq!(o.output.telemetry.unwrap().to_str().unwrap(), "t-out");

        let o = parse(&["--events", "ev.ndjson"]);
        let spec = o.output.telemetry_spec().expect("events imply telemetry");
        assert!(spec.events);
        assert!(o.output.telemetry.is_none());

        let o = parse(&["--trace-dump", "trace.ndjson"]);
        assert!(
            o.output.telemetry_spec().is_none(),
            "trace dump alone ≠ telemetry"
        );
        assert_eq!(
            o.output.trace_dump.unwrap().to_str().unwrap(),
            "trace.ndjson"
        );
    }

    #[test]
    fn profile_flag_implies_telemetry_with_profile_bit() {
        let o = parse(&["--profile", "prof.json"]);
        let spec = o
            .output
            .telemetry_spec()
            .expect("profile implies telemetry");
        assert!(spec.profile);
        assert!(!spec.events);
        assert_eq!(o.output.profile.unwrap().to_str().unwrap(), "prof.json");

        let o = parse(&["--telemetry", "t-out"]);
        let spec = o.output.telemetry_spec().expect("spec on");
        assert!(!spec.profile, "telemetry alone keeps metric scraping off");
    }

    #[test]
    fn jobs_zero_means_auto() {
        let o = parse(&["--jobs", "0"]);
        assert_eq!(o.run.jobs, Some(0));
        assert!(o.run.runner().jobs() >= 1);
    }

    #[test]
    fn leftover_arguments_are_kept_in_order() {
        let o = parse(&["--shards", "4", "--jobs", "2", "fig1", "--loads", "1"]);
        assert_eq!(o.rest, vec!["--shards", "4", "fig1", "--loads", "1"]);
        assert_eq!(o.run.jobs, Some(2));
    }

    #[test]
    fn missing_or_malformed_values_are_rejected() {
        for (args, msg) in [
            (&["--seed", "x"][..], "--seed must be a number, got 'x'"),
            (&["--ts", "abc"], "--ts must be a number, got 'abc'"),
            (
                &["--ts", "-1"],
                "--ts must be a finite time >= 0 us, got '-1'",
            ),
            (
                &["--ts", "nan"],
                "--ts must be a finite time >= 0 us, got 'NaN'",
            ),
            (
                &["--ts", "inf"],
                "--ts must be a finite time >= 0 us, got 'inf'",
            ),
            (&["--length", "0"], "--length must be at least 1 flit"),
            (&["--jobs"], "--jobs needs a worker count"),
            (&["--quick", "--out"], "--out needs a directory"),
        ] {
            let e = CommonOpts::parse_from(args.iter().map(|s| s.to_string()))
                .expect_err(&format!("{args:?} must be rejected"));
            assert!(e.contains(msg), "{args:?}: {e}");
        }
    }
}
