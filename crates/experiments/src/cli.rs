//! Command-line option handling shared by the experiment binaries.
//!
//! Flags split into two layers that other frontends can reuse without the
//! argv parser:
//!
//! * [`RunOptions`] — how to *execute*: quick mode, seed / start-up /
//!   length overrides, harness jobs, a schedule file.
//! * [`OutputSpec`] — where results and observability streams *land*:
//!   the result JSON directory, telemetry report directory, NDJSON event
//!   stream, trace dump, profile report.
//!
//! [`CommonOpts`] composes both plus the leftover arguments. A binary that
//! takes no arguments of its own parses with [`CommonOpts::parse_strict`],
//! so a leftover flag (a typo such as `--job 4`, or a retired one such as
//! `--shards`) exits 2 with a usage line instead of being ignored.

use wormcast_telemetry::TelemetrySpec;
use wormcast_workload::Runner;

/// The flags [`CommonOpts::parse`] takes, as a usage-line fragment.
pub const COMMON_USAGE: &str = "[--quick] [--out DIR] [--seed N] [--ts US] [--length F] \
     [--jobs N] [--schedule FILE] [--telemetry DIR] [--events PATH] [--trace-dump PATH] \
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
    /// Path to a schedule JSON file (`--schedule FILE`), the same object a
    /// v2 `ScenarioRequest` embeds under `scenario.schedule`. Honoured by
    /// the schedule-aware drivers (the `schedules` experiment and serve).
    pub schedule: Option<std::path::PathBuf>,
}

impl RunOptions {
    /// The replication [`Runner`] these options imply.
    pub fn runner(&self) -> Runner {
        Runner::new(self.jobs.unwrap_or(0))
    }

    /// Load and strictly decode the `--schedule FILE` schedule, if one was
    /// given.
    ///
    /// # Errors
    /// A one-line message naming the file and the offending field.
    pub fn load_schedule(&self) -> Result<Option<wormcast_sim::Schedule>, String> {
        let Some(path) = &self.schedule else {
            return Ok(None);
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("--schedule {}: {e}", path.display()))?;
        wormcast_simcheck::schedule_from_json(&text)
            .map(Some)
            .map_err(|e| format!("--schedule {}: {e}", path.display()))
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
    /// (`--trace-dump PATH`; honoured by the `wormcast` umbrella binary).
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
            ..TelemetrySpec::default()
        })
    }
}

/// Options common to every experiment binary: execution knobs, output
/// destinations and the remaining positional arguments.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// How to run.
    pub run: RunOptions,
    /// Where outputs land.
    pub output: OutputSpec,
    /// Arguments the common parser did not recognise, in order.
    pub rest: Vec<String>,
}

impl CommonOpts {
    /// See [`RunOptions::runner`].
    pub fn runner(&self) -> Runner {
        self.run.runner()
    }

    /// See [`OutputSpec::telemetry_spec`].
    pub fn telemetry_spec(&self) -> Option<TelemetrySpec> {
        self.output.telemetry_spec()
    }

    /// [`CommonOpts::parse`] for a binary that takes no arguments of its
    /// own: a leftover flag exits 2 with a usage line for `bin`.
    pub fn parse_strict(bin: &str) -> CommonOpts {
        let o = Self::parse();
        if let Some(flag) = o.unknown_flag() {
            usage_exit(bin, "", &format!("unknown flag '{flag}'"));
        }
        o
    }

    /// The first leftover argument that looks like a flag.
    pub fn unknown_flag(&self) -> Option<&str> {
        self.rest
            .iter()
            .map(String::as_str)
            .find(|a| a.starts_with("--"))
    }

    /// Parse the flags of [`COMMON_USAGE`] from the process arguments;
    /// anything else lands in `rest`.
    ///
    /// # Panics
    /// Panics with a usage message on malformed values — these are developer
    /// tools, not user-facing software.
    pub fn parse() -> CommonOpts {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit argument iterator (testable).
    pub fn parse_from(args: impl Iterator<Item = String>) -> CommonOpts {
        let mut o = CommonOpts {
            run: RunOptions::default(),
            output: OutputSpec::default(),
            rest: Vec::new(),
        };
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => o.run.quick = true,
                "--out" => {
                    let v = it.next().expect("--out needs a directory");
                    o.output.out_dir = Some(v.into());
                }
                "--seed" => {
                    o.run.seed = Some(
                        it.next()
                            .expect("--seed needs a value")
                            .parse()
                            .expect("--seed must be an integer"),
                    );
                }
                "--ts" => {
                    o.run.startup_us = Some(
                        it.next()
                            .expect("--ts needs a value in us")
                            .parse()
                            .expect("--ts must be a number"),
                    );
                }
                "--length" => {
                    o.run.length = Some(
                        it.next()
                            .expect("--length needs a flit count")
                            .parse()
                            .expect("--length must be an integer"),
                    );
                }
                "--jobs" => {
                    o.run.jobs = Some(
                        it.next()
                            .expect("--jobs needs a worker count (0 = auto)")
                            .parse()
                            .expect("--jobs must be an integer"),
                    );
                }
                "--schedule" => {
                    let v = it.next().expect("--schedule needs a JSON file path");
                    o.run.schedule = Some(v.into());
                }
                "--telemetry" => {
                    let v = it.next().expect("--telemetry needs a directory");
                    o.output.telemetry = Some(v.into());
                }
                "--events" => {
                    let v = it.next().expect("--events needs a file path");
                    o.output.events = Some(v.into());
                }
                "--trace-dump" => {
                    let v = it.next().expect("--trace-dump needs a file path");
                    o.output.trace_dump = Some(v.into());
                }
                "--profile" => {
                    let v = it.next().expect("--profile needs a file path");
                    o.output.profile = Some(v.into());
                }
                other => o.rest.push(other.to_string()),
            }
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonOpts {
        CommonOpts::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert!(!o.run.quick);
        assert!(o.output.out_dir.is_none());
        assert!(o.run.jobs.is_none());
        assert!(o.rest.is_empty());
        assert!(o.runner().jobs() >= 1);
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
        assert_eq!(o.runner().jobs(), 3);
        assert_eq!(o.rest, vec!["all"]);
        assert_eq!(o.output.out_dir.unwrap().to_str().unwrap(), "results");
    }

    #[test]
    fn telemetry_flags() {
        let o = parse(&[]);
        assert!(o.telemetry_spec().is_none(), "telemetry off by default");

        let o = parse(&["--telemetry", "t-out"]);
        let spec = o.telemetry_spec().expect("spec on");
        assert!(spec.phases && spec.heatmap && !spec.events);
        assert_eq!(o.output.telemetry.unwrap().to_str().unwrap(), "t-out");

        let o = parse(&["--events", "ev.ndjson"]);
        let spec = o.telemetry_spec().expect("events imply telemetry");
        assert!(spec.events);
        assert!(o.output.telemetry.is_none());

        let o = parse(&["--trace-dump", "trace.ndjson"]);
        assert!(o.telemetry_spec().is_none(), "trace dump alone ≠ telemetry");
        assert_eq!(
            o.output.trace_dump.unwrap().to_str().unwrap(),
            "trace.ndjson"
        );
    }

    #[test]
    fn profile_flag_implies_telemetry_with_profile_bit() {
        let o = parse(&["--profile", "prof.json"]);
        let spec = o.telemetry_spec().expect("profile implies telemetry");
        assert!(spec.profile);
        assert!(!spec.events);
        assert_eq!(o.output.profile.unwrap().to_str().unwrap(), "prof.json");

        let o = parse(&["--telemetry", "t-out"]);
        let spec = o.telemetry_spec().expect("spec on");
        assert!(!spec.profile, "telemetry alone keeps metric scraping off");
    }

    #[test]
    fn jobs_zero_means_auto() {
        let o = parse(&["--jobs", "0"]);
        assert_eq!(o.run.jobs, Some(0));
        assert!(o.runner().jobs() >= 1);
    }

    #[test]
    fn leftover_flags_are_found() {
        assert_eq!(parse(&["--quick", "all"]).unknown_flag(), None);
        assert_eq!(
            parse(&["--quick", "--job", "4"]).unknown_flag(),
            Some("--job")
        );
        let o = parse(&["--shards", "4", "--jobs", "2"]);
        assert_eq!(o.unknown_flag(), Some("--shards"));
        assert_eq!(o.rest, vec!["--shards", "4"]);
        assert_eq!(o.run.jobs, Some(2));
    }

    #[test]
    #[should_panic(expected = "--seed must be an integer")]
    fn bad_seed_panics() {
        parse(&["--seed", "x"]);
    }

    #[test]
    fn schedule_flag_loads_and_validates_the_file() {
        assert_eq!(parse(&[]).run.load_schedule().unwrap(), None);

        let dir = std::env::temp_dir().join("wormcast-cli-schedule-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(
            &good,
            r#"{"ramp":{"points":[{"t_us":0.0,"rate":0.5},{"t_us":40.0,"rate":2.0}]}}"#,
        )
        .unwrap();
        let o = parse(&["--schedule", good.to_str().unwrap()]);
        let sched = o.run.load_schedule().unwrap().expect("schedule loaded");
        assert!(sched.ramp.is_some() && sched.modulation.is_none());

        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"surge":{}}"#).unwrap();
        let e = parse(&["--schedule", bad.to_str().unwrap()])
            .run
            .load_schedule()
            .unwrap_err();
        assert!(
            e.contains("bad.json") && e.contains("unknown schedule kind"),
            "{e}"
        );

        let e = parse(&["--schedule", dir.join("absent.json").to_str().unwrap()])
            .run
            .load_schedule()
            .unwrap_err();
        assert!(e.contains("absent.json"), "{e}");
    }
}
