//! The campaign report: stable, hand-formatted JSON.
//!
//! The report deliberately contains **no wall-clock data** — two runs of
//! the same campaign (`--seed`, `--count`) over the same build produce
//! byte-identical files, which the CI smoke gate checks with `cmp`.

use crate::scenario::Family;

/// One scenario that did not come back clean.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Scenario index within the campaign.
    pub index: u64,
    /// `"differential"` or `"invariant_only"`.
    pub family: &'static str,
    /// `"violation"`, `"mismatch"` or `"panic"`.
    pub kind: &'static str,
    /// First violation / divergence / panic message.
    pub detail: String,
    /// Debug rendering of the shrunk scenario.
    pub shrunk: String,
    /// Ready-to-paste `#[test]` reproducing the failure.
    pub repro: String,
}

/// Aggregated result of one simcheck campaign.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Master seed.
    pub seed: u64,
    /// Scenarios actually executed (may be below the requested count if the
    /// time budget expired — reruns are only byte-identical when it did not).
    pub count: u64,
    /// Scenarios run differentially on both engines.
    pub differential: u64,
    /// Scenarios run under the invariant checker only.
    pub invariant_only: u64,
    /// Invariant-only scenarios skipped because the build lacks the
    /// `invariants` feature.
    pub skipped: u64,
    /// Scenarios with at least one invariant violation.
    pub violations: u64,
    /// Scenarios where the engines diverged.
    pub mismatches: u64,
    /// Scenarios that panicked (deep-check assertions included).
    pub panics: u64,
    /// Details for every failing scenario.
    pub failures: Vec<Failure>,
}

impl Report {
    /// Fold one outcome into the tallies.
    pub fn tally(&mut self, family: Family, skipped: bool) {
        self.count += 1;
        if skipped {
            self.skipped += 1;
            return;
        }
        match family {
            Family::Differential => self.differential += 1,
            Family::InvariantOnly => self.invariant_only += 1,
        }
    }

    /// Whether the campaign was fully clean.
    pub fn is_clean(&self) -> bool {
        self.violations == 0 && self.mismatches == 0 && self.panics == 0
    }

    /// The one-line tally both the `simcheck` binary and the `wormcast`
    /// selector print.
    pub fn summary(&self) -> String {
        format!(
            "simcheck: {} scenarios ({} differential, {} invariant-only, {} skipped): \
             {} violations, {} mismatches, {} panics",
            self.count,
            self.differential,
            self.invariant_only,
            self.skipped,
            self.violations,
            self.mismatches,
            self.panics
        )
    }

    /// Render the report as deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"count\": {},\n", self.count));
        out.push_str(&format!("  \"differential\": {},\n", self.differential));
        out.push_str(&format!("  \"invariant_only\": {},\n", self.invariant_only));
        out.push_str(&format!("  \"skipped\": {},\n", self.skipped));
        out.push_str(&format!("  \"violations\": {},\n", self.violations));
        out.push_str(&format!("  \"mismatches\": {},\n", self.mismatches));
        out.push_str(&format!("  \"panics\": {},\n", self.panics));
        if self.failures.is_empty() {
            out.push_str("  \"failures\": []\n");
        } else {
            out.push_str("  \"failures\": [\n");
            for (i, f) in self.failures.iter().enumerate() {
                out.push_str("    {\n");
                out.push_str(&format!("      \"index\": {},\n", f.index));
                out.push_str(&format!("      \"family\": {},\n", escape(f.family)));
                out.push_str(&format!("      \"kind\": {},\n", escape(f.kind)));
                out.push_str(&format!("      \"detail\": {},\n", escape(&f.detail)));
                out.push_str(&format!("      \"shrunk\": {},\n", escape(&f.shrunk)));
                out.push_str(&format!("      \"repro\": {}\n", escape(&f.repro)));
                out.push_str(if i + 1 < self.failures.len() {
                    "    },\n"
                } else {
                    "    }\n"
                });
            }
            out.push_str("  ]\n");
        }
        out.push('}');
        out.push('\n');
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_has_stable_shape() {
        let mut r = Report {
            seed: 2005,
            ..Default::default()
        };
        r.tally(Family::Differential, false);
        r.tally(Family::InvariantOnly, false);
        r.tally(Family::InvariantOnly, true);
        let j = r.to_json();
        for key in [
            "\"seed\":",
            "\"count\":",
            "\"differential\":",
            "\"invariant_only\":",
            "\"skipped\":",
            "\"violations\":",
            "\"mismatches\":",
            "\"panics\":",
            "\"failures\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(r.is_clean());
        assert_eq!(j, r.to_json(), "rendering is deterministic");
        assert!(j.contains("\"count\": 3"));
        assert!(j.contains("\"skipped\": 1"));
    }

    #[test]
    fn failures_are_escaped() {
        let mut r = Report::default();
        r.failures.push(Failure {
            index: 3,
            family: "differential",
            kind: "mismatch",
            detail: "line\nwith \"quotes\" and \\slashes\\".into(),
            shrunk: "Scenario { .. }".into(),
            repro: "#[test]\nfn x() {}".into(),
        });
        r.mismatches = 1;
        let j = r.to_json();
        assert!(
            j.contains("line\\nwith \\\"quotes\\\" and \\\\slashes\\\\"),
            "{j}"
        );
        assert!(!r.is_clean());
        // The output parses as the telemetry crate's NDJSON reader would
        // expect of any JSON value: balanced braces, quoted keys.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
