//! Whole-campaign driver shared by the `simcheck` binary and the
//! `wormcast` driver's `simcheck` selector.

use std::time::Instant;

use crate::report::{Failure, Report};
use crate::run::run_scenario;
use crate::scenario::{Family, Scenario};
use crate::shrink::{repro_test, shrink};

/// Run `count` scenarios generated from `seed` and aggregate the outcomes.
///
/// Every failing scenario is shrunk to a minimal repro and recorded in
/// [`Report::failures`]; the caller decides how to surface them. A non-zero
/// `time_budget_s` truncates the campaign after that many wall-clock
/// seconds (reruns are only byte-identical when the budget did not bite).
///
/// The default panic hook is silenced for the duration of the campaign:
/// scenario failures surface as caught panics, and shrinking replays a
/// panicking scenario many times over.
pub fn campaign(seed: u64, count: u64, time_budget_s: u64) -> Report {
    let started = Instant::now();
    let mut report = Report {
        seed,
        ..Report::default()
    };

    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    for index in 0..count {
        if time_budget_s > 0 && started.elapsed().as_secs() >= time_budget_s {
            break;
        }
        let scenario = Scenario::generate(seed, index);
        let outcome = run_scenario(&scenario);
        report.tally(outcome.family, outcome.skipped);
        if outcome.is_clean() {
            continue;
        }
        let (kind, detail) = if let Some(p) = &outcome.panic {
            ("panic", p.clone())
        } else if let Some(m) = &outcome.mismatch {
            ("mismatch", m.clone())
        } else {
            ("violation", outcome.violations.join("; "))
        };
        match kind {
            "panic" => report.panics += 1,
            "mismatch" => report.mismatches += 1,
            _ => report.violations += 1,
        }
        let minimal = shrink(&scenario, |c| !run_scenario(c).is_clean());
        report.failures.push(Failure {
            index,
            family: match outcome.family {
                Family::Differential => "differential",
                Family::InvariantOnly => "invariant_only",
            },
            kind,
            detail,
            shrunk: format!("{minimal:?}"),
            repro: repro_test(&minimal),
        });
    }

    std::panic::set_hook(default_hook);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_reproducible() {
        let a = campaign(2005, 8, 0);
        assert!(a.is_clean(), "{:?}", a.failures);
        assert_eq!(a.count, 8);
        let b = campaign(2005, 8, 0);
        assert_eq!(a.to_json(), b.to_json());
    }
}
