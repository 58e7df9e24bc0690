//! Scrapes: convert the engine layer's plain-integer stats export
//! ([`EngineStats`]) into [`MetricsRegistry`] series.
//!
//! The simulation crates deliberately do not depend on `wormcast-telemetry`
//! — they expose raw counters and bucket arrays, and this module (the
//! workload layer, which already sits above both) performs the lossless
//! conversion into the metric catalog. Scrapes are pure folds into the
//! registry, so per-replication registries merged in index order stay
//! deterministic for any `--jobs` count.

use wormcast_network::EngineStats;
use wormcast_telemetry::{MetricId, MetricsRegistry, SeriesKey};

/// Fold one engine's counters into `m` under the `engine_*` metric ids.
///
/// Counters accumulate (sums across replications are well-defined); the
/// arena high-water mark folds as a gauge maximum.
pub fn scrape_engine_stats(m: &mut MetricsRegistry, e: &EngineStats) {
    m.gauge_max(
        SeriesKey::plain(MetricId::EngineArenaMsgsHighwater),
        e.arena_msgs_highwater,
    );
    m.inc_by(
        SeriesKey::plain(MetricId::EngineWheelEventsScheduled),
        e.wheel_events_scheduled,
    );
    m.inc_by(
        SeriesKey::plain(MetricId::EngineWheelBucketScans),
        e.wheel_bucket_scans,
    );
    m.inc_by(
        SeriesKey::plain(MetricId::EngineWatchdogArms),
        e.watchdog_arms,
    );
    m.inc_by(SeriesKey::plain(MetricId::EngineReroutes), e.reroutes);
    m.inc_by(SeriesKey::plain(MetricId::EngineStalls), e.stalls);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_scrape_accumulates_counters_and_maxes_gauges() {
        let mut m = MetricsRegistry::default();
        let a = EngineStats {
            arena_msgs_highwater: 10,
            wheel_events_scheduled: 100,
            wheel_bucket_scans: 5,
            watchdog_arms: 1,
            reroutes: 2,
            stalls: 3,
        };
        let b = EngineStats {
            arena_msgs_highwater: 7,
            wheel_events_scheduled: 50,
            ..Default::default()
        };
        scrape_engine_stats(&mut m, &a);
        scrape_engine_stats(&mut m, &b);
        assert_eq!(m.counter_total(MetricId::EngineWheelEventsScheduled), 150);
        assert_eq!(m.counter_total(MetricId::EngineStalls), 3);
        assert_eq!(m.gauge_overall(MetricId::EngineArenaMsgsHighwater), 10);
    }
}
