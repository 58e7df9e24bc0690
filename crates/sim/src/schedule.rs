//! Dynamic scenario schedules: time-varying offered load and link quality.
//!
//! Every workload in the original reproduction was stationary and every
//! fault a step function. A [`Schedule`] describes how a scenario changes
//! *over* simulated time, in four independent (and freely combinable)
//! dimensions:
//!
//! * [`LoadRamp`] — a piecewise-linear intensity profile. Arrival draws are
//!   warped through the inverse CDF of the profile, so a ramp from 0.2× to
//!   2.0× concentrates injections late in the window without changing their
//!   count (the same uniform draws are re-timed, never re-drawn).
//! * [`LinkModulation`] — periodic bandwidth-degradation windows on a
//!   stochastically chosen subset of channels. Materialized per topology
//!   into a time-sorted list of [`SpeedTransition`]s the engine applies as
//!   per-channel header-crossing-time multipliers.
//! * [`HotspotDrift`] — a destination hotspot that moves across the node
//!   space at a fixed cadence; workload generators bias unicast
//!   destinations toward the hotspot's current position.
//! * [`TraceReplay`] — previously recorded NDJSON event traces replayed as
//!   offered traffic (each recorded inject/deliver pair becomes one
//!   unicast).
//!
//! Everything here is **pure data plus deterministic evaluation**: the same
//! schedule, topology and RNG substream always materialize the same
//! transitions and the same warped arrival times, on every platform and at
//! every `--jobs` setting. All stochastic choices draw from a
//! caller-provided [`crate::SimRng`] substream so replications differ only
//! through their seeds.

use crate::rng::SimRng;
use crate::time::SimTime;

/// One point of a piecewise-linear load profile: at `t_us` the offered-load
/// multiplier is `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampPoint {
    /// Time of the breakpoint, in microseconds from the start of the run.
    pub t_us: f64,
    /// Offered-load multiplier at that instant (≥ 0; linearly interpolated
    /// between breakpoints, clamped to the end values outside them).
    pub rate: f64,
}

/// A piecewise-linear offered-load profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadRamp {
    /// Breakpoints in strictly increasing time order.
    pub points: Vec<RampPoint>,
}

impl LoadRamp {
    /// A ramp interpolating linearly from `from` at t=0 to `to` at
    /// `t_us` (and constant afterwards).
    pub fn linear(from: f64, to: f64, t_us: f64) -> Self {
        LoadRamp {
            points: vec![
                RampPoint {
                    t_us: 0.0,
                    rate: from,
                },
                RampPoint { t_us, rate: to },
            ],
        }
    }

    /// Check the profile is well-formed: at least one point, strictly
    /// increasing times, no negative rates, and at least one positive rate.
    pub fn validate(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("load ramp needs at least one point".into());
        }
        for w in self.points.windows(2) {
            if w[1].t_us <= w[0].t_us {
                return Err(format!(
                    "load ramp times must be strictly increasing ({} then {})",
                    w[0].t_us, w[1].t_us
                ));
            }
        }
        if self
            .points
            .iter()
            .any(|p| p.rate < 0.0 || !p.rate.is_finite())
        {
            return Err("load ramp rates must be finite and non-negative".into());
        }
        if self.points.iter().all(|p| p.rate == 0.0) {
            return Err("load ramp needs at least one positive rate".into());
        }
        Ok(())
    }

    /// The interpolated load multiplier at `t_us` (clamped to the first and
    /// last breakpoint values outside the profile).
    pub fn rate_at(&self, t_us: f64) -> f64 {
        let pts = &self.points;
        if pts.is_empty() {
            return 1.0;
        }
        if t_us <= pts[0].t_us {
            return pts[0].rate;
        }
        for w in pts.windows(2) {
            if t_us <= w[1].t_us {
                let span = w[1].t_us - w[0].t_us;
                let f = (t_us - w[0].t_us) / span;
                return w[0].rate + f * (w[1].rate - w[0].rate);
            }
        }
        pts[pts.len() - 1].rate
    }

    /// Cumulative offered load over `[0, t_us]` (the integral of
    /// [`Self::rate_at`]; trapezoid-exact because the profile is
    /// piecewise linear).
    pub fn cumulative(&self, t_us: f64) -> f64 {
        let mut acc = 0.0;
        let mut prev_t = 0.0;
        let mut prev_r = self.rate_at(0.0);
        for p in &self.points {
            if p.t_us <= prev_t {
                continue;
            }
            let t = p.t_us.min(t_us);
            if t > prev_t {
                let r = self.rate_at(t);
                acc += (t - prev_t) * (prev_r + r) * 0.5;
                prev_t = t;
                prev_r = r;
            }
            if p.t_us >= t_us {
                return acc;
            }
        }
        if t_us > prev_t {
            acc += (t_us - prev_t) * (prev_r + self.rate_at(t_us)) * 0.5;
        }
        acc
    }

    /// Warp a uniform draw `u ∈ [0, 1)` into an arrival time in
    /// `[0, window_us]` distributed according to this profile: the inverse
    /// CDF of the (normalized) intensity, found by deterministic bisection.
    /// Falls back to `u * window_us` when the profile carries no load
    /// inside the window.
    pub fn warp(&self, u: f64, window_us: f64) -> f64 {
        let total = self.cumulative(window_us);
        if total.is_nan() || total <= 0.0 || !u.is_finite() {
            return u * window_us;
        }
        let target = u.clamp(0.0, 1.0) * total;
        let (mut lo, mut hi) = (0.0_f64, window_us);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.cumulative(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// One engine-visible change of a channel's speed factor. A factor of 1 is
/// full speed; a factor of `k` multiplies the header's crossing time over
/// that channel by `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeedTransition {
    /// When the transition takes effect.
    pub at: SimTime,
    /// Raw channel id the transition applies to.
    pub channel: u32,
    /// New crossing-time multiplier (≥ 1).
    pub factor: u32,
}

/// Periodic bandwidth-degradation windows over a stochastic channel subset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModulation {
    /// Length of one degrade/recover period, in microseconds.
    pub period_us: f64,
    /// Fraction of each period spent degraded, in `(0, 1]`.
    pub duty: f64,
    /// Crossing-time multiplier while degraded (≥ 2 to be observable).
    pub factor: u32,
    /// Probability that any given channel participates.
    pub fraction: f64,
    /// Number of periods to materialize.
    pub windows: u32,
}

impl LinkModulation {
    /// Check the modulation parameters are well-formed.
    pub fn validate(&self) -> Result<(), String> {
        if self.period_us.is_nan() || self.period_us <= 0.0 {
            return Err("link modulation period must be positive".into());
        }
        if !(self.duty > 0.0 && self.duty <= 1.0) {
            return Err("link modulation duty must be in (0, 1]".into());
        }
        if self.factor < 2 {
            return Err("link modulation factor must be at least 2".into());
        }
        if !(0.0..=1.0).contains(&self.fraction) {
            return Err("link modulation fraction must be in [0, 1]".into());
        }
        if self.windows == 0 {
            return Err("link modulation needs at least one window".into());
        }
        Ok(())
    }

    /// Materialize the modulation against a topology with `num_channels`
    /// channels. Channels are considered in id order; each participating
    /// channel gets a random phase offset within its first period, then
    /// alternates degraded (`factor`) and recovered (`1`) for `windows`
    /// periods. The result is sorted by `(at, channel)` so engines can
    /// schedule it verbatim in a deterministic order.
    pub fn transitions(&self, num_channels: usize, rng: &mut SimRng) -> Vec<SpeedTransition> {
        let mut out = Vec::new();
        for ch in 0..num_channels {
            if !rng.chance(self.fraction) {
                continue;
            }
            let phase = rng.unit() * self.period_us;
            for w in 0..self.windows {
                let start = phase + w as f64 * self.period_us;
                out.push(SpeedTransition {
                    at: SimTime::from_us(start),
                    channel: ch as u32,
                    factor: self.factor,
                });
                out.push(SpeedTransition {
                    at: SimTime::from_us(start + self.duty * self.period_us),
                    channel: ch as u32,
                    factor: 1,
                });
            }
        }
        out.sort_by_key(|t| (t.at, t.channel));
        out
    }
}

/// A destination hotspot that drifts across the node space at a fixed
/// cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotDrift {
    /// Initial hotspot node index (taken modulo the node count).
    pub start: u32,
    /// Node-index increment applied every step.
    pub stride: u32,
    /// Time between drift steps, in microseconds.
    pub step_us: f64,
    /// Probability that a unicast targets the hotspot instead of its
    /// uniformly drawn destination.
    pub weight: f64,
}

impl HotspotDrift {
    /// Check the drift parameters are well-formed.
    pub fn validate(&self) -> Result<(), String> {
        if self.step_us.is_nan() || self.step_us <= 0.0 {
            return Err("hotspot drift step must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.weight) {
            return Err("hotspot drift weight must be in [0, 1]".into());
        }
        Ok(())
    }

    /// The hotspot's node index at time `t_us` in a network of `nodes`
    /// nodes.
    pub fn position_at(&self, t_us: f64, nodes: usize) -> u32 {
        let steps = if t_us <= 0.0 {
            0
        } else {
            (t_us / self.step_us).floor() as u64
        };
        let n = nodes.max(1) as u64;
        ((self.start as u64 + steps * self.stride as u64) % n) as u32
    }
}

/// One replayed injection: at `at_us`, node `src` offers a `length`-flit
/// unicast to `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayEntry {
    /// Injection time, in microseconds.
    pub at_us: f64,
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Payload length in flits.
    pub length: u64,
}

/// A recorded traffic trace replayed as offered load.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceReplay {
    /// Replayed injections in recorded order.
    pub entries: Vec<ReplayEntry>,
}

impl TraceReplay {
    /// Check the replay is well-formed (non-empty, positive lengths,
    /// `src != dst`, finite non-negative times).
    pub fn validate(&self) -> Result<(), String> {
        if self.entries.is_empty() {
            return Err("trace replay needs at least one entry".into());
        }
        for (i, e) in self.entries.iter().enumerate() {
            if !(e.at_us.is_finite() && e.at_us >= 0.0) {
                return Err(format!("replay entry {i}: time must be finite and >= 0"));
            }
            if e.src == e.dst {
                return Err(format!("replay entry {i}: src equals dst ({})", e.src));
            }
            if e.length == 0 {
                return Err(format!("replay entry {i}: zero-length message"));
            }
        }
        Ok(())
    }

    /// Parse a recorded wormcast NDJSON event stream into offered traffic.
    ///
    /// Each recorded `inject` line contributes the source node and request
    /// time of one replayed unicast; the *first* `deliver` line of the same
    /// `(rep, msg)` supplies the destination and flit count. Messages with
    /// no recorded delivery (or delivered back to their source) are
    /// skipped. Entries keep the recorded injection order.
    pub fn from_ndjson(text: &str) -> Result<TraceReplay, String> {
        struct Pending {
            at_us: f64,
            src: u32,
            slot: usize,
        }
        let mut pending: Vec<((u64, u64), Pending)> = Vec::new();
        let mut entries: Vec<Option<ReplayEntry>> = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let ev = json_str_field(line, "ev")
                .ok_or_else(|| format!("line {}: missing \"ev\" field", ln + 1))?;
            let t_ps = json_u64_field(line, "t_ps")
                .ok_or_else(|| format!("line {}: missing \"t_ps\" field", ln + 1))?;
            let rep = json_u64_field(line, "rep").unwrap_or(0);
            match ev {
                "inject" => {
                    let msg = json_u64_field(line, "msg")
                        .ok_or_else(|| format!("line {}: inject without \"msg\"", ln + 1))?;
                    let node = json_u64_field(line, "node")
                        .ok_or_else(|| format!("line {}: inject without \"node\"", ln + 1))?;
                    let slot = entries.len();
                    entries.push(None);
                    pending.push((
                        (rep, msg),
                        Pending {
                            at_us: t_ps as f64 / 1e6,
                            src: node as u32,
                            slot,
                        },
                    ));
                }
                "deliver" => {
                    let msg = json_u64_field(line, "msg")
                        .ok_or_else(|| format!("line {}: deliver without \"msg\"", ln + 1))?;
                    let node = json_u64_field(line, "node")
                        .ok_or_else(|| format!("line {}: deliver without \"node\"", ln + 1))?;
                    let flits = json_u64_field(line, "flits").unwrap_or(1).max(1);
                    if let Some(pos) = pending.iter().position(|(k, _)| *k == (rep, msg)) {
                        let (_, p) = pending.swap_remove(pos);
                        if p.src != node as u32 {
                            entries[p.slot] = Some(ReplayEntry {
                                at_us: p.at_us,
                                src: p.src,
                                dst: node as u32,
                                length: flits,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        let entries: Vec<ReplayEntry> = entries.into_iter().flatten().collect();
        if entries.is_empty() {
            return Err("trace contains no replayable inject/deliver pairs".into());
        }
        Ok(TraceReplay { entries })
    }
}

/// Extract the string value of `"key":"..."` from a flat JSON line.
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extract the unsigned integer value of `"key":N` from a flat JSON line.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// A complete scenario schedule: any combination of the four dimensions.
/// An empty schedule (all `None`) is equivalent to no schedule at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Time-varying offered-load profile.
    pub ramp: Option<LoadRamp>,
    /// Periodic link-bandwidth degradation windows.
    pub modulation: Option<LinkModulation>,
    /// Drifting destination hotspot.
    pub hotspot: Option<HotspotDrift>,
    /// Recorded-trace replay as offered traffic.
    pub replay: Option<TraceReplay>,
}

/// Upper bound on the phase markers a schedule emits into telemetry.
pub const MAX_PHASE_MARKS: usize = 64;

impl Schedule {
    /// Whether no dimension is active.
    pub fn is_empty(&self) -> bool {
        self.ramp.is_none()
            && self.modulation.is_none()
            && self.hotspot.is_none()
            && self.replay.is_none()
    }

    /// Validate every present dimension.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(r) = &self.ramp {
            r.validate()?;
        }
        if let Some(m) = &self.modulation {
            m.validate()?;
        }
        if let Some(h) = &self.hotspot {
            h.validate()?;
        }
        if let Some(r) = &self.replay {
            r.validate()?;
        }
        Ok(())
    }

    /// Warp a uniform arrival draw `u ∈ [0, 1)` into `[0, window_us]`
    /// through the load ramp (identity scaling when no ramp is present).
    pub fn warp_arrival(&self, u: f64, window_us: f64) -> f64 {
        match &self.ramp {
            Some(r) => r.warp(u, window_us),
            None => u * window_us,
        }
    }

    /// Deterministic phase-boundary markers inside `[0, horizon_us]`:
    /// ramp breakpoints and hotspot drift steps, deduplicated, time-sorted
    /// and numbered, capped at [`MAX_PHASE_MARKS`]. Engines schedule these
    /// as `schedule_phase` telemetry events so drift is visible in traces.
    pub fn phase_marks(&self, horizon_us: f64) -> Vec<(SimTime, u32)> {
        let mut times: Vec<SimTime> = Vec::new();
        if let Some(r) = &self.ramp {
            for p in &r.points {
                if p.t_us > 0.0 && p.t_us <= horizon_us {
                    times.push(SimTime::from_us(p.t_us));
                }
            }
        }
        if let Some(h) = &self.hotspot {
            let mut t = h.step_us;
            while t <= horizon_us && times.len() < 4 * MAX_PHASE_MARKS {
                times.push(SimTime::from_us(t));
                t += h.step_us;
            }
        }
        times.sort_unstable();
        times.dedup();
        times.truncate(MAX_PHASE_MARKS);
        times
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, i as u32 + 1))
            .collect()
    }

    /// Materialize the link-modulation dimension against `num_channels`
    /// channels using `rng` (empty when no modulation is present).
    pub fn speed_transitions(&self, num_channels: usize, rng: &mut SimRng) -> Vec<SpeedTransition> {
        match &self.modulation {
            Some(m) => m.transitions(num_channels, rng),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_interpolates_and_clamps() {
        let r = LoadRamp::linear(1.0, 3.0, 10.0);
        assert!(r.validate().is_ok());
        assert_eq!(r.rate_at(-5.0), 1.0);
        assert_eq!(r.rate_at(0.0), 1.0);
        assert!((r.rate_at(5.0) - 2.0).abs() < 1e-12);
        assert_eq!(r.rate_at(10.0), 3.0);
        assert_eq!(r.rate_at(99.0), 3.0);
    }

    #[test]
    fn ramp_cumulative_is_trapezoid_exact() {
        let r = LoadRamp::linear(0.0, 2.0, 10.0);
        // Integral of t/5 over [0,10] = 10.
        assert!((r.cumulative(10.0) - 10.0).abs() < 1e-9);
        // Constant tail beyond the last point.
        assert!((r.cumulative(15.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn warp_is_monotone_and_biases_toward_load() {
        let r = LoadRamp::linear(0.1, 2.0, 40.0);
        let mut prev = -1.0;
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            let t = r.warp(u, 40.0);
            assert!(t >= prev, "warp must be monotone");
            assert!((0.0..=40.0).contains(&t));
            prev = t;
        }
        // Median arrival lands late: most of the load is in the second half.
        assert!(r.warp(0.5, 40.0) > 20.0);
    }

    #[test]
    fn warp_handles_zero_load_window() {
        let r = LoadRamp {
            points: vec![
                RampPoint {
                    t_us: 50.0,
                    rate: 0.0,
                },
                RampPoint {
                    t_us: 60.0,
                    rate: 1.0,
                },
            ],
        };
        // No load inside [0, 40]: identity fallback.
        assert_eq!(r.warp(0.25, 40.0), 10.0);
    }

    #[test]
    fn modulation_transitions_are_sorted_and_paired() {
        let m = LinkModulation {
            period_us: 10.0,
            duty: 0.5,
            factor: 4,
            fraction: 0.5,
            windows: 3,
        };
        assert!(m.validate().is_ok());
        let mut rng = SimRng::new(7).substream("mod");
        let ts = m.transitions(32, &mut rng);
        assert!(!ts.is_empty());
        assert!(ts.windows(2).all(|w| w[0].at <= w[1].at), "time-sorted");
        let degrades = ts.iter().filter(|t| t.factor == 4).count();
        let restores = ts.iter().filter(|t| t.factor == 1).count();
        assert_eq!(degrades, restores, "every degrade pairs with a restore");
        // Deterministic for equal streams.
        let mut rng2 = SimRng::new(7).substream("mod");
        assert_eq!(ts, m.transitions(32, &mut rng2));
    }

    #[test]
    fn hotspot_drifts_with_wraparound() {
        let h = HotspotDrift {
            start: 60,
            stride: 5,
            step_us: 10.0,
            weight: 0.8,
        };
        assert!(h.validate().is_ok());
        assert_eq!(h.position_at(0.0, 64), 60);
        assert_eq!(h.position_at(9.9, 64), 60);
        assert_eq!(h.position_at(10.0, 64), 1); // (60 + 5) % 64
        assert_eq!(h.position_at(25.0, 64), 6);
    }

    #[test]
    fn replay_parses_recorded_ndjson() {
        let nd = "\
{\"t_ps\":0,\"ev\":\"inject\",\"rep\":0,\"msg\":1,\"node\":3}\n\
{\"t_ps\":500,\"ev\":\"channel_grant\",\"rep\":0,\"msg\":1,\"ch\":9}\n\
{\"t_ps\":2000000,\"ev\":\"deliver\",\"rep\":0,\"msg\":1,\"node\":7,\"flits\":16}\n\
{\"t_ps\":3000000,\"ev\":\"inject\",\"rep\":0,\"msg\":2,\"node\":5}\n";
        let r = TraceReplay::from_ndjson(nd).expect("parses");
        // msg 2 has no deliver line and is skipped.
        assert_eq!(
            r.entries,
            vec![ReplayEntry {
                at_us: 0.0,
                src: 3,
                dst: 7,
                length: 16,
            }]
        );
        assert!(r.validate().is_ok());
    }

    #[test]
    fn replay_rejects_empty_traces() {
        assert!(TraceReplay::from_ndjson("").is_err());
        let nd = "{\"t_ps\":0,\"ev\":\"complete\",\"rep\":0,\"msg\":1,\"node\":3}\n";
        assert!(TraceReplay::from_ndjson(nd).is_err());
    }

    #[test]
    fn phase_marks_merge_ramp_and_hotspot_boundaries() {
        let s = Schedule {
            ramp: Some(LoadRamp::linear(0.5, 2.0, 20.0)),
            hotspot: Some(HotspotDrift {
                start: 0,
                stride: 1,
                step_us: 15.0,
                weight: 0.5,
            }),
            ..Schedule::default()
        };
        let marks = s.phase_marks(40.0);
        let times: Vec<u64> = marks.iter().map(|(t, _)| t.as_ps()).collect();
        assert_eq!(times, vec![15_000_000, 20_000_000, 30_000_000]);
        let phases: Vec<u32> = marks.iter().map(|(_, p)| *p).collect();
        assert_eq!(phases, vec![1, 2, 3]);
    }

    #[test]
    fn empty_schedule_is_inert() {
        let s = Schedule::default();
        assert!(s.is_empty());
        assert!(s.validate().is_ok());
        assert_eq!(s.warp_arrival(0.25, 40.0), 10.0);
        assert!(s.phase_marks(100.0).is_empty());
        let mut rng = SimRng::new(1);
        assert!(s.speed_transitions(10, &mut rng).is_empty());
    }
}
