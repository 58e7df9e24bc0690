//! Simulator configuration: the paper's hardware constants, and the
//! validating builder that constructs configurations (and whole
//! simulations) from them.

use serde::{Deserialize, Serialize};
use std::fmt;
use wormcast_sim::SimDuration;

/// When a message's channels are given back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReleaseMode {
    /// Wormhole blocking-in-place: every channel the header has acquired is
    /// held until the tail completes at the final destination. A blocked
    /// message therefore stalls its whole upstream path — the physically
    /// faithful wormhole model (1-flit router buffers).
    PathHolding,
    /// Virtual cut-through–style facility queueing: each channel is released
    /// one body-time after the header crossed it (the tail has drained), and
    /// a blocked header waits in the next channel's queue without holding
    /// anything upstream. This is the channel-queue model of the paper's
    /// CSIM/MultiSim simulator ("each channel has a single queue where
    /// messages are held while awaiting transmission").
    AfterTailCrossing,
}

/// Timing and router-architecture parameters of a simulated network.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Message start-up latency Ts, charged at the source for every
    /// message-passing step. The paper uses 0.15 µs and 1.5 µs (§3),
    /// consistent with Cray T3D-era technology.
    pub startup: SimDuration,
    /// Per-flit channel transmission time β. The paper uses 0.003 µs.
    pub flit_time: SimDuration,
    /// Routing-decision delay charged per hop as the header passes a router.
    /// Wormhole routers make this a single cycle; defaults to one flit time.
    pub routing_delay: SimDuration,
    /// Injection ports per node: how many messages a node can be sending at
    /// once. RD is studied on a one-port model, EDN assumes a three-port
    /// router (§2), and DB/AB need two ports for their first step.
    pub inject_ports: usize,
    /// Channel release discipline (wormhole path-holding vs the paper's
    /// facility-queueing model).
    pub release: ReleaseMode,
    /// Run [`crate::engine::Network::check_invariants`] even in release
    /// builds. Debug builds always check; release builds skip the O(network)
    /// walk unless this is set.
    pub check_invariants: bool,
    /// Delivery watchdog timeout: a message that waits on a channel without
    /// making progress for this long is declared **stalled** — its held
    /// resources are released, its remaining destinations are counted as
    /// undelivered, and the simulation keeps going instead of wedging.
    /// [`SimDuration::ZERO`] (the default) disables the watchdog; when
    /// enabled it should comfortably exceed the longest body-drain time so
    /// legitimate backpressure is never reaped.
    pub watchdog: SimDuration,
}

impl NetworkConfig {
    /// Start building a configuration from the paper's baseline constants.
    /// Every setter overrides one knob; [`NetworkConfigBuilder::build`]
    /// validates the combination instead of panicking deep inside the
    /// engine:
    ///
    /// ```
    /// use wormcast_network::NetworkConfig;
    /// # fn main() -> Result<(), wormcast_network::ConfigError> {
    /// let cfg = NetworkConfig::builder()
    ///     .startup_us(0.15)
    ///     .flit_us(0.003)
    ///     .build()?;
    /// assert_eq!(cfg.startup.as_us(), 0.15);
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> NetworkConfigBuilder {
        NetworkConfigBuilder::default()
    }

    /// The paper's baseline: Ts = 1.5 µs, β = 0.003 µs, one routing cycle per
    /// hop, and a generous 6-port (all-port, one per mesh direction in 3D)
    /// injection model.
    pub fn paper_default() -> Self {
        NetworkConfig {
            startup: SimDuration::from_us(1.5),
            flit_time: SimDuration::from_us(0.003),
            routing_delay: SimDuration::from_us(0.003),
            inject_ports: 6,
            release: ReleaseMode::PathHolding,
            check_invariants: false,
            watchdog: SimDuration::ZERO,
        }
    }

    /// The paper's low start-up variant: Ts = 0.15 µs.
    pub fn paper_low_startup() -> Self {
        NetworkConfig {
            startup: SimDuration::from_us(0.15),
            ..Self::paper_default()
        }
    }

    /// Override the start-up latency.
    pub fn with_startup(mut self, ts: SimDuration) -> Self {
        self.startup = ts;
        self
    }

    /// Override the channel-release discipline.
    pub fn with_release(mut self, mode: ReleaseMode) -> Self {
        self.release = mode;
        self
    }

    /// Override the injection-port count.
    ///
    /// # Panics
    /// Panics if `ports` is zero.
    pub fn with_ports(mut self, ports: usize) -> Self {
        assert!(ports > 0, "a node needs at least one injection port");
        self.inject_ports = ports;
        self
    }

    /// Enable invariant checking in release builds (see the
    /// [`NetworkConfig::check_invariants`] field).
    pub fn with_invariant_checks(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Override the delivery-watchdog timeout (see the
    /// [`NetworkConfig::watchdog`] field; `ZERO` disables it).
    pub fn with_watchdog(mut self, timeout: SimDuration) -> Self {
        self.watchdog = timeout;
        self
    }

    /// Time for a message body of `len` flits to drain past a point once the
    /// header has arrived.
    pub fn body_time(&self, len: u64) -> SimDuration {
        self.flit_time.times(len)
    }

    /// Per-hop header latency: one routing decision plus one channel crossing.
    pub fn hop_time(&self) -> SimDuration {
        self.routing_delay + self.flit_time
    }
}

/// Why a configuration could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A duration knob was negative, NaN, or infinite.
    BadDuration {
        /// Which knob (`"startup"`, `"flit_time"`, `"routing_delay"`).
        field: &'static str,
    },
    /// The per-flit transmission time must be strictly positive: with
    /// β = 0 every body drains instantly and the wormhole pipeline
    /// degenerates.
    ZeroFlitTime,
    /// A node needs at least one injection port.
    ZeroPorts,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadDuration { field } => {
                write!(f, "{field} must be a finite, non-negative time")
            }
            ConfigError::ZeroFlitTime => write!(f, "flit_time must be positive"),
            ConfigError::ZeroPorts => write!(f, "a node needs at least one injection port"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`NetworkConfig`], started by
/// [`NetworkConfig::builder`]. Defaults to the paper's baseline constants;
/// [`NetworkConfigBuilder::build`] checks the combination and returns a
/// [`ConfigError`] instead of letting a bad value panic mid-simulation.
#[derive(Debug, Clone)]
pub struct NetworkConfigBuilder {
    pub(crate) startup_us: f64,
    pub(crate) flit_us: f64,
    pub(crate) routing_delay_us: f64,
    pub(crate) ports: usize,
    pub(crate) release: ReleaseMode,
    pub(crate) check_invariants: bool,
    pub(crate) watchdog_us: f64,
}

impl Default for NetworkConfigBuilder {
    fn default() -> Self {
        NetworkConfigBuilder {
            startup_us: 1.5,
            flit_us: 0.003,
            routing_delay_us: 0.003,
            ports: 6,
            release: ReleaseMode::PathHolding,
            check_invariants: false,
            watchdog_us: 0.0,
        }
    }
}

impl NetworkConfigBuilder {
    /// Message start-up latency Ts in microseconds (paper: 1.5 or 0.15).
    pub fn startup_us(mut self, us: f64) -> Self {
        self.startup_us = us;
        self
    }

    /// Per-flit channel transmission time β in microseconds (paper: 0.003).
    pub fn flit_us(mut self, us: f64) -> Self {
        self.flit_us = us;
        self
    }

    /// Routing-decision delay per hop in microseconds.
    pub fn routing_delay_us(mut self, us: f64) -> Self {
        self.routing_delay_us = us;
        self
    }

    /// Injection ports per node.
    pub fn ports(mut self, ports: usize) -> Self {
        self.ports = ports;
        self
    }

    /// Channel-release discipline.
    pub fn release(mut self, mode: ReleaseMode) -> Self {
        self.release = mode;
        self
    }

    /// Run engine invariant checks even in release builds.
    pub fn invariant_checks(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Delivery-watchdog timeout in microseconds (0 disables it).
    pub fn watchdog_us(mut self, us: f64) -> Self {
        self.watchdog_us = us;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<NetworkConfig, ConfigError> {
        fn duration(us: f64, field: &'static str) -> Result<SimDuration, ConfigError> {
            if !us.is_finite() || us < 0.0 {
                return Err(ConfigError::BadDuration { field });
            }
            Ok(SimDuration::from_us(us))
        }
        let startup = duration(self.startup_us, "startup")?;
        let flit_time = duration(self.flit_us, "flit_time")?;
        let routing_delay = duration(self.routing_delay_us, "routing_delay")?;
        let watchdog = duration(self.watchdog_us, "watchdog")?;
        if flit_time == SimDuration::ZERO {
            return Err(ConfigError::ZeroFlitTime);
        }
        if self.ports == 0 {
            return Err(ConfigError::ZeroPorts);
        }
        Ok(NetworkConfig {
            startup,
            flit_time,
            routing_delay,
            inject_ports: self.ports,
            release: self.release,
            check_invariants: self.check_invariants,
            watchdog,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = NetworkConfig::paper_default();
        assert_eq!(c.startup.as_ps(), 1_500_000);
        assert_eq!(c.flit_time.as_ps(), 3_000);
        assert_eq!(NetworkConfig::paper_low_startup().startup.as_ps(), 150_000);
    }

    #[test]
    fn body_time_scales_with_length() {
        let c = NetworkConfig::paper_default();
        assert_eq!(c.body_time(100).as_ps(), 300_000);
        assert_eq!(c.body_time(0).as_ps(), 0);
    }

    #[test]
    fn hop_time_is_route_plus_cross() {
        let c = NetworkConfig::paper_default();
        assert_eq!(c.hop_time().as_ps(), 6_000);
    }

    #[test]
    #[should_panic(expected = "at least one injection port")]
    fn zero_ports_rejected() {
        let _ = NetworkConfig::paper_default().with_ports(0);
    }

    #[test]
    fn builder_defaults_match_paper_baseline() {
        let b = NetworkConfig::builder().build().unwrap();
        let p = NetworkConfig::paper_default();
        assert_eq!(b.startup, p.startup);
        assert_eq!(b.flit_time, p.flit_time);
        assert_eq!(b.routing_delay, p.routing_delay);
        assert_eq!(b.inject_ports, p.inject_ports);
        assert_eq!(b.release, p.release);
        assert_eq!(b.check_invariants, p.check_invariants);
        assert_eq!(b.watchdog, p.watchdog);
        assert_eq!(p.watchdog, SimDuration::ZERO, "watchdog off by default");
    }

    #[test]
    fn watchdog_knob_round_trips() {
        let c = NetworkConfig::builder().watchdog_us(25.0).build().unwrap();
        assert_eq!(c.watchdog.as_ps(), 25_000_000);
        let d = NetworkConfig::paper_default().with_watchdog(SimDuration::from_us(3.0));
        assert_eq!(d.watchdog.as_ps(), 3_000_000);
        assert_eq!(
            NetworkConfig::builder()
                .watchdog_us(-2.0)
                .build()
                .unwrap_err(),
            ConfigError::BadDuration { field: "watchdog" }
        );
    }

    #[test]
    fn builder_overrides_and_validates() {
        let c = NetworkConfig::builder()
            .startup_us(0.15)
            .flit_us(0.004)
            .routing_delay_us(0.002)
            .ports(2)
            .release(ReleaseMode::AfterTailCrossing)
            .invariant_checks(true)
            .build()
            .unwrap();
        assert_eq!(c.startup.as_ps(), 150_000);
        assert_eq!(c.flit_time.as_ps(), 4_000);
        assert_eq!(c.routing_delay.as_ps(), 2_000);
        assert_eq!(c.inject_ports, 2);
        assert_eq!(c.release, ReleaseMode::AfterTailCrossing);
        assert!(c.check_invariants);
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        assert_eq!(
            NetworkConfig::builder().ports(0).build().unwrap_err(),
            ConfigError::ZeroPorts
        );
        assert_eq!(
            NetworkConfig::builder().flit_us(0.0).build().unwrap_err(),
            ConfigError::ZeroFlitTime
        );
        assert_eq!(
            NetworkConfig::builder()
                .startup_us(-1.0)
                .build()
                .unwrap_err(),
            ConfigError::BadDuration { field: "startup" }
        );
        assert_eq!(
            NetworkConfig::builder()
                .flit_us(f64::NAN)
                .build()
                .unwrap_err(),
            ConfigError::BadDuration { field: "flit_time" }
        );
        assert_eq!(
            NetworkConfig::builder()
                .routing_delay_us(f64::INFINITY)
                .build()
                .unwrap_err(),
            ConfigError::BadDuration {
                field: "routing_delay"
            }
        );
        // Errors display something actionable.
        assert!(ConfigError::ZeroPorts.to_string().contains("port"));
    }
}
