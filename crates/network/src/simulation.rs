//! The unified entry point: build a validated simulation in one expression.
//!
//! [`Simulation`] is the supported face of the engine — a thin owner of a
//! [`Network`] that derefs to it, so the whole stepping/observation API is
//! available while external users never name engine internals. It is
//! constructed either directly over a topology ([`Simulation::over`]) or
//! through the validating builder chain:
//!
//! ```
//! use wormcast_network::NetworkConfig;
//!
//! # fn main() -> Result<(), wormcast_network::ConfigError> {
//! let mut sim = NetworkConfig::builder()
//!     .mesh(8, 8, 8)
//!     .startup_us(0.15)
//!     .flit_us(0.003)
//!     .build()?;
//! assert!(sim.next_event_time().is_none());
//! # Ok(())
//! # }
//! ```

use crate::config::{ConfigError, NetworkConfig, NetworkConfigBuilder};
use crate::engine::Network;
use std::ops::{Deref, DerefMut};
use wormcast_routing::{DimensionOrdered, RoutingFunction, SimTopology};
use wormcast_topology::Mesh;

/// A configured, runnable wormhole simulation over topology `T`.
///
/// Derefs to [`Network`], so every engine method (`inject_at`, `step`,
/// `run_until_idle`, `drain_deliveries_into`, sinks, tracing, …) is
/// available directly on the simulation.
pub struct Simulation<T: SimTopology = Mesh> {
    net: Network<T>,
}

impl<T: SimTopology> Simulation<T> {
    /// Wrap a configuration and routing function around `topo`.
    pub fn over(topo: T, cfg: NetworkConfig, rf: Box<dyn RoutingFunction<T>>) -> Self {
        Simulation {
            net: Network::new(topo, cfg, rf),
        }
    }

    /// The underlying engine (also reachable through deref).
    pub fn network(&self) -> &Network<T> {
        &self.net
    }

    /// The underlying engine, mutably (also reachable through deref).
    pub fn network_mut(&mut self) -> &mut Network<T> {
        &mut self.net
    }

    /// Unwrap into the engine.
    pub fn into_network(self) -> Network<T> {
        self.net
    }
}

impl<T: SimTopology> Deref for Simulation<T> {
    type Target = Network<T>;
    fn deref(&self) -> &Network<T> {
        &self.net
    }
}

impl<T: SimTopology> DerefMut for Simulation<T> {
    fn deref_mut(&mut self) -> &mut Network<T> {
        &mut self.net
    }
}

impl<T: SimTopology> From<Network<T>> for Simulation<T> {
    fn from(net: Network<T>) -> Self {
        Simulation { net }
    }
}

impl NetworkConfigBuilder {
    /// Pin the simulation to an `x`×`y`×`z` mesh, upgrading this
    /// configuration builder into a [`SimulationBuilder`]. A `z` of 1 gives
    /// the paper's 2D meshes. Validation happens at
    /// [`SimulationBuilder::build`].
    pub fn mesh(self, x: usize, y: usize, z: usize) -> SimulationBuilder {
        SimulationBuilder {
            cfg: self,
            dims: vec![x, y, z],
            rf: None,
        }
    }
}

/// Builder for a whole [`Simulation`] over a mesh: configuration knobs plus
/// topology and routing choice. Created by [`NetworkConfigBuilder::mesh`].
pub struct SimulationBuilder {
    cfg: NetworkConfigBuilder,
    dims: Vec<usize>,
    rf: Option<Box<dyn RoutingFunction<Mesh>>>,
}

impl SimulationBuilder {
    /// Message start-up latency Ts in microseconds.
    pub fn startup_us(mut self, us: f64) -> Self {
        self.cfg = self.cfg.startup_us(us);
        self
    }

    /// Per-flit channel transmission time β in microseconds.
    pub fn flit_us(mut self, us: f64) -> Self {
        self.cfg = self.cfg.flit_us(us);
        self
    }

    /// Routing-decision delay per hop in microseconds.
    pub fn routing_delay_us(mut self, us: f64) -> Self {
        self.cfg = self.cfg.routing_delay_us(us);
        self
    }

    /// Injection ports per node.
    pub fn ports(mut self, ports: usize) -> Self {
        self.cfg = self.cfg.ports(ports);
        self
    }

    /// Channel-release discipline.
    pub fn release(mut self, mode: crate::config::ReleaseMode) -> Self {
        self.cfg = self.cfg.release(mode);
        self
    }

    /// Run engine invariant checks even in release builds.
    pub fn invariant_checks(mut self, on: bool) -> Self {
        self.cfg = self.cfg.invariant_checks(on);
        self
    }

    /// The routing function adaptive messages consult (defaults to
    /// dimension-ordered).
    pub fn routing(mut self, rf: Box<dyn RoutingFunction<Mesh>>) -> Self {
        self.rf = Some(rf);
        self
    }

    fn validated_mesh(dims: &[usize]) -> Result<Mesh, ConfigError> {
        if dims.contains(&0) {
            return Err(ConfigError::EmptyMeshDimension);
        }
        let mut nodes: u64 = 1;
        for &d in dims {
            if d > u16::MAX as usize {
                return Err(ConfigError::MeshTooLarge);
            }
            nodes = nodes.saturating_mul(d as u64);
        }
        if nodes > u32::MAX as u64 {
            return Err(ConfigError::MeshTooLarge);
        }
        let dims: Vec<u16> = dims.iter().map(|&d| d as u16).collect();
        Ok(Mesh::new(&dims))
    }

    /// Validate everything and construct the simulation.
    pub fn build(self) -> Result<Simulation<Mesh>, ConfigError> {
        let cfg = self.cfg.build()?;
        let mesh = Self::validated_mesh(&self.dims)?;
        let rf = self.rf.unwrap_or_else(|| Box::new(DimensionOrdered));
        Ok(Simulation::over(mesh, cfg, rf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageSpec, OpId, Route};
    use wormcast_routing::{dor_path, CodedPath};
    use wormcast_sim::SimTime;
    use wormcast_topology::NodeId;

    #[test]
    fn issue_snippet_builds_and_runs() {
        let mut sim = NetworkConfig::builder()
            .mesh(8, 8, 8)
            .startup_us(0.15)
            .flit_us(0.003)
            .build()
            .unwrap();
        assert_eq!(sim.config().startup.as_ps(), 150_000);
        assert_eq!(sim.topology().dims(), &[8, 8, 8]);
        // Deref gives the whole engine API: run one unicast end to end.
        let mesh = sim.topology().clone();
        let path = dor_path(&mesh, NodeId(0), NodeId(77));
        sim.inject_at(
            SimTime::ZERO,
            MessageSpec {
                src: NodeId(0),
                route: Route::Fixed(CodedPath::unicast(&mesh, path)),
                length: 16,
                op: OpId(0),
                tag: 0,
                charge_startup: true,
            },
        );
        sim.run_until_idle();
        assert_eq!(sim.counters().completed, 1);
    }

    #[test]
    fn invalid_combinations_surface_as_errors() {
        assert!(matches!(
            NetworkConfig::builder().mesh(0, 4, 4).build(),
            Err(ConfigError::EmptyMeshDimension)
        ));
        assert!(matches!(
            NetworkConfig::builder().mesh(4096, 4096, 4096).build(),
            Err(ConfigError::MeshTooLarge)
        ));
        assert!(matches!(
            NetworkConfig::builder().ports(0).mesh(4, 4, 4).build(),
            Err(ConfigError::ZeroPorts)
        ));
    }

    #[test]
    fn two_dimensional_meshes_via_unit_z() {
        let sim = NetworkConfig::builder().mesh(8, 8, 1).build().unwrap();
        assert_eq!(sim.topology().dims(), &[8, 8, 1]);
    }

    #[test]
    fn simulation_wraps_and_unwraps_network() {
        let sim = NetworkConfig::builder().mesh(4, 4, 4).build().unwrap();
        let net = sim.into_network();
        let sim2: Simulation = net.into();
        assert_eq!(sim2.network().counters().injected, 0);
    }
}
