//! The unified entry point: a configured simulation over one topology.
//!
//! [`Simulation`] is the supported face of the engine — a thin owner of a
//! [`Network`] that derefs to it, so the whole stepping/observation API is
//! available while external users never name engine internals. It is
//! constructed over a topology with a configuration from the validating
//! [`NetworkConfig::builder`] and a routing function:
//!
//! ```
//! use wormcast_network::{NetworkConfig, Simulation};
//! use wormcast_routing::DimensionOrdered;
//! use wormcast_topology::Mesh;
//!
//! # fn main() -> Result<(), wormcast_network::ConfigError> {
//! let cfg = NetworkConfig::builder().startup_us(0.15).build()?;
//! let mut sim = Simulation::over(Mesh::cube(8), cfg, Box::new(DimensionOrdered));
//! assert!(sim.next_event_time().is_none());
//! # Ok(())
//! # }
//! ```

use crate::config::NetworkConfig;
use crate::engine::Network;
use std::ops::{Deref, DerefMut};
use wormcast_routing::{RoutingFunction, SimTopology};
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageSpec, OpId, Route};
    use wormcast_routing::{dor_path, CodedPath, DimensionOrdered};
    use wormcast_sim::SimTime;
    use wormcast_topology::NodeId;

    #[test]
    fn deref_runs_a_unicast_end_to_end() {
        let cfg = NetworkConfig::builder()
            .startup_us(0.15)
            .flit_us(0.003)
            .build()
            .unwrap();
        let mut sim = Simulation::over(Mesh::cube(8), cfg, Box::new(DimensionOrdered));
        assert_eq!(sim.config().startup.as_ps(), 150_000);
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
}
