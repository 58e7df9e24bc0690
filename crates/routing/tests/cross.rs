//! `SimTopology::cross` — what the engine learns when a header crosses a
//! channel — against the channel-id decoding it replaces
//! (`channel_endpoints` plus `hop_direction`), for every channel of every
//! shape: the `Mesh` override, which starts from the node the header is at,
//! and the default method, through `Torus`.

use wormcast_routing::SimTopology;
use wormcast_topology::{ChannelId, Mesh, Sign, Topology, Torus};

/// Cross each of `channels` from its own source node; returns how many.
fn assert_cross_decodes(
    topo: &impl SimTopology,
    channels: impl Iterator<Item = ChannelId>,
) -> usize {
    let mut seen = 0;
    for ch in channels {
        let (from, to) = topo.channel_endpoints(ch);
        let (dim, sign) = topo.hop_direction(ch);
        assert_eq!(topo.cross(from, ch), (to, dim, sign), "channel {ch}");
        seen += 1;
    }
    seen
}

#[test]
fn mesh_cross_matches_endpoints_and_direction() {
    let shapes = [
        Mesh::new(&[1]),
        Mesh::new(&[6]),
        Mesh::new(&[4, 3, 2]),
        Mesh::new(&[2, 1, 3]),
        Mesh::new(&[3, 2, 2, 2]),
        Mesh::cube(8),
    ];
    for m in &shapes {
        // Two directed channels per link; a dimension of radix k has k - 1
        // links in each of its N / k lines.
        let links: usize = m
            .dims()
            .iter()
            .map(|&k| (k as usize - 1) * (m.num_nodes() / k as usize))
            .sum();
        assert_eq!(
            assert_cross_decodes(m, m.channels()),
            2 * links,
            "{:?}",
            m.dims()
        );
    }
}

#[test]
fn torus_cross_uses_the_default_decoding() {
    for t in [
        Torus::new(&[3]),
        Torus::new(&[5, 3]),
        Torus::kary_ncube(4, 3),
    ] {
        let channels: Vec<ChannelId> = t
            .nodes()
            .flat_map(|n| {
                (0..t.ndims()).flat_map(move |dim| [Sign::Plus, Sign::Minus].map(|s| (n, dim, s)))
            })
            .map(|(n, dim, sign)| t.channel(n, dim, sign))
            .collect();
        assert_eq!(
            assert_cross_decodes(&t, channels.into_iter()),
            t.num_channels(),
            "{:?}",
            t.dims()
        );
    }
}
