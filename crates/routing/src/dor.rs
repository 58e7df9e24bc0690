//! Dimension-ordered (e-cube / XY / XYZ) routing.
//!
//! The deterministic routing discipline underneath RD, EDN and DB: a message
//! corrects its address one dimension at a time, in a fixed dimension order.
//! Deadlock-free on meshes because the channel dependency graph is acyclic
//! (a hop in dimension d is never followed by a hop in a lower dimension).

use crate::path::Path;
use wormcast_topology::{Coord, NodeId, Sign, Topology};

/// Construct the dimension-ordered minimal path from `src` to `dst`,
/// correcting dimensions in increasing index order (X, then Y, then Z).
///
/// # Examples
///
/// ```
/// use wormcast_routing::{dor_path, is_dor_legal};
/// use wormcast_topology::{Coord, Mesh, Topology};
///
/// let mesh = Mesh::square(4);
/// let p = dor_path(&mesh, mesh.node_at(&Coord::xy(0, 0)), mesh.node_at(&Coord::xy(2, 3)));
/// assert_eq!(p.len(), 5); // minimal: 2 east + 3 north
/// assert!(is_dor_legal(&mesh, &p));
/// ```
pub fn dor_path<T: Topology>(topo: &T, src: NodeId, dst: NodeId) -> Path {
    let cs = topo.coord_of(src);
    let cd = topo.coord_of(dst);
    let mut hops = Vec::with_capacity(cs.manhattan(&cd) as usize);
    let (mut cur, mut at) = (cs, src);
    for dim in 0..topo.ndims() {
        while cur.get(dim) != cd.get(dim) {
            let sign = Sign::towards(cur.get(dim), cd.get(dim)).unwrap();
            cur = cur.with(dim, (cur.get(dim) as i32 + sign.delta()) as u16);
            let next = topo.node_at(&cur);
            hops.push(
                topo.channel_between(at, next)
                    .expect("a DOR step is one hop"),
            );
            at = next;
        }
    }
    Path { src, hops }
}

/// Whether a path obeys dimension order: once it has moved in dimension `d`,
/// it never moves in a dimension `< d`, and it never reverses direction
/// within a dimension.
pub fn is_dor_legal<T: Topology>(topo: &T, path: &Path) -> bool {
    let nodes = path.nodes(topo);
    let mut max_dim_seen: Option<usize> = None;
    let mut dim_sign: Vec<Option<Sign>> = vec![None; topo.ndims()];
    for w in nodes.windows(2) {
        let (a, b) = (topo.coord_of(w[0]), topo.coord_of(w[1]));
        let Some((dim, sign)) = hop_dim_sign(&a, &b) else {
            return false; // non-adjacent or multi-dim hop
        };
        if let Some(m) = max_dim_seen {
            if dim < m {
                return false;
            }
        }
        match dim_sign[dim] {
            None => dim_sign[dim] = Some(sign),
            Some(s) if s != sign => return false,
            _ => {}
        }
        max_dim_seen = Some(max_dim_seen.map_or(dim, |m| m.max(dim)));
    }
    true
}

/// The (dimension, sign) of a single-hop move between adjacent coordinates,
/// or `None` if the coordinates are equal or differ in several dimensions.
pub fn hop_dim_sign(a: &Coord, b: &Coord) -> Option<(usize, Sign)> {
    let mut found = None;
    for d in 0..a.ndims() {
        if a.get(d) != b.get(d) {
            if found.is_some() {
                return None;
            }
            found = Some((d, Sign::towards(a.get(d), b.get(d))?));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_topology::{Coord, Mesh};

    #[test]
    fn dor_path_corrects_x_then_y_then_z() {
        let m = Mesh::cube(4);
        let src = m.node_at(&Coord::xyz(0, 0, 0));
        let dst = m.node_at(&Coord::xyz(2, 1, 3));
        let p = dor_path(&m, src, dst);
        assert!(p.is_minimal(&m));
        let coords: Vec<Coord> = p.nodes(&m).iter().map(|&n| m.coord_of(n)).collect();
        assert_eq!(
            coords,
            vec![
                Coord::xyz(0, 0, 0),
                Coord::xyz(1, 0, 0),
                Coord::xyz(2, 0, 0),
                Coord::xyz(2, 1, 0),
                Coord::xyz(2, 1, 1),
                Coord::xyz(2, 1, 2),
                Coord::xyz(2, 1, 3),
            ]
        );
    }

    #[test]
    fn dor_path_to_self_is_empty() {
        let m = Mesh::cube(4);
        let n = m.node_at(&Coord::xyz(1, 1, 1));
        let p = dor_path(&m, n, n);
        assert!(p.is_empty());
    }

    #[test]
    fn dor_paths_are_legal() {
        let m = Mesh::cube(4);
        for s in [0u32, 5, 17, 63] {
            for d in [0u32, 9, 31, 63] {
                let p = dor_path(&m, NodeId(s), NodeId(d));
                assert!(is_dor_legal(&m, &p), "dor {s}->{d} should be legal");
                assert!(p.is_minimal(&m));
            }
        }
    }

    #[test]
    fn yx_order_is_illegal() {
        let m = Mesh::square(4);
        // Move Y then X: violates X-before-Y.
        let p = Path::through(
            &m,
            &[
                m.node_at(&Coord::xy(0, 0)),
                m.node_at(&Coord::xy(0, 1)),
                m.node_at(&Coord::xy(1, 1)),
            ],
        );
        assert!(!is_dor_legal(&m, &p));
    }

    #[test]
    fn reversal_is_illegal() {
        let m = Mesh::square(4);
        let p = Path::through(
            &m,
            &[
                m.node_at(&Coord::xy(0, 0)),
                m.node_at(&Coord::xy(1, 0)),
                m.node_at(&Coord::xy(0, 0)),
            ],
        );
        assert!(!is_dor_legal(&m, &p));
    }

    #[test]
    fn hop_dim_sign_basics() {
        assert_eq!(
            hop_dim_sign(&Coord::xy(1, 1), &Coord::xy(2, 1)),
            Some((0, Sign::Plus))
        );
        assert_eq!(
            hop_dim_sign(&Coord::xy(1, 1), &Coord::xy(1, 0)),
            Some((1, Sign::Minus))
        );
        assert_eq!(hop_dim_sign(&Coord::xy(1, 1), &Coord::xy(1, 1)), None);
        assert_eq!(hop_dim_sign(&Coord::xy(1, 1), &Coord::xy(2, 2)), None);
    }
}
