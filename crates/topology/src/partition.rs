//! Mesh partitioning helpers used by the broadcast algorithms.
//!
//! The DB algorithm partitions the mesh into row/column partitioning sets and
//! works corner-to-corner; the AB algorithm treats a 3D mesh as a stack of 2D
//! planes, each served through two opposite corners; RD recursively halves
//! partitions. These are the pieces of coordinate algebra they all share.

use crate::coord::{Coord, Sign};
use crate::ids::NodeId;
use crate::mesh::Mesh;
use crate::Topology;

/// A 2D sub-mesh of a higher-dimensional mesh, obtained by fixing every
/// dimension except two. For the paper's 3D networks, planes fix the Z
/// dimension: `Plane::of_3d(mesh, z)`.
///
/// # Examples
///
/// ```
/// use wormcast_topology::{Coord, Mesh, Plane};
///
/// let mesh = Mesh::cube(8);
/// let plane = Plane::of_3d(&mesh, 3);
/// let near = plane.nearest_corner(&mesh, &Coord::xyz(6, 7, 3));
/// assert_eq!(near, Coord::xyz(7, 7, 3));
/// assert_eq!(plane.opposite_corner(&mesh, &near), Coord::xyz(0, 0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plane {
    /// The dimension index used as the plane's local X axis.
    pub dim_x: usize,
    /// The dimension index used as the plane's local Y axis.
    pub dim_y: usize,
    /// A template coordinate carrying the fixed positions of all other dims.
    pub fixed: Coord,
}

impl Plane {
    /// The plane at height `z` of a 3D mesh (X–Y plane, Z fixed).
    ///
    /// # Panics
    /// Panics if the mesh is not 3-dimensional or `z` is out of range.
    pub fn of_3d(mesh: &Mesh, z: u16) -> Plane {
        assert_eq!(mesh.ndims(), 3, "Plane::of_3d requires a 3D mesh");
        assert!(z < mesh.dim_size(2), "z={z} out of range");
        Plane {
            dim_x: 0,
            dim_y: 1,
            fixed: Coord::xyz(0, 0, z),
        }
    }

    /// The whole of a 2D mesh viewed as a single plane.
    ///
    /// # Panics
    /// Panics if the mesh is not 2-dimensional.
    pub fn whole_2d(mesh: &Mesh) -> Plane {
        assert_eq!(mesh.ndims(), 2, "Plane::whole_2d requires a 2D mesh");
        Plane {
            dim_x: 0,
            dim_y: 1,
            fixed: Coord::xy(0, 0),
        }
    }

    /// The mesh coordinate of plane-local position `(x, y)`.
    pub fn at(&self, x: u16, y: u16) -> Coord {
        self.fixed.with(self.dim_x, x).with(self.dim_y, y)
    }

    /// Plane width (extent of the local X axis) in `mesh`.
    pub fn width(&self, mesh: &Mesh) -> u16 {
        mesh.dim_size(self.dim_x)
    }

    /// Plane height (extent of the local Y axis) in `mesh`.
    pub fn height(&self, mesh: &Mesh) -> u16 {
        mesh.dim_size(self.dim_y)
    }

    /// All nodes of the plane in row-major (x fastest) order.
    pub fn nodes(&self, mesh: &Mesh) -> Vec<NodeId> {
        let (w, h) = (self.width(mesh), self.height(mesh));
        let mut out = Vec::with_capacity(w as usize * h as usize);
        for y in 0..h {
            for x in 0..w {
                out.push(mesh.node_at(&self.at(x, y)));
            }
        }
        out
    }

    /// The four corner coordinates in order: (0,0), (w−1,0), (0,h−1), (w−1,h−1).
    pub fn corners(&self, mesh: &Mesh) -> [Coord; 4] {
        let (w, h) = (self.width(mesh) - 1, self.height(mesh) - 1);
        [self.at(0, 0), self.at(w, 0), self.at(0, h), self.at(w, h)]
    }

    /// The corner of this plane closest (Manhattan) to `from`, breaking ties
    /// towards the (0,0) corner for determinism.
    pub fn nearest_corner(&self, mesh: &Mesh, from: &Coord) -> Coord {
        *self
            .corners(mesh)
            .iter()
            .min_by_key(|c| from.manhattan(c))
            .expect("plane has corners")
    }

    /// The corner diagonally opposite `corner`.
    ///
    /// # Panics
    /// Panics if `corner` is not one of this plane's corners.
    pub fn opposite_corner(&self, mesh: &Mesh, corner: &Coord) -> Coord {
        let (w, h) = (self.width(mesh) - 1, self.height(mesh) - 1);
        let x = corner.get(self.dim_x);
        let y = corner.get(self.dim_y);
        assert!(
            (x == 0 || x == w) && (y == 0 || y == h),
            "{corner} is not a corner of the plane"
        );
        self.at(w - x, h - y)
    }
}

/// The node positions of a 1D line through `through`, varying dimension `dim`
/// over its full extent, in increasing-coordinate order.
pub fn line_nodes(mesh: &Mesh, through: &Coord, dim: usize) -> Vec<NodeId> {
    (0..mesh.dim_size(dim))
        .map(|v| mesh.node_at(&through.with(dim, v)))
        .collect()
}

/// Split the positions `0..len` into the two halves used by recursive
/// doubling: lower `[0, len/2)` and upper `[len/2, len)`. For odd `len` the
/// upper half is the larger.
pub fn halves(len: u16) -> (std::ops::Range<u16>, std::ops::Range<u16>) {
    let mid = len / 2;
    (0..mid, mid..len)
}

/// The corner nodes of an entire mesh (2^n of them), in lexicographic
/// low/high order per dimension.
pub fn mesh_corners(mesh: &Mesh) -> Vec<Coord> {
    let n = mesh.ndims();
    let mut out = Vec::with_capacity(1 << n);
    for mask in 0u32..(1 << n) {
        let axes: Vec<u16> = (0..n)
            .map(|d| {
                if mask & (1 << d) == 0 {
                    0
                } else {
                    mesh.dim_size(d) - 1
                }
            })
            .collect();
        out.push(Coord::new(&axes));
    }
    out
}

/// Walk from `from` towards `to` along a single dimension, returning each
/// intermediate coordinate including `to` but excluding `from`. Used to build
/// coded paths.
///
/// # Panics
/// Panics if `from` and `to` differ in more than one dimension.
pub fn straight_walk(from: &Coord, to: &Coord) -> Vec<Coord> {
    assert!(
        from.hamming(to) <= 1,
        "straight_walk requires single-dimension movement: {from} -> {to}"
    );
    let mut out = Vec::new();
    if from == to {
        return out;
    }
    let dim = (0..from.ndims())
        .find(|&d| from.get(d) != to.get(d))
        .unwrap();
    let sign = Sign::towards(from.get(dim), to.get(dim)).unwrap();
    let mut pos = from.get(dim) as i32;
    let end = to.get(dim) as i32;
    while pos != end {
        pos += sign.delta();
        out.push(from.with(dim, pos as u16));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_of_3d_extents() {
        let m = Mesh::new(&[4, 6, 3]);
        let p = Plane::of_3d(&m, 2);
        assert_eq!(p.width(&m), 4);
        assert_eq!(p.height(&m), 6);
        assert_eq!(p.nodes(&m).len(), 24);
        // every node has z == 2
        for n in p.nodes(&m) {
            assert_eq!(m.coord_of(n).get(2), 2);
        }
    }

    #[test]
    fn plane_corners() {
        let m = Mesh::new(&[4, 6, 3]);
        let p = Plane::of_3d(&m, 1);
        let cs = p.corners(&m);
        assert_eq!(cs[0], Coord::xyz(0, 0, 1));
        assert_eq!(cs[1], Coord::xyz(3, 0, 1));
        assert_eq!(cs[2], Coord::xyz(0, 5, 1));
        assert_eq!(cs[3], Coord::xyz(3, 5, 1));
    }

    #[test]
    fn nearest_and_opposite_corner() {
        let m = Mesh::cube(8);
        let p = Plane::of_3d(&m, 0);
        let near = p.nearest_corner(&m, &Coord::xyz(1, 6, 0));
        assert_eq!(near, Coord::xyz(0, 7, 0));
        assert_eq!(p.opposite_corner(&m, &near), Coord::xyz(7, 0, 0));
    }

    #[test]
    fn nearest_corner_tie_breaks_deterministically() {
        let m = Mesh::new(&[5, 5, 1]);
        let p = Plane::of_3d(&m, 0);
        // Centre is equidistant from all four corners; (0,0) wins.
        assert_eq!(p.nearest_corner(&m, &Coord::xyz(2, 2, 0)), p.at(0, 0));
    }

    #[test]
    #[should_panic(expected = "not a corner")]
    fn opposite_of_non_corner_panics() {
        let m = Mesh::cube(4);
        let p = Plane::of_3d(&m, 0);
        let _ = p.opposite_corner(&m, &Coord::xyz(1, 1, 0));
    }

    #[test]
    fn line_nodes_order() {
        let m = Mesh::new(&[4, 3]);
        let row = line_nodes(&m, &Coord::xy(0, 1), 0);
        let xs: Vec<u16> = row.iter().map(|&n| m.coord_of(n).get(0)).collect();
        assert_eq!(xs, vec![0, 1, 2, 3]);
        assert!(row.iter().all(|&n| m.coord_of(n).get(1) == 1));
    }

    #[test]
    fn halves_split() {
        assert_eq!(halves(8), (0..4, 4..8));
        assert_eq!(halves(7), (0..3, 3..7));
        assert_eq!(halves(1), (0..0, 0..1));
    }

    #[test]
    fn mesh_corners_count() {
        let m = Mesh::cube(4);
        let cs = mesh_corners(&m);
        assert_eq!(cs.len(), 8);
        assert!(cs.contains(&Coord::xyz(0, 0, 0)));
        assert!(cs.contains(&Coord::xyz(3, 3, 3)));
    }

    #[test]
    fn straight_walk_forward_and_back() {
        let a = Coord::xy(1, 2);
        let b = Coord::xy(4, 2);
        let w = straight_walk(&a, &b);
        assert_eq!(w, vec![Coord::xy(2, 2), Coord::xy(3, 2), Coord::xy(4, 2)]);
        let back = straight_walk(&b, &a);
        assert_eq!(
            back,
            vec![Coord::xy(3, 2), Coord::xy(2, 2), Coord::xy(1, 2)]
        );
    }

    #[test]
    fn straight_walk_empty_when_equal() {
        let a = Coord::xy(1, 1);
        assert!(straight_walk(&a, &a).is_empty());
    }

    #[test]
    #[should_panic(expected = "single-dimension")]
    fn straight_walk_rejects_diagonal() {
        let _ = straight_walk(&Coord::xy(0, 0), &Coord::xy(1, 1));
    }
}
