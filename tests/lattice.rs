//! The lattice objects of the integration tests that need them: points,
//! polylines and polygons whose every coordinate is a multiple of 1/128.

use spatialdb::geom::{Point, Polygon, Polyline};
use spatialdb::Geometry;

/// Lattice pitch: every coordinate below is a multiple of 1/128, exact
/// in binary, so "touches the edge" means equal, not nearly equal.
pub const STEP: f64 = 1.0 / 128.0;

pub fn at(i: usize) -> f64 {
    i as f64 * STEP
}

/// Points, polylines and polygons on the lattice. The polylines include
/// axis-parallel segments (zero-area MBRs) and an L whose MBR corner it
/// never enters; the polygons are triangles covering half their MBR —
/// both kinds give windows that hit the MBR and miss the object.
pub fn lattice_objects() -> Vec<(u64, Geometry)> {
    let mut objects: Vec<Geometry> = Vec::new();
    for i in (2..122).step_by(8) {
        for j in (2..122).step_by(8) {
            let (x, y) = (at(i), at(j));
            let p = |dx: usize, dy: usize| Point::new(x + at(dx), y + at(dy));
            objects.push(match (i / 8 + j / 8) % 5 {
                0 => p(0, 0).into(),
                1 => Polyline::new(vec![p(0, 0), p(4, 0)]).into(),
                2 => Polyline::new(vec![p(0, 0), p(0, 4)]).into(),
                3 => Polyline::new(vec![p(0, 0), p(0, 4), p(4, 4)]).into(),
                _ => Polygon::new(vec![p(0, 0), p(4, 0), p(0, 4)]).into(),
            });
        }
    }
    objects
        .into_iter()
        .enumerate()
        .map(|(id, g)| (id as u64, g))
        .collect()
}
