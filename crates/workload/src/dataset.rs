//! Declarative dataset synthesis for scenarios.
//!
//! A [`Dataset`] names *what* to load — the scenario driver decides how
//! many databases to split it across and materializes each database's
//! share deterministically. The two families:
//!
//! - [`Dataset::grid`] — a deterministic polyline lattice (a `√n × √n`
//!   grid of short three-point streets). Database *d* of a
//!   multi-database scenario is phase-shifted by a per-database salt.
//! - [`Dataset::uniform`] — seeded-RNG polylines scattered uniformly
//!   over the unit square, with a configurable segment count.

use spatialdb::geom::{Geometry, Point, Polyline};
use spatialdb_data::rng::SmallRng;

/// A reproducible synthetic dataset: every materialization of the same
/// dataset with the same salt and seed yields the same objects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dataset {
    kind: DatasetKind,
    objects: u64,
    segments: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum DatasetKind {
    Grid,
    Uniform,
}

impl Dataset {
    /// The deterministic polyline lattice: `objects` three-point streets
    /// on a `√n × √n` grid.
    pub fn grid(objects: u64) -> Self {
        Dataset {
            kind: DatasetKind::Grid,
            objects,
            segments: 2,
        }
    }

    /// `objects` seeded-random polylines uniform over the unit square.
    pub fn uniform(objects: u64) -> Self {
        Dataset {
            kind: DatasetKind::Uniform,
            objects,
            segments: 2,
        }
    }

    /// Number of segments per generated polyline (uniform datasets
    /// only; the grid lattice is fixed at two segments). Must be
    /// nonzero.
    #[must_use]
    pub fn polyline_segments(mut self, segments: usize) -> Self {
        assert!(segments > 0, "a polyline needs at least one segment");
        self.segments = segments;
        self
    }

    /// Total object count across all databases of the scenario.
    pub fn objects(&self) -> u64 {
        self.objects
    }

    /// Materialize `count` objects for one database. `salt` is the
    /// database index (phase-shifts the grid; perturbs the RNG stream);
    /// `seed` drives the uniform family.
    pub fn materialize(&self, count: u64, salt: u64, seed: u64) -> Vec<(u64, Geometry)> {
        match self.kind {
            DatasetKind::Grid => grid_objects(count, salt),
            DatasetKind::Uniform => uniform_objects(count, salt, seed, self.segments),
        }
    }
}

/// The lattice: object `i` starts at `(((i + 17·salt) mod side)/side,
/// (i div side)/side)` and runs two short segments east.
fn grid_objects(n: u64, salt: u64) -> Vec<(u64, Geometry)> {
    let side = (n as f64).sqrt().ceil() as u64;
    (0..n)
        .map(|i| {
            let x = ((i + salt * 17) % side) as f64 / side as f64;
            let y = (i / side) as f64 / side as f64;
            let line = Polyline::new(vec![
                Point::new(x, y),
                Point::new(x + 0.6 / side as f64, y + 0.3 / side as f64),
                Point::new(x + 1.2 / side as f64, y),
            ]);
            (i, Geometry::from(line))
        })
        .collect()
}

/// Seeded-random polylines: a uniform start point followed by
/// `segments` short random steps, clamped to the unit square.
fn uniform_objects(n: u64, salt: u64, seed: u64, segments: usize) -> Vec<(u64, Geometry)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..n)
        .map(|i| {
            let mut x = rng.next_f64();
            let mut y = rng.next_f64();
            let mut pts = Vec::with_capacity(segments + 1);
            pts.push(Point::new(x, y));
            for _ in 0..segments {
                x = (x + (rng.next_f64() - 0.5) * 0.02).clamp(0.0, 1.0);
                y = (y + (rng.next_f64() - 0.5) * 0.02).clamp(0.0, 1.0);
                pts.push(Point::new(x, y));
            }
            (i, Geometry::from(Polyline::new(pts)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatialdb::geom::HasMbr;

    #[test]
    fn grid_matches_bench_formula() {
        let objects = Dataset::grid(9).materialize(9, 0, 0);
        assert_eq!(objects.len(), 9);
        // side = 3; object 4 sits at ((4 % 3)/3, (4 / 3)/3) = (1/3, 1/3).
        let mbr = objects[4].1.mbr();
        assert!((mbr.xmin - 1.0 / 3.0).abs() < 1e-12);
        assert!((mbr.ymin - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn grid_salt_phase_shifts() {
        let a = Dataset::grid(100).materialize(100, 0, 0);
        let b = Dataset::grid(100).materialize(100, 1, 0);
        assert_ne!(a[0].1.mbr().xmin, b[0].1.mbr().xmin);
        // Same salt reproduces byte-identically.
        let a2 = Dataset::grid(100).materialize(100, 0, 0);
        assert_eq!(a[0].1.mbr(), a2[0].1.mbr());
    }

    #[test]
    fn uniform_is_seed_deterministic_and_bounded() {
        let d = Dataset::uniform(50).polyline_segments(8);
        let a = d.materialize(50, 0, 42);
        let b = d.materialize(50, 0, 42);
        let c = d.materialize(50, 0, 43);
        assert_eq!(a.len(), 50);
        for (i, (id, g)) in a.iter().enumerate() {
            assert_eq!(*id, i as u64);
            let m = g.mbr();
            assert!(m.xmin >= 0.0 && m.xmax <= 1.0);
            assert!(m.ymin >= 0.0 && m.ymax <= 1.0);
            assert_eq!(m, b[i].1.mbr());
        }
        assert_ne!(a[0].1.mbr(), c[0].1.mbr());
    }
}
