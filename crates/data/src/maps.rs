//! Generation of the two synthetic maps.
//!
//! The generator reproduces the statistical properties the experiments
//! depend on:
//!
//! * **spatial clustering** — objects concentrate in county-like blobs of
//!   varying density, as census geography does; the data space is the
//!   unit square;
//! * **object shape** — map 1 objects are short, axis-aligned-ish street
//!   segments (grid-of-roads pattern); map 2 objects are longer meandering
//!   polylines (rivers, boundaries, railway tracks);
//! * **object size** — the serialized byte size follows a clamped
//!   log-normal around the series average of Table 1, so some objects of
//!   the larger series exceed a 4 KB page (exercising the primary
//!   organization's overflow path and internal clustering).
//!
//! # The model
//!
//! A map draws everything from one [`SmallRng`] seeded with
//! `seed ^ (the map's Table 1 object count)`, in this order:
//!
//! 1. **24 county blobs**: each has a centre uniform in
//!    `[0.08, 0.92)²`, a spread σ uniform in `[0.015, 0.07)`, a weight
//!    drawn from Exp(1) (then normalised over the 24) and a road-grid
//!    angle uniform in `[0, π/2)`.
//! 2. **Per object**, in id order: a county, picked with probability
//!    its weight; a size factor, log-normal with σ 0.45, scaled to mean
//!    ≈ 1 and clamped to `[0.25, 4]`, which times the series' average
//!    object size gives the target bytes and so the vertex count; then
//!    the object's walk.
//!    * **Map 1, streets**: a start normally distributed around the
//!      county centre (σ the county's), a direction along one of the
//!      county's two grid axes (its grid angle, or that plus π/2, with
//!      probability ½ each), a length uniform in `[0.0005, 0.004)`, and
//!      the vertices evenly along it with a normal perpendicular jitter
//!      of 6 % of the length.
//!    * **Map 2, meandering walks**: a class draw in `0..3` nothing reads
//!      but every map keeps (dropping it would move every later draw), a
//!      start around the county centre with 1.5 × its σ, a heading
//!      uniform in `[0, 2π)`, a length uniform in `[0.002, 0.015)`, and
//!      equal steps whose heading drifts by a normal 0.25 rad each.
//!
//! Every coordinate is clamped to the unit square. Everything is a pure
//! function of `(dataset, scale, seed)`.

use crate::rng::SmallRng;
use crate::series::{DataSet, MapId};
use spatialdb_geom::{Point, Polyline, Rect};

/// Whether to retain full vertex geometry or only MBRs.
///
/// The full-scale experiments only need MBRs and byte sizes (the exact
/// geometry test is charged at the paper's constant CPU cost), so
/// [`GeometryMode::MbrOnly`] avoids holding ~20 M vertices in memory for
/// the C series. The MBR of an object is **identical** in both modes: the
/// vertex walk is always generated; only its retention differs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GeometryMode {
    /// Keep the polylines (examples, refinement tests, small scales).
    Full,
    /// Keep only MBR and size (full-scale I/O experiments).
    MbrOnly,
}

/// One generated map object.
#[derive(Clone, Debug)]
pub struct MapObject {
    /// Object id, unique within the map.
    pub id: u64,
    /// Minimum bounding rectangle.
    pub mbr: Rect,
    /// Size of the exact representation in bytes.
    pub size_bytes: u32,
    /// Exact geometry, present in [`GeometryMode::Full`].
    pub geometry: Option<Polyline>,
}

/// A generated map: the unit-square data space plus its objects.
#[derive(Clone, Debug)]
pub struct SpatialMap {
    /// Which Table 1 row this map realizes.
    pub dataset: DataSet,
    /// The objects, in generation (insertion) order — the paper inserts
    /// unsorted input (§5.2).
    pub objects: Vec<MapObject>,
}

/// A county-like cluster of the synthetic geography.
struct County {
    center: Point,
    sigma: f64,
    weight: f64,
    /// Rotation of the local road grid.
    grid_angle: f64,
}

fn sample_counties(rng: &mut SmallRng, n: usize) -> Vec<County> {
    let mut counties = Vec::with_capacity(n);
    for _ in 0..n {
        counties.push(County {
            center: Point::new(rng.gen_range(0.08..0.92), rng.gen_range(0.08..0.92)),
            sigma: rng.gen_range(0.015..0.07),
            weight: -f64::ln(rng.gen_range(1e-6..1.0f64)), // Exp(1)
            grid_angle: rng.gen_range(0.0..std::f64::consts::FRAC_PI_2),
        });
    }
    let total: f64 = counties.iter().map(|c| c.weight).sum();
    for c in &mut counties {
        c.weight /= total;
    }
    counties
}

fn pick_county<'a>(rng: &mut SmallRng, counties: &'a [County]) -> &'a County {
    let mut u: f64 = rng.gen_range(0.0..1.0);
    for c in counties {
        if u < c.weight {
            return c;
        }
        u -= c.weight;
    }
    counties.last().expect("counties non-empty")
}

/// Box–Muller standard normal sample.
fn gauss(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn clamp01(v: f64) -> f64 {
    v.clamp(0.0, 1.0)
}

/// Log-normal size factor with mean ≈ 1, clamped to `[0.25, 4.0]`.
fn size_factor(rng: &mut SmallRng) -> f64 {
    const SIGMA: f64 = 0.45;
    let ln_mean_correction = (SIGMA * SIGMA / 2.0).exp();
    ((SIGMA * gauss(rng)).exp() / ln_mean_correction).clamp(0.25, 4.0)
}

impl SpatialMap {
    /// Generate a map.
    ///
    /// * `scale` — fraction of the full Table 1 object count (1.0 for the
    ///   paper-scale experiments, small values for tests);
    /// * `mode` — geometry retention;
    /// * `seed` — RNG seed; the same `(dataset, scale, seed)` always
    ///   yields the same map.
    pub fn generate(dataset: DataSet, scale: f64, mode: GeometryMode, seed: u64) -> SpatialMap {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let spec = dataset.spec();
        let n = ((spec.num_objects as f64 * scale).round() as usize).max(1);
        let mut rng = SmallRng::seed_from_u64(seed ^ (dataset.map.num_objects() as u64));
        let counties = sample_counties(&mut rng, 24);
        let mut objects = Vec::with_capacity(n);
        for id in 0..n as u64 {
            let county = pick_county(&mut rng, &counties);
            let target = (spec.avg_object_bytes as f64 * size_factor(&mut rng)).round() as usize;
            let num_vertices = Polyline::vertices_for_size(target);
            let obj = match dataset.map {
                MapId::Map1 => gen_street(&mut rng, county, num_vertices, id, mode),
                MapId::Map2 => gen_linear_feature(&mut rng, county, num_vertices, id, mode),
            };
            objects.push(obj);
        }
        SpatialMap { dataset, objects }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` if the map holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Average serialized object size in bytes.
    pub fn avg_object_bytes(&self) -> f64 {
        if self.objects.is_empty() {
            return 0.0;
        }
        self.total_bytes() as f64 / self.objects.len() as f64
    }

    /// Total serialized size of all objects in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.size_bytes as u64).sum()
    }

    /// The MBRs of all objects, in order.
    pub fn mbrs(&self) -> Vec<Rect> {
        self.objects.iter().map(|o| o.mbr).collect()
    }
}

/// Generate the vertex walk of one object, returning its MBR, exact size
/// and (optionally) the polyline.
fn walk_to_object(id: u64, vertices: Vec<Point>, mode: GeometryMode) -> MapObject {
    debug_assert!(vertices.len() >= 2);
    let mut mbr = Rect::empty();
    for v in &vertices {
        mbr = mbr.union(&Rect::new(v.x, v.y, v.x, v.y));
    }
    let size_bytes = (spatialdb_geom::polyline::POLYLINE_HEADER_BYTES
        + spatialdb_geom::polyline::BYTES_PER_VERTEX * vertices.len()) as u32;
    let geometry = match mode {
        GeometryMode::Full => Some(Polyline::new(vertices)),
        GeometryMode::MbrOnly => None,
    };
    MapObject {
        id,
        mbr,
        size_bytes,
        geometry,
    }
}

/// Map 1: a street — a short, nearly straight segment chain aligned with
/// the county's road grid, with small perpendicular jitter.
fn gen_street(
    rng: &mut SmallRng,
    county: &County,
    num_vertices: usize,
    id: u64,
    mode: GeometryMode,
) -> MapObject {
    let cx = clamp01(county.center.x + gauss(rng) * county.sigma);
    let cy = clamp01(county.center.y + gauss(rng) * county.sigma);
    // Streets follow the county grid: one of the two grid directions.
    let along = if rng.gen_bool(0.5) {
        county.grid_angle
    } else {
        county.grid_angle + std::f64::consts::FRAC_PI_2
    };
    let length: f64 = rng.gen_range(0.0005..0.004);
    let (dx, dy) = (along.cos(), along.sin());
    let step = length / (num_vertices - 1) as f64;
    let jitter = length * 0.06;
    let mut vertices = Vec::with_capacity(num_vertices);
    for i in 0..num_vertices {
        let t = i as f64 * step;
        let j = gauss(rng) * jitter;
        vertices.push(Point::new(
            clamp01(cx + dx * t - dy * j),
            clamp01(cy + dy * t + dx * j),
        ));
    }
    walk_to_object(id, vertices, mode)
}

/// Map 2: a river / boundary / railway track — a longer meandering walk
/// whose heading drifts randomly.
fn gen_linear_feature(
    rng: &mut SmallRng,
    county: &County,
    num_vertices: usize,
    id: u64,
    mode: GeometryMode,
) -> MapObject {
    // The feature's class (river, boundary or railway track): nothing
    // reads it, but every later draw of the map follows this one, so
    // dropping it would change every map 2.
    let _class = rng.gen_range(0..3u8);
    let mut x = clamp01(county.center.x + gauss(rng) * county.sigma * 1.5);
    let mut y = clamp01(county.center.y + gauss(rng) * county.sigma * 1.5);
    let mut heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let length: f64 = rng.gen_range(0.002..0.015);
    let step = length / (num_vertices - 1) as f64;
    let mut vertices = Vec::with_capacity(num_vertices);
    vertices.push(Point::new(x, y));
    for _ in 1..num_vertices {
        heading += gauss(rng) * 0.25;
        x = clamp01(x + heading.cos() * step);
        y = clamp01(y + heading.sin() * step);
        vertices.push(Point::new(x, y));
    }
    walk_to_object(id, vertices, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesId;

    fn a1() -> DataSet {
        DataSet {
            series: SeriesId::A,
            map: MapId::Map1,
        }
    }

    fn a2() -> DataSet {
        DataSet {
            series: SeriesId::A,
            map: MapId::Map2,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let m1 = SpatialMap::generate(a1(), 0.005, GeometryMode::MbrOnly, 42);
        let m2 = SpatialMap::generate(a1(), 0.005, GeometryMode::MbrOnly, 42);
        assert_eq!(m1.len(), m2.len());
        for (a, b) in m1.objects.iter().zip(&m2.objects) {
            assert_eq!(a.mbr, b.mbr);
            assert_eq!(a.size_bytes, b.size_bytes);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let m1 = SpatialMap::generate(a1(), 0.005, GeometryMode::MbrOnly, 1);
        let m2 = SpatialMap::generate(a1(), 0.005, GeometryMode::MbrOnly, 2);
        let same = m1
            .objects
            .iter()
            .zip(&m2.objects)
            .filter(|(a, b)| a.mbr == b.mbr)
            .count();
        assert!(same < m1.len() / 10);
    }

    #[test]
    fn scale_controls_count() {
        let m = SpatialMap::generate(a1(), 0.01, GeometryMode::MbrOnly, 7);
        assert_eq!(m.len(), 1315); // round(131461 * 0.01)
        let full_spec = a1().spec();
        assert_eq!(full_spec.num_objects, 131_461);
    }

    #[test]
    fn average_size_matches_series_spec() {
        for ds in [a1(), a2()] {
            let m = SpatialMap::generate(ds, 0.05, GeometryMode::MbrOnly, 3);
            let want = ds.spec().avg_object_bytes as f64;
            let got = m.avg_object_bytes();
            assert!(
                (got - want).abs() / want < 0.06,
                "{ds}: avg {got:.0} B vs spec {want} B"
            );
        }
    }

    #[test]
    fn size_distribution_has_a_tail() {
        // Some C-series objects exceed one 4 KB page (needed by the
        // primary organization's overflow path).
        let ds = DataSet {
            series: SeriesId::C,
            map: MapId::Map1,
        };
        let m = SpatialMap::generate(ds, 0.02, GeometryMode::MbrOnly, 11);
        let over_page = m.objects.iter().filter(|o| o.size_bytes > 4096).count();
        assert!(over_page > 0, "no objects over a page");
        assert!(over_page < m.len() / 4, "too many oversized objects");
    }

    #[test]
    fn objects_inside_unit_square() {
        let space = Rect::new(0.0, 0.0, 1.0, 1.0);
        for ds in [a1(), a2()] {
            let m = SpatialMap::generate(ds, 0.01, GeometryMode::MbrOnly, 5);
            for o in &m.objects {
                assert!(space.contains_rect(&o.mbr), "object {} escapes", o.id);
            }
        }
    }

    #[test]
    fn geometry_mode_full_keeps_polylines_with_matching_mbr() {
        let m = SpatialMap::generate(a2(), 0.003, GeometryMode::Full, 9);
        for o in &m.objects {
            let line = o.geometry.as_ref().expect("geometry retained");
            assert_eq!(spatialdb_geom::HasMbr::mbr(line), o.mbr);
            assert_eq!(line.serialized_size() as u32, o.size_bytes);
        }
    }

    #[test]
    fn mbr_identical_across_modes() {
        let full = SpatialMap::generate(a1(), 0.003, GeometryMode::Full, 13);
        let slim = SpatialMap::generate(a1(), 0.003, GeometryMode::MbrOnly, 13);
        for (a, b) in full.objects.iter().zip(&slim.objects) {
            assert_eq!(a.mbr, b.mbr);
            assert_eq!(a.size_bytes, b.size_bytes);
        }
    }

    #[test]
    fn data_is_spatially_clustered() {
        // Compare the fraction of objects in the densest 10x10 grid cell
        // against the uniform expectation: clustered data concentrates.
        let m = SpatialMap::generate(a1(), 0.02, GeometryMode::MbrOnly, 21);
        let mut cells = [0usize; 100];
        for o in &m.objects {
            let c = o.mbr.center();
            let i = ((c.x * 10.0) as usize).min(9) + 10 * ((c.y * 10.0) as usize).min(9);
            cells[i] += 1;
        }
        let max = *cells.iter().max().unwrap();
        let uniform = m.len() / 100;
        assert!(
            max > uniform * 3,
            "densest cell {max} vs uniform {uniform}: not clustered"
        );
    }

    #[test]
    fn map2_objects_are_larger_extent_than_map1() {
        let m1 = SpatialMap::generate(a1(), 0.01, GeometryMode::MbrOnly, 17);
        let m2 = SpatialMap::generate(a2(), 0.01, GeometryMode::MbrOnly, 17);
        let avg_margin =
            |m: &SpatialMap| m.objects.iter().map(|o| o.mbr.margin()).sum::<f64>() / m.len() as f64;
        assert!(avg_margin(&m2) > avg_margin(&m1));
    }

    /// FNV-1a over every object's id, MBR bits, size and vertex bits.
    fn checksum(map: &SpatialMap) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        for o in &map.objects {
            eat(o.id);
            for side in [o.mbr.xmin, o.mbr.ymin, o.mbr.xmax, o.mbr.ymax] {
                eat(side.to_bits());
            }
            eat(u64::from(o.size_bytes));
            for v in o.geometry.as_ref().expect("full geometry").vertices() {
                eat(v.x.to_bits());
                eat(v.y.to_bits());
            }
        }
        h
    }

    /// A lost, added or reordered draw anywhere in the generator changes
    /// these sums.
    #[test]
    fn generated_maps_are_pinned() {
        let a1 = SpatialMap::generate(a1(), 0.01, GeometryMode::Full, 1994);
        let a2 = SpatialMap::generate(a2(), 0.01, GeometryMode::Full, 1994);
        assert_eq!((a1.len(), a2.len()), (1315, 1290));
        assert_eq!(checksum(&a1), 2_808_691_933_303_095_266);
        assert_eq!(checksum(&a2), 2_360_033_476_708_139_495);
    }
}
