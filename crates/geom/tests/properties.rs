//! Seeded property tests of the geometry kernel's invariants: every
//! property runs on [`CASES`] cases, each drawn from its own
//! `SmallRng::seed_from_u64(seed)`, and every assertion names the seed.

use spatialdb_geom::rng::SmallRng;
use spatialdb_geom::{DecomposedPolyline, HasMbr, Point, Polyline, Rect, Segment};

/// Cases per property.
const CASES: u64 = 256;

/// Run `property` once per seed, on a generator of that seed.
fn check(property: impl Fn(u64, &mut SmallRng)) {
    for seed in 0..CASES {
        property(seed, &mut SmallRng::seed_from_u64(seed));
    }
}

fn point(rng: &mut SmallRng) -> Point {
    Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0))
}

fn rect(rng: &mut SmallRng) -> Rect {
    Rect::from_corners(point(rng), point(rng))
}

/// 2 to 39 vertices.
fn polyline(rng: &mut SmallRng) -> Polyline {
    let n = rng.gen_range(2..40usize);
    Polyline::new((0..n).map(|_| point(rng)).collect())
}

#[test]
fn union_is_commutative() {
    check(|seed, rng| {
        let (a, b) = (rect(rng), rect(rng));
        assert_eq!(a.union(&b), b.union(&a), "seed {seed}");
    });
}

#[test]
fn union_contains_operands() {
    check(|seed, rng| {
        let (a, b) = (rect(rng), rect(rng));
        let u = a.union(&b);
        assert!(u.contains_rect(&a), "seed {seed}");
        assert!(u.contains_rect(&b), "seed {seed}");
    });
}

#[test]
fn union_is_associative() {
    check(|seed, rng| {
        let (a, b, c) = (rect(rng), rect(rng), rect(rng));
        let l = a.union(&b).union(&c);
        let r = a.union(&b.union(&c));
        assert_eq!(l, r, "seed {seed}");
    });
}

#[test]
fn intersection_is_commutative() {
    check(|seed, rng| {
        let (a, b) = (rect(rng), rect(rng));
        assert_eq!(a.intersection(&b), b.intersection(&a), "seed {seed}");
    });
}

#[test]
fn intersection_inside_both() {
    check(|seed, rng| {
        let (a, b) = (rect(rng), rect(rng));
        let i = a.intersection(&b);
        if !i.is_empty() {
            assert!(a.contains_rect(&i), "seed {seed}");
            assert!(b.contains_rect(&i), "seed {seed}");
        }
    });
}

#[test]
fn intersects_iff_nonempty_intersection() {
    check(|seed, rng| {
        let (a, b) = (rect(rng), rect(rng));
        assert_eq!(
            a.intersects(&b),
            !a.intersection(&b).is_empty(),
            "seed {seed}"
        );
    });
}

#[test]
fn overlap_area_matches_intersection_area() {
    check(|seed, rng| {
        let (a, b) = (rect(rng), rect(rng));
        let via_rect = a.intersection(&b).area();
        assert!(
            (a.overlap_area(&b) - via_rect).abs() <= 1e-9 * (1.0 + via_rect),
            "seed {seed}"
        );
    });
}

#[test]
fn enlargement_nonnegative() {
    check(|seed, rng| {
        let (a, b) = (rect(rng), rect(rng));
        assert!(a.enlargement(&b) >= 0.0, "seed {seed}");
        assert!(b.enlargement(&a) >= 0.0, "seed {seed}");
    });
}

#[test]
fn enlargement_zero_iff_contained() {
    check(|seed, rng| {
        let (a, b) = (rect(rng), rect(rng));
        // Unions of random rectangles contain each other often enough
        // for the implication to bite.
        for (outer, inner) in [(a, b), (a.union(&b), a), (a.union(&b), b)] {
            if outer.contains_rect(&inner) {
                assert_eq!(outer.enlargement(&inner), 0.0, "seed {seed}");
            }
        }
    });
}

#[test]
fn overlap_fraction_in_unit_interval() {
    check(|seed, rng| {
        let (a, w) = (rect(rng), rect(rng));
        let f = a.overlap_fraction(&w);
        assert!(
            (0.0..=1.0 + 1e-12).contains(&f),
            "seed {seed}: fraction {f}"
        );
    });
}

#[test]
fn contains_point_implies_intersects_point_rect() {
    check(|seed, rng| {
        let (r, p) = (rect(rng), point(rng));
        if r.contains_point(&p) {
            let pr = Rect::new(p.x, p.y, p.x, p.y);
            assert!(r.intersects(&pr), "seed {seed}");
        }
    });
}

#[test]
fn segment_intersection_symmetric() {
    check(|seed, rng| {
        let s = Segment::new(point(rng), point(rng));
        let t = Segment::new(point(rng), point(rng));
        assert_eq!(s.intersects(&t), t.intersects(&s), "seed {seed}");
    });
}

#[test]
fn segment_self_intersection() {
    check(|seed, rng| {
        let s = Segment::new(point(rng), point(rng));
        assert!(s.intersects(&s), "seed {seed}");
    });
}

#[test]
fn segment_shares_endpoint_intersects() {
    check(|seed, rng| {
        let (a, b, c) = (point(rng), point(rng), point(rng));
        let s = Segment::new(a, b);
        let t = Segment::new(b, c);
        assert!(s.intersects(&t), "seed {seed}");
    });
}

#[test]
fn segment_intersect_rect_implies_mbr_overlap() {
    check(|seed, rng| {
        let s = Segment::new(point(rng), point(rng));
        let r = rect(rng);
        if s.intersects_rect(&r) {
            assert!(s.mbr().intersects(&r), "seed {seed}");
        }
    });
}

#[test]
fn polyline_mbr_contains_vertices() {
    check(|seed, rng| {
        let line = polyline(rng);
        let mbr = line.mbr();
        for v in line.vertices() {
            assert!(mbr.contains_point(v), "seed {seed}");
        }
    });
}

#[test]
fn polyline_rect_test_consistent_with_mbr() {
    check(|seed, rng| {
        let (line, r) = (polyline(rng), rect(rng));
        if line.intersects_rect(&r) {
            assert!(line.mbr().intersects(&r), "seed {seed}");
        }
    });
}

#[test]
fn decomposed_matches_naive_rect() {
    check(|seed, rng| {
        let (line, r) = (polyline(rng), rect(rng));
        let d = DecomposedPolyline::new(line.clone());
        assert_eq!(
            d.intersects_rect(&r),
            line.intersects_rect(&r),
            "seed {seed}"
        );
    });
}

#[test]
fn decomposed_matches_naive_pair() {
    check(|seed, rng| {
        let (a, b) = (polyline(rng), polyline(rng));
        let da = DecomposedPolyline::new(a.clone());
        let db = DecomposedPolyline::new(b.clone());
        assert_eq!(da.intersects(&db), a.intersects_polyline(&b), "seed {seed}");
    });
}

#[test]
fn polyline_intersection_symmetric() {
    check(|seed, rng| {
        let (a, b) = (polyline(rng), polyline(rng));
        assert_eq!(
            a.intersects_polyline(&b),
            b.intersects_polyline(&a),
            "seed {seed}"
        );
    });
}

#[test]
fn polyline_window_hit_when_vertex_inside() {
    check(|seed, rng| {
        let (line, r) = (polyline(rng), rect(rng));
        if line.vertices().iter().any(|v| r.contains_point(v)) {
            assert!(line.intersects_rect(&r), "seed {seed}");
        }
    });
}

#[test]
fn scale_preserves_center() {
    check(|seed, rng| {
        let (r, f) = (rect(rng), rng.gen_range(0.01..4.0));
        if r.area() > 0.0 {
            let (c0, c1) = (r.center(), r.scale(f).center());
            assert!((c0.x - c1.x).abs() < 1e-9, "seed {seed}");
            assert!((c0.y - c1.y).abs() < 1e-9, "seed {seed}");
        }
    });
}
