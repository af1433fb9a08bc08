//! The generic [`Geometry`] of a stored object.
//!
//! The paper's test data are polylines, but a spatial database stores
//! more than streets: the public API accepts points (wells, landmarks),
//! polylines (streets, rivers, tracks) and simple polygons
//! (administrative regions). `Geometry` is the closed enum over those
//! exact representations; the query layer refines every candidate with
//! the predicates below, and the storage layer only ever sees the MBR
//! and the serialized size.
//!
//! Polylines are carried in their *decomposed* representation
//! ([`DecomposedPolyline`], \[SK91\]) so that the join's exact geometry
//! test runs on component bounding boxes rather than the naive
//! segment-pair sweep.

use crate::decomposed::DecomposedPolyline;
use crate::hint::{CellMasks, Hint};
use crate::point::Point;
use crate::polygon::Polygon;
use crate::polyline::{Polyline, BYTES_PER_VERTEX, POLYLINE_HEADER_BYTES};
use crate::rect::Rect;
use crate::HasMbr;

/// The exact representation of a stored spatial object.
#[derive(Clone, Debug)]
pub enum Geometry {
    /// A point object (zero-dimensional features).
    Point(Point),
    /// A polyline in decomposed representation (linear features).
    Polyline(DecomposedPolyline),
    /// A simple polygon (region features).
    Polygon(Polygon),
}

impl Geometry {
    /// Size of the serialized representation in bytes — what the storage
    /// layer charges when placing the object into pages or cluster
    /// units. Points use the fixed object header plus one vertex.
    pub fn serialized_size(&self) -> usize {
        match self {
            Geometry::Point(_) => POLYLINE_HEADER_BYTES + BYTES_PER_VERTEX,
            Geometry::Polyline(l) => l.polyline().serialized_size(),
            Geometry::Polygon(p) => p.serialized_size(),
        }
    }

    /// `true` if the object shares at least one point with the closed
    /// rectangle (the exact window-query predicate).
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        match self {
            Geometry::Point(p) => rect.contains_point(p),
            Geometry::Polyline(l) => l.intersects_rect(rect),
            Geometry::Polygon(p) => p.intersects_rect(rect),
        }
    }

    /// `true` if the object contains `p` (the exact point-query
    /// predicate; closed-set semantics).
    pub fn contains_point(&self, p: &Point) -> bool {
        match self {
            Geometry::Point(q) => q == p,
            Geometry::Polyline(l) => l.contains_point(p),
            Geometry::Polygon(poly) => poly.contains_point(p),
        }
    }

    /// `true` if two objects share at least one point (the exact
    /// intersection-join predicate). Symmetric across all variant
    /// combinations.
    pub fn intersects(&self, other: &Geometry) -> bool {
        match (self, other) {
            (Geometry::Point(a), Geometry::Point(b)) => a == b,
            (Geometry::Point(p), g) | (g, Geometry::Point(p)) => g.contains_point(p),
            (Geometry::Polyline(a), Geometry::Polyline(b)) => a.intersects(b),
            (Geometry::Polyline(l), Geometry::Polygon(p))
            | (Geometry::Polygon(p), Geometry::Polyline(l)) => p.intersects_polyline(l.polyline()),
            (Geometry::Polygon(a), Geometry::Polygon(b)) => a.intersects_polygon(b),
        }
    }

    /// The object's second-filter-step approximations, relative to its
    /// [`mbr`](HasMbr::mbr): two points — a polyline's end vertices, a
    /// polygon's ring vertices `0` and `n / 2` — and the object's cell
    /// masks (a polyline's computed once and shared by its clones, a
    /// polygon's here). A point has none — its MBR is the point, and
    /// already decides every window.
    pub fn hint(&self) -> Hint {
        let masks = match self {
            Geometry::Point(_) => return Hint::NONE,
            Geometry::Polyline(l) => l.masks(),
            Geometry::Polygon(p) => CellMasks::of_ring(&p.mbr(), p.ring()),
        };
        match self.hinted_points() {
            Some([a, b]) => Hint::encode(&self.mbr(), a, b).with_masks(masks),
            None => Hint::NONE,
        }
    }

    /// The two points of the object its [`hint`](Geometry::hint) encodes.
    pub(crate) fn hinted_points(&self) -> Option<[&Point; 2]> {
        match self {
            Geometry::Point(_) => None,
            Geometry::Polyline(l) => {
                let v = l.polyline().vertices();
                Some([&v[0], &v[v.len() - 1]])
            }
            Geometry::Polygon(p) => Some([&p.ring()[0], &p.ring()[p.num_vertices() / 2]]),
        }
    }

    /// The decomposed polyline, if this is a polyline object.
    pub fn as_polyline(&self) -> Option<&DecomposedPolyline> {
        match self {
            Geometry::Polyline(l) => Some(l),
            _ => None,
        }
    }

    /// The polygon, if this is a region object.
    pub fn as_polygon(&self) -> Option<&Polygon> {
        match self {
            Geometry::Polygon(p) => Some(p),
            _ => None,
        }
    }
}

impl HasMbr for Geometry {
    fn mbr(&self) -> Rect {
        match self {
            Geometry::Point(p) => p.mbr(),
            Geometry::Polyline(l) => l.mbr(),
            Geometry::Polygon(p) => p.mbr(),
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<Polyline> for Geometry {
    fn from(l: Polyline) -> Self {
        Geometry::Polyline(DecomposedPolyline::new(l))
    }
}

impl From<DecomposedPolyline> for Geometry {
    fn from(l: DecomposedPolyline) -> Self {
        Geometry::Polyline(l)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Geometry {
        Geometry::from(Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 0.0),
        ]))
    }

    fn square() -> Geometry {
        Geometry::from(Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]))
    }

    #[test]
    fn mbr_per_variant() {
        assert_eq!(
            Geometry::from(Point::new(0.3, 0.7)).mbr(),
            Rect::new(0.3, 0.7, 0.3, 0.7)
        );
        assert_eq!(line().mbr(), Rect::new(0.0, 0.0, 2.0, 1.0));
        assert_eq!(square().mbr(), Rect::new(0.0, 0.0, 1.0, 1.0));
    }

    #[test]
    fn serialized_sizes() {
        assert_eq!(
            Geometry::from(Point::new(0.0, 0.0)).serialized_size(),
            POLYLINE_HEADER_BYTES + BYTES_PER_VERTEX
        );
        assert_eq!(
            line().serialized_size(),
            POLYLINE_HEADER_BYTES + 3 * BYTES_PER_VERTEX
        );
        assert_eq!(
            square().serialized_size(),
            POLYLINE_HEADER_BYTES + 4 * BYTES_PER_VERTEX
        );
    }

    #[test]
    fn window_predicate_per_variant() {
        let w = Rect::new(0.4, 0.2, 0.6, 0.8);
        assert!(Geometry::from(Point::new(0.5, 0.5)).intersects_rect(&w));
        assert!(!Geometry::from(Point::new(0.9, 0.5)).intersects_rect(&w));
        assert!(line().intersects_rect(&w));
        assert!(square().intersects_rect(&w));
        assert!(!line().intersects_rect(&Rect::new(0.0, 2.0, 1.0, 3.0)));
    }

    #[test]
    fn point_predicate_per_variant() {
        assert!(Geometry::from(Point::new(0.5, 0.5)).contains_point(&Point::new(0.5, 0.5)));
        assert!(line().contains_point(&Point::new(0.5, 0.5)));
        assert!(!line().contains_point(&Point::new(0.5, 0.6)));
        assert!(square().contains_point(&Point::new(0.5, 0.5)));
    }

    #[test]
    fn join_predicate_is_symmetric_across_variants() {
        let pt_on = Geometry::from(Point::new(0.5, 0.5));
        let pt_off = Geometry::from(Point::new(5.0, 5.0));
        let combos = [
            (pt_on.clone(), line(), true),
            (pt_on.clone(), square(), true),
            (pt_off.clone(), line(), false),
            (line(), square(), true),
            (pt_on.clone(), pt_on.clone(), true),
            (pt_on, pt_off, false),
        ];
        for (a, b, want) in combos {
            assert_eq!(a.intersects(&b), want, "{a:?} vs {b:?}");
            assert_eq!(b.intersects(&a), want, "symmetry {a:?} vs {b:?}");
        }
    }

    #[test]
    fn polygon_polygon_intersection() {
        let a = square();
        let shifted = Geometry::from(Polygon::new(vec![
            Point::new(0.5, 0.5),
            Point::new(1.5, 0.5),
            Point::new(1.5, 1.5),
            Point::new(0.5, 1.5),
        ]));
        let far = Geometry::from(Polygon::new(vec![
            Point::new(5.0, 5.0),
            Point::new(6.0, 5.0),
            Point::new(5.0, 6.0),
        ]));
        assert!(a.intersects(&shifted));
        assert!(!a.intersects(&far));
        // Containment without boundary crossing.
        let inner = Geometry::from(Polygon::new(vec![
            Point::new(0.4, 0.4),
            Point::new(0.6, 0.4),
            Point::new(0.5, 0.6),
        ]));
        assert!(a.intersects(&inner));
        assert!(inner.intersects(&a));
    }

    #[test]
    fn accessors() {
        assert!(line().as_polyline().is_some());
        assert!(line().as_polygon().is_none());
        assert!(square().as_polygon().is_some());
    }
}
