//! Axis-parallel rectangles: MBRs and query windows.
//!
//! The rectangle algebra below is the complete set of measures used by the
//! R\*-tree heuristics of \[BKSS90\]:
//!
//! * **area** — minimised by the classic R-tree ChooseSubtree and by split
//!   tie-breaking;
//! * **margin** (perimeter) — minimised when the R\*-tree split picks the
//!   split *axis*;
//! * **overlap** — minimised when choosing a leaf subtree and when picking
//!   the split *distribution*;
//! * **enlargement** — the area increase needed to include a new entry.
//!
//! The same type doubles as the *query window* of window queries; the
//! *degree of overlap* used by the geometric-threshold technique (§5.4.1)
//! is computed with [`Rect::overlap_fraction`].

use crate::point::Point;
use std::fmt;

/// An axis-parallel rectangle `[xmin, xmax] × [ymin, ymax]`.
///
/// Degenerate rectangles (zero width and/or height) are valid: a point MBR
/// has `xmin == xmax && ymin == ymax`. An *empty* rectangle (used as the
/// identity of [`Rect::union`]) has inverted bounds; construct it with
/// [`Rect::empty`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Rect {
    /// Minimum x-coordinate.
    pub xmin: f64,
    /// Minimum y-coordinate.
    pub ymin: f64,
    /// Maximum x-coordinate.
    pub xmax: f64,
    /// Maximum y-coordinate.
    pub ymax: f64,
}

impl Rect {
    /// Create a rectangle from its bounds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `xmin > xmax` or `ymin > ymax` (use
    /// [`Rect::empty`] for the empty rectangle).
    #[inline]
    pub fn new(xmin: f64, ymin: f64, xmax: f64, ymax: f64) -> Self {
        debug_assert!(
            xmin <= xmax && ymin <= ymax,
            "invalid rect: [{xmin},{xmax}]x[{ymin},{ymax}]"
        );
        Rect {
            xmin,
            ymin,
            xmax,
            ymax,
        }
    }

    /// The empty rectangle: the identity of [`Rect::union`].
    ///
    /// It intersects nothing and contains nothing.
    #[inline]
    pub const fn empty() -> Self {
        Rect {
            xmin: f64::INFINITY,
            ymin: f64::INFINITY,
            xmax: f64::NEG_INFINITY,
            ymax: f64::NEG_INFINITY,
        }
    }

    /// `true` if this is the empty rectangle (inverted bounds).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xmin > self.xmax || self.ymin > self.ymax
    }

    /// Rectangle spanning two corner points (in any order).
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            xmin: a.x.min(b.x),
            ymin: a.y.min(b.y),
            xmax: a.x.max(b.x),
            ymax: a.y.max(b.y),
        }
    }

    /// Rectangle centred at `c` with the given width and height.
    #[inline]
    pub fn centered(c: Point, width: f64, height: f64) -> Self {
        Rect::new(
            c.x - width * 0.5,
            c.y - height * 0.5,
            c.x + width * 0.5,
            c.y + height * 0.5,
        )
    }

    /// Width (x-extension) of the rectangle; `0.0` when empty.
    #[inline]
    pub fn width(&self) -> f64 {
        (self.xmax - self.xmin).max(0.0)
    }

    /// Height (y-extension) of the rectangle; `0.0` when empty.
    #[inline]
    pub fn height(&self) -> f64 {
        (self.ymax - self.ymin).max(0.0)
    }

    /// Area of the rectangle; `0.0` when empty or degenerate.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Margin (half-perimeter, i.e. `width + height`).
    ///
    /// The R\*-tree split algorithm chooses the split axis with the minimum
    /// sum of margins over all candidate distributions (\[BKSS90\], §4.2).
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Centre point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.xmin + self.xmax) * 0.5, (self.ymin + self.ymax) * 0.5)
    }

    /// `true` if the rectangles share at least one point (closed-set
    /// semantics: touching boundaries intersect).
    ///
    /// This is the *window query* predicate of §2: the window query yields
    /// all objects *sharing points* with the window.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.xmin <= other.xmax
            && other.xmin <= self.xmax
            && self.ymin <= other.ymax
            && other.ymin <= self.ymax
    }

    /// `true` if `p` lies in the closed rectangle.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.xmin <= p.x && p.x <= self.xmax && self.ymin <= p.y && p.y <= self.ymax
    }

    /// `true` if `other` lies completely inside `self` (closed semantics).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !other.is_empty()
            && self.xmin <= other.xmin
            && self.ymin <= other.ymin
            && other.xmax <= self.xmax
            && other.ymax <= self.ymax
    }

    /// Smallest rectangle containing both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            xmin: self.xmin.min(other.xmin),
            ymin: self.ymin.min(other.ymin),
            xmax: self.xmax.max(other.xmax),
            ymax: self.ymax.max(other.ymax),
        }
    }

    /// Intersection of the two rectangles, or the empty rectangle when they
    /// do not intersect.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Rect {
        let r = Rect {
            xmin: self.xmin.max(other.xmin),
            ymin: self.ymin.max(other.ymin),
            xmax: self.xmax.min(other.xmax),
            ymax: self.ymax.min(other.ymax),
        };
        if r.xmin > r.xmax || r.ymin > r.ymax {
            Rect::empty()
        } else {
            r
        }
    }

    /// Area of the intersection with `other` (`0.0` when disjoint).
    ///
    /// This is the *overlap* measure minimised by the R\*-tree split
    /// distribution choice and leaf-level ChooseSubtree.
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = (self.xmax.min(other.xmax) - self.xmin.max(other.xmin)).max(0.0);
        let h = (self.ymax.min(other.ymax) - self.ymin.max(other.ymin)).max(0.0);
        w * h
    }

    /// Degree of overlap between `self` (a cluster-unit region) and a query
    /// window: `area(self ∩ window) / area(self)`, in `[0, 1]`.
    ///
    /// This is the measure of the *geometric threshold* technique (§5.4.1):
    /// a cluster unit is transferred completely iff the degree of overlap
    /// exceeds the threshold `T(c)`. For a degenerate (zero-area) region
    /// the fraction is defined as `1.0` when the region intersects the
    /// window and `0.0` otherwise — a zero-area region intersecting the
    /// window is "fully covered" by it.
    #[inline]
    pub fn overlap_fraction(&self, window: &Rect) -> f64 {
        let a = self.area();
        if a > 0.0 {
            self.overlap_area(window) / a
        } else if self.intersects(window) {
            1.0
        } else {
            0.0
        }
    }

    /// Area increase needed to enlarge `self` to include `other`.
    ///
    /// The classic R-tree ChooseSubtree descends into the child whose
    /// rectangle needs the least enlargement.
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Rectangle scaled around its centre by `factor` (in each dimension).
    #[inline]
    pub fn scale(&self, factor: f64) -> Rect {
        let c = self.center();
        Rect::new(
            c.x - self.width() * 0.5 * factor,
            c.y - self.height() * 0.5 * factor,
            c.x + self.width() * 0.5 * factor,
            c.y + self.height() * 0.5 * factor,
        )
    }

    /// `true` if all bounds are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.xmin.is_finite()
            && self.ymin.is_finite()
            && self.xmax.is_finite()
            && self.ymax.is_finite()
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}]x[{}, {}]",
            self.xmin, self.xmax, self.ymin, self.ymax
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d)
    }

    #[test]
    fn area_and_margin() {
        let x = r(0.0, 0.0, 2.0, 3.0);
        assert_eq!(x.area(), 6.0);
        assert_eq!(x.margin(), 5.0);
        assert_eq!(x.width(), 2.0);
        assert_eq!(x.height(), 3.0);
    }

    #[test]
    fn empty_rect_behaviour() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        let x = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(e.union(&x), x);
        assert!(!e.intersects(&x));
        assert!(!x.contains_rect(&e));
    }

    #[test]
    fn intersection_basic() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), r(1.0, 1.0, 2.0, 2.0));
        assert_eq!(a.overlap_area(&b), 1.0);
    }

    #[test]
    fn touching_rects_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn disjoint_rects() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_empty());
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn union_contains_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(1.0, 1.0, 2.0, 2.0);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn contains_point_closed() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert!(a.contains_point(&Point::new(0.0, 0.0)));
        assert!(a.contains_point(&Point::new(1.0, 1.0)));
        assert!(a.contains_point(&Point::new(0.5, 0.5)));
        assert!(!a.contains_point(&Point::new(1.0001, 0.5)));
    }

    #[test]
    fn overlap_fraction_bounds() {
        let region = r(0.0, 0.0, 2.0, 2.0);
        let inside = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(region.overlap_fraction(&inside), 0.25);
        let cover = r(-1.0, -1.0, 3.0, 3.0);
        assert_eq!(region.overlap_fraction(&cover), 1.0);
        let out = r(5.0, 5.0, 6.0, 6.0);
        assert_eq!(region.overlap_fraction(&out), 0.0);
    }

    #[test]
    fn overlap_fraction_degenerate_region() {
        let point_region = r(1.0, 1.0, 1.0, 1.0);
        let w = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(point_region.overlap_fraction(&w), 1.0);
        let far = r(5.0, 5.0, 6.0, 6.0);
        assert_eq!(point_region.overlap_fraction(&far), 0.0);
    }

    #[test]
    fn centered_and_scale() {
        let c = Point::new(1.0, 1.0);
        let x = Rect::centered(c, 2.0, 4.0);
        assert_eq!(x, r(0.0, -1.0, 2.0, 3.0));
        let y = x.scale(0.5);
        assert_eq!(y.center(), c);
        assert_eq!(y.width(), 1.0);
        assert_eq!(y.height(), 2.0);
    }

    #[test]
    fn from_corners_any_order() {
        let a = Point::new(2.0, 0.0);
        let b = Point::new(0.0, 3.0);
        assert_eq!(Rect::from_corners(a, b), r(0.0, 0.0, 2.0, 3.0));
    }
}
