//! 2-dimensional points.

use std::fmt;

/// A point in the 2-d data space.
///
/// Points are the arguments of *point queries* (§2 of the paper): given a
/// query point `P` and a set of objects `M`, the point query yields all
/// objects of `M` geometrically containing `P`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point {
    /// x-coordinate.
    pub x: f64,
    /// y-coordinate.
    pub y: f64,
}

impl Point {
    /// Create a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Cheaper than [`Point::distance`]; use it whenever only the ordering
    /// of distances matters (as in the R\*-tree forced-reinsert entry
    /// selection, which sorts entries by distance from the node centre).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// `true` if both coordinates are finite (neither NaN nor infinite).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.5, -2.0);
        let b = Point::new(-0.5, 7.25);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn finiteness_check() {
        assert!(Point::new(0.0, 0.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn from_tuple() {
        let p: Point = (2.0, 3.0).into();
        assert_eq!(p, Point::new(2.0, 3.0));
    }
}
