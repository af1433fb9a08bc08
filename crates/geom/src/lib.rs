//! # spatialdb-geom
//!
//! Geometry kernel for the spatial-database reproduction of
//! Brinkhoff & Kriegel, *"The Impact of Global Clustering on Spatial
//! Database Systems"*, VLDB 1994.
//!
//! The kernel provides exactly the primitives the paper's system needs:
//!
//! * [`Point`] — 2-d query points (point queries, §2);
//! * [`Rect`] — axis-parallel rectangles used both as *minimum bounding
//!   rectangles* (MBRs, the spatial keys of the R\*-tree) and as *query
//!   windows* (window queries, §2). The full MBR algebra required by the
//!   R\*-tree insertion and split heuristics of \[BKSS90\] lives here:
//!   area, margin, enlargement, overlap, union, intersection;
//! * [`Segment`] — line segments with a robust orientation-based
//!   intersection predicate;
//! * [`Polyline`] — the exact representation of map objects (streets,
//!   rivers, boundaries, railway tracks — the TIGER data of §5.1);
//! * [`Polygon`] — simple polygons for region objects, with
//!   point-in-polygon and rectangle-intersection predicates;
//! * [`Geometry`] — the closed enum over the exact representations
//!   (point / polyline / polygon) stored by the database layer, with the
//!   window-, point- and join-predicates dispatching per variant;
//! * [`Hint`] — the second filter step's approximations of an object
//!   (two of its points in 32 bits, and two 8 × 8 cell masks over its
//!   MBR) that give a window, point or join candidate a [`Verdict`]
//!   without its exact representation \[BKSS94\];
//! * [`decomposed`] — a decomposed object representation in the spirit of
//!   the TR\*-tree \[SK91\], used by the paper for the *exact geometry test*
//!   of the spatial join's refinement step (§6.3);
//! * [`rng`] — the workspace's one seeded generator ([`rng::SmallRng`]).
//!
//! All coordinates are `f64` in an abstract data space; the paper's
//! experiments normalise the data space to the unit square, and so do we.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decomposed;
pub mod geometry;
pub mod hint;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod rect;
pub mod rng;
pub mod segment;

pub use decomposed::DecomposedPolyline;
pub use geometry::Geometry;
pub use hint::{Hint, Verdict};
pub use point::Point;
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use rect::Rect;
pub use segment::Segment;

/// Geometric objects that have a minimum bounding rectangle.
///
/// Every spatial object stored by an organization model exposes its MBR;
/// the MBR is the (only) spatial key seen by the R\*-tree.
pub trait HasMbr {
    /// The minimum bounding rectangle of the object.
    fn mbr(&self) -> Rect;
}

impl HasMbr for Rect {
    #[inline]
    fn mbr(&self) -> Rect {
        *self
    }
}

impl HasMbr for Point {
    #[inline]
    fn mbr(&self) -> Rect {
        Rect::new(self.x, self.y, self.x, self.y)
    }
}
