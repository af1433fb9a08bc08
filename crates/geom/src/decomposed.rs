//! Decomposed object representation for fast exact geometry tests.
//!
//! §6.3 of the paper: *"The exact geometry test for intersection is
//! supported by a decomposed representation of the objects \[SK91\] where one
//! test needs roughly 0.75 msec."* \[SK91\] is the TR\*-tree — a small
//! internal tree over the components of a single object.
//!
//! We reproduce the *behavioural* essence: a polyline is decomposed into
//! short runs of segments, each with a precomputed bounding rectangle. An
//! intersection test walks the two component lists and only compares
//! segments from component pairs with intersecting boxes, which turns the
//! naive `O(n·m)` segment sweep into a near-linear test for realistic map
//! objects. The CPU cost charged in the experiment harness is the paper's
//! constant 0.75 msec per candidate pair regardless (see
//! `spatialdb-join::pipeline`), so this module only affects wall-clock
//! time, not the reproduced figures.

use crate::hint::CellMasks;
use crate::point::Point;
use crate::polyline::Polyline;
use crate::rect::Rect;
use crate::segment::Segment;
use crate::HasMbr;
use std::sync::{Arc, OnceLock};

/// Number of segments grouped into one decomposition component.
///
/// Components of 8 segments keep component boxes tight for typical map
/// polylines while bounding the per-component work.
pub const SEGMENTS_PER_COMPONENT: usize = 8;

/// One component of a decomposed polyline: a contiguous run of segments
/// plus its bounding rectangle.
#[derive(Clone, Debug)]
pub struct Component {
    /// Bounding rectangle of the run.
    pub bbox: Rect,
    /// Index of the first vertex of the run in the owning polyline.
    pub first_vertex: usize,
    /// Number of segments in the run.
    pub num_segments: usize,
}

/// A polyline together with its decomposition into segment runs and its
/// cell masks.
///
/// The decomposition is immutable and computed once when the object is
/// first needed for refinement — mirroring the paper's assumption that the
/// decomposed representation is stored with the object. So are the
/// masks the object's [`Hint`](crate::Hint) carries.
#[derive(Clone, Debug)]
pub struct DecomposedPolyline {
    line: Polyline,
    components: Vec<Component>,
    /// Computed on first use and shared by every clone: a polyline that
    /// never enters a store never pays for them (a workload's spare
    /// objects), one loaded into several stores pays once, and none is
    /// encoded per load.
    masks: Arc<OnceLock<CellMasks>>,
}

impl DecomposedPolyline {
    /// Decompose `line` into runs of at most [`SEGMENTS_PER_COMPONENT`]
    /// segments.
    pub fn new(line: Polyline) -> Self {
        let n_segments = line.num_vertices() - 1;
        let mut components = Vec::with_capacity(n_segments.div_ceil(SEGMENTS_PER_COMPONENT));
        let verts = line.vertices();
        let mut start = 0usize;
        while start < n_segments {
            let len = SEGMENTS_PER_COMPONENT.min(n_segments - start);
            let mut bbox = Rect::empty();
            for v in &verts[start..=start + len] {
                bbox = bbox.union(&Rect::new(v.x, v.y, v.x, v.y));
            }
            components.push(Component {
                bbox,
                first_vertex: start,
                num_segments: len,
            });
            start += len;
        }
        DecomposedPolyline {
            line,
            components,
            masks: Arc::default(),
        }
    }

    /// The underlying polyline.
    #[inline]
    pub fn polyline(&self) -> &Polyline {
        &self.line
    }

    /// The decomposition components.
    #[inline]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The 8 × 8 cell masks over the polyline's MBR.
    pub(crate) fn masks(&self) -> CellMasks {
        let line = &self.line;
        *self
            .masks
            .get_or_init(|| CellMasks::of_line(&line.mbr(), line.vertices()))
    }

    fn component_segments(&self, c: &Component) -> impl Iterator<Item = Segment> + '_ {
        let verts = self.line.vertices();
        (c.first_vertex..c.first_vertex + c.num_segments)
            .map(move |i| Segment::new(verts[i], verts[i + 1]))
    }

    /// Exact intersection test against another decomposed polyline.
    ///
    /// Component boxes prune segment pairs; the result is identical to
    /// [`Polyline::intersects_polyline`].
    pub fn intersects(&self, other: &DecomposedPolyline) -> bool {
        if !self.line.mbr().intersects(&other.line.mbr()) {
            return false;
        }
        for ca in &self.components {
            if !ca.bbox.intersects(&other.line.mbr()) {
                continue;
            }
            for cb in &other.components {
                if !ca.bbox.intersects(&cb.bbox) {
                    continue;
                }
                for s in self.component_segments(ca) {
                    let smbr = s.mbr();
                    if !smbr.intersects(&cb.bbox) {
                        continue;
                    }
                    for t in other.component_segments(cb) {
                        if smbr.intersects(&t.mbr()) && s.intersects(&t) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Exact window-intersection test using the component boxes as a
    /// prefilter.
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        if !self.line.mbr().intersects(rect) {
            return false;
        }
        for c in &self.components {
            if !c.bbox.intersects(rect) {
                continue;
            }
            if self.component_segments(c).any(|s| s.intersects_rect(rect)) {
                return true;
            }
        }
        false
    }

    /// `true` if `p` lies on the polyline, testing only the segments of
    /// the components whose box contains it; the result is identical to
    /// [`Polyline::contains_point`].
    pub fn contains_point(&self, p: &Point) -> bool {
        self.line.mbr().contains_point(p)
            && self.components.iter().any(|c| {
                c.bbox.contains_point(p) && self.component_segments(c).any(|s| s.contains_point(p))
            })
    }
}

impl HasMbr for DecomposedPolyline {
    #[inline]
    fn mbr(&self) -> Rect {
        self.line.mbr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_zigzag(n: usize) -> Polyline {
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            v.push(Point::new(i as f64, if i % 2 == 0 { 0.0 } else { 1.0 }));
        }
        Polyline::new(v)
    }

    #[test]
    fn decomposition_covers_all_segments() {
        let line = long_zigzag(30); // 29 segments
        let d = DecomposedPolyline::new(line);
        let total: usize = d.components().iter().map(|c| c.num_segments).sum();
        assert_eq!(total, 29);
        assert_eq!(d.components().len(), 4); // ceil(29/8)
    }

    #[test]
    fn component_boxes_inside_mbr() {
        let d = DecomposedPolyline::new(long_zigzag(50));
        let mbr = d.mbr();
        for c in d.components() {
            assert!(mbr.contains_rect(&c.bbox));
        }
    }

    #[test]
    fn agrees_with_naive_polyline_intersection() {
        let a = long_zigzag(40);
        let b = Polyline::new(vec![Point::new(-1.0, 0.5), Point::new(40.0, 0.5)]);
        let c = Polyline::new(vec![Point::new(-1.0, 5.0), Point::new(40.0, 5.0)]);
        let da = DecomposedPolyline::new(a.clone());
        let db = DecomposedPolyline::new(b.clone());
        let dc = DecomposedPolyline::new(c.clone());
        assert_eq!(da.intersects(&db), a.intersects_polyline(&b));
        assert!(da.intersects(&db));
        assert_eq!(da.intersects(&dc), a.intersects_polyline(&c));
        assert!(!da.intersects(&dc));
    }

    #[test]
    fn agrees_with_naive_rect_intersection() {
        let a = long_zigzag(40);
        let da = DecomposedPolyline::new(a.clone());
        let hit = Rect::new(10.2, 0.4, 10.8, 0.6);
        let miss = Rect::new(10.4, 1.2, 10.6, 1.4);
        assert_eq!(da.intersects_rect(&hit), a.intersects_rect(&hit));
        assert_eq!(da.intersects_rect(&miss), a.intersects_rect(&miss));
    }

    #[test]
    fn agrees_with_naive_point_containment() {
        let a = long_zigzag(40);
        let da = DecomposedPolyline::new(a.clone());
        for p in [
            Point::new(10.5, 0.5),
            Point::new(10.0, 0.0),
            Point::new(39.0, 1.0),
            Point::new(10.5, 0.6),
            Point::new(-1.0, 0.0),
        ] {
            assert_eq!(da.contains_point(&p), a.contains_point(&p), "{p:?}");
        }
        assert!(da.contains_point(&Point::new(10.5, 0.5)));
    }

    #[test]
    fn two_segment_line() {
        let a = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        let d = DecomposedPolyline::new(a);
        assert_eq!(d.components().len(), 1);
        assert_eq!(d.components()[0].num_segments, 1);
    }
}
