//! The second filter step's approximations of an object, in the 20
//! bytes its leaf entry carries beside the MBR.
//!
//! Multi-step query processing \[BKSS94\] puts a second filter step
//! between the MBR and the exact geometry, with two kinds of
//! approximation. A *conservative* one contains the object — a window
//! that misses it misses the object, so the candidate is a false hit
//! without its exact representation. A *progressive* one lies *inside*
//! the object — a window that hits it hits the object, so the candidate
//! is an answer without its exact representation. A [`Hint`] carries
//! both, relative to the object's MBR:
//!
//! * **Two points** (progressive): two points of the object, each named
//!   by the cell it falls into on a 256 × 256 grid over the MBR — a
//!   polyline's end vertices, a polygon's ring vertices `0` and `n / 2`.
//!   [`accepts`](Hint::accepts) a window that contains one of the two
//!   cells: the point inside that cell lies in the window.
//! * **Two masks** over an 8 × 8 grid on the MBR. `holds` (progressive)
//!   sets the cells that contain a vertex: a window containing such a
//!   cell contains that vertex. `touched` (conservative) sets the cells
//!   whose closed rectangle meets the bounding box of some segment: a
//!   window meeting none of them meets no segment, and the exact
//!   predicates all test a segment's box before the segment. Polylines
//!   get both masks, polygons only `holds` (a polygon's interior meets
//!   windows its boundary misses), points neither.
//!
//! [`verdict`](Hint::verdict) reads all of it, with the MBR, for a
//! window or a point query; [`misses`](Hint::misses) reads `touched`
//! alone, for a join pair.
//!
//! No epsilon is involved. Both grids decode the same way: the outer
//! edges are the MBR's own bounds, bit for bit, and each inner edge
//! `min + width·k/n` is shared by both neighbouring cells.
//! [`Hint::encode`] keeps a cell only after checking, with the very
//! decode [`accepts`](Hint::accepts) runs on the very same MBR, that the
//! decoded cell contains the point; a point whose cell fails the check
//! (overflowing extents, say) is simply not encoded.
//! The masks are computed with comparisons against the very edges
//! [`verdict`](Hint::verdict) decodes, and an MBR whose edges are not all
//! finite gets none. The code is only meaningful next to the MBR it was
//! encoded against.

use crate::point::Point;
use crate::rect::Rect;

/// Cells per axis: 8 bits of x and 8 bits of y per point.
const CELLS: u32 = 256;

/// The second filter step's approximations of an object — see the
/// [module docs](self).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hint {
    /// The two points' cells, 16 bits each, smaller first.
    code: u32,
    /// `touched`, then `holds`, each low word first: four words rather
    /// than two `u64`s keep the hint 4-byte aligned, so it fills the
    /// padding after a leaf entry's 4-byte payload.
    masks: [u32; 4],
}

/// What a leaf entry alone says about its object and a window or point
/// ([`Hint::verdict`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The object meets the window: an answer.
    Answer,
    /// The object misses the window: a false hit of the MBR.
    FalseHit,
    /// Only the exact geometry can tell.
    Undecided,
}

impl Hint {
    /// No approximation: accepts nothing and rules nothing out. The two
    /// 16-bit halves of an encoded code are stored smaller first, so this
    /// code is free; all of `touched` and none of `holds` is what an
    /// object without masks has.
    pub const NONE: Hint = Hint {
        code: 0xFFFF_0000,
        masks: [u32::MAX, u32::MAX, 0, 0],
    };

    /// Encode the points `a` and `b` of an object whose MBR is `mbr`,
    /// without masks. A point whose cell cannot be verified is left out
    /// (the other one then fills both halves); with neither, the result
    /// is [`Hint::NONE`].
    pub fn encode(mbr: &Rect, a: &Point, b: &Point) -> Hint {
        let code = match (verified_cell(mbr, a), verified_cell(mbr, b)) {
            (Some(p), Some(q)) => p.min(q) << 16 | p.max(q),
            (Some(p), None) | (None, Some(p)) => p << 16 | p,
            (None, None) => Hint::NONE.code,
        };
        Hint { code, ..Hint::NONE }
    }

    /// This hint with the masks `cells` computed against the same MBR.
    pub(crate) fn with_masks(self, cells: CellMasks) -> Hint {
        let words = |m: u64| [m as u32, (m >> 32) as u32];
        let ([t0, t1], [h0, h1]) = (words(cells.touched), words(cells.holds));
        Hint {
            masks: [t0, t1, h0, h1],
            ..self
        }
    }

    /// The two cells of the grid over `mbr` this hint names (equal when
    /// only one point was encoded), `None` when it names none. Each
    /// contains a point of the object, provided `mbr` is the rectangle
    /// the hint was encoded against.
    pub fn cells(self, mbr: &Rect) -> Option<[Rect; 2]> {
        (self.code != Hint::NONE.code).then(|| self.halves().map(|half| cell(mbr, half)))
    }

    /// `true` if `window` contains one of the two cells — and with it a
    /// point of the object, so the exact window predicate holds. `false`
    /// says nothing.
    #[inline]
    pub fn accepts(self, mbr: &Rect, window: &Rect) -> bool {
        self.code != Hint::NONE.code
            && self
                .halves()
                .iter()
                .any(|&half| window.contains_rect(&cell(mbr, half)))
    }

    /// Everything this hint and the object's `mbr` say about `window` (a
    /// point query's window is the point): an answer if the window
    /// contains the MBR, a hinted cell or a `holds` cell; a false hit if
    /// it meets no `touched` cell; undecided otherwise. The one reading
    /// of the second filter step a window or point query makes.
    #[inline]
    pub fn verdict(self, mbr: &Rect, window: &Rect) -> Verdict {
        if window.contains_rect(mbr) || self.accepts(mbr, window) {
            return Verdict::Answer;
        }
        let (touched, holds) = (self.touched(), self.holds());
        if touched == u64::MAX && holds == 0 {
            return Verdict::Undecided;
        }
        let sides = Grid::of(mbr).sides(window);
        if holds & sides.inside() != 0 {
            Verdict::Answer
        } else if touched & sides.meeting() == 0 {
            Verdict::FalseHit
        } else {
            Verdict::Undecided
        }
    }

    /// `true` if no `touched` cell meets `region`, so the object has no
    /// point in it. The join asks this of the intersection of two MBRs:
    /// two objects can only meet there. `false` says nothing.
    #[inline]
    pub fn misses(self, mbr: &Rect, region: &Rect) -> bool {
        let touched = self.touched();
        touched != u64::MAX && touched & Grid::of(mbr).sides(region).meeting() == 0
    }

    /// The conservative mask: cells meeting a segment's bounding box.
    fn touched(self) -> u64 {
        u64::from(self.masks[0]) | u64::from(self.masks[1]) << 32
    }

    /// The progressive mask: cells containing a vertex.
    fn holds(self) -> u64 {
        u64::from(self.masks[2]) | u64::from(self.masks[3]) << 32
    }

    /// The two 16-bit cell names, smaller first.
    fn halves(self) -> [u32; 2] {
        [self.code >> 16, self.code & 0xFFFF]
    }
}

/// The closed interval of cell `i` along one axis of the MBR. The outer
/// cells end on the MBR's own bounds, bit for bit: the points worth
/// encoding are often the very ones that span it.
#[inline]
fn span(min: f64, max: f64, i: u32) -> (f64, f64) {
    let width = max - min;
    let edge = |k: u32| min + width * (f64::from(k) / f64::from(CELLS));
    (
        if i == 0 { min } else { edge(i) },
        if i == CELLS - 1 { max } else { edge(i + 1) },
    )
}

/// The cell a 16-bit half (`x` index in the high byte, `y` in the low)
/// names on the grid over `mbr` — the one decode both the encoder's
/// check and [`Hint::accepts`] use.
#[inline]
fn cell(mbr: &Rect, half: u32) -> Rect {
    let (xmin, xmax) = span(mbr.xmin, mbr.xmax, half >> 8 & 0xFF);
    let (ymin, ymax) = span(mbr.ymin, mbr.ymax, half & 0xFF);
    // Not `Rect::new`: a code nobody encoded may decode to anything,
    // and `contains_rect` rejects an inverted or NaN cell.
    Rect {
        xmin,
        ymin,
        xmax,
        ymax,
    }
}

/// The half naming the cell of `p`, if that cell decodes to a rectangle
/// containing `p`.
fn verified_cell(mbr: &Rect, p: &Point) -> Option<u32> {
    let half = index(mbr.xmin, mbr.xmax, p.x) << 8 | index(mbr.ymin, mbr.ymax, p.y);
    cell(mbr, half).contains_point(p).then_some(half)
}

/// Best guess at the cell of `v` along one axis. The division may land
/// one cell off the decode's multiplication; one step towards `v` mends
/// that. (On a zero-width axis the quotient is NaN, which casts to 0.)
fn index(min: f64, max: f64, v: f64) -> u32 {
    let last = CELLS - 1;
    let i = (((v - min) / (max - min) * f64::from(CELLS)) as u32).min(last);
    let (lo, hi) = span(min, max, i);
    if v < lo {
        i.saturating_sub(1)
    } else if v > hi {
        (i + 1).min(last)
    } else {
        i
    }
}

/// An object's two 8 × 8 masks, as the encoder hands them to
/// [`Hint::with_masks`]. Cell `(i, j)` — column `i` along x, row `j`
/// along y — is bit `8·j + i`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct CellMasks {
    touched: u64,
    holds: u64,
}

impl CellMasks {
    /// No masks: every cell touched, none held.
    pub(crate) const NONE: CellMasks = CellMasks {
        touched: u64::MAX,
        holds: 0,
    };

    /// The masks of a polyline through `vertices` (at least one) whose
    /// MBR is `mbr`: each vertex sets the cell it lies in, each segment
    /// the cells its box meets. [`CellMasks::NONE`] when an edge of the
    /// grid is not finite.
    pub(crate) fn of_line(mbr: &Rect, vertices: &[Point]) -> CellMasks {
        let grid = Grid::of(mbr);
        if !grid.is_finite() {
            return CellMasks::NONE;
        }
        let mut last = grid.vertex(&vertices[0]);
        let (mut touched, mut holds) = (0, last.meeting());
        for v in &vertices[1..] {
            let here = grid.vertex(v);
            holds |= here.meeting();
            touched |= last.union(here).meeting();
            last = here;
        }
        CellMasks { touched, holds }
    }

    /// The masks of a closed ring — a polygon's boundary, whose interior
    /// the masks cannot see: `holds` only.
    pub(crate) fn of_ring(mbr: &Rect, ring: &[Point]) -> CellMasks {
        CellMasks {
            touched: u64::MAX,
            ..CellMasks::of_line(mbr, ring)
        }
    }
}

/// The nine edges per axis of the 8 × 8 grid over an MBR.
struct Grid {
    x: [f64; 9],
    y: [f64; 9],
}

impl Grid {
    #[inline]
    fn of(mbr: &Rect) -> Grid {
        Grid {
            x: edges(mbr.xmin, mbr.xmax),
            y: edges(mbr.ymin, mbr.ymax),
        }
    }

    fn is_finite(&self) -> bool {
        self.x.iter().chain(&self.y).all(|e| e.is_finite())
    }

    /// Where the vertex `v` lies against the edges.
    #[inline]
    fn vertex(&self, v: &Point) -> Sides {
        Sides {
            x: Axis::of(&self.x, v.x, v.x),
            y: Axis::of(&self.y, v.y, v.y),
        }
    }

    /// Where `r` lies against the edges.
    #[inline]
    fn sides(&self, r: &Rect) -> Sides {
        Sides {
            x: Axis::of(&self.x, r.xmin, r.xmax),
            y: Axis::of(&self.y, r.ymin, r.ymax),
        }
    }
}

/// `min`, the seven inner edges `min + width·k/8`, `max`.
#[inline]
fn edges(min: f64, max: f64) -> [f64; 9] {
    let width = max - min;
    let inner = |k: u32| min + width * (f64::from(k) / 8.0);
    [
        min,
        inner(1),
        inner(2),
        inner(3),
        inner(4),
        inner(5),
        inner(6),
        inner(7),
        max,
    ]
}

/// An interval `[lo, hi]` against the nine edges of one axis: bit `k`
/// of `below` says edge `k` ≤ `hi`, bit `k` of `above` that `lo` ≤ edge
/// `k`.
#[derive(Clone, Copy)]
struct Axis {
    below: u32,
    above: u32,
}

impl Axis {
    #[inline]
    fn of(edges: &[f64; 9], lo: f64, hi: f64) -> Axis {
        let (mut below, mut above) = (0, 0);
        for (k, &e) in edges.iter().enumerate() {
            below |= u32::from(e <= hi) << k;
            above |= u32::from(lo <= e) << k;
        }
        Axis { below, above }
    }

    /// The cells `i` the interval meets: edge `i` ≤ `hi` and `lo` ≤ edge
    /// `i + 1`.
    #[inline]
    fn meeting(self) -> u32 {
        self.below & (self.above >> 1) & 0xFF
    }

    /// The cells `i` inside the interval: `lo` ≤ edge `i` and edge
    /// `i + 1` ≤ `hi`.
    #[inline]
    fn inside(self) -> u32 {
        self.above & (self.below >> 1) & 0xFF
    }
}

/// A rectangle against both axes of a [`Grid`].
#[derive(Clone, Copy)]
struct Sides {
    x: Axis,
    y: Axis,
}

impl Sides {
    /// The bounding box of two rectangles: an edge is at or below the
    /// larger `hi` when it is at or below either, likewise above.
    #[inline]
    fn union(self, other: Sides) -> Sides {
        let axis = |a: Axis, b: Axis| Axis {
            below: a.below | b.below,
            above: a.above | b.above,
        };
        Sides {
            x: axis(self.x, other.x),
            y: axis(self.y, other.y),
        }
    }

    /// The cells the rectangle meets.
    #[inline]
    fn meeting(self) -> u64 {
        cells(self.x.meeting(), self.y.meeting())
    }

    /// The cells inside the rectangle.
    #[inline]
    fn inside(self) -> u64 {
        cells(self.x.inside(), self.y.inside())
    }
}

/// The grid cells `(i, j)` with bit `i` of `columns` and bit `j` of
/// `rows` set: `columns` copied into every byte, then the bytes of the
/// rows kept.
#[inline]
fn cells(columns: u32, rows: u32) -> u64 {
    (u64::from(columns) * 0x0101_0101_0101_0101) & ROWS[rows as usize]
}

/// `ROWS[r]`: all eight cells of every row `j` with bit `j` of `r` set.
const ROWS: [u64; 256] = {
    let mut rows = [0u64; 256];
    let mut r = 0;
    while r < 256 {
        let mut j = 0;
        while j < 8 {
            if r >> j & 1 == 1 {
                rows[r] |= 0xFF << (8 * j);
            }
            j += 1;
        }
        r += 1;
    }
    rows
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use crate::{Geometry, HasMbr, Polygon, Polyline};

    /// A random object somewhere in a data space of magnitude
    /// 1e-9 … 1e9: the extent and the offset of the vertices are drawn
    /// independently, so MBRs both far from and at the origin, and both
    /// wide and a few ulps thin relative to their coordinates, occur.
    fn random_object(rng: &mut SmallRng) -> Geometry {
        let magnitude = |rng: &mut SmallRng| 10f64.powi(rng.gen_range(0..19u64) as i32 - 9);
        let (extent, offset) = (magnitude(rng), magnitude(rng) * rng.gen_range(-1.0..=1.0));
        let n = 2 + rng.gen_range(0..11usize);
        // Half the objects snap to a coarse lattice: coincident
        // coordinates, vertices on MBR edges and corners, flat MBRs.
        let snap = rng.gen_bool(0.5);
        let coord = |rng: &mut SmallRng| {
            let t = rng.next_f64();
            offset + extent * if snap { (t * 4.0).floor() / 4.0 } else { t }
        };
        let vertices: Vec<Point> = (0..n.max(3))
            .map(|_| Point::new(coord(rng), coord(rng)))
            .collect();
        if rng.gen_range(0..3u64) == 0 {
            Polygon::new(vertices).into()
        } else {
            Polyline::new(vertices[..n].to_vec()).into()
        }
    }

    fn hinted_points(g: &Geometry) -> [Point; 2] {
        g.hinted_points().expect("streets and regions").map(|p| *p)
    }

    /// Windows placed where the rule is decided: each decoded cell
    /// itself, one ulp inside it on every side, an edge through the
    /// hinted vertex from either side, and seeded windows of every size
    /// around the MBR.
    fn windows_for(rng: &mut SmallRng, g: &Geometry, out: &mut Vec<Rect>) {
        out.clear();
        let mbr = g.mbr();
        for c in g.hint().cells(&mbr).into_iter().flatten() {
            out.push(c);
            for side in 0..4 {
                let mut w = c;
                match side {
                    0 => w.xmin = w.xmin.next_up(),
                    1 => w.ymin = w.ymin.next_up(),
                    2 => w.xmax = w.xmax.next_down(),
                    _ => w.ymax = w.ymax.next_down(),
                }
                if w.xmin <= w.xmax && w.ymin <= w.ymax {
                    out.push(w);
                }
            }
        }
        // Where the extent is below the coordinates' resolution some of
        // these collapse; an inverted one is not a window.
        let mut push = |xmin: f64, ymin: f64, xmax: f64, ymax: f64| {
            if xmin <= xmax && ymin <= ymax {
                out.push(Rect::new(xmin, ymin, xmax, ymax));
            }
        };
        let reach = mbr.width().max(mbr.height()).max(f64::MIN_POSITIVE);
        for p in hinted_points(g) {
            // The vertex on the window's edge, then just outside it.
            push(p.x, p.y - reach, p.x + reach, p.y + reach);
            push(p.x.next_up(), p.y - reach, p.x + reach, p.y + reach);
            push(p.x - reach, p.y - reach, p.x + reach, p.y);
            push(p.x - reach, p.y - reach, p.x + reach, p.y.next_down());
        }
        for _ in 0..6 {
            let size = reach * 4f64.powi(-(rng.gen_range(0..8u64) as i32)) * 2.0;
            let x = rng.gen_range(mbr.xmin - size..=mbr.xmax);
            let y = rng.gen_range(mbr.ymin - size..=mbr.ymax);
            push(x, y, x + size * rng.next_f64(), y + size * rng.next_f64());
        }
    }

    #[test]
    fn an_accepted_window_always_meets_the_object() {
        let mut rng = SmallRng::seed_from_u64(1994);
        let mut windows = Vec::new();
        let (mut cases, mut accepted, mut hinted) = (0usize, 0usize, 0usize);
        for _ in 0..20_000 {
            let g = random_object(&mut rng);
            let (mbr, hint) = (g.mbr(), g.hint());
            hinted += usize::from(hint != Hint::NONE);
            windows_for(&mut rng, &g, &mut windows);
            for w in &windows {
                cases += 1;
                if hint.accepts(&mbr, w) {
                    accepted += 1;
                    assert!(
                        g.intersects_rect(w),
                        "accepted a window the object misses: {g:?} window {w:?} {hint:?}"
                    );
                }
            }
        }
        // Not vacuous: most objects got a hint, and both outcomes occur
        // tens of thousands of times.
        assert!(cases >= 100_000, "{cases} cases");
        assert!(hinted > 19_000, "{hinted} of 20,000 objects hinted");
        assert!(
            accepted > 30_000 && cases - accepted > 30_000,
            "{accepted} of {cases}"
        );
    }

    #[test]
    fn every_encoded_cell_contains_its_point() {
        let mut rng = SmallRng::seed_from_u64(2718);
        for _ in 0..100_000 {
            let g = random_object(&mut rng);
            let (mbr, hint, [a, b]) = (g.mbr(), g.hint(), hinted_points(&g));
            // The halves are ordered, so `NONE` is never an encoding.
            assert!(hint.halves()[0] <= hint.halves()[1], "{hint:?}");
            let cells = hint
                .cells(&mbr)
                .expect("finite MBRs of this size always encode");
            for c in cells {
                assert!(
                    c.contains_point(&a) || c.contains_point(&b),
                    "cell {c:?} of {g:?} holds neither hinted point"
                );
                assert!(mbr.contains_rect(&c), "cell {c:?} leaves the MBR {mbr:?}");
            }
            // A window equal to a cell is accepted — the grid is as fine
            // as it claims to be.
            assert!(hint.accepts(&mbr, &cells[0]) && hint.accepts(&mbr, &cells[1]));
        }
    }

    #[test]
    fn degenerate_mbrs_encode_and_stay_sound() {
        let p = Point::new;
        let flat: [Geometry; 4] = [
            Polyline::new(vec![p(0.25, 0.5), p(0.75, 0.5)]).into(),
            Polyline::new(vec![p(0.5, -3.0), p(0.5, 7.0), p(0.5, 1.0)]).into(),
            Polyline::new(vec![p(1e9, 1e-9), p(1e9, 1e-9)]).into(),
            Polygon::new(vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)]).into(),
        ];
        for g in &flat {
            let (mbr, hint) = (g.mbr(), g.hint());
            let cells = hint.cells(&mbr).expect("a flat MBR still has cells");
            for c in cells {
                assert!(hint.accepts(&mbr, &c));
                assert!(g.intersects_rect(&c), "{g:?} misses its own cell {c:?}");
            }
            // A window that stops one ulp short of the object.
            let short = Rect::new(
                mbr.xmin - 1.0,
                mbr.ymin - 1.0,
                mbr.xmax + 1.0,
                mbr.ymin.next_down(),
            );
            assert!(!hint.accepts(&mbr, &short) && !g.intersects_rect(&short));
        }
    }

    #[test]
    fn points_on_every_edge_and_corner_of_the_mbr_encode() {
        // The hinted points walk the boundary of the unit MBR; a third
        // vertex pins the MBR where the two leave it open.
        let ring = [
            (0.0, 0.0),
            (0.5, 0.0),
            (1.0, 0.0),
            (1.0, 0.5),
            (1.0, 1.0),
            (0.5, 1.0),
            (0.0, 1.0),
            (0.0, 0.5),
        ];
        for (ax, ay) in ring {
            for (bx, by) in ring {
                let (a, b) = (Point::new(ax, ay), Point::new(bx, by));
                let vertices = vec![a, Point::new(0.0, 0.0), Point::new(1.0, 1.0), b];
                let g: Geometry = Polyline::new(vertices).into();
                let (mbr, hint) = (g.mbr(), g.hint());
                assert_eq!(mbr, Rect::new(0.0, 0.0, 1.0, 1.0));
                for q in [a, b] {
                    // The smallest window a 1/256 grid can accept around
                    // `q`, clipped to nothing outside the MBR.
                    let w = Rect::new(
                        q.x - 1.0 / 256.0,
                        q.y - 1.0 / 256.0,
                        q.x + 1.0 / 256.0,
                        q.y + 1.0 / 256.0,
                    );
                    assert!(hint.accepts(&mbr, &w), "{q:?} not found in {w:?}");
                }
            }
        }
    }

    #[test]
    fn no_hint_accepts_nothing() {
        let everything = Rect::new(f64::MIN, f64::MIN, f64::MAX, f64::MAX);
        let mbr = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(!Hint::NONE.accepts(&mbr, &everything));
        assert!(Hint::NONE.cells(&mbr).is_none());
        let point: Geometry = Point::new(0.5, 0.5).into();
        assert_eq!(point.hint(), Hint::NONE);
        assert!(!point.hint().accepts(&point.mbr(), &everything));
        // An extent that overflows decodes to cells reaching infinity:
        // whatever is encoded, no window can contain it.
        let wide = Rect::new(f64::MIN, 0.0, f64::MAX, 1.0);
        let inside = Point::new(1.0, 0.5);
        assert!(!Hint::encode(&wide, &inside, &inside).accepts(&wide, &everything));
        // A point outside the rectangle it is encoded against: likewise.
        let outside = Point::new(2.0, 0.5);
        assert_eq!(Hint::encode(&mbr, &outside, &outside), Hint::NONE);
        assert_ne!(Hint::encode(&mbr, &outside, &inside), Hint::NONE);
    }

    /// Objects per run of each mask property; the ignored sweep runs ten
    /// times as many.
    const MASKED: usize = 6_000;

    /// A coordinate on a random decoded edge of one axis, or one ulp to
    /// either side of it.
    fn near_edge(rng: &mut SmallRng, edges: &[f64; 9]) -> f64 {
        let e = edges[rng.gen_range(0..9usize)];
        jitter(rng, e)
    }

    /// `e`, or one ulp to either side of it.
    fn jitter(rng: &mut SmallRng, e: f64) -> f64 {
        match rng.gen_range(0..3u64) {
            0 => e.next_down(),
            1 => e,
            _ => e.next_up(),
        }
    }

    fn ordered(a: f64, b: f64) -> (f64, f64) {
        (a.min(b), a.max(b))
    }

    /// Windows placed where the masks decide, on top of
    /// [`windows_for`]'s: eight random cells of the 8 × 8 grid with each
    /// side on its decoded edge or one ulp to either side, and windows
    /// between two random decoded edges (± one ulp) per axis.
    fn mask_windows(rng: &mut SmallRng, g: &Geometry, out: &mut Vec<Rect>) {
        windows_for(rng, g, out);
        let grid = Grid::of(&g.mbr());
        for _ in 0..8 {
            let (i, j) = (rng.gen_range(0..8usize), rng.gen_range(0..8usize));
            let w = Rect {
                xmin: jitter(rng, grid.x[i]),
                ymin: jitter(rng, grid.y[j]),
                xmax: jitter(rng, grid.x[i + 1]),
                ymax: jitter(rng, grid.y[j + 1]),
            };
            if !w.is_empty() {
                out.push(w);
            }
        }
        for _ in 0..16 {
            let (xmin, xmax) = ordered(near_edge(rng, &grid.x), near_edge(rng, &grid.x));
            let (ymin, ymax) = ordered(near_edge(rng, &grid.y), near_edge(rng, &grid.y));
            out.push(Rect::new(xmin, ymin, xmax, ymax));
        }
    }

    /// Points where the masks decide: grid crossings (± one ulp), the
    /// object's vertices and their one-ulp neighbours, and seeded points
    /// of the MBR.
    fn mask_points(rng: &mut SmallRng, g: &Geometry, out: &mut Vec<Point>) {
        out.clear();
        let (mbr, grid) = (g.mbr(), Grid::of(&g.mbr()));
        for _ in 0..16 {
            out.push(Point::new(near_edge(rng, &grid.x), near_edge(rng, &grid.y)));
        }
        let vertices = match g {
            Geometry::Polyline(l) => l.polyline().vertices(),
            Geometry::Polygon(p) => p.ring(),
            Geometry::Point(p) => std::slice::from_ref(p),
        };
        for v in vertices.iter().take(6) {
            out.push(*v);
            out.push(Point::new(v.x.next_up(), v.y));
            out.push(Point::new(v.x, v.y.next_down()));
        }
        for _ in 0..8 {
            let x = mbr.xmin + (mbr.xmax - mbr.xmin) * rng.next_f64();
            let y = mbr.ymin + (mbr.ymax - mbr.ymin) * rng.next_f64();
            out.push(Point::new(x, y));
        }
    }

    /// Every rejected window misses the object. Returns the cases, the
    /// rejections and the windows that miss the object although they meet
    /// its MBR.
    fn rejected_windows(seed: u64, objects: usize) -> [usize; 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut windows = Vec::new();
        let [mut cases, mut rejected, mut misses] = [0usize; 3];
        for _ in 0..objects {
            let g = random_object(&mut rng);
            let (mbr, hint) = (g.mbr(), g.hint());
            mask_windows(&mut rng, &g, &mut windows);
            for w in windows.iter().filter(|w| w.intersects(&mbr)) {
                cases += 1;
                let hit = g.intersects_rect(w);
                misses += usize::from(!hit);
                if hint.verdict(&mbr, w) == Verdict::FalseHit {
                    rejected += 1;
                    assert!(
                        !hit,
                        "rejected a window the object meets: {g:?} window {w:?}"
                    );
                }
            }
        }
        [cases, rejected, misses]
    }

    /// Every rejected point is off the object. Returns the cases, the
    /// rejections and the points of the MBR off the object.
    fn rejected_points(seed: u64, objects: usize) -> [usize; 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut points = Vec::new();
        let [mut cases, mut rejected, mut misses] = [0usize; 3];
        for _ in 0..objects {
            let g = random_object(&mut rng);
            let (mbr, hint) = (g.mbr(), g.hint());
            mask_points(&mut rng, &g, &mut points);
            for p in points.iter().filter(|p| mbr.contains_point(p)) {
                cases += 1;
                let on = g.contains_point(p);
                misses += usize::from(!on);
                if hint.verdict(&mbr, &p.mbr()) == Verdict::FalseHit {
                    rejected += 1;
                    assert!(!on, "rejected a point on the object: {g:?} point {p:?}");
                }
            }
        }
        [cases, rejected, misses]
    }

    /// Every window answered by a `holds` cell — not by the MBR or the
    /// two points — meets the object. Returns the cases, those answers,
    /// and all answers.
    fn held_windows(seed: u64, objects: usize) -> [usize; 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut windows = Vec::new();
        let [mut cases, mut held, mut answers] = [0usize; 3];
        for _ in 0..objects {
            let g = random_object(&mut rng);
            let (mbr, hint) = (g.mbr(), g.hint());
            mask_windows(&mut rng, &g, &mut windows);
            for w in windows.iter().filter(|w| w.intersects(&mbr)) {
                cases += 1;
                if hint.verdict(&mbr, w) == Verdict::Answer {
                    answers += 1;
                    held += usize::from(!w.contains_rect(&mbr) && !hint.accepts(&mbr, w));
                    assert!(
                        g.intersects_rect(w),
                        "answered a window the object misses: {g:?} window {w:?}"
                    );
                }
            }
        }
        [cases, held, answers]
    }

    /// The decoded edge nearest to `v` along one axis, or one ulp to
    /// either side of it.
    fn nearest_edge(rng: &mut SmallRng, edges: &[f64; 9], v: f64) -> f64 {
        let nearest = edges
            .iter()
            .min_by(|a, b| (*a - v).abs().total_cmp(&(*b - v).abs()))
            .expect("nine edges");
        jitter(rng, *nearest)
    }

    /// A partner for `a`: a walk through `a`'s MBR grown by half its
    /// size, in steps of up to an eighth of it, half its vertices moved
    /// onto the nearest of `a`'s decoded edges (± one ulp).
    fn partner(rng: &mut SmallRng, a: &Geometry) -> Geometry {
        let (mbr, grid) = (a.mbr(), Grid::of(&a.mbr()));
        let (w, h) = (mbr.xmax - mbr.xmin, mbr.ymax - mbr.ymin);
        let mut at = Point::new(
            mbr.xmin - w * 0.5 + 2.0 * w * rng.next_f64(),
            mbr.ymin - h * 0.5 + 2.0 * h * rng.next_f64(),
        );
        let n = 2 + rng.gen_range(0..7usize);
        let vertices: Vec<Point> = (0..n.max(3))
            .map(|_| {
                at.x += w / 8.0 * rng.gen_range(-1.0..=1.0);
                at.y += h / 8.0 * rng.gen_range(-1.0..=1.0);
                if rng.gen_bool(0.5) {
                    at.x = nearest_edge(rng, &grid.x, at.x);
                } else if rng.gen_bool(0.5) {
                    at.y = nearest_edge(rng, &grid.y, at.y);
                }
                at
            })
            .collect();
        if rng.gen_range(0..3u64) == 0 {
            Polygon::new(vertices).into()
        } else {
            Polyline::new(vertices[..n].to_vec()).into()
        }
    }

    /// Every pair one of whose masks misses the intersection of the two
    /// MBRs is disjoint. Returns the pairs whose MBRs meet, the
    /// rejections, and the disjoint pairs.
    fn rejected_pairs(seed: u64, objects: usize) -> [usize; 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let [mut cases, mut rejected, mut disjoint] = [0usize; 3];
        for _ in 0..objects {
            let a = random_object(&mut rng);
            for _ in 0..4 {
                let b = partner(&mut rng, &a);
                let (ma, mb) = (a.mbr(), b.mbr());
                if !ma.intersects(&mb) {
                    continue;
                }
                cases += 1;
                let meet = ma.intersection(&mb);
                let hit = a.intersects(&b);
                disjoint += usize::from(!hit);
                if a.hint().misses(&ma, &meet) || b.hint().misses(&mb, &meet) {
                    rejected += 1;
                    assert!(!hit, "rejected an intersecting pair: {a:?} and {b:?}");
                }
            }
        }
        [cases, rejected, disjoint]
    }

    #[test]
    fn a_rejected_window_always_misses_the_object() {
        let [cases, rejected, misses] = rejected_windows(1994, MASKED);
        // Not vacuous: thousands of rejections, and misses the masks
        // cannot see (random objects cross most of their cells).
        assert!(cases >= 200_000, "{cases} cases");
        assert!(
            rejected > 3_000 && misses - rejected > 10_000,
            "{rejected} rejected of {misses} misses in {cases} cases"
        );
    }

    #[test]
    fn a_rejected_point_is_never_on_the_object() {
        let [cases, rejected, misses] = rejected_points(42, MASKED);
        assert!(cases >= 150_000, "{cases} cases");
        assert!(
            rejected > 5_000 && misses - rejected > 10_000 && cases - misses > 10_000,
            "{rejected} rejected of {misses} misses in {cases} cases"
        );
    }

    #[test]
    fn a_held_window_always_meets_the_object() {
        let [cases, held, answers] = held_windows(7, MASKED);
        assert!(cases >= 200_000, "{cases} cases");
        assert!(
            held > 10_000 && cases - answers > 10_000,
            "{held} held of {answers} answers in {cases} cases"
        );
    }

    #[test]
    fn a_rejected_pair_never_intersects() {
        let [cases, rejected, disjoint] = rejected_pairs(1234, MASKED);
        assert!(cases >= 15_000, "{cases} cases");
        assert!(
            rejected > 700 && disjoint - rejected > 1_000 && cases - disjoint > 1_000,
            "{rejected} rejected of {disjoint} disjoint in {cases} pairs"
        );
    }

    /// The four mask properties on ten times the objects, optimized:
    /// `cargo test --release -p spatialdb-geom -- --include-ignored`.
    #[test]
    #[ignore = "a release-profile sweep; run with --include-ignored"]
    fn the_mask_properties_hold_on_ten_times_the_objects() {
        let n = 10 * MASKED;
        let [_, rejected, _] = rejected_windows(1, n);
        assert!(rejected > 30_000, "{rejected} windows rejected");
        let [_, rejected, _] = rejected_points(2, n);
        assert!(rejected > 50_000, "{rejected} points rejected");
        let [_, held, _] = held_windows(3, n);
        assert!(held > 100_000, "{held} windows held");
        let [_, rejected, _] = rejected_pairs(4, n);
        assert!(rejected > 7_000, "{rejected} pairs rejected");
    }

    #[test]
    fn overflowing_extents_give_no_verdict() {
        let p = Point::new;
        let wide: [Geometry; 3] = [
            Polyline::new(vec![p(-1e308, 0.0), p(1e308, 1.0), p(0.0, 0.5)]).into(),
            Polyline::new(vec![p(0.0, f64::MAX), p(1.0, -f64::MAX)]).into(),
            Polygon::new(vec![p(-1e308, 0.0), p(1e308, 0.0), p(0.0, 1.0)]).into(),
        ];
        let mut rng = SmallRng::seed_from_u64(3);
        let mut windows = Vec::new();
        for g in &wide {
            let (mbr, hint) = (g.mbr(), g.hint());
            assert_eq!((hint.touched(), hint.holds()), (u64::MAX, 0), "{g:?}");
            windows_for(&mut rng, g, &mut windows);
            windows.push(Rect::new(0.25, 0.25, 0.75, 0.75));
            windows.push(Rect::new(1e300, 0.9, 1e301, 0.9));
            for w in &windows {
                let by_mbr_or_points = w.contains_rect(&mbr) || hint.accepts(&mbr, w);
                let verdict = hint.verdict(&mbr, w);
                assert_eq!(verdict == Verdict::Answer, by_mbr_or_points, "{g:?} {w:?}");
                assert_ne!(verdict, Verdict::FalseHit, "{g:?} {w:?}");
                assert!(!hint.misses(&mbr, w), "{g:?} {w:?}");
            }
        }
    }

    #[test]
    fn masks_follow_the_segments_and_vertices() {
        // Across the unit square to (1, 0.5), then up to (1, 1): the
        // masks on an 8 × 8 grid of 1/8 cells.
        let p = Point::new;
        let g: Geometry = Polyline::new(vec![p(0.0, 0.0), p(1.0, 0.5), p(1.0, 1.0)]).into();
        let hint = g.hint();
        let bit = |i: u32, j: u32| 1u64 << (8 * j + i);
        // The first box covers rows 0–4 (row 4 starts on its top edge),
        // the second is column 7 from row 3 up.
        let rows_0_to_4 = (1u64 << 40) - 1;
        assert_eq!(
            hint.touched(),
            rows_0_to_4 | bit(7, 5) | bit(7, 6) | bit(7, 7)
        );
        // Vertices on shared edges set every cell they are on.
        let held = bit(0, 0) | bit(7, 3) | bit(7, 4) | bit(7, 7);
        assert_eq!(hint.holds(), held);
        // A window holding cell (7, 3) but neither end cell is an answer
        // by `holds` alone.
        let w = Rect::new(0.8, 0.3, 1.0, 0.55);
        assert!(!hint.accepts(&g.mbr(), &w));
        assert_eq!(hint.verdict(&g.mbr(), &w), Verdict::Answer);
        // An L whose corner cell it never enters rejects a window there.
        let l: Geometry = Polyline::new(vec![p(0.0, 1.0), p(0.0, 0.0), p(1.0, 0.0)]).into();
        let corner = Rect::new(0.9, 0.9, 2.0, 2.0);
        assert_eq!(l.hint().verdict(&l.mbr(), &corner), Verdict::FalseHit);
        assert_eq!(
            l.hint().verdict(&l.mbr(), &p(0.5, 0.5).mbr()),
            Verdict::FalseHit
        );
        // One ulp off the edge of the legs' cells, and on it.
        let eighth = 0.125f64;
        let inner = Rect::new(eighth.next_up(), eighth.next_up(), 0.5, 0.5);
        assert_eq!(l.hint().verdict(&l.mbr(), &inner), Verdict::FalseHit);
        let touching = Rect::new(eighth, eighth.next_up(), 0.5, 0.5);
        assert_eq!(l.hint().verdict(&l.mbr(), &touching), Verdict::Undecided);
        // A point rules nothing out and holds nothing.
        let point: Geometry = p(0.5, 0.5).into();
        assert_eq!(point.hint(), Hint::NONE);
    }
}
