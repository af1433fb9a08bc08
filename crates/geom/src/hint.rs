//! A *progressive* approximation of an object: two of its points,
//! quantised into one `u32`.
//!
//! Multi-step query processing \[BKSS94\] puts a second filter step
//! between the MBR and the exact geometry. The MBR is a *conservative*
//! approximation — a window that misses it misses the object; a
//! progressive approximation lies *inside* the object — a window that
//! hits it hits the object, so the candidate is an answer without its
//! exact representation. For a line object the approximation is points
//! of the line. A [`Hint`] names two of them, each as the cell it falls
//! into on a 256 × 256 grid over the object's MBR, and
//! [`accepts`](Hint::accepts) a window that contains one of the two
//! cells: the point inside that cell lies in the window.
//!
//! No epsilon is involved. [`Hint::encode`] keeps a cell only after
//! checking, with the very decode [`accepts`](Hint::accepts) runs on the
//! very same MBR, that the decoded cell contains the point; a point whose
//! cell fails the check (overflowing extents, say) is simply not encoded.
//! The code is only meaningful next to the MBR it was encoded against.

use crate::point::Point;
use crate::rect::Rect;

/// Cells per axis: 8 bits of x and 8 bits of y per point.
const CELLS: u32 = 256;

/// Two points of an object as grid cells of its MBR — see the
/// [module docs](self).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hint(u32);

impl Hint {
    /// No approximation: accepts nothing. The two 16-bit halves of an
    /// encoded hint are stored smaller first, so this code is free.
    pub const NONE: Hint = Hint(0xFFFF_0000);

    /// Encode the points `a` and `b` of an object whose MBR is `mbr`.
    /// A point whose cell cannot be verified is left out (the other one
    /// then fills both halves); with neither, the result is
    /// [`Hint::NONE`].
    pub fn encode(mbr: &Rect, a: &Point, b: &Point) -> Hint {
        match (verified_cell(mbr, a), verified_cell(mbr, b)) {
            (Some(p), Some(q)) => Hint(p.min(q) << 16 | p.max(q)),
            (Some(p), None) | (None, Some(p)) => Hint(p << 16 | p),
            (None, None) => Hint::NONE,
        }
    }

    /// The two cells of the grid over `mbr` this hint names (equal when
    /// only one point was encoded), `None` for [`Hint::NONE`]. Each
    /// contains a point of the object, provided `mbr` is the rectangle
    /// the hint was encoded against.
    pub fn cells(self, mbr: &Rect) -> Option<[Rect; 2]> {
        (self != Hint::NONE).then(|| self.halves().map(|half| cell(mbr, half)))
    }

    /// `true` if `window` contains one of the two cells — and with it a
    /// point of the object, so the exact window predicate holds. `false`
    /// says nothing.
    #[inline]
    pub fn accepts(self, mbr: &Rect, window: &Rect) -> bool {
        self != Hint::NONE
            && self
                .halves()
                .iter()
                .any(|&half| window.contains_rect(&cell(mbr, half)))
    }

    /// The two 16-bit cell names, smaller first.
    fn halves(self) -> [u32; 2] {
        [self.0 >> 16, self.0 & 0xFFFF]
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
}
