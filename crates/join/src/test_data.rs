//! Seeded test operands shared by the crate's unit tests.

use spatialdb_disk::Disk;
use spatialdb_geom::{Geometry, Hint, Point, Polyline, Rect};
use spatialdb_rtree::ObjectId;
use spatialdb_storage::{
    new_shared_pool, ObjectRecord, PrimaryOrganization, SharedPool, SpatialStore,
};

/// `n` seeded rectangles with sides up to `size`, lower-left corners
/// uniform in `[x0, x0 + span) × [0, span)` (xorshift64*).
pub(crate) fn scatter(seed: u64, n: usize, x0: f64, span: f64, size: f64) -> Vec<Rect> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let (x, y) = (x0 + unit() * span, unit() * span);
            Rect::new(x, y, x + unit() * size, y + unit() * size)
        })
        .collect()
}

/// The hint of a diagonal across `rect` in eight segments — rising
/// for even `i`, falling for odd — so that leaf entries rule pairs
/// out.
pub(crate) fn diagonal(i: usize, rect: &Rect) -> Hint {
    let (y0, y1) = if i.is_multiple_of(2) {
        (rect.ymin, rect.ymax)
    } else {
        (rect.ymax, rect.ymin)
    };
    let at = |t: f64| Point::new(rect.xmin + t * rect.width(), y0 + t * (y1 - y0));
    let line = Polyline::new((0..=8).map(|k| at(f64::from(k) / 8.0)).collect());
    Geometry::from(line).hint()
}

/// Two primary organizations over 3,000 seeded 700-byte objects each,
/// hinted with [`diagonal`]s, on one pool of `buffer` pages, ready to
/// query: five objects to a data page, so their join spans many blocks
/// of leaf pairs (the MBR join's tests pin how many).
pub(crate) fn primary_pair(
    buffer: usize,
) -> (PrimaryOrganization, PrimaryOrganization, SharedPool) {
    let pool = new_shared_pool(Disk::with_defaults(), buffer);
    let store = |seed: u64, x0: f64| {
        let mut store = PrimaryOrganization::new(pool.clone());
        for (i, rect) in scatter(seed, 3000, x0, 15.0, 1.5).into_iter().enumerate() {
            let hint = diagonal(i, &rect);
            store.insert(&ObjectRecord::new(ObjectId(i as u64), rect, 700).with_hint(hint));
        }
        store.begin_query();
        store
    };
    let (r, s) = (store(33, 0.0), store(34, 0.3));
    (r, s, pool)
}
