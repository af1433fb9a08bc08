//! The filter step's tree walk allocates nothing on a warm thread: after
//! one warm-up call, window and point queries that reuse their output
//! buffers make no heap allocation. A counting global allocator counts
//! per thread, so the test harness's own threads do not interfere.
//!
//! The engine's benchmark counts allocations on a release build, so run
//! this in release too: `cargo test --release -p spatialdb-rtree --test
//! descent_allocations`.

use spatialdb_disk::Disk;
use spatialdb_geom::rng::SmallRng;
use spatialdb_geom::{Point, Rect};
use spatialdb_rtree::{LeafEntry, NoIo, ObjectId, RStarTree, RTreeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A four-level tree of 3,000 small rectangles in the unit square.
fn tree() -> RStarTree {
    let disk = Disk::with_defaults();
    let config = RTreeConfig {
        max_entries: 8,
        leaf_reinsert_enabled: true,
        leaf_payload_limit: None,
    };
    let mut t = RStarTree::new(config, disk.create_region("t"));
    let mut rng = SmallRng::seed_from_u64(43);
    for i in 0..3_000 {
        let (x, y) = (rng.next_f64(), rng.next_f64());
        let (w, h) = (rng.gen_range(0.0..0.02), rng.gen_range(0.0..0.02));
        t.insert(
            LeafEntry::new(Rect::new(x, y, x + w, y + h), ObjectId(i), 0),
            &mut NoIo,
        );
    }
    assert!(t.height() >= 4, "height {}", t.height());
    t
}

/// 100 windows of up to a quarter of the square's side and 100
/// points.
fn targets() -> (Vec<Rect>, Vec<Point>) {
    let mut rng = SmallRng::seed_from_u64(7);
    let (mut windows, mut points) = (Vec::new(), Vec::new());
    for _ in 0..100 {
        let (x, y) = (rng.next_f64(), rng.next_f64());
        let side = rng.gen_range(0.0..0.25);
        windows.push(Rect::new(x, y, x + side, y + side));
        points.push(Point::new(x, y));
    }
    (windows, points)
}

#[test]
fn warm_window_and_point_descents_allocate_nothing() {
    let t = tree();
    let (windows, points) = targets();
    let (mut out, mut leaves) = (Vec::new(), Vec::new());
    // The warm-up walks the whole tree: the deepest stack and the
    // longest output any query can need.
    let everything = Rect::new(-1.0, -1.0, 2.0, 2.0);
    t.window_leaves_into(&everything, &mut NoIo, &mut out, &mut leaves);
    assert_eq!(out.len(), 3_000);
    let (mut hits, mut leaf_hits) = (0, 0);
    let mut query = |window: &Rect, by_entries: &dyn Fn(&mut Vec<LeafEntry>)| {
        by_entries(&mut out);
        hits += out.len();
        t.window_leaves_into(window, &mut NoIo, &mut out, &mut leaves);
        leaf_hits += leaves.iter().map(|(_, r)| r.len()).sum::<usize>();
    };
    let n = allocations(|| {
        for w in &windows {
            query(w, &|out| t.window_entries_into(w, &mut NoIo, out));
        }
        for p in &points {
            let at = Rect::new(p.x, p.y, p.x, p.y);
            query(&at, &|out| t.point_entries_into(p, &mut NoIo, out));
        }
    });
    assert_eq!(n, 0, "{n} allocations over 400 warm descents");
    assert_eq!(hits, leaf_hits);
    assert!(hits > 1_000, "the windows must hit something: {hits}");
}

#[test]
fn the_counter_sees_an_allocation() {
    let n = allocations(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(n, 1);
}
