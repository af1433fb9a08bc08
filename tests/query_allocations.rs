//! What a warm `run().ids()` allocates, counted: a window or point query
//! drained with `ids()` on each paper organization, after the thread
//! has run the same queries once. `ids()` refines on the calling thread,
//! so a query allocates its candidate list and its answer list and
//! nothing else — the filter step reuses the thread's buffers. A change
//! that makes this path allocate more fails here.
//!
//! The binary installs its own counting `#[global_allocator]`; counts
//! are per thread, so the harness's other threads cannot disturb them.
//! The engine's benchmark counts allocations on a release build, so run
//! this in release too: `cargo test --release -p spatialdb-core --test
//! query_allocations`.

use spatialdb::geom::{Point, Polyline, Rect};
use spatialdb::{DbOptions, OrganizationKind, SpatialDatabase, Workspace};
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
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, who
        // guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`; both are passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// 2,000 short streets on a grid of the unit square.
fn database(ws: &Workspace, kind: OrganizationKind) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind));
    let side = 45u64;
    for i in 0..2_000u64 {
        let (x, y) = (
            (i % side) as f64 / side as f64,
            (i / side) as f64 / side as f64,
        );
        let step = 0.6 / side as f64;
        db.insert(
            i,
            Polyline::new(vec![
                Point::new(x, y),
                Point::new(x + step, y + step / 2.0),
                Point::new(x + 2.0 * step, y),
            ]),
        );
    }
    db.finish_loading();
    db
}

/// 20 windows of growing size and 20 points, on and off the streets.
fn targets() -> (Vec<Rect>, Vec<Point>) {
    let windows = (0..20)
        .map(|i| {
            let (x, side) = (i as f64 / 25.0, 0.01 + i as f64 / 100.0);
            Rect::new(x, x / 2.0, x + side, x / 2.0 + side)
        })
        .collect();
    let side = 45.0;
    let points = (0..20)
        .map(|i| {
            let (col, row) = ((i * 7 % 45) as f64, (i * 2) as f64);
            // Every other point lies on a street's first vertex.
            let off = if i % 2 == 0 { 0.0 } else { 0.3 / side };
            Point::new(col / side + off, row / side + off)
        })
        .collect();
    (windows, points)
}

/// Per organization: the allocations of one warm pass over the 20
/// windows and one over the 20 points, each query drained with `ids()`
/// — two a query, its candidate list and its answer list.
const WARM_ALLOCATIONS: [(OrganizationKind, u64, u64); 3] = [
    (OrganizationKind::Secondary, 40, 40),
    (OrganizationKind::Primary, 40, 40),
    (OrganizationKind::Cluster, 40, 40),
];

#[test]
fn warm_ids_allocate_what_they_always_did() {
    let (windows, points) = targets();
    let measured = WARM_ALLOCATIONS.map(|(kind, ..)| {
        let ws = Workspace::new(256);
        let db = database(&ws, kind);
        let window_pass = || -> usize {
            let ids = windows.iter().map(|w| db.query().window(*w).run().ids());
            ids.map(|ids| ids.len()).sum()
        };
        let point_pass = || -> usize {
            let ids = points.iter().map(|p| db.query().point(*p).run().ids());
            ids.map(|ids| ids.len()).sum()
        };
        let (cold_window_answers, cold_point_answers) = (window_pass(), point_pass());
        let (window_answers, window_n) = allocations(window_pass);
        let (point_answers, point_n) = allocations(point_pass);
        assert_eq!(window_answers, cold_window_answers, "{kind:?}");
        assert_eq!(point_answers, cold_point_answers, "{kind:?}");
        assert!(window_answers > 100 && point_answers >= 10, "{kind:?}");
        (kind, window_n, point_n)
    });
    assert_eq!(measured, WARM_ALLOCATIONS, "warm window and point passes");
}

#[test]
fn the_counter_sees_an_allocation() {
    let (_, n) = allocations(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(n, 1);
}
