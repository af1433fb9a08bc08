//! The cost of a commit must not grow with the store — measured in
//! bytes allocated, which repeat exactly on any hardware.
//!
//! `insert`/`remove` build every commit on `SpatialStore::snapshot()`.
//! While that deep-cloned the per-object tables, a commit allocated
//! ≈ 100 bytes per *stored object* (80k objects: ≈ 7.9 MB a commit,
//! ≈ 8× the 10k figure). With structurally shared tables a snapshot is
//! a few pointer-table clones and a commit copies one node path, one
//! cluster unit and one table bucket. This test is the gate that keeps
//! a future table from silently going back to deep clones.
//!
//! The binary installs its own counting `#[global_allocator]`; counts
//! are per thread, so the harness's other threads cannot disturb them.

use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::{DbOptions, Geometry, OrganizationKind, SpatialDatabase, Workspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread requested from the allocator.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

#[inline]
fn note(size: usize) {
    // `try_with`: allocations during thread teardown find the slot gone.
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local integer and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes the calling thread allocated while running `f`.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

const FULL_A1: f64 = 131_461.0;
const WRITES: usize = 50;

/// `snapshot()` of the cluster organization at 80,000 objects while
/// the per-object tables were flat maps (this test's `snapshot_bytes`
/// at `objects = 80_000`, measured on the last commit that deep-cloned
/// them).
const DEEP_CLONE_SNAPSHOT_BYTES_80K: u64 = 7_863_536;

struct Cost {
    /// 50 `insert` + 50 `remove`, everything they allocate.
    commit_bytes: u64,
    /// One `SpatialStore::snapshot()`.
    snapshot_bytes: u64,
}

fn map(id: MapId, objects: usize, seed: u64) -> Vec<(u64, Geometry)> {
    let dataset = DataSet {
        series: SeriesId::A,
        map: id,
    };
    SpatialMap::generate(dataset, objects as f64 / FULL_A1, GeometryMode::Full, seed)
        .objects
        .into_iter()
        .map(|o| (o.id, o.geometry.expect("full geometry").into()))
        .collect()
}

/// Load `objects` objects — with `fragmented`, then remove five of every
/// seven (the victims below excepted), which dissolves data pages and
/// their cluster units all over both page files (every 7th alone empties
/// too few to leave holes) — and measure the commits and the snapshot
/// after that.
fn measure(objects: usize, fragmented: bool) -> Cost {
    let stored = map(MapId::Map1, objects, 1994);
    let victims: Vec<u64> = stored
        .iter()
        .step_by(stored.len() / WRITES)
        .take(WRITES)
        .map(|(id, _)| *id)
        .collect();
    // Fresh ids beyond the stored map's, geometry from the second map.
    let fresh: Vec<(u64, Geometry)> = map(MapId::Map2, 2 * WRITES, 7)
        .into_iter()
        .take(WRITES)
        .zip(1_000_000_000..)
        .map(|((_, g), id)| (id, g))
        .collect();
    assert_eq!((victims.len(), fresh.len()), (WRITES, WRITES));

    let ws = Workspace::new(1600);
    let mut db: SpatialDatabase = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    let holes = stored
        .iter()
        .enumerate()
        .filter(|(i, _)| fragmented && i % 7 < 5);
    let holes = holes
        .map(|(_, (id, _))| *id)
        .filter(|id| !victims.contains(id));
    let holes: Vec<u64> = holes.collect();
    ws.bulk_load_par(&mut db, stored, 1);
    db.finish_loading();
    for id in &holes {
        assert!(db.remove(*id));
    }

    let ((), commit_bytes) = allocated_by(|| {
        for (id, geometry) in fresh {
            db.insert(id, geometry);
        }
        for id in &victims {
            assert!(db.remove(*id));
        }
    });
    assert_eq!(db.len(), objects - holes.len());
    let (copy, snapshot_bytes) = allocated_by(|| db.store().snapshot());
    drop(copy);
    Cost {
        commit_bytes,
        snapshot_bytes,
    }
}

// One test: the two sizes are compared with each other.
#[test]
fn commit_allocation_is_flat_in_store_size() {
    let small = measure(10_000, false);
    let large = measure(80_000, false);
    println!(
        "10k objects: {} B per {WRITES}+{WRITES} commits, snapshot {} B\n\
         80k objects: {} B per {WRITES}+{WRITES} commits, snapshot {} B",
        small.commit_bytes, small.snapshot_bytes, large.commit_bytes, large.snapshot_bytes
    );
    assert!(
        large.commit_bytes * 2 <= small.commit_bytes * 3,
        "commits at 80k objects allocate {} B, more than 1.5x the {} B at 10k: \
         something in the commit path copies per stored object again",
        large.commit_bytes,
        small.commit_bytes
    );
    assert!(
        large.snapshot_bytes * 20 < DEEP_CLONE_SNAPSHOT_BYTES_80K,
        "snapshot() at 80k objects allocates {} B; the deep clone it replaced took {} B",
        large.snapshot_bytes,
        DEEP_CLONE_SNAPSHOT_BYTES_80K
    );

    // Three free lists ride every snapshot — the extent allocators of
    // the tree's page file and of the buddy system's region, and the node
    // store's freed slots: shared, they cost a refcount bump however many
    // holes they list; cloned, this snapshot took 11,532 B.
    let holes = measure(80_000, true);
    println!(
        "80k objects less 5 of every 7: {} B per {WRITES}+{WRITES} commits, snapshot {} B",
        holes.commit_bytes, holes.snapshot_bytes
    );
    assert!(
        holes.snapshot_bytes <= large.snapshot_bytes,
        "snapshot() of the fragmented store allocates {} B, the unfragmented one {} B: \
         something copies per hole again",
        holes.snapshot_bytes,
        large.snapshot_bytes
    );
}
