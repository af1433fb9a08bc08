//! A warm thread's join allocates no more than the join that
//! transferred the objects after its whole traversal did: replaying the
//! traversal's node reads and its leaf pairs' fetches in one ordered
//! stream reuses its buffers from join to join.
//! A counting global allocator counts per thread, so the test harness's
//! own threads do not interfere.
//!
//! The engine's benchmark counts allocations on a release build, so run
//! this in release too: `cargo test --release -p spatialdb-join --test
//! join_allocations`.

#[path = "../src/test_data.rs"]
mod test_data;

use spatialdb_disk::blocks::Threads;
use spatialdb_join::SpatialJoin;
use spatialdb_storage::TransferTechnique;
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

/// Allocations of a warm one-thread join of the two primary
/// organizations of `primary_pair` (30 blocks of leaf pairs), recorded
/// with the join that transferred after its whole traversal.
const TRANSFER_AFTER_TRAVERSAL: u64 = 47;

#[test]
fn a_warm_join_allocates_no_more_than_a_transfer_after_the_traversal() {
    let (r, s, _pool) = test_data::primary_pair(400);
    let join = || {
        let joined =
            SpatialJoin::new(&r, &s).run(TransferTechnique::Complete, Threads::Exactly(1), None);
        assert_eq!(joined.stats.mbr_pairs, 83_620);
        joined.pairs
    };
    drop(join());
    let n = allocations(|| drop(std::hint::black_box(join())));
    assert!(
        n <= TRANSFER_AFTER_TRAVERSAL,
        "{n} allocations in a warm join"
    );
}

#[test]
fn the_counter_sees_an_allocation() {
    let n = allocations(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(n, 1);
}
