//! `map_chunks` over a single chunk maps it on the calling thread and
//! allocates nothing of its own: with a map that does not allocate, a
//! warm thread makes no heap allocation at all. That is the path of a
//! one-thread bulk load's records, sort and tile. A counting global
//! allocator counts per thread, so the test harness's own threads do not
//! interfere.
//!
//! The engine's benchmark counts allocations on a release build, so run
//! this in release too: `cargo test --release -p spatialdb-disk --test
//! one_chunk_allocations`.

use spatialdb_disk::blocks::{map_chunks, Spares, Swept};
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

/// A result that needs no heap: the sum of the items mapped.
#[derive(Default)]
struct Sum(u64);

impl Swept for Sum {
    fn append(&mut self, later: &mut Self) {
        self.0 += std::mem::take(&mut later.0);
    }
}

fn sum(chunk: &[u64]) -> Sum {
    Sum(chunk.iter().sum())
}

#[test]
fn one_chunk_allocates_nothing_on_a_warm_thread() {
    let items: Vec<u64> = (0..1000).collect();
    // One thread, however many items; one item, however many threads.
    let calls: [(&[u64], usize); 5] = [
        (&items, 1),
        (&items, 0),
        (&items[..1], 8),
        (&items[..1], 1),
        (&[], 8),
    ];
    let mut spares = Spares::default();
    let mut map = |chunk, threads| map_chunks(chunk, threads, &mut spares, sum).0;
    let warm: u64 = calls.iter().map(|&(c, t)| map(c, t)).sum();
    let mut total = 0;
    let n = allocations(|| {
        for _ in 0..100 {
            for &(chunk, threads) in &calls {
                total += map(chunk, threads);
            }
        }
    });
    assert_eq!(n, 0, "{n} allocations over 500 one-chunk calls");
    assert_eq!(total, 100 * warm);
}

#[test]
fn the_counter_sees_an_allocation() {
    let n = allocations(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(n, 1);
}
