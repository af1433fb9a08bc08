//! A counting global allocator for the traced pass.
//!
//! Allocation counts are hardware-independent and repeat exactly, so they
//! can back a claim the 2-core sandbox's wall clock cannot. The counter
//! is **armed only inside [`count`]**: disarmed, every allocation pays one
//! relaxed load on top of the system allocator, so the untraced
//! end-to-end pass measures the engine's own allocator behaviour.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The benchmark binary's `#[global_allocator]`: the system allocator
/// plus two relaxed counters (statistics only — they publish no data).
pub struct CountingAlloc;

#[inline]
fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
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
        // A grow or shrink counts as one allocation of the new size.
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

/// Allocations and bytes requested since the process started counting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

fn totals() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Run `f` with the counter armed and return what it allocated. Counts
/// every thread's allocations, so an exact figure needs `f` to be the
/// only code running. Not reentrant.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let before = totals();
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    let after = totals();
    (
        out,
        AllocCount {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not two: the counter is process-global and `cargo test`
    // runs tests on parallel threads.
    #[test]
    fn silent_when_disarmed_and_exact_when_armed() {
        let before = totals();
        let v: Vec<u64> = Vec::with_capacity(1024);
        drop(std::hint::black_box(v));
        assert_eq!(totals(), before, "disarmed allocator must not count");

        let (_, seen) = count(|| {
            let v: Vec<u8> = Vec::with_capacity(4096);
            drop(std::hint::black_box(v));
        });
        // Other test threads may allocate while armed, so only a lower
        // bound is checkable here; the binary arms it single-threaded.
        assert!(seen.allocs >= 1 && seen.bytes >= 4096, "{seen:?}");
    }
}
