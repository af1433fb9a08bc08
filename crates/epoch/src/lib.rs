//! `spatialdb-epoch` — a small, dependency-free epoch-based
//! reclamation (EBR) manager for the engine's shadow-paged stores.
//!
//! The shadow-paging write path (see `spatialdb-core`) never mutates
//! state a reader can observe: a writer clones the current store (a
//! cheap copy-on-write snapshot), applies its update to the clone, and
//! publishes the clone by atomically swapping a root pointer. Readers
//! never take the writer's lock — they *pin an epoch*, load the root
//! pointer, and traverse that consistent snapshot for as long as the
//! pin guard lives. The one question left is when the superseded
//! snapshot may be freed, and that is what this crate answers:
//!
//! * The [`Collector`] keeps a global epoch counter and a pin count
//!   per recent epoch. [`Collector::pin`] is a wait-free pair of
//!   atomic operations (no lock shared with any writer).
//! * A writer that unpublishes a snapshot hands it to
//!   [`Collector::retire`], stamping it with the current epoch.
//! * [`Collector::advance_and_collect`] — called from commit paths
//!   and other quiescent points — advances the epoch when the
//!   previous epoch has no pinned readers left, and frees retired
//!   garbage that **no present or future pin can reach** (retired at
//!   least two epochs ago). A stalled reader therefore delays
//!   reclamation, never correctness.
//!
//! The invariant that makes the two-epoch rule sound: the epoch only
//! advances from `e` to `e + 1` once epoch `e - 1` has drained, so
//! every pinned reader sits at `e - 1` or `e`. Garbage retired at
//! epoch `r ≤ e - 2` is strictly older than any pin, and a pin taken
//! *after* the retire can no longer load the retired pointer (the swap
//! happened before the retire).
//!
//! The retired-garbage list lives behind a
//! [`DepMutex`] of class
//! [`LockClass::Epoch`](spatialdb_disk::LockClass), the last rank of
//! the engine's documented lock hierarchy — the collector acquires
//! nothing while holding it, and lockdep checks that claim in debug
//! builds like every other lock in the workspace.
//!
//! [`Snapshot<T>`] is the companion root cell: an atomic pointer to a
//! heap-allocated `T` with [`pin`](Snapshot::pin) (read via a pinned
//! guard), [`swap`](Snapshot::swap) (publish + retire the old value)
//! and [`get_mut`](Snapshot::get_mut) (direct access under `&mut
//! self`, for the exclusive update path that needs no shadowing).
//! All `unsafe` in the workspace's reclamation story is contained in
//! this file, behind those three operations.
//!
//! Everything a snapshot reader borrows must be reachable from the
//! root value: the engine's root carries the store *and* the exact
//! geometry of its objects, so whatever a superseded root alone still
//! references — a deleted object's geometry included — is freed with
//! it, by the rule above and by nothing else.

use spatialdb_disk::{DepMutex, LockClass};
use std::any::Any;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Number of per-epoch pin-count slots. Pins only ever occupy the
/// current and previous epoch (see the module docs), so four slots
/// leave a full free lane between the active pair and the recycled
/// remainder.
const SLOTS: usize = 4;

/// One piece of retired garbage: the superseded value and the epoch
/// it was retired in.
struct Retired {
    epoch: u64,
    // lint: raw-lock — Box<dyn Any> is the garbage payload, not a lock.
    // Never read: held solely so its `Drop` runs when the collector
    // decides the value is unreachable.
    _value: Box<dyn Any + Send>,
}

impl std::fmt::Debug for Retired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Retired")
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// The epoch manager: a global epoch, per-epoch pin counts, and the
/// retired-garbage list. One collector guards one versioned root (the
/// engine embeds one per database).
#[derive(Debug)]
pub struct Collector {
    /// The global epoch. Monotonically increasing; advanced only by
    /// [`advance_and_collect`](Collector::advance_and_collect) once
    /// the previous epoch has no pinned readers.
    epoch: AtomicU64,
    /// Pin counts, indexed by `epoch % SLOTS`.
    pins: [AtomicUsize; SLOTS],
    /// Retired garbage awaiting a safe epoch distance.
    retired: DepMutex<Vec<Retired>>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// A fresh collector at epoch 0 with nothing retired.
    pub fn new() -> Self {
        Collector {
            epoch: AtomicU64::new(0),
            pins: std::array::from_fn(|_| AtomicUsize::new(0)),
            retired: DepMutex::new(LockClass::Epoch, Vec::new()),
        }
    }

    /// The current global epoch (diagnostics and tests).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Number of retired values not yet freed (diagnostics and the
    /// conservation tests).
    pub fn retired_len(&self) -> usize {
        self.retired.acquire().len()
    }

    /// Total pins currently outstanding across all epochs.
    pub fn pinned_readers(&self) -> usize {
        self.pins.iter().map(|p| p.load(Ordering::SeqCst)).sum()
    }

    /// Pin the current epoch. While the returned guard lives, no value
    /// retired at or after this epoch will be freed, so a root pointer
    /// loaded under the pin stays valid. Wait-free against writers: a
    /// pin is an atomic increment plus a validation load, and never
    /// touches the retired-list lock.
    pub fn pin(&self) -> Pin<'_> {
        loop {
            let e = self.epoch.load(Ordering::SeqCst);
            let slot = &self.pins[(e % SLOTS as u64) as usize];
            slot.fetch_add(1, Ordering::SeqCst);
            // The epoch may have advanced between the load and the
            // increment, in which case the count landed in a slot the
            // collector may already be treating as drained: undo and
            // retry against the new epoch.
            if self.epoch.load(Ordering::SeqCst) == e {
                return Pin {
                    collector: self,
                    epoch: e,
                };
            }
            slot.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Hand a superseded value to the collector, stamped with the
    /// current epoch. It is freed by a later
    /// [`advance_and_collect`](Collector::advance_and_collect) once no
    /// pin can reach it.
    pub fn retire(&self, value: Box<dyn Any + Send>) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        self.retired.acquire().push(Retired {
            epoch,
            _value: value,
        });
    }

    /// Advance the epoch if the previous one has drained, then free
    /// all garbage retired at least two epochs ago. Returns how many
    /// retired values were freed.
    ///
    /// Called from quiescent points — after a writer publishes, and
    /// from the exclusive (`&mut`) paths. Never blocks readers: it
    /// only reads their pin counts.
    pub fn advance_and_collect(&self) -> usize {
        let e = self.epoch.load(Ordering::SeqCst);
        let prev_slot = ((e + SLOTS as u64 - 1) % SLOTS as u64) as usize;
        if e == 0 || self.pins[prev_slot].load(Ordering::SeqCst) == 0 {
            // Nobody is pinned at e - 1: every reader sits at e (or
            // later pins land at e + 1). Advance.
            let _ = self
                .epoch
                .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
        let now = self.epoch.load(Ordering::SeqCst);
        let mut retired = self.retired.acquire();
        let before = retired.len();
        retired.retain(|r| r.epoch + 2 > now);
        before - retired.len()
    }
}

/// A pinned epoch. Dropping the guard unpins; the epoch may then
/// advance past it and garbage behind it become reclaimable.
#[derive(Debug)]
pub struct Pin<'c> {
    collector: &'c Collector,
    epoch: u64,
}

impl Pin<'_> {
    /// The epoch this guard pinned (diagnostics and tests).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.collector.pins[(self.epoch % SLOTS as u64) as usize].fetch_sub(1, Ordering::SeqCst);
    }
}

/// An atomically swappable root pointer to a heap-allocated `T`,
/// reclaimed through a [`Collector`].
///
/// This is the publication point of the shadow-paging scheme: readers
/// [`pin`](Snapshot::pin) and get a borrow of the current value that
/// stays valid for the guard's lifetime even while writers
/// [`swap`](Snapshot::swap) new values in; the old value is retired to
/// the collector rather than freed in place. `T` is typically a small
/// struct of structurally shared parts (a boxed store, a table), so a
/// new version costs a few pointer-table copies.
pub struct Snapshot<T: Send + 'static> {
    ptr: AtomicPtr<T>,
    /// `AtomicPtr` is unconditionally `Send + Sync`; this marker makes
    /// the cell's auto-traits follow the owned `T` instead (shared
    /// guards hand out `&T`, so `Sync` must require `T: Sync`).
    _owned: std::marker::PhantomData<T>,
}

impl<T: Send + 'static> Snapshot<T> {
    /// Wrap an initial value.
    pub fn new(value: T) -> Self {
        Snapshot {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            _owned: std::marker::PhantomData,
        }
    }

    /// Pin `collector` and load the current value. The borrow lives as
    /// long as the guard; the collector will not free this value while
    /// the pin is outstanding (the swap that unpublishes it retires it
    /// at an epoch the pin blocks from reaching the two-epoch
    /// distance).
    pub fn pin<'a>(&'a self, collector: &'a Collector) -> SnapshotGuard<'a, T> {
        let pin = collector.pin();
        // Load *after* pinning: a value this load can observe was
        // unpublished no earlier than the pinned epoch, so it cannot
        // reach retirement distance while the pin lives.
        let ptr = self.ptr.load(Ordering::SeqCst);
        SnapshotGuard { _pin: pin, ptr }
    }

    /// Publish `value` and retire the superseded one to `collector`.
    /// Readers pinned before the swap keep traversing the old value;
    /// readers pinning after it load the new one.
    pub fn swap(&self, value: T, collector: &Collector) {
        let fresh = Box::into_raw(Box::new(value));
        let old = self.ptr.swap(fresh, Ordering::SeqCst);
        // SAFETY: `old` came from `Box::into_raw` in `new`/`swap` and
        // was just unpublished — exactly one swap can observe it, so
        // re-boxing transfers unique ownership to the collector.
        let boxed: Box<T> = unsafe { Box::from_raw(old) };
        collector.retire(boxed);
        collector.advance_and_collect();
    }

    /// Direct access under exclusive borrow — the `&mut` update path,
    /// which shadows nothing, retires nothing, and is byte-identical
    /// to a world without versioning.
    pub fn get_mut(&mut self) -> &mut T {
        // SAFETY: `&mut self` proves no guard borrows this cell (every
        // guard holds `&self`), and the pointer is always a live
        // allocation owned by the cell.
        unsafe { &mut *self.ptr.load(Ordering::SeqCst) }
    }

    /// Read access without pinning, under shared borrow of the cell.
    /// Its one caller is the `Debug` impl, which prints the value
    /// without an epoch pin: the borrow is tied to `&self`, and a
    /// concurrent `swap` would retire (not free) the value, so even a
    /// racing writer cannot invalidate it before a quiescent point.
    fn current(&self) -> *mut T {
        self.ptr.load(Ordering::SeqCst)
    }
}

impl<T: Send + 'static> Drop for Snapshot<T> {
    fn drop(&mut self) {
        // SAFETY: the cell owns its current allocation; guards cannot
        // outlive `&self` borrows, and drop has `&mut self`.
        unsafe { drop(Box::from_raw(self.ptr.load(Ordering::SeqCst))) };
    }
}

impl<T: Send + std::fmt::Debug + 'static> std::fmt::Debug for Snapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // SAFETY: shared borrow of the cell; see `current`.
        let value = unsafe { &*self.current() };
        f.debug_struct("Snapshot").field("value", value).finish()
    }
}

/// Borrow of a [`Snapshot`] value under an epoch pin.
#[derive(Debug)]
pub struct SnapshotGuard<'a, T> {
    _pin: Pin<'a>,
    ptr: *mut T,
}

impl<T> SnapshotGuard<'_, T> {
    /// The epoch this guard's pin holds open (diagnostics and the
    /// snapshot-isolation tests).
    pub fn epoch(&self) -> u64 {
        self._pin.epoch()
    }
}

impl<T> std::ops::Deref for SnapshotGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the pointer was loaded under the pin this guard
        // holds; the collector frees a retired value only once every
        // pin that could have loaded it is gone (two-epoch rule).
        unsafe { &*self.ptr }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Drop-counting payload for the conservation tests.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pin_unpin_roundtrip() {
        let c = Collector::new();
        assert_eq!(c.pinned_readers(), 0);
        let p = c.pin();
        assert_eq!(c.pinned_readers(), 1);
        assert_eq!(p.epoch(), c.epoch());
        drop(p);
        assert_eq!(c.pinned_readers(), 0);
    }

    #[test]
    fn nothing_freed_while_pinned() {
        let c = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let _pin = c.pin();
        c.retire(Box::new(Counted(Arc::clone(&drops))));
        // However often the collector runs, the pinned epoch blocks
        // the advance, so the garbage never reaches distance 2.
        for _ in 0..10 {
            c.advance_and_collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a pin");
        assert_eq!(c.retired_len(), 1);
    }

    #[test]
    fn freed_after_pins_drain_and_epochs_pass() {
        let c = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let pin = c.pin();
        c.retire(Box::new(Counted(Arc::clone(&drops))));
        drop(pin);
        let mut freed = 0;
        for _ in 0..4 {
            freed += c.advance_and_collect();
        }
        assert_eq!(freed, 1, "exactly the one retired value is freed");
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(c.retired_len(), 0);
    }

    #[test]
    fn conservation_no_leak_no_double_free() {
        // Retire N values across interleaved pins; in the end exactly
        // N drops happened (collector drop frees the remainder).
        let drops = Arc::new(AtomicUsize::new(0));
        const N: usize = 100;
        {
            let c = Collector::new();
            for i in 0..N {
                let pin = (i % 3 == 0).then(|| c.pin());
                c.retire(Box::new(Counted(Arc::clone(&drops))));
                c.advance_and_collect();
                drop(pin);
            }
            let freed_live: usize = drops.load(Ordering::SeqCst);
            assert!(freed_live <= N);
        }
        assert_eq!(drops.load(Ordering::SeqCst), N, "leak or double free");
    }

    #[test]
    fn stalled_reader_stalls_the_epoch_not_the_writer() {
        let c = Collector::new();
        let _stuck = c.pin();
        let e = c.epoch();
        // Writers keep retiring and collecting; the epoch can advance
        // at most once (the stuck pin drains epoch e only on drop).
        for _ in 0..8 {
            c.retire(Box::new(0u32));
            c.advance_and_collect();
        }
        assert!(c.epoch() <= e + 1);
        assert!(c.retired_len() >= 7, "nothing old enough to free yet");
    }

    #[test]
    fn snapshot_swap_preserves_pinned_reads() {
        let c = Collector::new();
        let s = Snapshot::new(String::from("v0"));
        let guard = s.pin(&c);
        s.swap(String::from("v1"), &c);
        s.swap(String::from("v2"), &c);
        // The pinned guard still reads the value it loaded.
        assert_eq!(&*guard, "v0");
        // A fresh pin sees the newest value.
        assert_eq!(&*s.pin(&c), "v2");
        drop(guard);
        for _ in 0..4 {
            c.advance_and_collect();
        }
        assert_eq!(c.retired_len(), 0, "old versions reclaimed");
    }

    #[test]
    fn snapshot_get_mut_bypasses_versioning() {
        let c = Collector::new();
        let mut s = Snapshot::new(7u32);
        *s.get_mut() += 1;
        assert_eq!(*s.pin(&c), 8);
        assert_eq!(c.retired_len(), 0, "exclusive path retires nothing");
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let c = Arc::new(Collector::new());
        let s = Arc::new(Snapshot::new(0u64));
        let stop = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (s, c, stop) = (Arc::clone(&s), Arc::clone(&c), Arc::clone(&stop));
                scope.spawn(move || {
                    let mut last = 0;
                    while stop.load(Ordering::SeqCst) == 0 {
                        let g = s.pin(&c);
                        // Published values are monotone; a torn or
                        // reclaimed read would break that.
                        assert!(*g >= last);
                        last = *g;
                    }
                });
            }
            for i in 1..=1000u64 {
                s.swap(i, &c);
            }
            stop.store(1, Ordering::SeqCst);
        });
        assert_eq!(*s.pin(&c), 1000);
    }
}
