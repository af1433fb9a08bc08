//! Debug-build lock-order checking ("lockdep") for the disk crate.
//!
//! The crate's deadlock-freedom argument is a documented hierarchy
//! (which also covers the engine layers built on top of this crate —
//! they register their locks here so one checker sees every class):
//!
//! 1. [`LockClass::DbWriter`] — a database's writer gate (the
//!    commit serialization lock of the shadow-paging write path in
//!    `spatialdb-core`); held across whole commits, so it must rank
//!    before every lock a store operation can take;
//! 2. [`LockClass::Shard`]`(i)` — the sharded pool's per-shard buffer
//!    locks, ordered **ascending by index** within the class (the
//!    stop-the-world `lock_all` takes them 0, 1, 2, …);
//! 3. [`LockClass::DiskCounters`] — the disk's statistics/region state;
//! 4. [`LockClass::Epoch`] — the epoch collector's retired-garbage
//!    list (`spatialdb-epoch`; leaf lock: nothing else is acquired
//!    while it is held);
//! 5. [`LockClass::Blocks`] — the one ordered work queue
//!    ([`crate::blocks`]: the MBR join's leaf-pair sweeps, the stream
//!    executor's refinement, every `map_chunks` fan-out; leaf lock,
//!    paired with two [`Condvar`]s — see [`DepGuard::wait`]). The
//!    joining thread waits on it while its pool session holds a shard
//!    lock, so it ranks after [`LockClass::Shard`].
//!
//! A *blocking* acquisition must never take a class that ranks at or
//! below something already held (equal rank is allowed only for a
//! strictly higher shard index). `try_*` acquisitions are **exempt from
//! the hierarchy as acquirers** — a try-lock never waits, so it can
//! never close a deadlock cycle — but the locks they *hold* still count
//! against later blocking acquisitions on the same thread: blocking on
//! a lower rank while holding a try-taken higher lock is a real
//! inversion and is flagged.
//!
//! In debug builds every [`DepMutex::acquire`] checks the calling
//! thread's held-stack against the hierarchy and records the cross-class
//! acquisition edge — together with the source location that first
//! created it — in a global wait graph; the first hierarchy violation
//! or graph cycle panics with both classes named **and the accumulated
//! wait graph dumped**, so the report shows not just the bad pair but
//! every nesting the run had established and where ([`wait_graph`]).
//! In release builds the whole checker compiles away: [`DepMutex`] is a
//! plain [`Mutex`] plus a unit class tag, and [`DepGuard`] is a plain
//! guard.

use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

/// The lock classes of the engine, in hierarchy order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockClass {
    /// A database's writer gate (shadow-paging commit serialization).
    DbWriter,
    /// A sharded-pool buffer shard (intra-class order: ascending index).
    Shard(usize),
    /// The disk's counter/region state mutex.
    DiskCounters,
    /// The epoch collector's retired-garbage list (leaf lock).
    Epoch,
    /// The one ordered work queue, [`crate::blocks`] (leaf lock).
    Blocks,
}

impl LockClass {
    /// Rank in the hierarchy (lower acquires first).
    pub fn rank(self) -> u8 {
        match self {
            LockClass::DbWriter => 0,
            LockClass::Shard(_) => 1,
            LockClass::DiskCounters => 2,
            LockClass::Epoch => 3,
            LockClass::Blocks => 4,
        }
    }

    /// Whether blocking on `self` while already holding `held` violates
    /// the hierarchy. Equal-rank shard acquisitions are ordered by
    /// index; re-acquiring the same non-shard class is self-deadlock.
    #[cfg(debug_assertions)]
    fn conflicts_with(self, held: LockClass) -> bool {
        match (held, self) {
            (LockClass::Shard(i), LockClass::Shard(j)) => j <= i,
            _ => self.rank() <= held.rank(),
        }
    }
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockClass::DbWriter => f.write_str("DbWriter"),
            LockClass::Shard(i) => write!(f, "Shard({i})"),
            LockClass::DiskCounters => f.write_str("DiskCounters"),
            LockClass::Epoch => f.write_str("Epoch"),
            LockClass::Blocks => f.write_str("Blocks"),
        }
    }
}

#[cfg(debug_assertions)]
mod checker {
    use super::LockClass;
    use std::cell::RefCell;
    use std::panic::Location;
    use std::sync::Mutex;

    /// Number of lock-class kinds (one per hierarchy rank).
    const KINDS: usize = 5;

    /// One lock the current thread holds.
    struct Held {
        class: LockClass,
        /// Identity of the acquisition (guards drop in arbitrary order).
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Cross-class *blocking* acquisition graph: `edges[a][b]` records
    /// that some thread blocking-acquired rank-kind `b` while holding
    /// rank-kind `a`, stamped with the source location of the
    /// acquisition that first created the edge. Five kinds, so the
    /// graph is a tiny adjacency matrix; a cycle in it means the
    /// documented hierarchy itself is inconsistent with the code.
    static GRAPH: Mutex<[[Option<&'static Location<'static>>; KINDS]; KINDS]> =
        Mutex::new([[None; KINDS]; KINDS]);

    fn kind(class: LockClass) -> usize {
        class.rank() as usize
    }

    fn kind_name(kind: usize) -> &'static str {
        ["DbWriter", "Shard", "DiskCounters", "Epoch", "Blocks"][kind]
    }

    /// Render the accumulated wait graph: one `A -> B @ site` line per
    /// recorded edge, in rank order. Empty when no cross-class nesting
    /// happened yet.
    pub(super) fn wait_graph_dump() -> String {
        #[expect(
            clippy::disallowed_methods,
            reason = "the checker's own graph: held for no other lock's acquisition"
        )]
        let graph = GRAPH.lock().expect("lockdep graph poisoned");
        let mut out = String::new();
        for (a, row) in graph.iter().enumerate() {
            for (b, site) in row.iter().enumerate() {
                if let Some(site) = site {
                    out.push_str(&format!(
                        "  {} -> {} @ {}:{}\n",
                        kind_name(a),
                        kind_name(b),
                        site.file(),
                        site.line()
                    ));
                }
            }
        }
        out
    }

    /// Depth-first reachability of `to` from `from` over recorded edges.
    fn reaches(
        edges: &[[Option<&'static Location<'static>>; KINDS]; KINDS],
        from: usize,
        to: usize,
        seen: &mut [bool; KINDS],
    ) -> bool {
        if from == to {
            return true;
        }
        seen[from] = true;
        (0..KINDS).any(|n| edges[from][n].is_some() && !seen[n] && reaches(edges, n, to, seen))
    }

    /// Check a **blocking** acquisition of `class` against everything
    /// the thread holds, record the acquisition edges, and push the
    /// lock onto the held-stack. Panics (debug builds only — the whole
    /// module is compiled out in release) on the first hierarchy
    /// violation or acquisition-graph cycle, dumping the accumulated
    /// wait graph with the site that created each edge.
    pub(super) fn acquire_blocking(
        class: LockClass,
        site: &'static Location<'static>,
    ) -> HeldToken {
        HELD.with(|held| {
            let held = held.borrow();
            for h in held.iter() {
                if class.conflicts_with(h.class) {
                    panic!(
                        "lock hierarchy violation: blocking acquisition of {class} at {site} \
                         while holding {held} (declared order: DbWriter -> Shard(asc) -> \
                         DiskCounters -> Epoch -> Blocks; \
                         see crates/disk/src/lockdep.rs)\nwait graph so far:\n{dump}",
                        held = h.class,
                        dump = wait_graph_dump(),
                    );
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "the checker's own graph: held for no other lock's acquisition"
            )]
            let mut graph = GRAPH.lock().expect("lockdep graph poisoned");
            for h in held.iter() {
                let (a, b) = (kind(h.class), kind(class));
                if a == b || graph[a][b].is_some() {
                    continue;
                }
                graph[a][b] = Some(site);
                let mut seen = [false; KINDS];
                if reaches(&graph, b, a, &mut seen) {
                    let dump = wait_graph_dump();
                    panic!(
                        "lock acquisition graph cycle: {held} -> {class} at {site} closes \
                         a cycle\nwait graph so far:\n{dump}",
                        held = h.class,
                    );
                }
            }
        });
        push(class)
    }

    /// Track a `try_*` acquisition that succeeded. Exempt from the
    /// hierarchy check (a try-lock never waits, so it cannot close a
    /// deadlock cycle) but pushed onto the held-stack: blocking on a
    /// lower rank while holding this lock is still flagged.
    pub(super) fn acquire_try(class: LockClass) -> HeldToken {
        push(class)
    }

    /// One entry of the thread's held-stack, popped when dropped (it
    /// rides inside the guard of the acquisition it tracks).
    pub(super) struct HeldToken(u64);

    impl Drop for HeldToken {
        fn drop(&mut self) {
            release(self.0);
        }
    }

    fn push(class: LockClass) -> HeldToken {
        let token = NEXT_TOKEN.with(|t| {
            let v = t.get();
            t.set(v + 1);
            v
        });
        HELD.with(|held| held.borrow_mut().push(Held { class, token }));
        HeldToken(token)
    }

    /// Pop the acquisition identified by `token` (guards may drop in
    /// any order, so search from the top).
    fn release(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let idx = held
                .iter()
                .rposition(|h| h.token == token)
                .expect("released a lock this thread does not hold");
            held.remove(idx);
        });
    }
}

/// The accumulated cross-class wait graph as text: one
/// `Holder -> Acquired @ file:line` line per blocking-acquisition edge
/// recorded so far, in rank order. Debug builds only — in release the
/// checker is compiled out and this returns an empty string. The same
/// dump is appended to every hierarchy-violation panic.
pub fn wait_graph() -> String {
    #[cfg(debug_assertions)]
    {
        checker::wait_graph_dump()
    }
    #[cfg(not(debug_assertions))]
    {
        String::new()
    }
}

/// A [`Mutex`] tagged with a [`LockClass`], hierarchy-checked in debug
/// builds (see the [module docs](self)); a plain mutex in release.
pub struct DepMutex<T> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> DepMutex<T> {
    /// Wrap `value` in a mutex of the given class.
    pub fn new(class: LockClass, value: T) -> Self {
        DepMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// This mutex's class.
    pub fn class(&self) -> LockClass {
        self.class
    }

    /// Blocking acquisition, checked against the hierarchy in debug
    /// builds (the caller's source location is recorded as the wait
    /// graph edge site). Panics if a holder panicked (poisoning), like
    /// the `expect` calls it replaces.
    #[track_caller]
    pub fn acquire(&self) -> DepGuard<'_, T> {
        let class = self.class;
        self.acquire_or(|_| panic!("lock poisoned: {class}"))
    }

    /// [`acquire`](DepMutex::acquire) that ignores poisoning. Only for
    /// a lock whose data is valid at every step of every critical
    /// section — the database's writer gate guards `()`, and a writer
    /// that panics drops its unpublished shadow copy on unwind; a pool
    /// shard's LRU state is whole between any two accesses of the
    /// session holding it — so a caught panic in one holder must not
    /// fail every later one.
    #[track_caller]
    pub fn acquire_unpoisoned(&self) -> DepGuard<'_, T> {
        self.acquire_or(PoisonError::into_inner)
    }

    #[track_caller]
    #[expect(
        clippy::disallowed_methods,
        reason = "the one blocking acquisition: the hierarchy check runs first"
    )]
    fn acquire_or<'a>(
        &'a self,
        on_poison: impl FnOnce(PoisonError<MutexGuard<'a, T>>) -> MutexGuard<'a, T>,
    ) -> DepGuard<'a, T> {
        #[cfg(debug_assertions)]
        let token = checker::acquire_blocking(self.class, std::panic::Location::caller());
        DepGuard {
            guard: self.inner.lock().unwrap_or_else(on_poison),
            #[cfg(debug_assertions)]
            token,
        }
    }

    /// Direct access to the data under exclusive borrow — no locking
    /// and no hierarchy check (an exclusive borrow can never wait, so
    /// it can never deadlock).
    pub fn get_mut(&mut self) -> &mut T {
        let class = self.class;
        self.inner
            .get_mut()
            .unwrap_or_else(|_| panic!("lock poisoned: {class}"))
    }

    /// Non-blocking acquisition: `None` if the lock is held elsewhere.
    /// Exempt from the hierarchy check (can never wait, so can never
    /// deadlock) but the held lock still counts against later blocking
    /// acquisitions on this thread.
    pub fn try_acquire(&self) -> Option<DepGuard<'_, T>> {
        let class = self.class;
        self.try_acquire_or(|_| panic!("lock poisoned: {class}"))
    }

    /// [`try_acquire`](DepMutex::try_acquire) that ignores poisoning,
    /// under the same terms as
    /// [`acquire_unpoisoned`](DepMutex::acquire_unpoisoned).
    pub fn try_acquire_unpoisoned(&self) -> Option<DepGuard<'_, T>> {
        self.try_acquire_or(PoisonError::into_inner)
    }

    fn try_acquire_or<'a>(
        &'a self,
        on_poison: impl FnOnce(PoisonError<MutexGuard<'a, T>>) -> MutexGuard<'a, T>,
    ) -> Option<DepGuard<'a, T>> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the one non-blocking acquisition: tracked on the held-stack below"
        )]
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => return None,
            Err(TryLockError::Poisoned(poisoned)) => on_poison(poisoned),
        };
        Some(DepGuard {
            guard,
            #[cfg(debug_assertions)]
            token: checker::acquire_try(self.class),
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for DepMutex<T> {
    #[expect(
        clippy::disallowed_methods,
        reason = "a probe that never waits and holds nothing past the print"
    )]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("DepMutex");
        s.field("class", &self.class);
        match self.inner.try_lock() {
            Ok(guard) => s.field("data", &&*guard).finish(),
            Err(_) => s.field("data", &"<locked>").finish(),
        }
    }
}

/// Guard returned by [`DepMutex::acquire`]/[`DepMutex::try_acquire`];
/// releases the hierarchy tracking (debug builds) on drop.
pub struct DepGuard<'a, T> {
    #[cfg(debug_assertions)]
    token: checker::HeldToken,
    guard: MutexGuard<'a, T>,
}

impl<'a, T> DepGuard<'a, T> {
    /// Block on `condvar` until notified, releasing the mutex while
    /// waiting ([`Condvar::wait`]). The lock stays on the thread's
    /// held-stack throughout: a waiting thread acquires nothing else,
    /// and it holds the mutex again when this returns. Panics if a
    /// holder panicked, like [`DepMutex::acquire`].
    pub fn wait(self, condvar: &Condvar) -> DepGuard<'a, T> {
        DepGuard {
            guard: condvar
                .wait(self.guard)
                .unwrap_or_else(|_| panic!("lock poisoned while waiting on a condvar")),
            #[cfg(debug_assertions)]
            token: self.token,
        }
    }
}

impl<T> std::ops::Deref for DepGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for DepGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: fmt::Debug> fmt::Debug for DepGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panics(f: impl FnOnce() + Send + 'static) -> bool {
        // Violations panic; run them on a scratch thread so this test's
        // own held-stack and the shared mutexes stay clean.
        std::thread::spawn(f).join().is_err()
    }

    #[test]
    fn guard_derefs_to_the_value() {
        let m = DepMutex::new(LockClass::DiskCounters, 7u32);
        {
            let mut g = m.acquire();
            *g += 1;
        }
        assert_eq!(*m.acquire(), 8);
    }

    #[test]
    fn in_order_acquisitions_pass() {
        let a = DepMutex::new(LockClass::Shard(0), ());
        let b = DepMutex::new(LockClass::Shard(1), ());
        let c = DepMutex::new(LockClass::DiskCounters, ());
        let d = DepMutex::new(LockClass::Epoch, ());
        let _ga = a.acquire();
        let _gb = b.acquire();
        let _gc = c.acquire();
        let _gd = d.acquire();
    }

    #[test]
    fn guards_may_drop_out_of_order() {
        let a = DepMutex::new(LockClass::Shard(0), ());
        let b = DepMutex::new(LockClass::DiskCounters, ());
        let ga = a.acquire();
        let gb = b.acquire();
        drop(ga);
        drop(gb);
        // The held-stack is clean: a fresh in-order chain still works.
        let _ga = a.acquire();
        let _gb = b.acquire();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rank_regression_is_caught() {
        assert!(panics(|| {
            let d = DepMutex::new(LockClass::DiskCounters, ());
            let s = DepMutex::new(LockClass::Shard(3), ());
            let _gd = d.acquire();
            let _gs = s.acquire(); // counters -> shard: inversion
        }));
        assert!(panics(|| {
            let e = DepMutex::new(LockClass::Epoch, ());
            let s = DepMutex::new(LockClass::Shard(0), ());
            let _ge = e.acquire();
            let _gs = s.acquire(); // epoch -> shard: inversion
        }));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn shard_index_order_is_enforced() {
        assert!(panics(|| {
            let hi = DepMutex::new(LockClass::Shard(5), ());
            let lo = DepMutex::new(LockClass::Shard(2), ());
            let _ghi = hi.acquire();
            let _glo = lo.acquire(); // descending shard order
        }));
        assert!(panics(|| {
            let a = DepMutex::new(LockClass::Shard(4), ());
            let b = DepMutex::new(LockClass::Shard(4), ());
            let _ga = a.acquire();
            let _gb = b.acquire(); // same index: self-deadlock shape
        }));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn reacquiring_a_nonshard_class_is_caught() {
        assert!(panics(|| {
            let a = DepMutex::new(LockClass::DiskCounters, ());
            let b = DepMutex::new(LockClass::DiskCounters, ());
            let _ga = a.acquire();
            let _gb = b.acquire();
        }));
    }

    #[test]
    fn try_acquire_is_exempt_as_acquirer() {
        // A try acquisition of a *lower-or-equal* class while holding a
        // shard never waits, so this must pass.
        let s5 = DepMutex::new(LockClass::Shard(5), ());
        let s2 = DepMutex::new(LockClass::Shard(2), ());
        let _g5 = s5.acquire();
        let g2 = s2.try_acquire();
        assert!(g2.is_some());
    }

    #[test]
    fn try_acquire_reports_contention_as_none() {
        let m = std::sync::Arc::new(DepMutex::new(LockClass::DiskCounters, ()));
        let g = m.acquire();
        let m2 = std::sync::Arc::clone(&m);
        std::thread::scope(|s| {
            s.spawn(move || {
                assert!(m2.try_acquire().is_none());
            });
        });
        drop(g);
        assert!(m.try_acquire().is_some());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn try_held_locks_count_against_blocking_acquisitions() {
        assert!(panics(|| {
            let d = DepMutex::new(LockClass::DiskCounters, ());
            let s = DepMutex::new(LockClass::Shard(0), ());
            let _gd = d.try_acquire().expect("uncontended");
            let _gs = s.acquire(); // blocking below a try-held lock
        }));
    }

    #[test]
    fn blocking_up_from_a_try_held_lock_passes() {
        let s = DepMutex::new(LockClass::Shard(1), ());
        let d = DepMutex::new(LockClass::DiskCounters, ());
        let _gs = s.try_acquire().expect("uncontended");
        let _gd = d.acquire();
    }

    #[test]
    fn debug_formatting_shows_class_and_state() {
        let m = DepMutex::new(LockClass::Shard(2), 42u8);
        let text = format!("{m:?}");
        assert!(text.contains("Shard(2)"));
        assert!(text.contains("42"));
        let g = m.acquire();
        let text = format!("{m:?}");
        assert!(text.contains("<locked>"));
        assert_eq!(format!("{g:?}"), "42");
    }

    #[test]
    fn class_display_names() {
        assert_eq!(LockClass::Shard(3).to_string(), "Shard(3)");
        assert_eq!(LockClass::DiskCounters.to_string(), "DiskCounters");
        assert_eq!(LockClass::DbWriter.to_string(), "DbWriter");
        assert_eq!(LockClass::Epoch.to_string(), "Epoch");
        assert!(LockClass::DbWriter.rank() < LockClass::Shard(0).rank());
        assert!(LockClass::Shard(9).rank() < LockClass::DiskCounters.rank());
        assert!(LockClass::DiskCounters.rank() < LockClass::Epoch.rank());
        assert!(LockClass::Epoch.rank() < LockClass::Blocks.rank());
        assert_eq!(LockClass::Blocks.to_string(), "Blocks");
    }

    #[test]
    fn engine_order_writer_first_epoch_last() {
        let w = DepMutex::new(LockClass::DbWriter, ());
        let s = DepMutex::new(LockClass::Shard(0), ());
        let e = DepMutex::new(LockClass::Epoch, ());
        let _gw = w.acquire();
        let _gs = s.acquire();
        let _ge = e.acquire();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn epoch_is_a_leaf_class() {
        assert!(panics(|| {
            let e = DepMutex::new(LockClass::Epoch, ());
            let d = DepMutex::new(LockClass::DiskCounters, ());
            let _ge = e.acquire();
            let _gd = d.acquire(); // epoch -> counters: inversion
        }));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn wait_graph_records_sites_and_epoch_class() {
        // Record a DbWriter -> Epoch edge, then check the dump names
        // both classes and the acquisition site that created the edge.
        let w = DepMutex::new(LockClass::DbWriter, ());
        let e = DepMutex::new(LockClass::Epoch, ());
        let _gw = w.acquire();
        let _ge = e.acquire();
        let dump = super::wait_graph();
        assert!(
            dump.contains("DbWriter -> Epoch @ "),
            "missing edge in dump:\n{dump}"
        );
        assert!(
            dump.contains("lockdep.rs"),
            "edge site should point at the acquisition: \n{dump}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn violation_panic_carries_the_wait_graph() {
        let err = std::thread::spawn(|| {
            let d = DepMutex::new(LockClass::DiskCounters, ());
            let s = DepMutex::new(LockClass::Shard(3), ());
            let _gd = d.acquire();
            let _gs = s.acquire();
        })
        .join()
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("lock hierarchy violation"), "{msg}");
        assert!(msg.contains("wait graph so far"), "{msg}");
    }
}
