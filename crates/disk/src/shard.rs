//! The sharded buffer pool: N page-hash shards, each with its own lock
//! and LRU state, under one global capacity budget.
//!
//! Behind a single lock every concurrent page access serializes.
//! [`ShardedPool`] splits the *replacement state* by page hash so that
//! readers touching disjoint pages contend only on their shard's lock
//! (cf. the directory-per-region buffers of classic multi-user
//! grid-file systems), while the disk accounting stays global.
//!
//! ## The stats-determinism contract
//!
//! * **One shard** (the default of the storage layer): the single
//!   shard's LRU is the global LRU, and every operation charges the
//!   disk in exactly the order a single-lock pool would — a
//!   `ShardedPool` with `shards == 1` produces **byte-identical
//!   [`IoStats`](crate::stats::IoStats)** to the single-lock reference
//!   pool the test module keeps, for any single-threaded operation
//!   sequence (asserted by the mirror test below). This is the
//!   configuration the paper's figures run under.
//! * **N shards**: the capacity budget is split into per-shard quotas
//!   (rebalanced on [`reset`](ShardedPool::reset)), so the total
//!   buffered pages never exceed the budget, and every page access is
//!   still classified hit-or-miss exactly once — but *which* accesses
//!   hit depends on the per-shard LRU horizon, so `io_ms` may differ
//!   from the 1-shard figure. Use N > 1 for concurrent-throughput
//!   workloads, 1 shard to reproduce the paper.
//!
//! Lock discipline: an operation holds at most one shard lock at a
//! time, except the stop-the-world operations ([`flush`](ShardedPool::flush),
//! [`invalidate_all`](ShardedPool::invalidate_all),
//! [`reset`](ShardedPool::reset), [`dirty_pages`](ShardedPool::dirty_pages)),
//! which acquire all shard locks in ascending index order. The disk's
//! counter mutex is only ever taken *under* shard locks, never the
//! reverse. This ordering is acyclic, so the pool cannot deadlock; it
//! is machine-checked in debug builds by [`lockdep`](crate::lockdep)
//! (each shard is [`LockClass::Shard`]`(i)`, and the adaptive-quota
//! steal/decay probes are `try_acquire`-only — never blocking with a
//! shard lock held, so they are exempt from the hierarchy as
//! acquirers).

use crate::buffer::{LruBuffer, ReadMode, ReadOutcome, SeekPolicy};
use crate::disk::DiskHandle;
use crate::lockdep::{DepGuard, DepMutex, LockClass};
use crate::model::{runs, runs_of, PageId, PageRun, RegionId};
use crate::schedule::{slm_schedule, ScheduledRun};
use crate::stats::IoKind;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

thread_local! {
    /// The calling thread's miss list, taken for the duration of a
    /// [`ShardedPool::read_set`] call and put back empty for the next.
    static MISSING: RefCell<Vec<PageId>> = const { RefCell::new(Vec::new()) };
}

/// What one insert evicted from a shard: how many pages, and which of
/// them were dirty and await their write-back charge. Clean victims are
/// only counted, so a read miss on a full pool allocates nothing.
#[derive(Default)]
struct Evictions {
    count: u64,
    dirty: Vec<PageId>,
}

impl Evictions {
    fn of_insert(shard: &mut LruBuffer, page: PageId, dirty: bool) -> Self {
        let mut evicted = Evictions::default();
        shard.insert_with(page, dirty, |victim, was_dirty| {
            evicted.count += 1;
            if was_dirty {
                evicted.dirty.push(victim);
            }
        });
        evicted
    }
}

/// How pages are routed to shards.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Routing {
    /// Hash the full page address (region, offset): spreads every
    /// region's pages across all shards — the finest spreading, the
    /// default.
    #[default]
    ByPage,
    /// Hash the region only: **all pages of one region share one
    /// shard**, giving each database file its own lock domain (the
    /// directory-per-region design of classic multi-user grid-file
    /// systems). Workloads partitioned by database/file never contend;
    /// the cost is coarser spreading — a single hot region serializes
    /// on its one shard lock.
    ByRegion,
}

/// An LRU page buffer sharded by page hash, safe to drive from `&self`
/// on any number of threads.
///
/// The buffered I/O front-end every organization model reads and writes
/// through (reads, writes, extents, SLM schedules,
/// flush/invalidate/reset), with interior locking. See the
/// [module docs](self) for the determinism contract.
#[derive(Debug)]
pub struct ShardedPool {
    disk: DiskHandle,
    routing: Routing,
    shards: Box<[DepMutex<LruBuffer>]>,
    /// Total capacity budget in pages (sum of the per-shard quotas).
    capacity: AtomicUsize,
    write_through: AtomicBool,
    /// Page accesses served from the buffer (requested pages only).
    hits: AtomicU64,
    /// Page accesses that required a transfer (requested pages only).
    misses: AtomicU64,
    /// Shard-lock acquisitions that found the lock held by another
    /// thread (the contention the sharding exists to eliminate).
    contended: AtomicU64,
    /// Adaptive quotas: a shard about to evict may steal free headroom
    /// from another shard (see [`ShardedPool::set_adaptive`]).
    adaptive: AtomicBool,
    /// Global eviction counter (pages evicted to make room); the clock
    /// of the adaptive-quota decay. One *eviction cycle* is
    /// `num_shards` ticks — on average every shard evicted once.
    evictions: AtomicU64,
    /// Per-shard: eviction-counter reading when the shard last needed
    /// its entire (possibly borrowed) capacity. A borrower whose stamp
    /// falls a full cycle behind has idle stolen quota and decays one
    /// page back to a lender (see
    /// [`grow_if_adaptive`](ShardedPool::grow_if_adaptive)).
    quota_used: Box<[AtomicU64]>,
}

/// Per-shard quota of a `capacity`-page budget split `n` ways: the
/// first `capacity % n` shards take the remainder pages.
fn quota(capacity: usize, n: usize, shard: usize) -> usize {
    capacity / n + usize::from(shard < capacity % n)
}

impl ShardedPool {
    /// Create a pool of `capacity` pages over `disk` with a **single
    /// shard**: one global LRU, the configuration the paper's figures
    /// run under.
    pub fn new(disk: DiskHandle, capacity: usize) -> Self {
        Self::with_shards(disk, capacity, 1)
    }

    /// Create a pool of `capacity` total pages split across `shards`
    /// page-hash shards (at least one).
    pub fn with_shards(disk: DiskHandle, capacity: usize, shards: usize) -> Self {
        Self::with_routing(disk, capacity, shards, Routing::ByPage)
    }

    /// Create a pool with an explicit shard [`Routing`] mode.
    pub fn with_routing(
        disk: DiskHandle,
        capacity: usize,
        shards: usize,
        routing: Routing,
    ) -> Self {
        let n = shards.max(1);
        let quota_used: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let shards: Vec<DepMutex<LruBuffer>> = (0..n)
            .map(|i| DepMutex::new(LockClass::Shard(i), LruBuffer::new(quota(capacity, n, i))))
            .collect();
        ShardedPool {
            disk,
            routing,
            shards: shards.into_boxed_slice(),
            capacity: AtomicUsize::new(capacity),
            write_through: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            adaptive: AtomicBool::new(false),
            evictions: AtomicU64::new(0),
            quota_used: quota_used.into_boxed_slice(),
        }
    }

    /// Number of shards (fixed at construction).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity budget in pages.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    /// Current capacity quota of one shard. Equals the static split
    /// `quota(capacity, n, shard)` unless adaptive quotas have moved
    /// headroom between shards; the sum over all shards always equals
    /// [`capacity`](ShardedPool::capacity).
    pub fn shard_capacity(&self, shard: usize) -> usize {
        self.shards[shard].acquire().capacity()
    }

    /// Enable or disable **adaptive shard quotas** (default: off).
    ///
    /// When on, a shard that is full at insert time steals one page of
    /// *free* headroom (quota not backed by a resident page) from
    /// another shard instead of evicting — a hot shard grows at the
    /// expense of cold ones, LRU-horizon-wise approaching the
    /// single-lock pool while keeping per-shard locking. There is no
    /// global lock: the stealing shard probes donors with `try_lock`
    /// one at a time (skipping any it would have to wait for), and
    /// each transfer is a `-1` on the donor / `+1` on the thief, so
    /// the per-shard capacities always sum to the global budget (the
    /// conservation invariant; donors only shrink within their free
    /// headroom, so a steal never evicts anything).
    ///
    /// Borrowed headroom flows back on its own: stolen quota a
    /// borrower leaves unused for a full eviction cycle decays one
    /// page per cycle to a shard below its static split, and
    /// [`reset`](ShardedPool::reset) /
    /// [`invalidate_all`](ShardedPool::invalidate_all) restore the
    /// static split wholesale. With the feature off (the default) the
    /// pool is byte-identical to the fixed-quota pool.
    pub fn set_adaptive(&self, on: bool) {
        self.adaptive.store(on, Ordering::Release);
    }

    /// Whether adaptive shard quotas are active.
    pub fn adaptive(&self) -> bool {
        self.adaptive.load(Ordering::Acquire)
    }

    /// The underlying disk handle.
    #[inline]
    pub fn disk(&self) -> &DiskHandle {
        &self.disk
    }

    /// Switch between write-back (default) and write-through page
    /// updates.
    ///
    /// In write-through mode every [`write_page`](ShardedPool::write_page) /
    /// [`update_page`](ShardedPool::update_page) charges its write
    /// request immediately and the buffered copy stays clean — the
    /// update discipline of the systems the paper measured, and the
    /// mode the construction experiments (Figure 5) run under.
    /// Write-back defers the write to eviction or
    /// [`flush`](ShardedPool::flush).
    pub fn set_write_through(&self, on: bool) {
        self.write_through.store(on, Ordering::Release);
    }

    /// Whether write-through mode is active.
    pub fn write_through(&self) -> bool {
        self.write_through.load(Ordering::Acquire)
    }

    /// Cumulative requested-page accesses served from the buffer.
    ///
    /// Together with [`misses`](ShardedPool::misses) this counts every
    /// requested-page access exactly once, whatever the shard count —
    /// the conservation invariant the shard-equivalence tests assert.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative requested-page accesses that needed a transfer.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative shard-lock acquisitions that found the lock already
    /// held by another thread and had to block.
    ///
    /// The hardware-independent contention measure (the benchmark's
    /// `disk.pool.blocked_acquisitions`): more shards spread concurrent
    /// accesses over more locks, so this count drops as the shard
    /// count grows — even on machines whose core count hides the
    /// effect from wall-clock throughput.
    pub fn lock_contentions(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// The routing mode (fixed at construction).
    #[inline]
    pub fn routing(&self) -> Routing {
        self.routing
    }

    /// Shard index of a page (constant 0 for a 1-shard pool, so the
    /// single shard sees the exact global access order). Public for
    /// diagnostics and the routing benchmarks.
    #[inline]
    pub fn shard_of(&self, page: &PageId) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let key = match self.routing {
            Routing::ByPage => ((page.region.0 as u64) << 48) ^ page.offset,
            Routing::ByRegion => page.region.0 as u64,
        };
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) as usize) % self.shards.len()
    }

    #[inline]
    fn shard(&self, page: &PageId) -> DepGuard<'_, LruBuffer> {
        self.shard_at(self.shard_of(page))
    }

    #[inline]
    fn shard_at(&self, index: usize) -> DepGuard<'_, LruBuffer> {
        let mutex = &self.shards[index];
        match mutex.try_acquire() {
            Some(guard) => guard,
            None => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                mutex.acquire()
            }
        }
    }

    /// Steal one page of free headroom from some other shard for shard
    /// `thief` (whose lock the caller holds). Donors are probed with
    /// `try_lock` only — never blocking while a shard lock is held, so
    /// two concurrent thieves cannot deadlock — and a donor qualifies
    /// only if its quota exceeds the floor of one page *and* it has a
    /// free (unoccupied) quota page, so shrinking it evicts nothing.
    /// Returns `true` if a page of quota was transferred to the caller
    /// (who must grow its shard by one to conserve the budget).
    fn steal_quota(&self, thief: usize) -> bool {
        let n = self.shards.len();
        for step in 1..n {
            let candidate = (thief + step) % n;
            if let Some(mut donor) = self.shards[candidate].try_acquire() {
                let cap = donor.capacity();
                if cap > 1 && donor.len() < cap {
                    let ev = donor.set_capacity(cap - 1);
                    debug_assert!(ev.is_empty(), "donor shrink within free headroom");
                    return true;
                }
            }
        }
        false
    }

    /// Grow `shard` (index `index`, lock held by the caller) by stolen
    /// quota until it can take one more page without evicting, when
    /// adaptive quotas are on. Falls back to normal eviction when no
    /// donor has free headroom.
    ///
    /// A shard that arrives here full is *using* its whole capacity,
    /// borrowed headroom included, so its decay clock restarts.
    fn grow_if_adaptive(&self, index: usize, shard: &mut LruBuffer) {
        if !self.adaptive.load(Ordering::Acquire) {
            return;
        }
        if shard.len() >= shard.capacity() {
            self.quota_used[index].store(self.evictions.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        while shard.len() >= shard.capacity() && self.steal_quota(index) {
            let cap = shard.capacity();
            shard.set_capacity(cap + 1);
        }
    }

    /// **Adaptive-quota decay**: stolen quota that goes unused for a
    /// full eviction cycle flows back to the lenders.
    ///
    /// A borrower (capacity above its static split) whose decay clock
    /// ([`quota_used`](Self::quota_used)) has fallen at least
    /// `num_shards` global evictions behind — it never filled up for a
    /// whole cycle while the rest of the pool was under replacement
    /// pressure — returns one page of its *free* headroom per cycle to
    /// a shard below its static quota. Quota is fungible, so the page
    /// goes to the currently most-shorted lender reachable without
    /// blocking, not necessarily the original donor.
    ///
    /// Locking: the borrower and the lender are both probed with
    /// `try_lock` (never blocking, so this cannot deadlock with
    /// thieves or other decayers), and **both guards are held across
    /// the transfer** — any observer summing
    /// [`shard_capacity`](ShardedPool::shard_capacity) blocks on one
    /// of them until the `-1`/`+1` pair lands, so the per-shard
    /// capacities sum to the global budget at every observable point
    /// (the conservation invariant). The borrower shrinks within free
    /// headroom, so the decay never evicts anything.
    ///
    /// Called from the insert path with no shard lock held; at most one
    /// page moves per call.
    fn decay_idle_quota(&self) {
        if !self.adaptive.load(Ordering::Acquire) {
            return;
        }
        let n = self.shards.len();
        let capacity = self.capacity();
        let now = self.evictions.load(Ordering::Relaxed);
        let cycle = n as u64;
        for i in 0..n {
            // Cheap unsynchronized pre-check before touching any lock.
            if now.saturating_sub(self.quota_used[i].load(Ordering::Relaxed)) < cycle {
                continue;
            }
            let Some(mut borrower) = self.shards[i].try_acquire() else {
                continue;
            };
            let cap = borrower.capacity();
            if cap <= quota(capacity, n, i) || borrower.len() >= cap {
                continue; // not a borrower, or its headroom is in use
            }
            for step in 1..n {
                let j = (i + step) % n;
                let Some(mut lender) = self.shards[j].try_acquire() else {
                    continue;
                };
                if lender.capacity() >= quota(capacity, n, j) {
                    continue; // not short of its static split
                }
                let grown = lender.capacity() + 1;
                lender.set_capacity(grown);
                let ev = borrower.set_capacity(cap - 1);
                debug_assert!(ev.is_empty(), "borrower shrink within free headroom");
                // One page per cycle: restart the borrower's clock.
                self.quota_used[i].store(now, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Lock every shard in ascending index order (stop-the-world ops;
    /// the one blocking multi-shard pattern the hierarchy allows).
    fn lock_all(&self) -> Vec<DepGuard<'_, LruBuffer>> {
        self.shards.iter().map(|s| s.acquire()).collect()
    }

    /// Charge the writebacks of dirty evictions (clean evictions are
    /// free), exactly like the single-lock pool. Every evicted page
    /// also ticks the global eviction counter driving the
    /// adaptive-quota decay clock.
    fn charge_evictions(&self, evicted: Evictions) {
        if evicted.count > 0 {
            self.evictions.fetch_add(evicted.count, Ordering::Relaxed);
        }
        for page in evicted.dirty {
            self.disk
                .charge(IoKind::Write, PageRun::new(page, 1), false);
        }
    }

    /// Insert into the page's shard, charging dirty evictions. Under
    /// adaptive quotas a full shard first tries to steal headroom so
    /// the insert doesn't evict.
    fn insert_charged(&self, page: PageId, dirty: bool) {
        let index = self.shard_of(&page);
        let ev = {
            let mut shard = self.shard_at(index);
            if !shard.contains(&page) {
                self.grow_if_adaptive(index, &mut shard);
            }
            Evictions::of_insert(&mut shard, page, dirty)
        };
        self.charge_evictions(ev);
        self.decay_idle_quota();
    }

    /// Read a single page. Returns `true` on a buffer hit.
    pub fn read_page(&self, page: PageId) -> bool {
        if self.shard(&page).touch(&page) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.disk.charge(IoKind::Read, PageRun::new(page, 1), false);
        self.insert_charged(page, false);
        false
    }

    /// Blind single-page write: the page is (re)written without being
    /// read first — e.g. appending records to a fresh page. In
    /// write-back mode the page is buffered dirty and the physical write
    /// happens on eviction or flush; in write-through mode the write is
    /// charged immediately.
    pub fn write_page(&self, page: PageId) {
        if self.capacity() == 0 || self.write_through() {
            self.disk
                .charge(IoKind::Write, PageRun::new(page, 1), false);
            if self.capacity() > 0 {
                self.insert_charged(page, false);
            }
            return;
        }
        self.insert_charged(page, true);
    }

    /// Read-modify-write of a single page: charged read on miss, then
    /// marked dirty (write-back) or written immediately (write-through).
    /// Returns `true` on a buffer hit.
    ///
    /// The whole read-modify-write holds the page's shard lock: were the
    /// dirty flag set under a second acquisition, a concurrent eviction
    /// in between would drop the page while still clean and the deferred
    /// writeback would never be charged.
    pub fn update_page(&self, page: PageId) -> bool {
        if self.capacity() == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.disk.charge(IoKind::Read, PageRun::new(page, 1), false);
            self.disk
                .charge(IoKind::Write, PageRun::new(page, 1), false);
            return false;
        }
        let index = self.shard_of(&page);
        let mut shard = self.shard_at(index);
        let hit = shard.touch(&page);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.disk.charge(IoKind::Read, PageRun::new(page, 1), false);
            self.grow_if_adaptive(index, &mut shard);
            let ev = Evictions::of_insert(&mut shard, page, false);
            self.charge_evictions(ev);
        }
        if self.write_through() {
            self.disk
                .charge(IoKind::Write, PageRun::new(page, 1), false);
        } else {
            shard.mark_dirty(&page);
        }
        hit
    }

    /// Shared body of [`read_set`](ShardedPool::read_set) and
    /// [`read_run`](ShardedPool::read_run).
    fn read_pages(&self, pages: impl IntoIterator<Item = PageId>, seek: SeekPolicy) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        let mut missing = MISSING.take();
        for p in pages {
            if self.shard(&p).touch(&p) {
                out.buffer_hits += 1;
            } else {
                missing.push(p);
            }
        }
        self.hits.fetch_add(out.buffer_hits, Ordering::Relaxed);
        self.misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        for run in runs(&missing) {
            self.disk
                .charge(IoKind::Read, run, seek.skip_seek(out.requests));
            out.requests += 1;
            out.pages_transferred += run.len;
        }
        for p in missing.drain(..) {
            self.insert_charged(p, false);
        }
        MISSING.set(missing);
        out
    }

    /// Read a set of pages (sorted, deduplicated). Missing pages are
    /// grouped into maximal consecutive runs, each one request, charged
    /// according to the [`SeekPolicy`].
    pub fn read_set(&self, pages: &[PageId], seek: SeekPolicy) -> ReadOutcome {
        self.read_pages(pages.iter().copied(), seek)
    }

    /// [`read_set`](ShardedPool::read_set) over the pages of one run —
    /// an object's extent — without materializing them.
    pub fn read_run(&self, run: PageRun, seek: SeekPolicy) -> ReadOutcome {
        self.read_pages(run.pages(), seek)
    }

    /// Insert pages without charging I/O, pinned against eviction.
    ///
    /// Models the standard assumption that the index directory is
    /// memory-resident during query processing; the experiments warm the
    /// directory pages this way so that only data-page and object I/O is
    /// measured, as the paper does.
    ///
    /// A shard never pins past its quota: when every resident page of
    /// the target shard is already pinned, inserting another pinned
    /// page would overflow the global capacity budget for the life of
    /// the warm set, so the page is dropped instead (it will be read on
    /// demand). Unreachable with one shard for warm sets within the
    /// budget.
    pub fn warm_pinned(&self, pages: impl IntoIterator<Item = PageId>) {
        for p in pages {
            let ev = {
                let mut shard = self.shard(&p);
                let quota = shard.capacity();
                let ev = Evictions::of_insert(&mut shard, p, false);
                if shard.len() > quota {
                    // Eviction failed (everything pinned): revert the
                    // insert rather than exceed the budget.
                    shard.remove(&p);
                } else {
                    shard.pin(&p);
                }
                ev
            };
            self.charge_evictions(ev);
        }
    }

    /// Drop all buffered pages of the given regions without writing
    /// anything (per-query cold-start for object pages while the tree
    /// stays warm). Pinned pages are dropped too.
    pub fn invalidate_regions(&self, regions: &[RegionId]) {
        for shard in self.shards.iter() {
            let mut buf = shard.acquire();
            let victims: Vec<PageId> = buf
                .pages()
                .filter(|p| regions.contains(&p.region))
                .collect();
            for p in victims {
                buf.remove(&p);
            }
        }
    }

    /// Read a complete extent (cluster unit) with one request, regardless
    /// of how many of its pages are already buffered — the *complete*
    /// technique of §5.4. All pages enter the buffer.
    ///
    /// The caller should skip the call entirely when every *needed* page
    /// is buffered; once any disk access is required, the whole unit is
    /// transferred in one request.
    pub fn read_full_extent(&self, extent: PageRun) -> ReadOutcome {
        self.disk.charge(IoKind::Read, extent, false);
        let mut out = ReadOutcome {
            requests: 1,
            pages_transferred: extent.len,
            buffer_hits: 0,
        };
        if self.capacity() == 0 {
            self.misses.fetch_add(extent.len, Ordering::Relaxed);
            return out;
        }
        for p in extent.pages() {
            let already = {
                let mut shard = self.shard(&p);
                shard.touch(&p)
            };
            if already {
                out.buffer_hits += 1;
            } else {
                self.insert_charged(p, false);
            }
        }
        self.hits.fetch_add(out.buffer_hits, Ordering::Relaxed);
        self.misses
            .fetch_add(extent.len - out.buffer_hits, Ordering::Relaxed);
        out
    }

    /// Read the requested page offsets of `extent` with an SLM schedule
    /// bridging gaps of up to `max_gap` pages (§5.4.2). Already-buffered
    /// pages are excluded from the schedule. `mode` decides whether
    /// bridged pages enter the buffer (Figure 15). The first issued
    /// request pays the seek iff `initial_seek`.
    pub fn read_extent_slm(
        &self,
        extent: PageRun,
        requested_offsets: &[u64],
        max_gap: u64,
        mode: ReadMode,
        initial_seek: bool,
    ) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        let mut missing = Vec::with_capacity(requested_offsets.len());
        for &o in requested_offsets {
            debug_assert!(o < extent.len, "offset {o} outside extent");
            let p = extent.page(o);
            if self.shard(&p).touch(&p) {
                out.buffer_hits += 1;
            } else {
                missing.push(o);
            }
        }
        self.hits.fetch_add(out.buffer_hits, Ordering::Relaxed);
        self.misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        let schedule: Vec<ScheduledRun> = slm_schedule(&missing, max_gap);
        for (i, run) in schedule.iter().enumerate() {
            let skip = !(initial_seek && i == 0);
            let page_run = PageRun::new(extent.page(run.start), run.len);
            self.disk.charge(IoKind::Read, page_run, skip);
            out.requests += 1;
            out.pages_transferred += run.len;
            if self.capacity() == 0 {
                continue;
            }
            for off in run.start..run.start + run.len {
                let requested = missing.binary_search(&off).is_ok();
                if mode == ReadMode::Vector && !requested {
                    continue;
                }
                let p = extent.page(off);
                let index = self.shard_of(&p);
                let mut shard = self.shard_at(index);
                if !shard.contains(&p) {
                    self.grow_if_adaptive(index, &mut shard);
                    let ev = Evictions::of_insert(&mut shard, p, false);
                    drop(shard);
                    self.charge_evictions(ev);
                } else {
                    shard.touch(&p);
                }
            }
        }
        out
    }

    /// Bulk sequential write of a fresh extent, bypassing the buffer.
    /// Buffered copies of the extent's pages are evicted — the write
    /// replaced their contents, so keeping them would let later reads
    /// hit on stale data (their dirty flags are superseded by this
    /// write, not written back).
    pub fn write_extent(&self, extent: PageRun) {
        self.disk.charge(IoKind::Write, extent, false);
        for p in extent.pages() {
            self.shard(&p).remove(&p);
        }
    }

    /// Insert a page as clean without charging a read (the *optimum*
    /// baselines account their transfers via
    /// [`Disk::charge_raw`](crate::disk::Disk::charge_raw)); dirty
    /// evictions are still charged.
    pub fn insert_clean(&self, page: PageId) {
        self.insert_charged(page, false);
    }

    /// Touch a page (move to MRU) without any accounting. Returns
    /// `true` if it was buffered.
    pub fn touch_page(&self, page: &PageId) -> bool {
        self.shard(page).touch(page)
    }

    /// `true` if the page is currently buffered.
    pub fn contains_page(&self, page: &PageId) -> bool {
        self.shard(page).contains(page)
    }

    /// Remove a page from the buffer without any accounting (node
    /// releases, extents being freed), returning its dirty flag.
    pub fn remove_page(&self, page: &PageId) -> Option<bool> {
        self.shard(page).remove(page)
    }

    /// Number of buffered pages across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.acquire().len()).sum()
    }

    /// `true` if no page is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All dirty pages across all shards, sorted by address.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let guards = self.lock_all();
        let mut dirty: Vec<PageId> = guards.iter().flat_map(|g| g.dirty_pages()).collect();
        dirty.sort_unstable();
        dirty
    }

    /// Write back all dirty pages, grouped into maximal consecutive
    /// runs across the *global* sorted dirty set — byte-identical run
    /// formation to the single-lock pool at any shard count.
    pub fn flush(&self) {
        let mut guards = self.lock_all();
        self.flush_locked(&mut guards);
    }

    fn flush_locked(&self, guards: &mut [DepGuard<'_, LruBuffer>]) {
        let mut dirty: Vec<PageId> = guards.iter().flat_map(|g| g.dirty_pages()).collect();
        dirty.sort_unstable();
        for run in runs_of(&dirty) {
            self.disk.charge(IoKind::Write, run, false);
        }
        for p in dirty {
            guards[self.shard_of(&p)].clear_dirty(&p);
        }
    }

    /// Drop every buffered page (experiment boundary where the buffer
    /// must start cold), **writing back dirty pages first** — dropping
    /// them silently would deflate the experiment's write counts by the
    /// deferred writebacks the workload actually incurred.
    pub fn invalidate_all(&self) {
        let cap = self.capacity();
        let mut guards = self.lock_all();
        self.flush_locked(&mut guards);
        let n = guards.len();
        for (i, g) in guards.iter_mut().enumerate() {
            **g = LruBuffer::new(quota(cap, n, i));
        }
    }

    /// Replace the buffer with an empty one of `capacity` total pages,
    /// rebalancing the per-shard quotas (the buffer-size sweeps of
    /// Figures 14 and 16 resize between runs). Dirty pages are written
    /// back first, like [`invalidate_all`](ShardedPool::invalidate_all).
    pub fn reset(&self, capacity: usize) {
        let mut guards = self.lock_all();
        self.flush_locked(&mut guards);
        self.capacity.store(capacity, Ordering::Release);
        let n = guards.len();
        for (i, g) in guards.iter_mut().enumerate() {
            **g = LruBuffer::new(quota(capacity, n, i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::reference::BufferPool;
    use crate::disk::Disk;

    fn pg(r: u16, o: u64) -> PageId {
        PageId::new(RegionId(r), o)
    }

    use crate::test_util::Rng;

    #[test]
    fn quotas_conserve_capacity() {
        for cap in [0usize, 1, 7, 64, 1000] {
            for n in [1usize, 2, 3, 4, 8, 16] {
                let total: usize = (0..n).map(|i| quota(cap, n, i)).sum();
                assert_eq!(total, cap, "capacity {cap} over {n} shards");
                let pool = ShardedPool::with_shards(Disk::with_defaults(), cap, n);
                let total: usize = (0..n).map(|i| pool.shard_capacity(i)).sum();
                assert_eq!(total, cap);
            }
        }
    }

    /// The adaptive-quota conservation invariant: a hot shard borrows
    /// free headroom from cold shards, and the per-shard capacities
    /// still sum to the global budget at every rest point.
    #[test]
    fn adaptive_quotas_conserve_capacity() {
        let pool = ShardedPool::with_routing(Disk::with_defaults(), 64, 8, Routing::ByRegion);
        pool.set_adaptive(true);
        let n = pool.num_shards();
        let static_quota = pool.shard_capacity(0);
        assert_eq!(static_quota, 8);
        // Touch every region lightly: each shard holds a couple of cold
        // pages, far below its quota.
        for r in 0..8u16 {
            for o in 0..2u64 {
                pool.read_page(pg(r, o));
            }
        }
        // Hammer one region: under ByRegion routing all its pages land
        // on one shard, which must outgrow its static quota by stealing
        // headroom instead of thrashing its own LRU.
        let hot = pg(0, 0);
        let hot_shard = pool.shard_of(&hot);
        for o in 0..48u64 {
            pool.read_page(pg(0, o));
        }
        let caps: Vec<usize> = (0..n).map(|i| pool.shard_capacity(i)).collect();
        assert_eq!(
            caps.iter().sum::<usize>(),
            pool.capacity(),
            "capacities must sum to the budget: {caps:?}"
        );
        assert!(
            caps[hot_shard] > static_quota,
            "hot shard never borrowed: {caps:?}"
        );
        assert!(caps.iter().all(|&c| c >= 1), "a donor fell below the floor");
        assert!(pool.len() <= pool.capacity());
        // Re-reading the hot region now hits: the borrowed headroom
        // actually widened the hot shard's LRU horizon.
        let misses_before = pool.misses();
        for o in 0..48u64 {
            pool.read_page(pg(0, o));
        }
        assert_eq!(pool.misses(), misses_before, "hot set no longer resident");
        // Reset restores the static split.
        pool.reset(64);
        for i in 0..n {
            assert_eq!(pool.shard_capacity(i), quota(64, n, i));
        }
    }

    /// Concurrent thieves: adaptive borrowing from many threads keeps
    /// the budget conserved and never overflows total occupancy.
    #[test]
    fn adaptive_quotas_survive_concurrent_borrowing() {
        let pool = std::sync::Arc::new(ShardedPool::with_routing(
            Disk::with_defaults(),
            96,
            8,
            Routing::ByRegion,
        ));
        pool.set_adaptive(true);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    let mut rng = Rng(0xADA7_0000 + t as u64 + 1);
                    for _ in 0..2000 {
                        let r = rng.below(8) as u16;
                        pool.read_page(pg(r, rng.below(40)));
                    }
                });
            }
        });
        let n = pool.num_shards();
        let caps: Vec<usize> = (0..n).map(|i| pool.shard_capacity(i)).collect();
        assert_eq!(caps.iter().sum::<usize>(), pool.capacity(), "{caps:?}");
        assert!(pool.len() <= pool.capacity());
        assert_eq!(pool.hits() + pool.misses(), 4 * 2000);
    }

    /// With the feature off (the default) nothing moves: the quotas
    /// stay on the static split whatever the workload.
    #[test]
    fn adaptive_off_keeps_static_quotas() {
        let pool = ShardedPool::with_routing(Disk::with_defaults(), 64, 8, Routing::ByRegion);
        for o in 0..200u64 {
            pool.read_page(pg(0, o));
        }
        for i in 0..pool.num_shards() {
            assert_eq!(pool.shard_capacity(i), quota(64, 8, i));
        }
    }

    /// The correctness anchor of the refactor: a 1-shard pool mirrors
    /// the single-lock [`BufferPool`] byte-for-byte — identical disk
    /// stats after every operation of a randomized op sequence.
    #[test]
    fn one_shard_mirrors_buffer_pool() {
        let disk_a = Disk::with_defaults();
        let disk_b = Disk::with_defaults();
        let ra = disk_a.create_region("mirror");
        let rb = disk_b.create_region("mirror");
        assert_eq!(ra, rb);
        let mut reference = BufferPool::new(disk_a.clone(), 16);
        let sharded = ShardedPool::new(disk_b.clone(), 16);
        let mut rng = Rng(0x1994_1994_1994_1994);
        for step in 0..4000u32 {
            let page = pg(0, rng.below(64));
            match rng.below(10) {
                0..=2 => {
                    assert_eq!(
                        reference.read_page(page),
                        sharded.read_page(page),
                        "step {step}"
                    );
                }
                3 => {
                    reference.write_page(page);
                    sharded.write_page(page);
                }
                4 => {
                    assert_eq!(
                        reference.update_page(page),
                        sharded.update_page(page),
                        "step {step}"
                    );
                }
                5 => {
                    let mut pages: Vec<PageId> =
                        (0..rng.below(6)).map(|_| pg(0, rng.below(64))).collect();
                    pages.sort_unstable();
                    pages.dedup();
                    let seek = if rng.below(2) == 0 {
                        SeekPolicy::PerRequest
                    } else {
                        SeekPolicy::WithinCluster { initial_seek: true }
                    };
                    assert_eq!(
                        reference.read_set(&pages, seek),
                        sharded.read_set(&pages, seek),
                        "step {step}"
                    );
                }
                6 => {
                    let extent = PageRun::new(pg(0, rng.below(48)), 1 + rng.below(12));
                    assert_eq!(
                        reference.read_full_extent(extent),
                        sharded.read_full_extent(extent),
                        "step {step}"
                    );
                }
                7 => {
                    let extent = PageRun::new(pg(0, rng.below(40)), 16);
                    let mut offsets: Vec<u64> = (0..1 + rng.below(5))
                        .map(|_| rng.below(extent.len))
                        .collect();
                    offsets.sort_unstable();
                    offsets.dedup();
                    let mode = if rng.below(2) == 0 {
                        ReadMode::Normal
                    } else {
                        ReadMode::Vector
                    };
                    assert_eq!(
                        reference.read_extent_slm(extent, &offsets, 2, mode, true),
                        sharded.read_extent_slm(extent, &offsets, 2, mode, true),
                        "step {step}"
                    );
                }
                8 => {
                    let extent = PageRun::new(pg(0, rng.below(56)), 1 + rng.below(8));
                    reference.write_extent(extent);
                    sharded.write_extent(extent);
                }
                _ => match rng.below(4) {
                    0 => {
                        reference.flush();
                        sharded.flush();
                    }
                    1 => {
                        reference.invalidate_all();
                        sharded.invalidate_all();
                    }
                    2 => {
                        let cap = rng.below(24) as usize;
                        reference.reset(cap);
                        sharded.reset(cap);
                    }
                    _ => {
                        let on = rng.below(2) == 0;
                        reference.set_write_through(on);
                        sharded.set_write_through(on);
                    }
                },
            }
            assert_eq!(
                disk_a.stats(),
                disk_b.stats(),
                "stats diverged after step {step}"
            );
            assert_eq!(reference.buffer().len(), sharded.len(), "step {step}");
        }
        // The sequence exercised real I/O, not a no-op loop.
        assert!(disk_a.stats().requests() > 1000);
    }

    #[test]
    fn shards_partition_pages_and_respect_budget() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("data");
        let pool = ShardedPool::with_shards(disk.clone(), 32, 4);
        assert_eq!(pool.num_shards(), 4);
        // Insert far more pages than the budget: the pool never holds
        // more than its total capacity.
        for o in 0..400u64 {
            pool.read_page(PageId::new(r, o));
        }
        assert!(pool.len() <= 32, "len {} over budget", pool.len());
        // Every access was classified exactly once.
        assert_eq!(pool.hits() + pool.misses(), 400);
        // Resize rebalances the quotas under the new budget.
        pool.reset(13);
        let total: usize = (0..4).map(|i| pool.shard_capacity(i)).sum();
        assert_eq!(total, 13);
        for o in 0..100u64 {
            pool.read_page(PageId::new(r, o));
        }
        assert!(pool.len() <= 13);
    }

    #[test]
    fn sharded_flush_groups_runs_globally() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("data");
        let pool = ShardedPool::with_shards(disk.clone(), 64, 4);
        // Consecutive dirty pages land in different shards; the flush
        // must still form one run per consecutive group.
        for o in [0u64, 1, 2, 3, 10, 11] {
            pool.write_page(PageId::new(r, o));
        }
        pool.flush();
        let s = disk.stats();
        assert_eq!(s.write_requests, 2); // runs [0..4] and [10..12]
        assert_eq!(s.pages_written, 6);
        disk.reset_stats();
        pool.flush();
        assert_eq!(disk.stats().requests(), 0);
    }

    #[test]
    fn sharded_invalidate_and_reset_charge_dirty_writebacks() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("data");
        let pool = ShardedPool::with_shards(disk.clone(), 64, 4);
        pool.write_page(PageId::new(r, 0));
        pool.write_page(PageId::new(r, 7));
        disk.reset_stats();
        pool.invalidate_all();
        assert_eq!(disk.stats().pages_written, 2);
        assert_eq!(pool.len(), 0);
        pool.write_page(PageId::new(r, 3));
        disk.reset_stats();
        pool.reset(32);
        assert_eq!(disk.stats().pages_written, 1);
        assert_eq!(pool.capacity(), 32);
    }

    #[test]
    fn warm_pinned_never_overflows_the_budget() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("dir");
        // Tiny quotas (2 pages/shard): the page hash necessarily lands
        // more than a quota's worth of warm pages in some shard.
        let pool = ShardedPool::with_shards(disk.clone(), 16, 8);
        pool.warm_pinned((0..64).map(|o| PageId::new(r, o)));
        assert!(
            pool.len() <= 16,
            "pinned warm set overflowed the budget: {} pages",
            pool.len()
        );
        // With one shard the warm set fits (budget >= set size) and is
        // fully resident — the single-lock pool's behaviour.
        let pool1 = ShardedPool::new(disk.clone(), 16);
        pool1.warm_pinned((0..8).map(|o| PageId::new(r, o)));
        assert_eq!(pool1.len(), 8);
        for o in 0..8 {
            assert!(pool1.contains_page(&PageId::new(r, o)));
        }
    }

    /// Concurrency invariant behind the single-lock-hold `update_page`:
    /// every page that was ever updated in write-back mode is dirty
    /// until a charged eviction or flush, so the final write count
    /// covers every distinct page — a lost dirty flag (the page evicted
    /// clean between touch and mark) would deflate it.
    #[test]
    fn concurrent_updates_never_lose_writebacks() {
        let distinct_pages = 48u64;
        let disk = Disk::with_defaults();
        let r = disk.create_region("data");
        // Small budget: constant eviction pressure across the shards.
        let pool = std::sync::Arc::new(ShardedPool::with_shards(disk.clone(), 16, 4));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for i in 0..4000u64 {
                        pool.update_page(PageId::new(r, (t * 13 + i) % distinct_pages));
                    }
                });
            }
        });
        pool.flush();
        assert!(
            disk.stats().pages_written >= distinct_pages,
            "lost writebacks: {} pages written for {distinct_pages} dirtied pages",
            disk.stats().pages_written
        );
    }

    #[test]
    fn concurrent_readers_share_the_pool() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("data");
        // 2x capacity slack: the page hash spreads the 256-page working
        // set unevenly, and no shard quota may overflow for the warm
        // set to stay fully resident.
        let pool = std::sync::Arc::new(ShardedPool::with_shards(disk.clone(), 512, 8));
        // Warm every page, then hammer hits from many threads.
        for o in 0..256u64 {
            pool.read_page(PageId::new(r, o));
        }
        let before = disk.stats();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for i in 0..2000u64 {
                        let page = PageId::new(r, (t * 97 + i) % 256);
                        assert!(pool.read_page(page), "warm page must hit");
                    }
                });
            }
        });
        // All hits: no further disk requests.
        assert_eq!(disk.stats(), before);
        assert_eq!(pool.hits(), 8 * 2000);
        assert_eq!(pool.misses(), 256);
    }

    #[test]
    fn region_routing_gives_each_region_one_shard() {
        let disk = Disk::with_defaults();
        for r in 0..8u16 {
            disk.create_region("r");
            let _ = r;
        }
        let pool = ShardedPool::with_routing(disk.clone(), 64, 8, Routing::ByRegion);
        assert_eq!(pool.routing(), Routing::ByRegion);
        let mut used = std::collections::HashSet::new();
        for r in 0..8u16 {
            let home = pool.shard_of(&pg(r, 0));
            for o in 1..200u64 {
                assert_eq!(
                    pool.shard_of(&pg(r, o)),
                    home,
                    "region {r} split across shards"
                );
            }
            used.insert(home);
        }
        // The region hash spreads distinct regions over several shards.
        assert!(used.len() > 2, "all regions collapsed onto {used:?}");
        // ByPage spreads one region's pages over many shards.
        let by_page = ShardedPool::with_shards(disk, 64, 8);
        assert_eq!(by_page.routing(), Routing::ByPage);
        let spread: std::collections::HashSet<usize> =
            (0..200u64).map(|o| by_page.shard_of(&pg(0, o))).collect();
        assert!(spread.len() > 2);
    }

    #[test]
    fn routing_preserves_stats_for_fixed_sequence() {
        // Same deterministic access sequence under both routings:
        // hit/miss totals are conserved and, with the working set within
        // every quota, the charged stats are identical.
        let run = |routing| {
            let disk = Disk::with_defaults();
            let regions: Vec<_> = (0..4).map(|_| disk.create_region("r")).collect();
            let pool = ShardedPool::with_routing(disk.clone(), 512, 4, routing);
            for pass in 0..3u64 {
                for &r in &regions {
                    for o in 0..32u64 {
                        pool.read_page(PageId::new(r, (o * 7 + pass) % 40));
                    }
                }
            }
            (pool.hits() + pool.misses(), disk.stats())
        };
        let (total_a, stats_a) = run(Routing::ByPage);
        let (total_b, stats_b) = run(Routing::ByRegion);
        assert_eq!(total_a, total_b);
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn sharded_pool_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedPool>();
    }

    /// Adaptive-quota decay: stolen quota left idle for a full
    /// eviction cycle flows back to a shard below its static split —
    /// while quota in active use never decays — and the per-shard
    /// capacities sum to the budget at every observable point.
    #[test]
    fn adaptive_quota_decay_returns_idle_quota() {
        let pool = ShardedPool::with_routing(Disk::with_defaults(), 8, 2, Routing::ByRegion);
        pool.set_adaptive(true);
        let sum = |p: &ShardedPool| (0..2).map(|i| p.shard_capacity(i)).sum::<usize>();
        // Probe two regions hashing to distinct shards.
        let a = (0..64u16).find(|r| pool.shard_of(&pg(*r, 0)) == 0).unwrap();
        let b = (0..64u16).find(|r| pool.shard_of(&pg(*r, 0)) == 1).unwrap();
        // Shard 0 borrows beyond its static half (4 pages).
        for o in 0..6 {
            pool.read_page(pg(a, o));
            assert_eq!(sum(&pool), 8, "conservation while borrowing");
        }
        assert_eq!(pool.shard_capacity(0), 6, "borrowed two pages");
        assert_eq!(pool.shard_capacity(1), 2);
        // Shard 1 churns through its shrunken quota: shard 0 is full,
        // so nothing can be stolen back and every insert evicts — the
        // decay clock advances well past one cycle, but the borrowed
        // quota is in active use, so nothing decays.
        for o in 0..6 {
            pool.read_page(pg(b, o));
            assert_eq!(sum(&pool), 8, "conservation under eviction pressure");
        }
        assert_eq!(pool.shard_capacity(0), 6, "in-use quota does not decay");
        // The borrowed headroom falls idle...
        assert_eq!(pool.remove_page(&pg(a, 0)), Some(false));
        assert_eq!(pool.remove_page(&pg(a, 1)), Some(false));
        // ...and the next insert returns it: one page stolen back by
        // the full shard plus one page decayed to the shorted lender
        // restore the static split.
        pool.read_page(pg(b, 6));
        assert_eq!(pool.shard_capacity(0), 4, "idle quota returned");
        assert_eq!(pool.shard_capacity(1), 4);
        assert_eq!(sum(&pool), 8);
    }
}
