//! The sharded buffer pool: N page-hash shards, each with its own lock
//! and LRU state, under one global capacity budget.
//!
//! Behind a single lock every concurrent page access serializes.
//! [`ShardedPool`] splits the *replacement state* by page hash so that
//! readers touching disjoint pages contend only on their shard's lock,
//! while the disk accounting stays global.
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
//! * **N shards**: the capacity budget is split into fixed per-shard
//!   quotas (rebalanced on [`reset`](ShardedPool::reset)), so the total
//!   buffered pages never exceed the budget, and every page access is
//!   still classified hit-or-miss exactly once — but *which* accesses
//!   hit depends on the per-shard LRU horizon, so `io_ms` may differ
//!   from the 1-shard figure. Each shard behaves exactly like a
//!   single-lock pool of its quota over the pages that hash to it
//!   (asserted by the N-shard mirror test below). Every shard keeps at
//!   least one page, so a nonzero budget smaller than the shard count
//!   is rejected. Use N > 1 for concurrent-throughput workloads, 1
//!   shard to reproduce the paper.
//!
//! Lock discipline: an operation holds at most one shard lock at a
//! time, except the stop-the-world operations ([`flush`](ShardedPool::flush),
//! [`invalidate_all`](ShardedPool::invalidate_all),
//! [`reset`](ShardedPool::reset), [`dirty_pages`](ShardedPool::dirty_pages)),
//! which acquire all shard locks in ascending index order. The disk's
//! counter mutex is only ever taken *under* shard locks, never the
//! reverse. This ordering is acyclic, so the pool cannot deadlock; it
//! is machine-checked in debug builds by [`lockdep`](crate::lockdep)
//! (each shard is [`LockClass::Shard`]`(i)`).

use crate::buffer::{LruBuffer, ReadOutcome, SeekPolicy, TransferTechnique};
use crate::disk::DiskHandle;
use crate::lockdep::{DepGuard, DepMutex, LockClass};
use crate::model::{runs, runs_of, PageId, PageRun, RegionId};
use crate::schedule::{slm_gap_limit, slm_schedule};
use crate::stats::IoKind;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

thread_local! {
    /// The calling thread's miss list, taken for the duration of a
    /// [`ShardedPool::read_set`] call and put back empty for the next.
    static MISSING: RefCell<Vec<PageId>> = const { RefCell::new(Vec::new()) };
}

/// Insert `page` into `shard` (touching it if resident), returning the
/// dirty victims that await their write-back charge. Clean victims cost
/// nothing, so a read miss on a full pool allocates nothing.
fn insert_evicting(shard: &mut LruBuffer, page: PageId, dirty: bool) -> Vec<PageId> {
    let mut dirty_victims = Vec::new();
    shard.insert_with(page, dirty, |victim, was_dirty| {
        if was_dirty {
            dirty_victims.push(victim);
        }
    });
    dirty_victims
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
}

/// Per-shard quota of a `capacity`-page budget split `n` ways: the
/// first `capacity % n` shards take the remainder pages.
fn quota(capacity: usize, n: usize, shard: usize) -> usize {
    capacity / n + usize::from(shard < capacity % n)
}

/// A shard with quota 0 retains nothing, so its dirty inserts would
/// vanish uncharged: a nonzero budget must give every shard a page.
/// (A zero budget is the unbuffered pool, which writes through.)
fn assert_every_shard_gets_a_page(capacity: usize, shards: usize) {
    assert!(
        capacity == 0 || capacity >= shards,
        "a {capacity}-page budget cannot give each of {shards} shards a page"
    );
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
    ///
    /// # Panics
    ///
    /// Panics if `0 < capacity < shards`: some shard would get no page.
    pub fn with_shards(disk: DiskHandle, capacity: usize, shards: usize) -> Self {
        let n = shards.max(1);
        assert_every_shard_gets_a_page(capacity, n);
        let shards: Vec<DepMutex<LruBuffer>> = (0..n)
            .map(|i| DepMutex::new(LockClass::Shard(i), LruBuffer::new(quota(capacity, n, i))))
            .collect();
        ShardedPool {
            disk,
            shards: shards.into_boxed_slice(),
            capacity: AtomicUsize::new(capacity),
            write_through: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contended: AtomicU64::new(0),
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

    /// Capacity quota of one shard: the budget split evenly, the first
    /// `capacity % n` shards taking one remainder page each. The sum
    /// over all shards equals [`capacity`](ShardedPool::capacity).
    pub fn shard_capacity(&self, shard: usize) -> usize {
        self.shards[shard].acquire().capacity()
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

    /// Shard index of a page: a hash of the full page address
    /// (region, offset), so every region's pages spread across all
    /// shards (constant 0 for a 1-shard pool, so the single shard sees
    /// the exact global access order). Public for diagnostics.
    #[inline]
    pub fn shard_of(&self, page: &PageId) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let key = ((page.region.0 as u64) << 48) ^ page.offset;
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) as usize) % self.shards.len()
    }

    /// Lock the page's shard, counting the acquisition as contended if
    /// another thread holds it.
    #[inline]
    fn shard(&self, page: &PageId) -> DepGuard<'_, LruBuffer> {
        let mutex = &self.shards[self.shard_of(page)];
        match mutex.try_acquire() {
            Some(guard) => guard,
            None => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                mutex.acquire()
            }
        }
    }

    /// Lock every shard in ascending index order (stop-the-world ops;
    /// the one blocking multi-shard pattern the hierarchy allows).
    fn lock_all(&self) -> Vec<DepGuard<'_, LruBuffer>> {
        self.shards.iter().map(|s| s.acquire()).collect()
    }

    /// Charge the writebacks of dirty evictions (clean evictions are
    /// free), exactly like the single-lock pool.
    fn charge_evictions(&self, dirty_victims: Vec<PageId>) {
        for page in dirty_victims {
            self.disk
                .charge(IoKind::Write, PageRun::new(page, 1), false);
        }
    }

    /// Insert into the page's shard (touching it if resident), charging
    /// dirty evictions.
    fn insert_charged(&self, page: PageId, dirty: bool) {
        let ev = insert_evicting(&mut self.shard(&page), page, dirty);
        self.charge_evictions(ev);
    }

    /// Add one classification of `accesses` requested pages, `hits` of
    /// them served from the buffer.
    fn count(&self, hits: u64, accesses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(accesses - hits, Ordering::Relaxed);
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
        let mut shard = self.shard(&page);
        let hit = shard.touch(&page);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.disk.charge(IoKind::Read, PageRun::new(page, 1), false);
            let ev = insert_evicting(&mut shard, page, false);
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
                let ev = insert_evicting(&mut shard, p, false);
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

    /// Touch `pages` in order and count each as a hit if **every** one
    /// is buffered; otherwise do nothing. Returns whether they all were.
    ///
    /// The all-or-nothing probe of the *complete* technique (see
    /// [`read_extent`](ShardedPool::read_extent)), and the join's
    /// "object already buffered" shortcut in front of a unit read.
    pub fn touch_if_resident<I>(&self, pages: I) -> bool
    where
        I: IntoIterator<Item = PageId>,
        I::IntoIter: Clone,
    {
        let pages = pages.into_iter();
        if !pages.clone().all(|p| self.shard(&p).contains(&p)) {
            return false;
        }
        let mut touched = 0;
        for p in pages {
            self.shard(&p).touch(&p);
            touched += 1;
        }
        self.count(touched, touched);
        true
    }

    /// Read the `wanted` page offsets of `extent` — one cluster unit;
    /// the offsets sorted and deduplicated — with one of §6.2's transfer
    /// techniques. The one place a unit read is planned, charged and
    /// counted, for window queries (§5.4) and the join's object
    /// transfer alike:
    ///
    /// * [`Complete`](TransferTechnique::Complete): when every wanted
    ///   page is buffered, touch them in ascending order
    ///   ([`touch_if_resident`](ShardedPool::touch_if_resident));
    ///   otherwise transfer the whole extent with one request, and all
    ///   of its pages enter the buffer. The decision is all-or-nothing,
    ///   so the pages are probed before any is touched.
    /// * [`Read`](TransferTechnique::Read) /
    ///   [`VectorRead`](TransferTechnique::VectorRead): touch the wanted
    ///   pages while classifying them, then read the missing ones with
    ///   an \[SLM93\] schedule bridging gaps of up to
    ///   [`slm_gap_limit`] pages of the disk's parameters (§5.4.2). The
    ///   first request pays the seek, the later ones stay on the
    ///   unit's cylinder (§5.4.3). *Read* keeps every transferred page
    ///   in the buffer, *vector read* only the wanted ones (Figure 15).
    /// * [`Optimum`](TransferTechnique::Optimum): probe without
    ///   touching; one seek, one latency and one transfer per missing
    ///   wanted page, charged analytically
    ///   ([`Disk::charge_raw`](crate::disk::Disk::charge_raw), which no
    ///   trace captures), and the missing pages enter the buffer.
    ///
    /// Dirty evictions are charged as they happen. Each wanted page is
    /// classified hit or miss exactly once; a bridged page or a page of
    /// the unit nobody wanted is never counted.
    pub fn read_extent(
        &self,
        extent: PageRun,
        wanted: &[u64],
        technique: TransferTechnique,
    ) -> ReadOutcome {
        debug_assert!(
            wanted.windows(2).all(|w| w[0] < w[1]),
            "wanted offsets must be sorted and distinct"
        );
        let mut out = ReadOutcome::default();
        if technique == TransferTechnique::Complete {
            if self.touch_if_resident(wanted.iter().map(|&o| extent.page(o))) {
                out.buffer_hits = wanted.len() as u64;
                return out;
            }
            self.disk.charge(IoKind::Read, extent, false);
            out.requests = 1;
            out.pages_transferred = extent.len;
            let mut wanted_left = wanted.iter().copied().peekable();
            for (o, p) in (0..).zip(extent.pages()) {
                let hit = self.shard(&p).touch(&p);
                if !hit {
                    self.insert_charged(p, false);
                }
                if wanted_left.next_if_eq(&o).is_some() && hit {
                    out.buffer_hits += 1;
                }
            }
            self.count(out.buffer_hits, wanted.len() as u64);
            return out;
        }
        let mut missing = Vec::with_capacity(wanted.len());
        for &o in wanted {
            let p = extent.page(o);
            let mut shard = self.shard(&p);
            let resident = if technique == TransferTechnique::Optimum {
                shard.contains(&p)
            } else {
                shard.touch(&p)
            };
            if resident {
                out.buffer_hits += 1;
            } else {
                missing.push(o);
            }
        }
        self.count(out.buffer_hits, wanted.len() as u64);
        if technique == TransferTechnique::Optimum {
            if !missing.is_empty() {
                let params = self.disk.params();
                let k = missing.len() as u64;
                let cost = params.seek_ms + params.latency_ms + params.transfer_ms * k as f64;
                self.disk.charge_raw(IoKind::Read, k, cost, true);
                out.requests = 1;
                out.pages_transferred = k;
                for o in missing {
                    self.insert_charged(extent.page(o), false);
                }
            }
            return out;
        }
        let gap = slm_gap_limit(&self.disk.params());
        for run in slm_schedule(&missing, gap) {
            let page_run = PageRun::new(extent.page(run.start), run.len);
            self.disk.charge(IoKind::Read, page_run, out.requests > 0);
            out.requests += 1;
            out.pages_transferred += run.len;
            for off in run.start..run.start + run.len {
                if technique == TransferTechnique::VectorRead
                    && missing.binary_search(&off).is_err()
                {
                    continue;
                }
                self.insert_charged(extent.page(off), false);
            }
        }
        out
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
    ///
    /// # Panics
    ///
    /// Panics if `0 < capacity < num_shards()`: some shard would get no
    /// page.
    pub fn reset(&self, capacity: usize) {
        let n = self.shards.len();
        assert_every_shard_gets_a_page(capacity, n);
        let mut guards = self.lock_all();
        self.flush_locked(&mut guards);
        self.capacity.store(capacity, Ordering::Release);
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

    use spatialdb_geom::rng::SmallRng;

    #[test]
    fn quotas_conserve_capacity() {
        for cap in [0usize, 1, 7, 64, 1000] {
            for n in [1usize, 2, 3, 4, 8, 16] {
                let total: usize = (0..n).map(|i| quota(cap, n, i)).sum();
                assert_eq!(total, cap, "capacity {cap} over {n} shards");
                if cap > 0 && cap < n {
                    continue; // rejected: some shard would get no page
                }
                let pool = ShardedPool::with_shards(Disk::with_defaults(), cap, n);
                let total: usize = (0..n).map(|i| pool.shard_capacity(i)).sum();
                assert_eq!(total, cap);
            }
        }
    }

    /// A shard with quota 0 retains nothing, so a dirty insert into it
    /// vanished without its write ever being charged. A nonzero budget
    /// smaller than the shard count is refused, at construction and on
    /// reset.
    #[test]
    fn budget_below_shard_count_is_rejected() {
        let rejected = |f: fn()| std::thread::spawn(f).join().is_err();
        assert!(rejected(|| {
            ShardedPool::with_shards(Disk::with_defaults(), 4, 8);
        }));
        assert!(rejected(|| {
            ShardedPool::with_shards(Disk::with_defaults(), 64, 8).reset(3);
        }));
        // The floor itself, and the unbuffered pool, are fine: every
        // write is charged.
        for (cap, n) in [(8usize, 8usize), (0, 8)] {
            let disk = Disk::with_defaults();
            let r = disk.create_region("data");
            let pool = ShardedPool::with_shards(disk.clone(), cap, n);
            for o in 0..64u64 {
                pool.write_page(PageId::new(r, o));
            }
            pool.flush();
            assert_eq!(disk.stats().pages_written, 64, "{cap} pages, {n} shards");
        }
    }

    /// N shards are N independent single-lock pools sharing one disk:
    /// shard `i` is a [`BufferPool`] of `quota(cap, n, i)` pages over
    /// the pages [`shard_of`](ShardedPool::shard_of) sends it. Same
    /// return values, same disk stats after every operation, same
    /// occupancy per shard — which pins what each shard evicts.
    #[test]
    fn n_shards_mirror_independent_reference_pools() {
        for n in [2usize, 4, 8] {
            for cap in [8usize, 37] {
                let disk_a = Disk::with_defaults();
                let disk_b = Disk::with_defaults();
                let ra = disk_a.create_region("mirror");
                assert_eq!(ra, disk_b.create_region("mirror"));
                let mut reference: Vec<BufferPool> = (0..n)
                    .map(|i| BufferPool::new(disk_a.clone(), quota(cap, n, i)))
                    .collect();
                let sharded = ShardedPool::with_shards(disk_b.clone(), cap, n);
                let mut rng = SmallRng::seed_from_u64(0x1994_0025 + (n * 100 + cap) as u64);
                for step in 0..4000u32 {
                    let page = pg(0, rng.gen_range(0..96u64));
                    let pool = &mut reference[sharded.shard_of(&page)];
                    match rng.gen_range(0..10u64) {
                        0..=2 => assert_eq!(
                            pool.read_page(page),
                            sharded.read_page(page),
                            "{n} shards, {cap} pages, step {step}"
                        ),
                        3..=4 => {
                            pool.write_page(page);
                            sharded.write_page(page);
                        }
                        5..=6 => assert_eq!(
                            pool.update_page(page),
                            sharded.update_page(page),
                            "{n} shards, {cap} pages, step {step}"
                        ),
                        7..=8 => assert_eq!(
                            pool.remove_page(&page),
                            sharded.remove_page(&page),
                            "{n} shards, {cap} pages, step {step}"
                        ),
                        _ => {
                            let on = rng.gen_bool(0.5);
                            for pool in &mut reference {
                                pool.set_write_through(on);
                            }
                            sharded.set_write_through(on);
                        }
                    }
                    assert_eq!(
                        disk_a.stats(),
                        disk_b.stats(),
                        "{n} shards, {cap} pages: stats diverged after step {step}"
                    );
                    for (i, pool) in reference.iter().enumerate() {
                        assert_eq!(
                            pool.buffer().len(),
                            sharded.shards[i].acquire().len(),
                            "{n} shards, {cap} pages, shard {i}, step {step}"
                        );
                    }
                }
                // The sequence evicted dirty pages, not just read.
                assert!(
                    disk_a.stats().pages_written > 100,
                    "{n} shards, {cap} pages"
                );
            }
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
        let mut rng = SmallRng::seed_from_u64(0x1994_1994_1994_1994);
        let (mut unit_reads, mut all_resident) = ([0u32; 4], 0u32);
        for step in 0..4000u32 {
            let page = pg(0, rng.gen_range(0..64u64));
            match rng.gen_range(0..9u64) {
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
                    let mut pages: Vec<PageId> = (0..rng.gen_range(0..6u64))
                        .map(|_| pg(0, rng.gen_range(0..64u64)))
                        .collect();
                    pages.sort_unstable();
                    pages.dedup();
                    let seek = if rng.gen_bool(0.5) {
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
                6..=7 => {
                    let extent =
                        PageRun::new(pg(0, rng.gen_range(0..48u64)), 1 + rng.gen_range(0..16u64));
                    let wanted = random_offsets(&mut rng, extent.len);
                    let technique = TECHNIQUES[rng.gen_range(0..4u64) as usize];
                    reference.read_extent(extent, &wanted, technique);
                    let out = sharded.read_extent(extent, &wanted, technique);
                    unit_reads[technique as usize] += 1;
                    if technique == TransferTechnique::Complete && !out.issued_io() {
                        all_resident += 1;
                    }
                }
                _ => match rng.gen_range(0..4u64) {
                    0 => {
                        reference.flush();
                        sharded.flush();
                    }
                    1 => {
                        reference.invalidate_all();
                        sharded.invalidate_all();
                    }
                    2 => {
                        let cap = rng.gen_range(0..24u64) as usize;
                        reference.reset(cap);
                        sharded.reset(cap);
                    }
                    _ => {
                        let on = rng.gen_bool(0.5);
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
            let shard = sharded.shards[0].acquire();
            assert_eq!(reference.buffer().listed(), shard.listed(), "step {step}");
            assert_eq!(
                reference.buffer().dirty_pages(),
                shard.dirty_pages(),
                "step {step}"
            );
        }
        // The sequence exercised real I/O, not a no-op loop, and every
        // technique of the unit read, the all-resident *complete* path
        // included.
        assert!(disk_a.stats().requests() > 1000);
        assert!(unit_reads.iter().all(|&n| n > 50), "{unit_reads:?}");
        assert!(all_resident > 0);
    }

    const TECHNIQUES: [TransferTechnique; 4] = [
        TransferTechnique::Complete,
        TransferTechnique::VectorRead,
        TransferTechnique::Read,
        TransferTechnique::Optimum,
    ];

    /// One to five distinct offsets below `len`, sorted.
    fn random_offsets(rng: &mut SmallRng, len: u64) -> Vec<u64> {
        let mut offsets: Vec<u64> = (0..1 + rng.gen_range(0..5u64))
            .map(|_| rng.gen_range(0..len))
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        offsets
    }

    /// The counter contract of the unit read: one `read_extent` call
    /// adds exactly `wanted.len()` to `hits() + misses()` — whatever
    /// the technique, the residency, the budget and the shard count.
    /// Neither a bridged page nor the rest of a completely transferred
    /// unit is counted, and the buffer hits the call reports are the
    /// hits it counted.
    #[test]
    fn read_extent_classifies_each_wanted_page_once() {
        for shards in [1usize, 4] {
            for cap in [0usize, 24] {
                let disk = Disk::with_defaults();
                let r = disk.create_region("units");
                let pool = ShardedPool::with_shards(disk, cap, shards);
                let mut rng = SmallRng::seed_from_u64(0x1994_0035 + (shards * 100 + cap) as u64);
                for step in 0..3000u32 {
                    let at = format!("{shards} shards, {cap} pages, step {step}");
                    if rng.gen_bool(0.3) {
                        pool.read_page(PageId::new(r, rng.gen_range(0..64u64)));
                        continue;
                    }
                    let extent = PageRun::new(
                        PageId::new(r, rng.gen_range(0..48u64)),
                        1 + rng.gen_range(0..16u64),
                    );
                    let wanted = random_offsets(&mut rng, extent.len);
                    let technique = TECHNIQUES[rng.gen_range(0..4u64) as usize];
                    let (hits, misses) = (pool.hits(), pool.misses());
                    let out = pool.read_extent(extent, &wanted, technique);
                    assert_eq!(
                        pool.hits() + pool.misses() - hits - misses,
                        wanted.len() as u64,
                        "{at}: {technique:?}"
                    );
                    assert_eq!(pool.hits() - hits, out.buffer_hits, "{at}: {technique:?}");
                }
            }
        }
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
        assert!(pool1.touch_if_resident((0..8).map(|o| PageId::new(r, o))));
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
    fn sharded_pool_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedPool>();
    }
}
