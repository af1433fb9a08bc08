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
//!   is rejected.
//!
//! ## When N shards pay off
//!
//! A [`PoolSession`] keeps one shard lock while its pages stay on that
//! shard, so one shard locks once per query, and N shards lock each time
//! consecutive pages change shard (A-1 at scale 0.25: ≈ 7 – 9 times per
//! selective query, ≈ 106 – 188 times per 0.1 % window). Measured with
//! independent readers on 2 vCPUs, N shards win in one regime only:
//! **two or more readers on a pool that holds their working set** (hit
//! ratio ≈ 0.94), where 8 shards give ×1.4 – 1.6 the queries/s of one
//! and a second reader on one shard *lowers* throughput. With one
//! reader, or on a pool far smaller than the data, one shard ties or
//! wins. Use one shard everywhere else, and to reproduce the paper.
//! Scaling beyond 2 cores is unmeasured.
//!
//! ## Sessions
//!
//! Every page access goes through a [`PoolSession`]
//! ([`ShardedPool::session`]): one caller's view of the pool for one
//! phase — a query's filter step and transfer, a join's MBR phase or
//! its object transfer, one tree update. Where the session ends does
//! not change what is charged, counted or evicted: a sequence of
//! accesses gives bit-identical disk stats, thread tally, trace, pool
//! counters and LRU order however it is cut into sessions (asserted
//! below). What a session saves is the per-page locking: it takes a
//! shard's lock once and keeps it, and it charges the disk once.
//!
//! Lock discipline: a session holds at most one shard lock. It keeps
//! the lock while consecutive pages hash to the same shard and swaps it
//! when they don't — releasing the old shard before it blocks on the
//! new one — so with one shard a session takes one acquisition. It
//! queues its disk requests and charges them when it ends, *after*
//! releasing its shard lock: the disk's counter mutex is taken once per
//! session, never under a shard lock (the one exception is the
//! *optimum* unit read, which charges the queue before its analytical
//! request, under the shard lock — the order the hierarchy allows).
//! The stop-the-world operations ([`flush`](ShardedPool::flush),
//! [`reset`](ShardedPool::reset), [`dirty_pages`](ShardedPool::dirty_pages))
//! acquire all shard locks in ascending index order and charge under
//! them. This ordering is acyclic, so the pool cannot deadlock; it is
//! machine-checked in debug builds by [`lockdep`](crate::lockdep) (each
//! shard is [`LockClass::Shard`]`(i)`). A thread must not call the pool
//! while its own session is open: with the session's shard lock held,
//! that call would wait on itself (lockdep panics on it in debug
//! builds). Shard locks ignore poisoning: a shard's LRU state is whole
//! between any two accesses, so a panic in a session's caller leaves
//! nothing half-done — the unwinding session releases its lock and
//! still charges what it queued.

use crate::arm::PageRequest;
use crate::buffer::{LruBuffer, ReadOutcome, SeekPolicy, TransferTechnique};
use crate::disk::DiskHandle;
use crate::lockdep::{DepGuard, DepMutex, LockClass};
use crate::model::{runs_of, PageId, PageRun, RegionId};
use crate::schedule::{slm_gap_limit, slm_schedule};
use crate::stats::IoKind;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

thread_local! {
    /// The calling thread's request queue: taken by a session when it
    /// queues its first request and put back empty when it ends, so
    /// sessions reuse one buffer instead of allocating one each.
    static QUEUE: Cell<Vec<PageRequest>> = const { Cell::new(Vec::new()) };
    /// The calling thread's list of a unit read's missing offsets,
    /// recycled like [`QUEUE`]: taken by a session at its first
    /// [`PoolSession::read_extent`] and put back when it ends.
    static MISSING: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
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
/// through: page accesses go through a [`PoolSession`]
/// ([`session`](ShardedPool::session)); the pool itself keeps the
/// stop-the-world operations (flush/invalidate/reset) and the
/// counters. See the [module docs](self) for the determinism contract
/// and the lock discipline.
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
    /// Shard-lock acquisitions by sessions.
    acquisitions: AtomicU64,
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
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Open a session: this caller's view of the pool for one phase
    /// (see [`PoolSession`]). Opening one is free — it locks, counts
    /// and allocates nothing until its first page access.
    #[inline]
    pub fn session(&self) -> PoolSession<'_> {
        PoolSession {
            pool: self,
            guard: None,
            hits: 0,
            misses: 0,
            queue: Vec::new(),
            missing: Vec::new(),
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
        self.shards[shard].acquire_unpoisoned().capacity()
    }

    /// The underlying disk handle.
    #[inline]
    pub fn disk(&self) -> &DiskHandle {
        &self.disk
    }

    /// Switch between write-back (default) and write-through page
    /// updates.
    ///
    /// In write-through mode every [`write_page`](PoolSession::write_page) /
    /// [`update_page`](PoolSession::update_page) charges its write
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

    /// Cumulative requested-page accesses served from the buffer, as of
    /// the last session that ended.
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

    /// Cumulative shard-lock acquisitions by sessions: one per session
    /// on a 1-shard pool (none for a session that accesses no page),
    /// one more per shard switch on an N-shard pool.
    ///
    /// The hardware-independent measure of what sessions save: a
    /// window query or a join phase takes the lock once, not once per
    /// page.
    pub fn lock_acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
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

    /// Lock shard `index` for a session, counting the acquisition, and
    /// as contended if another thread holds the lock. Checked against
    /// the lock hierarchy whether or not it has to wait.
    fn shard(&self, index: usize) -> DepGuard<'_, LruBuffer> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let (guard, contended) = self.shards[index].acquire_noting_contention();
        if contended {
            self.contended.fetch_add(1, Ordering::Relaxed);
        }
        guard
    }

    /// Lock every shard in ascending index order (stop-the-world ops;
    /// the one blocking multi-shard pattern the hierarchy allows).
    fn lock_all(&self) -> Vec<DepGuard<'_, LruBuffer>> {
        self.shards.iter().map(|s| s.acquire_unpoisoned()).collect()
    }

    /// Read a single page in a session of its own (see
    /// [`PoolSession::read_page`]). Returns `true` on a buffer hit.
    pub fn read_page(&self, page: PageId) -> bool {
        self.session().read_page(page)
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
        let mut session = self.session();
        for p in pages {
            session.pin(p);
        }
    }

    /// Drop all buffered pages of the given regions without writing
    /// anything (per-query cold-start for object pages while the tree
    /// stays warm). Pinned pages are dropped too.
    pub fn invalidate_regions(&self, regions: &[RegionId]) {
        for shard in self.shards.iter() {
            let mut buf = shard.acquire_unpoisoned();
            let victims: Vec<PageId> = buf
                .pages()
                .filter(|p| regions.contains(&p.region))
                .collect();
            for p in victims {
                buf.remove(&p);
            }
        }
    }

    /// Number of buffered pages across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.acquire_unpoisoned().len())
            .sum()
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

    /// Replace the buffer with an empty one of `capacity` total pages,
    /// rebalancing the per-shard quotas (the buffer-size sweeps of
    /// Figures 14 and 16 resize between runs; `reset(pool.capacity())`
    /// empties it at an experiment boundary where the buffer must start
    /// cold). Dirty pages are written back first — dropping them silently
    /// would deflate the experiment's write counts by the deferred
    /// writebacks the workload actually incurred.
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

/// One caller's view of a [`ShardedPool`] for one phase
/// ([`ShardedPool::session`]): every page access — reads, unit reads,
/// writes — goes through one, and it is the one
/// `spatialdb_rtree::NodeIo` over the pool.
///
/// * **Locks.** It holds at most one shard lock, kept while consecutive
///   pages hash to the same shard and swapped when they don't.
/// * **Counters.** It counts hits and misses itself and adds them to
///   the pool's counters once, when it ends.
/// * **Charges.** It queues its disk requests in order and charges
///   them when it ends ([`Disk::charge_all`](crate::disk::Disk::charge_all)),
///   after releasing its lock — also when it ends by unwinding.
///
/// So a caller that measures the I/O of a phase as a delta of the
/// thread's tally ([`Disk::local_stats`](crate::disk::Disk::local_stats))
/// ends the phase's session first, or charges its queue
/// ([`charge_queued`](Self::charge_queued)). A session that touches no page
/// touches no lock, no atomic and no thread-local.
#[derive(Debug)]
pub struct PoolSession<'a> {
    pool: &'a ShardedPool,
    /// The shard lock held, and its shard's index.
    guard: Option<(usize, DepGuard<'a, LruBuffer>)>,
    hits: u64,
    misses: u64,
    /// The disk requests not charged yet, in order.
    queue: Vec<PageRequest>,
    /// [`read_extent`](Self::read_extent)'s list of missing offsets,
    /// empty between calls.
    missing: Vec<u64>,
}

impl<'a> PoolSession<'a> {
    /// The LRU state of `page`'s shard, locked: the held lock when it
    /// is that shard's, else a swap (the old lock is released first).
    #[inline]
    fn buffer(&mut self, page: &PageId) -> &mut LruBuffer {
        let index = self.pool.shard_of(page);
        if self.guard.as_ref().is_none_or(|(held, _)| *held != index) {
            self.guard = None;
            self.guard = Some((index, self.pool.shard(index)));
        }
        match &mut self.guard {
            Some((_, guard)) => guard,
            None => unreachable!("the shard was locked above"),
        }
    }

    /// Queue one disk request, to be charged when the session ends.
    fn charge(&mut self, kind: IoKind, run: PageRun, skip_seek: bool) {
        if self.queue.capacity() == 0 {
            self.queue = QUEUE.take();
        }
        self.queue.push(PageRequest {
            kind,
            run,
            skip_seek,
        });
    }

    /// Charge the queued requests now, in order, so that the calling
    /// thread's tally includes them. A caller that interleaves two
    /// phases in one session — the spatial join's node reads and object
    /// fetches — calls it after each call it measures. Under the shard
    /// lock the session holds, which ranks before the disk's counters.
    pub fn charge_queued(&mut self) {
        if !self.queue.is_empty() {
            self.pool.disk.charge_all(&self.queue);
            self.queue.clear();
        }
    }

    /// Insert into the page's shard (touching it if resident), queuing
    /// the write-backs of dirty evictions (clean evictions are free),
    /// exactly like the single-lock pool.
    fn insert(&mut self, page: PageId, dirty: bool) {
        for victim in insert_evicting(self.buffer(&page), page, dirty) {
            self.charge(IoKind::Write, PageRun::new(victim, 1), false);
        }
    }

    /// Add one classification of `accesses` requested pages, `hits` of
    /// them served from the buffer.
    fn count(&mut self, hits: u64, accesses: u64) {
        self.hits += hits;
        self.misses += accesses - hits;
    }

    /// Read a single page. Returns `true` on a buffer hit.
    pub fn read_page(&mut self, page: PageId) -> bool {
        let hit = self.buffer(&page).touch(&page);
        self.count(u64::from(hit), 1);
        if !hit {
            self.charge(IoKind::Read, PageRun::new(page, 1), false);
            self.insert(page, false);
        }
        hit
    }

    /// Blind single-page write: the page is (re)written without being
    /// read first — e.g. appending records to a fresh page. In
    /// write-back mode the page is buffered dirty and the physical write
    /// happens on eviction or flush; in write-through mode the write is
    /// queued at once, in order with the session's other requests.
    pub fn write_page(&mut self, page: PageId) {
        let buffered = self.pool.capacity() > 0;
        if !buffered || self.pool.write_through() {
            self.charge(IoKind::Write, PageRun::new(page, 1), false);
            if buffered {
                self.insert(page, false);
            }
            return;
        }
        self.insert(page, true);
    }

    /// Read-modify-write of a single page: charged read on miss, then
    /// marked dirty (write-back) or written at once (write-through).
    /// Returns `true` on a buffer hit.
    ///
    /// The whole read-modify-write holds the page's shard lock: were the
    /// dirty flag set under a second acquisition, a concurrent eviction
    /// in between would drop the page while still clean and the deferred
    /// writeback would never be charged.
    pub fn update_page(&mut self, page: PageId) -> bool {
        if self.pool.capacity() == 0 {
            self.count(0, 1);
            self.charge(IoKind::Read, PageRun::new(page, 1), false);
            self.charge(IoKind::Write, PageRun::new(page, 1), false);
            return false;
        }
        let hit = self.read_page(page);
        if self.pool.write_through() {
            self.charge(IoKind::Write, PageRun::new(page, 1), false);
        } else {
            self.buffer(&page).mark_dirty(&page);
        }
        hit
    }

    /// Read the pages of one run — an object's extent. Missing pages
    /// are grouped into maximal consecutive runs, each one request,
    /// charged according to the [`SeekPolicy`]; then they enter the
    /// buffer.
    pub fn read_run(&mut self, run: PageRun, seek: SeekPolicy) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        // The requests this call queues are its missing runs, in order:
        // they are also the list of pages to insert once all are probed.
        let first = self.queue.len();
        let mut missing: Option<PageRun> = None;
        for p in run.pages() {
            if !self.buffer(&p).touch(&p) {
                match &mut missing {
                    Some(m) => m.len += 1,
                    None => missing = Some(PageRun::new(p, 1)),
                }
                continue;
            }
            out.buffer_hits += 1;
            if let Some(m) = missing.take() {
                self.charge_missing(m, seek, &mut out);
            }
        }
        if let Some(m) = missing {
            self.charge_missing(m, seek, &mut out);
        }
        self.count(out.buffer_hits, run.len);
        for i in first..first + out.requests as usize {
            let missing = self.queue[i].run;
            for p in missing.pages() {
                self.insert(p, false);
            }
        }
        out
    }

    /// Queue the read of one missing run of [`read_run`](Self::read_run).
    fn charge_missing(&mut self, run: PageRun, seek: SeekPolicy, out: &mut ReadOutcome) {
        self.charge(IoKind::Read, run, seek.skip_seek(out.requests));
        out.requests += 1;
        out.pages_transferred += run.len;
    }

    /// [`read_run`](Self::read_run) for each of `runs` in turn, each
    /// charged on its own under `seek` — one pointer chase per run.
    pub fn read_runs(&mut self, runs: impl IntoIterator<Item = PageRun>, seek: SeekPolicy) {
        for run in runs {
            self.read_run(run, seek);
        }
    }

    /// Touch `pages` in order and count each as a hit if **every** one
    /// is buffered; otherwise do nothing. Returns whether they all were.
    ///
    /// The all-or-nothing probe of the *complete* technique (see
    /// [`read_extent`](Self::read_extent)), and the join's "object
    /// already buffered" shortcut in front of a unit read.
    pub fn touch_if_resident<I>(&mut self, pages: I) -> bool
    where
        I: IntoIterator<Item = PageId>,
        I::IntoIter: Clone,
    {
        let pages = pages.into_iter();
        if !pages.clone().all(|p| self.buffer(&p).contains(&p)) {
            return false;
        }
        let mut touched = 0;
        for p in pages {
            self.buffer(&p).touch(&p);
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
    ///   ([`touch_if_resident`](Self::touch_if_resident)); otherwise
    ///   transfer the whole extent with one request, and all of its
    ///   pages enter the buffer. The decision is all-or-nothing, so the
    ///   pages are probed before any is touched.
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
    ///   (`Disk::charge_raw`, which no
    ///   trace captures, after the session's queued requests), and the
    ///   missing pages enter the buffer.
    ///
    /// Dirty evictions are queued as they happen. Each wanted page is
    /// classified hit or miss exactly once; a bridged page or a page of
    /// the unit nobody wanted is never counted.
    pub fn read_extent(
        &mut self,
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
            self.charge(IoKind::Read, extent, false);
            out.requests = 1;
            out.pages_transferred = extent.len;
            let mut wanted_left = wanted.iter().copied().peekable();
            for (o, p) in (0..).zip(extent.pages()) {
                let hit = self.buffer(&p).touch(&p);
                if !hit {
                    self.insert(p, false);
                }
                if wanted_left.next_if_eq(&o).is_some() && hit {
                    out.buffer_hits += 1;
                }
            }
            self.count(out.buffer_hits, wanted.len() as u64);
            return out;
        }
        let mut missing = std::mem::take(&mut self.missing);
        if missing.capacity() == 0 {
            missing = MISSING.take();
        }
        for &o in wanted {
            let p = extent.page(o);
            let shard = self.buffer(&p);
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
        self.read_missing(extent, &missing, technique, &mut out);
        missing.clear();
        self.missing = missing;
        out
    }

    /// The transfer half of [`read_extent`](Self::read_extent) under
    /// every technique but *complete*: read the `missing` offsets of
    /// `extent`, which were classified into `out` already.
    fn read_missing(
        &mut self,
        extent: PageRun,
        missing: &[u64],
        technique: TransferTechnique,
        out: &mut ReadOutcome,
    ) {
        let params = self.pool.disk.params();
        if technique == TransferTechnique::Optimum {
            if !missing.is_empty() {
                let k = missing.len() as u64;
                let cost = params.seek_ms + params.latency_ms + params.transfer_ms * k as f64;
                self.charge_queued();
                self.pool.disk.charge_raw(IoKind::Read, k, cost, true);
                out.requests = 1;
                out.pages_transferred = k;
                for &o in missing {
                    self.insert(extent.page(o), false);
                }
            }
            return;
        }
        for run in slm_schedule(missing, slm_gap_limit(&params)) {
            let page_run = PageRun::new(extent.page(run.start), run.len);
            self.charge(IoKind::Read, page_run, out.requests > 0);
            out.requests += 1;
            out.pages_transferred += run.len;
            for off in run.start..run.start + run.len {
                if technique == TransferTechnique::VectorRead
                    && missing.binary_search(&off).is_err()
                {
                    continue;
                }
                self.insert(extent.page(off), false);
            }
        }
    }

    /// Remove a page from the buffer without any accounting (node
    /// releases, extents being freed), returning its dirty flag.
    pub fn remove_page(&mut self, page: &PageId) -> Option<bool> {
        self.buffer(page).remove(page)
    }

    /// Insert one page pinned, without charging its read (see
    /// [`ShardedPool::warm_pinned`]).
    fn pin(&mut self, page: PageId) {
        let shard = self.buffer(&page);
        let quota = shard.capacity();
        let victims = insert_evicting(shard, page, false);
        if shard.len() > quota {
            // Eviction failed (everything pinned): revert the insert
            // rather than exceed the budget.
            shard.remove(&page);
        } else {
            shard.pin(&page);
        }
        for victim in victims {
            self.charge(IoKind::Write, PageRun::new(victim, 1), false);
        }
    }
}

impl Drop for PoolSession<'_> {
    /// End the session: release the shard lock, then add the counts to
    /// the pool's counters and charge the queued requests.
    fn drop(&mut self) {
        self.guard = None;
        if self.hits > 0 {
            self.pool.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            self.pool.misses.fetch_add(self.misses, Ordering::Relaxed);
        }
        self.charge_queued();
        if self.queue.capacity() > 0 {
            QUEUE.set(std::mem::take(&mut self.queue));
        }
        if self.missing.capacity() > 0 {
            MISSING.set(std::mem::take(&mut self.missing));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::reference::BufferPool;
    use crate::disk::Disk;
    use crate::stats::IoStats;

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
                pool.session().write_page(PageId::new(r, o));
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
                            sharded.session().write_page(page);
                        }
                        5..=6 => assert_eq!(
                            pool.update_page(page),
                            sharded.session().update_page(page),
                            "{n} shards, {cap} pages, step {step}"
                        ),
                        7..=8 => assert_eq!(
                            pool.remove_page(&page),
                            sharded.session().remove_page(&page),
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
                    sharded.session().write_page(page);
                }
                4 => {
                    assert_eq!(
                        reference.update_page(page),
                        sharded.session().update_page(page),
                        "step {step}"
                    );
                }
                5 => {
                    let run = PageRun::new(pg(0, rng.gen_range(0..60u64)), rng.gen_range(0..6u64));
                    let pages: Vec<PageId> = run.pages().collect();
                    let seek = if rng.gen_bool(0.5) {
                        SeekPolicy::PerRequest
                    } else {
                        SeekPolicy::WithinCluster { initial_seek: true }
                    };
                    assert_eq!(
                        reference.read_set(&pages, seek),
                        sharded.session().read_run(run, seek),
                        "step {step}"
                    );
                }
                6..=7 => {
                    let extent =
                        PageRun::new(pg(0, rng.gen_range(0..48u64)), 1 + rng.gen_range(0..16u64));
                    let wanted = random_offsets(&mut rng, extent.len);
                    let technique = TECHNIQUES[rng.gen_range(0..4u64) as usize];
                    reference.read_extent(extent, &wanted, technique);
                    let out = sharded.session().read_extent(extent, &wanted, technique);
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
                        reference.reset(reference.buffer().capacity());
                        sharded.reset(sharded.capacity());
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
                    let out = pool.session().read_extent(extent, &wanted, technique);
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
            pool.session().write_page(PageId::new(r, o));
        }
        pool.flush();
        let s = disk.stats();
        assert_eq!(s.write_requests, 2); // runs [0..4] and [10..12]
        assert_eq!(s.pages_written, 6);
        let before = disk.stats();
        pool.flush();
        assert_eq!(disk.stats().since(&before).requests(), 0);
    }

    #[test]
    fn sharded_reset_charges_dirty_writebacks() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("data");
        let pool = ShardedPool::with_shards(disk.clone(), 64, 4);
        pool.session().write_page(PageId::new(r, 0));
        pool.session().write_page(PageId::new(r, 7));
        let before = disk.stats();
        pool.reset(pool.capacity());
        assert_eq!(disk.stats().since(&before).pages_written, 2);
        assert_eq!(pool.len(), 0);
        pool.session().write_page(PageId::new(r, 3));
        let before = disk.stats();
        pool.reset(32);
        assert_eq!(disk.stats().since(&before).pages_written, 1);
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
        assert!(pool1
            .session()
            .touch_if_resident((0..8).map(|o| PageId::new(r, o))));
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
                        pool.session()
                            .update_page(PageId::new(r, (t * 13 + i) % distinct_pages));
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

    /// One access of the session-equivalence property: every page
    /// access of a [`PoolSession`], and the two pool-wide operations a
    /// sequence interleaves with them.
    #[derive(Clone, Debug)]
    enum Access {
        Page(PageId),
        Run(PageRun, SeekPolicy),
        Runs(Vec<PageRun>, SeekPolicy),
        Extent(PageRun, Vec<u64>, TransferTechnique),
        TouchIfResident(PageRun),
        Write(PageId),
        Update(PageId),
        Remove(PageId),
        /// Switch the write mode (an atomic: legal inside a session).
        WriteThrough(bool),
        /// Stop-the-world: the open session ends first.
        Flush,
    }

    impl Access {
        fn apply(&self, session: &mut PoolSession<'_>) {
            match self {
                Access::Page(p) => {
                    session.read_page(*p);
                }
                Access::Run(run, seek) => {
                    session.read_run(*run, *seek);
                }
                Access::Runs(runs, seek) => {
                    session.read_runs(runs.iter().copied(), *seek);
                }
                Access::Extent(extent, wanted, technique) => {
                    session.read_extent(*extent, wanted, *technique);
                }
                Access::TouchIfResident(run) => {
                    session.touch_if_resident(run.pages());
                }
                Access::Write(p) => session.write_page(*p),
                Access::Update(p) => {
                    session.update_page(*p);
                }
                Access::Remove(p) => {
                    session.remove_page(p);
                }
                Access::WriteThrough(on) => session.pool.set_write_through(*on),
                Access::Flush => unreachable!("the caller ends the session and flushes"),
            }
        }
    }

    fn random_seek(rng: &mut SmallRng) -> SeekPolicy {
        if rng.gen_bool(0.5) {
            SeekPolicy::PerRequest
        } else {
            SeekPolicy::WithinCluster {
                initial_seek: rng.gen_bool(0.5),
            }
        }
    }

    fn random_run(rng: &mut SmallRng) -> PageRun {
        PageRun::new(pg(0, rng.gen_range(0..72u64)), rng.gen_range(0..6u64))
    }

    fn random_accesses(rng: &mut SmallRng, n: usize) -> Vec<Access> {
        (0..n)
            .map(|_| {
                let page = pg(0, rng.gen_range(0..80u64));
                match rng.gen_range(0..12u64) {
                    0 => Access::Page(page),
                    1 => Access::Run(random_run(rng), random_seek(rng)),
                    2 => {
                        let runs = (0..rng.gen_range(0..4u64))
                            .map(|_| random_run(rng))
                            .collect();
                        Access::Runs(runs, random_seek(rng))
                    }
                    3..=4 => {
                        let extent = PageRun::new(
                            pg(0, rng.gen_range(0..64u64)),
                            1 + rng.gen_range(0..16u64),
                        );
                        let wanted = random_offsets(rng, extent.len);
                        let technique = TECHNIQUES[rng.gen_range(0..4u64) as usize];
                        Access::Extent(extent, wanted, technique)
                    }
                    5 => Access::TouchIfResident(random_run(rng)),
                    6..=7 => Access::Write(page),
                    8 => Access::Update(page),
                    9 => Access::Remove(page),
                    10 => Access::WriteThrough(rng.gen_bool(0.5)),
                    _ if rng.gen_bool(0.2) => Access::Flush,
                    _ => Access::Page(page),
                }
            })
            .collect()
    }

    /// Everything a sequence of accesses leaves behind.
    #[derive(Debug, PartialEq)]
    struct Footprint {
        stats: IoStats,
        tally: IoStats,
        io_ms_bits: (u64, u64),
        trace: Vec<PageRequest>,
        hits: u64,
        misses: u64,
        /// Per shard: the replacement list (MRU → LRU, the eviction
        /// order) and the dirty pages.
        shards: Vec<(Vec<PageId>, Vec<PageId>)>,
    }

    /// Run `accesses` on a fresh pool of `shards` shards, on a fresh
    /// thread (so the thread tally starts at zero), ending the session
    /// before an access whenever `ends_before` says so and before every
    /// flush. Disk parameters with fractional costs, so a change in the
    /// order of the charges shows in the `io_ms` sums' last bits.
    fn footprint(accesses: &[Access], shards: usize, ends_before: Vec<bool>) -> Footprint {
        let accesses = accesses.to_vec();
        std::thread::spawn(move || {
            let disk = Disk::new(crate::model::DiskParams {
                seek_ms: 8.7,
                latency_ms: 5.93,
                transfer_ms: 0.61,
            });
            assert_eq!(disk.create_region("sessions"), RegionId(0));
            let pool = ShardedPool::with_shards(disk.clone(), 24, shards);
            let ((), trace) = disk.traced(|| {
                let mut session = pool.session();
                for (access, ends) in accesses.iter().zip(ends_before) {
                    if ends || matches!(access, Access::Flush) {
                        drop(session);
                        if matches!(access, Access::Flush) {
                            pool.flush();
                        }
                        session = pool.session();
                    }
                    if !matches!(access, Access::Flush) {
                        access.apply(&mut session);
                    }
                }
            });
            let (stats, tally) = (disk.stats(), disk.local_stats());
            Footprint {
                stats,
                tally,
                io_ms_bits: (stats.io_ms.to_bits(), tally.io_ms.to_bits()),
                trace,
                hits: pool.hits(),
                misses: pool.misses(),
                shards: (0..shards)
                    .map(|i| {
                        let shard = pool.shards[i].acquire();
                        (shard.listed(), shard.dirty_pages())
                    })
                    .collect(),
            }
        })
        .join()
        .expect("the access sequence panicked")
    }

    /// Where a session ends does not matter: a sequence of accesses run
    /// with one session per access and with random session boundaries
    /// leaves bit-identical global stats and thread tally (`io_ms`
    /// compared bit for bit), the same trace, the same hit and miss
    /// counts, and the same residency and eviction order in every
    /// shard — for every read kind, every transfer technique and both
    /// write modes, on 1 and 4 shards.
    #[test]
    fn session_boundaries_change_nothing() {
        for shards in [1usize, 4] {
            for case in 0..6u64 {
                let seed = 0x1994_0040 + 100 * shards as u64 + case;
                let mut rng = SmallRng::seed_from_u64(seed);
                let accesses = random_accesses(&mut rng, 1500);
                let per_access = footprint(&accesses, shards, vec![true; accesses.len()]);
                let boundaries = (0..accesses.len()).map(|_| rng.gen_bool(0.1)).collect();
                let random = footprint(&accesses, shards, boundaries);
                let one = footprint(&accesses, shards, vec![false; accesses.len()]);
                assert_eq!(per_access, random, "seed {seed:#x}: random boundaries");
                assert_eq!(per_access, one, "seed {seed:#x}: one session");
                // The sequence did real work of every kind.
                let s = per_access.stats;
                assert!(
                    s.read_requests > 300 && s.write_requests > 50,
                    "seed {seed:#x}: {s}"
                );
                assert!(
                    per_access.trace.len() as u64 > s.requests() / 2,
                    "seed {seed:#x}"
                );
            }
        }
    }

    /// A session that unwinds — its caller panicked with the session
    /// open — still charges what it queued (global counters, thread
    /// tally, pool counters) and releases its lock, so the thread's
    /// later pool calls succeed.
    #[test]
    fn an_unwinding_session_charges_its_queue_and_unlocks() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("unwind");
        let pool = ShardedPool::new(disk.clone(), 8);
        let before = disk.local_stats();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut session = pool.session();
            session.read_run(PageRun::new(PageId::new(r, 0), 3), SeekPolicy::PerRequest);
            session.update_page(PageId::new(r, 5));
            panic!("the caller failed with its session open");
        }));
        assert!(unwound.is_err());
        let charged = disk.local_stats().since(&before);
        assert_eq!((charged.read_requests, charged.pages_read), (2, 4));
        assert_eq!(disk.stats().pages_read, 4);
        assert_eq!((pool.hits(), pool.misses()), (0, 4));
        assert!(
            pool.read_page(PageId::new(r, 1)),
            "the pages entered the buffer"
        );
        pool.flush();
        assert_eq!(disk.stats().pages_written, 1);
    }

    /// A one-shot pool call while the thread's own session is open
    /// would wait on the session's shard lock forever; lockdep names it
    /// instead (debug builds — in release the checker is compiled out).
    #[cfg(debug_assertions)]
    #[test]
    fn a_pool_call_inside_an_open_session_is_caught() {
        let joined = std::thread::spawn(|| {
            let disk = Disk::with_defaults();
            let r = disk.create_region("nested");
            let pool = ShardedPool::new(disk, 8);
            let mut session = pool.session();
            session.read_page(PageId::new(r, 0));
            pool.read_page(PageId::new(r, 1));
        })
        .join();
        let payload = joined.expect_err("a call inside a session must not pass");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            message.contains("lock hierarchy violation") && message.contains("Shard(0)"),
            "{message}"
        );
    }

    /// A session locks once: one acquisition for any number of pages
    /// on one shard, none for a session that reads nothing.
    #[test]
    fn a_session_locks_its_shard_once() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("locks");
        let pool = ShardedPool::new(disk, 64);
        drop(pool.session());
        assert_eq!(pool.lock_acquisitions(), 0);
        let mut session = pool.session();
        for o in 0..40 {
            session.read_page(PageId::new(r, o));
        }
        session.read_extent(
            PageRun::new(PageId::new(r, 40), 8),
            &[1, 5],
            TransferTechnique::Read,
        );
        drop(session);
        assert_eq!(pool.lock_acquisitions(), 1);
        for o in 0..3 {
            pool.read_page(PageId::new(r, o));
        }
        assert_eq!(pool.lock_acquisitions(), 4);
    }
}
