//! The LRU page buffer and the read/seek modes of the buffered I/O
//! front-end ([`ShardedPool`](crate::shard::ShardedPool)).
//!
//! Every experiment of the paper runs with an LRU buffer in front of the
//! disk (§6.1 sweeps buffer sizes from 200 to 6,400 pages for the spatial
//! join). The buffer determines which page accesses become disk requests;
//! Figure 15 distinguishes the *read* operation (all transferred pages are
//! allocated in the buffer, including bridged non-requested pages) from
//! the *vector read* (only requested pages are kept) —
//! [`TransferTechnique::Read`] and [`TransferTechnique::VectorRead`].

use crate::model::{mix64, PageId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// How one cluster unit is read (§6.2, Figures 15–16): the technique of
/// [`PoolSession::read_extent`](crate::shard::PoolSession::read_extent).
///
/// Window queries (§5.4) read units with the same family: §5.4's
/// *complete* is [`Complete`](TransferTechnique::Complete), its SLM
/// schedule is [`Read`](TransferTechnique::Read), its optimum is
/// [`Optimum`](TransferTechnique::Optimum).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferTechnique {
    /// Always read the complete cluster unit.
    Complete,
    /// SLM schedule over the wanted pages; only requested pages are kept
    /// in the buffer (Figure 15 bottom).
    VectorRead,
    /// SLM schedule; all transferred pages are kept (Figure 15 top).
    Read,
    /// Optimum baseline of Figures 10 and 16: one seek + one latency per
    /// cluster unit visit, transferring only the wanted pages.
    Optimum,
}

impl TransferTechnique {
    /// Whether the join's object transfer (a store's `fetch_for_join`)
    /// reads the join's candidate set under this technique. *Complete*
    /// transfers the whole cluster unit whatever else the join needs
    /// from it, so its caller need not build the set.
    pub fn reads_candidate_set(self) -> bool {
        self != TransferTechnique::Complete
    }
}

/// Seek accounting for multi-request reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeekPolicy {
    /// Every request pays a seek: the target runs are scattered across the
    /// disk (e.g. candidate objects in the secondary organization's
    /// sequential file).
    PerRequest,
    /// All requests stay within one cluster unit (§5.4.3): only the first
    /// pays a seek — and not even that one if `initial_seek` is false
    /// because an earlier access already positioned the arm on the unit.
    WithinCluster {
        /// Whether the first issued request pays the seek.
        initial_seek: bool,
    },
}

impl SeekPolicy {
    pub(crate) fn skip_seek(&self, request_index: u64) -> bool {
        match self {
            SeekPolicy::PerRequest => false,
            SeekPolicy::WithinCluster { initial_seek } => !(*initial_seek && request_index == 0),
        }
    }
}

/// Hasher of the page map, which every pool access of every query
/// pays: folds a [`PageId`] into `region << 48 ^ offset` (the key the
/// sharded pool routes by) and finishes with [`mix64`]. Fixed, so the
/// map iterates in the same order on every run; page ids come from the
/// engine's own allocators, never from outside the program.
#[derive(Clone, Copy, Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Not what `PageId`'s derived `Hash` calls; any key still hashes.
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    #[inline]
    fn write_u16(&mut self, region: u16) {
        self.0 = self.0.rotate_left(16) ^ u64::from(region);
    }

    #[inline]
    fn write_u64(&mut self, offset: u64) {
        self.0 = self.0.rotate_left(48) ^ offset;
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

#[derive(Clone, Copy, Debug)]
struct Node {
    page: PageId,
    dirty: bool,
    /// A pinned node is resident but on no list (`prev` / `next` unset).
    pinned: bool,
    prev: Option<usize>,
    next: Option<usize>,
}

/// A page-granular LRU buffer with dirty flags and pinning.
///
/// The replacement list holds the evictable pages only: [`pin`] takes a
/// page off it for as long as it stays resident, so the victim — the
/// LRU-most evictable page — is always the tail, however many pages are
/// pinned. A pinned page stays pinned until it leaves through
/// [`remove`] (or with the whole buffer).
///
/// [`pin`]: LruBuffer::pin
/// [`remove`]: LruBuffer::remove
///
/// Pure replacement logic — it never talks to the disk.
/// [`ShardedPool`](crate::shard::ShardedPool) pairs one per shard with a
/// [`DiskHandle`](crate::disk::DiskHandle) and charges the misses and
/// dirty evictions.
#[derive(Debug)]
pub struct LruBuffer {
    capacity: usize,
    map: HashMap<PageId, usize, BuildHasherDefault<PageHasher>>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used evictable node.
    head: Option<usize>,
    /// Least recently used evictable node: the next victim.
    tail: Option<usize>,
    /// Nodes on the replacement list.
    listed: usize,
    /// Resident nodes off it.
    pinned: usize,
}

impl LruBuffer {
    /// Create a buffer holding at most `capacity` pages.
    ///
    /// A capacity of zero disables buffering: every access misses and
    /// nothing is retained.
    pub fn new(capacity: usize) -> Self {
        LruBuffer {
            capacity,
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: None,
            tail: None,
            listed: 0,
            pinned: 0,
        }
    }

    /// Every resident page is on the replacement list or pinned.
    #[inline]
    fn debug_check(&self) {
        debug_assert_eq!(self.listed + self.pinned, self.map.len());
    }

    /// Buffer capacity in pages.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of buffered pages.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no page is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `true` if `page` is buffered.
    #[inline]
    pub fn contains(&self, page: &PageId) -> bool {
        self.map.contains_key(page)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        self.nodes[idx].prev = None;
        self.nodes[idx].next = None;
        self.listed -= 1;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = None;
        self.nodes[idx].next = self.head;
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
        self.listed += 1;
    }

    /// Make a resident node the most recently used; a pinned one has no
    /// position to refresh.
    fn refresh(&mut self, idx: usize) {
        if !self.nodes[idx].pinned {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Touch `page` (move to MRU). Returns `true` if it was buffered.
    pub fn touch(&mut self, page: &PageId) -> bool {
        if let Some(&idx) = self.map.get(page) {
            self.refresh(idx);
            true
        } else {
            false
        }
    }

    /// Insert `page` (as MRU) with the given dirty flag, evicting LRU
    /// pages as needed. If the page is already buffered it is touched and
    /// its dirty flag is OR-ed. Returns the evicted `(page, was_dirty)`
    /// pairs (empty for capacity-0 buffers, where nothing is retained and
    /// nothing evicted).
    pub fn insert(&mut self, page: PageId, dirty: bool) -> Vec<(PageId, bool)> {
        let mut evicted = Vec::new();
        self.insert_with(page, dirty, |victim, was_dirty| {
            evicted.push((victim, was_dirty))
        });
        evicted
    }

    /// [`insert`](LruBuffer::insert) handing each evicted
    /// `(page, was_dirty)` pair to `evicted` instead of allocating a
    /// list for them — a full buffer evicts on every miss.
    pub fn insert_with(
        &mut self,
        page: PageId,
        dirty: bool,
        mut evicted: impl FnMut(PageId, bool),
    ) {
        if self.capacity == 0 {
            return;
        }
        let slot = match self.map.entry(page) {
            Entry::Occupied(resident) => {
                let idx = *resident.get();
                self.refresh(idx);
                self.nodes[idx].dirty |= dirty;
                return;
            }
            Entry::Vacant(slot) => slot,
        };
        let node = Node {
            page,
            dirty,
            pinned: false,
            prev: None,
            next: None,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        slot.insert(idx);
        self.push_front(idx);
        while self.map.len() > self.capacity {
            match self.evict_one() {
                Some((victim, was_dirty)) => evicted(victim, was_dirty),
                None => break, // everything pinned; allow temporary overflow
            }
        }
        self.debug_check();
    }

    /// Evict the least recently used page that is not pinned; `None`
    /// when every resident page is.
    fn evict_one(&mut self) -> Option<(PageId, bool)> {
        let idx = self.tail?;
        let node = self.nodes[idx];
        self.unlink(idx);
        self.map.remove(&node.page);
        self.free.push(idx);
        Some((node.page, node.dirty))
    }

    /// Mark a buffered page dirty. Returns `true` if the page was present.
    pub fn mark_dirty(&mut self, page: &PageId) -> bool {
        if let Some(&idx) = self.map.get(page) {
            self.nodes[idx].dirty = true;
            true
        } else {
            false
        }
    }

    /// Pin a buffered page: exempt from eviction, and off the
    /// replacement list, until it is [removed](LruBuffer::remove).
    /// Returns `true` if present.
    pub fn pin(&mut self, page: &PageId) -> bool {
        let Some(&idx) = self.map.get(page) else {
            return false;
        };
        if !self.nodes[idx].pinned {
            self.unlink(idx);
            self.nodes[idx].pinned = true;
            self.pinned += 1;
        }
        self.debug_check();
        true
    }

    /// Remove a page from the buffer, pinned or not, returning its dirty
    /// flag.
    pub fn remove(&mut self, page: &PageId) -> Option<bool> {
        let idx = self.map.remove(page)?;
        let dirty = self.nodes[idx].dirty;
        if self.nodes[idx].pinned {
            self.pinned -= 1;
        } else {
            self.unlink(idx);
        }
        self.free.push(idx);
        self.debug_check();
        Some(dirty)
    }

    /// Iterate over all buffered pages (arbitrary order).
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        // lint: order-insensitive — callers filter/collect and sort (or
        // remove per page); the arbitrary order never reaches any stats.
        self.map.keys().copied()
    }

    /// All dirty pages, sorted by address (ready for run formation).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut v: Vec<_> = self
            .map
            .iter()
            .filter(|(_, &i)| self.nodes[i].dirty)
            .map(|(p, _)| *p)
            .collect();
        v.sort_unstable();
        v
    }

    /// Clear the dirty flag of a page (after it was written back).
    pub fn clear_dirty(&mut self, page: &PageId) {
        if let Some(&idx) = self.map.get(page) {
            self.nodes[idx].dirty = false;
        }
    }
}

/// Outcome of a buffered multi-page read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Number of disk requests issued.
    pub requests: u64,
    /// Pages transferred from disk (misses, incl. bridged pages).
    pub pages_transferred: u64,
    /// Pages served from the buffer.
    pub buffer_hits: u64,
}

impl ReadOutcome {
    /// `true` if at least one disk request was issued.
    #[inline]
    pub fn issued_io(&self) -> bool {
        self.requests > 0
    }
}

#[cfg(test)]
impl LruBuffer {
    /// The replacement list, MRU → LRU, walked link by link (the pinned
    /// pages are off it).
    pub(crate) fn listed(&self) -> Vec<PageId> {
        let mut pages = Vec::new();
        let mut cur = self.head;
        while let Some(idx) = cur {
            pages.push(self.nodes[idx].page);
            cur = self.nodes[idx].next;
        }
        pages
    }
}

#[cfg(test)]
pub(crate) mod reference {
    use super::{LruBuffer, ReadOutcome, SeekPolicy, TransferTechnique};
    use crate::disk::DiskHandle;
    use crate::model::{runs_of, PageId, PageRun};
    use crate::schedule::{slm_gap_limit, slm_schedule, ScheduledRun};
    use crate::stats::IoKind;

    /// One LRU buffer bound to a disk behind `&mut self`: the single-lock
    /// pool the sharded one replaced, kept as the reference
    /// `shard::tests::one_shard_mirrors_buffer_pool` compares a 1-shard
    /// [`ShardedPool`](crate::shard::ShardedPool) against (and
    /// `n_shards_mirror_independent_reference_pools` compares each shard
    /// of an N-shard one against).
    #[derive(Debug)]
    pub(crate) struct BufferPool {
        disk: DiskHandle,
        buf: LruBuffer,
        write_through: bool,
    }

    impl BufferPool {
        /// Create a pool with `capacity` pages over `disk`.
        pub(crate) fn new(disk: DiskHandle, capacity: usize) -> Self {
            BufferPool {
                disk,
                buf: LruBuffer::new(capacity),
                write_through: false,
            }
        }

        /// Switch between write-back (default) and write-through page
        /// updates.
        ///
        /// In write-through mode every [`BufferPool::write_page`] /
        /// [`BufferPool::update_page`] charges its write request immediately
        /// and the buffered copy stays clean — the update discipline of the
        /// systems the paper measured, and the mode the construction
        /// experiments (Figure 5) run under. Write-back defers the write to
        /// eviction or [`BufferPool::flush`].
        pub(crate) fn set_write_through(&mut self, on: bool) {
            self.write_through = on;
        }

        /// Immutable access to the replacement state.
        #[inline]
        pub(crate) fn buffer(&self) -> &LruBuffer {
            &self.buf
        }

        fn charge_evictions(&mut self, evicted: Vec<(PageId, bool)>) {
            for (page, dirty) in evicted {
                if dirty {
                    self.disk
                        .charge(IoKind::Write, PageRun::new(page, 1), false);
                }
            }
        }

        /// Read a single page. Returns `true` on a buffer hit.
        pub(crate) fn read_page(&mut self, page: PageId) -> bool {
            if self.buf.touch(&page) {
                return true;
            }
            self.disk.charge(IoKind::Read, PageRun::new(page, 1), false);
            let ev = self.buf.insert(page, false);
            self.charge_evictions(ev);
            false
        }

        /// Blind single-page write: the page is (re)written without being
        /// read first — e.g. appending records to a fresh page. In
        /// write-back mode the page is buffered dirty and the physical write
        /// happens on eviction or flush; in write-through mode the write is
        /// charged immediately.
        pub(crate) fn write_page(&mut self, page: PageId) {
            if self.buf.capacity() == 0 || self.write_through {
                self.disk
                    .charge(IoKind::Write, PageRun::new(page, 1), false);
                if self.buf.capacity() > 0 {
                    let ev = self.buf.insert(page, false);
                    self.charge_evictions(ev);
                }
                return;
            }
            let ev = self.buf.insert(page, true);
            self.charge_evictions(ev);
        }

        /// Read-modify-write of a single page: charged read on miss, then
        /// marked dirty (write-back) or written immediately (write-through).
        pub(crate) fn update_page(&mut self, page: PageId) -> bool {
            if self.buf.capacity() == 0 {
                self.disk.charge(IoKind::Read, PageRun::new(page, 1), false);
                self.disk
                    .charge(IoKind::Write, PageRun::new(page, 1), false);
                return false;
            }
            let hit = self.buf.touch(&page);
            if !hit {
                self.disk.charge(IoKind::Read, PageRun::new(page, 1), false);
                let ev = self.buf.insert(page, false);
                self.charge_evictions(ev);
            }
            if self.write_through {
                self.disk
                    .charge(IoKind::Write, PageRun::new(page, 1), false);
            } else {
                self.buf.mark_dirty(&page);
            }
            hit
        }

        /// Read a set of pages (sorted, deduplicated). Missing pages are
        /// grouped into maximal consecutive runs, each one request, charged
        /// according to the [`SeekPolicy`].
        pub(crate) fn read_set(&mut self, pages: &[PageId], seek: SeekPolicy) -> ReadOutcome {
            debug_assert!(
                pages.windows(2).all(|w| w[0] < w[1]),
                "pages must be sorted"
            );
            let mut out = ReadOutcome::default();
            let mut missing = Vec::new();
            for p in pages {
                if self.buf.touch(p) {
                    out.buffer_hits += 1;
                } else {
                    missing.push(*p);
                }
            }
            for run in runs_of(&missing) {
                self.disk
                    .charge(IoKind::Read, run, seek.skip_seek(out.requests));
                out.requests += 1;
                out.pages_transferred += run.len;
            }
            for p in missing {
                let ev = self.buf.insert(p, false);
                self.charge_evictions(ev);
            }
            out
        }

        /// Read a complete extent (cluster unit) with one request, regardless
        /// of how many of its pages are already buffered — the *complete*
        /// technique of §5.4. All pages enter the buffer.
        ///
        /// The caller should skip the call entirely when every *needed* page
        /// is buffered; once any disk access is required, the whole unit is
        /// transferred in one request.
        pub(crate) fn read_full_extent(&mut self, extent: PageRun) -> ReadOutcome {
            self.disk.charge(IoKind::Read, extent, false);
            let mut out = ReadOutcome {
                requests: 1,
                pages_transferred: extent.len,
                buffer_hits: 0,
            };
            if self.buf.capacity() == 0 {
                return out;
            }
            for p in extent.pages() {
                if self.buf.contains(&p) {
                    out.buffer_hits += 1;
                    self.buf.touch(&p);
                } else {
                    let ev = self.buf.insert(p, false);
                    self.charge_evictions(ev);
                }
            }
            out
        }

        /// Read the requested page offsets of `extent` with an SLM schedule
        /// bridging gaps of up to `max_gap` pages (§5.4.2). Already-buffered
        /// pages are excluded from the schedule. `mode` decides whether
        /// bridged pages enter the buffer (Figure 15: *vector read* drops
        /// them). The first issued request pays the seek iff
        /// `initial_seek`.
        pub(crate) fn read_extent_slm(
            &mut self,
            extent: PageRun,
            requested_offsets: &[u64],
            max_gap: u64,
            mode: TransferTechnique,
            initial_seek: bool,
        ) -> ReadOutcome {
            let mut out = ReadOutcome::default();
            let mut missing = Vec::with_capacity(requested_offsets.len());
            for &o in requested_offsets {
                debug_assert!(o < extent.len, "offset {o} outside extent");
                let p = extent.page(o);
                if self.buf.touch(&p) {
                    out.buffer_hits += 1;
                } else {
                    missing.push(o);
                }
            }
            let schedule: Vec<ScheduledRun> = slm_schedule(&missing, max_gap).collect();
            for (i, run) in schedule.iter().enumerate() {
                let skip = !(initial_seek && i == 0);
                let page_run = PageRun::new(extent.page(run.start), run.len);
                self.disk.charge(IoKind::Read, page_run, skip);
                out.requests += 1;
                out.pages_transferred += run.len;
                if self.buf.capacity() == 0 {
                    continue;
                }
                for off in run.start..run.start + run.len {
                    let requested = missing.binary_search(&off).is_ok();
                    if mode == TransferTechnique::VectorRead && !requested {
                        continue;
                    }
                    let p = extent.page(off);
                    if !self.buf.contains(&p) {
                        let ev = self.buf.insert(p, false);
                        self.charge_evictions(ev);
                    } else {
                        self.buf.touch(&p);
                    }
                }
            }
            out
        }

        /// The unit read of [`PoolSession::read_extent`] as the pool and
        /// the cluster organization did it before that call existed, one
        /// body per technique: *complete* is the resident check (touch
        /// the wanted pages when all are buffered) in front of
        /// [`read_full_extent`](BufferPool::read_full_extent); *read* and
        /// *vector read* are [`read_extent_slm`](BufferPool::read_extent_slm)
        /// with the disk's gap limit and a seek on the first request;
        /// *optimum* probes without touching, charges one analytical
        /// request for the missing pages and inserts them clean.
        ///
        /// [`PoolSession::read_extent`]: crate::shard::PoolSession::read_extent
        pub(crate) fn read_extent(
            &mut self,
            extent: PageRun,
            wanted: &[u64],
            technique: TransferTechnique,
        ) {
            match technique {
                TransferTechnique::Complete => {
                    if wanted.iter().all(|&o| self.buf.contains(&extent.page(o))) {
                        for &o in wanted {
                            self.buf.touch(&extent.page(o));
                        }
                    } else {
                        self.read_full_extent(extent);
                    }
                }
                TransferTechnique::Read | TransferTechnique::VectorRead => {
                    let gap = slm_gap_limit(&self.disk.params());
                    self.read_extent_slm(extent, wanted, gap, technique, true);
                }
                TransferTechnique::Optimum => {
                    let missing: Vec<u64> = wanted
                        .iter()
                        .copied()
                        .filter(|&o| !self.buf.contains(&extent.page(o)))
                        .collect();
                    if !missing.is_empty() {
                        let params = self.disk.params();
                        let k = missing.len() as u64;
                        let cost =
                            params.seek_ms + params.latency_ms + params.transfer_ms * k as f64;
                        self.disk.charge_raw(IoKind::Read, k, cost, true);
                        for o in missing {
                            let ev = self.buf.insert(extent.page(o), false);
                            self.charge_evictions(ev);
                        }
                    }
                }
            }
        }

        /// Remove a page from the buffer without any accounting,
        /// returning its dirty flag.
        pub(crate) fn remove_page(&mut self, page: &PageId) -> Option<bool> {
            self.buf.remove(page)
        }

        /// Write back all dirty pages, grouped into maximal consecutive runs.
        pub(crate) fn flush(&mut self) {
            let dirty = self.buf.dirty_pages();
            for run in runs_of(&dirty) {
                self.disk.charge(IoKind::Write, run, false);
            }
            for p in dirty {
                self.buf.clear_dirty(&p);
            }
        }

        /// Replace the buffer with an empty one of `capacity` pages (the
        /// buffer-size sweeps of Figures 14 and 16 resize between runs; a
        /// cold experiment boundary resets to the same capacity). Dirty
        /// pages are written back first.
        pub(crate) fn reset(&mut self, capacity: usize) {
            self.flush();
            self.buf = LruBuffer::new(capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::BufferPool;
    use super::*;
    use crate::disk::{Disk, DiskHandle};
    use crate::model::{PageRun, RegionId};
    use spatialdb_geom::rng::SmallRng;

    fn pool(cap: usize) -> (DiskHandle, BufferPool, RegionId) {
        let disk = Disk::with_defaults();
        let r = disk.create_region("data");
        let pool = BufferPool::new(disk.clone(), cap);
        (disk, pool, r)
    }

    fn pg(r: RegionId, o: u64) -> PageId {
        PageId::new(r, o)
    }

    #[test]
    fn lru_eviction_order() {
        let mut b = LruBuffer::new(2);
        let r = RegionId(0);
        assert!(b.insert(pg(r, 1), false).is_empty());
        assert!(b.insert(pg(r, 2), false).is_empty());
        let ev = b.insert(pg(r, 3), false);
        assert_eq!(ev, vec![(pg(r, 1), false)]);
        // Touch 2, insert 4 → 3 evicted.
        assert!(b.touch(&pg(r, 2)));
        let ev = b.insert(pg(r, 4), false);
        assert_eq!(ev, vec![(pg(r, 3), false)]);
    }

    #[test]
    fn lru_pinned_pages_survive() {
        let mut b = LruBuffer::new(2);
        let r = RegionId(0);
        b.insert(pg(r, 1), false);
        b.pin(&pg(r, 1));
        b.insert(pg(r, 2), false);
        let ev = b.insert(pg(r, 3), false);
        // Page 1 is pinned; page 2 is evicted instead.
        assert_eq!(ev, vec![(pg(r, 2), false)]);
        assert!(b.contains(&pg(r, 1)));
    }

    /// The replacement rule as the buffer had it before pinned pages
    /// left the list, implemented literally: every resident page in one
    /// `Vec` ordered MRU → LRU, pinned or not, and the victim is the
    /// LRU-most evictable element.
    struct NaiveLru {
        capacity: usize,
        /// `(page, dirty, pinned)`, most recently used first.
        pages: Vec<(PageId, bool, bool)>,
    }

    impl NaiveLru {
        fn position(&self, page: &PageId) -> Option<usize> {
            self.pages.iter().position(|(p, ..)| p == page)
        }

        fn evict_down_to_capacity(&mut self) -> Vec<(PageId, bool)> {
            let mut evicted = Vec::new();
            while self.pages.len() > self.capacity {
                let Some(victim) = self.pages.iter().rposition(|&(_, _, pinned)| !pinned) else {
                    break;
                };
                let (page, dirty, _) = self.pages.remove(victim);
                evicted.push((page, dirty));
            }
            evicted
        }

        fn touch(&mut self, page: &PageId) -> bool {
            let Some(i) = self.position(page) else {
                return false;
            };
            let entry = self.pages.remove(i);
            self.pages.insert(0, entry);
            true
        }

        fn insert(&mut self, page: PageId, dirty: bool) -> Vec<(PageId, bool)> {
            if self.capacity == 0 {
                return Vec::new();
            }
            if self.touch(&page) {
                self.pages[0].1 |= dirty;
                return Vec::new();
            }
            self.pages.insert(0, (page, dirty, false));
            self.evict_down_to_capacity()
        }

        fn set_flags(
            &mut self,
            page: &PageId,
            set: impl FnOnce(&mut (PageId, bool, bool)),
        ) -> bool {
            self.position(page)
                .map(|i| set(&mut self.pages[i]))
                .is_some()
        }

        fn remove(&mut self, page: &PageId) -> Option<bool> {
            self.position(page).map(|i| self.pages.remove(i).1)
        }
    }

    /// Pinned pages are off the replacement list; the victims, and with
    /// them every hit / miss and dirty write-back a pool derives from the
    /// buffer, must be the ones the walk past pinned pages chose.
    #[test]
    fn lru_matches_the_naive_reference_with_pins() {
        let r = RegionId(0);
        for capacity in [0usize, 1, 16] {
            let mut buf = LruBuffer::new(capacity);
            let mut naive = NaiveLru {
                capacity,
                pages: Vec::new(),
            };
            let mut rng = SmallRng::seed_from_u64(0x1994_0024 + capacity as u64);
            for step in 0..20_000u32 {
                let page = pg(r, rng.gen_range(0..64u64));
                let at = format!("capacity {capacity}, step {step}, {page:?}");
                match rng.gen_range(0..100u64) {
                    0..=26 => {
                        assert_eq!(buf.insert(page, false), naive.insert(page, false), "{at}")
                    }
                    27..=36 => assert_eq!(buf.insert(page, true), naive.insert(page, true), "{at}"),
                    37..=61 => assert_eq!(buf.touch(&page), naive.touch(&page), "{at}"),
                    62..=69 => assert_eq!(
                        buf.pin(&page),
                        naive.set_flags(&page, |e| e.2 = true),
                        "{at}"
                    ),
                    70..=82 => assert_eq!(buf.remove(&page), naive.remove(&page), "{at}"),
                    83..=91 => assert_eq!(
                        buf.mark_dirty(&page),
                        naive.set_flags(&page, |e| e.1 = true),
                        "{at}"
                    ),
                    _ => {
                        buf.clear_dirty(&page);
                        naive.set_flags(&page, |e| e.1 = false);
                    }
                }
                assert_eq!(buf.len(), naive.pages.len(), "{at}");
                for o in 0..64 {
                    let p = pg(r, o);
                    assert_eq!(
                        buf.contains(&p),
                        naive.position(&p).is_some(),
                        "{at}: {p:?}"
                    );
                }
                let mut dirty: Vec<PageId> =
                    naive.pages.iter().filter(|e| e.1).map(|e| e.0).collect();
                dirty.sort_unstable();
                assert_eq!(buf.dirty_pages(), dirty, "{at}");
                // The list is the reference order with the pinned pages
                // taken out, and the counters describe it.
                let evictable: Vec<PageId> =
                    naive.pages.iter().filter(|e| !e.2).map(|e| e.0).collect();
                assert_eq!(buf.listed(), evictable, "{at}");
                assert_eq!(
                    (buf.listed, buf.pinned),
                    (evictable.len(), buf.len() - evictable.len())
                );
            }
        }
    }

    #[test]
    fn lru_dirty_flag_propagates() {
        let mut b = LruBuffer::new(1);
        let r = RegionId(0);
        b.insert(pg(r, 1), false);
        b.mark_dirty(&pg(r, 1));
        let ev = b.insert(pg(r, 2), false);
        assert_eq!(ev, vec![(pg(r, 1), true)]);
    }

    #[test]
    fn lru_zero_capacity_retains_nothing() {
        let mut b = LruBuffer::new(0);
        let r = RegionId(0);
        assert!(b.insert(pg(r, 1), true).is_empty());
        assert!(!b.contains(&pg(r, 1)));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn read_page_hit_and_miss() {
        let (disk, mut pool, r) = pool(4);
        assert!(!pool.read_page(pg(r, 0))); // miss: 16 ms
        assert!(pool.read_page(pg(r, 0))); // hit: free
        let s = disk.stats();
        assert_eq!(s.read_requests, 1);
        assert_eq!(s.io_ms, 16.0);
    }

    #[test]
    fn dirty_eviction_charges_write() {
        let (disk, mut pool, r) = pool(1);
        pool.write_page(pg(r, 0)); // buffered dirty, no I/O yet
        assert_eq!(disk.stats().requests(), 0);
        pool.read_page(pg(r, 1)); // evicts dirty page 0 → 1 write + 1 read
        let s = disk.stats();
        assert_eq!(s.write_requests, 1);
        assert_eq!(s.read_requests, 1);
    }

    #[test]
    fn read_set_groups_runs() {
        let (disk, mut pool, r) = pool(16);
        let pages = vec![pg(r, 0), pg(r, 1), pg(r, 2), pg(r, 8)];
        let out = pool.read_set(&pages, SeekPolicy::WithinCluster { initial_seek: true });
        assert_eq!(out.requests, 2);
        assert_eq!(out.pages_transferred, 4);
        // First request seeks (9+6+3), second one skips the seek (6+1).
        assert_eq!(disk.stats().io_ms, 18.0 + 7.0);
        assert_eq!(disk.stats().seeks, 1);
    }

    #[test]
    fn read_set_hits_reduce_transfers() {
        let (_, mut pool, r) = pool(16);
        pool.read_page(pg(r, 1));
        let out = pool.read_set(
            &[pg(r, 0), pg(r, 1), pg(r, 2)],
            SeekPolicy::WithinCluster { initial_seek: true },
        );
        assert_eq!(out.buffer_hits, 1);
        assert_eq!(out.requests, 2); // runs [0] and [2]
        assert_eq!(out.pages_transferred, 2);
    }

    #[test]
    fn full_extent_read_is_one_request() {
        let (disk, mut pool, r) = pool(64);
        let extent = PageRun::new(pg(r, 100), 20);
        let out = pool.read_full_extent(extent);
        assert_eq!(out.requests, 1);
        assert_eq!(out.pages_transferred, 20);
        assert_eq!(disk.stats().io_ms, 35.0); // 9 + 6 + 20
        assert!(pool.buffer().contains(&pg(r, 119)));
    }

    #[test]
    fn slm_read_bridges_gaps_and_modes_differ() {
        let (_, mut pool, r) = pool(64);
        let extent = PageRun::new(pg(r, 0), 12);
        // Requested offsets 0, 2, 3 with gap 1 bridged.
        let out = pool.read_extent_slm(extent, &[0, 2, 3], 1, TransferTechnique::Read, true);
        assert_eq!(out.requests, 1);
        assert_eq!(out.pages_transferred, 4);
        assert!(pool.buffer().contains(&pg(r, 1))); // bridged page kept
        pool.reset(64);
        let out = pool.read_extent_slm(extent, &[0, 2, 3], 1, TransferTechnique::VectorRead, true);
        assert_eq!(out.pages_transferred, 4);
        assert!(!pool.buffer().contains(&pg(r, 1))); // bridged page dropped
        assert!(pool.buffer().contains(&pg(r, 3)));
    }

    #[test]
    fn slm_read_excludes_buffered_pages() {
        let (_, mut pool, r) = pool(64);
        let extent = PageRun::new(pg(r, 0), 12);
        pool.read_page(pg(r, 2));
        let out = pool.read_extent_slm(extent, &[0, 2, 4], 1, TransferTechnique::Read, true);
        assert_eq!(out.buffer_hits, 1);
        // Missing offsets 0 and 4: gap of 3 > 1 → two requests.
        assert_eq!(out.requests, 2);
        assert_eq!(out.pages_transferred, 2);
    }

    #[test]
    fn flush_groups_consecutive_dirty_pages() {
        let (disk, mut pool, r) = pool(16);
        pool.write_page(pg(r, 0));
        pool.write_page(pg(r, 1));
        pool.write_page(pg(r, 5));
        pool.flush();
        let s = disk.stats();
        assert_eq!(s.write_requests, 2); // runs [0,1] and [5]
        assert_eq!(s.pages_written, 3);
        // Second flush writes nothing.
        let before = disk.stats();
        pool.flush();
        assert_eq!(disk.stats().since(&before).requests(), 0);
    }

    #[test]
    fn reset_writes_back_dirty_pages_before_resizing() {
        // At the same capacity — an experiment boundary: the deferred
        // writebacks are charged (one run for the consecutive dirty
        // pages), clean pages just drop.
        let (disk, mut pool, r) = pool(8);
        pool.write_page(pg(r, 0));
        pool.write_page(pg(r, 1));
        pool.read_page(pg(r, 5));
        let before = disk.stats();
        pool.reset(8);
        let s = disk.stats().since(&before);
        assert_eq!(s.write_requests, 1);
        assert_eq!(s.pages_written, 2);
        assert_eq!(pool.buffer().len(), 0);
        // At another capacity.
        pool.write_page(pg(r, 4));
        let before = disk.stats();
        pool.reset(16);
        let s = disk.stats().since(&before);
        assert_eq!(s.write_requests, 1);
        assert_eq!(s.pages_written, 1);
        assert_eq!(pool.buffer().capacity(), 16);
        assert_eq!(pool.buffer().len(), 0);
        // A clean pool resets for free.
        let before = disk.stats();
        pool.reset(8);
        assert_eq!(disk.stats().since(&before).requests(), 0);
    }

    #[test]
    fn update_page_charges_read_once() {
        let (disk, mut pool, r) = pool(4);
        assert!(!pool.update_page(pg(r, 0)));
        assert!(pool.update_page(pg(r, 0)));
        assert_eq!(disk.stats().read_requests, 1);
        // The page is dirty: evicting it later writes it.
        assert_eq!(pool.buffer().dirty_pages(), vec![pg(r, 0)]);
    }

    #[test]
    fn zero_capacity_pool_write_through() {
        let (disk, mut pool, r) = pool(0);
        pool.write_page(pg(r, 0));
        assert_eq!(disk.stats().write_requests, 1);
        pool.update_page(pg(r, 1));
        let s = disk.stats();
        assert_eq!(s.read_requests, 1);
        assert_eq!(s.write_requests, 2);
    }
}
