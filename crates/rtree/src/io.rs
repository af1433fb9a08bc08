//! Node I/O hooks.
//!
//! The tree reports every node access through a [`NodeIo`] implementation.
//! Experiments pass a [`PoolSession`] (`&mut pool.session()`) so that
//! node visits become (buffered) disk requests; unit tests and in-memory
//! use pass [`NoIo`].

use spatialdb_disk::{PageId, PoolSession, ShardedPool};

/// Page size used to derive node capacities (the paper's 4 KB).
pub const PAGE_BYTES: usize = spatialdb_disk::PAGE_SIZE;

/// Receiver of node access events.
pub trait NodeIo {
    /// A node page is read (descending the tree, queries).
    fn read(&mut self, page: PageId);
    /// An existing node page is modified (entry added/removed, MBR
    /// adjusted). Implies a read if the page is not buffered.
    fn modify(&mut self, page: PageId);
    /// A freshly allocated node page is written for the first time
    /// (no prior read needed).
    fn fresh(&mut self, page: PageId);
    /// A node page is released (node deleted).
    fn release(&mut self, page: PageId);
}

/// No-op I/O hook: the tree runs as a pure in-memory index.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoIo;

impl NodeIo for NoIo {
    #[inline]
    fn read(&mut self, _page: PageId) {}
    #[inline]
    fn modify(&mut self, _page: PageId) {}
    #[inline]
    fn fresh(&mut self, _page: PageId) {}
    #[inline]
    fn release(&mut self, _page: PageId) {}
}

/// A borrowed hook, so a walk that owns its hook (and ends it when it is
/// done, as the MBR join ends its pool session) can run on a caller's.
impl<T: NodeIo + ?Sized> NodeIo for &mut T {
    #[inline]
    fn read(&mut self, page: PageId) {
        (**self).read(page);
    }

    fn modify(&mut self, page: PageId) {
        (**self).modify(page);
    }

    fn fresh(&mut self, page: PageId) {
        (**self).fresh(page);
    }

    fn release(&mut self, page: PageId) {
        (**self).release(page);
    }
}

/// The tree's accesses to the pool: one session for a whole walk or
/// update, so it locks and charges once.
impl NodeIo for PoolSession<'_> {
    #[inline]
    fn read(&mut self, page: PageId) {
        self.read_page(page);
    }

    fn modify(&mut self, page: PageId) {
        self.update_page(page);
    }

    fn fresh(&mut self, page: PageId) {
        self.write_page(page);
    }

    fn release(&mut self, page: PageId) {
        self.remove_page(&page);
    }
}

/// One session per node access. Kept only because the repo benchmark's
/// layer probes pass `&mut pool.as_ref()` to the MBR join; the engine
/// passes a [`PoolSession`].
impl NodeIo for &ShardedPool {
    fn read(&mut self, page: PageId) {
        self.session().read(page);
    }

    fn modify(&mut self, page: PageId) {
        self.session().modify(page);
    }

    fn fresh(&mut self, page: PageId) {
        self.session().fresh(page);
    }

    fn release(&mut self, page: PageId) {
        self.session().release(page);
    }
}

/// I/O hook that counts accesses (tests and diagnostics).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingIo {
    /// Node page reads.
    pub reads: u64,
    /// Node page modifications.
    pub modifies: u64,
    /// Fresh node page writes.
    pub fresh_writes: u64,
    /// Node page releases.
    pub releases: u64,
}

impl NodeIo for CountingIo {
    fn read(&mut self, _page: PageId) {
        self.reads += 1;
    }

    fn modify(&mut self, _page: PageId) {
        self.modifies += 1;
    }

    fn fresh(&mut self, _page: PageId) {
        self.fresh_writes += 1;
    }

    fn release(&mut self, _page: PageId) {
        self.releases += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatialdb_disk::{Disk, RegionId};

    #[test]
    fn counting_io_counts() {
        let mut c = CountingIo::default();
        let p = PageId::new(RegionId(0), 0);
        c.read(p);
        c.read(p);
        c.modify(p);
        c.fresh(p);
        c.release(p);
        assert_eq!(c.reads, 2);
        assert_eq!(c.modifies, 1);
        assert_eq!(c.fresh_writes, 1);
        assert_eq!(c.releases, 1);
    }

    #[test]
    fn buffer_pool_hook_charges_disk() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("tree");
        let pool = ShardedPool::new(disk.clone(), 8);
        let p = PageId::new(r, 0);
        {
            let mut session = pool.session();
            session.read(p); // miss
            session.read(p); // hit
            session.modify(p); // buffered → dirty only
            session.fresh(PageId::new(r, 1));
            // Charged when the session ends.
            assert_eq!(disk.stats().read_requests, 0);
        }
        assert_eq!(disk.stats().read_requests, 1);
        assert_eq!(disk.stats().write_requests, 0); // deferred until flush
        pool.flush();
        assert_eq!(disk.stats().write_requests, 1); // pages 0,1 consecutive
        assert_eq!(disk.stats().pages_written, 2);
    }
}
