//! The page allocator.
//!
//! [`ExtentAllocator`] allocates and frees arbitrary extents with a
//! coalescing first-fit free list. The R\*-tree page files and the
//! primary organization's overflow file use single-page or multi-page
//! extents from it. In a dynamic environment this is exactly why pages
//! that are spatially adjacent end up physically scattered — freed
//! extents are reused in address order, not in spatial order.

use crate::model::{PageId, PageRun, RegionId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// First-fit extent allocator with free-list coalescing.
///
/// [`Clone`] — part of every store snapshot — shares the free list: a
/// clone costs a refcount bump however fragmented the region is, and
/// the first `alloc` from a hole or `free` on either side copies the
/// list once.
#[derive(Clone, Debug)]
pub struct ExtentAllocator {
    region: RegionId,
    next: u64,
    /// Free extents keyed by start offset → length. Adjacent extents are
    /// coalesced on free.
    free: Arc<BTreeMap<u64, u64>>,
    allocated_pages: u64,
}

impl ExtentAllocator {
    /// Create an allocator over a fresh region.
    pub fn new(region: RegionId) -> Self {
        ExtentAllocator {
            region,
            next: 0,
            free: Arc::default(),
            allocated_pages: 0,
        }
    }

    /// The region this allocator owns.
    #[inline]
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Allocate an extent of exactly `n` pages (first fit, splitting a
    /// larger free extent if needed; otherwise grow the region).
    pub fn alloc(&mut self, n: u64) -> PageRun {
        assert!(n > 0, "cannot allocate an empty extent");
        let found = self
            .free
            .iter()
            .find(|(_, &len)| len >= n)
            .map(|(&start, &len)| (start, len));
        self.allocated_pages += n;
        if let Some((start, len)) = found {
            let free = Arc::make_mut(&mut self.free);
            free.remove(&start);
            if len > n {
                free.insert(start + n, len - n);
            }
            PageRun::new(PageId::new(self.region, start), n)
        } else {
            let run = PageRun::new(PageId::new(self.region, self.next), n);
            self.next += n;
            run
        }
    }

    /// Allocate a single page.
    pub fn alloc_page(&mut self) -> PageId {
        self.alloc(1).start
    }

    /// Return an extent to the free list, coalescing with neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the extent belongs to a different region, extends past
    /// the allocation frontier, or overlaps a free extent (double free).
    pub fn free(&mut self, run: PageRun) {
        assert_eq!(run.start.region, self.region, "foreign extent");
        if run.is_empty() {
            return;
        }
        assert!(run.end_offset() <= self.next, "extent beyond frontier");
        let free = Arc::make_mut(&mut self.free);
        let start = run.start.offset;
        let mut new_start = start;
        let mut new_len = run.len;
        // Coalesce with the predecessor.
        if let Some((&ps, &pl)) = free.range(..start).next_back() {
            assert!(ps + pl <= start, "double free (overlaps predecessor)");
            if ps + pl == start {
                free.remove(&ps);
                new_start = ps;
                new_len += pl;
            }
        }
        // Coalesce with the successor.
        if let Some((&ss, &sl)) = free.range(start..).next() {
            assert!(start + run.len <= ss, "double free (overlaps successor)");
            if start + run.len == ss {
                free.remove(&ss);
                new_len += sl;
            }
        }
        self.allocated_pages -= run.len;
        free.insert(new_start, new_len);
    }

    /// Free a single page.
    pub fn free_page(&mut self, page: PageId) {
        self.free(PageRun::new(page, 1));
    }

    /// Pages currently allocated (not on the free list).
    #[inline]
    pub fn allocated_pages(&self) -> u64 {
        self.allocated_pages
    }

    /// Total pages the region has grown to (allocation frontier).
    #[inline]
    pub fn frontier(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;

    fn region() -> RegionId {
        Disk::with_defaults().create_region("t")
    }

    #[test]
    fn extent_alloc_grows_frontier() {
        let mut a = ExtentAllocator::new(region());
        let x = a.alloc(4);
        let y = a.alloc(2);
        assert_eq!(x.start.offset, 0);
        assert_eq!(y.start.offset, 4);
        assert_eq!(a.allocated_pages(), 6);
        assert_eq!(a.frontier(), 6);
    }

    #[test]
    fn extent_reuse_first_fit() {
        let mut a = ExtentAllocator::new(region());
        let x = a.alloc(4);
        let _y = a.alloc(4);
        a.free(x);
        let z = a.alloc(2);
        // Reuses the freed hole at offset 0.
        assert_eq!(z.start.offset, 0);
        let w = a.alloc(2);
        assert_eq!(w.start.offset, 2);
        assert_eq!(a.frontier(), 8);
    }

    #[test]
    fn extent_coalescing() {
        let mut a = ExtentAllocator::new(region());
        let x = a.alloc(2);
        let y = a.alloc(2);
        let z = a.alloc(2);
        a.free(x);
        a.free(z);
        a.free(y); // merges all three into one extent of 6
        let big = a.alloc(6);
        assert_eq!(big.start.offset, 0);
        assert_eq!(a.frontier(), 6);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn extent_double_free_detected() {
        let mut a = ExtentAllocator::new(region());
        let x = a.alloc(2);
        a.free(x);
        a.free(x);
    }

    #[test]
    fn extent_single_page_helpers() {
        let mut a = ExtentAllocator::new(region());
        let p = a.alloc_page();
        assert_eq!(a.allocated_pages(), 1);
        a.free_page(p);
        assert_eq!(a.allocated_pages(), 0);
        let q = a.alloc_page();
        assert_eq!(q, p); // hole reused
    }

    #[test]
    fn a_clone_shares_the_free_list_until_either_side_changes_it() {
        let mut a = ExtentAllocator::new(region());
        let runs: Vec<PageRun> = (0..8).map(|_| a.alloc(2)).collect();
        for hole in runs.iter().step_by(2) {
            a.free(*hole);
        }
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.free, &b.free));
        // Growing the region reads the list only.
        assert_eq!(b.alloc(3).start.offset, 16);
        assert!(Arc::ptr_eq(&a.free, &b.free));
        // Taking a hole copies it; the original keeps its own.
        assert_eq!(b.alloc(2).start.offset, 0);
        assert!(!Arc::ptr_eq(&a.free, &b.free));
        assert_eq!(a.alloc(2).start.offset, 0);
        assert_eq!((a.allocated_pages(), b.allocated_pages()), (10, 13));
    }

    #[test]
    fn fragmentation_skips_small_holes() {
        let mut a = ExtentAllocator::new(region());
        let x = a.alloc(1);
        let _y = a.alloc(1);
        a.free(x);
        let big = a.alloc(3); // hole of 1 page does not fit
        assert_eq!(big.start.offset, 2);
    }
}
