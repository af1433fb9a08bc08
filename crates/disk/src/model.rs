//! Pages, page runs, regions and the disk cost parameters.

use std::fmt;

/// Page size in bytes. The paper's experiments use 4 KB pages (§5.1).
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a disk *region*.
///
/// A region models one file / storage area on the disk: the R\*-tree page
/// file, the sequential object file of the secondary organization, the
/// cluster-unit area, the overflow file of the primary organization, …
/// Pages of *different* regions are never physically consecutive, so a
/// request can never span two regions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RegionId(pub u16);

/// A physical page address: a region plus a page offset within it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId {
    /// Region (file) this page belongs to.
    pub region: RegionId,
    /// Page offset within the region.
    pub offset: u64,
}

// A page id is two words wherever it is stored — LRU nodes, request
// traces, every node of every tree.
const _: () = assert!(std::mem::size_of::<PageId>() == 16);

/// The 64-bit finalizer of MurmurHash3: a fixed bijection every output
/// bit of which depends on every input bit, so dense and strided keys
/// both spread evenly over a table. The engine's fixed hash for integer
/// keys it generates itself (page ids, object ids).
#[inline]
pub fn mix64(key: u64) -> u64 {
    let mut h = key;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

impl PageId {
    /// Create a page id.
    #[inline]
    pub const fn new(region: RegionId, offset: u64) -> Self {
        PageId { region, offset }
    }

    /// `true` if `other` is the page physically following `self`
    /// (same region, adjacent offset).
    ///
    /// Per §3.1 the time to switch tracks within a cylinder is neglected,
    /// so adjacency in the linear region address space is the only
    /// requirement for two pages to be readable in one request.
    #[inline]
    pub fn is_followed_by(&self, other: &PageId) -> bool {
        self.region == other.region && other.offset == self.offset + 1
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}:{}", self.region.0, self.offset)
    }
}

/// A run of physically consecutive pages within one region.
///
/// A `PageRun` is exactly the unit of one disk request: all its pages can
/// be transferred after a single seek and rotational delay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageRun {
    /// First page of the run.
    pub start: PageId,
    /// Number of pages in the run (may be zero for an empty run).
    pub len: u64,
}

impl PageRun {
    /// Create a run.
    #[inline]
    pub const fn new(start: PageId, len: u64) -> Self {
        PageRun { start, len }
    }

    /// The empty run at `start`.
    #[inline]
    pub const fn empty(start: PageId) -> Self {
        PageRun { start, len: 0 }
    }

    /// `true` if the run contains no pages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page offset one past the last page.
    #[inline]
    pub fn end_offset(&self) -> u64 {
        self.start.offset + self.len
    }

    /// `true` if `page` lies inside the run.
    #[inline]
    pub fn contains(&self, page: &PageId) -> bool {
        page.region == self.start.region
            && page.offset >= self.start.offset
            && page.offset < self.end_offset()
    }

    /// Iterate over the pages of the run.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + Clone {
        let region = self.start.region;
        (self.start.offset..self.end_offset()).map(move |o| PageId::new(region, o))
    }

    /// The `i`-th page of the run.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn page(&self, i: u64) -> PageId {
        assert!(
            i < self.len,
            "page index {i} out of run of {} pages",
            self.len
        );
        PageId::new(self.start.region, self.start.offset + i)
    }

    /// Split the run in two at `at` pages ( `0 <= at <= len` ).
    pub fn split_at(&self, at: u64) -> (PageRun, PageRun) {
        assert!(at <= self.len);
        (
            PageRun::new(self.start, at),
            PageRun::new(
                PageId::new(self.start.region, self.start.offset + at),
                self.len - at,
            ),
        )
    }
}

impl fmt::Display for PageRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.start, self.len)
    }
}

/// Disk timing parameters (§5.1 of the paper, average values for 1994
/// disks per \[HS94\]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskParams {
    /// Average seek time in milliseconds.
    pub seek_ms: f64,
    /// Average rotational latency in milliseconds.
    pub latency_ms: f64,
    /// Transfer time for one page in milliseconds.
    pub transfer_ms: f64,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            seek_ms: 9.0,
            latency_ms: 6.0,
            transfer_ms: 1.0,
        }
    }
}

impl DiskParams {
    /// Cost in milliseconds of one request transferring `pages` consecutive
    /// pages, optionally skipping the seek.
    ///
    /// The `skip_seek` case implements the assumption of §5.4.3: when a
    /// cluster unit is read with several requests (threshold / SLM /
    /// page-by-page techniques), the requests after the first stay on the
    /// same cylinder — *"one seek operation is sufficient for reading one
    /// cluster unit"* — and pay only latency plus transfer.
    #[inline]
    pub fn request_ms(&self, pages: u64, skip_seek: bool) -> f64 {
        if pages == 0 {
            return 0.0;
        }
        let seek = if skip_seek { 0.0 } else { self.seek_ms };
        seek + self.latency_ms + self.transfer_ms * pages as f64
    }

    /// The paper's `t_compl(c)` (§5.4.1): cost of reading a complete
    /// cluster of `size_pages` pages at once.
    #[inline]
    pub fn t_compl(&self, size_pages: u64) -> f64 {
        self.seek_ms + self.latency_ms + self.transfer_ms * size_pages as f64
    }

    /// The paper's `t_page` (§5.4.1): estimated cost of answering a window
    /// query on one cluster page-by-page, with `avg_entries` entries per
    /// data page and `avg_pages_per_object` pages occupied per object:
    /// `t_s + noe∅ · (t_l + nop∅ · t_t)`.
    #[inline]
    pub fn t_page(&self, avg_entries: f64, avg_pages_per_object: f64) -> f64 {
        self.seek_ms + avg_entries * (self.latency_ms + avg_pages_per_object * self.transfer_ms)
    }

    /// The geometric threshold `T(c) = t_compl(c) / t_page` of §5.4.1.
    ///
    /// A cluster unit whose degree of overlap with the query window exceeds
    /// `T(c)` is transferred completely; below the threshold the objects
    /// are read page-by-page.
    #[inline]
    pub fn geometric_threshold(
        &self,
        cluster_pages: u64,
        avg_entries: f64,
        avg_pages_per_object: f64,
    ) -> f64 {
        self.t_compl(cluster_pages) / self.t_page(avg_entries, avg_pages_per_object)
    }
}

/// Group a sorted, deduplicated slice of pages into maximal physically
/// consecutive runs.
///
/// This is the basic request-forming operation: the cost of accessing the
/// set is the sum of the per-run request costs.
pub fn runs_of(pages: &[PageId]) -> Vec<PageRun> {
    let mut rest = pages;
    std::iter::from_fn(move || {
        let first = *rest.first()?;
        let followers = rest.windows(2).take_while(|w| {
            debug_assert!(w[0] < w[1], "pages must be sorted and deduplicated");
            w[0].is_followed_by(&w[1])
        });
        let len = 1 + followers.count();
        rest = &rest[len..];
        Some(PageRun::new(first, len as u64))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: RegionId = RegionId(1);
    const S: RegionId = RegionId(2);

    fn p(o: u64) -> PageId {
        PageId::new(R, o)
    }

    #[test]
    fn adjacency_within_region() {
        assert!(p(4).is_followed_by(&p(5)));
        assert!(!p(4).is_followed_by(&p(6)));
        assert!(!p(4).is_followed_by(&p(4)));
        assert!(!p(4).is_followed_by(&PageId::new(S, 5)));
    }

    #[test]
    fn run_contains_and_pages() {
        let run = PageRun::new(p(10), 3);
        assert!(run.contains(&p(10)));
        assert!(run.contains(&p(12)));
        assert!(!run.contains(&p(13)));
        assert!(!run.contains(&PageId::new(S, 11)));
        let pages: Vec<_> = run.pages().collect();
        assert_eq!(pages, vec![p(10), p(11), p(12)]);
        assert_eq!(run.page(2), p(12));
    }

    #[test]
    fn run_split() {
        let run = PageRun::new(p(0), 5);
        let (a, b) = run.split_at(2);
        assert_eq!(a, PageRun::new(p(0), 2));
        assert_eq!(b, PageRun::new(p(2), 3));
        let (c, d) = run.split_at(0);
        assert!(c.is_empty());
        assert_eq!(d, run);
    }

    #[test]
    fn request_cost_formula() {
        let d = DiskParams::default();
        assert_eq!(d.request_ms(1, false), 16.0);
        assert_eq!(d.request_ms(20, false), 35.0);
        assert_eq!(d.request_ms(20, true), 26.0);
        assert_eq!(d.request_ms(0, false), 0.0);
    }

    #[test]
    fn paper_threshold_formulas() {
        let d = DiskParams::default();
        // t_compl for a 20-page cluster: 9 + 6 + 20 = 35 ms.
        assert_eq!(d.t_compl(20), 35.0);
        // t_page with 58 entries each occupying ~0.16 pages:
        // 9 + 58*(6 + 0.16*1) = 9 + 357.28
        assert!((d.t_page(58.0, 0.16) - 366.28).abs() < 1e-9);
        let t = d.geometric_threshold(20, 58.0, 0.16);
        assert!((t - 35.0 / 366.28).abs() < 1e-9);
    }

    #[test]
    fn runs_grouping() {
        let pages = vec![p(1), p(2), p(3), p(7), p(9), p(10)];
        let runs = runs_of(&pages);
        assert_eq!(
            runs,
            vec![
                PageRun::new(p(1), 3),
                PageRun::new(p(7), 1),
                PageRun::new(p(9), 2)
            ]
        );
    }

    #[test]
    fn runs_respect_region_boundaries() {
        let pages = vec![p(1), p(2), PageId::new(S, 3), PageId::new(S, 4)];
        let runs = runs_of(&pages);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].len, 2);
        assert_eq!(runs[1].start, PageId::new(S, 3));
    }

    #[test]
    fn runs_empty_input() {
        assert!(runs_of(&[]).is_empty());
    }
}
