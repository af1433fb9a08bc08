//! The buddy system for cluster units (§5.3.1).
//!
//! Every cluster unit corresponds to a physical unit of limited size. The
//! buddy system works with a limited number of physical unit sizes
//! `Smax · 2^-i (i ≥ 0)`; each cluster unit uses the buddy of the smallest
//! possible size. When a cluster unit outgrows its buddy it is moved into
//! the next larger buddy (costing I/O — this is the construction-cost
//! increase visible in Figure 7); buddies no longer used are given back to
//! the file management system.
//!
//! Two configurations from the paper:
//!
//! * the **full** buddy system with `log2(Smax)` sizes guarantees ≥ 50 %
//!   and averages ≈ 66.7 % utilization;
//! * the **restricted** buddy system of Figure 7 uses only three sizes
//!   (`Smax`, `Smax/2`, `Smax/4`) and already recovers
//!   primary-organization-level storage utilization.
//!
//! The degenerate single-size configuration ([`BuddyConfig::fixed`])
//! models the plain cluster organization of Figure 6, where every cluster
//! unit occupies the full `Smax` because *"the non-occupied pages of a
//! cluster unit cannot be used for other purposes"*.
//!
//! Implementation note: the paper's `Smax` values (20/40/80 pages) are not
//! powers of two, so block sizes are derived by repeated integer halving
//! rather than strict binary splitting. Blocks are carved from a
//! free-list extent allocator with coalescing, which is functionally
//! equivalent for everything the experiments measure (occupied pages and
//! unit-move I/O).

use crate::alloc::ExtentAllocator;
use crate::model::{PageRun, RegionId};

/// The set of physical unit sizes a [`BuddyAllocator`] may hand out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuddyConfig {
    /// Allowed unit sizes in pages, descending, deduplicated, all ≥ 1.
    sizes: Vec<u64>,
}

impl BuddyConfig {
    /// Build a configuration from explicit sizes (any order, duplicates
    /// removed).
    ///
    /// # Panics
    ///
    /// Panics if no size is given or any size is zero.
    pub fn from_sizes(mut sizes: Vec<u64>) -> Self {
        assert!(!sizes.is_empty(), "buddy config needs at least one size");
        assert!(sizes.iter().all(|&s| s > 0), "zero-sized buddy");
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes.dedup();
        BuddyConfig { sizes }
    }

    /// Single size `smax_pages`: the plain cluster organization without a
    /// buddy system (every unit occupies the full `Smax`).
    pub fn fixed(smax_pages: u64) -> Self {
        Self::from_sizes(vec![smax_pages])
    }

    /// Full buddy system: sizes `Smax, ⌈Smax/2⌉, ⌈Smax/4⌉, …, 1`.
    pub fn full(smax_pages: u64) -> Self {
        let mut sizes = Vec::new();
        let mut s = smax_pages;
        loop {
            sizes.push(s);
            if s == 1 {
                break;
            }
            s = s.div_ceil(2);
        }
        Self::from_sizes(sizes)
    }

    /// Restricted buddy system of Figure 7: exactly the three sizes
    /// `Smax`, `⌈Smax/2⌉`, `⌈Smax/4⌉`.
    pub fn restricted(smax_pages: u64) -> Self {
        Self::from_sizes(vec![
            smax_pages,
            smax_pages.div_ceil(2),
            smax_pages.div_ceil(4),
        ])
    }

    /// Allowed sizes, descending.
    #[inline]
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Smallest allowed size that fits `pages`, or `None` if `pages`
    /// exceeds the maximum unit size.
    pub fn class_for(&self, pages: u64) -> Option<u64> {
        self.sizes.iter().rev().copied().find(|&s| s >= pages)
    }
}

/// Allocator handing out physical units of the configured sizes.
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    config: BuddyConfig,
    inner: ExtentAllocator,
    units_live: u64,
}

impl BuddyAllocator {
    /// Create an allocator over a fresh region.
    pub fn new(region: RegionId, config: BuddyConfig) -> Self {
        BuddyAllocator {
            config,
            inner: ExtentAllocator::new(region),
            units_live: 0,
        }
    }

    /// The configuration in use.
    #[inline]
    pub fn config(&self) -> &BuddyConfig {
        &self.config
    }

    /// Allocate the smallest buddy that can hold `pages_needed` pages.
    ///
    /// Returns `None` if `pages_needed` exceeds the maximum unit size
    /// (the storage layer must then split the cluster unit first).
    pub fn alloc_for(&mut self, pages_needed: u64) -> Option<PageRun> {
        let class = self.config.class_for(pages_needed.max(1))?;
        self.units_live += 1;
        Some(self.inner.alloc(class))
    }

    /// Return a previously allocated buddy.
    pub fn free(&mut self, run: PageRun) {
        self.units_live -= 1;
        self.inner.free(run);
    }

    /// Total pages currently occupied by live buddies.
    ///
    /// This is the storage-utilization measure of Figures 6 and 7: a
    /// cluster unit occupies its *whole* buddy, used or not.
    #[inline]
    pub fn occupied_pages(&self) -> u64 {
        self.inner.allocated_pages()
    }

    /// Number of live units.
    #[inline]
    pub fn units_live(&self) -> u64 {
        self.units_live
    }

    /// Region the buddies are carved from.
    #[inline]
    pub fn region(&self) -> RegionId {
        self.inner.region()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;

    fn alloc(config: BuddyConfig) -> BuddyAllocator {
        let disk = Disk::with_defaults();
        BuddyAllocator::new(disk.create_region("clusters"), config)
    }

    #[test]
    fn fixed_config_single_class() {
        let c = BuddyConfig::fixed(20);
        assert_eq!(c.sizes(), &[20]);
        assert_eq!(c.class_for(1), Some(20));
        assert_eq!(c.class_for(20), Some(20));
        assert_eq!(c.class_for(21), None);
    }

    #[test]
    fn full_config_halves_down_to_one() {
        let c = BuddyConfig::full(20);
        assert_eq!(c.sizes(), &[20, 10, 5, 3, 2, 1]);
        assert_eq!(c.class_for(4), Some(5));
        assert_eq!(c.class_for(6), Some(10));
        assert_eq!(c.class_for(11), Some(20));
    }

    #[test]
    fn restricted_config_three_sizes() {
        let c = BuddyConfig::restricted(20);
        assert_eq!(c.sizes(), &[20, 10, 5]);
        assert_eq!(c.class_for(1), Some(5));
        assert_eq!(c.class_for(7), Some(10));
        let c80 = BuddyConfig::restricted(80);
        assert_eq!(c80.sizes(), &[80, 40, 20]);
    }

    #[test]
    fn alloc_picks_smallest_class() {
        let mut a = alloc(BuddyConfig::restricted(20));
        let u = a.alloc_for(3).unwrap();
        assert_eq!(u.len, 5);
        assert_eq!(a.occupied_pages(), 5);
        let v = a.alloc_for(12).unwrap();
        assert_eq!(v.len, 20);
        assert_eq!(a.occupied_pages(), 25);
        assert_eq!(a.units_live(), 2);
    }

    #[test]
    fn oversized_request_rejected() {
        let mut a = alloc(BuddyConfig::fixed(20));
        assert!(a.alloc_for(25).is_none());
    }

    #[test]
    fn free_reclaims_pages() {
        let mut a = alloc(BuddyConfig::full(16));
        let u = a.alloc_for(10).unwrap();
        assert_eq!(u.len, 16);
        a.free(u);
        assert_eq!(a.occupied_pages(), 0);
        assert_eq!(a.units_live(), 0);
        // Reuses the freed space.
        let v = a.alloc_for(16).unwrap();
        assert_eq!(v.start, u.start);
    }

    #[test]
    fn grow_move_pattern() {
        // A unit growing 3 → 6 → 12 pages moves through classes 4, 8, 16.
        let mut a = alloc(BuddyConfig::full(16));
        let u1 = a.alloc_for(3).unwrap();
        assert_eq!(u1.len, 4);
        let u2 = a.alloc_for(6).unwrap();
        a.free(u1);
        assert_eq!(u2.len, 8);
        let u3 = a.alloc_for(12).unwrap();
        a.free(u2);
        assert_eq!(u3.len, 16);
        assert_eq!(a.units_live(), 1);
        assert_eq!(a.occupied_pages(), 16);
    }

    #[test]
    fn utilization_guarantee_of_full_system() {
        // With power-of-two Smax, every unit is at least half full once it
        // holds more than half of the next-smaller class.
        let c = BuddyConfig::full(64);
        for need in 1..=64u64 {
            let class = c.class_for(need).unwrap();
            assert!(class >= need);
            // Classes are at most 2x the need (the ≥50% guarantee),
            // except at the smallest class where need==1 → class 1.
            assert!(
                class < 2 * need.max(1) || class == 1,
                "need {need} class {class}"
            );
        }
    }
}
