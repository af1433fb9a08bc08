//! Byte-level placement of objects into pages with *internal clustering*.
//!
//! §3.1 of the paper defines internal clustering: the complete
//! representation of one object is stored in one page if it fits into the
//! free space of the page; otherwise the object is stored on multiple
//! physically consecutive pages, occupying at most one page more than the
//! minimum. [`PagePacker`] implements that policy over a growing byte
//! space — it is used by the secondary organization's sequential file,
//! by each cluster unit, and (in exclusive mode) by the primary
//! organization's overflow file.

/// Placement of one object: its first page and page count, relative to
/// the start of the packed space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Placement {
    /// First page (0-based, relative).
    pub first_page: u64,
    /// Number of consecutive pages the object touches.
    pub num_pages: u64,
}

/// Sequential page packer with internal clustering.
#[derive(Clone, Debug)]
pub struct PagePacker {
    page_bytes: u64,
    /// Pages fully or partially used so far.
    pages_used: u64,
    /// Free bytes remaining in the last used page.
    tail_free: u64,
}

impl PagePacker {
    /// Create a packer for pages of `page_bytes` bytes.
    pub fn new(page_bytes: u64) -> Self {
        assert!(page_bytes > 0);
        PagePacker {
            page_bytes,
            pages_used: 0,
            tail_free: 0,
        }
    }

    /// Place an object of `size` bytes with internal clustering: in the
    /// current tail page if it fits into its free space, otherwise on
    /// fresh consecutive pages.
    pub fn place(&mut self, size: u64) -> Placement {
        assert!(size > 0, "cannot place a zero-sized object");
        if size <= self.tail_free {
            self.tail_free -= size;
            Placement {
                first_page: self.pages_used - 1,
                num_pages: 1,
            }
        } else {
            self.place_exclusive(size)
        }
    }

    /// Place an object on fresh pages regardless of tail free space
    /// (the primary organization's overflow file: *"such objects occupied
    /// their individual pages exclusively"*). Subsequent [`Self::place`]
    /// calls may still share the new tail page; call
    /// [`Self::seal`] afterwards to prevent that.
    pub fn place_exclusive(&mut self, size: u64) -> Placement {
        assert!(size > 0, "cannot place a zero-sized object");
        let pages = size.div_ceil(self.page_bytes);
        let p = Placement {
            first_page: self.pages_used,
            num_pages: pages,
        };
        self.pages_used += pages;
        self.tail_free = pages * self.page_bytes - size;
        p
    }

    /// Forget the tail free space so the next object starts a fresh page.
    pub fn seal(&mut self) {
        self.tail_free = 0;
    }

    /// Pages used so far.
    #[inline]
    pub fn pages_used(&self) -> u64 {
        self.pages_used
    }

    /// Bytes still free in the tail page.
    #[inline]
    pub fn tail_free(&self) -> u64 {
        self.tail_free
    }
}

/// Byte-contiguous packer for cluster units.
///
/// Within a cluster unit an object is stored contiguously but may straddle
/// page boundaries: the whole unit sits on physically consecutive pages,
/// so a straddling object is still read with a single request — internal
/// clustering in the sense of §3.1 is preserved without per-page fitting.
/// This guarantees that a unit with ≤ `Smax` payload bytes occupies
/// ≤ `Smax` pages.
#[derive(Clone, Debug, Default)]
pub struct BytePacker {
    used_bytes: u64,
}

impl BytePacker {
    /// Empty packer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Place an object of `size` bytes at the current end, returning the
    /// page span it covers.
    pub fn place(&mut self, size: u64, page_bytes: u64) -> Placement {
        assert!(size > 0, "cannot place a zero-sized object");
        let first_page = self.used_bytes / page_bytes;
        let last_page = (self.used_bytes + size - 1) / page_bytes;
        self.used_bytes += size;
        Placement {
            first_page,
            num_pages: last_page - first_page + 1,
        }
    }

    /// Total bytes placed.
    #[inline]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Pages covered so far.
    pub fn pages_used(&self, page_bytes: u64) -> u64 {
        self.used_bytes.div_ceil(page_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_packer_dense() {
        let mut p = BytePacker::new();
        let a = p.place(3000, 4096);
        assert_eq!(
            a,
            Placement {
                first_page: 0,
                num_pages: 1
            }
        );
        let b = p.place(3000, 4096);
        // Straddles pages 0 and 1.
        assert_eq!(
            b,
            Placement {
                first_page: 0,
                num_pages: 2
            }
        );
        assert_eq!(p.used_bytes(), 6000);
        assert_eq!(p.pages_used(4096), 2);
    }

    #[test]
    fn byte_packer_never_exceeds_ceiling() {
        let mut p = BytePacker::new();
        let mut total = 0u64;
        for i in 0..500u64 {
            let size = 100 + (i * 997) % 5000;
            p.place(size, 4096);
            total += size;
        }
        assert_eq!(p.pages_used(4096), total.div_ceil(4096));
    }

    #[test]
    fn byte_packer_page_span() {
        let mut p = BytePacker::new();
        p.place(4096, 4096);
        let b = p.place(8192, 4096);
        assert_eq!(
            b,
            Placement {
                first_page: 1,
                num_pages: 2
            }
        );
    }

    #[test]
    fn small_objects_share_pages() {
        let mut p = PagePacker::new(4096);
        let a = p.place(1000);
        let b = p.place(1000);
        let c = p.place(1000);
        let d = p.place(1000);
        assert_eq!(
            a,
            Placement {
                first_page: 0,
                num_pages: 1
            }
        );
        assert_eq!(b, a);
        assert_eq!(c, a);
        assert_eq!(d, a);
        // The fifth no longer fits (96 bytes free).
        let e = p.place(1000);
        assert_eq!(
            e,
            Placement {
                first_page: 1,
                num_pages: 1
            }
        );
        assert_eq!(p.pages_used(), 2);
    }

    #[test]
    fn large_object_spans_consecutive_pages() {
        let mut p = PagePacker::new(4096);
        let a = p.place(10_000);
        assert_eq!(
            a,
            Placement {
                first_page: 0,
                num_pages: 3
            }
        );
        // The tail page has 4096*3-10000 = 2288 free bytes: next small
        // object shares it.
        let b = p.place(2000);
        assert_eq!(
            b,
            Placement {
                first_page: 2,
                num_pages: 1
            }
        );
    }

    #[test]
    fn object_never_split_mid_space() {
        // An object that does not fit the tail free space starts fresh —
        // internal clustering is preserved.
        let mut p = PagePacker::new(4096);
        p.place(3000); // 1096 free
        let b = p.place(2000);
        assert_eq!(b.first_page, 1);
        assert_eq!(p.pages_used(), 2);
    }

    #[test]
    fn at_most_one_extra_page() {
        let mut p = PagePacker::new(4096);
        for size in [1u64, 4095, 4096, 4097, 8191, 8192, 8193, 100_000] {
            let min = size.div_ceil(4096);
            let placed = p.place(size);
            assert!(placed.num_pages <= min + 1, "size {size}");
        }
    }

    #[test]
    fn page_count_is_a_function_of_the_size() {
        // What lets the secondary organization's leaf entry stand for the
        // whole run with a first page and a size: an object shares the
        // tail page only if it fits (one page), and otherwise starts on
        // fresh pages — never a tail fragment plus fresh pages.
        let mut p = PagePacker::new(4096);
        for i in 0..5000u64 {
            let size = 1 + (i * 2_654_435_761) % 13_000;
            let placed = match i % 11 {
                0 => p.place_exclusive(size),
                _ => p.place(size),
            };
            assert_eq!(placed.num_pages, size.div_ceil(4096), "size {size}");
            if i % 17 == 0 {
                p.seal();
            }
        }
    }

    #[test]
    fn exclusive_always_fresh() {
        let mut p = PagePacker::new(4096);
        p.place(100); // page 0, lots of free space
        let b = p.place_exclusive(5000);
        assert_eq!(
            b,
            Placement {
                first_page: 1,
                num_pages: 2
            }
        );
    }

    #[test]
    fn seal_prevents_sharing() {
        let mut p = PagePacker::new(4096);
        p.place_exclusive(5000);
        p.seal();
        // Pages 0–1 hold the exclusive object; sealing forgets the tail
        // free space, so the next object starts page 2.
        let b = p.place(100);
        assert_eq!(b.first_page, 2);
    }

    #[test]
    fn packing_density_reasonable() {
        // Internal clustering wastes at most the tail of each page; for
        // the paper's A-1 sizes (avg 625 B) utilization stays high.
        let mut p = PagePacker::new(4096);
        let mut total = 0u64;
        for i in 0..1000u64 {
            let size = 400 + (i * 37) % 500;
            total += size;
            p.place(size);
        }
        let utilization = total as f64 / (p.pages_used() * 4096) as f64;
        assert!(utilization > 0.85, "utilization {utilization}");
    }
}
