//! Seeded property tests of the disk simulator's invariants: every
//! property runs on [`CASES`] cases, each drawn from its own
//! `SmallRng::seed_from_u64(seed)`, and every assertion names the seed.

use spatialdb_disk::model::runs_of;
use spatialdb_disk::{
    slm_schedule, BuddyConfig, Disk, DiskParams, ExtentAllocator, LruBuffer, PageId, PageRun,
    RegionId,
};
use spatialdb_geom::rng::SmallRng;

/// Cases per property.
const CASES: u64 = 256;

/// Run `property` once per seed, on a generator of that seed.
fn check(property: impl Fn(u64, &mut SmallRng)) {
    for seed in 0..CASES {
        property(seed, &mut SmallRng::seed_from_u64(seed));
    }
}

/// Between `len.start` and `len.end - 1` offsets below `bound`.
fn offsets(rng: &mut SmallRng, bound: u64, len: std::ops::Range<usize>) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(0..bound)).collect()
}

/// Sorted, without repeats.
fn sorted_unique(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn runs_cover_exactly_the_input() {
    check(|seed, rng| {
        let offsets = sorted_unique(offsets(rng, 500, 0..60));
        let r = RegionId(3);
        let pages: Vec<PageId> = offsets.iter().map(|&o| PageId::new(r, o)).collect();
        let runs = runs_of(&pages);
        let covered: Vec<PageId> = runs.iter().flat_map(|run| run.pages()).collect();
        assert_eq!(covered, pages, "seed {seed}");
        // Runs are maximal: consecutive runs are separated by a gap.
        for w in runs.windows(2) {
            assert!(w[0].end_offset() < w[1].start.offset, "seed {seed}");
        }
    });
}

#[test]
fn slm_schedule_covers_requested() {
    check(|seed, rng| {
        let offsets = sorted_unique(offsets(rng, 400, 0..50));
        let max_gap = rng.gen_range(0..10u64);
        let runs: Vec<_> = slm_schedule(&offsets, max_gap).collect();
        // Every requested offset is inside exactly one run.
        for &o in &offsets {
            let n = runs
                .iter()
                .filter(|r| o >= r.start && o < r.start + r.len)
                .count();
            assert_eq!(n, 1, "seed {seed}: offset {o}");
        }
        // Requested counts sum to the number of offsets.
        let total: u64 = runs.iter().map(|r| r.requested).sum();
        assert_eq!(total, offsets.len() as u64, "seed {seed}");
        // First and last page of each run are requested.
        for r in &runs {
            assert!(offsets.binary_search(&r.start).is_ok(), "seed {seed}");
            assert!(
                offsets.binary_search(&(r.start + r.len - 1)).is_ok(),
                "seed {seed}"
            );
        }
        // Runs are separated by gaps > max_gap.
        for w in runs.windows(2) {
            let gap = w[1].start - (w[0].start + w[0].len);
            assert!(gap > max_gap, "seed {seed}: gap {gap} <= {max_gap}");
        }
    });
}

#[test]
fn slm_larger_gap_never_more_requests() {
    check(|seed, rng| {
        let offsets = sorted_unique(offsets(rng, 400, 1..50));
        let mut prev = u64::MAX;
        for gap in 0..8u64 {
            let n = slm_schedule(&offsets, gap).count() as u64;
            assert!(n <= prev, "seed {seed}: gap {gap}");
            prev = n;
        }
    });
}

#[test]
fn extent_allocator_never_double_allocates() {
    check(|seed, rng| {
        let disk = Disk::with_defaults();
        let mut alloc = ExtentAllocator::new(disk.create_region("x"));
        let mut live: Vec<PageRun> = Vec::new();
        for _ in 0..rng.gen_range(1..80usize) {
            let (n, free_one) = (rng.gen_range(1..20u64), rng.gen_bool(0.5));
            if free_one && !live.is_empty() {
                alloc.free(live.swap_remove(0));
            } else {
                let run = alloc.alloc(n);
                // No overlap with any live extent.
                for l in &live {
                    let disjoint =
                        run.end_offset() <= l.start.offset || l.end_offset() <= run.start.offset;
                    assert!(disjoint, "seed {seed}: overlap {run:?} vs {l:?}");
                }
                live.push(run);
            }
            let live_pages: u64 = live.iter().map(|r| r.len).sum();
            assert_eq!(alloc.allocated_pages(), live_pages, "seed {seed}");
        }
    });
}

#[test]
fn buddy_class_at_least_need() {
    check(|seed, rng| {
        let (smax, need) = (rng.gen_range(1..200u64), rng.gen_range(1..200u64));
        let c = BuddyConfig::full(smax);
        let at = format!("seed {seed}: smax {smax}, need {need}");
        if let Some(class) = c.class_for(need) {
            assert!(class >= need, "{at}");
            assert!(c.sizes().contains(&class), "{at}");
            // Minimality: no smaller allowed size fits.
            for &s in c.sizes() {
                if s < class {
                    assert!(s < need, "{at}");
                }
            }
        } else {
            assert!(need > smax, "{at}");
        }
    });
}

#[test]
fn lru_never_exceeds_capacity() {
    check(|seed, rng| {
        let cap = rng.gen_range(1..32usize);
        let mut b = LruBuffer::new(cap);
        let r = RegionId(0);
        for o in offsets(rng, 64, 0..200) {
            b.insert(PageId::new(r, o), o % 3 == 0);
            assert!(b.len() <= cap, "seed {seed}");
        }
    });
}

#[test]
fn lru_most_recent_always_present() {
    check(|seed, rng| {
        let cap = rng.gen_range(1..16usize);
        let accesses = offsets(rng, 64, 1..100);
        let mut b = LruBuffer::new(cap);
        let r = RegionId(0);
        for &o in &accesses {
            b.insert(PageId::new(r, o), false);
            assert!(b.contains(&PageId::new(r, o)), "seed {seed}");
        }
        // The cap most recent distinct pages are exactly the buffer content.
        let mut recent: Vec<u64> = Vec::new();
        for &o in accesses.iter().rev() {
            if !recent.contains(&o) {
                recent.push(o);
            }
            if recent.len() == cap {
                break;
            }
        }
        for &o in &recent {
            assert!(b.contains(&PageId::new(r, o)), "seed {seed}: page {o}");
        }
    });
}

#[test]
fn request_cost_monotone_in_pages() {
    check(|seed, rng| {
        let pages = rng.gen_range(1..200u64);
        let p = DiskParams::default();
        assert!(
            p.request_ms(pages + 1, false) > p.request_ms(pages, false),
            "seed {seed}"
        );
        assert!(
            p.request_ms(pages, true) < p.request_ms(pages, false),
            "seed {seed}"
        );
    });
}

#[test]
fn one_big_request_cheaper_than_two() {
    check(|seed, rng| {
        let (a, b) = (rng.gen_range(1..100u64), rng.gen_range(1..100u64));
        let p = DiskParams::default();
        // Merging two requests into one (same total pages + a gap of 3
        // pages) is cheaper whenever the gap is below latency/transfer.
        let merged = p.request_ms(a + b + 3, false);
        let split = p.request_ms(a, false) + p.request_ms(b, true);
        assert!(merged < split, "seed {seed}: {merged} vs {split}");
    });
}
