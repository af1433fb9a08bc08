//! Seeded property tests: the R*-tree agrees with brute force and keeps
//! its invariants under arbitrary insert/delete interleavings. Every
//! property runs on [`CASES`] cases, each drawn from its own
//! `SmallRng::seed_from_u64(seed)`, and every assertion names the seed.

use spatialdb_disk::Disk;
use spatialdb_geom::rng::SmallRng;
use spatialdb_geom::{Point, Rect};
use spatialdb_rtree::validate::check_invariants;
use spatialdb_rtree::{LeafEntry, NoIo, ObjectId, RStarTree, RTreeConfig};
use std::ops::Range;

/// Cases per property.
const CASES: u64 = 64;

/// Run `property` once per seed, on a generator of that seed.
fn check(property: impl Fn(u64, &mut SmallRng)) {
    for seed in 0..CASES {
        property(seed, &mut SmallRng::seed_from_u64(seed));
    }
}

fn rect(rng: &mut SmallRng) -> Rect {
    let (x, y) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
    let (w, h) = (rng.gen_range(0.01..8.0), rng.gen_range(0.01..8.0));
    Rect::new(x, y, x + w, y + h)
}

/// Between `len.start` and `len.end - 1` rectangles.
fn rects(rng: &mut SmallRng, len: Range<usize>) -> Vec<Rect> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rect(rng)).collect()
}

fn config(m: usize, leaf_reinsert: bool, payload_limit: Option<u64>) -> RTreeConfig {
    RTreeConfig {
        max_entries: m,
        leaf_reinsert_enabled: leaf_reinsert,
        leaf_payload_limit: payload_limit,
    }
}

fn build(rects: &[Rect], cfg: RTreeConfig) -> RStarTree {
    let disk = Disk::with_defaults();
    let mut t = RStarTree::new(cfg, disk.create_region("t"));
    for (i, r) in rects.iter().enumerate() {
        t.insert(LeafEntry::new(*r, ObjectId(i as u64), 64), &mut NoIo);
    }
    t
}

/// Sorted ids of `entries`.
fn ids(entries: &[LeafEntry]) -> Vec<u64> {
    let mut ids: Vec<u64> = entries.iter().map(|e| e.oid.0).collect();
    ids.sort_unstable();
    ids
}

/// Sorted ids of the entries a window query finds.
fn window_ids(t: &RStarTree, window: &Rect) -> Vec<u64> {
    let mut out = Vec::new();
    t.window_entries_into(window, &mut NoIo, &mut out);
    ids(&out)
}

/// Ids of the rectangles `keep` selects, ascending.
fn brute_force(rects: &[Rect], keep: impl Fn(&Rect) -> bool) -> Vec<u64> {
    (0..rects.len() as u64)
        .filter(|&i| keep(&rects[i as usize]))
        .collect()
}

#[test]
fn window_query_matches_brute_force() {
    check(|seed, rng| {
        let rects = rects(rng, 1..300);
        let (window, m) = (rect(rng), rng.gen_range(4..16usize));
        let t = build(&rects, config(m, true, None));
        check_invariants(&t).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
        assert_eq!(
            window_ids(&t, &window),
            brute_force(&rects, |r| r.intersects(&window)),
            "seed {seed}"
        );
    });
}

#[test]
fn point_query_matches_brute_force() {
    check(|seed, rng| {
        let rects = rects(rng, 1..200);
        let p = Point::new(rng.gen_range(0.0..110.0), rng.gen_range(0.0..110.0));
        let t = build(&rects, config(8, true, None));
        let mut out = Vec::new();
        t.point_entries_into(&p, &mut NoIo, &mut out);
        assert_eq!(
            ids(&out),
            brute_force(&rects, |r| r.contains_point(&p)),
            "seed {seed}"
        );
    });
}

#[test]
fn invariants_hold_without_leaf_reinsert() {
    check(|seed, rng| {
        let rects = rects(rng, 1..300);
        let t = build(&rects, config(8, false, None));
        check_invariants(&t).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
        assert_eq!(t.len(), rects.len(), "seed {seed}");
    });
}

#[test]
fn invariants_hold_with_payload_limit() {
    check(|seed, rng| {
        let rects = rects(rng, 1..200);
        let limit = rng.gen_range(128..1024u64);
        let t = build(&rects, config(8, false, Some(limit)));
        check_invariants(&t).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
        // Every multi-entry leaf respects the limit (entries carry 64 B).
        for (_, leaf) in t.leaves() {
            if leaf.len() > 1 {
                assert!(leaf.payload() <= limit, "seed {seed}");
            }
        }
    });
}

#[test]
fn insert_delete_roundtrip() {
    check(|seed, rng| {
        let rects = rects(rng, 1..120);
        let deletes = rng.gen_range(1..120usize);
        let mut t = build(&rects, config(6, true, None));
        let mut remaining: Vec<u64> = (0..rects.len() as u64).collect();
        for (i, r) in rects.iter().enumerate().take(deletes) {
            if rng.gen_bool(0.5) {
                let out = t.delete(ObjectId(i as u64), r, &mut NoIo);
                assert!(out.removed, "seed {seed}: object {i}");
                remaining.retain(|&id| id != i as u64);
                check_invariants(&t).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
            }
        }
        assert_eq!(t.len(), remaining.len(), "seed {seed}");
        // Everything remaining is still findable.
        let everything = Rect::new(-1.0, -1.0, 200.0, 200.0);
        assert_eq!(window_ids(&t, &everything), remaining, "seed {seed}");
    });
}

#[test]
fn leaves_partition_the_objects() {
    check(|seed, rng| {
        let rects = rects(rng, 1..300);
        let t = build(&rects, config(10, true, None));
        let mut seen = std::collections::HashSet::new();
        for (_, leaf) in t.leaves() {
            for e in leaf.leaf_entries() {
                assert!(seen.insert(e.oid), "seed {seed}: duplicate {:?}", e.oid);
            }
        }
        assert_eq!(seen.len(), rects.len(), "seed {seed}");
    });
}

#[test]
fn height_is_logarithmic() {
    check(|seed, rng| {
        // A packed grid of n entries with M=8 must have height
        // O(log_m n): no degenerate linear chains.
        let n = rng.gen_range(50..400usize);
        let rects: Vec<Rect> = (0..n)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                Rect::new(x, y, x + 0.5, y + 0.5)
            })
            .collect();
        let t = build(&rects, config(8, true, None));
        // ceil(log_3(n)) is a generous upper bound (min fill ≥ 3 with M=8
        // is not guaranteed mid-build, so allow slack).
        let bound = ((n as f64).ln() / 3.0f64.ln()).ceil() as u32 + 2;
        assert!(
            t.height() <= bound,
            "seed {seed}: height {} n {n}",
            t.height()
        );
    });
}
