//! Seeded property tests: the cluster organization stays consistent
//! under arbitrary insert/delete interleavings, its occupied pages track
//! its contents, and its window techniques find the same candidates.
//! (That every organization, insertion-built or STR-built, finds exactly
//! the brute-force candidates and bytes is the differential matrix's, in
//! the workspace's `tests/differential.rs`.) Every property runs on
//! [`CASES`] cases, each drawn from its own
//! `SmallRng::seed_from_u64(seed)`, and every assertion names the seed.

use spatialdb_disk::Disk;
use spatialdb_geom::rng::SmallRng;
use spatialdb_geom::Rect;
use spatialdb_rtree::validate::check_invariants;
use spatialdb_rtree::{LeafEntry, ObjectId};
use spatialdb_storage::{
    new_shared_pool, ClusterConfig, ClusterOrganization, ObjectRecord, SharedPool, SpatialStore,
    WindowTechnique,
};

/// Cases per property.
const CASES: u64 = 24;

const SMAX: u64 = 16 * 1024;

/// Run `property` once per seed, on a generator of that seed.
fn check(property: impl Fn(u64, &mut SmallRng)) {
    for seed in 0..CASES {
        property(seed, &mut SmallRng::seed_from_u64(seed));
    }
}

/// 1 to `max - 1` records with ids `0, 1, …`: small MBRs anywhere in
/// the unit square (a few reach past it), 64 B to 5 KB each.
fn records(rng: &mut SmallRng, max: usize) -> Vec<ObjectRecord> {
    let n = rng.gen_range(1..max);
    (0..n as u64)
        .map(|id| {
            let (x, y) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let (w, h) = (rng.gen_range(0.001..0.05), rng.gen_range(0.001..0.05));
            let size = rng.gen_range(64..5000u64) as u32;
            let mbr = Rect::new(x, y, (x + w).min(1.2), (y + h).min(1.2));
            ObjectRecord::new(ObjectId(id), mbr, size)
        })
        .collect()
}

/// A 256-page pool over a fresh disk: a machine of its own.
fn machine() -> SharedPool {
    new_shared_pool(Disk::with_defaults(), 256)
}

/// An empty cluster organization on a machine of its own.
fn cluster() -> ClusterOrganization {
    ClusterOrganization::new(machine(), ClusterConfig::restricted_buddy(SMAX))
}

/// Sorted ids of `entries`.
fn ids(entries: &[LeafEntry]) -> Vec<u64> {
    let mut ids: Vec<u64> = entries.iter().map(|e| e.oid.0).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn cluster_consistent_under_insert_delete_interleavings() {
    check(|seed, rng| {
        let records = records(rng, 80);
        let ops = rng.gen_range(1..160usize);
        let mut org = cluster();
        let mut pending: Vec<&ObjectRecord> = records.iter().collect();
        let mut live: Vec<ObjectId> = Vec::new();
        for i in 0..ops {
            if rng.gen_bool(0.5) && !live.is_empty() {
                let oid = live.swap_remove(i % live.len());
                assert!(org.delete(oid), "seed {seed}: {oid:?}");
            } else if let Some(rec) = pending.pop() {
                org.insert(rec);
                live.push(rec.oid);
            }
            org.check_consistency()
                .unwrap_or_else(|e| panic!("seed {seed}, op {i}: {e}"));
            check_invariants(org.tree()).unwrap_or_else(|v| panic!("seed {seed}, op {i}: {v:?}"));
            assert_eq!(org.tree().len(), live.len(), "seed {seed}, op {i}");
        }
        // Everything still live is findable.
        org.flush();
        org.begin_query();
        let q = org.window_query(&Rect::new(-1.0, -1.0, 3.0, 3.0), WindowTechnique::Complete);
        assert_eq!(q.candidates, live.len(), "seed {seed}");
    });
}

#[test]
fn occupied_pages_track_contents() {
    check(|seed, rng| {
        let records = records(rng, 100);
        let mut org = cluster();
        let empty = org.occupied_pages();
        for r in &records {
            org.insert(r);
        }
        let full = org.occupied_pages();
        assert!(
            full > empty,
            "seed {seed}: {full} pages full, {empty} empty"
        );
        // Deleting everything returns the cluster area to empty.
        for r in &records {
            assert!(org.delete(r.oid), "seed {seed}: {:?}", r.oid);
        }
        org.check_consistency()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(org.tree().len(), 0, "seed {seed}");
    });
}

#[test]
fn window_techniques_same_candidates_different_cost() {
    check(|seed, rng| {
        let records = records(rng, 100);
        let (wx, wy) = (rng.gen_range(0.0..0.8), rng.gen_range(0.0..0.8));
        let window = Rect::new(wx, wy, wx + 0.2, wy + 0.2);
        let mut candidates = None;
        let mut out = Vec::new();
        for tech in [
            WindowTechnique::Complete,
            WindowTechnique::Threshold,
            WindowTechnique::Slm,
            WindowTechnique::Optimum,
        ] {
            let mut org = cluster();
            for r in &records {
                org.insert(r);
            }
            org.flush();
            org.begin_query();
            let got = (org.window_query_into(&window, tech, &mut out), ids(&out));
            match &candidates {
                None => candidates = Some(got),
                Some(c) => assert_eq!(&got, c, "seed {seed}: {tech:?}"),
            }
        }
    });
}
