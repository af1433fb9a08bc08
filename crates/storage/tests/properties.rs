//! Seeded property tests: the organization models and the in-memory
//! oracle stay consistent under arbitrary insert/delete interleavings,
//! and, insertion-built or STR-built, return exactly the brute-force
//! MBR candidates. Every property runs on [`CASES`] cases, each drawn
//! from its own `SmallRng::seed_from_u64(seed)`, and every assertion
//! names the seed.

use spatialdb_disk::{Disk, DiskHandle};
use spatialdb_geom::rng::SmallRng;
use spatialdb_geom::{Point, Rect};
use spatialdb_rtree::bulk::plan_tiles;
use spatialdb_rtree::validate::check_invariants;
use spatialdb_rtree::{LeafEntry, ObjectId};
use spatialdb_storage::{
    new_shared_pool, ClusterConfig, ClusterOrganization, MemoryStore, ObjectRecord,
    PrimaryOrganization, SecondaryOrganization, SharedPool, SpatialStore, StrPlan, WindowTechnique,
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

/// A fresh disk and a 256-page pool over it.
fn machine() -> (DiskHandle, SharedPool) {
    let disk = Disk::with_defaults();
    (disk.clone(), new_shared_pool(disk, 256))
}

/// An empty cluster organization on a machine of its own.
fn cluster() -> ClusterOrganization {
    let (disk, pool) = machine();
    ClusterOrganization::new(disk, pool, ClusterConfig::restricted_buddy(SMAX))
}

/// One empty store of each organization model, and the engine's
/// in-memory oracle, each on a machine of its own.
fn all_models() -> [Box<dyn SpatialStore>; 4] {
    let ((d1, p1), (d2, p2), (d3, p3)) = (machine(), machine(), machine());
    [
        Box::new(SecondaryOrganization::new(d1, p1)),
        Box::new(PrimaryOrganization::new(d2, p2)),
        Box::new(cluster()),
        Box::new(MemoryStore::new(d3, p3)),
    ]
}

/// Every store of [`all_models`] loaded with `records` twice — one
/// insert per record, and an STR bulk load — flushed and cold, each
/// with a label naming store and build.
fn loaded_models(records: &[ObjectRecord]) -> Vec<(String, Box<dyn SpatialStore>)> {
    let mut loaded = Vec::new();
    for str_built in [false, true] {
        for mut store in all_models() {
            if str_built {
                let StrPlan { entries, params } = store.str_plan(records);
                let tiles = plan_tiles(entries, &params);
                store.str_install(records, tiles, &params);
            } else {
                for r in records {
                    store.insert(r);
                }
            }
            store.flush();
            store.begin_query();
            let build = if str_built {
                "STR-built"
            } else {
                "insert-built"
            };
            loaded.push((format!("{} ({build})", store.name()), store));
        }
    }
    loaded
}

/// Sorted ids of `entries`.
fn ids(entries: &[LeafEntry]) -> Vec<u64> {
    let mut ids: Vec<u64> = entries.iter().map(|e| e.oid.0).collect();
    ids.sort_unstable();
    ids
}

/// Ids of the records whose MBR `keep` selects, ascending.
fn brute_force(records: &[ObjectRecord], keep: impl Fn(&Rect) -> bool) -> Vec<u64> {
    records
        .iter()
        .filter(|r| keep(&r.mbr))
        .map(|r| r.oid.0)
        .collect()
}

#[test]
fn all_models_agree_on_window_candidates() {
    check(|seed, rng| {
        let records = records(rng, 120);
        let (wx, wy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let ww = rng.gen_range(0.01..0.5);
        let window = Rect::new(wx, wy, wx + ww, wy + ww);
        let brute = brute_force(&records, |mbr| mbr.intersects(&window));
        let mut out = Vec::new();
        for (store, org) in loaded_models(&records) {
            let q = org.window_query_into(&window, WindowTechnique::Complete, &mut out);
            assert_eq!(ids(&out), brute, "seed {seed}: {store}");
            assert_eq!(q.candidates, brute.len(), "seed {seed}: {store}");
        }
    });
}

#[test]
fn all_models_agree_on_point_candidates() {
    check(|seed, rng| {
        let records = records(rng, 100);
        let p = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let brute = brute_force(&records, |mbr| mbr.contains_point(&p));
        let mut out = Vec::new();
        for (store, org) in loaded_models(&records) {
            let q = org.point_query_into(&p, &mut out);
            assert_eq!(ids(&out), brute, "seed {seed}: {store}");
            assert_eq!(q.candidates, brute.len(), "seed {seed}: {store}");
        }
    });
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
            assert_eq!(org.num_objects(), live.len(), "seed {seed}, op {i}");
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
        assert_eq!(org.num_objects(), 0, "seed {seed}");
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
            let q = org.window_query_into(&window, tech, &mut out);
            let got = (q.candidates, ids(&out));
            match &candidates {
                None => candidates = Some(got),
                Some(c) => assert_eq!(&got, c, "seed {seed}: {tech:?}"),
            }
        }
    });
}
