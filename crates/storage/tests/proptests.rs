// Gated: requires the external `proptest` crate (not vendored in this
// offline build). Enable with `--features proptest` after adding the
// dev-dependency.
#![cfg(feature = "proptest")]

//! Property-based tests: the organization models stay consistent under
//! arbitrary insert/delete interleavings, and their query results agree
//! with each other and with brute force at the MBR level.

use proptest::prelude::*;
use spatialdb_disk::{Disk, DiskHandle};
use spatialdb_geom::{Point, Rect};
use spatialdb_rtree::validate::check_invariants;
use spatialdb_rtree::ObjectId;
use spatialdb_storage::{
    new_shared_pool, ClusterConfig, ClusterOrganization, ObjectRecord, PrimaryOrganization,
    SecondaryOrganization, SharedPool, SpatialStore, WindowTechnique,
};

const SMAX: u64 = 16 * 1024;

fn arb_record(id: u64) -> impl Strategy<Value = ObjectRecord> {
    (
        0.0f64..1.0,
        0.0f64..1.0,
        0.001f64..0.05,
        0.001f64..0.05,
        64u32..5000,
    )
        .prop_map(move |(x, y, w, h, size)| {
            ObjectRecord::new(
                ObjectId(id),
                Rect::new(x, y, (x + w).min(1.2), (y + h).min(1.2)),
                size,
            )
        })
}

fn arb_records(n: usize) -> impl Strategy<Value = Vec<ObjectRecord>> {
    (1..n).prop_flat_map(|len| (0..len as u64).map(arb_record).collect::<Vec<_>>())
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

/// One empty store of each organization model, each on a machine of
/// its own.
fn all_models() -> [Box<dyn SpatialStore>; 3] {
    let ((d1, p1), (d2, p2)) = (machine(), machine());
    [
        Box::new(SecondaryOrganization::new(d1, p1)),
        Box::new(PrimaryOrganization::new(d2, p2)),
        Box::new(cluster()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_models_agree_on_window_candidate_counts(
        records in arb_records(120),
        wx in 0.0f64..1.0, wy in 0.0f64..1.0, ww in 0.01f64..0.5,
    ) {
        let window = Rect::new(wx, wy, wx + ww, wy + ww);
        let brute: usize = records.iter().filter(|r| r.mbr.intersects(&window)).count();
        for mut org in all_models() {
            for r in &records {
                org.insert(r);
            }
            org.flush();
            org.begin_query();
            let q = org.window_query(&window, WindowTechnique::Complete);
            prop_assert_eq!(q.candidates, brute, "{}", org.name());
        }
    }

    #[test]
    fn all_models_agree_on_point_candidate_counts(
        records in arb_records(100),
        px in 0.0f64..1.0, py in 0.0f64..1.0,
    ) {
        let p = Point::new(px, py);
        let brute: usize = records.iter().filter(|r| r.mbr.contains_point(&p)).count();
        for mut org in all_models() {
            for r in &records {
                org.insert(r);
            }
            org.flush();
            org.begin_query();
            let q = org.point_query(&p);
            prop_assert_eq!(q.candidates, brute, "{}", org.name());
        }
    }

    #[test]
    fn cluster_consistent_under_insert_delete_interleavings(
        records in arb_records(80),
        ops in prop::collection::vec(any::<bool>(), 1..160),
    ) {
        let mut org = cluster();
        let mut pending: Vec<&ObjectRecord> = records.iter().collect();
        let mut live: Vec<ObjectId> = Vec::new();
        for (i, &del) in ops.iter().enumerate() {
            if del && !live.is_empty() {
                let oid = live.swap_remove(i % live.len());
                prop_assert!(org.delete(oid));
            } else if let Some(rec) = pending.pop() {
                org.insert(rec);
                live.push(rec.oid);
            }
            org.check_consistency().unwrap();
            check_invariants(org.tree()).unwrap();
            prop_assert_eq!(org.num_objects(), live.len());
        }
        // Everything still live is findable.
        org.flush();
        org.begin_query();
        let q = org.window_query(&Rect::new(-1.0, -1.0, 3.0, 3.0), WindowTechnique::Complete);
        prop_assert_eq!(q.candidates, live.len());
    }

    #[test]
    fn occupied_pages_track_contents(records in arb_records(100)) {
        let mut org = cluster();
        let empty = org.occupied_pages();
        for r in &records {
            org.insert(r);
        }
        let full = org.occupied_pages();
        prop_assert!(full > empty);
        // Deleting everything returns the cluster area to empty.
        for r in &records {
            prop_assert!(org.delete(r.oid));
        }
        org.check_consistency().unwrap();
        prop_assert_eq!(org.num_objects(), 0);
    }

    #[test]
    fn window_techniques_same_candidates_different_cost(
        records in arb_records(100),
        wx in 0.0f64..0.8, wy in 0.0f64..0.8,
    ) {
        let window = Rect::new(wx, wy, wx + 0.2, wy + 0.2);
        let mut candidates = None;
        for tech in [
            WindowTechnique::Complete,
            WindowTechnique::Threshold,
            WindowTechnique::Slm,
            WindowTechnique::PageByPage,
            WindowTechnique::Optimum,
        ] {
            let mut org = cluster();
            for r in &records {
                org.insert(r);
            }
            org.flush();
            org.begin_query();
            let q = org.window_query(&window, tech);
            match candidates {
                None => candidates = Some(q.candidates),
                Some(c) => prop_assert_eq!(q.candidates, c, "{:?}", tech),
            }
        }
    }
}
