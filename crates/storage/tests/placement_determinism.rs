//! Physical-placement determinism: two identical construction
//! sequences must produce byte-identical request traces — not just
//! identical flat costs. The disk-arm scheduler prices seeks by
//! cylinder distance, so placement nondeterminism (e.g. hash-ordered
//! cluster-split rebuilds) would make simulated latency flap between
//! runs. Regression test for the split-rebuild ordering on the insert
//! path and the affected-unit rebuild / orphan sweep on the delete
//! path.

use spatialdb_disk::Disk;
use spatialdb_geom::Rect;
use spatialdb_rtree::ObjectId;
use spatialdb_storage::{
    new_shared_pool, ClusterConfig, ClusterOrganization, ObjectRecord, SpatialStore,
    WindowTechnique,
};

fn build() -> ClusterOrganization {
    let pool = new_shared_pool(Disk::with_defaults(), 192);
    let mut org = ClusterOrganization::new(pool, ClusterConfig::plain(40 * 1024));
    for i in 0..400u64 {
        let x = (i % 40) as f64 / 40.0;
        let y = (i / 40) as f64 / 40.0;
        org.insert(&ObjectRecord::new(
            ObjectId(i),
            Rect::new(x, y, x + 0.01, y + 0.01),
            600 + (i % 100) as u32,
        ));
    }
    // Deletions rebuild affected units and sweep orphans — that path
    // must be placement-deterministic too (tree condensation can touch
    // several units per delete).
    for i in (0..400u64).step_by(7) {
        assert!(org.delete(ObjectId(i)));
    }
    org.flush();
    org.begin_query();
    org
}

#[test]
fn identical_builds_place_units_identically() {
    let a = build();
    let b = build();
    let w = Rect::new(0.1, 0.1, 0.4, 0.4);
    let (_, ta) = a.disk().traced(|| a.window_query(&w, WindowTechnique::Slm));
    let (_, tb) = b.disk().traced(|| b.window_query(&w, WindowTechnique::Slm));
    for (i, (x, y)) in ta.iter().zip(tb.iter()).enumerate() {
        if x != y {
            panic!("diverged at request {i}: {x:?} vs {y:?}");
        }
    }
    assert_eq!(ta.len(), tb.len());
    println!("identical: {} requests", ta.len());
}
