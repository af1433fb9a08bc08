//! Integration tests of the redesigned public API: the pluggable
//! [`SpatialStore`] backends and the streaming `Query` builder.
//!
//! The core matrix runs one window workload through every organization
//! model × every window technique and asserts that the *exact result
//! sets* are identical everywhere — the organization and the transfer
//! technique may only change the I/O cost, never the answer.

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::geom::{HasMbr, Point, Rect};
use spatialdb::storage::{MemoryStore, WindowTechnique};
use spatialdb::{DbOptions, OrganizationKind, SpatialDatabase, Workspace};

const ALL_KINDS: [OrganizationKind; 3] = [
    OrganizationKind::Secondary,
    OrganizationKind::Primary,
    OrganizationKind::Cluster,
];

const ALL_TECHNIQUES: [WindowTechnique; 4] = [
    WindowTechnique::Complete,
    WindowTechnique::Threshold,
    WindowTechnique::Slm,
    WindowTechnique::Optimum,
];

fn a1() -> DataSet {
    DataSet {
        series: SeriesId::A,
        map: MapId::Map1,
    }
}

fn load(ws: &Workspace, kind: OrganizationKind, map: &SpatialMap) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind).smax_bytes(40 * 1024));
    for obj in &map.objects {
        db.insert(obj.id, obj.geometry.clone().unwrap());
    }
    db.finish_loading();
    db
}

#[test]
fn result_sets_identical_across_stores_and_techniques() {
    let map = SpatialMap::generate(a1(), 0.003, GeometryMode::Full, 42);
    let queries = WindowQuerySet::generate(&map, 1e-2, 12, 5);
    // Brute-force reference answers.
    let reference: Vec<Vec<u64>> = queries
        .windows
        .iter()
        .map(|w| {
            map.objects
                .iter()
                .filter(|o| o.geometry.as_ref().unwrap().intersects_rect(w))
                .map(|o| o.id)
                .collect()
        })
        .collect();
    for kind in ALL_KINDS {
        let ws = Workspace::new(256);
        let mut db = load(&ws, kind, &map);
        for technique in ALL_TECHNIQUES {
            for (w, want) in queries.windows.iter().zip(&reference) {
                db.store_mut().begin_query();
                let got = db.query().window(*w).technique(technique).run().ids();
                assert_eq!(&got, want, "{kind:?} / {technique:?} / {w}");
            }
        }
    }
    // The in-memory baseline answers identically, for free.
    let ws = Workspace::new(256);
    let mut db = ws.create_database_with(Box::new(MemoryStore::new(ws.disk(), ws.pool())));
    for obj in &map.objects {
        db.insert(obj.id, obj.geometry.clone().unwrap());
    }
    db.finish_loading();
    for (w, want) in queries.windows.iter().zip(&reference) {
        let cursor = db.query().window(*w).run();
        assert_eq!(cursor.stats().io_ms, 0.0);
        assert_eq!(&cursor.ids(), want, "memory / {w}");
    }
}

#[test]
fn techniques_change_cost_but_not_candidates() {
    let map = SpatialMap::generate(a1(), 0.01, GeometryMode::MbrOnly, 7);
    let ws = Workspace::new(256);
    let mut db =
        ws.create_database(DbOptions::new(OrganizationKind::Cluster).smax_bytes(40 * 1024));
    // MBR-only loading straight into the store: exercises insert and
    // the filter-only (candidate) path of the cursor.
    let records: Vec<_> = map
        .objects
        .iter()
        .map(|o| {
            spatialdb::storage::ObjectRecord::new(spatialdb::ObjectId(o.id), o.mbr, o.size_bytes)
        })
        .collect();
    for rec in &records {
        db.store_mut().insert(rec);
    }
    db.finish_loading();
    assert_eq!(db.len(), map.len());
    let w = Rect::new(0.2, 0.2, 0.5, 0.5);
    let mut costs = Vec::new();
    let mut candidates = Vec::new();
    for technique in ALL_TECHNIQUES {
        db.store_mut().begin_query();
        let cursor = db.query().window(w).technique(technique).run();
        costs.push(cursor.stats().io_ms);
        candidates.push(cursor.stats().candidates);
    }
    assert!(
        candidates.windows(2).all(|p| p[0] == p[1]),
        "{candidates:?}"
    );
    // Optimum is the lower bound of the swept techniques.
    let optimum = costs[3];
    assert!(costs.iter().all(|&c| optimum <= c + 1e-9), "{costs:?}");
}

#[test]
fn per_query_io_isolated_between_databases_of_one_workspace() {
    let ws = Workspace::new(256);
    let mut a = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    let mut b = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
    for i in 0..40u64 {
        let x = (i % 8) as f64 / 8.0;
        let y = (i / 8) as f64 / 8.0;
        let line =
            spatialdb::geom::Polyline::new(vec![Point::new(x, y), Point::new(x + 0.01, y + 0.01)]);
        a.insert(i, line.clone());
        b.insert(i, line);
    }
    a.finish_loading();
    b.finish_loading();
    let w = Rect::new(0.0, 0.0, 0.6, 0.6);
    let cost_a = a.query().window(w).run().io_stats();
    let cost_b = b.query().window(w).run().io_stats();
    assert!(cost_a.read_requests > 0);
    assert!(cost_b.read_requests > 0);
    // The workspace disk accumulated both, each cursor saw only its own.
    let total = a.io_stats();
    assert!(total.read_requests >= cost_a.read_requests + cost_b.read_requests);
}

#[test]
fn cursor_streams_geometry_references() {
    let map = SpatialMap::generate(a1(), 0.002, GeometryMode::Full, 11);
    let ws = Workspace::new(256);
    let db = load(&ws, OrganizationKind::Cluster, &map);
    let w = Rect::new(0.1, 0.1, 0.9, 0.9);
    for (id, geometry) in db.query().window(w).run() {
        // Every yielded geometry really intersects and matches the map's.
        assert!(geometry.intersects_rect(&w), "{id}");
        let original = map.objects.iter().find(|o| o.id == id).unwrap();
        assert_eq!(geometry.mbr(), original.mbr, "{id}");
    }
}

#[test]
fn point_queries_agree_across_stores() {
    let map = SpatialMap::generate(a1(), 0.002, GeometryMode::Full, 23);
    let points: Vec<Point> = map
        .objects
        .iter()
        .step_by(7)
        .map(|o| o.geometry.as_ref().unwrap().vertices()[0])
        .collect();
    let mut per_kind = Vec::new();
    for kind in ALL_KINDS {
        let ws = Workspace::new(256);
        let db = load(&ws, kind, &map);
        let answers: Vec<Vec<u64>> = points
            .iter()
            .map(|p| db.query().point(*p).run().ids())
            .collect();
        // Each probe point lies on its source object.
        for (i, answer) in answers.iter().enumerate() {
            assert!(
                answer.contains(&map.objects[i * 7].id),
                "{kind:?}: probe {i} missed its own object"
            );
        }
        per_kind.push(answers);
    }
    assert_eq!(per_kind[0], per_kind[1]);
    assert_eq!(per_kind[1], per_kind[2]);
}
