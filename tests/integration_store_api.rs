//! Integration tests of the redesigned public API: the pluggable
//! [`SpatialStore`] backends and the streaming `Query` builder.
//!
//! That every store, window and transfer technique and read or join path
//! answers alike and reports one cost is the differential matrix's
//! (`tests/differential.rs`). Here: the techniques change a cluster
//! window's cost but not its candidates, each cursor of one workspace
//! sees only its own I/O, a cursor hands out the stored geometry, and a
//! window without a technique is an SLM window on every read path.

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::geom::{HasMbr, Point, Rect};
use spatialdb::storage::WindowTechnique;
use spatialdb::{
    run_stream, DbOptions, IoStats, OpOutcome, OrganizationKind, SpatialDatabase, StreamOp,
    StreamOutcome, Workspace,
};

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
    let total = ws.disk().stats();
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

/// The I/O of the one query a batch or stream ran.
fn only_query(outcome: &StreamOutcome) -> IoStats {
    match outcome.outcomes() {
        [OpOutcome::Query { io, .. }] => *io,
        other => panic!("expected one query outcome, got {other:?}"),
    }
}

/// A window without `.technique(..)` is an SLM window on every read
/// path: on a cold cluster database it charges exactly what
/// `.technique(WindowTechnique::Slm)` charges — through the cursor,
/// `run_batch` and `run_stream` — on windows where SLM and *complete*
/// charge differently.
#[test]
fn an_unset_technique_is_slm_on_every_read_path() {
    let map = SpatialMap::generate(a1(), 0.003, GeometryMode::Full, 36);
    let windows = WindowQuerySet::generate(&map, 1e-2, 3, 9).windows;
    let ws = Workspace::new(128);
    let mut db = load(&ws, OrganizationKind::Cluster, &map);
    let cold = |db: &mut SpatialDatabase, window: Rect, technique: WindowTechnique| {
        db.store_mut().begin_query();
        let query = db.query().window(window).technique(technique);
        io_bits(query.run().io_stats())
    };
    let mut differ = false;
    for window in windows {
        let slm = cold(&mut db, window, WindowTechnique::Slm);
        differ |= cold(&mut db, window, WindowTechnique::Complete) != slm;
        db.store_mut().begin_query();
        let cursor = db.query().window(window).run().io_stats();
        assert_eq!(io_bits(cursor), slm, "{window:?}: cursor");
        db.store_mut().begin_query();
        let batch = only_query(&ws.run_batch(vec![db.query().window(window)], 2));
        assert_eq!(io_bits(batch), slm, "{window:?}: run_batch");
        db.store_mut().begin_query();
        let op = StreamOp::Window { db: &db, window };
        let stream = only_query(&run_stream(vec![op], 2));
        assert_eq!(io_bits(stream), slm, "{window:?}: run_stream");
    }
    assert!(differ, "no window tells SLM from complete");
}

/// Every counter of `io`, the simulated milliseconds as bits.
fn io_bits(io: IoStats) -> [u64; 7] {
    [
        io.read_requests,
        io.pages_read,
        io.write_requests,
        io.pages_written,
        io.seeks,
        io.latencies,
        io.io_ms.to_bits(),
    ]
}
