//! Integration tests of the redesigned public API: the pluggable
//! [`SpatialStore`] backends and the streaming `Query` builder.
//!
//! The core matrix runs one window workload through every organization
//! model × every window technique and asserts that the *exact result
//! sets* are identical everywhere — the organization and the transfer
//! technique may only change the I/O cost, never the answer. And every
//! read path reports one cost: the caller measures a query once, so the
//! cursor, the batch, the stream and the store's own measured query
//! forms agree bit for bit. So does every join path: a join measures
//! its MBR join and its object transfer once each.

mod foreign_store;

use foreign_store::HintlessStore;
use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::geom::{HasMbr, Point, Rect};
use spatialdb::storage::{MemoryStore, QueryStats, TransferTechnique, WindowTechnique};
use spatialdb::{
    run_stream, DbOptions, IoStats, OpOutcome, OrganizationKind, Query, SpatialDatabase, StreamOp,
    StreamOutcome, Workspace,
};

const ALL_KINDS: [OrganizationKind; 3] = [
    OrganizationKind::Secondary,
    OrganizationKind::Primary,
    OrganizationKind::Cluster,
];

const ALL_TRANSFERS: [TransferTechnique; 4] = [
    TransferTechnique::Complete,
    TransferTechnique::VectorRead,
    TransferTechnique::Read,
    TransferTechnique::Optimum,
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
    let mut db = ws.create_database_with(Box::new(MemoryStore::new(ws.pool())));
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

/// A backend of [`every_read_path_reports_one_cost`]: a paper
/// organization, or the in-memory baseline — bare or behind a foreign
/// store that implements only the required methods.
#[derive(Clone, Copy, Debug)]
enum Backend {
    Paper(OrganizationKind),
    Memory,
    Hintless,
}

impl Backend {
    /// A database of this backend on a workspace of its own, loaded with
    /// `map`.
    fn load(self, map: &SpatialMap) -> (Workspace, SpatialDatabase) {
        let ws = Workspace::new(128);
        let db = self.load_on(&ws, map);
        (ws, db)
    }

    /// [`load`](Backend::load) onto `ws`, beside its other databases.
    fn load_on(self, ws: &Workspace, map: &SpatialMap) -> SpatialDatabase {
        let memory = || MemoryStore::new(ws.pool());
        let mut db = match self {
            Backend::Paper(kind) => ws.create_database(DbOptions::new(kind).smax_bytes(40 * 1024)),
            Backend::Memory => ws.create_database_with(Box::new(memory())),
            Backend::Hintless => ws.create_database_with(Box::new(HintlessStore(memory()))),
        };
        for obj in &map.objects {
            db.insert(obj.id, obj.geometry.clone().unwrap());
        }
        db.finish_loading();
        db
    }
}

/// One query of [`every_read_path_reports_one_cost`].
#[derive(Clone, Copy, Debug)]
enum Probe {
    Window(Rect),
    Point(Point),
}

impl Probe {
    fn query(self, db: &SpatialDatabase, technique: WindowTechnique) -> Query<'_> {
        match self {
            Probe::Window(w) => db.query().window(w).technique(technique),
            Probe::Point(p) => db.query().point(p),
        }
    }
}

/// The stats and I/O of the one query a batch or stream ran, the
/// simulated milliseconds as bits.
fn only_query(outcome: &StreamOutcome) -> ((usize, u64, u64), IoStats) {
    match outcome.outcomes() {
        [OpOutcome::Query { stats, io, .. }] => (bits(*stats), *io),
        other => panic!("expected one query outcome, got {other:?}"),
    }
}

fn bits(stats: QueryStats) -> (usize, u64, u64) {
    (stats.candidates, stats.result_bytes, stats.io_ms.to_bits())
}

/// The caller measures a query once, so every read path reports the
/// same cost: the cursor's `stats()` and `io_stats()`, a batch's and a
/// stream's outcome, and a twin store's own `window_query` /
/// `point_query` — on every store, under every technique. A stream's
/// window carries no technique, so its leg runs the windows under the
/// default (SLM) only, and the points under every technique.
#[test]
fn every_read_path_reports_one_cost() {
    let map = SpatialMap::generate(a1(), 0.003, GeometryMode::Full, 36);
    let windows = WindowQuerySet::generate(&map, 1e-2, 3, 9).windows;
    let points = map.objects.iter().step_by(97);
    let points = points.map(|o| Probe::Point(o.geometry.as_ref().unwrap().vertices()[0]));
    let probes: Vec<Probe> = windows
        .into_iter()
        .map(Probe::Window)
        .chain(points)
        .collect();
    let paper = ALL_KINDS.map(Backend::Paper);
    for backend in paper
        .into_iter()
        .chain([Backend::Memory, Backend::Hintless])
    {
        let mut charged = false;
        for technique in ALL_TECHNIQUES {
            // One database per workspace: a cold start (`begin_query`)
            // puts the pool in the same state before every path.
            let ((ws, mut db), (_twin_ws, mut twin)) = (backend.load(&map), backend.load(&map));
            for probe in probes.iter().copied() {
                let at = format!("{backend:?} / {technique:?} / {probe:?}");
                db.store_mut().begin_query();
                let cursor = probe.query(&db, technique).run();
                let (stats, io) = (cursor.stats(), cursor.io_stats());
                assert_eq!(stats.io_ms.to_bits(), io.io_ms.to_bits(), "{at}");
                assert_eq!(stats.candidates, cursor.num_candidates(), "{at}");
                drop(cursor);
                charged |= io.requests() > 0;

                db.store_mut().begin_query();
                let batch = only_query(&ws.run_batch(vec![probe.query(&db, technique)], 2));
                assert_eq!(batch, (bits(stats), io), "{at}: run_batch");
                if technique == WindowTechnique::Slm || matches!(probe, Probe::Point(_)) {
                    db.store_mut().begin_query();
                    let op = match probe {
                        Probe::Window(window) => StreamOp::Window { db: &db, window },
                        Probe::Point(point) => StreamOp::Point { db: &db, point },
                    };
                    let stream = only_query(&run_stream(vec![op], 2));
                    assert_eq!(stream, (bits(stats), io), "{at}: run_stream");
                }

                twin.store_mut().begin_query();
                let store = twin.store();
                let twin_stats = match probe {
                    Probe::Window(w) => store.window_query(&w, technique),
                    Probe::Point(p) => store.point_query(&p),
                };
                assert_eq!(bits(twin_stats), bits(stats), "{at}: twin store");
            }
        }
        // The disk-resident stores charge, the memory stores never do.
        assert_eq!(charged, matches!(backend, Backend::Paper(_)), "{backend:?}");
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
    let (ws, mut db) = Backend::Paper(OrganizationKind::Cluster).load(&map);
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
        let (_, batch) = only_query(&ws.run_batch(vec![db.query().window(window)], 2));
        assert_eq!(io_bits(batch), slm, "{window:?}: run_batch");
        db.store_mut().begin_query();
        let op = StreamOp::Window { db: &db, window };
        let (_, stream) = only_query(&run_stream(vec![op], 2));
        assert_eq!(io_bits(stream), slm, "{window:?}: run_stream");
    }
    assert!(differ, "no window tells SLM from complete");
}

/// The pool's `(hits, misses)` between two readings.
fn sub(after: (u64, u64), before: (u64, u64)) -> (u64, u64) {
    (after.0 - before.0, after.1 - before.1)
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

/// A join measures each of its two disk-based steps once, where it runs
/// them, so every join path reports one cost: `run()` and `run_par(k)`,
/// the cursor's `io_stats()` and a twin workspace's global counters, and
/// a stream's join outcome at any thread count — on every store, under
/// every transfer technique.
///
/// `run_par(k)` fans the MBR join's leaf-pair sweeps and the exact tests
/// out over `k` threads; every page access stays on the calling thread.
/// So at every forced count — the test host may have one core — the
/// join hands the disk the same requests in the same order (the
/// `Disk::traced` capture), the pool counts the same hits and misses,
/// and the pairs, the undecided count and the stats are `run()`'s.
#[test]
fn every_join_path_reports_one_cost() {
    let maps = [MapId::Map1, MapId::Map2].map(|map| {
        let dataset = DataSet {
            series: SeriesId::A,
            map,
        };
        SpatialMap::generate(dataset, 0.006, GeometryMode::Full, 36)
    });
    let paper = ALL_KINDS.map(Backend::Paper);
    for backend in paper.into_iter().chain([Backend::Memory]) {
        // Both operands on one workspace of their own, loaded alike: a
        // twin starts every path from the same pool and disk state.
        let load = || {
            let ws = Workspace::new(128);
            let dbs = maps.each_ref().map(|map| backend.load_on(&ws, map));
            (ws, dbs)
        };
        let mut transferred = false;
        for technique in ALL_TRANSFERS {
            let at = format!("{backend:?} / {technique:?}");
            let (ws, [r, s]) = load();
            let counters = |ws: &Workspace| (ws.pool().hits(), ws.pool().misses());
            let before = counters(&ws);
            let (cursor, trace) = ws.disk().traced(|| r.join(&s).transfer(technique).run());
            let hits_misses = sub(counters(&ws), before);
            let (stats, io) = (cursor.stats(), cursor.io_stats());
            let phases = stats.mbr_join_ms + stats.transfer_ms;
            assert_eq!(io.io_ms.to_bits(), phases.to_bits(), "{at}");
            assert_eq!(stats.mbr_pairs, cursor.num_candidates() as u64, "{at}");
            let undecided = cursor.undecided();
            // Iterating refines one pair at a time, in MBR-join order.
            let mut answers: Vec<(u64, u64)> = cursor.collect();
            answers.sort_unstable();
            transferred |= stats.transfer_ms > 0.0;

            for threads in [1, 2, 3, 8] {
                let at = format!("{at}: run_par({threads})");
                let (twin_ws, [twin_r, twin_s]) = load();
                let (before, before_hm) = (twin_ws.disk().stats(), counters(&twin_ws));
                let (twin, twin_trace) = twin_ws
                    .disk()
                    .traced(|| twin_r.join(&twin_s).transfer(technique).run_par(threads));
                let global = twin_ws.disk().stats().since(&before);
                assert_eq!(twin.stats(), stats, "{at}");
                assert_eq!(io_bits(twin.io_stats()), io_bits(io), "{at}");
                assert_eq!(io_bits(global), io_bits(io), "{at}: twin's global delta");
                assert!(twin_trace == trace, "{at}: request sequence");
                assert_eq!(
                    sub(counters(&twin_ws), before_hm),
                    hits_misses,
                    "{at}: pool"
                );
                assert_eq!(twin.undecided(), undecided, "{at}: undecided pairs");
                assert_eq!(twin.pairs(), answers, "{at}: answers");
            }

            if technique == TransferTechnique::Complete {
                for threads in [1, 4] {
                    let (_ws, [left, right]) = load();
                    let join = StreamOp::Join {
                        left: &left,
                        right: &right,
                    };
                    match run_stream(vec![join], threads).outcomes() {
                        [OpOutcome::Join { pairs, io: op_io }] => {
                            assert_eq!(io_bits(*op_io), io_bits(io), "{at}: {threads} threads");
                            assert_eq!(*pairs, answers.len() as u64, "{at}: {threads} threads");
                        }
                        other => panic!("expected one join outcome, got {other:?}"),
                    }
                }
            }
        }
        // The disk-resident stores charge the transfer, the memory store
        // never does (the MBR join reads its tree through the pool).
        let paper = matches!(backend, Backend::Paper(_));
        assert_eq!(transferred, paper, "{backend:?}");
    }
}
