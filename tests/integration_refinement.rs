//! The refinement half of the read path: answers must not depend on
//! which shortcut produced them.
//!
//! * **Containment rule.** A window candidate whose MBR lies inside the
//!   window is an answer without an exact test (and, on the id-only
//!   paths, without a geometry lookup). Every read path — cursor
//!   iteration, `ids()`, `run_batch`, `run_stream`, at 1 and 4 threads,
//!   on every organization — must return exactly what an exhaustive
//!   exact test over all objects returns, on data built to sit on the
//!   rule's edges: zero-area MBRs, MBRs equal to the window, MBRs
//!   touching a window edge from inside and from outside.
//! * **Filter-only records** (bulk-loaded through `store_mut()`, no
//!   geometry) must still refuse refinement on every path, even when the
//!   window contains every MBR.
//! * **Snapshot isolation without tombstones.** Geometry rides the
//!   versioned root: a cursor pinned before a remove still yields the
//!   object with its geometry, and the geometry is freed by ordinary
//!   epoch reclamation once that cursor is gone — through `&self` alone.
//! * **A foreign backend** that implements only the required trait
//!   methods answers through the provided `window_query_into` fallback.

use spatialdb::data::rng::SmallRng;
use spatialdb::disk::DiskHandle;
use spatialdb::geom::{HasMbr, Point, Polygon, Polyline, Rect};
use spatialdb::rtree::RStarTree;
use spatialdb::storage::{MemoryStore, ObjectRecord, SharedPool, WindowTechnique};
use spatialdb::{
    run_stream, DbOptions, Geometry, ObjectId, OpOutcome, OrganizationKind, QueryStats,
    SpatialDatabase, SpatialStore, StreamOp, Workspace,
};
use std::sync::Arc;

const ALL_KINDS: [OrganizationKind; 3] = [
    OrganizationKind::Secondary,
    OrganizationKind::Primary,
    OrganizationKind::Cluster,
];

/// Lattice pitch: every coordinate below is a multiple of 1/128, exact
/// in binary, so "touches the edge" means equal, not nearly equal.
const STEP: f64 = 1.0 / 128.0;

fn at(i: usize) -> f64 {
    i as f64 * STEP
}

/// Points, polylines and polygons on the lattice. The polylines include
/// axis-parallel segments (zero-area MBRs) and an L whose MBR corner it
/// never enters; the polygons are triangles covering half their MBR —
/// both kinds give windows that hit the MBR and miss the object.
fn lattice_objects() -> Vec<(u64, Geometry)> {
    let mut objects: Vec<Geometry> = Vec::new();
    for i in (2..122).step_by(8) {
        for j in (2..122).step_by(8) {
            let (x, y) = (at(i), at(j));
            let p = |dx: usize, dy: usize| Point::new(x + at(dx), y + at(dy));
            objects.push(match (i / 8 + j / 8) % 5 {
                0 => p(0, 0).into(),
                1 => Polyline::new(vec![p(0, 0), p(4, 0)]).into(),
                2 => Polyline::new(vec![p(0, 0), p(0, 4)]).into(),
                3 => Polyline::new(vec![p(0, 0), p(0, 4), p(4, 4)]).into(),
                _ => Polygon::new(vec![p(0, 0), p(4, 0), p(0, 4)]).into(),
            });
        }
    }
    objects
        .into_iter()
        .enumerate()
        .map(|(id, g)| (id as u64, g))
        .collect()
}

/// Seeded lattice windows plus the hand-placed edge cases.
fn lattice_windows(objects: &[(u64, Geometry)]) -> Vec<Rect> {
    let mut rng = SmallRng::seed_from_u64(1994);
    let mut windows: Vec<Rect> = (0..120)
        .map(|_| {
            let (x, y) = (rng.gen_range(0..120usize), rng.gen_range(0..120usize));
            let (w, h) = (rng.gen_range(0..17usize), rng.gen_range(0..17usize));
            Rect::new(at(x), at(y), at(x + w), at(y + h))
        })
        .collect();
    // Windows inside the corner of an MBR its object never enters: the
    // far corner of a triangle's, the inner corner of an L's.
    for (_, g) in objects.iter().filter(|(_, g)| g.mbr().area() > 0.0) {
        let m = g.mbr();
        windows.push(match g {
            Geometry::Polygon(_) => Rect::new(m.xmax - STEP, m.ymax - STEP, m.xmax, m.ymax),
            _ => Rect::new(m.xmax - STEP, m.ymin, m.xmax, m.ymin + STEP),
        });
    }
    // A window equal to the MBR of one object of every kind.
    windows.extend(objects.iter().take(5).map(|(_, g)| g.mbr()));
    // Edges shared with object MBRs from inside and from outside: the
    // objects start at 2 + 8k and are 4 wide.
    windows.push(Rect::new(at(2), at(2), at(22), at(22)));
    windows.push(Rect::new(at(6), at(6), at(18), at(18)));
    windows.push(Rect::new(at(10), at(10), at(10), at(10)));
    windows.push(Rect::new(-1.0, -1.0, 2.0, 2.0));
    windows
}

fn oracle(objects: &[(u64, Geometry)], window: &Rect) -> Vec<u64> {
    let hits = objects.iter().filter(|(_, g)| g.intersects_rect(window));
    hits.map(|(id, _)| *id).collect()
}

fn load(ws: &Workspace, kind: OrganizationKind, objects: &[(u64, Geometry)]) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind).smax_bytes(8 * 1024));
    for (id, g) in objects {
        db.insert(*id, g.clone());
    }
    db.finish_loading();
    db
}

fn stream_ids(db: &SpatialDatabase, windows: &[Rect], threads: usize) -> Vec<Vec<u64>> {
    let ops = windows
        .iter()
        .map(|&window| StreamOp::Window { db, window });
    let out = run_stream(ops.collect(), threads);
    let ids = out.outcomes().iter().map(|o| match o {
        OpOutcome::Query { ids, .. } => ids.clone(),
        other => panic!("window op produced {other:?}"),
    });
    ids.collect()
}

#[test]
fn containment_rule_matches_the_exhaustive_exact_test_on_every_path() {
    let objects = lattice_objects();
    let windows = lattice_windows(&objects);
    let expected: Vec<Vec<u64>> = windows.iter().map(|w| oracle(&objects, w)).collect();

    // The data really sits on both sides of the rule.
    let count = |pred: &dyn Fn(&Rect, &Geometry) -> bool| -> usize {
        let per_window = windows
            .iter()
            .map(|w| objects.iter().filter(|(_, g)| pred(w, g)).count());
        per_window.sum()
    };
    let contained = count(&|w, g| w.contains_rect(&g.mbr()));
    let partial = count(&|w, g| !w.contains_rect(&g.mbr()) && g.intersects_rect(w));
    let false_hits = count(&|w, g| g.mbr().intersects(w) && !g.intersects_rect(w));
    assert!(
        contained > 100 && partial > 100 && false_hits > 20,
        "{contained} contained, {partial} partial, {false_hits} false hits"
    );

    for kind in ALL_KINDS {
        let ws = Workspace::new(128);
        let db = load(&ws, kind, &objects);
        for (w, expected) in windows.iter().zip(&expected) {
            let iterated: Vec<u64> = db.query().window(*w).run().map(|(id, _)| id).collect();
            assert_eq!(&iterated, expected, "{kind:?} iteration, window {w:?}");
            assert_eq!(
                &db.query().window(*w).run().ids(),
                expected,
                "{kind:?} ids()"
            );
            // Draining after a partial iteration continues where it stopped.
            let mut cursor = db.query().window(*w).run();
            let head: Vec<u64> = cursor.by_ref().take(2).map(|(id, _)| id).collect();
            let drained: Vec<u64> = head.into_iter().chain(cursor.ids()).collect();
            assert_eq!(&drained, expected, "{kind:?} take(2) + ids()");
            // Every yielded geometry is the object's own.
            for (id, g) in db.query().window(*w).run() {
                assert_eq!(g.mbr(), objects[id as usize].1.mbr());
            }
        }
        for threads in [1, 4] {
            let queries = windows.iter().map(|w| db.query().window(*w)).collect();
            let batch = ws.run_batch(queries, threads);
            let ids: Vec<Vec<u64>> = batch.into_iter().map(|o| o.into_ids()).collect();
            assert_eq!(ids, expected, "{kind:?} run_batch({threads})");
            assert_eq!(
                stream_ids(&db, &windows, threads),
                expected,
                "{kind:?} run_stream({threads})"
            );
        }
        let par = db.query().window(windows[0]).run_par(4).into_ids();
        assert_eq!(par, expected[0], "{kind:?} run_par");
    }
}

#[test]
fn filter_only_records_refuse_refinement_on_every_path() {
    let ws = Workspace::new(64);
    let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    let records: Vec<ObjectRecord> = (0..40u64)
        .map(|i| {
            let (x, y) = ((i % 8) as f64 / 8.0, (i / 8) as f64 / 8.0);
            ObjectRecord::new(ObjectId(i), Rect::new(x, y, x + 0.05, y + 0.05), 700)
        })
        .collect();
    db.store_mut().bulk_load(&records);
    db.finish_loading();
    // The window contains every MBR: by the containment rule alone all
    // 40 would be "answers" nobody can hand a geometry out for.
    let all = Rect::new(0.0, 0.0, 1.0, 1.0);
    assert_eq!(db.query().window(all).run().stats().candidates, 40);
    let panics = |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
    assert!(panics(&|| drop(db.query().window(all).run().ids())));
    assert!(panics(&|| drop(db.query().window(all).run().next())));
    assert!(panics(&|| drop(db.query().window(all).run_par(2))));
    assert!(panics(&|| drop(stream_ids(&db, &[all], 2))));
    // Mixed: one properly inserted object does not make the rest
    // refinable.
    db.insert(100, Point::new(0.5, 0.5));
    assert!(panics(&|| drop(db.query().window(all).run().ids())));
}

#[test]
fn a_pinned_cursor_keeps_removed_geometry_and_reclamation_frees_it() {
    let ws = Workspace::new(128);
    // Not `mut`: everything below goes through `&self`.
    let db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    let objects = lattice_objects();
    for (id, g) in &objects {
        db.insert(*id, g.clone());
    }
    let all = Rect::new(-1.0, -1.0, 2.0, 2.0);
    let victim = 7u64;
    let weak = Arc::downgrade(&db.geometry(victim).expect("stored"));

    let pinned = db.query().window(all).run();
    assert!(db.remove(victim));
    assert!(db.geometry(victim).is_none());
    assert!(!db.query().window(all).run().ids().contains(&victim));
    assert_eq!(db.object_ids().len(), db.len());

    // The cursor opened before the remove still yields the object, with
    // its geometry, from the root it pinned.
    let mut seen = false;
    for (id, g) in pinned {
        if id == victim {
            seen = true;
            assert_eq!(g.mbr(), objects[victim as usize].1.mbr());
            assert!(Arc::ptr_eq(&g, &weak.upgrade().expect("still pinned")));
        }
    }
    assert!(seen, "the pinned snapshot lost the removed object");

    // The cursor is gone (the loop consumed it); two commits later the
    // superseded root — the last reference to the geometry — is freed.
    db.insert(10_000, Point::new(0.5, 0.5));
    db.insert(10_001, Point::new(0.25, 0.25));
    assert!(weak.upgrade().is_none(), "removed geometry was never freed");
}

#[test]
fn churn_through_the_shared_path_leaks_neither_geometry_nor_snapshots() {
    let ws = Workspace::new(128);
    let db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
    let objects = lattice_objects();
    for (id, g) in &objects {
        db.insert(*id, g.clone());
    }
    let base = objects.len();
    let mut most_retired = 0;
    for round in 0..20_000u64 {
        let id = 1_000_000 + round % 97;
        db.insert(id, objects[(round % 50) as usize].1.clone());
        assert!(db.remove(id));
        most_retired = most_retired.max(db.retired_snapshots());
    }
    assert_eq!(db.len(), base);
    assert_eq!(db.object_ids().len(), base, "geometry table out of step");
    assert!(
        most_retired <= 2,
        "{most_retired} snapshots retired at once"
    );
    let all = Rect::new(-1.0, -1.0, 2.0, 2.0);
    assert_eq!(db.query().window(all).run().ids().len(), base);
}

/// A backend from before `window_query_into` existed: only the
/// required methods, everything else from the trait's provided bodies.
#[derive(Clone)]
struct PlainStore(MemoryStore);

impl SpatialStore for PlainStore {
    fn name(&self) -> &'static str {
        "plain"
    }
    fn snapshot(&self) -> Box<dyn SpatialStore> {
        Box::new(self.clone())
    }
    fn insert(&mut self, rec: &ObjectRecord) {
        self.0.insert(rec)
    }
    fn delete(&mut self, oid: ObjectId) -> bool {
        self.0.delete(oid)
    }
    fn window_query(&self, w: &Rect, t: WindowTechnique) -> QueryStats {
        self.0.window_query(w, t)
    }
    fn point_query(&self, p: &Point) -> QueryStats {
        self.0.point_query(p)
    }
    fn fetch_object(&self, oid: ObjectId) {
        self.0.fetch_object(oid)
    }
    fn occupied_pages(&self) -> u64 {
        self.0.occupied_pages()
    }
    fn num_objects(&self) -> usize {
        self.0.num_objects()
    }
    fn contains(&self, oid: ObjectId) -> bool {
        self.0.contains(oid)
    }
    fn disk(&self) -> DiskHandle {
        self.0.disk()
    }
    fn pool(&self) -> SharedPool {
        self.0.pool()
    }
    fn tree(&self) -> &RStarTree {
        self.0.tree()
    }
    fn flush(&mut self) {
        self.0.flush()
    }
    fn begin_query(&mut self) {
        self.0.begin_query()
    }
    fn object_size(&self, oid: ObjectId) -> u32 {
        self.0.object_size(oid)
    }
}

#[test]
fn a_backend_without_the_into_methods_answers_through_the_fallback() {
    let objects = lattice_objects();
    let windows = lattice_windows(&objects);
    let ws = Workspace::new(64);
    let store = PlainStore(MemoryStore::new(ws.disk(), ws.pool()));
    let mut db = ws.create_database_with(Box::new(store));
    for (id, g) in &objects {
        db.insert(*id, g.clone());
    }
    db.finish_loading();
    for w in &windows {
        let cursor = db.query().window(*w).run();
        let mbr_hits = objects.iter().filter(|(_, g)| g.mbr().intersects(w));
        assert_eq!(cursor.stats().candidates, mbr_hits.count());
        assert_eq!(cursor.ids(), oracle(&objects, w), "window {w:?}");
    }
    // On the horizontal segment from (2, 10) to (6, 10).
    let on_line = Point::new(at(3), at(10));
    let through = db.query().point(on_line).run().ids();
    let expected = objects.iter().filter(|(_, g)| g.contains_point(&on_line));
    assert_eq!(through, expected.map(|(id, _)| *id).collect::<Vec<u64>>());
    assert!(!through.is_empty());
}
