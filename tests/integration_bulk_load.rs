//! The STR bulk load. That a load on 1 and on 8 threads builds the same
//! tree on the same pages for the same I/O, after which every read makes
//! the same requests — on every backend, the trait's insertion fallback
//! included — is the differential matrix's build axis
//! (`tests/differential.rs`). Here: STR-built trees beat
//! insertion-built trees on construction I/O and directory size while
//! answering identically, the leaf level is packed, and a load that
//! cannot finish — a repeated id, a non-finite MBR, a non-empty
//! database — panics before it charges anything.

mod foreign_store;

use std::panic::{catch_unwind, AssertUnwindSafe};

use foreign_store::HintlessStore;
use spatialdb::bulk_load_records_par;
use spatialdb::geom::{Geometry, HasMbr, Point, Polyline, Rect};
use spatialdb::storage::{
    new_shared_pool, MemoryStore, ObjectRecord, OrganizationKind, SecondaryOrganization,
    SpatialStore, WindowTechnique,
};
use spatialdb::{DbOptions, Disk, ObjectId, SpatialDatabase, Workspace};

const ALL_KINDS: [OrganizationKind; 3] = [
    OrganizationKind::Secondary,
    OrganizationKind::Primary,
    OrganizationKind::Cluster,
];

const ALL_TECHNIQUES: [WindowTechnique; 3] = [
    WindowTechnique::Complete,
    WindowTechnique::Threshold,
    WindowTechnique::Slm,
];

/// A deterministic street-like map of `n` polylines on the unit square.
fn objects(n: u64) -> Vec<(u64, Geometry)> {
    let side = (n as f64).sqrt().ceil() as u64;
    (0..n)
        .map(|i| {
            let x = (i % side) as f64 / side as f64;
            let y = (i / side) as f64 / side as f64;
            let line = Polyline::new(vec![
                Point::new(x, y),
                Point::new(x + 0.6 / side as f64, y + 0.3 / side as f64),
                Point::new(x + 1.2 / side as f64, y),
            ]);
            (i, Geometry::from(line))
        })
        .collect()
}

fn windows() -> Vec<Rect> {
    vec![
        Rect::new(0.0, 0.0, 0.3, 0.3),
        Rect::new(0.2, 0.2, 0.6, 0.5),
        Rect::new(0.5, 0.1, 0.9, 0.4),
        Rect::new(0.05, 0.55, 0.45, 0.95),
        Rect::new(0.45, 0.45, 0.55, 0.55),
        Rect::new(-1.0, -1.0, 2.0, 2.0),
    ]
}

/// Build a database with the STR bulk load on `threads` (1: the
/// sequential load).
fn load_str_par(ws: &Workspace, kind: OrganizationKind, n: u64, threads: usize) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind));
    ws.bulk_load_par(&mut db, objects(n), threads);
    db.finish_loading();
    db
}

/// Build a database with the insertion loop (the pre-STR path).
fn load_insert(ws: &Workspace, kind: OrganizationKind, n: u64) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind));
    for (id, g) in objects(n) {
        db.insert(id, g);
    }
    db.finish_loading();
    db
}

/// STR construction charges strictly less simulated I/O than the
/// insertion loop, packs a strictly smaller directory, and the finished
/// database answers the full technique matrix with the same result sets.
#[test]
fn str_beats_insertion_and_answers_identically() {
    const N: u64 = 6_000;
    for kind in ALL_KINDS {
        let ws_ins = Workspace::new(256);
        let ws_str = Workspace::new(256);
        let ins = load_insert(&ws_ins, kind, N);
        let str_db = load_str_par(&ws_str, kind, N, 1);
        let (str_ms, ins_ms) = (ws_str.disk().stats().io_ms, ws_ins.disk().stats().io_ms);
        assert!(
            str_ms < ins_ms,
            "{kind:?}: STR build {str_ms} ms not below insertion build {ins_ms} ms",
        );
        assert!(
            str_db.store().tree().num_nodes() < ins.store().tree().num_nodes(),
            "{kind:?}: STR packs no fewer nodes",
        );
        for technique in ALL_TECHNIQUES {
            for (i, w) in windows().into_iter().enumerate() {
                let mut ids_ins: Vec<u64> = str_db
                    .query()
                    .window(w)
                    .technique(technique)
                    .run()
                    .map(|(id, _)| id)
                    .collect();
                let mut ids_str: Vec<u64> = ins
                    .query()
                    .window(w)
                    .technique(technique)
                    .run()
                    .map(|(id, _)| id)
                    .collect();
                ids_ins.sort_unstable();
                ids_str.sort_unstable();
                assert_eq!(ids_ins, ids_str, "{kind:?}/{technique:?}/{i}");
            }
        }
    }
}

/// Packing quality: at the default 0.9 fill factor the STR leaf level
/// is near-minimal — no more than 6 % above ⌈N / leaf_cap⌉ leaves
/// (slack for per-slice ragged tails) — while the insertion-built tree
/// runs ~30 % fatter.
#[test]
fn str_leaf_level_is_packed() {
    const N: u64 = 10_000;
    let ws = Workspace::new(256);
    let db = load_str_par(&ws, OrganizationKind::Secondary, N, 1);
    let store = db.store();
    let tree = store.tree();
    let leaf_cap = (tree.config().max_entries as f64 * 0.9).floor() as usize;
    let minimal = (N as usize).div_ceil(leaf_cap);
    assert!(
        tree.num_leaves() <= minimal + minimal / 16,
        "{} leaves for a minimal packing of {minimal}",
        tree.num_leaves(),
    );
    let ws_ins = Workspace::new(256);
    let ins = load_insert(&ws_ins, OrganizationKind::Secondary, N);
    assert!(ins.store().tree().num_leaves() > tree.num_leaves());
}

/// The in-memory baseline takes the same bulk-load entry points and
/// answers identically to its insertion-built twin.
#[test]
fn memory_store_bulk_load_matches_insertion() {
    use spatialdb::storage::MemoryStore;
    const N: u64 = 2_000;
    let ws_a = Workspace::new(64);
    let mut a = ws_a.create_database_with(Box::new(MemoryStore::new(ws_a.pool())));
    ws_a.bulk_load_par(&mut a, objects(N), 4);
    let ws_b = Workspace::new(64);
    let b = ws_b.create_database_with(Box::new(MemoryStore::new(ws_b.pool())));
    for (id, g) in objects(N) {
        b.insert(id, g);
    }
    assert_eq!(a.len(), b.len());
    for (i, w) in windows().into_iter().enumerate() {
        let mut ids_a: Vec<u64> = a.query().window(w).run().map(|(id, _)| id).collect();
        let mut ids_b: Vec<u64> = b.query().window(w).run().map(|(id, _)| id).collect();
        ids_a.sort_unstable();
        ids_b.sort_unstable();
        assert_eq!(ids_a, ids_b, "window {i}");
    }
}

/// Duplicate object ids are rejected up front, before any I/O.
#[test]
#[should_panic(expected = "already stored")]
fn bulk_load_rejects_duplicate_ids() {
    let ws = Workspace::new(64);
    let mut db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
    let mut objs = objects(100);
    objs.push((42, objs[42].1.clone()));
    ws.bulk_load_par(&mut db, objs, 1);
}

/// `n` records on a grid of the unit square, 512 bytes each.
fn records(n: u64) -> Vec<ObjectRecord> {
    let side = (n as f64).sqrt().ceil() as u64;
    (0..n)
        .map(|i| {
            let x = (i % side) as f64 / side as f64;
            let y = (i / side) as f64 / side as f64;
            ObjectRecord::new(ObjectId(i), Rect::new(x, y, x + 0.01, y + 0.01), 512)
        })
        .collect()
}

/// A repeated id in a direct load is refused before anything is
/// planned or charged, whatever the backend: the store stays empty and
/// consistent, the disk untouched.
#[test]
fn repeated_id_charges_nothing() {
    let mut records = records(500);
    records.push(records[42]);
    for threads in [1, 4] {
        let ws = Workspace::new(64);
        let memory: Box<dyn SpatialStore> = Box::new(MemoryStore::new(ws.pool()));
        let mut dbs: Vec<SpatialDatabase> = ALL_KINDS
            .into_iter()
            .map(|kind| ws.create_database(DbOptions::new(kind)))
            .collect();
        dbs.push(ws.create_database_with(memory));
        for mut db in dbs {
            let before = ws.disk().stats();
            let result = catch_unwind(AssertUnwindSafe(|| {
                bulk_load_records_par(db.store_mut(), &records, threads);
            }));
            let name = db.store().name();
            let message = result.expect_err(name);
            assert_eq!(
                message.downcast_ref::<String>().map(String::as_str),
                Some("object 42 already stored"),
                "{name}, {threads} threads"
            );
            assert_eq!(ws.disk().stats(), before, "{name}, {threads} threads");
            assert_eq!(db.store().tree().len(), 0, "{name}, {threads} threads");
            db.store().check_consistency().unwrap();
        }
    }
}

/// Bulk-loading a database that already holds an object is refused
/// before anything is planned or charged, on every backend — a foreign
/// one whose `str_install` is the trait's insertion fallback included —
/// and the object keeps its geometry.
#[test]
fn bulk_load_into_a_non_empty_database_charges_nothing() {
    let street = |x: f64| Polyline::new(vec![Point::new(x, 0.5), Point::new(x + 0.1, 0.55)]);
    let all = Rect::new(0.0, 0.0, 1.0, 1.0);
    for threads in [1, 4] {
        let ws = Workspace::new(64);
        let memory = || MemoryStore::new(ws.pool());
        let mut dbs: Vec<SpatialDatabase> = ALL_KINDS
            .into_iter()
            .map(|kind| ws.create_database(DbOptions::new(kind)))
            .collect();
        dbs.push(ws.create_database_with(Box::new(memory())));
        dbs.push(ws.create_database_with(Box::new(HintlessStore(memory()))));
        for mut db in dbs {
            db.insert(1, street(0.2));
            let name = db.store().name();
            let at = format!("{name}, {threads} threads");
            let before = ws.disk().stats();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let objects = vec![(2, Geometry::from(street(0.6)))];
                ws.bulk_load_par(&mut db, objects, threads);
            }));
            let payload = result.expect_err(&at);
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(
                message.contains("non-empty store") && message.contains(name),
                "{at}: {message}"
            );
            assert_eq!(ws.disk().stats(), before, "{at}");
            assert_eq!(db.len(), 1, "{at}");
            let kept = db.geometry(1).map(|g| g.mbr());
            assert_eq!(kept, Some(street(0.2).mbr()), "{at}");
            assert_eq!(db.query().window(all).run().ids(), vec![1], "{at}");
        }
    }
}

/// A tiling worker's panic (here: a non-finite MBR smuggled past the
/// planner) reaches the caller before the install charges anything: the
/// store stays empty and the disk untouched.
#[test]
fn tiling_panic_charges_nothing() {
    let disk = Disk::with_defaults();
    let mut org = SecondaryOrganization::new(new_shared_pool(disk.clone(), 128));
    let mut records = records(4_000);
    // NaN sorts last under the STR total order, so the poisoned entry
    // lands in the last worker's slices; the others finish tiling first.
    records.push(ObjectRecord::new(
        ObjectId(4_000),
        Rect {
            xmin: f64::NAN,
            ymin: 0.0,
            xmax: f64::NAN,
            ymax: 1.0,
        },
        512,
    ));
    let before = disk.stats();
    let result = catch_unwind(AssertUnwindSafe(|| {
        bulk_load_records_par(&mut org, &records, 4);
    }));
    assert!(result.is_err(), "non-finite MBR must abort the bulk load");
    assert_eq!(disk.stats(), before);
    assert!(org.tree().is_empty());
    org.check_consistency().unwrap();
}
