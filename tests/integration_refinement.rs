//! The refinement half of the read path: answers must not depend on
//! which shortcut produced them.
//!
//! That every read path answers what an exhaustive exact test answers —
//! on data built to sit on the containment rule's and the hint rule's
//! edges, with points aimed at the masks, joins, condensing removals,
//! changes of geometry, windows past the radix cutoff and a backend
//! whose entries carry no hint — is the differential matrix's named
//! fixed cases (`tests/differential.rs`). Here:
//!
//! * **Undecided share on A-1.** How many MBR-straddling candidates the
//!   second filter step leaves to the exact test, as counts, pinned.
//! * **Filter-only records** (inserted or bulk-loaded through
//!   `store_mut()`, no geometry) must still refuse refinement on every
//!   path, even when the window contains every MBR; `len()`,
//!   `object_ids()` and `geometry()` agree on what is stored, after an
//!   exclusive delete too.
//! * **Snapshot isolation without tombstones.** Geometry rides the
//!   versioned root: a cursor pinned before a remove still yields the
//!   object with its geometry, and the geometry is freed by ordinary
//!   epoch reclamation once that cursor is gone — through `&self` alone.

mod lattice;

use lattice::lattice_objects;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap, WindowQuerySet};
use spatialdb::geom::{HasMbr, Point, Polyline, Rect, Verdict};
use spatialdb::storage::ObjectRecord;
use spatialdb::{
    bulk_load_records_par, run_stream, DbOptions, Geometry, ObjectId, OrganizationKind,
    SpatialDatabase, StreamOp, Workspace,
};
use std::sync::Arc;

#[test]
fn the_hint_leaves_few_straddling_candidates_undecided_on_a1() {
    // A-1 at smoke scale as the benchmark builds it (seed 1994,
    // `bulk_load`, cluster organization). Counts, not clocks: the same
    // on every machine. Of the candidates whose MBR straddles the window
    // edge — all of which went to the exact test before the second
    // filter step — at most this share still does. Measured here with
    // the two hinted points alone: 166 of 2,764, 122 of 1,010, 103 of 380
    // (6.0 % / 12.1 % / 27.1 %); with the cell masks too: 82, 49 and 30
    // (3.0 % / 4.9 % / 7.9 %). At full scale 2,963 of 46,478, 1,948 of
    // 16,389, 1,561 of 5,322 (6.4 / 11.9 / 29.3 %), with the masks 1,562,
    // 795 and 489 (3.4 / 4.9 / 9.2 %).
    const SCALE: f64 = 0.05;
    const BOUNDS: [(f64, f64); 3] = [(1e-3, 0.034), (1e-4, 0.055), (1e-5, 0.09)];
    let a1 = DataSet {
        series: SeriesId::A,
        map: MapId::Map1,
    };
    let mut map = SpatialMap::generate(a1, SCALE, GeometryMode::Full, 1994);
    let objects: Vec<(u64, Geometry)> = map
        .objects
        .iter_mut()
        .map(|o| (o.id, o.geometry.take().expect("full mode").into()))
        .collect();
    let ws = Workspace::new(1600);
    let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    ws.bulk_load_par(&mut db, objects.clone(), 1);
    db.finish_loading();
    for (area, most) in BOUNDS {
        let windows = WindowQuerySet::generate(&map, area, 200, 1994).windows;
        let (mut straddling, mut undecided, mut dropped, mut false_hits) = (0, 0, 0, 0);
        for w in &windows {
            let cursor = db.query().window(*w).run();
            let contained = objects
                .iter()
                .filter(|(_, g)| w.contains_rect(&g.mbr()))
                .count();
            straddling += cursor.num_candidates() - contained;
            undecided += cursor.undecided();
            dropped += objects
                .iter()
                .filter(|(_, g)| {
                    g.mbr().intersects(w) && g.hint().verdict(&g.mbr(), w) == Verdict::FalseHit
                })
                .count();
            false_hits += cursor.num_candidates() - cursor.ids().len();
        }
        println!(
            "A-1 x {SCALE}, {area} windows: {undecided} undecided of {straddling} \
             straddling candidates, {false_hits} false hits, {dropped} dropped by the mask"
        );
        // A false hit is found by the exact test or the mask, and the
        // mask finds nothing else.
        assert!(dropped <= false_hits && false_hits <= undecided + dropped);
        assert!(
            undecided as f64 <= most * straddling as f64,
            "{area}: {undecided} of {straddling} straddling candidates undecided, bound {most}"
        );
    }
}

/// `len()` counts every stored object, `object_ids()` lists exactly
/// the stored ones with exact geometry, and `geometry()` finds each of
/// those and nothing else.
fn assert_views_agree(db: &SpatialDatabase, len: usize, ids: &[u64]) {
    assert_eq!(db.len(), len);
    assert_eq!(db.object_ids(), ids);
    for id in (0..40).chain([100]) {
        assert_eq!(db.geometry(id).is_some(), ids.contains(&id), "object {id}");
    }
}

#[test]
fn filter_only_records_refuse_refinement_on_every_path() {
    let records: Vec<ObjectRecord> = (0..40u64)
        .map(|i| {
            let (x, y) = ((i % 8) as f64 / 8.0, (i / 8) as f64 / 8.0);
            ObjectRecord::new(ObjectId(i), Rect::new(x, y, x + 0.05, y + 0.05), 700)
        })
        .collect();
    // Filter-only records, inserted one by one and bulk-loaded.
    for bulk in [false, true] {
        let ws = Workspace::new(64);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        if bulk {
            bulk_load_records_par(db.store_mut(), &records, 1);
        } else {
            for rec in &records {
                db.store_mut().insert(rec);
            }
        }
        db.finish_loading();
        assert_views_agree(&db, 40, &[]);
        refuse_filter_only_records(&mut db);
    }
}

fn refuse_filter_only_records(db: &mut SpatialDatabase) {
    // The window contains every MBR: by the containment rule alone all
    // 40 would be "answers" nobody can hand a geometry out for.
    let all = Rect::new(0.0, 0.0, 1.0, 1.0);
    assert_eq!(db.query().window(all).run().stats().candidates, 40);
    let panics = |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
    assert!(panics(&|| drop(db.query().window(all).run().ids())));
    assert!(panics(&|| drop(db.query().window(all).run().next())));
    let stream = |window: Rect| run_stream(vec![StreamOp::Window { db, window }], 2);
    assert!(panics(&|| drop(stream(all))));
    // Mixed: one properly inserted object — its hint cell inside the
    // window, its MBR not — does not make the rest refinable, on any
    // path, and the message still says what to do about it.
    let street = Polyline::new(vec![Point::new(0.32, 0.32), Point::new(0.33, 0.35)]);
    db.insert(100, street);
    assert_views_agree(db, 41, &[100]);
    let mixed = Rect::new(0.2, 0.2, 0.325, 0.325);
    let refusal = |f: &dyn Fn()| -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("refining a filter-only record must panic");
        let text = payload.downcast_ref::<String>();
        text.expect("a formatted panic message").clone()
    };
    // The executors refine on worker threads and re-raise the worker's
    // own panic: the same message on every path.
    for message in [
        refusal(&|| drop(db.query().window(mixed).run().ids())),
        refusal(&|| drop(db.query().window(mixed).run().next())),
        refusal(&|| drop(stream(mixed))),
    ] {
        assert!(
            message.contains("has no exact geometry") && message.contains("filter-only"),
            "unexpected refusal: {message:?}"
        );
    }
    // Where only the real object is a candidate, the query answers.
    let own = Rect::new(0.31, 0.31, 0.325, 0.325);
    let cursor = db.query().window(own).run();
    assert_eq!((cursor.num_candidates(), cursor.undecided()), (1, 0));
    assert_eq!(cursor.ids(), vec![100]);
    // Deleted through the exclusive path, past the geometry table: no
    // view lists it any more.
    assert!(db.store_mut().delete(ObjectId(100)));
    assert_views_agree(db, 40, &[]);
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
