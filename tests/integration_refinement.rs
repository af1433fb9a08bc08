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
//! * **Hint rule.** A window that contains one of the two hint cells in
//!   a candidate's leaf entry, or one of its `holds` cells, decides it
//!   the same way; a window meeting none of its `touched` cells drops it
//!   as a false hit. The same paths against the same oracle, on streets
//!   whose end vertices, middles and hint-cell borders the windows are
//!   aimed at; loaded by `insert`, `bulk_load` and `bulk_load_par`; after
//!   splits, forced reinserts and condensing removals; after an id
//!   changed its geometry — and a backend whose entries carry no hint
//!   gives the same answers with every straddling candidate left to the
//!   exact test.
//! * **Points and joins.** Point queries aimed at vertices and the
//!   masks' grid, and a join of two street maps, answer what an
//!   exhaustive exact test answers on every path, on every backend — the
//!   hintless one included.
//! * **Past the radix cutoff.** Windows of thousands of candidates,
//!   whose lists the cursor orders by a radix sort, answer in strictly
//!   ascending id order on every path — ids up to `u64::MAX` included.
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
//! * **A foreign backend** that implements only the required trait
//!   methods answers window queries through its `window_query_into` and
//!   point queries through the provided `point_query_into`.

mod foreign_store;

use foreign_store::HintlessStore;
use spatialdb::data::rng::SmallRng;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap, WindowQuerySet};
use spatialdb::geom::{HasMbr, Point, Polygon, Polyline, Rect, Verdict};
use spatialdb::storage::{MemoryStore, ObjectRecord};
use spatialdb::{
    bulk_load_records_par, run_stream, DbOptions, Geometry, ObjectId, OpOutcome, OrganizationKind,
    Query, SpatialDatabase, StreamOp, StreamOutcome, Workspace,
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

/// The answers of a stream of queries — `run_stream`'s or `run_batch`'s.
fn query_ids(out: &StreamOutcome) -> Vec<Vec<u64>> {
    let ids = out.outcomes().iter().map(|o| match o {
        OpOutcome::Query { ids, .. } => ids.clone(),
        other => panic!("query op produced {other:?}"),
    });
    ids.collect()
}

/// What a read asks: a window or a point query.
#[derive(Clone, Copy, Debug)]
enum Aim {
    Window(Rect),
    Point(Point),
}

impl From<Rect> for Aim {
    fn from(w: Rect) -> Self {
        Aim::Window(w)
    }
}

impl From<Point> for Aim {
    fn from(p: Point) -> Self {
        Aim::Point(p)
    }
}

impl Aim {
    fn query(self, db: &SpatialDatabase) -> Query<'_> {
        match self {
            Aim::Window(w) => db.query().window(w),
            Aim::Point(p) => db.query().point(p),
        }
    }

    fn op(self, db: &SpatialDatabase) -> StreamOp<'_> {
        match self {
            Aim::Window(window) => StreamOp::Window { db, window },
            Aim::Point(point) => StreamOp::Point { db, point },
        }
    }
}

fn stream_ids<A: Copy + Into<Aim>>(
    db: &SpatialDatabase,
    aims: &[A],
    threads: usize,
) -> Vec<Vec<u64>> {
    let ops = aims.iter().map(|&a| a.into().op(db));
    query_ids(&run_stream(ops.collect(), threads))
}

/// Every read path of `db` — iteration, `ids()`, a partial iteration
/// drained by `ids()`, `run_batch` and `run_stream` at 1 and 4 threads —
/// returns `expected` for the windows or points `aims`, and
/// hands out the geometry `objects` (ascending by id) holds.
fn assert_every_path_answers<A: Copy + Into<Aim>>(
    ws: &Workspace,
    db: &SpatialDatabase,
    objects: &[(u64, Geometry)],
    aims: &[A],
    expected: &[Vec<u64>],
    what: &str,
) {
    let mbr_of = |id: u64| {
        let at = objects.binary_search_by_key(&id, |(id, _)| *id);
        objects[at.expect("answer is a stored object")].1.mbr()
    };
    for (&aim, expected) in aims.iter().zip(expected) {
        let aim: Aim = aim.into();
        let iterated: Vec<u64> = aim.query(db).run().map(|(id, _)| id).collect();
        assert_eq!(&iterated, expected, "{what} iteration, {aim:?}");
        assert_eq!(
            &aim.query(db).run().ids(),
            expected,
            "{what} ids(), {aim:?}"
        );
        // Draining after a partial iteration continues where it stopped.
        let mut cursor = aim.query(db).run();
        let head: Vec<u64> = cursor.by_ref().take(2).map(|(id, _)| id).collect();
        let drained: Vec<u64> = head.into_iter().chain(cursor.ids()).collect();
        assert_eq!(&drained, expected, "{what} take(2) + ids()");
        // Every yielded geometry is the object's own.
        for (id, g) in aim.query(db).run() {
            assert_eq!(g.mbr(), mbr_of(id));
        }
    }
    for threads in [1, 4] {
        let queries = aims.iter().map(|&a| a.into().query(db)).collect();
        let batch = ws.run_batch(queries, threads);
        assert_eq!(query_ids(&batch), expected, "{what} run_batch({threads})");
        assert_eq!(
            stream_ids(db, aims, threads),
            expected,
            "{what} run_stream({threads})"
        );
    }
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
        assert_every_path_answers(
            &ws,
            &db,
            &objects,
            &windows,
            &expected,
            &format!("{kind:?}"),
        );
    }
}

/// Seeded streets: random walks of 2–12 vertices, a few percent of the
/// data space long, every seventh object a polygon on the same walk.
/// Ids are `0..n`.
fn streets(n: usize, seed: u64) -> Vec<(u64, Geometry)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut street = |k: usize| -> Geometry {
        let (mut x, mut y) = (rng.gen_range(0.05..0.95), rng.gen_range(0.05..0.95));
        let step = rng.gen_range(0.002..0.02);
        let vertices: Vec<Point> = (0..rng.gen_range(3..13usize))
            .map(|_| {
                x += rng.gen_range(-step..step);
                y += rng.gen_range(-step..step);
                Point::new(x, y)
            })
            .collect();
        match k % 7 {
            0 => Polygon::new(vertices).into(),
            // Two-vertex streets: the hint is the whole object's ends.
            1 => Polyline::new(vertices[..2].to_vec()).into(),
            _ => Polyline::new(vertices).into(),
        }
    };
    (0..n).map(|k| (k as u64, street(k))).collect()
}

/// Windows aimed at the hint rule for every `every`-th object: each hint
/// cell itself, the cell pushed a third of its size off the hinted
/// vertex in both directions (an edge within one cell of the vertex,
/// from inside and from outside), a window around the end vertex an
/// eighth of the MBR wide (the vertex, not the MBR), a window on the
/// middle vertex of the street that stays clear of both ends — plus
/// seeded windows of every size.
fn hint_windows(objects: &[(u64, Geometry)], every: usize, seed: u64) -> Vec<Rect> {
    let mut windows = Vec::new();
    for (_, g) in objects.iter().step_by(every) {
        let m = g.mbr();
        let (cw, ch) = (m.width() / 256.0, m.height() / 256.0);
        for c in g
            .hint()
            .cells(&m)
            .expect("streets and regions carry a hint")
        {
            windows.push(c);
            windows.push(Rect::new(
                c.xmin + cw / 3.0,
                c.ymin + ch / 3.0,
                c.xmax + cw,
                c.ymax + ch,
            ));
            windows.push(Rect::new(
                c.xmin - cw,
                c.ymin - ch,
                c.xmax - cw / 3.0,
                c.ymax - ch / 3.0,
            ));
            windows.push(Rect::centered(
                c.center(),
                m.width() / 8.0,
                m.height() / 8.0,
            ));
        }
        if let Geometry::Polyline(l) = g {
            let v = l.polyline().vertices();
            let mid = v[v.len() / 2];
            let (first, last) = (v[0], v[v.len() - 1]);
            let clear = 0.5 * (mid.x - first.x).abs().min((mid.x - last.x).abs());
            if v.len() > 2 && clear > 0.0 {
                windows.push(Rect::centered(mid, clear, clear));
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..40 {
        let (x, y) = (rng.gen_range(0.0..0.9), rng.gen_range(0.0..0.9));
        let side = 0.3 * rng.gen_range(0.0..1.0f64).powi(3);
        windows.push(Rect::new(x, y, x + side, y + side));
    }
    windows.push(Rect::new(-1.0, -1.0, 2.0, 2.0));
    windows
}

/// The backends the hint must not change the answers of: the paper's
/// three organizations and the in-memory store.
fn backends(ws: &Workspace) -> Vec<(String, SpatialDatabase)> {
    let mut dbs: Vec<(String, SpatialDatabase)> = ALL_KINDS
        .iter()
        .map(|&kind| {
            let options = DbOptions::new(kind).smax_bytes(8 * 1024);
            (format!("{kind:?}"), ws.create_database(options))
        })
        .collect();
    let memory = MemoryStore::new(ws.pool());
    dbs.push((
        "MemoryStore".into(),
        ws.create_database_with(Box::new(memory)),
    ));
    dbs
}

fn oracles(objects: &[(u64, Geometry)], windows: &[Rect]) -> Vec<Vec<u64>> {
    windows.iter().map(|w| oracle(objects, w)).collect()
}

#[test]
fn hint_rule_matches_the_exhaustive_exact_test_however_the_entries_got_there() {
    let objects = streets(1200, 1994);
    let windows = hint_windows(&objects, 24, 7);
    let expected = oracles(&objects, &windows);

    // The data really sits on every side of the rule: answers the two
    // hinted points decide, answers a `holds` cell decides, false hits
    // the `touched` mask drops, and answers and false hits only the
    // exact test finds.
    let count = |pred: &dyn Fn(&Rect, &Geometry) -> bool| -> usize {
        let per_window = windows
            .iter()
            .map(|w| objects.iter().filter(|(_, g)| pred(w, g)).count());
        per_window.sum()
    };
    let straddles = |w: &Rect, g: &Geometry| g.mbr().intersects(w) && !w.contains_rect(&g.mbr());
    let hinted = |w: &Rect, g: &Geometry| g.hint().accepts(&g.mbr(), w);
    let verdict = |w: &Rect, g: &Geometry| g.hint().verdict(&g.mbr(), w);
    let open = |w: &Rect, g: &Geometry| straddles(w, g) && verdict(w, g) == Verdict::Undecided;
    let by_hint = count(&|w, g| straddles(w, g) && hinted(w, g));
    let by_holds =
        count(&|w, g| straddles(w, g) && !hinted(w, g) && verdict(w, g) == Verdict::Answer);
    let dropped = count(&|w, g| straddles(w, g) && verdict(w, g) == Verdict::FalseHit);
    let by_exact_test = count(&|w, g| open(w, g) && g.intersects_rect(w));
    let false_hits = count(&|w, g| open(w, g) && !g.intersects_rect(w));
    let counts = format!(
        "{by_hint} by hint, {by_holds} by holds, {dropped} dropped, \
         {by_exact_test} by exact test, {false_hits} false hits left"
    );
    // Before the masks: > 300 by hint, > 300 by exact test, > 100 false
    // hits, all of them to the exact test.
    assert!(
        by_hint > 300 && by_holds + by_exact_test > 300 && dropped + false_hits > 100,
        "{counts}"
    );
    assert!(
        by_holds > 30 && dropped > 60 && by_exact_test > 200 && false_hits > 100,
        "{counts}"
    );

    for load in ["insert", "bulk_load", "bulk_load_par"] {
        let ws = Workspace::new(256);
        for (name, mut db) in backends(&ws) {
            match load {
                // 1,200 single inserts: leaf and directory splits on
                // every backend, forced reinserts on the plain R*-trees.
                "insert" => objects.iter().for_each(|(id, g)| db.insert(*id, g.clone())),
                "bulk_load" => ws.bulk_load_par(&mut db, objects.clone(), 1),
                _ => ws.bulk_load_par(&mut db, objects.clone(), 3),
            }
            db.finish_loading();
            assert!(db.store().tree().height() >= 2, "{name}: no split happened");
            let what = format!("{name} after {load}");
            assert_every_path_answers(&ws, &db, &objects, &windows, &expected, &what);
            // The hint did the deciding, not only the exact test.
            let undecided: usize = windows
                .iter()
                .map(|w| db.query().window(*w).run().undecided())
                .sum();
            assert_eq!(undecided, by_exact_test + false_hits, "{what}");
        }
    }
}

/// Windows past the cursor's radix cutoff: a candidate list of 512 or
/// more is ordered by a radix sort on the id, a shorter one by a
/// comparison sort. Nearly every window above stays below it — of the
/// ≈ 156,000 lists this file's other tests sort, 117 reach it — so here
/// each of two windows holds thousands of candidates, with ids below 2²²
/// (two digit passes, like every map in the repo) and ids spread over
/// all 64 bits up to `u64::MAX` (six), on each organization and
/// `MemoryStore`. Every path returns the brute-force answers, strictly
/// ascending.
#[test]
fn windows_past_the_radix_cutoff_answer_ascending_on_every_path() {
    let narrow = streets(3500, 41);
    // An odd multiplier permutes the u64s: the ids stay distinct.
    let spread = |id: u64| id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut wide: Vec<(u64, Geometry)> = narrow
        .iter()
        .map(|(id, g)| (spread(*id), g.clone()))
        .collect();
    wide[0].0 = u64::MAX;
    wide.sort_unstable_by_key(|(id, _)| *id);
    assert!(wide.windows(2).all(|p| p[0].0 < p[1].0));
    let windows = [
        Rect::new(-1.0, -1.0, 2.0, 2.0),
        Rect::new(0.05, 0.05, 0.95, 0.95),
    ];
    for (ids, objects) in [("ids below 2²²", &narrow), ("ids up to u64::MAX", &wide)] {
        let expected = oracles(objects, &windows);
        let ws = Workspace::new(256);
        for (name, mut db) in backends(&ws) {
            ws.bulk_load_par(&mut db, objects.clone(), 1);
            db.finish_loading();
            let what = format!("{name}, {ids}");
            for (w, expected) in windows.iter().zip(&expected) {
                assert!(expected.len() >= 2000, "{what}: {} answers", expected.len());
                let answers = db.query().window(*w).run().ids();
                let ascending = answers.windows(2).all(|p| p[0] < p[1]);
                assert!(ascending, "{what}, {w:?}: ids() not strictly ascending");
                assert_eq!(&answers, expected, "{what}, {w:?}: ids()");
                let iterated: Vec<u64> = db.query().window(*w).run().map(|(id, _)| id).collect();
                assert_eq!(&iterated, expected, "{what}, {w:?}: iteration");
            }
            for threads in [1, 4] {
                let queries = windows.iter().map(|w| db.query().window(*w)).collect();
                let batch = ws.run_batch(queries, threads);
                assert_eq!(query_ids(&batch), expected, "{what}: run_batch({threads})");
                let streamed = stream_ids(&db, &windows, threads);
                assert_eq!(streamed, expected, "{what}: run_stream({threads})");
            }
        }
    }
}

/// [`backends`] and a backend whose entries carry no hint, so no
/// verdict: each paper organization, `MemoryStore`, `HintlessStore`.
fn every_backend(ws: &Workspace) -> Vec<(String, SpatialDatabase)> {
    let mut dbs = backends(ws);
    let hintless = HintlessStore(MemoryStore::new(ws.pool()));
    dbs.push((
        "HintlessStore".into(),
        ws.create_database_with(Box::new(hintless)),
    ));
    dbs
}

/// Points aimed at the masks for every `every`-th object: its vertices
/// and their one-ulp neighbours, the crossings of its 8 × 8 grid, a point
/// inside a region — plus seeded points.
fn mask_points(objects: &[(u64, Geometry)], every: usize, seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for (_, g) in objects.iter().step_by(every) {
        let vertices = match g {
            Geometry::Polyline(l) => l.polyline().vertices(),
            Geometry::Polygon(p) => p.ring(),
            Geometry::Point(p) => std::slice::from_ref(p),
        };
        for v in vertices.iter().take(4) {
            points.push(*v);
            points.push(Point::new(v.x.next_up(), v.y));
        }
        let m = g.mbr();
        for k in [1.0, 3.0, 4.0, 7.0] {
            let x = m.xmin + (m.xmax - m.xmin) * (k / 8.0);
            let y = m.ymin + (m.ymax - m.ymin) * ((8.0 - k) / 8.0);
            points.push(Point::new(x, y));
        }
        if let Geometry::Polygon(p) = g {
            let [a, b, c] = [p.ring()[0], p.ring()[1], p.ring()[2]];
            points.push(Point::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0));
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    points.extend((0..40).map(|_| Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))));
    points
}

#[test]
fn point_queries_match_the_exhaustive_exact_test_on_every_path() {
    let objects = streets(1200, 1994);
    let points = mask_points(&objects, 12, 5);
    let expected: Vec<Vec<u64>> = points
        .iter()
        .map(|p| {
            let on = objects.iter().filter(|(_, g)| g.contains_point(p));
            on.map(|(id, _)| *id).collect()
        })
        .collect();
    // Points on objects and points the masks rule out.
    let answers: usize = expected.iter().map(Vec::len).sum();
    let dropped: usize = points
        .iter()
        .map(|p| {
            let rejects = |g: &Geometry| g.hint().verdict(&g.mbr(), &p.mbr()) == Verdict::FalseHit;
            objects
                .iter()
                .filter(|(_, g)| g.mbr().contains_point(p) && rejects(g))
                .count()
        })
        .sum();
    assert!(
        answers > 300 && dropped > 200,
        "{answers} answers, {dropped} dropped"
    );

    let ws = Workspace::new(256);
    for (name, mut db) in every_backend(&ws) {
        ws.bulk_load_par(&mut db, objects.clone(), 1);
        db.finish_loading();
        assert_every_path_answers(&ws, &db, &objects, &points, &expected, &name);
        let (candidates, undecided) = points.iter().fold((0, 0), |(c, u), p| {
            let cursor = db.query().point(*p).run();
            (c + cursor.num_candidates(), u + cursor.undecided())
        });
        // Without a hint nothing decides a point candidate (the streets
        // hold no point object); with one, the masks drop false hits.
        if name == "HintlessStore" {
            assert_eq!(undecided, candidates, "{name}");
        } else {
            assert_eq!(undecided + dropped, candidates, "{name}");
        }
    }
}

/// Every join path of `left ⋈ right` — iteration, `pairs()`, a partial
/// iteration drained by `pairs()`, `run_par`, `run_stream` at 1 and 4
/// threads — returns `expected` (sorted), and every one counts all MBR
/// pairs as candidates.
fn assert_every_join_path_answers(
    left: &SpatialDatabase,
    right: &SpatialDatabase,
    expected: &[(u64, u64)],
    what: &str,
) {
    let sorted = |mut pairs: Vec<(u64, u64)>| {
        pairs.sort_unstable();
        pairs
    };
    let cursor = left.join(right).run();
    let mbr_pairs = cursor.stats().mbr_pairs;
    assert_eq!(cursor.num_candidates() as u64, mbr_pairs, "{what}");
    assert_eq!(sorted(cursor.collect()), expected, "{what} iteration");
    assert_eq!(left.join(right).run().pairs(), expected, "{what} pairs()");
    let mut cursor = left.join(right).run();
    let head: Vec<(u64, u64)> = cursor.by_ref().take(2).collect();
    let drained = sorted(head.into_iter().chain(cursor.pairs()).collect());
    assert_eq!(drained, expected, "{what} take(2) + pairs()");
    let par = left.join(right).run_par(4);
    assert_eq!(par.stats().mbr_pairs, mbr_pairs, "{what} run_par");
    assert_eq!(par.pairs(), expected, "{what} run_par");
    for threads in [1, 4] {
        let op = StreamOp::Join { left, right };
        match run_stream(vec![op], threads).outcomes() {
            [OpOutcome::Join { pairs, .. }] => {
                assert_eq!(
                    *pairs,
                    expected.len() as u64,
                    "{what} run_stream({threads})"
                )
            }
            other => panic!("expected one join outcome, got {other:?}"),
        }
    }
}

#[test]
fn joins_match_the_exhaustive_exact_test_on_every_path() {
    let (r, s) = (streets(500, 1994), streets(500, 2718));
    let mut expected = Vec::new();
    let (mut mbr_pairs, mut ruled_out) = (0, 0);
    for (a, ga) in &r {
        for (b, gb) in &s {
            let (ma, mb) = (ga.mbr(), gb.mbr());
            if !ma.intersects(&mb) {
                continue;
            }
            mbr_pairs += 1;
            let meet = ma.intersection(&mb);
            let rules_out = ga.hint().misses(&ma, &meet) || gb.hint().misses(&mb, &meet);
            ruled_out += usize::from(rules_out);
            if ga.intersects(gb) {
                expected.push((*a, *b));
            }
        }
    }
    // Both kinds of pair, and the masks rule out false hits.
    let false_hits = mbr_pairs - expected.len();
    assert!(
        expected.len() > 100 && false_hits > 100 && ruled_out > false_hits / 4,
        "{} answers, {false_hits} false hits, {ruled_out} ruled out of {mbr_pairs}",
        expected.len()
    );

    let ws = Workspace::new(256);
    let lefts = every_backend(&ws);
    let rights = every_backend(&ws);
    for ((name, mut left), (_, mut right)) in lefts.into_iter().zip(rights) {
        ws.bulk_load_par(&mut left, r.clone(), 1);
        ws.bulk_load_par(&mut right, s.clone(), 1);
        left.finish_loading();
        right.finish_loading();
        assert_every_join_path_answers(&left, &right, &expected, &name);
        let cursor = left.join(&right).run();
        assert_eq!(cursor.num_candidates(), mbr_pairs, "{name}");
        // Entries without a hint rule nothing out.
        let left_open = if name == "HintlessStore" {
            mbr_pairs
        } else {
            mbr_pairs - ruled_out
        };
        assert_eq!(cursor.undecided(), left_open, "{name}");
    }
}

#[test]
fn hint_rule_survives_condensing_removals_and_a_change_of_geometry() {
    let loaded = streets(1200, 1994);
    let ws = Workspace::new(256);
    for (name, db) in backends(&ws) {
        let mut objects = loaded.clone();
        for (id, g) in &objects {
            db.insert(*id, g.clone());
        }
        // Seven of ten objects go: leaves underflow, the tree condenses
        // and reinserts the orphaned entries — with their hints.
        let nodes_before = db.store().tree().num_nodes();
        for id in 0..1200u64 {
            if id % 10 < 7 {
                assert!(db.remove(id));
            }
        }
        objects.retain(|(id, _)| id % 10 >= 7);
        assert!(
            db.store().tree().num_nodes() < nodes_before,
            "{name}: nothing condensed"
        );
        let windows = hint_windows(&objects, 9, 11);
        assert_every_path_answers(
            &ws,
            &db,
            &objects,
            &windows,
            &oracles(&objects, &windows),
            &format!("{name} after removals"),
        );

        // Every third survivor changes its geometry under the same id.
        // Cursors opened before the change keep answering from the
        // entries — MBR, hint and geometry — of the root they pinned.
        let before = oracles(&objects, &windows);
        let pinned: Vec<_> = windows
            .iter()
            .map(|w| db.query().window(*w).run())
            .collect();
        let elsewhere = streets(objects.len(), 2718);
        for (k, (id, g)) in objects.iter_mut().enumerate().step_by(3) {
            assert!(db.remove(*id));
            *g = elsewhere[k].1.clone();
            db.insert(*id, g.clone());
        }
        for (k, (cursor, before)) in pinned.into_iter().zip(&before).enumerate() {
            let answers = if k % 2 == 0 {
                cursor.ids()
            } else {
                cursor.map(|(id, _)| id).collect()
            };
            assert_eq!(&answers, before, "{name}: pinned cursor {k} saw the change");
        }
        // Old aims and new: the moved objects' former end vertices must
        // no longer answer, their new ones must.
        let mut windows = windows;
        windows.extend(hint_windows(&objects, 9, 13));
        let after = oracles(&objects, &windows);
        assert_ne!(
            after[..before.len()],
            before[..],
            "the change moved no answer"
        );
        assert_every_path_answers(
            &ws,
            &db,
            &objects,
            &windows,
            &after,
            &format!("{name} after changing geometry"),
        );
    }
}

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
    assert!(panics(&|| drop(stream_ids(db, &[all], 2))));
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
        refusal(&|| drop(stream_ids(db, &[mixed], 2))),
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

#[test]
fn a_backend_whose_entries_carry_no_hint_answers_by_mbr_and_exact_test() {
    let objects = streets(600, 1994);
    let windows = hint_windows(&objects, 12, 7);
    let ws = Workspace::new(64);
    let store = HintlessStore(MemoryStore::new(ws.pool()));
    let mut db = ws.create_database_with(Box::new(store));
    for (id, g) in &objects {
        db.insert(*id, g.clone());
    }
    db.finish_loading();
    let expected = oracles(&objects, &windows);
    assert_every_path_answers(&ws, &db, &objects, &windows, &expected, "hintless");
    // Nothing but MBR containment decides a candidate here.
    for w in &windows {
        let cursor = db.query().window(*w).run();
        let contained = objects.iter().filter(|(_, g)| w.contains_rect(&g.mbr()));
        assert_eq!(
            cursor.undecided(),
            cursor.num_candidates() - contained.count(),
            "window {w:?}"
        );
    }
    // Point queries take the trait's provided `point_query_into`: on a
    // street's first vertex, the answer is every object through it.
    for (_, g) in objects.iter().step_by(60) {
        let Geometry::Polyline(l) = g else { continue };
        let on_line = l.polyline().vertices()[0];
        let through = db.query().point(on_line).run().ids();
        let expected = objects.iter().filter(|(_, g)| g.contains_point(&on_line));
        assert_eq!(through, expected.map(|(id, _)| *id).collect::<Vec<u64>>());
        assert!(!through.is_empty());
    }
}
