//! Cross-crate integration tests: the spatial-join shapes of Figures 14,
//! 16 and 17 as gates on the figures themselves (run once, at the scale
//! of the checked-in golden, and matched against it), plus the join
//! cursor's draining through the public API: a join that runs its exact
//! tests beside its transfer answers, counts and charges what the
//! one-thread lazy join does. (Exact pairs on every organization are
//! the differential matrix's, `tests/differential.rs`.)

use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::disk::{IoStats, PageRequest, PoolSession};
use spatialdb::geom::Rect;
use spatialdb::join::pipeline::TEST_BLOCK_PAIRS;
use spatialdb::rtree::{LeafEntry, ObjectId, RStarTree};
use spatialdb::storage::{
    MemoryStore, ObjectRecord, SharedPool, SpatialStore, TransferTechnique, WindowTechnique,
};
use spatialdb::{DbOptions, JoinStats, OrganizationKind, SpatialDatabase, Workspace};
use spatialdb_workload::figures::{calibrate_versions, figures, Figure, Scale, Trend};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

const GOLDEN: &str = include_str!("../crates/workload/tests/golden/figures.txt");

/// The golden's scale: buffers sized relative to the shrunken maps, all
/// larger than one C-series cluster unit (80 pages).
fn scale() -> Scale {
    Scale::fraction(0.03)
}

/// Figs. 14, 16 and 17 (C-1 ⋈ C-2) at the golden's scale, computed once
/// — on one set of operand pairs — for all tests of this file.
fn fig(id: &str) -> &'static Figure {
    static FIGS: OnceLock<Vec<Figure>> = OnceLock::new();
    FIGS.get_or_init(|| figures(&["14", "16", "17"], &scale(), &[]).collect())
        .iter()
        .find(|f| f.id() == id)
        .expect("one of the three")
}

#[test]
fn join_figures_match_the_golden() {
    for id in ["14", "16", "17"] {
        fig(id).assert_matches_golden(GOLDEN);
    }
}

#[test]
fn join_versions_calibrate_to_paper_selectivities() {
    let [a, b] = calibrate_versions(&scale(), SeriesId::C);
    assert!(
        (a.pairs_per_mbr - 0.65).abs() / 0.65 < 0.2,
        "version a: {} pairs/MBR",
        a.pairs_per_mbr
    );
    assert!(
        (b.pairs_per_mbr - 9.0).abs() / 9.0 < 0.2,
        "version b: {} pairs/MBR",
        b.pairs_per_mbr
    );
    assert!(b.inflation > a.inflation);
}

#[test]
fn figure14_cluster_wins_joins() {
    let fig = fig("14");
    let buffers = scale().join_buffers;
    for version in ["a", "b"] {
        for buffer in &buffers {
            fig.at(&[version, &buffer.to_string()])
                .assert_ordering(&["cluster org.", "sec. org."]);
        }
    }
    // Version b (9 pairs/MBR) profits more than version a (0.65).
    let largest = buffers.iter().max().unwrap().to_string();
    let speedup = |version: &str| {
        let row = fig.at(&[version, &largest]);
        row.get("sec. org.") / row.get("cluster org.")
    };
    assert!(
        speedup("b") > speedup("a"),
        "b {:.1}x !> a {:.1}x",
        speedup("b"),
        speedup("a")
    );
    fig.at(&["a", &largest])
        .assert_factor_at_least("sec. org.", "cluster org.", 1.5);
}

#[test]
fn figure14_larger_buffers_never_hurt() {
    for version in ["a", "b"] {
        for org in ["sec. org.", "prim. org.", "cluster org."] {
            fig("14")
                .down(org, &[version])
                .assert_monotone(Trend::Falling, 1e-6);
        }
    }
}

/// A primary-organization object lives in the data page the MBR join
/// has just read (§3.2.2), and the transfer fetches each leaf pair's
/// objects while the traversal's pages are still buffered: so the
/// primary organization reads its data pages once and costs about what
/// the secondary does, at every buffer size and in both versions. A
/// transfer that started only after the whole traversal read every data
/// page twice (1.7 – 2.0 × the secondary at this scale).
#[test]
fn figure14_primary_reads_its_data_pages_once() {
    for version in ["a", "b"] {
        for buffer in &scale().join_buffers {
            fig("14")
                .at(&[version, &buffer.to_string()])
                .assert_factor_at_most("prim. org.", "sec. org.", 1.25);
        }
    }
}

#[test]
fn figure16_optimum_bounds_and_convergence() {
    let fig = fig("16");
    let buffers = scale().join_buffers;
    for version in ["a", "b"] {
        for buffer in &buffers {
            fig.at(&[version, &buffer.to_string()])
                .assert_lower_bound("opt.");
        }
    }
    // At the largest buffer the complete technique is close to optimum
    // ("the maximum transfer rate of the disk is reached", §6.2).
    let largest = buffers.iter().max().unwrap().to_string();
    fig.at(&["a", &largest])
        .assert_factor_at_most("complete", "opt.", 2.2);
}

#[test]
fn figure17_breakdown_shape() {
    let fig = fig("17");
    for version in ["a", "b"] {
        // Same MBR pairs, same exact-test cost, similar MBR-join cost.
        for same in ["MBR pairs", "exact test"] {
            let bars = fig.down(same, &[version]);
            assert_eq!(bars.get("sec. org."), bars.get("cluster org."), "{same}");
        }
        // The transfer step is what collapses.
        fig.down("obj. transfer", &[version])
            .assert_factor_at_least("sec. org.", "cluster org.", 2.0);
        // Total speedup in the paper's ballpark (≥ 2x at smoke scale).
        fig.down("total", &[version])
            .assert_factor_at_least("sec. org.", "cluster org.", 2.0);
    }
}

/// A-1 and A-2 at a scale where a join has a few hundred answers.
fn small_join_operands(ws: &Workspace) -> (spatialdb::SpatialDatabase, spatialdb::SpatialDatabase) {
    let load = |map, kind| {
        let data = SpatialMap::generate(
            DataSet {
                series: SeriesId::A,
                map,
            },
            0.02,
            GeometryMode::Full,
            3,
        );
        let mut db = ws.create_database(DbOptions::new(kind));
        for o in &data.objects {
            db.insert(o.id, o.geometry.clone().unwrap());
        }
        db.finish_loading();
        db
    };
    (
        load(MapId::Map1, OrganizationKind::Cluster),
        load(MapId::Map2, OrganizationKind::Secondary),
    )
}

#[test]
fn pairs_after_take_returns_exactly_the_remaining_answers() {
    let ws = Workspace::new(512);
    let (a, b) = small_join_operands(&ws);
    // Iteration yields the answers in MBR-join order; pairs() sorts.
    let in_join_order: Vec<(u64, u64)> = a.join(&b).run().collect();
    assert!(in_join_order.len() > 20, "{} answers", in_join_order.len());
    let sorted = |pairs: &[(u64, u64)]| {
        let mut v = pairs.to_vec();
        v.sort_unstable();
        v
    };
    assert_eq!(a.join(&b).run().pairs(), sorted(&in_join_order));
    for k in [1, 7, in_join_order.len() - 1, in_join_order.len()] {
        for threads in [None, Some(1), Some(2), Some(8)] {
            let mut cursor = match threads {
                None => a.join(&b).run(),
                Some(n) => a.join(&b).run_par(n),
            };
            let taken: Vec<(u64, u64)> = cursor.by_ref().take(k).collect();
            assert_eq!(taken, in_join_order[..k], "take({k}), {threads:?}");
            assert_eq!(
                cursor.pairs(),
                sorted(&in_join_order[k..]),
                "after take({k}), {threads:?}"
            );
        }
    }
}

/// Filter-only records (bulk-loaded into the store, no exact geometry)
/// cannot be refined: every way of draining a join cursor panics, naming
/// the first candidate pair.
#[test]
fn refining_a_filter_only_join_panics_with_the_same_message_everywhere() {
    use spatialdb::geom::Rect;
    use spatialdb::rtree::{NoIo, ObjectId};
    use spatialdb::storage::ObjectRecord;

    let ws = Workspace::new(256);
    let filter_only = |dx: f64| {
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
        let records: Vec<ObjectRecord> = (0..40u64)
            .map(|i| {
                let x = (i % 8) as f64 / 8.0 + dx;
                let y = (i / 8) as f64 / 8.0;
                ObjectRecord::new(ObjectId(i), Rect::new(x, y, x + 0.05, y + 0.05), 700)
            })
            .collect();
        for rec in &records {
            db.store_mut().insert(rec);
        }
        db.finish_loading();
        db
    };
    let (a, b) = (filter_only(0.0), filter_only(0.01));
    let first = spatialdb::join::mbr_join(a.store().tree(), b.store().tree(), &mut NoIo).pairs[0];
    let message = |drain: &dyn Fn()| -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(drain))
            .expect_err("refining filter-only records must panic");
        payload
            .downcast_ref::<String>()
            .expect("a formatted panic message")
            .clone()
    };
    let expected = format!(
        "join candidate ({}, {}) lacks exact geometry; read stats() instead of \
         iterating, or insert through SpatialDatabase::insert",
        first.0 .0, first.1 .0
    );
    assert_eq!(message(&|| drop(a.join(&b).run().pairs())), expected);
    assert_eq!(
        message(&|| {
            let _ = a.join(&b).run().next();
        }),
        expected
    );
    assert_eq!(message(&|| drop(a.join(&b).run_par(2).pairs())), expected);
    // The filter-only read-out still works.
    assert!(a.join(&b).run().stats().mbr_pairs > 0);
}

/// A-1 and A-2 at `scale`, with their geometry, bulk-loaded into `kind`
/// on `ws`.
fn full_geometry_operands(
    ws: &Workspace,
    scale: f64,
    kind: OrganizationKind,
) -> (SpatialDatabase, SpatialDatabase) {
    let load = |map| {
        let series = SeriesId::A;
        let data = SpatialMap::generate(DataSet { series, map }, scale, GeometryMode::Full, 7);
        let objects = data.objects.iter();
        let objects = objects.map(|o| (o.id, o.geometry.clone().unwrap().into()));
        let objects = objects.collect();
        let mut db = ws.create_database(DbOptions::new(kind));
        ws.bulk_load_par(&mut db, objects, 1);
        db
    };
    (load(MapId::Map1), load(MapId::Map2))
}

/// What a join cursor shows from outside, from a cold buffer: the first
/// `k` answers iterated, then `pairs()`, its counts and costs, the
/// pool's hits and misses and the disk requests.
#[derive(PartialEq)]
struct Seen {
    taken: Vec<(u64, u64)>,
    rest: Vec<(u64, u64)>,
    undecided: usize,
    stats: JoinStats,
    io: IoStats,
    counts: [u64; 2],
    trace: Vec<PageRequest>,
}

/// `a ⋈ b` on `threads` from a cold buffer, `k` pairs taken before
/// `pairs()`.
fn seen(ws: &Workspace, dbs: [&mut SpatialDatabase; 2], threads: usize, k: usize) -> Seen {
    let (pool, disk) = (ws.pool(), ws.disk());
    pool.reset(pool.capacity());
    let [a, b] = dbs;
    a.store_mut().begin_query();
    b.store_mut().begin_query();
    let (hits, misses) = (pool.hits(), pool.misses());
    let ((mut cursor, io), trace) = disk.traced(|| {
        let cursor = a.join(b).run_par(threads);
        let io = cursor.io_stats();
        (cursor, io)
    });
    let taken = cursor.by_ref().take(k).collect();
    let (undecided, stats) = (cursor.undecided(), cursor.stats());
    Seen {
        taken,
        rest: cursor.pairs(),
        undecided,
        stats,
        io,
        counts: [pool.hits() - hits, pool.misses() - misses],
        trace,
    }
}

/// A join that runs its exact tests beside its transfer — full
/// geometry, more than one thread — answers, counts and charges what
/// the one-thread lazy join does, on every organization: the answers
/// of `pairs()`, alone and after `take(k)` for k = 0, 7 and n − 1,
/// `undecided()`, `stats()`, `io_stats()`, the pool's hits and misses
/// and the disk's request sequence. Once on a join whose undecided
/// pairs fit in one block of exact tests (nothing spawns for them) and
/// once on one of many blocks.
#[test]
fn a_join_tested_beside_its_transfer_matches_the_one_thread_join() {
    use OrganizationKind::{Cluster, Primary, Secondary};
    for kind in [Secondary, Primary, Cluster] {
        for (scale, blocks) in [(0.01, 1), (0.05, 4)] {
            let ws = Workspace::new(256);
            let (mut a, mut b) = full_geometry_operands(&ws, scale, kind);
            let at = format!("{kind:?}, scale {scale}");
            let mut seen = |threads, k| seen(&ws, [&mut a, &mut b], threads, k);
            let one = seen(1, 0);
            let n = one.rest.len();
            let undecided = one.undecided;
            assert!(n > 8, "{at}: {n} answers");
            match blocks {
                1 => assert!(undecided <= TEST_BLOCK_PAIRS, "{at}: {undecided} undecided"),
                _ => assert!(undecided > blocks * TEST_BLOCK_PAIRS, "{at}: {undecided}"),
            }
            for k in [0, 7, n - 1] {
                let one = seen(1, k);
                assert_eq!(one.taken.len(), k, "{at}");
                for threads in [2, 3, 8] {
                    let at = format!("{at}, take({k}), run_par({threads})");
                    let got = seen(threads, k);
                    assert_eq!(got.taken, one.taken, "{at}: taken");
                    assert_eq!(got.rest, one.rest, "{at}: pairs()");
                    assert_eq!(got.undecided, one.undecided, "{at}: undecided()");
                    assert_eq!(got.stats, one.stats, "{at}: stats()");
                    assert_eq!(got.io, one.io, "{at}: io_stats()");
                    assert_eq!(got.counts, one.counts, "{at}: pool hits and misses");
                    assert!(got.trace == one.trace, "{at}: request sequence");
                }
            }
        }
    }
}

/// A foreign store whose `fetch_for_join` panics with the call's
/// number on call `panic_at` (counted from 0 since the last reset).
#[derive(Clone)]
struct PanicsOnFetch {
    store: MemoryStore,
    panic_at: Arc<AtomicUsize>,
    calls: Arc<AtomicUsize>,
}

impl SpatialStore for PanicsOnFetch {
    fn name(&self) -> &'static str {
        "panics on fetch"
    }
    fn snapshot(&self) -> Box<dyn SpatialStore> {
        Box::new(self.clone())
    }
    fn insert(&mut self, rec: &ObjectRecord) {
        self.store.insert(rec)
    }
    fn delete(&mut self, oid: ObjectId) -> bool {
        self.store.delete(oid)
    }
    fn window_query_into(&self, w: &Rect, t: WindowTechnique, out: &mut Vec<LeafEntry>) -> u64 {
        self.store.window_query_into(w, t, out)
    }
    fn fetch_for_join(
        &self,
        oid: ObjectId,
        needed: &HashSet<ObjectId>,
        technique: TransferTechnique,
        session: &mut PoolSession<'_>,
    ) {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if call == self.panic_at.load(Ordering::Relaxed) {
            std::panic::panic_any(call);
        }
        self.store.fetch_for_join(oid, needed, technique, session)
    }
    fn occupied_pages(&self) -> u64 {
        self.store.occupied_pages()
    }
    fn contains(&self, oid: ObjectId) -> bool {
        self.store.contains(oid)
    }
    fn pool(&self) -> SharedPool {
        self.store.pool()
    }
    fn tree(&self) -> &RStarTree {
        self.store.tree()
    }
    fn flush(&mut self) {
        self.store.flush()
    }
    fn begin_query(&mut self) {
        self.store.begin_query()
    }
    fn check_consistency(&self) -> Result<(), String> {
        self.store.check_consistency()
    }
}

/// A transfer that panics — fetching the first candidate pair, a middle
/// one or the last — ends a join that tests beside its transfer with
/// the transfer's own payload at 2, 3 and 8 threads, and no thread is
/// left waiting: every join returns within its time limit.
#[test]
fn a_panicking_transfer_ends_a_tested_join_with_its_payload() {
    let (done, ended) = mpsc::channel();
    std::thread::spawn(move || {
        let ws = Workspace::new(256);
        let (panic_at, calls) = (Arc::new(AtomicUsize::new(usize::MAX)), Arc::default());
        let store = PanicsOnFetch {
            store: MemoryStore::new(ws.pool()),
            panic_at: Arc::clone(&panic_at),
            calls: Arc::clone(&calls),
        };
        let right = ws.create_database_with(Box::new(store));
        let left = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
        let series = SeriesId::A;
        for (map, db) in [(MapId::Map1, &left), (MapId::Map2, &right)] {
            let data = SpatialMap::generate(DataSet { series, map }, 0.04, GeometryMode::Full, 7);
            for o in &data.objects {
                db.insert(o.id, o.geometry.clone().unwrap());
            }
        }
        let candidates = left.join(&right).run_par(1).num_candidates();
        let undecided = left.join(&right).run_par(1).undecided();
        assert!(undecided > 2 * TEST_BLOCK_PAIRS, "{undecided} undecided");
        for threads in [2, 3, 8] {
            for at in [0, candidates / 2, candidates - 1] {
                panic_at.store(at, Ordering::Relaxed);
                calls.store(0, Ordering::Relaxed);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    left.join(&right).run_par(threads).pairs()
                }));
                let payload = caught
                    .err()
                    .and_then(|p| p.downcast_ref::<usize>().copied());
                done.send((threads, at, payload)).expect("the test waits");
            }
        }
    });
    for threads in [2, 3, 8] {
        for _ in 0..3 {
            match ended.recv_timeout(Duration::from_secs(60)) {
                Ok((ran, at, payload)) => {
                    assert_eq!(ran, threads);
                    assert_eq!(payload, Some(at), "{threads} threads, call {at}");
                }
                Err(_) => panic!("a join at {threads} threads hung or its test failed"),
            }
        }
    }
}
