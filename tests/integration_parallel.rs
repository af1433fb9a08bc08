//! Parallel-executor equivalence: `run_batch(.., k)` must return
//! byte-identical result sets and
//! identical per-query and aggregate statistics to sequential execution
//! — for every organization model and every window technique — and the
//! parallel join must produce exactly the sequential join's pairs and
//! statistics.

use spatialdb::geom::{Point, Polyline, Rect};
use spatialdb::storage::{OrganizationKind, QueryStats, WindowTechnique};
use spatialdb::{DbOptions, EngineConfig, IoStats, OpOutcome, SpatialDatabase, Workspace};

/// The ids and stats of a batch outcome, which holds only queries.
fn query_outcome(outcome: &OpOutcome) -> (&[u64], QueryStats) {
    match outcome {
        OpOutcome::Query { ids, stats, .. } => (ids, *stats),
        other => panic!("a batch produced {other:?}"),
    }
}

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

/// A 10k-object street-like map on the unit square, deterministic.
fn load(ws: &Workspace, kind: OrganizationKind, n: u64) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind));
    let side = (n as f64).sqrt().ceil() as u64;
    for i in 0..n {
        let x = (i % side) as f64 / side as f64;
        let y = (i / side) as f64 / side as f64;
        db.insert(
            i,
            Polyline::new(vec![
                Point::new(x, y),
                Point::new(x + 0.6 / side as f64, y + 0.3 / side as f64),
                Point::new(x + 1.2 / side as f64, y),
            ]),
        );
    }
    db.finish_loading();
    db
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

/// The acceptance matrix: 3 organizations × 4 window techniques on a
/// 10k-object database; `run_batch(.., 8)` must match sequential
/// execution exactly (ids, per-query stats, aggregates), and a cursor's
/// `ids()` must drain what iterating left.
#[test]
fn run_par_matches_sequential_all_orgs_and_techniques() {
    const N: u64 = 10_000;
    for kind in ALL_KINDS {
        let ws = Workspace::new(512);
        let mut db = load(&ws, kind, N);
        assert_eq!(db.len(), N as usize);
        for technique in ALL_TECHNIQUES {
            // Sequential reference, from a cold object buffer.
            db.store_mut().begin_query();
            let mut seq_ids: Vec<Vec<u64>> = Vec::new();
            let mut seq_stats: Vec<QueryStats> = Vec::new();
            let mut seq_agg = QueryStats::default();
            let mut seq_io = IoStats::new();
            for w in windows() {
                let cursor = db.query().window(w).technique(technique).run();
                seq_stats.push(cursor.stats());
                seq_agg.accumulate(&cursor.stats());
                seq_io = seq_io.plus(&cursor.io_stats());
                seq_ids.push(cursor.ids());
            }
            // Parallel batch from the same cold start.
            db.store_mut().begin_query();
            let batch = ws.run_batch(
                windows()
                    .into_iter()
                    .map(|w| db.query().window(w).technique(technique))
                    .collect(),
                8,
            );
            assert_eq!(batch.len(), seq_ids.len());
            let mut batch_agg = QueryStats::default();
            for (i, outcome) in batch.outcomes().iter().enumerate() {
                let (ids, stats) = query_outcome(outcome);
                assert_eq!(ids, &seq_ids[i][..], "{kind:?}/{technique:?}/{i}");
                assert_eq!(stats, seq_stats[i], "{kind:?}/{technique:?}/{i}");
                batch_agg.accumulate(&stats);
            }
            assert_eq!(batch_agg, seq_agg, "{kind:?}/{technique:?}");
            assert_eq!(batch.aggregate_io(), seq_io, "{kind:?}/{technique:?}");
            // A single cursor, for each window in isolation: after the
            // first 3 answers were iterated, `ids()` drains the rest.
            for (i, w) in windows().into_iter().enumerate() {
                let at = format!("{kind:?}/{technique:?}/{i}");
                let all = &seq_ids[i];
                let mut cursor = db.query().window(w).technique(technique).run();
                let head: Vec<u64> = cursor.by_ref().take(3).map(|(id, _)| id).collect();
                assert_eq!(head, all[..all.len().min(3)], "{at}");
                assert_eq!(cursor.ids(), all[head.len()..], "{at}");
            }
        }
    }
}

/// Mixed window + point batches, including the in-memory baseline.
#[test]
fn mixed_batch_matches_sequential() {
    let ws = Workspace::new(256);
    let mut db = load(&ws, OrganizationKind::Cluster, 2_000);
    let points: Vec<Point> = (0..40)
        .map(|i| Point::new((i % 8) as f64 / 8.0, (i / 8) as f64 / 5.0))
        .collect();
    db.store_mut().begin_query();
    let mut seq: Vec<(Vec<u64>, QueryStats)> = Vec::new();
    for w in windows() {
        let c = db.query().window(w).run();
        let s = c.stats();
        seq.push((c.ids(), s));
    }
    for p in &points {
        let c = db.query().point(*p).run();
        let s = c.stats();
        seq.push((c.ids(), s));
    }
    db.store_mut().begin_query();
    let mut queries = Vec::new();
    for w in windows() {
        queries.push(db.query().window(w));
    }
    for p in &points {
        queries.push(db.query().point(*p));
    }
    let batch = ws.run_batch(queries, 8);
    assert_eq!(batch.len(), seq.len());
    for (outcome, (ids, stats)) in batch.outcomes().iter().zip(&seq) {
        assert_eq!(query_outcome(outcome), (&ids[..], *stats));
    }
}

/// Truly concurrent reads: many threads querying one database through
/// `&SpatialDatabase` (the `Send + Sync` read path) still produce exact
/// results, and each thread's per-query stats delta stays self-consistent
/// despite interleaved charges on the shared disk — on the single-lock
/// pool and on a 4-shard one, where the filter steps really overlap. This
/// is how a caller overlaps filter steps: its own threads on `db.query()`.
#[test]
fn concurrent_reads_are_exact() {
    for shards in [1, 4] {
        concurrent_reads_are_exact_on(shards);
    }
}

fn concurrent_reads_are_exact_on(shards: usize) {
    let ws = Workspace::from_config(EngineConfig::default().buffer_pages(512).shards(shards));
    let mut db = load(&ws, OrganizationKind::Cluster, 2_000);
    db.store_mut().begin_query();
    let expected: Vec<Vec<u64>> = windows()
        .into_iter()
        .map(|w| db.query().window(w).run().ids())
        .collect();
    db.store_mut().begin_query();
    let db = &db;
    let global_before = db.store().disk().stats();
    // Every thread reports the sum of its per-query io_ms deltas. The
    // deltas are taken against the thread-local tally, so each disk
    // request lands in exactly *one* query's delta: the reported sums
    // must conserve — add up to the global counter growth — under any
    // scheduling. (With the pre-refactor global-counter deltas, each
    // query would also absorb the other threads' concurrent charges and
    // the sum would come out a multiple of the actual I/O.)
    let reported: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let expected = &expected;
                scope.spawn(move || {
                    let mut my_ms = 0.0;
                    for (i, w) in windows().into_iter().enumerate() {
                        let cursor = db.query().window(w).run();
                        my_ms += cursor.stats().io_ms;
                        assert_eq!(cursor.ids(), expected[i], "{shards} shard(s)");
                    }
                    my_ms
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let global = db.store().disk().stats().since(&global_before);
    assert!(
        (reported - global.io_ms).abs() < 1e-6,
        "{shards} shard(s): threads reported {reported} ms but the disk recorded {} ms",
        global.io_ms
    );
}

/// `run_batch` on a workspace rejects queries that belong to another
/// workspace's disk — the determinism contract is per-workspace.
#[test]
#[should_panic(expected = "another workspace")]
fn run_batch_rejects_foreign_workspace_queries() {
    let ws_a = Workspace::new(64);
    let ws_b = Workspace::new(64);
    let db_b = load(&ws_b, OrganizationKind::Cluster, 50);
    let _ = ws_a.run_batch(vec![db_b.query().window(Rect::new(0.0, 0.0, 1.0, 1.0))], 2);
}

/// The parallel join is the one-thread join with its leaf-pair sweeps
/// and its refinement on threads: the same refined pairs and the same
/// `JoinStats` — candidate count, MBR-join and transfer I/O, exact-test
/// cost — at every thread count, and as `run()` on the machine's cores.
#[test]
fn parallel_join_matches_sequential() {
    fn build_pair(ws: &Workspace) -> (SpatialDatabase, SpatialDatabase) {
        let mut a = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        let mut b = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
        for i in 0..1_500u64 {
            let x = (i % 40) as f64 / 40.0;
            let y = (i / 40) as f64 / 40.0;
            a.insert(
                i,
                Polyline::new(vec![Point::new(x, y), Point::new(x + 0.03, y + 0.02)]),
            );
            b.insert(
                i,
                Polyline::new(vec![
                    Point::new(x + 0.015, y + 0.02),
                    Point::new(x + 0.045, y),
                ]),
            );
        }
        a.finish_loading();
        b.finish_loading();
        (a, b)
    }
    let ws = Workspace::new(1024);
    let (a, b) = build_pair(&ws);
    let seq_cursor = a.join(&b).run_par(1);
    let seq_stats = seq_cursor.stats();
    let seq_pairs = seq_cursor.pairs();
    assert!(!seq_pairs.is_empty());
    let ws_machine = Workspace::new(1024);
    let (a_machine, b_machine) = build_pair(&ws_machine);
    let machine = a_machine.join(&b_machine).run();
    assert_eq!(machine.stats(), seq_stats, "the machine's cores");
    assert_eq!(machine.pairs(), seq_pairs, "the machine's cores");
    for threads in [2, 3, 8] {
        // Fresh identical workspace so buffer state cannot leak between
        // the runs being compared.
        let ws2 = Workspace::new(1024);
        let (a2, b2) = build_pair(&ws2);
        let par_cursor = a2.join(&b2).run_par(threads);
        assert_eq!(par_cursor.stats(), seq_stats, "{threads} threads");
        assert_eq!(par_cursor.pairs(), seq_pairs, "{threads} threads");
    }
}

/// Batches may span several databases of one workspace.
#[test]
fn batch_spans_multiple_databases() {
    let ws = Workspace::new(512);
    let streets = load(&ws, OrganizationKind::Cluster, 1_000);
    let rivers = load(&ws, OrganizationKind::Secondary, 1_000);
    let w = Rect::new(0.1, 0.1, 0.6, 0.6);
    let batch = ws.run_batch(vec![streets.query().window(w), rivers.query().window(w)], 2);
    assert_eq!(batch.len(), 2);
    let ids = |i: usize| query_outcome(&batch.outcomes()[i]).0;
    assert_eq!(ids(0), ids(1));
}
