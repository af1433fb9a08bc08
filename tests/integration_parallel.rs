//! Reads on several threads. That `run_batch(.., k)`, `run_stream` and
//! `run_par(k)` return byte-identical answers, statistics and requests
//! to sequential execution — on every store, under every technique — is
//! the differential matrix's (`tests/differential.rs`). Here: many
//! threads querying one database through `&SpatialDatabase` stay exact
//! and conserve the I/O, and a batch rejects another workspace's
//! queries and may span several databases of its own.

use spatialdb::geom::{Point, Polyline, Rect};
use spatialdb::storage::{OrganizationKind, QueryStats};
use spatialdb::{DbOptions, EngineConfig, OpOutcome, SpatialDatabase, Workspace};

/// The ids and stats of a batch outcome, which holds only queries.
fn query_outcome(outcome: &OpOutcome) -> (&[u64], QueryStats) {
    match outcome {
        OpOutcome::Query { ids, stats, .. } => (ids, *stats),
        other => panic!("a batch produced {other:?}"),
    }
}

/// A street-like map of `n` objects on the unit square, deterministic.
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
