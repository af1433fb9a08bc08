//! Integration tests of the sharded buffer pool: the shard-equivalence
//! matrix (1-shard pool ≡ the classic single-lock pool for every
//! organization × window technique), the conservation invariants of
//! N > 1 shards (for window queries and the join), the panic-safety
//! of the I/O tallies, and the one shard-lock acquisition a query's
//! pool session takes. (Concurrent
//! filter steps on a 4-shard pool: `integration_parallel.rs`'s
//! `concurrent_reads_are_exact`.)
//!
//! The byte-level anchor — a 1-shard [`ShardedPool`] mirroring
//! `BufferPool` operation for operation — is asserted by the
//! randomized mirror test inside `spatialdb-disk`; these tests pin the
//! same contract end-to-end through the storage backends and executor.

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::disk::IoStats;
use spatialdb::storage::{QueryStats, WindowTechnique};
use spatialdb::TransferTechnique;
use spatialdb::{DbOptions, EngineConfig, OrganizationKind, SpatialDatabase, Workspace};

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

const BUFFER_PAGES: usize = 192;

fn a1() -> DataSet {
    DataSet {
        series: SeriesId::A,
        map: MapId::Map1,
    }
}

fn test_map() -> SpatialMap {
    SpatialMap::generate(a1(), 0.003, GeometryMode::Full, 42)
}

fn load(ws: &Workspace, kind: OrganizationKind, map: &SpatialMap) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind).smax_bytes(40 * 1024));
    for obj in &map.objects {
        db.insert(obj.id, obj.geometry.clone().unwrap());
    }
    db.finish_loading();
    db
}

/// Run the window workload and collect per-query stats + I/O deltas.
fn run_workload(
    db: &mut SpatialDatabase,
    queries: &WindowQuerySet,
    technique: WindowTechnique,
) -> Vec<(Vec<u64>, QueryStats, IoStats)> {
    queries
        .windows
        .iter()
        .map(|w| {
            db.store_mut().begin_query();
            let mut cursor = db.query().window(*w).technique(technique).run();
            let stats = cursor.stats();
            let io = cursor.io_stats();
            let ids: Vec<u64> = cursor.by_ref().map(|(id, _)| id).collect();
            (ids, stats, io)
        })
        .collect()
}

/// The equivalence matrix of the refactor's acceptance criterion: for
/// every organization × window technique, a workspace on the 1-shard
/// `ShardedPool` produces **byte-identical** per-query `QueryStats` and
/// `IoStats` to `Workspace::new` — which is the pre-sharding
/// configuration (`SharedPool` used to be the single-lock pool; the
/// 1-shard pool mirrors it operation for operation, see the
/// `one_shard_mirrors_buffer_pool` test in `spatialdb-disk`).
#[test]
fn one_shard_matrix_byte_identical_stats() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    for kind in ALL_KINDS {
        for technique in ALL_TECHNIQUES {
            let ws_plain = Workspace::new(BUFFER_PAGES);
            let mut db_plain = load(&ws_plain, kind, &map);
            let plain = run_workload(&mut db_plain, &queries, technique);

            let ws_sharded =
                Workspace::from_config(EngineConfig::default().buffer_pages(BUFFER_PAGES));
            let mut db_sharded = load(&ws_sharded, kind, &map);
            let sharded = run_workload(&mut db_sharded, &queries, technique);

            assert_eq!(
                plain, sharded,
                "{kind:?}/{technique:?}: 1-shard stats must be byte-identical"
            );
        }
    }
}

/// N > 1 shards: exact answers and candidate sets never change, the
/// capacity budget is conserved, and so is the hit + miss count, for
/// every organization × window technique: every requested-page access
/// is classified exactly once, whatever the shard count. Which pages a
/// query requests does not depend on the buffer — the cluster
/// organization's unit read (`PoolSession::read_extent`) counts the
/// pages a technique wants, never the bridged pages or the rest of a
/// completely read unit, and counts them on its all-resident path too.
#[test]
fn multi_shard_conserves_answers_budget_and_access_counts() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    for kind in ALL_KINDS {
        for technique in ALL_TECHNIQUES {
            let ws_one = Workspace::from_config(EngineConfig::default().buffer_pages(BUFFER_PAGES));
            let mut db_one = load(&ws_one, kind, &map);
            let base = run_workload(&mut db_one, &queries, technique);
            let base_accesses = ws_one.pool().hits() + ws_one.pool().misses();

            for shards in [2usize, 4] {
                let at = format!("{kind:?}/{technique:?}/{shards} shards");
                let ws = Workspace::from_config(
                    EngineConfig::default()
                        .buffer_pages(BUFFER_PAGES)
                        .shards(shards),
                );
                assert_eq!(ws.pool().num_shards(), shards);
                let quota_total: usize = (0..shards).map(|i| ws.pool().shard_capacity(i)).sum();
                assert_eq!(
                    quota_total, BUFFER_PAGES,
                    "{at}: budget conserved across quotas"
                );

                let mut db = load(&ws, kind, &map);
                let run = run_workload(&mut db, &queries, technique);
                for (i, ((ids, stats, _), (base_ids, base_stats, _))) in
                    run.iter().zip(base.iter()).enumerate()
                {
                    assert_eq!(ids, base_ids, "{at} query {i}: answers changed");
                    assert_eq!(
                        stats.candidates, base_stats.candidates,
                        "{at} query {i}: candidate set changed"
                    );
                    assert_eq!(stats.result_bytes, base_stats.result_bytes);
                }
                // The pool never holds more pages than its budget.
                assert!(ws.pool().len() <= BUFFER_PAGES);
                let accesses = ws.pool().hits() + ws.pool().misses();
                assert_eq!(
                    accesses, base_accesses,
                    "{at}: hit+miss count not conserved"
                );
            }
        }
    }
}

/// The join's object transfer under the *complete* technique (the
/// join's default) on cluster-organized A-1 ⋈ A-2, with a buffer small
/// enough that the join evicts: the hit + miss count of the join is the
/// same on 1, 2 and 4 shards. An object already buffered is counted as
/// hits, and a unit read counts the object's pages, not the unit's.
#[test]
fn join_access_count_is_the_same_at_every_shard_count() {
    const JOIN_BUFFER_PAGES: usize = 64;
    let a2 = DataSet {
        series: SeriesId::A,
        map: MapId::Map2,
    };
    let left_map = SpatialMap::generate(a1(), 0.02, GeometryMode::Full, 42);
    let right_map = SpatialMap::generate(a2, 0.02, GeometryMode::Full, 43);
    let counts: Vec<(u64, u64)> = [1usize, 2, 4]
        .into_iter()
        .map(|shards| {
            let ws = Workspace::from_config(
                EngineConfig::default()
                    .buffer_pages(JOIN_BUFFER_PAGES)
                    .shards(shards),
            );
            let mut left = load(&ws, OrganizationKind::Cluster, &left_map);
            let mut right = load(&ws, OrganizationKind::Cluster, &right_map);
            left.store_mut().begin_query();
            right.store_mut().begin_query();
            let (hits, misses) = (ws.pool().hits(), ws.pool().misses());
            let before = ws.disk().stats();
            let cursor = left
                .join(&right)
                .transfer(TransferTechnique::Complete)
                .run();
            assert!(cursor.num_candidates() > 0, "{shards} shards: empty join");
            drop(cursor);
            let pages_read = ws.disk().stats().since(&before).pages_read;
            assert!(
                pages_read > 4 * JOIN_BUFFER_PAGES as u64,
                "{shards} shards: the join must evict, but it read only {pages_read} pages \
                 into a {JOIN_BUFFER_PAGES}-page buffer"
            );
            (ws.pool().hits() - hits, ws.pool().misses() - misses)
        })
        .collect();
    eprintln!("join hits, misses on 1, 2, 4 shards: {counts:?}");
    let accesses: Vec<u64> = counts.iter().map(|(h, m)| h + m).collect();
    assert!(
        accesses.iter().all(|&a| a == accesses[0]),
        "hits + misses of the join on 1, 2, 4 shards: {counts:?}"
    );
}

/// Panic-safety of the I/O tallies: a refinement worker that panics
/// (here: refining a filter-only record bulk-loaded without exact
/// geometry) aborts the batch, but every charge the filter phase made
/// stays in the workspace's cumulative disk counters — nothing leaks.
#[test]
fn panicking_batch_worker_leaks_no_charges() {
    use spatialdb::geom::Rect;
    use spatialdb::rtree::ObjectId;
    use spatialdb::storage::ObjectRecord;

    let ws = Workspace::new(BUFFER_PAGES);
    let mut db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
    // Filter-only records: refinement has no exact geometry and panics.
    let records: Vec<ObjectRecord> = (0..40u64)
        .map(|i| {
            let x = (i % 8) as f64 / 8.0;
            let y = (i / 8) as f64 / 8.0;
            ObjectRecord::new(ObjectId(i), Rect::new(x, y, x + 0.05, y + 0.05), 700)
        })
        .collect();
    for rec in &records {
        db.store_mut().insert(rec);
    }
    db.finish_loading();

    let before = ws.disk().stats();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ws.run_batch(vec![db.query().window(Rect::new(0.0, 0.0, 1.0, 1.0))], 4)
    }));
    assert!(outcome.is_err(), "refining filter-only records must panic");
    let grown = ws.disk().stats().since(&before);
    // The filter step's page reads all survived the unwind.
    assert!(
        grown.read_requests > 0,
        "filter-phase charges leaked out of the cumulative stats"
    );
}

/// The hardware-independent evidence of pool sessions: on a 1-shard
/// pool a window query takes the shard lock once on every organization
/// — its tree walk and its transfer share one session — and so does a
/// join: one session replays the MBR join's node reads and the object
/// transfer's fetches in the traversal's order. A memory store's query
/// never touches the pool.
#[test]
fn a_query_takes_the_pool_lock_once() {
    use spatialdb::storage::MemoryStore;

    let map = test_map();
    let window = WindowQuerySet::generate(&map, 1e-2, 1, 5).windows[0];
    let ws = Workspace::from_config(EngineConfig::default().buffer_pages(BUFFER_PAGES));
    let acquisitions = || ws.pool().lock_acquisitions();
    let mut dbs = Vec::new();
    for kind in ALL_KINDS {
        let mut db = load(&ws, kind, &map);
        db.store_mut().begin_query();
        let before = acquisitions();
        let cursor = db.query().window(window).run();
        assert!(cursor.num_candidates() > 0, "{kind:?}: empty window");
        drop(cursor);
        assert_eq!(acquisitions() - before, 1, "{kind:?}: one window query");
        dbs.push(db);
    }

    let (left, right) = (&dbs[2], &dbs[0]);
    let before = acquisitions();
    let cursor = left.join(right).transfer(TransferTechnique::Complete).run();
    assert!(cursor.num_candidates() > 0, "empty join");
    drop(cursor);
    assert_eq!(acquisitions() - before, 1, "one join: one session");

    let memory = ws.create_database_with(Box::new(MemoryStore::new(ws.pool())));
    for obj in &map.objects {
        memory.insert(obj.id, obj.geometry.clone().unwrap());
    }
    let before = acquisitions();
    let cursor = memory.query().window(window).run();
    assert!(cursor.num_candidates() > 0, "memory store: empty window");
    drop(cursor);
    assert_eq!(acquisitions(), before, "a memory store's query");
}
