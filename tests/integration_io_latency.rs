//! Integration tests of the overlapped-I/O subsystem: the depth-1 FCFS
//! equivalence matrix (the timed executor is byte-identical to the
//! synchronous path for every organization × window technique), the
//! determinism of the simulated latency, and the elevator-vs-FCFS
//! ordering at queue depth.
//!
//! The request-level anchor — a depth-1 pass over the arm reporting
//! every request's own seek flag, so charging it again mirrors
//! `Disk::charge` byte for byte — is asserted inside `spatialdb-disk`;
//! these tests pin the same contract end-to-end through the storage
//! backends and the executor.

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::disk::IoStats;
use spatialdb::storage::{MemoryStore, QueryStats, WindowTechnique};
use spatialdb::{
    ArmPolicy, Arrival, DbOptions, ExecPlan, OrganizationKind, OverlapConfig, SpatialDatabase,
    Workspace,
};

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

/// Run the workload sequentially through the cursor path (one cold
/// start, then the buffer evolves across the queries — the same
/// evolution the timed batch sees).
fn run_sync(
    db: &mut SpatialDatabase,
    queries: &WindowQuerySet,
    technique: WindowTechnique,
) -> Vec<(Vec<u64>, QueryStats, IoStats)> {
    db.store_mut().begin_query();
    queries
        .windows
        .iter()
        .map(|w| {
            let mut cursor = db.query().window(*w).technique(technique).run();
            let stats = cursor.stats();
            let io = cursor.io_stats();
            let ids: Vec<u64> = cursor.by_ref().map(|(id, _)| id).collect();
            (ids, stats, io)
        })
        .collect()
}

/// Run the same workload through the timed executor.
fn run_timed(
    ws: &Workspace,
    db: &mut SpatialDatabase,
    queries: &WindowQuerySet,
    technique: WindowTechnique,
    config: OverlapConfig,
) -> spatialdb::BatchOutcome {
    db.store_mut().begin_query();
    let batch: Vec<_> = queries
        .windows
        .iter()
        .map(|w| db.query().window(*w).technique(technique))
        .collect();
    ws.run_batch(batch, ExecPlan::threads(2).timed(config))
}

/// The acceptance matrix: at queue depth 1 under FCFS, the timed
/// executor produces **unchanged answers, `QueryStats` and `IoStats`**
/// for every organization × window technique — the overlapped subsystem
/// degenerates to today's synchronous charge path.
#[test]
fn depth_one_fcfs_matrix_matches_sync_path() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    let config = OverlapConfig {
        depth: 1,
        policy: ArmPolicy::Fcfs,
        arrival: Arrival::Burst,
        ..OverlapConfig::default()
    };
    for kind in ALL_KINDS {
        for technique in ALL_TECHNIQUES {
            let ws_sync = Workspace::new(BUFFER_PAGES);
            let mut db_sync = load(&ws_sync, kind, &map);
            let sync = run_sync(&mut db_sync, &queries, technique);

            let ws_timed = Workspace::new(BUFFER_PAGES);
            let mut db_timed = load(&ws_timed, kind, &map);
            let timed = run_timed(&ws_timed, &mut db_timed, &queries, technique, config);

            assert_eq!(sync.len(), timed.len());
            for (i, ((ids, stats, io), outcome)) in
                sync.iter().zip(timed.outcomes().iter()).enumerate()
            {
                assert_eq!(
                    ids,
                    outcome.ids(),
                    "{kind:?}/{technique:?} query {i}: answers changed"
                );
                assert_eq!(
                    *stats,
                    outcome.stats(),
                    "{kind:?}/{technique:?} query {i}: QueryStats changed"
                );
                assert_eq!(
                    *io,
                    outcome.io_stats(),
                    "{kind:?}/{technique:?} query {i}: IoStats changed"
                );
                let latency = outcome
                    .latency_stats()
                    .expect("timed batch carries latency");
                // Every physically-charged request is on the timeline
                // (the Optimum baseline charges analytically via
                // charge_raw, which has no physical run to schedule).
                if technique == WindowTechnique::Optimum {
                    assert!(latency.requests <= io.requests());
                } else {
                    assert_eq!(
                        latency.requests,
                        io.requests(),
                        "{kind:?}/{technique:?} query {i}: trace incomplete"
                    );
                }
            }
            // The workspaces' cumulative disk counters agree too.
            assert_eq!(ws_sync.disk().stats(), ws_timed.disk().stats());
        }
    }
}

/// The simulated latency is deterministic: two identical timed runs
/// produce identical per-query `LatencyStats`.
#[test]
fn timed_latency_is_deterministic() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    let config = OverlapConfig {
        depth: 4,
        policy: ArmPolicy::Elevator,
        arrival: Arrival::every_ms(20.0),
        ..OverlapConfig::default()
    };
    let run = || {
        let ws = Workspace::new(BUFFER_PAGES);
        let mut db = load(&ws, OrganizationKind::Cluster, &map);
        run_timed(&ws, &mut db, &queries, WindowTechnique::Slm, config)
            .outcomes()
            .iter()
            .map(|o| o.latency_stats().expect("latency present"))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// At queue depth ≥ 4 the elevator beats FCFS on mean end-to-end
/// latency, while answers and charged stats stay identical — the
/// scheduling policy shapes only the simulated timeline.
#[test]
fn elevator_beats_fcfs_at_depth_four() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    let mut means = Vec::new();
    let mut answers = Vec::new();
    for policy in [ArmPolicy::Fcfs, ArmPolicy::Elevator] {
        let ws = Workspace::new(BUFFER_PAGES);
        let mut db = load(&ws, OrganizationKind::Cluster, &map);
        let batch = run_timed(
            &ws,
            &mut db,
            &queries,
            WindowTechnique::Slm,
            OverlapConfig {
                depth: 4,
                policy,
                arrival: Arrival::Burst, // closed burst: maximal queueing
                ..OverlapConfig::default()
            },
        );
        let latencies: Vec<f64> = batch
            .outcomes()
            .iter()
            .map(|o| o.latency_stats().expect("latency present").latency_ms())
            .collect();
        means.push(latencies.iter().sum::<f64>() / latencies.len() as f64);
        answers.push(
            batch
                .outcomes()
                .iter()
                .map(|o| o.ids().to_vec())
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(answers[0], answers[1], "policy changed the answers");
    assert!(
        means[1] < means[0],
        "elevator mean {} not below fcfs mean {}",
        means[1],
        means[0]
    );
}

/// Deeper submission windows overlap a query's own requests: with a
/// single query in the system, queue waits appear at depth > 1 while
/// depth 1 reproduces the sequential request order (no queueing).
#[test]
fn depth_controls_per_query_overlap() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 4, 5);
    let run = |depth| {
        let ws = Workspace::new(BUFFER_PAGES);
        let mut db = load(&ws, OrganizationKind::Secondary, &map);
        // Arrivals far apart: queries never overlap each other, only
        // their own requests.
        run_timed(
            &ws,
            &mut db,
            &queries,
            WindowTechnique::Slm,
            OverlapConfig {
                depth,
                policy: ArmPolicy::Elevator,
                arrival: Arrival::every_ms(1e7),
                ..OverlapConfig::default()
            },
        )
        .outcomes()
        .iter()
        .map(|o| o.latency_stats().expect("latency present"))
        .collect::<Vec<_>>()
    };
    let d1 = run(1);
    let d8 = run(8);
    assert!(d1.iter().all(|l| l.queue_ms == 0.0), "depth 1 never queues");
    for (a, b) in d1.iter().zip(&d8) {
        // Same requests on the timeline at either depth; only their
        // overlap differs (the elevator may also re-order a query's own
        // window, so per-query service time can move either way).
        assert_eq!(a.requests, b.requests);
    }
    assert!(
        d8.iter().any(|l| l.queue_ms > 0.0),
        "depth 8 must overlap requests"
    );
}

/// A store that charges no I/O (the in-memory baseline) reports zero
/// latency through the timed executor.
#[test]
fn memory_store_has_zero_latency() {
    let map = test_map();
    let ws = Workspace::new(64);
    let store = MemoryStore::new(ws.disk(), ws.pool());
    let mut db = ws.create_database_with(Box::new(store));
    for obj in &map.objects {
        db.insert(obj.id, obj.geometry.clone().unwrap());
    }
    db.finish_loading();
    let queries = WindowQuerySet::generate(&map, 1e-2, 4, 5);
    let batch: Vec<_> = queries
        .windows
        .iter()
        .map(|w| db.query().window(*w))
        .collect();
    let out = ws.run_batch(batch, ExecPlan::threads(2).timed(OverlapConfig::default()));
    for o in out.outcomes() {
        let l = o.latency_stats().expect("latency present");
        assert_eq!(l.requests, 0);
        assert_eq!(l.latency_ms(), 0.0);
    }
}
