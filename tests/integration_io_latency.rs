//! Integration tests of the overlapped-I/O subsystem on traces captured
//! from real stores: the depth-1 FCFS equivalence matrix (capturing a
//! trace moves no charge, and replaying it at depth 1 charges exactly
//! what the store charged, for every organization × window technique),
//! the determinism of the simulated latency, and the elevator-vs-FCFS
//! ordering at queue depth.
//!
//! The request-level anchor — a depth-1 pass over the arm reporting
//! every request's own seek flag, so charging it again mirrors
//! `Disk::charge` byte for byte — is asserted inside `spatialdb-disk`;
//! these tests pin the same contract end-to-end through the storage
//! backends: `Disk::traced` around `Query::run` captures, and
//! `simulate_queries_striped` replays.

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::disk::{
    simulate_queries_striped, ArmGeometry, ArrayConfig, DiskArray, IoStats, PageRequest, QueryTrace,
};
use spatialdb::storage::{MemoryStore, QueryStats, WindowTechnique};
use spatialdb::{
    ArmPolicy, DbOptions, Disk, DiskParams, LatencyStats, OrganizationKind, SpatialDatabase,
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

/// One query's filter step as the store ran it: its stats, the I/O it
/// charged, and the requests it captured.
struct Captured {
    stats: QueryStats,
    io: IoStats,
    requests: Vec<PageRequest>,
}

/// Run the workload through `Query::run` inside `Disk::traced` (one
/// cold start, then the buffer evolves across the queries — the same
/// evolution the untraced cursor path sees).
fn capture(
    ws: &Workspace,
    db: &mut SpatialDatabase,
    queries: &WindowQuerySet,
    technique: WindowTechnique,
) -> Vec<Captured> {
    db.store_mut().begin_query();
    let disk = ws.disk();
    queries
        .windows
        .iter()
        .map(|w| {
            let before = disk.local_stats();
            let query = db.query().window(*w).technique(technique);
            let (stats, requests) = disk.traced(|| query.run().stats());
            Captured {
                stats,
                io: disk.local_stats().since(&before),
                requests,
            }
        })
        .collect()
}

/// The captured requests, query *i* arriving at `i · spacing_ms`.
fn traces(captured: Vec<Captured>, spacing_ms: f64) -> Vec<QueryTrace> {
    captured
        .into_iter()
        .enumerate()
        .map(|(i, c)| QueryTrace {
            arrival_ms: i as f64 * spacing_ms,
            requests: c.requests,
        })
        .collect()
}

/// Open-arrival replay on one arm.
fn replay(traces: &[QueryTrace], depth: usize, policy: ArmPolicy) -> Vec<LatencyStats> {
    let config = ArrayConfig {
        policy,
        ..ArrayConfig::default()
    };
    simulate_queries_striped(
        DiskParams::default(),
        ArmGeometry::default(),
        config,
        depth,
        traces,
    )
    .0
}

fn mean_latency(stats: &[LatencyStats]) -> f64 {
    stats.iter().map(|l| l.latency_ms()).sum::<f64>() / stats.len() as f64
}

/// The acceptance matrix, for every organization × window technique:
/// capturing a trace charges exactly what the cursor path charges, and
/// submitting the captured requests one at a time to a 1-arm FCFS array
/// and charging each completion with its effective seek flag
/// reproduces the store's own `IoStats` — the replay degenerates to the
/// synchronous charge path.
#[test]
fn depth_one_fcfs_matrix_matches_sync_path() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    for kind in ALL_KINDS {
        for technique in ALL_TECHNIQUES {
            let ws_sync = Workspace::new(BUFFER_PAGES);
            let mut db_sync = load(&ws_sync, kind, &map);
            db_sync.store_mut().begin_query();
            let sync: Vec<(QueryStats, IoStats)> = queries
                .windows
                .iter()
                .map(|w| {
                    let cursor = db_sync.query().window(*w).technique(technique).run();
                    (cursor.stats(), cursor.io_stats())
                })
                .collect();

            let ws = Workspace::new(BUFFER_PAGES);
            let mut db = load(&ws, kind, &map);
            let captured = capture(&ws, &mut db, &queries, technique);
            assert!(
                captured.iter().any(|c| !c.requests.is_empty()),
                "{kind:?}/{technique:?}: the workload must do I/O"
            );

            let mut arm = DiskArray::new(
                ws.disk().params(),
                ArmGeometry::default(),
                ArrayConfig {
                    policy: ArmPolicy::Fcfs,
                    ..ArrayConfig::default()
                },
            );
            assert_eq!(sync.len(), captured.len());
            for (i, ((stats, io), c)) in sync.iter().zip(&captured).enumerate() {
                let tag = format!("{kind:?}/{technique:?} query {i}");
                assert_eq!(*stats, c.stats, "{tag}: QueryStats changed");
                assert_eq!(*io, c.io, "{tag}: IoStats changed");
                let recharged = Disk::new(ws.disk().params());
                for &request in &c.requests {
                    arm.submit(request);
                    let done = arm.service_next().expect("one pending request");
                    recharged.charge(
                        done.request.kind,
                        done.request.run,
                        done.effective_skip_seek,
                    );
                }
                // Every physically-charged request is on the timeline
                // (the Optimum baseline charges analytically via
                // charge_raw, which has no physical run to schedule).
                if technique == WindowTechnique::Optimum {
                    assert!(c.requests.len() as u64 <= io.requests(), "{tag}");
                } else {
                    assert_eq!(
                        c.requests.len() as u64,
                        io.requests(),
                        "{tag}: trace incomplete"
                    );
                    assert_eq!(
                        recharged.stats(),
                        *io,
                        "{tag}: depth-1 replay charges differently"
                    );
                }
            }
            // The workspaces' cumulative disk counters agree too.
            assert_eq!(ws_sync.disk().stats(), ws.disk().stats());
        }
    }
}

/// The simulated latency is deterministic: two captures from identical
/// stores replay to identical per-query `LatencyStats`.
#[test]
fn timed_latency_is_deterministic() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    let run = || {
        let ws = Workspace::new(BUFFER_PAGES);
        let mut db = load(&ws, OrganizationKind::Cluster, &map);
        let captured = capture(&ws, &mut db, &queries, WindowTechnique::Slm);
        replay(&traces(captured, 20.0), 4, ArmPolicy::Elevator)
    };
    assert_eq!(run(), run());
}

/// At queue depth ≥ 4 the elevator beats FCFS on mean end-to-end
/// latency over the same captured traces — the scheduling policy shapes
/// only the simulated timeline.
#[test]
fn elevator_beats_fcfs_at_depth_four() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    let ws = Workspace::new(BUFFER_PAGES);
    let mut db = load(&ws, OrganizationKind::Cluster, &map);
    // A burst: every query at 0, maximal queueing.
    let traces = traces(capture(&ws, &mut db, &queries, WindowTechnique::Slm), 0.0);
    let fcfs = mean_latency(&replay(&traces, 4, ArmPolicy::Fcfs));
    let elevator = mean_latency(&replay(&traces, 4, ArmPolicy::Elevator));
    assert!(
        elevator < fcfs,
        "elevator mean {elevator} not below fcfs mean {fcfs}"
    );
}

/// Deeper submission windows overlap a query's own requests: with a
/// single query in the system, queue waits appear at depth > 1 while
/// depth 1 reproduces the sequential request order (no queueing).
#[test]
fn depth_controls_per_query_overlap() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 4, 5);
    let ws = Workspace::new(BUFFER_PAGES);
    let mut db = load(&ws, OrganizationKind::Secondary, &map);
    // Arrivals far apart: queries never overlap each other, only their
    // own requests.
    let traces = traces(capture(&ws, &mut db, &queries, WindowTechnique::Slm), 1e7);
    let d1 = replay(&traces, 1, ArmPolicy::Elevator);
    let d8 = replay(&traces, 8, ArmPolicy::Elevator);
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

/// A store that charges no I/O (the in-memory baseline) captures empty
/// traces, which replay to zero latency.
#[test]
fn memory_store_has_zero_latency() {
    let map = test_map();
    let ws = Workspace::new(64);
    let store = MemoryStore::new(ws.pool());
    let mut db = ws.create_database_with(Box::new(store));
    for obj in &map.objects {
        db.insert(obj.id, obj.geometry.clone().unwrap());
    }
    db.finish_loading();
    let queries = WindowQuerySet::generate(&map, 1e-2, 4, 5);
    let captured = capture(&ws, &mut db, &queries, WindowTechnique::Slm);
    for l in replay(&traces(captured, 0.0), 4, ArmPolicy::Elevator) {
        assert_eq!(l.requests, 0);
        assert_eq!(l.latency_ms(), 0.0);
    }
}
