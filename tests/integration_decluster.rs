//! Integration tests of the declustered disk array on traces captured
//! from real stores: the one-arm identity matrix (any stripe policy on a
//! single arm replays identically for every organization × window
//! technique), charge conservation under multi-arm replay, per-arm
//! accounting, and the makespan effect of declustering a batch across
//! databases.
//!
//! The array-level anchors (partition properties, parallel drain order)
//! are asserted inside `spatialdb-disk`; these tests pin the same
//! contract on the requests `Disk::traced` captures around `Query::run`.

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::disk::{simulate_queries_striped, ArmGeometry, ArrayConfig, QueryTrace};
use spatialdb::storage::WindowTechnique;
use spatialdb::{
    ArmPolicy, ArmStats, DbOptions, DiskParams, LatencyStats, OrganizationKind, SpatialDatabase,
    StripePolicy, Workspace,
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

const ALL_STRIPES: [StripePolicy; 3] = [
    StripePolicy::RoundRobin,
    StripePolicy::RegionHash,
    StripePolicy::MbrLocality,
];

const BUFFER_PAGES: usize = 192;

fn test_map() -> SpatialMap {
    let set = DataSet {
        series: SeriesId::A,
        map: MapId::Map1,
    };
    SpatialMap::generate(set, 0.003, GeometryMode::Full, 42)
}

fn load(ws: &Workspace, kind: OrganizationKind, map: &SpatialMap) -> SpatialDatabase {
    let mut db = ws.create_database(DbOptions::new(kind).smax_bytes(40 * 1024));
    for obj in &map.objects {
        db.insert(obj.id, obj.geometry.clone().unwrap());
    }
    db.finish_loading();
    db
}

/// Capture the requests of the workload from cold stores, query *i*
/// against `dbs[i % dbs.len()]` and arriving at `i · spacing_ms`.
fn capture(
    dbs: &mut [SpatialDatabase],
    queries: &WindowQuerySet,
    technique: WindowTechnique,
    spacing_ms: f64,
) -> Vec<QueryTrace> {
    for db in dbs.iter_mut() {
        db.store_mut().begin_query();
    }
    queries
        .windows
        .iter()
        .enumerate()
        .map(|(i, w)| QueryTrace {
            arrival_ms: i as f64 * spacing_ms,
            requests: {
                let db = &dbs[i % dbs.len()];
                let query = db.query().window(*w).technique(technique);
                db.store().disk().traced(|| query.run().stats()).1
            },
        })
        .collect()
}

/// Open-arrival replay on `arms` arms under `stripe` and `policy`.
fn replay(
    traces: &[QueryTrace],
    depth: usize,
    policy: ArmPolicy,
    arms: usize,
    stripe: StripePolicy,
) -> (Vec<LatencyStats>, Vec<ArmStats>) {
    let config = ArrayConfig {
        arms,
        stripe,
        policy,
    };
    simulate_queries_striped(
        DiskParams::default(),
        ArmGeometry::default(),
        config,
        depth,
        traces,
    )
}

fn makespan(latency: &[LatencyStats]) -> f64 {
    latency.iter().map(|l| l.completed_ms).fold(0.0, f64::max)
}

/// The acceptance matrix: one arm under **any** stripe policy replays
/// the same real traces to identical `LatencyStats` and `ArmStats`, for
/// every organization × window technique.
#[test]
fn one_arm_any_stripe_matrix_matches_single_arm_path() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    for kind in ALL_KINDS {
        for technique in ALL_TECHNIQUES {
            let ws = Workspace::new(BUFFER_PAGES);
            let traces = capture(&mut [load(&ws, kind, &map)], &queries, technique, 10.0);
            let base = replay(&traces, 4, ArmPolicy::Elevator, 1, StripePolicy::RoundRobin);
            assert_eq!(base.0.len(), queries.windows.len());
            for stripe in ALL_STRIPES {
                let got = replay(&traces, 4, ArmPolicy::Elevator, 1, stripe);
                assert_eq!(base, got, "{kind:?}/{technique:?}/{stripe:?} diverged");
            }
        }
    }
}

/// Multi-arm replay shapes only the simulated timeline: the same
/// requests land on it, the charged disk is untouched, and per-arm FCFS
/// can only shrink a burst's makespan — for every stripe policy and arm
/// count.
#[test]
fn multi_arm_replay_preserves_answers_and_charges() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    let ws = Workspace::new(BUFFER_PAGES);
    let mut dbs = [load(&ws, OrganizationKind::Cluster, &map)];
    let traces = capture(&mut dbs, &queries, WindowTechnique::Slm, 0.0);
    let charged = ws.disk().stats();
    let (base, _) = replay(&traces, 8, ArmPolicy::Fcfs, 1, StripePolicy::RoundRobin);
    for stripe in ALL_STRIPES {
        for arms in [2usize, 4, 8] {
            let (got, _) = replay(&traces, 8, ArmPolicy::Fcfs, arms, stripe);
            for (b, g) in base.iter().zip(&got) {
                // The same requests land on the timeline; only their
                // schedule moves.
                assert_eq!(b.requests, g.requests, "{stripe:?}/{arms}");
            }
            // Per-arm FCFS never reorders, so declustering can only
            // shrink the burst's makespan.
            assert!(
                makespan(&got) <= makespan(&base) + 1e-9,
                "{stripe:?}/{arms}: makespan grew"
            );
        }
    }
    assert_eq!(ws.disk().stats(), charged, "a replay moved a charge");
}

/// The per-arm statistics of a replay account for every request on the
/// timeline: serviced counts sum to the batch's request total, no
/// request is left pending, and only in-range arms appear.
#[test]
fn arm_stats_cover_every_timed_request() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    let ws = Workspace::new(BUFFER_PAGES);
    let mut dbs = [load(&ws, OrganizationKind::Cluster, &map)];
    let traces = capture(&mut dbs, &queries, WindowTechnique::Slm, 0.0);
    for stripe in ALL_STRIPES {
        let arms = 4;
        let (latency, stats) = replay(&traces, 8, ArmPolicy::Elevator, arms, stripe);
        let total: u64 = latency.iter().map(|l| l.requests).sum();
        assert!(total > 0, "{stripe:?}: workload must do I/O");
        assert_eq!(stats.len(), arms, "{stripe:?}: one row per arm");
        assert_eq!(
            stats.iter().map(|s| s.serviced).sum::<u64>(),
            total,
            "{stripe:?}: arm accounting incomplete"
        );
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.arm, i);
            assert_eq!(s.pending, 0, "{stripe:?}: drained batch left work");
            if s.serviced > 0 {
                assert!(s.busy_ms > 0.0 && s.clock_ms > 0.0);
                assert!(s.utilization() > 0.0 && s.utilization() <= 1.0 + 1e-9);
            }
        }
    }
}

/// Declustering pays off across databases: a burst interleaving
/// queries over several databases of one workspace finishes strictly
/// sooner on four arms than on one (their regions land on different
/// arms, so independent files are serviced in parallel).
#[test]
fn declustered_batch_across_databases_shrinks_makespan() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 12, 5);
    let ws = Workspace::new(BUFFER_PAGES * 3);
    let mut dbs: Vec<SpatialDatabase> = (0..3)
        .map(|_| load(&ws, OrganizationKind::Cluster, &map))
        .collect();
    let traces = capture(&mut dbs, &queries, WindowTechnique::Slm, 0.0);
    let run =
        |arms| makespan(&replay(&traces, 8, ArmPolicy::Fcfs, arms, StripePolicy::RoundRobin).0);
    let (one_arm, four_arms) = (run(1), run(4));
    assert!(
        four_arms < one_arm,
        "declustering did not shrink the makespan: {four_arms} >= {one_arm}"
    );
}
