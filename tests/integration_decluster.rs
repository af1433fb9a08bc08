//! Integration tests of the declustered disk array end-to-end through
//! the storage backends and the timed executor: the one-arm identity
//! matrix (any stripe policy on a single arm is byte-identical to the
//! single-arm path for every organization × window technique), charge
//! conservation under multi-arm replay, per-arm accounting, and the
//! makespan effect of declustering a batch across databases.
//!
//! The array-level anchors (partition properties, parallel drain order,
//! one-arm equivalence of `DiskArray` itself) are asserted inside
//! `spatialdb-disk`; these tests pin the same contract through
//! `Workspace::run_batch` under a timed [`ExecPlan`].

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::storage::WindowTechnique;
use spatialdb::{
    ArmPolicy, Arrival, DbOptions, ExecPlan, OrganizationKind, OverlapConfig, SpatialDatabase,
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

fn makespan(batch: &spatialdb::BatchOutcome) -> f64 {
    batch
        .outcomes()
        .iter()
        .map(|o| o.latency_stats().expect("latency present").completed_ms)
        .fold(0.0, f64::max)
}

/// The acceptance matrix: one arm under **any** stripe policy is
/// byte-identical to the single-arm path — answers, `QueryStats`,
/// `IoStats` and `LatencyStats` all unchanged — for every organization
/// × window technique.
#[test]
fn one_arm_any_stripe_matrix_matches_single_arm_path() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    for kind in ALL_KINDS {
        for technique in ALL_TECHNIQUES {
            let base_cfg = OverlapConfig {
                depth: 4,
                policy: ArmPolicy::Elevator,
                arrival: Arrival::every_ms(10.0),
                ..OverlapConfig::default()
            };
            let ws_base = Workspace::new(BUFFER_PAGES);
            let mut db_base = load(&ws_base, kind, &map);
            let base = run_timed(&ws_base, &mut db_base, &queries, technique, base_cfg);

            for stripe in ALL_STRIPES {
                let ws = Workspace::new(BUFFER_PAGES);
                let mut db = load(&ws, kind, &map);
                let got = run_timed(
                    &ws,
                    &mut db,
                    &queries,
                    technique,
                    OverlapConfig {
                        arms: 1,
                        stripe,
                        ..base_cfg
                    },
                );
                assert_eq!(base.len(), got.len());
                for (i, (b, g)) in base.outcomes().iter().zip(got.outcomes()).enumerate() {
                    let tag = format!("{kind:?}/{technique:?}/{stripe:?} query {i}");
                    assert_eq!(b.ids(), g.ids(), "{tag}: answers changed");
                    assert_eq!(b.stats(), g.stats(), "{tag}: QueryStats changed");
                    assert_eq!(b.io_stats(), g.io_stats(), "{tag}: IoStats changed");
                    assert_eq!(
                        b.latency_stats(),
                        g.latency_stats(),
                        "{tag}: LatencyStats changed"
                    );
                }
                assert_eq!(ws_base.disk().stats(), ws.disk().stats());
            }
        }
    }
}

/// Multi-arm replay shapes only the simulated timeline: answers and
/// every charged figure stay byte-identical to the one-arm run, for
/// every stripe policy and arm count.
#[test]
fn multi_arm_replay_preserves_answers_and_charges() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    let run = |arms: usize, stripe: StripePolicy| {
        let ws = Workspace::new(BUFFER_PAGES);
        let mut db = load(&ws, OrganizationKind::Cluster, &map);
        let batch = run_timed(
            &ws,
            &mut db,
            &queries,
            WindowTechnique::Slm,
            OverlapConfig {
                depth: 8,
                policy: ArmPolicy::Fcfs,
                arrival: Arrival::Burst,
                arms,
                stripe,
            },
        );
        let disk = ws.disk().stats();
        (batch, disk)
    };
    let (base, base_disk) = run(1, StripePolicy::RoundRobin);
    for stripe in ALL_STRIPES {
        for arms in [2usize, 4, 8] {
            let (got, disk) = run(arms, stripe);
            assert_eq!(
                disk, base_disk,
                "{stripe:?}/{arms}: charged disk stats moved"
            );
            for (b, g) in base.outcomes().iter().zip(got.outcomes()) {
                assert_eq!(b.ids(), g.ids(), "{stripe:?}/{arms}: answers changed");
                assert_eq!(b.stats(), g.stats());
                assert_eq!(b.io_stats(), g.io_stats());
                // The same requests land on the timeline; only their
                // schedule moves.
                assert_eq!(
                    b.latency_stats().expect("latency").requests,
                    g.latency_stats().expect("latency").requests
                );
            }
            // Per-arm FCFS never reorders, so declustering can only
            // shrink the burst's makespan.
            assert!(
                makespan(&got) <= makespan(&base) + 1e-9,
                "{stripe:?}/{arms}: makespan grew"
            );
        }
    }
}

/// The per-arm statistics of a timed batch account for every request on
/// the timeline: serviced counts sum to the batch's request total, no
/// request is left pending, and only in-range arms appear.
#[test]
fn arm_stats_cover_every_timed_request() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 10, 5);
    for stripe in ALL_STRIPES {
        let arms = 4;
        let ws = Workspace::new(BUFFER_PAGES);
        let mut db = load(&ws, OrganizationKind::Cluster, &map);
        let batch = run_timed(
            &ws,
            &mut db,
            &queries,
            WindowTechnique::Slm,
            OverlapConfig {
                depth: 8,
                arms,
                stripe,
                ..OverlapConfig::default()
            },
        );
        let total: u64 = batch
            .outcomes()
            .iter()
            .map(|o| o.latency_stats().expect("latency").requests)
            .sum();
        assert!(total > 0, "{stripe:?}: workload must do I/O");
        let stats = batch.arm_stats();
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

/// Declustering pays off across databases: a closed burst interleaving
/// queries over several databases of one workspace finishes strictly
/// sooner on four arms than on one (their regions land on different
/// arms, so independent files are serviced in parallel).
#[test]
fn declustered_batch_across_databases_shrinks_makespan() {
    let map = test_map();
    let queries = WindowQuerySet::generate(&map, 1e-2, 12, 5);
    let run = |arms: usize| {
        let ws = Workspace::new(BUFFER_PAGES * 3);
        let mut dbs: Vec<SpatialDatabase> = (0..3)
            .map(|_| load(&ws, OrganizationKind::Cluster, &map))
            .collect();
        for db in &mut dbs {
            db.store_mut().begin_query();
        }
        let batch: Vec<_> = queries
            .windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                dbs[i % 3]
                    .query()
                    .window(*w)
                    .technique(WindowTechnique::Slm)
            })
            .collect();
        let out = ws.run_batch(
            batch,
            ExecPlan::threads(2).timed(OverlapConfig {
                depth: 8,
                policy: ArmPolicy::Fcfs,
                arrival: Arrival::Burst,
                arms,
                stripe: StripePolicy::RoundRobin,
            }),
        );
        let ids: Vec<Vec<u64>> = out.outcomes().iter().map(|o| o.ids().to_vec()).collect();
        (makespan(&out), ids)
    };
    let (one_arm, ids_one) = run(1);
    let (four_arms, ids_four) = run(4);
    assert_eq!(ids_one, ids_four, "arm count changed the answers");
    assert!(
        four_arms < one_arm,
        "declustering did not shrink the makespan: {four_arms} >= {one_arm}"
    );
}
