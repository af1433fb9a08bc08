//! The scenario determinism contract: the same scenario and seed
//! render a byte-identical report at any thread count, across every
//! storage organization, with the I/O books balanced.

use spatialdb::{ArmPolicy, Arrival, EngineConfig, StripePolicy};
use spatialdb_workload::{Dataset, Mix, Scenario, WindowSweep};

fn scenario(threads: usize) -> Scenario {
    Scenario::new("determinism")
        .dataset(Dataset::uniform(600).polyline_segments(4))
        .databases(2)
        .engine(EngineConfig::default().buffer_pages(256))
        .windows(
            WindowSweep::new(24)
                .size_base(0.05)
                .size_amp(0.15)
                .size_period(5),
        )
        .arrivals(Arrival::open(0.8))
        .sweep_depths(&[1, 4])
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .sweep_arms(&[1, 2])
        .sweep_stripes(&[StripePolicy::RoundRobin])
        .mix(
            Mix::new()
                .window(0.4)
                .point(0.2)
                .join(0.1)
                .insert(0.15)
                .delete(0.15),
        )
        .operations(32)
        .seed(7)
        .threads(threads)
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let serial = scenario(1).run();
    let parallel = scenario(8).run();
    serial.assert_stats_conserved();
    parallel.assert_stats_conserved();
    // All three organizations, every grid cell, and the mixed streams:
    // one string comparison covers the lot.
    assert_eq!(serial.to_json(), parallel.to_json());
    // Sanity: the sweep actually covered the grid (3 orgs × 1 stripe ×
    // 2 depths × 2 policies × 2 arms) and ran the mixed streams.
    assert_eq!(serial.cells.row_keys().count(), 24);
    assert_eq!(serial.mix.row_keys().count(), 3);
    for org in ["secondary", "primary", "cluster"] {
        let m = serial.mix.at(&[org]);
        let ops: f64 = ["windows", "points", "joins", "inserts", "deletes"]
            .iter()
            .map(|kind| m.get(kind))
            .sum();
        assert_eq!(ops, 32.0, "{m}");
        // The full op algebra is exercised: deletes actually ran.
        assert!(m.get("deletes") > 0.0, "{m}");
    }
}

#[test]
fn rerunning_the_same_scenario_reproduces_the_report() {
    let a = scenario(4).run();
    let b = scenario(4).run();
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
#[should_panic(expected = "invalid engine config")]
fn invalid_engine_config_is_rejected_before_any_work() {
    let _ = Scenario::new("bad")
        .engine(EngineConfig::default().buffer_pages(4).shards(8))
        .run();
}
