//! Golden-file regression: benchmark-shaped scenarios must reproduce
//! the rows of the `io_latency` / `decluster` bench bins **byte for
//! byte**. The fixtures under `tests/golden/` are copies of those bins'
//! reports at the CI arguments (`--objects 6000 --queries 160`, and
//! `--objects 6000 --queries 144`);
//! the bins write to the working directory, so re-running a bench can
//! never rewrite a fixture.
//!
//! The fast tests sweep a subset of each benchmark grid (cells are
//! matched by key, so a subset still verifies exactly); the `#[ignore]`
//! tests sweep the full grids and are run in release CI alongside the
//! binaries themselves.

use spatialdb::storage::OrganizationKind;
use spatialdb::{ArmPolicy, Arrival, EngineConfig, StripePolicy};
use spatialdb_workload::{Dataset, RowFormat, Scenario, WindowSweep};

const IO_LATENCY_GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/io_latency.json");
const DECLUSTER_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/decluster.json");

fn io_latency_scenario() -> Scenario {
    Scenario::new("io-latency")
        .dataset(Dataset::grid(6000))
        .databases(1)
        .engine(EngineConfig::default().buffer_pages(512))
        .windows(
            WindowSweep::new(160)
                .size_base(0.04)
                .size_amp(0.22)
                .size_period(7),
        )
        .arrivals(Arrival::open(0.9))
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
}

fn decluster_scenario() -> Scenario {
    Scenario::new("decluster")
        .dataset(Dataset::grid(6000))
        .databases(6)
        .engine(EngineConfig::default().buffer_pages(512 * 6))
        .windows(
            WindowSweep::new(144)
                .size_base(0.05)
                .size_amp(0.20)
                .size_period(5),
        )
        .arrivals(Arrival::open(0.7))
        .depth(16)
}

#[test]
fn io_latency_subset_matches_golden() {
    let report = io_latency_scenario()
        .organizations(&[OrganizationKind::Secondary])
        .sweep_depths(&[16])
        .run();
    // No `sweep_arms` / `sweep_stripes`: the replay runs on the one
    // round-robin arm the golden rows were recorded on.
    assert!(report
        .cells()
        .iter()
        .all(|c| c.arms == 1 && c.stripe == StripePolicy::RoundRobin));
    report
        .assert_stats_conserved()
        .assert_matches_golden(IO_LATENCY_GOLDEN, RowFormat::IoLatency);
}

#[test]
fn decluster_subset_matches_golden() {
    decluster_scenario()
        .organizations(&[OrganizationKind::Secondary])
        .sweep_policies(&[ArmPolicy::Elevator])
        .sweep_arms(&[1, 4])
        .sweep_stripes(&[StripePolicy::RoundRobin])
        .run()
        .assert_stats_conserved()
        .assert_matches_golden(DECLUSTER_GOLDEN, RowFormat::Decluster);
}

#[test]
#[ignore = "full benchmark grid; run in release (cargo test --release -- --ignored)"]
fn io_latency_full_grid_matches_golden() {
    io_latency_scenario()
        .sweep_depths(&[1, 2, 4, 8, 16])
        .run()
        .assert_stats_conserved()
        .assert_matches_golden(IO_LATENCY_GOLDEN, RowFormat::IoLatency);
}

#[test]
#[ignore = "full benchmark grid; run in release (cargo test --release -- --ignored)"]
fn decluster_full_grid_matches_golden() {
    decluster_scenario()
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .sweep_arms(&[1, 2, 4, 8])
        .sweep_stripes(&[
            StripePolicy::RoundRobin,
            StripePolicy::RegionHash,
            StripePolicy::MbrLocality,
        ])
        .run()
        .assert_stats_conserved()
        .assert_matches_golden(DECLUSTER_GOLDEN, RowFormat::Decluster);
}
