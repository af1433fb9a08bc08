//! Golden-file regression: the five reports checked in at the
//! repository root, re-derived from their declarations in
//! `spatialdb_workload::reports`, must reproduce the tracked files
//! **byte for byte**. The `scenarios` binary writes the same text; CI
//! runs it and `git diff`s the result.
//!
//! The fast tests sweep a subset of the io_latency and decluster grids
//! (every generated row must be a line of the file, so a subset still
//! verifies exactly) and gate the subset with its report's claim; the
//! `#[ignore]` tests render the full reports and compare the whole text,
//! in release CI.

use spatialdb::storage::OrganizationKind;
use spatialdb::{ArmPolicy, StripePolicy};
use spatialdb_workload::reports::{
    assert_elevator_beats_fcfs, assert_p99_falls_with_arms, decluster, io_latency, render,
};
use std::path::PathBuf;

/// A report tracked at the repository root.
fn tracked(file: &str) -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "..", "..", file]
        .iter()
        .collect()
}

/// Assert `render(file)` is the tracked file, naming the first line
/// that differs.
fn assert_renders_tracked(file: &str) {
    let rendered = render(file);
    let tracked = std::fs::read_to_string(tracked(file)).expect("read the tracked report");
    for (n, (got, want)) in rendered.lines().zip(tracked.lines()).enumerate() {
        assert_eq!(got, want, "{file} line {}", n + 1);
    }
    assert_eq!(rendered.len(), tracked.len(), "{file} length");
}

#[test]
fn io_latency_subset_matches_golden() {
    let report = io_latency()
        .organizations(&[OrganizationKind::Secondary])
        .sweep_depths(&[16])
        .run();
    // No `sweep_arms` / `sweep_stripes`: the replay runs on the one
    // round-robin arm the golden rows were recorded on.
    assert!(report
        .cells
        .row_keys()
        .all(|key| key[1] == "round_robin" && key[4] == "1"));
    assert_elevator_beats_fcfs(
        &report
            .assert_stats_conserved()
            .assert_matches_golden(tracked("BENCH_io_latency.json"))
            .cells,
    );
}

#[test]
fn decluster_subset_matches_golden() {
    let report = decluster()
        .organizations(&[OrganizationKind::Secondary])
        .sweep_policies(&[ArmPolicy::Elevator])
        .sweep_arms(&[1, 4])
        .sweep_stripes(&[StripePolicy::RoundRobin])
        .run();
    assert_p99_falls_with_arms(
        &report
            .assert_stats_conserved()
            .assert_matches_golden(tracked("BENCH_decluster.json"))
            .cells,
    );
}

#[test]
#[ignore = "full report grid; run in release (cargo test --release -- --ignored)"]
fn io_latency_full_grid_matches_golden() {
    assert_renders_tracked("BENCH_io_latency.json");
}

#[test]
#[ignore = "full report grid; run in release (cargo test --release -- --ignored)"]
fn decluster_full_grid_matches_golden() {
    assert_renders_tracked("BENCH_decluster.json");
}

#[test]
#[ignore = "full report grid; run in release (cargo test --release -- --ignored)"]
fn scenarios_full_grid_matches_golden() {
    assert_renders_tracked("BENCH_scenarios.json");
}

#[test]
#[ignore = "full report grid; run in release (cargo test --release -- --ignored)"]
fn mixed_rw_full_grid_matches_golden() {
    assert_renders_tracked("BENCH_mixed_rw.json");
}

#[test]
#[ignore = "full report grid; run in release (cargo test --release -- --ignored)"]
fn bulk_load_report_matches_golden() {
    assert_renders_tracked("BENCH_bulk_load.json");
}
