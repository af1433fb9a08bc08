//! The scenario reports checked in at the repository root, each
//! declared once. The `scenarios` binary writes all four with
//! [`render`]; the golden tests run parts of their grids and match the
//! rows against the tracked files.
//!
//! | file | scenario | grid |
//! |---|---|---|
//! | `BENCH_io_latency.json` | [`io_latency`] | organizations × queue depth × arm policy, open arrivals on one arm |
//! | `BENCH_decluster.json` | [`decluster`] | organizations × stripe policy × arm policy × arm count, six databases |
//! | `BENCH_scenarios.json` | [`fig_like`] | depth × arm policy × arm count, then a window/point/join/insert stream |
//! | `BENCH_mixed_rw.json` | [`mixed_rw`] at 1, 2, 4 and 8 clients | closed-loop readers, then a stream that deletes too |
//!
//! Each file is its scenario's
//! [`ScenarioReport::to_json`](crate::ScenarioReport::to_json); the mixed
//! read/write file wraps one report per client count.

use crate::{Dataset, Mix, Scenario, WindowSweep};
use spatialdb::{ArmPolicy, Arrival, EngineConfig, StripePolicy};

/// The file names [`render`] accepts.
pub const FILES: [&str; 4] = [
    "BENCH_io_latency.json",
    "BENCH_decluster.json",
    "BENCH_scenarios.json",
    "BENCH_mixed_rw.json",
];

/// The client populations of `BENCH_mixed_rw.json`.
const CLIENTS: [usize; 4] = [1, 2, 4, 8];

/// Think time of a closed-loop client in [`mixed_rw`] (simulated ms).
const THINK_MS: f64 = 2.0;

/// End-to-end query latency under the arm scheduler: the window sweep
/// replayed under open arrivals at 90 % load, at queue depths 1 – 16,
/// FCFS against elevator ordering.
pub fn io_latency() -> Scenario {
    Scenario::new("io_latency")
        .dataset(Dataset::grid(6000))
        .engine(EngineConfig::default().buffer_pages(512))
        .windows(WindowSweep::new(160))
        .arrivals(Arrival::open(0.9))
        .sweep_depths(&[1, 2, 4, 8, 16])
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
}

/// Declustered storage: six databases share one workspace, queries
/// round-robin over them, and every stripe policy spreads their regions
/// over 1 – 8 arms. IOPS shows the throughput scaling, p95/p99 how
/// declustering trims the queueing tail.
pub fn decluster() -> Scenario {
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
        .sweep_depths(&[16])
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .sweep_arms(&[1, 2, 4, 8])
        .sweep_stripes(&[
            StripePolicy::RoundRobin,
            StripePolicy::RegionHash,
            StripePolicy::MbrLocality,
        ])
}

/// The harness end to end, the way a user would drive it: a seeded
/// uniform dataset, an open-arrival sweep over a depth × policy × arm
/// grid, and a mixed window/point/join/insert stream per organization.
pub fn fig_like() -> Scenario {
    Scenario::new("fig-like")
        .dataset(Dataset::uniform(4000).polyline_segments(6))
        .databases(2)
        .engine(EngineConfig::default().buffer_pages(1024))
        .windows(
            WindowSweep::new(96)
                .size_base(0.04)
                .size_amp(0.18)
                .size_period(6),
        )
        .arrivals(Arrival::open(0.7))
        .sweep_depths(&[4, 16])
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .sweep_arms(&[1, 4])
        .mix(Mix::new().window(0.6).point(0.2).join(0.1).insert(0.1))
        .operations(128)
        .threads(4)
        .seed(1994)
}

/// Shadow paging under load: `clients` closed-loop readers (each thinks,
/// queries, and only then queries again), then a stream of windows,
/// points, joins, inserts and deletes per organization. Readers pin
/// epoch snapshots and never block behind the writers.
pub fn mixed_rw(clients: usize) -> Scenario {
    Scenario::new(format!("mixed-rw-c{clients}"))
        .dataset(Dataset::uniform(2000).polyline_segments(6))
        .databases(2)
        .engine(EngineConfig::default().buffer_pages(1024))
        .windows(
            WindowSweep::new(48)
                .size_base(0.04)
                .size_amp(0.18)
                .size_period(6),
        )
        .arrivals(Arrival::closed(clients, THINK_MS))
        .sweep_depths(&[4])
        .sweep_arms(&[1, 4])
        .mix(
            Mix::new()
                .window(0.4)
                .point(0.2)
                .join(0.1)
                .insert(0.15)
                .delete(0.15),
        )
        .operations(96)
        .threads(4)
        .seed(1994)
}

/// The text of the checked-in report `file`, one of [`FILES`]: its
/// scenario run, its I/O books checked, its report rendered.
///
/// # Panics
///
/// Panics on a name not in [`FILES`], and when a run's I/O accounting
/// does not balance
/// ([`ScenarioReport::assert_stats_conserved`](crate::ScenarioReport::assert_stats_conserved)).
pub fn render(file: &str) -> String {
    let json = |scenario: Scenario| scenario.run().assert_stats_conserved().to_json();
    match file {
        "BENCH_io_latency.json" => json(io_latency()),
        "BENCH_decluster.json" => json(decluster()),
        "BENCH_scenarios.json" => json(fig_like()),
        "BENCH_mixed_rw.json" => {
            let sweeps: Vec<String> = CLIENTS
                .iter()
                .map(|&clients| {
                    let report = json(mixed_rw(clients));
                    format!(
                        "  {{\"clients\": {clients}, \"report\": {}}}",
                        report.trim_end()
                    )
                })
                .collect();
            format!(
                "{{\n\"bench\": \"mixed_rw\", \"think_ms\": {THINK_MS}, \"sweeps\": [\n{}\n]\n}}\n",
                sweeps.join(",\n")
            )
        }
        _ => panic!("unknown report {file:?} (valid: {})", FILES.join(" ")),
    }
}

#[cfg(test)]
mod tests {
    use super::render;

    #[test]
    #[should_panic(expected = "unknown report \"BENCH_bulk_load.json\" (valid: \
                               BENCH_io_latency.json BENCH_decluster.json \
                               BENCH_scenarios.json BENCH_mixed_rw.json)")]
    fn an_unknown_report_is_refused() {
        render("BENCH_bulk_load.json");
    }
}
