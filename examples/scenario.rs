//! Declarative scenarios: declare an experiment — dataset, engine,
//! workload, replay grid — and let the harness drive it.
//!
//! Run with: `cargo run --release -p spatialdb-workload --example scenario`

use spatialdb::disk::ArmPolicy;
use spatialdb::{Arrival, EngineConfig};
use spatialdb_workload::{Dataset, Mix, Scenario, WindowSweep};

fn main() {
    // One declaration, end to end: a seeded uniform dataset split over
    // two databases, a machine with a 4-shard pool, an open-arrival
    // window sweep replayed on a 4-arm disk array at two queue depths
    // under both arm schedulers, and a mixed window/point/join/insert
    // stream per storage organization.
    let report = Scenario::new("tour")
        .dataset(Dataset::uniform(3_000).polyline_segments(6))
        .databases(2)
        .engine(EngineConfig::default().buffer_pages(1024).shards(4))
        .windows(
            WindowSweep::new(48)
                .size_base(0.05)
                .size_amp(0.15)
                .size_period(5),
        )
        .arrivals(Arrival::open(0.7))
        .sweep_depths(&[4, 16])
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .sweep_arms(&[4])
        .mix(Mix::new().window(0.6).point(0.2).join(0.1).insert(0.1))
        .operations(64)
        .seed(7)
        .run();

    // The chainable gates: every phase's I/O books must balance, and
    // no cell may blow the latency budget.
    report
        .assert_stats_conserved()
        .assert_p99_under_ms(1_000_000.0);

    // The replay cells and the mix rows are two figures: print them as
    // tables, or cut a row (`at`) or a column (`down`) to read or gate.
    println!("{}\n{}", report.cells, report.mix);
    let cell = report
        .cells
        .at(&["cluster", "round_robin", "elevator", "16", "4"]);
    println!(
        "{cell}: p99 {:.1} ms over {} requests",
        cell.get("p99_ms"),
        cell.get("requests")
    );

    // The same scenario and seed render this report byte-identically
    // at any thread count; `to_json()` is the contract's witness.
    println!(
        "\nreport is {} bytes of deterministic JSON",
        report.to_json().len()
    );
}
