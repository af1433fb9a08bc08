//! Declarative scenarios: declare an experiment — dataset, engine,
//! workload, replay grid — and let the harness drive it.
//!
//! Run with: `cargo run --release -p spatialdb-workload --example scenario`

use spatialdb::disk::ArmPolicy;
use spatialdb::{Arrival, EngineConfig};
use spatialdb_workload::{org_label, policy_label, Dataset, Mix, Scenario, WindowSweep};

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

    println!("cells (org × depth × policy, 4 arms each):");
    for cell in report.cells() {
        println!(
            "  {:>9} depth {:2} {:>8}: p50 {:8.1} ms, p99 {:9.1} ms, {:6.1} iops",
            org_label(cell.org),
            cell.depth,
            policy_label(cell.policy),
            cell.latency.p50,
            cell.latency.p99,
            cell.iops
        );
    }
    for m in &report.mixes {
        println!(
            "mix on {:>9}: {} windows, {} points, {} joins, {} inserts -> {} results",
            m.org.map_or("?", org_label),
            m.windows,
            m.points,
            m.joins,
            m.inserts,
            m.results
        );
    }

    // The same scenario and seed render this report byte-identically
    // at any thread count; `to_json()` is the contract's witness.
    println!(
        "\nreport is {} bytes of deterministic JSON",
        report.to_json().len()
    );
}
