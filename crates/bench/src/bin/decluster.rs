//! Declustered-storage scaling: an organizations × arm-count ×
//! stripe-policy grid over a multi-database window-query stream,
//! emitted as `BENCH_decluster.json`.
//!
//! The whole experiment is one declarative [`Scenario`]: several
//! databases share one workspace (their regions are the units the
//! stripe policies spread across the simulated disk array), queries
//! round-robin over them, and each grid cell replays the traced
//! workload under open arrivals at the configured depth — byte-identical
//! to the hand-rolled driver this binary used to carry. Aggregate IOPS
//! (= total requests / makespan) shows the throughput scaling; the
//! p95/p99 percentiles show how declustering trims the queueing tail.
//!
//! Flags: `--objects N` (default 6000, split across the databases),
//! `--queries N` (default 144), `--dbs N` (default 6), `--depth N`
//! (default 16), `--load F` (default 0.7), `--out PATH`.

use spatialdb::disk::{ArmPolicy, StripePolicy};
use spatialdb::{Arrival, EngineConfig};
use spatialdb_bench::parsed;
use spatialdb_workload::{org_label, policy_label, stripe_label, Dataset, Scenario, WindowSweep};

const ALL_STRIPES: [StripePolicy; 3] = [
    StripePolicy::RoundRobin,
    StripePolicy::RegionHash,
    StripePolicy::MbrLocality,
];

/// The arm counts of the grid.
const ARMS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let n_objects: u64 = parsed("--objects", 6000);
    let n_queries: usize = parsed("--queries", 144);
    let n_dbs: usize = parsed("--dbs", 6);
    let depth: usize = parsed("--depth", 16);
    let load: f64 = parsed("--load", 0.7);
    assert!(n_dbs > 0 && depth > 0);
    assert!(load > 0.0, "--load must be positive");
    let out_path = parsed("--out", "BENCH_decluster.json".to_string());

    println!(
        "decluster: {n_objects} objects across {n_dbs} databases, {n_queries} queries, \
         depth {depth}, arms {ARMS:?}"
    );
    let report = Scenario::new("decluster")
        .dataset(Dataset::grid(n_objects))
        .databases(n_dbs)
        .engine(EngineConfig::default().buffer_pages(512 * n_dbs))
        .windows(
            WindowSweep::new(n_queries)
                .size_base(0.05)
                .size_amp(0.20)
                .size_period(5),
        )
        .arrivals(Arrival::open(load))
        .depth(depth)
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .sweep_arms(&ARMS)
        .sweep_stripes(&ALL_STRIPES)
        .run();
    report.assert_stats_conserved();

    for group in report.cells().chunks(ARMS.len()) {
        let mut line = format!(
            "  {:>9} {:>12}/{:<8}:",
            org_label(group[0].org),
            stripe_label(group[0].stripe),
            policy_label(group[0].policy)
        );
        for cell in group {
            line.push_str(&format!(" {}a {:7.1} iops |", cell.arms, cell.iops));
        }
        println!("{}", line.trim_end_matches(" |"));
    }

    let rows: Vec<String> = report.cells().iter().map(|c| c.decluster_row()).collect();
    let arms_json: Vec<String> = ARMS.iter().map(|a| a.to_string()).collect();
    let json = format!(
        "{{\n  \"bench\": \"decluster\",\n  \"objects\": {},\n  \
         \"queries\": {n_queries},\n  \"databases\": {n_dbs},\n  \"depth\": {depth},\n  \
         \"load\": {load},\n  \
         \"arms\": [{}],\n  \"stripes\": [\"round_robin\", \"region_hash\", \
         \"mbr_locality\"],\n  \"policies\": [\"fcfs\", \"elevator\"],\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        report.objects,
        arms_json.join(", "),
        rows.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write bench report");
    println!("wrote {out_path}");
}
