//! End-to-end query latency under the disk-arm scheduler: an
//! organizations × queue-depth × policy grid over an open-arrival
//! window-query workload, emitted as `BENCH_io_latency.json`.
//!
//! The whole experiment is one declarative [`Scenario`]: the harness
//! runs the traced filter pass, derives the open-arrival spacing
//! (`inter_arrival_ms = mean service / load`), and replays the traces
//! through the single-arm scheduler at each queue depth under FCFS and
//! elevator ordering — byte-identical to the hand-rolled driver this
//! binary used to carry.
//!
//! Flags: `--objects N` (default 6000), `--queries N` (default 160),
//! `--load F` (default 0.9), `--out PATH`.

use spatialdb::disk::ArmPolicy;
use spatialdb::{Arrival, EngineConfig};
use spatialdb_bench::parsed;
use spatialdb_workload::{org_label, Dataset, Scenario, WindowSweep};

/// The queue depths of the grid.
const DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];

fn main() {
    let n_objects: u64 = parsed("--objects", 6000);
    let n_queries: usize = parsed("--queries", 160);
    let load: f64 = parsed("--load", 0.9);
    assert!(load > 0.0, "--load must be positive");
    let out_path = parsed("--out", "BENCH_io_latency.json".to_string());

    println!(
        "io latency: {n_objects} objects, {n_queries} queries, load {load}, depths {DEPTHS:?}"
    );
    let report = Scenario::new("io_latency")
        .dataset(Dataset::grid(n_objects))
        .engine(EngineConfig::default().buffer_pages(512))
        .windows(
            WindowSweep::new(n_queries)
                .size_base(0.04)
                .size_amp(0.22)
                .size_period(7),
        )
        .arrivals(Arrival::open(load))
        .sweep_depths(&DEPTHS)
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .run();
    report.assert_stats_conserved();

    for pair in report.cells().chunks(2) {
        let (fcfs, elevator) = (&pair[0], &pair[1]);
        println!(
            "  {} depth {:2}: fcfs mean {:9.1} ms | elevator mean {:9.1} ms ({:+.1}%)",
            org_label(fcfs.org),
            fcfs.depth,
            fcfs.latency.mean,
            elevator.latency.mean,
            (elevator.latency.mean / fcfs.latency.mean - 1.0) * 100.0
        );
    }

    let rows: Vec<String> = report.cells().iter().map(|c| c.io_latency_row()).collect();
    let depths_json: Vec<String> = DEPTHS.iter().map(|d| d.to_string()).collect();
    let json = format!(
        "{{\n  \"bench\": \"io_latency\",\n  \"objects\": {},\n  \
         \"queries\": {n_queries},\n  \"load\": {load},\n  \"depths\": [{}],\n  \
         \"policies\": [\"fcfs\", \"elevator\"],\n  \"rows\": [\n{}\n  ]\n}}\n",
        report.objects,
        depths_json.join(", "),
        rows.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write bench report");
    println!("wrote {out_path}");
}
