//! Closed-loop mixed read/write benchmark, emitted as
//! `BENCH_mixed_rw.json`.
//!
//! The shadow-paging experiment: a client population drives window
//! queries under `Arrival::Closed` (each client thinks, queries, and
//! only then queries again), swept over the population size, while a
//! full-algebra mixed stream — windows, points, joins, inserts, and
//! deletes — runs against every storage organization through the
//! barrier-free stream executor. Readers pin epoch snapshots and never
//! block behind the writers; the accounting cross-check is asserted on
//! every phase, and the whole report is deterministic at any thread
//! count.
//!
//! Flags: `--objects N` (default 2000), `--queries N` (default 48),
//! `--ops N` (default 96), `--threads N` (default 4),
//! `--think MS` (default 2.0), `--out PATH`.

use spatialdb::disk::{ArmPolicy, StripePolicy};
use spatialdb::{Arrival, EngineConfig};
use spatialdb_bench::parsed;
use spatialdb_workload::{org_label, Dataset, Mix, Scenario, WindowSweep};

fn main() {
    let n_objects: u64 = parsed("--objects", 2000);
    let n_queries: usize = parsed("--queries", 48);
    let n_ops: usize = parsed("--ops", 96);
    let threads: usize = parsed("--threads", 4);
    let think_ms: f64 = parsed("--think", 2.0);
    let out_path = parsed("--out", "BENCH_mixed_rw.json".to_string());

    println!(
        "mixed_rw: {n_objects} objects, {n_queries} queries/cell, {n_ops} mixed ops, \
         {threads} threads, think {think_ms} ms"
    );

    let mut sweeps: Vec<String> = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let report = Scenario::new(format!("mixed-rw-c{clients}"))
            .dataset(Dataset::uniform(n_objects).polyline_segments(6))
            .databases(2)
            .engine(EngineConfig::default().buffer_pages(1024))
            .windows(
                WindowSweep::new(n_queries)
                    .size_base(0.04)
                    .size_amp(0.18)
                    .size_period(6),
            )
            .arrivals(Arrival::closed(clients, think_ms))
            .sweep_depths(&[4])
            .sweep_policies(&[ArmPolicy::Elevator])
            .sweep_arms(&[1, 4])
            .sweep_stripes(&[StripePolicy::RoundRobin])
            .mix(
                Mix::new()
                    .window(0.4)
                    .point(0.2)
                    .join(0.1)
                    .insert(0.15)
                    .delete(0.15),
            )
            .operations(n_ops)
            .threads(threads)
            .seed(1994)
            .run();
        report.assert_stats_conserved();

        for m in &report.mixes {
            println!(
                "  c={clients} mix {}: {} windows, {} points, {} joins, {} inserts, \
                 {} deletes, {} results",
                m.org.map_or("?", org_label),
                m.windows,
                m.points,
                m.joins,
                m.inserts,
                m.deletes,
                m.results
            );
        }
        sweeps.push(format!(
            "  {{\"clients\": {clients}, \"report\": {}}}",
            report.to_json().trim_end()
        ));
    }

    let json = format!(
        "{{\n\"bench\": \"mixed_rw\", \"think_ms\": {think_ms}, \"sweeps\": [\n{}\n]\n}}\n",
        sweeps.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write bench report");
    println!("wrote {out_path}");
}
