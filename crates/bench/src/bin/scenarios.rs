//! The reports checked in at the repository root:
//! `BENCH_io_latency.json`, `BENCH_decluster.json`,
//! `BENCH_scenarios.json`, `BENCH_mixed_rw.json` and
//! `BENCH_bulk_load.json`, each regenerated in the working directory
//! from its one declaration in [`spatialdb_workload::reports`].
//!
//! `cargo run --release -p spatialdb-bench --bin scenarios`
//!
//! Takes no arguments: any argument exits with status 2 and a message
//! naming it, before a report is written. Every report is simulated time only, so the files
//! come out byte-identical on any machine and at any thread count; a
//! `git diff` after the run shows which cell a change moved.

use spatialdb_bench::CommandLine;
use spatialdb_workload::reports::{render, FILES};

fn main() {
    CommandLine::checked(&[]);
    for file in FILES {
        std::fs::write(file, render(file)).expect("write scenario report");
        println!("wrote {file}");
    }
}
