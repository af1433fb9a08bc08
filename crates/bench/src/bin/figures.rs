//! The paper's evaluation: Table 1 and Figures 5 – 8, 10 – 12, 14, 16
//! and 17, each printed as the table behind it.
//!
//! `cargo run --release -p spatialdb-bench --bin figures -- [--fig ID] [--scale F]`
//!
//! `--fig` takes one of `table1 5 6 7 8 10 11 12 14 16 17` (default:
//! all, in that order — Figs. 5 – 7 then share one construction pass);
//! `--scale` the fraction of the Table 1 data to run on (default 1.0,
//! the paper's scale, which takes minutes per figure). The output at
//! `--scale 0.03` is checked in as
//! `crates/workload/tests/golden/figures.txt`. Any other argument, or a
//! value that does not parse or is out of range, exits with status 2
//! and a message naming it, before any figure runs.

use spatialdb::data::DataSet;
use spatialdb_bench::{usage_error, CommandLine};
use spatialdb_workload::figures::{figures, Scale, IDS};

fn main() {
    let args = CommandLine::checked(&["--fig", "--scale"]);
    let scale = Scale::try_fraction(args.parsed("--scale", 1.0))
        .unwrap_or_else(|message| usage_error(&message));
    let fig = args.parsed("--fig", String::new());
    let ids = match fig.as_str() {
        "" => IDS.to_vec(),
        id if IDS.contains(&id) => vec![id],
        id => usage_error(&format!(
            "--fig: unknown figure {id:?} (valid: {})",
            IDS.join(" ")
        )),
    };
    println!("figures at {scale}");
    for figure in figures(&ids, &scale, &DataSet::all()) {
        print!("\n{figure}");
    }
}
