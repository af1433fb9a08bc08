//! CLI for the invariant analyzer.
//!
//! ```text
//! cargo run -p spatialdb-analysis --release -- crates/
//! ```
//!
//! Exits 0 when every analyzed file is clean, 1 when any finding
//! survives its waivers, 2 on usage or I/O errors.

use spatialdb_analysis::analyze_tree;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: spatialdb-analysis PATH...";

fn main() -> ExitCode {
    let mut roots: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        if matches!(arg.as_str(), "--help" | "-h") {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        roots.push(PathBuf::from(arg));
    }
    if roots.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut total = 0usize;
    for root in &roots {
        match analyze_tree(root) {
            Ok(findings) => {
                for f in &findings {
                    println!("{f}");
                }
                total += findings.len();
            }
            Err(e) => {
                eprintln!("error: {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }
    if total > 0 {
        eprintln!(
            "spatialdb-analysis: {total} finding(s); an audited site gets a \
             `// lint: <waiver>` comment"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
