//! CLI for the invariant analyzer.
//!
//! ```text
//! cargo run -p spatialdb-analysis --release -- crates/
//! cargo run -p spatialdb-analysis --release -- --changed-since HEAD crates/
//! ```
//!
//! `--changed-since REV` analyzes only the `.rs` files `git diff
//! --name-only REV` reports under the given roots — the pre-commit /
//! pull-request mode: seconds instead of a full-tree sweep, same
//! rules.
//!
//! Exits 0 when every analyzed file is clean, 1 when any finding
//! survives its waivers, 2 on usage or I/O errors.

use spatialdb_analysis::{analyze_tree, changed_sources};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: spatialdb-analysis [--changed-since REV] PATH...";

fn main() -> ExitCode {
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut changed_since: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--changed-since" => {
                let Some(rev) = args.next() else {
                    eprintln!("error: --changed-since requires a git revision");
                    return ExitCode::from(2);
                };
                changed_since = Some(rev);
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => roots.push(PathBuf::from(arg)),
        }
    }
    if roots.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    // In changed-since mode the roots become a scope filter and the
    // actual analysis units are the changed files themselves.
    let targets = match &changed_since {
        Some(rev) => match changed_sources(rev, &roots) {
            Ok(files) => {
                if files.is_empty() {
                    println!("spatialdb-analysis: no .rs files changed since {rev}");
                    return ExitCode::SUCCESS;
                }
                files
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        None => roots.clone(),
    };

    let mut total = 0usize;
    for root in &targets {
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
