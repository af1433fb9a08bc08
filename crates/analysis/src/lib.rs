//! `spatialdb-analysis` — a repo-specific invariant analyzer.
//!
//! The workspace's correctness story rests on contracts: byte-identical
//! stats at any thread count, an acyclic lock hierarchy, no wall clock
//! in simulated time. The compiler checks what it can — the root
//! `clippy.toml` bans the wall clock, raw `Mutex` locks and hash-order
//! iteration, and visibility keeps the epoch pin counters and
//! `Disk::charge_raw` out of reach. This crate checks the rest: a
//! hand-rolled lexer (no external dependencies — the workspace builds
//! offline) feeds three line-level rules over every `crates/*/src` file.
//!
//! Run it as `cargo run -p spatialdb-analysis --release -- crates/`;
//! it exits nonzero with `file:line: [rule] message` diagnostics.
//! Audited sites are silenced in-source, with a `// lint: <waiver> —
//! why` comment on or above the flagged line.

pub mod lexer;
pub mod rules;

pub use rules::{analyze_source, Finding, Profile, Rule};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Recursively collect the `.rs` files under `root` that the analyzer
/// should see, sorted by path so diagnostics are deterministic.
///
/// Skips `target/` (build output), any `fixtures/` directory (the
/// analyzer's own deliberately-bad test snippets), and non-source
/// trees. The analysis crate's own sources are *included* — the
/// analyzer must hold itself to the same rules.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    if root.is_file() {
        return Ok(vec![root.to_path_buf()]);
    }
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if matches!(name, "target" | "fixtures" | ".git") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Analyze every source file under `root` with the profile derived
/// from its path. Findings come back sorted (file, then line).
pub fn analyze_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in collect_sources(root)? {
        let label = path.to_string_lossy().into_owned();
        let source = fs::read_to_string(&path)?;
        findings.extend(analyze_source(&label, &source, Profile::for_path(&label)));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_classification() {
        assert!(Profile::for_path("crates/workload/src/scenario.rs").harness_source);
        assert!(Profile::for_path("crates/bench/src/bin/figures.rs").harness_source);
        assert!(!Profile::for_path("crates/core/src/query.rs").harness_source);
        assert!(!Profile::for_path("crates/workload/tests/golden_match.rs").harness_source);
        assert!(Profile::for_path("crates/storage/src/cluster.rs").pool_session_guarded);
        assert!(Profile::for_path("crates/join/src/transfer.rs").pool_session_guarded);
        assert!(!Profile::for_path("crates/core/src/query.rs").pool_session_guarded);
        assert!(!Profile::for_path("crates/rtree/src/io.rs").pool_session_guarded);
        assert!(!Profile::for_path("crates/storage/tests/properties.rs").pool_session_guarded);
    }
}
