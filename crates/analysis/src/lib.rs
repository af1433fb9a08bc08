//! `spatialdb-analysis` — a repo-specific invariant analyzer.
//!
//! The workspace's correctness story rests on contracts no compiler
//! checks: byte-identical stats at any thread count, an acyclic
//! shard → disk lock order, no wall clock in simulated time. Two of
//! those contracts have already been broken by real bugs (the
//! HashSet-order placement flap, the flush-under-old-mapping double
//! charge), so this crate machine-checks them: a hand-rolled lexer
//! (no external dependencies — the workspace builds offline) feeds
//! eight line-level rules over every `crates/*/src` file.
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

/// Filter a `git diff --name-only` listing down to the analyzer's
/// inputs: `.rs` files under one of `roots` (any file when `roots` is
/// empty), excluding the same `target/` and `fixtures/` trees
/// [`collect_sources`] skips. Paths come back sorted and deduplicated;
/// existence is **not** checked here (pure function — the CLI drops
/// deleted files before analyzing).
pub fn filter_changed_paths(name_only: &str, roots: &[PathBuf]) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = name_only
        .lines()
        .map(str::trim)
        .filter(|l| l.ends_with(".rs"))
        .filter(|l| {
            !Path::new(l)
                .components()
                .any(|c| matches!(c.as_os_str().to_str(), Some("target" | "fixtures" | ".git")))
        })
        .filter(|l| roots.is_empty() || roots.iter().any(|r| Path::new(l).starts_with(r)))
        .map(PathBuf::from)
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The `.rs` files touched since `rev`, per `git diff --name-only`,
/// restricted to `roots` and to files that still exist (a deletion is
/// nothing to analyze). Errors when `git` itself fails — an unknown
/// revision should stop a pre-commit hook, not silently pass it.
pub fn changed_sources(rev: &str, roots: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    let output = std::process::Command::new("git")
        .args(["diff", "--name-only", rev])
        .output()?;
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "git diff --name-only {rev} failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )));
    }
    let listing = String::from_utf8_lossy(&output.stdout);
    Ok(filter_changed_paths(&listing, roots)
        .into_iter()
        .filter(|p| p.is_file())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changed_path_filtering() {
        let listing = "crates/disk/src/shard.rs\n\
                       crates/analysis/fixtures/bad.rs\n\
                       target/debug/build/foo.rs\n\
                       README.md\n\
                       crates/core/src/executor.rs\n\
                       crates/core/src/executor.rs\n\
                       docs/notes.rs\n";
        let roots = vec![PathBuf::from("crates")];
        let got = filter_changed_paths(listing, &roots);
        assert_eq!(
            got,
            vec![
                PathBuf::from("crates/core/src/executor.rs"),
                PathBuf::from("crates/disk/src/shard.rs"),
            ]
        );
        // No roots: everything .rs outside the skip dirs, docs included.
        let all = filter_changed_paths(listing, &[]);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn profile_classification() {
        let p = Profile::for_path("crates/storage/src/cluster.rs");
        assert!(p.placement_critical);
        assert!(!p.wall_clock_allowed);
        let p = Profile::for_path("crates/bench/src/bin/run.rs");
        assert!(!p.placement_critical);
        assert!(p.wall_clock_allowed);
        let p = Profile::for_path("crates/disk/src/lockdep.rs");
        assert!(p.lock_helper_module);
        let p = Profile::for_path("crates/geom/src/rect.rs");
        assert!(!p.placement_critical);
        assert!(Profile::for_path("crates/join/src/transfer.rs").read_path_guarded);
        assert!(!Profile::for_path("crates/disk/src/shard.rs").read_path_guarded);
        assert!(!Profile::for_path("crates/storage/tests/properties.rs").read_path_guarded);
        assert!(Profile::for_path("crates/workload/src/scenario.rs").harness_source);
        assert!(Profile::for_path("crates/bench/src/bin/figures.rs").harness_source);
        assert!(!Profile::for_path("crates/core/src/query.rs").harness_source);
        assert!(!Profile::for_path("crates/workload/tests/golden_match.rs").harness_source);
    }
}
