//! Fixture suite: each deliberately-bad snippet under `tests/fixtures/`
//! must trip exactly the rule it was written for, at the marked lines —
//! and the real workspace must come back clean.
//!
//! Markers inside a fixture: `// BAD` lines must be flagged by the
//! fixture's rule, `// OK` lines must not. Other rules may fire
//! elsewhere in a fixture; only the fixture's own rule is asserted
//! line-by-line.

use spatialdb_analysis::{analyze_source, analyze_tree, Profile, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// 1-based line numbers of lines containing `marker`.
fn marker_lines(source: &str, marker: &str) -> Vec<usize> {
    source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(marker))
        .map(|(i, _)| i + 1)
        .collect()
}

fn assert_rule_fires(name: &str, rule: Rule) {
    let path = fixture_path(name);
    let source = std::fs::read_to_string(&path).unwrap();
    let file = path.to_string_lossy().into_owned();
    let findings = analyze_source(&file, &source, Profile::strict());

    let bad = marker_lines(&source, "// BAD");
    assert!(!bad.is_empty(), "{name}: fixture has no `// BAD` markers");
    for line in &bad {
        assert!(
            findings.iter().any(|f| f.rule == rule && f.line == *line),
            "{name}:{line}: expected [{rule:?}] to fire; findings: {findings:#?}"
        );
    }
    for line in marker_lines(&source, "// OK") {
        assert!(
            !findings.iter().any(|f| f.rule == rule && f.line == line),
            "{name}:{line}: [{rule:?}] fired on an `// OK` line; findings: {findings:#?}"
        );
    }
    // Every finding of this rule sits on a marked line — no strays.
    for f in findings.iter().filter(|f| f.rule == rule) {
        assert!(
            bad.contains(&f.line),
            "{name}:{}: stray [{rule:?}] on an unmarked line: {f}",
            f.line
        );
    }
}

#[test]
fn float_sort_fixture() {
    assert_rule_fires("float_sort.rs", Rule::FloatSort);
}

#[test]
fn measure_site_fixture() {
    assert_rule_fires("measure_site.rs", Rule::MeasureSite);
}

#[test]
fn pool_session_fixture() {
    assert_rule_fires("pool_session.rs", Rule::PoolSession);
}

/// The CLI must exit 1 (findings) on the fixture tree and name every
/// rule in its diagnostics.
#[test]
fn cli_exits_nonzero_on_fixtures() {
    let out = Command::new(env!("CARGO_BIN_EXE_spatialdb-analysis"))
        .arg(fixture_path(""))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    for rule in ["float-sort", "measure-site", "pool-session"] {
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "missing [{rule}] in CLI output: {stdout}"
        );
    }
}

/// Each fixture on its own is enough to fail the run.
#[test]
fn cli_exits_nonzero_on_each_fixture() {
    for name in ["float_sort.rs", "measure_site.rs", "pool_session.rs"] {
        let out = Command::new(env!("CARGO_BIN_EXE_spatialdb-analysis"))
            .arg(fixture_path(name))
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: expected exit 1; stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// The real workspace, analyzed exactly as CI runs it, is clean.
#[test]
fn workspace_is_clean() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let findings = analyze_tree(&repo.join("crates")).unwrap();
    assert!(
        findings.is_empty(),
        "workspace has unaudited findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
