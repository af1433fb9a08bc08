//! The three repo-specific invariant rules the compiler cannot check.
//!
//! Each rule is a line-level pattern over the lexer's code channel; the
//! rules are deliberately lexical (no type information), so each one is
//! scoped to the places where its pattern is unambiguous and supports an
//! explicit waiver comment for audited sites.

use crate::lexer::{self, Line};
use std::fmt;

/// Identifies which invariant a [`Finding`] violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Float comparison via `partial_cmp` instead of `total_cmp` in a
    /// sort key.
    FloatSort,
    /// `local_stats(` or a call of the store's measured wrappers
    /// (`.window_query(`, `.point_query(` and their `_traced` forms) in
    /// the workload or bench sources: the experiment drivers read
    /// through the engine's cursors, so a query is measured once, at
    /// `Query::run`, where the engine measures it.
    MeasureSite,
    /// A page access on the pool itself (`pool.read_run(`,
    /// `pool.touch_if_resident(`, `pool.update_page(`, …) or the pool
    /// passed to the R\*-tree as its `NodeIo` (`pool.as_ref()`) in the
    /// storage or join sources: a query, a join phase or a tree update
    /// reads through one `PoolSession`, which locks the pool and charges
    /// the disk once — a one-shot call pays both per page, and inside an
    /// open session it waits on the session's own lock.
    PoolSession,
}

impl Rule {
    /// Stable rule name, used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatSort => "float-sort",
            Rule::MeasureSite => "measure-site",
            Rule::PoolSession => "pool-session",
        }
    }

    /// The waiver token that suppresses this rule when it appears in a
    /// comment on the flagged line or the line above:
    /// `// lint: <token> — <why this site is safe>`.
    pub fn waiver(self) -> &'static str {
        match self {
            Rule::FloatSort => "float-order-audited",
            Rule::MeasureSite => "measure-site-audited",
            Rule::PoolSession => "pool-session-audited",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which rules apply to a file, derived from its crate.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// This file is a source of the workload or bench crate, which
    /// query through the engine's cursors and measure nothing
    /// themselves.
    pub harness_source: bool,
    /// This file is a source of the storage or join crate, whose page
    /// accesses go through a pool session.
    pub pool_session_guarded: bool,
}

impl Profile {
    /// Derive the profile from a path (`…/crates/<name>/src/<file>.rs`).
    pub fn for_path(path: &str) -> Profile {
        let norm = path.replace('\\', "/");
        // Fixture snippets are deliberately bad; when the analyzer is
        // pointed at them explicitly, every rule is armed.
        if norm.split('/').any(|c| c == "fixtures") {
            return Profile::strict();
        }
        let crate_name = norm
            .split('/')
            .collect::<Vec<_>>()
            .windows(2)
            .find(|w| w[0] == "crates")
            .map(|w| w[1].to_string())
            .unwrap_or_default();
        let in_src = norm.contains(&format!("crates/{crate_name}/src/"));
        Profile {
            harness_source: in_src && matches!(crate_name.as_str(), "workload" | "bench"),
            pool_session_guarded: in_src && matches!(crate_name.as_str(), "storage" | "join"),
        }
    }

    /// The strictest profile: every rule armed. Used by the fixture
    /// tests so snippets exercise all rules regardless of location.
    pub fn strict() -> Profile {
        Profile {
            harness_source: true,
            pool_session_guarded: true,
        }
    }
}

/// Analyze one file's source. `file` is only used to label findings.
pub fn analyze_source(file: &str, source: &str, profile: Profile) -> Vec<Finding> {
    let lines = lexer::split_lines(source);
    let in_test = lexer::test_regions(&lines);
    let mut findings = Vec::new();

    check_float_sort(file, &lines, &in_test, &mut findings);
    if profile.harness_source {
        check_measure_site(file, &lines, &mut findings);
    }
    if profile.pool_session_guarded {
        check_pool_session(file, &lines, &in_test, &mut findings);
    }

    findings
}

/// Whether the finding on `idx` (0-based) is waived by a
/// `lint: <token>` comment on the same line or in the contiguous
/// comment block immediately above it.
fn waived(lines: &[Line], idx: usize, rule: Rule) -> bool {
    let token = rule.waiver();
    let has = |l: &Line| {
        l.comment
            .split("lint:")
            .skip(1)
            .any(|rest| rest.trim_start().starts_with(token))
    };
    if has(&lines[idx]) {
        return true;
    }
    // Walk up through comment-only lines (a waiver explaining *why* the
    // site is safe is usually longer than one line).
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let above = &lines[j];
        if !above.code.trim().is_empty() || above.comment.is_empty() {
            break;
        }
        if has(above) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Rule 1: float-sort
// ---------------------------------------------------------------------

fn check_float_sort(file: &str, lines: &[Line], in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if !line.code.contains(".partial_cmp(") {
            continue;
        }
        if waived(lines, i, Rule::FloatSort) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line: i + 1,
            rule: Rule::FloatSort,
            message: "`partial_cmp` as a comparison key — use `total_cmp` so a NaN \
                      cannot silently reorder (or panic out of) a sort"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------
// Rule 2: measure-site
// ---------------------------------------------------------------------

/// Calls that measure a query outside the engine's cursors: a tally
/// delta, or the store's measured wrappers.
const MEASURE_SITES: &[&str] = &[
    "local_stats(",
    ".window_query(",
    ".point_query(",
    ".window_query_traced(",
    ".point_query_traced(",
];

fn check_measure_site(file: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        let Some(what) = MEASURE_SITES.iter().find(|call| line.code.contains(*call)) else {
            continue;
        };
        if waived(lines, i, Rule::MeasureSite) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line: i + 1,
            rule: Rule::MeasureSite,
            message: format!(
                "`{}` in an experiment driver — the harness reads through the \
                 engine's cursors (`db.query()…run()`, `db.join(..)…run()`), so a \
                 query is measured once, at `Query::run`",
                what.trim_end_matches('(')
            ),
        });
    }
}

// ---------------------------------------------------------------------
// Rule 3: pool-session
// ---------------------------------------------------------------------

/// The page accesses of a `PoolSession`, and `as_ref` (the pool handed
/// to the tree as its `NodeIo`); on the pool they bypass the session.
const SESSION_ACCESSES: &[&str] = &[
    "read_page",
    "read_run",
    "read_runs",
    "read_extent",
    "touch_if_resident",
    "update_page",
    "write_page",
    "remove_page",
    "as_ref",
];

/// The receiver of the method call whose `.` is at byte `dot`: the path,
/// call and index expression ending there, or — when the line starts
/// with the `.` of a wrapped chain — the previous code line.
fn call_receiver(lines: &[Line], idx: usize, dot: usize) -> String {
    let code = lines[idx].code.as_str();
    let bytes = code.as_bytes();
    let mut start = dot;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_alphanumeric() || matches!(c, '_' | '.' | '(' | ')' | '[' | ']' | '*' | '&') {
            start -= 1;
        } else {
            break;
        }
    }
    if !code[..dot].trim().is_empty() {
        return code[start..dot].to_string();
    }
    lines[..idx]
        .iter()
        .rev()
        .map(|l| l.code.trim())
        .find(|c| !c.is_empty())
        .unwrap_or_default()
        .to_string()
}

fn check_pool_session(file: &str, lines: &[Line], in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let code = line.code.as_str();
        let hit = SESSION_ACCESSES.iter().find(|name| {
            code.match_indices(&format!(".{name}(")).any(|(dot, _)| {
                let receiver = call_receiver(lines, i, dot).to_lowercase();
                receiver.contains("pool") && !receiver.contains("session")
            })
        });
        let Some(name) = hit else { continue };
        if waived(lines, i, Rule::PoolSession) {
            continue;
        }
        let what = if *name == "as_ref" {
            "the pool as the tree's `NodeIo`".to_string()
        } else {
            format!("`{name}` on the pool")
        };
        findings.push(Finding {
            file: file.to_string(),
            line: i + 1,
            rule: Rule::PoolSession,
            message: format!(
                "{what} — a query, join phase or tree update accesses pages through \
                 one `PoolSession` (`pool.session()`), which locks the pool and charges \
                 the disk once; a one-shot access pays both per page and waits on \
                 its own lock inside an open session"
            ),
        });
    }
}
