//! The eight repo-specific invariant rules.
//!
//! Each rule is a line-level pattern over the lexer's code channel; the
//! rules are deliberately lexical (no type information), so each one is
//! scoped to the places where its pattern is unambiguous and supports an
//! explicit waiver comment for audited sites.

use crate::lexer::{self, Line};
use std::collections::BTreeSet;
use std::fmt;

/// Identifies which invariant a [`Finding`] violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over a `HashMap`/`HashSet` in a placement- or
    /// stats-critical crate without an adjacent sort or waiver.
    HashIter,
    /// `Instant::now`/`SystemTime` outside `crates/bench` — wall clock
    /// must never leak into simulated time.
    WallClock,
    /// Float comparison via `partial_cmp` instead of `total_cmp` in a
    /// sort key.
    FloatSort,
    /// `.lock()`/`.try_lock()` on a raw Mutex outside the approved
    /// acquisition helpers (`lockdep.rs`).
    RawLock,
    /// Nested lock acquisitions whose lexical class order contradicts
    /// the writer → shard → counters → epoch → refine-queue hierarchy.
    LockOrder,
    /// Raw `fetch_add`/`fetch_sub` on an epoch-pin counter outside the
    /// epoch crate — pin accounting must go through the collector's
    /// guard types, or an unpaired update leaks (blocking reclamation)
    /// or frees under a live reader.
    EpochPin,
    /// `charge_raw` / `contains_page` in the storage, join or core
    /// sources: a cluster unit is read, charged and counted in one
    /// place, `ShardedPool::read_extent`, and a store that charges an
    /// analytical cost or decides residency itself forks that read.
    ReadPath,
    /// `local_stats(` or a call of the store's measured wrappers
    /// (`.window_query(`, `.point_query(` and their `_traced` forms) in
    /// the workload or bench sources: the experiment drivers read
    /// through the engine's cursors, so a query is measured once, at
    /// `Query::run`, where the engine measures it.
    MeasureSite,
}

impl Rule {
    /// Stable rule name, used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::FloatSort => "float-sort",
            Rule::RawLock => "raw-lock",
            Rule::LockOrder => "lock-order",
            Rule::EpochPin => "epoch-pin",
            Rule::ReadPath => "read-path",
            Rule::MeasureSite => "measure-site",
        }
    }

    /// The waiver token that suppresses this rule when it appears in a
    /// comment on the flagged line or the line above:
    /// `// lint: <token> — <why this site is safe>`.
    pub fn waiver(self) -> &'static str {
        match self {
            Rule::HashIter => "order-insensitive",
            Rule::WallClock => "wall-clock-audited",
            Rule::FloatSort => "float-order-audited",
            Rule::RawLock => "raw-lock-audited",
            Rule::LockOrder => "lock-order-audited",
            Rule::EpochPin => "epoch-pin-audited",
            Rule::ReadPath => "read-path-audited",
            Rule::MeasureSite => "measure-site-audited",
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
    /// Hash-iteration ordering matters here (disk, storage, rtree — the
    /// crates whose iteration order feeds placement or stats).
    pub placement_critical: bool,
    /// Wall clock is allowed (only `crates/bench`, which measures real
    /// elapsed time around whole runs).
    pub wall_clock_allowed: bool,
    /// This file *is* the approved lock-acquisition helper module, so
    /// raw `.lock()` calls are expected.
    pub lock_helper_module: bool,
    /// This file belongs to the epoch-reclamation crate, whose whole
    /// job is the raw pin accounting everyone else must not touch.
    pub epoch_manager_module: bool,
    /// This file is a source of the storage, join or core crate, which
    /// read cluster units only through the pool's one unit read.
    pub read_path_guarded: bool,
    /// This file is a source of the workload or bench crate, which
    /// query through the engine's cursors and measure nothing
    /// themselves.
    pub harness_source: bool,
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
        let file_name = norm.rsplit('/').next().unwrap_or(&norm);
        let in_src = norm.contains(&format!("crates/{crate_name}/src/"));
        Profile {
            placement_critical: matches!(crate_name.as_str(), "disk" | "storage" | "rtree"),
            wall_clock_allowed: crate_name == "bench",
            lock_helper_module: file_name == "lockdep.rs",
            epoch_manager_module: crate_name == "epoch",
            read_path_guarded: in_src && matches!(crate_name.as_str(), "storage" | "join" | "core"),
            harness_source: in_src && matches!(crate_name.as_str(), "workload" | "bench"),
        }
    }

    /// The strictest profile: every rule armed. Used by the fixture
    /// tests so snippets exercise all rules regardless of location.
    pub fn strict() -> Profile {
        Profile {
            placement_critical: true,
            wall_clock_allowed: false,
            lock_helper_module: false,
            epoch_manager_module: false,
            read_path_guarded: true,
            harness_source: true,
        }
    }
}

/// How many following lines a sorted-collect may trail the flagged hash
/// iteration by and still count as "adjacent". Covers the idiom
/// `let mut v: Vec<_> = map.keys()…collect(); v.sort_unstable();` even
/// when the collect chain wraps over a few lines.
const SORT_ADJACENCY_WINDOW: usize = 6;

/// Analyze one file's source. `file` is only used to label findings.
pub fn analyze_source(file: &str, source: &str, profile: Profile) -> Vec<Finding> {
    let lines = lexer::split_lines(source);
    let in_test = lexer::test_regions(&lines);
    let mut findings = Vec::new();

    if profile.placement_critical {
        check_hash_iter(file, &lines, &in_test, &mut findings);
    }
    if !profile.wall_clock_allowed {
        check_wall_clock(file, &lines, &mut findings);
    }
    check_float_sort(file, &lines, &in_test, &mut findings);
    if !profile.lock_helper_module {
        check_raw_lock(file, &lines, &in_test, &mut findings);
    }
    check_lock_order(file, &lines, &in_test, &mut findings);
    if !profile.epoch_manager_module {
        check_epoch_pin(file, &lines, &in_test, &mut findings);
    }
    if profile.read_path_guarded {
        check_read_path(file, &lines, &mut findings);
    }
    if profile.harness_source {
        check_measure_site(file, &lines, &mut findings);
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
// Rule 1: hash-iter
// ---------------------------------------------------------------------

/// Methods whose results depend on `HashMap`/`HashSet` iteration order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain()",
];

fn check_hash_iter(file: &str, lines: &[Line], in_test: &[bool], findings: &mut Vec<Finding>) {
    // Pass 1: register identifiers with a hash-typed declaration.
    // `self_names` are struct fields / struct-literal inits (matched as
    // `self.NAME`); `local_names` are `let`-bound (matched bare). The
    // registry is per-file, which is exactly the scope a lexical pass
    // can be sound about.
    let mut self_names: BTreeSet<String> = BTreeSet::new();
    let mut local_names: BTreeSet<String> = BTreeSet::new();
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let code = line.code.as_str();
        for ty in ["HashMap", "HashSet"] {
            // `NAME: HashMap<…>` (field/param decl or struct-literal init)
            // and `let NAME = HashMap::new()` / `…::with_capacity` /
            // `collect::<HashMap<…>>`.
            for (pos, _) in code.match_indices(ty) {
                let before = &code[..pos];
                if before.ends_with("::") && !before.ends_with("collections::") {
                    continue; // turbofish / assoc-fn tail, not a declaration
                }
                let decl = decl_name_before(before.trim_end_matches("collections::"));
                if let Some(name) = decl {
                    if line_declares_local(code, &name) {
                        // `let m: HashMap<…> = …` — a local binding.
                        local_names.insert(name);
                    } else {
                        self_names.insert(name);
                    }
                } else if let Some(name) = let_binding_name(code) {
                    // `let NAME = HashMap::new()` / turbofish collect.
                    local_names.insert(name);
                }
            }
        }
    }

    // Pass 2: flag iteration over a registered name.
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let code = line.code.as_str();
        let mut hit: Option<String> = None;
        for name in &self_names {
            let expr = format!("self.{name}");
            if uses_iteration(code, &expr) {
                hit = Some(expr);
                break;
            }
        }
        if hit.is_none() {
            for name in &local_names {
                if uses_iteration(code, name) {
                    hit = Some(name.clone());
                    break;
                }
            }
        }
        let Some(expr) = hit else { continue };
        if waived(lines, i, Rule::HashIter) {
            continue;
        }
        // Adjacent sorted-collect: a `.sort…` in the next few lines
        // means the arbitrary order is normalized before use.
        let window_end = (i + 1 + SORT_ADJACENCY_WINDOW).min(lines.len());
        let sorted_downstream = lines[i..window_end].iter().any(|l| {
            l.code.contains(".sort")
                || l.code.contains("BTreeMap::from")
                || l.code.contains("BTreeSet::from")
        });
        if sorted_downstream {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line: i + 1,
            rule: Rule::HashIter,
            message: format!(
                "iteration over hash collection `{expr}` without adjacent sort; \
                 order feeds placement/stats — sort the items or waive with \
                 `// lint: order-insensitive — <why>`"
            ),
        });
    }
}

/// Whether `code` iterates `expr` (method call or `for … in` loop).
fn uses_iteration(code: &str, expr: &str) -> bool {
    for m in ITER_METHODS {
        let pat = format!("{expr}{m}");
        for (pos, _) in code.match_indices(&pat) {
            if !ident_boundary_before(code, pos) {
                continue; // e.g. `other_self.sizes.iter()` for expr `self.sizes`
            }
            return true;
        }
    }
    // `for x in &expr {` / `for x in expr {` — the loop subject must be
    // exactly the expression (modulo `&`/`&mut`).
    if let Some(for_pos) = find_for(code) {
        if let Some(in_rel) = code[for_pos..].find(" in ") {
            let rest = &code[for_pos + in_rel + 4..];
            let subject = rest.split('{').next().unwrap_or(rest).trim();
            let subject = subject
                .trim_start_matches('&')
                .trim_start_matches("mut ")
                .trim();
            if subject == expr {
                return true;
            }
        }
    }
    false
}

/// Start of a `for ` keyword on this line, if any (` for ` with a
/// boundary, so `vec_for` or a `form(` call cannot match).
fn find_for(code: &str) -> Option<usize> {
    if code.trim_start().starts_with("for ") {
        return Some(code.len() - code.trim_start().len());
    }
    code.find(" for ").map(|p| p + 1)
}

/// True if the char before `pos` cannot extend an identifier/path (so
/// `self.sizes` at `pos` is not the tail of `not_self.sizes`).
fn ident_boundary_before(code: &str, pos: usize) -> bool {
    match code[..pos].chars().last() {
        None => true,
        Some(c) => !(c.is_alphanumeric() || c == '_' || c == '.'),
    }
}

/// Given the text before a `HashMap`/`HashSet` token, extract a
/// declaration name from a trailing `NAME: ` / `NAME: &` / `NAME: &mut `
/// pattern (struct field, fn parameter, or struct-literal init).
fn decl_name_before(before: &str) -> Option<String> {
    let t = before.trim_end();
    let t = t.strip_suffix('&').unwrap_or(t).trim_end();
    let t = t.strip_suffix("&mut").unwrap_or(t).trim_end();
    let t = t.strip_suffix(':')?.trim_end();
    let name: String = t
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_numeric()) {
        None
    } else {
        Some(name)
    }
}

/// `let NAME = …` binding name on this line, if any.
fn let_binding_name(code: &str) -> Option<String> {
    let pos = code.find("let ")?;
    let rest = code[pos + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Whether this line `let`-binds `name` (as opposed to declaring a field
/// or parameter of the same name).
fn line_declares_local(code: &str, name: &str) -> bool {
    let_binding_name(code).as_deref() == Some(name)
}

// ---------------------------------------------------------------------
// Rule 2: wall-clock
// ---------------------------------------------------------------------

fn check_wall_clock(file: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let hit = if code.contains("Instant::now") {
            Some("Instant::now")
        } else if code.contains("SystemTime") {
            Some("SystemTime")
        } else {
            None
        };
        let Some(what) = hit else { continue };
        if waived(lines, i, Rule::WallClock) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line: i + 1,
            rule: Rule::WallClock,
            message: format!(
                "`{what}` outside crates/bench — wall clock must never leak \
                 into simulated time (model time is `IoStats::total_ms`)"
            ),
        });
    }
}

// ---------------------------------------------------------------------
// Rule 3: float-sort
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
// Rules 4 + 5: raw-lock and lock-order
// ---------------------------------------------------------------------

/// The declared lock hierarchy, outermost first. A lexical acquisition
/// is classified by substring-matching the receiver expression; lower
/// rank must be taken before higher rank.
const LOCK_CLASSES: &[(&str, u8, &str)] = &[
    ("writer", 0, "DbWriter"),
    ("shard", 1, "Shard"),
    ("pool", 1, "Shard"),
    ("state", 2, "DiskCounters"),
    ("counter", 2, "DiskCounters"),
    ("retired", 3, "Epoch"),
    ("epoch", 3, "Epoch"),
    ("queue", 4, "RefineQueue"),
];

/// Classify a lock receiver expression (the text before `.lock()`).
fn classify_receiver(recv: &str) -> Option<(u8, &'static str)> {
    let lower = recv.to_lowercase();
    LOCK_CLASSES
        .iter()
        .find(|(needle, _, _)| lower.contains(needle))
        .map(|&(_, rank, name)| (rank, name))
}

/// Extract the receiver expression ending right before byte `pos`.
fn receiver_before(code: &str, pos: usize) -> String {
    let bytes = code.as_bytes();
    let mut start = pos;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_alphanumeric() || matches!(c, '_' | '.' | '[' | ']' | ':') {
            start -= 1;
        } else {
            break;
        }
    }
    code[start..pos].to_string()
}

/// One lexical lock acquisition inside a fn body. Non-blocking
/// (`try_*`) acquisitions are recorded here too — holding a try-taken
/// lock while *blocking* on a lower-rank one is still an ordering bug —
/// but are themselves exempt from the hierarchy check, since a try
/// acquisition can never wait and therefore never closes a cycle.
struct Acq {
    line: usize,
    rank: u8,
    class: &'static str,
}

fn check_raw_lock(file: &str, lines: &[Line], in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let code = line.code.as_str();
        let hit = ["try_lock()", ".lock()"]
            .iter()
            .find(|pat| code.contains(*pat));
        let Some(pat) = hit else { continue };
        if waived(lines, i, Rule::RawLock) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line: i + 1,
            rule: Rule::RawLock,
            message: format!(
                "raw `{pat}` outside the lockdep acquisition helpers — use \
                 `DepMutex::acquire`/`try_acquire` so the shard→disk hierarchy \
                 is checked in debug builds"
            ),
        });
    }
}

fn check_lock_order(file: &str, lines: &[Line], in_test: &[bool], findings: &mut Vec<Finding>) {
    // Per-fn scan: the list of classified acquisitions so far in the
    // current fn; a later acquisition with a *lower* rank than one
    // already taken contradicts the declared hierarchy.
    let mut acqs: Vec<Acq> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let code = line.code.as_str();
        if code.contains("fn ") && code.contains('(') {
            acqs.clear();
        }
        for pat in ["try_lock()", "try_acquire()", ".lock()", ".acquire()"] {
            for (pos, _) in code.match_indices(pat) {
                // `.lock()` also matches inside `try_lock()`; skip the
                // overlapping hit so each call is classified once.
                if matches!(pat, ".lock()" | ".acquire()") && code[..pos].ends_with("try_") {
                    continue;
                }
                let recv_end = if pat.starts_with('.') {
                    pos
                } else {
                    pos.saturating_sub(1)
                };
                let recv = receiver_before(code, recv_end);
                let Some((rank, class)) = classify_receiver(&recv) else {
                    continue;
                };
                let non_blocking = pat.starts_with("try");
                if !non_blocking && !waived(lines, i, Rule::LockOrder) {
                    if let Some(prior) = acqs.iter().find(|a| a.rank > rank) {
                        findings.push(Finding {
                            file: file.to_string(),
                            line: i + 1,
                            rule: Rule::LockOrder,
                            message: format!(
                                "acquires {class} (rank {rank}) after {} (rank {}, line {}) — \
                                 contradicts the DbWriter → Shard → DiskCounters → Epoch \
                                 → RefineQueue hierarchy",
                                prior.class, prior.rank, prior.line
                            ),
                        });
                    }
                }
                acqs.push(Acq {
                    line: i + 1,
                    rank,
                    class,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 6: epoch-pin
// ---------------------------------------------------------------------

/// Receiver fragments that identify epoch-pin accounting state.
const PIN_RECEIVERS: &[&str] = &["pin", "epoch"];

fn check_epoch_pin(file: &str, lines: &[Line], in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let code = line.code.as_str();
        for pat in [".fetch_add(", ".fetch_sub("] {
            let Some(pos) = code.find(pat) else { continue };
            let recv = receiver_before(code, pos).to_lowercase();
            if !PIN_RECEIVERS.iter().any(|n| recv.contains(n)) {
                continue;
            }
            if waived(lines, i, Rule::EpochPin) {
                continue;
            }
            findings.push(Finding {
                file: file.to_string(),
                line: i + 1,
                rule: Rule::EpochPin,
                message: format!(
                    "raw `{}` on epoch-pin state `{recv}` outside crates/epoch — \
                     pin counts must move through the collector's RAII guards; an \
                     unpaired update either leaks a pin (reclamation stalls forever) \
                     or drops one early (a snapshot frees under a live reader)",
                    pat.trim_start_matches('.').trim_end_matches('('),
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 7: read-path
// ---------------------------------------------------------------------

/// Pool and disk entry points only the pool's unit read may call.
const READ_PATH_FORKS: &[&str] = &["charge_raw", "contains_page"];

fn check_read_path(file: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        let Some(what) = READ_PATH_FORKS
            .iter()
            .find(|name| line.code.contains(*name))
        else {
            continue;
        };
        if waived(lines, i, Rule::ReadPath) {
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line: i + 1,
            rule: Rule::ReadPath,
            message: format!(
                "`{what}` outside the pool — a cluster unit is read, charged and \
                 counted in one place, `ShardedPool::read_extent`; a store that \
                 charges an analytical cost or probes residency itself forks it"
            ),
        });
    }
}

// ---------------------------------------------------------------------
// Rule 8: measure-site
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
