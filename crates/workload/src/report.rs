//! What the harness reports: a scenario run's replay cells and mix rows
//! (two [`Figure`]s), conservation records and chainable assertions
//! ([`ScenarioReport`]), and the aligned text [`Table`] every figure
//! renders through.
//!
//! A [`ScenarioReport`] is pure data — every field is derived from the
//! simulated clock and the deterministic filter pass, so the same
//! scenario at any thread count renders the same report byte for byte
//! ([`ScenarioReport::to_json`] is the determinism contract's witness,
//! and the one format every checked-in scenario report is written in).

use crate::figures::{json_string, Figure};
use spatialdb::disk::IoStats;
use spatialdb::storage::OrganizationKind;
use spatialdb::{ArmPolicy, StripePolicy};
use std::fmt::Write as _;
use std::path::Path;

/// Human label of an organization, as used in the benchmark JSON.
pub fn org_label(kind: OrganizationKind) -> &'static str {
    match kind {
        OrganizationKind::Secondary => "secondary",
        OrganizationKind::Primary => "primary",
        OrganizationKind::Cluster => "cluster",
    }
}

/// Human label of an arm scheduling policy, as used in the benchmark
/// JSON.
pub fn policy_label(policy: ArmPolicy) -> &'static str {
    match policy {
        ArmPolicy::Fcfs => "fcfs",
        ArmPolicy::Elevator => "elevator",
    }
}

/// Human label of a stripe policy, as used in the benchmark JSON.
pub(crate) fn stripe_label(stripe: StripePolicy) -> &'static str {
    match stripe {
        StripePolicy::RoundRobin => "round_robin",
        StripePolicy::RegionHash => "region_hash",
        StripePolicy::MbrLocality => "mbr_locality",
    }
}

/// An accounting cross-check recorded around one phase of the run:
/// the workspace disk's global counter delta must equal the sum of the
/// per-query deltas attributed to individual operations.
#[derive(Clone, Copy, Debug)]
pub struct Conservation {
    /// Sum of the per-operation [`IoStats`] deltas.
    pub attributed: IoStats,
    /// The workspace disk's global delta over the same span.
    pub global: IoStats,
}

impl Conservation {
    /// `true` when every integer counter matches exactly and the
    /// accumulated `io_ms` agrees within floating-point tolerance.
    pub fn holds(&self) -> bool {
        let a = &self.attributed;
        let g = &self.global;
        a.read_requests == g.read_requests
            && a.pages_read == g.pages_read
            && a.write_requests == g.write_requests
            && a.pages_written == g.pages_written
            && a.seeks == g.seeks
            && a.latencies == g.latencies
            && (a.io_ms - g.io_ms).abs() <= 1e-6 * g.io_ms.abs().max(1.0)
    }
}

/// Everything a scenario run produced. Render with
/// [`to_json`](ScenarioReport::to_json), cut and gate its figures
/// ([`Figure::at`], [`Figure::down`]), or gate it with the chainable
/// `assert_*` methods.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Total objects loaded (across all databases).
    pub objects: u64,
    /// Window queries per sweep cell.
    pub queries: usize,
    /// Databases sharing the workspace.
    pub databases: usize,
    /// The replay grid, one row per cell in grid order (organizations
    /// outermost, then stripes, depths, policies, arms innermost), keyed
    /// by `org`, `stripe`, `policy`, `depth` and `arms`. Open arrivals
    /// add `inter_arrival_ms`, closed and burst ones `makespan_ms` and
    /// `iops`.
    pub cells: Figure,
    /// Mixed-stream outcomes, one row per organization keyed by `org`
    /// (no rows when the scenario declared no mix).
    pub mix: Figure,
    /// The accounting cross-check of each phase, named: every cell, then
    /// every mixed stream.
    pub conservation: Vec<(String, Conservation)>,
}

impl ScenarioReport {
    /// Deterministic JSON rendering: fixed field order, fixed float
    /// precision, no timestamps — the same scenario and seed yield the
    /// same string at any thread count. One cell per line, each led by
    /// its grid point (`org`, `stripe`, `policy`, `depth`, `arms`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"scenario\": {},\n  \"objects\": {},\n  \"queries\": {},\n  \
             \"databases\": {},\n  \"cells\": [\n    ",
            json_string(&self.name),
            self.objects,
            self.queries,
            self.databases
        );
        let cells: Vec<String> = self.cells.json_rows().collect();
        out.push_str(&cells.join(",\n    "));
        out.push_str("\n  ]");
        let mix: Vec<String> = self.mix.json_rows().collect();
        if !mix.is_empty() {
            out.push_str(",\n  \"mix\": [\n    ");
            out.push_str(&mix.join(",\n    "));
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Assert every cell's p99 latency is below `ms`. Chainable.
    ///
    /// # Panics
    ///
    /// Panics naming the scenario and the first offending cell.
    pub fn assert_p99_under_ms(&self, ms: f64) -> &Self {
        let p99 = self.cells.down("p99_ms", &[]);
        for key in self.cells.row_keys() {
            let cell = key.join(" / ");
            let v = p99.get(&cell);
            assert!(v < ms, "{p99}: {cell} {v} !< {ms} ms");
        }
        self
    }

    /// Assert the accounting identity held for every phase that
    /// recorded one: the workspace's global I/O counter delta equals
    /// the sum of the per-operation deltas (integer counters exactly,
    /// `io_ms` within floating-point tolerance). Chainable.
    ///
    /// # Panics
    ///
    /// Panics naming the first phase whose books don't balance.
    pub fn assert_stats_conserved(&self) -> &Self {
        for (phase, c) in &self.conservation {
            assert!(
                c.holds(),
                "scenario '{}': {phase} leaks I/O accounting \
                 (attributed {:?} vs global {:?})",
                self.name,
                c.attributed,
                c.global,
            );
        }
        self
    }

    /// Assert every cell of this report reproduces its row in a
    /// checked-in report **byte for byte**: each row of
    /// [`cells`](ScenarioReport::cells) rendered as JSON must be a line
    /// of the file (indentation and trailing comma stripped). A scenario
    /// sweeping a subset of the file's grid therefore still verifies
    /// exactly. Chainable.
    ///
    /// # Panics
    ///
    /// Panics when the file is missing, names the grid point of a cell
    /// no line of the file starts with, and shows both rows of a cell
    /// whose metrics differ.
    pub fn assert_matches_golden(&self, path: impl AsRef<Path>) -> &Self {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("golden {}: {e}", path.display()));
        let lines: Vec<&str> = text
            .lines()
            .map(|line| line.trim().trim_end_matches(','))
            .collect();
        for (key, row) in self.cells.row_keys().zip(self.cells.json_rows()) {
            if lines.contains(&row.as_str()) {
                continue;
            }
            // The row's leading fields, through the last key cell's comma
            // (no key cell of a grid point holds ", ").
            let prefix: String = row.split_inclusive(", ").take(key.len()).collect();
            let prefix = prefix.trim_end();
            let golden = lines
                .iter()
                .find(|line| line.starts_with(prefix))
                .unwrap_or_else(|| {
                    panic!(
                        "golden {}: no row for cell {prefix} (scenario '{}')",
                        path.display(),
                        self.name
                    )
                });
            panic!(
                "scenario '{}' diverges from golden {}:\n  golden:  {golden}\n  harness: {row}",
                self.name,
                path.display(),
            );
        }
        self
    }
}

/// A simple text table with right-aligned numeric columns.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                let cell = &cells[i];
                // First column left-aligned (labels), others right-aligned.
                if i == 0 {
                    let _ = write!(line, " {cell:<width$} ", width = widths[i]);
                } else {
                    let _ = write!(line, " {cell:>width$} ", width = widths[i]);
                }
                if i + 1 < cols {
                    line.push('|');
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a float with `digits` decimal places.
pub fn f(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// Nearest-rank quantile of an **ascending-sorted** slice
/// (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty distribution");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Format a ratio as `x.x×`.
pub fn speedup(base: f64, improved: f64) -> String {
    if improved <= 0.0 {
        "—".to_string()
    } else {
        format!("{:.1}x", base / improved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1.0"]);
        t.row(vec!["b", "123.45"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].contains("alpha"));
        // All lines equal length.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(speedup(10.0, 2.0), "5.0x");
        assert_eq!(speedup(10.0, 0.0), "—");
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.95), 10.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[42.0], 0.99), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_rejects_empty() {
        quantile(&[], 0.5);
    }

    const IO_LATENCY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_io_latency.json");

    /// A one-cell report at `depth` on the io_latency grid's first
    /// point, its p50 zero.
    fn zero_cell_at_depth(depth: usize) -> ScenarioReport {
        let keys = ["org", "stripe", "policy", "depth", "arms"];
        let cells = Figure::new("zero", "zero", &keys)
            .column("p50_ms", "", 3)
            .row(
                &["secondary", "round_robin", "fcfs", &depth.to_string(), "1"],
                &[0.0],
            );
        ScenarioReport {
            name: "zero".into(),
            objects: 0,
            queries: 1,
            databases: 1,
            cells,
            mix: Figure::new("zero", "zero", &["org"]),
            conservation: Vec::new(),
        }
    }

    #[test]
    fn a_quoted_name_renders_escaped() {
        let report = ScenarioReport {
            name: "a \"b\" \\ \n".into(),
            ..zero_cell_at_depth(1)
        };
        let json = report.to_json();
        let line = json.lines().nth(1).expect("the name's line");
        assert_eq!(line, r#"  "scenario": "a \"b\" \\ \u000a","#);
    }

    #[test]
    #[should_panic(
        expected = "golden:  {\"org\": \"secondary\", \"stripe\": \"round_robin\", \
                               \"policy\": \"fcfs\", \"depth\": 1, \"arms\": 1, \
                               \"inter_arrival_ms\": 24.8889, "
    )]
    fn a_moved_metric_shows_the_golden_row_with_its_key() {
        zero_cell_at_depth(1).assert_matches_golden(IO_LATENCY);
    }

    #[test]
    #[should_panic(expected = "no row for cell {\"org\": \"secondary\", \
                               \"stripe\": \"round_robin\", \"policy\": \"fcfs\", \"depth\": 3, \
                               \"arms\": 1,")]
    fn a_cell_off_the_golden_grid_names_its_key() {
        zero_cell_at_depth(3).assert_matches_golden(IO_LATENCY);
    }
}
