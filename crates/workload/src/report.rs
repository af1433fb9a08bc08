//! What the harness reports: a scenario run's per-cell metrics,
//! conservation records and chainable assertions ([`ScenarioReport`]),
//! and the aligned text [`Table`] the paper's figures render through.
//!
//! A [`ScenarioReport`] is pure data — every field is derived from the
//! simulated clock and the deterministic filter pass, so the same
//! scenario at any thread count renders the same report byte for byte
//! ([`ScenarioReport::to_json`] is the determinism contract's witness,
//! and the one format every checked-in scenario report is written in).

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
fn stripe_label(stripe: StripePolicy) -> &'static str {
    match stripe {
        StripePolicy::RoundRobin => "round_robin",
        StripePolicy::RegionHash => "region_hash",
        StripePolicy::MbrLocality => "mbr_locality",
    }
}

/// One cell of a scenario's sweep grid: one `(organization, depth,
/// policy, arms, stripe)` point, with the latency and throughput
/// metrics of its replay.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Storage organization the databases were built with.
    pub org: OrganizationKind,
    /// Outstanding-request window of the replay.
    pub depth: usize,
    /// Arm scheduling policy.
    pub policy: ArmPolicy,
    /// Number of disk arms the replay declustered across.
    pub arms: usize,
    /// Region → arm stripe policy.
    pub stripe: StripePolicy,
    /// End-to-end per-query latency distribution.
    pub latency: LatencySummary,
    /// Completion time of the last query (simulated ms).
    pub makespan_ms: f64,
    /// Total arm service time across all queries (simulated ms).
    pub service_ms: f64,
    /// Total disk requests replayed.
    pub requests: u64,
    /// Arms that serviced at least one request.
    pub busy_arms: usize,
    /// Highest per-arm utilization.
    pub max_util: f64,
    /// Aggregate throughput: requests / makespan, per second.
    pub iops: f64,
    /// Open-arrival spacing the replay used (0 for closed bursts).
    pub inter_arrival_ms: f64,
}

/// The grid point a cell's row leads with — its key.
fn cell_key(c: &Cell) -> String {
    format!(
        "    {{\"org\": \"{}\", \"stripe\": \"{}\", \"policy\": \"{}\", \"depth\": {}, \
         \"arms\": {}, ",
        org_label(c.org),
        stripe_label(c.stripe),
        policy_label(c.policy),
        c.depth,
        c.arms,
    )
}

/// A cell's row of [`ScenarioReport::to_json`]: its key, then its
/// metrics at fixed precision.
fn cell_row(c: &Cell) -> String {
    format!(
        "{}\"inter_arrival_ms\": {:.4}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
         \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \"makespan_ms\": {:.3}, \"service_ms\": {:.3}, \
         \"iops\": {:.2}, \"busy_arms\": {}, \"max_util\": {:.3}, \"requests\": {}}}",
        cell_key(c),
        c.inter_arrival_ms,
        c.latency.p50,
        c.latency.p95,
        c.latency.p99,
        c.latency.mean,
        c.makespan_ms,
        c.service_ms,
        c.iops,
        c.busy_arms,
        c.max_util,
        c.requests,
    )
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

/// Outcome of one organization's mixed-operation stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct MixOutcome {
    /// Storage organization the stream ran against.
    pub org: Option<OrganizationKind>,
    /// Window queries executed.
    pub windows: usize,
    /// Point queries executed.
    pub points: usize,
    /// Spatial joins executed.
    pub joins: usize,
    /// Inserts executed.
    pub inserts: usize,
    /// Deletes executed (including deliberate misses on an empty
    /// live-id set).
    pub deletes: usize,
    /// Total exact answers across all queries of the stream.
    pub results: u64,
    /// Sum of the per-operation I/O deltas.
    pub io: IoStats,
}

/// Everything a scenario run produced. Render with
/// [`to_json`](ScenarioReport::to_json), interrogate with
/// [`cells`](ScenarioReport::cells), or gate with the chainable
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
    /// Sweep cells in grid order.
    pub cells: Vec<Cell>,
    /// Per-cell accounting cross-checks, parallel to `cells`.
    pub conservation: Vec<Conservation>,
    /// Mixed-stream outcomes, one per organization (empty when the
    /// scenario declared no mix).
    pub mixes: Vec<MixOutcome>,
    /// Accounting cross-checks of the mixed streams, parallel to
    /// `mixes`.
    pub mix_conservation: Vec<Conservation>,
}

impl ScenarioReport {
    /// Sweep cells in grid order (organizations outermost, then
    /// stripes, depths, policies, arms innermost).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Deterministic JSON rendering: fixed field order, fixed float
    /// precision, no timestamps — the same scenario and seed yield the
    /// same string at any thread count. One cell per line, each led by
    /// its grid point (`org`, `stripe`, `policy`, `depth`, `arms`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"scenario\": \"{}\",\n  \"objects\": {},\n  \"queries\": {},\n  \
             \"databases\": {},\n  \"cells\": [\n",
            self.name, self.objects, self.queries, self.databases
        );
        let rows: Vec<String> = self.cells.iter().map(cell_row).collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]");
        if !self.mixes.is_empty() {
            out.push_str(",\n  \"mix\": [\n");
            let rows: Vec<String> = self
                .mixes
                .iter()
                .map(|m| {
                    format!(
                        "    {{\"org\": \"{}\", \"windows\": {}, \"points\": {}, \
                         \"joins\": {}, \"inserts\": {}, \"deletes\": {}, \
                         \"results\": {}, \
                         \"read_requests\": {}, \"pages_read\": {}}}",
                        m.org.map_or("?", org_label),
                        m.windows,
                        m.points,
                        m.joins,
                        m.inserts,
                        m.deletes,
                        m.results,
                        m.io.read_requests,
                        m.io.pages_read,
                    )
                })
                .collect();
            out.push_str(&rows.join(",\n"));
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Assert every cell's p99 latency is below `ms`. Chainable.
    ///
    /// # Panics
    ///
    /// Panics naming the first offending cell.
    pub fn assert_p99_under_ms(&self, ms: f64) -> &Self {
        for c in &self.cells {
            assert!(
                c.latency.p99 < ms,
                "scenario '{}': cell {}/{}/{} depth {} arms {} has p99 {:.3} ms >= {ms} ms",
                self.name,
                org_label(c.org),
                stripe_label(c.stripe),
                policy_label(c.policy),
                c.depth,
                c.arms,
                c.latency.p99,
            );
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
        for (i, c) in self.conservation.iter().enumerate() {
            assert!(
                c.holds(),
                "scenario '{}': cell {i} leaks I/O accounting \
                 (attributed {:?} vs global {:?})",
                self.name,
                c.attributed,
                c.global,
            );
        }
        for (i, c) in self.mix_conservation.iter().enumerate() {
            assert!(
                c.holds(),
                "scenario '{}': mix stream {i} leaks I/O accounting \
                 (attributed {:?} vs global {:?})",
                self.name,
                c.attributed,
                c.global,
            );
        }
        self
    }

    /// Assert every cell of this report reproduces its row in a
    /// checked-in report **byte for byte**: each row
    /// [`to_json`](ScenarioReport::to_json) renders must be a line of
    /// the file (trailing comma stripped). A scenario sweeping a subset
    /// of the file's grid therefore still verifies exactly. Chainable.
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
            .map(|line| line.strip_suffix(',').unwrap_or(line))
            .collect();
        for cell in &self.cells {
            let row = cell_row(cell);
            if lines.contains(&row.as_str()) {
                continue;
            }
            let key = cell_key(cell);
            let golden = lines
                .iter()
                .find(|line| line.starts_with(&key))
                .unwrap_or_else(|| {
                    panic!(
                        "golden {}: no row for cell {} (scenario '{}')",
                        path.display(),
                        key.trim(),
                        self.name
                    )
                });
            panic!(
                "scenario '{}' diverges from golden {}:\n  golden:  {}\n  harness: {}",
                self.name,
                path.display(),
                golden.trim_start(),
                row.trim_start(),
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

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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

/// Summary of a latency distribution (simulated ms) — the latency
/// columns of a [`Cell`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
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

/// Summarize a latency distribution. Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize_latencies(values: &mut [f64]) -> LatencySummary {
    assert!(!values.is_empty(), "no latency samples");
    values.sort_by(f64::total_cmp);
    LatencySummary {
        count: values.len(),
        p50: quantile(values, 0.50),
        p95: quantile(values, 0.95),
        p99: quantile(values, 0.99),
        mean: values.iter().sum::<f64>() / values.len() as f64,
        max: *values.last().expect("non-empty"),
    }
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
    fn summarize_sorts_and_aggregates() {
        let mut v = vec![30.0, 10.0, 20.0, 40.0];
        let s = summarize_latencies(&mut v);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.max, 40.0);
        assert_eq!(s.mean, 25.0);
        assert_eq!(v, vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_rejects_empty() {
        quantile(&[], 0.5);
    }

    const IO_LATENCY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_io_latency.json");

    /// A one-cell report at `depth` on the io_latency grid's first
    /// point, every metric zero.
    fn zero_cell_at_depth(depth: usize) -> ScenarioReport {
        let cell = Cell {
            org: OrganizationKind::Secondary,
            depth,
            policy: ArmPolicy::Fcfs,
            arms: 1,
            stripe: StripePolicy::RoundRobin,
            latency: summarize_latencies(&mut [0.0]),
            makespan_ms: 0.0,
            service_ms: 0.0,
            requests: 0,
            busy_arms: 0,
            max_util: 0.0,
            iops: 0.0,
            inter_arrival_ms: 0.0,
        };
        ScenarioReport {
            name: "zero".into(),
            objects: 0,
            queries: 1,
            databases: 1,
            cells: vec![cell],
            conservation: Vec::new(),
            mixes: Vec::new(),
            mix_conservation: Vec::new(),
        }
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
