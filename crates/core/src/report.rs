//! Minimal aligned-table formatting for the experiment binaries.

use std::fmt::Write as _;

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

/// Summary of a latency distribution (simulated ms) — the row shape of
/// the `io_latency` benchmark and the latency-oriented figures.
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
}
