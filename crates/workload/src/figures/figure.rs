//! [`Figure`] — the one report shape of the paper's eleven artifacts —
//! and the chainable gates its shape tests are written in.
//!
//! A figure is a keyed table of numbers: key cells name a row ("A - 1",
//! "10"), value columns carry a name, a unit and a print precision. It
//! renders itself through [`crate::report::Table`], so `figures
//! --fig 8` prints what the tests gate and what the golden file pins,
//! and each row as one line of JSON ([`Figure::json_rows`]), so a
//! scenario report's cells and mix rows are figures too.
//!
//! Gates work on a [`Series`] — named numbers cut out of the figure
//! either across one row ([`Figure::at`]) or down one column
//! ([`Figure::down`]) — and panic naming figure, cut and both values:
//!
//! ```
//! # use spatialdb_workload::figures::Figure;
//! # let fig = Figure::new("8", "Window queries", &["series", "window area (%)"])
//! #     .column("sec. org.", "ms/4KB", 1)
//! #     .column("prim. org.", "ms/4KB", 1)
//! #     .column("cluster org.", "ms/4KB", 1)
//! #     .row(&["A - 1", "10"], &[49.0, 26.5, 5.2]);
//! fig.at(&["A - 1", "10"])
//!     .assert_ordering(&["cluster org.", "prim. org.", "sec. org."])
//!     .assert_factor_at_least("sec. org.", "cluster org.", 4.0);
//! ```

use crate::report::{f, speedup, Table};
use std::fmt::Write as _;

/// One value column: `name (unit)` in the header, `digits` decimals in
/// the cells. Gates address it by `name`.
#[derive(Clone, Debug, PartialEq)]
struct Column {
    name: String,
    unit: &'static str,
    digits: usize,
}

impl Column {
    fn header(&self) -> String {
        if self.unit.is_empty() {
            self.name.clone()
        } else {
            format!("{} ({})", self.name, self.unit)
        }
    }
}

/// A table or figure of the paper's evaluation, as measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    id: String,
    title: String,
    keys: Vec<&'static str>,
    columns: Vec<Column>,
    /// A trailing `base / improved` column: header and the two names.
    speedup: Option<(&'static str, String, String)>,
    rows: Vec<(Vec<String>, Vec<f64>)>,
    note: String,
}

/// Direction of [`Series::assert_monotone`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trend {
    /// Each value at least its predecessor.
    Rising,
    /// Each value at most its predecessor.
    Falling,
}

impl Figure {
    /// An empty figure: `id` as `figures --fig` takes it (a scenario's
    /// name for its report), the caption, and the headers of the key
    /// cells that name a row.
    pub fn new(id: impl Into<String>, title: impl Into<String>, keys: &[&'static str]) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            keys: keys.to_vec(),
            columns: Vec::new(),
            speedup: None,
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Append a value column (`unit` may be empty).
    pub fn column(mut self, name: impl Into<String>, unit: &'static str, digits: usize) -> Self {
        assert!(self.rows.is_empty(), "columns come before rows");
        self.columns.push(Column {
            name: name.into(),
            unit,
            digits,
        });
        self
    }

    /// Render a trailing `header` column holding `base / improved` of
    /// each row as `x.x×`.
    pub fn speedup(mut self, header: &'static str, base: &str, improved: &str) -> Self {
        self.speedup = Some((header, base.to_string(), improved.to_string()));
        self
    }

    /// Append a row: one cell per key header, one value per column.
    pub fn row(mut self, key: &[&str], values: &[f64]) -> Self {
        self.push(key.iter().map(|k| k.to_string()).collect(), values.to_vec());
        self
    }

    /// [`row`](Self::row) in place, for the drivers' loops.
    pub(crate) fn push(&mut self, key: Vec<String>, values: Vec<f64>) {
        assert_eq!(key.len(), self.keys.len(), "Fig. {}: key cells", self.id);
        assert_eq!(values.len(), self.columns.len(), "Fig. {}: values", self.id);
        self.rows.push((key, values));
    }

    /// The lines printed under the table (the paper's expected shape).
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The id `figures --fig` selects this figure by.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The key cells of each row, in row order.
    pub fn row_keys(&self) -> impl Iterator<Item = Vec<&str>> {
        self.rows
            .iter()
            .map(|(key, _)| key.iter().map(String::as_str).collect())
    }

    /// Each row as one line of JSON, in row order: `{"key": cell, …,
    /// "column": value, …}`, named by the key headers and column names.
    /// A key cell is quoted unless it is an integer; a value is printed
    /// at its column's precision; every string is escaped.
    pub fn json_rows(&self) -> impl Iterator<Item = String> + '_ {
        self.rows.iter().map(|(key, values)| {
            let mut fields = Vec::with_capacity(key.len() + values.len());
            for (name, cell) in self.keys.iter().zip(key) {
                // Only an integer's own spelling is a JSON number: not
                // "+5", not "007".
                let cell = match cell.parse::<i64>() {
                    Ok(n) if n.to_string() == *cell => cell.clone(),
                    _ => json_string(cell),
                };
                fields.push(format!("{}: {cell}", json_string(name)));
            }
            for (c, v) in self.columns.iter().zip(values) {
                fields.push(format!("{}: {}", json_string(&c.name), f(*v, c.digits)));
            }
            format!("{{{}}}", fields.join(", "))
        })
    }

    fn headers(&self) -> Vec<String> {
        let keys = self.keys.iter().map(|k| k.to_string());
        let values = self.columns.iter().map(Column::header);
        let ratio = self.speedup.iter().map(|s| s.0.to_string());
        keys.chain(values).chain(ratio).collect()
    }

    fn index(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| {
                let known: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
                panic!("Fig. {}: no column {name:?} (columns: {known:?})", self.id)
            })
    }

    /// The printed cells of one row.
    fn cells(&self, (key, values): &(Vec<String>, Vec<f64>)) -> Vec<String> {
        let mut cells = key.clone();
        cells.extend(
            self.columns
                .iter()
                .zip(values)
                .map(|(c, v)| f(*v, c.digits)),
        );
        if let Some((_, base, improved)) = &self.speedup {
            cells.push(speedup(
                values[self.index(base)],
                values[self.index(improved)],
            ));
        }
        cells
    }

    /// The row whose key cells are exactly `key`, as a series named by
    /// the value columns.
    ///
    /// # Panics
    ///
    /// Panics if no row has that key.
    pub fn at(&self, key: &[&str]) -> Series {
        let Some((_, values)) = self.rows.iter().find(|(k, _)| k == key) else {
            let known: Vec<&Vec<String>> = self.rows.iter().map(|(k, _)| k).collect();
            panic!("Fig. {}: no row {key:?} (rows: {known:?})", self.id)
        };
        Series {
            fig: self.id.clone(),
            cut: key.join(" / "),
            items: self
                .columns
                .iter()
                .zip(values)
                .map(|(c, v)| (c.name.clone(), *v))
                .collect(),
        }
    }

    /// Column `name` down the rows whose key starts with `prefix` (all
    /// rows for an empty prefix), in row order, as a series named by the
    /// rest of each row's key.
    ///
    /// # Panics
    ///
    /// Panics on an unknown column or a prefix no row starts with.
    pub fn down(&self, name: &str, prefix: &[&str]) -> Series {
        let col = self.index(name);
        let items: Vec<(String, f64)> = self
            .rows
            .iter()
            .filter(|(k, _)| k.len() >= prefix.len() && k[..prefix.len()] == *prefix)
            .map(|(k, v)| (k[prefix.len()..].join(" / "), v[col]))
            .collect();
        assert!(
            !items.is_empty(),
            "Fig. {}: no row starts with {prefix:?}",
            self.id
        );
        let mut cut = name.to_string();
        if !prefix.is_empty() {
            cut = format!("{} / {cut}", prefix.join(" / "));
        }
        Series {
            fig: self.id.clone(),
            cut,
            items,
        }
    }

    /// Match this figure against its block in a checked-in rendering of
    /// `figures` output (`tests/golden/figures.txt`): same headers, and
    /// every row of `self` equal, cell for cell as printed, to the
    /// golden row with the same key. Rows are keyed, so a figure run on
    /// a subset of the paper's maps verifies exactly what it ran.
    ///
    /// # Panics
    ///
    /// Panics naming figure, row and both renderings on the first
    /// difference, on a missing block or row, and on an empty figure.
    pub fn assert_matches_golden(&self, golden: &str) -> &Self {
        let id = &self.id;
        assert!(!self.rows.is_empty(), "Fig. {id}: nothing to match");
        let banner = format!("== {} ==", self.title);
        let split =
            |line: &str| -> Vec<String> { line.split('|').map(|c| c.trim().to_string()).collect() };
        let mut block = golden
            .lines()
            .skip_while(|l| *l != banner)
            .skip(1)
            .skip_while(|l| l.is_empty())
            .take_while(|l| !l.is_empty());
        let header = block
            .next()
            .unwrap_or_else(|| panic!("Fig. {id}: golden has no block {banner:?}"));
        assert_eq!(split(header), self.headers(), "Fig. {id}: golden headers");
        let golden_rows: Vec<Vec<String>> = block.skip(1).map(split).collect();
        for row in &self.rows {
            let want = golden_rows
                .iter()
                .find(|g| g[..self.keys.len()] == row.0[..])
                .unwrap_or_else(|| panic!("Fig. {id}: golden has no row {:?}", row.0));
            assert_eq!(&self.cells(row), want, "Fig. {id}: row {:?}", row.0);
        }
        self
    }
}

impl std::fmt::Display for Figure {
    /// Caption, table, note — what `figures` prints.
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut table = Table::new(self.headers());
        for row in &self.rows {
            table.row(self.cells(row));
        }
        write!(out, "== {} ==\n\n{table}", self.title)?;
        if !self.note.is_empty() {
            write!(out, "\n{}\n", self.note)?;
        }
        Ok(())
    }
}

/// Named numbers cut out of a [`Figure`] — one row across its columns
/// or one column down its rows — with the gates the shape tests chain.
/// Every gate panics on failure, naming the figure, the cut and the
/// values it compared, and returns the series for the next gate.
#[derive(Clone, Debug)]
pub struct Series {
    fig: String,
    cut: String,
    items: Vec<(String, f64)>,
}

impl Series {
    /// The value called `name`.
    ///
    /// # Panics
    ///
    /// Panics if the series has no such item.
    pub fn get(&self, name: &str) -> f64 {
        match self.items.iter().find(|(n, _)| n == name) {
            Some((_, v)) => *v,
            None => {
                let known: Vec<&str> = self.items.iter().map(|(n, _)| n.as_str()).collect();
                panic!("{self}: no item {name:?} (items: {known:?})")
            }
        }
    }

    /// The named values ascend strictly, in the order given.
    pub fn assert_ordering(&self, names: &[&str]) -> &Self {
        assert!(names.len() >= 2, "{self}: an ordering needs two names");
        for pair in names.windows(2) {
            let (a, b) = (self.get(pair[0]), self.get(pair[1]));
            assert!(a < b, "{self}: {} {a} !< {} {b}", pair[0], pair[1]);
        }
        self
    }

    /// `a > factor × b`.
    pub fn assert_factor_at_least(&self, a: &str, b: &str, factor: f64) -> &Self {
        let (va, vb) = (self.get(a), self.get(b));
        assert!(va > factor * vb, "{self}: {a} {va} !> {factor} x {b} {vb}");
        self
    }

    /// `a < factor × b`.
    pub fn assert_factor_at_most(&self, a: &str, b: &str, factor: f64) -> &Self {
        let (va, vb) = (self.get(a), self.get(b));
        assert!(va < factor * vb, "{self}: {a} {va} !< {factor} x {b} {vb}");
        self
    }

    /// `name` lies within the relative tolerance `tol` of `target`.
    pub fn assert_within(&self, name: &str, target: f64, tol: f64) -> &Self {
        let v = self.get(name);
        assert!(
            (v - target).abs() / target < tol,
            "{self}: {name} {v} not within {tol} of {target}"
        );
        self
    }

    /// `name` is a lower bound of the series: no other value is below
    /// it (beyond rounding, 1e-9).
    pub fn assert_lower_bound(&self, name: &str) -> &Self {
        let bound = self.get(name);
        for (n, v) in &self.items {
            assert!(bound <= v + 1e-9, "{self}: {name} {bound} !<= {n} {v}");
        }
        self
    }

    /// The whole series, in order, moves with `trend`; a step against it
    /// of up to `slack` is tolerated.
    pub fn assert_monotone(&self, trend: Trend, slack: f64) -> &Self {
        assert!(self.items.len() >= 2, "{self}: one value has no trend");
        for pair in self.items.windows(2) {
            let ((na, a), (nb, b)) = (&pair[0], &pair[1]);
            let ok = match trend {
                Trend::Rising => *b >= a - slack,
                Trend::Falling => *b <= a + slack,
            };
            assert!(ok, "{self}: not {trend:?} from {na} {a} to {nb} {b}");
        }
        self
    }
}

/// `s` as a JSON string: quoted, with `"`, `\` and control characters
/// escaped.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl std::fmt::Display for Series {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(out, "Fig. {} [{}]", self.fig, self.cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three hand-written rows in Fig. 8's shape.
    fn fig() -> Figure {
        Figure::new("8", "Window Queries", &["series", "window area (%)"])
            .column("avg answers", "", 1)
            .column("sec. org.", "ms/4KB", 1)
            .column("prim. org.", "ms/4KB", 1)
            .column("cluster org.", "ms/4KB", 1)
            .speedup("speedup vs sec.", "sec. org.", "cluster org.")
            .row(&["A - 1", "0.001"], &[2.25, 163.94, 70.3, 139.44])
            .row(&["A - 1", "10"], &[1216.6, 49.0, 26.5, 5.2])
            .row(&["C - 1", "10"], &[1459.2, 25.1, 22.7, 0.0])
            .note("expected shape: the larger the window, the better.")
    }

    #[test]
    fn renders_through_table_with_precision_alignment_and_speedup() {
        let want = [
            "== Window Queries ==",
            "",
            " series | window area (%) | avg answers | sec. org. (ms/4KB) | prim. org. (ms/4KB) | cluster org. (ms/4KB) | speedup vs sec. ",
            "--------+-----------------+-------------+--------------------+---------------------+-----------------------+-----------------",
            " A - 1  |           0.001 |         2.2 |              163.9 |                70.3 |                 139.4 |            1.2x ",
            " A - 1  |              10 |      1216.6 |               49.0 |                26.5 |                   5.2 |            9.4x ",
            " C - 1  |              10 |      1459.2 |               25.1 |                22.7 |                   0.0 |               — ",
            "",
            "expected shape: the larger the window, the better.",
            "",
        ]
        .join("\n");
        assert_eq!(fig().to_string(), want);
        // And it is `report::Table`'s rendering, not a second one.
        let mut t = Table::new(fig().headers());
        for row in &fig().rows {
            t.row(fig().cells(row));
        }
        assert!(want.contains(&t.render()));
    }

    #[test]
    fn json_rows_quote_keys_but_integers_and_escape_every_string() {
        let fig = Figure::new("t", "JSON", &["name", "n", "x"])
            .column("v \"ms\"", "", 2)
            .column("count", "", 0)
            .row(&["a \"q\" \\", "3", "+5"], &[1.5, 7.0])
            .row(&["b", "007", "-2"], &[0.25, 0.0]);
        let rows: Vec<String> = fig.json_rows().collect();
        assert_eq!(
            rows,
            [
                r#"{"name": "a \"q\" \\", "n": 3, "x": "+5", "v \"ms\"": 1.50, "count": 7}"#,
                r#"{"name": "b", "n": "007", "x": -2, "v \"ms\"": 0.25, "count": 0}"#,
            ]
        );
    }

    #[test]
    fn gates_chain_and_pass_on_what_holds() {
        let f = fig();
        f.at(&["A - 1", "10"])
            .assert_ordering(&["cluster org.", "prim. org.", "sec. org."])
            .assert_factor_at_least("sec. org.", "cluster org.", 4.0)
            .assert_factor_at_most("prim. org.", "sec. org.", 0.6)
            .assert_within("prim. org.", 26.0, 0.05)
            .assert_lower_bound("cluster org.");
        f.down("avg answers", &["A - 1"])
            .assert_monotone(Trend::Rising, 0.0);
        f.down("sec. org.", &[])
            .assert_monotone(Trend::Falling, 1e-6)
            .assert_factor_at_least("A - 1 / 10", "C - 1 / 10", 1.9);
        assert_eq!(f.down("sec. org.", &["A - 1"]).get("10"), 49.0);
    }

    #[test]
    #[should_panic(expected = "Fig. 8 [A - 1 / 10]: prim. org. 26.5 !< cluster org. 5.2")]
    fn ordering_gate_fails_on_a_swapped_pair() {
        fig()
            .at(&["A - 1", "10"])
            .assert_ordering(&["prim. org.", "cluster org."]);
    }

    #[test]
    #[should_panic(expected = "sec. org. 49 !> 10 x cluster org. 5.2")]
    fn factor_at_least_gate_fails_below_the_factor() {
        fig()
            .at(&["A - 1", "10"])
            .assert_factor_at_least("sec. org.", "cluster org.", 10.0);
    }

    #[test]
    #[should_panic(expected = "prim. org. 26.5 !< 0.5 x sec. org. 49")]
    fn factor_at_most_gate_fails_above_the_factor() {
        fig()
            .at(&["A - 1", "10"])
            .assert_factor_at_most("prim. org.", "sec. org.", 0.5);
    }

    #[test]
    #[should_panic(expected = "Fig. 8 [sec. org.]: not Rising from A - 1 / 0.001 163.94")]
    fn monotone_gate_fails_on_a_step_against_the_trend() {
        fig()
            .down("sec. org.", &[])
            .assert_monotone(Trend::Rising, 1.0);
    }

    #[test]
    #[should_panic(expected = "prim. org. 26.5 not within 0.01 of 26")]
    fn within_gate_fails_outside_the_tolerance() {
        fig()
            .at(&["A - 1", "10"])
            .assert_within("prim. org.", 26.0, 0.01);
    }

    #[test]
    #[should_panic(expected = "prim. org. 26.5 !<= cluster org. 5.2")]
    fn lower_bound_gate_fails_when_something_is_below() {
        fig().at(&["A - 1", "10"]).assert_lower_bound("prim. org.");
    }

    #[test]
    #[should_panic(expected = "Fig. 8: no row [\"B - 1\", \"10\"]")]
    fn an_unknown_row_is_not_an_empty_series() {
        fig().at(&["B - 1", "10"]);
    }

    #[test]
    #[should_panic(expected = "Fig. 8: no column \"opt.\"")]
    fn an_unknown_column_is_not_an_empty_series() {
        fig().down("opt.", &[]);
    }

    #[test]
    #[should_panic(expected = "Fig. 8 [A - 1 / 10]: no item \"opt.\"")]
    fn an_unknown_name_in_a_gate_panics() {
        fig()
            .at(&["A - 1", "10"])
            .assert_ordering(&["opt.", "sec. org."]);
    }

    #[test]
    #[should_panic(expected = "one value has no trend")]
    fn a_trend_over_one_value_is_refused() {
        fig()
            .down("sec. org.", &["C - 1"])
            .assert_monotone(Trend::Falling, 0.0);
    }

    #[test]
    fn golden_match_is_keyed_by_row() {
        let golden = format!("figures at some scale\n\n{}\n== Next ==\n", fig());
        fig().assert_matches_golden(&golden);
        // A subset of the rows matches too…
        let subset = Figure {
            rows: fig().rows[1..2].to_vec(),
            ..fig()
        };
        subset.assert_matches_golden(&golden);
    }

    #[test]
    #[should_panic(expected = "Fig. 8: row [\"A - 1\", \"10\"]")]
    fn golden_match_fails_on_a_moved_cell() {
        let golden = fig().to_string().replace("26.5", "26.6");
        fig().assert_matches_golden(&golden);
    }

    #[test]
    #[should_panic(expected = "golden has no row [\"B - 1\", \"1\"]")]
    fn golden_match_fails_on_a_row_the_golden_lacks() {
        let golden = fig().to_string();
        fig()
            .row(&["B - 1", "1"], &[1.0, 2.0, 3.0, 4.0])
            .assert_matches_golden(&golden);
    }

    #[test]
    #[should_panic(expected = "golden has no block")]
    fn golden_match_fails_on_a_missing_block() {
        fig().assert_matches_golden("== Some Other Figure ==\n\n a | b \n");
    }
}
