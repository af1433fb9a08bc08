//! The result of a scenario run: per-cell metrics, conservation
//! records, and chainable assertions.
//!
//! A [`ScenarioReport`] is pure data — every field is derived from the
//! simulated clock and the deterministic filter pass, so the same
//! scenario at any thread count renders the same report byte for byte
//! ([`ScenarioReport::to_json`] is the determinism contract's witness).

use crate::golden::{self, RowFormat};
use spatialdb::disk::IoStats;
use spatialdb::report::LatencySummary;
use spatialdb::storage::OrganizationKind;
use spatialdb::{ArmPolicy, StripePolicy};
use std::fmt::Write as _;

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
pub fn stripe_label(stripe: StripePolicy) -> &'static str {
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

impl Cell {
    /// This cell as a row of `BENCH_io_latency.json`, byte-identical to
    /// the `io_latency` binary's formatting.
    pub fn io_latency_row(&self) -> String {
        format!(
            "    {{\"org\": \"{}\", \"policy\": \"{}\", \"depth\": {}, \
             \"inter_arrival_ms\": {:.4}, \"p50_ms\": {:.3}, \
             \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \
             \"makespan_ms\": {:.3}, \"service_ms\": {:.3}, \
             \"requests\": {}}}",
            org_label(self.org),
            policy_label(self.policy),
            self.depth,
            self.inter_arrival_ms,
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.mean,
            self.makespan_ms,
            self.service_ms,
            self.requests,
        )
    }

    /// This cell as a row of `BENCH_decluster.json`, byte-identical to
    /// the `decluster` binary's formatting.
    pub fn decluster_row(&self) -> String {
        format!(
            "    {{\"org\": \"{}\", \"stripe\": \"{}\", \"policy\": \"{}\", \
             \"arms\": {}, \"busy_arms\": {}, \"requests\": {}, \
             \"inter_arrival_ms\": {:.4}, \
             \"makespan_ms\": {:.3}, \"iops\": {:.2}, \
             \"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"max_util\": {:.3}}}",
            org_label(self.org),
            stripe_label(self.stripe),
            policy_label(self.policy),
            self.arms,
            self.busy_arms,
            self.requests,
            self.inter_arrival_ms,
            self.makespan_ms,
            self.iops,
            self.latency.mean,
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.max_util,
        )
    }

    /// Format this cell in either benchmark row shape.
    pub fn row(&self, format: RowFormat) -> String {
        match format {
            RowFormat::IoLatency => self.io_latency_row(),
            RowFormat::Decluster => self.decluster_row(),
        }
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

    /// The cell at one grid point, if the sweep visited it.
    pub fn cell(
        &self,
        org: OrganizationKind,
        depth: usize,
        policy: ArmPolicy,
        arms: usize,
        stripe: StripePolicy,
    ) -> Option<&Cell> {
        self.cells.iter().find(|c| {
            c.org == org
                && c.depth == depth
                && c.policy == policy
                && c.arms == arms
                && c.stripe == stripe
        })
    }

    /// Deterministic JSON rendering: fixed field order, fixed float
    /// precision, no timestamps — the same scenario and seed yield the
    /// same string at any thread count.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"scenario\": \"{}\",\n  \"objects\": {},\n  \"queries\": {},\n  \
             \"databases\": {},\n  \"cells\": [\n",
            self.name, self.objects, self.queries, self.databases
        );
        let rows: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "    {{\"org\": \"{}\", \"stripe\": \"{}\", \"policy\": \"{}\", \
                     \"depth\": {}, \"arms\": {}, \"inter_arrival_ms\": {:.4}, \
                     \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
                     \"mean_ms\": {:.3}, \"makespan_ms\": {:.3}, \"service_ms\": {:.3}, \
                     \"iops\": {:.2}, \"busy_arms\": {}, \"max_util\": {:.3}, \
                     \"requests\": {}}}",
                    org_label(c.org),
                    stripe_label(c.stripe),
                    policy_label(c.policy),
                    c.depth,
                    c.arms,
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
            })
            .collect();
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
    /// checked-in benchmark golden file **byte for byte**. Cells are
    /// matched by key (`org`/`policy`/`depth` for
    /// [`RowFormat::IoLatency`]; `org`/`stripe`/`policy`/`arms` for
    /// [`RowFormat::Decluster`]), so a scenario sweeping a subset of
    /// the golden grid still verifies exactly. Chainable.
    ///
    /// # Panics
    ///
    /// Panics when the golden file is missing, a cell has no matching
    /// golden row, or a matched row differs.
    pub fn assert_matches_golden(
        &self,
        path: impl AsRef<std::path::Path>,
        format: RowFormat,
    ) -> &Self {
        let path = path.as_ref();
        let golden_rows =
            golden::load_rows(path).unwrap_or_else(|e| panic!("golden {}: {e}", path.display()));
        for cell in &self.cells {
            let row = cell.row(format);
            let key = golden::row_key(&row, format)
                .unwrap_or_else(|| panic!("unkeyable generated row: {row}"));
            let matched = golden_rows
                .iter()
                .find(|g| golden::row_key(g, format).as_ref() == Some(&key))
                .unwrap_or_else(|| {
                    panic!(
                        "golden {}: no row for cell {key:?} (scenario '{}')",
                        path.display(),
                        self.name
                    )
                });
            assert!(
                *matched == row,
                "scenario '{}' diverges from golden {} at {key:?}:\n  golden: {matched}\n  \
                 harness: {row}",
                self.name,
                path.display(),
            );
        }
        self
    }
}
