//! The reports checked in at the repository root, each declared once.
//! The `scenarios` binary writes all five with [`render`]; the golden
//! tests run parts of their grids and match the rows against the
//! tracked files.
//!
//! | file | source | grid |
//! |---|---|---|
//! | `BENCH_io_latency.json` | [`io_latency`] | organizations × queue depth × arm policy, open arrivals on one arm |
//! | `BENCH_decluster.json` | [`decluster`] | organizations × stripe policy × arm policy × arm count, six databases |
//! | `BENCH_scenarios.json` | [`fig_like`] | depth × arm policy × arm count, then a window/point/join/insert stream |
//! | `BENCH_mixed_rw.json` | [`mixed_rw`] at 1, 2, 4 and 8 clients | closed-loop readers, then a stream that deletes too |
//! | `BENCH_bulk_load.json` | insertion build vs STR bulk load of A-1 at a tenth of Table 1 | organizations × load threads, then a query-equivalence check |
//!
//! The four scenario files are each their scenario's
//! [`ScenarioReport::to_json`](crate::ScenarioReport::to_json); the mixed
//! read/write file wraps one report per client count. Every report is
//! simulated time only, so it comes out byte-identical on any machine.

use crate::figures::{self, records_of, Figure, Scale, Trend};
use crate::{org_label, Dataset, Mix, Scenario, WindowSweep};
use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::DataSet;
use spatialdb::rtree::io::CountingIo;
use spatialdb::storage::OrganizationKind;
use spatialdb::{
    bulk_load_records_par, ArmPolicy, Arrival, DbOptions, EngineConfig, SpatialDatabase,
    StripePolicy, Workspace,
};

/// The file names [`render`] accepts.
pub const FILES: [&str; 5] = [
    "BENCH_io_latency.json",
    "BENCH_decluster.json",
    "BENCH_scenarios.json",
    "BENCH_mixed_rw.json",
    "BENCH_bulk_load.json",
];

/// The client populations of `BENCH_mixed_rw.json`.
const CLIENTS: [usize; 4] = [1, 2, 4, 8];

/// Think time of a closed-loop client in [`mixed_rw`] (simulated ms).
const THINK_MS: f64 = 2.0;

/// End-to-end query latency under the arm scheduler: the window sweep
/// replayed under open arrivals at 90 % load, at queue depths 1 – 16,
/// FCFS against elevator ordering.
pub fn io_latency() -> Scenario {
    Scenario::new("io_latency")
        .dataset(Dataset::grid(6000))
        .engine(EngineConfig::default().buffer_pages(512))
        .windows(WindowSweep::new(160))
        .arrivals(Arrival::open(0.9))
        .sweep_depths(&[1, 2, 4, 8, 16])
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
}

/// Declustered storage: six databases share one workspace, queries
/// round-robin over them, and every stripe policy spreads their regions
/// over 1 – 8 arms. p95/p99 show how declustering trims the queueing
/// tail: the p99 never rises as arms are added. The open arrivals fix
/// the makespan, so the report carries no throughput column.
pub fn decluster() -> Scenario {
    Scenario::new("decluster")
        .dataset(Dataset::grid(6000))
        .databases(6)
        .engine(EngineConfig::default().buffer_pages(512 * 6))
        .windows(
            WindowSweep::new(144)
                .size_base(0.05)
                .size_amp(0.20)
                .size_period(5),
        )
        .arrivals(Arrival::open(0.7))
        .sweep_depths(&[16])
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .sweep_arms(&[1, 2, 4, 8])
        .sweep_stripes(&[
            StripePolicy::RoundRobin,
            StripePolicy::RegionHash,
            StripePolicy::MbrLocality,
        ])
}

/// The harness end to end, the way a user would drive it: a seeded
/// uniform dataset, an open-arrival sweep over a depth × policy × arm
/// grid, and a mixed window/point/join/insert stream per organization.
pub fn fig_like() -> Scenario {
    Scenario::new("fig-like")
        .dataset(Dataset::uniform(4000).polyline_segments(6))
        .databases(2)
        .engine(EngineConfig::default().buffer_pages(1024))
        .windows(
            WindowSweep::new(96)
                .size_base(0.04)
                .size_amp(0.18)
                .size_period(6),
        )
        .arrivals(Arrival::open(0.7))
        .sweep_depths(&[4, 16])
        .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
        .sweep_arms(&[1, 4])
        .mix(Mix::new().window(0.6).point(0.2).join(0.1).insert(0.1))
        .operations(128)
        .threads(4)
        .seed(1994)
}

/// Shadow paging under load: `clients` closed-loop readers (each thinks,
/// queries, and only then queries again), then a stream of windows,
/// points, joins, inserts and deletes per organization. Readers pin
/// epoch snapshots and never block behind the writers.
pub fn mixed_rw(clients: usize) -> Scenario {
    Scenario::new(format!("mixed-rw-c{clients}"))
        .dataset(Dataset::uniform(2000).polyline_segments(6))
        .databases(2)
        .engine(EngineConfig::default().buffer_pages(1024))
        .windows(
            WindowSweep::new(48)
                .size_base(0.04)
                .size_amp(0.18)
                .size_period(6),
        )
        .arrivals(Arrival::closed(clients, THINK_MS))
        .sweep_depths(&[4])
        .sweep_arms(&[1, 4])
        .mix(
            Mix::new()
                .window(0.4)
                .point(0.2)
                .join(0.1)
                .insert(0.15)
                .delete(0.15),
        )
        .operations(96)
        .threads(4)
        .seed(1994)
}

/// The claim of `BENCH_io_latency.json`, on the rows `cells` has: on one
/// arm at queue depths 4, 8 and 16 the elevator's mean latency is below
/// FCFS's. (On more arms it can read a fraction of a percent higher.)
///
/// # Panics
///
/// Panics naming the scenario, the cut and both means.
pub fn assert_elevator_beats_fcfs(cells: &Figure) {
    for key in cells.row_keys() {
        let [org, stripe, "elevator", depth @ ("4" | "8" | "16"), "1"] = key[..] else {
            continue;
        };
        let pair = [
            format!("elevator / {depth} / 1"),
            format!("fcfs / {depth} / 1"),
        ];
        cells
            .down("mean_ms", &[org, stripe])
            .assert_ordering(&[&pair[0], &pair[1]]);
    }
}

/// The claim of the multi-arm grids: `p99_ms` is non-increasing in
/// `arms` at every organization, stripe, policy and depth, up to float
/// rounding (1e-9 ms: decluster has p99s equal to the 12th decimal).
/// Rows of a grid point sit together, arms innermost.
///
/// # Panics
///
/// Panics naming the scenario, the grid point and both p99s.
pub fn assert_p99_falls_with_arms(cells: &Figure) {
    let mut points: Vec<Vec<&str>> = cells.row_keys().map(|key| key[..4].to_vec()).collect();
    points.dedup();
    for point in &points {
        cells
            .down("p99_ms", point)
            .assert_monotone(Trend::Falling, 1e-9);
    }
}

/// The text of the checked-in report `file`, one of [`FILES`]: its
/// scenario run, its I/O books and its claim checked, its report
/// rendered (or, for `BENCH_bulk_load.json`, both builds run and
/// compared).
///
/// # Panics
///
/// Panics on a name not in [`FILES`], when a run's I/O accounting
/// does not balance
/// ([`ScenarioReport::assert_stats_conserved`](crate::ScenarioReport::assert_stats_conserved)),
/// when a scenario breaks its claim ([`assert_elevator_beats_fcfs`],
/// [`assert_p99_falls_with_arms`]), and when the STR bulk load charges
/// as much as the insertion build, depends on its thread count, answers
/// differently or reads as many nodes.
pub fn render(file: &str) -> String {
    let json = |scenario: Scenario, claim: fn(&Figure)| {
        let report = scenario.run();
        claim(&report.assert_stats_conserved().cells);
        report.to_json()
    };
    match file {
        "BENCH_io_latency.json" => json(io_latency(), assert_elevator_beats_fcfs),
        "BENCH_decluster.json" => json(decluster(), assert_p99_falls_with_arms),
        "BENCH_scenarios.json" => json(fig_like(), assert_p99_falls_with_arms),
        "BENCH_mixed_rw.json" => {
            let sweeps: Vec<String> = CLIENTS
                .iter()
                .map(|&clients| {
                    let report = json(mixed_rw(clients), assert_p99_falls_with_arms);
                    format!(
                        "  {{\"clients\": {clients}, \"report\": {}}}",
                        report.trim_end()
                    )
                })
                .collect();
            format!(
                "{{\n\"bench\": \"mixed_rw\", \"think_ms\": {THINK_MS}, \"sweeps\": [\n{}\n]\n}}\n",
                sweeps.join(",\n")
            )
        }
        "BENCH_bulk_load.json" => bulk_load(),
        _ => panic!("unknown report {file:?} (valid: {})", FILES.join(" ")),
    }
}

/// The load-thread counts of `BENCH_bulk_load.json`.
const LOAD_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Window area of the bulk-load report's equivalence query set (1 % of
/// the data space — the middle of the paper's Figure 8 grid).
const QUERY_AREA: f64 = 0.01;

/// Sorted answer set and total directory-node reads of one query set.
fn run_queries(db: &SpatialDatabase, queries: &WindowQuerySet) -> (Vec<Vec<u64>>, u64) {
    let store = db.store();
    let mut answers = Vec::with_capacity(queries.windows.len());
    let mut node_reads = 0u64;
    let mut scratch = Vec::new();
    for w in &queries.windows {
        let mut io = CountingIo::default();
        store.tree().window_entries_into(w, &mut io, &mut scratch);
        node_reads += io.reads;
        let mut ids: Vec<u64> = scratch.iter().map(|e| e.oid.0).collect();
        ids.sort_unstable();
        answers.push(ids);
    }
    (answers, node_reads)
}

/// `BENCH_bulk_load.json`: per organization, the §5.2 insertion build
/// (the Figure 5 baseline, [`figures::build`]) against the
/// sort-tile-recursive bulk load ([`bulk_load_records_par`]) at every
/// load-thread count, on data set A-1 at a tenth of Table 1. A row
/// holds the simulated construction I/O, the occupied pages and the
/// R\*-tree's node count.
///
/// Threads only sort and tile; every charge is made on the calling
/// thread. So each STR row equals its organization's 1-thread row, and
/// it charges **strictly less** simulated I/O than the insertion build.
/// A query-equivalence check follows per organization: a 1 %-area
/// window set answers identically on the insertion-built and the
/// STR-built tree, and the packed tree reads fewer directory nodes.
///
/// # Panics
///
/// Panics when any of these four facts fails.
fn bulk_load() -> String {
    let scale = Scale::fraction(0.1);
    let dataset = DataSet::all()[0];
    let spec = dataset.spec();
    let map = scale.map(dataset);
    let records = records_of(&map.objects);
    let queries = WindowQuerySet::generate(&map, QUERY_AREA, scale.num_queries, scale.seed);

    let mut rows = Vec::new();
    for kind in [
        OrganizationKind::Secondary,
        OrganizationKind::Primary,
        OrganizationKind::Cluster,
    ] {
        let label = org_label(kind);
        let ws = Workspace::new(scale.construction_buffer);
        let (insert_db, insert_stats) = figures::build(&ws, kind, spec.smax_bytes, false, &records);
        rows.push(format!(
            "    {{\"org\": \"{label}\", \"method\": \"insert\", \"threads\": 1, \
             \"io_ms\": {:.3}, \"pages_written\": {}, \"pages_read\": {}, \
             \"write_requests\": {}, \"occupied_pages\": {}, \"tree_nodes\": {}}}",
            insert_stats.io_ms,
            insert_stats.pages_written,
            insert_stats.pages_read,
            insert_stats.write_requests,
            insert_db.store().occupied_pages(),
            insert_db.store().tree().num_nodes(),
        ));

        let mut str_db: Option<SpatialDatabase> = None;
        let mut one_thread = None;
        for threads in LOAD_THREADS {
            // A machine of its own: its disk's counters are this build's.
            let ws = Workspace::new(scale.construction_buffer);
            let mut db =
                ws.create_database(DbOptions::new(kind).smax_bytes(spec.smax_bytes as u64));
            bulk_load_records_par(db.store_mut(), &records, threads);
            db.store_mut().flush();
            let stats = ws.disk().stats();
            assert!(
                stats.io_ms < insert_stats.io_ms,
                "{label}: STR at {threads} thread(s) must charge less I/O than insertion \
                 ({} vs {} ms)",
                stats.io_ms,
                insert_stats.io_ms
            );
            // Every column of the row: a thread-dependent charge fails
            // here, naming the row.
            let row = (
                stats,
                db.store().occupied_pages(),
                db.store().tree().num_nodes(),
            );
            match &one_thread {
                None => one_thread = Some(row),
                Some(one) => assert_eq!(
                    *one, row,
                    "{label} str at {threads} threads: the columns differ from the \
                     1-thread row"
                ),
            }
            rows.push(format!(
                "    {{\"org\": \"{label}\", \"method\": \"str\", \"threads\": {threads}, \
                 \"io_ms\": {:.3}, \"pages_written\": {}, \"pages_read\": {}, \
                 \"write_requests\": {}, \"occupied_pages\": {}, \"tree_nodes\": {}}}",
                stats.io_ms,
                stats.pages_written,
                stats.pages_read,
                stats.write_requests,
                db.store().occupied_pages(),
                db.store().tree().num_nodes(),
            ));
            str_db = Some(db);
        }

        // Query-equivalence check: same answers, fewer node accesses.
        let str_db = str_db.expect("thread grid must not be empty");
        let (insert_answers, insert_reads) = run_queries(&insert_db, &queries);
        let (str_answers, str_reads) = run_queries(&str_db, &queries);
        assert_eq!(
            insert_answers, str_answers,
            "{label}: STR tree must answer the query set identically"
        );
        assert!(
            str_reads < insert_reads,
            "{label}: packed tree must touch fewer nodes ({str_reads} vs {insert_reads})"
        );
        let n = queries.windows.len() as f64;
        rows.push(format!(
            "    {{\"org\": \"{label}\", \"method\": \"query_check\", \"queries\": {}, \
             \"answers_identical\": true, \"node_reads_per_query_str\": {:.3}, \
             \"node_reads_per_query_insert\": {:.3}}}",
            queries.windows.len(),
            str_reads as f64 / n,
            insert_reads as f64 / n
        ));
    }

    let threads: Vec<String> = LOAD_THREADS.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\n  \"bench\": \"bulk_load\",\n  \"dataset\": \"{dataset}\",\n  \
         \"objects\": {},\n  \"queries\": {},\n  \"window_area\": {QUERY_AREA},\n  \
         \"threads\": [{}],\n  \"rows\": [\n{}\n  ]\n}}\n",
        records.len(),
        queries.windows.len(),
        threads.join(", "),
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A figure keyed like a scenario's replay cells, with one metric.
    fn cells(metric: &str, rows: &[([&str; 5], f64)]) -> Figure {
        let mut fig = Figure::new(
            "io_latency",
            "doctored",
            &["org", "stripe", "policy", "depth", "arms"],
        )
        .column(metric, "", 3);
        for (key, v) in rows {
            fig = fig.row(key, &[*v]);
        }
        fig
    }

    #[test]
    #[should_panic(expected = "Fig. io_latency [cluster / round_robin / mean_ms]: \
                               elevator / 8 / 1 151 !< fcfs / 8 / 1 150")]
    fn an_elevator_slower_than_fcfs_is_refused() {
        assert_elevator_beats_fcfs(&cells(
            "mean_ms",
            &[
                (["cluster", "round_robin", "fcfs", "2", "1"], 100.0),
                (["cluster", "round_robin", "elevator", "2", "1"], 120.0),
                (["cluster", "round_robin", "fcfs", "8", "1"], 150.0),
                (["cluster", "round_robin", "elevator", "8", "1"], 151.0),
            ],
        ));
    }

    #[test]
    #[should_panic(
        expected = "Fig. io_latency [primary / mbr_locality / fcfs / 16 / p99_ms]: \
                               not Falling from 2 80 to 4 80.5"
    )]
    fn a_tail_that_rises_with_arms_is_refused() {
        assert_p99_falls_with_arms(&cells(
            "p99_ms",
            &[
                (["primary", "mbr_locality", "elevator", "16", "1"], 90.0),
                (["primary", "mbr_locality", "elevator", "16", "4"], 90.0),
                (["primary", "mbr_locality", "fcfs", "16", "1"], 100.0),
                (["primary", "mbr_locality", "fcfs", "16", "2"], 80.0),
                (["primary", "mbr_locality", "fcfs", "16", "4"], 80.5),
            ],
        ));
    }

    #[test]
    #[should_panic(expected = "unknown report \"BENCH_figures.json\" (valid: \
                               BENCH_io_latency.json BENCH_decluster.json \
                               BENCH_scenarios.json BENCH_mixed_rw.json \
                               BENCH_bulk_load.json)")]
    fn an_unknown_report_is_refused() {
        render("BENCH_figures.json");
    }
}
