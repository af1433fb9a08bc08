//! The declarative scenario builder and driver.
//!
//! A [`Scenario`] declares a complete experiment — dataset, engine
//! configuration, window sweep, arrival discipline, replay grid, and
//! optionally a mixed operation stream — and [`run`](Scenario::run)
//! executes it: per organization, build the workspace from one
//! [`EngineConfig`], bulk load every database, capture the window pass
//! once, replay it in every grid cell, and fold everything into a
//! [`ScenarioReport`].
//!
//! Requests reach the disk arms one way. The capture cold-starts every
//! database and runs each window through the engine
//! ([`Query::run`](spatialdb::Query::run), where every production read
//! is measured) inside
//! [`Disk::traced`](spatialdb::disk::Disk::traced): the window charges
//! the workspace disk synchronously, its one I/O delta is its service
//! time, and its requests are recorded. Every cell replays those traces
//! through [`simulate_queries_striped`] or [`simulate_queries_closed`],
//! as the scenario's [`Arrival`] says, and charges nothing.
//!
//! Every input is deterministic — the datasets, the window sweeps, the
//! open-arrival spacing derived from the captured filter pass — so a
//! scenario reproduces its report byte for byte. The checked-in
//! `BENCH_*.json` reports are four declared scenarios
//! ([`crate::reports`]) rendered with [`ScenarioReport::to_json`]; a
//! scenario sweeping part of one of their grids matches its rows
//! ([`ScenarioReport::assert_matches_golden`]).

use crate::dataset::Dataset;
use crate::figures::Figure;
use crate::mix::{run_mix, Mix};
use crate::report::{
    org_label, policy_label, quantile, stripe_label, Conservation, ScenarioReport,
};
use spatialdb::disk::blocks::available_threads;
use spatialdb::disk::{
    simulate_queries_closed, simulate_queries_striped, ArmGeometry, ArrayConfig, DiskParams,
    QueryTrace,
};
use spatialdb::geom::Rect;
use spatialdb::storage::OrganizationKind;
use spatialdb::{
    ArmPolicy, Arrival, DbOptions, EngineConfig, IoStats, SpatialDatabase, StripePolicy, Workspace,
};

/// A deterministic window sweep: `count` windows whose sizes cycle with
/// period `size_period` between `size_base` and `size_base + size_amp`,
/// positions raking across the unit square.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSweep {
    count: usize,
    size_base: f64,
    size_amp: f64,
    size_period: usize,
}

impl WindowSweep {
    /// A sweep of `count` windows with the `io_latency` report's size
    /// cycle (0.04 … 0.26, period 7).
    pub fn new(count: usize) -> Self {
        WindowSweep {
            count,
            size_base: 0.04,
            size_amp: 0.22,
            size_period: 7,
        }
    }

    /// Smallest window side length.
    #[must_use]
    pub fn size_base(mut self, base: f64) -> Self {
        self.size_base = base;
        self
    }

    /// Size-cycle amplitude (largest side = base + amp).
    #[must_use]
    pub fn size_amp(mut self, amp: f64) -> Self {
        self.size_amp = amp;
        self
    }

    /// Size-cycle period. Must be nonzero.
    #[must_use]
    pub fn size_period(mut self, period: usize) -> Self {
        assert!(period > 0, "size period must be nonzero");
        self.size_period = period;
        self
    }

    /// Number of windows.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The smallest and the largest window side of the cycle.
    fn sides(&self) -> (f64, f64) {
        let last = (self.size_period - 1) as f64 / self.size_period as f64;
        (self.size_base, self.size_base + self.size_amp * last)
    }

    /// Materialize the sweep.
    pub fn generate(&self) -> Vec<Rect> {
        let n = self.count;
        let period = self.size_period as f64;
        (0..n)
            .map(|i| {
                let f = i as f64 / n as f64;
                let size =
                    self.size_base + self.size_amp * ((i % self.size_period) as f64 / period);
                let x = (f * 13.0) % (1.0 - size);
                let y = (f * 7.0) % (1.0 - size);
                Rect::new(x, y, x + size, y + size)
            })
            .collect()
    }
}

/// Whether a replay under `arrival` measures `column`. An open
/// arrival's makespan is its last arrival time in every tracked grid,
/// so it and the IOPS derived from it restate the schedule; a closed or
/// burst replay has no spacing.
fn measures(arrival: Arrival, column: &str) -> bool {
    let open = matches!(arrival, Arrival::Open(_));
    match column {
        "inter_arrival_ms" => open,
        "makespan_ms" | "iops" => !open,
        _ => true,
    }
}

/// What a phase measured: each metric's column name, print precision
/// and value.
pub(crate) type Metrics = Vec<(&'static str, usize, f64)>;

/// A row of a scenario's figure: its key cells and what it measured.
type Row = (Vec<String>, Metrics);

/// Scenario `name`'s figure `what`, keyed by `keys`: every row measures
/// the same metrics, so the first declares the columns.
fn figure(name: &str, what: &str, keys: &[&'static str], rows: Vec<Row>) -> Figure {
    let columns = rows.first().map_or(&[][..], |(_, metrics)| &metrics[..]);
    let mut fig = columns.iter().fold(
        Figure::new(name, format!("{name}: {what}"), keys),
        |fig, &(column, digits, _)| fig.column(column, "", digits),
    );
    for (key, metrics) in rows {
        fig.push(key, metrics.into_iter().map(|(.., v)| v).collect());
    }
    fig
}

/// A declarative experiment: build it fluently, then [`run`](Scenario::run).
///
/// ```no_run
/// use spatialdb::{ArmPolicy, Arrival, EngineConfig};
/// use spatialdb_workload::{Dataset, Mix, Scenario, WindowSweep};
///
/// let report = Scenario::new("fig-like")
///     .dataset(Dataset::uniform(10_000).polyline_segments(8))
///     .engine(EngineConfig::default().buffer_pages(1024))
///     .windows(WindowSweep::new(96))
///     .arrivals(Arrival::open(0.7))
///     .mix(Mix::new().window(0.6).point(0.2).join(0.1).insert(0.1))
///     .sweep_depths(&[8])
///     .sweep_policies(&[ArmPolicy::Elevator])
///     .run();
/// report.assert_p99_under_ms(10_000.0).assert_stats_conserved();
/// ```
#[derive(Clone, Debug)]
pub struct Scenario {
    name: String,
    dataset: Dataset,
    databases: usize,
    engine: EngineConfig,
    organizations: Vec<OrganizationKind>,
    windows: WindowSweep,
    arrival: Arrival,
    depths: Vec<usize>,
    policies: Vec<ArmPolicy>,
    arms_grid: Vec<usize>,
    stripes: Vec<StripePolicy>,
    threads: usize,
    seed: u64,
    mix: Option<Mix>,
    operations: usize,
}

impl Scenario {
    /// Start a scenario. The defaults are a one-database grid dataset
    /// of 2 000 objects, the default engine, all three organizations,
    /// a 64-window sweep, burst arrivals, and a single
    /// depth-4 elevator cell on one arm per organization.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            dataset: Dataset::grid(2_000),
            databases: 1,
            engine: EngineConfig::default(),
            organizations: vec![
                OrganizationKind::Secondary,
                OrganizationKind::Primary,
                OrganizationKind::Cluster,
            ],
            windows: WindowSweep::new(64),
            arrival: Arrival::Burst,
            depths: vec![4],
            policies: vec![ArmPolicy::Elevator],
            arms_grid: vec![1],
            stripes: vec![StripePolicy::RoundRobin],
            threads: 2,
            seed: 42,
            mix: None,
            operations: 64,
        }
    }

    /// What to load (total objects, split evenly across the databases;
    /// a remainder of the split is not loaded).
    #[must_use]
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = dataset;
        self
    }

    /// How many databases share the workspace (regions decluster
    /// across the arm array per database). Must be nonzero.
    #[must_use]
    pub fn databases(mut self, n: usize) -> Self {
        assert!(n > 0, "a scenario needs at least one database");
        self.databases = n;
        self
    }

    /// The one configuration of the simulated machine.
    #[must_use]
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Which storage organizations to sweep (default: all three).
    #[must_use]
    pub fn organizations(mut self, kinds: &[OrganizationKind]) -> Self {
        assert!(!kinds.is_empty(), "need at least one organization");
        self.organizations = kinds.to_vec();
        self
    }

    /// The window sweep each cell replays. Every window must fit in the
    /// unit square with room to move: sides in `[0, 1)`.
    #[must_use]
    pub fn windows(mut self, sweep: WindowSweep) -> Self {
        assert!(sweep.count() > 0, "a sweep needs at least one window");
        let (smallest, largest) = sweep.sides();
        assert!(
            smallest >= 0.0 && largest < 1.0,
            "window sides must lie in [0, 1): the sweep's smallest side is {smallest}, \
             its largest {largest}"
        );
        self.windows = sweep;
        self
    }

    /// Arrival discipline of the replay (default: burst), checked as
    /// [`Arrival::open`] and [`Arrival::closed`] check it: a positive
    /// load, at least one client, a non-negative think time.
    #[must_use]
    pub fn arrivals(mut self, arrival: Arrival) -> Self {
        self.arrival = match arrival {
            Arrival::Open(load) => Arrival::open(load),
            Arrival::Closed { clients, think_ms } => Arrival::closed(clients, think_ms),
            Arrival::Burst => Arrival::Burst,
        };
        self
    }

    /// Sweep several outstanding-request depths.
    #[must_use]
    pub fn sweep_depths(mut self, depths: &[usize]) -> Self {
        assert!(!depths.is_empty() && depths.iter().all(|&d| d > 0));
        self.depths = depths.to_vec();
        self
    }

    /// Sweep several arm scheduling policies.
    #[must_use]
    pub fn sweep_policies(mut self, policies: &[ArmPolicy]) -> Self {
        assert!(!policies.is_empty());
        self.policies = policies.to_vec();
        self
    }

    /// Sweep several arm counts (default: one arm).
    #[must_use]
    pub fn sweep_arms(mut self, arms: &[usize]) -> Self {
        assert!(!arms.is_empty() && arms.iter().all(|&a| a > 0));
        self.arms_grid = arms.to_vec();
        self
    }

    /// Sweep several stripe policies (default: round-robin).
    #[must_use]
    pub fn sweep_stripes(mut self, stripes: &[StripePolicy]) -> Self {
        assert!(!stripes.is_empty());
        self.stripes = stripes.to_vec();
        self
    }

    /// Refinement workers of the mixed stream
    /// ([`mix`](Scenario::mix)); the replay grid runs on the calling
    /// thread. The report is byte-identical at any value (the
    /// determinism contract).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Seed for dataset synthesis and the mixed stream.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// After the sweep, run a mixed operation stream per organization
    /// under the given weights ([`operations`](Scenario::operations)
    /// sets its length; default 64).
    #[must_use]
    pub fn mix(mut self, mix: Mix) -> Self {
        self.mix = Some(mix);
        self
    }

    /// Length of the mixed operation stream (only meaningful with
    /// [`mix`](Scenario::mix)).
    #[must_use]
    pub fn operations(mut self, operations: usize) -> Self {
        self.operations = operations;
        self
    }

    /// Execute the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the engine configuration is invalid
    /// ([`EngineConfig::validate`]) or a builder invariant is violated.
    pub fn run(self) -> ScenarioReport {
        self.engine
            .validate()
            .unwrap_or_else(|e| panic!("scenario '{}': invalid engine config: {e}", self.name));
        let windows = self.windows.generate();
        let per_db = self.per_db();
        let mut cells = Vec::new();
        let mut mixes = Vec::new();
        let mut conservation = Vec::new();

        for &kind in &self.organizations {
            let ws = Workspace::from_config(self.engine);
            let mut dbs = self.load(&ws, kind);
            let org = org_label(kind);
            let capture = self.capture(&ws, &mut dbs, &windows);
            conservation.push((format!("capture on {org}"), capture.books));
            let params = ws.disk().params();

            // The replay grid, in the order `to_json` lists it: stripes →
            // depths → policies → arms.
            for &stripe in &self.stripes {
                for &depth in &self.depths {
                    for &policy in &self.policies {
                        for &arms in &self.arms_grid {
                            let array = ArrayConfig {
                                arms,
                                stripe,
                                policy,
                            };
                            let metrics = self.replay_cell(params, &capture, array, depth);
                            let key = [
                                org,
                                stripe_label(stripe),
                                policy_label(policy),
                                &depth.to_string(),
                                &arms.to_string(),
                            ];
                            cells.push((key.map(String::from).to_vec(), metrics));
                        }
                    }
                }
            }

            if let Some(mix) = &self.mix {
                let (row, books) = run_mix(
                    &ws,
                    &mut dbs,
                    mix,
                    self.operations,
                    self.threads,
                    self.seed,
                    per_db,
                );
                mixes.push((vec![org.to_string()], row));
                conservation.push((format!("mix stream on {org}"), books));
            }
        }
        let keys = ["org", "stripe", "policy", "depth", "arms"];
        ScenarioReport {
            cells: figure(&self.name, "replay cells", &keys, cells),
            mix: figure(&self.name, "mixed streams", &["org"], mixes),
            name: self.name,
            objects: per_db * self.databases as u64,
            queries: windows.len(),
            databases: self.databases,
            conservation,
        }
    }

    /// Objects loaded into each database: the dataset split evenly, the
    /// remainder dropped.
    fn per_db(&self) -> u64 {
        self.dataset.objects() / self.databases as u64
    }

    /// The scenario's databases of organization `kind` on `ws`, bulk
    /// loaded with [`per_db`](Scenario::per_db) objects each.
    fn load(&self, ws: &Workspace, kind: OrganizationKind) -> Vec<SpatialDatabase> {
        let load_threads = available_threads();
        (0..self.databases)
            .map(|d| {
                let mut db = ws.create_database(DbOptions::new(kind));
                let objects = self.dataset.materialize(self.per_db(), d as u64, self.seed);
                ws.bulk_load_par(&mut db, objects, load_threads);
                db.finish_loading();
                db
            })
            .collect()
    }

    /// The filter pass every replay cell of this organization
    /// schedules: cold-start every database once, then run each window
    /// through the engine ([`Query::run`](spatialdb::Query::run)) while
    /// the disk records its requests
    /// ([`Disk::traced`](spatialdb::disk::Disk::traced)). The window's
    /// one I/O delta is both its service time — the open arrivals'
    /// spacing is the mean service time over the load factor — and its
    /// share of the capture's books.
    fn capture(&self, ws: &Workspace, dbs: &mut [SpatialDatabase], windows: &[Rect]) -> Capture {
        for db in dbs.iter_mut() {
            db.store_mut().begin_query();
        }
        let disk = ws.disk();
        let global_before = disk.stats();
        let mut attributed = IoStats::default();
        let mut requests = Vec::with_capacity(windows.len());
        for (i, w) in windows.iter().enumerate() {
            let db = &dbs[i % dbs.len()];
            let (io, trace) = disk.traced(|| db.query().window(*w).run().io_stats());
            attributed = attributed.plus(&io);
            requests.push(trace);
        }
        let inter_arrival_ms = self
            .arrival
            .spacing_ms(attributed.io_ms / windows.len() as f64);
        let traces = requests
            .into_iter()
            .enumerate()
            .map(|(i, requests)| QueryTrace {
                arrival_ms: i as f64 * inter_arrival_ms,
                requests,
            })
            .collect();
        let global = disk.stats().since(&global_before);
        Capture {
            traces,
            inter_arrival_ms,
            books: Conservation { attributed, global },
        }
    }

    /// One grid cell: replay the capture's stamped traces through an
    /// arm array of `array`'s shape at `depth` outstanding requests, as
    /// the scenario's [`Arrival`] says. Charges nothing. Returns the
    /// metrics the arrival decides ([`measures`]), each with its print
    /// precision.
    fn replay_cell(
        &self,
        params: DiskParams,
        capture: &Capture,
        array: ArrayConfig,
        depth: usize,
    ) -> Metrics {
        let geometry = ArmGeometry::default();
        let traces = &capture.traces;
        let (latency, arm_stats) = match self.arrival {
            Arrival::Closed { clients, think_ms } => {
                simulate_queries_closed(params, geometry, array, depth, clients, think_ms, traces)
            }
            _ => simulate_queries_striped(params, geometry, array, depth, traces),
        };

        let mut latencies = Vec::with_capacity(latency.len());
        let mut makespan = 0.0f64;
        let mut service = 0.0f64;
        let mut requests = 0u64;
        for lat in &latency {
            latencies.push(lat.latency_ms());
            makespan = makespan.max(lat.completed_ms);
            service += lat.service_ms;
            requests += lat.requests;
        }
        latencies.sort_by(f64::total_cmp);
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        let busy_arms = arm_stats.iter().filter(|a| a.serviced > 0).count();
        let max_util = arm_stats
            .iter()
            .map(|a| a.utilization())
            .fold(0.0, f64::max);
        let iops = if makespan > 0.0 {
            requests as f64 / makespan * 1000.0
        } else {
            0.0
        };
        let metrics = [
            ("inter_arrival_ms", 4, capture.inter_arrival_ms),
            ("p50_ms", 3, quantile(&latencies, 0.50)),
            ("p95_ms", 3, quantile(&latencies, 0.95)),
            ("p99_ms", 3, quantile(&latencies, 0.99)),
            ("mean_ms", 3, mean),
            ("makespan_ms", 3, makespan),
            ("service_ms", 3, service),
            ("iops", 2, iops),
            ("busy_arms", 0, busy_arms as f64),
            ("max_util", 3, max_util),
            ("requests", 0, requests as f64),
        ];
        metrics
            .into_iter()
            .filter(|(column, ..)| measures(self.arrival, column))
            .collect()
    }
}

/// An organization's window pass, captured once for all its replay
/// cells: each window's requests, stamped with its arrival.
struct Capture {
    traces: Vec<QueryTrace>,
    /// The open arrivals' spacing (0 under closed and burst arrivals).
    inter_arrival_ms: f64,
    /// What the pass charged: the organization's one books record.
    books: Conservation,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_the_objects_it_loads() {
        // 1 000 objects over 3 databases: 333 each, one left out.
        let scenario = Scenario::new("split")
            .dataset(Dataset::grid(1000))
            .databases(3)
            .organizations(&[OrganizationKind::Cluster])
            .windows(WindowSweep::new(3));
        let ws = Workspace::from_config(scenario.engine);
        let dbs = scenario.load(&ws, OrganizationKind::Cluster);
        assert!(dbs.iter().all(|db| db.len() == 333));
        let report = scenario.run();
        assert_eq!(report.objects, 999);
        assert!(report.to_json().contains("\"objects\": 999,"));
    }

    /// A scenario captures each organization's window pass once: a grid
    /// of eight replay cells charges exactly what a single cell does,
    /// and every cell replays every captured request.
    #[test]
    fn the_replay_grid_charges_nothing() {
        let scenario = Scenario::new("replay-grid")
            .dataset(Dataset::grid(300))
            .organizations(&[OrganizationKind::Cluster])
            .windows(WindowSweep::new(8));
        let one = scenario.clone().run();
        let grid = scenario
            .sweep_depths(&[1, 4])
            .sweep_arms(&[1, 2])
            .sweep_policies(&[ArmPolicy::Fcfs, ArmPolicy::Elevator])
            .run();
        assert_eq!(grid.cells.row_keys().count(), 8);
        let charged = |report: &ScenarioReport| {
            report.assert_stats_conserved();
            assert_eq!(report.conservation.len(), 1, "one record per organization");
            report
                .conservation
                .iter()
                .fold(IoStats::default(), |sum, (_, books)| {
                    sum.plus(&books.global)
                })
        };
        let (a, b) = (charged(&one), charged(&grid));
        assert!(a.read_requests > 0, "the capture charged nothing: {a:?}");
        assert_eq!(
            (
                a.read_requests,
                a.pages_read,
                a.write_requests,
                a.pages_written
            ),
            (
                b.read_requests,
                b.pages_read,
                b.write_requests,
                b.pages_written
            )
        );
        assert_eq!((a.seeks, a.latencies), (b.seeks, b.latencies));
        assert_eq!(a.io_ms.to_bits(), b.io_ms.to_bits());
        let captured = (b.read_requests + b.write_requests) as f64;
        let requests = grid.cells.down("requests", &[]);
        for key in grid.cells.row_keys() {
            let cell = key.join(" / ");
            assert_eq!(requests.get(&cell), captured, "{cell}");
        }
    }

    /// A load built from the public variant used to pass unchecked and
    /// panic only inside the first cell, after the bulk load.
    #[test]
    #[should_panic(expected = "arrival load factor must be positive")]
    fn an_open_arrival_at_zero_load_is_refused() {
        let _ = Scenario::new("zero-load").arrivals(Arrival::Open(0.0));
    }

    /// A negative think time replayed each client's next query before
    /// its previous one completed.
    #[test]
    #[should_panic(expected = "think time must be non-negative")]
    fn a_closed_loop_with_negative_think_time_is_refused() {
        let _ = Scenario::new("negative-think").arrivals(Arrival::Closed {
            clients: 2,
            think_ms: -5.0,
        });
    }

    /// A side of 1 left `generate` no room to place the window: its
    /// position was `% 0.0`, a NaN window the store never checked.
    #[test]
    #[should_panic(expected = "window sides must lie in [0, 1): the sweep's smallest \
                               side is 1, its largest 1")]
    fn a_sweep_of_whole_space_windows_is_refused() {
        let _ =
            Scenario::new("whole-space").windows(WindowSweep::new(3).size_base(1.0).size_amp(0.0));
    }
}
