//! Batches and single parallel queries: adapters over the one executor.
//!
//! How operations execute — filter steps in submission order on the
//! calling thread (the simulated disk is one arm behind one LRU buffer,
//! so their cost model is inherently serial), exact-geometry refinement
//! on scoped worker threads meanwhile, every per-query and aggregate
//! [`QueryStats`]/[`IoStats`] **identical to running the same queries
//! sequentially** at any thread count — is described once, in the
//! [`stream`] module docs. This module holds no loop of its own:
//!
//! * [`run_batch`] (usually called as
//!   [`Workspace::run_batch`](crate::db::Workspace::run_batch)) hands
//!   its queries to that loop as a stream with no writes. An
//!   [`ExecPlan`] picks the worker count — a bare thread count
//!   (`run_batch(queries, 8)`) converts into one — and
//!   [`ExecPlan::timed`] additionally replays the requests the filter
//!   steps charged through the disk-arm scheduler, attaching per-query
//!   [`LatencyStats`] to the outcomes.
//! * [`Query::run_par`](crate::query::Query::run_par) fans the
//!   refinement of *one* query across threads, in contiguous chunks of
//!   its candidate list.
//!
//! To overlap the filter steps themselves, call
//! [`SpatialDatabase::query`](crate::db::SpatialDatabase::query) from
//! your own threads: the store stack is `Send + Sync`, each thread
//! measures its queries against its own I/O tally, and answers stay
//! exact — only the shared LRU state, hence the aggregate `io_ms`,
//! becomes schedule-dependent.

use crate::query::Query;
use crate::stream::{self, Op, OpOutcome};
use spatialdb_disk::{
    simulate_queries_closed, simulate_queries_striped, ArmGeometry, ArmPolicy, ArmStats,
    ArrayConfig, IoStats, LatencyStats, QueryTrace, StripePolicy,
};
use spatialdb_storage::QueryStats;
use std::sync::Arc;

/// Materialized result of one query of a batch or of
/// [`Query::run_par`](crate::query::Query::run_par).
///
/// Carries exactly what the sequential
/// [`ResultCursor`](crate::query::ResultCursor) would have produced:
/// the refined ids in ascending order and the per-query cost deltas.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    ids: Vec<u64>,
    stats: QueryStats,
    io: IoStats,
    latency: Option<LatencyStats>,
}

impl QueryOutcome {
    /// The exact answers (ids of objects surviving refinement), sorted
    /// ascending — byte-identical to the sequential cursor's
    /// [`ids`](crate::query::ResultCursor::ids).
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Consume the outcome, returning the sorted ids.
    pub fn into_ids(self) -> Vec<u64> {
        self.ids
    }

    /// Filter-step statistics of this query alone.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Detailed I/O counters of this query alone.
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Simulated latency of this query under the disk-arm scheduler —
    /// present only for batches run under [`ExecPlan::timed`] (queue
    /// wait, service and completion time in simulated ms).
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        self.latency
    }
}

/// Results of a batch run: one [`QueryOutcome`] per submitted query, in
/// submission order, plus deterministic aggregates.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    outcomes: Vec<QueryOutcome>,
    arm_stats: Vec<ArmStats>,
    inter_arrival_ms: f64,
}

impl BatchOutcome {
    /// Per-query outcomes in submission order.
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// Per-arm cumulative statistics of the simulated disk array
    /// (utilization, mean queue depth), indexed by arm — non-empty only
    /// for batches run under [`ExecPlan::timed`].
    pub fn arm_stats(&self) -> &[ArmStats] {
        &self.arm_stats
    }

    /// The open-arrival spacing the timed run actually used: query *i*
    /// arrived at `i · inter_arrival_ms` on the simulated clock. Derived
    /// from the batch's own mean service time under
    /// [`Arrival::Open`]; `0.0` for untimed batches and closed bursts.
    pub fn inter_arrival_ms(&self) -> f64 {
        self.inter_arrival_ms
    }

    /// Number of queries executed.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` if the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Aggregate [`QueryStats`] accumulated in submission order —
    /// identical to accumulating the stats of a sequential loop over the
    /// same queries (same values, same floating-point summation order).
    pub fn aggregate_stats(&self) -> QueryStats {
        let mut total = QueryStats::default();
        for o in &self.outcomes {
            total.accumulate(&o.stats);
        }
        total
    }

    /// Aggregate I/O counters, summed in submission order.
    pub fn aggregate_io(&self) -> IoStats {
        let mut total = IoStats::new();
        for o in &self.outcomes {
            total = total.plus(&o.io);
        }
        total
    }
}

impl IntoIterator for BatchOutcome {
    type Item = QueryOutcome;
    type IntoIter = std::vec::IntoIter<QueryOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.into_iter()
    }
}

/// When the queries of a timed batch arrive on the simulated clock
/// (the arrival process of [`ExecPlan::timed`]).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Arrival {
    /// All queries arrive at time 0 — a closed burst with maximal
    /// queueing. The default.
    #[default]
    Burst,
    /// Fixed spacing: query *i* arrives at `i ·` the given milliseconds.
    Every(f64),
    /// Open arrivals at a load factor: the spacing is the batch's own
    /// mean synchronous service time (`Σ io_ms / n`, measured during the
    /// traced filter phase) divided by the load. `Open(1.0)` keeps the
    /// arm saturated on average; lower loads thin the queue. The factor
    /// must be positive.
    Open(f64),
    /// A closed loop of `clients` concurrent clients, each issuing its
    /// next query `think_ms` after its previous one **completes**:
    /// arrivals self-throttle under load, producing the classic
    /// response-time-vs-clients curve
    /// ([`simulate_queries_closed`]).
    Closed {
        /// Concurrent clients (0 is treated as 1). Client `c` issues
        /// queries `c, c + clients, c + 2·clients, …` of the batch.
        clients: usize,
        /// Think time between a query's completion and the same
        /// client's next arrival (simulated ms).
        think_ms: f64,
    },
}

impl Arrival {
    /// Open arrivals at `load` (see [`Arrival::Open`]).
    pub fn open(load: f64) -> Self {
        assert!(load > 0.0, "arrival load factor must be positive");
        Arrival::Open(load)
    }

    /// Fixed spacing of `ms` simulated milliseconds between arrivals.
    pub fn every_ms(ms: f64) -> Self {
        assert!(ms >= 0.0, "arrival spacing must be non-negative");
        Arrival::Every(ms)
    }

    /// A closed loop of `clients` clients with `think_ms` think time
    /// (see [`Arrival::Closed`]).
    pub fn closed(clients: usize, think_ms: f64) -> Self {
        assert!(clients > 0, "a closed loop needs at least one client");
        assert!(think_ms >= 0.0, "think time must be non-negative");
        Arrival::Closed { clients, think_ms }
    }

    /// The inter-arrival spacing in ms, given the batch's mean
    /// synchronous service time. Closed loops have no fixed spacing
    /// (arrivals chain off completions), so they report 0 like bursts.
    fn spacing_ms(&self, mean_service_ms: f64) -> f64 {
        match *self {
            Arrival::Burst | Arrival::Closed { .. } => 0.0,
            Arrival::Every(ms) => ms,
            Arrival::Open(load) => {
                assert!(load > 0.0, "arrival load factor must be positive");
                mean_service_ms / load
            }
        }
    }
}

/// Configuration of a timed batch ([`ExecPlan::timed`]): how deep each
/// query's submission window is, how the arms order outstanding
/// requests, and how fast queries arrive.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OverlapConfig {
    /// Maximum requests one query keeps outstanding on the arm: its
    /// first `depth` requests are submitted at arrival, each completion
    /// releases the next. Depth 1 reproduces the synchronous request
    /// order.
    pub depth: usize,
    /// Arm scheduling policy across the queries' outstanding requests.
    pub policy: ArmPolicy,
    /// The arrival process stamping each query's arrival time.
    pub arrival: Arrival,
    /// Number of independent disk arms the simulated array declusters
    /// regions across (0 is treated as 1). With 1 arm (the default) the
    /// timeline is byte-identical to the single-arm scheduler whatever
    /// the stripe policy.
    pub arms: usize,
    /// How regions map to arms (see
    /// [`StripePolicy`]).
    pub stripe: StripePolicy,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig {
            depth: 4,
            policy: ArmPolicy::Elevator,
            arrival: Arrival::Burst,
            arms: 1,
            stripe: StripePolicy::RoundRobin,
        }
    }
}

/// How a batch executes: worker-thread count, plus the arm-scheduler
/// replay of a timed batch.
///
/// The one argument of [`run_batch`] (and of
/// [`Workspace::run_batch`](crate::db::Workspace::run_batch)). A bare
/// `usize` converts into an untimed plan, so `run_batch(queries, 8)`
/// keeps working:
///
/// ```
/// use spatialdb::executor::{ExecPlan, OverlapConfig};
///
/// let untimed = ExecPlan::threads(8);
/// let timed = ExecPlan::threads(8).timed(OverlapConfig::default());
/// # let _ = (untimed, timed);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExecPlan {
    /// Worker threads for the refinement step.
    pub threads: usize,
    /// Replay each query's captured requests through the disk-arm
    /// scheduler — a depth-*k* submission window under the configured
    /// arrival process — and attach the per-query [`LatencyStats`] to
    /// the outcomes ([`QueryOutcome::latency_stats`]). The queries
    /// execute exactly as in an untimed batch: same answers, same
    /// `QueryStats`, same charged `IoStats`.
    pub timed: Option<OverlapConfig>,
}

impl ExecPlan {
    /// An untimed plan on `n` worker threads.
    pub fn threads(n: usize) -> Self {
        ExecPlan {
            threads: n,
            timed: None,
        }
    }

    /// Replay the filter steps through the disk-arm scheduler (see the
    /// [`timed`](ExecPlan::timed) field).
    #[must_use]
    pub fn timed(mut self, cfg: OverlapConfig) -> Self {
        self.timed = Some(cfg);
        self
    }
}

impl Default for ExecPlan {
    fn default() -> Self {
        ExecPlan::threads(1)
    }
}

impl From<usize> for ExecPlan {
    fn from(n_threads: usize) -> Self {
        ExecPlan::threads(n_threads)
    }
}

/// Run a batch under an [`ExecPlan`] (a bare thread count converts to
/// an untimed one): the queries go through the [`stream`] loop as a
/// stream with no writes — filter steps in submission order on the
/// calling thread, refinement on the plan's worker threads — and a timed
/// plan then replays the captured requests through the disk-arm
/// scheduler.
///
/// # Panics
///
/// Panics if the plan is timed and the queries target more than one
/// workspace: a timed batch simulates one disk array.
pub fn run_batch(queries: Vec<Query<'_>>, plan: impl Into<ExecPlan>) -> BatchOutcome {
    let plan = plan.into();
    let first_disk = queries.first().map(|q| q.db.store().disk());
    let timing = plan.timed.zip(first_disk);
    // Only the replay has cross-query shared state (one disk array, one
    // set of DiskParams), so it must hold even when called directly
    // rather than through `Workspace::run_batch`.
    if let Some((_, disk)) = &timing {
        for (i, q) in queries.iter().enumerate() {
            assert!(
                Arc::ptr_eq(&q.db.store().disk(), disk),
                "query {i} targets a database of another workspace; \
                 a timed batch simulates one disk array"
            );
        }
    }
    let ops = queries.into_iter().map(Op::Read).collect();
    let (outcomes, traces) = stream::execute(ops, plan.threads, timing.is_some());
    let mut batch = BatchOutcome {
        outcomes: outcomes
            .into_iter()
            .map(|outcome| match outcome {
                OpOutcome::Query { ids, stats, io } => QueryOutcome {
                    ids,
                    stats,
                    io,
                    latency: None,
                },
                _ => unreachable!("a batch holds only reads"),
            })
            .collect(),
        arm_stats: Vec::new(),
        inter_arrival_ms: 0.0,
    };
    let Some((cfg, disk)) = timing else {
        return batch;
    };
    // The open-arrival spacing comes from the batch's own filter steps:
    // mean synchronous service time over the load factor, accumulated in
    // submission order (the same summation order as a sequential loop,
    // so the figure is bit-reproducible).
    let service_ms = batch.outcomes.iter().map(|o| o.stats.io_ms).sum::<f64>();
    let spacing = cfg.arrival.spacing_ms(service_ms / batch.len() as f64);
    let traces: Vec<QueryTrace> = traces
        .into_iter()
        .enumerate()
        .map(|(i, requests)| QueryTrace {
            arrival_ms: i as f64 * spacing,
            requests,
        })
        .collect();
    let array = ArrayConfig {
        arms: cfg.arms,
        stripe: cfg.stripe,
        policy: cfg.policy,
    };
    let geometry = ArmGeometry::default();
    let (latency, arm_stats) = match cfg.arrival {
        Arrival::Closed { clients, think_ms } => simulate_queries_closed(
            disk.params(),
            geometry,
            array,
            cfg.depth,
            clients,
            think_ms,
            &traces,
        ),
        _ => simulate_queries_striped(disk.params(), geometry, array, cfg.depth, &traces),
    };
    for (outcome, latency) in batch.outcomes.iter_mut().zip(latency) {
        outcome.latency = Some(latency);
    }
    batch.arm_stats = arm_stats;
    batch.inter_arrival_ms = spacing;
    batch
}

/// The fan-out *within* one operation: split `items` into at most
/// `threads` contiguous chunks, map each on its own scoped thread, and
/// concatenate the results in chunk order. A worker's panic is the
/// caller's: it resumes here with its own payload.
pub(crate) fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    map: impl Fn(&[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    let per = items.len().div_ceil(threads.max(1)).max(1);
    if items.len() <= per {
        return map(items);
    }
    std::thread::scope(|scope| {
        let map = &map;
        let workers: Vec<_> = items
            .chunks(per)
            .map(|chunk| scope.spawn(move || map(chunk)))
            .collect();
        let mut merged = Vec::with_capacity(items.len());
        for worker in workers {
            match worker.join() {
                Ok(part) => merged.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        merged
    })
}

/// Run one query with its refinement partitioned across `n_threads`
/// (contiguous chunks of the sorted candidate list — concatenation
/// preserves the ascending id order).
pub(crate) fn run_one_par(query: Query<'_>, n_threads: usize) -> QueryOutcome {
    let p = query.run();
    let refinement = p.refinement();
    QueryOutcome {
        ids: map_chunks(&p.candidates, n_threads, |chunk| refinement.ids(chunk)),
        stats: p.stats,
        io: p.io,
        latency: None,
    }
}
