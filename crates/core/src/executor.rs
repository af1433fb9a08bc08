//! The parallel query executor.
//!
//! The engine splits a query into the paper's two steps, and they
//! parallelize very differently:
//!
//! * the **filter step** (R\*-tree walk + object transfer) charges the
//!   simulated disk — a single arm with one LRU buffer. Its cost model
//!   is inherently serial: which accesses become requests depends on the
//!   exact order pages enter the shared buffer. The executor therefore
//!   issues the filter steps of a batch **in submission order** on the
//!   calling thread by default, which makes the per-query and aggregate
//!   [`QueryStats`]/[`IoStats`] *identical* to running the same queries
//!   sequentially — deterministic at every thread count.
//! * the **refinement step** (exact geometry tests) is pure CPU over
//!   immutable state, and is fanned across a scoped thread pool.
//!
//! Since the buffer pool is sharded
//! ([`ShardedPool`](spatialdb_disk::ShardedPool)), the filter steps *can*
//! also overlap: [`FilterMode::Overlapped`] fans whole queries
//! (filter + refinement) across the worker pool. Per-query deltas stay
//! exact — each worker measures against its own thread-local I/O tally —
//! and queries whose page sets hash to **disjoint shards** proceed
//! without ever contending, producing the same hit/miss classification
//! as the serialized order. Queries that do share pages may interleave
//! in the shared LRU state, so aggregate `io_ms` is
//! schedule-dependent; with `n_threads <= 1` the overlapped mode
//! degenerates to submission order and stays byte-deterministic (the
//! single-thread path). Use the default [`FilterMode::Serialized`]
//! whenever reproducing the paper's figures.
//!
//! Entry points: [`Query::run_par`](crate::query::Query::run_par) for
//! one query, and [`Workspace::run_batch`](crate::db::Workspace::run_batch)
//! for a batch (the queries may target different databases — anything
//! `Send + Sync`, which every [`SpatialStore`](spatialdb_storage::SpatialStore)
//! is). An [`ExecPlan`] picks the thread count and [`FilterMode`];
//! a bare thread count (`run_batch(queries, 8)`) is the serialized
//! deterministic default.

use crate::query::{Candidate, Query, Refinement, ResultCursor};
use spatialdb_disk::{
    simulate_queries_closed, simulate_queries_striped, ArmGeometry, ArmPolicy, ArmStats,
    ArrayConfig, IoStats, LatencyStats, QueryTrace, RotationModel, StripePolicy,
};
use spatialdb_rtree::LeafEntry;
use spatialdb_storage::QueryStats;

/// Materialized result of one query executed by the parallel executor.
///
/// Carries exactly what the sequential
/// [`ResultCursor`] would have produced:
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
    /// present only for batches run under
    /// [`FilterMode::OverlappedIo`] (queue wait, service and completion
    /// time in simulated ms).
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
    /// for batches run under [`FilterMode::OverlappedIo`].
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

/// Execute the filter steps in submission order on the calling thread,
/// reusing one candidate scratch buffer across the whole batch.
fn filter_phase(queries: Vec<Query<'_>>, traced: bool) -> Vec<ResultCursor<'_>> {
    let mut scratch: Vec<LeafEntry> = Vec::new();
    let queries = queries.into_iter();
    queries.map(|q| q.run_with(&mut scratch, traced)).collect()
}

/// When the queries of a timed batch arrive on the simulated clock
/// (the arrival process of [`FilterMode::OverlappedIo`]).
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

/// Configuration of the overlapped-I/O filter mode
/// ([`FilterMode::OverlappedIo`]): how deep each query's submission
/// window is, how the arms order outstanding requests, and how fast
/// queries arrive.
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
    /// Rotational-latency model of the arms' timelines (the charged
    /// accounting always stays on the flat §5.1 average).
    pub rotation: RotationModel,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig {
            depth: 4,
            policy: ArmPolicy::Elevator,
            arrival: Arrival::Burst,
            arms: 1,
            stripe: StripePolicy::RoundRobin,
            rotation: RotationModel::FlatAverage,
        }
    }
}

/// How a batch's filter steps are scheduled (the refinement step always
/// fans across the worker pool).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum FilterMode {
    /// Issue the filter steps in submission order on the calling
    /// thread: per-query and aggregate stats are byte-identical to
    /// sequential execution at every thread count. The default, and
    /// the mode every paper figure runs under.
    #[default]
    Serialized,
    /// Fan whole queries (filter + refinement) across the worker pool.
    /// Per-query deltas stay exact (thread-local tallies); queries
    /// whose page sets hit disjoint shards of the
    /// [`ShardedPool`](spatialdb_disk::ShardedPool) never contend and
    /// classify hits/misses as in submission order, while overlapping
    /// page sets make the aggregate `io_ms` schedule-dependent. With
    /// `n_threads <= 1` this degenerates to the serialized order
    /// (deterministic single-thread path).
    Overlapped,
    /// The overlapped-I/O mode: filter steps execute in submission
    /// order through the stores' **batched read path** (answers,
    /// `QueryStats` and charged `IoStats` byte-identical to
    /// [`Serialized`](FilterMode::Serialized)), each query's captured
    /// requests are replayed through the **disk-arm scheduler** with a
    /// depth-*k* submission window under an open-arrival workload, and
    /// the per-query [`LatencyStats`] land on the outcomes
    /// ([`QueryOutcome::latency_stats`]). The refinement CPU runs on
    /// the worker pool **while** this thread computes the simulated-I/O
    /// timeline. Deterministic at every thread count.
    OverlappedIo(OverlapConfig),
}

/// How a batch executes: worker-thread count plus [`FilterMode`].
///
/// The one argument of [`run_batch`] (and of
/// [`Workspace::run_batch`](crate::db::Workspace::run_batch)). A bare
/// `usize` converts into the serialized deterministic default, so
/// `run_batch(queries, 8)` keeps working:
///
/// ```
/// use spatialdb::executor::{ExecPlan, OverlapConfig};
///
/// let deterministic = ExecPlan::threads(8);
/// let concurrent = ExecPlan::threads(8).overlapped();
/// let timed = ExecPlan::threads(8).timed(OverlapConfig::default());
/// # let _ = (deterministic, concurrent, timed);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExecPlan {
    /// Worker threads for the refinement fan (and, under
    /// [`FilterMode::Overlapped`], the filter fan).
    pub threads: usize,
    /// How the filter steps are scheduled.
    pub mode: FilterMode,
}

impl ExecPlan {
    /// A serialized (deterministic) plan on `n` worker threads.
    pub fn threads(n: usize) -> Self {
        ExecPlan {
            threads: n,
            mode: FilterMode::Serialized,
        }
    }

    /// Fan whole queries (filter + refinement) across the workers
    /// ([`FilterMode::Overlapped`]).
    #[must_use]
    pub fn overlapped(mut self) -> Self {
        self.mode = FilterMode::Overlapped;
        self
    }

    /// Replay the filter steps through the disk-arm scheduler
    /// ([`FilterMode::OverlappedIo`]), attaching per-query
    /// [`LatencyStats`] to the outcomes.
    #[must_use]
    pub fn timed(mut self, cfg: OverlapConfig) -> Self {
        self.mode = FilterMode::OverlappedIo(cfg);
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
/// the serialized deterministic default): filter phase per the plan's
/// [`FilterMode`], then refinement fanned across the plan's worker
/// threads (contiguous chunks of the batch, merged back in submission
/// order).
pub fn run_batch(queries: Vec<Query<'_>>, plan: impl Into<ExecPlan>) -> BatchOutcome {
    let plan = plan.into();
    match plan.mode {
        // Overlapped scheduling only differs once two workers exist;
        // at one thread the serialized path *is* the overlap order,
        // which keeps the single-thread path deterministic.
        FilterMode::Overlapped if plan.threads > 1 => run_batch_overlapped(queries, plan.threads),
        FilterMode::OverlappedIo(cfg) => run_batch_overlapped_io(queries, plan.threads, cfg),
        _ => run_batch_serialized(queries, plan.threads),
    }
}

/// The overlapped-I/O batch runner (see [`FilterMode::OverlappedIo`]):
/// serialized traced filter phase, then the shared tail with the
/// arm-timeline simulation.
fn run_batch_overlapped_io(
    queries: Vec<Query<'_>>,
    n_threads: usize,
    cfg: OverlapConfig,
) -> BatchOutcome {
    if queries.is_empty() {
        return BatchOutcome {
            outcomes: Vec::new(),
            arm_stats: Vec::new(),
            inter_arrival_ms: 0.0,
        };
    }
    // The timed mode is the one mode with cross-query shared state (one
    // disk array, one set of DiskParams), so it must hold even when
    // called directly rather than through `Workspace::run_batch`.
    let disk = queries[0].db.store().disk();
    for (i, q) in queries.iter().enumerate() {
        assert!(
            std::sync::Arc::ptr_eq(&q.db.store().disk(), &disk),
            "query {i} targets a database of another workspace; \
             a timed batch simulates one disk array"
        );
    }
    let params = disk.params();
    finish_batch(filter_phase(queries, true), n_threads, Some((params, cfg)))
}

/// The shared tail of the serialized and timed paths: fan refinement
/// across the worker pool — optionally replaying the captured request
/// traces through the disk-arm scheduler on the calling thread
/// *meanwhile* — then zip the outcomes back in submission order.
fn finish_batch(
    mut prepared: Vec<ResultCursor<'_>>,
    n_threads: usize,
    timing: Option<(spatialdb_disk::DiskParams, OverlapConfig)>,
) -> BatchOutcome {
    if prepared.is_empty() {
        return BatchOutcome {
            outcomes: Vec::new(),
            arm_stats: Vec::new(),
            inter_arrival_ms: 0.0,
        };
    }
    // The open-arrival spacing comes from the batch's own traced filter
    // phase: mean synchronous service time over the load factor,
    // accumulated in submission order (the same summation order as a
    // sequential loop, so the figure is bit-reproducible).
    let spacing = timing.as_ref().map_or(0.0, |(_, cfg)| {
        let mean = prepared.iter().map(|p| p.stats.io_ms).sum::<f64>() / prepared.len() as f64;
        cfg.arrival.spacing_ms(mean)
    });
    let traces: Vec<QueryTrace> = if timing.is_some() {
        prepared
            .iter_mut()
            .enumerate()
            .map(|(i, p)| QueryTrace {
                arrival_ms: i as f64 * spacing,
                // The trace is only needed by the simulation — move it
                // out instead of copying every request.
                requests: std::mem::take(&mut p.trace),
            })
            .collect()
    } else {
        Vec::new()
    };
    let threads = n_threads.clamp(1, prepared.len());
    let per = prepared.len().div_ceil(threads);
    // The pins stay on this thread; the workers get the refinements
    // borrowed from them.
    let jobs: Vec<(Refinement<'_>, &[Candidate])> = prepared
        .iter()
        .map(|p| (p.refinement(), &p.candidates[..]))
        .collect();
    let (refined, timed) = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(per)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(refinement, candidates)| refinement.ids(candidates))
                        .collect::<Vec<Vec<u64>>>()
                })
            })
            .collect();
        // Refinement CPU overlaps with the simulated I/O: the workers
        // grind exact-geometry tests while this thread schedules the
        // depth-k request windows on the array's arms.
        let timed = timing.map(|(params, cfg)| {
            let array = ArrayConfig {
                arms: cfg.arms,
                stripe: cfg.stripe,
                policy: cfg.policy,
                rotation: cfg.rotation,
            };
            match cfg.arrival {
                Arrival::Closed { clients, think_ms } => simulate_queries_closed(
                    params,
                    ArmGeometry::default(),
                    array,
                    cfg.depth,
                    clients,
                    think_ms,
                    &traces,
                ),
                _ => simulate_queries_striped(
                    params,
                    ArmGeometry::default(),
                    array,
                    cfg.depth,
                    &traces,
                ),
            }
        });
        let refined: Vec<Vec<u64>> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("refinement worker panicked"))
            .collect();
        (refined, timed)
    });
    let (latency, arm_stats) = match timed {
        Some((latency, arm_stats)) => (latency.into_iter().map(Some).collect(), arm_stats),
        None => (vec![None; prepared.len()], Vec::new()),
    };
    let outcomes = prepared
        .into_iter()
        .zip(refined)
        .zip(latency)
        .map(|((p, ids), lat)| QueryOutcome {
            ids,
            stats: p.stats,
            io: p.io,
            latency: lat,
        })
        .collect();
    BatchOutcome {
        outcomes,
        arm_stats,
        inter_arrival_ms: spacing,
    }
}

/// Overlapped scheduling: contiguous chunks of the batch, each worker
/// running filter + refinement per query against the shared (sharded)
/// pool, outcomes merged back in submission order. Each worker measures
/// its queries against its own thread-local I/O tally, so the per-query
/// deltas are exact even while the workers charge the same disk
/// concurrently.
fn run_batch_overlapped(queries: Vec<Query<'_>>, n_threads: usize) -> BatchOutcome {
    if queries.is_empty() {
        return BatchOutcome {
            outcomes: Vec::new(),
            arm_stats: Vec::new(),
            inter_arrival_ms: 0.0,
        };
    }
    let threads = n_threads.clamp(1, queries.len());
    let per = queries.len().div_ceil(threads);
    let chunks: Vec<Vec<Query<'_>>> = {
        let mut chunks = Vec::with_capacity(threads);
        let mut rest = queries;
        while !rest.is_empty() {
            let tail = rest.split_off(per.min(rest.len()));
            chunks.push(rest);
            rest = tail;
        }
        chunks
    };
    let outcomes: Vec<QueryOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut scratch: Vec<LeafEntry> = Vec::new();
                    chunk
                        .into_iter()
                        .map(|q| {
                            let p = q.run_with(&mut scratch, false);
                            let ids = p.refinement().ids(&p.candidates);
                            QueryOutcome {
                                ids,
                                stats: p.stats,
                                io: p.io,
                                latency: None,
                            }
                        })
                        .collect::<Vec<QueryOutcome>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("overlapped query worker panicked"))
            .collect()
    });
    BatchOutcome {
        outcomes,
        arm_stats: Vec::new(),
        inter_arrival_ms: 0.0,
    }
}

/// Serialized scheduling: deterministic filter phase on the calling
/// thread, then the shared refinement tail.
fn run_batch_serialized(queries: Vec<Query<'_>>, n_threads: usize) -> BatchOutcome {
    finish_batch(filter_phase(queries, false), n_threads, None)
}

/// Run one query with its refinement partitioned across `n_threads`
/// (contiguous chunks of the sorted candidate list — concatenation
/// preserves the ascending id order).
pub(crate) fn run_one_par(query: Query<'_>, n_threads: usize) -> QueryOutcome {
    let p = query.run();
    if p.candidates.is_empty() {
        return QueryOutcome {
            ids: Vec::new(),
            stats: p.stats,
            io: p.io,
            latency: None,
        };
    }
    let threads = n_threads.clamp(1, p.candidates.len());
    let per = p.candidates.len().div_ceil(threads);
    let refinement = p.refinement();
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = p
            .candidates
            .chunks(per)
            .map(|chunk| scope.spawn(move || refinement.ids(chunk)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("refinement worker panicked"))
            .collect()
    });
    QueryOutcome {
        ids,
        stats: p.stats,
        io: p.io,
        latency: None,
    }
}
