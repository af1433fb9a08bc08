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
//!   (`run_batch(queries, 8)`) converts into one.
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
//!
//! Nothing here times a query on the disk arms: a query's simulated
//! latency comes from replaying the requests its store charged
//! ([`SpatialStore::window_query_traced`](spatialdb_storage::SpatialStore::window_query_traced))
//! through [`simulate_queries_striped`](spatialdb_disk::simulate_queries_striped)
//! or [`simulate_queries_closed`](spatialdb_disk::simulate_queries_closed).

use crate::query::Query;
use crate::stream::{self, Op, OpOutcome};
use spatialdb_disk::IoStats;
use spatialdb_storage::QueryStats;

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
}

/// Results of a batch run: one [`QueryOutcome`] per submitted query, in
/// submission order, plus deterministic aggregates.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    outcomes: Vec<QueryOutcome>,
}

impl BatchOutcome {
    /// Per-query outcomes in submission order.
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
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

/// How a batch executes: its worker-thread count.
///
/// The one argument of [`run_batch`] (and of
/// [`Workspace::run_batch`](crate::db::Workspace::run_batch)). A bare
/// `usize` converts into a plan, so `run_batch(queries, 8)` keeps
/// working:
///
/// ```
/// use spatialdb::executor::ExecPlan;
///
/// assert_eq!(ExecPlan::threads(8), ExecPlan::from(8));
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExecPlan {
    /// Worker threads for the refinement step.
    pub threads: usize,
}

impl ExecPlan {
    /// A plan on `n` worker threads.
    pub fn threads(n: usize) -> Self {
        ExecPlan { threads: n }
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
/// one): the queries go through the [`stream`] loop as a stream with no
/// writes — filter steps in submission order on the calling thread,
/// refinement on the plan's worker threads.
pub fn run_batch(queries: Vec<Query<'_>>, plan: impl Into<ExecPlan>) -> BatchOutcome {
    let ops = queries.into_iter().map(Op::Read).collect();
    let outcomes = stream::execute(ops, plan.into().threads)
        .into_iter()
        .map(|outcome| match outcome {
            OpOutcome::Query { ids, stats, io } => QueryOutcome { ids, stats, io },
            _ => unreachable!("a batch holds only reads"),
        })
        .collect();
    BatchOutcome { outcomes }
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
    }
}
