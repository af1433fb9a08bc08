//! The one executor: every sequence of operations — a mixed stream of
//! reads **and writes** ([`run_stream`]) or a batch of queries
//! ([`Workspace::run_batch`](crate::db::Workspace::run_batch), a stream
//! with no writes) — runs through the loop in this module, without
//! serial barriers. Both return a [`StreamOutcome`]; an [`ExecPlan`]
//! (or a bare thread count) picks the batch's worker count.
//!
//! The operations — window queries, point queries, spatial joins,
//! inserts and deletes, possibly against several databases of one
//! workspace — execute under the shadow-paging concurrency model of
//! [`SpatialDatabase`], split into the paper's two steps:
//!
//! * **Phase A (op order, calling thread):** every operation's
//!   I/O-charging half runs here, in logical commit order. A query op
//!   pins a snapshot and runs its filter step, which hands it the
//!   candidates; a join op runs its `JoinQuery` (MBR join and object
//!   transfer), which hands it the candidate pairs; an
//!   insert/delete commits through the `&self` shadow-paging write path
//!   and publishes a new root. The simulated disk is one arm behind one
//!   LRU buffer — which accesses become requests depends on the exact
//!   order pages enter the buffer — so this half is inherently serial.
//!   Per-op [`IoStats`] deltas are measured against the calling thread's
//!   local tally, so they are exact and independent of the worker count.
//!   A join in phase A does not fan out: it runs as
//!   [`JoinQuery::run_par`]`(1)`, its leaf-pair sweeps on the calling
//!   thread too. The stream's parallelism is its refinement workers,
//!   which already run beside phase A — a join fanning out there would
//!   compete with them for the same cores, and a stream would no longer
//!   run on its `threads` workers plus the calling thread. A join's
//!   exact tests are one job of the queue, like a query's.
//! * **Refinement (worker pool, concurrent):** the CPU-bound
//!   exact-geometry tests of each query/join are handed to a shared
//!   work queue the moment its phase-A half completes, and scoped
//!   workers drain the queue **while phase A keeps committing** — a
//!   writer never waits for a reader's refinement, and a reader's
//!   candidates stay refinable because the job carries a structurally
//!   shared clone of the geometry table of the root they were fixed
//!   under (a refcount bump per 64 buckets, and unlike a pin it cannot
//!   hold up reclamation of the store snapshot): later deletes edit
//!   later versions of the table, never this one.
//!
//! Results are merged back by op index, so the full outcome — answers,
//! per-op stats, per-op I/O — is **byte-identical at any thread count**
//! and identical to a sequential loop over the same operations:
//! determinism comes from phase A's fixed order, not from barriers.
//!
//! A panic propagates to the caller instead of parking the process: one
//! in phase A (an insert of a stored id, a query without a target)
//! closes the queue on its way out, so the workers drain and exit; one
//! in a worker (refining a filter-only record) is re-raised once phase A
//! is through. Charges made before the panic stay on the disk's
//! counters.

use spatialdb_disk::{DepGuard, DepMutex, LockClass};
use std::collections::VecDeque;
use std::sync::Condvar;

use crate::db::{GeometryTable, SpatialDatabase};
use crate::query::{refine_pairs, Candidate, JoinQuery, Query, Refinement, Target};
use spatialdb_disk::IoStats;
use spatialdb_geom::{Geometry, Point, Rect};
use spatialdb_rtree::{LeafEntry, ObjectId};
use spatialdb_storage::QueryStats;

/// One operation of a mixed read/write stream.
#[derive(Debug)]
pub enum StreamOp<'a> {
    /// A window query: all objects sharing a point with the rectangle.
    Window {
        /// Database to query.
        db: &'a SpatialDatabase,
        /// The query window.
        window: Rect,
    },
    /// A point query: all objects containing the point.
    Point {
        /// Database to query.
        db: &'a SpatialDatabase,
        /// The query point.
        point: Point,
    },
    /// A spatial join between two databases of one workspace: a
    /// [`JoinQuery`] with nothing set (complete transfer).
    Join {
        /// Left operand.
        left: &'a SpatialDatabase,
        /// Right operand.
        right: &'a SpatialDatabase,
    },
    /// Insert an object (commits through the `&self` shadow-paging
    /// write path).
    Insert {
        /// Database to insert into.
        db: &'a SpatialDatabase,
        /// New object id (must not be stored yet).
        id: u64,
        /// Exact geometry of the object.
        geometry: Geometry,
    },
    /// Delete an object by id (a miss is recorded, not an error).
    Delete {
        /// Database to delete from.
        db: &'a SpatialDatabase,
        /// Object id to delete.
        id: u64,
    },
}

/// The materialized result of one [`StreamOp`].
#[derive(Clone, Debug)]
pub enum OpOutcome {
    /// A window/point query: refined ids (ascending), filter stats and
    /// this op's exact I/O delta.
    Query {
        /// Exact answers, sorted ascending.
        ids: Vec<u64>,
        /// Filter-step statistics of this query alone.
        stats: QueryStats,
        /// I/O charged by this query alone.
        io: IoStats,
    },
    /// A join: number of exactly-intersecting pairs and the I/O delta
    /// of the MBR join + object transfer.
    Join {
        /// Pairs surviving exact refinement.
        pairs: u64,
        /// I/O charged by this join alone.
        io: IoStats,
    },
    /// An insert commit.
    Insert {
        /// I/O charged by this insert alone.
        io: IoStats,
    },
    /// A delete commit.
    Delete {
        /// Whether the object existed (and was removed).
        existed: bool,
        /// I/O charged by this delete alone.
        io: IoStats,
    },
}

impl OpOutcome {
    /// This operation's exact I/O delta.
    pub fn io_stats(&self) -> IoStats {
        match self {
            OpOutcome::Query { io, .. }
            | OpOutcome::Join { io, .. }
            | OpOutcome::Insert { io }
            | OpOutcome::Delete { io, .. } => *io,
        }
    }

    /// Exact answers this operation produced: refined ids for a query,
    /// refined pairs for a join, 0 for writes.
    pub fn results(&self) -> u64 {
        match self {
            OpOutcome::Query { ids, .. } => ids.len() as u64,
            OpOutcome::Join { pairs, .. } => *pairs,
            OpOutcome::Insert { .. } | OpOutcome::Delete { .. } => 0,
        }
    }
}

/// Results of a mixed stream, one [`OpOutcome`] per op in stream order.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    outcomes: Vec<OpOutcome>,
}

impl StreamOutcome {
    /// Per-op outcomes in stream order.
    pub fn outcomes(&self) -> &[OpOutcome] {
        &self.outcomes
    }

    /// Number of operations executed.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` if the stream was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Total exact answers across the stream (query ids + join pairs).
    pub fn results(&self) -> u64 {
        self.outcomes.iter().map(OpOutcome::results).sum()
    }

    /// Aggregate I/O, summed in stream order — identical to a
    /// sequential loop's accumulation.
    pub fn aggregate_io(&self) -> IoStats {
        let mut total = IoStats::new();
        for o in &self.outcomes {
            total = total.plus(&o.io_stats());
        }
        total
    }
}

/// How a batch executes: its worker-thread count.
///
/// The one argument of
/// [`Workspace::run_batch`](crate::db::Workspace::run_batch) besides the
/// queries. A bare `usize` converts into a plan, so
/// `run_batch(queries, 8)` keeps working:
///
/// ```
/// use spatialdb::ExecPlan;
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

/// What the loop executes: a [`StreamOp`], with window and point ops
/// spelled as the [`Query`] a batch hands over (which may carry its own
/// technique) and a join as its [`JoinQuery`].
pub(crate) enum Op<'a> {
    Read(Query<'a>),
    Join(JoinQuery<'a>),
    Insert {
        db: &'a SpatialDatabase,
        id: u64,
        geometry: Geometry,
    },
    Delete {
        db: &'a SpatialDatabase,
        id: u64,
    },
}

impl<'a> From<StreamOp<'a>> for Op<'a> {
    fn from(op: StreamOp<'a>) -> Self {
        match op {
            StreamOp::Window { db, window } => Op::Read(db.query().window(window)),
            StreamOp::Point { db, point } => Op::Read(db.query().point(point)),
            StreamOp::Join { left, right } => Op::Join(left.join(right)),
            StreamOp::Insert { db, id, geometry } => Op::Insert { db, id, geometry },
            StreamOp::Delete { db, id } => Op::Delete { db, id },
        }
    }
}

/// A refinement unit: the pure-CPU half of a query or join, detached
/// from phase A the moment its candidates are fixed. It owns the
/// geometry it refines against — the table(s) of the root(s) the
/// candidates came from.
enum RefineJob {
    Query {
        index: usize,
        geoms: GeometryTable,
        fully_refinable: bool,
        target: Target,
        candidates: Vec<Candidate>,
    },
    Join {
        index: usize,
        left: GeometryTable,
        right: GeometryTable,
        pairs: Vec<(ObjectId, ObjectId)>,
    },
}

/// What a worker hands back for a job, keyed by op index.
enum Refined {
    Ids(Vec<u64>),
    Pairs(u64),
}

/// The shared refinement queue: phase A pushes, workers pop; closing
/// wakes everyone to drain and exit.
struct RefineQueue {
    queue: DepMutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<RefineJob>,
    closed: bool,
}

impl RefineQueue {
    fn new() -> Self {
        RefineQueue {
            queue: DepMutex::new(
                LockClass::RefineQueue,
                QueueState {
                    jobs: VecDeque::new(),
                    closed: false,
                },
            ),
            ready: Condvar::new(),
        }
    }

    /// The queue is strictly leaf-level (last rank of the hierarchy):
    /// no other lock is taken while pushing, popping, or waiting here
    /// (phase A pushes only after its commit/pin released everything).
    fn locked(&self) -> DepGuard<'_, QueueState> {
        self.queue.acquire()
    }

    fn push(&self, job: RefineJob) {
        self.locked().jobs.push_back(job);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.locked().closed = true;
        self.ready.notify_all();
    }

    /// Blocking pop; `None` once the queue is closed and drained.
    fn pop(&self) -> Option<RefineJob> {
        let mut state = self.locked();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = state.wait(&self.ready);
        }
    }
}

/// Closes the queue when phase A ends, whether it returns or unwinds: a
/// panicking filter step or commit must release the workers parked in
/// [`RefineQueue::pop`], or the scope joining them never returns.
struct CloseOnDrop<'q>(&'q RefineQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Execute a mixed read/write stream on `threads` refinement workers.
///
/// See the [module docs](self) for the execution model. The returned
/// [`StreamOutcome`] is byte-identical at any `threads` value; all
/// databases referenced by the ops should share one workspace (their
/// per-op I/O is measured on the calling thread's tally).
///
/// # Panics
///
/// Propagates the panic of an op that cannot execute — an insert of a
/// stored id, a query or join that refines a filter-only record.
pub fn run_stream(ops: Vec<StreamOp<'_>>, threads: usize) -> StreamOutcome {
    execute(ops.into_iter().map(Op::from).collect(), threads)
}

/// The loop itself (see the [module docs](self)): one outcome per op in
/// op order.
pub(crate) fn execute(ops: Vec<Op<'_>>, threads: usize) -> StreamOutcome {
    let mut outcomes: Vec<OpOutcome> = Vec::with_capacity(ops.len());
    if ops.is_empty() {
        return StreamOutcome { outcomes };
    }
    let workers = threads.clamp(1, ops.len());
    let queue = RefineQueue::new();
    let refined: Vec<(usize, Refined)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(job) = queue.pop() {
                        match job {
                            RefineJob::Query {
                                index,
                                geoms,
                                fully_refinable,
                                target,
                                candidates,
                            } => {
                                let refinement = Refinement {
                                    geoms: &geoms,
                                    fully_refinable,
                                    target,
                                };
                                done.push((index, Refined::Ids(refinement.ids(&candidates))));
                            }
                            RefineJob::Join {
                                index,
                                left,
                                right,
                                pairs,
                            } => {
                                let n = refine_pairs(&left, &right, &pairs).len();
                                done.push((index, Refined::Pairs(n as u64)));
                            }
                        }
                    }
                    done
                })
            })
            .collect();

        // Phase A: op order on this thread. Every disk charge and every
        // commit happens here, so the per-op deltas cannot depend on the
        // worker count — and every refinement job is live on the queue
        // before the next commit runs, never after a barrier.
        let phase_a = CloseOnDrop(&queue);
        let mut scratch: Vec<LeafEntry> = Vec::new();
        for (index, op) in ops.into_iter().enumerate() {
            match op {
                Op::Read(query) => {
                    // The pin is dropped before the next commit, so
                    // reclamation is never held up by an op that already
                    // detached its refinement.
                    let cursor = query.run_with(&mut scratch);
                    queue.push(RefineJob::Query {
                        index,
                        geoms: cursor.root.geoms().clone(),
                        fully_refinable: cursor.root.fully_refinable(),
                        target: cursor.target,
                        candidates: cursor.candidates,
                    });
                    // The ids are filled in at merge time.
                    outcomes.push(OpOutcome::Query {
                        ids: Vec::new(),
                        stats: cursor.stats,
                        io: cursor.io,
                    });
                }
                Op::Join(join) => {
                    // As for a read: the cursor's pins go before the
                    // next commit, its I/O is the outcome's. The MBR
                    // join sweeps on this thread alone (module docs).
                    let cursor = join.run_par(1);
                    outcomes.push(OpOutcome::Join {
                        pairs: 0,
                        io: cursor.io,
                    });
                    queue.push(RefineJob::Join {
                        index,
                        left: cursor.left.geoms().clone(),
                        right: cursor.right.geoms().clone(),
                        pairs: cursor.pairs,
                    });
                }
                Op::Insert { db, id, geometry } => {
                    let disk = db.store().disk();
                    let before = disk.local_stats();
                    db.insert(id, geometry);
                    outcomes.push(OpOutcome::Insert {
                        io: disk.local_stats().since(&before),
                    });
                }
                Op::Delete { db, id } => {
                    let disk = db.store().disk();
                    let before = disk.local_stats();
                    let existed = db.remove(id);
                    outcomes.push(OpOutcome::Delete {
                        existed,
                        io: disk.local_stats().since(&before),
                    });
                }
            }
        }
        drop(phase_a);
        handles
            .into_iter()
            // The caller sees a refinement panic itself.
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    // Merge the detached refinements back by op index.
    for (index, result) in refined {
        match (&mut outcomes[index], result) {
            (OpOutcome::Query { ids, .. }, Refined::Ids(v)) => *ids = v,
            (OpOutcome::Join { pairs, .. }, Refined::Pairs(n)) => *pairs = n,
            _ => unreachable!("refinement result kind mismatches its op"),
        }
    }
    StreamOutcome { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbOptions, Workspace};
    use spatialdb_geom::Polyline;
    use spatialdb_storage::OrganizationKind;

    fn street(x: f64, y: f64) -> Geometry {
        Polyline::new(vec![
            Point::new(x, y),
            Point::new((x + 0.01).min(1.0), (y + 0.005).min(1.0)),
        ])
        .into()
    }

    fn loaded_db(ws: &Workspace, n: u64) -> SpatialDatabase {
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..n {
            let f = i as f64 / n as f64;
            db.insert(i, street(f * 0.9, (f * 7.0) % 0.9));
        }
        db.finish_loading();
        db
    }

    fn mixed_ops<'a>(db: &'a SpatialDatabase, other: &'a SpatialDatabase) -> Vec<StreamOp<'a>> {
        vec![
            StreamOp::Window {
                db,
                window: Rect::new(0.0, 0.0, 0.6, 0.6),
            },
            StreamOp::Insert {
                db,
                id: 10_000,
                geometry: street(0.5, 0.5),
            },
            StreamOp::Point {
                db,
                point: Point::new(0.305, 0.135),
            },
            StreamOp::Join {
                left: db,
                right: other,
            },
            StreamOp::Delete { db, id: 3 },
            StreamOp::Window {
                db,
                window: Rect::new(0.4, 0.4, 1.0, 1.0),
            },
            StreamOp::Delete { db, id: 999_999 },
        ]
    }

    #[test]
    fn stream_outcome_is_identical_at_any_thread_count() {
        let run = |threads: usize| {
            let ws = Workspace::new(256);
            let a = loaded_db(&ws, 40);
            let b = loaded_db(&ws, 25);
            let out = run_stream(mixed_ops(&a, &b), threads);
            (format!("{out:?}"), out.results(), out.aggregate_io())
        };
        let one = run(1);
        for threads in [2, 8] {
            assert_eq!(one, run(threads), "diverged at {threads} threads");
        }
    }

    #[test]
    fn writes_take_effect_in_stream_order() {
        let ws = Workspace::new(256);
        let a = loaded_db(&ws, 40);
        let b = loaded_db(&ws, 25);
        let out = run_stream(mixed_ops(&a, &b), 4);
        assert_eq!(out.len(), 7);
        // The insert landed before the second window; the delete of id 3
        // happened after the first window (which still saw it).
        let OpOutcome::Query { ids: first, .. } = &out.outcomes()[0] else {
            panic!("op 0 is a window");
        };
        assert!(first.contains(&3), "op 0 predates the delete");
        let OpOutcome::Query { ids: last, .. } = &out.outcomes()[5] else {
            panic!("op 5 is a window");
        };
        assert!(last.contains(&10_000), "op 5 follows the insert");
        assert!(!last.contains(&3), "op 5 follows the delete");
        let OpOutcome::Delete { existed, .. } = out.outcomes()[4] else {
            panic!("op 4 is a delete");
        };
        assert!(existed);
        let OpOutcome::Delete { existed: miss, .. } = out.outcomes()[6] else {
            panic!("op 6 is a delete");
        };
        assert!(!miss, "deleting an unknown id reports a miss");
        assert!(a.geometry(3).is_none());
        assert!(a.geometry(10_000).is_some());
    }

    #[test]
    fn per_op_io_sums_to_the_global_delta() {
        let ws = Workspace::new(256);
        let a = loaded_db(&ws, 40);
        let b = loaded_db(&ws, 25);
        let before = ws.disk().stats();
        let out = run_stream(mixed_ops(&a, &b), 3);
        let global = ws.disk().stats().since(&before);
        let attributed = out.aggregate_io();
        // Integer counters exactly; io_ms within float-summation
        // tolerance (the global counter accumulates in a different
        // association order than the per-op deltas).
        assert_eq!(attributed.read_requests, global.read_requests);
        assert_eq!(attributed.pages_read, global.pages_read);
        assert_eq!(attributed.write_requests, global.write_requests);
        assert_eq!(attributed.pages_written, global.pages_written);
        assert_eq!(attributed.seeks, global.seeks);
        assert_eq!(attributed.latencies, global.latencies);
        assert!((attributed.io_ms - global.io_ms).abs() <= 1e-6 * global.io_ms.abs().max(1.0));
    }

    /// Run `op` on a helper thread; it must panic, and within 10 s — a
    /// phase-A panic that leaves the workers parked on the queue never
    /// comes back at all.
    fn panics_promptly(what: &str, op: impl FnOnce() + Send + 'static) {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(op));
            let _ = done.send(result.is_err());
        });
        match outcome.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(panicked) => assert!(panicked, "{what} returned instead of panicking"),
            Err(_) => panic!("{what} hung"),
        }
    }

    #[test]
    fn a_phase_a_panic_reaches_the_caller() {
        let window = Rect::new(0.0, 0.0, 0.6, 0.6);
        for threads in [1, 4] {
            panics_promptly(&format!("run_stream({threads})"), move || {
                let ws = Workspace::new(256);
                let db = &loaded_db(&ws, 40);
                let stored = StreamOp::Insert {
                    db,
                    id: 3,
                    geometry: street(0.5, 0.5),
                };
                run_stream(vec![StreamOp::Window { db, window }, stored], threads);
            });
            panics_promptly(&format!("run_batch({threads})"), move || {
                let ws = Workspace::new(256);
                let db = loaded_db(&ws, 40);
                let no_target = db.query();
                ws.run_batch(vec![db.query().window(window), no_target], threads);
            });
        }
    }
}
