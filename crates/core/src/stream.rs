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
//!   run on its `threads` workers plus the calling thread. So its
//!   cursor is lazy, and a join's exact tests are one job of the queue,
//!   like a query's.
//! * **Refinement (the work queue, concurrent):** every operation
//!   becomes one job on the engine's ordered work queue
//!   ([`spatialdb_disk::blocks`]) the moment its phase-A half completes:
//!   a query's or join's CPU-bound exact-geometry tests, or a write's
//!   finished outcome. `threads` workers sweep the jobs **while phase A
//!   keeps committing**, so the queue runs on `threads + 1` threads — a
//!   writer never waits for a reader's refinement, and a reader's
//!   candidates stay refinable because the job carries a structurally
//!   shared clone of the geometry table of the root they were fixed
//!   under (a refcount bump per 64 buckets, and unlike a pin it cannot
//!   hold up reclamation of the store snapshot): later deletes edit
//!   later versions of the table, never this one. A read's or join's
//!   job is a block of its own; a write's rides in the block of the
//!   next read or join. A block is published when the next job is
//!   pushed or phase A ends, so a read's refinement can start one
//!   operation after its filter step — once the following write has
//!   committed or the following read has run its filter step — where a
//!   queue that took each job at once would have it before the next
//!   commit.
//!
//! Once phase A is through, the calling thread appends the jobs'
//! outcomes in job order, refining itself any job no worker has taken
//! up. So the full outcome — answers, per-op stats, per-op I/O — is
//! **byte-identical at any thread count** and identical to a sequential
//! loop over the same operations: determinism comes from phase A's
//! fixed order, not from barriers.
//!
//! A panic propagates to the caller instead of parking the process. One
//! in phase A (an insert of a stored id, a query without a target)
//! halts the queue on its way out, so the workers finish their job and
//! exit. A refinement's panic (refining a filter-only record), on
//! whichever thread, does not stop phase A: every operation still runs
//! its phase-A half — every write commits — and the panic is raised
//! when the calling thread reaches its job. So a stream ends with the
//! panic of its first job that panicked, and charges and commits the
//! same at every thread count. Charges made before a panic stay on the
//! disk's counters.

use crate::db::{GeometryTable, SpatialDatabase};
use crate::query::{refine_pairs, Candidate, JoinQuery, Query, Refinement, Target};
use spatialdb_disk::blocks::{self, Blocks, Spares, Sweep};
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

/// One operation as phase A leaves it: a write's outcome, or the
/// pure-CPU half of a query or join, detached the moment its candidates
/// are fixed. A refinement owns the geometry it refines against — the
/// table(s) of the root(s) the candidates came from.
enum Job {
    Write(OpOutcome),
    Query {
        geoms: GeometryTable,
        fully_refinable: bool,
        target: Target,
        candidates: Vec<Candidate>,
        stats: QueryStats,
        io: IoStats,
    },
    Join {
        left: GeometryTable,
        right: GeometryTable,
        pairs: Vec<(ObjectId, ObjectId)>,
        io: IoStats,
    },
}

impl Job {
    /// The operation's outcome: a write's as phase A left it, a query's
    /// or join's refined.
    fn outcome(&self) -> OpOutcome {
        match self {
            Job::Write(outcome) => outcome.clone(),
            Job::Query {
                geoms,
                fully_refinable,
                target,
                candidates,
                stats,
                io,
            } => {
                let refinement = Refinement {
                    geoms,
                    fully_refinable: *fully_refinable,
                    target: *target,
                };
                OpOutcome::Query {
                    ids: refinement.ids(candidates),
                    stats: *stats,
                    io: *io,
                }
            }
            Job::Join {
                left,
                right,
                pairs,
                io,
            } => {
                let mut answers = 0;
                refine_pairs(left, right, pairs, |_, hit| answers += u64::from(hit));
                OpOutcome::Join {
                    pairs: answers,
                    io: *io,
                }
            }
        }
    }
}

/// The refinement step as the queue's sweep: each job of a block to
/// its outcome, in job order.
struct Refine;

impl Sweep<Job, Vec<OpOutcome>> for Refine {
    type Scratch = ();

    fn scratch(&self) {}

    fn sweep(&self, jobs: &[Job], out: &mut Vec<OpOutcome>, _: &mut ()) {
        out.extend(jobs.iter().map(Job::outcome));
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
    // Phase A: op order on this thread. Every disk charge and every
    // commit happens here, so the per-op deltas cannot depend on the
    // worker count. A write weighs nothing: it joins the block of the
    // next read or join, which publishes the one before it.
    let phase_a = |jobs: &mut Blocks<'_, '_, Job, Vec<OpOutcome>, ()>| {
        let mut scratch: Vec<LeafEntry> = Vec::new();
        for op in ops {
            match op {
                Op::Read(query) => {
                    // The pin is dropped before the next commit, so
                    // reclamation is never held up by an op that already
                    // detached its refinement.
                    let cursor = query.run_with(&mut scratch);
                    let job = Job::Query {
                        geoms: cursor.root.geoms().clone(),
                        fully_refinable: cursor.root.fully_refinable(),
                        target: cursor.target,
                        candidates: cursor.candidates,
                        stats: cursor.stats,
                        io: cursor.io,
                    };
                    jobs.push(job, 1);
                }
                Op::Join(join) => {
                    // As for a read: the cursor's pins go before the
                    // next commit, its I/O is the outcome's. The MBR
                    // join sweeps on this thread alone (module docs).
                    let cursor = join.run_par(1);
                    let job = Job::Join {
                        left: cursor.left.geoms().clone(),
                        right: cursor.right.geoms().clone(),
                        pairs: cursor.pairs,
                        io: cursor.io,
                    };
                    jobs.push(job, 1);
                }
                Op::Insert { db, id, geometry } => {
                    let disk = db.store().disk();
                    let before = disk.local_stats();
                    db.insert(id, geometry);
                    let io = disk.local_stats().since(&before);
                    jobs.push(Job::Write(OpOutcome::Insert { io }), 0);
                }
                Op::Delete { db, id } => {
                    let disk = db.store().disk();
                    let before = disk.local_stats();
                    let existed = db.remove(id);
                    let io = disk.local_stats().since(&before);
                    jobs.push(Job::Write(OpOutcome::Delete { existed, io }), 0);
                }
            }
        }
    };
    let (outcomes, ()) = blocks::run(
        threads.max(1).saturating_add(1),
        1,
        &mut Spares::default(),
        Vec::new(),
        &Refine,
        phase_a,
        |_| (),
    );
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

    /// Two reads of filter-only records — refining either panics, the
    /// first at candidate 24, the second at candidate 0 — then an
    /// insert. At every thread count the stream ends with the first
    /// read's panic, after the insert committed, and the disk saw the
    /// same charges.
    #[test]
    fn a_refinement_panic_ends_the_stream_after_phase_a() {
        use spatialdb_rtree::ObjectId;
        use spatialdb_storage::ObjectRecord;

        let mut charged = Vec::new();
        for threads in [1, 2, 8] {
            let ws = Workspace::new(256);
            let mut db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
            for i in 0..40u64 {
                let (x, y) = ((i % 8) as f64 / 8.0, (i / 8) as f64 / 8.0);
                let mbr = Rect::new(x, y, x + 0.05, y + 0.05);
                db.store_mut()
                    .insert(&ObjectRecord::new(ObjectId(i), mbr, 700));
            }
            db.finish_loading();
            let db = &db;
            let ops = vec![
                // Rows 3 and 4: ids 24 – 39.
                StreamOp::Window {
                    db,
                    window: Rect::new(0.0, 0.32, 1.0, 0.6),
                },
                // Rows 0 and 1: ids 0 – 15.
                StreamOp::Window {
                    db,
                    window: Rect::new(0.0, 0.0, 1.0, 0.2),
                },
                StreamOp::Insert {
                    db,
                    id: 100,
                    geometry: street(0.5, 0.5),
                },
            ];
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_stream(ops, threads)))
                    .expect_err("refining filter-only records must panic");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(
                message.starts_with("candidate 24 has no exact geometry"),
                "{threads} threads: {message}"
            );
            assert!(db.geometry(100).is_some(), "{threads} threads: committed");
            charged.push(ws.disk().stats());
        }
        assert!(
            charged.iter().all(|stats| *stats == charged[0]),
            "{charged:?}"
        );
    }
}
