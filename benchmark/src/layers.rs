//! The traced pass: per-layer metrics, measured from outside.
//!
//! Three rounds and a set of probes, all on one client thread unless a
//! row says `_tN`:
//!
//! 1. the **counted round** — the untraced pass's first round again
//!    (same ops, same state), giving the exact `disk.*` decomposition of
//!    `sim_io_ms_per_op` and the untraced throughput baseline;
//! 2. the **traced direct round** — each op through the public API
//!    inside a `core.op` span, with the counting allocator armed:
//!    `core.allocs_per_op`, direct latencies, `trace_overhead_share`;
//! 3. the **replica round** — each op through a staged replica of the
//!    engine's own pipeline assembled from each crate's public
//!    functions, one span per stage, answers checked against the oracle:
//!
//!    ```text
//!    read : epoch.pin -> storage.filter -> rtree.candidates -> core.sort -> geom.refine
//!    write: storage.snapshot -> storage.apply -> epoch.swap
//!    join : join.mbr_join -> join.transfer -> geom.pair_test
//!    ```
//!
//! A workload that lacks an op kind gets a short supplement of that kind
//! on a separate probe workspace (cluster-organized A-1 and A-2), so
//! every stage has a value on every workload without disturbing the
//! workload's own pool. The probes then time single layers in isolation.

use crate::alloc;
use crate::engine::{Engine, Round};
use crate::inputs::{org_name, threads_n, Answer, Inputs, Object, Op, Workload, ALL_ORGS};
use crate::report::Metric;
use crate::session::{check_cache_regime, counted_round, Session};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use spatialdb::bulk_load_records_par;
use spatialdb::disk::{
    simulate_queries_striped, ArmGeometry, ArmPolicy, ArrayConfig, Disk, DiskParams, PageId,
    QueryTrace, RegionId, ShardedPool, PAGE_SIZE,
};
use spatialdb::geom::{Point, Rect};
use spatialdb::join::{mbr_join, transfer_objects, SpatialJoin};
use spatialdb::rtree::bulk::{build_tree, plan_tiles};
use spatialdb::rtree::io::CountingIo;
use spatialdb::rtree::{LeafEntry, NoIo, ObjectId, RTreeConfig, TilingParams, DEFAULT_STR_FILL};
use spatialdb::storage::{ObjectRecord, SpatialStore, TransferTechnique, WindowTechnique};
use spatialdb::{
    run_stream, DbOptions, EngineConfig, ExecPlan, OpOutcome, OrganizationKind, StreamOp, Workspace,
};
use spatialdb_epoch::{Collector, Snapshot};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Supplement sizes: enough samples for a stable median, small enough
/// that the traced run stays inside the driver's per-run budget.
const SUP_READS: usize = 300;
const SUP_WRITE_PAIRS: usize = 40;
/// Reads the single-layer probes replay, at most.
const PROBE_READS: usize = 4000;

fn ns_to_us(ns: f64) -> f64 {
    ns / 1e3
}

fn median_ns(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    median(&samples.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// A read, detached from the op list: what the probes replay.
#[derive(Clone, Copy)]
enum Target {
    Window(Rect),
    Point(Point),
}

impl Target {
    fn of(inputs: &Inputs, op: &Op) -> Option<Target> {
        match *op {
            Op::Window { q, .. } => Some(Target::Window(inputs.windows[q])),
            Op::Point { q, .. } => Some(Target::Point(inputs.points[q])),
            _ => None,
        }
    }

    fn filter(&self, store: &dyn SpatialStore) -> spatialdb::QueryStats {
        match self {
            Target::Window(w) => store.window_query(w, WindowTechnique::Slm),
            Target::Point(p) => store.point_query(p),
        }
    }

    fn candidates(&self, store: &dyn SpatialStore, out: &mut Vec<LeafEntry>) {
        match self {
            Target::Window(w) => store.window_candidates_into(w, out),
            Target::Point(p) => store.point_candidates_into(p, out),
        }
    }

    fn matches(&self, o: &Object) -> bool {
        match self {
            Target::Window(w) => o.geom.intersects_rect(w),
            Target::Point(p) => o.geom.contains_point(p),
        }
    }

    fn as_rect(&self) -> Rect {
        match self {
            Target::Window(w) => *w,
            Target::Point(p) => Rect::new(p.x, p.y, p.x, p.y),
        }
    }
}

/// Run `f` on each item and return the wall time of each call in ns.
fn time_each<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> Vec<u64> {
    items
        .into_iter()
        .map(|item| {
            let start = Instant::now();
            f(item);
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

fn record_of(o: &Object, id: u64) -> ObjectRecord {
    ObjectRecord::new(ObjectId(id), o.mbr, o.geom.serialized_size() as u32)
}

/// Counters the replica round accumulates beside its spans.
#[derive(Default)]
struct ReplicaCounts {
    candidates: u64,
    answers: u64,
    reads: u64,
    nodes: u64,
    mbr_pairs: u64,
    retired_max: usize,
}

/// The staged replica of the engine's pipelines. Owns the benchmark-side
/// versioned root the write replica publishes into: the engine's own
/// root is private, so `epoch.swap` exercises the same `Snapshot::swap`
/// + retire + collect code on the same payload type, one step removed.
struct Replica {
    root: Snapshot<Box<dyn SpatialStore>>,
    epochs: Collector,
    scratch: Vec<LeafEntry>,
    counts: ReplicaCounts,
}

impl Replica {
    fn new(seed_store: Box<dyn SpatialStore>) -> Self {
        Replica {
            root: Snapshot::new(seed_store),
            epochs: Collector::new(),
            scratch: Vec::new(),
            counts: ReplicaCounts::default(),
        }
    }

    /// Run `op` through the staged pipeline, spans under one root span,
    /// and return its answer.
    fn execute(
        &mut self,
        engine: &Engine,
        inputs: &Inputs,
        op: &Op,
        op_id: u32,
        tracer: &mut Tracer,
    ) -> Answer {
        match *op {
            Op::Window { db, .. } | Op::Point { db, .. } => {
                let target = Target::of(inputs, op).expect("read op");
                let db = &engine.dbs[db];
                let root = tracer.begin("replica.read", op_id, ROOT);
                let store = tracer.span("epoch.pin", op_id, root, || db.store());
                tracer.span("storage.filter", op_id, root, || target.filter(&*store));
                let scratch = &mut self.scratch;
                tracer.span("rtree.candidates", op_id, root, || {
                    target.candidates(&*store, scratch)
                });
                let ids = tracer.span("core.sort", op_id, root, || {
                    let mut ids: Vec<u64> = scratch.iter().map(|e| e.oid.0).collect();
                    ids.sort_unstable();
                    ids
                });
                // Refinement runs on the benchmark's own geometry copy:
                // `db.geometry(id)` from outside costs a pin and two map
                // lookups per candidate, which the engine does not pay.
                let answers: Vec<u64> = tracer.span("geom.refine", op_id, root, || {
                    ids.iter()
                        .copied()
                        .filter(|&id| target.matches(inputs.object(id)))
                        .collect()
                });
                tracer.end(root);
                // Untimed: the exact node count of this query's descent.
                let mut io = CountingIo::default();
                store
                    .tree()
                    .window_entries_into(&target.as_rect(), &mut io, scratch);
                self.counts.nodes += io.reads;
                self.counts.reads += 1;
                self.counts.candidates += ids.len() as u64;
                self.counts.answers += answers.len() as u64;
                Answer::of_ids(&answers)
            }
            Op::Insert { db, id } | Op::Remove { db, id } => {
                let insert = matches!(op, Op::Insert { .. });
                let record = record_of(inputs.object(id), id);
                let database = &engine.dbs[db];
                let root = tracer.begin("replica.write", op_id, ROOT);
                let mut fresh = tracer.span("storage.snapshot", op_id, root, || {
                    database.store().snapshot()
                });
                let applied = tracer.span("storage.apply", op_id, root, || {
                    if insert {
                        fresh.insert(&record);
                        true
                    } else {
                        fresh.delete(ObjectId(id))
                    }
                });
                let (slot, epochs) = (&self.root, &self.epochs);
                tracer.span("epoch.swap", op_id, root, || slot.swap(fresh, epochs));
                tracer.end(root);
                // The replica committed into the benchmark's root; the
                // database itself advances through the public call, so
                // later ops see the write.
                let (_, direct) =
                    tracer.span("core.op", op_id, ROOT, || engine.execute(inputs, op));
                self.counts.retired_max = self.counts.retired_max.max(database.retired_snapshots());
                if direct == Answer::PANICKED {
                    direct
                } else {
                    Answer::of_write(applied && direct.count == 1, id)
                }
            }
            Op::Join { left, right } => {
                let (l, r) = (&engine.dbs[left], &engine.dbs[right]);
                let root = tracer.begin("replica.join", op_id, ROOT);
                let (ls, rs) = (l.store(), r.store());
                let pool = ls.pool();
                let mbr = tracer.span("join.mbr_join", op_id, root, || {
                    mbr_join(ls.tree(), rs.tree(), &mut pool.as_ref())
                });
                tracer.span("join.transfer", op_id, root, || {
                    transfer_objects(&*ls, &*rs, &mbr.pairs, TransferTechnique::Complete)
                });
                let pairs: Vec<(u64, u64)> = tracer.span("geom.pair_test", op_id, root, || {
                    mbr.pairs
                        .iter()
                        .filter(|(a, b)| {
                            inputs.a[a.0 as usize]
                                .geom
                                .intersects(&inputs.b[b.0 as usize].geom)
                        })
                        .map(|(a, b)| (a.0, b.0))
                        .collect()
                });
                tracer.end(root);
                self.counts.mbr_pairs = mbr.pairs.len() as u64;
                Answer::of_pairs(&pairs)
            }
        }
    }
}

/// Probe-side expected answers: the supplement ops run on the probe
/// workspace, outside the session's `mixed_rw` model.
struct Supplement {
    ops: Vec<Op>,
    expected: Vec<Option<Answer>>,
}

/// What the traced pass reports.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

struct Ctx<'a> {
    session: &'a mut Session,
    /// Cluster-organized A-1 and A-2 on the probe workspace.
    pa: usize,
    pb: usize,
    /// Pool capacity of the probe machines: the workload's own.
    probe_buffer: usize,
    /// Windows added for the supplement reads, with their answers.
    sup_windows: std::ops::Range<usize>,
    join_expected: Answer,
    join_mbr_pairs: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

impl Ctx<'_> {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric::point(name, value));
    }

    /// Supplement ops for the kinds the workload's own op list lacks,
    /// with fresh ids for the writes.
    fn supplement(&mut self, workload_ops: &[Op]) -> Supplement {
        let mut ops = Vec::new();
        let mut expected = Vec::new();
        if !workload_ops.iter().any(Op::is_read) {
            for q in self.sup_windows.clone() {
                ops.push(Op::Window { db: self.pa, q });
                expected.push(Some(self.session.oracle.windows[q]));
            }
        }
        if !workload_ops.iter().any(Op::is_write) {
            for _ in 0..SUP_WRITE_PAIRS {
                let id = self.session.inputs.fresh_id();
                ops.push(Op::Insert { db: self.pa, id });
                ops.push(Op::Remove { db: self.pa, id });
                expected.extend([Some(Answer::of_write(true, id)); 2]);
            }
        }
        if !workload_ops.iter().any(|op| matches!(op, Op::Join { .. })) {
            ops.push(Op::Join {
                left: self.pa,
                right: self.pb,
            });
            expected.push(Some(self.join_expected));
        }
        Supplement { ops, expected }
    }
}

/// Run the traced pass and write the spans to `trace_path`.
pub fn traced_pass(session: &mut Session, trace_path: &std::path::Path) -> Traced {
    let spec = session.inputs.spec.clone();
    let mut problems = Vec::new();

    // ---- Round 1: counted, untraced -------------------------------
    let (first, counted) = counted_round(session, None);
    counted.check_identity(&session.engine, &mut problems);
    check_cache_regime(&session.engine, &spec, &counted, &mut problems);
    // ---- Round 2: traced direct ----------------------------------
    // Right after round 1 and before anything else touches memory, so
    // the two throughputs differ by the tracing alone.
    let (round_no, ops) = session.next_ops(Some(spec.trace_ops));
    let mut tracer = Tracer::with_capacity((ops.len() + 2 * SUP_READS) * 9 + 256);
    let mut next_op_id = 0u32;
    let mut direct = |session: &Session, tracer: &mut Tracer, ops: &[Op]| -> Round {
        Round::run_with(ops, |op| {
            next_op_id += 1;
            tracer.span("core.op", next_op_id - 1, ROOT, || {
                session.engine.execute(&session.inputs, op)
            })
        })
    };
    let (traced_round, allocated) = alloc::count(|| direct(session, &mut tracer, &ops));
    session.verify(round_no, &ops, &traced_round.answers);
    let per_op_wall = |r: &Round| r.wall_ns as f64 / r.latency_ns.len() as f64;
    let trace_overhead_share = 1.0 - per_op_wall(&first) / per_op_wall(&traced_round);

    // ---- Probe workspace -----------------------------------------
    let sup_windows = if spec.workload == Workload::Join {
        let range = session.inputs.add_windows(spec.window_area, SUP_READS, 0);
        let answers = crate::inputs::exact_windows(&session.inputs, range.clone());
        session.oracle.windows.extend(answers);
        range
    } else {
        0..0
    };
    let (join_expected, join_mbr_pairs) = match session.oracle.join {
        Some(j) => j,
        None => crate::inputs::join_oracle(&session.inputs.a, &session.inputs.b),
    };
    // Same capacity as the workload's own pool (`window_hot` shrinks its
    // pool during set-up).
    let probe_buffer = session.engine.workspaces[0].pool().capacity();
    session.engine.workspaces.push(Workspace::from_config(
        EngineConfig::default().buffer_pages(probe_buffer),
    ));
    let pw = session.engine.workspaces.len() - 1;
    let pa = session
        .engine
        .load(pw, OrganizationKind::Cluster, &session.inputs.a, false);
    let pb = session
        .engine
        .load(pw, OrganizationKind::Cluster, &session.inputs.b, true);

    let mut ctx = Ctx {
        session,
        pa,
        pb,
        probe_buffer,
        sup_windows,
        join_expected,
        join_mbr_pairs,
        metrics: Vec::new(),
        problems,
    };

    let total = counted.ops as f64;
    ctx.put("disk.pool.hit_ratio", counted.hit_ratio());
    ctx.put("disk.pool.blocked_acquisitions", counted.blocked as f64);
    ctx.put("disk.sim.seeks_per_op", counted.io.seeks as f64 / total);
    ctx.put(
        "disk.sim.latencies_per_op",
        counted.io.latencies as f64 / total,
    );
    ctx.put(
        "disk.sim.pages_read_per_op",
        counted.io.pages_read as f64 / total,
    );
    ctx.put(
        "disk.sim.pages_written_per_op",
        counted.io.pages_written as f64 / total,
    );
    ctx.put(
        "disk.sim.requests_per_op",
        counted.io.requests() as f64 / total,
    );
    ctx.put("data.generate_ms", ctx.session.inputs.generate_ms);
    ctx.put(
        "core.allocs_per_op",
        allocated.allocs as f64 / ops.len() as f64,
    );
    ctx.put(
        "core.alloc_bytes_per_op",
        allocated.bytes as f64 / ops.len() as f64,
    );
    ctx.put("trace_overhead_share", trace_overhead_share);

    // The op kinds the workload lacks, through the same direct path.
    let sup = ctx.supplement(&ops);
    let sup_round = direct(ctx.session, &mut tracer, &sup.ops);
    ctx.session.tally(&sup_round.answers, &sup.expected);
    let direct_ns = |pick: &dyn Fn(&Op) -> bool| -> Vec<u64> {
        ops.iter()
            .zip(&traced_round.latency_ns)
            .chain(sup.ops.iter().zip(&sup_round.latency_ns))
            .filter(|(op, _)| pick(op))
            .map(|(_, ns)| *ns)
            .collect()
    };
    let direct_read_ns = median_ns(&direct_ns(&Op::is_read));
    let direct_write_ns = median_ns(&direct_ns(&Op::is_write));

    // ---- Round 3: staged replica ---------------------------------
    let (round_no, ops) = ctx.session.next_ops(Some(spec.trace_ops));
    let sup = ctx.supplement(&ops);
    let write_db = ops
        .iter()
        .chain(&sup.ops)
        .find_map(|op| match op {
            Op::Insert { db, .. } | Op::Remove { db, .. } => Some(*db),
            _ => None,
        })
        .expect("every traced op list has writes");
    let mut replica = Replica::new(ctx.session.engine.dbs[write_db].store().snapshot());
    let mut run_replica = |ctx: &Ctx, tracer: &mut Tracer, ops: &[Op]| -> Vec<Answer> {
        ops.iter()
            .map(|op| {
                next_op_id += 1;
                replica.execute(
                    &ctx.session.engine,
                    &ctx.session.inputs,
                    op,
                    next_op_id - 1,
                    tracer,
                )
            })
            .collect()
    };
    let replica_answers = run_replica(&ctx, &mut tracer, &ops);
    let sup_answers = run_replica(&ctx, &mut tracer, &sup.ops);
    let replica_failed = ctx.session.verify(round_no, &ops, &replica_answers)
        + ctx.session.tally(&sup_answers, &sup.expected);
    if replica_failed > 0 {
        ctx.problems.push(format!(
            "{replica_failed} replica answers differ from the direct call's"
        ));
    }
    let Replica { counts, .. } = replica;
    if counts.mbr_pairs != ctx.join_mbr_pairs {
        ctx.problems.push(format!(
            "MBR join produced {} candidate pairs, the oracle's sweep {}",
            counts.mbr_pairs, ctx.join_mbr_pairs
        ));
    }

    let stage = |name: &str| median_ns(&tracer.durations(name));
    let total_ns = |name: &str| tracer.durations(name).iter().sum::<u64>() as f64;
    ctx.put(
        "geom.refine_ns_per_candidate",
        total_ns("geom.refine") / counts.candidates.max(1) as f64,
    );
    ctx.put(
        "geom.pair_test_ns",
        total_ns("geom.pair_test") / counts.mbr_pairs.max(1) as f64,
    );
    ctx.put(
        "geom.false_hit_ratio",
        1.0 - counts.answers as f64 / counts.candidates.max(1) as f64,
    );
    ctx.put(
        "rtree.candidates_us_per_query",
        ns_to_us(stage("rtree.candidates")),
    );
    ctx.put(
        "rtree.nodes_per_query",
        counts.nodes as f64 / counts.reads.max(1) as f64,
    );
    ctx.put("epoch.retired_max", counts.retired_max as f64);
    ctx.put("join.mbr_join_ms", stage("join.mbr_join") / 1e6);
    ctx.put("join.mbr_pairs", counts.mbr_pairs as f64);
    ctx.put("join.transfer_ms", stage("join.transfer") / 1e6);
    ctx.put("join.refine_ms", stage("geom.pair_test") / 1e6);
    let read_stages = [
        "epoch.pin",
        "storage.filter",
        "rtree.candidates",
        "core.sort",
        "geom.refine",
    ];
    let write_stages = ["storage.snapshot", "storage.apply", "epoch.swap"];
    ctx.put(
        "core.query_overhead_us",
        ns_to_us(direct_read_ns - read_stages.iter().map(|s| stage(s)).sum::<f64>()),
    );
    ctx.put(
        "core.commit_overhead_us",
        ns_to_us(direct_write_ns - write_stages.iter().map(|s| stage(s)).sum::<f64>()),
    );

    // ---- Single-layer probes -------------------------------------
    let targets: Vec<Target> = {
        let first_db = ops.iter().chain(&sup.ops).find_map(|op| match op {
            Op::Window { db, .. } | Op::Point { db, .. } => Some(*db),
            _ => None,
        });
        ops.iter()
            .chain(&sup.ops)
            .filter(|op| match op {
                Op::Window { db, .. } | Op::Point { db, .. } => Some(*db) == first_db,
                _ => false,
            })
            .filter_map(|op| Target::of(&ctx.session.inputs, op))
            .take(PROBE_READS)
            .collect()
    };
    probe_rtree(&mut ctx, &mut tracer);
    probe_pool(&mut ctx, &mut tracer);
    probe_storage(&mut ctx, &targets, &mut tracer);
    probe_epoch(&mut ctx, &mut tracer);
    probe_join(&mut ctx, &mut tracer);
    probe_core(&mut ctx, &targets, &mut tracer);
    probe_scenario(&mut ctx, &mut tracer);

    if let Err(e) = tracer.write_chrome(trace_path) {
        ctx.problems
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }
    Traced {
        metrics: ctx.metrics,
        problems: ctx.problems,
    }
}

/// Time `f` as a `probe.*` span and return its result and milliseconds.
fn probe<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let s = tracer.begin(name, u32::MAX, ROOT);
    let out = f();
    tracer.end(s);
    (out, tracer.spans()[s as usize].duration_ns() as f64 / 1e6)
}

/// `rtree`: STR build of the A-1 MBRs, then single inserts and deletes
/// on a private clone, all without I/O.
fn probe_rtree(ctx: &mut Ctx, tracer: &mut Tracer) {
    let a = &ctx.session.inputs.a;
    let held_out = (a.len() / 10).clamp(1, 1000);
    let entry = |o: &Object| LeafEntry::new(o.mbr, ObjectId(o.id), 0);
    let (bulk, rest) = a.split_at(a.len() - held_out);
    let entries: Vec<LeafEntry> = bulk.iter().map(entry).collect();
    let config = RTreeConfig::paper_default(PAGE_SIZE);
    let params = TilingParams::from_config(&config, DEFAULT_STR_FILL);
    let (built, build_ms) = probe(tracer, "probe.rtree.str_build", || {
        build_tree(
            config.clone(),
            RegionId(0),
            plan_tiles(entries, &params),
            &params,
        )
    });
    let mut tree = built.tree.clone();
    let insert_ns = time_each(rest, |o| {
        black_box(tree.insert(entry(o), &mut NoIo));
    });
    let delete_ns = time_each(rest, |o| {
        black_box(tree.delete(ObjectId(o.id), &o.mbr, &mut NoIo));
    });
    ctx.put("rtree.str_build_ms", build_ms);
    ctx.put("rtree.height", f64::from(built.tree.height()));
    ctx.put("rtree.insert_us", ns_to_us(median_ns(&insert_ns)));
    ctx.put("rtree.delete_us", ns_to_us(median_ns(&delete_ns)));
}

/// `disk`: the pool's hit path and its miss path (charge + insert +
/// evict) on a standalone pool, one page per call.
fn probe_pool(ctx: &mut Ctx, tracer: &mut Tracer) {
    const CAPACITY: u64 = 4096;
    const HITS: u64 = 400_000;
    const MISSES: u64 = 100_000;
    let disk = Disk::with_defaults();
    let region = disk.create_region("probe");
    let pool = ShardedPool::new(disk, CAPACITY as usize);
    for offset in 0..CAPACITY {
        pool.read_page(PageId::new(region, offset));
    }
    let ((), hit_ms) = probe(tracer, "probe.disk.pool_hits", || {
        // A fixed odd stride visits the resident pages in a scattered
        // but repeatable order.
        for i in 0..HITS {
            black_box(pool.read_page(PageId::new(region, (i * 2654435761) % CAPACITY)));
        }
    });
    let ((), miss_ms) = probe(tracer, "probe.disk.pool_misses", || {
        for i in 0..MISSES {
            black_box(pool.read_page(PageId::new(region, CAPACITY + i)));
        }
    });
    ctx.put("disk.pool.hit_ns", hit_ms * 1e6 / HITS as f64);
    ctx.put("disk.pool.miss_ns", miss_ms * 1e6 / MISSES as f64);
}

/// `storage` (and `disk.arm`): each organization loaded on a machine of
/// its own with the workload's buffer size, then the workload's reads
/// replayed twice through the filter step — the second, steady-state
/// replay is measured — followed by snapshot and apply costs on a
/// private copy.
fn probe_storage(ctx: &mut Ctx, targets: &[Target], tracer: &mut Tracer) {
    let records: Vec<ObjectRecord> = ctx
        .session
        .inputs
        .a
        .iter()
        .map(|o| record_of(o, o.id))
        .collect();
    let fresh: Vec<ObjectRecord> = (0..100)
        .map(|_| {
            let id = ctx.session.inputs.fresh_id();
            record_of(ctx.session.inputs.object(id), id)
        })
        .collect();
    for org in ALL_ORGS {
        let name = |stage: &str| format!("storage.{}.{stage}", org_name(org));
        let ws = Workspace::from_config(EngineConfig::default().buffer_pages(ctx.probe_buffer));
        let mut db = ws.create_database(DbOptions::new(org));
        let ((), load_ms) = probe(tracer, "probe.storage.str_load", || {
            bulk_load_records_par(db.store_mut(), &records, 1)
        });
        db.finish_loading();
        let store = db.store();
        ctx.put(name("str_load_ms"), load_ms);
        ctx.put(name("occupied_pages"), store.occupied_pages() as f64);

        for t in targets {
            black_box(t.filter(&*store));
        }
        let mut total = spatialdb::QueryStats::default();
        let filter_ns = time_each(targets, |t| total.accumulate(&t.filter(&*store)));
        ctx.put(name("filter_us_per_query"), ns_to_us(median_ns(&filter_ns)));
        ctx.put(name("sim_ms_per_4kb"), total.ms_per_4kb().unwrap_or(0.0));

        let (copy, bytes) = alloc::count(|| store.snapshot());
        drop(copy);
        // Dropping the copy is the collector's cost (`epoch.swap`), not
        // the snapshot's: keep the copies alive until the clock stopped.
        let mut copies = Vec::with_capacity(7);
        let snapshot_ns = time_each(0..7, |_| copies.push(store.snapshot()));
        drop(copies);
        ctx.put(name("snapshot_ms"), median_ns(&snapshot_ns) / 1e6);
        ctx.put(name("snapshot_bytes"), bytes.bytes as f64);

        let mut copy = store.snapshot();
        let insert_ns = time_each(&fresh, |rec| copy.insert(rec));
        let delete_ns = time_each(&fresh, |rec| {
            black_box(copy.delete(rec.oid));
        });
        ctx.put(name("apply_insert_us"), ns_to_us(median_ns(&insert_ns)));
        ctx.put(name("apply_delete_us"), ns_to_us(median_ns(&delete_ns)));

        if org == OrganizationKind::Cluster {
            probe_arm(ctx, &*store, targets, tracer);
        }
    }
}

/// `disk.arm`: request traces captured from the workload's reads on the
/// cluster organization, replayed through the arm scheduler at depth 4
/// on 1 and 4 arms, FCFS and elevator.
fn probe_arm(ctx: &mut Ctx, store: &dyn SpatialStore, targets: &[Target], tracer: &mut Tracer) {
    const REPLAYS: usize = 10;
    let traces: Vec<QueryTrace> = targets
        .iter()
        .take(200)
        .enumerate()
        .map(|(i, t)| {
            let (_, requests) = match t {
                Target::Window(w) => store.window_query_traced(w, WindowTechnique::Slm),
                Target::Point(p) => store.point_query_traced(p),
            };
            QueryTrace {
                arrival_ms: i as f64 * 5.0,
                requests,
            }
        })
        .collect();
    let events: usize = traces.iter().map(|t| t.requests.len()).sum();
    let mut configs = 0usize;
    let ((), ms) = probe(tracer, "probe.disk.arm_replay", || {
        for _ in 0..REPLAYS {
            for arms in [1, 4] {
                for policy in [ArmPolicy::Fcfs, ArmPolicy::Elevator] {
                    configs += 1;
                    black_box(simulate_queries_striped(
                        DiskParams::default(),
                        ArmGeometry::default(),
                        ArrayConfig {
                            arms,
                            policy,
                            ..ArrayConfig::default()
                        },
                        4,
                        &traces,
                    ));
                }
            }
        }
    });
    // `+ queries` so a fully cached workload (no requests) still reports
    // the scheduler's per-query cost instead of zero.
    let replayed = (events + traces.len()) * configs;
    ctx.put("disk.arm.replay_events_per_s", replayed as f64 / (ms / 1e3));
}

/// `epoch`: the reader's pin/unpin pair, and a standalone
/// `Snapshot::swap` (publish + retire + advance-and-collect, which frees
/// a whole superseded store copy).
fn probe_epoch(ctx: &mut Ctx, tracer: &mut Tracer) {
    const PINS: u64 = 200_000;
    let db = &ctx.session.engine.dbs[ctx.pa];
    let ((), pin_ms) = probe(tracer, "probe.epoch.pin", || {
        for _ in 0..PINS {
            black_box(db.store());
        }
    });
    let root: Snapshot<Box<dyn SpatialStore>> = Snapshot::new(db.store().snapshot());
    let epochs = Collector::new();
    let copies: Vec<_> = (0..9).map(|_| db.store().snapshot()).collect();
    let swap_ns = time_each(copies, |fresh| root.swap(fresh, &epochs));
    ctx.put("epoch.pin_ns", pin_ms * 1e6 / PINS as f64);
    ctx.put("epoch.swap_retire_us", ns_to_us(median_ns(&swap_ns)));
}

/// `join`: the simulated I/O of the three transfer techniques on the
/// cluster organization (Fig. 16), each from a cold buffer, and the
/// partitioned MBR phase.
fn probe_join(ctx: &mut Ctx, tracer: &mut Tracer) {
    let (pa, pb) = (ctx.pa, ctx.pb);
    for (technique, name) in [
        (
            TransferTechnique::Complete,
            "join.cluster.complete.sim_io_s",
        ),
        (
            TransferTechnique::VectorRead,
            "join.cluster.vector_read.sim_io_s",
        ),
        (TransferTechnique::Read, "join.cluster.read.sim_io_s"),
    ] {
        let dbs = &mut ctx.session.engine.dbs;
        dbs[pa].store_mut().begin_query();
        dbs[pb].store_mut().begin_query();
        let (ls, rs) = (dbs[pa].store(), dbs[pb].store());
        let stats = SpatialJoin::new(&*ls, &*rs).run_io_only(technique);
        drop((ls, rs));
        ctx.put(name, stats.io_seconds());
    }
    let dbs = &ctx.session.engine.dbs;
    let (pairs, ms) = probe(tracer, "probe.join.par", || {
        dbs[pa].join(&dbs[pb]).run_par(threads_n()).pairs()
    });
    if Answer::of_pairs(&pairs) != ctx.join_expected {
        ctx.problems
            .push("partitioned join answer differs from the oracle".to_string());
    }
    ctx.put("join.par_ms_tN", ms);
}

/// `core`: the batch and stream executors over the workload's reads,
/// a reader beside a committing writer, and the parallel bulk loader.
fn probe_core(ctx: &mut Ctx, targets: &[Target], tracer: &mut Tracer) {
    let n = threads_n();
    let spec = ctx.session.inputs.spec.clone();
    let pa = ctx.pa;

    // run_batch: at most ~0.5 s of queries per thread count.
    let batch: Vec<Target> = targets
        .iter()
        .copied()
        .take(if spec.window_area >= 1e-3 { 60 } else { 1000 })
        .collect();
    for (threads, name) in [(1, "core.run_batch.qps_t1"), (n, "core.run_batch.qps_tN")] {
        let engine = &ctx.session.engine;
        let db = &engine.dbs[pa];
        let queries: Vec<_> = batch
            .iter()
            .map(|t| match t {
                Target::Window(w) => db.query().window(*w),
                Target::Point(p) => db.query().point(*p),
            })
            .collect();
        let ws = &engine.workspaces[engine.db_ws[pa]];
        let (outcome, ms) = probe(tracer, "probe.core.run_batch", || {
            ws.run_batch(queries, ExecPlan::threads(threads))
        });
        ctx.put(name, outcome.len() as f64 / (ms / 1e3));
    }

    // run_stream: the workload's own stream where it has writes
    // (`mixed_rw`), else its reads interleaved with write pairs.
    for (threads, name) in [
        (1, "core.run_stream.ops_per_s_t1"),
        (n, "core.run_stream.ops_per_s_tN"),
    ] {
        let (round_no, ops, expected) = if spec.workload == Workload::MixedRw {
            let (round_no, ops) = ctx.session.next_ops(Some(spec.trace_ops));
            (Some(round_no), ops, Vec::new())
        } else {
            let mut ops = Vec::new();
            let mut expected = Vec::new();
            let windows: Vec<usize> = match spec.workload {
                Workload::Join => ctx.sup_windows.clone().collect(),
                _ => (0..spec.windows).collect(),
            };
            for (i, &q) in windows
                .iter()
                .take(if spec.window_area >= 1e-3 { 60 } else { 600 })
                .enumerate()
            {
                ops.push(Op::Window { db: pa, q });
                expected.push(Some(ctx.session.oracle.windows[q]));
                if i % 15 == 0 {
                    let id = ctx.session.inputs.fresh_id();
                    ops.extend([Op::Insert { db: pa, id }, Op::Remove { db: pa, id }]);
                    expected.extend([Some(Answer::of_write(true, id)); 2]);
                }
            }
            (None, ops, expected)
        };
        let engine = &ctx.session.engine;
        let inputs = &ctx.session.inputs;
        let stream: Vec<StreamOp> = ops
            .iter()
            .map(|op| match *op {
                Op::Window { db, q } => StreamOp::Window {
                    db: &engine.dbs[db],
                    window: inputs.windows[q],
                },
                Op::Point { db, q } => StreamOp::Point {
                    db: &engine.dbs[db],
                    point: inputs.points[q],
                },
                Op::Insert { db, id } => StreamOp::Insert {
                    db: &engine.dbs[db],
                    id,
                    geometry: inputs.object(id).geom.clone(),
                },
                Op::Remove { db, id } => StreamOp::Delete {
                    db: &engine.dbs[db],
                    id,
                },
                Op::Join { left, right } => StreamOp::Join {
                    left: &engine.dbs[left],
                    right: &engine.dbs[right],
                },
            })
            .collect();
        let (outcome, ms) = probe(tracer, "probe.core.run_stream", || {
            run_stream(stream, threads)
        });
        let answers: Vec<Answer> = outcome
            .outcomes()
            .iter()
            .zip(&ops)
            .map(|(o, op)| match (o, op) {
                (OpOutcome::Query { ids, .. }, _) => Answer::of_ids(ids),
                (OpOutcome::Insert { .. }, Op::Insert { id, .. }) => Answer::of_write(true, *id),
                (OpOutcome::Delete { existed, .. }, Op::Remove { id, .. }) => {
                    Answer::of_write(*existed, *id)
                }
                _ => Answer::PANICKED,
            })
            .collect();
        let failed = match round_no {
            Some(round_no) => ctx.session.verify(round_no, &ops, &answers),
            None => ctx.session.tally(&answers, &expected),
        };
        if failed > 0 {
            ctx.problems.push(format!(
                "run_stream at {threads} threads: {failed} outcomes differ from the oracle"
            ));
        }
        ctx.put(name, ops.len() as f64 / (ms / 1e3));
    }

    // One reader, alone and beside one committing writer thread.
    let reads: Vec<Target> = targets.iter().copied().take(600).collect();
    let db = &ctx.session.engine.dbs[pa];
    let read_p50 = || -> f64 {
        let ns = time_each(&reads, |t| {
            let cursor = match t {
                Target::Window(w) => db.query().window(*w).run(),
                Target::Point(p) => db.query().point(*p).run(),
            };
            black_box(cursor.ids());
        });
        ns_to_us(median_ns(&ns))
    };
    let alone = read_p50();
    let id = ctx.session.inputs.fresh_id();
    let geometry = ctx.session.inputs.object(id).geom.clone();
    let (committing, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let with_writer = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // Relaxed: both flags publish nothing but themselves.
            while !stop.load(Ordering::Relaxed) {
                db.insert(id, geometry.clone());
                assert!(db.remove(id), "writer's own insert vanished");
                committing.store(true, Ordering::Relaxed);
            }
        });
        // The reader starts only once the writer is committing, so the
        // two really overlap however short the read list is.
        while !committing.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
        let p50 = read_p50();
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread panicked");
        p50
    });
    ctx.put("core.read_p50_us_alone", alone);
    ctx.put("core.read_p50_us_with_writer", with_writer);

    for (threads, name) in [
        (1, "core.bulk_load.objects_per_s_t1"),
        (n, "core.bulk_load.objects_per_s_tN"),
    ] {
        let objects = Inputs::load_list(&ctx.session.inputs.a);
        let count = objects.len();
        let ws = Workspace::from_config(EngineConfig::default().buffer_pages(ctx.probe_buffer));
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        let ((), ms) = probe(tracer, "probe.core.bulk_load", || {
            ws.bulk_load_par(&mut db, objects, threads)
        });
        ctx.put(name, count as f64 / (ms / 1e3));
    }
}

/// `workload`: the `mixed_rw` bin's default scenario (its one-client
/// cell), run once. A guard row: no end-to-end workload runs it.
fn probe_scenario(ctx: &mut Ctx, tracer: &mut Tracer) {
    use spatialdb::disk::StripePolicy;
    use spatialdb::Arrival;
    use spatialdb_workload::{Dataset, Mix, Scenario, WindowSweep};
    let (report, ms) = probe(tracer, "probe.workload.scenario", || {
        Scenario::new("mixed-rw-c1")
            .dataset(Dataset::uniform(2000).polyline_segments(6))
            .databases(2)
            .engine(EngineConfig::default().buffer_pages(1024))
            .windows(
                WindowSweep::new(48)
                    .size_base(0.04)
                    .size_amp(0.18)
                    .size_period(6),
            )
            .arrivals(Arrival::closed(1, 2.0))
            .sweep_depths(&[4])
            .sweep_policies(&[ArmPolicy::Elevator])
            .sweep_arms(&[1, 4])
            .sweep_stripes(&[StripePolicy::RoundRobin])
            .mix(
                Mix::new()
                    .window(0.4)
                    .point(0.2)
                    .join(0.1)
                    .insert(0.15)
                    .delete(0.15),
            )
            .operations(96)
            .threads(threads_n())
            .seed(1994)
            .run()
    });
    report.assert_stats_conserved();
    ctx.put("workload.scenario_ms", ms);
}
