//! The differential matrix: an organization (§3) or a window or
//! transfer technique (§4 – §6) changes what an operation costs, never
//! what it answers. Seeded operation streams and named fixed cases run on
//! the secondary, primary and cluster organizations, `MemoryStore` and
//! `HintlessStore` (entries without a hint), each loaded by `insert` and
//! by `bulk_load_par` on 1 and on 8 threads, against a brute-force oracle
//! over `id → Geometry`. Every window and point under each window
//! technique, and every join under each transfer technique, answers what
//! the oracle answers — ascending, with the candidates, bytes and
//! undecided counts it predicts — on every read and join path
//! (`Walk::reads`, `Walk::join`), each path from a cold buffer reporting
//! the same stats, I/O, `Disk::traced` requests and pool counts. A
//! window's *optimum* costs no more than another technique (a join's
//! *optimum* transfer can cost more than *read*'s: seed 239 of the
//! sweep). Each run of reads commits through `run_stream` with the writes
//! after it: the per-op I/O sums bit for bit to the disk's delta, the
//! store stays consistent, cursors opened before a write answer as
//! before, and a duplicate id or (on the cluster organization) an object
//! over `Smax` is refused without a trace. The memory stores charge
//! nothing but their MBR join's node reads, the disk stores charge. The
//! two bulk loads agree step for step. A failing case is shrunk by prefix
//! bisection: its shortest failing prefix is printed with the case's name
//! (a seeded case's is its seed).

mod foreign_store;
mod lattice;

use foreign_store::HintlessStore;
use lattice::{at, lattice_objects, STEP};
use spatialdb::data::rng::SmallRng;
use spatialdb::disk::PageRequest;
use spatialdb::geom::{HasMbr, Hint, Point, Polygon, Polyline, Rect, Verdict};
use spatialdb::rtree::validate::check_invariants;
use spatialdb::storage::{MemoryStore, PrimaryOrganization, QueryStats, TransferTechnique};
use spatialdb::{run_stream, DbOptions, Geometry, IoStats, OpOutcome, OrganizationKind, Query};
use spatialdb::{SpatialDatabase, StreamOp, WindowTechnique, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use OrganizationKind::{Cluster, Primary, Secondary};
use WindowTechnique::Slm;

const ALL_TECHNIQUES: [WindowTechnique; 4] = [
    WindowTechnique::Complete,
    WindowTechnique::Threshold,
    Slm,
    WindowTechnique::Optimum,
];

const ALL_TRANSFERS: [TransferTechnique; 4] = [
    TransferTechnique::Complete,
    TransferTechnique::VectorRead,
    TransferTechnique::Read,
    TransferTechnique::Optimum,
];

/// `Smax` of the cluster organization, unless a case sets another.
const SMAX: u64 = 8 * 1024;

/// A polyline of this many vertices is `SMAX` bytes (48 header bytes,
/// 16 a vertex).
const VERTICES_AT_SMAX: usize = (SMAX as usize - 48) / 16;

#[derive(Clone, Debug)]
enum Op {
    Window(Rect),
    Point(Point),
    /// A join with the case's partner map; its take path takes `k` pairs.
    Join(usize),
    Insert(u64, Geometry),
    Delete(u64),
}

/// A bulk load into an empty database, a partner map for the joins, and
/// the operations that follow.
#[derive(Clone, Default)]
struct Case {
    name: String,
    load: Vec<(u64, Geometry)>,
    partner: Vec<(u64, Geometry)>,
    ops: Vec<Op>,
    smax: u64,
    /// The cluster organization uses the restricted buddy system.
    buddy: bool,
    /// Every loaded tree is at least this high.
    min_height: u32,
    /// The operations remove enough that every tree ends with fewer
    /// nodes than it was loaded with.
    condenses: bool,
}

impl Case {
    fn fixed(name: &str, load: Vec<(u64, Geometry)>, ops: Vec<Op>) -> Case {
        let (name, smax) = (name.into(), SMAX);
        Case {
            name,
            load,
            ops,
            smax,
            ..Case::default()
        }
    }

    fn with(mut self, set: impl FnOnce(&mut Case)) -> Case {
        set(&mut self);
        self
    }

    fn prefix(&self, n: usize) -> Case {
        let mut prefix = self.clone();
        prefix.ops.truncate(n);
        prefix.condenses &= n == self.ops.len();
        prefix
    }
}

/// A random walk of `n` vertices from `(x, y)`, each step up to `step`.
fn random_walk(rng: &mut SmallRng, (mut x, mut y): (f64, f64), step: f64, n: usize) -> Vec<Point> {
    let mut step = || rng.gen_range(-step..step.max(1e-9));
    let mut next = |_| {
        (x, y) = (x + step(), y + step());
        Point::new(x, y)
    };
    (0..n).map(&mut next).collect()
}

/// A seeded object: a point, an axis-parallel segment (a zero-area MBR),
/// a region, a street — or a street of exactly `SMAX` bytes.
fn object(rng: &mut SmallRng) -> Geometry {
    let start = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
    let ((x, y), step) = (start, 0.03 * rng.gen_range(0.0..1.0f64).powi(2));
    match rng.gen_range(0..16usize) {
        0 => Point::new(x, y).into(),
        1 => Polyline::new(vec![Point::new(x, y), Point::new(x + step, y)]).into(),
        2 => Polyline::new(vec![Point::new(x, y), Point::new(x, y + step)]).into(),
        3 => Polyline::new(random_walk(rng, start, step / 30.0, VERTICES_AT_SMAX)).into(),
        4..=6 => {
            let n = rng.gen_range(3..9usize);
            Polygon::new(random_walk(rng, start, step, n)).into()
        }
        _ => {
            let n = rng.gen_range(2..13usize);
            Polyline::new(random_walk(rng, start, step, n)).into()
        }
    }
}

fn vertices(g: &Geometry) -> &[Point] {
    match g {
        Geometry::Polyline(l) => l.polyline().vertices(),
        Geometry::Polygon(p) => p.ring(),
        Geometry::Point(p) => std::slice::from_ref(p),
    }
}

/// A seeded window: anywhere and of any size, degenerate (a point, a
/// horizontal or vertical segment), outside the data space, over all of
/// it, or aimed at an object — its MBR, a hint cell, a vertex.
fn window(rng: &mut SmallRng, live: &[(u64, Geometry)]) -> Rect {
    let (x, y) = (rng.gen_range(-0.1..1.0), rng.gen_range(-0.1..1.0));
    let mut side = || 0.4 * rng.gen_range(0.0..1.0f64).powi(3);
    let (w, h) = (side(), side());
    let aim = (!live.is_empty()).then(|| &live[rng.gen_range(0..live.len())].1);
    match (rng.gen_range(0..12usize), aim) {
        (0, _) => Rect::new(x, y, x, y),
        (1, _) => Rect::new(x, y, x + w, y),
        (2, _) => Rect::new(x, y, x, y + h),
        (3, _) => Rect::new(x + 1.5, y + 1.5, x + 1.5 + w, y + 1.5 + h),
        (4, _) => Rect::new(-1.0, -1.0, 2.0, 2.0),
        (5, Some(g)) => g.mbr(),
        (6, Some(g)) => {
            let cells = g.hint().cells(&g.mbr());
            cells.map_or(g.mbr(), |c| c[rng.gen_range(0..2usize)])
        }
        (7, Some(g)) => {
            let v = vertices(g);
            Rect::centered(v[rng.gen_range(0..v.len())], w, h)
        }
        _ => Rect::new(x, y, x + w, y + h),
    }
}

/// A seeded point: anywhere, on a vertex, or one ulp beside one.
fn point(rng: &mut SmallRng, live: &[(u64, Geometry)]) -> Point {
    if live.is_empty() || rng.gen_bool(0.25) {
        return Point::new(rng.gen_range(-0.1..1.1), rng.gen_range(-0.1..1.1));
    }
    let v = vertices(&live[rng.gen_range(0..live.len())].1);
    let p = v[rng.gen_range(0..v.len())];
    let x = if rng.gen_bool(0.3) {
        p.x.next_up()
    } else {
        p.x
    };
    Point::new(x, p.y)
}

/// The case of `seed`: a load of up to `size` objects whose ids are
/// small, near `u64::MAX`, anywhere or small ones spread over all 64
/// bits; a partner map; and a stream of windows, points, joins, inserts
/// (fresh, duplicate and over `Smax`) and deletes (of stored and of
/// missing ids).
fn generate(seed: u64, size: usize) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut used = BTreeSet::new();
    let mut fresh = |rng: &mut SmallRng| loop {
        let small = rng.gen_range(0..1000u64);
        let id = match rng.gen_range(0..4usize) {
            0 => small,
            1 => u64::MAX - small,
            2 => rng.next_u64(),
            _ => small.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        if used.insert(id) {
            return id;
        }
    };
    let n = rng.gen_range(size / 4..size);
    let mut live: Vec<_> = (0..n)
        .map(|_| (fresh(&mut rng), object(&mut rng)))
        .collect();
    let load = live.clone();
    let m = rng.gen_range(size / 8..size / 2) as u64;
    let partner = (0..m).map(|id| (id, object(&mut rng))).collect();
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(20..50usize) {
        let roll = rng.gen_range(0..20usize);
        match roll {
            0..=6 => ops.push(Op::Window(window(&mut rng, &live))),
            7..=9 => ops.push(Op::Point(point(&mut rng, &live))),
            10 => ops.push(Op::Join(rng.gen_range(0..8usize))),
            11..=13 => {}
            14..=16 if !live.is_empty() => {
                let (id, _) = live.swap_remove(rng.gen_range(0..live.len()));
                ops.push(Op::Delete(id));
            }
            // A refused insert — a stored id again, or (on the cluster
            // organization) an object over `Smax` — then a write that
            // must succeed.
            18 | 19 => ops.push(match live.first() {
                Some((id, g)) if rng.gen_bool(0.5) => Op::Insert(*id, g.clone()),
                _ => {
                    let over = random_walk(&mut rng, (0.5, 0.5), 1e-3, VERTICES_AT_SMAX + 1);
                    Op::Insert(fresh(&mut rng), Polyline::new(over).into())
                }
            }),
            _ => ops.push(Op::Delete(fresh(&mut rng))),
        }
        if matches!(roll, 11..=13 | 18 | 19) {
            let (id, g) = (fresh(&mut rng), object(&mut rng));
            ops.push(Op::Insert(id, g.clone()));
            live.push((id, g));
        }
    }
    Case::fixed(&format!("seed {seed}"), load, ops).with(|c| {
        c.partner = partner;
        c.buddy = seed % 2 == 1;
    })
}

/// A stored object as the oracle keeps it: its geometry, MBR and hint.
struct Obj(Geometry, Rect, Hint);

impl Obj {
    /// The hint a backend's entry carries: none on `HintlessStore`.
    fn hint(&self, hinted: usize) -> Hint {
        [Hint::NONE, self.2][hinted]
    }
}

/// What a read answers: the exact answers ascending with their MBRs, the
/// filter step's candidates and their bytes, and the candidates the leaf
/// entries leave to the exact test, without and with a hint.
#[derive(Debug, Default)]
struct Expect {
    hits: Vec<(u64, Rect)>,
    candidates: usize,
    bytes: u64,
    open: [usize; 2],
}

impl Expect {
    fn ids(&self) -> Vec<u64> {
        self.hits.iter().map(|(id, _)| *id).collect()
    }
}

/// What a join answers: the exact pairs (sorted), the MBR pairs (all of
/// which it transfers), the pairs left to the exact test without and with
/// a hint, and whether an MBR pair holds an object the primary
/// organization keeps off its data pages.
#[derive(Debug, Default)]
struct JoinExpect {
    pairs: Vec<(u64, u64)>,
    mbr_pairs: usize,
    open: [usize; 2],
    overflows: bool,
}

/// The oracle's answer to one operation; a write's says whether it is
/// accepted, whether the deleted id was stored, and how many objects are
/// stored after it.
#[derive(Debug)]
enum Answer {
    Read(Expect),
    Join(JoinExpect),
    Write(bool, bool, usize),
}

impl Answer {
    fn read(&self) -> &Expect {
        match self {
            Answer::Read(e) => e,
            other => panic!("not a read: {other:?}"),
        }
    }
}

fn read_answer(live: &BTreeMap<u64, Obj>, op: &Op) -> Expect {
    let (window, point) = match *op {
        Op::Window(w) => (w, None),
        Op::Point(p) => (p.mbr(), Some(p)),
        _ => unreachable!("not a read"),
    };
    let mut e = Expect::default();
    for (&id, o @ Obj(g, mbr, _)) in live.iter().filter(|(_, o)| o.1.intersects(&window)) {
        e.candidates += 1;
        e.bytes += g.serialized_size() as u64;
        for hinted in 0..2 {
            let verdict = o.hint(hinted).verdict(mbr, &window);
            e.open[hinted] += usize::from(verdict == Verdict::Undecided);
        }
        if point.map_or(g.intersects_rect(&window), |p| g.contains_point(&p)) {
            e.hits.push((id, *mbr));
        }
    }
    e
}

fn join_answer(left: &BTreeMap<u64, Obj>, right: &BTreeMap<u64, Obj>) -> JoinExpect {
    let inline_limit = PrimaryOrganization::inline_limit() as usize;
    let big = |o: &Obj| o.0.serialized_size() > inline_limit;
    let mut e = JoinExpect::default();
    for (&a, l) in left {
        for (&b, r) in right.iter().filter(|(_, r)| r.1.intersects(&l.1)) {
            e.mbr_pairs += 1;
            e.overflows |= big(l) || big(r);
            let meet = l.1.intersection(&r.1);
            for hinted in 0..2 {
                let out = l.hint(hinted).misses(&l.1, &meet) || r.hint(hinted).misses(&r.1, &meet);
                e.open[hinted] += usize::from(!out);
            }
            if l.0.intersects(&r.0) {
                e.pairs.push((a, b));
            }
        }
    }
    e
}

/// The oracle's answer to every operation of `case`, on a backend that
/// refuses objects over `Smax` or on one that stores them.
fn answers(case: &Case, refuses_over_smax: bool) -> Vec<Answer> {
    let obj = |g: &Geometry| Obj(g.clone(), g.mbr(), g.hint());
    let objects = |list: &[(u64, Geometry)]| -> BTreeMap<u64, Obj> {
        list.iter().map(|(id, g)| (*id, obj(g))).collect()
    };
    let (mut live, partner) = (objects(&case.load), objects(&case.partner));
    let mut answer = |op: &Op| match op {
        Op::Window(_) | Op::Point(_) => Answer::Read(read_answer(&live, op)),
        Op::Join(_) => Answer::Join(join_answer(&live, &partner)),
        Op::Insert(id, g) => {
            let over = refuses_over_smax && g.serialized_size() as u64 > case.smax;
            let accepted = !over && !live.contains_key(id);
            if accepted {
                live.insert(*id, obj(g));
            }
            Answer::Write(accepted, false, live.len())
        }
        Op::Delete(id) => {
            let existed = live.remove(id).is_some();
            Answer::Write(true, existed, live.len())
        }
    };
    case.ops.iter().map(&mut answer).collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Backend {
    Paper(OrganizationKind),
    Memory,
    Hintless,
}

const BACKENDS: [Backend; 5] = [
    Backend::Paper(Secondary),
    Backend::Paper(Primary),
    Backend::Paper(Cluster),
    Backend::Memory,
    Backend::Hintless,
];

/// How a configuration is loaded: one insert per object, or the STR
/// bulk load on this many threads.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Build {
    Insert,
    Str(usize),
}

fn load(
    ws: &Workspace,
    backend: Backend,
    build: Build,
    case: &Case,
    objects: &[(u64, Geometry)],
) -> SpatialDatabase {
    let memory = || MemoryStore::new(ws.pool());
    let mut db = match backend {
        Backend::Paper(kind) => {
            let options = DbOptions::new(kind).smax_bytes(case.smax);
            ws.create_database(options.restricted_buddy(case.buddy))
        }
        Backend::Memory => ws.create_database_with(Box::new(memory())),
        Backend::Hintless => ws.create_database_with(Box::new(HintlessStore(memory()))),
    };
    match build {
        Build::Insert => objects.iter().for_each(|(id, g)| db.insert(*id, g.clone())),
        Build::Str(threads) => ws.bulk_load_par(&mut db, objects.to_vec(), threads),
    }
    db.finish_loading();
    db
}

fn query<'a>(db: &'a SpatialDatabase, op: &Op, technique: WindowTechnique) -> Query<'a> {
    match *op {
        Op::Window(w) => db.query().window(w).technique(technique),
        Op::Point(p) => db.query().point(p),
        _ => unreachable!("not a read"),
    }
}

fn stream_op<'a>(db: &'a SpatialDatabase, op: &Op) -> StreamOp<'a> {
    match op.clone() {
        Op::Window(window) => StreamOp::Window { db, window },
        Op::Point(point) => StreamOp::Point { db, point },
        Op::Insert(id, geometry) => StreamOp::Insert { db, id, geometry },
        Op::Delete(id) => StreamOp::Delete { db, id },
        Op::Join(_) => unreachable!("a join is checked on its own"),
    }
}

/// A query's stats and I/O as bits.
type Cost = ((usize, u64, u64), [u64; 7]);

fn cost(stats: QueryStats, io: IoStats) -> Cost {
    (bits(stats), io_bits(io))
}

fn bits(stats: QueryStats) -> (usize, u64, u64) {
    (stats.candidates, stats.result_bytes, stats.io_ms.to_bits())
}

/// Every counter of `io`, the simulated milliseconds as bits.
fn io_bits(io: IoStats) -> [u64; 7] {
    let ms = io.io_ms.to_bits();
    [
        io.read_requests,
        io.pages_read,
        io.write_requests,
        io.pages_written,
        io.seeks,
        io.latencies,
        ms,
    ]
}

/// `f`, and what it did to the workspace: the disk's I/O delta, the
/// pool's hit and miss deltas, and the disk requests it made.
fn measured<R>(ws: &Workspace, f: impl FnOnce() -> R) -> (R, IoStats, [u64; 2], Vec<PageRequest>) {
    let (disk, pool) = (ws.disk(), ws.pool());
    let (io, hits, misses) = (disk.stats(), pool.hits(), pool.misses());
    let (r, trace) = disk.traced(f);
    let counts = [pool.hits() - hits, pool.misses() - misses];
    (r, disk.stats().since(&io), counts, trace)
}

/// The tree's height, nodes and leaves, and the pages the store occupies.
fn shape(db: &SpatialDatabase) -> (u32, usize, usize, u64) {
    let store = db.store();
    let tree = store.tree();
    (
        tree.height(),
        tree.num_nodes(),
        tree.num_leaves(),
        store.occupied_pages(),
    )
}

fn check_clean(db: &SpatialDatabase, len: usize, at: &str) {
    let store = db.store();
    check_invariants(store.tree()).unwrap_or_else(|v| panic!("{at}: {v:?}"));
    store
        .check_consistency()
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    assert_eq!(store.tree().len(), len, "{at}: len()");
}

/// One configuration's run of a case.
struct Walk {
    ws: Workspace,
    backend: Backend,
    /// `case / backend / build`, for messages.
    name: String,
    /// Threads of the streams that commit the writes.
    threads: usize,
    /// Every path is checked (on the insert-built configurations).
    full: bool,
    /// A digest per step — a build, a cold read, a stream, a join, a
    /// write's tree shape — for the two bulk loads to agree on.
    record: Vec<u64>,
}

impl Walk {
    fn note(&mut self, value: &impl std::fmt::Debug) {
        let mut hasher = DefaultHasher::new();
        format!("{value:?}").hash(&mut hasher);
        self.record.push(hasher.finish());
    }

    fn hinted(&self) -> usize {
        usize::from(self.backend != Backend::Hintless)
    }

    fn is(&self, kind: OrganizationKind) -> bool {
        self.backend == Backend::Paper(kind)
    }

    /// A run of reads by `ids()` under each window technique (only SLM on
    /// a bulk-loaded store that ignores it); on a full walk also by the
    /// drains (iteration, take-3-then-`ids()`) under SLM, and by the paths
    /// that carry the technique (the store's own query, cursors in
    /// sequence, `run_batch`; and `run_stream` under SLM) under SLM and,
    /// on the cluster organization, under every technique.
    fn reads(&mut self, db: &mut SpatialDatabase, reads: &[Op], answers: &[Answer]) {
        let windows = reads.iter().any(|op| matches!(op, Op::Window(_)));
        // Only the cluster organization reads the technique; a full walk
        // runs every technique on every backend all the same.
        let cluster = self.is(Cluster);
        let techniques = match windows && (cluster || self.full) {
            true => &ALL_TECHNIQUES[..],
            false => &[Slm],
        };
        // Each technique's cold milliseconds, read by read.
        let mut cold_ms: Vec<Vec<f64>> = Vec::new();
        for &technique in techniques {
            let every_path = self.full && (cluster || technique == Slm);
            let cold = |(op, want): (&Op, &Answer)| {
                self.cold_read(db, op, technique, want.read(), every_path)
            };
            cold_ms.push(reads.iter().zip(answers).map(cold).collect());
            if every_path {
                self.in_sequence(db, reads, answers, technique);
            }
        }
        for (i, op) in reads.iter().enumerate().filter(|_| techniques.len() > 1) {
            let costs: Vec<f64> = cold_ms.iter().map(|ms| ms[i]).collect();
            let bound = costs.iter().all(|&ms| costs[3] <= ms);
            assert!(bound, "{} / {op:?}: optimum above {costs:?}", self.name);
        }
    }

    /// `op` from a cold buffer by `ids()`; on a full walk under SLM by
    /// iteration and take-3-then-`ids()` too, and on `every_path` by the
    /// store's own measured query: the oracle's answers, one cost.
    /// Returns its milliseconds.
    fn cold_read(
        &mut self,
        db: &mut SpatialDatabase,
        op: &Op,
        technique: WindowTechnique,
        want: &Expect,
        every_path: bool,
    ) -> f64 {
        let at = format!("{} / {technique:?} / {op:?}", self.name);
        let mut first = None;
        let drains = if self.full && technique == Slm { 3 } else { 1 };
        for path in 0..drains {
            db.store_mut().begin_query();
            let (mut cursor, trace) = self.ws.disk().traced(|| query(db, op, technique).run());
            let (stats, io) = (cursor.stats(), cursor.io_stats());
            let got = (cost(stats, io), cursor.undecided(), trace);
            let mut ids: Vec<u64> = match path {
                0 => Vec::new(),
                1 => {
                    let hits: Vec<_> = cursor.by_ref().map(|(id, g)| (id, g.mbr())).collect();
                    assert_eq!(hits, want.hits, "{at}: iteration");
                    hits.into_iter().map(|(id, _)| id).collect()
                }
                _ => cursor.by_ref().take(3).map(|(id, _)| id).collect(),
            };
            ids.extend(cursor.ids());
            assert_eq!(ids, want.ids(), "{at}: path {path}");
            assert!(
                *first.get_or_insert_with(|| got.clone()) == got,
                "{at}: path {path}'s cost"
            );
            assert_eq!(stats.io_ms.to_bits(), io.io_ms.to_bits(), "{at}");
            let filtered = (stats.candidates, stats.result_bytes);
            assert_eq!(filtered, (want.candidates, want.bytes), "{at}");
            if matches!(self.backend, Backend::Paper(_)) {
                let charged = want.candidates == 0 || io.requests() > 0;
                assert!(charged, "{at}: a cold read charged nothing");
            } else {
                assert_eq!(io_bits(io), [0; 7], "{at}: a memory store charged");
            }
        }
        let first = first.expect("a path");
        if every_path {
            // The store's own measured query forms, from a cold buffer.
            db.store_mut().begin_query();
            let store = db.store();
            let own = match *op {
                Op::Window(w) => store.window_query(&w, technique),
                Op::Point(p) => store.point_query(&p),
                _ => unreachable!("not a read"),
            };
            assert_eq!(bits(own), first.0 .0, "{at}: the store's own query");
        }
        assert_eq!(first.1, want.open[self.hinted()], "{at}: undecided()");
        self.note(&first);
        f64::from_bits(first.0 .0 .2)
    }

    /// The reads in sequence from one cold buffer by cursors, then by
    /// `run_batch` and `run_stream` (SLM only: a stream's window has no
    /// technique) at 1 and 8 threads: the same answers, costs and
    /// requests, and each executor's per-op I/O sums to the disk's delta.
    fn in_sequence(
        &self,
        db: &mut SpatialDatabase,
        reads: &[Op],
        answers: &[Answer],
        technique: WindowTechnique,
    ) {
        let at = format!("{} / {technique:?} / {} reads", self.name, reads.len());
        db.store_mut().begin_query();
        let (sequence, trace) = self.ws.disk().traced(|| {
            let run = |op| {
                let cursor = query(db, op, technique).run();
                let cost = cost(cursor.stats(), cursor.io_stats());
                (cursor.ids(), cost)
            };
            reads.iter().map(run).collect::<Vec<_>>()
        });
        let ids: Vec<_> = sequence.iter().map(|(ids, _)| ids.clone()).collect();
        let want: Vec<_> = answers.iter().map(|a| a.read().ids()).collect();
        assert_eq!(ids, want, "{at}: cursors");
        let outcome = |o: &OpOutcome| match o {
            OpOutcome::Query { ids, stats, io } => (ids.clone(), cost(*stats, *io)),
            other => panic!("{at}: {other:?}"),
        };
        let executors: &[_] = match technique {
            Slm => &["run_batch", "run_stream"],
            _ => &["run_batch"],
        };
        for (executor, threads) in executors.iter().flat_map(|e| [(e, 1), (e, 8)]) {
            let at = format!("{at}: {executor}({threads})");
            db.store_mut().begin_query();
            let db = &*db;
            let (out, io, _, requests) = measured(&self.ws, || match *executor {
                "run_batch" => {
                    let queries = reads.iter().map(|op| query(db, op, technique));
                    self.ws.run_batch(queries.collect(), threads)
                }
                _ => run_stream(reads.iter().map(|op| stream_op(db, op)).collect(), threads),
            });
            assert_eq!(io_bits(out.aggregate_io()), io_bits(io), "{at}: per-op I/O");
            assert!(requests == trace, "{at}: request sequence");
            let got: Vec<_> = out.outcomes().iter().map(outcome).collect();
            assert_eq!(got, sequence, "{at}");
        }
    }

    /// A run of reads and the writes after it, committed through
    /// `run_stream` on the walk's threads: the reads with the first
    /// write, each further write in a stream of its own, each refused
    /// insert through `insert` under `catch_unwind`. Cursors opened on
    /// the reads before the writes answer as before.
    fn commit(&mut self, db: &SpatialDatabase, ops: &[Op], answers: &[Answer], reads: usize) {
        let writes = ops.len() > reads;
        let pin = |op| query(db, op, Slm).run();
        let pinned: Vec<_> = ops[..reads].iter().filter(|_| writes).map(pin).collect();
        let mut start = 0;
        for (j, answer) in answers.iter().enumerate().skip(reads) {
            let &Answer::Write(accepted, ..) = answer else {
                unreachable!("a write")
            };
            if accepted {
                self.stream(db, &ops[start..=j], &answers[start..=j]);
            } else {
                if start < j {
                    self.stream(db, &ops[start..j], &answers[start..j]);
                }
                self.refuse(db, &ops[j]);
            }
            start = j + 1;
            self.note(&shape(db));
        }
        if !writes {
            self.stream(db, ops, answers);
        }
        // Checked once the run is through: the prefix bisection of a
        // failing case names the write that broke it.
        if let Some(Answer::Write(_, _, len)) = answers.last() {
            check_clean(db, *len, &format!("{} / after {:?}", self.name, ops.last()));
        }
        for (k, (cursor, want)) in pinned.into_iter().zip(answers).enumerate() {
            let ids = match k % 2 {
                0 => cursor.ids(),
                _ => cursor.map(|(id, _)| id).collect(),
            };
            assert_eq!(ids, want.read().ids(), "{}: pinned cursor {k}", self.name);
        }
    }

    fn stream(&mut self, db: &SpatialDatabase, ops: &[Op], answers: &[Answer]) {
        let at = format!("{} / stream of {:?}", self.name, ops.last().expect("an op"));
        let stream_ops = ops.iter().map(|op| stream_op(db, op)).collect();
        let (out, io, _, trace) = measured(&self.ws, || run_stream(stream_ops, self.threads));
        assert_eq!(io_bits(out.aggregate_io()), io_bits(io), "{at}: per-op I/O");
        for (outcome, want) in out.outcomes().iter().zip(answers) {
            match (outcome, want) {
                (OpOutcome::Query { ids, stats, .. }, Answer::Read(e)) => {
                    assert_eq!((ids, stats.candidates), (&e.ids(), e.candidates), "{at}");
                }
                (OpOutcome::Insert { .. }, Answer::Write(..)) => {}
                (OpOutcome::Delete { existed, .. }, Answer::Write(_, e, _)) => {
                    assert_eq!(existed, e, "{at}: existed");
                }
                other => panic!("{at}: {other:?}"),
            }
            if !matches!(self.backend, Backend::Paper(_)) {
                assert_eq!(io_bits(outcome.io_stats()), [0; 7], "{at}");
            }
        }
        self.note(&(&out, &trace));
    }

    /// An insert the backend must refuse: nothing changes.
    fn refuse(&mut self, db: &SpatialDatabase, op: &Op) {
        let Op::Insert(id, g) = op else {
            unreachable!("only inserts are refused")
        };
        let state = || (db.len(), io_bits(self.ws.disk().stats()));
        let before = state();
        let refused = catch_unwind(AssertUnwindSafe(|| db.insert(*id, g.clone())));
        assert!(refused.is_err(), "{}: {op:?} was stored", self.name);
        assert_eq!(state(), before, "{}: refused {id}", self.name);
    }

    /// A cold start of both operands of a join: their pool emptied (the
    /// memory stores' MBR join reads their trees through it), their
    /// directories warmed.
    fn cold(&self, dbs: [&mut SpatialDatabase; 2]) {
        self.ws.pool().reset(self.ws.pool().capacity());
        for db in dbs {
            db.store_mut().begin_query();
        }
    }

    /// `db ⋈ partner` under every transfer technique by `run()`; on a
    /// full walk also on every other path, under every technique on the
    /// cluster organization and under *complete* and *optimum* elsewhere;
    /// on a bulk-loaded walk also by `run_par(1)` and `run_par(8)`, drained
    /// and iterated, under *complete* and *optimum*.
    fn join(
        &mut self,
        db: &mut SpatialDatabase,
        partner: &mut SpatialDatabase,
        k: usize,
        want: &JoinExpect,
    ) {
        for technique in ALL_TRANSFERS {
            let at = format!("{} / join / {technique:?}", self.name);
            self.cold([db, partner]);
            let (cursor, io, pool, trace) =
                measured(&self.ws, || db.join(partner).transfer(technique).run());
            let (stats, undecided) = (cursor.stats(), cursor.undecided());
            assert_eq!(io_bits(cursor.io_stats()), io_bits(io), "{at}: run()");
            let phases = stats.mbr_join_ms + stats.transfer_ms;
            assert_eq!(io.io_ms.to_bits(), phases.to_bits(), "{at}");
            assert_eq!(cursor.num_candidates(), want.mbr_pairs, "{at}: MBR pairs");
            assert_eq!(undecided, want.open[self.hinted()], "{at}: undecided()");
            // Iterating refines one pair at a time, in MBR-join order.
            let order: Vec<(u64, u64)> = cursor.collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, want.pairs, "{at}: iteration");
            // One technique that fetches beside the traversal, one that
            // waits for the candidate set.
            let one_of_each = matches!(
                technique,
                TransferTechnique::Complete | TransferTechnique::Optimum
            );
            let every_path = self.full && (one_of_each || self.is(Cluster));
            // Every load reaches both ways of refining: at one thread
            // the cursor tests as it is iterated or drained, at more
            // (every load has full geometry) the join tests beside its
            // transfer.
            let thread_counts = match (every_path, one_of_each) {
                (true, _) => &[1, 2, 3, 8][..],
                (false, true) => &[1, 8][..],
                (false, false) => &[][..],
            };
            // Another path from a cold buffer: the cursor's I/O and the
            // disk's delta, the requests and the pool's counts are run()'s.
            let same = |at: &str, own: IoStats, (global, counts, requests)| {
                assert_eq!([io_bits(own), io_bits(global)], [io_bits(io); 2], "{at}");
                assert!(requests == trace, "{at}: request sequence");
                assert_eq!(counts, pool, "{at}: pool hits and misses");
            };
            for &threads in thread_counts {
                let at = format!("{at}: run_par({threads})");
                self.cold([db, partner]);
                let run = || db.join(partner).transfer(technique).run_par(threads);
                let (par, global, counts, requests) = measured(&self.ws, run);
                same(&at, par.io_stats(), (global, counts, requests));
                assert_eq!((par.stats(), par.undecided()), (stats, undecided), "{at}");
                assert_eq!(par.pairs(), want.pairs, "{at}: pairs()");
            }
            // Iterating, then draining: a lazy cursor (one thread) tests
            // as it goes, one of eight threads reads the verdicts of the
            // tests its join ran beside the transfer.
            for &threads in thread_counts.iter().filter(|&&t| t == 1 || t == 8) {
                let at = format!("{at}: run_par({threads})");
                self.cold([db, partner]);
                let mut cursor = db.join(partner).transfer(technique).run_par(threads);
                let taken: Vec<(u64, u64)> = cursor.by_ref().take(k).collect();
                assert_eq!(taken, order[..taken.len()], "{at}: take({k})");
                let mut rest = order[taken.len()..].to_vec();
                rest.sort_unstable();
                assert_eq!(cursor.pairs(), rest, "{at}: pairs() after take({k})");
            }
            if every_path && technique == TransferTechnique::Complete {
                for threads in [1, 8] {
                    let at = format!("{at}: run_stream({threads})");
                    self.cold([db, partner]);
                    let (left, right) = (&*db, &*partner);
                    let join = || run_stream(vec![StreamOp::Join { left, right }], threads);
                    let (out, global, counts, requests) = measured(&self.ws, join);
                    let [OpOutcome::Join { pairs, io: joined }] = out.outcomes() else {
                        panic!("{at}: {out:?}")
                    };
                    assert_eq!(*pairs, want.pairs.len() as u64, "{at}: pairs");
                    same(&at, *joined, (global, counts, requests));
                }
            }
            // A transfer reads the objects of the MBR pairs that the MBR
            // join's pages do not hold (on a memory store none) — and on
            // the primary organization, under a technique that waits for
            // the candidate set, the data pages evicted meanwhile.
            let reads_objects = match self.backend {
                Backend::Paper(Primary) => want.overflows,
                Backend::Paper(_) => want.mbr_pairs > 0,
                Backend::Memory | Backend::Hintless => false,
            };
            let transferred = stats.transfer_ms > 0.0;
            if self.is(Primary) && technique.reads_candidate_set() {
                assert!(transferred || !reads_objects, "{at}: transfer {stats:?}");
            } else {
                assert_eq!(transferred, reads_objects, "{at}: transfer {stats:?}");
            }
            self.note(&(stats, io_bits(io), pool, &trace, &order));
        }
    }
}

/// `case` on one configuration: the record the load threads agree on.
fn walk(case: &Case, backend: Backend, build: Build, answers: &[Answer]) -> Vec<u64> {
    let ws = Workspace::new(128);
    let mut db = load(&ws, backend, build, case, &case.load);
    let mut partner = load(&ws, backend, build, case, &case.partner);
    let built = ws.disk().stats();
    let name = format!("{} / {backend:?} / {build:?}", case.name);
    let threads = match build {
        Build::Insert => 2,
        Build::Str(threads) => threads,
    };
    let mut w = Walk {
        ws,
        backend,
        name,
        threads,
        full: build == Build::Insert,
        record: Vec::new(),
    };
    w.note(&(io_bits(built), shape(&db), shape(&partner)));
    let charged = matches!(backend, Backend::Paper(_)) || io_bits(built) == [0; 7];
    assert!(charged, "{}: a memory store's load charged", w.name);
    let high = db.store().tree().height() >= case.min_height;
    assert!(high, "{}: no split happened", w.name);
    check_clean(&db, case.load.len(), &w.name);
    let loaded_nodes = db.store().tree().num_nodes();
    let (ops, mut i) = (&case.ops, 0);
    // Reads are kind 0, writes 1, joins 2.
    let kind = |op: &Op| match op {
        Op::Window(_) | Op::Point(_) => 0,
        Op::Join(_) => 2,
        _ => 1,
    };
    let run = |from: usize, of| ops[from..].iter().take_while(|op| kind(op) == of).count();
    while i < ops.len() {
        let reads = run(i, 0);
        let end = i + reads + run(i + reads, 1);
        if reads > 0 {
            w.reads(&mut db, &ops[i..i + reads], &answers[i..i + reads]);
        }
        if end > i {
            w.commit(&db, &ops[i..end], &answers[i..end], reads);
        }
        i = end;
        if let (Some(Op::Join(k)), Some(Answer::Join(want))) = (ops.get(i), answers.get(i)) {
            w.join(&mut db, &mut partner, *k, want);
            i += 1;
        }
    }
    if case.condenses {
        let nodes = db.store().tree().num_nodes();
        assert!(nodes < loaded_nodes, "{}: nothing condensed", w.name);
    }
    w.record
}

/// `case` on every configuration; the two bulk-load thread counts agree
/// step for step.
fn run_case(case: &Case) {
    let plain = answers(case, false);
    let over_smax = case
        .ops
        .iter()
        .any(|op| matches!(op, Op::Insert(_, g) if g.serialized_size() as u64 > case.smax));
    let cluster = over_smax.then(|| answers(case, true));
    for backend in BACKENDS {
        let answers = match (&cluster, backend) {
            (Some(cluster), Backend::Paper(Cluster)) => cluster,
            _ => &plain,
        };
        let builds = [Build::Insert, Build::Str(1), Build::Str(8)];
        let records = builds.map(|build| walk(case, backend, build, answers));
        if let Some(step) = (0..records[1].len().max(records[2].len()))
            .find(|&s| records[1].get(s) != records[2].get(s))
        {
            panic!(
                "{} / {backend:?}: the loads on 1 and 8 threads part at step {step} of {}",
                case.name,
                records[1].len()
            );
        }
    }
}

/// Run `case`; on a failure, find the shortest failing prefix of its
/// operations by bisection, print it, and fail with its message.
fn check(case: Case) {
    let fails = |n: usize| catch_unwind(|| run_case(&case.prefix(n))).is_err();
    let (mut passes, mut fails_at) = (None, case.ops.len());
    if !fails(fails_at) {
        return;
    }
    // `passes` is the longest prefix known to pass (none: not even the
    // empty one is known to).
    while passes.map_or(0, |p| p + 1) < fails_at {
        let mid = passes.map_or(0, |p| (p + fails_at) / 2);
        match fails(mid) {
            true => fails_at = mid,
            false => passes = Some(mid),
        }
    }
    let (n, last) = (case.ops.len(), case.ops[..fails_at].last());
    let name = &case.name;
    eprintln!("{name}: the shortest failing prefix has {fails_at} of {n} operations; the last is {last:?}");
    run_case(&case.prefix(fails_at));
    unreachable!("{name}: the prefix passed on its second run");
}

#[test]
fn seeded_streams_match_the_oracle_on_every_path() {
    for seed in 0..3 {
        check(generate(seed, 240));
    }
}

/// Hundreds of seeds, every tenth a load large enough for joins of many
/// 4,096-entry blocks.
#[test]
#[ignore = "the release sweep: hundreds of seeds"]
fn seeded_stream_sweep() {
    for seed in 0..300 {
        let size = if seed % 10 == 9 { 2400 } else { 400 };
        check(generate(seed, size));
    }
}

// The named fixed cases: the inputs of the hand-written matrices this
// matrix replaced.

fn windows(windows: &[Rect]) -> Vec<Op> {
    windows.iter().copied().map(Op::Window).collect()
}

fn oracle(objects: &[(u64, Geometry)], window: &Rect) -> Vec<u64> {
    let hits = objects.iter().filter(|(_, g)| g.intersects_rect(window));
    hits.map(|(id, _)| *id).collect()
}

fn oracles(objects: &[(u64, Geometry)], windows: &[Rect]) -> Vec<Vec<u64>> {
    windows.iter().map(|w| oracle(objects, w)).collect()
}

/// Seeded lattice windows plus the hand-placed edge cases.
fn lattice_windows(objects: &[(u64, Geometry)]) -> Vec<Rect> {
    let mut rng = SmallRng::seed_from_u64(1994);
    let mut windows: Vec<Rect> = (0..120)
        .map(|_| {
            let (x, y) = (rng.gen_range(0..120usize), rng.gen_range(0..120usize));
            let (w, h) = (rng.gen_range(0..17usize), rng.gen_range(0..17usize));
            Rect::new(at(x), at(y), at(x + w), at(y + h))
        })
        .collect();
    // Windows inside the corner of an MBR its object never enters: the
    // far corner of a triangle's, the inner corner of an L's.
    for (_, g) in objects.iter().filter(|(_, g)| g.mbr().area() > 0.0) {
        let m = g.mbr();
        windows.push(match g {
            Geometry::Polygon(_) => Rect::new(m.xmax - STEP, m.ymax - STEP, m.xmax, m.ymax),
            _ => Rect::new(m.xmax - STEP, m.ymin, m.xmax, m.ymin + STEP),
        });
    }
    // A window equal to the MBR of one object of every kind.
    windows.extend(objects.iter().take(5).map(|(_, g)| g.mbr()));
    // Edges shared with object MBRs from inside and from outside: the
    // objects start at 2 + 8k and are 4 wide.
    windows.push(Rect::new(at(2), at(2), at(22), at(22)));
    windows.push(Rect::new(at(6), at(6), at(18), at(18)));
    windows.push(Rect::new(at(10), at(10), at(10), at(10)));
    windows.push(Rect::new(-1.0, -1.0, 2.0, 2.0));
    windows
}

/// The containment rule: a candidate whose MBR lies inside the window
/// is an answer without an exact test, on data built to sit on the
/// rule's edges — zero-area MBRs, MBRs equal to the window, MBRs
/// touching a window edge from inside and from outside.
#[test]
fn containment_rule_matches_the_exhaustive_exact_test_on_every_path() {
    let objects = lattice_objects();
    let windows = lattice_windows(&objects);

    // The data really sits on both sides of the rule.
    let count = |pred: &dyn Fn(&Rect, &Geometry) -> bool| -> usize {
        let per_window = windows
            .iter()
            .map(|w| objects.iter().filter(|(_, g)| pred(w, g)).count());
        per_window.sum()
    };
    let contained = count(&|w, g| w.contains_rect(&g.mbr()));
    let partial = count(&|w, g| !w.contains_rect(&g.mbr()) && g.intersects_rect(w));
    let false_hits = count(&|w, g| g.mbr().intersects(w) && !g.intersects_rect(w));
    assert!(
        contained > 100 && partial > 100 && false_hits > 20,
        "{contained} contained, {partial} partial, {false_hits} false hits"
    );

    let ops = self::windows(&windows);
    check(Case::fixed("lattice edge objects", objects, ops));
}

/// Seeded streets: random walks of 2–12 vertices, a few percent of the
/// data space long, every seventh object a polygon on the same walk.
/// Ids are `0..n`.
fn streets(n: usize, seed: u64) -> Vec<(u64, Geometry)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut street = |k: usize| -> Geometry {
        let (mut x, mut y) = (rng.gen_range(0.05..0.95), rng.gen_range(0.05..0.95));
        let step = rng.gen_range(0.002..0.02);
        let vertices: Vec<Point> = (0..rng.gen_range(3..13usize))
            .map(|_| {
                x += rng.gen_range(-step..step);
                y += rng.gen_range(-step..step);
                Point::new(x, y)
            })
            .collect();
        match k % 7 {
            0 => Polygon::new(vertices).into(),
            // Two-vertex streets: the hint is the whole object's ends.
            1 => Polyline::new(vertices[..2].to_vec()).into(),
            _ => Polyline::new(vertices).into(),
        }
    };
    (0..n).map(|k| (k as u64, street(k))).collect()
}

/// Windows aimed at the hint rule for every `every`-th object: each hint
/// cell itself, the cell pushed a third of its size off the hinted
/// vertex in both directions (an edge within one cell of the vertex,
/// from inside and from outside), a window around the end vertex an
/// eighth of the MBR wide (the vertex, not the MBR), a window on the
/// middle vertex of the street that stays clear of both ends — plus
/// seeded windows of every size.
fn hint_windows(objects: &[(u64, Geometry)], every: usize, seed: u64) -> Vec<Rect> {
    let mut windows = Vec::new();
    for (_, g) in objects.iter().step_by(every) {
        let m = g.mbr();
        let (cw, ch) = (m.width() / 256.0, m.height() / 256.0);
        for c in g
            .hint()
            .cells(&m)
            .expect("streets and regions carry a hint")
        {
            windows.push(c);
            windows.push(Rect::new(
                c.xmin + cw / 3.0,
                c.ymin + ch / 3.0,
                c.xmax + cw,
                c.ymax + ch,
            ));
            windows.push(Rect::new(
                c.xmin - cw,
                c.ymin - ch,
                c.xmax - cw / 3.0,
                c.ymax - ch / 3.0,
            ));
            windows.push(Rect::centered(
                c.center(),
                m.width() / 8.0,
                m.height() / 8.0,
            ));
        }
        if let Geometry::Polyline(l) = g {
            let v = l.polyline().vertices();
            let mid = v[v.len() / 2];
            let (first, last) = (v[0], v[v.len() - 1]);
            let clear = 0.5 * (mid.x - first.x).abs().min((mid.x - last.x).abs());
            if v.len() > 2 && clear > 0.0 {
                windows.push(Rect::centered(mid, clear, clear));
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..40 {
        let (x, y) = (rng.gen_range(0.0..0.9), rng.gen_range(0.0..0.9));
        let side = 0.3 * rng.gen_range(0.0..1.0f64).powi(3);
        windows.push(Rect::new(x, y, x + side, y + side));
    }
    windows.push(Rect::new(-1.0, -1.0, 2.0, 2.0));
    windows
}

/// The hint rule: a window that contains one of the two hint cells in
/// a candidate's leaf entry, or one of its `holds` cells, decides it the
/// same way; a window meeting none of its `touched` cells drops it as a
/// false hit — on streets whose end vertices, middles and hint-cell
/// borders the windows are aimed at, loaded by `insert` (1,200 single
/// inserts: leaf and directory splits on every backend, forced
/// reinserts on the plain R*-trees) and by both bulk loads.
#[test]
fn hint_rule_matches_the_exhaustive_exact_test_however_the_entries_got_there() {
    let objects = streets(1200, 1994);
    let windows = hint_windows(&objects, 24, 7);

    // The data really sits on every side of the rule: answers the two
    // hinted points decide, answers a `holds` cell decides, false hits
    // the `touched` mask drops, and answers and false hits only the
    // exact test finds.
    let count = |pred: &dyn Fn(&Rect, &Geometry) -> bool| -> usize {
        let per_window = windows
            .iter()
            .map(|w| objects.iter().filter(|(_, g)| pred(w, g)).count());
        per_window.sum()
    };
    let straddles = |w: &Rect, g: &Geometry| g.mbr().intersects(w) && !w.contains_rect(&g.mbr());
    let hinted = |w: &Rect, g: &Geometry| g.hint().accepts(&g.mbr(), w);
    let verdict = |w: &Rect, g: &Geometry| g.hint().verdict(&g.mbr(), w);
    let open = |w: &Rect, g: &Geometry| straddles(w, g) && verdict(w, g) == Verdict::Undecided;
    let by_hint = count(&|w, g| straddles(w, g) && hinted(w, g));
    let by_holds =
        count(&|w, g| straddles(w, g) && !hinted(w, g) && verdict(w, g) == Verdict::Answer);
    let dropped = count(&|w, g| straddles(w, g) && verdict(w, g) == Verdict::FalseHit);
    let by_exact_test = count(&|w, g| open(w, g) && g.intersects_rect(w));
    let false_hits = count(&|w, g| open(w, g) && !g.intersects_rect(w));
    let counts = format!(
        "{by_hint} by hint, {by_holds} by holds, {dropped} dropped, \
         {by_exact_test} by exact test, {false_hits} false hits left"
    );
    // Before the masks: > 300 by hint, > 300 by exact test, > 100 false
    // hits, all of them to the exact test.
    assert!(
        by_hint > 300 && by_holds + by_exact_test > 300 && dropped + false_hits > 100,
        "{counts}"
    );
    assert!(
        by_holds > 30 && dropped > 60 && by_exact_test > 200 && false_hits > 100,
        "{counts}"
    );

    let ops = self::windows(&windows);
    check(Case::fixed("hint windows", objects, ops).with(|c| c.min_height = 2));
}

/// Points aimed at the masks for every `every`-th object: its vertices
/// and their one-ulp neighbours, the crossings of its 8 × 8 grid, a point
/// inside a region — plus seeded points.
fn mask_points(objects: &[(u64, Geometry)], every: usize, seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for (_, g) in objects.iter().step_by(every) {
        for v in vertices(g).iter().take(4) {
            points.push(*v);
            points.push(Point::new(v.x.next_up(), v.y));
        }
        let m = g.mbr();
        for k in [1.0, 3.0, 4.0, 7.0] {
            let x = m.xmin + (m.xmax - m.xmin) * (k / 8.0);
            let y = m.ymin + (m.ymax - m.ymin) * ((8.0 - k) / 8.0);
            points.push(Point::new(x, y));
        }
        if let Geometry::Polygon(p) = g {
            let [a, b, c] = [p.ring()[0], p.ring()[1], p.ring()[2]];
            points.push(Point::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0));
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    points.extend((0..40).map(|_| Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))));
    points
}

/// Point queries aimed at vertices and the masks' grid: without a hint
/// nothing decides a point candidate (the streets hold no point object);
/// with one, the masks drop false hits.
#[test]
fn point_queries_match_the_exhaustive_exact_test_on_every_path() {
    let objects = streets(1200, 1994);
    let points = mask_points(&objects, 12, 5);
    // Points on objects and points the masks rule out.
    let answers: usize = points
        .iter()
        .map(|p| objects.iter().filter(|(_, g)| g.contains_point(p)).count())
        .sum();
    let dropped: usize = points
        .iter()
        .map(|p| {
            let rejects = |g: &Geometry| g.hint().verdict(&g.mbr(), &p.mbr()) == Verdict::FalseHit;
            objects
                .iter()
                .filter(|(_, g)| g.mbr().contains_point(p) && rejects(g))
                .count()
        })
        .sum();
    assert!(
        answers > 300 && dropped > 200,
        "{answers} answers, {dropped} dropped"
    );

    let ops = points.into_iter().map(Op::Point).collect();
    check(Case::fixed("mask points", objects, ops));
}

/// A join of two street maps: both kinds of pair, and the masks rule
/// out false hits without a read.
#[test]
fn joins_match_the_exhaustive_exact_test_on_every_path() {
    let (r, s) = (streets(500, 1994), streets(500, 2718));
    let (mut answers, mut mbr_pairs, mut ruled_out) = (0, 0, 0);
    for (_, ga) in &r {
        for (_, gb) in &s {
            let (ma, mb) = (ga.mbr(), gb.mbr());
            if !ma.intersects(&mb) {
                continue;
            }
            mbr_pairs += 1;
            let meet = ma.intersection(&mb);
            let rules_out = ga.hint().misses(&ma, &meet) || gb.hint().misses(&mb, &meet);
            ruled_out += usize::from(rules_out);
            answers += usize::from(ga.intersects(gb));
        }
    }
    let false_hits = mbr_pairs - answers;
    assert!(
        answers > 100 && false_hits > 100 && ruled_out > false_hits / 4,
        "{answers} answers, {false_hits} false hits, {ruled_out} ruled out of {mbr_pairs}"
    );

    check(Case::fixed("two street maps", r, vec![Op::Join(2)]).with(|c| c.partner = s));
}

/// Seven of ten objects go: leaves underflow, the trees condense and
/// reinsert the orphaned entries — with their hints. Then every third
/// survivor changes its geometry under the same id: cursors opened
/// before the change keep answering from the entries of the root they
/// pinned, and the moved objects' former end vertices no longer answer.
#[test]
fn hint_rule_survives_condensing_removals_and_a_change_of_geometry() {
    let loaded = streets(1200, 1994);
    let mut objects = loaded.clone();
    let mut ops: Vec<Op> = (0..1200u64)
        .filter(|id| id % 10 < 7)
        .map(Op::Delete)
        .collect();
    objects.retain(|(id, _)| id % 10 >= 7);
    let mut windows = hint_windows(&objects, 9, 11);
    ops.extend(self::windows(&windows));
    let before = oracles(&objects, &windows);
    let elsewhere = streets(objects.len(), 2718);
    for (k, (id, g)) in objects.iter_mut().enumerate().step_by(3) {
        *g = elsewhere[k].1.clone();
        ops.extend([Op::Delete(*id), Op::Insert(*id, g.clone())]);
    }
    // Old aims and new.
    windows.extend(hint_windows(&objects, 9, 13));
    let after = oracles(&objects, &windows);
    assert_ne!(
        after[..before.len()],
        before[..],
        "the change moved no answer"
    );
    ops.extend(self::windows(&windows));
    let case = Case::fixed("condensed and re-geometried streets", loaded, ops);
    check(case.with(|c| c.condenses = true));
}

/// Entries without a hint: nothing but MBR containment decides a
/// candidate, and point queries take the trait's provided
/// `point_query_into` — on a street's first vertex, the answer is every
/// object through it.
#[test]
fn a_backend_whose_entries_carry_no_hint_answers_by_mbr_and_exact_test() {
    let objects = streets(600, 1994);
    let mut ops = self::windows(&hint_windows(&objects, 12, 7));
    for (_, g) in objects.iter().step_by(60) {
        let Geometry::Polyline(l) = g else { continue };
        let on_line = l.polyline().vertices()[0];
        assert!(objects.iter().any(|(_, g)| g.contains_point(&on_line)));
        ops.push(Op::Point(on_line));
    }
    check(Case::fixed("hintless streets", objects, ops));
}

/// The streets of the radix cases: 3,500 of them, every window below
/// holding thousands, ids `0..3500` through `id`.
fn radix_case(name: &str, id: impl Fn(u64) -> u64) -> Case {
    let mut objects: Vec<(u64, Geometry)> = streets(3500, 41)
        .into_iter()
        .map(|(k, g)| (id(k), g))
        .collect();
    objects.sort_unstable_by_key(|(id, _)| *id);
    assert!(objects.windows(2).all(|p| p[0].0 < p[1].0));
    let windows = [
        Rect::new(-1.0, -1.0, 2.0, 2.0),
        Rect::new(0.05, 0.05, 0.95, 0.95),
    ];
    for answers in oracles(&objects, &windows) {
        assert!(answers.len() >= 2000, "{name}: {} answers", answers.len());
    }
    Case::fixed(name, objects, self::windows(&windows))
}

/// Windows past the cursor's radix cutoff: a candidate list of 512 or
/// more is ordered by a radix sort on the id, a shorter one by a
/// comparison sort. Each of two windows holds thousands of candidates,
/// with ids below 2²² (two digit passes, like every map in the repo).
#[test]
fn windows_past_the_radix_cutoff_answer_ascending_on_every_path() {
    check(radix_case("ids below 2²²", |id| id));
}

/// The radix cases' streets with ids spread over all 64 bits up to
/// `u64::MAX` (six digit passes).
#[test]
fn windows_past_the_radix_cutoff_answer_ascending_with_ids_up_to_u64_max() {
    // An odd multiplier permutes the u64s: the ids stay distinct.
    let spread = |id: u64| match id {
        0 => u64::MAX,
        id => id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    };
    check(radix_case("ids up to u64::MAX", spread));
}

/// A street lattice of `n` three-vertex polylines on the unit square.
fn street_lattice(n: u64) -> Vec<(u64, Geometry)> {
    let side = (n as f64).sqrt().ceil() as u64;
    let line = |i: u64| {
        let x = (i % side) as f64 / side as f64;
        let y = (i / side) as f64 / side as f64;
        Polyline::new(vec![
            Point::new(x, y),
            Point::new(x + 0.6 / side as f64, y + 0.3 / side as f64),
            Point::new(x + 1.2 / side as f64, y),
        ])
    };
    (0..n).map(|i| (i, line(i).into())).collect()
}

/// The 10k street lattice on the paper's default `Smax`: windows from a
/// corner to the whole space.
#[test]
fn a_10k_street_lattice_answers_alike_on_every_path() {
    let ops = self::windows(&[
        Rect::new(0.0, 0.0, 0.3, 0.3),
        Rect::new(0.2, 0.2, 0.6, 0.5),
        Rect::new(0.5, 0.1, 0.9, 0.4),
        Rect::new(0.05, 0.55, 0.45, 0.95),
        Rect::new(0.45, 0.45, 0.55, 0.55),
        Rect::new(-1.0, -1.0, 2.0, 2.0),
    ]);
    let case = Case::fixed("10k street lattice", street_lattice(10_000), ops);
    check(case.with(|c| c.smax = 80 * 1024));
}

/// Two lattices of 1,500 crossing streets: a join whose leaf pairs fill
/// three or four 4,096-entry blocks, so `run_par` sweeps them on
/// several threads.
#[test]
fn joins_of_crossing_street_lattices_span_several_blocks() {
    let lattice = |dx: f64, dy0: f64, dy1: f64| -> Vec<(u64, Geometry)> {
        let street = |i: u64| {
            let (x, y) = ((i % 40) as f64 / 40.0 + dx, (i / 40) as f64 / 40.0);
            Polyline::new(vec![Point::new(x, y + dy0), Point::new(x + 0.03, y + dy1)])
        };
        (0..1_500).map(|i| (i, street(i).into())).collect()
    };
    let (left, right) = (lattice(0.0, 0.0, 0.02), lattice(0.015, 0.02, 0.0));
    let case = Case::fixed("crossing street lattices", left, vec![Op::Join(7)]);
    check(case.with(|c| c.partner = right));
}
