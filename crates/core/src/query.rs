//! The streaming query layer: [`Query`] builder, lazy [`ResultCursor`],
//! and the [`JoinQuery`] / [`JoinCursor`] pair for composable joins.
//!
//! A query runs in the paper's two steps. [`Query::run`] executes the
//! **filter step** eagerly — the store walks its R\*-tree once,
//! transfers the exact representations of all candidates, charging the
//! simulated disk, and hands the candidate entries it collected to the
//! cursor — and snapshots the I/O cost of *exactly this query* (the
//! disk's counters are deltas around the call, never
//! workspace-cumulative totals). The **refinement step** is lazy: the
//! returned cursor tests each candidate against its exact [`Geometry`]
//! only as the caller iterates, yielding `(id, Arc<Geometry>)` pairs in
//! ascending id order.
//!
//! Refinement touches exact geometry only when it must. The geometry
//! rides the pinned root the candidates came from, so a lookup is a
//! plain table probe — no lock, nothing a commit can take away. And the
//! candidate's leaf entry gives it one verdict first (multi-step query
//! processing, \[BKSS94\]; [`Hint::verdict`], a point query's window
//! being the point):
//!
//! 1. **Answer** — the window contains the MBR (every point of the
//!    object), or one of the hint's two point cells, or a `holds` cell
//!    of its 8 × 8 mask (one point of the object each).
//! 2. **False hit** — the window meets no `touched` cell of the mask: no
//!    segment's box, so no point of the object. The candidate is dropped
//!    without its geometry.
//! 3. **The exact test**, for what is left ([`ResultCursor::undecided`]
//!    counts them).
//!
//! The verdicts are sound without an epsilon: the hint's cells and masks
//! were computed with comparisons against the very edges the query
//! decodes from the MBR bits the entry stores (see [`Hint`]). For a
//! decided candidate iteration skips the exact test, and the id-only
//! paths ([`ResultCursor::ids`], `run_batch`, `run_stream`) skip the
//! lookup too — unless the store holds filter-only records (bulk-loaded
//! through `store_mut()`, no geometry, no hint): then every candidate is
//! looked up, and the first one without geometry panics.
//!
//! The order is the cursor's, not the store's. The filter step hands
//! over its candidates in tree-walk order, which is no use to a
//! comparison sort (on A-1's 0.1 % windows, half the neighbouring ids
//! ascend); [`Query::run`] sorts those the verdicts leave by id, and
//! every read path hands its answers out in that order — the cursor,
//! `ids()`, `run_batch`, `run_stream`, and the callers that
//! compare them with a sorted list. A list of 512 candidates or more is
//! ordered by a least-significant-digit radix sort on the id, two
//! linear passes for every id below 2²²; a shorter one by a comparison
//! sort, which is faster there. Ids are unique, so both give the one
//! permutation ascending order allows.
//!
//! A query cursor refines on the calling thread, iterating or in
//! [`ResultCursor::ids`]; `run_batch` and `run_stream` are the read
//! paths that refine on several threads.
//!
//! A join runs the paper's three steps (§6.3): [`JoinQuery::run`] runs
//! the MBR join and the object transfer, and the cursor the exact tests.
//! It uses the machine's cores for what reads no page — the MBR join's
//! leaf-pair sweeps, in blocks swept beside the traversal and the
//! transfer and appended in block order, and the exact tests, in
//! contiguous chunks merged in chunk order ([`map_chunks`]), both on the
//! engine's one ordered work queue ([`spatialdb_disk::blocks`]) — and keeps
//! every page access on the calling thread, in one thread's order: the
//! directory traversal and its node reads, and the whole transfer. So
//! the pairs,
//! the [`JoinStats`] and every request the simulated disk sees are the
//! same at every core count, and [`JoinQuery::run_par`] forces a count.
//!
//! [`Hint`]: spatialdb_geom::Hint
//! [`Hint::verdict`]: spatialdb_geom::Hint::verdict
//!
//! ```
//! use spatialdb::geom::{Point, Polyline, Rect};
//! use spatialdb::storage::WindowTechnique;
//! use spatialdb::{DbOptions, OrganizationKind, Workspace};
//!
//! let ws = Workspace::new(256);
//! let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
//! db.insert(1, Polyline::new(vec![Point::new(0.1, 0.1), Point::new(0.2, 0.2)]));
//! db.finish_loading();
//!
//! let mut cursor = db
//!     .query()
//!     .window(Rect::new(0.0, 0.0, 0.5, 0.5))
//!     .technique(WindowTechnique::Slm)
//!     .run();
//! let stats = cursor.stats(); // cost of this query alone
//! assert_eq!(stats.candidates, 1);
//! let (id, geometry) = cursor.next().unwrap();
//! assert_eq!(id, 1);
//! assert!(geometry.as_polyline().is_some());
//! ```

use crate::db::{GeometryTable, SpatialDatabase, StoreRead};
use spatialdb_disk::blocks::{map_chunks, Spares, Threads};
use spatialdb_disk::IoStats;
use spatialdb_geom::{Geometry, HasMbr, Point, Rect, Verdict};
use spatialdb_join::{JoinStats, SpatialJoin};
use spatialdb_rtree::{LeafEntry, ObjectId};
use spatialdb_storage::{QueryStats, TransferTechnique, WindowTechnique};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

thread_local! {
    /// The calling thread's candidate buffer, taken for the duration of
    /// a [`Query::run`] and put back for the next, so a query does not
    /// grow a fresh one by doubling. (The executors pass their own.)
    static SCRATCH: RefCell<Vec<LeafEntry>> = const { RefCell::new(Vec::new()) };
    /// The calling thread's radix buffer: the other side of every
    /// counting scatter of [`sort_by_id`]. It keeps the length of the
    /// longest list the thread has sorted, so only a longer one grows it.
    static RADIX: RefCell<Vec<Candidate>> = const { RefCell::new(Vec::new()) };
    /// The calling thread's block buffers of [`JoinCursor::pairs`]'
    /// chunks, kept between joins as the MBR join keeps its blocks'.
    static PAIR_CHUNKS: RefCell<PairChunks> = RefCell::new(Spares::default());
}

/// The block buffers of [`JoinCursor::pairs`]' chunks: a chunk's range
/// of the candidate pairs, and its refined pairs.
type PairChunks = Spares<Range<usize>, Vec<(u64, u64)>>;

/// What a [`Query`] searches for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Target {
    /// All objects sharing a point with the window.
    Window(Rect),
    /// All objects containing the point.
    Point(Point),
}

impl Target {
    /// What the leaf entry alone says about the object behind it
    /// ([`Hint::verdict`](spatialdb_geom::Hint::verdict) on the window,
    /// or on the point as a window). The one place the second filter
    /// step is read — every refinement path takes its candidates from
    /// [`Query::run_with`].
    fn verdict(&self, entry: &LeafEntry) -> Verdict {
        let window = match self {
            Target::Window(w) => *w,
            Target::Point(p) => p.mbr(),
        };
        entry.hint.verdict(&entry.mbr, &window)
    }
}

/// One candidate of a filter step, as refinement sees it. A cursor
/// holds them ascending by id ([`sort_by_id`]: the contract every read
/// path returns answers in, see the [module docs](self)).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    pub(crate) id: u64,
    /// The candidate's leaf entry alone makes it an answer
    /// ([`Verdict::Answer`]): no exact test needed.
    pub(crate) decided: bool,
}

// A cursor's candidate list is sorted and scanned: four to a cache line.
const _: () = assert!(std::mem::size_of::<Candidate>() == 16);

/// Candidate lists at least this long are ordered by
/// [`radix_sort_by_id`], shorter ones by a comparison sort. Measured hot
/// on 16-byte candidates, µs per sort, comparison vs radix: 2.6 vs 3.4
/// at 209 candidates, 6.2 vs 4.9 at 512, 26.0 vs 14.7 at 1,690.
const RADIX_CUTOFF: usize = 512;

/// Bits of the id one radix pass orders by: a 2,048-bucket count stays
/// in L1, and two passes cover every id below 2²².
const DIGIT_BITS: u32 = 11;

/// Put `candidates` in ascending id order — the order every read path
/// hands answers out in. Ids are unique within a store, so the result
/// is the one permutation that order allows, whichever sort made it.
fn sort_by_id(candidates: &mut [Candidate]) {
    if candidates.len() < RADIX_CUTOFF {
        candidates.sort_unstable_by_key(|c| c.id);
        return;
    }
    let mut buffer = RADIX.take();
    radix_sort_by_id(candidates, &mut buffer);
    RADIX.set(buffer);
}

/// Least-significant-digit radix sort of `candidates` by id, stable:
/// one counting scatter per [`DIGIT_BITS`]-bit digit, between
/// `candidates` and `buffer` (whose contents it overwrites). It runs the
/// passes the largest id needs — none for an all-zero list, six at
/// `u64::MAX` — and skips a pass whose digit every id shares.
fn radix_sort_by_id(candidates: &mut [Candidate], buffer: &mut Vec<Candidate>) {
    let n = candidates.len();
    // The OR of the ids is as long as their maximum.
    let bits = candidates.iter().fold(0, |acc, c| acc | c.id);
    let passes = (u64::BITS - bits.leading_zeros()).div_ceil(DIGIT_BITS);
    buffer.resize(
        n,
        Candidate {
            id: 0,
            decided: false,
        },
    );
    let mut sorted_in_buffer = false;
    for pass in 0..passes {
        let shift = pass * DIGIT_BITS;
        let digit = |c: &Candidate| (c.id >> shift) as usize & ((1 << DIGIT_BITS) - 1);
        let (from, to) = if sorted_in_buffer {
            (&buffer[..], &mut candidates[..])
        } else {
            (&candidates[..], &mut buffer[..])
        };
        // Each digit's count, then the slot its next candidate goes to.
        let mut offsets = [0usize; 1 << DIGIT_BITS];
        for c in from {
            offsets[digit(c)] += 1;
        }
        if offsets[digit(&from[0])] == n {
            continue; // every id shares this digit: the pass moves nothing
        }
        let mut start = 0;
        for slot in &mut offsets {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for c in from {
            let slot = &mut offsets[digit(c)];
            to[*slot] = *c;
            *slot += 1;
        }
        sorted_in_buffer = !sorted_in_buffer;
    }
    if sorted_in_buffer {
        candidates.copy_from_slice(buffer);
    }
}

/// The refinement step of one query, detached from whatever keeps
/// `geoms` alive — a cursor's pinned root, a batch's pins, a stream
/// job's own clone of the table. Every read path refines through this
/// one type, so they cannot drift.
#[derive(Clone, Copy)]
pub(crate) struct Refinement<'r> {
    pub(crate) geoms: &'r GeometryTable,
    /// Every stored object has exact geometry
    /// ([`StoreRead::fully_refinable`]), so a decided candidate needs no
    /// lookup either.
    pub(crate) fully_refinable: bool,
    pub(crate) target: Target,
}

impl<'r> Refinement<'r> {
    pub(crate) fn of(root: &'r StoreRead<'_>, target: Target) -> Self {
        Refinement {
            geoms: root.geoms(),
            fully_refinable: root.fully_refinable(),
            target,
        }
    }

    /// The exact geometry of `candidate` if it really answers the
    /// target, `None` if it was a false MBR hit.
    ///
    /// # Panics
    ///
    /// Objects loaded through `SpatialDatabase::insert` always have exact
    /// geometry. Records bulk-loaded directly into the store are
    /// filter-only: they cannot be refined, so refining such a database
    /// is a usage error in every build profile.
    pub(crate) fn geometry(&self, candidate: Candidate) -> Option<&'r Arc<Geometry>> {
        let Some(geometry) = self.geoms.get(ObjectId(candidate.id)) else {
            panic!(
                "candidate {} has no exact geometry; records bulk-loaded \
                 via store_mut() are filter-only — read the query's stats() \
                 instead of refining it, or insert through SpatialDatabase::insert",
                candidate.id
            );
        };
        let hit = candidate.decided
            || match &self.target {
                Target::Window(w) => geometry.intersects_rect(w),
                Target::Point(p) => geometry.contains_point(p),
            };
        hit.then_some(geometry)
    }

    /// The ids of the answers among `candidates`, in their order.
    pub(crate) fn ids(&self, candidates: &[Candidate]) -> Vec<u64> {
        let answers = candidates
            .iter()
            .filter(|c| (c.decided && self.fully_refinable) || self.geometry(**c).is_some());
        // Nearly every candidate is an answer: size for all of them.
        let mut ids = Vec::with_capacity(candidates.len());
        ids.extend(answers.map(|c| c.id));
        ids
    }
}

/// The join refinement predicate: whether the candidate pair `(a, b)`
/// really intersects on exact geometry — one pair of an iterating
/// [`JoinCursor`]; whole stretches go through [`refine_pairs`].
///
/// # Panics
///
/// Panics when either side lacks exact geometry (records bulk-loaded
/// directly into the store are filter-only).
pub(crate) fn refine_pair(
    left: &GeometryTable,
    right: &GeometryTable,
    a: ObjectId,
    b: ObjectId,
) -> bool {
    let (Some(ga), Some(gb)) = (left.get(a), right.get(b)) else {
        pair_lacks_geometry(a, b)
    };
    ga.intersects(gb)
}

#[cold]
fn pair_lacks_geometry(a: ObjectId, b: ObjectId) -> ! {
    panic!(
        "join candidate ({}, {}) lacks exact geometry; read stats() \
         instead of iterating, or insert through SpatialDatabase::insert",
        a.0, b.0
    );
}

/// [`refine_pair`] over a stretch of the candidate pairs the leaf
/// entries left open: the answers among `pairs`, in their order. The MBR
/// join pins its `r` side, so equal left ids arrive in runs — the left
/// geometry is looked up once per run, not once per pair.
///
/// # Panics
///
/// Panics like [`refine_pair`], at the same pair.
pub(crate) fn refine_pairs(
    left: &GeometryTable,
    right: &GeometryTable,
    pairs: &[(ObjectId, ObjectId)],
) -> Vec<(u64, u64)> {
    let mut answers = Vec::with_capacity(pairs.len());
    let mut pinned = None;
    for &(a, b) in pairs {
        let ga = match pinned {
            Some((id, ga)) if id == a => ga,
            _ => {
                let ga = left.get(a);
                pinned = Some((a, ga));
                ga
            }
        };
        let (Some(ga), Some(gb)) = (ga, right.get(b)) else {
            pair_lacks_geometry(a, b)
        };
        if ga.intersects(gb) {
            answers.push((a.0, b.0));
        }
    }
    answers
}

/// A fluent query under construction. Created by
/// [`SpatialDatabase::query`]; consumed by [`Query::run`].
#[must_use = "a Query does nothing until .run()"]
#[derive(Debug)]
pub struct Query<'a> {
    pub(crate) db: &'a SpatialDatabase,
    pub(crate) target: Option<Target>,
    pub(crate) technique: Option<WindowTechnique>,
}

impl<'a> Query<'a> {
    pub(crate) fn new(db: &'a SpatialDatabase) -> Self {
        Query {
            db,
            target: None,
            technique: None,
        }
    }

    /// Search for all objects sharing at least one point with `window`.
    pub fn window(mut self, window: Rect) -> Self {
        self.target = Some(Target::Window(window));
        self
    }

    /// Search for all objects containing `point`.
    pub fn point(mut self, point: Point) -> Self {
        self.target = Some(Target::Point(point));
        self
    }

    /// Set the window transfer technique of this query (SLM when unset;
    /// only the cluster organization distinguishes them).
    pub fn technique(mut self, technique: WindowTechnique) -> Self {
        self.technique = Some(technique);
        self
    }

    /// Execute the filter step (charging the simulated disk) and return
    /// a lazy cursor over the refined results.
    ///
    /// # Panics
    ///
    /// Panics if neither [`window`](Query::window) nor
    /// [`point`](Query::point) was set.
    pub fn run(self) -> ResultCursor<'a> {
        let mut scratch = SCRATCH.take();
        let cursor = self.run_with(&mut scratch);
        SCRATCH.set(scratch);
        cursor
    }

    /// [`run`](Query::run) for the executors, which reuse one candidate
    /// buffer across queries. The cursor, the batch executor and the
    /// stream executor all run their filter step here, so they cannot
    /// drift.
    pub(crate) fn run_with(self, scratch: &mut Vec<LeafEntry>) -> ResultCursor<'a> {
        let target = self
            .target
            .expect("Query::run() needs .window(..) or .point(..) first");
        let technique = self.technique.unwrap_or(WindowTechnique::Slm);
        // One pinned snapshot for the whole cursor: the filter step and
        // the lazy refinement see the same version — store and geometry
        // — even if writers publish in between.
        let root = self.db.store();
        // Deltas against the calling thread's I/O tally: this query's
        // cost alone, even while other threads query concurrently. The
        // store measures nothing; this one delta is both the cursor's
        // `io_stats()` and its `stats().io_ms`.
        let disk = root.disk();
        let io_before = disk.local_stats();
        let result_bytes = match &target {
            Target::Window(w) => root.window_query_into(w, technique, scratch),
            Target::Point(p) => root.point_query_into(p, scratch),
        };
        let io = disk.local_stats().since(&io_before);
        let stats = QueryStats {
            candidates: scratch.len(),
            result_bytes,
            io_ms: io.io_ms,
        };
        // A false hit never reaches the cursor; one allocation for the
        // rest.
        let mut candidates = Vec::with_capacity(scratch.len());
        for e in scratch.iter() {
            let decided = match target.verdict(e) {
                Verdict::FalseHit => continue,
                verdict => verdict == Verdict::Answer,
            };
            candidates.push(Candidate {
                id: e.oid.0,
                decided,
            });
        }
        sort_by_id(&mut candidates);
        ResultCursor {
            root,
            target,
            candidates,
            next: 0,
            stats,
            io,
        }
    }
}

/// A lazy stream of query results.
///
/// Iterating yields `(object id, exact geometry)` for every candidate
/// that survives exact refinement, in ascending id order. The refinement
/// is performed per [`next`](Iterator::next) call — consuming only the
/// first few results does only the first few geometry tests — and a
/// candidate whose leaf entry already decides it (see the
/// [module docs](self)) is an answer, or a dropped false hit, without
/// one. The geometry is handed out as a shared
/// [`Arc`]: it stays valid after the cursor is gone, whatever is
/// committed meanwhile.
///
/// The cursor also carries the cost of the query that produced it:
/// [`stats`](ResultCursor::stats) and
/// [`io_stats`](ResultCursor::io_stats) describe **this query alone**,
/// not the workspace's cumulative counters.
#[derive(Debug)]
pub struct ResultCursor<'a> {
    /// The pinned root this cursor reads — candidates came from its
    /// store, their geometry comes from its table. Held for the cursor's
    /// whole lifetime: concurrent writers publish around it, and the
    /// epoch pin keeps the snapshot from being reclaimed.
    pub(crate) root: StoreRead<'a>,
    pub(crate) target: Target,
    /// The filter step's candidates the leaf entries did not rule out,
    /// ascending by id.
    pub(crate) candidates: Vec<Candidate>,
    next: usize,
    pub(crate) stats: QueryStats,
    pub(crate) io: IoStats,
}

impl<'a> ResultCursor<'a> {
    /// Filter-step statistics of this query alone (candidates, queried
    /// bytes, simulated I/O milliseconds).
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Detailed I/O counters of this query alone (requests, pages,
    /// seeks, latencies, milliseconds).
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Number of candidates the filter step produced (refinement may
    /// discard some of them while iterating).
    pub fn num_candidates(&self) -> usize {
        self.stats.candidates
    }

    /// Number of candidates whose leaf entry did not decide them: the
    /// window contains no MBR, point cell or `holds` cell of theirs, yet
    /// meets a `touched` cell. Only these need the exact test;
    /// [`num_candidates`] is the denominator, and what lies between the
    /// two was decided by the entries — answers, and false hits dropped
    /// unread. A count of this query, the same on every run and machine.
    ///
    /// [`num_candidates`]: ResultCursor::num_candidates
    pub fn undecided(&self) -> usize {
        self.candidates.iter().filter(|c| !c.decided).count()
    }

    /// Drain the cursor into the sorted ids of all exact answers, on the
    /// calling thread — the same ids as iterating, and cheaper: a
    /// decided candidate is not even looked up. (`run_batch` and
    /// `run_stream` refine many queries' candidates on several threads.)
    pub fn ids(self) -> Vec<u64> {
        Refinement::of(&self.root, self.target).ids(&self.candidates[self.next..])
    }

    /// The epoch this cursor's snapshot is pinned at (diagnostics and
    /// the snapshot-isolation tests).
    pub fn pinned_epoch(&self) -> u64 {
        self.root.pinned_epoch()
    }
}

impl<'a> Iterator for ResultCursor<'a> {
    type Item = (u64, Arc<Geometry>);

    fn next(&mut self) -> Option<Self::Item> {
        let refinement = Refinement::of(&self.root, self.target);
        loop {
            let &candidate = self.candidates.get(self.next)?;
            self.next += 1;
            if let Some(geometry) = refinement.geometry(candidate) {
                return Some((candidate.id, Arc::clone(geometry)));
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.candidates.len() - self.next))
    }
}

/// A spatial join under construction. Created by
/// [`SpatialDatabase::join`]; consumed by [`JoinQuery::run`], the one
/// way a join runs (the stream executor's join op is a `JoinQuery`
/// too).
#[must_use = "a JoinQuery does nothing until .run()"]
#[derive(Debug)]
pub struct JoinQuery<'a> {
    left: &'a SpatialDatabase,
    right: &'a SpatialDatabase,
    transfer: TransferTechnique,
}

impl<'a> JoinQuery<'a> {
    pub(crate) fn new(left: &'a SpatialDatabase, right: &'a SpatialDatabase) -> Self {
        JoinQuery {
            left,
            right,
            transfer: TransferTechnique::Complete,
        }
    }

    /// Object-transfer technique (default *complete*). It sets when the
    /// objects are fetched as well as how: *complete* fetches each leaf
    /// pair's objects as the traversal reaches it; *read*, *vector read*
    /// and *optimum* need the candidate set, so they fetch after the
    /// whole traversal. Only the cluster organization reads its units
    /// differently under each. The primary organization's objects sit in
    /// the data pages of its leaves: under the last three it reads again
    /// the pages the traversal read and the buffer has since evicted.
    pub fn transfer(mut self, technique: TransferTechnique) -> Self {
        self.transfer = technique;
        self
    }

    /// Run the MBR join and object transfer (charging the simulated
    /// disk) and return a lazy cursor over the exactly-refined pairs.
    ///
    /// The join uses the machine's cores
    /// ([`available_parallelism`](std::thread::available_parallelism)).
    /// Every page access — the MBR join's directory traversal and node
    /// reads, the whole object transfer — stays on the calling thread,
    /// in the order one thread makes them, so the simulated disk and the
    /// buffer see the same requests at every core count. The traversal
    /// publishes its node reads and the leaf pairs it reaches in blocks,
    /// which worker threads sweep while it goes on; one pool session
    /// then replays them in block order, fetching each leaf pair's
    /// objects right after the reads of its two leaves, the calling
    /// thread sweeping a block itself when the next one is not ready.
    /// The cursor's [`pairs`](JoinCursor::pairs) runs its exact tests on
    /// the cores too. A join whose leaf pairs fit in one block, or with
    /// too few undecided pairs to pay for a thread, keeps that step on
    /// the calling thread, and on a one-core machine nothing spawns.
    ///
    /// # Panics
    ///
    /// Panics if the two databases do not share one workspace (disk +
    /// buffer pool).
    pub fn run(self) -> JoinCursor<'a> {
        self.run_on(Threads::Machine)
    }

    /// [`run`](JoinQuery::run) on exactly `n_threads` threads (one when
    /// 0): the MBR join's leaf-pair blocks are swept by the calling
    /// thread and up to `n_threads − 1` workers, and the cursor's
    /// [`pairs`](JoinCursor::pairs) splits its exact tests into
    /// `n_threads` contiguous chunks (fewer only when there are fewer
    /// pairs), swept the same way. `run_par(1)` — a stream's join op —
    /// spawns nothing.
    ///
    /// As in `run`, every page access is the calling thread's. The
    /// candidate pairs, the refined results, the [`JoinStats`] and the
    /// I/O are therefore the same at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the two databases do not share one workspace.
    pub fn run_par(self, n_threads: usize) -> JoinCursor<'a> {
        self.run_on(Threads::Exactly(n_threads))
    }

    fn run_on(self, threads: Threads) -> JoinCursor<'a> {
        let (left, right) = (self.left.store(), self.right.store());
        let (pairs, stats, io) = SpatialJoin::new(&*left, &*right).run(self.transfer, threads);
        JoinCursor {
            left,
            right,
            pairs,
            next: 0,
            stats,
            io,
            threads,
        }
    }
}

/// Undecided pairs an exact-test thread must have to pay for itself:
/// with fewer than twice this many, [`JoinCursor::pairs`] of a
/// [`JoinQuery::run`] cursor tests on the calling thread. Measured on
/// A-1 ⋈ A-2 at scale 0.25 on a 2-vCPU host: one exact test takes
/// ≈ 1.1 – 1.4 µs, spawning and joining a scoped thread ≈ 45 µs, so at
/// 128 pairs a second thread saves ≈ 30 µs.
const MIN_PAIRS_PER_THREAD: usize = 64;

/// A lazy stream of join results: candidate pairs in MBR-join processing
/// order, each tested on the exact geometries as the caller iterates —
/// except the pairs a leaf entry already ruled out
/// ([`undecided`](JoinCursor::undecided) counts the rest). The MBR join
/// and the transfer are done when the cursor exists; its pairs are the
/// swept blocks' pairs in block order, the same at every thread count.
/// Iterating tests on the calling thread; [`pairs`](JoinCursor::pairs)
/// tests on the join's threads (the machine's cores, or `run_par`'s
/// count).
#[derive(Debug)]
pub struct JoinCursor<'a> {
    /// The operands' pinned roots: the pairs came from their stores,
    /// the exact geometries come from their tables.
    pub(crate) left: StoreRead<'a>,
    pub(crate) right: StoreRead<'a>,
    /// The candidate pairs the leaf entries did not rule out, in MBR-join
    /// processing order.
    pub(crate) pairs: Vec<(ObjectId, ObjectId)>,
    next: usize,
    stats: JoinStats,
    /// The MBR join's and the object transfer's I/O deltas, summed.
    pub(crate) io: IoStats,
    /// Threads [`pairs`](JoinCursor::pairs) refines on: those the caller
    /// gave [`JoinQuery::run_par`], the machine's otherwise.
    threads: Threads,
}

impl<'a> JoinCursor<'a> {
    /// Cost breakdown of this join alone (§6.3 / Figure 17).
    pub fn stats(&self) -> JoinStats {
        self.stats
    }

    /// Detailed I/O counters of this join alone: the MBR join's and the
    /// object transfer's, each summed over its calls.
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Number of candidate pairs the MBR join produced — every one is
    /// transferred and charged its exact test ([`JoinStats::mbr_pairs`]).
    pub fn num_candidates(&self) -> usize {
        self.stats.mbr_pairs as usize
    }

    /// Number of candidate pairs left to the exact test: those where
    /// neither leaf entry's `touched` mask misses the intersection of the
    /// two MBRs. The rest are disjoint and skip the exact test, though
    /// the transfer still read their objects (it reads every MBR pair's);
    /// [`num_candidates`] is the denominator. A count of this join, the
    /// same on every run and machine.
    ///
    /// [`num_candidates`]: JoinCursor::num_candidates
    pub fn undecided(&self) -> usize {
        self.pairs.len()
    }

    /// Drain the cursor into the sorted exact result pairs.
    ///
    /// The exact tests of the remaining candidates run in contiguous
    /// chunks on the join's threads — the machine's cores, or those
    /// given to [`JoinQuery::run_par`] — and are merged in chunk order:
    /// the same pairs as iterating. They read only the pinned geometry
    /// tables, never a page.
    pub fn pairs(self) -> Vec<(u64, u64)> {
        let (left, right) = (self.left.geoms(), self.right.geoms());
        let refine = |chunk: &[_]| refine_pairs(left, right, chunk);
        let pairs = &self.pairs[self.next..];
        let threads = self.threads.for_items(pairs.len(), MIN_PAIRS_PER_THREAD);
        let mut spares = PAIR_CHUNKS.take();
        let mut out = map_chunks(pairs, threads, &mut spares, refine);
        PAIR_CHUNKS.set(spares);
        out.sort_unstable();
        out
    }
}

impl<'a> Iterator for JoinCursor<'a> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.pairs.len() {
            let (a, b) = self.pairs[self.next];
            self.next += 1;
            if refine_pair(self.left.geoms(), self.right.geoms(), a, b) {
                return Some((a.0, b.0));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.pairs.len() - self.next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatialdb_geom::rng::SmallRng;

    /// Shuffle `list` in place (Fisher–Yates).
    fn shuffle<T>(rng: &mut SmallRng, list: &mut [T]) {
        for i in (1..list.len()).rev() {
            list.swap(i, rng.gen_range(0..i + 1));
        }
    }

    /// `n` candidates with distinct ids, shuffled, and the same list in
    /// ascending id order. Each id is `high` with its low `bits` bits
    /// replaced by a random value; the largest sets the top one of them,
    /// so the list's maximum needs `⌈bits / 11⌉` digits below `high`.
    /// With `all_ones` the largest is `high | mask` (`u64::MAX` when
    /// `high` is). Every decided flag is drawn.
    fn case(
        rng: &mut SmallRng,
        n: usize,
        bits: u32,
        high: u64,
        all_ones: bool,
    ) -> (Vec<Candidate>, Vec<Candidate>) {
        let mask = u64::MAX >> (u64::BITS - bits);
        let mut lows: Vec<u64> = if u128::from(mask) < 4 * n as u128 {
            let mut all: Vec<u64> = (0..=mask).collect();
            shuffle(rng, &mut all);
            all.truncate(n);
            all.sort_unstable();
            all
        } else {
            let mut lows = Vec::with_capacity(n);
            while lows.len() < n {
                lows.extend((lows.len()..n).map(|_| rng.next_u64() & mask));
                lows.sort_unstable();
                lows.dedup();
            }
            lows
        };
        if let Some(max) = lows.last_mut() {
            // Every other low is below `max`, so both stay distinct.
            *max |= 1 << (bits - 1);
            if all_ones {
                *max = mask;
            }
        }
        let sorted: Vec<Candidate> = lows
            .into_iter()
            .map(|low| Candidate {
                id: (high & !mask) | low,
                decided: rng.gen_bool(0.5),
            })
            .collect();
        let mut shuffled = sorted.clone();
        shuffle(rng, &mut shuffled);
        (shuffled, sorted)
    }

    /// [`radix_sort_by_id`], [`sort_by_id`] and the comparison sort
    /// all turn `input` into `expected`, every decided flag on its id.
    fn assert_sorts(input: &[Candidate], expected: &[Candidate], buffer: &mut Vec<Candidate>) {
        let pairs = |list: &[Candidate]| -> Vec<(u64, bool)> {
            list.iter().map(|c| (c.id, c.decided)).collect()
        };
        let what = format!(
            "{} ids, largest {:#x}",
            input.len(),
            expected.last().map_or(0, |c| c.id)
        );
        let mut reference = input.to_vec();
        reference.sort_unstable_by_key(|c| c.id);
        assert_eq!(pairs(&reference), pairs(expected), "{what}: reference");
        let mut by_radix = input.to_vec();
        radix_sort_by_id(&mut by_radix, buffer);
        assert_eq!(pairs(&by_radix), pairs(expected), "{what}: radix");
        let mut sorted = input.to_vec();
        sort_by_id(&mut sorted);
        assert_eq!(pairs(&sorted), pairs(expected), "{what}: sort_by_id");
    }

    /// Id widths on both sides of every digit boundary: maxima that need
    /// one to six passes.
    const BITS: [u32; 19] = [
        1, 2, 10, 11, 12, 21, 22, 23, 32, 33, 34, 43, 44, 45, 54, 55, 56, 63, 64,
    ];

    #[test]
    fn radix_sort_orders_like_the_comparison_sort() {
        let mut rng = SmallRng::seed_from_u64(41);
        // One buffer throughout: it comes to each case longer or shorter
        // than the list, holding the previous case's candidates.
        let mut buffer = Vec::new();
        let lengths = [
            10_000,
            0,
            1,
            2,
            RADIX_CUTOFF - 1,
            RADIX_CUTOFF,
            RADIX_CUTOFF + 1,
        ];
        for n in lengths {
            for bits in BITS {
                if n as u128 > 1u128 << bits {
                    continue;
                }
                // Low ids; ids ≥ 2⁶³ sharing every digit above `bits`;
                // random high digits, all equal; and a list up to u64::MAX.
                let highs = [
                    (0, false),
                    (1 << 63, false),
                    (rng.next_u64(), false),
                    (u64::MAX, true),
                ];
                for (high, all_ones) in highs {
                    let (input, expected) = case(&mut rng, n, bits, high, all_ones);
                    assert_sorts(&input, &expected, &mut buffer);
                }
            }
        }
    }

    /// `cargo test --release -p spatialdb-core -- --include-ignored radix`.
    #[test]
    #[ignore = "a release-profile sweep; run with --include-ignored"]
    fn radix_sort_sweep() {
        let mut rng = SmallRng::seed_from_u64(1994);
        let mut buffer = Vec::new();
        for _ in 0..100_000 {
            let bits = BITS[rng.gen_range(0..BITS.len())];
            // No more ids than `bits` can tell apart.
            let n = rng.gen_range(0..4 * RADIX_CUTOFF).min(1 << bits.min(16));
            let high = [0, rng.next_u64(), u64::MAX][rng.gen_range(0..3usize)];
            let all_ones = rng.gen_bool(0.1);
            let (input, expected) = case(&mut rng, n, bits, high, all_ones);
            assert_sorts(&input, &expected, &mut buffer);
        }
    }
}
