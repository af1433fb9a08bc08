//! [`SpatialStore`] — the pluggable storage interface of the engine.
//!
//! Every way of laying out a large set of spatial objects on disk — the
//! paper's three organization models, the in-memory baseline
//! ([`crate::memory::MemoryStore`]), or a user-supplied backend — is a
//! `SpatialStore`. The query layer (`spatialdb-core`), the spatial join
//! (`spatialdb-join`) and the experiment harness are all written against
//! this trait, so a new organization is a one-file addition: implement
//! the trait and hand a `Box<dyn SpatialStore>` to
//! `Workspace::create_database_with`.
//!
//! The trait is deliberately **object safe**: everything downstream works
//! with `&dyn SpatialStore` (queries) or `&mut dyn SpatialStore`
//! (updates). It is also `Send + Sync`: the contract splits into a
//! **read path** that takes `&self` — all interior state a query touches
//! (buffer pool, disk counters) lives behind shared locks, so any number
//! of threads may query one store concurrently — and a **write path**
//! that keeps `&mut self`, serializing structural updates through Rust's
//! ownership rules. The groups:
//!
//! 1. **Updates** (`&mut self`) — [`insert`](SpatialStore::insert),
//!    [`delete`](SpatialStore::delete), [`flush`](SpatialStore::flush),
//!    [`begin_query`](SpatialStore::begin_query), and the STR install
//!    ([`str_install`](SpatialStore::str_install)). Both builds take an
//!    object's R\*-tree entry from one place,
//!    [`leaf_entry`](SpatialStore::leaf_entry), where the store states
//!    what the entry's payload accounts;
//! 2. **Queries** (`&self`) — one required read method,
//!    [`window_query_into`](SpatialStore::window_query_into): the filter
//!    step *and* the transfer of the exact representations, charging
//!    the simulated disk, **handing back the candidate entries** it
//!    collected — what the engine's refinement step iterates over, from
//!    one tree walk per query — and returning the candidates'
//!    exact-representation bytes. A store does not measure its queries:
//!    the caller does, as a delta of the calling thread's I/O tally
//!    around the call ([`Disk::local_stats`](spatialdb_disk::Disk::local_stats)),
//!    so the delta stays exact under concurrency and each query is
//!    measured once. The join's object transfer has one required read
//!    too, [`fetch_for_join`](SpatialStore::fetch_for_join): the
//!    store's one way to read an object by id, which may batch the
//!    object's neighbours among the join's candidates (the cluster
//!    organization does). Everything else on the read side is provided:
//!    [`point_query_into`](SpatialStore::point_query_into) runs a point
//!    as a degenerate window (the cluster organization overrides it to
//!    fetch objects page by page, §5.5),
//!    [`window_query`](SpatialStore::window_query) /
//!    [`point_query`](SpatialStore::point_query) drop the candidates and
//!    measure the call into a [`QueryStats`], and the `_traced` forms
//!    capture the disk requests. Those four wrappers serve store-level
//!    tests and probes: the engine and both experiment drivers (the
//!    paper's figures and the scenario harness) measure every
//!    production read once, at `Query::run` in `spatialdb-core`;
//! 3. **Bookkeeping** — occupancy, membership
//!    ([`contains`](SpatialStore::contains)), buffer control, and
//!    access to the R\*-tree and to the **one pool** the store is built
//!    on (its constructor takes nothing else of the machine;
//!    [`disk`](SpatialStore::disk) is the disk under the pool). The
//!    tree owns the object count: a store states no count of its own,
//!    and the engine reads `tree().len()`.
//!
//! Of the trait's 23 methods, 11 are required: `name`, `insert`,
//! `delete`, `window_query_into`, `fetch_for_join`, `occupied_pages`,
//! `contains`, `pool`, `tree`, `flush` and `begin_query`.
//!
//! One part of the contract is not negotiable: every backend exposes an
//! R\*-tree over the object MBRs ([`tree`](SpatialStore::tree)). It is
//! the engine's spatial key index — the uncharged candidate lookups read
//! it, and the spatial join's MBR phase performs a synchronized
//! traversal of both operands' trees (\[BKS93b\]). A backend is free to
//! organize the *exact representations* however it likes (that is the
//! dimension the paper varies); the MBR index always rides along.
//! [`crate::memory::MemoryStore`] shows the minimal embedding.

use crate::model::{QueryStats, SharedPool, TransferTechnique, WindowTechnique};
use crate::object::ObjectRecord;
use spatialdb_disk::{Disk, DiskHandle, PageRequest, PoolSession};
use spatialdb_geom::{Point, Rect};
use spatialdb_rtree::{LeafEntry, NoIo, ObjectId, RStarTree, Tile, TilingParams};
use std::collections::HashSet;

/// Run one read on the calling thread and measure it: the candidates
/// `read` collects, the bytes it returns and the simulated I/O it
/// charged, as a delta of this thread's tally (exact while other
/// threads charge the same disk).
fn measured(disk: &Disk, read: impl FnOnce(&mut Vec<LeafEntry>) -> u64) -> QueryStats {
    let mut candidates = Vec::new();
    let before = disk.local_stats();
    let result_bytes = read(&mut candidates);
    QueryStats {
        candidates: candidates.len(),
        result_bytes,
        io_ms: disk.local_stats().since(&before).io_ms,
    }
}

/// The first half of a [`SpatialStore::check_consistency`] for a store
/// that keeps a per-object table beside its R\*-tree: the table holds
/// as many objects as the tree, which owns the count.
pub(crate) fn count_agrees(stored: usize, tree: &RStarTree) -> Result<(), String> {
    if stored == tree.len() {
        Ok(())
    } else {
        Err(format!(
            "{stored} objects stored but {} indexed",
            tree.len()
        ))
    }
}

/// A pluggable storage backend for spatial objects.
///
/// See the [module documentation](self) for the contract — in short:
/// query methods take `&self` and may be called from any thread, update
/// methods take `&mut self`. The paper's three organization models
/// ([`crate::SecondaryOrganization`], [`crate::PrimaryOrganization`],
/// [`crate::ClusterOrganization`]) and the in-memory baseline
/// [`crate::MemoryStore`] implement it.
pub trait SpatialStore: Send + Sync {
    /// Short name used in reports ("sec. org." / "prim. org." /
    /// "cluster org." / "memory").
    fn name(&self) -> &'static str;

    /// The R\*-tree entry of `rec` with the payload this store accounts
    /// per entry: 0 by default, the inline/overflow byte cost for the
    /// primary organization, the exact size for the cluster and
    /// secondary organizations. [`insert`](SpatialStore::insert) and the
    /// STR bulk load both build their entries here. Charges nothing, so
    /// a bulk load meets every refusal (the cluster organization's
    /// objects larger than `Smax`) before anything is charged.
    fn leaf_entry(&self, rec: &ObjectRecord) -> LeafEntry {
        rec.leaf_entry(0)
    }

    /// Insert a new object (§4.2.2 for the cluster organization).
    fn insert(&mut self, rec: &ObjectRecord);

    /// Delete an object. Returns `false` if it was not stored. Inserts
    /// and deletions can be intermixed with queries without any global
    /// reorganization (§4.1).
    fn delete(&mut self, oid: ObjectId) -> bool;

    /// Window query — **the method the engine calls**: filter via the
    /// R\*-tree, then transfer the exact representations of all
    /// candidates. `technique` selects the cluster organization's
    /// transfer strategy; other stores ignore it. `out` is cleared and
    /// filled with the leaf entries the filter step matched, in no
    /// particular order, so one buffer serves many queries.
    ///
    /// Returns the total exact-representation bytes of the candidates —
    /// the "amount of data queried" the paper normalizes by. The call's
    /// I/O cost is the caller's to measure (see the [module
    /// documentation](self)); a store reads no counters. A disk-based
    /// store reads its tree and objects through one pool session
    /// (`self.pool().session()`) and ends it before returning, so the
    /// caller's delta sees every charge.
    fn window_query_into(
        &self,
        window: &Rect,
        technique: WindowTechnique,
        out: &mut Vec<LeafEntry>,
    ) -> u64;

    /// Point query (§5.5), handing back its candidates and returning
    /// their bytes like
    /// [`window_query_into`](SpatialStore::window_query_into). The
    /// default treats the point as a degenerate window, to the tree and
    /// to the transfer ([`WindowTechnique::Complete`]); a store that
    /// fetches a point query's objects differently overrides it.
    fn point_query_into(&self, point: &Point, out: &mut Vec<LeafEntry>) -> u64 {
        let window = Rect::new(point.x, point.y, point.x, point.y);
        self.window_query_into(&window, WindowTechnique::Complete, out)
    }

    /// [`window_query_into`](SpatialStore::window_query_into) without
    /// the candidates, measured: same transfer, same charges, and the
    /// [`QueryStats`] of this call alone. For store-level tests and
    /// probes: the engine and both experiment drivers measure at
    /// `Query::run` instead.
    fn window_query(&self, window: &Rect, technique: WindowTechnique) -> QueryStats {
        measured(&self.disk(), |out| {
            self.window_query_into(window, technique, out)
        })
    }

    /// [`point_query_into`](SpatialStore::point_query_into) without the
    /// candidates, measured like
    /// [`window_query`](SpatialStore::window_query) (and, like it, not
    /// on the engine's or the drivers' read path).
    fn point_query(&self, point: &Point) -> QueryStats {
        measured(&self.disk(), |out| self.point_query_into(point, out))
    }

    /// The traced read path: run the window query **and capture its
    /// disk requests** as a replayable trace for the overlapped-I/O
    /// subsystem ([`spatialdb_disk::arm`]).
    ///
    /// The query executes synchronously — answers, [`QueryStats`] and
    /// charged [`spatialdb_disk::IoStats`] are exactly those of
    /// [`window_query`](SpatialStore::window_query) — while every
    /// request this thread charges is also recorded as a
    /// [`PageRequest`] (via [`spatialdb_disk::Disk::traced`]).
    /// Replaying such traces through the disk array
    /// ([`spatialdb_disk::simulate_queries_striped`]) computes per-query
    /// latency — the one way requests reach an arm. The scenario
    /// harness captures the same way without this wrapper: it runs
    /// `Query::run` inside [`Disk::traced`](spatialdb_disk::Disk::traced),
    /// so each window is measured once, where the engine measures it;
    /// this form serves store-level tests and probes. The *optimum*
    /// technique of the pool's unit read
    /// ([`PoolSession::read_extent`](spatialdb_disk::PoolSession::read_extent))
    /// charges an analytical cost with no physical page run, so it is
    /// absent from the trace.
    fn window_query_traced(
        &self,
        window: &Rect,
        technique: WindowTechnique,
    ) -> (QueryStats, Vec<PageRequest>) {
        self.disk().traced(|| self.window_query(window, technique))
    }

    /// The traced read path of a point query — see
    /// [`window_query_traced`](SpatialStore::window_query_traced)
    /// (store-level tests and probes; the harness captures around
    /// `Query::run`).
    fn point_query_traced(&self, point: &Point) -> (QueryStats, Vec<PageRequest>) {
        self.disk().traced(|| self.point_query(point))
    }

    /// The candidate entries of a window query, read from the in-memory
    /// directory without charging I/O, appended into a caller-supplied
    /// scratch buffer (cleared first). Diagnostics only: the engine's
    /// queries take their candidates from
    /// [`window_query_into`](SpatialStore::window_query_into).
    fn window_candidates_into(&self, window: &Rect, out: &mut Vec<LeafEntry>) {
        self.tree().window_entries_into(window, &mut NoIo, out)
    }

    /// The candidate entries of a point query, read without charging
    /// I/O, appended into a scratch buffer — see
    /// [`window_candidates_into`](SpatialStore::window_candidates_into).
    fn point_candidates_into(&self, point: &Point, out: &mut Vec<LeafEntry>) {
        self.tree().point_entries_into(point, &mut NoIo, out)
    }

    /// The store's one object read, the join's object transfer (§6.2):
    /// fetch `oid`'s exact representation through `session`, a session
    /// on this store's [`pool`](SpatialStore::pool) — the one session
    /// the join's transfer holds on the operands' shared pool.
    ///
    /// A store may batch other candidates of the join (`needed`) that
    /// live nearby according to `technique`, as the cluster organization
    /// transfers whole cluster units or SLM schedules; the other
    /// organizations ignore both and fetch the single object. `needed`
    /// is the operand's whole candidate set, built once from the MBR
    /// join's pairs and never pruned as objects are fetched: it also
    /// names candidates the join has already processed. It is only
    /// filled in when
    /// [`technique.reads_candidate_set()`](TransferTechnique::reads_candidate_set);
    /// an implementation must not read it otherwise.
    fn fetch_for_join(
        &self,
        oid: ObjectId,
        needed: &HashSet<ObjectId>,
        technique: TransferTechnique,
        session: &mut PoolSession<'_>,
    );

    /// A shadow copy of this store for the copy-on-write write path:
    /// an independent `SpatialStore` observing the same simulated disk
    /// and buffer pool, **structurally sharing** everything with
    /// `self`.
    ///
    /// The contract the paper's three organizations keep: a snapshot
    /// clones chunked pointer tables only — the R\*-tree's node table
    /// and the cluster organization's unit slab (both a
    /// [`CowSlab`](spatialdb_rtree::CowSlab)), the bucket directory of
    /// the per-object [`ObjectTable`](crate::ObjectTable) — so it costs
    /// one refcount bump per 64 nodes, units and buckets and no
    /// per-object work, and an update applied to it shadow-copies just
    /// what it dirties: one root-to-leaf node path, one cluster unit,
    /// one table bucket per touched object. Snapshot and original stay
    /// fully independent afterwards; neither observes the other's
    /// updates.
    ///
    /// The engine's concurrent writers (`SpatialDatabase`'s `&self`
    /// update path) build every commit on a snapshot and publish it
    /// atomically; readers keep traversing the superseded copy until
    /// epoch reclamation frees it. Taking the snapshot itself charges
    /// no I/O — the commit's page traffic is charged by the update
    /// applied to it, identically to the exclusive (`&mut`) path.
    ///
    /// A foreign backend gets the same commit cost by keeping its
    /// per-object state in an [`ObjectTable`](crate::ObjectTable) (or
    /// any `Arc`-shared chunks) next to its [`RStarTree`] and returning
    /// `Box::new(self.clone())`; a backend that clones flat maps here
    /// is still correct, its commits just cost O(objects) — that is
    /// what [`crate::MemoryStore`], the one-file oracle, does. The
    /// default panics: a backend without an override still supports the
    /// full exclusive API, just not `&self` writers.
    fn snapshot(&self) -> Box<dyn SpatialStore> {
        unimplemented!(
            "SpatialStore backend {:?} has no snapshot() override; \
             concurrent (&self) writers need one — the exclusive (&mut) \
             update path works without it",
            self.name()
        )
    }

    /// Total pages occupied (Figure 6's storage-utilization measure).
    fn occupied_pages(&self) -> u64;

    /// `true` if `oid` is currently stored.
    fn contains(&self, oid: ObjectId) -> bool;

    /// The shared buffer pool the store is built on.
    fn pool(&self) -> SharedPool;

    /// The simulated disk: the one under [`pool`](SpatialStore::pool).
    fn disk(&self) -> DiskHandle {
        self.pool().disk().clone()
    }

    /// The R\*-tree (for the join's MBR phase and diagnostics).
    fn tree(&self) -> &RStarTree;

    /// Write back all dirty buffered pages (end of construction).
    fn flush(&mut self);

    /// Start a cold query: drop all object pages from the buffer and
    /// (re-)pin the directory pages, which are assumed memory-resident
    /// during query processing.
    fn begin_query(&mut self);

    /// Structural self-check of the store's bookkeeping against its
    /// R\*-tree (diagnostics and tests; charges no I/O). The tree owns
    /// the object count ([`RStarTree::len`]); a store that keeps a
    /// per-object table beside it compares the two, and checks whatever
    /// else it must keep in step — the cluster organization's units, the
    /// primary organization's data-page tracking. The default, for a
    /// store with no state beside its tree, finds nothing to check, so a
    /// store that wraps another must forward this to it. The tree's own
    /// invariants are
    /// [`spatialdb_rtree::validate::check_invariants`]' job.
    fn check_consistency(&self) -> Result<(), String> {
        Ok(())
    }

    /// Install pre-tiled leaves: build the packed tree bottom-up and
    /// place the exact representations tile by tile. `tiles` must hold
    /// this store's own [`leaf_entry`](SpatialStore::leaf_entry) of
    /// every record, sorted with [`spatialdb_rtree::bulk::sort_entries`]
    /// and tiled with `params` — the tree configuration's
    /// [`TilingParams::from_config`] at
    /// [`DEFAULT_STR_FILL`](spatialdb_rtree::DEFAULT_STR_FILL), as
    /// [`spatialdb_rtree::bulk::plan_tiles`] does — and the store must
    /// be empty.
    ///
    /// Charges every write of the build: each packed level of the tree
    /// as one sequential run, leaves first, then the exact
    /// representations.
    ///
    /// The default (for foreign backends without a bottom-up build)
    /// falls back to inserting the records in tile order — same
    /// answers, insertion-built structure.
    fn str_install(&mut self, records: &[ObjectRecord], tiles: Vec<Tile>, params: &TilingParams) {
        let _ = params;
        let by_oid: std::collections::HashMap<ObjectId, &ObjectRecord> =
            records.iter().map(|r| (r.oid, r)).collect();
        for tile in tiles {
            for e in tile {
                self.insert(by_oid[&e.oid]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryStore;
    use crate::model::new_shared_pool;
    use spatialdb_disk::{Disk, IoKind, PageId, PageRun, RegionId};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A foreign backend whose filter step reads one page through a pool
    /// session and panics with the session open.
    struct Panicking(MemoryStore);

    impl SpatialStore for Panicking {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn insert(&mut self, rec: &ObjectRecord) {
            self.0.insert(rec)
        }
        fn delete(&mut self, oid: ObjectId) -> bool {
            self.0.delete(oid)
        }
        fn window_query_into(
            &self,
            _window: &Rect,
            _technique: WindowTechnique,
            _out: &mut Vec<LeafEntry>,
        ) -> u64 {
            let pool = self.pool();
            let region = pool.disk().create_region("panicking");
            let mut session = pool.session();
            session.read_page(PageId::new(region, 0));
            panic!("the filter step failed");
        }
        fn fetch_for_join(
            &self,
            oid: ObjectId,
            needed: &HashSet<ObjectId>,
            technique: TransferTechnique,
            session: &mut PoolSession<'_>,
        ) {
            self.0.fetch_for_join(oid, needed, technique, session)
        }
        fn occupied_pages(&self) -> u64 {
            self.0.occupied_pages()
        }
        fn contains(&self, oid: ObjectId) -> bool {
            self.0.contains(oid)
        }
        fn pool(&self) -> SharedPool {
            self.0.pool()
        }
        fn tree(&self) -> &RStarTree {
            self.0.tree()
        }
        fn flush(&mut self) {
            self.0.flush()
        }
        fn begin_query(&mut self) {
            self.0.begin_query()
        }
        fn check_consistency(&self) -> Result<(), String> {
            self.0.check_consistency()
        }
    }

    #[test]
    fn a_traced_query_that_unwinds_stops_tracing_its_thread() {
        let disk = Disk::with_defaults();
        let store = Panicking(MemoryStore::new(new_shared_pool(disk.clone(), 8)));
        let window = Rect::new(0.0, 0.0, 1.0, 1.0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            store.window_query_traced(&window, WindowTechnique::Complete)
        }));
        assert!(unwound.is_err());
        // Later charges on this thread belong to no capture…
        let region = disk.create_region("after");
        for page in 0..3 {
            disk.charge(
                IoKind::Read,
                PageRun::new(PageId::new(region, page), 1),
                false,
            );
        }
        // …so a fresh capture starts on a disarmed thread and sees none.
        let ((), trace) = disk.traced(|| ());
        assert!(trace.is_empty());
    }

    /// A filter step that panics with its pool session open keeps the
    /// session's charges — on the disk's counters, the thread's tally
    /// and the pool's counters — and leaves the pool usable on this
    /// thread.
    #[test]
    fn a_filter_step_that_unwinds_keeps_its_session_charges() {
        let disk = Disk::with_defaults();
        let store = Panicking(MemoryStore::new(new_shared_pool(disk.clone(), 8)));
        let window = Rect::new(0.0, 0.0, 1.0, 1.0);
        let before = disk.local_stats();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            store.window_query_into(&window, WindowTechnique::Complete, &mut Vec::new())
        }));
        assert!(unwound.is_err());
        assert_eq!(disk.stats().read_requests, 1);
        assert_eq!(disk.local_stats().since(&before).read_requests, 1);
        let pool = store.pool();
        assert_eq!(pool.misses(), 1);
        // Region 0 is the memory store's tree, region 1 the page read.
        let page = PageId::new(RegionId(1), 0);
        assert!(
            pool.read_page(page),
            "the page was read and the lock released"
        );
    }
}
