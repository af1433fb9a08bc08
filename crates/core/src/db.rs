//! The user-facing database API.
//!
//! A [`Workspace`] models one machine (simulated disk + shared buffer
//! pool); databases created in the same workspace can be joined against
//! each other. [`SpatialDatabase`] pairs a pluggable
//! [`SpatialStore`] backend with the exact [`Geometry`] of every object,
//! kept in memory for the *refinement* step — so queries return exact
//! answers while all I/O is charged to the simulated disk exactly as the
//! paper's cost model prescribes. Store and geometry form **one
//! versioned root**: the paper keeps the exact representation inside the
//! organization, and so does a snapshot of this database.
//!
//! Queries go through the streaming builder: see
//! [`SpatialDatabase::query`] and [`SpatialDatabase::join`]. The store
//! stack is `Send + Sync` with a `&self` read path, so queries and joins
//! borrow the database immutably — any number of threads may query one
//! database concurrently, and the executor ([`crate::stream`]) fans the
//! refinement of batches and streams across scoped worker threads.
//!
//! ## Concurrent writers: shadow paging + epochs
//!
//! **Updates take `&self` too**: [`SpatialDatabase::insert`] and
//! [`SpatialDatabase::remove`] serialize writers on an internal gate,
//! take a snapshot of the root, apply the update to that shadow, and
//! publish it by atomically swapping the root pointer. A snapshot
//! ([`SpatialStore::snapshot`] plus a clone of the geometry table)
//! clones **pointer tables only** — the R\*-tree's node table, the
//! cluster organization's unit slab and the bucket directories of the
//! per-object and geometry tables — so its cost does not depend on the
//! number of stored objects, and the commit shadow-copies just the
//! pieces it dirties: one root-to-leaf node path, one cluster unit, and
//! one bucket of either table per touched object. Everything else stays
//! shared with the snapshots readers still hold. **Readers never take the
//! writer gate**: a query pins an epoch
//! ([`spatialdb_epoch::Collector`]), loads the root, and traverses that
//! consistent snapshot for as long as its cursor lives — a concurrent
//! writer can neither block it nor mutate what it sees. Superseded
//! snapshots are retired to the database's collector and freed once no
//! pin can reach them (see the `spatialdb-epoch` docs). Exact geometry
//! rides the root as an [`ObjectTable`] of `Arc<Geometry>`: a pinned
//! root refines its own candidates with plain lookups — no lock, and no
//! commit can take a geometry away from it — and a removed object's
//! geometry is freed with the last snapshot that still references it.
//!
//! A write that panics (a duplicate id, an object larger than `Smax`)
//! leaves the database usable: nothing is published before the swap,
//! the shadow is dropped on unwind, and the writer gate ignores the
//! poison flag a panicking holder leaves behind.
//!
//! The exclusive entry points that remain `&mut self`
//! ([`bulk_load`](SpatialDatabase::bulk_load),
//! [`finish_loading`](SpatialDatabase::finish_loading),
//! [`store_mut`](SpatialDatabase::store_mut)) bypass versioning
//! entirely — `&mut` proves no reader exists, so they mutate the
//! current root in place, shadow nothing and retire nothing. They run
//! through the same copy-on-write structures; with nothing shared,
//! nothing is copied. The shared write path charges the **same
//! simulated I/O** as the exclusive one: the snapshot is a pure memory
//! operation, and the update applied to the shadow touches the same
//! pages of the same shared buffer pool.

use crate::config::{ConfigError, EngineConfig};
use crate::query::{JoinQuery, Query};
use crate::stream::{self, ExecPlan, Op, StreamOutcome};
use spatialdb_disk::{
    DepMutex, Disk, DiskHandle, DiskParams, IoStats, LockClass, ShardedPool, PAGE_SIZE,
};
use spatialdb_epoch::{Collector, Snapshot, SnapshotGuard};
use spatialdb_geom::{Geometry, HasMbr};
use spatialdb_rtree::ObjectId;
use spatialdb_storage::{
    ClusterConfig, ClusterOrganization, ObjectRecord, ObjectTable, OrganizationKind,
    PrimaryOrganization, SecondaryOrganization, SharedPool, SpatialStore, WindowTechnique,
};
use std::sync::Arc;

/// The exact geometry of every object of one database version, by id.
pub(crate) type GeometryTable = ObjectTable<Arc<Geometry>>;

/// One version of a database, published and reclaimed as a unit: the
/// store and the exact geometry of the objects in it. Both halves are
/// pointer tables over shared pieces, so deriving the next version
/// copies only what a commit touches.
pub(crate) struct Root {
    pub(crate) store: Box<dyn SpatialStore>,
    pub(crate) geoms: GeometryTable,
}

/// Options for creating a [`SpatialDatabase`] backed by one of the
/// paper's organization models.
#[derive(Clone, Debug)]
pub struct DbOptions {
    /// Which organization model stores the objects.
    pub organization: OrganizationKind,
    /// `Smax` in bytes (cluster organization only). Default 80 KB, the
    /// paper's series-A value.
    pub smax_bytes: u64,
    /// Use the restricted buddy system (§5.3.1) instead of full-`Smax`
    /// units (cluster organization only).
    pub restricted_buddy: bool,
    /// Window-query technique (cluster organization only).
    pub technique: WindowTechnique,
}

impl DbOptions {
    /// Defaults for the given organization model.
    pub fn new(organization: OrganizationKind) -> Self {
        DbOptions {
            organization,
            smax_bytes: 80 * 1024,
            restricted_buddy: false,
            technique: WindowTechnique::Slm,
        }
    }

    /// Set `Smax`.
    pub fn smax_bytes(mut self, bytes: u64) -> Self {
        self.smax_bytes = bytes;
        self
    }

    /// Enable the restricted buddy system.
    pub fn restricted_buddy(mut self, on: bool) -> Self {
        self.restricted_buddy = on;
        self
    }

    /// Set the window-query technique.
    pub fn technique(mut self, t: WindowTechnique) -> Self {
        self.technique = t;
        self
    }
}

/// One simulated machine: a disk and a shared buffer pool over it.
#[derive(Debug)]
pub struct Workspace {
    pool: SharedPool,
}

impl Workspace {
    /// Create a workspace with the paper's disk parameters and a buffer
    /// of `buffer_pages` pages (a single-shard pool — the deterministic
    /// configuration). Every other knob of the machine goes through
    /// [`from_config`](Workspace::from_config).
    pub fn new(buffer_pages: usize) -> Self {
        Self::from_config(EngineConfig::default().buffer_pages(buffer_pages))
    }

    /// Build the machine an [`EngineConfig`] describes — the one entry
    /// point for every configuration knob (buffer capacity, pool
    /// sharding) — on the paper's disk parameters:
    ///
    /// ```
    /// use spatialdb::{EngineConfig, Workspace};
    ///
    /// let ws = Workspace::from_config(EngineConfig::default().buffer_pages(1024).shards(8));
    /// # let _ = ws;
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// ([`EngineConfig::validate`]); use
    /// [`try_from_config`](Workspace::try_from_config) to handle the
    /// error instead.
    pub fn from_config(config: EngineConfig) -> Self {
        match Self::try_from_config(config) {
            Ok(ws) => ws,
            Err(e) => panic!("invalid EngineConfig: {e}"),
        }
    }

    /// Fallible [`from_config`](Workspace::from_config): returns the
    /// [`ConfigError`] naming the rejected knob combination instead of
    /// panicking.
    pub fn try_from_config(config: EngineConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let pool = Arc::new(ShardedPool::with_shards(
            Disk::new(DiskParams::default()),
            config.buffer_pages,
            config.shards,
        ));
        Ok(Workspace { pool })
    }

    /// The simulated disk: the one under the [`pool`](Workspace::pool).
    pub fn disk(&self) -> DiskHandle {
        self.pool.disk().clone()
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> SharedPool {
        self.pool.clone()
    }

    /// Create a database backed by one of the paper's organization
    /// models.
    pub fn create_database(&self, options: DbOptions) -> SpatialDatabase {
        let store: Box<dyn SpatialStore> = match options.organization {
            OrganizationKind::Secondary => Box::new(SecondaryOrganization::new(self.pool())),
            OrganizationKind::Primary => Box::new(PrimaryOrganization::new(self.pool())),
            OrganizationKind::Cluster => {
                let config = if options.restricted_buddy {
                    ClusterConfig::restricted_buddy(options.smax_bytes)
                } else {
                    ClusterConfig::plain(options.smax_bytes)
                };
                Box::new(ClusterOrganization::new(self.pool(), config))
            }
        };
        SpatialDatabase::from_parts(store, options.technique)
    }

    /// Execute a batch of independent window/point queries under an
    /// [`ExecPlan`] — the one batch entry point.
    ///
    /// Build the queries with [`SpatialDatabase::query`] (without calling
    /// `run`) and hand them over; they may target different databases of
    /// **this workspace**. A batch is a
    /// [`run_stream`](crate::stream::run_stream) without writes, and
    /// returns its [`StreamOutcome`] — one
    /// [`OpOutcome::Query`](crate::stream::OpOutcome::Query) per query,
    /// in submission order. The filter steps are issued in that order
    /// against the workspace's single simulated disk — see the
    /// [`stream`] module docs for why that keeps every
    /// per-query and aggregate statistic **identical to sequential
    /// execution**, at any thread count — while the exact-geometry
    /// refinement runs on the plan's worker threads (a bare thread
    /// count, as below, is a plan).
    ///
    /// ```
    /// # use spatialdb::{DbOptions, OpOutcome, OrganizationKind, Workspace};
    /// # use spatialdb::geom::{Point, Polyline, Rect};
    /// # let ws = Workspace::new(256);
    /// # let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    /// # for i in 0..32u64 {
    /// #     let x = (i % 8) as f64 / 8.0;
    /// #     db.insert(i, Polyline::new(vec![Point::new(x, 0.1), Point::new(x + 0.05, 0.15)]));
    /// # }
    /// # db.finish_loading();
    /// let batch = ws.run_batch(
    ///     vec![
    ///         db.query().window(Rect::new(0.0, 0.0, 0.5, 0.5)),
    ///         db.query().window(Rect::new(0.5, 0.0, 1.0, 0.5)),
    ///         db.query().point(Point::new(0.1, 0.1)),
    ///     ],
    ///     8,
    /// );
    /// assert_eq!(batch.len(), 3);
    /// let OpOutcome::Query { ids, stats, .. } = &batch.outcomes()[0] else {
    ///     unreachable!("a batch holds only queries")
    /// };
    /// assert!(ids.len() <= stats.candidates);
    /// let total_io = batch.aggregate_io();
    /// # let _ = total_io;
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a query targets a database of another workspace (its
    /// store is not built on this workspace's pool), and propagates the
    /// panic of a query that cannot execute (no target set, a
    /// filter-only record to refine).
    pub fn run_batch(&self, queries: Vec<Query<'_>>, plan: impl Into<ExecPlan>) -> StreamOutcome {
        for (i, q) in queries.iter().enumerate() {
            assert!(
                Arc::ptr_eq(&q.db.store().pool(), &self.pool),
                "query {i} targets a database of another workspace"
            );
        }
        let reads = queries.into_iter().map(Op::Read).collect();
        stream::execute(reads, plan.into().threads)
    }

    /// [`SpatialDatabase::bulk_load`] with the sort and tile stages on
    /// `threads` scoped worker threads (see [`crate::bulkload`]).
    ///
    /// The resulting database — tree structure, physical placement,
    /// every query answer — and the charged I/O are **byte-identical at
    /// every thread count**. Compared to inserting the objects one by
    /// one, the packed build charges strictly less simulated I/O and
    /// yields data pages filled at the configured fill factor instead of
    /// insertion's ~70 %.
    ///
    /// # Panics
    ///
    /// Panics if `db` belongs to another workspace, is non-empty, or an
    /// object id repeats.
    pub fn bulk_load_par(
        &self,
        db: &mut SpatialDatabase,
        objects: Vec<(u64, Geometry)>,
        threads: usize,
    ) {
        assert!(
            Arc::ptr_eq(&db.store().pool(), &self.pool),
            "database belongs to another workspace"
        );
        db.bulk_load_on(objects, threads);
    }

    /// Create a database on a caller-supplied [`SpatialStore`] backend —
    /// the extension point for organizations beyond the paper's three.
    ///
    /// The store must be built on this workspace's
    /// [`pool`](Workspace::pool) (and so charge its
    /// [`disk`](Workspace::disk)): its queries are then measured on this
    /// machine, and it can take part in joins, batches and parallel bulk
    /// loads. Note the trait's one structural requirement:
    /// every backend embeds an R\*-tree over the object MBRs as its
    /// filter index (see the `spatialdb_storage::store` docs) — what a
    /// backend is free to reinvent is the layout of the exact
    /// representations. A backend that wants the shared (`&self`) write
    /// path must also override
    /// [`SpatialStore::snapshot`]
    /// (typically `Box::new(self.clone())` on a `Clone` store, as below);
    /// without it only the exclusive `&mut` entry points work.
    ///
    /// ```
    /// use spatialdb::storage::{
    ///     MemoryStore, ObjectRecord, SharedPool, SpatialStore, WindowTechnique,
    /// };
    /// use spatialdb::geom::{Point, Polyline, Rect};
    /// use spatialdb::rtree::{LeafEntry, ObjectId, RStarTree};
    /// use spatialdb::Workspace;
    ///
    /// /// A custom backend: here it simply wraps the in-memory baseline,
    /// /// but any from-scratch organization implements the same trait.
    /// #[derive(Clone)]
    /// struct GridFileStore(MemoryStore);
    ///
    /// impl SpatialStore for GridFileStore {
    ///     fn name(&self) -> &'static str {
    ///         "grid file"
    ///     }
    ///     fn snapshot(&self) -> Box<dyn SpatialStore> {
    ///         Box::new(self.clone())
    ///     }
    ///     fn insert(&mut self, rec: &ObjectRecord) {
    ///         self.0.insert(rec)
    ///     }
    ///     fn delete(&mut self, oid: ObjectId) -> bool {
    ///         self.0.delete(oid)
    ///     }
    ///     // The one read method: the filter step, handing back its
    ///     // candidates and returning their bytes (the caller measures
    ///     // the I/O). Point queries default to a degenerate window.
    ///     fn window_query_into(
    ///         &self,
    ///         w: &Rect,
    ///         t: WindowTechnique,
    ///         out: &mut Vec<LeafEntry>,
    ///     ) -> u64 {
    ///         self.0.window_query_into(w, t, out)
    ///     }
    ///     fn fetch_object(&self, oid: ObjectId) {
    ///         self.0.fetch_object(oid)
    ///     }
    ///     fn occupied_pages(&self) -> u64 {
    ///         self.0.occupied_pages()
    ///     }
    ///     fn num_objects(&self) -> usize {
    ///         self.0.num_objects()
    ///     }
    ///     fn contains(&self, oid: ObjectId) -> bool {
    ///         self.0.contains(oid)
    ///     }
    ///     fn pool(&self) -> SharedPool {
    ///         self.0.pool()
    ///     }
    ///     fn tree(&self) -> &RStarTree {
    ///         self.0.tree()
    ///     }
    ///     fn flush(&mut self) {
    ///         self.0.flush()
    ///     }
    ///     fn begin_query(&mut self) {
    ///         self.0.begin_query()
    ///     }
    /// }
    ///
    /// // Register the custom store and use it like any other database.
    /// let ws = Workspace::new(128);
    /// let store = GridFileStore(MemoryStore::new(ws.pool()));
    /// let mut db = ws.create_database_with(Box::new(store));
    /// db.insert(7, Polyline::new(vec![Point::new(0.1, 0.1), Point::new(0.2, 0.2)]));
    /// db.finish_loading();
    /// let ids = db.query().window(Rect::new(0.0, 0.0, 1.0, 1.0)).run().ids();
    /// assert_eq!(ids, vec![7]);
    /// assert_eq!(db.query().point(Point::new(0.1, 0.1)).run().ids(), vec![7]);
    /// assert_eq!(db.store_name(), "grid file");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the store is built on another pool than this
    /// workspace's: its queries would charge another machine's disk.
    pub fn create_database_with(&self, store: Box<dyn SpatialStore>) -> SpatialDatabase {
        assert!(
            Arc::ptr_eq(&store.pool(), &self.pool),
            "store {:?} is built on another workspace's pool",
            store.name()
        );
        SpatialDatabase::from_parts(store, WindowTechnique::Slm)
    }
}

/// A spatial database: a pluggable storage backend plus the exact
/// geometry used for query refinement.
///
/// Both live behind one versioned root pointer
/// ([`Snapshot`]): reads pin an epoch and
/// traverse a consistent copy-on-write snapshot, writes serialize on an
/// internal gate and publish shadow copies — see the [module
/// docs](crate::db) for the full concurrency story.
pub struct SpatialDatabase {
    /// The published version. Readers pin it through
    /// [`store`](Self::store); `&self` writers clone-apply-swap it;
    /// `&mut` paths mutate it in place through [`Snapshot::get_mut`].
    pub(crate) root: Snapshot<Root>,
    /// Epoch manager deciding when superseded store snapshots are freed.
    pub(crate) epochs: Collector,
    /// The writer gate: at most one `&self` writer clones and publishes
    /// at a time. First rank of the lock hierarchy; readers never touch
    /// it.
    pub(crate) writer: DepMutex<()>,
    pub(crate) technique: WindowTechnique,
}

impl std::fmt::Debug for SpatialDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The store is a trait object; identify it by its backend name.
        f.debug_struct("SpatialDatabase")
            .field("store", &self.store().name())
            .field("technique", &self.technique)
            .field("objects", &self.store().geoms().len())
            .finish()
    }
}

/// A pinned, read-only view of a database's store: the loaded root
/// snapshot (store and geometry) plus the epoch pin that keeps it alive. Obtained from
/// [`SpatialDatabase::store`]; dereferences to
/// [`dyn SpatialStore`](SpatialStore), so `db.store().window_query(..)`
/// reads exactly like the pre-versioning accessor. While the guard
/// lives, concurrent writers publish *around* it — the view never
/// changes and is never freed under it.
pub struct StoreRead<'a> {
    guard: SnapshotGuard<'a, Root>,
}

impl StoreRead<'_> {
    /// The epoch this view is pinned at (diagnostics and the
    /// snapshot-isolation tests).
    pub fn pinned_epoch(&self) -> u64 {
        self.guard.epoch()
    }

    /// The exact geometry of this version's objects.
    pub(crate) fn geoms(&self) -> &GeometryTable {
        &self.guard.geoms
    }

    /// `true` if every stored object has exact geometry, so a candidate
    /// need not be looked up to know it *can* be refined. Records
    /// bulk-loaded through `store_mut()` are filter-only and make the
    /// two counts differ; the refinement step then looks every
    /// candidate up (and panics on the first one without geometry).
    pub(crate) fn fully_refinable(&self) -> bool {
        self.guard.geoms.len() == self.guard.store.num_objects()
    }
}

impl std::ops::Deref for StoreRead<'_> {
    type Target = dyn SpatialStore;
    fn deref(&self) -> &(dyn SpatialStore + 'static) {
        &*self.guard.store
    }
}

impl std::fmt::Debug for StoreRead<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreRead")
            .field("store", &self.name())
            .field("epoch", &self.pinned_epoch())
            .finish()
    }
}

/// What the storage layer gets to know about `geometry` stored under
/// `id`: the MBR, the serialized size, and the hint encoded against that
/// same MBR.
fn record_of(id: u64, geometry: &Geometry) -> ObjectRecord {
    let size = geometry.serialized_size() as u32;
    ObjectRecord::new(ObjectId(id), geometry.mbr(), size).with_hint(geometry.hint())
}

impl SpatialDatabase {
    /// Assemble a database around a boxed backend (shared constructor of
    /// the `Workspace` factory methods).
    pub(crate) fn from_parts(
        store: Box<dyn SpatialStore>,
        technique: WindowTechnique,
    ) -> SpatialDatabase {
        let geoms = GeometryTable::new();
        SpatialDatabase {
            root: Snapshot::new(Root { store, geoms }),
            epochs: Collector::new(),
            writer: DepMutex::new(LockClass::DbWriter, ()),
            technique,
        }
    }

    /// The body of both bulk-load entry points: STR-load the records of
    /// `objects` on `threads`, then register their exact geometry — the
    /// table is built in one pass, not per object.
    fn bulk_load_on(&mut self, objects: Vec<(u64, Geometry)>, threads: usize) {
        let records: Vec<ObjectRecord> = objects.iter().map(|(id, g)| record_of(*id, g)).collect();
        // Exclusive path: `&mut self` proves no pinned reader exists, so
        // the load mutates the current root in place — no shadow copy.
        crate::bulkload::bulk_load_records_par(self.store_mut(), &records, threads);
        let geoms = objects
            .into_iter()
            .map(|(id, g)| (ObjectId(id), Arc::new(g)));
        self.root.get_mut().geoms = GeometryTable::from_records(geoms.collect());
    }

    /// Insert an object under `id`. Accepts anything convertible into a
    /// [`Geometry`]: a `Point`, a `Polyline` (stored decomposed), or a
    /// `Polygon`.
    ///
    /// Takes `&self`: the update is applied to a copy-on-write shadow of
    /// the store and published atomically, so concurrent readers keep
    /// traversing the snapshot they pinned and are never blocked.
    /// Writers serialize on the database's writer gate. The charged
    /// simulated I/O is identical to the exclusive path — the shadow is
    /// a pointer-table clone, a pure memory operation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present. The database stays fully
    /// usable afterwards (see the [module docs](crate::db)).
    pub fn insert(&self, id: u64, geometry: impl Into<Geometry>) {
        let geometry = geometry.into();
        // Ask the store, not just the geometry map: ids bulk-loaded
        // directly into the backend (filter-only records) must also be
        // rejected, or the index would hold duplicate entries.
        let assert_absent = |store: &dyn SpatialStore| {
            assert!(!store.contains(ObjectId(id)), "object {id} already stored");
        };
        // A caller's mistake is rejected before it can hold up other
        // writers; the check is repeated under the gate because a
        // concurrent writer may have stored `id` in between.
        assert_absent(&*self.store());
        let _gate = self.writer.acquire_unpoisoned();
        let (mut store, mut geoms) = {
            let cur = self.root.pin(&self.epochs);
            assert_absent(&*cur.store);
            (cur.store.snapshot(), cur.geoms.clone())
        };
        store.insert(&record_of(id, &geometry));
        geoms.insert(ObjectId(id), Arc::new(geometry));
        // One swap publishes the index entry and the geometry it needs.
        self.root.swap(Root { store, geoms }, &self.epochs);
    }

    /// Bulk-load `objects` into this (empty) database with the
    /// sort-tile-recursive build
    /// ([`bulk_load_records_par`](crate::bulkload::bulk_load_records_par)
    /// on one thread): the R\*-tree is packed bottom-up at the configured
    /// fill factor and the exact representations are placed in tile
    /// order, charging strictly less simulated I/O than the same objects
    /// inserted one by one. [`Workspace::bulk_load_par`] sorts and tiles
    /// on several threads and builds a byte-identical database.
    ///
    /// # Panics
    ///
    /// Panics if the database is non-empty or an object id repeats.
    pub fn bulk_load(&mut self, objects: Vec<(u64, impl Into<Geometry>)>) {
        let objects = objects.into_iter().map(|(id, g)| (id, g.into())).collect();
        self.bulk_load_on(objects, 1);
    }

    /// Delete an object. Returns `false` when `id` was not stored.
    /// Insertions and deletions can be intermixed with queries without
    /// any global reorganization (§4.1 of the paper).
    ///
    /// Takes `&self` and never blocks readers — shadow-paged like
    /// [`insert`](SpatialDatabase::insert). A reader pinned to an older
    /// snapshot still finds the object *and* its geometry there; the
    /// geometry is freed when the last such snapshot is reclaimed.
    pub fn remove(&self, id: u64) -> bool {
        let _gate = self.writer.acquire_unpoisoned();
        let (mut store, mut geoms) = {
            let cur = self.root.pin(&self.epochs);
            if !cur.store.contains(ObjectId(id)) {
                return false;
            }
            (cur.store.snapshot(), cur.geoms.clone())
        };
        let removed = store.delete(ObjectId(id));
        debug_assert!(removed, "gate held: contains() cannot go stale");
        geoms.remove(ObjectId(id));
        self.root.swap(Root { store, geoms }, &self.epochs);
        true
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.store().num_objects()
    }

    /// `true` if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Start building a query. Finish with
    /// [`run`](crate::query::Query::run) to obtain a lazy
    /// [`ResultCursor`](crate::query::ResultCursor):
    ///
    /// ```no_run
    /// # use spatialdb::{DbOptions, OrganizationKind, Workspace};
    /// # use spatialdb::geom::{HasMbr, Rect};
    /// # use spatialdb::storage::WindowTechnique;
    /// # let ws = Workspace::new(64);
    /// # let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    /// for (id, geometry) in db
    ///     .query()
    ///     .window(Rect::new(0.0, 0.0, 0.25, 0.25))
    ///     .technique(WindowTechnique::Slm)
    ///     .run()
    /// {
    ///     println!("{id}: {:?}", geometry.mbr());
    /// }
    /// ```
    pub fn query(&self) -> Query<'_> {
        Query::new(self)
    }

    /// Start building an intersection join against `other` (same
    /// workspace). Finish with [`run`](crate::query::JoinQuery::run) to
    /// obtain a lazy [`JoinCursor`](crate::query::JoinCursor), or with
    /// [`run_par`](crate::query::JoinQuery::run_par) to refine its pairs
    /// on several threads.
    pub fn join<'a>(&'a self, other: &'a SpatialDatabase) -> JoinQuery<'a> {
        JoinQuery::new(self, other)
    }

    /// Accumulated I/O statistics of the workspace disk — cumulative
    /// over everything that ran on this machine. The cost of a single
    /// query is on its cursor
    /// ([`ResultCursor::io_stats`](crate::query::ResultCursor::io_stats)).
    pub fn io_stats(&self) -> IoStats {
        self.store().disk().stats()
    }

    /// Total pages occupied on the simulated disk.
    pub fn occupied_pages(&self) -> u64 {
        self.store().occupied_pages()
    }

    /// Occupied storage in megabytes.
    pub fn occupied_mb(&self) -> f64 {
        (self.occupied_pages() * PAGE_SIZE as u64) as f64 / (1024.0 * 1024.0)
    }

    /// Write back dirty pages and prepare for cold queries. Also a
    /// quiescent point: `&mut self` proves no reader is pinned, so every
    /// superseded snapshot is freed.
    pub fn finish_loading(&mut self) {
        let store = &mut self.root.get_mut().store;
        store.flush();
        store.begin_query();
        // Two epoch distances plus the advance itself drain the whole
        // retired list when no pin is outstanding.
        for _ in 0..3 {
            self.epochs.advance_and_collect();
        }
    }

    /// A pinned, read-only view of the storage backend (diagnostics,
    /// experiments). The view is a consistent snapshot: writers that
    /// publish while the guard lives do not change what it sees.
    pub fn store(&self) -> StoreRead<'_> {
        StoreRead {
            guard: self.root.pin(&self.epochs),
        }
    }

    /// Mutable access to the storage backend — the exclusive update
    /// path, bypassing versioning (no shadow copy, nothing retired).
    pub fn store_mut(&mut self) -> &mut dyn SpatialStore {
        self.root.get_mut().store.as_mut()
    }

    /// Short name of the storage backend ("cluster org.", "memory", …).
    pub fn store_name(&self) -> &'static str {
        self.store().name()
    }

    /// Number of readers currently pinned to a snapshot of this
    /// database (diagnostics and the concurrency tests).
    pub fn pinned_readers(&self) -> usize {
        self.epochs.pinned_readers()
    }

    /// Store snapshots retired but not yet freed (diagnostics and the
    /// reclamation tests).
    pub fn retired_snapshots(&self) -> usize {
        self.epochs.retired_len()
    }

    /// The ids of all live objects with exact geometry, sorted
    /// ascending. The id universe mixed-workload drivers draw delete
    /// targets from.
    pub fn object_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.store().geoms().keys().map(|oid| oid.0).collect();
        ids.sort_unstable();
        ids
    }

    /// The exact geometry of an object, if stored.
    ///
    /// Consults the store first, so an object deleted through
    /// [`store_mut`](SpatialDatabase::store_mut) (bypassing
    /// [`remove`](SpatialDatabase::remove)) does not surface a stale
    /// geometry.
    pub fn geometry(&self, id: u64) -> Option<Arc<Geometry>> {
        let root = self.store();
        if root.contains(ObjectId(id)) {
            root.geoms().get(ObjectId(id)).cloned()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatialdb_geom::{Point, Polygon, Polyline, Rect};
    use spatialdb_storage::MemoryStore;

    fn street(x: f64, y: f64) -> Polyline {
        Polyline::new(vec![
            Point::new(x, y),
            Point::new(x + 0.01, y + 0.005),
            Point::new(x + 0.02, y),
        ])
    }

    #[test]
    fn insert_and_query_all_kinds() {
        for kind in [
            OrganizationKind::Secondary,
            OrganizationKind::Primary,
            OrganizationKind::Cluster,
        ] {
            let ws = Workspace::new(256);
            let mut db = ws.create_database(DbOptions::new(kind));
            for i in 0..50u64 {
                db.insert(i, street((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0));
            }
            db.finish_loading();
            assert_eq!(db.len(), 50);
            let window = Rect::new(0.0, 0.0, 0.25, 0.25);
            let hits: Vec<(u64, bool)> = db
                .query()
                .window(window)
                .run()
                .map(|(id, g)| (id, g.intersects_rect(&window)))
                .collect();
            assert!(!hits.is_empty(), "{kind:?}");
            // Exact refinement: every reported object really intersects.
            assert!(hits.iter().all(|(_, ok)| *ok), "{kind:?}");
        }
    }

    #[test]
    fn point_query_exact() {
        let ws = Workspace::new(256);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        db.insert(7, street(0.5, 0.5));
        db.finish_loading();
        // On the first vertex.
        assert_eq!(db.query().point(Point::new(0.5, 0.5)).run().ids(), vec![7]);
        // Inside the MBR but off the line.
        assert!(db
            .query()
            .point(Point::new(0.505, 0.0049))
            .run()
            .ids()
            .is_empty());
    }

    #[test]
    fn mixed_geometry_kinds_queryable() {
        let ws = Workspace::new(256);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        db.insert(1, Point::new(0.5, 0.5));
        db.insert(2, street(0.45, 0.5));
        db.insert(
            3,
            Polygon::new(vec![
                Point::new(0.45, 0.45),
                Point::new(0.55, 0.45),
                Point::new(0.55, 0.55),
                Point::new(0.45, 0.55),
            ]),
        );
        db.insert(4, Point::new(0.9, 0.9));
        db.finish_loading();
        let hits = db
            .query()
            .window(Rect::new(0.44, 0.44, 0.56, 0.56))
            .run()
            .ids();
        assert_eq!(hits, vec![1, 2, 3]);
        // The polygon contains the point; the polyline passes through it.
        let through = db.query().point(Point::new(0.5, 0.5)).run().ids();
        assert!(through.contains(&1));
        assert!(through.contains(&3));
    }

    #[test]
    fn cursor_is_lazy_and_carries_per_query_stats() {
        let ws = Workspace::new(256);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..60u64 {
            db.insert(i, street((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0));
        }
        db.finish_loading();
        let all = Rect::new(-1.0, -1.0, 2.0, 2.0);
        let mut cursor = db.query().window(all).run();
        assert_eq!(cursor.stats().candidates, 60);
        assert!(cursor.stats().io_ms > 0.0);
        assert!(cursor.io_stats().read_requests > 0);
        // Streaming: taking a prefix leaves the rest unrefined.
        let first3: Vec<u64> = cursor.by_ref().take(3).map(|(id, _)| id).collect();
        assert_eq!(first3, vec![0, 1, 2]);
        let rest = cursor.count();
        assert_eq!(rest, 57);
    }

    #[test]
    fn per_query_stats_not_cumulative() {
        let ws = Workspace::new(128);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..40u64 {
            db.insert(i, street((i % 8) as f64 / 8.0, (i / 8) as f64 / 8.0));
        }
        db.finish_loading();
        let w = Rect::new(0.0, 0.0, 0.6, 0.6);
        let first = {
            let c = db.query().window(w).run();
            (c.stats(), c.io_stats())
        };
        // A cold repeat of the same query must report the same per-query
        // cost even though the workspace's cumulative counters grew.
        db.store_mut().begin_query();
        let second = {
            let c = db.query().window(w).run();
            (c.stats(), c.io_stats())
        };
        assert_eq!(first.0, second.0);
        assert_eq!(first.1.read_requests, second.1.read_requests);
        assert_eq!(first.1.io_ms, second.1.io_ms);
        // Cumulative disk stats kept growing past the per-query delta.
        assert!(db.io_stats().read_requests > second.1.read_requests);
    }

    #[test]
    #[should_panic(expected = "already stored")]
    fn duplicate_id_rejected() {
        let ws = Workspace::new(64);
        let db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
        db.insert(1, street(0.1, 0.1));
        db.insert(1, street(0.2, 0.2));
    }

    #[test]
    #[should_panic(expected = "already stored")]
    fn duplicate_id_via_bulk_load_rejected() {
        let ws = Workspace::new(64);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
        db.store_mut().insert(&ObjectRecord::new(
            ObjectId(5),
            Rect::new(0.1, 0.1, 0.2, 0.2),
            640,
        ));
        db.insert(5, street(0.1, 0.1));
    }

    #[test]
    fn a_panicking_write_does_not_brick_the_database() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let ws = Workspace::new(64);
        let db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        db.insert(1, street(0.1, 0.1));
        let duplicate = catch_unwind(AssertUnwindSafe(|| db.insert(1, street(0.2, 0.2))));
        assert!(duplicate.is_err(), "duplicate id must be rejected");
        // A panic *under* the gate (the store rejects the object after
        // the gate is taken) poisons it; later writers recover.
        let huge = Polyline::new(
            (0..20_000)
                .map(|i| Point::new(i as f64 * 1e-5, 0.5))
                .collect(),
        );
        let oversized = catch_unwind(AssertUnwindSafe(|| db.insert(9, huge)));
        assert!(
            oversized.is_err(),
            "object larger than Smax must be rejected"
        );
        db.insert(2, street(0.3, 0.3));
        assert!(db.remove(1));
        assert_eq!(db.len(), 1);
        let all = Rect::new(-1.0, -1.0, 2.0, 2.0);
        assert_eq!(db.query().window(all).run().ids(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "needs .window(..) or .point(..)")]
    fn query_without_target_panics() {
        let ws = Workspace::new(64);
        let db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
        let _ = db.query().run();
    }

    #[test]
    fn join_of_two_databases() {
        let ws = Workspace::new(512);
        let mut a = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        let mut b = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..30u64 {
            a.insert(i, street((i % 6) as f64 / 6.0, (i / 6) as f64 / 6.0));
            // Same layout shifted slightly: many crossings.
            b.insert(
                i,
                street((i % 6) as f64 / 6.0 + 0.005, (i / 6) as f64 / 6.0),
            );
        }
        a.finish_loading();
        b.finish_loading();
        let cursor = a.join(&b).run();
        let stats = cursor.stats();
        let pairs = cursor.pairs();
        assert!(stats.mbr_pairs > 0);
        assert!(!pairs.is_empty());
        assert!(pairs.len() as u64 <= stats.mbr_pairs, "refinement filters");
    }

    #[test]
    fn remove_intermixed_with_queries() {
        let ws = Workspace::new(256);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..60u64 {
            db.insert(i, street((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0));
        }
        db.finish_loading();
        assert!(db.remove(5));
        assert!(!db.remove(5));
        let all = Rect::new(-1.0, -1.0, 2.0, 2.0);
        let hits = db.query().window(all).run().ids();
        assert_eq!(hits.len(), 59);
        assert!(!hits.contains(&5));
        // Re-insert under the same id after removal.
        db.insert(5, street(0.9, 0.9));
        assert_eq!(db.query().window(all).run().ids().len(), 60);
    }

    #[test]
    fn io_accounting_visible() {
        let ws = Workspace::new(64);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
        for i in 0..20u64 {
            db.insert(i, street((i % 5) as f64 / 5.0, (i / 5) as f64 / 5.0));
        }
        db.finish_loading();
        let s = db.io_stats();
        assert!(s.write_requests > 0);
        assert!(db.occupied_pages() > 0);
        assert!(db.occupied_mb() > 0.0);
    }

    #[test]
    fn readers_see_pinned_snapshots_not_later_writes() {
        let ws = Workspace::new(256);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..40u64 {
            db.insert(i, street((i % 8) as f64 / 8.0, (i / 8) as f64 / 8.0));
        }
        db.finish_loading();
        let all = Rect::new(-1.0, -1.0, 2.0, 2.0);
        // The cursor pins a snapshot at run(); everything it reads —
        // candidates included — comes from that version.
        let cursor = db.query().window(all).run();
        assert_eq!(db.pinned_readers(), 1, "the cursor holds an epoch pin");
        db.insert(100, street(0.5, 0.5));
        assert!(db.remove(7));
        let pinned_ids = cursor.ids();
        assert_eq!(pinned_ids.len(), 40, "snapshot: no 100, still has 7");
        assert!(pinned_ids.contains(&7));
        assert!(!pinned_ids.contains(&100));
        // A fresh query sees the published state.
        let fresh_ids = db.query().window(all).run().ids();
        assert_eq!(fresh_ids.len(), 40);
        assert!(!fresh_ids.contains(&7));
        assert!(fresh_ids.contains(&100));
        assert_eq!(db.pinned_readers(), 0);
    }

    #[test]
    fn readers_never_take_the_writer_gate() {
        let ws = Workspace::new(256);
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..30u64 {
            db.insert(i, street((i % 6) as f64 / 6.0, (i / 6) as f64 / 6.0));
        }
        db.finish_loading();
        // Hold the writer gate for the whole scope — a reader that
        // needed it would deadlock this test instead of finishing.
        let _gate = db.writer.acquire();
        let ids = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    db.query()
                        .window(Rect::new(-1.0, -1.0, 2.0, 2.0))
                        .run()
                        .ids()
                })
                .join()
                .expect("reader panicked")
        });
        assert_eq!(ids.len(), 30, "reader completed under a held writer gate");
    }

    #[test]
    fn superseded_snapshots_are_reclaimed_not_leaked() {
        let ws = Workspace::new(256);
        let db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..10u64 {
            db.insert(i, street((i % 5) as f64 / 5.0, (i / 5) as f64 / 5.0));
        }
        // With no pins outstanding, each publish's collection pass keeps
        // the retired list within the two-epoch window.
        assert!(
            db.retired_snapshots() <= 2,
            "{} retired snapshots linger without a pin",
            db.retired_snapshots()
        );
        // A pinned reader blocks reclamation…
        let cursor = db.query().window(Rect::new(-1.0, -1.0, 2.0, 2.0)).run();
        for i in 10..20u64 {
            db.insert(i, street((i % 5) as f64 / 5.0, (i / 5) as f64 / 5.0));
        }
        assert!(
            db.retired_snapshots() >= 9,
            "{} retired while a pin blocks the epoch",
            db.retired_snapshots()
        );
        // …and releasing it lets later publishes drain the backlog.
        drop(cursor);
        for i in 20..24u64 {
            db.insert(i, street((i % 5) as f64 / 5.0, (i / 5) as f64 / 5.0));
        }
        assert!(
            db.retired_snapshots() <= 2,
            "{} retired snapshots survive the drained pin",
            db.retired_snapshots()
        );
    }

    #[test]
    fn shared_write_path_charges_identical_io_to_exclusive_path() {
        // The determinism contract: a single writer with no readers
        // charges byte-identical I/O through the shadow-paging (&self)
        // path and through the in-place (&mut, store_mut) path.
        let load = |shadow: bool| {
            let ws = Workspace::new(256);
            let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
            for i in 0..50u64 {
                let g = street((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0);
                if shadow {
                    db.insert(i, g);
                } else {
                    let geometry: Geometry = g.into();
                    let rec = record_of(i, &geometry);
                    let root = db.root.get_mut();
                    root.store.insert(&rec);
                    root.geoms.insert(ObjectId(i), Arc::new(geometry));
                }
            }
            for i in (0..50u64).step_by(3) {
                if shadow {
                    assert!(db.remove(i));
                } else {
                    assert!(db.store_mut().delete(ObjectId(i)));
                }
            }
            db.finish_loading();
            let w = Rect::new(0.1, 0.1, 0.7, 0.7);
            let cursor = db.query().window(w).run();
            (db.io_stats(), cursor.stats(), cursor.ids())
        };
        let (io_shadow, stats_shadow, ids_shadow) = load(true);
        let (io_excl, stats_excl, ids_excl) = load(false);
        assert_eq!(io_shadow, io_excl, "cumulative I/O must be byte-identical");
        assert_eq!(stats_shadow, stats_excl);
        assert_eq!(ids_shadow, ids_excl);
    }

    #[test]
    fn concurrent_writers_and_readers_conserve_objects() {
        let ws = Workspace::from_config(EngineConfig::default().buffer_pages(512).shards(8));
        let db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
        for i in 0..200u64 {
            db.insert(i, street((i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0));
        }
        let all = Rect::new(-1.0, -1.0, 2.0, 2.0);
        std::thread::scope(|scope| {
            // Two writers: one inserting fresh ids, one removing evens.
            scope.spawn(|| {
                for i in 200..260u64 {
                    db.insert(i, street((i % 20) as f64 / 20.0, 0.95));
                }
            });
            scope.spawn(|| {
                for i in (0..120u64).step_by(2) {
                    assert!(db.remove(i), "id {i} vanished without a remove");
                }
            });
            // Four readers: every observed result set is a consistent
            // snapshot — between 200-60 and 200+60 objects, never torn.
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..30 {
                        let n = db.query().window(all).run().ids().len();
                        assert!((140..=260).contains(&n), "torn read: {n} objects");
                    }
                });
            }
        });
        assert_eq!(db.len(), 200 - 60 + 60);
        let ids = db.query().window(all).run().ids();
        assert_eq!(ids.len(), 200);
        assert!(!ids.contains(&0) && ids.contains(&1) && ids.contains(&259));
    }

    #[test]
    fn custom_store_backs_a_database() {
        let ws = Workspace::new(64);
        let store = MemoryStore::new(ws.pool());
        let mut db = ws.create_database_with(Box::new(store));
        assert_eq!(db.store_name(), "memory");
        for i in 0..20u64 {
            db.insert(i, street((i % 5) as f64 / 5.0, (i / 5) as f64 / 5.0));
        }
        db.finish_loading();
        let hits = db.query().window(Rect::new(0.0, 0.0, 1.0, 1.0)).run();
        assert_eq!(hits.stats().io_ms, 0.0, "memory store charges no I/O");
        assert_eq!(hits.ids().len(), 20);
    }

    /// A store on another workspace's pool would charge that machine's
    /// disk, out of this workspace's sight: refused at entry, not at its
    /// first batch, bulk load or join.
    #[test]
    #[should_panic(expected = "built on another workspace's pool")]
    fn a_store_on_another_workspace_pool_is_refused() {
        let (ws, other) = (Workspace::new(64), Workspace::new(64));
        let _ = ws.create_database_with(Box::new(MemoryStore::new(other.pool())));
    }
}
