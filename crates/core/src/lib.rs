//! # spatialdb
//!
//! A from-scratch reproduction of Brinkhoff & Kriegel, *"The Impact of
//! Global Clustering on Spatial Database Systems"*, VLDB 1994 — a spatial
//! database storage engine built around the paper's **cluster
//! organization** for global clustering, together with the secondary and
//! primary organization baselines, an R\*-tree, a magnetic-disk I/O cost
//! simulator, the window-query techniques (complete / geometric threshold
//! / SLM / optimum), the R\*-tree spatial join, and a TIGER-like data
//! generator.
//!
//! Storage backends are pluggable behind the
//! [`SpatialStore`] trait, and queries
//! stream through the [`Query`] builder.
//!
//! ## Quickstart
//!
//! ```
//! use spatialdb::{DbOptions, OrganizationKind, Workspace};
//! use spatialdb::geom::{Point, Polygon, Polyline, Rect};
//! use spatialdb::storage::WindowTechnique;
//!
//! // A workspace is one simulated machine: disk + buffer pool.
//! let ws = Workspace::new(512);
//! let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
//!
//! // Store a street (polyline), a well (point) and a park (polygon).
//! db.insert(1, Polyline::new(vec![
//!     Point::new(0.10, 0.20),
//!     Point::new(0.12, 0.21),
//!     Point::new(0.15, 0.20),
//! ]));
//! db.insert(2, Point::new(0.11, 0.205));
//! db.insert(3, Polygon::new(vec![
//!     Point::new(0.13, 0.19),
//!     Point::new(0.14, 0.19),
//!     Point::new(0.14, 0.22),
//! ]));
//! db.finish_loading();
//!
//! // Build a window query and stream the exactly-refined results.
//! let mut results = db
//!     .query()
//!     .window(Rect::new(0.0, 0.0, 0.2, 0.3))
//!     .technique(WindowTechnique::Slm)
//!     .run();
//!
//! // The cursor carries the cost of *this* query alone…
//! assert_eq!(results.stats().candidates, 3);
//! assert!(results.stats().io_ms > 0.0);
//!
//! // …and lazily yields (id, Arc<Geometry>) pairs in ascending id order.
//! let ids: Vec<u64> = results.by_ref().map(|(id, _)| id).collect();
//! assert_eq!(ids, vec![1, 2, 3]);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geom`] | geometry kernel (points, MBRs, polylines, polygons, [`Geometry`]) |
//! | [`disk`] | disk cost model, buffer pool, buddy system, SLM schedules |
//! | [`rtree`] | the R\*-tree |
//! | [`storage`] | the `SpatialStore` trait, the three organization models & the in-memory baseline |
//! | [`join`] | the spatial join pipeline |
//! | [`data`] | synthetic TIGER-like maps & workloads (Table 1) |
//! | [`query`] | the streaming `Query` and `JoinQuery` builders and their cursors; a join sweeps its leaf pairs in blocks beside its traversal, and runs the exact tests of operands with full geometry beside its transfer, on the machine's cores (`run_par(k)`: exactly `k`; one thread or filter-only records: a lazy cursor); a query cursor refines on the calling thread; every page access stays on the calling thread |
//! | [`stream`] | the one executor: filter steps and commits in op order, refinement on worker threads (`run_stream`, and `run_batch` as a stream without writes) |
//! | [`bulkload`] | the one STR bulk load: sort and tile on threads, every charge on the calling thread |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulkload;
pub mod config;
pub mod db;
pub mod query;
pub mod stream;

pub use bulkload::bulk_load_records_par;
pub use config::{ConfigError, EngineConfig};
pub use db::{DbOptions, SpatialDatabase, StoreRead, Workspace};
pub use query::{JoinCursor, JoinQuery, Query, ResultCursor};
pub use stream::{run_stream, ExecPlan, OpOutcome, StreamOp, StreamOutcome};

pub use spatialdb_data as data;
pub use spatialdb_disk as disk;
pub use spatialdb_geom as geom;
pub use spatialdb_join as join;
pub use spatialdb_rtree as rtree;
pub use spatialdb_storage as storage;

pub use spatialdb_data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
pub use spatialdb_disk::{
    ArmPolicy, ArmStats, Arrival, Disk, DiskHandle, DiskParams, IoStats, LatencyStats, StripePolicy,
};
pub use spatialdb_geom::Geometry;
pub use spatialdb_join::JoinStats;
pub use spatialdb_rtree::ObjectId;
pub use spatialdb_storage::{
    ClusterConfig, MemoryStore, OrganizationKind, QueryStats, SpatialStore, TransferTechnique,
    WindowTechnique,
};
