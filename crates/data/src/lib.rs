//! # spatialdb-data
//!
//! Synthetic geographic data and workload generator reproducing the test
//! environment of Brinkhoff & Kriegel, VLDB 1994 (§5.1).
//!
//! The paper's experiments use US Bureau of the Census TIGER/Line data for
//! several Californian counties:
//!
//! * **map 1** — 131,461 streets;
//! * **map 2** — 128,971 administrative boundaries, rivers and railway
//!   tracks;
//! * three **test series** A/B/C per map with average object sizes of
//!   625/1,247/2,490 bytes (map 1) and 781/1,558/3,113 bytes (map 2),
//!   and maximum cluster sizes `Smax` of 80/160/320 KB (Table 1).
//!
//! The original TIGER extracts are not available, so this crate generates
//! a *statistically equivalent* stand-in (its model: [`maps`]): the same
//! object counts, the same size distributions relative to the 4 KB page,
//! a strongly clustered spatial distribution (county-like blobs with
//! road-grid streak patterns), and polyline geometry whose serialized
//! size matches the per-series averages. Everything is derived
//! deterministically from an explicit seed.
//!
//! The [`workload`] module generates the paper's query mixes: 678 window
//! queries per window area (0.001 % … 10 % of the data space) whose
//! centres follow the MBR distribution, the point queries at the window
//! centres (§5.5), and the MBR inflation calibration used to derive the
//! spatial-join versions *a* and *b* (§6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod maps;
pub mod series;
pub mod workload;

/// The seeded generator every map and workload draws from.
pub use spatialdb_geom::rng;

pub use maps::{GeometryMode, MapObject, SpatialMap};
pub use series::{DataSet, MapId, SeriesId, SeriesSpec};
pub use workload::{inflate_mbrs, pairs_per_mbr, PointQuerySet, WindowQuerySet};
