//! # spatialdb-rtree
//!
//! A from-scratch R\*-tree (\[BKSS90\]: Beckmann, Kriegel, Schneider,
//! Seeger, SIGMOD 1990) — the spatial access method at the heart of all
//! three organization models of Brinkhoff & Kriegel, VLDB 1994 (§4.1).
//!
//! The implementation follows the original paper:
//!
//! * **ChooseSubtree** descends into the child with the least *overlap
//!   enlargement* at the leaf level (with the top-32 area-enlargement
//!   prefilter) and the least *area enlargement* at directory levels;
//! * **Split** first chooses the split *axis* by the minimum sum of
//!   margins over all candidate distributions, then the *distribution*
//!   with minimal overlap (ties: minimal area);
//! * **Forced reinsert**: on the first overflow of a node on each level
//!   per insertion, the 30 % of entries farthest from the node centre are
//!   removed and reinserted ("close reinsert") instead of splitting.
//!
//! Two extensions required by the cluster organization (§4.2.1 of the
//! VLDB'94 paper):
//!
//! * forced reinsert can be **disabled at the data-page level**
//!   ([`RTreeConfig::leaf_reinsert_enabled`]), because reinsertion would
//!   physically move objects between cluster units;
//! * leaves can carry a **byte payload limit**
//!   ([`RTreeConfig::leaf_payload_limit`]): a leaf overflows when its
//!   entry count exceeds `M` *or* its payload exceeds the limit. With the
//!   limit set to `Smax` this is exactly the *cluster split*; with the
//!   limit set to the page capacity it models the primary organization's
//!   byte-constrained data pages.
//!
//! The tree charges every node access through the [`io::NodeIo`] hook, so
//! the same code runs both as a pure in-memory index (tests) and against
//! the simulated disk (experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod config;
pub mod cow;
pub mod entry;
pub mod io;
pub mod node;
pub mod query;
pub mod split;
pub mod tree;
pub mod validate;

pub use bulk::{BulkBuild, Tile, TilingParams, DEFAULT_STR_FILL};
pub use config::RTreeConfig;
pub use cow::CowSlab;
pub use entry::{DirEntry, LeafEntry, ObjectId};
pub use io::{NoIo, NodeIo};
pub use node::{NodeId, NodeKind};
pub use tree::{InsertOutcome, LeafSplit, RStarTree};
