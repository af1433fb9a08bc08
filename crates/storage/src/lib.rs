//! # spatialdb-storage
//!
//! The pluggable [`SpatialStore`] storage interface, the three
//! *organization models* implementing it for storing large sets of
//! spatial objects (§3.2 of Brinkhoff & Kriegel, VLDB 1994), and the
//! query techniques evaluated on top of them (§5.4):
//!
//! * [`SecondaryOrganization`] — R\*-tree over MBRs + pointers; exact
//!   representations in a sequential file in insertion order. Maximum
//!   local clustering of the *approximations*, none of the objects.
//! * [`PrimaryOrganization`] — exact representations stored inside the
//!   R\*-tree data pages; objects larger than a page overflow into a
//!   separate internally-clustered file.
//! * [`ClusterOrganization`] — the paper's contribution (§4): data pages
//!   hold only MBR entries, and each data page references one *cluster
//!   unit* of physically consecutive pages holding the exact
//!   representations of its objects. The modified R\*-tree performs no
//!   leaf-level reinsert and splits on the `Smax` byte bound (*cluster
//!   split*). Cluster units live in buddies ([`spatialdb_disk::buddy`]).
//!
//! Window queries on the cluster organization support the techniques of
//! §5.4 via [`WindowTechnique`]: *complete* cluster transfer, the
//! *geometric threshold* \[BKS93a\] (page-by-page access below the
//! threshold), the *SLM* read schedules \[SLM93\], and the *optimum*
//! lower bound.
//!
//! All I/O flows through a shared [`spatialdb_disk::ShardedPool`]; the
//! construction, storage-utilization and query figures of the paper
//! (Figures 5–12) are produced by driving these models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod memory;
pub mod model;
pub mod object;
pub mod packer;
pub mod primary;
pub mod secondary;
pub mod store;
pub mod table;

pub use cluster::{ClusterConfig, ClusterOrganization};
pub use memory::MemoryStore;
pub use model::{
    new_shared_pool, OrganizationKind, QueryStats, SharedPool, TransferTechnique, WindowTechnique,
};
pub use object::ObjectRecord;
pub use packer::{PagePacker, Placement};
pub use primary::PrimaryOrganization;
pub use secondary::SecondaryOrganization;
pub use store::SpatialStore;
pub use table::ObjectTable;
