//! Shared vocabulary of the storage layer: techniques, per-query
//! statistics, the shared buffer pool, and [`OrganizationKind`], which
//! names one of the paper's models.
//!
//! The storage *interface* itself is the
//! [`SpatialStore`](crate::SpatialStore) trait in [`crate::store`]; a
//! model chosen at run time is a `Box<dyn SpatialStore>`.

use spatialdb_disk::{DiskHandle, ShardedPool};
use spatialdb_rtree::RStarTree;
use std::sync::Arc;

// The join's transfer technique (§6.2) is how the cluster organization
// reads a unit, so it lives beside the one unit read,
// `PoolSession::read_extent`.
pub use spatialdb_disk::TransferTechnique;

/// A buffer pool shared between the components of one experiment
/// (both maps of a join share one pool, as in §6.1).
///
/// The pool is the engine's single page-replacement state under one
/// capacity budget; since the sharding refactor it is a
/// [`ShardedPool`] — page accesses lock only the shard their page
/// hashes to, so concurrent readers touching disjoint pages no longer
/// serialize on one pool-wide mutex. [`new_shared_pool`] creates the
/// deterministic 1-shard configuration (byte-identical stats to the
/// classic single-lock pool — the paper's figures); a workspace's
/// `EngineConfig` picks more shards for concurrent-throughput
/// workloads. A store reads and writes its pages through one
/// [`PoolSession`](spatialdb_disk::PoolSession) per query or update
/// (`pool.session()`), which locks the pool and charges the disk once.
pub type SharedPool = Arc<ShardedPool>;

/// Create a shared pool of `capacity` pages over `disk` with a single
/// shard — the deterministic configuration every experiment runs under.
pub fn new_shared_pool(disk: DiskHandle, capacity: usize) -> SharedPool {
    Arc::new(ShardedPool::new(disk, capacity))
}

/// Technique for transferring the objects of a window query from a
/// cluster unit (§5.4). Only the cluster organization distinguishes
/// them; the other models have a single natural access path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WindowTechnique {
    /// Transfer the complete cluster unit as soon as one of its objects
    /// qualifies (the paper's simplest technique, used in Figure 8).
    Complete,
    /// Geometric threshold (§5.4.1): compare the window/cluster-region
    /// degree of overlap to `T(c) = t_compl(c)/t_page`; read page-by-page
    /// below the threshold, completely above it.
    Threshold,
    /// SLM read schedules (§5.4.2): one request bridges gaps of
    /// non-requested pages shorter than `t_l/t_t − 1/2`.
    Slm,
    /// The optimum baseline of Figure 10: one seek + one rotational delay
    /// per cluster unit plus the minimum number of page transfers.
    Optimum,
}

/// Result of one query against an organization model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Number of candidate objects (MBR filter matches).
    pub candidates: usize,
    /// Total exact-representation bytes of the candidates — the "amount
    /// of data queried" the paper normalizes by (msec / 4 KB).
    pub result_bytes: u64,
    /// Simulated I/O time of the query in milliseconds.
    pub io_ms: f64,
}

impl QueryStats {
    /// The paper's normalized cost: I/O milliseconds per 4 KB of queried
    /// data (Figures 8, 10, 12). Returns `None` when nothing qualified.
    #[must_use = "the normalized cost is the figure's data point"]
    pub fn ms_per_4kb(&self) -> Option<f64> {
        if self.result_bytes == 0 {
            None
        } else {
            Some(self.io_ms / (self.result_bytes as f64 / 4096.0))
        }
    }

    /// Accumulate another query's stats (for averaging over a query set).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.candidates += other.candidates;
        self.result_bytes += other.result_bytes;
        self.io_ms += other.io_ms;
    }
}

/// Warm and pin the tree's directory pages in the buffer, highest levels
/// first, up to half the buffer capacity.
///
/// Models the standard assumption that the index directory is
/// memory-resident during query processing — but only as far as it fits:
/// the primary organization's directory grows with the object size (a
/// C-series data page holds a single object, so there are as many leaves
/// as objects) and no longer fits, which is what makes its selective
/// queries degrade (§5.5).
pub fn warm_directory(pool: &ShardedPool, tree: &RStarTree) {
    let budget = pool.capacity() / 2;
    let mut dirs: Vec<(u32, spatialdb_disk::PageId)> = tree
        .nodes()
        .filter(|(_, n)| !n.is_leaf())
        .map(|(_, n)| (n.level, n.page))
        .collect();
    // Root first, then descending level.
    dirs.sort_by_key(|d| std::cmp::Reverse(d.0));
    pool.warm_pinned(dirs.into_iter().take(budget).map(|(_, p)| p));
}

/// Which organization model (for experiment configuration).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OrganizationKind {
    /// Secondary organization (§3.2.1).
    Secondary,
    /// Primary organization (§3.2.2).
    Primary,
    /// Cluster organization (§4).
    Cluster,
}

impl std::fmt::Display for OrganizationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrganizationKind::Secondary => write!(f, "sec. org."),
            OrganizationKind::Primary => write!(f, "prim. org."),
            OrganizationKind::Cluster => write!(f, "cluster org."),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_per_4kb_normalization() {
        let q = QueryStats {
            candidates: 10,
            result_bytes: 8192,
            io_ms: 50.0,
        };
        assert_eq!(q.ms_per_4kb(), Some(25.0));
        let empty = QueryStats::default();
        assert_eq!(empty.ms_per_4kb(), None);
    }

    #[test]
    fn accumulate_sums() {
        let mut a = QueryStats {
            candidates: 1,
            result_bytes: 100,
            io_ms: 5.0,
        };
        a.accumulate(&QueryStats {
            candidates: 2,
            result_bytes: 300,
            io_ms: 7.0,
        });
        assert_eq!(a.candidates, 3);
        assert_eq!(a.result_bytes, 400);
        assert_eq!(a.io_ms, 12.0);
    }

    #[test]
    fn storage_stack_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedPool>();
        assert_send_sync::<crate::ClusterOrganization>();
        assert_send_sync::<Box<dyn crate::SpatialStore>>();
        assert_send_sync::<crate::MemoryStore>();
    }

    #[test]
    fn kind_display_matches_paper_labels() {
        assert_eq!(OrganizationKind::Secondary.to_string(), "sec. org.");
        assert_eq!(OrganizationKind::Primary.to_string(), "prim. org.");
        assert_eq!(OrganizationKind::Cluster.to_string(), "cluster org.");
    }
}
