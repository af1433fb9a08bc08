//! R\*-tree configuration.

/// Size of one entry (leaf or directory) in bytes: MBR, child/object
/// reference and administrative data (§5.1 of the VLDB'94 paper: *"For the
/// representation of an object entry in a data page, 46 Bytes are used"*).
pub const ENTRY_BYTES: usize = 46;

/// Minimum fill ratio `m / M` used by splits and deletions. \[BKSS90\]
/// found 40 % to perform best.
pub const MIN_FILL_RATIO: f64 = 0.4;

/// Fraction of entries removed by a forced reinsert. \[BKSS90\]: 30 %.
pub const REINSERT_FRACTION: f64 = 0.3;

/// Configuration of an [`crate::RStarTree`]. The ratios the paper's
/// R\*-tree fixes are constants: [`MIN_FILL_RATIO`] and
/// [`REINSERT_FRACTION`].
#[derive(Clone, Debug, PartialEq)]
pub struct RTreeConfig {
    /// Maximum number of entries per node, `M`.
    ///
    /// With 4 KB pages and 46-byte entries: `M = ⌊4096 / 46⌋ = 89`.
    pub max_entries: usize,
    /// Whether forced reinsert is performed at the leaf (data page)
    /// level. The cluster organization disables it (§4.2.1): a leaf-level
    /// reinsert would transfer complete spatial objects from one cluster
    /// unit into another.
    pub leaf_reinsert_enabled: bool,
    /// Optional byte payload limit for leaves. A leaf overflows when its
    /// entry count exceeds [`RTreeConfig::max_entries`] *or* the sum of
    /// its entries' payload bytes exceeds this limit:
    ///
    /// * cluster organization: the limit is `Smax` and each entry's
    ///   payload is its object's exact-representation size — this is the
    ///   *cluster split*;
    /// * primary organization: the limit is the page capacity and each
    ///   entry's payload is `46 + object size`;
    /// * secondary organization: `None` (the count bound alone applies).
    pub leaf_payload_limit: Option<u64>,
}

impl RTreeConfig {
    /// The paper's defaults for a plain R\*-tree over 46-byte entries in
    /// 4 KB pages (secondary organization).
    pub fn paper_default(page_bytes: usize) -> Self {
        RTreeConfig {
            max_entries: page_bytes / ENTRY_BYTES,
            leaf_reinsert_enabled: true,
            leaf_payload_limit: None,
        }
    }

    /// Configuration of the modified R\*-tree of the cluster organization
    /// (§4.2.1): no leaf-level reinsert, cluster split at `smax_bytes`.
    pub fn cluster(page_bytes: usize, smax_bytes: u64) -> Self {
        RTreeConfig {
            leaf_reinsert_enabled: false,
            leaf_payload_limit: Some(smax_bytes),
            ..Self::paper_default(page_bytes)
        }
    }

    /// Configuration for the primary organization: leaves are
    /// byte-constrained by the page capacity.
    pub fn primary(page_bytes: usize) -> Self {
        RTreeConfig {
            leaf_payload_limit: Some(page_bytes as u64),
            ..Self::paper_default(page_bytes)
        }
    }

    /// Minimum number of entries `m` for a node currently holding
    /// `count` entries when splitting (`max(1, ⌊ratio · count⌋)`, capped
    /// so that both split halves are non-empty).
    pub fn min_entries_for(&self, count: usize) -> usize {
        let m = (MIN_FILL_RATIO * count as f64).floor() as usize;
        m.clamp(1, count / 2)
    }

    /// Number of entries removed by a forced reinsert of a node with
    /// `count` entries (at least 1, at most `count - 1`).
    pub fn reinsert_count(&self, count: usize) -> usize {
        let p = (REINSERT_FRACTION * count as f64).round() as usize;
        p.clamp(1, count.saturating_sub(1).max(1))
    }

    /// Validate the configuration, panicking on nonsense values.
    pub fn validate(&self) {
        assert!(self.max_entries >= 4, "M must be at least 4");
    }
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self::paper_default(crate::io::PAGE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_capacity() {
        let c = RTreeConfig::paper_default(4096);
        assert_eq!(c.max_entries, 89);
        assert!(c.leaf_reinsert_enabled);
        assert!(c.leaf_payload_limit.is_none());
    }

    #[test]
    fn cluster_config_disables_leaf_reinsert() {
        let c = RTreeConfig::cluster(4096, 80 * 1024);
        assert!(!c.leaf_reinsert_enabled);
        assert_eq!(c.leaf_payload_limit, Some(80 * 1024));
    }

    #[test]
    fn primary_config_byte_limited() {
        let c = RTreeConfig::primary(4096);
        assert_eq!(c.leaf_payload_limit, Some(4096));
        assert!(c.leaf_reinsert_enabled);
    }

    #[test]
    fn min_entries_bounds() {
        let c = RTreeConfig::paper_default(4096);
        assert_eq!(c.min_entries_for(90), 36);
        assert_eq!(c.min_entries_for(2), 1);
        assert_eq!(c.min_entries_for(3), 1);
        // Never more than half so both groups are non-empty.
        for n in 2..200 {
            let m = c.min_entries_for(n);
            assert!(m >= 1 && m <= n / 2, "n={n} m={m}");
        }
    }

    #[test]
    fn reinsert_count_bounds() {
        let c = RTreeConfig::paper_default(4096);
        assert_eq!(c.reinsert_count(90), 27);
        assert!(c.reinsert_count(2) >= 1);
        for n in 2..200 {
            let p = c.reinsert_count(n);
            assert!(p >= 1 && p < n, "n={n} p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "M must be at least 4")]
    fn validate_rejects_tiny_m() {
        RTreeConfig {
            max_entries: 2,
            ..Default::default()
        }
        .validate();
    }
}
