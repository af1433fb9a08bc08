//! Structural invariant checks (used extensively by the test suites).

use crate::node::{NodeId, NodeKind};
use crate::tree::RStarTree;
use std::collections::HashSet;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R*-tree invariant violated: {}", self.0)
    }
}

impl std::error::Error for Violation {}

/// Check every structural invariant of the tree:
///
/// 1. the root has no parent; every other reachable node's parent pointer
///    matches the directory structure;
/// 2. every directory entry's MBR equals the MBR of its child node;
/// 3. levels decrease by exactly one per tree edge and leaves are at
///    level 0;
/// 4. no node exceeds `M` entries; non-root nodes hold at least one
///    entry; leaves respect the payload limit (unless a single oversized
///    entry makes that impossible);
/// 5. every object id appears in exactly one leaf entry and the total
///    matches `tree.len()`;
/// 6. the number of reachable nodes equals the node-store population.
pub fn check_invariants(tree: &RStarTree) -> Result<(), Violation> {
    let mut seen_oids = HashSet::new();
    let mut reachable = 0usize;
    let mut entry_count = 0usize;
    let root = tree.root();
    if tree.node(root).parent.is_some() {
        return Err(Violation("root has a parent".into()));
    }
    let mut stack: Vec<NodeId> = vec![root];
    while let Some(id) = stack.pop() {
        reachable += 1;
        let node = tree.node(id);
        let count = node.len();
        if count > tree.config().max_entries {
            return Err(Violation(format!(
                "node {id} holds {count} > M = {} entries",
                tree.config().max_entries
            )));
        }
        if id != root && count == 0 {
            return Err(Violation(format!("non-root node {id} is empty")));
        }
        match &node.kind {
            NodeKind::Leaf(entries) => {
                if node.level != 0 {
                    return Err(Violation(format!("leaf {id} at level {} != 0", node.level)));
                }
                if let Some(limit) = tree.config().leaf_payload_limit {
                    if node.payload() > limit && entries.len() > 1 {
                        return Err(Violation(format!(
                            "leaf {id} payload {} > limit {limit}",
                            node.payload()
                        )));
                    }
                }
                for e in entries {
                    if !seen_oids.insert(e.oid) {
                        return Err(Violation(format!("duplicate object {}", e.oid)));
                    }
                    if !e.mbr.is_finite() {
                        return Err(Violation(format!("non-finite MBR for {}", e.oid)));
                    }
                }
                entry_count += entries.len();
            }
            NodeKind::Dir(entries) => {
                for e in entries {
                    let child = tree.node(e.child);
                    if child.parent != Some(id) {
                        return Err(Violation(format!(
                            "child {} of {id} has parent {:?}",
                            e.child, child.parent
                        )));
                    }
                    if child.level + 1 != node.level {
                        return Err(Violation(format!(
                            "child {} at level {} under node {id} at level {}",
                            e.child, child.level, node.level
                        )));
                    }
                    let actual = child.mbr();
                    if actual != e.mbr {
                        return Err(Violation(format!(
                            "stale MBR for child {} of {id}: cached {} actual {}",
                            e.child, e.mbr, actual
                        )));
                    }
                    stack.push(e.child);
                }
            }
        }
    }
    if entry_count != tree.len() {
        return Err(Violation(format!(
            "tree.len() = {} but {entry_count} leaf entries reachable",
            tree.len()
        )));
    }
    if reachable != tree.num_nodes() {
        return Err(Violation(format!(
            "{} nodes in store but {reachable} reachable",
            tree.num_nodes()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use crate::entry::{LeafEntry, ObjectId};
    use crate::io::NoIo;
    use spatialdb_disk::Disk;
    use spatialdb_geom::Rect;

    #[test]
    fn valid_tree_passes() {
        let disk = Disk::with_defaults();
        let mut t = RStarTree::new(
            RTreeConfig {
                max_entries: 6,
                leaf_reinsert_enabled: true,
                leaf_payload_limit: None,
            },
            disk.create_region("t"),
        );
        for i in 0..500u64 {
            let x = (i % 31) as f64 * 1.3;
            let y = (i / 31) as f64 * 0.7;
            t.insert(
                LeafEntry::new(Rect::new(x, y, x + 1.0, y + 1.0), ObjectId(i), 0),
                &mut NoIo,
            );
        }
        check_invariants(&t).unwrap();
    }

    #[test]
    fn violation_displays() {
        let v = Violation("test".into());
        assert!(v.to_string().contains("test"));
    }
}
