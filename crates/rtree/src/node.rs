//! Tree nodes and the node store.

use crate::cow::CowSlab;
use crate::entry::{DirEntry, LeafEntry};
use spatialdb_disk::PageId;
use spatialdb_geom::Rect;
use std::sync::Arc;

/// Identifier of a node within one tree's node store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The entries of a node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// A data page holding object entries.
    Leaf(Vec<LeafEntry>),
    /// A directory page holding child entries.
    Dir(Vec<DirEntry>),
}

/// One R\*-tree node. A node corresponds to one page on the simulated
/// disk (§4.1: *"A node of the R(\*)-tree corresponds to a page on
/// secondary storage"*).
#[derive(Clone, Debug)]
pub struct Node {
    /// Entries.
    pub kind: NodeKind,
    /// The disk page backing this node.
    pub page: PageId,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Level in the tree: 0 for leaves, increasing towards the root.
    pub level: u32,
}

// The header a shadow-paged commit copies per touched node, before the
// entries (`entry.rs` asserts those): one cache line.
const _: () = assert!(std::mem::size_of::<Node>() == 64);

impl Node {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(v) => v.len(),
            NodeKind::Dir(v) => v.len(),
        }
    }

    /// `true` if the node holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if this is a data page.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    /// Minimum bounding rectangle of all entries.
    pub fn mbr(&self) -> Rect {
        match &self.kind {
            NodeKind::Leaf(v) => v.iter().fold(Rect::empty(), |acc, e| acc.union(&e.mbr)),
            NodeKind::Dir(v) => v.iter().fold(Rect::empty(), |acc, e| acc.union(&e.mbr)),
        }
    }

    /// Sum of the leaf payload bytes (0 for directory nodes).
    pub fn payload(&self) -> u64 {
        match &self.kind {
            NodeKind::Leaf(v) => v.iter().map(|e| e.payload as u64).sum(),
            NodeKind::Dir(_) => 0,
        }
    }

    /// Leaf entries (panics on a directory node).
    pub fn leaf_entries(&self) -> &[LeafEntry] {
        match &self.kind {
            NodeKind::Leaf(v) => v,
            NodeKind::Dir(_) => panic!("not a leaf"),
        }
    }

    /// Mutable leaf entries (panics on a directory node).
    pub fn leaf_entries_mut(&mut self) -> &mut Vec<LeafEntry> {
        match &mut self.kind {
            NodeKind::Leaf(v) => v,
            NodeKind::Dir(_) => panic!("not a leaf"),
        }
    }

    /// Directory entries (panics on a leaf).
    pub fn dir_entries(&self) -> &[DirEntry] {
        match &self.kind {
            NodeKind::Dir(v) => v,
            NodeKind::Leaf(_) => panic!("not a directory node"),
        }
    }

    /// Mutable directory entries (panics on a leaf).
    pub fn dir_entries_mut(&mut self) -> &mut Vec<DirEntry> {
        match &mut self.kind {
            NodeKind::Dir(v) => v,
            NodeKind::Leaf(_) => panic!("not a directory node"),
        }
    }
}

/// Slab of nodes with stable ids and O(1) reuse of freed slots.
///
/// The nodes live in a [`CowSlab`], which makes the store
/// **copy-on-write**: [`Clone`] duplicates only the slab's chunk table
/// (one refcount bump per 64 nodes), and the first
/// [`get_mut`](NodeStore::get_mut) on a shared node shadow-copies
/// exactly that node. A cloned tree is therefore a cheap consistent
/// snapshot, and a writer working on the clone materializes shadow
/// pages only for the nodes it actually touches — the mechanism behind
/// the engine's non-blocking concurrent writers. An unshared store pays
/// pointer indirections and no copies, so the exclusive (`&mut`) update
/// path behaves exactly as before. The list of freed slots is shared
/// the same way: a clone bumps a refcount, and only an update that adds
/// or dissolves a node copies the list.
#[derive(Clone, Debug, Default)]
pub struct NodeStore {
    nodes: CowSlab<Node>,
    free: Arc<Vec<u32>>,
}

impl NodeStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a node, returning its id.
    pub fn insert(&mut self, node: Node) -> NodeId {
        // An empty list is not made unique: growing the slab reads it only.
        let i = if self.free.is_empty() {
            self.nodes.slots() as u32
        } else {
            let free = Arc::make_mut(&mut self.free);
            free.pop().expect("checked non-empty")
        };
        self.nodes.set(i as usize, node);
        NodeId(i)
    }

    /// Remove a node, returning it (shadow-copied if a snapshot still
    /// shares it).
    pub fn remove(&mut self, id: NodeId) -> Node {
        let n = self
            .nodes
            .take(id.0 as usize)
            .expect("node already removed");
        Arc::make_mut(&mut self.free).push(id.0);
        Arc::try_unwrap(n).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Borrow a node.
    #[inline]
    pub fn get(&self, id: NodeId) -> &Node {
        self.nodes.get(id.0 as usize).expect("node removed")
    }

    /// `true` if `id` refers to a live node.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.get(id.0 as usize).is_some()
    }

    /// Borrow a node mutably, shadow-copying it first if a snapshot
    /// still shares it (copy-on-write; no copy when unshared).
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes.get_mut(id.0 as usize).expect("node removed")
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate over `(id, node)` pairs of live nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Number of live nodes whose storage is shared with another
    /// (cloned) store — i.e. not yet shadow-copied. Diagnostics for
    /// the copy-on-write tests.
    pub fn shared_nodes(&self) -> usize {
        self.nodes.shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ObjectId;
    use spatialdb_disk::{PageId, RegionId};

    fn leaf(entries: Vec<LeafEntry>) -> Node {
        Node {
            kind: NodeKind::Leaf(entries),
            page: PageId::new(RegionId(0), 0),
            parent: None,
            level: 0,
        }
    }

    fn e(x: f64, payload: u32) -> LeafEntry {
        LeafEntry::new(Rect::new(x, 0.0, x + 1.0, 1.0), ObjectId(x as u64), payload)
    }

    #[test]
    fn node_mbr_and_payload() {
        let n = leaf(vec![e(0.0, 100), e(5.0, 200)]);
        assert_eq!(n.mbr(), Rect::new(0.0, 0.0, 6.0, 1.0));
        assert_eq!(n.payload(), 300);
        assert_eq!(n.len(), 2);
        assert!(n.is_leaf());
    }

    #[test]
    fn empty_leaf_mbr_is_empty() {
        let n = leaf(vec![]);
        assert!(n.mbr().is_empty());
        assert!(n.is_empty());
    }

    #[test]
    fn store_insert_remove_reuse() {
        let mut s = NodeStore::new();
        let a = s.insert(leaf(vec![e(0.0, 1)]));
        let b = s.insert(leaf(vec![e(1.0, 1)]));
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
        s.remove(a);
        assert_eq!(s.len(), 1);
        let c = s.insert(leaf(vec![e(2.0, 1)]));
        assert_eq!(c, a); // slot reused
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut s = NodeStore::new();
        let a = s.insert(leaf(vec![e(0.0, 1)]));
        let b = s.insert(leaf(vec![e(1.0, 1)]));
        let snapshot = s.clone();
        assert_eq!(s.shared_nodes(), 2, "clone shares every node");

        // Mutating one node shadow-copies exactly that node.
        s.get_mut(a).leaf_entries_mut().push(e(2.0, 7));
        assert_eq!(s.shared_nodes(), 1);
        assert_eq!(snapshot.get(a).len(), 1, "snapshot unchanged");
        assert_eq!(s.get(a).len(), 2);
        assert_eq!(s.get(b).len(), snapshot.get(b).len());

        // Removing a shared node hands back a private copy.
        let removed = s.remove(b);
        assert_eq!(removed.len(), 1);
        assert!(snapshot.contains(b), "snapshot keeps its version");
    }

    #[test]
    #[should_panic(expected = "node already removed")]
    fn store_double_remove_panics() {
        let mut s = NodeStore::new();
        let a = s.insert(leaf(vec![]));
        s.remove(a);
        s.remove(a);
    }
}
