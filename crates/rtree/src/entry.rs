//! Tree entries: leaf entries (object MBRs) and directory entries.

use crate::node::NodeId;
use spatialdb_geom::Rect;

/// Identifier of a spatial object stored in an organization model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// An entry of a data page: the object's MBR, its id, and the payload
/// bytes it contributes towards the leaf payload limit (see
/// [`crate::RTreeConfig::leaf_payload_limit`]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LeafEntry {
    /// Minimum bounding rectangle of the object.
    pub mbr: Rect,
    /// The object this entry refers to.
    pub oid: ObjectId,
    /// Payload bytes charged against the leaf payload limit
    /// (object size for the cluster organization, entry + object size for
    /// the primary organization, unused for the secondary organization).
    pub payload: u32,
}

impl LeafEntry {
    /// Create a leaf entry.
    pub fn new(mbr: Rect, oid: ObjectId, payload: u32) -> Self {
        LeafEntry { mbr, oid, payload }
    }
}

/// An entry of a directory page: the MBR of a child node.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DirEntry {
    /// Minimum bounding rectangle of everything below `child`.
    pub mbr: Rect,
    /// The child node.
    pub child: NodeId,
}

// What a shadow-paged commit copies per entry of a touched node, and
// what a traversal pulls through the cache per entry it looks at: an
// 89-entry leaf is 4,272 bytes in memory, a directory node 3,560.
const _: () = assert!(std::mem::size_of::<LeafEntry>() == 48);
const _: () = assert!(std::mem::size_of::<DirEntry>() == 40);

/// Anything that can participate in the R\*-tree split algorithm.
pub(crate) trait SplitItem {
    fn rect(&self) -> Rect;
}

impl SplitItem for LeafEntry {
    #[inline]
    fn rect(&self) -> Rect {
        self.mbr
    }
}

impl SplitItem for DirEntry {
    #[inline]
    fn rect(&self) -> Rect {
        self.mbr
    }
}
