//! Tree entries: leaf entries (object MBRs) and directory entries.

use crate::node::NodeId;
use spatialdb_geom::{Hint, Rect};

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
/// [`crate::RTreeConfig::leaf_payload_limit`]) — the modelled 46-byte
/// entry ([`crate::config::ENTRY_BYTES`]) — plus the object's [`Hint`]
/// and the organization's `locator`.
///
/// Hint and locator are host memory, like the exact geometry the query
/// layer keeps beside the store: they are not part of the modelled
/// entry and change no page capacity and no simulated I/O (the modelled
/// entry already pays for its pointer). The tree never reads them; they
/// travel with the entry through splits, reinserts and bulk loads, so a
/// query finds the hint next to the MBR it was encoded against and the
/// filter step finds where the object is in the entry it just read.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LeafEntry {
    /// Minimum bounding rectangle of the object.
    pub mbr: Rect,
    /// The object this entry refers to.
    pub oid: ObjectId,
    /// Payload bytes charged against the leaf payload limit
    /// (object size for the cluster organization, entry + object size for
    /// the primary organization; the secondary organization's trees have
    /// no limit and it stores the object size here too).
    pub payload: u32,
    /// The object's second-filter-step approximations relative to `mbr`
    /// ([`Hint::NONE`] unless set by [`with_hint`](LeafEntry::with_hint)).
    pub hint: Hint,
    /// Where the organization keeps the exact representation when that
    /// is not the data page itself: the object's first page in the
    /// secondary organization's sequential file; 0 where the
    /// organization needs no pointer.
    pub locator: u64,
}

impl LeafEntry {
    /// Create a leaf entry without a hint and without a locator.
    pub fn new(mbr: Rect, oid: ObjectId, payload: u32) -> Self {
        LeafEntry {
            mbr,
            oid,
            payload,
            hint: Hint::NONE,
            locator: 0,
        }
    }

    /// The entry carrying `hint`, which must have been encoded against
    /// this entry's `mbr`.
    pub fn with_hint(self, hint: Hint) -> Self {
        LeafEntry { hint, ..self }
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
// 89-entry leaf is 6,408 bytes in memory, a directory node 3,560. The
// 44 bytes of modelled fields and the 8-byte locator are joined by the
// 20-byte hint (two points in 4 bytes, two 8 × 8 cell masks in 16),
// whose 4-byte alignment leaves no padding.
const _: () = assert!(std::mem::size_of::<LeafEntry>() == 72);
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
