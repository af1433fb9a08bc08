//! The storage layer's view of a spatial object.

use spatialdb_geom::{Hint, Rect};
use spatialdb_rtree::{LeafEntry, ObjectId};

/// What an organization model needs to know about an object: its id, its
/// MBR (the spatial key) and the byte size of its exact representation.
///
/// The exact geometry itself never enters the storage layer — the
/// simulation is driven by I/O cost, and the refinement step's CPU cost
/// is charged separately (§6.3 of the paper charges 0.75 msec per exact
/// geometry test). The [`Hint`] approximates the object like the MBR,
/// only finer — points and cells of it; the organizations never interpret
/// it, they hand it to the R\*-tree entry ([`leaf_entry`]) for the query
/// layer to read back.
///
/// [`leaf_entry`]: ObjectRecord::leaf_entry
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ObjectRecord {
    /// Object identifier.
    pub oid: ObjectId,
    /// Minimum bounding rectangle.
    pub mbr: Rect,
    /// Size of the exact representation in bytes.
    pub size_bytes: u32,
    /// Second-filter-step approximations relative to `mbr`
    /// ([`Hint::NONE`] unless set by [`with_hint`](ObjectRecord::with_hint)).
    pub hint: Hint,
}

// 44 bytes of id, MBR and size, and the 20-byte hint without padding,
// as in `LeafEntry`.
const _: () = assert!(std::mem::size_of::<ObjectRecord>() == 64);

impl ObjectRecord {
    /// Create a record without a hint.
    pub fn new(oid: ObjectId, mbr: Rect, size_bytes: u32) -> Self {
        assert!(size_bytes > 0, "zero-sized object {oid}");
        ObjectRecord {
            oid,
            mbr,
            size_bytes,
            hint: Hint::NONE,
        }
    }

    /// The record carrying `hint`, which must have been encoded against
    /// this record's `mbr`.
    pub fn with_hint(self, hint: Hint) -> Self {
        ObjectRecord { hint, ..self }
    }

    /// The R\*-tree entry of this object — MBR, id and hint — charged
    /// `payload` bytes against the leaf payload limit.
    pub fn leaf_entry(&self, payload: u32) -> LeafEntry {
        LeafEntry::new(self.mbr, self.oid, payload).with_hint(self.hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hint_is_carried_only_when_given() {
        let mbr = Rect::new(0.0, 0.0, 1.0, 1.0);
        let everything = Rect::new(-1.0, -1.0, 2.0, 2.0);
        let plain = ObjectRecord::new(ObjectId(1), mbr, 625);
        assert_eq!(plain.hint, Hint::NONE);
        assert_eq!(LeafEntry::new(mbr, ObjectId(1), 0).hint, Hint::NONE);
        assert_eq!(plain.leaf_entry(625), LeafEntry::new(mbr, ObjectId(1), 625));
        assert!(!plain.leaf_entry(0).hint.accepts(&mbr, &everything));

        let corner = spatialdb_geom::Point::new(1.0, 1.0);
        let hint = Hint::encode(&mbr, &corner, &corner);
        let entry = plain.with_hint(hint).leaf_entry(7);
        assert_eq!((entry.hint, entry.payload, entry.mbr), (hint, 7, mbr));
        assert!(entry
            .hint
            .accepts(&entry.mbr, &Rect::new(0.99, 0.99, 1.0, 1.0)));
    }

    #[test]
    #[should_panic(expected = "zero-sized object")]
    fn rejects_zero_size() {
        ObjectRecord::new(ObjectId(1), Rect::new(0.0, 0.0, 1.0, 1.0), 0);
    }
}
