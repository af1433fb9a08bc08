//! The primary organization (§3.2.2).
//!
//! The exact representations are stored *inside* the R\*-tree data pages
//! next to their MBRs: the access method is a primary index for the
//! objects and determines their storage location. Its essential drawback
//! is the low number of objects fitting onto one 4 KB page, which reduces
//! local clustering; objects larger than a data page are *"stored outside
//! of the R\*-tree in a separate file where internal clustering was
//! maintained. Such objects occupied their individual pages exclusively"*
//! (§5.2).

use crate::model::{SharedPool, TransferTechnique, WindowTechnique};
use crate::object::ObjectRecord;
use crate::packer::PagePacker;
use crate::store::{count_agrees, SpatialStore};
use crate::table::ObjectTable;
use spatialdb_disk::{IoKind, PageId, PageRun, PoolSession, RegionId, SeekPolicy, PAGE_SIZE};
use spatialdb_geom::Rect;
use spatialdb_rtree::config::ENTRY_BYTES;
use spatialdb_rtree::{
    bulk, LeafEntry, LeafSplit, NodeId, ObjectId, RStarTree, RTreeConfig, Tile, TilingParams,
};
use std::collections::HashSet;

/// What the organization records per object.
#[derive(Clone, Copy, PartialEq, Debug)]
struct ObjectSlot {
    /// Data page currently holding the object's entry (and, inline, its
    /// representation).
    leaf: NodeId,
    size: u32,
    /// Pages in the overflow file, for objects too large for a data
    /// page.
    overflow: Option<PageRun>,
}

// 48 bytes per `(id, record)` pair of an `ObjectTable` bucket: a probe
// scans ≈ 16 pairs, 12 cache lines. Of a window's candidates only the
// overflow objects pay it; an inline object's size is in its entry.
const _: () = assert!(std::mem::size_of::<ObjectSlot>() == 40);
const _: () = assert!(std::mem::size_of::<(u64, ObjectSlot)>() == 48);

/// The primary organization.
///
/// [`Clone`] is the store's snapshot and copies no per-object state
/// (see [`ObjectTable`]).
#[derive(Clone, Debug)]
pub struct PrimaryOrganization {
    pool: SharedPool,
    tree: RStarTree,
    tree_region: RegionId,
    overflow_region: RegionId,
    overflow_packer: PagePacker,
    objects: ObjectTable<ObjectSlot>,
    /// Overflow pages freed by deletions (holes in the overflow file).
    freed_overflow_pages: u64,
}

impl PrimaryOrganization {
    /// Largest object representation that still fits into a data page
    /// next to its 46-byte entry.
    pub fn inline_limit() -> u32 {
        (PAGE_SIZE - ENTRY_BYTES) as u32
    }

    /// Create an empty primary organization buffered by `pool`, on the
    /// pool's disk.
    pub fn new(pool: SharedPool) -> Self {
        let tree_region = pool.disk().create_region("prim:tree");
        let overflow_region = pool.disk().create_region("prim:overflow");
        let tree = RStarTree::new(RTreeConfig::primary(PAGE_SIZE), tree_region);
        PrimaryOrganization {
            pool,
            tree,
            tree_region,
            overflow_region,
            overflow_packer: PagePacker::new(PAGE_SIZE as u64),
            objects: ObjectTable::new(),
            freed_overflow_pages: 0,
        }
    }

    /// `true` if the object's exact representation lives in the overflow
    /// file rather than inline in a data page.
    pub fn is_overflow(&self, oid: ObjectId) -> bool {
        self.objects
            .get(oid)
            .is_some_and(|slot| slot.overflow.is_some())
    }

    /// Entry payload of an object: what it costs *inside* the data
    /// page — entry + representation when inline, entry alone when the
    /// representation overflows (§5.2).
    fn entry_payload(size_bytes: u32) -> u32 {
        if size_bytes <= Self::inline_limit() {
            ENTRY_BYTES as u32 + size_bytes
        } else {
            ENTRY_BYTES as u32
        }
    }

    /// Place an oversized object on exclusive pages of the overflow
    /// file (one write request).
    fn place_overflow(&mut self, size_bytes: u32) -> PageRun {
        let placement = self.overflow_packer.place_exclusive(u64::from(size_bytes));
        self.overflow_packer.seal();
        let run = PageRun::new(
            PageId::new(self.overflow_region, placement.first_page),
            placement.num_pages,
        );
        self.pool.disk().charge(IoKind::Write, run, false);
        run
    }

    /// Follow the relocations of a tree update: forced reinserts and
    /// splits move entries (and with them the inline objects) between
    /// data pages. Only objects whose page changed dirty their bucket.
    fn track_relocations(&mut self, reinserts: &[(ObjectId, NodeId)], splits: &[LeafSplit]) {
        let moves = reinserts.iter().copied().chain(splits.iter().flat_map(|s| {
            let to_new = s.new_oids.iter().map(|o| (*o, s.new));
            to_new.chain(s.old_oids.iter().map(|o| (*o, s.old)))
        }));
        for (oid, leaf) in moves {
            self.objects
                .update(oid, |slot| ObjectSlot { leaf, ..*slot });
        }
    }

    /// Transfer what the data pages do not already hold: one pointer
    /// chase per overflow object (like the secondary organization's
    /// object accesses); the buffer absorbs repeats. An inline object
    /// came with its entry, whose payload says how large it is
    /// ([`entry_payload`](Self::entry_payload)); only an overflow
    /// object's size and pages are looked up. Returns the bytes of all
    /// candidates.
    fn read_overflow_objects(
        &self,
        candidates: &[LeafEntry],
        session: &mut PoolSession<'_>,
    ) -> u64 {
        let mut bytes = 0;
        for e in candidates {
            if e.payload > ENTRY_BYTES as u32 {
                bytes += u64::from(e.payload - ENTRY_BYTES as u32);
            } else {
                let slot = &self.objects[e.oid];
                let run = slot.overflow.expect("entry-only payload, no overflow run");
                session.read_run(run, SeekPolicy::PerRequest);
                bytes += u64::from(slot.size);
            }
        }
        bytes
    }
}

impl SpatialStore for PrimaryOrganization {
    fn name(&self) -> &'static str {
        "prim. org."
    }

    fn snapshot(&self) -> Box<dyn SpatialStore> {
        Box::new(self.clone())
    }

    /// The entry's payload is what the object costs inside its data
    /// page (`entry_payload`).
    fn leaf_entry(&self, rec: &ObjectRecord) -> LeafEntry {
        rec.leaf_entry(Self::entry_payload(rec.size_bytes))
    }

    fn insert(&mut self, rec: &ObjectRecord) {
        let entry = self.leaf_entry(rec);
        let outcome = self.tree.insert(entry, &mut self.pool.session());
        let overflow =
            (rec.size_bytes > Self::inline_limit()).then(|| self.place_overflow(rec.size_bytes));
        self.objects.insert(
            rec.oid,
            ObjectSlot {
                leaf: outcome.leaf.expect("insert without target leaf"),
                size: rec.size_bytes,
                overflow,
            },
        );
        self.track_relocations(&outcome.leaf_reinserts, &outcome.leaf_splits);
    }

    fn window_query_into(
        &self,
        window: &Rect,
        _technique: WindowTechnique,
        out: &mut Vec<LeafEntry>,
    ) -> u64 {
        // Reading the qualifying data pages *is* reading the inline
        // objects; the tree charges those page reads.
        let mut session = self.pool.session();
        self.tree.window_entries_into(window, &mut session, out);
        self.read_overflow_objects(out, &mut session)
    }

    fn fetch_for_join(
        &self,
        oid: ObjectId,
        _needed: &HashSet<ObjectId>,
        _technique: TransferTechnique,
        session: &mut PoolSession<'_>,
    ) {
        // The data page holds the entry and (for inline objects) the
        // representation itself.
        let slot = &self.objects[oid];
        let page = self.tree.node_page(slot.leaf);
        session.read_page(page);
        if let Some(run) = slot.overflow {
            session.read_run(run, SeekPolicy::PerRequest);
        }
    }

    fn occupied_pages(&self) -> u64 {
        self.tree.allocated_pages() + self.overflow_packer.pages_used() - self.freed_overflow_pages
    }

    fn contains(&self, oid: ObjectId) -> bool {
        self.objects.contains(oid)
    }

    fn pool(&self) -> SharedPool {
        self.pool.clone()
    }

    fn tree(&self) -> &RStarTree {
        &self.tree
    }

    fn flush(&mut self) {
        self.pool.flush();
    }

    fn begin_query(&mut self) {
        self.pool
            .invalidate_regions(&[self.tree_region, self.overflow_region]);
        crate::model::warm_directory(&self.pool, &self.tree);
    }

    fn delete(&mut self, oid: ObjectId) -> bool {
        let Some(slot) = self.objects.remove(oid) else {
            return false;
        };
        let mbr = self
            .tree
            .node(slot.leaf)
            .leaf_entries()
            .iter()
            .find(|e| e.oid == oid)
            .map(|e| e.mbr)
            .expect("leaf tracking out of sync");
        let outcome = self.tree.delete(oid, &mbr, &mut self.pool.session());
        debug_assert!(outcome.removed);
        if let Some(run) = slot.overflow {
            self.freed_overflow_pages += run.len;
        }
        // Tree condensation relocates entries (and with them the inline
        // objects); mirror the tracking.
        self.track_relocations(&outcome.leaf_reinserts, &outcome.leaf_splits);
        true
    }

    fn check_consistency(&self) -> Result<(), String> {
        count_agrees(self.objects.len(), &self.tree)?;
        for (id, leaf) in self.tree.leaves() {
            for e in leaf.leaf_entries() {
                match self.objects.get(e.oid) {
                    Some(slot)
                        if slot.leaf == id && e.payload == Self::entry_payload(slot.size) => {}
                    other => {
                        return Err(format!(
                            "object {} in data page {id} is recorded as {other:?}",
                            e.oid
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    fn str_install(&mut self, records: &[ObjectRecord], tiles: Vec<Tile>, params: &TilingParams) {
        let build = bulk::build_tree(self.tree.config().clone(), self.tree_region, tiles, params);
        for run in &build.level_runs {
            self.pool.disk().charge(IoKind::Write, *run, false);
        }
        self.tree = build.tree;
        // Size first; the data page and the overflow position follow in
        // tile order.
        let slot = |rec: &ObjectRecord| ObjectSlot {
            leaf: self.tree.root(),
            size: rec.size_bytes,
            overflow: None,
        };
        self.objects =
            ObjectTable::from_records(records.iter().map(|r| (r.oid, slot(r))).collect());
        // Overflow objects go to their exclusive pages in tile order —
        // same file layout the insertion path would produce for the
        // same object order.
        let placed: Vec<(ObjectId, NodeId)> = self
            .tree
            .leaves()
            .flat_map(|(id, leaf)| leaf.leaf_entries().iter().map(move |e| (e.oid, id)))
            .collect();
        for (oid, leaf) in placed {
            let size = self.objects[oid].size;
            let overflow = (size > Self::inline_limit()).then(|| self.place_overflow(size));
            self.objects.update(oid, |_| ObjectSlot {
                leaf,
                size,
                overflow,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::new_shared_pool;
    use spatialdb_disk::Disk;
    use spatialdb_geom::Point;
    use spatialdb_rtree::validate::check_invariants;

    fn org_with_sizes(sizes: &[u32]) -> PrimaryOrganization {
        let mut org = PrimaryOrganization::new(new_shared_pool(Disk::with_defaults(), 512));
        for (i, &s) in sizes.iter().enumerate() {
            let x = (i % 40) as f64 / 40.0;
            let y = (i / 40) as f64 / 40.0;
            org.insert(&ObjectRecord::new(
                ObjectId(i as u64),
                Rect::new(x, y, x + 0.01, y + 0.01),
                s,
            ));
        }
        org.flush();
        org
    }

    #[test]
    fn small_objects_inline() {
        let org = org_with_sizes(&vec![600; 100]);
        assert_eq!(org.tree().len(), 100);
        org.check_consistency().unwrap();
        assert!((0..100).all(|i| !org.is_overflow(ObjectId(i))));
        check_invariants(org.tree()).unwrap();
        // Data pages hold few objects: payload-limited to ~6 per page.
        for (_, leaf) in org.tree().leaves() {
            assert!(leaf.len() <= 6, "leaf holds {}", leaf.len());
        }
    }

    #[test]
    fn large_objects_overflow() {
        let org = org_with_sizes(&[600, 5000, 700, 12_000]);
        assert!(org.is_overflow(ObjectId(1)));
        assert!(org.is_overflow(ObjectId(3)));
        assert!(!org.is_overflow(ObjectId(0)));
        // Exclusive pages: 5000 → 2 pages, 12000 → 3 pages.
        assert_eq!(org.overflow_packer.pages_used(), 2 + 3);
        check_invariants(org.tree()).unwrap();
    }

    #[test]
    fn leaf_tracking_survives_splits_and_reinserts() {
        let org = org_with_sizes(&vec![900; 300]);
        for i in 0..300u64 {
            let leaf = org.objects[ObjectId(i)].leaf;
            let found = org
                .tree()
                .node(leaf)
                .leaf_entries()
                .iter()
                .any(|e| e.oid == ObjectId(i));
            assert!(found, "object {i} not in tracked leaf");
        }
    }

    #[test]
    fn occupied_pages_larger_than_secondary_for_same_data() {
        // The primary organization stores objects in 70%-utilized tree
        // pages → worse storage utilization than a dense file.
        let org = org_with_sizes(&vec![600; 500]);
        let dense_pages = (500 * 600) as u64 / 4096 + 1;
        assert!(org.occupied_pages() > dense_pages);
    }

    #[test]
    fn window_query_reads_leaves_once() {
        let mut org = org_with_sizes(&vec![600; 400]);
        org.begin_query();
        let q = org.window_query(&Rect::new(0.0, 0.0, 1.0, 1.0), WindowTechnique::Complete);
        assert_eq!(q.candidates, 400);
        // All I/O is leaf pages (objects inline, directory warm):
        // #requests == #leaves.
        let leaves = org.tree().num_leaves() as u64;
        let stats = org.disk().stats();
        assert!(stats.read_requests >= leaves);
    }

    #[test]
    fn fetch_for_join_reads_leaf_and_overflow() {
        let mut org = org_with_sizes(&[600, 9000]);
        org.begin_query();
        let before = org.disk().stats();
        let none = HashSet::new();
        let complete = TransferTechnique::Complete;
        org.fetch_for_join(ObjectId(1), &none, complete, &mut org.pool().session());
        let d = org.disk().stats().since(&before);
        // Leaf page + 3 consecutive overflow pages = 2 requests.
        assert_eq!(d.read_requests, 2);
        assert_eq!(d.pages_read, 1 + 3);
    }

    #[test]
    fn delete_inline_and_overflow_objects() {
        let mut org = org_with_sizes(&[600, 9000, 700, 650, 5000, 620, 640, 660, 680, 630]);
        assert!(org.delete(ObjectId(1))); // overflow (3 pages)
        assert!(org.delete(ObjectId(0))); // inline
        assert!(!org.delete(ObjectId(0)));
        assert_eq!(org.tree().len(), 8);
        org.check_consistency().unwrap();
        assert_eq!(org.freed_overflow_pages, 3);
        check_invariants(org.tree()).unwrap();
        // Leaf tracking still correct for the survivors.
        for i in [2u64, 3, 4, 5, 6, 7, 8, 9] {
            let leaf = org.objects[ObjectId(i)].leaf;
            assert!(org
                .tree()
                .node(leaf)
                .leaf_entries()
                .iter()
                .any(|e| e.oid == ObjectId(i)));
        }
    }

    #[test]
    fn traced_point_query_replays_to_identical_cost() {
        let mut org = org_with_sizes(&vec![600; 200]);
        org.begin_query();
        let before = org.disk().stats();
        let point = Point::new(0.105, 0.005);
        let (stats, trace) = org.disk().traced(|| org.point_query(&point));
        let delta = org.disk().stats().since(&before);
        assert!(stats.candidates >= 1);
        assert_eq!(trace.len() as u64, delta.requests());
        let replay = Disk::with_defaults();
        for req in &trace {
            replay.charge(req.kind, req.run, req.skip_seek);
        }
        assert_eq!(replay.stats(), delta);
    }

    #[test]
    fn point_query_on_inline_object() {
        let mut org = org_with_sizes(&vec![600; 200]);
        org.begin_query();
        let q = org.point_query(&Point::new(0.105, 0.005));
        assert!(q.candidates >= 1);
        // One leaf read suffices (object inline, directory warm).
        assert!(q.io_ms <= 32.0, "io {}", q.io_ms);
    }
}
