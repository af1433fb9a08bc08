//! The secondary organization (§3.2.1).
//!
//! The R\*-tree stores the approximations (MBRs) and pointers; the exact
//! representations live in a sequential file in insertion order. The
//! spatial access method is a primary index for the approximations but
//! only a *secondary* index for the objects — spatially adjacent objects
//! are scattered over the file, so *"when processing window queries, each
//! access to an exact object representation needs an additional seek
//! operation"*.
//!
//! The pointer is in the leaf entry, as in the paper: `locator` is the
//! object's first page in the file, `payload` its size — and the size
//! fixes the page count, because the file packs with internal clustering
//! ([`PagePacker`]). A window query therefore reads its candidates'
//! pages off the entries it has just collected. The file never moves an
//! object, so the pointer is written once. Operations that start from an
//! id (deletion, the join's transfer) go through the per-object
//! [`ObjectTable`], which records the same run.

use crate::model::{SharedPool, TransferTechnique, WindowTechnique};
use crate::object::ObjectRecord;
use crate::packer::PagePacker;
use crate::store::{count_agrees, SpatialStore};
use crate::table::ObjectTable;
use spatialdb_disk::{IoKind, PageId, PageRun, PoolSession, RegionId, SeekPolicy, PAGE_SIZE};
use spatialdb_geom::Rect;
use spatialdb_rtree::{bulk, LeafEntry, ObjectId, RStarTree, RTreeConfig, Tile, TilingParams};
use std::collections::HashSet;

/// What the organization records per object.
#[derive(Clone, Copy, Debug)]
struct ObjectSlot {
    /// The object's pages in the sequential file.
    run: PageRun,
    size: u32,
    /// The indexed MBR (the key a deletion hands to the R\*-tree).
    mbr: Rect,
}

// An `ObjectTable` bucket is a slice of `(id, record)` pairs scanned
// linearly: at ≈ 16 pairs of 72 bytes, a probe walks up to 18 cache
// lines. Only operations that start from an id pay it; a window
// candidate's run is in its leaf entry.
const _: () = assert!(std::mem::size_of::<ObjectSlot>() == 64);
const _: () = assert!(std::mem::size_of::<(u64, ObjectSlot)>() == 72);

/// The secondary organization.
///
/// [`Clone`] is the store's snapshot and copies no per-object state
/// (see [`ObjectTable`]).
#[derive(Clone, Debug)]
pub struct SecondaryOrganization {
    pool: SharedPool,
    tree: RStarTree,
    tree_region: RegionId,
    file_region: RegionId,
    packer: PagePacker,
    objects: ObjectTable<ObjectSlot>,
}

impl SecondaryOrganization {
    /// Create an empty secondary organization buffered by `pool`, on
    /// the pool's disk.
    pub fn new(pool: SharedPool) -> Self {
        let tree_region = pool.disk().create_region("sec:tree");
        let file_region = pool.disk().create_region("sec:objects");
        let tree = RStarTree::new(RTreeConfig::paper_default(PAGE_SIZE), tree_region);
        SecondaryOrganization {
            pool,
            tree,
            tree_region,
            file_region,
            packer: PagePacker::new(PAGE_SIZE as u64),
            objects: ObjectTable::new(),
        }
    }

    /// Give the object behind `entry` (payload = its size) the next
    /// position of the sequential file: the pointer goes into the entry,
    /// the same run into the returned table record.
    fn place(&mut self, entry: &mut LeafEntry) -> ObjectSlot {
        let placement = self.packer.place(u64::from(entry.payload));
        entry.locator = placement.first_page;
        ObjectSlot {
            run: PageRun::new(
                PageId::new(self.file_region, placement.first_page),
                placement.num_pages,
            ),
            size: entry.payload,
            mbr: entry.mbr,
        }
    }

    /// The file pages of the object behind a leaf entry of this store's
    /// tree: internal clustering makes the page count a function of the
    /// size.
    fn run_of(&self, e: &LeafEntry) -> PageRun {
        PageRun::new(
            PageId::new(self.file_region, e.locator),
            u64::from(e.payload).div_ceil(PAGE_SIZE as u64),
        )
    }

    /// Read the exact representations of `candidates` one object at a
    /// time: §3.2.1 — *"each access to an exact object representation
    /// needs an additional seek operation"*. The buffer absorbs objects
    /// sharing a page; no cross-object request merging happens (the
    /// system chases one pointer per candidate, and finds it in the
    /// candidate's entry). Returns the bytes transferred to the caller.
    fn read_objects(&self, candidates: &[LeafEntry], session: &mut PoolSession<'_>) -> u64 {
        let runs = candidates.iter().map(|e| {
            let run = self.run_of(e);
            // The probe exists in debug builds only: keep it inside the macro.
            debug_assert_eq!(
                Some(run),
                self.objects.get(e.oid).map(|slot| slot.run),
                "stale pointer in {e:?}"
            );
            run
        });
        session.read_runs(runs, SeekPolicy::PerRequest);
        candidates.iter().map(|e| u64::from(e.payload)).sum()
    }
}

impl SpatialStore for SecondaryOrganization {
    fn name(&self) -> &'static str {
        "sec. org."
    }

    fn snapshot(&self) -> Box<dyn SpatialStore> {
        Box::new(self.clone())
    }

    /// The entry's payload is the object's size.
    fn leaf_entry(&self, rec: &ObjectRecord) -> LeafEntry {
        rec.leaf_entry(rec.size_bytes)
    }

    fn insert(&mut self, rec: &ObjectRecord) {
        // 1. Insert the MBR + pointer into the regular R*-tree; the
        //    pointer is the end of the sequential file.
        let mut entry = self.leaf_entry(rec);
        let slot = self.place(&mut entry);
        self.tree.insert(entry, &mut self.pool.session());
        // 2. Append the exact representation to the sequential file.
        //    The arm has moved (tree I/O in between), so every append is
        //    its own request.
        self.pool.disk().charge(IoKind::Write, slot.run, false);
        self.objects.insert(rec.oid, slot);
    }

    fn window_query_into(
        &self,
        window: &Rect,
        _technique: WindowTechnique,
        out: &mut Vec<LeafEntry>,
    ) -> u64 {
        let mut session = self.pool.session();
        self.tree.window_entries_into(window, &mut session, out);
        self.read_objects(out, &mut session)
    }

    fn fetch_for_join(
        &self,
        oid: ObjectId,
        _needed: &HashSet<ObjectId>,
        _technique: TransferTechnique,
        session: &mut PoolSession<'_>,
    ) {
        session.read_run(self.objects[oid].run, SeekPolicy::PerRequest);
    }

    fn occupied_pages(&self) -> u64 {
        self.tree.allocated_pages() + self.packer.pages_used()
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
            .invalidate_regions(&[self.tree_region, self.file_region]);
        crate::model::warm_directory(&self.pool, &self.tree);
    }

    fn delete(&mut self, oid: ObjectId) -> bool {
        let Some(slot) = self.objects.remove(oid) else {
            return false;
        };
        let outcome = self.tree.delete(oid, &slot.mbr, &mut self.pool.session());
        debug_assert!(outcome.removed, "index out of sync for {oid}");
        true
    }

    fn check_consistency(&self) -> Result<(), String> {
        count_agrees(self.objects.len(), &self.tree)?;
        // The pointer is recorded twice — in the entry for the filter
        // step, in the table for id lookups — and must agree.
        for (id, leaf) in self.tree.leaves() {
            for e in leaf.leaf_entries() {
                let agrees = self.objects.get(e.oid).is_some_and(|slot| {
                    e.locator == slot.run.start.offset
                        && e.payload == slot.size
                        && slot.run.len == u64::from(slot.size).div_ceil(PAGE_SIZE as u64)
                        && e.mbr == slot.mbr
                });
                if !agrees {
                    return Err(format!(
                        "entry {e:?} in data page {id} is recorded as {:?}",
                        self.objects.get(e.oid)
                    ));
                }
            }
        }
        Ok(())
    }

    fn str_install(
        &mut self,
        _records: &[ObjectRecord],
        mut tiles: Vec<Tile>,
        params: &TilingParams,
    ) {
        // Lay the sequential file out in tile order: one sealed,
        // contiguous byte range per data page of the tree, written as
        // one sequential request. Spatially adjacent objects become
        // file-adjacent — the big STR win for this organization. The
        // entries learn their pointers before the tree takes them.
        let mut slots = Vec::with_capacity(tiles.iter().map(Vec::len).sum());
        let mut tile_runs = Vec::with_capacity(tiles.len());
        for tile in &mut tiles {
            let first = self.packer.pages_used();
            for e in tile {
                slots.push((e.oid, self.place(e)));
            }
            self.packer.seal();
            let len = self.packer.pages_used() - first;
            tile_runs.push(PageRun::new(PageId::new(self.file_region, first), len));
        }
        let build = bulk::build_tree(self.tree.config().clone(), self.tree_region, tiles, params);
        for run in build.level_runs.iter().chain(&tile_runs) {
            self.pool.disk().charge(IoKind::Write, *run, false);
        }
        self.objects = ObjectTable::from_records(slots);
        self.tree = build.tree;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::new_shared_pool;
    use spatialdb_disk::Disk;
    use spatialdb_geom::Point;
    use spatialdb_rtree::validate::check_invariants;

    fn org_with(n: u64) -> SecondaryOrganization {
        let mut org = SecondaryOrganization::new(new_shared_pool(Disk::with_defaults(), 512));
        for i in 0..n {
            let x = (i % 40) as f64 / 40.0;
            let y = (i / 40) as f64 / 40.0;
            org.insert(&ObjectRecord::new(
                ObjectId(i),
                Rect::new(x, y, x + 0.01, y + 0.01),
                600 + (i % 100) as u32,
            ));
        }
        org.flush();
        org
    }

    #[test]
    fn insert_stores_and_indexes() {
        let org = org_with(200);
        assert_eq!(org.tree().len(), 200);
        org.check_consistency().unwrap();
        check_invariants(org.tree()).unwrap();
    }

    #[test]
    fn sequential_file_is_dense() {
        let org = org_with(500);
        // ~650 B objects, 5–6 per page with internal clustering: the
        // file stays within 25% of the dense byte packing.
        let total: u64 = (0..500u64).map(|i| 600 + i % 100).sum();
        let dense = total.div_ceil(4096);
        assert!(
            org.packer.pages_used() <= dense + dense / 4,
            "pages {} vs dense {dense}",
            org.packer.pages_used()
        );
    }

    #[test]
    fn window_query_returns_candidates_and_cost() {
        let mut org = org_with(400);
        org.begin_query();
        let q = org.window_query(&Rect::new(0.0, 0.0, 0.5, 0.5), WindowTechnique::Complete);
        assert!(q.candidates > 0);
        assert!(q.result_bytes > 0);
        assert!(q.io_ms > 0.0);
    }

    #[test]
    fn scattered_objects_pay_separate_seeks() {
        let mut org = org_with(400);
        org.begin_query();
        let before = org.disk().stats();
        let q = org.window_query(&Rect::new(0.0, 0.0, 1.0, 1.0), WindowTechnique::Complete);
        let stats = org.disk().stats().since(&before);
        // Each read request paid a seek (PerRequest policy).
        assert_eq!(stats.seeks, stats.read_requests);
        assert_eq!(q.candidates, 400);
    }

    #[test]
    fn traced_window_query_replays_to_identical_cost() {
        let mut org = org_with(400);
        org.begin_query();
        let before = org.disk().stats();
        let window = Rect::new(0.0, 0.0, 0.5, 0.5);
        let (stats, trace) = org
            .disk()
            .traced(|| org.window_query(&window, WindowTechnique::Complete));
        let delta = org.disk().stats().since(&before);
        assert!(stats.candidates > 0);
        assert_eq!(trace.len() as u64, delta.requests());
        // Every scattered object access paid its own seek — the traced
        // requests carry that (no skip_seek flags, §3.2.1).
        assert!(trace.iter().all(|r| !r.skip_seek));
        // Charged again on a fresh disk: identical stats.
        let replay = Disk::with_defaults();
        for req in &trace {
            replay.charge(req.kind, req.run, req.skip_seek);
        }
        assert_eq!(replay.stats(), delta);
    }

    #[test]
    fn point_query_cheap_and_correct() {
        let mut org = org_with(400);
        org.begin_query();
        let q = org.point_query(&Point::new(0.105, 0.005));
        assert!(q.candidates >= 1);
        // Directory is warm: only the leaf + the object pages are read.
        assert!(q.io_ms <= 4.0 * 16.0, "io {}", q.io_ms);
    }

    #[test]
    fn occupied_pages_counts_tree_and_file() {
        let org = org_with(300);
        assert!(org.occupied_pages() > org.packer.pages_used());
    }

    #[test]
    fn delete_unindexes_object() {
        let mut org = org_with(200);
        assert!(org.delete(ObjectId(7)));
        assert!(!org.delete(ObjectId(7)));
        assert_eq!(org.tree().len(), 199);
        org.check_consistency().unwrap();
        check_invariants(org.tree()).unwrap();
        org.begin_query();
        let q = org.window_query(&Rect::new(0.0, 0.0, 1.0, 1.0), WindowTechnique::Complete);
        assert_eq!(q.candidates, 199);
    }

    #[test]
    fn begin_query_warms_directory() {
        let mut org = org_with(300);
        org.begin_query();
        let before = org.disk().stats();
        // A second begin_query + query should not re-read directory pages.
        org.begin_query();
        org.point_query(&Point::new(2.0, 2.0)); // off-data point
        let after = org.disk().stats().since(&before);
        assert_eq!(after.read_requests, 0);
    }
}
