//! An in-memory baseline store — the "fourth organization".
//!
//! [`MemoryStore`] keeps the R\*-tree and all object metadata in main
//! memory and charges **no** I/O for queries: it is the zero-cost
//! baseline to compare the disk-resident organization models against,
//! and doubles as the reference implementation of how a new
//! [`SpatialStore`] backend plugs into the engine in one file — no other
//! crate needs to change.

use crate::model::{SharedPool, TransferTechnique, WindowTechnique};
use crate::object::ObjectRecord;
use crate::store::{count_agrees, SpatialStore};
use spatialdb_disk::{PoolSession, PAGE_SIZE};
use spatialdb_geom::Rect;
use spatialdb_rtree::{
    bulk, LeafEntry, NoIo, ObjectId, RStarTree, RTreeConfig, Tile, TilingParams,
};
use std::collections::{HashMap, HashSet};

/// A purely in-memory spatial store (no simulated I/O).
#[derive(Clone, Debug)]
pub struct MemoryStore {
    pool: SharedPool,
    tree: RStarTree,
    /// Each stored object's MBR (to find its entry on delete) and exact
    /// size (a query's bytes).
    objects: HashMap<ObjectId, (Rect, u32)>,
}

impl MemoryStore {
    /// Create an empty in-memory store.
    ///
    /// `pool` is only carried along so the store can take part in joins
    /// (which require both operands to share one machine); the store
    /// itself never charges I/O to it or the disk under it.
    pub fn new(pool: SharedPool) -> Self {
        let region = pool.disk().create_region("mem:tree");
        MemoryStore {
            pool,
            tree: RStarTree::new(RTreeConfig::paper_default(PAGE_SIZE), region),
            objects: HashMap::new(),
        }
    }
}

impl SpatialStore for MemoryStore {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn snapshot(&self) -> Box<dyn SpatialStore> {
        Box::new(self.clone())
    }

    fn insert(&mut self, rec: &ObjectRecord) {
        let entry = self.leaf_entry(rec);
        self.tree.insert(entry, &mut NoIo);
        self.objects.insert(rec.oid, (rec.mbr, rec.size_bytes));
    }

    fn delete(&mut self, oid: ObjectId) -> bool {
        let Some((mbr, _)) = self.objects.remove(&oid) else {
            return false;
        };
        let outcome = self.tree.delete(oid, &mbr, &mut NoIo);
        debug_assert!(outcome.removed, "index out of sync for {oid}");
        true
    }

    fn window_query_into(
        &self,
        window: &Rect,
        _technique: WindowTechnique,
        out: &mut Vec<LeafEntry>,
    ) -> u64 {
        self.tree.window_entries_into(window, &mut NoIo, out);
        out.iter().map(|e| u64::from(self.objects[&e.oid].1)).sum()
    }

    fn fetch_for_join(
        &self,
        _oid: ObjectId,
        _needed: &HashSet<ObjectId>,
        _technique: TransferTechnique,
        _session: &mut PoolSession<'_>,
    ) {
        // Already resident.
    }

    fn occupied_pages(&self) -> u64 {
        0
    }

    fn contains(&self, oid: ObjectId) -> bool {
        self.objects.contains_key(&oid)
    }

    fn pool(&self) -> SharedPool {
        self.pool.clone()
    }

    fn tree(&self) -> &RStarTree {
        &self.tree
    }

    fn flush(&mut self) {
        // Nothing is buffered.
    }

    fn begin_query(&mut self) {
        // Always "cold" and always free.
    }

    fn check_consistency(&self) -> Result<(), String> {
        count_agrees(self.objects.len(), &self.tree)
    }

    // `leaf_entry`'s default (payload 0) is already right for a memory
    // store; the install builds the tree bottom-up and charges nothing.
    fn str_install(&mut self, records: &[ObjectRecord], tiles: Vec<Tile>, params: &TilingParams) {
        let build = bulk::build_tree(
            self.tree.config().clone(),
            self.tree.region(),
            tiles,
            params,
        );
        self.tree = build.tree;
        self.objects
            .extend(records.iter().map(|r| (r.oid, (r.mbr, r.size_bytes))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::new_shared_pool;
    use spatialdb_disk::Disk;
    use spatialdb_rtree::validate::check_invariants;

    fn store_with(n: u64) -> MemoryStore {
        let disk = Disk::with_defaults();
        let mut s = MemoryStore::new(new_shared_pool(disk, 64));
        for i in 0..n {
            let x = (i % 10) as f64 / 10.0;
            let y = (i / 10) as f64 / 10.0;
            s.insert(&ObjectRecord::new(
                ObjectId(i),
                Rect::new(x, y, x + 0.05, y + 0.05),
                640,
            ));
        }
        s
    }

    #[test]
    fn queries_are_free_and_correct() {
        let s = store_with(60);
        check_invariants(s.tree()).unwrap();
        let io_before = s.disk().stats();
        let q = s.window_query(&Rect::new(0.0, 0.0, 0.5, 0.5), WindowTechnique::Complete);
        assert!(q.candidates > 0);
        assert!(q.result_bytes > 0);
        assert_eq!(q.io_ms, 0.0);
        assert_eq!(s.disk().stats().since(&io_before).requests(), 0);
    }

    #[test]
    fn traced_queries_produce_empty_traces() {
        let s = store_with(60);
        let window = Rect::new(0.0, 0.0, 0.5, 0.5);
        let (q, trace) = s
            .disk()
            .traced(|| s.window_query(&window, WindowTechnique::Complete));
        assert!(q.candidates > 0);
        assert!(trace.is_empty(), "memory store charges no I/O");
        let point = spatialdb_geom::Point::new(0.02, 0.02);
        let (_, ptrace) = s.disk().traced(|| s.point_query(&point));
        assert!(ptrace.is_empty());
    }

    #[test]
    fn delete_and_reinsert() {
        let mut s = store_with(30);
        assert!(s.delete(ObjectId(3)));
        assert!(!s.delete(ObjectId(3)));
        assert_eq!(s.tree().len(), 29);
        s.check_consistency().unwrap();
        let (all, mut out) = (Rect::new(-1.0, -1.0, 2.0, 2.0), Vec::new());
        s.window_candidates_into(&all, &mut out);
        assert_eq!(out.len(), 29);
        s.insert(&ObjectRecord::new(
            ObjectId(3),
            Rect::new(0.3, 0.0, 0.35, 0.05),
            640,
        ));
        s.window_candidates_into(&all, &mut out);
        assert_eq!(out.len(), 30);
    }

    #[test]
    fn occupies_no_disk() {
        let s = store_with(40);
        assert_eq!(s.occupied_pages(), 0);
    }
}
