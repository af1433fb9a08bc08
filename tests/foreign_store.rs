//! A foreign `SpatialStore` backend for the integration tests that need
//! one: only the required methods and `snapshot`, over an inner
//! `MemoryStore` — everything else (point queries, the STR install, …)
//! comes from the trait's provided bodies.

use spatialdb::disk::PoolSession;
use spatialdb::geom::Rect;
use spatialdb::rtree::{LeafEntry, ObjectId, RStarTree};
use spatialdb::storage::{
    MemoryStore, ObjectRecord, SharedPool, SpatialStore, TransferTechnique, WindowTechnique,
};
use std::collections::HashSet;

/// A backend from before the hint existed: what it keeps of a record is
/// what `ObjectRecord::new` and `LeafEntry::new(mbr, oid, 0)` always
/// took, so its leaf entries carry no hint.
#[derive(Clone)]
pub struct HintlessStore(pub MemoryStore);

impl SpatialStore for HintlessStore {
    fn name(&self) -> &'static str {
        "hintless"
    }
    fn snapshot(&self) -> Box<dyn SpatialStore> {
        Box::new(self.clone())
    }
    fn insert(&mut self, rec: &ObjectRecord) {
        self.0
            .insert(&ObjectRecord::new(rec.oid, rec.mbr, rec.size_bytes))
    }
    fn delete(&mut self, oid: ObjectId) -> bool {
        self.0.delete(oid)
    }
    fn window_query_into(&self, w: &Rect, t: WindowTechnique, out: &mut Vec<LeafEntry>) -> u64 {
        self.0.window_query_into(w, t, out)
    }
    fn fetch_for_join(
        &self,
        oid: ObjectId,
        needed: &HashSet<ObjectId>,
        technique: TransferTechnique,
        session: &mut PoolSession<'_>,
    ) {
        self.0.fetch_for_join(oid, needed, technique, session)
    }
    fn occupied_pages(&self) -> u64 {
        self.0.occupied_pages()
    }
    fn contains(&self, oid: ObjectId) -> bool {
        self.0.contains(oid)
    }
    fn pool(&self) -> SharedPool {
        self.0.pool()
    }
    fn tree(&self) -> &RStarTree {
        self.0.tree()
    }
    fn flush(&mut self) {
        self.0.flush()
    }
    fn begin_query(&mut self) {
        self.0.begin_query()
    }
    fn check_consistency(&self) -> Result<(), String> {
        self.0.check_consistency()
    }
}
