//! The cluster organization (§4) — the paper's contribution.
//!
//! Three levels (Figure 4): the R\*-tree directory, the data pages
//! holding the MBR entries, and one *cluster unit* per data page holding
//! the exact representations of its objects on physically consecutive
//! pages. The modified R\*-tree (§4.2.1) performs no leaf-level forced
//! reinsert and splits a data page when its cluster unit exceeds
//! `Smax ≈ 1.5 · M · S_obj` bytes (*cluster split*).
//!
//! Insertion follows §4.2.2: (1) determine the data page with the
//! R\*-tree algorithm, (2) insert the MBR into the data page, (3) append
//! the object to the corresponding cluster unit, (4) on overflow split
//! the data page into exactly two cluster units along the R\*-tree split
//! distribution. A cluster split *reads the old unit once and writes the
//! two new units sequentially* — this is why construction stays cheap
//! (§5.2): the copies already profit from global clustering.
//!
//! Cluster units live in buddies ([`spatialdb_disk::BuddyAllocator`]);
//! with the single-size configuration every unit occupies the full
//! `Smax`, reproducing the storage utilization of Figure 6, while the
//! restricted buddy system of Figure 7 adapts the physical unit size.

use crate::model::{SharedPool, TransferTechnique, WindowTechnique};
use crate::object::ObjectRecord;
use crate::packer::{BytePacker, Placement};
use crate::store::SpatialStore;
use crate::table::ObjectTable;
use spatialdb_disk::{
    BuddyAllocator, BuddyConfig, IoKind, PageId, PageRun, PoolSession, RegionId, SeekPolicy,
    PAGE_SIZE,
};
use spatialdb_geom::{Point, Rect};
use spatialdb_rtree::{
    bulk, CowSlab, LeafEntry, NodeId, ObjectId, RStarTree, RTreeConfig, Tile, TilingParams,
};
use std::cell::RefCell;
use std::collections::HashSet;

thread_local! {
    /// The calling thread's wanted offsets, taken for one
    /// [`SpatialStore::fetch_for_join`] call and put back for the next:
    /// the join fetches object after object, so its unit reads reuse one
    /// buffer instead of allocating one per object.
    static JOIN_WANTED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Configuration of a [`ClusterOrganization`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Maximum cluster unit size in bytes (`Smax`, Table 1).
    pub smax_bytes: u64,
    /// Physical unit sizes (buddy system configuration, §5.3.1).
    pub buddy: BuddyConfig,
}

impl ClusterConfig {
    /// Plain cluster organization: every unit occupies the full `Smax`
    /// (Figures 5, 6, 8, 10–12, 14, 16, 17).
    pub fn plain(smax_bytes: u64) -> Self {
        let pages = smax_bytes.div_ceil(PAGE_SIZE as u64);
        ClusterConfig {
            smax_bytes,
            buddy: BuddyConfig::fixed(pages),
        }
    }

    /// Restricted buddy system with sizes `Smax`, `Smax/2`, `Smax/4`
    /// (Figure 7).
    pub fn restricted_buddy(smax_bytes: u64) -> Self {
        let pages = smax_bytes.div_ceil(PAGE_SIZE as u64);
        ClusterConfig {
            smax_bytes,
            buddy: BuddyConfig::restricted(pages),
        }
    }
}

/// One cluster unit: the physical extent (its buddy) plus the byte-packed
/// object placements.
#[derive(Clone, Debug)]
struct ClusterUnit {
    /// The buddy currently backing the unit.
    extent: PageRun,
    packer: BytePacker,
    /// Object → placement (page offsets relative to `extent.start`),
    /// sorted by object id: a unit holds at most a few hundred objects,
    /// so a binary search beats hashing and a unit's shadow copy is one
    /// `memcpy`.
    members: Vec<(ObjectId, Placement)>,
}

impl ClusterUnit {
    fn placement(&self, oid: ObjectId) -> Placement {
        let i = self
            .members
            .binary_search_by_key(&oid, |m| m.0)
            .unwrap_or_else(|_| panic!("object {oid} missing from its cluster unit"));
        self.members[i].1
    }

    fn add_member(&mut self, oid: ObjectId, placement: Placement) {
        let at = self.members.partition_point(|m| m.0 < oid);
        self.members.insert(at, (oid, placement));
    }

    fn used_pages(&self) -> u64 {
        self.packer.pages_used(PAGE_SIZE as u64)
    }

    /// The physically used part of the extent.
    fn used_extent(&self) -> PageRun {
        PageRun::new(self.extent.start, self.used_pages())
    }

    /// Absolute pages of one member.
    fn member_run(&self, oid: ObjectId) -> PageRun {
        let placement = self.placement(oid);
        PageRun::new(self.extent.page(placement.first_page), placement.num_pages)
    }

    /// Sum of pages over all members (for the `nop∅` average).
    fn member_pages_total(&self) -> u64 {
        self.members.iter().map(|(_, p)| p.num_pages).sum()
    }
}

/// The distinct page offsets (within their unit) of `placements`,
/// sorted, into `offsets` (cleared first): the pages a unit read wants.
fn wanted_offsets(placements: impl Iterator<Item = Placement>, offsets: &mut Vec<u64>) {
    offsets.clear();
    offsets.extend(placements.flat_map(|p| p.page_offsets()));
    offsets.sort_unstable();
    offsets.dedup();
}

/// What the organization records per object.
#[derive(Clone, Copy, PartialEq, Debug)]
struct ObjectSlot {
    /// Data page (and thereby cluster unit) the object belongs to.
    leaf: NodeId,
    size: u32,
}

// 16 bytes per `(id, record)` pair of an `ObjectTable` bucket, four to a
// cache line; window queries never probe it (sizes ride the leaf entry).
const _: () = assert!(std::mem::size_of::<ObjectSlot>() == 8);
const _: () = assert!(std::mem::size_of::<(u64, ObjectSlot)>() == 16);

/// The cluster organization.
///
/// [`Clone`] is the store's snapshot and copies no per-object state:
/// the tree's node table, the unit slab and the object table are all
/// pointer tables over shared, copy-on-write pieces.
#[derive(Clone, Debug)]
pub struct ClusterOrganization {
    pool: SharedPool,
    config: ClusterConfig,
    tree: RStarTree,
    tree_region: RegionId,
    buddy: BuddyAllocator,
    /// The cluster units, indexed by the [`NodeId`] of their data page
    /// — the same copy-on-write slab as the R\*-tree's node store, so
    /// appending to or rebuilding a unit shadow-copies that unit alone.
    units: CowSlab<ClusterUnit>,
    objects: ObjectTable<ObjectSlot>,
    /// Σ placement pages over all units (maintained incrementally for the
    /// threshold formula's `nop∅`).
    total_member_pages: u64,
}

impl ClusterOrganization {
    /// Create an empty cluster organization buffered by `pool`, on the
    /// pool's disk.
    pub fn new(pool: SharedPool, config: ClusterConfig) -> Self {
        let tree_region = pool.disk().create_region("clu:tree");
        let unit_region = pool.disk().create_region("clu:units");
        let tree = RStarTree::new(
            RTreeConfig::cluster(PAGE_SIZE, config.smax_bytes),
            tree_region,
        );
        let buddy = BuddyAllocator::new(unit_region, config.buddy.clone());
        ClusterOrganization {
            pool,
            config,
            tree,
            tree_region,
            buddy,
            units: CowSlab::new(),
            objects: ObjectTable::new(),
            total_member_pages: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of cluster units.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Average number of entries per data page (`noe∅` of §5.4.1).
    pub fn avg_entries_per_page(&self) -> f64 {
        let leaves = self.tree.num_leaves().max(1);
        self.tree.len() as f64 / leaves as f64
    }

    /// Average number of pages occupied per object (`nop∅` of §5.4.1).
    pub fn avg_pages_per_object(&self) -> f64 {
        let n = self.objects.len().max(1);
        self.total_member_pages as f64 / n as f64
    }

    /// The cluster unit of a data page.
    fn unit(&self, leaf: NodeId) -> &ClusterUnit {
        self.units
            .get(leaf.0 as usize)
            .unwrap_or_else(|| panic!("data page {leaf} has no cluster unit"))
    }

    /// Drop an extent's pages from the buffer (the extent is being freed
    /// or rewritten; stale copies must not produce buffer hits).
    fn drop_from_buffer(&self, extent: PageRun) {
        let mut session = self.pool.session();
        for p in extent.pages() {
            session.remove_page(&p);
        }
    }

    /// `true` if `id` is a live data page of the tree.
    fn is_data_page(&self, id: NodeId) -> bool {
        self.tree.contains_node(id) && self.tree.node(id).is_leaf()
    }

    /// The `(object, size)` pairs of a data page, in entry order
    /// (cluster entries carry the exact object size as their payload).
    fn page_objects(&self, leaf: NodeId) -> Vec<(ObjectId, u32)> {
        let entries = self.tree.node(leaf).leaf_entries();
        entries.iter().map(|e| (e.oid, e.payload)).collect()
    }

    /// Pack a unit from `(object, size)` pairs in the given order,
    /// allocating the smallest possible buddy. Returns the unit (no I/O
    /// charged here).
    fn pack_unit(&mut self, objects: &[(ObjectId, u32)]) -> ClusterUnit {
        let mut packer = BytePacker::new();
        let mut members: Vec<(ObjectId, Placement)> = objects
            .iter()
            .map(|&(oid, size)| (oid, packer.place(u64::from(size), PAGE_SIZE as u64)))
            .collect();
        members.sort_unstable_by_key(|m| m.0);
        let pages = packer.pages_used(PAGE_SIZE as u64).max(1);
        let extent = self
            .buddy
            .alloc_for(pages)
            .expect("cluster split produced a unit beyond Smax");
        ClusterUnit {
            extent,
            packer,
            members,
        }
    }

    /// §4.2.2 step 3: append the object to the unit of its data page,
    /// moving the unit to a larger buddy when needed.
    fn append_object(&mut self, leaf: NodeId, rec: &ObjectRecord) {
        self.objects.insert(
            rec.oid,
            ObjectSlot {
                leaf,
                size: rec.size_bytes,
            },
        );
        let size = u64::from(rec.size_bytes);
        if let Some(unit) = self.units.get_mut(leaf.0 as usize) {
            let old_used = unit.used_extent();
            let placement = unit.packer.place(size, PAGE_SIZE as u64);
            unit.add_member(rec.oid, placement);
            self.total_member_pages += placement.num_pages;
            let needed = unit.used_pages();
            if needed <= unit.extent.len {
                // Fits: write the object's pages (one request).
                let run = PageRun::new(
                    PageId::new(
                        unit.extent.start.region,
                        unit.extent.start.offset + placement.first_page,
                    ),
                    placement.num_pages,
                );
                self.pool.disk().charge(IoKind::Write, run, false);
            } else {
                // Move the unit into a larger buddy: read the old unit,
                // write the unit including the new object sequentially.
                let old_extent = unit.extent;
                unit.extent = self
                    .buddy
                    .alloc_for(needed)
                    .expect("unit grew beyond Smax without a cluster split");
                let new_used = unit.used_extent();
                self.pool.disk().charge(IoKind::Read, old_used, false);
                self.pool.disk().charge(IoKind::Write, new_used, false);
                self.buddy.free(old_extent);
                self.drop_from_buffer(old_extent);
            }
        } else {
            // First object of a fresh data page: new unit.
            let unit = self.pack_unit(&[(rec.oid, rec.size_bytes)]);
            self.total_member_pages += unit.member_pages_total();
            self.pool
                .disk()
                .charge(IoKind::Write, unit.used_extent(), false);
            self.units.set(leaf.0 as usize, unit);
        }
    }

    /// Rebuild one data page's cluster unit from the tree's current
    /// entry list (deletion path): read the old unit if it existed, pack
    /// the current members, write the new unit, free the old buddy.
    fn rebuild_unit(&mut self, leaf: NodeId) {
        if !self.is_data_page(leaf) {
            return;
        }
        let old = self.units.take(leaf.0 as usize);
        if let Some(u) = &old {
            self.pool
                .disk()
                .charge(IoKind::Read, u.used_extent(), false);
            self.total_member_pages -= u.member_pages_total();
        }
        let objects = self.page_objects(leaf);
        if !objects.is_empty() {
            let unit = self.pack_unit(&objects);
            self.total_member_pages += unit.member_pages_total();
            self.pool
                .disk()
                .charge(IoKind::Write, unit.used_extent(), false);
            for (oid, _) in objects {
                self.objects
                    .update(oid, |slot| ObjectSlot { leaf, ..*slot });
            }
            self.units.set(leaf.0 as usize, unit);
        }
        if let Some(u) = old {
            self.buddy.free(u.extent);
            self.drop_from_buffer(u.extent);
        }
    }

    /// Transfer the qualifying objects of one cluster unit according to
    /// the window-query technique: §5.4's *complete*, SLM and optimum
    /// are the pool's unit read under §6.2's *complete*, *read* and
    /// *optimum*; the threshold picks *complete* at or above `T(c)` and
    /// reads page by page below it. All costs are charged to the disk
    /// through the query's `session`. `offsets` is scratch space reused
    /// from unit to unit.
    fn transfer_for_window(
        &self,
        leaf: NodeId,
        hits: &[LeafEntry],
        window: &Rect,
        technique: WindowTechnique,
        offsets: &mut Vec<u64>,
        session: &mut PoolSession<'_>,
    ) {
        let unit = self.unit(leaf);
        let used = unit.used_extent();
        let technique = match technique {
            WindowTechnique::Complete => TransferTechnique::Complete,
            WindowTechnique::Slm => TransferTechnique::Read,
            WindowTechnique::Optimum => TransferTechnique::Optimum,
            WindowTechnique::Threshold => {
                let region = self.tree.node(leaf).mbr();
                let overlap = region.overlap_fraction(window);
                let t = self.pool.disk().params().geometric_threshold(
                    used.len,
                    self.avg_entries_per_page(),
                    self.avg_pages_per_object(),
                );
                if overlap >= t {
                    TransferTechnique::Complete
                } else {
                    read_page_by_page(unit, hits, session);
                    return;
                }
            }
        };
        wanted_offsets(hits.iter().map(|e| unit.placement(e.oid)), offsets);
        session.read_extent(used, offsets, technique);
    }
}

/// Page-by-page, the threshold technique's below-threshold branch: one
/// request per qualifying object, one seek per cluster unit (§5.4.1's
/// `t_page` access pattern).
fn read_page_by_page(unit: &ClusterUnit, hits: &[LeafEntry], session: &mut PoolSession<'_>) {
    let mut seek_pending = true;
    for e in hits {
        let out = session.read_run(
            unit.member_run(e.oid),
            SeekPolicy::WithinCluster {
                initial_seek: seek_pending,
            },
        );
        if out.issued_io() {
            seek_pending = false;
        }
    }
}

impl SpatialStore for ClusterOrganization {
    fn name(&self) -> &'static str {
        "cluster org."
    }

    fn snapshot(&self) -> Box<dyn SpatialStore> {
        Box::new(self.clone())
    }

    /// The entry's payload is the object's exact size: the tree's
    /// payload limit (`Smax` via its config) is the cluster-split bound,
    /// so an STR tile maps to one legal cluster unit.
    ///
    /// # Panics
    ///
    /// Panics if the object is larger than `Smax`.
    fn leaf_entry(&self, rec: &ObjectRecord) -> LeafEntry {
        assert!(
            u64::from(rec.size_bytes) <= self.config.smax_bytes,
            "object {} larger than Smax; store it in a separate storage unit \
             (paper §4.2.2 footnote)",
            rec.oid
        );
        rec.leaf_entry(rec.size_bytes)
    }

    fn insert(&mut self, rec: &ObjectRecord) {
        // Steps 1 + 2: determine the data page and insert the MBR entry
        // (the modified R*-tree may already split — step 4).
        let entry = self.leaf_entry(rec);
        let outcome = self.tree.insert(entry, &mut self.pool.session());
        debug_assert!(outcome.leaf_reinserts.is_empty());
        if outcome.leaf_splits.is_empty() {
            // Step 3: append the object to the cluster unit.
            let leaf = outcome.leaf.expect("insert without target leaf");
            self.append_object(leaf, rec);
        } else {
            // Step 4: the data page split (possibly chaining when one
            // half still exceeded Smax). Rebuild every involved unit
            // from the tree's final entry lists: the overflowing unit is
            // read once and the successors are written sequentially.
            self.objects.insert(
                rec.oid,
                ObjectSlot {
                    leaf: outcome.leaf.expect("insert without target leaf"),
                    size: rec.size_bytes,
                },
            );
            let mut involved: Vec<NodeId> = outcome
                .leaf_splits
                .iter()
                .flat_map(|ev| [ev.old, ev.new])
                .collect();
            // Rebuild in node-id order: the rebuild order drives the
            // buddy allocate/free sequence and therefore the *physical
            // placement* of the units. A hash-set order here left the
            // flat per-request costs unchanged but made cylinder
            // positions differ between identical builds — visible the
            // moment the disk-arm model priced seeks by distance.
            involved.sort_unstable();
            involved.dedup();
            for leaf in involved {
                self.rebuild_unit(leaf);
            }
        }
    }

    fn window_query_into(
        &self,
        window: &Rect,
        technique: WindowTechnique,
        out: &mut Vec<LeafEntry>,
    ) -> u64 {
        let mut session = self.pool.session();
        let per_leaf = self.tree.window_leaves_into(window, &mut session, out);
        let mut offsets = Vec::new();
        for (leaf, hits) in per_leaf {
            self.transfer_for_window(
                leaf,
                &out[hits],
                window,
                technique,
                &mut offsets,
                &mut session,
            );
        }
        // The entry's payload is the object's exact size.
        out.iter().map(|e| u64::from(e.payload)).sum()
    }

    fn point_query_into(&self, point: &Point, out: &mut Vec<LeafEntry>) -> u64 {
        let mut session = self.pool.session();
        self.tree.point_entries_into(point, &mut session, out);
        // Selective access: read just the objects' pages, not the units
        // (§5.5 — the cluster organization must not penalize selective
        // queries).
        for e in out.iter() {
            self.fetch_object(e.oid, &mut session);
        }
        out.iter().map(|e| u64::from(e.payload)).sum()
    }

    fn fetch_object(&self, oid: ObjectId, session: &mut PoolSession<'_>) {
        let run = self.unit(self.objects[oid].leaf).member_run(oid);
        session.read_run(run, SeekPolicy::PerRequest);
    }

    /// The join's object transfer (§6.2): fetch `oid`, batching the
    /// other candidates of its cluster unit according to the technique.
    /// `needed` is the join's whole candidate set for this operand,
    /// built once from the MBR join and never pruned, so *read*, *vector
    /// read* and *optimum* also want the pages of candidates the join
    /// has already processed; *complete* does not read it. An object
    /// that is already buffered is only touched.
    fn fetch_for_join(
        &self,
        oid: ObjectId,
        needed: &HashSet<ObjectId>,
        technique: TransferTechnique,
        session: &mut PoolSession<'_>,
    ) {
        let unit = self.unit(self.objects[oid].leaf);
        if session.touch_if_resident(unit.member_run(oid).pages()) {
            return;
        }
        let batch = technique.reads_candidate_set();
        let mut wanted = JOIN_WANTED.take();
        wanted_offsets(
            unit.members
                .iter()
                .filter(|(o, _)| *o == oid || (batch && needed.contains(o)))
                .map(|&(_, p)| p),
            &mut wanted,
        );
        session.read_extent(unit.used_extent(), &wanted, technique);
        JOIN_WANTED.set(wanted);
    }

    /// Structural self-check: every object is in exactly one unit, units
    /// correspond 1:1 to data pages, placements are within extents, and
    /// unit payloads respect `Smax`.
    fn check_consistency(&self) -> Result<(), String> {
        let mut seen = HashSet::new();
        for (leaf, unit) in self.units.iter() {
            let leaf = NodeId(leaf as u32);
            if !self.tree.contains_node(leaf) {
                return Err(format!("unit {leaf} outlived its data page"));
            }
            let node = self.tree.node(leaf);
            if !node.is_leaf() {
                return Err(format!("unit attached to non-leaf {leaf}"));
            }
            let entries = node.leaf_entries();
            if entries.len() != unit.members.len() {
                return Err(format!(
                    "data page {leaf} has {} entries but unit has {} members",
                    entries.len(),
                    unit.members.len()
                ));
            }
            for e in entries {
                if unit.members.binary_search_by_key(&e.oid, |m| m.0).is_err() {
                    return Err(format!("entry {} missing from unit {leaf}", e.oid));
                }
                match self.objects.get(e.oid) {
                    Some(slot) if slot.leaf == leaf && slot.size == e.payload => {}
                    other => {
                        return Err(format!(
                            "object {} in unit {leaf} is recorded as {other:?}",
                            e.oid
                        ))
                    }
                }
                if !seen.insert(e.oid) {
                    return Err(format!("object {} in two units", e.oid));
                }
            }
            if unit.used_pages() > unit.extent.len {
                return Err(format!(
                    "unit {leaf} uses {} pages but its buddy has {}",
                    unit.used_pages(),
                    unit.extent.len
                ));
            }
            if unit.members.len() > 1 && unit.packer.used_bytes() > self.config.smax_bytes {
                return Err(format!(
                    "unit {leaf} holds {} bytes > Smax {}",
                    unit.packer.used_bytes(),
                    self.config.smax_bytes
                ));
            }
        }
        if seen.len() != self.objects.len() {
            return Err(format!(
                "{} objects stored but {} in units",
                self.objects.len(),
                seen.len()
            ));
        }
        Ok(())
    }

    fn occupied_pages(&self) -> u64 {
        self.tree.allocated_pages() + self.buddy.occupied_pages()
    }

    fn num_objects(&self) -> usize {
        self.objects.len()
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
            .invalidate_regions(&[self.tree_region, self.buddy.region()]);
        crate::model::warm_directory(&self.pool, &self.tree);
    }

    fn delete(&mut self, oid: ObjectId) -> bool {
        let Some(leaf0) = self.objects.get(oid).map(|slot| slot.leaf) else {
            return false;
        };
        let mbr = self
            .tree
            .node(leaf0)
            .leaf_entries()
            .iter()
            .find(|e| e.oid == oid)
            .map(|e| e.mbr)
            .expect("cluster location out of sync");
        let outcome = self.tree.delete(oid, &mbr, &mut self.pool.session());
        debug_assert!(outcome.removed);
        self.objects.remove(oid);
        // Tree condensation may have removed data pages and relocated
        // their entries; rebuild every affected cluster unit from the
        // tree's (authoritative) current entry lists.
        let mut affected: Vec<NodeId> = vec![leaf0];
        affected.extend(outcome.leaf_reinserts.iter().map(|(_, to)| *to));
        affected.extend(
            outcome
                .leaf_splits
                .iter()
                .flat_map(|split| [split.old, split.new]),
        );
        // Node-id order, like the insert path's split rebuilds: the
        // rebuild order drives the buddy allocate/free sequence and
        // therefore physical placement, which must not depend on hash
        // iteration (see `placement_determinism.rs`).
        affected.sort_unstable();
        affected.dedup();
        for leaf in affected {
            self.rebuild_unit(leaf);
        }
        // Free the units of the data pages condensation removed — also
        // in node-id order (`free` order shapes the buddy free lists and
        // thus future placements). An id a split of this same deletion
        // reused for a new data page was rebuilt above and is skipped.
        let mut orphans = outcome.removed_leaves;
        orphans.sort_unstable();
        for id in orphans {
            if self.is_data_page(id) {
                continue;
            }
            if let Some(unit) = self.units.take(id.0 as usize) {
                self.total_member_pages -= unit.member_pages_total();
                self.buddy.free(unit.extent);
                self.drop_from_buffer(unit.extent);
            }
        }
        true
    }

    fn str_install(&mut self, records: &[ObjectRecord], tiles: Vec<Tile>, params: &TilingParams) {
        debug_assert_eq!(records.len(), tiles.iter().map(Vec::len).sum::<usize>());
        let build = bulk::build_tree(self.tree.config().clone(), self.tree_region, tiles, params);
        for run in &build.level_runs {
            self.pool.disk().charge(IoKind::Write, *run, false);
        }
        self.tree = build.tree;
        // Pack one cluster unit per data page, in node-id order — the
        // same deterministic rebuild order the split/delete paths use,
        // so physical placement is a pure function of the tile
        // sequence (see `placement_determinism.rs`).
        let leaves: Vec<NodeId> = self.tree.leaves().map(|(id, _)| id).collect();
        let mut slots = Vec::with_capacity(records.len());
        for leaf in leaves {
            let objects = self.page_objects(leaf);
            let unit = self.pack_unit(&objects);
            self.total_member_pages += unit.member_pages_total();
            self.pool
                .disk()
                .charge(IoKind::Write, unit.used_extent(), false);
            slots.extend(
                objects
                    .iter()
                    .map(|&(oid, size)| (oid, ObjectSlot { leaf, size })),
            );
            self.units.set(leaf.0 as usize, unit);
        }
        self.objects = ObjectTable::from_records(slots);
        debug_assert_eq!(self.check_consistency(), Ok(()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::new_shared_pool;
    use spatialdb_disk::Disk;
    use spatialdb_rtree::validate::check_invariants;

    const SMAX: u64 = 16 * 1024; // 4 pages — small for testing

    fn org_with(n: u64, config: ClusterConfig) -> ClusterOrganization {
        let mut org = ClusterOrganization::new(new_shared_pool(Disk::with_defaults(), 512), config);
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
    fn build_consistent() {
        let org = org_with(400, ClusterConfig::plain(SMAX));
        assert_eq!(org.num_objects(), 400);
        check_invariants(org.tree()).unwrap();
        org.check_consistency().unwrap();
        // One unit per data page.
        assert_eq!(org.num_units(), org.tree().num_leaves());
    }

    #[test]
    fn cluster_split_on_smax() {
        // ~650 B objects, Smax 16 KB → ~25 objects per unit, so 400
        // objects require many cluster splits.
        let org = org_with(400, ClusterConfig::plain(SMAX));
        assert!(org.num_units() > 10, "only {} units", org.num_units());
        for (_, unit) in org.units.iter() {
            assert!(unit.packer.used_bytes() <= SMAX);
        }
    }

    #[test]
    fn plain_config_occupies_full_smax_per_unit() {
        let org = org_with(300, ClusterConfig::plain(SMAX));
        let units = org.num_units() as u64;
        assert_eq!(org.buddy.occupied_pages(), units * 4);
    }

    #[test]
    fn restricted_buddy_reduces_occupied_pages() {
        let plain = org_with(300, ClusterConfig::plain(SMAX));
        let buddy = org_with(300, ClusterConfig::restricted_buddy(SMAX));
        assert!(
            buddy.occupied_pages() < plain.occupied_pages(),
            "buddy {} !< plain {}",
            buddy.occupied_pages(),
            plain.occupied_pages()
        );
        buddy.check_consistency().unwrap();
    }

    #[test]
    fn restricted_buddy_costs_more_to_build() {
        let plain = org_with(300, ClusterConfig::plain(SMAX));
        let buddy = org_with(300, ClusterConfig::restricted_buddy(SMAX));
        assert!(
            buddy.disk().stats().io_ms > plain.disk().stats().io_ms,
            "unit moves must cost I/O"
        );
    }

    #[test]
    fn window_query_complete_reads_units_once() {
        let mut org = org_with(300, ClusterConfig::plain(SMAX));
        org.begin_query();
        let q = org.window_query(&Rect::new(0.0, 0.0, 1.0, 1.0), WindowTechnique::Complete);
        assert_eq!(q.candidates, 300);
        let stats = org.disk().stats();
        // Non-selective query: reading ≈ one request per unit (+ data
        // pages), far fewer than one per object.
        assert!(
            stats.read_requests < 300,
            "requests {}",
            stats.read_requests
        );
    }

    #[test]
    fn techniques_agree_on_candidates() {
        let window = Rect::new(0.1, 0.0, 0.6, 0.2);
        for tech in [
            WindowTechnique::Complete,
            WindowTechnique::Threshold,
            WindowTechnique::Slm,
            WindowTechnique::Optimum,
        ] {
            let mut org = org_with(400, ClusterConfig::plain(SMAX));
            org.begin_query();
            let q = org.window_query(&window, tech);
            assert!(q.candidates > 0, "{tech:?}");
        }
    }

    /// The §5.4.3 one-seek-per-cluster rule across queued requests: the
    /// SLM trace's follow-up runs stay seek-skipped when charged again
    /// (byte-identical) and when queued all at once on an arm under the
    /// elevator (seeks can only merge away, never be re-charged).
    #[test]
    fn traced_slm_runs_keep_cluster_seek_rule_under_the_scheduler() {
        use spatialdb_disk::{ArmGeometry, ArrayConfig, DiskArray, DiskParams};
        // 2.5 KB objects (~0.6 page each) in 80-page units: a thin
        // vertical slice hits one object per row, and adjacent rows sit
        // a dozen pages apart in the unit packing — gaps beyond the SLM
        // limit, so the schedule splits into several runs.
        let pool = new_shared_pool(Disk::with_defaults(), 512);
        let mut org = ClusterOrganization::new(pool, ClusterConfig::plain(320 * 1024));
        for i in 0..400u64 {
            let x = (i % 40) as f64 / 40.0;
            let y = (i / 40) as f64 / 40.0;
            org.insert(&ObjectRecord::new(
                ObjectId(i),
                Rect::new(x, y, x + 0.01, y + 0.01),
                2500,
            ));
        }
        org.flush();
        org.begin_query();
        let before = org.disk().stats();
        let mut trace = Vec::new();
        for i in 0..8u64 {
            let x = i as f64 * 0.11 + 0.005;
            let (_, t) =
                org.window_query_traced(&Rect::new(x, 0.0, x + 0.004, 1.0), WindowTechnique::Slm);
            trace.extend(t);
        }
        let delta = org.disk().stats().since(&before);
        assert_eq!(trace.len() as u64, delta.requests());
        let follow_ups = trace.iter().filter(|r| r.skip_seek).count();
        assert!(
            follow_ups > 0,
            "workload produced no multi-run SLM schedules"
        );
        // The trace carries the synchronous charges, byte for byte.
        let replay = Disk::with_defaults();
        for req in &trace {
            replay.charge(req.kind, req.run, req.skip_seek);
        }
        assert_eq!(replay.stats(), delta);
        // Queued together under the elevator: skip flags are preserved
        // (never double-charged back), page/latency counts conserved,
        // and seeks only ever merge away.
        let mut arm = DiskArray::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArrayConfig::default(),
        );
        for req in &trace {
            arm.submit(*req);
        }
        let done = arm.drain();
        assert_eq!(done.len(), trace.len());
        assert!(done
            .iter()
            .all(|c| !c.request.skip_seek || c.effective_skip_seek));
        let queued = Disk::with_defaults();
        for c in &done {
            queued.charge(c.request.kind, c.request.run, c.effective_skip_seek);
        }
        let q = queued.stats();
        assert_eq!(q.pages_read, delta.pages_read);
        assert_eq!(q.latencies, delta.latencies);
        assert!(q.seeks <= delta.seeks, "{} > {}", q.seeks, delta.seeks);
        assert!(q.io_ms <= delta.io_ms);
    }

    #[test]
    fn optimum_is_cheapest_technique() {
        let window = Rect::new(0.0, 0.0, 0.4, 0.4);
        let mut costs = Vec::new();
        for tech in [
            WindowTechnique::Complete,
            WindowTechnique::Threshold,
            WindowTechnique::Slm,
            WindowTechnique::Optimum,
        ] {
            let mut org = org_with(400, ClusterConfig::plain(SMAX));
            org.begin_query();
            let q = org.window_query(&window, tech);
            costs.push((tech, q.io_ms));
        }
        let opt = costs
            .iter()
            .find(|(t, _)| *t == WindowTechnique::Optimum)
            .unwrap()
            .1;
        for (tech, c) in &costs {
            assert!(
                opt <= *c + 1e-9,
                "optimum {opt} more expensive than {tech:?} {c}"
            );
        }
    }

    #[test]
    fn point_query_does_not_read_whole_unit() {
        let mut org = org_with(300, ClusterConfig::plain(SMAX));
        org.begin_query();
        let q = org.point_query(&Point::new(0.105, 0.005));
        assert!(q.candidates >= 1);
        // Reading one small object: leaf page + 1–2 object pages.
        assert!(q.io_ms <= 3.0 * 16.0 + 17.0, "io {}", q.io_ms);
    }

    #[test]
    fn fetch_for_join_complete_buffers_whole_unit() {
        let mut org = org_with(200, ClusterConfig::plain(SMAX));
        org.begin_query();
        let oid = ObjectId(0);
        let sibling = org
            .unit(org.objects[oid].leaf)
            .members
            .iter()
            .map(|m| m.0)
            .find(|o| *o != oid)
            .expect("unit with 2+ members");
        let needed: HashSet<ObjectId> = [oid, sibling].into_iter().collect();
        let pool = org.pool();
        org.fetch_for_join(
            oid,
            &needed,
            TransferTechnique::Complete,
            &mut pool.session(),
        );
        let before = org.disk().stats();
        // The sibling is now buffered: no further I/O.
        org.fetch_for_join(
            sibling,
            &needed,
            TransferTechnique::Complete,
            &mut pool.session(),
        );
        assert_eq!(org.disk().stats().since(&before).requests(), 0);
    }

    #[test]
    fn vector_read_keeps_less_than_read() {
        let mut a = org_with(200, ClusterConfig::plain(SMAX));
        let mut b = org_with(200, ClusterConfig::plain(SMAX));
        a.begin_query();
        b.begin_query();
        let oid = ObjectId(0);
        let needed: HashSet<ObjectId> = [oid].into_iter().collect();
        a.fetch_for_join(
            oid,
            &needed,
            TransferTechnique::Read,
            &mut a.pool().session(),
        );
        b.fetch_for_join(
            oid,
            &needed,
            TransferTechnique::VectorRead,
            &mut b.pool().session(),
        );
        let kept_a = a.pool().len();
        let kept_b = b.pool().len();
        assert!(kept_a >= kept_b);
    }

    #[test]
    #[should_panic(expected = "larger than Smax")]
    fn oversized_object_rejected() {
        let pool = new_shared_pool(Disk::with_defaults(), 64);
        let mut org = ClusterOrganization::new(pool, ClusterConfig::plain(SMAX));
        org.insert(&ObjectRecord::new(
            ObjectId(0),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            SMAX as u32 + 1,
        ));
    }

    #[test]
    fn delete_removes_object_and_rebuilds_units() {
        let mut org = org_with(300, ClusterConfig::plain(SMAX));
        for i in (0..300).step_by(3) {
            assert!(org.delete(ObjectId(i)), "delete {i}");
            org.check_consistency().unwrap();
            check_invariants(org.tree()).unwrap();
        }
        assert_eq!(org.num_objects(), 200);
        assert!(!org.delete(ObjectId(0)), "double delete");
        // Remaining objects still findable and fetchable.
        org.begin_query();
        let q = org.window_query(&Rect::new(0.0, 0.0, 1.0, 1.0), WindowTechnique::Complete);
        assert_eq!(q.candidates, 200);
    }

    #[test]
    fn delete_everything_frees_all_buddies() {
        let mut org = org_with(120, ClusterConfig::restricted_buddy(SMAX));
        for i in 0..120 {
            assert!(org.delete(ObjectId(i)));
        }
        assert_eq!(org.num_objects(), 0);
        assert_eq!(org.buddy.occupied_pages(), 0);
        assert_eq!(org.num_units(), 0);
        check_invariants(org.tree()).unwrap();
    }

    #[test]
    fn avg_stats_reasonable() {
        let org = org_with(400, ClusterConfig::plain(SMAX));
        let noe = org.avg_entries_per_page();
        assert!(noe > 2.0 && noe < 89.0, "noe {noe}");
        let nop = org.avg_pages_per_object();
        assert!((1.0..2.0).contains(&nop), "nop {nop}");
    }
}
