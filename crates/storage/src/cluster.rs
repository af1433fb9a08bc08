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
//! A unit holds its data page's objects byte-contiguous in entry order
//! (a split or deletion repacks it from the entries; an append follows
//! the entry the tree pushed last), so the entries' payloads — the
//! objects' sizes — fix every member's pages: the unit keeps no
//! per-object state. Every read places its members in one pass over the
//! data page's entries (`ClusterOrganization::placements`): queries
//! start from the descent's hits, the join from an object-table probe.
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
    BuddyAllocator, BuddyConfig, IoKind, PageRun, PoolSession, RegionId, SeekPolicy, PAGE_SIZE,
};
use spatialdb_geom::{Point, Rect};
use spatialdb_rtree::{
    bulk, CowSlab, LeafEntry, NodeId, ObjectId, RStarTree, RTreeConfig, Tile, TilingParams,
};
use std::cell::RefCell;
use std::collections::HashSet;
use std::ops::Range;

thread_local! {
    /// The calling thread's read buffers (a query's matched leaves, a
    /// unit read's wanted offsets), taken for one read and put back.
    static LEAVES: RefCell<Vec<(NodeId, Range<usize>)>> = const { RefCell::new(Vec::new()) };
    static WANTED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
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

/// One cluster unit: the physical extent (its buddy) and the bytes
/// packed into it, its data page's objects in entry order.
#[derive(Clone, Debug)]
struct ClusterUnit {
    /// The buddy currently backing the unit.
    extent: PageRun,
    packer: BytePacker,
    /// Σ placement pages over the members: the unit's share of the
    /// `nop∅` total, kept because a unit is freed or repacked after its
    /// data page's entries have changed.
    member_pages: u64,
}

impl ClusterUnit {
    /// Pack `entries` — a data page's, in entry order — into the
    /// smallest fitting buddy of `buddy` (no I/O charged here).
    fn pack(entries: &[LeafEntry], buddy: &mut BuddyAllocator) -> ClusterUnit {
        let mut packer = BytePacker::new();
        let mut member_pages = 0;
        for e in entries {
            member_pages += packer
                .place(u64::from(e.payload), PAGE_SIZE as u64)
                .num_pages;
        }
        let extent = buddy
            .alloc_for(packer.pages_used(PAGE_SIZE as u64).max(1))
            .expect("cluster split produced a unit beyond Smax");
        ClusterUnit {
            extent,
            packer,
            member_pages,
        }
    }

    fn used_pages(&self) -> u64 {
        self.packer.pages_used(PAGE_SIZE as u64)
    }

    /// The physically used part of the extent.
    fn used_extent(&self) -> PageRun {
        PageRun::new(self.extent.start, self.used_pages())
    }

    /// Absolute pages of the member placed at `placement`.
    fn run(&self, placement: Placement) -> PageRun {
        PageRun::new(self.extent.page(placement.first_page), placement.num_pages)
    }
}

/// Every entry of a data page with its object's placement in the page's
/// cluster unit (page offsets relative to the unit's start): the unit
/// holds the objects in entry order, byte-contiguous, so the payloads
/// before an entry fix its pages. The one way to find a member's pages.
fn entry_placements(entries: &[LeafEntry]) -> impl Iterator<Item = (&LeafEntry, Placement)> + '_ {
    let mut packer = BytePacker::new();
    entries
        .iter()
        .map(move |e| (e, packer.place(u64::from(e.payload), PAGE_SIZE as u64)))
}

/// The distinct page offsets of `placements` into `offsets` (cleared
/// first): the pages a unit read wants. Placements taken in entry order
/// ascend, and neighbours share at most a boundary page, so skipping
/// the offsets already taken leaves `offsets` sorted and distinct
/// without a sort.
fn wanted_offsets(placements: impl Iterator<Item = Placement>, offsets: &mut Vec<u64>) {
    offsets.clear();
    for p in placements {
        let from = offsets
            .last()
            .map_or(p.first_page, |&last| p.first_page.max(last + 1));
        offsets.extend(from..p.first_page + p.num_pages);
    }
}

// 16 bytes per `(id, data page)` pair of an `ObjectTable` bucket, four
// to a cache line; window queries never probe it.
const _: () = assert!(std::mem::size_of::<(u64, NodeId)>() == 16);

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
    /// Object → its data page (and thereby cluster unit).
    objects: ObjectTable<NodeId>,
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

    /// The placements of `hits` — entries of data page `leaf` in entry
    /// order, as [`RStarTree::window_leaves_into`] appends them — from
    /// one pass over the page's entries up to the last hit. Panics, in
    /// release builds too, on a hit out of order or not on the page.
    fn placements<'a>(
        &'a self,
        leaf: NodeId,
        hits: impl IntoIterator<Item = ObjectId> + 'a,
    ) -> impl Iterator<Item = Placement> + 'a {
        let mut placed = entry_placements(self.tree.node(leaf).leaf_entries());
        hits.into_iter().map(move |oid| {
            placed
                .find(|(e, _)| e.oid == oid)
                .unwrap_or_else(|| panic!("hit {oid} is not an entry of {leaf} in order"))
                .1
        })
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

    /// §4.2.2 step 3: append the object the tree just pushed as the last
    /// entry of `leaf` to the page's unit, moving the unit to a larger
    /// buddy when needed.
    fn append_object(&mut self, leaf: NodeId, rec: &ObjectRecord) {
        self.objects.insert(rec.oid, leaf);
        debug_assert_eq!(
            self.tree.node(leaf).leaf_entries().last().map(|e| e.oid),
            Some(rec.oid),
            "the appended object must be its data page's last entry"
        );
        if let Some(unit) = self.units.get_mut(leaf.0 as usize) {
            let old_used = unit.used_extent();
            let placement = unit
                .packer
                .place(u64::from(rec.size_bytes), PAGE_SIZE as u64);
            unit.member_pages += placement.num_pages;
            self.total_member_pages += placement.num_pages;
            let needed = unit.used_pages();
            if needed <= unit.extent.len {
                // Fits: write the object's pages (one request).
                self.pool
                    .disk()
                    .charge(IoKind::Write, unit.run(placement), false);
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
            let unit = ClusterUnit::pack(self.tree.node(leaf).leaf_entries(), &mut self.buddy);
            self.total_member_pages += unit.member_pages;
            self.pool
                .disk()
                .charge(IoKind::Write, unit.used_extent(), false);
            self.units.set(leaf.0 as usize, unit);
        }
    }

    /// Rebuild one data page's cluster unit from the tree's current
    /// entry list (split and deletion paths): read the old unit if it
    /// existed, pack the current entries, write the new unit, free the
    /// old buddy.
    fn rebuild_unit(&mut self, leaf: NodeId) {
        if !self.is_data_page(leaf) {
            return;
        }
        let old = self.units.take(leaf.0 as usize);
        if let Some(u) = &old {
            self.pool
                .disk()
                .charge(IoKind::Read, u.used_extent(), false);
            self.total_member_pages -= u.member_pages;
        }
        let entries = self.tree.node(leaf).leaf_entries();
        if !entries.is_empty() {
            let unit = ClusterUnit::pack(entries, &mut self.buddy);
            self.total_member_pages += unit.member_pages;
            self.pool
                .disk()
                .charge(IoKind::Write, unit.used_extent(), false);
            for e in entries {
                self.objects.update(e.oid, |_| leaf);
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
        let node = self.tree.node(leaf);
        let placements = self.placements(leaf, hits.iter().map(|h| h.oid));
        let used = unit.used_extent();
        let technique = match technique {
            WindowTechnique::Complete => TransferTechnique::Complete,
            WindowTechnique::Slm => TransferTechnique::Read,
            WindowTechnique::Optimum => TransferTechnique::Optimum,
            WindowTechnique::Threshold => {
                let overlap = node.mbr().overlap_fraction(window);
                let t = self.pool.disk().params().geometric_threshold(
                    used.len,
                    self.avg_entries_per_page(),
                    self.avg_pages_per_object(),
                );
                if overlap >= t {
                    TransferTechnique::Complete
                } else {
                    // Page by page (§5.4.1's `t_page`): one request per
                    // object, one seek per cluster unit.
                    let mut initial_seek = true;
                    for p in placements {
                        let seek = SeekPolicy::WithinCluster { initial_seek };
                        initial_seek &= !session.read_run(unit.run(p), seek).issued_io();
                    }
                    return;
                }
            }
        };
        wanted_offsets(placements, offsets);
        session.read_extent(used, offsets, technique);
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
            self.objects
                .insert(rec.oid, outcome.leaf.expect("insert without target leaf"));
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
        let (mut leaves, mut offsets) = (LEAVES.take(), WANTED.take());
        self.tree
            .window_leaves_into(window, &mut session, out, &mut leaves);
        for (leaf, hits) in &leaves {
            self.transfer_for_window(
                *leaf,
                &out[hits.clone()],
                window,
                technique,
                &mut offsets,
                &mut session,
            );
        }
        LEAVES.set(leaves);
        WANTED.set(offsets);
        // The entry's payload is the object's exact size.
        out.iter().map(|e| u64::from(e.payload)).sum()
    }

    /// Selective access (§5.5): each hit's own pages, one request each,
    /// in descent order; no unit is read whole.
    fn point_query_into(&self, point: &Point, out: &mut Vec<LeafEntry>) -> u64 {
        let mut session = self.pool.session();
        let mut leaves = LEAVES.take();
        let at = Rect::new(point.x, point.y, point.x, point.y);
        self.tree
            .window_leaves_into(&at, &mut session, out, &mut leaves);
        for (leaf, hits) in &leaves {
            let unit = self.unit(*leaf);
            for p in self.placements(*leaf, out[hits.clone()].iter().map(|e| e.oid)) {
                session.read_run(unit.run(p), SeekPolicy::PerRequest);
            }
        }
        LEAVES.set(leaves);
        out.iter().map(|e| u64::from(e.payload)).sum()
    }

    /// The join's object transfer (§6.2): fetch `oid`, batching the
    /// other candidates of its cluster unit according to the technique.
    /// `needed` is the join's whole candidate set for this operand,
    /// built once from the MBR join and never pruned, so *read*, *vector
    /// read* and *optimum* also want the pages of candidates the join
    /// has already processed; *complete* does not read it. An object
    /// that is already buffered is only touched; only a unit read under
    /// *read*, *vector read* or *optimum* places the page's candidates
    /// beside it.
    fn fetch_for_join(
        &self,
        oid: ObjectId,
        needed: &HashSet<ObjectId>,
        technique: TransferTechnique,
        session: &mut PoolSession<'_>,
    ) {
        let leaf = self.objects[oid];
        let unit = self.unit(leaf);
        let own = self.placements(leaf, [oid]).next().expect("one hit");
        // *Complete*'s unit read probes the object's pages itself.
        let batch = technique.reads_candidate_set();
        if batch && session.touch_if_resident(unit.run(own).pages()) {
            return;
        }
        let mut wanted = WANTED.take();
        if batch {
            // Only a unit read looks up the candidates beside the
            // object: most fetches find their object buffered.
            let entries = self.tree.node(leaf).leaf_entries().iter();
            let candidates = entries
                .filter(|e| e.oid == oid || needed.contains(&e.oid))
                .map(|e| e.oid);
            wanted_offsets(self.placements(leaf, candidates), &mut wanted);
        } else {
            wanted_offsets(std::iter::once(own), &mut wanted);
        }
        session.read_extent(unit.used_extent(), &wanted, technique);
        WANTED.set(wanted);
    }

    /// Structural self-check: every object is in exactly one unit, units
    /// correspond 1:1 to data pages, each unit holds exactly its data
    /// page's payload bytes and placement pages, placements are within
    /// extents, and unit payloads respect `Smax`.
    fn check_consistency(&self) -> Result<(), String> {
        let mut seen = HashSet::new();
        let mut member_pages = 0;
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
            let bytes: u64 = entries.iter().map(|e| u64::from(e.payload)).sum();
            let pages: u64 = entry_placements(entries).map(|(_, p)| p.num_pages).sum();
            if (unit.packer.used_bytes(), unit.member_pages) != (bytes, pages) {
                return Err(format!(
                    "unit {leaf} holds {} bytes on {} member pages but its data page \
                     packs to {bytes} bytes on {pages}",
                    unit.packer.used_bytes(),
                    unit.member_pages
                ));
            }
            member_pages += pages;
            for e in entries {
                match self.objects.get(e.oid) {
                    Some(&at) if at == leaf => {}
                    other => {
                        return Err(format!(
                            "object {} in unit {leaf} is recorded at {other:?}",
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
            if entries.len() > 1 && unit.packer.used_bytes() > self.config.smax_bytes {
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
        if member_pages != self.total_member_pages {
            return Err(format!(
                "units hold {member_pages} member pages but the total says {}",
                self.total_member_pages
            ));
        }
        Ok(())
    }

    fn occupied_pages(&self) -> u64 {
        self.tree.allocated_pages() + self.buddy.occupied_pages()
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
        let Some(&leaf0) = self.objects.get(oid) else {
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
                self.total_member_pages -= unit.member_pages;
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
            let entries = self.tree.node(leaf).leaf_entries();
            let unit = ClusterUnit::pack(entries, &mut self.buddy);
            self.total_member_pages += unit.member_pages;
            self.pool
                .disk()
                .charge(IoKind::Write, unit.used_extent(), false);
            slots.extend(entries.iter().map(|e| (e.oid, leaf)));
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
    use spatialdb_disk::{Disk, PageRequest};
    use spatialdb_geom::rng::SmallRng;
    use spatialdb_rtree::validate::check_invariants;
    use spatialdb_rtree::NoIo;
    use std::collections::BTreeMap;

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
        assert_eq!(org.tree().len(), 400);
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
            let window = Rect::new(x, 0.0, x + 0.004, 1.0);
            let (_, t) = org
                .disk()
                .traced(|| org.window_query(&window, WindowTechnique::Slm));
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
            .tree()
            .node(org.objects[oid])
            .leaf_entries()
            .iter()
            .map(|e| e.oid)
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
        assert_eq!(org.tree().len(), 200);
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
        assert_eq!(org.tree().len(), 0);
        org.check_consistency().unwrap();
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

    /// Every unit's placements tile its packed bytes contiguously in
    /// entry order, and every member run lies inside the used extent.
    fn assert_units_packed_in_entry_order(org: &ClusterOrganization) {
        let page = PAGE_SIZE as u64;
        for (leaf, unit) in org.units.iter() {
            let entries = org.tree.node(NodeId(leaf as u32)).leaf_entries();
            let used = unit.used_extent();
            let mut start = 0;
            for (e, p) in entry_placements(entries) {
                let end = start + u64::from(e.payload);
                let pages = (p.first_page, p.first_page + p.num_pages);
                assert_eq!(pages, (start / page, end.div_ceil(page)), "{}", e.oid);
                let run = unit.run(p);
                assert_eq!(run.start.region, used.start.region);
                assert!(run.start.offset >= used.start.offset);
                assert!(run.start.offset + run.len <= used.start.offset + used.len);
                start = end;
            }
            assert_eq!(start, unit.packer.used_bytes(), "unit {leaf}");
        }
    }

    /// `org` answers a window and a point query like a brute-force scan
    /// of `live` (id → MBR); returns the point.
    fn assert_answers(
        org: &ClusterOrganization,
        live: &BTreeMap<u64, Rect>,
        rng: &mut SmallRng,
        technique: WindowTechnique,
    ) -> Point {
        let (x, y) = (rng.next_f64(), rng.next_f64());
        let side = rng.gen_range(0.0..0.4);
        let window = Rect::new(x, y, x + side, y + side);
        let point = Point::new(x, y);
        let expect = |q: &Rect| -> Vec<u64> {
            let hits = live.iter().filter(|(_, mbr)| mbr.intersects(q));
            hits.map(|(oid, _)| *oid).collect()
        };
        let sorted = |out: &[LeafEntry]| -> Vec<u64> {
            let mut ids: Vec<u64> = out.iter().map(|e| e.oid.0).collect();
            ids.sort_unstable();
            ids
        };
        let mut out = Vec::new();
        org.window_query_into(&window, technique, &mut out);
        assert_eq!(sorted(&out), expect(&window), "{technique:?} {window:?}");
        org.point_query_into(&point, &mut out);
        assert_eq!(sorted(&out), expect(&Rect::new(x, y, x, y)), "{point:?}");
        point
    }

    /// The unit reads of a point query on a cold unit region, against
    /// an oracle built from the tree: each hit's own run, in descent
    /// order, one request with its own seek (`SeekPolicy::PerRequest`).
    /// The hit's pages follow from the payloads before it in its data
    /// page (the unit packs them byte-contiguous in entry order); a page
    /// an earlier hit of the query already read is a buffer hit. Returns
    /// the number of requests compared.
    fn assert_point_reads(org: &mut ClusterOrganization, point: Point) -> usize {
        org.begin_query();
        let at = Rect::new(point.x, point.y, point.x, point.y);
        let (mut hits, mut leaves) = (Vec::new(), Vec::new());
        org.tree
            .window_leaves_into(&at, &mut NoIo, &mut hits, &mut leaves);
        let page = PAGE_SIZE as u64;
        let mut read = HashSet::new();
        let mut oracle = Vec::new();
        for (leaf, range) in &leaves {
            let entries = org.tree.node(*leaf).leaf_entries();
            let extent = org.unit(*leaf).extent;
            for h in &hits[range.clone()] {
                let i = entries.iter().position(|e| e.oid == h.oid).unwrap();
                let start: u64 = entries[..i].iter().map(|e| u64::from(e.payload)).sum();
                let end = start + u64::from(h.payload);
                let fresh: Vec<u64> = (start / page..end.div_ceil(page))
                    .filter(|&p| read.insert(p + extent.start.offset))
                    .collect();
                if let Some(&first) = fresh.first() {
                    oracle.push(PageRequest {
                        kind: IoKind::Read,
                        run: PageRun::new(extent.page(first), fresh.len() as u64),
                        skip_seek: false,
                    });
                }
            }
        }
        let mut out = Vec::new();
        let (_, trace) = org.disk().traced(|| org.point_query_into(&point, &mut out));
        let units = org.buddy.region();
        let reads: Vec<PageRequest> = trace
            .into_iter()
            .filter(|r| r.run.start.region == units)
            .collect();
        assert_eq!(out, hits, "{point:?}");
        assert_eq!(reads, oracle, "{point:?}");
        reads.len()
    }

    /// A seeded insert/delete stream on a small-`Smax` organization
    /// (≈ 2 KB objects in 16 KB units): cluster splits, condensation
    /// reinserts (a data page of fewer than 35 entries condenses on
    /// every delete) and, under the restricted buddy system, unit moves.
    /// After every operation the units must still be packed in entry
    /// order, a point query must read what the tree says its hits
    /// occupy, and a snapshot taken along the way must keep answering
    /// while the organization changes under it.
    fn churn(seed: u64, ops: usize, config: ClusterConfig) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = new_shared_pool(Disk::with_defaults(), 64);
        let mut org = ClusterOrganization::new(pool, config);
        let mut live: BTreeMap<u64, Rect> = BTreeMap::new();
        let mut frozen: Option<(ClusterOrganization, BTreeMap<u64, Rect>)> = None;
        let techniques = [
            WindowTechnique::Complete,
            WindowTechnique::Threshold,
            WindowTechnique::Slm,
            WindowTechnique::Optimum,
        ];
        let (mut next_id, mut splits, mut condensed, mut moves) = (0, 0, 0, 0);
        let mut point_reads = 0;
        for op in 0..ops {
            let (units, occupied) = (org.num_units(), org.buddy.occupied_pages());
            if live.len() < 40 || (live.len() < 400 && rng.gen_bool(0.6)) {
                let (x, y) = (rng.next_f64(), rng.next_f64());
                let (w, h) = (rng.gen_range(0.0..0.05), rng.gen_range(0.0..0.05));
                let mbr = Rect::new(x, y, x + w, y + h);
                let size = rng.gen_range(1..4_000u64) as u32;
                org.insert(&ObjectRecord::new(ObjectId(next_id), mbr, size));
                live.insert(next_id, mbr);
                next_id += 1;
                splits += usize::from(org.num_units() > units);
                moves +=
                    usize::from(org.num_units() == units && org.buddy.occupied_pages() > occupied);
            } else {
                let victim = *live.keys().nth(rng.gen_range(0..live.len())).unwrap();
                assert!(org.delete(ObjectId(victim)));
                live.remove(&victim);
                condensed += usize::from(org.num_units() < units);
            }
            org.check_consistency()
                .unwrap_or_else(|e| panic!("seed {seed} op {op}: {e}"));
            assert_units_packed_in_entry_order(&org);
            let point = assert_answers(&org, &live, &mut rng, techniques[op % 4]);
            point_reads += assert_point_reads(&mut org, point);
            // And at a live object's centre, which hits at least it.
            let centre = live.values().nth(op % live.len()).unwrap().center();
            point_reads += assert_point_reads(&mut org, centre);
            if op % 97 == 0 {
                if let Some((snap, snap_live)) = &mut frozen {
                    snap.check_consistency().unwrap();
                    assert_units_packed_in_entry_order(snap);
                    let point = assert_answers(snap, snap_live, &mut rng, techniques[op % 4]);
                    assert_point_reads(snap, point);
                }
                frozen = Some((org.clone(), live.clone()));
            }
        }
        check_invariants(org.tree()).unwrap();
        assert!(splits > 10, "seed {seed}: only {splits} cluster splits");
        assert!(
            condensed > 10,
            "seed {seed}: only {condensed} condensations"
        );
        if org.config.buddy != BuddyConfig::fixed(4) {
            assert!(moves > 10, "seed {seed}: only {moves} unit moves");
        }
        assert!(
            point_reads > ops,
            "seed {seed}: only {point_reads} point reads"
        );
    }

    #[test]
    fn point_reads_follow_the_descent_across_data_pages() {
        // Squares around the centre, each holding it: a point query
        // there hits objects on many data pages.
        let pool = new_shared_pool(Disk::with_defaults(), 64);
        let mut org = ClusterOrganization::new(pool, ClusterConfig::plain(SMAX));
        let mut rng = SmallRng::seed_from_u64(12);
        for i in 0..300u64 {
            let r = rng.gen_range(0.02..0.5);
            let (x, y) = (rng.gen_range(0.49..0.51), rng.gen_range(0.49..0.51));
            let mbr = Rect::new(x - r, y - r, x + r, y + r);
            let size = rng.gen_range(1..4_000u64) as u32;
            org.insert(&ObjectRecord::new(ObjectId(i), mbr, size));
        }
        let centre = Point::new(0.5, 0.5);
        let (mut hits, mut leaves) = (Vec::new(), Vec::new());
        let at = Rect::new(0.5, 0.5, 0.5, 0.5);
        org.tree
            .window_leaves_into(&at, &mut NoIo, &mut hits, &mut leaves);
        assert!(leaves.len() > 10, "{} data pages", leaves.len());
        assert!(assert_point_reads(&mut org, centre) > 100);
        for i in (0..300).step_by(4) {
            assert!(org.delete(ObjectId(i)));
        }
        assert!(assert_point_reads(&mut org, centre) > 50);
    }

    #[test]
    fn churn_keeps_units_packed_in_entry_order() {
        for seed in 0..3 {
            churn(seed, 600, ClusterConfig::plain(SMAX));
            churn(seed, 600, ClusterConfig::restricted_buddy(SMAX));
        }
    }

    #[test]
    #[ignore = "long sweep (≈ 35 s in release)"]
    fn churn_sweep() {
        for seed in 100..160 {
            churn(seed, 3_000, ClusterConfig::plain(SMAX));
            churn(seed, 3_000, ClusterConfig::restricted_buddy(SMAX));
        }
    }
}
