//! The R\*-tree proper: structure, insertion with forced reinsert,
//! splitting, and deletion.

use crate::config::{RTreeConfig, MIN_FILL_RATIO};
use crate::entry::{DirEntry, LeafEntry, ObjectId, SplitItem};
use crate::io::NodeIo;
use crate::node::{Node, NodeId, NodeKind, NodeStore};
use crate::split::rstar_split;
use spatialdb_disk::{ExtentAllocator, PageId, RegionId};
use spatialdb_geom::{Point, Rect};

/// Candidates the leaf-level ChooseSubtree evaluates by overlap
/// enlargement: the entries of least area enlargement (\[BKSS90\]'s
/// prefilter for large nodes).
const PREFILTER: usize = 32;

/// A data-page split, reported to the storage layer.
///
/// The cluster organization reacts to this event by splitting the
/// corresponding cluster unit into exactly two units (§4.2.2 step 4),
/// distributing the objects according to the reported entry groups.
#[derive(Clone, Debug)]
pub struct LeafSplit {
    /// The overflowing data page (keeps `old_oids`).
    pub old: NodeId,
    /// The newly created data page (receives `new_oids`).
    pub new: NodeId,
    /// Objects remaining in `old` after the split.
    pub old_oids: Vec<ObjectId>,
    /// Objects moved to `new`.
    pub new_oids: Vec<ObjectId>,
}

/// Everything the storage layer needs to know about one insertion.
#[derive(Clone, Debug, Default)]
pub struct InsertOutcome {
    /// The data page the new entry was placed into (before any split).
    pub leaf: Option<NodeId>,
    /// Data-page splits in the order they occurred.
    pub leaf_splits: Vec<LeafSplit>,
    /// Objects whose entries were moved between data pages by forced
    /// reinsert (empty when leaf reinsert is disabled). Pairs of
    /// `(object, data page it landed in)`.
    pub leaf_reinserts: Vec<(ObjectId, NodeId)>,
}

/// Everything the storage layer needs to know about one deletion.
#[derive(Clone, Debug, Default)]
pub struct DeleteOutcome {
    /// `true` if the entry was found and removed.
    pub removed: bool,
    /// Data page the entry was removed from.
    pub leaf: Option<NodeId>,
    /// Objects relocated to other data pages by tree condensation.
    pub leaf_reinserts: Vec<(ObjectId, NodeId)>,
    /// Data-page splits caused by re-insertions during condensation.
    pub leaf_splits: Vec<LeafSplit>,
    /// Data pages condensation removed from the tree (under-full pages
    /// whose entries were reinserted), in removal order. A later split
    /// of the same deletion may already have reused such an id for a
    /// new node — the storage layer checks
    /// [`contains_node`](RStarTree::contains_node) before treating one
    /// as gone.
    pub removed_leaves: Vec<NodeId>,
}

/// Per-insertion context: which levels already performed a forced
/// reinsert, and the accumulated storage-layer events.
#[derive(Default)]
struct InsertCtx {
    reinserted_levels: u64,
    leaf_splits: Vec<LeafSplit>,
    leaf_reinserts: Vec<(ObjectId, NodeId)>,
}

impl InsertCtx {
    fn level_done(&self, level: u32) -> bool {
        self.reinserted_levels & (1 << level.min(63)) != 0
    }

    fn mark_level(&mut self, level: u32) {
        self.reinserted_levels |= 1 << level.min(63);
    }
}

enum AnyEntry {
    Leaf(LeafEntry),
    Dir(DirEntry),
}

impl AnyEntry {
    fn rect(&self) -> Rect {
        match self {
            AnyEntry::Leaf(e) => e.mbr,
            AnyEntry::Dir(e) => e.mbr,
        }
    }
}

/// Remove from `entries` the `p` whose centres lie farthest from
/// `center`, by descending index (each `swap_remove` moves only an entry
/// that stays), and return them wrapped by `wrap`.
fn remove_farthest<T: SplitItem>(
    entries: &mut Vec<T>,
    p: usize,
    center: &Point,
    wrap: impl Fn(T) -> AnyEntry,
) -> Vec<AnyEntry> {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        let da = entries[a].rect().center().distance_sq(center);
        let db = entries[b].rect().center().distance_sq(center);
        db.total_cmp(&da)
    });
    let mut far: Vec<usize> = order[..p].to_vec();
    far.sort_unstable_by(|a, b| b.cmp(a));
    far.iter().map(|&i| wrap(entries.swap_remove(i))).collect()
}

/// The R\*-tree. See the crate documentation for the algorithmic
/// provenance.
///
/// Cloning a tree is cheap: the node store is copy-on-write (see
/// [`NodeStore`]), so a clone shares every node with the original and
/// either side shadow-copies a node only when it first mutates it.
/// This is how the storage organizations take consistent snapshots
/// for the non-blocking read path.
#[derive(Clone, Debug)]
pub struct RStarTree {
    config: RTreeConfig,
    store: NodeStore,
    root: NodeId,
    pages: ExtentAllocator,
    len: usize,
}

impl RStarTree {
    /// Create an empty tree whose nodes live in `region` of the simulated
    /// disk.
    pub fn new(config: RTreeConfig, region: RegionId) -> Self {
        config.validate();
        let mut pages = ExtentAllocator::new(region);
        let mut store = NodeStore::new();
        let root = store.insert(Node {
            kind: NodeKind::Leaf(Vec::new()),
            page: pages.alloc_page(),
            parent: None,
            level: 0,
        });
        RStarTree {
            config,
            store,
            root,
            pages,
            len: 0,
        }
    }

    /// Assemble a tree from pre-built parts (the bottom-up bulk loader
    /// in [`crate::bulk`]). The caller guarantees the structural
    /// invariants; debug builds re-check them in `bulk`'s tests.
    pub(crate) fn from_parts(
        config: RTreeConfig,
        store: NodeStore,
        root: NodeId,
        pages: ExtentAllocator,
        len: usize,
    ) -> Self {
        RStarTree {
            config,
            store,
            root,
            pages,
            len,
        }
    }

    /// The disk region the tree's nodes are allocated in.
    #[inline]
    pub fn region(&self) -> RegionId {
        self.pages.region()
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Number of stored leaf entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tree stores no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Height of the tree (1 for a leaf-only tree).
    pub fn height(&self) -> u32 {
        self.store.get(self.root).level + 1
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        self.store.get(id)
    }

    /// Disk page of a node.
    #[inline]
    pub fn node_page(&self, id: NodeId) -> PageId {
        self.store.get(id).page
    }

    /// `true` if `id` refers to a live node (nodes disappear when tree
    /// condensation after a deletion removes them).
    #[inline]
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.store.contains(id)
    }

    /// Total number of live nodes (pages occupied by the tree).
    pub fn num_nodes(&self) -> usize {
        self.store.len()
    }

    /// Number of data pages.
    pub fn num_leaves(&self) -> usize {
        self.store.iter().filter(|(_, n)| n.is_leaf()).count()
    }

    /// Iterate over the data pages.
    pub fn leaves(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.store.iter().filter(|(_, n)| n.is_leaf())
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.store.iter()
    }

    /// MBR of the whole tree (empty when the tree is empty).
    pub fn mbr(&self) -> Rect {
        self.store.get(self.root).mbr()
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Insert a leaf entry, performing the complete R\*-tree insertion
    /// algorithm (ChooseSubtree, forced reinsert, splits). Node accesses
    /// are reported to `io`.
    pub fn insert(&mut self, entry: LeafEntry, io: &mut impl NodeIo) -> InsertOutcome {
        let mut ctx = InsertCtx::default();
        let leaf = self.choose_subtree(&entry.mbr, 0, io);
        self.place_in_node(leaf, AnyEntry::Leaf(entry), io);
        self.len += 1;
        if self.is_overflowing(leaf) {
            self.overflow_treatment(leaf, &mut ctx, io);
        }
        InsertOutcome {
            leaf: Some(leaf),
            leaf_splits: ctx.leaf_splits,
            leaf_reinserts: ctx.leaf_reinserts,
        }
    }

    /// ChooseSubtree (\[BKSS90\] §4.1): descend from the root to a node at
    /// `target_level`, charging a read per visited node.
    fn choose_subtree(&self, rect: &Rect, target_level: u32, io: &mut impl NodeIo) -> NodeId {
        let mut cur = self.root;
        io.read(self.store.get(cur).page);
        while self.store.get(cur).level > target_level {
            let node = self.store.get(cur);
            let entries = node.dir_entries();
            let children_are_targets = node.level == target_level + 1;
            let idx = if children_are_targets && target_level == 0 {
                Self::choose_least_overlap(entries, rect)
            } else {
                Self::choose_least_enlargement(entries, rect)
            };
            cur = entries[idx].child;
            io.read(self.store.get(cur).page);
        }
        cur
    }

    /// Least area enlargement, ties by least area.
    fn choose_least_enlargement(entries: &[DirEntry], rect: &Rect) -> usize {
        let mut best = 0usize;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, e) in entries.iter().enumerate() {
            let enl = e.mbr.enlargement(rect);
            let area = e.mbr.area();
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    /// Least overlap enlargement (leaf-level ChooseSubtree), with the
    /// \[BKSS90\] top-32 area-enlargement prefilter; ties by least area
    /// enlargement, then least area.
    ///
    /// The candidates are the [`PREFILTER`] entries of least enlargement
    /// (ties by entry index, the order of a stable sort), or every entry
    /// in index order when there are no more; the first of least
    /// `(overlap delta, enlargement, area)` wins. Each enlargement is
    /// computed once, into a fixed array.
    ///
    /// A candidate that contains `rect` has the key `(0, 0, area)`
    /// exactly: its union with `rect` is its own rectangle (min and max
    /// are exact), so every overlap term and the enlargement cancel. Every
    /// other candidate's overlap delta and enlargement are ≥ 0 — the union
    /// contains the entry's rectangle, and rounding is monotone — so with
    /// a containing candidate present, one of enlargement > 0 cannot have
    /// the least key, and its loop over the other entries is skipped. One
    /// of zero enlargement that does not contain `rect` (a degenerate
    /// rectangle) is still evaluated.
    fn choose_least_overlap(entries: &[DirEntry], rect: &Rect) -> usize {
        // `(enlargement, entry index)`, ascending by both when pruned.
        let mut kept = [(0.0_f64, 0_usize); PREFILTER];
        let mut len = 0;
        for (i, entry) in entries.iter().enumerate() {
            let enlargement = entry.mbr.enlargement(rect);
            let at = if entries.len() <= PREFILTER {
                len
            } else {
                kept[..len].partition_point(|(e, _)| e.total_cmp(&enlargement).is_le())
            };
            if at < PREFILTER {
                let end = len.min(PREFILTER - 1);
                kept.copy_within(at..end, at + 1);
                kept[at] = (enlargement, i);
                len = end + 1;
            }
        }
        let candidates = &kept[..len];
        let contained = candidates
            .iter()
            .any(|&(_, i)| entries[i].mbr.contains_rect(rect));
        let mut best = candidates[0].1;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &(enlargement, i) in candidates {
            if contained && enlargement > 0.0 {
                continue;
            }
            let mbr = &entries[i].mbr;
            let enlarged = mbr.union(rect);
            let mut overlap_delta = 0.0;
            for (j, other) in entries.iter().enumerate() {
                if j == i {
                    continue;
                }
                overlap_delta += enlarged.overlap_area(&other.mbr) - mbr.overlap_area(&other.mbr);
            }
            let key = (overlap_delta, enlargement, mbr.area());
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    fn place_in_node(&mut self, node_id: NodeId, item: AnyEntry, io: &mut impl NodeIo) {
        let page = self.store.get(node_id).page;
        match item {
            AnyEntry::Leaf(e) => {
                self.store.get_mut(node_id).leaf_entries_mut().push(e);
            }
            AnyEntry::Dir(e) => {
                let child = e.child;
                self.store.get_mut(node_id).dir_entries_mut().push(e);
                self.store.get_mut(child).parent = Some(node_id);
            }
        }
        io.modify(page);
        self.update_path_mbrs(node_id, io);
    }

    /// Recompute the cached MBRs on the path from `node_id` to the root,
    /// charging a modify for every parent whose dir entry changed.
    fn update_path_mbrs(&mut self, node_id: NodeId, io: &mut impl NodeIo) {
        let mut cur = node_id;
        while let Some(parent) = self.store.get(cur).parent {
            let child_mbr = self.store.get(cur).mbr();
            let idx = self.child_index(parent, cur);
            let parent_node = self.store.get_mut(parent);
            let slot = &mut parent_node.dir_entries_mut()[idx];
            if slot.mbr == child_mbr {
                break;
            }
            slot.mbr = child_mbr;
            let page = parent_node.page;
            io.modify(page);
            cur = parent;
        }
    }

    fn child_index(&self, parent: NodeId, child: NodeId) -> usize {
        self.store
            .get(parent)
            .dir_entries()
            .iter()
            .position(|e| e.child == child)
            .expect("child not found in parent")
    }

    fn is_overflowing(&self, node_id: NodeId) -> bool {
        let node = self.store.get(node_id);
        if node.len() > self.config.max_entries {
            return true;
        }
        if node.is_leaf() {
            if let Some(limit) = self.config.leaf_payload_limit {
                return node.payload() > limit;
            }
        }
        false
    }

    fn overflow_treatment(&mut self, node_id: NodeId, ctx: &mut InsertCtx, io: &mut impl NodeIo) {
        let node = self.store.get(node_id);
        let level = node.level;
        let is_root = node.parent.is_none();
        let reinsert_allowed = level > 0 || self.config.leaf_reinsert_enabled;
        if !is_root && reinsert_allowed && !ctx.level_done(level) && node.len() > 1 {
            ctx.mark_level(level);
            self.forced_reinsert(node_id, ctx, io);
        } else {
            self.split_node(node_id, ctx, io);
        }
    }

    /// Forced reinsert (\[BKSS90\] §4.3): remove the `p` entries farthest
    /// from the node centre and reinsert them closest-first.
    fn forced_reinsert(&mut self, node_id: NodeId, ctx: &mut InsertCtx, io: &mut impl NodeIo) {
        let (level, page, center) = {
            let node = self.store.get(node_id);
            (node.level, node.page, node.mbr().center())
        };
        let p = self.config.reinsert_count(self.store.get(node_id).len());
        let removed = match &mut self.store.get_mut(node_id).kind {
            NodeKind::Leaf(entries) => remove_farthest(entries, p, &center, AnyEntry::Leaf),
            NodeKind::Dir(entries) => remove_farthest(entries, p, &center, AnyEntry::Dir),
        };
        io.modify(page);
        self.update_path_mbrs(node_id, io);
        // Close reinsert: insert the entry closest to the centre first.
        let mut ordered = removed;
        ordered.sort_by(|a, b| {
            let da = a.rect().center().distance_sq(&center);
            let db = b.rect().center().distance_sq(&center);
            da.total_cmp(&db)
        });
        for item in ordered {
            self.insert_at_level(item, level, ctx, io);
        }
        // A payload-overflowing node can remain over the limit even after
        // 30% of its entries left (the removed entries may have settled
        // elsewhere). Split it now — the level is already marked, so this
        // cannot recurse into another reinsert.
        if self.is_overflowing(node_id) {
            self.split_node(node_id, ctx, io);
        }
    }

    fn insert_at_level(
        &mut self,
        item: AnyEntry,
        level: u32,
        ctx: &mut InsertCtx,
        io: &mut impl NodeIo,
    ) {
        let rect = item.rect();
        let host_level = match item {
            AnyEntry::Leaf(_) => 0,
            AnyEntry::Dir(_) => level,
        };
        let target = self.choose_subtree(&rect, host_level, io);
        if let AnyEntry::Leaf(e) = &item {
            ctx.leaf_reinserts.push((e.oid, target));
        }
        self.place_in_node(target, item, io);
        if self.is_overflowing(target) {
            self.overflow_treatment(target, ctx, io);
        }
    }

    fn split_node(&mut self, node_id: NodeId, ctx: &mut InsertCtx, io: &mut impl NodeIo) {
        let (level, parent, page) = {
            let n = self.store.get(node_id);
            (n.level, n.parent, n.page)
        };
        if self.store.get(node_id).len() < 2 {
            // A single entry cannot be split (single object larger than
            // the payload limit); the storage layer prevents this by
            // routing oversized objects to an overflow area.
            return;
        }
        let new_page = self.pages.alloc_page();
        let (new_kind, split_event) = match &self.store.get(node_id).kind {
            NodeKind::Leaf(entries) => {
                let m = self.config.min_entries_for(entries.len());
                let d = rstar_split(entries, m);
                let first: Vec<LeafEntry> = d.first.iter().map(|&i| entries[i]).collect();
                let second: Vec<LeafEntry> = d.second.iter().map(|&i| entries[i]).collect();
                let event = LeafSplit {
                    old: node_id,
                    new: NodeId(u32::MAX), // patched below
                    old_oids: first.iter().map(|e| e.oid).collect(),
                    new_oids: second.iter().map(|e| e.oid).collect(),
                };
                self.store.get_mut(node_id).kind = NodeKind::Leaf(first);
                (NodeKind::Leaf(second), Some(event))
            }
            NodeKind::Dir(entries) => {
                let m = self.config.min_entries_for(entries.len());
                let d = rstar_split(entries, m);
                let first: Vec<DirEntry> = d.first.iter().map(|&i| entries[i]).collect();
                let second: Vec<DirEntry> = d.second.iter().map(|&i| entries[i]).collect();
                self.store.get_mut(node_id).kind = NodeKind::Dir(first);
                (NodeKind::Dir(second), None)
            }
        };
        let new_id = self.store.insert(Node {
            kind: new_kind,
            page: new_page,
            parent,
            level,
        });
        // Re-parent the children that moved to the new node.
        if let NodeKind::Dir(entries) = &self.store.get(new_id).kind {
            let children: Vec<NodeId> = entries.iter().map(|e| e.child).collect();
            for c in children {
                self.store.get_mut(c).parent = Some(new_id);
            }
        }
        if let Some(mut ev) = split_event {
            ev.new = new_id;
            ctx.leaf_splits.push(ev);
        }
        io.modify(page);
        io.fresh(new_page);

        match parent {
            None => {
                // Root split: grow the tree by one level.
                let root_page = self.pages.alloc_page();
                let old_mbr = self.store.get(node_id).mbr();
                let new_mbr = self.store.get(new_id).mbr();
                let root_id = self.store.insert(Node {
                    kind: NodeKind::Dir(vec![
                        DirEntry {
                            mbr: old_mbr,
                            child: node_id,
                        },
                        DirEntry {
                            mbr: new_mbr,
                            child: new_id,
                        },
                    ]),
                    page: root_page,
                    parent: None,
                    level: level + 1,
                });
                self.store.get_mut(node_id).parent = Some(root_id);
                self.store.get_mut(new_id).parent = Some(root_id);
                self.root = root_id;
                io.fresh(root_page);
            }
            Some(parent_id) => {
                let old_mbr = self.store.get(node_id).mbr();
                let new_mbr = self.store.get(new_id).mbr();
                let idx = self.child_index(parent_id, node_id);
                let parent_page = {
                    let pn = self.store.get_mut(parent_id);
                    pn.dir_entries_mut()[idx].mbr = old_mbr;
                    pn.dir_entries_mut().push(DirEntry {
                        mbr: new_mbr,
                        child: new_id,
                    });
                    pn.page
                };
                io.modify(parent_page);
                self.update_path_mbrs(parent_id, io);
                if self.is_overflowing(parent_id) {
                    self.overflow_treatment(parent_id, ctx, io);
                }
            }
        }
        // The R*-tree distribution optimizes overlap and area, not
        // payload: a half can still exceed the byte limit (e.g. one
        // near-page-sized object grouped with smaller ones). Split such
        // halves again; each split strictly shrinks the entry count, so
        // this terminates.
        if self.is_overflowing(node_id) {
            self.split_node(node_id, ctx, io);
        }
        if self.is_overflowing(new_id) {
            self.split_node(new_id, ctx, io);
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Delete the entry for `oid` whose MBR equals `mbr`. Returns the
    /// outcome, including any entry relocations the storage layer must
    /// mirror.
    pub fn delete(&mut self, oid: ObjectId, mbr: &Rect, io: &mut impl NodeIo) -> DeleteOutcome {
        let Some(leaf) = self.find_leaf(self.root, oid, mbr, io) else {
            return DeleteOutcome::default();
        };
        let page = self.store.get(leaf).page;
        {
            let entries = self.store.get_mut(leaf).leaf_entries_mut();
            let idx = entries
                .iter()
                .position(|e| e.oid == oid)
                .expect("entry vanished");
            entries.remove(idx);
        }
        io.modify(page);
        self.len -= 1;
        let mut ctx = InsertCtx::default();
        let removed_leaves = self.condense_tree(leaf, &mut ctx, io);
        DeleteOutcome {
            removed: true,
            leaf: Some(leaf),
            leaf_reinserts: ctx.leaf_reinserts,
            leaf_splits: ctx.leaf_splits,
            removed_leaves,
        }
    }

    fn find_leaf(
        &self,
        node_id: NodeId,
        oid: ObjectId,
        mbr: &Rect,
        io: &mut impl NodeIo,
    ) -> Option<NodeId> {
        io.read(self.store.get(node_id).page);
        match &self.store.get(node_id).kind {
            NodeKind::Leaf(entries) => entries.iter().any(|e| e.oid == oid).then_some(node_id),
            NodeKind::Dir(entries) => {
                for e in entries {
                    if e.mbr.contains_rect(mbr) {
                        if let Some(found) = self.find_leaf(e.child, oid, mbr, io) {
                            return Some(found);
                        }
                    }
                }
                None
            }
        }
    }

    /// Returns the data pages it removed.
    fn condense_tree(
        &mut self,
        leaf: NodeId,
        ctx: &mut InsertCtx,
        io: &mut impl NodeIo,
    ) -> Vec<NodeId> {
        let min_fill = (MIN_FILL_RATIO * self.config.max_entries as f64).floor() as usize;
        let mut orphans: Vec<(AnyEntry, u32)> = Vec::new();
        let mut removed_leaves = Vec::new();
        let mut cur = leaf;
        while let Some(parent) = self.store.get(cur).parent {
            if self.store.get(cur).len() < min_fill {
                // Remove `cur` from its parent and stash its entries.
                let idx = self.child_index(parent, cur);
                let parent_page = self.store.get(parent).page;
                self.store.get_mut(parent).dir_entries_mut().remove(idx);
                io.modify(parent_page);
                let node = self.store.remove(cur);
                io.release(node.page);
                self.pages.free_page(node.page);
                let level = node.level;
                match node.kind {
                    NodeKind::Leaf(entries) => {
                        removed_leaves.push(cur);
                        orphans.extend(entries.into_iter().map(|e| (AnyEntry::Leaf(e), level)));
                    }
                    NodeKind::Dir(entries) => {
                        orphans.extend(entries.into_iter().map(|e| (AnyEntry::Dir(e), level)));
                    }
                }
                cur = parent;
            } else {
                self.update_path_mbrs(cur, io);
                break;
            }
        }
        // Reinsert orphans, deepest (leaf) entries first.
        orphans.sort_by_key(|(_, level)| *level);
        for (item, level) in orphans {
            self.insert_at_level(item, level, ctx, io);
        }
        // Shrink the root while it is a directory node with one child.
        while !self.store.get(self.root).is_leaf() && self.store.get(self.root).len() == 1 {
            let old_root = self.root;
            let child = self.store.get(old_root).dir_entries()[0].child;
            let node = self.store.remove(old_root);
            io.release(node.page);
            self.pages.free_page(node.page);
            self.store.get_mut(child).parent = None;
            self.root = child;
        }
        removed_leaves
    }

    /// Pages currently allocated for tree nodes.
    pub fn allocated_pages(&self) -> u64 {
        self.pages.allocated_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{CountingIo, NoIo};
    use crate::validate::check_invariants;
    use spatialdb_disk::Disk;
    use spatialdb_geom::rng::SmallRng;

    fn small_config() -> RTreeConfig {
        RTreeConfig {
            max_entries: 8,
            leaf_reinsert_enabled: true,
            leaf_payload_limit: None,
        }
    }

    fn tree(config: RTreeConfig) -> RStarTree {
        let disk = Disk::with_defaults();
        RStarTree::new(config, disk.create_region("tree"))
    }

    fn grid_entry(i: u64, n: u64) -> LeafEntry {
        let x = (i % n) as f64;
        let y = (i / n) as f64;
        LeafEntry::new(Rect::new(x, y, x + 0.5, y + 0.5), ObjectId(i), 0)
    }

    /// The leaf-level ChooseSubtree as it was before the prefilter kept
    /// a fixed array and skipped candidates a containing one beats:
    /// enlargement recomputed in a sort comparator, every candidate
    /// evaluated.
    fn reference_least_overlap(entries: &[DirEntry], rect: &Rect) -> usize {
        let mut candidates: Vec<usize> = (0..entries.len()).collect();
        if entries.len() > PREFILTER {
            candidates.sort_by(|&a, &b| {
                entries[a]
                    .mbr
                    .enlargement(rect)
                    .total_cmp(&entries[b].mbr.enlargement(rect))
            });
            candidates.truncate(PREFILTER);
        }
        let mut best = candidates[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &i in &candidates {
            let enlarged = entries[i].mbr.union(rect);
            let mut overlap_delta = 0.0;
            for (j, other) in entries.iter().enumerate() {
                if j == i {
                    continue;
                }
                overlap_delta +=
                    enlarged.overlap_area(&other.mbr) - entries[i].mbr.overlap_area(&other.mbr);
            }
            let key = (
                overlap_delta,
                entries[i].mbr.enlargement(rect),
                entries[i].mbr.area(),
            );
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// A rectangle on a grid of `1 / 8` (so areas, enlargements and
    /// overlaps tie), a third of them degenerate in one or both axes.
    fn grid_rect(rng: &mut SmallRng, span: usize, max_side: usize) -> Rect {
        let (flat_x, flat_y) = match rng.gen_range(0..6usize) {
            0 => (true, false),
            1 => (false, true),
            2 => (true, true),
            _ => (false, false),
        };
        let mut side = |flat: bool| {
            if flat {
                0
            } else {
                rng.gen_range(1..max_side + 1)
            }
        };
        let (w, h) = (side(flat_x), side(flat_y));
        let (x, y) = (rng.gen_range(0..span), rng.gen_range(0..span));
        let at = |v: usize| v as f64 / 8.0;
        Rect::new(at(x), at(y), at(x + w), at(y + h))
    }

    /// One seeded directory and rectangle: up to 96 entries (either side
    /// of the prefilter's 32), on a fine or a coarse grid, and in one case
    /// in four a rectangle that most of the entries contain.
    fn choose_subtree_case(seed: u64) -> (Vec<DirEntry>, Rect) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1..97usize);
        let (span, max_side) = if rng.gen_bool(0.5) { (64, 24) } else { (8, 4) };
        let mut entries: Vec<DirEntry> = (0..n)
            .map(|i| DirEntry {
                mbr: grid_rect(&mut rng, span, max_side),
                child: NodeId(i as u32),
            })
            .collect();
        let rect = if rng.gen_bool(0.25) {
            // Many containing entries: more than 32 once n is large.
            let rect = grid_rect(&mut rng, 8, 2);
            for entry in &mut entries {
                if rng.gen_bool(0.8) {
                    entry.mbr = entry.mbr.union(&rect);
                }
            }
            rect
        } else {
            grid_rect(&mut rng, span, max_side)
        };
        (entries, rect)
    }

    fn assert_chooses_like_the_reference(seeds: std::ops::Range<u64>) {
        let mut containing_over_prefilter = 0;
        for seed in seeds {
            let (entries, rect) = choose_subtree_case(seed);
            let containing = entries
                .iter()
                .filter(|e| e.mbr.contains_rect(&rect))
                .count();
            containing_over_prefilter += usize::from(containing > PREFILTER);
            assert_eq!(
                RStarTree::choose_least_overlap(&entries, &rect),
                reference_least_overlap(&entries, &rect),
                "seed {seed}: {} entries, {containing} contain {rect:?}",
                entries.len()
            );
        }
        assert!(containing_over_prefilter > 0, "no case past the prefilter");
    }

    #[test]
    fn choose_subtree_picks_the_reference_entry() {
        assert_chooses_like_the_reference(0..3_000);
    }

    /// `cargo test --release -p spatialdb-rtree -- --include-ignored choose_subtree`.
    #[test]
    #[ignore = "a release-profile sweep; run with --include-ignored"]
    fn choose_subtree_sweep() {
        assert_chooses_like_the_reference(3_000..300_000);
    }

    #[test]
    fn empty_tree_properties() {
        let t = tree(small_config());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.num_nodes(), 1);
        assert!(t.mbr().is_empty());
    }

    #[test]
    fn insert_grows_and_splits() {
        let mut t = tree(small_config());
        for i in 0..200 {
            t.insert(grid_entry(i, 20), &mut NoIo);
        }
        assert_eq!(t.len(), 200);
        assert!(t.height() >= 2);
        assert!(t.num_leaves() > 1);
        check_invariants(&t).unwrap();
    }

    #[test]
    fn insert_outcome_reports_leaf() {
        let mut t = tree(small_config());
        let out = t.insert(grid_entry(0, 10), &mut NoIo);
        let leaf = out.leaf.unwrap();
        assert!(t
            .node(leaf)
            .leaf_entries()
            .iter()
            .any(|e| e.oid == ObjectId(0)));
    }

    #[test]
    fn split_events_partition_entries() {
        let mut t = tree(RTreeConfig {
            leaf_reinsert_enabled: false,
            ..small_config()
        });
        let mut all_events = Vec::new();
        for i in 0..100 {
            let out = t.insert(grid_entry(i, 10), &mut NoIo);
            all_events.extend(out.leaf_splits);
        }
        assert!(!all_events.is_empty());
        for ev in &all_events {
            assert!(!ev.old_oids.is_empty());
            assert!(!ev.new_oids.is_empty());
            // Disjoint groups.
            for oid in &ev.new_oids {
                assert!(!ev.old_oids.contains(oid));
            }
        }
        check_invariants(&t).unwrap();
    }

    #[test]
    fn payload_limit_triggers_cluster_split() {
        // Each entry carries 100 payload bytes; limit 350 → a leaf splits
        // after the 4th entry even though M = 8.
        let mut t = tree(RTreeConfig {
            leaf_payload_limit: Some(350),
            leaf_reinsert_enabled: false,
            ..small_config()
        });
        let mut split_seen = false;
        for i in 0..8 {
            let e = LeafEntry::new(
                Rect::new(i as f64, 0.0, i as f64 + 0.4, 1.0),
                ObjectId(i),
                100,
            );
            let out = t.insert(e, &mut NoIo);
            split_seen |= !out.leaf_splits.is_empty();
        }
        assert!(split_seen);
        for (_, leaf) in t.leaves() {
            assert!(leaf.payload() <= 350, "payload {}", leaf.payload());
        }
        check_invariants(&t).unwrap();
    }

    #[test]
    fn leaf_reinserts_reported_when_enabled() {
        let mut t = tree(small_config());
        let mut reinserts = 0;
        for i in 0..300 {
            let out = t.insert(grid_entry(i, 20), &mut NoIo);
            reinserts += out.leaf_reinserts.len();
        }
        assert!(reinserts > 0, "R*-tree should have reinserted entries");
        check_invariants(&t).unwrap();
    }

    #[test]
    fn no_leaf_reinserts_when_disabled() {
        let mut t = tree(RTreeConfig {
            leaf_reinsert_enabled: false,
            ..small_config()
        });
        for i in 0..300 {
            let out = t.insert(grid_entry(i, 20), &mut NoIo);
            assert!(out.leaf_reinserts.is_empty());
        }
        check_invariants(&t).unwrap();
    }

    #[test]
    fn io_charged_on_descent() {
        let mut t = tree(small_config());
        let mut io = CountingIo::default();
        t.insert(grid_entry(0, 10), &mut io);
        assert_eq!(io.reads, 1); // root only
        assert!(io.modifies >= 1);
    }

    #[test]
    fn delete_removes_entry() {
        let mut t = tree(small_config());
        for i in 0..50 {
            t.insert(grid_entry(i, 10), &mut NoIo);
        }
        let mbr = grid_entry(17, 10).mbr;
        let out = t.delete(ObjectId(17), &mbr, &mut NoIo);
        assert!(out.removed);
        assert_eq!(t.len(), 49);
        // Gone from every leaf.
        for (_, leaf) in t.leaves() {
            assert!(!leaf.leaf_entries().iter().any(|e| e.oid == ObjectId(17)));
        }
        check_invariants(&t).unwrap();
    }

    #[test]
    fn delete_missing_entry_is_noop() {
        let mut t = tree(small_config());
        for i in 0..10 {
            t.insert(grid_entry(i, 10), &mut NoIo);
        }
        let out = t.delete(ObjectId(99), &Rect::new(0.0, 0.0, 1.0, 1.0), &mut NoIo);
        assert!(!out.removed);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn delete_everything_collapses_tree() {
        let mut t = tree(small_config());
        for i in 0..100 {
            t.insert(grid_entry(i, 10), &mut NoIo);
        }
        for i in 0..100 {
            let mbr = grid_entry(i, 10).mbr;
            assert!(t.delete(ObjectId(i), &mbr, &mut NoIo).removed, "i={i}");
            check_invariants(&t).unwrap();
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    fn delete_reports_the_data_pages_it_removed() {
        let mut t = tree(small_config());
        for i in 0..200 {
            t.insert(grid_entry(i, 20), &mut NoIo);
        }
        let mut reported = 0;
        for i in 0..200 {
            let before: Vec<NodeId> = t.leaves().map(|(id, _)| id).collect();
            let out = t.delete(ObjectId(i), &grid_entry(i, 20).mbr, &mut NoIo);
            // Exactly the data pages that vanished — or whose id a split
            // of the same deletion handed to a new node — are reported.
            for id in &before {
                let gone = !t.contains_node(*id) || !t.node(*id).is_leaf();
                assert!(!gone || out.removed_leaves.contains(id), "i={i}: {id}");
            }
            assert!(out.removed_leaves.iter().all(|id| before.contains(id)));
            reported += out.removed_leaves.len();
        }
        assert!(reported > 0, "condensation must have removed data pages");
    }

    #[test]
    fn page_allocation_tracks_nodes() {
        let mut t = tree(small_config());
        for i in 0..200 {
            t.insert(grid_entry(i, 20), &mut NoIo);
        }
        assert_eq!(t.allocated_pages(), t.num_nodes() as u64);
    }

    #[test]
    fn many_duplicate_rects_still_split() {
        // Degenerate input: all entries identical. Splits must still
        // terminate and respect min fill.
        let mut t = tree(small_config());
        for i in 0..100 {
            let e = LeafEntry::new(Rect::new(1.0, 1.0, 2.0, 2.0), ObjectId(i), 0);
            t.insert(e, &mut NoIo);
        }
        assert_eq!(t.len(), 100);
        check_invariants(&t).unwrap();
    }
}
