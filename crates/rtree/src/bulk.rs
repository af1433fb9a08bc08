//! Bottom-up (STR) bulk construction.
//!
//! Sort-tile-recursive \[LEL97\]: sort the entries by x-center, cut the
//! sorted sequence into vertical slices of `S · c` entries (`c` = leaf
//! capacity at the configured fill factor, `S = ⌈√⌈N/c⌉⌉`), sort each
//! slice by y-center and tile it into leaves of `c` entries, then pack
//! the directory bottom-up with the same fill factor. The result is a
//! fully packed R\*-tree whose data pages hold spatially adjacent
//! objects — the physical clustering the paper's organization
//! comparison measures — built in O(N log N) instead of N insertions.
//!
//! ## Determinism contract
//!
//! Every step is a pure function of the **entry multiset and the
//! [`TilingParams`]**:
//!
//! * [`sort_entries`] orders by `(x-center, y-center, oid)` — a total
//!   order (object ids are unique), so any stable or unstable sort,
//!   sequential or chunked-and-merged, produces the same sequence;
//! * [`slice_spans`] derives the slice boundaries from the entry count
//!   alone;
//! * [`tile_slice`] is a deterministic greedy cut of one slice.
//!
//! A parallel driver may therefore sort chunks on separate threads,
//! fan the slices out to workers, and concatenate the returned tiles in
//! slice order: the tiles — and the [`build_tree`] result — are
//! **identical at every thread count**.
//!
//! No I/O is charged here. [`build_tree`] reports the page runs of each
//! level ([`BulkBuild::level_runs`]); the storage layer decides what a
//! packed level's sequential write costs.

use crate::config::RTreeConfig;
use crate::entry::{DirEntry, LeafEntry};
use crate::node::{Node, NodeId, NodeKind, NodeStore};
use crate::tree::RStarTree;
use spatialdb_disk::{ExtentAllocator, PageId, PageRun, RegionId};

/// Default fill factor of STR-packed nodes. Below 1.0 so a bulk-loaded
/// tree absorbs some subsequent insertions before splitting, above the
/// ~70 % utilization insertion-built trees settle at.
pub const DEFAULT_STR_FILL: f64 = 0.9;

/// One packed data page: the leaf entries in their final order.
pub type Tile = Vec<LeafEntry>;

/// Capacity parameters of an STR build, derived from an
/// [`RTreeConfig`] and a fill factor.
#[derive(Clone, Debug, PartialEq)]
pub struct TilingParams {
    /// Entries packed per leaf (`⌊M · fill⌋`, at least 1).
    pub leaf_cap: usize,
    /// Children packed per directory node (`⌊M · fill⌋`, at least 2).
    pub dir_cap: usize,
    /// Byte payload limit per leaf (cluster: `Smax`; primary: the page
    /// capacity). A tile closes early when the next entry would push
    /// its payload past the limit.
    pub payload_limit: Option<u64>,
}

impl TilingParams {
    /// Derive the packing capacities from a tree configuration and a
    /// fill factor in `(0, 1]`.
    pub fn from_config(config: &RTreeConfig, fill: f64) -> Self {
        assert!(
            fill > 0.0 && fill <= 1.0,
            "STR fill factor must be in (0, 1], got {fill}"
        );
        let cap =
            ((config.max_entries as f64 * fill).floor() as usize).clamp(1, config.max_entries);
        TilingParams {
            leaf_cap: cap,
            dir_cap: cap.max(2),
            payload_limit: config.leaf_payload_limit,
        }
    }
}

/// Total order of the STR x-sort: `(x-center, y-center, oid)`. Object
/// ids are unique, so ties never depend on the input order.
fn str_cmp(a: &LeafEntry, b: &LeafEntry) -> std::cmp::Ordering {
    let ac = a.mbr.center();
    let bc = b.mbr.center();
    ac.x.total_cmp(&bc.x)
        .then(ac.y.total_cmp(&bc.y))
        .then(a.oid.cmp(&b.oid))
}

/// Sort entries into the global STR order (ascending x-center, ties by
/// y-center then object id).
pub fn sort_entries(entries: &mut [LeafEntry]) {
    entries.sort_unstable_by(str_cmp);
}

/// Merge pre-sorted chunks (each ordered by [`sort_entries`]) into one
/// globally sorted sequence. Because the comparator is a total order,
/// the result equals sorting the concatenation directly — this is the
/// reduction step of a parallel chunk sort. A single chunk is returned
/// as it is.
pub fn merge_sorted_chunks(mut chunks: Vec<Vec<LeafEntry>>) -> Vec<LeafEntry> {
    if chunks.len() == 1 {
        return chunks.pop().expect("one chunk");
    }
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors: Vec<(std::vec::IntoIter<LeafEntry>, Option<LeafEntry>)> = chunks
        .into_iter()
        .map(|c| {
            let mut it = c.into_iter();
            let head = it.next();
            (it, head)
        })
        .collect();
    loop {
        let mut best: Option<usize> = None;
        for (i, (_, head)) in cursors.iter().enumerate() {
            let Some(h) = head else { continue };
            match best {
                Some(b)
                    if str_cmp(cursors[b].1.as_ref().expect("best has head"), h)
                        != std::cmp::Ordering::Greater => {}
                _ => best = Some(i),
            }
        }
        let Some(b) = best else { break };
        let (it, head) = &mut cursors[b];
        out.push(head.take().expect("best has head"));
        *head = it.next();
    }
    out
}

/// Index ranges of the vertical slices of an `n`-entry sorted sequence:
/// `S = ⌈√⌈n/c⌉⌉` slices of `S · c` entries each (the last one ragged).
pub fn slice_spans(n: usize, params: &TilingParams) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let leaves = n.div_ceil(params.leaf_cap);
    let slices = (leaves as f64).sqrt().ceil() as usize;
    let per_slice = (slices * params.leaf_cap).max(1);
    (0..n.div_ceil(per_slice))
        .map(|i| i * per_slice..((i + 1) * per_slice).min(n))
        .collect()
}

/// Tile one x-slice: sort its entries by `(y-center, x-center, oid)`
/// and cut greedily into leaves of at most `leaf_cap` entries,
/// respecting the payload limit (an entry whose payload alone exceeds
/// the limit gets a tile of its own, like an oversized page in the
/// insertion path). When only the count bound applies, the ragged last
/// tile borrows trailing entries from its predecessor so every leaf
/// ends up at least half full.
///
/// # Panics
///
/// Panics on a non-finite MBR — a packed tree built over garbage
/// coordinates would silently mis-answer every query.
pub fn tile_slice(slice: &[LeafEntry], params: &TilingParams) -> Vec<Tile> {
    let mut entries: Vec<LeafEntry> = slice.to_vec();
    entries.sort_unstable_by(|a, b| {
        let ac = a.mbr.center();
        let bc = b.mbr.center();
        ac.y.total_cmp(&bc.y)
            .then(ac.x.total_cmp(&bc.x))
            .then(a.oid.cmp(&b.oid))
    });
    let mut tiles: Vec<Tile> = Vec::new();
    let mut cur: Tile = Vec::new();
    let mut cur_payload = 0u64;
    for e in entries {
        assert!(
            e.mbr.is_finite(),
            "bulk load requires finite MBRs (object {})",
            e.oid
        );
        let p = u64::from(e.payload);
        let over_payload = params
            .payload_limit
            .is_some_and(|limit| !cur.is_empty() && cur_payload + p > limit);
        if cur.len() >= params.leaf_cap || over_payload {
            tiles.push(std::mem::take(&mut cur));
            cur_payload = 0;
        }
        cur_payload += p;
        cur.push(e);
    }
    if !cur.is_empty() {
        tiles.push(cur);
    }
    if params.payload_limit.is_none() && tiles.len() >= 2 {
        let floor = params.leaf_cap.div_ceil(2);
        let last = tiles.len() - 1;
        while tiles[last].len() < floor && tiles[last - 1].len() > floor {
            let moved = tiles[last - 1].pop().expect("donor tile is non-empty");
            tiles[last].insert(0, moved);
        }
    }
    tiles
}

/// Sort and tile a full entry set sequentially: the reference pipeline
/// a parallel driver must reproduce tile-for-tile.
pub fn plan_tiles(mut entries: Vec<LeafEntry>, params: &TilingParams) -> Vec<Tile> {
    sort_entries(&mut entries);
    let mut tiles = Vec::new();
    for span in slice_spans(entries.len(), params) {
        tiles.extend(tile_slice(&entries[span], params));
    }
    tiles
}

/// Result of a bottom-up build.
#[derive(Debug)]
pub struct BulkBuild {
    /// The packed tree.
    pub tree: RStarTree,
    /// The page run of each level, leaves first. Pages are allocated
    /// strictly sequentially (leaves at offsets `0..L`, then each
    /// directory level), so every level is one consecutive run — the
    /// sequential-write pattern bulk loading is charged as.
    pub level_runs: Vec<PageRun>,
}

/// Pack `tiles` (in order) into a tree bottom-up. Leaves get node ids
/// `0..L` and page offsets `0..L` in tile order; each directory level
/// follows, packed `dir_cap` children per node with the same ragged-
/// tail balancing as the leaves. No I/O is charged.
pub fn build_tree(
    config: RTreeConfig,
    region: RegionId,
    tiles: Vec<Tile>,
    params: &TilingParams,
) -> BulkBuild {
    config.validate();
    if tiles.is_empty() {
        return BulkBuild {
            tree: RStarTree::new(config, region),
            level_runs: Vec::new(),
        };
    }
    let mut store = NodeStore::new();
    let mut pages = ExtentAllocator::new(region);
    let mut len = 0usize;
    let mut level_runs = Vec::new();
    let mut current: Vec<(NodeId, spatialdb_geom::Rect)> = tiles
        .into_iter()
        .map(|entries| {
            debug_assert!(!entries.is_empty(), "empty tile");
            len += entries.len();
            let node = Node {
                kind: NodeKind::Leaf(entries),
                page: pages.alloc_page(),
                parent: None,
                level: 0,
            };
            let mbr = node.mbr();
            (store.insert(node), mbr)
        })
        .collect();
    level_runs.push(PageRun::new(PageId::new(region, 0), current.len() as u64));
    let mut level = 0u32;
    let mut next_offset = current.len() as u64;
    while current.len() > 1 {
        level += 1;
        let groups = group_counts(current.len(), params.dir_cap);
        let mut parents = Vec::with_capacity(groups.len());
        let mut children = current.into_iter();
        for g in groups {
            let group: Vec<(NodeId, spatialdb_geom::Rect)> = children.by_ref().take(g).collect();
            let entries: Vec<DirEntry> = group
                .iter()
                .map(|&(child, mbr)| DirEntry { mbr, child })
                .collect();
            let node = Node {
                kind: NodeKind::Dir(entries),
                page: pages.alloc_page(),
                parent: None,
                level,
            };
            let mbr = node.mbr();
            let id = store.insert(node);
            for (child, _) in &group {
                store.get_mut(*child).parent = Some(id);
            }
            parents.push((id, mbr));
        }
        level_runs.push(PageRun::new(
            PageId::new(region, next_offset),
            parents.len() as u64,
        ));
        next_offset += parents.len() as u64;
        current = parents;
    }
    let root = current[0].0;
    BulkBuild {
        tree: RStarTree::from_parts(config, store, root, pages, len),
        level_runs,
    }
}

/// Children per parent when packing `n` nodes `cap` at a time: full
/// groups, with the ragged tail rebalanced against its predecessor so
/// no directory node falls below half of `cap` (unless `n < cap`).
fn group_counts(n: usize, cap: usize) -> Vec<usize> {
    debug_assert!(cap >= 2);
    let parents = n.div_ceil(cap);
    let mut counts = vec![cap; parents];
    let tail = n - cap * (parents - 1);
    counts[parents - 1] = tail;
    if parents >= 2 {
        let floor = cap.div_ceil(2);
        if tail < floor {
            let move_over = floor - tail;
            counts[parents - 2] -= move_over;
            counts[parents - 1] += move_over;
        }
    }
    debug_assert_eq!(counts.iter().sum::<usize>(), n);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ObjectId;
    use crate::validate::check_invariants;
    use spatialdb_geom::Rect;

    fn entries(n: u64, payload: u32) -> Vec<LeafEntry> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 101) as f64 / 101.0;
                let y = ((i * 61) % 97) as f64 / 97.0;
                LeafEntry::new(Rect::new(x, y, x + 0.01, y + 0.01), ObjectId(i), payload)
            })
            .collect()
    }

    fn region() -> RegionId {
        spatialdb_disk::Disk::with_defaults().create_region("bulk:test")
    }

    #[test]
    fn packed_tree_is_valid_and_full() {
        let config = RTreeConfig::paper_default(4096);
        let params = TilingParams::from_config(&config, 0.9);
        let tiles = plan_tiles(entries(5000, 0), &params);
        let build = build_tree(config, region(), tiles, &params);
        check_invariants(&build.tree).unwrap();
        assert_eq!(build.tree.len(), 5000);
        // Every leaf at least half the target, all but the slice tails
        // exactly at it.
        let full = build
            .tree
            .leaves()
            .filter(|(_, l)| l.len() == params.leaf_cap)
            .count();
        for (_, leaf) in build.tree.leaves() {
            assert!(leaf.len() >= params.leaf_cap.div_ceil(2), "{}", leaf.len());
        }
        assert!(
            full * 10 >= build.tree.num_leaves() * 8,
            "only {full}/{} leaves fully packed",
            build.tree.num_leaves()
        );
        // Levels cover the page space contiguously from offset 0.
        let total: u64 = build.level_runs.iter().map(|r| r.len).sum();
        assert_eq!(total, build.tree.num_nodes() as u64);
        assert_eq!(build.level_runs[0].start.offset, 0);
    }

    #[test]
    fn payload_limit_respected() {
        let config = RTreeConfig::cluster(4096, 8 * 1024);
        let params = TilingParams::from_config(&config, 1.0);
        let tiles = plan_tiles(entries(800, 700), &params);
        for t in &tiles {
            let payload: u64 = t.iter().map(|e| u64::from(e.payload)).sum();
            assert!(payload <= 8 * 1024);
        }
        let build = build_tree(config, region(), tiles, &params);
        check_invariants(&build.tree).unwrap();
        assert_eq!(build.tree.len(), 800);
    }

    #[test]
    fn oversized_entry_gets_its_own_tile() {
        let config = RTreeConfig::primary(4096);
        let params = TilingParams::from_config(&config, 1.0);
        let mut es = entries(50, 600);
        es[7].payload = 60_000; // larger than the page payload limit
        let tiles = plan_tiles(es, &params);
        let big: Vec<&Tile> = tiles
            .iter()
            .filter(|t| t.iter().any(|e| e.payload == 60_000))
            .collect();
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].len(), 1, "oversized entry must sit alone");
        let build = build_tree(config, region(), tiles, &params);
        check_invariants(&build.tree).unwrap();
    }

    #[test]
    fn chunked_sort_merges_to_global_order() {
        let es = entries(3000, 0);
        let mut reference = es.clone();
        sort_entries(&mut reference);
        for parts in [2usize, 3, 8] {
            let per = es.len().div_ceil(parts);
            let chunks: Vec<Vec<LeafEntry>> = es
                .chunks(per)
                .map(|c| {
                    let mut v = c.to_vec();
                    sort_entries(&mut v);
                    v
                })
                .collect();
            assert_eq!(merge_sorted_chunks(chunks), reference, "{parts} chunks");
        }
    }

    #[test]
    fn tiling_is_a_pure_function_of_the_sorted_sequence() {
        let config = RTreeConfig::paper_default(4096);
        let params = TilingParams::from_config(&config, 0.9);
        let mut shuffled = entries(2000, 0);
        shuffled.reverse();
        assert_eq!(
            plan_tiles(entries(2000, 0), &params),
            plan_tiles(shuffled, &params)
        );
        // Slice-by-slice tiling concatenates to the sequential plan.
        let mut sorted = entries(2000, 0);
        sort_entries(&mut sorted);
        let mut concat = Vec::new();
        for span in slice_spans(sorted.len(), &params) {
            concat.extend(tile_slice(&sorted[span], &params));
        }
        assert_eq!(concat, plan_tiles(entries(2000, 0), &params));
    }

    #[test]
    fn single_tile_tree_has_leaf_root() {
        let config = RTreeConfig::paper_default(4096);
        let params = TilingParams::from_config(&config, 1.0);
        let tiles = plan_tiles(entries(10, 0), &params);
        assert_eq!(tiles.len(), 1);
        let build = build_tree(config, region(), tiles, &params);
        check_invariants(&build.tree).unwrap();
        assert_eq!(build.tree.height(), 1);
        assert_eq!(build.tree.len(), 10);
    }

    #[test]
    fn empty_build_is_an_empty_tree() {
        let config = RTreeConfig::paper_default(4096);
        let params = TilingParams::from_config(&config, 1.0);
        let build = build_tree(config, region(), Vec::new(), &params);
        check_invariants(&build.tree).unwrap();
        assert_eq!(build.tree.len(), 0);
        assert!(build.level_runs.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite MBR")]
    fn non_finite_mbr_rejected() {
        let config = RTreeConfig::paper_default(4096);
        let params = TilingParams::from_config(&config, 1.0);
        let mut es = entries(10, 0);
        es[3].mbr = Rect {
            xmin: f64::NAN,
            ymin: 0.0,
            xmax: f64::NAN,
            ymax: 1.0,
        };
        plan_tiles(es, &params);
    }
}
