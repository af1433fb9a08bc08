//! Point and window queries over the R\*-tree (filter step).
//!
//! §4.1 of the paper: *"Let S be a query rectangle of a window query. The
//! query is performed by starting in the root and computing all entries
//! whose rectangle intersects S. For these entries, the corresponding
//! child nodes are read into main memory and the query process is
//! repeated, unless the node in question is a leaf node."*
//!
//! The queries here implement the *filter* step (\[Ore89\]): they return
//! candidate entries / data pages based on MBRs. The *refinement* step
//! (exact geometry test) is the organization models' job, because it is
//! what requires fetching the exact object representations from disk.
//!
//! Every query is one descent (`RStarTree::descend`): depth first, each
//! visited node charged to the caller's [`NodeIo`], each leaf's hits
//! appended in **entry order** — an in-order subsequence of its
//! [`leaf_entries`](crate::node::Node::leaf_entries), which the cluster
//! organization places in one pass over the page. Its stack is a
//! thread-local buffer and its outputs are the caller's, so a warm
//! thread's walk allocates nothing.

use crate::entry::LeafEntry;
use crate::io::NodeIo;
use crate::node::{NodeId, NodeKind};
use crate::tree::RStarTree;
use spatialdb_geom::{Point, Rect};
use std::cell::RefCell;
use std::ops::Range;

thread_local! {
    /// The calling thread's descent stack, taken for one walk and put
    /// back for the next.
    static STACK: RefCell<Vec<NodeId>> = const { RefCell::new(Vec::new()) };
}

impl RStarTree {
    /// The one descent: reads every node whose rectangle intersects
    /// `window` through `io` and appends the leaf entries that intersect
    /// it to `out` (cleared first), telling `leaf` each leaf with hits
    /// and their range of `out`.
    fn descend(
        &self,
        window: &Rect,
        io: &mut impl NodeIo,
        out: &mut Vec<LeafEntry>,
        mut leaf: impl FnMut(NodeId, Range<usize>),
    ) {
        out.clear();
        let mut stack = STACK.take();
        stack.push(self.root());
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            io.read(node.page);
            match &node.kind {
                NodeKind::Leaf(entries) => {
                    let start = out.len();
                    out.extend(entries.iter().filter(|e| e.mbr.intersects(window)).copied());
                    if out.len() > start {
                        leaf(id, start..out.len());
                    }
                }
                NodeKind::Dir(entries) => {
                    stack.extend(
                        entries
                            .iter()
                            .filter(|e| e.mbr.intersects(window))
                            .map(|e| e.child),
                    );
                }
            }
        }
        STACK.set(stack);
    }

    /// Window query, filter step: all leaf entries whose MBR intersects
    /// `window`, into `out` (cleared first). Visited node pages are
    /// charged to `io`.
    pub fn window_entries_into(
        &self,
        window: &Rect,
        io: &mut impl NodeIo,
        out: &mut Vec<LeafEntry>,
    ) {
        self.descend(window, io, out, |_, _| {});
    }

    /// [`window_entries_into`](RStarTree::window_entries_into), and in
    /// `leaves` (cleared first) every leaf with hits and the range of
    /// `out` they occupy, in entry order: the cluster organization's
    /// access pattern (§4.2.2), where each qualifying data page maps to
    /// one cluster unit to transfer.
    pub fn window_leaves_into(
        &self,
        window: &Rect,
        io: &mut impl NodeIo,
        out: &mut Vec<LeafEntry>,
        leaves: &mut Vec<(NodeId, Range<usize>)>,
    ) {
        leaves.clear();
        self.descend(window, io, out, |id, hits| leaves.push((id, hits)));
    }

    /// Point query, filter step: all leaf entries whose MBR contains `p`,
    /// into `out` (cleared first).
    pub fn point_entries_into(&self, p: &Point, io: &mut impl NodeIo, out: &mut Vec<LeafEntry>) {
        self.descend(&Rect::new(p.x, p.y, p.x, p.y), io, out, |_, _| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;
    use crate::entry::ObjectId;
    use crate::io::{CountingIo, NoIo};
    use spatialdb_disk::Disk;

    /// A window query's entries, in a fresh buffer.
    fn entries(t: &RStarTree, w: &Rect, io: &mut impl NodeIo) -> Vec<LeafEntry> {
        let mut out = Vec::new();
        t.window_entries_into(w, io, &mut out);
        out
    }

    /// A point query's entries, in a fresh buffer.
    fn point_entries(t: &RStarTree, p: &Point) -> Vec<LeafEntry> {
        let mut out = Vec::new();
        t.point_entries_into(p, &mut NoIo, &mut out);
        out
    }

    fn build_grid(n: u64) -> RStarTree {
        let disk = Disk::with_defaults();
        let mut t = RStarTree::new(
            RTreeConfig {
                max_entries: 8,
                leaf_reinsert_enabled: true,
                leaf_payload_limit: None,
            },
            disk.create_region("t"),
        );
        for i in 0..n * n {
            let x = (i % n) as f64;
            let y = (i / n) as f64;
            t.insert(
                LeafEntry::new(Rect::new(x, y, x + 0.5, y + 0.5), ObjectId(i), 0),
                &mut NoIo,
            );
        }
        t
    }

    #[test]
    fn window_query_finds_exactly_the_overlapping_entries() {
        let t = build_grid(10);
        let w = Rect::new(2.0, 2.0, 4.2, 3.2);
        let mut found: Vec<u64> = entries(&t, &w, &mut NoIo).iter().map(|e| e.oid.0).collect();
        found.sort_unstable();
        // Brute force reference.
        let mut expected = Vec::new();
        for i in 0..100u64 {
            let x = (i % 10) as f64;
            let y = (i / 10) as f64;
            if Rect::new(x, y, x + 0.5, y + 0.5).intersects(&w) {
                expected.push(i);
            }
        }
        assert_eq!(found, expected);
    }

    #[test]
    fn point_query_contains_semantics() {
        let t = build_grid(10);
        // Point inside cell (3,4).
        let hits = point_entries(&t, &Point::new(3.25, 4.25));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].oid, ObjectId(43));
        // Point in the gap between cells: no hit.
        let miss = point_entries(&t, &Point::new(3.75, 4.25));
        assert!(miss.is_empty());
    }

    #[test]
    fn empty_window_query() {
        let t = build_grid(5);
        let out = entries(&t, &Rect::new(100.0, 100.0, 101.0, 101.0), &mut NoIo);
        assert!(out.is_empty());
    }

    #[test]
    fn whole_space_window_returns_everything() {
        let t = build_grid(7);
        let out = entries(&t, &Rect::new(-1.0, -1.0, 100.0, 100.0), &mut NoIo);
        assert_eq!(out.len(), 49);
    }

    #[test]
    fn window_leaves_cover_window_entries() {
        let t = build_grid(10);
        let w = Rect::new(1.0, 1.0, 6.3, 5.1);
        let mut hits = vec![LeafEntry::new(w, ObjectId(0), 0)]; // cleared
        let mut per_leaf = vec![(NodeId(0), 0..0)]; // cleared
        t.window_leaves_into(&w, &mut NoIo, &mut hits, &mut per_leaf);
        assert_eq!(hits, entries(&t, &w, &mut NoIo));
        // The ranges tile the buffer, and every reported leaf really
        // holds its reported entries.
        let mut covered = 0;
        for (leaf, range) in &per_leaf {
            assert_eq!(range.start, covered);
            assert!(!range.is_empty());
            covered = range.end;
            let node_entries = t.node(*leaf).leaf_entries();
            for h in &hits[range.clone()] {
                assert!(node_entries.iter().any(|e| e.oid == h.oid));
            }
        }
        assert_eq!(covered, hits.len());
    }

    /// Each leaf's range of hits is an in-order subsequence of the
    /// leaf's entries.
    fn assert_hits_in_entry_order(t: &RStarTree, windows: &[Rect]) {
        let (mut hits, mut leaves) = (Vec::new(), Vec::new());
        for w in windows {
            t.window_leaves_into(w, &mut NoIo, &mut hits, &mut leaves);
            for (leaf, range) in leaves.drain(..) {
                let mut entries = t.node(leaf).leaf_entries().iter();
                for h in &hits[range] {
                    assert!(entries.any(|e| e == h), "{} out of order in {leaf}", h.oid);
                }
            }
        }
    }

    #[test]
    fn window_leaves_append_hits_in_entry_order() {
        let cell = |i: u64| {
            let (x, y) = ((i % 12) as f64, (i / 12) as f64);
            Rect::new(x, y, x + 0.5, y + 0.5)
        };
        let windows = [
            Rect::new(1.0, 1.0, 6.3, 5.1),
            Rect::new(3.2, -1.0, 3.4, 13.0),
            Rect::new(-1.0, -1.0, 100.0, 100.0),
        ];
        let mut t = build_grid(12);
        assert_hits_in_entry_order(&t, &windows);
        // Deletes close gaps inside leaves and condense underfull ones,
        // reinserting their entries elsewhere.
        for i in (0..144).step_by(3) {
            assert!(t.delete(ObjectId(i), &cell(i), &mut NoIo).removed);
        }
        assert_hits_in_entry_order(&t, &windows);
        // A copy-on-write snapshot keeps its order while the tree it was
        // taken from changes under it.
        let snapshot = t.clone();
        for i in (1..144).step_by(3) {
            assert!(t.delete(ObjectId(i), &cell(i), &mut NoIo).removed);
        }
        for i in 144..200 {
            t.insert(LeafEntry::new(cell(i), ObjectId(i), 0), &mut NoIo);
        }
        assert_hits_in_entry_order(&snapshot, &windows);
        assert_hits_in_entry_order(&t, &windows);
        assert_eq!(entries(&snapshot, &windows[2], &mut NoIo).len(), 96);
    }

    #[test]
    fn selective_query_reads_fewer_nodes() {
        let t = build_grid(20);
        let mut io_small = CountingIo::default();
        entries(&t, &Rect::new(5.0, 5.0, 5.4, 5.4), &mut io_small);
        let mut io_big = CountingIo::default();
        entries(&t, &Rect::new(0.0, 0.0, 20.0, 20.0), &mut io_big);
        assert!(io_small.reads < io_big.reads);
        assert_eq!(io_big.reads as usize, t.num_nodes());
    }

    #[test]
    fn into_variants_reuse_scratch_and_match() {
        let t = build_grid(10);
        let w = Rect::new(2.0, 2.0, 4.2, 3.2);
        let mut scratch = Vec::new();
        t.window_entries_into(&w, &mut NoIo, &mut scratch);
        assert_eq!(scratch, entries(&t, &w, &mut NoIo));
        // Reuse across calls: the buffer is cleared, not appended to.
        t.point_entries_into(&Point::new(3.25, 4.25), &mut NoIo, &mut scratch);
        assert_eq!(scratch, point_entries(&t, &Point::new(3.25, 4.25)));
    }
}
