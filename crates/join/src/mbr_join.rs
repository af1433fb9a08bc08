//! Step 1: the MBR join on two R\*-trees (\[BKS93b\]).
//!
//! # Restricted search space
//!
//! Two entries can only intersect inside the intersection of their
//! nodes' rectangles, so every node pair first drops the entries that
//! miss that intersection (\[BKS93b\], *restricting the search space*),
//! sorts the survivors by `xmin` and sweeps them forward: an entry that
//! ended left of the sweep line is never looked at again. Each node's
//! rectangle is carried down from its parent entry; the survivors live in
//! per-level scratch vectors the whole traversal reuses, so a directory
//! node pair allocates nothing.
//!
//! # One pipeline: the traversal publishes, workers sweep, the caller replays
//!
//! The synchronized traversal of the directories — its order and its
//! pinning — runs on the calling thread, and reads no page: it pushes
//! each node read, in its order, into the current *block* of the join's
//! block stream, and at a pair of leaves it sweeps nothing either: it
//! pushes the pair (the two leaves and the rectangle their entries are
//! restricted to) beside the reads. Once a block holds 4,096 leaf
//! entries (`BLOCK_ENTRIES`, counted over both leaves of each pair; a
//! read weighs nothing), the next push publishes it to the join's block
//! queue. Up to `k − 1` worker threads, spawned as the first blocks are
//! published, sweep published blocks, oldest first, while the traversal
//! goes on: a sweep passes the reads through and records how many
//! candidate pairs each leaf pair produced. Once the traversal has
//! ended, the calling thread takes the swept blocks strictly in the
//! order they were published, appending each one's pairs and
//! `ruled_out` flags to the result, and *replays* it (`replay`): each
//! node read, and after the reads of a leaf pair's two leaves the
//! candidate pairs that leaf pair produced. [`mbr_join`] replays the
//! reads into its `io`; the join
//! ([`SpatialJoin::run`](crate::SpatialJoin::run)) replays them and
//! fetches each leaf pair's objects through one pool session. A block's
//! steps are dropped once they are replayed. When
//! the next block is not swept yet, the calling thread sweeps an
//! unclaimed one itself rather than wait. So one thread (`k` = 1), or a
//! join whose leaf pairs fit in one block, spawns nothing and sweeps
//! every block on the calling thread. The trees are immutable while the
//! join holds them, so a sweep reads nothing the traversal could
//! change, and the buffer behind the replay sees exactly the requests
//! of a join that read each node and swept and transferred each leaf
//! pair the moment the traversal reached it. The pipeline is the
//! engine's one ordered work queue, [`spatialdb_disk::blocks`]. A panic
//! of the traversal or of the replay ends the join on the calling
//! thread with its own payload. A sweep's panic, on any thread, does not
//! stop the traversal: it is raised when the replay reaches its block,
//! so the join ends with the payload of the lowest block that panicked.
//! No thread is left waiting for a block.
//!
//! # Order contract
//!
//! The candidate pairs, their order, `ruled_out` and the sequence of
//! node reads replayed (into [`NodeIo::read`] or a pool session) are a
//! function of the two trees only — not of the buffer behind them, not
//! of the thread count, not of which thread swept which block, and not
//! of how the sweep is implemented: blocks are replayed in the order
//! the traversal published them, the restriction drops only entries
//! that are in no pair, and sorting a subsequence by `(xmin, entry
//! index)` yields the subsequence of the full sort. Each leaf pair's
//! candidate pairs are replayed right after the reads of its two leaves
//! and before the traversal's next read. The module's tests pin
//! checksums of the pair and read sequences at 1, 2, 3 and 8 threads:
//! those of single-block joins were recorded before the restriction was
//! introduced, those of joins spanning many blocks with the two-pass
//! join (record every leaf pair, then sweep them in chunks) the
//! pipeline replaced.

use spatialdb_disk::blocks::{self, Blocks, Spares, Sweep, Swept, Threads};
use spatialdb_disk::PageId;
use spatialdb_geom::Rect;
use spatialdb_rtree::{DirEntry, LeafEntry, NodeId, NodeIo, NodeKind, ObjectId, RStarTree};
use std::cell::Cell;

/// Result of the MBR join.
#[derive(Clone, Debug, Default)]
pub struct MbrJoinResult {
    /// Candidate pairs `(r-object, s-object)` whose MBRs intersect, in
    /// processing order (ascending x, pinned groups).
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// `ruled_out[i]`: one of the two leaf entries of `pairs[i]` says its
    /// object has no point where the two MBRs meet
    /// ([`Hint::misses`](spatialdb_geom::Hint::misses)), so the objects
    /// are disjoint. Read while the join holds both entries; the pair
    /// stays a candidate — it is transferred and charged like any other —
    /// but needs no exact test.
    pub ruled_out: Vec<bool>,
}

impl MbrJoinResult {
    /// Record the pair of leaf entries `a` (of `r`) and `b` (of `s`).
    #[inline]
    fn push(&mut self, a: &LeafEntry, b: &LeafEntry) {
        let meet = a.mbr.intersection(&b.mbr);
        self.pairs.push((a.oid, b.oid));
        self.ruled_out
            .push(a.hint.misses(&a.mbr, &meet) || b.hint.misses(&b.mbr, &meet));
    }
}

/// Compute all pairs of entries of `r` and `s` whose MBRs intersect.
///
/// Implements the \[BKS93b\] ordering: at every directory level the
/// qualifying pairs of subtrees are processed in ascending order of the
/// smallest x-coordinate of their intersection, and one subtree is
/// processed with **all** of its partners before the next pair is taken
/// up (*pinning*). Together with the LRU buffer behind `io` — the
/// workspace's [`ShardedPool`](spatialdb_disk::ShardedPool), through one
/// session for the whole join (`&mut pool.session()`) — this gives the
/// close-to-optimal page-access behaviour the paper relies on.
///
/// The leaf pairs are swept in blocks on the machine's cores
/// ([`Threads::Machine`]) while the traversal goes on; the traversal's
/// node reads are then replayed into `io` on the calling thread, in its
/// order. Pairs, their order and the node reads depend on the two trees
/// only (the module's *order contract*).
pub fn mbr_join(r: &RStarTree, s: &RStarTree, io: &mut impl NodeIo) -> MbrJoinResult {
    mbr_join_then(r, s, Threads::Machine, |blocks| read_into(blocks, io)).0
}

/// Replay only the node reads of the join's page stream into `io`.
fn read_into(blocks: &mut LeafBlocks<'_, '_>, io: &mut impl NodeIo) {
    replay(blocks, |access| {
        if let Access::Read(page) = access {
            io.read(page);
        }
    });
}

/// Leaf entries a block of leaf pairs holds before it is published: the
/// sum, over its leaf pairs, of both leaves' entry counts. Counted in
/// entries, not pairs, because a pair's sweep costs about what its
/// entries do — ≈ 5.9 µs between 89-entry leaves, ≈ 0.26 µs between the
/// primary organization's small ones (A-1 ⋈ A-2 at scale 0.25, 2 vCPUs)
/// — while handing a block over costs the same whatever it holds. At
/// 4,096 entries a block of large leaves sweeps in ≈ 0.15 ms. A node
/// read weighs nothing: passing it through costs no sweep.
pub(crate) const BLOCK_ENTRIES: usize = 4096;

/// The calling thread's end of the MBR join's block pipeline.
pub(crate) type LeafBlocks<'scope, 'env> = Blocks<'scope, 'env, Visit, SweptBlock, SweepScratch>;

/// The MBR join on `threads` (`k`): the traversal pushes its node reads
/// and its leaf pairs, in its order, into blocks that up to `k − 1`
/// workers sweep meanwhile. Then `consume` takes the swept blocks in
/// order ([`replay`]). Returns the whole result, every block appended in
/// order, and what `consume` returned.
pub(crate) fn mbr_join_then<O>(
    r: &RStarTree,
    s: &RStarTree,
    threads: Threads,
    consume: impl FnOnce(&mut LeafBlocks<'_, '_>) -> O,
) -> (MbrJoinResult, O) {
    pipelined(r, s, threads, &LeafSweep { r, s }, consume)
}

/// [`mbr_join_then`] with the sweep given, so that tests can see which
/// thread swept which block.
fn pipelined<O>(
    r: &RStarTree,
    s: &RStarTree,
    threads: Threads,
    sweep: &dyn Sweep<Visit, SweptBlock, Scratch = SweepScratch>,
    consume: impl FnOnce(&mut LeafBlocks<'_, '_>) -> O,
) -> (MbrJoinResult, O) {
    let mut spares = SPARES.take();
    let out = SweptBlock {
        result: MbrJoinResult {
            pairs: Vec::new(),
            ruled_out: RULED_OUT.take(),
        },
        steps: STEPS.take(),
    };
    let produce = |blocks: &mut LeafBlocks<'_, '_>| {
        if !(r.is_empty() || s.is_empty()) {
            // One scratch level per step the traversal can descend: every
            // step moves the taller side (or both) one level down.
            let mut scratch: Vec<Level> = (0..r.height().max(s.height()))
                .map(|_| Level::default())
                .collect();
            let (rn, sn) = (Subtree::root(r), Subtree::root(s));
            join_nodes(r, s, rn, sn, &mut scratch, blocks);
        }
    };
    let (SweptBlock { result, mut steps }, consumed) = blocks::run(
        threads.limit(),
        BLOCK_ENTRIES,
        &mut spares,
        out,
        sweep,
        produce,
        consume,
    );
    SPARES.set(spares);
    steps.clear();
    STEPS.set(steps);
    (result, consumed)
}

thread_local! {
    /// The calling thread's last `ruled_out` buffer, handed back by
    /// [`SpatialJoin::run`](crate::SpatialJoin::run) once it has read it,
    /// so a join does not grow a fresh one by doubling (as a query reuses
    /// its candidate buffer).
    static RULED_OUT: Cell<Vec<bool>> = const { Cell::new(Vec::new()) };
    /// The replay buffer of the calling thread's last join, for its next
    /// one.
    static STEPS: Cell<Vec<Step>> = const { Cell::new(Vec::new()) };
    /// The block buffers the calling thread's last join emptied, for its
    /// next one.
    static SPARES: Cell<Spares<Visit, SweptBlock>> = Cell::new(Spares::default());
}

/// Hand a read `ruled_out` buffer back for the calling thread's next
/// [`mbr_join`].
pub(crate) fn recycle(mut ruled_out: Vec<bool>) {
    ruled_out.clear();
    RULED_OUT.set(ruled_out);
}

/// What the traversal pushes into the block stream, in its order.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Visit {
    /// A node page the traversal read; its sweep passes it through.
    Read(PageId),
    /// A pair of leaves, to be swept.
    Leaves(LeafPair),
}

/// A pair of leaves the traversal reached, to be swept: the `r` leaf, the
/// `s` leaf, and the intersection of their rectangles, which restricts
/// both entry lists.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LeafPair {
    r: NodeId,
    s: NodeId,
    clip: Rect,
}

/// One step of a swept block's replay, in the traversal's order.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step {
    /// The traversal read this node page.
    Read(PageId),
    /// The candidate pairs one leaf pair's sweep produced: the next this
    /// many of the result. A leaf pair that produced none has no step.
    Pairs(usize),
}

/// A swept block: the pairs and flags of its leaf pairs, and the steps
/// that replay it.
#[derive(Debug, Default)]
pub(crate) struct SweptBlock {
    pub(crate) result: MbrJoinResult,
    steps: Vec<Step>,
}

impl Swept for SweptBlock {
    /// `later`'s pairs and flags go to the end of the result; its steps
    /// *replace* the earlier blocks': [`replay`] replays each block's
    /// steps before it appends the next, so a join holds the steps of one
    /// block at a time, whatever its size.
    fn append(&mut self, later: &mut Self) {
        let (result, more) = (&mut self.result, &mut later.result);
        result.pairs.append(&mut more.pairs);
        result.ruled_out.append(&mut more.ruled_out);
        self.steps.clear();
        self.steps.append(&mut later.steps);
    }
}

/// One access of the join's page stream, as [`replay`] hands it over.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Access<'a> {
    /// The traversal read this node page.
    Read(PageId),
    /// The candidate pairs one leaf pair produced, in order.
    Pairs(&'a [(ObjectId, ObjectId)]),
    /// Every step of a block is replayed: these are its candidate pairs
    /// and their `ruled_out` flags, in order.
    Block(&'a [(ObjectId, ObjectId)], &'a [bool]),
}

/// Take the swept blocks in order and hand `each` the traversal's node
/// reads and its leaf pairs' candidate pairs, in the traversal's order:
/// a leaf pair's pairs come right after the reads of its two leaves, and
/// a block's pairs and flags after its last step.
pub(crate) fn replay(blocks: &mut LeafBlocks<'_, '_>, mut each: impl FnMut(Access<'_>)) {
    let mut done = 0;
    while blocks.next_block() {
        let SweptBlock { result, steps } = blocks.out();
        let first = done;
        for step in steps {
            match *step {
                Step::Read(page) => each(Access::Read(page)),
                Step::Pairs(n) => {
                    each(Access::Pairs(&result.pairs[done..done + n]));
                    done += n;
                }
            }
        }
        each(Access::Block(
            &result.pairs[first..],
            &result.ruled_out[first..],
        ));
    }
}

/// A sweeping thread's restriction scratch: the entries of a leaf pair's
/// two leaves that meet its rectangle, each sized for a full leaf of its
/// tree, so a sweep never grows it.
pub(crate) struct SweepScratch {
    r: Vec<SweepEntry>,
    s: Vec<SweepEntry>,
}

/// The sweep of a block of leaf pairs of `r` and `s`.
struct LeafSweep<'a> {
    r: &'a RStarTree,
    s: &'a RStarTree,
}

impl Sweep<Visit, SweptBlock> for LeafSweep<'_> {
    type Scratch = SweepScratch;

    fn scratch(&self) -> SweepScratch {
        SweepScratch {
            r: Vec::with_capacity(self.r.config().max_entries),
            s: Vec::with_capacity(self.s.config().max_entries),
        }
    }

    /// Every intersecting pair of leaf entries of the block's leaf
    /// pairs, in their order, with its `ruled_out` flag; the node reads
    /// passed through, and after each leaf pair that produced pairs
    /// their number.
    fn sweep(&self, visits: &[Visit], out: &mut SweptBlock, scratch: &mut SweepScratch) {
        let SweepScratch { r: rs, s: ss } = scratch;
        let SweptBlock { result, steps } = out;
        for visit in visits {
            let pair = match visit {
                Visit::Read(page) => {
                    steps.push(Step::Read(*page));
                    continue;
                }
                Visit::Leaves(pair) => pair,
            };
            let before = result.pairs.len();
            let re = self.r.node(pair.r).leaf_entries();
            let se = self.s.node(pair.s).leaf_entries();
            restrict(rs, re.iter().map(|e| e.mbr), &pair.clip);
            restrict(ss, se.iter().map(|e| e.mbr), &pair.clip);
            sweep(rs, ss, |a, b| {
                result.push(&re[a.idx as usize], &se[b.idx as usize])
            });
            let produced = result.pairs.len() - before;
            if produced > 0 {
                steps.push(Step::Pairs(produced));
            }
        }
    }
}

/// A node of one tree with the rectangle bounding its entries: the MBR
/// of its parent's entry for it, its own computed MBR for a root.
#[derive(Clone, Copy)]
struct Subtree {
    id: NodeId,
    rect: Rect,
}

impl Subtree {
    fn root(tree: &RStarTree) -> Self {
        Subtree {
            id: tree.root(),
            rect: tree.mbr(),
        }
    }

    fn child(entry: &DirEntry) -> Self {
        Subtree {
            id: entry.child,
            rect: entry.mbr,
        }
    }
}

/// An entry that survived the restriction to the search space: its
/// rectangle and its index in the node's entry list. What the sweep
/// reads — five words, so an 89-entry node sweeps within 3.5 KB.
#[derive(Clone, Copy, Debug)]
struct SweepEntry {
    mbr: Rect,
    idx: u32,
}

const _: () = assert!(std::mem::size_of::<SweepEntry>() == 40);

/// A qualifying pair of children of two directory nodes, with the
/// \[BKS93b\] sort key it is processed by.
#[derive(Clone, Copy, Debug)]
struct ChildPair {
    /// `xmin` of the `r` child: the pinning groups ascend by it.
    r_xmin: f64,
    /// Smallest x-coordinate of the two children's intersection.
    xlow: f64,
    /// Entry index of the `r` child.
    i: u32,
    /// Entry index of the `s` child.
    j: u32,
}

/// Scratch of one level of the synchronized traversal, reused by every
/// node pair processed at that depth.
#[derive(Debug, Default)]
struct Level {
    r: Vec<SweepEntry>,
    s: Vec<SweepEntry>,
    pairs: Vec<ChildPair>,
}

/// Keep the entries whose rectangle meets `clip`, ascending by `xmin`
/// (ties by entry index — the order a stable sort of the whole node
/// gives them).
fn restrict(into: &mut Vec<SweepEntry>, mbrs: impl Iterator<Item = Rect>, clip: &Rect) {
    into.clear();
    into.extend(
        mbrs.enumerate()
            .filter(|(_, mbr)| mbr.intersects(clip))
            .map(|(idx, mbr)| SweepEntry {
                mbr,
                idx: idx as u32,
            }),
    );
    // The key is total, so the unstable sort (which, unlike the stable
    // one, never allocates) is deterministic.
    into.sort_unstable_by(|a, b| a.mbr.xmin.total_cmp(&b.mbr.xmin).then(a.idx.cmp(&b.idx)));
}

/// Plane sweep over two `xmin`-sorted entry lists: every intersecting
/// `(r, s)` pair, `r`-major, partners in list order. `lo` only moves
/// forward — an `s` entry that ends left of the current `r` entry ends
/// left of all later ones.
fn sweep(rs: &[SweepEntry], ss: &[SweepEntry], mut emit: impl FnMut(&SweepEntry, &SweepEntry)) {
    let mut lo = 0;
    for re in rs {
        while lo < ss.len() && ss[lo].mbr.xmax < re.mbr.xmin {
            lo += 1;
        }
        for se in &ss[lo..] {
            if se.mbr.xmin > re.mbr.xmax {
                break;
            }
            if re.mbr.intersects(&se.mbr) {
                emit(re, se);
            }
        }
    }
}

/// The \[BKS93b\] processing order of the qualifying child pairs of two
/// directory nodes: grouped by the `r` child (ascending xmin of its MBR,
/// then entry index — the *pinning* groups), pairs within one group in
/// ascending order of the intersection's smallest x-coordinate (then
/// entry index of the `s` child).
fn ordered_child_pairs<'a>(
    level: &'a mut Level,
    re: &[DirEntry],
    se: &[DirEntry],
    clip: &Rect,
) -> &'a [ChildPair] {
    let Level { r, s, pairs } = level;
    restrict(r, re.iter().map(|e| e.mbr), clip);
    restrict(s, se.iter().map(|e| e.mbr), clip);
    pairs.clear();
    sweep(r, s, |rc, sc| {
        pairs.push(ChildPair {
            r_xmin: rc.mbr.xmin,
            xlow: rc.mbr.xmin.max(sc.mbr.xmin),
            i: rc.idx,
            j: sc.idx,
        })
    });
    pairs.sort_unstable_by(|a, b| {
        a.r_xmin
            .total_cmp(&b.r_xmin)
            .then(a.i.cmp(&b.i))
            .then(a.xlow.total_cmp(&b.xlow))
            .then(a.j.cmp(&b.j))
    });
    pairs
}

/// Recursive synchronized traversal of the subtrees `rn`/`sn`: pushes
/// its node reads in \[BKS93b\] order to `blocks`, and the leaf pairs
/// it reaches between them.
fn join_nodes(
    r: &RStarTree,
    s: &RStarTree,
    rn: Subtree,
    sn: Subtree,
    scratch: &mut [Level],
    blocks: &mut LeafBlocks<'_, '_>,
) {
    let rnode = r.node(rn.id);
    let snode = s.node(sn.id);
    let (here, below) = scratch
        .split_first_mut()
        .expect("one scratch level per step down the taller tree");
    match (&rnode.kind, &snode.kind) {
        (NodeKind::Leaf(re), NodeKind::Leaf(se)) => {
            // Data page level: the sweep comes later, maybe off this
            // thread.
            let pair = LeafPair {
                r: rn.id,
                s: sn.id,
                clip: rn.rect.intersection(&sn.rect),
            };
            blocks.push(Visit::Leaves(pair), re.len() + se.len());
        }
        (NodeKind::Dir(re), NodeKind::Dir(se)) if rnode.level == snode.level => {
            // The pinned `r` child is read once per pinning group, the
            // `s` child once per pair.
            let clip = rn.rect.intersection(&sn.rect);
            let mut pinned = None;
            for pair in ordered_child_pairs(here, re, se, &clip) {
                let (rc, sc) = (&re[pair.i as usize], &se[pair.j as usize]);
                if pinned != Some(pair.i) {
                    blocks.push(Visit::Read(r.node_page(rc.child)), 0);
                    pinned = Some(pair.i);
                }
                blocks.push(Visit::Read(s.node_page(sc.child)), 0);
                join_nodes(r, s, Subtree::child(rc), Subtree::child(sc), below, blocks);
            }
        }
        _ => {
            // Height difference: descend the taller tree, into the
            // children meeting the other node's MBR in ascending xmin.
            if rnode.level > snode.level {
                let sn = Subtree {
                    rect: snode.mbr(),
                    ..sn
                };
                let re = rnode.dir_entries();
                restrict(&mut here.r, re.iter().map(|e| e.mbr), &sn.rect);
                for e in &here.r {
                    let child = Subtree::child(&re[e.idx as usize]);
                    blocks.push(Visit::Read(r.node_page(child.id)), 0);
                    join_nodes(r, s, child, sn, below, blocks);
                }
            } else {
                let rn = Subtree {
                    rect: rnode.mbr(),
                    ..rn
                };
                let se = snode.dir_entries();
                restrict(&mut here.s, se.iter().map(|e| e.mbr), &rn.rect);
                for e in &here.s {
                    let child = Subtree::child(&se[e.idx as usize]);
                    blocks.push(Visit::Read(s.node_page(child.id)), 0);
                    join_nodes(r, s, rn, child, below, blocks);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::{diagonal, primary_pair, scatter};
    use spatialdb_disk::{Disk, DiskHandle, PageId, ShardedPool};
    use spatialdb_rtree::{LeafEntry, NoIo, RTreeConfig};
    use spatialdb_storage::SpatialStore;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    /// A tree over `rects` (object ids = positions) in its own region of
    /// `disk`, so two operands never share a page address.
    fn build_on(disk: &DiskHandle, name: &str, rects: &[Rect], max_entries: usize) -> RStarTree {
        let mut t = RStarTree::new(
            RTreeConfig {
                max_entries,
                leaf_reinsert_enabled: true,
                leaf_payload_limit: None,
            },
            disk.create_region(name),
        );
        for (i, r) in rects.iter().enumerate() {
            t.insert(LeafEntry::new(*r, ObjectId(i as u64), 0), &mut NoIo);
        }
        t
    }

    fn build(rects: &[Rect]) -> (RStarTree, DiskHandle) {
        let disk = Disk::with_defaults();
        let t = build_on(&disk, "t", rects, 8);
        (t, disk)
    }

    fn grid(n: usize, dx: f64, size: f64) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i % 17) as f64 + dx;
                let y = (i / 17) as f64;
                Rect::new(x, y, x + size, y + size)
            })
            .collect()
    }

    /// FNV-1a over 64-bit words.
    fn checksum(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xCBF2_9CE4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    fn pairs_checksum(pairs: &[(ObjectId, ObjectId)]) -> u64 {
        checksum(pairs.iter().flat_map(|(a, b)| [a.0, b.0]))
    }

    /// Records the page-read sequence of a join.
    #[derive(Default)]
    struct Recorder(Vec<PageId>);

    impl NodeIo for Recorder {
        fn read(&mut self, page: PageId) {
            self.0.push(page);
        }
        fn modify(&mut self, _: PageId) {
            unreachable!("the join only reads")
        }
        fn fresh(&mut self, _: PageId) {
            unreachable!("the join only reads")
        }
        fn release(&mut self, _: PageId) {
            unreachable!("the join only reads")
        }
    }

    /// One seeded tree pair of the order contract, with what the join
    /// did on it before the search space was restricted.
    struct Case {
        name: &'static str,
        max_entries: usize,
        r: Vec<Rect>,
        s: Vec<Rect>,
        /// `(r, s)` tree heights the case is there to cover.
        heights: (u32, u32),
        /// Candidate pairs, and the checksum of their sequence.
        pairs: (usize, u64),
        /// Node reads, and the checksum of their page sequence.
        reads: (usize, u64),
    }

    /// The recorded values come from the parent of the commit that
    /// introduced the restricted search space (unrestricted sort +
    /// backward/forward scan per leaf pair, `Vec` of all child pairs per
    /// directory pair).
    fn cases() -> Vec<Case> {
        vec![
            Case {
                name: "equal heights",
                max_entries: 8,
                r: scatter(1, 400, 0.0, 20.0, 1.5),
                s: scatter(2, 350, 0.5, 20.0, 1.5),
                heights: (4, 4),
                pairs: (796, 0xE7B5_BA06_73A4_9211),
                reads: (412, 0x1C72_FE46_C6B4_F4A0),
            },
            Case {
                name: "r taller",
                max_entries: 8,
                r: scatter(3, 600, 0.0, 20.0, 1.5),
                s: scatter(4, 40, 5.0, 10.0, 1.5),
                heights: (4, 2),
                pairs: (143, 0x3555_D3D0_BD44_D44B),
                reads: (95, 0x8B17_67CD_9DA3_6502),
            },
            Case {
                name: "s taller",
                max_entries: 8,
                r: scatter(5, 40, 5.0, 10.0, 1.5),
                s: scatter(6, 600, 0.0, 20.0, 1.5),
                heights: (2, 4),
                pairs: (142, 0x6E8E_A670_C29E_F398),
                reads: (98, 0xAF83_4AE3_A042_0BC2),
            },
            Case {
                name: "both roots are leaves",
                max_entries: 8,
                r: scatter(7, 7, 0.0, 3.0, 1.5),
                s: scatter(8, 6, 0.5, 3.0, 1.5),
                heights: (1, 1),
                pairs: (8, 0xE19B_D4F8_9E0C_E046),
                reads: (0, 0xCBF2_9CE4_8422_2325),
            },
            Case {
                name: "s root is a leaf",
                max_entries: 8,
                r: scatter(9, 300, 0.0, 20.0, 1.5),
                s: scatter(10, 5, 8.0, 4.0, 2.0),
                heights: (4, 1),
                pairs: (22, 0xFE62_0CDB_CB55_BB51),
                reads: (9, 0x1E5A_7480_9B19_F596),
            },
            Case {
                name: "disjoint maps",
                max_entries: 8,
                r: scatter(11, 120, 0.0, 20.0, 1.5),
                s: scatter(12, 120, 100.0, 20.0, 1.5),
                heights: (3, 3),
                pairs: (0, 0xCBF2_9CE4_8422_2325),
                reads: (0, 0xCBF2_9CE4_8422_2325),
            },
            Case {
                name: "r empty",
                max_entries: 8,
                r: Vec::new(),
                s: scatter(13, 100, 0.0, 20.0, 1.5),
                heights: (1, 3),
                pairs: (0, 0xCBF2_9CE4_8422_2325),
                reads: (0, 0xCBF2_9CE4_8422_2325),
            },
            Case {
                name: "s empty",
                max_entries: 8,
                r: scatter(14, 100, 0.0, 20.0, 1.5),
                s: Vec::new(),
                heights: (3, 1),
                pairs: (0, 0xCBF2_9CE4_8422_2325),
                reads: (0, 0xCBF2_9CE4_8422_2325),
            },
            Case {
                name: "equal heights",
                max_entries: 89,
                r: scatter(15, 3000, 0.0, 60.0, 1.5),
                s: scatter(16, 2800, 0.5, 60.0, 1.5),
                heights: (2, 2),
                pairs: (5122, 0xA624_46A7_9184_DADE),
                reads: (224, 0x0B1B_1F39_6437_5824),
            },
            Case {
                name: "r taller",
                max_entries: 89,
                r: scatter(17, 7000, 0.0, 60.0, 1.0),
                s: scatter(18, 400, 10.0, 30.0, 1.0),
                heights: (3, 2),
                pairs: (812, 0xCDB7_CB82_1276_549A),
                reads: (101, 0x4A16_A769_7BCA_92B1),
            },
            Case {
                name: "s taller",
                max_entries: 89,
                r: scatter(19, 400, 10.0, 30.0, 1.0),
                s: scatter(20, 7000, 0.0, 60.0, 1.0),
                heights: (2, 3),
                pairs: (790, 0x1097_AE2A_2C26_D937),
                reads: (69, 0x0E46_F257_9934_E94F),
            },
            Case {
                name: "both roots are leaves",
                max_entries: 89,
                r: scatter(21, 60, 0.0, 6.0, 1.5),
                s: scatter(22, 50, 0.5, 6.0, 1.5),
                heights: (1, 1),
                pairs: (144, 0x5DE2_A107_0CAA_48EF),
                reads: (0, 0xCBF2_9CE4_8422_2325),
            },
            Case {
                name: "r root is a leaf",
                max_entries: 89,
                r: scatter(23, 70, 20.0, 10.0, 2.0),
                s: scatter(24, 3000, 0.0, 60.0, 1.5),
                heights: (1, 2),
                pairs: (133, 0x49CF_D6F2_819C_5761),
                reads: (3, 0xAA0D_7B94_0AEB_AE51),
            },
            Case {
                name: "disjoint maps",
                max_entries: 89,
                r: scatter(25, 500, 0.0, 20.0, 1.5),
                s: scatter(26, 500, 100.0, 20.0, 1.5),
                heights: (2, 2),
                pairs: (0, 0xCBF2_9CE4_8422_2325),
                reads: (0, 0xCBF2_9CE4_8422_2325),
            },
            Case {
                name: "s empty",
                max_entries: 89,
                r: scatter(27, 500, 0.0, 20.0, 1.5),
                s: Vec::new(),
                heights: (2, 1),
                pairs: (0, 0xCBF2_9CE4_8422_2325),
                reads: (0, 0xCBF2_9CE4_8422_2325),
            },
        ]
    }

    /// Thread counts the order contract is pinned at. The test host may
    /// have one core, so they are forced ([`Threads::Exactly`]).
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn pairs_order_and_reads_are_a_function_of_the_trees() {
        for case in cases() {
            let disk = Disk::with_defaults();
            let r = build_on(&disk, "r", &case.r, case.max_entries);
            let s = build_on(&disk, "s", &case.s, case.max_entries);
            let mut one_thread = None;
            for threads in THREADS {
                let name = format!(
                    "{} (M = {}, {threads} threads)",
                    case.name, case.max_entries
                );
                assert_eq!((r.height(), s.height()), case.heights, "{name}: heights");

                let mut recorder = Recorder::default();
                let threads = Threads::Exactly(threads);
                let read = |blocks: &mut LeafBlocks| read_into(blocks, &mut recorder);
                let res = mbr_join_then(&r, &s, threads, read).0;
                let reads = recorder.0;
                assert_eq!(
                    (res.pairs.len(), pairs_checksum(&res.pairs)),
                    case.pairs,
                    "{name}: pair sequence"
                );
                assert_eq!(
                    (
                        reads.len(),
                        checksum(reads.iter().flat_map(|p| [u64::from(p.region.0), p.offset]))
                    ),
                    case.reads,
                    "{name}: page-read sequence"
                );
                assert_eq!(
                    res.ruled_out.len(),
                    res.pairs.len(),
                    "{name}: one flag a pair"
                );
                let flags = one_thread.get_or_insert_with(|| res.ruled_out.clone());
                assert_eq!(&res.ruled_out, flags, "{name}: ruled_out");

                // The nested-loop oracle: same set, no duplicates.
                let got: HashSet<(u64, u64)> = res.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
                assert_eq!(got.len(), res.pairs.len(), "{name}: duplicate pairs");
                let mut want = HashSet::new();
                for (i, x) in case.r.iter().enumerate() {
                    for (j, y) in case.s.iter().enumerate() {
                        if x.intersects(y) {
                            want.insert((i as u64, j as u64));
                        }
                    }
                }
                assert_eq!(got, want, "{name}");
            }
        }
    }

    /// [`LeafSweep`], recording the thread that swept each block.
    struct Recording<'a> {
        sweep: LeafSweep<'a>,
        threads: mpsc::Sender<ThreadId>,
    }

    impl Sweep<Visit, SweptBlock> for Recording<'_> {
        type Scratch = SweepScratch;

        fn scratch(&self) -> SweepScratch {
            self.sweep.scratch()
        }

        fn sweep(&self, visits: &[Visit], out: &mut SweptBlock, scratch: &mut SweepScratch) {
            let here = std::thread::current().id();
            self.threads
                .send(here)
                .expect("the recorder outlives the join");
            self.sweep.sweep(visits, out, scratch);
        }
    }

    /// The MBR join of `r` and `s` on `threads`: its result, its page
    /// reads, and the thread that swept each block, in the order the
    /// sweeps began.
    fn recorded(
        r: &RStarTree,
        s: &RStarTree,
        threads: Threads,
    ) -> (MbrJoinResult, Vec<PageId>, Vec<ThreadId>) {
        let (sent, swept_on) = mpsc::channel();
        let sweep = Recording {
            sweep: LeafSweep { r, s },
            threads: sent,
        };
        let mut recorder = Recorder::default();
        let read = |blocks: &mut LeafBlocks| read_into(blocks, &mut recorder);
        let (res, ()) = pipelined(r, s, threads, &sweep, read);
        (res, recorder.0, swept_on.try_iter().collect())
    }

    fn reads_checksum(reads: &[PageId]) -> u64 {
        checksum(reads.iter().flat_map(|p| [u64::from(p.region.0), p.offset]))
    }

    /// [`build_on`] with each entry's hint a [`diagonal`].
    fn build_hinted(disk: &DiskHandle, name: &str, rects: &[Rect]) -> RStarTree {
        let mut t = build_on(disk, name, &[], 8);
        for (i, r) in rects.iter().enumerate() {
            let entry = LeafEntry {
                hint: diagonal(i, r),
                ..LeafEntry::new(*r, ObjectId(i as u64), 0)
            };
            t.insert(entry, &mut NoIo);
        }
        t
    }

    /// A join that spans many blocks, with what the two-pass join — every
    /// leaf pair recorded, then swept in contiguous chunks — did on it.
    struct ManyBlocks {
        name: &'static str,
        r: RStarTree,
        s: RStarTree,
        /// Blocks the traversal publishes.
        blocks: usize,
        /// Candidate pairs, and the checksum of their sequence.
        pairs: (usize, u64),
        /// Pairs a leaf entry ruled out, and the checksum of the flags.
        ruled_out: (usize, u64),
        /// Node reads, and the checksum of their page sequence.
        reads: (usize, u64),
    }

    /// M = 8 trees over 3,000 seeded rectangles each, and the two
    /// primary organizations of [`primary_pair`] (five objects to a data
    /// page, so a leaf pair holds about ten entries).
    fn many_block_cases() -> Vec<ManyBlocks> {
        let disk = Disk::with_defaults();
        let (primary_r, primary_s, _) = primary_pair(256);
        vec![
            ManyBlocks {
                name: "M = 8",
                r: build_hinted(&disk, "r", &scatter(31, 3000, 0.0, 15.0, 1.5)),
                s: build_hinted(&disk, "s", &scatter(32, 3000, 0.5, 15.0, 1.5)),
                blocks: 26,
                pairs: (83589, 0x4E4D_7BC1_5A30_13C4),
                ruled_out: (16873, 0xAB2A_BBB2_08EB_A7CE),
                reads: (13746, 0x2469_58BD_7F35_BDDE),
            },
            ManyBlocks {
                name: "primary organization",
                r: primary_r.tree().clone(),
                s: primary_s.tree().clone(),
                blocks: 30,
                pairs: (83620, 0xC66D_4E05_A240_17EF),
                ruled_out: (16968, 0x439D_0EFF_25AA_125F),
                reads: (19659, 0x426A_42C1_EFAD_1083),
            },
        ]
    }

    /// Join `case` at 1, 2, 3 and 8 threads, `rounds` times: the block
    /// count, the pairs, `ruled_out` and the node reads of every join
    /// are those of the one-thread join, whose pair and read sequences
    /// are the two-pass join's.
    fn check_many_blocks(case: &ManyBlocks, rounds: usize) {
        let name = case.name;
        let (one, one_reads, swept_on) = recorded(&case.r, &case.s, Threads::Exactly(1));
        assert!(case.blocks >= 16, "{name}: spans many blocks");
        assert_eq!(swept_on.len(), case.blocks, "{name}: blocks");
        let pairs = (one.pairs.len(), pairs_checksum(&one.pairs));
        assert_eq!(pairs, case.pairs, "{name}: pair sequence");
        let flags = one.ruled_out.iter().map(|&flag| u64::from(flag));
        let ruled_out = (
            one.ruled_out.iter().filter(|&&flag| flag).count(),
            checksum(flags),
        );
        assert_eq!(ruled_out, case.ruled_out, "{name}: ruled_out");
        let reads = (one_reads.len(), reads_checksum(&one_reads));
        assert_eq!(reads, case.reads, "{name}: page-read sequence");
        for _ in 0..rounds {
            for threads in THREADS {
                let at = format!("{name}, {threads} threads");
                let (res, reads, swept_on) = recorded(&case.r, &case.s, Threads::Exactly(threads));
                assert_eq!(swept_on.len(), case.blocks, "{at}: blocks");
                assert!(res.pairs == one.pairs, "{at}: pair sequence");
                assert!(res.ruled_out == one.ruled_out, "{at}: ruled_out");
                assert!(reads == one_reads, "{at}: page-read sequence");
            }
        }
    }

    #[test]
    fn joins_over_many_blocks_match_the_one_thread_join() {
        for case in many_block_cases() {
            check_many_blocks(&case, 1);
        }
    }

    /// The block hand-off under repetition: a race that one run would
    /// miss shows as a pair, flag or read out of place. Release CI runs
    /// it.
    #[test]
    #[ignore = "≈ 1,600 joins; run in release"]
    fn joins_over_many_blocks_match_the_one_thread_join_repeatedly() {
        for case in many_block_cases() {
            check_many_blocks(&case, 200);
        }
    }

    /// A join whose leaf-pair work fits in one block sweeps it on the
    /// calling thread at every thread count, and a one-thread join — a
    /// stream's join op runs `run_par(1)` — sweeps every block there.
    #[test]
    fn small_and_one_thread_joins_sweep_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut single = 0;
        for case in cases() {
            let disk = Disk::with_defaults();
            let r = build_on(&disk, "r", &case.r, case.max_entries);
            let s = build_on(&disk, "s", &case.s, case.max_entries);
            if recorded(&r, &s, Threads::Exactly(1)).2.len() > 1 {
                continue;
            }
            single += 1;
            for threads in THREADS
                .map(Threads::Exactly)
                .into_iter()
                .chain([Threads::Machine])
            {
                let swept_on = recorded(&r, &s, threads).2;
                assert!(
                    swept_on.iter().all(|t| *t == caller),
                    "{}: {threads:?}",
                    case.name
                );
            }
        }
        assert!(single >= 10, "{single} single-block cases");
        for case in many_block_cases() {
            let swept_on = recorded(&case.r, &case.s, Threads::Exactly(1)).2;
            assert_eq!(swept_on.len(), case.blocks);
            assert!(swept_on.iter().all(|t| *t == caller), "{}", case.name);
        }
    }

    /// A [`NodeIo`] that panics with `at` on its read number `at`
    /// (counted from 0).
    struct PanicAt {
        reads: u64,
        at: u64,
    }

    impl NodeIo for PanicAt {
        fn read(&mut self, _: PageId) {
            if self.reads == self.at {
                std::panic::panic_any(self.at);
            }
            self.reads += 1;
        }
        fn modify(&mut self, _: PageId) {
            unreachable!("the join only reads")
        }
        fn fresh(&mut self, _: PageId) {
            unreachable!("the join only reads")
        }
        fn release(&mut self, _: PageId) {
            unreachable!("the join only reads")
        }
    }

    /// A traversal that panics — its first, a middle or its last node
    /// read, so while the first, a middle or the last block fills — ends
    /// the join with the panic's payload at every thread count, with
    /// workers already sweeping earlier blocks.
    #[test]
    fn a_panicking_traversal_ends_the_join_with_its_payload() {
        let case = &many_block_cases()[0];
        let reads = case.reads.0 as u64;
        for threads in THREADS {
            for at in [0, reads / 2, reads - 1] {
                let caught = std::panic::catch_unwind(|| {
                    let mut io = PanicAt { reads: 0, at };
                    let read = |blocks: &mut LeafBlocks| read_into(blocks, &mut io);
                    mbr_join_then(&case.r, &case.s, Threads::Exactly(threads), read)
                });
                let payload = caught.expect_err("the traversal panics");
                assert_eq!(
                    payload.downcast_ref::<u64>(),
                    Some(&at),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn join_matches_brute_force() {
        let ra = grid(150, 0.0, 0.7);
        let rb = grid(130, 0.3, 0.7);
        let (ta, disk) = build(&ra);
        let (tb, _) = build(&rb);
        let pool = ShardedPool::new(disk, 256);
        let res = mbr_join(&ta, &tb, &mut pool.session());
        let got: HashSet<(u64, u64)> = res.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
        let mut want = HashSet::new();
        for (i, x) in ra.iter().enumerate() {
            for (j, y) in rb.iter().enumerate() {
                if x.intersects(y) {
                    want.insert((i as u64, j as u64));
                }
            }
        }
        assert_eq!(got, want);
        assert_eq!(got.len(), res.pairs.len(), "no duplicate pairs");
    }

    #[test]
    fn join_with_different_heights() {
        let ra = grid(400, 0.0, 0.6); // taller tree
        let rb = grid(20, 0.2, 0.6);
        let (ta, disk) = build(&ra);
        let (tb, _) = build(&rb);
        let pool = ShardedPool::new(disk, 256);
        let res = mbr_join(&ta, &tb, &mut pool.session());
        let brute: usize = ra
            .iter()
            .map(|x| rb.iter().filter(|y| x.intersects(y)).count())
            .sum();
        assert_eq!(res.pairs.len(), brute);
        // Symmetric case.
        let disk2 = Disk::with_defaults();
        let pool2 = ShardedPool::new(disk2, 256);
        let res2 = mbr_join(&tb, &ta, &mut pool2.session());
        assert_eq!(res2.pairs.len(), brute);
    }

    #[test]
    fn empty_trees_join_to_nothing() {
        let (ta, disk) = build(&[]);
        let (tb, _) = build(&grid(10, 0.0, 0.5));
        let pool = ShardedPool::new(disk, 64);
        assert!(mbr_join(&ta, &tb, &mut pool.session()).pairs.is_empty());
        assert!(mbr_join(&tb, &ta, &mut pool.session()).pairs.is_empty());
    }

    #[test]
    fn disjoint_data_sets_produce_no_pairs() {
        let ra = grid(50, 0.0, 0.4);
        let rb: Vec<Rect> = grid(50, 0.0, 0.4)
            .iter()
            .map(|r| Rect::new(r.xmin + 100.0, r.ymin, r.xmax + 100.0, r.ymax))
            .collect();
        let (ta, disk) = build(&ra);
        let (tb, _) = build(&rb);
        let pool = ShardedPool::new(disk, 64);
        assert!(mbr_join(&ta, &tb, &mut pool.session()).pairs.is_empty());
    }

    #[test]
    fn buffer_reduces_io_with_ordering() {
        let ra = grid(500, 0.0, 0.8);
        let rb = grid(500, 0.4, 0.8);
        let (ta, da) = build(&ra);
        let (tb, _) = build(&rb);
        // Big buffer: most pages read once.
        let big = ShardedPool::new(da.clone(), 4096);
        let before = da.stats();
        let res = mbr_join(&ta, &tb, &mut big.session());
        let big_reads = da.stats().since(&before).pages_read;
        assert!(!res.pairs.is_empty());
        // Tiny buffer: strictly more page reads.
        let before = da.stats();
        let small = ShardedPool::new(da.clone(), 16);
        mbr_join(&ta, &tb, &mut small.session());
        let small_reads = da.stats().since(&before).pages_read;
        assert!(small_reads >= big_reads);
        // With a reasonable buffer and x-ordering, close to one read per
        // node ("most pages transferred into main memory only once").
        let nodes = (ta.num_nodes() + tb.num_nodes()) as u64;
        assert!(
            big_reads <= nodes + nodes / 4,
            "{big_reads} reads for {nodes} nodes"
        );
    }
}
