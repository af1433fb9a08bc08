//! # spatialdb-join
//!
//! The spatial (intersection) join of §6 of Brinkhoff & Kriegel,
//! VLDB 1994, built on the R\*-tree join of \[BKS93b\] (Brinkhoff, Kriegel,
//! Seeger, SIGMOD 1993).
//!
//! A complete intersection join runs in three steps (§6.3, \[BKSS94\]):
//!
//! 1. **MBR join** ([`mbr_join()`]): synchronized traversal of the two
//!    R\*-trees. Pairs of intersecting directory entries are processed in
//!    ascending order of their smallest x-coordinate, with one subtree
//!    *pinned* against all its partners before moving on — combined with
//!    an LRU buffer of reasonable size this reads most tree pages only
//!    once. Every node pair is swept in its *restricted search space*:
//!    only the entries meeting the intersection of the two nodes'
//!    rectangles are sorted and compared. The traversal runs on the
//!    calling thread and publishes its node reads and the leaf pairs it
//!    reaches in blocks, which worker threads sweep while it goes on;
//!    the calling thread then replays them in the traversal's order.
//!    **Order contract:** the candidate pairs, their order and the node
//!    reads are a function of the two trees only, whatever the thread
//!    count (see [`mbr_join`](mod@mbr_join)). Emitting a
//!    pair, the join also records whether either leaf entry's cell mask
//!    rules it out ([`MbrJoinResult::ruled_out`], \[BKSS94\]'s second
//!    filter step).
//! 2. **Object transfer** ([`transfer`]): the exact representations of
//!    all candidate objects are fetched from the organization models.
//!    Unlike a window query, the join *"may read an object in an
//!    unpredictable manner many times"* (§6.2) — what gets re-read is
//!    decided by the shared LRU buffer, which is why Figures 14 and 16
//!    sweep the buffer size. The cluster organization supports the
//!    transfer techniques *complete*, *vector read*, *read* and
//!    *optimum* — the techniques of the pool's one unit read,
//!    `PoolSession::read_extent`, which window queries use too.
//! 3. **Exact geometry test**: each candidate pair not ruled out is
//!    tested on the decomposed representations; the paper charges
//!    ≈ 0.75 msec of CPU time per candidate pair ([`EXACT_TEST_MS`],
//!    charged by [`JoinStats::exact_test_ms`] for every MBR pair).
//!
//! [`SpatialJoin::run`] runs steps 1 and 2 through one pool session and
//! measures each at its calls, the two bars of Figure 17 that cost I/O:
//! the transfer fetches each leaf pair's objects right after the
//! traversal's reads of its two leaves, while they are still buffered.
//! Given an [`ExactTest`], it runs step 3 too, beside the transfer: the
//! replay hands each block's undecided pairs to a second queue, whose
//! workers test them while it goes on, and the caller collects the
//! verdicts in block order. The engine's `JoinQuery` is its one caller:
//! it passes the test when both operands hold every object's geometry
//! and the join has more than one thread, and otherwise runs step 3
//! itself, as its cursor is drained.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mbr_join;
pub mod pipeline;
pub mod transfer;

#[cfg(test)]
mod test_data;

pub use mbr_join::{mbr_join, MbrJoinResult};
pub use pipeline::{ExactTest, JoinStats, Joined, SpatialJoin, EXACT_TEST_MS};
pub use transfer::transfer_objects;
