//! Step 3 and the complete intersection-join pipeline (§6.3,
//! [`SpatialJoin::run`]). Every page access charges the disk both
//! operands live on, through the buffer pool they share, on the calling
//! thread and in one pool session: the MBR join's node reads and the
//! object transfer's fetches, replayed in the traversal's order.
//! [`SpatialJoin::run`] adds the charges of each call to the bar of the
//! step that made it (Figure 17). Only the MBR join's leaf-pair sweeps,
//! which read no page, run on other threads — beside the traversal.

use crate::mbr_join::{mbr_join_then, recycle, replay, Access, MbrJoinResult};
use crate::transfer::{candidate_sets, fetch_pairs};
use spatialdb_disk::blocks::Threads;
use spatialdb_disk::{IoStats, PoolSession};
use spatialdb_rtree::ObjectId;
use spatialdb_storage::{SpatialStore, TransferTechnique};
use std::collections::HashSet;

/// CPU cost of one exact geometry test in milliseconds. §6.3: with the
/// decomposed representation \[SK91\] *"one test needs roughly
/// 0.75 msec"*.
pub const EXACT_TEST_MS: f64 = 0.75;

/// Cost breakdown of a complete intersection join (the bars of
/// Figure 17).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JoinStats {
    /// Candidate pairs produced by the MBR join — all of them, those a
    /// leaf entry ruled out included.
    pub mbr_pairs: u64,
    /// I/O time of the MBR join in milliseconds.
    pub mbr_join_ms: f64,
    /// I/O time of the object transfer in milliseconds.
    pub transfer_ms: f64,
}

impl JoinStats {
    /// CPU time of the exact geometry tests in milliseconds: one
    /// [`EXACT_TEST_MS`] per candidate pair.
    pub fn exact_test_ms(&self) -> f64 {
        EXACT_TEST_MS * self.mbr_pairs as f64
    }

    /// Total cost in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.mbr_join_ms + self.transfer_ms + self.exact_test_ms()
    }

    /// I/O-only cost in seconds (Figures 14 and 16 report I/O cost).
    pub fn io_seconds(&self) -> f64 {
        (self.mbr_join_ms + self.transfer_ms) / 1000.0
    }
}

/// A spatial join between two [`SpatialStore`] backends sharing one
/// buffer pool (and with it the disk under the pool).
///
/// Joins are pure reads: the operands are borrowed immutably, all I/O
/// state lives behind the shared pool/disk locks.
pub struct SpatialJoin<'a> {
    r: &'a dyn SpatialStore,
    s: &'a dyn SpatialStore,
}

impl std::fmt::Debug for SpatialJoin<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The operands are trait objects; identify them by backend name.
        f.debug_struct("SpatialJoin")
            .field("r", &self.r.name())
            .field("s", &self.s.name())
            .finish()
    }
}

impl<'a> SpatialJoin<'a> {
    /// Prepare a join. Both stores must share the same buffer pool (the
    /// paper's joins run on one machine with one buffer); a store is
    /// built on one pool, so they then charge one disk.
    ///
    /// # Panics
    ///
    /// Panics if the stores do not share one pool.
    pub fn new(r: &'a dyn SpatialStore, s: &'a dyn SpatialStore) -> Self {
        assert!(
            std::sync::Arc::ptr_eq(&r.pool(), &s.pool()),
            "join operands must share one buffer pool"
        );
        SpatialJoin { r, s }
    }

    /// Run the MBR join and the object transfer under `technique` — the
    /// two disk-based steps — and return the candidate pairs the exact
    /// test must decide, in processing order, the cost breakdown, and
    /// the I/O of both steps together. The exact test (step 3) is the
    /// caller's, its CPU cost [`JoinStats::exact_test_ms`].
    ///
    /// Every MBR pair counts, as in the paper: [`JoinStats::mbr_pairs`]
    /// and the transfer see all of them. Only the pairs a leaf entry
    /// ruled out ([`MbrJoinResult::ruled_out`]) are not returned.
    ///
    /// The two steps run as one pipeline on `threads` (`k`; see
    /// [`mbr_join`](mod@crate::mbr_join)): the traversal pushes its node
    /// reads and the leaf pairs it reaches into blocks, which up to
    /// `k − 1` workers sweep while it goes on. Then **one** pool session
    /// replays the swept blocks in order, sweeping a block itself when
    /// the next one is not ready: a node read is a page read, and a leaf
    /// pair the fetches of its candidate pairs, made while the pages the
    /// traversal has just read are still buffered — a primary
    /// organization's object is in its leaf's data page (§3.2.2). The
    /// techniques that read the candidate set replay every read first
    /// and fetch once the last block is in. Each call's charges go to
    /// the bar of the step that made it ([`JoinStats::mbr_join_ms`],
    /// [`JoinStats::transfer_ms`]), taken here at the call. Every page
    /// access is the calling thread's, in the order one thread makes
    /// them, so the result, the stats and the I/O are the same at every
    /// thread count.
    ///
    /// [`MbrJoinResult::ruled_out`]: crate::MbrJoinResult::ruled_out
    pub fn run(
        &self,
        technique: TransferTechnique,
        threads: Threads,
    ) -> (Vec<(ObjectId, ObjectId)>, JoinStats, IoStats) {
        let (disk, pool) = (self.r.disk(), self.r.pool());
        let mut session = pool.session();
        // The thread's tally after the last measured call.
        let mut tally = disk.local_stats();
        let mut charged = |session: &mut PoolSession<'_>, step: &mut IoStats| {
            session.charge_queued();
            let now = disk.local_stats();
            *step = step.plus(&now.since(&tally));
            tally = now;
        };
        let (mut mbr_join_io, mut transfer_io) = (IoStats::new(), IoStats::new());
        // A technique that reads the candidate set needs every pair
        // before its first fetch.
        let waits = technique.reads_candidate_set();
        let none = HashSet::new();
        let (r, s) = (self.r.tree(), self.s.tree());
        let (candidates, ()) = mbr_join_then(r, s, threads, |blocks| {
            replay(blocks, |access| match access {
                Access::Read(page) => {
                    // A hit charges nothing.
                    if !session.read_page(page) {
                        charged(&mut session, &mut mbr_join_io);
                    }
                }
                Access::Pairs(pairs) if !waits => {
                    let needed = (&none, &none);
                    fetch_pairs(self.r, self.s, pairs, needed, technique, &mut session);
                    charged(&mut session, &mut transfer_io);
                }
                Access::Pairs(_) => {}
            });
            if waits {
                let pairs = &blocks.out().result.pairs;
                let (needed_r, needed_s) = candidate_sets(pairs, technique);
                let needed = (&needed_r, &needed_s);
                fetch_pairs(self.r, self.s, pairs, needed, technique, &mut session);
                charged(&mut session, &mut transfer_io);
            }
        });
        // Release the shard lock and count the hits and misses.
        drop(session);
        let stats = JoinStats {
            mbr_pairs: candidates.pairs.len() as u64,
            mbr_join_ms: mbr_join_io.io_ms,
            transfer_ms: transfer_io.io_ms,
        };
        let MbrJoinResult {
            mut pairs,
            ruled_out,
        } = candidates;
        let mut flags = ruled_out.iter();
        pairs.retain(|_| flags.next() == Some(&false));
        recycle(ruled_out);
        (pairs, stats, mbr_join_io.plus(&transfer_io))
    }

    /// [`run`](SpatialJoin::run)'s cost breakdown alone. Kept only
    /// because the repo benchmark's layer probes call it; the change to
    /// the benchmark's contract deletes it.
    pub fn run_io_only(&self, technique: TransferTechnique) -> JoinStats {
        self.run(technique, Threads::Machine).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::primary_pair;
    use spatialdb_disk::Disk;
    use spatialdb_disk::PoolSession;
    use spatialdb_geom::Rect;
    use spatialdb_rtree::NoIo;
    use spatialdb_rtree::ObjectId;
    use spatialdb_storage::{
        new_shared_pool, ClusterConfig, ClusterOrganization, ObjectRecord, PrimaryOrganization,
        SecondaryOrganization, SharedPool,
    };
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    type Store = Box<dyn SpatialStore>;

    fn build_pair(buffer: usize, cluster: bool) -> (Store, Store, SharedPool) {
        let pool = new_shared_pool(Disk::with_defaults(), buffer);
        let empty = || -> Store {
            if cluster {
                Box::new(ClusterOrganization::new(
                    pool.clone(),
                    ClusterConfig::plain(16 * 1024),
                ))
            } else {
                Box::new(SecondaryOrganization::new(pool.clone()))
            }
        };
        let (mut r, mut s) = (empty(), empty());
        for i in 0..300u64 {
            let x = (i % 20) as f64 / 20.0;
            let y = (i / 20) as f64 / 20.0;
            r.insert(&ObjectRecord::new(
                ObjectId(i),
                Rect::new(x, y, x + 0.04, y + 0.04),
                700,
            ));
            s.insert(&ObjectRecord::new(
                ObjectId(i),
                Rect::new(x + 0.02, y, x + 0.06, y + 0.04),
                700,
            ));
        }
        r.flush();
        s.flush();
        r.begin_query();
        s.begin_query();
        (r, s, pool)
    }

    /// The cost breakdown of joining `r` and `s` under complete
    /// transfer.
    fn complete(r: &dyn SpatialStore, s: &dyn SpatialStore) -> JoinStats {
        SpatialJoin::new(r, s)
            .run(TransferTechnique::Complete, Threads::Machine)
            .1
    }

    #[test]
    fn pipeline_produces_pairs_and_costs() {
        let (r, s, _) = build_pair(512, false);
        let (pairs, stats, io) =
            SpatialJoin::new(&*r, &*s).run(TransferTechnique::Complete, Threads::Machine);
        assert_eq!(stats.mbr_pairs, pairs.len() as u64);
        assert!(stats.mbr_pairs > 0);
        assert!(stats.mbr_join_ms > 0.0);
        assert!(stats.transfer_ms > 0.0);
        assert_eq!(io.io_ms, stats.mbr_join_ms + stats.transfer_ms);
        assert_eq!(stats.exact_test_ms(), 0.75 * stats.mbr_pairs as f64);
        assert!(stats.total_ms() > stats.transfer_ms);
    }

    #[test]
    fn cluster_join_cheaper_than_secondary() {
        let (rs, ss, _) = build_pair(256, false);
        let sec = complete(&*rs, &*ss);
        let (rc, sc, _) = build_pair(256, true);
        let clu = complete(&*rc, &*sc);
        assert_eq!(sec.mbr_pairs, clu.mbr_pairs, "same candidates");
        assert!(
            clu.transfer_ms < sec.transfer_ms,
            "cluster {} vs secondary {}",
            clu.transfer_ms,
            sec.transfer_ms
        );
    }

    #[test]
    fn pair_count_independent_of_buffer_size() {
        let (a, b, _) = build_pair(128, true);
        let small = complete(&*a, &*b);
        let (c, d, _) = build_pair(4096, true);
        let big = complete(&*c, &*d);
        assert_eq!(small.mbr_pairs, big.mbr_pairs);
        assert!(big.io_seconds() <= small.io_seconds() + 1e-9);
    }

    /// A join of many blocks ([`primary_pair`]) hands the disk the same
    /// requests at every thread count: pairs, stats, I/O, the pool's hits
    /// and misses and the `Disk::traced` request sequence are the
    /// one-thread join's.
    ///
    /// Its numbers follow from those of the join that transferred the
    /// objects after its whole traversal: (83,620, 35,968.0, 35,744.0),
    /// 4,482 requests, 242,333 hits and 5,451 misses. Every fetch hits a
    /// data page the traversal has just read
    /// ([`a_primary_transfer_hits_the_pages_just_read`]), so the MBR-join
    /// bar keeps its 35,968 ms, the transfer's 2,234 one-page requests
    /// (35,744 ms at 16 ms each) are gone, and the same 247,784 page
    /// accesses count 2,234 misses fewer.
    #[test]
    fn a_primary_join_over_many_blocks_charges_the_same_at_every_thread_count() {
        let join = |threads: usize| {
            let (r, s, pool) = primary_pair(400);
            let ((pairs, stats, io), trace) = pool.disk().traced(|| {
                SpatialJoin::new(&r, &s).run(TransferTechnique::Complete, Threads::Exactly(threads))
            });
            (pairs, stats, io, trace, (pool.hits(), pool.misses()))
        };
        let one = join(1);
        let stats = (one.1.mbr_pairs, one.1.mbr_join_ms, one.1.transfer_ms);
        assert_eq!(stats, (83620, 35968.0, 0.0), "stats");
        assert_eq!(one.3.len(), 2248, "requests: the node reads' misses");
        assert_eq!(one.4, (244_567, 3217), "hits and misses");
        for threads in [2, 3, 8] {
            let got = join(threads);
            assert!(got.0 == one.0, "{threads} threads: pairs");
            assert_eq!(got.1, one.1, "{threads} threads: stats");
            assert_eq!(got.2, one.2, "{threads} threads: I/O");
            assert!(got.3 == one.3, "{threads} threads: request sequence");
            assert_eq!(got.4, one.4, "{threads} threads: pool hits and misses");
        }
    }

    /// The oracle of the transfer's timing: a primary-organization
    /// object lives in its leaf's data page (§3.2.2) — [`primary_pair`]'s
    /// 700-byte objects five to a page, with no overflow run — and each
    /// leaf pair's objects are fetched right after the traversal read
    /// its two leaves, so every fetch hits, even in a buffer of 64
    /// pages.
    #[test]
    fn a_primary_transfer_hits_the_pages_just_read() {
        for buffer in [64, 128, 400] {
            let (r, s, _) = primary_pair(buffer);
            let stats = complete(&r, &s);
            assert!(stats.mbr_join_ms > 0.0, "{buffer} pages");
            assert_eq!(stats.transfer_ms, 0.0, "{buffer} pages");
        }
    }

    /// A foreign store that sends the id of every `fetch_for_join` call
    /// to its log, and panics with the call's number on call `panic_at`
    /// (counted from 0, or from the last [`Watched::restart`]).
    struct Watched {
        store: PrimaryOrganization,
        panic_at: Option<usize>,
        calls: AtomicUsize,
        fetched: mpsc::Sender<ObjectId>,
    }

    impl Watched {
        /// The store and the receiving end of its log.
        fn new(store: PrimaryOrganization) -> (Self, mpsc::Receiver<ObjectId>) {
            let (fetched, log) = mpsc::channel();
            let watched = Watched {
                store,
                panic_at: None,
                calls: AtomicUsize::new(0),
                fetched,
            };
            (watched, log)
        }

        /// Count calls from 0 again, panicking on call `panic_at`.
        fn restart(&mut self, panic_at: usize) {
            self.panic_at = Some(panic_at);
            *self.calls.get_mut() = 0;
        }
    }

    /// The ids logged since the last call, in order.
    fn take_log(log: &mpsc::Receiver<ObjectId>) -> Vec<ObjectId> {
        log.try_iter().collect()
    }

    impl SpatialStore for Watched {
        fn name(&self) -> &'static str {
            "watched"
        }
        fn insert(&mut self, rec: &ObjectRecord) {
            self.store.insert(rec)
        }
        fn delete(&mut self, oid: ObjectId) -> bool {
            self.store.delete(oid)
        }
        fn window_query_into(
            &self,
            window: &Rect,
            technique: spatialdb_storage::WindowTechnique,
            out: &mut Vec<spatialdb_rtree::LeafEntry>,
        ) -> u64 {
            self.store.window_query_into(window, technique, out)
        }
        fn fetch_for_join(
            &self,
            oid: ObjectId,
            needed: &HashSet<ObjectId>,
            technique: TransferTechnique,
            session: &mut PoolSession<'_>,
        ) {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            self.fetched.send(oid).expect("the log outlives the store");
            if self.panic_at == Some(call) {
                std::panic::panic_any(call);
            }
            self.store.fetch_for_join(oid, needed, technique, session)
        }
        fn occupied_pages(&self) -> u64 {
            self.store.occupied_pages()
        }
        fn contains(&self, oid: ObjectId) -> bool {
            self.store.contains(oid)
        }
        fn pool(&self) -> SharedPool {
            self.store.pool()
        }
        fn tree(&self) -> &spatialdb_rtree::RStarTree {
            self.store.tree()
        }
        fn flush(&mut self) {
            self.store.flush()
        }
        fn begin_query(&mut self) {
            self.store.begin_query()
        }
        fn check_consistency(&self) -> Result<(), String> {
            self.store.check_consistency()
        }
    }

    /// Fetching each leaf pair's objects as the traversal reaches it
    /// moves when the fetches happen, not their order: at every thread
    /// count, both operands see the ids [`transfer_objects`] fetches
    /// over the MBR join's pairs, in the same order.
    #[test]
    fn the_join_fetches_in_the_order_of_its_pairs() {
        let (r, s, _) = primary_pair(64);
        let ((r, r_log), (s, s_log)) = (Watched::new(r), Watched::new(s));
        let pairs = crate::mbr_join(r.tree(), s.tree(), &mut NoIo).pairs;
        crate::transfer_objects(&r, &s, &pairs, TransferTechnique::Complete);
        let want = (take_log(&r_log), take_log(&s_log));
        assert_eq!(want.0.len(), pairs.len());
        for threads in [1, 2, 3, 8] {
            SpatialJoin::new(&r, &s).run(TransferTechnique::Complete, Threads::Exactly(threads));
            let got = (take_log(&r_log), take_log(&s_log));
            assert!(got == want, "{threads} threads: fetch order");
        }
    }

    /// A transfer that panics — fetching the first pair, a middle one
    /// or the last, so in the first, a middle or the last block — ends
    /// the join with the panic's payload at every thread count, whatever
    /// the workers are sweeping meanwhile.
    #[test]
    fn a_panicking_transfer_ends_the_join_with_its_payload() {
        let (r, s, _) = primary_pair(400);
        let (pairs, ..) =
            SpatialJoin::new(&r, &s).run(TransferTechnique::Complete, Threads::Exactly(1));
        let candidates = complete(&r, &s).mbr_pairs as usize;
        assert!(pairs.len() < candidates);
        let (mut store, _log) = Watched::new(s);
        for threads in [1, 2, 3, 8] {
            for at in [0, candidates / 2, candidates - 1] {
                store.restart(at);
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    SpatialJoin::new(&r, &store)
                        .run(TransferTechnique::Complete, Threads::Exactly(threads))
                }));
                let payload = caught.expect_err("the transfer panics");
                assert_eq!(
                    payload.downcast_ref::<usize>(),
                    Some(&at),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "share one buffer pool")]
    fn rejects_distinct_pools() {
        let disk = Disk::with_defaults();
        let a = SecondaryOrganization::new(new_shared_pool(disk.clone(), 64));
        let b = SecondaryOrganization::new(new_shared_pool(disk, 64));
        let _ = SpatialJoin::new(&a, &b);
    }
}
