//! The shared disk accounting object.

use crate::arm::PageRequest;
use crate::lockdep::{DepMutex, LockClass};
use crate::model::{DiskParams, PageRun, RegionId};
use crate::stats::{IoKind, IoStats};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// A shared handle to a [`Disk`].
///
/// All components of one experiment (organization models, buffers,
/// allocators, the join) share a single disk so that the reported I/O time
/// is the total the paper reports. `Arc` because the storage stack is
/// `Send + Sync`: queries may run on several threads, all charging the
/// same disk.
pub type DiskHandle = Arc<Disk>;

thread_local! {
    /// Per-thread I/O tally: every charge on *this* thread is mirrored
    /// here, whichever disk it hits. A query snapshots the tally before
    /// and after its I/O and reports the difference — a delta that stays
    /// correct when other threads charge the same disk concurrently
    /// (a global-counter delta would attribute their requests to us).
    static THREAD_TALLY: Cell<IoStats> = Cell::new(IoStats::new());

    /// Per-thread request trace: while armed (inside [`Disk::traced`]),
    /// every `charge` on this thread is also recorded as a
    /// [`PageRequest`]. Like the tally, the trace is
    /// thread-local — it captures exactly the requests the current
    /// thread issues, which is what turns any synchronous filter step
    /// into a replayable trace for the arm scheduler.
    static THREAD_TRACE: RefCell<Option<Vec<PageRequest>>> = const { RefCell::new(None) };
}

/// The simulated disk: cost parameters plus accumulated statistics.
///
/// The disk does not store page *contents* — all experiments are driven by
/// I/O cost, and the storage layer keeps its own in-memory state. What the
/// disk provides is (a) region id allocation and (b) request cost
/// accounting via [`Disk::charge`].
///
/// The cumulative counters live behind a mutex, so a `Disk` can be
/// charged from any thread. Per-query deltas should be taken against
/// [`Disk::local_stats`] (the calling thread's tally), not against the
/// global [`Disk::stats`].
#[derive(Debug)]
pub struct Disk {
    params: DiskParams,
    state: DepMutex<DiskState>,
}

#[derive(Debug, Default)]
struct DiskState {
    stats: IoStats,
    next_region: u16,
    region_names: Vec<String>,
}

impl Disk {
    /// Create a disk with the given parameters.
    pub fn new(params: DiskParams) -> DiskHandle {
        Arc::new(Disk {
            params,
            state: DepMutex::new(LockClass::DiskCounters, DiskState::default()),
        })
    }

    /// Create a disk with the paper's default parameters
    /// (`t_s` = 9 ms, `t_l` = 6 ms, `t_t` = 1 ms / 4 KB page).
    pub fn with_defaults() -> DiskHandle {
        Self::new(DiskParams::default())
    }

    /// The cost parameters.
    #[inline]
    pub fn params(&self) -> DiskParams {
        self.params
    }

    /// Allocate a fresh region (an independent file / storage area).
    pub fn create_region(&self, name: &str) -> RegionId {
        let mut st = self.state.acquire();
        let id = RegionId(st.next_region);
        st.next_region = st
            .next_region
            .checked_add(1)
            .expect("region id space exhausted");
        st.region_names.push(name.to_string());
        id
    }

    /// Name a region was created with (for diagnostics).
    pub fn region_name(&self, region: RegionId) -> String {
        self.state.acquire().region_names[region.0 as usize].clone()
    }

    /// Charge one request transferring the `run`, paying seek + latency +
    /// per-page transfer; `skip_seek` drops the seek component (subsequent
    /// requests within one cluster unit, §5.4.3). Returns the cost in
    /// milliseconds. Empty runs are free and not recorded.
    ///
    /// The one-request form of [`charge_all`](Disk::charge_all): a pool
    /// session queues its requests and charges them when it ends; a
    /// store's direct writes charge here.
    pub fn charge(&self, kind: IoKind, run: PageRun, skip_seek: bool) -> f64 {
        if run.is_empty() {
            return 0.0;
        }
        self.charge_all(&[PageRequest {
            kind,
            run,
            skip_seek,
        }]);
        self.params.request_ms(run.len, skip_seek)
    }

    /// Charge `requests` one by one, in order: into the global counters
    /// under **one** acquisition of their lock, into the calling
    /// thread's tally, and into the thread's [`traced`](Disk::traced)
    /// capture if one is armed. Each sink adds the requests in the
    /// order given, so every `io_ms` sum is bit-identical to charging
    /// them one [`charge`](Disk::charge) at a time. Empty runs are free
    /// and not recorded.
    ///
    /// A [`PoolSession`](crate::shard::PoolSession) calls this once,
    /// when it ends, after releasing its shard lock.
    pub fn charge_all(&self, requests: &[PageRequest]) {
        let charged = || requests.iter().filter(|r| !r.run.is_empty());
        let mut tally = THREAD_TALLY.with(Cell::get);
        {
            let mut state = self.state.acquire();
            let mut stats = state.stats;
            for r in charged() {
                let cost = self.params.request_ms(r.run.len, r.skip_seek);
                stats.record(r.kind, r.run.len, cost, !r.skip_seek);
                tally.record(r.kind, r.run.len, cost, !r.skip_seek);
            }
            state.stats = stats;
        }
        THREAD_TALLY.with(|t| t.set(tally));
        THREAD_TRACE.with(|t| {
            if let Some(trace) = t.borrow_mut().as_mut() {
                trace.extend(charged().copied());
            }
        });
    }

    /// Run `f` and capture this thread's requests meanwhile: every
    /// non-empty request [`charge`](Disk::charge) or
    /// [`charge_all`](Disk::charge_all) records on the calling thread
    /// while `f` runs is also recorded as a [`PageRequest`] (whichever
    /// disk it hits, like the thread tally) and returned beside `f`'s
    /// result. The capture ends with `f`, also when `f` unwinds.
    ///
    /// [`charge_raw`](Disk::charge_raw) is *not* traced: the optimum
    /// baselines it serves charge analytical lower-bound costs that do
    /// not correspond to physical page runs, so they cannot be scheduled
    /// on an arm.
    ///
    /// # Panics
    ///
    /// Panics when called inside `f` of another capture on the same
    /// thread: captures do not nest.
    pub fn traced<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<PageRequest>) {
        /// Disarms the thread's trace when the capture ends, however it
        /// ends.
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                THREAD_TRACE.with(|t| *t.borrow_mut() = None);
            }
        }
        THREAD_TRACE.with(|t| {
            let armed = t.borrow_mut().replace(Vec::new());
            assert!(armed.is_none(), "Disk::traced: captures do not nest");
        });
        let _disarm = Disarm;
        let result = f();
        let trace = THREAD_TRACE.with(|t| t.borrow_mut().take().unwrap_or_default());
        (result, trace)
    }

    /// Charge an already-computed cost for a request of `pages` pages.
    ///
    /// Its one caller is the *optimum* technique of
    /// [`PoolSession::read_extent`](crate::shard::PoolSession::read_extent)
    /// — the baseline of Figures 10 and 16, which charges exactly one
    /// seek and one latency per cluster unit plus the minimum number of
    /// transfers, a cost that does not correspond to a real run of
    /// consecutive pages. The session charges the requests it has
    /// queued first, so the order of the charges holds.
    pub fn charge_raw(&self, kind: IoKind, pages: u64, cost_ms: f64, seeked: bool) {
        self.state
            .acquire()
            .stats
            .record(kind, pages, cost_ms, seeked);
        THREAD_TALLY.with(|t| {
            let mut local = t.get();
            local.record(kind, pages, cost_ms, seeked);
            t.set(local);
        });
    }

    /// Snapshot of the accumulated statistics (all threads).
    pub fn stats(&self) -> IoStats {
        self.state.acquire().stats
    }

    /// Snapshot of the calling thread's I/O tally.
    ///
    /// The tally is monotone and thread-local: take it before and after a
    /// query and subtract ([`IoStats::since`]) to get the cost of exactly
    /// that query, immune to concurrent charges from other threads.
    pub fn local_stats(&self) -> IoStats {
        THREAD_TALLY.with(|t| t.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PageId;

    #[test]
    fn charge_records_cost() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("tree");
        let run = PageRun::new(PageId::new(r, 0), 20);
        let c = disk.charge(IoKind::Read, run, false);
        assert_eq!(c, 35.0);
        let s = disk.stats();
        assert_eq!(s.read_requests, 1);
        assert_eq!(s.pages_read, 20);
        assert_eq!(s.io_ms, 35.0);
    }

    #[test]
    fn skip_seek_drops_seek_component() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("cluster");
        let run = PageRun::new(PageId::new(r, 5), 4);
        let c = disk.charge(IoKind::Read, run, true);
        assert_eq!(c, 10.0); // 6 + 4*1
        assert_eq!(disk.stats().seeks, 0);
        assert_eq!(disk.stats().latencies, 1);
    }

    #[test]
    fn empty_run_free() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("x");
        let c = disk.charge(IoKind::Write, PageRun::empty(PageId::new(r, 0)), false);
        assert_eq!(c, 0.0);
        assert_eq!(disk.stats().requests(), 0);
    }

    #[test]
    fn regions_are_distinct_and_named() {
        let disk = Disk::with_defaults();
        let a = disk.create_region("tree");
        let b = disk.create_region("objects");
        assert_ne!(a, b);
        assert_eq!(disk.region_name(a), "tree");
        assert_eq!(disk.region_name(b), "objects");
    }

    #[test]
    fn charge_raw_for_optimum_baselines() {
        let disk = Disk::with_defaults();
        disk.charge_raw(IoKind::Read, 7, 9.0 + 6.0 + 7.0, true);
        let s = disk.stats();
        assert_eq!(s.pages_read, 7);
        assert_eq!(s.io_ms, 22.0);
    }

    #[test]
    fn local_tally_isolated_per_thread() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("x");
        let before = disk.local_stats();
        disk.charge(IoKind::Read, PageRun::new(PageId::new(r, 0), 2), false);
        // A charge from another thread grows the global counters but not
        // this thread's tally.
        let d2 = disk.clone();
        std::thread::spawn(move || {
            d2.charge(IoKind::Read, PageRun::new(PageId::new(r, 10), 5), false);
        })
        .join()
        .unwrap();
        let local = disk.local_stats().since(&before);
        assert_eq!(local.pages_read, 2);
        assert_eq!(disk.stats().pages_read, 7);
    }

    use crate::arm::{ArmGeometry, ArmPolicy};
    use crate::array::{ArrayConfig, DiskArray};
    use spatialdb_geom::rng::SmallRng;

    fn array(policy: ArmPolicy) -> DiskArray {
        DiskArray::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArrayConfig {
                policy,
                ..ArrayConfig::default()
            },
        )
    }

    /// The correctness anchor of the replay: servicing a trace on the
    /// arm at queue depth 1 (submit one request, service it, submit the
    /// next) and charging each completion with its effective seek flag
    /// produces **byte-identical** [`IoStats`] to charging the same
    /// requests synchronously — for both policies, including
    /// `skip_seek` requests and same-cylinder adjacency.
    #[test]
    fn depth_one_submission_mirrors_synchronous_charge() {
        for policy in [ArmPolicy::Fcfs, ArmPolicy::Elevator] {
            let sync_disk = Disk::with_defaults();
            let arm_disk = Disk::with_defaults();
            let mut arm = array(policy);
            let r = sync_disk.create_region("mirror");
            let mut rng = SmallRng::seed_from_u64(0x9E37_79B9_1994_0001);
            for step in 0..2000u32 {
                let kind = if rng.gen_bool(0.25) {
                    IoKind::Write
                } else {
                    IoKind::Read
                };
                // Offsets cluster heavily so same-cylinder adjacency and
                // repeated pages occur constantly.
                let offset = rng.gen_range(0..96u64);
                let len = 1 + rng.gen_range(0..8u64);
                let skip_seek = rng.gen_bool(0.2);
                let run = PageRun::new(PageId::new(r, offset), len);
                sync_disk.charge(kind, run, skip_seek);
                arm.submit(PageRequest {
                    kind,
                    run,
                    skip_seek,
                });
                let c = arm.service_next().expect("one pending request");
                assert_eq!(c.effective_skip_seek, skip_seek, "step {step}");
                assert_eq!(arm.pending(), 0);
                arm_disk.charge(c.request.kind, c.request.run, c.effective_skip_seek);
                assert_eq!(
                    sync_disk.stats(),
                    arm_disk.stats(),
                    "stats diverged at step {step} ({policy:?})"
                );
            }
            assert!(sync_disk.stats().requests() >= 2000);
        }
    }

    #[test]
    fn elevator_depth_merges_reduce_charged_seeks() {
        // The same request set charged synchronously vs. queued all at
        // once under the elevator: co-scheduled same-cylinder requests
        // drop their seek charge, everything else is conserved.
        let sync_disk = Disk::with_defaults();
        let arm_disk = Disk::with_defaults();
        let mut arm = array(ArmPolicy::Elevator);
        let r = sync_disk.create_region("x");
        for o in 0..6u64 {
            let req = PageRequest::read(PageRun::new(PageId::new(r, o), 1));
            sync_disk.charge(req.kind, req.run, req.skip_seek);
            arm.submit(req);
        }
        let done = arm.drain();
        assert_eq!(done.len(), 6);
        for c in &done {
            arm_disk.charge(c.request.kind, c.request.run, c.effective_skip_seek);
        }
        let (s, a) = (sync_disk.stats(), arm_disk.stats());
        assert_eq!(s.read_requests, a.read_requests);
        assert_eq!(s.pages_read, a.pages_read);
        assert_eq!(s.latencies, a.latencies);
        // All six pages share cylinder 0: one seek survives.
        assert_eq!(s.seeks, 6);
        assert_eq!(a.seeks, 1);
        assert!(a.io_ms < s.io_ms);
    }

    #[test]
    fn trace_captures_this_threads_charges() {
        let disk = Disk::with_defaults();
        let r = disk.create_region("x");
        let ((), trace) = disk.traced(|| {
            disk.charge(IoKind::Read, PageRun::new(PageId::new(r, 3), 2), false);
            disk.charge(IoKind::Write, PageRun::new(PageId::new(r, 9), 1), true);
            disk.charge(IoKind::Read, PageRun::empty(PageId::new(r, 0)), false); // free, untraced
            disk.charge_raw(IoKind::Read, 5, 20.0, true); // analytical, untraced

            // Another thread's charges never enter this thread's trace.
            let d2 = disk.clone();
            std::thread::spawn(move || {
                d2.charge(IoKind::Read, PageRun::new(PageId::new(r, 50), 1), false);
            })
            .join()
            .unwrap();
        });
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].run.len, 2);
        assert_eq!(trace[0].kind, IoKind::Read);
        assert!(trace[1].skip_seek);
        // Charges after the capture enter no trace.
        disk.charge(IoKind::Read, PageRun::new(PageId::new(r, 60), 1), false);
        assert!(disk.traced(|| ()).1.is_empty());
    }

    #[test]
    fn traced_replay_at_depth_one_reproduces_costs() {
        // Capture a trace, charge it again on a second disk: identical
        // stats — a trace carries everything the cost model reads, which
        // is the contract behind the end-to-end depth-1 equivalence
        // matrix in `tests/integration_io_latency.rs`.
        let disk = Disk::with_defaults();
        let r = disk.create_region("x");
        let ((), trace) = disk.traced(|| {
            disk.charge(IoKind::Read, PageRun::new(PageId::new(r, 0), 3), false);
            disk.charge(IoKind::Read, PageRun::new(PageId::new(r, 40), 1), false);
            disk.charge(IoKind::Read, PageRun::new(PageId::new(r, 44), 2), true);
        });
        let replay = Disk::with_defaults();
        for req in trace {
            replay.charge(req.kind, req.run, req.skip_seek);
        }
        assert_eq!(replay.stats(), disk.stats());
    }

    #[test]
    fn disk_handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DiskHandle>();
        assert_send_sync::<Disk>();
    }
}
