//! # spatialdb-disk
//!
//! Magnetic-disk I/O cost simulator for the reproduction of Brinkhoff &
//! Kriegel, VLDB 1994.
//!
//! The paper evaluates every organization model with an analytical disk
//! cost model (§3.1, §5.1): the access time of a request decomposes into
//! *seek time* `t_s` (9 ms), *latency / rotational delay* `t_l` (6 ms) and
//! *transfer time* `t_t` (1 ms per 4 KB page); physically consecutive pages
//! can be read with a single request that pays the seek and latency once.
//! This crate implements that model together with everything the storage
//! layer needs to talk to it:
//!
//! * [`model`] — pages, page runs, regions, and the [`model::DiskParams`]
//!   cost constants;
//! * [`disk::Disk`] — the shared accounting object every request is
//!   charged against, with per-category [`stats::IoStats`];
//! * [`alloc`] — the extent (free-list) page allocator; pages of
//!   different *regions* are never physically consecutive, modelling
//!   separate files on the disk;
//! * [`buddy`] — the buddy system of §5.3.1, including the *restricted*
//!   variant with three buddy sizes used in Figure 7;
//! * [`buffer`] — the LRU page buffer (dirty flags, pinning) and the
//!   [`buffer::TransferTechnique`] a cluster unit is read with (§6.2):
//!   *complete*, *read*, *vector read* — Figure 15's distinction, read
//!   keeps bridged pages and vector read drops them — or *optimum*;
//! * [`shard`] — the buffered I/O front-end: the [`shard::ShardedPool`]
//!   of N page-hash shards, each its own lock and LRU list, under one
//!   capacity budget, with write-back semantics. Pages are accessed
//!   through a [`shard::PoolSession`] — one caller's phase, one lock
//!   acquisition per shard it stays on, one disk charge at its end —
//!   which has the one unit read
//!   ([`shard::PoolSession::read_extent`]) for all four techniques;
//! * [`schedule`] — the SLM read schedules of \[SLM93\] (§5.4.2): one read
//!   request bridges gaps of non-requested pages shorter than
//!   `l = t_l/t_t − 1/2`;
//! * [`arm`] — the overlapped-I/O subsystem: a disk-arm request
//!   scheduler with FCFS / elevator (SCAN) ordering over cylinder-mapped
//!   region offsets, a distance-dependent seek curve calibrated so its
//!   mean equals the paper's average `seek_ms`, and per-query
//!   [`arm::LatencyStats`];
//! * [`mod@array`] — multi-arm declustered storage: a
//!   [`array::DiskArray`] of N independent arms behind a
//!   [`array::StripePolicy`] mapping each region to one arm's local
//!   cylinder band, with a parallel drain popping the globally-earliest
//!   completion across arms and per-arm [`arm::ArmStats`] (utilization,
//!   queue wait). A single arm is a 1-arm array; with one arm every
//!   stripe policy is the identity mapping;
//! * [`blocks`] — the engine's one ordered work queue, here beside the
//!   [`DepMutex`] it locks: a producer publishes blocks, workers sweep
//!   them, and the caller appends the results in block order. The MBR
//!   join's leaf pairs, the join's exact tests, the stream executor's
//!   refinement and every [`blocks::map_chunks`] fan-out run on it.
//!
//! Requests reach the arms one way: every request is charged on the
//! thread that issues it ([`disk::Disk::charge`], or
//! [`disk::Disk::charge_all`] when a pool session ends), a thread can
//! capture what it charges as a trace ([`disk::Disk::traced`]), and
//! [`array::simulate_queries_striped`] / [`array::simulate_queries_closed`]
//! replay such traces on the arms' timelines under an
//! [`array::Arrival`] process. The replay never touches the charged
//! accounting, and at queue depth 1 the seek flags it reports are the
//! trace's own.
//!
//! The simulator is deterministic: identical request sequences produce
//! identical I/O counts, which is what makes the reproduced figures
//! meaningful. Since the thread-safety refactor every type here is
//! `Send + Sync` — the disk's counters live behind a mutex (with a
//! thread-local tally for per-query deltas, see
//! [`disk::Disk::local_stats`]), and the buffer shared between threads
//! is the [`shard::ShardedPool`] (the storage layer's `SharedPool`).
//! With one shard — the configuration the paper's figures run under —
//! its single LRU is the global one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod arm;
pub mod array;
pub mod blocks;
pub mod buddy;
pub mod buffer;
pub mod disk;
pub mod lockdep;
pub mod model;
pub mod schedule;
pub mod shard;
pub mod stats;

pub use alloc::ExtentAllocator;
pub use arm::{
    ArmGeometry, ArmPolicy, ArmStats, Completion, LatencyStats, PageRequest, QueryTrace, SeekCurve,
};
pub use array::{
    simulate_queries_closed, simulate_queries_striped, ArrayConfig, Arrival, DiskArray,
    StripePolicy,
};
pub use buddy::{BuddyAllocator, BuddyConfig};
pub use buffer::{LruBuffer, SeekPolicy, TransferTechnique};
pub use disk::{Disk, DiskHandle};
pub use lockdep::{wait_graph, DepGuard, DepMutex, LockClass};
pub use model::{mix64, DiskParams, PageId, PageRun, RegionId, PAGE_SIZE};
pub use schedule::{slm_gap_limit, slm_schedule, ScheduledRun};
pub use shard::{PoolSession, ShardedPool};
pub use stats::{IoKind, IoStats};
