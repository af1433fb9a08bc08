//! Multi-arm declustered storage: a disk array striping regions across
//! N independent arms, and the two replays that run traces through it.
//!
//! The paper's cost model (§5.1) assumes a single arm, so every page
//! request funnels through one queue. The [`DiskArray`] generalizes that
//! to N arms, each with its own request queue, FCFS/elevator ordering
//! and seek state (the rules are in [`crate::arm`]), behind a
//! [`StripePolicy`] that maps region ids to `(arm, local cylinder
//! band)`. Regions stay physically contiguous on exactly one arm (this
//! is *declustering across regions*, not page-level striping — the
//! §5.1 contiguity that makes vector reads and the one-seek-per-cluster
//! rule meaningful is preserved per region), and independent regions on
//! different arms are serviced in parallel.
//!
//! The two-views contract of the arm carries over unchanged: charged
//! accounting (`IoStats`) is the flat per-request model and is
//! **identical for any arm count** under FCFS — striping shapes the
//! simulated timeline ([`LatencyStats`], [`ArmStats`]), not the charge.
//! A single arm is a 1-arm array: every stripe policy degenerates to
//! the identity mapping `(arm 0, band = region id)` at N = 1, so the
//! stripe policy cannot move a 1-arm timeline.
//!
//! Traces reach the array through [`simulate_queries_striped`] (open
//! arrivals) or [`simulate_queries_closed`] (a closed client loop); an
//! [`Arrival`] names which of the two a workload runs.

use std::collections::{HashMap, VecDeque};

use crate::arm::{
    ArmGeometry, ArmPolicy, ArmStats, Completion, LatencyStats, PageRequest, QueryTrace, SeekCurve,
};
use crate::model::{DiskParams, RegionId};

/// How region ids are declustered across the arms of a [`DiskArray`].
///
/// Every policy is a *partition*: each region maps to exactly one arm
/// and one arm-local cylinder band, deterministically (stable across
/// array rebuilds). With a single arm every policy is the identity
/// mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StripePolicy {
    /// Region `r` on arm `r mod N`, band `r / N`. Spreads consecutively
    /// created regions — and therefore the tree/objects region pair of
    /// each database — across different arms: maximal spread.
    #[default]
    RoundRobin,
    /// Region `r` on arm `hash(r) mod N` (Fibonacci multiplicative
    /// hash), band `r` (the hashed placement has no compact inverse, so
    /// each arm keeps the global band layout and simply owns a sparse
    /// subset of it). Decorrelates placement from creation order.
    RegionHash,
    /// Co-locate spatially near regions: every storage organization
    /// creates its regions as one consecutive group per database (tree +
    /// objects / overflow / cluster units), all covering the same data
    /// MBR — so region-id adjacency is the locality proxy. Groups of
    /// [`StripePolicy::LOCALITY_GROUP`] consecutive regions land on the
    /// same arm (`(r / G) mod N`) in consecutive bands, trading
    /// intra-query parallelism for shorter seeks between a query's tree
    /// and object requests.
    MbrLocality,
}

impl StripePolicy {
    /// Regions per locality group of [`StripePolicy::MbrLocality`] —
    /// every disk-backed organization creates exactly two regions per
    /// database (tree + objects/overflow/units), in one consecutive
    /// id pair.
    pub const LOCALITY_GROUP: u64 = 2;

    /// The arm owning `region` in an array of `arms` arms.
    pub fn arm_of(&self, region: RegionId, arms: usize) -> usize {
        let n = arms.max(1) as u64;
        let r = u64::from(region.0);
        let arm = match self {
            StripePolicy::RoundRobin => r % n,
            StripePolicy::RegionHash => (r.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % n,
            StripePolicy::MbrLocality => (r / Self::LOCALITY_GROUP) % n,
        };
        arm as usize
    }

    /// The arm-local cylinder band of `region` (dense per arm for the
    /// closed-form policies, global for [`StripePolicy::RegionHash`]).
    pub fn local_band(&self, region: RegionId, arms: usize) -> u64 {
        let n = arms.max(1) as u64;
        let r = u64::from(region.0);
        match self {
            StripePolicy::RoundRobin => r / n,
            StripePolicy::RegionHash => r,
            StripePolicy::MbrLocality => {
                let g = Self::LOCALITY_GROUP;
                (r / (g * n)) * g + r % g
            }
        }
    }
}

/// Shape of a [`DiskArray`]: arm count, stripe policy and per-arm queue
/// ordering. The default is a single elevator arm.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ArrayConfig {
    /// Number of independent arms (0 is treated as 1).
    pub arms: usize,
    /// Region → arm mapping.
    pub stripe: StripePolicy,
    /// Queue ordering of every arm.
    pub policy: ArmPolicy,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig {
            arms: 1,
            stripe: StripePolicy::default(),
            policy: ArmPolicy::default(),
        }
    }
}

/// A queued request, with the cylinders its region's band maps it to.
#[derive(Clone, Copy, Debug)]
struct Pending {
    id: u64,
    request: PageRequest,
    arrival_ms: f64,
    cylinder: u64,
    end_cylinder: u64,
}

/// One arm of a [`DiskArray`]: a queue of outstanding requests, a head
/// position and a simulated clock. It computes the timeline and the
/// effective charge flags, and charges nothing itself.
#[derive(Clone, Debug)]
struct Arm {
    clock_ms: f64,
    head: u64,
    sweep_up: bool,
    pending: Vec<Pending>,
    /// Start time of the most recent dispatch: a request that arrived
    /// before this instant was co-scheduled with the previous request
    /// (the elevator saw both at once), which is what licenses the
    /// same-cylinder charge merge.
    last_dispatch_start_ms: f64,
    serviced: u64,
    busy_ms: f64,
    queue_wait_ms: f64,
}

/// The service an arm would perform next: which queued request, where
/// it lands on the arm's timeline, and the seek flag its charge would
/// use.
#[derive(Clone, Copy, Debug)]
struct NextService {
    /// Index into the arm's pending queue.
    index: usize,
    seek_ms: f64,
    started_ms: f64,
    service_ms: f64,
    finished_ms: f64,
    effective_skip_seek: bool,
}

impl Arm {
    fn idle() -> Self {
        Arm {
            clock_ms: 0.0,
            head: 0,
            sweep_up: true,
            pending: Vec::new(),
            last_dispatch_start_ms: f64::NEG_INFINITY,
            serviced: 0,
            busy_ms: 0.0,
            queue_wait_ms: 0.0,
        }
    }

    /// Pick the next request to service among the queued requests that
    /// have arrived by `clock_ms`; `None` if none has.
    fn pick(&self, policy: ArmPolicy, clock_ms: f64) -> Option<usize> {
        let eligible = (0..self.pending.len()).filter(|&i| self.pending[i].arrival_ms <= clock_ms);
        match policy {
            ArmPolicy::Fcfs => eligible.min_by(|&a, &b| {
                let (pa, pb) = (&self.pending[a], &self.pending[b]);
                pa.arrival_ms
                    .total_cmp(&pb.arrival_ms)
                    .then(pa.id.cmp(&pb.id))
            }),
            ArmPolicy::Elevator => {
                // SCAN: nearest outstanding cylinder in the sweep
                // direction; if the direction is exhausted, reverse.
                let ahead_up = |&i: &usize| self.pending[i].cylinder >= self.head;
                let ahead_down = |&i: &usize| self.pending[i].cylinder <= self.head;
                let key_up = |&i: &usize| {
                    let p = &self.pending[i];
                    (p.cylinder, p.id)
                };
                let key_down = |&i: &usize| {
                    let p = &self.pending[i];
                    (std::cmp::Reverse(p.cylinder), p.id)
                };
                if self.sweep_up {
                    eligible
                        .clone()
                        .filter(ahead_up)
                        .min_by_key(key_up)
                        .or_else(|| eligible.filter(ahead_down).min_by_key(key_down))
                } else {
                    eligible
                        .clone()
                        .filter(ahead_down)
                        .min_by_key(key_down)
                        .or_else(|| eligible.filter(ahead_up).min_by_key(key_up))
                }
            }
        }
    }

    /// The service [`Arm::service`] would perform next, without
    /// performing it; `None` when the queue is empty. If no queued
    /// request has arrived yet, the service starts at the earliest
    /// arrival (idle wait).
    fn next(&self, array: &DiskArray) -> Option<NextService> {
        let earliest = self
            .pending
            .iter()
            .map(|p| p.arrival_ms)
            .fold(f64::INFINITY, f64::min);
        let started_ms = if earliest > self.clock_ms {
            earliest
        } else {
            self.clock_ms
        };
        let index = self.pick(array.policy, started_ms)?;
        let p = &self.pending[index];
        let distance = self.head.abs_diff(p.cylinder);
        // Timeline: purely physical head movement. A skip_seek request
        // serviced right after its cluster leader sits on the head's
        // cylinder, so distance — and seek time — is 0 there naturally;
        // if the scheduler moved the arm elsewhere in between, the
        // comeback travel is real and is charged to the timeline (the
        // *accounting* flag below is a separate, §5.4.3 matter).
        let seek_ms = array.curve.seek_ms(distance);
        // Rotation: the paper's flat average `t_l` (§5.1), like the
        // charged accounting.
        let service_ms =
            seek_ms + array.params.latency_ms + array.params.transfer_ms * p.request.run.len as f64;
        // Charging: the request's own flag, or the §5.4.3 same-cylinder
        // rule extended to co-scheduled queued requests. At depth 1 a
        // request is only ever submitted after the previous one
        // completed, so no merge fires and the charge equals the
        // synchronous path's, byte for byte.
        let co_scheduled = p.arrival_ms <= self.last_dispatch_start_ms;
        let merged = array.policy == ArmPolicy::Elevator && distance == 0 && co_scheduled;
        Some(NextService {
            index,
            seek_ms,
            started_ms,
            service_ms,
            finished_ms: started_ms + service_ms,
            effective_skip_seek: p.request.skip_seek || merged,
        })
    }

    /// Perform `next` (this arm's [`Arm::next`]), advancing the clock.
    fn service(&mut self, next: NextService) -> Completion {
        let p = self.pending.remove(next.index);
        if p.cylinder > self.head {
            self.sweep_up = true;
        } else if p.cylinder < self.head {
            self.sweep_up = false;
        }
        self.head = p.end_cylinder;
        self.clock_ms = next.finished_ms;
        self.last_dispatch_start_ms = next.started_ms;
        self.serviced += 1;
        self.busy_ms += next.service_ms;
        self.queue_wait_ms += next.started_ms - p.arrival_ms;
        Completion {
            id: p.id,
            request: p.request,
            submitted_ms: p.arrival_ms,
            started_ms: next.started_ms,
            finished_ms: next.finished_ms,
            seek_ms: next.seek_ms,
            effective_skip_seek: next.effective_skip_seek,
        }
    }
}

/// N independent disk arms with declustered region placement and a
/// global completion order.
///
/// Submission routes each request to the arm owning its region
/// ([`StripePolicy::arm_of`]) at that region's arm-local cylinder band;
/// [`DiskArray::service_next`] pops the globally-earliest completion
/// across arms (deterministic tie-break by arm index). Request ids form
/// one sequence across the array, so a replay cannot tell how many arms
/// serve it.
#[derive(Clone, Debug)]
pub struct DiskArray {
    params: DiskParams,
    geometry: ArmGeometry,
    curve: SeekCurve,
    policy: ArmPolicy,
    stripe: StripePolicy,
    arms: Vec<Arm>,
    next_id: u64,
}

impl DiskArray {
    /// Create an idle array per `config`, all heads at cylinder 0.
    pub fn new(params: DiskParams, geometry: ArmGeometry, config: ArrayConfig) -> Self {
        DiskArray {
            params,
            geometry,
            curve: SeekCurve::calibrated(&params, 4 * geometry.cylinders_per_region),
            policy: config.policy,
            stripe: config.stripe,
            arms: vec![Arm::idle(); config.arms.max(1)],
            next_id: 0,
        }
    }

    /// The arm owning `region` under this array's stripe policy.
    fn arm_of(&self, region: RegionId) -> usize {
        self.stripe.arm_of(region, self.arms.len())
    }

    /// Total outstanding requests across all arms.
    pub fn pending(&self) -> usize {
        self.arms.iter().map(|a| a.pending.len()).sum()
    }

    /// Per-arm cumulative statistics, indexed by arm.
    pub fn arm_stats(&self) -> Vec<ArmStats> {
        self.arms
            .iter()
            .enumerate()
            .map(|(arm, a)| ArmStats {
                arm,
                serviced: a.serviced,
                busy_ms: a.busy_ms,
                queue_wait_ms: a.queue_wait_ms,
                clock_ms: a.clock_ms,
                pending: a.pending.len(),
            })
            .collect()
    }

    /// Submit a request arriving now (at the owning arm's clock).
    ///
    /// # Panics
    ///
    /// Panics on an empty run — empty runs are free in the synchronous
    /// model and must not be submitted.
    pub fn submit(&mut self, request: PageRequest) -> u64 {
        let arrival = self.arms[self.arm_of(request.run.start.region)].clock_ms;
        self.submit_at(request, arrival)
    }

    /// Submit a request with an explicit arrival time (which may lie in
    /// the arm's future; it becomes eligible once the arm's clock reaches
    /// it), routed to the arm owning its region at the region's
    /// arm-local cylinder band.
    ///
    /// # Panics
    ///
    /// Panics on an empty run, like [`submit`](DiskArray::submit).
    pub fn submit_at(&mut self, request: PageRequest, arrival_ms: f64) -> u64 {
        assert!(!request.run.is_empty(), "cannot submit an empty run");
        let id = self.next_id;
        self.next_id += 1;
        let region = request.run.start.region;
        let band = self.stripe.local_band(region, self.arms.len());
        let arm = self.arm_of(region);
        self.arms[arm].pending.push(Pending {
            id,
            request,
            arrival_ms,
            cylinder: self.geometry.cylinder_in_band(band, &request.run.start),
            end_cylinder: self.geometry.end_cylinder_in_band(band, &request.run),
        });
        id
    }

    /// Service the request that finishes earliest across all arms — the
    /// parallel drain. Ties break deterministically toward the lowest
    /// arm index. Returns `None` when every queue is empty.
    pub fn service_next(&mut self) -> Option<Completion> {
        let mut best: Option<(usize, NextService)> = None;
        for (i, arm) in self.arms.iter().enumerate() {
            if let Some(next) = arm.next(self) {
                if best.is_none_or(|(_, b)| next.finished_ms < b.finished_ms) {
                    best = Some((i, next));
                }
            }
        }
        let (i, next) = best?;
        Some(self.arms[i].service(next))
    }

    /// Service everything outstanding, in global completion order.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::with_capacity(self.pending());
        while let Some(c) = self.service_next() {
            out.push(c);
        }
        out
    }
}

/// When the queries of a replay arrive on the simulated clock — which
/// replay runs them ([`simulate_queries_striped`] for the open
/// processes, [`simulate_queries_closed`] for a closed loop) and how
/// their traces are stamped.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Arrival {
    /// All queries arrive at time 0 — a burst with maximal queueing.
    /// The default.
    #[default]
    Burst,
    /// Open arrivals at a load factor: the spacing is the batch's own
    /// mean synchronous service time (`Σ io_ms / n` over the charged
    /// queries whose traces are replayed) divided by the load
    /// ([`spacing_ms`](Arrival::spacing_ms)). `Open(1.0)` keeps the arm
    /// saturated on average; lower loads thin the queue. The factor must
    /// be positive.
    Open(f64),
    /// A closed loop of `clients` concurrent clients, each issuing its
    /// next query `think_ms` after its previous one **completes**:
    /// arrivals self-throttle under load, producing the classic
    /// response-time-vs-clients curve
    /// ([`simulate_queries_closed`]).
    Closed {
        /// Concurrent clients (0 is treated as 1). Client `c` issues
        /// queries `c, c + clients, c + 2·clients, …` of the batch.
        clients: usize,
        /// Think time between a query's completion and the same
        /// client's next arrival (simulated ms).
        think_ms: f64,
    },
}

impl Arrival {
    /// Open arrivals at `load` (see [`Arrival::Open`]).
    pub fn open(load: f64) -> Self {
        assert!(load > 0.0, "arrival load factor must be positive");
        Arrival::Open(load)
    }

    /// A closed loop of `clients` clients with `think_ms` think time
    /// (see [`Arrival::Closed`]).
    pub fn closed(clients: usize, think_ms: f64) -> Self {
        assert!(clients > 0, "a closed loop needs at least one client");
        assert!(think_ms >= 0.0, "think time must be non-negative");
        Arrival::Closed { clients, think_ms }
    }

    /// The spacing between consecutive arrivals in ms, given the
    /// batch's mean synchronous service time: query *i* arrives at
    /// `i ·` this. Closed loops have no fixed spacing (arrivals chain off
    /// completions), so they report 0 like bursts.
    pub fn spacing_ms(&self, mean_service_ms: f64) -> f64 {
        match *self {
            Arrival::Burst | Arrival::Closed { .. } => 0.0,
            Arrival::Open(load) => {
                assert!(load > 0.0, "arrival load factor must be positive");
                mean_service_ms / load
            }
        }
    }
}

/// Replay per-query request traces through a [`DiskArray`] under an
/// open-arrival workload, returning one [`LatencyStats`] per query
/// (same order) plus the final per-arm [`ArmStats`].
///
/// Each query arrives at its own `arrival_ms` and keeps at most `depth`
/// requests outstanding: its first `depth` requests are submitted at
/// arrival, and each completion releases the query's next request —
/// which may land on a different arm, so a query's own requests overlap
/// across arms even at depth 1's one-at-a-time issue order. The arms
/// service the union of all queries' outstanding requests under
/// `config.policy`; with `depth == 1` and a single query on one arm
/// this degenerates to the synchronous request order. Deterministic: no
/// wall clock, no randomness.
pub fn simulate_queries_striped(
    params: DiskParams,
    geometry: ArmGeometry,
    config: ArrayConfig,
    depth: usize,
    queries: &[QueryTrace],
) -> (Vec<LatencyStats>, Vec<ArmStats>) {
    replay(params, geometry, config, depth, None, queries)
}

/// Replay per-query request traces through a [`DiskArray`] under a
/// **closed-loop** workload of `clients` concurrent clients with a
/// fixed think time, returning one [`LatencyStats`] per query (same
/// order) plus the final per-arm [`ArmStats`].
///
/// Client `c` issues queries `c, c + clients, c + 2·clients, …` in
/// order: the first `clients` queries arrive at time 0, and each
/// query's **completion** (its last request finishing) activates the
/// same client's next query `think_ms` later — the arrival process is
/// driven by the system's own response times, which is what produces
/// the classic response-time-vs-clients curve (arrivals self-throttle
/// under load instead of piling up like [`simulate_queries_striped`]'s
/// open process). The traces' own `arrival_ms` stamps are ignored.
///
/// Within a query the submission window is the usual depth-`depth`
/// discipline. A query with an empty trace completes instantly at its
/// arrival. Deterministic: no wall clock, no randomness.
pub fn simulate_queries_closed(
    params: DiskParams,
    geometry: ArmGeometry,
    config: ArrayConfig,
    depth: usize,
    clients: usize,
    think_ms: f64,
    queries: &[QueryTrace],
) -> (Vec<LatencyStats>, Vec<ArmStats>) {
    let chain = Some((clients.max(1), think_ms));
    replay(params, geometry, config, depth, chain, queries)
}

/// The one replay loop behind both arrival processes. Open
/// (`chain = None`): every query arrives at its own `arrival_ms` and
/// nothing chains. Closed (`chain = Some((clients, think_ms))`): the
/// first `clients` queries arrive at 0, and a query's completion
/// activates query `q + clients` `think_ms` later.
fn replay(
    params: DiskParams,
    geometry: ArmGeometry,
    config: ArrayConfig,
    depth: usize,
    chain: Option<(usize, f64)>,
    queries: &[QueryTrace],
) -> (Vec<LatencyStats>, Vec<ArmStats>) {
    let depth = depth.max(1);
    let mut array = DiskArray::new(params, geometry, config);
    let n = queries.len();
    // Queries whose client just became ready: (query, arrival time).
    let mut activations: VecDeque<(usize, f64)> = match chain {
        None => queries.iter().map(|q| q.arrival_ms).enumerate().collect(),
        Some((clients, _)) => (0..clients.min(n)).map(|q| (q, 0.0)).collect(),
    };
    let mut stats: Vec<LatencyStats> = vec![LatencyStats::default(); n];
    // Per-query submission cursor, in-flight count and id → query
    // ownership.
    let mut next_req: Vec<usize> = vec![0; n];
    let mut outstanding: Vec<usize> = vec![0; n];
    let mut owner: HashMap<u64, usize> = HashMap::new();
    // The query a completed query's client issues next, and when.
    let successor = |qi: usize, done_ms: f64| {
        chain
            .filter(|&(clients, _)| qi + clients < n)
            .map(|(clients, think_ms)| (qi + clients, done_ms + think_ms))
    };
    loop {
        while let Some((qi, at)) = activations.pop_front() {
            stats[qi] = LatencyStats::arriving_at(at);
            let q = &queries[qi];
            if q.requests.is_empty() {
                // Nothing to serve: the query completes at arrival.
                activations.extend(successor(qi, at));
                continue;
            }
            for &r in &q.requests[..depth.min(q.requests.len())] {
                next_req[qi] += 1;
                outstanding[qi] += 1;
                owner.insert(array.submit_at(r, at), qi);
            }
        }
        let Some(c) = array.service_next() else { break };
        let qi = owner.remove(&c.id).expect("completion for unknown request");
        stats[qi].absorb(&c);
        outstanding[qi] -= 1;
        if let Some(&r) = queries[qi].requests.get(next_req[qi]) {
            // The query observes the completion and issues its next
            // request immediately.
            next_req[qi] += 1;
            outstanding[qi] += 1;
            owner.insert(array.submit_at(r, c.finished_ms), qi);
        } else if outstanding[qi] == 0 {
            activations.extend(successor(qi, c.finished_ms));
        }
    }
    (stats, array.arm_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::PageRequest;
    use crate::model::{PageId, PageRun};
    use spatialdb_geom::rng::SmallRng;

    fn pg(r: u16, o: u64) -> PageId {
        PageId::new(RegionId(r), o)
    }

    fn read1(r: u16, o: u64) -> PageRequest {
        PageRequest::read(PageRun::new(pg(r, o), 1))
    }

    const ALL_POLICIES: [StripePolicy; 3] = [
        StripePolicy::RoundRobin,
        StripePolicy::RegionHash,
        StripePolicy::MbrLocality,
    ];

    #[test]
    fn every_policy_is_identity_at_one_arm() {
        for policy in ALL_POLICIES {
            for r in 0..200u16 {
                assert_eq!(policy.arm_of(RegionId(r), 1), 0);
                assert_eq!(policy.local_band(RegionId(r), 1), u64::from(r));
            }
        }
    }

    #[test]
    fn round_robin_spreads_consecutive_regions() {
        let p = StripePolicy::RoundRobin;
        assert_eq!(p.arm_of(RegionId(0), 4), 0);
        assert_eq!(p.arm_of(RegionId(1), 4), 1);
        assert_eq!(p.arm_of(RegionId(5), 4), 1);
        assert_eq!(p.local_band(RegionId(5), 4), 1);
    }

    #[test]
    fn mbr_locality_keeps_region_pairs_together() {
        let p = StripePolicy::MbrLocality;
        for base in (0..40u16).step_by(2) {
            let a = p.arm_of(RegionId(base), 4);
            let b = p.arm_of(RegionId(base + 1), 4);
            assert_eq!(a, b, "group {base} split across arms");
            // And the pair occupies consecutive local bands.
            assert_eq!(
                p.local_band(RegionId(base + 1), 4),
                p.local_band(RegionId(base), 4) + 1
            );
        }
    }

    #[test]
    fn parallel_drain_pops_globally_earliest() {
        // Two arms, one request each: completions come back ordered by
        // finish time regardless of submission order.
        let mut array = DiskArray::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArrayConfig {
                arms: 2,
                stripe: StripePolicy::RoundRobin,
                policy: ArmPolicy::Fcfs,
            },
        );
        // Region 1 (arm 1): far cylinder → long seek. Region 0 (arm 0):
        // cylinder 0 → no seek, finishes first despite later submission.
        let far = array.submit_at(read1(1, 32 * 900), 0.0);
        let near = array.submit_at(read1(0, 0), 0.0);
        let done = array.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, near);
        assert_eq!(done[1].id, far);
        assert!(done[0].finished_ms < done[1].finished_ms);
        // Both arms started at their own clock 0 — true overlap.
        assert_eq!(done[0].started_ms, 0.0);
        assert_eq!(done[1].started_ms, 0.0);
    }

    #[test]
    fn tie_breaks_by_arm_index() {
        // Identical offsets in two different regions on two arms:
        // identical finish times, arm 0's completion pops first.
        let mut array = DiskArray::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArrayConfig {
                arms: 2,
                stripe: StripePolicy::RoundRobin,
                policy: ArmPolicy::Fcfs,
            },
        );
        let a1 = array.submit_at(read1(1, 0), 0.0); // arm 1, submitted first
        let a0 = array.submit_at(read1(0, 0), 0.0); // arm 0
        let done = array.drain();
        assert_eq!(done[0].finished_ms, done[1].finished_ms);
        assert_eq!(done[0].id, a0, "tie must break toward arm 0");
        assert_eq!(done[1].id, a1);
    }

    #[test]
    fn arm_stats_account_for_all_services() {
        let mut array = DiskArray::new(
            DiskParams::default(),
            ArmGeometry::default(),
            ArrayConfig {
                arms: 4,
                stripe: StripePolicy::RoundRobin,
                policy: ArmPolicy::Elevator,
            },
        );
        for r in 0..8u16 {
            for o in 0..5u64 {
                array.submit_at(read1(r, 32 * o), 0.0);
            }
        }
        let done = array.drain();
        let stats = array.arm_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(
            stats.iter().map(|s| s.serviced).sum::<u64>() as usize,
            done.len()
        );
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.arm, i);
            assert_eq!(s.pending, 0);
            // Every arm got 2 regions × 5 requests under round-robin.
            assert_eq!(s.serviced, 10);
            assert!(s.utilization() > 0.0 && s.utilization() <= 1.0);
            assert!(s.queue_wait_ms > 0.0, "arm {i} never queued");
        }
    }

    #[test]
    fn closed_loop_with_enough_clients_is_the_open_burst() {
        // With one client per query (or more) and zero think time every
        // query arrives at 0 — exactly the open burst, byte for byte:
        // both arrival processes run the same loop, for seeded random
        // traces (empty ones included) over depth, arm count and policy.
        let mut rng = SmallRng::seed_from_u64(0xC105_ED00_1994_0020);
        let mut cases = 0;
        for trial in 0..32 {
            let traces: Vec<QueryTrace> = (0..1 + rng.gen_range(0..10u64))
                .map(|_| QueryTrace {
                    arrival_ms: 0.0,
                    requests: (0..rng.gen_range(0..7u64))
                        .map(|_| read1(rng.gen_range(0..6u64) as u16, rng.gen_range(0..32 * 40u64)))
                        .collect(),
                })
                .collect();
            let clients = traces.len() + trial % 3;
            for depth in [1, 4] {
                for arms in [1, 4] {
                    for policy in [ArmPolicy::Fcfs, ArmPolicy::Elevator] {
                        let config = ArrayConfig {
                            arms,
                            stripe: ALL_POLICIES[trial % 3],
                            policy,
                        };
                        let open = simulate_queries_striped(
                            DiskParams::default(),
                            ArmGeometry::default(),
                            config,
                            depth,
                            &traces,
                        );
                        let closed = simulate_queries_closed(
                            DiskParams::default(),
                            ArmGeometry::default(),
                            config,
                            depth,
                            clients,
                            0.0,
                            &traces,
                        );
                        assert_eq!(open, closed, "trial {trial}: {config:?}, depth {depth}");
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 200);
    }

    #[test]
    fn empty_trace_in_an_open_batch_completes_at_its_arrival() {
        // A buffer-hit query between two I/O-bound ones: it completes
        // where it arrives and the others are served as if it were not
        // in the batch.
        let io = |arrival_ms: f64, r: u16| QueryTrace {
            arrival_ms,
            requests: vec![read1(r, 32 * 9), read1(r, 0), read1(r, 32 * 4)],
        };
        let hit = QueryTrace {
            arrival_ms: 7.0,
            requests: Vec::new(),
        };
        let run = |traces: &[QueryTrace]| {
            simulate_queries_striped(
                DiskParams::default(),
                ArmGeometry::default(),
                ArrayConfig::default(),
                2,
                traces,
            )
        };
        let (with, arms_with) = run(&[io(0.0, 0), hit, io(12.0, 1)]);
        let (without, arms_without) = run(&[io(0.0, 0), io(12.0, 1)]);
        assert_eq!(with[1], LatencyStats::arriving_at(7.0));
        assert_eq!(with[1].latency_ms(), 0.0);
        assert_eq!([with[0], with[2]], [without[0], without[1]]);
        assert_eq!(arms_with, arms_without);
    }

    #[test]
    fn one_client_serializes_the_stream() {
        // A single client issues query q+1 only after q completes (plus
        // think): arrivals chain off completions, and no query ever
        // queues behind another.
        let traces: Vec<QueryTrace> = (0..5u16)
            .map(|q| QueryTrace {
                arrival_ms: 0.0,
                requests: vec![read1(q % 2, 32 * u64::from(q) * 5)],
            })
            .collect();
        let think = 2.5;
        let (stats, _) = simulate_queries_closed(
            DiskParams::default(),
            ArmGeometry::default(),
            ArrayConfig::default(),
            4,
            1,
            think,
            &traces,
        );
        for w in stats.windows(2) {
            assert_eq!(
                w[1].arrival_ms,
                w[0].completed_ms + think,
                "next arrival must be previous completion plus think time"
            );
            assert_eq!(w[1].queue_ms, 0.0, "a lone client never queues");
        }
    }

    #[test]
    fn fewer_clients_never_worsen_latency() {
        // The same stream under 1, 2, 4 and 8 clients: per-query mean
        // latency is monotonically non-decreasing in the client count
        // (more concurrency = more queueing), while an empty trace
        // still completes instantly and keeps its client's chain alive.
        let mut traces: Vec<QueryTrace> = (0..16u16)
            .map(|q| QueryTrace {
                arrival_ms: 0.0,
                requests: vec![
                    read1(q % 4, 32 * u64::from(q) * 2),
                    read1(q % 4, 32 * u64::from(q % 3) * 7),
                ],
            })
            .collect();
        traces[5].requests.clear(); // a buffer-hit query: no I/O at all
        let mean = |clients: usize| {
            let (stats, _) = simulate_queries_closed(
                DiskParams::default(),
                ArmGeometry::default(),
                ArrayConfig::default(),
                4,
                clients,
                1.0,
                &traces,
            );
            assert_eq!(stats.len(), traces.len());
            assert_eq!(stats[5].requests, 0);
            assert_eq!(stats[5].completed_ms, stats[5].arrival_ms);
            stats.iter().map(|s| s.latency_ms()).sum::<f64>() / stats.len() as f64
        };
        let curve: Vec<f64> = [1, 2, 4, 8].into_iter().map(mean).collect();
        for w in curve.windows(2) {
            assert!(
                w[1] >= w[0],
                "mean latency must not improve with more clients: {curve:?}"
            );
        }
        assert!(
            curve[3] > curve[0],
            "saturation must show between 1 and 8 clients: {curve:?}"
        );
    }

    #[test]
    fn more_arms_never_lengthen_the_fcfs_makespan() {
        // A closed burst over 8 regions: the array's makespan (last
        // completion) shrinks as arms are added, and aggregate
        // throughput rises.
        let mut makespans = Vec::new();
        for arms in [1usize, 2, 4, 8] {
            let mut array = DiskArray::new(
                DiskParams::default(),
                ArmGeometry::default(),
                ArrayConfig {
                    arms,
                    stripe: StripePolicy::RoundRobin,
                    policy: ArmPolicy::Fcfs,
                },
            );
            for o in 0..6u64 {
                for r in 0..8u16 {
                    array.submit_at(read1(r, 32 * o * 3), 0.0);
                }
            }
            let done = array.drain();
            let makespan = done
                .iter()
                .map(|c| c.finished_ms)
                .fold(f64::NEG_INFINITY, f64::max);
            makespans.push(makespan);
        }
        for w in makespans.windows(2) {
            assert!(
                w[1] < w[0],
                "makespan must shrink with more arms: {makespans:?}"
            );
        }
    }
}
