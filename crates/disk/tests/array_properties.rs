//! Randomized property tests of the disk array, on seeded
//! `SmallRng` streams (the disk's scalar properties are in
//! `properties.rs`):
//!
//! * **Elevator never increases charged seek time**: for the same
//!   request set on the same array shape, draining under the elevator
//!   leaves at most as many un-merged seeks as FCFS (the §5.4.3
//!   same-cylinder merge only ever *drops* a seek), and both serve
//!   every request and page exactly once.
//! * **Striping is a partition**: every region maps to exactly one
//!   in-range arm, distinct regions never collide on an `(arm, band)`
//!   slot, and the mapping is a pure function — stable across array
//!   rebuilds.

use spatialdb_disk::{
    ArmGeometry, ArrayConfig, Completion, DiskArray, DiskParams, IoKind, PageId, PageRequest,
    PageRun, RegionId, StripePolicy,
};
use spatialdb_geom::rng::SmallRng;

const ALL_POLICIES: [StripePolicy; 3] = [
    StripePolicy::RoundRobin,
    StripePolicy::RegionHash,
    StripePolicy::MbrLocality,
];

/// Queue `requests` all at once on a fresh array and drain it.
fn drain(config: ArrayConfig, requests: &[PageRequest]) -> Vec<Completion> {
    let mut array = DiskArray::new(DiskParams::default(), ArmGeometry::default(), config);
    for r in requests {
        array.submit(*r);
    }
    array.drain()
}

fn random_requests(rng: &mut SmallRng, regions: u16, count: usize) -> Vec<PageRequest> {
    (0..count)
        .map(|_| {
            let region = RegionId(rng.gen_range(0..regions as u64) as u16);
            // Offsets cluster so same-cylinder adjacency occurs often —
            // that's where the elevator's merge (and the property's
            // interesting case) lives.
            let offset = rng.gen_range(0..96u64);
            let len = 1 + rng.gen_range(0..4u64);
            let kind = if rng.gen_bool(0.25) {
                IoKind::Write
            } else {
                IoKind::Read
            };
            PageRequest {
                kind,
                run: PageRun::new(PageId::new(region, offset), len),
                skip_seek: rng.gen_bool(0.2),
            }
        })
        .collect()
}

#[test]
fn elevator_never_charges_more_seek_time_than_fcfs() {
    use spatialdb_disk::ArmPolicy;
    let mut rng = SmallRng::seed_from_u64(0xA11E_7A70_1994_0001);
    for trial in 0..40 {
        let arms = [1usize, 2, 3, 4, 8][(trial % 5) as usize];
        let stripe = ALL_POLICIES[(trial % 3) as usize];
        let regions = 1 + (trial % 7) as u16;
        let requests = random_requests(&mut rng, regions, 60);

        let run = |policy: ArmPolicy| {
            let config = ArrayConfig {
                arms,
                stripe,
                policy,
            };
            drain(config, &requests)
        };
        // Seeks a charge made in service order would pay.
        let seeks = |done: &[Completion]| done.iter().filter(|c| !c.effective_skip_seek).count();

        let fcfs = run(ArmPolicy::Fcfs);
        let elevator = run(ArmPolicy::Elevator);
        assert!(
            seeks(&elevator) <= seeks(&fcfs),
            "trial {trial} ({arms} arms, {stripe:?}): elevator left \
             {} seeks > fcfs {}",
            seeks(&elevator),
            seeks(&fcfs)
        );
        // Everything but the merged seeks is conserved.
        let pages: u64 = requests.iter().map(|r| r.run.len).sum();
        for done in [&fcfs, &elevator] {
            assert_eq!(done.len(), requests.len());
            assert_eq!(done.iter().map(|c| c.request.run.len).sum::<u64>(), pages);
        }
        // FCFS never merges: its charge is exactly the synchronous one.
        let unskipped = requests.iter().filter(|r| !r.skip_seek).count();
        assert_eq!(seeks(&fcfs), unskipped);
    }
}

#[test]
fn striping_is_a_partition_of_regions() {
    for arms in [1usize, 2, 3, 4, 5, 8, 16] {
        for stripe in ALL_POLICIES {
            let mut slots = std::collections::HashSet::new();
            for r in 0..512u16 {
                let region = RegionId(r);
                let arm = stripe.arm_of(region, arms);
                assert!(arm < arms, "{stripe:?}: arm {arm} out of range");
                let band = stripe.local_band(region, arms);
                assert!(
                    slots.insert((arm, band)),
                    "{stripe:?}/{arms} arms: region {r} collides on \
                     arm {arm} band {band}"
                );
                // Pure function of (region, arms): re-evaluation (and
                // therefore any array rebuild) yields the same slot.
                assert_eq!(stripe.arm_of(region, arms), arm);
                assert_eq!(stripe.local_band(region, arms), band);
            }
        }
    }
}

#[test]
fn rebuilt_arrays_route_identically() {
    // The partition is stable across rebuilds: two arrays configured the
    // same way service the same submissions with identical completions.
    let mut rng = SmallRng::seed_from_u64(0x5EED_5EED_0000_0007);
    for stripe in ALL_POLICIES {
        let requests = random_requests(&mut rng, 6, 40);
        let config = ArrayConfig {
            arms: 4,
            stripe,
            ..ArrayConfig::default()
        };
        let a = drain(config, &requests);
        let b = drain(config, &requests);
        assert_eq!(a, b, "{stripe:?}: rebuild changed the schedule");
    }
}
