//! Step 2: transferring the exact representations of the candidate pairs.
//!
//! A join fetches each leaf pair's objects in the traversal's order,
//! right after the reads of the pair's two leaves, in the one pool
//! session its node reads go through too
//! ([`SpatialJoin::run`](crate::SpatialJoin::run)); the techniques that
//! read the candidate set wait until every pair is known.
//! [`transfer_objects`] makes the same fetches over a finished pair
//! list in a session of its own.

use spatialdb_disk::PoolSession;
use spatialdb_rtree::ObjectId;
use spatialdb_storage::{SpatialStore, TransferTechnique};
use std::collections::HashSet;

/// Fetch the exact representations of all candidate pairs, in processing
/// order, through the shared buffer — one pool session for the whole
/// phase, handed to both operands, so the transfer locks the pool and
/// charges the disk once.
///
/// Each store decides how to honour the transfer `technique` via
/// [`SpatialStore::fetch_for_join`]: the cluster organization batches
/// whole cluster units or SLM schedules (§6.2), one unit read
/// ([`PoolSession::read_extent`](spatialdb_disk::PoolSession::read_extent))
/// per object it does not find buffered; the secondary and primary
/// organizations have a single natural access path and ignore it.
/// Measures nothing: the caller takes the I/O delta after the call,
/// when the session has ended.
pub fn transfer_objects(
    r_org: &dyn SpatialStore,
    s_org: &dyn SpatialStore,
    pairs: &[(ObjectId, ObjectId)],
    technique: TransferTechnique,
) {
    let (needed_r, needed_s) = candidate_sets(pairs, technique);
    let pool = r_org.pool();
    let needed = (&needed_r, &needed_s);
    fetch_pairs(r_org, s_org, pairs, needed, technique, &mut pool.session());
}

/// The candidate sets a technique that reads them batches its unit
/// reads by: each operand's objects in `pairs`, the join's whole
/// candidate set, built once and never pruned, so they still name
/// candidates whose pairs were already processed. Empty for the
/// techniques that read whole units whatever is needed.
pub(crate) fn candidate_sets(
    pairs: &[(ObjectId, ObjectId)],
    technique: TransferTechnique,
) -> (HashSet<ObjectId>, HashSet<ObjectId>) {
    if !technique.reads_candidate_set() {
        return (HashSet::new(), HashSet::new());
    }
    (
        pairs.iter().map(|(a, _)| *a).collect(),
        pairs.iter().map(|(_, b)| *b).collect(),
    )
}

/// Fetch each pair's two objects, in order, through `session`.
pub(crate) fn fetch_pairs(
    r_org: &dyn SpatialStore,
    s_org: &dyn SpatialStore,
    pairs: &[(ObjectId, ObjectId)],
    (needed_r, needed_s): (&HashSet<ObjectId>, &HashSet<ObjectId>),
    technique: TransferTechnique,
    session: &mut PoolSession<'_>,
) {
    for (a, b) in pairs {
        r_org.fetch_for_join(*a, needed_r, technique, session);
        s_org.fetch_for_join(*b, needed_s, technique, session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatialdb_disk::Disk;
    use spatialdb_geom::Rect;
    use spatialdb_storage::{
        new_shared_pool, ClusterConfig, ClusterOrganization, ObjectRecord, SecondaryOrganization,
    };

    fn records(n: u64, dx: f64) -> Vec<ObjectRecord> {
        (0..n)
            .map(|i| {
                let x = (i % 20) as f64 / 20.0 + dx;
                let y = (i / 20) as f64 / 20.0;
                ObjectRecord::new(ObjectId(i), Rect::new(x, y, x + 0.03, y + 0.03), 700)
            })
            .collect()
    }

    fn setup(
        buffer_pages: usize,
    ) -> (
        ClusterOrganization,
        SecondaryOrganization,
        Vec<(ObjectId, ObjectId)>,
    ) {
        let pool = new_shared_pool(Disk::with_defaults(), buffer_pages);
        let mut r = ClusterOrganization::new(pool.clone(), ClusterConfig::plain(16 * 1024));
        let mut s = SecondaryOrganization::new(pool);
        for rec in records(200, 0.0) {
            r.insert(&rec);
        }
        for rec in records(200, 0.01) {
            s.insert(&rec);
        }
        r.flush();
        // A plausible pair list: matching ids plus neighbours.
        let pairs: Vec<(ObjectId, ObjectId)> = (0..200u64)
            .flat_map(|i| {
                let mut v = vec![(ObjectId(i), ObjectId(i))];
                if i + 1 < 200 {
                    v.push((ObjectId(i), ObjectId(i + 1)));
                }
                v
            })
            .collect();
        (r, s, pairs)
    }

    /// The I/O milliseconds [`transfer_objects`] charges the calling
    /// thread.
    fn transfer_ms(
        r: &dyn SpatialStore,
        s: &dyn SpatialStore,
        pairs: &[(ObjectId, ObjectId)],
        technique: TransferTechnique,
    ) -> f64 {
        let disk = r.disk();
        let before = disk.local_stats();
        transfer_objects(r, s, pairs, technique);
        disk.local_stats().since(&before).io_ms
    }

    #[test]
    fn transfer_charges_io() {
        let (mut r, s, pairs) = setup(512);
        r.begin_query();
        let ms = transfer_ms(&r, &s, &pairs, TransferTechnique::Complete);
        assert!(ms > 0.0);
    }

    #[test]
    fn larger_buffer_never_slower() {
        let mut costs = Vec::new();
        for pages in [32, 128, 1024] {
            let (mut r, s, pairs) = setup(pages);
            r.begin_query();
            let ms = transfer_ms(&r, &s, &pairs, TransferTechnique::Complete);
            costs.push(ms);
        }
        assert!(costs[0] >= costs[1] - 1e-9);
        assert!(costs[1] >= costs[2] - 1e-9);
    }

    #[test]
    fn optimum_not_more_expensive_than_complete() {
        let (mut r1, s1, pairs) = setup(256);
        r1.begin_query();
        let complete = transfer_ms(&r1, &s1, &pairs, TransferTechnique::Complete);
        let (mut r2, s2, pairs2) = setup(256);
        r2.begin_query();
        let opt = transfer_ms(&r2, &s2, &pairs2, TransferTechnique::Optimum);
        assert!(opt <= complete + 1e-9, "opt {opt} vs complete {complete}");
    }

    #[test]
    fn repeated_transfer_with_big_buffer_is_free() {
        let (mut r, s, pairs) = setup(8192);
        r.begin_query();
        transfer_objects(&r, &s, &pairs, TransferTechnique::Complete);
        let again = transfer_ms(&r, &s, &pairs, TransferTechnique::Complete);
        assert_eq!(again, 0.0);
    }

    /// Both operands cluster-organized with 16-page units, and a pair
    /// list that needs only a third of each unit — so what a technique
    /// makes of the candidate sets shows in the cost.
    fn sparse_cluster_join(
        buffer_pages: usize,
    ) -> (
        ClusterOrganization,
        ClusterOrganization,
        Vec<(ObjectId, ObjectId)>,
    ) {
        let pool = new_shared_pool(Disk::with_defaults(), buffer_pages);
        let cluster = || ClusterOrganization::new(pool.clone(), ClusterConfig::plain(64 * 1024));
        let (mut r, mut s) = (cluster(), cluster());
        for rec in records(400, 0.0) {
            r.insert(&rec);
        }
        for rec in records(400, 0.01) {
            s.insert(&rec);
        }
        r.flush();
        s.flush();
        r.begin_query();
        s.begin_query();
        let pairs = (0..399u64)
            .step_by(3)
            .flat_map(|i| [(ObjectId(i), ObjectId(i)), (ObjectId(i), ObjectId(i + 1))])
            .collect();
        (r, s, pairs)
    }

    #[test]
    fn every_technique_charges_what_it_always_did() {
        // Recorded before `Complete` stopped building the candidate
        // sets: the techniques that read them still get them.
        for (technique, io_ms) in [
            (TransferTechnique::Complete, 3528.0),
            (TransferTechnique::Read, 3460.0),
            (TransferTechnique::VectorRead, 3460.0),
            (TransferTechnique::Optimum, 3042.0),
        ] {
            let (r, s, pairs) = sparse_cluster_join(64);
            assert_eq!(
                transfer_ms(&r, &s, &pairs, technique),
                io_ms,
                "{technique:?}"
            );
        }
    }
}
