//! Copy-on-write commits: structural sharing must be invisible.
//!
//! A store snapshot clones pointer tables and a commit shadow-copies
//! only the pieces it dirties (see `SpatialStore::snapshot`). These
//! tests drive a seeded stream of inserts and removes through the
//! shared (`&self`, shadow-paged) write path of every organization
//! while a pinned view of the pre-stream state stays alive, and
//! require that
//!
//! * the pinned view keeps answering exactly as before the stream,
//!   after every commit;
//! * every published root is structurally sound (`check_invariants`,
//!   `check_consistency`);
//! * the whole transcript — filter answers, queried bytes, per-probe
//!   and final `IoStats` — is identical to the same stream applied through the
//!   exclusive `store_mut()` path (which mutates in place beside a held
//!   snapshot), and its answers identical to `MemoryStore`'s;
//! * nothing is leaked: the retire list drains at the next quiescent
//!   point.

use spatialdb::data::rng::SmallRng;
use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::geom::{HasMbr, Point, Rect};
use spatialdb::rtree::validate::check_invariants;
use spatialdb::storage::{MemoryStore, ObjectRecord, WindowTechnique};
use spatialdb::{
    DbOptions, Geometry, IoStats, ObjectId, OrganizationKind, SpatialDatabase, SpatialStore,
    Workspace,
};
use std::collections::HashMap;

const COMMITS: usize = 300;

#[derive(Clone, Copy, Debug)]
enum Write {
    Insert(u64),
    Remove(u64),
}

/// The fixed inputs of one run: the objects, which of them are loaded
/// up front, the write stream, and the probe queries.
struct Inputs {
    geometry: HashMap<u64, Geometry>,
    loaded: Vec<u64>,
    writes: Vec<Write>,
    windows: Vec<Rect>,
    points: Vec<Point>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let dataset = DataSet {
            series: SeriesId::A,
            map: MapId::Map1,
        };
        let map = SpatialMap::generate(dataset, 0.01, GeometryMode::Full, seed);
        let queries = WindowQuerySet::generate(&map, 1e-2, 6, seed + 1);
        let geometry: HashMap<u64, Geometry> = map
            .objects
            .iter()
            .map(|o| (o.id, o.geometry.clone().expect("full geometry").into()))
            .collect();
        let ids: Vec<u64> = map.objects.iter().map(|o| o.id).collect();
        let (loaded, held_out) = ids.split_at(ids.len() * 3 / 4);
        // A model of the live set decides each write, so every remove
        // hits a stored id and every insert a free one; removed ids
        // return to the spare pool and are re-inserted later.
        let mut rng = SmallRng::seed_from_u64(seed + 2);
        let (mut live, mut spare) = (loaded.to_vec(), held_out.to_vec());
        let writes = (0..COMMITS)
            .map(|_| {
                if rng.gen_bool(0.5) && !spare.is_empty() {
                    let id = spare.swap_remove(rng.gen_range(0..spare.len()));
                    live.push(id);
                    Write::Insert(id)
                } else {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    spare.push(id);
                    Write::Remove(id)
                }
            })
            .collect();
        Inputs {
            geometry,
            loaded: loaded.to_vec(),
            writes,
            points: queries.windows.iter().map(Rect::center).collect(),
            windows: queries.windows,
        }
    }

    fn record(&self, id: u64) -> ObjectRecord {
        let g = &self.geometry[&id];
        ObjectRecord::new(ObjectId(id), g.mbr(), g.serialized_size() as u32)
    }

    fn load(&self, ws: &Workspace, db: &mut SpatialDatabase) {
        let objects: Vec<(u64, Geometry)> = self
            .loaded
            .iter()
            .map(|id| (*id, self.geometry[id].clone()))
            .collect();
        ws.bulk_load_par(db, objects, 1);
        db.finish_loading();
    }
}

/// What one probe of a store observed: the filter step's answer, the
/// candidates' bytes and the I/O the call charged.
#[derive(Clone, Debug, PartialEq)]
struct Observation {
    ids: Vec<u64>,
    result_bytes: u64,
    io: IoStats,
}

impl Observation {
    /// The part that does not depend on buffer state or organization.
    fn answer(&self) -> (&[u64], u64) {
        (&self.ids, self.result_bytes)
    }
}

/// Probe `store` with the `step`-th query of the fixed set: windows and
/// points alternate.
fn probe(store: &dyn SpatialStore, inputs: &Inputs, step: usize) -> Observation {
    let k = (step / 2) % inputs.windows.len();
    let mut candidates = Vec::new();
    let disk = store.disk();
    let before = disk.local_stats();
    let result_bytes = if step.is_multiple_of(2) {
        store.window_query_into(&inputs.windows[k], WindowTechnique::Slm, &mut candidates)
    } else {
        store.point_query_into(&inputs.points[k], &mut candidates)
    };
    let io = disk.local_stats().since(&before);
    let mut ids: Vec<u64> = candidates.iter().map(|e| e.oid.0).collect();
    ids.sort_unstable();
    Observation {
        ids,
        result_bytes,
        io,
    }
}

/// Everything a run observed, in order.
#[derive(Debug, PartialEq)]
struct Transcript {
    /// The pre-stream state, one observation per probe query.
    baseline: Vec<Observation>,
    /// The current state after each commit.
    live: Vec<Observation>,
    io: IoStats,
}

/// After every commit: the pinned view must answer as it did before the
/// stream, the current root must be sound, and the current answer is
/// recorded.
fn observe(
    pinned: &dyn SpatialStore,
    current: &dyn SpatialStore,
    inputs: &Inputs,
    step: usize,
    transcript: &mut Transcript,
) {
    let probes = transcript.baseline.len();
    let seen = probe(pinned, inputs, step);
    assert_eq!(
        seen.answer(),
        transcript.baseline[step % probes].answer(),
        "pinned view changed after commit {step}"
    );
    check_invariants(current.tree()).unwrap_or_else(|v| panic!("commit {step}: {v}"));
    current
        .check_consistency()
        .unwrap_or_else(|e| panic!("commit {step}: {e}"));
    transcript.live.push(probe(current, inputs, step));
}

fn baseline(store: &dyn SpatialStore, inputs: &Inputs) -> Vec<Observation> {
    (0..2 * inputs.windows.len())
        .map(|step| probe(store, inputs, step))
        .collect()
}

/// The stream through the shadow-paged `&self` write path, beside a
/// pinned `db.store()` view.
fn run_shared(ws: &Workspace, mut db: SpatialDatabase, inputs: &Inputs) -> Transcript {
    inputs.load(ws, &mut db);
    let pinned = db.store();
    let mut transcript = Transcript {
        baseline: baseline(&*pinned, inputs),
        live: Vec::new(),
        io: IoStats::new(),
    };
    let mut expected_len = inputs.loaded.len();
    for (step, write) in inputs.writes.iter().enumerate() {
        match *write {
            Write::Insert(id) => {
                db.insert(id, inputs.geometry[&id].clone());
                expected_len += 1;
            }
            Write::Remove(id) => {
                assert!(db.remove(id), "commit {step}: {id} was live");
                expected_len -= 1;
            }
        }
        let current = db.store();
        assert_eq!(current.tree().len(), expected_len);
        assert!(current.pinned_epoch() >= pinned.pinned_epoch());
        observe(&*pinned, &*current, inputs, step, &mut transcript);
    }
    assert_eq!(pinned.tree().len(), inputs.loaded.len());
    pinned.check_consistency().unwrap();
    assert!(
        db.retired_snapshots() > 0,
        "the pin must have held superseded roots back"
    );
    drop(pinned);
    transcript.io = ws.disk().stats();
    db.finish_loading();
    assert_eq!(
        db.retired_snapshots(),
        0,
        "retire list drains when quiescent"
    );
    assert_eq!(db.pinned_readers(), 0);
    transcript
}

/// The same stream through the exclusive `store_mut()` path, beside a
/// held snapshot of the pre-stream state: in-place updates must
/// copy-on-write around the snapshot exactly like a commit does.
fn run_exclusive(ws: &Workspace, mut db: SpatialDatabase, inputs: &Inputs) -> Transcript {
    inputs.load(ws, &mut db);
    let pinned = db.store().snapshot();
    let mut transcript = Transcript {
        baseline: baseline(&*pinned, inputs),
        live: Vec::new(),
        io: IoStats::new(),
    };
    for (step, write) in inputs.writes.iter().enumerate() {
        match *write {
            Write::Insert(id) => db.store_mut().insert(&inputs.record(id)),
            Write::Remove(id) => assert!(db.store_mut().delete(ObjectId(id))),
        }
        observe(&*pinned, &*db.store(), inputs, step, &mut transcript);
    }
    assert_eq!(pinned.tree().len(), inputs.loaded.len());
    pinned.check_consistency().unwrap();
    transcript.io = ws.disk().stats();
    transcript
}

#[test]
fn shared_and_exclusive_commits_agree_beside_a_pinned_view() {
    let inputs = Inputs::generate(1994);
    let memory = {
        let ws = Workspace::new(256);
        let store = MemoryStore::new(ws.pool());
        run_shared(&ws, ws.create_database_with(Box::new(store)), &inputs)
    };
    assert!(
        memory.live.iter().any(|o| !o.ids.is_empty()),
        "the probe queries must hit data"
    );
    for kind in [
        OrganizationKind::Secondary,
        OrganizationKind::Primary,
        OrganizationKind::Cluster,
    ] {
        // A small Smax so the stream forces cluster splits and unit
        // moves, not just appends.
        let options = DbOptions::new(kind).smax_bytes(16 * 1024);
        let ws = Workspace::new(256);
        let shared = run_shared(&ws, ws.create_database(options.clone()), &inputs);
        let ws = Workspace::new(256);
        let exclusive = run_exclusive(&ws, ws.create_database(options), &inputs);
        assert_eq!(shared, exclusive, "{kind:?}: write paths diverge");
        assert!(shared.io.io_ms > 0.0);
        // The organization only changes what an answer costs.
        let answers = |t: &Transcript| -> Vec<_> {
            let all = t.baseline.iter().chain(&t.live);
            all.map(|o| (o.ids.clone(), o.result_bytes)).collect()
        };
        assert_eq!(answers(&shared), answers(&memory), "{kind:?} vs memory");
    }
}

#[test]
fn restricted_buddy_units_move_copy_on_write() {
    // The buddy system moves a growing unit between extents — the one
    // update that rewrites a unit's extent, not just its packing.
    let inputs = Inputs::generate(7);
    let options = DbOptions::new(OrganizationKind::Cluster)
        .smax_bytes(16 * 1024)
        .restricted_buddy(true);
    let ws = Workspace::new(256);
    let shared = run_shared(&ws, ws.create_database(options.clone()), &inputs);
    let ws = Workspace::new(256);
    let exclusive = run_exclusive(&ws, ws.create_database(options), &inputs);
    assert_eq!(shared, exclusive);
}
