//! The lock hierarchy as the engine takes it. One test in a binary of
//! its own, so the global wait graph lockdep records is this test's
//! alone: a write, a stream, a join and a bulk load run in turn, and
//! after each [`wait_graph`] must hold exactly the cross-class edges
//! listed — which lock class is taken while which is held, and in
//! which file the first such acquisition was. Lockdep checks every
//! blocking acquisition against the hierarchy in debug builds; this
//! test pins which nestings the engine makes. In release builds the
//! checker is compiled out and the graph stays empty.

use spatialdb::disk::{wait_graph, PageId};
use spatialdb::geom::{Point, Polyline, Rect};
use spatialdb::storage::OrganizationKind;
use spatialdb::{run_stream, DbOptions, EngineConfig, Geometry, StreamOp, Workspace};
use std::sync::mpsc;

/// A short street at grid cell `i` of a `side` × `side` lattice.
fn street(i: u64, side: u64) -> Geometry {
    let (x, y) = (
        (i % side) as f64 / side as f64,
        (i / side) as f64 / side as f64,
    );
    let step = 1.0 / side as f64;
    Polyline::new(vec![
        Point::new(x, y),
        Point::new(x + 0.6 * step, y + 0.3 * step),
        Point::new(x + 1.2 * step, y),
    ])
    .into()
}

/// The recorded edges as `Holder -> Acquired @ file`, in rank order.
fn edges() -> Vec<String> {
    wait_graph()
        .lines()
        .map(|line| {
            let (edge, site) = line.trim().split_once(" @ ").expect("edge @ site");
            let file = site.rsplit_once(':').map_or(site, |(file, _)| file);
            format!("{edge} @ {file}")
        })
        .collect()
}

fn assert_edges(after: &str, want: &[&str]) {
    let want: Vec<&str> = if cfg!(debug_assertions) {
        want.to_vec()
    } else {
        Vec::new()
    };
    assert_eq!(edges(), want, "after {after}");
}

/// Hold the pool's one shard on another thread until a write on this
/// thread has found it held: a session takes its shard with a try
/// first, which lockdep exempts, and blocks — a checked acquisition —
/// only when another thread holds it.
fn write_behind_a_held_shard(ws: &Workspace, write: impl FnOnce()) {
    let pool = ws.pool();
    let page = PageId::new(ws.disk().create_region("held"), 0);
    let (held, wait) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut session = pool.session();
            let before = pool.lock_contentions();
            session.read_page(page);
            held.send(()).expect("the writer waits");
            // At most ten seconds: a write that never waits leaves the
            // edge out, and the assertion after it names what is missing.
            for _ in 0..10_000 {
                if pool.lock_contentions() > before {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        wait.recv().expect("the shard is held");
        write();
    });
}

#[test]
fn the_engine_nests_exactly_these_lock_classes() {
    // One shard, and a pool small enough that queries evict.
    let ws = Workspace::from_config(EngineConfig::default().buffer_pages(32).shards(1));
    let left = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    let right = ws.create_database(DbOptions::new(OrganizationKind::Primary));
    assert_edges("creating the databases", &[]);

    // A write: the writer gate is held across the commit's tree update
    // (a pool session), its charges and the retire of the old root. The
    // session's uncontended try records no edge; a blocked one does.
    for i in 0..200 {
        left.insert(i, street(i, 15));
        right.insert(i, street(i, 14));
    }
    assert!(left.remove(7));
    let write = [
        "DbWriter -> DiskCounters @ crates/disk/src/disk.rs",
        "DbWriter -> Epoch @ crates/epoch/src/lib.rs",
    ];
    assert_edges("a write", &write);
    write_behind_a_held_shard(&ws, || left.insert(200, street(3, 7)));
    let write = [
        "DbWriter -> Shard @ crates/disk/src/shard.rs",
        "DbWriter -> DiskCounters @ crates/disk/src/disk.rs",
        "DbWriter -> Epoch @ crates/epoch/src/lib.rs",
    ];
    assert_edges("a write behind a held shard", &write);

    // A stream: reads, writes and a join on two workers. Phase A runs
    // the writes and every page access on this thread.
    let window = Rect::new(0.1, 0.1, 0.6, 0.6);
    let outcome = run_stream(
        vec![
            StreamOp::Window { db: &left, window },
            StreamOp::Insert {
                db: &left,
                id: 500,
                geometry: street(3, 9),
            },
            StreamOp::Join {
                left: &left,
                right: &right,
            },
            StreamOp::Delete { db: &right, id: 11 },
            StreamOp::Point {
                db: &right,
                point: Point::new(0.5, 0.5),
            },
        ],
        2,
    );
    assert_eq!(outcome.outcomes().len(), 5);
    // The join's pool session holds its shard while it waits on the
    // block queue and charges each step's requests.
    let stream = [
        "DbWriter -> Shard @ crates/disk/src/shard.rs",
        "DbWriter -> DiskCounters @ crates/disk/src/disk.rs",
        "DbWriter -> Epoch @ crates/epoch/src/lib.rs",
        "Shard -> DiskCounters @ crates/disk/src/disk.rs",
        "Shard -> Blocks @ crates/disk/src/blocks.rs",
    ];
    assert_edges("a stream", &stream);

    // A join on its own, at two threads: no new nesting.
    assert!(left.join(&right).run_par(2).count() > 0);
    assert_edges("a join", &stream);

    // A bulk load on two threads: its records, sort and tiles fan out
    // on the block queue with no lock held; no new nesting either.
    let mut loaded = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
    let objects = (0..300).map(|i| (i, street(i, 18))).collect();
    ws.bulk_load_par(&mut loaded, objects, 2);
    assert_eq!(loaded.len(), 300);
    assert_edges("a bulk load", &stream);
}
