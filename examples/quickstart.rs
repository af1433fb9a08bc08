//! Quickstart: create a cluster-organized spatial database, load a few
//! map features, and run the three basic queries of the paper (§2) —
//! point query, window query, spatial join — through the streaming
//! `Query` builder.
//!
//! Run with: `cargo run --release -p spatialdb-core --example quickstart`

use spatialdb::geom::{HasMbr, Point, Polygon, Polyline, Rect};
use spatialdb::{DbOptions, EngineConfig, OrganizationKind, Workspace};

fn main() {
    // A workspace is one simulated machine: a 1994-style magnetic disk
    // (9 ms seek, 6 ms latency, 1 ms transfer per 4 KB page) plus an LRU
    // buffer of 512 pages. Every knob of the machine — buffer capacity,
    // pool sharding, the disk-arm array — lives on one validated
    // `EngineConfig` (`Workspace::new(512)` is shorthand for exactly
    // this default).
    let ws = Workspace::from_config(EngineConfig::default().buffer_pages(512));

    // A database using the paper's cluster organization: the R*-tree
    // indexes MBRs, and each data page's objects live together in one
    // cluster unit of physically consecutive pages.
    let mut streets = ws.create_database(DbOptions::new(OrganizationKind::Cluster));

    // Three streets of a toy town (polylines) and its market square
    // (a polygon): inserts accept any geometry.
    streets.insert(
        1,
        Polyline::new(vec![
            Point::new(0.10, 0.10),
            Point::new(0.15, 0.105),
            Point::new(0.20, 0.10),
        ]),
    );
    streets.insert(
        2,
        Polyline::new(vec![Point::new(0.15, 0.05), Point::new(0.15, 0.18)]),
    );
    streets.insert(
        3,
        Polyline::new(vec![Point::new(0.40, 0.40), Point::new(0.45, 0.45)]),
    );
    streets.insert(
        4,
        Polygon::new(vec![
            Point::new(0.13, 0.09),
            Point::new(0.17, 0.09),
            Point::new(0.17, 0.115),
            Point::new(0.13, 0.115),
        ]),
    );
    streets.finish_loading();

    // Window query: a lazy cursor over everything sharing a point with
    // the window, with the cost of this query alone attached.
    let window = Rect::new(0.12, 0.08, 0.18, 0.12);
    let mut in_window = streets.query().window(window).run();
    println!(
        "query cost: {} candidates, {:.1} ms simulated I/O",
        in_window.stats().candidates,
        in_window.stats().io_ms
    );
    let ids: Vec<u64> = in_window.by_ref().map(|(id, _)| id).collect();
    println!("objects intersecting {window}: {ids:?}");
    assert_eq!(ids, vec![1, 2, 4]);

    // Point query: everything containing the query point, with the
    // exact geometry streamed alongside the id.
    for (id, geometry) in streets.query().point(Point::new(0.15, 0.10)).run() {
        println!("object through (0.15, 0.10): {id} (mbr {})", geometry.mbr());
    }

    // A second data set on the same machine: rivers.
    let mut rivers = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    rivers.insert(
        100,
        Polyline::new(vec![Point::new(0.05, 0.15), Point::new(0.25, 0.02)]),
    );
    rivers.finish_loading();

    // Spatial join: which streets cross which rivers?
    let bridges = streets.join(&rivers).run();
    let stats = bridges.stats();
    let pairs = bridges.pairs();
    println!("street x river crossings: {pairs:?}");
    println!(
        "join cost: {} candidate pairs, {:.1} ms MBR join, {:.1} ms transfer, {:.1} ms exact tests",
        stats.mbr_pairs,
        stats.mbr_join_ms,
        stats.transfer_ms,
        stats.exact_test_ms()
    );

    // All simulated I/O is accounted.
    println!("total simulated I/O: {}", ws.disk().stats());
}
