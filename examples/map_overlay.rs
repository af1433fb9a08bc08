//! Map overlay with exact geometry: find every place where a street
//! crosses a river in a generated county, using full polyline geometry
//! and the decomposed-representation refinement ([SK91]).
//!
//! This exercises the end-to-end path a GIS application would use:
//! generation → loading → join with exact refinement → per-feature
//! reporting.
//!
//! Run with: `cargo run --release -p spatialdb-core --example map_overlay`

use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::{DbOptions, OrganizationKind, Workspace};

fn main() {
    // Small maps with full vertex geometry retained.
    let streets_map = SpatialMap::generate(
        DataSet {
            series: SeriesId::A,
            map: MapId::Map1,
        },
        0.004,
        GeometryMode::Full,
        2024,
    );
    let rivers_map = SpatialMap::generate(
        DataSet {
            series: SeriesId::A,
            map: MapId::Map2,
        },
        0.004,
        GeometryMode::Full,
        2024,
    );

    let ws = Workspace::new(1024);
    let mut streets =
        ws.create_database(DbOptions::new(OrganizationKind::Cluster).smax_bytes(40 * 1024));
    let mut waterways =
        ws.create_database(DbOptions::new(OrganizationKind::Cluster).smax_bytes(40 * 1024));

    for obj in &streets_map.objects {
        streets.insert(obj.id, obj.geometry.clone().expect("full geometry"));
    }
    for obj in &rivers_map.objects {
        waterways.insert(obj.id, obj.geometry.clone().expect("full geometry"));
    }
    streets.finish_loading();
    waterways.finish_loading();
    println!(
        "loaded {} streets and {} linear features",
        streets.len(),
        waterways.len()
    );

    // The overlay: a complete intersection join with exact refinement,
    // streamed through the join cursor.
    let cursor = streets.join(&waterways).run();
    let stats = cursor.stats();
    let crossings = cursor.pairs();
    println!(
        "MBR join produced {} candidate pairs; {} survive the exact test\n",
        stats.mbr_pairs,
        crossings.len()
    );

    // Report the first few crossings.
    for (street_id, feature_id) in crossings.iter().take(8) {
        let street = &streets_map.objects[*street_id as usize];
        let feature = &rivers_map.objects[*feature_id as usize];
        let near = street.mbr.intersection(&feature.mbr).center();
        println!(
            "street {} ({} B) crosses feature {} ({} B) near ({:.3}, {:.3})",
            street.id, street.size_bytes, feature.id, feature.size_bytes, near.x, near.y,
        );
    }
    println!(
        "\nsimulated cost: {:.1} s I/O + {:.1} s exact tests",
        (stats.mbr_join_ms + stats.transfer_ms) / 1000.0,
        stats.exact_test_ms() / 1000.0
    );
}
