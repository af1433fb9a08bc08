//! The filter step reads where a candidate is, and how large, off its
//! leaf entry; operations that start from an id read the same facts
//! from the per-object table. This is the differential between the two:
//! `window_query` (the entry path) against a tree walk plus one
//! `fetch_for_join` per candidate (the table path), on insertion-built and
//! STR-built stores that have since seen deletes and re-inserts. Same
//! requests, same hits and misses — and the bytes of the records that
//! went in.

use spatialdb_disk::Disk;
use spatialdb_geom::rng::SmallRng;
use spatialdb_geom::Rect;
use spatialdb_rtree::bulk::plan_tiles;
use spatialdb_rtree::{ObjectId, TilingParams, DEFAULT_STR_FILL};
use spatialdb_storage::{
    new_shared_pool, ObjectRecord, PrimaryOrganization, SecondaryOrganization, SpatialStore,
    TransferTechnique, WindowTechnique,
};
use std::collections::HashSet;

/// 1,500 objects, most of them a few hundred bytes, every 9th one
/// larger than a page (several file pages in the secondary organization,
/// an overflow object in the primary).
fn records() -> Vec<ObjectRecord> {
    let mut rng = SmallRng::seed_from_u64(0x1994_0024);
    (0..1500u64)
        .map(|i| {
            let (x, y) = (rng.next_f64(), rng.next_f64());
            let size = match i % 9 {
                0 => 4100 + rng.gen_range(0..9000u64),
                _ => 200 + rng.gen_range(0..1200u64),
            };
            let mbr = Rect::new(x, y, x + 0.02 * rng.next_f64(), y + 0.02 * rng.next_f64());
            ObjectRecord::new(ObjectId(i), mbr, size as u32)
        })
        .collect()
}

/// Load `store` (STR or one insert per record), then delete 200 objects
/// and insert them again: their entries re-enter the tree, their
/// representations move to the end of the file.
fn build(mut store: Box<dyn SpatialStore>, str_built: bool) -> Box<dyn SpatialStore> {
    let records = records();
    if str_built {
        let entries = records.iter().map(|r| store.leaf_entry(r)).collect();
        let params = TilingParams::from_config(store.tree().config(), DEFAULT_STR_FILL);
        let tiles = plan_tiles(entries, &params);
        store.str_install(&records, tiles, &params);
    } else {
        for rec in &records {
            store.insert(rec);
        }
    }
    let mut rng = SmallRng::seed_from_u64(7);
    let mut moved: Vec<u64> = (0..1500).collect();
    for i in 0..200 {
        moved.swap(i, rng.gen_range(i..1500));
    }
    for &i in &moved[..200] {
        assert!(store.delete(ObjectId(i)));
    }
    for &i in &moved[..200] {
        store.insert(&records[i as usize]);
    }
    store.flush();
    store.check_consistency().unwrap();
    store.begin_query();
    store
}

fn secondary() -> Box<dyn SpatialStore> {
    Box::new(SecondaryOrganization::new(new_shared_pool(
        Disk::with_defaults(),
        96,
    )))
}

fn primary() -> Box<dyn SpatialStore> {
    Box::new(PrimaryOrganization::new(new_shared_pool(
        Disk::with_defaults(),
        96,
    )))
}

fn windows() -> Vec<Rect> {
    let mut rng = SmallRng::seed_from_u64(31);
    (0..50)
        .map(|_| {
            let (x, y, side) = (rng.next_f64(), rng.next_f64(), 0.02 + 0.2 * rng.next_f64());
            Rect::new(x, y, x + side, y + side)
        })
        .collect()
}

#[test]
fn secondary_window_query_charges_what_the_table_path_charges() {
    let records = records();
    for str_built in [false, true] {
        // Twins: every charge below hits two pools in the same state.
        let by_entry = build(secondary(), str_built);
        let by_table = build(secondary(), str_built);
        assert_eq!(by_entry.disk().stats(), by_table.disk().stats());
        for (k, window) in windows().iter().enumerate() {
            let before = by_entry.disk().stats();
            let stats = by_entry.window_query(window, WindowTechnique::Complete);
            let entry_io = by_entry.disk().stats().since(&before);

            let before = by_table.disk().stats();
            let pool = by_table.pool();
            let mut session = pool.session();
            let mut candidates = Vec::new();
            by_table
                .tree()
                .window_entries_into(window, &mut session, &mut candidates);
            let (mut bytes, none) = (0, HashSet::new());
            for e in &candidates {
                let complete = TransferTechnique::Complete;
                by_table.fetch_for_join(e.oid, &none, complete, &mut session);
                bytes += u64::from(records[e.oid.0 as usize].size_bytes);
            }
            drop(session);
            let table_io = by_table.disk().stats().since(&before);

            let at = format!("window {k}, STR-built: {str_built}");
            assert_eq!(stats.candidates, candidates.len(), "{at}");
            assert_eq!(entry_io, table_io, "{at}");
            assert_eq!(stats.result_bytes, bytes, "{at}");
        }
    }
}

#[test]
fn primary_window_query_reports_the_bytes_the_table_records() {
    // `fetch_for_join` also touches the data page here, so only the byte
    // count has a like-for-like path: the sizes of the records.
    let records = records();
    for str_built in [false, true] {
        let store = build(primary(), str_built);
        let mut overflowing = 0;
        for (k, window) in windows().iter().enumerate() {
            let mut candidates = Vec::new();
            let result_bytes =
                store.window_query_into(window, WindowTechnique::Complete, &mut candidates);
            let sizes = candidates
                .iter()
                .map(|e| records[e.oid.0 as usize].size_bytes);
            let bytes: u64 = sizes.clone().map(u64::from).sum();
            overflowing += sizes
                .filter(|&s| s > PrimaryOrganization::inline_limit())
                .count();
            assert_eq!(result_bytes, bytes, "window {k}, STR-built: {str_built}");
        }
        assert!(overflowing > 0, "no window met an overflow object");
    }
}
