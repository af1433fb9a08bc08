//! Sort-tile-recursive (STR) bulk loading, in one function.
//!
//! [`bulk_load_records_par`] is the pipeline every bulk load runs —
//! `Workspace::bulk_load_par` on one thread or several:
//!
//! 1. **Check**: the store is empty and no object id repeats.
//! 2. **Plan** (`&store`): one leaf entry per record, from the store's
//!    [`SpatialStore::leaf_entry`] — the entry its `insert` would build,
//!    payload accounting and refusals included — and the tiling
//!    capacities of the store's tree configuration at
//!    [`DEFAULT_STR_FILL`].
//! 3. **Sort**: contiguous chunks of the entries are sorted on up to
//!    `threads` threads and merged. The STR comparator is a total order
//!    (unique object ids), so the merged sequence equals the sequential
//!    sort.
//! 4. **Tile**: the slice boundaries are a pure function of the entry
//!    count ([`bulk::slice_spans`]); contiguous runs of slices are tiled
//!    on up to `threads` threads and concatenated in slice order — the
//!    sequence [`bulk::plan_tiles`] produces.
//! 5. **Install** (`&mut store`): [`SpatialStore::str_install`] packs
//!    the tree bottom-up, places the exact representations and charges
//!    every write of the build, on the calling thread.
//!
//! Sorting and tiling are pure CPU work and charge nothing, so the
//! store — tree, physical placement, every query answer — and the I/O
//! statistics of the build are **byte-identical at every thread
//! count**. A chunk's panic (a non-finite MBR trips the tiler's
//! assertion), on whichever thread, reaches the caller before anything
//! is charged, and the store stays empty.

use spatialdb_disk::blocks::{map_chunks, Spares};
use spatialdb_rtree::{bulk, LeafEntry, Tile, TilingParams, DEFAULT_STR_FILL};
use spatialdb_storage::{ObjectRecord, SpatialStore};
use std::collections::HashSet;

/// STR-bulk-load `records` into an empty `store`, sorting and tiling on
/// `threads` threads (the calling one and up to `threads - 1` workers of
/// the engine's work queue).
///
/// See the [module docs](self) for the pipeline and the determinism
/// contract.
///
/// # Panics
///
/// Panics before anything is charged if the store is non-empty, an
/// object id repeats, the store refuses a record in
/// [`SpatialStore::leaf_entry`] (the cluster organization's objects
/// larger than `Smax`), or a record has a non-finite MBR.
pub fn bulk_load_records_par(
    store: &mut dyn SpatialStore,
    records: &[ObjectRecord],
    threads: usize,
) {
    assert!(
        store.tree().is_empty(),
        "cannot bulk-load into the non-empty store {:?} ({} objects)",
        store.name(),
        store.tree().len()
    );
    let mut seen = HashSet::with_capacity(records.len());
    for rec in records {
        assert!(seen.insert(rec.oid), "object {} already stored", rec.oid.0);
    }
    drop(seen);
    let entries: Vec<LeafEntry> = records.iter().map(|r| store.leaf_entry(r)).collect();
    let params = TilingParams::from_config(store.tree().config(), DEFAULT_STR_FILL);

    // One contiguous chunk per thread, sorted on it.
    let per = entries.len().div_ceil(threads.max(1)).max(1);
    let chunks: Vec<&[LeafEntry]> = entries.chunks(per).collect();
    let sorted = map_chunks(&chunks, threads, &mut Spares::default(), |mine| {
        mine.iter()
            .map(|chunk| {
                let mut sorted = chunk.to_vec();
                bulk::sort_entries(&mut sorted);
                sorted
            })
            .collect()
    });
    // The planned list goes before the merge builds the sorted one, and
    // the sorted one before the install: the load never holds more than
    // the sorted chunks or tiles next to one full list.
    drop(entries);
    let entries = bulk::merge_sorted_chunks(sorted);

    let spans = bulk::slice_spans(entries.len(), &params);
    let tiles: Vec<Tile> = map_chunks(&spans, threads, &mut Spares::default(), |mine| {
        mine.iter()
            .flat_map(|span| bulk::tile_slice(&entries[span.clone()], &params))
            .collect()
    });
    drop(entries);
    store.str_install(records, tiles, &params);
}
