//! Bulk-load benchmark: insertion build vs the parallel STR bulk load
//! over an organizations × thread-count grid, emitted as
//! `BENCH_bulk_load.json`.
//!
//! For each organization model the §5.2 insertion build runs once (the
//! Figure 5 baseline, [`figures::build`]), then the sort-tile-recursive
//! bulk load
//! ([`bulk_load_records_par`]) runs at every thread count in the grid.
//! Reported per cell:
//! simulated construction I/O (total ms, pages read/written, requests),
//! wall-clock build seconds, occupied pages and R\*-tree node count.
//! Threads only sort and tile; every charge is made on the calling
//! thread. So an STR row equals its organization's 1-thread row in
//! every column but `wall_seconds`, and it charges **strictly less**
//! simulated I/O than the insertion build. The bench asserts both.
//!
//! A query-equivalence check follows per organization: a paper-style
//! 1 %-area window-query set runs against the insertion-built and the
//! STR-built trees. The answers must be identical (asserted); the
//! packed tree answers each window with fewer directory-node accesses,
//! reported as `node_reads_per_query`.
//!
//! Flags: `--scale F` (fraction of Table 1 data), `--out PATH`.

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::DataSet;
use spatialdb::rtree::io::CountingIo;
use spatialdb::storage::OrganizationKind;
use spatialdb::{bulk_load_records_par, DbOptions, SpatialDatabase, Workspace};
use spatialdb_bench::parsed;
use spatialdb_workload::figures::{self, records_of, Scale};
use spatialdb_workload::org_label;
use std::time::Instant;

/// The worker-thread counts of the grid.
const LOAD_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Window area of the equivalence query set (1 % of the data space —
/// the middle of the paper's Figure 8 grid).
const QUERY_AREA: f64 = 0.01;

/// Sorted answer set and total directory-node reads of one query set.
fn run_queries(db: &SpatialDatabase, queries: &WindowQuerySet) -> (Vec<Vec<u64>>, u64) {
    let store = db.store();
    let mut answers = Vec::with_capacity(queries.windows.len());
    let mut node_reads = 0u64;
    let mut scratch = Vec::new();
    for w in &queries.windows {
        let mut io = CountingIo::default();
        store.tree().window_entries_into(w, &mut io, &mut scratch);
        node_reads += io.reads;
        let mut ids: Vec<u64> = scratch.iter().map(|e| e.oid.0).collect();
        ids.sort_unstable();
        answers.push(ids);
    }
    (answers, node_reads)
}

fn main() {
    let scale = Scale::fraction(parsed("--scale", 1.0));
    let out_path = parsed("--out", "BENCH_bulk_load.json".to_string());
    println!("== Bulk load: insertion build vs parallel STR ==\n   ({scale})\n");

    let dataset = DataSet::all()[0];
    let spec = dataset.spec();
    let map = scale.map(dataset);
    let records = records_of(&map.objects);
    let queries = WindowQuerySet::generate(&map, QUERY_AREA, scale.num_queries, scale.seed);
    println!(
        "data set {dataset}: {} objects, thread grid {LOAD_THREADS:?}, {} queries",
        records.len(),
        queries.windows.len()
    );

    let mut rows = Vec::new();
    for kind in [
        OrganizationKind::Secondary,
        OrganizationKind::Primary,
        OrganizationKind::Cluster,
    ] {
        let label = org_label(kind);

        let start = Instant::now();
        let ws = Workspace::new(scale.construction_buffer);
        let (insert_db, insert_stats) = figures::build(&ws, kind, spec.smax_bytes, false, &records);
        let insert_secs = start.elapsed().as_secs_f64();
        println!(
            "  {label:9} insert        : {:8.1} io-s  {:7} pages written  {:.2} wall-s",
            insert_stats.io_seconds(),
            insert_stats.pages_written,
            insert_secs
        );
        rows.push(format!(
            "    {{\"org\": \"{label}\", \"method\": \"insert\", \"threads\": 1, \
             \"io_ms\": {:.3}, \"pages_written\": {}, \"pages_read\": {}, \
             \"write_requests\": {}, \"occupied_pages\": {}, \"tree_nodes\": {}, \
             \"wall_seconds\": {:.3}}}",
            insert_stats.io_ms,
            insert_stats.pages_written,
            insert_stats.pages_read,
            insert_stats.write_requests,
            insert_db.occupied_pages(),
            insert_db.store().tree().num_nodes(),
            insert_secs
        ));

        let mut str_db: Option<SpatialDatabase> = None;
        let mut one_thread = None;
        for threads in LOAD_THREADS {
            let start = Instant::now();
            // A machine of its own: its disk's counters are this build's.
            let ws = Workspace::new(scale.construction_buffer);
            let mut db =
                ws.create_database(DbOptions::new(kind).smax_bytes(spec.smax_bytes as u64));
            bulk_load_records_par(db.store_mut(), &records, threads);
            db.store_mut().flush();
            let stats = ws.disk().stats();
            let secs = start.elapsed().as_secs_f64();
            println!(
                "  {label:9} str {threads:2} thread(s): {:8.1} io-s  {:7} pages written  \
                 {:.2} wall-s  ({:.2}x less simulated I/O)",
                stats.io_seconds(),
                stats.pages_written,
                secs,
                insert_stats.io_ms / stats.io_ms
            );
            assert!(
                stats.io_ms < insert_stats.io_ms,
                "{label}: STR at {threads} thread(s) must charge less I/O than insertion \
                 ({} vs {} ms)",
                stats.io_ms,
                insert_stats.io_ms
            );
            // Every simulated column of the row: a thread-dependent
            // charge fails here, naming the row.
            let simulated = (stats, db.occupied_pages(), db.store().tree().num_nodes());
            match &one_thread {
                None => one_thread = Some(simulated),
                Some(one) => assert_eq!(
                    *one, simulated,
                    "{label} str at {threads} threads: the simulated columns differ from \
                     the 1-thread row"
                ),
            }
            rows.push(format!(
                "    {{\"org\": \"{label}\", \"method\": \"str\", \"threads\": {threads}, \
                 \"io_ms\": {:.3}, \"pages_written\": {}, \"pages_read\": {}, \
                 \"write_requests\": {}, \"occupied_pages\": {}, \"tree_nodes\": {}, \
                 \"wall_seconds\": {:.3}}}",
                stats.io_ms,
                stats.pages_written,
                stats.pages_read,
                stats.write_requests,
                db.occupied_pages(),
                db.store().tree().num_nodes(),
                secs
            ));
            str_db = Some(db);
        }

        // Query-equivalence check: same answers, fewer node accesses.
        let str_db = str_db.expect("thread grid must not be empty");
        let (insert_answers, insert_reads) = run_queries(&insert_db, &queries);
        let (str_answers, str_reads) = run_queries(&str_db, &queries);
        assert_eq!(
            insert_answers, str_answers,
            "{label}: STR tree must answer the query set identically"
        );
        assert!(
            str_reads < insert_reads,
            "{label}: packed tree must touch fewer nodes ({str_reads} vs {insert_reads})"
        );
        let n = queries.windows.len() as f64;
        println!(
            "  {label:9} queries       : identical answers; {:.2} node reads/query packed \
             vs {:.2} inserted",
            str_reads as f64 / n,
            insert_reads as f64 / n
        );
        rows.push(format!(
            "    {{\"org\": \"{label}\", \"method\": \"query_check\", \"queries\": {}, \
             \"answers_identical\": true, \"node_reads_per_query_str\": {:.3}, \
             \"node_reads_per_query_insert\": {:.3}}}",
            queries.windows.len(),
            str_reads as f64 / n,
            insert_reads as f64 / n
        ));
    }

    let threads_json: Vec<String> = LOAD_THREADS.iter().map(|t| t.to_string()).collect();
    let json = format!(
        "{{\n  \"bench\": \"bulk_load\",\n  \"dataset\": \"{dataset}\",\n  \
         \"objects\": {},\n  \"queries\": {},\n  \"window_area\": {QUERY_AREA},\n  \
         \"threads\": [{}],\n  \"rows\": [\n{}\n  ]\n}}\n",
        records.len(),
        queries.windows.len(),
        threads_json.join(", "),
        rows.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write bench report");
    println!("wrote {out_path}");
}
