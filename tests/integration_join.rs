//! Cross-crate integration tests: the spatial-join shapes of Figures 14,
//! 16 and 17 as gates on the figures themselves (run once, at the scale
//! of the checked-in golden, and matched against it), plus the join
//! cursor's draining through the public API. (Exact pairs on every
//! organization are the differential matrix's, `tests/differential.rs`.)

use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::{DbOptions, OrganizationKind, Workspace};
use spatialdb_workload::figures::{calibrate_versions, figures, Figure, Scale, Trend};
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("../crates/workload/tests/golden/figures.txt");

/// The golden's scale: buffers sized relative to the shrunken maps, all
/// larger than one C-series cluster unit (80 pages).
fn scale() -> Scale {
    Scale::fraction(0.03)
}

/// Figs. 14, 16 and 17 (C-1 ⋈ C-2) at the golden's scale, computed once
/// — on one set of operand pairs — for all tests of this file.
fn fig(id: &str) -> &'static Figure {
    static FIGS: OnceLock<Vec<Figure>> = OnceLock::new();
    FIGS.get_or_init(|| figures(&["14", "16", "17"], &scale(), &[]).collect())
        .iter()
        .find(|f| f.id() == id)
        .expect("one of the three")
}

#[test]
fn join_figures_match_the_golden() {
    for id in ["14", "16", "17"] {
        fig(id).assert_matches_golden(GOLDEN);
    }
}

#[test]
fn join_versions_calibrate_to_paper_selectivities() {
    let [a, b] = calibrate_versions(&scale(), SeriesId::C);
    assert!(
        (a.pairs_per_mbr - 0.65).abs() / 0.65 < 0.2,
        "version a: {} pairs/MBR",
        a.pairs_per_mbr
    );
    assert!(
        (b.pairs_per_mbr - 9.0).abs() / 9.0 < 0.2,
        "version b: {} pairs/MBR",
        b.pairs_per_mbr
    );
    assert!(b.inflation > a.inflation);
}

#[test]
fn figure14_cluster_wins_joins() {
    let fig = fig("14");
    let buffers = scale().join_buffers;
    for version in ["a", "b"] {
        for buffer in &buffers {
            fig.at(&[version, &buffer.to_string()])
                .assert_ordering(&["cluster org.", "sec. org."]);
        }
    }
    // Version b (9 pairs/MBR) profits more than version a (0.65).
    let largest = buffers.iter().max().unwrap().to_string();
    let speedup = |version: &str| {
        let row = fig.at(&[version, &largest]);
        row.get("sec. org.") / row.get("cluster org.")
    };
    assert!(
        speedup("b") > speedup("a"),
        "b {:.1}x !> a {:.1}x",
        speedup("b"),
        speedup("a")
    );
    fig.at(&["a", &largest])
        .assert_factor_at_least("sec. org.", "cluster org.", 1.5);
}

#[test]
fn figure14_larger_buffers_never_hurt() {
    for version in ["a", "b"] {
        for org in ["sec. org.", "prim. org.", "cluster org."] {
            fig("14")
                .down(org, &[version])
                .assert_monotone(Trend::Falling, 1e-6);
        }
    }
}

/// A primary-organization object lives in the data page the MBR join
/// has just read (§3.2.2), and the transfer fetches each leaf pair's
/// objects while the traversal's pages are still buffered: so the
/// primary organization reads its data pages once and costs about what
/// the secondary does, at every buffer size and in both versions. A
/// transfer that started only after the whole traversal read every data
/// page twice (1.7 – 2.0 × the secondary at this scale).
#[test]
fn figure14_primary_reads_its_data_pages_once() {
    for version in ["a", "b"] {
        for buffer in &scale().join_buffers {
            fig("14")
                .at(&[version, &buffer.to_string()])
                .assert_factor_at_most("prim. org.", "sec. org.", 1.25);
        }
    }
}

#[test]
fn figure16_optimum_bounds_and_convergence() {
    let fig = fig("16");
    let buffers = scale().join_buffers;
    for version in ["a", "b"] {
        for buffer in &buffers {
            fig.at(&[version, &buffer.to_string()])
                .assert_lower_bound("opt.");
        }
    }
    // At the largest buffer the complete technique is close to optimum
    // ("the maximum transfer rate of the disk is reached", §6.2).
    let largest = buffers.iter().max().unwrap().to_string();
    fig.at(&["a", &largest])
        .assert_factor_at_most("complete", "opt.", 2.2);
}

#[test]
fn figure17_breakdown_shape() {
    let fig = fig("17");
    for version in ["a", "b"] {
        // Same MBR pairs, same exact-test cost, similar MBR-join cost.
        for same in ["MBR pairs", "exact test"] {
            let bars = fig.down(same, &[version]);
            assert_eq!(bars.get("sec. org."), bars.get("cluster org."), "{same}");
        }
        // The transfer step is what collapses.
        fig.down("obj. transfer", &[version])
            .assert_factor_at_least("sec. org.", "cluster org.", 2.0);
        // Total speedup in the paper's ballpark (≥ 2x at smoke scale).
        fig.down("total", &[version])
            .assert_factor_at_least("sec. org.", "cluster org.", 2.0);
    }
}

/// A-1 and A-2 at a scale where a join has a few hundred answers.
fn small_join_operands(ws: &Workspace) -> (spatialdb::SpatialDatabase, spatialdb::SpatialDatabase) {
    let load = |map, kind| {
        let data = SpatialMap::generate(
            DataSet {
                series: SeriesId::A,
                map,
            },
            0.02,
            GeometryMode::Full,
            3,
        );
        let mut db = ws.create_database(DbOptions::new(kind));
        for o in &data.objects {
            db.insert(o.id, o.geometry.clone().unwrap());
        }
        db.finish_loading();
        db
    };
    (
        load(MapId::Map1, OrganizationKind::Cluster),
        load(MapId::Map2, OrganizationKind::Secondary),
    )
}

#[test]
fn pairs_after_take_returns_exactly_the_remaining_answers() {
    let ws = Workspace::new(512);
    let (a, b) = small_join_operands(&ws);
    // Iteration yields the answers in MBR-join order; pairs() sorts.
    let in_join_order: Vec<(u64, u64)> = a.join(&b).run().collect();
    assert!(in_join_order.len() > 20, "{} answers", in_join_order.len());
    let sorted = |pairs: &[(u64, u64)]| {
        let mut v = pairs.to_vec();
        v.sort_unstable();
        v
    };
    assert_eq!(a.join(&b).run().pairs(), sorted(&in_join_order));
    for k in [1, 7, in_join_order.len() - 1, in_join_order.len()] {
        for threads in [None, Some(1), Some(2), Some(8)] {
            let mut cursor = match threads {
                None => a.join(&b).run(),
                Some(n) => a.join(&b).run_par(n),
            };
            let taken: Vec<(u64, u64)> = cursor.by_ref().take(k).collect();
            assert_eq!(taken, in_join_order[..k], "take({k}), {threads:?}");
            assert_eq!(
                cursor.pairs(),
                sorted(&in_join_order[k..]),
                "after take({k}), {threads:?}"
            );
        }
    }
}

/// Filter-only records (bulk-loaded into the store, no exact geometry)
/// cannot be refined: every way of draining a join cursor panics, naming
/// the first candidate pair.
#[test]
fn refining_a_filter_only_join_panics_with_the_same_message_everywhere() {
    use spatialdb::geom::Rect;
    use spatialdb::rtree::{NoIo, ObjectId};
    use spatialdb::storage::ObjectRecord;

    let ws = Workspace::new(256);
    let filter_only = |dx: f64| {
        let mut db = ws.create_database(DbOptions::new(OrganizationKind::Secondary));
        let records: Vec<ObjectRecord> = (0..40u64)
            .map(|i| {
                let x = (i % 8) as f64 / 8.0 + dx;
                let y = (i / 8) as f64 / 8.0;
                ObjectRecord::new(ObjectId(i), Rect::new(x, y, x + 0.05, y + 0.05), 700)
            })
            .collect();
        for rec in &records {
            db.store_mut().insert(rec);
        }
        db.finish_loading();
        db
    };
    let (a, b) = (filter_only(0.0), filter_only(0.01));
    let first = spatialdb::join::mbr_join(a.store().tree(), b.store().tree(), &mut NoIo).pairs[0];
    let message = |drain: &dyn Fn()| -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(drain))
            .expect_err("refining filter-only records must panic");
        payload
            .downcast_ref::<String>()
            .expect("a formatted panic message")
            .clone()
    };
    let expected = format!(
        "join candidate ({}, {}) lacks exact geometry; read stats() instead of \
         iterating, or insert through SpatialDatabase::insert",
        first.0 .0, first.1 .0
    );
    assert_eq!(message(&|| drop(a.join(&b).run().pairs())), expected);
    assert_eq!(
        message(&|| {
            let _ = a.join(&b).run().next();
        }),
        expected
    );
    assert_eq!(message(&|| drop(a.join(&b).run_par(2).pairs())), expected);
    // The filter-only read-out still works.
    assert!(a.join(&b).run().stats().mbr_pairs > 0);
}
