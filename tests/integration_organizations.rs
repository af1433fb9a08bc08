//! Cross-crate integration tests: building the three organization models
//! from generated data, and the construction / storage-utilization
//! shapes of Table 1 and Figures 5–7 as gates on the figures themselves
//! (run once, at the scale of the checked-in golden, and matched
//! against it).

use spatialdb::data::{DataSet, MapId, SeriesId};
use spatialdb::rtree::validate::check_invariants;
use spatialdb::rtree::ObjectId;
use spatialdb::storage::{ObjectRecord, OrganizationKind};
use spatialdb::{DbOptions, Workspace};
use spatialdb_workload::figures::{figures, Figure, Scale};
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("../crates/workload/tests/golden/figures.txt");

fn a1() -> DataSet {
    DataSet {
        series: SeriesId::A,
        map: MapId::Map1,
    }
}

/// Table 1 and Figs. 5 – 7 (on A-1 and C-1) at the golden's scale,
/// computed once for all tests of this file.
fn fig(id: &str) -> &'static Figure {
    static FIGS: OnceLock<Vec<Figure>> = OnceLock::new();
    let c1 = DataSet {
        series: SeriesId::C,
        map: MapId::Map1,
    };
    FIGS.get_or_init(|| {
        figures(
            &["table1", "5", "6", "7"],
            &Scale::fraction(0.03),
            &[a1(), c1],
        )
        .collect()
    })
    .iter()
    .find(|f| f.id() == id)
    .expect("one of the four")
}

#[test]
fn construction_figures_match_the_golden() {
    for id in ["table1", "5", "6", "7"] {
        fig(id).assert_matches_golden(GOLDEN);
    }
}

#[test]
fn table1_matches_paper_statistics() {
    for ds in DataSet::all() {
        let row = fig("table1").at(&[ds.to_string().as_str()]);
        // Average object size within 8% of the paper's value.
        row.assert_within("avg object size", row.get("paper avg"), 0.08)
            // Scaled total volume proportional to the paper's total.
            .assert_within("total size", row.get("paper total") * 0.03, 0.1);
    }
}

#[test]
fn every_organization_builds_consistently() {
    let map = Scale::fraction(0.03).map(a1());
    let records: Vec<ObjectRecord> = map
        .objects
        .iter()
        .map(|o| ObjectRecord::new(ObjectId(o.id), o.mbr, o.size_bytes))
        .collect();
    let smax = a1().spec().smax_bytes as u64;
    for kind in [
        OrganizationKind::Secondary,
        OrganizationKind::Primary,
        OrganizationKind::Cluster,
    ] {
        let ws = Workspace::new(64);
        let mut db = ws.create_database(DbOptions::new(kind).smax_bytes(smax));
        for rec in &records {
            db.store_mut().insert(rec);
        }
        db.finish_loading();
        let store = db.store();
        assert_eq!(store.tree().len(), records.len(), "{kind:?}");
        check_invariants(store.tree()).unwrap();
        store.check_consistency().unwrap();
        assert!(ws.disk().stats().io_ms > 0.0);
        assert!(store.occupied_pages() > 0);
    }
}

#[test]
fn figure5_construction_shape() {
    // Cluster < secondary < primary, and primary grows with object size
    // while secondary/cluster stay nearly flat.
    let fig = fig("5");
    for series in ["A - 1", "C - 1"] {
        fig.at(&[series])
            .assert_ordering(&["cluster org.", "sec. org.", "prim. org."]);
    }
    // Primary grows with object size; secondary and cluster stay within 25%.
    fig.down("prim. org.", &[])
        .assert_factor_at_least("C - 1", "A - 1", 1.3);
    fig.down("sec. org.", &[])
        .assert_factor_at_most("C - 1", "A - 1", 1.25);
    fig.down("cluster org.", &[])
        .assert_factor_at_most("C - 1", "A - 1", 1.25);
}

#[test]
fn figure6_storage_utilization_shape() {
    // Secondary best (fewest pages), cluster worst (full-Smax units).
    fig("6")
        .at(&["A - 1"])
        .assert_ordering(&["sec. org.", "prim. org.", "cluster org."]);
}

#[test]
fn figure7_restricted_buddy_shape() {
    // The restricted buddy system brings the cluster organization's
    // occupied pages to about the primary organization's level, at only
    // slightly higher construction cost.
    let row = fig("7").at(&["A - 1"]);
    row.assert_ordering(&["pages cluster (buddy)", "pages cluster (no buddy)"])
        // Within 35% of the primary organization (paper: "about the same").
        .assert_within("pages cluster (buddy)", row.get("pages prim. org."), 0.35)
        // Construction at most 15% more expensive than without the buddy.
        .assert_factor_at_most("constr. s (buddy)", "constr. s (no buddy)", 1.15);
}

#[test]
fn smax_rule_produces_paper_cluster_sizes() {
    // §4.2: Smax ≈ 1.5 · M · S_obj; Table 1's 80/160/320 KB follow.
    for ds in DataSet::all() {
        let spec = ds.spec();
        let rule = spec.smax_rule(89);
        let ratio = rule / spec.smax_bytes as f64;
        assert!(
            (0.75..=1.6).contains(&ratio),
            "{ds}: rule {rule} vs table {}",
            spec.smax_bytes
        );
    }
}
