//! Cross-crate integration tests: window- and point-query shapes of
//! Figures 8, 10 and 12 as gates on the figures themselves (run once, at
//! the scale of the checked-in golden, and matched against it), plus
//! refinement through the public database API. (Exact answers on every
//! organization are the differential matrix's, `tests/differential.rs`.)

use spatialdb::data::workload::WindowQuerySet;
use spatialdb::data::{DataSet, GeometryMode, MapId, SeriesId, SpatialMap};
use spatialdb::geom::{HasMbr, Rect};
use spatialdb::{DbOptions, OrganizationKind, Workspace};
use spatialdb_workload::figures::{figures, Figure, Scale, Trend};
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("../crates/workload/tests/golden/figures.txt");

fn a1() -> DataSet {
    DataSet {
        series: SeriesId::A,
        map: MapId::Map1,
    }
}

/// Figure `id` on A-1 at the golden's scale, computed once per figure
/// for all tests of this file.
fn fig(id: &'static str) -> &'static Figure {
    static FIGS: [OnceLock<Figure>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = ["8", "10", "12"].iter().position(|i| *i == id).unwrap();
    FIGS[slot].get_or_init(|| {
        figures(&[id], &Scale::fraction(0.03), &[a1()])
            .next()
            .unwrap()
    })
}

#[test]
fn query_figures_match_the_golden() {
    for id in ["8", "10", "12"] {
        fig(id).assert_matches_golden(GOLDEN);
    }
}

#[test]
fn figure8_cluster_wins_large_windows() {
    let fig = fig("8");
    // Largest window (10% of the data space): cluster must beat the
    // secondary organization by a large factor, and the primary
    // organization sits between the two.
    let large = fig.at(&["A - 1", "10"]);
    large
        .assert_factor_at_least("sec. org.", "cluster org.", 4.0)
        .assert_ordering(&["cluster org.", "prim. org.", "sec. org."]);
    // And the advantage must grow with the window size.
    let small = fig.at(&["A - 1", "0.01"]);
    let speedup = large.get("sec. org.") / large.get("cluster org.");
    let small_speedup = small.get("sec. org.") / small.get("cluster org.");
    assert!(
        speedup > small_speedup,
        "speedup must grow: {small_speedup:.1} → {speedup:.1}"
    );
}

#[test]
fn figure10_technique_ordering() {
    let fig = fig("10");
    for area in ["0.001", "0.01", "0.1", "1", "10"] {
        fig.at(&["A - 1", area])
            // Optimum is a lower bound for every technique.
            .assert_lower_bound("opt.")
            // Threshold and SLM never lose badly to complete.
            .assert_factor_at_most("threshold", "complete", 1.05)
            .assert_factor_at_most("SLM", "complete", 1.05);
    }
    // For the most selective windows the sophisticated techniques help;
    // for the largest they all converge (within 10%).
    fig.at(&["A - 1", "0.001"])
        .assert_factor_at_most("SLM", "complete", 0.95);
    fig.at(&["A - 1", "10"])
        .assert_factor_at_least("SLM", "complete", 0.85);
}

#[test]
fn figure12_point_queries_cluster_not_penalized() {
    let row = fig("12").at(&["A - 1"]);
    // §5.5: almost no difference between secondary and cluster.
    row.assert_within("cluster org.", row.get("sec. org."), 0.15)
        // Primary is best for the smallest objects.
        .assert_ordering(&["prim. org.", "sec. org."]);
}

#[test]
fn refinement_filters_false_mbr_hits() {
    // A window overlapping MBRs but missing the exact geometry must
    // return nothing.
    let map = SpatialMap::generate(a1(), 0.002, GeometryMode::Full, 11);
    let ws = Workspace::new(256);
    let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    for obj in &map.objects {
        db.insert(obj.id, obj.geometry.clone().unwrap());
    }
    db.finish_loading();
    // Count candidate vs exact answers over a sample of windows: the MBR
    // filter must over-approximate (candidates ≥ answers) and refinement
    // must discard at least some false hit somewhere.
    // Tiny windows (side ~0.001, smaller than an object MBR) centred
    // inside MBRs often sit in an empty MBR corner of a diagonal street.
    let queries = WindowQuerySet::generate(&map, 1e-6, 120, 5);
    let mut candidates_total = 0usize;
    let mut answers_total = 0usize;
    for w in &queries.windows {
        let answers = db.query().window(*w).run().ids();
        let candidates = map
            .objects
            .iter()
            .filter(|o| o.geometry.as_ref().unwrap().mbr().intersects(w))
            .count();
        assert!(candidates >= answers.len());
        candidates_total += candidates;
        answers_total += answers.len();
    }
    assert!(
        candidates_total > answers_total,
        "refinement never filtered anything ({candidates_total} candidates)"
    );
}

#[test]
fn window_answer_counts_scale_with_area() {
    fig("8")
        .down("avg answers", &["A - 1"])
        .assert_monotone(Trend::Rising, 0.0);
}

#[test]
fn queries_outside_data_space_are_cheap_and_empty() {
    let ws = Workspace::new(128);
    let mut db = ws.create_database(DbOptions::new(OrganizationKind::Cluster));
    let map = SpatialMap::generate(a1(), 0.001, GeometryMode::Full, 13);
    for obj in &map.objects {
        db.insert(obj.id, obj.geometry.clone().unwrap());
    }
    db.finish_loading();
    let far = Rect::new(5.0, 5.0, 6.0, 6.0);
    assert!(db.query().window(far).run().ids().is_empty());
}
