//! Integration tests of the figure drivers themselves: seed sensitivity,
//! cross-driver consistency, and the cluster-size adaptation study.
//! (That a figure repeats exactly is what the checked-in golden pins.)

use spatialdb::data::{DataSet, MapId, SeriesId};
use spatialdb_workload::figures::{figures, records_of, Figure, Scale};

const GOLDEN: &str = include_str!("../crates/workload/tests/golden/figures.txt");

fn tiny() -> Scale {
    Scale {
        data_scale: 0.02,
        num_queries: 30,
        ..Scale::smoke()
    }
}

fn a1() -> DataSet {
    DataSet {
        series: SeriesId::A,
        map: MapId::Map1,
    }
}

#[test]
fn different_seeds_change_io_but_not_shape() {
    let base = tiny();
    let other = Scale {
        seed: 4242,
        ..tiny()
    };
    let r1 = figures(&["8"], &base, &[a1()]).next().unwrap();
    let r2 = figures(&["8"], &other, &[a1()]).next().unwrap();
    // Different data → different absolute numbers…
    let smallest = |fig: &Figure| {
        let row = fig.at(&["A - 1", "0.001"]);
        ["sec. org.", "prim. org.", "cluster org."].map(|org| row.get(org))
    };
    assert_ne!(smallest(&r1), smallest(&r2));
    // …but the same qualitative result at the largest window.
    for fig in [r1, r2] {
        fig.at(&["A - 1", "10"])
            .assert_ordering(&["cluster org.", "sec. org."]);
    }
}

#[test]
fn records_preserve_map_statistics() {
    let scale = tiny();
    let map = scale.map(a1());
    let records = records_of(&map.objects);
    assert_eq!(records.len(), map.len());
    let total: u64 = records.iter().map(|r| u64::from(r.size_bytes)).sum();
    assert_eq!(total, map.total_bytes());
    for (rec, obj) in records.iter().zip(&map.objects) {
        assert_eq!(rec.mbr, obj.mbr);
    }
}

#[test]
fn figure11_adaptation_helps_complete_most() {
    // §5.4.4: adapting the cluster size to the query size helps the
    // simple complete technique clearly more than threshold/SLM.
    let fig = figures(&["11"], &Scale::fraction(0.03), &[])
        .next()
        .unwrap();
    fig.assert_matches_golden(GOLDEN);
    // All three techniques are reported.
    let [complete, _, slm] = ["Complete", "Threshold", "Slm"].map(|t| fig.at(&[t]));
    // Gains are non-negative and grow with the factor for the complete
    // technique.
    assert!(complete.get("factor 100") >= complete.get("factor 10") - 1.0);
    assert!(complete.get("factor 100") > 0.0);
    // The sophisticated technique depends less on adaptation.
    assert!(
        slm.get("factor 100") <= complete.get("factor 100") + 1.0,
        "slm {} vs complete {}",
        slm.get("factor 100"),
        complete.get("factor 100")
    );
}

#[test]
fn scale_paper_defaults_match_the_paper() {
    let s = Scale::paper();
    assert_eq!(s.data_scale, 1.0);
    assert_eq!(s.num_queries, 678);
    assert_eq!(s.join_buffers, vec![200, 400, 800, 1600, 3200, 6400]);
}
