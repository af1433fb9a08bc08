//! The paper's figures against `golden/figures.txt` — the checked-in
//! output of `figures --scale 0.03` — **byte for byte**.
//!
//! The shape gates on these figures live with the engine tests they
//! share maps with (`tests/integration_{organizations,queries,join,
//! experiments}.rs` at the repository root): each runs the A-1 / C-1 /
//! series-C subset its gates need once and matches the rows it ran
//! against this golden by key. Here the whole file is compared: Table 1
//! (six generated maps, no store built) in tier-1, all eleven figures on
//! all maps in the `#[ignore]`d test that release CI runs beside the
//! `figures` binary itself.

use spatialdb::data::DataSet;
use spatialdb_workload::figures::{figures, Scale, IDS};

const GOLDEN: &str = include_str!("golden/figures.txt");

/// What `figures --scale 0.03 [--fig ..]` prints for `ids`.
fn rendered(ids: &[&str]) -> String {
    let scale = Scale::fraction(0.03);
    let mut out = format!("figures at {scale}\n");
    for fig in figures(ids, &scale, &DataSet::all()) {
        out += &format!("\n{fig}");
    }
    out
}

#[test]
fn table1_opens_the_golden_byte_for_byte() {
    let table1 = rendered(&["table1"]);
    assert!(
        GOLDEN.starts_with(&table1),
        "golden/figures.txt does not open with\n{table1}"
    );
}

#[test]
#[ignore = "all eleven figures on all maps; run in release (cargo test --release -- --ignored)"]
fn every_figure_matches_the_golden_byte_for_byte() {
    let rendered = rendered(&IDS);
    for (n, (got, want)) in rendered.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "golden/figures.txt line {}", n + 1);
    }
    assert_eq!(rendered.len(), GOLDEN.len(), "golden/figures.txt length");
}
