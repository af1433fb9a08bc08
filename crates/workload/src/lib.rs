//! # spatialdb-workload
//!
//! A declarative scenario harness over the `spatialdb` engine: declare
//! *what* to measure — dataset, engine configuration, window sweep,
//! arrival discipline, replay grid, mixed operation stream — and the
//! driver handles *how*: workspace construction from one
//! [`EngineConfig`](spatialdb::EngineConfig), deterministic bulk
//! loading, the traced filter pass, the arm-array replay, and report
//! assembly.
//!
//! ```no_run
//! use spatialdb::{ArmPolicy, Arrival, EngineConfig};
//! use spatialdb_workload::{Dataset, Mix, Scenario};
//!
//! let report = Scenario::new("fig-like")
//!     .dataset(Dataset::uniform(10_000).polyline_segments(8))
//!     .engine(EngineConfig::default().shards(8))
//!     .arrivals(Arrival::open(0.7))
//!     .mix(Mix::new().window(0.6).point(0.2).join(0.1).insert(0.1))
//!     .sweep_depths(&[8])
//!     .sweep_policies(&[ArmPolicy::Elevator])
//!     .sweep_arms(&[4])
//!     .run();
//!
//! report
//!     .assert_p99_under_ms(50_000.0)
//!     .assert_stats_conserved();
//! // The replay cells are a `Figure`: cut the cluster organization's p99s.
//! let p99s = report.cells.down("p99_ms", &["cluster", "round_robin"]);
//! ```
//!
//! The harness is exact where it matters: the same scenario and seed
//! produce a byte-identical [`ScenarioReport`] at any thread count.
//! The four scenario reports checked in at the repository root
//! (`BENCH_*.json`) are declared once, in [`reports`], and are each
//! scenario's own [`ScenarioReport::to_json`]; a scenario sweeping part
//! of one of their grids reproduces its rows byte for byte
//! ([`ScenarioReport::assert_matches_golden`]).
//!
//! One report shape serves both the harness and the paper's own
//! evaluation: [`figures::Figure`]. A scenario report's replay cells and
//! mix rows are two figures, written one JSON line per row; [`figures`]
//! regenerates Table 1 and Figures 5 – 17 as figures with their own
//! golden (`tests/golden/figures.txt`) for the `figures` binary and the
//! shape tests. Both are gated by the same [`figures::Series`] cuts and
//! render through [`report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod figures;
pub mod mix;
pub mod report;
pub mod reports;
pub mod scenario;

pub use dataset::Dataset;
pub use mix::Mix;
pub use report::{org_label, policy_label, ScenarioReport};
pub use scenario::{Scenario, WindowSweep};

// The repository README, whose Rust snippets `cargo test` compiles and
// runs as doctests of this crate (it sees `spatialdb` and
// `spatialdb_workload` both).
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
