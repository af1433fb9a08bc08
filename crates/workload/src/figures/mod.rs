//! The drivers regenerating every table and figure of the paper's
//! evaluation (§5 and §6), each as one [`Figure`].
//!
//! Every driver is parameterized by a [`Scale`], so the identical code
//! runs at paper scale (`figures --fig N`), at the `--scale 0.03` the
//! golden file `tests/golden/figures.txt` pins, and under the shape
//! gates of the test suite (who wins, by roughly what factor, where the
//! crossovers fall).
//!
//! | id | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — maps and test series |
//! | `5` `6` `7` | construction I/O, occupied pages, restricted buddy system — three views of one construction pass |
//! | `8` `10` | window queries across organization models / across the cluster organization's techniques — one sweep over (organization, technique) columns |
//! | `11` | adapting the cluster size |
//! | `12` | point queries |
//! | `14` `16` | join I/O across organization models / across transfer techniques — one sweep over (organization, technique) columns |
//! | `17` | complete join cost breakdown |
//!
//! The drivers measure what the paper measures — construction I/O,
//! occupied pages, cold-per-query msec / 4 KB, join I/O per buffer
//! size — on databases built through the engine's own
//! [`Workspace::create_database`] and queried through the engine's
//! cursors ([`Query::run`], [`SpatialDatabase::join`]), each query
//! measured once, where the engine measures it. They share a crate, a
//! golden directory and a gate vocabulary with
//! [`Scenario`](crate::Scenario), not its trace-and-replay grid: the
//! paper's figures read only the synchronous charges.

mod figure;

pub(crate) use figure::json_string;
pub use figure::{Figure, Series, Trend};

use crate::report::speedup;
use spatialdb::data::workload::{
    calibrate_inflation, inflate_mbrs, pairs_per_mbr, WindowQuerySet, PAPER_WINDOW_AREAS,
};
use spatialdb::data::{DataSet, GeometryMode, MapId, MapObject, SeriesId, SpatialMap};
use spatialdb::disk::{IoStats, PAGE_SIZE};
use spatialdb::storage::{
    ObjectRecord, OrganizationKind, QueryStats, TransferTechnique, WindowTechnique,
};
use spatialdb::{DbOptions, ObjectId, Query, SpatialDatabase, Workspace};

use OrganizationKind::{Cluster, Primary, Secondary};

/// Experiment size parameters.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Fraction of the full Table 1 object counts.
    pub data_scale: f64,
    /// Queries per window/point query set (paper: 678).
    pub num_queries: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Buffer pages during construction.
    pub construction_buffer: usize,
    /// Buffer pages during window/point query processing.
    pub query_buffer: usize,
    /// Buffer sizes swept by the join experiments (paper: 200–6,400).
    pub join_buffers: Vec<usize>,
}

impl Scale {
    /// Paper-scale parameters (full object counts, 678 queries, buffer
    /// sweep 200–6,400 pages).
    pub fn paper() -> Self {
        Scale {
            data_scale: 1.0,
            num_queries: 678,
            seed: 1994,
            construction_buffer: 512,
            query_buffer: 512,
            join_buffers: vec![200, 400, 800, 1600, 3200, 6400],
        }
    }

    /// Small-scale parameters for tests (~1 % of the data; buffer sweep
    /// scaled to the shrunken data set).
    pub fn smoke() -> Self {
        Scale {
            data_scale: 0.01,
            num_queries: 60,
            seed: 1994,
            construction_buffer: 128,
            query_buffer: 128,
            join_buffers: vec![16, 32, 64, 128],
        }
    }

    /// The paper's experiments on `fraction` of the data (`--scale`).
    /// Below half scale the query counts and join buffers shrink with
    /// it, so quick runs stay quick and the buffers stay meaningful
    /// relative to the data volume.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is in (0, 1], with [`Scale::try_fraction`]'s message.
    pub fn fraction(fraction: f64) -> Self {
        Scale::try_fraction(fraction).unwrap_or_else(|message| panic!("{message}"))
    }

    /// [`fraction`](Scale::fraction), or a message naming `--scale`
    /// unless `fraction` is in (0, 1].
    pub fn try_fraction(fraction: f64) -> Result<Self, String> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(format!("--scale must be in (0, 1], got {fraction}"));
        }
        let mut scale = Scale {
            data_scale: fraction,
            ..Scale::paper()
        };
        if fraction < 0.5 {
            scale.num_queries = ((678.0 * fraction * 4.0) as usize).clamp(40, 678);
            scale.join_buffers = vec![160, 320, 640, 1280];
        }
        Ok(scale)
    }

    /// Generate a map at this scale (MBR-only geometry: the experiments
    /// are I/O-cost driven).
    pub fn map(&self, dataset: DataSet) -> SpatialMap {
        SpatialMap::generate(dataset, self.data_scale, GeometryMode::MbrOnly, self.seed)
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            out,
            "data scale {:.2}, {} queries per set, seed {}",
            self.data_scale, self.num_queries, self.seed
        )
    }
}

/// Convert generated map objects to storage records.
pub fn records_of(objects: &[MapObject]) -> Vec<ObjectRecord> {
    objects
        .iter()
        .map(|o| ObjectRecord::new(ObjectId(o.id), o.mbr, o.size_bytes))
        .collect()
}

/// Build a database of `kind` on `ws`, inserting `records` in order
/// (unsorted input, §5.2) and flushing at the end. Returns it with the
/// construction I/O.
///
/// Construction runs with write-through page updates — the update
/// discipline of the systems the paper measured. This is what makes the
/// secondary organization's leaf-level forced reinserts expensive (every
/// relocated entry rewrites a data page) and lets the cluster
/// organization win Figure 5 despite copying objects on cluster splits.
/// (Public for the `bulk_load` report, whose insertion baseline is this
/// build.)
pub fn build(
    ws: &Workspace,
    kind: OrganizationKind,
    smax_bytes: usize,
    buddy: bool,
    records: &[ObjectRecord],
) -> (SpatialDatabase, IoStats) {
    let options = DbOptions::new(kind)
        .smax_bytes(smax_bytes as u64)
        .restricted_buddy(buddy);
    let mut db = ws.create_database(options);
    let before = ws.disk().stats();
    ws.pool().set_write_through(true);
    let store = db.store_mut();
    for rec in records {
        store.insert(rec);
    }
    store.flush();
    ws.pool().set_write_through(false);
    (db, ws.disk().stats().since(&before))
}

/// The ids `figures --fig` accepts, in the paper's order.
pub const IDS: [&str; 11] = [
    "table1", "5", "6", "7", "8", "10", "11", "12", "14", "16", "17",
];

/// Run the figures `ids` name, lazily and in order (the caller prints
/// each as it arrives; a paper-scale figure takes minutes). The
/// per-map figures (5 – 8, 10, 12) run on those of their paper maps
/// that `maps` lists — `&DataSet::all()` for the paper's tables, fewer
/// for a quicker subset whose rows still match the golden by key;
/// Table 1 and Figs. 11, 14, 16, 17 have fixed inputs.
///
/// # Panics
///
/// The iterator panics on an id not in [`IDS`].
pub fn figures<'a>(
    ids: &'a [&'a str],
    scale: &'a Scale,
    maps: &'a [DataSet],
) -> impl Iterator<Item = Figure> + 'a {
    let pick = |wanted: fn(&DataSet) -> bool| -> Vec<DataSet> {
        maps.iter().copied().filter(wanted).collect()
    };
    let map1 = |ds: &DataSet| ds.map == MapId::Map1;
    let a1_c1 = |ds: &DataSet| ds.map == MapId::Map1 && ds.series != SeriesId::B;
    // Figs. 5 – 7 are views of one construction pass (Fig. 7 alone needs
    // only the first map), Figs. 14, 16 and 17 join the same pairs.
    let all_maps = ids.iter().any(|id| matches!(*id, "5" | "6"));
    let mut built: Option<Vec<Built>> = None;
    let mut joins: Option<JoinPairs> = None;
    ids.iter().map(move |&id| match id {
        "table1" => table1(scale),
        "5" | "6" | "7" => construction_view(
            id,
            built.get_or_insert_with(|| {
                construct(scale, &if all_maps { maps.to_vec() } else { pick(map1) })
            }),
        ),
        "8" => window_sweep(&FIG8, scale, &pick(a1_c1)),
        "10" => window_sweep(&FIG10, scale, &pick(a1_c1)),
        "11" => cluster_size_adaptation(scale),
        "12" => point_queries(scale, &pick(map1)),
        "14" | "16" | "17" => {
            let pairs = joins.get_or_insert_with(|| JoinPairs::new(scale));
            match id {
                "14" => join_sweep(&FIG14, pairs),
                "16" => join_sweep(&FIG16, pairs),
                _ => join_breakdown(pairs),
            }
        }
        _ => panic!("unknown figure {id:?} (valid: {})", IDS.join(" ")),
    })
}

/// Table 1: generate all six data sets and report their statistics
/// beside the paper's.
fn table1(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "table1",
        "Table 1: The Maps and the Test Series",
        &["test series - map"],
    )
    .column("number of objects", "", 0)
    .column("avg object size", "B", 0)
    .column("paper avg", "B", 0)
    .column("total size", "MB", 1)
    .column("paper total", "MB", 1)
    .column("Smax", "KB", 0);
    for ds in DataSet::all() {
        let (spec, map) = (ds.spec(), scale.map(ds));
        fig.push(
            vec![ds.to_string()],
            vec![
                map.len() as f64,
                map.avg_object_bytes(),
                spec.avg_object_bytes as f64,
                map.total_bytes() as f64 / (1024.0 * 1024.0),
                spec.total_mb(),
                (spec.smax_bytes / 1024) as f64,
            ],
        );
    }
    fig
}

/// One data set built under every organization model: construction I/O
/// seconds and occupied pages of secondary, primary, cluster, and the
/// cluster organization with the restricted buddy system (Figs. 5 – 7).
struct Built {
    dataset: DataSet,
    io_seconds: [f64; 4],
    pages: [f64; 4],
}

fn construct(scale: &Scale, datasets: &[DataSet]) -> Vec<Built> {
    let variants = [
        (Secondary, false),
        (Primary, false),
        (Cluster, false),
        (Cluster, true),
    ];
    datasets
        .iter()
        .map(|&dataset| {
            let records = records_of(&scale.map(dataset).objects);
            let smax = dataset.spec().smax_bytes;
            let built = variants.map(|(kind, buddy)| {
                let ws = Workspace::new(scale.construction_buffer);
                let (db, stats) = build(&ws, kind, smax, buddy, &records);
                (stats.io_seconds(), db.occupied_pages() as f64)
            });
            Built {
                dataset,
                io_seconds: built.map(|b| b.0),
                pages: built.map(|b| b.1),
            }
        })
        .collect()
}

/// Fig. 5, 6 or 7 as a view of the construction pass.
fn construction_view(id: &str, built: &[Built]) -> Figure {
    let (mut fig, view): (Figure, fn(&Built) -> Vec<f64>) = match id {
        "5" => (
            Figure::new(
                "5",
                "Figure 5: I/O-Cost for Constructing the Organization Models",
                &["series"],
            )
            .column("sec. org.", "s", 0)
            .column("prim. org.", "s", 0)
            .column("cluster org.", "s", 0)
            .note(
                "expected shape: cluster < secondary < primary; primary grows with\n\
                 object size; secondary/cluster nearly independent of it (§5.2).",
            ),
            |b| b.io_seconds[..3].to_vec(),
        ),
        "6" => (
            Figure::new(
                "6",
                "Figure 6: Storage Utilization of the Organization Models",
                &["series"],
            )
            .column("sec. org.", "pages", 0)
            .column("prim. org.", "pages", 0)
            .column("cluster org.", "pages", 0)
            .note(
                "expected shape: secondary best (dense file); cluster worst\n\
                 (each unit occupies the full Smax); primary in between (§5.3).",
            ),
            |b| b.pages[..3].to_vec(),
        ),
        _ => (
            Figure::new(
                "7",
                "Figure 7: Storage Utilization and Construction Cost (I/O) \
                 Using a Restricted Buddy System",
                &["series"],
            )
            .column("pages sec. org.", "", 0)
            .column("pages prim. org.", "", 0)
            .column("pages cluster (no buddy)", "", 0)
            .column("pages cluster (buddy)", "", 0)
            .column("constr. s (no buddy)", "", 0)
            .column("constr. s (buddy)", "", 0)
            .note(
                "expected shape: with the restricted buddy system the cluster\n\
                 organization reaches ≈ primary-organization storage utilization\n\
                 at only slightly higher construction cost (§5.3.1).",
            ),
            |b| {
                let mut v = b.pages.to_vec();
                v.extend(&b.io_seconds[2..]);
                v
            },
        ),
    };
    for b in built
        .iter()
        .filter(|b| id != "7" || b.dataset.map == MapId::Map1)
    {
        fig.push(vec![b.dataset.to_string()], view(b));
    }
    fig
}

/// Run `aim`'s query at each target against `db`, cold per query, and
/// sum the cursors' filter-step stats. The cursors are dropped unread:
/// the filter-only records are never refined.
fn cold_set<T>(
    db: &mut SpatialDatabase,
    targets: &[T],
    aim: impl for<'d> Fn(Query<'d>, &T) -> Query<'d>,
) -> QueryStats {
    let mut total = QueryStats::default();
    for target in targets {
        db.store_mut().begin_query();
        total.accumulate(&aim(db.query(), target).run().stats());
    }
    total
}

/// The value `built` holds under `key`, built on first use: columns that
/// name the same organization measure the same store.
fn get_or_build<K: PartialEq, V>(
    built: &mut Vec<(K, V)>,
    key: K,
    build: impl FnOnce() -> V,
) -> &mut V {
    let at = built.iter().position(|(k, _)| *k == key);
    let at = at.unwrap_or_else(|| {
        built.push((key, build()));
        built.len() - 1
    });
    &mut built[at].1
}

/// A figure whose value columns are (organization, technique) pairs
/// measured over a swept parameter — window area for Figs. 8 and 10,
/// buffer size for Figs. 14 and 16.
struct Sweep<T: 'static> {
    id: &'static str,
    title: &'static str,
    columns: &'static [(&'static str, OrganizationKind, T)],
    /// A leading count column, where the paper reports one (answers per
    /// query, MBR pairs): its name and print precision.
    count: Option<(&'static str, usize)>,
    /// Close with the secondary-over-cluster speedup column.
    speedup: bool,
    note: &'static str,
}

impl<T> Sweep<T> {
    /// The empty figure: `keys`, the count column, one `unit` column per
    /// (organization, technique) pair, the speedup.
    fn figure(&self, keys: &[&'static str], unit: &'static str) -> Figure {
        let mut fig = Figure::new(self.id, self.title, keys).note(self.note);
        if let Some((name, digits)) = self.count {
            fig = fig.column(name, "", digits);
        }
        for (label, ..) in self.columns {
            fig = fig.column(*label, unit, 1);
        }
        if self.speedup {
            fig = fig.speedup("speedup vs sec.", "sec. org.", "cluster org.");
        }
        fig
    }

    /// One row: the column values, led by the count if reported.
    fn values(&self, count: f64, mut values: Vec<f64>) -> Vec<f64> {
        if self.count.is_some() {
            values.insert(0, count);
        }
        values
    }
}

/// Figure 8: the three organization models; the cluster organization
/// uses the paper's *simplest* technique — the complete cluster unit is
/// transferred as soon as one object qualifies.
const FIG8: Sweep<WindowTechnique> = Sweep {
    id: "8",
    title: "Figure 8: Comparison of the Different Organization Models for Window Queries",
    columns: &[
        ("sec. org.", Secondary, WindowTechnique::Complete),
        ("prim. org.", Primary, WindowTechnique::Complete),
        ("cluster org.", Cluster, WindowTechnique::Complete),
    ],
    count: Some(("avg answers", 1)),
    speedup: true,
    note: "expected shape: the larger the window, the better the cluster\n\
           organization; speedups vs the secondary organization up to ≈20x\n\
           (A-1) / ≈12.5x (C-1) at the 10% window (§5.4).",
};

/// Figure 10: the cluster organization's window-query techniques.
const FIG10: Sweep<WindowTechnique> = Sweep {
    id: "10",
    title: "Figure 10: Comparison of the Different Query Techniques for Window Queries",
    columns: &[
        ("complete", Cluster, WindowTechnique::Complete),
        ("threshold", Cluster, WindowTechnique::Threshold),
        ("SLM", Cluster, WindowTechnique::Slm),
        ("opt.", Cluster, WindowTechnique::Optimum),
    ],
    count: None,
    speedup: false,
    note: "expected shape: for small windows on C-1, threshold saves ≈15%,\n\
           SLM ≈27% vs complete (optimum ≈35%); no significant difference\n\
           for windows of 0.1% and larger (§5.4.3).",
};

/// Figs. 8 and 10: per data set, run every window area's query set
/// under every column, each organization on a workspace of its own.
fn window_sweep(spec: &Sweep<WindowTechnique>, scale: &Scale, datasets: &[DataSet]) -> Figure {
    let mut fig = spec.figure(&["series", "window area (%)"], "ms/4KB");
    for ds in datasets {
        let map = scale.map(*ds);
        let records = records_of(&map.objects);
        let mut dbs = Vec::new();
        for &area in &PAPER_WINDOW_AREAS {
            let queries = WindowQuerySet::generate(&map, area, scale.num_queries, scale.seed);
            let mut candidates = 0;
            let values = spec.columns.iter().map(|(_, kind, technique)| {
                let db = get_or_build(&mut dbs, *kind, || {
                    let ws = Workspace::new(scale.query_buffer);
                    build(&ws, *kind, ds.spec().smax_bytes, false, &records).0
                });
                let total = cold_set(db, &queries.windows, |q, w| {
                    q.window(*w).technique(*technique)
                });
                candidates = total.candidates;
                total.ms_per_4kb().unwrap_or(0.0)
            });
            let values: Vec<f64> = values.collect();
            let answers = candidates as f64 / queries.windows.len() as f64;
            fig.push(
                vec![ds.to_string(), format!("{}", area * 100.0)],
                spec.values(answers, values),
            );
        }
    }
    fig
}

/// Candidate cluster sizes (in pages) swept by the adaptation study.
const ADAPTATION_CLUSTER_PAGES: [usize; 5] = [5, 10, 20, 40, 80];

/// Figure 11 (§5.4.4, after \[DS93\]): measure the best cluster size per
/// window size on B-1, then quantify how much is lost by keeping the
/// cluster size tuned for a window area that is off by 10× / 100×.
fn cluster_size_adaptation(scale: &Scale) -> Figure {
    let map = scale.map(DataSet {
        series: SeriesId::B,
        map: MapId::Map1,
    });
    let records = records_of(&map.objects);
    let techniques = [
        WindowTechnique::Complete,
        WindowTechnique::Threshold,
        WindowTechnique::Slm,
    ];
    // cost[t][a][s]: avg ms/4KB for technique t, area index a, size s.
    let areas = PAPER_WINDOW_AREAS;
    let mut cost = vec![vec![vec![f64::INFINITY; ADAPTATION_CLUSTER_PAGES.len()]; areas.len()]; 3];
    for (si, &pages) in ADAPTATION_CLUSTER_PAGES.iter().enumerate() {
        let ws = Workspace::new(scale.query_buffer);
        let (mut db, _) = build(&ws, Cluster, pages * PAGE_SIZE, false, &records);
        for (ai, &area) in areas.iter().enumerate() {
            let queries = WindowQuerySet::generate(&map, area, scale.num_queries, scale.seed);
            for (ti, tech) in techniques.iter().enumerate() {
                let total = cold_set(&mut db, &queries.windows, |q, w| {
                    q.window(*w).technique(*tech)
                });
                cost[ti][ai][si] = total.ms_per_4kb().unwrap_or(f64::INFINITY);
            }
        }
    }
    let argmin = |v: &[f64]| {
        v.iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty")
    };
    let mut fig = Figure::new(
        "11",
        "Figure 11: Performance Gains by an Adaptation of the Cluster Size (B-1)",
        &["technique"],
    )
    .column("factor 10", "%", 1)
    .column("factor 100", "%", 1)
    .column("0.001 -> 0.1", "%", 1)
    .note(
        "expected shape: adapting the cluster size helps the simple\n\
         complete technique (≈6% / ≈23%) but hardly helps threshold and\n\
         SLM — adaptation is not essential (§5.4.4). Exception: clusters\n\
         tuned for 0.001% windows handicap later 0.1% windows.",
    );
    for (ti, tech) in techniques.iter().enumerate() {
        // Gain (%) of the size tuned for area b over the one tuned for
        // area a, both running area b.
        let gain = |a: usize, b: usize| {
            let stale = cost[ti][b][argmin(&cost[ti][a])];
            let fresh = cost[ti][b][argmin(&cost[ti][b])];
            (stale.is_finite() && fresh.is_finite() && stale > 0.0)
                .then(|| (stale - fresh) / stale * 100.0)
        };
        // Average gain over all area pairs differing by the factor.
        let gain_for_shift = |shift: usize| {
            let gains: Vec<f64> = (0..areas.len())
                .flat_map(|a| [a.checked_sub(shift), Some(a + shift)].map(|b| (a, b)))
                .filter_map(|(a, b)| gain(a, b.filter(|b| *b < areas.len())?))
                .collect();
            if gains.is_empty() {
                0.0
            } else {
                gains.iter().sum::<f64>() / gains.len() as f64
            }
        };
        fig.push(
            vec![format!("{tech:?}")],
            vec![
                gain_for_shift(1),
                gain_for_shift(2),
                // 0.001 % is area index 0, 0.1 % is index 2.
                gain(0, 2).unwrap_or(0.0),
            ],
        );
    }
    fig
}

/// Figure 12 (§5.5): point queries at the centres of the 0.01 % window
/// queries, under the three organization models.
fn point_queries(scale: &Scale, datasets: &[DataSet]) -> Figure {
    let mut fig = Figure::new(
        "12",
        "Figure 12: Comparison of the Different Organization Models for Point Queries",
        &["series"],
    )
    .column("avg answers", "", 2)
    .column("sec. org.", "ms/4KB", 1)
    .column("prim. org.", "ms/4KB", 1)
    .column("cluster org.", "ms/4KB", 1)
    .note(
        "expected shape: almost no difference between the secondary and\n\
         the cluster organization; the primary organization is best for\n\
         the smallest objects and loses its edge as objects grow (§5.5).",
    );
    for ds in datasets {
        let map = scale.map(*ds);
        let records = records_of(&map.objects);
        let points = WindowQuerySet::generate(&map, 1e-4, scale.num_queries, scale.seed).centers();
        let mut values = vec![0.0];
        for kind in [Secondary, Primary, Cluster] {
            let ws = Workspace::new(scale.query_buffer);
            let (mut db, _) = build(&ws, kind, ds.spec().smax_bytes, false, &records);
            let total = cold_set(&mut db, &points.points, |q, p| q.point(*p));
            values.push(total.ms_per_4kb().unwrap_or(0.0));
            values[0] = total.candidates as f64 / points.points.len() as f64;
        }
        fig.push(vec![ds.to_string()], values);
    }
    fig
}

/// One calibrated join version (§6.1: version *a* ≈ 0.65 intersections
/// per MBR, version *b* ≈ 9).
#[derive(Clone, Debug)]
pub struct JoinVersionSpec {
    /// "a" or "b".
    pub name: &'static str,
    /// MBR inflation factor applied to both maps.
    pub inflation: f64,
    /// Achieved intersections per MBR.
    pub pairs_per_mbr: f64,
}

/// Calibrate the MBR inflation factors for join versions *a* and *b* on
/// the given series.
pub fn calibrate_versions(scale: &Scale, series: SeriesId) -> [JoinVersionSpec; 2] {
    let [a_mbrs, b_mbrs] =
        [MapId::Map1, MapId::Map2].map(|map| scale.map(DataSet { series, map }).mbrs());
    [("a", 0.65), ("b", 9.0)].map(|(name, target)| {
        let inflation = calibrate_inflation(&a_mbrs, &b_mbrs, target, 0.05);
        JoinVersionSpec {
            name,
            inflation,
            pairs_per_mbr: pairs_per_mbr(
                &inflate_mbrs(&a_mbrs, inflation),
                &inflate_mbrs(&b_mbrs, inflation),
            ),
        }
    })
}

/// The joins of §6 run on series C.
const JOIN_SERIES: SeriesId = SeriesId::C;

/// The operands of §6's joins: both versions calibrated, and the two
/// maps of a version built — MBRs inflated by its factor, as two
/// databases of one workspace (one disk, one buffer, as in §6.1) — once
/// per organization, however many of Figs. 14, 16 and 17 run on them. A
/// join only reads its operands, and every measured run starts from a
/// reset buffer and zeroed counters.
struct JoinPairs<'a> {
    scale: &'a Scale,
    versions: [JoinVersionSpec; 2],
    built: Vec<((&'static str, OrganizationKind), JoinPair)>,
}

type JoinPair = (Workspace, [SpatialDatabase; 2]);

impl<'a> JoinPairs<'a> {
    fn new(scale: &'a Scale) -> Self {
        JoinPairs {
            scale,
            versions: calibrate_versions(scale, JOIN_SERIES),
            built: Vec::new(),
        }
    }

    fn pair(&mut self, version: &JoinVersionSpec, kind: OrganizationKind) -> &JoinPair {
        let scale = self.scale;
        get_or_build(&mut self.built, (version.name, kind), || {
            let ws = Workspace::new(scale.construction_buffer);
            let dataset = |map| DataSet {
                series: JOIN_SERIES,
                map,
            };
            let smax = dataset(MapId::Map1).spec().smax_bytes;
            let pair = [MapId::Map1, MapId::Map2].map(|map| {
                let mut records = records_of(&scale.map(dataset(map)).objects);
                for r in &mut records {
                    r.mbr = r.mbr.scale(version.inflation);
                }
                build(&ws, kind, smax, false, &records).0
            });
            (ws, pair)
        })
    }
}

/// Figure 14 (§6.1): the three organization models; the cluster
/// organization always reads complete cluster units.
const FIG14: Sweep<TransferTechnique> = Sweep {
    id: "14",
    title: "Figure 14: Comparison of the Different Organization Models for Spatial Joins (C-1/2)",
    columns: &[
        ("sec. org.", Secondary, TransferTechnique::Complete),
        ("prim. org.", Primary, TransferTechnique::Complete),
        ("cluster org.", Cluster, TransferTechnique::Complete),
    ],
    count: Some(("MBR pairs", 0)),
    speedup: true,
    note: "expected shape: the cluster organization wins at every buffer\n\
           size; speedups vs the secondary organization up to ≈4.9 (version\n\
           a) and ≈9.5 (version b); vs the primary up to ≈4.6 / ≈6.2 (§6.1).",
};

/// Figure 16 (§6.2): the cluster organization's transfer techniques.
const FIG16: Sweep<TransferTechnique> = Sweep {
    id: "16",
    title: "Figure 16: Comparison of the Query Techniques for Spatial Joins \
            (C-1/2, cluster org.)",
    columns: &[
        ("complete", Cluster, TransferTechnique::Complete),
        ("vector read", Cluster, TransferTechnique::VectorRead),
        ("read", Cluster, TransferTechnique::Read),
        ("opt.", Cluster, TransferTechnique::Optimum),
    ],
    count: None,
    speedup: false,
    note: "expected shape: the SLM variants only beat reading complete\n\
           cluster units at small buffer sizes; for buffers of ≈1,600 pages\n\
           and more the cost approaches the theoretical optimum (§6.2).",
};

/// Figs. 14 and 16: per join version, run the I/O part of the join
/// (MBR join + object transfer) at every buffer size under every column.
fn join_sweep(spec: &Sweep<TransferTechnique>, pairs: &mut JoinPairs) -> Figure {
    let mut fig = spec.figure(&["version", "buffer (pages)"], "s");
    for version in pairs.versions.clone() {
        for &buffer in &pairs.scale.join_buffers {
            let mut mbr_pairs = 0;
            let values = spec.columns.iter().map(|(_, kind, technique)| {
                let (ws, [r, s]) = pairs.pair(&version, *kind);
                // Bin boundary: a cold pool of `buffer` pages. Its dirty
                // pages are written back here, outside the join's phases.
                ws.pool().reset(buffer);
                let stats = r.join(s).transfer(*technique).run().stats();
                mbr_pairs = stats.mbr_pairs;
                stats.io_seconds()
            });
            let values: Vec<f64> = values.collect();
            fig.push(
                vec![version.name.to_string(), buffer.to_string()],
                spec.values(mbr_pairs as f64, values),
            );
        }
    }
    fig
}

/// Figure 17 (§6.3): the complete intersection join C-1 ⋈ C-2,
/// secondary vs cluster organization, versions a and b. The paper uses
/// a 1,600-page buffer; it shrinks with the data so quick runs stay
/// meaningful.
fn join_breakdown(pairs: &mut JoinPairs) -> Figure {
    let buffer = ((1600.0 * pairs.scale.data_scale).round() as usize).max(320);
    let mut fig = Figure::new(
        "17",
        "Figure 17: The Performance of a Complete Intersection Join (C-1/2, 1600-page buffer)",
        &["version", "organization"],
    )
    .column("MBR pairs", "", 0)
    .column("MBR-join", "s", 1)
    .column("obj. transfer", "s", 1)
    .column("exact test", "s", 1)
    .column("total", "s", 1);
    let mut note = String::new();
    for version in pairs.versions.clone() {
        let mut totals = [0.0; 2];
        for (total, kind) in totals.iter_mut().zip([Secondary, Cluster]) {
            let (ws, [r, s]) = pairs.pair(&version, kind);
            ws.pool().reset(buffer);
            let join = r.join(s).transfer(TransferTechnique::Complete);
            let stats = join.run().stats();
            let seconds = [stats.mbr_join_ms, stats.transfer_ms, stats.exact_test_ms()];
            let seconds = seconds.map(|ms| ms / 1000.0);
            *total = seconds.iter().sum();
            let mut values = vec![stats.mbr_pairs as f64];
            values.extend(seconds);
            values.push(*total);
            fig.push(vec![version.name.to_string(), kind.to_string()], values);
        }
        note += &format!(
            "version {}: total speedup {} (paper: ≈3.9x for a, ≈4.3x for b)\n",
            version.name,
            speedup(totals[0], totals[1])
        );
    }
    fig.note(
        note + "expected shape: the object-transfer cost collapses under the\n\
                cluster organization while MBR-join and exact-test cost stay\n\
                roughly unchanged (§6.3).",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fraction_below_half_shrinks_queries_and_join_buffers() {
        let full = Scale::fraction(1.0);
        assert_eq!(full.num_queries, Scale::paper().num_queries);
        assert_eq!(full.join_buffers, Scale::paper().join_buffers);
        let quick = Scale::fraction(0.03);
        assert_eq!(quick.data_scale, 0.03);
        assert_eq!(quick.num_queries, 81);
        assert_eq!(quick.join_buffers, vec![160, 320, 640, 1280]);
        assert_eq!(Scale::fraction(0.001).num_queries, 40);
        assert_eq!(
            quick.to_string(),
            "data scale 0.03, 81 queries per set, seed 1994"
        );
    }

    #[test]
    #[should_panic(expected = "--scale must be in (0, 1]")]
    fn a_fraction_outside_the_unit_interval_is_refused() {
        Scale::fraction(1.5);
    }

    #[test]
    #[should_panic(expected = "unknown figure \"9\" (valid: table1 5 6 7 8 10 11 12 14 16 17)")]
    fn an_unknown_figure_id_is_refused() {
        figures(&["9"], &Scale::smoke(), &[]).next();
    }
}
