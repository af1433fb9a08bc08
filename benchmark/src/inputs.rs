//! Workload definitions, seeded input generation, and the oracle.
//!
//! Everything the engine sees is generated here from `--seed`; expected
//! answers are computed from the benchmark's own `(id, mbr, Geometry)`
//! vectors by brute force, never through the engine's index.

use spatialdb::data::rng::SmallRng;
use spatialdb::data::WindowQuerySet;
use spatialdb::geom::{Geometry, Point, Rect};
use spatialdb::{DataSet, GeometryMode, MapId, OrganizationKind, SeriesId, SpatialMap};
use std::time::Instant;

pub const ALL_ORGS: [OrganizationKind; 3] = [
    OrganizationKind::Secondary,
    OrganizationKind::Primary,
    OrganizationKind::Cluster,
];

/// Metric-name segment of an organization.
pub fn org_name(kind: OrganizationKind) -> &'static str {
    match kind {
        OrganizationKind::Secondary => "secondary",
        OrganizationKind::Primary => "primary",
        OrganizationKind::Cluster => "cluster",
    }
}

/// Threads for the loader in set-up and the `_tN` per-layer rows: never
/// more than the machine has, never more than four.
pub fn threads_n() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// The four workloads. Names are fixed; later issues cite them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WindowHot,
    WindowScan,
    MixedRw,
    Join,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WindowHot,
        Workload::WindowScan,
        Workload::MixedRw,
        Workload::Join,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WindowHot => "window_hot",
            Workload::WindowScan => "window_scan",
            Workload::MixedRw => "mixed_rw",
            Workload::Join => "join",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A workload's fixed parameters. `--seed` and `--seconds` are the only
/// run-time inputs; everything else is a constant of the benchmark.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workload: Workload,
    /// Fraction of the paper's map sizes (A-1: 131,461; A-2: 128,971).
    pub scale: f64,
    /// Buffer pool capacity of every workspace, in 4 KB pages.
    /// `window_hot` starts here and then shrinks its pool to 90 % of
    /// the op list's measured working set (see `Engine::fit_cache`).
    pub buffer_pages: usize,
    /// Organizations the A-1 map is loaded into.
    pub orgs: &'static [OrganizationKind],
    /// Window area as a fraction of the data space.
    pub window_area: f64,
    /// Distinct window queries per round (`mixed_rw`: reads drawn per
    /// round; `join`: none).
    pub windows: usize,
    /// Distinct point queries (`window_hot` only).
    pub points: usize,
    /// `window_hot`: shuffled replays of the distinct list per round.
    /// `mixed_rw`: ops per round. Otherwise 1.
    pub round_factor: usize,
    /// Tail percentile reported as `op_tail_us` — a constant, so two
    /// runs never report different percentiles.
    pub tail: u32,
    /// Ops of a round the traced pass replays (a prefix: the traced
    /// pass runs every op through three pipelines).
    pub trace_ops: usize,
    /// Set-ups per run; `setup_s` is the median.
    pub setup_reps: usize,
}

impl Spec {
    pub fn of(workload: Workload, quick: bool) -> Spec {
        let full = match workload {
            // The working set fits the modelled cache: the pool is sized
            // to the pages 4,000 selective queries over 131k streets
            // touch, so an op is tens of µs of fixed per-query cost.
            Workload::WindowHot => Spec {
                workload,
                scale: 1.0,
                buffer_pages: 65536,
                orgs: &[OrganizationKind::Cluster],
                window_area: 1e-5,
                windows: 2000,
                points: 2000,
                round_factor: 8,
                tail: 99,
                trace_ops: 8000,
                setup_reps: 3,
            },
            // Larger than cache: ~82 MB of exact representations behind
            // a 1 MB pool, 0.1 % windows with ~1,000 answers each, on all
            // three organizations — the paper's Fig. 8 shape. (1 % windows
            // cost ~7 ms each: too few fit a run for a steady median.)
            Workload::WindowScan => Spec {
                workload,
                scale: 1.0,
                buffer_pages: 256,
                orgs: &ALL_ORGS,
                window_area: 1e-3,
                windows: 1000,
                points: 0,
                round_factor: 1,
                tail: 99,
                trace_ops: 900,
                setup_reps: 3,
            },
            // 80 % reads / 10 % inserts / 10 % removes: every commit pays
            // the whole-store snapshot.
            Workload::MixedRw => Spec {
                workload,
                scale: 1.0,
                buffer_pages: 1600,
                orgs: &[OrganizationKind::Cluster],
                window_area: 1e-4,
                windows: 0,
                points: 0,
                round_factor: 4000,
                tail: 99,
                trace_ops: 1500,
                setup_reps: 3,
            },
            // A-1 ⋈ A-2 under each organization, small enough that a
            // run collects >= 100 joins for a p90.
            Workload::Join => Spec {
                workload,
                scale: 0.25,
                buffer_pages: 1600,
                orgs: &ALL_ORGS,
                window_area: 1e-4,
                windows: 0,
                points: 0,
                round_factor: 1,
                tail: 90,
                trace_ops: 3,
                setup_reps: 3,
            },
        };
        if !quick {
            return full;
        }
        // The smoke configuration: 5 % of the data, a cache scaled with
        // it, short op lists, tail forced to p90.
        Spec {
            scale: 0.05,
            buffer_pages: (full.buffer_pages / 20).max(32),
            windows: full.windows / 10,
            points: full.points / 10,
            round_factor: match workload {
                Workload::WindowHot => 2,
                Workload::MixedRw => 400,
                _ => 1,
            },
            tail: 90,
            trace_ops: match workload {
                Workload::Join => 3,
                _ => 200,
            },
            setup_reps: 1,
            ..full
        }
    }
}

/// One object of the benchmark's own copy of the data.
#[derive(Clone, Debug)]
pub struct Object {
    pub id: u64,
    pub mbr: Rect,
    pub geom: Geometry,
}

/// One operation. Indices point into [`Inputs`] and the engine's
/// database list, so an op list is plain data.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Op {
    Window { db: usize, q: usize },
    Point { db: usize, q: usize },
    Insert { db: usize, id: u64 },
    Remove { db: usize, id: u64 },
    Join { left: usize, right: usize },
}

impl Op {
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Window { .. } | Op::Point { .. })
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert { .. } | Op::Remove { .. })
    }
}

/// What an op returned, reduced to a comparable pair: the number of
/// answers and an order-independent checksum of them. Writes report
/// `(1 if applied else 0, id)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Answer {
    pub count: u64,
    pub checksum: u64,
}

impl Answer {
    /// Recorded for an op that panicked; equals no real answer.
    pub const PANICKED: Answer = Answer {
        count: u64::MAX,
        checksum: u64::MAX,
    };

    pub fn of_ids(ids: &[u64]) -> Answer {
        Answer {
            count: ids.len() as u64,
            checksum: ids.iter().fold(0, |h, &id| h.wrapping_add(mix(id))),
        }
    }

    pub fn of_pairs(pairs: &[(u64, u64)]) -> Answer {
        Answer {
            count: pairs.len() as u64,
            checksum: pairs
                .iter()
                .fold(0, |h, &(a, b)| h.wrapping_add(mix(mix(a) ^ b))),
        }
    }

    pub fn of_write(applied: bool, id: u64) -> Answer {
        Answer {
            count: u64::from(applied),
            checksum: id,
        }
    }
}

/// SplitMix64 finalizer: spreads ids so a wrapping sum is a usable
/// set checksum.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The maps are the benchmark's fixed data population — the stand-in
/// for the paper's two TIGER extracts, generated with the seed every
/// experiment in this repo uses. `--seed` drives everything that is
/// *asked of* that population: query placement, shuffles, the write
/// stream, oracle sampling. Generating the maps from `--seed` too would
/// make the seed the dominant factor in every metric: the generator
/// draws 24 counties per map, and their densities swing the work per
/// query by 2x from one seed to the next.
const MAP_SEED: u64 = 1994;

/// Seed offsets, so each query set draws from a distinct stream of the
/// one `--seed`.
const SEED_WINDOWS: u64 = 1;
const SEED_POINTS: u64 = 2;
const SEED_SHUFFLE: u64 = 3;
const SEED_STREAM: u64 = 4;
const SEED_SAMPLE: u64 = 5;
const SEED_SAMPLE_A: u64 = 6;
const SEED_SAMPLE_B: u64 = 7;
const SEED_PROBE: u64 = 100;
/// Added per round on top of the stream/shuffle offsets.
const SEED_ROUND_STRIDE: u64 = 1000;

/// The generated inputs of one workload run.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    /// A-1 with geometry moved out into `a`; kept for window placement
    /// (`WindowQuerySet::generate` follows the stored MBR distribution).
    map_a: SpatialMap,
    /// The benchmark's copy of A-1, indexed by id.
    pub a: Vec<Object>,
    /// The benchmark's copy of A-2 (join operand; insert source of
    /// `mixed_rw`; operand of the traced pass's probe join).
    pub b: Vec<Object>,
    pub windows: Vec<Rect>,
    pub points: Vec<Point>,
    /// `mixed_rw`: live ids (dense, for O(1) seeded victim choice) and
    /// the next fresh id.
    live: Vec<u64>,
    next_id: u64,
    /// `SpatialMap::generate` + conversion to `Geometry`, A-1 and A-2.
    pub generate_ms: f64,
}

/// Generate a map and move its geometry into the benchmark's own copy.
/// With `keep`, only a seeded sample of that share of the objects is
/// kept, renumbered densely (ids index the returned vector).
fn generate_objects(map: MapId, scale: f64, keep: Option<(u64, f64)>) -> (SpatialMap, Vec<Object>) {
    let dataset = DataSet {
        series: SeriesId::A,
        map,
    };
    let mut m = SpatialMap::generate(dataset, scale, GeometryMode::Full, MAP_SEED);
    let mut sample = keep.map(|(seed, share)| (SmallRng::seed_from_u64(seed), share));
    let mut objects = Vec::with_capacity(m.objects.len());
    for o in &mut m.objects {
        if sample
            .as_mut()
            .is_some_and(|(rng, share)| !rng.gen_bool(*share))
        {
            continue;
        }
        objects.push(Object {
            id: objects.len() as u64,
            mbr: o.mbr,
            geom: Geometry::from(
                o.geometry
                    .take()
                    .expect("GeometryMode::Full keeps geometry"),
            ),
        });
    }
    (m, objects)
}

impl Inputs {
    /// Generate a workload's inputs. `with_b` forces the A-2 map even
    /// where the workload itself does not use it (the traced pass's
    /// probe join needs an operand).
    pub fn generate(spec: &Spec, seed: u64, with_b: bool) -> Inputs {
        let t = Instant::now();
        // A join has no query parameters to draw from the seed, so each
        // run joins a seeded 90 % sample of either map.
        let keep = |salt| (spec.workload == Workload::Join).then_some((seed + salt, 0.9));
        let (map_a, a) = generate_objects(MapId::Map1, spec.scale, keep(SEED_SAMPLE_A));
        let needs_b = with_b || matches!(spec.workload, Workload::MixedRw | Workload::Join);
        let b = if needs_b {
            generate_objects(MapId::Map2, spec.scale, keep(SEED_SAMPLE_B)).1
        } else {
            Vec::new()
        };
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let windows = if spec.windows > 0 {
            WindowQuerySet::generate(&map_a, spec.window_area, spec.windows, seed + SEED_WINDOWS)
                .windows
        } else {
            Vec::new()
        };
        let points = if spec.points > 0 {
            WindowQuerySet::generate(&map_a, spec.window_area, spec.points, seed + SEED_POINTS)
                .centers()
                .points
        } else {
            Vec::new()
        };
        Inputs {
            spec: spec.clone(),
            seed,
            live: a.iter().map(|o| o.id).collect(),
            next_id: a.len() as u64,
            map_a,
            a,
            b,
            windows,
            points,
            generate_ms,
        }
    }

    /// `(id, geometry)` pairs to hand to the loader.
    pub fn load_list(objects: &[Object]) -> Vec<(u64, Geometry)> {
        objects.iter().map(|o| (o.id, o.geom.clone())).collect()
    }

    /// The benchmark's copy of object `id`: A-1 ids, then `mixed_rw`'s
    /// fresh ids cycling through A-2.
    pub fn object(&self, id: u64) -> &Object {
        let n = self.a.len() as u64;
        if id < n {
            &self.a[id as usize]
        } else {
            &self.b[((id - n) % self.b.len() as u64) as usize]
        }
    }

    /// Ids live in the `mixed_rw` model right now.
    pub fn live_ids(&self) -> &[u64] {
        &self.live
    }

    /// A digest of everything generated so far: differs between seeds.
    pub fn fingerprint(&self) -> u64 {
        let rect = |h: u64, r: &Rect| {
            [r.xmin, r.ymin, r.xmax, r.ymax]
                .iter()
                .fold(h, |h, v| mix(h ^ v.to_bits()))
        };
        let mut h = self.a.iter().chain(&self.b).fold(0, |h, o| rect(h, &o.mbr));
        h = self.windows.iter().fold(h, rect);
        self.points
            .iter()
            .fold(h, |h, p| mix(mix(h ^ p.x.to_bits()) ^ p.y.to_bits()))
    }

    /// Append `count` windows of `area`, placed like every other query
    /// set, and return their index range (the traced pass's probes).
    pub fn add_windows(&mut self, area: f64, count: usize, salt: u64) -> std::ops::Range<usize> {
        let first = self.windows.len();
        let seed = self.seed + SEED_PROBE + salt;
        self.windows
            .extend(WindowQuerySet::generate(&self.map_a, area, count, seed).windows);
        first..self.windows.len()
    }

    /// A fresh id, mapped to an A-2 geometry by `object()`, for probe
    /// writes outside the `mixed_rw` stream (which insert and remove it
    /// again, so the model's live set never sees it).
    pub fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// The op list of round `round` (0 is the warm-up), cut to `limit`
    /// ops if given. Deterministic in `(seed, round, limit)`; `mixed_rw`
    /// rounds must be requested in order, each exactly once and executed
    /// in full, because a round's removes depend on the ids the earlier
    /// rounds left alive.
    pub fn round_ops(&mut self, round: u64, limit: Option<usize>) -> Vec<Op> {
        let mut spec = self.spec.clone();
        if spec.workload == Workload::MixedRw {
            spec.round_factor = limit.map_or(spec.round_factor, |l| l.min(spec.round_factor));
        }
        let mut ops = self.full_round_ops(round, &spec);
        ops.truncate(limit.unwrap_or(usize::MAX));
        ops
    }

    fn full_round_ops(&mut self, round: u64, spec: &Spec) -> Vec<Op> {
        let round_seed = self.seed + round * SEED_ROUND_STRIDE;
        match spec.workload {
            Workload::WindowHot => {
                let mut rng = SmallRng::seed_from_u64(round_seed + SEED_SHUFFLE);
                let distinct: Vec<Op> = (0..spec.windows)
                    .map(|q| Op::Window { db: 0, q })
                    .chain((0..spec.points).map(|q| Op::Point { db: 0, q }))
                    .collect();
                let mut ops = Vec::with_capacity(distinct.len() * spec.round_factor);
                for _ in 0..spec.round_factor {
                    let mut pass = distinct.clone();
                    for i in (1..pass.len()).rev() {
                        pass.swap(i, rng.gen_range(0..i + 1));
                    }
                    ops.extend(pass);
                }
                ops
            }
            Workload::WindowScan => (0..spec.windows)
                .flat_map(|q| (0..spec.orgs.len()).map(move |db| Op::Window { db, q }))
                .collect(),
            Workload::MixedRw => {
                let mut rng = SmallRng::seed_from_u64(round_seed + SEED_STREAM);
                let kinds: Vec<u8> = (0..spec.round_factor)
                    .map(|_| match rng.gen_range(0..10usize) {
                        0 => 1, // insert
                        1 => 2, // remove
                        _ => 0, // read
                    })
                    .collect();
                let reads = kinds.iter().filter(|&&k| k == 0).count();
                let first_q = self.windows.len();
                self.windows.extend(
                    WindowQuerySet::generate(
                        &self.map_a,
                        spec.window_area,
                        reads,
                        round_seed + SEED_WINDOWS,
                    )
                    .windows,
                );
                let mut q = first_q;
                kinds
                    .into_iter()
                    .map(|k| match k {
                        0 => {
                            q += 1;
                            Op::Window { db: 0, q: q - 1 }
                        }
                        1 => {
                            let id = self.next_id;
                            self.next_id += 1;
                            self.live.push(id);
                            Op::Insert { db: 0, id }
                        }
                        _ => {
                            let victim = rng.gen_range(0..self.live.len());
                            Op::Remove {
                                db: 0,
                                id: self.live.swap_remove(victim),
                            }
                        }
                    })
                    .collect()
            }
            // Databases are laid out [A, B] per organization.
            Workload::Join => (0..spec.orgs.len())
                .map(|i| Op::Join {
                    left: 2 * i,
                    right: 2 * i + 1,
                })
                .collect(),
        }
    }
}

/// Brute-force answer over `(id, object)` pairs: the ids whose object
/// passes `hit`, as a count and checksum. The id is passed beside the
/// object because `mixed_rw`'s fresh ids borrow their geometry from A-2
/// objects that carry another id.
fn brute_force<'a>(
    objects: impl Iterator<Item = (u64, &'a Object)>,
    hit: impl Fn(&Object) -> bool,
) -> Answer {
    let mut answer = Answer {
        count: 0,
        checksum: 0,
    };
    for (id, _) in objects.filter(|(_, o)| hit(o)) {
        answer.count += 1;
        answer.checksum = answer.checksum.wrapping_add(mix(id));
    }
    answer
}

fn exact_window<'a>(objects: impl Iterator<Item = (u64, &'a Object)>, w: &Rect) -> Answer {
    brute_force(objects, |o| {
        o.mbr.intersects(w) && o.geom.intersects_rect(w)
    })
}

fn exact_point(objects: &[Object], p: &Point) -> Answer {
    brute_force(objects.iter().map(|o| (o.id, o)), |o| {
        o.mbr.contains_point(p) && o.geom.contains_point(p)
    })
}

/// Expected answers of the static workloads, one per distinct query.
pub struct StaticOracle {
    pub windows: Vec<Answer>,
    pub points: Vec<Answer>,
    /// Exact join answer and the number of intersecting MBR pairs (the
    /// candidate count the engine's MBR join must reproduce).
    pub join: Option<(Answer, u64)>,
}

impl StaticOracle {
    /// Linear MBR scan + exact predicate per distinct query, fanned over
    /// the machine's threads (the oracle is never timed).
    pub fn build(inputs: &Inputs, with_join: bool) -> StaticOracle {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let scan = |n: usize, f: &(dyn Fn(usize) -> Answer + Sync)| -> Vec<Answer> {
            let per = n.div_ceil(threads).max(1);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .step_by(per)
                    .map(|lo| {
                        scope.spawn(move || (lo..(lo + per).min(n)).map(f).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("oracle worker panicked"))
                    .collect()
            })
        };
        // `mixed_rw` windows are answered against the evolving model
        // instead (see `mixed_expected`).
        let static_windows = if inputs.spec.workload == Workload::MixedRw {
            0
        } else {
            inputs.windows.len()
        };
        StaticOracle {
            windows: scan(static_windows, &|q| exact_windows(inputs, q..q + 1)[0]),
            points: scan(inputs.points.len(), &|q| {
                exact_point(&inputs.a, &inputs.points[q])
            }),
            join: with_join.then(|| join_oracle(&inputs.a, &inputs.b)),
        }
    }

    /// The expected answer of a read or join op.
    pub fn expected(&self, op: &Op) -> Answer {
        match op {
            Op::Window { q, .. } => self.windows[*q],
            Op::Point { q, .. } => self.points[*q],
            Op::Join { .. } => self.join.expect("join oracle built").0,
            Op::Insert { id, .. } | Op::Remove { id, .. } => Answer::of_write(true, *id),
        }
    }
}

/// Exact answers of the windows `range` against the static A-1 copy.
pub fn exact_windows(inputs: &Inputs, range: std::ops::Range<usize>) -> Vec<Answer> {
    range
        .map(|q| exact_window(inputs.a.iter().map(|o| (o.id, o)), &inputs.windows[q]))
        .collect()
}

/// Sort-based MBR sweep over both maps, then `Geometry::intersects` on
/// every MBR pair. Returns the exact answer and the MBR pair count.
pub fn join_oracle(a: &[Object], b: &[Object]) -> (Answer, u64) {
    let sorted = |v: &[Object]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].mbr.xmin.total_cmp(&v[j].mbr.xmin));
        idx
    };
    let (sa, sb) = (sorted(a), sorted(b));
    let mut mbr_pairs = 0u64;
    let mut exact = Vec::new();
    let mut test = |x: &Object, y: &Object| {
        if x.mbr.intersects(&y.mbr) {
            mbr_pairs += 1;
            if x.geom.intersects(&y.geom) {
                exact.push((x.id, y.id));
            }
        }
    };
    let (mut i, mut j) = (0, 0);
    while i < sa.len() && j < sb.len() {
        let (x, y) = (&a[sa[i]], &b[sb[j]]);
        if x.mbr.xmin <= y.mbr.xmin {
            for &k in sb[j..].iter().take_while(|&&k| b[k].mbr.xmin <= x.mbr.xmax) {
                test(x, &b[k]);
            }
            i += 1;
        } else {
            for &k in sa[i..].iter().take_while(|&&k| a[k].mbr.xmin <= y.mbr.xmax) {
                test(&a[k], y);
            }
            j += 1;
        }
    }
    (Answer::of_pairs(&exact), mbr_pairs)
}

/// Expected answers of a `mixed_rw` op stream, replayed against a model
/// of the live set (`alive[id]`, updated in place so consecutive rounds
/// chain). Every write is expected to apply; reads are checked on a
/// seeded 1-in-`sample_every` sample (`None` = unchecked), because each
/// check is a linear scan of the whole live set.
pub fn mixed_expected(
    inputs: &Inputs,
    alive: &mut Vec<bool>,
    ops: &[Op],
    round: u64,
    sample_every: usize,
) -> Vec<Option<Answer>> {
    let mut rng = SmallRng::seed_from_u64(inputs.seed + round * SEED_ROUND_STRIDE + SEED_SAMPLE);
    ops.iter()
        .map(|op| match *op {
            Op::Window { q, .. } => (rng.gen_range(0..sample_every) == 0).then(|| {
                let live = (0..alive.len() as u64)
                    .filter(|&id| alive[id as usize])
                    .map(|id| (id, inputs.object(id)));
                exact_window(live, &inputs.windows[q])
            }),
            Op::Insert { id, .. } => {
                if alive.len() <= id as usize {
                    alive.resize(id as usize + 1, false);
                }
                alive[id as usize] = true;
                Some(Answer::of_write(true, id))
            }
            Op::Remove { id, .. } => {
                alive[id as usize] = false;
                Some(Answer::of_write(true, id))
            }
            Op::Point { .. } | Op::Join { .. } => None,
        })
        .collect()
}

/// Ops whose recorded answer is wrong: it panicked, a write did not
/// apply, or the checksum disagrees with the oracle. `expected[i] ==
/// None` means op `i` was not sampled for checking.
pub fn count_failures(answers: &[Answer], expected: &[Option<Answer>]) -> u64 {
    assert_eq!(answers.len(), expected.len());
    answers
        .iter()
        .zip(expected)
        .filter(|(got, want)| **got == Answer::PANICKED || want.is_some_and(|w| w != **got))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_wrong_checksums_and_panics() {
        let good = Answer::of_ids(&[1, 2, 3]);
        let mut answers = vec![good; 10];
        let expected = vec![Some(good); 10];
        assert_eq!(count_failures(&answers, &expected), 0);
        // One wrong checksum, one op that panicked (on an unsampled op:
        // a panic fails whether or not the oracle checks that op).
        answers[2] = Answer::of_ids(&[1, 2, 4]);
        answers[7] = Answer::PANICKED;
        let mut expected = expected;
        expected[7] = None;
        let failed = count_failures(&answers, &expected);
        assert_eq!(failed, 2);
        assert_eq!(failed as f64 / answers.len() as f64, 2.0 / 10.0);
    }

    #[test]
    fn checksums_ignore_order_but_not_content() {
        assert_eq!(Answer::of_ids(&[5, 9, 2]), Answer::of_ids(&[2, 5, 9]));
        assert_ne!(Answer::of_ids(&[5, 9, 2]), Answer::of_ids(&[5, 9, 3]));
        assert_ne!(Answer::of_pairs(&[(1, 2)]), Answer::of_pairs(&[(2, 1)]));
    }

    #[test]
    fn join_oracle_matches_brute_force() {
        let spec = Spec {
            scale: 0.004,
            ..Spec::of(Workload::Join, true)
        };
        let inputs = Inputs::generate(&spec, 7, false);
        let (answer, mbr_pairs) = join_oracle(&inputs.a, &inputs.b);
        let mut brute_mbr = 0;
        let mut brute = Vec::new();
        for x in &inputs.a {
            for y in &inputs.b {
                if x.mbr.intersects(&y.mbr) {
                    brute_mbr += 1;
                    if x.geom.intersects(&y.geom) {
                        brute.push((x.id, y.id));
                    }
                }
            }
        }
        assert!(brute_mbr > 0, "degenerate test data");
        assert_eq!(mbr_pairs, brute_mbr);
        assert_eq!(answer, Answer::of_pairs(&brute));
    }

    #[test]
    fn seed_changes_inputs_and_rounds_repeat() {
        let spec = Spec::of(Workload::WindowHot, true);
        let mut x = Inputs::generate(&spec, 11, false);
        let mut y = Inputs::generate(&spec, 11, false);
        let z = Inputs::generate(&spec, 12, false);
        assert_eq!(x.fingerprint(), y.fingerprint());
        assert_ne!(x.fingerprint(), z.fingerprint());
        assert_eq!(x.round_ops(1, None), y.round_ops(1, None));
        assert_ne!(
            x.round_ops(1, None),
            x.round_ops(2, None),
            "per-round shuffle"
        );
    }

    #[test]
    fn mixed_stream_removes_only_live_ids() {
        let spec = Spec::of(Workload::MixedRw, true);
        let mut inputs = Inputs::generate(&spec, 3, false);
        let mut alive = vec![true; inputs.a.len()];
        for round in 0..3 {
            for op in inputs.round_ops(round, (round == 2).then_some(100)) {
                match op {
                    Op::Insert { id, .. } => {
                        assert_eq!(id as usize, alive.len(), "fresh ids are dense");
                        alive.push(true);
                    }
                    Op::Remove { id, .. } => {
                        assert!(std::mem::replace(&mut alive[id as usize], false));
                    }
                    _ => {}
                }
            }
        }
        let live = alive.iter().filter(|&&l| l).count();
        assert_eq!(live, inputs.live_ids().len());
    }
}
