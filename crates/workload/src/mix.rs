//! Mixed operation streams: a seeded, weighted interleaving of window
//! queries, point queries, spatial joins, inserts, and deletes.
//!
//! The stream is generated serially from one RNG, then executed through
//! the engine's mixed-stream mode
//! ([`run_stream`]): every operation's
//! I/O-charging half — including the `&self` shadow-paging commits —
//! runs in stream order on one thread, while the CPU-bound refinements
//! fan across the worker pool **concurrently with later commits**. No
//! serial barriers, and the result is byte-identical at 1 thread and
//! at 8.
//!
//! Delete targets are drawn from the live id universe: the generator
//! emits a raw draw, and `run_mix` resolves it against a running
//! model of each database's live ids (initialized from
//! [`SpatialDatabase::object_ids`], updated by the stream's own
//! inserts and deletes) — deterministic, and never dependent on
//! execution timing.

use crate::report::Conservation;
use crate::scenario::Metrics;
use spatialdb::geom::{Point, Polyline, Rect};
use spatialdb::stream::{run_stream, StreamOp};
use spatialdb::{SpatialDatabase, Workspace};
use spatialdb_data::rng::SmallRng;

/// Relative weights of the five operation kinds. Build with the
/// fluent setters; at least one weight must end up positive.
///
/// ```
/// use spatialdb_workload::Mix;
/// let mix = Mix::new()
///     .window(0.5)
///     .point(0.2)
///     .join(0.1)
///     .insert(0.1)
///     .delete(0.1);
/// # let _ = mix;
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mix {
    window: f64,
    point: f64,
    join: f64,
    insert: f64,
    delete: f64,
}

impl Mix {
    /// An empty mix (all weights zero — set at least one).
    pub fn new() -> Self {
        Mix::default()
    }

    /// Relative weight of window queries.
    #[must_use]
    pub fn window(mut self, weight: f64) -> Self {
        self.window = weight;
        self
    }

    /// Relative weight of point queries.
    #[must_use]
    pub fn point(mut self, weight: f64) -> Self {
        self.point = weight;
        self
    }

    /// Relative weight of spatial joins.
    #[must_use]
    pub fn join(mut self, weight: f64) -> Self {
        self.join = weight;
        self
    }

    /// Relative weight of inserts.
    #[must_use]
    pub fn insert(mut self, weight: f64) -> Self {
        self.insert = weight;
        self
    }

    /// Relative weight of deletes (targets drawn from the live ids).
    #[must_use]
    pub fn delete(mut self, weight: f64) -> Self {
        self.delete = weight;
        self
    }

    fn total(&self) -> f64 {
        self.window + self.point + self.join + self.insert + self.delete
    }
}

/// One generated operation of the stream. `Delete` carries a raw draw,
/// resolved against the live-id model at execution-plan time.
#[derive(Clone, Debug)]
enum Op {
    Window(usize, Rect),
    Point(usize, Point),
    Join(usize, usize),
    Insert(usize, Polyline),
    Delete(usize, u64),
}

/// Generate the deterministic operation stream.
///
/// The branch chain draws kinds in window → point → join → insert →
/// delete order, so any mix with a zero delete weight consumes the RNG
/// exactly as the four-kind generator always did — old seeds replay
/// byte-identically.
fn generate(mix: &Mix, operations: usize, databases: usize, seed: u64) -> Vec<Op> {
    let total = mix.total();
    assert!(
        total > 0.0
            && mix.window >= 0.0
            && mix.point >= 0.0
            && mix.join >= 0.0
            && mix.insert >= 0.0
            && mix.delete >= 0.0,
        "a Mix needs at least one positive weight"
    );
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x006d_6978);
    (0..operations)
        .map(|_| {
            let u = rng.next_f64() * total;
            let db = (rng.next_u64() % databases as u64) as usize;
            if u < mix.window {
                let size = 0.02 + 0.08 * rng.next_f64();
                let x = rng.next_f64() * (1.0 - size);
                let y = rng.next_f64() * (1.0 - size);
                Op::Window(db, Rect::new(x, y, x + size, y + size))
            } else if u < mix.window + mix.point {
                Op::Point(db, Point::new(rng.next_f64(), rng.next_f64()))
            } else if u < mix.window + mix.point + mix.join {
                let other = if databases > 1 {
                    (db + 1) % databases
                } else {
                    db
                };
                Op::Join(db, other)
            } else if u < mix.window + mix.point + mix.join + mix.insert {
                let x = rng.next_f64() * 0.99;
                let y = rng.next_f64() * 0.99;
                Op::Insert(
                    db,
                    Polyline::new(vec![
                        Point::new(x, y),
                        Point::new((x + 0.005).min(1.0), (y + 0.003).min(1.0)),
                        Point::new((x + 0.01).min(1.0), y),
                    ]),
                )
            } else {
                Op::Delete(db, rng.next_u64())
            }
        })
        .collect()
}

/// Execute a mixed stream against one organization's databases,
/// returning its metrics (operations of each kind, deletes counting
/// deliberate misses; exact answers; reads) and the accounting check.
pub(crate) fn run_mix(
    ws: &Workspace,
    dbs: &mut [SpatialDatabase],
    mix: &Mix,
    operations: usize,
    threads: usize,
    seed: u64,
    mut next_id: u64,
) -> (Metrics, Conservation) {
    let ops = generate(mix, operations, dbs.len(), seed);
    let disk = ws.disk();
    let global_before = disk.stats();
    // The operations of each kind, in `kinds` order.
    let kinds = ["windows", "points", "joins", "inserts", "deletes"];
    let mut counts = [0u64; 5];

    // The live-id model each delete draw resolves against: seeded from
    // the databases, maintained in stream order alongside the plan.
    let mut live: Vec<Vec<u64>> = dbs.iter().map(|db| db.object_ids()).collect();
    let dbs: &[SpatialDatabase] = dbs;
    let stream: Vec<StreamOp<'_>> = ops
        .into_iter()
        .map(|op| match op {
            Op::Window(d, w) => {
                counts[0] += 1;
                StreamOp::Window {
                    db: &dbs[d],
                    window: w,
                }
            }
            Op::Point(d, p) => {
                counts[1] += 1;
                StreamOp::Point {
                    db: &dbs[d],
                    point: p,
                }
            }
            Op::Join(a, b) => {
                counts[2] += 1;
                StreamOp::Join {
                    left: &dbs[a],
                    right: &dbs[b],
                }
            }
            Op::Insert(d, line) => {
                counts[3] += 1;
                let id = next_id;
                next_id += 1;
                live[d].push(id);
                StreamOp::Insert {
                    db: &dbs[d],
                    id,
                    geometry: line.into(),
                }
            }
            Op::Delete(d, draw) => {
                counts[4] += 1;
                let id = if live[d].is_empty() {
                    // Nothing left to delete: a deliberate miss (the
                    // engine records `existed: false`).
                    u64::MAX
                } else {
                    let i = (draw % live[d].len() as u64) as usize;
                    live[d].swap_remove(i)
                };
                StreamOp::Delete { db: &dbs[d], id }
            }
        })
        .collect();

    let out = run_stream(stream, threads);
    let io = out.aggregate_io();
    let totals = [
        ("results", out.results()),
        ("read_requests", io.read_requests),
        ("pages_read", io.pages_read),
    ];
    let row = kinds
        .into_iter()
        .zip(counts)
        .chain(totals)
        .map(|(column, n)| (column, 0, n as f64))
        .collect();
    let conservation = Conservation {
        attributed: io,
        global: disk.stats().since(&global_before),
    };
    (row, conservation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seed_deterministic() {
        let mix = Mix::new()
            .window(0.5)
            .point(0.2)
            .join(0.1)
            .insert(0.1)
            .delete(0.1);
        let a = generate(&mix, 96, 3, 7);
        let b = generate(&mix, 96, 3, 7);
        assert_eq!(a.len(), 96);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        // All five kinds appear under these weights at this length.
        let debug = format!("{a:?}");
        for kind in ["Window", "Point", "Join", "Insert", "Delete"] {
            assert!(debug.contains(kind), "{kind} missing from stream");
        }
    }

    #[test]
    fn zero_delete_weight_replays_the_four_kind_stream() {
        // The delete branch sits at the end of the chain: a mix without
        // deletes draws the RNG exactly as the old generator, so
        // existing seeds reproduce their streams byte for byte.
        let four = Mix::new().window(0.6).point(0.2).join(0.1).insert(0.1);
        let ops = generate(&four, 64, 3, 7);
        assert!(!format!("{ops:?}").contains("Delete"));
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn empty_mix_rejected() {
        generate(&Mix::new(), 8, 1, 0);
    }
}
