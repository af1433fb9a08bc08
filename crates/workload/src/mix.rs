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
//! resolves each delete's raw draw against a running model of each
//! database's live ids (initialized from
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

/// Generate the deterministic operation stream against `dbs`.
///
/// The branch chain draws kinds in window → point → join → insert →
/// delete order, so any mix with a zero delete weight consumes the RNG
/// exactly as the four-kind generator always did — old seeds replay
/// byte-identically. A delete's raw draw is resolved at once against
/// `live`, the model of each database's live ids, which the stream's
/// own inserts (numbered from `next_id`) and deletes keep current; a
/// resolution draws nothing.
fn generate<'a>(
    mix: &Mix,
    operations: usize,
    dbs: &'a [SpatialDatabase],
    live: &mut [Vec<u64>],
    mut next_id: u64,
    seed: u64,
) -> Vec<StreamOp<'a>> {
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
    let databases = dbs.len();
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x006d_6978);
    (0..operations)
        .map(|_| {
            let u = rng.next_f64() * total;
            let d = (rng.next_u64() % databases as u64) as usize;
            let db = &dbs[d];
            if u < mix.window {
                let size = 0.02 + 0.08 * rng.next_f64();
                let x = rng.next_f64() * (1.0 - size);
                let y = rng.next_f64() * (1.0 - size);
                let window = Rect::new(x, y, x + size, y + size);
                StreamOp::Window { db, window }
            } else if u < mix.window + mix.point {
                let point = Point::new(rng.next_f64(), rng.next_f64());
                StreamOp::Point { db, point }
            } else if u < mix.window + mix.point + mix.join {
                let right = &dbs[(d + 1) % databases];
                StreamOp::Join { left: db, right }
            } else if u < mix.window + mix.point + mix.join + mix.insert {
                let x = rng.next_f64() * 0.99;
                let y = rng.next_f64() * 0.99;
                let line = Polyline::new(vec![
                    Point::new(x, y),
                    Point::new((x + 0.005).min(1.0), (y + 0.003).min(1.0)),
                    Point::new((x + 0.01).min(1.0), y),
                ]);
                let id = next_id;
                next_id += 1;
                live[d].push(id);
                StreamOp::Insert {
                    db,
                    id,
                    geometry: line.into(),
                }
            } else {
                let draw = rng.next_u64();
                let id = if live[d].is_empty() {
                    // Nothing left to delete: a deliberate miss (the
                    // engine records `existed: false`).
                    u64::MAX
                } else {
                    let i = (draw % live[d].len() as u64) as usize;
                    live[d].swap_remove(i)
                };
                StreamOp::Delete { db, id }
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
    next_id: u64,
) -> (Metrics, Conservation) {
    let disk = ws.disk();
    let global_before = disk.stats();
    // The live-id model each delete draw resolves against, seeded from
    // the databases.
    let mut live: Vec<Vec<u64>> = dbs.iter().map(|db| db.object_ids()).collect();
    let dbs: &[SpatialDatabase] = dbs;
    let stream = generate(mix, operations, dbs, &mut live, next_id, seed);
    // The operations of each kind, in `kinds` order.
    let kinds = ["windows", "points", "joins", "inserts", "deletes"];
    let mut counts = [0u64; 5];
    for op in &stream {
        counts[match op {
            StreamOp::Window { .. } => 0,
            StreamOp::Point { .. } => 1,
            StreamOp::Join { .. } => 2,
            StreamOp::Insert { .. } => 3,
            StreamOp::Delete { .. } => 4,
        }] += 1;
    }

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

    /// `n` empty databases on one workspace.
    fn databases(ws: &Workspace, n: usize) -> Vec<SpatialDatabase> {
        let options = spatialdb::DbOptions::new(spatialdb::OrganizationKind::Cluster);
        (0..n)
            .map(|_| ws.create_database(options.clone()))
            .collect()
    }

    fn stream(mix: &Mix, operations: usize, dbs: &[SpatialDatabase], seed: u64) -> String {
        let mut live = vec![Vec::new(); dbs.len()];
        format!("{:?}", generate(mix, operations, dbs, &mut live, 0, seed))
    }

    #[test]
    fn stream_is_seed_deterministic() {
        let mix = Mix::new()
            .window(0.5)
            .point(0.2)
            .join(0.1)
            .insert(0.1)
            .delete(0.1);
        let ws = Workspace::new(16);
        let dbs = databases(&ws, 3);
        let mut live = vec![Vec::new(); 3];
        assert_eq!(generate(&mix, 96, &dbs, &mut live, 0, 7).len(), 96);
        let a = stream(&mix, 96, &dbs, 7);
        assert_eq!(a, stream(&mix, 96, &dbs, 7));
        // All five kinds appear under these weights at this length.
        for kind in ["Window", "Point", "Join", "Insert", "Delete"] {
            assert!(a.contains(kind), "{kind} missing from stream");
        }
    }

    #[test]
    fn zero_delete_weight_replays_the_four_kind_stream() {
        // The delete branch sits at the end of the chain: a mix without
        // deletes draws the RNG exactly as the old generator, so
        // existing seeds reproduce their streams byte for byte.
        let four = Mix::new().window(0.6).point(0.2).join(0.1).insert(0.1);
        let ws = Workspace::new(16);
        assert!(!stream(&four, 64, &databases(&ws, 3), 7).contains("Delete"));
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn empty_mix_rejected() {
        let ws = Workspace::new(16);
        generate(&Mix::new(), 8, &databases(&ws, 1), &mut [Vec::new()], 0, 0);
    }
}
