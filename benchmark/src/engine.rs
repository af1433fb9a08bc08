//! The system under test, driven only through `spatialdb`'s public
//! per-operation API: set-up, the direct execution of one op, and the
//! closed-loop round runner.

use crate::inputs::{threads_n, Answer, Inputs, Object, Op, Workload};
use spatialdb::disk::IoStats;
use spatialdb::storage::WindowTechnique;
use spatialdb::{DbOptions, EngineConfig, OrganizationKind, SpatialDatabase, Workspace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The loaded databases of one workload and the machines they run on.
pub struct Engine {
    pub workspaces: Vec<Workspace>,
    pub dbs: Vec<SpatialDatabase>,
    /// Workspace index of each database.
    pub db_ws: Vec<usize>,
    pub db_org: Vec<OrganizationKind>,
    /// `true` for a database holding the A-2 map (its ids index
    /// `Inputs::b`), `false` for A-1.
    pub db_is_b: Vec<bool>,
}

impl Engine {
    /// Build a workload's engine: `window_scan` gives each organization
    /// its own workspace (three independent machines, as in the paper's
    /// per-organization runs); `join` puts A-1 and A-2 under every
    /// organization into one workspace (join operands must share a
    /// pool); the others load A-1 into one cluster-organized database.
    pub fn build(inputs: &Inputs) -> Engine {
        let spec = &inputs.spec;
        let mut engine = Engine {
            workspaces: Vec::new(),
            dbs: Vec::new(),
            db_ws: Vec::new(),
            db_org: Vec::new(),
            db_is_b: Vec::new(),
        };
        let shared = spec.workload == Workload::Join;
        for (i, &org) in spec.orgs.iter().enumerate() {
            if i == 0 || !shared {
                engine.workspaces.push(Workspace::from_config(
                    EngineConfig::default().buffer_pages(spec.buffer_pages),
                ));
            }
            let ws = engine.workspaces.len() - 1;
            engine.load(ws, org, &inputs.a, false);
            if shared {
                engine.load(ws, org, &inputs.b, true);
            }
        }
        if spec.workload == Workload::WindowHot {
            engine.fit_cache(inputs);
        }
        engine
    }

    /// Size `window_hot`'s pool from its inputs: run every distinct
    /// query's filter step once against the (oversized) initial pool,
    /// count the pages that became resident — the op list's working set,
    /// directory included — and restart with a cold pool of 90 % of it.
    ///
    /// A fixed capacity cannot hold the workload in its regime: the
    /// working set varies by ±15 % with the seed, and the pool's hit
    /// ratio goes from 0.8 to 1.0 (simulated I/O exactly zero) across
    /// that range. At 90 % of the working set, shuffled replays hit
    /// ≈ 0.94 of the time on every seed.
    fn fit_cache(&mut self, inputs: &Inputs) {
        let store = self.dbs[0].store();
        for w in &inputs.windows {
            store.window_query(w, WindowTechnique::Slm);
        }
        for p in &inputs.points {
            store.point_query(p);
        }
        drop(store);
        let pool = self.workspaces[0].pool();
        pool.reset(pool.len() * 9 / 10);
        self.dbs[0].finish_loading();
    }

    /// Bulk-load `objects` into a new database of workspace `ws` and
    /// return its index.
    pub fn load(
        &mut self,
        ws: usize,
        org: OrganizationKind,
        objects: &[Object],
        is_b: bool,
    ) -> usize {
        let workspace = &self.workspaces[ws];
        let mut db = workspace.create_database(DbOptions::new(org));
        workspace.bulk_load_par(&mut db, Inputs::load_list(objects), threads_n());
        db.finish_loading();
        self.dbs.push(db);
        self.db_ws.push(ws);
        self.db_org.push(org);
        self.db_is_b.push(is_b);
        self.dbs.len() - 1
    }

    /// Cumulative simulated I/O, summed over the workload's workspaces.
    pub fn io_stats(&self) -> IoStats {
        self.workspaces
            .iter()
            .fold(IoStats::new(), |sum, ws| sum.plus(&ws.disk().stats()))
    }

    /// Cumulative pool `(hits, misses, blocked lock acquisitions)`.
    pub fn pool_counters(&self) -> (u64, u64, u64) {
        self.workspaces.iter().fold((0, 0, 0), |(h, m, c), ws| {
            let pool = ws.pool();
            (
                h + pool.hits(),
                m + pool.misses(),
                c + pool.lock_contentions(),
            )
        })
    }

    /// Execute `op` through the public API and time it from call to
    /// fully materialised answer. A panic inside the engine is caught
    /// and recorded as [`Answer::PANICKED`]; reducing the answer to its
    /// checksum happens after the clock stops.
    pub fn execute(&self, inputs: &Inputs, op: &Op) -> (u64, Answer) {
        match *op {
            Op::Window { db, q } => {
                let (db, w) = (&self.dbs[db], inputs.windows[q]);
                timed(
                    || db.query().window(w).run().ids(),
                    |ids| Answer::of_ids(ids),
                )
            }
            Op::Point { db, q } => {
                let (db, p) = (&self.dbs[db], inputs.points[q]);
                timed(
                    || db.query().point(p).run().ids(),
                    |ids| Answer::of_ids(ids),
                )
            }
            Op::Insert { db, id } => {
                // The caller hands over an owned geometry; cloning the
                // benchmark's copy is not part of the op.
                let geometry = inputs.object(id).geom.clone();
                let db = &self.dbs[db];
                timed(|| db.insert(id, geometry), |()| Answer::of_write(true, id))
            }
            Op::Remove { db, id } => {
                let db = &self.dbs[db];
                timed(|| db.remove(id), |applied| Answer::of_write(*applied, id))
            }
            Op::Join { left, right } => {
                let (l, r) = (&self.dbs[left], &self.dbs[right]);
                timed(|| l.join(r).run().pairs(), |pairs| Answer::of_pairs(pairs))
            }
        }
    }
}

fn timed<R>(call: impl FnOnce() -> R, reduce: impl FnOnce(&R) -> Answer) -> (u64, Answer) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(call));
    let ns = start.elapsed().as_nanos() as u64;
    (ns, out.as_ref().map_or(Answer::PANICKED, reduce))
}

/// One closed-loop pass over an op list.
pub struct Round {
    /// Per-op latency in ns, in op order.
    pub latency_ns: Vec<u64>,
    /// Per-op answers, in op order.
    pub answers: Vec<Answer>,
    /// Wall time of the whole loop, bookkeeping between ops included.
    pub wall_ns: u64,
}

impl Round {
    /// Run `ops` back to back on the calling thread: one client, zero
    /// think time.
    pub fn run(engine: &Engine, inputs: &Inputs, ops: &[Op]) -> Round {
        Round::run_with(ops, |op| engine.execute(inputs, op))
    }

    /// [`Round::run`] with the op executor supplied by the caller (the
    /// traced pass wraps each op in a span).
    pub fn run_with(ops: &[Op], mut execute: impl FnMut(&Op) -> (u64, Answer)) -> Round {
        let start = Instant::now();
        let mut round = Round {
            latency_ns: Vec::with_capacity(ops.len()),
            answers: Vec::with_capacity(ops.len()),
            wall_ns: 0,
        };
        for op in ops {
            let (ns, answer) = execute(op);
            round.latency_ns.push(ns);
            round.answers.push(answer);
        }
        round.wall_ns = start.elapsed().as_nanos() as u64;
        round
    }

    /// Time the client spent inside ops. The loop's own bookkeeping
    /// (checksums, vector pushes) happens between ops and is excluded.
    pub fn busy_ns(&self) -> u64 {
        self.latency_ns.iter().sum()
    }

    /// Ops completed per second of busy time.
    pub fn ops_per_s(&self) -> f64 {
        self.latency_ns.len() as f64 / (self.busy_ns() as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{count_failures, Spec};

    #[test]
    fn a_panicking_op_is_caught_and_counted() {
        let spec = Spec {
            scale: 0.004,
            ..Spec::of(Workload::MixedRw, true)
        };
        let inputs = Inputs::generate(&spec, 5, false);
        let engine = Engine::build(&inputs);
        // Inserting a stored id trips the engine's duplicate assert.
        let ops = [
            Op::Remove { db: 0, id: 3 },
            Op::Insert { db: 0, id: 4 },
            Op::Remove { db: 0, id: 3 },
        ];
        let round = Round::run(&engine, &inputs, &ops);
        assert_eq!(round.answers[0], Answer::of_write(true, 3));
        assert_eq!(round.answers[1], Answer::PANICKED);
        let expected = [3, 4, 3].map(|id| Some(Answer::of_write(true, id)));
        // The duplicate insert panicked; the second remove of id 3
        // returned `false` for an id the stream believes live.
        assert_eq!(count_failures(&round.answers, &expected), 2);
    }
}
