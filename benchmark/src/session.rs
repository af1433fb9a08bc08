//! One workload run: set-up, oracle, warm-up, and the untraced
//! end-to-end pass.

use crate::engine::{Engine, Round};
use crate::inputs::{
    count_failures, mixed_expected, Answer, Inputs, Op, Spec, StaticOracle, Workload,
};
use crate::report::Metric;
use crate::stats::{median, percentile_sorted, samples_beyond, supported_tail};
use spatialdb::disk::IoStats;
use std::time::Instant;

/// `mixed_rw` checks a seeded 1-in-50 sample of its reads (every write
/// is always checked): each check scans the whole live set.
const MIXED_SAMPLE_EVERY: usize = 50;

/// A set-up engine with its inputs and oracle, positioned after the
/// warm-up round.
pub struct Session {
    pub inputs: Inputs,
    pub engine: Engine,
    pub oracle: StaticOracle,
    /// `mixed_rw` model of the live set, advanced by [`Session::verify`].
    alive: Vec<bool>,
    next_round: u64,
    /// Wall time of each set-up repetition (generation + load).
    pub build_s: Vec<f64>,
    /// Wall time of the warm-up round.
    pub warmup_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Session {
    /// Set up `spec.setup_reps` times from scratch — map generation,
    /// parallel bulk load, `finish_loading` — keeping the last; build the
    /// oracle (untimed); run the warm-up round.
    pub fn start(spec: &Spec, seed: u64, with_b: bool) -> Session {
        let mut build_s = Vec::new();
        let mut built = None;
        for _ in 0..spec.setup_reps.max(1) {
            // Free the previous repetition first, so the peak resident
            // set is one engine, not two.
            drop(built.take());
            let t = Instant::now();
            let inputs = Inputs::generate(spec, seed, with_b);
            let engine = Engine::build(&inputs);
            build_s.push(t.elapsed().as_secs_f64());
            built = Some((inputs, engine));
        }
        let (inputs, engine) = built.expect("at least one set-up");
        let oracle = StaticOracle::build(&inputs, spec.workload == Workload::Join);
        let mut session = Session {
            alive: vec![true; inputs.a.len()],
            inputs,
            engine,
            oracle,
            next_round: 0,
            build_s,
            warmup_s: 0.0,
            attempted: 0,
            failed: 0,
        };
        let t = Instant::now();
        let (round, ops) = session.next_ops(None);
        let warmup = Round::run(&session.engine, &session.inputs, &ops);
        session.warmup_s = t.elapsed().as_secs_f64();
        session.verify(round, &ops, &warmup.answers);
        session
    }

    /// The next round's number and op list.
    pub fn next_ops(&mut self, limit: Option<usize>) -> (u64, Vec<Op>) {
        let round = self.next_round;
        self.next_round += 1;
        (round, self.inputs.round_ops(round, limit))
    }

    /// Check a round's answers against the oracle and add to the
    /// attempted/failed tally. Rounds must be verified in the order they
    /// ran (`mixed_rw`'s model advances with each).
    pub fn verify(&mut self, round: u64, ops: &[Op], answers: &[Answer]) -> u64 {
        let expected: Vec<Option<Answer>> = if self.inputs.spec.workload == Workload::MixedRw {
            mixed_expected(
                &self.inputs,
                &mut self.alive,
                ops,
                round,
                MIXED_SAMPLE_EVERY,
            )
        } else {
            ops.iter()
                .map(|op| Some(self.oracle.expected(op)))
                .collect()
        };
        self.tally(answers, &expected)
    }

    /// Add `answers` to the attempted/failed tally against `expected`
    /// (`None` = not checked) and return how many of them failed.
    pub fn tally(&mut self, answers: &[Answer], expected: &[Option<Answer>]) -> u64 {
        let failed = count_failures(answers, expected);
        self.attempted += answers.len() as u64;
        self.failed += failed;
        failed
    }

    /// `mixed_rw` end-state check: the engine's object count and the ids
    /// a whole-space window returns must equal the model's live set.
    /// Counts as one more attempted op.
    pub fn verify_final_state(&mut self) {
        if self.inputs.spec.workload != Workload::MixedRw {
            return;
        }
        let mut live: Vec<u64> = self.inputs.live_ids().to_vec();
        live.sort_unstable();
        let db = &self.engine.dbs[0];
        let everything = spatialdb::geom::Rect::new(-1.0, -1.0, 2.0, 2.0);
        let ok = db.len() == live.len() && db.query().window(everything).run().ids() == live;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What the untraced pass measured, beyond the metric list.
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    pub rounds: usize,
    pub samples: usize,
    /// Pool hit ratio over the counted round (the "fits / does not fit
    /// the cache" contrast the window workloads are named for).
    pub hit_ratio: f64,
    /// Violated workload preconditions; any makes the run incorrect.
    pub problems: Vec<String>,
}

/// Simulated-I/O bookkeeping of the counted round.
pub struct Counted {
    pub io: IoStats,
    pub hits: u64,
    pub misses: u64,
    pub blocked: u64,
    pub ops: usize,
}

impl Counted {
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    /// `t_s·seeks + t_l·latencies + t_t·pages` must reproduce the
    /// charged `io_ms`: the decomposition the `disk.sim.*` metrics
    /// report is exactly the end-to-end number.
    pub fn check_identity(&self, engine: &Engine, problems: &mut Vec<String>) {
        let params = engine.workspaces[0].disk().params();
        let rebuilt = params.seek_ms * self.io.seeks as f64
            + params.latency_ms * self.io.latencies as f64
            + params.transfer_ms * self.io.pages() as f64;
        if (rebuilt - self.io.io_ms).abs() > 1e-6 * self.io.io_ms.max(1.0) {
            problems.push(format!(
                "sim I/O identity broken: t_s*seeks + t_l*latencies + t_t*pages = {rebuilt} ms, charged {} ms",
                self.io.io_ms
            ));
        }
    }
}

/// Run one round and return it with the simulated-I/O and pool deltas
/// around it. The first timed round of every run goes through here: it
/// is the same op list from the same state on every run of a seed, so
/// its counts repeat exactly however long the run lasts.
pub fn counted_round(session: &mut Session, limit: Option<usize>) -> (Round, Counted) {
    let (round_no, ops) = session.next_ops(limit);
    let io_before = session.engine.io_stats();
    let (h0, m0, c0) = session.engine.pool_counters();
    let round = Round::run(&session.engine, &session.inputs, &ops);
    let (h1, m1, c1) = session.engine.pool_counters();
    let counted = Counted {
        io: session.engine.io_stats().since(&io_before),
        hits: h1 - h0,
        misses: m1 - m0,
        blocked: c1 - c0,
        ops: ops.len(),
    };
    session.verify(round_no, &ops, &round.answers);
    (round, counted)
}

/// Check the cache regime a window workload is named for, on the
/// counted round: `window_hot` must be served from the pool (hit ratio
/// at least 0.9); `window_scan` must turn the pool over (every op transfers
/// more than half a pool of pages, so nothing survives from one op to
/// the next). The hit ratio cannot draw the second line: ~0.6 of
/// `window_scan`'s page accesses hit whatever the pool size, because
/// consecutive candidates of one query share pages.
pub fn check_cache_regime(
    engine: &Engine,
    spec: &Spec,
    counted: &Counted,
    problems: &mut Vec<String>,
) {
    let hit_ratio = counted.hit_ratio();
    let capacity = engine.workspaces[0].pool().capacity() as f64;
    let missed_per_op = counted.misses as f64 / counted.ops as f64;
    match spec.workload {
        Workload::WindowHot if hit_ratio < 0.9 => problems.push(format!(
            "window_hot must fit the cache: pool hit ratio {hit_ratio:.4} < 0.9"
        )),
        Workload::WindowScan if missed_per_op < capacity / 2.0 => problems.push(format!(
            "window_scan must not fit the cache: an op misses {missed_per_op:.0} pages, \
             under half the pool's {capacity}"
        )),
        _ => {}
    }
}

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced end-to-end pass: whole rounds of the workload's op list
/// until `seconds` have passed (at least one), one client thread.
pub fn end_to_end(session: &mut Session, seconds: f64) -> EndToEnd {
    let spec = session.inputs.spec.clone();
    let mut problems = Vec::new();
    let started = Instant::now();

    let (first, counted) = counted_round(session, None);
    counted.check_identity(&session.engine, &mut problems);
    check_cache_regime(&session.engine, &spec, &counted, &mut problems);

    let mut rounds = vec![first];
    while started.elapsed().as_secs_f64() < seconds {
        let (round_no, ops) = session.next_ops(None);
        let round = Round::run(&session.engine, &session.inputs, &ops);
        session.verify(round_no, &ops, &round.answers);
        rounds.push(round);
    }
    session.verify_final_state();

    // Failed ops count as missing for latency: their samples are
    // dropped, so they cannot flatter the percentiles.
    let per_round_sorted: Vec<Vec<u64>> = rounds
        .iter()
        .map(|r| {
            let mut v: Vec<u64> = r
                .latency_ns
                .iter()
                .zip(&r.answers)
                .filter(|(_, a)| **a != Answer::PANICKED)
                .map(|(ns, _)| *ns)
                .collect();
            v.sort_unstable();
            v
        })
        .collect();
    let mut pooled: Vec<u64> = per_round_sorted.iter().flatten().copied().collect();
    pooled.sort_unstable();
    if supported_tail(pooled.len()).is_none_or(|p| p < spec.tail) {
        eprintln!(
            "note: {} samples leave {} beyond p{}; run longer for a firmer tail",
            pooled.len(),
            samples_beyond(pooled.len(), spec.tail),
            spec.tail
        );
    }

    let us = |ns: u64| ns as f64 / 1e3;
    let over_rounds =
        |f: &dyn Fn(&[u64]) -> f64| -> Vec<f64> { per_round_sorted.iter().map(|v| f(v)).collect() };
    let throughput: Vec<f64> = rounds.iter().map(Round::ops_per_s).collect();
    let p50 = over_rounds(&|v| us(percentile_sorted(v, 50.0)));
    let tail = over_rounds(&|v| us(percentile_sorted(v, f64::from(spec.tail))));
    let setup: Vec<f64> = session
        .build_s
        .iter()
        .map(|b| b + session.warmup_s)
        .collect();
    let sim_io = counted.io.io_ms / counted.ops as f64;
    let ok_share = 1.0 - session.failed as f64 / session.attempted as f64;

    let metrics = vec![
        Metric::spread("setup_s", median(&setup), &setup),
        Metric::spread("ops_per_s", median(&throughput), &throughput),
        Metric::spread("op_p50_us", us(percentile_sorted(&pooled, 50.0)), &p50),
        Metric::spread(
            "op_tail_us",
            us(percentile_sorted(&pooled, f64::from(spec.tail))),
            &tail,
        ),
        Metric::point("sim_io_ms_per_op", sim_io),
        Metric::point("peak_rss_mb", vm_hwm_mb()),
        Metric::point("ok_ops_share", ok_share),
    ];
    EndToEnd {
        metrics,
        rounds: rounds.len(),
        samples: pooled.len(),
        hit_ratio: counted.hit_ratio(),
        problems,
    }
}
