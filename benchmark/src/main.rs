//! The repo benchmark: four paper-scale workloads measured from outside
//! the engine — end to end through `spatialdb`'s public per-operation
//! API, and layer by layer through each crate's public functions.
//! See `benchmark/README.md` for the metric and workload dictionary.
//!
//! ```text
//! spatialdb-benchmark --workload <window_hot|window_scan|mixed_rw|join|all>
//!                     [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! spatialdb-benchmark --compare A.json B.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero if any op failed or a workload precondition did not hold.

mod alloc;
mod compare;
mod engine;
mod inputs;
mod json;
mod layers;
mod report;
mod session;
mod stats;
mod trace;

use inputs::{Spec, Workload};
use report::RunReport;
use session::Session;
use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`: how long the untraced pass
/// measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 1994;

/// Span files land beside the sources the binary was built from, so the
/// location does not depend on the directory the command is run in.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    /// `None` = all four.
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

const USAGE: &str =
    "usage: spatialdb-benchmark --workload <window_hot|window_scan|mixed_rw|join|all> \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]\n       \
spatialdb-benchmark --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                    ),
                };
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// One pass of one workload: the untraced end-to-end pass, or the traced
/// per-layer pass.
fn run_pass(workload: Workload, args: &Args) -> RunReport {
    let traced = args.trace;
    let spec = Spec::of(workload, args.quick);
    // The traced pass needs the A-2 map on every workload (probe join,
    // probe writes) and only one set-up: it does not report `setup_s`.
    let spec = if traced {
        Spec {
            setup_reps: 1,
            ..spec
        }
    } else {
        spec
    };
    let mut session = Session::start(&spec, args.seed, traced);
    let (metrics, mut problems) = if traced {
        let path = std::path::Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()));
        let t = layers::traced_pass(&mut session, &path);
        eprintln!("spans written to {}", path.display());
        (t.metrics, t.problems)
    } else {
        // `--quick` times a single round.
        let seconds = args
            .seconds
            .unwrap_or(if args.quick { 0.0 } else { DEFAULT_SECONDS });
        let e = session::end_to_end(&mut session, seconds);
        eprintln!(
            "{}: {} timed rounds, {} latency samples, pool hit ratio {:.4}, tail = p{}",
            workload.name(),
            e.rounds,
            e.samples,
            e.hit_ratio,
            spec.tail
        );
        (e.metrics, e.problems)
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("metric {} is not a finite number", m.name));
    }
    for p in &problems {
        eprintln!("PROBLEM ({}): {p}", workload.name());
    }
    RunReport {
        workload: workload.name(),
        seed: args.seed,
        traced,
        fingerprint: session.inputs.fingerprint(),
        attempted: session.attempted,
        failed: session.failed,
        correct: session.failed == 0 && problems.is_empty(),
        metrics,
    }
}

/// Run the one pass a single-workload invocation asks for.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let report = run_pass(workload, args);
    report.print_table();
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{}", report.report_line()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.result_line());
    Ok(report.correct)
}

/// `--workload all`: every workload's end-to-end pass and, with
/// `--trace 1`, its traced pass — each in a child process of its own, so
/// that `peak_rss_mb` (a process-lifetime watermark) and the allocator's
/// state are that pass's alone. Children run one after the other and
/// are waited for; their tables are passed through and their result
/// lines merged into one.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        for trace in if args.trace { &["0", "1"][..] } else { &["0"] } {
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", workload.name(), "--trace", trace]);
            child.args(["--seed", &args.seed.to_string()]);
            if let Some(seconds) = args.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            if args.quick {
                child.arg("--quick");
            }
            if let Some(out) = &args.out {
                child.args(["--out", out]);
            }
            let output = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (table, line) = stdout
                .trim_end()
                .rsplit_once('\n')
                .ok_or_else(|| format!("{} pass printed no result", workload.name()))?;
            println!("{table}");
            results.push((workload.name(), json::parse(line)?));
        }
    }
    println!("{}", report::combined_result_line(&results)?);
    Ok(results
        .iter()
        .all(|(_, r)| r.get("correct").and_then(json::Value::as_bool) == Some(true)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(code) => ExitCode::from(code as u8),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = parse_args(&argv).and_then(|args| match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
