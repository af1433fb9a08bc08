//! Drives the binary in `--quick` mode: the smoke test of all four
//! workloads and both passes, the determinism self-check, and the A/A
//! comparison. Runs the binary as a child process because the exact
//! metrics include process-wide allocation counts, which other test
//! threads would disturb.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_spatialdb-benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Every workload, both passes, at seed `seed`; report lines to `file`.
fn quick_all(seed: &str, file: &Path) -> Output {
    let out = run(&[
        "--workload",
        "all",
        "--quick",
        "--trace",
        "1",
        "--seed",
        seed,
        "--out",
        file.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "quick run failed:\n{}\n{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn fingerprints(file: &Path) -> Vec<String> {
    std::fs::read_to_string(file)
        .unwrap()
        .lines()
        .map(|l| {
            let key = "\"inputs_fingerprint\": \"";
            let at = l.find(key).expect("report line has a fingerprint") + key.len();
            l[at..at + 16].to_string()
        })
        .collect()
}

#[test]
fn quick_runs_are_correct_and_exact_metrics_repeat() {
    let (a, b, c) = (scratch("a.json"), scratch("b.json"), scratch("c.json"));
    let first = quick_all("7", &a);
    quick_all("7", &b);
    quick_all("8", &c);

    // One command printed every end-to-end metric of every workload and
    // every per-layer name, and nothing failed.
    let text = stdout(&first);
    let last = text.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(last.contains("\"failed\": 0, "), "{last}");
    for workload in ["window_hot", "window_scan", "mixed_rw", "join"] {
        for metric in [
            "setup_s",
            "ops_per_s",
            "op_p50_us",
            "op_tail_us",
            "sim_io_ms_per_op",
            "peak_rss_mb",
            "ok_ops_share",
            "storage.cluster.snapshot_bytes",
            "core.query_overhead_us",
            "trace_overhead_share",
        ] {
            assert!(
                last.contains(&format!("\"{workload}.{metric}\"")),
                "{workload}.{metric}"
            );
        }
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        let spans = std::fs::read_to_string(spans).expect("span file written");
        assert!(spans.starts_with("{\"traceEvents\":["));
        for stage in [
            "core.op",
            "epoch.pin",
            "storage.filter",
            "geom.refine",
            "storage.snapshot",
            "join.mbr_join",
        ] {
            assert!(
                spans.contains(&format!("\"name\":\"{stage}\"")),
                "{workload}: no {stage} span"
            );
        }
    }

    // Same seed: same inputs, and every exact metric bit-identical
    // (`--compare` lists the ones that differ and exits non-zero on any;
    // host-time verdicts are printed but a one-round smoke run is too
    // short to hold them to a bound).
    assert_eq!(fingerprints(&a), fingerprints(&b));
    let same = run(&["--compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let report = stdout(&same);
    assert!(report.contains(" 0 exact metric(s) differ"), "{report}");
    assert!(!report.contains("missing"), "{report}");

    // Another seed: other inputs, and exact metrics that move with them.
    let (fa, fc) = (fingerprints(&a), fingerprints(&c));
    assert_eq!(fa.len(), 8, "four workloads, two passes");
    assert!(
        fa.iter().zip(&fc).all(|(x, y)| x != y),
        "seed must change every workload's inputs"
    );
    let other = run(&["--compare", a.to_str().unwrap(), c.to_str().unwrap()]);
    // Different seeds are not compared for exactness.
    assert!(stdout(&other).contains(" 0 exact metric(s) differ"));
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seed", "x"],
        &["--seconds", "-1"],
        &["--frobnicate"],
        &["--compare", "only-one.json"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} printed a result");
    }
}
