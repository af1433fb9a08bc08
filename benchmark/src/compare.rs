//! `--compare A.json B.json`: one row per workload × end-to-end metric,
//! with a verdict, and a list of exact metrics that differ.
//!
//! A report file holds one JSON line per run (`--out` appends). With
//! several runs of a workload in a file the row shows their median and
//! quartiles; with one run it shows that run's value and the quartiles
//! of its per-round values.

use crate::json::{self, Value};
use crate::report::{end_to_end_defs, per_layer_defs, MetricDef};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// The runs of one side, grouped by `(workload, traced)`.
type Runs = BTreeMap<(String, bool), Vec<Value>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no \"workload\"", i + 1))?
            .to_string();
        let traced = v.get("traced").and_then(Value::as_bool).unwrap_or(false);
        runs.entry((workload, traced)).or_default().push(v);
    }
    if runs.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok(runs)
}

/// Median and quartiles of `metric` over a side's runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn summarize(runs: &[Value], metric: &str) -> Option<Summary> {
    let field = |run: &Value, f: &str| run.get("metrics")?.get(metric)?.get(f)?.as_f64();
    let values: Vec<f64> = runs.iter().filter_map(|r| field(r, "value")).collect();
    match values.len() {
        0 => None,
        1 => Some(Summary {
            median: values[0],
            q1: field(&runs[0], "q1").unwrap_or(values[0]),
            q3: field(&runs[0], "q3").unwrap_or(values[0]),
        }),
        _ => {
            let (q1, q3) = quartiles(&values);
            Some(Summary {
                median: median(&values),
                q1,
                q3,
            })
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// B is worse by more than the bound, but each side's own spread is
    /// wider than the bound and the two interquartile ranges overlap: the
    /// runs cannot tell the sides apart.
    Unresolved,
}

/// How much worse B is than A, as a share of A (negative = better).
/// A zero baseline compares absolutely: 0 vs 0 is no change, 0 vs
/// non-zero in the bad direction is infinitely worse.
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = if def.higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

pub fn verdict(def: &MetricDef, a: Summary, b: Summary) -> Verdict {
    if worsening(def, a.median, b.median) <= def.bound {
        return Verdict::Ok;
    }
    let spread = |s: Summary| (s.q3 - s.q1).abs() / s.median.abs().max(f64::MIN_POSITIVE);
    let wide = spread(a) > def.bound || spread(b) > def.bound;
    let interleave = a.q1.min(a.q3) <= b.q1.max(b.q3) && b.q1.min(b.q3) <= a.q1.max(a.q3);
    if wide && interleave {
        Verdict::Unresolved
    } else {
        Verdict::Regression
    }
}

/// Compare two report files; returns the process exit code.
pub fn run(path_a: &str, path_b: &str) -> Result<i32, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut regressions = 0;
    let mut unresolved = 0;
    println!(
        "{:<12} {:<18} {:>14} {:>25} {:>14} {:>25} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "bound"
    );
    for ((workload, _), runs_a) in a.iter().filter(|((_, traced), _)| !traced) {
        let Some(runs_b) = b.get(&(workload.clone(), false)) else {
            println!("{workload:<12} missing from {path_b}");
            regressions += 1;
            continue;
        };
        for def in end_to_end_defs() {
            let (Some(sa), Some(sb)) = (summarize(runs_a, &def.name), summarize(runs_b, &def.name))
            else {
                println!("{workload:<12} {:<18} missing on one side", def.name);
                regressions += 1;
                continue;
            };
            let v = verdict(&def, sa, sb);
            regressions += i32::from(v == Verdict::Regression);
            unresolved += i32::from(v == Verdict::Unresolved);
            println!(
                "{workload:<12} {:<18} {:>14.6} {:>25} {:>14.6} {:>25} {:>9.4} {:>5.1}%  {}",
                def.name,
                sa.median,
                format!("[{:.5}, {:.5}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.5}, {:.5}]", sb.q1, sb.q3),
                sb.median / sa.median,
                def.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }

    // Exact metrics must agree bit for bit between runs of one seed.
    let mut differing = 0;
    for (key, runs_a) in &a {
        let Some(runs_b) = b.get(key) else { continue };
        let defs = if key.1 {
            per_layer_defs()
        } else {
            end_to_end_defs()
        };
        for (ra, rb) in runs_a.iter().zip(runs_b) {
            let seed = |r: &Value| r.get("seed").and_then(Value::as_f64);
            if seed(ra) != seed(rb) {
                continue;
            }
            for def in defs.iter().filter(|d| d.exact) {
                let value = |r: &Value| r.get("metrics")?.get(&def.name)?.get("value")?.as_f64();
                let (va, vb) = (value(ra), value(rb));
                if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                    differing += 1;
                    println!(
                        "exact metric differs: {} {} (seed {:?}): {:?} vs {:?}",
                        key.0,
                        def.name,
                        seed(ra),
                        va,
                        vb
                    );
                }
            }
        }
    }
    println!(
        "{regressions} regression(s), {unresolved} unresolved, {differing} exact metric(s) differ between same-seed runs"
    );
    Ok(if regressions > 0 || differing > 0 {
        1
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "us",
            higher_is_better: false,
            bound,
            exact: false,
        }
    }

    fn at(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { median, q1, q3 }
    }

    #[test]
    fn verdicts() {
        let d = lower(0.10);
        assert_eq!(
            verdict(&d, at(100.0, 99.0, 101.0), at(109.0, 108.0, 110.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&d, at(100.0, 99.0, 101.0), at(80.0, 79.0, 81.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&d, at(100.0, 99.0, 101.0), at(120.0, 119.0, 121.0)),
            Verdict::Regression
        );
        // Worse by 15 %, but both sides' spread exceeds the bound and
        // their interquartile ranges overlap.
        assert_eq!(
            verdict(&d, at(100.0, 90.0, 112.0), at(115.0, 104.0, 126.0)),
            Verdict::Unresolved
        );
        // Wide but disjoint: every B run reads worse than every A run.
        assert_eq!(
            verdict(&d, at(100.0, 90.0, 105.0), at(140.0, 125.0, 150.0)),
            Verdict::Regression
        );
        let higher = MetricDef {
            higher_is_better: true,
            ..lower(0.10)
        };
        assert_eq!(
            verdict(&higher, at(100.0, 99.0, 101.0), at(85.0, 84.0, 86.0)),
            Verdict::Regression
        );
    }

    #[test]
    fn zero_baseline_compares_absolutely() {
        let d = lower(0.0);
        assert_eq!(
            verdict(&d, at(0.0, 0.0, 0.0), at(0.0, 0.0, 0.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&d, at(0.0, 0.0, 0.0), at(0.5, 0.5, 0.5)),
            Verdict::Regression
        );
    }
}
