//! The metric dictionary and the benchmark's outputs: the table a human
//! reads, the one-line JSON the driver reads, and the report lines
//! `--compare` reads.

use crate::inputs::{org_name, ALL_ORGS};
use crate::json::Value;

/// One reported number, with the quartiles of the per-round values it
/// summarises (equal to the value for a single measurement).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// A metric with the quartiles of its per-round (or per-repetition)
    /// values beside the reported one.
    pub fn spread(name: &'static str, value: f64, samples: &[f64]) -> Metric {
        let (q1, q3) = crate::stats::quartiles(samples);
        Metric {
            name: name.to_string(),
            value,
            q1,
            q3,
        }
    }

    /// A single measured value.
    pub fn point(name: impl Into<String>, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value,
            q1: value,
            q3: value,
        }
    }
}

/// Dictionary entry of a metric.
#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before `--compare` calls it a regression (end-to-end only).
    pub bound: f64,
    /// The value is a count or simulated time that must repeat
    /// bit-for-bit for a given seed.
    pub exact: bool,
}

fn def(
    name: &str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better,
        bound,
        exact,
    }
}

/// The seven end-to-end metrics, reported on every workload.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    vec![
        // Host-time bounds are as wide as the contract allows: on the
        // 2-core shared sandbox the same binary's medians drift by
        // 10-15 % from one run to the next (see README, "Noise").
        def("setup_s", "s", false, 0.25, false),
        def("ops_per_s", "ops/s", true, 0.25, false),
        def("op_p50_us", "us", false, 0.25, false),
        def("op_tail_us", "us", false, 0.25, false),
        // Bit-identical between runs of one seed; the bound only has to
        // absorb the seed-to-seed spread of the generated query sets.
        def("sim_io_ms_per_op", "sim_ms/op", false, 0.15, true),
        def("peak_rss_mb", "MB", false, 0.15, false),
        def("ok_ops_share", "ratio", true, 0.001, true),
    ]
}

/// The per-layer metrics of the traced pass, in reporting order.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let lower = |name: &str, unit, exact| def(name, unit, false, 0.0, exact);
    let higher = |name: &str, unit, exact| def(name, unit, true, 0.0, exact);
    let mut defs = vec![
        lower("geom.refine_ns_per_candidate", "ns", false),
        lower("geom.pair_test_ns", "ns", false),
        lower("geom.false_hit_ratio", "ratio", true),
        lower("rtree.candidates_us_per_query", "us", false),
        lower("rtree.nodes_per_query", "count", true),
        lower("rtree.height", "count", true),
        lower("rtree.insert_us", "us", false),
        lower("rtree.delete_us", "us", false),
        lower("rtree.str_build_ms", "ms", false),
        lower("disk.pool.hit_ns", "ns", false),
        lower("disk.pool.miss_ns", "ns", false),
        higher("disk.pool.hit_ratio", "ratio", true),
        lower("disk.pool.blocked_acquisitions", "count", true),
        lower("disk.sim.seeks_per_op", "seeks/op", true),
        lower("disk.sim.latencies_per_op", "latencies/op", true),
        lower("disk.sim.pages_read_per_op", "pages/op", true),
        lower("disk.sim.pages_written_per_op", "pages/op", true),
        lower("disk.sim.requests_per_op", "requests/op", true),
        higher("disk.arm.replay_events_per_s", "events/s", false),
        lower("epoch.pin_ns", "ns", false),
        lower("epoch.swap_retire_us", "us", false),
        lower("epoch.retired_max", "count", true),
    ];
    for org in ALL_ORGS.map(org_name) {
        let s = |stage: &str| format!("storage.{org}.{stage}");
        defs.extend([
            lower(&s("filter_us_per_query"), "us", false),
            lower(&s("sim_ms_per_4kb"), "sim_ms/4KB", true),
            lower(&s("snapshot_ms"), "ms", false),
            lower(&s("snapshot_bytes"), "bytes", true),
            lower(&s("apply_insert_us"), "us", false),
            lower(&s("apply_delete_us"), "us", false),
            lower(&s("str_load_ms"), "ms", false),
            lower(&s("occupied_pages"), "pages", true),
        ]);
    }
    defs.extend([
        lower("join.mbr_join_ms", "ms", false),
        lower("join.mbr_pairs", "count", true),
        lower("join.transfer_ms", "ms", false),
        lower("join.refine_ms", "ms", false),
        lower("join.cluster.complete.sim_io_s", "sim_s", true),
        lower("join.cluster.vector_read.sim_io_s", "sim_s", true),
        lower("join.cluster.read.sim_io_s", "sim_s", true),
        lower("join.par_ms_tN", "ms", false),
        lower("core.query_overhead_us", "us", false),
        lower("core.commit_overhead_us", "us", false),
        lower("core.allocs_per_op", "allocs/op", true),
        lower("core.alloc_bytes_per_op", "bytes/op", true),
        higher("core.run_batch.qps_t1", "queries/s", false),
        higher("core.run_batch.qps_tN", "queries/s", false),
        higher("core.run_stream.ops_per_s_t1", "ops/s", false),
        higher("core.run_stream.ops_per_s_tN", "ops/s", false),
        lower("core.read_p50_us_alone", "us", false),
        lower("core.read_p50_us_with_writer", "us", false),
        higher("core.bulk_load.objects_per_s_t1", "objects/s", false),
        higher("core.bulk_load.objects_per_s_tN", "objects/s", false),
        lower("data.generate_ms", "ms", false),
        lower("workload.scenario_ms", "ms", false),
        lower("trace_overhead_share", "ratio", false),
    ]);
    defs
}

/// The outcome of one `--workload W --trace T` run.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    /// No failed op and no violated workload precondition.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

/// JSON number: all the digits Rust's shortest round-trip form has.
/// Non-finite values have no JSON form; they are reported as `null`
/// and make the run incorrect upstream.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl RunReport {
    fn defs(&self) -> Vec<MetricDef> {
        if self.traced {
            per_layer_defs()
        } else {
            end_to_end_defs()
        }
    }

    /// Metrics paired with their dictionary entries, in dictionary
    /// order. Panics if a metric is missing or unknown: the output must
    /// carry exactly the names `BENCHMARK.json` lists.
    pub fn rows(&self) -> Vec<(MetricDef, &Metric)> {
        let defs = self.defs();
        assert_eq!(
            defs.len(),
            self.metrics.len(),
            "metric count differs from the dictionary"
        );
        defs.into_iter()
            .map(|d| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                (d, m)
            })
            .collect()
    }

    /// The table for a human reader.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {}) ==",
            self.workload,
            self.seed,
            if self.traced {
                "traced pass: per-layer metrics"
            } else {
                "untraced pass: end-to-end metrics"
            }
        );
        for (d, m) in self.rows() {
            let spread = if m.q1 == m.q3 {
                String::new()
            } else {
                format!("  [q1 {:.6}, q3 {:.6}]", m.q1, m.q3)
            };
            let exact = if d.exact { "  (exact)" } else { "" };
            println!("{:<44} {:>18.6} {}{spread}{exact}", d.name, m.value, d.unit);
        }
        println!(
            "attempted {} ops, failed {}, correct {}",
            self.attempted, self.failed, self.correct
        );
    }

    fn metrics_json(&self, with_spread: bool) -> String {
        self.rows()
            .iter()
            .map(|(d, m)| {
                let spread = if with_spread {
                    format!(", \"q1\": {}, \"q3\": {}", num(m.q1), num(m.q3))
                } else {
                    String::new()
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                    d.name,
                    num(m.value),
                    d.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    /// One line of a `--out` report file: the result line plus what
    /// `--compare` needs (workload, seed, pass, quartiles, input digest).
    pub fn report_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"inputs_fingerprint\": \"{:016x}\", \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            self.seed,
            self.traced,
            self.fingerprint,
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(true)
        )
    }
}

/// The result line of `--workload all`, merged from each pass's own
/// result line: every metric under `<workload>.<metric>`, tallies summed.
pub fn combined_result_line(results: &[(&str, Value)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    for (workload, result) in results {
        let field = |name: &str| {
            result
                .get(name)
                .ok_or_else(|| format!("{workload}: result line lacks {name:?}"))
        };
        correct &= field("correct")?.as_bool() == Some(true);
        attempted += field("attempted")?.as_f64().unwrap_or(0.0);
        failed += field("failed")?.as_f64().unwrap_or(0.0);
        for (name, m) in field("metrics")?.as_object().unwrap_or_default() {
            metrics.push(format!(
                "\"{workload}.{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.get("value")
                    .and_then(Value::as_f64)
                    .map_or("null".into(), num),
                m.get("unit").and_then(Value::as_str).unwrap_or(""),
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn dictionary_meets_the_schema_limits() {
        let e2e = end_to_end_defs();
        let layers = per_layer_defs();
        assert_eq!(e2e.len(), 7);
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
        let mut names = std::collections::BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(valid(&d.name, 64, "_.-"), "bad name {}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                valid(d.unit, 16, "_/%.-"),
                "bad unit {} of {}",
                d.unit,
                d.name
            );
            assert!(names.insert(d.name.clone()), "duplicate {}", d.name);
            assert!(d.bound <= 0.25);
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps its metric lists
    /// equal to the dictionary the binary reports from.
    #[test]
    fn benchmark_json_lists_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", end_to_end_defs()),
            ("per_layer", per_layer_defs()),
        ] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(&defs) {
                assert_eq!(
                    entry.get("name").and_then(|v| v.as_str()),
                    Some(d.name.as_str())
                );
                assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(d.unit));
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(entry.get("better").and_then(|v| v.as_str()), Some(better));
                if key == "end_to_end" {
                    assert_eq!(entry.get("bound").and_then(|v| v.as_f64()), Some(d.bound));
                }
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads");
        let names: Vec<_> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(names, crate::inputs::Workload::ALL.map(|w| w.name()));
    }
}
