//! Experiment harness support for the `spatialdb-bench` binaries.
//!
//! Each binary regenerates one table or figure of Brinkhoff & Kriegel,
//! VLDB 1994. Binaries accept an optional `--scale <fraction>` argument
//! (default 1.0 = paper scale) so a quick run is possible on small data.

use spatialdb::experiments::Scale;

/// Parse `--scale <f>` from the command line, returning the experiment
/// scale (paper scale by default).
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = Scale::paper();
    if let Some(pos) = args.iter().position(|a| a == "--scale") {
        let f: f64 = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("--scale needs a fraction in (0, 1]"));
        assert!(f > 0.0 && f <= 1.0, "--scale must be in (0, 1]");
        scale.data_scale = f;
        if f < 0.5 {
            // Shrink query counts and join buffers proportionally so
            // quick runs stay quick and buffers stay meaningful relative
            // to the data volume.
            scale.num_queries = ((678.0 * f * 4.0) as usize).clamp(40, 678);
            scale.join_buffers = vec![160, 320, 640, 1280];
        }
    }
    scale
}

/// Value of the `--name <value>` command-line flag, if present (the
/// report binaries' shared flag parser).
pub fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// A benchmark grid dimension: the `var` environment variable (a
/// comma-separated integer list, e.g. `SPATIALDB_BENCH_DEPTHS=1,4,16`)
/// overrides `default` — so re-baselining on different hardware (more
/// cores, deeper queues) needs no code change.
///
/// # Panics
///
/// Panics when the variable is set but not a comma-separated list of
/// positive integers.
pub fn grid_from_env(var: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(var) {
        Ok(s) => {
            let grid: Vec<usize> = s
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("{var} must be a comma-separated integer list"))
                })
                .collect();
            assert!(
                !grid.is_empty() && grid.iter().all(|&v| v > 0),
                "{var} must list positive integers"
            );
            grid
        }
        Err(_) => default.to_vec(),
    }
}

/// Standard experiment banner.
pub fn banner(what: &str, scale: &Scale) {
    println!("== {what} ==");
    println!(
        "   (data scale {:.2}, {} queries per set, seed {})",
        scale.data_scale, scale.num_queries, scale.seed
    );
    println!();
}
