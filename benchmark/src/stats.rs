//! Order statistics for the benchmark's reports: medians, quartiles and
//! the tail-percentile picker.

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted `f64` sample (mean of the two middle values for
/// an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, by the exclusive method — the same numbers
/// as Python's `statistics.quantiles(values, n=4)`, which the acceptance
/// protocol uses. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks; like Python, a position
        // outside the sample extrapolates from the nearest pair.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// The highest of p99 / p95 / p90 that leaves at least ten samples beyond
/// it, for a sample of `n`; `None` when even p90 does not (n < 100).
///
/// Each workload's tail percentile is a constant chosen with this rule
/// from the sample count its op list produces — never at run time, so
/// two runs always report the same percentile.
pub fn supported_tail(n: usize) -> Option<u32> {
    [99u32, 95, 90]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - ((p as f64 / 100.0) * n as f64).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90));
        assert_eq!(supported_tail(199), Some(90));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(999), Some(95));
        assert_eq!(supported_tail(1000), Some(99));
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(1001, 99), 10);
        assert_eq!(samples_beyond(100, 90), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[7u64], 90.0), 7);
    }

    #[test]
    fn median_and_quartiles_match_python_exclusive() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }
}
