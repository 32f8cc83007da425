//! Order statistics over latency samples.
//!
//! A failed or refused operation is recorded as `f64::INFINITY`, so it sorts
//! last and drags every percentile it reaches to +∞ instead of vanishing
//! from the population.

/// Sorted copy (total order; +∞ last, NaN never produced by the harness).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample (the caller reports the count beside it).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => mid(v[n / 2 - 1], v[n / 2]),
    }
}

/// Midpoint that keeps +∞ (∞ + finite) / 2 = ∞ and never yields NaN.
fn mid(a: f64, b: f64) -> f64 {
    if a.is_infinite() || b.is_infinite() {
        f64::INFINITY
    } else {
        (a + b) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 100]; 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(0, n)
}

/// The highest of p99/p95/p90/p75 that leaves at least ten samples beyond
/// it, with its value; `None` when even p75 has fewer (then only the median
/// is reportable).
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| beyond(samples.len(), p) >= 10)
        .map(|p| (p, percentile(samples, p)))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method) — the rule the benchmark's acceptance uses for
/// run-to-run spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (the spread the
/// acceptance rule bounds).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // One failure in three: the median survives, the tail does not.
        let s = [1.0, f64::INFINITY, 2.0];
        assert_eq!(median(&s), 2.0);
        assert!(percentile(&s, 95.0).is_infinite());
        // Half failed: the median itself is +∞, never NaN.
        assert!(median(&[1.0, f64::INFINITY]).is_infinite());
        assert!(median(&[f64::INFINITY, f64::INFINITY]).is_infinite());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(beyond(100, 95.0), 5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mk = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 199 samples: p95 leaves 9 beyond, so p90 is the highest allowed.
        assert_eq!(highest_tail(&mk(199)).unwrap().0, 90.0);
        // 200 samples: exactly ten beyond p95.
        assert_eq!(highest_tail(&mk(200)), Some((95.0, 190.0)));
        assert_eq!(highest_tail(&mk(1000)).unwrap().0, 99.0);
        assert_eq!(highest_tail(&mk(40)).unwrap().0, 75.0);
        assert_eq!(highest_tail(&mk(39)), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((spread(&s) - 1.0).abs() < 1e-12);
    }
}
