//! Exact order statistics over the benchmark's own raw samples.

/// Nearest-rank percentile of nanosecond samples: the smallest sample
/// with at least `q` of the samples at or below it. Always one of the
/// samples, so no percentile can exceed the maximum. 0 when there are no
/// samples.
pub fn percentile_ns(samples: &[u64], q: f64) -> u64 {
    assert!((0.0..=1.0).contains(&q), "percentile rank {q} outside 0..=1");
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of nanosecond samples; 0 when there are none.
pub fn median_ns(samples: &[u64]) -> u64 {
    percentile_ns(samples, 0.5)
}

/// Median (nearest rank) of a few measured values, such as the set-up
/// times of one run or one metric over several runs. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_unstable_by(f64::total_cmp);
    values[values.len().div_ceil(2) - 1]
}

/// What recording spans cost. `samples` are a traced run's primary
/// operations in the order they ran; those at odd positions ran with
/// recording on (`RunConfig::records_unit`). Returns how far their median
/// lies above that of the others, as a share of the latter.
pub fn overhead_share(samples: &[u64]) -> f64 {
    let every_other =
        |from: usize| -> Vec<u64> { samples.iter().skip(from).step_by(2).copied().collect() };
    let (untraced, traced) = (every_other(0), every_other(1));
    let base = median_ns(&untraced) as f64;
    if base == 0.0 || traced.is_empty() {
        return 0.0;
    }
    (median_ns(&traced) as f64 - base) / base
}

/// The highest percentile rank that still has at least ten samples
/// beyond it, or `None` when even the median does not. Reported beside
/// every tail so a p99 over 40 samples is not mistaken for one.
pub fn highest_supported_rank(samples: usize) -> Option<f64> {
    if samples < 20 {
        return None;
    }
    Some((samples - 10) as f64 / samples as f64)
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the driver applies to ten runs of a metric.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_unstable_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread of one metric: quartile distance over the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(&mut values.to_vec());
    (mid != 0.0).then(|| (q3 - q1).abs() / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_samples_and_never_exceed_the_maximum() {
        let v: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(median_ns(&v), 100);
        assert_eq!(percentile_ns(&v, 0.99), 198);
        assert_eq!(percentile_ns(&v, 1.0), 200);
        assert_eq!(percentile_ns(&v, 0.0), 1);
        // The failure the old serving bench had: p99 above max.
        let skewed = [1, 1, 1, 1, 185_930];
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert!(percentile_ns(&skewed, q) <= 185_930);
        }
        assert_eq!(percentile_ns(&[7], 0.99), 7);
        assert_eq!(percentile_ns(&[5, 1, 9], 0.5), 5);
        assert_eq!(median_ns(&[]), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn overhead_compares_alternate_samples() {
        assert_eq!(overhead_share(&[100, 110, 100, 110, 100, 110, 500]), 0.1);
        assert_eq!(overhead_share(&[100, 90]), -0.1);
        assert_eq!(overhead_share(&[100]), 0.0);
        assert_eq!(overhead_share(&[]), 0.0);
    }

    #[test]
    fn highest_rank_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_rank(12), None);
        assert_eq!(highest_supported_rank(20), Some(0.5));
        assert_eq!(highest_supported_rank(1000), Some(0.99));
        let n = 5000;
        let q = highest_supported_rank(n).unwrap();
        let rank = (q * n as f64).ceil() as usize;
        assert_eq!(n - rank, 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), Some((15.0, 120.0)));
        assert_eq!(quartiles(&[3.0]), None);
        let spread = quartile_spread(&[10.0, 20.0, 40.0, 80.0, 160.0]).unwrap();
        assert!((spread - 105.0 / 40.0).abs() < 1e-12);
    }
}
