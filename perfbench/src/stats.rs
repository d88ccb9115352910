//! Order statistics with the benchmark's sample-count rule.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of `sorted` by the nearest-rank rule,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Samples needed before the `q`-quantile may be reported.
pub fn samples_needed(q: f64) -> usize {
    // n - ceil(q n) >= MIN_BEYOND  <=>  n (1 - q) >= MIN_BEYOND (for the
    // integer n this loop finds).
    let mut n = MIN_BEYOND;
    while n - ((q * n as f64).ceil() as usize).clamp(1, n) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// Sorts a sample set in place (NaN-free by construction: every sample
/// is a measured duration).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The median of an unsorted sample set (mean of the middle pair for
/// an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(quantile(&ramp(999), 0.99), None);
        // 1000 samples: rank 990, exactly ten beyond it.
        assert_eq!(quantile(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(quantile(&ramp(19), 0.5), None);
        assert_eq!(quantile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn empty_sets_report_nothing() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
