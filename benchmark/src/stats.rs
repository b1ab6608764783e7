//! Order statistics over small samples: the median of passes, the
//! nearest-rank percentile, and the "ten samples beyond" rule that says
//! which percentile a sample supports.

/// Median (mean of the two middle values for an even count). `NaN` for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples (the
/// epsilon keeps `95% of 300` at 285 despite binary fractions).
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of the usual percentiles that leaves at least ten
/// samples beyond it; `None` below forty samples, where only the
/// median means anything.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// `max / min - 1` over the passes: the spread a median hides.
pub fn spread(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() || min <= 0.0 {
        return f64::NAN;
    }
    max / min - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_passes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 150.0);
        assert_eq!(percentile(&v, 95.0), 285.0);
        assert_eq!(percentile(&v, 100.0), 300.0);
        // Three commands: the "p95" is the slowest one.
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 95.0), 9.0);
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 50.0), 4.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(300, 95.0), 15);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(3, 95.0), 0);
        assert_eq!(highest_supported_percentile(300), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn spread_is_max_over_min() {
        assert!((spread(&[2.0, 2.2, 2.1]) - 0.1).abs() < 1e-12);
        assert!(spread(&[]).is_nan());
    }
}
