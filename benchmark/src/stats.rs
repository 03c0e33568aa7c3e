//! Summary statistics over raw sample vectors.
//!
//! Percentiles are taken by nearest rank from the samples themselves, never
//! from a bucketed histogram: `telemetry::Histogram` buckets above 4096 µs
//! are up to 6.25% wide, too coarse to tell a regression from noise.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample `v`
/// such that at least `ceil(p / 100 · n)` samples are `<= v`.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
#[must_use]
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `samples` ascending.
#[must_use]
pub fn sorted<T: Copy + Ord>(samples: &[T]) -> Vec<T> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.5), 1);
        // Rank ceil(0.5 · 5) = 3 → third smallest.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), 30);
        // p99 of 10 samples is the maximum: ceil(9.9) = 10.
        let ten: Vec<u64> = (0..10).collect();
        assert_eq!(percentile(&ten, 99.0), 9);
        assert_eq!(percentile(&[7u64], 1.0), 7);
    }

    #[test]
    fn nearest_rank_never_interpolates() {
        // Between-sample percentiles return a sample, not a blend.
        let v = sorted(&[3u64, 1, 1000, 2]);
        assert_eq!(percentile(&v, 60.0), 3);
        assert_eq!(percentile(&v, 76.0), 1000);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
