//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! "ten samples beyond the tail percentile" rule, and median/min/max over
//! the timed windows of one run.

/// Nearest-rank (ceiling) percentile of an ascending-sorted sample:
/// the smallest value with at least `p` percent of the sample at or below
/// it.
///
/// # Panics
/// On an empty sample.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The tail percentile every latency metric uses.
pub const TAIL: f64 = 99.0;
/// A tail percentile is only reported with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support reporting [`TAIL`].
pub fn tail_supported(n: usize) -> bool {
    samples_beyond(n, TAIL) >= MIN_BEYOND
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count).
///
/// # Panics
/// On an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// One reported number: the median of the per-window (or per-repetition)
/// values, with the extremes kept as the benchmark's own spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises per-window values.
    ///
    /// # Panics
    /// On an empty sample.
    pub fn of(values: &[f64]) -> Self {
        Self {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// A value measured once (or exactly repeatable): no spread.
    pub fn exact(value: f64) -> Self {
        Self {
            median: value,
            min: value,
            max: value,
        }
    }

    /// `(max - min) / median`: the spread `--compare` holds against a
    /// metric's bound.
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.max - self.min) / self.median.abs()
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
        assert_eq!(percentile(&v, 0.0), 1);
        // Ceiling rank: p99 of 150 samples is the 149th, not the 148th.
        let w: Vec<u64> = (1..=150).collect();
        assert_eq!(percentile(&w, 99.0), 149);
        assert_eq!(percentile(&[7u64], 99.0), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(tail_supported(1000));
        assert!(!tail_supported(999));
        assert_eq!(samples_beyond(100, 99.0), 1);
    }

    #[test]
    fn median_of_windows_keeps_extremes() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 4.0]);
        assert_eq!(
            s,
            Summary {
                median: 4.0,
                min: 1.0,
                max: 9.0
            }
        );
        assert_eq!(median(&[2.0, 4.0]), 3.0);
        assert_eq!(s.rel_spread(), 2.0);
        assert_eq!(Summary::exact(3.0).rel_spread(), 0.0);
    }
}
