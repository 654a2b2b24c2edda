//! Order statistics used by every workload.
//!
//! Percentiles use the nearest-rank rule on a sorted copy. A tail metric
//! reports the highest of p99, p95 and p90 that still has at least
//! [`MIN_BEYOND`] samples beyond it, so a small sample never claims a tail
//! it cannot support.

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `[0, 1]`;
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of p99/p95/p90 that leaves at least [`MIN_BEYOND`]
/// samples above it, falling back to the median for tiny samples.
pub fn tail_quantile(n: usize) -> f64 {
    // percent beyond each candidate, in whole percent to stay exact
    [(0.99, 1), (0.95, 5), (0.90, 10)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 100 * MIN_BEYOND)
        .map_or(0.5, |(q, _)| q)
}

/// A sample of timings (or any values) with the summaries the report uses.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    values: Vec<f64>,
    sorted: bool,
}

impl Sample {
    pub fn new() -> Self {
        Sample::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    pub fn quantile(&mut self, q: f64) -> f64 {
        self.sort();
        percentile(&self.values, q).unwrap_or(f64::NAN)
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The supported tail (see [`tail_quantile`]) and the quantile used.
    pub fn tail(&mut self) -> (f64, f64) {
        let q = tail_quantile(self.len());
        (self.quantile(q), q)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// A sample split into fixed-width time windows. Its summaries are
/// medians over windows of each window's statistic, so a stall that hits
/// one window (a descheduled vCPU, a noisy neighbour) moves one window's
/// figure, not the run's.
#[derive(Debug, Clone)]
pub struct Windowed {
    width: f64,
    windows: Vec<Sample>,
    all: Sample,
}

impl Windowed {
    /// Windows `width` seconds wide.
    pub fn new(width: f64) -> Self {
        Windowed {
            width,
            windows: Vec::new(),
            all: Sample::new(),
        }
    }

    /// Records `v` observed `t` seconds into the phase.
    pub fn push(&mut self, t: f64, v: f64) {
        let i = (t.max(0.0) / self.width) as usize;
        if self.windows.len() <= i {
            self.windows.resize(i + 1, Sample::new());
        }
        self.windows[i].push(v);
        self.all.push(v);
    }

    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Every value, unwindowed (for means and sums).
    pub fn all(&mut self) -> &mut Sample {
        &mut self.all
    }

    /// Windows holding at least half the median window's count (drops a
    /// ragged last window).
    fn full_windows(&mut self) -> Vec<&mut Sample> {
        let sizes: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| w.len() as f64)
            .collect();
        let typical = median_of(&sizes);
        self.windows
            .iter_mut()
            .filter(|w| !w.is_empty() && w.len() as f64 >= 0.5 * typical)
            .collect()
    }

    /// Median over windows of each window's `q` quantile.
    pub fn quantile(&mut self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .full_windows()
            .into_iter()
            .map(|w| w.quantile(q))
            .collect();
        median_of(&per)
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The windows' supported tail (see [`tail_quantile`], by the typical
    /// window's count) and the quantile used.
    pub fn tail(&mut self) -> (f64, f64) {
        let sizes: Vec<f64> = self.full_windows().iter().map(|w| w.len() as f64).collect();
        let q = tail_quantile(median_of(&sizes) as usize);
        (self.quantile(q), q)
    }

    /// Number of windows the summaries use.
    pub fn windows(&mut self) -> usize {
        self.full_windows().len()
    }
}

/// Median of a small set of repeated measurements.
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Sample::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn sample_summaries() {
        let mut s = Sample::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.sum(), 15.0);
        assert_eq!(s.tail(), (3.0, 0.5));
        assert!(Sample::new().median().is_nan());
    }

    #[test]
    fn windowed_takes_the_median_over_windows() {
        let mut w = Windowed::new(1.0);
        // three full windows; the middle one is hit by a stall
        for (t, base) in [(0.0, 10.0), (1.0, 1000.0), (2.0, 12.0)] {
            for i in 0..100 {
                w.push(t + i as f64 / 100.0, base + i as f64 / 100.0);
            }
        }
        w.push(3.0, 5.0); // ragged last window: ignored by the summaries
        assert_eq!(w.windows(), 3);
        assert_eq!(w.len(), 301);
        // window medians 10.49, 1000.49, 12.49 -> 12.49
        assert!((w.median() - 12.49).abs() < 1e-9);
        // 100 per window supports p90
        assert_eq!(w.tail().1, 0.90);
        assert_eq!(w.all().len(), 301);
        assert!(Windowed::new(1.0).median().is_nan());
    }
}
