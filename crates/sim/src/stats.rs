//! Measurement primitives.
//!
//! Two accumulators cover everything the harness records:
//!
//! * [`OnlineStats`] — streaming count/mean/min/max, O(1) memory, used
//!   for per-request latencies and lock hold times.
//! * [`SampleSet`] — keeps the raw samples for percentile queries
//!   (p50/p95/p99) where the tail matters.

/// Streaming mean/min/max accumulator (Welford's running mean).
///
/// # Examples
///
/// ```
/// use aql_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.add(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert_eq!(s.max(), Some(9.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// A sample container with percentile queries.
///
/// Stores every sample; queries sort lazily (cached until the next
/// insertion). Suitable for the request-count scales this simulator
/// produces (at most a few million samples per run).
///
/// NaN samples are tolerated, counted ([`SampleSet::nan_count`]) and
/// sorted to the tail via [`f64::total_cmp`] — a corrupted sample must
/// surface as a flagged summary, never as a panic in the reporting
/// path.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
    nans: u64,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
            sorted: true,
            nans: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            self.nans += 1;
        }
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of NaN samples recorded so far.
    pub fn nan_count(&self) -> u64 {
        self.nans
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp gives a total order with NaNs at the extremes
            // (positive NaN sorts last), so percentile queries stay
            // well-defined — and panic-free — on corrupted data.
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`. `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.samples.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.samples.len() - 1);
        Some(self.samples[idx])
    }

    /// Median (p50).
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_single() {
        let mut s = OnlineStats::new();
        s.add(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn sample_set_percentiles() {
        let mut s = SampleSet::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert_eq!(s.p50(), Some(50.0));
        assert_eq!(s.p95(), Some(95.0));
        assert_eq!(s.p99(), Some(99.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
    }

    #[test]
    fn sample_set_unsorted_insertion() {
        let mut s = SampleSet::new();
        for x in [5.0, 1.0, 9.0, 3.0] {
            s.add(x);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        s.add(0.5);
        assert_eq!(s.quantile(0.0), Some(0.5));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn sample_set_tolerates_nan_samples() {
        let mut s = SampleSet::new();
        for x in [3.0, f64::NAN, 1.0, 2.0] {
            s.add(x);
        }
        // No panic: NaN sorts to the tail under total_cmp.
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.p50(), Some(2.0));
        assert!(s.quantile(1.0).unwrap().is_nan());
        assert_eq!(s.nan_count(), 1);
        let clean = SampleSet::new();
        assert_eq!(clean.nan_count(), 0);
    }

    #[test]
    fn sample_set_empty() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.p50(), None);
        assert_eq!(s.mean(), 0.0);
    }
}
