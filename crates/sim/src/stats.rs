//! Streaming and batch statistics used across the reproduction.
//!
//! The paper reports 50% ("average" in its bucket tables), 90% tail, and
//! full CDFs of performance and resource allocations. [`Summary`] provides
//! streaming moments; [`Samples`] retains observations for exact quantiles
//! and CDF extraction. [`quantile_in_place`] is the one exact-quantile rule,
//! also usable on a caller-owned scratch slice.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use aum_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored (and counted
    /// nowhere) so a single degenerate model step cannot poison a report.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 when fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or +inf when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or -inf when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Retained sample set with exact quantiles and CDF extraction.
///
/// # Examples
///
/// ```
/// use aum_sim::stats::Samples;
///
/// let s: Samples = (0..=100).map(f64::from).collect();
/// assert_eq!(s.quantile(0.5), 50.0);
/// assert_eq!(s.quantile(0.9), 90.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    #[must_use]
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation; non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of retained observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(cmp_finite);
            self.sorted = true;
        }
    }

    /// Exact sample quantile with nearest-rank interpolation (see
    /// [`quantile_in_place`]).
    ///
    /// Returns 0 for an empty set.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_in_place(&mut self.values.clone(), q)
    }

    /// Fraction of observations at or below `threshold`.
    #[must_use]
    pub fn fraction_at_most(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let hit = self.values.iter().filter(|&&v| v <= threshold).count();
        hit as f64 / self.values.len() as f64
    }

    /// Extracts `points` evenly spaced CDF points `(value, cumulative_prob)`.
    ///
    /// Returns an empty vector for an empty sample set.
    #[must_use]
    pub fn cdf(&self, points: usize) -> Vec<(f64, f64)> {
        if self.values.is_empty() || points == 0 {
            return Vec::new();
        }
        let mut copy = self.clone();
        copy.ensure_sorted();
        let n = copy.values.len();
        (1..=points)
            .map(|i| {
                let p = i as f64 / points as f64;
                let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
                (copy.values[idx], p)
            })
            .collect()
    }

    /// View of the raw values (unsorted, in insertion order).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Converts to a streaming [`Summary`].
    #[must_use]
    pub fn summary(&self) -> Summary {
        let mut s = Summary::new();
        for &v in &self.values {
            s.record(v);
        }
        s
    }
}

fn cmp_finite(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("finite values are comparable")
}

/// Exact `q`-quantile of `values`, interpolating linearly between the two
/// order statistics around rank `q·(n−1)`. Returns 0 for an empty slice.
///
/// Reorders `values` in place and costs O(n): selection places the lower
/// order statistic, and the minimum of the partition above it is the upper
/// one. Values that compare equal are interchangeable, so the result is
/// bit-identical to interpolating over a sorted copy — except that `-0.0`
/// and `0.0`, which compare equal, may trade places.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or a value is NaN.
#[must_use]
pub fn quantile_in_place(values: &mut [f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if values.is_empty() {
        return 0.0;
    }
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, lower, above) = values.select_nth_unstable_by(lo, cmp_finite);
    if lo == hi {
        *lower
    } else {
        let upper = above
            .iter()
            .copied()
            .min_by(cmp_finite)
            .expect("the upper rank lies above the lower one");
        let frac = pos - lo as f64;
        *lower * (1.0 - frac) + upper * frac
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Samples::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(3.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let mut all = Summary::new();
        let mut a = Summary::new();
        let mut b = Summary::new();
        for i in 0..100 {
            let v = (i as f64).sin() * 10.0;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.record(1.0);
        let before = a.mean();
        a.merge(&Summary::new());
        assert_eq!(a.mean(), before);
        let mut empty = Summary::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), before);
    }

    #[test]
    fn quantiles_interpolate() {
        let s: Samples = (0..=10).map(f64::from).collect();
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 10.0);
        assert_eq!(s.quantile(0.5), 5.0);
        assert!((s.quantile(0.95) - 9.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let s = Samples::new();
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn fraction_at_most_counts() {
        let s: Samples = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.fraction_at_most(2.5), 0.5);
        assert_eq!(s.fraction_at_most(0.0), 0.0);
        assert_eq!(s.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let s: Samples = (0..500).map(|i| ((i * 37) % 100) as f64).collect();
        let cdf = s.cdf(20);
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "values non-decreasing");
            assert!(w[0].1 < w[1].1, "probabilities strictly increasing");
        }
        assert!((cdf.last().expect("non-empty").1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn samples_extend_and_values() {
        let mut s = Samples::new();
        s.extend([3.0, 1.0, 2.0]);
        assert_eq!(s.values(), &[3.0, 1.0, 2.0]);
        assert_eq!(s.len(), 3);
        let summary = s.summary();
        assert_eq!(summary.count(), 3);
        assert!((summary.mean() - 2.0).abs() < 1e-12);
    }
}
