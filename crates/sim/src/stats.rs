//! Batch statistics used across the reproduction.
//!
//! The paper reports 50% ("average" in its bucket tables), 90% tail, and
//! full CDFs of performance and resource allocations. [`Samples`] retains
//! observations for exact quantiles and CDF extraction.
//! [`quantile_in_place`] is the one exact-quantile rule, also usable on a
//! caller-owned scratch slice; [`RecentWindow`] applies the same rule to a
//! sliding window of durations that it keeps in value order.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

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
    interpolate_rank(values.len(), q, |lo, hi| {
        let (_, lower, above) = values.select_nth_unstable_by(lo, cmp_finite);
        let upper = if hi > lo {
            let upper = above.iter().copied().min_by(cmp_finite);
            upper.expect("the upper rank lies above the lower one")
        } else {
            *lower
        };
        (*lower, upper)
    })
}

/// The newest `window` values of a duration series, as runs of equal
/// values: a decode iteration is one run of `batch` equal token times, a
/// TTFT a run of one.
///
/// A FIFO of `(nanos, count)` runs, oldest first, decides eviction: the
/// oldest run is dropped once the newer runs cover the window, so only its
/// newest values may still lie inside. The same runs are also kept merged
/// by value in ascending order, so a readout walks the ordered values once
/// instead of sorting them. Values enter as nanoseconds and leave through
/// [`SimDuration::as_secs_f64`], which is monotone, so every quantile is
/// bit-identical to [`quantile_in_place`] over the expanded window's
/// seconds, and no NaN can enter.
///
/// # Examples
///
/// ```
/// use aum_sim::stats::RecentWindow;
/// use aum_sim::time::SimDuration;
///
/// let mut w = RecentWindow::new(5);
/// w.push(SimDuration::from_millis(30), 3);
/// w.push(SimDuration::from_millis(10), 3);
/// // The window holds the three 10 ms values and the newest two 30 ms ones.
/// assert_eq!(w.quantiles([0.5, 0.75]), [0.01, 0.03]);
/// ```
#[derive(Debug, Clone)]
pub struct RecentWindow {
    window: usize,
    /// `(nanos, count)` runs, oldest first.
    runs: VecDeque<(u64, usize)>,
    /// Values the runs hold; more than `window` by less than the oldest run.
    values: usize,
    /// The runs merged by value, ascending; every count is positive.
    by_value: Vec<(u64, usize)>,
}

impl RecentWindow {
    /// An empty window over the newest `window` values.
    #[must_use]
    pub fn new(window: usize) -> Self {
        RecentWindow {
            window,
            runs: VecDeque::new(),
            values: 0,
            by_value: Vec::new(),
        }
    }

    /// Appends `count` values equal to `value`, then drops the oldest runs
    /// the newer ones cover.
    pub fn push(&mut self, value: SimDuration, count: usize) {
        if count == 0 {
            return;
        }
        let nanos = value.as_nanos();
        self.runs.push_back((nanos, count));
        self.values += count;
        match self.by_value.binary_search_by_key(&nanos, |r| r.0) {
            Ok(i) => self.by_value[i].1 += count,
            Err(i) => self.by_value.insert(i, (nanos, count)),
        }
        while let Some(&(nanos, oldest)) = self.runs.front() {
            if self.values - oldest < self.window {
                break;
            }
            self.values -= oldest;
            self.runs.pop_front();
            let i = self
                .by_value
                .binary_search_by_key(&nanos, |r| r.0)
                .expect("every run is merged by value");
            self.by_value[i].1 -= oldest;
            if self.by_value[i].1 == 0 {
                self.by_value.remove(i);
            }
        }
    }

    /// Exact `qs`-quantiles of the window's values, in seconds, under the
    /// rule of [`quantile_in_place`]; an empty window gives 0. The order
    /// statistics are found in one walk of the ordered values when `qs`
    /// ascend.
    ///
    /// # Panics
    ///
    /// Panics if a `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let n = self.values.min(self.window);
        // Only the newest values of the oldest run lie inside the window.
        let (oldest, cut) = self.runs.front().map_or((0, 0), |r| (r.0, self.values - n));
        let count = |i: usize| {
            let (nanos, count) = self.by_value[i];
            if nanos == oldest {
                count - cut
            } else {
                count
            }
        };
        let secs = |i: usize| SimDuration::from_nanos(self.by_value[i].0).as_secs_f64();
        // The entry the walk is at, and how many values lie below it.
        let (mut at, mut below) = (0, 0);
        qs.map(|q| {
            interpolate_rank(n, q, |lo, hi| {
                if lo < below {
                    (at, below) = (0, 0);
                }
                while below + count(at) <= lo {
                    below += count(at);
                    at += 1;
                }
                // `hi` is `lo` or `lo + 1`; every entry holds a value.
                let upper = if hi < below + count(at) { at } else { at + 1 };
                (secs(at), secs(upper))
            })
        })
    }
}

/// The rule both exact quantiles share: the rank `q·(n−1)` falls between
/// order statistics `lo` and `hi` (equal when it is whole), which
/// `order_stats` returns, and the result is `lower·(1−frac) + upper·frac`.
/// Returns 0 when `n` is 0.
fn interpolate_rank(n: usize, q: f64, order_stats: impl FnOnce(usize, usize) -> (f64, f64)) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if n == 0 {
        return 0.0;
    }
    let pos = q * (n - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let (lower, upper) = order_stats(lo, hi);
    if lo == hi {
        return lower;
    }
    let frac = pos - lo as f64;
    lower * (1.0 - frac) + upper * frac
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
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }
}
