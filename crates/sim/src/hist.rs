//! Mergeable log-linear latency histograms (HDR-style).
//!
//! [`LogHistogram`] buckets positive values on a log-linear grid: powers
//! of two define octaves and each octave splits into [`SUB_BUCKETS`]
//! equal-width linear buckets, so the relative bucket width never exceeds
//! `1/SUB_BUCKETS` (≈ 0.78 %). The boundaries are *fixed* — independent of
//! the data — which makes two histograms mergeable by element-wise count
//! addition: `merge(a, b)` has exactly the bucket counts of histogramming
//! `a ∪ b`, no matter how observations were split across workers. Folding
//! per-cell histograms in a fixed cell order (Fig 14's grid-wide latency
//! line) therefore keeps quantile readouts byte-identical at every worker
//! count.
//!
//! The covered range is `[2^-20, 2^12)` seconds (≈ 1 µs to ≈ 68 min);
//! values below it (including zero and negatives) land in an underflow
//! bucket, values at or above it in an overflow bucket. Non-finite values
//! are ignored entirely, matching [`crate::stats::Samples`].

use serde::{content_get, Content, DeError, Deserialize, Serialize};

/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 128;

/// Exponent of the smallest bucketed value: `2^MIN_EXP` seconds.
pub const MIN_EXP: i32 = -20;

/// Exponent one past the largest bucketed value: values `≥ 2^MAX_EXP`
/// overflow.
pub const MAX_EXP: i32 = 12;

/// Number of octaves covered.
pub const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;

/// Total bucket count of the fixed grid.
pub const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// Exact power of two as an `f64`, via bit construction (no libm rounding).
fn pow2(exp: i32) -> f64 {
    f64::from_bits(((1023 + exp) as u64) << 52)
}

/// The smallest bucketed value, `2^MIN_EXP`.
#[must_use]
pub fn min_value() -> f64 {
    pow2(MIN_EXP)
}

/// One past the largest bucketed value, `2^MAX_EXP`.
#[must_use]
pub fn max_value() -> f64 {
    pow2(MAX_EXP)
}

/// A mergeable log-linear histogram with fixed bucket boundaries.
///
/// Equality compares the full bucket state (counts, under/overflow, total
/// count and sum), so `assert_eq!` on two histograms — or on structs
/// embedding them, such as SLO reports — pins byte-level state identity.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Dense bucket counts, `BUCKETS` entries (serialized sparsely).
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// The fixed bucket index of an in-range value.
    fn index(v: f64) -> usize {
        debug_assert!(v >= min_value() && v < max_value());
        // Exponent straight from the bit pattern: exact and deterministic
        // (v is normal here because min_value() is far above subnormals).
        let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        let octave = (exp - MIN_EXP) as usize;
        // v / 2^exp ∈ [1, 2): the linear position within the octave.
        let frac = v * pow2(-exp) - 1.0;
        let sub = ((frac * SUB_BUCKETS as f64) as usize).min(SUB_BUCKETS - 1);
        octave * SUB_BUCKETS + sub
    }

    /// Lower and upper boundary of a bucket index.
    #[must_use]
    pub fn bucket_bounds(idx: usize) -> (f64, f64) {
        assert!(idx < BUCKETS, "bucket index {idx} out of range");
        let octave = idx / SUB_BUCKETS;
        let sub = idx % SUB_BUCKETS;
        let base = pow2(MIN_EXP + octave as i32);
        let step = base / SUB_BUCKETS as f64;
        let lo = base + step * sub as f64;
        (lo, lo + step)
    }

    /// Records one observation. Non-finite values are ignored; values
    /// outside the fixed range clamp into the under/overflow buckets (but
    /// still contribute to `count` and `sum`).
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v`, leaving the state `n` calls of
    /// [`record`](Self::record) leave: the bucket is found and incremented
    /// once, and `v` joins the sum once per observation, so the float sum
    /// rounds as it would.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if !v.is_finite() || n == 0 {
            return;
        }
        self.count += n;
        for _ in 0..n {
            self.sum += v;
        }
        if v < min_value() {
            self.underflow += n;
        } else if v >= max_value() {
            self.overflow += n;
        } else {
            self.counts[Self::index(v)] += n;
        }
    }

    /// Merges another histogram into this one by element-wise count
    /// addition. Bucket state after the merge equals histogramming the
    /// union of both observation sets; `sum` is the f64 sum of both sums
    /// (deterministic for a fixed merge order).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded observations (for Prometheus `_sum`).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded observations; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Observations below the bucketed range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the bucketed range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Quantile estimate, `q ∈ [0, 1]`, interpolated within the covering
    /// bucket — within one bucket width of the exact order statistic.
    /// Returns 0 when empty; underflowed ranks report 0 and overflowed
    /// ranks report the range ceiling.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantiles([q])[0]
    }

    /// [`quantile`](Self::quantile) of each of `qs`, in one walk of the
    /// grid when they ascend: each readout resumes where the last one
    /// stopped, and restarts only when its rank lies below it. The walk
    /// adds the same counts in the same order whichever readout reaches a
    /// bucket, so each result has the bits of its single readout.
    #[must_use]
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        // The bucket the walk is at, and how many values lie below it.
        let (mut at, mut before) = (0, self.underflow as f64);
        qs.map(|q| {
            if self.count == 0 {
                return 0.0;
            }
            let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
            if rank < before {
                (at, before) = (0, self.underflow as f64);
                if rank < before {
                    return 0.0;
                }
            }
            while let Some(&c) = self.counts.get(at) {
                if c > 0 {
                    let after = before + c as f64;
                    if rank < after {
                        let (lo, hi) = Self::bucket_bounds(at);
                        let frac = ((rank - before + 1.0) / c as f64).clamp(0.0, 1.0);
                        return lo + (hi - lo) * frac;
                    }
                    before = after;
                }
                at += 1;
            }
            max_value()
        })
    }
}

impl FromIterator<f64> for LogHistogram {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut h = LogHistogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

// Sparse serialization: only non-empty buckets ship, as `[index, count]`
// pairs, so a histogram embedded in an outcome adds bytes proportional to
// its occupancy rather than the 4096-bucket grid.
impl Serialize for LogHistogram {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (
                "buckets".to_owned(),
                Content::Seq(
                    self.nonzero_buckets()
                        .map(|(i, c)| Content::Seq(vec![Content::U64(i as u64), Content::U64(c)]))
                        .collect(),
                ),
            ),
            ("underflow".to_owned(), Content::U64(self.underflow)),
            ("overflow".to_owned(), Content::U64(self.overflow)),
            ("count".to_owned(), Content::U64(self.count)),
            ("sum".to_owned(), self.sum.to_content()),
        ])
    }
}

impl Deserialize for LogHistogram {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = content
            .as_map()
            .ok_or_else(|| DeError::expected("map", "LogHistogram", content))?;
        let field = |name: &str| {
            content_get(entries, name).ok_or_else(|| DeError::missing_field("LogHistogram", name))
        };
        let mut h = LogHistogram::new();
        let pairs: Vec<(u64, u64)> = Deserialize::from_content(field("buckets")?)?;
        for (idx, c) in pairs {
            let idx = usize::try_from(idx)
                .ok()
                .filter(|&i| i < BUCKETS)
                .ok_or_else(|| DeError::custom(format!("bucket index {idx} out of range")))?;
            h.counts[idx] = c;
        }
        h.underflow = Deserialize::from_content(field("underflow")?)?;
        h.overflow = Deserialize::from_content(field("overflow")?)?;
        h.count = Deserialize::from_content(field("count")?)?;
        h.sum = Deserialize::from_content(field("sum")?)?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.999), 0.0);
    }

    #[test]
    fn single_value_lands_within_its_bucket() {
        for v in [1e-5, 0.003, 0.5, 0.901, 7.3, 1000.0] {
            let mut h = LogHistogram::new();
            h.record(v);
            let q = h.quantile(0.5);
            let (lo, hi) = LogHistogram::bucket_bounds(LogHistogram::index(v));
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            assert!(
                q >= lo && q <= hi,
                "quantile {q} outside bucket [{lo}, {hi}]"
            );
            assert!((q - v).abs() / v <= 1.0 / SUB_BUCKETS as f64 + 1e-12);
        }
    }

    #[test]
    fn bucket_boundaries_tile_the_range() {
        let mut prev_hi = min_value();
        for idx in 0..BUCKETS {
            let (lo, hi) = LogHistogram::bucket_bounds(idx);
            assert_eq!(lo, prev_hi, "gap before bucket {idx}");
            assert!(hi > lo);
            prev_hi = hi;
        }
        assert_eq!(prev_hi, max_value());
    }

    #[test]
    fn out_of_range_values_clamp_not_panic() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(1e-9);
        h.record(1e9);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 4);
        assert_eq!(h.underflow(), 3);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), max_value());
    }

    #[test]
    fn merge_equals_union_bucket_for_bucket() {
        let a_vals = [0.01, 0.5, 0.5, 3.0, 1e-9];
        let b_vals = [0.02, 0.5, 80.0, 1e9];
        let a: LogHistogram = a_vals.iter().copied().collect();
        let b: LogHistogram = b_vals.iter().copied().collect();
        let mut merged = a.clone();
        merged.merge(&b);
        let union: LogHistogram = a_vals.iter().chain(&b_vals).copied().collect();
        assert_eq!(
            merged.nonzero_buckets().collect::<Vec<_>>(),
            union.nonzero_buckets().collect::<Vec<_>>()
        );
        assert_eq!(merged.count(), union.count());
        assert_eq!(merged.underflow(), union.underflow());
        assert_eq!(merged.overflow(), union.overflow());
        assert!((merged.sum() - union.sum()).abs() < 1e-9);
    }

    /// The single-q walk `quantiles` must agree with: from the underflow
    /// up, bucket by bucket.
    fn walked_quantile(h: &LogHistogram, q: f64) -> f64 {
        if h.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (h.count - 1) as f64;
        let mut before = h.underflow as f64;
        if rank < before {
            return 0.0;
        }
        for (idx, &c) in h.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let after = before + c as f64;
            if rank < after {
                let (lo, hi) = LogHistogram::bucket_bounds(idx);
                return lo + (hi - lo) * ((rank - before + 1.0) / c as f64).clamp(0.0, 1.0);
            }
            before = after;
        }
        max_value()
    }

    #[test]
    fn quantiles_read_each_q_bit_for_bit() {
        let spread: LogHistogram = (1..2000)
            .map(|i| f64::from(i).powf(1.7) * 1e-5)
            .chain([0.0, -1.0, 1e-9, 1e4, 1e5])
            .collect();
        let sparse: LogHistogram = [0.25, 0.25, 0.25, 3.0].into_iter().collect();
        let only_overflow: LogHistogram = [5e3, 6e3].into_iter().collect();
        let qs = [
            [0.5, 0.9, 0.99, 1.0],
            [0.0, 0.001, 0.5, 0.5],
            [0.99, 0.5, 0.9, 0.0],
            [1.0, 0.0, 1.0, 0.25],
        ];
        for h in [&LogHistogram::new(), &spread, &sparse, &only_overflow] {
            for qs in qs {
                let got = h.quantiles(qs).map(f64::to_bits);
                assert_eq!(got, qs.map(|q| walked_quantile(h, q).to_bits()), "{qs:?}");
                assert_eq!(got, qs.map(|q| h.quantile(q).to_bits()), "{qs:?}");
            }
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h: LogHistogram = (1..500).map(|i| f64::from(i) * 0.003).collect();
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = h.quantile(f64::from(i) / 100.0);
            assert!(q >= last, "quantile not monotone at q={i}%");
            last = q;
        }
    }

    #[test]
    fn serde_round_trips_sparsely() {
        let h: LogHistogram = [0.01, 0.5, 0.5, 3.0, 0.0, 1e9].iter().copied().collect();
        let json = serde_json::to_string(&h).expect("serializes");
        // Sparse: far fewer entries than the 4096-bucket grid.
        assert!(json.len() < 400, "expected sparse encoding, got {json}");
        let back: LogHistogram = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, h);
    }

    #[test]
    fn percentile_readout_is_ordered() {
        let h: LogHistogram = (1..=1000).map(|i| f64::from(i) * 1e-3).collect();
        let [p50, p90, p99, p999] = [0.5, 0.9, 0.99, 0.999].map(|q| h.quantile(q));
        assert!(p50 < p90 && p90 < p99 && p99 <= p999);
        assert!((p50 - 0.5).abs() < 0.01, "p50 {p50}");
        assert!((p90 - 0.9).abs() < 0.01, "p90 {p90}");
        assert!((p99 - 0.99).abs() < 0.01, "p99 {p99}");
    }
}
