//! Deterministic random-number streams.
//!
//! Every stochastic component of the reproduction (request arrivals, length
//! sampling, interference jitter) draws from a [`DetRng`] derived from a
//! single experiment seed. Sub-streams are derived by hashing a textual
//! label, so adding a new consumer never perturbs the draws seen by existing
//! ones — a property the determinism integration tests rely on.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A labelled deterministic random stream.
///
/// # Examples
///
/// ```
/// use aum_sim::rng::DetRng;
///
/// let mut a = DetRng::from_seed(7).stream("arrivals");
/// let mut b = DetRng::from_seed(7).stream("arrivals");
/// assert_eq!(a.next_f64(), b.next_f64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
    seed: u64,
}

/// 64-bit FNV-1a, used to fold stream labels into the seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl DetRng {
    /// Creates the root stream for an experiment seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derives an independent sub-stream identified by `label`.
    ///
    /// Derivation depends only on the root seed and the label, not on how
    /// many values have been drawn from `self`.
    #[must_use]
    pub fn stream(&self, label: &str) -> DetRng {
        let sub = self.seed ^ fnv1a(label.as_bytes()).rotate_left(17);
        DetRng::from_seed(sub)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid uniform bounds [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Exponentially distributed draw with the given mean (inter-arrival
    /// sampling for Poisson processes).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Standard normal draw via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal draw parameterized directly by the desired mean and
    /// coefficient of variation of the *output* distribution. Used for
    /// request length sampling where the paper reports only trace means.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `cv < 0`.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        assert!(mean > 0.0, "lognormal mean must be positive, got {mean}");
        assert!(cv >= 0.0, "lognormal cv must be non-negative, got {cv}");
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        let z = self.normal(0.0, 1.0);
        (mu + sigma2.sqrt() * z).exp()
    }

    /// Bernoulli draw.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::from_seed(123);
        let mut b = DetRng::from_seed(123);
        for _ in 0..64 {
            assert_eq!(a.next_f64().to_bits(), b.next_f64().to_bits());
        }
    }

    #[test]
    fn different_labels_differ() {
        let root = DetRng::from_seed(9);
        let mut x = root.stream("x");
        let mut y = root.stream("y");
        let same = (0..16).filter(|_| x.next_f64() == y.next_f64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn stream_derivation_ignores_consumption() {
        let mut root = DetRng::from_seed(42);
        let before = root.stream("sub");
        let _ = root.next_f64();
        let mut after = root.stream("sub");
        let mut before = before;
        assert_eq!(before.next_f64().to_bits(), after.next_f64().to_bits());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::from_seed(5);
        let n = 50_000;
        let mean = 4.0;
        let total: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = total / f64::from(n);
        assert!((observed - mean).abs() < 0.1, "observed mean {observed}");
    }

    #[test]
    fn lognormal_matches_requested_mean() {
        let mut r = DetRng::from_seed(6);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| r.lognormal_mean_cv(755.0, 0.8)).sum();
        let observed = total / f64::from(n);
        assert!(
            (observed - 755.0).abs() / 755.0 < 0.05,
            "observed mean {observed} should be within 5% of 755"
        );
    }

    #[test]
    fn lognormal_zero_cv_is_degenerate() {
        let mut r = DetRng::from_seed(1);
        assert_eq!(r.lognormal_mean_cv(200.0, 0.0), 200.0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = DetRng::from_seed(2);
        for _ in 0..1000 {
            let v = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::from_seed(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "exponential mean must be positive")]
    fn exponential_rejects_bad_mean() {
        DetRng::from_seed(0).exponential(0.0);
    }
}
