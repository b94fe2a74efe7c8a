//! Output prices for the weighted efficiency objective.
//!
//! The paper normalizes application performance in the three regions with
//! prices α (high-AU prefill tokens), β (low-AU decode tokens) and γ (one
//! shared-application query), chosen from the CPU time each output costs on
//! the evaluated platform (§VII-A1): α = 1.8, β = 0.2, and γ = 1e-3 /
//! 1e-6 / 3e-5 for Compute / OLAP / SPECjbb (carried by
//! [`aum_workloads::be::BeProfile::unit_price`]).

use serde::{Deserialize, Serialize};

use aum_workloads::be::{BeKind, BeProfile};

/// Price vector of the efficiency objective.
///
/// # Examples
///
/// ```
/// use aum::prices::Prices;
///
/// let p = Prices::paper_default();
/// assert_eq!(p.alpha, 1.8);
/// assert_eq!(p.beta, 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prices {
    /// Price of one prefill token (`α`).
    pub alpha: f64,
    /// Price of one decode token (`β`).
    pub beta: f64,
}

impl Prices {
    /// The paper's default 1.8 / 0.2 setting.
    #[must_use]
    pub fn paper_default() -> Self {
        Prices {
            alpha: 1.8,
            beta: 0.2,
        }
    }

    /// The sensitivity-study setting where token prices halve (§VII-D).
    #[must_use]
    pub fn cheap_tokens() -> Self {
        Prices {
            alpha: 0.9,
            beta: 0.1,
        }
    }

    /// Creates a price vector.
    ///
    /// # Panics
    ///
    /// Panics if a price is not positive and finite ([`Prices::validate`]).
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        let prices = Prices { alpha, beta };
        if let Err(e) = prices.validate() {
            panic!("{e}");
        }
        prices
    }

    /// Checks that both prices are positive and finite. A JSON `null`
    /// decodes to NaN, which fails too.
    ///
    /// # Errors
    ///
    /// The first unusable price, described by name.
    pub fn validate(&self) -> Result<(), String> {
        match [("alpha", self.alpha), ("beta", self.beta)]
            .into_iter()
            .find(|(_, v)| !(v.is_finite() && *v > 0.0))
        {
            Some((field, v)) => Err(format!("{field} must be positive and finite, got {v}")),
            None => Ok(()),
        }
    }

    /// Price `γ` of one query of the given co-runner.
    #[must_use]
    pub fn gamma(be: BeKind) -> f64 {
        BeProfile::of(be).unit_price
    }
}

impl Default for Prices {
    fn default() -> Self {
        Prices::paper_default()
    }
}

/// The paper's CPU performance-per-watt efficiency (Algorithm 1 line 4):
/// `E_CPU = (α·P_H + β·P_L + γ·P_N) / W_CPU`.
///
/// `p_h`/`p_l` are prefill/decode tokens per second, `p_n` is the shared
/// application's throughput (0 when running exclusively), `power_w` the
/// average package power.
///
/// # Panics
///
/// Panics if `power_w` is not positive.
#[must_use]
pub fn e_cpu(prices: Prices, p_h: f64, p_l: f64, gamma: f64, p_n: f64, power_w: f64) -> f64 {
    assert!(power_w > 0.0, "power must be positive, got {power_w}");
    (prices.alpha * p_h + prices.beta * p_l + gamma * p_n) / power_w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_prices_match_paper() {
        let p = Prices::default();
        assert_eq!(p.alpha, 1.8);
        assert_eq!(p.beta, 0.2);
        assert_eq!(Prices::cheap_tokens().alpha, 0.9);
    }

    #[test]
    fn gammas_match_section_7a1() {
        assert_eq!(Prices::gamma(BeKind::Compute), 1e-3);
        assert_eq!(Prices::gamma(BeKind::Olap), 1e-6);
        assert_eq!(Prices::gamma(BeKind::SpecJbb), 3e-5);
    }

    #[test]
    fn e_cpu_is_weighted_sum_over_power() {
        let e = e_cpu(
            Prices::paper_default(),
            500.0,
            140.0,
            3e-5,
            800_000.0,
            270.0,
        );
        let expect = (1.8 * 500.0 + 0.2 * 140.0 + 3e-5 * 800_000.0) / 270.0;
        assert!((e - expect).abs() < 1e-12);
    }

    #[test]
    fn sharing_value_is_modest_relative_to_serving() {
        // With paper prices, a fully-loaded BE region adds a few percent of
        // the serving value — the Fig 14 gains are in the 4-9% range, not
        // multiples.
        let serving = 1.8 * 500.0 + 0.2 * 140.0;
        let sharing = Prices::gamma(BeKind::SpecJbb)
            * (BeProfile::of(BeKind::SpecJbb).base_rate_per_core * 24.0);
        assert!(
            sharing / serving < 0.15,
            "sharing/serving value ratio {}",
            sharing / serving
        );
        assert!(sharing / serving > 0.01);
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn zero_power_rejected() {
        let _ = e_cpu(Prices::paper_default(), 1.0, 1.0, 1.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn bad_alpha_rejected() {
        let _ = Prices::new(0.0, 0.2);
    }
}
