//! Workload scenarios and request-trace generation.
//!
//! Table IV of the paper defines three AU usage scenarios with their
//! datasets, SLOs and average lengths:
//!
//! | App | Dataset    | d_TTFT | d_TPOT | input | output |
//! |-----|------------|--------|--------|-------|--------|
//! | cb  | ShareGPT   | 250 ms | 100 ms | 755   | 200    |
//! | cc  | HumanEval  | 75 ms  | 150 ms | 171   | 98     |
//! | sm  | LongBench  | 1.5 s  | 100 ms | 1738  | 91     |
//!
//! We do not ship the proprietary traces; instead a seeded generator draws
//! Poisson arrivals and log-normal lengths matching the table's means
//! (coefficient of variation 0.5, clamped to sane ranges). AUM consumes
//! only arrival/length statistics and SLOs, so this preserves the relevant
//! behaviour (DESIGN.md substitution table).

use serde::{Deserialize, Serialize};

use aum_sim::rng::DetRng;
use aum_sim::time::{SimDuration, SimTime};

use crate::request::Request;
use crate::slo::SloSpec;

/// The three evaluated AU usage scenarios (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// ChatGPT-like chatbot on ShareGPT.
    Chatbot,
    /// Cursor-like code completion on HumanEval.
    CodeCompletion,
    /// Summarization on LongBench.
    Summarization,
}

impl Scenario {
    /// All scenarios in the paper's order.
    pub const ALL: [Scenario; 3] = [
        Scenario::Chatbot,
        Scenario::CodeCompletion,
        Scenario::Summarization,
    ];

    /// Paper's short code (`cb`/`cc`/`sm`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Scenario::Chatbot => "cb",
            Scenario::CodeCompletion => "cc",
            Scenario::Summarization => "sm",
        }
    }

    /// Table IV SLOs.
    #[must_use]
    pub fn slo(self) -> SloSpec {
        match self {
            Scenario::Chatbot => {
                SloSpec::new(SimDuration::from_millis(250), SimDuration::from_millis(100))
            }
            Scenario::CodeCompletion => {
                SloSpec::new(SimDuration::from_millis(75), SimDuration::from_millis(150))
            }
            Scenario::Summarization => SloSpec::new(
                SimDuration::from_millis(1500),
                SimDuration::from_millis(100),
            ),
        }
    }

    /// Table IV mean input length.
    #[must_use]
    pub fn mean_input(self) -> usize {
        match self {
            Scenario::Chatbot => 755,
            Scenario::CodeCompletion => 171,
            Scenario::Summarization => 1738,
        }
    }

    /// Table IV mean output length.
    #[must_use]
    pub fn mean_output(self) -> usize {
        match self {
            Scenario::Chatbot => 200,
            Scenario::CodeCompletion => 98,
            Scenario::Summarization => 91,
        }
    }

    /// Default request rate (req/s) used by the evaluation harness: chosen
    /// so exclusive llama2-7b serving on GenA runs at ≈75-80% of its decode
    /// capacity, matching the "serving under load with slack" regime the
    /// paper evaluates.
    #[must_use]
    pub fn default_rate(self) -> f64 {
        match self {
            Scenario::Chatbot => 0.4,
            Scenario::CodeCompletion => 1.6,
            Scenario::Summarization => 0.6,
        }
    }
}

impl core::fmt::Display for Scenario {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Coefficient of variation of the length distributions.
const LENGTH_CV: f64 = 0.5;

/// Time profile of the offered request rate. User-facing LLM serving has
/// "inherently variable" arrival rates (§IV-A3); the paper's frameworks
/// absorb them through continuous batching, and AUM adapts its
/// configurations at runtime. The diurnal profile exercises exactly that
/// adaptation path.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum RateProfile {
    /// Constant offered rate.
    #[default]
    Constant,
    /// Sinusoidal swing around the base rate: `rate·(1 + amplitude·sin)`.
    Diurnal {
        /// Relative swing in `[0, 1)`.
        amplitude: f64,
        /// Period of one swing, seconds.
        period_secs: f64,
    },
    /// A step change: `rate` until `at_secs`, then `rate × factor`.
    Step {
        /// When the step happens, seconds.
        at_secs: f64,
        /// Rate multiplier after the step.
        factor: f64,
    },
}

impl RateProfile {
    /// Instantaneous rate multiplier at time `t` (always positive).
    #[must_use]
    pub fn multiplier(&self, t_secs: f64) -> f64 {
        match *self {
            RateProfile::Constant => 1.0,
            RateProfile::Diurnal {
                amplitude,
                period_secs,
            } => {
                let a = amplitude.clamp(0.0, 0.95);
                1.0 + a * (std::f64::consts::TAU * t_secs / period_secs.max(1e-9)).sin()
            }
            RateProfile::Step { at_secs, factor } => {
                if t_secs < at_secs {
                    1.0
                } else {
                    factor.max(1e-3)
                }
            }
        }
    }

    /// An upper bound of [`multiplier`](Self::multiplier) at every time:
    /// the rate a generator thins from.
    #[must_use]
    pub fn peak_multiplier(&self) -> f64 {
        match *self {
            RateProfile::Constant => 1.0,
            RateProfile::Diurnal { amplitude, .. } => 1.0 + amplitude.clamp(0.0, 0.95),
            RateProfile::Step { factor, .. } => factor.max(1e-3).max(1.0),
        }
    }
}

/// Seeded request-trace generator for a scenario.
///
/// # Examples
///
/// ```
/// use aum_llm::traces::{Scenario, TraceGenerator};
/// use aum_sim::rng::DetRng;
/// use aum_sim::time::SimDuration;
///
/// let rng = DetRng::from_seed(7);
/// let trace = TraceGenerator::new(Scenario::Chatbot, 1.0)
///     .generate(&rng, SimDuration::from_secs(60));
/// assert!(!trace.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceGenerator {
    scenario: Scenario,
    rate_rps: f64,
    profile: RateProfile,
}

impl TraceGenerator {
    /// Creates a generator at the given constant request rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    #[must_use]
    pub fn new(scenario: Scenario, rate_rps: f64) -> Self {
        assert!(
            rate_rps.is_finite() && rate_rps > 0.0,
            "rate must be positive, got {rate_rps}"
        );
        TraceGenerator {
            scenario,
            rate_rps,
            profile: RateProfile::Constant,
        }
    }

    /// Returns a copy with a time-varying rate profile.
    #[must_use]
    pub fn with_profile(mut self, profile: RateProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The scenario being generated.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// Generates all requests arriving within `[0, duration)`.
    ///
    /// Time-varying rates use Lewis-Shedler thinning of a Poisson process
    /// at the profile's peak rate, so the instantaneous rate tracks
    /// `rate × profile.multiplier(t)` exactly.
    #[must_use]
    pub fn generate(&self, rng: &DetRng, duration: SimDuration) -> Vec<Request> {
        let mut arrivals = rng.stream(&format!("trace-arrivals-{}", self.scenario.code()));
        let mut lengths = rng.stream(&format!("trace-lengths-{}", self.scenario.code()));
        let mut thinning = rng.stream(&format!("trace-thinning-{}", self.scenario.code()));
        let horizon = duration.as_secs_f64();
        let peak_mult = self.profile.peak_multiplier();
        let peak_rate = self.rate_rps * peak_mult;
        let mut out = Vec::new();
        let mut t = 0.0;
        let mut id = 0u64;
        loop {
            t += arrivals.exponential(1.0 / peak_rate);
            if t >= horizon {
                break;
            }
            // Thinning: accept with probability rate(t)/peak_rate.
            let accept = self.profile.multiplier(t) / peak_mult;
            if !thinning.chance(accept.clamp(0.0, 1.0)) {
                continue;
            }
            let input = sample_len(&mut lengths, self.scenario.mean_input(), 16);
            let output = sample_len(&mut lengths, self.scenario.mean_output(), 4);
            out.push(Request::new(id, SimTime::from_secs_f64(t), input, output));
            id += 1;
        }
        out
    }
}

fn sample_len(rng: &mut DetRng, mean: usize, min: usize) -> usize {
    let v = rng.lognormal_mean_cv(mean as f64, LENGTH_CV);
    (v.round() as usize).clamp(min, mean * 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_slos_are_exact() {
        let cb = Scenario::Chatbot.slo();
        assert_eq!(cb.ttft, SimDuration::from_millis(250));
        assert_eq!(cb.tpot, SimDuration::from_millis(100));
        let cc = Scenario::CodeCompletion.slo();
        assert_eq!(cc.ttft, SimDuration::from_millis(75));
        assert_eq!(cc.tpot, SimDuration::from_millis(150));
        let sm = Scenario::Summarization.slo();
        assert_eq!(sm.ttft, SimDuration::from_millis(1500));
        assert_eq!(sm.tpot, SimDuration::from_millis(100));
    }

    #[test]
    fn generated_lengths_match_table4_means() {
        let rng = DetRng::from_seed(11);
        let trace = TraceGenerator::new(Scenario::Chatbot, 20.0)
            .generate(&rng, SimDuration::from_secs(600));
        assert!(trace.len() > 5000, "got {}", trace.len());
        let mean_in: f64 =
            trace.iter().map(|r| r.input_len as f64).sum::<f64>() / trace.len() as f64;
        let mean_out: f64 =
            trace.iter().map(|r| r.output_len as f64).sum::<f64>() / trace.len() as f64;
        assert!(
            (mean_in - 755.0).abs() / 755.0 < 0.1,
            "mean input {mean_in}"
        );
        assert!(
            (mean_out - 200.0).abs() / 200.0 < 0.1,
            "mean output {mean_out}"
        );
    }

    #[test]
    fn arrival_rate_is_respected() {
        let rng = DetRng::from_seed(12);
        let trace = TraceGenerator::new(Scenario::CodeCompletion, 2.0)
            .generate(&rng, SimDuration::from_secs(1000));
        let rate = trace.len() as f64 / 1000.0;
        assert!((rate - 2.0).abs() < 0.2, "observed rate {rate}");
    }

    #[test]
    fn arrivals_are_sorted_and_in_horizon() {
        let rng = DetRng::from_seed(13);
        let trace = TraceGenerator::new(Scenario::Summarization, 1.0)
            .generate(&rng, SimDuration::from_secs(100));
        for w in trace.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert!(trace.iter().all(|r| r.arrival < SimTime::from_secs(100)));
    }

    #[test]
    fn same_seed_same_trace() {
        let a = TraceGenerator::new(Scenario::Chatbot, 1.0)
            .generate(&DetRng::from_seed(5), SimDuration::from_secs(60));
        let b = TraceGenerator::new(Scenario::Chatbot, 1.0)
            .generate(&DetRng::from_seed(5), SimDuration::from_secs(60));
        assert_eq!(a, b);
    }

    #[test]
    fn scenarios_have_metadata() {
        for s in Scenario::ALL {
            assert!(s.default_rate() > 0.0);
            assert!(s.mean_input() > 0);
        }
        assert_eq!(format!("{}", Scenario::Chatbot), "cb");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = TraceGenerator::new(Scenario::Chatbot, 0.0);
    }

    #[test]
    fn diurnal_profile_modulates_arrivals() {
        let rng = DetRng::from_seed(31);
        let gen = TraceGenerator::new(Scenario::Chatbot, 2.0).with_profile(RateProfile::Diurnal {
            amplitude: 0.8,
            period_secs: 400.0,
        });
        let trace = gen.generate(&rng, SimDuration::from_secs(400));
        // First half of the sine period is the busy half.
        let first_half = trace
            .iter()
            .filter(|r| r.arrival < SimTime::from_secs(200))
            .count() as f64;
        let second_half = trace.len() as f64 - first_half;
        assert!(
            first_half > second_half * 1.8,
            "busy half {first_half} vs quiet half {second_half}"
        );
        // Mean rate stays near the base rate.
        let rate = trace.len() as f64 / 400.0;
        assert!((rate - 2.0).abs() < 0.3, "observed mean rate {rate}");
    }

    #[test]
    fn step_profile_shifts_rate() {
        let rng = DetRng::from_seed(32);
        let gen =
            TraceGenerator::new(Scenario::CodeCompletion, 1.0).with_profile(RateProfile::Step {
                at_secs: 150.0,
                factor: 3.0,
            });
        let trace = gen.generate(&rng, SimDuration::from_secs(300));
        let before = trace
            .iter()
            .filter(|r| r.arrival < SimTime::from_secs(150))
            .count() as f64
            / 150.0;
        let after = trace
            .iter()
            .filter(|r| r.arrival >= SimTime::from_secs(150))
            .count() as f64
            / 150.0;
        assert!(
            after > before * 2.0,
            "step must triple the rate: {before} -> {after}"
        );
    }

    #[test]
    fn constant_profile_matches_plain_generator() {
        let rng = DetRng::from_seed(33);
        let plain =
            TraceGenerator::new(Scenario::Chatbot, 1.0).generate(&rng, SimDuration::from_secs(100));
        let profiled = TraceGenerator::new(Scenario::Chatbot, 1.0)
            .with_profile(RateProfile::Constant)
            .generate(&rng, SimDuration::from_secs(100));
        // Same arrival count scale (thinning at peak_mult=1 accepts all).
        assert_eq!(plain.len(), profiled.len());
    }

    #[test]
    fn multiplier_is_always_positive() {
        for profile in [
            RateProfile::Constant,
            RateProfile::Diurnal {
                amplitude: 0.9,
                period_secs: 60.0,
            },
            RateProfile::Step {
                at_secs: 10.0,
                factor: 0.1,
            },
        ] {
            for t in 0..200 {
                assert!(profile.multiplier(t as f64) > 0.0);
            }
        }
    }
}
