//! Service-level objectives and guarantee accounting.
//!
//! The paper measures TTFT (time-to-first-token) for prefill and TPOT
//! (time-per-output-token) for decode (§III-A2), and reports *SLO guarantee
//! ratios* — the fraction of requests/tokens meeting their deadline
//! (Fig 17) — plus throughput "with performance guarantees".
//!
//! Latency percentiles come from mergeable log-linear histograms
//! ([`aum_sim::hist::LogHistogram`], ≤ 1/128 relative bucket width) rather
//! than exact sample vectors, so per-cell reports aggregate across the
//! parallel sweep executor deterministically and without shipping raw
//! samples. [`SloTally`] fills those histograms online, as prefills finish
//! and tokens are emitted, so a run keeps no per-token state. Guarantee
//! *ratios* stay exact — deadline hits are counted on each exact TTFT and
//! each request's exact token-time sum, never estimated from buckets.

use serde::{Deserialize, Serialize};

use aum_sim::hist::LogHistogram;
use aum_sim::telemetry::SloMetric;
use aum_sim::time::SimDuration;

use crate::batching::ActiveRequest;
use crate::request::RequestId;

/// The two serving deadlines of a scenario (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloSpec {
    /// TTFT deadline (`d_TTFT`).
    pub ttft: SimDuration,
    /// TPOT deadline (`d_TPOT`).
    pub tpot: SimDuration,
}

impl SloSpec {
    /// Creates a spec.
    #[must_use]
    pub const fn new(ttft: SimDuration, tpot: SimDuration) -> Self {
        SloSpec { ttft, tpot }
    }

    /// Per-request SLO trigger hook: which deadlines a finished request
    /// missed, as `(metric, observed_secs, budget_secs)` — at most one
    /// TTFT and one TPOT entry. The deadline boundary counts as met,
    /// mirroring [`SloTally`]. The engine emits an
    /// [`aum_sim::telemetry::Event::SloBreach`] per entry, which is what
    /// the flight recorder's burn tracker and the breach-blame report see.
    #[must_use]
    pub fn request_breaches(
        &self,
        ttft_secs: f64,
        generated: usize,
        mean_tpot_secs: f64,
    ) -> [Option<(SloMetric, f64, f64)>; 2] {
        let ttft_budget = self.ttft.as_secs_f64();
        let tpot_budget = self.tpot.as_secs_f64();
        [
            (ttft_secs > ttft_budget).then_some((SloMetric::Ttft, ttft_secs, ttft_budget)),
            (generated > 0 && mean_tpot_secs > tpot_budget).then_some((
                SloMetric::Tpot,
                mean_tpot_secs,
                tpot_budget,
            )),
        ]
    }
}

/// Aggregated SLO outcome of a serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Fraction of requests whose TTFT met `d_TTFT`.
    pub ttft_guarantee: f64,
    /// Fraction of requests whose *average* token time met `d_TPOT` — TPOT
    /// is a per-request average (§III-A2), which is precisely the slack the
    /// LAG analysis exploits: individual tokens may run late as long as the
    /// request's schedule catches up.
    pub tpot_guarantee: f64,
    /// Median TTFT in seconds.
    pub ttft_p50: f64,
    /// 90th-percentile TTFT in seconds.
    pub ttft_p90: f64,
    /// Median token execution time in seconds.
    pub tpot_p50: f64,
    /// 90th-percentile token execution time in seconds.
    pub tpot_p90: f64,
    /// Median of per-request *average* token times, seconds — the
    /// distribution the TPOT SLO is actually judged on.
    pub tpot_req_p50: f64,
    /// 90th percentile of per-request average token times, seconds.
    pub tpot_req_p90: f64,
    /// 99th-percentile TTFT in seconds.
    pub ttft_p99: f64,
    /// 99th percentile of per-request average token times, seconds.
    pub tpot_req_p99: f64,
    /// Requests with a completed prefill.
    pub prefills: usize,
    /// Decode tokens generated.
    pub tokens: usize,
    /// Full TTFT distribution (seconds).
    pub ttft_hist: LogHistogram,
    /// Full per-token execution-time distribution (seconds).
    pub tpot_hist: LogHistogram,
    /// Full per-request average-token-time distribution (seconds).
    pub tpot_req_hist: LogHistogram,
}

impl SloReport {
    /// Combined violation rate (1 − mean of the two guarantees).
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        1.0 - (self.ttft_guarantee + self.tpot_guarantee) / 2.0
    }
}

/// Online SLO accounting for one serving run: what a [`SloReport`] needs,
/// updated as prefills finish, tokens are emitted and requests retire.
/// Memory grows with retired requests, never with tokens.
#[derive(Debug, Clone)]
pub struct SloTally {
    slo: SloSpec,
    ttft_hist: LogHistogram,
    ttft_met: usize,
    tpot_hist: LogHistogram,
    /// `(id, token-time sum, tokens)` per retired request with tokens.
    retired: Vec<(RequestId, f64, usize)>,
}

impl SloTally {
    /// An empty tally judged against `slo`.
    #[must_use]
    pub fn new(slo: SloSpec) -> Self {
        SloTally {
            slo,
            ttft_hist: LogHistogram::new(),
            ttft_met: 0,
            tpot_hist: LogHistogram::new(),
            retired: Vec::new(),
        }
    }

    /// Records one completed prefill's TTFT.
    pub fn record_ttft(&mut self, ttft: SimDuration) {
        self.ttft_hist.record(ttft.as_secs_f64());
        self.ttft_met += usize::from(ttft <= self.slo.ttft);
    }

    /// Records a decode iteration of `batch` tokens taking `exec` each, as
    /// `batch` observations that the histogram sums token by token.
    pub fn record_tokens(&mut self, exec: SimDuration, batch: usize) {
        self.tpot_hist.record_n(exec.as_secs_f64(), batch as u64);
    }

    /// Records a request leaving the decode pool.
    pub fn retire(&mut self, r: &ActiveRequest) {
        if r.generated > 0 {
            self.retired.push((r.id, r.exec_sum_secs, r.generated));
        }
    }

    /// The report so far, counting `in_flight` requests with tokens as if
    /// they retired now. Per-request means enter their histogram in
    /// request-id order, so its float sum does not depend on retirement
    /// order.
    #[must_use]
    pub fn report(&self, in_flight: &[ActiveRequest]) -> SloReport {
        let mut requests = self.retired.clone();
        let in_flight = in_flight.iter().filter(|r| r.generated > 0);
        requests.extend(in_flight.map(|r| (r.id, r.exec_sum_secs, r.generated)));
        requests.sort_unstable_by_key(|r| r.0);
        let means: Vec<f64> = requests.iter().map(|r| r.1 / r.2 as f64).collect();
        let tpot_met = means.iter().filter(|&&m| m <= self.slo.tpot.as_secs_f64());
        let ratio = |met: usize, of: usize| if of == 0 { 1.0 } else { met as f64 / of as f64 };
        let tpot_req_hist: LogHistogram = means.iter().copied().collect();
        let (ttft_hist, tpot_hist) = (self.ttft_hist.clone(), self.tpot_hist.clone());
        SloReport {
            ttft_guarantee: ratio(self.ttft_met, ttft_hist.count() as usize),
            tpot_guarantee: ratio(tpot_met.count(), means.len()),
            ttft_p50: ttft_hist.quantile(0.5),
            ttft_p90: ttft_hist.quantile(0.9),
            tpot_p50: tpot_hist.quantile(0.5),
            tpot_p90: tpot_hist.quantile(0.9),
            tpot_req_p50: tpot_req_hist.quantile(0.5),
            tpot_req_p90: tpot_req_hist.quantile(0.9),
            ttft_p99: ttft_hist.quantile(0.99),
            tpot_req_p99: tpot_req_hist.quantile(0.99),
            prefills: ttft_hist.count() as usize,
            tokens: tpot_hist.count() as usize,
            ttft_hist,
            tpot_hist,
            tpot_req_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::DecodePool;
    use crate::request::Request;
    use aum_sim::time::SimTime;

    fn slo() -> SloSpec {
        SloSpec::new(SimDuration::from_millis(250), SimDuration::from_millis(100))
    }

    /// A tally fed `ttfts_ms`, then each request's token times one batch-1
    /// iteration at a time, retiring the request after its last token.
    fn tally(ttfts_ms: &[u64], requests: &[(u64, &[u64])]) -> SloTally {
        let mut t = SloTally::new(slo());
        for &ms in ttfts_ms {
            t.record_ttft(SimDuration::from_millis(ms));
        }
        for &(id, execs) in requests {
            let mut pool = DecodePool::new(1);
            pool.admit(ActiveRequest::start(&Request::new(
                id,
                SimTime::ZERO,
                1,
                execs.len() + 1,
            )));
            for &ms in execs {
                let exec = SimDuration::from_millis(ms);
                t.record_tokens(exec, 1);
                for f in pool.step(exec) {
                    t.retire(&f);
                }
            }
        }
        t
    }

    #[test]
    fn guarantee_ratios_count_deadline_hits() {
        let r = tally(
            &[100, 200, 300, 400],
            // Request 0 averages exactly 100 ms (meets); request 1 averages
            // 150 ms (violates) even though one of its tokens was fast.
            &[(0, &[50, 150]), (1, &[50, 250])],
        )
        .report(&[]);
        assert!((r.ttft_guarantee - 0.5).abs() < 1e-12);
        assert!((r.tpot_guarantee - 0.5).abs() < 1e-12);
        assert_eq!(r.prefills, 4);
        assert_eq!(r.tokens, 4);
    }

    #[test]
    fn empty_records_are_vacuously_guaranteed() {
        let r = SloTally::new(slo()).report(&[]);
        assert_eq!(r.ttft_guarantee, 1.0);
        assert_eq!(r.tpot_guarantee, 1.0);
        assert_eq!(r.violation_rate(), 0.0);
    }

    #[test]
    fn percentiles_come_from_samples() {
        let ttfts: Vec<u64> = (1..=100).map(|i| i * 10).collect();
        let r = tally(&ttfts, &[]).report(&[]);
        assert!((r.ttft_p50 - 0.505).abs() < 0.01, "p50 {}", r.ttft_p50);
        assert!((r.ttft_p90 - 0.901).abs() < 0.01, "p90 {}", r.ttft_p90);
    }

    #[test]
    fn hist_percentiles_match_exact_quantiles_within_bucket_width() {
        use aum_sim::stats::Samples;
        // Equivalence gate for the histogram-backed report: against the
        // exact order statistic, the log-linear estimate may deviate by at
        // most one bucket's relative width (1/128).
        let ttfts: Vec<u64> = (1..=500).map(|i| 3 + i * 7).collect();
        let exact: Samples = ttfts
            .iter()
            .map(|&ms| SimDuration::from_millis(ms).as_secs_f64())
            .collect();
        let r = tally(&ttfts, &[]).report(&[]);
        let tol = 1.0 / 128.0;
        for (est, q) in [(r.ttft_p50, 0.5), (r.ttft_p90, 0.9), (r.ttft_p99, 0.99)] {
            let truth = exact.quantile(q);
            assert!(
                (est - truth).abs() <= truth * tol + 1e-12,
                "q{q}: hist {est} vs exact {truth}"
            );
        }
        // The report carries the full distribution for downstream merge.
        assert_eq!(r.ttft_hist.count(), 500);
        assert!(r.tpot_req_hist.is_empty());
    }

    #[test]
    fn request_breaches_flags_each_missed_deadline_once() {
        let s = slo(); // 250 ms TTFT, 100 ms TPOT
        let none = s.request_breaches(0.2, 10, 0.05);
        assert_eq!(none, [None, None]);
        let both = s.request_breaches(0.3, 10, 0.15);
        assert_eq!(both[0], Some((SloMetric::Ttft, 0.3, 0.25)));
        assert_eq!(both[1], Some((SloMetric::Tpot, 0.15, 0.1)));
        // Boundary counts as met; prefill-only requests never breach TPOT.
        assert_eq!(s.request_breaches(0.25, 0, 9.9), [None, None]);
    }

    #[test]
    fn violation_rate_blends_both() {
        let r = tally(&[300], &[(0, &[50])]).report(&[]);
        assert!((r.violation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deadline_boundary_counts_as_met() {
        let r = tally(&[250], &[(0, &[100])]).report(&[]);
        assert_eq!(r.ttft_guarantee, 1.0);
        assert_eq!(r.tpot_guarantee, 1.0);
    }
}
