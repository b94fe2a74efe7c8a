//! Output checks: per-op invariants and digests of the printed results.
//!
//! A digest hashes exactly the numbers the studies print — efficiency,
//! tokens/s, BE rate, power, completions, the SLO report, the attribution
//! ledger's totals by cause and region, the Fig 18 sample quantiles, AUV
//! model buckets and fleet flow counts — bit for bit. Internals a faster
//! simulator may drop (the per-interval `Outcome::metrics` history, the raw
//! telemetry series) are deliberately left out, so an optimisation that
//! keeps the printed results keeps every digest.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use aum::experiment::Outcome;
use aum::fleet::FleetOutcome;
use aum::profiler::AuvModel;
use aum_sim::attrib::Region;
use aum_sim::hist::LogHistogram;

/// 64-bit FNV-1a over the canonical byte encoding of the hashed values.
pub struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn hist(&mut self, h: &LogHistogram) {
        self.u64(h.count());
        self.f64(h.sum());
    }
}

/// Quantiles at which the Fig 18 allocation CDFs are printed.
const CDF_POINTS: [f64; 3] = [0.1, 0.5, 0.9];

/// Digest of one experiment outcome's printed results.
#[must_use]
pub fn outcome_digest(o: &Outcome) -> u64 {
    let mut d = Digest::new();
    d.str(&o.scheme);
    for v in [
        o.efficiency,
        o.prefill_tps,
        o.decode_tps,
        o.be_rate,
        o.avg_power_w,
    ] {
        d.f64(v);
    }
    d.u64(o.completed);
    let s = &o.slo;
    for v in [
        s.ttft_guarantee,
        s.tpot_guarantee,
        s.ttft_p50,
        s.ttft_p90,
        s.ttft_p99,
        s.tpot_p50,
        s.tpot_p90,
        s.tpot_req_p50,
        s.tpot_req_p90,
        s.tpot_req_p99,
    ] {
        d.f64(v);
    }
    d.u64(s.prefills as u64);
    d.u64(s.tokens as u64);
    for h in [&s.ttft_hist, &s.tpot_hist, &s.tpot_req_hist] {
        d.hist(h);
    }
    for region in Region::ALL {
        for (_, v) in o.ledger.region_time(region).iter() {
            d.f64(v);
        }
        for (_, v) in o.ledger.region_energy(region).iter() {
            d.f64(v);
        }
    }
    for samples in [
        &o.shared_llc_samples,
        &o.shared_bw_samples,
        &o.none_core_samples,
    ] {
        d.u64(samples.len() as u64);
        for q in CDF_POINTS {
            d.f64(samples.quantile(q));
        }
    }
    d.0
}

/// Digest of an AUV model: every bucket (Table III rows) and the run count.
#[must_use]
pub fn model_digest(m: &AuvModel) -> u64 {
    let mut d = Digest::new();
    d.str(&m.platform);
    d.u64(m.profiling_runs as u64);
    // `Debug` prints every f64 in shortest round-trip form, so the text
    // pins each bucket field exactly.
    for b in &m.buckets {
        d.str(&format!("{b:?}"));
    }
    d.0
}

/// Digest of a fleet outcome's flow counts, attainment and cost.
#[must_use]
pub fn fleet_digest(f: &FleetOutcome) -> u64 {
    let mut d = Digest::new();
    d.str(&f.policy);
    for v in [
        f.epochs,
        f.offered,
        f.dispatched,
        f.completed,
        f.on_time,
        f.redispatched,
        f.dropped,
        f.shed,
        f.pending,
        f.health_transitions,
    ] {
        d.u64(v);
    }
    for &v in &f.shed_by_class {
        d.u64(v);
    }
    d.f64(f.attainment);
    d.f64(f.usd_per_mtok);
    d.0
}

fn finite(what: &str, values: &[f64]) -> Result<(), String> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(format!("non-finite {what}: {v}")),
        None => Ok(()),
    }
}

/// Invariants of one experiment run: finite printed results and one
/// attribution-ledger row per control interval.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check_outcome(o: &Outcome, intervals: u64) -> Result<(), String> {
    finite(
        "outcome",
        &[
            o.efficiency,
            o.prefill_tps,
            o.decode_tps,
            o.be_rate,
            o.avg_power_w,
            o.slo.ttft_guarantee,
            o.slo.tpot_guarantee,
        ],
    )?;
    if o.ledger.intervals.len() as u64 != intervals {
        return Err(format!(
            "ledger has {} rows for {intervals} intervals",
            o.ledger.intervals.len()
        ));
    }
    Ok(())
}

/// Invariants of one AUV model: a full grid of finite buckets.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check_model(m: &AuvModel, runs: u64) -> Result<(), String> {
    if m.buckets.len() != m.div_count * m.cfg_count || m.profiling_runs as u64 != runs {
        return Err(format!(
            "model grid {}x{} has {} buckets from {} runs (expected {runs})",
            m.div_count,
            m.cfg_count,
            m.buckets.len(),
            m.profiling_runs
        ));
    }
    for b in &m.buckets {
        finite(
            "bucket",
            &[
                b.prefill_tps,
                b.decode_tps,
                b.be_rate,
                b.ttft_p90,
                b.tpot_p90,
                b.power_w,
                b.efficiency,
            ],
        )?;
    }
    Ok(())
}

/// Invariants of one fleet run: exact request-flow conservation (fleet and
/// per-node), the epoch count of the generated grid, finite results.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check_fleet(f: &FleetOutcome, epochs: u64) -> Result<(), String> {
    if !(f.conservation_ok() && f.node_conservation_ok()) {
        return Err("fleet request-flow conservation violated".into());
    }
    if f.epochs != epochs {
        return Err(format!("fleet ran {} epochs, expected {epochs}", f.epochs));
    }
    finite("fleet outcome", &[f.attainment, f.usd_per_mtok])
}

/// Parses a committed digest file: `<label> <16 hex digits>` per line,
/// `#` comments and blank lines skipped.
///
/// # Panics
///
/// Panics on a malformed line — the file is part of the benchmark.
#[must_use]
pub fn parse_digests(text: &str) -> HashMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hex) = l.rsplit_once(' ').expect("digest line is `<label> <hex>`");
            let value = u64::from_str_radix(hex, 16).expect("digest is hexadecimal");
            (label.to_string(), value)
        })
        .collect()
}

/// Counts ops, catches their panics and checks their results.
///
/// Every op's digest must equal the digest of the same label seen earlier in
/// this process (same inputs, same outputs) and, when committed digests
/// apply to the seed, the committed one.
pub struct Verifier {
    expected: Option<HashMap<String, u64>>,
    seen: HashMap<String, u64>,
    /// Digests in first-seen order, for printing and for writing the
    /// committed file.
    pub fresh: Vec<(String, u64)>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that panicked, returned an error, broke an invariant or
    /// mismatched a digest.
    pub failed: u64,
}

impl Verifier {
    /// A verifier checking against `expected` digests, if any.
    #[must_use]
    pub fn new(expected: Option<HashMap<String, u64>>) -> Self {
        Verifier {
            expected,
            seen: HashMap::new(),
            fresh: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a failure that is not tied to one op's result.
    pub fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {label}: {why}");
    }

    /// Runs one op: `run` produces the result (a panic is caught and
    /// counted), `digest` checks its invariants and hashes it. Returns the
    /// result only if every check passed.
    pub fn op<T>(
        &mut self,
        label: &str,
        run: impl FnOnce() -> Result<T, String>,
        digest: impl FnOnce(&T) -> Result<u64, String>,
    ) -> Option<T> {
        self.attempted += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(run)) {
            Err(payload) => Err(format!("panicked: {}", panic_text(payload.as_ref()))),
            Ok(Err(e)) => Err(format!("returned an error: {e}")),
            Ok(Ok(value)) => digest(&value)
                .and_then(|d| self.match_digest(label, d))
                .map(|()| value),
        };
        verdict.map_err(|why| self.fail(label, &why)).ok()
    }

    fn match_digest(&mut self, label: &str, digest: u64) -> Result<(), String> {
        if let Some(&prev) = self.seen.get(label) {
            return if prev == digest {
                Ok(())
            } else {
                Err(format!(
                    "digest {digest:016x} differs from {prev:016x} for the same inputs"
                ))
            };
        }
        if let Some(expected) = &self.expected {
            match expected.get(label) {
                Some(&want) if want == digest => {}
                Some(&want) => {
                    return Err(format!(
                        "digest {digest:016x} differs from committed {want:016x}"
                    ))
                }
                None => return Err("no committed digest for this op".into()),
            }
        }
        self.seen.insert(label.to_string(), digest);
        self.fresh.push((label.to_string(), digest));
        Ok(())
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aum::baselines::AllAu;
    use aum::experiment::{run_experiment, ExperimentConfig};
    use aum_llm::traces::Scenario;
    use aum_platform::spec::PlatformSpec;
    use aum_sim::time::SimDuration;

    fn short_outcome() -> Outcome {
        let spec = PlatformSpec::gen_a();
        let mut cfg = ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, None);
        cfg.duration = SimDuration::from_secs(20);
        run_experiment(&cfg, &mut AllAu::new(&spec))
    }

    #[test]
    fn perturbed_outcome_fails_the_digest_check() {
        let outcome = short_outcome();
        let committed = HashMap::from([("run".to_string(), outcome_digest(&outcome))]);
        let mut v = Verifier::new(Some(committed));
        assert!(v
            .op("run", || Ok(outcome.clone()), |o| Ok(outcome_digest(o)))
            .is_some());

        let mut perturbed = outcome.clone();
        perturbed.efficiency = f64::from_bits(perturbed.efficiency.to_bits() + 1);
        let mut v = Verifier::new(Some(HashMap::from([(
            "run".to_string(),
            outcome_digest(&outcome),
        )])));
        assert!(v
            .op("run", || Ok(perturbed), |o| Ok(outcome_digest(o)))
            .is_none());
        assert_eq!((v.attempted, v.failed), (1, 1));
    }

    #[test]
    fn digest_ignores_the_metrics_history() {
        let outcome = short_outcome();
        let mut trimmed = outcome.clone();
        trimmed.metrics.clear();
        assert_eq!(outcome_digest(&outcome), outcome_digest(&trimmed));
    }

    #[test]
    fn repeated_label_must_repeat_its_digest() {
        let mut v = Verifier::new(None);
        assert!(v.op("x", || Ok(1u64), |&d| Ok(d)).is_some());
        assert!(v.op("x", || Ok(1u64), |&d| Ok(d)).is_some());
        assert!(v.op("x", || Ok(2u64), |&d| Ok(d)).is_none());
        assert_eq!((v.attempted, v.failed, v.fresh.len()), (3, 1, 1));
    }

    #[test]
    fn panicking_op_counts_as_failed_and_the_run_continues() {
        let mut v = Verifier::new(None);
        let boom: Option<u64> = v.op("boom", || panic!("injected"), |&d| Ok(d));
        assert!(boom.is_none());
        assert!(v.op("after", || Ok(7u64), |&d| Ok(d)).is_some());
        assert_eq!((v.attempted, v.failed), (2, 1));
    }

    #[test]
    fn digest_files_parse() {
        let parsed = parse_digests("# header\n\nc0/a 00000000000000ff\nsetup/b 0123456789abcdef\n");
        assert_eq!(parsed["c0/a"], 0xff);
        assert_eq!(parsed["setup/b"], 0x0123_4567_89ab_cdef);
    }
}
