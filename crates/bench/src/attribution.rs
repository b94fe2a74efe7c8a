//! Attribution-ledger studies: `repro attrib` and `repro trace-diff`.
//!
//! `repro attrib <study>` runs one AUM experiment with the full trace
//! pipeline attached and renders the time/energy attribution ledger as a
//! report: per-region cause breakdowns, a perf-per-watt blame summary, an
//! elided dominant-loss timeline and a blame line for every SLO breach in
//! the trace. `--metrics-out <file.prom>` additionally writes the final
//! metrics snapshot plus the ledger in Prometheus text exposition format.
//!
//! `repro trace-diff <a.jsonl> <b.jsonl>` aligns the `AttributionSample`
//! events of two traces on simulation time and reports the per-cause shift
//! of total time share in percentage points. Any cause shifting by at
//! least [`THRESHOLD_PP`] marks the diff a regression — the CLI exits 1 so
//! CI can gate on attribution drift. Two same-seed runs serialize
//! byte-identical streams (see [`aum_sim::telemetry::OrderingSink`]), so a
//! self-diff is exactly zero.

use std::fmt::Write as _;

use aum::experiment::{try_run_experiment_traced, ExperimentConfig, Fault, FaultEvent, FaultPlan};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::attrib::{self, Cause, CauseVec, Ledger, Region};
use aum_sim::prom;
use aum_sim::telemetry::{runs, Event, MemorySink, OrderingSink, SloMetric, TraceRecord, Tracer};
use aum_sim::time::{SimDuration, SimTime};
use aum_workloads::be::BeKind;

use crate::common::{make_manager, RunCtx, Scheme};

/// Regression threshold of [`trace_diff`], percentage points of total
/// time share per cause.
pub const THRESHOLD_PP: f64 = 2.0;

/// A rendered attribution study: the human-readable report plus the
/// Prometheus exposition of the same run.
#[derive(Debug)]
pub struct StudyReport {
    /// The report text (tables, blame lines, timeline).
    pub text: String,
    /// Prometheus text format: final metrics snapshot + ledger series.
    pub prom: String,
}

/// A rendered trace diff plus its regression verdict.
#[derive(Debug)]
pub struct TraceDiff {
    /// The rendered per-cause delta table and verdict line.
    pub text: String,
    /// Whether any cause shifted by at least the threshold.
    pub regression: bool,
}

/// The studies `repro attrib` knows how to run.
pub const STUDIES: [&str; 2] = ["fig14", "chaos"];

/// The configuration of one of [`STUDIES`].
fn study_config(study: &str, quick: bool) -> Result<(ExperimentConfig, BeKind), String> {
    let spec = PlatformSpec::gen_a();
    match study {
        "fig14" => {
            let be = BeKind::SpecJbb;
            let mut cfg = ExperimentConfig::paper_default(spec, Scenario::Chatbot, Some(be));
            cfg.duration = SimDuration::from_secs(if quick { 60 } else { 300 });
            Ok((cfg, be))
        }
        "chaos" => {
            let be = BeKind::Olap;
            let duration = if quick { 120 } else { 240 };
            let mut cfg = ExperimentConfig::paper_default(spec, Scenario::Chatbot, Some(be));
            cfg.duration = SimDuration::from_secs(duration);
            cfg.fault = FaultPlan::single(FaultEvent::permanent(
                duration as f64 / 4.0,
                Fault::BandwidthDegrade { frac: 0.8 },
            ));
            Ok((cfg, be))
        }
        other => Err(format!(
            "unknown attrib study '{other}' (expected 'fig14' or 'chaos')"
        )),
    }
}

/// Runs one attribution study end to end.
///
/// `ctx.quick` selects the short run. The run always traces into an
/// in-process [`MemorySink`] (wrapped in an [`OrderingSink`] so SLO-breach
/// lookups and re-emission see time order); when the ctx's tracer is
/// enabled (`repro --trace`) every record is re-emitted there so the
/// study's trace lands in the requested file too.
///
/// # Errors
///
/// Returns the experiment's error string — notably an attribution-ledger
/// conservation violation — or an unknown study name. The `repro` driver
/// exits 1 on either.
pub fn run_study(ctx: &RunCtx, study: &str) -> Result<StudyReport, String> {
    let (cfg, be) = study_config(study, ctx.quick)?;
    let mut mgr = make_manager(
        Scheme::Aum,
        &cfg.platform,
        cfg.scenario,
        Some(be),
        &ctx.cache,
        &ctx.tracer,
    );
    let (tracer, sink) = Tracer::shared(OrderingSink::new(MemorySink::new()));
    let outcome = try_run_experiment_traced(&cfg, mgr.as_mut(), tracer)
        .map_err(|e| format!("attrib study '{study}' failed: {e}"))?;
    let records = sink
        .lock()
        .expect("attrib trace sink lock")
        .inner()
        .records()
        .to_vec();
    if ctx.tracer.is_enabled() {
        for r in &records {
            ctx.tracer.emit(r.at, || r.event.clone());
        }
    }

    let ledger = &outcome.ledger;
    let mut text = String::new();
    let dur = cfg.duration.as_secs_f64();
    let _ = writeln!(
        text,
        "Attribution ledger — study {study} (AUM on GenA, Chatbot + {be:?}, {dur:.0}s, seed {})",
        cfg.seed
    );
    match ledger.verify(attrib::EPSILON) {
        Ok(()) => {
            let _ = writeln!(
                text,
                "conservation: OK ({} intervals, wall {:.1}s, energy {:.1}J, eps {:.0e})",
                ledger.intervals.len(),
                ledger.wall_secs(),
                ledger.energy_j(),
                attrib::EPSILON
            );
        }
        Err(e) => return Err(format!("attrib study '{study}': {e}")),
    }
    let _ = writeln!(
        text,
        "avg power {:.1} W | efficiency {:.3} | TTFT guarantee {:.1}% | TPOT guarantee {:.1}%",
        outcome.avg_power_w,
        outcome.efficiency,
        outcome.slo.ttft_guarantee * 100.0,
        outcome.slo.tpot_guarantee * 100.0
    );
    text.push('\n');

    render_region_table(&mut text, ledger, Quantity::Time);
    text.push('\n');
    render_region_table(&mut text, ledger, Quantity::Energy);
    text.push('\n');
    render_blame_summary(&mut text, ledger);
    text.push('\n');
    render_timeline(&mut text, ledger);
    render_breach_blame(&mut text, ledger, &records);

    let mut prom_text = prom::render_registry(&outcome.metrics);
    prom_text.push_str(&prom::render_ledger(ledger));
    // The run's latency distributions as Prometheus histograms, from the
    // same mergeable log-linear buckets the SLO report quantiles use.
    prom_text.push_str(&prom::render_histogram(
        "aum_ttft_seconds",
        "Time-to-first-token distribution of the study run",
        &[("study", study)],
        &outcome.slo.ttft_hist,
    ));
    prom_text.push_str(&prom::render_histogram(
        "aum_tpot_request_seconds",
        "Per-request mean time-per-output-token distribution of the study run",
        &[("study", study)],
        &outcome.slo.tpot_req_hist,
    ));

    Ok(StudyReport {
        text,
        prom: prom_text,
    })
}

/// Which ledger axis a table renders.
#[derive(Clone, Copy)]
enum Quantity {
    Time,
    Energy,
}

/// Renders one per-region breakdown table: each region's total with its
/// cause shares (≥ 0.1 % of the region, largest first).
fn render_region_table(out: &mut String, ledger: &Ledger, q: Quantity) {
    let (title, unit) = match q {
        Quantity::Time => ("time attribution (per region wall time)", "s"),
        Quantity::Energy => ("energy attribution (per region energy)", "J"),
    };
    let _ = writeln!(out, "{title}:");
    let _ = writeln!(
        out,
        "  {:<8} {:>10}  breakdown",
        "region",
        format!("total {unit}")
    );
    for region in Region::ALL {
        let vec = match q {
            Quantity::Time => ledger.region_time(region),
            Quantity::Energy => ledger.region_energy(region),
        };
        let total = vec.sum();
        let mut shares: Vec<(Cause, f64)> = vec
            .iter()
            .filter(|(_, v)| total > 0.0 && *v / total >= 1e-3)
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        let breakdown = if shares.is_empty() {
            "-".to_owned()
        } else {
            shares
                .iter()
                .map(|(c, v)| format!("{} {:.1}%", c.label(), v / total * 100.0))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let _ = writeln!(out, "  {:<8} {:>10.1}  {breakdown}", region.label(), total);
    }
}

/// Renders the perf-per-watt blame line: how much package energy went to
/// loss causes (anything that is neither useful compute nor clean idle),
/// and which loss dominates.
fn render_blame_summary(out: &mut String, ledger: &Ledger) {
    let energy = ledger.total_energy();
    let total = energy.sum();
    let loss_j: f64 = energy
        .iter()
        .filter(|(c, _)| c.is_loss())
        .map(|(_, v)| v)
        .sum();
    let line = match energy.dominant_loss(total) {
        Some((cause, v)) if total > 0.0 => format!(
            "perf/W blame: {loss_j:.1} J ({:.1}% of package energy) lost to inefficiency; \
             dominant loss: {} ({:.1}%)",
            loss_j / total * 100.0,
            cause.label(),
            v / total * 100.0
        ),
        _ => "perf/W blame: no loss attribution (fully compute/idle)".to_owned(),
    };
    let _ = writeln!(out, "{line}");
}

/// How many intervals the dominant-loss timeline prints before eliding.
const TIMELINE_SAMPLES: usize = 12;

/// Renders an evenly-sampled timeline of the dominant loss cause per
/// control interval (time-weighted across regions).
fn render_timeline(out: &mut String, ledger: &Ledger) {
    if ledger.is_empty() {
        return;
    }
    let n = ledger.intervals.len();
    let step = n.div_ceil(TIMELINE_SAMPLES).max(1);
    let _ = writeln!(out, "dominant-loss timeline ({n} intervals, every {step}):");
    for iv in ledger.intervals.iter().step_by(step) {
        let mut time = CauseVec::zero();
        for r in &iv.regions {
            time.accumulate(&r.time);
        }
        let line = match time.dominant_loss(time.sum()) {
            Some((cause, v)) => format!(
                "{} {:.1}% of interval time",
                cause.label(),
                v / time.sum().max(f64::MIN_POSITIVE) * 100.0
            ),
            None => "no loss".to_owned(),
        };
        let _ = writeln!(out, "  t={:>7.1}s  {line}", iv.at.as_secs_f64());
    }
}

/// How many SLO breaches get individual blame lines before eliding.
const BREACH_CAP: usize = 8;

/// Renders one blame line per SLO breach in the trace: which region the
/// breached metric runs in (TTFT → prefill / AU-high, TPOT → decode /
/// AU-low) and the dominant loss cause of the covering interval.
fn render_breach_blame(out: &mut String, ledger: &Ledger, records: &[TraceRecord]) {
    let breaches: Vec<(SimTime, SloMetric, f64, f64)> = records
        .iter()
        .filter_map(|r| match r.event {
            Event::SloBreach {
                metric,
                observed_secs,
                budget_secs,
            } => Some((r.at, metric, observed_secs, budget_secs)),
            _ => None,
        })
        .collect();
    if breaches.is_empty() {
        let _ = writeln!(out, "SLO breaches: none");
        return;
    }
    let _ = writeln!(out, "SLO breach blame ({} breaches):", breaches.len());
    for (at, metric, observed, budget) in breaches.iter().take(BREACH_CAP) {
        let (name, region) = match metric {
            SloMetric::Ttft => ("ttft", Region::AuHigh),
            SloMetric::Tpot => ("tpot", Region::AuLow),
        };
        let blame = match ledger.blame(*at, region) {
            Some((cause, share)) => format!(
                "dominant loss in {}: {} ({:.1}% of region time)",
                region.label(),
                cause.label(),
                share * 100.0
            ),
            None => format!("no loss attribution in {}", region.label()),
        };
        let _ = writeln!(
            out,
            "  t={:>7.1}s  {name} {observed:.2}s > budget {budget:.2}s — {blame}",
            at.as_secs_f64()
        );
    }
    if breaches.len() > BREACH_CAP {
        let _ = writeln!(out, "  … {} more elided", breaches.len() - BREACH_CAP);
    }
}

/// Sums every `AttributionSample` time vector per `(run, time)` key
/// (across regions), in trace order, numbering only the [`runs`] that carry
/// samples: a sweep without them (a profiler build one trace has and the
/// other lacks) shifts no key.
fn attribution_by_time(records: &[TraceRecord]) -> Vec<((usize, SimTime), CauseVec)> {
    let mut out: Vec<((usize, SimTime), CauseVec)> = Vec::new();
    for run in runs(records) {
        let i = out.last().map_or(0, |((last, _), _)| last + 1);
        for r in run {
            if let Event::AttributionSample { time, .. } = &r.event {
                match out.last_mut() {
                    Some((key, vec)) if *key == (i, r.at) => vec.accumulate(time),
                    _ => {
                        let mut vec = CauseVec::zero();
                        vec.accumulate(time);
                        out.push(((i, r.at), vec));
                    }
                }
            }
        }
    }
    out
}

/// Diffs the attribution content of two traces.
///
/// Intervals are aligned on simulation time within each run (only
/// keys present in both traces are compared); each trace's aligned time
/// vectors are summed and normalized to shares, and the per-cause share
/// deltas are reported in percentage points, largest magnitude first.
/// `regression` is set when any cause moves by at least [`THRESHOLD_PP`].
///
/// # Errors
///
/// Returns an error when either trace carries no `AttributionSample`
/// events, or when the traces share no timestamps.
pub fn trace_diff(a: &[TraceRecord], b: &[TraceRecord]) -> Result<TraceDiff, String> {
    // The two traces reduce independently — a 2-cell sweep halves the
    // dominant cost of diffing two large JSONL traces when jobs ≥ 2.
    let mut reduced = aum_sim::exec::sweep(vec![a, b], |_, t| attribution_by_time(t));
    let by_time_b = reduced.pop().expect("two cells in, two out");
    let by_time_a = reduced.pop().expect("two cells in, two out");
    if by_time_a.is_empty() {
        return Err(
            "trace A has no attribution samples (was it produced by `repro attrib`?)".into(),
        );
    }
    if by_time_b.is_empty() {
        return Err(
            "trace B has no attribution samples (was it produced by `repro attrib`?)".into(),
        );
    }

    let mut total_a = CauseVec::zero();
    let mut total_b = CauseVec::zero();
    let mut aligned = 0usize;
    let mut ib = 0usize;
    for (at, vec_a) in &by_time_a {
        while ib < by_time_b.len() && by_time_b[ib].0 < *at {
            ib += 1;
        }
        if ib < by_time_b.len() && by_time_b[ib].0 == *at {
            total_a.accumulate(vec_a);
            total_b.accumulate(&by_time_b[ib].1);
            aligned += 1;
        }
    }
    if aligned == 0 {
        return Err(format!(
            "no aligned intervals (trace A has {}, trace B has {}, zero shared timestamps)",
            by_time_a.len(),
            by_time_b.len()
        ));
    }

    let sum_a = total_a.sum();
    let sum_b = total_b.sum();
    let mut rows: Vec<(Cause, f64, f64, f64)> = Cause::ALL
        .iter()
        .map(|&c| {
            let pa = if sum_a > 0.0 {
                total_a.get(c) / sum_a * 100.0
            } else {
                0.0
            };
            let pb = if sum_b > 0.0 {
                total_b.get(c) / sum_b * 100.0
            } else {
                0.0
            };
            (c, pa, pb, pb - pa)
        })
        .collect();
    rows.sort_by(|x, y| y.3.abs().total_cmp(&x.3.abs()));
    let over: Vec<&(Cause, f64, f64, f64)> = rows
        .iter()
        .filter(|(_, _, _, d)| d.abs() >= THRESHOLD_PP)
        .collect();
    let regression = !over.is_empty();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "trace-diff: {aligned} aligned intervals (A: {}, B: {}), threshold {THRESHOLD_PP:.2} pp",
        by_time_a.len(),
        by_time_b.len()
    );
    let _ = writeln!(
        text,
        "  {:<16} {:>8} {:>8} {:>8}",
        "cause", "A %", "B %", "Δpp"
    );
    for (c, pa, pb, d) in &rows {
        let flag = if d.abs() >= THRESHOLD_PP { "  **" } else { "" };
        let _ = writeln!(
            text,
            "  {:<16} {pa:>8.2} {pb:>8.2} {d:>+8.2}{flag}",
            c.label()
        );
    }
    let verdict = if regression {
        let worst = over[0];
        format!(
            "verdict: REGRESSION — {} cause(s) shifted ≥ {THRESHOLD_PP:.2} pp (worst: {} {:+.2} pp)",
            over.len(),
            worst.0.label(),
            worst.3
        )
    } else {
        let max = rows.first().map_or(0.0, |r| r.3.abs());
        format!("verdict: OK — max |Δ| {max:.2} pp < {THRESHOLD_PP:.2} pp")
    };
    let _ = writeln!(text, "{verdict}");

    Ok(TraceDiff { text, regression })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aum_sim::attrib::Region;

    fn sample(at_secs: f64, region: Region, compute: f64, dram: f64) -> TraceRecord {
        let mut time = CauseVec::zero();
        time.add(Cause::Compute, compute);
        time.add(Cause::MemDram, dram);
        TraceRecord {
            at: SimTime::from_secs_f64(at_secs),
            event: Event::AttributionSample {
                region,
                dt_secs: compute + dram,
                time,
                energy: time,
            },
        }
    }

    #[test]
    fn self_diff_is_zero_and_not_a_regression() {
        let trace = vec![
            sample(0.5, Region::AuHigh, 0.4, 0.1),
            sample(0.5, Region::AuLow, 0.3, 0.2),
            sample(1.0, Region::AuHigh, 0.4, 0.1),
        ];
        let diff = trace_diff(&trace, &trace).unwrap();
        assert!(!diff.regression);
        assert!(diff.text.contains("verdict: OK"), "{}", diff.text);
        assert!(diff.text.contains("3 aligned intervals") || diff.text.contains("2 aligned"));
    }

    #[test]
    fn self_diff_aligns_every_interval_of_a_trace_whose_clock_restarts() {
        // Two runs in one trace: the second restarts the sim clock at 0.5 s
        // with a different cause mix, so pairing intervals across runs
        // would show a shift.
        let mut trace = Vec::new();
        for run in [(0.9, 0.1), (0.5, 0.5)] {
            for i in 1..=4 {
                let at = f64::from(i) * 0.5;
                trace.push(sample(at, Region::AuHigh, run.0, run.1));
                trace.push(sample(at, Region::AuLow, run.1, run.0));
            }
        }
        let diff = trace_diff(&trace, &trace).unwrap();
        let head = diff.text.lines().next().unwrap();
        assert_eq!(
            head,
            "trace-diff: 8 aligned intervals (A: 8, B: 8), threshold 2.00 pp"
        );
        assert!(
            diff.text.contains("verdict: OK — max |Δ| 0.00 pp"),
            "{}",
            diff.text
        );
    }

    #[test]
    fn dram_shift_beyond_threshold_is_flagged() {
        let a = vec![sample(0.5, Region::AuHigh, 0.8, 0.2)];
        let b = vec![sample(0.5, Region::AuHigh, 0.6, 0.4)];
        let diff = trace_diff(&a, &b).unwrap();
        assert!(diff.regression);
        assert!(diff.text.contains("REGRESSION"), "{}", diff.text);
        assert!(diff.text.contains("mem-dram"), "{}", diff.text);
    }

    #[test]
    fn small_shift_respects_custom_threshold() {
        let a = vec![sample(0.5, Region::AuHigh, 0.80, 0.20)];
        let below = vec![sample(0.5, Region::AuHigh, 0.79, 0.21)];
        let above = vec![sample(0.5, Region::AuHigh, 0.77, 0.23)];
        assert!(!trace_diff(&a, &below).unwrap().regression);
        assert!(trace_diff(&a, &above).unwrap().regression);
    }

    #[test]
    fn empty_traces_error_cleanly() {
        let trace = vec![sample(0.5, Region::AuHigh, 0.8, 0.2)];
        assert!(trace_diff(&[], &trace).is_err());
        assert!(trace_diff(&trace, &[]).is_err());
    }

    #[test]
    fn disjoint_timestamps_error_cleanly() {
        let a = vec![sample(0.5, Region::AuHigh, 0.8, 0.2)];
        let b = vec![sample(1.5, Region::AuHigh, 0.8, 0.2)];
        let err = trace_diff(&a, &b).unwrap_err();
        assert!(err.contains("no aligned intervals"), "{err}");
    }

    #[test]
    fn unknown_study_is_rejected() {
        let ctx = RunCtx::new(true, Tracer::disabled());
        assert!(run_study(&ctx, "fig99").is_err());
    }
}
