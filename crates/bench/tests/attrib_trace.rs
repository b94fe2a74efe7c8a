//! End-to-end attribution acceptance: same-seed traces self-diff to zero,
//! an injected bandwidth fault shifts attribution toward memory-bound
//! causes past the default regression threshold, and `repro attrib`
//! studies render conservation verdicts, blame lines and Prometheus
//! output.

use aum::baselines::RpAu;
use aum::experiment::{try_run_experiment_traced, ExperimentConfig, Fault, FaultEvent, FaultPlan};
use aum_bench::attribution::{run_study, trace_diff, DEFAULT_THRESHOLD_PP};
use aum_bench::common::RunCtx;
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::{Event, MemorySink, OrderingSink, TraceRecord, Tracer};
use aum_sim::SimDuration;
use aum_workloads::be::BeKind;

/// A short traced co-location under a model-free manager (no profiler
/// sweep), returning the full ordered record stream.
fn traced_run(fault: FaultPlan) -> Vec<TraceRecord> {
    let spec = PlatformSpec::gen_a();
    let mut cfg =
        ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, Some(BeKind::Olap));
    cfg.duration = SimDuration::from_secs(30);
    cfg.fault = fault;
    let mut mgr = RpAu::new(&spec);
    let (tracer, sink) = Tracer::shared(OrderingSink::new(MemorySink::new()));
    try_run_experiment_traced(&cfg, &mut mgr, tracer).expect("conservation must hold");
    let records = sink
        .lock()
        .expect("trace sink lock")
        .inner()
        .records()
        .to_vec();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, Event::AttributionSample { .. })),
        "traced run must emit attribution samples"
    );
    records
}

#[test]
fn same_seed_traces_diff_to_exactly_zero() {
    let a = traced_run(FaultPlan::none());
    let b = traced_run(FaultPlan::none());
    let diff = trace_diff(&a, &b, DEFAULT_THRESHOLD_PP).expect("diff aligns");
    assert!(
        !diff.regression,
        "same seed must not regress:\n{}",
        diff.text
    );
    assert!(diff.text.contains("verdict: OK"), "{}", diff.text);
    assert!(
        diff.text.contains("max |Δ| 0.00 pp"),
        "same-seed delta must be exactly zero:\n{}",
        diff.text
    );
}

#[test]
fn bandwidth_fault_shifts_attribution_toward_memory() {
    let healthy = traced_run(FaultPlan::none());
    let degraded = traced_run(FaultPlan::single(FaultEvent::permanent(
        5.0,
        Fault::BandwidthDegrade { frac: 0.3 },
    )));
    let diff = trace_diff(&healthy, &degraded, DEFAULT_THRESHOLD_PP).expect("diff aligns");
    assert!(
        diff.regression,
        "a 45% bandwidth loss must shift attribution past {DEFAULT_THRESHOLD_PP} pp:\n{}",
        diff.text
    );
    assert!(diff.text.contains("REGRESSION"), "{}", diff.text);
    // The flagged causes include a memory-bound one growing under the fault.
    let flagged_memory_growth = diff.text.lines().any(|l| {
        l.contains("**")
            && l.contains('+')
            && (l.contains("mem-dram") || l.contains("mem-llc") || l.contains("be-contention"))
    });
    assert!(
        flagged_memory_growth,
        "expected a positive memory-bound shift flagged:\n{}",
        diff.text
    );
}

#[test]
fn attrib_study_reports_conservation_blame_and_prometheus() {
    let ctx = RunCtx::new(true, Tracer::disabled());
    let report = run_study(&ctx, "fig14").expect("fig14 quick study runs");
    assert!(report.text.contains("conservation: OK"), "{}", report.text);
    assert!(report.text.contains("perf/W blame"), "{}", report.text);
    assert!(report.text.contains("SLO breach"), "{}", report.text);
    assert!(
        report.text.contains("time attribution") && report.text.contains("energy attribution"),
        "{}",
        report.text
    );
    for needle in [
        "aum_attrib_wall_seconds",
        "aum_attrib_energy_joules",
        "aum_attrib_seconds_total{region=\"au-low\"",
        "aum_attrib_joules_total{region=\"uncore\"",
        "# TYPE aum_attrib_seconds_total counter",
    ] {
        assert!(report.prom.contains(needle), "prom missing {needle}");
    }
}
