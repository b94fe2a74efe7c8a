//! End-to-end telemetry integration: a short traced co-location streams
//! through a [`JsonlSink`], re-parses losslessly, and stays causally
//! consistent with the controller's own counters.

use std::fs;

use aum::controller::AumController;
use aum::experiment::{try_run_experiment_traced, ExperimentConfig};
use aum::profiler::{build_model, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::{parse_jsonl, Event, JsonlSink, OrderingSink, Tracer};
use aum_sim::{SimDuration, SimTime};
use aum_workloads::be::BeKind;

#[test]
fn short_colocation_trace_is_consistent_and_lossless() {
    let spec = PlatformSpec::gen_a();
    let scenario = Scenario::Chatbot;
    let be = BeKind::SpecJbb;

    let model = build_model(&ProfilerConfig::smoke(spec.clone(), scenario, be));
    let mut controller = AumController::new(model);

    let mut cfg = ExperimentConfig::paper_default(spec, scenario, Some(be));
    cfg.duration = SimDuration::from_secs(60);

    let path =
        std::env::temp_dir().join(format!("aum-telemetry-trace-{}.jsonl", std::process::id()));
    let sink = OrderingSink::new(JsonlSink::create(&path).expect("create trace file"));
    // `try_run_experiment_traced` flushes the tracer before returning, so
    // the file is complete even while the sink is still alive.
    let outcome = try_run_experiment_traced(&cfg, &mut controller, Tracer::new(sink))
        .expect("a paper-default config runs");

    let text = fs::read_to_string(&path).expect("read trace back");
    let _ = fs::remove_file(&path);
    let records = parse_jsonl(&text).expect("trace parses");
    assert!(!records.is_empty(), "traced run produced no events");

    // Sim time is monotonic (non-decreasing) across the whole stream.
    for pair in records.windows(2) {
        assert!(
            pair[0].at <= pair[1].at,
            "time went backwards: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }

    // Every controller action surfaced exactly once as a decision event.
    let decisions = records
        .iter()
        .filter(|r| matches!(r.event, Event::ControllerDecision { .. }))
        .count() as u64;
    assert_eq!(
        decisions,
        controller.switch_count() + controller.tune_count(),
        "decision events must match the controller's own counters"
    );
    assert!(
        decisions > 0,
        "a 60s co-location run should decide at least once"
    );

    // The run exercised every layer of the stack.
    for expected in [
        "RequestAdmitted",
        "IterationCompleted",
        "ControllerDecision",
    ] {
        assert!(
            records.iter().any(|r| r.event.kind_label() == expected),
            "missing {expected} events"
        );
    }

    // Decision reasons are populated, never empty strings.
    for r in &records {
        if let Event::ControllerDecision { reason, action, .. } = &r.event {
            assert!(!reason.is_empty() && !action.is_empty());
        }
    }

    // Lossless round-trip: serialize the parsed records again and compare.
    let rewritten: String = records.iter().map(|r| r.to_jsonl() + "\n").collect();
    let reparsed = parse_jsonl(&rewritten).expect("re-serialized trace parses");
    assert_eq!(records, reparsed, "the JSONL round trip must be lossless");

    // The registry is snapshotted once, at the end of the run, and agrees
    // exactly with the outcome's own accounting.
    let metrics = &outcome.metrics;
    assert_eq!(metrics.at, SimTime::ZERO + cfg.duration);
    assert_eq!(metrics.counters["decode_tokens"], outcome.slo.tokens as u64);
    assert_eq!(metrics.counters["requests_completed"], outcome.completed);
    // The last interval's package power, read back from its modeled
    // energy: at a 0.5 s interval the multiply and the divide are exact.
    let last = outcome.ledger.intervals.last().expect("ledger intervals");
    assert_eq!(
        metrics.gauges["power_w"].to_bits(),
        (last.energy_j / last.dt_secs).to_bits()
    );
}

/// `Tracer::emit` with no sink must short-circuit before constructing the
/// event, so a `NullSink`-free disabled tracer and an attached `NullSink`
/// both stay within noise of each other on the full hot loop. The bound is
/// deliberately generous (2×) — this is a correctness guard against
/// accidentally doing per-event work when tracing is off, not a precise
/// regression benchmark (that lives in `benches/telemetry_overhead.rs`).
#[test]
fn null_sink_tracing_stays_within_noise_of_disabled() {
    use std::time::Instant;

    use aum::baselines::AllAu;
    use aum_sim::telemetry::NullSink;

    let mut cfg = ExperimentConfig::paper_default(PlatformSpec::gen_a(), Scenario::Chatbot, None);
    cfg.duration = SimDuration::from_secs(10);

    let run = |tracer: &Tracer| {
        let mut mgr = AllAu::new(&cfg.platform);
        try_run_experiment_traced(&cfg, &mut mgr, tracer.clone())
            .expect("a paper-default config runs")
            .efficiency
    };
    let median = |tracer: &Tracer| -> f64 {
        let mut xs: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(run(tracer));
                t.elapsed().as_secs_f64()
            })
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs[xs.len() / 2]
    };

    let _warmup = median(&Tracer::disabled());
    let disabled = median(&Tracer::disabled());
    let null = median(&Tracer::new(NullSink));
    assert!(
        null <= disabled * 2.0 + 0.01,
        "NullSink run {null:.4}s vs disabled {disabled:.4}s exceeds the noise bound"
    );
}
