//! Failure-injection tests: the managed system must degrade gracefully
//! under scripted platform faults — a bandwidth collapse, a cooling loss,
//! a pinned frequency license, corrupted sensors — and the AUM controller
//! must *react* (return resources, distrust sensors, enter safe mode)
//! rather than keep harvesting into the wall.

use aum::baselines::{AllAu, StaticBest};
use aum::controller::AumController;
use aum::experiment::{
    run_experiment, try_run_experiment_traced, ExperimentConfig, Fault, FaultEvent, FaultPlan,
    Outcome,
};
use aum::profiler::{build_model, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::AuUsageLevel;
use aum_sim::telemetry::{Event, MemorySink, RegionClass, TraceRecord, Tracer};
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

fn cfg_with(be: Option<BeKind>, secs: u64, fault: FaultPlan) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(PlatformSpec::gen_a(), Scenario::Chatbot, be);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.fault = fault;
    cfg
}

/// Runs `cfg` under ALL-AU and returns the outcome with its full trace.
fn traced_all_au(cfg: &ExperimentConfig) -> (Outcome, Vec<TraceRecord>) {
    let (tracer, sink) = Tracer::shared(MemorySink::new());
    let out = try_run_experiment_traced(cfg, &mut AllAu::new(&cfg.platform), tracer)
        .expect("a valid fault plan runs");
    let records = sink.lock().expect("sink lock").records().to_vec();
    (out, records)
}

/// The Low region's frequency in each control interval as
/// `(interval start in s, GHz)`, rebuilt from the trace: the platform
/// emits `FreqTransition` at an interval's start when the frequency moves
/// by more than 1 MHz, so the value holds between events. Before the
/// first event it is that event's `from_ghz`.
fn low_freq_per_interval(out: &Outcome, records: &[TraceRecord]) -> Vec<(f64, f64)> {
    let transitions: Vec<_> = records
        .iter()
        .filter_map(|r| match r.event {
            Event::FreqTransition {
                region: RegionClass::Low,
                from_ghz,
                to_ghz,
            } => Some((r.at, from_ghz, to_ghz)),
            _ => None,
        })
        .collect();
    let mut freq = transitions
        .first()
        .map_or(out.metrics.gauges["freq_low_ghz"], |t| t.1);
    let mut pending = transitions.iter().peekable();
    let per_interval: Vec<_> = out
        .ledger
        .intervals
        .iter()
        .map(|iv| {
            while let Some(&(_, _, to_ghz)) = pending.next_if(|t| t.0 <= iv.at) {
                freq = to_ghz;
            }
            (iv.at.as_secs_f64(), freq)
        })
        .collect();
    let last = per_interval.last().expect("one ledger row per interval").1;
    assert!(
        (last - out.metrics.gauges["freq_low_ghz"]).abs() <= 1e-3,
        "the rebuilt frequency ends at the final gauge"
    );
    per_interval
}

/// Memory RAS event at t=120 s: pool collapses to 60% of spec.
fn bw_fault_cfg(be: Option<BeKind>) -> ExperimentConfig {
    cfg_with(
        be,
        240,
        FaultPlan::single(FaultEvent::permanent(
            120.0,
            Fault::BandwidthDegrade { frac: 0.6 },
        )),
    )
}

#[test]
fn bandwidth_fault_degrades_exclusive_serving() {
    let spec = PlatformSpec::gen_a();
    let healthy = run_experiment(
        &ExperimentConfig {
            fault: FaultPlan::none(),
            ..bw_fault_cfg(None)
        },
        &mut AllAu::new(&spec),
    );
    let faulted = run_experiment(&bw_fault_cfg(None), &mut AllAu::new(&spec));
    assert!(
        faulted.slo.tpot_guarantee < healthy.slo.tpot_guarantee,
        "a 40% bandwidth loss must cost decode SLOs: {} vs {}",
        faulted.slo.tpot_guarantee,
        healthy.slo.tpot_guarantee
    );
    // The system keeps serving — degradation, not collapse.
    assert!(faulted.decode_tps > healthy.decode_tps * 0.5);
}

#[test]
fn aum_reacts_to_the_fault_where_static_best_cannot() {
    let spec = PlatformSpec::gen_a();
    let model = build_model(&ProfilerConfig::paper_default(
        spec.clone(),
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    let cfg = bw_fault_cfg(Some(BeKind::SpecJbb));

    let mut aum = AumController::new(model.clone());
    let aum_out = run_experiment(&cfg, &mut aum);
    // The controller must visibly respond after the fault: tuning steps
    // and/or division switches happen (the fault makes measured TPOT
    // violate the profiled expectations).
    assert!(
        aum.tune_count() + aum.switch_count() > 0,
        "the controller must react to the bandwidth collapse"
    );

    let static_out = run_experiment(&cfg, &mut StaticBest::new(&model));
    // AUM's post-fault response (returning harvested bandwidth to the AU
    // class) must not leave it behind the frozen configuration on SLOs.
    assert!(
        aum_out.slo.tpot_guarantee >= static_out.slo.tpot_guarantee - 0.1,
        "AUM {} vs STATIC-BEST {}",
        aum_out.slo.tpot_guarantee,
        static_out.slo.tpot_guarantee
    );
}

#[test]
fn thermal_runaway_throttles_then_recovers() {
    let spec = PlatformSpec::gen_a();
    // Cooling fails at t=60 s and is restored at t=150 s.
    let plan = FaultPlan::single(FaultEvent::windowed(
        60.0,
        150.0,
        Fault::ThermalRunaway { severity: 1.5 },
    ));
    let healthy = run_experiment(
        &cfg_with(None, 240, FaultPlan::none()),
        &mut AllAu::new(&spec),
    );
    let (faulted, records) = traced_all_au(&cfg_with(None, 240, plan));
    // The throttle is visible in the decode-region frequency telemetry
    // during the fault window (reservoirs heat within a few seconds)...
    let min_in_window = low_freq_per_interval(&faulted, &records)
        .into_iter()
        .filter(|(t, _)| (70.0..150.0).contains(t))
        .map(|(_, f)| f)
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_in_window < 2.9,
        "cooling loss must throttle the Low region below its license: {min_in_window}"
    );
    // ...and releases after cooling is restored (hysteresis + decay lag).
    let end_freq = faulted.metrics.gauges["freq_low_ghz"];
    assert!(
        end_freq > 3.0,
        "throttle must release after recovery: {end_freq}"
    );
    // Latency absorbs the hit; the offered load keeps being served.
    assert!(
        faulted.slo.ttft_p90 > healthy.slo.ttft_p90,
        "throttled prefill must stretch the TTFT tail: {} vs {}",
        faulted.slo.ttft_p90,
        healthy.slo.ttft_p90
    );
    assert!(faulted.decode_tps > healthy.decode_tps * 0.9, "no collapse");
    assert!(faulted.completed > 0);
}

#[test]
fn license_lock_pins_decode_at_the_amx_curve() {
    let spec = PlatformSpec::gen_a();
    // A stuck PCU pins both AU regions to the High (slowest) license class
    // from t=30 s onward.
    let plan = FaultPlan::single(FaultEvent::permanent(
        30.0,
        Fault::FrequencyLicenseLock {
            level: AuUsageLevel::High,
        },
    ));
    let healthy = run_experiment(
        &cfg_with(None, 180, FaultPlan::none()),
        &mut AllAu::new(&spec),
    );
    let (faulted, records) = traced_all_au(&cfg_with(None, 180, plan));
    // Every post-fault interval runs the Low region at the AMX license
    // point instead of its 3.1 GHz AVX license.
    let post_fault: Vec<f64> = low_freq_per_interval(&faulted, &records)
        .into_iter()
        .filter(|(t, _)| *t >= 30.0)
        .map(|(_, f)| f)
        .collect();
    assert!(!post_fault.is_empty());
    assert!(
        post_fault.iter().all(|f| *f < 2.6),
        "decode must be pinned below the AMX license once locked"
    );
    let healthy_freq = healthy.metrics.gauges["freq_low_ghz"];
    assert!(healthy_freq > 3.0, "healthy decode holds the AVX license");
    // Decode is bandwidth-bound on gen_a, so serving degrades gracefully
    // rather than collapsing with the frequency.
    assert!(
        faulted.decode_tps > healthy.decode_tps * 0.95,
        "bandwidth-bound decode keeps serving: {} vs {}",
        faulted.decode_tps,
        healthy.decode_tps
    );
    assert!(faulted.completed > 0);
}

#[test]
fn sensor_noise_does_not_destabilize_aum() {
    let spec = PlatformSpec::gen_a();
    let model = build_model(&ProfilerConfig::paper_default(
        spec,
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    // Heavy lognormal noise on every controller input from t=30 s.
    let plan = FaultPlan::single(FaultEvent::permanent(
        30.0,
        Fault::SensorNoise { sigma: 0.8 },
    ));
    let mut clean_ctl = AumController::new(model.clone());
    let clean = run_experiment(
        &cfg_with(Some(BeKind::SpecJbb), 180, FaultPlan::none()),
        &mut clean_ctl,
    );
    let mut noisy_ctl = AumController::new(model);
    let noisy = run_experiment(&cfg_with(Some(BeKind::SpecJbb), 180, plan), &mut noisy_ctl);
    // The plausibility filter must have rejected spikes...
    assert!(
        noisy_ctl.sensor_rejections() > 0,
        "sigma=0.8 noise must trip the plausibility filter"
    );
    // ...and serving must stay in the same regime as the clean run.
    assert!(
        noisy.decode_tps > clean.decode_tps * 0.7,
        "noisy sensors must not collapse serving: {} vs {}",
        noisy.decode_tps,
        clean.decode_tps
    );
    assert!(noisy.slo.tpot_guarantee > 0.5, "decode SLOs largely hold");
}

#[test]
fn persistent_collapse_drives_aum_into_safe_mode() {
    let spec = PlatformSpec::gen_a();
    let model = build_model(&ProfilerConfig::paper_default(
        spec,
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    // A brutal, unrecoverable bandwidth collapse: no bucket can meet the
    // deadlines, breach pressure stays high, safe mode must engage.
    let plan = FaultPlan::single(FaultEvent::permanent(
        30.0,
        Fault::BandwidthDegrade { frac: 0.3 },
    ));
    let (tracer, sink) = Tracer::shared(MemorySink::new());
    let mut ctl = AumController::new(model);
    let out = try_run_experiment_traced(
        &cfg_with(Some(BeKind::SpecJbb), 180, plan),
        &mut ctl,
        tracer,
    )
    .expect("a valid fault plan runs");
    assert!(
        ctl.safe_mode_entries() >= 1,
        "persistent breach pressure must reach safe mode"
    );
    // Entry (and the degraded step before it) are visible in the trace.
    let records = sink.lock().expect("sink lock").records().to_vec();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, Event::SafeModeTransition { .. })),
        "safe-mode transitions must stream to the tracer"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, Event::FaultInjected { .. })),
        "fault injection must stream to the tracer"
    );
    // Shedding BE is graceful: serving continues on the degraded platform.
    assert!(out.completed > 0);
    assert!(out.decode_tps > 0.0);
}

#[test]
fn multi_fault_chaos_script_emits_ordered_telemetry() {
    let spec = PlatformSpec::gen_a();
    let plan = FaultPlan::new(vec![
        FaultEvent::windowed(40.0, 100.0, Fault::BandwidthDegrade { frac: 0.7 }),
        FaultEvent::windowed(60.0, 120.0, Fault::BeSurge { factor: 2.5 }),
        FaultEvent::permanent(90.0, Fault::SensorDropout),
        // Scheduled past the run window: warned about, never fired.
        FaultEvent::permanent(400.0, Fault::CoreOffline { count: 4 }),
    ]);
    let (tracer, sink) = Tracer::shared(MemorySink::new());
    let out = try_run_experiment_traced(
        &cfg_with(Some(BeKind::SpecJbb), 180, plan),
        &mut AllAu::new(&spec),
        tracer,
    )
    .expect("a valid fault plan runs");
    let records = sink.lock().expect("sink lock").records().to_vec();
    let injected: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.event, Event::FaultInjected { .. }))
        .collect();
    let recovered: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.event, Event::FaultRecovered { .. }))
        .collect();
    let warned: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.event, Event::FaultOutsideWindow { .. }))
        .collect();
    assert_eq!(
        injected.len(),
        3,
        "three in-window events fire exactly once"
    );
    assert_eq!(recovered.len(), 2, "both windowed events recover");
    assert_eq!(warned.len(), 1, "the out-of-window event is warned about");
    // Injections arrive in script order at their scheduled boundaries.
    assert!(injected[0].at <= injected[1].at && injected[1].at <= injected[2].at);
    assert!(out.completed > 0, "the chaos run still serves");
}

#[test]
fn fault_is_deterministic_too() {
    let spec = PlatformSpec::gen_a();
    let cfg = bw_fault_cfg(None);
    let a = run_experiment(&cfg, &mut AllAu::new(&spec));
    let b = run_experiment(&cfg, &mut AllAu::new(&spec));
    assert_eq!(a.decode_tps.to_bits(), b.decode_tps.to_bits());
    assert_eq!(
        a.slo.tpot_guarantee.to_bits(),
        b.slo.tpot_guarantee.to_bits()
    );
    // Sensor-noise runs are deterministic as well: the corruption stream
    // is seeded from the experiment seed.
    let noisy = cfg_with(
        None,
        120,
        FaultPlan::single(FaultEvent::permanent(
            20.0,
            Fault::SensorNoise { sigma: 0.4 },
        )),
    );
    let c = run_experiment(&noisy, &mut AllAu::new(&spec));
    let d = run_experiment(&noisy, &mut AllAu::new(&spec));
    assert_eq!(c.decode_tps.to_bits(), d.decode_tps.to_bits());
}

#[test]
fn an_event_after_the_last_boundary_is_warned_about() {
    // A 20 s run at 500 ms intervals has its last boundary at 19.5 s, so
    // an event at 19.7 s can never fire even though it precedes the end.
    let plan = FaultPlan::single(FaultEvent::permanent(
        19.7,
        Fault::BandwidthDegrade { frac: 0.5 },
    ));
    let (_, records) = traced_all_au(&cfg_with(None, 20, plan));
    let count = |pred: fn(&Event) -> bool| records.iter().filter(|r| pred(&r.event)).count();
    assert_eq!(count(|e| matches!(e, Event::FaultInjected { .. })), 0);
    assert_eq!(
        count(|e| matches!(e, Event::FaultOutsideWindow { .. })),
        1,
        "an event no boundary reaches gets one warning"
    );
}
