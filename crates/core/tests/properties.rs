//! Property-based tests of AUM itself: the controller must emit valid
//! decisions for *any* telemetry the harness could produce, and the
//! efficiency objective must behave like a proper objective.

use proptest::prelude::*;

use aum::baselines::AllAu;
use aum::controller::AumController;
use aum::error::AumError;
use aum::experiment::{
    run_experiment, try_run_experiment_traced, ExperimentConfig, Fault, FaultEvent, FaultPlan,
};
use aum::manager::{ResourceManager, SystemState};
use aum::prices::{e_cpu, Prices};
use aum::profiler::{build_model, AuvModel, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_sim::time::{SimDuration, SimTime};
use aum_workloads::be::BeKind;

fn smoke_model() -> AuvModel {
    build_model(&ProfilerConfig::smoke(
        PlatformSpec::gen_a(),
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ))
}

fn arbitrary_state() -> impl Strategy<Value = SystemState> {
    (
        0u64..10_000,    // now (ms)
        0usize..50,      // queue_len
        0u64..5_000,     // head_wait (ms)
        0usize..17,      // decode_batch
        -10.0f64..10.0,  // worst_lag
        0.0f64..10.0,    // ttft p50
        0.0f64..10.0,    // ttft p90 extra
        0.0f64..1.0,     // tpot p50
        0.0f64..1.0,     // tpot p90 extra
        100.0f64..400.0, // power
        0.0f64..1.0,     // bw util
    )
        .prop_map(
            |(now, q, wait, batch, lag, t50, t90x, p50, p90x, power, bw)| SystemState {
                now: SimTime::from_millis(now),
                scenario: Scenario::Chatbot,
                be: Some(BeKind::SpecJbb),
                queue_len: q,
                head_wait: SimDuration::from_millis(wait),
                decode_batch: batch,
                worst_lag_secs: lag,
                recent_ttft_p50: t50,
                recent_ttft_p90: t50 + t90x,
                recent_tpot_p50: p50,
                recent_tpot_p90: p50 + p90x,
                power_w: power,
                bw_utilization: bw,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn controller_survives_arbitrary_telemetry(states in prop::collection::vec(arbitrary_state(), 1..40)) {
        let mut controller = AumController::new(smoke_model());
        let spec = PlatformSpec::gen_a();
        for state in &states {
            let d = controller.decide(state);
            prop_assert_eq!(d.division.total_cores(), spec.total_cores());
            prop_assert!(d.allocation.au.llc_ways >= 1);
            prop_assert!(d.allocation.shared.llc_ways >= 1);
            prop_assert!(d.allocation.au.mem_bw_frac > 0.0 && d.allocation.au.mem_bw_frac <= 1.0);
            prop_assert!(!d.smt_sharing, "AUM partitions spatially");
        }
    }

    #[test]
    fn e_cpu_is_monotone_in_performance_and_antitone_in_power(
        p_h in 0.0f64..2000.0,
        p_l in 0.0f64..500.0,
        p_n in 0.0f64..1e7,
        w1 in 100.0f64..500.0,
        w2 in 100.0f64..500.0,
    ) {
        let prices = Prices::paper_default();
        let gamma = Prices::gamma(BeKind::SpecJbb);
        let base = e_cpu(prices, p_h, p_l, gamma, p_n, w1);
        prop_assert!(e_cpu(prices, p_h + 1.0, p_l, gamma, p_n, w1) > base);
        prop_assert!(e_cpu(prices, p_h, p_l + 1.0, gamma, p_n, w1) > base);
        prop_assert!(e_cpu(prices, p_h, p_l, gamma, p_n + 1.0, w1) > base);
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        prop_assert!(e_cpu(prices, p_h, p_l, gamma, p_n, hi) <= e_cpu(prices, p_h, p_l, gamma, p_n, lo));
    }

    #[test]
    fn best_bucket_is_always_in_range(ttft in 1e-4f64..100.0, tpot in 1e-4f64..10.0) {
        let model = smoke_model();
        let (d, c) = model.best_bucket(ttft, tpot);
        prop_assert!(d < model.div_count);
        prop_assert!(c < model.cfg_count);
        // And the pick is never strictly dominated on all three axes by
        // another bucket (Pareto sanity of the switcher).
        let chosen = model.bucket(d, c);
        for b in &model.buckets {
            let dominates = b.efficiency > chosen.efficiency + 1e-12
                && b.ttft_p90 < chosen.ttft_p90 - 1e-12
                && b.tpot_p90 < chosen.tpot_p90 - 1e-12;
            prop_assert!(!dominates, "switcher picked a dominated bucket");
        }
    }

    #[test]
    fn deeper_bandwidth_faults_never_improve_slos(seed in 0u64..4, frac_hi in 0.70f64..0.95) {
        // Monotonicity of the fault plane: a strictly worse bandwidth
        // collapse (well-separated fractions, same injection time) must not
        // yield a better decode SLO under a static manager. Short runs and
        // few cases keep this affordable.
        let spec = PlatformSpec::gen_a();
        let frac_lo = frac_hi - 0.35;
        let faulted = |frac: f64| {
            let mut cfg = ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, None);
            cfg.duration = SimDuration::from_secs(60);
            cfg.seed = 42 + seed;
            cfg.fault = FaultPlan::single(FaultEvent::permanent(
                15.0,
                Fault::BandwidthDegrade { frac },
            ));
            run_experiment(&cfg, &mut AllAu::new(&spec))
        };
        let milder = faulted(frac_hi);
        let deeper = faulted(frac_lo);
        prop_assert!(
            deeper.slo.tpot_guarantee <= milder.slo.tpot_guarantee + 1e-9,
            "deeper fault {} must not beat milder {} on TPOT guarantee: {} vs {}",
            frac_lo, frac_hi, deeper.slo.tpot_guarantee, milder.slo.tpot_guarantee
        );
        prop_assert!(
            deeper.decode_tps <= milder.decode_tps * 1.02 + 1e-9,
            "deeper fault must not serve meaningfully more decode tokens: {} vs {}",
            deeper.decode_tps, milder.decode_tps
        );
    }

    #[test]
    fn feasible_set_shrinks_with_budgets(t1 in 0.01f64..10.0, t2 in 0.01f64..10.0, p in 0.01f64..1.0) {
        let model = smoke_model();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let tight: Vec<_> = model.feasible(lo, p).collect();
        let loose: Vec<_> = model.feasible(hi, p).collect();
        prop_assert!(tight.len() <= loose.len());
        for cell in &tight {
            prop_assert!(loose.contains(cell));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A decodable config must never panic or hang a run: the interval,
    // duration and rate either run to an outcome or are rejected up front
    // with the typed config error.
    #[test]
    fn arbitrary_timing_and_rate_run_or_fail_typed(
        interval_ms in prop_oneof![Just(0u64), 1u64..1000],
        duration_ms in prop_oneof![Just(0u64), 0u64..1000, 1000u64..3000],
        rate in prop_oneof![
            Just(None),
            Just(Some(0.0)),
            Just(Some(f64::NAN)),
            Just(Some(f64::INFINITY)),
            Just(Some(f64::NEG_INFINITY)),
            (-10.0f64..0.0).prop_map(Some),
            (0.01f64..5.0).prop_map(Some),
        ],
    ) {
        let mut cfg = ExperimentConfig::paper_default(PlatformSpec::gen_a(), Scenario::Chatbot, None);
        cfg.control_interval = SimDuration::from_millis(interval_ms);
        cfg.duration = SimDuration::from_millis(duration_ms);
        cfg.rate = rate;
        let valid = interval_ms > 0
            && duration_ms >= interval_ms
            && rate.is_none_or(|r| r.is_finite() && r > 0.0);
        let mut mgr = AllAu::new(&cfg.platform);
        match try_run_experiment_traced(&cfg, &mut mgr, Tracer::disabled()) {
            Ok(_) => prop_assert!(valid, "an invalid config ran"),
            Err(AumError::Config(e)) => prop_assert!(!valid, "a valid config was rejected: {}", e),
            Err(e) => prop_assert!(false, "unexpected error: {}", e),
        }
    }
}
