//! Persistence of profiling artifacts and configuration types: the AUV
//! model must survive the save/load cycle a fleet deployment implies
//! (profile once on a dedicated node, ship to thousands of servers,
//! §VII-D).

use aum::baselines::RpAu;
use aum::cluster::{ClusterConfig, RoutingPolicy};
use aum::error::AumError;
use aum::experiment::{try_run_experiment_traced, ExperimentConfig};
use aum::fault::{Fault, FaultEvent, FaultPlan};
use aum::fleet::{FleetParams, NodeFault, NodeFaultEvent, NodeFaultPlan};
use aum::profiler::{build_model, AuvModel, ProfilerConfig};
use aum_llm::config::ModelConfig;
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::AuUsageLevel;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

#[test]
fn auv_model_survives_fleet_distribution() {
    let model = build_model(&ProfilerConfig::smoke(
        PlatformSpec::gen_a(),
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    let path = std::env::temp_dir().join("aum_integration_model.json");
    model.save(&path).expect("save model");
    let loaded = AuvModel::load(&path).expect("load model");
    assert_eq!(loaded.div_count, model.div_count);
    assert_eq!(loaded.cfg_count, model.cfg_count);
    assert_eq!(loaded.platform, model.platform);
    assert_eq!(loaded.scenario, model.scenario);
    for (a, b) in model.buckets.iter().zip(&loaded.buckets) {
        assert_eq!(a.division, b.division);
        assert!((a.efficiency - b.efficiency).abs() < 1e-9);
        assert!((a.power_w - b.power_w).abs() < 1e-9);
        assert!((a.tpot_p90 - b.tpot_p90).abs() < 1e-9);
    }
    // A loaded model must drive a controller identically to the original.
    let from_original = aum::controller::AumController::new(model).current_bucket();
    let from_loaded = aum::controller::AumController::new(loaded).current_bucket();
    assert_eq!(from_original, from_loaded);
    let _ = std::fs::remove_file(path);
}

#[test]
fn model_footprint_is_negligible() {
    // §VII-D: ≈15 MB for model + runtime info on a 256 GB machine; our
    // bucket table alone is a few KB.
    let model = build_model(&ProfilerConfig::smoke(
        PlatformSpec::gen_a(),
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    assert!(model.approx_size_bytes() < 15 * 1024 * 1024);
}

#[test]
fn experiment_config_round_trips_as_json() {
    let cfg = ExperimentConfig::paper_default(
        PlatformSpec::gen_c(),
        Scenario::Summarization,
        Some(BeKind::Olap),
    );
    let json = serde_json::to_string(&cfg).expect("encode");
    let back: ExperimentConfig = serde_json::from_str(&json).expect("decode");
    assert_eq!(back, cfg);
}

#[test]
fn fault_plan_round_trips_inside_a_config() {
    let mut cfg = ExperimentConfig::paper_default(
        PlatformSpec::gen_a(),
        Scenario::Chatbot,
        Some(BeKind::SpecJbb),
    );
    cfg.fault = FaultPlan::new(vec![
        FaultEvent::windowed(10.0, 50.0, Fault::BandwidthDegrade { frac: 0.6 }),
        FaultEvent::permanent(80.0, Fault::SensorNoise { sigma: 0.3 }),
        FaultEvent::permanent(
            90.0,
            Fault::FrequencyLicenseLock {
                level: AuUsageLevel::High,
            },
        ),
        FaultEvent::permanent(95.0, Fault::SensorDropout),
    ]);
    let json = serde_json::to_string(&cfg).expect("encode");
    let back: ExperimentConfig = serde_json::from_str(&json).expect("decode");
    assert_eq!(back, cfg);
}

#[test]
fn healthy_config_renders_fault_as_null() {
    let cfg = ExperimentConfig::paper_default(PlatformSpec::gen_a(), Scenario::Chatbot, None);
    let json = serde_json::to_string(&cfg).expect("encode");
    assert!(
        json.contains("\"fault\":null") || json.contains("\"fault\": null"),
        "an empty plan keeps the legacy null rendering: {json}"
    );
    let back: ExperimentConfig = serde_json::from_str(&json).expect("decode");
    assert!(back.fault.is_empty());
    assert_eq!(back, cfg);
}

#[test]
fn legacy_single_fault_configs_still_parse() {
    // Pre-FaultPlan configs carried `"fault": {"BandwidthDegrade":
    // {"at_secs": ..., "frac": ...}}` (an `Option<Fault>` with the timing
    // inside the variant). They must deserialize into a one-event plan.
    let legacy = r#"{"BandwidthDegrade":{"at_secs":120.0,"frac":0.6}}"#;
    let plan: FaultPlan = serde_json::from_str(legacy).expect("legacy decode");
    assert_eq!(plan.events.len(), 1);
    assert!((plan.events[0].at_secs - 120.0).abs() < 1e-12);
    assert_eq!(plan.events[0].recover_at_secs, None);
    assert!(
        matches!(plan.events[0].fault, Fault::BandwidthDegrade { frac } if (frac - 0.6).abs() < 1e-12)
    );

    // The same shape embedded in a full config.
    let healthy = ExperimentConfig::paper_default(PlatformSpec::gen_a(), Scenario::Chatbot, None);
    let json = serde_json::to_string(&healthy).expect("encode");
    let legacy_cfg = json.replace(
        "\"fault\":null",
        "\"fault\":{\"BandwidthDegrade\":{\"at_secs\":120.0,\"frac\":0.6}}",
    );
    assert_ne!(legacy_cfg, json, "replacement must have happened");
    let back: ExperimentConfig = serde_json::from_str(&legacy_cfg).expect("legacy config decode");
    assert_eq!(back.fault.events.len(), 1);
}

#[test]
fn malformed_fault_plans_are_rejected() {
    for bad in [
        // Negative injection time.
        r#"{"events":[{"at_secs":-1.0,"fault":{"BandwidthDegrade":{"frac":0.5}}}]}"#,
        // Out-of-range bandwidth fraction.
        r#"{"events":[{"at_secs":10.0,"fault":{"BandwidthDegrade":{"frac":1.5}}}]}"#,
        // Recovery before injection.
        r#"{"events":[{"at_secs":10.0,"recover_at_secs":5.0,"fault":"SensorDropout"}]}"#,
        // Unknown fault kind.
        r#"{"events":[{"at_secs":10.0,"fault":{"MeteorStrike":{}}}]}"#,
    ] {
        assert!(
            serde_json::from_str::<FaultPlan>(bad).is_err(),
            "must reject: {bad}"
        );
    }
}

#[test]
fn node_fault_plan_round_trips_every_kind() {
    let plan = NodeFaultPlan::new(vec![
        NodeFaultEvent::windowed(0, 20.0, 60.0, NodeFault::Crash),
        NodeFaultEvent::permanent(1, 30.0, NodeFault::Straggler { factor: 2.5 }),
        NodeFaultEvent::windowed(2, 40.0, 50.0, NodeFault::Partition),
        NodeFaultEvent::permanent(0, 90.0, NodeFault::Drain),
    ]);
    let json = serde_json::to_string(&plan).expect("encode");
    let back: NodeFaultPlan = serde_json::from_str(&json).expect("decode");
    assert_eq!(back, plan);
    // The healthy plan renders as null and decodes back from it.
    let empty: NodeFaultPlan = serde_json::from_str("null").expect("null decodes");
    assert!(empty.is_empty());
    assert_eq!(serde_json::to_string(&empty).expect("encode"), "null");
}

#[test]
fn malformed_node_fault_plans_are_rejected() {
    for bad in [
        // Negative injection time.
        r#"{"events":[{"node":0,"at_secs":-1.0,"fault":"Crash"}]}"#,
        // Straggler factor must exceed 1.
        r#"{"events":[{"node":0,"at_secs":10.0,"fault":{"Straggler":{"factor":1.0}}}]}"#,
        // Recovery before injection.
        r#"{"events":[{"node":0,"at_secs":10.0,"recover_at_secs":5.0,"fault":"Partition"}]}"#,
        // Unknown fault kind.
        r#"{"events":[{"node":0,"at_secs":10.0,"fault":{"MeteorStrike":{}}}]}"#,
    ] {
        assert!(
            serde_json::from_str::<NodeFaultPlan>(bad).is_err(),
            "must reject: {bad}"
        );
    }
}

#[test]
fn routing_policy_round_trips_every_variant() {
    for policy in [
        RoutingPolicy::Uniform,
        RoutingPolicy::BandwidthProportional,
        RoutingPolicy::AuvWeighted,
        RoutingPolicy::Failover,
    ] {
        let json = serde_json::to_string(&policy).expect("encode");
        let back: RoutingPolicy = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, policy, "{json}");
    }
}

#[test]
fn cluster_config_with_fleet_fields_round_trips() {
    let mut cfg = ClusterConfig::heterogeneous_demo(Scenario::Chatbot);
    cfg.fault_plan =
        NodeFaultPlan::single(NodeFaultEvent::windowed(1, 20.0, 80.0, NodeFault::Crash));
    cfg.fleet = FleetParams {
        epoch_secs: 2.0,
        max_retries: 5,
        ..FleetParams::default()
    };
    let json = serde_json::to_string(&cfg).expect("encode");
    let back: ClusterConfig = serde_json::from_str(&json).expect("decode");
    assert_eq!(back, cfg);
}

#[test]
fn legacy_cluster_configs_without_fleet_fields_still_parse() {
    // Pre-fleet cluster JSON carried no `fault_plan`/`fleet` keys at all.
    // Build that legacy shape by stripping the exact serialized substrings
    // of the defaults from a current config's JSON.
    let cfg = ClusterConfig::heterogeneous_demo(Scenario::Chatbot);
    let json = serde_json::to_string(&cfg).expect("encode");
    let plan_key = format!(
        ",\"fault_plan\":{}",
        serde_json::to_string(&cfg.fault_plan).expect("encode plan")
    );
    let fleet_key = format!(
        ",\"fleet\":{}",
        serde_json::to_string(&cfg.fleet).expect("encode fleet")
    );
    let legacy = json.replace(&plan_key, "").replace(&fleet_key, "");
    assert_ne!(legacy, json, "both fleet fields must have been stripped");
    assert!(!legacy.contains("fault_plan") && !legacy.contains("\"fleet\""));
    let back: ClusterConfig = serde_json::from_str(&legacy).expect("legacy cluster decode");
    assert!(back.fault_plan.is_empty(), "missing plan means healthy");
    assert_eq!(back, cfg, "defaults must reconstruct the modern config");
}

#[test]
fn partial_fleet_params_fall_back_to_documented_defaults() {
    // A hand-edited config naming only some fields: the untouched ones
    // decode as zero and normalize to the documented defaults at run time.
    let partial: FleetParams =
        serde_json::from_str(r#"{"epoch_secs":2.0,"max_retries":7}"#).expect("partial decode");
    assert_eq!(partial.epoch_secs, 2.0);
    assert_eq!(partial.max_retries, 7);
    let norm = partial.normalized();
    assert_eq!(norm.epoch_secs, 2.0);
    assert_eq!(norm.max_retries, 7);
    assert_eq!(
        norm.down_after_misses,
        FleetParams::default().down_after_misses
    );
    assert_eq!(norm.shed_headroom, FleetParams::default().shed_headroom);
}

/// Saves a smoke model after `corrupt` edits it, loads it back, and
/// returns the `AumError::Config` message `load` must give.
fn load_error_after(name: &str, corrupt: impl FnOnce(&mut AuvModel)) -> String {
    let mut model = build_model(&ProfilerConfig::smoke(
        PlatformSpec::gen_a(),
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    corrupt(&mut model);
    let path = std::env::temp_dir().join(format!("aum_unservable_model_{name}.json"));
    model.save(&path).expect("save model");
    let loaded = AuvModel::load(&path);
    let _ = std::fs::remove_file(path);
    match loaded {
        Err(AumError::Config(msg)) => msg,
        other => panic!("{name}: expected a config error, got {other:?}"),
    }
}

#[test]
fn a_model_with_a_null_efficiency_is_a_config_error() {
    // A NaN saves as `null`, which decodes back into the f64 as NaN.
    let msg = load_error_after("null_efficiency", |m| m.buckets[1].efficiency = f64::NAN);
    assert!(msg.contains("bucket 1: efficiency"), "{msg}");
}

#[test]
fn a_model_without_divisions_is_a_config_error() {
    let msg = load_error_after("zero_divisions", |m| m.div_count = 0);
    assert!(msg.contains("div_count is 0"), "{msg}");
}

#[test]
fn a_model_whose_grid_outruns_its_buckets_is_a_config_error() {
    let msg = load_error_after("short_grid", |m| m.cfg_count = 9);
    assert!(msg.contains("div_count x cfg_count"), "{msg}");
}

#[test]
fn unusable_model_and_platform_fields_are_config_errors() {
    let gen_a = PlatformSpec::gen_a();
    let json = serde_json::to_string(&ExperimentConfig::paper_default(
        gen_a.clone(),
        Scenario::Chatbot,
        Some(BeKind::SpecJbb),
    ))
    .expect("config encodes");
    // Each edit used to panic the run or return a meaningless efficiency.
    for (from, to, field) in [
        ("\"n_heads\":32", "\"n_heads\":0", "model.n_heads"),
        ("\"layers\":32", "\"layers\":0", "model.layers"),
        ("\"d_model\":4096", "\"d_model\":0", "model.d_model"),
        ("\"sockets\":2", "\"sockets\":0", "platform.sockets"),
        (
            "\"cores_per_socket\":48",
            "\"cores_per_socket\":0",
            "platform.cores_per_socket",
        ),
        ("\"mem_bw\":233.8", "\"mem_bw\":0.0", "platform.mem_bw"),
        (
            "\"memory_gb\":1024",
            "\"memory_gb\":8",
            "platform.memory_gb",
        ),
        ("\"alpha\":1.8", "\"alpha\":null", "prices.alpha"),
        ("\"beta\":0.2", "\"beta\":-1.0", "prices.beta"),
    ] {
        assert!(json.contains(from), "{from} not in {json}");
        let mut cfg: ExperimentConfig =
            serde_json::from_str(&json.replace(from, to)).expect("edited config decodes");
        cfg.duration = SimDuration::from_secs(5);
        let run = std::panic::catch_unwind(|| {
            try_run_experiment_traced(&cfg, &mut RpAu::new(&gen_a), Tracer::disabled())
        });
        match run {
            Ok(Err(AumError::Config(msg))) => assert!(msg.starts_with(field), "{field}: {msg}"),
            Ok(other) => panic!(
                "{field}: expected a config error, got {:?}",
                other.map(|o| o.efficiency)
            ),
            Err(_) => panic!("{field}: the run panicked"),
        }
    }
    // Every platform preset serves every Table II model.
    for platform in PlatformSpec::presets() {
        for model in ModelConfig::table2_models() {
            let mut cfg = ExperimentConfig::paper_default(
                platform.clone(),
                Scenario::Chatbot,
                Some(BeKind::SpecJbb),
            );
            cfg.model = model;
            cfg.duration = SimDuration::from_millis(500);
            if let Err(e) =
                try_run_experiment_traced(&cfg, &mut RpAu::new(&platform), Tracer::disabled())
            {
                panic!("{} on {}: {e}", cfg.model.name, platform.name);
            }
        }
    }
}

#[test]
fn corrupted_model_is_rejected() {
    let path = std::env::temp_dir().join("aum_corrupt_model.json");
    std::fs::write(&path, "{ not valid json").expect("write");
    let err = AuvModel::load(&path).unwrap_err();
    assert!(format!("{err}").contains("encoding"), "got: {err}");
    let _ = std::fs::remove_file(path);
}
