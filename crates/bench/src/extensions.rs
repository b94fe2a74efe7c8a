//! Extension experiments beyond the paper's evaluation: design-choice
//! ablations (DESIGN.md §5) and the §VIII future-work directions.

use std::sync::Arc;

use aum::cluster::{run_cluster_with, ClusterConfig, RoutingPolicy};
use aum::controller::AumController;
use aum::experiment::{run_experiment, ExperimentConfig};
use aum::profiler::{build_model, default_allocations, default_divisions, ProfilerConfig};
use aum_au::counters::PmuCounters;
use aum_au::gemm::ExecContext;
use aum_au::sharing::AuTopology;
use aum_au::unit::{AuKind, AuSpec, Precision};
use aum_llm::config::ModelConfig;
use aum_llm::cost::{iteration_cost, AuKernels};
use aum_llm::ops::Phase;
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::report::{fmt3, fmt_pct, TextTable};
use aum_sim::telemetry::Tracer;
use aum_workloads::be::BeKind;

use aum_llm::traces::RateProfile;

use crate::common::{Cell, RunCtx, Scheme};

/// Fig 1 companion: the management gap. AU acceleration of key operations
/// (left side of the paper's opening figure) against the degradation that
/// AUV-oblivious managers inflict when the accelerated application is
/// shared (right side).
#[must_use]
pub fn fig1(ctx: &RunCtx) -> String {
    let gen_c = PlatformSpec::gen_c();
    let speedup = aum_workloads::au_apps::au_acceleration(
        &gen_c,
        aum_workloads::au_apps::AuApp::Faiss,
        512,
        32,
        64,
    );
    let spec = PlatformSpec::gen_a();
    let [base, smt, aum] = [Scheme::AllAu, Scheme::SmtAu, Scheme::Aum].map(|scheme| {
        let cell = Cell::new(scheme, &spec, Scenario::Chatbot, BeKind::Olap);
        ctx.cache.outcome(&cell, &ctx.tracer)
    });
    let oblivious_loss = 1.0 - smt.decode_tps / base.decode_tps;
    let aum_loss = 1.0 - aum.decode_tps / base.decode_tps;
    let mut out = String::from("Fig 1: the management gap\n");
    out.push_str(&format!(
        "- Evolving AU: AMX accelerates key operations up to {speedup:.1}x (Faiss, GenC)\n"
    ));
    out.push_str(&format!(
        "- AUV-oblivious sharing (SMT + OLAP): {:.0}% AU performance degradation\n",
        oblivious_loss * 100.0
    ));
    out.push_str("  (paper: 10-50% degradations from oblivious managers)\n");
    out.push_str(&format!(
        "- AUM closes the gap: {:.0}% degradation at {:+.1}% efficiency vs exclusive\n",
        aum_loss.max(0.0) * 100.0,
        (aum.efficiency / base.efficiency - 1.0) * 100.0,
    ));
    out
}

/// Runtime adaptation under a load step (the §IV-A3 "inherently variable"
/// arrival rates): AUM with and without online model refinement (the
/// §VII-D limitation, implemented as an extension) against the static
/// RP-AU feedback.
#[must_use]
pub fn adapt(ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let scenario = Scenario::Chatbot;
    let be = BeKind::SpecJbb;
    let model = ctx.cache.model(&spec, scenario, be, &ctx.tracer);
    let mut cfg = ExperimentConfig::paper_default(spec.clone(), scenario, Some(be));
    // Offered load steps from 0.3 to 0.51 req/s mid-run (above the
    // calibrated comfortable operating point).
    cfg.rate = Some(0.3);
    cfg.rate_profile = RateProfile::Step {
        at_secs: 150.0,
        factor: 1.7,
    };
    let mut t = TextTable::new([
        "manager",
        "efficiency",
        "TPOT guarantee",
        "TTFT guarantee",
        "division switches",
    ]);
    let mut plain = AumController::new(model.clone());
    let plain_out = run_experiment(&cfg, &mut plain);
    t.row([
        "AUM".to_string(),
        fmt3(plain_out.efficiency),
        fmt3(plain_out.slo.tpot_guarantee),
        fmt3(plain_out.slo.ttft_guarantee),
        plain.switch_count().to_string(),
    ]);
    let mut refined = AumController::new(model).with_online_refinement(0.15);
    let refined_out = run_experiment(&cfg, &mut refined);
    t.row([
        "AUM + online refinement".to_string(),
        fmt3(refined_out.efficiency),
        fmt3(refined_out.slo.tpot_guarantee),
        fmt3(refined_out.slo.ttft_guarantee),
        refined.switch_count().to_string(),
    ]);
    let mut rp = aum::baselines::RpAu::new(&spec);
    let rp_out = run_experiment(&cfg, &mut rp);
    t.row([
        "RP-AU".to_string(),
        fmt3(rp_out.efficiency),
        fmt3(rp_out.slo.tpot_guarantee),
        fmt3(rp_out.slo.ttft_guarantee),
        "-".to_string(),
    ]);
    format!(
        "Runtime adaptation: chatbot load steps 0.3 -> 0.51 req/s at t=150 s (+ SPECjbb)\n{}",
        t.render()
    )
}

/// Ablation: AUV-model bucket granularity (DESIGN.md §5.1). Sweeps the
/// profiler grid size and reports the profiling cost against the quality of
/// the AUM outcome the model supports.
#[must_use]
pub fn ablate(ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let scenario = Scenario::Chatbot;
    let be = BeKind::SpecJbb;
    let full_divs = default_divisions(&spec);
    let full_cfgs = default_allocations(&spec);
    let cell = |scheme| Cell::new(scheme, &spec, scenario, be);
    let exclusive = ctx.cache.outcome(&cell(Scheme::AllAu), &ctx.tracer);
    // The full grid is the paper-default profile the ctx caches, and its
    // AUM run is the paper-default AUM cell; only the coarser grids need
    // sweeps and runs of their own.
    let full_model = ctx.cache.model(&spec, scenario, be, &ctx.tracer);
    let mut t = TextTable::new([
        "grid (div x cfg)",
        "profiling runs",
        "AUM efficiency gain",
        "TPOT guarantee",
    ]);
    let cfg = ExperimentConfig::paper_default(spec.clone(), scenario, Some(be));
    for (divs, cfgs) in [(2usize, 2usize), (3, 3), (6, 5)] {
        let (runs, out) = if divs >= full_divs.len() && cfgs >= full_cfgs.len() {
            let out = ctx.cache.outcome(&cell(Scheme::Aum), &ctx.tracer);
            (full_model.profiling_runs, out)
        } else {
            let mut pc = ProfilerConfig::paper_default(spec.clone(), scenario, be);
            pc.divisions = full_divs.iter().copied().take(divs).collect();
            pc.allocations = full_cfgs.iter().copied().take(cfgs).collect();
            let model = build_model(&pc);
            let runs = model.profiling_runs;
            let out = run_experiment(&cfg, &mut AumController::new(Arc::new(model)));
            (runs, Arc::new(out))
        };
        t.row([
            format!("{divs} x {cfgs}"),
            runs.to_string(),
            fmt_pct(out.efficiency / exclusive.efficiency - 1.0),
            fmt3(out.slo.tpot_guarantee),
        ]);
    }
    // Value of runtime adaptation: freeze the best bucket of the full
    // model and compare against the adaptive controller.
    let static_out = run_experiment(&cfg, &mut aum::baselines::StaticBest::new(&full_model));
    let aum_out = ctx.cache.outcome(&cell(Scheme::Aum), &ctx.tracer);
    let mut t2 = TextTable::new(["manager", "efficiency gain", "TPOT guarantee"]);
    t2.row([
        "STATIC-BEST (frozen bucket)".to_string(),
        fmt_pct(static_out.efficiency / exclusive.efficiency - 1.0),
        fmt3(static_out.slo.tpot_guarantee),
    ]);
    t2.row([
        "AUM (runtime adaptation)".to_string(),
        fmt_pct(aum_out.efficiency / exclusive.efficiency - 1.0),
        fmt3(aum_out.slo.tpot_guarantee),
    ]);
    format!(
        "Ablation: AUV-model bucket granularity (chatbot + SPECjbb, GenA)\n\
         (coarser grids cost less profiling but leave efficiency or SLO quality behind)\n{}\n\
         Runtime adaptation vs hindsight static-best:\n{}",
        t.render(),
        t2.render()
    )
}

/// §VIII extension: AUV-aware cluster load balancing across the three
/// heterogeneous platforms.
#[must_use]
pub fn cluster(ctx: &RunCtx) -> String {
    let cfg = ClusterConfig::heterogeneous_demo(Scenario::Chatbot);
    // One AUV model per server, shared by every routing policy.
    let models = ctx.cache.cluster_models(&cfg, &ctx.tracer);
    let mut t = TextTable::new([
        "routing policy",
        "cluster efficiency",
        "violation rate",
        "weights (A/B/C)",
    ]);
    for policy in [
        RoutingPolicy::Uniform,
        RoutingPolicy::BandwidthProportional,
        RoutingPolicy::AuvWeighted,
    ] {
        let out = run_cluster_with(&cfg, policy, &models, &Tracer::disabled())
            .expect("the demo cluster config is valid");
        t.row([
            out.policy.clone(),
            fmt3(out.efficiency),
            fmt3(out.violation_rate),
            out.weights
                .iter()
                .map(|w| format!("{w:.2}"))
                .collect::<Vec<_>>()
                .join("/"),
        ]);
    }
    format!(
        "Cluster extension (§VIII): routing a shared fleet of GenA+GenB+GenC\n{}",
        t.render()
    )
}

/// Chunked-prefill extension (the Sarathi/DistServe direction the paper's
/// related work cites): bounding decode stalls behind long prompts in the
/// time-multiplexed deployment.
#[must_use]
pub fn chunked(_ctx: &RunCtx) -> String {
    use aum_llm::engine::{EngineConfig, EngineMode, EngineResources, LlmEngine, RegionResources};
    use aum_llm::traces::TraceGenerator;
    use aum_sim::rng::DetRng;
    use aum_sim::time::{SimDuration, SimTime};

    let spec = PlatformSpec::gen_a();
    let mut t = TextTable::new([
        "prefill mode",
        "max inter-token stall (s)",
        "wall TPOT p90 (s)",
        "TTFT p90 (s)",
    ]);
    for chunk in [None, Some(1024usize), Some(512), Some(256)] {
        let trace = TraceGenerator::new(Scenario::Summarization, 0.6)
            .generate(&DetRng::from_seed(23), SimDuration::from_secs(180));
        let mut cfg = EngineConfig::paper_default(Scenario::Summarization);
        cfg.prefill_chunk = chunk;
        let mut engine = LlmEngine::new(cfg, &spec, trace);
        let res = EngineResources {
            prefill: RegionResources::new(96, 2.5, spec.mem_bw),
            decode: RegionResources::new(96, 3.1, spec.mem_bw),
            mode: EngineMode::TimeMultiplexed,
        };
        for step in 1..=180 {
            let _ = engine.run_interval(SimTime::from_secs(step), &res);
        }
        let report = engine.slo_report();
        t.row([
            chunk.map_or("whole prompt".to_string(), |c| format!("chunk {c}")),
            fmt3(engine.max_token_gap()),
            fmt3(engine.wall_tpot_quantile(0.9)),
            fmt3(report.ttft_p90),
        ]);
    }
    format!(
        "Chunked prefill (summarization, time-multiplexed GenA): bounding decode\n\
         stalls behind 1700-token prompts\n{}",
        t.render()
    )
}

/// NUMA placement extension: what the paper's processor divisions cost or
/// save on the 2-socket platforms when region placement is NUMA-aware
/// versus naive (contiguous core ids over interleaved memory).
#[must_use]
pub fn numa(_ctx: &RunCtx) -> String {
    use aum_platform::numa::NumaConfig;
    use aum_platform::topology::ProcessorDivision;

    let mut out = String::from(
        "NUMA placement (2-socket GenA): decode capacity under division placement
",
    );
    let spec = PlatformSpec::gen_a();
    let cfg = NumaConfig::for_spec(&spec);
    let kernels = AuKernels::for_platform(&spec);
    let model = ModelConfig::llama2_7b();
    let capacity = |bw: aum_platform::units::GbPerSec| -> f64 {
        let ctx = ExecContext::new(spec.total_cores(), 3.1, bw * 0.95);
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ctx,
            &mut pmu,
        );
        16.0 / cost.time.as_secs_f64()
    };
    let mut t = TextTable::new([
        "division (H/L/N)",
        "remote frac (naive)",
        "remote frac (aware)",
        "decode tok/s (naive)",
        "decode tok/s (aware)",
    ]);
    for (h, l) in [(64, 16), (56, 24), (48, 32), (48, 24), (40, 32)] {
        let d = ProcessorDivision::new(h, l, 96 - h - l);
        let naive = cfg.naive_remote_frac();
        let aware = cfg.aware_remote_frac(&d, 96);
        t.row([
            format!("{d}"),
            fmt3(naive),
            fmt3(aware),
            format!("{:.0}", capacity(cfg.effective_bandwidth(naive))),
            format!("{:.0}", capacity(cfg.effective_bandwidth(aware))),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "(socket-aligned divisions such as H48/L24/N24 keep every access local;
         naive interleaved placement pays ~15% decode capacity on GenA)
",
    );
    out
}

/// §II-A extension: precision scaling of decode capacity (BF16 everywhere,
/// FP16 on Granite Rapids, INT8 as the quantized-serving ablation), plus
/// the SME-style shared-AU topology's cost on prefill.
#[must_use]
pub fn precision(_ctx: &RunCtx) -> String {
    let mut out =
        String::from("Precision & topology extensions: batch-16 decode capacity (tokens/s)\n");
    let mut t = TextTable::new(["platform", "BF16", "FP16", "INT8 (quantized)"]);
    for spec in PlatformSpec::presets() {
        let kernels = AuKernels::for_platform(&spec);
        let model = ModelConfig::llama2_7b();
        let cap = |prec: Precision| -> String {
            if !prec.supported_by(spec.generation) && prec != Precision::Int8 {
                return "-".to_string();
            }
            let ctx = ExecContext::new(
                spec.total_cores(),
                spec.base_freq.value(),
                spec.mem_bw * 0.95,
            );
            let mut pmu = PmuCounters::new();
            let cost = iteration_cost(
                &model,
                Phase::Decode,
                16,
                855,
                prec,
                &kernels,
                &ctx,
                &mut pmu,
            );
            format!("{:.0}", 16.0 / cost.time.as_secs_f64())
        };
        t.row([
            spec.name.clone(),
            cap(Precision::Bf16),
            cap(Precision::Fp16),
            cap(Precision::Int8),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nShared-AU topology (SME-style): prefill slowdown vs per-core AMX\n");
    let spec = PlatformSpec::gen_a();
    let amx = AuSpec::for_platform(&spec, AuKind::Amx);
    let ctx = ExecContext::new(96, 2.5, spec.mem_bw);
    let mut t = TextTable::new([
        "cores per AU",
        "prefill GEMM TFLOPS",
        "slowdown vs per-core",
    ]);
    let base = aum_au::gemm::gemm_time(
        aum_au::gemm::GemmShape::new(8192, 4096, 22016),
        Precision::Bf16,
        &amx,
        &ctx,
    );
    for cores_per_au in [1usize, 2, 4, 8] {
        let topo = if cores_per_au == 1 {
            AuTopology::PerCore
        } else {
            AuTopology::SharedCluster { cores_per_au }
        };
        let unit = topo.derate(&amx, 96, 96);
        let exec = aum_au::gemm::gemm_time(
            aum_au::gemm::GemmShape::new(8192, 4096, 22016),
            Precision::Bf16,
            &unit,
            &ctx,
        );
        t.row([
            cores_per_au.to_string(),
            format!("{:.1}", exec.achieved_tflops),
            fmt3(exec.time.as_secs_f64() / base.time.as_secs_f64()),
        ]);
    }
    out.push_str(&t.render());
    out
}
