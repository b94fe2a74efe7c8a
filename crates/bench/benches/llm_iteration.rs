//! Serving-iteration cost evaluation: one decode and one prefill step of
//! llama2-7b through the full op-graph + roofline + PMU pipeline, and the
//! engine's pricer on a decode iteration that keeps the last iteration's
//! batch and resources (`decode_bs16_repeat`: only the two attention
//! operators are re-priced) and on one whose resources changed
//! (`decode_bs16_new_resources`: every operator is re-priced). One
//! control interval's serving work closes the file: a 500 ms
//! `run_interval` on a warm chatbot engine, then the sensing readout
//! (`interval_sense`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use aum_au::counters::PmuCounters;
use aum_au::gemm::ExecContext;
use aum_au::unit::Precision;
use aum_llm::config::ModelConfig;
use aum_llm::cost::{iteration_cost, AuKernels, IterationPricer};
use aum_llm::engine::{EngineConfig, EngineMode, EngineResources, LlmEngine, RegionResources};
use aum_llm::ops::Phase;
use aum_llm::traces::{Scenario, TraceGenerator};
use aum_platform::spec::PlatformSpec;
use aum_platform::units::GbPerSec;
use aum_sim::rng::DetRng;
use aum_sim::time::{SimDuration, SimTime};

fn bench(c: &mut Criterion) {
    let spec = PlatformSpec::gen_a();
    let kernels = AuKernels::for_platform(&spec);
    let model = ModelConfig::llama2_7b();
    let decode_ctx = ExecContext::new(96, 3.1, spec.mem_bw);
    let prefill_ctx = ExecContext::new(96, 2.5, spec.mem_bw);
    c.bench_function("llm_iteration/decode_bs16", |b| {
        b.iter(|| {
            let mut pmu = PmuCounters::new();
            iteration_cost(
                black_box(&model),
                Phase::Decode,
                16,
                855,
                Precision::Bf16,
                &kernels,
                &decode_ctx,
                &mut pmu,
            )
        })
    });
    let mut pricer = IterationPricer::new(model.clone(), Precision::Bf16, kernels);
    let mut step = 0usize;
    c.bench_function("llm_iteration/decode_bs16_repeat", |b| {
        b.iter(|| {
            // The context grows by one token per iteration, as in serving.
            step += 1;
            let context = 855 + step % 1024;
            pricer.price(Phase::Decode, 16, black_box(context), &decode_ctx)
        })
    });
    // A new bandwidth grant on every call, as after each platform step.
    let grants = [
        decode_ctx,
        ExecContext::new(96, 3.1, GbPerSec(spec.mem_bw.value() * 0.9)),
    ];
    c.bench_function("llm_iteration/decode_bs16_new_resources", |b| {
        b.iter(|| {
            step += 1;
            pricer.price(Phase::Decode, 16, 855, black_box(&grants[step % 2]))
        })
    });
    c.bench_function("llm_iteration/prefill_755", |b| {
        b.iter(|| {
            let mut pmu = PmuCounters::new();
            iteration_cost(
                black_box(&model),
                Phase::Prefill,
                755,
                755,
                Precision::Bf16,
                &kernels,
                &prefill_ctx,
                &mut pmu,
            )
        })
    });
    // A chatbot engine one minute into its trace on AUM-style partitioned
    // regions. The bench restarts from that state every ten simulated
    // minutes, so the load stays steady however many iterations it runs.
    let scenario = Scenario::Chatbot;
    let trace = TraceGenerator::new(scenario, scenario.default_rate())
        .generate(&DetRng::from_seed(7), SimDuration::from_secs(720));
    let mut warm = LlmEngine::new(EngineConfig::paper_default(scenario), &spec, trace);
    let res = EngineResources {
        prefill: RegionResources::new(48, 2.5, GbPerSec(60.0)),
        decode: RegionResources::new(32, 3.1, GbPerSec(170.0)),
        mode: EngineMode::Partitioned,
    };
    let dt = SimDuration::from_millis(500);
    let (warm_steps, restart_steps) = (120u64, 1320u64);
    for step in 1..=warm_steps {
        let _ = warm.run_interval(SimTime::ZERO + dt * step, &res);
    }
    let (mut engine, mut step) = (warm.clone(), warm_steps);
    c.bench_function("llm_iteration/interval_sense", |b| {
        b.iter(|| {
            if step == restart_steps {
                (engine, step) = (warm.clone(), warm_steps);
            }
            step += 1;
            let stats = engine.run_interval(SimTime::ZERO + dt * step, &res);
            (stats, engine.recent_latency_quantiles())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
