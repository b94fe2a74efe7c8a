//! Characterization experiments: Table I, Fig 4, Fig 5, Table II.

use aum_au::counters::PmuCounters;
use aum_au::gemm::ExecContext;
use aum_au::topdown::{signature, SignatureKind};
use aum_au::unit::Precision;
use aum_llm::config::ModelConfig;
use aum_llm::cost::{iteration_cost, AuKernels};
use aum_llm::ops::Phase;
use aum_platform::spec::PlatformSpec;
use aum_sim::report::{fmt3, TextTable};
use aum_workloads::au_apps::{au_acceleration, AuApp};
use aum_workloads::gpu::GpuReference;

use crate::common::RunCtx;

/// Table I: hardware specifications of the evaluated platforms.
#[must_use]
pub fn table1(_ctx: &RunCtx) -> String {
    let mut t = TextTable::new([
        "Platform",
        "Generation",
        "CPU",
        "cores/sockets",
        "AVX/AMX TFLOPS",
        "Base",
        "L1I",
        "L1D",
        "L2/core",
        "LLC/socket",
        "Memory",
        "BW",
    ]);
    for s in PlatformSpec::presets() {
        t.row([
            s.name.clone(),
            s.generation.to_string(),
            s.cpu_model.clone(),
            format!("{}/{}", s.cores_per_socket, s.sockets),
            format!("{:.1}/{:.1}", s.avx_peak.value(), s.amx_peak.value()),
            format!("{:.1} GHz", s.base_freq.value()),
            format!("{} KB", s.l1i_kb),
            format!("{} KB", s.l1d_kb),
            format!("{} MB", s.l2_mb_per_core),
            format!("{} MB", s.llc_mb_per_socket),
            format!("{} {}GB", s.memory, s.memory_gb),
            format!("{:.1} GB/s", s.mem_bw.value()),
        ]);
    }
    format!(
        "Table I: hardware specifications of evaluated CPUs\n{}",
        t.render()
    )
}

/// Fig 4: AU acceleration of Faiss/Vocoder/DeepFM on GenC under different
/// dimensions, cores and batch sizes, relative to AU-disabled execution.
#[must_use]
pub fn fig4(_ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_c();
    // (app, sweep label, shown value, (dimension, cores, batch)) cells in
    // report order; `au_acceleration` is pure, so the sweep executor runs
    // them concurrently and hands results back in this exact order.
    type Fig4Cell = (AuApp, &'static str, usize, (usize, usize, usize));
    let cells: Vec<Fig4Cell> = AuApp::ALL
        .into_iter()
        .flat_map(|app| {
            let dims = [128usize, 256, 512, 1024]
                .into_iter()
                .map(move |d| (app, "dimension", d, (d, 8, 16)));
            let cores = [2usize, 8, 32, 120]
                .into_iter()
                .map(move |c| (app, "cores", c, (512, c, 16)));
            let batches = [1usize, 8, 64]
                .into_iter()
                .map(move |bs| (app, "batch", bs, (512, 8, bs)));
            dims.chain(cores).chain(batches)
        })
        .collect();
    let rows_per_app = cells.len() / AuApp::ALL.len();
    let speedups = aum_sim::exec::sweep(cells.clone(), |_, (app, _, _, (d, c, bs))| {
        au_acceleration(&spec, app, d, c, bs)
    });
    let mut out =
        String::from("Fig 4: AU acceleration of AI workloads on GenC (× vs AU-disabled)\n");
    for (app_idx, app) in AuApp::ALL.into_iter().enumerate() {
        let mut t = TextTable::new(["sweep", "value", "speedup"]);
        let base = app_idx * rows_per_app;
        for row in 0..rows_per_app {
            let (_, label, value, _) = cells[base + row];
            t.row([label.into(), value.to_string(), fmt3(speedups[base + row])]);
        }
        out.push_str(&format!("\n[{app}]\n{}", t.render()));
    }
    out
}

/// Fig 5: exclusive AU-enabled CPU vs the A100/FlexGen reference on
/// performance, performance-per-watt and performance-per-cost.
#[must_use]
pub fn fig5(_ctx: &RunCtx) -> String {
    let gpu = GpuReference::a100_flexgen();
    // Serving capacity as the paper reports it: sustained batch-16 decode
    // iteration rate (§III-B quotes 188 tokens/s for GenA), with package
    // power from a fully loaded exclusive division.
    let capacity = |spec: &PlatformSpec| -> (f64, f64) {
        let kernels = AuKernels::for_platform(spec);
        let gov = aum_platform::freq::FrequencyGovernor::for_spec(spec);
        let f_low = gov
            .license_frequency(aum_platform::topology::AuUsageLevel::Low)
            .value();
        let ctx = ExecContext::new(spec.total_cores(), f_low, spec.mem_bw * 0.95);
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &ModelConfig::llama2_7b(),
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ctx,
            &mut pmu,
        );
        let tokens_per_sec = 16.0 / cost.time.as_secs_f64();
        let mut sim = aum_platform::state::PlatformSim::new(spec.clone());
        let total = spec.total_cores();
        let f_high = gov
            .license_frequency(aum_platform::topology::AuUsageLevel::High)
            .value();
        let _ = f_high;
        let snap = sim.step(
            aum_sim::time::SimDuration::from_millis(500),
            &[
                aum_platform::state::RegionLoad::new(
                    aum_platform::topology::AuUsageLevel::High,
                    total / 3,
                    aum_platform::power::ActivityClass::Amx,
                    0.35,
                    spec.mem_bw * 0.2,
                ),
                aum_platform::state::RegionLoad::new(
                    aum_platform::topology::AuUsageLevel::Low,
                    total - total / 3,
                    aum_platform::power::ActivityClass::Avx,
                    0.95,
                    spec.mem_bw * 0.8,
                ),
            ],
        );
        (tokens_per_sec, snap.power.value())
    };
    let (a_tps, a_w) = capacity(&PlatformSpec::gen_a());
    let (c_tps, c_w) = capacity(&PlatformSpec::gen_c());
    let mut t = TextTable::new([
        "Unit",
        "tokens/s",
        "perf (norm)",
        "perf/W (norm)",
        "perf/$ (norm)",
    ]);
    let specs = [
        ("GenA", a_tps, a_w, PlatformSpec::gen_a().cost_usd),
        ("GenC", c_tps, c_w, PlatformSpec::gen_c().cost_usd),
        (
            "A100 (FlexGen)",
            gpu.tokens_per_sec,
            gpu.power_w,
            gpu.cost_usd,
        ),
    ];
    let base = specs[0];
    for (name, tps, power, cost) in specs {
        t.row([
            name.to_string(),
            format!("{tps:.0}"),
            fmt3(tps / base.1),
            fmt3((tps / power) / (base.1 / base.2)),
            fmt3((tps / cost) / (base.1 / base.3)),
        ]);
    }
    format!(
        "Fig 5: inferior performance/efficiency of exclusive AU-enabled CPU vs GPU\n\
         (paper anchors: GPU ≈2.1× GenA perf-per-watt, GPU perf-per-cost worse than GenC)\n{}",
        t.render()
    )
}

/// Table II: six LLM architectures — AMX cycle ratio, AMX µop ratio,
/// backend bound and DRAM bound, per phase, on GenA.
#[must_use]
pub fn table2(_ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let kernels = AuKernels::for_platform(&spec);
    let llama_ref = traffic_per_token(&ModelConfig::llama2_7b());
    let mut t = TextTable::new([
        "Model",
        "Size",
        "Cycle Ratio (P/D)",
        "uop Ratio (P/D)",
        "BB (P/D)",
        "DB (P/D)",
    ]);
    for model in ModelConfig::table2_models() {
        let mut pmu_p = PmuCounters::new();
        let ctx_p = ExecContext::new(96, 2.5, spec.mem_bw);
        let _ = iteration_cost(
            &model,
            Phase::Prefill,
            8192,
            512,
            Precision::Bf16,
            &kernels,
            &ctx_p,
            &mut pmu_p,
        );
        let mut pmu_d = PmuCounters::new();
        let ctx_d = ExecContext::new(96, 3.1, spec.mem_bw);
        let _ = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ctx_d,
            &mut pmu_d,
        );

        // Backend/DRAM bounds: the phase signature modulated by the model's
        // per-token traffic relative to llama2-7b (MoE streams only its
        // active experts, relieving memory pressure, §IV-A2).
        let scale = (traffic_per_token(&model) / llama_ref).powf(0.35);
        let sig_p = signature(SignatureKind::Prefill, &spec);
        let sig_d = signature(SignatureKind::Decode, &spec);
        let bb = |base: f64| (base * scale.powf(0.15)).min(0.99);
        let db = |base: f64| (base * scale).min(0.95);
        t.row([
            model.name.clone(),
            format!("{:.1}B", model.param_count() / 1e9),
            format!(
                "{:.1} / {:.1}",
                pmu_p.amx_cycle_ratio() * 100.0,
                pmu_d.amx_cycle_ratio() * 100.0
            ),
            format!(
                "{:.1} / {:.1}",
                pmu_p.amx_uop_ratio() * 100.0,
                pmu_d.amx_uop_ratio() * 100.0
            ),
            format!(
                "{:.0} / {:.0}",
                bb(sig_p.backend_bound()) * 100.0,
                bb(sig_d.backend_bound()) * 100.0
            ),
            format!(
                "{:.0} / {:.0}",
                db(sig_p.dram_bound()) * 100.0,
                db(sig_d.dram_bound()) * 100.0
            ),
        ]);
    }
    format!(
        "Table II: LLM architectures (values are Prefill / Decode percentages)\n{}",
        t.render()
    )
}

/// Weight bytes streamed per generated token (decode traffic driver).
fn traffic_per_token(model: &ModelConfig) -> f64 {
    model.streamed_weight_bytes(Precision::Bf16)
}
