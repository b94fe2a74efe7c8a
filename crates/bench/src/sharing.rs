//! Sharing-deficiency experiments: Fig 9 (SMT), Fig 10 (resource
//! partitioning), Fig 12 (processor dividing), Fig 13 (LLC allocation).

use aum::calib::au_llc_penalty;
use aum::experiment::{run_experiment, ExperimentConfig};
use aum::manager::{Decision, StaticManager};
use aum_llm::engine::EngineMode;
use aum_llm::traces::Scenario;
use aum_platform::rdt::{RdtAllocation, ResourceVector};
use aum_platform::smt::smt_impact;
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::{AuUsageLevel, ProcessorDivision};
use aum_sim::report::{fmt3, TextTable};
use aum_workloads::be::{BeKind, BeProfile};

use crate::common::{Cell, RunCtx, Scheme};

/// Fig 9: variable SMT impact on AU sharing performance.
#[must_use]
pub fn fig9(ctx: &RunCtx) -> String {
    let mut out = String::from(
        "Fig 9a: SMT impact vs sharing pressure (OLAP siblings; model-level slowdowns)\n",
    );
    let olap = BeProfile::of(BeKind::Olap);
    let mut t = TextTable::new([
        "sharing frac",
        "decode mem slowdown",
        "decode port slowdown",
        "prefill mem slowdown",
        "OLAP-side slowdown",
    ]);
    for frac in [0.25, 0.5, 0.75, 1.0] {
        let low = smt_impact(olap.smt, AuUsageLevel::Low, frac);
        let high = smt_impact(olap.smt, AuUsageLevel::High, frac);
        t.row([
            format!("{frac:.2}"),
            fmt3(low.au_memory_slowdown),
            fmt3(low.au_compute_slowdown),
            fmt3(high.au_memory_slowdown),
            fmt3(low.be_slowdown),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nFig 9b: end-to-end impact of shared application types (SMT-AU vs ALL-AU)\n");
    let spec = PlatformSpec::gen_a();
    let cell = |scheme, be| Cell::new(scheme, &spec, Scenario::Chatbot, be);
    let base = ctx
        .cache
        .outcome(&cell(Scheme::AllAu, BeKind::SpecJbb), &ctx.tracer);
    let mut t = TextTable::new([
        "shared app",
        "decode tput vs ALL-AU",
        "TPOT guarantee",
        "TTFT guarantee",
        "BE rate",
    ]);
    for be in [BeKind::Compute, BeKind::Olap, BeKind::SpecJbb] {
        let out_ = ctx.cache.outcome(&cell(Scheme::SmtAu, be), &ctx.tracer);
        t.row([
            be.to_string(),
            fmt3(out_.decode_tps / base.decode_tps),
            fmt3(out_.slo.tpot_guarantee),
            fmt3(out_.slo.ttft_guarantee),
            format!("{:.0}", out_.be_rate),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Fig 10: AUV-oblivious resource partitioning — exclusive (one resource
/// partitioned) vs inclusive (all partitioned) effects on LLM serving
/// performance with SPECjbb.
#[must_use]
pub fn fig10(_ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let total = spec.total_cores();
    let division = ProcessorDivision::new(total / 2, total / 4, total - total / 2 - total / 4);
    // "Exclusive" = partition only the named resource (the others overlap).
    let variants: Vec<(&str, RdtAllocation)> = vec![
        (
            "exclusive-L2",
            RdtAllocation::new(
                ResourceVector::new(12, 16, 1.0),
                ResourceVector::new(4, 16, 1.0),
            ),
        ),
        (
            "exclusive-LLC",
            RdtAllocation::new(
                ResourceVector::new(16, 12, 1.0),
                ResourceVector::new(16, 4, 1.0),
            ),
        ),
        (
            "exclusive-MemBW",
            RdtAllocation::new(
                ResourceVector::new(16, 16, 0.8),
                ResourceVector::new(16, 16, 0.2),
            ),
        ),
        (
            "inclusive-all",
            RdtAllocation::new(
                ResourceVector::new(12, 12, 0.8),
                ResourceVector::new(4, 4, 0.2),
            ),
        ),
        ("unpartitioned", RdtAllocation::unpartitioned(&spec)),
    ];
    let cfg =
        ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, Some(BeKind::SpecJbb));
    let outcomes = aum_sim::exec::sweep(variants.iter().map(|v| v.1).collect(), |_, alloc| {
        let mut mgr = StaticManager::new(
            "rp",
            Decision {
                division,
                allocation: alloc,
                smt_sharing: false,
                engine_mode: EngineMode::Partitioned,
            },
        );
        run_experiment(&cfg, &mut mgr)
    });
    let base = &outcomes[3]; // inclusive-all
    let mut t = TextTable::new([
        "partitioning",
        "LLM latency perf (vs inclusive)",
        "TPOT guarantee",
        "BE rate (vs inclusive)",
    ]);
    for ((name, _), o) in variants.iter().zip(&outcomes) {
        t.row([
            (*name).to_string(),
            // Latency-side serving performance: inverse tail TPOT.
            fmt3(base.slo.tpot_req_p90 / o.slo.tpot_req_p90.max(1e-9)),
            fmt3(o.slo.tpot_guarantee),
            fmt3(o.be_rate / base.be_rate.max(1e-9)),
        ]);
    }
    format!(
        "Fig 10: AUV-oblivious resource partitioning impact (llama2-7b + SPECjbb, GenA)\n{}",
        t.render()
    )
}

/// Fig 12: AU application performance across processor divisions,
/// normalized to exclusive all-core performance.
#[must_use]
pub fn fig12(ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let total = spec.total_cores();
    let base = ctx.cache.outcome(
        &Cell::new(Scheme::AllAu, &spec, Scenario::Chatbot, BeKind::SpecJbb),
        &ctx.tracer,
    );
    let mut t = TextTable::new([
        "division (H/L/N)",
        "prefill tput (norm)",
        "decode tput (norm)",
        "TTFT p90 (s)",
        "TPOT req-p90 (s)",
    ]);
    for (h, l) in [
        (64, 32),
        (64, 16),
        (48, 32),
        (48, 24),
        (32, 32),
        (32, 16),
        (24, 16),
    ] {
        let division = ProcessorDivision::new(h, l, total - h - l);
        let cfg =
            ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, Some(BeKind::SpecJbb));
        let mut mgr = StaticManager::new(
            "div",
            Decision {
                division,
                allocation: RdtAllocation::new(
                    ResourceVector::new(12, 12, 0.9),
                    ResourceVector::new(4, 4, 0.1),
                ),
                smt_sharing: false,
                engine_mode: EngineMode::Partitioned,
            },
        );
        let o = run_experiment(&cfg, &mut mgr);
        t.row([
            format!("{division}"),
            fmt3(o.prefill_tps / base.prefill_tps),
            fmt3(o.decode_tps / base.decode_tps),
            fmt3(o.slo.ttft_p90),
            fmt3(o.slo.tpot_req_p90),
        ]);
    }
    format!(
        "Fig 12: AU application vs processor dividing (normalized to exclusive all-core)\n{}",
        t.render()
    )
}

/// Fig 13: AU performance vs LLC way allocation for different usages and
/// platforms (performance factor = 1 / llc penalty).
#[must_use]
pub fn fig13(_ctx: &RunCtx) -> String {
    let mut out = String::from(
        "Fig 13: AU performance vs LLC ways (normalized to all ways; cost-model factors)\n",
    );
    for spec in [PlatformSpec::gen_a(), PlatformSpec::gen_c()] {
        let mut t = TextTable::new(["LLC ways", "high-AU (prefill)", "low-AU (decode)"]);
        for ways in [1u32, 2, 4, 6, 8, 12, 16] {
            t.row([
                ways.to_string(),
                fmt3(1.0 / au_llc_penalty(&spec, AuUsageLevel::High, ways)),
                fmt3(1.0 / au_llc_penalty(&spec, AuUsageLevel::Low, ways)),
            ]);
        }
        out.push_str(&format!("\n[{}]\n{}", spec.name, t.render()));
    }
    out
}
