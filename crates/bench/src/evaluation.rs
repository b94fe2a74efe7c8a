//! Evaluation experiments: Table III, Fig 14-18.

use aum::controller::AumController;
use aum::experiment::{run_experiment, ExperimentConfig, Outcome};
use aum::profiler::ProfilerConfig;
use aum_llm::traces::Scenario;
use aum_platform::freq::FrequencyGovernor;
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::AuUsageLevel;
use aum_sim::report::{fmt3, fmt_pct, TextTable};
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

use crate::common::{scheme_outcome_cell, ModelCache, RunCtx, Scheme};

/// Runs a (scenario × co-runner × scheme) grid of scheme cells through the
/// parallel sweep executor, returning outcomes in grid order (scenario
/// major, then co-runner, then scheme) plus every cell's latency
/// histograms folded into grid-wide merged distributions, keyed by metric
/// name.
///
/// The AUV models every AUM cell needs are built serially first
/// ([`ModelCache::warm`]), so the profiler trace keeps its deterministic
/// position ahead of the per-cell streams that
/// [`aum_sim::exec::sweep_traced_hists`] merges in grid order. The
/// histogram merge runs in the same canonical cell order, so — like the
/// trace stream — the merged histograms are byte-identical for any worker
/// count.
///
/// Fig 14/16/17 run this at paper scale; the parallel-determinism suite
/// drives the *same* code path at reduced duration, which is why the
/// duration override lives here.
pub fn scheme_grid_hists(
    spec: &PlatformSpec,
    scenarios: &[Scenario],
    bes: &[BeKind],
    schemes: &[Scheme],
    duration: Option<SimDuration>,
    cache: &ModelCache,
    tracer: &Tracer,
) -> (
    Vec<Outcome>,
    std::collections::BTreeMap<String, aum_sim::LogHistogram>,
) {
    if schemes.contains(&Scheme::Aum) {
        cache.warm(
            scenarios
                .iter()
                .flat_map(|&sc| bes.iter().map(move |&be| (spec, sc, be))),
            tracer,
        );
    }
    let cells: Vec<(Scenario, BeKind, Scheme)> = scenarios
        .iter()
        .flat_map(|&sc| {
            bes.iter()
                .flat_map(move |&be| schemes.iter().map(move |&s| (sc, be, s)))
        })
        .collect();
    aum_sim::exec::sweep_traced_hists(tracer, cells, |_, (sc, be, scheme), tracer| {
        let o = scheme_outcome_cell(scheme, spec, sc, be, None, duration, cache, &tracer);
        let hists = vec![
            ("ttft_seconds".to_string(), o.slo.ttft_hist.clone()),
            (
                "tpot_request_seconds".to_string(),
                o.slo.tpot_req_hist.clone(),
            ),
        ];
        (o, hists)
    })
}

/// Table III: an example bucket of the AUV model — per-usage-level core
/// ranges, frequencies, resource tuple, and average/tail performance.
#[must_use]
pub fn table3(ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let model = ctx
        .cache
        .model(&spec, Scenario::Chatbot, BeKind::SpecJbb, &ctx.tracer);
    let slo = Scenario::Chatbot.slo();
    let (d, c) = model.best_bucket(slo.ttft.as_secs_f64(), slo.tpot.as_secs_f64());
    let bucket = model.bucket(d, c);
    let gov = FrequencyGovernor::for_spec(&spec);
    let div = bucket.division;
    let mut t = TextTable::new([
        "U_AU", "C_AU", "F_AU", "R_L2C", "R_LLC", "R_BW", "P^a", "P^t",
    ]);
    let rows = [
        (
            AuUsageLevel::High,
            bucket.allocation.au,
            // P^a/P^t for the High region: median/tail TTFT-derived rate.
            1.0 / bucket.ttft_p50.max(1e-9),
            1.0 / bucket.ttft_p90.max(1e-9),
        ),
        (
            AuUsageLevel::Low,
            bucket.allocation.au,
            1.0 / bucket.tpot_p50.max(1e-9),
            1.0 / bucket.tpot_p90.max(1e-9),
        ),
        (
            AuUsageLevel::None,
            bucket.allocation.shared,
            bucket.be_rate / 1e4,
            bucket.be_rate * 0.8 / 1e4,
        ),
    ];
    for (level, alloc, pa, pt) in rows {
        let (lo, hi) = div.region_range(level);
        t.row([
            level.to_string(),
            if hi > lo {
                format!("{lo}-{}", hi - 1)
            } else {
                "-".to_string()
            },
            format!("{:.1} GHz", gov.license_frequency(level).value()),
            format!("0-{}", alloc.l2_ways.saturating_sub(1)),
            format!("0-{}", alloc.llc_ways.saturating_sub(1)),
            format!("{:.0}%", alloc.mem_bw_frac * 100.0),
            format!("{pa:.2}"),
            format!("{pt:.2}"),
        ]);
    }
    format!(
        "Table III: example AUV-model bucket (GenA, chatbot + SPECjbb; division {div})\n\
         (P^a/P^t: High = 1/TTFT p50/p90, Low = 1/TPOT p50/p90, None = BE rate /1e4)\n{}",
        t.render()
    )
}

/// Fig 14: CPU performance-per-watt across scenarios, sharing selections
/// and the seven schemes, normalized to ALL-AU under the chatbot scenario.
#[must_use]
pub fn fig14(ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    // Quick mode (`repro fig14 --quick`): private smoke-profile models and
    // 30 s cells through the exact same grid code path — the CI
    // trace-export smoke runs this to get a full span trace in seconds.
    let smoke;
    let (cache, duration) = if ctx.quick {
        smoke = ModelCache::with_profile(ProfilerConfig::smoke);
        (&smoke, Some(SimDuration::from_secs(30)))
    } else {
        (&ctx.cache, None)
    };
    let cb_base = scheme_outcome_cell(
        Scheme::AllAu,
        &spec,
        Scenario::Chatbot,
        BeKind::SpecJbb,
        None,
        duration,
        cache,
        &ctx.tracer,
    )
    .efficiency;
    let (grid, hists) = scheme_grid_hists(
        &spec,
        &Scenario::ALL,
        &BeKind::ALL,
        &Scheme::ALL,
        duration,
        cache,
        &ctx.tracer,
    );
    let mut out =
        String::from("Fig 14: CPU performance-per-watt, normalized to ALL-AU (chatbot)\n");
    let mut aum_vs_best_oblivious = Vec::new();
    let mut aum_vs_exclusive = Vec::new();
    let mut grid_iter = grid.iter();
    for scenario in Scenario::ALL {
        for be in BeKind::ALL {
            let mut t = TextTable::new(["scheme", "efficiency (norm)", "P_N", "power W"]);
            let mut per_scheme = std::collections::HashMap::new();
            for scheme in Scheme::ALL {
                let o = grid_iter.next().expect("grid covers every cell");
                per_scheme.insert(scheme, o.efficiency);
                t.row([
                    scheme.name().to_string(),
                    fmt3(o.efficiency / cb_base),
                    format!("{:.0}", o.be_rate),
                    format!("{:.0}", o.avg_power_w),
                ]);
            }
            let aum = per_scheme[&Scheme::Aum];
            let oblivious = per_scheme[&Scheme::SmtAu].max(per_scheme[&Scheme::RpAu]);
            aum_vs_best_oblivious.push(aum / oblivious - 1.0);
            aum_vs_exclusive.push(aum / per_scheme[&Scheme::AllAu] - 1.0);
            out.push_str(&format!("\n[{} + {}]\n{}", scenario, be, t.render()));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.push_str(&format!(
        "\nAverage AUM gain vs AU-exclusive: {} (paper: 8.8%)\n\
         Average AUM gain vs best AUV-oblivious sharing: {} (paper: 4.7%)\n",
        fmt_pct(mean(&aum_vs_exclusive)),
        fmt_pct(mean(&aum_vs_best_oblivious)),
    ));
    // Grid-wide latency distributions from the deterministically merged
    // per-cell histograms (byte-identical at any --jobs).
    if let (Some(ttft), Some(tpot)) = (hists.get("ttft_seconds"), hists.get("tpot_request_seconds"))
    {
        out.push_str(&format!(
            "Grid-wide TTFT: {} requests, p50 {} p99 {} s | per-request TPOT p99 {} s\n",
            ttft.count(),
            fmt3(ttft.quantile(0.5)),
            fmt3(ttft.quantile(0.99)),
            fmt3(tpot.quantile(0.99)),
        ));
    }
    out
}

/// Fig 15: efficiency on the three hardware platforms sharing with SPECjbb,
/// normalized to ALL-AU on GenA.
#[must_use]
pub fn fig15(ctx: &RunCtx) -> String {
    let gen_a = PlatformSpec::gen_a();
    let base = scheme_outcome_cell(
        Scheme::AllAu,
        &gen_a,
        Scenario::Chatbot,
        BeKind::SpecJbb,
        None,
        None,
        &ctx.cache,
        &ctx.tracer,
    )
    .efficiency;
    // Offered load scales with platform serving capacity: the paper
    // exercises every platform near its own operating point.
    let presets = PlatformSpec::presets();
    ctx.cache.warm(
        presets
            .iter()
            .flat_map(|spec| Scenario::ALL.map(|sc| (spec, sc, BeKind::SpecJbb))),
        &ctx.tracer,
    );
    let cells: Vec<(&PlatformSpec, Scenario, Scheme)> = presets
        .iter()
        .flat_map(|spec| {
            Scenario::ALL.into_iter().flat_map(move |sc| {
                [Scheme::AllAu, Scheme::Aum].map(move |scheme| (spec, sc, scheme))
            })
        })
        .collect();
    let grid =
        aum_sim::exec::sweep_traced(&ctx.tracer, cells, |_, (spec, scenario, scheme), tracer| {
            let rate = Some(crate::common::platform_scaled_rate(spec, scenario));
            scheme_outcome_cell(
                scheme,
                spec,
                scenario,
                BeKind::SpecJbb,
                rate,
                None,
                &ctx.cache,
                &tracer,
            )
        });
    let mut out =
        String::from("Fig 15: efficiency on evolving platforms (norm. to ALL-AU on GenA)\n");
    let mut grid_iter = grid.iter();
    for spec in &presets {
        let mut t = TextTable::new(["scenario", "ALL-AU", "AUM", "AUM gain"]);
        for scenario in Scenario::ALL {
            let excl = grid_iter.next().expect("grid covers every cell");
            let aum = grid_iter.next().expect("grid covers every cell");
            t.row([
                scenario.to_string(),
                fmt3(excl.efficiency / base),
                fmt3(aum.efficiency / base),
                fmt_pct(aum.efficiency / excl.efficiency - 1.0),
            ]);
        }
        out.push_str(&format!("\n[{}]\n{}", spec.name, t.render()));
    }
    out
}

/// Fig 16: decomposed AU and shared-application performance per scheme,
/// averaged over the three scenarios (SPECjbb co-runner). AU performance is
/// normalized to ALL-AU; shared performance to RP-AU.
#[must_use]
pub fn fig16(ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let (grid, _) = scheme_grid_hists(
        &spec,
        &Scenario::ALL,
        &[BeKind::SpecJbb],
        &Scheme::ALL,
        None,
        &ctx.cache,
        &ctx.tracer,
    );
    let mut au_norm = std::collections::HashMap::new();
    let mut be_norm = std::collections::HashMap::new();
    for (s_idx, _scenario) in Scenario::ALL.into_iter().enumerate() {
        let row = &grid[s_idx * Scheme::ALL.len()..(s_idx + 1) * Scheme::ALL.len()];
        let all_au = &row[0];
        let rp = &row[2];
        debug_assert_eq!(Scheme::ALL[0], Scheme::AllAu);
        debug_assert_eq!(Scheme::ALL[2], Scheme::RpAu);
        for (o, scheme) in row.iter().zip(Scheme::ALL) {
            let au_perf =
                (o.prefill_tps + o.decode_tps) / (all_au.prefill_tps + all_au.decode_tps).max(1e-9);
            let be_perf = o.be_rate / rp.be_rate.max(1e-9);
            *au_norm.entry(scheme).or_insert(0.0) += au_perf / 3.0;
            *be_norm.entry(scheme).or_insert(0.0) += be_perf / 3.0;
        }
    }
    let mut t = TextTable::new(["scheme", "AU perf (vs ALL-AU)", "shared perf (vs RP-AU)"]);
    for scheme in Scheme::ALL {
        t.row([
            scheme.name().to_string(),
            fmt3(au_norm[&scheme]),
            fmt3(be_norm[&scheme]),
        ]);
    }
    format!(
        "Fig 16: decomposed performance, averaged over scenarios (SPECjbb sharing)\n{}",
        t.render()
    )
}

/// Fig 17: SLO guarantee ratios per scheme and scenario (SPECjbb sharing):
/// prefill TTFT on the left, decode TPOT on the right.
#[must_use]
pub fn fig17(ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let (grid, _) = scheme_grid_hists(
        &spec,
        &Scenario::ALL,
        &[BeKind::SpecJbb],
        &Scheme::ALL,
        None,
        &ctx.cache,
        &ctx.tracer,
    );
    let mut out = String::from("Fig 17: SLO guarantee ratios when sharing with SPECjbb\n");
    let mut grid_iter = grid.iter();
    for scenario in Scenario::ALL {
        let mut t = TextTable::new(["scheme", "prefill TTFT guarantee", "decode TPOT guarantee"]);
        for scheme in Scheme::ALL {
            let o = grid_iter.next().expect("grid covers every cell");
            t.row([
                scheme.name().to_string(),
                fmt3(o.slo.ttft_guarantee),
                fmt3(o.slo.tpot_guarantee),
            ]);
        }
        out.push_str(&format!("\n[{scenario}]\n{}", t.render()));
    }
    out
}

/// Fig 18: CDFs of the shared class's LLC-way and bandwidth allocations
/// under AUM vs the static RP-AU (SPECjbb + chatbot).
#[must_use]
pub fn fig18(ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let model = ctx
        .cache
        .model(&spec, Scenario::Chatbot, BeKind::SpecJbb, &ctx.tracer);
    let cfg =
        ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, Some(BeKind::SpecJbb));
    let aum = run_experiment(&cfg, &mut AumController::new(model));
    let rp = scheme_outcome_cell(
        Scheme::RpAu,
        &spec,
        Scenario::Chatbot,
        BeKind::SpecJbb,
        None,
        None,
        &ctx.cache,
        &ctx.tracer,
    );
    let mut out =
        String::from("Fig 18: shared-class resource allocation CDFs (chatbot + SPECjbb)\n");
    for (label, a, r) in [
        (
            "shared LLC ways",
            &aum.shared_llc_samples,
            &rp.shared_llc_samples,
        ),
        (
            "shared bandwidth %",
            &aum.shared_bw_samples,
            &rp.shared_bw_samples,
        ),
    ] {
        let mut t = TextTable::new(["CDF", "AUM", "RP-AU"]);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            t.row([
                format!("p{:.0}", q * 100.0),
                fmt3(a.quantile(q)),
                fmt3(r.quantile(q)),
            ]);
        }
        out.push_str(&format!("\n[{label}]\n{}", t.render()));
    }
    out.push_str(&format!(
        "\nAUM allocation spread (LLC ways p10→p90): {:.0}→{:.0}  vs RP-AU: {:.0}→{:.0}\n",
        aum.shared_llc_samples.quantile(0.1),
        aum.shared_llc_samples.quantile(0.9),
        rp.shared_llc_samples.quantile(0.1),
        rp.shared_llc_samples.quantile(0.9),
    ));
    out
}
