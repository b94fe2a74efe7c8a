//! Smoke tests of the reproduction harness: every experiment renders
//! non-trivial output containing its expected markers. The heavyweight
//! grids (fig14/fig15/cluster) are exercised once each to keep CI time
//! bounded — their content is checked through cheaper anchors.

use aum::profiler::ProfilerConfig;
use aum_bench::common::{ModelCache, RunCtx};
use aum_bench::experiments;
use aum_sim::telemetry::Tracer;

/// Runs a registered experiment on `ctx`.
fn run_on(ctx: &RunCtx, id: &str) -> String {
    let (_, f) = experiments()
        .into_iter()
        .find(|(n, _)| *n == id)
        .unwrap_or_else(|| panic!("experiment {id} not registered"));
    f(ctx)
}

/// Runs a registered experiment on a fresh paper-scale ctx, as
/// `repro <id>` does.
fn run(id: &str) -> String {
    run_on(&RunCtx::new(false, Tracer::disabled()), id)
}

#[test]
fn all_experiments_are_registered_once() {
    let ids: Vec<&str> = experiments().iter().map(|(n, _)| *n).collect();
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), ids.len(), "duplicate experiment ids");
    for required in [
        "fig1",
        "table1",
        "fig4",
        "fig5",
        "table2",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig12",
        "fig13",
        "table3",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "sens",
        "overhead",
        "tco",
        "ablate",
        "adapt",
        "chunked",
        "cluster",
        "precision",
    ] {
        assert!(ids.contains(&required), "missing experiment {required}");
    }
}

#[test]
fn table1_lists_all_platforms() {
    let out = run("table1");
    for p in ["GenA", "GenB", "GenC", "Xeon 8475B", "233.8"] {
        assert!(out.contains(p), "table1 missing {p}:\n{out}");
    }
}

#[test]
fn table2_anchors_llama2_row() {
    let out = run("table2");
    assert!(out.contains("llama2-7b"));
    assert!(out.contains("92 / 96"), "llama2-7b BB anchor:\n{out}");
    assert!(out.contains("24 / 59"), "llama2-7b DB anchor:\n{out}");
}

#[test]
fn fig5_keeps_the_gpu_ahead_on_perf_per_watt_of_gen_a() {
    let out = run("fig5");
    assert!(out.contains("A100"));
    assert!(out.contains("GenA"));
}

#[test]
fn fig6_shows_the_license_frequencies() {
    let out = run("fig6");
    assert!(out.contains("3.20"), "turbo cores:\n{out}");
    assert!(out.contains("3.10"), "decode license:\n{out}");
}

#[test]
fn fig13_is_normalized() {
    let out = run("fig13");
    assert!(out.contains("1.000"));
    assert!(out.contains("LLC ways"));
}

#[test]
fn overhead_validates_the_paper_bounds() {
    // `overhead` itself asserts the <1 ms decision bound internally.
    let ctx = RunCtx::new(false, Tracer::disabled());
    let out = run_on(&ctx, "overhead");
    assert!(out.contains("450 pinned executions"));
    assert!(out.contains("decision latency"));
    assert_eq!(
        ctx.cache.stats().builds,
        5,
        "overhead profiles exactly its five grid models"
    );
}

#[test]
fn studies_on_one_ctx_profile_each_model_once() {
    // table3 and tco both need the GenA/chatbot/SPECjbb model: on a shared
    // ctx the second study must reuse the first one's build.
    let ctx = RunCtx {
        quick: false,
        tracer: Tracer::disabled(),
        cache: ModelCache::with_profile(ProfilerConfig::smoke),
    };
    assert!(run_on(&ctx, "table3").contains("Table III"));
    assert_eq!(ctx.cache.stats().builds, 1, "table3 profiles its model");
    assert!(run_on(&ctx, "tco").contains("perf/CapEx"));
    let stats = ctx.cache.stats();
    assert_eq!(stats.builds, 1, "tco reuses table3's model");
    assert!(stats.hits() >= 1, "tco's lookup is a cache hit: {stats:?}");
}

#[test]
fn tco_reaches_the_88_percent_anchor() {
    let out = run("tco");
    assert!(out.contains("perf/CapEx"));
    assert!(out.contains("0.8"), "≈88% anchor expected:\n{out}");
}

#[test]
fn fig16_decomposes_all_schemes() {
    let out = run("fig16");
    for scheme in [
        "ALL-AU", "SMT-AU", "RP-AU", "AU-UP", "AU-FI", "AU-RB", "AUM",
    ] {
        assert!(out.contains(scheme), "fig16 missing {scheme}");
    }
}

#[test]
fn chunked_prefill_bounds_stalls_in_the_table() {
    let out = run("chunked");
    assert!(out.contains("whole prompt"));
    assert!(out.contains("chunk 512"));
}
