//! Telemetry overhead on the serving hot loop: the same short experiment
//! (engine + platform + manager, no tracing-specific code paths) under a
//! disabled tracer, `NullSink`, `MemorySink`, and a `JsonlSink` writing to
//! `/dev/null`. The disabled and `NullSink` rows must be indistinguishable
//! from each other — `Tracer::emit` short-circuits before constructing the
//! event — while the sink-backed rows price construction, cloning, and
//! serialization. `ordering_sink` prices the chain `repro --trace` installs
//! and `flight_ordering` the one perfbench's chaos-traced workload installs
//! (the recorder outside the ordering sink), each minus the file at its
//! end.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use aum::baselines::AllAu;
use aum::experiment::{try_run_experiment_traced, ExperimentConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::flight::{FlightConfig, FlightRecorder};
use aum_sim::telemetry::{JsonlSink, MemorySink, NullSink, OrderingSink, Tracer};
use aum_sim::SimDuration;

fn short_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(PlatformSpec::gen_a(), Scenario::Chatbot, None);
    cfg.duration = SimDuration::from_secs(20);
    cfg
}

fn run_once(cfg: &ExperimentConfig, tracer: Tracer) -> f64 {
    let mut mgr = AllAu::new(&cfg.platform);
    try_run_experiment_traced(cfg, &mut mgr, tracer)
        .expect("a paper-default config runs")
        .efficiency
}

fn bench(c: &mut Criterion) {
    let cfg = short_config();
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.bench_function("disabled", |b| {
        b.iter(|| run_once(black_box(&cfg), Tracer::disabled()))
    });
    group.bench_function("null_sink", |b| {
        b.iter(|| run_once(black_box(&cfg), Tracer::new(NullSink)))
    });
    // The always-on flight-recorder budget: a bounded ring must price like
    // clone-into-a-buffer (it is one), i.e. within 2x of `NullSink` — the
    // acceptance bound that makes `--flight` safe to leave on everywhere.
    group.bench_function("ring_sink", |b| {
        b.iter(|| {
            run_once(
                black_box(&cfg),
                Tracer::new(aum_sim::flight::RingSink::new(4096)),
            )
        })
    });
    group.bench_function("ordering_sink", |b| {
        b.iter(|| run_once(black_box(&cfg), Tracer::new(OrderingSink::new(NullSink))))
    });
    let incidents = std::env::temp_dir().join(format!("aum-bench-flight-{}", std::process::id()));
    group.bench_function("flight_ordering", |b| {
        b.iter(|| {
            let recorder = FlightRecorder::with_inner(
                FlightConfig::new(&incidents),
                OrderingSink::new(NullSink),
            );
            run_once(black_box(&cfg), Tracer::new(recorder))
        })
    });
    std::fs::remove_dir_all(&incidents).ok();
    group.bench_function("memory_sink", |b| {
        b.iter(|| run_once(black_box(&cfg), Tracer::new(MemorySink::new())))
    });
    group.bench_function("jsonl_devnull", |b| {
        b.iter(|| {
            let sink = JsonlSink::create("/dev/null").expect("open /dev/null");
            run_once(black_box(&cfg), Tracer::new(sink))
        })
    });
    group.finish();

    // Self-profiling scoped-timer budget: the disabled path is one relaxed
    // atomic load and must stay within 1.05x of the bare loop — that is the
    // contract that lets the `aum_sim::prof` scopes live permanently inside
    // `iteration_cost` and the engine step loop. The enabled row prices a
    // full enter/exit (two `Instant` reads plus two relaxed `fetch_add`s);
    // it has no hard budget but is reported so a registry-lock regression
    // on the enter path is visible.
    let mut prof_group = c.benchmark_group("prof_overhead");
    prof_group.sample_size(20);
    // A serially-dependent mul-xor-shift mix at roughly the cost of one
    // cost-model iteration (~100 ns) — the granularity the permanent
    // scopes actually wrap. The xor-shift rounds have no closed-form
    // composition, so the optimizer cannot fold the chain away (a plain
    // `acc*m+c` chain composes into a single affine map), which would
    // turn the ratio below into a measurement of the timer against
    // nothing.
    let work = |x: u64| -> u64 {
        let mut acc = x | 1;
        for _ in 0..64u64 {
            acc ^= acc >> 13;
            acc = acc.wrapping_mul(6364136223846793005);
            acc ^= acc >> 7;
        }
        acc
    };
    aum_sim::prof::set_enabled(false);
    prof_group.bench_function("baseline_no_timer", |b| {
        b.iter(|| {
            let mut acc = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..1000u64 {
                acc = work(black_box(acc));
            }
            acc
        })
    });
    prof_group.bench_function("scope_disabled", |b| {
        b.iter(|| {
            let mut acc = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..1000u64 {
                let _s = aum_sim::prof::scope("bench.cell");
                acc = work(black_box(acc));
            }
            acc
        })
    });
    aum_sim::prof::reset();
    aum_sim::prof::set_enabled(true);
    prof_group.bench_function("scope_enabled", |b| {
        b.iter(|| {
            let mut acc = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..1000u64 {
                let _s = aum_sim::prof::scope("bench.cell");
                acc = work(black_box(acc));
            }
            acc
        })
    });
    aum_sim::prof::set_enabled(false);
    aum_sim::prof::reset();
    prof_group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
