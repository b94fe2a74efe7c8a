//! Parallel-determinism gate: `--jobs 1` and `--jobs 8` must produce
//! identical outcome metrics and byte-identical traces.
//!
//! One test function on purpose: the executor's worker-count override is a
//! process global, so the serial-vs-parallel comparisons must not
//! interleave with each other. Integration tests run in their own process,
//! so the rest of the suite is unaffected.
//!
//! The grids run at reduced scale (smoke profiler, short experiment
//! durations) through the *same* code paths the paper-scale studies use —
//! `build_model_traced`, `ModelCache::outcomes` with
//! `evaluation::grid_latency`, `chaos::run`, `cluster::run_cluster_with`,
//! `fleetchaos::run` — so the gate exercises the real cell dispatch, cache
//! latching and ordered trace merge, not a test-only replica.

use aum::profiler::{build_model_traced, ProfilerConfig};
use aum_bench::common::{Cell, ModelCache, RunCtx, Scheme};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::exec;
use aum_sim::flight::{FlightConfig, FlightRecorder};
use aum_sim::telemetry::{MemorySink, OrderingSink, TraceRecord, Tracer};
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

/// A quick-mode run context with a fresh smoke-profile model cache.
fn smoke_ctx(tracer: Tracer) -> RunCtx {
    RunCtx {
        quick: true,
        tracer,
        cache: ModelCache::with_profile(ProfilerConfig::smoke),
    }
}

/// Runs `f` on a [`smoke_ctx`] carrying a fresh capture tracer and returns
/// (result, serialized trace lines). The tracer is flushed (the ordering
/// sink sorts by `(time, seq)`) before readback.
fn with_captured_trace<R>(f: impl FnOnce(&RunCtx) -> R) -> (R, Vec<String>) {
    let (tracer, sink) = Tracer::shared(OrderingSink::new(MemorySink::new()));
    let ctx = smoke_ctx(tracer);
    let result = f(&ctx);
    ctx.tracer.flush();
    let lines = sink
        .lock()
        .expect("capture sink lock")
        .inner()
        .records()
        .iter()
        .map(TraceRecord::to_jsonl)
        .collect();
    (result, lines)
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let spec = PlatformSpec::gen_a();

    // --- Profiler grid: identical buckets, byte-identical trace. ---
    let profile = |jobs: usize| {
        exec::set_jobs(jobs);
        let cfg = ProfilerConfig::smoke(spec.clone(), Scenario::Chatbot, BeKind::SpecJbb);
        let out = with_captured_trace(|ctx| build_model_traced(&cfg, ctx.tracer.clone()));
        exec::set_jobs(0);
        out
    };
    let (model_serial, trace_serial) = profile(1);
    let (model_parallel, trace_parallel) = profile(8);
    assert_eq!(
        model_serial, model_parallel,
        "profiler buckets must not depend on the worker count"
    );
    assert!(
        !trace_serial.is_empty(),
        "profiler sweep must emit progress events"
    );
    assert_eq!(
        trace_serial, trace_parallel,
        "profiler trace must be byte-identical at jobs 1 vs 8"
    );

    // --- Fig 14 grid shape (reduced scale): identical Outcome metrics,
    // byte-identical trace, and byte-identical merged latency histograms.
    // Same cell runner and histogram fold as the paper run; the
    // smoke-profile cache and 30 s cells keep debug runtime sane. ---
    let fig14_grid = |jobs: usize| {
        exec::set_jobs(jobs);
        let out = with_captured_trace(|ctx| {
            let cells = Cell::grid(
                &spec,
                &[Scenario::Chatbot],
                &[BeKind::SpecJbb],
                &Scheme::ALL,
            )
            .into_iter()
            .map(|c| c.with_duration(SimDuration::from_secs(30)))
            .collect();
            let grid = ctx.cache.outcomes(cells, &ctx.tracer);
            let (ttft, tpot) = aum_bench::evaluation::grid_latency(&grid);
            let outcomes = grid
                .iter()
                .map(|o| serde_json::to_string(o).expect("outcome serializes"))
                .collect::<Vec<_>>();
            let hist_state = [("ttft_seconds", ttft), ("tpot_request_seconds", tpot)]
                .iter()
                .map(|(name, h)| {
                    format!(
                        "{name}: {} p99={}",
                        serde_json::to_string(h).expect("hist serializes"),
                        h.quantile(0.99).to_bits()
                    )
                })
                .collect::<Vec<_>>();
            (outcomes, hist_state)
        });
        exec::set_jobs(0);
        out
    };
    let ((outcomes_serial, hists_serial), fig14_trace_serial) = fig14_grid(1);
    let ((outcomes_parallel, hists_parallel), fig14_trace_parallel) = fig14_grid(8);
    assert_eq!(outcomes_serial.len(), Scheme::ALL.len());
    assert_eq!(
        outcomes_serial, outcomes_parallel,
        "scheme-grid outcomes must not depend on the worker count"
    );
    assert!(
        hists_serial.iter().any(|h| h.contains("ttft_seconds")),
        "grid must merge a TTFT histogram: {hists_serial:?}"
    );
    assert_eq!(
        hists_serial, hists_parallel,
        "merged histogram state and p99 must be byte-identical at jobs 1 vs 8"
    );
    assert!(
        !fig14_trace_serial.is_empty(),
        "the AUM cell and profiler must emit trace events"
    );
    assert_eq!(
        fig14_trace_serial, fig14_trace_parallel,
        "fig14-grid trace must be byte-identical at jobs 1 vs 8"
    );

    // --- Chaos quick matrix: identical report text, byte-identical trace,
    // and the trace-diff zero gate between the two runs. ---
    let chaos = |jobs: usize| {
        exec::set_jobs(jobs);
        let out = with_captured_trace(aum_bench::chaos::run);
        exec::set_jobs(0);
        out
    };
    let (chaos_serial, chaos_trace_serial) = chaos(1);
    let (chaos_parallel, chaos_trace_parallel) = chaos(8);
    assert!(!chaos_serial.degenerate, "{}", chaos_serial.text);
    assert_eq!(
        chaos_serial.text, chaos_parallel.text,
        "chaos report must not depend on the worker count"
    );
    assert_eq!(
        chaos_trace_serial, chaos_trace_parallel,
        "chaos trace must be byte-identical at jobs 1 vs 8"
    );

    // --- Cluster fan-out (reduced scale): identical ClusterOutcome and
    // byte-identical merged per-server trace. PR 4 gated profiler/fig14/
    // chaos but never the cluster path. ---
    let cluster = |jobs: usize| {
        exec::set_jobs(jobs);
        let mut cfg = aum::cluster::ClusterConfig::heterogeneous_demo(Scenario::Chatbot);
        cfg.duration = SimDuration::from_secs(20);
        let out = with_captured_trace(|ctx| {
            // Untraced builds: the trace gated below holds only the
            // per-server cells.
            let models = ctx.cache.cluster_models(&cfg, &Tracer::disabled());
            let outcome = aum::cluster::run_cluster_with(
                &cfg,
                aum::cluster::RoutingPolicy::AuvWeighted,
                &models,
                &ctx.tracer,
            )
            .expect("a 20 s cluster config is valid");
            serde_json::to_string(&outcome).expect("cluster outcome serializes")
        });
        exec::set_jobs(0);
        out
    };
    let (cluster_serial, cluster_trace_serial) = cluster(1);
    let (cluster_parallel, cluster_trace_parallel) = cluster(8);
    assert_eq!(
        cluster_serial, cluster_parallel,
        "cluster outcome must not depend on the worker count"
    );
    assert!(
        !cluster_trace_serial.is_empty(),
        "per-server cells must emit trace events"
    );
    assert_eq!(
        cluster_trace_serial, cluster_trace_parallel,
        "cluster trace must be byte-identical at jobs 1 vs 8"
    );

    // --- Fleet-chaos quick matrix: identical report text, byte-identical
    // trace (health transitions, re-dispatches, sheds all ride the
    // canonical cell-merge order). ---
    let fleet = |jobs: usize| {
        exec::set_jobs(jobs);
        let out = with_captured_trace(aum_bench::fleetchaos::run);
        exec::set_jobs(0);
        out
    };
    let (fleet_serial, fleet_trace_serial) = fleet(1);
    let (fleet_parallel, fleet_trace_parallel) = fleet(8);
    assert!(!fleet_serial.degenerate, "{}", fleet_serial.text);
    assert_eq!(
        fleet_serial.text, fleet_parallel.text,
        "fleet-chaos report must not depend on the worker count"
    );
    assert!(
        fleet_trace_serial
            .iter()
            .any(|l| l.contains("NodeHealthTransition")),
        "fleet-chaos trace must carry health transitions"
    );
    // The fleet observability streams — epoch spans, per-node health
    // episodes, redispatch hop chains, and per-node metric snapshots — must
    // all be present and covered by the byte-identity gate below.
    for marker in [
        "\"FleetEpoch\"",
        "\"NodeHealthEpisode\"",
        "\"RedispatchHop\"",
        "NodeMetricsSnapshot",
    ] {
        assert!(
            fleet_trace_serial.iter().any(|l| l.contains(marker)),
            "fleet-chaos trace must carry {marker} events"
        );
    }
    assert_eq!(
        fleet_trace_serial, fleet_trace_parallel,
        "fleet-chaos trace must be byte-identical at jobs 1 vs 8"
    );
    // The per-node rollup itself rides the report's conservation column
    // (row() marks any cell whose node rollup fails to partition the fleet
    // totals as VIOLATED, which flips the degenerate flag checked above).
    assert!(
        fleet_serial.text.contains("exact"),
        "fleet report must confirm node-level conservation:\n{}",
        fleet_serial.text
    );

    // --- Flight recorder under chaos: the bounded ring's retained suffix,
    // the trigger count, and every incident dump (filenames and bytes)
    // must be identical at jobs 1 vs 8. The ordering sink is outermost, so
    // the recorder reads each run of the canonical cell merge whole and in
    // time order — the same chain `repro --flight` installs. ---
    let flight = |jobs: usize| {
        exec::set_jobs(jobs);
        let dir =
            std::env::temp_dir().join(format!("aum-flight-det-{}-j{jobs}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (tracer, handle) = Tracer::shared(OrderingSink::new(FlightRecorder::with_inner(
            FlightConfig::new(&dir),
            MemorySink::new(),
        )));
        let ctx = smoke_ctx(tracer);
        let run = aum_bench::chaos::run(&ctx);
        ctx.tracer.flush();
        exec::set_jobs(0);
        assert!(!run.degenerate, "{}", run.text);
        let ordered = handle.lock().expect("flight lock");
        let recorder = ordered.inner();
        assert!(
            recorder.errors().is_empty(),
            "incident writes failed: {:?}",
            recorder.errors()
        );
        let stats = recorder.stats();
        let ring: Vec<String> = recorder
            .ring()
            .records()
            .map(TraceRecord::to_jsonl)
            .collect();
        let dumps: Vec<(String, String)> = recorder
            .incidents()
            .iter()
            .map(|incident| {
                (
                    incident
                        .path
                        .file_name()
                        .expect("incident file name")
                        .to_string_lossy()
                        .into_owned(),
                    std::fs::read_to_string(&incident.path).expect("read incident dump"),
                )
            })
            .collect();
        drop(ordered);
        std::fs::remove_dir_all(&dir).ok();
        (stats, ring, dumps)
    };
    let (flight_stats_serial, ring_serial, dumps_serial) = flight(1);
    let (flight_stats_parallel, ring_parallel, dumps_parallel) = flight(8);
    assert!(
        flight_stats_serial.triggers > 0 && !dumps_serial.is_empty(),
        "chaos quick must trip at least one flight trigger"
    );
    assert!(
        flight_stats_serial.occupancy > 0,
        "the ring must retain a suffix of the stream"
    );
    assert_eq!(
        flight_stats_serial, flight_stats_parallel,
        "flight counters must not depend on the worker count"
    );
    assert_eq!(
        ring_serial, ring_parallel,
        "ring contents must be byte-identical at jobs 1 vs 8"
    );
    assert_eq!(
        dumps_serial, dumps_parallel,
        "incident dumps must be byte-identical at jobs 1 vs 8"
    );

    // Reuse the attribution trace-diff gate: parsing the serialized lines
    // back and diffing the two runs must come out exactly zero.
    let parse = |lines: &[String]| {
        aum_sim::telemetry::parse_jsonl(&lines.join("\n")).expect("captured trace parses")
    };
    let diff = aum_bench::attribution::trace_diff(
        &parse(&chaos_trace_serial),
        &parse(&chaos_trace_parallel),
    )
    .expect("chaos traces carry attribution samples");
    assert!(
        !diff.regression,
        "serial-vs-parallel self-diff must be zero:\n{}",
        diff.text
    );
    assert!(
        diff.text.contains("max |Δ| 0.00 pp"),
        "expected an exactly-zero diff:\n{}",
        diff.text
    );

    // --- Perf-report deterministic section: sweep/cell counts, model-cache
    // accounting, scope-tree shape and call counts must be byte-identical
    // at jobs 1 vs 8. Host timings live in the separate `timing` section,
    // which is deliberately absent from this comparison — the determinism
    // contract the self-profiler documents in DESIGN.md §15. ---
    let perf = |jobs: usize| {
        exec::set_jobs(jobs);
        let ctx = RunCtx::new(true, Tracer::disabled());
        let report = aum_bench::perfreport::collect(&ctx, "fig14").expect("fig14 quick profiles");
        exec::set_jobs(0);
        report
    };
    let report_serial = perf(1);
    let report_parallel = perf(8);
    assert_eq!(
        report_serial.deterministic, report_parallel.deterministic,
        "perf-report deterministic section must be byte-identical at jobs 1 vs 8"
    );
    assert!(
        report_serial
            .deterministic
            .contains("model cache: lookups="),
        "deterministic section must carry cache accounting:\n{}",
        report_serial.deterministic
    );
    assert!(
        report_serial.deterministic.contains("exec.cell"),
        "deterministic section must carry the scope tree:\n{}",
        report_serial.deterministic
    );
    // The timing section is where nondeterministic host figures live — it
    // must render, but nothing in it is identity-gated.
    assert!(
        report_serial.timing.contains("study wall")
            && !report_serial.deterministic.contains("cells/sec"),
        "host timings must stay out of the deterministic section"
    );
    // Flamegraph stack *paths* are part of the tree shape: the set of
    // folded stacks must match even though the sample weights differ.
    let stacks = |report: &aum_bench::perfreport::PerfReport| {
        let mut s: Vec<String> = report
            .folded
            .lines()
            .filter_map(|l| l.rsplit_once(' ').map(|(path, _)| path.to_string()))
            .collect();
        s.sort_unstable();
        s
    };
    let stacks_serial = stacks(&report_serial);
    assert!(
        !stacks_serial.is_empty(),
        "profiled run must emit folded stacks"
    );
    assert_eq!(
        stacks_serial,
        stacks(&report_parallel),
        "flamegraph stack set must not depend on the worker count"
    );

    // --- Nested sweeps must not double-count executor wall time. A serial
    // outer sweep whose cell runs an inner sweep sleeps ~10 ms of wall but
    // accrues ~15 ms of busy (the inner cell is inside the outer cell); if
    // the inner sweep also added its wall, wall would exceed busy. ---
    exec::set_jobs(1);
    let exec_before = exec::stats();
    let outer = exec::sweep_jobs(1, vec![0u64], |_, _| {
        std::thread::sleep(std::time::Duration::from_millis(5));
        exec::sweep_jobs(1, vec![0u64], |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            1u64
        })
    });
    exec::set_jobs(0);
    assert_eq!(outer, vec![vec![1u64]]);
    let nested = exec::stats().since(&exec_before);
    assert_eq!(nested.sweeps, 2, "both sweeps must be counted");
    assert_eq!(nested.cells, 2, "both cells must be counted");
    assert!(
        nested.wall < nested.busy,
        "outermost-only wall accounting: wall {:?} must stay below busy {:?}",
        nested.wall,
        nested.busy
    );
}
