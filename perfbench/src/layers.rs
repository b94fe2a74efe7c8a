//! The traced pass: the benchmark's own spans and delegates around each
//! public call, the simulator's `prof` scopes, and direct ns/op probes of
//! hot public functions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aum::controller::AumController;
use aum::manager::{Decision, ResourceManager, SystemState};
use aum::profiler::AuvModel;
use aum_au::counters::PmuCounters;
use aum_au::gemm::ExecContext;
use aum_au::unit::Precision;
use aum_llm::config::ModelConfig;
use aum_llm::cost::{iteration_cost, AuKernels};
use aum_llm::ops::Phase;
use aum_llm::traces::Scenario;
use aum_platform::freq::FrequencyGovernor;
use aum_platform::power::ActivityClass;
use aum_platform::spec::PlatformSpec;
use aum_platform::state::{PlatformSim, RegionLoad};
use aum_platform::topology::AuUsageLevel;
use aum_platform::units::GbPerSec;
use aum_sim::exec::ExecStats;
use aum_sim::hist::LogHistogram;
use aum_sim::prof::Snapshot;
use aum_sim::stats::Samples;
use aum_sim::telemetry::{ResilienceMode, TraceRecord, TraceSink, Tracer};
use aum_sim::time::{SimDuration, SimTime};
use aum_workloads::be::BeKind;

use crate::workload::derive;

/// Decision counts and timing gathered by [`Probed`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CtlStats {
    pub decides: u64,
    pub decide_nanos: u64,
    /// Decisions whose core division differs from the previous decision's.
    pub switches: u64,
    pub safe_mode_entries: u64,
}

/// Delegating [`ResourceManager`]: forwards every call unchanged and times
/// `decide`, so wrapping a scheme leaves the simulated run identical.
pub struct Probed<'a> {
    inner: &'a mut dyn ResourceManager,
    stats: &'a mut CtlStats,
    last: Option<Decision>,
    in_safe_mode: bool,
}

impl<'a> Probed<'a> {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: &'a mut dyn ResourceManager, stats: &'a mut CtlStats) -> Self {
        Probed {
            inner,
            stats,
            last: None,
            in_safe_mode: false,
        }
    }
}

impl ResourceManager for Probed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, state: &SystemState) -> Decision {
        let t0 = Instant::now();
        let d = self.inner.decide(state);
        self.stats.decide_nanos += t0.elapsed().as_nanos() as u64;
        self.stats.decides += 1;
        if self.last.is_some_and(|p| p.division != d.division) {
            self.stats.switches += 1;
        }
        self.last = Some(d);
        let safe = self.inner.resilience() == Some(ResilienceMode::SafeMode);
        if safe && !self.in_safe_mode {
            self.stats.safe_mode_entries += 1;
        }
        self.in_safe_mode = safe;
        d
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.inner.attach_tracer(tracer);
    }

    fn resilience(&self) -> Option<ResilienceMode> {
        self.inner.resilience()
    }
}

/// Delegating [`TraceSink`]: counts every record and, when `timed`, the
/// host time the wrapped sink spends on it (flushes included).
pub struct TimedSink<S> {
    pub inner: S,
    pub records: u64,
    pub nanos: u64,
    timed: bool,
}

impl<S: TraceSink> TimedSink<S> {
    /// Wraps `inner`; only a traced pass pays for the clock reads.
    pub fn new(inner: S, timed: bool) -> Self {
        TimedSink {
            inner,
            records: 0,
            nanos: 0,
            timed,
        }
    }

    fn time(&mut self, f: impl FnOnce(&mut S)) {
        if self.timed {
            let t0 = Instant::now();
            f(&mut self.inner);
            self.nanos += t0.elapsed().as_nanos() as u64;
        } else {
            f(&mut self.inner);
        }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&mut self, record: &TraceRecord) {
        self.records += 1;
        self.time(|s| s.record(record));
    }

    fn flush_sink(&mut self) {
        self.time(TraceSink::flush_sink);
    }
}

/// Per-layer tallies of the traced pass, from the benchmark's own spans.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// Single-server experiment runs (direct, and inside builds).
    pub exp_runs: u64,
    /// Host ms per experiment run, one entry per op that ran any.
    pub run_ms: Vec<f64>,
    pub tokens: u64,
    pub completed: u64,
    pub ledger_rows: u64,
    /// Host ms of every `build_model` call, set-up included.
    pub build_ms: Vec<f64>,
    pub ctl: CtlStats,
    pub records: u64,
    pub sink_nanos: u64,
    pub triggers: u64,
    pub incidents: u64,
    pub fleet_ms: Vec<f64>,
    pub epochs: u64,
    pub redispatched: u64,
    pub dropped: u64,
    pub shed: u64,
}

/// The `q`-quantile of a sample, interpolating linearly between order
/// statistics (0 when empty).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a sample (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 43] = [
    ("experiment.runs", "count"),
    ("experiment.run_ms_p50", "ms"),
    ("experiment.interval_self_ms", "ms"),
    ("experiment.interval_self_share", "%"),
    ("cost.evals", "count"),
    ("cost.eval_self_ms", "ms"),
    ("cost.eval_share", "%"),
    ("cost.iteration_ns", "ns"),
    ("engine.decode_iters", "count"),
    ("engine.decode_self_ms", "ms"),
    ("engine.prefill_self_ms", "ms"),
    ("engine.batch_self_ms", "ms"),
    ("engine.tokens", "count"),
    ("engine.completed", "count"),
    ("profiler.builds", "count"),
    ("profiler.build_ms_mean", "ms"),
    ("profiler.cell_self_ms", "ms"),
    ("exec.cells", "count"),
    ("exec.speedup", "x"),
    ("exec.idle_ms", "ms"),
    ("exec.merge_ms", "ms"),
    ("controller.decides", "count"),
    ("controller.decide_ns", "ns"),
    ("controller.switch_ratio", "ratio"),
    ("controller.safe_mode_entries", "count"),
    ("controller.decide_probe_ns", "ns"),
    ("platform.steps", "count"),
    ("platform.step_self_ms", "ms"),
    ("platform.step_ns", "ns"),
    ("stats.quantile_ns", "ns"),
    ("hist.record_ns", "ns"),
    ("telemetry.records", "count"),
    ("telemetry.sink_ns", "ns"),
    ("flight.triggers", "count"),
    ("flight.incidents", "count"),
    ("fleet.runs", "count"),
    ("fleet.run_ms_mean", "ms"),
    ("fleet.epochs", "count"),
    ("fleet.redispatched", "count"),
    ("fleet.dropped", "count"),
    ("fleet.shed", "count"),
    ("attrib.intervals", "count"),
    ("trace.overhead_pct", "%"),
];

/// Calls and self nanoseconds per scope name, summed over tree paths.
fn by_name(snap: &Snapshot) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for n in &snap.nodes {
        let e = out.entry(n.name).or_default();
        e.0 += n.calls;
        e.1 += n.self_nanos;
    }
    out
}

/// Everything the traced pass measured.
pub struct Traced<'a> {
    pub acc: &'a LayerAcc,
    pub prof: &'a Snapshot,
    pub exec: ExecStats,
    pub overhead_pct: f64,
    pub probes: &'a [(&'static str, f64)],
}

/// Per-layer metric values by name (see [`LAYER_METRICS`]).
#[must_use]
pub fn layer_values(t: &Traced<'_>) -> BTreeMap<&'static str, f64> {
    let scopes = by_name(t.prof);
    let calls = |name: &str| scopes.get(name).map_or(0, |e| e.0) as f64;
    let self_ms = |name: &str| scopes.get(name).map_or(0, |e| e.1) as f64 / 1e6;
    // Every op runs inside the benchmark's own `bench.op` scope, so the
    // self times of all nodes add up to the thread time spent in ops.
    let total_ms: f64 = scopes.values().map(|e| e.1).sum::<u64>() as f64 / 1e6;
    let cost_ms: f64 = scopes
        .iter()
        .filter(|(name, _)| name.starts_with("cost."))
        .map(|(_, e)| e.1)
        .sum::<u64>() as f64
        / 1e6;
    let a = t.acc;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("experiment.runs", a.exp_runs as f64),
        ("experiment.run_ms_p50", median(&a.run_ms)),
        ("experiment.interval_self_ms", self_ms("ctrl.interval")),
        (
            "experiment.interval_self_share",
            100.0 * ratio(self_ms("ctrl.interval"), total_ms),
        ),
        ("cost.evals", calls("cost.eval_ops")),
        ("cost.eval_self_ms", cost_ms),
        ("cost.eval_share", 100.0 * ratio(cost_ms, total_ms)),
        ("engine.decode_iters", calls("engine.decode_iter")),
        ("engine.decode_self_ms", self_ms("engine.decode_iter")),
        ("engine.prefill_self_ms", self_ms("engine.prefill_step")),
        (
            "engine.batch_self_ms",
            self_ms("batch.pop") + self_ms("batch.step"),
        ),
        ("engine.tokens", a.tokens as f64),
        ("engine.completed", a.completed as f64),
        ("profiler.builds", a.build_ms.len() as f64),
        ("profiler.build_ms_mean", mean(&a.build_ms)),
        ("profiler.cell_self_ms", self_ms("profiler.cell")),
        ("exec.cells", t.exec.cells as f64),
        ("exec.speedup", t.exec.speedup()),
        ("exec.idle_ms", t.exec.idle.as_secs_f64() * 1e3),
        ("exec.merge_ms", t.exec.merge.as_secs_f64() * 1e3),
        ("controller.decides", a.ctl.decides as f64),
        (
            "controller.decide_ns",
            ratio(a.ctl.decide_nanos as f64, a.ctl.decides as f64),
        ),
        (
            "controller.switch_ratio",
            ratio(a.ctl.switches as f64, a.ctl.decides as f64),
        ),
        (
            "controller.safe_mode_entries",
            a.ctl.safe_mode_entries as f64,
        ),
        ("platform.steps", calls("platform.step")),
        ("platform.step_self_ms", self_ms("platform.step")),
        ("telemetry.records", a.records as f64),
        (
            "telemetry.sink_ns",
            ratio(a.sink_nanos as f64, a.records as f64),
        ),
        ("flight.triggers", a.triggers as f64),
        ("flight.incidents", a.incidents as f64),
        ("fleet.runs", a.fleet_ms.len() as f64),
        ("fleet.run_ms_mean", mean(&a.fleet_ms)),
        ("fleet.epochs", a.epochs as f64),
        ("fleet.redispatched", a.redispatched as f64),
        ("fleet.dropped", a.dropped as f64),
        ("fleet.shed", a.shed as f64),
        ("attrib.intervals", a.ledger_rows as f64),
        ("trace.overhead_pct", t.overhead_pct),
    ]);
    v.extend(t.probes.iter().copied());
    v
}

/// Host nanoseconds per call of `f`: the batch size doubles until one
/// batch takes at least 10 ms, then the median of seven batches is kept.
fn ns_per_op(mut f: impl FnMut()) -> f64 {
    const BATCH: Duration = Duration::from_millis(10);
    let mut n: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..n {
            f();
        }
        if t0.elapsed() >= BATCH {
            break;
        }
        n *= 2;
    }
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..n {
                f();
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&batches)
}

/// Direct ns/op probes of five hot public functions, on inputs taken from
/// the workloads: the GenA decode region of `model`'s first division, a
/// chatbot controller state, and a 300-value token-time window.
#[must_use]
pub fn probes(model: &Arc<AuvModel>, seed: u64) -> Vec<(&'static str, f64)> {
    let spec = PlatformSpec::gen_a();
    let div = model.buckets[0].division;
    let gov = FrequencyGovernor::for_spec(&spec);

    let llama = ModelConfig::llama2_7b();
    let kernels = AuKernels::for_platform(&spec);
    let ctx = ExecContext::new(
        div.cores(AuUsageLevel::Low),
        gov.license_frequency(AuUsageLevel::Low).value(),
        spec.mem_bw,
    );
    let mut pmu = PmuCounters::new();
    let cost = ns_per_op(|| {
        black_box(iteration_cost(
            black_box(&llama),
            Phase::Decode,
            black_box(16),
            black_box(855),
            Precision::Bf16,
            &kernels,
            &ctx,
            &mut pmu,
        ));
    });

    let mut sim = PlatformSim::new(spec.clone());
    let loads = [
        RegionLoad::new(
            AuUsageLevel::High,
            div.cores(AuUsageLevel::High),
            ActivityClass::Amx,
            0.4,
            GbPerSec(90.0),
        ),
        RegionLoad::new(
            AuUsageLevel::Low,
            div.cores(AuUsageLevel::Low),
            ActivityClass::Avx,
            0.9,
            GbPerSec(spec.mem_bw.value() * 0.8),
        ),
        RegionLoad::new(
            AuUsageLevel::None,
            div.cores(AuUsageLevel::None),
            ActivityClass::MemoryBound,
            1.0,
            GbPerSec(60.0),
        ),
        RegionLoad::idle(AuUsageLevel::None, 0),
    ];
    let dt = SimDuration::from_millis(500);
    let step = ns_per_op(|| {
        black_box(sim.step(dt, black_box(&loads)));
    });

    let mut ctl = AumController::new(Arc::clone(model));
    let mut tick: u64 = 0;
    let decide = ns_per_op(|| {
        tick += 1;
        let state = SystemState {
            now: SimTime::ZERO + dt * tick,
            scenario: Scenario::Chatbot,
            be: Some(BeKind::SpecJbb),
            queue_len: 2,
            head_wait: SimDuration::from_millis(120),
            decode_batch: 12,
            worst_lag_secs: 0.05,
            recent_ttft_p50: 0.3,
            recent_ttft_p90: 0.8,
            recent_tpot_p50: 0.08,
            recent_tpot_p90: 0.12,
            power_w: 300.0,
            bw_utilization: 0.6,
        };
        black_box(ctl.decide(black_box(&state)));
    });

    // Token times around the chatbot TPOT budget, spread by the seed.
    let token_secs: Vec<f64> = (0..4096u64)
        .map(|i| 0.05 + (derive(seed, &[2, i]) % 100_000) as f64 * 1e-6)
        .collect();
    let mut window = Samples::new();
    for &v in &token_secs[..300] {
        window.record(v);
    }
    let quantile = ns_per_op(|| {
        black_box(black_box(&window).quantile(0.9));
    });

    let mut hist = LogHistogram::new();
    let mut i = 0usize;
    let record = ns_per_op(|| {
        hist.record(black_box(token_secs[i & 4095]));
        i += 1;
    });
    black_box(&hist);

    vec![
        ("cost.iteration_ns", cost),
        ("platform.step_ns", step),
        ("controller.decide_probe_ns", decide),
        ("stats.quantile_ns", quantile),
        ("hist.record_ns", record),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }
}
