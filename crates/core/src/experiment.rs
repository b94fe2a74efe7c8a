//! The co-location experiment harness.
//!
//! Runs an AU-accelerated LLM serving workload (optionally sharing the
//! platform with one best-effort application) under a given resource
//! manager, one control interval at a time. Each interval runs these
//! stages in order:
//!
//! 1. **faults** — the fault plane ([`crate::fault`]) fires the edges due
//!    at the boundary and programs the platform-side effects;
//! 2. **sensing** — the serving and platform telemetry the manager may see
//!    ([`SystemState`]), corrupted by any active sensor fault;
//! 3. **decision** — the manager decides a [`crate::manager::Decision`]
//!    (division, RDT allocation, SMT sharing, engine mode), which offline
//!    cores and the RDT write path shape into what the hardware runs;
//! 4. **platform step** — the region loads, for which the platform model
//!    resolves frequencies, bandwidth grants and power (including SMT
//!    sibling power);
//! 5. **engine** — the serving engine advances with the granted resources;
//! 6. **BE integration** — the best-effort application's progress;
//! 7. **ledger** — per-region time and energy attribution;
//! 8. **accounting** — run totals and the Fig 18 allocation samples.
//!
//! The interval's power, bandwidth and busy fractions feed back into the
//! next interval's sensing and loads.
//!
//! This is the reproduction's equivalent of the paper's testbed runs behind
//! Figures 14-18.
//!
//! One harness run simulates one server. Cluster-scale composition lives
//! in [`crate::cluster`] (steady-state split across servers) and
//! [`crate::fleet`] (the epoch-based resilient router above those
//! servers); both reuse this harness per node.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use aum_au::topdown::{signature, SignatureKind};
use aum_llm::config::ModelConfig;
use aum_llm::engine::{
    EngineConfig, EngineMode, EngineResources, IntervalStats, LlmEngine, RegionResources, PRECISION,
};
use aum_llm::kv::KvBudget;
use aum_llm::slo::SloReport;
use aum_llm::traces::{RateProfile, Scenario, TraceGenerator};
use aum_platform::power::ActivityClass;
use aum_platform::rdt::RdtAllocation;
use aum_platform::smt::{smt_impact, SmtImpact};
use aum_platform::spec::PlatformSpec;
use aum_platform::state::{
    PlatformSim, PlatformSnapshot, RegionLoad, SmtSibling, SMT_POWER_FACTOR,
};
use aum_platform::topology::{AuUsageLevel, ProcessorDivision};
use aum_platform::units::GbPerSec;
use aum_sim::attrib::{self, IntervalLedger, Ledger, RegionSample, WorkFractions};
use aum_sim::rng::DetRng;
use aum_sim::span::{SpanId, SpanKind};
use aum_sim::stats::Samples;
use aum_sim::telemetry::{Event, MetricsRegistry, MetricsSnapshot, ResilienceMode, Tracer};
use aum_sim::time::{SimDuration, SimTime};
use aum_workloads::be::{BeKind, BeProfile};

use crate::error::AumError;
use crate::fault::{FaultEffects, FaultPlane};
use crate::manager::{ResourceManager, SystemState};
use crate::prices::{e_cpu, Prices};

pub use crate::fault::{Fault, FaultEvent, FaultPlan};

/// Load indices in the platform step.
const IDX_HIGH: usize = 0;
const IDX_LOW: usize = 1;
const IDX_NONE: usize = 2;
const IDX_SIBLING: usize = 3;

/// Configuration of one co-location experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Platform under test.
    pub platform: PlatformSpec,
    /// Serving scenario.
    pub scenario: Scenario,
    /// Co-located best-effort application (None = exclusive).
    pub be: Option<BeKind>,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Control interval of the manager.
    pub control_interval: SimDuration,
    /// Experiment seed (trace + any stochastic components).
    pub seed: u64,
    /// Request rate override (req/s); scenario default when `None`.
    pub rate: Option<f64>,
    /// Time profile of the offered rate (diurnal/step studies).
    #[serde(default)]
    pub rate_profile: RateProfile,
    /// Scripted platform faults injected mid-run (empty = healthy run).
    /// Legacy single-`fault` JSON configs deserialize into a one-event
    /// plan; see [`FaultPlan`].
    #[serde(default)]
    pub fault: FaultPlan,
    /// Efficiency prices.
    pub prices: Prices,
    /// Served model.
    pub model: ModelConfig,
}

impl ExperimentConfig {
    /// The paper's default setup: llama2-7b on the given platform and
    /// scenario for 300 simulated seconds, 500 ms control interval.
    #[must_use]
    pub fn paper_default(platform: PlatformSpec, scenario: Scenario, be: Option<BeKind>) -> Self {
        ExperimentConfig {
            platform,
            scenario,
            be,
            duration: SimDuration::from_secs(300),
            control_interval: SimDuration::from_millis(500),
            seed: 42,
            rate: None,
            rate_profile: RateProfile::Constant,
            fault: FaultPlan::none(),
            prices: Prices::paper_default(),
            model: ModelConfig::llama2_7b(),
        }
    }
}

/// Aggregated result of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    /// Manager scheme name.
    pub scheme: String,
    /// SLO guarantee report (Fig 17 inputs).
    pub slo: SloReport,
    /// Prefill tokens per second (`P_H`).
    pub prefill_tps: f64,
    /// Decode tokens per second (`P_L`).
    pub decode_tps: f64,
    /// Best-effort throughput units per second (`P_N`).
    pub be_rate: f64,
    /// Average package power, W.
    pub avg_power_w: f64,
    /// Weighted performance-per-watt (`E_CPU`).
    pub efficiency: f64,
    /// Completed requests.
    pub completed: u64,
    /// Per-interval samples of the shared class's LLC ways (Fig 18 CDF).
    pub shared_llc_samples: Samples,
    /// Per-interval samples of the shared class's bandwidth fraction ×100.
    pub shared_bw_samples: Samples,
    /// Per-interval samples of the None-region core count.
    pub none_core_samples: Samples,
    /// Metrics-registry snapshot taken once, at the end of the run:
    /// counters (tokens, completions) over the whole run and gauges (power,
    /// utilization, queue depth, sensed latencies) of the last interval.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
    /// Per-interval, per-region time/energy attribution (see
    /// [`aum_sim::attrib`]). Verified against the conservation invariants
    /// before the run returns; pre-ledger outcomes deserialize empty.
    #[serde(default)]
    pub ledger: Ledger,
}

impl Outcome {
    /// Normalized efficiency against a baseline outcome.
    #[must_use]
    pub fn efficiency_vs(&self, baseline: &Outcome) -> f64 {
        self.efficiency / baseline.efficiency.max(1e-12)
    }

    /// Serializes the full outcome (metrics, CDF samples, attribution
    /// ledger) as pretty-printed JSON — the machine-readable artifact for
    /// external plotting.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::AumError`] on encoding failure.
    pub fn to_json_pretty(&self) -> Result<String, crate::error::AumError> {
        Ok(serde_json::to_string_pretty(self)?)
    }
}

/// Splits overlapping CAT masks into effective capacities: when the two
/// classes' ways oversubscribe the cache (overlapping masks, as in the
/// unpartitioned SMT-AU setup), each class effectively holds a
/// proportional share.
fn effective_ways(au: u32, shared: u32, total: u32, be_present: bool) -> (u32, u32) {
    if !be_present {
        return (au.min(total), 0);
    }
    let sum = au + shared;
    if sum <= total {
        (au, shared)
    } else {
        let au_eff = ((f64::from(au) * f64::from(total)) / f64::from(sum)).round() as u32;
        (
            au_eff.clamp(1, total - 1),
            total - au_eff.clamp(1, total - 1),
        )
    }
}

/// Runs one experiment under `manager`, untraced.
///
/// # Panics
///
/// Panics on any error [`try_run_experiment_traced`] returns.
pub fn run_experiment(cfg: &ExperimentConfig, manager: &mut dyn ResourceManager) -> Outcome {
    try_run_experiment_traced(cfg, manager, Tracer::disabled())
        .unwrap_or_else(|e| panic!("experiment failed: {e}"))
}

/// Runs one experiment under `manager` with a trace handle threaded through
/// the whole stack: the engine (request lifecycle, iterations), the
/// platform (frequency/thermal transitions), the manager (decisions with
/// reasons) and this harness itself (RDT reallocations, fault injection).
/// The config is validated before any work, so a malformed one (for
/// instance from hand-edited JSON) fails cleanly instead of panicking or
/// hanging.
///
/// # Errors
///
/// - [`AumError::Config`] for a zero control interval, a duration shorter
///   than one interval, a request rate that is not positive and finite, or
///   an unusable model or platform field;
/// - [`AumError::FaultPlan`] when the fault plan fails validation (e.g. a
///   bandwidth fraction outside `(0, 1]`);
/// - [`AumError::Division`] when the manager returns a division that does
///   not cover the platform's cores;
/// - [`AumError::Attribution`] when the attribution ledger does not close.
pub fn try_run_experiment_traced(
    cfg: &ExperimentConfig,
    manager: &mut dyn ResourceManager,
    tracer: Tracer,
) -> Result<Outcome, AumError> {
    validate(cfg).map_err(AumError::Config)?;
    cfg.fault.validate().map_err(AumError::FaultPlan)?;
    let spec = &cfg.platform;
    let rate = cfg.rate.unwrap_or_else(|| cfg.scenario.default_rate());
    let rng = DetRng::from_seed(cfg.seed);
    let trace = TraceGenerator::new(cfg.scenario, rate)
        .with_profile(cfg.rate_profile)
        .generate(&rng, cfg.duration);
    let engine_cfg = EngineConfig {
        model: cfg.model.clone(),
        scenario: cfg.scenario,
        kv_budget: Some(
            KvBudget::for_platform(spec, &cfg.model, PRECISION)
                .expect("validate checked that the weights fit"),
        ),
        prefill_chunk: None,
    };
    let mut engine = LlmEngine::new(engine_cfg, spec, trace);
    let mut platform = PlatformSim::new(spec.clone());
    engine.set_tracer(tracer.clone());
    platform.attach_tracer(tracer.clone());
    manager.attach_tracer(tracer.clone());
    let run = Run {
        cfg,
        total_cores: spec.total_cores(),
        be: cfg.be.map(BeProfile::of),
        dt_secs: cfg.control_interval.as_secs_f64(),
        track: span_track(cfg, manager.name(), rate),
        tracer,
    };
    engine.set_span_track(run.track.clone());
    // The run's SLO deadlines, once, so the trace is self-contained for
    // burn-rate analysis in `trace-summary`.
    let slo = cfg.scenario.slo();
    run.tracer.emit(SimTime::ZERO, || Event::SloTargets {
        ttft_secs: slo.ttft.as_secs_f64(),
        tpot_secs: slo.tpot.as_secs_f64(),
    });

    let dt = cfg.control_interval;
    let steps = (cfg.duration.as_nanos() / dt.as_nanos().max(1)) as usize;
    let last = (SimTime::ZERO + dt * (steps - 1) as u64).as_secs_f64();
    let mut faults = FaultPlane::new(&cfg.fault, last, cfg.duration.as_secs_f64(), &run.tracer);
    let mut sensors = Sensors {
        rng: rng.stream("sensor-faults"),
        frozen: None,
    };
    let mut rdt = RdtWritePath::default();
    let mut stalled = 0u32;
    let mut feedback = Feedback {
        stats: IntervalStats {
            prefill_busy: 0.5,
            decode_busy: 0.8,
            prefill_bw_demand: GbPerSec(90.0),
            decode_bw_demand: GbPerSec(spec.mem_bw.value() * 1.2),
            ..Default::default()
        },
        power_w: 120.0,
        bw_utilization: 0.5,
    };
    let mut totals = Totals::default();
    let mut ledger = Ledger::new();

    for step in 0..steps {
        let _prof = aum_sim::prof::scope("ctrl.interval");
        let now = SimTime::ZERO + dt * step as u64;
        let until = now + dt;
        run.open_interval(step, now);
        let fx = faults.apply(now, &mut platform, &run.tracer, &run.track)?;
        let observed = {
            let _prof = aum_sim::prof::scope("ctrl.sense");
            sensors.observe(run.sense(&engine, now, &feedback), &fx)
        };
        let place = run.decide(manager, &observed, &fx, &mut rdt, step, now)?;
        let stepped = run.step_platform(&mut platform, &place, &feedback, now, fx.be_surge);
        let stats = run.advance_engine(&mut engine, &place, &stepped, until, &mut stalled);
        totals.be_units += run.be_progress(&place, &stepped.snap);
        let shed = manager.resilience() == Some(ResilienceMode::SafeMode);
        {
            let _prof = aum_sim::prof::scope("ctrl.ledger");
            let interval = run.ledger_interval(&platform, &place, &stepped, shed, now);
            ledger.intervals.push(interval);
        }
        totals.record(&place, &stepped, &stats, &observed, run.dt_secs);
        run.close_interval(step, until);
        feedback.update(&stats, &stepped.snap);
    }

    let secs = cfg.duration.as_secs_f64();
    let p_h = totals.prefill_tokens as f64 / secs;
    let p_l = totals.decode_tokens as f64 / secs;
    let p_n = totals.be_units / secs;
    let avg_power = totals.energy_j / secs;
    let gamma = cfg.be.map_or(0.0, Prices::gamma);
    // Conservation gate: a ledger that does not close is a modeling bug,
    // not a reporting nuisance — fail the run with the typed violation.
    ledger.verify(attrib::EPSILON)?;
    // Balance the span ledger: requests still in flight and fault windows
    // that never recovered close at the end of the run window, so every
    // trace yields a well-formed span forest.
    let end = SimTime::ZERO + dt * steps as u64;
    engine.close_open_spans(end);
    faults.close_open_windows(end, &run.tracer, &run.track);
    run.tracer.flush();
    let metrics = totals.metrics(end);
    let outcome = Outcome {
        scheme: manager.name().to_owned(),
        slo: engine.slo_report(),
        prefill_tps: p_h,
        decode_tps: p_l,
        be_rate: p_n,
        avg_power_w: avg_power,
        efficiency: e_cpu(cfg.prices, p_h, p_l, gamma, p_n, avg_power),
        completed: engine.completed(),
        shared_llc_samples: totals.shared_llc_samples,
        shared_bw_samples: totals.shared_bw_samples,
        none_core_samples: totals.none_core_samples,
        metrics,
        ledger,
    };
    publish_live(&outcome);
    Ok(outcome)
}

/// Consecutive zero-progress control intervals (with work queued) before
/// the sim-time watchdog reports a stall. At the default 500 ms interval
/// this is 8 s of simulated dead air — far beyond any healthy pause.
const WATCHDOG_STALL_INTERVALS: u32 = 16;

/// The span track that names a run: scheme, scenario, co-runner, platform,
/// cores, rate, seed, duration and fault count, so the runs a study grid
/// traces never share a track (span ids are unique per track only). Built
/// once per run; every span record shares it.
fn span_track(cfg: &ExperimentConfig, scheme: &str, rate: f64) -> Arc<str> {
    format!(
        "{}/{}+{} {} c{} r{} s{} d{} f{}",
        scheme,
        cfg.scenario.code(),
        cfg.be.map_or_else(|| "none".to_string(), |b| b.to_string()),
        cfg.platform.name,
        cfg.platform.total_cores(),
        rate,
        cfg.seed,
        cfg.duration.as_secs_f64(),
        cfg.fault.events.len(),
    )
    .into()
}

/// What every stage of one run reads and none changes.
struct Run<'a> {
    cfg: &'a ExperimentConfig,
    total_cores: usize,
    be: Option<BeProfile>,
    dt_secs: f64,
    tracer: Tracer,
    track: Arc<str>,
}

/// What one interval leaves for the next.
struct Feedback {
    /// Busy fractions, and the bandwidth demands last seen while busy.
    stats: IntervalStats,
    power_w: f64,
    bw_utilization: f64,
}

impl Feedback {
    fn update(&mut self, stats: &IntervalStats, snap: &PlatformSnapshot) {
        if stats.prefill_bw_demand.value() > 0.0 {
            self.stats.prefill_bw_demand = stats.prefill_bw_demand;
        }
        if stats.decode_bw_demand.value() > 0.0 {
            self.stats.decode_bw_demand = stats.decode_bw_demand;
        }
        self.stats.prefill_busy = stats.prefill_busy;
        self.stats.decode_busy = stats.decode_busy;
        self.power_w = snap.power.value();
        self.bw_utilization = snap.bw_utilization;
    }
}

/// Sensor faults corrupt what the manager observes; the ground truth
/// driving the engine and platform stays intact.
struct Sensors {
    rng: DetRng,
    /// The frame a dropout froze, held while it lasts.
    frozen: Option<SystemState>,
}

impl Sensors {
    fn observe(&mut self, sensed: SystemState, fx: &FaultEffects) -> SystemState {
        if fx.sensor_dropout {
            // Stale readback: the manager keeps seeing the last frame from
            // before the dropout, only the clock advances.
            let now = sensed.now;
            let frozen = self.frozen.get_or_insert(sensed);
            return SystemState {
                now,
                ..frozen.clone()
            };
        }
        self.frozen = None;
        let mut state = sensed;
        if fx.sensor_sigma > 0.0 {
            // Multiplicative lognormal noise on the continuous sensors:
            // stays positive, is unbiased in log space, and scales with
            // the reading's magnitude like real measurement jitter.
            let mut jitter = |v: f64| v * self.rng.normal(0.0, fx.sensor_sigma).exp();
            state.recent_ttft_p50 = jitter(state.recent_ttft_p50);
            state.recent_ttft_p90 = jitter(state.recent_ttft_p90);
            state.recent_tpot_p50 = jitter(state.recent_tpot_p50);
            state.recent_tpot_p90 = jitter(state.recent_tpot_p90);
            state.power_w = jitter(state.power_w);
            state.bw_utilization = jitter(state.bw_utilization);
        }
        state
    }
}

/// What the RDT MSRs hold against what the manager requested. Under an
/// `RdtWriteFailure` a request is silently dropped (delay 0) or lands
/// late, and the hardware keeps its previous programming meanwhile.
#[derive(Default)]
struct RdtWritePath {
    applied: Option<RdtAllocation>,
    /// Delayed writes as `(due step, allocation)`, oldest first.
    pending: VecDeque<(usize, RdtAllocation)>,
    /// The allocation the previous interval ran under.
    last: Option<RdtAllocation>,
}

impl RdtWritePath {
    /// The allocation interval `step` runs under; a change is traced.
    fn write(
        &mut self,
        requested: RdtAllocation,
        fx: &FaultEffects,
        step: usize,
        now: SimTime,
        tracer: &Tracer,
    ) -> RdtAllocation {
        match fx.rdt_write_delay {
            None => {
                self.pending.clear();
                self.applied = Some(requested);
            }
            Some(0) => {}
            Some(delay) => {
                if self.pending.back().map(|&(_, a)| a) != Some(requested) {
                    self.pending.push_back((step + delay as usize, requested));
                }
                while self.pending.front().is_some_and(|&(due, _)| due <= step) {
                    self.applied = self.pending.pop_front().map(|(_, a)| a);
                }
            }
        }
        // Until a first write lands, the hardware runs the request.
        let alloc = self.applied.unwrap_or(requested);
        if let Some(prev) = self.last.replace(alloc).filter(|&prev| prev != alloc) {
            tracer.emit(now, || Event::RdtReallocation {
                llc_ways_from: prev.au.llc_ways,
                llc_ways_to: alloc.au.llc_ways,
                l2_ways_from: prev.au.l2_ways,
                l2_ways_to: alloc.au.l2_ways,
                mem_bw_from: prev.au.mem_bw_frac,
                mem_bw_to: alloc.au.mem_bw_frac,
            });
        }
        alloc
    }
}

/// The manager's decision as the hardware runs it.
struct Placement {
    /// The decided division short of any offline cores.
    div: ProcessorDivision,
    /// The allocation the RDT MSRs hold.
    alloc: RdtAllocation,
    smt_sharing: bool,
    engine_mode: EngineMode,
    /// Effective ways of the AU class's LLC and the shared class's LLC and
    /// L2 under that allocation.
    au_llc: u32,
    shared_llc: u32,
    shared_l2: u32,
    /// Bandwidth amplification of prefill and decode at `au_llc` ways.
    prefill_amp: f64,
    decode_amp: f64,
    /// SMT impacts on the High and Low regions while the BE shares their
    /// hyperthreads.
    smt: Option<(SmtImpact, SmtImpact)>,
}

/// The platform's answer to one interval's loads.
struct Stepped {
    loads: [RegionLoad; 4],
    /// Thermal drops of the High, Low and None regions before the step.
    pre_drop: [f64; 3],
    snap: PlatformSnapshot,
    /// The pool's sustainable bandwidth, GB/s.
    sustainable: f64,
}

/// Run totals, the Fig 18 samples and the last interval's gauges.
#[derive(Default)]
struct Totals {
    energy_j: f64,
    be_units: f64,
    prefill_tokens: u64,
    decode_tokens: u64,
    completed: u64,
    shared_llc_samples: Samples,
    shared_bw_samples: Samples,
    none_core_samples: Samples,
    gauges: [(&'static str, f64); 8],
}

impl Totals {
    /// Accounting: adds one interval's energy, tokens, completions and
    /// allocation samples, and keeps its gauges.
    fn record(
        &mut self,
        place: &Placement,
        stepped: &Stepped,
        stats: &IntervalStats,
        observed: &SystemState,
        dt_secs: f64,
    ) {
        let snap = &stepped.snap;
        self.energy_j += snap.power.value() * dt_secs;
        self.prefill_tokens += stats.prefill_tokens;
        self.decode_tokens += stats.decode_tokens;
        self.completed += stats.completed;
        self.shared_llc_samples.record(f64::from(place.shared_llc));
        self.shared_bw_samples
            .record(place.alloc.shared.mem_bw_frac * 100.0);
        self.none_core_samples
            .record(place.div.cores(AuUsageLevel::None) as f64);
        // The queue and sensed-latency gauges show what the manager
        // observed, sensor faults included.
        self.gauges = [
            ("power_w", snap.power.value()),
            ("bw_utilization", snap.bw_utilization),
            ("queue_len", observed.queue_len as f64),
            ("decode_batch", observed.decode_batch as f64),
            ("freq_low_ghz", snap.freqs[IDX_LOW].value()),
            ("shared_llc_ways", f64::from(place.shared_llc)),
            ("recent_ttft_p90", observed.recent_ttft_p90),
            ("recent_tpot_p50", observed.recent_tpot_p50),
        ];
    }

    /// The end-of-run registry: counters over the run and the last
    /// interval's gauges.
    fn metrics(&self, at: SimTime) -> MetricsSnapshot {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("prefill_tokens", self.prefill_tokens);
        registry.counter_add("decode_tokens", self.decode_tokens);
        registry.counter_add("requests_completed", self.completed);
        for (name, value) in self.gauges {
            registry.gauge_set(name, value);
        }
        registry.snapshot(at)
    }
}

impl Run<'_> {
    fn open_interval(&self, step: usize, now: SimTime) {
        self.tracer.emit(now, || Event::SpanOpen {
            id: SpanId::derive(SpanKind::ControllerInterval, step as u64).0,
            parent: None,
            kind: SpanKind::ControllerInterval,
            track: self.track.clone(),
            label: None,
        });
    }

    fn close_interval(&self, step: usize, until: SimTime) {
        self.tracer.emit(until, || Event::SpanClose {
            id: SpanId::derive(SpanKind::ControllerInterval, step as u64).0,
            kind: SpanKind::ControllerInterval,
            track: self.track.clone(),
        });
    }

    /// Sensing: serving telemetry from the engine, platform telemetry from
    /// the previous interval.
    fn sense(&self, engine: &LlmEngine, now: SimTime, feedback: &Feedback) -> SystemState {
        let [(ttft_p50, ttft_p90), (tpot_p50, tpot_p90)] = engine.recent_latency_quantiles();
        SystemState {
            now,
            scenario: self.cfg.scenario,
            be: self.cfg.be,
            queue_len: engine.queue_len(),
            head_wait: engine.head_wait(),
            decode_batch: engine.decode_batch(),
            worst_lag_secs: engine.worst_lag_secs(),
            recent_ttft_p50: ttft_p50,
            recent_ttft_p90: ttft_p90,
            recent_tpot_p50: tpot_p50,
            recent_tpot_p90: tpot_p90,
            power_w: feedback.power_w,
            bw_utilization: feedback.bw_utilization,
        }
    }

    /// Decision and RDT write path: the manager decides on what it
    /// observed, a division that misses cores is an error, and offline
    /// cores and the RDT write path shape what the hardware runs.
    fn decide(
        &self,
        manager: &mut dyn ResourceManager,
        observed: &SystemState,
        fx: &FaultEffects,
        rdt: &mut RdtWritePath,
        step: usize,
        now: SimTime,
    ) -> Result<Placement, AumError> {
        let decision = {
            let _prof = aum_sim::prof::scope("ctrl.decide");
            manager.decide(observed)
        };
        let div = decision.division;
        if div.total_cores() != self.total_cores {
            return Err(AumError::Division(format!(
                "{}: division {div} does not cover the {}-core platform",
                manager.name(),
                self.total_cores
            )));
        }
        let alloc = rdt.write(decision.allocation, fx, step, now, &self.tracer);
        let spec = &self.cfg.platform;
        let (au, shared, be_present) = (alloc.au, alloc.shared, self.be.is_some());
        let (au_llc, shared_llc) =
            effective_ways(au.llc_ways, shared.llc_ways, spec.llc_ways, be_present);
        let (_, shared_l2) = effective_ways(au.l2_ways, shared.l2_ways, spec.l2_ways, be_present);
        let amp =
            |level| crate::calib::au_cache_profile(level).bandwidth_amplification(spec, au_llc);
        let impact = |p: &BeProfile, level| smt_impact(p.smt, level, 1.0);
        Ok(Placement {
            // CoreOffline shadows the division the platform actually runs:
            // the manager's view stays full-width (it cannot see the dead
            // cores), the hardware comes up short.
            div: apply_core_offline(div, fx.offline_cores),
            alloc,
            smt_sharing: decision.smt_sharing,
            engine_mode: decision.engine_mode,
            au_llc,
            shared_llc,
            shared_l2,
            prefill_amp: amp(AuUsageLevel::High),
            decode_amp: amp(AuUsageLevel::Low),
            smt: self
                .be
                .as_ref()
                .filter(|_| decision.smt_sharing)
                .map(|p| (impact(p, AuUsageLevel::High), impact(p, AuUsageLevel::Low))),
        })
    }

    /// Loads and platform step: the four region loads, the thermal drops
    /// the step resolves against, and the step.
    fn step_platform(
        &self,
        platform: &mut PlatformSim,
        place: &Placement,
        feedback: &Feedback,
        now: SimTime,
        be_surge: f64,
    ) -> Stepped {
        let (spec, div, alloc) = (&self.cfg.platform, &place.div, &place.alloc);
        let sibling = |duty: f64| match (&self.be, place.smt_sharing) {
            (Some(p), true) => Some(SmtSibling {
                class: p.activity,
                duty,
            }),
            _ => None,
        };
        // Demands are duty-weighted: a phase that is busy 20% of the time
        // draws 20% of its running bandwidth on average — in the
        // time-multiplexed mode this is exactly what makes prefill and
        // decode share the pool correctly (they never run simultaneously).
        let last = &feedback.stats;
        let prefill_duty = last.prefill_busy.clamp(0.05, 1.0);
        let decode_duty = last.decode_busy.clamp(0.05, 1.0);
        let mut loads = [
            RegionLoad {
                level: AuUsageLevel::High,
                cores: div.cores(AuUsageLevel::High),
                class: ActivityClass::Amx,
                duty: prefill_duty,
                bw_demand: GbPerSec(
                    last.prefill_bw_demand.value() * place.prefill_amp * prefill_duty,
                ),
                bw_cap: alloc.au.mem_bw_frac,
                smt_sibling: sibling(0.9),
            },
            RegionLoad {
                level: AuUsageLevel::Low,
                cores: div.cores(AuUsageLevel::Low),
                class: ActivityClass::Avx,
                duty: decode_duty,
                bw_demand: GbPerSec(last.decode_bw_demand.value() * place.decode_amp * decode_duty),
                bw_cap: alloc.au.mem_bw_frac,
                smt_sibling: sibling(0.9),
            },
            RegionLoad::idle(AuUsageLevel::None, div.cores(AuUsageLevel::None)),
            // Bandwidth placeholder for an SMT-sibling BE (no physical cores).
            RegionLoad::idle(AuUsageLevel::None, 0),
        ];
        if let Some(be) = &self.be {
            let fluct = be.demand_multiplier(now.as_secs_f64(), be_surge);
            let cores = div.cores(AuUsageLevel::None);
            if cores > 0 {
                loads[IDX_NONE] = RegionLoad {
                    level: AuUsageLevel::None,
                    cores,
                    class: be.activity,
                    duty: 1.0,
                    bw_demand: GbPerSec(
                        be.bw_demand(spec, cores, place.shared_llc).value() * fluct,
                    ),
                    bw_cap: alloc.shared.mem_bw_frac,
                    smt_sibling: None,
                };
            }
            if place.smt_sharing {
                // Sibling threads run at SMT efficiency: their achievable
                // bandwidth demand shrinks with their own slowdown.
                let demand = be.bw_demand(spec, div.au_cores(), place.shared_llc).value();
                loads[IDX_SIBLING].bw_demand = GbPerSec(demand * fluct * 0.6);
                loads[IDX_SIBLING].bw_cap = alloc.shared.mem_bw_frac;
            }
        }
        // Thermal drops must be read *before* the step: `PlatformSim::step`
        // resolves this interval's frequencies against the pre-advance
        // thermal state, and the attribution ledger charges the same drop.
        let pre_drop = [AuUsageLevel::High, AuUsageLevel::Low, AuUsageLevel::None]
            .map(|level| platform.thermal().drop_for(level).value());
        let snap = {
            let _prof = aum_sim::prof::scope("platform.step");
            platform.step(self.cfg.control_interval, &loads)
        };
        let sustainable = platform.pool().sustainable().value();
        Stepped {
            loads,
            pre_drop,
            snap,
            sustainable,
        }
    }

    /// Engine: advances serving to `until` with the granted resources, then
    /// beats the live heartbeat and the sim-time stall watchdog.
    fn advance_engine(
        &self,
        engine: &mut LlmEngine,
        place: &Placement,
        stepped: &Stepped,
        until: SimTime,
        stalled: &mut u32,
    ) -> IntervalStats {
        let (snap, div) = (&stepped.snap, &place.div);
        let no_smt = SmtImpact {
            au_compute_slowdown: 1.0,
            au_memory_slowdown: 1.0,
            be_slowdown: 1.0,
        };
        let (high_smt, low_smt) = place.smt.unwrap_or((no_smt, no_smt));
        // While a phase actually runs it gets its time-averaged grant
        // compressed into its busy window, capped by the pool.
        let region = |idx: usize, level, smt: SmtImpact| RegionResources {
            cores: match place.engine_mode {
                EngineMode::TimeMultiplexed => div.au_cores(),
                EngineMode::Partitioned => div.cores(level),
            },
            freq_ghz: snap.freqs[idx].value(),
            bandwidth: GbPerSec(
                (snap.bw_grants[idx].granted.value() / stepped.loads[idx].duty.max(0.05))
                    .clamp(2.0, stepped.sustainable),
            ),
            memory_penalty: crate::calib::au_llc_penalty(&self.cfg.platform, level, place.au_llc)
                * smt.au_memory_slowdown,
            compute_penalty: smt.au_compute_slowdown,
        };
        let res = EngineResources {
            prefill: region(IDX_HIGH, AuUsageLevel::High, high_smt),
            decode: region(IDX_LOW, AuUsageLevel::Low, low_smt),
            mode: place.engine_mode,
        };
        let stats = engine.run_interval(until, &res);
        // Wall-clock heartbeat for the run-health watchdog: a long single
        // cell still counts as progress once per control interval.
        aum_sim::live::heartbeat();
        // Sim-time stall detection: work queued but zero tokens served for
        // WATCHDOG_STALL_INTERVALS consecutive intervals is a stall —
        // reported as a typed event (and a flight-recorder trigger) once
        // per episode, re-arming when progress resumes.
        if engine.queue_len() == 0 || stats.prefill_tokens > 0 || stats.decode_tokens > 0 {
            *stalled = 0;
            return stats;
        }
        *stalled += 1;
        if *stalled == WATCHDOG_STALL_INTERVALS {
            let queue_len = engine.queue_len();
            let detail = format!(
                "no serving progress for {:.1}s with {queue_len} request(s) queued",
                f64::from(WATCHDOG_STALL_INTERVALS) * self.dt_secs
            );
            self.tracer.emit(until, || Event::WatchdogStall {
                intervals: WATCHDOG_STALL_INTERVALS,
                queue_len,
                detail,
            });
        }
        stats
    }

    /// BE integration: best-effort units completed this interval on
    /// None-region cores and on the hyperthread siblings of AU cores.
    fn be_progress(&self, place: &Placement, snap: &PlatformSnapshot) -> f64 {
        let Some(be) = &self.be else {
            return 0.0;
        };
        let (spec, div) = (&self.cfg.platform, &place.div);
        let (llc, l2) = (place.shared_llc, place.shared_l2);
        let units = |level, idx: usize, grant: usize, be_slowdown| {
            let slowdown = snap.bw_grants[grant].slowdown.max(1.0);
            let freq = snap.freqs[idx].value();
            be.throughput(spec, div.cores(level), freq, llc, l2, slowdown, be_slowdown)
                * self.dt_secs
        };
        let mut total = 0.0;
        if div.cores(AuUsageLevel::None) > 0 {
            total += units(AuUsageLevel::None, IDX_NONE, IDX_NONE, 1.0);
        }
        if let Some((high, low)) = place.smt {
            total += units(AuUsageLevel::High, IDX_HIGH, IDX_SIBLING, high.be_slowdown);
            total += units(AuUsageLevel::Low, IDX_LOW, IDX_SIBLING, low.be_slowdown);
        }
        total
    }

    /// Ledger: the interval's per-region time and energy attribution,
    /// traced as `AttributionSample`s.
    fn ledger_interval(
        &self,
        platform: &PlatformSim,
        place: &Placement,
        stepped: &Stepped,
        shed: bool,
        now: SimTime,
    ) -> IntervalLedger {
        let spec = &self.cfg.platform;
        let (loads, snap, div) = (&stepped.loads, &stepped.snap, &place.div);
        let dt_secs = self.dt_secs;
        // Decompose this interval's package power into per-region static
        // and dynamic watts, mirroring `PlatformSim`'s power closure term
        // by term: the ledger rows must re-derive `snap.power` so the
        // energy-conservation check cross-validates two independent
        // summations of the same model.
        let pm = platform.power_model();
        let idle_w = pm.idle_core_power().value();
        // Indexed AuHigh / AuLow / Shared / Uncore.
        let mut static_w = [0.0f64; 4];
        let mut dynamic_w = [0.0f64; 4];
        let mut claimed = 0usize;
        for (i, l) in loads.iter().enumerate() {
            let r = match i {
                IDX_HIGH => 0,
                IDX_LOW => 1,
                _ => 2,
            };
            claimed += l.cores;
            let core_w = pm.core_power(snap.freqs[i], l.class, l.duty).value();
            static_w[r] += idle_w * l.cores as f64;
            dynamic_w[r] += (core_w - idle_w) * l.cores as f64;
            if let Some(sib) = l.smt_sibling {
                // Sibling-thread BE work runs on AU cores but belongs to
                // the shared class's account.
                dynamic_w[2] += (pm.core_power(snap.freqs[i], sib.class, sib.duty).value()
                    - idle_w)
                    * SMT_POWER_FACTOR
                    * l.cores as f64;
            }
        }
        // Cores no load claims (e.g. offlined by a fault) idle on the
        // shared account; the uncore splits into its static floor plus the
        // bandwidth-proportional remainder.
        static_w[2] += idle_w * self.total_cores.saturating_sub(claimed) as f64;
        static_w[3] += pm.uncore_power(0.0).value();
        dynamic_w[3] += pm.uncore_power(snap.bw_utilization).value() - pm.uncore_power(0.0).value();

        let turbo = platform.governor().turbo().value();
        let work = |kind: SignatureKind, idx: usize, amp: f64| {
            let w = signature(kind, spec).work_split(snap.bw_grants[idx].slowdown.max(1.0), amp);
            WorkFractions {
                compute: w.compute,
                l1: w.l1,
                l2: w.l2,
                llc: w.llc,
                dram: w.dram,
                contention: w.contention,
            }
        };
        let au_work = |kind: SignatureKind, idx: usize, amp: f64| -> WorkFractions {
            let mut w = work(kind, idx, amp);
            if self.be.is_none() {
                // No co-runner: pool pressure is self-inflicted (prefill
                // and decode competing), not contention.
                w.dram += w.contention;
                w.contention = 0.0;
            }
            w
        };
        let (shared_busy, shared_work) = match &self.be {
            Some(be) if div.cores(AuUsageLevel::None) > 0 || place.smt_sharing => {
                let (duty, idx) = if div.cores(AuUsageLevel::None) > 0 {
                    (1.0, IDX_NONE)
                } else {
                    (0.9, IDX_SIBLING)
                };
                let kind = match be.activity {
                    ActivityClass::MemoryBound => SignatureKind::Mcf,
                    _ => SignatureKind::Ads,
                };
                (duty, work(kind, idx, 1.0))
            }
            _ => (0.0, WorkFractions::all_compute()),
        };
        let region_samples = [
            RegionSample {
                region: attrib::Region::AuHigh,
                busy_frac: loads[IDX_HIGH].duty,
                freq_ghz: snap.freqs[IDX_HIGH].value(),
                unlicensed_ghz: turbo,
                thermal_drop_ghz: stepped.pre_drop[0],
                work: au_work(SignatureKind::Prefill, IDX_HIGH, place.prefill_amp),
                static_j: static_w[0] * dt_secs,
                dynamic_j: dynamic_w[0] * dt_secs,
                shed: false,
            },
            RegionSample {
                region: attrib::Region::AuLow,
                busy_frac: loads[IDX_LOW].duty,
                freq_ghz: snap.freqs[IDX_LOW].value(),
                unlicensed_ghz: turbo,
                thermal_drop_ghz: stepped.pre_drop[1],
                work: au_work(SignatureKind::Decode, IDX_LOW, place.decode_amp),
                static_j: static_w[1] * dt_secs,
                dynamic_j: dynamic_w[1] * dt_secs,
                shed: false,
            },
            RegionSample {
                region: attrib::Region::Shared,
                busy_frac: shared_busy,
                freq_ghz: snap.freqs[IDX_NONE].value(),
                unlicensed_ghz: turbo,
                thermal_drop_ghz: stepped.pre_drop[2],
                work: shared_work,
                static_j: static_w[2] * dt_secs,
                dynamic_j: dynamic_w[2] * dt_secs,
                shed,
            },
            RegionSample {
                region: attrib::Region::Uncore,
                busy_frac: snap.bw_utilization.clamp(0.0, 1.0),
                freq_ghz: 1.0,
                unlicensed_ghz: 1.0,
                thermal_drop_ghz: 0.0,
                work: WorkFractions::all_dram(),
                static_j: static_w[3] * dt_secs,
                dynamic_j: dynamic_w[3] * dt_secs,
                shed: false,
            },
        ];
        let interval =
            IntervalLedger::build(now, dt_secs, snap.power.value() * dt_secs, &region_samples);
        if self.tracer.is_enabled() {
            for row in &interval.regions {
                let (region, time, energy) = (row.region, row.time, row.energy);
                self.tracer.emit(now, || Event::AttributionSample {
                    region,
                    dt_secs,
                    time,
                    energy,
                });
            }
        }
        interval
    }
}

/// Publishes this run's final Prometheus exposition — the end-of-run
/// registry snapshot plus the SLO latency histograms — to the live `/metrics`
/// endpoint, when one is installed ([`aum_sim::live`]). Runs executed as
/// sweep cells call this on completion, which is exactly the "refresh per
/// completed cell" contract of the live plane. Wall-clock observability
/// only: the published text never feeds back into the simulation.
fn publish_live(outcome: &Outcome) {
    let Some(live) = aum_sim::live::installed() else {
        return;
    };
    let mut text = aum_sim::prom::render_registry(&outcome.metrics);
    text.push_str(&aum_sim::prom::render_histogram(
        "aum_ttft_seconds",
        "Time-to-first-token distribution of the last completed cell.",
        &[("scheme", &outcome.scheme)],
        &outcome.slo.ttft_hist,
    ));
    text.push_str(&aum_sim::prom::render_histogram(
        "aum_tpot_request_seconds",
        "Per-request mean token-time distribution of the last completed cell.",
        &[("scheme", &outcome.scheme)],
        &outcome.slo.tpot_req_hist,
    ));
    live.publish_exposition(text);
}

/// Removes `count` cores from a division: spare (None) cores go first,
/// then decode (Low), then prefill (High); each AU region keeps at least
/// one core so serving degrades instead of disappearing outright.
fn apply_core_offline(div: ProcessorDivision, count: usize) -> ProcessorDivision {
    if count == 0 {
        return div;
    }
    let mut high = div.cores(AuUsageLevel::High);
    let mut low = div.cores(AuUsageLevel::Low);
    let mut none = div.cores(AuUsageLevel::None);
    let mut remaining = count;
    let take = |region: &mut usize, floor: usize, remaining: &mut usize| {
        let taken = region.saturating_sub(floor).min(*remaining);
        *region -= taken;
        *remaining -= taken;
    };
    take(&mut none, 0, &mut remaining);
    take(&mut low, 1, &mut remaining);
    take(&mut high, 1, &mut remaining);
    ProcessorDivision::new(high, low, none)
}

/// Rejects a config that would hang or panic a run: a zero control
/// interval, a duration with no whole interval in it, a request rate that
/// is not positive and finite, an unusable model, platform or price field
/// ([`ModelConfig::validate`], [`PlatformSpec::validate`],
/// [`Prices::validate`]), or a platform whose memory cannot hold the
/// model's weights.
pub(crate) fn validate(cfg: &ExperimentConfig) -> Result<(), String> {
    cfg.model.validate().map_err(|e| format!("model.{e}"))?;
    cfg.platform
        .validate()
        .map_err(|e| format!("platform.{e}"))?;
    cfg.prices.validate().map_err(|e| format!("prices.{e}"))?;
    KvBudget::for_platform(&cfg.platform, &cfg.model, PRECISION)
        .map_err(|e| format!("platform.memory_gb: {e}"))?;
    let (interval, duration) = (cfg.control_interval, cfg.duration);
    let problem = if interval == SimDuration::ZERO {
        "control interval is zero".to_string()
    } else if duration < interval {
        format!(
            "duration {}s is shorter than one {}s control interval",
            duration.as_secs_f64(),
            interval.as_secs_f64()
        )
    } else if let Some(rate) = cfg.rate.filter(|r| !(r.is_finite() && *r > 0.0)) {
        format!("request rate must be positive and finite, got {rate}")
    } else {
        return Ok(());
    };
    Err(problem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Decision;
    use aum_platform::rdt::ResourceVector;

    /// A static manager for harness tests.
    struct Static {
        name: &'static str,
        decision: Decision,
    }

    impl ResourceManager for Static {
        fn name(&self) -> &'static str {
            self.name
        }
        fn decide(&mut self, _: &SystemState) -> Decision {
            self.decision
        }
    }

    fn exclusive_manager(total: usize) -> Static {
        Static {
            name: "exclusive",
            decision: Decision {
                division: ProcessorDivision::exclusive(total, total / 3),
                allocation: RdtAllocation::new(
                    ResourceVector::new(15, 15, 1.0),
                    ResourceVector::new(1, 1, 0.1),
                ),
                smt_sharing: false,
                engine_mode: EngineMode::TimeMultiplexed,
            },
        }
    }

    fn shared_manager(total: usize) -> Static {
        Static {
            name: "shared",
            decision: Decision {
                division: ProcessorDivision::new(
                    total / 3,
                    total / 4,
                    total - total / 3 - total / 4,
                ),
                allocation: RdtAllocation::new(
                    ResourceVector::new(10, 10, 0.8),
                    ResourceVector::new(6, 6, 0.3),
                ),
                smt_sharing: false,
                engine_mode: EngineMode::Partitioned,
            },
        }
    }

    fn short_cfg(be: Option<BeKind>) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default(PlatformSpec::gen_a(), Scenario::Chatbot, be);
        cfg.duration = SimDuration::from_secs(60);
        cfg
    }

    #[test]
    fn exclusive_run_produces_serving_metrics() {
        let cfg = short_cfg(None);
        let mut mgr = exclusive_manager(cfg.platform.total_cores());
        let out = run_experiment(&cfg, &mut mgr);
        // 60 s window at 0.4 req/s × 200 tokens includes ramp-up, so the
        // emitted-token rate sits below the 80 tokens/s offered load.
        assert!(out.decode_tps > 40.0, "decode tps {}", out.decode_tps);
        assert!(out.prefill_tps > 200.0, "prefill tps {}", out.prefill_tps);
        assert!(
            (150.0..=350.0).contains(&out.avg_power_w),
            "power {}",
            out.avg_power_w
        );
        assert!(out.efficiency > 0.0);
        assert_eq!(out.be_rate, 0.0);
        assert_eq!(out.scheme, "exclusive");
    }

    #[test]
    fn sharing_adds_be_throughput() {
        let cfg = short_cfg(Some(BeKind::SpecJbb));
        let mut mgr = shared_manager(cfg.platform.total_cores());
        let out = run_experiment(&cfg, &mut mgr);
        assert!(out.be_rate > 0.0, "BE work should progress");
        assert!(out.decode_tps > 35.0, "serving continues under sharing");
    }

    #[test]
    fn sharing_with_spatial_partition_can_beat_exclusive_efficiency() {
        // The paper's core claim: harvesting idle resources for BE work
        // improves performance-per-watt despite a small serving hit.
        let excl_cfg = short_cfg(None);
        let excl = run_experiment(&excl_cfg, &mut exclusive_manager(96));
        let share_cfg = short_cfg(Some(BeKind::SpecJbb));
        let shared = run_experiment(&share_cfg, &mut shared_manager(96));
        let gain = shared.efficiency_vs(&excl);
        assert!(
            gain > 1.0,
            "static sharing should already improve efficiency somewhat, got {gain}"
        );
        assert!(gain < 1.5, "gain should be moderate, got {gain}");
    }

    #[test]
    fn smt_sharing_degrades_slos_more_than_partitioned() {
        let total = 96;
        let smt = Static {
            name: "smt",
            decision: Decision {
                division: ProcessorDivision::exclusive(total, total / 3),
                allocation: RdtAllocation::unpartitioned(&PlatformSpec::gen_a()),
                smt_sharing: true,
                engine_mode: EngineMode::TimeMultiplexed,
            },
        };
        let cfg = short_cfg(Some(BeKind::Olap));
        let mut smt = smt;
        let smt_out = run_experiment(&cfg, &mut smt);
        let part_out = run_experiment(&cfg, &mut shared_manager(total));
        assert!(
            smt_out.slo.tpot_guarantee < part_out.slo.tpot_guarantee,
            "OLAP on hyperthreads should hurt decode more: smt={} part={}",
            smt_out.slo.tpot_guarantee,
            part_out.slo.tpot_guarantee
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let cfg = short_cfg(Some(BeKind::SpecJbb));
        let a = run_experiment(&cfg, &mut shared_manager(96));
        let b = run_experiment(&cfg, &mut shared_manager(96));
        assert_eq!(a.decode_tps.to_bits(), b.decode_tps.to_bits());
        assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn a_division_missing_cores_is_a_typed_error() {
        let cfg = short_cfg(None);
        let mut mgr = exclusive_manager(cfg.platform.total_cores() - 1);
        let err = try_run_experiment_traced(&cfg, &mut mgr, Tracer::disabled())
            .expect_err("a 95-core division on a 96-core platform must fail");
        assert!(matches!(err, AumError::Division(_)), "{err}");
        assert!(err
            .to_string()
            .contains("does not cover the 96-core platform"));
    }

    #[test]
    fn effective_ways_handles_overlap() {
        assert_eq!(effective_ways(8, 8, 16, true), (8, 8));
        assert_eq!(effective_ways(16, 16, 16, true), (8, 8));
        assert_eq!(effective_ways(12, 4, 16, true), (12, 4));
        assert_eq!(effective_ways(16, 16, 16, false), (16, 0));
    }

    #[test]
    fn outcome_exports_json() {
        let cfg = short_cfg(None);
        let out = run_experiment(&cfg, &mut exclusive_manager(96));
        let json = out.to_json_pretty().expect("encode");
        assert!(json.contains("\"efficiency\""));
        assert!(json.contains("\"ledger\""));
        let back: Outcome = serde_json::from_str(&json).expect("decode");
        assert_eq!(back.scheme, out.scheme);
        assert_eq!(back.completed, out.completed);
    }

    #[test]
    fn telemetry_series_are_recorded() {
        let cfg = short_cfg(Some(BeKind::SpecJbb));
        let out = run_experiment(&cfg, &mut shared_manager(96));
        assert_eq!(out.ledger.intervals.len(), 120); // 60 s / 500 ms
        assert_eq!(out.shared_llc_samples.len(), 120);
        assert!(out.avg_power_w > 100.0);
    }
}
