//! The co-location experiment harness.
//!
//! Runs an AU-accelerated LLM serving workload (optionally sharing the
//! platform with one best-effort application) under a given resource
//! manager, coupling the substrates each control interval:
//!
//! 1. the manager observes serving/platform telemetry and decides a
//!    [`crate::manager::Decision`] (division, RDT allocation, SMT sharing,
//!    engine mode);
//! 2. the platform model resolves frequencies, bandwidth grants and power
//!    for the described loads (including SMT sibling power);
//! 3. the serving engine advances with the granted resources, and the BE
//!    throughput model integrates its progress;
//! 4. telemetry feeds back into the next decision.
//!
//! This is the reproduction's equivalent of the paper's testbed runs behind
//! Figures 14-18.
//!
//! One harness run simulates one server. Cluster-scale composition lives
//! in [`crate::cluster`] (steady-state split across servers) and
//! [`crate::fleet`] (the epoch-based resilient router above those
//! servers); both reuse this harness per node.

use serde::{Deserialize, Serialize};

use aum_au::topdown::{signature, SignatureKind};
use aum_au::unit::Precision;
use aum_llm::config::ModelConfig;
use aum_llm::engine::{
    EngineConfig, EngineMode, EngineResources, IntervalStats, LlmEngine, RegionResources,
};
use aum_llm::slo::SloReport;
use aum_llm::traces::{RateProfile, Scenario, TraceGenerator};
use aum_platform::power::ActivityClass;
use aum_platform::smt::smt_impact;
use aum_platform::spec::PlatformSpec;
use aum_platform::state::{PlatformSim, RegionLoad, SmtSibling, SMT_POWER_FACTOR};
use aum_platform::topology::{AuUsageLevel, ProcessorDivision};
use aum_platform::units::GbPerSec;
use aum_sim::attrib::{self, IntervalLedger, Ledger, RegionSample, WorkFractions};
use aum_sim::rng::DetRng;
use aum_sim::series::TimeSeries;
use aum_sim::span::{SpanId, SpanKind};
use aum_sim::stats::Samples;
use aum_sim::telemetry::{Event, MetricsRegistry, MetricsSnapshot, ResilienceMode, Tracer};
use aum_sim::time::{SimDuration, SimTime};
use aum_workloads::be::{BeKind, BeProfile};

use crate::error::AumError;
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
    /// scenario for 120 simulated seconds, 500 ms control interval.
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
    /// Low-region frequency telemetry.
    pub freq_low: TimeSeries,
    /// Package power telemetry.
    pub power: TimeSeries,
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

    /// Serializes the full outcome (metrics, CDF samples, telemetry
    /// series) as pretty-printed JSON — the machine-readable artifact for
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

/// Runs one experiment under `manager`.
///
/// # Panics
///
/// Panics on any error [`try_run_experiment_traced`] returns.
pub fn run_experiment(cfg: &ExperimentConfig, manager: &mut dyn ResourceManager) -> Outcome {
    run_experiment_traced(cfg, manager, Tracer::disabled())
}

/// Runs one experiment under `manager` with a trace handle threaded through
/// the whole stack: the engine (request lifecycle, iterations), the
/// platform (frequency/thermal transitions), the manager (decisions with
/// reasons) and this harness itself (RDT reallocations, fault injection).
/// With `Tracer::disabled()` this is exactly [`run_experiment`].
///
/// # Panics
///
/// Panics on any error [`try_run_experiment_traced`] returns.
pub fn run_experiment_traced(
    cfg: &ExperimentConfig,
    manager: &mut dyn ResourceManager,
    tracer: Tracer,
) -> Outcome {
    try_run_experiment_traced(cfg, manager, tracer)
        .unwrap_or_else(|e| panic!("experiment failed: {e}"))
}

/// Fallible variant of [`run_experiment_traced`]. The config is
/// validated before any work, so a malformed one (for instance from
/// hand-edited JSON) fails cleanly instead of panicking or hanging.
///
/// # Errors
///
/// - [`AumError::Config`] for a zero control interval, a duration shorter
///   than one interval, or a request rate that is not positive and finite;
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
    validate(cfg)?;
    cfg.fault.validate().map_err(AumError::FaultPlan)?;
    let spec = &cfg.platform;
    let total_cores = spec.total_cores();
    let rate = cfg.rate.unwrap_or_else(|| cfg.scenario.default_rate());
    let rng = DetRng::from_seed(cfg.seed);
    let trace = TraceGenerator::new(cfg.scenario, rate)
        .with_profile(cfg.rate_profile)
        .generate(&rng, cfg.duration);
    let engine_cfg = EngineConfig {
        model: cfg.model.clone(),
        precision: Precision::Bf16,
        max_batch: 16,
        prefill_batch: 1,
        scenario: cfg.scenario,
        kv_budget: Some(aum_llm::kv::KvBudget::for_platform(
            spec,
            &cfg.model,
            Precision::Bf16,
        )),
        prefill_chunk: None,
    };
    let mut engine = LlmEngine::new(engine_cfg, spec, trace);
    let mut platform = PlatformSim::new(spec.clone());
    engine.set_tracer(tracer.clone());
    platform.attach_tracer(tracer.clone());
    manager.attach_tracer(tracer.clone());
    // The span track names this run; every distinguishing knob is folded
    // in so concurrent cells sharing one sink never collide on span ids
    // (ids are unique per track only).
    let span_track = format!(
        "{}/{}+{} c{} r{} s{} d{} f{}",
        manager.name(),
        cfg.scenario.code(),
        cfg.be.map_or_else(|| "none".to_string(), |b| b.to_string()),
        total_cores,
        rate,
        cfg.seed,
        cfg.duration.as_secs_f64(),
        cfg.fault.events.len(),
    );
    engine.set_span_track(span_track.clone());
    // The run's SLO deadlines, once, so the trace is self-contained for
    // burn-rate analysis in `trace-summary`.
    let slo = cfg.scenario.slo();
    tracer.emit(SimTime::ZERO, || Event::SloTargets {
        ttft_secs: slo.ttft.as_secs_f64(),
        tpot_secs: slo.tpot.as_secs_f64(),
    });
    let be_profile = cfg.be.map(BeProfile::of);

    // Feedback state from the previous interval.
    let mut last_stats = IntervalStats {
        prefill_busy: 0.5,
        decode_busy: 0.8,
        prefill_bw_demand: GbPerSec(90.0),
        decode_bw_demand: GbPerSec(spec.mem_bw.value() * 1.2),
        ..Default::default()
    };
    let mut last_power = 120.0;
    let mut last_bw_util = 0.5;

    // Accumulators.
    let mut energy_j = 0.0;
    let mut be_units = 0.0;
    let mut prefill_tokens = 0u64;
    let mut decode_tokens = 0u64;
    let mut shared_llc_samples = Samples::new();
    let mut shared_bw_samples = Samples::new();
    let mut none_core_samples = Samples::new();
    let mut freq_low = TimeSeries::new("freq_low_ghz");
    let mut power_series = TimeSeries::new("power_w");

    let dt = cfg.control_interval;
    let dt_secs = dt.as_secs_f64();
    let steps = (cfg.duration.as_nanos() / dt.as_nanos().max(1)) as usize;

    let mut registry = MetricsRegistry::new();
    let mut last_alloc: Option<aum_platform::rdt::RdtAllocation> = None;
    let mut ledger = Ledger::new();
    let mut stall_intervals: u32 = 0;

    // --- Fault plane. ---
    // The plan was validated up front; events scheduled past the run
    // window are warned about rather than silently dropped.
    let duration_secs = cfg.duration.as_secs_f64();
    #[derive(Clone, Copy)]
    enum FaultEdge {
        Apply,
        Revert,
    }
    let mut fault_schedule: Vec<(f64, usize, FaultEdge)> = Vec::new();
    for (i, ev) in cfg.fault.events.iter().enumerate() {
        if ev.at_secs >= duration_secs {
            tracer.emit(SimTime::ZERO, || Event::FaultOutsideWindow {
                kind: ev.fault.kind_label().to_string(),
                at_secs: ev.at_secs,
                duration_secs,
            });
            continue;
        }
        fault_schedule.push((ev.at_secs, i, FaultEdge::Apply));
        if let Some(rec) = ev.recover_at_secs {
            if rec < duration_secs {
                fault_schedule.push((rec, i, FaultEdge::Revert));
            }
        }
    }
    // Stable sort: same-instant edges keep script order.
    fault_schedule.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(core::cmp::Ordering::Equal));
    let mut fault_cursor = 0usize;
    let mut fault_active = vec![false; cfg.fault.events.len()];
    let mut sensor_rng = rng.stream("sensor-faults");
    let mut frozen_sensors: Option<SystemState> = None;
    // What the RDT MSRs actually hold vs. what the manager last requested:
    // under an RdtWriteFailure the two diverge.
    let mut applied_alloc: Option<aum_platform::rdt::RdtAllocation> = None;
    let mut rdt_pending: std::collections::VecDeque<(usize, aum_platform::rdt::RdtAllocation)> =
        std::collections::VecDeque::new();

    for step in 0..steps {
        let _prof = aum_sim::prof::scope("ctrl.interval");
        let now = SimTime::ZERO + dt * step as u64;
        let until = now + dt;
        tracer.emit(now, || Event::SpanOpen {
            id: SpanId::derive(SpanKind::ControllerInterval, step as u64).0,
            parent: None,
            kind: SpanKind::ControllerInterval,
            track: span_track.clone(),
            label: format!("interval {step}"),
        });

        // --- 0. Fault plane: fire every edge due at this boundary, in
        // script order (multi-event exactness: nothing is skipped, nothing
        // fires twice). ---
        let now_secs = now.as_secs_f64();
        let mut faults_changed = false;
        while fault_cursor < fault_schedule.len() && fault_schedule[fault_cursor].0 <= now_secs {
            let (_, idx, edge) = fault_schedule[fault_cursor];
            fault_cursor += 1;
            faults_changed = true;
            let ev = &cfg.fault.events[idx];
            match edge {
                FaultEdge::Apply => {
                    fault_active[idx] = true;
                    tracer.emit(now, || Event::FaultInjected {
                        kind: ev.fault.kind_label().to_string(),
                        detail: ev.fault.detail(),
                    });
                    tracer.emit(now, || Event::SpanOpen {
                        id: SpanId::derive(SpanKind::FaultWindow, idx as u64).0,
                        parent: None,
                        kind: SpanKind::FaultWindow,
                        track: span_track.clone(),
                        label: format!("fault {}", ev.fault.kind_label()),
                    });
                }
                FaultEdge::Revert => {
                    fault_active[idx] = false;
                    tracer.emit(now, || Event::FaultRecovered {
                        kind: ev.fault.kind_label().to_string(),
                    });
                    tracer.emit(now, || Event::SpanClose {
                        id: SpanId::derive(SpanKind::FaultWindow, idx as u64).0,
                        kind: SpanKind::FaultWindow,
                        track: span_track.clone(),
                    });
                }
            }
        }
        if faults_changed {
            // Recompose platform-side effects from what is active now;
            // overlapping faults combine by worst effect per subsystem.
            let mut bw_frac = 1.0f64;
            let mut cooling = 0.0f64;
            let mut lock: Option<AuUsageLevel> = None;
            for (ev, active) in cfg.fault.events.iter().zip(&fault_active) {
                if !*active {
                    continue;
                }
                match ev.fault {
                    Fault::BandwidthDegrade { frac } => bw_frac = bw_frac.min(frac),
                    Fault::ThermalRunaway { severity } => cooling = cooling.max(severity),
                    Fault::FrequencyLicenseLock { level } => {
                        lock = Some(worse_license(lock, level));
                    }
                    _ => {}
                }
            }
            platform.degrade_bandwidth(bw_frac)?;
            platform.set_cooling_loss(cooling);
            platform.set_license_lock(lock);
        }
        // Harness-side fault state for this interval.
        let mut offline_cores = 0usize;
        let mut be_surge = 1.0f64;
        let mut sensor_sigma = 0.0f64;
        let mut sensor_dropout = false;
        let mut rdt_failure: Option<u32> = None;
        for (ev, active) in cfg.fault.events.iter().zip(&fault_active) {
            if !*active {
                continue;
            }
            match ev.fault {
                Fault::CoreOffline { count } => offline_cores += count,
                Fault::BeSurge { factor } => be_surge *= factor,
                Fault::SensorNoise { sigma } => sensor_sigma = sensor_sigma.max(sigma),
                Fault::SensorDropout => sensor_dropout = true,
                Fault::RdtWriteFailure { delay_intervals } => {
                    rdt_failure =
                        Some(rdt_failure.map_or(delay_intervals, |d| d.min(delay_intervals)));
                }
                _ => {}
            }
        }

        // --- 1. Manager observes and decides. ---
        let [(ttft_p50, ttft_p90), (tpot_p50, tpot_p90)] = engine.recent_latency_quantiles();
        let state = SystemState {
            now,
            scenario: cfg.scenario,
            be: cfg.be,
            queue_len: engine.queue_len(),
            head_wait: engine.head_wait(),
            decode_batch: engine.decode_batch(),
            worst_lag_secs: engine.worst_lag_secs(),
            recent_ttft_p50: ttft_p50,
            recent_ttft_p90: ttft_p90,
            recent_tpot_p50: tpot_p50,
            recent_tpot_p90: tpot_p90,
            power_w: last_power,
            bw_utilization: last_bw_util,
        };
        // --- 1b. Sensor faults corrupt what the manager observes (the
        // ground truth driving the engine/platform stays intact). ---
        let state = if sensor_dropout {
            // Stale readback: the manager keeps seeing the last frame from
            // before the dropout, only the clock advances.
            let frozen = frozen_sensors.get_or_insert_with(|| state.clone());
            let mut stale = frozen.clone();
            stale.now = now;
            stale
        } else {
            frozen_sensors = None;
            let mut state = state;
            if sensor_sigma > 0.0 {
                // Multiplicative lognormal noise on the continuous sensors:
                // stays positive, is unbiased in log space, and scales with
                // the reading's magnitude like real measurement jitter.
                let mut jitter = |v: f64| v * sensor_rng.normal(0.0, sensor_sigma).exp();
                state.recent_ttft_p50 = jitter(state.recent_ttft_p50);
                state.recent_ttft_p90 = jitter(state.recent_ttft_p90);
                state.recent_tpot_p50 = jitter(state.recent_tpot_p50);
                state.recent_tpot_p90 = jitter(state.recent_tpot_p90);
                state.power_w = jitter(state.power_w);
                state.bw_utilization = jitter(state.bw_utilization);
            }
            state
        };
        let decision = {
            let _prof = aum_sim::prof::scope("ctrl.decide");
            manager.decide(&state)
        };
        let div = decision.division;
        if div.total_cores() != total_cores {
            return Err(AumError::Division(format!(
                "{}: division {div} does not cover the {total_cores}-core platform",
                manager.name()
            )));
        }
        // CoreOffline shadows the division the platform actually runs: the
        // manager's view stays full-width (it cannot see the dead cores),
        // the hardware comes up short.
        let div = apply_core_offline(div, offline_cores);
        // --- 1c. RDT write path: under an RdtWriteFailure the requested
        // allocation is silently dropped (delay 0) or lands late; the
        // hardware keeps its previous programming meanwhile. ---
        let requested = decision.allocation;
        let alloc = match rdt_failure {
            None => {
                rdt_pending.clear();
                applied_alloc = Some(requested);
                requested
            }
            Some(0) => applied_alloc.unwrap_or(requested),
            Some(delay) => {
                let due = step + delay as usize;
                if rdt_pending.back().map(|&(_, a)| a) != Some(requested) {
                    rdt_pending.push_back((due, requested));
                }
                while rdt_pending.front().is_some_and(|&(d, _)| d <= step) {
                    let (_, a) = rdt_pending.pop_front().expect("front exists");
                    applied_alloc = Some(a);
                }
                applied_alloc.unwrap_or(requested)
            }
        };
        if let Some(prev) = last_alloc {
            if prev != alloc {
                tracer.emit(now, || Event::RdtReallocation {
                    llc_ways_from: prev.au.llc_ways,
                    llc_ways_to: alloc.au.llc_ways,
                    l2_ways_from: prev.au.l2_ways,
                    l2_ways_to: alloc.au.l2_ways,
                    mem_bw_from: prev.au.mem_bw_frac,
                    mem_bw_to: alloc.au.mem_bw_frac,
                });
            }
        }
        last_alloc = Some(alloc);
        let be_present = be_profile.is_some();
        let (au_llc, shared_llc) = effective_ways(
            alloc.au.llc_ways,
            alloc.shared.llc_ways,
            spec.llc_ways,
            be_present,
        );
        let (_au_l2, shared_l2) = effective_ways(
            alloc.au.l2_ways,
            alloc.shared.l2_ways,
            spec.l2_ways,
            be_present,
        );

        // --- 2. Describe platform loads. ---
        let prefill_amp = crate::calib::au_cache_profile(AuUsageLevel::High)
            .bandwidth_amplification(spec, au_llc);
        let decode_amp =
            crate::calib::au_cache_profile(AuUsageLevel::Low).bandwidth_amplification(spec, au_llc);
        let sibling = |duty: f64| -> Option<SmtSibling> {
            match (&be_profile, decision.smt_sharing) {
                (Some(p), true) => Some(SmtSibling {
                    class: p.activity,
                    duty,
                }),
                _ => None,
            }
        };
        // Demands are duty-weighted: a phase that is busy 20% of the time
        // draws 20% of its running bandwidth on average — in the
        // time-multiplexed mode this is exactly what makes prefill and
        // decode share the pool correctly (they never run simultaneously).
        let prefill_duty = last_stats.prefill_busy.clamp(0.05, 1.0);
        let decode_duty = last_stats.decode_busy.clamp(0.05, 1.0);
        let mut loads = [
            RegionLoad {
                level: AuUsageLevel::High,
                cores: div.cores(AuUsageLevel::High),
                class: ActivityClass::Amx,
                duty: prefill_duty,
                bw_demand: GbPerSec(
                    last_stats.prefill_bw_demand.value() * prefill_amp * prefill_duty,
                ),
                bw_cap: alloc.au.mem_bw_frac,
                smt_sibling: sibling(0.9),
            },
            RegionLoad {
                level: AuUsageLevel::Low,
                cores: div.cores(AuUsageLevel::Low),
                class: ActivityClass::Avx,
                duty: decode_duty,
                bw_demand: GbPerSec(last_stats.decode_bw_demand.value() * decode_amp * decode_duty),
                bw_cap: alloc.au.mem_bw_frac,
                smt_sibling: sibling(0.9),
            },
            RegionLoad::idle(AuUsageLevel::None, div.cores(AuUsageLevel::None)),
            // Bandwidth placeholder for an SMT-sibling BE (no physical cores).
            RegionLoad::idle(AuUsageLevel::None, 0),
        ];
        if let Some(be) = &be_profile {
            let fluct = be.demand_multiplier(now_secs, be_surge);
            if div.cores(AuUsageLevel::None) > 0 {
                let cores = div.cores(AuUsageLevel::None);
                loads[IDX_NONE] = RegionLoad {
                    level: AuUsageLevel::None,
                    cores,
                    class: be.activity,
                    duty: 1.0,
                    bw_demand: GbPerSec(be.bw_demand(spec, cores, shared_llc).value() * fluct),
                    bw_cap: alloc.shared.mem_bw_frac,
                    smt_sibling: None,
                };
            }
            if decision.smt_sharing {
                // Sibling threads run at SMT efficiency: their achievable
                // bandwidth demand shrinks with their own slowdown.
                let smt_cores = div.au_cores();
                loads[IDX_SIBLING].bw_demand =
                    GbPerSec(be.bw_demand(spec, smt_cores, shared_llc).value() * fluct * 0.6);
                loads[IDX_SIBLING].bw_cap = alloc.shared.mem_bw_frac;
            }
        }
        // Thermal drops must be read *before* the step: `PlatformSim::step`
        // resolves this interval's frequencies against the pre-advance
        // thermal state, and the attribution ledger charges the same drop.
        let pre_drop = [
            platform.thermal().drop_for(AuUsageLevel::High).value(),
            platform.thermal().drop_for(AuUsageLevel::Low).value(),
            platform.thermal().drop_for(AuUsageLevel::None).value(),
        ];
        let snap = {
            let _prof = aum_sim::prof::scope("platform.step");
            platform.step(dt, &loads)
        };

        // --- 3. Advance the serving engine with granted resources. ---
        let smt = be_profile
            .as_ref()
            .filter(|_| decision.smt_sharing)
            .map(|p| {
                (
                    smt_impact(p.smt, AuUsageLevel::High, 1.0),
                    smt_impact(p.smt, AuUsageLevel::Low, 1.0),
                )
            });
        let (high_smt_c, high_smt_m) = smt.map_or((1.0, 1.0), |(h, _)| {
            (h.au_compute_slowdown, h.au_memory_slowdown)
        });
        let (low_smt_c, low_smt_m) = smt.map_or((1.0, 1.0), |(_, l)| {
            (l.au_compute_slowdown, l.au_memory_slowdown)
        });
        let engine_cores = |own: usize| match decision.engine_mode {
            EngineMode::TimeMultiplexed => div.au_cores(),
            EngineMode::Partitioned => own,
        };
        // While a phase actually runs it gets its time-averaged grant
        // compressed into its busy window, capped by the pool.
        let sustainable = platform.pool().sustainable().value();
        let grant_bw = |idx: usize, duty: f64, min_gbs: f64| -> GbPerSec {
            let g = snap.bw_grants[idx].granted.value() / duty.max(0.05);
            GbPerSec(g.clamp(min_gbs, sustainable))
        };
        let prefill_llc_pen = crate::calib::au_llc_penalty(spec, AuUsageLevel::High, au_llc);
        let decode_llc_pen = crate::calib::au_llc_penalty(spec, AuUsageLevel::Low, au_llc);
        let res = EngineResources {
            prefill: RegionResources {
                cores: engine_cores(div.cores(AuUsageLevel::High)),
                freq_ghz: snap.freqs[IDX_HIGH].value(),
                bandwidth: grant_bw(IDX_HIGH, prefill_duty, 2.0),
                memory_penalty: prefill_llc_pen * high_smt_m,
                compute_penalty: high_smt_c,
            },
            decode: RegionResources {
                cores: engine_cores(div.cores(AuUsageLevel::Low)),
                freq_ghz: snap.freqs[IDX_LOW].value(),
                bandwidth: grant_bw(IDX_LOW, decode_duty, 2.0),
                memory_penalty: decode_llc_pen * low_smt_m,
                compute_penalty: low_smt_c,
            },
            mode: decision.engine_mode,
        };
        let stats = engine.run_interval(until, &res);
        // Wall-clock heartbeat for the run-health watchdog: a long single
        // cell still counts as progress once per control interval.
        aum_sim::live::heartbeat();
        // Sim-time stall detection: work queued but zero tokens served for
        // WATCHDOG_STALL_INTERVALS consecutive intervals is a stall —
        // reported as a typed event (and a flight-recorder trigger) once
        // per episode, re-arming when progress resumes.
        if engine.queue_len() > 0 && stats.prefill_tokens == 0 && stats.decode_tokens == 0 {
            stall_intervals += 1;
            if stall_intervals == WATCHDOG_STALL_INTERVALS {
                let queue_len = engine.queue_len();
                let detail = format!(
                    "no serving progress for {:.1}s with {queue_len} request(s) queued",
                    f64::from(WATCHDOG_STALL_INTERVALS) * dt_secs
                );
                tracer.emit(until, || Event::WatchdogStall {
                    intervals: WATCHDOG_STALL_INTERVALS,
                    queue_len,
                    detail,
                });
            }
        } else {
            stall_intervals = 0;
        }

        // --- 4. Integrate BE progress. ---
        if let Some(be) = &be_profile {
            let mut units = 0.0;
            if div.cores(AuUsageLevel::None) > 0 {
                let slowdown = snap.bw_grants[IDX_NONE].slowdown.max(1.0);
                units += be.throughput(
                    spec,
                    div.cores(AuUsageLevel::None),
                    snap.freqs[IDX_NONE].value(),
                    shared_llc,
                    shared_l2,
                    slowdown,
                    1.0,
                ) * dt_secs;
            }
            if decision.smt_sharing {
                let slowdown = snap.bw_grants[IDX_SIBLING].slowdown.max(1.0);
                let (high_i, low_i) = smt.expect("smt impacts exist when smt_sharing");
                units += be.throughput(
                    spec,
                    div.cores(AuUsageLevel::High),
                    snap.freqs[IDX_HIGH].value(),
                    shared_llc,
                    shared_l2,
                    slowdown,
                    high_i.be_slowdown,
                ) * dt_secs;
                units += be.throughput(
                    spec,
                    div.cores(AuUsageLevel::Low),
                    snap.freqs[IDX_LOW].value(),
                    shared_llc,
                    shared_l2,
                    slowdown,
                    low_i.be_slowdown,
                ) * dt_secs;
            }
            be_units += units;
        }

        // --- Attribution ledger. ---
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
        static_w[2] += idle_w * total_cores.saturating_sub(claimed) as f64;
        static_w[3] += pm.uncore_power(0.0).value();
        dynamic_w[3] += pm.uncore_power(snap.bw_utilization).value() - pm.uncore_power(0.0).value();

        let turbo = platform.governor().turbo().value();
        let to_fractions = |w: aum_au::topdown::WorkSplit| WorkFractions {
            compute: w.compute,
            l1: w.l1,
            l2: w.l2,
            llc: w.llc,
            dram: w.dram,
            contention: w.contention,
        };
        let au_work = |kind: SignatureKind, idx: usize, amp: f64| -> WorkFractions {
            let split =
                signature(kind, spec).work_split(snap.bw_grants[idx].slowdown.max(1.0), amp);
            let mut w = to_fractions(split);
            if !be_present {
                // No co-runner: pool pressure is self-inflicted (prefill
                // and decode competing), not contention.
                w.dram += w.contention;
                w.contention = 0.0;
            }
            w
        };
        let (shared_busy, shared_work) = match &be_profile {
            Some(be) if div.cores(AuUsageLevel::None) > 0 || decision.smt_sharing => {
                let (duty, idx) = if div.cores(AuUsageLevel::None) > 0 {
                    (1.0, IDX_NONE)
                } else {
                    (0.9, IDX_SIBLING)
                };
                let kind = match be.activity {
                    ActivityClass::MemoryBound => SignatureKind::Mcf,
                    _ => SignatureKind::Ads,
                };
                let split =
                    signature(kind, spec).work_split(snap.bw_grants[idx].slowdown.max(1.0), 1.0);
                (duty, to_fractions(split))
            }
            _ => (0.0, WorkFractions::all_compute()),
        };
        let shed = manager.resilience() == Some(ResilienceMode::SafeMode);
        let region_samples = [
            RegionSample {
                region: attrib::Region::AuHigh,
                busy_frac: prefill_duty,
                freq_ghz: snap.freqs[IDX_HIGH].value(),
                unlicensed_ghz: turbo,
                thermal_drop_ghz: pre_drop[0],
                work: au_work(SignatureKind::Prefill, IDX_HIGH, prefill_amp),
                static_j: static_w[0] * dt_secs,
                dynamic_j: dynamic_w[0] * dt_secs,
                shed: false,
            },
            RegionSample {
                region: attrib::Region::AuLow,
                busy_frac: decode_duty,
                freq_ghz: snap.freqs[IDX_LOW].value(),
                unlicensed_ghz: turbo,
                thermal_drop_ghz: pre_drop[1],
                work: au_work(SignatureKind::Decode, IDX_LOW, decode_amp),
                static_j: static_w[1] * dt_secs,
                dynamic_j: dynamic_w[1] * dt_secs,
                shed: false,
            },
            RegionSample {
                region: attrib::Region::Shared,
                busy_frac: shared_busy,
                freq_ghz: snap.freqs[IDX_NONE].value(),
                unlicensed_ghz: turbo,
                thermal_drop_ghz: pre_drop[2],
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
        if tracer.is_enabled() {
            for row in &interval.regions {
                let (region, time, energy) = (row.region, row.time, row.energy);
                tracer.emit(now, || Event::AttributionSample {
                    region,
                    dt_secs,
                    time,
                    energy,
                });
            }
        }
        ledger.intervals.push(interval);

        // --- Accounting. ---
        energy_j += snap.power.value() * dt_secs;
        prefill_tokens += stats.prefill_tokens;
        decode_tokens += stats.decode_tokens;
        shared_llc_samples.record(f64::from(shared_llc));
        shared_bw_samples.record(alloc.shared.mem_bw_frac * 100.0);
        none_core_samples.record(div.cores(AuUsageLevel::None) as f64);
        freq_low.push(now, snap.freqs[IDX_LOW].value());
        power_series.push(now, snap.power.value());

        // Metrics registry: counters accumulate and gauges hold the latest
        // interval; it is snapshotted once, at the end of the run.
        registry.counter_add("prefill_tokens", stats.prefill_tokens);
        registry.counter_add("decode_tokens", stats.decode_tokens);
        registry.counter_add("requests_completed", stats.completed);
        registry.gauge_set("power_w", snap.power.value());
        registry.gauge_set("bw_utilization", snap.bw_utilization);
        registry.gauge_set("queue_len", state.queue_len as f64);
        registry.gauge_set("decode_batch", state.decode_batch as f64);
        registry.gauge_set("freq_low_ghz", snap.freqs[IDX_LOW].value());
        registry.gauge_set("shared_llc_ways", f64::from(shared_llc));
        registry.gauge_set("recent_ttft_p90", state.recent_ttft_p90);
        registry.gauge_set("recent_tpot_p50", state.recent_tpot_p50);
        tracer.emit(until, || Event::SpanClose {
            id: SpanId::derive(SpanKind::ControllerInterval, step as u64).0,
            kind: SpanKind::ControllerInterval,
            track: span_track.clone(),
        });

        // Feedback for the next interval: demands observed while busy.
        if stats.prefill_bw_demand.value() > 0.0 {
            last_stats.prefill_bw_demand = stats.prefill_bw_demand;
        }
        if stats.decode_bw_demand.value() > 0.0 {
            last_stats.decode_bw_demand = stats.decode_bw_demand;
        }
        last_stats.prefill_busy = stats.prefill_busy;
        last_stats.decode_busy = stats.decode_busy;
        last_power = snap.power.value();
        last_bw_util = snap.bw_utilization;
    }

    let secs = cfg.duration.as_secs_f64();
    let p_h = prefill_tokens as f64 / secs;
    let p_l = decode_tokens as f64 / secs;
    let p_n = be_units / secs;
    let avg_power = energy_j / secs;
    let gamma = cfg.be.map_or(0.0, Prices::gamma);
    // Conservation gate: a ledger that does not close is a modeling bug,
    // not a reporting nuisance — fail the run with the typed violation.
    ledger.verify(attrib::EPSILON)?;
    // Balance the span ledger: requests still in flight and fault windows
    // that never recovered close at the end of the run window, so every
    // trace yields a well-formed span forest.
    let end = SimTime::ZERO + dt * steps as u64;
    engine.close_open_spans(end);
    for (idx, active) in fault_active.iter().enumerate() {
        if *active {
            tracer.emit(end, || Event::SpanClose {
                id: SpanId::derive(SpanKind::FaultWindow, idx as u64).0,
                kind: SpanKind::FaultWindow,
                track: span_track.clone(),
            });
        }
    }
    tracer.flush();
    let outcome = Outcome {
        scheme: manager.name().to_owned(),
        slo: engine.slo_report(),
        prefill_tps: p_h,
        decode_tps: p_l,
        be_rate: p_n,
        avg_power_w: avg_power,
        efficiency: e_cpu(cfg.prices, p_h, p_l, gamma, p_n, avg_power),
        completed: engine.completed(),
        shared_llc_samples,
        shared_bw_samples,
        none_core_samples,
        freq_low,
        power: power_series,
        metrics: registry.snapshot(end),
        ledger,
    };
    publish_live(&outcome);
    Ok(outcome)
}

/// Consecutive zero-progress control intervals (with work queued) before
/// the sim-time watchdog reports a stall. At the default 500 ms interval
/// this is 8 s of simulated dead air — far beyond any healthy pause.
const WATCHDOG_STALL_INTERVALS: u32 = 16;

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

/// Picks the worse of two license locks: a High lock caps frequency lower
/// than a Low lock, so overlapping lock faults pin to the slowest class.
fn worse_license(current: Option<AuUsageLevel>, new: AuUsageLevel) -> AuUsageLevel {
    fn rank(l: AuUsageLevel) -> u8 {
        match l {
            AuUsageLevel::None => 0,
            AuUsageLevel::Low => 1,
            AuUsageLevel::High => 2,
        }
    }
    match current {
        Some(c) if rank(c) >= rank(new) => c,
        _ => new,
    }
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
/// interval, a duration with no whole interval in it, or a request rate
/// that is not positive and finite.
fn validate(cfg: &ExperimentConfig) -> Result<(), AumError> {
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
    Err(AumError::Config(problem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Decision;
    use aum_llm::engine::EngineMode;
    use aum_platform::rdt::{RdtAllocation, ResourceVector};

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
        assert!(json.contains("\"freq_low\""));
        let back: Outcome = serde_json::from_str(&json).expect("decode");
        assert_eq!(back.scheme, out.scheme);
        assert_eq!(back.completed, out.completed);
    }

    #[test]
    fn telemetry_series_are_recorded() {
        let cfg = short_cfg(Some(BeKind::SpecJbb));
        let out = run_experiment(&cfg, &mut shared_manager(96));
        assert_eq!(out.freq_low.len(), 120); // 60 s / 500 ms
        assert_eq!(out.shared_llc_samples.len(), 120);
        assert!(out.power.value_summary().mean() > 100.0);
    }
}
