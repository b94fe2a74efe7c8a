//! The Runtime AU Controller (paper §VI-C, Algorithm 1).
//!
//! Three cooperating stages run at every control interval:
//!
//! 1. **Slack-aware SLO analyzer** — converts the static deadlines into
//!    runtime budgets: `SLO_H = d_TTFT − t_wait` for prefill and
//!    `SLO_L = d_TPOT + LAG_i` for decode, where LAG measures how far each
//!    request runs ahead (+) or behind (−) an ideal schedule;
//! 2. **Efficiency-aware core switcher** — picks the AUV-model bucket that
//!    maximizes `E_CPU = (α·P_H + β·P_L + γ·P_N)/W_CPU` subject to the tail
//!    predictions satisfying the runtime budgets;
//! 3. **Collision-aware allocation tuner** — monitors measured tails:
//!    with SLO headroom it harvests one more step along the bound-aware
//!    resource ladder (LLC first, bandwidth last) using *average*
//!    predictions; on violation it returns a step using *tail* predictions.
//!    When the usage-weighted deviation `δ_AU` exceeds the threshold,
//!    tuning is deemed insufficient and the switcher re-selects the
//!    processor division (Algorithm 1 line 17).

use std::collections::VecDeque;
use std::sync::Arc;

use aum_au::ari::{qkv_ari_decode, qkv_ari_prefill, usage_from_ari};
use aum_llm::engine::EngineMode;
use aum_sim::telemetry::{DecisionKind, Event, ResilienceMode, SlackVerdict, SloMetric, Tracer};
use aum_sim::time::SimTime;

use crate::manager::{Decision, ResourceManager, SystemState};
use crate::profiler::AuvModel;

/// Deviation threshold above which the controller switches the processor
/// division rather than tuning allocations (paper §VII-A1: 2).
const DELTA_THRESHOLD: f64 = 2.0;

/// Intervals the controller waits after a change before acting again, so
/// the measured percentiles reflect the new configuration.
const COOLDOWN_INTERVALS: u32 = 6;

// --- Resilience layer tuning. ---

/// Sliding window (control intervals) over which breach pressure — the
/// fraction of intervals violating an SLO budget — is measured.
const PRESSURE_WINDOW: usize = 16;
/// Minimum samples before the pressure estimate drives mode transitions.
const MIN_PRESSURE_SAMPLES: usize = 8;
/// Pressure at which Normal degrades (harvesting frozen).
const DEGRADE_PRESSURE: f64 = 0.25;
/// Pressure at which Degraded escalates to safe mode (BE shed, fall back
/// to the profiler's conservative division).
const SAFE_PRESSURE: f64 = 0.5;
/// Pressure under which a degraded/recovering controller is calm again.
const CALM_PRESSURE: f64 = 1.0 / 16.0;
/// Pressure under which safe mode starts probing recovery, and above which
/// a recovery probe aborts back to safe mode.
const RECOVER_PRESSURE: f64 = 0.25;
/// Base safe-mode dwell (intervals) before a recovery probe is allowed;
/// doubled per recent relapse.
const SAFE_DWELL_INTERVALS: u32 = 8;
/// A safe-mode re-entry within this many intervals of the last exit is a
/// relapse: the fault evidently persists, so probe exponentially less
/// often — under a permanent fault, every optimistic probe is paid for in
/// fresh SLO damage.
const RELAPSE_WINDOW: u32 = 64;
/// Cap on the relapse backoff shift (dwell caps at `8 << 3` intervals).
const MAX_RELAPSE_LEVEL: u32 = 3;
/// Consecutive meeting intervals that relax the harvest ceiling by one
/// step. The ceiling is the hysteresis memory of the ladder: a violating
/// action clamps it at the rung below the one that just burned us, so a
/// persistent fault cannot bait the controller into re-climbing to the
/// same collapse over and over — the ladder re-opens one rung per calm
/// stretch instead.
const CEILING_DECAY_INTERVALS: u32 = 16;
/// Plausibility-filter history length (median-of-last-k).
const SENSOR_WINDOW: usize = 5;
/// A reading further than this factor from the running median is rejected
/// and the median substituted.
const PLAUSIBLE_FACTOR: f64 = 4.0;
/// Bit-identical readback streak that flags a suspected sensor dropout.
const STALE_INTERVALS: u32 = 3;
/// Bit-identical readback streak after which the controller stops acting
/// on the frozen frames entirely and holds its current bucket: every
/// downstream signal (slack, deviation, breach pressure) computed from a
/// frozen sensor path is fiction, and acting on fiction is how a healthy
/// harvest turns into an SLO collapse nobody can see.
const STALE_HOLD_INTERVALS: u32 = 24;
/// Exponential-backoff cap: cooldown doubles per direction flip up to
/// `COOLDOWN_INTERVALS << MAX_BACKOFF_LEVEL`.
const MAX_BACKOFF_LEVEL: u32 = 3;

/// The AUM runtime controller.
///
/// # Examples
///
/// ```no_run
/// use aum::controller::AumController;
/// use aum::profiler::{build_model, ProfilerConfig};
/// use aum_llm::traces::Scenario;
/// use aum_platform::spec::PlatformSpec;
/// use aum_workloads::be::BeKind;
///
/// let cfg = ProfilerConfig::paper_default(
///     PlatformSpec::gen_a(), Scenario::Chatbot, BeKind::SpecJbb);
/// let model = build_model(&cfg);
/// let controller = AumController::new(model);
/// assert_eq!(controller.current_bucket().0 < 5, true);
/// ```
#[derive(Debug, Clone)]
pub struct AumController {
    /// Shared, mostly-read-only AUV model. Kept behind an `Arc` so many
    /// controllers (parallel sweep cells) share one profiled model without
    /// cloning its buckets; online refinement copies-on-write.
    model: Arc<AuvModel>,
    current: (usize, usize),
    cooldown: u32,
    /// Normalized AU usage of the two phases (`U_AU`), precomputed from the
    /// §VI-B1 arithmetic-intensity formulas.
    u_high: f64,
    u_low: f64,
    /// Best tail latencies any profiled bucket achieves. When a deadline is
    /// *structurally* unattainable (e.g. the cc TTFT even under exclusive
    /// prefill, §VII-C), the controller treats that axis as best-effort
    /// against the achievable floor instead of freezing all harvesting.
    ttft_floor: f64,
    tpot_floor: f64,
    /// Consecutive comfortable decisions (harvest patience).
    calm_streak: u32,
    /// Online-refinement EWMA weight; `None` disables refinement. The
    /// paper names its reliance on pure runtime control (no online model
    /// complement) as AUM's limitation (§VII-D); this implements the
    /// complement: measured tails continuously fold back into the current
    /// bucket, so a drifting environment re-ranks the model.
    refine_alpha: Option<f64>,
    /// Telemetry: division switches and tuning steps taken.
    switches: u64,
    tunes: u64,
    /// Trace handle; decisions and SLO breaches stream here when attached.
    tracer: Tracer,
    // --- Resilience layer (sensor distrust, backoff, safe mode). ---
    /// Graceful-degradation state machine position.
    mode: ResilienceMode,
    /// Intervals spent in the current mode (hysteresis clock).
    mode_age: u32,
    /// Last `PRESSURE_WINDOW` intervals' breach verdicts (true = violating).
    breach_window: VecDeque<bool>,
    /// Plausibility-filter histories for the two decision-driving sensors.
    ttft_hist: VecDeque<f64>,
    tpot_hist: VecDeque<f64>,
    /// Bit patterns of the previous observation, for stale-readback
    /// detection (a dropped-out sensor repeats frames exactly).
    last_sensor_bits: Option<[u64; 6]>,
    stale_streak: u32,
    /// Exponential-backoff level: direction flips (harvest↔return) double
    /// the post-action cooldown, calm same-direction actions decay it.
    backoff_level: u32,
    /// Direction of the last action (true = conservative/violating).
    last_violating: Option<bool>,
    /// Times safe mode was entered (including re-entries from Recovering).
    safe_entries: u64,
    /// Recent quick re-entries into safe mode; each one doubles the dwell
    /// required before the next recovery probe (capped).
    safe_relapses: u32,
    /// Intervals since safe mode was last exited (saturating; `u32::MAX`
    /// until the first exit).
    since_safe_exit: u32,
    /// Highest harvest cfg the ladder may currently climb to (hysteresis
    /// memory; clamped by violating actions, relaxed by calm stretches).
    harvest_ceiling: usize,
    /// Consecutive meeting intervals counted toward a ceiling relaxation.
    ceiling_calm: u32,
    /// Sensor readings rejected or distrusted by the plausibility filter.
    sensor_rejections: u64,
}

/// Comfortable intervals required before one more harvesting step — the
/// asymmetric response (return immediately, harvest slowly) that keeps the
/// controller from thrashing across the SLO boundary.
const HARVEST_PATIENCE: u32 = 4;

impl AumController {
    /// Creates a controller from a profiled AUV model, starting at the
    /// bucket the efficiency-aware switcher picks for the static SLOs.
    ///
    /// Accepts either an owned [`AuvModel`] or an `Arc<AuvModel>`; passing
    /// the `Arc` (e.g. straight from the bench harness model cache) shares
    /// the profiled buckets instead of cloning them per controller.
    #[must_use]
    pub fn new(model: impl Into<Arc<AuvModel>>) -> Self {
        let model = model.into();
        let slo = model.scenario.slo();
        let current = model.best_bucket(slo.ttft.as_secs_f64(), slo.tpot.as_secs_f64());
        // Representative operator intensities: QKV mapping at d=4096 with
        // the scenario's mean prompt length and batch 16 (§VI-B1).
        let mean_input = model.scenario.mean_input();
        let u_high = usage_from_ari(qkv_ari_prefill(4096, 16, mean_input));
        let u_low = usage_from_ari(qkv_ari_decode(4096, 16));
        let ttft_floor = model
            .buckets
            .iter()
            .map(|b| b.ttft_p90)
            .fold(f64::INFINITY, f64::min);
        let tpot_floor = model
            .buckets
            .iter()
            .map(|b| b.tpot_p90)
            .fold(f64::INFINITY, f64::min);
        let harvest_ceiling = model.cfg_count.saturating_sub(1);
        AumController {
            model,
            current,
            cooldown: 0,
            u_high,
            u_low,
            ttft_floor,
            tpot_floor,
            calm_streak: 0,
            refine_alpha: None,
            switches: 0,
            tunes: 0,
            tracer: Tracer::disabled(),
            mode: ResilienceMode::Normal,
            mode_age: 0,
            breach_window: VecDeque::new(),
            ttft_hist: VecDeque::new(),
            tpot_hist: VecDeque::new(),
            last_sensor_bits: None,
            stale_streak: 0,
            backoff_level: 0,
            last_violating: None,
            safe_entries: 0,
            safe_relapses: 0,
            since_safe_exit: u32::MAX,
            harvest_ceiling,
            ceiling_calm: 0,
            sensor_rejections: 0,
        }
    }

    /// Enables online model refinement with EWMA weight `alpha` — the
    /// complement the paper lists as future work (§VII-D limitation).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    #[must_use]
    pub fn with_online_refinement(mut self, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "refinement weight must be in (0,1]"
        );
        self.refine_alpha = Some(alpha);
        self
    }

    /// The profiled model backing the controller.
    #[must_use]
    pub fn model(&self) -> &AuvModel {
        &self.model
    }

    /// Current `(division, configuration)` bucket indices.
    #[must_use]
    pub fn current_bucket(&self) -> (usize, usize) {
        self.current
    }

    /// Division switches performed so far.
    #[must_use]
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// Allocation tuning steps performed so far.
    #[must_use]
    pub fn tune_count(&self) -> u64 {
        self.tunes
    }

    /// Current graceful-degradation mode of the resilience layer.
    #[must_use]
    pub fn resilience_mode(&self) -> ResilienceMode {
        self.mode
    }

    /// Times safe mode was entered (including re-entries after a failed
    /// recovery probe).
    #[must_use]
    pub fn safe_mode_entries(&self) -> u64 {
        self.safe_entries
    }

    /// Sensor readings the plausibility filter rejected or flagged stale.
    #[must_use]
    pub fn sensor_rejections(&self) -> u64 {
        self.sensor_rejections
    }

    fn decision_for(&self, bucket: (usize, usize)) -> Decision {
        let b = self.model.bucket(bucket.0, bucket.1);
        Decision {
            division: b.division,
            allocation: b.allocation,
            smt_sharing: false,
            engine_mode: EngineMode::Partitioned,
        }
    }

    /// Algorithm 1 lines 9/13: usage-weighted deviation between measured
    /// performance and the runtime SLOs. `ratios` are `SLO/P^m` (headroom,
    /// when meeting) or `P^m/SLO` (shortfall, when violating).
    fn deviation(&self, ttft_ratio: f64, tpot_ratio: f64) -> f64 {
        self.u_high * ttft_ratio + self.u_low * tpot_ratio
    }

    /// Plausibility filter: a reading further than [`PLAUSIBLE_FACTOR`]
    /// from the median of the last [`SENSOR_WINDOW`] readings is rejected
    /// and the median substituted. The raw reading still enters the
    /// history, so a genuine level shift becomes the new median within a
    /// few intervals and is trusted again — only isolated spikes (noise
    /// faults, torn reads) are suppressed.
    fn plausible(&mut self, sensor: &'static str, observed: f64, now: SimTime) -> f64 {
        let hist = if sensor == "recent_ttft_p90" {
            &mut self.ttft_hist
        } else {
            &mut self.tpot_hist
        };
        let median = if hist.len() >= 3 {
            let mut sorted: Vec<f64> = hist.iter().copied().collect();
            sorted.sort_by(f64::total_cmp);
            Some(sorted[sorted.len() / 2])
        } else {
            None
        };
        if hist.len() == SENSOR_WINDOW {
            hist.pop_front();
        }
        hist.push_back(observed);
        if let Some(med) = median {
            let implausible = med > 1e-6
                && (observed > med * PLAUSIBLE_FACTOR || observed < med / PLAUSIBLE_FACTOR);
            if implausible {
                self.sensor_rejections += 1;
                self.tracer.emit(now, || Event::SensorRejected {
                    sensor: sensor.to_string(),
                    observed,
                    substituted: med,
                    reason: format!(
                        "outside {PLAUSIBLE_FACTOR}x band around \
                         median-of-last-{SENSOR_WINDOW} {med:.4}"
                    ),
                });
                return med;
            }
        }
        observed
    }

    /// Stale-readback detection: a dropped-out sensor path repeats frames
    /// bit-for-bit. Flagged once per streak (telemetry + counter); the
    /// frozen values are internally consistent, so decisions continue on
    /// them for a grace period — past [`STALE_HOLD_INTERVALS`] the
    /// controller holds its bucket instead (see `decide`).
    fn detect_stale(&mut self, state: &SystemState) {
        let bits = [
            state.recent_ttft_p50.to_bits(),
            state.recent_ttft_p90.to_bits(),
            state.recent_tpot_p50.to_bits(),
            state.recent_tpot_p90.to_bits(),
            state.power_w.to_bits(),
            state.bw_utilization.to_bits(),
        ];
        if self.last_sensor_bits == Some(bits) {
            self.stale_streak += 1;
            if self.stale_streak == STALE_INTERVALS {
                self.sensor_rejections += 1;
                self.tracer.emit(state.now, || Event::SensorRejected {
                    sensor: "all".to_string(),
                    observed: state.recent_ttft_p90,
                    substituted: state.recent_ttft_p90,
                    reason: format!(
                        "bit-identical readback for {STALE_INTERVALS} intervals: \
                         sensor dropout suspected"
                    ),
                });
            }
        } else {
            self.stale_streak = 0;
            self.last_sensor_bits = Some(bits);
        }
    }

    /// Arms the post-action cooldown with exponential backoff: a direction
    /// flip (harvest↔return) doubles the wait — oscillation under faulted
    /// sensors burns exponentially fewer actions — while calm
    /// same-direction actions decay the level back toward the base.
    fn arm_cooldown(&mut self, violating: bool) {
        if self.last_violating == Some(!violating) {
            self.backoff_level = (self.backoff_level + 1).min(MAX_BACKOFF_LEVEL);
        } else if !violating && self.backoff_level > 0 {
            self.backoff_level -= 1;
        }
        self.last_violating = Some(violating);
        self.cooldown = COOLDOWN_INTERVALS << self.backoff_level;
    }

    /// Advances the graceful-degradation state machine on the current
    /// breach pressure and performs entry actions on transition
    /// (safe mode: shed BE by falling back to the profiler's conservative
    /// division with zero harvesting).
    fn step_resilience(&mut self, now: SimTime, d_ttft: f64, d_tpot: f64) {
        self.mode_age = self.mode_age.saturating_add(1);
        if self.mode != ResilienceMode::SafeMode {
            self.since_safe_exit = self.since_safe_exit.saturating_add(1);
        }
        let n = self.breach_window.len();
        if n < MIN_PRESSURE_SAMPLES {
            return;
        }
        let pressure = self.breach_window.iter().filter(|b| **b).count() as f64 / n as f64;
        use ResilienceMode as M;
        let next = match self.mode {
            M::Normal if pressure >= DEGRADE_PRESSURE => Some((
                M::Degraded,
                format!("breach pressure {pressure:.2} >= {DEGRADE_PRESSURE}: harvesting frozen"),
            )),
            M::Degraded if pressure >= SAFE_PRESSURE => Some((
                M::SafeMode,
                format!(
                    "breach pressure {pressure:.2} >= {SAFE_PRESSURE}: shedding BE, \
                     falling back to the profiler's conservative division"
                ),
            )),
            M::Degraded if pressure <= CALM_PRESSURE && self.mode_age >= 4 => {
                Some((M::Normal, format!("breach pressure {pressure:.2} subsided")))
            }
            M::SafeMode
                if pressure <= RECOVER_PRESSURE
                    && self.mode_age >= (SAFE_DWELL_INTERVALS << self.safe_relapses) =>
            {
                Some((
                    M::Recovering,
                    format!(
                        "breach pressure {pressure:.2} <= {RECOVER_PRESSURE}: \
                         probing harvest capacity (dwell {} intervals)",
                        SAFE_DWELL_INTERVALS << self.safe_relapses
                    ),
                ))
            }
            M::Recovering if pressure > RECOVER_PRESSURE => Some((
                M::SafeMode,
                format!("renewed breach pressure {pressure:.2} during recovery probe"),
            )),
            M::Recovering if pressure <= CALM_PRESSURE && self.mode_age >= 16 => Some((
                M::Normal,
                format!("recovery held for {} intervals", self.mode_age),
            )),
            _ => None,
        };
        if let Some((to, reason)) = next {
            let from = self.mode;
            self.mode = to;
            self.mode_age = 0;
            self.tracer
                .emit(now, || Event::SafeModeTransition { from, to, reason });
            match to {
                M::SafeMode => {
                    self.safe_entries += 1;
                    self.safe_relapses = if self.since_safe_exit <= RELAPSE_WINDOW {
                        (self.safe_relapses + 1).min(MAX_RELAPSE_LEVEL)
                    } else {
                        0
                    };
                    self.current = (self.model.conservative_division(d_ttft, d_tpot), 0);
                    self.harvest_ceiling = 0;
                    self.ceiling_calm = 0;
                    self.cooldown = 0;
                    self.calm_streak = 0;
                    self.backoff_level = MAX_BACKOFF_LEVEL;
                }
                M::Recovering => {
                    self.since_safe_exit = 0;
                    self.backoff_level = 2;
                    self.calm_streak = 0;
                }
                _ => {}
            }
        }
    }
}

impl ResourceManager for AumController {
    fn name(&self) -> &'static str {
        "AUM"
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn resilience(&self) -> Option<ResilienceMode> {
        Some(self.resilience_mode())
    }

    fn decide(&mut self, state: &SystemState) -> Decision {
        let slo = state.scenario.slo();
        let d_ttft = slo.ttft.as_secs_f64();
        let d_tpot = slo.tpot.as_secs_f64();

        // --- Stage 1: slack-aware SLO analysis. ---
        let slo_h = (d_ttft - state.head_wait.as_secs_f64()).max(0.25 * d_ttft);
        let lag = if state.worst_lag_secs.is_finite() {
            state.worst_lag_secs.clamp(-0.5 * d_tpot, d_tpot)
        } else {
            d_tpot // idle decode: fully relaxed
        };
        let slo_l = (d_tpot + lag).clamp(0.5 * d_tpot, 2.0 * d_tpot);
        // Only a *structurally unattainable* deadline (no profiled bucket
        // can reach it, e.g. the cc TTFT, §VII-C) degrades to a best-effort
        // budget anchored at the profiled floor; attainable deadlines are
        // enforced as-is.
        let slo_h = if self.ttft_floor > d_ttft {
            slo_h.max(self.ttft_floor * 1.2)
        } else {
            slo_h
        };
        let slo_l = if self.tpot_floor > d_tpot {
            slo_l.max(self.tpot_floor * 1.2)
        } else {
            slo_l
        };

        let cooling = self.cooldown > 0;
        if cooling {
            self.cooldown -= 1;
        }
        // No measurements yet: stay on the switcher's initial choice.
        if state.recent_tpot_p90 <= 0.0 && state.recent_ttft_p90 <= 0.0 {
            return self.decision_for(self.current);
        }

        // --- Resilience: sensor distrust. ---
        self.detect_stale(state);
        if self.stale_streak >= STALE_HOLD_INTERVALS {
            return self.decision_for(self.current);
        }
        let ttft_m = self
            .plausible("recent_ttft_p90", state.recent_ttft_p90, state.now)
            .max(1e-4);
        // The TPOT SLO constrains per-request *averages*; the recent token
        // median is the robust online proxy for that average.
        let tpot_m = self
            .plausible("recent_tpot_p50", state.recent_tpot_p50, state.now)
            .max(1e-4);

        // --- Stage 3: collision-aware monitoring. ---
        let meeting = ttft_m <= slo_h && tpot_m <= slo_l;
        if ttft_m > slo_h {
            self.tracer.emit(state.now, || Event::SloBreach {
                metric: SloMetric::Ttft,
                observed_secs: ttft_m,
                budget_secs: slo_h,
            });
        }
        if tpot_m > slo_l {
            self.tracer.emit(state.now, || Event::SloBreach {
                metric: SloMetric::Tpot,
                observed_secs: tpot_m,
                budget_secs: slo_l,
            });
        }

        // --- Resilience: breach-pressure state machine. ---
        if self.breach_window.len() == PRESSURE_WINDOW {
            self.breach_window.pop_front();
        }
        self.breach_window.push_back(!meeting);
        self.step_resilience(state.now, d_ttft, d_tpot);
        if self.mode == ResilienceMode::SafeMode {
            // Safe mode holds the conservative fallback: no tuning, no
            // switching, BE shed, until pressure subsides.
            return self.decision_for(self.current);
        }
        if cooling {
            return self.decision_for(self.current);
        }

        // Online refinement: fold measurements into the current bucket.
        // The model is shared (`Arc`) across controllers; refinement
        // copies-on-write so other holders keep the pristine profile.
        if let Some(alpha) = self.refine_alpha {
            let idx = self.current.0 * self.model.cfg_count + self.current.1;
            if Arc::strong_count(&self.model) > 1 {
                // `make_mut` below will clone the whole profile for this
                // controller — the copy-on-write event the perf report
                // counts against `ModelCache` savings.
                aum_sim::prof::count("model.cow_clone", 1);
            }
            aum_sim::prof::count("model.refine", 1);
            let b = &mut Arc::make_mut(&mut self.model).buckets[idx];
            if state.recent_ttft_p90 > 0.0 {
                b.ttft_p90 = (1.0 - alpha) * b.ttft_p90 + alpha * state.recent_ttft_p90;
                b.ttft_p50 = (1.0 - alpha) * b.ttft_p50 + alpha * state.recent_ttft_p50;
            }
            if state.recent_tpot_p90 > 0.0 {
                b.tpot_p90 = (1.0 - alpha) * b.tpot_p90 + alpha * state.recent_tpot_p90;
                b.tpot_p50 = (1.0 - alpha) * b.tpot_p50 + alpha * state.recent_tpot_p50;
            }
        }

        if meeting {
            self.calm_streak += 1;
            // A calm stretch slowly re-opens the harvest ceiling, one rung
            // per CEILING_DECAY_INTERVALS — the slow half of the hysteresis.
            if self.harvest_ceiling + 1 < self.model.cfg_count {
                self.ceiling_calm += 1;
                if self.ceiling_calm >= CEILING_DECAY_INTERVALS {
                    self.harvest_ceiling += 1;
                    self.ceiling_calm = 0;
                }
            }
            if self.calm_streak < HARVEST_PATIENCE {
                return self.decision_for(self.current);
            }
            if self.mode == ResilienceMode::Degraded {
                // Degraded: recent breach pressure says the headroom is not
                // trustworthy — hold position instead of harvesting into it.
                return self.decision_for(self.current);
            }
            // Aggressive direction: harvest using average predictions.
            let delta = self.deviation(slo_h / ttft_m, slo_l / tpot_m);
            let mut switched = false;
            if delta > DELTA_THRESHOLD {
                // Large headroom: re-run the switcher. Algorithm 1 line 5
                // constrains the switcher with the *static* `d_TPOT`: LAG
                // slack is transient and must not admit divisions whose
                // steady state violates the deadline. A 5% margin keeps the
                // settled point off the knife edge.
                // The switcher's cfg is clamped to the harvest ceiling so a
                // headroom-driven switch cannot leapfrog the ladder's
                // hysteresis straight back into a config that just burned us.
                let next = {
                    let (d, c) = self.model.best_bucket(slo_h, 0.95 * d_tpot);
                    (d, c.min(self.harvest_ceiling))
                };
                if next != self.current {
                    let from = self.current;
                    self.current = next;
                    self.switches += 1;
                    self.tracer.emit(state.now, || Event::ControllerDecision {
                        kind: DecisionKind::Switch,
                        action: format!(
                            "Switch(div {}\u{2192}{}, cfg {}\u{2192}{})",
                            from.0, next.0, from.1, next.1
                        ),
                        verdict: SlackVerdict::Meeting,
                        lag_secs: lag,
                        deviation: delta,
                        collision: true,
                        reason: format!(
                            "headroom \u{3b4}={delta:.2} > {:.2}: switcher re-selects the \
                             division for SLO_H {slo_h:.3}s / d_TPOT {d_tpot:.3}s",
                            DELTA_THRESHOLD
                        ),
                    });
                    self.arm_cooldown(false);
                    switched = true;
                }
            }
            if !switched
                && self.current.1 + 1 < self.model.cfg_count
                && self.current.1 < self.harvest_ceiling
            {
                // One ladder step, admitted on *average* predictions.
                let candidate = (self.current.0, self.current.1 + 1);
                let b = self.model.bucket(candidate.0, candidate.1);
                // Admit with a 10% safety margin on the decode axis, which
                // reacts fastest to bandwidth harvesting.
                if b.ttft_p50 <= slo_h && b.tpot_p50 <= 0.88 * slo_l {
                    let (ttft_p50, tpot_p50) = (b.ttft_p50, b.tpot_p50);
                    let from_cfg = self.current.1;
                    self.current = candidate;
                    self.tunes += 1;
                    self.tracer.emit(state.now, || Event::ControllerDecision {
                        kind: DecisionKind::Harvest,
                        action: format!("Harvest(cfg {from_cfg}\u{2192}{})", candidate.1),
                        verdict: SlackVerdict::Meeting,
                        lag_secs: lag,
                        deviation: delta,
                        collision: false,
                        reason: format!(
                            "meeting SLOs {HARVEST_PATIENCE}+ intervals; avg predictions \
                             fit (TTFT p50 {ttft_p50:.3}s \u{2264} SLO_H {slo_h:.3}s, \
                             TPOT p50 {tpot_p50:.3}s \u{2264} 0.88\u{b7}SLO_L {slo_l:.3}s)"
                        ),
                    });
                    self.arm_cooldown(false);
                }
            }
        } else {
            self.calm_streak = 0;
            self.ceiling_calm = 0;
            // Conservative direction: return resources using tail predictions.
            let delta = self.deviation(ttft_m / slo_h, tpot_m / slo_l);
            let cur = self.model.bucket(self.current.0, self.current.1);
            // Switch when the deviation exceeds the threshold (Algorithm 1
            // line 16) or when the current bucket is *structurally* unable
            // to meet the deadline — no amount of ladder tuning fixes a
            // division whose profiled tail already violates.
            let structurally_bad = cur.tpot_p90 > d_tpot.max(self.tpot_floor * 1.2) * 1.05;
            if delta > DELTA_THRESHOLD || structurally_bad {
                let next = self.model.best_bucket(slo_h, d_tpot);
                if next != self.current {
                    let from = self.current;
                    self.current = next;
                    // Violating action: remember that harvesting past the
                    // destination rung just failed.
                    self.harvest_ceiling = self.harvest_ceiling.min(next.1);
                    self.switches += 1;
                    self.tracer.emit(state.now, || Event::ControllerDecision {
                        kind: DecisionKind::Switch,
                        action: format!(
                            "Switch(div {}\u{2192}{}, cfg {}\u{2192}{})",
                            from.0, next.0, from.1, next.1
                        ),
                        verdict: SlackVerdict::Violating,
                        lag_secs: lag,
                        deviation: delta,
                        collision: delta > DELTA_THRESHOLD,
                        reason: if structurally_bad {
                            format!(
                                "current division structurally violates: profiled TPOT p90 \
                                 {:.3}s cannot meet d_TPOT {d_tpot:.3}s",
                                cur.tpot_p90
                            )
                        } else {
                            format!(
                                "collision: \u{3b4}={delta:.2} > {:.2}, tuning deemed \
                                 insufficient (TTFT p90 {ttft_m:.3}s vs SLO_H {slo_h:.3}s, \
                                 TPOT p50 {tpot_m:.3}s vs SLO_L {slo_l:.3}s)",
                                DELTA_THRESHOLD
                            )
                        },
                    });
                    self.arm_cooldown(true);
                    return self.decision_for(self.current);
                }
            }
            if self.current.1 > 0 {
                // Stepping down the bound-aware ladder is by construction
                // the conservative direction: the AU regains the resource
                // whose loss hurt it most recently.
                let from_cfg = self.current.1;
                self.current = (self.current.0, self.current.1 - 1);
                // Violating action: the rung we just stepped off burned us —
                // cap the ladder at the rung below it.
                self.harvest_ceiling = self.harvest_ceiling.min(self.current.1);
                self.tunes += 1;
                self.tracer.emit(state.now, || Event::ControllerDecision {
                    kind: DecisionKind::Return,
                    action: format!("Return(cfg {from_cfg}\u{2192}{})", self.current.1),
                    verdict: SlackVerdict::Violating,
                    lag_secs: lag,
                    deviation: delta,
                    collision: false,
                    reason: if ttft_m > slo_h {
                        format!("TTFT p90 {ttft_m:.3}s > SLO_H {slo_h:.3}s")
                    } else {
                        format!("TPOT p50 {tpot_m:.3}s > SLO_L {slo_l:.3}s")
                    },
                });
                self.arm_cooldown(true);
            }
        }
        self.decision_for(self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{build_model, ProfilerConfig};
    use aum_llm::traces::Scenario;
    use aum_platform::spec::PlatformSpec;
    use aum_sim::time::{SimDuration, SimTime};
    use aum_workloads::be::BeKind;

    fn model() -> AuvModel {
        let cfg = ProfilerConfig::smoke(PlatformSpec::gen_a(), Scenario::Chatbot, BeKind::SpecJbb);
        build_model(&cfg)
    }

    fn state(ttft_p90: f64, tpot_p90: f64, lag: f64) -> SystemState {
        SystemState {
            now: SimTime::from_secs(20),
            scenario: Scenario::Chatbot,
            be: Some(BeKind::SpecJbb),
            queue_len: 0,
            head_wait: SimDuration::ZERO,
            decode_batch: 10,
            worst_lag_secs: lag,
            recent_ttft_p50: ttft_p90 * 0.7,
            recent_ttft_p90: ttft_p90,
            recent_tpot_p50: tpot_p90 * 0.9,
            recent_tpot_p90: tpot_p90,
            power_w: 220.0,
            bw_utilization: 0.9,
        }
    }

    #[test]
    fn usage_weights_order_high_over_low() {
        let c = AumController::new(model());
        assert!(c.u_high > 0.8, "prefill usage {}", c.u_high);
        assert!(c.u_low < 0.25, "decode usage {}", c.u_low);
    }

    #[test]
    fn cold_controller_returns_switcher_choice() {
        let mut c = AumController::new(model());
        let init = c.current_bucket();
        let d = c.decide(&state(0.0, 0.0, 0.0));
        assert_eq!(c.current_bucket(), init);
        assert_eq!(d.division, c.model().bucket(init.0, init.1).division);
    }

    #[test]
    fn comfortable_serving_settles_on_most_efficient_bucket() {
        let mut c = AumController::new(model());
        // Far within SLO, positive LAG → the controller converges on the
        // highest-efficiency bucket that remains feasible.
        for _ in 0..20 {
            let _ = c.decide(&state(0.05, 0.04, 0.05));
        }
        let (di, ci) = c.current_bucket();
        let eff = c.model().bucket(di, ci).efficiency;
        let max_eff = c
            .model()
            .buckets
            .iter()
            .map(|b| b.efficiency)
            .fold(0.0, f64::max);
        assert!(
            eff >= 0.95 * max_eff,
            "settled efficiency {eff} should be near the model maximum {max_eff}"
        );
    }

    #[test]
    fn violations_return_resources() {
        let mut c = AumController::new(model());
        // First settle comfortably.
        for _ in 0..20 {
            let _ = c.decide(&state(0.05, 0.04, 0.05));
        }
        let harvested = c.current_bucket().1;
        assert!(
            harvested > 0,
            "comfortable serving should sit on a harvesting config"
        );
        // Then violate TPOT (below the δ switch threshold).
        for _ in 0..12 {
            let _ = c.decide(&state(0.10, 0.115, -0.01));
        }
        assert!(
            c.current_bucket().1 < harvested,
            "violation must tune resources back: {} -> {}",
            harvested,
            c.current_bucket().1
        );
        assert!(c.tune_count() > 0);
    }

    #[test]
    fn large_deviation_switches_division() {
        let mut c = AumController::new(model());
        let before = c.switch_count();
        // Extreme violation: δ = u_h·(ttft/slo) + u_l·(tpot/slo) > 2.
        for _ in 0..10 {
            let _ = c.decide(&state(0.9, 0.5, -0.05));
        }
        // Either a switch happened, or the model's best bucket for tight
        // budgets was already current — accept both but require the
        // controller to have considered it (no panic, valid decision).
        let _ = before;
        let d = c.decide(&state(0.9, 0.5, -0.05));
        assert_eq!(d.division.total_cores(), 96);
    }

    #[test]
    fn decision_always_covers_platform() {
        let mut c = AumController::new(model());
        for (ttft, tpot, lag) in [
            (0.01, 0.01, 0.1),
            (0.5, 0.3, -0.2),
            (0.2, 0.09, 0.0),
            (0.0, 0.0, 0.0),
        ] {
            let d = c.decide(&state(ttft, tpot, lag));
            assert_eq!(d.division.total_cores(), 96);
            assert!(!d.smt_sharing);
        }
    }

    #[test]
    fn idle_decode_relaxes_tpot_budget() {
        let mut c = AumController::new(model());
        // Infinite LAG (idle) with mediocre measured TPOT: treated as
        // relaxed, so no panic and no forced return of resources.
        let d = c.decide(&state(0.05, 0.15, f64::INFINITY));
        assert_eq!(d.division.total_cores(), 96);
    }

    #[test]
    fn decisions_stream_to_the_tracer_with_reasons() {
        use aum_sim::telemetry::MemorySink;
        let (tracer, sink) = Tracer::shared(MemorySink::new());
        let mut c = AumController::new(model());
        c.attach_tracer(tracer);
        for _ in 0..20 {
            let _ = c.decide(&state(0.05, 0.04, 0.05));
        }
        for _ in 0..12 {
            let _ = c.decide(&state(0.10, 0.115, -0.01));
        }
        let records = sink.lock().expect("sink lock").records().to_vec();
        let decisions: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.event, Event::ControllerDecision { .. }))
            .collect();
        // Every non-trivial action appears exactly once in the stream.
        assert_eq!(decisions.len() as u64, c.switch_count() + c.tune_count());
        for r in &decisions {
            if let Event::ControllerDecision { reason, action, .. } = &r.event {
                assert!(!reason.is_empty(), "decision must state its reason");
                assert!(!action.is_empty());
            }
        }
        assert!(decisions.iter().any(|r| matches!(
            r.event,
            Event::ControllerDecision {
                kind: DecisionKind::Return,
                ..
            }
        )));
        // Timestamps are non-decreasing.
        for w in decisions.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // The violating stretch produced SLO-breach events too.
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::SloBreach { .. })));
    }

    #[test]
    fn online_refinement_folds_measurements_into_the_model() {
        let mut c = AumController::new(model()).with_online_refinement(0.3);
        let (d, cf) = c.current_bucket();
        let before = c.model().bucket(d, cf).tpot_p90;
        // Persistently worse decode than profiled.
        for _ in 0..10 {
            let _ = c.decide(&state(0.3, 0.2, -0.02));
        }
        let (d2, cf2) = c.current_bucket();
        // Either the current bucket's tail drifted toward the measurement,
        // or the controller already fled the bucket because refinement
        // re-ranked it.
        if (d2, cf2) == (d, cf) {
            assert!(
                c.model().bucket(d, cf).tpot_p90 > before,
                "refinement must raise the bucket's tail toward 0.2 s"
            );
        } else {
            assert!(c.switch_count() + c.tune_count() > 0);
        }
    }

    #[test]
    fn refinement_disabled_keeps_the_model_frozen() {
        let mut c = AumController::new(model());
        let snapshot = c.model().clone();
        for _ in 0..10 {
            let _ = c.decide(&state(0.3, 0.2, -0.02));
        }
        assert_eq!(
            c.model(),
            &snapshot,
            "without refinement the model is read-only"
        );
    }

    #[test]
    #[should_panic(expected = "refinement weight")]
    fn bad_refinement_weight_rejected() {
        let _ = AumController::new(model()).with_online_refinement(0.0);
    }
}
