//! Integrated platform simulator.
//!
//! [`PlatformSim`] composes the frequency governor, thermal reservoirs,
//! power model and bandwidth pool into one steppable object. The experiment
//! harness describes the instantaneous load as a set of [`RegionLoad`]s and
//! receives a [`PlatformSnapshot`] with the equilibrium frequencies, power,
//! and per-load bandwidth grants for the step.
//!
//! Resolution order inside a step (no fixed-point needed):
//!
//! 1. None-region cores run at turbo; their power defines the
//!    *power stress* on AU licenses;
//! 2. AU region frequencies follow from license class + stress + thermal;
//! 3. bandwidth demands are arbitrated by the shared pool;
//! 4. package power is evaluated and a TDP cap re-scales AU frequencies if
//!    exceeded;
//! 5. thermal reservoirs integrate this step's power densities.

use serde::{Deserialize, Serialize};

use aum_sim::telemetry::{Event, RegionClass, Tracer};
use aum_sim::time::{SimDuration, SimTime};

use crate::freq::{FreqConditions, FrequencyGovernor};
use crate::membw::{BandwidthPool, BwDemand, BwGrant};
use crate::power::{ActivityClass, CoreGroupPower, PowerModel};
use crate::spec::PlatformSpec;
use crate::thermal::{RegionHeat, ThermalState};
use crate::topology::AuUsageLevel;
use crate::units::{GbPerSec, Ghz, Watts};

/// Fraction of [`PowerModel::max_power`] that non-AU co-runner power is
/// normalized against when computing license power stress.
const STRESS_REF_FRAC: f64 = 0.25;

/// A bandwidth-degradation request outside the physical range `(0, 1]`.
///
/// Returned (not panicked) so a malformed fault plan read from JSON fails
/// the experiment cleanly; `aum::error::AumError` wraps this in core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthDegradeError {
    /// The rejected fraction.
    pub frac: f64,
}

impl std::fmt::Display for BandwidthDegradeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bandwidth degradation fraction must be in (0, 1], got {}",
            self.frac
        )
    }
}

impl std::error::Error for BandwidthDegradeError {}

/// A best-effort thread occupying the hyperthread siblings of a region's
/// cores (the SMT-AU deployment). Siblings contribute power — and therefore
/// license stress and heat — at a reduced SMT efficiency, without occupying
/// additional physical cores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmtSibling {
    /// Instruction mix of the sibling thread.
    pub class: ActivityClass,
    /// Sibling duty cycle in `[0, 1]`.
    pub duty: f64,
}

/// Fraction of a full core's dynamic power a sibling hyperthread adds.
pub const SMT_POWER_FACTOR: f64 = 0.6;

/// Instantaneous load of one processor region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionLoad {
    /// Region this load occupies.
    pub level: AuUsageLevel,
    /// Cores in the region.
    pub cores: usize,
    /// Dominant instruction mix on those cores.
    pub class: ActivityClass,
    /// Active duty cycle in `[0, 1]`.
    pub duty: f64,
    /// Raw memory-bandwidth demand of the region.
    pub bw_demand: GbPerSec,
    /// MBA cap for the region's class, `(0, 1]`.
    pub bw_cap: f64,
    /// Best-effort thread on the hyperthread siblings, if any.
    #[serde(default)]
    pub smt_sibling: Option<SmtSibling>,
}

impl RegionLoad {
    /// An idle region of `cores` cores.
    #[must_use]
    pub fn idle(level: AuUsageLevel, cores: usize) -> Self {
        RegionLoad {
            level,
            cores,
            class: ActivityClass::Idle,
            duty: 0.0,
            bw_demand: GbPerSec::ZERO,
            bw_cap: 1.0,
            smt_sibling: None,
        }
    }

    /// A busy region load with no SMT sibling and full bandwidth access.
    #[must_use]
    pub fn new(
        level: AuUsageLevel,
        cores: usize,
        class: ActivityClass,
        duty: f64,
        bw_demand: GbPerSec,
    ) -> Self {
        RegionLoad {
            level,
            cores,
            class,
            duty,
            bw_demand,
            bw_cap: 1.0,
            smt_sibling: None,
        }
    }
}

/// Equilibrium outcome of one simulation step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSnapshot {
    /// Effective frequency of each input load's region, in input order.
    pub freqs: Vec<Ghz>,
    /// Bandwidth grant for each input load, in input order.
    pub bw_grants: Vec<BwGrant>,
    /// Package power during the step.
    pub power: Watts,
    /// Memory pool utilization in `[0, 1]`.
    pub bw_utilization: f64,
    /// Pool-wide memory-controller queuing factor (≥ 1).
    pub queuing_factor: f64,
    /// License power stress that was applied, `[0, 1]`.
    pub power_stress: f64,
    /// TDP frequency scale that was applied (1.0 when under budget).
    pub tdp_scale: f64,
}

/// The steppable platform model.
///
/// # Examples
///
/// ```
/// use aum_platform::power::ActivityClass;
/// use aum_platform::spec::PlatformSpec;
/// use aum_platform::state::{PlatformSim, RegionLoad};
/// use aum_platform::topology::AuUsageLevel;
/// use aum_platform::units::GbPerSec;
/// use aum_sim::time::SimDuration;
///
/// let mut sim = PlatformSim::new(PlatformSpec::gen_a());
/// let snap = sim.step(
///     SimDuration::from_millis(100),
///     &[RegionLoad::new(AuUsageLevel::High, 32, ActivityClass::Amx, 1.0, GbPerSec(80.0))],
/// );
/// assert!(snap.freqs[0].value() < 3.2, "AMX license reduces frequency");
/// ```
#[derive(Debug, Clone)]
pub struct PlatformSim {
    spec: PlatformSpec,
    governor: FrequencyGovernor,
    power_model: PowerModel,
    pool: BandwidthPool,
    thermal: ThermalState,
    /// Trace handle plus the state needed to detect transitions: the
    /// internal clock (advanced by each step's `dt`), the last effective
    /// frequency seen per region, and the last thermal drop per region.
    tracer: Tracer,
    clock: SimTime,
    last_freq: [Option<f64>; 3],
    last_thermal_drop: [f64; 3],
}

/// Index of a region level in the transition-tracking arrays.
fn level_idx(level: AuUsageLevel) -> usize {
    match level {
        AuUsageLevel::High => 0,
        AuUsageLevel::Low => 1,
        AuUsageLevel::None => 2,
    }
}

/// Telemetry region label for a topology usage level.
fn region_class(level: AuUsageLevel) -> RegionClass {
    match level {
        AuUsageLevel::High => RegionClass::High,
        AuUsageLevel::Low => RegionClass::Low,
        AuUsageLevel::None => RegionClass::None,
    }
}

impl PlatformSim {
    /// Creates a cold platform from its spec.
    #[must_use]
    pub fn new(spec: PlatformSpec) -> Self {
        let governor = FrequencyGovernor::for_spec(&spec);
        let power_model = PowerModel::for_spec(&spec);
        let pool = BandwidthPool::new(spec.mem_bw);
        PlatformSim {
            spec,
            governor,
            power_model,
            pool,
            thermal: ThermalState::new(),
            tracer: Tracer::disabled(),
            clock: SimTime::ZERO,
            last_freq: [None; 3],
            last_thermal_drop: [0.0; 3],
        }
    }

    /// Attaches a trace handle; subsequent steps emit
    /// [`Event::FreqTransition`] when a region's effective frequency moves
    /// and [`Event::ThermalThrottle`] when thermal throttling deepens. The
    /// platform stamps events with an internal clock advanced by each
    /// step's `dt`, so attach before the first step of a run.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The platform spec this simulator models.
    #[must_use]
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// The frequency governor (read-only).
    #[must_use]
    pub fn governor(&self) -> &FrequencyGovernor {
        &self.governor
    }

    /// The power model (read-only).
    #[must_use]
    pub fn power_model(&self) -> &PowerModel {
        &self.power_model
    }

    /// The memory bandwidth pool.
    #[must_use]
    pub fn pool(&self) -> &BandwidthPool {
        &self.pool
    }

    /// Current thermal state (diagnostics).
    #[must_use]
    pub fn thermal(&self) -> &ThermalState {
        &self.thermal
    }

    /// Degrades the memory pool to `frac` of the *spec* bandwidth — a DIMM
    /// failure or memory-RAS event. Used by fault-injection experiments.
    /// `frac = 1.0` restores the healthy pool (fault recovery).
    ///
    /// # Errors
    ///
    /// Returns [`BandwidthDegradeError`] unless `0 < frac <= 1` and finite,
    /// leaving the pool untouched — a malformed `FaultPlan` must not abort
    /// the process.
    pub fn degrade_bandwidth(&mut self, frac: f64) -> Result<(), BandwidthDegradeError> {
        if !(frac > 0.0 && frac <= 1.0) {
            return Err(BandwidthDegradeError { frac });
        }
        self.pool = BandwidthPool::new(self.spec.mem_bw * frac);
        Ok(())
    }

    /// Sets the thermal cooling-loss severity (the `ThermalRunaway` fault);
    /// `0.0` restores healthy cooling.
    pub fn set_cooling_loss(&mut self, severity: f64) {
        self.thermal.set_cooling_loss(severity);
    }

    /// Pins (or with `None`, releases) the AU license class — the
    /// `FrequencyLicenseLock` fault.
    pub fn set_license_lock(&mut self, lock: Option<AuUsageLevel>) {
        self.governor.set_license_lock(lock);
    }

    /// Advances the platform by `dt` under the given loads and returns the
    /// equilibrium snapshot for the step.
    ///
    /// # Panics
    ///
    /// Panics if the loads claim more cores than the platform has.
    pub fn step(&mut self, dt: SimDuration, loads: &[RegionLoad]) -> PlatformSnapshot {
        let total_cores = self.spec.total_cores();
        let claimed: usize = loads.iter().map(|l| l.cores).sum();
        assert!(
            claimed <= total_cores,
            "loads claim {claimed} cores, platform has {total_cores}"
        );

        // 1. Power stress from non-AU activity (co-runners).
        let stress_ref = self.power_model.max_power().value() * STRESS_REF_FRAC;
        let idle_w = {
            let f = self.governor.license_frequency(AuUsageLevel::None);
            self.power_model
                .core_power(f, ActivityClass::Idle, 0.0)
                .value()
        };
        let mut corunner_power = 0.0;
        for l in loads {
            let f = self.governor.license_frequency(AuUsageLevel::None);
            if l.level == AuUsageLevel::None {
                corunner_power += (self.power_model.core_power(f, l.class, l.duty).value()
                    - idle_w)
                    * l.cores as f64;
            }
            if let Some(sib) = l.smt_sibling {
                corunner_power += (self.power_model.core_power(f, sib.class, sib.duty).value()
                    - idle_w)
                    * SMT_POWER_FACTOR
                    * l.cores as f64;
            }
        }
        let power_stress = (corunner_power / stress_ref).clamp(0.0, 1.0);

        // 2. Region frequencies.
        let au_core_frac = loads
            .iter()
            .filter(|l| l.level != AuUsageLevel::None)
            .map(|l| l.cores)
            .sum::<usize>() as f64
            / total_cores as f64;
        let mut freqs: Vec<Ghz> = loads
            .iter()
            .map(|l| {
                self.governor.region_frequency(
                    l.level,
                    FreqConditions {
                        au_core_frac,
                        power_stress,
                        thermal_drop: self.thermal.drop_for(l.level),
                    },
                )
            })
            .collect();

        // 3. Bandwidth arbitration.
        let demands: Vec<BwDemand> = loads
            .iter()
            .map(|l| BwDemand::new(l.bw_demand, l.bw_cap))
            .collect();
        let arbitration = self.pool.arbitrate(&demands);

        // 4. Package power and TDP cap. Sibling hyperthreads contribute a
        // fraction of a full core's dynamic power at the region frequency.
        let total_power = |freqs: &[Ghz]| -> Watts {
            let groups: Vec<CoreGroupPower> = loads
                .iter()
                .zip(freqs)
                .map(|(l, &f)| CoreGroupPower {
                    cores: l.cores,
                    freq: f,
                    class: l.class,
                    duty: l.duty,
                })
                .collect();
            let mut p = self
                .power_model
                .platform_power(&groups, arbitration.utilization)
                .value();
            for (l, &f) in loads.iter().zip(freqs) {
                if let Some(sib) = l.smt_sibling {
                    let idle = self
                        .power_model
                        .core_power(f, ActivityClass::Idle, 0.0)
                        .value();
                    let sib_dyn =
                        self.power_model.core_power(f, sib.class, sib.duty).value() - idle;
                    p += sib_dyn * SMT_POWER_FACTOR * l.cores as f64;
                }
            }
            Watts(p)
        };
        let mut power = total_power(&freqs);
        let tdp_scale = self.governor.tdp_scale(power);
        if tdp_scale < 1.0 {
            for (f, l) in freqs.iter_mut().zip(loads) {
                if l.level != AuUsageLevel::None {
                    *f = Ghz(f.value() * tdp_scale);
                }
            }
            power = total_power(&freqs);
        }

        // 5. Thermal integration.
        let heats: Vec<RegionHeat> = loads
            .iter()
            .zip(&freqs)
            .filter(|(l, _)| l.duty > 0.0 && l.cores > 0)
            .map(|(l, &f)| {
                let mut per_core = self.power_model.core_power(f, l.class, l.duty).value();
                if let Some(sib) = l.smt_sibling {
                    let idle = self
                        .power_model
                        .core_power(f, ActivityClass::Idle, 0.0)
                        .value();
                    per_core += (self.power_model.core_power(f, sib.class, sib.duty).value()
                        - idle)
                        * SMT_POWER_FACTOR;
                }
                RegionHeat {
                    level: l.level,
                    per_core_power: Watts(per_core),
                    busy_core_frac: (l.cores as f64 * l.duty) / total_cores as f64,
                }
            })
            .collect();
        self.thermal.advance(dt, &heats);

        // Telemetry: events are stamped at the start of the step — the
        // interval the resolved frequencies take effect for — so a stream
        // merged with engine events (which fill the interval's interior)
        // stays monotonic.
        if self.tracer.is_enabled() {
            let mut seen = [false; 3];
            for (l, &f) in loads.iter().zip(&freqs) {
                let idx = level_idx(l.level);
                if seen[idx] || l.cores == 0 {
                    continue;
                }
                seen[idx] = true;
                let new = f.value();
                if let Some(prev) = self.last_freq[idx] {
                    if (new - prev).abs() > 1e-3 {
                        self.tracer.emit(self.clock, || Event::FreqTransition {
                            region: region_class(l.level),
                            from_ghz: prev,
                            to_ghz: new,
                        });
                    }
                }
                self.last_freq[idx] = Some(new);
                let drop = self.thermal.drop_for(l.level).value();
                if drop > self.last_thermal_drop[idx] + 1e-3 {
                    self.tracer.emit(self.clock, || Event::ThermalThrottle {
                        region: region_class(l.level),
                        drop_ghz: drop,
                    });
                }
                self.last_thermal_drop[idx] = drop;
            }
        }
        self.clock += dt;

        PlatformSnapshot {
            freqs,
            bw_grants: arbitration.grants,
            power,
            bw_utilization: arbitration.utilization,
            queuing_factor: arbitration.queuing_factor,
            power_stress,
            tdp_scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> PlatformSim {
        PlatformSim::new(PlatformSpec::gen_a())
    }

    fn amx_load(cores: usize) -> RegionLoad {
        RegionLoad {
            level: AuUsageLevel::High,
            cores,
            class: ActivityClass::Amx,
            duty: 1.0,
            bw_demand: GbPerSec(60.0),
            bw_cap: 1.0,
            smt_sibling: None,
        }
    }

    fn decode_load(cores: usize) -> RegionLoad {
        RegionLoad {
            level: AuUsageLevel::Low,
            cores,
            class: ActivityClass::Avx,
            duty: 1.0,
            bw_demand: GbPerSec(170.0),
            bw_cap: 1.0,
            smt_sibling: None,
        }
    }

    fn stressor_load(cores: usize) -> RegionLoad {
        RegionLoad {
            level: AuUsageLevel::None,
            cores,
            class: ActivityClass::ScalarCompute,
            duty: 1.0,
            bw_demand: GbPerSec(5.0),
            bw_cap: 1.0,
            smt_sibling: None,
        }
    }

    #[test]
    fn prefill_frequency_matches_fig6a() {
        let mut s = sim();
        let snap = s.step(SimDuration::from_millis(100), &[amx_load(32)]);
        let f = snap.freqs[0].value();
        assert!((2.4..=2.55).contains(&f), "prefill ≈2.5 GHz, got {f}");
    }

    #[test]
    fn decode_frequency_matches_fig6a() {
        let mut s = sim();
        let snap = s.step(SimDuration::from_millis(100), &[decode_load(96)]);
        let f = snap.freqs[0].value();
        assert!((3.0..=3.15).contains(&f), "decode ≈3.1 GHz, got {f}");
    }

    #[test]
    fn stressors_deepen_decode_reduction() {
        let mut a = sim();
        let alone = a
            .step(SimDuration::from_millis(100), &[decode_load(48)])
            .freqs[0];
        let mut b = sim();
        let stressed = b
            .step(
                SimDuration::from_millis(100),
                &[decode_load(48), stressor_load(48)],
            )
            .freqs[0];
        assert!(
            stressed.value() < alone.value(),
            "Fig 6a blue squares: stressors deepen decode reduction"
        );
        assert!(stressed.value() >= 2.75, "bounded by the stress floor");
    }

    #[test]
    fn none_region_holds_turbo_under_au_activity() {
        let mut s = sim();
        let snap = s.step(
            SimDuration::from_millis(100),
            &[amx_load(32), RegionLoad::idle(AuUsageLevel::None, 64)],
        );
        assert!(
            (snap.freqs[1].value() - 3.2).abs() < 1e-9,
            "Fig 6a gray squares"
        );
    }

    #[test]
    fn power_for_exclusive_serving_is_calibrated() {
        let mut s = sim();
        let snap = s.step(
            SimDuration::from_millis(100),
            &[amx_load(32), decode_load(64)],
        );
        let p = snap.power.value();
        assert!((230.0..=310.0).contains(&p), "§III-B: ≈270 W, got {p}");
    }

    #[test]
    fn oversubscribed_bandwidth_slows_loads() {
        let mut s = sim();
        let mut d = decode_load(48);
        d.bw_demand = GbPerSec(200.0);
        let mut o = stressor_load(48);
        o.bw_demand = GbPerSec(150.0);
        let snap = s.step(SimDuration::from_millis(100), &[d, o]);
        assert!(snap.bw_grants[0].slowdown > 1.0);
        assert!(snap.bw_utilization > 0.99);
    }

    #[test]
    fn sustained_clustered_stress_triggers_thermal_drop() {
        let mut s = sim();
        // 24 of 96 cores (25%) running hot compute: the Fig 6b hotspot case.
        let loads = [decode_load(72), stressor_load(24)];
        let mut dropped = false;
        for _ in 0..200 {
            let snap = s.step(SimDuration::from_millis(250), &loads);
            if snap.freqs[1].value() < 3.1 {
                dropped = true;
                break;
            }
        }
        assert!(
            dropped,
            "expected abrupt thermal drop on clustered shared cores"
        );
    }

    #[test]
    fn spread_stress_avoids_thermal_drop() {
        let mut s = sim();
        let loads = [decode_load(24), stressor_load(72)];
        for _ in 0..200 {
            let snap = s.step(SimDuration::from_millis(250), &loads);
            assert!(
                (snap.freqs[1].value() - 3.2).abs() < 1e-9,
                "spread-out shared cores keep turbo"
            );
        }
    }

    #[test]
    #[should_panic(expected = "loads claim")]
    fn oversubscribed_cores_panic() {
        sim().step(
            SimDuration::from_millis(1),
            &[amx_load(96), decode_load(10)],
        );
    }

    #[test]
    fn bandwidth_degradation_shrinks_grants() {
        let mut s = sim();
        let before = s
            .step(SimDuration::from_millis(100), &[decode_load(48)])
            .bw_grants[0]
            .granted;
        s.degrade_bandwidth(0.5).expect("valid fraction");
        let after = s
            .step(SimDuration::from_millis(100), &[decode_load(48)])
            .bw_grants[0]
            .granted;
        // 170 GB/s demand: fully granted before, capped at the degraded
        // pool's ~111 GB/s sustainable bandwidth after.
        assert!(
            after.value() < before.value() * 0.7,
            "{} vs {}",
            after.value(),
            before.value()
        );
    }

    #[test]
    fn out_of_range_degradation_is_a_typed_error() {
        let mut s = sim();
        let healthy = s.pool().peak();
        for bad in [0.0, -0.25, 1.5, f64::NAN, f64::INFINITY] {
            let err = s.degrade_bandwidth(bad).expect_err("must reject");
            assert!(err.to_string().contains("(0, 1]"), "{err}");
        }
        assert_eq!(s.pool().peak(), healthy, "pool untouched after rejects");
        s.degrade_bandwidth(0.5).expect("valid");
        s.degrade_bandwidth(1.0)
            .expect("recovery restores the pool");
        assert_eq!(s.pool().peak(), healthy);
    }

    #[test]
    fn degradation_recovers_to_spec_bandwidth() {
        let mut s = sim();
        let before = s
            .step(SimDuration::from_millis(100), &[decode_load(48)])
            .bw_grants[0]
            .granted;
        s.degrade_bandwidth(0.5).expect("valid");
        s.degrade_bandwidth(1.0).expect("valid");
        let after = s
            .step(SimDuration::from_millis(100), &[decode_load(48)])
            .bw_grants[0]
            .granted;
        assert!((after.value() - before.value()).abs() < 1e-9);
    }

    #[test]
    fn fault_hooks_reach_thermal_and_governor() {
        let mut s = sim();
        s.set_cooling_loss(1.5);
        assert!(s.thermal().cooling_loss() > 0.0);
        s.set_license_lock(Some(AuUsageLevel::High));
        assert_eq!(s.governor().license_lock(), Some(AuUsageLevel::High));
        let snap = s.step(SimDuration::from_millis(100), &[decode_load(48)]);
        assert!(
            snap.freqs[0].value() < 2.6,
            "locked decode region must run at the AMX curve, got {}",
            snap.freqs[0].value()
        );
        s.set_cooling_loss(0.0);
        s.set_license_lock(None);
        assert_eq!(s.governor().license_lock(), None);
    }

    #[test]
    fn tracer_captures_freq_and_thermal_events() {
        use aum_sim::telemetry::MemorySink;
        let mut s = sim();
        let (tracer, sink) = Tracer::shared(MemorySink::new());
        s.attach_tracer(tracer);
        // The Fig 6b hotspot case: clustered stress eventually trips the
        // thermal integrator, which must show up as ThermalThrottle plus a
        // FreqTransition on the shared region.
        let loads = [decode_load(72), stressor_load(24)];
        for _ in 0..200 {
            let _ = s.step(SimDuration::from_millis(250), &loads);
        }
        let records = sink.lock().expect("sink lock").records().to_vec();
        assert!(
            records
                .iter()
                .any(|r| matches!(r.event, Event::ThermalThrottle { .. })),
            "expected a thermal-throttle event"
        );
        assert!(
            records
                .iter()
                .any(|r| matches!(r.event, Event::FreqTransition { .. })),
            "expected a frequency transition"
        );
        for w in records.windows(2) {
            assert!(w[0].at <= w[1].at, "event stamps must be monotonic");
        }
    }
}
