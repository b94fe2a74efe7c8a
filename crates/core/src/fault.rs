//! Scripted fault-injection plane, and the fault-script core both fault
//! planes share.
//!
//! The paper's promise (§VI–VII) is a controller that keeps SLOs intact
//! when the platform misbehaves. This module scripts that misbehaviour: a
//! [`FaultPlan`] is an ordered list of timed [`FaultEvent`]s, each naming a
//! [`Fault`] with an activation time and an optional recovery time. The
//! experiment harness (`crate::experiment`) replays the plan through a
//! `FaultPlane` at control-interval boundaries, emitting `FaultInjected` /
//! `FaultRecovered` telemetry.
//!
//! The taxonomy covers every failure mode the platform model already
//! simulates — memory RAS events, cooling loss, stuck license firmware,
//! dead cores, failed RDT MSR writes, best-effort load spikes, and lying
//! or frozen sensors. This module alone composes overlapping faults into
//! one `FaultEffects`. Faults against the same subsystem take the *worst*
//! active effect (minimum bandwidth fraction, maximum cooling loss, lowest
//! license class, largest sensor noise, shortest RDT write delay, dropout
//! if any event has it), so overlapping chaos scripts stay physically
//! meaningful; offline core counts add and best-effort surges multiply.
//!
//! Node-scoped failures (crashes, stragglers, partitions, drains) live in
//! the fleet plane, whose [`crate::fleet::NodeFaultPlan`] is this module's
//! [`FaultScript`] too. So one set of rules holds for both planes: a
//! script sorts its events by activation time, validates their timing and
//! parameters, renders empty as `null`, and decodes `null`, a bare event
//! list or `{"events": [...]}`. Its `FaultPlane` fires an edge
//! (activation or recovery) at the first run boundary at or after its
//! time, in time order with script order on ties; an event no boundary
//! reaches is reported once as `FaultOutsideWindow`, and a recovery no
//! boundary reaches leaves its fault active to the end. [`FaultPlan`] also
//! still decodes the legacy single-fault shape
//! `{"BandwidthDegrade": {"at_secs": 120.0, "frac": 0.6}}`.

use std::cmp::Ordering;
use std::sync::Arc;

use serde::{content_get, Content, DeError, Deserialize, Serialize};

use aum_platform::state::PlatformSim;
use aum_platform::topology::AuUsageLevel;
use aum_sim::span::{self, SpanKind};
use aum_sim::telemetry::{Event, Tracer};
use aum_sim::time::SimTime;

use crate::error::AumError;

/// One platform failure mode the fault plane can inject.
///
/// Parameters describe the fault's magnitude only; *when* it strikes and
/// heals lives on the enclosing [`FaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Memory bandwidth collapses to `frac` of the platform spec — a DIMM
    /// failure or memory-RAS throttling event. Recovery restores the full
    /// pool.
    BandwidthDegrade {
        /// Remaining bandwidth fraction, `(0, 1]`.
        frac: f64,
    },
    /// Package cooling loss (failed fan / blocked airflow): every region
    /// accumulates ambient heat regardless of load and — unlike the healthy
    /// Fig 6b hotspot — AU license caps no longer protect High/Low regions
    /// from thermal throttling.
    ThermalRunaway {
        /// Cooling-loss severity: 1.0 alone holds a reservoir exactly at
        /// the throttle-on threshold; above 1 throttles even idle regions.
        severity: f64,
    },
    /// PCU/firmware bug pins every AU core's license class, so e.g. AVX
    /// decode cores run at the AMX license frequency. None-AU cores hold no
    /// license and are unaffected.
    FrequencyLicenseLock {
        /// The stuck license level.
        level: AuUsageLevel,
    },
    /// Physical cores drop out of the schedulable set (MCE offlining).
    /// Cores are removed from the None region first, then Low, then High,
    /// always leaving at least one core per serving region.
    CoreOffline {
        /// Number of cores taken offline.
        count: usize,
    },
    /// CAT/MBA reconfiguration writes fail: the manager's allocation
    /// requests either vanish silently (`delay_intervals = 0`) or take
    /// effect late. The platform keeps running on the last allocation that
    /// actually landed.
    RdtWriteFailure {
        /// Control intervals a write is delayed by; `0` = writes are
        /// silently dropped for the fault's duration.
        delay_intervals: u32,
    },
    /// The best-effort co-runner's offered load spikes, multiplying its
    /// duty/bandwidth demand.
    BeSurge {
        /// Demand multiplier; `> 1` is a surge.
        factor: f64,
    },
    /// Multiplicative noise on the manager's sensor readings (latency
    /// percentiles, power, bandwidth utilization) — a flaky PMU. Noise is
    /// drawn from the experiment's deterministic RNG.
    SensorNoise {
        /// Standard deviation of the log-normal multiplicative noise.
        sigma: f64,
    },
    /// Sensor readback freezes: the manager keeps seeing the last values
    /// observed before the fault struck.
    SensorDropout,
}

impl Fault {
    /// Stable label for telemetry and reports.
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        match self {
            Fault::BandwidthDegrade { .. } => "BandwidthDegrade",
            Fault::ThermalRunaway { .. } => "ThermalRunaway",
            Fault::FrequencyLicenseLock { .. } => "FrequencyLicenseLock",
            Fault::CoreOffline { .. } => "CoreOffline",
            Fault::RdtWriteFailure { .. } => "RdtWriteFailure",
            Fault::BeSurge { .. } => "BeSurge",
            Fault::SensorNoise { .. } => "SensorNoise",
            Fault::SensorDropout => "SensorDropout",
        }
    }

    /// Human-readable parameter summary for telemetry.
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            Fault::BandwidthDegrade { frac } => {
                format!("bandwidth to {:.0}% of spec", frac * 100.0)
            }
            Fault::ThermalRunaway { severity } => format!("cooling loss severity {severity:.2}"),
            Fault::FrequencyLicenseLock { level } => format!("AU license pinned to {level:?}"),
            Fault::CoreOffline { count } => format!("{count} cores offline"),
            Fault::RdtWriteFailure { delay_intervals: 0 } => "RDT writes silently dropped".into(),
            Fault::RdtWriteFailure { delay_intervals } => {
                format!("RDT writes delayed {delay_intervals} intervals")
            }
            Fault::BeSurge { factor } => format!("BE load x{factor:.2}"),
            Fault::SensorNoise { sigma } => format!("sensor noise sigma {sigma:.2}"),
            Fault::SensorDropout => "sensor readback frozen".into(),
        }
    }
}

/// One scheduled fault: what, when, and (optionally) until when.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Activation time, seconds from run start. The harness applies the
    /// fault at the first control-interval boundary `t >= at_secs`.
    pub at_secs: f64,
    /// The failure mode.
    pub fault: Fault,
    /// Recovery time, seconds; the fault's effect is reversed at the first
    /// boundary `t >= recover_at_secs`. `None` = permanent.
    #[serde(default)]
    pub recover_at_secs: Option<f64>,
}

impl FaultEvent {
    /// A permanent fault striking at `at_secs`.
    #[must_use]
    pub fn permanent(at_secs: f64, fault: Fault) -> Self {
        FaultEvent {
            at_secs,
            fault,
            recover_at_secs: None,
        }
    }

    /// A fault active over `[at_secs, recover_at_secs)`.
    #[must_use]
    pub fn windowed(at_secs: f64, recover_at_secs: f64, fault: Fault) -> Self {
        FaultEvent {
            at_secs,
            fault,
            recover_at_secs: Some(recover_at_secs),
        }
    }
}

impl ScriptEvent for FaultEvent {
    fn window(&self) -> (f64, Option<f64>) {
        (self.at_secs, self.recover_at_secs)
    }

    fn kind_label(&self) -> &'static str {
        self.fault.kind_label()
    }

    fn check(&self) -> Result<(), String> {
        let problem = match self.fault {
            Fault::BandwidthDegrade { frac } if !(frac > 0.0 && frac <= 1.0) => {
                format!("BandwidthDegrade frac must be in (0, 1], got {frac}")
            }
            Fault::ThermalRunaway { severity } if !(severity.is_finite() && severity >= 0.0) => {
                format!("ThermalRunaway severity must be finite and >= 0, got {severity}")
            }
            Fault::BeSurge { factor } if !(factor.is_finite() && factor > 0.0) => {
                format!("BeSurge factor must be finite and positive, got {factor}")
            }
            Fault::SensorNoise { sigma } if !(sigma.is_finite() && sigma >= 0.0) => {
                format!("SensorNoise sigma must be finite and >= 0, got {sigma}")
            }
            Fault::CoreOffline { count: 0 } => "CoreOffline count must be > 0".into(),
            _ => return Ok(()),
        };
        Err(problem)
    }

    fn legacy(content: &Content) -> Result<Self, DeError> {
        let at_secs = match content {
            // `{"BandwidthDegrade": {"at_secs": 120.0, "frac": 0.6}}`: the
            // timing lived inside the variant body back then, so it is
            // lifted out here; the Fault derive ignores the extra key.
            Content::Map(entries) if entries.len() == 1 => match &entries[0].1 {
                Content::Map(body) => content_get(body, "at_secs")
                    .map(f64::from_content)
                    .transpose()?,
                _ => None,
            },
            // A unit variant as a bare string.
            Content::Str(_) => None,
            other => return Err(DeError::expected("fault plan", "FaultPlan", other)),
        };
        let fault = Fault::from_content(content)?;
        Ok(FaultEvent::permanent(at_secs.unwrap_or(0.0), fault))
    }
}

/// One timed event of a [`FaultScript`]: a [`FaultEvent`] on one server's
/// platform, a [`crate::fleet::NodeFaultEvent`] on the fleet's nodes.
pub trait ScriptEvent: Serialize + Deserialize {
    /// Activation time and optional recovery time, seconds from run start.
    fn window(&self) -> (f64, Option<f64>);

    /// Stable label of the fault kind, for telemetry.
    fn kind_label(&self) -> &'static str;

    /// Checks the fault's parameters are meaningful.
    fn check(&self) -> Result<(), String>;

    /// Decodes a plan shape older than the event list; by default there
    /// is none.
    fn legacy(content: &Content) -> Result<Self, DeError> {
        Err(DeError::expected("fault plan", "FaultScript", content))
    }
}

/// An ordered script of timed fault events — a chaos run's screenplay.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScript<E> {
    /// The scripted events, sorted by activation time.
    pub events: Vec<E>,
}

/// One server's platform-fault script.
pub type FaultPlan = FaultScript<FaultEvent>;

impl<E> Default for FaultScript<E> {
    fn default() -> Self {
        FaultScript { events: Vec::new() }
    }
}

impl<E: ScriptEvent> FaultScript<E> {
    /// A healthy run: no faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan of the given events, sorted by activation time (stable for
    /// ties, so same-instant events apply in authoring order).
    #[must_use]
    pub fn new(mut events: Vec<E>) -> Self {
        let at = |ev: &E| ev.window().0;
        events.sort_by(|a, b| at(a).partial_cmp(&at(b)).unwrap_or(Ordering::Equal));
        FaultScript { events }
    }

    /// A single-event plan.
    #[must_use]
    pub fn single(event: E) -> Self {
        FaultScript {
            events: vec![event],
        }
    }

    /// Whether the plan schedules anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event for meaningful parameters and sane timing.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed event.
    pub fn validate(&self) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            let (at, recover) = ev.window();
            if !(at.is_finite() && at >= 0.0) {
                return Err(format!(
                    "event {i}: at_secs must be finite and >= 0, got {at}"
                ));
            }
            if let Some(rec) = recover {
                if !(rec.is_finite() && rec > at) {
                    return Err(format!(
                        "event {i}: recover_at_secs must be finite and > at_secs ({at}), got {rec}"
                    ));
                }
            }
            ev.check().map_err(|e| format!("event {i}: {e}"))?;
        }
        Ok(())
    }
}

impl<E: ScriptEvent> Serialize for FaultScript<E> {
    fn to_content(&self) -> Content {
        if self.events.is_empty() {
            // The healthy default renders as `null`, the shape configs
            // written before fault scripts degrade to.
            return Content::Null;
        }
        Content::Map(vec![(
            "events".to_string(),
            Content::Seq(self.events.iter().map(Serialize::to_content).collect()),
        )])
    }
}

impl<E: ScriptEvent> Deserialize for FaultScript<E> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let listed = match content {
            Content::Map(entries) => content_get(entries, "events"),
            _ => None,
        };
        let events: Vec<E> = match (content, listed) {
            (Content::Null, _) => Vec::new(),
            (_, Some(Content::Seq(items))) | (Content::Seq(items), None) => items
                .iter()
                .map(E::from_content)
                .collect::<Result<_, _>>()?,
            (_, Some(other)) => return Err(DeError::expected("sequence", "events", other)),
            (other, None) => vec![E::legacy(other)?],
        };
        let plan = FaultScript::new(events);
        plan.validate()
            .map_err(|e| DeError::custom(format!("invalid fault plan: {e}")))?;
        Ok(plan)
    }
}

/// What the active faults do together, composed as the module doc says.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultEffects {
    pub(crate) bandwidth_frac: f64,
    pub(crate) cooling_loss: f64,
    pub(crate) license_lock: Option<AuUsageLevel>,
    pub(crate) offline_cores: usize,
    pub(crate) be_surge: f64,
    pub(crate) sensor_sigma: f64,
    pub(crate) sensor_dropout: bool,
    /// `None` while RDT writes land at once.
    pub(crate) rdt_write_delay: Option<u32>,
}

impl FaultEffects {
    /// A healthy platform.
    pub(crate) const NONE: FaultEffects = FaultEffects {
        bandwidth_frac: 1.0,
        cooling_loss: 0.0,
        license_lock: None,
        offline_cores: 0,
        be_surge: 1.0,
        sensor_sigma: 0.0,
        sensor_dropout: false,
        rdt_write_delay: None,
    };

    /// Composes `faults` in the order given, which fixes the float product
    /// of the surge factors.
    pub(crate) fn compose<'f>(faults: impl IntoIterator<Item = &'f Fault>) -> Self {
        let mut fx = Self::NONE;
        for fault in faults {
            match *fault {
                Fault::BandwidthDegrade { frac } => fx.bandwidth_frac = fx.bandwidth_frac.min(frac),
                Fault::ThermalRunaway { severity } => {
                    fx.cooling_loss = fx.cooling_loss.max(severity);
                }
                // Levels order None < Low < High, and a higher license
                // class caps frequency lower.
                Fault::FrequencyLicenseLock { level } => {
                    fx.license_lock = fx.license_lock.max(Some(level));
                }
                Fault::CoreOffline { count } => fx.offline_cores += count,
                Fault::BeSurge { factor } => fx.be_surge *= factor,
                Fault::SensorNoise { sigma } => fx.sensor_sigma = fx.sensor_sigma.max(sigma),
                Fault::SensorDropout => fx.sensor_dropout = true,
                Fault::RdtWriteFailure { delay_intervals: d } => {
                    fx.rdt_write_delay = Some(fx.rdt_write_delay.map_or(d, |cur| cur.min(d)));
                }
            }
        }
        fx
    }
}

/// One run's replay of a validated fault script, by the rules in the
/// module doc: the script's edges in firing order and which events are
/// active.
pub(crate) struct FaultPlane<'a, E> {
    events: &'a [E],
    /// `(time, event index, applies)`, stably sorted by time so
    /// same-instant edges keep script order.
    edges: Vec<(f64, usize, bool)>,
    next_edge: usize,
    active: Vec<bool>,
}

impl<'a, E: ScriptEvent> FaultPlane<'a, E> {
    /// Schedules `plan` on a run of `duration_secs` whose last boundary
    /// is at `last_boundary_secs`, reporting every event that starts
    /// after it.
    pub(crate) fn new(
        plan: &'a FaultScript<E>,
        last_boundary_secs: f64,
        duration_secs: f64,
        tracer: &Tracer,
    ) -> Self {
        let mut edges = Vec::new();
        for (i, ev) in plan.events.iter().enumerate() {
            let (at, recover) = ev.window();
            if at > last_boundary_secs {
                tracer.emit(SimTime::ZERO, || Event::FaultOutsideWindow {
                    kind: ev.kind_label().to_string(),
                    at_secs: at,
                    duration_secs,
                });
                continue;
            }
            edges.push((at, i, true));
            edges.extend(recover.map(|rec| (rec, i, false)));
        }
        edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        FaultPlane {
            events: &plan.events,
            edges,
            next_edge: 0,
            active: vec![false; plan.events.len()],
        }
    }

    /// Fires every edge due at the boundary `now_secs` (nothing is
    /// skipped, nothing fires twice), handing each to `fire(event index,
    /// event, applies)`. Returns whether any fired.
    pub(crate) fn advance(
        &mut self,
        now_secs: f64,
        mut fire: impl FnMut(usize, &'a E, bool),
    ) -> bool {
        let first = self.next_edge;
        while let Some(&(at, idx, applies)) = self.edges.get(self.next_edge) {
            if at > now_secs {
                break;
            }
            self.next_edge += 1;
            self.active[idx] = applies;
            fire(idx, &self.events[idx], applies);
        }
        self.next_edge > first
    }

    /// The active events, with their script indices, in script order.
    pub(crate) fn active(&self) -> impl Iterator<Item = (usize, &'a E)> + '_ {
        let events = self.events;
        self.active
            .iter()
            .enumerate()
            .filter(|(_, on)| **on)
            .map(move |(idx, _)| (idx, &events[idx]))
    }
}

impl FaultPlane<'_, FaultEvent> {
    /// Fires the edges due at the interval boundary `now`, tracing each
    /// with its fault-window span on `track`. When one fired, it programs
    /// the platform-side effects of the active faults into `platform`.
    /// Returns the effects in force for the interval.
    pub(crate) fn apply(
        &mut self,
        now: SimTime,
        platform: &mut PlatformSim,
        tracer: &Tracer,
        track: &Arc<str>,
    ) -> Result<FaultEffects, AumError> {
        let fired = self.advance(now.as_secs_f64(), |idx, ev, applies| {
            let kind = ev.fault.kind_label();
            let window = SpanKind::FaultWindow;
            if applies {
                tracer.emit(now, || Event::FaultInjected {
                    kind: kind.to_string(),
                    detail: ev.fault.detail(),
                });
                let label = || Some(format!("fault {kind}"));
                tracer.emit(now, || span::open(window, idx as u64, None, track, label()));
            } else {
                tracer.emit(now, || Event::FaultRecovered {
                    kind: kind.to_string(),
                });
                tracer.emit(now, || span::close(window, idx as u64, track));
            }
        });
        let fx = FaultEffects::compose(self.active().map(|(_, ev)| &ev.fault));
        if fired {
            platform.degrade_bandwidth(fx.bandwidth_frac)?;
            platform.set_cooling_loss(fx.cooling_loss);
            platform.set_license_lock(fx.license_lock);
        }
        Ok(fx)
    }

    /// Closes the window span of every fault still active at the run's
    /// `end`, so the trace holds a well-formed span forest.
    pub(crate) fn close_open_windows(&self, end: SimTime, tracer: &Tracer, track: &Arc<str>) {
        for (idx, _) in self.active() {
            tracer.emit(end, || {
                span::close(SpanKind::FaultWindow, idx as u64, track)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_events_by_time() {
        let plan = FaultPlan::new(vec![
            FaultEvent::permanent(200.0, Fault::SensorDropout),
            FaultEvent::windowed(50.0, 80.0, Fault::BeSurge { factor: 2.0 }),
        ]);
        assert_eq!(plan.events[0].at_secs, 50.0);
        assert_eq!(plan.events[1].at_secs, 200.0);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let bad = [
            Fault::BandwidthDegrade { frac: 0.0 },
            Fault::BandwidthDegrade { frac: 1.5 },
            Fault::ThermalRunaway { severity: -1.0 },
            Fault::BeSurge { factor: 0.0 },
            Fault::SensorNoise { sigma: f64::NAN },
            Fault::CoreOffline { count: 0 },
        ];
        for fault in bad {
            let plan = FaultPlan::single(FaultEvent::permanent(1.0, fault));
            assert!(plan.validate().is_err(), "{fault:?} must be rejected");
        }
        let ok = FaultPlan::single(FaultEvent::permanent(
            1.0,
            Fault::BandwidthDegrade { frac: 0.5 },
        ));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_timing() {
        let negative = FaultPlan::single(FaultEvent::permanent(-1.0, Fault::SensorDropout));
        assert!(negative.validate().is_err());
        let inverted = FaultPlan::single(FaultEvent::windowed(10.0, 5.0, Fault::SensorDropout));
        assert!(inverted.validate().is_err());
    }

    #[test]
    fn labels_and_details_cover_every_kind() {
        let all = [
            Fault::BandwidthDegrade { frac: 0.6 },
            Fault::ThermalRunaway { severity: 1.2 },
            Fault::FrequencyLicenseLock {
                level: AuUsageLevel::High,
            },
            Fault::CoreOffline { count: 8 },
            Fault::RdtWriteFailure { delay_intervals: 0 },
            Fault::RdtWriteFailure { delay_intervals: 4 },
            Fault::BeSurge { factor: 2.5 },
            Fault::SensorNoise { sigma: 0.4 },
            Fault::SensorDropout,
        ];
        for f in all {
            assert!(!f.kind_label().is_empty());
            assert!(!f.detail().is_empty());
        }
    }

    #[test]
    fn overlapping_faults_compose_by_the_documented_rules() {
        use AuUsageLevel::{High, Low};
        let lock = |level| Fault::FrequencyLicenseLock { level };
        let every_kind_twice = [
            Fault::BandwidthDegrade { frac: 0.6 },
            Fault::BandwidthDegrade { frac: 0.3 },
            Fault::ThermalRunaway { severity: 0.8 },
            Fault::ThermalRunaway { severity: 1.2 },
            lock(High),
            lock(Low),
            Fault::CoreOffline { count: 4 },
            Fault::CoreOffline { count: 8 },
            Fault::BeSurge { factor: 2.0 },
            Fault::BeSurge { factor: 1.5 },
            Fault::SensorNoise { sigma: 0.4 },
            Fault::SensorNoise { sigma: 0.1 },
            Fault::SensorDropout,
            Fault::RdtWriteFailure { delay_intervals: 2 },
            Fault::RdtWriteFailure { delay_intervals: 4 },
        ];
        let worst = FaultEffects {
            bandwidth_frac: 0.3,
            cooling_loss: 1.2,
            license_lock: Some(High),
            offline_cores: 12,
            be_surge: 3.0,
            sensor_sigma: 0.4,
            sensor_dropout: true,
            rdt_write_delay: Some(2),
        };
        assert_eq!(FaultEffects::compose(&every_kind_twice), worst);
        assert_eq!(FaultEffects::compose(every_kind_twice.iter().rev()), worst);
        assert_eq!(FaultEffects::compose(&[]), FaultEffects::NONE);
    }

    #[test]
    fn reverting_one_of_two_overlapping_faults_keeps_the_other() {
        let window = |from, to, fault| FaultEvent::windowed(from, to, fault);
        let plan = FaultPlan::new(vec![
            window(10.0, 30.0, Fault::BandwidthDegrade { frac: 0.5 }),
            window(10.0, 30.0, Fault::BeSurge { factor: 2.0 }),
            window(20.0, 40.0, Fault::BandwidthDegrade { frac: 0.8 }),
            window(20.0, 40.0, Fault::BeSurge { factor: 1.5 }),
        ]);
        let tracer = Tracer::disabled();
        let mut platform = PlatformSim::new(aum_platform::spec::PlatformSpec::gen_a());
        let mut plane = FaultPlane::new(&plan, 60.0, 60.0, &tracer);
        let track: Arc<str> = "t".into();
        let mut at = |secs| {
            let fx = plane
                .apply(SimTime::from_secs_f64(secs), &mut platform, &tracer, &track)
                .expect("validated plan");
            (fx.bandwidth_frac, fx.be_surge)
        };
        assert_eq!(at(0.0), (1.0, 1.0));
        assert_eq!(at(25.0), (0.5, 3.0));
        assert_eq!(at(30.0), (0.8, 1.5), "the later window outlives the first");
        assert_eq!(at(40.0), (1.0, 1.0));
    }
}
