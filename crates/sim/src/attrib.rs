//! Time/energy attribution ledger with conservation checks.
//!
//! AUM's argument is an accounting argument: the paper attributes cycles
//! (top-down retiring vs memory-bound), frequency-license penalties and
//! watts to specific causes, and the controller's perf-per-watt objective
//! is only trustworthy if that accounting *closes*. This module joins the
//! raw signals the stack already emits into a per-control-interval,
//! per-region ledger saying where each second and each joule went.
//!
//! The crate layering keeps this module free of platform/AU types: the
//! experiment harness (in `aum`, which can see `TopDown`, `PowerModel` and
//! the RDT state) reduces each interval to primitive [`RegionSample`]s and
//! this module turns them into a [`Ledger`] whose rows provably conserve:
//!
//! - **time**: each region's causes sum to the interval's wall time;
//! - **energy**: all regions' causes sum to the interval's modeled package
//!   energy;
//!
//! both within [`EPSILON`] relative error. [`Ledger::verify`] enforces the
//! invariants and returns a typed [`ConservationError`] on violation — the
//! `repro attrib` driver turns that into a nonzero exit.
//!
//! ## Cause taxonomy
//!
//! Busy time splits by what the region's workload was bound on
//! ([`Cause::Compute`] plus the L1/L2/LLC/DRAM memory hierarchy and
//! [`Cause::BeContention`] for stalls induced by the co-runner's pressure
//! on shared resources); the gap between the region's achieved frequency
//! and the unlicensed ceiling splits into [`Cause::ThermalThrottle`] (the
//! thermal governor's drop) and [`Cause::LicensePenalty`] (license class,
//! power stress and TDP clipping — everything else that separates the
//! achieved clock from turbo). Non-busy time is [`Cause::Idle`], or
//! [`Cause::SafeModeShed`] when the controller's resilience layer shed the
//! work on purpose.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Relative epsilon for the conservation invariants: attributed time must
/// sum to wall time, and attributed joules to modeled energy, within this
/// relative error per interval.
pub const EPSILON: f64 = 1e-6;

/// Where a second (or a joule) went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cause {
    /// Productive execution: retiring plus in-core (non-memory) slots.
    Compute,
    /// Stalled on the L1 data cache.
    MemL1,
    /// Stalled on the L2 cache.
    MemL2,
    /// Stalled on the last-level cache.
    MemLlc,
    /// Stalled on DRAM (bandwidth + latency).
    MemDram,
    /// Running below the unlicensed frequency: license class, power
    /// stress and TDP clipping.
    LicensePenalty,
    /// Running below the unlicensed frequency due to thermal throttling.
    ThermalThrottle,
    /// Extra memory stalls induced by best-effort co-runner pressure on
    /// the shared pool/LLC (the allocation-dependent part).
    BeContention,
    /// Capacity deliberately idled by the controller's safe mode.
    SafeModeShed,
    /// Nothing to run.
    Idle,
}

impl Cause {
    /// Every cause, in the stable serialization/report order.
    pub const ALL: [Cause; 10] = [
        Cause::Compute,
        Cause::MemL1,
        Cause::MemL2,
        Cause::MemLlc,
        Cause::MemDram,
        Cause::LicensePenalty,
        Cause::ThermalThrottle,
        Cause::BeContention,
        Cause::SafeModeShed,
        Cause::Idle,
    ];

    /// Stable lowercase label (used in reports and Prometheus labels).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Cause::Compute => "compute",
            Cause::MemL1 => "mem-l1",
            Cause::MemL2 => "mem-l2",
            Cause::MemLlc => "mem-llc",
            Cause::MemDram => "mem-dram",
            Cause::LicensePenalty => "license-penalty",
            Cause::ThermalThrottle => "thermal-throttle",
            Cause::BeContention => "be-contention",
            Cause::SafeModeShed => "safe-mode-shed",
            Cause::Idle => "idle",
        }
    }

    /// Whether this cause represents lost (non-productive, non-idle)
    /// capacity — the candidates for a "blame" verdict.
    #[must_use]
    pub fn is_loss(self) -> bool {
        !matches!(self, Cause::Compute | Cause::Idle)
    }

    /// Position in [`Cause::ALL`], which lists the causes in declaration
    /// order.
    fn index(self) -> usize {
        self as usize
    }
}

impl core::fmt::Display for Cause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The platform region a ledger row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// AU-high serving cores (prefill / AMX).
    AuHigh,
    /// AU-low serving cores (decode / AVX).
    AuLow,
    /// Shared capacity: best-effort cores, SMT siblings and spare cores.
    Shared,
    /// The uncore: mesh, memory controllers and PHY.
    Uncore,
}

impl Region {
    /// Every region, in report order.
    pub const ALL: [Region; 4] = [
        Region::AuHigh,
        Region::AuLow,
        Region::Shared,
        Region::Uncore,
    ];

    /// Stable lowercase label (used in reports and Prometheus labels).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Region::AuHigh => "au-high",
            Region::AuLow => "au-low",
            Region::Shared => "shared",
            Region::Uncore => "uncore",
        }
    }
}

impl core::fmt::Display for Region {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A quantity (seconds or joules) split across every [`Cause`], stored in
/// [`Cause::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CauseVec {
    values: [f64; 10],
}

impl CauseVec {
    /// The all-zero vector.
    #[must_use]
    pub fn zero() -> Self {
        Self::default()
    }

    /// The amount attributed to `cause`.
    #[must_use]
    pub fn get(&self, cause: Cause) -> f64 {
        self.values[cause.index()]
    }

    /// Adds `amount` to `cause`.
    pub fn add(&mut self, cause: Cause, amount: f64) {
        self.values[cause.index()] += amount;
    }

    /// Sum over all causes.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The amounts, in [`Cause::ALL`] order.
    #[must_use]
    pub(crate) fn values(&self) -> &[f64; 10] {
        &self.values
    }

    /// Iterates `(cause, amount)` pairs in [`Cause::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Cause, f64)> + '_ {
        Cause::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Adds `other` into `self`, component-wise.
    pub fn accumulate(&mut self, other: &CauseVec) {
        for (v, o) in self.values.iter_mut().zip(&other.values) {
            *v += o;
        }
    }

    /// The loss cause (see [`Cause::is_loss`]) with the largest amount, if
    /// any loss is material relative to `scale`.
    #[must_use]
    pub fn dominant_loss(&self, scale: f64) -> Option<(Cause, f64)> {
        let mut best: Option<(Cause, f64)> = None;
        for (cause, v) in self.iter() {
            if cause.is_loss() && best.is_none_or(|(_, b)| v > b) {
                best = Some((cause, v));
            }
        }
        best.filter(|&(_, v)| v > scale.max(0.0) * 1e-9 && v > 0.0)
    }

    /// Distributes floating-point residue so the vector sums *exactly* to
    /// `total`: the difference lands on the largest component (whose
    /// relative perturbation is smallest). With an all-zero vector the
    /// residue lands on `fallback`.
    fn reconcile(&mut self, total: f64, fallback: Cause) {
        let diff = total - self.sum();
        if diff == 0.0 {
            return;
        }
        let mut idx = fallback.index();
        let mut max = f64::MIN;
        for (i, &v) in self.values.iter().enumerate() {
            if v > max && v > 0.0 {
                max = v;
                idx = i;
            }
        }
        self.values[idx] += diff;
    }
}

/// Fractions of *busy work* by boundedness, as the harness derives them
/// from a top-down signature under the interval's live pressure. Values
/// are normalized to sum to 1 by [`RegionSample`] construction; negatives
/// are clamped to zero.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkFractions {
    /// Productive (retiring + core-bound, non-memory) fraction.
    pub compute: f64,
    /// L1-bound fraction.
    pub l1: f64,
    /// L2-bound fraction.
    pub l2: f64,
    /// LLC-bound fraction.
    pub llc: f64,
    /// DRAM-bound fraction.
    pub dram: f64,
    /// Co-runner-induced extra memory stalls.
    pub contention: f64,
}

impl WorkFractions {
    /// All work is productive compute (also the fallback for degenerate
    /// inputs).
    #[must_use]
    pub fn all_compute() -> Self {
        WorkFractions {
            compute: 1.0,
            ..Default::default()
        }
    }

    /// All work is DRAM traffic (the uncore's "work").
    #[must_use]
    pub fn all_dram() -> Self {
        WorkFractions {
            dram: 1.0,
            ..Default::default()
        }
    }

    fn normalized(self) -> Self {
        let c = self.compute.max(0.0);
        let l1 = self.l1.max(0.0);
        let l2 = self.l2.max(0.0);
        let llc = self.llc.max(0.0);
        let dram = self.dram.max(0.0);
        let ct = self.contention.max(0.0);
        let sum = c + l1 + l2 + llc + dram + ct;
        if sum <= 0.0 || !sum.is_finite() {
            return WorkFractions::all_compute();
        }
        WorkFractions {
            compute: c / sum,
            l1: l1 / sum,
            l2: l2 / sum,
            llc: llc / sum,
            dram: dram / sum,
            contention: ct / sum,
        }
    }
}

/// One region's primitive observations for one control interval — the
/// interface between the harness (which can see platform internals) and
/// the ledger construction here (which cannot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSample {
    /// The region described.
    pub region: Region,
    /// Fraction of the interval the region was actively working, `[0, 1]`.
    pub busy_frac: f64,
    /// Achieved frequency while busy, GHz (use 1.0 for the uncore).
    pub freq_ghz: f64,
    /// The unlicensed reference frequency (all-core turbo), GHz. The gap
    /// to `freq_ghz` is charged to thermal + license causes.
    pub unlicensed_ghz: f64,
    /// Thermal governor's frequency drop in effect this interval, GHz.
    pub thermal_drop_ghz: f64,
    /// How busy work splits by boundedness.
    pub work: WorkFractions,
    /// Static (leakage/clocks) energy of the region this interval, J.
    pub static_j: f64,
    /// Dynamic (switching) energy of the region this interval, J.
    pub dynamic_j: f64,
    /// Whether non-busy time is deliberate safe-mode shedding rather than
    /// plain idleness.
    pub shed: bool,
}

impl RegionSample {
    /// An idle region drawing only static power.
    #[must_use]
    pub fn idle(region: Region, static_j: f64) -> Self {
        RegionSample {
            region,
            busy_frac: 0.0,
            freq_ghz: 1.0,
            unlicensed_ghz: 1.0,
            thermal_drop_ghz: 0.0,
            work: WorkFractions::all_compute(),
            static_j,
            dynamic_j: 0.0,
            shed: false,
        }
    }
}

/// One region's attributed time and energy for one interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionLedger {
    /// The region.
    pub region: Region,
    /// Seconds by cause; sums to the interval's wall time.
    pub time: CauseVec,
    /// Joules by cause; all regions together sum to the interval's
    /// modeled package energy.
    pub energy: CauseVec,
}

/// The full attribution of one control interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalLedger {
    /// Interval start.
    pub at: SimTime,
    /// Interval length, seconds.
    pub dt_secs: f64,
    /// Modeled package energy over the interval, J (the conservation
    /// target for the energy rows).
    pub energy_j: f64,
    /// Per-region rows, in [`Region::ALL`] order.
    pub regions: Vec<RegionLedger>,
}

impl IntervalLedger {
    /// Builds one interval's ledger from per-region primitive samples.
    ///
    /// `energy_j` is the *modeled* package energy (power-model readback ×
    /// dt); the samples' static + dynamic energies must re-derive it — the
    /// energy conservation check in [`Ledger::verify`] has teeth precisely
    /// because the two are computed independently.
    ///
    /// Construction conserves by design: per region, attributed time sums
    /// to `dt_secs` exactly (floating-point residue is folded into the
    /// largest component) and attributed energy sums to the sample's
    /// `static_j + dynamic_j`.
    #[must_use]
    pub fn build(at: SimTime, dt_secs: f64, energy_j: f64, samples: &[RegionSample]) -> Self {
        let regions = samples
            .iter()
            .map(|s| Self::build_region(dt_secs, s))
            .collect();
        IntervalLedger {
            at,
            dt_secs,
            energy_j,
            regions,
        }
    }

    fn build_region(dt_secs: f64, s: &RegionSample) -> RegionLedger {
        let dt = dt_secs.max(0.0);
        let busy = s.busy_frac.clamp(0.0, 1.0) * dt;
        let off = dt - busy;
        let off_cause = if s.shed {
            Cause::SafeModeShed
        } else {
            Cause::Idle
        };

        // Frequency decomposition: the busy window stretches by f0/f when
        // running at f < f0, so a fraction (1 - f/f0) of it is "lost
        // clock". The thermal governor's drop claims its share first;
        // license class, power stress and TDP clipping take the remainder.
        let f0 = s.unlicensed_ghz;
        let work_frac = if f0 > 0.0 {
            (s.freq_ghz / f0).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let thermal_frac = if f0 > 0.0 {
            (s.thermal_drop_ghz.max(0.0) / f0).clamp(0.0, 1.0 - work_frac)
        } else {
            0.0
        };
        let license_frac = (1.0 - work_frac - thermal_frac).max(0.0);

        let w = s.work.normalized();
        let mut time = CauseVec::zero();
        let working = busy * work_frac;
        time.add(Cause::Compute, working * w.compute);
        time.add(Cause::MemL1, working * w.l1);
        time.add(Cause::MemL2, working * w.l2);
        time.add(Cause::MemLlc, working * w.llc);
        time.add(Cause::MemDram, working * w.dram);
        time.add(Cause::BeContention, working * w.contention);
        time.add(Cause::ThermalThrottle, busy * thermal_frac);
        time.add(Cause::LicensePenalty, busy * license_frac);
        time.add(off_cause, off);
        time.reconcile(dt, off_cause);

        // Energy: static power burns through every attributed second
        // equally; dynamic power only through the busy ones.
        let static_j = s.static_j.max(0.0);
        let dynamic_j = s.dynamic_j.max(0.0);
        let mut energy = CauseVec::zero();
        if dt > 0.0 {
            for (cause, secs) in time.iter() {
                energy.add(cause, static_j * secs / dt);
            }
        } else {
            energy.add(off_cause, static_j);
        }
        if busy > 0.0 {
            for (cause, secs) in time.iter() {
                if !matches!(cause, Cause::Idle | Cause::SafeModeShed) {
                    energy.add(cause, dynamic_j * secs / busy);
                }
            }
        } else {
            energy.add(off_cause, dynamic_j);
        }
        energy.reconcile(static_j + dynamic_j, off_cause);

        RegionLedger {
            region: s.region,
            time,
            energy,
        }
    }

    /// Total attributed energy across regions, J.
    #[must_use]
    pub fn attributed_energy(&self) -> f64 {
        self.regions.iter().map(|r| r.energy.sum()).sum()
    }

    /// The row for `region`, if present.
    #[must_use]
    pub fn region(&self, region: Region) -> Option<&RegionLedger> {
        self.regions.iter().find(|r| r.region == region)
    }
}

/// Which conserved quantity a [`ConservationError`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantity {
    /// Wall-time conservation (per region).
    Time,
    /// Package-energy conservation (per interval).
    Energy,
}

/// A violated ledger invariant. Carrying the numbers makes the failure
/// actionable: the report shows exactly which interval leaked and by how
/// much.
#[derive(Debug, Clone, PartialEq)]
pub enum ConservationError {
    /// Attributed amounts do not sum to the conserved total.
    Leak {
        /// Which quantity leaked.
        quantity: Quantity,
        /// Interval start.
        at: SimTime,
        /// Region (None for the interval-wide energy check).
        region: Option<Region>,
        /// Sum of the attributed causes.
        attributed: f64,
        /// The conserved total it should match.
        expected: f64,
    },
    /// A cause came out materially negative.
    NegativeCause {
        /// Which quantity.
        quantity: Quantity,
        /// Interval start.
        at: SimTime,
        /// Region of the offending row.
        region: Region,
        /// The offending cause.
        cause: Cause,
        /// Its (negative) value.
        value: f64,
    },
}

impl core::fmt::Display for ConservationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let qname = |q: &Quantity| match q {
            Quantity::Time => "time",
            Quantity::Energy => "energy",
        };
        match self {
            ConservationError::Leak {
                quantity,
                at,
                region,
                attributed,
                expected,
            } => {
                let scope = region.map_or_else(|| "package".to_string(), |r| r.label().to_string());
                write!(
                    f,
                    "{} ledger leak at t={:.3}s ({scope}): attributed {attributed:.9} vs \
                     expected {expected:.9} (relative error {:.3e} > {EPSILON:.0e})",
                    qname(quantity),
                    at.as_secs_f64(),
                    (attributed - expected).abs() / expected.abs().max(1e-12),
                )
            }
            ConservationError::NegativeCause {
                quantity,
                at,
                region,
                cause,
                value,
            } => write!(
                f,
                "negative {} attribution at t={:.3}s: {}/{} = {value:.9}",
                qname(quantity),
                at.as_secs_f64(),
                region.label(),
                cause.label(),
            ),
        }
    }
}

impl std::error::Error for ConservationError {}

/// The attribution ledger of a whole run: one [`IntervalLedger`] per
/// control interval, in time order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Ledger {
    /// Per-interval attributions.
    pub intervals: Vec<IntervalLedger>,
}

impl Ledger {
    /// An empty ledger (also what deserializing pre-ledger outcomes
    /// yields via `#[serde(default)]`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the ledger holds no intervals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Checks both conservation invariants and cause non-negativity at
    /// relative epsilon `eps` (use [`EPSILON`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConservationError`] found, in time order.
    pub fn verify(&self, eps: f64) -> Result<(), ConservationError> {
        for iv in &self.intervals {
            let t_scale = iv.dt_secs.abs().max(1e-12);
            for row in &iv.regions {
                for (quantity, vec, scale) in [
                    (Quantity::Time, &row.time, t_scale),
                    (Quantity::Energy, &row.energy, iv.energy_j.abs().max(1e-12)),
                ] {
                    for (cause, v) in vec.iter() {
                        if v < -eps * scale {
                            return Err(ConservationError::NegativeCause {
                                quantity,
                                at: iv.at,
                                region: row.region,
                                cause,
                                value: v,
                            });
                        }
                    }
                }
                let t_sum = row.time.sum();
                if (t_sum - iv.dt_secs).abs() > eps * t_scale {
                    return Err(ConservationError::Leak {
                        quantity: Quantity::Time,
                        at: iv.at,
                        region: Some(row.region),
                        attributed: t_sum,
                        expected: iv.dt_secs,
                    });
                }
            }
            let e_sum = iv.attributed_energy();
            let e_scale = iv.energy_j.abs().max(1e-12);
            if (e_sum - iv.energy_j).abs() > eps * e_scale {
                return Err(ConservationError::Leak {
                    quantity: Quantity::Energy,
                    at: iv.at,
                    region: None,
                    attributed: e_sum,
                    expected: iv.energy_j,
                });
            }
        }
        Ok(())
    }

    /// Total wall time covered, seconds (per region; regions overlap in
    /// time, so this is *not* multiplied by the region count).
    #[must_use]
    pub fn wall_secs(&self) -> f64 {
        self.intervals.iter().map(|iv| iv.dt_secs).sum()
    }

    /// Total modeled package energy, J.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.intervals.iter().map(|iv| iv.energy_j).sum()
    }

    /// Summed time attribution of one region across the run.
    #[must_use]
    pub fn region_time(&self, region: Region) -> CauseVec {
        let mut total = CauseVec::zero();
        for iv in &self.intervals {
            if let Some(row) = iv.region(region) {
                total.accumulate(&row.time);
            }
        }
        total
    }

    /// Summed energy attribution of one region across the run.
    #[must_use]
    pub fn region_energy(&self, region: Region) -> CauseVec {
        let mut total = CauseVec::zero();
        for iv in &self.intervals {
            if let Some(row) = iv.region(region) {
                total.accumulate(&row.energy);
            }
        }
        total
    }

    /// Summed energy attribution across all regions.
    #[must_use]
    pub fn total_energy(&self) -> CauseVec {
        let mut total = CauseVec::zero();
        for iv in &self.intervals {
            for row in &iv.regions {
                total.accumulate(&row.energy);
            }
        }
        total
    }

    /// The interval whose `[at, at + dt)` window covers `t`, if any.
    #[must_use]
    pub fn interval_covering(&self, t: SimTime) -> Option<&IntervalLedger> {
        // Intervals are in time order; find the last one starting at or
        // before `t` and check its window.
        let idx = self.intervals.partition_point(|iv| iv.at <= t);
        let iv = self.intervals.get(idx.checked_sub(1)?)?;
        let end = iv.at.as_secs_f64() + iv.dt_secs;
        (t.as_secs_f64() < end).then_some(iv)
    }

    /// The dominant loss cause for `region` at time `t`: which cause was
    /// eating the region's capacity when (say) an SLO breach happened.
    #[must_use]
    pub fn blame(&self, t: SimTime, region: Region) -> Option<(Cause, f64)> {
        let iv = self.interval_covering(t)?;
        let row = iv.region(region)?;
        let (cause, secs) = row.time.dominant_loss(iv.dt_secs)?;
        Some((cause, secs / iv.dt_secs.max(1e-12)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_sample(region: Region) -> RegionSample {
        RegionSample {
            region,
            busy_frac: 0.8,
            freq_ghz: 2.5,
            unlicensed_ghz: 3.2,
            thermal_drop_ghz: 0.2,
            work: WorkFractions {
                compute: 0.4,
                l1: 0.1,
                l2: 0.1,
                llc: 0.1,
                dram: 0.25,
                contention: 0.05,
            },
            static_j: 10.0,
            dynamic_j: 50.0,
            shed: false,
        }
    }

    #[test]
    fn cause_index_is_its_position_in_all() {
        for (i, cause) in Cause::ALL.into_iter().enumerate() {
            assert_eq!(cause.index(), i, "{cause}");
        }
    }

    #[test]
    fn interval_conserves_time_and_energy() {
        let samples = [
            busy_sample(Region::AuHigh),
            busy_sample(Region::AuLow),
            RegionSample::idle(Region::Shared, 4.0),
            RegionSample {
                region: Region::Uncore,
                busy_frac: 0.7,
                freq_ghz: 1.0,
                unlicensed_ghz: 1.0,
                thermal_drop_ghz: 0.0,
                work: WorkFractions::all_dram(),
                static_j: 14.0,
                dynamic_j: 4.9,
                shed: false,
            },
        ];
        let energy: f64 = samples.iter().map(|s| s.static_j + s.dynamic_j).sum();
        let iv = IntervalLedger::build(SimTime::from_secs(3), 0.5, energy, &samples);
        let ledger = Ledger {
            intervals: vec![iv],
        };
        ledger.verify(EPSILON).expect("conserves by construction");
        let iv = &ledger.intervals[0];
        for row in &iv.regions {
            assert!((row.time.sum() - 0.5).abs() < 1e-12, "{:?}", row.region);
        }
        assert!((iv.attributed_energy() - energy).abs() < 1e-9);
    }

    #[test]
    fn frequency_gap_splits_into_thermal_then_license() {
        let mut s = busy_sample(Region::AuLow);
        s.busy_frac = 1.0;
        let iv = IntervalLedger::build(SimTime::ZERO, 1.0, 60.0, &[s]);
        let row = &iv.regions[0];
        // work 2.5/3.2, thermal 0.2/3.2, license the rest.
        assert!((row.time.get(Cause::ThermalThrottle) - 0.2 / 3.2).abs() < 1e-12);
        let license = 1.0 - 2.5 / 3.2 - 0.2 / 3.2;
        assert!((row.time.get(Cause::LicensePenalty) - license).abs() < 1e-12);
        assert!(row.time.get(Cause::Idle) == 0.0);
    }

    #[test]
    fn thermal_drop_never_steals_more_than_the_gap() {
        let mut s = busy_sample(Region::AuHigh);
        s.freq_ghz = 3.0;
        s.thermal_drop_ghz = 5.0; // larger than the whole gap
        let iv = IntervalLedger::build(SimTime::ZERO, 1.0, 60.0, &[s]);
        let row = &iv.regions[0];
        assert!(row.time.get(Cause::LicensePenalty).abs() < 1e-12);
        let gap = 1.0 - 3.0 / 3.2;
        assert!((row.time.get(Cause::ThermalThrottle) - s.busy_frac * gap).abs() < 1e-12);
        Ledger {
            intervals: vec![iv],
        }
        .verify(EPSILON)
        .expect("still conserves");
    }

    #[test]
    fn shed_idle_goes_to_safe_mode() {
        let mut s = RegionSample::idle(Region::Shared, 8.0);
        s.shed = true;
        let iv = IntervalLedger::build(SimTime::ZERO, 0.5, 8.0, &[s]);
        let row = &iv.regions[0];
        assert!((row.time.get(Cause::SafeModeShed) - 0.5).abs() < 1e-12);
        assert_eq!(row.time.get(Cause::Idle), 0.0);
        assert!((row.energy.get(Cause::SafeModeShed) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn verify_flags_a_leak() {
        let s = busy_sample(Region::AuHigh);
        let mut iv = IntervalLedger::build(SimTime::ZERO, 0.5, 60.0, &[s]);
        iv.energy_j = 61.0; // model says 61 J, rows attribute 60 J
        let err = Ledger {
            intervals: vec![iv],
        }
        .verify(EPSILON)
        .expect_err("must flag the leak");
        assert!(matches!(
            err,
            ConservationError::Leak {
                quantity: Quantity::Energy,
                ..
            }
        ));
        assert!(err.to_string().contains("energy ledger leak"));
    }

    #[test]
    fn verify_flags_negative_causes() {
        let s = busy_sample(Region::AuHigh);
        let mut iv = IntervalLedger::build(SimTime::ZERO, 0.5, 60.0, &[s]);
        iv.regions[0].time.add(Cause::MemDram, -0.2);
        iv.regions[0].time.add(Cause::Compute, 0.2); // keep the sum intact
        let err = Ledger {
            intervals: vec![iv],
        }
        .verify(EPSILON)
        .expect_err("must flag the negative cause");
        assert!(matches!(err, ConservationError::NegativeCause { .. }));
    }

    #[test]
    fn blame_names_the_dominant_loss() {
        let mut s = busy_sample(Region::AuLow);
        s.work = WorkFractions {
            compute: 0.2,
            dram: 0.7,
            contention: 0.1,
            ..Default::default()
        };
        let iv = IntervalLedger::build(SimTime::from_secs(10), 0.5, 60.0, &[s]);
        let ledger = Ledger {
            intervals: vec![iv],
        };
        let (cause, share) = ledger
            .blame(SimTime::from_secs(10), Region::AuLow)
            .expect("blame exists");
        assert_eq!(cause, Cause::MemDram);
        assert!(share > 0.3, "share {share}");
        assert!(ledger
            .blame(SimTime::from_secs(10), Region::Uncore)
            .is_none());
    }

    #[test]
    fn interval_covering_uses_half_open_windows() {
        let s = RegionSample::idle(Region::Shared, 1.0);
        let mk = |secs: u64| IntervalLedger::build(SimTime::from_secs(secs), 0.5, 1.0, &[s]);
        let ledger = Ledger {
            intervals: vec![mk(0), mk(1)],
        };
        assert_eq!(
            ledger
                .interval_covering(SimTime::from_secs(1))
                .expect("covered")
                .at,
            SimTime::from_secs(1)
        );
        assert!(ledger
            .interval_covering(SimTime::from_secs_f64(0.75))
            .is_none());
        assert!(ledger.interval_covering(SimTime::from_secs(5)).is_none());
    }

    #[test]
    fn ledger_serde_round_trips() {
        let samples = [busy_sample(Region::AuHigh), busy_sample(Region::AuLow)];
        let iv = IntervalLedger::build(SimTime::from_secs(1), 0.5, 120.0, &samples);
        let ledger = Ledger {
            intervals: vec![iv],
        };
        let json = serde_json::to_string(&ledger).expect("serialize");
        let back: Ledger = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, ledger);
        let empty: Ledger = serde_json::from_str("{\"intervals\":[]}").expect("parse");
        assert!(empty.is_empty());
    }

    #[test]
    fn totals_aggregate_across_intervals() {
        let s = busy_sample(Region::AuHigh);
        let mk = |secs: u64| IntervalLedger::build(SimTime::from_secs(secs), 0.5, 60.0, &[s]);
        let ledger = Ledger {
            intervals: vec![mk(0), mk(1)],
        };
        assert!((ledger.wall_secs() - 1.0).abs() < 1e-12);
        assert!((ledger.energy_j() - 120.0).abs() < 1e-12);
        assert!((ledger.region_time(Region::AuHigh).sum() - 1.0).abs() < 1e-12);
        assert_eq!(ledger.region_time(Region::Uncore).sum(), 0.0);
        assert!((ledger.total_energy().sum() - 120.0).abs() < 1e-9);
    }
}
