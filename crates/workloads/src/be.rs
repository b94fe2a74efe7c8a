//! Best-effort co-runner workload models.
//!
//! The paper shares AU-enabled CPUs with three representative best-effort
//! applications (§V-A):
//!
//! - **Compute** — sysbench prime division: compute-intensive, frequency-
//!   proportional, cache/bandwidth-insensitive, power-hungry;
//! - **OLAP** — TPC-H joint queries: memory-intensive, bandwidth-dominated,
//!   strong LLC affinity;
//! - **SPECjbb** — Java server transactions: complex mixed behaviour with
//!   rapidly fluctuating resource use (§VII-D).
//!
//! Each profile carries the interference fingerprints the platform model
//! consumes (activity class for power, miss-rate curves for CAT, bandwidth
//! demand for MBA, SMT pollution) plus an analytic throughput model. Unit
//! prices (`γ`) follow §VII-A1: 1e-3 / 1e-6 / 3e-5 per query for
//! Compute / OLAP / SPECjbb.

use serde::{Deserialize, Serialize};

use aum_platform::cache::{CacheProfile, MissRateCurve};
use aum_platform::power::ActivityClass;
use aum_platform::smt::SmtCorunnerProfile;
use aum_platform::spec::PlatformSpec;
use aum_platform::units::GbPerSec;

/// The co-runner selection of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BeKind {
    /// sysbench prime-division loops.
    Compute,
    /// TPC-H analytical queries.
    Olap,
    /// SPECjbb 2015 transactions.
    SpecJbb,
}

impl BeKind {
    /// All co-runners in the paper's order.
    pub const ALL: [BeKind; 3] = [BeKind::Compute, BeKind::Olap, BeKind::SpecJbb];
}

impl core::fmt::Display for BeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BeKind::Compute => write!(f, "Compute"),
            BeKind::Olap => write!(f, "OLAP"),
            BeKind::SpecJbb => write!(f, "SPECjbb"),
        }
    }
}

/// Full workload description of a best-effort application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeProfile {
    /// Which application this is.
    pub kind: BeKind,
    /// Power-model instruction-mix class.
    pub activity: ActivityClass,
    /// Cache sensitivity (CAT response).
    pub cache: CacheProfile,
    /// SMT sibling fingerprint.
    pub smt: SmtCorunnerProfile,
    /// DRAM bandwidth demand per active core at full speed.
    pub bw_demand_per_core: GbPerSec,
    /// Throughput units per core-second at the reference frequency.
    pub base_rate_per_core: f64,
    /// Exponent of frequency in the throughput model (1 = compute bound).
    pub freq_sensitivity: f64,
    /// Weight of the memory phase in end-to-end time, `[0, 1]`.
    pub memory_weight: f64,
    /// Price `γ` of one throughput unit for the efficiency objective.
    pub unit_price: f64,
}

/// Reference frequency the base rates are quoted at (GenA all-core turbo).
pub const REF_FREQ_GHZ: f64 = 3.2;

impl BeProfile {
    /// The calibrated profile of a co-runner.
    #[must_use]
    pub fn of(kind: BeKind) -> Self {
        match kind {
            BeKind::Compute => BeProfile {
                kind,
                activity: ActivityClass::ScalarCompute,
                cache: CacheProfile::new(
                    MissRateCurve::streaming(0.02),
                    MissRateCurve::new(0.01, 0.10, 0.5),
                    0.05,
                ),
                smt: SmtCorunnerProfile::new(0.8, 0.10, 0.10, 0.30),
                bw_demand_per_core: GbPerSec(0.4),
                base_rate_per_core: 1200.0, // sysbench events/s/core
                freq_sensitivity: 1.0,
                memory_weight: 0.05,
                unit_price: 1e-3,
            },
            BeKind::Olap => BeProfile {
                kind,
                activity: ActivityClass::MemoryBound,
                cache: CacheProfile::new(
                    MissRateCurve::new(0.30, 0.85, 45.0),
                    MissRateCurve::new(0.25, 0.60, 1.0),
                    0.55,
                ),
                smt: SmtCorunnerProfile::new(0.30, 0.95, 0.30, 0.90),
                bw_demand_per_core: GbPerSec(2.6),
                base_rate_per_core: 8.0e5, // scanned rows/s/core
                freq_sensitivity: 0.25,
                memory_weight: 0.80,
                unit_price: 1e-6,
            },
            BeKind::SpecJbb => BeProfile {
                kind,
                activity: ActivityClass::Mixed,
                cache: CacheProfile::new(
                    MissRateCurve::new(0.15, 0.80, 60.0),
                    MissRateCurve::new(0.10, 0.55, 1.2),
                    0.60,
                ),
                smt: SmtCorunnerProfile::new(0.50, 0.12, 0.50, 0.60),
                bw_demand_per_core: GbPerSec(1.1),
                base_rate_per_core: 3.3e4, // jOPS/core
                freq_sensitivity: 0.70,
                memory_weight: 0.40,
                unit_price: 3e-5,
            },
        }
    }

    /// Instantaneous throughput under the given allocation.
    ///
    /// - `cores`: cores running the application;
    /// - `freq_ghz`: their frequency;
    /// - `llc_ways`/`l2_ways`: CAT allocation;
    /// - `bw_slowdown`: memory-phase inflation from the bandwidth pool (≥1);
    /// - `smt_slowdown`: BE-side SMT penalty (≥1, 1 when not hyperthreaded).
    #[must_use]
    #[allow(clippy::too_many_arguments)] // mirrors the knobs RDT exposes
    pub fn throughput(
        &self,
        spec: &PlatformSpec,
        cores: usize,
        freq_ghz: f64,
        llc_ways: u32,
        l2_ways: u32,
        bw_slowdown: f64,
        smt_slowdown: f64,
    ) -> f64 {
        if cores == 0 || freq_ghz <= 0.0 {
            return 0.0;
        }
        let freq_factor = (freq_ghz / REF_FREQ_GHZ).powf(self.freq_sensitivity);
        let cache_factor = self.cache.performance_factor(spec, llc_ways, l2_ways);
        let bw_factor =
            1.0 / ((1.0 - self.memory_weight) + self.memory_weight * bw_slowdown.max(1.0));
        self.base_rate_per_core * cores as f64 * freq_factor * cache_factor * bw_factor
            / smt_slowdown.max(1.0)
    }

    /// Raw DRAM bandwidth demand at the given core count, amplified by a
    /// shrunken LLC partition.
    #[must_use]
    pub fn bw_demand(&self, spec: &PlatformSpec, cores: usize, llc_ways: u32) -> GbPerSec {
        let amp = self.cache.bandwidth_amplification(spec, llc_ways);
        GbPerSec(self.bw_demand_per_core.value() * cores as f64 * amp)
    }

    /// Deterministic demand multiplier at time `t` under a load surge of
    /// factor `surge` (`1.0` = nominal; the `BeSurge` fault raises it).
    /// SPECjbb's transaction mix fluctuates rapidly (§VII-D); the other two
    /// are steady. The surge scales the whole demand — duty cycle and
    /// bandwidth appetite — while the app's intrinsic fluctuation rides on
    /// top, so a surged SPECjbb still swings. Results stay positive and are
    /// clamped to a physical ceiling (a core cannot exceed 100% duty by more
    /// than the queue-burst factor the profiles are calibrated for).
    #[must_use]
    pub fn demand_multiplier(&self, t_secs: f64, surge: f64) -> f64 {
        let base = match self.kind {
            BeKind::SpecJbb => 1.0 + 0.35 * (t_secs * 0.7).sin() + 0.15 * (t_secs * 2.9).cos(),
            _ => 1.0,
        };
        (base * surge.max(0.0)).clamp(0.0, 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PlatformSpec {
        PlatformSpec::gen_a()
    }

    #[test]
    fn compute_scales_linearly_with_frequency() {
        let p = BeProfile::of(BeKind::Compute);
        let s = spec();
        let slow = p.throughput(&s, 16, 1.6, 16, 16, 1.0, 1.0);
        let fast = p.throughput(&s, 16, 3.2, 16, 16, 1.0, 1.0);
        assert!((fast / slow - 2.0).abs() < 1e-9);
    }

    #[test]
    fn olap_is_frequency_insensitive() {
        let p = BeProfile::of(BeKind::Olap);
        let s = spec();
        let slow = p.throughput(&s, 16, 1.6, 16, 16, 1.0, 1.0);
        let fast = p.throughput(&s, 16, 3.2, 16, 16, 1.0, 1.0);
        assert!(
            fast / slow < 1.25,
            "memory-bound app barely cares about frequency"
        );
    }

    #[test]
    fn olap_suffers_from_bandwidth_starvation() {
        let p = BeProfile::of(BeKind::Olap);
        let s = spec();
        let free = p.throughput(&s, 16, 3.2, 16, 16, 1.0, 1.0);
        let starved = p.throughput(&s, 16, 3.2, 16, 16, 3.0, 1.0);
        assert!(starved < 0.45 * free);
        let c = BeProfile::of(BeKind::Compute);
        let c_free = c.throughput(&s, 16, 3.2, 16, 16, 1.0, 1.0);
        let c_starved = c.throughput(&s, 16, 3.2, 16, 16, 3.0, 1.0);
        assert!(c_starved > 0.85 * c_free, "compute ignores bandwidth");
    }

    #[test]
    fn cache_ways_matter_for_jbb_not_compute() {
        let s = spec();
        let jbb = BeProfile::of(BeKind::SpecJbb);
        let jbb_ratio = jbb.throughput(&s, 16, 3.2, 2, 16, 1.0, 1.0)
            / jbb.throughput(&s, 16, 3.2, 16, 16, 1.0, 1.0);
        assert!(
            jbb_ratio < 0.85,
            "SPECjbb loses with 2 ways, got {jbb_ratio}"
        );
        let comp = BeProfile::of(BeKind::Compute);
        let comp_ratio = comp.throughput(&s, 16, 3.2, 2, 16, 1.0, 1.0)
            / comp.throughput(&s, 16, 3.2, 16, 16, 1.0, 1.0);
        assert!(comp_ratio > 0.97, "Compute ignores LLC, got {comp_ratio}");
    }

    #[test]
    fn throughput_scales_with_cores() {
        let p = BeProfile::of(BeKind::SpecJbb);
        let s = spec();
        let one = p.throughput(&s, 8, 3.2, 8, 8, 1.0, 1.0);
        let two = p.throughput(&s, 16, 3.2, 8, 8, 1.0, 1.0);
        assert!((two / one - 2.0).abs() < 1e-9);
        assert_eq!(p.throughput(&s, 0, 3.2, 8, 8, 1.0, 1.0), 0.0);
    }

    #[test]
    fn bw_demand_amplifies_with_small_partition() {
        let p = BeProfile::of(BeKind::Olap);
        let s = spec();
        let full = p.bw_demand(&s, 24, 16);
        let tiny = p.bw_demand(&s, 24, 2);
        assert!(tiny.value() > full.value() * 1.2);
        // 24 OLAP cores demand a large share of GenA's 233.8 GB/s pool.
        assert!(full.value() > 50.0);
    }

    #[test]
    fn price_weighted_rates_are_comparable() {
        // §VII-A1: prices are set from CPU time per query, so price×rate
        // per core should be the same order of magnitude across apps.
        for kind in BeKind::ALL {
            let p = BeProfile::of(kind);
            let v = p.base_rate_per_core * p.unit_price;
            assert!((0.5..=1.5).contains(&v), "{kind}: price×rate {v}");
        }
    }

    #[test]
    fn only_jbb_fluctuates() {
        let jbb = BeProfile::of(BeKind::SpecJbb);
        let olap = BeProfile::of(BeKind::Olap);
        let mut spread = (f64::INFINITY, f64::NEG_INFINITY);
        for t in 0..100 {
            let v = jbb.demand_multiplier(t as f64 * 0.37, 1.0);
            spread = (spread.0.min(v), spread.1.max(v));
            assert_eq!(olap.demand_multiplier(t as f64, 1.0), 1.0);
        }
        assert!(
            spread.1 - spread.0 > 0.4,
            "jbb should swing, got {spread:?}"
        );
        assert!(spread.0 > 0.3, "fluctuation stays positive");
    }

    #[test]
    fn surge_scales_demand_and_is_clamped() {
        let jbb = BeProfile::of(BeKind::SpecJbb);
        let olap = BeProfile::of(BeKind::Olap);
        assert_eq!(olap.demand_multiplier(3.0, 1.0), 1.0);
        assert_eq!(olap.demand_multiplier(3.0, 2.5), 2.5);
        assert_eq!(olap.demand_multiplier(3.0, 100.0), 4.0, "ceiling");
        assert_eq!(olap.demand_multiplier(3.0, -1.0), 0.0, "no negatives");
        let t = 1.7;
        let nominal = jbb.demand_multiplier(t, 1.0);
        let surged = jbb.demand_multiplier(t, 1.8);
        assert!((surged - (nominal * 1.8).clamp(0.0, 4.0)).abs() < 1e-12);
    }

    #[test]
    fn smt_fingerprints_match_fig9_ordering() {
        let olap = BeProfile::of(BeKind::Olap).smt;
        let compute = BeProfile::of(BeKind::Compute).smt;
        assert!(olap.cache_pollution > compute.cache_pollution);
        assert!(compute.port_pressure > olap.port_pressure);
    }
}
