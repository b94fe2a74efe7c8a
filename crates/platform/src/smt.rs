//! SMT (hyperthread) contention model.
//!
//! The SMT-AU baseline shares each physical core between the AU application
//! and a best-effort sibling thread. The paper finds (Fig 9) that the
//! resulting interference is *workload-shaped*: a memory-intensive sibling
//! (OLAP) degrades AU latency by >200% through cache pollution and
//! bandwidth pressure, while a scalar-compute sibling interferes <10%
//! directly (AMX occupies dedicated tile ports) and hurts mainly through
//! the frequency reduction its power draw triggers.
//!
//! This module models only the *core-local* SMT effects; global bandwidth
//! contention is arbitrated by [`crate::membw`] and frequency coupling by
//! [`crate::freq`].

use serde::{Deserialize, Serialize};

use crate::topology::AuUsageLevel;

/// Core-local contention fingerprint of a sibling workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmtCorunnerProfile {
    /// Demand on the execution ports the AU pipeline also needs, `[0, 1]`.
    pub port_pressure: f64,
    /// L1/L2 pollution inflicted on the sibling, `[0, 1]`.
    pub cache_pollution: f64,
    /// Front-end (i-cache, decode) pressure, `[0, 1]`.
    pub frontend_pressure: f64,
    /// How strongly this workload itself suffers from a busy sibling, `[0, 1]`.
    pub be_sensitivity: f64,
}

impl SmtCorunnerProfile {
    /// Creates a profile; all fields are clamped to `[0, 1]`.
    #[must_use]
    pub fn new(
        port_pressure: f64,
        cache_pollution: f64,
        frontend_pressure: f64,
        be_sensitivity: f64,
    ) -> Self {
        SmtCorunnerProfile {
            port_pressure: port_pressure.clamp(0.0, 1.0),
            cache_pollution: cache_pollution.clamp(0.0, 1.0),
            frontend_pressure: frontend_pressure.clamp(0.0, 1.0),
            be_sensitivity: be_sensitivity.clamp(0.0, 1.0),
        }
    }
}

/// Mutual slowdown of the two hyperthreads of a shared core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmtImpact {
    /// Multiplier ≥ 1 on the AU side's *compute* phases (port contention,
    /// front-end pressure).
    pub au_compute_slowdown: f64,
    /// Multiplier ≥ 1 on the AU side's *memory* phases (L1/L2 pollution).
    pub au_memory_slowdown: f64,
    /// Multiplier ≥ 1 on BE-side latency (i.e. BE throughput divides by it).
    pub be_slowdown: f64,
}

/// Weight of port contention in AU slowdown.
const W_PORT: f64 = 0.35;
/// Weight of cache pollution in AU slowdown.
const W_CACHE: f64 = 1.1;
/// Weight of front-end pressure in AU slowdown.
const W_FRONTEND: f64 = 0.25;

/// Sensitivity of an AU usage level to sibling cache pollution. The decode
/// phase streams weights through the cache hierarchy and suffers most; the
/// prefill phase is compute-dense and a bit more tolerant.
fn cache_weight(level: AuUsageLevel) -> f64 {
    match level {
        AuUsageLevel::High => 0.75,
        AuUsageLevel::Low => 1.0,
        AuUsageLevel::None => 0.0,
    }
}

/// Port overlap of an AU usage level with a generic sibling: AMX tile math
/// uses dedicated TMUL ports, so port fights are milder for High usage.
fn port_weight(level: AuUsageLevel) -> f64 {
    match level {
        AuUsageLevel::High => 0.45,
        AuUsageLevel::Low => 1.0,
        AuUsageLevel::None => 0.0,
    }
}

/// How busy an AU thread keeps the shared core's common resources, i.e. how
/// much the BE sibling suffers.
fn au_occupancy(level: AuUsageLevel) -> f64 {
    match level {
        AuUsageLevel::High => 1.0,
        AuUsageLevel::Low => 0.85,
        AuUsageLevel::None => 0.0,
    }
}

/// Computes the mutual SMT slowdowns when a fraction `sharing_frac` of the
/// AU application's cores host a busy sibling of the given profile.
///
/// # Examples
///
/// ```
/// use aum_platform::smt::{smt_impact, SmtCorunnerProfile};
/// use aum_platform::topology::AuUsageLevel;
///
/// // A polluting, memory-hungry sibling on every core:
/// let olap = SmtCorunnerProfile::new(0.3, 0.95, 0.3, 0.9);
/// let i = smt_impact(olap, AuUsageLevel::Low, 1.0);
/// assert!(i.au_memory_slowdown > 1.5);
/// assert!(i.be_slowdown > 1.0);
/// ```
#[must_use]
pub fn smt_impact(
    profile: SmtCorunnerProfile,
    au_level: AuUsageLevel,
    sharing_frac: f64,
) -> SmtImpact {
    let share = sharing_frac.clamp(0.0, 1.0);
    if au_level == AuUsageLevel::None || share == 0.0 {
        return SmtImpact {
            au_compute_slowdown: 1.0,
            au_memory_slowdown: 1.0,
            be_slowdown: 1.0,
        };
    }
    let compute_pen = W_PORT * profile.port_pressure * port_weight(au_level)
        + W_FRONTEND * profile.frontend_pressure;
    let memory_pen = W_CACHE * profile.cache_pollution * cache_weight(au_level);
    let be_pen = 0.5 * profile.be_sensitivity * au_occupancy(au_level);
    SmtImpact {
        au_compute_slowdown: 1.0 + share * compute_pen,
        au_memory_slowdown: 1.0 + share * memory_pen,
        be_slowdown: 1.0 + be_pen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn olap() -> SmtCorunnerProfile {
        SmtCorunnerProfile::new(0.3, 0.95, 0.3, 0.9)
    }

    fn compute() -> SmtCorunnerProfile {
        SmtCorunnerProfile::new(0.8, 0.1, 0.1, 0.3)
    }

    #[test]
    fn no_sharing_no_impact() {
        let i = smt_impact(olap(), AuUsageLevel::Low, 0.0);
        assert_eq!(i.au_compute_slowdown, 1.0);
        assert_eq!(i.au_memory_slowdown, 1.0);
        assert_eq!(i.be_slowdown, 1.0);
    }

    #[test]
    fn none_level_is_untouched() {
        let i = smt_impact(olap(), AuUsageLevel::None, 1.0);
        assert_eq!(i.au_compute_slowdown, 1.0);
        assert_eq!(i.au_memory_slowdown, 1.0);
    }

    #[test]
    fn impact_scales_with_sharing_pressure() {
        let mut last = (1.0, 1.0);
        for frac in [0.25, 0.5, 0.75, 1.0] {
            let i = smt_impact(olap(), AuUsageLevel::Low, frac);
            assert!(i.au_compute_slowdown > last.0 && i.au_memory_slowdown > last.1);
            last = (i.au_compute_slowdown, i.au_memory_slowdown);
        }
    }

    #[test]
    fn memory_sibling_pollutes_memory_leg_compute_sibling_fights_ports() {
        // Fig 9b: direct interference from Compute is small (decode is
        // memory-bound and Compute barely touches the memory path), while
        // OLAP's pollution lands exactly on decode's critical leg.
        let o = smt_impact(olap(), AuUsageLevel::Low, 1.0);
        let c = smt_impact(compute(), AuUsageLevel::Low, 1.0);
        assert!(
            o.au_memory_slowdown > 1.8,
            "OLAP memory slowdown {}",
            o.au_memory_slowdown
        );
        assert!(
            c.au_memory_slowdown < 1.2,
            "Compute memory slowdown {}",
            c.au_memory_slowdown
        );
        assert!(c.au_compute_slowdown > o.au_compute_slowdown);
    }

    #[test]
    fn prefill_tolerates_pollution_better_than_decode() {
        let prefill = smt_impact(olap(), AuUsageLevel::High, 1.0);
        let decode = smt_impact(olap(), AuUsageLevel::Low, 1.0);
        assert!(prefill.au_memory_slowdown < decode.au_memory_slowdown);
    }

    #[test]
    fn be_side_suffers_from_busy_au_sibling() {
        let i = smt_impact(olap(), AuUsageLevel::High, 1.0);
        assert!(
            i.be_slowdown > 1.3,
            "OLAP side degraded >40% in Fig 9a, got {}",
            i.be_slowdown
        );
    }

    #[test]
    fn profile_clamps_inputs() {
        let p = SmtCorunnerProfile::new(5.0, -1.0, 0.5, 2.0);
        assert_eq!(p.port_pressure, 1.0);
        assert_eq!(p.cache_pollution, 0.0);
        assert_eq!(p.be_sensitivity, 1.0);
    }

    #[test]
    fn sharing_frac_clamps() {
        let a = smt_impact(olap(), AuUsageLevel::Low, 5.0);
        let b = smt_impact(olap(), AuUsageLevel::Low, 1.0);
        assert_eq!(a.au_memory_slowdown, b.au_memory_slowdown);
    }
}
