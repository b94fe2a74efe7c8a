//! Property-based tests of the platform substrate.

use proptest::prelude::*;

use aum_platform::cache::MissRateCurve;
use aum_platform::freq::{FreqConditions, FrequencyGovernor};
use aum_platform::membw::{BandwidthPool, BwDemand};
use aum_platform::power::{ActivityClass, PowerModel};
use aum_platform::spec::PlatformSpec;
use aum_platform::state::{PlatformSim, RegionLoad};
use aum_platform::topology::{AuUsageLevel, ProcessorDivision};
use aum_platform::units::{GbPerSec, Ghz};
use aum_sim::time::SimDuration;

fn any_spec() -> impl Strategy<Value = PlatformSpec> {
    prop_oneof![
        Just(PlatformSpec::gen_a()),
        Just(PlatformSpec::gen_b()),
        Just(PlatformSpec::gen_c()),
    ]
}

proptest! {
    #[test]
    fn bandwidth_grants_conserve_and_respect_caps(
        demands in prop::collection::vec((0.0f64..500.0, 0.05f64..1.0), 1..8),
    ) {
        let pool = BandwidthPool::new(GbPerSec(233.8));
        let reqs: Vec<BwDemand> =
            demands.iter().map(|&(d, c)| BwDemand::new(GbPerSec(d), c)).collect();
        let result = pool.arbitrate(&reqs);
        let budget = pool.sustainable().value();
        let total: f64 = result.grants.iter().map(|g| g.granted.value()).sum();
        prop_assert!(total <= budget * (1.0 + 1e-9), "grants must fit the pool");
        for (g, r) in result.grants.iter().zip(&reqs) {
            prop_assert!(g.granted.value() <= r.demand.value() + 1e-9, "no over-grant");
            prop_assert!(g.granted.value() <= r.cap_frac * budget + 1e-9, "MBA cap holds");
            prop_assert!(g.slowdown >= 1.0 - 1e-12);
        }
        prop_assert!((0.0..=1.0).contains(&result.utilization));
        prop_assert!(result.queuing_factor >= 1.0);
    }

    #[test]
    fn frequency_is_monotone_in_stress(
        spec in any_spec(),
        s1 in 0.0f64..1.0,
        s2 in 0.0f64..1.0,
        frac in 0.0f64..1.0,
    ) {
        let gov = FrequencyGovernor::for_spec(&spec);
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        for level in [AuUsageLevel::Low, AuUsageLevel::High] {
            let f_lo = gov.region_frequency(level, FreqConditions {
                au_core_frac: frac, power_stress: lo, thermal_drop: Ghz(0.0) });
            let f_hi = gov.region_frequency(level, FreqConditions {
                au_core_frac: frac, power_stress: hi, thermal_drop: Ghz(0.0) });
            prop_assert!(f_hi <= f_lo, "more stress can only lower frequency");
            prop_assert!(f_hi.value() >= gov.stress_floor(level).value() - 1e-9);
            prop_assert!(f_lo.value() <= gov.license_frequency(level).value() + 1e-9);
        }
    }

    #[test]
    fn license_ordering_always_holds(spec in any_spec(), stress in 0.0f64..1.0, frac in 0.0f64..1.0) {
        let gov = FrequencyGovernor::for_spec(&spec);
        let cond = FreqConditions { au_core_frac: frac, power_stress: stress, thermal_drop: Ghz(0.0) };
        let high = gov.region_frequency(AuUsageLevel::High, cond);
        let low = gov.region_frequency(AuUsageLevel::Low, cond);
        let none = gov.region_frequency(AuUsageLevel::None, cond);
        prop_assert!(high <= low);
        prop_assert!(low <= none);
    }

    #[test]
    fn miss_rate_curves_are_monotone(
        floor in 0.0f64..0.5,
        spread in 0.0f64..0.5,
        knee in 0.1f64..500.0,
        c1 in 0.0f64..1000.0,
        c2 in 0.0f64..1000.0,
    ) {
        let curve = MissRateCurve::new(floor, floor + spread, knee);
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(curve.miss_ratio(hi) <= curve.miss_ratio(lo) + 1e-12);
        prop_assert!(curve.miss_ratio(hi) >= floor - 1e-12);
        prop_assert!(curve.miss_ratio(lo) <= floor + spread + 1e-12);
        prop_assert!(curve.traffic_amplification(lo, hi) >= 1.0 - 1e-12);
    }

    #[test]
    fn power_is_monotone_in_frequency_and_duty(
        spec in any_spec(),
        f1 in 0.5f64..4.0,
        f2 in 0.5f64..4.0,
        duty in 0.0f64..1.0,
    ) {
        let pm = PowerModel::for_spec(&spec);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        for class in [ActivityClass::Mixed, ActivityClass::Avx, ActivityClass::Amx] {
            let p_lo = pm.core_power(Ghz(lo), class, duty);
            let p_hi = pm.core_power(Ghz(hi), class, duty);
            prop_assert!(p_hi.value() >= p_lo.value() - 1e-12);
            let p_idle = pm.core_power(Ghz(hi), class, 0.0);
            prop_assert!(p_hi.value() >= p_idle.value() - 1e-12);
        }
    }

    #[test]
    fn divisions_partition_exactly(total in 1usize..256, a in 0usize..256, b in 0usize..256) {
        let high = a % (total + 1);
        let low = b % (total - high + 1);
        let d = ProcessorDivision::new(high, low, total - high - low);
        prop_assert_eq!(d.total_cores(), total);
        let sum: f64 = [AuUsageLevel::High, AuUsageLevel::Low, AuUsageLevel::None]
            .iter().map(|&l| d.fraction(l)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        // The region ranges tile `0..total` in High, Low, None order, each
        // as wide as its region.
        let mut next = 0;
        for level in [AuUsageLevel::High, AuUsageLevel::Low, AuUsageLevel::None] {
            let (lo, hi) = d.region_range(level);
            prop_assert_eq!(lo, next);
            prop_assert_eq!(hi - lo, d.cores(level));
            next = hi;
        }
        prop_assert_eq!(next, total);
    }

    #[test]
    fn platform_step_outputs_stay_physical(
        spec in any_spec(),
        high_frac in 0.0f64..0.5,
        low_frac in 0.0f64..0.5,
        duty in 0.05f64..1.0,
        bw1 in 0.0f64..400.0,
        bw2 in 0.0f64..400.0,
        steps in 1usize..20,
    ) {
        let total = spec.total_cores();
        let high = (total as f64 * high_frac) as usize;
        let low = (total as f64 * low_frac) as usize;
        let none = total - high - low;
        let mut sim = PlatformSim::new(spec.clone());
        let loads = [
            RegionLoad::new(AuUsageLevel::High, high, ActivityClass::Amx, duty, GbPerSec(bw1)),
            RegionLoad::new(AuUsageLevel::Low, low, ActivityClass::Avx, duty, GbPerSec(bw2)),
            RegionLoad::new(AuUsageLevel::None, none, ActivityClass::Mixed, duty, GbPerSec(10.0)),
        ];
        for _ in 0..steps {
            let snap = sim.step(SimDuration::from_millis(500), &loads);
            for f in &snap.freqs {
                prop_assert!(f.value() > 0.3 && f.value() <= spec.allcore_turbo.value() + 1e-9);
            }
            prop_assert!(snap.power.value() > 0.0);
            prop_assert!(snap.power.value() < 1200.0, "power blew past any real package");
            prop_assert!((0.0..=1.0).contains(&snap.bw_utilization));
            prop_assert!((0.0..=1.0).contains(&snap.power_stress));
            prop_assert!(snap.tdp_scale <= 1.0 && snap.tdp_scale > 0.0);
        }
    }
}
