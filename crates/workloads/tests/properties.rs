//! Property-based tests of the co-runner workload models.

use proptest::prelude::*;

use aum_platform::spec::PlatformSpec;
use aum_workloads::au_apps::{au_acceleration, AuApp};
use aum_workloads::be::{BeKind, BeProfile};

fn any_be() -> impl Strategy<Value = BeKind> {
    prop_oneof![
        Just(BeKind::Compute),
        Just(BeKind::Olap),
        Just(BeKind::SpecJbb)
    ]
}

fn any_app() -> impl Strategy<Value = AuApp> {
    prop_oneof![
        Just(AuApp::Faiss),
        Just(AuApp::Vocoder),
        Just(AuApp::DeepFm)
    ]
}

proptest! {
    #[test]
    fn throughput_is_monotone_in_every_resource(
        kind in any_be(),
        cores in 1usize..96,
        freq in 0.8f64..3.4,
        ways in 1u32..16,
        bw_slow in 1.0f64..4.0,
        smt_slow in 1.0f64..3.0,
    ) {
        let spec = PlatformSpec::gen_a();
        let p = BeProfile::of(kind);
        let base = p.throughput(&spec, cores, freq, ways, ways, bw_slow, smt_slow);
        prop_assert!(base >= 0.0 && base.is_finite());
        prop_assert!(p.throughput(&spec, cores + 1, freq, ways, ways, bw_slow, smt_slow) >= base);
        prop_assert!(p.throughput(&spec, cores, freq + 0.1, ways, ways, bw_slow, smt_slow) >= base - 1e-9);
        prop_assert!(p.throughput(&spec, cores, freq, ways + 1, ways, bw_slow, smt_slow) >= base - 1e-9);
        prop_assert!(p.throughput(&spec, cores, freq, ways, ways, bw_slow + 0.5, smt_slow) <= base + 1e-9);
        prop_assert!(p.throughput(&spec, cores, freq, ways, ways, bw_slow, smt_slow + 0.5) <= base + 1e-9);
    }

    #[test]
    fn bw_demand_scales_with_cores_and_pressure(
        kind in any_be(),
        cores in 1usize..96,
        w1 in 1u32..16,
        w2 in 1u32..16,
    ) {
        let spec = PlatformSpec::gen_a();
        let p = BeProfile::of(kind);
        let (lo_w, hi_w) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let starved = p.bw_demand(&spec, cores, lo_w);
        let comfy = p.bw_demand(&spec, cores, hi_w);
        prop_assert!(starved.value() >= comfy.value() - 1e-9, "fewer ways → more DRAM traffic");
        let double = p.bw_demand(&spec, cores * 2, lo_w);
        prop_assert!((double.value() - 2.0 * starved.value()).abs() < 1e-6 * double.value().max(1.0));
    }

    #[test]
    fn fluctuation_is_bounded_and_positive(kind in any_be(), t in 0.0f64..10_000.0) {
        let p = BeProfile::of(kind);
        let f = p.demand_multiplier(t, 1.0);
        prop_assert!(f > 0.2 && f < 2.0);
    }

    #[test]
    fn au_acceleration_is_finite_and_beneficial_at_scale(
        app in any_app(),
        d in 64usize..2048,
        cores in 1usize..120,
        bs in 8usize..128,
    ) {
        let spec = PlatformSpec::gen_c();
        let s = au_acceleration(&spec, app, d, cores, bs);
        prop_assert!(s.is_finite() && s > 0.0);
        prop_assert!(s >= 0.9, "AU should never seriously hurt a batched kernel, got {s}");
        prop_assert!(s < 300.0, "speedup beyond unit ratios is impossible, got {s}");
    }

    #[test]
    fn zero_cores_zero_throughput(kind in any_be(), freq in 0.5f64..3.4) {
        let spec = PlatformSpec::gen_a();
        prop_assert_eq!(BeProfile::of(kind).throughput(&spec, 0, freq, 8, 8, 1.0, 1.0), 0.0);
    }
}
