//! Property-based tests of the accelerator-unit models: the roofline cost
//! model must behave like physics under arbitrary shapes and contexts.

use proptest::prelude::*;

use aum_au::ari::{qkv_ari_decode, qkv_ari_prefill, usage_from_ari};
use aum_au::gemm::{gemm_time, ExecContext, GemmShape, PER_CORE_BW_GBS};
use aum_au::topdown::{signature, SignatureKind};
use aum_au::unit::{AuKind, AuSpec, Precision};
use aum_platform::spec::PlatformSpec;
use aum_platform::units::GbPerSec;

fn any_shape() -> impl Strategy<Value = GemmShape> {
    (1usize..8192, 1usize..8192, 1usize..32768).prop_map(|(m, k, n)| GemmShape::new(m, k, n))
}

fn any_kind() -> impl Strategy<Value = AuKind> {
    prop_oneof![
        Just(AuKind::Amx),
        Just(AuKind::Avx512),
        Just(AuKind::Scalar)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gemm_time_is_positive_and_bounded_by_both_legs(
        shape in any_shape(),
        kind in any_kind(),
        cores in 1usize..128,
        freq in 0.5f64..4.0,
        bw in 10.0f64..800.0,
    ) {
        let spec = PlatformSpec::gen_a();
        let unit = AuSpec::for_platform(&spec, kind);
        let ctx = ExecContext::new(cores, freq, GbPerSec(bw));
        let exec = gemm_time(shape, Precision::Bf16, &unit, &ctx);
        prop_assert!(exec.time.as_secs_f64() > 0.0);
        prop_assert!(exec.time >= exec.compute_time.min(exec.memory_time));
        prop_assert!(
            exec.time.as_nanos() >= exec.compute_time.max(exec.memory_time).as_nanos()
        );
        // Achieved throughput can never exceed the bandwidth roofline.
        let reachable = bw.min(cores as f64 * PER_CORE_BW_GBS);
        let bw_roof = shape.arithmetic_intensity(Precision::Bf16) * reachable * 1e9 / 1e12;
        prop_assert!(exec.achieved_tflops <= bw_roof * (1.0 + 1e-6) + 1e-9);
    }

    #[test]
    fn gemm_time_is_monotone_in_resources(
        shape in any_shape(),
        cores in 1usize..96,
        freq in 0.5f64..3.0,
        bw in 20.0f64..400.0,
    ) {
        let spec = PlatformSpec::gen_a();
        let unit = AuSpec::for_platform(&spec, AuKind::Amx);
        let base = gemm_time(shape, Precision::Bf16, &unit,
            &ExecContext::new(cores, freq, GbPerSec(bw)));
        let more_cores = gemm_time(shape, Precision::Bf16, &unit,
            &ExecContext::new(cores + 8, freq, GbPerSec(bw)));
        let more_freq = gemm_time(shape, Precision::Bf16, &unit,
            &ExecContext::new(cores, freq + 0.5, GbPerSec(bw)));
        let more_bw = gemm_time(shape, Precision::Bf16, &unit,
            &ExecContext::new(cores, freq, GbPerSec(bw + 100.0)));
        prop_assert!(more_cores.time <= base.time);
        prop_assert!(more_freq.time <= base.time);
        prop_assert!(more_bw.time <= base.time);
    }

    #[test]
    fn penalties_never_speed_things_up(
        shape in any_shape(),
        mem_pen in 1.0f64..4.0,
        cmp_pen in 1.0f64..4.0,
    ) {
        let spec = PlatformSpec::gen_a();
        let unit = AuSpec::for_platform(&spec, AuKind::Amx);
        let clean = ExecContext::new(48, 2.5, GbPerSec(200.0));
        let dirty = clean.with_penalties(mem_pen, cmp_pen);
        let a = gemm_time(shape, Precision::Bf16, &unit, &clean);
        let b = gemm_time(shape, Precision::Bf16, &unit, &dirty);
        prop_assert!(b.time >= a.time);
        // SimDuration rounds to whole nanoseconds; allow that much slack.
        prop_assert!(
            b.time.as_secs_f64() <= a.time.as_secs_f64() * mem_pen.max(cmp_pen) + 3e-9
        );
    }

    #[test]
    fn flops_and_bytes_scale_linearly(m in 1usize..512, k in 1usize..2048, n in 1usize..2048) {
        let s = GemmShape::new(m, k, n);
        let d = GemmShape::new(2 * m, k, n);
        prop_assert!((d.flops() - 2.0 * s.flops()).abs() < 1.0);
        // Doubling m grows bytes by less than 2x (B matrix is shared).
        prop_assert!(d.bytes(Precision::Bf16) < 2.0 * s.bytes(Precision::Bf16) + 1.0);
        prop_assert!(d.bytes(Precision::Bf16) > s.bytes(Precision::Bf16));
    }

    #[test]
    fn arithmetic_intensity_monotone_in_batch(d in 64usize..8192, b1 in 1usize..64, b2 in 1usize..64, l in 1usize..4096) {
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(qkv_ari_decode(d, hi) >= qkv_ari_decode(d, lo));
        prop_assert!(qkv_ari_prefill(d, hi, l) >= qkv_ari_prefill(d, lo, l));
        // Prefill over L tokens is at least as intense as decode at the
        // same batch.
        prop_assert!(qkv_ari_prefill(d, lo, l) >= qkv_ari_decode(d, lo) - 1e-9);
    }

    #[test]
    fn usage_classification_is_monotone(a1 in 0.0f64..1e6, a2 in 0.0f64..1e6) {
        let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
        prop_assert!(usage_from_ari(hi) >= usage_from_ari(lo));
    }

    #[test]
    fn topdown_stays_normalized_under_pressure(
        bw in 1.0f64..5.0,
        llc in 1.0f64..5.0,
        kind in prop_oneof![
            Just(SignatureKind::Gemm), Just(SignatureKind::Prefill),
            Just(SignatureKind::Decode), Just(SignatureKind::Mcf), Just(SignatureKind::Ads)
        ],
    ) {
        for spec in PlatformSpec::presets() {
            let w = signature(kind, &spec).work_split(bw, llc);
            prop_assert!((w.sum() - 1.0).abs() < 1e-9);
            for part in [w.compute, w.l1, w.l2, w.llc, w.dram, w.contention] {
                prop_assert!(part >= 0.0, "negative part {}", part);
            }
        }
    }

    #[test]
    fn fill_efficiency_is_a_fraction(m in 0usize..4096, n in 0usize..4096, kind in any_kind()) {
        let unit = AuSpec::for_platform(&PlatformSpec::gen_a(), kind);
        let e = unit.fill_efficiency(m, n);
        prop_assert!((0.0..=1.0).contains(&e));
        if m > 0 && n > 0 {
            prop_assert!(e > 0.0);
            // Multiples of the tile are perfectly filled.
            let full = unit.fill_efficiency(unit.tile_m * m.max(1), unit.tile_n * n.max(1));
            prop_assert!((full - 1.0).abs() < 1e-12);
        }
    }
}
