//! Synthetic PMU counters.
//!
//! The paper characterizes AU usage with three practical metrics (§IV-A1):
//!
//! - **AMX cycle ratio** (`tma_amx_busy`): fraction of cycles AMX is busy —
//!   14.4% for llama2-7b prefill, 1.5% for decode on GenA (Table II);
//! - **AMX µop ratio** (`tma_fp_amx / tma_fp_arith`): 3.7% / 0.5%;
//! - **`avx_insts`**: higher in decode, where vector-size operations run on
//!   AVX rather than AMX.
//!
//! This module accumulates those counters from cost-model executions so the
//! profiler can consume them exactly as it would consume `perf` output.

use serde::{Deserialize, Serialize};

use crate::gemm::GemmExecution;
use crate::unit::AuKind;

/// AMX FP µops issued per AMX-busy cycle, folded with the ~1 µop/cycle
/// issue rate of the surrounding code. Calibrated so the Table II pairs
/// (cycle ratio 14.4% ↔ µop ratio 3.7%; 1.5% ↔ 0.5%) are reproduced.
const AMX_UOPS_PER_BUSY_CYCLE: f64 = 0.26;
/// Average µops issued per core cycle across the serving loop.
const UOPS_PER_CYCLE: f64 = 1.0;
/// BF16 lanes of one AVX-512 FMA µop.
const AVX_OPS_PER_UOP: f64 = 64.0;

/// Accumulated counter state.
///
/// # Examples
///
/// ```
/// use aum_au::counters::PmuCounters;
///
/// let c = PmuCounters::new();
/// assert_eq!(c.amx_cycle_ratio(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PmuCounters {
    /// Total aggregated core cycles.
    pub cycles: f64,
    /// Cycles the AMX unit was busy (aggregated across cores).
    pub amx_busy_cycles: f64,
    /// FP µops executed by AMX.
    pub amx_fp_uops: f64,
    /// FP µops executed by AVX units.
    pub avx_fp_uops: f64,
    /// FP µops executed by scalar pipes.
    pub scalar_fp_uops: f64,
    /// Total µops of any kind.
    pub total_uops: f64,
}

impl PmuCounters {
    /// Fresh, zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        PmuCounters::default()
    }

    /// Records a kernel execution that ran on `cores` cores at `freq_ghz`
    /// using unit `kind`.
    pub fn record_gemm(&mut self, exec: &GemmExecution, kind: AuKind, cores: usize, freq_ghz: f64) {
        let wall_cycles = exec.time.as_secs_f64() * freq_ghz * 1e9 * cores as f64;
        self.cycles += wall_cycles;
        self.total_uops += wall_cycles * UOPS_PER_CYCLE;
        let flops = exec.achieved_tflops * 1e12 * exec.time.as_secs_f64();
        match kind {
            AuKind::Amx => {
                let busy = exec.au_busy_cycles_per_core * cores as f64;
                self.amx_busy_cycles += busy;
                self.amx_fp_uops += busy * AMX_UOPS_PER_BUSY_CYCLE;
            }
            AuKind::Avx512 => {
                self.avx_fp_uops += flops / AVX_OPS_PER_UOP;
            }
            AuKind::Scalar => {
                self.scalar_fp_uops += flops / 2.0;
            }
        }
    }

    /// `tma_amx_busy`: AMX-busy cycle fraction.
    #[must_use]
    pub fn amx_cycle_ratio(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.amx_busy_cycles / self.cycles
        }
    }

    /// `tma_fp_amx / tma_fp_arith` proxy: AMX FP µops over total µop slots.
    #[must_use]
    pub fn amx_uop_ratio(&self) -> f64 {
        if self.total_uops == 0.0 {
            0.0
        } else {
            self.amx_fp_uops / self.total_uops
        }
    }

    /// `avx_insts` rate: AVX FP µops per total µop slot.
    #[must_use]
    pub fn avx_inst_ratio(&self) -> f64 {
        if self.total_uops == 0.0 {
            0.0
        } else {
            self.avx_fp_uops / self.total_uops
        }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &PmuCounters) {
        self.cycles += other.cycles;
        self.amx_busy_cycles += other.amx_busy_cycles;
        self.amx_fp_uops += other.amx_fp_uops;
        self.avx_fp_uops += other.avx_fp_uops;
        self.scalar_fp_uops += other.scalar_fp_uops;
        self.total_uops += other.total_uops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_time, ExecContext, GemmShape};
    use crate::unit::{AuSpec, Precision};
    use aum_platform::spec::PlatformSpec;
    use aum_platform::units::GbPerSec;

    fn run(shape: GemmShape, kind: AuKind, freq: f64) -> PmuCounters {
        let spec = PlatformSpec::gen_a();
        let unit = AuSpec::for_platform(&spec, kind);
        let ctx = ExecContext::new(96, freq, GbPerSec(233.8));
        let exec = gemm_time(shape, Precision::Bf16, &unit, &ctx);
        let mut c = PmuCounters::new();
        c.record_gemm(&exec, kind, 96, freq);
        c
    }

    #[test]
    fn prefill_cycle_ratio_matches_table2() {
        // Pure prefill GEMM: cycle ratio ≈ achieved/peak ≈ 15-22%.
        let c = run(GemmShape::new(8192, 4096, 22016), AuKind::Amx, 2.5);
        let r = c.amx_cycle_ratio();
        assert!((0.10..=0.26).contains(&r), "prefill amx cycle ratio {r}");
    }

    #[test]
    fn decode_cycle_ratio_matches_table2() {
        let c = run(GemmShape::new(16, 4096, 22016), AuKind::Amx, 3.1);
        let r = c.amx_cycle_ratio();
        assert!((0.005..=0.035).contains(&r), "decode amx cycle ratio {r}");
    }

    #[test]
    fn uop_ratio_tracks_cycle_ratio_scaled() {
        let c = run(GemmShape::new(8192, 4096, 22016), AuKind::Amx, 2.5);
        let expected = c.amx_cycle_ratio() * 0.26;
        assert!((c.amx_uop_ratio() - expected).abs() < 1e-9);
    }

    #[test]
    fn avx_kernels_count_as_avx() {
        let c = run(GemmShape::new(1, 4096, 4096), AuKind::Avx512, 3.1);
        assert_eq!(c.amx_cycle_ratio(), 0.0);
        assert!(c.avx_inst_ratio() > 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let a = run(GemmShape::new(16, 4096, 22016), AuKind::Amx, 3.1);
        let mut b = run(GemmShape::new(16, 4096, 22016), AuKind::Amx, 3.1);
        b.merge(&a);
        assert!((b.cycles - 2.0 * a.cycles).abs() / b.cycles < 1e-12);
        assert!((b.amx_busy_cycles - 2.0 * a.amx_busy_cycles).abs() / b.amx_busy_cycles < 1e-12);
    }

    #[test]
    fn empty_counters_are_zero() {
        let c = PmuCounters::new();
        assert_eq!(c.amx_cycle_ratio(), 0.0);
        assert_eq!(c.amx_uop_ratio(), 0.0);
        assert_eq!(c.avx_inst_ratio(), 0.0);
    }
}
