//! Accelerator-unit specifications.
//!
//! Every physical core of the modeled platforms carries an AMX unit (eight
//! 1 KiB tile registers + a TMUL array executing 1024 BF16 ops/cycle,
//! paper §II-A) and AVX-512 FMA pipes. Per-core throughput is derived from
//! the platform's Table I TFLOPS figures, which the paper computes at base
//! frequency.

use serde::{Deserialize, Serialize};

use aum_platform::spec::{Generation, PlatformSpec};
use aum_platform::units::Tflops;

/// The execution-unit families a matrix kernel can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AuKind {
    /// Plain scalar FMA pipeline.
    Scalar,
    /// AVX-512 vector units.
    Avx512,
    /// AMX tile-matrix unit.
    Amx,
}

impl core::fmt::Display for AuKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuKind::Scalar => write!(f, "Scalar"),
            AuKind::Avx512 => write!(f, "AVX-512"),
            AuKind::Amx => write!(f, "AMX"),
        }
    }
}

/// Numeric precision of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// bfloat16 — supported since Sapphire Rapids.
    Bf16,
    /// float16 — added in Granite Rapids (§II-A).
    Fp16,
    /// float8 — added in Diamond Rapids (§II-A); no modeled platform has it.
    Fp8,
    /// int8 inference.
    Int8,
}

impl Precision {
    /// Bytes per element.
    #[must_use]
    pub fn bytes(self) -> usize {
        match self {
            Precision::Bf16 | Precision::Fp16 => 2,
            Precision::Fp8 | Precision::Int8 => 1,
        }
    }

    /// Throughput multiplier relative to BF16 on units that support the
    /// precision (narrow types double MAC density).
    #[must_use]
    pub fn throughput_factor(self) -> f64 {
        match self {
            Precision::Bf16 | Precision::Fp16 => 1.0,
            Precision::Fp8 | Precision::Int8 => 2.0,
        }
    }

    /// Whether a platform generation's AMX supports this precision.
    #[must_use]
    pub fn supported_by(self, generation: Generation) -> bool {
        match self {
            Precision::Bf16 | Precision::Int8 => true,
            Precision::Fp16 => generation == Generation::GraniteRapids,
            Precision::Fp8 => false,
        }
    }
}

/// Per-core capability description of one AU kind on one platform.
///
/// # Examples
///
/// ```
/// use aum_au::unit::{AuKind, AuSpec};
/// use aum_platform::spec::PlatformSpec;
///
/// let amx = AuSpec::for_platform(&PlatformSpec::gen_a(), AuKind::Amx);
/// let avx = AuSpec::for_platform(&PlatformSpec::gen_a(), AuKind::Avx512);
/// assert!(amx.ops_per_cycle > avx.ops_per_cycle);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuSpec {
    /// Unit family.
    pub kind: AuKind,
    /// BF16 flops per cycle per core at full issue.
    pub ops_per_cycle: f64,
    /// Tile/vector granularity in the M dimension (AMX tiles hold 16 rows).
    pub tile_m: usize,
    /// Tile/vector granularity in the N dimension (AMX tiles hold 64 BF16
    /// columns across the B tile pair).
    pub tile_n: usize,
    /// Fraction of peak a tuned kernel sustains end-to-end, including tile
    /// loads, layout shuffles and framework overhead. Calibrated so the
    /// paper's measured GEMM TFLOPS (§IV-A3) are reproduced.
    pub sustained_frac: f64,
    /// Fixed per-kernel launch overhead in core cycles (dispatch, tile
    /// configuration via `LDTILECFG`, loop setup).
    pub startup_cycles: f64,
}

/// AMX kernel efficiency: paper §IV-A3 measures 40.57 TFLOPS for large
/// prefill GEMMs against a 206.4 TFLOPS Table I peak, i.e. ≈20% sustained
/// through the full xFasterTransformer stack.
const AMX_SUSTAINED: f64 = 0.22;
/// AVX-512 kernels are long-tuned and sustain a much larger peak fraction.
const AVX_SUSTAINED: f64 = 0.55;
/// Scalar loop efficiency.
const SCALAR_SUSTAINED: f64 = 0.85;

impl AuSpec {
    /// Derives the per-core spec of `kind` on `platform`.
    ///
    /// Per-core ops/cycle divide the platform's Table I TFLOPS (quoted at
    /// base frequency) by `cores × base_freq`, matching the paper's own
    /// "AU TFLOPS calculated based on base frequencies".
    #[must_use]
    pub fn for_platform(platform: &PlatformSpec, kind: AuKind) -> Self {
        let per_core_hz = platform.base_freq.value() * 1e9;
        let per_core =
            |peak: Tflops| peak.value() * 1e12 / (platform.total_cores() as f64 * per_core_hz);
        match kind {
            AuKind::Amx => AuSpec {
                kind,
                ops_per_cycle: per_core(platform.amx_peak),
                tile_m: 16,
                tile_n: 64,
                sustained_frac: AMX_SUSTAINED,
                startup_cycles: 2200.0,
            },
            AuKind::Avx512 => AuSpec {
                kind,
                ops_per_cycle: per_core(platform.avx_peak),
                tile_m: 1,
                tile_n: 32,
                sustained_frac: AVX_SUSTAINED,
                startup_cycles: 350.0,
            },
            AuKind::Scalar => AuSpec {
                kind,
                ops_per_cycle: 4.0,
                tile_m: 1,
                tile_n: 1,
                sustained_frac: SCALAR_SUSTAINED,
                startup_cycles: 50.0,
            },
        }
    }

    /// Fraction of tile/vector lanes a matrix of `m × n` actually fills:
    /// small matrices waste AMX tile rows, which is why "the most efficient
    /// AU choices change with matrix dimensions" (§II-B).
    #[must_use]
    pub fn fill_efficiency(&self, m: usize, n: usize) -> f64 {
        if m == 0 || n == 0 {
            return 0.0;
        }
        let fill = |dim: usize, tile: usize| -> f64 {
            if tile <= 1 {
                1.0
            } else {
                let tiles = dim.div_ceil(tile);
                dim as f64 / (tiles * tile) as f64
            }
        };
        fill(m, self.tile_m) * fill(n, self.tile_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{ComputeRoof, ExecContext, GemmShape};

    #[test]
    fn gen_a_ops_per_cycle_derive_from_table1() {
        let spec = PlatformSpec::gen_a();
        let amx = AuSpec::for_platform(&spec, AuKind::Amx);
        // 206.4e12 / (96 cores * 2.7e9 Hz) ≈ 796 ops/cycle.
        assert!(
            (amx.ops_per_cycle - 796.3).abs() < 1.0,
            "got {}",
            amx.ops_per_cycle
        );
        let avx = AuSpec::for_platform(&spec, AuKind::Avx512);
        assert!(
            (avx.ops_per_cycle - 98.8).abs() < 1.0,
            "got {}",
            avx.ops_per_cycle
        );
    }

    #[test]
    fn gen_c_is_stronger_per_core() {
        let a = AuSpec::for_platform(&PlatformSpec::gen_a(), AuKind::Amx);
        let c = AuSpec::for_platform(&PlatformSpec::gen_c(), AuKind::Amx);
        assert!(c.ops_per_cycle > a.ops_per_cycle);
    }

    #[test]
    fn fill_efficiency_full_tiles() {
        let amx = AuSpec::for_platform(&PlatformSpec::gen_a(), AuKind::Amx);
        assert!((amx.fill_efficiency(16, 64) - 1.0).abs() < 1e-12);
        assert!((amx.fill_efficiency(32, 128) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fill_efficiency_partial_tiles() {
        let amx = AuSpec::for_platform(&PlatformSpec::gen_a(), AuKind::Amx);
        assert!((amx.fill_efficiency(8, 64) - 0.5).abs() < 1e-12);
        assert!((amx.fill_efficiency(1, 64) - 1.0 / 16.0).abs() < 1e-12);
        assert_eq!(amx.fill_efficiency(0, 64), 0.0);
    }

    #[test]
    fn avx_ignores_m_granularity() {
        let avx = AuSpec::for_platform(&PlatformSpec::gen_a(), AuKind::Avx512);
        assert!((avx.fill_efficiency(1, 64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_m_prefers_avx() {
        // §IV-A1: vector-size operations are more efficient on AVX than AMX.
        let spec = PlatformSpec::gen_a();
        let amx = AuSpec::for_platform(&spec, AuKind::Amx);
        let avx = AuSpec::for_platform(&spec, AuKind::Avx512);
        let on_one_core = |unit: &AuSpec, ghz: f64, m: usize| {
            let ctx = ExecContext::new(1, ghz, spec.mem_bw);
            ComputeRoof::new(unit, Precision::Bf16, &ctx).secs(GemmShape::new(m, 4096, 4096))
        };
        assert!(
            on_one_core(&avx, 3.1, 1) < on_one_core(&amx, 2.5, 1),
            "m=1 should favor AVX"
        );
        assert!(
            on_one_core(&amx, 2.5, 16) < on_one_core(&avx, 3.1, 16),
            "m=16 should favor AMX"
        );
    }

    #[test]
    fn precision_support_matrix() {
        assert!(Precision::Bf16.supported_by(Generation::SapphireRapids));
        assert!(!Precision::Fp16.supported_by(Generation::SapphireRapids));
        assert!(Precision::Fp16.supported_by(Generation::GraniteRapids));
        assert!(!Precision::Fp8.supported_by(Generation::GraniteRapids));
    }

    #[test]
    fn precision_bytes_and_factor() {
        assert_eq!(Precision::Bf16.bytes(), 2);
        assert_eq!(Precision::Int8.bytes(), 1);
        assert_eq!(Precision::Int8.throughput_factor(), 2.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", AuKind::Amx), "AMX");
        assert_eq!(format!("{}", AuKind::Avx512), "AVX-512");
    }
}
