//! Roofline GEMM cost model.
//!
//! Kernel time is the max of a compute leg (sustained AU throughput, plus
//! fixed launch overhead; [`ComputeRoof`]) and a memory leg (operand
//! traffic over the granted bandwidth; [`MemoryRoof`]), taken by
//! [`combine`]. The model reproduces the paper's §IV-A3 measurements on
//! GenA:
//!
//! - prefill GEMM `8192×4096×22016` → ≈40 TFLOPS (compute-bound);
//! - decode GEMM `16×4096×22016` → ≈4 TFLOPS (bandwidth-bound).

use serde::{Deserialize, Serialize};

use aum_platform::units::GbPerSec;
use aum_sim::time::SimDuration;

use crate::unit::{AuSpec, Precision};

/// DRAM bandwidth one core can demand (limited memory-level parallelism of
/// a single core's miss queue); a kernel on `c` cores can stream at most
/// `c × PER_CORE_BW_GBS`, so bandwidth-bound phases still need a minimum
/// core count — decode cannot shrink to one core for free.
pub const PER_CORE_BW_GBS: f64 = 8.0;

/// Dimensions of `C[M][N] += A[M][K] · B[K][N]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmShape {
    /// Output rows (batch×sequence for LLM projections).
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl GemmShape {
    /// Creates a shape.
    #[must_use]
    pub const fn new(m: usize, k: usize, n: usize) -> Self {
        GemmShape { m, k, n }
    }

    /// Floating-point operations (multiply + add).
    #[must_use]
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }

    /// DRAM traffic in bytes: read A and B, read-modify-write C.
    #[must_use]
    pub fn bytes(&self, prec: Precision) -> f64 {
        let e = prec.bytes() as f64;
        let a = self.m as f64 * self.k as f64;
        let b = self.k as f64 * self.n as f64;
        let c = 2.0 * self.m as f64 * self.n as f64;
        (a + b + c) * e
    }

    /// Arithmetic intensity in flops per byte.
    #[must_use]
    pub fn arithmetic_intensity(&self, prec: Precision) -> f64 {
        let bytes = self.bytes(prec);
        if bytes == 0.0 {
            0.0
        } else {
            self.flops() / bytes
        }
    }

    /// True for degenerate (zero-dimension) shapes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.m == 0 || self.k == 0 || self.n == 0
    }
}

impl core::fmt::Display for GemmShape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.k, self.n)
    }
}

/// Which roofline leg limited a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bound {
    /// Limited by AU throughput.
    Compute,
    /// Limited by memory bandwidth.
    Memory,
}

/// Execution environment of a kernel: how many cores it spans, at what
/// frequency, with how much granted DRAM bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecContext {
    /// Cores the kernel is parallelized across (≥ 1).
    pub cores: usize,
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// DRAM bandwidth granted to the kernel.
    pub bandwidth: GbPerSec,
    /// Extra multiplier (≥ 1) on the memory phase from cache-partition
    /// traffic amplification and pool queuing.
    pub memory_penalty: f64,
    /// Extra multiplier (≥ 1) on the compute phase from SMT port contention.
    pub compute_penalty: f64,
}

impl ExecContext {
    /// A clean context with no contention penalties.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or frequency/bandwidth are not positive.
    #[must_use]
    pub fn new(cores: usize, freq_ghz: f64, bandwidth: GbPerSec) -> Self {
        assert!(cores > 0, "kernel needs at least one core");
        assert!(freq_ghz > 0.0, "frequency must be positive");
        assert!(bandwidth.value() > 0.0, "bandwidth must be positive");
        ExecContext {
            cores,
            freq_ghz,
            bandwidth,
            memory_penalty: 1.0,
            compute_penalty: 1.0,
        }
    }

    /// Returns a copy with the given contention penalties.
    ///
    /// # Panics
    ///
    /// Panics if a penalty is below 1.
    #[must_use]
    pub fn with_penalties(mut self, memory: f64, compute: f64) -> Self {
        assert!(
            memory >= 1.0 && compute >= 1.0,
            "penalties are multipliers ≥ 1"
        );
        self.memory_penalty = memory;
        self.compute_penalty = compute;
        self
    }
}

/// Cost-model output for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GemmExecution {
    /// Wall time of the kernel.
    pub time: SimDuration,
    /// Pure compute-leg time.
    pub compute_time: SimDuration,
    /// Pure memory-leg time.
    pub memory_time: SimDuration,
    /// Limiting leg.
    pub bound: Bound,
    /// Achieved throughput in TFLOPS.
    pub achieved_tflops: f64,
    /// Ideal busy cycles of the AU itself per core (for PMU synthesis):
    /// flops / (ops_per_cycle × cores).
    pub au_busy_cycles_per_core: f64,
}

/// The compute leg's constants under one unit, precision and execution
/// context: everything [`ComputeRoof::secs`] reads besides the shape.
///
/// # Examples
///
/// ```
/// use aum_au::gemm::{gemm_time, ComputeRoof, ExecContext, GemmShape, Leg};
/// use aum_au::unit::{AuKind, AuSpec, Precision};
/// use aum_platform::spec::PlatformSpec;
///
/// let spec = PlatformSpec::gen_a();
/// let amx = AuSpec::for_platform(&spec, AuKind::Amx);
/// let ctx = ExecContext::new(96, 2.5, spec.mem_bw);
/// let shape = GemmShape::new(8192, 4096, 22016);
/// let secs = ComputeRoof::new(&amx, Precision::Bf16, &ctx).secs(shape);
/// let exec = gemm_time(shape, Precision::Bf16, &amx, &ctx);
/// assert_eq!(exec.compute_time, Leg::new(secs).time);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeRoof {
    unit: AuSpec,
    /// Sustained flops/s of one core at full fill: ops/cycle × Hz ×
    /// sustained fraction.
    rate: f64,
    prec_factor: f64,
    cores: f64,
    penalty: f64,
    /// Launch overhead in seconds.
    startup: f64,
}

impl ComputeRoof {
    /// The compute leg of `unit` at `prec` under `ctx`'s cores, frequency
    /// and compute penalty.
    #[must_use]
    pub fn new(unit: &AuSpec, prec: Precision, ctx: &ExecContext) -> Self {
        ComputeRoof {
            unit: *unit,
            rate: unit.ops_per_cycle * ctx.freq_ghz.max(0.0) * 1e9 * unit.sustained_frac,
            prec_factor: prec.throughput_factor(),
            cores: ctx.cores as f64,
            penalty: ctx.compute_penalty,
            startup: unit.startup_cycles / (ctx.freq_ghz * 1e9),
        }
    }

    /// Seconds one kernel of `shape` spends computing: its flops over the
    /// sustained throughput of the tiles it fills on every core, times the
    /// compute penalty, plus launch overhead. An empty shape launches no
    /// kernel and takes none.
    #[must_use]
    pub fn secs(&self, shape: GemmShape) -> f64 {
        if shape.is_empty() {
            return 0.0;
        }
        let fill = self.unit.fill_efficiency(shape.m, shape.n);
        let throughput = (self.rate * fill * self.prec_factor * self.cores).max(1.0);
        (shape.flops() / throughput) * self.penalty + self.startup
    }
}

/// The memory leg's constants under one precision and execution context:
/// the bandwidth the kernel's cores can reach and the memory penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryRoof {
    prec: Precision,
    /// Reachable bandwidth in bytes/s.
    bandwidth: f64,
    penalty: f64,
}

impl MemoryRoof {
    /// The memory leg at `prec` under `ctx`'s granted bandwidth, capped at
    /// [`PER_CORE_BW_GBS`] per core, and its memory penalty.
    #[must_use]
    pub fn new(prec: Precision, ctx: &ExecContext) -> Self {
        MemoryRoof {
            prec,
            bandwidth: ctx
                .bandwidth
                .value()
                .min(ctx.cores as f64 * PER_CORE_BW_GBS)
                * 1e9,
            penalty: ctx.memory_penalty,
        }
    }

    /// Seconds one kernel of `shape` spends streaming its operands, times
    /// the memory penalty. An empty shape launches no kernel and takes
    /// none.
    #[must_use]
    pub fn secs(&self, shape: GemmShape) -> f64 {
        if shape.is_empty() {
            return 0.0;
        }
        shape.bytes(self.prec) / self.bandwidth * self.penalty
    }
}

/// One roofline leg of one kernel: its seconds and their rounding to the
/// nanosecond.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Leg {
    /// Exact seconds.
    pub secs: f64,
    /// `secs` rounded to the nanosecond.
    pub time: SimDuration,
}

impl Leg {
    /// The leg of `secs` seconds.
    #[must_use]
    pub fn new(secs: f64) -> Self {
        Leg {
            secs,
            time: SimDuration::from_secs_f64(secs),
        }
    }
}

/// What [`combine`] decided for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Index of the winning candidate unit.
    pub unit: usize,
    /// Wall seconds: the winner's longer leg.
    pub secs: f64,
    /// `secs` rounded to the nanosecond.
    pub time: SimDuration,
    /// Which leg it was.
    pub bound: Bound,
}

/// The roofline's combine step for one kernel on its candidate units,
/// given each unit's compute leg and the memory leg, which no unit
/// changes.
///
/// A unit's wall is its longer leg, the compute leg on a tie. The unit
/// with the shorter rounded wall wins; equal walls (both memory-bound) go
/// to the lighter rounded compute leg, since the unit that occupies
/// execution ports for less time wins, which is why vector-size
/// operations run on AVX in practice (§IV-A1); a full tie goes to the
/// first unit. The memory leg is rounded at most once.
///
/// # Panics
///
/// Panics if `compute` is empty.
#[must_use]
pub fn combine(compute: &[Leg], memory_secs: f64) -> Wall {
    let mut memory_time = None;
    let mut wall_of = |unit: usize| {
        let leg = compute[unit];
        if leg.secs >= memory_secs {
            Wall {
                unit,
                secs: leg.secs,
                time: leg.time,
                bound: Bound::Compute,
            }
        } else {
            let time = *memory_time.get_or_insert_with(|| SimDuration::from_secs_f64(memory_secs));
            Wall {
                unit,
                secs: memory_secs,
                time,
                bound: Bound::Memory,
            }
        }
    };
    let first = wall_of(0);
    (1..compute.len()).fold(first, |best, unit| {
        let wall = wall_of(unit);
        let rank = |w: &Wall| (w.time, compute[w.unit].time);
        if rank(&wall) < rank(&best) {
            wall
        } else {
            best
        }
    })
}

/// Evaluates one kernel on the better of its candidate units: both legs
/// through the roofs, then [`combine`].
fn execute<'a, const N: usize>(
    shape: GemmShape,
    prec: Precision,
    units: [&'a AuSpec; N],
    ctx: &ExecContext,
) -> (&'a AuSpec, GemmExecution) {
    if shape.is_empty() {
        // No kernel launches, so there is no throughput to report either.
        let exec = GemmExecution {
            time: SimDuration::ZERO,
            compute_time: SimDuration::ZERO,
            memory_time: SimDuration::ZERO,
            bound: Bound::Compute,
            achieved_tflops: 0.0,
            au_busy_cycles_per_core: 0.0,
        };
        return (units[0], exec);
    }
    let compute = units.map(|unit| Leg::new(ComputeRoof::new(unit, prec, ctx).secs(shape)));
    let memory_secs = MemoryRoof::new(prec, ctx).secs(shape);
    let wall = combine(&compute, memory_secs);
    let (unit, flops) = (units[wall.unit], shape.flops());
    let exec = GemmExecution {
        time: wall.time,
        compute_time: compute[wall.unit].time,
        memory_time: SimDuration::from_secs_f64(memory_secs),
        bound: wall.bound,
        achieved_tflops: flops / wall.secs / 1e12,
        au_busy_cycles_per_core: flops
            / (unit.ops_per_cycle * prec.throughput_factor() * ctx.cores as f64),
    };
    (unit, exec)
}

/// Evaluates the roofline model for one kernel.
///
/// # Examples
///
/// ```
/// use aum_au::gemm::{gemm_time, ExecContext, GemmShape};
/// use aum_au::unit::{AuKind, AuSpec, Precision};
/// use aum_platform::spec::PlatformSpec;
/// use aum_platform::units::GbPerSec;
///
/// let spec = PlatformSpec::gen_a();
/// let amx = AuSpec::for_platform(&spec, AuKind::Amx);
/// let ctx = ExecContext::new(96, 2.5, GbPerSec(233.8));
/// let exec = gemm_time(GemmShape::new(8192, 4096, 22016), Precision::Bf16, &amx, &ctx);
/// assert!(exec.achieved_tflops > 30.0);
/// ```
#[must_use]
pub fn gemm_time(
    shape: GemmShape,
    prec: Precision,
    unit: &AuSpec,
    ctx: &ExecContext,
) -> GemmExecution {
    execute(shape, prec, [unit], ctx).1
}

/// Picks the faster of AMX and AVX-512 for a shape — the paper notes the
/// best AU choice changes with matrix dimensions (§II-B, §IV-A1). Ties
/// break as [`combine`] says.
#[must_use]
pub fn pick_unit<'a>(
    shape: GemmShape,
    prec: Precision,
    amx: &'a AuSpec,
    avx: &'a AuSpec,
    ctx: &ExecContext,
) -> (&'a AuSpec, GemmExecution) {
    execute(shape, prec, [amx, avx], ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::AuKind;
    use aum_platform::spec::PlatformSpec;

    fn amx() -> AuSpec {
        AuSpec::for_platform(&PlatformSpec::gen_a(), AuKind::Amx)
    }

    fn avx() -> AuSpec {
        AuSpec::for_platform(&PlatformSpec::gen_a(), AuKind::Avx512)
    }

    fn gen_a_ctx() -> ExecContext {
        ExecContext::new(96, 2.5, GbPerSec(233.8))
    }

    #[test]
    fn prefill_gemm_matches_paper_tflops() {
        // §IV-A3: 8192×4096×22016 achieves ≈40.57 TFLOPS on GenA.
        let e = gemm_time(
            GemmShape::new(8192, 4096, 22016),
            Precision::Bf16,
            &amx(),
            &gen_a_ctx(),
        );
        assert_eq!(e.bound, Bound::Compute);
        assert!(
            (34.0..=48.0).contains(&e.achieved_tflops),
            "expected ≈40 TFLOPS, got {}",
            e.achieved_tflops
        );
    }

    #[test]
    fn decode_gemm_matches_paper_tflops() {
        // §IV-A3: 16×4096×22016 achieves ≈3.87 TFLOPS, memory bound.
        let e = gemm_time(
            GemmShape::new(16, 4096, 22016),
            Precision::Bf16,
            &amx(),
            &gen_a_ctx(),
        );
        assert_eq!(e.bound, Bound::Memory);
        assert!(
            (2.5..=5.5).contains(&e.achieved_tflops),
            "expected ≈3.9 TFLOPS, got {}",
            e.achieved_tflops
        );
    }

    #[test]
    fn shape_math() {
        let s = GemmShape::new(16, 4096, 22016);
        assert!((s.flops() - 2.0 * 16.0 * 4096.0 * 22016.0).abs() < 1.0);
        assert!(s.arithmetic_intensity(Precision::Bf16) > 10.0);
        assert!(s.arithmetic_intensity(Precision::Bf16) < 32.0);
        assert!(!s.is_empty());
        assert!(GemmShape::new(0, 1, 1).is_empty());
        assert_eq!(format!("{s}"), "16x4096x22016");
    }

    #[test]
    fn empty_shape_is_free() {
        let e = gemm_time(
            GemmShape::new(0, 4096, 4096),
            Precision::Bf16,
            &amx(),
            &gen_a_ctx(),
        );
        assert_eq!(e.time, SimDuration::ZERO);
        assert_eq!(e.achieved_tflops, 0.0);
    }

    #[test]
    fn memory_penalty_slows_memory_bound_kernels() {
        let shape = GemmShape::new(16, 4096, 22016);
        let clean = gemm_time(shape, Precision::Bf16, &amx(), &gen_a_ctx());
        let penalized = gemm_time(
            shape,
            Precision::Bf16,
            &amx(),
            &gen_a_ctx().with_penalties(2.0, 1.0),
        );
        let ratio = penalized.time.as_secs_f64() / clean.time.as_secs_f64();
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "memory-bound kernel slows ≈2x, got {ratio}"
        );
    }

    #[test]
    fn compute_penalty_slows_compute_bound_kernels() {
        let shape = GemmShape::new(8192, 4096, 22016);
        let clean = gemm_time(shape, Precision::Bf16, &amx(), &gen_a_ctx());
        let penalized = gemm_time(
            shape,
            Precision::Bf16,
            &amx(),
            &gen_a_ctx().with_penalties(1.0, 1.5),
        );
        assert!(penalized.time > clean.time);
    }

    #[test]
    fn more_cores_speed_up_compute_bound_only() {
        let shape = GemmShape::new(8192, 4096, 22016);
        let few = gemm_time(
            shape,
            Precision::Bf16,
            &amx(),
            &ExecContext::new(24, 2.5, GbPerSec(233.8)),
        );
        let many = gemm_time(shape, Precision::Bf16, &amx(), &gen_a_ctx());
        assert!(many.time < few.time);

        let mem_shape = GemmShape::new(16, 4096, 22016);
        let few = gemm_time(
            mem_shape,
            Precision::Bf16,
            &amx(),
            &ExecContext::new(24, 2.5, GbPerSec(233.8)),
        );
        let many = gemm_time(mem_shape, Precision::Bf16, &amx(), &gen_a_ctx());
        let ratio = few.time.as_secs_f64() / many.time.as_secs_f64();
        // 24 cores reach 24 × PER_CORE_BW = 192 GB/s of the 233.8 GB/s pool,
        // so the penalty is the bandwidth-ceiling ratio, not a compute one.
        assert!(
            ratio < 1.35,
            "memory-bound kernel barely benefits from cores, got {ratio}"
        );
        assert!(
            ratio > 1.1,
            "the per-core bandwidth ceiling must bite at 24 cores, got {ratio}"
        );
    }

    #[test]
    fn pick_unit_switches_with_m() {
        // Per-core kernel choice: on a few cores the compute leg dominates
        // and the tile-fill penalty decides the winner.
        let ctx = ExecContext::new(4, 2.5, GbPerSec(233.8));
        let (amx, avx) = (amx(), avx());
        let (unit, _) = pick_unit(
            GemmShape::new(1, 4096, 4096),
            Precision::Bf16,
            &amx,
            &avx,
            &ctx,
        );
        assert_eq!(unit.kind, AuKind::Avx512, "m=1 vector op favors AVX");
        let (unit, _) = pick_unit(
            GemmShape::new(512, 4096, 4096),
            Precision::Bf16,
            &amx,
            &avx,
            &ctx,
        );
        assert_eq!(unit.kind, AuKind::Amx, "large GEMM favors AMX");
    }

    #[test]
    fn combine_takes_the_longer_leg_and_breaks_ties_by_compute() {
        let (light, heavy) = (Leg::new(1e-6), Leg::new(2e-6));
        // A compute leg equal to the memory leg is the wall.
        let wall = combine(&[light], 1e-6);
        assert_eq!((wall.bound, wall.time), (Bound::Compute, light.time));
        // Both units memory-bound: equal walls, the lighter compute leg wins.
        let wall = combine(&[heavy, light], 3e-6);
        assert_eq!((wall.unit, wall.bound), (1, Bound::Memory));
        assert_eq!(wall.time, SimDuration::from_nanos(3000));
        // A full tie goes to the first unit; a shorter wall beats it.
        assert_eq!(combine(&[light, light], 3e-6).unit, 0);
        assert_eq!(combine(&[Leg::new(4e-6), light], 3e-6).unit, 1);
    }

    #[test]
    fn frequency_scales_compute_leg() {
        let shape = GemmShape::new(8192, 4096, 22016);
        let slow = gemm_time(
            shape,
            Precision::Bf16,
            &amx(),
            &ExecContext::new(96, 2.1, GbPerSec(233.8)),
        );
        let fast = gemm_time(
            shape,
            Precision::Bf16,
            &amx(),
            &ExecContext::new(96, 2.5, GbPerSec(233.8)),
        );
        let ratio = slow.time.as_secs_f64() / fast.time.as_secs_f64();
        assert!((ratio - 2.5 / 2.1).abs() < 0.02);
    }

    #[test]
    fn au_busy_cycles_track_flops() {
        let shape = GemmShape::new(16, 4096, 22016);
        let e = gemm_time(shape, Precision::Bf16, &amx(), &gen_a_ctx());
        let expected = shape.flops() / (amx().ops_per_cycle * 96.0);
        assert!((e.au_busy_cycles_per_core - expected).abs() / expected < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_context_panics() {
        let _ = ExecContext::new(0, 2.5, GbPerSec(100.0));
    }

    #[test]
    fn higher_bandwidth_platform_accelerates_decode_shape() {
        let shape = GemmShape::new(16, 4096, 22016);
        let ddr = gemm_time(
            shape,
            Precision::Bf16,
            &amx(),
            &ExecContext::new(96, 2.5, GbPerSec(233.8)),
        );
        let hbm = gemm_time(
            shape,
            Precision::Bf16,
            &amx(),
            &ExecContext::new(96, 2.5, GbPerSec(588.0)),
        );
        assert!(hbm.time.as_secs_f64() < ddr.time.as_secs_f64() * 0.6);
    }
}
