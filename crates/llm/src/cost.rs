//! Iteration cost evaluation.
//!
//! Prices an operator list ([`crate::ops::iteration_ops`]) through the
//! roofline cost model under a concrete execution context: each operator
//! runs on the better AU (or its forced one), its execution scaled by its
//! repeat count, and the terms fold in operator order into an
//! [`IterationCost`]. [`iteration_cost`] also records synthetic PMU
//! counters — the serving-engine analogue of running one
//! xFasterTransformer step under `perf` — for the characterization
//! studies. The serving engine prices through an [`IterationPricer`]
//! instead, which records no counters and reuses a decode iteration's
//! context-free terms while its batch and resources hold.

use serde::{Deserialize, Serialize};

use aum_au::counters::PmuCounters;
use aum_au::gemm::{gemm_time, pick_unit, Bound, ExecContext, GemmExecution};
use aum_au::unit::{AuKind, AuSpec, Precision};
use aum_platform::spec::PlatformSpec;
use aum_sim::time::SimDuration;

use crate::config::ModelConfig;
use crate::ops::{iteration_ops, IterOp, OpClass, Phase};

/// Per-region AU kernel set for a platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuKernels {
    /// AMX spec of the platform.
    pub amx: AuSpec,
    /// AVX-512 spec of the platform.
    pub avx: AuSpec,
}

impl AuKernels {
    /// Derives both kernel specs from a platform.
    #[must_use]
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        AuKernels {
            amx: AuSpec::for_platform(spec, AuKind::Amx),
            avx: AuSpec::for_platform(spec, AuKind::Avx512),
        }
    }
}

/// Cost-model output for one serving iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationCost {
    /// Wall time of the iteration.
    pub time: SimDuration,
    /// Total floating-point work.
    pub flops: f64,
    /// Total DRAM traffic.
    pub bytes: f64,
    /// Bandwidth the iteration *could* consume if the memory leg were free —
    /// the demand reported to the platform's bandwidth pool.
    pub bw_demand_gbs: f64,
    /// Fraction of wall time spent on memory-bound operators.
    pub memory_bound_frac: f64,
    /// Fraction of flops executed on AMX.
    pub amx_flop_frac: f64,
}

/// Evaluates one iteration of `model` in `phase` with `tokens`/`context`
/// (see [`iteration_ops`]) under the execution context, and accumulates PMU
/// counters into `pmu`.
///
/// # Examples
///
/// ```
/// use aum_au::counters::PmuCounters;
/// use aum_au::gemm::ExecContext;
/// use aum_au::unit::Precision;
/// use aum_llm::config::ModelConfig;
/// use aum_llm::cost::{iteration_cost, AuKernels};
/// use aum_llm::ops::Phase;
/// use aum_platform::spec::PlatformSpec;
///
/// let spec = PlatformSpec::gen_a();
/// let kernels = AuKernels::for_platform(&spec);
/// let ctx = ExecContext::new(96, 3.1, spec.mem_bw);
/// let mut pmu = PmuCounters::new();
/// let cost = iteration_cost(
///     &ModelConfig::llama2_7b(), Phase::Decode, 16, 855,
///     Precision::Bf16, &kernels, &ctx, &mut pmu,
/// );
/// assert!(cost.time.as_millis_f64() > 10.0);
/// ```
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn iteration_cost(
    model: &ModelConfig,
    phase: Phase,
    tokens: usize,
    context: usize,
    prec: Precision,
    kernels: &AuKernels,
    ctx: &ExecContext,
    pmu: &mut PmuCounters,
) -> IterationCost {
    let _prof = aum_sim::prof::scope("cost.eval_ops");
    let ops = iteration_ops(model, phase, tokens, context);
    let terms = ops.map(|op| price_op(&op, prec, kernels, ctx));
    for t in &terms {
        // One scaled execution per operator.
        let scaled = GemmExecution {
            time: t.time,
            au_busy_cycles_per_core: t.exec.au_busy_cycles_per_core * t.repeat,
            ..t.exec
        };
        pmu.record_gemm(&scaled, t.unit, ctx.cores, ctx.freq_ghz);
    }
    fold(&terms)
}

/// One operator priced under an execution context.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// The unit that runs it.
    unit: AuKind,
    /// One instance's execution.
    exec: GemmExecution,
    repeat: f64,
    /// The execution scaled by `repeat`: wall time, compute leg, work and
    /// traffic.
    time: SimDuration,
    compute_secs: f64,
    flops: f64,
    bytes: f64,
}

/// Prices one operator: the forced unit, or the better of AMX and
/// AVX-512, with the execution scaled by the repeat count.
fn price_op(op: &IterOp, prec: Precision, kernels: &AuKernels, ctx: &ExecContext) -> Term {
    let (unit, exec) = match op.unit {
        Some(AuKind::Avx512) => (&kernels.avx, gemm_time(op.shape, prec, &kernels.avx, ctx)),
        Some(AuKind::Amx) => (&kernels.amx, gemm_time(op.shape, prec, &kernels.amx, ctx)),
        Some(AuKind::Scalar) | None => pick_unit(op.shape, prec, &kernels.amx, &kernels.avx, ctx),
    };
    let repeat = op.repeat as f64;
    Term {
        unit: unit.kind,
        exec,
        repeat,
        // Repeats share one launch; scale the steady-state legs.
        time: SimDuration::from_secs_f64(exec.time.as_secs_f64() * repeat),
        compute_secs: exec.compute_time.as_secs_f64() * repeat,
        flops: op.shape.flops() * repeat,
        bytes: op.shape.bytes(prec) * repeat,
    }
}

/// Folds priced terms, in operator order, into the iteration's cost.
fn fold(terms: &[Term]) -> IterationCost {
    let mut total = SimDuration::ZERO;
    let mut flops = 0.0;
    let mut bytes = 0.0;
    let mut compute_secs = 0.0;
    let mut memory_bound_secs = 0.0;
    let mut amx_flops = 0.0;
    for t in terms {
        total += t.time;
        flops += t.flops;
        bytes += t.bytes;
        compute_secs += t.compute_secs;
        if t.exec.bound == Bound::Memory {
            memory_bound_secs += t.time.as_secs_f64();
        }
        if t.unit == AuKind::Amx {
            amx_flops += t.flops;
        }
    }
    let wall = total.as_secs_f64().max(1e-12);
    IterationCost {
        time: total,
        flops,
        bytes,
        bw_demand_gbs: bytes / compute_secs.max(1e-9) / 1e9,
        memory_bound_frac: (memory_bound_secs / wall).clamp(0.0, 1.0),
        amx_flop_frac: if flops > 0.0 { amx_flops / flops } else { 0.0 },
    }
}

/// Prices one serving engine's iterations: [`iteration_cost`] without the
/// PMU counters, for a fixed model, precision and kernel set.
///
/// In decode, six of the eight operators (`qkv_proj`, `attn_out`,
/// `ffn_gate_up`, `ffn_down`, `lm_head` and `glue`) read only the batch
/// and the model; only the two attention kernels read the context length.
/// The pricer keeps the terms of the last decode iteration under its
/// `(batch, ExecContext)` key, and a decode iteration with the same key
/// re-prices only the attention terms. A term is a pure function of the
/// operator's shape, the precision, the kernels and the context, and the
/// fold runs in the same order, so every result equals
/// [`iteration_cost`]'s bit for bit. A key holding a NaN never compares
/// equal, so it re-prices. Prefill steps price every operator and leave
/// the decode terms alone.
///
/// # Examples
///
/// ```
/// use aum_au::counters::PmuCounters;
/// use aum_au::gemm::ExecContext;
/// use aum_au::unit::Precision;
/// use aum_llm::config::ModelConfig;
/// use aum_llm::cost::{iteration_cost, AuKernels, IterationPricer};
/// use aum_llm::ops::Phase;
/// use aum_platform::spec::PlatformSpec;
///
/// let spec = PlatformSpec::gen_a();
/// let kernels = AuKernels::for_platform(&spec);
/// let model = ModelConfig::llama2_7b();
/// let ctx = ExecContext::new(96, 3.1, spec.mem_bw);
/// let mut pricer = IterationPricer::new(model.clone(), Precision::Bf16, kernels);
/// for context in [855, 856] {
///     let cost = pricer.price(Phase::Decode, 16, context, &ctx);
///     let mut pmu = PmuCounters::new();
///     let full = iteration_cost(
///         &model, Phase::Decode, 16, context, Precision::Bf16, &kernels, &ctx, &mut pmu,
///     );
///     assert_eq!(cost, full);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct IterationPricer {
    model: ModelConfig,
    prec: Precision,
    kernels: AuKernels,
    decode: Option<DecodeTerms>,
}

/// The last decode iteration's terms and the key they were priced under.
#[derive(Debug, Clone)]
struct DecodeTerms {
    batch: usize,
    ctx: ExecContext,
    terms: [Term; 8],
}

impl IterationPricer {
    /// A pricer for `model` served at `prec` on `kernels`.
    #[must_use]
    pub fn new(model: ModelConfig, prec: Precision, kernels: AuKernels) -> Self {
        IterationPricer {
            model,
            prec,
            kernels,
            decode: None,
        }
    }

    /// Prices one iteration, as [`iteration_cost`] does; `tokens` is the
    /// batch size in decode.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` or `context` is zero.
    #[must_use]
    pub fn price(
        &mut self,
        phase: Phase,
        tokens: usize,
        context: usize,
        ctx: &ExecContext,
    ) -> IterationCost {
        let _prof = aum_sim::prof::scope("cost.eval_ops");
        let ops = iteration_ops(&self.model, phase, tokens, context);
        let price = |op: &IterOp| price_op(op, self.prec, &self.kernels, ctx);
        if phase == Phase::Prefill {
            return fold(&ops.map(|op| price(&op)));
        }
        let terms = match &mut self.decode {
            Some(last) if last.batch == tokens && last.ctx == *ctx => {
                for (term, op) in last.terms.iter_mut().zip(&ops) {
                    if op.class == OpClass::Attention {
                        *term = price(op);
                    }
                }
                &last.terms
            }
            slot => {
                &slot
                    .insert(DecodeTerms {
                        batch: tokens,
                        ctx: *ctx,
                        terms: ops.map(|op| price(&op)),
                    })
                    .terms
            }
        };
        fold(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aum_platform::units::GbPerSec;

    fn setup() -> (ModelConfig, AuKernels, PlatformSpec) {
        let spec = PlatformSpec::gen_a();
        (
            ModelConfig::llama2_7b(),
            AuKernels::for_platform(&spec),
            spec,
        )
    }

    /// Every field of `iteration_cost`'s output and PMU counters, pinned
    /// bit for bit on the GenA decode `(16, 855)` and prefill `(755, 755)`
    /// shapes, so a change to the pricing path that moves any number fails
    /// here before it reaches a golden.
    #[test]
    fn iteration_cost_is_pinned_bit_for_bit() {
        let (model, kernels, spec) = setup();
        let cases = [
            (
                Phase::Decode,
                16,
                855,
                3.1,
                88_146_648,
                [
                    0x4249_7400_0000_0000,
                    0x4213_311f_a000_0000,
                    0x40a3_669a_8615_7d5c,
                    0x3ff0_0000_0000_0000,
                    0x3fee_f1b2_fee6_6260,
                ],
                [
                    0x4218_6e4d_3933_3333,
                    0x41af_a6ca_fd79_c8da,
                    0x4190_7573_cb7c_c49a,
                    0x419a_e175_58f9_0a23,
                    0,
                    0x4218_6e4d_3933_3333,
                ],
            ),
            (
                Phase::Prefill,
                755,
                755,
                2.5,
                258_739_478,
                [
                    0x42a2_55cd_c000_0000,
                    0x4215_bc1a_2e00_0000,
                    0x4057_b846_be12_8852,
                    0x3fb5_ce9c_b3a2_32eb,
                    0x3fef_fe2d_aedf_94db,
                ],
                [
                    0x422c_ea98_8940_0000,
                    0x4207_92ab_cd83_b0f1,
                    0x41e8_840e_d5bc_28a8,
                    0x4180_b2fe_35ac_3384,
                    0,
                    0x422c_ea98_8940_0000,
                ],
            ),
        ];
        for (phase, tokens, context, freq, nanos, cost_bits, pmu_bits) in cases {
            let ctx = ExecContext::new(96, freq, spec.mem_bw);
            let mut pmu = PmuCounters::new();
            let c = iteration_cost(
                &model,
                phase,
                tokens,
                context,
                Precision::Bf16,
                &kernels,
                &ctx,
                &mut pmu,
            );
            assert_eq!(c.time.as_nanos(), nanos, "{phase} time");
            let got = [
                c.flops,
                c.bytes,
                c.bw_demand_gbs,
                c.memory_bound_frac,
                c.amx_flop_frac,
            ];
            assert_eq!(got.map(f64::to_bits), cost_bits, "{phase} cost {got:?}");
            let got = [
                pmu.cycles,
                pmu.amx_busy_cycles,
                pmu.amx_fp_uops,
                pmu.avx_fp_uops,
                pmu.scalar_fp_uops,
                pmu.total_uops,
            ];
            assert_eq!(got.map(f64::to_bits), pmu_bits, "{phase} pmu {got:?}");
        }
    }

    #[test]
    fn decode_iteration_time_is_realistic() {
        // §III-B: GenA serves ≈188 tokens/s at bs16 → iteration ≈85 ms.
        let (model, kernels, spec) = setup();
        let ctx = ExecContext::new(96, 3.1, spec.mem_bw);
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ctx,
            &mut pmu,
        );
        let ms = cost.time.as_millis_f64();
        assert!(
            (60.0..=140.0).contains(&ms),
            "decode iteration ≈85-100 ms, got {ms}"
        );
    }

    #[test]
    fn prefill_of_755_tokens_takes_fraction_of_second() {
        // TTFT for the chatbot scenario: ≈0.25-0.4 s on the full machine.
        let (model, kernels, spec) = setup();
        let ctx = ExecContext::new(96, 2.5, spec.mem_bw);
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &model,
            Phase::Prefill,
            755,
            755,
            Precision::Bf16,
            &kernels,
            &ctx,
            &mut pmu,
        );
        let s = cost.time.as_secs_f64();
        assert!(
            (0.15..=0.6).contains(&s),
            "prefill of 755 tokens ≈0.25-0.4 s, got {s}"
        );
    }

    #[test]
    fn decode_is_memory_dominated_prefill_is_not() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let decode = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, spec.mem_bw),
            &mut pmu,
        );
        let prefill = iteration_cost(
            &model,
            Phase::Prefill,
            8192,
            512,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 2.5, spec.mem_bw),
            &mut pmu,
        );
        assert!(
            decode.memory_bound_frac > 0.8,
            "decode mem frac {}",
            decode.memory_bound_frac
        );
        assert!(
            prefill.memory_bound_frac < 0.4,
            "prefill mem frac {}",
            prefill.memory_bound_frac
        );
    }

    #[test]
    fn decode_demands_more_bandwidth_than_pool() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, spec.mem_bw),
            &mut pmu,
        );
        assert!(
            cost.bw_demand_gbs > spec.mem_bw.value(),
            "decode saturates the pool"
        );
    }

    #[test]
    fn prefill_flops_mostly_on_amx() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &model,
            Phase::Prefill,
            8192,
            512,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 2.5, spec.mem_bw),
            &mut pmu,
        );
        assert!(
            cost.amx_flop_frac > 0.9,
            "prefill amx flop frac {}",
            cost.amx_flop_frac
        );
    }

    #[test]
    fn pmu_ratios_match_table2_shape() {
        // llama2-7b Table II: prefill amx cycle ratio 14.4%, decode 1.5%.
        let (model, kernels, spec) = setup();
        let mut prefill_pmu = PmuCounters::new();
        let _ = iteration_cost(
            &model,
            Phase::Prefill,
            8192,
            512,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 2.5, spec.mem_bw),
            &mut prefill_pmu,
        );
        let mut decode_pmu = PmuCounters::new();
        let _ = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, spec.mem_bw),
            &mut decode_pmu,
        );
        let p = prefill_pmu.amx_cycle_ratio();
        let d = decode_pmu.amx_cycle_ratio();
        assert!((0.08..=0.25).contains(&p), "prefill cycle ratio {p}");
        assert!((0.004..=0.04).contains(&d), "decode cycle ratio {d}");
        assert!(p > 5.0 * d, "prefill uses AMX far more than decode");
        assert!(
            decode_pmu.avx_inst_ratio() > prefill_pmu.avx_inst_ratio(),
            "decode leans on AVX more (§IV-A1)"
        );
    }

    #[test]
    fn throttled_bandwidth_slows_decode() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let full = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, spec.mem_bw),
            &mut pmu,
        );
        let half = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, GbPerSec(spec.mem_bw.value() / 2.0)),
            &mut pmu,
        );
        let ratio = half.time.as_secs_f64() / full.time.as_secs_f64();
        assert!(
            ratio > 1.6,
            "halving bandwidth nearly doubles decode, got {ratio}"
        );
    }

    #[test]
    fn fewer_cores_barely_hurt_decode_but_hurt_prefill() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let run = |phase, tokens, ctx_len, cores| {
            iteration_cost(
                &model,
                phase,
                tokens,
                ctx_len,
                Precision::Bf16,
                &kernels,
                &ExecContext::new(cores, 2.8, spec.mem_bw),
                &mut PmuCounters::new(),
            )
            .time
            .as_secs_f64()
        };
        let _ = &mut pmu;
        let decode_ratio = run(Phase::Decode, 16, 855, 24) / run(Phase::Decode, 16, 855, 96);
        assert!(
            decode_ratio < 1.35,
            "decode is core-insensitive, got {decode_ratio}"
        );
        let prefill_ratio = run(Phase::Prefill, 755, 755, 24) / run(Phase::Prefill, 755, 755, 96);
        assert!(
            prefill_ratio > 2.0,
            "prefill is core-hungry, got {prefill_ratio}"
        );
    }
}
