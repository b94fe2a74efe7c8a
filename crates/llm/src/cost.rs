//! Iteration cost evaluation.
//!
//! Prices an operator list ([`crate::ops::iteration_ops`]) through the
//! roofline cost model under a concrete execution context: each operator
//! runs on the better AU (or its forced one), its time scaled by its
//! repeat count, and the terms fold in operator order. [`iteration_cost`]
//! prices each operator through [`gemm_time`] or [`pick_unit`] and records
//! synthetic PMU counters — the serving-engine analogue of running one
//! xFasterTransformer step under `perf` — for the characterization
//! studies. The serving engine prices through an [`IterationPricer`]
//! instead: it returns only what the engine reads, and keeps each decode
//! operator's roofline legs under the inputs each leg reads.

use serde::{Deserialize, Serialize};

use aum_au::counters::PmuCounters;
use aum_au::gemm::{
    combine, gemm_time, pick_unit, Bound, ComputeRoof, ExecContext, GemmExecution, GemmShape, Leg,
    MemoryRoof,
};
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

    /// The compute roofs of AMX and AVX-512, in that order.
    fn roofs(&self, prec: Precision, ctx: &ExecContext) -> [ComputeRoof; 2] {
        [&self.amx, &self.avx].map(|unit| ComputeRoof::new(unit, prec, ctx))
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

/// What the serving engine reads of an iteration's cost: the
/// [`IterationCost`] fields of the same names, with the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationPrice {
    /// Wall time of the iteration.
    pub time: SimDuration,
    /// Bandwidth demand, as [`IterationCost::bw_demand_gbs`].
    pub bw_demand_gbs: f64,
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
    let priced = ops.map(|op| {
        let (unit, exec) = match op.unit {
            Some(AuKind::Avx512) => (&kernels.avx, gemm_time(op.shape, prec, &kernels.avx, ctx)),
            Some(AuKind::Amx) => (&kernels.amx, gemm_time(op.shape, prec, &kernels.amx, ctx)),
            Some(AuKind::Scalar) | None => {
                pick_unit(op.shape, prec, &kernels.amx, &kernels.avx, ctx)
            }
        };
        let term = Term::scaled(exec.time, exec.compute_time, &op, prec);
        // One scaled execution per operator.
        let scaled = GemmExecution {
            time: term.time,
            au_busy_cycles_per_core: exec.au_busy_cycles_per_core * op.repeat as f64,
            ..exec
        };
        pmu.record_gemm(&scaled, unit.kind, ctx.cores, ctx.freq_ghz);
        (unit.kind, exec.bound, term)
    });
    let total = fold(priced.map(|(_, _, term)| term));
    let mut flops = 0.0;
    let mut memory_bound_secs = 0.0;
    let mut amx_flops = 0.0;
    for (op, (unit, bound, term)) in ops.iter().zip(priced) {
        flops += op.total_flops();
        if bound == Bound::Memory {
            memory_bound_secs += term.time.as_secs_f64();
        }
        if unit == AuKind::Amx {
            amx_flops += op.total_flops();
        }
    }
    let wall = total.time.as_secs_f64().max(1e-12);
    IterationCost {
        time: total.time,
        flops,
        bytes: total.bytes,
        bw_demand_gbs: total.bw_demand_gbs(),
        memory_bound_frac: (memory_bound_secs / wall).clamp(0.0, 1.0),
        amx_flop_frac: if flops > 0.0 { amx_flops / flops } else { 0.0 },
    }
}

/// One operator's share of an iteration, scaled by its repeat count: wall
/// time, traffic and rounded compute leg.
#[derive(Debug, Clone, Copy, Default)]
struct Term {
    time: SimDuration,
    bytes: f64,
    compute_secs: f64,
}

impl Term {
    /// The term of `op` from one instance's rounded wall and compute
    /// times. Repeats share one launch; the steady-state legs scale.
    fn scaled(time: SimDuration, compute_time: SimDuration, op: &IterOp, prec: Precision) -> Self {
        let repeat = op.repeat as f64;
        Term {
            time: scale(time, op.repeat),
            bytes: op.shape.bytes(prec) * repeat,
            compute_secs: compute_time.as_secs_f64() * repeat,
        }
    }

    /// The bandwidth the terms could consume if the memory leg were free.
    fn bw_demand_gbs(&self) -> f64 {
        self.bytes / self.compute_secs.max(1e-9) / 1e9
    }

    fn price(&self) -> IterationPrice {
        IterationPrice {
            time: self.time,
            bw_demand_gbs: self.bw_demand_gbs(),
        }
    }
}

/// `SimDuration::from_secs_f64(time.as_secs_f64() × repeat)`, in integers
/// when the product is below 2^50 ns: there the three correctly rounded
/// float operations err by less than 3.4e-16 relative, under 0.38 ns, so
/// the float path rounds to the exact product too.
fn scale(time: SimDuration, repeat: usize) -> SimDuration {
    match time.as_nanos().checked_mul(repeat as u64) {
        Some(nanos) if nanos < 1 << 50 => SimDuration::from_nanos(nanos),
        _ => SimDuration::from_secs_f64(time.as_secs_f64() * repeat as f64),
    }
}

/// Sums the terms in operator order: the wall times in integers, the
/// traffic and the compute legs in floats.
fn fold(terms: [Term; 8]) -> Term {
    terms.into_iter().fold(Term::default(), |sum, t| Term {
        time: sum.time + t.time,
        bytes: sum.bytes + t.bytes,
        compute_secs: sum.compute_secs + t.compute_secs,
    })
}

/// Prices one serving engine's iterations for a fixed model, precision and
/// kernel set: the `time` and `bw_demand_gbs` of [`iteration_cost`], bit
/// for bit, without the PMU counters or the other fields.
///
/// Each operator's roofline price splits into a compute leg, which reads
/// the shape, the unit, the cores, the frequency and the compute penalty
/// ([`ComputeRoof`]), and a memory leg, which reads the shape, the
/// reachable bandwidth and the memory penalty ([`MemoryRoof`]). In decode,
/// six of the eight operators (`qkv_proj`, `attn_out`, `ffn_gate_up`,
/// `ffn_down`, `lm_head` and `glue`) read only the batch and the model, so
/// the pricer keeps their legs per batch size:
///
/// - under the *compute key* (cores, frequency bits, compute-penalty
///   bits), each operator's compute leg on each candidate unit, its
///   seconds and their rounding. A new compute key drops the table.
/// - under the *memory key* (bandwidth bits, memory-penalty bits), the
///   term each operator came to. A new memory key re-derives only the
///   memory legs, then the pick and the scaling. (The reachable bandwidth
///   also reads the cores, which the compute key holds.)
///
/// The two attention kernels read the context length, so every decode
/// iteration re-prices them; prefill steps price every operator. Both go
/// through the same roofs and the same [`combine`] step that
/// [`aum_au::gemm::gemm_time`] uses, and the fold runs in the same order,
/// so the result is a pure function of the key bits and equals
/// [`iteration_cost`]'s bit for bit.
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
/// use aum_platform::units::GbPerSec;
///
/// let spec = PlatformSpec::gen_a();
/// let kernels = AuKernels::for_platform(&spec);
/// let model = ModelConfig::llama2_7b();
/// let full = ExecContext::new(96, 3.1, spec.mem_bw);
/// let throttled = ExecContext::new(96, 3.1, GbPerSec(150.0));
/// let mut pricer = IterationPricer::new(model.clone(), Precision::Bf16, kernels);
/// for (context, ctx) in [(855, &full), (856, &full), (857, &throttled)] {
///     let price = pricer.price(Phase::Decode, 16, context, ctx);
///     let mut pmu = PmuCounters::new();
///     let cost = iteration_cost(
///         &model, Phase::Decode, 16, context, Precision::Bf16, &kernels, ctx, &mut pmu,
///     );
///     assert_eq!(price.time, cost.time);
///     assert_eq!(price.bw_demand_gbs.to_bits(), cost.bw_demand_gbs.to_bits());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct IterationPricer {
    model: ModelConfig,
    prec: Precision,
    kernels: AuKernels,
    /// The compute key the decode table was derived under, and the AMX
    /// and AVX-512 compute roofs it gives.
    compute: Option<(ComputeKey, [ComputeRoof; 2])>,
    /// Per decode batch size, the legs derived under `compute`: one boxed
    /// entry per batch size seen.
    batches: Vec<Option<Box<BatchLegs>>>,
}

/// Cores, frequency bits and compute-penalty bits.
type ComputeKey = (usize, u64, u64);

/// Bandwidth bits and memory-penalty bits.
type MemoryKey = (u64, u64);

/// One decode batch size's legs of the operators that do not read the
/// context length (`None` for the two attention kernels, which do), and
/// the terms every operator came to under `memory`.
#[derive(Debug, Clone)]
struct BatchLegs {
    memory: Option<MemoryKey>,
    legs: [Option<OpLegs>; 8],
    terms: [Term; 8],
}

/// One operator's compute legs on its candidate units (AMX, then AVX-512;
/// a forced unit is the only one), and the term each candidate gives it
/// when compute-bound.
#[derive(Debug, Clone, Copy)]
struct OpLegs {
    shape: GemmShape,
    repeat: usize,
    units: usize,
    compute: [Leg; 2],
    terms: [Term; 2],
}

impl OpLegs {
    fn new(op: &IterOp, roofs: &[ComputeRoof; 2], prec: Precision) -> Self {
        let candidates = match op.unit {
            Some(AuKind::Amx) => &roofs[..1],
            Some(AuKind::Avx512) => &roofs[1..],
            Some(AuKind::Scalar) | None => &roofs[..],
        };
        let mut legs = OpLegs {
            shape: op.shape,
            repeat: op.repeat,
            units: candidates.len(),
            compute: [Leg::default(); 2],
            terms: [Term::default(); 2],
        };
        for (i, roof) in candidates.iter().enumerate() {
            let leg = Leg::new(roof.secs(op.shape));
            legs.compute[i] = leg;
            legs.terms[i] = Term::scaled(leg.time, leg.time, op, prec);
        }
        legs
    }

    /// The operator's term under `memory`: its memory leg, the combine
    /// step and the scaling.
    fn term(&self, memory: &MemoryRoof) -> Term {
        let wall = combine(&self.compute[..self.units], memory.secs(self.shape));
        Term {
            time: scale(wall.time, self.repeat),
            ..self.terms[wall.unit]
        }
    }
}

impl IterationPricer {
    /// A pricer for `model` served at `prec` on `kernels`.
    #[must_use]
    pub fn new(model: ModelConfig, prec: Precision, kernels: AuKernels) -> Self {
        IterationPricer {
            model,
            prec,
            kernels,
            compute: None,
            batches: Vec::new(),
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
    ) -> IterationPrice {
        let _prof = aum_sim::prof::scope("cost.eval_ops");
        let ops = iteration_ops(&self.model, phase, tokens, context);
        let memory = MemoryRoof::new(self.prec, ctx);
        if phase == Phase::Prefill {
            let roofs = self.kernels.roofs(self.prec, ctx);
            return fold(ops.map(|op| OpLegs::new(&op, &roofs, self.prec).term(&memory))).price();
        }
        let compute_key = (
            ctx.cores,
            ctx.freq_ghz.to_bits(),
            ctx.compute_penalty.to_bits(),
        );
        let roofs = match &self.compute {
            Some((key, roofs)) if *key == compute_key => roofs,
            _ => {
                self.batches.clear();
                let roofs = self.kernels.roofs(self.prec, ctx);
                &self.compute.insert((compute_key, roofs)).1
            }
        };
        if self.batches.len() <= tokens {
            self.batches.resize(tokens + 1, None);
        }
        let batch = self.batches[tokens].get_or_insert_with(|| {
            Box::new(BatchLegs {
                memory: None,
                legs: ops.map(|op| {
                    (op.class != OpClass::Attention).then(|| OpLegs::new(&op, roofs, self.prec))
                }),
                terms: [Term::default(); 8],
            })
        });
        let memory_key = Some((
            ctx.bandwidth.value().to_bits(),
            ctx.memory_penalty.to_bits(),
        ));
        let stale = batch.memory != memory_key;
        batch.memory = memory_key;
        for ((term, legs), op) in batch.terms.iter_mut().zip(&batch.legs).zip(&ops) {
            match legs {
                Some(legs) if stale => *term = legs.term(&memory),
                Some(_) => {}
                None => *term = OpLegs::new(op, roofs, self.prec).term(&memory),
            }
        }
        fold(batch.terms).price()
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

    proptest::proptest! {
        // `scale` against the float scaling it replaces, up to and just
        // below the 2^50 ns bound of its integer path, and past it.
        #[test]
        fn integer_scaling_equals_float_scaling(
            repeat in 1usize..1 << 12,
            below in 1u64..1 << 20,
            nanos in 0u64..1 << 40,
        ) {
            let float = |t: SimDuration| SimDuration::from_secs_f64(t.as_secs_f64() * repeat as f64);
            let tight = SimDuration::from_nanos(((1 << 50) - below) / repeat as u64);
            for t in [tight, SimDuration::from_nanos(nanos), SimDuration::from_nanos(nanos << 12)] {
                proptest::prop_assert_eq!(scale(t, repeat), float(t), "{:?} x {}", t, repeat);
            }
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
