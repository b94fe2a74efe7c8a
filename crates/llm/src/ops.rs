//! Per-iteration operator graphs.
//!
//! One serving iteration of a transformer decomposes into weight GEMMs
//! (QKV/out/FFN projections, LM head), attention kernels over the KV cache,
//! and element-wise glue (norms, RoPE, softmax, residuals). The operator
//! dimensions — and through them the AU usage pattern — differ radically
//! between phases (§IV-A3): prefill projections have `m = batch×len`
//! (compute-bound, AMX), decode projections have `m = batch`
//! (bandwidth-bound), and attention kernels are vector-sized (AVX).

use serde::{Deserialize, Serialize};

use aum_au::gemm::GemmShape;
use aum_au::unit::AuKind;

use crate::config::ModelConfig;

/// LLM serving phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Prompt processing: all input tokens at once, produces the first token.
    Prefill,
    /// Auto-regressive generation: one token per active request per step.
    Decode,
}

impl core::fmt::Display for Phase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Phase::Prefill => write!(f, "prefill"),
            Phase::Decode => write!(f, "decode"),
        }
    }
}

/// Functional class of an operator (used for PMU/top-down synthesis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Weight-matrix GEMM (streams model weights).
    Projection,
    /// Attention score/context kernel (streams the KV cache).
    Attention,
    /// Vocabulary projection.
    LmHead,
    /// Element-wise glue: norms, activations, RoPE, residuals, sampling.
    Glue,
}

/// One operator of an iteration, possibly repeated (per layer / per head).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterOp {
    /// Short label for traces and tests.
    pub label: &'static str,
    /// GEMM-equivalent shape of one instance.
    pub shape: GemmShape,
    /// Number of identical instances in the iteration.
    pub repeat: usize,
    /// Functional class.
    pub class: OpClass,
    /// Forced unit, or `None` to let the cost model pick AMX vs AVX.
    pub unit: Option<AuKind>,
}

impl IterOp {
    /// Total floating-point operations across repeats.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.shape.flops() * self.repeat as f64
    }
}

/// Effective FFN width: `2×ffn` for fused gate+up in dense models (this is
/// where the paper's `N = 22016 = 2×11008` GEMMs come from), or the active
/// experts' combined width for MoE.
fn ffn_up_width(model: &ModelConfig) -> usize {
    match model.moe {
        None => 2 * model.ffn_dim,
        Some(m) => 2 * m.active_experts * m.expert_ffn_dim,
    }
}

fn ffn_down_width(model: &ModelConfig) -> usize {
    match model.moe {
        None => model.ffn_dim,
        Some(m) => m.active_experts * m.expert_ffn_dim,
    }
}

/// Builds the operator list for one iteration, in pricing order.
///
/// For prefill, `tokens` is `batch × prompt_len` and `context` the prompt
/// length; for decode, `tokens` is the batch size and `context` the average
/// context length of the active requests.
///
/// # Panics
///
/// Panics if `tokens` or `context` is zero.
///
/// # Examples
///
/// ```
/// use aum_llm::config::ModelConfig;
/// use aum_llm::ops::{iteration_ops, Phase};
///
/// let ops = iteration_ops(&ModelConfig::llama2_7b(), Phase::Decode, 16, 755);
/// let ffn = ops.iter().find(|o| o.label == "ffn_gate_up").unwrap();
/// assert_eq!(ffn.shape.n, 22016); // the paper's decode GEMM width
/// assert_eq!(ffn.shape.m, 16);
/// ```
#[must_use]
pub fn iteration_ops(
    model: &ModelConfig,
    phase: Phase,
    tokens: usize,
    context: usize,
) -> [IterOp; 8] {
    assert!(tokens > 0, "iteration needs at least one token");
    assert!(context > 0, "context length must be positive");
    let d = model.d_model;
    let hd = model.head_dim();
    let layers = model.layers;
    let m = tokens;
    // Attention kernel row count: in prefill each prompt's rows attend
    // over the context — for a *chunked* prefill step (`m < context`) only
    // the chunk's rows attend over the accumulated prefix, not the full
    // square; in decode each token attends from a single new row.
    let (attn_m, attn_batches) = match phase {
        Phase::Prefill => {
            let prompts = (m / context).max(1);
            let rows = (m / prompts).clamp(1, context);
            (rows, prompts * model.n_heads * layers)
        }
        Phase::Decode => (1, m * model.n_heads * layers),
    };
    // §IV-A1: decode's vector-size attention runs on AVX ("the avx_insts
    // metric of the decode phase is higher"); prefill's large score
    // matrices are free to use AMX.
    let attn_unit = match phase {
        Phase::Prefill => None,
        Phase::Decode => Some(AuKind::Avx512),
    };
    let lm_rows = match phase {
        Phase::Prefill => (m / context).max(1), // only last position per prompt
        Phase::Decode => m,
    };
    [
        IterOp {
            label: "qkv_proj",
            shape: GemmShape::new(m, d, d + model.kv_dim()),
            repeat: layers,
            class: OpClass::Projection,
            unit: None,
        },
        IterOp {
            label: "attn_score",
            shape: GemmShape::new(attn_m, hd, context),
            repeat: attn_batches,
            class: OpClass::Attention,
            unit: attn_unit,
        },
        IterOp {
            label: "attn_context",
            shape: GemmShape::new(attn_m, context, hd),
            repeat: attn_batches,
            class: OpClass::Attention,
            unit: attn_unit,
        },
        IterOp {
            label: "attn_out",
            shape: GemmShape::new(m, d, d),
            repeat: layers,
            class: OpClass::Projection,
            unit: None,
        },
        IterOp {
            label: "ffn_gate_up",
            shape: GemmShape::new(m, d, ffn_up_width(model)),
            repeat: layers,
            class: OpClass::Projection,
            unit: None,
        },
        IterOp {
            label: "ffn_down",
            shape: GemmShape::new(m, ffn_down_width(model), d),
            repeat: layers,
            class: OpClass::Projection,
            unit: None,
        },
        IterOp {
            label: "lm_head",
            shape: GemmShape::new(lm_rows, d, model.vocab),
            repeat: 1,
            class: OpClass::LmHead,
            unit: None,
        },
        IterOp {
            label: "glue",
            shape: GemmShape::new(m, 10, d),
            repeat: layers,
            class: OpClass::Glue,
            unit: Some(AuKind::Avx512),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aum_au::unit::Precision;

    #[test]
    fn decode_ffn_matches_paper_shape() {
        // §IV-A3: most decode GEMMs are 16×4096×22016.
        let ops = iteration_ops(&ModelConfig::llama2_7b(), Phase::Decode, 16, 855);
        let ffn = ops
            .iter()
            .find(|o| o.label == "ffn_gate_up")
            .expect("ffn present");
        assert_eq!(ffn.shape, GemmShape::new(16, 4096, 22016));
    }

    #[test]
    fn prefill_ffn_matches_paper_shape() {
        // §IV-A3: most prefill GEMMs are 8192×4096×22016 (bs16 × len 512).
        let ops = iteration_ops(&ModelConfig::llama2_7b(), Phase::Prefill, 16 * 512, 512);
        let ffn = ops
            .iter()
            .find(|o| o.label == "ffn_gate_up")
            .expect("ffn present");
        assert_eq!(ffn.shape, GemmShape::new(8192, 4096, 22016));
    }

    #[test]
    fn prefill_flops_scale_with_params() {
        // Forward pass ≈ 2 × params × tokens.
        let model = ModelConfig::llama2_7b();
        let tokens = 755;
        let ops = iteration_ops(&model, Phase::Prefill, tokens, tokens);
        let flops: f64 = ops.iter().map(IterOp::total_flops).sum();
        let expect = 2.0 * model.param_count() * tokens as f64;
        let ratio = flops / expect;
        assert!((0.7..=1.3).contains(&ratio), "flops/2NP ratio {ratio}");
    }

    #[test]
    fn decode_projection_bytes_stream_the_weights() {
        let model = ModelConfig::llama2_7b();
        let ops = iteration_ops(&model, Phase::Decode, 16, 855);
        let proj_bytes: f64 = ops
            .iter()
            .filter(|o| matches!(o.class, OpClass::Projection | OpClass::LmHead))
            .map(|o| o.shape.bytes(Precision::Bf16) * o.repeat as f64)
            .sum();
        let weights = model.weight_bytes(Precision::Bf16);
        let ratio = proj_bytes / weights;
        assert!(
            (0.8..=1.3).contains(&ratio),
            "projection traffic ≈ weights, ratio {ratio}"
        );
    }

    #[test]
    fn decode_attention_bytes_stream_the_kv_cache() {
        let model = ModelConfig::llama2_7b();
        let batch = 16;
        let ctx = 855;
        let ops = iteration_ops(&model, Phase::Decode, batch, ctx);
        let attn_bytes: f64 = ops
            .iter()
            .filter(|o| o.class == OpClass::Attention)
            .map(|o| o.shape.bytes(Precision::Bf16) * o.repeat as f64)
            .sum();
        let kv = model.kv_bytes_per_token(Precision::Bf16) * (batch * ctx) as f64;
        let ratio = attn_bytes / kv;
        assert!(
            (0.8..=1.4).contains(&ratio),
            "attention traffic ≈ KV cache, ratio {ratio}"
        );
    }

    #[test]
    fn attention_is_avx_in_decode_and_free_in_prefill() {
        let decode = iteration_ops(&ModelConfig::llama2_7b(), Phase::Decode, 16, 855);
        for op in &decode {
            match op.class {
                OpClass::Attention | OpClass::Glue => assert_eq!(op.unit, Some(AuKind::Avx512)),
                _ => assert_eq!(op.unit, None),
            }
        }
        let prefill = iteration_ops(&ModelConfig::llama2_7b(), Phase::Prefill, 8192, 512);
        for op in &prefill {
            match op.class {
                OpClass::Glue => assert_eq!(op.unit, Some(AuKind::Avx512)),
                _ => assert_eq!(op.unit, None),
            }
        }
    }

    #[test]
    fn moe_uses_active_expert_width() {
        let q = ModelConfig::qwen3_30b_a3b();
        let ops = iteration_ops(&q, Phase::Decode, 16, 500);
        let ffn = ops.iter().find(|o| o.label == "ffn_gate_up").expect("ffn");
        assert_eq!(ffn.shape.n, 2 * 8 * 768);
    }

    #[test]
    fn prefill_lm_head_only_processes_last_positions() {
        let ops = iteration_ops(&ModelConfig::llama2_7b(), Phase::Prefill, 2 * 755, 755);
        let head = ops.iter().find(|o| o.label == "lm_head").expect("lm head");
        assert_eq!(head.shape.m, 2);
    }

    #[test]
    fn chunked_prefill_attention_covers_chunk_rows_only() {
        // A 512-token chunk at prefix 7000 attends 512×7000, not 7000².
        let model = ModelConfig::llama2_7b();
        let ops = iteration_ops(&model, Phase::Prefill, 512, 7000);
        let score = ops.iter().find(|o| o.label == "attn_score").expect("score");
        assert_eq!(score.shape.m, 512);
        assert_eq!(score.shape.n, 7000);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_tokens_rejected() {
        let _ = iteration_ops(&ModelConfig::llama2_7b(), Phase::Decode, 0, 100);
    }
}
