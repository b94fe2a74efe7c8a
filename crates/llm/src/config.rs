//! LLM architecture configurations.
//!
//! Presets for the six models the paper characterizes in Table II: Phi-3
//! Mini (3.8B), Llama2-7B, Llama3-8B, Gemma2-9B, Llama2-13B and the
//! Qwen3-30B-A3B mixture-of-experts model. Dimensions follow the public
//! model cards; parameter counts derived from them land within a few
//! percent of the marketing sizes, which is all the cost model needs.

use serde::{Deserialize, Serialize};

use aum_au::unit::Precision;

/// Mixture-of-experts configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoeConfig {
    /// Total routed experts per layer.
    pub experts: usize,
    /// Experts activated per token.
    pub active_experts: usize,
    /// Hidden dimension of one expert's FFN.
    pub expert_ffn_dim: usize,
}

/// Transformer architecture description.
///
/// # Examples
///
/// ```
/// use aum_llm::config::ModelConfig;
///
/// let m = ModelConfig::llama2_7b();
/// let params = m.param_count() / 1e9;
/// assert!((6.0..8.0).contains(&params));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable model name.
    pub name: String,
    /// Transformer layer count.
    pub layers: usize,
    /// Model (embedding) dimension `d`.
    pub d_model: usize,
    /// Attention query heads.
    pub n_heads: usize,
    /// Key/value heads (grouped-query attention when < `n_heads`).
    pub n_kv_heads: usize,
    /// FFN intermediate dimension (per expert for MoE models).
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Mixture-of-experts configuration, if any.
    pub moe: Option<MoeConfig>,
}

impl ModelConfig {
    /// Phi-3-Mini-128K-Instruct, 3.8B (Table II row 1).
    #[must_use]
    pub fn phi3_mini() -> Self {
        ModelConfig {
            name: "phi3-3.8b".to_owned(),
            layers: 32,
            d_model: 3072,
            n_heads: 32,
            n_kv_heads: 32,
            ffn_dim: 8192,
            vocab: 32064,
            moe: None,
        }
    }

    /// Llama2-7B — the paper's primary serving model.
    #[must_use]
    pub fn llama2_7b() -> Self {
        ModelConfig {
            name: "llama2-7b".to_owned(),
            layers: 32,
            d_model: 4096,
            n_heads: 32,
            n_kv_heads: 32,
            ffn_dim: 11008,
            vocab: 32000,
            moe: None,
        }
    }

    /// Llama3-8B (Table II row 3).
    #[must_use]
    pub fn llama3_8b() -> Self {
        ModelConfig {
            name: "llama3-8b".to_owned(),
            layers: 32,
            d_model: 4096,
            n_heads: 32,
            n_kv_heads: 8,
            ffn_dim: 14336,
            vocab: 128256,
            moe: None,
        }
    }

    /// Gemma2-9B (Table II row 4).
    #[must_use]
    pub fn gemma2_9b() -> Self {
        ModelConfig {
            name: "gemma2-9b".to_owned(),
            layers: 42,
            d_model: 3584,
            n_heads: 16,
            n_kv_heads: 8,
            ffn_dim: 14336,
            vocab: 256000,
            moe: None,
        }
    }

    /// Llama2-13B (Table II "Llama2 14B" row).
    #[must_use]
    pub fn llama2_13b() -> Self {
        ModelConfig {
            name: "llama2-13b".to_owned(),
            layers: 40,
            d_model: 5120,
            n_heads: 40,
            n_kv_heads: 40,
            ffn_dim: 13824,
            vocab: 32000,
            moe: None,
        }
    }

    /// Qwen3-30B-A3B mixture-of-experts (Table II row 6).
    #[must_use]
    pub fn qwen3_30b_a3b() -> Self {
        ModelConfig {
            name: "qwen3-30b-a3b".to_owned(),
            layers: 48,
            d_model: 2048,
            n_heads: 32,
            n_kv_heads: 4,
            ffn_dim: 768,
            vocab: 151936,
            moe: Some(MoeConfig {
                experts: 128,
                active_experts: 8,
                expert_ffn_dim: 768,
            }),
        }
    }

    /// The six Table II models, in the table's order.
    #[must_use]
    pub fn table2_models() -> Vec<ModelConfig> {
        vec![
            Self::phi3_mini(),
            Self::llama2_7b(),
            Self::llama3_8b(),
            Self::gemma2_9b(),
            Self::llama2_13b(),
            Self::qwen3_30b_a3b(),
        ]
    }

    /// Rejects a model no run can serve, naming the field: a zero layer,
    /// width, head, FFN or vocabulary count, more query heads than the
    /// width (a zero head dimension), more key/value heads than query
    /// heads, or an expert block with a zero count or width or more
    /// active experts than routed ones.
    ///
    /// # Errors
    ///
    /// The first unusable field, described by name.
    pub fn validate(&self) -> Result<(), String> {
        let moe = self
            .moe
            .map_or([1; 3], |m| [m.experts, m.active_experts, m.expert_ffn_dim]);
        let counts = [
            ("layers", self.layers),
            ("d_model", self.d_model),
            ("n_heads", self.n_heads),
            ("n_kv_heads", self.n_kv_heads),
            ("ffn_dim", self.ffn_dim),
            ("vocab", self.vocab),
            ("moe.experts", moe[0]),
            ("moe.active_experts", moe[1]),
            ("moe.expert_ffn_dim", moe[2]),
        ];
        if let Some((field, _)) = counts.iter().find(|(_, n)| *n == 0) {
            return Err(format!("{field} must be at least 1, got 0"));
        }
        for (field, n, limit, max) in [
            ("n_heads", self.n_heads, "d_model", self.d_model),
            ("n_kv_heads", self.n_kv_heads, "n_heads", self.n_heads),
            ("moe.active_experts", moe[1], "moe.experts", moe[0]),
        ] {
            if n > max {
                return Err(format!("{field} {n} exceeds {limit} {max}"));
            }
        }
        Ok(())
    }

    /// Attention head dimension.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Key+value projection width (`2 × kv_heads × head_dim`).
    #[must_use]
    pub fn kv_dim(&self) -> usize {
        2 * self.n_kv_heads * self.head_dim()
    }

    /// Total parameter count (attention + FFN/experts + embeddings).
    #[must_use]
    pub fn param_count(&self) -> f64 {
        let d = self.d_model as f64;
        let attn = d * d + d * (self.kv_dim() as f64) + d * d; // QKV + out proj
        let ffn = match self.moe {
            None => 3.0 * d * self.ffn_dim as f64, // gate+up+down
            Some(m) => m.experts as f64 * 3.0 * d * m.expert_ffn_dim as f64,
        };
        let per_layer = attn + ffn;
        let embeddings = 2.0 * d * self.vocab as f64;
        per_layer * self.layers as f64 + embeddings
    }

    /// Parameters touched per token — for MoE only active experts stream.
    #[must_use]
    pub fn active_param_count(&self) -> f64 {
        match self.moe {
            None => self.param_count(),
            Some(m) => {
                let d = self.d_model as f64;
                let attn = 2.0 * d * d + d * self.kv_dim() as f64;
                let ffn = m.active_experts as f64 * 3.0 * d * m.expert_ffn_dim as f64;
                (attn + ffn) * self.layers as f64 + 2.0 * d * self.vocab as f64
            }
        }
    }

    /// Resident weight bytes at the given precision.
    #[must_use]
    pub fn weight_bytes(&self, prec: Precision) -> f64 {
        self.param_count() * prec.bytes() as f64
    }

    /// Weight bytes streamed from memory per forward pass (active experts
    /// only for MoE — §IV-A2: "sparse expert activation of the MoE
    /// architecture can relieve the memory pressure").
    #[must_use]
    pub fn streamed_weight_bytes(&self, prec: Precision) -> f64 {
        self.active_param_count() * prec.bytes() as f64
    }

    /// KV-cache bytes per token of context.
    #[must_use]
    pub fn kv_bytes_per_token(&self, prec: Precision) -> f64 {
        (self.layers * self.kv_dim()) as f64 * prec.bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_match_marketing_sizes() {
        let cases = [
            (ModelConfig::phi3_mini(), 3.8),
            (ModelConfig::llama2_7b(), 6.7),
            (ModelConfig::llama3_8b(), 8.0),
            (ModelConfig::gemma2_9b(), 9.2),
            (ModelConfig::llama2_13b(), 13.0),
            (ModelConfig::qwen3_30b_a3b(), 30.5),
        ];
        for (m, expect_b) in cases {
            let got = m.param_count() / 1e9;
            let err = (got - expect_b).abs() / expect_b;
            assert!(
                err < 0.25,
                "{}: expected ≈{expect_b}B params, got {got:.2}B",
                m.name
            );
        }
    }

    #[test]
    fn moe_streams_far_less_than_it_stores() {
        let q = ModelConfig::qwen3_30b_a3b();
        let total = q.param_count();
        let active = q.active_param_count();
        assert!(
            active < total / 5.0,
            "MoE streams a small fraction: {active} vs {total}"
        );
        assert!(
            (2.5e9..5.0e9).contains(&active),
            "≈3B active params, got {active}"
        );
    }

    #[test]
    fn dense_model_streams_everything() {
        let m = ModelConfig::llama2_7b();
        assert_eq!(m.param_count(), m.active_param_count());
        assert!((m.weight_bytes(Precision::Bf16) - m.param_count() * 2.0).abs() < 1.0);
    }

    #[test]
    fn gqa_shrinks_kv() {
        let l2 = ModelConfig::llama2_7b();
        let l3 = ModelConfig::llama3_8b();
        assert!(l3.kv_bytes_per_token(Precision::Bf16) < l2.kv_bytes_per_token(Precision::Bf16));
    }

    #[test]
    fn head_dims_divide() {
        for m in ModelConfig::table2_models() {
            assert_eq!(m.d_model % m.n_heads, 0, "{}", m.name);
            assert!(m.head_dim() >= 64);
        }
    }

    #[test]
    fn kv_bytes_formula() {
        let m = ModelConfig::llama2_7b();
        // 32 layers * 2 * 32 heads * 128 dim * 2 bytes = 524288
        assert!((m.kv_bytes_per_token(Precision::Bf16) - 524_288.0).abs() < 1.0);
    }

    #[test]
    fn table2_has_six_models() {
        assert_eq!(ModelConfig::table2_models().len(), 6);
    }
}
