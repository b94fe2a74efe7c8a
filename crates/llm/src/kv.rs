//! KV-cache capacity accounting.
//!
//! Serving memory holds the model weights plus one KV entry per token of
//! every active request. On capacity-constrained platforms — GenB carries
//! only 128 GB of HBM (Table I) — the cache budget caps the effective
//! decode batch: a prefilled request may have to wait for admission until
//! resident requests retire. The engine enforces the budget at admission
//! time, mirroring vLLM/xft-style block managers at the granularity this
//! simulation needs.

use serde::{Deserialize, Serialize};

use aum_au::unit::Precision;
use aum_platform::spec::PlatformSpec;

use crate::config::ModelConfig;

/// Fraction of platform memory available to serving after OS/runtime
/// overheads.
const USABLE_MEMORY_FRAC: f64 = 0.9;

/// A KV-cache capacity budget in bytes.
///
/// # Examples
///
/// ```
/// use aum_au::unit::Precision;
/// use aum_llm::config::ModelConfig;
/// use aum_llm::kv::KvBudget;
/// use aum_platform::spec::PlatformSpec;
///
/// let model = ModelConfig::llama2_7b();
/// let b = KvBudget::for_platform(&PlatformSpec::gen_b(), &model, Precision::Bf16)?;
/// // 128 GB HBM minus ≈13 GB of weights leaves roughly 100 GB of cache.
/// assert!(b.capacity_bytes() > 50e9);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvBudget {
    capacity_bytes: f64,
}

impl KvBudget {
    /// A budget of exactly `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not positive and finite.
    #[must_use]
    pub fn from_bytes(bytes: f64) -> Self {
        assert!(
            bytes.is_finite() && bytes > 0.0,
            "budget must be positive, got {bytes}"
        );
        KvBudget {
            capacity_bytes: bytes,
        }
    }

    /// The budget a platform leaves for KV after resident weights and a
    /// 10% runtime overhead.
    ///
    /// # Errors
    ///
    /// When the model's weights do not even fit the platform.
    pub fn for_platform(
        spec: &PlatformSpec,
        model: &ModelConfig,
        prec: Precision,
    ) -> Result<Self, String> {
        let memory = spec.memory_gb as f64 * 1e9 * USABLE_MEMORY_FRAC;
        let weights = model.weight_bytes(prec);
        if memory > weights {
            Ok(KvBudget {
                capacity_bytes: memory - weights,
            })
        } else {
            Err(format!(
                "{} ({} GB) cannot hold {}'s weights",
                spec.name, spec.memory_gb, model.name
            ))
        }
    }

    /// Budget capacity, bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> f64 {
        self.capacity_bytes
    }

    /// Whether a cache occupying `used` bytes can admit a request that will
    /// peak at `peak_extra` additional bytes.
    #[must_use]
    pub fn admits(&self, used: f64, peak_extra: f64) -> bool {
        used + peak_extra <= self.capacity_bytes
    }

    /// Peak KV bytes of one request: its full context (prompt + all output
    /// tokens) at the model's per-token cost.
    #[must_use]
    pub fn request_peak_bytes(
        model: &ModelConfig,
        prec: Precision,
        input_len: usize,
        output_len: usize,
    ) -> f64 {
        (input_len + output_len) as f64 * model.kv_bytes_per_token(prec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_b_budget_is_memory_minus_weights() {
        let model = ModelConfig::llama2_7b();
        let b = KvBudget::for_platform(&PlatformSpec::gen_b(), &model, Precision::Bf16).unwrap();
        let expect = 128e9 * 0.9 - model.weight_bytes(Precision::Bf16);
        assert!((b.capacity_bytes() - expect).abs() < 1.0);
    }

    #[test]
    fn admission_is_exact_at_the_boundary() {
        let b = KvBudget::from_bytes(1000.0);
        assert!(b.admits(400.0, 600.0));
        assert!(!b.admits(400.0, 601.0));
    }

    #[test]
    fn request_peak_matches_kv_math() {
        let model = ModelConfig::llama2_7b();
        let peak = KvBudget::request_peak_bytes(&model, Precision::Bf16, 755, 200);
        // 955 tokens × 0.5 MiB/token ≈ 500 MB for llama2-7b.
        assert!((4.5e8..5.5e8).contains(&peak), "got {peak}");
    }

    #[test]
    fn big_models_do_not_fit_small_memory() {
        // Qwen3-30B at BF16 ≈ 61 GB of weights — fits GenB's 128 GB, so
        // assert the budget exists but is much tighter than llama2's.
        let qwen = ModelConfig::qwen3_30b_a3b();
        let llama = ModelConfig::llama2_7b();
        let spec = PlatformSpec::gen_b();
        let q = KvBudget::for_platform(&spec, &qwen, Precision::Bf16).unwrap();
        let l = KvBudget::for_platform(&spec, &llama, Precision::Bf16).unwrap();
        assert!(q.capacity_bytes() < l.capacity_bytes() * 0.6);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let _ = KvBudget::from_bytes(0.0);
    }
}
