//! Arithmetic-intensity analysis and AU usage.
//!
//! AUM's usage-aware stage (paper §VI-B1) judges an operator's AU usage via
//! its arithmetic intensity (ARI). The paper gives closed forms for the QKV
//! mapping: `6·(1/d + 3/(B·L))⁻¹` in prefill and `6·(1/d + 3/B)⁻¹` in
//! decode — with larger model dimension `d`, batch `B` and input length
//! `L`, ARI (and thus AU usage `U_AU`) rises.
//!
//! The processor regions fix the usage levels: prefill runs in the High
//! region and decode in the Low one (`aum_platform::topology`). What the
//! controller takes from here is how much each phase uses the AU,
//! [`usage_from_ari`] of its representative operator, which weighs the two
//! phases' SLO pressures against each other.

/// QKV-mapping arithmetic intensity in the prefill phase (§VI-B1).
///
/// # Panics
///
/// Panics if any argument is zero.
#[must_use]
pub fn qkv_ari_prefill(d: usize, batch: usize, input_len: usize) -> f64 {
    assert!(
        d > 0 && batch > 0 && input_len > 0,
        "dimensions must be positive"
    );
    6.0 / (1.0 / d as f64 + 3.0 / (batch as f64 * input_len as f64))
}

/// QKV-mapping arithmetic intensity in the decode phase (§VI-B1).
///
/// # Panics
///
/// Panics if any argument is zero.
#[must_use]
pub fn qkv_ari_decode(d: usize, batch: usize) -> f64 {
    assert!(d > 0 && batch > 0, "dimensions must be positive");
    6.0 / (1.0 / d as f64 + 3.0 / batch as f64)
}

/// Normalized AU usage `U_AU ∈ [0, 1)` derived from arithmetic intensity.
///
/// A saturating map `ari / (ari + ARI_HALF)`: operators below the machine
/// balance point barely use the AU; far above it they keep the AU busy.
#[must_use]
pub fn usage_from_ari(ari: f64) -> f64 {
    /// ARI at which an operator reaches 50% of its asymptotic AU usage.
    /// GenA's machine balance: 206.4 TFLOPS / 233.8 GB/s ≈ 880 flops/byte;
    /// the half-point sits well below balance because tile pipelines hide
    /// part of the traffic.
    const ARI_HALF: f64 = 220.0;
    let a = ari.max(0.0);
    a / (a + ARI_HALF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_ari_matches_formula() {
        // d=4096, B=16, L=512: 6/(1/4096 + 3/8192) = 6/(0.000244+0.000366)
        let ari = qkv_ari_prefill(4096, 16, 512);
        assert!((ari - 9830.4).abs() < 1.0, "got {ari}");
    }

    #[test]
    fn decode_ari_matches_formula() {
        // d=4096, B=16: 6/(1/4096 + 3/16) ≈ 31.95
        let ari = qkv_ari_decode(4096, 16);
        assert!((ari - 31.95).abs() < 0.1, "got {ari}");
    }

    #[test]
    fn ari_grows_with_batch_and_length() {
        assert!(qkv_ari_decode(4096, 32) > qkv_ari_decode(4096, 16));
        assert!(qkv_ari_prefill(4096, 16, 1024) > qkv_ari_prefill(4096, 16, 256));
        assert!(qkv_ari_decode(8192, 16) > qkv_ari_decode(4096, 16));
    }

    #[test]
    fn usage_is_monotone_and_bounded() {
        let mut last = -1.0;
        for ari in [0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0] {
            let u = usage_from_ari(ari);
            assert!(u > last);
            assert!((0.0..1.0).contains(&u));
            last = u;
        }
        assert_eq!(usage_from_ari(-5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = qkv_ari_decode(0, 16);
    }
}
