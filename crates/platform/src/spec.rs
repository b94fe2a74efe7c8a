//! Hardware specifications of the evaluated platforms (paper Table I).
//!
//! The three presets mirror the paper's GenA/GenB/GenC machines:
//!
//! | Platform | Generation      | CPU            | cores | AVX/AMX TFLOPS | base   | LLC/socket | memory        | BW        |
//! |----------|-----------------|----------------|-------|----------------|--------|-----------|---------------|-----------|
//! | GenA     | Sapphire Rapids | Xeon 8475B     | 48×2  | 25.6 / 206.4   | 2.7GHz | 97.5 MB   | DDR5 1 TB     | 233.8 GB/s |
//! | GenB     | Sapphire Rapids | Xeon Max 9468  | 48×2  | 25.6 / 206.4   | 2.1GHz | 105 MB    | HBM 128 GB    | 588 GB/s  |
//! | GenC     | Granite Rapids  | Xeon 6982P-C   | 120×1 | 32 / 344       | 2.8GHz | 504 MB    | MCR 768 GB    | 600 GB/s  |

use serde::{Deserialize, Serialize};

use crate::units::{GbPerSec, Ghz, Tflops};

/// Which paper platform a spec corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Generation {
    /// 4th-gen Xeon Sapphire Rapids (2022).
    SapphireRapids,
    /// 6th-gen Xeon Granite Rapids (2024).
    GraniteRapids,
}

impl core::fmt::Display for Generation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Generation::SapphireRapids => write!(f, "Sapphire Rapids"),
            Generation::GraniteRapids => write!(f, "Granite Rapids"),
        }
    }
}

/// Memory technology attached to the socket (Table I "Memory" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryKind {
    /// Conventional DDR5 DIMMs.
    Ddr5,
    /// On-package high-bandwidth memory (Xeon Max).
    Hbm,
    /// Multiplexer-combined-rank DIMMs (Granite Rapids).
    Mcr,
}

impl core::fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemoryKind::Ddr5 => write!(f, "DDR5"),
            MemoryKind::Hbm => write!(f, "HBM"),
            MemoryKind::Mcr => write!(f, "MCR"),
        }
    }
}

/// Full description of an AU-enabled CPU platform.
///
/// # Examples
///
/// ```
/// use aum_platform::spec::PlatformSpec;
///
/// let gen_a = PlatformSpec::gen_a();
/// assert_eq!(gen_a.total_cores(), 96);
/// assert_eq!(gen_a.amx_peak.value(), 206.4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Short platform label ("GenA"/"GenB"/"GenC" for the presets).
    pub name: String,
    /// Microarchitecture generation.
    pub generation: Generation,
    /// Marketing CPU model string.
    pub cpu_model: String,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Socket count.
    pub sockets: usize,
    /// Platform-wide peak AVX-512 BF16 throughput.
    pub avx_peak: Tflops,
    /// Platform-wide peak AMX BF16 throughput.
    pub amx_peak: Tflops,
    /// Nominal base frequency.
    pub base_freq: Ghz,
    /// All-core turbo frequency with no AU activity (the paper measures
    /// 3.2 GHz on GenA with turbostat, §IV-B1).
    pub allcore_turbo: Ghz,
    /// L1 instruction cache per core, KiB.
    pub l1i_kb: u32,
    /// L1 data cache per core, KiB.
    pub l1d_kb: u32,
    /// L2 cache per core, MiB.
    pub l2_mb_per_core: f64,
    /// Last-level cache per socket, MiB.
    pub llc_mb_per_socket: f64,
    /// CAT-partitionable LLC ways (Table III allocates ways 0..=15).
    pub llc_ways: u32,
    /// Partitionable L2 ways (Table III allocates ways 0..=15).
    pub l2_ways: u32,
    /// Memory technology.
    pub memory: MemoryKind,
    /// Installed memory capacity, GiB.
    pub memory_gb: u64,
    /// Peak memory bandwidth of the platform.
    pub mem_bw: GbPerSec,
    /// Platform thermal design power (package power budget the frequency
    /// governor must respect).
    pub tdp: crate::units::Watts,
    /// Acquisition cost in USD; GenA's $7200 is given in §III-B, others are
    /// scaled by their relative compute/memory build-out for the TCO study.
    pub cost_usd: f64,
}

impl PlatformSpec {
    /// Table I GenA: Sapphire Rapids Xeon 8475B, DDR5.
    #[must_use]
    pub fn gen_a() -> Self {
        PlatformSpec {
            name: "GenA".to_owned(),
            generation: Generation::SapphireRapids,
            cpu_model: "Xeon 8475B".to_owned(),
            cores_per_socket: 48,
            sockets: 2,
            avx_peak: Tflops(25.6),
            amx_peak: Tflops(206.4),
            base_freq: Ghz(2.7),
            allcore_turbo: Ghz(3.2),
            l1i_kb: 32,
            l1d_kb: 48,
            l2_mb_per_core: 2.0,
            llc_mb_per_socket: 97.5,
            llc_ways: 16,
            l2_ways: 16,
            memory: MemoryKind::Ddr5,
            memory_gb: 1024,
            mem_bw: GbPerSec(233.8),
            tdp: crate::units::Watts(300.0),
            cost_usd: 7200.0,
        }
    }

    /// Table I GenB: Sapphire Rapids Xeon Max 9468 with HBM.
    #[must_use]
    pub fn gen_b() -> Self {
        PlatformSpec {
            name: "GenB".to_owned(),
            generation: Generation::SapphireRapids,
            cpu_model: "Xeon Max 9468".to_owned(),
            cores_per_socket: 48,
            sockets: 2,
            avx_peak: Tflops(25.6),
            amx_peak: Tflops(206.4),
            base_freq: Ghz(2.1),
            allcore_turbo: Ghz(2.6),
            l1i_kb: 32,
            l1d_kb: 48,
            l2_mb_per_core: 2.0,
            llc_mb_per_socket: 105.0,
            llc_ways: 16,
            l2_ways: 16,
            memory: MemoryKind::Hbm,
            memory_gb: 128,
            mem_bw: GbPerSec(588.0),
            tdp: crate::units::Watts(350.0),
            cost_usd: 9800.0,
        }
    }

    /// Table I GenC: Granite Rapids Xeon 6982P-C with MCR DIMMs.
    #[must_use]
    pub fn gen_c() -> Self {
        PlatformSpec {
            name: "GenC".to_owned(),
            generation: Generation::GraniteRapids,
            cpu_model: "Xeon 6982P-C".to_owned(),
            cores_per_socket: 120,
            sockets: 1,
            avx_peak: Tflops(32.0),
            amx_peak: Tflops(344.0),
            base_freq: Ghz(2.8),
            allcore_turbo: Ghz(3.4),
            l1i_kb: 64,
            l1d_kb: 48,
            l2_mb_per_core: 2.0,
            llc_mb_per_socket: 504.0,
            llc_ways: 16,
            l2_ways: 16,
            memory: MemoryKind::Mcr,
            memory_gb: 768,
            mem_bw: GbPerSec(600.0),
            tdp: crate::units::Watts(500.0),
            cost_usd: 12400.0,
        }
    }

    /// The three paper presets in order.
    #[must_use]
    pub fn presets() -> Vec<PlatformSpec> {
        vec![Self::gen_a(), Self::gen_b(), Self::gen_c()]
    }

    /// Rejects a platform no run can simulate, naming the field: a core,
    /// socket, way or memory count, compute peak, frequency, cache size,
    /// memory bandwidth or TDP that is not positive and finite.
    ///
    /// # Errors
    ///
    /// The first unusable field, described by name.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("cores_per_socket", self.cores_per_socket as f64),
            ("sockets", self.sockets as f64),
            ("llc_ways", f64::from(self.llc_ways)),
            ("l2_ways", f64::from(self.l2_ways)),
            ("memory_gb", self.memory_gb as f64),
            ("avx_peak", self.avx_peak.value()),
            ("amx_peak", self.amx_peak.value()),
            ("base_freq", self.base_freq.value()),
            ("allcore_turbo", self.allcore_turbo.value()),
            ("l2_mb_per_core", self.l2_mb_per_core),
            ("llc_mb_per_socket", self.llc_mb_per_socket),
            ("mem_bw", self.mem_bw.value()),
            ("tdp", self.tdp.value()),
        ];
        match fields.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0)) {
            Some((field, v)) => Err(format!("{field} must be positive and finite, got {v}")),
            None => Ok(()),
        }
    }

    /// Total physical cores across sockets.
    #[must_use]
    pub fn total_cores(&self) -> usize {
        self.cores_per_socket * self.sockets
    }

    /// Total LLC capacity across sockets, MiB.
    #[must_use]
    pub fn llc_mb_total(&self) -> f64 {
        self.llc_mb_per_socket * self.sockets as f64
    }

    /// LLC capacity of one CAT way across the platform, MiB.
    #[must_use]
    pub fn llc_mb_per_way(&self) -> f64 {
        self.llc_mb_total() / f64::from(self.llc_ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let a = PlatformSpec::gen_a();
        assert_eq!(a.total_cores(), 96);
        assert_eq!(a.base_freq, Ghz(2.7));
        assert_eq!(a.mem_bw, GbPerSec(233.8));
        assert_eq!(a.memory, MemoryKind::Ddr5);

        let b = PlatformSpec::gen_b();
        assert_eq!(b.total_cores(), 96);
        assert_eq!(b.base_freq, Ghz(2.1));
        assert_eq!(b.mem_bw, GbPerSec(588.0));
        assert_eq!(b.memory, MemoryKind::Hbm);

        let c = PlatformSpec::gen_c();
        assert_eq!(c.total_cores(), 120);
        assert_eq!(c.amx_peak, Tflops(344.0));
        assert_eq!(c.memory, MemoryKind::Mcr);
        assert_eq!(c.llc_mb_per_socket, 504.0);
    }

    #[test]
    fn llc_way_capacity() {
        let a = PlatformSpec::gen_a();
        assert!((a.llc_mb_total() - 195.0).abs() < 1e-9);
        assert!((a.llc_mb_per_way() - 195.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn presets_are_three() {
        assert_eq!(PlatformSpec::presets().len(), 3);
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", Generation::SapphireRapids), "Sapphire Rapids");
        assert_eq!(format!("{}", MemoryKind::Hbm), "HBM");
    }
}
