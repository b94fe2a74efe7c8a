//! Top-down microarchitecture cycle accounting (Yasin's methodology).
//!
//! The paper characterizes Variation-3 with the top-down method (§IV-C):
//! AU code has an *oversupplied frontend* (SIMD paradigm → tiny instruction
//! working set, ≈1% frontend bound vs ≈5-20% for scalar datacenter code)
//! and an *overloaded backend* (84-97% backend bound, split between
//! instruction-window serialization in the core and the memory hierarchy).
//!
//! [`TopDown`] carries the full tree; [`signature`] provides per-workload
//! base vectors calibrated to Fig 7/8 and Table II, and
//! [`TopDown::under_pressure`] modulates a signature by the current
//! resource allocation so the profiler sees allocation-dependent bounds.

use serde::{Deserialize, Serialize};

use aum_platform::spec::PlatformSpec;

/// Level-1 top-down split. Components sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Slots that retired useful µops.
    pub retiring: f64,
    /// Slots wasted on mispredicted paths.
    pub bad_speculation: f64,
    /// Slots starved by fetch/decode.
    pub frontend_bound: f64,
    /// Slots stalled on execution or memory resources.
    pub backend_bound: f64,
}

impl CycleBreakdown {
    /// Creates a normalized breakdown.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or all are zero.
    #[must_use]
    pub fn new(
        retiring: f64,
        bad_speculation: f64,
        frontend_bound: f64,
        backend_bound: f64,
    ) -> Self {
        for v in [retiring, bad_speculation, frontend_bound, backend_bound] {
            assert!(v >= 0.0, "cycle components must be non-negative");
        }
        let sum = retiring + bad_speculation + frontend_bound + backend_bound;
        assert!(sum > 0.0, "cycle breakdown cannot be all-zero");
        CycleBreakdown {
            retiring: retiring / sum,
            bad_speculation: bad_speculation / sum,
            frontend_bound: frontend_bound / sum,
            backend_bound: backend_bound / sum,
        }
    }
}

/// Split of backend-core stalls.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreBoundBreakdown {
    /// Serializing operations waiting on the instruction window / ROB —
    /// the paper finds these critical for AU execution (Fig 8a).
    pub serializing: f64,
    /// Execution-port contention.
    pub ports: f64,
    /// Remaining core stalls (divider, scheduler).
    pub other: f64,
}

/// Split of backend-memory stalls across the hierarchy. Components are
/// fractions of *memory-bound* slots and sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBoundBreakdown {
    /// L1-data-cache bound.
    pub l1: f64,
    /// L2 bound.
    pub l2: f64,
    /// LLC bound.
    pub llc: f64,
    /// DRAM bound (bandwidth + latency).
    pub dram: f64,
}

/// Full top-down tree for one workload on one platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopDown {
    /// Level-1 split.
    pub cycles: CycleBreakdown,
    /// Fraction of backend slots that are core-bound (rest are memory).
    pub core_frac: f64,
    /// Core-bound decomposition.
    pub core: CoreBoundBreakdown,
    /// Memory-bound decomposition.
    pub memory: MemoryBoundBreakdown,
}

impl TopDown {
    /// Backend-bound fraction of all slots (Table II "BB").
    #[must_use]
    pub fn backend_bound(&self) -> f64 {
        self.cycles.backend_bound
    }

    /// Memory-bound fraction of all slots.
    #[must_use]
    pub fn memory_bound(&self) -> f64 {
        self.cycles.backend_bound * (1.0 - self.core_frac)
    }

    /// DRAM-bound fraction of all slots (Table II "DB").
    #[must_use]
    pub fn dram_bound(&self) -> f64 {
        self.memory_bound() * self.memory.dram
    }

    /// Returns this signature modulated by runtime pressure:
    /// `bw_slowdown ≥ 1` (memory-pool starvation factor) inflates the DRAM
    /// component; `llc_amplification ≥ 1` (traffic amplification from a
    /// shrunken LLC partition) inflates the LLC component. The tree is
    /// re-normalized, eating into retiring slots.
    #[must_use]
    pub fn under_pressure(&self, bw_slowdown: f64, llc_amplification: f64) -> TopDown {
        let bw = bw_slowdown.max(1.0);
        let llc = llc_amplification.max(1.0);
        let mem = self.memory_bound();
        let extra_dram = mem * self.memory.dram * (bw - 1.0) * 0.8;
        let extra_llc = mem * self.memory.llc * (llc - 1.0) * 0.8;
        let new_backend = (self.cycles.backend_bound + extra_dram + extra_llc).min(0.99);
        let grow = new_backend - self.cycles.backend_bound;
        // Backend grows at the expense of retiring.
        let retiring = (self.cycles.retiring - grow).max(0.005);
        let cycles = CycleBreakdown::new(
            retiring,
            self.cycles.bad_speculation,
            self.cycles.frontend_bound,
            new_backend,
        );
        // Within memory, re-weight toward the inflated components.
        let m = self.memory;
        let mem_weights = [
            m.l1,
            m.l2,
            m.llc * (1.0 + (llc - 1.0) * 0.8),
            m.dram * (1.0 + (bw - 1.0) * 0.8),
        ];
        let wsum: f64 = mem_weights.iter().sum();
        let memory = MemoryBoundBreakdown {
            l1: mem_weights[0] / wsum,
            l2: mem_weights[1] / wsum,
            llc: mem_weights[2] / wsum,
            dram: mem_weights[3] / wsum,
        };
        // Memory's share of backend grows with the added memory stalls.
        let old_mem_abs = self.memory_bound();
        let new_mem_abs = old_mem_abs + extra_dram + extra_llc;
        let core_frac = (1.0 - new_mem_abs / new_backend).clamp(0.0, 1.0);
        TopDown {
            cycles,
            core_frac,
            core: self.core,
            memory,
        }
    }

    /// Splits a unit of busy work by boundedness for the attribution
    /// ledger (`aum_sim::attrib`), under the given runtime pressure.
    ///
    /// The signature's *base* memory-bound slots split across the cache
    /// hierarchy via [`MemoryBoundBreakdown`]. Runtime pressure dilates the
    /// affected stall components linearly — a grant slowed `s`× stretches
    /// every DRAM stall `s`×, a partition amplifying traffic `a`× stretches
    /// LLC stalls `a`× — and the dilation mass beyond the calm signature is
    /// reported separately as `contention`, so the ledger can blame the
    /// co-runner rather than the workload. (This deliberately does *not*
    /// route through [`under_pressure`], whose backend-bound cap saturates
    /// for already-memory-bound signatures and would swallow large
    /// slowdowns — wall time has no such ceiling.) Everything that is not
    /// a memory stall — retiring, frontend, bad speculation and core-bound
    /// serialization — counts as `compute`: instruction-window
    /// serialization is a property of AU execution itself (Fig 8a), not of
    /// the shared memory system.
    ///
    /// [`under_pressure`]: TopDown::under_pressure
    #[must_use]
    pub fn work_split(&self, bw_slowdown: f64, llc_amplification: f64) -> WorkSplit {
        let bw = bw_slowdown.max(1.0);
        let amp = llc_amplification.max(1.0);
        let base_mem = self.memory_bound();
        let l1 = base_mem * self.memory.l1;
        let l2 = base_mem * self.memory.l2;
        let llc = base_mem * self.memory.llc;
        let dram = base_mem * self.memory.dram;
        let compute = (1.0 - base_mem).max(0.0);
        let contention = dram * (bw - 1.0) + llc * (amp - 1.0);
        let sum = compute + l1 + l2 + llc + dram + contention;
        WorkSplit {
            compute: compute / sum,
            l1: l1 / sum,
            l2: l2 / sum,
            llc: llc / sum,
            dram: dram / sum,
            contention: contention / sum,
        }
    }
}

/// How a unit of busy work divides by boundedness, normalized to sum
/// to 1 — the shape [`TopDown::work_split`] hands to the attribution
/// ledger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkSplit {
    /// Productive / in-core fraction (retiring, frontend, speculation,
    /// core-bound serialization).
    pub compute: f64,
    /// L1-bound fraction of the workload's own memory stalls.
    pub l1: f64,
    /// L2-bound fraction.
    pub l2: f64,
    /// LLC-bound fraction.
    pub llc: f64,
    /// DRAM-bound fraction.
    pub dram: f64,
    /// Memory stalls added by runtime pressure (co-runner contention on
    /// bandwidth and LLC capacity) beyond the base signature.
    pub contention: f64,
}

impl WorkSplit {
    /// Sum of all components (1 up to rounding).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.compute + self.l1 + self.l2 + self.llc + self.dram + self.contention
    }
}

/// The workloads Fig 7 characterizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignatureKind {
    /// Pure dense GEMM kernel loop.
    Gemm,
    /// LLM prefill phase.
    Prefill,
    /// LLM decode phase.
    Decode,
    /// SPEC CPU `mcf` (pointer-chasing scalar benchmark).
    Mcf,
    /// Google-style `ads` service (large-footprint scalar server code).
    Ads,
}

impl core::fmt::Display for SignatureKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SignatureKind::Gemm => write!(f, "GEMM"),
            SignatureKind::Prefill => write!(f, "Prefill"),
            SignatureKind::Decode => write!(f, "Decode"),
            SignatureKind::Mcf => write!(f, "mcf"),
            SignatureKind::Ads => write!(f, "ads"),
        }
    }
}

/// Base top-down signature of a workload on a platform.
///
/// Frontend bound grows mildly with platform memory bandwidth — the paper's
/// observation (3) in §IV-C1 that higher-bandwidth platforms show greater
/// frontend bound (the backend drains faster, exposing fetch).
///
/// # Examples
///
/// ```
/// use aum_au::topdown::{signature, SignatureKind};
/// use aum_platform::spec::PlatformSpec;
///
/// let spec = PlatformSpec::gen_a();
/// let prefill = signature(SignatureKind::Prefill, &spec);
/// let ads = signature(SignatureKind::Ads, &spec);
/// assert!(prefill.cycles.frontend_bound < ads.cycles.frontend_bound);
/// ```
#[must_use]
pub fn signature(kind: SignatureKind, spec: &PlatformSpec) -> TopDown {
    // (retiring, bad_spec, frontend, backend, core_frac,
    //  core: serializing/ports/other, memory: l1/l2/llc/dram)
    let (r, b, f, bb, core_frac, core, mem) = match kind {
        SignatureKind::Gemm => (
            0.05,
            0.005,
            0.010,
            0.935,
            0.40,
            CoreBoundBreakdown {
                serializing: 0.55,
                ports: 0.30,
                other: 0.15,
            },
            MemoryBoundBreakdown {
                l1: 0.26,
                l2: 0.24,
                llc: 0.22,
                dram: 0.28,
            },
        ),
        // Table II llama2-7b prefill: BB 92%, DB 24%; hierarchy levels
        // matter similarly (Fig 8b).
        SignatureKind::Prefill => (
            0.06,
            0.010,
            0.010,
            0.920,
            0.35,
            CoreBoundBreakdown {
                serializing: 0.55,
                ports: 0.30,
                other: 0.15,
            },
            MemoryBoundBreakdown {
                l1: 0.22,
                l2: 0.20,
                llc: 0.18,
                dram: 0.40,
            },
        ),
        // Table II llama2-7b decode: BB 96%, DB 59%; DRAM bandwidth
        // dominates (Fig 8b), serializing ratio higher (Fig 8a).
        SignatureKind::Decode => (
            0.030,
            0.005,
            0.005,
            0.960,
            0.19,
            CoreBoundBreakdown {
                serializing: 0.70,
                ports: 0.18,
                other: 0.12,
            },
            MemoryBoundBreakdown {
                l1: 0.09,
                l2: 0.08,
                llc: 0.07,
                dram: 0.76,
            },
        ),
        SignatureKind::Mcf => (
            0.200,
            0.050,
            0.050,
            0.700,
            0.15,
            CoreBoundBreakdown {
                serializing: 0.25,
                ports: 0.45,
                other: 0.30,
            },
            MemoryBoundBreakdown {
                l1: 0.10,
                l2: 0.15,
                llc: 0.20,
                dram: 0.55,
            },
        ),
        SignatureKind::Ads => (
            0.300,
            0.060,
            0.200,
            0.440,
            0.45,
            CoreBoundBreakdown {
                serializing: 0.20,
                ports: 0.55,
                other: 0.25,
            },
            MemoryBoundBreakdown {
                l1: 0.25,
                l2: 0.25,
                llc: 0.25,
                dram: 0.25,
            },
        ),
    };
    // Frontend grows ~∛ with bandwidth relative to GenA.
    let fe_scale = (spec.mem_bw.value() / 233.8).powf(0.33);
    let frontend = (f * fe_scale).min(0.35);
    TopDown {
        cycles: CycleBreakdown::new(r, b, frontend, bb),
        core_frac,
        core,
        memory: mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_a() -> PlatformSpec {
        PlatformSpec::gen_a()
    }

    #[test]
    fn breakdown_normalizes() {
        let c = CycleBreakdown::new(2.0, 1.0, 1.0, 4.0);
        let sum = c.retiring + c.bad_speculation + c.frontend_bound + c.backend_bound;
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((c.backend_bound - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_component_rejected() {
        let _ = CycleBreakdown::new(-0.1, 0.1, 0.1, 0.9);
    }

    #[test]
    fn prefill_matches_table2() {
        let t = signature(SignatureKind::Prefill, &gen_a());
        assert!(
            (t.backend_bound() - 0.92).abs() < 0.01,
            "BB {}",
            t.backend_bound()
        );
        assert!(
            (t.dram_bound() - 0.24).abs() < 0.03,
            "DB {}",
            t.dram_bound()
        );
    }

    #[test]
    fn decode_matches_table2() {
        let t = signature(SignatureKind::Decode, &gen_a());
        assert!(
            (t.backend_bound() - 0.96).abs() < 0.01,
            "BB {}",
            t.backend_bound()
        );
        assert!(
            (t.dram_bound() - 0.59).abs() < 0.03,
            "DB {}",
            t.dram_bound()
        );
    }

    #[test]
    fn au_frontend_is_oversupplied() {
        // §IV-C1 observation (1): AU frontend bound ≈1% vs ≈5%+ for scalar.
        let spec = gen_a();
        for kind in [
            SignatureKind::Gemm,
            SignatureKind::Prefill,
            SignatureKind::Decode,
        ] {
            assert!(signature(kind, &spec).cycles.frontend_bound < 0.02);
        }
        assert!(signature(SignatureKind::Mcf, &spec).cycles.frontend_bound >= 0.05);
        assert!(signature(SignatureKind::Ads, &spec).cycles.frontend_bound >= 0.15);
    }

    #[test]
    fn higher_bandwidth_platforms_raise_frontend_bound() {
        // §IV-C1 observation (3).
        let a = signature(SignatureKind::Prefill, &PlatformSpec::gen_a());
        let b = signature(SignatureKind::Prefill, &PlatformSpec::gen_b());
        let c = signature(SignatureKind::Prefill, &PlatformSpec::gen_c());
        assert!(b.cycles.frontend_bound > a.cycles.frontend_bound);
        assert!(c.cycles.frontend_bound > a.cycles.frontend_bound);
    }

    #[test]
    fn decode_serializes_more_than_prefill() {
        // Fig 8a: decode has higher serializing demands.
        let spec = gen_a();
        let p = signature(SignatureKind::Prefill, &spec);
        let d = signature(SignatureKind::Decode, &spec);
        assert!(d.core.serializing > p.core.serializing);
    }

    #[test]
    fn decode_is_dram_dominated() {
        // Fig 8b: decode memory bound dominated by DRAM; prefill spread out.
        let spec = gen_a();
        let d = signature(SignatureKind::Decode, &spec);
        assert!(d.memory.dram > 0.6);
        let p = signature(SignatureKind::Prefill, &spec);
        assert!(p.memory.dram < 0.5);
        assert!(p.memory.l1 > 0.15);
    }

    #[test]
    fn pressure_inflates_dram_bound() {
        let t = signature(SignatureKind::Decode, &gen_a());
        let pressured = t.under_pressure(2.0, 1.0);
        assert!(pressured.dram_bound() > t.dram_bound());
        assert!(pressured.backend_bound() > t.backend_bound());
        assert!(pressured.backend_bound() <= 0.99);
        let sum = pressured.cycles.retiring
            + pressured.cycles.bad_speculation
            + pressured.cycles.frontend_bound
            + pressured.cycles.backend_bound;
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pressure_inflates_llc_bound() {
        let t = signature(SignatureKind::Prefill, &gen_a());
        let pressured = t.under_pressure(1.0, 2.5);
        assert!(pressured.memory.llc > t.memory.llc);
        let msum = pressured.memory.l1
            + pressured.memory.l2
            + pressured.memory.llc
            + pressured.memory.dram;
        assert!((msum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_pressure_is_identity_like() {
        let t = signature(SignatureKind::Decode, &gen_a());
        let same = t.under_pressure(1.0, 1.0);
        assert!((same.backend_bound() - t.backend_bound()).abs() < 1e-9);
        assert!((same.dram_bound() - t.dram_bound()).abs() < 1e-9);
    }

    #[test]
    fn accessors_are_consistent() {
        let t = signature(SignatureKind::Prefill, &gen_a());
        let core_bound = t.backend_bound() * t.core_frac;
        assert!((core_bound + t.memory_bound() - t.backend_bound()).abs() < 1e-12);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", SignatureKind::Gemm), "GEMM");
        assert_eq!(format!("{}", SignatureKind::Ads), "ads");
    }

    #[test]
    fn work_split_sums_to_one() {
        let spec = gen_a();
        for kind in [
            SignatureKind::Gemm,
            SignatureKind::Prefill,
            SignatureKind::Decode,
            SignatureKind::Mcf,
            SignatureKind::Ads,
        ] {
            let w = signature(kind, &spec).work_split(1.7, 1.4);
            assert!((w.sum() - 1.0).abs() < 1e-12, "{kind}: {}", w.sum());
            for v in [w.compute, w.l1, w.l2, w.llc, w.dram, w.contention] {
                assert!(v >= 0.0, "{kind}: negative component");
            }
        }
    }

    #[test]
    fn pressure_becomes_contention_not_dram() {
        let t = signature(SignatureKind::Decode, &gen_a());
        let calm = t.work_split(1.0, 1.0);
        let pressured = t.work_split(2.0, 1.0);
        assert!(calm.contention.abs() < 1e-12, "no pressure, no contention");
        assert!(pressured.contention > 0.05, "bandwidth pressure must show");
        // The workload's own DRAM share is diluted, not inflated — the
        // *added* stalls land on the co-runner's account.
        assert!(pressured.dram < calm.dram + 1e-12);
        assert!(pressured.compute < calm.compute);
    }
}
