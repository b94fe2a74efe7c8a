//! AUV characterization experiments: Fig 6 (frequency), Fig 7 (top-down),
//! Fig 8 (backend decomposition).

use aum_au::topdown::{signature, SignatureKind};
use aum_platform::power::ActivityClass;
use aum_platform::spec::PlatformSpec;
use aum_platform::state::{PlatformSim, RegionLoad};
use aum_platform::topology::AuUsageLevel;
use aum_platform::units::GbPerSec;
use aum_sim::report::TextTable;
use aum_sim::time::SimDuration;
use aum_workloads::be::{BeKind, BeProfile};

use crate::common::RunCtx;

/// Fig 6a: frequency of AU cores vs AU core count, with and without power
/// stressors on the remaining cores; Fig 6b: average frequency of shared
/// cores vs sharing pressure for three application types.
#[must_use]
pub fn fig6(_ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let mut out = String::from("Fig 6a: frequency reduction due to AU utilization (GenA)\n");
    let mut t = TextTable::new([
        "AU cores",
        "prefill GHz",
        "prefill+stress GHz",
        "decode GHz",
        "decode+stress GHz",
        "idle-rest GHz",
    ]);
    for au_cores in [8usize, 16, 24, 32, 48, 64, 96] {
        let rest = 96 - au_cores;
        let run = |class: ActivityClass, level: AuUsageLevel, stress: bool| -> (f64, f64) {
            let mut sim = PlatformSim::new(spec.clone());
            let mut loads = vec![RegionLoad {
                level,
                cores: au_cores,
                class,
                duty: 1.0,
                bw_demand: GbPerSec(if class == ActivityClass::Amx {
                    60.0
                } else {
                    180.0
                }),
                bw_cap: 1.0,
                smt_sibling: None,
            }];
            if stress && rest > 0 {
                loads.push(RegionLoad::new(
                    AuUsageLevel::None,
                    rest,
                    ActivityClass::ScalarCompute,
                    1.0,
                    GbPerSec(4.0),
                ));
            } else if rest > 0 {
                loads.push(RegionLoad::idle(AuUsageLevel::None, rest));
            }
            let mut snap = sim.step(SimDuration::from_millis(500), &loads);
            for _ in 0..20 {
                snap = sim.step(SimDuration::from_millis(500), &loads);
            }
            let rest_freq = if rest > 0 {
                snap.freqs[1].value()
            } else {
                f64::NAN
            };
            (snap.freqs[0].value(), rest_freq)
        };
        let (prefill, idle_rest) = run(ActivityClass::Amx, AuUsageLevel::High, false);
        let (prefill_s, _) = run(ActivityClass::Amx, AuUsageLevel::High, true);
        let (decode, _) = run(ActivityClass::Avx, AuUsageLevel::Low, false);
        let (decode_s, _) = run(ActivityClass::Avx, AuUsageLevel::Low, true);
        t.row([
            au_cores.to_string(),
            format!("{prefill:.2}"),
            format!("{prefill_s:.2}"),
            format!("{decode:.2}"),
            format!("{decode_s:.2}"),
            if idle_rest.is_nan() {
                "-".into()
            } else {
                format!("{idle_rest:.2}")
            },
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nFig 6b: average frequency of shared cores vs sharing pressure\n");
    out.push_str("(decode on the remaining cores; abrupt drops on clustered shared cores come from heat accumulation)\n");
    let mut t = TextTable::new(["shared cores", "Compute GHz", "OLAP GHz", "OLTP(jbb) GHz"]);
    for shared in [12usize, 24, 36, 48] {
        let mut cells = vec![shared.to_string()];
        for be in [BeKind::Compute, BeKind::Olap, BeKind::SpecJbb] {
            let p = BeProfile::of(be);
            let mut sim = PlatformSim::new(spec.clone());
            let loads = [
                RegionLoad {
                    level: AuUsageLevel::Low,
                    cores: 96 - shared,
                    class: ActivityClass::Avx,
                    duty: 0.9,
                    bw_demand: GbPerSec(170.0),
                    bw_cap: 1.0,
                    smt_sibling: None,
                },
                RegionLoad {
                    level: AuUsageLevel::None,
                    cores: shared,
                    class: p.activity,
                    duty: 1.0,
                    bw_demand: p.bw_demand(&spec, shared, 8),
                    bw_cap: 1.0,
                    smt_sibling: None,
                },
            ];
            // Let the thermal reservoir settle (the Fig 6b effect is
            // time-accumulated).
            let mut freq_sum = 0.0;
            let mut n = 0.0;
            for step in 0..120 {
                let snap = sim.step(SimDuration::from_millis(500), &loads);
                if step >= 60 {
                    freq_sum += snap.freqs[1].value();
                    n += 1.0;
                }
            }
            cells.push(format!("{:.2}", freq_sum / n));
        }
        t.row(cells);
    }
    out.push_str(&t.render());
    out
}

/// Fig 7: top-down cycle distributions of AU and non-AU applications on
/// the three platforms.
#[must_use]
pub fn fig7(_ctx: &RunCtx) -> String {
    let mut out =
        String::from("Fig 7: cycle distributions (retiring / bad-spec / frontend / backend, %)\n");
    for spec in PlatformSpec::presets() {
        let mut t = TextTable::new(["workload", "retiring", "bad spec", "frontend", "backend"]);
        for kind in [
            SignatureKind::Mcf,
            SignatureKind::Ads,
            SignatureKind::Gemm,
            SignatureKind::Prefill,
            SignatureKind::Decode,
        ] {
            let s = signature(kind, &spec);
            t.row([
                kind.to_string(),
                format!("{:.1}", s.cycles.retiring * 100.0),
                format!("{:.1}", s.cycles.bad_speculation * 100.0),
                format!("{:.1}", s.cycles.frontend_bound * 100.0),
                format!("{:.1}", s.cycles.backend_bound * 100.0),
            ]);
        }
        out.push_str(&format!("\n[{}]\n{}", spec.name, t.render()));
    }
    out
}

/// Fig 8: decomposed backend demands of the two phases on GenA.
#[must_use]
pub fn fig8(_ctx: &RunCtx) -> String {
    let spec = PlatformSpec::gen_a();
    let mut out = String::from("Fig 8a: core-bound breakdown (fraction of core-bound slots)\n");
    let mut t = TextTable::new(["phase", "serializing", "ports", "other"]);
    for kind in [SignatureKind::Prefill, SignatureKind::Decode] {
        let s = signature(kind, &spec);
        t.row([
            kind.to_string(),
            format!("{:.2}", s.core.serializing),
            format!("{:.2}", s.core.ports),
            format!("{:.2}", s.core.other),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nFig 8b: memory-bound breakdown (fraction of memory-bound slots)\n");
    let mut t = TextTable::new(["phase", "L1", "L2", "LLC", "DRAM"]);
    for kind in [SignatureKind::Prefill, SignatureKind::Decode] {
        let s = signature(kind, &spec);
        t.row([
            kind.to_string(),
            format!("{:.2}", s.memory.l1),
            format!("{:.2}", s.memory.l2),
            format!("{:.2}", s.memory.llc),
            format!("{:.2}", s.memory.dram),
        ]);
    }
    out.push_str(&t.render());
    out
}
