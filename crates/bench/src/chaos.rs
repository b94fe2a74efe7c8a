//! Chaos study: a scripted fault matrix exercising the resilience layer.
//!
//! `repro chaos [--quick]` runs every fault scenario in the taxonomy
//! against three schemes — AUM (the full controller), STATIC-BEST (the
//! profiled optimum frozen at t=0) and ALL-AU (exclusive serving) — and
//! reports *SLO retention*: the fraction of each scheme's own healthy SLO
//! guarantee it keeps under the fault. Normalizing per scheme isolates
//! resilience (how gracefully a scheme degrades) from raw healthy
//! performance (which Fig 17 already covers).
//!
//! `--quick` restricts the matrix to the three acceptance-critical faults
//! (bandwidth collapse, thermal runaway, BE surge) over a shorter run —
//! the CI smoke configuration.
//!
//! Every run is seeded; the same seed yields a byte-identical report. A
//! non-finite guarantee anywhere marks the report degenerate and the
//! driver exits nonzero.

use std::fmt::Write as _;

use aum::baselines::{AllAu, StaticBest};
use aum::controller::AumController;
use aum::experiment::{
    try_run_experiment_traced, ExperimentConfig, Fault, FaultEvent, FaultPlan, Outcome,
};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::AuUsageLevel;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

use crate::common::{ModelCache, RunCtx};

/// Seed shared by every run in the matrix — fixed so the report is
/// reproducible by construction.
const CHAOS_SEED: u64 = 7;

/// The rendered chaos report plus its health verdict.
pub struct ChaosRun {
    /// The full table, ready to print.
    pub text: String,
    /// `true` if any guarantee or retention came out non-finite — the
    /// driver turns this into a nonzero exit code.
    pub degenerate: bool,
}

/// One named fault scenario of the matrix.
struct ChaosScenario {
    name: &'static str,
    plan: FaultPlan,
}

/// Builds the fault matrix. Injection at `t0`, windowed faults recover at
/// `t1`. `quick` keeps only the three acceptance-critical scenarios.
fn scenarios(t0: f64, t1: f64, quick: bool) -> Vec<ChaosScenario> {
    let mut list = vec![
        ChaosScenario {
            // frac 0.8 leaves adaptation headroom: shedding the co-runner's
            // pool share clears the queuing onset and recovers the LLM's
            // SLO. (Below ~0.6 the serving load alone saturates the pool
            // and no manager can react its way out — every scheme pins at
            // the same floor.)
            name: "bandwidth-collapse",
            plan: FaultPlan::single(FaultEvent::permanent(
                t0,
                Fault::BandwidthDegrade { frac: 0.8 },
            )),
        },
        ChaosScenario {
            name: "thermal-runaway",
            plan: FaultPlan::single(FaultEvent::windowed(
                t0,
                t1,
                Fault::ThermalRunaway { severity: 1.5 },
            )),
        },
        ChaosScenario {
            name: "be-surge",
            plan: FaultPlan::single(FaultEvent::windowed(t0, t1, Fault::BeSurge { factor: 4.0 })),
        },
    ];
    if quick {
        return list;
    }
    list.extend([
        ChaosScenario {
            name: "license-lock",
            plan: FaultPlan::single(FaultEvent::permanent(
                t0,
                Fault::FrequencyLicenseLock {
                    level: AuUsageLevel::High,
                },
            )),
        },
        ChaosScenario {
            name: "core-offline",
            plan: FaultPlan::single(FaultEvent::permanent(t0, Fault::CoreOffline { count: 8 })),
        },
        ChaosScenario {
            name: "rdt-blackout",
            plan: FaultPlan::single(FaultEvent::permanent(
                t0,
                Fault::RdtWriteFailure { delay_intervals: 0 },
            )),
        },
        ChaosScenario {
            name: "sensor-noise",
            plan: FaultPlan::single(FaultEvent::permanent(t0, Fault::SensorNoise { sigma: 0.6 })),
        },
        ChaosScenario {
            name: "sensor-dropout",
            plan: FaultPlan::single(FaultEvent::permanent(t0, Fault::SensorDropout)),
        },
        ChaosScenario {
            name: "multi-fault-script",
            plan: FaultPlan::new(vec![
                FaultEvent::windowed(t0, t1, Fault::BandwidthDegrade { frac: 0.7 }),
                FaultEvent::windowed(t0 + 20.0, t1, Fault::ThermalRunaway { severity: 1.2 }),
                FaultEvent::windowed(t0 + 40.0, t1, Fault::BeSurge { factor: 2.0 }),
            ]),
        },
    ]);
    list
}

/// The three schemes under chaos, in report order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ChaosScheme {
    Aum,
    StaticBest,
    AllAu,
}

impl ChaosScheme {
    const ALL: [ChaosScheme; 3] = [
        ChaosScheme::Aum,
        ChaosScheme::StaticBest,
        ChaosScheme::AllAu,
    ];

    fn name(self) -> &'static str {
        match self {
            ChaosScheme::Aum => "AUM",
            ChaosScheme::StaticBest => "STATIC-BEST",
            ChaosScheme::AllAu => "ALL-AU",
        }
    }
}

/// A scheme's healthy-vs-faulted SLO guarantees for one scenario.
struct Cell {
    ttft_g: f64,
    tpot_g: f64,
    score: f64,
    retention: f64,
    safe_entries: u64,
}

/// Combined SLO score: the mean of the two guarantee fractions. The mean
/// (rather than the min) keeps the score sensitive to both metrics — TPOT
/// guarantees sit near 1.0 when healthy, so bandwidth and frequency faults
/// show up there, while queueing faults show up in TTFT.
fn slo_score(out: &Outcome) -> f64 {
    0.5 * (out.slo.ttft_guarantee + out.slo.tpot_guarantee)
}

/// Runs one scheme under one plan; the second return is the controller's
/// safe-mode entry count (always 0 for the static baselines). `tracer` is
/// the per-cell capture handed out by the sweep executor — only the AUM
/// cell streams into it (matching the figure harness), so `repro chaos
/// --trace` shows AUM's fault and safe-mode events without baseline noise.
fn run_scheme(
    scheme: ChaosScheme,
    plan: &FaultPlan,
    duration_secs: u64,
    cache: &ModelCache,
    tracer: &Tracer,
) -> (Outcome, u64) {
    let spec = PlatformSpec::gen_a();
    // ALL-AU serves exclusively by definition; the managed schemes carry
    // the OLAP co-runner whose resources the fault plane squeezes.
    let be = match scheme {
        ChaosScheme::AllAu => None,
        _ => Some(BeKind::Olap),
    };
    let mut cfg = ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, be);
    cfg.duration = SimDuration::from_secs(duration_secs);
    cfg.seed = CHAOS_SEED;
    cfg.fault = plan.clone();
    let valid = "the chaos matrix scripts only valid fault plans";
    match scheme {
        ChaosScheme::Aum => {
            let model = cache.model(&spec, Scenario::Chatbot, BeKind::Olap, tracer);
            let mut ctl = AumController::new(model);
            let out = try_run_experiment_traced(&cfg, &mut ctl, tracer.clone()).expect(valid);
            let entries = ctl.safe_mode_entries();
            (out, entries)
        }
        ChaosScheme::StaticBest => {
            let model = cache.model(&spec, Scenario::Chatbot, BeKind::Olap, tracer);
            let mut mgr = StaticBest::new(&model);
            let out = try_run_experiment_traced(&cfg, &mut mgr, Tracer::disabled());
            (out.expect(valid), 0)
        }
        ChaosScheme::AllAu => {
            let mut mgr = AllAu::new(&spec);
            let out = try_run_experiment_traced(&cfg, &mut mgr, Tracer::disabled());
            (out.expect(valid), 0)
        }
    }
}

/// Runs the fault matrix (`ctx.quick` selects the smoke matrix) and
/// renders the retention report. The parallel-determinism suite passes a
/// smoke-profile cache so the identical matrix/executor code path stays
/// testable in debug builds.
#[must_use]
pub fn run(ctx: &RunCtx) -> ChaosRun {
    let quick = ctx.quick;
    let cache = &ctx.cache;
    let (duration, t0, t1) = if quick {
        (120u64, 30.0, 90.0)
    } else {
        (240u64, 60.0, 180.0)
    };
    let scenarios = scenarios(t0, t1, quick);

    // Build the single AUV model serially before any parallel dispatch, so
    // the profiler's (internally parallel, order-merged) trace lands ahead
    // of every cell stream.
    let spec = PlatformSpec::gen_a();
    cache.warm([(&spec, Scenario::Chatbot, BeKind::Olap)], &ctx.tracer);

    // Healthy baselines: one per scheme, same seed and duration.
    let healthy: Vec<(ChaosScheme, Outcome)> =
        aum_sim::exec::sweep_traced(&ctx.tracer, ChaosScheme::ALL.to_vec(), |_, s, tracer| {
            run_scheme(s, &FaultPlan::none(), duration, cache, &tracer).0
        })
        .into_iter()
        .zip(ChaosScheme::ALL)
        .map(|(o, s)| (s, o))
        .collect();

    let mut out = String::new();
    let mode = if quick { "quick" } else { "full" };
    let _ = writeln!(
        out,
        "chaos resilience matrix ({mode}) \u{2014} gen_a / chatbot / OLAP co-runner, \
         seed {CHAOS_SEED}, {duration}s runs, faults strike at t={t0:.0}s"
    );
    let _ = writeln!(
        out,
        "retention = SLO score under fault / same scheme healthy; \
         score = mean(TTFT, TPOT guarantee)"
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<20} {:<12} {:>7} {:>7} {:>7} {:>10} {:>10}",
        "fault", "scheme", "ttft_g", "tpot_g", "score", "retention", "safe-mode"
    );
    for (scheme, base) in &healthy {
        let _ = writeln!(
            out,
            "{:<20} {:<12} {:>7.3} {:>7.3} {:>7.3} {:>9.1}% {:>10}",
            "(healthy)",
            scheme.name(),
            base.slo.ttft_guarantee,
            base.slo.tpot_guarantee,
            slo_score(base),
            100.0,
            "-"
        );
    }

    // The whole fault × scheme matrix is independent cells; dispatch it
    // through the sweep executor in (scenario, scheme) order.
    let matrix_cells: Vec<(usize, ChaosScheme)> = (0..scenarios.len())
        .flat_map(|i| ChaosScheme::ALL.map(move |s| (i, s)))
        .collect();
    let matrix: Vec<(Outcome, u64)> =
        aum_sim::exec::sweep_traced(&ctx.tracer, matrix_cells, |_, (i, scheme), tracer| {
            run_scheme(scheme, &scenarios[i].plan, duration, cache, &tracer)
        });
    let mut matrix_iter = matrix.into_iter();

    let mut degenerate = false;
    for sc in &scenarios {
        let mut cells: Vec<(ChaosScheme, Cell)> = Vec::new();
        for &(scheme, ref base) in &healthy {
            let (faulted, safe_entries) = matrix_iter.next().expect("matrix covers every cell");
            let score = slo_score(&faulted);
            let retention = score / slo_score(base).max(1e-9);
            let cell = Cell {
                ttft_g: faulted.slo.ttft_guarantee,
                tpot_g: faulted.slo.tpot_guarantee,
                score,
                retention,
                safe_entries,
            };
            if !(cell.ttft_g.is_finite()
                && cell.tpot_g.is_finite()
                && cell.score.is_finite()
                && cell.retention.is_finite())
            {
                degenerate = true;
            }
            cells.push((scheme, cell));
        }
        for (scheme, cell) in &cells {
            let safe = if cell.safe_entries > 0 {
                format!("{}x", cell.safe_entries)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<20} {:<12} {:>7.3} {:>7.3} {:>7.3} {:>9.1}% {:>10}",
                sc.name,
                scheme.name(),
                cell.ttft_g,
                cell.tpot_g,
                cell.score,
                cell.retention * 100.0,
                safe
            );
        }
        let aum = &cells[0].1;
        let stat = &cells[1].1;
        let verdict = if aum.retention > stat.retention {
            "AUM more resilient"
        } else if aum.retention < stat.retention {
            "STATIC-BEST more resilient"
        } else {
            "tie"
        };
        let _ = writeln!(
            out,
            "  -> AUM retention {:.1}% vs STATIC-BEST {:.1}%  [{verdict}]",
            aum.retention * 100.0,
            stat.retention * 100.0
        );
    }

    if degenerate {
        out.push_str("\nDEGENERATE: non-finite guarantee detected \u{2014} failing the run\n");
    }
    ChaosRun {
        text: out,
        degenerate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_deterministic_and_finite() {
        let a = run(&RunCtx::new(true, Tracer::disabled()));
        let b = run(&RunCtx::new(true, Tracer::disabled()));
        assert_eq!(a.text, b.text, "same seed must yield an identical report");
        assert!(!a.degenerate, "quick matrix must stay finite:\n{}", a.text);
        assert!(a.text.contains("bandwidth-collapse"));
        assert!(a.text.contains("STATIC-BEST"));
    }
}
