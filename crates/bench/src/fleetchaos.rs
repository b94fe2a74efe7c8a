//! Fleet-chaos study: node-fault matrix over the resilient fleet router.
//!
//! `repro fleet-chaos [--quick]` replays every node-scoped fault scenario
//! (crash, crash/restart, straggler, router partition, rolling drain)
//! against two routers on the heterogeneous demo fleet — FAILOVER (the
//! health-checked epoch router, [`aum::fleet::run_fleet`] under
//! `RoutingPolicy::Failover`) and STATIC (the same router with the
//! AUV-weighted t=0 split frozen for the whole run) — and reports *SLO
//! retention*: the fraction of each router's own healthy attainment it
//! keeps under the fault, plus serving cost per million tokens.
//!
//! Every cell also re-checks the stranded-request conservation identity
//! `dispatched == completed + redispatched + shed + dropped`, which the
//! integer flow model must satisfy **exactly** — any violation (or a
//! failover router that retains < 80% under the scripted node crash, or a
//! static router that fails to do strictly worse) marks the report
//! degenerate and the driver exits nonzero.
//!
//! `--quick` restricts the matrix to the acceptance-critical crash
//! scenarios over a shorter run — the CI smoke configuration. Reports are
//! byte-identical at any `--jobs` setting: the matrix dispatches through
//! the deterministic sweep executor and the fleet model itself is pure
//! integer arithmetic.

use std::fmt::Write as _;

use aum::cluster::{routing_weights, ClusterConfig, RoutingPolicy};
use aum::fleet::{run_fleet_traced, FleetOutcome, NodeFault, NodeFaultEvent, NodeFaultPlan};
use aum_llm::traces::Scenario;
use aum_sim::telemetry::{MetricsSnapshot, Tracer};
use aum_sim::time::SimDuration;

use crate::common::RunCtx;

/// Seed written into every fleet config — the flow model is deterministic
/// by construction, but the seed keeps serialized configs reproducible.
const FLEET_SEED: u64 = 11;

/// The rendered fleet-chaos report plus its health verdict.
pub struct FleetChaosRun {
    /// The full table, ready to print.
    pub text: String,
    /// `true` if conservation broke, anything came out non-finite, or the
    /// node-crash acceptance criterion failed — the driver turns this
    /// into a nonzero exit code.
    pub degenerate: bool,
}

/// One named node-fault scenario of the matrix.
struct FleetScenario {
    name: &'static str,
    plan: NodeFaultPlan,
}

/// Builds the node-fault matrix. Faults strike at `t0`; windowed faults
/// recover at `t1`. `quick` keeps the acceptance-critical crash pair.
fn scenarios(t0: f64, t1: f64, quick: bool) -> Vec<FleetScenario> {
    let mut list = vec![
        FleetScenario {
            name: "node-crash",
            plan: NodeFaultPlan::single(NodeFaultEvent::permanent(0, t0, NodeFault::Crash)),
        },
        FleetScenario {
            name: "crash-restart",
            plan: NodeFaultPlan::single(NodeFaultEvent::windowed(0, t0, t1, NodeFault::Crash)),
        },
    ];
    if quick {
        return list;
    }
    list.extend([
        FleetScenario {
            name: "straggler",
            plan: NodeFaultPlan::single(NodeFaultEvent::windowed(
                2,
                t0,
                t1,
                NodeFault::Straggler { factor: 3.0 },
            )),
        },
        FleetScenario {
            name: "partition",
            plan: NodeFaultPlan::single(NodeFaultEvent::windowed(1, t0, t1, NodeFault::Partition)),
        },
        FleetScenario {
            // Nodes drain one after another, as a rolling restart would.
            name: "rolling-drain",
            plan: NodeFaultPlan::new(vec![
                NodeFaultEvent::windowed(0, t0, t0 + 30.0, NodeFault::Drain),
                NodeFaultEvent::windowed(1, t0 + 30.0, t0 + 60.0, NodeFault::Drain),
                NodeFaultEvent::windowed(2, t0 + 60.0, t0 + 90.0, NodeFault::Drain),
            ]),
        },
        FleetScenario {
            name: "multi-fault-script",
            plan: NodeFaultPlan::new(vec![
                NodeFaultEvent::windowed(0, t0, t1, NodeFault::Crash),
                NodeFaultEvent::windowed(2, t0 + 20.0, t1, NodeFault::Straggler { factor: 2.0 }),
            ]),
        },
    ]);
    list
}

/// The two routers under chaos, in report order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FleetScheme {
    Failover,
    Static,
}

impl FleetScheme {
    const ALL: [FleetScheme; 2] = [FleetScheme::Failover, FleetScheme::Static];

    fn name(self) -> &'static str {
        match self {
            FleetScheme::Failover => "FAILOVER",
            FleetScheme::Static => "STATIC",
        }
    }

    /// The routing policy the fleet loop runs under. STATIC uses the same
    /// AUV-weighted base split as FAILOVER — the *only* difference is
    /// per-epoch health re-weighting, so the comparison isolates the
    /// failover mechanism itself.
    fn policy(self) -> RoutingPolicy {
        match self {
            FleetScheme::Failover => RoutingPolicy::Failover,
            FleetScheme::Static => RoutingPolicy::AuvWeighted,
        }
    }
}

/// Runs one router under one plan. Only the FAILOVER cell streams into
/// the harness tracer (matching the chaos study: headline scheme only),
/// so `repro fleet-chaos --trace`/`--flight` capture the health
/// transitions, re-dispatches and sheds without baseline noise.
fn run_scheme(
    scheme: FleetScheme,
    base: &ClusterConfig,
    plan: &NodeFaultPlan,
    weights: &[f64],
    tracer: &Tracer,
    scenario: &str,
) -> FleetOutcome {
    let mut cfg = base.clone();
    cfg.fault_plan = plan.clone();
    let tracer = match scheme {
        FleetScheme::Failover => tracer.clone(),
        FleetScheme::Static => Tracer::disabled(),
    };
    // Every traced cell gets its own span track (`fleet/<policy>/<fault>`)
    // — span ids are only unique per track, and all cells merge into one
    // harness trace.
    let track = format!("fleet/{}/{scenario}", scheme.policy());
    run_fleet_traced(&cfg, scheme.policy(), weights, &tracer, &track)
}

/// Publishes one completed FAILOVER cell to the live `/metrics` endpoint
/// (when installed): fleet-level aggregate series plus the per-node
/// registry snapshots under a `node` label. Wall-clock observability
/// only — the text never feeds back into the matrix.
fn publish_live_fleet(scenario: &str, outcome: &FleetOutcome) {
    let Some(live) = aum_sim::live::installed() else {
        return;
    };
    let mut text = String::new();
    let esc = aum_sim::prom::escape_label_value(scenario);
    let counters: [(&str, &str, u64); 7] = [
        (
            "aum_fleet_offered_requests",
            "New requests offered to the fleet.",
            outcome.offered,
        ),
        (
            "aum_fleet_dispatched_requests",
            "Requests entering dispatch, counting retries.",
            outcome.dispatched,
        ),
        (
            "aum_fleet_completed_requests",
            "Requests completed by a live node.",
            outcome.completed,
        ),
        (
            "aum_fleet_on_time_requests",
            "Requests served in capacity on first dispatch.",
            outcome.on_time,
        ),
        (
            "aum_fleet_redispatched_requests",
            "Stranded requests re-queued with backoff.",
            outcome.redispatched,
        ),
        (
            "aum_fleet_dropped_requests",
            "Stranded requests whose retry budget ran out.",
            outcome.dropped,
        ),
        (
            "aum_fleet_shed_requests",
            "Requests shed by the admission controller.",
            outcome.shed,
        ),
    ];
    for (name, help, v) in counters {
        let _ = writeln!(text, "# HELP {name} {help}");
        let _ = writeln!(text, "# TYPE {name} counter");
        let _ = writeln!(text, "{name}{{scenario=\"{esc}\"}} {v}");
    }
    let _ = writeln!(
        text,
        "# HELP aum_fleet_attainment SLO attainment, on-time / offered."
    );
    let _ = writeln!(text, "# TYPE aum_fleet_attainment gauge");
    let _ = writeln!(
        text,
        "aum_fleet_attainment{{scenario=\"{esc}\"}} {}",
        outcome.attainment
    );
    let series: Vec<(String, &MetricsSnapshot)> = outcome
        .node_metrics
        .iter()
        .map(|m| (m.label.clone(), &m.snapshot))
        .collect();
    text.push_str(&aum_sim::prom::render_node_registries(&series));
    live.publish_exposition(text);
}

/// Runs the node-fault matrix (`ctx.quick` selects the smoke matrix) and
/// renders the retention report. The parallel-determinism suite passes a
/// smoke-profile cache so the identical matrix/executor code path stays
/// testable in debug builds.
#[must_use]
pub fn run(ctx: &RunCtx) -> FleetChaosRun {
    let quick = ctx.quick;
    let (duration, t0, t1) = if quick {
        (120u64, 30.0, 90.0)
    } else {
        (300u64, 60.0, 200.0)
    };
    // Name the study phase on the live endpoint for the whole matrix
    // (restored on exit so the CLI's command-level phase survives).
    let live = aum_sim::live::installed();
    let prev_phase = live.as_ref().map(|l| l.set_phase("fleet"));
    let mut base = ClusterConfig::heterogeneous_demo(Scenario::Chatbot);
    base.duration = SimDuration::from_secs(duration);
    base.seed = FLEET_SEED;
    // Fleet-scale offered rate: the demo config's per-server trickle is
    // too sparse for whole-request epoch accounting (per-node capacity
    // would floor to 0 requests/epoch). 120 req/s over 3 nodes keeps the
    // integer rounding error of the flow model under a few percent.
    base.total_rate = 120.0;
    let scenarios = scenarios(t0, t1, quick);

    // Profile every platform serially before any parallel dispatch (the
    // capacity weights need the AUV models), so the profiler's trace lands
    // ahead of every cell stream.
    let models = ctx.cache.cluster_models(&base, &ctx.tracer);
    // Physical capacity shares: the profiled AUV split, independent of
    // which routing policy a cell runs.
    let capacity = routing_weights(&base, RoutingPolicy::AuvWeighted, &models);

    // Healthy baselines: one per router, no faults.
    let healthy: Vec<(FleetScheme, FleetOutcome)> =
        aum_sim::exec::sweep_traced(&ctx.tracer, FleetScheme::ALL.to_vec(), |_, s, tracer| {
            run_scheme(
                s,
                &base,
                &NodeFaultPlan::none(),
                &capacity,
                &tracer,
                "healthy",
            )
        })
        .into_iter()
        .zip(FleetScheme::ALL)
        .map(|(o, s)| (s, o))
        .collect();

    let mut out = String::new();
    let mode = if quick { "quick" } else { "full" };
    let _ = writeln!(
        out,
        "fleet-chaos resilience matrix ({mode}) \u{2014} heterogeneous 3-node fleet / chatbot, \
         seed {FLEET_SEED}, {duration}s runs, node faults strike at t={t0:.0}s"
    );
    let _ = writeln!(
        out,
        "retention = attainment under fault / same router healthy; \
         attainment = on-time / offered; conservation must hold exactly"
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<20} {:<10} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>7} {:>10} {:>9} {:>9}",
        "fault",
        "router",
        "offered",
        "on-time",
        "redisp",
        "drop",
        "shed",
        "xition",
        "attain",
        "retention",
        "$/Mtok",
        "conserve"
    );
    let mut degenerate = false;
    fn row(
        out: &mut String,
        name: &str,
        scheme: FleetScheme,
        o: &FleetOutcome,
        retention: Option<f64>,
        degenerate: &mut bool,
    ) {
        // Both identities must hold: fleet-level flow conservation and
        // the per-node rollup partitioning those totals exactly.
        let conserve = if o.conservation_ok() && o.node_conservation_ok() {
            "exact"
        } else {
            *degenerate = true;
            "VIOLATED"
        };
        if !(o.attainment.is_finite() && o.usd_per_mtok.is_finite()) {
            *degenerate = true;
        }
        let _ = writeln!(
            out,
            "{:<20} {:<10} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>7.3} {:>9} {:>9} {:>9}",
            name,
            scheme.name(),
            o.offered,
            o.on_time,
            o.redispatched,
            o.dropped,
            o.shed,
            o.health_transitions,
            o.attainment,
            retention.map_or("-".to_string(), |r| format!("{:.1}%", r * 100.0)),
            format!("{:.4}", o.usd_per_mtok),
            conserve
        );
    }
    for (scheme, o) in &healthy {
        row(&mut out, "(healthy)", *scheme, o, None, &mut degenerate);
    }

    // The whole fault × router matrix is independent cells; dispatch it
    // through the sweep executor in (scenario, router) order.
    let matrix_cells: Vec<(usize, FleetScheme)> = (0..scenarios.len())
        .flat_map(|i| FleetScheme::ALL.map(move |s| (i, s)))
        .collect();
    let matrix: Vec<FleetOutcome> =
        aum_sim::exec::sweep_traced(&ctx.tracer, matrix_cells, |_, (i, scheme), tracer| {
            run_scheme(
                scheme,
                &base,
                &scenarios[i].plan,
                &capacity,
                &tracer,
                scenarios[i].name,
            )
        });
    let mut matrix_iter = matrix.into_iter();

    for sc in &scenarios {
        let mut retentions: Vec<(FleetScheme, f64)> = Vec::new();
        for (scheme, base_out) in &healthy {
            let faulted = matrix_iter.next().expect("matrix covers every cell");
            let retention = faulted.attainment / base_out.attainment.max(1e-9);
            if !retention.is_finite() {
                degenerate = true;
            }
            if *scheme == FleetScheme::Failover {
                publish_live_fleet(sc.name, &faulted);
            }
            row(
                &mut out,
                sc.name,
                *scheme,
                &faulted,
                Some(retention),
                &mut degenerate,
            );
            retentions.push((*scheme, retention));
        }
        let failover = retentions[0].1;
        let stat = retentions[1].1;
        let verdict = if failover > stat {
            "FAILOVER more resilient"
        } else if failover < stat {
            "STATIC more resilient"
        } else {
            "tie"
        };
        let _ = writeln!(
            out,
            "  -> FAILOVER retention {:.1}% vs STATIC {:.1}%  [{verdict}]",
            failover * 100.0,
            stat * 100.0
        );
        // Acceptance gate (ISSUE 7): under the scripted node crash the
        // failover router must retain >= 80% of its healthy attainment
        // and the static router must be strictly worse.
        if sc.name == "node-crash" && !(failover >= 0.8 && stat < failover) {
            degenerate = true;
            let _ = writeln!(
                out,
                "  !! node-crash acceptance FAILED: failover {:.3} (need >= 0.8), \
                 static {:.3} (need < failover)",
                failover, stat
            );
        }
    }

    if degenerate {
        out.push_str(
            "\nDEGENERATE: conservation, finiteness, or the node-crash acceptance \
             criterion failed \u{2014} failing the run\n",
        );
    }
    if let (Some(live), Some(prev)) = (live.as_ref(), prev_phase) {
        live.set_phase(&prev);
    }
    FleetChaosRun {
        text: out,
        degenerate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ModelCache;
    use aum::profiler::ProfilerConfig;

    #[test]
    fn quick_report_is_deterministic_and_healthy() {
        let ctx = RunCtx {
            quick: true,
            tracer: Tracer::disabled(),
            cache: ModelCache::with_profile(ProfilerConfig::smoke),
        };
        let a = run(&ctx);
        let b = run(&ctx);
        assert_eq!(a.text, b.text, "same seed must yield an identical report");
        assert!(
            !a.degenerate,
            "quick matrix must pass its gates:\n{}",
            a.text
        );
        assert!(a.text.contains("node-crash"));
        assert!(a.text.contains("FAILOVER more resilient"));
        assert!(!a.text.contains("VIOLATED"));
    }
}
