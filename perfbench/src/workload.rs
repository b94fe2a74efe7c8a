//! The three workloads: their inputs, generated from the workload seed, and
//! the public simulator call each op makes.

use std::sync::Arc;

use aum::baselines::{AllAu, AuFi, AuRb, AuUp, RpAu, SmtAu, StaticBest};
use aum::cluster::{routing_weights, ClusterConfig, RoutingPolicy};
use aum::controller::AumController;
use aum::experiment::{
    try_run_experiment_traced, ExperimentConfig, Fault, FaultEvent, FaultPlan, Outcome,
};
use aum::fleet::{run_fleet_traced, FleetOutcome, NodeFault, NodeFaultEvent, NodeFaultPlan};
use aum::manager::ResourceManager;
use aum::profiler::{build_model, AuvModel, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::AuUsageLevel;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

use crate::check;
use crate::layers::{CtlStats, Probed};

/// Distinct input sets a run cycles through: pass `k` uses the inputs of
/// cycle `k % CYCLES`, so every op of a long run is checked against a
/// digest computed from the same inputs (committed, or earlier in the run).
pub const CYCLES: usize = 4;

/// Control interval of the profiler's runs, fixed inside `build_model`.
const PROFILER_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 27 cold AUV-model builds per pass.
    ProfileCold,
    /// 21 long co-location runs per pass.
    ColocateLong,
    /// Fault matrix and fleet chaos with a live flight-recorder sink.
    ChaosTraced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ProfileCold,
        Workload::ColocateLong,
        Workload::ChaosTraced,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileCold => "profile-cold",
            Workload::ColocateLong => "colocate-long",
            Workload::ChaosTraced => "chaos-traced",
        }
    }

    /// Parses a `--workload` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sweep-executor threads the workload asks for (capped at `nproc`).
    #[must_use]
    pub fn jobs(self) -> usize {
        match self {
            Workload::ProfileCold => 2,
            Workload::ColocateLong | Workload::ChaosTraced => 1,
        }
    }

    /// Whether the workload streams every emit into a flight recorder.
    #[must_use]
    pub fn traces_telemetry(self) -> bool {
        self == Workload::ChaosTraced
    }
}

/// A resource-manager scheme: Table V plus the frozen profiled optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    AllAu,
    SmtAu,
    RpAu,
    AuUp,
    AuFi,
    AuRb,
    Aum,
    StaticBest,
}

impl Scheme {
    /// Paper Table V, in table order.
    const TABLE_V: [Scheme; 7] = [
        Scheme::AllAu,
        Scheme::SmtAu,
        Scheme::RpAu,
        Scheme::AuUp,
        Scheme::AuFi,
        Scheme::AuRb,
        Scheme::Aum,
    ];

    fn name(self) -> &'static str {
        match self {
            Scheme::AllAu => "ALL-AU",
            Scheme::SmtAu => "SMT-AU",
            Scheme::RpAu => "RP-AU",
            Scheme::AuUp => "AU-UP",
            Scheme::AuFi => "AU-FI",
            Scheme::AuRb => "AU-RB",
            Scheme::Aum => "AUM",
            Scheme::StaticBest => "STATIC-BEST",
        }
    }

    /// A fresh manager; the model-driven schemes take the set-up model.
    fn manager(
        self,
        spec: &PlatformSpec,
        model: Option<&Arc<AuvModel>>,
    ) -> Box<dyn ResourceManager> {
        let model = || model.expect("model-driven scheme has a set-up model");
        match self {
            Scheme::AllAu => Box::new(AllAu::new(spec)),
            Scheme::SmtAu => Box::new(SmtAu::new(spec)),
            Scheme::RpAu => Box::new(RpAu::new(spec)),
            Scheme::AuUp => Box::new(AuUp::new(spec)),
            Scheme::AuFi => Box::new(AuFi::new(spec)),
            Scheme::AuRb => Box::new(AuRb::new(spec)),
            Scheme::Aum => Box::new(AumController::new(Arc::clone(model()))),
            Scheme::StaticBest => Box::new(StaticBest::new(model())),
        }
    }
}

/// What one op calls.
pub enum OpKind {
    /// `aum::profiler::build_model`.
    Build(Box<ProfilerConfig>),
    /// `aum::experiment::try_run_experiment_traced` under one scheme.
    Run {
        cfg: Box<ExperimentConfig>,
        scheme: Scheme,
        model: Option<Arc<AuvModel>>,
    },
    /// `aum::fleet::run_fleet_traced`.
    Fleet {
        cfg: Box<ClusterConfig>,
        policy: RoutingPolicy,
        weights: Arc<Vec<f64>>,
        track: String,
    },
}

/// One public call with its generated inputs.
pub struct Op {
    /// Unique label; also the key of its committed digest.
    pub label: String,
    /// The call.
    pub kind: OpKind,
    /// Simulated control intervals (router epochs for fleet runs) the op
    /// completes, counted from the generated grid.
    pub intervals: u64,
    /// Single-server experiment runs inside the op.
    pub runs: u64,
}

/// A checked op result.
pub enum OpResult {
    Model(AuvModel),
    Run(Box<Outcome>),
    Fleet(Box<FleetOutcome>),
}

impl Op {
    fn build(label: String, cfg: ProfilerConfig) -> Op {
        let runs = (cfg.divisions.len() * cfg.allocations.len() * cfg.repetitions) as u64;
        let intervals = runs * (cfg.run_duration.as_nanos() / PROFILER_INTERVAL.as_nanos());
        Op {
            label,
            kind: OpKind::Build(Box::new(cfg)),
            intervals,
            runs,
        }
    }

    fn run(
        label: String,
        cfg: ExperimentConfig,
        scheme: Scheme,
        model: Option<Arc<AuvModel>>,
    ) -> Op {
        let intervals = cfg.duration.as_nanos() / cfg.control_interval.as_nanos();
        Op {
            label,
            kind: OpKind::Run {
                cfg: Box::new(cfg),
                scheme,
                model,
            },
            intervals,
            runs: 1,
        }
    }

    /// Makes the call. With `ctl`, a single-server run's manager is wrapped
    /// in a [`Probed`] delegate that times and counts its decisions.
    ///
    /// # Errors
    ///
    /// Returns the simulator's error for a failed run.
    pub fn execute(&self, tracer: &Tracer, ctl: Option<&mut CtlStats>) -> Result<OpResult, String> {
        match &self.kind {
            OpKind::Build(cfg) => Ok(OpResult::Model(build_model(cfg))),
            OpKind::Run { cfg, scheme, model } => {
                let mut mgr = scheme.manager(&cfg.platform, model.as_ref());
                let outcome = match ctl {
                    Some(stats) => try_run_experiment_traced(
                        cfg,
                        &mut Probed::new(mgr.as_mut(), stats),
                        tracer.clone(),
                    ),
                    None => try_run_experiment_traced(cfg, mgr.as_mut(), tracer.clone()),
                };
                outcome
                    .map(|o| OpResult::Run(Box::new(o)))
                    .map_err(|e| e.to_string())
            }
            OpKind::Fleet {
                cfg,
                policy,
                weights,
                track,
            } => Ok(OpResult::Fleet(Box::new(run_fleet_traced(
                cfg, *policy, weights, tracer, track,
            )))),
        }
    }

    /// Checks the result's invariants and returns its digest.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn digest(&self, result: &OpResult) -> Result<u64, String> {
        match result {
            OpResult::Model(m) => {
                check::check_model(m, self.runs)?;
                Ok(check::model_digest(m))
            }
            OpResult::Run(o) => {
                check::check_outcome(o, self.intervals)?;
                Ok(check::outcome_digest(o))
            }
            OpResult::Fleet(f) => {
                check::check_fleet(f, self.intervals)?;
                Ok(check::fleet_digest(f))
            }
        }
    }
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed derived from the workload seed and a path of indices.
#[must_use]
pub fn derive(seed: u64, path: &[u64]) -> u64 {
    path.iter().fold(mix(seed), |h, &p| mix(h ^ p))
}

/// Set-up tag and pass tag of derived seeds.
const SETUP: u64 = 0;
const PASS: u64 = 1;

/// The `build_model` calls a workload makes during set-up: the AUV models
/// its runs need (`colocate-long`, `chaos-traced`) or one warm-up build
/// (`profile-cold`).
#[must_use]
pub fn setup_builds(w: Workload, seed: u64) -> Vec<Op> {
    let configs: Vec<(PlatformSpec, Scenario, BeKind)> = match w {
        Workload::ProfileCold => vec![(PlatformSpec::gen_a(), Scenario::Chatbot, BeKind::SpecJbb)],
        Workload::ColocateLong => Scenario::ALL
            .into_iter()
            .map(|sc| (PlatformSpec::gen_a(), sc, BeKind::SpecJbb))
            .collect(),
        Workload::ChaosTraced => {
            std::iter::once((PlatformSpec::gen_a(), Scenario::Chatbot, BeKind::Olap))
                .chain(
                    fleet_base()
                        .servers
                        .iter()
                        .map(|s| (s.platform.clone(), Scenario::Chatbot, BeKind::SpecJbb)),
                )
                .collect()
        }
    };
    configs
        .into_iter()
        .enumerate()
        .map(|(i, (spec, sc, be))| {
            let label = format!("setup/build/{}/{}/{be}", spec.name, sc.code());
            let mut cfg = ProfilerConfig::paper_default(spec, sc, be);
            cfg.seed = derive(seed, &[SETUP, i as u64]);
            Op::build(label, cfg)
        })
        .collect()
}

/// The ops of every cycle's pass, given the set-up models (in
/// [`setup_builds`] order).
#[must_use]
pub fn passes(w: Workload, seed: u64, models: &[Arc<AuvModel>]) -> Vec<Vec<Op>> {
    (0..CYCLES as u64)
        .map(|c| match w {
            Workload::ProfileCold => profile_cold(seed, c),
            Workload::ColocateLong => colocate_long(seed, c, models),
            Workload::ChaosTraced => chaos_traced(seed, c, models),
        })
        .collect()
}

/// 3 platforms × 3 scenarios × 3 co-runners, each a paper-default sweep:
/// 6 divisions × 5 allocations × 3 repetitions × 60 s.
fn profile_cold(seed: u64, cycle: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for spec in PlatformSpec::presets() {
        for sc in Scenario::ALL {
            for be in BeKind::ALL {
                let label = format!("c{cycle}/build/{}/{}/{be}", spec.name, sc.code());
                let mut cfg = ProfilerConfig::paper_default(spec.clone(), sc, be);
                cfg.seed = derive(seed, &[PASS, cycle, ops.len() as u64]);
                ops.push(Op::build(label, cfg));
            }
        }
    }
    ops
}

/// GenA, 3 scenarios × the 7 Table V schemes with SPECjbb (ALL-AU serves
/// alone), 1800 simulated seconds each.
fn colocate_long(seed: u64, cycle: u64, models: &[Arc<AuvModel>]) -> Vec<Op> {
    let spec = PlatformSpec::gen_a();
    let mut ops = Vec::new();
    for (sc, model) in Scenario::ALL.into_iter().zip(models) {
        for scheme in Scheme::TABLE_V {
            let be = (scheme != Scheme::AllAu).then_some(BeKind::SpecJbb);
            let mut cfg = ExperimentConfig::paper_default(spec.clone(), sc, be);
            cfg.duration = SimDuration::from_secs(1800);
            cfg.seed = derive(seed, &[PASS, cycle, ops.len() as u64]);
            let label = format!("c{cycle}/run/{}/{}", sc.code(), scheme.name());
            let model = (scheme == Scheme::Aum).then(|| Arc::clone(model));
            ops.push(Op::run(label, cfg, scheme, model));
        }
    }
    ops
}

/// Fault injection and recovery times of the single-server matrix (240 s
/// runs) and of the fleet scripts (300 s runs), as in `repro chaos` and
/// `repro fleet-chaos`.
const CHAOS_SECS: u64 = 240;
const CHAOS_T: (f64, f64) = (60.0, 180.0);
const FLEET_SECS: u64 = 300;
const FLEET_T: (f64, f64) = (60.0, 200.0);

/// The nine single-server fault scripts plus the healthy run.
fn fault_matrix() -> Vec<(&'static str, FaultPlan)> {
    let (t0, t1) = CHAOS_T;
    let one = |e| FaultPlan::single(e);
    vec![
        ("healthy", FaultPlan::none()),
        (
            "bandwidth-collapse",
            one(FaultEvent::permanent(
                t0,
                Fault::BandwidthDegrade { frac: 0.8 },
            )),
        ),
        (
            "thermal-runaway",
            one(FaultEvent::windowed(
                t0,
                t1,
                Fault::ThermalRunaway { severity: 1.5 },
            )),
        ),
        (
            "be-surge",
            one(FaultEvent::windowed(t0, t1, Fault::BeSurge { factor: 4.0 })),
        ),
        (
            "license-lock",
            one(FaultEvent::permanent(
                t0,
                Fault::FrequencyLicenseLock {
                    level: AuUsageLevel::High,
                },
            )),
        ),
        (
            "core-offline",
            one(FaultEvent::permanent(t0, Fault::CoreOffline { count: 8 })),
        ),
        (
            "rdt-blackout",
            one(FaultEvent::permanent(
                t0,
                Fault::RdtWriteFailure { delay_intervals: 0 },
            )),
        ),
        (
            "sensor-noise",
            one(FaultEvent::permanent(t0, Fault::SensorNoise { sigma: 0.6 })),
        ),
        (
            "sensor-dropout",
            one(FaultEvent::permanent(t0, Fault::SensorDropout)),
        ),
        (
            "multi-fault-script",
            FaultPlan::new(vec![
                FaultEvent::windowed(t0, t1, Fault::BandwidthDegrade { frac: 0.7 }),
                FaultEvent::windowed(t0 + 20.0, t1, Fault::ThermalRunaway { severity: 1.2 }),
                FaultEvent::windowed(t0 + 40.0, t1, Fault::BeSurge { factor: 2.0 }),
            ]),
        ),
    ]
}

/// The six `fleet-chaos` node-fault scripts.
fn fleet_scripts() -> Vec<(&'static str, NodeFaultPlan)> {
    let (t0, t1) = FLEET_T;
    vec![
        (
            "node-crash",
            NodeFaultPlan::single(NodeFaultEvent::permanent(0, t0, NodeFault::Crash)),
        ),
        (
            "crash-restart",
            NodeFaultPlan::single(NodeFaultEvent::windowed(0, t0, t1, NodeFault::Crash)),
        ),
        (
            "straggler",
            NodeFaultPlan::single(NodeFaultEvent::windowed(
                2,
                t0,
                t1,
                NodeFault::Straggler { factor: 3.0 },
            )),
        ),
        (
            "partition",
            NodeFaultPlan::single(NodeFaultEvent::windowed(1, t0, t1, NodeFault::Partition)),
        ),
        (
            "rolling-drain",
            NodeFaultPlan::new(vec![
                NodeFaultEvent::windowed(0, t0, t0 + 30.0, NodeFault::Drain),
                NodeFaultEvent::windowed(1, t0 + 30.0, t0 + 60.0, NodeFault::Drain),
                NodeFaultEvent::windowed(2, t0 + 60.0, t0 + 90.0, NodeFault::Drain),
            ]),
        ),
        (
            "multi-fault-script",
            NodeFaultPlan::new(vec![
                NodeFaultEvent::windowed(0, t0, t1, NodeFault::Crash),
                NodeFaultEvent::windowed(2, t0 + 20.0, t1, NodeFault::Straggler { factor: 2.0 }),
            ]),
        ),
    ]
}

/// The heterogeneous GenA/GenB/GenC demo fleet at the `fleet-chaos` rate:
/// 120 req/s keeps per-node epoch capacity well above one request.
fn fleet_base() -> ClusterConfig {
    let mut base = ClusterConfig::heterogeneous_demo(Scenario::Chatbot);
    base.duration = SimDuration::from_secs(FLEET_SECS);
    base.total_rate = 120.0;
    base
}

/// Chatbot with OLAP under the fault matrix × {AUM, STATIC-BEST, ALL-AU},
/// then the fleet scripts × {FAILOVER, static AUV split}.
fn chaos_traced(seed: u64, cycle: u64, models: &[Arc<AuvModel>]) -> Vec<Op> {
    let spec = PlatformSpec::gen_a();
    let mut ops = Vec::new();
    for (name, plan) in fault_matrix() {
        for scheme in [Scheme::Aum, Scheme::StaticBest, Scheme::AllAu] {
            let be = (scheme != Scheme::AllAu).then_some(BeKind::Olap);
            let mut cfg = ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, be);
            cfg.duration = SimDuration::from_secs(CHAOS_SECS);
            cfg.seed = derive(seed, &[PASS, cycle, ops.len() as u64]);
            cfg.fault = plan.clone();
            let label = format!("c{cycle}/run/{name}/{}", scheme.name());
            let model = (scheme != Scheme::AllAu).then(|| Arc::clone(&models[0]));
            ops.push(Op::run(label, cfg, scheme, model));
        }
    }
    let mut base = fleet_base();
    let fleet_models: Vec<AuvModel> = models[1..].iter().map(|m| (**m).clone()).collect();
    let weights = Arc::new(routing_weights(
        &base,
        RoutingPolicy::AuvWeighted,
        &fleet_models,
    ));
    let epochs = (FLEET_SECS as f64 / base.fleet.normalized().epoch_secs).ceil() as u64;
    for (name, plan) in fleet_scripts() {
        for policy in [RoutingPolicy::Failover, RoutingPolicy::AuvWeighted] {
            base.seed = derive(seed, &[PASS, cycle, ops.len() as u64]);
            base.fault_plan = plan.clone();
            let track = format!("fleet/{policy}/{name}");
            ops.push(Op {
                label: format!("c{cycle}/{track}"),
                kind: OpKind::Fleet {
                    cfg: Box::new(base.clone()),
                    policy,
                    weights: Arc::clone(&weights),
                    track,
                },
                intervals: epochs,
                runs: 0,
            });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-scale stand-ins for the set-up models: the pass grids only
    /// need their shape and fleet capacity weights.
    fn smoke_models(w: Workload) -> Vec<Arc<AuvModel>> {
        setup_builds(w, 1)
            .into_iter()
            .map(|op| match op.kind {
                OpKind::Build(cfg) => Arc::new(build_model(&ProfilerConfig::smoke(
                    cfg.platform,
                    cfg.scenario,
                    cfg.be,
                ))),
                _ => unreachable!("set-up ops are builds"),
            })
            .collect()
    }

    #[test]
    fn grids_have_the_documented_sizes() {
        let size = |w: Workload| {
            let models = smoke_models(w);
            let pass = passes(w, 1, &models).swap_remove(0);
            (pass.len(), pass.iter().map(|o| o.intervals).sum::<u64>())
        };
        assert_eq!(size(Workload::ProfileCold), (27, 291_600));
        assert_eq!(size(Workload::ColocateLong), (21, 75_600));
        assert_eq!(size(Workload::ChaosTraced), (42, 30 * 480 + 12 * 300));
        assert_eq!(setup_builds(Workload::ColocateLong, 1).len(), 3);
        assert_eq!(setup_builds(Workload::ChaosTraced, 1).len(), 4);
    }

    #[test]
    fn labels_are_unique_within_a_workload() {
        for w in Workload::ALL {
            let models = smoke_models(w);
            let mut labels: Vec<String> = setup_builds(w, 3).into_iter().map(|o| o.label).collect();
            labels.extend(passes(w, 3, &models).into_iter().flatten().map(|o| o.label));
            let n = labels.len();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), n, "{}", w.name());
        }
    }

    #[test]
    fn seeds_derive_deterministically_and_spread() {
        assert_eq!(derive(5, &[1, 2]), derive(5, &[1, 2]));
        assert_ne!(derive(5, &[1, 2]), derive(5, &[2, 1]));
        assert_ne!(derive(5, &[1, 2]), derive(6, &[1, 2]));
    }
}
