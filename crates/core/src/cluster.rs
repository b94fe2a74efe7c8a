//! Cluster-level scheduling (paper §VIII, "Large-scale cluster
//! scalability").
//!
//! The paper's machine-level methodology extends to scale-out clusters by
//! analyzing each processor's AUV and load-balancing across servers. This
//! module implements that sketch: a cluster of heterogeneous AU-enabled
//! servers, a routing policy that splits the offered request rate, and a
//! per-server AUM (or baseline) manager. Since one profiled AUV model
//! amortizes across every server of the same platform (§VII-D), the router
//! can weight servers by their *profiled* serving capacity — the
//! AUV-aware policy the paper anticipates.
//!
//! The split here is the *steady-state* one: each server simulates its
//! share independently. The dynamic side — node faults, health-checked
//! failover, retry/backoff and load shedding — lives in [`crate::fleet`],
//! which replays the same [`ClusterConfig`] (plus its
//! [`NodeFaultPlan`]/[`FleetParams`] fields) through an epoch-based
//! router loop.

use serde::{Deserialize, Serialize};

use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

use crate::baselines::AllAu;
use crate::controller::AumController;
use crate::experiment::{run_experiment_traced, ExperimentConfig, Outcome};
use crate::fleet::{FleetParams, NodeFaultPlan};
use crate::prices::Prices;
use crate::profiler::AuvModel;

/// How the cluster router splits the offered load across servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Equal share to every server, blind to heterogeneity.
    Uniform,
    /// Shares proportional to each platform's peak memory bandwidth (a
    /// static hardware-spec heuristic).
    BandwidthProportional,
    /// Shares proportional to each server's *profiled* decode capacity —
    /// the AUV-aware policy: the same AUV models the runtime controllers
    /// use also inform routing.
    AuvWeighted,
    /// AUV-weighted shares, re-weighted every epoch from node health by
    /// the fleet router ([`crate::fleet::run_fleet`]): a failed node's
    /// share redistributes to survivors. In the steady-state split of
    /// [`run_cluster_with`] (no faults, no epochs) it is identical to
    /// [`RoutingPolicy::AuvWeighted`].
    Failover,
}

impl core::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RoutingPolicy::Uniform => write!(f, "uniform"),
            RoutingPolicy::BandwidthProportional => write!(f, "bw-proportional"),
            RoutingPolicy::AuvWeighted => write!(f, "auv-weighted"),
            RoutingPolicy::Failover => write!(f, "failover"),
        }
    }
}

/// One server of the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// The server's platform.
    pub platform: PlatformSpec,
    /// Co-located best-effort application (None = exclusive serving).
    pub be: Option<BeKind>,
}

/// Cluster experiment configuration.
///
/// The fleet fields (`fault_plan`, `fleet`) are declared last and carry
/// serde defaults, so legacy cluster JSON written before the fleet
/// resilience plane keeps deserializing (a missing plan means a healthy
/// fleet, missing params mean the documented defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// The servers.
    pub servers: Vec<ServerConfig>,
    /// Serving scenario (shared across the cluster).
    pub scenario: Scenario,
    /// Total offered request rate across the cluster, req/s.
    pub total_rate: f64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Base seed (each server derives its own).
    pub seed: u64,
    /// Efficiency prices.
    pub prices: Prices,
    /// Scripted node faults ([`crate::fleet::run_fleet`] replays them;
    /// the steady-state [`run_cluster_with`] split ignores them).
    #[serde(default)]
    pub fault_plan: NodeFaultPlan,
    /// Epoch router tunables for the fleet resilience plane.
    #[serde(default)]
    pub fleet: FleetParams,
}

impl ClusterConfig {
    /// A heterogeneous demo cluster: one of each Table I platform, all
    /// sharing with SPECjbb, at a load proportional to the fleet size.
    #[must_use]
    pub fn heterogeneous_demo(scenario: Scenario) -> Self {
        ClusterConfig {
            servers: PlatformSpec::presets()
                .into_iter()
                .map(|platform| ServerConfig {
                    platform,
                    be: Some(BeKind::SpecJbb),
                })
                .collect(),
            scenario,
            total_rate: scenario.default_rate() * 3.0,
            duration: SimDuration::from_secs(180),
            seed: 4242,
            prices: Prices::paper_default(),
            fault_plan: NodeFaultPlan::none(),
            fleet: FleetParams::default(),
        }
    }

    /// Stable per-node labels for fleet telemetry and node-labeled
    /// Prometheus series: `node<i>/<platform name>`, in server order.
    /// Platform names are config strings, so consumers must escape them
    /// before embedding in exposition labels.
    #[must_use]
    pub fn node_labels(&self) -> Vec<String> {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, s)| format!("node{i}/{}", s.platform.name))
            .collect()
    }
}

/// Outcome of one cluster run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Routing policy used.
    pub policy: String,
    /// Outcomes of the servers that received traffic, in server order
    /// (parallel to [`ClusterOutcome::served`]).
    pub per_server: Vec<Outcome>,
    /// Indices of the servers that received traffic. Zero-weight servers
    /// are skipped entirely — no synthetic trickle rate, no cell.
    pub served: Vec<usize>,
    /// Routing weights applied, in server order (sum = 1).
    pub weights: Vec<f64>,
    /// Cluster-wide weighted efficiency: total value / total power.
    pub efficiency: f64,
    /// Cluster-wide mean SLO violation rate, weighted by each server's
    /// SLO-tracked requests (TTFT-tracked prefills plus TPOT-tracked
    /// requests — see [`weighted_violation_rate`]).
    pub violation_rate: f64,
}

/// Routing weights for a policy (normalized to sum 1).
///
/// # Panics
///
/// Panics if the cluster is empty.
#[must_use]
pub fn routing_weights(
    cfg: &ClusterConfig,
    policy: RoutingPolicy,
    models: &[AuvModel],
) -> Vec<f64> {
    assert!(!cfg.servers.is_empty(), "cluster needs servers");
    let raw: Vec<f64> = match policy {
        RoutingPolicy::Uniform => vec![1.0; cfg.servers.len()],
        RoutingPolicy::BandwidthProportional => cfg
            .servers
            .iter()
            .map(|s| s.platform.mem_bw.value())
            .collect(),
        // Failover starts from the same profiled-capacity split; the
        // epoch loop is what re-weights it when health changes.
        RoutingPolicy::AuvWeighted | RoutingPolicy::Failover => models
            .iter()
            .map(|m| {
                // Profiled decode capacity of the server's best bucket.
                m.buckets
                    .iter()
                    .map(|b| b.decode_tps)
                    .fold(0.0f64, f64::max)
                    .max(1e-6)
            })
            .collect(),
    };
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// Aggregates per-server violation rates into a cluster-wide one,
/// weighting each server by its count of SLO-tracked requests. `per`
/// holds `(violation_rate, tracked_requests)` pairs; servers with no
/// tracked requests contribute nothing, and an idle cluster reports 0.
#[must_use]
pub fn weighted_violation_rate(per: &[(f64, f64)]) -> f64 {
    let tracked: f64 = per.iter().map(|(_, n)| n).sum();
    if tracked <= 0.0 {
        return 0.0;
    }
    per.iter().map(|(v, n)| v * n).sum::<f64>() / tracked
}

/// Requests an [`Outcome`]'s SLO report actually tracked: TTFT-tracked
/// prefills plus TPOT-tracked requests. Weighting by `prefills` alone
/// would under-count decode-heavy servers whose violations are TPOT-side.
fn slo_tracked(outcome: &Outcome) -> f64 {
    outcome.slo.prefills as f64 + outcome.slo.tpot_req_hist.count() as f64
}

/// Runs the cluster under a routing policy with per-server AUM controllers
/// (or ALL-AU when a server has no co-runner), given one pre-built AUV
/// model per server. Servers run concurrently; their simulation traces
/// merge into `tracer` in canonical server order via the sweep executor,
/// so the merged trace is byte-identical at any `--jobs` setting.
///
/// # Panics
///
/// Panics if `models` does not provide one model per server.
#[must_use]
pub fn run_cluster_with(
    cfg: &ClusterConfig,
    policy: RoutingPolicy,
    models: &[AuvModel],
    tracer: &Tracer,
) -> ClusterOutcome {
    assert_eq!(models.len(), cfg.servers.len(), "one model per server");
    let weights = routing_weights(cfg, policy, models);
    run_cluster_weighted(cfg, policy.to_string(), &weights, models, tracer)
}

/// The shared cluster fan-out: splits `cfg.total_rate` by `weights`,
/// skipping zero-weight servers, and simulates every served server.
fn run_cluster_weighted(
    cfg: &ClusterConfig,
    policy: String,
    weights: &[f64],
    models: &[AuvModel],
    tracer: &Tracer,
) -> ClusterOutcome {
    // A zero-weight server receives no traffic: skip the cell instead of
    // flooring its rate to a synthetic trickle that would pollute the
    // fleet aggregates with a near-idle simulation.
    let cells: Vec<(usize, &ServerConfig, f64, AuvModel)> = cfg
        .servers
        .iter()
        .zip(weights)
        .zip(models)
        .enumerate()
        .filter(|(_, ((_, &weight), _))| weight > 0.0)
        .map(|(i, ((server, &weight), model))| (i, server, weight, model.clone()))
        .collect();
    let served: Vec<usize> = cells.iter().map(|(i, ..)| *i).collect();
    // Each server's seed depends only on its index, so the sweep executor
    // reproduces the serial result bit-for-bit at any worker count (and
    // bounds concurrency by `--jobs` instead of one thread per server).
    let outcomes: Vec<Outcome> = aum_sim::exec::sweep_traced(
        tracer,
        cells,
        |_, (i, server, weight, model), cell_tracer| {
            let exp = ExperimentConfig {
                platform: server.platform.clone(),
                scenario: cfg.scenario,
                be: server.be,
                duration: cfg.duration,
                control_interval: SimDuration::from_millis(500),
                seed: cfg.seed.wrapping_add(i as u64 * 7919),
                rate: Some(cfg.total_rate * weight),
                rate_profile: aum_llm::traces::RateProfile::Constant,
                fault: crate::fault::FaultPlan::none(),
                prices: cfg.prices,
                model: aum_llm::config::ModelConfig::llama2_7b(),
            };
            match server.be {
                Some(_) => run_experiment_traced(&exp, &mut AumController::new(model), cell_tracer),
                None => run_experiment_traced(&exp, &mut AllAu::new(&server.platform), cell_tracer),
            }
        },
    );

    let total_power: f64 = outcomes.iter().map(|o| o.avg_power_w).sum();
    let total_value: f64 = outcomes
        .iter()
        .zip(&served)
        .map(|(o, &i)| {
            let gamma = cfg.servers[i].be.map_or(0.0, Prices::gamma);
            cfg.prices.alpha * o.prefill_tps + cfg.prices.beta * o.decode_tps + gamma * o.be_rate
        })
        .sum();
    let per_violation: Vec<(f64, f64)> = outcomes
        .iter()
        .map(|o| (o.slo.violation_rate(), slo_tracked(o)))
        .collect();
    ClusterOutcome {
        policy,
        per_server: outcomes,
        served,
        weights: weights.to_vec(),
        efficiency: total_value / total_power.max(1e-9),
        violation_rate: weighted_violation_rate(&per_violation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{build_model, ProfilerConfig};

    fn small_cluster() -> ClusterConfig {
        let mut cfg = ClusterConfig::heterogeneous_demo(Scenario::Chatbot);
        cfg.duration = SimDuration::from_secs(60);
        cfg
    }

    /// Profiles every server at paper scale, in server order.
    fn server_models(cfg: &ClusterConfig) -> Vec<AuvModel> {
        cfg.servers
            .iter()
            .map(|s| {
                build_model(&ProfilerConfig::paper_default(
                    s.platform.clone(),
                    cfg.scenario,
                    s.be.unwrap_or(BeKind::SpecJbb),
                ))
            })
            .collect()
    }

    #[test]
    fn weights_normalize_for_every_policy() {
        let cfg = small_cluster();
        let models = server_models(&cfg);
        for policy in [
            RoutingPolicy::Uniform,
            RoutingPolicy::BandwidthProportional,
            RoutingPolicy::AuvWeighted,
            RoutingPolicy::Failover,
        ] {
            let w = routing_weights(&cfg, policy, &models);
            assert_eq!(w.len(), cfg.servers.len());
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{policy}");
            assert!(w.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn failover_starts_from_the_auv_split() {
        let cfg = small_cluster();
        let models = server_models(&cfg);
        assert_eq!(
            routing_weights(&cfg, RoutingPolicy::Failover, &models),
            routing_weights(&cfg, RoutingPolicy::AuvWeighted, &models),
        );
    }

    #[test]
    fn bandwidth_policy_prefers_fast_memory() {
        let cfg = small_cluster();
        let models = server_models(&cfg);
        let w = routing_weights(&cfg, RoutingPolicy::BandwidthProportional, &models);
        // GenA (233.8 GB/s) < GenB (588) ≈ GenC (600).
        assert!(w[0] < w[1]);
        assert!(w[0] < w[2]);
    }

    #[test]
    fn cluster_runs_and_aggregates() {
        let cfg = small_cluster();
        let models = server_models(&cfg);
        let out = run_cluster_with(
            &cfg,
            RoutingPolicy::AuvWeighted,
            &models,
            &Tracer::disabled(),
        );
        assert_eq!(out.per_server.len(), 3);
        assert_eq!(out.served, vec![0, 1, 2]);
        assert!(out.efficiency > 0.0);
        assert!((0.0..=1.0).contains(&out.violation_rate));
        for o in &out.per_server {
            assert!(
                o.decode_tps > 0.0,
                "{}: server starved by routing",
                o.scheme
            );
        }
    }

    #[test]
    fn zero_weight_servers_are_skipped_not_trickled() {
        let cfg = small_cluster();
        let models = server_models(&cfg);
        let weights = [0.0, 0.6, 0.4];
        let out = run_cluster_weighted(
            &cfg,
            "hand-weighted".to_string(),
            &weights,
            &models,
            &Tracer::disabled(),
        );
        assert_eq!(out.served, vec![1, 2], "zero-weight server gets no cell");
        assert_eq!(out.per_server.len(), 2);
        assert_eq!(out.weights, weights);
        assert!(out.per_server.iter().all(|o| o.decode_tps > 0.0));
    }

    #[test]
    fn violation_rate_weights_by_tracked_requests() {
        // Hand-computed: (0.1 * 30 + 0.5 * 10) / (30 + 10) = 8 / 40 = 0.2.
        let agg = weighted_violation_rate(&[(0.1, 30.0), (0.5, 10.0)]);
        assert!((agg - 0.2).abs() < 1e-12, "got {agg}");
        // Prefill-only weighting would have said 0.1; a server with no
        // tracked requests must contribute nothing.
        let with_idle = weighted_violation_rate(&[(0.1, 30.0), (0.5, 10.0), (1.0, 0.0)]);
        assert!((with_idle - 0.2).abs() < 1e-12, "got {with_idle}");
        assert_eq!(weighted_violation_rate(&[]), 0.0);
        assert_eq!(weighted_violation_rate(&[(0.7, 0.0)]), 0.0);
    }

    #[test]
    fn auv_weighted_beats_uniform_on_heterogeneous_fleet() {
        // The §VIII claim: exploiting per-server AUV in load balancing
        // improves cluster efficiency over AUV-blind routing.
        let cfg = small_cluster();
        let models = server_models(&cfg);
        let [uniform, auv] = [RoutingPolicy::Uniform, RoutingPolicy::AuvWeighted]
            .map(|policy| run_cluster_with(&cfg, policy, &models, &Tracer::disabled()));
        assert!(
            auv.efficiency > uniform.efficiency * 0.98,
            "AUV-aware routing must not lose to uniform: {} vs {}",
            auv.efficiency,
            uniform.efficiency
        );
    }
}
