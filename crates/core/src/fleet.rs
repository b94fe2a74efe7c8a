//! Fleet resilience plane: node-level fault injection, health-checked
//! failover routing, and graceful load shedding.
//!
//! The §VIII cluster sketch ([`crate::cluster`]) splits the offered rate
//! once and never looks back — servers cannot fail and the router cannot
//! react. This module models the cluster as a *dynamic* system at router
//! granularity: a [`NodeFaultPlan`] scripts node-scoped failures
//! (crash/restart, sustained straggler slowdown, network partition from
//! the router, rolling-restart drain) with deterministic timing — it is
//! [`crate::fault`]'s script type, replayed by the same rules — and
//! [`run_fleet_traced`] replays them through an epoch-based router loop
//! of named stages:
//!
//! - **Health state machine** — per epoch, every node is Healthy →
//!   Suspect → Down (heartbeat misses), or Draining/Recovering (scripted
//!   drains and fault recoveries), driven by heartbeat and violation-rate
//!   signals ([`aum_sim::telemetry::NodeHealth`]).
//! - **Failover re-weighting** — under [`RoutingPolicy::Failover`] the
//!   router recomputes shares each epoch from health states, so a failed
//!   node's share redistributes to survivors. Every other policy keeps
//!   its t=0 split (the static-router baseline).
//! - **Retry with exponential backoff** — requests assigned to a node
//!   that cannot serve them strand; each stranded batch re-enters the
//!   dispatch pool after a capped exponential backoff, until its retry
//!   budget is exhausted and it is dropped against the SLO.
//! - **Graceful degradation** — an admission controller sheds
//!   best-effort and low-priority load first whenever the pool exceeds
//!   the live fleet capacity, recording shed counts per class.
//!
//! All request accounting is integer (`u64`) flow arithmetic, so the
//! conservation identity `dispatched == completed + redispatched + shed
//! + dropped` holds **exactly**, not within a tolerance — the
//! `repro fleet-chaos` study asserts it per cell. The loop emits
//! [`Event::NodeFault`], [`Event::NodeHealthTransition`],
//! [`Event::RequestRedispatch`] and [`Event::LoadShed`] telemetry; a
//! `NodeHealthTransition` into `Down` also trips the flight recorder
//! (`aum_sim::flight::TriggerKind::NodeDown`).
//!
//! ## Fleet observability
//!
//! Beyond the flat events, [`run_fleet_traced`] emits a span stream
//! (`aum_sim::span`): one [`SpanKind::FleetEpoch`] span per router epoch
//! on the fleet track, [`SpanKind::NodeHealthEpisode`] spans covering
//! each contiguous unhealthy window on per-node tracks
//! (`<track>/node<i>`), and [`SpanKind::RedispatchHop`] spans covering
//! each stranded batch's backoff window, labeled with the merged
//! request-batch id (`batch r<ready-epoch>a<attempt>`) that links the
//! hops of one retry chain. Every node also owns a
//! [`MetricsRegistry`] (completions, redispatches, sheds,
//! violation-tracked requests) plus a [`LogHistogram`] per-epoch latency
//! proxy; their final snapshots roll up into
//! [`FleetOutcome::node_metrics`], whose per-node counters sum back to
//! the fleet totals exactly ([`FleetOutcome::node_conservation_ok`]).
//! Health transitions additionally emit
//! [`Event::NodeMetricsSnapshot`] so `node-down` incident dumps carry
//! the offending node's state. All ids derive from (node, epoch,
//! sequence-within-epoch) — no global counters — so the stream is
//! byte-identical at any `--jobs` level.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use aum_sim::hist::LogHistogram;
use aum_sim::span::{SpanId, SpanKind};
use aum_sim::telemetry::{Event, MetricsRegistry, MetricsSnapshot, NodeHealth, Tracer};
use aum_sim::time::SimTime;
use aum_workloads::gpu::CpuAnchor;

use crate::cluster::{ClusterConfig, RoutingPolicy};
use crate::error::AumError;
use crate::fault::{FaultPlane, FaultScript, ScriptEvent};

/// One node-scoped failure mode the fleet fault plane can inject.
///
/// Parameters describe magnitude only; *which node* and *when* live on the
/// enclosing [`NodeFaultEvent`] (mirroring [`crate::fault::Fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NodeFault {
    /// The node crashes: heartbeats stop, assigned requests strand.
    /// Recovery models a restart (the node ramps back via Recovering).
    Crash,
    /// Sustained slowdown: the node keeps serving and heartbeating but at
    /// `1/factor` of its profiled capacity — excess assignments complete
    /// late, raising its violation-rate signal.
    Straggler {
        /// Capacity division factor, `> 1`.
        factor: f64,
    },
    /// Network partition from the router: the node is healthy but
    /// unreachable — heartbeats are lost and assigned requests strand,
    /// indistinguishable from a crash until the partition heals.
    Partition,
    /// Rolling-restart drain: the node *cooperatively* stops accepting
    /// new work (the router is told, so failover reacts immediately
    /// instead of waiting for missed heartbeats).
    Drain,
}

impl NodeFault {
    /// Stable label for telemetry and reports.
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        match self {
            NodeFault::Crash => "Crash",
            NodeFault::Straggler { .. } => "Straggler",
            NodeFault::Partition => "Partition",
            NodeFault::Drain => "Drain",
        }
    }

    /// Human-readable parameter summary for telemetry.
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            NodeFault::Crash => "node crashed".into(),
            NodeFault::Straggler { factor } => format!("capacity /{factor:.1}"),
            NodeFault::Partition => "partitioned from router".into(),
            NodeFault::Drain => "rolling-restart drain".into(),
        }
    }
}

/// One scheduled node fault: which node, what, when, and until when.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeFaultEvent {
    /// Index of the target node in fleet (server) order.
    pub node: usize,
    /// Activation time, seconds from run start; applied at the first
    /// epoch boundary `t >= at_secs`.
    pub at_secs: f64,
    /// The failure mode.
    pub fault: NodeFault,
    /// Recovery time, seconds; reverted at the first boundary
    /// `t >= recover_at_secs`. `None` = permanent.
    #[serde(default)]
    pub recover_at_secs: Option<f64>,
}

impl NodeFaultEvent {
    /// A permanent node fault striking at `at_secs`.
    #[must_use]
    pub fn permanent(node: usize, at_secs: f64, fault: NodeFault) -> Self {
        NodeFaultEvent {
            node,
            at_secs,
            fault,
            recover_at_secs: None,
        }
    }

    /// A node fault active over `[at_secs, recover_at_secs)`.
    #[must_use]
    pub fn windowed(node: usize, at_secs: f64, recover_at_secs: f64, fault: NodeFault) -> Self {
        NodeFaultEvent {
            node,
            at_secs,
            fault,
            recover_at_secs: Some(recover_at_secs),
        }
    }
}

impl ScriptEvent for NodeFaultEvent {
    fn window(&self) -> (f64, Option<f64>) {
        (self.at_secs, self.recover_at_secs)
    }

    fn kind_label(&self) -> &'static str {
        self.fault.kind_label()
    }

    fn check(&self) -> Result<(), String> {
        match self.fault {
            NodeFault::Straggler { factor } if !(factor.is_finite() && factor > 1.0) => {
                Err(format!("Straggler factor must be > 1, got {factor}"))
            }
            _ => Ok(()),
        }
    }
}

/// An ordered script of timed node faults — the fleet chaos screenplay.
/// It is [`crate::fault`]'s script type, so it sorts, validates, encodes
/// and replays by the same rules as a [`crate::fault::FaultPlan`].
pub type NodeFaultPlan = FaultScript<NodeFaultEvent>;

impl NodeFaultPlan {
    /// [`FaultScript::validate`] plus node-index bounds for a fleet of
    /// `nodes` servers (the plan alone does not know the fleet's size).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed event.
    pub fn validate_for(&self, nodes: usize) -> Result<(), String> {
        self.validate()?;
        for (i, ev) in self.events.iter().enumerate() {
            if ev.node >= nodes {
                return Err(format!(
                    "event {i}: node {} out of range for a {nodes}-node fleet",
                    ev.node
                ));
            }
        }
        Ok(())
    }
}

/// Tunables of the epoch router loop. Every field has a serde default,
/// so legacy `ClusterConfig` JSON without a `fleet` object (and partial
/// objects from hand-edited configs) keeps loading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetParams {
    /// Router epoch length, seconds (health checks, re-weighting and
    /// dispatch all happen at epoch boundaries).
    #[serde(default)]
    pub epoch_secs: f64,
    /// Fleet capacity provisioned as a multiple of the offered rate;
    /// distributed across nodes by profiled capacity weight.
    #[serde(default)]
    pub capacity_margin: f64,
    /// Consecutive missed heartbeats before Healthy → Suspect.
    #[serde(default)]
    pub suspect_after_misses: u32,
    /// Consecutive missed heartbeats before Suspect → Down.
    #[serde(default)]
    pub down_after_misses: u32,
    /// Per-epoch violation rate above which a live node turns Suspect.
    #[serde(default)]
    pub violation_suspect: f64,
    /// Re-dispatch budget: a stranded request is retried at most this
    /// many times before it is dropped against the SLO.
    #[serde(default)]
    pub max_retries: u32,
    /// Backoff of the first retry, epochs; doubles per attempt.
    #[serde(default)]
    pub backoff_base_epochs: u32,
    /// Backoff ceiling, epochs.
    #[serde(default)]
    pub backoff_cap_epochs: u32,
    /// Admission headroom: the pool is shed down to `headroom ×` the
    /// live (routable) capacity each epoch.
    #[serde(default)]
    pub shed_headroom: f64,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            epoch_secs: 1.0,
            capacity_margin: 1.3,
            suspect_after_misses: 1,
            down_after_misses: 3,
            violation_suspect: 0.5,
            max_retries: 3,
            backoff_base_epochs: 1,
            backoff_cap_epochs: 8,
            shed_headroom: 1.05,
        }
    }
}

impl FleetParams {
    /// Zero-valued serde defaults (a field missing from JSON) are
    /// replaced by the documented defaults, so partially-specified
    /// `fleet` objects behave sanely.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        let d = FleetParams::default();
        if !(self.epoch_secs.is_finite() && self.epoch_secs > 0.0) {
            self.epoch_secs = d.epoch_secs;
        }
        if !(self.capacity_margin.is_finite() && self.capacity_margin > 0.0) {
            self.capacity_margin = d.capacity_margin;
        }
        if self.suspect_after_misses == 0 {
            self.suspect_after_misses = d.suspect_after_misses;
        }
        if self.down_after_misses == 0 {
            self.down_after_misses = d.down_after_misses;
        }
        if !(self.violation_suspect.is_finite() && self.violation_suspect > 0.0) {
            self.violation_suspect = d.violation_suspect;
        }
        if self.backoff_base_epochs == 0 {
            self.backoff_base_epochs = d.backoff_base_epochs;
        }
        if self.backoff_cap_epochs == 0 {
            self.backoff_cap_epochs = d.backoff_cap_epochs;
        }
        if !(self.shed_headroom.is_finite() && self.shed_headroom > 0.0) {
            self.shed_headroom = d.shed_headroom;
        }
        self
    }
}

/// Admission priority classes, shed-first order, with their shares of the
/// arrival stream (percent; sums to 100).
const CLASSES: [(&str, u64); 3] = [("best-effort", 20), ("standard", 30), ("interactive", 50)];

/// One node's metrics rollup at run end: the final registry snapshot
/// (counters `assigned`/`completed`/`on_time`/`redispatched`/`dropped`/
/// `shed`/`violation_tracked`, plus latency-proxy quantile gauges) and
/// the whole-run per-epoch latency-proxy histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMetricsRollup {
    /// Stable node label from config strings, `node<i>/<platform name>`.
    pub label: String,
    /// Final [`MetricsRegistry`] snapshot of the node.
    pub snapshot: MetricsSnapshot,
    /// Per-epoch latency proxy (`epoch_secs × served / capacity`) over
    /// every epoch the node served traffic; mergeable across runs.
    pub latency_proxy: LogHistogram,
}

impl NodeMetricsRollup {
    /// A counter from the final snapshot (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.snapshot.counters.get(name).copied().unwrap_or(0)
    }
}

/// Outcome of one fleet run: exact integer request-flow accounting plus
/// derived SLO attainment and cost.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Routing policy used.
    pub policy: String,
    /// Router epochs simulated.
    pub epochs: u64,
    /// New requests offered to the fleet over the run.
    pub offered: u64,
    /// Requests entering the admission/dispatch pipeline, counting each
    /// re-dispatch re-entry — the left side of the conservation identity.
    pub dispatched: u64,
    /// Requests completed by a live node.
    pub completed: u64,
    /// Completed requests that were served in capacity on their first
    /// dispatch (never stranded, never beyond a node's epoch capacity).
    pub on_time: u64,
    /// Stranded requests re-queued for a later epoch.
    pub redispatched: u64,
    /// Stranded requests whose retry budget ran out.
    pub dropped: u64,
    /// Requests shed by the admission controller.
    pub shed: u64,
    /// Shed counts by class, in shed-first order: best-effort, standard,
    /// interactive.
    pub shed_by_class: Vec<u64>,
    /// Requests still waiting in the retry queue at run end.
    pub pending: u64,
    /// Node health transitions observed.
    pub health_transitions: u64,
    /// SLO attainment: `on_time / offered`.
    pub attainment: f64,
    /// Serving cost per million generated tokens, USD (amortized CapEx
    /// plus energy over the whole provisioned fleet — dead nodes still
    /// cost money, which is what makes resilience a TCO question).
    pub usd_per_mtok: f64,
    /// Per-node metric rollups in fleet (server) order; every counter is
    /// a partition of the matching fleet total
    /// ([`FleetOutcome::node_conservation_ok`]).
    #[serde(default)]
    pub node_metrics: Vec<NodeMetricsRollup>,
}

impl FleetOutcome {
    /// The stranded-request conservation identity, which holds exactly
    /// (integer flow accounting): every request entering the pipeline
    /// leaves it as exactly one of completed / re-queued / shed / dropped.
    #[must_use]
    pub fn conservation_ok(&self) -> bool {
        self.dispatched == self.completed + self.redispatched + self.shed + self.dropped
    }

    /// The per-node rollup partitions the fleet totals exactly: summing
    /// any flow counter over [`FleetOutcome::node_metrics`] reproduces
    /// the matching fleet field, and per-node assignments plus sheds
    /// cover everything dispatched. Trivially true when the rollup is
    /// absent (legacy outcomes decoded without `node_metrics`).
    #[must_use]
    pub fn node_conservation_ok(&self) -> bool {
        if self.node_metrics.is_empty() {
            return true;
        }
        let sum = |name: &str| -> u64 { self.node_metrics.iter().map(|m| m.counter(name)).sum() };
        sum("completed") == self.completed
            && sum("on_time") == self.on_time
            && sum("redispatched") == self.redispatched
            && sum("dropped") == self.dropped
            && sum("shed") == self.shed
            && sum("assigned") + self.shed == self.dispatched
    }
}

/// What a node's active faults do together: a flag is set while any
/// fault of its kind is active, and the slowdown is the largest active
/// straggler factor.
#[derive(Clone, Copy)]
struct NodeFaults {
    crashed: bool,
    partitioned: bool,
    draining: bool,
    straggle: f64,
}

impl NodeFaults {
    fn compose<'f>(faults: impl IntoIterator<Item = &'f NodeFault>) -> Self {
        let mut fx = NodeFaults {
            crashed: false,
            partitioned: false,
            draining: false,
            straggle: 1.0,
        };
        for fault in faults {
            match *fault {
                NodeFault::Crash => fx.crashed = true,
                NodeFault::Partition => fx.partitioned = true,
                NodeFault::Drain => fx.draining = true,
                NodeFault::Straggler { factor } => fx.straggle = fx.straggle.max(factor),
            }
        }
        fx
    }

    /// Heartbeats reach the router (drain is cooperative — it keeps
    /// heartbeating).
    fn responsive(&self) -> bool {
        !self.crashed && !self.partitioned
    }

    /// Physically able to serve newly assigned requests this epoch.
    fn serves(&self) -> bool {
        self.responsive() && !self.draining
    }
}

/// One node in the epoch loop: its faults, the router's view of it, and
/// its own metrics, which tally apart from the fleet totals.
struct Node {
    faults: NodeFaults,
    health: NodeHealth,
    missed: u32,
    /// Violation rate the router observed from this node last epoch.
    last_violation: f64,
    /// Physical capacity, requests per epoch.
    cap: f64,
    /// The policy's t=0 routing share.
    base_weight: f64,
    /// `node<i>/<platform name>`, from config strings.
    label: String,
    /// The node's span track, `<track>/node<i>`, built once per run.
    track: Arc<str>,
    reg: MetricsRegistry,
    /// Per-epoch latency proxy.
    hist: LogHistogram,
    /// Payload of the open health-episode span, which packs (node, epoch).
    episode: Option<u64>,
    /// Redispatch hops opened this epoch; hop span ids derive from
    /// (this sequence, epoch), so they are a pure function of the run.
    hops: u64,
}

impl Node {
    /// Counts this epoch's heartbeat and returns the health the router
    /// moves the node to, with the reason, if it changes.
    fn beat(&mut self, params: &FleetParams) -> Option<(NodeHealth, String)> {
        let responsive = self.faults.responsive();
        self.missed = if responsive {
            0
        } else {
            self.missed.saturating_add(1)
        };
        let (next, reason) = if self.faults.draining {
            (NodeHealth::Draining, "rolling-restart drain".to_string())
        } else if !responsive {
            if self.missed >= params.down_after_misses {
                (
                    NodeHealth::Down,
                    format!("{} missed heartbeats", self.missed),
                )
            } else if self.missed >= params.suspect_after_misses {
                (
                    NodeHealth::Suspect,
                    format!("{} missed heartbeat(s)", self.missed),
                )
            } else {
                return None;
            }
        } else {
            match self.health {
                NodeHealth::Down | NodeHealth::Draining => {
                    (NodeHealth::Recovering, "heartbeat restored".to_string())
                }
                NodeHealth::Recovering => (NodeHealth::Healthy, "clean epoch".to_string()),
                NodeHealth::Suspect if self.last_violation <= params.violation_suspect => {
                    (NodeHealth::Healthy, "signal cleared".to_string())
                }
                NodeHealth::Healthy if self.last_violation > params.violation_suspect => (
                    NodeHealth::Suspect,
                    format!("violation rate {:.2}", self.last_violation),
                ),
                _ => return None,
            }
        };
        (next != self.health).then_some((next, reason))
    }

    /// Serves `fresh` new and `retried` re-dispatched requests. Retries
    /// complete but are late by construction (they blew TTFT stranded on
    /// a dead node); fresh work beyond the node's epoch capacity completes
    /// late too. Returns the served and on-time counts.
    fn serve(&mut self, fresh: u64, retried: u64, epoch_secs: f64) -> (u64, u64) {
        let cap = (self.cap / self.faults.straggle).floor() as u64;
        let served = fresh + retried;
        let on_time = fresh.min(cap.saturating_sub(retried));
        self.last_violation = if served == 0 {
            0.0
        } else {
            (served - on_time) as f64 / served as f64
        };
        if served > 0 {
            self.reg.counter_add("completed", served);
            if on_time > 0 {
                self.reg.counter_add("on_time", on_time);
            }
            if served > on_time {
                self.reg.counter_add("violation_tracked", served - on_time);
            }
            self.reg.gauge_set("violation_rate", self.last_violation);
            if cap > 0 {
                // Latency proxy: the fraction of the epoch the node's
                // capacity was busy on this load.
                self.hist.record(epoch_secs * served as f64 / cap as f64);
            }
        }
        (served, on_time)
    }

    /// Closes the health episode still open at run `end` (balanced span
    /// streams export cleanly) and rolls the registry up.
    fn roll_up(mut self, end: SimTime, tracer: &Tracer) -> NodeMetricsRollup {
        if let Some(payload) = self.episode.take() {
            close_episode(tracer, end, payload, &self.track);
        }
        if self.hist.count() > 0 {
            for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                let gauge = format!("epoch_latency_proxy_secs/{name}");
                self.reg.gauge_set(&gauge, self.hist.quantile(q));
            }
        }
        NodeMetricsRollup {
            snapshot: self.reg.snapshot(end),
            label: self.label,
            latency_proxy: self.hist,
        }
    }
}

fn close_episode(tracer: &Tracer, at: SimTime, payload: u64, track: &Arc<str>) {
    let id = SpanId::derive(SpanKind::NodeHealthEpisode, payload).0;
    tracer.emit(at, || Event::SpanClose {
        id,
        kind: SpanKind::NodeHealthEpisode,
        track: track.clone(),
    });
}

/// Routing share multiplier per health state under the failover policy.
fn health_factor(health: NodeHealth) -> f64 {
    match health {
        NodeHealth::Healthy => 1.0,
        // Suspect and Recovering carry a half share: enough traffic to
        // observe them, not enough to bet the SLO on them.
        NodeHealth::Suspect | NodeHealth::Recovering => 0.5,
        NodeHealth::Down | NodeHealth::Draining => 0.0,
    }
}

/// Splits `count` requests across nodes proportionally to `weights`
/// using largest-remainder rounding — deterministic (ties break by node
/// index) and exactly conserving (`sum == count`).
fn split_requests(count: u64, weights: &[f64]) -> Vec<u64> {
    let total: f64 = weights.iter().sum();
    if count == 0 || total <= 0.0 {
        return vec![0; weights.len()];
    }
    let mut out: Vec<u64> = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, w) in weights.iter().enumerate() {
        let quota = count as f64 * (w / total);
        let base = quota.floor() as u64;
        out.push(base);
        assigned += base;
        fracs.push((i, quota - quota.floor()));
    }
    // Largest fractional parts get the remainder, node index breaks ties.
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(a.0.cmp(&b.0)));
    let mut rest = count - assigned;
    for (i, _) in fracs {
        if rest == 0 {
            break;
        }
        out[i] += 1;
        rest -= 1;
    }
    out
}

/// A batch of stranded requests waiting out its backoff.
struct RetryBatch {
    ready_epoch: u64,
    attempt: u32,
    count: u64,
}

/// One fleet run: what every stage reads, each node, the retry queue and
/// the fleet-wide flow. `out` tallies the flow apart from the per-node
/// registries, and [`FleetOutcome::node_conservation_ok`] checks the two
/// against each other.
struct Fleet<'a> {
    cfg: &'a ClusterConfig,
    policy: RoutingPolicy,
    params: FleetParams,
    tracer: &'a Tracer,
    /// The fleet's span track, built once per run.
    track: Arc<str>,
    faults: FaultPlane<'a, NodeFaultEvent>,
    nodes: Vec<Node>,
    retry_queue: Vec<RetryBatch>,
    /// Fractional arrivals carried to the next epoch, fleet-wide and per
    /// class.
    arrival_acc: f64,
    class_acc: [f64; CLASSES.len()],
    out: FleetOutcome,
}

impl<'a> Fleet<'a> {
    fn new(
        cfg: &'a ClusterConfig,
        policy: RoutingPolicy,
        capacity_weights: &[f64],
        tracer: &'a Tracer,
        track: &str,
    ) -> Result<Self, AumError> {
        let n = cfg.servers.len();
        if n == 0 {
            return Err(AumError::Config("fleet needs servers".into()));
        }
        if capacity_weights.len() != n {
            return Err(AumError::Config(format!(
                "{} capacity weights for {n} servers",
                capacity_weights.len()
            )));
        }
        cfg.fault_plan
            .validate_for(n)
            .map_err(AumError::FaultPlan)?;
        let params = cfg.fleet.normalized();
        let duration_secs = cfg.duration.as_secs_f64();
        let epochs = (duration_secs / params.epoch_secs).ceil().max(1.0) as u64;
        let last_boundary = (epochs - 1) as f64 * params.epoch_secs;
        let cap_sum: f64 = capacity_weights.iter().sum();
        let nodes = cfg
            .node_labels()
            .into_iter()
            .zip(capacity_weights)
            .zip(&cfg.servers)
            .enumerate()
            .map(|(i, ((label, w), server))| {
                let share = w / cap_sum;
                Node {
                    faults: NodeFaults::compose([]),
                    health: NodeHealth::Healthy,
                    missed: 0,
                    last_violation: 0.0,
                    cap: params.capacity_margin * cfg.total_rate * params.epoch_secs * share,
                    // The static split the non-failover policies hold for
                    // the whole run.
                    base_weight: match policy {
                        RoutingPolicy::Uniform => 1.0,
                        RoutingPolicy::BandwidthProportional => server.platform.mem_bw.value(),
                        RoutingPolicy::AuvWeighted | RoutingPolicy::Failover => share,
                    },
                    label,
                    track: format!("{track}/node{i}").into(),
                    reg: MetricsRegistry::new(),
                    hist: LogHistogram::default(),
                    episode: None,
                    hops: 0,
                }
            })
            .collect();
        Ok(Fleet {
            cfg,
            policy,
            params,
            tracer,
            track: track.into(),
            faults: FaultPlane::new(&cfg.fault_plan, last_boundary, duration_secs, tracer),
            nodes,
            retry_queue: Vec::new(),
            arrival_acc: 0.0,
            class_acc: [0.0; CLASSES.len()],
            out: FleetOutcome {
                policy: policy.to_string(),
                epochs,
                shed_by_class: vec![0; CLASSES.len()],
                ..FleetOutcome::default()
            },
        })
    }

    fn at_of(&self, e: u64) -> SimTime {
        SimTime::from_secs_f64(e as f64 * self.params.epoch_secs)
    }

    /// Opens epoch `e`'s span on the fleet track and returns its boundary.
    /// The close lands on the next boundary; OrderingSink time-sorts at
    /// flush, so emitting it now is safe.
    fn open_epoch(&self, e: u64) -> SimTime {
        let at = self.at_of(e);
        let id = SpanId::derive(SpanKind::FleetEpoch, e).0;
        self.tracer.emit(at, || Event::SpanOpen {
            id,
            parent: None,
            kind: SpanKind::FleetEpoch,
            track: self.track.clone(),
            label: None,
        });
        self.tracer.emit(self.at_of(e + 1), || Event::SpanClose {
            id,
            kind: SpanKind::FleetEpoch,
            track: self.track.clone(),
        });
        at
    }

    /// Fires the script's edges due at boundary `e` and, when one fired,
    /// recomposes every node's faults from the active ones.
    fn fault_edges(&mut self, e: u64, at: SimTime) {
        let tracer = self.tracer;
        let now_secs = e as f64 * self.params.epoch_secs;
        let fired = self.faults.advance(now_secs, |_, ev, active| {
            tracer.emit(at, || Event::NodeFault {
                node: ev.node,
                kind: ev.fault.kind_label().to_string(),
                detail: ev.fault.detail(),
                active,
            });
        });
        if fired {
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let active = self.faults.active().filter(|(_, ev)| ev.node == i);
                node.faults = NodeFaults::compose(active.map(|(_, ev)| &ev.fault));
            }
        }
    }

    /// Heartbeats and the health state machine. A transition is traced,
    /// closes the node's running health episode, opens the next unless
    /// the node turned Healthy, and carries the node's metrics snapshot.
    fn health(&mut self, e: u64, at: SimTime) {
        let tracer = self.tracer;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let Some((next, reason)) = node.beat(&self.params) else {
                continue;
            };
            let from = std::mem::replace(&mut node.health, next);
            self.out.health_transitions += 1;
            tracer.emit(at, || Event::NodeHealthTransition {
                node: i,
                from,
                to: next,
                reason,
            });
            if let Some(payload) = node.episode.take() {
                close_episode(tracer, at, payload, &node.track);
            }
            if next != NodeHealth::Healthy {
                let payload = ((i as u64) << 40) | e;
                node.episode = Some(payload);
                let id = SpanId::derive(SpanKind::NodeHealthEpisode, payload).0;
                tracer.emit(at, || Event::SpanOpen {
                    id,
                    parent: None,
                    kind: SpanKind::NodeHealthEpisode,
                    track: node.track.clone(),
                    label: Some(format!("{next:?}")),
                });
            }
            // Snapshot unconditionally (registry state must not depend on
            // whether the tracer is enabled) so node-down incident dumps
            // carry the offending node's metrics.
            let snapshot = node.reg.snapshot(at);
            tracer.emit(at, || Event::NodeMetricsSnapshot {
                node: i,
                label: node.label.clone(),
                snapshot,
            });
        }
    }

    /// This epoch's routing shares: failover re-weights from health,
    /// every other policy keeps the t=0 split.
    fn routing_weights(&self) -> Vec<f64> {
        let failover = self.policy == RoutingPolicy::Failover;
        self.nodes
            .iter()
            .map(|node| {
                if failover {
                    node.base_weight * health_factor(node.health)
                } else {
                    node.base_weight
                }
            })
            .collect()
    }

    /// Assembles the dispatch pool from fresh arrivals (exact integer
    /// accumulation of the offered rate, split into priority classes) and
    /// the retry batches whose backoff expired. Admission control then
    /// sheds fresh work down to the live capacity the router believes it
    /// has, lowest class first; retries are already admitted work and are
    /// never shed. Returns the admitted fresh count and the ready batches.
    fn admit(&mut self, e: u64, at: SimTime, weights: &[f64]) -> (u64, Vec<RetryBatch>) {
        self.arrival_acc += self.cfg.total_rate * self.params.epoch_secs;
        let arrivals = self.arrival_acc.floor() as u64;
        self.arrival_acc -= arrivals as f64;
        let mut fresh = [0u64; CLASSES.len()];
        for (c, (_, share)) in CLASSES.iter().enumerate() {
            self.class_acc[c] += arrivals as f64 * (*share as f64 / 100.0);
            fresh[c] = self.class_acc[c].floor() as u64;
            self.class_acc[c] -= fresh[c] as f64;
        }
        let fresh_total: u64 = fresh.iter().sum();
        let (ready, waiting): (Vec<RetryBatch>, _) = std::mem::take(&mut self.retry_queue)
            .into_iter()
            .partition(|b| b.ready_epoch <= e);
        self.retry_queue = waiting;
        let ready_total: u64 = ready.iter().map(|b| b.count).sum();
        self.out.offered += fresh_total;
        self.out.dispatched += fresh_total + ready_total;

        let live_cap: f64 = self
            .nodes
            .iter()
            .zip(weights)
            .map(|(node, w)| {
                if *w > 0.0 {
                    node.cap / node.faults.straggle
                } else {
                    0.0
                }
            })
            .sum();
        let budget = (self.params.shed_headroom * live_cap).floor() as u64;
        // Excess beyond all fresh arrivals stays in the pool: retries
        // ride through admission unconditionally.
        let mut excess = (fresh_total + ready_total).saturating_sub(budget);
        let mut shed = 0u64;
        for (c, count) in fresh.iter_mut().enumerate() {
            let cut = (*count).min(excess);
            if cut > 0 {
                *count -= cut;
                excess -= cut;
                shed += cut;
                self.out.shed_by_class[c] += cut;
                self.tracer.emit(at, || Event::LoadShed {
                    class: CLASSES[c].0.to_string(),
                    count: cut,
                    epoch: e,
                });
            }
        }
        self.out.shed += shed;
        // Attribute the shed work to the nodes whose (un)availability
        // forced it, by this epoch's routing shares — split_requests
        // conserves exactly, keeping the per-node rollup a partition of
        // the fleet totals. With nothing routable the router itself shed,
        // which the rollup books on node 0 (like router-level strands).
        if shed > 0 {
            if weights.iter().sum::<f64>() > 0.0 {
                let parts = split_requests(shed, weights);
                for (node, part) in self.nodes.iter_mut().zip(parts) {
                    if part > 0 {
                        node.reg.counter_add("shed", part);
                    }
                }
            } else {
                self.nodes[0].reg.counter_add("shed", shed);
            }
        }
        (fresh.iter().sum(), ready)
    }

    /// Splits the admitted `fresh` requests and every `ready` retry batch
    /// across nodes by this epoch's weights. A node that serves completes
    /// its share; on any other node the share strands.
    fn dispatch(&mut self, e: u64, at: SimTime, weights: &[f64], fresh: u64, ready: &[RetryBatch]) {
        for node in &mut self.nodes {
            node.hops = 0;
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            // Nothing routable: the whole pool strands at the router,
            // booked on node 0 (like the router-level shed).
            let total = fresh + ready.iter().map(|b| b.count).sum::<u64>();
            if total > 0 {
                self.nodes[0].reg.counter_add("assigned", total);
            }
            self.strand(0, 1, fresh, e, at);
            for b in ready {
                self.strand(0, b.attempt, b.count, e, at);
            }
            return;
        }
        let fresh = split_requests(fresh, weights);
        let retries: Vec<Vec<u64>> = ready
            .iter()
            .map(|b| split_requests(b.count, weights))
            .collect();
        for i in 0..self.nodes.len() {
            let retried: u64 = retries.iter().map(|v| v[i]).sum();
            let node = &mut self.nodes[i];
            if fresh[i] + retried > 0 {
                node.reg.counter_add("assigned", fresh[i] + retried);
            }
            if node.faults.serves() {
                let (served, on_time) = node.serve(fresh[i], retried, self.params.epoch_secs);
                self.out.completed += served;
                self.out.on_time += on_time;
                continue;
            }
            self.strand(i, 1, fresh[i], e, at);
            for (b, assigned) in ready.iter().zip(&retries) {
                self.strand(i, b.attempt, assigned[i], e, at);
            }
            self.nodes[i].last_violation = 0.0;
        }
    }

    /// Strands `count` requests of retry `attempt` on node `i`: they
    /// re-enter the pool after a capped exponential backoff, or drop once
    /// the retry budget is spent.
    fn strand(&mut self, i: usize, attempt: u32, count: u64, e: u64, at: SimTime) {
        if count == 0 {
            return;
        }
        if attempt > self.params.max_retries {
            self.out.dropped += count;
            self.nodes[i].reg.counter_add("dropped", count);
            return;
        }
        let backoff = self
            .params
            .backoff_base_epochs
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.params.backoff_cap_epochs)
            .max(1);
        let ready_epoch = e + 1 + u64::from(backoff);
        let close = self.at_of(ready_epoch.min(self.out.epochs));
        self.out.redispatched += count;
        self.retry_queue.push(RetryBatch {
            ready_epoch,
            attempt: attempt + 1,
            count,
        });
        let node = &mut self.nodes[i];
        node.reg.counter_add("redispatched", count);
        self.tracer.emit(at, || Event::RequestRedispatch {
            node: i,
            count,
            attempt: attempt + 1,
            backoff_epochs: backoff,
        });
        // One RedispatchHop span per stranded batch on the failing node's
        // track, covering the backoff window. The label is the merged
        // batch id (`r<ready>a<attempt>`) the batch carries when it
        // re-enters dispatch — the link tying consecutive hops of one
        // retry chain together.
        let id = SpanId::derive(SpanKind::RedispatchHop, (node.hops << 40) | e).0;
        node.hops += 1;
        self.tracer.emit(at, || Event::SpanOpen {
            id,
            parent: None,
            kind: SpanKind::RedispatchHop,
            track: node.track.clone(),
            label: Some(format!("batch r{ready_epoch}a{} x{count}", attempt + 1)),
        });
        self.tracer.emit(close, || Event::SpanClose {
            id,
            kind: SpanKind::RedispatchHop,
            track: node.track.clone(),
        });
    }

    /// Merges retry batches sharing (ready epoch, attempt), so the queue
    /// stays bounded regardless of run length.
    fn coalesce_retries(&mut self) {
        self.retry_queue.sort_by_key(|b| (b.ready_epoch, b.attempt));
        self.retry_queue.dedup_by(|b, a| {
            if a.ready_epoch == b.ready_epoch && a.attempt == b.attempt {
                a.count += b.count;
                true
            } else {
                false
            }
        });
    }

    /// Rolls every node up, and derives attainment and cost.
    fn finish(mut self) -> FleetOutcome {
        let end = self.at_of(self.out.epochs);
        let n = self.nodes.len() as f64;
        let tracer = self.tracer;
        let out = &mut self.out;
        out.node_metrics = self
            .nodes
            .into_iter()
            .map(|node| node.roll_up(end, tracer))
            .collect();
        out.pending = self.retry_queue.iter().map(|b| b.count).sum();
        out.attainment = if out.offered == 0 {
            1.0
        } else {
            out.on_time as f64 / out.offered as f64
        };
        // Cost: amortized CapEx plus energy over the whole provisioned
        // fleet for the whole run (a crashed node still costs money).
        let anchor = CpuAnchor::gen_a_paper();
        let node_usd_per_sec =
            anchor.cost_usd / AMORTIZATION_SECS + anchor.power_w / 1000.0 * USD_PER_KWH / 3600.0;
        let fleet_cost = node_usd_per_sec * n * self.cfg.duration.as_secs_f64();
        let tokens = out.completed as f64 * self.cfg.scenario.mean_output() as f64;
        out.usd_per_mtok = fleet_cost / (tokens.max(1.0) / 1e6);
        self.out
    }
}

/// Runs the fleet flow model for `cfg` under `policy`, tracing on
/// `track`.
///
/// `capacity_weights` is each node's share of the fleet's physical
/// serving capacity (the AUV-profiled weights from
/// [`crate::cluster::routing_weights`]); it is normalized internally and
/// is independent of the routing policy — routing *shares* follow the
/// policy, capacity follows the hardware.
///
/// Telemetry ([`Event::NodeFault`], [`Event::NodeHealthTransition`],
/// [`Event::RequestRedispatch`], [`Event::LoadShed`],
/// [`Event::FaultOutsideWindow`]) is emitted into `tracer` at epoch
/// boundaries; pass [`Tracer::disabled`] to skip it. These flat events
/// land on no track, but the span stream ([`SpanKind::FleetEpoch`] on
/// `track`, [`SpanKind::NodeHealthEpisode`] and
/// [`SpanKind::RedispatchHop`] on `<track>/node<i>`) keys span ids per
/// track — callers merging several traced fleet runs into one sink (e.g.
/// the fleet-chaos matrix) must pass a distinct track per run or the
/// streams collide as duplicate opens.
///
/// # Errors
///
/// - [`AumError::Config`] if the cluster has no servers, or if
///   `capacity_weights` disagrees with the server count;
/// - [`AumError::FaultPlan`] if the fault plan is invalid for this fleet,
///   such as an event naming a node the fleet does not have.
pub fn try_run_fleet_traced(
    cfg: &ClusterConfig,
    policy: RoutingPolicy,
    capacity_weights: &[f64],
    tracer: &Tracer,
    track: &str,
) -> Result<FleetOutcome, AumError> {
    let mut fleet = Fleet::new(cfg, policy, capacity_weights, tracer, track)?;
    for e in 0..fleet.out.epochs {
        let at = fleet.open_epoch(e);
        fleet.fault_edges(e, at);
        fleet.health(e, at);
        let weights = fleet.routing_weights();
        let (fresh, ready) = fleet.admit(e, at, &weights);
        fleet.dispatch(e, at, &weights, fresh, &ready);
        fleet.coalesce_retries();
    }
    Ok(fleet.finish())
}

/// [`try_run_fleet_traced`], panicking on its errors.
///
/// # Panics
///
/// Panics if the cluster is empty, if `capacity_weights` disagrees with
/// the server count, or if the fault plan is invalid for this fleet.
#[must_use]
pub fn run_fleet_traced(
    cfg: &ClusterConfig,
    policy: RoutingPolicy,
    capacity_weights: &[f64],
    tracer: &Tracer,
    track: &str,
) -> FleetOutcome {
    try_run_fleet_traced(cfg, policy, capacity_weights, tracer, track).expect("invalid fleet run")
}

/// CapEx amortization horizon: 3 years of seconds.
const AMORTIZATION_SECS: f64 = 3.0 * 365.0 * 24.0 * 3600.0;
/// Electricity price, USD per kWh.
const USD_PER_KWH: f64 = 0.10;

#[cfg(test)]
mod tests {
    use super::*;
    use aum_llm::traces::Scenario;
    use aum_sim::telemetry::{MemorySink, TraceRecord};

    fn fleet_cfg(plan: NodeFaultPlan) -> ClusterConfig {
        let mut cfg = ClusterConfig::heterogeneous_demo(Scenario::Chatbot);
        cfg.duration = aum_sim::time::SimDuration::from_secs(120);
        cfg.total_rate = 30.0;
        cfg.fault_plan = plan;
        cfg
    }

    fn even_weights(n: usize) -> Vec<f64> {
        vec![1.0 / n as f64; n]
    }

    /// An untraced run over three evenly weighted nodes.
    fn untraced(cfg: &ClusterConfig, policy: RoutingPolicy) -> FleetOutcome {
        let track = format!("fleet/{policy}");
        run_fleet_traced(cfg, policy, &even_weights(3), &Tracer::disabled(), &track)
    }

    fn crash_plan() -> NodeFaultPlan {
        NodeFaultPlan::single(NodeFaultEvent::permanent(0, 20.0, NodeFault::Crash))
    }

    fn captured(
        cfg: &ClusterConfig,
        policy: RoutingPolicy,
        weights: &[f64],
    ) -> (FleetOutcome, Vec<TraceRecord>) {
        let (tracer, sink) = Tracer::shared(MemorySink::new());
        let out = run_fleet_traced(cfg, policy, weights, &tracer, &format!("fleet/{policy}"));
        let records = sink.lock().expect("sink lock").records().to_vec();
        (out, records)
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let bad_factor = NodeFaultPlan::single(NodeFaultEvent::permanent(
            0,
            1.0,
            NodeFault::Straggler { factor: 1.0 },
        ));
        assert!(bad_factor.validate().is_err());
        let negative = NodeFaultPlan::single(NodeFaultEvent::permanent(0, -1.0, NodeFault::Crash));
        assert!(negative.validate().is_err());
        let inverted =
            NodeFaultPlan::single(NodeFaultEvent::windowed(0, 10.0, 5.0, NodeFault::Partition));
        assert!(inverted.validate().is_err());
        let out_of_range =
            NodeFaultPlan::single(NodeFaultEvent::permanent(7, 1.0, NodeFault::Crash));
        assert!(out_of_range.validate().is_ok());
        assert!(out_of_range.validate_for(3).is_err());
    }

    #[test]
    fn healthy_fleet_attains_everything_and_conserves() {
        let cfg = fleet_cfg(NodeFaultPlan::none());
        for policy in [
            RoutingPolicy::Uniform,
            RoutingPolicy::AuvWeighted,
            RoutingPolicy::Failover,
        ] {
            let out = untraced(&cfg, policy);
            assert!(out.conservation_ok(), "{policy}: {out:?}");
            assert_eq!(out.dropped, 0, "{policy}");
            assert_eq!(out.shed, 0, "{policy}");
            assert!(out.attainment > 0.999, "{policy}: {}", out.attainment);
        }
    }

    #[test]
    fn conservation_is_exact_under_every_fault_kind() {
        let plans = [
            crash_plan(),
            NodeFaultPlan::single(NodeFaultEvent::windowed(
                1,
                20.0,
                70.0,
                NodeFault::Partition,
            )),
            NodeFaultPlan::single(NodeFaultEvent::windowed(
                2,
                20.0,
                70.0,
                NodeFault::Straggler { factor: 3.0 },
            )),
            NodeFaultPlan::new(vec![
                NodeFaultEvent::windowed(0, 20.0, 40.0, NodeFault::Drain),
                NodeFaultEvent::windowed(1, 40.0, 60.0, NodeFault::Drain),
                NodeFaultEvent::windowed(2, 60.0, 80.0, NodeFault::Drain),
            ]),
        ];
        for plan in plans {
            for policy in [RoutingPolicy::AuvWeighted, RoutingPolicy::Failover] {
                let cfg = fleet_cfg(plan.clone());
                let out = untraced(&cfg, policy);
                assert!(
                    out.conservation_ok(),
                    "{policy}: dispatched {} != completed {} + redispatched {} + shed {} + dropped {}",
                    out.dispatched,
                    out.completed,
                    out.redispatched,
                    out.shed,
                    out.dropped
                );
            }
        }
    }

    #[test]
    fn failover_beats_static_routing_under_a_crash() {
        let cfg = fleet_cfg(crash_plan());
        let failover = untraced(&cfg, RoutingPolicy::Failover);
        let stat = untraced(&cfg, RoutingPolicy::AuvWeighted);
        assert!(
            failover.attainment >= 0.8,
            "failover must retain >= 80%: {}",
            failover.attainment
        );
        assert!(
            stat.attainment < failover.attainment,
            "static {} must be strictly worse than failover {}",
            stat.attainment,
            failover.attainment
        );
        // The static router keeps feeding the dead node, so it drops
        // requests once retry budgets run out; failover stops after the
        // detection lag and drops nothing.
        assert!(stat.dropped > 0);
        assert_eq!(failover.dropped, 0);
    }

    #[test]
    fn crash_walks_the_health_machine_and_emits_redispatches() {
        let cfg = fleet_cfg(NodeFaultPlan::single(NodeFaultEvent::windowed(
            0,
            20.0,
            60.0,
            NodeFault::Crash,
        )));
        let (out, records) = captured(&cfg, RoutingPolicy::Failover, &even_weights(3));
        assert!(out.conservation_ok());
        let transitions: Vec<(NodeHealth, NodeHealth)> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::NodeHealthTransition {
                    node: 0, from, to, ..
                } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                (NodeHealth::Healthy, NodeHealth::Suspect),
                (NodeHealth::Suspect, NodeHealth::Down),
                (NodeHealth::Down, NodeHealth::Recovering),
                (NodeHealth::Recovering, NodeHealth::Healthy),
            ],
            "crash/restart must walk the full machine"
        );
        assert!(
            records
                .iter()
                .any(|r| matches!(r.event, Event::RequestRedispatch { node: 0, .. })),
            "detection-lag strands must be re-dispatched"
        );
        assert!(
            records
                .iter()
                .any(|r| matches!(&r.event, Event::NodeFault { node: 0, active, .. } if !active)),
            "recovery edge must be traced"
        );
    }

    #[test]
    fn cooperative_drain_strands_nothing_under_failover() {
        let cfg = fleet_cfg(NodeFaultPlan::single(NodeFaultEvent::windowed(
            1,
            20.0,
            50.0,
            NodeFault::Drain,
        )));
        let failover = untraced(&cfg, RoutingPolicy::Failover);
        assert_eq!(
            failover.redispatched, 0,
            "the router is told about drains before traffic strands"
        );
        let stat = untraced(&cfg, RoutingPolicy::AuvWeighted);
        assert!(
            stat.redispatched > 0,
            "a static router keeps routing into the draining node"
        );
    }

    #[test]
    fn overload_sheds_best_effort_first() {
        let mut cfg = fleet_cfg(NodeFaultPlan::none());
        // Offered load 1.6x the provisioned capacity margin: the admission
        // controller must shed, and must exhaust best-effort before
        // touching the standard class.
        cfg.total_rate = 30.0 * 1.6;
        cfg.fleet.capacity_margin = 1.3 / 1.6;
        let (out, records) = captured(&cfg, RoutingPolicy::Failover, &even_weights(3));
        assert!(out.conservation_ok());
        assert!(out.shed > 0, "overload must shed");
        assert!(
            out.shed_by_class[0] >= out.shed_by_class[1],
            "best-effort sheds first: {:?}",
            out.shed_by_class
        );
        assert_eq!(
            out.shed_by_class[2], 0,
            "interactive is shed last and should survive this overload: {:?}",
            out.shed_by_class
        );
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, Event::LoadShed { class, .. } if class == "best-effort")));
    }

    #[test]
    fn straggler_raises_violations_and_failover_reacts() {
        let cfg = fleet_cfg(NodeFaultPlan::single(NodeFaultEvent::windowed(
            2,
            20.0,
            80.0,
            NodeFault::Straggler { factor: 4.0 },
        )));
        let (_, records) = captured(&cfg, RoutingPolicy::Failover, &even_weights(3));
        assert!(
            records.iter().any(|r| matches!(
                &r.event,
                Event::NodeHealthTransition {
                    node: 2,
                    to: NodeHealth::Suspect,
                    ..
                }
            )),
            "sustained slowdown must surface through the violation signal"
        );
        let failover = untraced(&cfg, RoutingPolicy::Failover);
        let stat = untraced(&cfg, RoutingPolicy::AuvWeighted);
        assert!(
            failover.attainment > stat.attainment,
            "down-weighting the straggler must pay: {} vs {}",
            failover.attainment,
            stat.attainment
        );
    }

    #[test]
    fn events_past_the_run_window_warn_instead_of_firing() {
        let cfg = fleet_cfg(NodeFaultPlan::single(NodeFaultEvent::permanent(
            0,
            10_000.0,
            NodeFault::Crash,
        )));
        let (out, records) = captured(&cfg, RoutingPolicy::Failover, &even_weights(3));
        assert!(out.attainment > 0.999, "the fault never fires");
        assert!(records.iter().any(
            |r| matches!(&r.event, Event::FaultOutsideWindow { kind, .. } if kind == "Crash")
        ));
    }

    #[test]
    fn split_requests_conserves_and_is_deterministic() {
        for count in [0u64, 1, 7, 100, 1001] {
            for weights in [vec![0.2, 0.3, 0.5], vec![1.0, 0.0, 0.0], vec![0.5, 0.5]] {
                let split = split_requests(count, &weights);
                assert_eq!(split.iter().sum::<u64>(), count, "{count} {weights:?}");
                assert_eq!(split, split_requests(count, &weights));
            }
        }
        assert_eq!(split_requests(10, &[0.0, 0.0]), vec![0, 0]);
    }

    #[test]
    fn an_empty_fleet_is_a_config_error() {
        let mut cfg = fleet_cfg(NodeFaultPlan::none());
        cfg.servers.clear();
        let err = try_run_fleet_traced(
            &cfg,
            RoutingPolicy::Failover,
            &[],
            &Tracer::disabled(),
            "fleet",
        )
        .expect_err("no servers");
        assert!(
            matches!(&err, AumError::Config(m) if m == "fleet needs servers"),
            "{err}"
        );
    }

    #[test]
    fn mismatched_capacity_weights_are_a_config_error() {
        let cfg = fleet_cfg(NodeFaultPlan::none());
        let err = try_run_fleet_traced(
            &cfg,
            RoutingPolicy::Failover,
            &even_weights(2),
            &Tracer::disabled(),
            "fleet",
        )
        .expect_err("two weights for three servers");
        assert!(
            matches!(&err, AumError::Config(m) if m == "2 capacity weights for 3 servers"),
            "{err}"
        );
    }

    #[test]
    fn a_fault_on_a_missing_node_is_a_fault_plan_error() {
        let plan = NodeFaultPlan::single(NodeFaultEvent::permanent(7, 20.0, NodeFault::Crash));
        let err = try_run_fleet_traced(
            &fleet_cfg(plan),
            RoutingPolicy::Failover,
            &even_weights(3),
            &Tracer::disabled(),
            "fleet",
        )
        .expect_err("node 7 of 3");
        assert!(
            matches!(&err, AumError::FaultPlan(m)
                if m == "event 0: node 7 out of range for a 3-node fleet"),
            "{err}"
        );
    }

    #[test]
    fn validate_for_boundary_cases() {
        // A node index exactly equal to the fleet size is the first
        // out-of-range value.
        let at_edge = NodeFaultPlan::single(NodeFaultEvent::permanent(3, 1.0, NodeFault::Crash));
        assert!(at_edge.validate_for(3).is_err());
        assert!(at_edge.validate_for(4).is_ok());
        // An empty plan is valid for any fleet, including a nonzero one.
        assert!(NodeFaultPlan::none().validate_for(5).is_ok());
        assert!(NodeFaultPlan::none().validate_for(0).is_ok());
        // Duplicate (node, time) entries are legal: same-instant edges
        // replay in authoring order and simply reapply the state.
        let dup = NodeFaultPlan::new(vec![
            NodeFaultEvent::permanent(1, 10.0, NodeFault::Crash),
            NodeFaultEvent::permanent(1, 10.0, NodeFault::Crash),
        ]);
        assert!(dup.validate_for(3).is_ok());
        let cfg = fleet_cfg(dup);
        let out = untraced(&cfg, RoutingPolicy::Failover);
        assert!(out.conservation_ok());
    }

    #[test]
    fn forced_shed_plus_drop_mix_conserves_exactly() {
        // Overload (forces shedding) plus a permanent crash (forces drops
        // under static routing): both leak paths active at once.
        let mut cfg = fleet_cfg(crash_plan());
        cfg.total_rate = 30.0 * 1.6;
        cfg.fleet.capacity_margin = 1.3 / 1.6;
        for policy in [RoutingPolicy::AuvWeighted, RoutingPolicy::Failover] {
            let out = untraced(&cfg, policy);
            assert!(out.shed > 0, "{policy} must shed under overload");
            assert!(out.conservation_ok(), "{policy}: {out:?}");
            assert!(out.node_conservation_ok(), "{policy}: {out:?}");
        }
        let stat = untraced(&cfg, RoutingPolicy::AuvWeighted);
        assert!(stat.dropped > 0, "static routing must also drop");
        // The identity is falsifiable: any single-counter perturbation
        // breaks it.
        let mut leak = stat.clone();
        leak.completed += 1;
        assert!(!leak.conservation_ok());
        let mut ghost = stat;
        ghost.dispatched += 1;
        assert!(!ghost.conservation_ok());
    }

    #[test]
    fn node_rollup_partitions_fleet_totals() {
        let cfg = fleet_cfg(crash_plan());
        for policy in [RoutingPolicy::AuvWeighted, RoutingPolicy::Failover] {
            let out = untraced(&cfg, policy);
            assert_eq!(out.node_metrics.len(), 3, "{policy}");
            assert!(out.node_conservation_ok(), "{policy}: {out:?}");
            assert!(
                out.node_metrics[0].label.starts_with("node0/"),
                "labels come from config strings: {}",
                out.node_metrics[0].label
            );
            assert!(
                out.node_metrics[0].counter("redispatched") > 0,
                "{policy}: the crashed node books its strands"
            );
            let survivor = &out.node_metrics[1];
            assert!(survivor.counter("completed") > 0, "{policy}");
            assert!(
                survivor.latency_proxy.count() > 0,
                "{policy}: serving epochs feed the latency proxy"
            );
            assert!(
                survivor
                    .snapshot
                    .gauges
                    .contains_key("epoch_latency_proxy_secs/p50"),
                "{policy}: quantile gauges materialize at rollup"
            );
        }
    }

    #[test]
    fn fleet_spans_fold_into_balanced_per_node_tracks() {
        let cfg = fleet_cfg(crash_plan());
        let (out, records) = captured(&cfg, RoutingPolicy::Failover, &even_weights(3));
        let forest = aum_sim::span::collect_spans(&records).expect("balanced span stream");
        let track = format!("fleet/{}", RoutingPolicy::Failover);
        let epochs: Vec<_> = forest.of_kind(SpanKind::FleetEpoch).collect();
        assert_eq!(epochs.len() as u64, out.epochs, "one span per router epoch");
        assert!(epochs.iter().all(|s| *s.track == track));
        let health: Vec<_> = forest.of_kind(SpanKind::NodeHealthEpisode).collect();
        assert!(
            health.iter().any(|s| *s.track == format!("{track}/node0")),
            "a crash must open health episodes on the node's own track"
        );
        // The crash is permanent, so node 0's last episode only closes at
        // the run-end boundary.
        let run_end = cfg.duration.as_secs_f64();
        assert!(health.iter().any(|s| *s.track == format!("{track}/node0")
            && (s.close.as_secs_f64() - run_end).abs() < 1e-9));
        let hops: Vec<_> = forest.of_kind(SpanKind::RedispatchHop).collect();
        assert!(!hops.is_empty(), "detection-lag strands must emit hops");
        assert!(hops
            .iter()
            .all(|s| s.duration_secs() > 0.0 && s.label.starts_with("batch r")));
        assert!(
            records
                .iter()
                .any(|r| matches!(r.event, Event::NodeMetricsSnapshot { node: 0, .. })),
            "health transitions must carry the node's metric snapshot"
        );
    }

    /// Node 0's health transitions as `(boundary secs, to)`.
    fn node0_health(records: &[TraceRecord]) -> Vec<(f64, NodeHealth)> {
        records
            .iter()
            .filter_map(|r| match r.event {
                Event::NodeHealthTransition { node: 0, to, .. } => Some((r.at.as_secs_f64(), to)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_window_inside_one_epoch_applies_then_recovers() {
        // Both edges land on the t=11 s boundary; they fire in time order,
        // so the node ends the boundary healthy and never misses a beat.
        let cfg = fleet_cfg(NodeFaultPlan::single(NodeFaultEvent::windowed(
            0,
            10.2,
            10.6,
            NodeFault::Crash,
        )));
        let (out, records) = captured(&cfg, RoutingPolicy::Failover, &even_weights(3));
        let edges: Vec<(f64, bool)> = records
            .iter()
            .filter_map(|r| match r.event {
                Event::NodeFault {
                    node: 0, active, ..
                } => Some((r.at.as_secs_f64(), active)),
                _ => None,
            })
            .collect();
        assert_eq!(edges, vec![(11.0, true), (11.0, false)]);
        assert_eq!(node0_health(&records), vec![], "the node never goes down");
        assert_eq!(out.redispatched, 0);
    }

    #[test]
    fn overlapping_crash_windows_keep_the_node_down_until_the_last_recovers() {
        let cfg = fleet_cfg(NodeFaultPlan::new(vec![
            NodeFaultEvent::windowed(0, 10.0, 50.0, NodeFault::Crash),
            NodeFaultEvent::windowed(0, 30.0, 70.0, NodeFault::Crash),
        ]));
        let (out, records) = captured(&cfg, RoutingPolicy::Failover, &even_weights(3));
        assert!(out.conservation_ok());
        assert_eq!(
            node0_health(&records),
            vec![
                (10.0, NodeHealth::Suspect),
                (12.0, NodeHealth::Down),
                (70.0, NodeHealth::Recovering),
                (71.0, NodeHealth::Healthy),
            ]
        );
    }
}
