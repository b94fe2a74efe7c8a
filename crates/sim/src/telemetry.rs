//! Structured telemetry: typed events, trace sinks, and a metrics registry.
//!
//! AUM's contribution is a controller that *reacts* to runtime telemetry, so
//! the reproduction must be able to show the causal chain behind every
//! decision, not just endpoint tables. This module is the spine for that:
//!
//! - [`Event`] — a typed record of everything notable that happens across
//!   the stack: request lifecycle and iterations in the LLM engine,
//!   frequency-license transitions and thermal throttling in the platform,
//!   RDT reallocations, controller decisions **with their reasons**, and
//!   profiler progress.
//! - [`TraceSink`] — where events go. [`NullSink`] is the zero-cost default
//!   (emission sites pay one branch; event construction is skipped
//!   entirely), [`MemorySink`] collects in-process, [`JsonlSink`] streams
//!   one JSON object per line to a file for offline analysis
//!   (`repro trace-summary`). [`TraceRecord::write_jsonl`] writes every
//!   such line, and [`parse_jsonl`] reads them back.
//! - [`Tracer`] — the cheap cloneable handle threaded through the engine,
//!   platform, controller and experiment loop so one sink observes the
//!   whole stack.
//! - [`MetricsSnapshot`] — counters and gauges, filled in place and
//!   stamped when captured; experiment outcomes carry one end-of-run
//!   snapshot.
//!
//! Events carry only primitives (ids, lengths, seconds, way counts), so the
//! JSONL schema is stable and self-describing; `TraceRecord` pairs each
//! event with its integer-nanosecond timestamp for lossless round-trips.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Which serving phase an iteration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum PhaseKind {
    /// Prompt processing.
    Prefill,
    /// Token generation.
    Decode,
}

/// Which SLO metric an observation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum SloMetric {
    /// Time-to-first-token (prefill deadline).
    Ttft,
    /// Time-per-output-token (decode deadline).
    Tpot,
}

/// Core region by AU-usage class (mirrors the platform topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum RegionClass {
    /// AU-high region (prefill / AMX-heavy).
    High,
    /// AU-low region (decode / AVX-heavy).
    Low,
    /// AU-none region (best-effort scalar work).
    None,
}

/// The slack analyzer's verdict at a control boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum SlackVerdict {
    /// Measured tails fit inside the runtime budgets.
    Meeting,
    /// At least one measured tail exceeds its runtime budget.
    Violating,
}

/// The controller's resilience state (safe-mode state machine).
///
/// Transitions are driven by persistent SLO breach pressure and sensor
/// distrust; see `aum::controller` for the machine itself. Lives here so
/// [`Event::SafeModeTransition`] can carry a typed state without a
/// cross-crate dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum ResilienceMode {
    /// Healthy: the full Algorithm-1 loop (harvest/tune/switch) runs.
    Normal,
    /// Elevated breach pressure: harvesting is frozen, returns still run.
    Degraded,
    /// Persistent breach pressure: BE allocation shed, conservative
    /// division pinned.
    SafeMode,
    /// Pressure cleared: probing resources back toward Normal.
    Recovering,
}

/// A fleet node's health as the router sees it (epoch state machine).
///
/// Driven by heartbeat and violation-rate signals in `aum::fleet`; lives
/// here so [`Event::NodeHealthTransition`] can carry typed states without
/// a cross-crate dependency (mirroring [`ResilienceMode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum NodeHealth {
    /// Heartbeats fresh, violation rate nominal: full routing share.
    Healthy,
    /// Missed heartbeats or elevated violations: share held, under watch.
    Suspect,
    /// Declared dead: receives no traffic; stranded requests re-dispatch.
    Down,
    /// Rolling-restart drain: finishes what it has, accepts nothing new.
    Draining,
    /// Back from Down/Draining: ramping toward a full share.
    Recovering,
}

/// What kind of action a controller decision took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum DecisionKind {
    /// One harvesting step along the resource ladder.
    Harvest,
    /// One conservative step returning resources to the AU class.
    Return,
    /// A processor-division switch.
    Switch,
}

/// One notable occurrence somewhere in the sim→platform→LLM→controller
/// stack. Variants carry primitives (plus same-crate value types like
/// [`crate::attrib::CauseVec`]), so the serialized schema is stable and
/// needs no cross-crate types.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub enum Event {
    /// The engine admitted a request into the running batch.
    RequestAdmitted {
        /// Request id.
        id: u64,
        /// Prompt length in tokens.
        input_len: usize,
        /// Output budget in tokens.
        output_len: usize,
    },
    /// A request emitted its last token and retired.
    RequestFinished {
        /// Request id.
        id: u64,
        /// Output tokens generated in the decode pool (0 when the request
        /// completed at prefill).
        generated: usize,
        /// Mean *wall-clock* time per generated token in seconds,
        /// stall-inclusive (0 when nothing was generated).
        mean_tpot_secs: f64,
        /// Time-to-first-token in seconds (arrival → end of prefill), so
        /// the trace alone supports windowed TTFT series.
        ttft_secs: f64,
    },
    /// The engine completed one batched iteration.
    IterationCompleted {
        /// Prefill or decode.
        phase: PhaseKind,
        /// Requests in the batch.
        batch: usize,
        /// Tokens produced (decode) or prompt tokens processed (prefill).
        tokens: usize,
        /// Modeled wall time of the iteration in seconds.
        duration_secs: f64,
    },
    /// A measured latency exceeded its runtime SLO budget.
    SloBreach {
        /// Which deadline.
        metric: SloMetric,
        /// The measured value in seconds.
        observed_secs: f64,
        /// The budget it exceeded, in seconds.
        budget_secs: f64,
    },
    /// A core region's effective frequency changed (license transition,
    /// power stress, TDP clipping, or thermal state).
    FreqTransition {
        /// The affected region.
        region: RegionClass,
        /// Frequency before, GHz.
        from_ghz: f64,
        /// Frequency after, GHz.
        to_ghz: f64,
    },
    /// The thermal integrator started or deepened frequency throttling.
    ThermalThrottle {
        /// The affected region.
        region: RegionClass,
        /// Frequency reduction applied, GHz.
        drop_ghz: f64,
    },
    /// The resource manager moved RDT allocations (cache ways / memory
    /// bandwidth) for the best-effort class.
    RdtReallocation {
        /// LLC ways granted to the latency-critical class before.
        llc_ways_from: u32,
        /// LLC ways granted after.
        llc_ways_to: u32,
        /// L2 ways granted before.
        l2_ways_from: u32,
        /// L2 ways granted after.
        l2_ways_to: u32,
        /// Memory-bandwidth fraction before.
        mem_bw_from: f64,
        /// Memory-bandwidth fraction after.
        mem_bw_to: f64,
    },
    /// The controller took a non-trivial action, with the full reasoning
    /// behind it (Algorithm 1's observable state).
    ControllerDecision {
        /// Harvest / Return / Switch.
        kind: DecisionKind,
        /// Human-readable action, e.g. `"Harvest(cfg 2→3)"`.
        action: String,
        /// The slack analyzer's verdict that drove the stage choice.
        verdict: SlackVerdict,
        /// Worst per-request LAG slack in seconds (positive = ahead).
        lag_secs: f64,
        /// Usage-weighted deviation δ_AU at the decision point.
        deviation: f64,
        /// Whether δ_AU exceeded the switch threshold (collision detected:
        /// tuning deemed insufficient).
        collision: bool,
        /// Human-readable cause, e.g.
        /// `"TPOT p50 0.142s > SLO_L 0.120s"`.
        reason: String,
    },
    /// The background profiler finished one grid cell.
    ProfilerProgress {
        /// Cells completed so far (including this one).
        completed: usize,
        /// Total cells in the profiling grid.
        total: usize,
        /// Division index of the finished cell.
        division: usize,
        /// Allocation-configuration index of the finished cell.
        config: usize,
    },
    /// The fault plane activated a scripted fault.
    FaultInjected {
        /// Stable fault-kind label, e.g. `"BandwidthDegrade"`.
        kind: String,
        /// Human-readable parameters, e.g. `"frac 0.60"`.
        detail: String,
    },
    /// A scripted fault's recovery point was reached and its effect undone.
    FaultRecovered {
        /// Stable fault-kind label of the recovered fault.
        kind: String,
    },
    /// A scripted fault event falls outside the run window and will never
    /// fire — a mis-authored `FaultPlan`, warned rather than silently
    /// dropped.
    FaultOutsideWindow {
        /// Stable fault-kind label of the skipped event.
        kind: String,
        /// When the event was scheduled, seconds.
        at_secs: f64,
        /// The run duration it missed, seconds.
        duration_secs: f64,
    },
    /// The controller's plausibility filter rejected a sensor reading and
    /// substituted a filtered value.
    SensorRejected {
        /// Which observation, e.g. `"ttft_p90"`, `"tpot_p50"`.
        sensor: String,
        /// The implausible raw reading.
        observed: f64,
        /// The value used instead (median-of-last-k).
        substituted: f64,
        /// Why it was rejected, e.g. `"outlier"` or `"stale"`.
        reason: String,
    },
    /// The controller's resilience state machine changed state.
    SafeModeTransition {
        /// State before.
        from: ResilienceMode,
        /// State after.
        to: ResilienceMode,
        /// What drove the transition, e.g. `"breach pressure 9/16"`.
        reason: String,
    },
    /// One region's attribution-ledger row for one control interval (see
    /// [`crate::attrib`]). Emitted per region per interval when tracing is
    /// on; `repro trace-diff` aligns two runs on these records.
    AttributionSample {
        /// The platform region attributed.
        region: crate::attrib::Region,
        /// Interval length, seconds.
        dt_secs: f64,
        /// Seconds by cause (sums to `dt_secs`).
        time: crate::attrib::CauseVec,
        /// Joules by cause.
        energy: crate::attrib::CauseVec,
    },
    /// A hierarchical span opened (see [`crate::span`]). `id` is derived
    /// via [`crate::span::SpanId::derive`] — deterministic across runs and
    /// worker counts — and unique per `track`.
    SpanOpen {
        /// Derived span id (raw form).
        id: u64,
        /// Enclosing span's id on the same track, if any.
        parent: Option<u64>,
        /// Interval kind.
        kind: crate::span::SpanKind,
        /// The run this span belongs to (one experiment cell, the
        /// profiler, …); spans never nest across tracks. Each run builds
        /// its track name once and every span record shares it.
        track: Arc<str>,
        /// Human-readable label, e.g. `"fault BeSurge"`. `None` for a
        /// counted kind ([`crate::span::SpanKind::counted_prefix`]), whose
        /// label (`"req 7"`, `"interval 12"`) its kind and id derive; the
        /// JSONL line spells the derived label out.
        label: Option<String>,
    },
    /// The matching close of an earlier [`Event::SpanOpen`] on `track`.
    SpanClose {
        /// Derived span id of the span being closed.
        id: u64,
        /// Interval kind (redundant with the id's top byte; kept explicit
        /// so a close line is self-describing).
        kind: crate::span::SpanKind,
        /// The track the span opened on.
        track: Arc<str>,
    },
    /// The SLO deadlines in force for this run, emitted once at the start
    /// so a trace is self-contained for burn-rate analysis.
    SloTargets {
        /// TTFT deadline, seconds.
        ttft_secs: f64,
        /// Per-token (TPOT/TBT) deadline, seconds.
        tpot_secs: f64,
    },
    /// The fleet fault plane activated (or recovered) a node-scoped fault.
    NodeFault {
        /// Index of the affected node in fleet order.
        node: usize,
        /// Stable fault-kind label, e.g. `"Crash"` or `"Straggler"`.
        kind: String,
        /// Human-readable parameters, e.g. `"capacity /3.0"`.
        detail: String,
        /// `true` on activation, `false` on the recovery edge.
        active: bool,
    },
    /// The router's per-node health state machine changed state.
    NodeHealthTransition {
        /// Index of the node in fleet order.
        node: usize,
        /// State before.
        from: NodeHealth,
        /// State after.
        to: NodeHealth,
        /// What drove the transition, e.g. `"3 missed heartbeats"`.
        reason: String,
    },
    /// Requests stranded on a dead/unreachable node were queued for
    /// re-dispatch with exponential backoff (one aggregate record per node
    /// per epoch).
    RequestRedispatch {
        /// Node the requests were stranded on.
        node: usize,
        /// How many requests re-entered the dispatch pool.
        count: u64,
        /// Delivery attempt these requests are now on (first retry = 2).
        attempt: u32,
        /// Epochs the batch backs off before re-dispatch.
        backoff_epochs: u32,
    },
    /// The admission controller shed load under aggregate overload (one
    /// record per priority class per epoch where shedding occurred).
    LoadShed {
        /// Priority class shed, e.g. `"best-effort"`.
        class: String,
        /// Requests shed from that class this epoch.
        count: u64,
        /// Router epoch index the shed happened in.
        epoch: u64,
    },
    /// One fleet node's metrics registry, snapshotted at an epoch boundary
    /// (emitted by `aum::fleet::run_fleet_traced` on health transitions so the
    /// flight recorder can pin the offending node's state into `node-down`
    /// incident dumps — see [`crate::flight`]).
    NodeMetricsSnapshot {
        /// Index of the node in fleet order.
        node: usize,
        /// Stable node label, e.g. `"node0/GenA-SPR-HBM"`.
        label: String,
        /// The node's registry state at snapshot time.
        snapshot: MetricsSnapshot,
    },
    /// The run-health watchdog saw a cell make no serving progress for
    /// `intervals` consecutive control intervals while work was queued — a
    /// stall that would otherwise only surface as a hung sweep. Emitted
    /// once per stall episode (the counter re-arms after progress resumes)
    /// and doubles as a flight-recorder trigger (see [`crate::flight`]).
    WatchdogStall {
        /// Consecutive zero-progress control intervals observed.
        intervals: u32,
        /// Requests waiting in the engine queue at detection time.
        queue_len: usize,
        /// Human-readable context, e.g. `"no tokens for 8.0s"`.
        detail: String,
    },
}

impl Event {
    /// A short stable label for per-type statistics.
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        match self {
            Event::RequestAdmitted { .. } => "RequestAdmitted",
            Event::RequestFinished { .. } => "RequestFinished",
            Event::IterationCompleted { .. } => "IterationCompleted",
            Event::SloBreach { .. } => "SloBreach",
            Event::FreqTransition { .. } => "FreqTransition",
            Event::ThermalThrottle { .. } => "ThermalThrottle",
            Event::RdtReallocation { .. } => "RdtReallocation",
            Event::ControllerDecision { .. } => "ControllerDecision",
            Event::ProfilerProgress { .. } => "ProfilerProgress",
            Event::FaultInjected { .. } => "FaultInjected",
            Event::FaultRecovered { .. } => "FaultRecovered",
            Event::FaultOutsideWindow { .. } => "FaultOutsideWindow",
            Event::SensorRejected { .. } => "SensorRejected",
            Event::SafeModeTransition { .. } => "SafeModeTransition",
            Event::AttributionSample { .. } => "AttributionSample",
            Event::SpanOpen { .. } => "SpanOpen",
            Event::SpanClose { .. } => "SpanClose",
            Event::SloTargets { .. } => "SloTargets",
            Event::NodeFault { .. } => "NodeFault",
            Event::NodeHealthTransition { .. } => "NodeHealthTransition",
            Event::RequestRedispatch { .. } => "RequestRedispatch",
            Event::LoadShed { .. } => "LoadShed",
            Event::NodeMetricsSnapshot { .. } => "NodeMetricsSnapshot",
            Event::WatchdogStall { .. } => "WatchdogStall",
        }
    }
}

/// A timestamped event — the unit a sink receives and a JSONL line holds.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct TraceRecord {
    /// Simulation time of the event (integer nanoseconds — lossless).
    pub at: SimTime,
    /// The event itself.
    pub event: Event,
}

impl TraceRecord {
    /// This record's JSONL line, without its newline
    /// ([`TraceRecord::write_jsonl`]).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut line = String::new();
        self.write_jsonl(&mut line);
        line
    }

    /// Appends this record's JSONL line, without its newline, to `out`.
    ///
    /// The line has the shape the serde derives read back
    /// ([`parse_jsonl`]), in serde_json's spelling: fields in declaration
    /// order, the event externally tagged
    /// (`{"at":…,"event":{"SpanOpen":{…}}}`), unit enums by name, `null`
    /// for `None` and for a non-finite float, floats through `Display`
    /// with `.0` appended to an integral one, and a counted span's label
    /// spelled out. Only a node's metrics snapshot goes through serde;
    /// every other record is written without allocating.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"at\":");
        push_u64(out, self.at.as_nanos());
        out.push_str(",\"event\":{\"");
        out.push_str(self.event.kind_label());
        out.push_str("\":");
        let mut o = JsonFields::open(out);
        match &self.event {
            Event::RequestAdmitted {
                id,
                input_len,
                output_len,
            } => {
                o.u64("id", *id);
                o.u64("input_len", *input_len as u64);
                o.u64("output_len", *output_len as u64);
            }
            Event::RequestFinished {
                id,
                generated,
                mean_tpot_secs,
                ttft_secs,
            } => {
                o.u64("id", *id);
                o.u64("generated", *generated as u64);
                o.f64("mean_tpot_secs", *mean_tpot_secs);
                o.f64("ttft_secs", *ttft_secs);
            }
            Event::IterationCompleted {
                phase,
                batch,
                tokens,
                duration_secs,
            } => {
                o.name("phase", phase);
                o.u64("batch", *batch as u64);
                o.u64("tokens", *tokens as u64);
                o.f64("duration_secs", *duration_secs);
            }
            Event::SloBreach {
                metric,
                observed_secs,
                budget_secs,
            } => {
                o.name("metric", metric);
                o.f64("observed_secs", *observed_secs);
                o.f64("budget_secs", *budget_secs);
            }
            Event::FreqTransition {
                region,
                from_ghz,
                to_ghz,
            } => {
                o.name("region", region);
                o.f64("from_ghz", *from_ghz);
                o.f64("to_ghz", *to_ghz);
            }
            Event::ThermalThrottle { region, drop_ghz } => {
                o.name("region", region);
                o.f64("drop_ghz", *drop_ghz);
            }
            Event::RdtReallocation {
                llc_ways_from,
                llc_ways_to,
                l2_ways_from,
                l2_ways_to,
                mem_bw_from,
                mem_bw_to,
            } => {
                o.u64("llc_ways_from", u64::from(*llc_ways_from));
                o.u64("llc_ways_to", u64::from(*llc_ways_to));
                o.u64("l2_ways_from", u64::from(*l2_ways_from));
                o.u64("l2_ways_to", u64::from(*l2_ways_to));
                o.f64("mem_bw_from", *mem_bw_from);
                o.f64("mem_bw_to", *mem_bw_to);
            }
            Event::ControllerDecision {
                kind,
                action,
                verdict,
                lag_secs,
                deviation,
                collision,
                reason,
            } => {
                o.name("kind", kind);
                o.str("action", action);
                o.name("verdict", verdict);
                o.f64("lag_secs", *lag_secs);
                o.f64("deviation", *deviation);
                o.bool("collision", *collision);
                o.str("reason", reason);
            }
            Event::ProfilerProgress {
                completed,
                total,
                division,
                config,
            } => {
                o.u64("completed", *completed as u64);
                o.u64("total", *total as u64);
                o.u64("division", *division as u64);
                o.u64("config", *config as u64);
            }
            Event::FaultInjected { kind, detail } => {
                o.str("kind", kind);
                o.str("detail", detail);
            }
            Event::FaultRecovered { kind } => o.str("kind", kind),
            Event::FaultOutsideWindow {
                kind,
                at_secs,
                duration_secs,
            } => {
                o.str("kind", kind);
                o.f64("at_secs", *at_secs);
                o.f64("duration_secs", *duration_secs);
            }
            Event::SensorRejected {
                sensor,
                observed,
                substituted,
                reason,
            } => {
                o.str("sensor", sensor);
                o.f64("observed", *observed);
                o.f64("substituted", *substituted);
                o.str("reason", reason);
            }
            Event::SafeModeTransition { from, to, reason } => {
                o.name("from", from);
                o.name("to", to);
                o.str("reason", reason);
            }
            Event::AttributionSample {
                region,
                dt_secs,
                time,
                energy,
            } => {
                o.name("region", region);
                o.f64("dt_secs", *dt_secs);
                o.causes("time", time);
                o.causes("energy", energy);
            }
            Event::SpanOpen {
                id,
                parent,
                kind,
                track,
                label,
            } => {
                o.u64("id", *id);
                match parent {
                    Some(parent) => o.u64("parent", *parent),
                    None => o.key("parent").push_str("null"),
                }
                o.name("kind", kind);
                o.str("track", track);
                match label {
                    Some(label) => o.str("label", label),
                    None => {
                        let out = o.key("label");
                        out.push('"');
                        crate::span::push_derived_label(out, *kind, *id);
                        out.push('"');
                    }
                }
            }
            Event::SpanClose { id, kind, track } => {
                o.u64("id", *id);
                o.name("kind", kind);
                o.str("track", track);
            }
            Event::SloTargets {
                ttft_secs,
                tpot_secs,
            } => {
                o.f64("ttft_secs", *ttft_secs);
                o.f64("tpot_secs", *tpot_secs);
            }
            Event::NodeFault {
                node,
                kind,
                detail,
                active,
            } => {
                o.u64("node", *node as u64);
                o.str("kind", kind);
                o.str("detail", detail);
                o.bool("active", *active);
            }
            Event::NodeHealthTransition {
                node,
                from,
                to,
                reason,
            } => {
                o.u64("node", *node as u64);
                o.name("from", from);
                o.name("to", to);
                o.str("reason", reason);
            }
            Event::RequestRedispatch {
                node,
                count,
                attempt,
                backoff_epochs,
            } => {
                o.u64("node", *node as u64);
                o.u64("count", *count);
                o.u64("attempt", u64::from(*attempt));
                o.u64("backoff_epochs", u64::from(*backoff_epochs));
            }
            Event::LoadShed {
                class,
                count,
                epoch,
            } => {
                o.str("class", class);
                o.u64("count", *count);
                o.u64("epoch", *epoch);
            }
            Event::NodeMetricsSnapshot {
                node,
                label,
                snapshot,
            } => {
                o.u64("node", *node as u64);
                o.str("label", label);
                let json = serde_json::to_string(snapshot).expect("metrics snapshots serialize");
                o.key("snapshot").push_str(&json);
            }
            Event::WatchdogStall {
                intervals,
                queue_len,
                detail,
            } => {
                o.u64("intervals", u64::from(*intervals));
                o.u64("queue_len", *queue_len as u64);
                o.str("detail", detail);
            }
        }
        o.close();
        out.push_str("}}");
    }
}

/// Writes the fields of one JSON object, in the order they are given.
struct JsonFields<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> JsonFields<'a> {
    fn open(out: &'a mut String) -> Self {
        out.push('{');
        JsonFields { out, first: true }
    }

    /// Writes `"key":` (after a comma if a field came before) and returns
    /// the buffer for the value.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    fn u64(&mut self, key: &str, v: u64) {
        push_u64(self.key(key), v);
    }

    fn f64(&mut self, key: &str, v: f64) {
        push_f64(self.key(key), v);
    }

    fn bool(&mut self, key: &str, v: bool) {
        self.key(key).push_str(if v { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, v: &str) {
        push_json_str(self.key(key), v);
    }

    /// A unit enum variant, by name: its derived `Debug` form.
    fn name(&mut self, key: &str, v: &impl fmt::Debug) {
        let out = self.key(key);
        out.push('"');
        let _ = write!(out, "{v:?}");
        out.push('"');
    }

    fn causes(&mut self, key: &str, v: &crate::attrib::CauseVec) {
        let out = self.key(key);
        out.push_str("{\"values\":[");
        for (i, &x) in v.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64(out, x);
        }
        out.push_str("]}");
    }

    fn close(self) {
        self.out.push('}');
    }
}

/// Appends `v` in decimal.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends `v` as serde_json writes it: `null` unless finite, and
/// `Display` with `.0` appended when that prints an integer.
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends `s` as a JSON string, escaped as serde_json escapes it.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Destination for trace records.
///
/// Contract: [`Tracer::emit`] only constructs the event and calls
/// [`TraceSink::record`] when a sink is attached, so an absent sink (the
/// default) costs a single branch per site — nothing is formatted,
/// allocated, or written. The `telemetry_overhead` bench in `aum-bench`
/// holds this to "within noise of uninstrumented".
pub trait TraceSink {
    /// Accepts one record. Called in simulation order per emitting
    /// component.
    fn record(&mut self, record: &TraceRecord);

    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush_sink(&mut self) {}
}

/// Discards everything (the zero-cost default stands in for "no sink"; a
/// `Tracer` built over `NullSink` still skips event construction only at
/// the sink boundary, so prefer `Tracer::disabled()` in hot paths).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _record: &TraceRecord) {}
}

/// An optional sink: `None` discards, like [`NullSink`].
impl<S: TraceSink> TraceSink for Option<S> {
    fn record(&mut self, record: &TraceRecord) {
        if let Some(sink) = self {
            sink.record(record);
        }
    }

    fn flush_sink(&mut self) {
        if let Some(sink) = self {
            sink.flush_sink();
        }
    }
}

/// Collects records in memory, in arrival order.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the sink, returning the collected records.
    #[must_use]
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, record: &TraceRecord) {
        self.records.push(record.clone());
    }
}

/// Streams records to a file as JSON Lines: one `TraceRecord` object per
/// line ([`TraceRecord::write_jsonl`]), in emission order.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    /// The line being written, reused from record to record.
    line: String,
    lines: u64,
}

impl JsonlSink {
    /// Creates (truncates) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            out: BufWriter::new(file),
            line: String::new(),
            lines: 0,
        })
    }

    /// Lines written so far.
    #[must_use]
    pub fn lines_written(&self) -> u64 {
        self.lines
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, record: &TraceRecord) {
        self.line.clear();
        record.write_jsonl(&mut self.line);
        self.line.push('\n');
        self.out
            .write_all(self.line.as_bytes())
            .expect("trace file write");
        self.lines += 1;
    }

    fn flush_sink(&mut self) {
        self.out.flush().expect("trace file flush");
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Buffers records and forwards them to an inner sink in ascending
/// timestamp order (stable for ties) at every flush boundary.
///
/// The instrumented stack simulates one component at a time over each
/// control interval, so raw emission order interleaves overlapping time
/// windows — e.g. a decode iteration that completes just past an interval
/// boundary is emitted before the next interval's platform events. An
/// `OrderingSink` forwards a stream that is monotonic in sim time within
/// each flushed segment. The experiment harness flushes once per run, and
/// [`crate::exec::sweep_traced`] flushes after each cell's records, so
/// every run is one sorted segment, and a multi-run trace restarts its
/// clock only where a new run begins ([`runs`]). `repro` installs it as
/// the **outermost** sink, the only code that sees emission order: every
/// sink behind it, the flight recorder included, reads each run whole.
///
/// **Stability guarantee**: records with equal [`SimTime`] are forwarded in
/// emission order. The flush sorts `(at, index)` keys, where the index is
/// the record's position in the flushed segment — its emission order —
/// so the ordering is deterministic by construction rather than by relying
/// on the sort algorithm's stability. Ties that straddle a flush boundary
/// keep emission order too, because the earlier segment is forwarded
/// first. `repro trace-diff` alignment depends on two same-seed runs
/// serializing byte-identical streams. The sort moves keys, never records,
/// and both buffers keep their capacity across flushes.
#[derive(Debug)]
pub struct OrderingSink<S: TraceSink> {
    inner: S,
    pending: Vec<TraceRecord>,
    keys: Vec<(SimTime, usize)>,
}

impl<S: TraceSink> OrderingSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        OrderingSink {
            inner,
            pending: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// The wrapped sink (records still pending are not yet visible to it).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn forward(&mut self) {
        // Held outside `self` while forwarding, so an inner sink that
        // panics mid-segment cannot be handed the segment again by `drop`.
        let mut pending = std::mem::take(&mut self.pending);
        self.keys.clear();
        self.keys
            .extend(pending.iter().enumerate().map(|(i, r)| (r.at, i)));
        self.keys.sort_unstable();
        for &(_, i) in &self.keys {
            self.inner.record(&pending[i]);
        }
        pending.clear();
        self.pending = pending;
    }
}

impl<S: TraceSink> TraceSink for OrderingSink<S> {
    fn record(&mut self, record: &TraceRecord) {
        self.pending.push(record.clone());
    }

    fn flush_sink(&mut self) {
        self.forward();
        self.inner.flush_sink();
    }
}

impl<S: TraceSink> Drop for OrderingSink<S> {
    fn drop(&mut self) {
        self.forward();
    }
}

/// Splits a trace into its runs, in order: each run is one time-sorted
/// segment ([`OrderingSink`]) that restarts the sim clock, so a run ends
/// where the clock goes back. A run that ends no later than the next one
/// starts (a lone record at t=0) reads as part of it.
pub fn runs(records: &[TraceRecord]) -> impl Iterator<Item = &[TraceRecord]> {
    records.chunk_by(|a, b| a.at <= b.at)
}

/// A malformed line in a JSONL trace, with its 1-based line number.
///
/// A truncated write (a crash mid-line) surfaces as the exact line that
/// failed, so `repro trace-diff` and `trace-export` can report "line 812:
/// unexpected end of input" instead of panicking on a bare parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the first malformed line.
    pub line: usize,
    /// The underlying parser message.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Parses a JSONL trace produced by [`JsonlSink`] back into records.
///
/// Blank lines are skipped; an empty input yields an empty vector (callers
/// that need at least one record check for that themselves). A counted
/// span's label that equals its derived form is stored as derived
/// (`None`), so a record reads back as it was written.
///
/// # Errors
///
/// Returns the first malformed line as a typed [`TraceParseError`]
/// carrying its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    let mut derived = String::new();
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            let mut record =
                serde_json::from_str::<TraceRecord>(l).map_err(|e| TraceParseError {
                    line: i + 1,
                    message: e.to_string(),
                })?;
            if let Event::SpanOpen {
                id, kind, label, ..
            } = &mut record.event
            {
                if kind.counted_prefix().is_some() {
                    derived.clear();
                    crate::span::push_derived_label(&mut derived, *kind, *id);
                    if label.as_deref() == Some(&*derived) {
                        *label = None;
                    }
                }
            }
            Ok(record)
        })
        .collect()
}

/// Cheap cloneable handle the whole stack emits through.
///
/// A disabled tracer (the default) reduces [`Tracer::emit`] to one branch:
/// the event-construction closure never runs. Cloning shares the underlying
/// sink, so the engine, platform, controller and experiment loop all feed
/// one stream. The sink sits behind a mutex so instrumented components stay
/// `Send + Sync` (experiments run concurrently across threads); an
/// uncontended lock per recorded event is noise next to constructing and
/// serializing the event.
#[derive(Default, Clone)]
pub struct Tracer {
    sink: Option<Arc<Mutex<dyn TraceSink + Send>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that drops everything at zero cost.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer owning `sink`.
    #[must_use]
    pub fn new(sink: impl TraceSink + Send + 'static) -> Self {
        Tracer {
            sink: Some(Arc::new(Mutex::new(sink))),
        }
    }

    /// A tracer plus a shared handle to its sink, for reading results back
    /// after a run (e.g. a [`MemorySink`]'s records).
    #[must_use]
    pub fn shared<S: TraceSink + Send + 'static>(sink: S) -> (Self, Arc<Mutex<S>>) {
        let shared = Arc::new(Mutex::new(sink));
        (
            Tracer {
                sink: Some(shared.clone()),
            },
            shared,
        )
    }

    /// Whether a sink is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits an event at simulation time `at`. The closure runs only when a
    /// sink is attached — emission sites stay free when tracing is off.
    #[inline]
    pub fn emit(&self, at: SimTime, event: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            let record = TraceRecord { at, event: event() };
            sink.lock().expect("trace sink lock").record(&record);
        }
    }

    /// Flushes the sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("trace sink lock").flush_sink();
        }
    }
}

/// Named counters and gauges, and the sim time of their capture. A run
/// fills one in place ([`MetricsSnapshot::counter_add`],
/// [`MetricsSnapshot::gauge_set`]) and stamps `at` when it captures it.
/// The maps sit behind `Arc`s, so a capture that rides a trace event or a
/// rollup shares them, and the first write after it copies a map once.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Monotonic counters at that time.
    pub counters: Arc<BTreeMap<String, u64>>,
    /// Instantaneous gauges at that time.
    pub gauges: Arc<BTreeMap<String, f64>>,
}

impl MetricsSnapshot {
    /// Adds `delta` to a monotonic counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let counters = Arc::make_mut(&mut self.counters);
        if let Some(count) = counters.get_mut(name) {
            *count += delta;
        } else {
            counters.insert(name.to_string(), delta);
        }
    }

    /// Sets an instantaneous gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        let gauges = Arc::make_mut(&mut self.gauges);
        if let Some(gauge) = gauges.get_mut(name) {
            *gauge = value;
        } else {
            gauges.insert(name.to_string(), value);
        }
    }

    /// Drops every counter and gauge, keeping the capture time.
    pub fn clear(&mut self) {
        self.counters = Arc::default();
        self.gauges = Arc::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn sample_events() -> Vec<TraceRecord> {
        let t0 = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
        vec![
            TraceRecord {
                at: t0,
                event: Event::RequestAdmitted {
                    id: 7,
                    input_len: 755,
                    output_len: 200,
                },
            },
            TraceRecord {
                at: t0 + SimDuration::from_secs_f64(0.25),
                event: Event::SloBreach {
                    metric: SloMetric::Tpot,
                    observed_secs: 0.142,
                    budget_secs: 0.120,
                },
            },
            TraceRecord {
                at: t0 + SimDuration::from_secs_f64(0.5),
                event: Event::ControllerDecision {
                    kind: DecisionKind::Return,
                    action: "Return(cfg 3\u{2192}2)".to_string(),
                    verdict: SlackVerdict::Violating,
                    lag_secs: -0.01,
                    deviation: 1.3,
                    collision: false,
                    reason: "TPOT p50 0.142s > SLO_L 0.120s".to_string(),
                },
            },
        ]
    }

    #[test]
    fn disabled_tracer_skips_event_construction() {
        let tracer = Tracer::disabled();
        let mut constructed = false;
        tracer.emit(SimTime::ZERO, || {
            constructed = true;
            Event::ProfilerProgress {
                completed: 1,
                total: 2,
                division: 0,
                config: 0,
            }
        });
        assert!(!constructed, "closure must not run without a sink");
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn memory_sink_preserves_order_and_content() {
        let (tracer, sink) = Tracer::shared(MemorySink::new());
        for r in sample_events() {
            let event = r.event.clone();
            tracer.emit(r.at, || event);
        }
        let records = sink.lock().expect("sink lock").records().to_vec();
        assert_eq!(records, sample_events());
        assert!(tracer.is_enabled());
    }

    #[test]
    fn ordering_sink_sorts_each_flushed_segment_stably() {
        let progress = |completed| Event::ProfilerProgress {
            completed,
            total: 4,
            division: 0,
            config: 0,
        };
        let (tracer, sink) = Tracer::shared(OrderingSink::new(MemorySink::new()));
        // Out-of-order emission within a segment, with a timestamp tie.
        tracer.emit(SimTime::from_secs(2), || progress(1));
        tracer.emit(SimTime::from_secs(1), || progress(2));
        tracer.emit(SimTime::from_secs(2), || progress(3));
        tracer.flush();
        // A later segment may legitimately restart earlier (a new run).
        tracer.emit(SimTime::from_secs(0), || progress(4));
        tracer.flush();
        let seen: Vec<(u64, Event)> = sink
            .lock()
            .expect("sink lock")
            .inner()
            .records()
            .iter()
            .map(|r| (r.at.as_secs_f64() as u64, r.event.clone()))
            .collect();
        assert_eq!(
            seen,
            vec![
                (1, progress(2)),
                (2, progress(1)), // stable: ties keep emission order
                (2, progress(3)),
                (0, progress(4)),
            ]
        );
    }

    #[test]
    fn clones_share_one_sink() {
        let (a, sink) = Tracer::shared(MemorySink::new());
        let b = a.clone();
        a.emit(SimTime::ZERO, || Event::ProfilerProgress {
            completed: 1,
            total: 4,
            division: 0,
            config: 1,
        });
        b.emit(SimTime::ZERO, || Event::ProfilerProgress {
            completed: 2,
            total: 4,
            division: 0,
            config: 2,
        });
        assert_eq!(sink.lock().expect("sink lock").records().len(), 2);
    }

    #[test]
    fn jsonl_round_trips_losslessly() {
        let path =
            std::env::temp_dir().join(format!("aum-telemetry-test-{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).expect("create trace file");
            for r in &sample_events() {
                sink.record(r);
            }
            assert_eq!(sink.lines_written(), 3);
        }
        let text = std::fs::read_to_string(&path).expect("read trace back");
        let parsed = parse_jsonl(&text).expect("every line parses");
        assert_eq!(parsed, sample_events());
        std::fs::remove_file(&path).ok();
    }

    /// One record of every [`Event`] variant and the JSONL line it encodes
    /// to: fields in declaration order, externally tagged variants, unit
    /// enums by name, `null` for `None` and for a NaN, integral floats with
    /// a `.0`, and escaped strings.
    fn encoding_table() -> Vec<(TraceRecord, &'static str)> {
        use crate::attrib::{Cause, CauseVec, Region};
        use crate::span::{self, SpanId, SpanKind};
        let at = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        let causes = |pairs: &[(Cause, f64)]| {
            let mut v = CauseVec::zero();
            pairs.iter().for_each(|&(c, x)| v.add(c, x));
            v
        };
        let span_open = |kind, payload, parent, track: &str, label: Option<&str>| {
            span::open(
                kind,
                payload,
                parent,
                &track.into(),
                label.map(str::to_string),
            )
        };
        let span_close = |kind, payload, track: &str| span::close(kind, payload, &track.into());
        let table = vec![
            (
                Event::RequestAdmitted {
                    id: 7,
                    input_len: 755,
                    output_len: 200,
                },
                r#"{"at":1500000000,"event":{"RequestAdmitted":{"id":7,"input_len":755,"output_len":200}}}"#,
            ),
            (
                Event::RequestFinished {
                    id: 1,
                    generated: 200,
                    mean_tpot_secs: 0.05,
                    ttft_secs: f64::NAN,
                },
                r#"{"at":1500000000,"event":{"RequestFinished":{"id":1,"generated":200,"mean_tpot_secs":0.05,"ttft_secs":null}}}"#,
            ),
            (
                Event::IterationCompleted {
                    phase: PhaseKind::Decode,
                    batch: 16,
                    tokens: 16,
                    duration_secs: 0.03,
                },
                r#"{"at":1500000000,"event":{"IterationCompleted":{"phase":"Decode","batch":16,"tokens":16,"duration_secs":0.03}}}"#,
            ),
            (
                Event::SloBreach {
                    metric: SloMetric::Ttft,
                    observed_secs: 2.0,
                    budget_secs: 1.0,
                },
                r#"{"at":1500000000,"event":{"SloBreach":{"metric":"Ttft","observed_secs":2.0,"budget_secs":1.0}}}"#,
            ),
            (
                Event::FreqTransition {
                    region: RegionClass::High,
                    from_ghz: 2.6,
                    to_ghz: 1.9,
                },
                r#"{"at":1500000000,"event":{"FreqTransition":{"region":"High","from_ghz":2.6,"to_ghz":1.9}}}"#,
            ),
            (
                Event::ThermalThrottle {
                    region: RegionClass::None,
                    drop_ghz: 0.2,
                },
                r#"{"at":1500000000,"event":{"ThermalThrottle":{"region":"None","drop_ghz":0.2}}}"#,
            ),
            (
                Event::RdtReallocation {
                    llc_ways_from: 4,
                    llc_ways_to: 6,
                    l2_ways_from: 8,
                    l2_ways_to: 8,
                    mem_bw_from: 0.2,
                    mem_bw_to: 0.35,
                },
                r#"{"at":1500000000,"event":{"RdtReallocation":{"llc_ways_from":4,"llc_ways_to":6,"l2_ways_from":8,"l2_ways_to":8,"mem_bw_from":0.2,"mem_bw_to":0.35}}}"#,
            ),
            (
                Event::ControllerDecision {
                    kind: DecisionKind::Switch,
                    action: "Switch(div 1\u{2192}2)".to_string(),
                    verdict: SlackVerdict::Violating,
                    lag_secs: -0.01,
                    deviation: 1e-7,
                    collision: true,
                    reason: "headroom \u{3b4}=2.4 > 2.0".to_string(),
                },
                "{\"at\":1500000000,\"event\":{\"ControllerDecision\":{\"kind\":\"Switch\",\"action\":\"Switch(div 1\u{2192}2)\",\"verdict\":\"Violating\",\"lag_secs\":-0.01,\"deviation\":0.0000001,\"collision\":true,\"reason\":\"headroom \u{3b4}=2.4 > 2.0\"}}}",
            ),
            (
                Event::ProfilerProgress {
                    completed: 5,
                    total: 20,
                    division: 1,
                    config: 0,
                },
                r#"{"at":1500000000,"event":{"ProfilerProgress":{"completed":5,"total":20,"division":1,"config":0}}}"#,
            ),
            (
                Event::FaultInjected {
                    kind: "ThermalRunaway".to_string(),
                    detail: "influx 12.0 W-equivalent".to_string(),
                },
                r#"{"at":1500000000,"event":{"FaultInjected":{"kind":"ThermalRunaway","detail":"influx 12.0 W-equivalent"}}}"#,
            ),
            (
                Event::FaultRecovered {
                    kind: "BandwidthDegrade".to_string(),
                },
                r#"{"at":1500000000,"event":{"FaultRecovered":{"kind":"BandwidthDegrade"}}}"#,
            ),
            (
                Event::FaultOutsideWindow {
                    kind: "BeSurge".to_string(),
                    at_secs: 400.0,
                    duration_secs: 1e21,
                },
                r#"{"at":1500000000,"event":{"FaultOutsideWindow":{"kind":"BeSurge","at_secs":400.0,"duration_secs":1000000000000000000000.0}}}"#,
            ),
            (
                Event::SensorRejected {
                    sensor: "tpot_p50".to_string(),
                    observed: 1.9,
                    substituted: 0.062,
                    reason: "outlier".to_string(),
                },
                r#"{"at":1500000000,"event":{"SensorRejected":{"sensor":"tpot_p50","observed":1.9,"substituted":0.062,"reason":"outlier"}}}"#,
            ),
            (
                Event::SafeModeTransition {
                    from: ResilienceMode::Degraded,
                    to: ResilienceMode::SafeMode,
                    reason: "breach pressure 12/16".to_string(),
                },
                r#"{"at":1500000000,"event":{"SafeModeTransition":{"from":"Degraded","to":"SafeMode","reason":"breach pressure 12/16"}}}"#,
            ),
            (
                Event::AttributionSample {
                    region: Region::AuLow,
                    dt_secs: 0.5,
                    time: causes(&[(Cause::Compute, 0.3), (Cause::MemDram, 0.2)]),
                    energy: causes(&[(Cause::Compute, 40.0)]),
                },
                r#"{"at":1500000000,"event":{"AttributionSample":{"region":"AuLow","dt_secs":0.5,"time":{"values":[0.3,0.0,0.0,0.0,0.2,0.0,0.0,0.0,0.0,0.0]},"energy":{"values":[40.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0]}}}}"#,
            ),
            (
                span_open(
                    SpanKind::RequestLifecycle,
                    7,
                    Some(SpanId::derive(SpanKind::ControllerInterval, 2)),
                    "aum/chatbot+specjbb",
                    None,
                ),
                r#"{"at":1500000000,"event":{"SpanOpen":{"id":72057594037927943,"parent":288230376151711746,"kind":"RequestLifecycle","track":"aum/chatbot+specjbb","label":"req 7"}}}"#,
            ),
            (
                span_open(SpanKind::Prefill, 3, None, "t", None),
                r#"{"at":1500000000,"event":{"SpanOpen":{"id":144115188075855875,"parent":null,"kind":"Prefill","track":"t","label":"prefill 3"}}}"#,
            ),
            (
                span_open(SpanKind::DecodeIteration, 0, None, "t", None),
                r#"{"at":1500000000,"event":{"SpanOpen":{"id":216172782113783808,"parent":null,"kind":"DecodeIteration","track":"t","label":"decode 0"}}}"#,
            ),
            (
                span_open(SpanKind::ControllerInterval, 12, None, "t", None),
                r#"{"at":1500000000,"event":{"SpanOpen":{"id":288230376151711756,"parent":null,"kind":"ControllerInterval","track":"t","label":"interval 12"}}}"#,
            ),
            (
                span_open(SpanKind::FleetEpoch, 3, None, "fleet/failover", None),
                r#"{"at":1500000000,"event":{"SpanOpen":{"id":504403158265495555,"parent":null,"kind":"FleetEpoch","track":"fleet/failover","label":"epoch 3"}}}"#,
            ),
            (
                span_open(SpanKind::ProfilerCell, 5, None, "profiler", Some("cell d1 c0")),
                r#"{"at":1500000000,"event":{"SpanOpen":{"id":360287970189639685,"parent":null,"kind":"ProfilerCell","track":"profiler","label":"cell d1 c0"}}}"#,
            ),
            (
                span_open(
                    SpanKind::NodeHealthEpisode,
                    1,
                    None,
                    "fleet/node1",
                    Some("Suspect \"a\\b\"\n\tc\u{1}"),
                ),
                r#"{"at":1500000000,"event":{"SpanOpen":{"id":576460752303423489,"parent":null,"kind":"NodeHealthEpisode","track":"fleet/node1","label":"Suspect \"a\\b\"\n\tc\u0001"}}}"#,
            ),
            (
                span_close(SpanKind::RequestLifecycle, 7, "aum/chatbot+specjbb"),
                r#"{"at":1500000000,"event":{"SpanClose":{"id":72057594037927943,"kind":"RequestLifecycle","track":"aum/chatbot+specjbb"}}}"#,
            ),
            (
                span_close(SpanKind::RedispatchHop, 77, "fleet/node0"),
                r#"{"at":1500000000,"event":{"SpanClose":{"id":648518346341351501,"kind":"RedispatchHop","track":"fleet/node0"}}}"#,
            ),
            (
                Event::SloTargets {
                    ttft_secs: 3.0,
                    tpot_secs: 0.12,
                },
                r#"{"at":1500000000,"event":{"SloTargets":{"ttft_secs":3.0,"tpot_secs":0.12}}}"#,
            ),
            (
                Event::NodeFault {
                    node: 2,
                    kind: "Straggler".to_string(),
                    detail: "capacity /3.0".to_string(),
                    active: false,
                },
                r#"{"at":1500000000,"event":{"NodeFault":{"node":2,"kind":"Straggler","detail":"capacity /3.0","active":false}}}"#,
            ),
            (
                Event::NodeHealthTransition {
                    node: 1,
                    from: NodeHealth::Suspect,
                    to: NodeHealth::Down,
                    reason: "3 missed heartbeats".to_string(),
                },
                r#"{"at":1500000000,"event":{"NodeHealthTransition":{"node":1,"from":"Suspect","to":"Down","reason":"3 missed heartbeats"}}}"#,
            ),
            (
                Event::RequestRedispatch {
                    node: 1,
                    count: 42,
                    attempt: 2,
                    backoff_epochs: 4,
                },
                r#"{"at":1500000000,"event":{"RequestRedispatch":{"node":1,"count":42,"attempt":2,"backoff_epochs":4}}}"#,
            ),
            (
                Event::LoadShed {
                    class: "best-effort".to_string(),
                    count: 17,
                    epoch: 12,
                },
                r#"{"at":1500000000,"event":{"LoadShed":{"class":"best-effort","count":17,"epoch":12}}}"#,
            ),
            (
                Event::NodeMetricsSnapshot {
                    node: 0,
                    label: "node0/GenA-SPR-HBM".to_string(),
                    snapshot: MetricsSnapshot {
                        at: SimTime::from_secs(42),
                        counters: Arc::new(
                            [("completed".to_string(), 1234u64), ("shed".to_string(), 0)]
                                .into_iter()
                                .collect(),
                        ),
                        gauges: Arc::new(
                            [("epoch_latency_proxy/p50".to_string(), 0.31f64)]
                                .into_iter()
                                .collect(),
                        ),
                    },
                },
                r#"{"at":1500000000,"event":{"NodeMetricsSnapshot":{"node":0,"label":"node0/GenA-SPR-HBM","snapshot":{"at":42000000000,"counters":{"completed":1234,"shed":0},"gauges":{"epoch_latency_proxy/p50":0.31}}}}}"#,
            ),
            (
                Event::WatchdogStall {
                    intervals: 16,
                    queue_len: 5,
                    detail: "no serving progress for 8.0s".to_string(),
                },
                r#"{"at":1500000000,"event":{"WatchdogStall":{"intervals":16,"queue_len":5,"detail":"no serving progress for 8.0s"}}}"#,
            ),
        ];
        table
            .into_iter()
            .map(|(event, line)| {
                let record = TraceRecord {
                    at: at(1_500_000_000),
                    event,
                };
                (record, line)
            })
            .collect()
    }

    #[test]
    fn event_serde_round_trips_every_variant() {
        let table = encoding_table();
        let mut variants: Vec<&str> = table.iter().map(|(r, _)| r.event.kind_label()).collect();
        variants.dedup();
        assert_eq!(variants.len(), 24, "every variant, each once or in a run");
        for (record, line) in &table {
            assert_eq!(record.to_jsonl(), *line);
            let back = parse_jsonl(line).expect("line parses");
            assert_eq!(back[0].to_jsonl(), *line, "re-encoding");
            // Debug equality also holds for the NaN that `null` reads back as.
            assert_eq!(format!("{:?}", back[0]), format!("{record:?}"));
        }
    }

    #[test]
    fn registry_snapshots_form_a_time_series() {
        let mut reg = MetricsSnapshot::default();
        reg.counter_add("requests_finished", 3);
        reg.gauge_set("power_w", 212.5);
        let snap = MetricsSnapshot {
            at: SimTime::from_secs(1),
            ..reg.clone()
        };
        assert_eq!(snap.counters["requests_finished"], 3);
        assert_eq!(snap.gauges["power_w"], 212.5);

        reg.counter_add("requests_finished", 2);
        reg.gauge_set("power_w", 200.0);
        assert_eq!(reg.counters["requests_finished"], 5);
        assert_eq!(reg.gauges["power_w"], 200.0);
        // An earlier capture shares the maps until a write copies them, so
        // it keeps the values it was taken with.
        assert_eq!(snap.counters["requests_finished"], 3);
        assert_eq!(snap.gauges["power_w"], 212.5);

        // Snapshots serialize (they ride on Outcome).
        let json = serde_json::to_string(&snap).expect("serialize snapshot");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parse back");
        assert_eq!(back, snap);
    }

    #[test]
    fn ordering_sink_keeps_emission_order_for_ties_across_flushes() {
        // Regression test for trace-diff determinism: duplicate timestamps
        // must forward in emission order, including when the tied records
        // span several flush boundaries (each segment is forwarded whole
        // before the next one starts buffering).
        let progress = |completed| Event::ProfilerProgress {
            completed,
            total: 8,
            division: 0,
            config: 0,
        };
        let t = SimTime::from_secs(5);
        let (tracer, sink) = Tracer::shared(OrderingSink::new(MemorySink::new()));
        tracer.emit(t, || progress(1));
        tracer.emit(t, || progress(2));
        tracer.flush();
        tracer.emit(t, || progress(3));
        tracer.emit(t, || progress(4));
        tracer.flush();
        tracer.emit(t, || progress(5));
        tracer.flush();
        let seen: Vec<Event> = sink
            .lock()
            .expect("sink lock")
            .inner()
            .records()
            .iter()
            .map(|r| r.event.clone())
            .collect();
        assert_eq!(
            seen,
            (1..=5).map(progress).collect::<Vec<_>>(),
            "equal-SimTime records must keep emission order"
        );
    }
}
