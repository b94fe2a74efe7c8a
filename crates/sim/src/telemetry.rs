//! Structured telemetry: typed events, trace sinks, and a metrics registry.
//!
//! AUM's contribution is a controller that *reacts* to runtime telemetry, so
//! the reproduction must be able to show the causal chain behind every
//! decision, not just endpoint tables. This module is the spine for that:
//!
//! - [`Event`] — a typed, serde-serializable record of everything notable
//!   that happens across the stack: request lifecycle and iterations in the
//!   LLM engine, frequency-license transitions and thermal throttling in the
//!   platform, RDT reallocations, controller decisions **with their
//!   reasons**, and profiler progress.
//! - [`TraceSink`] — where events go. [`NullSink`] is the zero-cost default
//!   (emission sites pay one branch; event construction is skipped
//!   entirely), [`MemorySink`] collects in-process, [`JsonlSink`] streams
//!   one JSON object per line to a file for offline analysis
//!   (`repro trace-summary`).
//! - [`Tracer`] — the cheap cloneable handle threaded through the engine,
//!   platform, controller and experiment loop so one sink observes the
//!   whole stack.
//! - [`MetricsRegistry`] — counters and gauges, snapshotted on demand;
//!   experiment outcomes carry one end-of-run snapshot.
//!
//! Events carry only primitives (ids, lengths, seconds, way counts), so the
//! JSONL schema is stable and self-describing; `TraceRecord` pairs each
//! event with its integer-nanosecond timestamp for lossless round-trips.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Which serving phase an iteration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Prompt processing.
    Prefill,
    /// Token generation.
    Decode,
}

/// Which SLO metric an observation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloMetric {
    /// Time-to-first-token (prefill deadline).
    Ttft,
    /// Time-per-output-token (decode deadline).
    Tpot,
}

/// Core region by AU-usage class (mirrors the platform topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionClass {
    /// AU-high region (prefill / AMX-heavy).
    High,
    /// AU-low region (decode / AVX-heavy).
    Low,
    /// AU-none region (best-effort scalar work).
    None,
}

/// The slack analyzer's verdict at a control boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        /// Human-readable label, e.g. `"req 7"` or `"interval 12"`.
        label: String,
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Simulation time of the event (integer nanoseconds — lossless).
    pub at: SimTime,
    /// The event itself.
    pub event: Event,
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
/// line, in emission order.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
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
        let line = serde_json::to_string(record).expect("trace records always serialize");
        self.out
            .write_all(line.as_bytes())
            .expect("trace file write");
        self.out.write_all(b"\n").expect("trace file write");
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
/// that need at least one record check for that themselves).
///
/// # Errors
///
/// Returns the first malformed line as a typed [`TraceParseError`]
/// carrying its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            serde_json::from_str::<TraceRecord>(l).map_err(|e| TraceParseError {
                line: i + 1,
                message: e.to_string(),
            })
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

/// One point-in-time capture of a [`MetricsRegistry`]. The maps sit behind
/// `Arc`s so trace events and rollups that carry a snapshot clone cheaply.
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
    /// Drops every counter and gauge, keeping the capture time.
    pub fn clear(&mut self) {
        self.counters = Arc::default();
        self.gauges = Arc::default();
    }
}

/// Lightweight metrics registry: named counters and gauges, snapshotted on
/// demand. Latency distributions live in [`crate::hist::LogHistogram`]s
/// that their owners fold into gauges.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a monotonic counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of a counter (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets an instantaneous gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Captures the current state.
    #[must_use]
    pub fn snapshot(&self, at: SimTime) -> MetricsSnapshot {
        MetricsSnapshot {
            at,
            counters: Arc::new(self.counters.clone()),
            gauges: Arc::new(self.gauges.clone()),
        }
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

    #[test]
    fn event_serde_round_trips_every_variant() {
        let variants = vec![
            Event::RequestAdmitted {
                id: 1,
                input_len: 2,
                output_len: 3,
            },
            Event::RequestFinished {
                id: 1,
                generated: 200,
                mean_tpot_secs: 0.05,
                ttft_secs: 0.71,
            },
            Event::IterationCompleted {
                phase: PhaseKind::Decode,
                batch: 16,
                tokens: 16,
                duration_secs: 0.03,
            },
            Event::SloBreach {
                metric: SloMetric::Ttft,
                observed_secs: 2.0,
                budget_secs: 1.0,
            },
            Event::FreqTransition {
                region: RegionClass::High,
                from_ghz: 2.6,
                to_ghz: 1.9,
            },
            Event::ThermalThrottle {
                region: RegionClass::Low,
                drop_ghz: 0.2,
            },
            Event::RdtReallocation {
                llc_ways_from: 4,
                llc_ways_to: 6,
                l2_ways_from: 8,
                l2_ways_to: 8,
                mem_bw_from: 0.2,
                mem_bw_to: 0.35,
            },
            Event::ControllerDecision {
                kind: DecisionKind::Switch,
                action: "Switch(div 1\u{2192}2)".to_string(),
                verdict: SlackVerdict::Meeting,
                lag_secs: 0.04,
                deviation: 2.4,
                collision: true,
                reason: "headroom \u{3b4}=2.4 > 2.0".to_string(),
            },
            Event::ProfilerProgress {
                completed: 5,
                total: 20,
                division: 1,
                config: 0,
            },
            Event::FaultInjected {
                kind: "ThermalRunaway".to_string(),
                detail: "influx 12.0 W-equivalent".to_string(),
            },
            Event::FaultRecovered {
                kind: "BandwidthDegrade".to_string(),
            },
            Event::FaultOutsideWindow {
                kind: "BeSurge".to_string(),
                at_secs: 400.0,
                duration_secs: 300.0,
            },
            Event::SensorRejected {
                sensor: "tpot_p50".to_string(),
                observed: 1.9,
                substituted: 0.062,
                reason: "outlier".to_string(),
            },
            Event::SafeModeTransition {
                from: ResilienceMode::Degraded,
                to: ResilienceMode::SafeMode,
                reason: "breach pressure 12/16 with cfg floor reached".to_string(),
            },
            Event::AttributionSample {
                region: crate::attrib::Region::AuLow,
                dt_secs: 0.5,
                time: {
                    let mut v = crate::attrib::CauseVec::zero();
                    v.add(crate::attrib::Cause::Compute, 0.3);
                    v.add(crate::attrib::Cause::MemDram, 0.2);
                    v
                },
                energy: {
                    let mut v = crate::attrib::CauseVec::zero();
                    v.add(crate::attrib::Cause::Compute, 40.0);
                    v
                },
            },
            Event::SpanOpen {
                id: crate::span::SpanId::derive(crate::span::SpanKind::RequestLifecycle, 7).0,
                parent: Some(
                    crate::span::SpanId::derive(crate::span::SpanKind::ControllerInterval, 2).0,
                ),
                kind: crate::span::SpanKind::RequestLifecycle,
                track: "aum/chatbot+specjbb".into(),
                label: "req 7".to_string(),
            },
            Event::SpanClose {
                id: crate::span::SpanId::derive(crate::span::SpanKind::RequestLifecycle, 7).0,
                kind: crate::span::SpanKind::RequestLifecycle,
                track: "aum/chatbot+specjbb".into(),
            },
            Event::SloTargets {
                ttft_secs: 3.0,
                tpot_secs: 0.12,
            },
            Event::NodeFault {
                node: 2,
                kind: "Straggler".to_string(),
                detail: "capacity /3.0".to_string(),
                active: true,
            },
            Event::NodeHealthTransition {
                node: 1,
                from: NodeHealth::Suspect,
                to: NodeHealth::Down,
                reason: "3 missed heartbeats".to_string(),
            },
            Event::RequestRedispatch {
                node: 1,
                count: 42,
                attempt: 2,
                backoff_epochs: 4,
            },
            Event::LoadShed {
                class: "best-effort".to_string(),
                count: 17,
                epoch: 12,
            },
            Event::NodeMetricsSnapshot {
                node: 0,
                label: "node0/GenA-SPR-HBM".to_string(),
                snapshot: MetricsSnapshot {
                    at: SimTime::from_secs(42),
                    counters: Arc::new([("completed".to_string(), 1234u64)].into_iter().collect()),
                    gauges: Arc::new(
                        [("epoch_latency_proxy/p50".to_string(), 0.31f64)]
                            .into_iter()
                            .collect(),
                    ),
                },
            },
            Event::SpanOpen {
                id: crate::span::SpanId::derive(crate::span::SpanKind::FleetEpoch, 3).0,
                parent: None,
                kind: crate::span::SpanKind::FleetEpoch,
                track: "fleet/failover/node-crash".into(),
                label: "epoch 3".to_string(),
            },
            Event::SpanOpen {
                id: crate::span::SpanId::derive(crate::span::SpanKind::NodeHealthEpisode, 1).0,
                parent: None,
                kind: crate::span::SpanKind::NodeHealthEpisode,
                track: "fleet/failover/node-crash/node1".into(),
                label: "Suspect".to_string(),
            },
            Event::SpanClose {
                id: crate::span::SpanId::derive(crate::span::SpanKind::RedispatchHop, 77).0,
                kind: crate::span::SpanKind::RedispatchHop,
                track: "fleet/failover/node-crash/node0".into(),
            },
            Event::WatchdogStall {
                intervals: 16,
                queue_len: 5,
                detail: "no serving progress for 8.0s".to_string(),
            },
        ];
        for event in variants {
            let json = serde_json::to_string(&event).expect("serialize");
            let back: Event = serde_json::from_str(&json).expect("parse back");
            assert_eq!(back, event, "round trip failed for {json}");
        }
    }

    #[test]
    fn registry_snapshots_form_a_time_series() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("requests_finished", 3);
        reg.gauge_set("power_w", 212.5);
        let snap = reg.snapshot(SimTime::from_secs(1));
        assert_eq!(snap.counters["requests_finished"], 3);
        assert_eq!(snap.gauges["power_w"], 212.5);

        reg.counter_add("requests_finished", 2);
        let snap2 = reg.snapshot(SimTime::from_secs(2));
        assert_eq!(snap2.at, SimTime::from_secs(2));
        assert_eq!(snap2.counters["requests_finished"], 5);
        // An earlier snapshot is a capture, not a view of the registry.
        assert_eq!(snap.counters["requests_finished"], 3);

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
