//! Anomaly-triggered flight recorder: a fixed-capacity ring of telemetry
//! records plus trigger predicates that dump the recent window to an
//! "incident" file the moment something goes wrong.
//!
//! Full JSONL tracing of a long sweep is exactly the overhead problem
//! profile-driven emulation exists to avoid, yet the interesting runs are
//! the ones where the controller misbehaved — and by then the evidence is
//! gone unless something was recording. The flight recorder squares that:
//!
//! - [`RingSink`] is a [`TraceSink`] that keeps only the newest
//!   `capacity` records, evicting deterministically from the front. Fed
//!   from the canonical-cell merge in [`crate::exec`], its contents are
//!   byte-identical at any `--jobs` (the parallel-determinism suite holds
//!   this).
//! - [`FlightRecorder`] wraps the ring with **trigger predicates**: a
//!   dual-window SLO burn-rate PAGE (the online mirror of the
//!   `trace-summary` digest), [`Event::SafeModeTransition`] into a
//!   degraded state, [`Event::FaultInjected`], an attribution-conservation
//!   near-miss, and [`Event::WatchdogStall`]. When one fires, the current
//!   run's records from the last 30 s of sim time are dumped to
//!   `incident-NNNN-<trigger>.jsonl` in [`FlightConfig::dir`] —
//!   filenames carry a sequence number, never a wall-clock timestamp, so a
//!   rerun produces byte-identical incident files.
//! - **A flush ends a run**: a dump holds only records since the last
//!   [`TraceSink::flush_sink`], and each run starts with a fresh cooldown,
//!   pins and burn tracker. `repro` puts a
//!   [`crate::telemetry::OrderingSink`] outside the recorder, so a run
//!   arrives whole, in time order, when it ends (and so do its dumps).
//! - Dumps are **span-balanced**: a window of the stream would contain
//!   closes whose opens fell outside it (and vice versa), which the strict
//!   `trace-export --perfetto` path rejects. The dumper drops orphan
//!   closes and synthesizes closes at the dump end for spans still open,
//!   and pins the run's [`Event::SloTargets`] preamble so the incident
//!   file is self-contained for burn-rate analysis. It writes in one pass
//!   over the ring, copying no record. The result is consumable by `repro
//!   trace-summary` and `repro trace-export --perfetto` unchanged.
//!
//! The recorder can optionally forward every record to an inner sink
//! (e.g. a [`crate::telemetry::JsonlSink`] when full tracing is also
//! requested), so `--flight` composes with `--trace` instead of competing
//! with it.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::attrib;
use crate::span::SpanKind;
use crate::telemetry::{Event, NodeHealth, NullSink, ResilienceMode, TraceRecord, TraceSink};
use crate::time::{SimDuration, SimTime};

/// A [`TraceSink`] that retains only the newest `capacity` records.
///
/// Eviction is strictly FIFO on arrival order, so the retained suffix is a
/// pure function of the record stream — no clocks, no sampling. Feeding it
/// the deterministic merged stream from [`crate::exec::sweep_traced`]
/// therefore yields byte-identical contents at any worker count.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    evicted: u64,
}

impl RingSink {
    /// An empty ring retaining at most `capacity` records (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            evicted: 0,
        }
    }

    /// The retention limit.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted from the front so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// The retained records as a vector, oldest first.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.buf.iter().cloned().collect()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, record: &TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(record.clone());
    }
}

/// Which predicate fired a flight-recorder dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// Both burn windows of one SLO metric exceeded 1× budget (the online
    /// mirror of the `trace-summary` PAGE alert).
    SloBurnPage,
    /// The resilience state machine entered Degraded or SafeMode.
    SafeMode,
    /// The fault plane activated a scripted fault.
    Fault,
    /// An attribution interval's time conservation error entered the
    /// near-miss band below the hard [`attrib::EPSILON`] gate.
    AttribNearMiss,
    /// The run-health watchdog reported a stalled cell.
    WatchdogStall,
    /// The fleet router declared a node Down
    /// ([`Event::NodeHealthTransition`] into [`NodeHealth::Down`]).
    NodeDown,
}

impl TriggerKind {
    /// Stable slug used in incident filenames and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TriggerKind::SloBurnPage => "slo-burn-page",
            TriggerKind::SafeMode => "safe-mode",
            TriggerKind::Fault => "fault",
            TriggerKind::AttribNearMiss => "attrib-near-miss",
            TriggerKind::WatchdogStall => "watchdog-stall",
            TriggerKind::NodeDown => "node-down",
        }
    }
}

/// Fraction of requests the SLO error budget allows to miss their
/// deadline: a burn rate of 1.0× means "exactly on budget". The
/// `trace-summary` digest judges a finished trace by the same policy.
pub const ERROR_BUDGET: f64 = 0.01;

/// Tumbling-window lengths (seconds) of the dual-window burn check: the
/// short window catches fast burns, the long one filters blips, and both
/// burning at once is the page-worthy condition.
pub const BURN_WINDOW_SECS: [u64; 2] = [10, 60];

/// One tumbling window length's online breach accounting for both SLO
/// metrics (index 0 = TTFT, 1 = TPOT).
#[derive(Debug, Clone, Default)]
struct BurnWindow {
    width_secs: u64,
    idx: Option<u64>,
    count: [u64; 2],
    breach: [u64; 2],
    last_burn: [Option<f64>; 2],
}

impl BurnWindow {
    fn new(width_secs: u64) -> Self {
        BurnWindow {
            width_secs,
            ..BurnWindow::default()
        }
    }

    /// Finalizes the previous window when `at` crosses into a new one
    /// (finished requests arrive in time order within a run).
    fn roll(&mut self, at: SimTime) {
        let idx = at.as_nanos() / (self.width_secs * 1_000_000_000);
        match self.idx {
            Some(prev) if prev == idx => {}
            Some(prev) => {
                for m in 0..2 {
                    if self.count[m] > 0 {
                        self.last_burn[m] =
                            Some(self.breach[m] as f64 / self.count[m] as f64 / ERROR_BUDGET);
                    }
                    // Windows with no traffic at all are not burning.
                    if idx > prev + 1 {
                        self.last_burn[m] = Some(0.0);
                    }
                }
                self.count = [0; 2];
                self.breach = [0; 2];
                self.idx = Some(idx);
            }
            None => self.idx = Some(idx),
        }
    }

    fn observe(&mut self, metric: usize, breached: bool) {
        self.count[metric] += 1;
        self.breach[metric] += u64::from(breached);
    }

    fn burning(&self, metric: usize) -> bool {
        self.last_burn[metric].is_some_and(|b| b > 1.0)
    }
}

/// Online dual-window burn tracker over [`Event::RequestFinished`]
/// samples, armed by the run's [`Event::SloTargets`] preamble.
#[derive(Debug, Clone)]
struct BurnTracker {
    targets: Option<(f64, f64)>,
    windows: [BurnWindow; 2],
    paging: bool,
}

impl Default for BurnTracker {
    fn default() -> Self {
        BurnTracker {
            targets: None,
            windows: BURN_WINDOW_SECS.map(BurnWindow::new),
            paging: false,
        }
    }
}

impl BurnTracker {
    /// A run's targets reset all windowed state.
    fn arm(&mut self, ttft_secs: f64, tpot_secs: f64) {
        *self = BurnTracker::default();
        self.targets = Some((ttft_secs, tpot_secs));
    }

    /// Feeds one finished request; returns `true` on the rising edge of a
    /// PAGE condition (some metric burning >1× in both window lengths).
    fn on_finished(
        &mut self,
        at: SimTime,
        ttft_secs: f64,
        generated: usize,
        mean_tpot_secs: f64,
    ) -> bool {
        let Some((ttft_target, tpot_target)) = self.targets else {
            return false;
        };
        for w in &mut self.windows {
            w.roll(at);
            w.observe(0, ttft_secs > ttft_target);
            if generated > 0 {
                w.observe(1, mean_tpot_secs > tpot_target);
            }
        }
        let page = (0..2).any(|m| self.windows.iter().all(|w| w.burning(m)));
        let rising = page && !self.paging;
        self.paging = page;
        rising
    }
}

/// Ring retention limit of a [`FlightRecorder`], in records.
const CAPACITY: usize = 4096;

/// How much trailing sim time a dump covers.
const WINDOW: SimDuration = SimDuration::from_secs(30);

/// Minimum sim time between dumps within one run (each run starts armed).
const COOLDOWN: SimDuration = SimDuration::from_secs(10);

/// Hard cap on incident files per recorder lifetime; triggers beyond it
/// are counted but not dumped.
const MAX_INCIDENTS: usize = 32;

/// Fraction of [`attrib::EPSILON`] above which an attribution interval's
/// relative time-conservation error counts as a near-miss.
const NEAR_MISS_FRAC: f64 = 0.5;

/// Where a [`FlightRecorder`] writes its incident files.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Directory incident files are written into (created on demand).
    pub dir: PathBuf,
}

impl FlightConfig {
    /// Incident files go to `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FlightConfig { dir: dir.into() }
    }
}

/// One dumped incident's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// 1-based dump sequence number (also in the filename).
    pub seq: usize,
    /// Which predicate fired.
    pub trigger: TriggerKind,
    /// Sim time of the triggering record.
    pub at: SimTime,
    /// Where the JSONL dump was written.
    pub path: PathBuf,
    /// Records in the dump (after span balancing).
    pub events: usize,
}

/// Point-in-time counters for the live endpoint's flight gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Records currently in the ring.
    pub occupancy: usize,
    /// Ring retention limit.
    pub capacity: usize,
    /// Records evicted from the ring so far.
    pub evicted: u64,
    /// Trigger predicate firings (including suppressed ones).
    pub triggers: u64,
    /// Incident files written.
    pub incidents: usize,
}

/// What the recorder knows of the current run: everything since the last
/// flush, which a flush resets.
#[derive(Debug, Default)]
struct RunState {
    /// Records of the run so far; the ring's newest `len` are the run's.
    len: usize,
    burn: BurnTracker,
    pinned_targets: Option<TraceRecord>,
    /// Latest [`Event::NodeMetricsSnapshot`] seen per node, pinned into
    /// `node-down` dumps so the incident carries the offending node's
    /// metric state even when the snapshot aged out of the window.
    pinned_node_metrics: std::collections::BTreeMap<usize, TraceRecord>,
    last_dump_at: Option<SimTime>,
}

/// The flight recorder: ring + triggers + incident dumps, optionally
/// forwarding every record to an inner sink.
#[derive(Debug)]
pub struct FlightRecorder<S: TraceSink = NullSink> {
    cfg: FlightConfig,
    ring: RingSink,
    run: RunState,
    triggers: u64,
    incidents: Vec<Incident>,
    errors: Vec<String>,
    inner: Option<S>,
    /// The line a dump is writing, reused from record to record.
    line: String,
}

impl<S: TraceSink> FlightRecorder<S> {
    /// A recorder forwarding every record to `inner` as well.
    #[must_use]
    pub fn with_inner(cfg: FlightConfig, inner: S) -> Self {
        Self::with_inner_opt(cfg, Some(inner))
    }

    /// A recorder with an optional inner sink.
    #[must_use]
    pub fn with_inner_opt(cfg: FlightConfig, inner: Option<S>) -> Self {
        FlightRecorder {
            cfg,
            ring: RingSink::new(CAPACITY),
            run: RunState::default(),
            triggers: 0,
            incidents: Vec::new(),
            errors: Vec::new(),
            inner,
            line: String::new(),
        }
    }

    /// The wrapped inner sink, if any.
    pub fn inner(&self) -> Option<&S> {
        self.inner.as_ref()
    }

    /// The ring buffer (current retained suffix of the stream).
    #[must_use]
    pub fn ring(&self) -> &RingSink {
        &self.ring
    }

    /// Incidents dumped so far, in order.
    #[must_use]
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// I/O errors hit while writing incident files (dumps never panic the
    /// run; the driver surfaces these and exits nonzero).
    #[must_use]
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Counters for the live endpoint.
    #[must_use]
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            occupancy: self.ring.len(),
            capacity: self.ring.capacity(),
            evicted: self.ring.evicted(),
            triggers: self.triggers,
            incidents: self.incidents.len(),
        }
    }

    /// Which predicate (if any) `record` fires. Also advances the online
    /// burn tracker.
    fn trigger_for(&mut self, record: &TraceRecord) -> Option<TriggerKind> {
        match &record.event {
            Event::SafeModeTransition {
                to: ResilienceMode::Degraded | ResilienceMode::SafeMode,
                ..
            } => Some(TriggerKind::SafeMode),
            Event::FaultInjected { .. } => Some(TriggerKind::Fault),
            Event::NodeHealthTransition {
                to: NodeHealth::Down,
                ..
            } => Some(TriggerKind::NodeDown),
            Event::WatchdogStall { .. } => Some(TriggerKind::WatchdogStall),
            Event::AttributionSample { dt_secs, time, .. } if *dt_secs > 0.0 => {
                let rel = (time.sum() - dt_secs).abs() / dt_secs;
                (rel > NEAR_MISS_FRAC * attrib::EPSILON).then_some(TriggerKind::AttribNearMiss)
            }
            Event::RequestFinished {
                generated,
                mean_tpot_secs,
                ttft_secs,
                ..
            } => self
                .run
                .burn
                .on_finished(record.at, *ttft_secs, *generated, *mean_tpot_secs)
                .then_some(TriggerKind::SloBurnPage),
            _ => None,
        }
    }

    /// Cooldown gate: a dump is allowed on a run's first trigger, and after
    /// [`COOLDOWN`] of sim time since the run's last dump.
    fn dump_allowed(&self, at: SimTime) -> bool {
        self.incidents.len() < MAX_INCIDENTS
            && self
                .run
                .last_dump_at
                .is_none_or(|last| at.saturating_since(last) >= COOLDOWN)
    }

    /// Writes an incident file straight from the ring: the pins, then
    /// the current run's records within [`WINDOW`] before `at`, then closes
    /// for the spans still open (see [`write_dump`]). The triggering record
    /// is the newest in the ring, so no window is empty.
    fn dump(&mut self, trigger: TriggerKind, at: SimTime, node: Option<usize>) {
        let ring = &self.ring.buf;
        let in_window = ring
            .iter()
            .rev()
            .take(self.run.len)
            .take_while(|r| at.saturating_since(r.at) <= WINDOW)
            .count();
        let window = ring.range(ring.len() - in_window..);
        // Pin the run's SLO targets, so the incident is self-contained for
        // burn-rate analysis, and for a `node-down` the node's latest metric
        // snapshot, so it carries the node's counters: each only when the
        // window does not hold one already.
        let targets = self.run.pinned_targets.as_ref().filter(|_| {
            !window
                .clone()
                .any(|r| matches!(r.event, Event::SloTargets { .. }))
        });
        let snapshot = node.and_then(|node| {
            self.run.pinned_node_metrics.get(&node).filter(|_| {
                !window.clone().any(|r| {
                    matches!(&r.event, Event::NodeMetricsSnapshot { node: n, .. } if *n == node)
                })
            })
        });
        let records = targets.into_iter().chain(snapshot).chain(window);
        let seq = self.incidents.len() + 1;
        let path = self
            .cfg
            .dir
            .join(format!("incident-{seq:04}-{}.jsonl", trigger.label()));
        match write_dump(&path, records, at, &mut self.line) {
            Ok(events) => {
                self.run.last_dump_at = Some(at);
                self.incidents.push(Incident {
                    seq,
                    trigger,
                    at,
                    path,
                    events,
                });
            }
            Err(e) => self.errors.push(format!("{}: {e}", path.display())),
        }
    }
}

impl<S: TraceSink> TraceSink for FlightRecorder<S> {
    fn record(&mut self, record: &TraceRecord) {
        if let Some(inner) = &mut self.inner {
            inner.record(record);
        }
        if let Event::SloTargets {
            ttft_secs,
            tpot_secs,
        } = record.event
        {
            self.run.burn.arm(ttft_secs, tpot_secs);
            self.run.pinned_targets = Some(record.clone());
        }
        if let Event::NodeMetricsSnapshot { node, .. } = &record.event {
            self.run.pinned_node_metrics.insert(*node, record.clone());
        }
        self.ring.record(record);
        self.run.len += 1;
        if let Some(trigger) = self.trigger_for(record) {
            self.triggers += 1;
            if self.dump_allowed(record.at) {
                let node = match &record.event {
                    Event::NodeHealthTransition { node, .. } => Some(*node),
                    _ => None,
                };
                self.dump(trigger, record.at, node);
            }
        }
    }

    /// Ends the current run.
    fn flush_sink(&mut self) {
        self.run = RunState::default();
        if let Some(inner) = &mut self.inner {
            inner.flush_sink();
        }
    }
}

/// Writes `records` to `path` as JSON Lines, creating the parent
/// directory on demand, and returns the number of lines. The dump is
/// span-balanced, the shape [`crate::span::collect_spans`] and the Perfetto
/// exporter require: a close whose open is not among the records before it
/// is dropped, and each span still open at the end gets a close at `end`,
/// innermost first. Unresolved *parents* need no fixup: `collect_spans`
/// degrades those spans to roots by design.
fn write_dump<'a>(
    path: &Path,
    records: impl Iterator<Item = &'a TraceRecord>,
    end: SimTime,
    line: &mut String,
) -> std::io::Result<usize> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    let mut lines = 0;
    let mut write = |record: &TraceRecord| {
        line.clear();
        record.write_jsonl(line);
        line.push('\n');
        lines += 1;
        out.write_all(line.as_bytes())
    };
    let mut open: Vec<(&Arc<str>, u64, SpanKind)> = Vec::new();
    for r in records {
        match &r.event {
            Event::SpanOpen {
                id, kind, track, ..
            } => open.push((track, *id, *kind)),
            Event::SpanClose { id, track, .. } => {
                match open.iter().rposition(|&(t, i, _)| t == track && i == *id) {
                    Some(pos) => {
                        open.remove(pos);
                    }
                    None => continue,
                }
            }
            _ => {}
        }
        write(r)?;
    }
    for (track, id, kind) in open.into_iter().rev() {
        write(&TraceRecord {
            at: end,
            event: Event::SpanClose {
                id,
                kind,
                track: track.clone(),
            },
        })?;
    }
    out.flush()?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{collect_spans, SpanId};
    use crate::telemetry::parse_jsonl;

    fn rec(at_secs: f64, event: Event) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_secs_f64(at_secs),
            event,
        }
    }

    fn finished(id: u64, ttft: f64) -> Event {
        Event::RequestFinished {
            id,
            generated: 10,
            mean_tpot_secs: 0.05,
            ttft_secs: ttft,
        }
    }

    fn fault() -> Event {
        Event::FaultInjected {
            kind: "BeSurge".to_string(),
            detail: "x3".to_string(),
        }
    }

    fn node_down(node: usize) -> Event {
        Event::NodeHealthTransition {
            node,
            from: NodeHealth::Suspect,
            to: NodeHealth::Down,
            reason: "3 missed heartbeats".to_string(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aum-flight-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn ring_keeps_exactly_the_newest_capacity_records() {
        let mut ring = RingSink::new(3);
        for i in 0..7u64 {
            ring.record(&rec(i as f64, finished(i, 0.1)));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 4);
        let ids: Vec<f64> = ring.records().map(|r| r.at.as_secs_f64()).collect();
        assert_eq!(ids, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn fault_trigger_dumps_a_window_that_round_trips() {
        let dir = temp_dir("fault");
        let mut fr = FlightRecorder::with_inner(FlightConfig::new(&dir), NullSink);
        fr.record(&rec(
            0.0,
            Event::SloTargets {
                ttft_secs: 3.0,
                tpot_secs: 0.12,
            },
        ));
        for i in 0..50u64 {
            fr.record(&rec(i as f64, finished(i, 0.2)));
        }
        fr.record(&rec(50.0, fault()));
        assert_eq!(fr.incidents().len(), 1);
        assert!(fr.errors().is_empty());
        let inc = &fr.incidents()[0];
        assert_eq!(inc.trigger, TriggerKind::Fault);
        assert!(inc.path.ends_with("incident-0001-fault.jsonl"));
        let text = std::fs::read_to_string(&inc.path).expect("read dump");
        let parsed = parse_jsonl(&text).expect("dump parses");
        assert_eq!(parsed.len(), inc.events);
        // The 30 s window keeps t ∈ [20, 50]; the SloTargets preamble is
        // pinned back in even though t=0 aged out of the window.
        assert!(matches!(parsed[0].event, Event::SloTargets { .. }));
        assert!(parsed
            .iter()
            .any(|r| matches!(r.event, Event::FaultInjected { .. })));
        assert!(!parsed
            .iter()
            .any(|r| r.at.as_secs_f64() < 20.0 && !matches!(r.event, Event::SloTargets { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn node_down_transition_triggers_a_dump_and_other_transitions_do_not() {
        let dir = temp_dir("node-down");
        let mut fr = FlightRecorder::with_inner(FlightConfig::new(&dir), NullSink);
        for i in 0..20u64 {
            fr.record(&rec(i as f64, finished(i, 0.2)));
        }
        // Healthy→Suspect is advisory: no dump.
        fr.record(&rec(
            20.0,
            Event::NodeHealthTransition {
                node: 1,
                from: NodeHealth::Healthy,
                to: NodeHealth::Suspect,
                reason: "1 missed heartbeat".to_string(),
            },
        ));
        assert_eq!(fr.incidents().len(), 0);
        fr.record(&rec(22.0, node_down(1)));
        assert_eq!(fr.incidents().len(), 1);
        let inc = &fr.incidents()[0];
        assert_eq!(inc.trigger, TriggerKind::NodeDown);
        assert!(inc.path.ends_with("incident-0001-node-down.jsonl"));
        let text = std::fs::read_to_string(&inc.path).expect("read dump");
        let parsed = parse_jsonl(&text).expect("dump parses");
        assert!(parsed.iter().any(|r| matches!(
            r.event,
            Event::NodeHealthTransition {
                to: NodeHealth::Down,
                ..
            }
        )));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn node_down_dump_pins_the_offending_nodes_metric_snapshot() {
        use crate::telemetry::MetricsSnapshot;

        let dir = temp_dir("node-down-snap");
        let mut fr = FlightRecorder::with_inner(FlightConfig::new(&dir), NullSink);
        let snapshot_for = |at: f64, completed: u64| MetricsSnapshot {
            at: SimTime::from_secs_f64(at),
            counters: Arc::new([("completed".to_string(), completed)].into_iter().collect()),
            gauges: Arc::new(std::collections::BTreeMap::new()),
        };
        // Snapshots for two nodes, both outside the 30 s window at trigger
        // time. Only node 1's (the one that goes Down) is pinned.
        fr.record(&rec(
            5.0,
            Event::NodeMetricsSnapshot {
                node: 0,
                label: "node0/GenA".to_string(),
                snapshot: snapshot_for(5.0, 7),
            },
        ));
        fr.record(&rec(
            6.0,
            Event::NodeMetricsSnapshot {
                node: 1,
                label: "node1/GenB".to_string(),
                snapshot: snapshot_for(6.0, 3),
            },
        ));
        for i in 31..40u64 {
            fr.record(&rec(i as f64, finished(i, 0.2)));
        }
        fr.record(&rec(40.0, node_down(1)));
        assert_eq!(fr.incidents().len(), 1);
        let text = std::fs::read_to_string(&fr.incidents()[0].path).expect("read dump");
        let parsed = parse_jsonl(&text).expect("dump parses");
        let snaps: Vec<usize> = parsed
            .iter()
            .filter_map(|r| match &r.event {
                Event::NodeMetricsSnapshot { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(snaps, vec![1], "only the downed node's snapshot is pinned");
        assert!(parsed.iter().any(|r| matches!(
            &r.event,
            Event::NodeMetricsSnapshot { label, .. } if label == "node1/GenB"
        )));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dumps_are_span_balanced_for_strict_consumers() {
        let dir = temp_dir("spans");
        let mut fr = FlightRecorder::with_inner(FlightConfig::new(&dir), NullSink);
        let track: Arc<str> = "aum/test".into();
        let outer = SpanId::derive(SpanKind::ControllerInterval, 1).0;
        let inner = SpanId::derive(SpanKind::ControllerInterval, 2).0;
        let stale = SpanId::derive(SpanKind::ControllerInterval, 0).0;
        // A span that opened long before the window: its close at t=46
        // lands inside the window as an orphan and must be dropped.
        fr.record(&rec(
            1.0,
            Event::SpanOpen {
                id: stale,
                parent: None,
                kind: SpanKind::ControllerInterval,
                track: track.clone(),
                label: None,
            },
        ));
        fr.record(&rec(
            46.0,
            Event::SpanClose {
                id: stale,
                kind: SpanKind::ControllerInterval,
                track: track.clone(),
            },
        ));
        // A nested pair that is still open at the trigger: both must get
        // synthesized closes, inner before outer.
        fr.record(&rec(
            47.0,
            Event::SpanOpen {
                id: outer,
                parent: None,
                kind: SpanKind::ControllerInterval,
                track: track.clone(),
                label: None,
            },
        ));
        fr.record(&rec(
            48.0,
            Event::SpanOpen {
                id: inner,
                parent: Some(outer),
                kind: SpanKind::ControllerInterval,
                track: track.clone(),
                label: None,
            },
        ));
        fr.record(&rec(
            50.0,
            Event::FaultInjected {
                kind: "CoreOffline".to_string(),
                detail: "2 cores".to_string(),
            },
        ));
        let inc = &fr.incidents()[0];
        let text = std::fs::read_to_string(&inc.path).expect("read dump");
        let parsed = parse_jsonl(&text).expect("dump parses");
        let forest = collect_spans(&parsed).expect("balanced spans");
        assert_eq!(forest.nodes.len(), 2, "outer + inner; stale span dropped");
        let closes = parsed
            .iter()
            .filter(|r| matches!(r.event, Event::SpanClose { .. }))
            .count();
        assert_eq!(closes, 2, "orphan close dropped, two synthesized");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dump_that_opens_mid_span_is_pinned_and_balanced() {
        use crate::telemetry::MetricsSnapshot;

        let dir = temp_dir("mid-span");
        let mut fr = FlightRecorder::with_inner(FlightConfig::new(&dir), NullSink);
        let track: Arc<str> = "aum/t".into();
        let open = |kind, payload, parent: Option<u64>, label: Option<&str>| Event::SpanOpen {
            id: SpanId::derive(kind, payload).0,
            parent,
            kind,
            track: track.clone(),
            label: label.map(str::to_string),
        };
        let close = |kind, payload| Event::SpanClose {
            id: SpanId::derive(kind, payload).0,
            kind,
            track: track.clone(),
        };
        let interval = |n| SpanId::derive(SpanKind::ControllerInterval, n).0;
        let records = [
            (
                0.0,
                Event::SloTargets {
                    ttft_secs: 3.0,
                    tpot_secs: 0.12,
                },
            ),
            (1.0, open(SpanKind::ControllerInterval, 0, None, None)),
            (
                5.0,
                Event::NodeMetricsSnapshot {
                    node: 1,
                    label: "node1/GenB".to_string(),
                    snapshot: MetricsSnapshot {
                        at: SimTime::from_secs(5),
                        counters: Arc::new([("completed".to_string(), 3)].into_iter().collect()),
                        gauges: Arc::default(),
                    },
                },
            ),
            (9.5, finished(1, 0.2)),
            // The window of the trigger at t=40 starts here.
            (10.0, finished(2, 0.2)),
            (31.0, open(SpanKind::ControllerInterval, 1, None, None)),
            (
                32.0,
                open(SpanKind::FaultWindow, 0, None, Some("fault BeSurge")),
            ),
            (
                33.0,
                open(SpanKind::RequestLifecycle, 7, Some(interval(1)), None),
            ),
            (34.0, close(SpanKind::RequestLifecycle, 7)),
            (35.0, close(SpanKind::ControllerInterval, 0)),
            (36.0, open(SpanKind::Prefill, 2, None, None)),
            (40.0, node_down(1)),
        ];
        for (at, event) in records {
            fr.record(&rec(at, event));
        }
        let inc = &fr.incidents()[0];
        let text = std::fs::read_to_string(&inc.path).expect("read dump");
        let expected = [
            r#"{"at":0,"event":{"SloTargets":{"ttft_secs":3.0,"tpot_secs":0.12}}}"#,
            r#"{"at":5000000000,"event":{"NodeMetricsSnapshot":{"node":1,"label":"node1/GenB","snapshot":{"at":5000000000,"counters":{"completed":3},"gauges":{}}}}}"#,
            r#"{"at":10000000000,"event":{"RequestFinished":{"id":2,"generated":10,"mean_tpot_secs":0.05,"ttft_secs":0.2}}}"#,
            r#"{"at":31000000000,"event":{"SpanOpen":{"id":288230376151711745,"parent":null,"kind":"ControllerInterval","track":"aum/t","label":"interval 1"}}}"#,
            r#"{"at":32000000000,"event":{"SpanOpen":{"id":432345564227567616,"parent":null,"kind":"FaultWindow","track":"aum/t","label":"fault BeSurge"}}}"#,
            r#"{"at":33000000000,"event":{"SpanOpen":{"id":72057594037927943,"parent":288230376151711745,"kind":"RequestLifecycle","track":"aum/t","label":"req 7"}}}"#,
            r#"{"at":34000000000,"event":{"SpanClose":{"id":72057594037927943,"kind":"RequestLifecycle","track":"aum/t"}}}"#,
            r#"{"at":36000000000,"event":{"SpanOpen":{"id":144115188075855874,"parent":null,"kind":"Prefill","track":"aum/t","label":"prefill 2"}}}"#,
            r#"{"at":40000000000,"event":{"NodeHealthTransition":{"node":1,"from":"Suspect","to":"Down","reason":"3 missed heartbeats"}}}"#,
            r#"{"at":40000000000,"event":{"SpanClose":{"id":144115188075855874,"kind":"Prefill","track":"aum/t"}}}"#,
            r#"{"at":40000000000,"event":{"SpanClose":{"id":432345564227567616,"kind":"FaultWindow","track":"aum/t"}}}"#,
            r#"{"at":40000000000,"event":{"SpanClose":{"id":288230376151711745,"kind":"ControllerInterval","track":"aum/t"}}}"#,
        ];
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        assert_eq!(inc.events, expected.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cooldown_suppresses_within_a_run_and_rearms_at_each_flush() {
        let dir = temp_dir("cooldown");
        let mut fr = FlightRecorder::with_inner(FlightConfig::new(&dir), NullSink);
        fr.record(&rec(30.0, fault()));
        fr.record(&rec(31.0, fault())); // within 10 s cooldown → suppressed
        assert_eq!(fr.incidents().len(), 1);
        assert_eq!(fr.stats().triggers, 2);
        fr.record(&rec(45.0, fault())); // past cooldown → dumps
        assert_eq!(fr.incidents().len(), 2);
        // Two more runs, each losing a node at t=32 s: neither run's
        // trigger falls in another run's cooldown.
        for _ in 0..2 {
            fr.flush_sink();
            fr.record(&rec(32.0, node_down(0)));
        }
        assert_eq!(fr.incidents().len(), 4);
        assert_eq!(fr.incidents()[3].trigger, TriggerKind::NodeDown);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dump_holds_only_the_current_runs_records() {
        let dir = temp_dir("runs");
        let mut fr = FlightRecorder::with_inner(FlightConfig::new(&dir), NullSink);
        // Run 1 ends at t=1.5 s, and run 2 restarts the clock.
        (0..4).for_each(|i| fr.record(&rec(f64::from(i) * 0.5, finished(0, 0.2))));
        fr.flush_sink();
        (0..10).for_each(|i| fr.record(&rec(f64::from(i), finished(1, 0.2))));
        fr.record(&rec(10.0, fault()));
        let text = std::fs::read_to_string(&fr.incidents()[0].path).expect("read dump");
        let dump = parse_jsonl(&text).expect("dump parses");
        let run_1 = |r: &TraceRecord| matches!(r.event, Event::RequestFinished { id: 0, .. });
        assert_eq!(dump.len(), 11, "run 2's ten requests and its fault");
        assert!(!dump.iter().any(run_1), "no record of run 1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn burn_page_fires_on_sustained_dual_window_breach() {
        let dir = temp_dir("burn");
        let mut fr = FlightRecorder::with_inner(FlightConfig::new(&dir), NullSink);
        fr.record(&rec(
            0.0,
            Event::SloTargets {
                ttft_secs: 0.5,
                tpot_secs: 0.1,
            },
        ));
        // Every TTFT violates: each completed 10 s and 60 s window burns at
        // 100×. The page needs one completed window of each length, i.e.
        // the first sample past t=60.
        let mut fired_at = None;
        for i in 0..40u64 {
            let at = i as f64 * 2.0;
            fr.record(&rec(at, finished(i, 1.2)));
            if !fr.incidents().is_empty() && fired_at.is_none() {
                fired_at = Some(at);
            }
        }
        let fired_at = fired_at.expect("page must fire");
        assert!(fired_at >= 60.0, "needs a completed long window");
        assert_eq!(fr.incidents()[0].trigger, TriggerKind::SloBurnPage);
        // Healthy traffic never pages.
        let dir2 = temp_dir("burn-ok");
        let mut ok = FlightRecorder::with_inner(FlightConfig::new(&dir2), NullSink);
        ok.record(&rec(
            0.0,
            Event::SloTargets {
                ttft_secs: 3.0,
                tpot_secs: 0.12,
            },
        ));
        for i in 0..200u64 {
            ok.record(&rec(i as f64, finished(i, 0.2)));
        }
        assert!(ok.incidents().is_empty());
        assert_eq!(ok.stats().triggers, 0);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn attrib_near_miss_triggers_inside_the_band() {
        let dir = temp_dir("attrib");
        let mut fr = FlightRecorder::with_inner(FlightConfig::new(&dir), NullSink);
        let sample = |err: f64| {
            let dt = 0.5;
            let mut time = attrib::CauseVec::zero();
            time.add(attrib::Cause::Compute, dt * (1.0 + err));
            Event::AttributionSample {
                region: attrib::Region::AuHigh,
                dt_secs: dt,
                time,
                energy: attrib::CauseVec::zero(),
            }
        };
        fr.record(&rec(1.0, sample(1e-12))); // healthy: far below the band
        assert_eq!(fr.stats().triggers, 0);
        fr.record(&rec(2.0, sample(0.8 * attrib::EPSILON))); // near-miss band
        assert_eq!(fr.stats().triggers, 1);
        assert_eq!(fr.incidents()[0].trigger, TriggerKind::AttribNearMiss);
        std::fs::remove_dir_all(&dir).ok();
    }
}
