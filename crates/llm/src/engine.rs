//! Continuous-batching LLM serving engine.
//!
//! Simulates an xFasterTransformer-style server iteration by iteration. The
//! engine supports both deployment shapes the evaluation needs:
//!
//! - **time-multiplexed** — one executor alternates between prefilling
//!   waiting prompts (FCFS priority) and decode iterations on the same
//!   cores; this is how the exclusive ALL-AU baseline serves;
//! - **partitioned** — prefill and decode run concurrently on the High-AU
//!   and Low-AU core regions of AUM's processor division (§VI-B2).
//!
//! Each iteration's latency comes from the roofline cost model under the
//! resources (cores, frequency, bandwidth grant, contention penalties) the
//! experiment harness supplies per control interval, so every AUV channel
//! reaches token latency mechanistically.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use aum_au::gemm::ExecContext;
use aum_au::unit::Precision;
use aum_platform::spec::PlatformSpec;
use aum_platform::units::GbPerSec;
use aum_sim::hist::LogHistogram;
use aum_sim::span::{SpanId, SpanKind};
use aum_sim::stats::RecentWindow;
use aum_sim::telemetry::{Event, PhaseKind, Tracer};
use aum_sim::time::{SimDuration, SimTime};

use crate::batching::{ActiveRequest, DecodePool, PrefillQueue};
use crate::config::ModelConfig;
use crate::cost::{AuKernels, IterationPricer};
use crate::ops::Phase;
use crate::request::Request;
use crate::slo::{SloReport, SloSpec, SloTally};
use crate::traces::Scenario;

/// Resources granted to one executor (core region) for an interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionResources {
    /// Cores available (0 stalls the executor).
    pub cores: usize,
    /// Operating frequency, GHz.
    pub freq_ghz: f64,
    /// Granted DRAM bandwidth.
    pub bandwidth: GbPerSec,
    /// Memory-phase contention multiplier (≥ 1).
    pub memory_penalty: f64,
    /// Compute-phase contention multiplier (≥ 1, SMT port pressure).
    pub compute_penalty: f64,
}

impl RegionResources {
    /// Clean resources with no contention.
    #[must_use]
    pub fn new(cores: usize, freq_ghz: f64, bandwidth: GbPerSec) -> Self {
        RegionResources {
            cores,
            freq_ghz,
            bandwidth,
            memory_penalty: 1.0,
            compute_penalty: 1.0,
        }
    }

    fn exec_context(&self) -> Option<ExecContext> {
        if self.cores == 0 || self.freq_ghz <= 0.0 || self.bandwidth.value() <= 0.0 {
            return None;
        }
        Some(
            ExecContext::new(self.cores, self.freq_ghz, self.bandwidth)
                .with_penalties(self.memory_penalty.max(1.0), self.compute_penalty.max(1.0)),
        )
    }
}

/// How the two phases share the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineMode {
    /// One executor, prefill-priority FCFS (exclusive xft deployment).
    TimeMultiplexed,
    /// Separate prefill/decode executors on disjoint core regions (AUM).
    Partitioned,
}

/// Per-interval resource grant for the engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineResources {
    /// Resources for prefill work (the High-AU region).
    pub prefill: RegionResources,
    /// Resources for decode work (the Low-AU region).
    pub decode: RegionResources,
    /// Sharing mode.
    pub mode: EngineMode,
}

/// Serving precision (the paper serves BF16).
pub const PRECISION: Precision = Precision::Bf16;

/// Decode batch cap (paper: 16).
const MAX_BATCH: usize = 16;

/// Static engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Model being served.
    pub model: ModelConfig,
    /// Scenario (SLOs and trace statistics).
    pub scenario: Scenario,
    /// KV-cache capacity budget; `None` means capacity never binds (the
    /// 1 TB GenA case). See [`crate::kv::KvBudget`].
    #[serde(default)]
    pub kv_budget: Option<crate::kv::KvBudget>,
    /// Chunked prefill (Sarathi/DistServe-style): process prompts in chunks
    /// of at most this many tokens so decode iterations interleave between
    /// chunks in the time-multiplexed mode, trading TTFT for TPOT
    /// stability. `None` prefills each prompt as one chunk.
    #[serde(default)]
    pub prefill_chunk: Option<usize>,
}

impl EngineConfig {
    /// The paper's default serving setup for a scenario: llama2-7b with
    /// no KV budget and no chunking.
    #[must_use]
    pub fn paper_default(scenario: Scenario) -> Self {
        EngineConfig {
            model: ModelConfig::llama2_7b(),
            scenario,
            kv_budget: None,
            prefill_chunk: None,
        }
    }
}

/// Statistics of one `run_interval` call.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IntervalStats {
    /// Fraction of the interval the prefill executor was busy.
    pub prefill_busy: f64,
    /// Fraction of the interval the decode executor was busy.
    pub decode_busy: f64,
    /// Prompt tokens prefilled during the interval.
    pub prefill_tokens: u64,
    /// Output tokens generated during the interval.
    pub decode_tokens: u64,
    /// Requests fully completed during the interval.
    pub completed: u64,
    /// Bandwidth demand of prefill while busy.
    pub prefill_bw_demand: GbPerSec,
    /// Bandwidth demand of decode while busy.
    pub decode_bw_demand: GbPerSec,
}

/// Sensing windows: the controller sees p50/p90 over the last 30 TTFTs and
/// the last 300 decode tokens' execution times.
pub const TTFT_WINDOW: usize = 30;
/// See [`TTFT_WINDOW`].
pub const TOKEN_WINDOW: usize = 300;

/// The serving engine.
#[derive(Debug, Clone)]
pub struct LlmEngine {
    cfg: EngineConfig,
    pricer: IterationPricer,
    trace: VecDeque<Request>,
    queue: PrefillQueue,
    pool: DecodePool,
    /// Prefilled requests waiting for a decode slot: `(ready_at, request)`.
    ready: VecDeque<(SimTime, Request)>,
    /// In-flight chunked prefill: the request and tokens already processed.
    current_prefill: Option<(Request, usize)>,
    prefill_clock: SimTime,
    decode_clock: SimTime,
    /// End of the latest decode iteration, and the longest gap between two
    /// consecutive decode tokens of one request. Every active request
    /// emits a token each iteration, so such a gap is the time between
    /// two consecutive iterations that a request with tokens joined.
    last_decode_end: SimTime,
    max_token_gap: SimDuration,
    /// SLO accounting over the whole run, updated online.
    slo_tally: SloTally,
    recent_ttfts: RecentWindow,
    recent_tokens: RecentWindow,
    /// Per finished request: average *wall-clock* time per generated token,
    /// seconds — the TPOT a user experiences, including stalls behind
    /// prefill bursts (unlike the per-token execution times the SLO report
    /// histograms, which are pure iteration time).
    wall_tpot_hist: LogHistogram,
    completed: u64,
    /// Trace handle; request lifecycle and iteration events stream here
    /// when a sink is attached (free when disabled).
    tracer: Tracer,
    /// Span track label for this run (one experiment cell), shared by
    /// every span record the engine emits.
    span_track: Arc<str>,
    /// Monotonic step counters — the deterministic span-id payloads for
    /// prefill/decode iteration spans.
    prefill_steps: u64,
    decode_steps: u64,
    /// Request ids with an open `RequestLifecycle` span (maintained only
    /// while a sink is attached). `BTreeSet` so end-of-run closes iterate
    /// in id order — deterministic across runs and worker counts.
    open_request_spans: std::collections::BTreeSet<u64>,
    /// TTFT (seconds) per request id, for `RequestFinished` emissions at
    /// decode time (maintained only while a sink is attached).
    ttft_by_id: std::collections::HashMap<u64, f64>,
}

impl LlmEngine {
    /// Creates an engine for `cfg` on `platform`, fed by `trace` (must be
    /// sorted by arrival time).
    ///
    /// # Panics
    ///
    /// Panics if the trace is unsorted.
    #[must_use]
    pub fn new(cfg: EngineConfig, platform: &PlatformSpec, trace: Vec<Request>) -> Self {
        assert!(
            trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "trace must be sorted by arrival"
        );
        let slo_tally = SloTally::new(cfg.scenario.slo());
        let pricer = IterationPricer::new(
            cfg.model.clone(),
            PRECISION,
            AuKernels::for_platform(platform),
        );
        LlmEngine {
            cfg,
            pricer,
            trace: trace.into(),
            queue: PrefillQueue::new(),
            pool: DecodePool::new(MAX_BATCH),
            ready: VecDeque::new(),
            current_prefill: None,
            prefill_clock: SimTime::ZERO,
            decode_clock: SimTime::ZERO,
            last_decode_end: SimTime::ZERO,
            max_token_gap: SimDuration::ZERO,
            slo_tally,
            recent_ttfts: RecentWindow::new(TTFT_WINDOW),
            recent_tokens: RecentWindow::new(TOKEN_WINDOW),
            wall_tpot_hist: LogHistogram::new(),
            completed: 0,
            tracer: Tracer::disabled(),
            span_track: "run".into(),
            prefill_steps: 0,
            decode_steps: 0,
            open_request_spans: std::collections::BTreeSet::new(),
            ttft_by_id: std::collections::HashMap::new(),
        }
    }

    /// Attaches a trace handle; subsequent admissions, completions and
    /// iterations emit [`aum_sim::telemetry::Event`]s through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Names the span track for this run (one experiment cell). Span ids
    /// are unique per track, so concurrent cells sharing one sink must use
    /// distinct tracks.
    pub fn set_span_track(&mut self, track: impl Into<Arc<str>>) {
        self.span_track = track.into();
    }

    /// Engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// SLO spec of the configured scenario.
    #[must_use]
    pub fn slo(&self) -> SloSpec {
        self.cfg.scenario.slo()
    }

    fn admit_arrivals(&mut self, upto: SimTime) {
        while let Some(front) = self.trace.front() {
            if front.arrival <= upto {
                let r = *front;
                self.trace.pop_front();
                if self.tracer.is_enabled() {
                    let id = SpanId::derive(SpanKind::RequestLifecycle, r.id.0);
                    let track = self.span_track.clone();
                    self.tracer.emit(r.arrival, || Event::SpanOpen {
                        id: id.0,
                        parent: None,
                        kind: SpanKind::RequestLifecycle,
                        track,
                        label: format!("req {}", r.id.0),
                    });
                    self.open_request_spans.insert(r.id.0);
                }
                self.queue.push(r);
            } else {
                break;
            }
        }
    }

    /// Peak-reservation KV bytes of the currently admitted requests.
    fn kv_reserved_bytes(&self) -> f64 {
        let per_token = self.cfg.model.kv_bytes_per_token(PRECISION);
        self.pool
            .active()
            .iter()
            .map(|r| (r.context + r.remaining) as f64 * per_token)
            .sum()
    }

    fn admit_ready(&mut self, upto: SimTime) {
        while self.pool.free_slots() > 0 {
            match self.ready.front() {
                Some(&(at, req)) if at <= upto => {
                    if let Some(budget) = self.cfg.kv_budget {
                        let peak = crate::kv::KvBudget::request_peak_bytes(
                            &self.cfg.model,
                            PRECISION,
                            req.input_len,
                            req.output_len,
                        );
                        if !budget.admits(self.kv_reserved_bytes(), peak) {
                            break; // capacity-bound: wait for retirements
                        }
                    }
                    self.ready.pop_front();
                    self.tracer.emit(upto, || Event::RequestAdmitted {
                        id: req.id.0,
                        input_len: req.input_len,
                        output_len: req.output_len,
                    });
                    self.pool
                        .admit(ActiveRequest::start(&req).admitted_at(upto.as_secs_f64()));
                }
                _ => break,
            }
        }
    }

    fn next_arrival(&self) -> Option<SimTime> {
        self.trace.front().map(|r| r.arrival)
    }

    /// Runs one prefill *step*: the next chunk of the in-flight prompt, or
    /// of the oldest waiting one (FCFS, one prompt at a time, §VI-C1).
    /// Unchunked, the chunk is the whole prompt.
    fn run_prefill_step(&mut self, res: &ExecContext, stats: &mut IntervalStats) {
        let _prof = aum_sim::prof::scope("engine.prefill_step");
        let (req, done) = match self.current_prefill.take() {
            Some(inflight) => inflight,
            None => (self.queue.pop().expect("prefill work is queued"), 0),
        };
        let chunk = self.cfg.prefill_chunk.map_or(req.input_len, |c| c.max(16));
        let step = chunk.min(req.input_len - done);
        // The chunk attends over the already-processed prefix.
        let cost = self
            .pricer
            .price(Phase::Prefill, step, (done + step).max(1), res);
        let start = self.prefill_clock;
        self.prefill_clock += cost.time;
        stats.prefill_tokens += step as u64;
        stats.prefill_bw_demand = GbPerSec(stats.prefill_bw_demand.value().max(cost.bw_demand_gbs));
        self.tracer
            .emit(self.prefill_clock, || Event::IterationCompleted {
                phase: PhaseKind::Prefill,
                batch: 1,
                tokens: step,
                duration_secs: cost.time.as_secs_f64(),
            });
        self.emit_step_span(SpanKind::Prefill, Some(req.id.0), start);
        let done = done + step;
        if done >= req.input_len {
            self.finish_prefill(req, stats);
        } else {
            self.current_prefill = Some((req, done));
        }
    }

    /// Emits the open/close pair for one prefill or decode step span: the
    /// id payload is the step counter (deterministic), the parent the
    /// lifecycle span of a representative request in the batch.
    fn emit_step_span(&mut self, kind: SpanKind, parent_req: Option<u64>, start: SimTime) {
        let (counter, end) = match kind {
            SpanKind::Prefill => (&mut self.prefill_steps, self.prefill_clock),
            _ => (&mut self.decode_steps, self.decode_clock),
        };
        let step = *counter;
        *counter += 1;
        if !self.tracer.is_enabled() {
            return;
        }
        let id = SpanId::derive(kind, step);
        let parent = parent_req.map(|r| SpanId::derive(SpanKind::RequestLifecycle, r).0);
        let track = self.span_track.clone();
        self.tracer.emit(start, || Event::SpanOpen {
            id: id.0,
            parent,
            kind,
            track,
            label: format!("{} {step}", kind.label()),
        });
        let track = self.span_track.clone();
        self.tracer.emit(end, || Event::SpanClose {
            id: id.0,
            kind,
            track,
        });
    }

    fn finish_prefill(&mut self, r: Request, stats: &mut IntervalStats) {
        let ttft = self.prefill_clock.saturating_since(r.arrival);
        self.slo_tally.record_ttft(ttft);
        self.recent_ttfts.push(ttft, 1);
        if self.tracer.is_enabled() {
            self.ttft_by_id.insert(r.id.0, ttft.as_secs_f64());
            // Per-request TTFT breach, emitted where the deadline is
            // decided (prefill completion) for every request, terminal
            // or not — the flight recorder and breach blame key off it.
            self.emit_request_breaches(self.prefill_clock, ttft.as_secs_f64(), 0, 0.0);
        }
        if r.output_len > 1 {
            self.ready.push_back((self.prefill_clock, r));
        } else {
            self.completed += 1;
            stats.completed += 1;
            let ttft_secs = ttft.as_secs_f64();
            self.tracer
                .emit(self.prefill_clock, || Event::RequestFinished {
                    id: r.id.0,
                    generated: 0,
                    mean_tpot_secs: 0.0,
                    ttft_secs,
                });
            self.close_request_span(r.id.0, self.prefill_clock);
        }
    }

    /// Emits one [`Event::SloBreach`] per deadline the finished request
    /// missed (see [`SloSpec::request_breaches`]). Caller gates on
    /// [`Tracer::is_enabled`], so untraced runs pay nothing.
    fn emit_request_breaches(
        &mut self,
        at: SimTime,
        ttft_secs: f64,
        generated: usize,
        mean_tpot_secs: f64,
    ) {
        let slo = self.cfg.scenario.slo();
        for (metric, observed, budget) in slo
            .request_breaches(ttft_secs, generated, mean_tpot_secs)
            .into_iter()
            .flatten()
        {
            self.tracer.emit(at, || Event::SloBreach {
                metric,
                observed_secs: observed,
                budget_secs: budget,
            });
        }
    }

    /// Closes the lifecycle span of `id` at `at`, if it is open.
    fn close_request_span(&mut self, id: u64, at: SimTime) {
        if self.open_request_spans.remove(&id) {
            self.ttft_by_id.remove(&id);
            let track = self.span_track.clone();
            self.tracer.emit(at, || Event::SpanClose {
                id: SpanId::derive(SpanKind::RequestLifecycle, id).0,
                kind: SpanKind::RequestLifecycle,
                track,
            });
        }
    }

    /// Closes every still-open request lifecycle span (in request-id
    /// order, so the emitted stream is deterministic). The experiment
    /// harness calls this once at end of run so traces stay balanced even
    /// when the run window cuts requests mid-flight. Spans close at `at`
    /// or the engine's phase clocks, whichever is latest: iterations in
    /// flight at the final boundary overshoot `at`, and their step spans
    /// must stay contained in their parent lifecycle.
    pub fn close_open_spans(&mut self, at: SimTime) {
        let at = at.max(self.prefill_clock).max(self.decode_clock);
        let open: Vec<u64> = self.open_request_spans.iter().copied().collect();
        for id in open {
            self.close_request_span(id, at);
        }
    }

    /// Whether prefill has pending or in-flight work.
    fn has_prefill_work(&self) -> bool {
        !self.queue.is_empty() || self.current_prefill.is_some()
    }

    fn run_decode_iteration(&mut self, res: &ExecContext, stats: &mut IntervalStats) {
        let _prof = aum_sim::prof::scope("engine.decode_iter");
        let batch = self.pool.batch();
        debug_assert!(batch > 0);
        let ctx = self.pool.mean_context();
        let cost = self.pricer.price(Phase::Decode, batch, ctx, res);
        let start = self.decode_clock;
        self.decode_clock += cost.time;
        if self.pool.active().iter().any(|r| r.generated > 0) {
            let gap = self.decode_clock.saturating_since(self.last_decode_end);
            self.max_token_gap = self.max_token_gap.max(gap);
        }
        self.last_decode_end = self.decode_clock;
        stats.decode_tokens += batch as u64;
        stats.decode_bw_demand = GbPerSec(stats.decode_bw_demand.value().max(cost.bw_demand_gbs));
        self.tracer
            .emit(self.decode_clock, || Event::IterationCompleted {
                phase: PhaseKind::Decode,
                batch,
                tokens: batch,
                duration_secs: cost.time.as_secs_f64(),
            });
        self.emit_step_span(SpanKind::DecodeIteration, None, start);
        self.slo_tally.record_tokens(cost.time, batch);
        self.recent_tokens.push(cost.time, batch);
        let finished = self.pool.step(cost.time);
        for f in &finished {
            self.slo_tally.retire(f);
            let mut mean_tpot = 0.0;
            if f.generated > 0 {
                let wall = self.decode_clock.as_secs_f64() - f.admitted_secs;
                mean_tpot = (wall / f.generated as f64).max(0.0);
                self.wall_tpot_hist.record(mean_tpot);
            }
            let ttft_secs = self.ttft_by_id.get(&f.id.0).copied().unwrap_or(0.0);
            self.tracer
                .emit(self.decode_clock, || Event::RequestFinished {
                    id: f.id.0,
                    generated: f.generated,
                    mean_tpot_secs: mean_tpot,
                    ttft_secs,
                });
            if self.tracer.is_enabled() {
                // TTFT was judged at prefill completion; only the TPOT
                // deadline is decided here.
                self.emit_request_breaches(self.decode_clock, 0.0, f.generated, mean_tpot);
            }
            self.close_request_span(f.id.0, self.decode_clock);
        }
        let n = finished.len() as u64;
        self.completed += n;
        stats.completed += n;
    }

    /// Advances the engine to `until` under the given resources, returning
    /// interval statistics. Iterations in flight at the boundary complete
    /// with the current resources (clocks may overshoot slightly; the next
    /// interval starts from the overshoot).
    pub fn run_interval(&mut self, until: SimTime, res: &EngineResources) -> IntervalStats {
        let _prof = aum_sim::prof::scope("engine.interval");
        let start_p = self.prefill_clock;
        let start_d = self.decode_clock;
        let interval_start = start_p.min(start_d);
        let mut stats = IntervalStats::default();
        let mut prefill_busy = SimDuration::ZERO;
        let mut decode_busy = SimDuration::ZERO;
        let prefill_ctx = res.prefill.exec_context();
        let decode_ctx = res.decode.exec_context();

        match res.mode {
            EngineMode::TimeMultiplexed => {
                // One executor: keep both clocks identical. Unchunked
                // prefill has strict priority (xft FCFS); chunked prefill
                // alternates with decode so generation never stalls behind
                // a long prompt.
                let chunked = self.cfg.prefill_chunk.is_some();
                let mut decode_turn = false;
                let mut clock = self.prefill_clock.max(self.decode_clock);
                while clock < until {
                    self.admit_arrivals(clock);
                    self.admit_ready(clock);
                    let prefill_now = self.has_prefill_work()
                        && prefill_ctx.is_some()
                        && !(chunked
                            && decode_turn
                            && !self.pool.is_empty()
                            && decode_ctx.is_some());
                    if prefill_now {
                        let ctx = prefill_ctx.expect("prefill_now implies context");
                        self.prefill_clock = clock;
                        let before = self.prefill_clock;
                        self.run_prefill_step(&ctx, &mut stats);
                        prefill_busy += self.prefill_clock - before;
                        clock = self.prefill_clock;
                        decode_turn = true;
                    } else if let (false, Some(ctx)) = (self.pool.is_empty(), decode_ctx) {
                        self.decode_clock = clock;
                        let before = self.decode_clock;
                        self.run_decode_iteration(&ctx, &mut stats);
                        decode_busy += self.decode_clock - before;
                        clock = self.decode_clock;
                        decode_turn = false;
                    } else {
                        // Idle: jump to the next event.
                        let next = self
                            .next_arrival()
                            .into_iter()
                            .chain(self.ready.front().map(|&(t, _)| t))
                            .min()
                            .unwrap_or(until)
                            .max(clock + SimDuration::from_micros(1));
                        clock = next.min(until);
                    }
                }
                self.prefill_clock = clock;
                self.decode_clock = clock;
            }
            EngineMode::Partitioned => loop {
                let p = self.prefill_clock;
                let d = self.decode_clock;
                if p >= until && d >= until {
                    break;
                }
                if p <= d && p < until {
                    self.admit_arrivals(p);
                    if let (true, Some(ctx)) = (self.has_prefill_work(), prefill_ctx) {
                        let before = self.prefill_clock;
                        self.run_prefill_step(&ctx, &mut stats);
                        prefill_busy += self.prefill_clock - before;
                    } else {
                        let next = self
                            .next_arrival()
                            .unwrap_or(until)
                            .max(p + SimDuration::from_micros(1));
                        self.prefill_clock = next.min(until);
                    }
                } else if d < until {
                    self.admit_ready(d);
                    if let (false, Some(ctx)) = (self.pool.is_empty(), decode_ctx) {
                        let before = self.decode_clock;
                        self.run_decode_iteration(&ctx, &mut stats);
                        decode_busy += self.decode_clock - before;
                    } else {
                        let next = self
                            .ready
                            .front()
                            .map(|&(t, _)| t)
                            .unwrap_or(until)
                            .max(d + SimDuration::from_micros(1));
                        self.decode_clock = next.min(until);
                    }
                } else {
                    break;
                }
            },
        }

        let span = until
            .saturating_since(interval_start)
            .as_secs_f64()
            .max(1e-9);
        stats.prefill_busy = (prefill_busy.as_secs_f64() / span).min(1.0);
        stats.decode_busy = (decode_busy.as_secs_f64() / span).min(1.0);
        stats
    }

    /// SLO report over the run so far, counting in-flight requests'
    /// tokens.
    #[must_use]
    pub fn slo_report(&self) -> SloReport {
        self.slo_tally.report(self.pool.active())
    }

    /// The controller's recent-latency sensors, seconds: `(p50, p90)` of
    /// the last [`TTFT_WINDOW`] TTFTs and of the last [`TOKEN_WINDOW`]
    /// decode tokens' execution times; `(0, 0)` for an empty window.
    #[must_use]
    pub fn recent_latency_quantiles(&self) -> [(f64, f64); 2] {
        [&self.recent_ttfts, &self.recent_tokens].map(|w| {
            let [p50, p90] = w.quantiles([0.5, 0.9]);
            (p50, p90)
        })
    }

    /// Longest wall-clock gap between two consecutive decode tokens of one
    /// request, seconds — the stall a streaming user notices.
    #[must_use]
    pub fn max_token_gap(&self) -> f64 {
        self.max_token_gap.as_secs_f64()
    }

    /// Quantile of per-request *wall-clock* TPOT (stall-inclusive), over
    /// finished requests; 0 when none finished. Read from the mergeable
    /// log-linear histogram (≤ 1/128 relative error), not the raw samples.
    #[must_use]
    pub fn wall_tpot_quantile(&self, q: f64) -> f64 {
        self.wall_tpot_hist.quantile(q)
    }

    /// The wall-clock TPOT distribution as a mergeable histogram.
    #[must_use]
    pub fn wall_tpot_hist(&self) -> &LogHistogram {
        &self.wall_tpot_hist
    }

    /// Requests fully completed.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests waiting for prefill.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Waiting time of the oldest queued request (the paper's `t_wait`).
    #[must_use]
    pub fn head_wait(&self) -> SimDuration {
        self.queue.head_wait(self.prefill_clock)
    }

    /// Current decode batch size.
    #[must_use]
    pub fn decode_batch(&self) -> usize {
        self.pool.batch()
    }

    /// Worst LAG across active decode requests in seconds (`+∞` if idle).
    #[must_use]
    pub fn worst_lag_secs(&self) -> f64 {
        self.pool.worst_lag_secs(self.slo().tpot)
    }

    /// True once the trace is exhausted and all work has drained.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.trace.is_empty()
            && self.queue.is_empty()
            && self.current_prefill.is_none()
            && self.pool.is_empty()
            && self.ready.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::TraceGenerator;
    use aum_sim::rng::DetRng;

    fn gen_a() -> PlatformSpec {
        PlatformSpec::gen_a()
    }

    fn exclusive_resources(spec: &PlatformSpec) -> EngineResources {
        EngineResources {
            prefill: RegionResources::new(spec.total_cores(), 2.5, spec.mem_bw),
            decode: RegionResources::new(spec.total_cores(), 3.1, spec.mem_bw),
            mode: EngineMode::TimeMultiplexed,
        }
    }

    fn run_scenario(scenario: Scenario, secs: u64) -> (LlmEngine, IntervalStats) {
        let spec = gen_a();
        let trace = TraceGenerator::new(scenario, scenario.default_rate())
            .generate(&DetRng::from_seed(42), SimDuration::from_secs(secs));
        let mut engine = LlmEngine::new(EngineConfig::paper_default(scenario), &spec, trace);
        let res = exclusive_resources(&spec);
        let mut total = IntervalStats::default();
        for step in 1..=secs {
            let s = engine.run_interval(SimTime::from_secs(step), &res);
            total.prefill_tokens += s.prefill_tokens;
            total.decode_tokens += s.decode_tokens;
            total.completed += s.completed;
        }
        (engine, total)
    }

    #[test]
    fn chatbot_throughput_matches_paper_scale() {
        // §III-B: GenA serves ≈188 tokens/s exclusively. At the default
        // 0.4 req/s × 200 tokens ≈ 80 tokens/s offered load (and a ramp-up
        // window), the engine should track the offered rate with headroom.
        let (engine, total) = run_scenario(Scenario::Chatbot, 120);
        let tput = total.decode_tokens as f64 / 120.0;
        assert!(
            (50.0..=120.0).contains(&tput),
            "decode throughput {tput} tokens/s"
        );
        assert!(engine.completed() > 25);
    }

    #[test]
    fn exclusive_serving_meets_most_tpot_slos() {
        let (engine, _) = run_scenario(Scenario::Chatbot, 120);
        let report = engine.slo_report();
        assert!(
            report.tpot_guarantee > 0.7,
            "exclusive TPOT guarantee should be high, got {}",
            report.tpot_guarantee
        );
    }

    #[test]
    fn code_completion_ttft_is_hard_even_exclusively() {
        // §VII-C: "for cc with strict TTFT SLOs, even using AU exclusively
        // for prefill cannot meet the SLO".
        let (engine, _) = run_scenario(Scenario::CodeCompletion, 120);
        let report = engine.slo_report();
        assert!(
            report.ttft_guarantee < 0.9,
            "cc TTFT should violate often, got {}",
            report.ttft_guarantee
        );
    }

    #[test]
    fn summarization_ttft_is_loose() {
        let (engine, _) = run_scenario(Scenario::Summarization, 120);
        let report = engine.slo_report();
        assert!(
            report.ttft_guarantee > 0.85,
            "sm TTFT (1.5s) should mostly hold, got {}",
            report.ttft_guarantee
        );
    }

    #[test]
    fn partitioned_mode_runs_phases_concurrently() {
        let spec = gen_a();
        let trace = TraceGenerator::new(Scenario::Chatbot, 0.7)
            .generate(&DetRng::from_seed(7), SimDuration::from_secs(60));
        let mut engine =
            LlmEngine::new(EngineConfig::paper_default(Scenario::Chatbot), &spec, trace);
        let res = EngineResources {
            prefill: RegionResources::new(48, 2.5, GbPerSec(60.0)),
            decode: RegionResources::new(32, 3.1, GbPerSec(170.0)),
            mode: EngineMode::Partitioned,
        };
        let mut tokens = 0;
        for step in 1..=60 {
            tokens += engine
                .run_interval(SimTime::from_secs(step), &res)
                .decode_tokens;
        }
        assert!(tokens > 1000, "partitioned decode generated {tokens}");
        assert!(engine.slo_report().prefills > 20);
    }

    #[test]
    fn starved_decode_region_stalls_decode_only() {
        let spec = gen_a();
        let trace = TraceGenerator::new(Scenario::Chatbot, 0.7)
            .generate(&DetRng::from_seed(8), SimDuration::from_secs(30));
        let mut engine =
            LlmEngine::new(EngineConfig::paper_default(Scenario::Chatbot), &spec, trace);
        let res = EngineResources {
            prefill: RegionResources::new(96, 2.5, spec.mem_bw),
            decode: RegionResources::new(0, 3.1, spec.mem_bw),
            mode: EngineMode::Partitioned,
        };
        let mut stats = IntervalStats::default();
        for step in 1..=30 {
            let s = engine.run_interval(SimTime::from_secs(step), &res);
            stats.prefill_tokens += s.prefill_tokens;
            stats.decode_tokens += s.decode_tokens;
        }
        assert!(stats.prefill_tokens > 0);
        assert_eq!(stats.decode_tokens, 0);
    }

    #[test]
    fn throttled_bandwidth_raises_tpot_violations() {
        let spec = gen_a();
        let make = |bw: f64| {
            let trace = TraceGenerator::new(Scenario::Chatbot, 0.7)
                .generate(&DetRng::from_seed(9), SimDuration::from_secs(90));
            let mut engine =
                LlmEngine::new(EngineConfig::paper_default(Scenario::Chatbot), &spec, trace);
            let res = EngineResources {
                prefill: RegionResources::new(64, 2.5, GbPerSec(bw)),
                decode: RegionResources::new(32, 3.1, GbPerSec(bw)),
                mode: EngineMode::Partitioned,
            };
            for step in 1..=90 {
                let _ = engine.run_interval(SimTime::from_secs(step), &res);
            }
            engine.slo_report().tpot_guarantee
        };
        let full = make(233.8);
        let starved = make(90.0);
        assert!(
            starved < full - 0.2,
            "bandwidth starvation must hurt TPOT: full={full}, starved={starved}"
        );
    }

    #[test]
    fn interval_stats_report_busy_fractions() {
        let spec = gen_a();
        let trace = TraceGenerator::new(Scenario::Chatbot, 0.7)
            .generate(&DetRng::from_seed(10), SimDuration::from_secs(20));
        let mut engine =
            LlmEngine::new(EngineConfig::paper_default(Scenario::Chatbot), &spec, trace);
        let res = exclusive_resources(&spec);
        let mut any_busy = false;
        for step in 1..=20 {
            let s = engine.run_interval(SimTime::from_secs(step), &res);
            assert!(s.prefill_busy <= 1.0 && s.decode_busy <= 1.0);
            if s.decode_busy > 0.0 {
                any_busy = true;
            }
        }
        assert!(any_busy);
    }

    #[test]
    fn drained_after_trace_completes() {
        let spec = gen_a();
        let trace = TraceGenerator::new(Scenario::CodeCompletion, 0.5)
            .generate(&DetRng::from_seed(11), SimDuration::from_secs(10));
        let n = trace.len() as u64;
        let mut engine = LlmEngine::new(
            EngineConfig::paper_default(Scenario::CodeCompletion),
            &spec,
            trace,
        );
        let res = exclusive_resources(&spec);
        let mut t = 0;
        while !engine.drained() && t < 200 {
            t += 1;
            let _ = engine.run_interval(SimTime::from_secs(t), &res);
        }
        assert!(engine.drained(), "engine should drain");
        assert_eq!(engine.completed(), n);
    }

    #[test]
    fn worst_lag_reflects_decode_health() {
        let spec = gen_a();
        let trace = TraceGenerator::new(Scenario::Chatbot, 0.7)
            .generate(&DetRng::from_seed(12), SimDuration::from_secs(60));
        let mut engine =
            LlmEngine::new(EngineConfig::paper_default(Scenario::Chatbot), &spec, trace);
        // Healthy run: LAG should not be catastrophically negative.
        let res = exclusive_resources(&spec);
        for step in 1..=60 {
            let _ = engine.run_interval(SimTime::from_secs(step), &res);
        }
        let lag = engine.worst_lag_secs();
        assert!(
            lag > -10.0,
            "healthy serving should not fall far behind, lag={lag}"
        );
    }

    #[test]
    fn chunked_prefill_bounds_inter_token_stalls() {
        // Chunking cannot reduce total prefill work (per-request average
        // TPOT is unchanged), but it bounds the *longest* inter-token gap
        // to roughly one chunk instead of one whole prompt — the jitter a
        // user of a streaming chatbot actually notices.
        let spec = gen_a();
        let run = |chunk: Option<usize>| {
            let trace = TraceGenerator::new(Scenario::Summarization, 0.6)
                .generate(&DetRng::from_seed(23), SimDuration::from_secs(120));
            let mut cfg = EngineConfig::paper_default(Scenario::Summarization);
            cfg.prefill_chunk = chunk;
            let mut engine = LlmEngine::new(cfg, &spec, trace);
            let res = exclusive_resources(&spec);
            for step in 1..=120 {
                let _ = engine.run_interval(SimTime::from_secs(step), &res);
            }
            // Largest inter-token wall gap across requests.
            (engine.max_token_gap(), engine.slo_report().prefills)
        };
        let (whole_gap, whole_prefills) = run(None);
        let (chunked_gap, chunked_prefills) = run(Some(512));
        assert!(
            chunked_gap < whole_gap * 0.8,
            "chunked max stall {chunked_gap} must beat whole-prompt {whole_gap}"
        );
        assert!(
            chunked_prefills >= whole_prefills * 9 / 10,
            "work still completes"
        );
    }

    #[test]
    fn chunked_prefill_preserves_request_accounting() {
        let spec = gen_a();
        let trace = TraceGenerator::new(Scenario::Chatbot, 0.5)
            .generate(&DetRng::from_seed(24), SimDuration::from_secs(20));
        let n = trace.len() as u64;
        let mut cfg = EngineConfig::paper_default(Scenario::Chatbot);
        cfg.prefill_chunk = Some(256);
        let mut engine = LlmEngine::new(cfg, &spec, trace);
        let res = exclusive_resources(&spec);
        let mut t = 0;
        while !engine.drained() && t < 400 {
            t += 1;
            let _ = engine.run_interval(SimTime::from_secs(t), &res);
        }
        assert!(engine.drained());
        assert_eq!(engine.completed(), n);
        assert_eq!(engine.slo_report().prefills as u64, n);
    }

    #[test]
    fn a_chunk_as_long_as_every_prompt_is_whole_prompt_prefill() {
        // One chunk that covers the whole prompt prices, times and traces
        // exactly as unchunked prefill does.
        let spec = gen_a();
        let trace = TraceGenerator::new(Scenario::Summarization, 0.6)
            .generate(&DetRng::from_seed(23), SimDuration::from_secs(60));
        let longest = trace.iter().map(|r| r.input_len).max().unwrap();
        let res = EngineResources {
            prefill: RegionResources::new(48, 2.5, GbPerSec(60.0)),
            decode: RegionResources::new(32, 3.1, GbPerSec(170.0)),
            mode: EngineMode::Partitioned,
        };
        let run = |chunk: Option<usize>| {
            let mut cfg = EngineConfig::paper_default(Scenario::Summarization);
            cfg.prefill_chunk = chunk;
            let mut engine = LlmEngine::new(cfg, &spec, trace.clone());
            let intervals: Vec<IntervalStats> = (1..=60)
                .map(|step| engine.run_interval(SimTime::from_secs(step), &res))
                .collect();
            (
                intervals,
                engine.slo_report(),
                engine.max_token_gap(),
                engine.completed(),
            )
        };
        let whole = run(None);
        assert!(whole.3 > 0, "the run completes requests");
        assert_eq!(run(Some(longest)), whole);
    }

    /// Folds `bytes` into the 64-bit FNV-1a hash `h`.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Folds a histogram's full state into `h`: every occupied bucket,
    /// under/overflow, count and the bits of its sum.
    fn fnv1a_hist(mut h: u64, hist: &LogHistogram) -> u64 {
        for (idx, count) in hist.nonzero_buckets() {
            h = fnv1a(h, &(idx as u64).to_le_bytes());
            h = fnv1a(h, &count.to_le_bytes());
        }
        for word in [hist.underflow(), hist.overflow(), hist.count()] {
            h = fnv1a(h, &word.to_le_bytes());
        }
        fnv1a(h, &hist.sum().to_bits().to_le_bytes())
    }

    #[test]
    fn sensing_readouts_and_slo_histograms_keep_their_bits() {
        // Every scenario at 1.5× its default rate under both engine modes,
        // 300 intervals of 500 ms each. Decode batches above 1 put the
        // 300-token window's edge inside an iteration's run of equal
        // token times. The digest covers each interval's sensing readout
        // and the final report's three histograms, sums included.
        let spec = gen_a();
        let partitioned = EngineResources {
            prefill: RegionResources::new(48, 2.5, GbPerSec(60.0)),
            decode: RegionResources::new(32, 3.1, GbPerSec(170.0)),
            mode: EngineMode::Partitioned,
        };
        let mut h = 0xcbf2_9ce4_8422_2325;
        for (seed, scenario) in (31..).zip(Scenario::ALL) {
            for res in [partitioned, exclusive_resources(&spec)] {
                let trace = TraceGenerator::new(scenario, scenario.default_rate() * 1.5)
                    .generate(&DetRng::from_seed(seed), SimDuration::from_secs(150));
                let mut engine =
                    LlmEngine::new(EngineConfig::paper_default(scenario), &spec, trace);
                let mut widest = 0;
                for step in 1..=300 {
                    let _ = engine.run_interval(SimTime::from_millis(500 * step), &res);
                    widest = widest.max(engine.decode_batch());
                    for (p50, p90) in engine.recent_latency_quantiles() {
                        h = fnv1a(h, &p50.to_bits().to_le_bytes());
                        h = fnv1a(h, &p90.to_bits().to_le_bytes());
                    }
                }
                let report = engine.slo_report();
                assert!(widest > 1, "{scenario} {:?}: batches of one", res.mode);
                assert!(report.tokens > TOKEN_WINDOW, "{scenario}: window not full");
                for hist in [&report.ttft_hist, &report.tpot_hist, &report.tpot_req_hist] {
                    h = fnv1a_hist(h, hist);
                }
            }
        }
        assert_eq!(h, 0xfc3d_9107_30ff_1c4a, "digest {h:#018x}");
    }

    #[test]
    fn kv_budget_caps_the_decode_batch() {
        let spec = gen_a();
        let model = ModelConfig::llama2_7b();
        let trace = TraceGenerator::new(Scenario::Chatbot, 2.0)
            .generate(&DetRng::from_seed(21), SimDuration::from_secs(30));
        // Budget for roughly two resident chatbot requests.
        let per_req =
            crate::kv::KvBudget::request_peak_bytes(&model, Precision::Bf16, 755 * 4, 200 * 4);
        let mut cfg = EngineConfig::paper_default(Scenario::Chatbot);
        cfg.kv_budget = Some(crate::kv::KvBudget::from_bytes(per_req * 2.0));
        let budget = cfg.kv_budget.unwrap();
        let mut engine = LlmEngine::new(cfg.clone(), &spec, trace.clone());
        let mut uncapped_cfg = cfg;
        uncapped_cfg.kv_budget = None;
        let mut uncapped = LlmEngine::new(uncapped_cfg, &spec, trace);
        let res = exclusive_resources(&spec);
        let (mut capped_peak, mut uncapped_peak) = (0, 0);
        for step in 1..=60 {
            let _ = engine.run_interval(SimTime::from_secs(step), &res);
            let _ = uncapped.run_interval(SimTime::from_secs(step), &res);
            capped_peak = capped_peak.max(engine.decode_batch());
            uncapped_peak = uncapped_peak.max(uncapped.decode_batch());
            assert!(
                engine.kv_reserved_bytes() <= budget.capacity_bytes() * (1.0 + 1e-9),
                "reserved KV {} exceeds budget {}",
                engine.kv_reserved_bytes(),
                budget.capacity_bytes()
            );
        }
        assert!(
            capped_peak < uncapped_peak,
            "tiny KV budget must cap the batch: capped peak {capped_peak}, uncapped {uncapped_peak}"
        );
        assert!(
            engine.completed() > 0,
            "capacity-bound serving still progresses"
        );
    }

    #[test]
    fn platform_kv_budget_never_binds_on_gen_a() {
        // 1 TB of DDR5 swallows any chatbot batch; behaviour must match the
        // unbudgeted engine exactly.
        let spec = gen_a();
        let trace = || {
            TraceGenerator::new(Scenario::Chatbot, 0.4)
                .generate(&DetRng::from_seed(22), SimDuration::from_secs(60))
        };
        let unbounded = {
            let mut e = LlmEngine::new(
                EngineConfig::paper_default(Scenario::Chatbot),
                &spec,
                trace(),
            );
            for step in 1..=60 {
                let _ = e.run_interval(SimTime::from_secs(step), &exclusive_resources(&spec));
            }
            e.slo_report()
        };
        let budgeted = {
            let mut cfg = EngineConfig::paper_default(Scenario::Chatbot);
            let budget = crate::kv::KvBudget::for_platform(&spec, &cfg.model, PRECISION);
            cfg.kv_budget = Some(budget.expect("llama2-7b fits GenA"));
            let mut e = LlmEngine::new(cfg, &spec, trace());
            for step in 1..=60 {
                let _ = e.run_interval(SimTime::from_secs(step), &exclusive_resources(&spec));
            }
            e.slo_report()
        };
        assert_eq!(unbounded, budgeted);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let spec = gen_a();
        let trace = vec![
            Request::new(0, SimTime::from_secs(5), 10, 10),
            Request::new(1, SimTime::from_secs(1), 10, 10),
        ];
        let _ = LlmEngine::new(EngineConfig::paper_default(Scenario::Chatbot), &spec, trace);
    }
}
