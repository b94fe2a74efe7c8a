//! Live run-health plane: a shared snapshot of the running harness plus a
//! std-only `/metrics` endpoint and a stall watchdog.
//!
//! ROADMAP item 5 asks for the existing Prometheus exposition to be
//! observable *while a study runs*, not just written to `--metrics-out`
//! afterwards. This module provides the three pieces:
//!
//! - [`LiveState`] — the shared snapshot. The experiment loop publishes a
//!   freshly rendered exposition after every completed cell
//!   ([`LiveState::publish_exposition`]), the sweep executor bumps
//!   cells-completed/total via the (near-free when uninstalled) hooks
//!   [`sweep_started`]/[`cell_finished`], and [`LiveState::render`]
//!   prepends run-health gauges: wall/phase clocks, cell progress,
//!   [`crate::exec`] speedup, and flight-recorder occupancy/trigger
//!   counters.
//! - [`MetricsServer`] — a single-threaded `TcpListener` loop serving
//!   `GET /metrics` in Prometheus text exposition format v0.0.4. No async
//!   runtime, no thread pool: one connection at a time is plenty for a
//!   scrape endpoint, and the render is a snapshot read, never a
//!   simulation touch — scrapes cannot perturb determinism.
//! - [`Watchdog`] — a wall-clock stall detector over the heartbeat
//!   counter the executor and experiment loop tick. When no progress
//!   lands for the configured timeout the process exits with code
//!   [`WATCHDOG_EXIT_CODE`] instead of hanging a CI job forever (the
//!   sim-time analogue, [`crate::telemetry::Event::WatchdogStall`], is
//!   emitted by the experiment loop itself and also fires the flight
//!   recorder).
//!
//! Everything here is wall-clock and intentionally *outside* the
//! determinism contract: the live endpoint describes the run, it never
//! participates in it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::exec;
use crate::flight::FlightStats;
use crate::prom::{counter, family, gauge, sample, Kind};

/// Exit code of a [`Watchdog`]-terminated process.
pub const WATCHDOG_EXIT_CODE: i32 = 3;

/// Fast-path guard: the executor hooks are one relaxed load when no
/// [`LiveState`] is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Monotonic progress heartbeat (sweep starts, finished cells, control
/// intervals). Ticks even without an installed [`LiveState`] so the
/// watchdog works standalone.
static HEARTBEAT: AtomicU64 = AtomicU64::new(0);

static INSTALLED: Mutex<Option<Arc<LiveState>>> = Mutex::new(None);

/// The shared run-health snapshot behind the live endpoint.
pub struct LiveState {
    started: Instant,
    phase: Mutex<(String, Instant)>,
    /// Executor counters at the start of the current phase, so the
    /// speedup gauge describes *this* study, not the whole process —
    /// `repro all` runs many studies in one invocation and a cumulative
    /// ratio would smear them together.
    phase_exec_base: Mutex<exec::ExecStats>,
    cells_done: AtomicU64,
    cells_total: AtomicU64,
    exposition: Mutex<String>,
    #[allow(clippy::type_complexity)]
    flight: Mutex<Option<Box<dyn Fn() -> FlightStats + Send>>>,
}

impl std::fmt::Debug for LiveState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveState")
            .field("cells_done", &self.cells_done.load(Ordering::Relaxed))
            .field("cells_total", &self.cells_total.load(Ordering::Relaxed))
            .finish()
    }
}

impl LiveState {
    fn new() -> Self {
        let now = Instant::now();
        LiveState {
            started: now,
            phase: Mutex::new((String::from("startup"), now)),
            phase_exec_base: Mutex::new(exec::stats()),
            cells_done: AtomicU64::new(0),
            cells_total: AtomicU64::new(0),
            exposition: Mutex::new(String::new()),
            flight: Mutex::new(None),
        }
    }

    /// Names the current phase (command, study, "profiling", …) and
    /// restarts the phase clock. Returns the previous phase name so
    /// nested phases (the profiler inside a study) can restore it.
    pub fn set_phase(&self, phase: &str) -> String {
        let mut guard = self.phase.lock().expect("live phase lock");
        let prev = std::mem::replace(&mut guard.0, phase.to_string());
        guard.1 = Instant::now();
        *self.phase_exec_base.lock().expect("live exec base lock") = exec::stats();
        prev
    }

    /// Replaces the published Prometheus exposition body (the
    /// domain-metrics part below the run-health gauges). Called by the
    /// experiment loop after each completed cell.
    pub fn publish_exposition(&self, text: String) {
        *self.exposition.lock().expect("live exposition lock") = text;
    }

    /// Wires a flight-recorder stats source into the run-health gauges.
    pub fn set_flight_source(&self, source: impl Fn() -> FlightStats + Send + 'static) {
        *self.flight.lock().expect("live flight lock") = Some(Box::new(source));
    }

    /// Renders the full exposition: run-health gauges first, then the
    /// last published domain metrics.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        gauge(&mut out, "aum_up", "1 while the harness is running.", 1u64);
        gauge(
            &mut out,
            "aum_run_wall_seconds",
            "Wall-clock seconds since the harness started.",
            self.started.elapsed().as_secs_f64(),
        );
        {
            let phase = self.phase.lock().expect("live phase lock");
            gauge(
                &mut out,
                "aum_phase_seconds",
                "Wall-clock seconds in the current phase.",
                phase.1.elapsed().as_secs_f64(),
            );
            let info = "aum_phase_info";
            family(&mut out, info, Kind::Gauge, "Current phase as a label.");
            sample(&mut out, info, &[("phase", &phase.0)], 1u64);
        }
        counter(
            &mut out,
            "aum_sweep_cells_total",
            "Grid cells scheduled across all sweeps so far.",
            self.cells_total.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "aum_sweep_cells_completed",
            "Grid cells completed across all sweeps so far.",
            self.cells_done.load(Ordering::Relaxed),
        );
        let stats = exec::stats();
        gauge(
            &mut out,
            "aum_exec_busy_seconds",
            "Summed per-cell execution time (serial-equivalent work).",
            stats.busy.as_secs_f64(),
        );
        gauge(
            &mut out,
            "aum_exec_wall_seconds",
            "Summed sweep wall-clock time.",
            stats.wall.as_secs_f64(),
        );
        gauge(
            &mut out,
            "aum_exec_claim_seconds",
            "Summed worker time claiming cells from the sweep cursor.",
            stats.claim.as_secs_f64(),
        );
        gauge(
            &mut out,
            "aum_exec_merge_seconds",
            "Summed time merging per-cell traces into the parent tracer.",
            stats.merge.as_secs_f64(),
        );
        gauge(
            &mut out,
            "aum_exec_idle_seconds",
            "Summed pool-worker wall time not spent computing or claiming.",
            stats.idle.as_secs_f64(),
        );
        // Per-phase delta, not the process-cumulative ratio: one `repro
        // all` invocation runs many studies and the cumulative ratio
        // would average them together.
        let phase_delta = stats.since(&self.phase_exec_base.lock().expect("live exec base lock"));
        gauge(
            &mut out,
            "aum_exec_speedup",
            "Observed sweep speedup (busy over wall) of the current phase.",
            phase_delta.speedup(),
        );
        render_prof(&mut out);
        let flight = self.flight.lock().expect("live flight lock");
        if let Some(source) = flight.as_ref() {
            let fs = source();
            gauge(
                &mut out,
                "aum_flight_occupancy",
                "Records currently buffered in the flight-recorder ring.",
                fs.occupancy as u64,
            );
            gauge(
                &mut out,
                "aum_flight_capacity",
                "Flight-recorder ring retention limit.",
                fs.capacity as u64,
            );
            counter(
                &mut out,
                "aum_flight_evicted_total",
                "Records evicted from the flight-recorder ring.",
                fs.evicted,
            );
            counter(
                &mut out,
                "aum_flight_triggers_total",
                "Flight-recorder trigger firings (including suppressed).",
                fs.triggers,
            );
            counter(
                &mut out,
                "aum_flight_incidents_total",
                "Incident files written by the flight recorder.",
                fs.incidents as u64,
            );
        }
        drop(flight);
        let exposition = self.exposition.lock().expect("live exposition lock");
        if !exposition.is_empty() {
            out.push('\n');
            out.push_str(&exposition);
        }
        out
    }
}

/// Self-profiling gauges (`aum_selftime_*`, `aum_cache_*`), emitted only
/// once the [`crate::prof`] plane has recorded something — the section is
/// absent for runs that never enabled self-profiling.
fn render_prof(out: &mut String) {
    let snap = crate::prof::snapshot();
    if !snap.nodes.is_empty() {
        let seconds = "aum_selftime_seconds";
        let help = "Host seconds inside a self-profiling scope (children included).";
        family(out, seconds, Kind::Gauge, help);
        for n in &snap.nodes {
            let secs = n.total_nanos as f64 / 1e9;
            sample(out, seconds, &[("scope", &n.path)], secs);
        }
        let calls = "aum_selftime_calls";
        let help = "Times a self-profiling scope was entered.";
        family(out, calls, Kind::Gauge, help);
        for n in &snap.nodes {
            sample(out, calls, &[("scope", &n.path)], n.calls);
        }
    }
    let lookups = snap.counter("model_cache.lookup");
    let builds = snap.counter("model_cache.build");
    if lookups > 0 || builds > 0 {
        let hits = lookups.saturating_sub(builds);
        counter(
            out,
            "aum_cache_lookups_total",
            "ModelCache lookups observed by the self-profiling plane.",
            lookups,
        );
        counter(
            out,
            "aum_cache_builds_total",
            "ModelCache profiling sweeps actually executed.",
            builds,
        );
        counter(
            out,
            "aum_cache_hits_total",
            "ModelCache lookups served without building.",
            hits,
        );
        gauge(
            out,
            "aum_cache_hit_rate",
            "Fraction of ModelCache lookups served from cache.",
            if lookups == 0 {
                1.0
            } else {
                hits as f64 / lookups as f64
            },
        );
        counter(
            out,
            "aum_cache_cow_clones_total",
            "Copy-on-write AUV-model clones triggered by controller refinement.",
            snap.counter("model.cow_clone"),
        );
    }
}

/// Installs a fresh [`LiveState`] as the process-global snapshot the
/// executor hooks feed, returning it. Replaces any previous one.
pub fn install() -> Arc<LiveState> {
    let state = Arc::new(LiveState::new());
    *INSTALLED.lock().expect("live install lock") = Some(state.clone());
    ACTIVE.store(true, Ordering::Relaxed);
    state
}

/// The installed snapshot, if any.
#[must_use]
pub fn installed() -> Option<Arc<LiveState>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    INSTALLED.lock().expect("live install lock").clone()
}

/// Removes the installed snapshot (tests; also makes the hooks free
/// again).
pub fn uninstall() {
    ACTIVE.store(false, Ordering::Relaxed);
    *INSTALLED.lock().expect("live install lock") = None;
}

/// Executor hook: a sweep over `cells` cells is starting.
pub fn sweep_started(cells: usize) {
    HEARTBEAT.fetch_add(1, Ordering::Relaxed);
    if let Some(state) = installed() {
        state.cells_total.fetch_add(cells as u64, Ordering::Relaxed);
    }
}

/// Executor hook: one grid cell finished.
pub fn cell_finished() {
    HEARTBEAT.fetch_add(1, Ordering::Relaxed);
    if let Some(state) = installed() {
        state.cells_done.fetch_add(1, Ordering::Relaxed);
    }
}

/// Progress heartbeat for the [`Watchdog`]; the experiment loop ticks it
/// once per control interval so long-running single cells still count as
/// progress.
pub fn heartbeat() {
    HEARTBEAT.fetch_add(1, Ordering::Relaxed);
}

/// Current heartbeat counter value.
#[must_use]
pub fn heartbeats() -> u64 {
    HEARTBEAT.load(Ordering::Relaxed)
}

/// Wall-clock stall watchdog: terminates the process (exit code
/// [`WATCHDOG_EXIT_CODE`]) when the heartbeat counter stops moving for
/// `timeout`, so a stalled cell fails loudly instead of hanging a sweep.
#[derive(Debug)]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Arms a watchdog with the given wall-clock timeout.
    #[must_use]
    pub fn arm(timeout: Duration) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let poll = (timeout / 8).clamp(Duration::from_millis(10), Duration::from_secs(1));
        let handle = std::thread::spawn(move || {
            let mut last = heartbeats();
            let mut last_change = Instant::now();
            loop {
                std::thread::sleep(poll);
                if stop_flag.load(Ordering::Relaxed) {
                    return;
                }
                let now = heartbeats();
                if now != last {
                    last = now;
                    last_change = Instant::now();
                } else if last_change.elapsed() >= timeout {
                    crate::report::note(&format!(
                        "watchdog: no progress for {:.0}s — terminating (exit {})\n",
                        timeout.as_secs_f64(),
                        WATCHDOG_EXIT_CODE
                    ));
                    std::process::exit(WATCHDOG_EXIT_CODE);
                }
            }
        });
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }

    /// Disarms the watchdog (joins its thread).
    pub fn disarm(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A single-threaded `/metrics` HTTP endpoint over [`LiveState`].
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9474`; port 0 picks a free one) and
    /// starts serving `state` on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve(addr: &str, state: Arc<LiveState>) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(stream) = conn {
                    let _ = handle_conn(stream, &state);
                }
            }
        });
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves one connection: reads the request head, answers `/metrics`
/// (and `/`) with the rendered exposition, anything else with 404.
fn handle_conn(mut stream: TcpStream, state: &Arc<LiveState>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let path = request
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, body) = if path == "/metrics" || path == "/" {
        ("200 OK", state.render())
    } else {
        ("404 Not Found", String::from("not found\n"))
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;
    use crate::telemetry::MetricsSnapshot;

    /// `render`'s lines with every sample value dropped: headers whole,
    /// samples as `name{labels}`. The profiler's `aum_selftime_*` and
    /// `aum_cache_*` families are left out, since the profiler is
    /// process-global and other tests may enable it.
    fn skeleton(rendered: &str) -> Vec<String> {
        rendered
            .lines()
            .filter(|l| !l.contains("aum_selftime_") && !l.contains("aum_cache_"))
            .map(|l| match l.rsplit_once(' ') {
                Some((name, _)) if !l.starts_with('#') => name.to_string(),
                _ => l.to_string(),
            })
            .collect()
    }

    #[test]
    fn render_keeps_its_families_in_order() {
        use crate::hist::LogHistogram;
        use crate::telemetry::MetricsSnapshot;
        use crate::time::SimTime;

        let state = LiveState::new();
        state.set_phase("fig\"14\"");
        let snapshot = MetricsSnapshot {
            at: SimTime::from_secs(3),
            counters: Arc::new([("decode_tokens".to_string(), 9)].into_iter().collect()),
            gauges: Arc::new([("tpot_secs/p50".to_string(), 0.5)].into_iter().collect()),
        };
        let hist: LogHistogram = [0.01, 0.2].into_iter().collect();
        let mut exposition = crate::prom::render_registry(&snapshot);
        exposition.push_str(&crate::prom::render_histogram(
            "aum_ttft_seconds",
            "TTFT.",
            &[("scheme", "AUM")],
            &hist,
        ));
        state.publish_exposition(exposition);
        state.set_flight_source(FlightStats::default);
        assert_eq!(skeleton(&state.render()), SKELETON);
    }

    #[test]
    fn render_keeps_the_exposition_rules() {
        let state = LiveState::new();
        state.set_phase("fig\"14\"\n");
        let snapshot = MetricsSnapshot::default();
        let hist: LogHistogram = [0.01, 0.2].into_iter().collect();
        let mut exposition = crate::prom::render_registry(&snapshot);
        exposition.push_str(&crate::prom::render_histogram(
            "aum_ttft_seconds",
            "TTFT.",
            &[("scheme", "AUM")],
            &hist,
        ));
        state.publish_exposition(exposition);
        state.set_flight_source(FlightStats::default);
        let rendered = state.render();
        crate::prom::check::check_exposition(&rendered)
            .unwrap_or_else(|e| panic!("{e}\n{rendered}"));
    }

    /// The run-health families in order, then a blank line and the
    /// published exposition.
    const SKELETON: &[&str] = &[
        "# HELP aum_up 1 while the harness is running.",
        "# TYPE aum_up gauge",
        "aum_up",
        "# HELP aum_run_wall_seconds Wall-clock seconds since the harness started.",
        "# TYPE aum_run_wall_seconds gauge",
        "aum_run_wall_seconds",
        "# HELP aum_phase_seconds Wall-clock seconds in the current phase.",
        "# TYPE aum_phase_seconds gauge",
        "aum_phase_seconds",
        "# HELP aum_phase_info Current phase as a label.",
        "# TYPE aum_phase_info gauge",
        "aum_phase_info{phase=\"fig\\\"14\\\"\"}",
        "# HELP aum_sweep_cells_total Grid cells scheduled across all sweeps so far.",
        "# TYPE aum_sweep_cells_total counter",
        "aum_sweep_cells_total",
        "# HELP aum_sweep_cells_completed Grid cells completed across all sweeps so far.",
        "# TYPE aum_sweep_cells_completed gauge",
        "aum_sweep_cells_completed",
        "# HELP aum_exec_busy_seconds Summed per-cell execution time (serial-equivalent work).",
        "# TYPE aum_exec_busy_seconds gauge",
        "aum_exec_busy_seconds",
        "# HELP aum_exec_wall_seconds Summed sweep wall-clock time.",
        "# TYPE aum_exec_wall_seconds gauge",
        "aum_exec_wall_seconds",
        "# HELP aum_exec_claim_seconds Summed worker time claiming cells from the sweep cursor.",
        "# TYPE aum_exec_claim_seconds gauge",
        "aum_exec_claim_seconds",
        "# HELP aum_exec_merge_seconds Summed time merging per-cell traces into the parent tracer.",
        "# TYPE aum_exec_merge_seconds gauge",
        "aum_exec_merge_seconds",
        "# HELP aum_exec_idle_seconds Summed pool-worker wall time not spent computing or claiming.",
        "# TYPE aum_exec_idle_seconds gauge",
        "aum_exec_idle_seconds",
        "# HELP aum_exec_speedup Observed sweep speedup (busy over wall) of the current phase.",
        "# TYPE aum_exec_speedup gauge",
        "aum_exec_speedup",
        "# HELP aum_flight_occupancy Records currently buffered in the flight-recorder ring.",
        "# TYPE aum_flight_occupancy gauge",
        "aum_flight_occupancy",
        "# HELP aum_flight_capacity Flight-recorder ring retention limit.",
        "# TYPE aum_flight_capacity gauge",
        "aum_flight_capacity",
        "# HELP aum_flight_evicted_total Records evicted from the flight-recorder ring.",
        "# TYPE aum_flight_evicted_total counter",
        "aum_flight_evicted_total",
        "# HELP aum_flight_triggers_total Flight-recorder trigger firings (including suppressed).",
        "# TYPE aum_flight_triggers_total counter",
        "aum_flight_triggers_total",
        "# HELP aum_flight_incidents_total Incident files written by the flight recorder.",
        "# TYPE aum_flight_incidents_total counter",
        "aum_flight_incidents_total",
        "",
        "# HELP aum_snapshot_sim_seconds Simulated time of this metrics snapshot.",
        "# TYPE aum_snapshot_sim_seconds gauge",
        "aum_snapshot_sim_seconds",
        "# HELP decode_tokens Counter `decode_tokens` from the AUM metrics registry.",
        "# TYPE decode_tokens counter",
        "decode_tokens",
        "# HELP tpot_secs_p50 Gauge `tpot_secs/p50` from the AUM metrics registry.",
        "# TYPE tpot_secs_p50 gauge",
        "tpot_secs_p50",
        "# HELP aum_ttft_seconds TTFT.",
        "# TYPE aum_ttft_seconds histogram",
        "aum_ttft_seconds_bucket{scheme=\"AUM\",le=\"0.010009765625\"}",
        "aum_ttft_seconds_bucket{scheme=\"AUM\",le=\"0.2001953125\"}",
        "aum_ttft_seconds_bucket{scheme=\"AUM\",le=\"+Inf\"}",
        "aum_ttft_seconds_sum{scheme=\"AUM\"}",
        "aum_ttft_seconds_count{scheme=\"AUM\"}",
    ];

    /// One test covers install → hooks → render → HTTP round-trip →
    /// shutdown, serially, because the installed state is process-global.
    #[test]
    fn live_state_renders_and_serves_over_http() {
        let state = install();
        state.set_phase("unit-test");
        sweep_started(4);
        cell_finished();
        cell_finished();
        state.publish_exposition(String::from(
            "# TYPE aum_requests_finished counter\naum_requests_finished 5\n",
        ));
        state.set_flight_source(|| FlightStats {
            occupancy: 7,
            capacity: 64,
            evicted: 1,
            triggers: 2,
            incidents: 1,
        });
        let rendered = state.render();
        assert!(rendered.contains("aum_up 1"), "{rendered}");
        assert!(
            rendered.contains("aum_phase_info{phase=\"unit-test\"} 1"),
            "{rendered}"
        );
        assert!(rendered.contains("aum_sweep_cells_total 4"), "{rendered}");
        assert!(
            rendered.contains("aum_sweep_cells_completed 2"),
            "{rendered}"
        );
        assert!(rendered.contains("aum_flight_occupancy 7"), "{rendered}");
        assert!(rendered.contains("aum_requests_finished 5"), "{rendered}");

        let server = MetricsServer::serve("127.0.0.1:0", state.clone()).expect("bind");
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("aum_up 1"), "{response}");
        assert!(
            response.contains("aum_flight_triggers_total 2"),
            "{response}"
        );

        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");

        server.shutdown();
        uninstall();
        assert!(installed().is_none());

        // A disarmed watchdog never fires.
        let dog = Watchdog::arm(Duration::from_secs(600));
        heartbeat();
        dog.disarm();
    }
}
