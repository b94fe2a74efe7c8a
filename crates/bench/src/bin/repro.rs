//! Reproduction driver: regenerates the paper's tables and figures.
//!
//! Run `repro help` for the full command and flag reference. The usage
//! text is generated from the same [`COMMANDS`]/[`FLAGS`] tables the
//! argument parser walks, so the help and the parser cannot drift apart:
//! adding a flag means adding one table row, and both the synopsis and
//! the per-command validity checks pick it up.
//!
//! Observability plane (all optional, all off by default):
//!
//! ```text
//!   --flight <dir>        anomaly-triggered flight recorder; incident
//!                         dumps are JSONL consumable by `trace-summary`
//!                         and `trace-export --perfetto`
//!   --serve-metrics <a>   live Prometheus endpoint with run-health gauges
//!   --watchdog <secs>     stall detector (exit 3 instead of hanging)
//! ```
//!
//! Exit codes:
//!   0  success
//!   1  a study failed its own gate (degenerate chaos matrix, attribution
//!      conservation violation, trace-diff regression, perf-report
//!      regression vs --baseline, export error) or an incident dump could
//!      not be written
//!   2  unknown or malformed arguments
//!   3  the run-health watchdog fired (no progress for the configured
//!      wall-clock timeout)

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aum_sim::flight::{FlightConfig, FlightRecorder};
use aum_sim::live::{self, MetricsServer, Watchdog};
use aum_sim::telemetry::{parse_jsonl, JsonlSink, OrderingSink, TraceSink, Tracer};
use aum_sim::time::SimDuration;

use aum_bench::common::RunCtx;

/// Identity of a parsed command, used to key flag applicability.
/// `Run` covers both `repro <id>` and `repro all`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CmdId {
    Run,
    List,
    Chaos,
    FleetChaos,
    Attrib,
    PerfReport,
    TraceSummary,
    TraceDiff,
    TraceExport,
}

/// One row of the command table: positional synopsis plus the short label
/// used in per-flag validity lists and error messages.
struct CommandSpec {
    id: CmdId,
    usage: &'static str,
    label: &'static str,
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        id: CmdId::Run,
        usage: "<id>|all",
        label: "<id>|all",
    },
    CommandSpec {
        id: CmdId::List,
        usage: "list",
        label: "list",
    },
    CommandSpec {
        id: CmdId::Chaos,
        usage: "chaos",
        label: "chaos",
    },
    CommandSpec {
        id: CmdId::FleetChaos,
        usage: "fleet-chaos",
        label: "fleet-chaos",
    },
    CommandSpec {
        id: CmdId::Attrib,
        usage: "attrib <fig14|chaos>",
        label: "attrib",
    },
    CommandSpec {
        id: CmdId::PerfReport,
        usage: "perf-report <id>",
        label: "perf-report",
    },
    CommandSpec {
        id: CmdId::TraceSummary,
        usage: "trace-summary <file.jsonl>",
        label: "trace-summary",
    },
    CommandSpec {
        id: CmdId::TraceDiff,
        usage: "trace-diff <a.jsonl> <b.jsonl>",
        label: "trace-diff",
    },
    CommandSpec {
        id: CmdId::TraceExport,
        usage: "trace-export <file.jsonl>",
        label: "trace-export",
    },
];

/// One row of the flag table. `value` is `Some((metavar, noun))` for
/// value-taking flags — the metavar renders in usage text, the noun in
/// the "requires" error — and `None` for boolean switches.
struct FlagSpec {
    name: &'static str,
    value: Option<(&'static str, &'static str)>,
    applies: &'static [CmdId],
    help: &'static str,
}

/// Commands that run experiments or studies.
const RUNS: &[CmdId] = &[
    CmdId::Run,
    CmdId::Chaos,
    CmdId::FleetChaos,
    CmdId::Attrib,
    CmdId::PerfReport,
];
/// Commands that dispatch sweep cells through the parallel executor.
const SWEEPS: &[CmdId] = &[
    CmdId::Run,
    CmdId::Chaos,
    CmdId::FleetChaos,
    CmdId::Attrib,
    CmdId::PerfReport,
    CmdId::TraceDiff,
];

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--quick",
        value: None,
        applies: RUNS,
        help: "short runs — the CI smoke configuration",
    },
    FlagSpec {
        name: "--out",
        value: Some(("<dir>", "a directory")),
        applies: RUNS,
        help: "additionally write one .txt artifact per experiment",
    },
    FlagSpec {
        name: "--trace",
        value: Some(("<file.jsonl>", "a file path")),
        applies: RUNS,
        help: "stream telemetry from AUM-scheme runs and profiler sweeps as JSON lines",
    },
    FlagSpec {
        name: "--jobs",
        value: Some(("<N>", "a worker count")),
        applies: SWEEPS,
        help: "worker threads for sweep cells (default: AUM_JOBS env var, else available \
               parallelism; outputs are byte-identical at every N)",
    },
    FlagSpec {
        name: "--metrics-out",
        value: Some(("<file.prom>", "a file path")),
        applies: &[CmdId::Attrib],
        help: "write the run's final metrics snapshot + ledger in Prometheus text format",
    },
    FlagSpec {
        name: "--threshold",
        value: Some(("<pp>", "a number")),
        applies: &[CmdId::TraceDiff],
        help: "regression threshold in percentage points of time share (default 2.0)",
    },
    FlagSpec {
        name: "--perfetto",
        value: Some(("<out.json>", "a file path")),
        applies: &[CmdId::TraceExport],
        help: "output path of the Chrome Trace Event Format JSON (required)",
    },
    FlagSpec {
        name: "--flame",
        value: Some(("<file.folded>", "a file path")),
        applies: &[CmdId::PerfReport],
        help: "write the self-time tree as collapsed stacks (inferno/speedscope input)",
    },
    FlagSpec {
        name: "--bench-out",
        value: Some(("<file.json>", "a file path")),
        applies: &[CmdId::PerfReport],
        help: "destination of the machine-readable summary (default BENCH_<sha>.json)",
    },
    FlagSpec {
        name: "--baseline",
        value: Some(("<file.json>", "a file path")),
        applies: &[CmdId::PerfReport],
        help: "compare cells/sec against a previous BENCH_<sha>.json; exit 1 on a >20% drop",
    },
    FlagSpec {
        name: "--flight",
        value: Some(("<dir>", "a directory")),
        applies: RUNS,
        help: "arm the flight recorder: keep a bounded ring of telemetry and dump the \
               recent window to <dir>/incident-NNNN-<trigger>.jsonl on faults, safe-mode \
               entries, SLO burn pages, attribution near-misses, and watchdog stalls",
    },
    FlagSpec {
        name: "--flight-capacity",
        value: Some(("<events>", "a record count")),
        applies: RUNS,
        help: "flight-recorder ring retention in records (default 4096; requires --flight)",
    },
    FlagSpec {
        name: "--flight-window",
        value: Some(("<secs>", "a duration in seconds")),
        applies: RUNS,
        help: "sim-time window an incident dump covers (default 30; requires --flight)",
    },
    FlagSpec {
        name: "--serve-metrics",
        value: Some(("<addr>", "a listen address")),
        applies: RUNS,
        help: "serve live run-health gauges and the latest cell's metrics over HTTP at \
               http://<addr>/metrics while the run executes",
    },
    FlagSpec {
        name: "--serve-hold",
        value: Some(("<secs>", "a duration in seconds")),
        applies: RUNS,
        help: "keep the metrics endpoint up for <secs> after the run completes \
               (requires --serve-metrics)",
    },
    FlagSpec {
        name: "--watchdog",
        value: Some(("<secs>", "a duration in seconds")),
        applies: RUNS,
        help: "terminate with exit 3 when no sweep-cell or controller-interval progress \
               lands for <secs> of wall time, instead of hanging",
    },
];

enum Command {
    List,
    All,
    One(String),
    Chaos,
    FleetChaos,
    Attrib { study: String },
    PerfReport { study: String },
    TraceSummary(PathBuf),
    TraceDiff { a: PathBuf, b: PathBuf },
    TraceExport { input: PathBuf, perfetto: PathBuf },
}

impl Command {
    fn id(&self) -> CmdId {
        match self {
            Command::List => CmdId::List,
            Command::All | Command::One(_) => CmdId::Run,
            Command::Chaos => CmdId::Chaos,
            Command::FleetChaos => CmdId::FleetChaos,
            Command::Attrib { .. } => CmdId::Attrib,
            Command::PerfReport { .. } => CmdId::PerfReport,
            Command::TraceSummary(_) => CmdId::TraceSummary,
            Command::TraceDiff { .. } => CmdId::TraceDiff,
            Command::TraceExport { .. } => CmdId::TraceExport,
        }
    }

    /// Phase label shown on the live endpoint.
    fn phase(&self) -> String {
        match self {
            Command::List => "list".into(),
            Command::All => "all".into(),
            Command::One(id) => id.clone(),
            Command::Chaos => "chaos".into(),
            Command::FleetChaos => "fleet-chaos".into(),
            Command::Attrib { study } => format!("attrib-{study}"),
            Command::PerfReport { study } => format!("perf-report-{study}"),
            Command::TraceSummary(_) => "trace-summary".into(),
            Command::TraceDiff { .. } => "trace-diff".into(),
            Command::TraceExport { .. } => "trace-export".into(),
        }
    }
}

struct Cli {
    command: Command,
    out_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    threshold: Option<f64>,
    jobs: Option<usize>,
    quick: bool,
    flight: Option<PathBuf>,
    flight_capacity: Option<usize>,
    flight_window_secs: Option<f64>,
    serve_metrics: Option<String>,
    serve_hold_secs: u64,
    watchdog_secs: Option<u64>,
    flame: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

/// Raw flag values captured by the table-driven scan, indexed like
/// [`FLAGS`]; switches store an empty string.
struct RawFlags(Vec<Option<String>>);

impl RawFlags {
    fn get(&self, name: &str) -> Option<&str> {
        let idx = FLAGS.iter().position(|f| f.name == name)?;
        self.0[idx].as_deref()
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }
}

/// The generic scan: splits `args` into positionals and per-flag values
/// using only the [`FLAGS`] table. Unknown flags, missing values, and
/// duplicates are rejected here; typed validation happens afterwards.
fn scan_flags(args: &[String]) -> Result<(Vec<String>, RawFlags), String> {
    let mut positionals = Vec::new();
    let mut values: Vec<Option<String>> = vec![None; FLAGS.len()];
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(idx) = FLAGS.iter().position(|f| f.name == arg) {
            let spec = &FLAGS[idx];
            let value = match spec.value {
                Some((_, noun)) => {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| format!("{} requires {noun}", spec.name))?;
                    i += 2;
                    v.clone()
                }
                None => {
                    i += 1;
                    String::new()
                }
            };
            if values[idx].replace(value).is_some() {
                return Err(format!("{} given twice", spec.name));
            }
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            positionals.push(arg.to_owned());
            i += 1;
        }
    }
    Ok((positionals, RawFlags(values)))
}

fn parse_positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    raw: &RawFlags,
    name: &str,
    what: &str,
) -> Result<Option<T>, String> {
    let Some(v) = raw.get(name) else {
        return Ok(None);
    };
    let parsed: T = v
        .parse()
        .map_err(|_| format!("{name}: `{v}` is not {what}"))?;
    if parsed < T::from(1u8) {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(Some(parsed))
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let (positionals, raw) = scan_flags(args)?;
    let positionals: Vec<&str> = positionals.iter().map(String::as_str).collect();
    let command = match positionals.as_slice() {
        [] => return Err("missing command".into()),
        ["list"] => Command::List,
        ["all"] => Command::All,
        ["chaos"] => Command::Chaos,
        ["fleet-chaos"] => Command::FleetChaos,
        ["attrib", study] => Command::Attrib {
            study: (*study).to_owned(),
        },
        ["attrib"] => return Err("attrib requires a study name (fig14 or chaos)".into()),
        ["perf-report", study] => Command::PerfReport {
            study: (*study).to_owned(),
        },
        ["perf-report"] => return Err("perf-report requires a study id (see `repro list`)".into()),
        ["trace-summary", file] => Command::TraceSummary(PathBuf::from(file)),
        ["trace-summary"] => return Err("trace-summary requires a file".into()),
        ["trace-diff", a, b] => Command::TraceDiff {
            a: PathBuf::from(a),
            b: PathBuf::from(b),
        },
        ["trace-diff", ..] => return Err("trace-diff requires two trace files".into()),
        ["trace-export", file] => Command::TraceExport {
            input: PathBuf::from(file),
            perfetto: raw
                .path("--perfetto")
                .ok_or("trace-export requires --perfetto <out.json>")?,
        },
        ["trace-export"] => return Err("trace-export requires a trace file".into()),
        [id] => Command::One((*id).to_owned()),
        [_, extra, ..] => return Err(format!("unexpected argument `{extra}`")),
    };
    // Table-driven applicability: every provided flag must list the
    // resolved command — the same table renders the help text.
    let cmd_id = command.id();
    for (spec, value) in FLAGS.iter().zip(&raw.0) {
        if value.is_some() && !spec.applies.contains(&cmd_id) {
            let valid: Vec<&str> = COMMANDS
                .iter()
                .filter(|c| spec.applies.contains(&c.id))
                .map(|c| c.label)
                .collect();
            return Err(format!(
                "{} is only valid with: {}",
                spec.name,
                valid.join(", ")
            ));
        }
    }
    // Cross-flag requirements the applicability table cannot express.
    for (dependent, prereq) in [
        ("--flight-capacity", "--flight"),
        ("--flight-window", "--flight"),
        ("--serve-hold", "--serve-metrics"),
    ] {
        if raw.has(dependent) && !raw.has(prereq) {
            return Err(format!("{dependent} requires {prereq}"));
        }
    }
    let threshold = raw
        .get("--threshold")
        .map(|v| {
            let parsed: f64 = v
                .parse()
                .map_err(|_| format!("--threshold: `{v}` is not a number"))?;
            if !parsed.is_finite() || parsed < 0.0 {
                return Err("--threshold must be a finite non-negative number".to_string());
            }
            Ok(parsed)
        })
        .transpose()?;
    let flight_window_secs = raw
        .get("--flight-window")
        .map(|v| {
            let parsed: f64 = v
                .parse()
                .map_err(|_| format!("--flight-window: `{v}` is not a number"))?;
            if !parsed.is_finite() || parsed <= 0.0 {
                return Err("--flight-window must be a positive number of seconds".to_string());
            }
            Ok(parsed)
        })
        .transpose()?;
    let jobs = parse_positive::<usize>(&raw, "--jobs", "a positive integer")?;
    let flight_capacity = parse_positive::<usize>(&raw, "--flight-capacity", "a positive integer")?;
    let watchdog_secs = parse_positive::<u64>(&raw, "--watchdog", "a whole number of seconds")?;
    let serve_hold_secs = raw
        .get("--serve-hold")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("--serve-hold: `{v}` is not a whole number of seconds"))
        })
        .transpose()?
        .unwrap_or(0);
    Ok(Cli {
        command,
        out_dir: raw.path("--out"),
        trace: raw.path("--trace"),
        metrics_out: raw.path("--metrics-out"),
        threshold,
        jobs,
        quick: raw.has("--quick"),
        flight: raw.path("--flight"),
        flight_capacity,
        flight_window_secs,
        serve_metrics: raw.get("--serve-metrics").map(str::to_owned),
        serve_hold_secs,
        watchdog_secs,
        flame: raw.path("--flame"),
        bench_out: raw.path("--bench-out"),
        baseline: raw.path("--baseline"),
    })
}

/// Renders the help text from the same tables the parser walks.
fn usage_text(experiments: &[(&'static str, aum_bench::Experiment)]) -> String {
    let mut out = String::new();
    for (i, cmd) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        let has_flags = FLAGS.iter().any(|f| f.applies.contains(&cmd.id));
        let flags = if has_flags { " [flags]" } else { "" };
        out.push_str(&format!("{lead} repro {}{flags}\n", cmd.usage));
    }
    out.push_str("       repro help | --help\n");
    out.push_str("flags:\n");
    for spec in FLAGS {
        let head = match spec.value {
            Some((metavar, _)) => format!("{} {metavar}", spec.name),
            None => spec.name.to_string(),
        };
        let valid: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| spec.applies.contains(&c.id))
            .map(|c| c.label)
            .collect();
        out.push_str(&format!(
            "  {head:<28} {}  [{}]\n",
            spec.help,
            valid.join(", ")
        ));
    }
    out.push_str(&format!(
        "ids: {}\n",
        experiments
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out
}

/// The installed harness sink: either the plain ordered JSONL chain or
/// the flight recorder wrapping it (with the JSONL leg optional).
enum SinkHandle {
    Plain(Arc<Mutex<OrderingSink<JsonlSink>>>),
    Flight(Arc<Mutex<FlightRecorder<OrderingSink<JsonlSink>>>>),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = aum_bench::experiments();
    // `repro help` / `repro --help`: the full subcommand list on stdout,
    // exit 0 — recognized anywhere on the command line.
    if args.first().map(String::as_str) == Some("help") || args.iter().any(|a| a == "--help") {
        print!("{}", usage_text(&experiments));
        return;
    }
    let usage = || eprint!("{}", usage_text(&experiments));
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            usage();
            std::process::exit(2);
        }
    };
    if let Some(n) = cli.jobs {
        aum_sim::exec::set_jobs(n);
    }
    if let Some(dir) = &cli.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    // Run-health watchdog: armed before any sweep so a stalled cell turns
    // into a typed exit instead of a hung CI job.
    let watchdog = cli
        .watchdog_secs
        .map(|secs| Watchdog::arm(Duration::from_secs(secs)));
    // Live metrics endpoint. The listener and its snapshots live outside
    // the determinism contract: nothing it serves feeds back into stdout
    // or traces.
    let server = cli.serve_metrics.as_ref().map(|addr| {
        let state = live::install();
        let server = match MetricsServer::serve(addr, state.clone()) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("cannot serve metrics on {addr}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!("metrics: live endpoint at http://{}/metrics", server.addr());
        let _ = state.set_phase(&cli.command.phase());
        (state, server)
    });
    // The harness tracer. With `--flight` the recorder is the outermost
    // sink so it observes records live, in the deterministic emission
    // order of the canonical cell merge; the ordered JSONL chain (the
    // `--trace` leg) rides inside it unchanged.
    let make_jsonl = |path: &PathBuf| -> OrderingSink<JsonlSink> {
        let sink = match JsonlSink::create(path) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("cannot create {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        // OrderingSink re-sorts each run's records by sim time: components
        // are simulated sequentially over overlapping interval windows, so
        // raw emission order is not globally monotonic.
        OrderingSink::new(sink)
    };
    let (tracer, sink_handle) = if let Some(dir) = &cli.flight {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let mut fcfg = FlightConfig::new(dir);
        if let Some(capacity) = cli.flight_capacity {
            fcfg.capacity = capacity;
        }
        if let Some(secs) = cli.flight_window_secs {
            fcfg.window = SimDuration::from_secs_f64(secs);
        }
        let inner = cli.trace.as_ref().map(&make_jsonl);
        let (tracer, handle) = Tracer::shared(FlightRecorder::with_inner_opt(fcfg, inner));
        if let Some((state, _)) = &server {
            let flight = handle.clone();
            state.set_flight_source(move || flight.lock().expect("flight lock").stats());
        }
        (tracer, Some(SinkHandle::Flight(handle)))
    } else if let Some(path) = &cli.trace {
        let (tracer, handle) = Tracer::shared(make_jsonl(path));
        (tracer, Some(SinkHandle::Plain(handle)))
    } else {
        (Tracer::disabled(), None)
    };
    // The one run context of this invocation: every study it dispatches
    // shares the flags, the harness tracer and one AUV-model cache.
    let ctx = RunCtx::new(cli.quick, tracer);
    // Wall-clock timing goes to stderr so stdout stays byte-identical
    // across runs and worker counts (the CI serial-vs-parallel gate
    // `cmp`s captured stdout).
    let emit = |name: &str, out: &str, elapsed: std::time::Duration| {
        println!("==== {name} ====\n{out}");
        eprintln!("{name}: completed in {elapsed:?}");
        if let Some(dir) = &cli.out_dir {
            let path = dir.join(format!("{name}.txt"));
            if let Err(e) = std::fs::write(&path, out) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
    };
    // Per-study executor accounting: speedup = summed cell compute time /
    // sweep wall time. Printed to stderr so stdout artifacts stay
    // byte-identical across worker counts.
    let report_speedup = |name: &str, before: &aum_sim::exec::ExecStats| {
        let d = aum_sim::exec::stats().since(before);
        if d.cells > 0 {
            eprintln!(
                "{name}: {} sweep cells, busy {:.2?} / wall {:.2?}, speedup {:.2}x (jobs {}; \
                 claim {:.2?}, merge {:.2?}, idle {:.2?})",
                d.cells,
                d.busy,
                d.wall,
                d.speedup(),
                aum_sim::exec::jobs(),
                d.claim,
                d.merge,
                d.idle,
            );
        }
    };
    let set_phase = |label: &str| {
        if let Some((state, _)) = &server {
            let _ = state.set_phase(label);
        }
    };
    let mut exit_code = 0;
    match &cli.command {
        Command::List => {
            for (name, _) in &experiments {
                println!("{name}");
            }
        }
        Command::All => {
            let t0 = Instant::now();
            for (name, run) in &experiments {
                set_phase(name);
                let t = Instant::now();
                let before = aum_sim::exec::stats();
                let out = run(&ctx);
                emit(name, &out, t.elapsed());
                report_speedup(name, &before);
            }
            eprintln!("total: {:?}", t0.elapsed());
        }
        Command::Chaos => {
            let t = Instant::now();
            let before = aum_sim::exec::stats();
            let run = aum_bench::chaos::run(&ctx);
            emit("chaos", &run.text, t.elapsed());
            report_speedup("chaos", &before);
            if run.degenerate {
                eprintln!("error: chaos matrix produced non-finite SLO guarantees");
                exit_code = 1;
            }
        }
        Command::FleetChaos => {
            let t = Instant::now();
            let before = aum_sim::exec::stats();
            let run = aum_bench::fleetchaos::run(&ctx);
            emit("fleet-chaos", &run.text, t.elapsed());
            report_speedup("fleet-chaos", &before);
            if run.degenerate {
                eprintln!(
                    "error: fleet-chaos matrix failed conservation, finiteness, \
                     or the node-crash acceptance gate"
                );
                exit_code = 1;
            }
        }
        Command::Attrib { study } => {
            let t = Instant::now();
            let before = aum_sim::exec::stats();
            match aum_bench::attribution::run_study(&ctx, study) {
                Ok(report) => {
                    emit(&format!("attrib-{study}"), &report.text, t.elapsed());
                    report_speedup(&format!("attrib-{study}"), &before);
                    if let Some(path) = &cli.metrics_out {
                        if let Err(e) = std::fs::write(path, &report.prom) {
                            eprintln!("cannot write {}: {e}", path.display());
                            exit_code = 1;
                        } else {
                            eprintln!("metrics: {}", path.display());
                        }
                    }
                }
                Err(msg) => {
                    eprintln!("error: {msg}");
                    exit_code = 1;
                }
            }
        }
        Command::PerfReport { study } => {
            let t = Instant::now();
            let before = aum_sim::exec::stats();
            match aum_bench::perfreport::collect(&ctx, study) {
                Ok(report) => {
                    let name = format!("perf-report-{study}");
                    let text = format!(
                        "{}\n{}\n{}",
                        report.study_output, report.deterministic, report.timing
                    );
                    emit(&name, &text, t.elapsed());
                    report_speedup(&name, &before);
                    if let Some(path) = &cli.flame {
                        if let Err(e) = std::fs::write(path, &report.folded) {
                            eprintln!("cannot write {}: {e}", path.display());
                            exit_code = 1;
                        } else {
                            eprintln!(
                                "flame: {} stack(s) \u{2192} {}",
                                report.folded.lines().count(),
                                path.display()
                            );
                        }
                    }
                    let bench_path = cli.bench_out.clone().unwrap_or_else(|| {
                        PathBuf::from(format!("BENCH_{}.json", report.bench.sha))
                    });
                    match serde_json::to_string_pretty(&report.bench) {
                        Ok(json) => {
                            if let Err(e) = std::fs::write(&bench_path, json) {
                                eprintln!("cannot write {}: {e}", bench_path.display());
                                exit_code = 1;
                            } else {
                                eprintln!("bench: {}", bench_path.display());
                            }
                        }
                        Err(e) => {
                            eprintln!("cannot serialize bench summary: {e}");
                            exit_code = 1;
                        }
                    }
                    if let Some(path) = &cli.baseline {
                        let gate = std::fs::read_to_string(path)
                            .map_err(|e| format!("cannot read {}: {e}", path.display()))
                            .and_then(|text| {
                                serde_json::from_str::<aum_bench::perfreport::BenchSummary>(&text)
                                    .map_err(|e| {
                                        format!("malformed baseline {}: {e}", path.display())
                                    })
                            })
                            .and_then(|baseline| {
                                report.bench.regression_against(&baseline).map_err(|msg| {
                                    format!("perf regression vs {}: {msg}", path.display())
                                })
                            });
                        match gate {
                            Ok(line) => eprintln!("perf gate: {line}"),
                            Err(msg) => {
                                eprintln!("error: {msg}");
                                exit_code = 1;
                            }
                        }
                    }
                }
                Err(msg) => {
                    eprintln!("error: {msg}");
                    std::process::exit(2);
                }
            }
        }
        Command::TraceDiff { a, b } => {
            let read_trace = |path: &PathBuf| -> Result<Vec<_>, String> {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let records = parse_jsonl(&text)
                    .map_err(|e| format!("malformed trace {}: {e}", path.display()))?;
                if records.is_empty() {
                    return Err(format!("empty trace {}: no records", path.display()));
                }
                Ok(records)
            };
            let threshold = cli
                .threshold
                .unwrap_or(aum_bench::attribution::DEFAULT_THRESHOLD_PP);
            match read_trace(a).and_then(|ra| read_trace(b).map(|rb| (ra, rb))) {
                Ok((ra, rb)) => match aum_bench::attribution::trace_diff(&ra, &rb, threshold) {
                    Ok(diff) => {
                        print!("{}", diff.text);
                        if diff.regression {
                            exit_code = 1;
                        }
                    }
                    Err(msg) => {
                        eprintln!("error: {msg}");
                        std::process::exit(1);
                    }
                },
                Err(msg) => {
                    eprintln!("error: {msg}");
                    std::process::exit(1);
                }
            }
        }
        Command::One(id) => match experiments.iter().find(|(n, _)| n == id) {
            Some((name, run)) => {
                let t = Instant::now();
                let before = aum_sim::exec::stats();
                let out = run(&ctx);
                emit(name, &out, t.elapsed());
                report_speedup(name, &before);
            }
            None => {
                eprintln!("error: unknown experiment `{id}`");
                usage();
                std::process::exit(2);
            }
        },
        Command::TraceSummary(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            match parse_jsonl(&text) {
                Ok(records) => print!("{}", aum_bench::tracereport::summarize(&records)),
                Err(e) => {
                    eprintln!("malformed trace {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        Command::TraceExport { input, perfetto } => {
            let text = match std::fs::read_to_string(input) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", input.display());
                    std::process::exit(1);
                }
            };
            let records = match parse_jsonl(&text) {
                Ok(records) if records.is_empty() => {
                    eprintln!("error: empty trace {}: no records", input.display());
                    std::process::exit(1);
                }
                Ok(records) => records,
                Err(e) => {
                    eprintln!("malformed trace {}: {e}", input.display());
                    std::process::exit(1);
                }
            };
            match aum_bench::perfetto::export(&records) {
                Ok(json) => {
                    if let Err(e) = std::fs::write(perfetto, &json) {
                        eprintln!("cannot write {}: {e}", perfetto.display());
                        std::process::exit(1);
                    }
                    eprintln!(
                        "perfetto: {} records \u{2192} {}",
                        records.len(),
                        perfetto.display()
                    );
                }
                Err(msg) => {
                    eprintln!("error: {msg}");
                    std::process::exit(1);
                }
            }
        }
    }
    // The work is done: stop stall detection before the flush/hold tail,
    // which makes no heartbeat progress by design.
    if let Some(watchdog) = watchdog {
        watchdog.disarm();
    }
    match &sink_handle {
        Some(SinkHandle::Plain(handle)) => {
            let mut sink = handle.lock().expect("sink lock");
            sink.flush_sink();
            if let Some(path) = &cli.trace {
                eprintln!(
                    "trace: {} events \u{2192} {}",
                    sink.inner().lines_written(),
                    path.display()
                );
            }
        }
        Some(SinkHandle::Flight(handle)) => {
            let mut recorder = handle.lock().expect("flight lock");
            recorder.flush_sink();
            if let (Some(path), Some(ordered)) = (&cli.trace, recorder.inner()) {
                eprintln!(
                    "trace: {} events \u{2192} {}",
                    ordered.inner().lines_written(),
                    path.display()
                );
            }
            let stats = recorder.stats();
            if let Some(dir) = &cli.flight {
                eprintln!(
                    "flight: {} trigger(s), {} incident dump(s) \u{2192} {}",
                    stats.triggers,
                    stats.incidents,
                    dir.display()
                );
            }
            for incident in recorder.incidents() {
                eprintln!(
                    "flight: incident {:04} [{}] at t={:.1}s \u{2192} {} ({} events)",
                    incident.seq,
                    incident.trigger.label(),
                    incident.at.as_secs_f64(),
                    incident.path.display(),
                    incident.events
                );
            }
            for error in recorder.errors() {
                eprintln!("flight: error: {error}");
                exit_code = 1;
            }
        }
        None => {}
    }
    if let Some((state, server)) = server {
        let _ = state.set_phase("done");
        if cli.serve_hold_secs > 0 {
            eprintln!(
                "metrics: holding endpoint for {}s (ctrl-c to stop early)",
                cli.serve_hold_secs
            );
            std::thread::sleep(Duration::from_secs(cli.serve_hold_secs));
        }
        server.shutdown();
        live::uninstall();
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
