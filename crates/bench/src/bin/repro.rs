//! Reproduction driver: regenerates the paper's tables and figures.
//!
//! Run `repro help` for the full command and flag reference. The usage
//! text is generated from the same [`COMMANDS`]/[`FLAGS`] tables the
//! argument parser walks, so the help and the parser cannot drift apart:
//! adding a flag means adding one table row, and both the synopsis and
//! the per-command validity checks pick it up.
//!
//! `main` runs four stages over one [`Driver`]: parse (every command, flag
//! and study name is checked before anything is created), install,
//! dispatch and finish.
//!
//! Exit codes:
//!   0  success, including a stdout whose reader closed early
//!      (`repro list | head -1`)
//!   1  a study failed its own gate (degenerate chaos matrix, attribution
//!      conservation violation, trace-diff regression, perf-report
//!      regression vs --baseline, export error), a trace could not be
//!      loaded, or an output file or incident dump could not be written
//!   2  unknown or malformed arguments, unknown study names included;
//!      nothing is created or run
//!   3  the run-health watchdog fired (no progress for the configured
//!      wall-clock timeout)

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aum_sim::exec;
use aum_sim::flight::{FlightConfig, FlightRecorder};
use aum_sim::live::{self, LiveState, MetricsServer, Watchdog};
use aum_sim::report::note;
use aum_sim::telemetry::{parse_jsonl, JsonlSink, OrderingSink, TraceRecord, Tracer};

use aum_bench::attribution;
use aum_bench::common::RunCtx;
use aum_bench::perfreport::{self, BenchSummary};
use aum_bench::{chaos, fleetchaos, perfetto, tracereport, Experiment};

/// Identity of a parsed command, used to key flag applicability.
/// `Run` covers both `repro <id>` and `repro all`; `Help` takes no flags
/// and has no table row.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CmdId {
    Help,
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

/// The command table: each command's positional synopsis, whose first
/// word is the label that per-flag validity lists and errors show.
const COMMANDS: &[(CmdId, &str)] = &[
    (CmdId::Run, "<id>|all"),
    (CmdId::List, "list"),
    (CmdId::Chaos, "chaos"),
    (CmdId::FleetChaos, "fleet-chaos"),
    (CmdId::Attrib, "attrib <fig14|chaos>"),
    (CmdId::PerfReport, "perf-report <id>"),
    (CmdId::TraceSummary, "trace-summary <file.jsonl>"),
    (CmdId::TraceDiff, "trace-diff <a.jsonl> <b.jsonl>"),
    (CmdId::TraceExport, "trace-export <file.jsonl>"),
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
        help: "worker threads for sweep cells (default: available parallelism; outputs are \
               byte-identical at every N)",
    },
    FlagSpec {
        name: "--metrics-out",
        value: Some(("<file.prom>", "a file path")),
        applies: &[CmdId::Attrib],
        help: "write the run's final metrics snapshot + ledger in Prometheus text format",
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
    Help,
    List,
    All,
    One(&'static str, Experiment),
    Chaos,
    FleetChaos,
    Attrib(String),
    PerfReport(String),
    TraceSummary(PathBuf),
    TraceDiff(PathBuf, PathBuf),
    TraceExport(PathBuf, PathBuf),
}

impl Command {
    fn id(&self) -> CmdId {
        match self {
            Command::Help => CmdId::Help,
            Command::List => CmdId::List,
            Command::All | Command::One(..) => CmdId::Run,
            Command::Chaos => CmdId::Chaos,
            Command::FleetChaos => CmdId::FleetChaos,
            Command::Attrib(_) => CmdId::Attrib,
            Command::PerfReport(_) => CmdId::PerfReport,
            Command::TraceSummary(_) => CmdId::TraceSummary,
            Command::TraceDiff(..) => CmdId::TraceDiff,
            Command::TraceExport(..) => CmdId::TraceExport,
        }
    }
}

/// The checked flags of one invocation.
#[derive(Default)]
struct Cli {
    out_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    jobs: Option<usize>,
    quick: bool,
    flight: Option<FlightConfig>,
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

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }

    /// The typed value of flag `name`, if given: `what` names the type in
    /// the error for a value that does not parse, and `bound` completes
    /// the error for one that `valid` rejects.
    fn parse<T: FromStr>(
        &self,
        name: &str,
        what: &str,
        valid: fn(&T) -> bool,
        bound: &str,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.get(name) else {
            return Ok(None);
        };
        let parsed: T = v
            .parse()
            .map_err(|_| format!("{name}: `{v}` is not {what}"))?;
        if !valid(&parsed) {
            return Err(format!("{name} {bound}"));
        }
        Ok(Some(parsed))
    }
}

/// The generic scan: splits `args` into positionals and per-flag values
/// using only the [`FLAGS`] table. Unknown flags, missing values, and
/// duplicates are rejected here; typed validation happens afterwards.
fn scan_flags(args: &[String]) -> Result<(Vec<&str>, RawFlags), String> {
    let mut positionals = Vec::new();
    let mut values: Vec<Option<String>> = vec![None; FLAGS.len()];
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if let Some(idx) = FLAGS.iter().position(|f| f.name == arg) {
            let spec = &FLAGS[idx];
            let value = match spec.value {
                Some((_, noun)) => args
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{} requires {noun}", spec.name))?,
                None => String::new(),
            };
            if values[idx].replace(value).is_some() {
                return Err(format!("{} given twice", spec.name));
            }
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            positionals.push(arg.as_str());
        }
    }
    Ok((positionals, RawFlags(values)))
}

/// Parse stage: every command, flag and study name is checked here, so a
/// rejected invocation installs nothing.
fn parse_args(
    args: &[String],
    experiments: &[(&'static str, Experiment)],
) -> Result<(Command, Cli), String> {
    // `repro help`, or `--help` anywhere on the line, asks for the help.
    if args.first().map(String::as_str) == Some("help") || args.iter().any(|a| a == "--help") {
        return Ok((Command::Help, Cli::default()));
    }
    let (positionals, raw) = scan_flags(args)?;
    let known = |id: &str| experiments.iter().find(|(name, _)| *name == id);
    let command = match positionals.as_slice() {
        [] => return Err("missing command".into()),
        ["list"] => Command::List,
        ["all"] => Command::All,
        ["chaos"] => Command::Chaos,
        ["fleet-chaos"] => Command::FleetChaos,
        ["attrib", study] if attribution::STUDIES.contains(study) => {
            Command::Attrib((*study).to_owned())
        }
        ["attrib", study] => {
            return Err(format!(
                "unknown attrib study '{study}' (expected 'fig14' or 'chaos')"
            ))
        }
        ["attrib"] => return Err("attrib requires a study name (fig14 or chaos)".into()),
        ["perf-report", study] if known(study).is_some() => {
            Command::PerfReport((*study).to_owned())
        }
        ["perf-report", study] => {
            let ids: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
            return Err(format!(
                "unknown study `{study}` (expected one of: {})",
                ids.join(", ")
            ));
        }
        ["perf-report"] => return Err("perf-report requires a study id (see `repro list`)".into()),
        ["trace-summary", file] => Command::TraceSummary(PathBuf::from(file)),
        ["trace-summary"] => return Err("trace-summary requires a file".into()),
        ["trace-diff", a, b] => Command::TraceDiff(PathBuf::from(a), PathBuf::from(b)),
        ["trace-diff", ..] => return Err("trace-diff requires two trace files".into()),
        ["trace-export", file] => {
            let out = raw.path("--perfetto");
            let out = out.ok_or("trace-export requires --perfetto <out.json>")?;
            Command::TraceExport(PathBuf::from(file), out)
        }
        ["trace-export"] => return Err("trace-export requires a trace file".into()),
        [id] => match known(id) {
            Some(&(name, run)) => Command::One(name, run),
            None => return Err(format!("unknown experiment `{id}`")),
        },
        [_, extra, ..] => return Err(format!("unexpected argument `{extra}`")),
    };
    // Table-driven applicability: every provided flag must list the
    // resolved command — the same table renders the help text.
    let cmd_id = command.id();
    for (spec, value) in FLAGS.iter().zip(&raw.0) {
        if value.is_some() && !spec.applies.contains(&cmd_id) {
            return Err(format!(
                "{} is only valid with: {}",
                spec.name,
                applies_to(spec)
            ));
        }
    }
    // The cross-flag requirement the applicability table cannot express.
    if raw.get("--serve-hold").is_some() && raw.get("--serve-metrics").is_none() {
        return Err("--serve-hold requires --serve-metrics".into());
    }
    let jobs = raw.parse(
        "--jobs",
        "a positive integer",
        |n: &usize| *n >= 1,
        "must be at least 1",
    )?;
    let secs = "a whole number of seconds";
    let watchdog_secs = raw.parse("--watchdog", secs, |s: &u64| *s >= 1, "must be at least 1")?;
    let serve_hold_secs = raw.parse("--serve-hold", secs, |_: &u64| true, "")?;
    let cli = Cli {
        out_dir: raw.path("--out"),
        trace: raw.path("--trace"),
        metrics_out: raw.path("--metrics-out"),
        jobs,
        quick: raw.get("--quick").is_some(),
        flight: raw.get("--flight").map(FlightConfig::new),
        serve_metrics: raw.get("--serve-metrics").map(str::to_owned),
        serve_hold_secs: serve_hold_secs.unwrap_or(0),
        watchdog_secs,
        flame: raw.path("--flame"),
        bench_out: raw.path("--bench-out"),
        baseline: raw.path("--baseline"),
    };
    Ok((command, cli))
}

/// The labels of the commands `spec` applies to, as help and errors list
/// them.
fn applies_to(spec: &FlagSpec) -> String {
    let labels: Vec<&str> = COMMANDS
        .iter()
        .filter(|(id, _)| spec.applies.contains(id))
        .filter_map(|(_, usage)| usage.split(' ').next())
        .collect();
    labels.join(", ")
}

/// Renders the help text from the same tables the parser walks.
fn usage_text(experiments: &[(&'static str, Experiment)]) -> String {
    let mut out = String::new();
    for (i, (id, usage)) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        let has_flags = FLAGS.iter().any(|f| f.applies.contains(id));
        let flags = if has_flags { " [flags]" } else { "" };
        out.push_str(&format!("{lead} repro {usage}{flags}\n"));
    }
    out.push_str("       repro help | --help\n");
    out.push_str("flags:\n");
    for spec in FLAGS {
        let head = match spec.value {
            Some((metavar, _)) => format!("{} {metavar}", spec.name),
            None => spec.name.to_string(),
        };
        out.push_str(&format!(
            "  {head:<28} {}  [{}]\n",
            spec.help,
            applies_to(spec)
        ));
    }
    let ids: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
    out.push_str(&format!("ids: {}\n", ids.join(" ")));
    out
}

/// Why dispatch stopped before its command finished.
enum Halt {
    /// A failure: the message goes to stderr and the run exits 1.
    Failed(String),
    /// The reader of stdout went away (`repro list | head -1`): nothing
    /// more can be shown, so the run ends with exit 0.
    StdoutClosed,
}

impl From<String> for Halt {
    fn from(msg: String) -> Self {
        Halt::Failed(msg)
    }
}

/// The one stdout writer; `print!` would panic on a closed pipe. Stderr
/// lines go through [`note`], which ignores write errors.
fn print(text: &str) -> Result<(), Halt> {
    let mut out = io::stdout().lock();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| match e.kind() {
            io::ErrorKind::BrokenPipe => Halt::StdoutClosed,
            _ => Halt::Failed(format!("cannot write stdout: {e}")),
        })
}

/// The one output-file writer.
fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Creates `path` with `make`, naming it in the error.
fn create<'a, T>(
    path: &'a Path,
    make: impl FnOnce(&'a Path) -> io::Result<T>,
) -> Result<T, String> {
    make(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The one trace loader. `trace-summary` reports an empty trace, so only
/// it passes `allow_empty`; the other tools refuse one.
fn load_trace(path: &Path, allow_empty: bool) -> Result<Vec<TraceRecord>, String> {
    let records = parse_jsonl(&read_file(path)?)
        .map_err(|e| format!("malformed trace {}: {e}", path.display()))?;
    if records.is_empty() && !allow_empty {
        return Err(format!("empty trace {}: no records", path.display()));
    }
    Ok(records)
}

/// The installed harness sink: the ordering sink over either the JSONL
/// file or the flight recorder (with the JSONL leg optional inside it).
enum SinkHandle {
    Plain(Arc<Mutex<OrderingSink<JsonlSink>>>),
    Flight(Arc<Mutex<OrderingSink<FlightRecorder<Option<JsonlSink>>>>>),
}

/// One invocation past the parse stage: its flags, the run context every
/// study shares, and whatever the install stage set up.
struct Driver {
    cli: Cli,
    experiments: Vec<(&'static str, Experiment)>,
    ctx: RunCtx,
    watchdog: Option<Watchdog>,
    live: Option<(Arc<LiveState>, MetricsServer)>,
    sinks: Option<SinkHandle>,
}

impl Driver {
    fn new(cli: Cli, experiments: Vec<(&'static str, Experiment)>) -> Driver {
        Driver {
            ctx: RunCtx::new(cli.quick, Tracer::disabled()),
            cli,
            experiments,
            watchdog: None,
            live: None,
            sinks: None,
        }
    }

    /// Install stage: the worker count, the output directories, the sink
    /// chain behind the run context's tracer, the watchdog and, last, the
    /// live endpoint, so a failed install leaves no endpoint to hold.
    fn install(&mut self) -> Result<(), Halt> {
        let cli = &self.cli;
        if let Some(n) = cli.jobs {
            exec::set_jobs(n);
        }
        for dir in cli.out_dir.iter().chain(cli.flight.iter().map(|f| &f.dir)) {
            create(dir, std::fs::create_dir_all)?;
        }
        let jsonl = match &cli.trace {
            Some(path) => Some(create(path, JsonlSink::create)?),
            None => None,
        };
        // The ordering sink is outermost and the only sink that sees
        // emission order: components are simulated sequentially over
        // overlapping interval windows, so it re-sorts each run by sim
        // time. Behind it, the flight recorder (with the `--trace` leg
        // inside) reads each run whole, in time order, then its flush.
        let (tracer, sinks) = match (&cli.flight, jsonl) {
            (Some(fcfg), jsonl) => {
                let recorder = FlightRecorder::with_inner(fcfg.clone(), jsonl);
                let (tracer, handle) = Tracer::shared(OrderingSink::new(recorder));
                (tracer, Some(SinkHandle::Flight(handle)))
            }
            (None, Some(jsonl)) => {
                let (tracer, handle) = Tracer::shared(OrderingSink::new(jsonl));
                (tracer, Some(SinkHandle::Plain(handle)))
            }
            (None, None) => (Tracer::disabled(), None),
        };
        self.ctx.tracer = tracer;
        self.sinks = sinks;
        // Run-health watchdog: armed before any sweep so a stalled cell
        // turns into a typed exit instead of a hung CI job.
        self.watchdog = cli
            .watchdog_secs
            .map(|s| Watchdog::arm(Duration::from_secs(s)));
        // Live metrics endpoint. The listener and its snapshots live
        // outside the determinism contract: nothing it serves feeds back
        // into stdout or traces.
        if let Some(addr) = &cli.serve_metrics {
            let state = live::install();
            let server = MetricsServer::serve(addr, state.clone())
                .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
            note(&format!(
                "metrics: live endpoint at http://{}/metrics\n",
                server.addr()
            ));
            if let Some(SinkHandle::Flight(handle)) = &self.sinks {
                let sink = handle.clone();
                state.set_flight_source(move || sink.lock().expect("flight lock").inner().stats());
            }
            self.live = Some((state, server));
        }
        Ok(())
    }

    /// Runs one study under `name`: sets the live phase, prints
    /// `==== name ====` and the study's text, writes `--out/<name>.txt`,
    /// and reports wall time and executor speedup on stderr. Returns what
    /// the study hands back beside its text.
    fn study<T>(
        &self,
        name: &str,
        run: impl FnOnce(&RunCtx) -> Result<(String, T), String>,
    ) -> Result<T, Halt> {
        if let Some((state, _)) = &self.live {
            let _ = state.set_phase(name);
        }
        let t = Instant::now();
        let before = exec::stats();
        let (text, rest) = run(&self.ctx)?;
        let elapsed = t.elapsed();
        print(&format!("==== {name} ====\n{text}\n"))?;
        // Host timings go to stderr so stdout stays byte-identical across
        // runs and worker counts (CI `cmp`s captured stdout).
        note(&format!("{name}: completed in {elapsed:?}\n"));
        if let Some(dir) = &self.cli.out_dir {
            write_file(&dir.join(format!("{name}.txt")), &text)?;
        }
        // Speedup = summed cell compute time / sweep wall time.
        let d = exec::stats().since(&before);
        if d.cells > 0 {
            note(&format!(
                "{name}: {} sweep cells, busy {:.2?} / wall {:.2?}, speedup {:.2}x (jobs {}; \
                 claim {:.2?}, merge {:.2?}, idle {:.2?})\n",
                d.cells,
                d.busy,
                d.wall,
                d.speedup(),
                exec::jobs(),
                d.claim,
                d.merge,
                d.idle,
            ));
        }
        Ok(rest)
    }

    /// Dispatch stage: one arm per command.
    fn dispatch(&self, command: &Command) -> Result<(), Halt> {
        match command {
            Command::Help => print(&usage_text(&self.experiments)),
            Command::List => self
                .experiments
                .iter()
                .try_for_each(|(name, _)| print(&format!("{name}\n"))),
            Command::All => {
                let t0 = Instant::now();
                for (name, run) in &self.experiments {
                    self.study(name, |ctx| Ok((run(ctx), ())))?;
                }
                note(&format!("total: {:?}\n", t0.elapsed()));
                Ok(())
            }
            Command::One(name, run) => self.study(name, |ctx| Ok((run(ctx), ()))),
            Command::Chaos => {
                let degenerate = self.study("chaos", |ctx| {
                    let run = chaos::run(ctx);
                    Ok((run.text, run.degenerate))
                })?;
                if degenerate {
                    let msg = "chaos matrix produced non-finite SLO guarantees";
                    return Err(Halt::Failed(msg.into()));
                }
                Ok(())
            }
            Command::FleetChaos => {
                let degenerate = self.study("fleet-chaos", |ctx| {
                    let run = fleetchaos::run(ctx);
                    Ok((run.text, run.degenerate))
                })?;
                if degenerate {
                    let msg = "fleet-chaos matrix failed conservation, finiteness, or the \
                               node-crash acceptance gate";
                    return Err(Halt::Failed(msg.into()));
                }
                Ok(())
            }
            Command::Attrib(study) => {
                let prom = self.study(&format!("attrib-{study}"), |ctx| {
                    let report = attribution::run_study(ctx, study)?;
                    Ok((report.text, report.prom))
                })?;
                if let Some(path) = &self.cli.metrics_out {
                    write_file(path, &prom)?;
                    note(&format!("metrics: {}\n", path.display()));
                }
                Ok(())
            }
            Command::PerfReport(study) => {
                let report = self.study(&format!("perf-report-{study}"), |ctx| {
                    let r = perfreport::collect(ctx, study)?;
                    let text = format!("{}\n{}\n{}", r.study_output, r.deterministic, r.timing);
                    Ok((text, r))
                })?;
                if let Some(path) = &self.cli.flame {
                    write_file(path, &report.folded)?;
                    let stacks = report.folded.lines().count();
                    note(&format!(
                        "flame: {stacks} stack(s) \u{2192} {}\n",
                        path.display()
                    ));
                }
                let bench_path =
                    self.cli.bench_out.clone().unwrap_or_else(|| {
                        PathBuf::from(format!("BENCH_{}.json", report.bench.sha))
                    });
                let json = serde_json::to_string_pretty(&report.bench)
                    .map_err(|e| format!("cannot serialize bench summary: {e}"))?;
                write_file(&bench_path, &json)?;
                note(&format!("bench: {}\n", bench_path.display()));
                if let Some(path) = &self.cli.baseline {
                    let baseline: BenchSummary = serde_json::from_str(&read_file(path)?)
                        .map_err(|e| format!("malformed baseline {}: {e}", path.display()))?;
                    let line = report
                        .bench
                        .regression_against(&baseline)
                        .map_err(|msg| format!("perf regression vs {}: {msg}", path.display()))?;
                    note(&format!("perf gate: {line}\n"));
                }
                Ok(())
            }
            Command::TraceSummary(path) => print(&tracereport::summarize(&load_trace(path, true)?)),
            Command::TraceDiff(a, b) => {
                let (a, b) = (load_trace(a, false)?, load_trace(b, false)?);
                let diff = attribution::trace_diff(&a, &b)?;
                print(&diff.text)?;
                if diff.regression {
                    return Err(Halt::Failed(
                        "attribution drifted past the threshold".into(),
                    ));
                }
                Ok(())
            }
            Command::TraceExport(input, out) => {
                let records = load_trace(input, false)?;
                write_file(out, &perfetto::export(&records)?)?;
                let n = records.len();
                note(&format!(
                    "perfetto: {n} records \u{2192} {}\n",
                    out.display()
                ));
                Ok(())
            }
        }
    }

    /// Finish stage: reports a failure, disarms the watchdog, flushes and
    /// reports the sinks, holds and stops the live endpoint, and returns
    /// the exit code.
    fn finish(self, result: Result<(), Halt>) -> ExitCode {
        let mut failed = false;
        if let Err(Halt::Failed(msg)) = result {
            note(&format!("error: {msg}\n"));
            failed = true;
        }
        // The work is done: stop stall detection before the flush/hold
        // tail, which makes no heartbeat progress by design.
        if let Some(watchdog) = self.watchdog {
            watchdog.disarm();
        }
        self.ctx.tracer.flush();
        let (lines, recorder) = match &self.sinks {
            None => (None, None),
            Some(SinkHandle::Plain(handle)) => {
                let lines = handle.lock().expect("sink lock").inner().lines_written();
                (Some(lines), None)
            }
            Some(SinkHandle::Flight(handle)) => {
                let ordered = handle.lock().expect("flight lock");
                let jsonl = ordered.inner().inner();
                let lines = jsonl.as_ref().map(JsonlSink::lines_written);
                (lines, Some(ordered))
            }
        };
        if let (Some(path), Some(lines)) = (&self.cli.trace, lines) {
            note(&format!(
                "trace: {lines} events \u{2192} {}\n",
                path.display()
            ));
        }
        if let (Some(ordered), Some(fcfg)) = (recorder, &self.cli.flight) {
            let recorder = ordered.inner();
            let stats = recorder.stats();
            note(&format!(
                "flight: {} trigger(s), {} incident dump(s) \u{2192} {}\n",
                stats.triggers,
                stats.incidents,
                fcfg.dir.display()
            ));
            for incident in recorder.incidents() {
                note(&format!(
                    "flight: incident {:04} [{}] at t={:.1}s \u{2192} {} ({} events)\n",
                    incident.seq,
                    incident.trigger.label(),
                    incident.at.as_secs_f64(),
                    incident.path.display(),
                    incident.events
                ));
            }
            for error in recorder.errors() {
                note(&format!("flight: error: {error}\n"));
                failed = true;
            }
        }
        if let Some((state, server)) = self.live {
            let _ = state.set_phase("done");
            let hold = self.cli.serve_hold_secs;
            if hold > 0 {
                note(&format!(
                    "metrics: holding endpoint for {hold}s (ctrl-c to stop early)\n"
                ));
                std::thread::sleep(Duration::from_secs(hold));
            }
            server.shutdown();
            live::uninstall();
        }
        ExitCode::from(u8::from(failed))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = aum_bench::experiments();
    let (command, cli) = match parse_args(&args, &experiments) {
        Ok(parsed) => parsed,
        Err(msg) => {
            note(&format!("error: {msg}\n{}", usage_text(&experiments)));
            return ExitCode::from(2);
        }
    };
    let mut driver = Driver::new(cli, experiments);
    let result = driver.install().and_then(|()| driver.dispatch(&command));
    driver.finish(result)
}
