//! Host-performance benchmark of the AUM simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <profile-cold|colocate-long|chaos-traced> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--write-digests]
//! ```
//!
//! Every input is generated from `--seed`; the simulator is driven only
//! through its public entry points, timed from outside, and every result is
//! checked. All measurements are host time or host memory; simulated
//! statistics are checked for identity, never scored. See `README.md`.

mod check;
mod host;
mod layers;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aum::profiler::AuvModel;
use aum_sim::flight::{FlightConfig, FlightRecorder};
use aum_sim::telemetry::{NullSink, OrderingSink, Tracer};

use check::{parse_digests, Verifier};
use layers::{median, quantile, LayerAcc, TimedSink, Traced, LAYER_METRICS};
use workload::{Op, OpKind, OpResult, Workload, CYCLES};

/// The seed whose per-op digests are committed under `digests/`.
const DEFAULT_SEED: u64 = 1;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// End-to-end metrics with their units, in `BENCHMARK.json` order.
const E2E_METRICS: [(&str, &str); 4] = [
    ("intervals_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

const USAGE: &str = "usage: perfbench --workload <profile-cold|colocate-long|chaos-traced> \
                     [--seed N] [--seconds S] [--trace 0|1] [--write-digests]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_digests: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::ProfileCold,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        write_digests: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--write-digests" {
            args.write_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Wall time, CPU time and simulated intervals of one grid pass, with the
/// wall and CPU seconds of each op in grid order.
struct PassOut {
    wall: f64,
    cpu: f64,
    intervals: u64,
    ops: Vec<(f64, f64)>,
}

// On a shared host, contention from other tenants arrives in bursts that
// only ever slow the work they hit; passes of identical work differed by
// up to a quarter within one run. So a pass's time is estimated op by op:
// the op at each grid position takes the lower quartile of its times over
// the run's passes (every cycle generates the same grid, with other seeds),
// and the pass estimate is their sum. This discards the ops a burst slowed;
// it cannot remove drift that slows a whole run.

/// Sum over grid positions of the lower quartile of `field` of that op.
fn fast_pass(outs: &[PassOut], field: fn(&(f64, f64)) -> f64) -> f64 {
    (0..outs[0].ops.len())
        .map(|i| {
            quantile(
                &outs.iter().map(|o| field(&o.ops[i])).collect::<Vec<_>>(),
                0.25,
            )
        })
        .sum()
}

/// Intervals per second of the op-wise fast-quartile pass.
fn fast_rate(outs: &[PassOut]) -> f64 {
    outs[0].intervals as f64 / fast_pass(outs, |op| op.0)
}

/// CPU seconds of the op-wise fast-quartile pass.
fn fast_cpu(outs: &[PassOut]) -> f64 {
    fast_pass(outs, |op| op.1)
}

/// What set-up produces: the AUV models built, and every cycle's pass.
type Prepared = (Vec<Arc<AuvModel>>, Vec<Vec<Op>>);

/// One workload process: its verifier and scratch directory.
struct Bench {
    workload: Workload,
    seed: u64,
    verifier: Verifier,
    /// Incident dumps of the flight recorder go here, inside the checkout.
    tmp: PathBuf,
}

impl Bench {
    fn new(
        workload: Workload,
        seed: u64,
        expected: Option<std::collections::HashMap<String, u64>>,
    ) -> Self {
        Bench {
            workload,
            seed,
            verifier: Verifier::new(expected),
            tmp: PathBuf::from(".bench_build").join(format!(
                "perfbench-{}-{}",
                workload.name(),
                std::process::id()
            )),
        }
    }

    /// Builds the set-up models and generates every cycle's pass. Build
    /// times land in `acc` when the traced pass asks for them.
    fn setup(&mut self, mut acc: Option<&mut LayerAcc>) -> Result<Prepared, String> {
        let mut models = Vec::new();
        for op in workload::setup_builds(self.workload, self.seed) {
            let t0 = Instant::now();
            let result = self.verifier.op(
                &op.label,
                || op.execute(&Tracer::disabled(), None),
                |r| op.digest(r),
            );
            if let Some(acc) = acc.as_deref_mut() {
                acc.build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            match result {
                Some(OpResult::Model(m)) => models.push(Arc::new(m)),
                _ => return Err(format!("set-up op {} failed", op.label)),
            }
        }
        let passes = workload::passes(self.workload, self.seed, &models);
        Ok((models, passes))
    }

    /// Runs one pass over `ops`. With `acc`, this is the traced pass: ops
    /// run inside the benchmark's own `bench.op` scope, managers and the
    /// telemetry sink are wrapped in timing delegates, and results are
    /// tallied per layer.
    fn run_pass(&mut self, ops: &[Op], k: usize, mut acc: Option<&mut LayerAcc>) -> PassOut {
        let dir = self.tmp.join(format!("pass-{k}"));
        let (tracer, sink) = if self.workload.traces_telemetry() {
            let recorder =
                FlightRecorder::with_inner(FlightConfig::new(&dir), OrderingSink::new(NullSink));
            let (tracer, sink) = Tracer::shared(TimedSink::new(recorder, acc.is_some()));
            (tracer, Some(sink))
        } else {
            (Tracer::disabled(), None)
        };
        let cpu0 = host::cpu_secs();
        let t0 = Instant::now();
        let mut op_times = Vec::with_capacity(ops.len());
        for op in ops {
            let op_cpu0 = host::cpu_secs();
            let op_t0 = Instant::now();
            let result = {
                let _span = aum_sim::prof::scope("bench.op");
                let ctl = acc.as_deref_mut().map(|a| &mut a.ctl);
                let result =
                    self.verifier
                        .op(&op.label, || op.execute(&tracer, ctl), |r| op.digest(r));
                // One flush per op, as a harness does per run: the ordering
                // sink forwards each run's records in sim-time order.
                // Experiment runs flush themselves; fleet runs do not.
                tracer.flush();
                result
            };
            let secs = op_t0.elapsed().as_secs_f64();
            op_times.push((secs, host::cpu_secs() - op_cpu0));
            if let (Some(acc), Some(result)) = (acc.as_deref_mut(), result) {
                absorb(acc, op, &result, secs * 1e3);
            }
        }
        let out = PassOut {
            wall: t0.elapsed().as_secs_f64(),
            cpu: host::cpu_secs() - cpu0,
            intervals: ops.iter().map(|o| o.intervals).sum(),
            ops: op_times,
        };
        if let Some(sink) = sink {
            let sink = sink.lock().expect("telemetry sink lock");
            for e in sink.inner.errors() {
                self.verifier.fail("flight-recorder", e);
            }
            if let Some(acc) = acc {
                let stats = sink.inner.stats();
                acc.records += sink.records;
                acc.sink_nanos += sink.nanos;
                acc.triggers += stats.triggers;
                acc.incidents += stats.incidents as u64;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    /// Whole passes, cycling through the inputs, until `budget` has elapsed
    /// and at least `min_passes` ran.
    fn run_phase(
        &mut self,
        passes: &[Vec<Op>],
        budget: Duration,
        min_passes: usize,
        mut acc: Option<&mut LayerAcc>,
    ) -> Vec<PassOut> {
        let t0 = Instant::now();
        let mut outs = Vec::new();
        while outs.len() < min_passes || t0.elapsed() < budget {
            let k = outs.len();
            outs.push(self.run_pass(&passes[k % passes.len()], k, acc.as_deref_mut()));
        }
        outs
    }

    /// The end-to-end run: set-up five times, then timed passes.
    fn untraced(&mut self, seconds: f64) -> Result<Vec<(&'static str, f64)>, String> {
        let mut setup_s = Vec::new();
        let mut passes = Vec::new();
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            passes = self.setup(None)?.1;
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let outs = self.run_phase(&passes, Duration::from_secs_f64(seconds), 1, None);
        report_passes(&outs);
        Ok(vec![
            ("intervals_per_s", fast_rate(&outs)),
            ("cpu_s", fast_cpu(&outs)),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", host::peak_rss_mb()),
        ])
    }

    /// The traced run: half the time untraced, half traced, then probes.
    fn traced(&mut self, seconds: f64) -> Result<Vec<(&'static str, f64)>, String> {
        let mut acc = LayerAcc::default();
        let (models, passes) = self.setup(Some(&mut acc))?;
        let half = Duration::from_secs_f64(seconds / 2.0);
        let plain = self.run_phase(&passes, half, 1, None);

        aum_sim::prof::reset();
        aum_sim::prof::set_enabled(true);
        let exec0 = aum_sim::exec::stats();
        let traced = self.run_phase(&passes, half, 1, Some(&mut acc));
        let exec = aum_sim::exec::stats().since(&exec0);
        aum_sim::prof::set_enabled(false);
        let prof = aum_sim::prof::snapshot();
        report_passes(&traced);

        let overhead_pct = 100.0 * (fast_rate(&plain) / fast_rate(&traced) - 1.0);
        let probes = layers::probes(&models[0], self.seed);
        let values = layers::layer_values(&Traced {
            acc: &acc,
            prof: &prof,
            exec,
            overhead_pct,
            probes: &probes,
        });
        Ok(LAYER_METRICS
            .iter()
            .map(|&(name, _)| (name, values[name]))
            .collect())
    }
}

/// Folds one traced op's result into the per-layer tallies.
fn absorb(acc: &mut LayerAcc, op: &Op, result: &OpResult, ms: f64) {
    if op.runs > 0 {
        acc.exp_runs += op.runs;
        acc.run_ms.push(ms / op.runs as f64);
    }
    match (result, &op.kind) {
        (OpResult::Model(_), _) => acc.build_ms.push(ms),
        (OpResult::Run(o), OpKind::Run { cfg, .. }) => {
            let secs = cfg.duration.as_secs_f64();
            acc.tokens += ((o.prefill_tps + o.decode_tps) * secs).round() as u64;
            acc.completed += o.completed;
            acc.ledger_rows += o.ledger.intervals.len() as u64;
        }
        (OpResult::Fleet(f), _) => {
            acc.fleet_ms.push(ms);
            acc.epochs += f.epochs;
            acc.redispatched += f.redispatched;
            acc.dropped += f.dropped;
            acc.shed += f.shed;
        }
        (OpResult::Run(_), _) => unreachable!("run results come from run ops"),
    }
}

fn report_passes(outs: &[PassOut]) {
    for (k, o) in outs.iter().enumerate() {
        eprintln!(
            "pass {k}: {} intervals in {:.3} s wall, {:.3} s cpu",
            o.intervals, o.wall, o.cpu
        );
    }
}

fn committed_digests(w: Workload) -> &'static str {
    match w {
        Workload::ProfileCold => include_str!("../digests/profile-cold.txt"),
        Workload::ColocateLong => include_str!("../digests/colocate-long.txt"),
        Workload::ChaosTraced => include_str!("../digests/chaos-traced.txt"),
    }
}

/// Regenerates the committed digests of the default seed at one thread:
/// set-up plus one pass per input cycle.
fn write_digests(w: Workload) -> Result<(), String> {
    aum_sim::exec::set_jobs(1);
    let mut bench = Bench::new(w, DEFAULT_SEED, None);
    let (_, passes) = bench.setup(None)?;
    bench.run_phase(&passes, Duration::ZERO, CYCLES, None);
    if bench.verifier.failed > 0 {
        return Err(format!("{} ops failed", bench.verifier.failed));
    }
    let mut text = format!(
        "# {}: FNV-1a digests of each op's printed results, seed {DEFAULT_SEED}, jobs 1.\n\
         # Regenerate with --write-digests only when simulated output changes on purpose.\n",
        w.name()
    );
    for (label, d) in &bench.verifier.fresh {
        text.push_str(&format!("{label} {d:016x}\n"));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("digests")
        .join(format!("{}.txt", w.name()));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "wrote {} digests to {}",
        bench.verifier.fresh.len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    host::pin_mmap_threshold();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if args.write_digests {
        return match write_digests(args.workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let jobs = args.workload.jobs().min(nproc);
    aum_sim::exec::set_jobs(jobs);

    let expected =
        (args.seed == DEFAULT_SEED).then(|| parse_digests(committed_digests(args.workload)));
    let mut bench = Bench::new(args.workload, args.seed, expected);
    let measured = if args.trace {
        bench.traced(args.seconds)
    } else {
        bench.untraced(args.seconds)
    };
    let _ = std::fs::remove_dir_all(&bench.tmp);
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.seed != DEFAULT_SEED {
        // No committed digests for this seed: print them so a later run of
        // another commit can be compared against this one.
        for (label, d) in &bench.verifier.fresh {
            eprintln!("digest {label} {d:016x}");
        }
    }

    let units: BTreeMap<&str, &str> = E2E_METRICS
        .iter()
        .chain(LAYER_METRICS.iter())
        .copied()
        .collect();
    let v = &bench.verifier;
    let mut correct = v.failed == 0;
    println!(
        "perfbench {} seed {} trace {} nproc {nproc} jobs {jobs}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut fields = Vec::new();
    for (name, value) in &measured {
        let value = if value.is_finite() {
            *value
        } else {
            eprintln!("FAILED metric {name} is not finite");
            correct = false;
            0.0
        };
        // `{value}` prints an f64 in full, shortest round-trip form and never
        // in exponent notation, so it is valid JSON as it stands.
        println!("  {name:<32} {value:>18} {}", units[name]);
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            units[name]
        ));
    }
    let fail_ratio = v.failed as f64 / v.attempted.max(1) as f64;
    println!(
        "  {:<32} {:>18} ratio ({} of {} ops)",
        "fail_ratio", fail_ratio, v.failed, v.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.attempted.max(1),
        v.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `(name, unit)` of every metric object in `BENCHMARK.json` (one
    /// object per line) plus the workload names.
    fn benchmark_json() -> (Vec<(String, String)>, Vec<String>) {
        let field = |line: &str, key: &str| -> Option<String> {
            let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let len = line[start..].find('"')?;
            Some(line[start..start + len].to_string())
        };
        let mut metrics = Vec::new();
        let mut workloads = Vec::new();
        for line in include_str!("../../BENCHMARK.json").lines() {
            match (field(line, "name"), field(line, "unit"), field(line, "why")) {
                (Some(n), Some(u), _) => metrics.push((n, u)),
                (Some(n), None, Some(_)) => workloads.push(n),
                _ => {}
            }
        }
        (metrics, workloads)
    }

    #[test]
    fn metric_names_are_valid_and_match_benchmark_json() {
        let (mut declared, workloads) = benchmark_json();
        let mut ours: Vec<(String, String)> = E2E_METRICS
            .iter()
            .chain(LAYER_METRICS.iter())
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        for (n, u) in &ours {
            assert!(valid_name(n), "bad metric name {n}");
            assert!(valid_unit(u), "bad unit {u} of {n}");
        }
        declared.sort();
        ours.sort();
        assert_eq!(declared, ours);
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn committed_digest_files_cover_every_cycle() {
        for w in Workload::ALL {
            let digests = parse_digests(committed_digests(w));
            for c in 0..CYCLES {
                assert!(
                    digests.keys().any(|l| l.starts_with(&format!("c{c}/"))),
                    "{} lacks cycle {c}",
                    w.name()
                );
            }
            assert!(digests.keys().any(|l| l.starts_with("setup/")));
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload chaos-traced --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ChaosTraced, 9, 3.0, true)
        );
        assert!(parse("--seed 9").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload profile-cold --trace 2").is_err());
        assert!(parse("--workload profile-cold --seconds").is_err());
    }
}
