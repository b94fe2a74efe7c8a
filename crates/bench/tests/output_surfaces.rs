//! Locks every output surface of the `repro` CLI beyond `repro all`
//! stdout: traces, their summary and Perfetto export, the attribution
//! study's `.prom` file, flight-recorder incident dumps and the
//! deterministic section of `perf-report`.
//!
//! Short stdout outputs are compared against plain golden text in
//! `tests/golden/`, so a diff shows what moved. Large files are compared
//! through 64-bit FNV-1a digests listed in `tests/golden/surfaces.digests`.
//! On a mismatch the test prints every new digest (and the first
//! differing golden line), so an intended change is one copy away; a
//! changed digest or golden file needs a CHANGES.md line saying why.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use aum_bench::perfetto;
use aum_sim::telemetry::parse_jsonl;

/// 64-bit FNV-1a over raw bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs `repro` in `dir` and returns its stdout; panics on a non-zero exit.
fn repro(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The incident dumps in `dir`, by file name.
fn incidents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("flight dir exists")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (
                name.into_owned(),
                std::fs::read(&path).expect("incident reads"),
            )
        })
        .collect();
    files.sort();
    files
}

/// Describes how `actual` departs from `expected`: line counts and the
/// first differing line.
fn first_difference(expected: &str, actual: &str) -> String {
    let (mut e, mut a) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (e.next(), a.next()) {
            (None, None) => return "line endings differ".to_string(),
            (x, y) if x == y => {}
            (x, y) => {
                return format!(
                    "{} vs {} lines; first difference at line {line}:\n  golden: {}\n  now:    {}",
                    expected.lines().count(),
                    actual.lines().count(),
                    x.unwrap_or("<end>"),
                    y.unwrap_or("<end>")
                )
            }
        }
    }
    unreachable!()
}

#[test]
fn every_output_surface_matches_its_golden() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("output_surfaces");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let read = |name: &str| std::fs::read(dir.join(name)).expect("output file exists");

    let mut texts: Vec<(&str, String)> = Vec::new();
    let mut digests: Vec<(String, u64)> = Vec::new();

    let stdout = repro(
        &dir,
        &["fig14", "--quick", "--jobs", "2", "--trace", "fig14.jsonl"],
    );
    texts.push(("fig14_quick.txt", stdout));
    digests.push(("fig14_quick.jsonl".into(), fnv1a(&read("fig14.jsonl"))));
    texts.push((
        "fig14_quick_trace_summary.txt",
        repro(&dir, &["trace-summary", "fig14.jsonl"]),
    ));
    repro(
        &dir,
        &[
            "trace-export",
            "fig14.jsonl",
            "--perfetto",
            "fig14.perfetto.json",
        ],
    );
    digests.push((
        "fig14_quick.perfetto.json".into(),
        fnv1a(&read("fig14.perfetto.json")),
    ));

    let stdout = repro(
        &dir,
        &[
            "attrib",
            "fig14",
            "--quick",
            "--jobs",
            "2",
            "--trace",
            "attrib.jsonl",
            "--metrics-out",
            "attrib.prom",
        ],
    );
    texts.push(("attrib_fig14_quick.txt", stdout));
    digests.push((
        "attrib_fig14_quick.jsonl".into(),
        fnv1a(&read("attrib.jsonl")),
    ));
    digests.push((
        "attrib_fig14_quick.prom".into(),
        fnv1a(&read("attrib.prom")),
    ));

    for (study, golden) in [
        ("chaos", "chaos_quick.txt"),
        ("fleet-chaos", "fleet_chaos_quick.txt"),
    ] {
        let flight = format!("{study}-flight");
        let stdout = repro(
            &dir,
            &[study, "--quick", "--jobs", "2", "--flight", &flight],
        );
        texts.push((golden, stdout));
        for (name, bytes) in incidents(&dir.join(&flight)) {
            // Each dump is one stretch of one run: time-sorted, and
            // accepted by the strict Perfetto exporter.
            let text = std::str::from_utf8(&bytes).expect("utf-8 dump");
            let records = parse_jsonl(text).expect("dump parses");
            assert!(
                records.windows(2).all(|w| w[0].at <= w[1].at),
                "{study} {name} is not time-sorted"
            );
            if let Err(e) = perfetto::export(&records) {
                panic!("{study} {name}: the Perfetto exporter rejects it: {e}");
            }
            digests.push((format!("{study}_quick/{name}"), fnv1a(&bytes)));
        }
    }

    // The full node-fault matrix: straggler, partition, rolling-drain and
    // the multi-fault script run only here.
    let stdout = repro(
        &dir,
        &["fleet-chaos", "--jobs", "2", "--trace", "fleet_chaos.jsonl"],
    );
    texts.push(("fleet_chaos.txt", stdout));
    digests.push((
        "fleet_chaos.jsonl".into(),
        fnv1a(&read("fleet_chaos.jsonl")),
    ));

    let stdout = repro(&dir, &["perf-report", "fig14", "--quick", "--jobs", "2"]);
    let start = stdout
        .find("== perf-report: fig14 (deterministic) ==")
        .expect("deterministic section");
    let end = stdout[start..]
        .find("== perf-report: fig14 (host timing")
        .map_or(stdout.len(), |i| start + i);
    texts.push((
        "perf_report_fig14_quick.txt",
        stdout[start..end].to_string(),
    ));

    let mut failures = String::new();
    for (name, actual) in &texts {
        let path = golden_dir().join(name);
        let expected = std::fs::read_to_string(&path).unwrap_or_default();
        if &expected != actual {
            let _ = writeln!(
                failures,
                "{}: {}",
                path.display(),
                first_difference(&expected, actual)
            );
        }
    }
    let committed = std::fs::read_to_string(golden_dir().join("surfaces.digests"))
        .expect("tests/golden/surfaces.digests exists");
    let committed: Vec<(&str, &str)> = committed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_once(' ').expect("`<name> <digest>` line"))
        .collect();
    let now: Vec<(String, String)> = digests
        .iter()
        .map(|(name, d)| (name.clone(), format!("{d:016x}")))
        .collect();
    let same = committed.len() == now.len()
        && committed
            .iter()
            .zip(&now)
            .all(|(c, n)| c.0 == n.0 && c.1 == n.1);
    if !same {
        let _ = writeln!(failures, "surfaces.digests differs; the new digests are:");
        for (name, d) in &now {
            let was = committed
                .iter()
                .find(|c| c.0 == name)
                .map_or("<absent>", |c| c.1);
            let note = if was == d {
                String::new()
            } else {
                format!("   <- was {was}")
            };
            let _ = writeln!(failures, "{name} {d}{note}");
        }
    }
    assert!(failures.is_empty(), "output surfaces moved:\n{failures}");
}
