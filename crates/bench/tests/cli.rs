//! Locks the `repro` command line: the help text, `list`, every
//! argument rejection with its exit code and first stderr line, and the
//! trace tools' handling of unreadable, malformed and empty traces.
//!
//! No case runs a simulation, so the whole file takes seconds even in a
//! debug build. Output surfaces of real runs are locked by
//! `output_surfaces.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;

use aum_sim::span::SpanKind;
use aum_sim::telemetry::{Event, TraceRecord};
use aum_sim::time::SimTime;

/// A finished `repro` invocation.
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

impl Run {
    fn first_stderr_line(&self) -> &str {
        self.stderr.lines().next().unwrap_or("")
    }
}

/// A fresh, empty scratch directory private to one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn repro_cmd(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).current_dir(dir);
    cmd
}

fn repro(dir: &Path, args: &[&str]) -> Run {
    let out = repro_cmd(dir, args).output().expect("repro runs");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

#[test]
fn help_prints_the_golden_usage_text() {
    let dir = scratch("help");
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/help.txt"),
    )
    .expect("golden help text");
    for args in [&["help"][..], &["--help"], &["fig14", "--quick", "--help"]] {
        let run = repro(&dir, args);
        assert_eq!(run.code, Some(0), "repro {args:?}: {}", run.stderr);
        assert_eq!(run.stdout, golden, "repro {args:?}");
        assert_eq!(run.stderr, "", "repro {args:?}");
    }
}

#[test]
fn list_prints_every_experiment_id() {
    let run = repro(&scratch("list"), &["list"]);
    assert_eq!(run.code, Some(0), "{}", run.stderr);
    let expected: String = aum_bench::experiments()
        .iter()
        .map(|(id, _)| format!("{id}\n"))
        .collect();
    assert_eq!(run.stdout, expected);
}

#[test]
fn malformed_arguments_exit_2_with_the_reason_first() {
    let dir = scratch("usage");
    let ids: Vec<&str> = aum_bench::experiments().iter().map(|(id, _)| *id).collect();
    let unknown_study = format!(
        "error: unknown study `nope` (expected one of: {})",
        ids.join(", ")
    );
    let cases: &[(&[&str], &str)] = &[
        (&[], "error: missing command"),
        (&["fig14", "--bogus"], "error: unknown flag `--bogus`"),
        (&["fig14", "--out"], "error: --out requires a directory"),
        (
            &["fig14", "--quick", "--quick"],
            "error: --quick given twice",
        ),
        (
            &["list", "--quick"],
            "error: --quick is only valid with: <id>|all, chaos, fleet-chaos, attrib, perf-report",
        ),
        (
            &["fig14", "--flight-capacity", "8"],
            "error: unknown flag `--flight-capacity`",
        ),
        (
            &["fig14", "--serve-hold", "3"],
            "error: --serve-hold requires --serve-metrics",
        ),
        (
            &["fig14", "--jobs", "0"],
            "error: --jobs must be at least 1",
        ),
        (
            &["trace-diff", "a.jsonl", "b.jsonl", "--threshold", "-1"],
            "error: unknown flag `--threshold`",
        ),
        (
            &["fig14", "--flight", "f", "--flight-window", "0"],
            "error: unknown flag `--flight-window`",
        ),
        (
            &["attrib"],
            "error: attrib requires a study name (fig14 or chaos)",
        ),
        (
            &["trace-diff", "a.jsonl"],
            "error: trace-diff requires two trace files",
        ),
        (
            &["trace-export", "a.jsonl"],
            "error: trace-export requires --perfetto <out.json>",
        ),
        (&["list", "extra"], "error: unexpected argument `extra`"),
        (&["nope"], "error: unknown experiment `nope`"),
        (&["perf-report", "nope"], &unknown_study),
    ];
    for (args, first_line) in cases {
        let run = repro(&dir, args);
        assert_eq!(run.code, Some(2), "repro {args:?}: {}", run.stderr);
        assert_eq!(run.first_stderr_line(), *first_line, "repro {args:?}");
        assert_eq!(run.stdout, "", "repro {args:?}");
    }
}

#[test]
fn unknown_attrib_study_is_rejected() {
    let run = repro(&scratch("attrib"), &["attrib", "nope"]);
    assert_eq!(run.code, Some(2), "{}", run.stderr);
    assert_eq!(
        run.first_stderr_line(),
        "error: unknown attrib study 'nope' (expected 'fig14' or 'chaos')"
    );
}

#[test]
fn rejected_names_create_no_output_paths() {
    let dir = scratch("no_outputs");
    for args in [&["nope"][..], &["attrib", "nope"], &["perf-report", "nope"]] {
        let args = [args, &["--trace", "t.jsonl", "--out", "d"]].concat();
        let run = repro(&dir, &args);
        assert_eq!(run.code, Some(2), "repro {args:?}: {}", run.stderr);
        assert!(!dir.join("t.jsonl").exists(), "repro {args:?} made t.jsonl");
        assert!(!dir.join("d").exists(), "repro {args:?} made d/");
    }
}

#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    let dir = scratch("closed_stdout");
    // The traced study still ends through the finish stage, which flushes
    // and reports the sink.
    let cases: [(&[&str], &str); 3] = [
        (&["list"], ""),
        (&["help"], ""),
        (&["table1", "--trace", "t.jsonl"], "trace: 0 events"),
    ];
    for (args, reported) in cases {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = repro_cmd(&dir, args)
            .stdout(writer)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
        assert!(stderr.contains(reported), "repro {args:?}: {stderr}");
    }
}

#[test]
fn closed_stderr_keeps_the_exit_code() {
    let dir = scratch("closed_stderr");
    // A rejection writes its usage to stderr and a study its `completed
    // in` line; a closed stderr must change neither exit code.
    for (args, code) in [(&["nope"][..], 2), (&["table1"], 0)] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = repro_cmd(&dir, args)
            .stderr(writer)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(code), "repro {args:?}");
    }
}

#[test]
fn a_failed_output_write_exits_1() {
    let dir = scratch("failed_write");
    std::fs::create_dir_all(dir.join("d/table1.txt")).expect("a directory where the file goes");
    let run = repro(&dir, &["table1", "--out", "d"]);
    assert_eq!(run.code, Some(1), "{}", run.stderr);
    assert!(run.stderr.contains("cannot write"), "{}", run.stderr);
}

#[test]
fn trace_tools_reject_unreadable_malformed_and_empty_traces() {
    let dir = scratch("trace_tools");
    let record = TraceRecord {
        at: SimTime::ZERO,
        event: Event::SpanClose {
            id: 1,
            kind: SpanKind::Prefill,
            track: "cell".into(),
        },
    };
    let line = record.to_jsonl();
    std::fs::write(dir.join("bad.jsonl"), format!("{line}\n{{\"at\":\n")).expect("write");
    std::fs::write(dir.join("empty.jsonl"), "").expect("write");
    let tools = |file: &'static str| -> [Vec<&'static str>; 3] {
        [
            vec!["trace-summary", file],
            vec!["trace-diff", file, file],
            vec!["trace-export", file, "--perfetto", "out.json"],
        ]
    };
    for args in tools("missing.jsonl") {
        let run = repro(&dir, &args);
        assert_eq!(run.code, Some(1), "repro {args:?}: {}", run.stderr);
        assert!(
            run.stderr.contains("cannot read"),
            "repro {args:?}: {}",
            run.stderr
        );
    }
    for args in tools("bad.jsonl") {
        let run = repro(&dir, &args);
        assert_eq!(run.code, Some(1), "repro {args:?}: {}", run.stderr);
        assert!(
            run.stderr.contains("bad.jsonl") && run.stderr.contains("line 2"),
            "repro {args:?} must name the file and the line: {}",
            run.stderr
        );
    }
    let [summary, diff, export] = tools("empty.jsonl");
    let run = repro(&dir, &summary);
    assert_eq!(run.code, Some(0), "{}", run.stderr);
    assert_eq!(run.stdout, "empty trace: no records\n");
    for args in [diff, export] {
        let run = repro(&dir, &args);
        assert_eq!(run.code, Some(1), "repro {args:?}: {}", run.stderr);
        assert!(
            run.stderr.contains("empty trace"),
            "repro {args:?}: {}",
            run.stderr
        );
    }
    assert!(!dir.join("out.json").exists(), "no export from a bad trace");
}
