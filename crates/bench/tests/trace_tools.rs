//! Trace-tooling integration tests: truncated-trace error reporting and
//! the Perfetto (Chrome Trace Event Format) exporter.
//!
//! These drive the same `parse_jsonl` → `perfetto::export` path as
//! `repro trace-export`, on synthetic traces small enough to assert on
//! exactly.

use aum_bench::perfetto;
use aum_sim::span::{self, SpanId, SpanKind};
use aum_sim::telemetry::{parse_jsonl, TraceRecord};
use aum_sim::time::SimTime;

fn at(secs: f64) -> SimTime {
    SimTime::ZERO + aum_sim::time::SimDuration::from_secs_f64(secs)
}

fn open(kind: SpanKind, payload: u64, parent: Option<SpanId>, label: &str, t: f64) -> TraceRecord {
    let label = Some(label.to_string());
    TraceRecord {
        at: at(t),
        event: span::open(kind, payload, parent, &"cell".into(), label),
    }
}

fn close(kind: SpanKind, payload: u64, t: f64) -> TraceRecord {
    TraceRecord {
        at: at(t),
        event: span::close(kind, payload, &"cell".into()),
    }
}

/// A small well-formed span trace: one request lifecycle containing a
/// prefill and one decode iteration.
fn span_trace() -> Vec<TraceRecord> {
    let (req, pre, dec) = (
        SpanKind::RequestLifecycle,
        SpanKind::Prefill,
        SpanKind::DecodeIteration,
    );
    let parent = Some(SpanId::derive(req, 7));
    vec![
        open(req, 7, None, "req 7", 0.0),
        open(pre, 7, parent, "prefill 7", 0.1),
        close(pre, 7, 0.4),
        open(dec, 1, parent, "decode 1", 0.5),
        close(dec, 1, 0.6),
        close(req, 7, 1.0),
    ]
}

fn to_jsonl(records: &[TraceRecord]) -> String {
    records
        .iter()
        .map(TraceRecord::to_jsonl)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn truncated_trace_reports_the_offending_line() {
    let jsonl = to_jsonl(&span_trace());
    // Simulate a crash mid-write: chop the last line in half.
    let cut = jsonl.len() - jsonl.lines().last().unwrap().len() / 2;
    let truncated = &jsonl[..cut];
    let err = parse_jsonl(truncated).expect_err("truncated trace must not parse");
    assert_eq!(err.line, 6, "the mid-line truncation is on line 6: {err}");
    assert!(
        err.to_string().starts_with("line 6: "),
        "display must carry the line number: {err}"
    );
    // Intact prefix still parses.
    let prefix = jsonl.lines().take(5).collect::<Vec<_>>().join("\n");
    assert_eq!(parse_jsonl(&prefix).expect("prefix parses").len(), 5);
}

#[test]
fn empty_and_blank_traces_parse_to_no_records() {
    assert!(parse_jsonl("")
        .expect("empty input is not malformed")
        .is_empty());
    assert!(parse_jsonl("\n  \n").expect("blank lines skip").is_empty());
}

#[test]
fn perfetto_export_round_trips_as_json_with_balanced_pairs() {
    let json = perfetto::export(&span_trace()).expect("well-formed trace exports");
    let value: serde_json::Value =
        serde_json::from_str(&json).expect("exported trace is valid JSON");
    drop(value);
    let begins = json.matches("\"ph\":\"B\"").count();
    let ends = json.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, 3, "three spans open");
    assert_eq!(begins, ends, "every B needs a matching E");
    for label in ["req 7", "prefill 7", "decode 1"] {
        assert!(json.contains(label), "span label {label:?} missing");
    }
}

#[test]
fn unbalanced_trace_is_refused_with_a_typed_error() {
    let mut records = span_trace();
    records.pop(); // drop the lifecycle close
    let err = perfetto::export(&records).expect_err("unbalanced stream must not export");
    assert!(
        err.contains("unbalanced span stream"),
        "unexpected error: {err}"
    );
}

#[test]
fn empty_trace_is_refused() {
    let err = perfetto::export(&[]).expect_err("empty trace must not export");
    assert!(err.contains("empty trace"), "unexpected error: {err}");
}
