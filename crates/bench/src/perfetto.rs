//! Chrome Trace Event Format export of span traces (`repro trace-export`).
//!
//! Converts a telemetry JSONL stream into the JSON object format that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
//! directly: `B`/`E` duration events reconstructed from the span stream,
//! one *process* per span track (experiment cell / profiler sweep), greedy
//! lane assignment of overlapping top-level spans onto *threads*, and `C`
//! counter events for iteration token throughput.
//!
//! The exporter is strict: a stream whose span opens and closes do not
//! pair up is refused with the underlying [`aum_sim::span::SpanError`]
//! rather than silently emitting an unbalanced trace.

use std::collections::BTreeMap;

use aum_sim::span::collect_spans;
use aum_sim::telemetry::{push_json_str, Event, TraceRecord};
use aum_sim::time::SimTime;

/// Microsecond timestamp on the Chrome trace clock.
fn ts(at: SimTime) -> f64 {
    at.as_secs_f64() * 1e6
}

/// `s` as a JSON string, quotes included, escaped by the trace encoder's
/// escaper.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Converts a parsed telemetry stream into Chrome Trace Event Format JSON.
///
/// # Errors
///
/// - the stream has no records, or no span events at all;
/// - the span stream is unbalanced (any [`aum_sim::span::SpanError`]);
/// - a reconstructed lane would require time to run backwards (cannot
///   happen for streams produced by [`aum_sim::telemetry::OrderingSink`],
///   checked anyway so a hand-edited trace fails loudly).
pub fn export(records: &[TraceRecord]) -> Result<String, String> {
    if records.is_empty() {
        return Err("empty trace: no records to export".into());
    }
    let forest = collect_spans(records).map_err(|e| format!("unbalanced span stream: {e}"))?;
    if forest.nodes.is_empty() {
        return Err(
            "trace contains no span events (was it recorded with --trace on a run \
             that emits spans?)"
                .into(),
        );
    }

    // One Chrome "process" per span track, in sorted track order so the
    // output is deterministic regardless of span close order.
    let mut pids: BTreeMap<&str, usize> = BTreeMap::new();
    for n in &forest.nodes {
        let next = pids.len() + 1;
        pids.entry(&n.track).or_insert(next);
    }

    let mut events: Vec<String> = Vec::new();
    for (track, pid) in &pids {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(track)
        ));
    }

    // Per track: sort the top-level spans by (open, id) and greedily pack
    // them onto lanes ("threads") whose previous occupant already closed,
    // so overlapping requests render side by side instead of clobbering
    // one another. Children inherit their parent's lane.
    for (track, pid) in &pids {
        let mut roots: Vec<usize> = forest
            .roots
            .iter()
            .copied()
            .filter(|&i| *forest.nodes[i].track == **track)
            .collect();
        roots.sort_by_key(|&i| (forest.nodes[i].open, forest.nodes[i].id));
        let mut lanes: Vec<SimTime> = Vec::new();
        for root in roots {
            let open = forest.nodes[root].open;
            let lane = match lanes.iter().position(|&busy_until| busy_until <= open) {
                Some(idx) => idx,
                None => {
                    lanes.push(SimTime::ZERO);
                    lanes.len() - 1
                }
            };
            lanes[lane] = forest.nodes[root].close;
            emit_subtree(&forest, root, *pid, lane + 1, &mut events)?;
        }
    }

    // Token-throughput counters ride along so Perfetto shows load next to
    // the spans. Counters are global (the engine does not tag iterations
    // with a track), so they live in a dedicated pid-0 process.
    let mut have_counters = false;
    for r in records {
        if let Event::IterationCompleted { phase, tokens, .. } = &r.event {
            if !have_counters {
                have_counters = true;
                events.push(
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                     \"args\":{\"name\":\"counters\"}}"
                        .to_string(),
                );
            }
            events.push(format!(
                "{{\"name\":\"tokens_{:?}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"tokens\":{tokens}}}}}",
                phase,
                ts(r.at)
            ));
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    Ok(out)
}

/// Emits the `B`/`E` pair for `node` and, nested inside, all its children
/// (sorted by open time) on the same lane. Verifies that emission order is
/// monotone in time — guaranteed for interval-nested children, so a
/// violation means the input invariants were broken upstream.
fn emit_subtree(
    forest: &aum_sim::span::SpanForest,
    node: usize,
    pid: usize,
    tid: usize,
    events: &mut Vec<String>,
) -> Result<(), String> {
    let n = &forest.nodes[node];
    let mut children = n.children.clone();
    children.sort_by_key(|&c| (forest.nodes[c].open, forest.nodes[c].id));
    let mut last = n.open;
    for &c in &children {
        let child = &forest.nodes[c];
        if child.open < last || child.close > n.close {
            return Err(format!(
                "span {:#x} ({}) escapes its parent {:#x} on track {:?} — \
                 non-monotone lane",
                child.id, child.label, n.id, n.track
            ));
        }
        last = child.close;
    }
    let name = json_str(&n.label);
    events.push(format!(
        "{{\"name\":{name},\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{:.3},\"pid\":{pid},\"tid\":{tid}}}",
        n.kind.label(),
        ts(n.open)
    ));
    for &c in &children {
        emit_subtree(forest, c, pid, tid, events)?;
    }
    events.push(format!(
        "{{\"name\":{name},\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{:.3},\"pid\":{pid},\"tid\":{tid}}}",
        n.kind.label(),
        ts(n.close)
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aum_sim::span::{self, SpanId, SpanKind};
    use aum_sim::time::SimDuration;

    fn rec(at_secs: f64, event: Event) -> TraceRecord {
        TraceRecord {
            at: SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
            event,
        }
    }

    fn open(id: SpanId, parent: Option<SpanId>, kind: SpanKind, at: f64) -> TraceRecord {
        let label = Some(format!("{} {}", kind.label(), id.payload()));
        rec(
            at,
            span::open(kind, id.payload(), parent, &"run".into(), label),
        )
    }

    fn close(id: SpanId, kind: SpanKind, at: f64) -> TraceRecord {
        rec(at, span::close(kind, id.payload(), &"run".into()))
    }

    #[test]
    fn export_emits_balanced_pairs_with_nesting() {
        let req = SpanId::derive(SpanKind::RequestLifecycle, 1);
        let dec = SpanId::derive(SpanKind::DecodeIteration, 0);
        let records = vec![
            open(req, None, SpanKind::RequestLifecycle, 0.0),
            open(dec, Some(req), SpanKind::DecodeIteration, 0.2),
            close(dec, SpanKind::DecodeIteration, 0.3),
            close(req, SpanKind::RequestLifecycle, 1.0),
        ];
        let json = export(&records).expect("balanced stream exports");
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2, "{json}");
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2, "{json}");
        assert!(json.contains("\"name\":\"request 1\""), "{json}");
        // Nesting: the child's B comes after the parent's B and its E
        // before the parent's E.
        let pb = json.find("\"name\":\"request 1\",\"cat\":\"request\",\"ph\":\"B\"");
        let cb = json.find("\"name\":\"decode 0\",\"cat\":\"decode\",\"ph\":\"B\"");
        assert!(pb < cb, "{json}");
    }

    #[test]
    fn overlapping_roots_get_distinct_lanes() {
        let a = SpanId::derive(SpanKind::RequestLifecycle, 1);
        let b = SpanId::derive(SpanKind::RequestLifecycle, 2);
        let records = vec![
            open(a, None, SpanKind::RequestLifecycle, 0.0),
            open(b, None, SpanKind::RequestLifecycle, 0.5),
            close(a, SpanKind::RequestLifecycle, 1.0),
            close(b, SpanKind::RequestLifecycle, 1.5),
        ];
        let json = export(&records).expect("overlap exports");
        assert!(json.contains("\"tid\":1"), "{json}");
        assert!(json.contains("\"tid\":2"), "{json}");
    }

    #[test]
    fn unbalanced_stream_is_refused() {
        let a = SpanId::derive(SpanKind::RequestLifecycle, 1);
        let err = export(&[open(a, None, SpanKind::RequestLifecycle, 0.0)]).unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");
        assert!(export(&[]).unwrap_err().contains("empty trace"));
    }

    #[test]
    fn spanless_trace_is_refused() {
        let records = vec![rec(
            1.0,
            Event::RequestFinished {
                id: 1,
                generated: 4,
                mean_tpot_secs: 0.05,
                ttft_secs: 0.4,
            },
        )];
        assert!(export(&records).unwrap_err().contains("no span events"));
    }

    #[test]
    fn counters_ride_along() {
        use aum_sim::telemetry::PhaseKind;
        let a = SpanId::derive(SpanKind::ControllerInterval, 0);
        let records = vec![
            open(a, None, SpanKind::ControllerInterval, 0.0),
            rec(
                0.5,
                Event::IterationCompleted {
                    phase: PhaseKind::Decode,
                    batch: 4,
                    tokens: 4,
                    duration_secs: 0.01,
                },
            ),
            close(a, SpanKind::ControllerInterval, 1.0),
        ];
        let json = export(&records).expect("exports");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("tokens_Decode"), "{json}");
    }

    #[test]
    fn fleet_traces_export_per_node_tracks() {
        fn pair(
            kind: SpanKind,
            payload: u64,
            track: &str,
            label: &str,
            t0: f64,
            t1: f64,
        ) -> [TraceRecord; 2] {
            let (track, label) = (track.into(), Some(label.to_string()));
            [
                rec(t0, span::open(kind, payload, None, &track, label)),
                rec(t1, span::close(kind, payload, &track)),
            ]
        }
        // The shape `run_fleet_traced` emits: epochs on the fleet track, health
        // episodes and hops on per-node tracks.
        let mut records = Vec::new();
        records.extend(pair(
            SpanKind::FleetEpoch,
            0,
            "fleet/failover",
            "epoch 0",
            0.0,
            1.0,
        ));
        records.extend(pair(
            SpanKind::NodeHealthEpisode,
            1 << 40,
            "fleet/failover/node1",
            "Suspect",
            0.2,
            0.9,
        ));
        records.extend(pair(
            SpanKind::RedispatchHop,
            (1 << 40) | 1,
            "fleet/failover/node0",
            "batch r2a2 x12",
            0.3,
            2.0,
        ));
        let json = export(&records).expect("fleet trace exports");
        // One Chrome process (pid) per track, named after the track.
        for track in [
            "fleet/failover",
            "fleet/failover/node0",
            "fleet/failover/node1",
        ] {
            assert!(
                json.contains(&format!("\"name\":\"{track}\"")),
                "missing process for {track}: {json}"
            );
        }
        let pids: std::collections::BTreeSet<&str> = json
            .match_indices("\"process_name\"")
            .map(|(i, _)| &json[i..json[i..].find('}').unwrap() + i])
            .collect();
        assert_eq!(pids.len(), 3, "{json}");
        assert!(json.contains("\"name\":\"batch r2a2 x12\""), "{json}");
        assert!(json.contains("\"cat\":\"hop\""), "{json}");
        assert!(json.contains("\"cat\":\"health\""), "{json}");
        assert!(json.contains("\"cat\":\"epoch\""), "{json}");
        serde_json::from_str::<serde_json::Value>(&json).expect("valid JSON");
    }

    #[test]
    fn labels_are_json_escaped() {
        let (fault, track) = (SpanKind::FaultWindow, "t\"q\"\\w".into());
        let label = Some("line\nbreak".to_string());
        let records = vec![
            rec(0.0, span::open(fault, 0, None, &track, label)),
            rec(1.0, span::close(fault, 0, &track)),
        ];
        let json = export(&records).expect("exports");
        assert!(json.contains("line\\nbreak"), "{json}");
        assert!(json.contains("t\\\"q\\\"\\\\w"), "{json}");
        // Still parses as JSON.
        serde_json::from_str::<serde_json::Value>(&json).expect("valid JSON");
    }
}
