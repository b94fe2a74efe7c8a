//! Post-hoc analysis of telemetry traces: turns a JSONL event stream into
//! a causal timeline (breach → controller action with its reason →
//! recovery), per-event-type counts, and controller decision statistics.
//!
//! Consumed by `repro trace-summary <file.jsonl>`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use aum_sim::flight::{BURN_WINDOW_SECS, ERROR_BUDGET};
use aum_sim::hist::LogHistogram;
use aum_sim::span::{collect_spans, SpanId, SpanKind};
use aum_sim::telemetry::{
    DecisionKind, Event, MetricsSnapshot, NodeHealth, SlackVerdict, SloMetric, TraceRecord,
};
use aum_sim::SimTime;

/// Timeline entries beyond this count are elided from the middle so a
/// long run stays readable.
const TIMELINE_CAP: usize = 60;

fn secs(at: SimTime) -> f64 {
    at.as_secs_f64()
}

fn metric_name(metric: SloMetric) -> &'static str {
    match metric {
        SloMetric::Ttft => "TTFT",
        SloMetric::Tpot => "TPOT",
    }
}

fn kind_name(kind: DecisionKind) -> &'static str {
    match kind {
        DecisionKind::Harvest => "harvest",
        DecisionKind::Return => "return",
        DecisionKind::Switch => "switch",
    }
}

/// Renders the full summary for a parsed trace.
#[must_use]
pub fn summarize(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    if records.is_empty() {
        out.push_str("empty trace: no records\n");
        return out;
    }
    // A trace may concatenate several runs (each restarting its sim
    // clock), so span over min/max rather than first/last.
    let lo = records.iter().map(|r| r.at).min().unwrap_or(SimTime::ZERO);
    let hi = records.iter().map(|r| r.at).max().unwrap_or(SimTime::ZERO);
    let _ = writeln!(
        out,
        "trace: {} events spanning t={:.1}s .. t={:.1}s",
        records.len(),
        secs(lo),
        secs(hi)
    );

    out.push_str(&event_counts(records));
    out.push_str(&decision_stats(records));
    out.push_str(&attribution_stats(records));
    out.push_str(&slo_digest(records));
    out.push_str(&fleet_digest(records));
    out.push_str(&worst_request_drilldown(records));
    out.push_str(&timeline(records));
    out
}

/// How many health transitions a node's timeline row prints before
/// eliding the rest.
const HEALTH_TIMELINE_CAP: usize = 8;

/// The fleet health digest: per-node health timeline table, redispatch
/// hop-chain depth distribution, shed-by-class breakdown, and a
/// worst-node drill-down carrying the node's last metric snapshot.
/// Absent when the trace holds no fleet events (single-node traces).
fn fleet_digest(records: &[TraceRecord]) -> String {
    let mut timelines: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut down_count: BTreeMap<usize, usize> = BTreeMap::new();
    let mut strands: BTreeMap<usize, u64> = BTreeMap::new();
    let mut depth: BTreeMap<u32, u64> = BTreeMap::new();
    let mut shed_by_class: BTreeMap<&str, u64> = BTreeMap::new();
    let mut snapshots: BTreeMap<usize, (&String, &MetricsSnapshot)> = BTreeMap::new();
    let mut fleet_events = 0usize;
    for r in records {
        match &r.event {
            Event::NodeHealthTransition { node, from, to, .. } => {
                fleet_events += 1;
                timelines
                    .entry(*node)
                    .or_default()
                    .push(format!("t={:.0}s {from:?}\u{2192}{to:?}", secs(r.at)));
                if *to == NodeHealth::Down {
                    *down_count.entry(*node).or_insert(0) += 1;
                }
            }
            Event::RequestRedispatch {
                node,
                count,
                attempt,
                ..
            } => {
                fleet_events += 1;
                *strands.entry(*node).or_insert(0) += count;
                *depth.entry(*attempt).or_insert(0) += count;
            }
            Event::LoadShed { class, count, .. } => {
                fleet_events += 1;
                *shed_by_class.entry(class.as_str()).or_insert(0) += count;
            }
            Event::NodeMetricsSnapshot {
                node,
                label,
                snapshot,
            } => {
                fleet_events += 1;
                // Later snapshots overwrite earlier ones: the drill-down
                // wants each node's freshest state.
                snapshots.insert(*node, (label, snapshot));
            }
            Event::NodeFault { .. } => fleet_events += 1,
            _ => {}
        }
    }
    if fleet_events == 0 {
        return String::new();
    }
    let mut out = String::from("\nfleet health digest:\n");
    if timelines.is_empty() {
        out.push_str("  per-node health timeline: no transitions recorded\n");
    } else {
        out.push_str("  per-node health timeline:\n");
        for (node, entries) in &timelines {
            let shown = entries
                .iter()
                .take(HEALTH_TIMELINE_CAP)
                .cloned()
                .collect::<Vec<_>>()
                .join("  ");
            let elided = entries.len().saturating_sub(HEALTH_TIMELINE_CAP);
            let tail = if elided > 0 {
                format!("  \u{2026} {elided} more")
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "    node {node}: {} transition(s)  {shown}{tail}",
                entries.len()
            );
        }
    }
    if depth.is_empty() {
        out.push_str("  hop chains: none (no requests stranded)\n");
    } else {
        let total: u64 = depth.values().sum();
        let deepest = depth.keys().max().copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "  hop-chain depth distribution ({total} stranded dispatches, deepest chain \
             attempt {deepest}):"
        );
        for (attempt, n) in &depth {
            let _ = writeln!(out, "    attempt {attempt}: {n} request(s)");
        }
    }
    if !shed_by_class.is_empty() {
        let total: u64 = shed_by_class.values().sum();
        let line = shed_by_class
            .iter()
            .map(|(c, n)| format!("{c} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  shed by class: {total} total ({line})");
    }
    // Worst node: most stranded requests, ties to the most Down
    // transitions, then the lowest index.
    let mut candidates: Vec<usize> = timelines.keys().copied().collect();
    for n in strands.keys() {
        if !candidates.contains(n) {
            candidates.push(*n);
        }
    }
    if let Some(&worst) = candidates.iter().max_by_key(|n| {
        (
            strands.get(n).copied().unwrap_or(0),
            down_count.get(n).copied().unwrap_or(0),
            std::cmp::Reverse(**n),
        )
    }) {
        let _ = writeln!(
            out,
            "  worst-node drill-down: node {worst} ({} stranded request(s), {} Down \
             transition(s))",
            strands.get(&worst).copied().unwrap_or(0),
            down_count.get(&worst).copied().unwrap_or(0)
        );
        match snapshots.get(&worst) {
            Some((label, snap)) => {
                let counters = snap
                    .counters
                    .iter()
                    .map(|(k, v)| format!("{k} {v}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(
                    out,
                    "    last snapshot [{label}] at t={:.0}s: {}",
                    secs(snap.at),
                    if counters.is_empty() {
                        "no counters yet".to_string()
                    } else {
                        counters
                    }
                );
            }
            None => out.push_str("    no metric snapshot in trace\n"),
        }
    }
    out
}

/// One metric's windowed burn rates against its target, under the flight
/// recorder's burn policy ([`ERROR_BUDGET`], [`BURN_WINDOW_SECS`]).
/// `samples` are `(run, sim secs, value)`; a window belongs to one run.
fn burn_lines(out: &mut String, samples: &[(usize, f64, f64)], target: f64) -> bool {
    let mut all_burning = true;
    for w in BURN_WINDOW_SECS.map(|s| s as f64) {
        let mut windows: BTreeMap<(usize, u64), (usize, usize)> = BTreeMap::new();
        for &(run, at, v) in samples {
            let e = windows.entry((run, (at / w) as u64)).or_insert((0, 0));
            e.1 += 1;
            e.0 += usize::from(v > target);
        }
        let burns: Vec<((usize, u64), f64)> = windows
            .iter()
            .map(|(key, (bad, n))| (*key, *bad as f64 / *n as f64 / ERROR_BUDGET))
            .collect();
        let burning = burns.iter().filter(|(_, b)| *b > 1.0).count();
        let peak = burns
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        match peak {
            Some(((_, idx), b)) => {
                let _ = writeln!(
                    out,
                    "    {w:>4.0}s windows: {burning}/{} burning, peak {b:.1}x at t={:.0}s",
                    burns.len(),
                    idx as f64 * w
                );
            }
            None => {
                let _ = writeln!(out, "    {w:>4.0}s windows: no samples");
            }
        }
        all_burning &= burning > 0;
    }
    all_burning
}

/// Tags each record with its run: the latest [`Event::SloTargets`]
/// preamble at or before it, counted from 0 (records before the first
/// preamble belong to the first run). Every run opens with its preamble
/// and reaches the trace as one sorted segment, so a run's records are
/// contiguous and its clock restarts with it.
fn with_runs(records: &[TraceRecord]) -> impl Iterator<Item = (usize, &TraceRecord)> {
    let mut preambles = 0usize;
    records.iter().map(move |r| {
        preambles += usize::from(matches!(r.event, Event::SloTargets { .. }));
        (preambles.saturating_sub(1), r)
    })
}

/// The SLO burn-rate digest: per-metric percentiles (from the same
/// log-linear histograms the reports use), total violations against the
/// trace's recorded targets, and multi-window burn rates. Absent when the
/// trace carries no [`Event::SloTargets`] (pre-span traces).
///
/// A trace may hold several runs ([`with_runs`]), each opening with its
/// own [`Event::SloTargets`] preamble. Every request is judged against its
/// own run's targets, each metric prints one block per distinct target in
/// first-seen order, and no burn window spans two runs.
fn slo_digest(records: &[TraceRecord]) -> String {
    let mut runs: Vec<[f64; 2]> = Vec::new();
    let mut ttft: Vec<(usize, f64, f64)> = Vec::new();
    let mut tpot: Vec<(usize, f64, f64)> = Vec::new();
    for (run, r) in with_runs(records) {
        match r.event {
            Event::SloTargets {
                ttft_secs,
                tpot_secs,
            } => runs.push([ttft_secs, tpot_secs]),
            Event::RequestFinished {
                generated,
                mean_tpot_secs,
                ttft_secs,
                ..
            } => {
                ttft.push((run, secs(r.at), ttft_secs));
                if generated > 0 {
                    tpot.push((run, secs(r.at), mean_tpot_secs));
                }
            }
            _ => {}
        }
    }
    if runs.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "\nSLO burn-rate digest (error budget {:.1}% of requests):\n",
        ERROR_BUDGET * 100.0
    );
    if ttft.is_empty() {
        out.push_str("  no finished requests in trace\n");
        return out;
    }
    let mut alerts = Vec::new();
    for (m, name, samples) in [(0, "TTFT", &ttft), (1, "TPOT (per-request mean)", &tpot)] {
        let mut distinct: Vec<u64> = Vec::new();
        for targets in &runs {
            if !distinct.contains(&targets[m].to_bits()) {
                distinct.push(targets[m].to_bits());
            }
        }
        let mut burning = false;
        for target in distinct.into_iter().map(f64::from_bits) {
            let samples: Vec<(usize, f64, f64)> = samples
                .iter()
                .copied()
                .filter(|s| runs[s.0][m].to_bits() == target.to_bits())
                .collect();
            if samples.is_empty() {
                let _ = writeln!(out, "  {name} (target {target:.3}s): no samples");
                continue;
            }
            let hist: LogHistogram = samples.iter().map(|s| s.2).collect();
            let bad = samples.iter().filter(|s| s.2 > target).count();
            let _ = writeln!(
                out,
                "  {name} (target {target:.3}s): {} requests, p50 {:.3}s p99 {:.3}s, \
                 violations {bad} ({:.1}%)",
                hist.count(),
                hist.quantile(0.5),
                hist.quantile(0.99),
                bad as f64 / samples.len() as f64 * 100.0
            );
            burning |= burn_lines(&mut out, &samples, target);
        }
        if burning {
            alerts.push(name);
        }
    }
    let _ = match alerts.as_slice() {
        [] => writeln!(out, "  alert: none (no metric burns in both windows)"),
        names => writeln!(
            out,
            "  alert: PAGE — {} burning in both the {}s and {}s windows",
            names.join(" and "),
            BURN_WINDOW_SECS[0],
            BURN_WINDOW_SECS[1]
        ),
    };
    out
}

/// How many child spans the drill-down prints before eliding.
const DRILLDOWN_CHILD_CAP: usize = 6;

/// Finds the worst-TTFT request in the trace and walks its lifecycle span
/// in the request's own run ([`with_runs`]; request ids repeat across
/// runs): open/close interval, nested prefill steps, and the decode
/// iterations that overlapped it on the same track. Absent when the run
/// carries no spans for the worst request (pre-span traces).
fn worst_request_drilldown(records: &[TraceRecord]) -> String {
    let worst = with_runs(records)
        .filter_map(|(run, r)| match r.event {
            Event::RequestFinished { id, ttft_secs, .. } => Some((id, ttft_secs, run)),
            _ => None,
        })
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
    let Some((id, ttft, run)) = worst else {
        return String::new();
    };
    let start = with_runs(records).position(|(r, _)| r == run).unwrap_or(0);
    let end = with_runs(records)
        .position(|(r, _)| r > run)
        .unwrap_or(records.len());
    let Ok(forest) = collect_spans(&records[start..end]) else {
        return String::new();
    };
    let span_id = SpanId::derive(SpanKind::RequestLifecycle, id).0;
    let Some(node) = forest
        .nodes
        .iter()
        .find(|n| n.id == span_id && n.kind == SpanKind::RequestLifecycle)
    else {
        return String::new();
    };
    let mut out = format!(
        "\nworst-TTFT request drill-down (request {id}, TTFT {ttft:.3}s, track {:?}):\n",
        node.track
    );
    let _ = writeln!(
        out,
        "  lifecycle t={:.3}s .. t={:.3}s ({:.3}s, {} child span(s))",
        secs(node.open),
        secs(node.close),
        node.duration_secs(),
        node.children.len()
    );
    for &c in node.children.iter().take(DRILLDOWN_CHILD_CAP) {
        let child = &forest.nodes[c];
        let _ = writeln!(
            out,
            "    {} t={:.3}s .. t={:.3}s ({:.4}s)",
            child.label,
            secs(child.open),
            secs(child.close),
            child.duration_secs()
        );
    }
    if node.children.len() > DRILLDOWN_CHILD_CAP {
        let _ = writeln!(
            out,
            "    … {} more elided",
            node.children.len() - DRILLDOWN_CHILD_CAP
        );
    }
    let decode_overlap = forest
        .of_kind(SpanKind::DecodeIteration)
        .filter(|d| d.track == node.track && d.open < node.close && d.close > node.open)
        .count();
    let _ = writeln!(
        out,
        "  decode iterations overlapping on this track: {decode_overlap}"
    );
    out
}

/// Aggregate attribution over `AttributionSample` events: total time share
/// per cause across every sampled region, plus the dominant loss. Absent
/// when the trace carries no samples (pre-ledger traces).
fn attribution_stats(records: &[TraceRecord]) -> String {
    use aum_sim::attrib::CauseVec;

    let mut total = CauseVec::zero();
    let mut samples = 0usize;
    for r in records {
        if let Event::AttributionSample { time, .. } = &r.event {
            total.accumulate(time);
            samples += 1;
        }
    }
    if samples == 0 {
        return String::new();
    }
    let sum = total.sum();
    let mut out = String::from("\nattribution (time share across sampled regions):\n");
    let mut shares: Vec<_> = total.iter().filter(|(_, v)| *v > 0.0).collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let line = shares
        .iter()
        .map(|(c, v)| {
            format!(
                "{} {:.1}%",
                c.label(),
                v / sum.max(f64::MIN_POSITIVE) * 100.0
            )
        })
        .collect::<Vec<_>>()
        .join(" | ");
    let _ = writeln!(out, "  {samples} samples: {line}");
    if let Some((cause, v)) = total.dominant_loss(sum) {
        let _ = writeln!(
            out,
            "  dominant loss: {} ({:.1}% of attributed time)",
            cause.label(),
            v / sum.max(f64::MIN_POSITIVE) * 100.0
        );
    }
    out
}

/// Per-event-type counts, alphabetical by label.
fn event_counts(records: &[TraceRecord]) -> String {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in records {
        *counts.entry(r.event.kind_label()).or_insert(0) += 1;
    }
    let mut out = String::from("\nevent counts:\n");
    let width = counts.keys().map(|k| k.len()).max().unwrap_or(0);
    for (label, n) in &counts {
        let _ = writeln!(out, "  {label:width$}  {n}");
    }
    out
}

/// Aggregate statistics over `ControllerDecision` events.
fn decision_stats(records: &[TraceRecord]) -> String {
    let mut total = 0usize;
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut collisions = 0usize;
    let mut violating = 0usize;
    let mut lag_sum = 0.0f64;
    let mut dev_sum = 0.0f64;
    let mut breach_by_metric: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in records {
        match &r.event {
            Event::ControllerDecision {
                kind,
                verdict,
                lag_secs,
                deviation,
                collision,
                ..
            } => {
                total += 1;
                *by_kind.entry(kind_name(*kind)).or_insert(0) += 1;
                collisions += usize::from(*collision);
                violating += usize::from(*verdict == SlackVerdict::Violating);
                lag_sum += lag_secs;
                dev_sum += deviation;
            }
            Event::SloBreach { metric, .. } => {
                *breach_by_metric.entry(metric_name(*metric)).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    let mut out = String::from("\ncontroller decisions:\n");
    if total == 0 {
        out.push_str("  none recorded\n");
    } else {
        let kinds = by_kind
            .iter()
            .map(|(k, n)| format!("{k} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  total {total}  ({kinds})");
        let _ = writeln!(
            out,
            "  verdicts: meeting {}  violating {violating}  collisions {collisions}",
            total - violating
        );
        let n = total as f64;
        let _ = writeln!(
            out,
            "  mean LAG slack {:+.3}s  mean \u{3b4}_AU {:.2}",
            lag_sum / n,
            dev_sum / n
        );
    }
    if !breach_by_metric.is_empty() {
        let breaches = breach_by_metric
            .iter()
            .map(|(m, n)| format!("{m} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  SLO breach intervals: {breaches}");
    }
    out
}

/// One rendered timeline entry.
fn entry_line(at: SimTime, body: &str) -> String {
    format!("  t={:8.1}s  {body}\n", secs(at))
}

/// The causal timeline: controller decisions annotated with the breach
/// pressure that preceded them and how long breaches persisted afterwards,
/// interleaved with platform events (frequency, thermal, RDT moves) and a
/// collapsed profiler line.
fn timeline(records: &[TraceRecord]) -> String {
    let mut entries: Vec<String> = Vec::new();

    // Collapse profiler progress to a single line.
    let profiler: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| matches!(r.event, Event::ProfilerProgress { .. }))
        .collect();
    if let Some(last) = profiler.last() {
        if let Event::ProfilerProgress {
            completed, total, ..
        } = last.event
        {
            entries.push(entry_line(
                last.at,
                &format!("profiler swept {completed}/{total} grid cells (offline)"),
            ));
        }
    }

    // Breach and decision times, each with its run, drive the pressure and
    // "recovered" annotations; both stay within the decision's run.
    let of_kind = |is: fn(&Event) -> bool| -> Vec<(usize, SimTime)> {
        with_runs(records)
            .filter(|(_, r)| is(&r.event))
            .map(|(run, r)| (run, r.at))
            .collect()
    };
    let breaches = of_kind(|e| matches!(e, Event::SloBreach { .. }));
    let decisions = of_kind(|e| matches!(e, Event::ControllerDecision { .. }));

    let mut prev_decision = (0, SimTime::ZERO);
    for (run, r) in with_runs(records) {
        let body = match &r.event {
            Event::FreqTransition {
                region,
                from_ghz,
                to_ghz,
            } => format!("freq[{region:?}] {from_ghz:.2} \u{2192} {to_ghz:.2} GHz"),
            Event::ThermalThrottle { region, drop_ghz } => {
                format!("thermal throttle[{region:?}] -{drop_ghz:.2} GHz")
            }
            Event::RdtReallocation {
                llc_ways_from,
                llc_ways_to,
                mem_bw_from,
                mem_bw_to,
                ..
            } => format!(
                "RDT move: LLC {llc_ways_from}\u{2192}{llc_ways_to} ways, \
                 mem-bw {:.0}%\u{2192}{:.0}%",
                mem_bw_from * 100.0,
                mem_bw_to * 100.0
            ),
            Event::FaultInjected { kind, detail } => format!("FAULT injected: {kind} ({detail})"),
            Event::FaultRecovered { kind } => format!("FAULT recovered: {kind}"),
            Event::FaultOutsideWindow {
                kind,
                at_secs,
                duration_secs,
            } => format!(
                "WARNING: fault {kind} scheduled at t={at_secs:.1}s \
                 never fires (run ends at {duration_secs:.1}s)"
            ),
            Event::NodeFault {
                node,
                kind,
                detail,
                active,
            } => {
                let verb = if *active { "struck" } else { "recovered" };
                format!("NODE FAULT {verb}: node {node} {kind} ({detail})")
            }
            Event::NodeHealthTransition {
                node,
                from,
                to,
                reason,
            } => format!("node {node} health {from:?} \u{2192} {to:?}: {reason}"),
            Event::RequestRedispatch {
                node,
                count,
                attempt,
                backoff_epochs,
            } => format!(
                "re-dispatch: {count} stranded on node {node}, \
                 attempt {attempt} after {backoff_epochs}-epoch backoff"
            ),
            Event::LoadShed {
                class,
                count,
                epoch,
            } => format!("load shed: {count} {class} request(s) at epoch {epoch}"),
            Event::SensorRejected {
                sensor,
                observed,
                substituted,
                reason,
            } => format!(
                "sensor distrust[{sensor}]: {observed:.4} rejected ({reason}), \
                 using {substituted:.4}"
            ),
            Event::SafeModeTransition { from, to, reason } => {
                format!("resilience {from:?} \u{2192} {to:?}: {reason}")
            }
            Event::ControllerDecision {
                action,
                verdict,
                reason,
                ..
            } => {
                let since = if prev_decision.0 == run {
                    prev_decision.1
                } else {
                    SimTime::ZERO
                };
                prev_decision = (run, r.at);
                let led_here = breaches
                    .iter()
                    .filter(|&&(b_run, t)| b_run == run && t > since && t <= r.at)
                    .count();
                let mut body = format!("{reason} \u{2192} {action}");
                if led_here > 0 {
                    let _ = write!(body, " [{led_here} breach intervals led here]");
                }
                if *verdict == SlackVerdict::Violating {
                    // How long breaches persisted, up to the run's next decision.
                    let next = decisions
                        .iter()
                        .find(|&&(d_run, t)| d_run == run && t > r.at);
                    let end = next.map_or(SimTime::MAX, |d| d.1);
                    let last = breaches
                        .iter()
                        .rfind(|&&(b_run, t)| b_run == run && t > r.at && t <= end);
                    let _ = match last {
                        None => write!(body, " \u{2014} no further breaches before next decision"),
                        Some((_, t)) => write!(
                            body,
                            " \u{2014} breaches persisted {:.1}s after the action",
                            secs(*t) - secs(r.at)
                        ),
                    };
                }
                body
            }
            _ => continue,
        };
        entries.push(entry_line(r.at, &body));
    }

    let mut out = String::from("\ncausal timeline:\n");
    if entries.is_empty() {
        out.push_str("  no controller or platform events recorded\n");
        return out;
    }
    if entries.len() > TIMELINE_CAP {
        let head = TIMELINE_CAP * 2 / 3;
        let tail = TIMELINE_CAP - head;
        for e in &entries[..head] {
            out.push_str(e);
        }
        let _ = writeln!(
            out,
            "  ... ({} entries elided) ...",
            entries.len() - TIMELINE_CAP
        );
        for e in &entries[entries.len() - tail..] {
            out.push_str(e);
        }
    } else {
        for e in &entries {
            out.push_str(e);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aum_sim::SimDuration;

    fn rec(at_secs: f64, event: Event) -> TraceRecord {
        TraceRecord {
            at: SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
            event,
        }
    }

    /// A run's `SloTargets` preamble.
    fn targets(ttft_secs: f64, tpot_secs: f64) -> TraceRecord {
        rec(
            0.0,
            Event::SloTargets {
                ttft_secs,
                tpot_secs,
            },
        )
    }

    /// Request `id` finishing at `at` after ten tokens.
    fn finished(at: f64, id: u64, ttft_secs: f64, mean_tpot_secs: f64) -> TraceRecord {
        rec(
            at,
            Event::RequestFinished {
                id,
                generated: 10,
                mean_tpot_secs,
                ttft_secs,
            },
        )
    }

    fn breach(at: f64, metric: SloMetric, observed_secs: f64) -> TraceRecord {
        rec(
            at,
            Event::SloBreach {
                metric,
                observed_secs,
                budget_secs: 0.12,
            },
        )
    }

    /// A decision of `kind`; a switch is a collision.
    fn decision(at: f64, kind: DecisionKind, verdict: SlackVerdict, reason: &str) -> TraceRecord {
        rec(
            at,
            Event::ControllerDecision {
                kind,
                action: format!("{kind:?}(cfg 1\u{2192}0)"),
                verdict,
                lag_secs: -0.1,
                deviation: 1.0,
                collision: kind == DecisionKind::Switch,
                reason: reason.into(),
            },
        )
    }

    fn span_open(at: f64, id: SpanId, parent: Option<SpanId>, track: &str) -> TraceRecord {
        let kind = id.kind().expect("derived id");
        rec(
            at,
            Event::SpanOpen {
                id: id.0,
                parent: parent.map(|p| p.0),
                kind,
                track: track.into(),
                label: format!("{} {}", kind.label(), id.payload()),
            },
        )
    }

    fn span_close(at: f64, id: SpanId, track: &str) -> TraceRecord {
        let kind = id.kind().expect("derived id");
        rec(
            at,
            Event::SpanClose {
                id: id.0,
                kind,
                track: track.into(),
            },
        )
    }

    #[test]
    fn summary_contains_counts_stats_and_timeline() {
        let records = vec![
            breach(0.5, SloMetric::Tpot, 0.142),
            decision(
                1.0,
                DecisionKind::Return,
                SlackVerdict::Violating,
                "TPOT p50 0.142s > SLO_L 0.120s",
            ),
            breach(1.5, SloMetric::Tpot, 0.131),
            decision(3.0, DecisionKind::Harvest, SlackVerdict::Meeting, "slack"),
        ];
        let s = summarize(&records);
        assert!(s.contains("event counts"), "{s}");
        assert!(s.contains("ControllerDecision  2"), "{s}");
        assert!(s.contains("total 2  (harvest 1, return 1)"), "{s}");
        assert!(s.contains("SLO breach intervals: TPOT 2"), "{s}");
        assert!(s.contains("TPOT p50 0.142s > SLO_L 0.120s"), "{s}");
        assert!(s.contains("1 breach intervals led here"), "{s}");
        assert!(s.contains("breaches persisted 0.5s"), "{s}");
    }

    #[test]
    fn empty_trace_is_reported_not_crashed() {
        assert!(summarize(&[]).contains("empty trace"));
    }

    #[test]
    fn attribution_samples_get_their_own_section() {
        use aum_sim::attrib::{Cause, CauseVec, Region};
        let mut time = CauseVec::zero();
        time.add(Cause::Compute, 0.3);
        time.add(Cause::MemDram, 0.2);
        let records = vec![rec(
            0.5,
            Event::AttributionSample {
                region: Region::AuLow,
                dt_secs: 0.5,
                time,
                energy: time,
            },
        )];
        let s = summarize(&records);
        assert!(s.contains("attribution (time share"), "{s}");
        assert!(s.contains("compute 60.0%"), "{s}");
        assert!(s.contains("dominant loss: mem-dram (40.0%"), "{s}");
        // Traces without samples omit the section entirely.
        assert!(!summarize(&[finished(1.0, 1, 0.2, 0.01)]).contains("attribution"));
    }

    #[test]
    fn slo_digest_reports_burn_rates_and_page_alert() {
        let mut records = vec![targets(0.5, 0.1)];
        // 20 requests over 100 s; every fifth TTFT violates (20% ≫ the 1%
        // budget, so every occupied window burns in both lengths).
        for i in 0..20u64 {
            let ttft = if i % 5 == 0 { 1.2 } else { 0.2 };
            records.push(finished(i as f64 * 5.0, i, ttft, 0.05));
        }
        let s = summarize(&records);
        assert!(s.contains("SLO burn-rate digest"), "{s}");
        assert!(s.contains("TTFT (target 0.500s): 20 requests"), "{s}");
        assert!(s.contains("violations 4 (20.0%)"), "{s}");
        assert!(s.contains("10s windows:"), "{s}");
        assert!(s.contains("60s windows:"), "{s}");
        assert!(s.contains("alert: PAGE"), "{s}");
        assert!(s.contains("TTFT burning in both"), "{s}");
    }

    #[test]
    fn slo_digest_judges_each_run_against_its_own_targets() {
        // Two runs behind their own targets: chatbot (TTFT 0.25 s) and
        // summarization (TTFT 1.5 s), both with a 0.1 s TPOT target and
        // the same request ids. Every summarization TTFT (1.0 s) meets its
        // own target and would miss chatbot's; one chatbot request misses
        // TPOT.
        let run = |ttft_target: f64, ttft: f64, late: Option<u64>| {
            let mut records = vec![targets(ttft_target, 0.1)];
            for id in 0..5u64 {
                let tpot = if late == Some(id) { 0.2 } else { 0.05 };
                records.push(finished(1.0 + id as f64, id, ttft, tpot));
            }
            records
        };
        // One run after the other, each restarting the clock, as every
        // multi-run trace holds them.
        let mut records = run(0.25, 0.2, Some(2));
        records.extend(run(1.5, 1.0, None));
        let s = summarize(&records);
        let at = s.find("SLO burn-rate digest").expect("digest");
        let end = s[at..].find("\n\n").map_or(s.len(), |n| at + n);
        let digest = &s[at..end];
        // One block per distinct target, in first-seen order, each with
        // its own run's five requests and no violation.
        let block = |target: &str| {
            let at = digest.find(&format!("TTFT (target {target}s): 5 requests"));
            let at = at.expect(digest);
            let line = digest[at..].lines().next().expect("block line");
            assert!(line.ends_with("violations 0 (0.0%)"), "{line}");
            at
        };
        assert!(block("0.250") < block("1.500"), "{digest}");
        assert!(
            digest.contains("TPOT (per-request mean) (target 0.100s): 10 requests"),
            "{digest}"
        );
        assert!(digest.contains("violations 1 (10.0%)"), "{digest}");
        // The shared TPOT target's windows stay per run: 1 of 2 burns.
        assert!(
            digest.contains("10s windows: 1/2 burning, peak 20.0x at t=0s"),
            "{digest}"
        );
        assert!(
            digest.contains("alert: PAGE — TPOT (per-request mean) burning in both"),
            "{digest}"
        );
    }

    #[test]
    fn digest_without_targets_or_violations_stays_quiet() {
        // No SloTargets event → no digest section at all.
        let s = summarize(&[finished(1.0, 1, 0.1, 0.01)]);
        assert!(!s.contains("burn-rate digest"), "{s}");
        // Targets present, nothing violating → digest renders, alert none.
        let s = summarize(&[targets(3.0, 0.12), finished(1.0, 1, 0.1, 0.01)]);
        assert!(s.contains("burn-rate digest"), "{s}");
        assert!(s.contains("violations 0 (0.0%)"), "{s}");
        assert!(s.contains("alert: none"), "{s}");
    }

    #[test]
    fn worst_ttft_request_gets_a_span_drilldown() {
        let req = |id: u64| SpanId::derive(SpanKind::RequestLifecycle, id);
        let pre = SpanId::derive(SpanKind::Prefill, 0);
        let records = vec![
            span_open(0.0, req(3), None, "cell"),
            span_open(0.5, req(9), None, "cell"),
            span_open(1.0, pre, Some(req(9)), "cell"),
            span_close(1.4, pre, "cell"),
            finished(2.0, 3, 0.3, 0.02),
            span_close(2.0, req(3), "cell"),
            finished(4.0, 9, 0.9, 0.02),
            span_close(4.0, req(9), "cell"),
        ];
        let s = summarize(&records);
        assert!(
            s.contains("worst-TTFT request drill-down (request 9, TTFT 0.900s"),
            "{s}"
        );
        assert!(s.contains("lifecycle t=0.500s .. t=4.000s"), "{s}");
        assert!(s.contains("prefill 0 t=1.000s"), "{s}");
    }

    #[test]
    fn drilldown_walks_the_worst_request_in_its_own_run() {
        // Both runs finish a request 2; the second run's is the worst.
        let run = |track: &str, open: f64, close: f64, ttft: f64| {
            let span = SpanId::derive(SpanKind::RequestLifecycle, 2);
            vec![
                targets(0.25, 0.1),
                span_open(open, span, None, track),
                finished(close, 2, ttft, 0.02),
                span_close(close, span, track),
            ]
        };
        let mut records = run("AUM/cb", 0.5, 3.0, 0.4);
        records.extend(run("AUM/sm", 1.0, 12.0, 2.9));
        let s = summarize(&records);
        assert!(
            s.contains("drill-down (request 2, TTFT 2.900s, track \"AUM/sm\")"),
            "{s}"
        );
        assert!(s.contains("lifecycle t=1.000s .. t=12.000s"), "{s}");
    }

    #[test]
    fn timeline_annotations_stay_within_the_decisions_run() {
        let breach = |at: f64| breach(at, SloMetric::Ttft, 0.3);
        let (violating, meeting) = (SlackVerdict::Violating, SlackVerdict::Meeting);
        let decision =
            |at: f64, reason: &str, verdict| decision(at, DecisionKind::Return, verdict, reason);
        // Run B's decisions fall between run A's in sim time.
        let records = vec![
            targets(0.25, 0.1),
            breach(0.5),
            breach(1.0),
            decision(1.5, "a1", violating),
            breach(2.0),
            decision(4.0, "a2", meeting),
            targets(0.25, 0.1),
            breach(1.0),
            decision(2.0, "b1", violating),
            decision(3.0, "b2", meeting),
        ];
        let s = summarize(&records);
        let line = |reason: &str| {
            let at = s.find(&format!("{reason} \u{2192}")).expect(&s);
            s[at..].lines().next().expect("timeline line").to_string()
        };
        assert!(
            line("a1").ends_with(
                "[2 breach intervals led here] \u{2014} breaches persisted 0.5s after the action"
            ),
            "{s}"
        );
        assert!(line("a2").ends_with("[1 breach intervals led here]"), "{s}");
        assert!(
            line("b1").ends_with(
                "[1 breach intervals led here] \u{2014} no further breaches before next decision"
            ),
            "{s}"
        );
        assert!(line("b2").ends_with("Return(cfg 1\u{2192}0)"), "{s}");
    }

    #[test]
    fn fleet_events_get_a_health_digest() {
        use std::sync::Arc;
        let snapshot = MetricsSnapshot {
            at: SimTime::ZERO + SimDuration::from_secs_f64(32.0),
            counters: Arc::new([("redispatched".to_string(), 52u64)].into_iter().collect()),
            gauges: Arc::new(std::collections::BTreeMap::new()),
        };
        let records = vec![
            rec(
                30.0,
                Event::NodeHealthTransition {
                    node: 0,
                    from: NodeHealth::Healthy,
                    to: NodeHealth::Suspect,
                    reason: "1 missed heartbeat(s)".into(),
                },
            ),
            rec(
                32.0,
                Event::NodeHealthTransition {
                    node: 0,
                    from: NodeHealth::Suspect,
                    to: NodeHealth::Down,
                    reason: "3 missed heartbeats".into(),
                },
            ),
            rec(
                30.0,
                Event::RequestRedispatch {
                    node: 0,
                    count: 40,
                    attempt: 2,
                    backoff_epochs: 1,
                },
            ),
            rec(
                31.0,
                Event::RequestRedispatch {
                    node: 0,
                    count: 12,
                    attempt: 3,
                    backoff_epochs: 2,
                },
            ),
            rec(
                33.0,
                Event::LoadShed {
                    class: "best-effort".into(),
                    count: 9,
                    epoch: 33,
                },
            ),
            rec(
                32.0,
                Event::NodeMetricsSnapshot {
                    node: 0,
                    label: "node0/GenA-SPR-HBM".into(),
                    snapshot,
                },
            ),
        ];
        let s = summarize(&records);
        assert!(s.contains("fleet health digest"), "{s}");
        assert!(s.contains("node 0: 2 transition(s)"), "{s}");
        assert!(s.contains("Healthy\u{2192}Suspect"), "{s}");
        assert!(
            s.contains(
                "hop-chain depth distribution (52 stranded dispatches, deepest chain \
                 attempt 3)"
            ),
            "{s}"
        );
        assert!(s.contains("attempt 2: 40 request(s)"), "{s}");
        assert!(s.contains("shed by class: 9 total (best-effort 9)"), "{s}");
        assert!(
            s.contains(
                "worst-node drill-down: node 0 (52 stranded request(s), 1 Down transition(s))"
            ),
            "{s}"
        );
        assert!(
            s.contains("last snapshot [node0/GenA-SPR-HBM] at t=32s: redispatched 52"),
            "{s}"
        );
        // Traces without fleet events omit the section entirely.
        let plain = summarize(&[finished(1.0, 1, 0.1, 0.01)]);
        assert!(!plain.contains("fleet health digest"), "{plain}");
    }

    #[test]
    fn violating_decision_with_clean_aftermath_notes_recovery() {
        let records = vec![
            decision(
                1.0,
                DecisionKind::Switch,
                SlackVerdict::Violating,
                "collision: tuning deemed insufficient",
            ),
            finished(2.0, 7, 0.3, 0.05),
        ];
        let s = summarize(&records);
        assert!(s.contains("no further breaches"), "{s}");
        assert!(s.contains("collisions 1"), "{s}");
    }
}
