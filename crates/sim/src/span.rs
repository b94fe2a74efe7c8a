//! Hierarchical span tracing over the flat telemetry stream.
//!
//! Point events ([`crate::telemetry::Event`]) answer *what happened*; spans
//! answer *inside what*. A span is an interval on the simulation clock with
//! a typed [`SpanKind`], an id, an optional parent id, and a *track* — the
//! run it belongs to (one experiment cell, the profiler, …). Spans ride the
//! existing tracer as [`crate::telemetry::Event::SpanOpen`] /
//! [`crate::telemetry::Event::SpanClose`] pairs, so every sink, the
//! ordering layer, and `trace-diff` alignment work unchanged.
//!
//! ## Deterministic ids
//!
//! [`SpanId`]s are *derived*, never drawn from a global counter: the id
//! packs the [`SpanKind`] discriminant into the top byte and a
//! caller-chosen payload (request id, step index, cell index) into the low
//! 56 bits. Two same-seed runs — at any `--jobs` level under
//! [`crate::exec::sweep_traced`] — therefore serialize byte-identical span
//! events. Ids are unique per track, which is exactly the granularity
//! [`collect_spans`] keys on.
//!
//! ## Reconstruction
//!
//! [`collect_spans`] folds a record stream back into a [`SpanForest`]
//! (parent-linked interval forest across tracks), with typed [`SpanError`]s
//! for unbalanced streams — the Perfetto exporter refuses to emit a trace
//! whose opens and closes don't pair up.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::Deserialize;

use crate::telemetry::{Event, TraceRecord};
use crate::time::SimTime;

/// What kind of interval a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize)]
pub enum SpanKind {
    /// One request from admission to retirement.
    RequestLifecycle,
    /// One batched prefill step.
    Prefill,
    /// One batched decode iteration.
    DecodeIteration,
    /// One control interval of the experiment loop.
    ControllerInterval,
    /// One profiling-grid cell.
    ProfilerCell,
    /// One injected fault's active window.
    FaultWindow,
    /// One routing epoch of the fleet loop ([`crate::telemetry::Event`]
    /// stream from `run_fleet_traced`), on the fleet track.
    FleetEpoch,
    /// One contiguous unhealthy window of a node (Suspect/Down/Draining/
    /// Recovering), on that node's per-node track.
    NodeHealthEpisode,
    /// One redispatch hop of a retried request batch, on the track of the
    /// node that failed the batch; hops of one batch chain by parent id.
    RedispatchHop,
}

impl SpanKind {
    /// All kinds, in discriminant order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::RequestLifecycle,
        SpanKind::Prefill,
        SpanKind::DecodeIteration,
        SpanKind::ControllerInterval,
        SpanKind::ProfilerCell,
        SpanKind::FaultWindow,
        SpanKind::FleetEpoch,
        SpanKind::NodeHealthEpisode,
        SpanKind::RedispatchHop,
    ];

    /// Stable human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::RequestLifecycle => "request",
            SpanKind::Prefill => "prefill",
            SpanKind::DecodeIteration => "decode",
            SpanKind::ControllerInterval => "interval",
            SpanKind::ProfilerCell => "cell",
            SpanKind::FaultWindow => "fault",
            SpanKind::FleetEpoch => "epoch",
            SpanKind::NodeHealthEpisode => "health",
            SpanKind::RedispatchHop => "hop",
        }
    }

    /// The label prefix of a *counted* kind. Such a span's label is
    /// `"<prefix> <payload>"` (`"req 7"`, `"interval 12"`), a pure function
    /// of its kind and id, so its open carries no text, and the JSONL
    /// encoder and [`collect_spans`] derive it. The other kinds carry their
    /// own text.
    #[must_use]
    pub fn counted_prefix(self) -> Option<&'static str> {
        match self {
            SpanKind::RequestLifecycle => Some("req"),
            SpanKind::Prefill => Some("prefill"),
            SpanKind::DecodeIteration => Some("decode"),
            SpanKind::ControllerInterval => Some("interval"),
            SpanKind::FleetEpoch => Some("epoch"),
            SpanKind::ProfilerCell
            | SpanKind::FaultWindow
            | SpanKind::NodeHealthEpisode
            | SpanKind::RedispatchHop => None,
        }
    }

    /// Stable non-zero discriminant used in the [`SpanId`] id scheme.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            SpanKind::RequestLifecycle => 1,
            SpanKind::Prefill => 2,
            SpanKind::DecodeIteration => 3,
            SpanKind::ControllerInterval => 4,
            SpanKind::ProfilerCell => 5,
            SpanKind::FaultWindow => 6,
            SpanKind::FleetEpoch => 7,
            SpanKind::NodeHealthEpisode => 8,
            SpanKind::RedispatchHop => 9,
        }
    }
}

/// A span identifier, deterministic by construction.
///
/// The top byte holds the kind's [`SpanKind::code`], the low 56 bits a
/// caller-chosen payload that is unique within its (track, kind) scope —
/// request id, step index, cell index. No global counter is involved, so
/// ids are reproducible across runs and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Derives the id for `kind` with a scope-unique `payload`.
    #[must_use]
    pub fn derive(kind: SpanKind, payload: u64) -> Self {
        SpanId((u64::from(kind.code()) << 56) | (payload & ((1 << 56) - 1)))
    }

    /// The kind encoded in the top byte, if it maps to a known kind.
    #[must_use]
    pub fn kind(self) -> Option<SpanKind> {
        let code = (self.0 >> 56) as u8;
        SpanKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// The caller payload in the low 56 bits.
    #[must_use]
    pub fn payload(self) -> u64 {
        self.0 & ((1 << 56) - 1)
    }
}

/// Appends the label of a span of `kind` and raw id `id` whose open
/// carries no text: `"<prefix> <payload>"` for a counted kind
/// ([`SpanKind::counted_prefix`]), else the kind's own [`SpanKind::label`].
pub(crate) fn push_derived_label(out: &mut String, kind: SpanKind, id: u64) {
    match kind.counted_prefix() {
        Some(prefix) => {
            out.push_str(prefix);
            out.push(' ');
            crate::telemetry::push_u64(out, SpanId(id).payload());
        }
        None => out.push_str(kind.label()),
    }
}

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span's derived id (raw `u64` form).
    pub id: u64,
    /// Interval kind.
    pub kind: SpanKind,
    /// The track (run) the span belongs to, shared with its records.
    pub track: Arc<str>,
    /// Human-readable label: the open's text, or the derived one.
    pub label: String,
    /// Index of the parent span in [`SpanForest::nodes`], if any.
    pub parent: Option<usize>,
    /// Open time.
    pub open: SimTime,
    /// Close time (≥ `open`).
    pub close: SimTime,
    /// Indices of child spans, in close order.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// The span's duration in seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.close.saturating_since(self.open).as_secs_f64()
    }
}

/// All spans reconstructed from one trace, parent-linked across tracks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanForest {
    /// Every closed span, in close order.
    pub nodes: Vec<SpanNode>,
    /// Indices of parentless spans, in close order.
    pub roots: Vec<usize>,
}

impl SpanForest {
    /// Spans of one kind, in close order.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &SpanNode> {
        self.nodes.iter().filter(move |n| n.kind == kind)
    }
}

/// Why a record stream does not fold into a well-formed span forest.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanError {
    /// A close arrived for a span that was never opened (or closed twice).
    CloseWithoutOpen {
        /// Raw span id of the offending close.
        id: u64,
        /// Track it arrived on.
        track: Arc<str>,
    },
    /// A second open arrived for an id that is still open.
    DuplicateOpen {
        /// Raw span id opened twice.
        id: u64,
        /// Track it arrived on.
        track: Arc<str>,
    },
    /// The stream ended with spans still open.
    UnclosedSpans {
        /// How many spans never closed.
        count: usize,
        /// Raw id of one of them, for the error message.
        example_id: u64,
    },
    /// A span closed before it opened.
    CloseBeforeOpen {
        /// Raw span id of the inverted interval.
        id: u64,
        /// Track it arrived on.
        track: Arc<str>,
    },
}

impl fmt::Display for SpanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanError::CloseWithoutOpen { id, track } => {
                write!(f, "span close without open: id {id:#x} on track {track:?}")
            }
            SpanError::DuplicateOpen { id, track } => {
                write!(f, "duplicate span open: id {id:#x} on track {track:?}")
            }
            SpanError::UnclosedSpans { count, example_id } => {
                write!(f, "{count} span(s) never closed (e.g. id {example_id:#x})")
            }
            SpanError::CloseBeforeOpen { id, track } => {
                write!(
                    f,
                    "span closes before it opens: id {id:#x} on track {track:?}"
                )
            }
        }
    }
}

impl std::error::Error for SpanError {}

/// Folds a record stream into a [`SpanForest`].
///
/// Structural matching keys opens and closes by `(track, id)`. Parent
/// links resolve by the parent id recorded on the open event, against the
/// span with that id on the same track; an unresolved parent id yields a
/// root span rather than an error (a truncation-tolerant choice for
/// streams whose parent was filtered out).
///
/// # Errors
///
/// Returns the first structural violation found; see [`SpanError`].
pub fn collect_spans(records: &[TraceRecord]) -> Result<SpanForest, SpanError> {
    struct OpenSpan {
        kind: SpanKind,
        label: String,
        parent_id: Option<u64>,
        open: SimTime,
    }
    // Pass 1: match opens to closes into flat nodes (close order).
    let mut open: HashMap<(Arc<str>, u64), OpenSpan> = HashMap::new();
    let mut nodes: Vec<SpanNode> = Vec::new();
    let mut parent_ids: Vec<Option<u64>> = Vec::new();
    for record in records {
        match &record.event {
            Event::SpanOpen {
                id,
                parent,
                kind,
                track,
                label,
            } => {
                let label = label.clone().unwrap_or_else(|| {
                    let mut derived = String::new();
                    push_derived_label(&mut derived, *kind, *id);
                    derived
                });
                let prev = open.insert(
                    (track.clone(), *id),
                    OpenSpan {
                        kind: *kind,
                        label,
                        parent_id: *parent,
                        open: record.at,
                    },
                );
                if prev.is_some() {
                    return Err(SpanError::DuplicateOpen {
                        id: *id,
                        track: track.clone(),
                    });
                }
            }
            Event::SpanClose { id, track, .. } => {
                let Some(span) = open.remove(&(track.clone(), *id)) else {
                    return Err(SpanError::CloseWithoutOpen {
                        id: *id,
                        track: track.clone(),
                    });
                };
                if record.at < span.open {
                    return Err(SpanError::CloseBeforeOpen {
                        id: *id,
                        track: track.clone(),
                    });
                }
                parent_ids.push(span.parent_id);
                nodes.push(SpanNode {
                    id: *id,
                    kind: span.kind,
                    track: track.clone(),
                    label: span.label,
                    parent: None,
                    open: span.open,
                    close: record.at,
                    children: Vec::new(),
                });
            }
            _ => {}
        }
    }
    if let Some(((_, example_id), _)) = open.iter().next() {
        return Err(SpanError::UnclosedSpans {
            count: open.len(),
            example_id: *example_id,
        });
    }

    // Pass 2: resolve parent links by (track, id) across all nodes.
    let by_id: HashMap<(&str, u64), usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| ((&*n.track, n.id), i))
        .collect();
    let links: Vec<Option<usize>> = nodes
        .iter()
        .zip(&parent_ids)
        .enumerate()
        .map(|(i, (n, pid))| {
            pid.and_then(|pid| by_id.get(&(&*n.track, pid)).copied())
                .filter(|&p| p != i)
        })
        .collect();
    let mut forest = SpanForest {
        nodes,
        roots: Vec::new(),
    };
    for (i, link) in links.into_iter().enumerate() {
        forest.nodes[i].parent = link;
        match link {
            Some(p) => forest.nodes[p].children.push(i),
            None => forest.roots.push(i),
        }
    }
    Ok(forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn rec(at_secs: f64, event: Event) -> TraceRecord {
        TraceRecord {
            at: SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
            event,
        }
    }

    fn open(id: SpanId, parent: Option<SpanId>, kind: SpanKind, at: f64) -> TraceRecord {
        rec(
            at,
            Event::SpanOpen {
                id: id.0,
                parent: parent.map(|p| p.0),
                kind,
                track: "t0".into(),
                label: None,
            },
        )
    }

    fn close(id: SpanId, kind: SpanKind, at: f64) -> TraceRecord {
        rec(
            at,
            Event::SpanClose {
                id: id.0,
                kind,
                track: "t0".into(),
            },
        )
    }

    #[test]
    fn ids_pack_kind_and_payload() {
        for kind in SpanKind::ALL {
            let id = SpanId::derive(kind, 0xdead_beef);
            assert_eq!(id.kind(), Some(kind));
            assert_eq!(id.payload(), 0xdead_beef);
        }
        // Distinct kinds with the same payload never collide.
        let ids: Vec<u64> = SpanKind::ALL
            .iter()
            .map(|&k| SpanId::derive(k, 42).0)
            .collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn nested_spans_link_to_parents() {
        let req = SpanId::derive(SpanKind::RequestLifecycle, 7);
        let dec = SpanId::derive(SpanKind::DecodeIteration, 0);
        let records = vec![
            open(req, None, SpanKind::RequestLifecycle, 0.0),
            open(dec, Some(req), SpanKind::DecodeIteration, 0.5),
            close(dec, SpanKind::DecodeIteration, 0.6),
            close(req, SpanKind::RequestLifecycle, 1.0),
        ];
        let forest = collect_spans(&records).expect("well-formed");
        assert_eq!(forest.nodes.len(), 2);
        assert_eq!(forest.roots.len(), 1);
        let root = &forest.nodes[forest.roots[0]];
        assert_eq!(root.kind, SpanKind::RequestLifecycle);
        assert_eq!(root.children.len(), 1);
        let child = &forest.nodes[root.children[0]];
        assert_eq!(child.kind, SpanKind::DecodeIteration);
        assert_eq!(child.parent, Some(forest.roots[0]));
        assert!((child.duration_secs() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn same_id_on_different_tracks_is_fine() {
        let id = SpanId::derive(SpanKind::ControllerInterval, 3);
        let mk = |track: &str, at, is_open| {
            rec(
                at,
                if is_open {
                    Event::SpanOpen {
                        id: id.0,
                        parent: None,
                        kind: SpanKind::ControllerInterval,
                        track: track.into(),
                        label: None,
                    }
                } else {
                    Event::SpanClose {
                        id: id.0,
                        kind: SpanKind::ControllerInterval,
                        track: track.into(),
                    }
                },
            )
        };
        let records = vec![
            mk("a", 0.0, true),
            mk("b", 0.1, true),
            mk("a", 0.5, false),
            mk("b", 0.6, false),
        ];
        let forest = collect_spans(&records).expect("tracks are independent");
        assert_eq!(forest.nodes.len(), 2);
        assert_eq!(forest.roots.len(), 2);
    }

    #[test]
    fn structural_violations_are_typed() {
        let req = SpanId::derive(SpanKind::RequestLifecycle, 1);
        // Close without open.
        let err = collect_spans(&[close(req, SpanKind::RequestLifecycle, 1.0)]).unwrap_err();
        assert!(matches!(err, SpanError::CloseWithoutOpen { .. }), "{err}");
        // Duplicate open.
        let err = collect_spans(&[
            open(req, None, SpanKind::RequestLifecycle, 0.0),
            open(req, None, SpanKind::RequestLifecycle, 0.5),
        ])
        .unwrap_err();
        assert!(matches!(err, SpanError::DuplicateOpen { .. }), "{err}");
        // Unclosed at end of stream.
        let err = collect_spans(&[open(req, None, SpanKind::RequestLifecycle, 0.0)]).unwrap_err();
        assert!(
            matches!(err, SpanError::UnclosedSpans { count: 1, .. }),
            "{err}"
        );
        // Errors render through Display.
        assert!(err.to_string().contains("never closed"));
    }

    #[test]
    fn counted_spans_derive_their_labels_and_others_keep_their_text() {
        let req = SpanId::derive(SpanKind::RequestLifecycle, 7);
        let fault = SpanId::derive(SpanKind::FaultWindow, 0);
        let mut records = vec![
            open(req, None, SpanKind::RequestLifecycle, 0.0),
            open(fault, None, SpanKind::FaultWindow, 0.1),
        ];
        if let Event::SpanOpen { label, .. } = &mut records[1].event {
            *label = Some("fault BeSurge".to_string());
        }
        records.push(close(fault, SpanKind::FaultWindow, 0.2));
        records.push(close(req, SpanKind::RequestLifecycle, 0.3));
        let forest = collect_spans(&records).expect("well-formed");
        let labels: Vec<&str> = forest.nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, ["fault BeSurge", "req 7"]);
        // A kind that counts nothing falls back to its kind label.
        let mut label = String::new();
        push_derived_label(&mut label, SpanKind::ProfilerCell, fault.0);
        assert_eq!(label, "cell");
    }

    #[test]
    fn unresolved_parent_degrades_to_root() {
        let dec = SpanId::derive(SpanKind::DecodeIteration, 9);
        let ghost = SpanId::derive(SpanKind::RequestLifecycle, 999);
        let records = vec![
            open(dec, Some(ghost), SpanKind::DecodeIteration, 0.0),
            close(dec, SpanKind::DecodeIteration, 0.2),
        ];
        let forest = collect_spans(&records).expect("tolerates filtered parents");
        assert_eq!(forest.roots, vec![0]);
        assert_eq!(forest.nodes[0].parent, None);
    }
}
