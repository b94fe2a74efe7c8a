//! # aum-sim — deterministic simulation kernel
//!
//! Foundation crate of the AUM reproduction. It provides:
//!
//! - [`time`]: integer-nanosecond simulation clock types ([`time::SimTime`],
//!   [`time::SimDuration`]);
//! - [`exec`]: a deterministic parallel sweep executor for independent,
//!   seeded grid cells ([`exec::sweep`], [`exec::sweep_traced`]);
//! - [`flight`]: an anomaly-triggered flight recorder — a fixed-capacity
//!   ring of telemetry records ([`flight::RingSink`]) with trigger
//!   predicates that dump span-balanced JSONL incident files
//!   ([`flight::FlightRecorder`]);
//! - [`live`]: a live run-health plane — shared snapshot, std-only
//!   `/metrics` endpoint ([`live::MetricsServer`]) and a wall-clock stall
//!   watchdog ([`live::Watchdog`]);
//! - [`rng`]: labelled deterministic random streams derived from one seed;
//! - [`stats`]: retained samples, exact quantiles, CDFs;
//! - [`hist`]: mergeable log-linear (HDR-style) latency histograms with
//!   fixed bucket boundaries and deterministic merge ([`hist::LogHistogram`]);
//! - [`telemetry`]: typed event tracing ([`telemetry::Event`],
//!   [`telemetry::TraceSink`], [`telemetry::Tracer`]) and a metrics
//!   registry snapshotted on demand;
//! - [`span`]: hierarchical request/iteration/interval spans over the
//!   telemetry stream ([`span::SpanId`], [`span::collect_spans`]);
//! - [`attrib`]: per-interval, per-region time/energy attribution ledger
//!   with conservation invariants ([`attrib::Ledger`]);
//! - [`prof`]: a host-wall-clock self-profiling plane — scoped timers,
//!   deterministic call/counter snapshots and collapsed-stack flamegraph
//!   rendering for profiling the simulator itself ([`prof::scope`],
//!   [`prof::snapshot`]);
//! - [`prom`]: Prometheus text-format rendering of metrics snapshots and
//!   attribution ledgers;
//! - [`report`]: aligned text tables used by the `repro` harness.
//!
//! Everything above this crate (platform model, LLM engine, AUM itself) is
//! built on these primitives, so a fixed experiment seed reproduces every
//! table and figure bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use aum_sim::rng::DetRng;
//! use aum_sim::stats::Samples;
//! use aum_sim::time::{SimDuration, SimTime};
//!
//! // A tiny Poisson arrival process: exponential gaps on a sim clock.
//! let mut rng = DetRng::from_seed(42).stream("arrivals");
//! let mut t = SimTime::ZERO;
//! let mut gaps = Samples::new();
//! for _ in 0..100 {
//!     let gap = SimDuration::from_secs_f64(rng.exponential(0.010));
//!     t += gap;
//!     gaps.record(gap.as_secs_f64());
//! }
//! assert_eq!(gaps.len(), 100);
//! assert!(gaps.mean() > 0.0);
//! assert!(t > SimTime::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod attrib;
pub mod exec;
pub mod flight;
pub mod hist;
pub mod live;
pub mod prof;
pub mod prom;
pub mod report;
pub mod rng;
pub mod span;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use attrib::{
    Cause, CauseVec, ConservationError, IntervalLedger, Ledger, Region, RegionSample,
};
pub use exec::{jobs, set_jobs, sweep, sweep_jobs, sweep_traced, ExecStats};
pub use flight::{FlightConfig, FlightRecorder, FlightStats, Incident, RingSink, TriggerKind};
pub use hist::LogHistogram;
pub use live::{LiveState, MetricsServer, Watchdog};
pub use rng::DetRng;
pub use span::{collect_spans, SpanError, SpanForest, SpanId, SpanKind, SpanNode};
pub use stats::Samples;
pub use telemetry::{
    Event, JsonlSink, MemorySink, MetricsRegistry, MetricsSnapshot, NullSink, OrderingSink,
    TraceParseError, TraceRecord, TraceSink, Tracer,
};
pub use time::{SimDuration, SimTime};
