//! # aum-bench — reproduction harness
//!
//! Regenerates every table and figure of the AUM paper's characterization
//! and evaluation sections (see DESIGN.md §4 for the experiment index):
//!
//! - [`charact`]: Table I, Fig 4, Fig 5, Table II;
//! - [`variations`]: Fig 6, Fig 7, Fig 8;
//! - [`sharing`]: Fig 9, Fig 10, Fig 12, Fig 13;
//! - [`evaluation`]: Table III, Fig 14-18;
//! - [`analysis`]: price sensitivity, overheads, TCO;
//! - [`extensions`]: bucket-granularity ablation, the §VIII cluster
//!   extension, and precision/topology studies;
//! - [`chaos`]: the fault-matrix resilience study (`repro chaos`);
//! - [`fleetchaos`]: the node-fault fleet resilience study
//!   (`repro fleet-chaos`);
//! - [`attribution`]: the attribution-ledger study and trace diff
//!   (`repro attrib`, `repro trace-diff`);
//! - [`perfetto`]: Chrome Trace Event Format export of span traces
//!   (`repro trace-export`);
//! - [`perfreport`]: the simulator self-performance profile
//!   (`repro perf-report`), including the `BENCH_<sha>.json` writer and
//!   regression gate;
//! - [`tracereport`]: the `trace-summary` renderer, including the SLO
//!   burn-rate digest and per-request span drill-down;
//! - [`common`]: the run context every study takes ([`common::RunCtx`]),
//!   scheme construction, and the per-invocation cache of AUV models and
//!   paper-default scheme runs ([`common::Cell`]).
//!
//! Run `cargo run -p aum-bench --release --bin repro -- all` (or a single
//! experiment id such as `fig14`).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod attribution;
pub mod chaos;
pub mod charact;
pub mod common;
pub mod evaluation;
pub mod extensions;
pub mod fleetchaos;
pub mod perfetto;
pub mod perfreport;
pub mod sharing;
pub mod tracereport;
pub mod variations;

/// An experiment implementation: renders its table(s) as text. Every study
/// of one `repro` invocation shares the same [`common::RunCtx`].
pub type Experiment = fn(&common::RunCtx) -> String;

/// All experiment ids with their implementations, in paper order.
#[must_use]
pub fn experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("fig1", extensions::fig1 as Experiment),
        ("table1", charact::table1),
        ("fig4", charact::fig4),
        ("fig5", charact::fig5),
        ("table2", charact::table2),
        ("fig6", variations::fig6),
        ("fig7", variations::fig7),
        ("fig8", variations::fig8),
        ("fig9", sharing::fig9),
        ("fig10", sharing::fig10),
        ("fig12", sharing::fig12),
        ("fig13", sharing::fig13),
        ("table3", evaluation::table3),
        ("fig14", evaluation::fig14),
        ("fig15", evaluation::fig15),
        ("fig16", evaluation::fig16),
        ("fig17", evaluation::fig17),
        ("fig18", evaluation::fig18),
        ("sens", analysis::sens),
        ("overhead", analysis::overhead),
        ("tco", analysis::tco),
        ("ablate", extensions::ablate),
        ("adapt", extensions::adapt),
        ("chunked", extensions::chunked),
        ("cluster", extensions::cluster),
        ("precision", extensions::precision),
        ("numa", extensions::numa),
    ]
}
