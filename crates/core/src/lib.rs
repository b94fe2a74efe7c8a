//! # aum — AU-aware resource management for shared processors
//!
//! Reproduction of **"AUM: Unleashing the Efficiency Potential of Shared
//! Processors with Accelerator Units for LLM Serving"** (HPCA 2026). Modern
//! Xeons embed accelerator units (Intel AMX) whose *three-dimensional
//! variations* — usage patterns, compulsory frequency interference, and
//! dissimilar resource bounds — defeat AUV-oblivious resource managers.
//! AUM profiles those variations offline into a discrete AUV model and
//! drives an SLO-aware runtime controller that harvests unexploited
//! resources for co-located best-effort work while protecting LLM serving.
//!
//! The crate provides:
//!
//! - [`profiler`]: the Background AU Profiler and the bucketized
//!   [`profiler::AuvModel`] (§VI-B, Table III);
//! - [`controller`]: the Runtime AU Controller — slack-aware SLO analysis
//!   with LAG, efficiency-aware core switching, collision-aware allocation
//!   tuning (§VI-C, Algorithm 1);
//! - [`baselines`]: ALL-AU, SMT-AU, RP-AU and the single-dimension AUM
//!   variants AU-UP / AU-FI / AU-RB (Table V);
//! - [`experiment`]: the co-location harness coupling the platform, AU,
//!   LLM-serving and co-runner substrates;
//! - [`fault`]: the scripted fault-injection plane ([`fault::FaultPlan`])
//!   driving chaos runs through that harness, and the fault-script core
//!   ([`fault::FaultScript`]) the fleet plane's node faults share;
//! - [`prices`] / [`tco`]: the weighted efficiency objective and the
//!   §VII-E total-cost-of-ownership analysis;
//! - [`manager`]: the [`manager::ResourceManager`] trait every scheme
//!   implements;
//! - [`calib`]: AU cache-affinity calibration (Fig 13);
//! - [`cluster`]: the §VIII scale-out extension — AUV-aware load balancing
//!   across heterogeneous AU-enabled servers;
//! - [`fleet`]: the fleet resilience plane — node-scoped fault injection
//!   ([`fleet::NodeFaultPlan`]), an epoch-based router with health-checked
//!   failover, capped retry/backoff re-dispatch, and graceful load
//!   shedding.
//!
//! ## Quickstart
//!
//! ```no_run
//! use aum::baselines::AllAu;
//! use aum::controller::AumController;
//! use aum::experiment::{run_experiment, ExperimentConfig};
//! use aum::profiler::{build_model, ProfilerConfig};
//! use aum_llm::traces::Scenario;
//! use aum_platform::spec::PlatformSpec;
//! use aum_workloads::be::BeKind;
//!
//! let spec = PlatformSpec::gen_a();
//!
//! // 1. Profile offline (the paper's ≈450-execution sweep).
//! let model = build_model(&ProfilerConfig::paper_default(
//!     spec.clone(), Scenario::Chatbot, BeKind::SpecJbb));
//!
//! // 2. Serve with AUM and compare against the exclusive baseline.
//! let shared = ExperimentConfig::paper_default(
//!     spec.clone(), Scenario::Chatbot, Some(BeKind::SpecJbb));
//! let exclusive = ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, None);
//! let aum = run_experiment(&shared, &mut AumController::new(model));
//! let all_au = run_experiment(&exclusive, &mut AllAu::new(&spec));
//! println!("efficiency gain: {:.1}%", (aum.efficiency_vs(&all_au) - 1.0) * 100.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod baselines;
pub mod calib;
pub mod cluster;
pub mod controller;
pub mod error;
pub mod experiment;
pub mod fault;
pub mod fleet;
pub mod manager;
pub mod prices;
pub mod profiler;
pub mod tco;

pub use controller::AumController;
pub use error::AumError;
pub use experiment::{run_experiment, ExperimentConfig, Outcome};
pub use fault::{Fault, FaultEvent, FaultPlan};
pub use fleet::{
    run_fleet_traced, try_run_fleet_traced, FleetOutcome, FleetParams, NodeFault, NodeFaultEvent,
    NodeFaultPlan, NodeMetricsRollup,
};
pub use manager::{Decision, ResourceManager, StaticManager, SystemState};
pub use prices::{e_cpu, Prices};
pub use profiler::{build_model, AuvModel, Bucket, ProfilerConfig};
