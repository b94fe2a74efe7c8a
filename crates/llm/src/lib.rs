//! # aum-llm — LLM serving substrate
//!
//! Simulates xFasterTransformer-style CPU LLM serving, the AU application
//! of the AUM paper:
//!
//! - [`config`]: the six Table II model architectures;
//! - [`ops`]: per-iteration operator graphs (the paper's §IV-A3 GEMM
//!   shapes fall out of these);
//! - [`cost`]: iteration cost evaluation over the roofline model + PMU,
//!   and the engine's per-run pricer;
//! - [`request`] / [`traces`]: Table IV scenarios (cb/cc/sm) with seeded
//!   trace generation;
//! - [`batching`]: FCFS prefill queue + continuous-batching decode pool
//!   with the paper's LAG bookkeeping;
//! - [`kv`]: KV-cache capacity budgets (admission control on
//!   memory-constrained platforms like GenB);
//! - [`slo`]: TTFT/TPOT guarantee accounting (Fig 17);
//! - [`engine`]: the serving engine, time-multiplexed (ALL-AU) or
//!   partitioned across AUM's core regions.
//!
//! ## Example
//!
//! ```
//! use aum_llm::engine::{EngineConfig, EngineMode, EngineResources, LlmEngine, RegionResources};
//! use aum_llm::traces::{Scenario, TraceGenerator};
//! use aum_platform::spec::PlatformSpec;
//! use aum_sim::rng::DetRng;
//! use aum_sim::time::{SimDuration, SimTime};
//!
//! let spec = PlatformSpec::gen_a();
//! let trace = TraceGenerator::new(Scenario::Chatbot, 0.5)
//!     .generate(&DetRng::from_seed(1), SimDuration::from_secs(10));
//! let mut engine = LlmEngine::new(EngineConfig::paper_default(Scenario::Chatbot), &spec, trace);
//! let res = EngineResources {
//!     prefill: RegionResources::new(96, 2.5, spec.mem_bw),
//!     decode: RegionResources::new(96, 3.1, spec.mem_bw),
//!     mode: EngineMode::TimeMultiplexed,
//! };
//! let stats = engine.run_interval(SimTime::from_secs(10), &res);
//! assert!(stats.prefill_tokens > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batching;
pub mod config;
pub mod cost;
pub mod engine;
pub mod kv;
pub mod ops;
pub mod request;
pub mod slo;
pub mod traces;

pub use config::ModelConfig;
pub use engine::{EngineConfig, EngineMode, EngineResources, LlmEngine, RegionResources};
pub use ops::Phase;
pub use slo::{SloReport, SloSpec};
pub use traces::Scenario;
