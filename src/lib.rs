//! # Map-and-Conquer
//!
//! A Rust reproduction of *"Map-and-Conquer: Energy-Efficient Mapping of
//! Dynamic Neural Nets onto Heterogeneous MPSoCs"* (DAC 2023).
//!
//! This facade crate re-exports the workspace members under stable module
//! names so applications can depend on a single crate:
//!
//! * [`nn`] — network IR, Visformer / VGG-19 builders, cost model and
//!   channel importance,
//! * [`mpsoc`] — the heterogeneous MPSoC hardware model (compute units,
//!   DVFS, power, memory, interconnect) with the AGX-Xavier preset,
//! * [`predictor`] — gradient-boosted surrogate predictors for layer
//!   latency/energy,
//! * [`dynamic`] — static-to-dynamic transformation (partitioning,
//!   feature-map reuse, multi-exit stages, accuracy model),
//! * [`core`] — mapping configurations, the concurrent performance model,
//!   the execution simulator, the objective and the evaluator,
//! * [`optim`] — the evolutionary mapping search and Pareto utilities,
//! * [`runtime`] — the concurrent mapping service: model/platform
//!   registries, an evaluator pool, a response cache and parallel Pareto
//!   search behind a staged request pipeline,
//! * [`telemetry`] — observability primitives: the metrics registry with
//!   log-scale latency histograms, request span traces with bounded
//!   recent/slow trace rings, per-generation search telemetry sinks and
//!   the Prometheus-style text exposition,
//! * [`wire`] — the versioned JSON wire protocol of the service, and
//! * [`server`] — the event-driven TCP front-end (`mnc-server` binary) plus
//!   the [`server::WireClient`] used by the demos and CI.
//!
//! # Quickstart
//!
//! ```
//! use map_and_conquer::core::{EvaluatorBuilder, MappingConfig};
//! use map_and_conquer::mpsoc::Platform;
//! use map_and_conquer::nn::models::{visformer_tiny, ModelPreset};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let network = visformer_tiny(ModelPreset::cifar100());
//! let platform = Platform::dual_test();
//! let evaluator = EvaluatorBuilder::new(network.clone(), platform.clone())
//!     .validation_samples(1000)
//!     .build()?;
//! let config = MappingConfig::uniform(&network, &platform)?;
//! let result = evaluator.evaluate(&config)?;
//! println!(
//!     "dynamic mapping: {:.2} ms, {:.2} mJ, top-1 {:.1}%",
//!     result.average_latency_ms,
//!     result.average_energy_mj,
//!     result.accuracy * 100.0
//! );
//! # Ok(())
//! # }
//! ```
//!
//! The runnable examples in `examples/` and the experiment harness in
//! `crates/bench` show the full workflow, including the evolutionary search
//! that reproduces the paper's tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mnc_core as core;
pub use mnc_dynamic as dynamic;
pub use mnc_mpsoc as mpsoc;
pub use mnc_nn as nn;
pub use mnc_optim as optim;
pub use mnc_predictor as predictor;
pub use mnc_runtime as runtime;
pub use mnc_server as server;
pub use mnc_telemetry as telemetry;
pub use mnc_wire as wire;
