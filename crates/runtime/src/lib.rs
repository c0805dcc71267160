//! The Map-and-Conquer mapping service.
//!
//! The rest of the workspace is an *offline* toolkit: build an evaluator
//! for one (network, platform) pair, run one evolutionary search, read the
//! Pareto front. This crate turns that toolkit into a long-lived service
//! that answers mapping *queries* — "give me the energy/latency Pareto
//! front for model X on board Y under objective weights W within budget B"
//! — the way a fleet-management or deployment-planning system would ask
//! them, many times, for many models and boards.
//!
//! Three pieces make that fast:
//!
//! * [`registry`] — named catalogues of the built-in model presets and
//!   (via [`mnc_mpsoc::PlatformRegistry`]) the platform presets, so
//!   requests are plain data (strings + numbers) rather than Rust values,
//! * [`cache`] — a sharded, fingerprint-keyed evaluation cache: every
//!   (evaluator, genome) pair evaluated anywhere in the service is
//!   remembered, so a repeated or overlapping request skips the decode and
//!   re-simulation entirely,
//! * [`cached`] — [`CachedEvaluator`], the [`mnc_optim::ConfigEvaluator`]
//!   implementation that splices the cache into the search loop, which
//!   rayon-parallelises each generation across cores while staying
//!   bit-deterministic for a given seed, and coalesces concurrent misses
//!   on one key into a single evaluation,
//! * [`scheduler`] — the batch scheduler behind
//!   [`MappingService::submit_batch`]: identical in-flight requests are
//!   deduplicated onto one search and distinct requests run concurrently
//!   under a [`BatchConfig`] thread budget, with responses bit-identical
//!   to serving each request alone,
//! * [`pipeline`] — the staged request pipeline, split into a pure
//!   bounded-latency fast path (`Normalize → Fingerprint → Coalesce →
//!   CacheLookup`) and a search-running slow path (`ResolveEvaluator →
//!   WarmStartSeed → Search → ArchiveFeedback`) joined by the typed
//!   [`FastPathOutcome`] seam, which `submit`, `submit_batch` and the
//!   `mnc-wire`/`mnc-server` JSON front-end all drive, with per-stage
//!   counters ([`PipelineStats`]) and a per-request stage trace in every
//!   [`RequestStats`],
//! * [`response_cache`] — the bounded cache of answered cold requests
//!   behind the fast path: a repeated identical request replays its
//!   stored response without touching the evaluator pool or a search
//!   worker,
//! * [`warmstart`] — the opt-in warm-start path: Pareto elites of
//!   answered requests are archived per (model, platform) and, when a
//!   request sets `warm_start`, re-ranked by an `mnc_predictor` surrogate
//!   for the target platform and injected into the search's initial
//!   population, so similar requests converge in measurably fewer
//!   evaluations.
//!
//! # Example
//!
//! ```
//! use mnc_runtime::{MappingRequest, MappingService};
//!
//! # fn main() -> Result<(), mnc_runtime::RuntimeError> {
//! let service = MappingService::new();
//! let request = MappingRequest::new("tiny_cnn_cifar10", "dual_test")
//!     .validation_samples(500)
//!     .generations(3)
//!     .population_size(8);
//! let response = service.submit(&request)?;
//! assert!(!response.pareto_front.is_empty());
//! // An identical request is answered on the pipeline's fast path: the
//! // stored response replays bit-identically without running a search.
//! let again = service.submit(&request)?;
//! assert_eq!(response.pareto_front, again.pareto_front);
//! assert_eq!(service.pipeline_stats().fast_path_answered, 1);
//! assert_eq!(service.pipeline_stats().searches_run, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cached;
pub mod error;
pub mod faults;
pub mod pipeline;
pub mod qos;
pub mod registry;
pub mod response_cache;
pub mod scheduler;
pub mod service;
pub mod telemetry;
pub mod warmstart;

pub use cache::{CacheStats, ComputeLease, EvalCache};
pub use cached::{CacheTraffic, CachedEvaluator};
pub use error::RuntimeError;
pub use faults::{FaultGuard, FaultPlan};
pub use pipeline::{
    FastPathOutcome, PausedSearch, PipelineStage, PipelineStats, RequestPipeline, SearchTicket,
    SlowPathRun, StageMicros, StageStats, STAGE_COUNT,
};
pub use qos::{
    DrrQueue, TenantPolicy, TenantPolicyTable, TokenBucket, DEFAULT_PRIORITY, DEFAULT_TENANT,
};
pub use registry::ModelRegistry;
pub use response_cache::{ResponseCacheStats, StoredResponse};
pub use scheduler::{BatchConfig, BatchReport, BatchStats};
pub use service::{MappingRequest, MappingResponse, MappingService, RequestStats, ServiceConfig};
pub use telemetry::{ServingMetrics, TelemetryConfig, TenantMetrics};
pub use warmstart::{ArchiveLoad, ArchiveShape, ArchiveSnapshot, EliteArchive, SurrogateRanker};
// Re-exported so serving layers can cancel a ticket's running search
// (see [`SearchTicket::cancel_token`]) or pause one for preemption
// (see [`RequestPipeline::slow_path_resumable`]) without naming the
// optimizer crate themselves.
pub use mnc_optim::{CancelToken, PauseToken};
// Telemetry vocabulary types, re-exported so front-ends (wire, server,
// bench) can consume snapshots and traces without naming the telemetry
// crate themselves.
pub use mnc_telemetry::{
    find_sample, parse_prometheus, GenerationEvent, HistogramSnapshot, LatencySummary,
    MetricsSnapshot, PromSample, RequestTrace, StageSpan, TraceEvent,
};
