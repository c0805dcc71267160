//! The TCP front-end of the mapping service.
//!
//! [`reactor::ReactorServer`] serves the wire protocol: one reactor
//! thread multiplexes every connection through an epoll-style
//! [`poller::Poller`] (with a portable scan fallback off Linux), answers
//! fast-path requests (response-cache hits, structured rejections)
//! inline, and hands searches to a bounded worker pool. Admission
//! control ([`reactor::ReactorConfig`]) sheds overload as structured
//! [`ErrorCode::Overloaded`] errors instead of queueing without bound.
//! The transport-agnostic command layer is the [`Dispatcher`].
//!
//! Every decoded [`mnc_wire::WireRequest`] runs through the *same*
//! [`mnc_runtime::RequestPipeline`] that in-process
//! [`MappingService::submit`] uses, and that in-process call is the
//! reference for wire semantics: a wire round-trip returns a Pareto front
//! bit-identical to the in-process answer for the same request (asserted
//! by `tests/roundtrip.rs` and the `wire_smoke` CI binary).
//!
//! Failure handling is structured end to end: malformed JSON, unsupported
//! protocol versions, unknown presets, invalid requests and over-budget
//! requests ([`RequestLimits`]) each produce a [`WireError`] response —
//! a well-framed message is never answered by a closed connection, and a
//! panic in the service surfaces as an [`ErrorCode::Internal`] error
//! instead of tearing the connection down.
//!
//! Shutdown drains: the server stops accepting, lets in-flight requests
//! finish (bounded by a configurable drain deadline), and only then
//! force-closes lingering idle connections — a `Shutdown` command racing
//! an active batch does not reset that batch's connection.
//!
//! With `--archive-dir` the server loads the elite archive snapshot at
//! startup and writes it back on the wire `Persist` command, so
//! warm-start knowledge survives restarts (`Shutdown` does *not* persist
//! implicitly — persistence is an explicit, observable action).

// The reactor's poller needs raw `epoll` FFI on Linux (the workspace is
// built offline, without a libc binding crate); everything outside
// `poller::sys` stays free of unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod poller;
pub mod reactor;

pub use client::{ClientConfig, ClientError, WireClient};
pub use reactor::{spawn_reactor_on_ephemeral_port, ReactorConfig, ReactorHandle, ReactorServer};

use mnc_runtime::{MappingRequest, MappingService, RuntimeError, TelemetryConfig};
use mnc_wire::{
    decode_request, encode_response, CacheStats, ErrorCode, MetricsReport, PersistReport,
    ServiceStats, WireBatch, WireBatchReport, WireBody, WireError, WireOutcome, WirePayload,
    WireRequest, WireResponse, WireResult, PROTOCOL_VERSION,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// File name of the elite-archive snapshot inside `--archive-dir`.
pub const ARCHIVE_FILE_NAME: &str = "elite_archive.json";

/// Default time a stopping server waits for in-flight requests before
/// force-closing their connections.
pub const DEFAULT_DRAIN_DEADLINE_MS: u64 = 5_000;

/// Per-request budget caps the server enforces before running a search.
/// Requests beyond a cap are answered with [`ErrorCode::OverBudget`]
/// instead of tying a worker thread to an arbitrarily large search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestLimits {
    /// Maximum requests in one `SubmitBatch`.
    pub max_batch_requests: usize,
    /// Maximum evaluations one request may schedule (its explicit
    /// `max_evaluations` cap, or `generations × population_size` without
    /// one).
    pub max_evaluations: usize,
    /// Maximum synthetic validation samples per request (validation-set
    /// generation dominates cold evaluator builds).
    pub max_validation_samples: usize,
}

impl Default for RequestLimits {
    fn default() -> Self {
        RequestLimits {
            max_batch_requests: 256,
            max_evaluations: 250_000,
            max_validation_samples: 100_000,
        }
    }
}

impl RequestLimits {
    /// Checks one mapping request against the caps.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorCode::OverBudget`] error naming the violated cap.
    pub fn check(&self, request: &MappingRequest) -> Result<(), WireError> {
        if request.validation_samples > self.max_validation_samples {
            return Err(WireError::over_budget(format!(
                "validation_samples {} exceeds the server cap of {}",
                request.validation_samples, self.max_validation_samples
            )));
        }
        let scheduled = request
            .generations
            .saturating_mul(request.population_size)
            .min(request.max_evaluations.unwrap_or(usize::MAX));
        if scheduled > self.max_evaluations {
            return Err(WireError::over_budget(format!(
                "request would schedule up to {scheduled} evaluations, over the server cap of {}",
                self.max_evaluations
            )));
        }
        Ok(())
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ReactorServer::local_addr`]).
    pub addr: String,
    /// Directory for the elite-archive snapshot: loaded at startup when
    /// present, written by the wire `Persist` command.
    pub archive_dir: Option<PathBuf>,
    /// Per-request budget caps.
    pub limits: RequestLimits,
    /// Telemetry knobs of the served [`MappingService`] (trace retention,
    /// slow-request threshold, search-generation streaming).
    pub telemetry: TelemetryConfig,
    /// How long shutdown waits for in-flight requests to finish before
    /// force-closing their connections.
    pub drain_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            archive_dir: None,
            limits: RequestLimits::default(),
            telemetry: TelemetryConfig::default(),
            drain_deadline_ms: DEFAULT_DRAIN_DEADLINE_MS,
        }
    }
}

/// Errors starting or running the server.
#[derive(Debug)]
pub enum ServerError {
    /// Socket operations failed.
    Io(std::io::Error),
    /// The archive snapshot could not be loaded at startup.
    Runtime(RuntimeError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
            ServerError::Runtime(e) => write!(f, "server startup error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Runtime(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<RuntimeError> for ServerError {
    fn from(e: RuntimeError) -> Self {
        ServerError::Runtime(e)
    }
}

/// The transport-agnostic command layer behind the reactor: decodes wire
/// requests, enforces [`RequestLimits`], executes commands against one
/// [`MappingService`], and owns archive persistence.
#[derive(Debug)]
pub struct Dispatcher {
    service: Arc<MappingService>,
    limits: RequestLimits,
    archive_path: Option<PathBuf>,
}

impl Dispatcher {
    /// Builds a dispatcher over a service.
    pub fn new(
        service: Arc<MappingService>,
        limits: RequestLimits,
        archive_path: Option<PathBuf>,
    ) -> Self {
        Dispatcher {
            service,
            limits,
            archive_path,
        }
    }

    /// The served service.
    pub fn service(&self) -> &Arc<MappingService> {
        &self.service
    }

    /// The per-request budget caps.
    pub fn limits(&self) -> &RequestLimits {
        &self.limits
    }

    /// Decodes one framed payload and checks its protocol version,
    /// mapping failures to the ready-to-send error response.
    ///
    /// # Errors
    ///
    /// Returns the [`WireResponse`] to send for malformed or
    /// version-skewed requests.
    pub fn decode_checked(text: &str) -> Result<WireRequest, Box<WireResponse>> {
        let request = match decode_request(text) {
            Ok(request) => request,
            Err(error) => {
                return Err(Box::new(WireResponse::err(
                    0,
                    WireError::malformed(error.to_string()),
                )))
            }
        };
        if request.version != PROTOCOL_VERSION {
            return Err(Box::new(WireResponse::err(
                request.id,
                WireError::unsupported_version(request.version),
            )));
        }
        Ok(request)
    }

    /// Dispatches one decoded command, converting a panic into an
    /// [`ErrorCode::Internal`] error response.
    ///
    /// The evaluation path is pure computation, so a panic there leaves
    /// no broken invariants behind; the residual risk is a panic *while
    /// holding* one of the service's mutexes, which poisons that lock and
    /// turns later requests on the same path into further (caught,
    /// structured) Internal errors rather than crashes.
    pub fn dispatch_guarded(&self, id: u64, body: WireBody) -> (WireResponse, bool) {
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(body))) {
            Ok((Ok(payload), stop)) => (WireResponse::ok(id, payload), stop),
            Ok((Err(error), stop)) => (WireResponse::err(id, error), stop),
            Err(panic) => (WireResponse::err(id, panic_error(panic)), false),
        }
    }

    /// Executes one command against the service.
    fn dispatch(&self, body: WireBody) -> (Result<WirePayload, WireError>, bool) {
        match body {
            WireBody::Ping => (Ok(WirePayload::Pong), false),
            WireBody::ListModels => (
                Ok(WirePayload::Models(
                    self.service
                        .models()
                        .names()
                        .iter()
                        .map(|s| (*s).to_string())
                        .collect(),
                )),
                false,
            ),
            WireBody::ListPlatforms => (
                Ok(WirePayload::Platforms(
                    self.service
                        .platforms()
                        .names()
                        .iter()
                        .map(|s| (*s).to_string())
                        .collect(),
                )),
                false,
            ),
            WireBody::Submit(request) => (self.submit(&request), false),
            WireBody::SubmitBatch(batch) => (self.submit_batch(batch), false),
            WireBody::Stats => (Ok(WirePayload::Stats(self.stats())), false),
            WireBody::Metrics => (Ok(WirePayload::Metrics(self.metrics())), false),
            WireBody::Persist => (self.persist().map(WirePayload::Persisted), false),
            WireBody::Shutdown => (Ok(WirePayload::ShuttingDown), true),
        }
    }

    /// Snapshot of the service's pipeline/archive counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache: CacheStats::default(),
            pipeline: self.service.pipeline_stats(),
            archive_genomes: self.service.elite_archive().len(),
        }
    }

    /// Snapshot of the service's full telemetry registry.
    pub fn metrics(&self) -> MetricsReport {
        MetricsReport {
            metrics: self.service.metrics_snapshot(),
            stage_latency: self.service.stage_latency(),
            request_latency: self.service.request_latency(),
            prometheus: self.service.prometheus_text(),
        }
    }

    /// One mapping request through the shared pipeline.
    fn submit(&self, request: &MappingRequest) -> Result<WirePayload, WireError> {
        self.limits.check(request)?;
        self.service
            .submit(request)
            .map(WirePayload::Front)
            .map_err(WireError::from)
    }

    /// A batch through the coalescing scheduler. Requests over the budget
    /// caps are answered with per-request `OverBudget` errors; the rest
    /// of the batch still runs (and still coalesces).
    pub fn submit_batch(&self, batch: WireBatch) -> Result<WirePayload, WireError> {
        if batch.requests.len() > self.limits.max_batch_requests {
            return Err(WireError::over_budget(format!(
                "batch of {} requests exceeds the server cap of {}",
                batch.requests.len(),
                self.limits.max_batch_requests
            )));
        }
        // Partition: in-budget requests run through the scheduler, the
        // rest are answered structurally without occupying a worker.
        let mut results: Vec<Option<WireResult>> = batch.requests.iter().map(|_| None).collect();
        let mut admitted: Vec<MappingRequest> = Vec::new();
        let mut admitted_positions: Vec<usize> = Vec::new();
        for (position, request) in batch.requests.iter().enumerate() {
            match self.limits.check(request) {
                Ok(()) => {
                    admitted.push(request.clone());
                    admitted_positions.push(position);
                }
                Err(error) => results[position] = Some(WireResult::Err(error)),
            }
        }
        let report = self.service.submit_batch_with(&admitted, &batch.config);
        let leader_positions: Vec<usize> = report
            .leader_positions
            .iter()
            .map(|&index| admitted_positions[index])
            .collect();
        // The scheduler only saw the admitted requests; restore the
        // batch-level view so `stats.requests` matches the response
        // vector. Budget-rejected members ran no search and coalesced
        // with nothing, so unique/coalesced stay admitted-only.
        let mut stats = report.stats;
        stats.requests = batch.requests.len();
        for (index, outcome) in report.responses.into_iter().enumerate() {
            results[admitted_positions[index]] = Some(match outcome {
                Ok(response) => WireResult::response(response),
                Err(error) => WireResult::Err(WireError::from(error)),
            });
        }
        Ok(WirePayload::Batch(WireBatchReport {
            responses: results
                .into_iter()
                .map(|slot| slot.expect("every position answered"))
                .collect(),
            leader_positions,
            stats,
        }))
    }

    /// Writes the elite archive to the configured snapshot file.
    pub fn persist(&self) -> Result<PersistReport, WireError> {
        let Some(path) = &self.archive_path else {
            return Err(WireError::new(
                ErrorCode::Persistence,
                "no archive directory configured (start the server with --archive-dir)",
            ));
        };
        let genomes = self.service.save_archive(path).map_err(WireError::from)?;
        Ok(PersistReport {
            path: path.display().to_string(),
            genomes,
        })
    }
}

/// Renders a caught panic payload as a structured wire error.
pub(crate) fn panic_error(panic: Box<dyn std::any::Any + Send>) -> WireError {
    let message = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "request handler panicked".to_string());
    WireError::new(ErrorCode::Internal, format!("panic: {message}"))
}

/// Encodes one response, degrading an unserializable response (an
/// internal bug: non-finite float) to a structured Internal error rather
/// than a dropped connection.
pub(crate) fn encode_response_or_internal(response: &WireResponse) -> String {
    encode_response(response).unwrap_or_else(|e| {
        encode_response(&WireResponse::err(
            response.id,
            WireError::new(ErrorCode::Internal, format!("unserializable response: {e}")),
        ))
        .expect("error responses always serialize")
    })
}

/// Encodes one outcome for [`mnc_wire::EncodedOutcome`], degrading an
/// unserializable one to a structured Internal error exactly as
/// [`encode_response_or_internal`] does.
pub(crate) fn encode_outcome_or_internal(outcome: &WireOutcome) -> String {
    serde_json::to_string(outcome).unwrap_or_else(|e| {
        serde_json::to_string(&WireOutcome::Err(WireError::new(
            ErrorCode::Internal,
            format!("unserializable response: {e}"),
        )))
        .expect("error outcomes always serialize")
    })
}
