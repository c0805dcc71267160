//! The JSON wire protocol of the mapping service.
//!
//! `mnc_runtime`'s request pipeline serves mapping queries in-process;
//! this crate defines how the same queries travel over a byte stream so a
//! remote client and [`MappingService::submit`](mnc_runtime::MappingService)
//! return bit-identical answers:
//!
//! * [`WireRequest`] / [`WireResponse`] — versioned envelopes around a
//!   [`WireBody`] command and a [`WireOutcome`] result. The payload types
//!   are the runtime's own serde-derived `MappingRequest` /
//!   `MappingResponse` / `RequestStats` / `BatchStats` /
//!   `PipelineStats`, so nothing is re-modelled (or silently diverges)
//!   at the protocol boundary.
//! * [`WireError`] — the structured error every failure path maps to:
//!   malformed JSON, unsupported protocol versions, unknown presets,
//!   invalid or over-budget requests, and internal failures each carry an
//!   [`ErrorCode`] plus a human-readable message. A conforming server
//!   never answers a well-framed message with a closed connection.
//! * [`frame`] — length-prefixed framing (`<decimal byte length>\n<json>`)
//!   over any `Read`/`Write` pair, so message boundaries survive partial
//!   reads and malformed payloads without ambiguity.
//!
//! The protocol is transport-agnostic; `mnc-server` drives it over
//! non-blocking TCP with the incremental [`frame::FrameDecoder`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;

use mnc_runtime::{
    BatchConfig, BatchStats, LatencySummary, MappingRequest, MappingResponse, MetricsSnapshot,
    PipelineStats, RuntimeError,
};
use serde::{Deserialize, Serialize};

/// Current wire protocol version. A server answers a mismatched version
/// with [`ErrorCode::UnsupportedVersion`] instead of guessing at field
/// semantics.
pub const PROTOCOL_VERSION: u32 = 1;

/// One request envelope: protocol version, a client-chosen correlation id
/// (echoed verbatim in the response) and the command body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// Client-chosen correlation id, echoed in the response. A response
    /// the server could not correlate (e.g. malformed JSON) carries id 0.
    pub id: u64,
    /// The command.
    pub body: WireBody,
}

impl WireRequest {
    /// An id-tagged request at the current protocol version.
    pub fn new(id: u64, body: WireBody) -> Self {
        WireRequest {
            version: PROTOCOL_VERSION,
            id,
            body,
        }
    }
}

/// The commands a wire client can issue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireBody {
    /// Liveness probe; answered with [`WirePayload::Pong`].
    Ping,
    /// List the registered model presets.
    ListModels,
    /// List the registered platform presets.
    ListPlatforms,
    /// Answer one mapping request with its Pareto front. Boxed so the
    /// envelope enum stays small — `MappingRequest` dominates every
    /// other variant; the JSON wire shape is unchanged.
    Submit(Box<MappingRequest>),
    /// Answer a batch through the coalescing scheduler.
    SubmitBatch(WireBatch),
    /// Snapshot the service counters (cache, pipeline stages, archive).
    Stats,
    /// Snapshot the full telemetry registry: latency histograms with
    /// quantile digests, counters, gauges and a Prometheus text
    /// rendering; answered with [`WirePayload::Metrics`].
    Metrics,
    /// Persist the elite archive to the server's archive file (requires
    /// the server to run with `--archive-dir`).
    Persist,
    /// Stop accepting connections. Shutdown does *not* persist the
    /// archive implicitly — issue [`WireBody::Persist`] first to keep
    /// warm-start knowledge across the restart.
    Shutdown,
}

/// A batched submission: the requests plus the batch thread budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireBatch {
    /// The mapping requests, answered in order.
    pub requests: Vec<MappingRequest>,
    /// Scheduler thread budget (defaults split the machine's cores).
    pub config: BatchConfig,
}

/// One response envelope, correlated to its request by `id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireResponse {
    /// Protocol version of the answering server.
    pub version: u32,
    /// The request's correlation id (0 when the request could not be
    /// decoded far enough to learn it).
    pub id: u64,
    /// The result.
    pub outcome: WireOutcome,
}

impl WireResponse {
    /// A success response at the current protocol version.
    pub fn ok(id: u64, payload: WirePayload) -> Self {
        WireResponse {
            version: PROTOCOL_VERSION,
            id,
            outcome: WireOutcome::payload(payload),
        }
    }

    /// An error response at the current protocol version.
    pub fn err(id: u64, error: WireError) -> Self {
        WireResponse {
            version: PROTOCOL_VERSION,
            id,
            outcome: WireOutcome::Err(error),
        }
    }
}

/// A response's result: payload or structured error. (The vendored serde
/// has no `Result` impl, and a named enum keeps the JSON self-describing:
/// `{"Ok": ...}` / `{"Err": ...}`. The payload is boxed — it dwarfs the
/// error arm, and serde sees through the `Box`, so the JSON is
/// unaffected.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireOutcome {
    /// The command succeeded.
    Ok(Box<WirePayload>),
    /// The command failed.
    Err(WireError),
}

impl WireOutcome {
    /// Wraps a payload.
    pub fn payload(payload: WirePayload) -> Self {
        WireOutcome::Ok(Box::new(payload))
    }

    /// Converts into a standard `Result`.
    pub fn into_result(self) -> Result<WirePayload, WireError> {
        match self {
            WireOutcome::Ok(payload) => Ok(*payload),
            WireOutcome::Err(error) => Err(error),
        }
    }
}

/// Per-request result inside a batch response (requests in a batch fail
/// independently; the response arm is boxed like [`WireOutcome`]'s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireResult {
    /// The request was answered.
    Ok(Box<MappingResponse>),
    /// The request failed.
    Err(WireError),
}

impl WireResult {
    /// Wraps a response.
    pub fn response(response: MappingResponse) -> Self {
        WireResult::Ok(Box::new(response))
    }

    /// Converts into a standard `Result`.
    pub fn into_result(self) -> Result<MappingResponse, WireError> {
        match self {
            WireResult::Ok(response) => Ok(*response),
            WireResult::Err(error) => Err(error),
        }
    }
}

/// The payload of a successful [`WireResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WirePayload {
    /// Answer to [`WireBody::Ping`].
    Pong,
    /// Registered model preset names.
    Models(Vec<String>),
    /// Registered platform preset names.
    Platforms(Vec<String>),
    /// The Pareto front for one [`WireBody::Submit`].
    Front(MappingResponse),
    /// The per-request outcomes of one [`WireBody::SubmitBatch`].
    Batch(WireBatchReport),
    /// Service counters for [`WireBody::Stats`].
    Stats(ServiceStats),
    /// Telemetry snapshot for [`WireBody::Metrics`].
    Metrics(MetricsReport),
    /// The archive was persisted.
    Persisted(PersistReport),
    /// The server acknowledged [`WireBody::Shutdown`] and will stop.
    ShuttingDown,
}

/// A batch answer: per-request results in request order plus the batch
/// accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireBatchReport {
    /// One result per submitted request, in submission order (coalesced
    /// duplicates carry clones of their group leader's response).
    pub responses: Vec<WireResult>,
    /// Input positions of the coalesced group leaders, in group order.
    pub leader_positions: Vec<usize>,
    /// Batch-level accounting. `requests` counts every submitted request
    /// (matching `responses.len()`); members rejected by the server's
    /// budget caps ran no search, so they appear in neither
    /// `unique_requests` nor `coalesced_requests`.
    pub stats: BatchStats,
}

/// The counters of the cross-request evaluation cache the service no
/// longer keeps; every field reads zero. The struct stays on the wire
/// only because the benchmark harness under `perfbench/` still reads
/// these four fields, and goes with the next change to that harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub evictions: u64,
    /// Always 0.
    pub entries: usize,
}

/// Service-lifetime counters: the per-stage pipeline counters and the
/// warm-start archive size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Always zero: the service keeps no cross-request evaluation cache.
    /// See [`CacheStats`].
    pub cache: CacheStats,
    /// Per-stage request-pipeline counters.
    pub pipeline: PipelineStats,
    /// Elite genomes currently archived for warm starts.
    pub archive_genomes: usize,
}

/// The full telemetry snapshot for [`WireBody::Metrics`]: the raw
/// registry (every counter, gauge and histogram), pre-digested latency
/// summaries, and the same snapshot rendered as Prometheus text so
/// scrape-style consumers need no JSON handling at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Every registered metric, in stable (sorted) order.
    pub metrics: MetricsSnapshot,
    /// Per-pipeline-stage latency digests, in stage order.
    pub stage_latency: Vec<LatencySummary>,
    /// End-to-end request latency digest.
    pub request_latency: LatencySummary,
    /// The snapshot rendered in Prometheus text exposition format.
    pub prometheus: String,
}

/// Acknowledgement of a successful [`WireBody::Persist`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistReport {
    /// The snapshot file written.
    pub path: String,
    /// Elite genomes it holds.
    pub genomes: usize,
}

/// Machine-readable failure class of a [`WireError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The frame held no decodable [`WireRequest`] (malformed JSON or a
    /// shape mismatch).
    MalformedRequest,
    /// The request's protocol version is not served by this server.
    UnsupportedVersion,
    /// The named model preset is not registered.
    UnknownModel,
    /// The named platform preset is not registered.
    UnknownPlatform,
    /// A request parameter is invalid (zero budget, bad rates, ...).
    InvalidRequest,
    /// The request exceeds the server's configured budget limits.
    OverBudget,
    /// The server shed the request under load (admission control:
    /// connection cap, queue bound or per-connection in-flight cap).
    /// Transient by construction — the client should back off and retry.
    Overloaded,
    /// The request's deadline expired before its search could start
    /// (e.g. while queued for a worker); no search ran. A deadline that
    /// expires mid-search answers successfully with a partial front
    /// (`RequestStats::partial`) instead of this error.
    DeadlineExceeded,
    /// The requesting tenant's evaluation token bucket is empty. The
    /// error's `retry_after_ms` says when the bucket refills enough to
    /// admit one more request. Transient by construction — the server
    /// answers it on a healthy connection, never by hanging up.
    BudgetExhausted,
    /// Archive persistence failed (or no archive file is configured).
    Persistence,
    /// An internal failure: the request was well-formed but the service
    /// could not answer it.
    Internal,
}

/// A structured wire-level error: every failure a conforming server can
/// produce, including malformed input, maps to one of these — never to a
/// silently closed connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
    /// For transient refusals ([`ErrorCode::BudgetExhausted`]): how long
    /// the client should wait before retrying, in milliseconds. `None`
    /// for every other code.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// An error with the given code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A malformed-request error.
    pub fn malformed(message: impl Into<String>) -> Self {
        WireError::new(ErrorCode::MalformedRequest, message)
    }

    /// An unsupported-version error naming both versions.
    pub fn unsupported_version(requested: u32) -> Self {
        WireError::new(
            ErrorCode::UnsupportedVersion,
            format!("protocol version {requested} is not served (this server speaks {PROTOCOL_VERSION})"),
        )
    }

    /// An over-budget error.
    pub fn over_budget(message: impl Into<String>) -> Self {
        WireError::new(ErrorCode::OverBudget, message)
    }

    /// A load-shedding error (admission control refused the request).
    pub fn overloaded(message: impl Into<String>) -> Self {
        WireError::new(ErrorCode::Overloaded, message)
    }

    /// A budget-exhaustion refusal carrying the refill hint.
    pub fn budget_exhausted(message: impl Into<String>, retry_after_ms: u64) -> Self {
        let mut error = WireError::new(ErrorCode::BudgetExhausted, message);
        error.retry_after_ms = Some(retry_after_ms);
        error
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

impl From<&RuntimeError> for WireError {
    fn from(error: &RuntimeError) -> Self {
        let code = match error {
            RuntimeError::UnknownModel { .. } => ErrorCode::UnknownModel,
            RuntimeError::UnknownPlatform { .. } => ErrorCode::UnknownPlatform,
            RuntimeError::InvalidRequest { .. } => ErrorCode::InvalidRequest,
            RuntimeError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
            RuntimeError::BudgetExhausted { .. } => ErrorCode::BudgetExhausted,
            RuntimeError::Persistence { .. } => ErrorCode::Persistence,
            RuntimeError::Mpsoc(_)
            | RuntimeError::Core(_)
            | RuntimeError::Optim(_)
            | RuntimeError::Predictor(_) => ErrorCode::Internal,
        };
        let mut wire = WireError::new(code, error.to_string());
        if let RuntimeError::BudgetExhausted { retry_after_ms, .. } = error {
            wire.retry_after_ms = Some(*retry_after_ms);
        }
        wire
    }
}

impl From<RuntimeError> for WireError {
    fn from(error: RuntimeError) -> Self {
        WireError::from(&error)
    }
}

/// Encodes a request envelope as compact JSON.
///
/// # Errors
///
/// Returns an error when the value cannot be rendered (non-finite float).
pub fn encode_request(request: &WireRequest) -> Result<String, serde_json::Error> {
    serde_json::to_string(request)
}

/// Decodes a request envelope from JSON.
///
/// # Errors
///
/// Returns an error for malformed JSON or a shape mismatch (mapped to
/// [`ErrorCode::MalformedRequest`] by servers).
pub fn decode_request(text: &str) -> Result<WireRequest, serde_json::Error> {
    serde_json::from_str(text)
}

/// Encodes a response envelope as compact JSON.
///
/// # Errors
///
/// Returns an error when the value cannot be rendered (non-finite float).
pub fn encode_response(response: &WireResponse) -> Result<String, serde_json::Error> {
    serde_json::to_string(response)
}

/// Decodes a response envelope from JSON.
///
/// # Errors
///
/// Returns an error for malformed JSON or a shape mismatch.
pub fn decode_response(text: &str) -> Result<WireResponse, serde_json::Error> {
    serde_json::from_str(text)
}

/// A response outcome encoded once, with the correlation id left open.
///
/// A replayed or coalesced answer goes to many requests that differ only
/// in their id. [`EncodedOutcome::write_frame`] splices each id into the
/// one encoding and yields byte for byte the frame of
/// [`encode_response`] for that id, without re-encoding the payload.
#[derive(Debug, Clone, Copy)]
pub struct EncodedOutcome<'a> {
    /// The outcome's compact JSON, in pieces written in order.
    parts: [&'a str; 3],
}

impl<'a> EncodedOutcome<'a> {
    /// An outcome from its compact JSON (`serde_json::to_string` of a
    /// [`WireOutcome`]).
    pub fn new(outcome_json: &'a str) -> Self {
        EncodedOutcome {
            parts: [outcome_json, "", ""],
        }
    }

    /// The outcome of [`WirePayload::Front`] around a response's compact
    /// JSON (`serde_json::to_string` of a [`MappingResponse`]).
    pub fn front(response_json: &'a str) -> Self {
        EncodedOutcome {
            parts: ["{\"Ok\":{\"Front\":", response_json, "}}"],
        }
    }

    /// Appends the length-prefixed frame of the response to request `id`
    /// to `out` (the [`frame`] format).
    pub fn write_frame(&self, id: u64, out: &mut Vec<u8>) {
        let head = format!("{{\"version\":{PROTOCOL_VERSION},\"id\":{id},\"outcome\":");
        let len = head.len() + self.parts.iter().map(|p| p.len()).sum::<usize>() + 1;
        let prefix = format!("{len}\n");
        out.reserve(prefix.len() + len);
        out.extend_from_slice(prefix.as_bytes());
        out.extend_from_slice(head.as_bytes());
        for part in self.parts {
            out.extend_from_slice(part.as_bytes());
        }
        out.push(b'}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_envelopes_round_trip() {
        let request = WireRequest::new(
            7,
            WireBody::Submit(Box::new(
                MappingRequest::new("tiny_cnn_cifar10", "dual_test")
                    .validation_samples(300)
                    .generations(2)
                    .population_size(8)
                    .seed(u64::MAX - 1)
                    .tenant("acme")
                    .priority(2),
            )),
        );
        let back = decode_request(&encode_request(&request).unwrap()).unwrap();
        assert_eq!(request, back);

        let batch = WireRequest::new(
            8,
            WireBody::SubmitBatch(WireBatch {
                requests: vec![MappingRequest::new("a", "b")],
                config: BatchConfig::new().max_concurrent(2),
            }),
        );
        let back = decode_request(&encode_request(&batch).unwrap()).unwrap();
        assert_eq!(batch, back);

        for body in [
            WireBody::Ping,
            WireBody::ListModels,
            WireBody::ListPlatforms,
            WireBody::Stats,
            WireBody::Metrics,
            WireBody::Persist,
            WireBody::Shutdown,
        ] {
            let request = WireRequest::new(1, body);
            assert_eq!(
                decode_request(&encode_request(&request).unwrap()).unwrap(),
                request
            );
        }
    }

    #[test]
    fn error_responses_round_trip_with_codes() {
        for (code, message) in [
            (ErrorCode::MalformedRequest, "bad json"),
            (ErrorCode::UnsupportedVersion, "v99"),
            (ErrorCode::UnknownModel, "resnet"),
            (ErrorCode::OverBudget, "too many evaluations"),
            (ErrorCode::Internal, "boom"),
        ] {
            let response = WireResponse::err(3, WireError::new(code, message));
            let back = decode_response(&encode_response(&response).unwrap()).unwrap();
            assert_eq!(response, back);
            match back.outcome {
                WireOutcome::Err(error) => {
                    assert_eq!(error.code, code);
                    assert_eq!(error.retry_after_ms, None);
                }
                WireOutcome::Ok(_) => panic!("error outcome expected"),
            }
        }
    }

    #[test]
    fn budget_exhaustion_round_trips_with_its_retry_hint() {
        let response = WireResponse::err(4, WireError::budget_exhausted("acme is dry", 250));
        let back = decode_response(&encode_response(&response).unwrap()).unwrap();
        assert_eq!(response, back);
        match back.outcome {
            WireOutcome::Err(error) => {
                assert_eq!(error.code, ErrorCode::BudgetExhausted);
                assert_eq!(error.retry_after_ms, Some(250));
            }
            WireOutcome::Ok(_) => panic!("error outcome expected"),
        }
    }

    #[test]
    fn runtime_errors_map_to_wire_codes() {
        let unknown = RuntimeError::UnknownModel {
            name: "resnet".to_string(),
            available: "vgg".to_string(),
        };
        assert_eq!(WireError::from(&unknown).code, ErrorCode::UnknownModel);
        let invalid = RuntimeError::InvalidRequest {
            reason: "zero".to_string(),
        };
        assert_eq!(WireError::from(invalid).code, ErrorCode::InvalidRequest);
        let persistence = RuntimeError::Persistence {
            path: "/tmp/a".to_string(),
            reason: "denied".to_string(),
        };
        assert_eq!(WireError::from(persistence).code, ErrorCode::Persistence);
        let deadline = RuntimeError::DeadlineExceeded { deadline_ms: 50 };
        assert_eq!(WireError::from(&deadline).code, ErrorCode::DeadlineExceeded);
        let budget = RuntimeError::BudgetExhausted {
            tenant: "acme".to_string(),
            retry_after_ms: 120,
        };
        let wire = WireError::from(&budget);
        assert_eq!(wire.code, ErrorCode::BudgetExhausted);
        assert_eq!(wire.retry_after_ms, Some(120));
        assert!(wire.message.contains("acme"));
    }

    #[test]
    fn malformed_json_fails_to_decode() {
        assert!(decode_request("{\"version\":1,").is_err());
        assert!(decode_request("not json at all").is_err());
        assert!(decode_request("{\"version\":1,\"id\":2}").is_err());
    }
}
