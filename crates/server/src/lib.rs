//! The TCP front-ends of the mapping service.
//!
//! Two servers share one command [`Dispatcher`] over the same
//! [`mnc_runtime::MappingService`]:
//!
//! * [`Server`] — the legacy blocking front-end: one thread per
//!   connection, frames in, frames out. Simple, and still the reference
//!   for wire semantics.
//! * [`reactor::ReactorServer`] — the event-driven front-end: one
//!   reactor thread multiplexes every connection through an epoll-style
//!   [`poller::Poller`], answers fast-path requests (response-cache
//!   hits, structured rejections) inline, and hands searches to a
//!   bounded worker pool. Admission control ([`reactor::ReactorConfig`])
//!   sheds overload as structured [`ErrorCode::Overloaded`] errors
//!   instead of queueing without bound.
//!
//! Both drive every decoded [`mnc_wire::WireRequest`] through the *same*
//! [`mnc_runtime::RequestPipeline`] that in-process
//! [`MappingService::submit`] uses — a wire round-trip therefore returns
//! a Pareto front bit-identical to the in-process answer for the same
//! request (asserted by `tests/roundtrip.rs` and the `wire_smoke` CI
//! binary, which runs its assertions against both servers).
//!
//! Failure handling is structured end to end: malformed JSON, unsupported
//! protocol versions, unknown presets, invalid requests and over-budget
//! requests ([`RequestLimits`]) each produce a [`WireError`] response —
//! a well-framed message is never answered by a closed connection, and a
//! panic in the service surfaces as an [`ErrorCode::Internal`] error
//! instead of tearing the connection down.
//!
//! Shutdown drains: both servers stop accepting, let in-flight requests
//! finish (bounded by a configurable drain deadline), and only then
//! force-close lingering idle connections — a `Shutdown` command racing
//! an active batch no longer resets that batch's connection.
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

use mnc_runtime::{ArchiveLoad, MappingRequest, MappingService, RuntimeError, TelemetryConfig};
use mnc_wire::frame::{self, FrameError};
use mnc_wire::{
    decode_request, encode_response, ErrorCode, MetricsReport, PersistReport, ServiceStats,
    WireBatch, WireBatchReport, WireBody, WireError, WireOutcome, WirePayload, WireRequest,
    WireResponse, WireResult, PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// [`Server::local_addr`]).
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

/// The transport-agnostic command layer shared by the blocking server
/// and the reactor: decodes wire requests, enforces [`RequestLimits`],
/// executes commands against one [`MappingService`], and owns archive
/// persistence. Keeping this in one place is what guarantees the two
/// front-ends cannot drift apart semantically.
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

    /// Decodes one framed payload and dispatches it, returning the
    /// response plus whether the server should stop.
    pub fn respond(&self, text: &str) -> (WireResponse, bool) {
        match Self::decode_checked(text) {
            Ok(request) => self.dispatch_guarded(request.id, request.body),
            Err(response) => (*response, false),
        }
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

    /// Snapshot of the service's cache/pipeline/archive counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache: self.service.cache_stats(),
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

/// Shutdown coordination shared between the accept loop, the connection
/// handlers and [`ServerHandle`]: the stop flag, the count of requests
/// currently executing, and the registry of live connections. Stopping
/// waits for the in-flight requests to drain (bounded by the configured
/// deadline), then closes every registered socket so handlers blocked in
/// `read_frame` on idle connections wake up and the accept loop's scope
/// can join them instead of deadlocking.
#[derive(Debug, Default)]
struct ServerShared {
    shutdown: AtomicBool,
    connections: Mutex<HashMap<u64, TcpStream>>,
    next_connection: AtomicU64,
    active_requests: AtomicU64,
    drain_deadline_ms: AtomicU64,
}

impl ServerShared {
    /// Flags shutdown, waits (up to the drain deadline) for in-flight
    /// requests to finish, then force-closes every live connection.
    ///
    /// The drain is what lets a `Shutdown` command race an active batch
    /// without resetting the batch's connection: once the flag is up no
    /// handler starts a *new* request, and the one it is serving gets to
    /// send its response before the socket goes away.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let deadline =
            Instant::now() + Duration::from_millis(self.drain_deadline_ms.load(Ordering::Relaxed));
        while self.active_requests.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let connections = {
            let mut registry = self
                .connections
                .lock()
                .expect("connection registry lock never poisoned");
            std::mem::take(&mut *registry)
        };
        for stream in connections.into_values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The one shutdown protocol: flag + drain + force-close live
    /// connections, then poke the accept loop awake with a throwaway
    /// connection so it observes the flag. Shared by the wire `Shutdown`
    /// handler and [`ServerHandle::shutdown`] so the sequence cannot
    /// drift apart.
    fn stop(&self, addr: Option<SocketAddr>) {
        self.begin_shutdown();
        if let Some(addr) = addr {
            drop(TcpStream::connect(addr));
        }
    }
}

/// A bound (but not yet serving) blocking wire front-end over one
/// [`MappingService`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    dispatcher: Dispatcher,
    shared: Arc<ServerShared>,
    /// Elite genomes loaded from the archive snapshot at startup.
    archive_loaded: usize,
}

impl Server {
    /// Binds the listener and, when an archive directory is configured
    /// and holds a snapshot, loads it into the service's elite archive.
    ///
    /// # Errors
    ///
    /// Returns an error when the address cannot be bound or an existing
    /// snapshot fails to load (a *missing* snapshot is a clean cold
    /// start, not an error).
    pub fn bind(config: ServerConfig) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        let service = Arc::new(MappingService::with_telemetry_config(config.telemetry));
        let archive_path = config.archive_dir.map(|dir| dir.join(ARCHIVE_FILE_NAME));
        let mut archive_loaded = 0;
        if let Some(path) = &archive_path {
            match service.restore_archive(path)? {
                ArchiveLoad::Restored(genomes) => archive_loaded = genomes,
                ArchiveLoad::Missing => {}
                ArchiveLoad::Quarantined {
                    quarantined_to,
                    reason,
                } => eprintln!(
                    "warning: archive snapshot {} is corrupt ({reason}); \
                     quarantined to {} and starting cold",
                    path.display(),
                    quarantined_to.display()
                ),
            }
        }
        let shared = Arc::new(ServerShared::default());
        shared
            .drain_deadline_ms
            .store(config.drain_deadline_ms, Ordering::Relaxed);
        Ok(Server {
            listener,
            dispatcher: Dispatcher::new(service, config.limits, archive_path),
            shared,
            archive_loaded,
        })
    }

    /// The bound address (with the actual port when 0 was requested).
    ///
    /// # Errors
    ///
    /// Returns an error when the socket is gone.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The service this front-end serves (shared: in-process callers see
    /// the same cache, archive and pipeline counters as wire clients).
    pub fn service(&self) -> &Arc<MappingService> {
        self.dispatcher.service()
    }

    /// Elite genomes loaded from the archive snapshot at startup.
    pub fn archive_loaded(&self) -> usize {
        self.archive_loaded
    }

    /// Serves connections until a wire `Shutdown` request (or
    /// [`ServerHandle::shutdown`]) flips the stop flag. Each connection
    /// runs on its own scoped thread; the listener thread only accepts.
    ///
    /// `accept` failures never kill the server: they are all transient
    /// from the listener's point of view (`EMFILE` under fd pressure,
    /// `EINTR`, aborted handshakes), so the loop sheds the failure,
    /// backs off briefly to avoid spinning, and keeps serving — a load
    /// spike must degrade into refused connections, not a permanent
    /// outage. Only the shutdown flag ends the loop.
    ///
    /// # Errors
    ///
    /// Currently always returns `Ok` on shutdown; the `Result` is kept
    /// so callers are ready for genuinely fatal exits.
    pub fn run(&self) -> Result<(), ServerError> {
        std::thread::scope(|scope| {
            loop {
                let (stream, _) = match self.listener.accept() {
                    Ok(accepted) => accepted,
                    Err(_) => {
                        if self.shared.is_shutting_down() {
                            return Ok(());
                        }
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        continue;
                    }
                };
                if self.shared.is_shutting_down() {
                    // The wake-up connection (or any racing client) after
                    // shutdown: drop it and stop accepting. Registered
                    // connections were drained and force-closed by
                    // `begin_shutdown`, so the scope joins their handlers
                    // promptly.
                    drop(stream);
                    return Ok(());
                }
                // Small framed responses; Nagle only adds delayed-ACK
                // latency on this traffic shape.
                let _ = stream.set_nodelay(true);
                scope.spawn(move || self.handle_connection(stream));
            }
        })
    }

    /// Runs the server on a background thread, returning a handle with
    /// the bound address — the entry point for tests, the smoke binary
    /// and in-process demos.
    ///
    /// # Errors
    ///
    /// Returns an error when the bound address cannot be read back.
    pub fn spawn(self) -> Result<ServerHandle, ServerError> {
        let addr = self.local_addr()?;
        let service = Arc::clone(self.dispatcher.service());
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            service,
            shared,
            thread,
        })
    }

    /// Flags shutdown, drains in-flight requests, force-closes lingering
    /// connections and pokes the accept loop awake with a throwaway
    /// connection.
    fn request_shutdown(&self) {
        self.shared.stop(self.local_addr().ok());
    }

    /// Serves one connection: frames in, frames out, until the client
    /// disconnects, framing desynchronises, or shutdown is requested.
    fn handle_connection(&self, stream: TcpStream) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        // Register so shutdown can interrupt a blocked read; registration
        // is racy against an in-flight `begin_shutdown`, so re-check the
        // flag afterwards and bail out if the server is already stopping.
        let connection_id = self.shared.next_connection.fetch_add(1, Ordering::Relaxed);
        if let Ok(registered) = stream.try_clone() {
            self.shared
                .connections
                .lock()
                .expect("connection registry lock never poisoned")
                .insert(connection_id, registered);
        }
        if self.shared.is_shutting_down() {
            self.unregister(connection_id);
            return;
        }
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        self.serve_frames(&mut reader, &mut writer);
        self.unregister(connection_id);
    }

    /// Removes one connection from the shutdown registry.
    fn unregister(&self, connection_id: u64) {
        self.shared
            .connections
            .lock()
            .expect("connection registry lock never poisoned")
            .remove(&connection_id);
    }

    /// The frame loop of one registered connection.
    fn serve_frames(&self, reader: &mut BufReader<TcpStream>, writer: &mut TcpStream) {
        loop {
            match frame::read_frame(reader) {
                Ok(None) => return, // clean disconnect
                Ok(Some(text)) => {
                    // Bracket the request as "active" so a concurrent
                    // shutdown drains it (response sent) instead of
                    // resetting the socket underneath it.
                    self.shared.active_requests.fetch_add(1, Ordering::SeqCst);
                    let (response, stop) = self.dispatcher.respond(&text);
                    let sent = Self::send(writer, &response);
                    self.shared.active_requests.fetch_sub(1, Ordering::SeqCst);
                    if sent.is_err() {
                        return;
                    }
                    if stop {
                        self.request_shutdown();
                        return;
                    }
                    if self.shared.is_shutting_down() {
                        return;
                    }
                }
                Err(error) => {
                    // Answer the framing failure structurally, then keep
                    // the connection only if the stream is still
                    // synchronised (payload-level failure); a corrupt
                    // header or dead socket forces a close.
                    let resynchronizable = error.is_resynchronizable();
                    let io_failure = matches!(error, FrameError::Io(_));
                    if !io_failure {
                        let response = WireResponse::err(
                            0,
                            WireError::malformed(format!("unreadable frame: {error}")),
                        );
                        let _ = Self::send(writer, &response);
                    }
                    if !resynchronizable {
                        return;
                    }
                }
            }
        }
    }

    /// Encodes and frames one response.
    fn send(writer: &mut TcpStream, response: &WireResponse) -> std::io::Result<()> {
        frame::write_frame(writer, &encode_response_or_internal(response))
    }
}

/// A running blocking server on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<MappingService>,
    shared: Arc<ServerShared>,
    thread: std::thread::JoinHandle<Result<(), ServerError>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served [`MappingService`].
    pub fn service(&self) -> &Arc<MappingService> {
        &self.service
    }

    /// Stops the accept loop (draining in-flight requests first) and
    /// joins the server thread.
    ///
    /// # Errors
    ///
    /// Propagates the server's exit result.
    pub fn shutdown(self) -> Result<(), ServerError> {
        self.shared.stop(Some(self.addr));
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(ServerError::Io(std::io::Error::other(
                "server thread panicked",
            ))),
        }
    }

    /// Waits for the server to stop on its own (a wire `Shutdown`).
    ///
    /// # Errors
    ///
    /// Propagates the server's exit result.
    pub fn join(self) -> Result<(), ServerError> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(ServerError::Io(std::io::Error::other(
                "server thread panicked",
            ))),
        }
    }
}

/// Binds and spawns a blocking server in one call — the test/demo entry
/// point.
///
/// # Errors
///
/// See [`Server::bind`] and [`Server::spawn`].
pub fn spawn_on_ephemeral_port(
    archive_dir: Option<PathBuf>,
    limits: RequestLimits,
) -> Result<ServerHandle, ServerError> {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        archive_dir,
        limits,
        ..ServerConfig::default()
    })?
    .spawn()
}

/// Resolves a user-supplied address string early so the binary can report
/// bad `--addr` values before binding.
///
/// # Errors
///
/// Returns an error for unresolvable addresses.
pub fn resolve_addr(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("address `{addr}` resolves to nothing")))
}
